"""The assignment solver: the numpy LSAP port and the frame matching on it.

scipy is a test dependency only: its linear_sum_assignment is the oracle
of the port, and on the pad-squared matrix, with the pairs that touch a
dummy row or column dropped, the oracle of solve_assignment. So among
equal-cost optima the matching keeps scipy's tie rules, one solve per
frame, the rule eval's CLEAR-MOT matching uses too.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as scipy_lsap

import courttrack
from courttrack.synth import brute_force_assignment
from courttrack.track import linear_sum_assignment, solve_assignment


def scipy_solve_assignment(entries: np.ndarray, pad: float) -> list[tuple[int, int]]:
    """scipy's pairs on the pad-squared matrix, dummy pairs dropped."""
    n_rows, n_cols = entries.shape
    if n_rows == 0 or n_cols == 0:
        return []
    size = max(n_rows, n_cols)
    padded = np.full((size, size), pad)
    padded[:n_rows, :n_cols] = entries
    rows, cols = scipy_lsap(padded)
    return [(r, c) for r, c in zip(rows.tolist(), cols.tolist()) if r < n_rows and c < n_cols]


@st.composite
def lsap_matrices(draw, max_side=9):
    """Cost matrices of both rectangular orientations, empty sides included."""
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    kind = draw(st.sampled_from(["uniform", "ties", "padded", "gains"]))
    if kind == "uniform":
        cell = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    elif kind == "ties":
        cell = st.integers(0, 3).map(float)
    elif kind == "padded":  # a few real costs among gated-out cells, as match_frame builds
        cell = st.one_of(st.just(5.0), st.just(5.0), st.floats(0.0, 0.5))
    else:  # eval_mot_records solves on -IoU gains, zero below the threshold
        cell = st.one_of(st.just(-0.0), st.floats(0.5, 1.0).map(lambda g: -g))
    values = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=float).reshape(rows, cols)


@st.composite
def repeated_column_matrices(draw, max_side=7):
    """(entries, pad) inputs of random floats where columns repeat:
    swapping two equal columns is an exact tie."""
    rows = draw(st.integers(1, max_side))
    distinct = draw(st.integers(1, max_side))
    base = draw(
        st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=rows * distinct, max_size=rows * distinct)
    )
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=max_side))
    entries = np.array(base).reshape(rows, distinct)[:, picks]
    return entries, draw(st.sampled_from([0.5, 10.0]))


@st.composite
def exact_cost_matrices(draw, max_side=7):
    """(entries, pad) inputs whose sums are exact in floating point, so
    that every tie is a true tie for any summation order."""
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    quarters = draw(st.integers(1, 16))
    cell = st.integers(0, quarters).map(lambda q: q / 4.0)
    pad = draw(cell)
    if draw(st.booleans()):  # pad-dominated: most cells gated out
        cell = st.one_of(st.just(pad), st.just(pad), cell)
    values = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return np.array(values).reshape(rows, cols), pad


class TestLinearSumAssignment:
    @settings(max_examples=400)
    @given(lsap_matrices())
    def test_matches_scipy_ties_included(self, cost):
        rows, cols = linear_sum_assignment(cost)
        want_rows, want_cols = scipy_lsap(cost)
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()

    def test_constant_matrix_gives_identity(self):
        rows, cols = linear_sum_assignment(np.zeros((4, 4)))
        assert cols.tolist() == [0, 1, 2, 3]

    def test_tall_matrix_is_sorted_by_row(self):
        rows, cols = linear_sum_assignment(np.array([[9.0, 1.0], [0.0, 9.0], [5.0, 5.0]]))
        assert rows.tolist() == [0, 1]
        assert cols.tolist() == [1, 0]

    def test_infinite_cells_are_avoided(self):
        rows, cols = linear_sum_assignment(np.array([[np.inf, 1.0], [2.0, np.inf]]))
        assert cols.tolist() == [1, 0]

    @pytest.mark.parametrize(
        "cost",
        [
            np.array([[np.nan, 1.0]]),
            np.array([[-np.inf, 1.0]]),
            np.array([[np.inf, np.inf], [1.0, 2.0]]),
            np.zeros(3),
        ],
    )
    def test_invalid_or_infeasible_rejected(self, cost):
        with pytest.raises(ValueError):
            linear_sum_assignment(cost)


class TestSolveAssignmentRefinement:
    @settings(max_examples=600)  # about 300 of each kind
    @given(st.one_of(exact_cost_matrices(), repeated_column_matrices()))
    def test_matches_scipy_on_the_padded_matrix(self, matrix):
        assert solve_assignment(*matrix) == scipy_solve_assignment(*matrix)

    @settings(max_examples=200)
    @given(exact_cost_matrices())
    def test_matches_brute_force(self, matrix):
        entries, pad = matrix
        pairs = solve_assignment(entries, pad)
        _, oracle_total = brute_force_assignment(entries)
        assert math.fsum(entries[r, c] for r, c in pairs) == oracle_total

    def test_one_solve_when_the_first_optimum_is_smallest(self, monkeypatch):
        import courttrack.track as track

        calls = []

        def counted(cost):
            calls.append(cost.shape)
            return linear_sum_assignment(cost)

        monkeypatch.setattr(track, "linear_sum_assignment", counted)
        # every cell of an unmatched row is a tie; ties take no second solve
        pad = 5.0
        entries = np.full((6, 6), pad)
        entries[np.arange(1, 6), np.arange(5)] = 0.1
        assert solve_assignment(entries, pad) == [(0, 5), (1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]
        assert calls == [(6, 6)]

    def test_near_ties_keep_an_optimum(self):
        # decimal costs whose float sums differ in the last bit, so near
        # ties are no ties
        entries = np.array(
            [
                [0.6, 0.8, 0.4, 0.7, 0.6, 0.4, 0.7, 0.8, 0.6],
                [0.8, 0.6, 0.5, 0.9, 0.3, 0.9, 0.9, 0.2, 0.3],
                [0.2, 0.3, 0.8, 0.3, 1.0, 0.2, 0.8, 0.7, 0.1],
                [0.2, 0.2, 0.2, 0.3, 0.6, 0.2, 0.2, 0.1, 0.1],
                [0.7, 0.4, 0.0, 0.4, 1.0, 0.5, 0.2, 1.0, 0.8],
                [0.4, 0.5, 0.5, 0.6, 0.7, 0.9, 0.9, 0.7, 0.6],
                [0.2, 0.5, 0.6, 0.9, 0.5, 0.3, 1.0, 0.8, 0.6],
                [0.7, 0.1, 0.9, 0.5, 1.0, 0.5, 0.2, 0.7, 0.2],
            ]
        )
        pairs = solve_assignment(entries, 0.1)
        _, oracle_total = brute_force_assignment(entries)
        assert [r for r, _ in pairs] == list(range(8))
        assert math.fsum(entries[r, c] for r, c in pairs) == oracle_total


def test_cli_import_loads_no_scipy():
    src = Path(courttrack.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys, courttrack.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
