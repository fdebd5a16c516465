"""The assignment solver and the frame matching on it.

scipy is a test dependency only: its linear_sum_assignment is the oracle
of solve_assignment, ties included. So among equal-cost optima the
tracker's matching, one solve per frame, and eval's CLEAR-MOT matching
keep scipy's tie rules.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as scipy_lsap

import courttrack.track as track
from courttrack.cost import Features
from courttrack.geometry import FrameDims
from courttrack.metrics import solve_assignment
from courttrack.track import MatchConfig, match_frame
from tests.oracles import brute_force_assignment


@st.composite
def lsap_matrices(draw, max_side=9):
    """Cost matrices of both rectangular orientations, empty sides included."""
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    kind = draw(st.sampled_from(["uniform", "ties", "gated", "gains"]))
    if kind == "uniform":
        cell = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    elif kind == "ties":
        cell = st.integers(0, 3).map(float)
    elif kind == "gated":  # a few real costs among gated-out cells, as match_frame builds
        cell = st.one_of(st.just(5.0), st.just(5.0), st.floats(0.0, 0.5))
    else:  # eval_mot_records solves on -IoU gains, zero below the threshold
        cell = st.one_of(st.just(-0.0), st.floats(0.5, 1.0).map(lambda g: -g))
    values = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=float).reshape(rows, cols)


@st.composite
def exact_cost_matrices(draw, max_side=7):
    """Cost matrices whose sums are exact in floating point, so that
    every tie is a true tie for any summation order."""
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    quarters = draw(st.integers(1, 16))
    cell = st.integers(0, quarters).map(lambda q: q / 4.0)
    if draw(st.booleans()):  # most cells at one gated-out cost
        gated = draw(cell)
        cell = st.one_of(st.just(gated), st.just(gated), cell)
    values = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return np.array(values).reshape(rows, cols)


class TestLinearSumAssignment:
    @settings(max_examples=400)
    @given(lsap_matrices())
    def test_matches_scipy_ties_included(self, cost):
        assert solve_assignment(cost) == list(zip(*scipy_lsap(cost)))

    def test_constant_matrix_gives_identity(self):
        assert solve_assignment(np.zeros((4, 4))) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_tall_matrix_is_sorted_by_row(self):
        assert solve_assignment(np.array([[9.0, 1.0], [0.0, 9.0], [5.0, 5.0]])) == [(0, 1), (1, 0)]

    def test_infinite_cells_are_avoided(self):
        assert solve_assignment(np.array([[np.inf, 1.0], [2.0, np.inf]])) == [(0, 1), (1, 0)]

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
            solve_assignment(cost)


class TestSolveAssignmentRefinement:
    @settings(max_examples=200)
    @given(exact_cost_matrices())
    def test_matches_brute_force(self, entries):
        pairs = solve_assignment(entries)
        _, oracle_total = brute_force_assignment(entries)
        assert math.fsum(entries[r, c] for r, c in pairs) == oracle_total

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
        pairs = solve_assignment(entries)
        _, oracle_total = brute_force_assignment(entries)
        assert [r for r, _ in pairs] == list(range(8))
        assert math.fsum(entries[r, c] for r, c in pairs) == oracle_total


class TestMatchFrameAssignment:
    @staticmethod
    def frame(n: int) -> Features:
        """Features of n detections; the costs come from the patched cost_matrix."""
        return Features(np.zeros((n, 2)), np.zeros((n, 4)), {})

    def match(self, monkeypatch, raw):
        """match_frame at gate 0.5 over one window frame whose detections
        hold ids 0, 1, ..., with raw as the cost matrix."""
        raw = np.array(raw)
        monkeypatch.setattr(track, "cost_matrix", lambda dets, reps, weights, dims: raw)
        n_dets, n_ids = raw.shape
        window = [(self.frame(n_ids), list(range(n_ids)))]
        return match_frame(window, self.frame(n_dets), MatchConfig(gate=0.5), FrameDims(100, 100))

    def test_one_solve_per_match_frame(self, monkeypatch):
        calls = []

        def counted(cost):
            calls.append(cost.shape)
            return solve_assignment(cost)

        monkeypatch.setattr(track, "solve_assignment", counted)
        # every cell of an unmatched detection is gated out: a tie among them
        raw = np.full((6, 6), 0.9)
        raw[np.arange(1, 6), np.arange(5)] = 0.1
        assert self.match(monkeypatch, raw) == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}
        assert calls == [(6, 6)]

    def test_tall_tie_goes_by_scipy_rule(self, monkeypatch):
        # detections 0 and 1 tie for id 0 at cost 0; the cell (1, 1) is gated out
        raw = [[0.0, 0.25], [0.0, 0.9], [0.5, 0.0]]
        rows, cols = scipy_lsap(np.where(np.array(raw) <= 0.5, raw, 5.0))
        assert self.match(monkeypatch, raw) == dict(zip(rows.tolist(), cols.tolist())) == {0: 0, 2: 1}

