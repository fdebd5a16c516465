"""No top-level function or class of the package goes unused.

A definition counts as reached when some module of `src/courttrack`
names it: as a bare name, as an attribute or in an import. The only
unreached ones are the test oracles and fixture writers that the tests
import directly.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "courttrack"
TEST_ONLY = {"similarity_cost", "brute_force_assignment", "write_pgm"}


def unreached_definitions(package: Path) -> set[str]:
    defined: set[str] = set()
    referenced: set[str] = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return defined - referenced


def test_only_the_test_oracles_are_unreached():
    assert unreached_definitions(SRC) == TEST_ONLY

