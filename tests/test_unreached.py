"""No function, class, method, property or constant of the package goes unused.

The roots are `cli.py`'s module code and the README "Using the library"
example. A definition is reached when reached code uses its name, as a
bare name or as an attribute; names are matched without types, so a
use of `.dims` reaches every `dims`. An import reaches nothing by
itself, a reached class reaches its dunder methods, and a reached
module (`cli.py`, or one with a reached definition) reaches its
module-level `__getattr__`. The test oracles live in `tests/oracles.py`,
so no definition is left unreached.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "courttrack"
TEST_ONLY: set[str] = set()
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def used_names(*nodes) -> set[str]:
    walked = [n for node in nodes for n in ast.walk(node)]
    names = {n.id for n in walked if isinstance(n, ast.Name)}
    return names | {n.attr for n in walked if isinstance(n, ast.Attribute)}


def unreached_definitions(package: Path, example: str = "") -> set[str]:
    """Qualified names of the definitions that no root gets to."""
    defs: dict[str, list[tuple[str, set[str]]]] = {}  # name -> [(qualified name, names it uses)]
    hooks: dict[str, tuple[str, set[str]]] = {}  # module -> its __getattr__: (qualified name, names it uses)
    pending = used_names(ast.parse(example))
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            qualified = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, DEFS) and node.name == "__getattr__":
                hooks[path.stem] = (qualified, used_names(node))
            elif isinstance(node, DEFS):
                defs.setdefault(node.name, []).append((qualified, used_names(node)))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, DEFS) and not m.name.startswith("__")]
                rest = [*node.decorator_list, *node.bases, *(m for m in node.body if m not in methods)]
                defs.setdefault(node.name, []).append((qualified, used_names(*rest)))
                for m in methods:
                    defs.setdefault(m.name, []).append((f"{qualified}.{m.name}", used_names(m)))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in getattr(node, "targets", [getattr(node, "target", None)]):
                    if isinstance(target, ast.Name):
                        defs.setdefault(target.id, []).append((f"{path.stem}.{target.id}", used_names(node)))
            elif path.stem == "cli" and not isinstance(node, (ast.Import, ast.ImportFrom)):
                pending |= used_names(node)
    pending |= hooks.pop("cli", ("", set()))[1]
    seen: set[str] = set()
    while pending:
        name = pending.pop()
        seen.add(name)
        for qualified, uses in defs.get(name, []):
            pending |= uses | hooks.pop(qualified.partition(".")[0], ("", set()))[1]
        pending -= seen
    unreached = {qualified for name, found in defs.items() if name not in seen for qualified, _ in found}
    return unreached | {qualified for qualified, _ in hooks.values()}


def test_only_the_test_oracles_are_unreached():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Using the library\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert unreached_definitions(SRC, example) == TEST_ONLY


def test_methods_properties_and_constants_are_seen(tmp_path):
    (tmp_path / "cli.py").write_text("from .shapes import Box, LIMIT\nprint(Box(LIMIT).width)\n")
    (tmp_path / "shapes.py").write_text(
        "LIMIT = 3\nUNUSED = 4\n"
        "class Box:\n"
        "    def __init__(self, w):\n        self.w = helper(w)\n"
        "    @property\n    def width(self):\n        return self.w\n"
        "    @property\n    def area(self):\n        return self.w * self.w\n"
        "    @classmethod\n    def square(cls):\n        return cls(1)\n"
        "def helper(w):\n    return w\n"
        "def orphan():\n    return UNUSED\n"
    )
    orphans = {"shapes.UNUSED", "shapes.orphan"}
    assert unreached_definitions(tmp_path) == orphans | {"shapes.Box.area", "shapes.Box.square"}
    assert unreached_definitions(tmp_path, "from shapes import Box\nBox.square().area\n") == orphans


def test_a_reached_module_reaches_its_module_getattr(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .shapes import area\nprint(area(2))\n"
        "NAMES = {'Box': 'shapes'}\n"
        "def __getattr__(name):\n    return load(NAMES[name])\n"
        "def load(module):\n    return module\n"
    )
    (tmp_path / "shapes.py").write_text(
        "def area(w):\n    return w * w\n"
        "def __getattr__(name):\n    return lazy(name)\n"
        "def lazy(name):\n    return name\n"
    )
    (tmp_path / "unused.py").write_text(
        "def orphan():\n    return 1\n"
        "def __getattr__(name):\n    return hidden(name)\n"
        "def hidden(name):\n    return name\n"
    )
    unused = {"unused.orphan", "unused.__getattr__", "unused.hidden"}
    assert unreached_definitions(tmp_path) == unused
    assert unreached_definitions(tmp_path, "from unused import orphan\norphan()\n") == set()
