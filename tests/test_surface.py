"""Reachability guards: no library surface that nothing reaches, and no
parameter that nothing sets.

Every top-level function and class of `src/tubelab`, and every method other
than a dunder, must be reached in one of four ways:

- its name is used elsewhere in `src/tubelab`; re-exports in `__init__.py`
  and uses inside its own definition do not count, and a method counts as
  used only through attribute access (`obj.name`), so a local or parameter
  that shares its name reaches nothing
- its name is used in `tests/test_acceptance.py`
- it is a `_Subject` analysis method, one per entry of `manifest.ANALYSES`
- it is in README_API below, with the paper statement it measures

Names are compared as identifiers in the syntax tree, so a word in a string
or a docstring reaches nothing.

Every parameter of a function or method of `src/tubelab` that has a default
or is keyword-only must be passed by some call in `src/tubelab`, outside the
function's own body, or in `tests/test_acceptance.py`: by keyword, by
position at or past its index, or by `*` or `**`. Calls match a function by
its name, and an `__init__` by its class's name. Record fields are not
parameters here.

Every immutable value is a `core_grid.record`: no class of `src/tubelab`
defines or assigns `__setattr__`, `__delattr__`, `__eq__`, `__ne__`,
`__hash__` or `__reduce__` itself, except `PointSet.__reduce__`.

Every name a module of `src/tubelab` imports, other than from `__future__`,
is used in that module.
"""
from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Iterator

from tubelab.manifest import ANALYSES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tubelab"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# Documented in README as API, and nothing else in the package calls them.
README_API = (
    # the steepness hypothesis of the paper's quasi-product sets, that no
    # tube meets one slice twice: the first tube that breaks it
    "slice_multiplicity_violation",
    # the same hypothesis, enforced: the tubes left once every tube that
    # meets a slice twice is dropped
    "prune_to_slice_multiplicity",
    # the delta-tubes tiling one coarse tube: the two scales delta and
    # delta^(1/2) at which the incidence theorem counts
    "children",
)

# Parameters that no call sets, as "module: function.parameter". `main`'s
# argv is None when the installed `tubelab` console script calls it.
UNSET_ALLOWED = ("cli.py: main.argv",)


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class and of
    each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _uses(tree: ast.AST, attributes_only: bool = False) -> dict[str, list[int]]:
    """Line numbers of each identifier used as an attribute and, unless
    attributes_only, as a name or an import."""
    uses: dict[str, list[int]] = defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            uses[node.attr].append(node.lineno)
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            uses[node.id].append(node.lineno)
        elif isinstance(node, ast.alias):
            uses[node.name].append(node.lineno)
    return uses


def _modules() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def _unreached(modules: dict[str, ast.Module], acceptance: ast.Module) -> list[str]:
    """The definitions of the modules that none of the four ways reaches."""
    analyses = {f"_Subject._{name}" for name in ANALYSES}
    # (uses in the modules, uses in the acceptance tests), for top-level
    # definitions and for methods
    reach = {
        is_method: (
            {module: _uses(tree, is_method) for module, tree in modules.items()},
            set(_uses(acceptance, is_method)),
        )
        for is_method in (False, True)
    }
    unreached = []
    for module, tree in modules.items():
        for qualified, node in _definitions(tree):
            uses, accepted = reach["." in qualified]
            own_lines = range(node.lineno, node.end_lineno + 1)
            used = any(
                other != module or line not in own_lines
                for other, found in uses.items()
                for line in found.get(node.name, ())
            )
            if not (
                used
                or node.name in accepted
                or qualified in analyses
                or node.name in README_API
            ):
                unreached.append(f"{module}: {qualified}")
    return unreached


def test_every_definition_is_reached():
    assert _unreached(_modules(), ast.parse(ACCEPTANCE.read_text())) == []


def test_a_method_shadowed_by_a_local_is_unreached():
    box = ast.parse(
        "class Box:\n"
        "    def coarse(self):\n"
        "        return 1\n"
        "    def fine(self):\n"
        "        return 2\n"
    )
    user = ast.parse(
        "from box import Box\n"
        "def use(coarse):\n"
        "    fine = Box().fine()\n"
        "    return coarse + fine\n"
        "use(3)\n"
    )
    modules = {"box.py": box, "user.py": user}
    assert _unreached(modules, ast.parse("")) == ["box.py: Box.coarse"]


def test_readme_api_names_are_defined_and_documented():
    defined = {node.name for tree in _modules().values() for _, node in _definitions(tree)}
    readme = (ROOT / "README.md").read_text()
    for name in README_API:
        assert name in defined
        assert f"`{name}`" in readme


def _functions(body: list[ast.stmt], prefix: str = "", cls: str | None = None) -> Iterator[tuple]:
    """(qualified name, node, the name calls use, the index of the first
    parameter a call passes by position) of each function, method and
    nested function in the statements."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.", node.name)
        elif isinstance(node, ast.FunctionDef):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            callee = cls if node.name == "__init__" else node.name
            yield f"{prefix}{node.name}", node, callee, int(cls is not None and not static)
            yield from _functions(node.body, f"{prefix}{node.name}.")


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether the call passes the parameter: by keyword or `**`, or, for a
    positional parameter at that index, by position or `*`."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def _unset(modules: dict[str, ast.Module], acceptance: ast.Module) -> list[str]:
    """The defaulted and keyword-only parameters of the modules that no call
    outside their own function passes."""
    calls: dict[str, list[tuple[str, ast.Call]]] = defaultdict(list)
    for module, tree in {**modules, "test_acceptance.py": acceptance}.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls[name].append((module, node))
    unset = []
    for module, tree in modules.items():
        for qualified, node, callee, first in _functions(tree.body):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = len(positional) - len(args.defaults)
            params = [(i - first, a.arg) for i, a in enumerate(positional) if i >= defaulted]
            params += [(None, a.arg) for a in args.kwonlyargs]
            own = range(node.lineno, node.end_lineno + 1)
            outside = [call for other, call in calls[callee] if other != module or call.lineno not in own]
            for index, name in params:
                if not any(_passes(call, index, name) for call in outside):
                    unset.append(f"{module}: {qualified}.{name}")
    return unset


def test_every_parameter_is_set():
    unset = _unset(_modules(), ast.parse(ACCEPTANCE.read_text()))
    assert [name for name in unset if name not in UNSET_ALLOWED] == []


def test_unset_parameters_are_found():
    lib = ast.parse(
        "class Box:\n"
        "    def __init__(self, side, *, label=None):\n"
        "        self.side = side\n"
        "    def grow(self, by=1, twice=False):\n"
        "        return self.grow(by, twice=True)\n"
        "def make(n, k=0, *, fast=False, **rest):\n"
        "    return Box(n, label='b').grow(2)\n"
        "def spread(a=0, b=0):\n"
        "    return a + b\n"
    )
    user = ast.parse("make(1, 2)\nspread(*(1, 2))\nmake(3, **{})\n")
    # grow's twice is set only by grow itself
    assert _unset({"lib.py": lib}, user) == ["lib.py: Box.grow.twice"]


# what record alone gives a class: refused assignment and deletion,
# equality and hashing on the tuple of fields, int64 columns included, and
# pickling and copying through the constructor
RECORD_ONLY = ("__setattr__", "__delattr__", "__eq__", "__ne__", "__hash__", "__reduce__")
# PointSet's constructor takes DyadicPoints, not its fields, so it reduces
# through PointSet.from_columns
OWN_RECORD_METHODS = ["core_grid.py: PointSet.__reduce__"]


def _own_record_methods(modules: dict[str, ast.Module]) -> list[str]:
    """Each definition or assignment of a RECORD_ONLY name in a class body,
    as "module: Class.name"."""
    found = []
    for module, tree in modules.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    names = []
                found += [f"{module}: {cls.name}.{name}" for name in names if name in RECORD_ONLY]
    return found


def test_no_class_builds_its_own_immutable_value():
    assert _own_record_methods(_modules()) == OWN_RECORD_METHODS


def test_own_record_methods_are_found():
    lib = ast.parse(
        "class Frozen:\n"
        "    __setattr__, __delattr__ = refuse, refuse\n"
        "    __hash__ = None\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    def __ne__(self, other):\n"
        "        return False\n"
    )
    assert _own_record_methods({"lib.py": lib}) == [
        "lib.py: Frozen.__setattr__", "lib.py: Frozen.__delattr__", "lib.py: Frozen.__hash__",
        "lib.py: Frozen.__eq__", "lib.py: Frozen.__ne__",
    ]


def _unused_imports(modules: dict[str, ast.Module]) -> list[str]:
    """Each name a module imports, other than from __future__, that no
    bare name of the module uses, as "module: name"."""
    unused = []
    for module, tree in modules.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{module}: {name}" for name in names if name not in used]
    return unused


def test_every_import_is_used():
    assert _unused_imports(_modules()) == []


def test_unused_imports_are_found():
    lib = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .core_grid import field, record\n"
        "@record\n"
        "class Box:\n"
        "    keys: np.ndarray\n"
        "print(sys.argv)\n"
    )
    # os.path binds os, which nothing uses either
    assert _unused_imports({"lib.py": lib}) == ["lib.py: os", "lib.py: os", "lib.py: field"]
