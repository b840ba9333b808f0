"""Reachability guard: no library surface that nothing reaches.

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
"""
from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

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
