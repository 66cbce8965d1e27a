"""The package as a whole: it carries no code that no program path reaches,
and the test oracle no reference that no test uses."""

from __future__ import annotations

import ast
from pathlib import Path

import dice_pareto

SOURCE = Path(dice_pareto.__file__).parent
TESTS = Path(__file__).parent

# per source set: the files whose definitions are checked, the further files
# that may name them, and the names that count as used without being named
SOURCE_SETS = {
    "package": (sorted(SOURCE.glob("*.py")), [], set(dice_pareto.__all__)),
    "oracle": ([TESTS / "oracle.py"], sorted(TESTS.glob("test_*.py")), set()),
}


def unreferenced_definitions(defining: list[Path], naming: list[Path],
                             public: set[str]) -> list[str]:
    """Module-level functions and classes of ``defining`` that are neither in
    ``public`` nor named by any expression of ``defining`` or ``naming``, as
    module.name."""
    trees = {path: ast.parse(path.read_text()) for path in [*defining, *naming]}
    named = set(public)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [f"{path.stem}.{node.name}" for path in defining for node in trees[path].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named]


def test_every_definition_is_public_or_used():
    assert {source: unreferenced_definitions(*files) for source, files in SOURCE_SETS.items()} \
        == {source: [] for source in SOURCE_SETS}
