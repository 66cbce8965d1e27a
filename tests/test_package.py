"""The package as a whole: it carries no code that no program path reaches."""

from __future__ import annotations

import ast
from pathlib import Path

import dice_pareto

SOURCE = Path(dice_pareto.__file__).parent


def unreferenced_definitions() -> list[str]:
    """Module-level functions and classes of the package that are neither in
    ``__all__`` nor named by any expression of its code, as module.name."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    named = set(dice_pareto.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named]


def test_every_definition_is_public_or_used():
    assert unreferenced_definitions() == []
