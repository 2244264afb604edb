"""Computation may branch on whether a fast path exists, never on which
one: both fast paths test facet values by the one rule F_s(a) not in S_s,
and `fast_path` names the route only for reports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "toriclc"


def _names_fast_path(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "fast_path"
            or isinstance(node, ast.Name) and node.id == "fast_path")


def _is_string(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_string(e) for e in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_fast_path_compared_with_a_string(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_names_fast_path, operands)) and any(map(_is_string, operands)):
                lines.append(node.lineno)
    assert lines == [], f"{path.name} compares fast_path with a string on lines {lines}"
