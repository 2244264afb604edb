"""Every name a library module imports is used in that module.  The
package's __init__ imports its public names from the submodules only to
export them, and sectors, cohomology and grading bind in_face_localization
without calling it, because perfbench's tracer patches the membership
oracle in every module that binds it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "toriclc"

# bound but not called: perfbench's tracer patches these bindings
TRACED_BINDINGS = {
    "sectors.py": {"in_face_localization"},
    "cohomology.py": {"in_face_localization"},
    "grading.py": {"in_face_localization"},
}


def _unused_imports(tree, *, exports: bool) -> set:
    """Names bound by the module's imports that no expression loads; with
    exports, the module-level imports from submodules are left out."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__" and not (
                exports and node.level and node in tree.body):
            imported |= {alias.asname or alias.name for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = _unused_imports(tree, exports=path.name == "__init__.py")
    assert unused == TRACED_BINDINGS.get(path.name, set()), path.name
