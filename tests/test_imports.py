"""No module imports a name it never reads.

Each module of src/smalltime (but __init__.py, which re-exports) and of
tests is parsed with ast: every name an import binds must be loaded
somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = sorted(path for path in [*(_ROOT / "src" / "smalltime").glob("*.py"),
                                    *(_ROOT / "tests").glob("*.py")]
                  if path.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import of source and never loaded."""
    tree = ast.parse(source)
    bound = [(node.lineno, (alias.asname or alias.name).split(".")[0])
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in loaded]


def test_the_check_finds_an_import_read_only_as_an_attribute():
    source = "from m import a, b\nimport c.d\nx = a(c.d)\ny = x.b\n"
    assert _unused_imports(source) == [(1, "b")]


@pytest.mark.parametrize("path", _MODULES, ids=[f"{p.parent.name}/{p.name}" for p in _MODULES])
def test_every_imported_name_is_read(path):
    assert _unused_imports(path.read_text()) == []
