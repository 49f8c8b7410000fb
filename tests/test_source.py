"""Source hygiene that no installed linter checks: unused imports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wonderful"


def _unused_imports(source):
    """Names an import binds in source that no expression reads."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_unused_import_finder():
    assert _unused_imports("import os.path\nfrom a import b as c, d\nimport e\nc(os, e.f)") == ["d"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names to re-export them
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules, SRC
    for path in modules:
        assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name
