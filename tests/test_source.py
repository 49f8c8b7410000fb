"""Source hygiene that no installed linter checks: unused imports, and
top-level definitions that nothing in the package reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wonderful"

# the only top-level definitions in the package that nothing there reads
UNREAD_ALLOWED = {
    "apply_matrix",  # named by BENCHMARK.json; leaves with ROADMAP item 1
    "invert",  # named by BENCHMARK.json; leaves with ROADMAP item 1
    "expand",  # named by BENCHMARK.json; leaves with ROADMAP item 1
    "inner_product",  # named by BENCHMARK.json; leaves with ROADMAP item 1
}


def _unused_imports(source):
    """Names an import binds in source that no expression reads."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def _unread_definitions(modules, init):
    """Top-level def and class names of the module sources that no
    expression in them reads (a name or an attribute) and that the package's
    __init__ source does not import to re-export."""
    trees = [ast.parse(source) for source in modules]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    exported = {alias.asname or alias.name for node in ast.walk(ast.parse(init))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return [node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in read | exported]


def test_the_unused_import_finder():
    assert _unused_imports("import os.path\nfrom a import b as c, d\nimport e\nc(os, e.f)") == ["d"]


def test_the_unread_definition_finder():
    modules = ["def a(): pass\ndef b(): return c.d\nclass E: pass\nx = a\nb = 1",
               "from .m import f\ndef g(): pass\ndef d(): pass"]
    assert _unread_definitions(modules, "from .m import g") == ["b", "E"]


def _modules():
    # __init__ imports names to re-export them
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules, SRC
    return modules


def test_no_module_imports_a_name_it_never_uses():
    for path in _modules():
        assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_every_definition_is_read_in_the_package_or_exported():
    sources = [path.read_text(encoding="utf-8") for path in _modules()]
    init = (SRC / "__init__.py").read_text(encoding="utf-8")
    unread = _unread_definitions(sources, init)
    assert set(unread) == UNREAD_ALLOWED, unread
