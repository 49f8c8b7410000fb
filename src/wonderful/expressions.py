"""Catalog expressions: the Python expressions a catalog stores for a
family's ambient type, Satake data, Kac diagram and constraints, and the
{...} parts of its name templates.  Each is checked against a small grammar
on its syntax tree before it runs, and runs with bounds, so a catalog file
can neither run other code nor run without end.
"""

import ast
import re
from functools import lru_cache

from .kac import KAC_BUILDERS
from .rootsystem import MAX_AMBIENT_RANK

_BRACE = re.compile(r"\{([^{}]+)\}")

# the grammar of catalog expressions: int and str constants, names, list and
# tuple literals, + - * // %, or, < and <=, x if c else y, list comprehensions
# with one generator over range() and no if, and calls of _CALLS
_GRAMMAR = (ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Store, ast.List,
            ast.Tuple, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod,
            ast.BoolOp, ast.Or, ast.Compare, ast.Lt, ast.LtE, ast.IfExp, ast.ListComp,
            ast.comprehension, ast.Call)
_CALLS = {"range", "list", *KAC_BUILDERS}


def _refusal(node, parent):
    """Why node, a child of parent, is outside the grammar, or None."""
    if not isinstance(node, _GRAMMAR):
        return f"{type(node).__name__} is not allowed"
    if isinstance(node, ast.Constant) and type(node.value) is not int and not (
            type(node.value) is str and isinstance(parent, (ast.Tuple, ast.Call))):
        return f"constant {node.value!r} is not allowed here"
    if isinstance(node, ast.Name) and node.id.startswith("_"):
        return f"name {node.id!r} is not defined"
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) not in _CALLS:
        return f"call of {ast.unparse(node.func)!r} is not allowed"
    if isinstance(node, ast.ListComp):
        gen = node.generators[0]
        if len(node.generators) > 1 or gen.ifs or gen.is_async \
                or getattr(getattr(gen.iter, "func", None), "id", None) != "range" \
                or any(isinstance(n, ast.ListComp) for n in ast.walk(node.elt)):
            return "a comprehension must read [x for name in range(...)] with no comprehension in x"
    return None


@lru_cache(maxsize=4096)  # each distinct expression once
def _compile(expr):
    """Compile a catalog expression after checking it against the grammar;
    a * b becomes _times(a, b), which multiplies ints only."""
    tree = ast.parse(expr, "<catalog>", "eval")
    products = []  # (list or parent's fields, key) of each a * b, breadth first
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            box = value if isinstance(value, list) else vars(parent)
            for key, node in enumerate(value) if box is value else [(field, value)]:
                why = isinstance(node, ast.AST) and _refusal(node, parent)
                if why:
                    raise ValueError(why)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                    products.append((box, key))
    for box, key in reversed(products):  # operands before their products
        node = box[key]
        func = ast.copy_location(ast.Name("_times", ast.Load()), node)
        box[key] = ast.copy_location(ast.Call(func, [node.left, node.right], []), node)
    return compile(tree, "<catalog>", "eval")


def _times(a, b):
    if type(a) is not int or type(b) is not int:
        raise TypeError(f"* takes two ints, not {type(a).__name__} and {type(b).__name__}")
    return a * b


def _range(*args):
    """range() with at most MAX_AMBIENT_RANK + 1 elements."""
    r = range(*args)
    if r[MAX_AMBIENT_RANK + 1:]:
        raise ValueError(f"{r} has more than {MAX_AMBIENT_RANK + 1} elements")
    return r


_ENV_BASE = {"range": _range, "list": list, "_times": _times}


def _eval(expr, env):
    """Evaluate a catalog expression of the grammar above; one outside it, or
    one that fails to evaluate, is a data error (ValueError)."""
    scope = {"__builtins__": {}}
    scope.update(_ENV_BASE)
    scope.update(env)
    try:
        return eval(_compile(expr), scope)
    except (SyntaxError, ValueError, NameError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"catalog expression {expr!r}: {exc}") from None


def _fmt(template, env):
    return _BRACE.sub(lambda m: str(_eval(m.group(1), env)), template)
