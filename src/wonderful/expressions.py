"""Catalog expressions: the Python expressions a catalog stores for a
family's ambient type, Satake data, Kac diagram and constraints, and the
{...} parts of its name templates.  Each is parsed once and built into
closures, every node checked against a small grammar first; the closures
run with bounds, so a catalog file can neither run other code nor run
without end."""

import ast
import operator
import re
from functools import lru_cache

from .kac import KAC_BUILDERS
from .rootsystem import MAX_AMBIENT_RANK, MAX_CACHED

_BRACE = re.compile(r"\{([^{}]+)\}")

# the grammar of catalog expressions: int and str constants, names, list and
# tuple literals, + - * // %, or, < and <=, x if c else y, list comprehensions
# with one generator over range(), one name as target and no if, and calls
# of _CALLS; at most _MAX_DEPTH levels deep (shipped ones are at most 7).
# _build has a branch for each node type and operator of it and refuses any other
_CALLS = {"range", "list", *KAC_BUILDERS}
_MAX_DEPTH = 100
_DEEP = f"nesting deeper than {_MAX_DEPTH} levels is not allowed"


def _refusal(node, parent):
    """Why node, a child of parent, breaks a rule beyond its node type, or None."""
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
                or not isinstance(gen.target, ast.Name) \
                or getattr(getattr(gen.iter, "func", None), "id", None) != "range" \
                or any(isinstance(n, ast.ListComp) for n in ast.walk(node.elt)):
            return "a comprehension must read [x for name in range(...)] with no comprehension in x"
    return None


@lru_cache(maxsize=MAX_CACHED)  # each distinct expression once
def _compile(expr):
    """The closure f(env) that evaluates a catalog expression, checked."""
    try:  # too deep for the parser, or for ast.unparse of a refused call
        return _build(ast.parse(expr, "<catalog>", "eval"), None, 1)
    except RecursionError:
        raise ValueError(_DEEP) from None


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


_BUILTINS = {"range": _range, "list": list}
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: _times,
        ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod,
        ast.Lt: operator.lt, ast.LtE: operator.le, ast.Or: None}  # or is the BoolOp closure
_SEQUENCES, _UNBOUND = {ast.List: list, ast.Tuple: tuple}, object()


def _build(node, parent, depth):
    """Check node, a child of parent, then its children (pre-order), and
    return the closure f(env) evaluating it as Python would; an operator
    gives its function, a generator its target name and iterable closure."""
    why = _refusal(node, parent) or (depth > _MAX_DEPTH and _DEEP)
    if why:
        raise ValueError(why)
    depth += 1
    if isinstance(node, ast.Constant):
        return lambda env, value=node.value: value
    if isinstance(node, ast.Name):  # its Load or Store context is not built
        key, default = node.id, _BUILTINS.get(node.id, _UNBOUND)

        def name(env):
            if (value := env.get(key, default)) is _UNBOUND:
                raise NameError(f"name {key!r} is not defined")
            return value
        return key if isinstance(node.ctx, ast.Store) else name
    if type(node) in _OPS:
        return _OPS[type(node)]
    if isinstance(node, ast.BinOp):
        left, op, right = [_build(x, node, depth) for x in (node.left, node.op, node.right)]
        return lambda env: op(left(env), right(env))
    if isinstance(node, (ast.List, ast.Tuple)):
        items, make = [_build(x, node, depth) for x in node.elts], _SEQUENCES[type(node)]
        return lambda env: make([f(env) for f in items])
    if isinstance(node, ast.Call):
        func, *args = [_build(x, node, depth) for x in (node.func, *node.args, *node.keywords)]
        return lambda env: func(env)(*[f(env) for f in args])
    if isinstance(node, ast.Expression):
        return _build(node.body, node, depth)
    if isinstance(node, ast.Compare):  # a < b <= c runs b once, each test a bool here
        left, *rest = [_build(x, node, depth) for x in (node.left, *node.ops, *node.comparators)]
        pairs = tuple(zip(rest, rest[len(node.ops):]))

        def chain(env):
            a = left(env)
            for op, term in pairs:
                if not op(a, a := term(env)):  # op gets the old a, then a is term's value
                    return False
            return True
        return chain
    if isinstance(node, ast.BoolOp):  # the first true value, else the last
        *first, last = [_build(x, node, depth) for x in (node.op, *node.values)][1:]
        return lambda env: next(filter(None, (f(env) for f in first)), None) or last(env)
    if isinstance(node, ast.IfExp):
        test, body, orelse = [_build(x, node, depth) for x in (node.test, node.body, node.orelse)]
        return lambda env: body(env) if test(env) else orelse(env)
    if isinstance(node, ast.comprehension):  # _refusal leaves it no ifs
        return _build(node.target, node, depth), _build(node.iter, node, depth)
    if isinstance(node, ast.ListComp):  # [elt for target in iterable]
        elt, (target, iterable) = [_build(x, node, depth) for x in (node.elt, node.generators[0])]
        return lambda env: [elt({**env, target: x}) for x in iterable(env)]
    raise ValueError(f"{type(node).__name__} is not allowed")


def _eval(expr, env, convert=None):
    """Evaluate a catalog expression of the grammar above, then convert its
    value if convert is given; an expression outside the grammar, or one that
    fails to evaluate or convert, is a data error (ValueError)."""
    try:
        value = _compile(expr)(env)
        return convert(value) if convert else value
    except (SyntaxError, ValueError, NameError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"catalog expression {expr!r}: {exc}") from None


@lru_cache(maxsize=MAX_CACHED)  # each distinct name template once
def _pieces(template):
    """A name template's literal text at even indices, between the
    expressions of its {...} parts at odd ones."""
    return tuple(_BRACE.split(template))


def _fmt(template, env):
    out = list(_pieces(template))
    out[1::2] = [_eval(expr, env, str) for expr in out[1::2]]
    return "".join(out)
