"""The catalog-expression evaluator as it was before expressions.py built
closures: a breadth-first grammar check, a rewrite of each a * b into
_times(a, b), then compile() and eval() in a scope of the parameters and
range, list and _times.  The closures must give the same value, or the same
error text, on every expression (tests/test_catalog.py).  Also the
Hypothesis strategy of expressions drawn from the grammar."""

import ast
from functools import lru_cache

from hypothesis import strategies as st

from wonderful.expressions import _range, _refusal, _times
from wonderful.kac import KAC_BUILDERS


@lru_cache(maxsize=4096)
def _compile(expr):
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


def reference_eval(expr, env):
    scope = {"__builtins__": {}, "range": _range, "list": list, "_times": _times}
    scope.update(env)
    try:
        return eval(_compile(expr), scope)
    except (SyntaxError, ValueError, NameError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"catalog expression {expr!r}: {exc}") from None


def grammar_expressions():
    """Catalog expressions drawn from the grammar: small ints, names and type
    letters; lists, tuples, arithmetic, comparisons, x if c else y,
    comprehensions over range(), and calls of range, list and the Kac builders."""
    letters = st.sampled_from(["'A'", "'B'", "'C'", "'D'", "'E'", "'F'", "'G'", "'Q'"])
    leaves = st.integers(0, 9).map(str) | st.sampled_from(["r", "n", "i"])

    def grow(inner):
        return st.one_of(
            st.lists(inner, max_size=4).map(lambda xs: f"[{', '.join(xs)}]"),
            st.tuples(letters | inner, inner).map(lambda t: f"({t[0]}, {t[1]})"),
            st.tuples(inner, st.sampled_from(["+", "-", "*", "//", "%", "<", "<=", "or"]),
                      inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, inner, inner).map(lambda t: f"({t[0]} if {t[1]} else {t[2]})"),
            st.tuples(inner, inner).map(lambda t: f"[{t[0]} for i in range({t[1]})]"),
            st.tuples(st.sampled_from(["range", "list", *KAC_BUILDERS]),
                      st.lists(letters | inner, max_size=4)).map(
                lambda t: f"{t[0]}({', '.join(t[1])})"),
            # the two shape builders with arguments of the right kind
            st.tuples(letters, inner, st.lists(inner, max_size=2)).map(
                lambda t: f"affine_diagram({', '.join([t[0], t[1], *t[2]])})"),
            st.tuples(st.lists(st.tuples(letters, inner), min_size=1, max_size=3),
                      st.lists(inner, max_size=3)).map(
                lambda t: f"white_on([{', '.join(f'({a}, {b})' for a, b in t[0])}], "
                          f"[{', '.join(t[1])}])"))
    return st.recursive(leaves, grow, max_leaves=10)
