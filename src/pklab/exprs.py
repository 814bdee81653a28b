"""Minimal arithmetic expression grammar for profile functions.

An expression is parsed by Python's own parser (``^`` read as ``**``) and
then checked node by node against a whitelist, so precedence is Python's:
``^`` is right-associative and binds tighter than unary minus (``-x1^2``
is -(x1^2), ``2^-1`` is 0.5).  Allowed are number literals (decimal, with
an optional exponent), the declared variables (x1..x4, or a
family-specific name like phi), the functions exp, log, sqrt, sin, cos of
one argument, binary ``+ - * / ^``, unary ``+ -`` and parentheses.
Evaluation is generic over ring elements, so a parsed profile runs
unchanged on floats, jets and dual batches.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from typing import Callable, Sequence

import numpy as np

from .jets import jcos, jexp, jlog, jpow, jsin, jsqrt

__all__ = ["ExprError", "compile_profile"]

_FUNCTIONS = {"exp": jexp, "log": jlog, "sqrt": jsqrt, "sin": jsin, "cos": jcos}

_NUMBER = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")

# Deepest operator nesting accepted.  Evaluation recurses once per level,
# so the bound keeps a profile well inside the interpreter's recursion
# limit; 200 is also Python's limit on nested parentheses.
MAX_DEPTH = 200


class ExprError(ValueError):
    """Malformed or non-whitelisted expression."""


def compile_profile(src: str, variables: Sequence[str]) -> Callable:
    """Parse ``src`` allowing exactly the given variable names; the result
    takes them positionally as ring elements."""
    names = tuple(variables)
    # one ASCII line, so that whitespace and newlines are insignificant and
    # column offsets index the text; '#' would start a comment the tree hides
    text = " ".join(src.split())
    if "**" in text or "#" in text or not text.isascii():
        raise ExprError(f"unexpected input in {src!r}")
    text = text.replace("^", "**")

    def walk(node, depth):
        if depth > MAX_DEPTH:
            raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels")
        seg = text[node.col_offset:node.end_col_offset]
        if isinstance(node, ast.Constant):
            if not _NUMBER.fullmatch(seg):
                raise ExprError(f"unexpected literal {seg!r} in {src!r}")
            c = float(seg)
            if not math.isfinite(c):
                raise ExprError(f"number {seg!r} is not finite")
            return lambda xs: c
        if isinstance(node, ast.Name):
            if seg not in names:
                raise ExprError(f"unknown name {seg!r}; allowed variables: {', '.join(names)}")
            k = names.index(seg)
            return lambda xs: xs[k]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            inner = walk(node.operand, depth + 1)
            return inner if isinstance(node.op, ast.UAdd) else lambda xs: -inner(xs)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            op = _BINARY[type(node.op)]
            lhs, rhs = walk(node.left, depth + 1), walk(node.right, depth + 1)
            return lambda xs: op(lhs(xs), rhs(xs))
        if isinstance(node, ast.Call):
            # from the call's start, so that '(exp)(x1)' names no function
            name, args = text[node.col_offset:node.func.end_col_offset], node.args
            if name not in _FUNCTIONS:
                raise ExprError(
                    f"unknown name {name!r}; allowed functions: {', '.join(_FUNCTIONS)}"
                )
            # the tree keeps no trace of a trailing comma, as in 'exp(x1,)'
            if (len(args) != 1 or node.keywords or isinstance(args[0], ast.Starred)
                    or "," in text[args[0].end_col_offset:node.end_col_offset]):
                raise ExprError(f"{name} takes exactly one argument in {src!r}")
            fn, inner = _FUNCTIONS[name], walk(args[0], depth + 1)
            return lambda xs: fn(inner(xs))
        raise ExprError(f"unexpected {seg!r} in {src!r}")

    try:
        run = walk(ast.parse(text, mode="eval").body, 0)
    except SyntaxError as e:
        raise ExprError(f"malformed expression {src!r} ({e.msg})") from None
    except RecursionError:  # from the parser itself, before the depth bound
        raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels") from None

    def profile(*args):
        if len(args) != len(names):
            raise TypeError(f"profile expects {len(names)} arguments {names}")
        return run(args)

    return profile


def _power(base, expo):
    if not isinstance(expo, (int, float)):
        raise ExprError("exponent must be a constant")
    if isinstance(base, (int, float)):
        # inf where float ** raises OverflowError; a constructor's certificate
        # rejects a profile whose value is not finite
        with np.errstate(over="ignore"):
            return float(np.power(float(base), float(expo)))
    if abs(expo) < 2**63 and expo == int(expo):  # an int64 power, as numpy takes it
        return base ** int(expo)
    return jpow(base, float(expo))


_BINARY: dict[type, Callable] = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: _power,
}

