"""Minimal arithmetic expression grammar for profile functions.

Grammar (whitelisted, no general scripting):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?          # right-associative power
    unary  := ('+' | '-') unary | atom
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Names are either declared variables (x1..x4, or a family-specific name
like phi) or one of the functions exp, log, sqrt, sin, cos.  Evaluation
is generic over ring elements, so a parsed profile runs unchanged on
floats, jets and dual batches.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .jets import jcos, jexp, jlog, jpow, jsin, jsqrt

__all__ = ["ExprError", "Expr", "parse_expr", "compile_profile"]

_FUNCTIONS: dict[str, Callable] = {
    "exp": jexp,
    "log": jlog,
    "sqrt": jsqrt,
    "sin": jsin,
    "cos": jcos,
}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class ExprError(ValueError):
    """Malformed or non-whitelisted expression."""


@dataclass(frozen=True)
class Expr:
    """Parsed expression; ``__call__`` evaluates in a variable environment."""

    source: str
    variables: tuple[str, ...]
    _eval: Callable

    def __call__(self, env: dict):
        return self._eval(env)


def _tokenize(src: str) -> list[tuple[str, str]]:
    tokens, pos = [], 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == pos:
            rest = src[pos:].strip()
            if not rest:
                break
            raise ExprError(f"unexpected input at {rest[:12]!r}")
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", m.group(0).strip()))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


def parse_expr(src: str, variables: Sequence[str]) -> Expr:
    """Parse ``src`` allowing exactly the given variable names."""
    vars_ok = tuple(variables)
    tokens = _tokenize(src)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, None)

    def take(kind=None, value=None):
        nonlocal idx
        k, v = peek()
        if k is None or (kind and k != kind) or (value and v != value):
            raise ExprError(f"expected {value or kind} near token {idx} in {src!r}")
        idx += 1
        return v

    def atom():
        k, v = peek()
        if k == "num":
            take()
            c = float(v)
            if not math.isfinite(c):
                raise ExprError(f"number {v!r} is not finite")
            return lambda env: c
        if k == "name":
            take()
            if v in _FUNCTIONS:
                take("op", "(")
                inner = expr()
                take("op", ")")
                fn = _FUNCTIONS[v]
                return lambda env: fn(inner(env))
            if v not in vars_ok:
                raise ExprError(
                    f"unknown name {v!r}; allowed variables: {', '.join(vars_ok)}"
                )
            return lambda env: env[v]
        if (k, v) == ("op", "("):
            take()
            inner = expr()
            take("op", ")")
            return inner
        raise ExprError(f"unexpected token {v!r} in {src!r}")

    def unary():
        k, v = peek()
        if (k, v) == ("op", "-"):
            take()
            inner = unary()
            return lambda env: -inner(env)
        if (k, v) == ("op", "+"):
            take()
            return unary()
        return atom()

    def factor():
        base = unary()
        k, v = peek()
        if (k, v) == ("op", "^"):
            take()
            expo = factor()
            return lambda env: _power(base(env), expo(env))
        return base

    def term():
        acc = factor()
        while peek() == ("op", "*") or peek() == ("op", "/"):
            op = take()
            rhs = factor()
            if op == "*":
                acc = (lambda a, b: lambda env: a(env) * b(env))(acc, rhs)
            else:
                acc = (lambda a, b: lambda env: a(env) / b(env))(acc, rhs)
        return acc

    def expr():
        acc = term()
        while peek() == ("op", "+") or peek() == ("op", "-"):
            op = take()
            rhs = term()
            if op == "+":
                acc = (lambda a, b: lambda env: a(env) + b(env))(acc, rhs)
            else:
                acc = (lambda a, b: lambda env: a(env) - b(env))(acc, rhs)
        return acc

    run = expr()
    if idx != len(tokens):
        raise ExprError(f"trailing input in {src!r}")
    return Expr(source=src, variables=vars_ok, _eval=run)


def _power(base, expo):
    if isinstance(expo, float) and expo == int(expo):
        return base ** int(expo)
    if isinstance(expo, (int, float)):
        return jpow(base, float(expo))
    raise ExprError("exponent must be a constant")


def compile_profile(src: str, variables: Sequence[str]) -> Callable:
    """Callable taking the declared variables positionally as ring elements."""
    e = parse_expr(src, variables)
    names = tuple(variables)

    def profile(*args):
        if len(args) != len(names):
            raise TypeError(f"profile expects {len(names)} arguments {names}")
        return e(dict(zip(names, args)))

    return profile
