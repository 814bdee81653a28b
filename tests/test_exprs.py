import math

import pytest

from pklab.exprs import MAX_DEPTH, ExprError, compile_profile
from pklab.jets import seed_point

V4 = ("x1", "x2", "x3", "x4")


def ev(src, **env):
    return compile_profile(src, tuple(env))(*env.values())


def test_numbers_and_precedence():
    assert ev("1 + 2*3") == 7.0
    assert ev("1 + 2*3^2") == 19.0
    assert ev("(1+2)*3") == 9.0
    assert ev("2^3^2") == 512.0  # right-associative power
    assert ev("7/2/2") == 1.75
    assert ev("1e-3 + 1") == pytest.approx(1.001)


def test_unary_minus():
    assert ev("-3 + 1") == -2.0
    assert ev("--3") == 3.0
    assert ev("2*-3") == -6.0


def test_power_binds_tighter_than_unary_minus():
    assert ev("-x1^2", x1=3.0) == -9.0
    assert ev("-2^2") == -4.0
    assert ev("2^-1") == 0.5


def test_whitespace_and_newlines_are_insignificant():
    assert ev(" exp (\n0 )\t+\n  x1 ^ 2 ", x1=2.0) == 5.0


def test_constant_power_overflows_to_inf():
    assert ev("x1 + 10^400", x1=1.0) == math.inf


def test_variables_and_functions():
    assert ev("x1*x2 + sqrt(x1)", x1=4.0, x2=0.5) == pytest.approx(4.0)
    assert ev("exp(log(x1))", x1=2.5) == pytest.approx(2.5)
    assert ev("sin(x1)^2 + cos(x1)^2", x1=0.7) == pytest.approx(1.0)


def test_unknown_names_rejected():
    with pytest.raises(ExprError, match="unknown name"):
        compile_profile("x1 + y", ("x1",))
    with pytest.raises(ExprError, match="unknown name"):
        compile_profile("tanh(x1)", ("x1",))


def test_malformed_inputs_rejected():
    for bad in ("1 +", "(1+2", "1 2", "x1 @ 2", "^2", "exp x1"):
        with pytest.raises(ExprError):
            compile_profile(bad, V4)


@pytest.mark.parametrize("bad", [
    "x1**2", "x1 ^ ^ 2", "0x10", "1_000", "1j", "True", "x1.real", "x1[0]",
    "exp(x=x1)", "exp(x1, x2)", "exp(x1,)", "exp()", "exp(*x1)", "(exp)(x1)",
    "x1 % 2", "x1 // 2", "~x1", "x1 < 2", "x1 if x2 else 1", "'x1'", "x1 # note",
])
def test_forms_outside_the_grammar_rejected(bad):
    with pytest.raises(ExprError):
        compile_profile(bad, V4)


@pytest.mark.parametrize("src", [
    "x1" + "+0*x1" * 5000,  # deeper than the parser can build
    "(" * 300 + "x1" + ")" * 300,  # more nested parentheses than Python allows
    "-" * (MAX_DEPTH + 1) + "x1",
], ids=["long-sum", "deep-parentheses", "deep-unary"])
def test_too_deep_expressions_rejected(src):
    with pytest.raises(ExprError):
        compile_profile(src, V4)


def test_deepest_accepted_expression_evaluates_on_jets():
    e = compile_profile("-" * MAX_DEPTH + "x1", V4)
    assert e(*seed_point([2.0, 0.0, 0.0, 0.0], 2)).value == 2.0


def test_non_constant_exponent_rejected():
    e = compile_profile("x1^x2", ("x1", "x2"))
    with pytest.raises(ExprError, match="constant"):
        e(*seed_point([2.0, 3.0], 2))


def test_evaluates_on_jets_matching_floats():
    src = "exp(0.3*x1) * (x2^2 + 1) - sqrt(x3 + 2) / x4"
    e = compile_profile(src, V4)
    p = [0.4, 1.1, 0.2, 0.9]
    jets = seed_point(p, 2)
    jval = e(*jets)
    fval = e(*p)
    assert jval.value == pytest.approx(fval, rel=1e-14)
    # first derivative against a hand value: d/dx2 = exp(0.3 x1) * 2 x2
    assert jval.partial([0, 1, 0, 0]) == pytest.approx(
        math.exp(0.3 * p[0]) * 2 * p[1], rel=1e-12
    )


def test_compile_profile_positional():
    prof = compile_profile("x2*phi + phi^2", ("x2", "phi"))
    assert prof(2.0, 3.0) == pytest.approx(15.0)
    with pytest.raises(TypeError):
        prof(1.0)
