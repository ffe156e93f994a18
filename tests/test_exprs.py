import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsann.exprs import ExpressionError, compile_expression


def test_arithmetic_and_precedence():
    f = compile_expression("0.5*sigma**2*S**2", ("S", "sigma"))
    assert f(3.0, 0.2) == pytest.approx(0.5 * 0.04 * 9.0)
    g = compile_expression("-(S - 1)/2 + 2**3", ("S",))
    assert g(5.0) == pytest.approx(-2.0 + 8.0)


def test_payoff_idiom():
    f = compile_expression("max(S - 10, 0)", ("S",))
    assert f(12.0) == 2.0
    assert f(8.0) == 0.0
    s = np.linspace(0.0, 20.0, 11)
    assert np.array_equal(f(s), np.maximum(s - 10.0, 0.0))


def test_functions_and_constants():
    f = compile_expression("exp(-r*t)*cos(pi*x) + sqrt(e)", ("x", "t", "r"))
    x, t, r = 0.5, 2.0, 0.05
    assert f(x, t, r) == pytest.approx(math.exp(-0.1) * math.cos(math.pi / 2) + math.sqrt(math.e))
    g = compile_expression("min(abs(x), 1) + log(e) + sin(0) + tan(0)", ("x",))
    assert g(-0.25) == pytest.approx(1.25)


def test_broadcasts_over_arrays():
    f = compile_expression("x**2 * t", ("x", "t"))
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(f(x, 2.0), np.array([2.0, 8.0, 18.0]))
    assert isinstance(f(2.0, 3.0), float)


def test_scalar_arithmetic_follows_numpy():
    # no Python ZeroDivisionError, OverflowError or complex result escapes
    with np.errstate(all="ignore"):
        assert compile_expression("1/S", ("S",))(0.0) == np.inf
        assert np.isnan(compile_expression("t/0", ("t",))(0.0))
        assert compile_expression("10**400 + 0*S", ("S",))(1.0) == np.inf
        assert np.isnan(compile_expression("S**0.5", ("S",))(-1.0))


def test_argument_count_enforced():
    f = compile_expression("x + 1", ("x",))
    with pytest.raises(TypeError):
        f(1.0, 2.0)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("S + K", "unknown name 'K'"),
        ("foo(S)", "only calls to"),
        ("max(S)", "exactly 2"),
        ("exp(S, 1)", "exactly 1"),
        ("max(S, 0, 1)", "exactly 2"),
        ("S.real", "Attribute"),
        ("S[0]", "Subscript"),
        ("(lambda: 1)()", "only calls to"),
        ("'abc'", "is not a number"),
        ("S if S > 0 else 0", "IfExp"),
        ("S < 1", "Compare"),
        ("S and 1", "BoolOp"),
        ("S // 2", "FloorDiv"),
        ("S % 2", "Mod"),
        ("~2", "Invert"),
        ("max(S, x=1)", "keyword"),
        ("", "empty"),
        ("   ", "empty"),
        ("S +", "cannot parse"),
        ("-" * 201 + "S", "nests deeper than 200"),
        ("+".join(["S"] * 202), "nests deeper than 200"),
        ("max(S - 10, 0) + 1" + "0" * 400 + " * 0", "too large for a float"),
    ],
)
def test_rejected_syntax(text, fragment):
    with pytest.raises(ExpressionError) as info:
        compile_expression(text, ("S",))
    assert fragment in str(info.value)


def test_error_is_a_value_error():
    with pytest.raises(ValueError):
        compile_expression("import os", ("S",))


@settings(max_examples=300, deadline=None, derandomize=True)
@example("+".join(["S"] * 100_000))
@example("-" * 100_000 + "S")
@given(st.one_of(st.text(), st.text(alphabet="S+-*/() 0123456789.e,maxinlogtp_")))
def test_compile_returns_a_callable_or_raises_expression_error(text):
    try:
        fn = compile_expression(text, ["S"])
    except ExpressionError:
        return
    assert callable(fn)
