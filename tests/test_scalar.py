import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conjscope import scalar
from conjscope.errors import DomainError, ExprSyntaxError, UnboundVariable, UnknownFunction
from conjscope.scalar import HyperDual, evaluate, parse, second_partials


def test_parse_tree_shape():
    prog = parse("-x1 - eps*x2")
    ast = prog.ast
    assert type(ast).__name__ == "Sub"
    assert type(ast.a).__name__ == "Neg"
    assert ast.a.a.name == "x1"
    assert type(ast.b).__name__ == "Mul"
    assert ast.b.a.name == "eps" and ast.b.b.name == "x2"
    assert prog.free_vars == ("x1", "eps", "x2")


def test_parse_constant():
    prog = parse("0")
    assert type(prog.ast).__name__ == "Const"
    assert prog.ast.value == 0.0


def test_parse_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("sin(")
    assert err.value.offset == 4


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        parse("sinh(x)")


def test_pow_requires_integer_literal():
    with pytest.raises(ExprSyntaxError):
        parse("x^2.5")
    prog = parse("x^-2")
    assert evaluate(prog, {"x": 2.0}) == 0.25


def test_precedence_pow_over_unary_minus():
    prog = parse("-x^2")
    assert evaluate(prog, {"x": 3.0}) == -9.0


def test_roundtrip_pretty_reparse():
    texts = [
        "-x1 - eps*x2",
        "a*(b + c)/d - 2",
        "sin(x)^2 + cos(x)^2",
        "x/(y*z) - x/y/z",
        "-(a + b)^3*sqrt(c)",
        "exp(-t)*log(1 + t^2)",
        "abs(u - v)/2 + tan(w)",
    ]
    for text in texts:
        prog = parse(text)
        assert parse(prog.pretty()) == prog


def test_eval_plain():
    assert evaluate(parse("x*y"), {"x": 2, "y": 3}) == 6


def test_eval_hyperdual_product_rule():
    out = evaluate(parse("x*y"), {"x": HyperDual(2, 1, 0, 0), "y": HyperDual(3, 0, 1, 0)})
    assert (out.re, out.e1, out.e2, out.e12) == (6, 3, 2, 1)


def test_eval_hyperdual_sin_second_derivative_zero():
    out = evaluate(parse("sin(x)"), {"x": HyperDual(0.0, 1, 1, 0)})
    assert out.re == 0.0 and out.e1 == 1.0 and out.e2 == 1.0 and out.e12 == 0.0


def test_zero_seed_promotion_matches_plain_eval():
    prog = parse("exp(x)*sin(y) - x/y")
    env = {"x": 0.7, "y": 1.3}
    plain = evaluate(prog, env)
    hd = evaluate(prog, {k: HyperDual(v) for k, v in env.items()})
    assert hd.re == plain and hd.e1 == 0.0 and hd.e12 == 0.0


def test_second_partials_polynomial():
    assert second_partials(parse("x^2*y"), {"x": 3, "y": 2}, "x", "y") == (18, 12, 9, 6)


def test_second_partials_exp():
    assert second_partials(parse("exp(x)"), {"x": 0}, "x", "x") == (1, 1, 1, 1)


def test_second_partials_mixed_cubic():
    val, di, dj, dij = second_partials(parse("x*y - y^3/3"), {"x": 1, "y": 2}, "y", "y")
    assert abs(val - (-2.0 / 3.0)) < 1e-15
    assert di == -3.0 and dj == -3.0 and dij == -4.0


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        evaluate(parse("x + missing"), {"x": 1.0})


def test_domain_errors_carry_subexpression():
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), {"x": -1.0})
    with pytest.raises(DomainError):
        evaluate(parse("1/(x - 1)"), {"x": 1.0})
    with pytest.raises(DomainError):
        evaluate(parse("x^-1"), {"x": 0.0})


def _finite_difference_check(prog, point, i, j, h1=1e-5, h2=5e-4):
    # first partials at h1; the second-derivative stencil needs the larger h2
    # to stay above the double-precision roundoff floor of the FD oracle
    def f(pt):
        return evaluate(prog, pt)

    base = dict(point)
    val, di, dj, dij = second_partials(prog, point, i, j)

    def shifted(**delta):
        env = dict(base)
        for k, d in delta.items():
            env[k] = env[k] + d
        return f(env)

    fd_i = (shifted(**{i: h1}) - shifted(**{i: -h1})) / (2 * h1)
    fd_j = (shifted(**{j: h1}) - shifted(**{j: -h1})) / (2 * h1)
    if i == j:
        fd_ij = (shifted(**{i: h2}) - 2 * f(base) + shifted(**{i: -h2})) / h2**2
    else:
        fd_ij = (
            shifted(**{i: h2, j: h2}) - shifted(**{i: h2, j: -h2})
            - shifted(**{i: -h2, j: h2}) + shifted(**{i: -h2, j: -h2})
        ) / (4 * h2**2)
    scale = max(1.0, abs(di), abs(dj), abs(dij))
    assert abs(fd_i - di) / scale < 1e-6
    assert abs(fd_j - dj) / scale < 1e-6
    assert abs(fd_ij - dij) / scale < 1e-6


def test_hyperdual_matches_finite_differences_randomized():
    rng = np.random.default_rng(42)
    pieces = ["x", "y", "z", "x*y", "y*z", "x^2", "z^3", "sin(x)", "cos(y)",
              "exp(z/4)", "x*sin(y)", "cos(x)*z"]
    for _ in range(100):
        k = rng.integers(2, 5)
        expr = " + ".join(
            f"{rng.uniform(-2, 2):.4f}*{pieces[rng.integers(0, len(pieces))]}"
            for _ in range(k))
        prog = parse(expr)
        point = {n: float(rng.uniform(-1.5, 1.5)) for n in ("x", "y", "z")}
        i, j = rng.choice(["x", "y", "z"], size=2)
        _finite_difference_check(prog, point, str(i), str(j))


def test_evaluation_deterministic():
    prog = parse("sin(x)*exp(y) - x^3/7 + sqrt(y + 2)")
    env = {"x": 0.123456789, "y": 0.987654321}
    first = evaluate(prog, env)
    for _ in range(5):
        assert evaluate(prog, env) == first


def test_abs_and_tan():
    assert evaluate(parse("abs(x)"), {"x": -3.5}) == 3.5
    out = evaluate(parse("tan(x)"), {"x": HyperDual(0.3, 1, 0, 0)})
    assert abs(out.e1 - 1.0 / math.cos(0.3) ** 2) < 1e-14


# -- property tests over random expression trees ------------------------------

NAMES = ("x", "y", "z")
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def trees(functions=tuple(scalar._FUNCTIONS)):
    # constants are non-negative: the parser reads a minus sign as Neg, so it
    # never produces a negative Const
    leaves = st.one_of(
        st.sampled_from(NAMES).map(scalar.Var),
        st.floats(0.0, 4.0).map(scalar.Const),
    )

    def extend(children):
        binary = st.sampled_from((scalar.Add, scalar.Sub, scalar.Mul, scalar.Div))
        return st.one_of(
            children.map(scalar.Neg),
            st.builds(lambda op, a, b: op(a, b), binary, children, children),
            st.builds(scalar.Pow, children, st.integers(-3, 4)),
            st.builds(scalar.Call, st.sampled_from(functions), children),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def program(tree):
    order = []
    scalar._free_vars(tree, set(), order)
    return scalar.ExprProgram(tree, tuple(order))


points = st.fixed_dictionaries({n: st.floats(-2.0, 2.0) for n in NAMES})
directions = st.dictionaries(st.sampled_from(NAMES), st.floats(-2.0, 2.0))

# failures of evaluation at a drawn point: the draw is rejected, not the engine
EVAL_ERRORS = (DomainError, ZeroDivisionError, OverflowError, ValueError)


def engine(progs, point, i, j):
    try:
        out = second_partials(progs, point, i, j)
    except EVAL_ERRORS:
        assume(False)
    assume(np.all(np.isfinite(out)))
    return out


@PROPERTY_SETTINGS
@given(trees())
def test_property_pretty_parse_roundtrip(tree):
    prog = program(tree)
    assert parse(prog.pretty()) == prog


@PROPERTY_SETTINGS
@given(trees(), points, directions, directions)
def test_property_value_slot_bitwise_equals_evaluate(tree, point, i, j):
    prog = program(tree)
    val = engine(prog, point, i, j)[0]
    assert val.hex() == float(evaluate(prog, point)).hex()


@PROPERTY_SETTINGS
@given(st.lists(trees(), min_size=1, max_size=4), points, directions, directions)
def test_property_sequence_form_bitwise_equals_single_form(tree_list, point, i, j):
    progs = [program(t) for t in tree_list]
    arrays = engine(progs, point, i, j)
    for k, prog in enumerate(progs):
        single = engine(prog, point, i, j)
        assert [a[k].hex() for a in arrays] == [float(v).hex() for v in single]


def _to_sympy(sp, node, symbols):
    def rec(n):
        return _to_sympy(sp, n, symbols)

    tp = type(node)
    if tp is scalar.Const:
        return sp.Rational(node.value)
    if tp is scalar.Var:
        return symbols[node.name]
    if tp is scalar.Neg:
        return -rec(node.a)
    if tp is scalar.Pow:
        return rec(node.base) ** node.exponent
    if tp is scalar.Call:
        fn = {"sin": sp.sin, "cos": sp.cos, "tan": sp.tan, "exp": sp.exp,
              "log": sp.log, "sqrt": sp.sqrt}[node.fn]
        return fn(rec(node.arg))
    a, b = rec(node.a), rec(node.b)
    return {scalar.Add: a + b, scalar.Sub: a - b, scalar.Mul: a * b, scalar.Div: a / b}[tp]


# abs is left out: its derivative at a zero argument is a convention, not sympy's
@PROPERTY_SETTINGS
@given(trees(("sin", "cos", "tan", "exp", "log", "sqrt")), points, directions, directions)
def test_property_engine_matches_sympy_directional_derivatives(tree, point, i, j):
    sp = pytest.importorskip("sympy")
    out = engine(program(tree), point, i, j)
    symbols = {n: sp.Symbol(n, real=True) for n in NAMES}
    f = _to_sympy(sp, tree, symbols)
    d_i = sum((c * sp.diff(f, symbols[n]) for n, c in i.items()), sp.Integer(0))
    d_j = sum((c * sp.diff(f, symbols[n]) for n, c in j.items()), sp.Integer(0))
    d_ij = sum((c * sp.diff(d_i, symbols[n]) for n, c in j.items()), sp.Integer(0))
    subs = {symbols[n]: sp.Rational(v) for n, v in point.items()}
    for got, ref in zip(out, (f, d_i, d_j, d_ij)):
        exact = float(ref.evalf(40, subs=subs))
        assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact))
