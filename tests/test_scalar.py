import gc
import importlib.util
import math
import re
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conjscope import catalog, frames, pair as pair_mod, scalar
from conjscope.errors import DomainError, ExprSyntaxError, UnboundVariable, UnknownFunction
from conjscope.scalar import (Const, ExprProgram, Mul, Neg, Pow, Var, const_expr,
                              evaluate, parse, second_partials, var_expr)

from conftest import linear_combination


# -- reference interpreter: the test oracle of compiled evaluation -----------

def _ref_log(x):
    if x <= 0.0:
        raise DomainError("log of non-positive value")
    return math.log(x)


def _ref_sqrt(x):
    if x < 0.0:
        raise DomainError("sqrt of negative value")
    return math.sqrt(x)


REF_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
                 "log": _ref_log, "sqrt": _ref_sqrt, "abs": abs}


def reference(node, env):
    """Recursive float evaluation of a tree: the denominator is evaluated and
    checked before the numerator, and domain failures carry the printed
    offending node."""
    tp = type(node)
    if tp is scalar.Const:
        return node.value
    if tp is scalar.Var:
        return float(env[node.name])
    if tp is scalar.Neg:
        return -reference(node.a, env)
    if tp is scalar.Div:
        den = reference(node.b, env)
        if den == 0.0:
            raise DomainError("division by zero", scalar._pretty(node, 0))
        return reference(node.a, env) / den
    if tp is scalar.Pow:
        base = reference(node.base, env)
        if node.exponent < 0 and base == 0.0:
            raise DomainError("zero base with negative exponent", scalar._pretty(node, 0))
        return base ** node.exponent
    if tp is scalar.Call:
        arg = reference(node.arg, env)
        try:
            return REF_FUNCTIONS[node.fn](arg)
        except (DomainError, ValueError) as err:
            raise DomainError(str(err), scalar._pretty(node, 0)) from None
    a, b = reference(node.a, env), reference(node.b, env)
    return {scalar.Add: a + b, scalar.Sub: a - b, scalar.Mul: a * b}[tp]


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
    assert second_partials(parse("x*y"), {"x": 2, "y": 3}, "x", "y") == (6, 3, 2, 1)


def test_eval_hyperdual_sin_second_derivative_zero():
    re, e1, e2, e12 = second_partials(parse("sin(x)"), {"x": 0.0}, "x", "x")
    assert re == 0.0 and e1 == 1.0 and e2 == 1.0 and e12 == 0.0


def test_zero_seed_promotion_matches_plain_eval():
    # nothing seeded: the value slot is plain evaluation, every other slot zero
    prog = parse("exp(x)*sin(y) - x/y")
    env = {"x": 0.7, "y": 1.3}
    plain = evaluate(prog, env)
    re, e1, e2, e12 = second_partials(prog, env, {}, {})
    assert re == plain and e1 == 0.0 and e2 == 0.0 and e12 == 0.0


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
    cases = (("2*log(x - 1)", 0.5, "log(x - 1)"), ("y + 1/(x - 1)", 1.0, "1/(x - 1)"),
             ("y*x^-1", 0.0, "x^-1"))
    for text, x, where in cases:
        prog, point = parse(text), {"x": x, "y": 2.0}
        calls = (lambda: evaluate(prog, point),
                 lambda: second_partials(prog, point, "x", "y"),
                 lambda: second_partials((prog, prog), point, {"y": 1.0}, ["x", "y"]))
        for call in calls:
            with pytest.raises(DomainError) as err:
                call()
            assert err.value.where == where


def test_sqrt_domain_check_depends_on_differentiation():
    # sqrt is differentiable only on positive arguments; a plain value at 0 is fine
    assert evaluate(parse("sqrt(x)"), {"x": 0.0}) == 0.0
    assert second_partials(parse("x*sqrt(y)"), {"x": 1.0, "y": 0.0}, "x", "x")[0] == 0.0
    with pytest.raises(DomainError, match="not differentiable") as err:
        second_partials(parse("x*sqrt(y)"), {"x": 1.0, "y": 0.0}, "x", ["x", "y"])
    assert err.value.where == "sqrt(y)"
    with pytest.raises(DomainError, match="sqrt of negative value"):
        evaluate(parse("sqrt(x)"), {"x": -1e-300})


def test_direction_columns_take_their_own_division_formula():
    # numerators depend on x only and denominators on y only: in column x the
    # denominator is a plain value, in column y the numerator is
    progs = (parse("x*x/y"), parse("sin(x)/(y*y - 1)"))
    for x in np.linspace(0.1, 2.0, 20):
        point = {"x": x, "y": 3.0 + x}
        _, _, e2, e12 = second_partials(progs, point, {}, ["x", "y"])
        for k, prog in enumerate(progs):
            for b, name in enumerate(("x", "y")):
                single = second_partials(prog, point, {}, name)
                assert (e2[k, b].hex(), e12[k, b].hex()) == (single[2].hex(), single[3].hex())


def test_single_direction_d_di_is_the_one_column_request():
    # d/di is the evaluation seeded along i alone, however j is written, also
    # where a division's numerator depends on j only (a plain value along i)
    rng = np.random.default_rng(0)
    draws = rng.uniform(-2.0, 2.0, size=(2000, 2))
    stack = {"x": draws[:, 0], "y": draws[:, 1]}
    for text in ("y/(x*x + 1)", "sin(y)/(x - 3)", "(y*y + 2)/exp(x)"):
        prog = parse(text)
        for x, y in draws.tolist():
            point = {"x": x, "y": y}
            assert second_partials(prog, point, "x", "y")[1].hex() == \
                second_partials(prog, point, "x", ["y"])[1].hex()
        assert second_partials(prog, stack, "x", "y")[1].tobytes() == \
            second_partials(prog, stack, "x", ["y"])[1].tobytes()


def test_negative_constant_base_is_parenthesised():
    # Python reads -0.5 ** 2 as -(0.5 ** 2)
    assert evaluate(ExprProgram(Pow(Const(-0.5), 2), ()), {}) == 0.25
    assert evaluate(ExprProgram(Pow(Const(-0.5), 3), ()), {}) == -0.125
    prog = ExprProgram(Mul(Pow(Const(-0.5), 2), Var("x")), ("x",))
    assert second_partials(prog, {"x": 4.0}, "x", "x") == (1.0, 0.25, 0.25, 0.0)


def test_builders_make_negative_constants_as_negations():
    x, y = var_expr("x"), var_expr("y")
    prog = linear_combination([x], [-0.5])
    assert prog.ast == Mul(Neg(Const(0.5)), Var("x"))
    assert evaluate(prog, {"x": 0.3}).hex() == (-0.5 * 0.3).hex()
    assert const_expr(-3.25).ast == Neg(Const(3.25))
    assert math.copysign(1.0, evaluate(const_expr(-0.0), {})) == -1.0
    for built in (prog, linear_combination([x, y], [2.0, -1.0]), const_expr(-3.25),
                  const_expr(-0.0), const_expr(1.5)):
        assert parse(built.pretty()) == built


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
    _, e1, _, _ = second_partials(parse("tan(x)"), {"x": 0.3}, "x", {})
    assert abs(e1 - 1.0 / math.cos(0.3) ** 2) < 1e-14


# -- property tests over random expression trees ------------------------------

NAMES = ("x", "y", "z")
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def trees(functions=scalar._FUNCTIONS, negative=False):
    # the parser reads a minus sign as Neg, so it never produces a negative
    # Const, and trees with one do not survive printing and parsing
    leaves = st.one_of(
        st.sampled_from(NAMES).map(scalar.Var),
        st.floats(-4.0 if negative else 0.0, 4.0).map(scalar.Const),
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
    assume(all(np.all(np.isfinite(part)) for part in out))
    return out


@PROPERTY_SETTINGS
@given(trees())
def test_property_pretty_parse_roundtrip(tree):
    prog = program(tree)
    assert parse(prog.pretty()) == prog


def _bits(value):
    """Bit patterns of a float, or of every entry of an array or tuple."""
    if isinstance(value, (tuple, np.ndarray)):
        return tuple(_bits(v) for v in value)
    return float(value).hex()


def _outcome(fn):
    try:
        return _bits(fn())
    except DomainError as err:
        return ("DomainError", str(err), err.where)
    except (ZeroDivisionError, OverflowError, ValueError) as err:
        return type(err).__name__


@PROPERTY_SETTINGS
@given(trees(negative=True), points)
def test_property_evaluate_bitwise_equals_reference_interpreter(tree, point):
    prog = program(tree)
    assert _outcome(lambda: evaluate(prog, point)) == _outcome(lambda: reference(tree, point))


@PROPERTY_SETTINGS
@given(st.lists(trees(negative=True), min_size=1, max_size=3), points, directions,
       st.lists(st.one_of(st.sampled_from(NAMES), directions), min_size=1, max_size=3))
def test_property_direction_columns_bitwise_equal_single_direction(tree_list, point, i, js):
    progs = [program(t) for t in tree_list]
    val, _, e2, e12 = engine(tuple(progs), point, i, js)
    for k, prog in enumerate(progs):
        for b, j in enumerate(js):
            single = second_partials(prog, point, i, j)
            assert [val[k].hex(), e2[k, b].hex(), e12[k, b].hex()] == \
                [float(single[s]).hex() for s in (0, 2, 3)]


@PROPERTY_SETTINGS
@given(st.lists(trees(negative=True), min_size=1, max_size=3), points, directions,
       st.lists(st.one_of(st.sampled_from(NAMES), directions), min_size=1, max_size=3))
def test_property_d_di_does_not_depend_on_the_directions_requested(tree_list, point, i, js):
    progs = [program(t) for t in tree_list]
    d_i = engine(tuple(progs), point, i, js)[1]
    for k, prog in enumerate(progs):
        for j in js:
            assert float(second_partials(prog, point, i, j)[1]).hex() == d_i[k].hex()


def _point_stack(draw_points):
    """The points and the point of arrays that stacks them."""
    return draw_points, {n: np.array([p[n] for p in draw_points]) for n in NAMES}


def _seed_stack(seeds):
    """Per-point mapping seeds with one set of names, and their stack."""
    names = sorted({n for d in seeds for n in d})
    per_point = [{n: d.get(n, 0.0) for n in names} for d in seeds]
    return per_point, {n: np.array([d[n] for d in per_point]) for n in names}


@PROPERTY_SETTINGS
@given(st.lists(trees(negative=True), min_size=1, max_size=3),
       st.lists(points, min_size=2, max_size=4).flatmap(
           lambda pts: st.tuples(st.just(pts), st.lists(directions, min_size=len(pts),
                                                        max_size=len(pts)))),
       st.lists(st.one_of(st.sampled_from(NAMES), directions), min_size=1, max_size=3))
def test_property_array_kernel_rows_bitwise_equal_scalar_kernel(tree_list, drawn, js):
    # one call over a point of arrays against the scalar kernel at each point:
    # value, Jacobian (one name direction), Hessian contracted with a
    # per-point direction, and several directions; a failure anywhere is the
    # failure of the lowest failing point, with its type, message and where
    pts, stack = _point_stack(drawn[0])
    i_pts, i_stack = _seed_stack(drawn[1])
    progs = program(tree_list[0]) if len(tree_list) == 1 else \
        tuple(program(t) for t in tree_list)
    calls = (lambda pt, i: (evaluate(progs, pt),),
             lambda pt, i: tuple(second_partials(progs, pt, i, js[0])),
             lambda pt, i: tuple(second_partials(progs, pt, i, js)))
    for call in calls:
        rows = [_outcome(lambda: call(pt, i)) for pt, i in zip(pts, i_pts)]
        failed = [o for o in rows if isinstance(o, str) or o[0] == "DomainError"]
        got = _outcome(lambda: call(stack, i_stack))
        if failed:
            assert got == failed[0]
        else:
            assert [tuple(part[k] for part in got) for k in range(len(pts))] == rows


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


# -- kernel lifetime ------------------------------------------------------------

def _count_compiles(monkeypatch):
    keys = []
    compile_kernel = scalar._compile

    def counting(progs, key):
        keys.append(key)
        return compile_kernel(progs, key)

    monkeypatch.setattr(scalar, "_compile", counting)
    return keys


def _planar_pair():
    return pair_mod.GenericPair(coords=("q", "p"), X=("p", "-q - a*q^3"),
                                vframe=(("0", "1"),), params={"a": 0.3})


def test_building_models_compiles_no_kernel(monkeypatch):
    keys = _count_compiles(monkeypatch)
    for name in catalog.ENTRIES:
        catalog.build(name)
    pr = _planar_pair()
    assert keys == []
    pr.X_at([0.1, 0.2])
    pair_mod.brackets_at(pr, [0.1, 0.2])
    pair_mod.brackets_at(pr, [0.3, -0.2])
    assert len(keys) == 2          # plain X, then the jet of X and the frame


def test_kernels_are_freed_with_their_programs(monkeypatch):
    # the table holds kernels and keys derived from trees, never a program
    keys = _count_compiles(monkeypatch)
    point = {"x": 0.3, "y": 0.7}
    prog = parse("x*sin(y)")
    evaluate(prog, point)
    second_partials(prog, point, "x", "y")
    assert len(keys) == 2 and len(scalar._TABLE) == 2
    ref = weakref.ref(prog)
    del prog
    gc.collect()
    assert ref() is None
    # a new program of the same text finds both kernels
    again = parse("x*sin(y)")
    evaluate(again, point)
    second_partials(again, point, "x", "y")
    assert len(keys) == 2
    # a plain list's programs die with the call; its kernel stays in the
    # process-wide table until newer structures push it out
    progs = [parse("x + y"), parse("x*y")]
    refs = [weakref.ref(p) for p in progs]
    second_partials(progs, point, {}, ["x", "y"])
    del progs
    gc.collect()
    assert all(r() is None for r in refs)
    assert len(keys) == 3 and len(scalar._TABLE) == 3
    pr = _planar_pair()
    pair_mod.extract_H(pr, [0.4, 0.1])
    ref = weakref.ref(pr)
    del pr
    gc.collect()
    assert ref() is None


def test_lazy_compilation_under_threads(monkeypatch):
    points = [np.array([0.1 * k, 0.5 - 0.05 * k]) for k in range(40)]
    expected = [pair_mod.brackets_at(_planar_pair(), x) for x in points]
    scalar._TABLE.clear()
    keys = _count_compiles(monkeypatch)
    pr = _planar_pair()             # no kernel yet: the threads race to compile
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda x: pair_mod.brackets_at(pr, x), points, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(got, expected):
        assert all(u.tobytes() == v.tobytes() for u, v in zip(a, b))
    # brackets_at is one field kernel of the stacked fields, which computes
    # X itself: X compiles nothing of its own, and the one kernel compiled
    # is the table's entry and the pair's bracket kernel
    assert len(keys) == 1 and keys[0] is not None
    assert list(scalar._TABLE.values()) == [pair_mod._pair_kernel(pr, pair_mod._bracket_algebra)]


def test_identical_pairs_share_one_kernel_under_threads(monkeypatch):
    # two pairs built apart from the same expressions race on an empty
    # table, four threads each, released together, through the bracket
    # kernel and the plain kernel of X: each structure compiles once, into
    # the one table, and both pairs read that kernel
    points = [np.array([0.1 * k, 0.5 - 0.05 * k]) for k in range(40)]
    read = lambda pr, x: (*pair_mod.brackets_at(pr, x), pr.X_at(x))
    expected = [read(_planar_pair(), x) for x in points]
    scalar._TABLE.clear()
    keys = _count_compiles(monkeypatch)
    pairs = [_planar_pair(), _planar_pair()]
    start = threading.Barrier(8)

    def worker(pr):
        start.wait(timeout=60)
        return [read(pr, x) for x in points]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(worker, pairs * 4, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for outs in got:
        for out, ref in zip(outs, expected):
            assert all(u.tobytes() == v.tobytes() for u, v in zip(out, ref))
    assert len(keys) == 2 and len(scalar._TABLE) == 2
    first, second = (pair_mod._pair_kernel(pr, pair_mod._bracket_algebra) for pr in pairs)
    assert first is second and any(kernel is first for kernel in scalar._TABLE.values())


def test_signed_zero_constants_get_their_own_kernels():
    # Const(0.0) == Const(-0.0) as dataclasses, yet they compile apart, in
    # either order, and each keeps its sign
    assert Const(0.0) == Const(-0.0)
    for first in (0.0, -0.0):
        scalar._TABLE.clear()
        for c in (first, -first):
            value = evaluate(ExprProgram(Const(c), ()), {})
            assert value == 0.0 and math.copysign(1.0, value) == math.copysign(1.0, c)
            value, _, _, _ = second_partials(ExprProgram(Const(c), ()), {}, "x", "x")
            assert math.copysign(1.0, value) == math.copysign(1.0, c)
        assert len(scalar._TABLE) == 4


def _along_algebra(gen, jet):
    return list(jet.along) + [d for row in jet.dij for d in row]


def test_along_seeds_of_a_program_and_a_constant_get_their_own_kernels(monkeypatch):
    # the component 1 reads program 1 (3*x), the component 1.0 is a
    # constant: equal numbers, different seeds, on one sequence or on two
    # built apart, each compiled once
    keys = _count_compiles(monkeypatch)
    seeds = (scalar.Along((("x", 1),)), scalar.Along((("x", 1.0),)))
    assert seeds[0] != seeds[1] and seeds[0] == scalar.Along((("x", 1),))
    field = lambda: (parse("x*x"), parse("3*x"))
    shared = field()
    for progs in (lambda: shared, field):
        scalar._TABLE.clear()
        keys.clear()
        got = [scalar.run_field(scalar.field_kernel(progs(), ("x",), seed, ("x",), _along_algebra),
                                [2.0], {}).tolist() for seed in seeds]
        assert got == [[6.0, 12.0, 0.0], [1.0, 2.0, 0.0]]
        assert len(keys) == 2 and len(scalar._TABLE) == 2


def test_the_kernel_table_keeps_its_bound(monkeypatch):
    # past the bound the oldest structures leave the table; a dropped
    # structure compiles again once on its next request, whether its own
    # program or a new one of the same text makes it, and the newest stay
    count = scalar._TABLE_SIZE + 8
    progs = [parse(f"x + {k}") for k in range(count)]
    first = [evaluate(p, {"x": 0.5}) for p in progs]
    assert first == [0.5 + k for k in range(count)]
    assert len(scalar._TABLE) == scalar._TABLE_SIZE
    keys = _count_compiles(monkeypatch)
    assert [evaluate(p, {"x": 0.5}) for p in progs[8:]] == first[8:]
    assert keys == []
    assert evaluate(parse(f"x + {count - 1}"), {"x": 0.5}) == first[-1] and keys == []
    assert [evaluate(p, {"x": 0.5}) for p in progs[:8]] == first[:8] and len(keys) == 8
    again = [evaluate(parse(f"x + {k}"), {"x": 0.5}) for k in range(8)]
    assert again == first[:8] and len(keys) == 8
    assert len(scalar._TABLE) == scalar._TABLE_SIZE


@pytest.mark.parametrize("generic", [True, False])
def test_a_solve_past_the_table_bound_compiles_its_joint_kernel_again(monkeypatch, generic):
    # the table is the only kernel cache, and a solve reads its joint kernel
    # (a lift's as a generic pair's) once, when it builds its right-hand
    # side: after _TABLE_SIZE newer structures have pushed the pair's
    # kernels out of the table, the same pair solves again to the same bits
    # compiling that one kernel, and a pair rebuilt from the same
    # expressions (a new lift of the model) then compiles nothing
    def build():
        if generic:
            return _planar_pair()
        return pair_mod.lift_sode(pair_mod.SODEModel(m=1, F=("-x1 - 0.3*x1^3",),
                                                     autonomous=True))

    def solve(pr):
        return frames.transport_normal_frame(pr, [0.3, 0.1], 2.0).joint.states

    pr = build()
    first = solve(pr)
    for k in range(scalar._TABLE_SIZE):
        evaluate(parse(f"x + {k}"), {"x": 0.5})
    keys = _count_compiles(monkeypatch)
    assert np.array_equal(solve(pr), first)
    assert len(keys) == 1 and keys[0][3] is pair_mod._rhs_algebra
    assert np.array_equal(solve(build()), first) and len(keys) == 1


# -- tangent kernels -----------------------------------------------------------

# every operator and function the parser knows: sums, differences, products,
# quotients, unary minus, positive and negative integer powers and the seven
# functions; x > 0 > y keeps every point away from a kink or a pole
TANGENT_FIELD = ("sin(x)*y^3 - cos(x*y)/(1 + y^2)",
                 "tan(0.3*x) + exp(-y)*log(2 + x) + sqrt(1 + x^2)*abs(x - y)",
                 "x^-2 - y/x + -2*x^2 + abs(y)^-1")
TANGENT_SEEDS = (None, scalar.Along((("x", 0), ("y", 1))))


def _jet_algebra(gen, jet):
    return list(jet.val) + [d for row in jet.dj for d in row] + [d for row in jet.dij for d in row]


def _tangent_pair(along, field=TANGENT_FIELD, coords=("x", "y"), j=None):
    """The field kernel of the value, d/dj and d2/didj of ``field`` (each
    coordinate a j, unless ``j`` names them) and its tangent kernel."""
    progs = tuple(parse(e) for e in field)
    j = coords if j is None else j
    return [scalar.field_kernel(progs, coords, along, j, _jet_algebra, tangent=tangent)
            for tangent in (False, True)]


@settings(max_examples=40, deadline=None)
@given(st.floats(0.3, 1.5), st.floats(-1.5, -0.3), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
       st.sampled_from(TANGENT_SEEDS))
def test_property_tangent_matches_a_sixth_order_central_difference(x, y, ux, uy, along):
    # along a field the kernel computes itself, the seed values carry their
    # own tangents too
    kernel, tangent = _tangent_pair(along)
    point, u = np.array([x, y]), np.array([ux, uy])
    out = scalar.run_field(tangent, [x, y, ux, uy], {})
    f = lambda p: scalar.run_field(kernel, p.tolist(), {})
    half = len(out) // 2
    assert np.array_equal(out[:half], f(point))
    h = 1e-3
    fd = (-f(point - 3 * h * u) + 9 * f(point - 2 * h * u) - 45 * f(point - h * u)
          + 45 * f(point + h * u) - 9 * f(point + 2 * h * u) + f(point + 3 * h * u)) / (60 * h)
    assert np.max(np.abs(out[half:] - fd)) <= 1e-8 * max(np.max(np.abs(fd)), 1.0)


@pytest.mark.parametrize("along", TANGENT_SEEDS)
def test_tangent_array_kernel_columns_bitwise_equal_the_scalar_kernel(along):
    _, tangent = _tangent_pair(along)
    rng = np.random.default_rng(3)
    w = np.vstack([rng.uniform(0.3, 1.5, 9), rng.uniform(-1.5, -0.3, 9),
                   rng.standard_normal((2, 9))])
    stacked = scalar.run_field(tangent, list(w), {}, 9)
    for k in range(9):
        assert stacked[k].tobytes() == scalar.run_field(tangent, w[:, k].tolist(), {}).tobytes()


def test_tangent_kernel_raises_what_evaluate_raises():
    # point 1 takes the log of 0 and point 3 divides by zero: both raise
    # the error of point 1
    field = ("log(x)*y", "y/(x - 2)")
    _, tangent = _tangent_pair(TANGENT_SEEDS[1], field)
    w = np.array([[0.5, 0.0, 1.0, 2.0], [0.1, 0.2, 0.3, 0.4], [1.0] * 4, [1.0] * 4])
    with pytest.raises(DomainError) as ref:
        evaluate([parse(e) for e in field], {"x": w[0], "y": w[1]})
    for call in (lambda: scalar.run_field(tangent, list(w), {}, 4),
                 lambda: scalar.run_field(tangent, w[:, 1].tolist(), {})):
        with pytest.raises(DomainError) as err:
            call()
        assert (err.value.where, str(err.value)) == (ref.value.where, str(ref.value))
    with pytest.raises(UnboundVariable):
        scalar.run_field(_tangent_pair(None, ("a*x",))[1], [1.0, 1.0, 1.0, 1.0], {})


def test_sqrt_at_zero_raises_under_a_live_tangent():
    # sqrt(x) at 0 has a value, and the plain jet takes it; its tangent
    # along x has none, so the tangent kernel raises as a hyper-dual sqrt
    # does, and a sqrt that no coordinate reaches keeps its tangent zero
    kernel, tangent = _tangent_pair(None, ("sqrt(x)*y", "sqrt(a)*y"), j=())
    env = {"a": 0.0}
    assert scalar.run_field(kernel, [0.0, 2.0], env).tolist()[:2] == [0.0, 0.0]
    with pytest.raises(DomainError) as ref:
        second_partials(parse("sqrt(x)*y"), {"x": 0.0, "y": 2.0}, "x", "x")
    for w in ([0.0, 2.0, 1.0, 0.0], [0.0, 2.0, 0.0, 1.0]):
        with pytest.raises(DomainError) as err:
            scalar.run_field(tangent, w, env)
        assert (err.value.where, str(err.value)) == (ref.value.where, str(ref.value))
        assert "not differentiable at 0" in str(err.value)
    _, only_a = _tangent_pair(None, ("sqrt(a)*y",), j=())
    assert scalar.run_field(only_a, [0.0, 2.0, 1.0, 1.0], env).tolist() == [0.0, 0.0]


def test_abs_tangent_takes_the_jet_sign_at_zero():
    _, tangent = _tangent_pair(None, ("abs(x)",), ("x",))
    _, d_di, _, _ = second_partials(parse("abs(x)"), {"x": 0.0}, "x", "x")
    assert d_di == 1.0
    for u in (1.0, -2.0):
        assert scalar.run_field(tangent, [0.0, u], {}).tolist() == [0.0, 1.0, 0.0, u, 0.0, 0.0]


def test_tangent_kernel_has_its_own_key_and_reads_no_other_state():
    kernel, tangent = _tangent_pair(None)
    assert kernel is not tangent
    progs = (parse("x"),)
    extra = lambda gen, jet: [gen.state(2)]
    with pytest.raises(ValueError, match="no state beyond"):
        scalar.run_field(scalar.field_kernel(progs, ("x",), None, (), extra, tangent=True),
                         [1.0, 1.0, 1.0], {})


def test_a_tangent_sweep_refuses_a_call_without_a_rule():
    # no sweep knows a tangent for _max: a tangent kernel over it does not
    # build, where abs's sign rule would give a wrong derivative
    largest = lambda gen, jet: [gen.emit(f"_max({jet.val[0]}, {jet.val[1]})")]
    with pytest.raises(TypeError, match="_max"):
        scalar.field_kernel((parse("x*y"), parse("x + y")), ("x", "y"), None, (), largest,
                            tangent=True)


def _value_algebra(gen, jet):
    return list(jet.val)


def _larger_of_value_and_tangent(gen, jet, out, d_out):
    return [gen.emit(f"_max({v}, {d})") for v, d in zip(out, d_out)]


def test_an_algebra_after_the_sweep_is_not_differentiated():
    # the same _max, emitted after the sweep by a tangent algebra, builds:
    # it combines the outputs and their tangents, which replace them
    progs = (parse("x*y"), parse("x + y"))
    kernel = scalar.field_kernel(progs, ("x", "y"), None, (), _value_algebra,
                                 tangent=_larger_of_value_and_tangent)
    plain = scalar.field_kernel(progs, ("x", "y"), None, (), _value_algebra, tangent=True)
    assert kernel is not plain
    w = [0.5, 3.0, 1.0, -2.0]           # d(xy) = 3 - 1 = 2, d(x + y) = -1
    assert scalar.run_field(kernel, w, {}).tolist() == [2.0, 3.5]
    assert scalar.run_field(plain, w, {}).tolist() == [1.5, 3.5, 2.0, -1.0]


def _at(x, y):
    return {"x": x, "y": y, "z": 0.0}


@PROPERTY_SETTINGS
@given(trees(negative=True), points, st.fixed_dictionaries({n: st.floats(-2.0, 2.0)
                                                           for n in NAMES}))
@example(parse("x*y/(1 + x*x)").ast, _at(-0.8, -0.3), _at(1.3, -0.4))
@example(parse("sin(x)/(y - 3)").ast, _at(-0.7, 1.2), _at(-0.8, -0.2))
@example(parse("exp(x*y)/sqrt(2 + y*y)").ast, _at(-1.4, 1.9), _at(0.1, -1.5))
@example(parse("log(2 + x)*tan(0.3*y)").ast, _at(-1.2, 1.2), _at(-1.2, -1.7))
@example(parse("(x - y)^-2 + x/y").ast, _at(1.3, -0.9), _at(-1.1, 0.6))
def test_property_first_derivatives_come_from_one_sweep(tree, point, u):
    # d/di of a jet along u and the tangent of a tangent kernel at the state
    # (point, u) are one sweep over the same value statements, bit for bit;
    # the examples are points where two chain rules for a quotient or a log,
    # each exact to rounding, differ in the last bit
    prog = program(tree)
    d_u = engine(prog, point, u, {})[1]
    kernel = scalar.field_kernel((prog,), NAMES, None, (), _value_algebra, tangent=True)
    value, tangent = scalar.run_field(kernel, [point[n] for n in NAMES] + [u[n] for n in NAMES], {})
    assert float(tangent).hex() == d_u.hex()


def _bench_inputs():
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_kernel_computes_a_statement_twice():
    # every sweep of a kernel finds the statements of the sweeps before it
    # in one memo: over the joint, frame, bracket and curvature kernels of
    # the catalog defaults' lifts, their force kernels, and the frame,
    # bracket and curvature kernels of random generic pairs, no two
    # statements of a scalar kernel have one right-hand side (a lift's frame
    # kernel may have none: perturbed_pair's [V | XV] is constant)
    inputs = _bench_inputs()
    pairs = [inputs.build_pair(op["spec"]) for op in inputs.crosscheck_cycle(1)]
    scalar._TABLE.clear()               # kernels not yet called keep their sources
    kernel = lambda pr, algebra, tangent=False: pair_mod._pair_kernel(pr, algebra, tangent)
    frames, kernels = [], []
    for pr in [pair_mod.lift_sode(catalog.build(name)[0]) for name in catalog.ENTRIES] + pairs:
        frames.append(kernel(pr, pair_mod._frame_algebra))
        kernels += [kernel(pr, pair_mod._bracket_algebra),
                    kernel(pr, pair_mod._bracket_algebra, pair_mod._curvature_algebra)]
        if pr.sode is not None:
            kernels += [kernel(pr, pair_mod._rhs_algebra), pair_mod._force_kernel(pr.sode)]
    assert len(frames) == 11 and len(kernels) == 32
    for k in frames + kernels:
        statements = re.findall(r"^ +t\d+ = (.*)$", k._sources["_scalar"], re.M)
        assert len(set(statements)) == len(statements)
        assert statements or k in frames
