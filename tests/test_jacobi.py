import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from conjscope import analysis, catalog, jacobi, ode, pair as pm, scalar
from conjscope.errors import ConjscopeError, RegularityViolation

from conftest import jacobi_Q, jacobi_in_time, linear_combination, rhs_structure


class EndpointNotZero(ConjscopeError):
    """Index-functional section does not vanish at an endpoint."""


def index_functional(K_normal, w, r, times=None):
    """Quadrature of the second-variation integrand over [0, r]: a reference
    for the index form, read by the tests below only.

    ``w`` is an (N, m) array of section samples on a uniform grid (or the grid
    ``times``), vanishing at both ends; derivatives come from a cubic spline
    through the samples; the metric is the identity of the normal frame."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if w.shape[0] == 1:
        w = w.T
    N = w.shape[0]
    ts = np.linspace(0.0, r, N) if times is None else np.asarray(times, dtype=float)
    w_max = float(np.max(np.abs(w))) or 1.0
    if np.linalg.norm(w[0]) > 1e-10 * w_max or np.linalg.norm(w[-1]) > 1e-10 * w_max:
        raise EndpointNotZero("section must vanish at both endpoints")
    spline = CubicSpline(ts, w, axis=0)
    dw = spline(ts, 1)
    integrand = np.empty(N)
    for i, t in enumerate(ts):
        K = np.asarray(K_normal(t), dtype=float)
        integrand[i] = dw[i] @ dw[i] - (K @ w[i]) @ w[i]
    return float(simpson(integrand, x=ts))


def test_scalar_harmonic_PQ():
    omega = 2.0
    js = jacobi_in_time(lambda t: np.array([[omega**2]]), 1, 5.0)
    for t in np.linspace(0.1, 5.0, 9):
        assert abs(js.P(t)[0, 0] - math.sin(omega * t) / omega) < 1e-8
        assert abs(jacobi_Q(js, t)[0, 0] - math.cos(omega * t)) < 1e-8


def test_zero_curvature_linear_growth():
    js = jacobi_in_time(lambda t: np.zeros((2, 2)), 2, 3.0)
    for t in (0.5, 1.7, 3.0):
        assert np.allclose(js.P(t), t * np.eye(2), atol=1e-9)
        assert np.allclose(jacobi_Q(js, t), np.eye(2), atol=1e-10)


def test_initial_conditions_exact():
    js = jacobi_in_time(lambda t: np.eye(2), 2, 1.0)
    assert np.array_equal(js.P(0.0), np.zeros((2, 2)))
    assert np.array_equal(jacobi_Q(js, 0.0), np.eye(2))


def test_skew_block_matches_complex_closed_form():
    eps = 0.15
    K = np.array([[1.0, eps], [-eps, 1.0]])
    js = jacobi_in_time(lambda t: K, 2, 6.0)
    w = cmath.sqrt(1 - 1j * eps)
    for t in np.linspace(0.3, 6.0, 8):
        expected = abs(cmath.sin(w * t) / w)
        svals = np.linalg.svd(js.P(t), compute_uv=False)
        assert abs(svals[0] - expected) < 1e-8
        assert abs(svals[1] - expected) < 1e-8


def test_find_conjugate_times_scalar():
    js = jacobi_in_time(lambda t: np.array([[1.0]]), 1, 7.0)
    out = jacobi.find_conjugate_times(js)
    assert [(round(c.t_star, 6), c.multiplicity) for c in out] == [
        (round(math.pi, 6), 1), (round(2 * math.pi, 6), 1)]
    assert all(abs(c.t_star - k * math.pi) < 1e-6 for c, k in zip(out, (1, 2)))
    assert all(c.mode == "sign_change" for c in out)


def test_rank_events_touches_and_merge():
    grid = np.linspace(0, 2, 300)
    # a double root of the track is one touch; a positive minimum is none
    double = lambda t: (t - 1.0) ** 2
    events = jacobi._rank_events(double, double(grid), None, None, grid, 1e-10, grid[1])
    assert len(events) == 1
    t, mode = events[0]
    assert abs(t - 1.0) < 1e-6 and mode == "touch"
    lifted = lambda t: (t - 1.0) ** 2 + 0.01
    assert jacobi._rank_events(lifted, lifted(grid), None, None, grid, 1e-9, grid[1]) == []
    # the track's touch at a sign change of the companion merges into the
    # sign change, which keeps its refined time
    det = lambda t: t - 1.0
    t_sign, = ode.locate_events(det, grid, det(grid))
    events = jacobi._rank_events(lambda t: abs(det(t)), np.abs(det(grid)), det, det(grid),
                                 grid, 1e-8, grid[1])
    assert events == [(t_sign, "sign_change")]


def test_harmonic_detection_refines_each_crossing_once(monkeypatch):
    # m = 1: sigma_min = |det P|, so each crossing is both a sign change of
    # the determinant and a minimum of the track; the minima are found on the
    # detection grid, the solve's grid with DIP_POINTS / 2 points inside each
    # interval next to a dip of the track, and every one's bracket holds a
    # crossing, which the sign change refines alone
    js = jacobi_in_time(lambda t: np.array([[1.0]]), 1, 7.0)

    def minima(grid):
        sig = js.sigma_min(grid)
        last = len(grid) - 1
        return [i for i in range(1, last + 1)
                if sig[i] <= sig[i - 1] and sig[i] <= sig[min(i + 1, last)]]

    grid = js.grid()
    dips = minima(grid)
    assert [round(grid[i], 2) for i in dips] == [round(math.pi, 2), round(2 * math.pi, 2)]
    inside = [np.linspace(grid[j - 1], grid[j], ode.DIP_POINTS // 2 + 2)[1:-1]
              for i in dips for j in (i, i + 1)]
    fine = np.sort(np.concatenate([grid, *inside]))
    assert len(fine) == len(grid) + 2 * ode.DIP_POINTS
    last = len(fine) - 1
    holds_crossing = lambda a, b: any(a <= k * math.pi <= b for k in (1, 2))
    brackets = [(fine[i - 1], fine[min(i + 1, last)]) for i in minima(fine)]
    assert len(brackets) == 2 and all(holds_crossing(a, b) for a, b in brackets)
    searched = []
    refine = ode.refine_minimum

    def spy(f, a, b, *args, **kwargs):
        searched.extend(zip(a, b))
        return refine(f, a, b, *args, **kwargs)

    monkeypatch.setattr(ode, "refine_minimum", spy)
    out = jacobi.find_conjugate_times(js)
    assert not any(holds_crossing(a, b) for a, b in searched)
    assert [c.mode for c in out] == ["sign_change", "sign_change"]
    assert all(abs(c.t_star - k * math.pi) < 1e-6 for c, k in zip(out, (1, 2)))


def test_find_conjugate_times_double_touch():
    js = jacobi_in_time(lambda t: np.eye(2), 2, 7.0)
    out = jacobi.find_conjugate_times(js)
    assert len(out) == 2
    for c, k in zip(out, (1, 2)):
        assert abs(c.t_star - k * math.pi) < 1e-6
        assert c.multiplicity == 2
        assert c.mode == "touch"
        for kvec in c.kernel_basis:
            resid = np.linalg.norm(js.P(c.t_star) @ np.asarray(kvec))
            assert resid <= 1e-6 * np.linalg.norm(jacobi_Q(js, c.t_star))


def test_no_conjugate_times_for_skew_perturbation():
    K = np.array([[1.0, 0.05], [-0.05, 1.0]])
    js = jacobi_in_time(lambda t: K, 2, 3 * math.pi)
    assert jacobi.find_conjugate_times(js) == []


def test_sigma_min_positive_for_small_t():
    js = jacobi_in_time(lambda t: np.eye(2), 2, 1.0)
    for t in (1e-3, 0.1, 0.5):
        assert js.sigma_min(t) > 0


def test_P_and_sigma_min_sample_arrays_of_times():
    K = np.array([[1.3, 0.4], [0.4, 0.6]])
    js = jacobi_in_time(lambda t: K, 2, 6.0)
    ts = js.grid()
    P, sig = js.P(ts), js.sigma_min(ts)
    assert P.shape == (len(ts), 2, 2) and sig.shape == (len(ts),)
    for i in range(0, len(ts), 7):
        scale = 1e-13 * (1.0 + np.max(np.abs(js.P(ts[i]))))
        assert np.max(np.abs(P[i] - js.P(ts[i]))) < scale
        assert abs(sig[i] - js.sigma_min(ts[i])) < scale


def test_PtQ_symmetry_for_symmetric_K():
    K = np.array([[1.3, 0.4], [0.4, 0.6]])
    js = jacobi_in_time(lambda t: K, 2, 6.0)
    for t in np.linspace(0.2, 6.0, 13):
        P, Q = js.P(t), jacobi_Q(js, t)
        drift = np.linalg.norm(P.T @ Q - Q.T @ P)
        assert drift < 1e-8 * max(1.0, np.linalg.norm(P) * np.linalg.norm(Q))


def test_PtQ_symmetry_for_time_varying_symmetric_K():
    def K(t):
        return np.array([[1.0 + 0.3 * math.sin(t), 0.2 * math.cos(t)],
                         [0.2 * math.cos(t), 0.8 - 0.1 * math.sin(2 * t)]])

    js = jacobi_in_time(K, 2, 6.0)
    for t in np.linspace(0.2, 6.0, 13):
        P, Q = js.P(t), jacobi_Q(js, t)
        drift = np.linalg.norm(P.T @ Q - Q.T @ P)
        assert drift < 1e-8 * max(1.0, np.linalg.norm(P) * np.linalg.norm(Q))


def test_index_functional_zero_curvature():
    r = 2.0
    ts = np.linspace(0, r, 401)
    w = np.sin(np.pi * ts / r)
    val = index_functional(lambda t: np.zeros((1, 1)), w, r)
    assert abs(val - np.pi**2 / (2 * r)) < 1e-6


def test_index_positive_before_first_conjugate_time():
    r = math.pi / 2
    ts = np.linspace(0, r, 301)
    w = np.sin(2 * ts)
    val = index_functional(lambda t: np.eye(1), w, r)
    assert val > 0


def test_index_negative_section_exists_past_conjugate_time():
    r = 3 * math.pi / 2
    ts = np.linspace(0, r, 301)
    vals = []
    for k in (1, 2, 3):
        w = np.sin(k * np.pi * ts / r)
        vals.append(index_functional(lambda t: np.eye(1), w, r))
    assert min(vals) < 0


def test_index_requires_vanishing_endpoints():
    ts = np.linspace(0, 1, 101)
    w = np.cos(np.pi * ts)
    with pytest.raises(EndpointNotZero):
        index_functional(lambda t: np.zeros((1, 1)), w, 1.0)


def test_index_nonnegative_when_no_conjugate_time():
    # K = 1, r < pi: every admissible section has nonnegative index
    r = 2.5
    ts = np.linspace(0, r, 301)
    rng = np.random.default_rng(12)
    for _ in range(10):
        coeffs = rng.normal(size=3)
        w = sum(c * np.sin((k + 1) * np.pi * ts / r) for k, c in enumerate(coeffs))
        val = index_functional(lambda t: np.eye(1), w, r)
        assert val >= -1e-9 * max(1.0, np.max(np.abs(w))) ** 2


def test_scalar_lower_bound_forces_zero_before_pi_over_sqrt_kappa():
    lam = lambda t: 1.0 + 0.5 * math.sin(t) ** 2          # >= kappa = 1
    js = jacobi_in_time(lambda t: np.array([[lam(t)]]), 1, 4.0)
    out = jacobi.find_conjugate_times(js)
    assert out and out[0].t_star <= math.pi + 1e-6


def test_variational_oracle_harmonic():
    omega = 2.0
    model = pm.SODEModel(m=1, F=("-4*x1",), autonomous=True)
    out = jacobi.variational_oracle(model, [0.3, 0.7], 3.0)
    assert len(out) == 1
    assert abs(out[0].t_star - math.pi / omega) < 1e-6
    assert out[0].multiplicity == 1


def test_variational_oracle_double_times():
    model, _ = catalog.build("perturbed_pair", {"eps": 0.0})
    out = jacobi.variational_oracle(model, [0.2, -0.1, 1.0, 0.4], 7.0)
    assert [(round(c.t_star, 6), c.multiplicity) for c in out] == [
        (round(math.pi, 6), 2), (round(2 * math.pi, 6), 2)]


def test_variational_oracle_nonautonomous_lift():
    model = pm.SODEModel(m=1, F=("-x1 - 0.1*t*y1",))
    out = jacobi.variational_oracle(model, [0.5, 0.2], 4.0)
    ft_out = _pipeline_times(model, [0.5, 0.2], 4.0)
    assert len(out) == len(ft_out)
    for a, b in zip(out, ft_out):
        assert abs(a.t_star - b.t_star) < 1e-6


def test_variational_oracle_multiplicity_does_not_grow_with_the_horizon():
    # x1'' = 4 x1, x2'' = -x2: the pushed frame grows like cosh(2t) while
    # V(c(t)) stays fixed; only the x2 direction returns to V, at k pi
    model = pm.SODEModel(m=2, F=("4*x1", "-x2"), autonomous=True)
    for T in (7.0, 10.0, 14.0):
        out = jacobi.variational_oracle(model, (0.1, 0.2, 0.3, 0.4), T)
        assert len(out) == int(T / math.pi)
        for k, c in enumerate(out, start=1):
            assert abs(c.t_star - k * math.pi) < 1e-9
            assert c.multiplicity == len(c.kernel_basis) == 1
            assert abs(abs(c.kernel_basis[0][1]) - 1.0) < 1e-9


def _both_routes(model, x0, T):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=x0, T=T)
        return res, jacobi.variational_oracle(model, x0, T)


@pytest.mark.parametrize("T", [7.0, 12.0, 16.0, 20.0])
def test_multiplicity_does_not_grow_with_the_horizon_on_either_route(T):
    # x1'' = 4 x1, x2'' = -x2: P = diag(sinh(2t)/2, sin t), so every k pi is
    # simple however far the hyperbolic column has grown; a rank cut scaled
    # by the largest singular value on the grid reads 2 at pi from T = 12 on
    model = pm.SODEModel(m=2, F=("4*x1", "-x2"), autonomous=True)
    res, oracle = _both_routes(model, (0.1, 0.2, 0.3, 0.4), T)
    for found in (res.conjugate_times, oracle):
        assert len(found) == int(T / math.pi)
        for k, c in enumerate(found, start=1):
            assert abs(c.t_star - k * math.pi) < 1e-9
            assert c.multiplicity == len(c.kernel_basis) == 1
            assert np.allclose(c.kernel_basis[0], [0.0, 1.0], atol=1e-9)
    assert "violated" not in res.report["bounds"]["verdicts"].values()


# sqrt(lambda) in {1/2, 1, 3/2, 2}: the times k pi / sqrt(lambda) are multiples
# of pi / 6, so distinct times lie pi / 6 apart and none is near a horizon;
# growth e^(sqrt|lambda| T) stays within what the solve's tolerances resolve
SPECTRUM = (0.25, 1.0, 2.25, 4.0, -0.04, -0.25, -1.0)
MIXING = 0.3          # S = I + U(-0.3, 0.3): diagonally dominant, invertible


def _expected_times(lam, T):
    """{k pi / sqrt(l): number of (l, k) giving it} over the positive l."""
    counts = {}
    for l in lam:
        if l > 0:
            omega = Fraction(math.sqrt(l))
            for k in range(1, int(T * math.sqrt(l) / math.pi) + 1):
                counts[k / omega] = counts.get(k / omega, 0) + 1
    return [(float(r) * math.pi, mult) for r, mult in sorted(counts.items())]


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(lam=st.lists(st.sampled_from(SPECTRUM), min_size=2, max_size=3),
       mix=st.lists(st.floats(-MIXING, MIXING), min_size=9, max_size=9),
       T=st.sampled_from((7.0, 12.0, 20.0)))
@example(lam=[1.0, 1.0, -0.25], mix=[0.2, -0.1, 0.3, 0.0, 0.1, -0.3, 0.25, 0.05, -0.2], T=20.0)
@example(lam=[4.0, -1.0, 1.0], mix=[-0.3, 0.2, 0.1, 0.3, -0.2, 0.0, 0.1, 0.1, 0.3], T=20.0)
# times 1.6e-3 apart, closer than the grid spacing: detection resolves them
# by resampling around each dip, wherever the steps put the samples
@example(lam=[1.0, 1.001], mix=[0.2, -0.1, 0.3, 0.0, 0.1, -0.3, 0.25, 0.05, -0.2], T=4.0)
@example(lam=[1.0, 1.001], mix=[0.2, -0.1, 0.3, 0.0, 0.1, -0.3, 0.25, 0.05, -0.2], T=7.0)
def test_property_linear_systems_match_their_closed_form_times(lam, mix, T):
    # x'' = -A x with A = S diag(lambda) S^-1: conjugate times k pi / sqrt(l)
    # for every l > 0, multiplicity the number of (l, k) that coincide there
    m = len(lam)
    S = np.eye(m) + np.reshape(mix[:m * m], (m, m))
    A = S @ np.diag(lam) @ np.linalg.inv(S)
    xs = [scalar.var_expr(f"x{j+1}") for j in range(m)]
    model = pm.SODEModel(m=m, F=tuple(linear_combination(xs, -row) for row in A),
                         autonomous=True)
    res, oracle = _both_routes(model, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)[:2 * m], T)
    expected = _expected_times(lam, T)
    for found in (res.conjugate_times, oracle):
        assert [c.multiplicity for c in found] == [mult for _, mult in expected]
        for c, (t, _) in zip(found, expected):
            assert abs(c.t_star - t) < 1e-6        # 3.4e-8 seen with e^20 growth
    # the eigenlines of A span the frame, so the Sturm verdict counts multiplicity
    assert len(res.bounds.eigenline_tracks) == m
    assert "violated" not in res.report["bounds"]["verdicts"].values()


@pytest.mark.parametrize("T", [4.0, 7.0])
def test_close_pairs_separate_on_both_routes(T):
    # lambda = 1 and 1 + 1e-4 put the times 1.6e-4 k apart, a hundredth of
    # the grid spacing: the resampling around each dip must split every pair
    lam = [1.0, 1.0 + 1e-4]
    S = np.eye(2) + np.reshape([0.2, -0.1, 0.3, 0.0], (2, 2))
    A = S @ np.diag(lam) @ np.linalg.inv(S)
    xs = [scalar.var_expr(f"x{j+1}") for j in range(2)]
    model = pm.SODEModel(m=2, F=tuple(linear_combination(xs, -row) for row in A),
                         autonomous=True)
    res, oracle = _both_routes(model, (0.1, 0.2, 0.3, 0.4), T)
    expected = _expected_times(lam, T)
    assert len(expected) == 2 * int(T / math.pi)
    for found in (res.conjugate_times, oracle):
        assert [c.multiplicity for c in found] == [1] * len(expected)
        for c, (t, _) in zip(found, expected):
            assert abs(c.t_star - t) < 1e-6


@pytest.mark.parametrize("eps, T", [(1e-2, 4.0), (1e-2, 7.0), (1e-3, 4.0), (1e-3, 7.0),
                                    (1e-4, 4.0)])
def test_touch_next_to_a_crossing_is_found_on_both_routes(eps, T):
    # lambda = 1 twice and 1 + eps: a double touch at k pi and a crossing at
    # k pi / sqrt(1 + eps), 5e-5 k pi before it at eps = 1e-4; the touch's
    # minimum must be refined although a sign change lies so close
    lam = [1.0, 1.0, 1.0 + eps]
    S = np.eye(3) + np.reshape([0.2, -0.1, 0.3, 0.0, 0.1, -0.3, 0.25, 0.05, -0.2], (3, 3))
    A = S @ np.diag(lam) @ np.linalg.inv(S)
    xs = [scalar.var_expr(f"x{j+1}") for j in range(3)]
    model = pm.SODEModel(m=3, F=tuple(linear_combination(xs, -row) for row in A),
                         autonomous=True)
    res, oracle = _both_routes(model, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6), T)
    expected = _expected_times(lam, T)
    assert [mult for _, mult in expected] == [1, 2] * int(T / math.pi)
    for found in (res.conjugate_times, oracle):
        assert [(c.multiplicity, c.mode) for c in found] == [
            (mult, "sign_change" if mult == 1 else "touch") for _, mult in expected]
        for c, (t, _) in zip(found, expected):
            assert abs(c.t_star - t) < 1e-6


@pytest.mark.parametrize("name, bound", [
    ("harmonic", lambda t: 6.8e-13),
    ("sphere_spray", lambda t: 1.1e-12),
    # touches: the time is refined by multisection to refine_minimum's tolerance
    ("perturbed_pair", lambda t: 1e-12 * (1.0 + 2.0 * t)),
])
def test_catalog_defaults_match_their_closed_form_times(name, bound):
    # conjugate times at k pi on both routes, within the errors of the
    # earlier RK45 solve at 1e-11 / 1e-13, or of the touches' refinement
    entry = catalog.ENTRIES[name]
    model, _ = catalog.build(name)
    res, oracle = _both_routes(model, entry.default_x0, entry.default_T)
    for found in (res.conjugate_times, oracle):
        assert len(found) == int(entry.default_T / math.pi + 1e-9)
        for k, c in enumerate(found, start=1):
            assert abs(c.t_star - k * math.pi) <= bound(k * math.pi)


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_kernel_bases_have_a_positive_largest_entry(name):
    # the sign of a kernel vector is fixed, not left to the SVD
    entry = catalog.ENTRIES[name]
    model, _ = catalog.build(name)
    res, oracle = _both_routes(model, entry.default_x0, entry.default_T)
    vectors = [k for c in res.conjugate_times + oracle for k in c.kernel_basis]
    assert vectors
    for k in vectors:
        assert k[np.argmax(np.abs(k))] > 0.0
    for c in res.conjugate_times + oracle:
        basis = np.array(c.kernel_basis)
        assert np.allclose(basis @ basis.T, np.eye(c.multiplicity), atol=1e-14)


def test_variational_oracle_raises_R2_on_a_degenerate_frame():
    # V = X: [X, X] = 0, so [V | XV] loses rank at every point
    pr = pm.GenericPair(coords=("a", "b"), X=("b", "-a"), vframe=(("b", "-a"),))
    with pytest.raises(RegularityViolation) as info:
        jacobi.variational_oracle(pr, [0.6, 0.2], 3.0)
    assert info.value.cond == "R2"
    assert info.value.residual > pm.COND_LIMIT
    assert np.allclose(info.value.point, [0.6, 0.2])


def test_variational_oracle_solves_no_bracket_relation(monkeypatch):
    calls = []

    def recording(name):
        original = getattr(pm, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("extract_H", "brackets_at"):
        monkeypatch.setattr(pm, name, recording(name))
    model, _ = catalog.build("perturbed_pair")
    entry = catalog.ENTRIES["perturbed_pair"]
    out = jacobi.variational_oracle(model, entry.default_x0, entry.default_T)
    assert out and not calls


@pytest.mark.parametrize("model, x0", [
    (catalog.build("perturbed_pair", {"eps": 0.05})[0], [0.2, -0.1, 1.0, 0.4]),
    (pm.SODEModel(m=1, F=("-x1 - 0.1*t*y1",)), [0.5, 0.2]),
])
def test_variational_oracle_integrates_the_point_and_the_pushed_frame(monkeypatch, model, x0):
    # x' = X(x), W' = DX(x) W: n + n m states, not the n x n linearization
    sizes = []
    integrate = ode.integrate

    def recording(f, z0, *args, **kwargs):
        sizes.append(len(z0))
        return integrate(f, z0, *args, **kwargs)

    monkeypatch.setattr(ode, "integrate", recording)
    pr = pm.lift_sode(model)
    jacobi.variational_oracle(model, x0, 4.0)
    assert sizes == [pr.n + pr.n * pr.m]


# random second-order systems of the crosscheck kind, handed over as generic pairs
KERNEL_CASES = [
    (("-0.41*x1 + 0.063*x2 - 0.624*y1 - 0.633*y2 + 0.392*x2*y2 - 0.695*y2^2",
      "-0.245*x1 - 0.43*x2 - 0.317*y1 + 0.107*y2 - 0.679*x1*y1 - 0.597*x2*y1"),
     (0.2085, 0.6572, 0.911, 0.9856)),
    (("-0.929*x1 + 0.24*x2 + 0.874*x3 - 0.67*y1 - 0.242*y2 + 0.782*y3 + 0.403*x1*y1 + 0.694*x2*x3",
      "-0.642*x1 - 1.552*x2 - 0.023*x3 - 0.165*y1 - 0.302*y2 + 0.339*y3 + 0.719*y1*y2 + 0.391*x3*y3",
      "0.093*x1 + 0.279*x2 - 0.609*x3 + 0.28*y1 + 0.187*y2 - 0.834*y3 - 0.326*x1*y2 - 0.433*y2*y3"),
     (-0.3007, -0.4991, 0.6124, 0.4642, 0.504, -0.1465)),
    (("-0.911*x1 - 0.865*x2 - 0.954*y1 + 0.644*y2 - 0.904*x2*y2",
      "-0.519*x1 - 0.186*x2 + 0.465*y1 - 0.889*y2 - 0.913*x1*y1 + 0.412*x2*y2"),
     (-0.5232, 0.63, 0.7253, -0.5513)),
]


@pytest.mark.parametrize("F, x0", KERNEL_CASES)
def test_variational_oracle_kernel_spans_the_jacobi_kernel(F, x0):
    # both are coordinates in V(x0): the Jacobi route starts from G0 = I
    from conjscope import analysis
    pr = pm.lift_sode(pm.SODEModel(m=len(F), F=F, autonomous=True))
    generic = pm.GenericPair(coords=pr.coords, X=pr.X, vframe=pr.vframe)
    found = analysis.analyze(generic, x0=x0, T=6.0).conjugate_times
    oracle = jacobi.variational_oracle(generic, x0, 6.0)
    assert found and [c.multiplicity for c in found] == [c.multiplicity for c in oracle]
    for c, o in zip(found, oracle):
        basis = np.array(o.kernel_basis).T
        assert np.allclose(basis.T @ basis, np.eye(o.multiplicity), atol=1e-14)
        for k in c.kernel_basis:
            assert np.linalg.norm(k - basis @ (basis.T @ k)) <= 1e-11


def _pipeline_times(model, x0, T):
    from conjscope import analysis
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=x0, T=T)
    return res.conjugate_times


@pytest.mark.parametrize("name, params", [("dancing", {}), ("perturbed_pair", {"eps": 0.05}),
                                          ("sphere_spray", {})])
def test_Q_is_the_derivative_of_P(name, params):
    # Q = G^-1 (a + H1 b / 2) is read from the solve, not integrated
    from conjscope import frames
    model, _ = catalog.build(name, params)
    entry = catalog.ENTRIES[name]
    pr = pm.lift_sode(model)
    js = frames.transport_normal_frame(pr, pm.full_x0(model, pr, entry.default_x0),
                                       entry.default_T).jacobi_solution
    h = 1e-4
    ts = np.linspace(0.1, js.joint.T - 0.1, 41)
    Q = jacobi_Q(js, ts, lambda z: rhs_structure(pr, z)[2])
    fd = (js.P(ts + h) - js.P(ts - h)) / (2.0 * h)
    for Qi, fdi in zip(Q, fd):
        scale = max(1.0, np.max(np.abs(Qi)))
        assert np.max(np.abs(Qi - fdi)) <= 1e-7 * scale
