import cmath
import math

import numpy as np
import pytest

from conjscope import catalog, jacobi, ode, pair as pm
from conjscope.errors import EndpointNotZero

from conftest import jacobi_in_time


def test_scalar_harmonic_PQ():
    omega = 2.0
    js = jacobi_in_time(lambda t: np.array([[omega**2]]), 1, 5.0)
    for t in np.linspace(0.1, 5.0, 9):
        assert abs(js.P(t)[0, 0] - math.sin(omega * t) / omega) < 1e-8
        assert abs(js.Q(t)[0, 0] - math.cos(omega * t)) < 1e-8


def test_zero_curvature_linear_growth():
    js = jacobi_in_time(lambda t: np.zeros((2, 2)), 2, 3.0)
    for t in (0.5, 1.7, 3.0):
        assert np.allclose(js.P(t), t * np.eye(2), atol=1e-9)
        assert np.allclose(js.Q(t), np.eye(2), atol=1e-10)


def test_initial_conditions_exact():
    js = jacobi_in_time(lambda t: np.eye(2), 2, 1.0)
    assert np.array_equal(js.P(0.0), np.zeros((2, 2)))
    assert np.array_equal(js.Q(0.0), np.eye(2))


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
    # sign change, which keeps its bisected time
    det = lambda t: t - 1.0
    t_sign, = ode.locate_events(det, grid, det(grid))
    events = jacobi._rank_events(lambda t: abs(det(t)), np.abs(det(grid)), det, det(grid),
                                 grid, 1e-8, grid[1])
    assert events == [(t_sign, "sign_change")]


def test_harmonic_detection_refines_only_sigma_min_minima(monkeypatch):
    # m = 1: sigma_min = |det P|, so refining both would double the searches
    js = jacobi_in_time(lambda t: np.array([[1.0]]), 1, 7.0)
    grid = js.grid()
    sig = js.sigma_min(grid)
    last = len(grid) - 1
    expected = [(grid[i - 1], grid[min(i + 1, last)]) for i in range(1, last + 1)
                if sig[i] <= sig[i - 1] and sig[i] <= sig[min(i + 1, last)]]
    searched = []
    refine = ode.refine_minimum

    def spy(f, a, b, *args, **kwargs):
        searched.append((a, b))
        return refine(f, a, b, *args, **kwargs)

    monkeypatch.setattr(ode, "refine_minimum", spy)
    out = jacobi.find_conjugate_times(js)
    assert len(out) == 2
    assert searched == expected


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
            assert resid <= 1e-6 * np.linalg.norm(js.Q(c.t_star))


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
        P, Q = js.P(t), js.Q(t)
        drift = np.linalg.norm(P.T @ Q - Q.T @ P)
        assert drift < 1e-8 * max(1.0, np.linalg.norm(P) * np.linalg.norm(Q))


def test_PtQ_symmetry_for_time_varying_symmetric_K():
    def K(t):
        return np.array([[1.0 + 0.3 * math.sin(t), 0.2 * math.cos(t)],
                         [0.2 * math.cos(t), 0.8 - 0.1 * math.sin(2 * t)]])

    js = jacobi_in_time(K, 2, 6.0)
    for t in np.linspace(0.2, 6.0, 13):
        P, Q = js.P(t), js.Q(t)
        drift = np.linalg.norm(P.T @ Q - Q.T @ P)
        assert drift < 1e-8 * max(1.0, np.linalg.norm(P) * np.linalg.norm(Q))


def test_index_functional_zero_curvature():
    r = 2.0
    ts = np.linspace(0, r, 401)
    w = np.sin(np.pi * ts / r)
    val = jacobi.index_functional(lambda t: np.zeros((1, 1)), w, r)
    assert abs(val - np.pi**2 / (2 * r)) < 1e-6


def test_index_positive_before_first_conjugate_time():
    r = math.pi / 2
    ts = np.linspace(0, r, 301)
    w = np.sin(2 * ts)
    val = jacobi.index_functional(lambda t: np.eye(1), w, r)
    assert val > 0


def test_index_negative_section_exists_past_conjugate_time():
    r = 3 * math.pi / 2
    ts = np.linspace(0, r, 301)
    vals = []
    for k in (1, 2, 3):
        w = np.sin(k * np.pi * ts / r)
        vals.append(jacobi.index_functional(lambda t: np.eye(1), w, r))
    assert min(vals) < 0


def test_index_requires_vanishing_endpoints():
    ts = np.linspace(0, 1, 101)
    w = np.cos(np.pi * ts)
    with pytest.raises(EndpointNotZero):
        jacobi.index_functional(lambda t: np.zeros((1, 1)), w, 1.0)


def test_index_nonnegative_when_no_conjugate_time():
    # K = 1, r < pi: every admissible section has nonnegative index
    r = 2.5
    ts = np.linspace(0, r, 301)
    rng = np.random.default_rng(12)
    for _ in range(10):
        coeffs = rng.normal(size=3)
        w = sum(c * np.sin((k + 1) * np.pi * ts / r) for k, c in enumerate(coeffs))
        val = jacobi.index_functional(lambda t: np.eye(1), w, r)
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
    Q = js.Q(ts)
    fd = (js.P(ts + h) - js.P(ts - h)) / (2.0 * h)
    for Qi, fdi, t in zip(Q, fd, ts):
        scale = max(1.0, np.max(np.abs(Qi)))
        assert np.max(np.abs(Qi - fdi)) <= 1e-7 * scale
        assert np.max(np.abs(js.Q(t) - Qi)) <= 1e-13 * scale
