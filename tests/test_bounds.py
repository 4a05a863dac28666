import math
import warnings

import numpy as np
import pytest

from conjscope import analysis, bounds, catalog, ode, pair as pm
from conjscope.errors import NonFiniteState


def _const_samples(K, n=50, T=10.0):
    ts = np.linspace(0, T, n)
    return [np.asarray(K, dtype=float)] * n, ts


def test_safe_interval_harmonic():
    Ks, ts = _const_samples([[1.0]])
    lam, t_c = bounds.theorem_safe_interval(Ks, 10.0)
    assert lam == 1.0
    assert abs(t_c - math.pi) < 1e-12


def test_safe_interval_negative_curvature():
    Ks, ts = _const_samples([[-1.0]])
    lam, t_c = bounds.theorem_safe_interval(Ks, 10.0)
    assert lam == -1.0 and t_c == 10.0


def test_safe_interval_skew_part_ignored():
    eps = 0.3
    Ks, ts = _const_samples([[1.0, eps], [-eps, 1.0]])
    lam, t_c = bounds.theorem_safe_interval(Ks, 10.0)
    assert abs(lam - 1.0) < 1e-12
    assert abs(t_c - math.pi) < 1e-12


def test_trace_bound_scalar():
    Ks, ts = _const_samples([[4.0]])
    T_star, kappa, res, reason = bounds.theorem_trace_bound(Ks, 1, 10.0)
    assert abs(T_star - math.pi / 2) < 1e-12
    assert kappa == 4.0 and res == 0.0


def test_trace_bound_identity_2d():
    Ks, ts = _const_samples(np.eye(2))
    T_star, *_ = bounds.theorem_trace_bound(Ks, 2, 10.0)
    assert abs(T_star - math.pi * math.sqrt(2 / 2.0)) < 1e-12
    # the first detected time pi respects the bound
    assert math.pi <= T_star + 1e-6


def test_trace_bound_refused_for_nonsymmetric():
    eps = 0.3
    Ks, ts = _const_samples([[1.0, eps], [-eps, 1.0]])
    T_star, kappa, res, reason = bounds.theorem_trace_bound(Ks, 2, 10.0)
    assert T_star is None
    assert "symmetric" in reason
    assert res > 0.1


def test_eigenlines_constant_diagonalizable():
    K = np.array([[2.0, 1.0], [0.0, 0.5]])
    lines = bounds.detect_parallel_eigenlines([K] * 20)
    assert len(lines) == 2
    kappas = sorted(float(np.min(tr)) for _, tr in lines)
    assert np.allclose(kappas, [0.5, 2.0])


def test_eigenlines_complex_spectrum_rejected():
    eps = 0.2
    K = np.array([[1.0, eps], [-eps, 1.0]])
    assert bounds.detect_parallel_eigenlines([K] * 10) == []


def test_eigenlines_require_constancy():
    K0 = np.diag([1.0, 2.0])
    Kt = np.array([[1.0, 0.5], [0.5, 2.0]])
    lines = bounds.detect_parallel_eigenlines([K0, K0, Kt])
    assert lines == []


def test_sturm_zeros_constant():
    ts = np.linspace(0, 7, 100)
    zeros = bounds.sturm_zeros(ts, np.ones_like(ts), 7.0)
    assert len(zeros) == 2
    assert abs(zeros[0] - math.pi) < 1e-8
    assert abs(zeros[1] - 2 * math.pi) < 1e-8


def test_sturm_zeros_search_sign_changes_only(monkeypatch):
    # y(0) = 0 and every later zero of y is a sign change: no minimum search
    calls = []
    refine = ode.refine_minimum
    monkeypatch.setattr(ode, "refine_minimum",
                        lambda *args, **kwargs: calls.append(args) or refine(*args, **kwargs))
    ts = np.linspace(0.0, 7.0, 40)
    zeros = bounds.sturm_zeros(ts, np.ones_like(ts), 7.0)
    assert len(zeros) == 2
    assert calls == []


def test_sturm_zero_before_bound_for_large_track():
    ts = np.linspace(0, 2, 200)
    track = 4.0 + np.sin(5 * ts) ** 2          # >= 4
    zeros = bounds.sturm_zeros(ts, track, 2.0)
    assert zeros and zeros[0] <= math.pi / 2 + 1e-9


def test_dancing_sturm_zeros_match_detected_times():
    import warnings
    from conjscope import analysis
    model, _ = catalog.build("dancing", {"F": "sin(x1)"})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(2.5, -2.0, 0.6, 0.1), T=6.0)
    detected = [c["t"] for c in res.report["conjugate_times"]]
    zeros = [z for line in res.report["bounds"]["eigenlines"] for z in line["sturm_zeros"]]
    assert len(zeros) == len(detected) >= 1
    for z in sorted(zeros):
        assert min(abs(z - t) for t in detected) < 1e-6
    assert res.report["bounds"]["verdicts"]["sturm_bound"] == "consistent"


def test_lambda_max_invariant_under_orthogonal_frame_change():
    rng = np.random.default_rng(8)
    Ks = [rng.normal(size=(3, 3)) for _ in range(7)]
    lam, _ = bounds.theorem_safe_interval(Ks, 5.0)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    Ks_rot = [Q.T @ K @ Q for K in Ks]
    lam_rot, _ = bounds.theorem_safe_interval(Ks_rot, 5.0)
    assert abs(lam - lam_rot) < 1e-10


def test_bounds_report_verdicts_consistent_for_harmonic():
    Ks, ts = _const_samples([[1.0]], n=40, T=7.0)
    rep = bounds.bounds_report(Ks, ts, 1, 7.0, [(math.pi, 1), (2 * math.pi, 1)])
    assert rep.verdicts["max_eig_bound"] == "consistent"
    assert rep.verdicts["trace_bound"] == "consistent"
    assert rep.verdicts["sturm_bound"] == "consistent"
    assert abs(rep.safe_interval[1] - math.pi) < 1e-12


def test_bounds_report_flags_violation():
    # a fabricated detection inside the safe interval must be flagged
    Ks, ts = _const_samples([[1.0]], n=40, T=7.0)
    rep = bounds.bounds_report(Ks, ts, 1, 7.0, [(1.0, 1)])
    assert rep.verdicts["max_eig_bound"] == "violated"


def _random_track(seed=3, n=30, m=3):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(m, m)) for _ in range(n)]


def test_bounds_take_a_list_or_a_stacked_array():
    # random samples sharing the eigenline e1, random symmetric samples and
    # a constant diagonal track
    Ks = []
    for K in _random_track():
        K[1:, 0] = 0.0
        Ks.append(K)
    sym = [K + K.T for K in _random_track(seed=4)]
    for samples in (Ks, sym, _const_samples(np.diag([1.0, 2.0]))[0]):
        stacked = np.array(samples)
        for fn, args in ((bounds.theorem_safe_interval, (5.0,)),
                         (bounds.theorem_trace_bound, (3, 5.0)),
                         (bounds.symmetry_residual, ())):
            assert fn(samples, *args) == fn(stacked, *args)
        listed = bounds.detect_parallel_eigenlines(samples)
        batched = bounds.detect_parallel_eigenlines(stacked)
        assert len(listed) == len(batched)
        for (e1, tr1), (e2, tr2) in zip(listed, batched):
            assert np.array_equal(e1, e2) and np.array_equal(tr1, tr2)


def test_eigenline_track_is_the_pointwise_quadratic_form():
    Ks = []
    for K in _random_track(seed=6, n=200):
        K[1:, 0] = 0.0
        Ks.append(K)
    (e, track), = [line for line in bounds.detect_parallel_eigenlines(Ks)
                   if abs(line[0][0]) == 1.0]
    assert np.array_equal(track, [e @ K @ e for K in Ks])


def test_eigenlines_reject_a_direction_failing_only_at_the_last_sample():
    K0 = np.diag([1.0, 2.0])
    Kt = np.array([[1.0, 0.5], [0.5, 2.0]])
    assert len(bounds.detect_parallel_eigenlines([K0] * 10)) == 2
    assert bounds.detect_parallel_eigenlines([K0] * 9 + [Kt]) == []
    assert bounds.detect_parallel_eigenlines(np.array([K0] * 9 + [Kt])) == []


def test_equal_tracks_share_one_sturm_solve(monkeypatch):
    calls = []
    solve = bounds.sturm_zeros
    monkeypatch.setattr(bounds, "sturm_zeros",
                        lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
    Ks, ts = _const_samples(np.eye(2), n=40, T=7.0)
    rep = bounds.bounds_report(Ks, ts, 2, 7.0, [(math.pi, 2), (2 * math.pi, 2)])
    assert len(rep.eigenline_tracks) == 2 and len(calls) == 1
    assert rep.eigenline_tracks[0].sturm_zeros == rep.eigenline_tracks[1].sturm_zeros
    assert rep.verdicts["sturm_bound"] == "consistent"
    Ks, ts = _const_samples(np.diag([1.0, 4.0]), n=40, T=7.0)
    rep = bounds.bounds_report(Ks, ts, 2, 7.0, [(math.pi / 2, 1), (math.pi, 2), (1.5 * math.pi, 1),
                                               (2 * math.pi, 2)])
    assert len(calls) == 3
    assert [len(tr.sturm_zeros) for tr in rep.eigenline_tracks] == [2, 4]


def test_sturm_verdict_counts_multiplicity():
    # x1'' = 4 x1, x2'' = -x2: two parallel eigenlines span the frame and only
    # the second vanishes, at k pi, so every conjugate time is simple
    model = pm.SODEModel(m=2, F=("4*x1", "-x2"), autonomous=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(0.1, 0.2, 0.3, 0.4), T=12.0)
    assert [c.multiplicity for c in res.conjugate_times] == [1, 1, 1]
    assert res.report["bounds"]["verdicts"]["sturm_bound"] == "consistent"
    # the multiplicities a rank cut scaled by the largest singular value on
    # the grid reads there: pi counted twice
    doubled = [(c.t_star, 2 if k == 0 else 1) for k, c in enumerate(res.conjugate_times)]
    rep = bounds.bounds_report(res.K_track, res.grid, 2, 12.0, doubled)
    assert rep.verdicts["sturm_bound"] == "violated"
    # a time no line vanishes at is flagged too, and so is a missing one
    spurious = [(1.0, 1)] + [(c.t_star, 1) for c in res.conjugate_times]
    assert bounds.bounds_report(res.K_track, res.grid, 2, 12.0, spurious) \
        .verdicts["sturm_bound"] == "violated"
    missing = [(c.t_star, 1) for c in res.conjugate_times[1:]]
    assert bounds.bounds_report(res.K_track, res.grid, 2, 12.0, missing) \
        .verdicts["sturm_bound"] == "violated"


def test_sturm_verdict_ignores_multiplicity_when_lines_do_not_span():
    # one eigenline of a 2 x 2 curvature with a complex pair elsewhere: the
    # Jacobi equation does not decouple, so only the zeros are compared
    K = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, -1.0, 2.0]])
    Ks, ts = _const_samples(K, n=40, T=7.0)
    rep = bounds.bounds_report(Ks, ts, 3, 7.0, [(1.0, 1), (math.pi, 3), (2 * math.pi, 1)])
    assert len(rep.eigenline_tracks) == 1
    assert rep.verdicts["sturm_bound"] == "consistent"


def test_sturm_verdict_counts_a_zero_at_the_horizon():
    # detection counts a touch at the last grid point: y = sin t vanishes at
    # T = 3 pi without a sign change on the solve's grid, and the line zero
    # there is reported, once
    Ks, ts = _const_samples(np.eye(2), n=60, T=3 * math.pi)
    rep = bounds.bounds_report(Ks, ts, 2, 3 * math.pi,
                               [(k * math.pi, 2) for k in (1, 2, 3)])
    assert [len(tr.sturm_zeros) for tr in rep.eigenline_tracks] == [3, 3]
    assert abs(rep.eigenline_tracks[0].sturm_zeros[-1] - 3 * math.pi) <= bounds.VERDICT_SLACK
    assert rep.verdicts["sturm_bound"] == "consistent"


def test_sturm_zeros_match_the_airy_zeros():
    # y'' = -(1 + t/2) y: with z = -2^(-1/3) (t + 2), y = Bi(z0) Ai(z) - Ai(z0) Bi(z)
    from scipy.optimize import brentq
    from scipy.special import airy

    def exact(t):
        ai, _, bi, _ = airy(-2.0 ** (-1.0 / 3.0) * (t + 2.0))
        return bi0 * ai - ai0 * bi

    ai0, _, bi0, _ = airy(-2.0 ** (2.0 / 3.0))
    fine = np.linspace(0.0, 12.0, 4001)
    values = exact(fine)
    roots = [brentq(exact, a, b, xtol=1e-15, rtol=1e-15)
             for a, b, fa, fb in zip(fine[1:-1], fine[2:], values[1:-1], values[2:]) if fa * fb < 0]
    ts = np.linspace(0.0, 12.0, 800)
    zeros = bounds.sturm_zeros(ts, 1.0 + ts / 2.0, 12.0)
    assert len(roots) == len(zeros) == 7
    # 3.6e-15 measured
    assert all(abs(z - r) <= 1e-14 for z, r in zip(zeros, roots))


@pytest.mark.parametrize("lam, T, n", [(400.0, 2.0, 20), (2500.0, 2.0, 20), (1e4, 1.0, 30)])
def test_sturm_zeros_of_a_fast_oscillation_on_a_coarse_grid(lam, T, n):
    # many zeros per sample interval: every k pi / sqrt(lam) is found
    ts = np.linspace(0.0, T, n)
    zeros = bounds.sturm_zeros(ts, np.full(n, lam), T)
    exact = np.pi / np.sqrt(lam) * np.arange(1, int(T * np.sqrt(lam) / np.pi) + 1)
    assert len(zeros) == len(exact)
    # one spacing of floats at t = 2 (4.4e-16) measured
    assert np.max(np.abs(np.array(zeros) - exact)) <= 2e-15


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_sturm_zeros_none_without_positive_curvature(lam):
    # y = t and y = sinh t never vanish again, at T neither
    ts = np.linspace(0.0, 5.0, 40)
    assert bounds.sturm_zeros(ts, np.full(40, lam), 5.0) == []


def test_sturm_zeros_raise_on_an_overflowing_solution():
    # y = sinh(1000 t) / 1000 overflows before T = 1
    ts = np.linspace(0.0, 1.0, 30)
    with pytest.raises(NonFiniteState):
        bounds.sturm_zeros(ts, np.full(30, -1e6), 1.0)


def test_sturm_zeros_add_no_zero_short_of_the_horizon():
    # |y(T)| = sin(1e-3) is far above the slack times |y'(T)|
    T = 3 * math.pi - 1e-3
    ts = np.linspace(0.0, T, 60)
    zeros = bounds.sturm_zeros(ts, np.ones_like(ts), T)
    assert len(zeros) == 2
    assert all(abs(z - k * math.pi) < 1e-8 for z, k in zip(zeros, (1, 2)))


def test_refinement_finds_the_extrema_between_coarse_samples():
    # K(t) = diag(1 + sin 3t / 2, 2 - cos 2t): lambda_max = 3 at pi / 2 and
    # the first line's inf 1/2 at pi / 2 are missed by 13 samples 0.25 apart
    calls = []

    def K_at(t):
        calls.append(np.array(t))
        t = np.asarray(t, dtype=float)
        return np.stack([np.diag([1.0 + 0.5 * np.sin(3 * s), 2.0 - np.cos(2 * s)]) for s in t])

    ts = np.linspace(0.0, 3.0, 13)
    Ks = K_at(ts)
    calls.clear()
    coarse = bounds.bounds_report(Ks, ts, 2, 3.0, [])
    fine = bounds.bounds_report(Ks, ts, 2, 3.0, [], K_at=K_at)
    assert len(calls) == bounds.REFINE_ROUNDS
    # one call per round for the five figures (three, and a kappa per line)
    assert all(len(t) <= 5 * bounds.REFINE_POINTS for t in calls)
    assert abs(fine.lambda_max - 3.0) < 1e-5 < 1e-2 * abs(coarse.lambda_max - 3.0)
    assert abs(fine.safe_interval[1] - math.pi / math.sqrt(3.0)) < 1e-5
    kappas = [tr.kappa for tr in fine.eigenline_tracks]
    assert abs(min(kappas) - 0.5) < 1e-5 < 1e-2 * abs(min(tr.kappa for tr in coarse.eigenline_tracks) - 0.5)
    # refined figures are values K attains: never beyond the true extrema
    assert fine.lambda_max <= 3.0 and min(kappas) >= 0.5
    assert fine.trK_min <= coarse.trK_min and fine.lambda_max >= coarse.lambda_max


def _reference_minimum(q, ts, values, rounds=5, points=32):
    """Smallest value of q (an array of times -> one value per time) from
    the samples ``values`` on ``ts``: ``rounds`` rounds of ``points`` evenly
    spaced times across the two intervals next to the smallest so far."""
    i = int(np.argmin(values))
    t, v = ts[max(i - 1, 0):i + 2], values[max(i - 1, 0):i + 2]
    for _ in range(rounds):
        k = int(np.argmin(v))
        new = np.linspace(t[max(k - 1, 0)], t[min(k + 1, len(t) - 1)], points + 2)[1:-1]
        t, v = np.concatenate([t, new]), np.concatenate([v, q(new)])
        order = np.argsort(t)
        t, v = t[order], v[order]
    return float(np.min(v))


def _bench_inputs():
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _extrema_cases():
    model, _ = catalog.build("dancing")
    entry = catalog.ENTRIES["dancing"]
    yield model, entry.default_x0, entry.default_T
    inputs = _bench_inputs()
    for op in inputs.crosscheck_cycle(1):
        yield inputs.build_pair(op["spec"]), op["x0"], op["T"]


def test_refined_extrema_match_a_finer_local_reference():
    # lambda_max, trK_min and each kappa within 1e-8 of five rounds of 32
    # points; the raw extrema of a grid 48 points per step read 3.9e-7 off
    # on dancing
    sym_max = lambda Ks: np.linalg.eigvalsh(0.5 * (Ks + np.swapaxes(Ks, 1, 2)))[:, -1]
    for model, x0, T in _extrema_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = analysis.analyze(model, x0=x0, T=T)
        b = res.report["bounds"]
        K_at = res.transport.K_normal
        figures = [(b["lambda_max"], lambda Ks: -sym_max(Ks), -1.0),
                   (b["trK_min"], lambda Ks: np.trace(Ks, axis1=1, axis2=2), 1.0)]
        for line in b["eigenlines"]:
            e = np.array(line["direction"])
            figures.append((line["kappa"], lambda Ks, e=e: np.einsum("i,nij,j->n", e, Ks, e), 1.0))
        for value, f, sign in figures:
            ref = sign * _reference_minimum(lambda t: f(K_at(t)), res.grid, f(res.K_track))
            assert abs(value - ref) <= 1e-8 * abs(ref)


def test_sturm_zeros_match_detected_times_on_the_bench_dancing_fixtures():
    # the local quintic interpolant of the curvature samples
    # (``bounds._quintic``) keeps the Sturm zeros on the detected times
    # (2.3e-14 measured, on sin(x1), the one fixture with a conjugate time)
    entry = catalog.ENTRIES["dancing"]
    for force, x0 in _bench_inputs().DANCING_FIXTURES:
        model, _ = catalog.build("dancing", {"F": force})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = analysis.analyze(model, x0=x0, T=entry.default_T)
        detected = sorted(c.t_star for c in res.conjugate_times)
        zeros = sorted(z for tr in res.bounds.eigenline_tracks for z in tr.sturm_zeros)
        assert len(zeros) == len(detected)
        assert all(abs(z - t) <= 1e-13 for z, t in zip(zeros, detected))


def test_the_quintic_interpolant_reproduces_a_quintic():
    # on graded, uneven nodes the interpolant of a degree-5 polynomial is
    # that polynomial: its Taylor coefficients p_j about any time (nodes,
    # points between them) match the polynomial's, p_j h^j relative to its
    # values for h the widest node spacing (the order-j coefficient itself
    # carries rounding of the values over the six nodes' span to the j-th
    # power: 3.3e-10 relative at j = 5 here, 1e-15 at j = 1)
    rng = np.random.default_rng(5)
    u = np.linspace(0.0, 1.0, 30)
    ts = 4.0 * (u + 0.15 * np.sin(3.0 * u) * u * (1.0 - u)) ** 1.3
    poly = np.polynomial.Polynomial(rng.normal(size=6))
    taylor = bounds._quintic(ts, poly(ts))
    t = np.concatenate([ts[:-1], rng.uniform(ts[0], ts[-1], 200)])
    got = taylor(t)
    ref = np.array([poly.deriv(j)(t) / math.factorial(j) for j in range(6)])
    h = np.max(np.diff(ts)) ** np.arange(6)[:, None]
    assert np.max(np.abs(got - ref) * h) <= 1e-12 * np.max(np.abs(poly(ts)))
    assert np.max(np.abs(got[:2] - ref[:2])) <= 1e-12 * np.max(np.abs(ref[:2]))
    # constant past the ends
    ends = taylor(np.array([-1.0, ts[-1], 5.0]))
    assert np.all(ends[1:] == 0.0)
    assert np.allclose(ends[0], poly(np.array([ts[0], ts[-1], ts[-1]])), rtol=1e-13, atol=0)
