import math

import numpy as np

from conjscope import bounds, catalog, ode


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
