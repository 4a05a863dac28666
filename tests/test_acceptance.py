"""Acceptance suite: every criterion prints one PASS line when it holds.

Analyses are cached per fixture so criteria can share pipeline runs.
"""

import math
import warnings

import numpy as np
import pytest

from conjscope import analysis, bounds, catalog, jacobi, pair as pm, scalar
from conjscope import frames

from conftest import jacobi_in_time

TOL_TIME = 1e-6


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(name, params=None, x0=None, T=None):
        key = (name, tuple(sorted((params or {}).items())), tuple(x0 or ()), T)
        if key not in cache:
            model, sigma = catalog.build(name, params)
            entry = catalog.ENTRIES[name]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cache[key] = analysis.analyze(
                    model,
                    x0=list(x0) if x0 is not None else list(entry.default_x0),
                    T=T if T is not None else entry.default_T,
                    sigma=sigma,
                    system_name=name, params_used=params or {})
        return cache[key]

    return get


def _times(result):
    return [(c["t"], c["multiplicity"]) for c in result.report["conjugate_times"]]


def test_criterion_01_harmonic_first_time_and_safe_interval(runs):
    for omega in (0.5, 1.0, 3.0):
        res = runs("harmonic", {"omega": omega}, x0=(0.3, 0.7), T=7.0)
        times = _times(res)
        assert times, f"no conjugate time for omega={omega}"
        assert abs(times[0][0] - math.pi / omega) < TOL_TIME
        t_c = res.report["bounds"]["safe_interval"][1]
        assert abs(t_c - min(7.0, math.pi / omega)) < 1e-9
        assert res.report["bounds"]["verdicts"]["max_eig_bound"] == "consistent"
        assert times[0][0] >= t_c - TOL_TIME
    print("ACCEPTANCE 01 harmonic first conjugate time + safe interval: PASS")


def test_criterion_02_double_conjugate_times(runs):
    res = runs("perturbed_pair", {"eps": 0.0}, x0=(0.2, -0.1, 1.0, 0.4), T=7.0)
    times = _times(res)
    assert len(times) == 2
    for (t, mult), k in zip(times, (1, 2)):
        assert abs(t - k * math.pi) < TOL_TIME
        assert mult == 2
    print("ACCEPTANCE 02 skew family eps=0 double conjugate times k*pi: PASS")


def test_criterion_03_small_skew_removes_conjugate_times(runs):
    T = 3 * math.pi
    for eps in (0.01, 0.05, 0.1):
        res = runs("perturbed_pair", {"eps": eps}, x0=(0.2, -0.1, 1.0, 0.4), T=T)
        assert _times(res) == []
        dips = res.report["sigma_min_dips"]
        assert dips, "expected singular-value dips"
        min_dip = min(d["value"] for d in dips)
        assert min_dip > 0
        oracle = catalog.perturbed_pair_oracle(eps, T)
        assert abs(min_dip - oracle["min_envelope"]) < TOL_TIME
        assert oracle["f1"](math.pi) == -math.pi / 2
        assert oracle["f1"](2 * math.pi) == math.pi
    print("ACCEPTANCE 03 small skew coupling removes conjugate times; envelope matches oracle: PASS")


DANCING_FIXTURES = {
    "0": {"x0": (0.0, -2.0, 0.5, 0.1), "T": 6.0},
    "sin(x1)": {"x0": (2.5, -2.0, 0.6, 0.1), "T": 6.0},
    "x1*y1": {"x0": (0.0, -2.5, -0.5, 0.1), "T": 4.0},
}


def test_criterion_04_dancing_closed_form_and_sturm(runs):
    rng = np.random.default_rng(101)
    for F, fx in DANCING_FIXTURES.items():
        model, _ = catalog.build("dancing", {"F": F})
        for _ in range(100):
            t = rng.uniform(0, 3)
            x1, x2, y2 = rng.uniform(-2, 2, size=3)
            y1 = x2 + np.sign(rng.standard_normal()) * rng.uniform(0.1, 2.0)
            K = pm.sode_curvature(model, t, [x1, x2], [y1, y2])
            K_cf, _, _ = catalog.dancing_curvature_closed_form(F, t, x1, x2, y1, y2)
            assert np.max(np.abs(K - K_cf)) < 1e-6
            if F == "0":
                assert np.max(np.abs(K)) <= 1e-8

        res = runs("dancing", {"F": F}, x0=fx["x0"], T=fx["T"])
        detected = [t for t, _ in _times(res)]
        zeros = sorted(z for line in res.report["bounds"]["eigenlines"]
                       for z in line["sturm_zeros"])
        assert len(res.report["bounds"]["eigenlines"]) == 2, f"F={F}: expected 2 eigenlines"
        assert len(zeros) == len(detected), f"F={F}: {zeros} vs {detected}"
        for z, t in zip(zeros, sorted(detected)):
            assert abs(z - t) < TOL_TIME
    print("ACCEPTANCE 04 dancing closed-form curvature + Sturm zeros = detected times: PASS")


def test_criterion_05_sphere_spray(runs):
    for x0 in ((math.pi / 2, 0.0, 0.0, 1.0),
               (math.pi / 2, 0.0, math.sin(0.4), math.cos(0.4))):
        res = runs("sphere_spray", None, x0=x0, T=7.0)
        for K in res.K_track[:: max(1, len(res.K_track) // 64)]:
            eig = np.sort(np.linalg.eigvals(K).real)
            assert np.max(np.abs(eig - [0.0, 1.0])) < 1e-5
            assert abs(np.trace(K) - 1.0) < 1e-5
        times = _times(res)
        assert times and abs(times[0][0] - math.pi) < 1e-5
        assert times[0][0] <= math.pi + TOL_TIME
    model, _ = catalog.build("sphere_spray")
    oracle = jacobi.variational_oracle(model, [math.pi / 2, 0.0, 0.0, 1.0], 4.0)
    assert oracle and abs(oracle[0].t_star - math.pi) < 1e-5
    print("ACCEPTANCE 05 unit-sphere spray: eigenvalues {0,1}, first time pi: PASS")


def test_criterion_06_mechanical_closed_form():
    params = {"g11": 1.5, "g12": 0.2, "g22": 1.0,
              "k1": 1.2, "k2": 0.8, "c": 0.15, "quart": 0.4, "a": 0.3}
    model, _ = catalog.build("mechanical", params)
    rng = np.random.default_rng(6)
    for _ in range(50):
        q = rng.uniform(-1.5, 1.5, size=2)
        v = rng.uniform(-1.5, 1.5, size=2)
        K = pm.sode_curvature(model, 0.0, q, v)
        K_cf = catalog.mechanical_curvature_closed_form(params, q)
        assert np.max(np.abs(K - K_cf)) < 1e-7
    print("ACCEPTANCE 06 mechanical fixture matches closed-form curvature: PASS")


def test_criterion_07_oracle_equivalence(random_systems):
    cases = [(model, x0, 2.0) for model, x0 in random_systems]
    # deterministic nonempty coverage on top of the random tranche
    cases.append((catalog.build("harmonic", {"omega": 3.0})[0], (0.3, 0.7), 2.0))
    cases.append((catalog.build("perturbed_pair", {"eps": 0.0})[0],
                  (0.2, -0.1, 1.0, 0.4), 4.0))
    n_with_times = 0
    for model, x0, T in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = analysis.analyze(model, x0=x0, T=T)
            oracle = jacobi.variational_oracle(model, x0, T)
        a = [(c["t"], c["multiplicity"]) for c in res.report["conjugate_times"]]
        b = [(c.t_star, c.multiplicity) for c in oracle]
        assert len(a) == len(b), f"{a} vs {b} for {model.F}"
        for (ta, ma), (tb, mb) in zip(a, b):
            assert abs(ta - tb) < TOL_TIME
            assert ma == mb
        n_with_times += bool(a)
    assert n_with_times >= 2
    print(f"ACCEPTANCE 07 oracle equivalence on {len(cases)} systems "
          f"({n_with_times} with conjugate times): PASS")


def test_criterion_08_structural_invariants(runs):
    rng = np.random.default_rng(17)

    # frame covariance under constant invertible frame changes
    model = pm.SODEModel(m=2, F=("-x1 - 0.3*y2 + 0.2*x2*y1", "-1.3*x2 + 0.15*y1*y1"),
                         autonomous=True)
    pr = pm.lift_sode(model)
    x = np.array([0.4, -0.2, 0.6, 0.3])
    K = pm.curvature_at(pr, x)
    for _ in range(3):
        G = rng.normal(size=(2, 2)) + 2.5 * np.eye(2)
        cols = [tuple(scalar.linear_combination([pr.vframe[0][i], pr.vframe[1][i]], G[:, j])
                      for i in range(4)) for j in range(2)]
        pr_tw = pm.GenericPair(coords=pr.coords, X=pr.X, vframe=tuple(cols))
        K_tw = pm.curvature_frame(pr_tw, x)
        assert np.max(np.abs(K_tw - np.linalg.inv(G) @ K @ G)) < 1e-8
        assert np.max(np.abs(np.sort(np.linalg.eigvals(K_tw)) - np.sort(np.linalg.eigvals(K)))) < 1e-8

    # curvature equals the composition of the splitting morphisms
    for _ in range(5):
        xx = rng.uniform(-0.5, 0.5, size=4)
        sp = pm.split_and_project(pr, xx)
        assert np.max(np.abs(-sp["B"] @ sp["A"] - pm.curvature_at(pr, xx))) < 1e-8

    # transported frame: H1 vanishes, det G tracks the trace integral
    from scipy.integrate import simpson
    model2 = pm.SODEModel(m=2, F=("-x1 - 0.4*y1 + 0.2*y2", "-2*x2 - 0.3*y2"),
                          autonomous=True)
    pr2 = pm.lift_sode(model2)
    ft = frames.transport_normal_frame(pr2, [0.5, -0.3, 0.2, 0.4], 4.0)
    h = 1e-5
    for t in (0.9, 2.1, 3.4):
        H1 = pm.extract_H(pr2, ft.x(t)).H1
        dG = (ft.G(t + h) - ft.G(t - h)) / (2 * h)
        resid = np.linalg.norm(H1 @ ft.G(t) + 2 * dG) / max(
            np.linalg.norm(H1) * np.linalg.norm(ft.G(t)), 1.0)
        assert resid < 1e-7
    ts = np.linspace(0, 4.0, 801)
    trH1 = np.array([np.trace(pm.extract_H(pr2, ft.x(t)).H1) for t in ts])
    expected = np.exp(-0.5 * simpson(trH1, x=ts))
    assert abs(ft.det_G(4.0) - expected) < 1e-7 * abs(expected)

    # P^T Q symmetry for symmetric curvature input
    Ksym = np.array([[1.3, 0.4], [0.4, 0.6]])
    js = jacobi_in_time(lambda t: Ksym, 2, 6.0)
    for t in np.linspace(0.3, 6.0, 9):
        P, Q = js.P(t), js.Q(t)
        assert np.linalg.norm(P.T @ Q - Q.T @ P) < 1e-8 * max(
            1.0, np.linalg.norm(P) * np.linalg.norm(Q))

    # conjugate times do not depend on the transport seed
    pr3 = pm.lift_sode(pm.SODEModel(m=2, F=("-x1", "-x2"), autonomous=True))
    reference = None
    for _ in range(3):
        G0 = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        ft3 = frames.transport_normal_frame(pr3, [0.2, -0.1, 1.0, 0.4], 4.0, G0=G0)
        js3 = ft3.jacobi_solution
        times = [c.t_star for c in jacobi.find_conjugate_times(js3)]
        if reference is None:
            reference = times
        assert len(times) == len(reference)
        assert all(abs(a - b) < 1e-8 for a, b in zip(times, reference))
    print("ACCEPTANCE 08 structural invariant suite: PASS")


def test_criterion_09_theorem_soundness_sweep(runs, random_systems):
    reports = []
    for omega in (0.5, 1.0, 3.0):
        reports.append(runs("harmonic", {"omega": omega}, x0=(0.3, 0.7), T=7.0).report)
    for eps in (0.0, 0.01, 0.05, 0.1):
        reports.append(runs("perturbed_pair", {"eps": eps},
                            x0=(0.2, -0.1, 1.0, 0.4), T=3 * math.pi).report)
    for F, fx in DANCING_FIXTURES.items():
        reports.append(runs("dancing", {"F": F}, x0=fx["x0"], T=fx["T"]).report)
    reports.append(runs("sphere_spray", None, x0=(math.pi / 2, 0.0, 0.0, 1.0), T=7.0).report)
    reports.append(runs("mechanical", {"quart": 0.4, "c": 0.15}, x0=(0.4, -0.3, 0.1, 0.5),
                        T=7.0).report)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for model, x0 in random_systems:
            reports.append(analysis.analyze(model, x0=x0, T=2.0).report)

    for rep in reports:
        det = [c["t"] for c in rep["conjugate_times"]]
        t_c = rep["bounds"]["safe_interval"][1]
        assert all(t >= t_c - TOL_TIME for t in det), rep["system"]
        T_star = rep["bounds"]["trace_bound_time"]
        if T_star is not None:
            assert any(t <= T_star + TOL_TIME for t in det), rep["system"]
        for line in rep["bounds"]["eigenlines"]:
            for z in line["sturm_zeros"]:
                assert det and min(abs(z - t) for t in det) < TOL_TIME, rep["system"]
        zeros_all = sorted(z for line in rep["bounds"]["eigenlines"]
                           for z in line["sturm_zeros"])
        for i, z in enumerate(zeros_all):
            coincident = sum(1 for w in zeros_all if abs(w - z) < TOL_TIME)
            if coincident > 1:
                mults = [c["multiplicity"] for c in rep["conjugate_times"]
                         if abs(c["t"] - z) < TOL_TIME]
                assert mults and mults[0] >= coincident
        assert all(v != "violated" for v in rep["bounds"]["verdicts"].values()), rep["system"]
    print(f"ACCEPTANCE 09 theorem soundness sweep over {len(reports)} analyses: PASS")


def test_criterion_10_semi_hamiltonian_suite(runs):
    res = runs("mechanical", {"quart": 0.4, "c": 0.15}, x0=(0.4, -0.3, 0.1, 0.5),
               T=7.0)
    h = res.report["hamiltonian"]
    assert h["metric_symmetry_residual"] <= 1e-10
    assert h["selfadjoint_residual"] <= 1e-8
    assert h["horizontal_lagrangian_residual"] <= 1e-8
    assert h["metric_constancy_residual"] <= 1e-7
    assert h["lagrangian_residual"] <= 1e-10
    assert "curvature_not_selfadjoint" not in h["flags"]

    res2 = runs("perturbed_pair", {"eps": 0.05}, x0=(0.2, -0.1, 1.0, 0.4),
                T=2.0)
    h2 = res2.report["hamiltonian"]
    assert h2["selfadjoint_residual"] > 1e-3
    assert "curvature_not_selfadjoint" in h2["flags"]
    assert all(v != "violated" for v in res2.report["bounds"]["verdicts"].values())
    print("ACCEPTANCE 10 semi-Hamiltonian structure suite: PASS")
