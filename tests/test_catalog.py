import math

import numpy as np
import pytest

from conjscope import catalog, pair as pm, scalar
from conjscope.errors import MissingParam, UnknownEntry

from conftest import force_bindings, split_and_project


def test_entry_names():
    assert catalog.entry_names() == [
        "dancing", "harmonic", "mechanical", "perturbed_pair", "sphere_spray"]


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        catalog.build("nope")


def test_unknown_param_rejected():
    with pytest.raises(ValueError):
        catalog.build("harmonic", {"omgea": 2.0})


def test_missing_param_error():
    entry = catalog.CatalogEntry(
        name="stub", description="", defaults={"k": None}, default_x0=(0,),
        default_T=1.0, builder=lambda p: (None, None))
    with pytest.raises(MissingParam):
        entry.build()


def test_harmonic_build_scales_force():
    model, sigma = catalog.build("harmonic", {"omega": 2.0})
    assert sigma is None
    env = force_bindings(model, 0.0, [0.7], [0.0])
    assert scalar.evaluate(model.F[0], env) == -4 * 0.7


def test_perturbed_pair_zero_eps_identity_curvature():
    model, _ = catalog.build("perturbed_pair", {"eps": 0.0})
    rng = np.random.default_rng(1)
    for _ in range(5):
        x, y = rng.uniform(-2, 2, size=(2, 2))
        K = pm.sode_curvature(model, 0.0, x, y)
        assert np.allclose(K, np.eye(2), atol=1e-14)


def test_dancing_zero_force_zero_curvature():
    model, _ = catalog.build("dancing", {"F": "0"})
    rng = np.random.default_rng(2)
    for _ in range(20):
        x1, x2, y2 = rng.uniform(-2, 2, size=3)
        y1 = x2 + np.sign(rng.standard_normal()) * rng.uniform(0.2, 2.0)
        K = pm.sode_curvature(model, 0.0, [x1, x2], [y1, y2])
        assert np.max(np.abs(K)) <= 1e-8


def test_dancing_closed_form_random_points():
    for F in ("0", "sin(x1)", "x1*y1"):
        model, _ = catalog.build("dancing", {"F": F})
        rng = np.random.default_rng(33)
        for _ in range(100):
            t = rng.uniform(0, 3)
            x1, x2, y2 = rng.uniform(-2, 2, size=3)
            y1 = x2 + np.sign(rng.standard_normal()) * rng.uniform(0.1, 2.0)
            K = pm.sode_curvature(model, t, [x1, x2], [y1, y2])
            K_cf, chi1, chi2 = catalog.dancing_curvature_closed_form(F, t, x1, x2, y1, y2)
            assert np.max(np.abs(K - K_cf)) < 1e-6
            assert abs(K[0, 0] - chi1) < 1e-6 and abs(K[1, 1] - chi2) < 1e-6
            assert abs(K[0, 1]) < 1e-12


def test_dancing_eigenvector_fields_are_parallel():
    # covariant derivative of d/dy2 along X is -(F - 4 y2)/(2 (y1 - x2)) d/dy2
    model, _ = catalog.build("dancing", {"F": "sin(x1)"})
    pr = pm.lift_sode(model)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x1, x2, y2 = rng.uniform(-1.5, 1.5, size=3)
        y1 = x2 + np.sign(rng.standard_normal()) * rng.uniform(0.2, 2.0)
        x = [x1, x2, y1, y2]
        sp = split_and_project(pr, x)
        data = sp["data"]
        # vertical coordinates of [X, V_j] are H1[:, j] / 2
        coeffs = 0.5 * data.H1
        env = force_bindings(model, 0.0, [x1, x2], [y1, y2])
        Fv = scalar.evaluate(model.F[0], env)
        mu = -0.5 * (Fv - 4 * y2) / (y1 - x2)
        assert abs(coeffs[1, 1] - mu) < 1e-6
        assert abs(coeffs[0, 1]) < 1e-10


def test_dancing_guard():
    entry = catalog.ENTRIES["dancing"]
    with pytest.raises(ValueError):
        entry.check_x0([0.0, 0.5, 0.52, 0.1])
    entry.check_x0([0.0, 0.5, 1.5, 0.1])


def test_sphere_guard():
    entry = catalog.ENTRIES["sphere_spray"]
    with pytest.raises(ValueError):
        entry.check_x0([0.05, 0.0, 0.0, 1.0])
    entry.check_x0([math.pi / 2, 0.0, 0.0, 1.0])


def test_mechanical_closed_form_random_points():
    params = {"g11": 1.5, "g12": 0.2, "g22": 1.0,
              "k1": 1.2, "k2": 0.8, "c": 0.15, "quart": 0.4, "a": 0.3}
    model, _ = catalog.build("mechanical", params)
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = rng.uniform(-1.5, 1.5, size=2)
        v = rng.uniform(-1.5, 1.5, size=2)
        K = pm.sode_curvature(model, 0.0, q, v)
        K_cf = catalog.mechanical_curvature_closed_form(params, q)
        assert np.max(np.abs(K - K_cf)) < 1e-7


def test_oracle_zero_eps():
    orc = catalog.perturbed_pair_oracle(0.0, 7.0)
    assert [(round(t, 12), m) for t, m in orc["times"]] == [
        (round(math.pi, 12), 2), (round(2 * math.pi, 12), 2)]
    assert orc["min_envelope"] < 1e-9


def test_oracle_nonzero_eps_no_times():
    orc = catalog.perturbed_pair_oracle(0.05, 3 * math.pi)
    assert orc["times"] == []
    assert orc["min_envelope"] > 0.01


def test_oracle_claim2_values():
    orc = catalog.perturbed_pair_oracle(0.1, 10.0)
    assert orc["f1"](math.pi) == -math.pi / 2
    assert orc["f1"](2 * math.pi) == math.pi
    assert orc["f0"](math.pi) == math.sin(math.pi)


def test_oracle_envelope_matches_series_expansion():
    # |sin(w t)/w| at small t behaves like t
    orc = catalog.perturbed_pair_oracle(0.05, 5.0)
    for t in (1e-4, 1e-3):
        assert abs(orc["envelope"](t) - t) < 1e-6 * t + 1e-12


def test_known_facts_have_provenance_and_tolerance():
    for name in catalog.entry_names():
        for fact in catalog.known_facts(name):
            assert fact["provenance"]
            assert fact["tol"] > 0


def test_sphere_non_unit_speed_scaling():
    # along the equator at speed s the transverse curvature eigenvalue is s^2
    # and the first conjugate time is pi / s
    import warnings
    from conjscope import analysis
    model, _ = catalog.build("sphere_spray")
    s = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(math.pi / 2, 0.0, 0.0, s), T=7.0)
    for K in res.K_track[:: max(1, len(res.K_track) // 16)]:
        eig = np.sort(np.linalg.eigvals(K).real)
        assert np.max(np.abs(eig - [0.0, s**2])) < 1e-6
    times = [c["t"] for c in res.report["conjugate_times"]]
    assert times and abs(times[0] - math.pi / s) < 1e-5


def test_dancing_time_dependent_force():
    # t-dependent force lifts to the 5-dimensional extended space
    F = "0.4*cos(t) - x1"
    model, _ = catalog.build("dancing", {"F": F})
    assert not model.autonomous
    rng = np.random.default_rng(9)
    for _ in range(25):
        t = rng.uniform(0, 3)
        x1, x2, y2 = rng.uniform(-1.5, 1.5, size=3)
        y1 = x2 + np.sign(rng.standard_normal()) * rng.uniform(0.2, 2.0)
        K = pm.sode_curvature(model, t, [x1, x2], [y1, y2])
        K_cf, _, _ = catalog.dancing_curvature_closed_form(F, t, x1, x2, y1, y2)
        assert np.max(np.abs(K - K_cf)) < 1e-10

    import warnings
    from conjscope import analysis, jacobi
    x0, T = (0.3, -2.0, 0.8, 0.1), 4.5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=x0, T=T)
        oracle = jacobi.variational_oracle(model, x0, T)
    a = [(c["t"], c["multiplicity"]) for c in res.report["conjugate_times"]]
    b = [(c.t_star, c.multiplicity) for c in oracle]
    assert len(a) == len(b)
    for (ta, ma), (tb, mb) in zip(a, b):
        assert abs(ta - tb) < 1e-6 and ma == mb
    for line in res.report["bounds"]["eigenlines"]:
        for z in line["sturm_zeros"]:
            assert min((abs(z - t) for t, _ in a), default=1.0) < 1e-6
