import math
import warnings

import numpy as np
import pytest

from conjscope import analysis, catalog, hamiltonian as ham, pair as pm
from conjscope.errors import DegenerateMetric


def _mechanical(a=0.0, quart=0.3, k1=1.2, k2=0.8, c=0.1):
    params = {"g11": 1.0, "g12": 0.0, "g22": 1.0,
              "k1": k1, "k2": k2, "c": c, "quart": quart, "a": a}
    model, sigma = catalog.build("mechanical", params)
    return model, sigma, params


def test_canonical_sigma_vertical_is_lagrangian():
    model, sigma, _ = _mechanical()
    sh = ham.SemiHamiltonianModel(pair=pm.lift_sode(model), sigma=sigma)
    pts = [np.array([0.3, -0.2, 0.5, 0.1]), np.array([1.0, 0.6, -0.4, 0.2])]
    assert ham.check_lagrangian(sh, pts) < 1e-14


def test_mixed_plane_is_not_lagrangian():
    # V spanned by d/dq1 and d/dp1 with the canonical 2-form on (q1, q2, p1, p2)
    pr = pm.GenericPair(
        coords=("q1", "q2", "p1", "p2"),
        X=("p1", "p2", "-q1", "-q2"),
        vframe=(("1", "0", "0", "0"), ("0", "0", "1", "0")))
    sigma = ham.canonical_sigma(2)
    sh = ham.SemiHamiltonianModel(pair=pr, sigma=sigma)
    res = ham.check_lagrangian(sh, [np.array([0.4, 0.1, 0.2, -0.3])])
    assert res > 0.2


def test_sigma_antisymmetry_enforced():
    pr = pm.GenericPair(coords=("a", "b"), X=("b", "-a"), vframe=(("0", "1"),))
    sh = ham.SemiHamiltonianModel(pair=pr, sigma=(("1", "0"), ("0", "1")))
    with pytest.raises(ValueError):
        sh.sigma_at([0.0, 0.0])


def test_induced_metric_normalizes_to_identity():
    model, sigma, _ = _mechanical(quart=0.0, k1=1.0, k2=1.0, c=0.0)
    sh = ham.SemiHamiltonianModel(pair=pm.lift_sode(model), sigma=sigma)
    out = ham.induced_metric(sh, np.array([0.3, -0.2, 0.5, 0.1]))
    assert out["flipped"]
    assert np.allclose(out["g"], np.eye(2), atol=1e-12)
    assert out["symmetry_residual"] < 1e-10


def test_induced_metric_symmetric_on_fixtures():
    model, sigma, _ = _mechanical(a=0.4, quart=0.5)
    sh = ham.SemiHamiltonianModel(pair=pm.lift_sode(model), sigma=sigma)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=4)
        out = ham.induced_metric(sh, x)
        assert out["symmetry_residual"] < 1e-10


def test_semi_invariance_hamiltonian_field():
    model, sigma, _ = _mechanical(a=0.0, quart=0.4)
    sh = ham.SemiHamiltonianModel(pair=pm.lift_sode(model), sigma=sigma)
    pts = [np.array([0.3, -0.2, 0.5, 0.1]), np.array([0.8, 0.4, -0.6, 0.2])]
    assert ham.check_semi_invariance(sh, pts) < 1e-10


def test_semi_invariance_detects_non_preserving_field():
    # planar field with nonzero divergence cannot preserve the area form
    pr = pm.GenericPair(
        coords=("q", "p"),
        X=("p", "p - q"),
        vframe=(("0", "1"),))
    sigma = (("0", "1"), ("-1", "0"))
    sh = ham.SemiHamiltonianModel(pair=pr, sigma=sigma)
    res = ham.check_semi_invariance(sh, [np.array([0.2, 0.7])])
    assert res > 1e-3


def test_semi_invariance_point_dependent_sigma():
    # rotation field X = (p, -q) preserves q^2 + p^2 and dq^dp, so it preserves
    # (1 + q^2 + p^2) dq^dp; for (1 + q) dq^dp the Lie derivative is p dq^dp
    pr = pm.GenericPair(coords=("q", "p"), X=("p", "-q"), vframe=(("0", "1"),))
    invariant = ham.SemiHamiltonianModel(
        pair=pr, sigma=(("0", "1 + q^2 + p^2"), ("-(1 + q^2 + p^2)", "0")))
    pts = [np.array([0.3, 0.7]), np.array([-1.1, 0.4]), np.array([0.8, -1.5])]
    assert ham.check_semi_invariance(invariant, pts) <= 1e-12
    drifting = ham.SemiHamiltonianModel(pair=pr, sigma=(("0", "1 + q"), ("-(1 + q)", "0")))
    assert ham.check_semi_invariance(drifting, [np.array([0.2, 0.7])]) > 1e-3
    assert ham.check_semi_invariance(drifting, [np.array([0.2, 0.0])]) == 0.0


def test_selfadjoint_residual_values():
    assert ham.check_K_selfadjoint(np.eye(2), np.zeros((2, 2))) == 0.0
    P_hess = np.array([[1.2, 0.1], [0.1, 0.8]])
    assert ham.check_K_selfadjoint(np.eye(2), P_hess) < 1e-15
    eps = 0.3
    K = np.array([[1.0, eps], [-eps, 1.0]])
    res = ham.check_K_selfadjoint(np.eye(2), K)
    assert abs(res - 2 * eps / math.sqrt(1 + eps**2)) < 1e-12


def test_full_chain_on_hamiltonian_fixture():
    model, sigma, params = _mechanical(a=0.0, quart=0.4, c=0.15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(0.4, -0.3, 0.1, 0.5), T=6.0, sigma=sigma)
    h = res.report["hamiltonian"]
    assert h["metric_symmetry_residual"] <= 1e-10
    assert h["selfadjoint_residual"] <= 1e-8
    assert h["lagrangian_residual"] <= 1e-10
    assert h["semi_invariance_residual"] <= 1e-8
    assert h["horizontal_lagrangian_residual"] <= 1e-8
    assert h["metric_constancy_residual"] <= 1e-7
    assert "curvature_not_selfadjoint" not in h["flags"]


def test_skew_perturbation_flagged_not_failed():
    eps = 0.05
    model, sigma = catalog.build("perturbed_pair", {"eps": eps})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(0.2, -0.1, 1.0, 0.4), T=2.0, sigma=sigma)
    h = res.report["hamiltonian"]
    expected = 2 * eps / math.sqrt(1 + eps**2)
    assert abs(h["selfadjoint_residual"] - expected) < 1e-9
    assert "curvature_not_selfadjoint" in h["flags"]
    # flagged, not failed: bound verdicts unaffected
    assert all(v != "violated" for v in res.report["bounds"]["verdicts"].values())


def test_degenerate_metric_raises():
    # X with [X, V] staying vertical w.r.t. sigma pairing: induced g collapses
    pr = pm.GenericPair(
        coords=("q", "p"),
        X=("q", "p"),
        vframe=(("0", "1"),))
    sigma = (("0", "1"), ("-1", "0"))
    sh = ham.SemiHamiltonianModel(pair=pr, sigma=sigma)
    with pytest.raises(DegenerateMetric):
        ham.induced_metric(sh, np.array([0.0, 1.0]))
