import numpy as np
import pytest

from conjscope import catalog, frames, jacobi, ode, pair as pm
from conjscope import scalar
from conjscope.errors import ZeroDirection


def invariant_metric_at(ft, t):
    """Metric on the distribution (working-frame coordinates) that makes the
    transported normal frame orthonormal: (G G^T)^{-1} at t; a reference
    for the tests below."""
    G = ft.G(t)
    return np.linalg.inv(G @ G.T)


def directional_curvature(K, g, v):
    """Rayleigh-type quotient g(Kv, v) / g(v, v); a reference for the tests
    below."""
    K = np.asarray(K, dtype=float)
    g = np.asarray(g, dtype=float)
    v = np.asarray(v, dtype=float)
    denom = float(v @ g @ v)
    scale = 1e-14 * max(float(v @ v), 1e-300) * float(np.linalg.norm(g))
    if abs(denom) <= scale:
        raise ZeroDirection("direction is g-null")
    return float((K @ v) @ g @ v) / denom


def _transport(model, x0, T, G0=None):
    pr = pm.lift_sode(model) if isinstance(model, pm.SODEModel) else model
    return pr, frames.transport_normal_frame(pr, x0, T, G0=G0)


def test_velocity_independent_force_keeps_G_constant():
    model = pm.SODEModel(m=1, F=("-x1",), autonomous=True)
    G0 = np.array([[1.7]])
    _, ft = _transport(model, [0.3, 0.7], 5.0, G0=G0)
    for t in np.linspace(0, 5, 9):
        assert np.allclose(ft.G(t), G0, atol=1e-12)
        assert np.allclose(ft.K_normal(t), [[1.0]], atol=1e-10)


def test_damped_oscillator_transport_and_metric():
    gamma = 0.4
    model = pm.SODEModel(m=1, F=(f"-x1 - {2*gamma}*y1",), autonomous=True)
    _, ft = _transport(model, [1.0, 0.0], 6.0)
    for t in (0.5, 2.0, 4.5):
        assert abs(ft.G(t)[0, 0] - np.exp(-gamma * t)) < 1e-9
        assert abs(ft.K_normal(t)[0, 0] - (1 - gamma**2)) < 1e-9
        g = invariant_metric_at(ft, t)
        assert abs(g[0, 0] - np.exp(2 * gamma * t)) < 1e-7 * np.exp(2 * gamma * t)


def test_transported_frame_is_orthonormal_for_its_metric():
    model = pm.SODEModel(m=2, F=("-x1 - 0.4*y1", "-2*x2 + 0.1*y2"), autonomous=True)
    _, ft = _transport(model, [0.5, -0.3, 0.2, 0.4], 4.0)
    for t in (0.0, 1.3, 3.9):
        G = ft.G(t)
        g = invariant_metric_at(ft, t)
        assert np.allclose(G.T @ g @ G, np.eye(2), atol=1e-9)


def test_identity_metric_when_H1_vanishes():
    model = pm.SODEModel(m=2, F=("-x1", "-3*x2"), autonomous=True)
    _, ft = _transport(model, [0.5, -0.3, 0.2, 0.4], 4.0)
    for t in (0.0, 2.0, 4.0):
        assert np.allclose(invariant_metric_at(ft, t), np.eye(2), atol=1e-12)


def test_dancing_transport_follows_eigenvector_fields():
    # seed the transport with the curvature eigenvectors; the transported
    # columns must stay parallel to the pointwise eigenvector fields
    model, _ = catalog.build("dancing", {"F": "sin(x1)"})
    x0 = np.array([2.5, -2.0, 0.6, 0.1])
    c0 = x0[3] / (x0[2] - x0[1])
    G0 = np.array([[0.0, 1.0], [1.0, c0]])     # columns: d/dy2 and d/dy1 + c d/dy2
    pr, ft = _transport(model, x0, 6.0, G0=G0)
    for t in np.linspace(0.0, 6.0, 13):
        s = ft.x(t)
        c = s[3] / (s[2] - s[1])
        G = ft.G(t)
        col0 = G[:, 0] / np.linalg.norm(G[:, 0])
        assert abs(abs(col0[1]) - 1.0) < 1e-8 and abs(col0[0]) < 1e-8
        col1 = G[:, 1]
        direction = np.array([1.0, c]) / np.linalg.norm([1.0, c])
        cross = col1[0] * direction[1] - col1[1] * direction[0]
        assert abs(cross) / np.linalg.norm(col1) < 1e-8


@pytest.mark.parametrize("name", ["dancing", "mechanical", "perturbed_pair"])
def test_transport_x_slice_matches_plain_trajectory(name):
    # the joint (x, G) solve replaces the plain solve of X; at the same
    # tolerances its x slice stays on the plain trajectory
    entry = catalog.ENTRIES[name]
    model, _ = entry.build()
    pr, ft = _transport(model, entry.default_x0, entry.default_T)
    traj = ode.integrate(pr.field_callable(), entry.default_x0, entry.default_T,
                         rel_tol=ft.joint.rel_tol, abs_tol=ft.joint.abs_tol)
    for t in ft.grid():
        x = traj.at(t)
        assert np.max(np.abs(ft.x(t) - x)) < 1e-8 * (1.0 + np.max(np.abs(x)))


def test_H1_recomputed_in_transported_frame_vanishes():
    model = pm.SODEModel(m=2, F=("-x1 - 0.4*y1 + 0.2*y2", "-2*x2 - 0.3*y2"), autonomous=True)
    pr, ft = _transport(model, [0.5, -0.3, 0.2, 0.4], 4.0)
    h = 1e-5
    for t in (0.7, 2.0, 3.3):
        x = ft.x(t)
        H1 = pm.extract_H(pr, x).H1
        G = ft.G(t)
        dG = (ft.G(t + h) - ft.G(t - h)) / (2 * h)
        residual = np.linalg.norm(H1 @ G + 2 * dG) / max(np.linalg.norm(H1) * np.linalg.norm(G), 1.0)
        assert residual < 1e-7


def test_detG_matches_trace_integral():
    from scipy.integrate import simpson
    model = pm.SODEModel(m=2, F=("-x1 - 0.4*y1 + 0.2*y2", "-2*x2 - 0.3*y2"), autonomous=True)
    pr, ft = _transport(model, [0.5, -0.3, 0.2, 0.4], 4.0)
    ts = np.linspace(0, 4.0, 801)
    trH1 = np.array([np.trace(pm.extract_H(pr, ft.x(t)).H1) for t in ts])
    for t_end_idx in (200, 800):
        t_end = ts[t_end_idx]
        integral = simpson(trH1[: t_end_idx + 1], x=ts[: t_end_idx + 1])
        expected = np.exp(-0.5 * integral)
        assert abs(ft.det_G(t_end) - expected) < 1e-7 * abs(expected)


def test_conjugate_times_independent_of_G0():
    # mixed damping: H1 != 0, so the transport and the normal curvature both
    # genuinely depend on the seed matrix while the detected times must not
    model = pm.SODEModel(m=2, F=("-x1 - 0.3*y1", "-x2 - 0.6*y2"), autonomous=True)
    pr = pm.lift_sode(model)
    x0 = [0.2, -0.1, 1.0, 0.4]
    rng = np.random.default_rng(9)
    reference = None
    for _ in range(10):
        G0 = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        ft = frames.transport_normal_frame(pr, x0, 4.0, G0=G0)
        js = ft.jacobi_solution
        times = [c.t_star for c in jacobi.find_conjugate_times(js)]
        if reference is None:
            reference = times
            assert times, "expected conjugate times in the window"
        else:
            assert len(times) == len(reference)
            for a, b in zip(times, reference):
                assert abs(a - b) < 1e-8


def test_directional_curvature_identity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        A = rng.normal(size=(3, 3))
        g = A @ A.T + 3 * np.eye(3)
        v = rng.normal(size=3)
        assert abs(directional_curvature(np.eye(3), g, v) - 1.0) < 1e-12


def test_directional_curvature_diagonal():
    K = np.diag([1.0, 4.0])
    assert directional_curvature(K, np.eye(2), [1, 0]) == 1.0
    assert directional_curvature(K, np.eye(2), [0, 1]) == 4.0


def test_directional_curvature_skew_part_drops():
    eps = 0.3
    K = np.array([[1.0, eps], [-eps, 1.0]])
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = rng.normal(size=2)
        assert abs(directional_curvature(K, np.eye(2), v) - 1.0) < 1e-12


def test_directional_curvature_zero_direction():
    with pytest.raises(ZeroDirection):
        directional_curvature(np.eye(2), np.eye(2), [0.0, 0.0])


def test_sup_directional_curvature_is_max_symmetrized_eigenvalue():
    rng = np.random.default_rng(6)
    K = rng.normal(size=(3, 3))
    S = 0.5 * (K + K.T)
    vals, vecs = np.linalg.eigh(S)
    v_max = vecs[:, -1]
    k_at_max = directional_curvature(K, np.eye(3), v_max)
    assert abs(k_at_max - vals[-1]) < 1e-10
    for _ in range(200):
        v = rng.normal(size=3)
        assert directional_curvature(K, np.eye(3), v) <= vals[-1] + 1e-10


def test_constant_coordinates_have_constant_norm():
    model = pm.SODEModel(m=2, F=("-x1 - 0.4*y1 + 0.2*y2", "-2*x2 - 0.3*y2"), autonomous=True)
    _, ft = _transport(model, [0.5, -0.3, 0.2, 0.4], 4.0)
    coeff = np.array([0.8, -0.5])              # constant coordinates in the normal frame
    norms = []
    for t in np.linspace(0, 4, 21):
        u = ft.G(t) @ coeff                    # the field in working-frame coordinates
        g = invariant_metric_at(ft, t)
        norms.append(u @ g @ u)
    assert np.max(np.abs(np.array(norms) - norms[0])) < 1e-8


def _generic_dancing_transport():
    # the dancing pair with its second-order origin hidden, so curvature takes
    # the generic path
    entry = catalog.ENTRIES["dancing"]
    model, _ = entry.build({"F": "sin(x1)"})
    pr = pm.lift_sode(model)
    gen = pm.GenericPair(coords=pr.coords, X=pr.X, vframe=pr.vframe)
    _, ft = _transport(gen, entry.default_x0, entry.default_T)
    return pr, gen, ft


def test_generic_K_normal_is_curvature_at_the_transported_point():
    _, gen, ft = _generic_dancing_transport()
    for t in (0.0, 2.7, ft.T):
        G = ft.G(t)
        expected = np.linalg.solve(G, pm.curvature_at(gen, ft.x(t)) @ G)
        assert np.array_equal(ft.K_normal(t), expected)


def test_generic_K_normal_starts_no_ode_solve(monkeypatch):
    _, _, ft = _generic_dancing_transport()

    def no_solve(*args, **kwargs):
        raise AssertionError("curvature evaluation started an ODE solve")

    monkeypatch.setattr(ode, "integrate", no_solve)
    for t in (0.0, 1e-9, 2.7, ft.T - 1e-9, ft.T):
        assert np.all(np.isfinite(ft.K_normal(t)))


def test_generic_curvature_matches_closed_form_on_dancing_trajectory():
    pr, _, ft = _generic_dancing_transport()
    for t in ft.grid():
        G = ft.G(t)
        K_exact = np.linalg.solve(G, pm.curvature_at(pr, ft.x(t)) @ G)   # closed form
        scale = max(np.max(np.abs(K_exact)), 1.0)
        assert np.max(np.abs(ft.K_normal(t) - K_exact)) < 4e-8 * scale


def _K_normal_stack_and_pointwise(ft):
    grid = ft.grid()
    stacked = ft.K_normal(grid)
    assert stacked.shape == (len(grid), ft.m, ft.m)
    return grid, stacked, np.array([ft.K_normal(t) for t in grid])


def test_K_normal_on_a_grid_matches_scalar_calls():
    # the batched dense lookup may differ from the scalar one in the last bit
    model, _ = catalog.build("dancing", {"F": "sin(x1)"})
    entry = catalog.ENTRIES["dancing"]
    _, ft = _transport(model, entry.default_x0, entry.default_T)
    _, stacked, pointwise = _K_normal_stack_and_pointwise(ft)
    assert np.max(np.abs(stacked - pointwise)) <= 1e-15 * max(np.max(np.abs(pointwise)), 1.0)


def test_generic_K_normal_on_a_grid_matches_scalar_calls():
    # the central difference behind generic X(H1) amplifies last-bit lookup
    # differences by about 1/h; assembled from the same lookups it is exact
    _, gen, ft = _generic_dancing_transport()
    grid, stacked, pointwise = _K_normal_stack_and_pointwise(ft)
    assert np.max(np.abs(stacked - pointwise)) <= 1e-11 * max(np.max(np.abs(pointwise)), 1.0)
    assembled = [np.linalg.solve(G, pm.curvature_at(gen, x) @ G)
                 for x, G in zip(ft.x(grid).T, ft.G(grid))]
    assert np.array_equal(stacked, assembled)


@pytest.mark.parametrize("kind", ["autonomous", "nonautonomous", "generic"])
def test_joint_solve_makes_one_field_evaluation_per_rhs_call(monkeypatch, kind):
    # the base of the joint solve is the pair call structure_at, which gives X
    # with (H0, H1): one scalar.evaluate per right-hand-side evaluation, on a
    # lifted second-order system (the force) and on a generic pair (X)
    calls = []
    evaluate = scalar.evaluate

    def counting(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(scalar, "evaluate", counting)
    monkeypatch.setattr(pm, "evaluate", counting)
    model = pm.SODEModel(m=2, F=("-x1 - 0.2*y1*x2 + 0.1*t", "-2*x2 + 0.3*sin(t)*y2 - 0.1*y1"),
                         autonomous=False)
    if kind == "autonomous":
        model, _ = catalog.build("perturbed_pair", {"eps": 0.05})
    pr = pm.lift_sode(model)
    if kind == "generic":
        pr = pm.GenericPair(coords=pr.coords, X=pr.X, vframe=pr.vframe, params=pr.params)
    x0 = pm.full_x0(model, pr, [0.3, -0.2, 1.0, 0.4])
    ft = frames.transport_normal_frame(pr, x0, 3.0)
    js = ft.jacobi_solution
    assert js.base.func is pm.structure_at and js.base.args == (pr,)
    assert len(calls) == js.joint.n_rhs_evals > 0
    # X is the pair's own field, bitwise, at a point and on a stack
    z = js.joint.states[::7, :pr.n]
    assert np.array_equal(js.base(z[3])[0], pr.X_at(z[3]))
    assert np.array_equal(js.base(z.T)[0], pr.X_at(z.T).T)
