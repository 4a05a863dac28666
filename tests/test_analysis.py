import json
import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from conjscope import analysis, bounds, catalog, frames, jacobi, ode, pair as pm
from conjscope import hamiltonian
from conjscope.errors import ClosedOrbitWarning


def test_closed_orbit_warning_emitted():
    model, _ = catalog.build("harmonic", {"omega": 1.0})
    with pytest.warns(ClosedOrbitWarning):
        res = analysis.analyze(model, x0=(0.3, 0.7), T=7.0)
    assert res.report["closed_orbit_suspected"]
    # times are still computed
    assert len(res.report["conjugate_times"]) == 2


def test_no_closed_orbit_for_short_horizon():
    model, _ = catalog.build("harmonic", {"omega": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error", ClosedOrbitWarning)
        res = analysis.analyze(model, x0=(0.3, 0.7), T=3.0)
    assert not res.report["closed_orbit_suspected"]


def test_nonautonomous_x0_lifting():
    model = pm.SODEModel(m=1, F=("-x1 - 0.05*t*y1",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(0.5, 0.2), T=4.0)
    assert res.report["trajectory"]["x0"] == [0.0, 0.5, 0.2]
    assert res.report["system"]["n"] == 3


def test_report_is_json_roundtrippable():
    model, sigma = catalog.build("mechanical", {"quart": 0.2})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(0.4, -0.3, 0.1, 0.5), T=4.0, sigma=sigma)
    text = json.dumps(res.report, sort_keys=True)
    assert json.loads(text) == res.report


def test_verdict_values_are_constrained():
    model, _ = catalog.build("harmonic", {"omega": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(0.3, 0.7), T=7.0)
    for v in res.report["bounds"]["verdicts"].values():
        assert v in ("consistent", "violated", "not_applicable")


def test_sigma_min_dips_track_conjugate_times():
    model, _ = catalog.build("perturbed_pair", {"eps": 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(0.2, -0.1, 1.0, 0.4), T=7.0)
    dips = res.report["sigma_min_dips"]
    assert len(dips) >= 2
    deep = sorted(d["t"] for d in dips if d["value"] < 1e-7)
    assert abs(deep[0] - math.pi) < 1e-6
    assert abs(deep[1] - 2 * math.pi) < 1e-6


def test_curve_rows_shape_and_content():
    model, _ = catalog.build("harmonic", {"omega": 2.0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(0.3, 0.7), T=3.0)
    columns, rows = analysis.curve_rows(res)
    assert columns == ["t", "sigma_min_P", "k_eig_1_re", "k_eig_1_im", "tr_K", "det_G"]
    assert len(rows) == len(res.grid)
    for row in rows[:: len(rows) // 7]:
        assert row[2] == pytest.approx(4.0, abs=1e-9)   # curvature eigenvalue
        assert row[3] == 0.0
        assert row[5] == pytest.approx(1.0, abs=1e-12)  # det G, H1 = 0


def test_generic_pair_input_accepted():
    model = pm.SODEModel(m=1, F=("-x1",), autonomous=True)
    pr_sode = pm.lift_sode(model)
    pr = pm.GenericPair(coords=pr_sode.coords, X=pr_sode.X, vframe=pr_sode.vframe)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(pr, x0=(0.3, 0.7), T=4.0)
    times = [c["t"] for c in res.report["conjugate_times"]]
    assert len(times) == 1 and abs(times[0] - math.pi) < 1e-6


def test_x0_length_validation():
    model, _ = catalog.build("harmonic")
    with pytest.raises(ValueError):
        analysis.analyze(model, x0=(0.3,), T=4.0)
    with pytest.raises(ValueError):
        analysis.analyze(model, x0=(0.3, 0.7), T=None)


def _counting_solves(monkeypatch):
    solves = []
    integrate = ode.integrate
    monkeypatch.setattr(ode, "integrate",
                        lambda *args, **kwargs: solves.append(1) or integrate(*args, **kwargs))
    return solves


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_analyze_is_one_ode_solve(monkeypatch, name):
    # the trajectory, the transport and the Jacobi matrices are one solve; the
    # Sturm comparison along each eigenline is solved on its spline's pieces
    solves = _counting_solves(monkeypatch)
    entry = catalog.ENTRIES[name]
    model, sigma = catalog.build(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=entry.default_x0, T=entry.default_T, sigma=sigma)
    assert res.bounds.eigenline_tracks
    assert len(solves) == 1


def test_variational_oracle_is_one_ode_solve(monkeypatch):
    solves = _counting_solves(monkeypatch)
    entry = catalog.ENTRIES["dancing"]
    model, _ = catalog.build("dancing")
    assert jacobi.variational_oracle(model, entry.default_x0, entry.default_T)
    assert len(solves) == 1


def _check_report_states_the_solve(expected, **tols):
    # both blocks state the one solve, at the tolerances it ran with
    model, _ = catalog.build("perturbed_pair", {"eps": 0.05})
    res = analysis.analyze(model, x0=(0.2, -0.1, 1.0, 0.4), T=4.0, **tols)
    rep = res.report["trajectory"]
    joint = res.transport.joint
    assert rep["steps"] == joint.n_steps
    assert rep["rhs_evals"] == joint.n_rhs_evals
    assert (rep["rel_tol"], rep["abs_tol"]) == (joint.rel_tol, joint.abs_tol) == expected
    joint = res.jacobi_solution.joint
    assert res.report["jacobi"] == {
        "rel_tol": expected[0],
        "abs_tol": expected[1],
        "steps": joint.n_steps,
        "rhs_evals": joint.n_rhs_evals,
    }
    assert (joint.rel_tol, joint.abs_tol) == expected


def test_report_states_the_transport_and_jacobi_solves():
    _check_report_states_the_solve((1e-9, 1e-11), rel_tol=1e-9, abs_tol=1e-11)


def test_report_states_the_default_tolerances():
    assert (ode.DEFAULT_REL_TOL, ode.DEFAULT_ABS_TOL) == (1e-13, 1e-15)
    _check_report_states_the_solve((1e-13, 1e-15))


def test_transport_and_jacobi_views_share_one_solution_and_grid():
    model, _ = catalog.build("sphere_spray")
    entry = catalog.ENTRIES["sphere_spray"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=entry.default_x0, T=entry.default_T)
    assert res.transport.joint is res.jacobi_solution.joint
    assert np.array_equal(res.grid, res.jacobi_solution.grid())
    assert len(res.K_track) == len(res.sigma_min_track) == len(res.grid)


def test_no_dense_lookup_while_analyze_integrates(monkeypatch):
    # every right-hand side reads the state it is given; dense output is read
    # only once a solve is done
    integrating = []
    lookups = []
    integrate = ode.integrate
    at = ode.Trajectory.at

    def tracking_integrate(*args, **kwargs):
        integrating.append(1)
        try:
            return integrate(*args, **kwargs)
        finally:
            integrating.pop()

    def tracking_at(self, t):
        lookups.append(bool(integrating))
        return at(self, t)

    monkeypatch.setattr(ode, "integrate", tracking_integrate)
    monkeypatch.setattr(ode.Trajectory, "at", tracking_at)
    for name in ("perturbed_pair", "dancing"):
        entry = catalog.ENTRIES[name]
        model, sigma = catalog.build(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            analysis.analyze(model, x0=entry.default_x0, T=entry.default_T, sigma=sigma)
    assert lookups and not any(lookups)


def test_oracle_and_analyze_reject_a_wrong_length_x0_alike():
    model, _ = catalog.build("harmonic")
    message = r"x0 must have 2 components \(got 3\)"
    with pytest.raises(ValueError, match=message):
        analysis.analyze(model, x0=[0.3, 0.7, 0.1], T=3.0)
    with pytest.raises(ValueError, match=message):
        jacobi.variational_oracle(model, [0.3, 0.7, 0.1], 3.0)


def _closed_orbit_pointwise(ft):
    # reference: one dense lookup per grid point
    grid = ft.grid()
    x0 = ft.x(0.0)
    dist = lambda ts: np.array([np.linalg.norm(ft.x(t) - x0) for t in ts])
    vals = dist(grid)
    scale = float(np.max(vals))
    if scale == 0.0:
        return True
    cand = np.where(grid >= 0.1 * ft.T)[0]
    if len(cand) == 0:
        return False
    i = cand[int(np.argmin(vals[cand]))]
    _, d_min = ode.refine_minimum(dist, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)])
    return d_min < 1e-6 * scale


@pytest.mark.parametrize("name, x0, T", [(name, None, None) for name in catalog.ENTRIES]
                         + [("harmonic", (0.3, 0.7), 7.0)])
def test_batched_closed_orbit_check_matches_pointwise(name, x0, T):
    entry = catalog.ENTRIES[name]
    model, _ = catalog.build(name)
    pair = pm.as_pair(model)
    x0 = pm.full_x0(model, pair, entry.default_x0 if x0 is None else x0)
    ft = frames.transport_normal_frame(pair, x0, entry.default_T if T is None else T)
    assert analysis._closed_orbit_suspected(ft) == _closed_orbit_pointwise(ft)
    grid = ft.grid()
    batched = np.linalg.norm(ft.x(grid) - ft.x(0.0)[:, None], axis=0)
    pointwise = [np.linalg.norm(ft.x(t) - ft.x(0.0)) for t in grid]
    assert np.allclose(batched, pointwise, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("name, T", [("harmonic", 1.0), ("sphere_spray", 2.0)])
def test_regularity_coverage_does_not_depend_on_the_grid(name, T):
    # regularity reads MAX_SAMPLE_POINTS evenly spaced times, however short
    # the grid (harmonic at T = 1 takes 9 steps, a 73-point grid)
    model, _ = catalog.build(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=catalog.ENTRIES[name].default_x0, T=T)
    assert len(res.grid) < analysis.MAX_SAMPLE_POINTS
    assert res.report["regularity"]["points_checked"] == analysis.MAX_SAMPLE_POINTS


def test_analyze_reads_the_curvature_track_in_one_call(monkeypatch):
    # the Jacobi right-hand side reads no curvature, so the track is the only
    # K_normal call on the grid; the bounds add one call per refinement round
    calls = []
    in_jacobi = []
    K_normal = frames.FrameTransport.K_normal
    integrate_jacobi = jacobi.integrate_jacobi

    def recording(self, t):
        calls.append((np.array(t), bool(in_jacobi)))
        return K_normal(self, t)

    def jacobi_solve(*args, **kwargs):
        in_jacobi.append(1)
        try:
            return integrate_jacobi(*args, **kwargs)
        finally:
            in_jacobi.pop()

    monkeypatch.setattr(frames.FrameTransport, "K_normal", recording)
    monkeypatch.setattr(jacobi, "integrate_jacobi", jacobi_solve)
    model, sigma = catalog.build("mechanical")
    entry = catalog.ENTRIES["mechanical"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=entry.default_x0, T=entry.default_T, sigma=sigma)
    assert not any(inside for _, inside in calls)
    assert np.array_equal(calls[0][0], res.grid)
    refinement = [t for t, _ in calls[1:]]
    assert len(refinement) == bounds.REFINE_ROUNDS <= 2
    assert all(t.ndim == 1 and 0.0 <= t.min() and t.max() <= res.grid[-1] for t in refinement)
    assert res.K_track.shape == (len(res.grid), 2, 2)


def _curve_rows_per_row(result):
    # reference: one eigvals call and one trace per row
    det_G = result.transport.det_G(result.grid)
    rows = []
    for idx, t in enumerate(result.grid):
        K = result.K_track[idx]
        eig = sorted(np.linalg.eigvals(K), key=lambda z: (z.real, z.imag))
        row = [float(t), float(result.sigma_min_track[idx])]
        for z in eig:
            row += [float(z.real), float(z.imag)]
        row += [float(np.trace(K)), float(det_G[idx])]
        rows.append(row)
    return rows


@pytest.mark.parametrize("name, params", [
    ("harmonic", {}), ("dancing", {}), ("mechanical", {}),
    ("perturbed_pair", {"eps": 0.0}), ("perturbed_pair", {"eps": 0.05}),
])
def test_curve_rows_match_per_row_reference(name, params):
    entry = catalog.ENTRIES[name]
    model, _ = catalog.build(name, params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=entry.default_x0, T=entry.default_T)
    columns, rows = analysis.curve_rows(res)
    reference = _curve_rows_per_row(res)
    assert len(columns) == len(rows[0])
    assert rows == reference
    assert [math.copysign(1.0, v) for row in rows for v in row] == \
        [math.copysign(1.0, v) for row in reference for v in row]
    if params.get("eps"):
        assert any(row[3] != 0.0 for row in rows)    # complex curvature eigenvalues


# V = {d/dc, d/dd + c d/da} on R^4 is not integrable: [V1, V2] = d/da
NONHOLONOMIC_FRAME = (("0", "0", "1", "0"), ("c", "0", "0", "1"))
NONHOLONOMIC_X0 = (0.3, -0.2, 0.1, 0.4)


def _nonholonomic(X):
    return pm.GenericPair(coords=("a", "b", "c", "d"), X=X, vframe=NONHOLONOMIC_FRAME)


@pytest.mark.parametrize("X, count", [
    (("c", "d", "-a - 0.1*b + 0.2*a*c", "-b + 0.3*a - 0.1*c*d"), 1),
    (("c + 0.5*d", "d", "-2*a + 0.1*b^2", "-b - 0.2*a*d"), 8),
])
def test_jacobi_route_matches_the_oracle_on_nonintegrable_pairs(X, count):
    # the solve reads the bracket relation alone, so no finite-difference
    # curvature error reaches the conjugate times
    pair = _nonholonomic(X)
    res = analysis.analyze(pair, x0=NONHOLONOMIC_X0, T=12.0)
    oracle = jacobi.variational_oracle(pair, NONHOLONOMIC_X0, 12.0)
    assert res.report["regularity"]["all_ok"]
    assert len(res.conjugate_times) == len(oracle) == count
    for c, o in zip(res.conjugate_times, oracle):
        assert c.multiplicity == o.multiplicity
        assert abs(c.t_star - o.t_star) <= 1e-11


def test_point_dependent_frame_change_keeps_times_and_curvature():
    # V -> V A(x) on mechanical: the second-order lift and the changed
    # generic pair have the same conjugate times and curvature eigenvalues
    model, _ = catalog.build("mechanical", {"quart": 0.4, "c": 0.15})
    x0 = catalog.ENTRIES["mechanical"].default_x0
    lift = pm.lift_sode(model)
    changed = pm.GenericPair(
        coords=lift.coords, X=lift.X, params=lift.params,
        vframe=(("0", "0", "1 + 0.3*x1^2", "0.1*y1"), ("0", "0", "0.2*x2", "1 + 0.2*sin(x1)")))
    ts = np.linspace(0.5, 7.5, 15)
    times, eigs = [], []
    for pair in (model, changed):
        res = analysis.analyze(pair, x0=x0, T=8.0)
        oracle = jacobi.variational_oracle(pair, x0, 8.0)
        assert [c.multiplicity for c in res.conjugate_times] == [c.multiplicity for c in oracle]
        assert len(oracle) == 4
        for c, o in zip(res.conjugate_times, oracle):
            assert abs(c.t_star - o.t_star) <= 1e-11
        times.append([c.t_star for c in res.conjugate_times])
        eigs.append(np.sort_complex(np.linalg.eigvals(res.transport.K_normal(ts))))
    assert np.max(np.abs(np.subtract(*times))) <= 1e-11
    assert np.max(np.abs(eigs[0] - eigs[1])) <= 1e-9 * np.max(np.abs(eigs[0]))


def test_generic_jacobi_solve_takes_no_curvature_derivative(monkeypatch):
    # X(H1) (the finite difference) is read by the curvature samples after
    # the solve, never by its right-hand side
    calls = []
    solving = []
    flow_derivative_H1 = pm.flow_derivative_H1
    integrate = ode.integrate

    def recording(pair, x):
        calls.append((bool(solving), np.array(x)))
        return flow_derivative_H1(pair, x)

    def solve(*args, **kwargs):
        solving.append(1)
        try:
            return integrate(*args, **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(pm, "flow_derivative_H1", recording)
    monkeypatch.setattr(ode, "integrate", solve)
    pair = _nonholonomic(("c", "d", "-a - 0.1*b + 0.2*a*c", "-b + 0.3*a - 0.1*c*d"))
    res = analysis.analyze(pair, x0=NONHOLONOMIC_X0, T=3.0)
    assert not any(inside for inside, _ in calls)
    # the curvature samples difference H1 once at each grid point, in
    # ceil(N / BLOCK) blocks; the bounds' refinement adds one block per round
    grid_blocks = -(-len(res.grid) // pm.BLOCK)
    sampled = np.concatenate([x for _, x in calls[:grid_blocks]], axis=1)
    assert np.array_equal(sampled, res.transport.x(res.grid))
    assert len(calls) - grid_blocks == bounds.REFINE_ROUNDS <= 2


def test_generic_curvature_track_takes_one_call_per_block(monkeypatch):
    blocks = []
    curvature_at = pm.curvature_at
    solving = []
    integrate = ode.integrate

    def recording(pair, x):
        blocks.append((np.shape(x), bool(solving)))
        return curvature_at(pair, x)

    def solve(*args, **kwargs):
        solving.append(1)
        try:
            return integrate(*args, **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(pm, "curvature_at", recording)
    monkeypatch.setattr(ode, "integrate", solve)
    pair = _nonholonomic(("c", "d", "-a - 0.1*b + 0.2*a*c", "-b + 0.3*a - 0.1*c*d"))
    res = analysis.analyze(pair, x0=NONHOLONOMIC_X0, T=3.0)
    assert not any(inside for _, inside in blocks)
    assert len(res.grid) > pm.BLOCK
    grid_blocks = -(-len(res.grid) // pm.BLOCK)
    shapes = [shape for shape, _ in blocks]
    assert all(shape == (pair.n, pm.BLOCK) for shape in shapes[:grid_blocks - 1])
    assert sum(shape[1] for shape in shapes[:grid_blocks]) == len(res.grid)
    # the bounds' refinement: one block per round
    assert len(shapes) - grid_blocks == bounds.REFINE_ROUNDS <= 2
    assert all(shape[1] <= pm.BLOCK for shape in shapes[grid_blocks:])


def test_analyze_samples_P_on_the_grid_once(monkeypatch):
    # detection's batched SVD of P also gives the sigma_min curve
    calls = []
    P = jacobi.JacobiSolution.P

    def recording(self, t):
        calls.append(t)
        return P(self, t)

    monkeypatch.setattr(jacobi.JacobiSolution, "P", recording)
    model, _ = catalog.build("perturbed_pair", {"eps": 0.05})
    entry = catalog.ENTRIES["perturbed_pair"]
    res = analysis.analyze(model, x0=entry.default_x0, T=entry.default_T)
    assert sum(t is res.grid for t in calls) == 1
    samples = P(res.jacobi_solution, res.grid)
    assert np.array_equal(res.sigma_min_track,
                          np.linalg.svd(samples, compute_uv=False).min(axis=-1))


def test_step_point_samples_read_the_stored_states(monkeypatch):
    # analyze looks the grid up once; the regularity and Hamiltonian samples,
    # and the 24 points of the transported frames, are rows of one more
    # lookup, of MAX_SAMPLE_POINTS evenly spaced times
    looked_up = []
    call = scipy.integrate.OdeSolution.__call__

    def recording(self, t):
        if np.ndim(t) == 1:
            looked_up.append((self, np.array(t)))
        return call(self, t)

    sampled = {}

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(model, points, *args, **kwargs):
            sampled[name] = np.array(points)
            return original(model, points, *args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    spy(pm, "check_regularity")
    spy(hamiltonian, "check_lagrangian")
    spy(hamiltonian, "transported_frames")
    monkeypatch.setattr(scipy.integrate.OdeSolution, "__call__", recording)
    model, sigma = catalog.build("mechanical")
    entry = catalog.ENTRIES["mechanical"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=entry.default_x0, T=entry.default_T, sigma=sigma)
    ft = res.transport
    grid = ft.grid()
    on_grid = [t for sol, t in looked_up if sol is ft.joint._sol and np.isin(t, grid).all()]
    assert len(on_grid) == 1 and np.array_equal(on_grid[0], grid)
    sample_ts = np.linspace(0.0, entry.default_T, analysis.MAX_SAMPLE_POINTS)
    assert sum(sol is ft.joint._sol and np.array_equal(t, sample_ts) for sol, t in looked_up) == 1
    assert len(sampled["check_regularity"]) == analysis.MAX_SAMPLE_POINTS
    assert len(sampled["check_lagrangian"]) == 12
    assert sampled["check_regularity"].tobytes() == ft.x(sample_ts).T.tobytes()
    assert sampled["check_lagrangian"].tobytes() == \
        ft.x(analysis._subsample(sample_ts, 12)).T.tobytes()
    assert sampled["transported_frames"].tobytes() == \
        ft.x(analysis._subsample(sample_ts, 24)).tobytes()


def test_regularity_figures_do_not_follow_the_step_control():
    # a tighter tolerance moves dancing's steps (72 to 78 at the defaults);
    # the regularity samples are evenly spaced times, so worst_cond moves by
    # rounding only, where grid-row samples moved it by 1.5e-5
    model, _ = catalog.build("dancing")
    entry = catalog.ENTRIES["dancing"]
    conds = []
    for rel_tol in (1e-13, 5e-14):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = analysis.analyze(model, x0=entry.default_x0, T=entry.default_T,
                                   rel_tol=rel_tol)
        conds.append(res.report["regularity"]["worst_cond"])
    assert abs(conds[1] - conds[0]) <= 1e-12 * conds[0]


@pytest.mark.parametrize("name", ["perturbed_pair", "dancing"])
def test_analyze_and_curve_rows_interpolate_the_grid_once(monkeypatch, name):
    # the closed-orbit distances, the detection track, the sigma_min curve,
    # the curvature samples and det G in the curves all read one lookup
    looked_up = []
    call = scipy.integrate.OdeSolution.__call__

    def recording(self, t):
        if np.ndim(t) == 1:
            looked_up.append(np.array(t))
        return call(self, t)

    monkeypatch.setattr(scipy.integrate.OdeSolution, "__call__", recording)
    entry = catalog.ENTRIES[name]
    model, _ = catalog.build(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=entry.default_x0, T=entry.default_T)
    _, rows = analysis.curve_rows(res)
    assert sum(np.array_equal(t, res.grid) for t in looked_up) == 1
    assert not res.grid.flags.writeable
    # the shared lookup gives the bits a fresh one gives
    fresh = res.grid.copy()
    js = res.jacobi_solution
    assert res.K_track.tobytes() == res.transport.K_normal(fresh).tobytes()
    assert res.sigma_min_track.tobytes() == js.sigma_min(fresh).tobytes()
    assert [row[-1] for row in rows] == res.transport.det_G(fresh).tolist()
    assert sum(np.array_equal(t, res.grid) for t in looked_up) == 4    # fresh ones did look up
