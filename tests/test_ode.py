import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conjscope import ode
from conjscope.errors import NonFiniteState, StepSizeUnderflow


def test_circular_rotation_endpoint():
    traj = ode.integrate(lambda x: np.array([x[1], -x[0]]), [0.0, 1.0], math.pi / 2)
    assert np.linalg.norm(traj.at(traj.T) - [1.0, 0.0]) < 1e-9


def test_zero_field_constant():
    traj = ode.integrate(lambda x: np.zeros(3), [1.0, -2.0, 0.5], 5.0)
    for t in np.linspace(0, 5, 11):
        assert np.array_equal(traj.at(t), [1.0, -2.0, 0.5])


def test_skew_coupled_oscillators_match_complex_closed_form():
    eps = 0.05
    T = 3 * math.pi

    def field(s):
        x1, x2, y1, y2 = s
        return np.array([y1, y2, -x1 - eps * x2, -x2 + eps * x1])

    x0 = np.array([0.3, -0.2, 0.5, 0.1])
    traj = ode.integrate(field, x0, T, rel_tol=1e-11, abs_tol=1e-13)
    end = traj.at(T)

    # complexified: z = x1 + i x2 satisfies z'' = -(1 - i eps) z
    w = cmath.sqrt(1 - 1j * eps)
    z0 = complex(x0[0], x0[1])
    v0 = complex(x0[2], x0[3])
    zT = cmath.cos(w * T) * z0 + cmath.sin(w * T) / w * v0
    vT = -w * cmath.sin(w * T) * z0 + cmath.cos(w * T) * v0
    expect = np.array([zT.real, zT.imag, vT.real, vT.imag])
    assert np.max(np.abs(end - expect)) < 1e-8


def test_dense_output_against_tight_reference():
    field = lambda x: np.array([x[1], -math.sin(x[0]) - 0.1 * x[1]])
    x0 = [1.2, 0.0]
    traj = ode.integrate(field, x0, 10.0, rel_tol=1e-8, abs_tol=1e-10)
    ref = ode.integrate(field, x0, 10.0, rel_tol=1e-10, abs_tol=1e-12)
    rng = np.random.default_rng(1)
    ts = rng.uniform(0, 10, 1000)
    dev = max(np.max(np.abs(traj.at(t) - ref.at(t))) for t in ts)
    assert dev < 1e-6


def test_nonfinite_state_detected():
    with pytest.raises((NonFiniteState, StepSizeUnderflow)):
        ode.integrate(lambda x: np.array([x[0] ** 2]), [3.0], 10.0)


def test_locate_events_sin():
    grid = np.linspace(0, 7, 500)
    events = ode.locate_events(np.sin, grid, np.sin(grid))
    assert len(events) == 2
    t1, t2 = events
    assert abs(t1 - math.pi) < 1e-9
    assert abs(t2 - 2 * math.pi) < 1e-9


def test_locate_events_close_at_float_resolution():
    # a bracket closes within EVENT_ULPS spacings of floats of the zero: sin
    # changes sign at the float nearest pi, and at a jump the search stops
    # once its samples run into the bracket's ends
    grid = np.linspace(0, 7, 50)
    t1, t2 = ode.locate_events(np.sin, grid, np.sin(grid))
    assert abs(t1 - math.pi) <= 2 * np.spacing(math.pi)
    assert abs(t2 - 2 * math.pi) <= 2 * np.spacing(2 * math.pi)
    jump = 1.0 + 3 * np.spacing(1.0)
    f = lambda t: np.where(t < jump, -1.0, 1.0)
    t, = ode.locate_events(f, grid, f(grid))
    assert abs(t - jump) <= 2 * np.spacing(1.0)


def test_locate_events_double_root_touch():
    # no sign change, so no event; the touch is a refined minimum of |f|
    # (jacobi's rank events merge the two below into one touch)
    f = lambda t: (t - 1.0) ** 2
    grid = np.linspace(0, 2, 300)
    values = f(grid)
    assert ode.locate_events(f, grid, values) == []
    touches = [t for t, v in ode.refined_minima(f, grid, values) if v <= 1e-10 * max(values)]
    # the grid is symmetric about the root, so both middle samples are minima
    assert len(touches) == 2
    assert all(abs(t - 1.0) < 1e-6 for t in touches)


def test_locate_events_positive_minimum_ignored():
    f = lambda t: t * t + 0.01
    grid = np.linspace(0, 2, 300)
    assert ode.locate_events(f, grid, f(grid)) == []


def test_event_time_stability_under_tolerance_halving():
    field = lambda x: np.array([x[1], -x[0]])
    times = []
    for rel, abst in ((1e-10, 1e-12), (5e-11, 5e-13)):
        traj = ode.integrate(field, [0.0, 1.0], 7.0, rel_tol=rel, abs_tol=abst)
        grid = traj.grid()
        times.append(ode.locate_events(lambda t: traj.at(t)[0], grid, traj.at(grid)[0]))
    assert len(times[0]) == len(times[1]) == 2
    for a, b in zip(times[0], times[1]):
        assert abs(a - b) < 1e-5


def test_dense_evaluation_vectorized():
    traj = ode.integrate(lambda x: np.array([x[1], -x[0]]), [0.0, 1.0], 5.0)
    ts = np.linspace(0.2, 4.8, 37)
    block = traj.at(ts)
    assert block.shape == (2, 37)
    for k, t in enumerate(ts):
        assert np.allclose(block[:, k], traj.at(t), atol=1e-14)
    with pytest.raises(ValueError):
        traj.at(5.5)


def test_dense_evaluation_at_step_endpoints_returns_stored_states():
    # the array path agrees bitwise with the stored states, as the scalar path does
    traj = ode.integrate(lambda x: np.array([x[1], -x[0]]), [0.0, 1.0], 24 * math.pi)
    assert traj.n_steps > 500
    assert traj.at(traj.steps).T.tobytes() == traj.states.tobytes()
    for i in range(0, len(traj.steps), 7):
        assert traj.at(traj.steps[i]).tobytes() == traj.states[i].tobytes()
    # endpoints mixed with points inside steps
    block = traj.at(np.concatenate([traj.steps[::7], traj.grid()[1::5]]))
    assert block[:, :len(traj.steps[::7])].T.tobytes() == traj.states[::7].tobytes()


def test_lookup_has_the_bits_of_scipys_dense_output():
    # the coefficient array reproduces solve_ivp's solve and its OdeSolution,
    # the reference here: the steps, the counts, the states and every value
    # bitwise, at random times, at 0 and T, for scalar and array times; at a
    # step endpoint the lookup returns the stepped state
    def field(x):
        return np.array([x[1], -math.sin(x[0]) - 0.1 * x[1], x[0] * x[1]])

    x0, T = [1.2, 0.0, 0.3], 10.0
    traj = ode.integrate(field, x0, T)
    sol = solve_ivp(lambda t, x: field(x), (0.0, T), np.array(x0), method="DOP853",
                    dense_output=True, rtol=ode.DEFAULT_REL_TOL, atol=ode.DEFAULT_ABS_TOL)
    assert traj.steps.tobytes() == sol.t.tobytes()
    assert traj.states.tobytes() == sol.y.T.tobytes()
    assert (traj.n_steps, traj.n_rhs_evals) == (len(sol.t) - 1, sol.nfev)

    def reference(t):
        if np.ndim(t) == 0:
            return sol.y[:, np.searchsorted(sol.t, t)] if np.isin(t, sol.t) else sol.sol(t)
        out = sol.sol(t)
        hit = np.isin(t, sol.t)
        out[:, hit] = sol.y[:, np.searchsorted(sol.t, t[hit])]
        return out

    rng = np.random.default_rng(3)
    ts = np.concatenate([rng.uniform(0.0, T, 2000), traj.steps[1:-1], [0.0, T], traj.grid()])
    rng.shuffle(ts)
    got = traj.at(ts)
    assert got.flags.c_contiguous and got.tobytes() == reference(ts).tobytes()
    for t in np.concatenate([ts[:100], [0.0, T], traj.steps[1::9]]):
        assert traj.at(t).tobytes() == reference(t).tobytes()


def _assert_solve_ivp_bits(field, x0, T):
    """The owned DOP853 loop takes solve_ivp's steps, states, counts and
    dense-output coefficients, bitwise; returns the Trajectory."""
    traj = ode.integrate(field, x0, T)
    sol = solve_ivp(lambda t, x: field(x), (0.0, T), np.array(x0, dtype=float),
                    method="DOP853", dense_output=True, rtol=ode.DEFAULT_REL_TOL,
                    atol=ode.DEFAULT_ABS_TOL)
    assert traj.steps.tobytes() == sol.t.tobytes()
    assert traj.states.tobytes() == sol.y.T.tobytes()
    assert (traj.n_steps, traj.n_rhs_evals) == (len(sol.t) - 1, sol.nfev)
    coef = np.stack([piece.F for piece in sol.sol.interpolants], axis=-1)
    assert traj._coef.tobytes() == coef.tobytes()
    # 2 evaluations to start, 12 per attempt and 3 per dense output
    assert traj.n_rhs_evals == 2 + 12 * (traj.n_steps + traj.n_rejected) + 3 * traj.n_steps
    return traj


def test_a_solve_that_rejects_steps_has_solve_ivps_bits():
    # an eccentric Kepler orbit: the steps shrink at pericentre, where the
    # error test rejects attempts, and the step after a rejection cannot grow
    def kepler(x):
        r3 = (x[0] ** 2 + x[1] ** 2) ** 1.5
        return np.array([x[2], x[3], -x[0] / r3, -x[1] / r3])

    traj = _assert_solve_ivp_bits(kepler, [0.4, 0.0, 0.0, 2.0], 6.0)
    assert traj.n_rejected > 0


def test_a_joint_jacobi_solve_has_solve_ivps_bits():
    from conjscope import catalog, pair as pm
    model, _ = catalog.build("perturbed_pair", {"eps": 0.05})
    pr = pm.lift_sode(model)
    x0 = pm.full_x0(model, pr, catalog.ENTRIES["perturbed_pair"].default_x0)
    eye = np.eye(model.m).ravel()
    w0 = np.concatenate([x0, eye, eye, np.zeros(model.m ** 2)])
    _assert_solve_ivp_bits(pm.joint_rhs(pr), w0, catalog.ENTRIES["perturbed_pair"].default_T)


def test_a_field_that_returns_nan_raises_non_finite_state():
    # at the start, and inside a step: the attempt's stages are checked
    # before its error test, so the step control never shrinks on a NaN
    with pytest.raises(NonFiniteState):
        ode.integrate(lambda x: np.array([np.nan, 1.0]), [0.0, 0.0], 1.0)
    with pytest.raises(NonFiniteState):
        ode.integrate(lambda x: np.array([1.0, np.nan if x[0] > 0.5 else 1.0]), [0.0, 0.0], 1.0)
    # a later stage that fails on the infinite state an earlier stage led to
    # fails because of that stage
    with pytest.raises(NonFiniteState):
        ode.integrate(lambda x: np.array([1.0, math.sin(x[1]) + (math.inf if x[0] > 0.5 else 0.0)]),
                      [0.0, 0.0], 1.0)


def test_step_budget_ends_the_solve(monkeypatch):
    monkeypatch.setattr(ode, "MAX_STEPS", 5)
    with pytest.raises(StepSizeUnderflow) as err:
        ode.integrate(lambda x: np.array([x[1], -x[0]]), [0.0, 1.0], 24 * math.pi)
    assert err.value.n_steps == 5 and 0.0 < err.value.t < 24 * math.pi
    assert len(err.value.point) == 2
    ode.integrate(lambda x: np.array([x[1], -x[0]]), [0.0, 1.0], 0.5)   # within budget


def test_dense_grid_subdivision():
    steps = np.array([0.0, 1.0, 3.0])
    grid = ode.dense_grid(steps)
    assert grid[0] == 0.0 and grid[-1] == 3.0
    assert len(grid) == 2 * ode.SAMPLES_PER_STEP + 1
    assert np.all(np.diff(grid) > 0)
    # each step's points are np.linspace's, bitwise
    traj = ode.integrate(lambda x: np.array([x[1], -x[0]]), [0.0, 1.0], 7.0)
    parts = [np.linspace(a, b, ode.SAMPLES_PER_STEP, endpoint=False)
             for a, b in zip(traj.steps[:-1], traj.steps[1:])]
    assert traj.grid().tobytes() == np.concatenate(parts + [traj.steps[-1:]]).tobytes()


def test_refine_minimum_kink():
    t, v = ode.refine_minimum(lambda t: abs(t - 0.7371), 0.0, 2.0)
    assert abs(t - 0.7371) < 1e-10 and v < 1e-10


def test_refined_minima_interior_rule():
    # |cos| has interior zeros at pi/2 and 3pi/2 and falls to the right edge
    f = lambda t: np.abs(np.cos(t))
    grid = np.linspace(0.0, 1.95 * math.pi, 40)
    values = np.array([f(t) for t in grid])
    interior = ode.refined_minima(f, grid, values, interior=True)
    assert [round(t, 9) for t, _ in interior] == [round(math.pi / 2, 9), round(1.5 * math.pi, 9)]
    assert all(v < 1e-10 for _, v in interior)
    everywhere = ode.refined_minima(np.cos, grid, np.cos(grid))
    assert len(everywhere) == 1 and abs(everywhere[0][0] - math.pi) < 1e-6


def test_refined_minima_cut_skips_plateaus_and_keeps_zeros():
    # a kink, a parabola touching zero and a plateau carrying rounding noise,
    # sampled on a grid whose spacing jumps by a factor of ten
    grid = np.concatenate([np.linspace(0.0, 1.0, 41), np.linspace(1.0, 3.0, 9)[1:]])
    kink = lambda t: abs(t - 0.313)
    touch = lambda t: 4.0 * (t - 1.1) ** 2
    rng = np.random.default_rng(5)
    noise = dict(zip(grid, 0.5 + 1e-16 * rng.standard_normal(len(grid))))
    plateau = lambda ts: np.array([noise.get(t, 0.5) for t in ts])
    for f, zero in ((kink, 0.313), (touch, 1.1)):
        values = np.array([f(t) for t in grid])
        found = [t for t, v in ode.refined_minima(f, grid, values, cut=1e-8) if v <= 1e-8]
        assert found and all(abs(t - zero) < 1e-4 for t in found)
    values = plateau(grid)
    assert len(ode.refined_minima(plateau, grid, values)) > 5
    assert ode.refined_minima(plateau, grid, values, cut=1e-8) == []


def test_dip_points_resample_each_interval_next_to_a_dip_once():
    # dips at 1 and 2 share the interval [1, 2], the last point counts, and
    # the shallow minimum at 4 cannot fall to the cut
    grid = np.arange(7.0)
    values = np.array([4.0, 0.0, 0.0, 4.0, 3.0, 4.0, 0.0])
    extra = ode.dip_points(grid, values, 1e-8)
    inside = [np.linspace(j - 1.0, j, ode.DIP_POINTS // 2 + 2)[1:-1] for j in (1, 2, 3, 6)]
    assert extra.tobytes() == np.concatenate(inside).tobytes()
    assert len(np.unique(np.concatenate([grid, extra]))) == len(grid) + 4 * ode.DIP_POINTS // 2
    assert ode.dip_points(grid, values + 10.0, 1e-8).size == 0


def _counted(f):
    calls = []

    def wrapped(ts):
        calls.append(np.array(ts))
        return f(ts)
    return wrapped, calls


def test_batched_searches_refine_each_bracket_as_if_alone():
    # brackets of widths 1e-5 to 1, asymmetric about their zero or minimum,
    # refined in one call: each lands within its stopping width, and each
    # result is bitwise the result of refining that bracket by itself
    widths = np.logspace(-5.0, 0.0, 9)
    roots = np.arange(1, 10) * math.pi
    grid = np.sort(np.concatenate([roots - 0.37 * widths, roots + 0.63 * widths]))
    events = ode.locate_events(np.sin, grid, np.sin(grid))
    assert len(events) == len(roots)
    for t, root, a, b in zip(events, roots, grid[::2], grid[1::2]):
        assert abs(t - root) < 1e-13 * (1.0 + abs(t))
        assert ode.locate_events(np.sin, [a, b], np.sin([a, b])) == [t]
    c = 0.7371
    lo, hi = c - 0.37 * widths, c + 0.63 * widths
    for f in (lambda t: np.abs(t - c), lambda t: (t - c) ** 2):
        t_min, f_min = ode.refine_minimum(f, lo, hi)
        assert t_min.shape == f_min.shape == widths.shape
        assert np.all(np.abs(t_min - c) < 1e-12 * (1.0 + np.abs(lo) + np.abs(hi)))
        assert np.array_equal(f_min, f(t_min))
        for k in range(len(widths)):
            alone = ode.refine_minimum(f, lo[k], hi[k])
            assert np.ndim(alone[0]) == 0
            assert (alone[0], alone[1]) == (t_min[k], f_min[k])
    t_min, _ = ode.refine_minimum(lambda t: np.abs(t - c), lo.reshape(3, 3), hi.reshape(3, 3))
    assert t_min.shape == (3, 3)


def _search_calls(k):
    # k kinks and k sign changes of equal widths: (minimum, sign-change) calls of f
    kink, kink_calls = _counted(lambda t: np.abs(np.sin(t - 0.25)))
    shifts = np.linspace(0.0, 0.5, k)
    ode.refine_minimum(kink, 0.1 + shifts, 1.1 + shifts)
    roots = np.arange(1, k + 1) * math.pi
    grid = np.sort(np.concatenate([roots - 0.3, roots + 0.4]))
    sine, sine_calls = _counted(np.sin)
    assert len(ode.locate_events(sine, grid, np.sin(grid))) == k
    assert len(kink_calls[0]) == len(sine_calls[0]) == k * ode.SECTION_POINTS
    return len(kink_calls), len(sine_calls)


def test_search_rounds_do_not_grow_with_the_number_of_brackets():
    assert _search_calls(20) == _search_calls(1)


def test_exact_zero_at_a_section_point_is_returned():
    # the third of the first round's evenly spaced samples is exactly 3
    f, calls = _counted(lambda t: t - 3.0)
    hi = ode.SECTION_POINTS + 1.0
    assert ode.locate_events(f, [0.0, hi], [-3.0, hi - 3.0]) == [3.0]
    assert len(calls) == 1 and 3.0 in calls[0]


def test_a_sign_change_closes_in_about_four_rounds():
    # the first round is evenly spaced; each later one samples a narrow
    # window about the false-position point of the bracket's ends, so a
    # bracket 1e-3 wide closes at float resolution in a handful of calls of
    # f, where evenly spaced rounds alone take ten
    f, calls = _counted(np.sin)
    a, b = math.pi - 4e-4, math.pi + 6e-4
    t, = ode.locate_events(f, [a, b], np.sin([a, b]))
    assert abs(t - math.pi) <= ode.EVENT_ULPS * np.spacing(math.pi)
    assert len(calls) <= 5
    assert np.allclose(np.diff(calls[0]), (b - a) / (ode.SECTION_POINTS + 1), rtol=1e-9, atol=0)
    assert all(np.ptp(c) <= 2 * ode.WINDOW * (b - a) for c in calls[1:])


def test_a_bracket_narrower_than_the_tolerance_returns_a_sampled_point():
    f, calls = _counted(lambda t: (t - 2.0) ** 2)
    t_min, f_min = ode.refine_minimum(f, 2.0, 2.0 + 1e-13)
    assert len(calls) == 1
    assert t_min in calls[0] and f_min == f(np.array([t_min]))[0]
