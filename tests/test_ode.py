import cmath
import math

import numpy as np
import pytest

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


def test_segments_tile_interval_and_match_steps():
    traj = ode.integrate(lambda x: np.array([x[1], -x[0]]), [0.0, 1.0], 4.0)
    segs = traj.segments
    assert segs[0][0] == 0.0
    assert segs[-1][1] == traj.steps[-1]
    for (_, right), (left, _) in zip([s[:2] for s in segs], [s[:2] for s in segs[1:]]):
        assert right == left
    # dense evaluation at step endpoints returns the stepped states exactly
    for i, t in enumerate(traj.steps):
        assert np.array_equal(traj.at(t), traj.states[i])


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
    events = ode.locate_events(math.sin, np.linspace(0, 7, 500))
    assert len(events) == 2
    (t1, m1), (t2, m2) = events
    assert abs(t1 - math.pi) < 1e-9 and m1 == "sign_change"
    assert abs(t2 - 2 * math.pi) < 1e-9 and m2 == "sign_change"


def test_locate_events_double_root_touch():
    events = ode.locate_events(lambda t: (t - 1.0) ** 2, np.linspace(0, 2, 300),
                               zero_tol=1e-10)
    assert len(events) == 1
    t, mode = events[0]
    assert abs(t - 1.0) < 1e-6 and mode == "touch"


def test_locate_events_positive_minimum_ignored():
    events = ode.locate_events(lambda t: t * t + 0.01, np.linspace(0, 2, 300))
    assert events == []


def test_event_time_stability_under_tolerance_halving():
    field = lambda x: np.array([x[1], -x[0]])
    times = []
    for rel, abst in ((1e-10, 1e-12), (5e-11, 5e-13)):
        traj = ode.integrate(field, [0.0, 1.0], 7.0, rel_tol=rel, abs_tol=abst)
        events = ode.locate_events(lambda t: traj.at(t)[0], traj.grid())
        times.append([t for t, _ in events])
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
    traj = ode.integrate(lambda x: np.array([x[1], -x[0]]), [0.0, 1.0], 20 * math.pi)
    assert traj.n_steps > 500
    assert traj.at(traj.steps).T.tobytes() == traj.states.tobytes()
    # endpoints mixed with points inside steps
    block = traj.at(np.concatenate([traj.steps[::7], traj.grid()[1::5]]))
    assert block[:, :len(traj.steps[::7])].T.tobytes() == traj.states[::7].tobytes()


def test_dense_grid_subdivision():
    steps = np.array([0.0, 1.0, 3.0])
    grid = ode.dense_grid(steps, per_step=4)
    assert grid[0] == 0.0 and grid[-1] == 3.0
    assert len(grid) == 9
    assert np.all(np.diff(grid) > 0)


def test_refine_minimum_kink():
    t, v = ode.refine_minimum(lambda t: abs(t - 0.7371), 0.0, 2.0)
    assert abs(t - 0.7371) < 1e-10 and v < 1e-10


def test_refined_minima_interior_rule():
    # |cos| has interior zeros at pi/2 and 3pi/2 and falls to the right edge
    f = lambda t: abs(math.cos(t))
    grid = np.linspace(0.0, 1.95 * math.pi, 40)
    values = np.array([f(t) for t in grid])
    interior = ode.refined_minima(f, grid, values, interior=True)
    assert [round(t, 9) for t, _ in interior] == [round(math.pi / 2, 9), round(1.5 * math.pi, 9)]
    assert all(v < 1e-10 for _, v in interior)
    everywhere = ode.refined_minima(lambda t: math.cos(t), grid, np.cos(grid))
    assert len(everywhere) == 1 and abs(everywhere[0][0] - math.pi) < 1e-6
