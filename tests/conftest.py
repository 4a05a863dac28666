"""Shared fixtures: random polynomial second-order systems with screening."""

import numpy as np
import pytest
from scipy.integrate import DOP853

from conjscope import jacobi, ode, pair as pair_mod

STATE_BOUND = 30.0


def jacobi_in_time(K, m, T):
    """Jacobi solution for a curvature given as a function of time: the base
    system is t' = 1 from t = 0 with H0 = -K(t), H1 = 0 and G0 = I, so
    P'' = -K P."""
    one, zero = np.ones(1), np.zeros((m, m))
    return jacobi.integrate_jacobi(lambda z: (one, -np.asarray(K(z[0]), dtype=float), zero),
                                   [0.0], np.eye(m), T)


def random_sode(rng, m, autonomous=True, scale=1.0):
    """Random polynomial forces of total degree <= 2 in the state variables.

    Coefficients are uniform in [-scale, scale]; every component gets a linear
    restoring term so trajectories tend to stay bounded over short horizons."""
    names = [f"x{i+1}" for i in range(m)] + [f"y{i+1}" for i in range(m)]
    if not autonomous:
        names.append("t")
    F = []
    for i in range(m):
        terms = [f"{rng.uniform(-scale, scale):.6f}*{names[j]}" for j in range(len(names))]
        for _ in range(2):
            a, b = rng.integers(0, len(names), size=2)
            terms.append(f"{rng.uniform(-scale, scale):.6f}*{names[a]}*{names[b]}")
        terms.append(f"{-rng.uniform(0.5, 1.0):.6f}*x{i+1}")
        F.append(" + ".join(terms))
    return pair_mod.SODEModel(m=m, F=tuple(F), autonomous=autonomous)


def _stays_bounded(field, x0, T):
    """Whether every accepted step of the default solve of x' = field(x)
    (``ode.integrate`` takes the same steps) stays within STATE_BOUND; the
    stepping stops at the first step beyond it."""
    def rhs(t, x):
        dx = np.asarray(field(x), dtype=float)
        if not np.all(np.isfinite(dx)):
            raise FloatingPointError("non-finite derivative")
        return dx

    solver = DOP853(rhs, 0.0, np.asarray(x0, dtype=float), T,
                    rtol=ode.DEFAULT_REL_TOL, atol=ode.DEFAULT_ABS_TOL)
    while solver.status == "running":
        solver.step()
        if np.max(np.abs(solver.y)) > STATE_BOUND:
            return False
    return solver.status == "finished"


def screened_random_sodes(seed, count, T=2.0, ms=(1, 2, 3), x0_scale=0.3,
                          allow_nonautonomous=True):
    """Deterministic list of (model, x0) whose trajectories stay finite,
    within STATE_BOUND and regular over [0, T].  A candidate whose solve
    leaves the bound is dropped at the first step beyond it, before the dense
    solve that the regularity check reads."""
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        m = int(rng.choice(ms))
        autonomous = True if not allow_nonautonomous else bool(rng.uniform() < 0.7)
        model = random_sode(rng, m, autonomous=autonomous)
        x0 = rng.uniform(-x0_scale, x0_scale, size=2 * m)
        pr = pair_mod.lift_sode(model)
        x0_full = np.concatenate([[0.0], x0]) if not autonomous else x0
        try:
            if not _stays_bounded(pr.field_callable(), x0_full, T):
                continue
            traj = ode.integrate(pr.field_callable(), x0_full, T)
        except Exception:
            continue
        if np.max(np.abs(traj.states)) > STATE_BOUND:
            continue
        rep = pair_mod.check_regularity(pr, [traj.at(t) for t in np.linspace(0, T, 7)])
        if not rep.all_ok:
            continue
        out.append((model, x0))
    if len(out) < count:
        raise RuntimeError("screening failed to produce enough systems")
    return out


@pytest.fixture(scope="session")
def random_systems():
    # two tranches: small perturbations of the rest state plus larger initial
    # data, where the quadratic force terms push the curvature high enough for
    # conjugate times to show up inside the horizon
    first = screened_random_sodes(seed=20240517, count=12)
    second = screened_random_sodes(seed=915, count=8, x0_scale=1.1)
    return first + second
