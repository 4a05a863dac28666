"""Shared fixtures: random polynomial second-order systems with screening."""

import numpy as np
import pytest

from conjscope import jacobi, ode, pair as pair_mod


def jacobi_in_time(K, m, T):
    """Jacobi solution for a curvature given as a function of time: the base
    system is t' = 1 from t = 0, and K(t) is read at its state."""
    one = np.ones(1)
    return jacobi.integrate_jacobi(lambda z: (one, np.asarray(K(z[0]), dtype=float)), [0.0], m, T)


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


def screened_random_sodes(seed, count, T=2.0, ms=(1, 2, 3), x0_scale=0.3,
                          allow_nonautonomous=True):
    """Deterministic list of (model, x0) whose trajectories stay finite and
    regular over [0, T]."""
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
            traj = ode.integrate(pr.field_callable(), x0_full, T)
        except Exception:
            continue
        if np.max(np.abs(traj.states)) > 30.0:
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
