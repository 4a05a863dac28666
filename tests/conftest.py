"""Shared fixtures: an empty kernel table for each test, random polynomial
second-order systems with screening, and the references the tests read:
Q = P', the vertical/horizontal splitting, X, H0 and H1 as the joint
right-hand side solves them, and linear combinations of expressions."""

import numpy as np
import pytest
from scipy.integrate import DOP853

from conjscope import jacobi, ode, pair as pair_mod, scalar

STATE_BOUND = 30.0


@pytest.fixture(autouse=True)
def empty_kernel_table():
    """Each test starts with an empty process-wide kernel table, so a test
    that counts compilations counts its own and not those of earlier tests."""
    scalar._TABLE.clear()


def jacobi_in_time(K, m, T):
    """Jacobi solution for a curvature given as a function of time: the base
    system is t' = 1 from t = 0 with H0 = -K(t), H1 = 0 and G0 = I, so
    P'' = -K P (G' = 0, a' = K b, b' = -a)."""
    def rhs(w):
        a, b = w[1 + m * m:].reshape(2, m, m)
        return np.concatenate([[1.0], np.zeros(m * m),
                               (np.asarray(K(w[0]), dtype=float) @ b).ravel(), (-a).ravel()])

    return jacobi.integrate_jacobi(rhs, [0.0], np.eye(m), T)


def jacobi_Q(js, t, H1_at=None):
    """Q(t) = P'(t) = G^-1 (a + H1 b / 2) of a ``jacobi.JacobiSolution``, with
    H1 = ``H1_at(z)`` at the base state z(t), or zero without ``H1_at`` (as
    for ``jacobi_in_time``); an array of times gives the stack of shape
    (len(t), m, m), one ``H1_at`` call per time."""
    z, G, a, b = js.blocks(t)
    if H1_at is None:
        H1 = np.zeros_like(G)
    elif np.ndim(t):
        H1 = np.array([H1_at(zk) for zk in z.T])
    else:
        H1 = H1_at(z)
    return np.linalg.solve(G, a + 0.5 * H1 @ b)


def force_bindings(model, t, x, y):
    """The bindings of a second-order model's force at t, x and x' = y: its
    parameters, t and each x_i and y_i."""
    env = dict(model.params)
    env["t"] = t
    for i in range(model.m):
        env[f"x{i+1}"] = x[i]
        env[f"y{i+1}"] = y[i]
    return env


def rhs_structure(pair, x):
    """X, H0 and H1 at the point x as the joint right-hand side of the pair
    (``pair.joint_rhs``) solves them: one call at the state G = 0, a = 0,
    b = I, where a' = -H0 b and b' = -a - H1 b are -H0 and -H1 exactly (each
    entry a sum of one product by 1.0 and products by 0.0).  A point that
    fails the solve's screen raises what ``extract_H`` raises."""
    n, m = pair.n, pair.m
    w = np.concatenate([np.asarray(x, dtype=float), np.zeros(2 * m * m), np.eye(m).ravel()])
    out = pair_mod.joint_rhs(pair)(w)
    H = out[n + m * m:].reshape(2, m, m)
    return out[:n], -H[0], -H[1]


def split_and_project(pair, x):
    """Vertical/horizontal splitting of span[V | XV] at x.

    Returns projector matrices on the ambient space (valid on the span), the
    horizontal frame columns XV - V H1/2, and the morphism matrices A (frame
    coordinates of the horizontal part of [X, .] on V) and B (vertical part
    of [X, .] on the horizontal frame).  The composition -B A reproduces the
    curvature matrix."""
    data, XH1 = pair_mod.flow_derivative_H1(pair, x)
    V, XV, H1 = data.V, data.XV, data.H1
    m = pair.m
    Hcols = XV - 0.5 * V @ H1
    pinv = np.linalg.pinv(np.hstack([V, Hcols]))
    # A: decompose [X, V_j] = XV_j over [V | Hcols]
    A = (pinv @ XV)[m:, :]
    # B: vertical coefficients of [X, H_j] for the frozen-coefficient
    # extension of the horizontal frame, corrected by the flow derivative of
    # H1 (the frozen extension differs from the true frame by a vertical
    # field with nonzero X-derivative)
    XXVh = data.XXV - 0.5 * (XV @ H1)     # [X, XV_j - V (H1)_j] with H1 frozen
    B = (pinv @ XXVh)[:m, :] - 0.5 * XH1
    return {"pi_V": V @ pinv[:m, :], "pi_H": Hcols @ pinv[m:, :], "vertical_frame": V,
            "horizontal_frame": Hcols, "A": A, "B": B, "data": data}


def linear_combination(progs, coeffs):
    """Expression for sum(coeffs[k] * progs[k]) with constant coefficients,
    parsed from its printed form: each term (c)*(prog), or (prog) for c = 1,
    joined left to right; zero coefficients drop out."""
    terms = [f"({p.pretty()})" if c == 1.0 else f"({c!r})*({p.pretty()})"
             for p, c in zip(progs, map(float, coeffs)) if c != 0.0]
    return scalar.parse(" + ".join(terms)) if terms else scalar.const_expr(0.0)


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
