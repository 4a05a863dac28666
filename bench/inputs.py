"""Seeded inputs for the benchmark workloads.

Every generator takes the workload seed and returns one *cycle*: the list of
distinct inputs a run repeats, in order, for the length of the run.  The
more operations a run holds, the less the noise of each one counts, so
horizons are shorter than the catalog defaults (the dancing fixtures keep
theirs), yet long enough to hold a conjugate time where the system has
one.  Where a parameter drives the amount of work, the draws are balanced
so the work of a cycle hardly depends on the seed: the harmonic horizon
spans a fixed number of half periods, so its steps and conjugate times do
not depend on the frequency, and sweep values come one from each stratum.
The program only ever receives the generated values.
"""

from __future__ import annotations

import math

import numpy as np

from conjscope import errors, ode, pair as pair_mod

# the dancing fixtures of the acceptance suite: force and initial state
DANCING_FIXTURES = (
    ("0", (0.0, -2.0, 0.5, 0.1)),
    ("sin(x1)", (2.5, -2.0, 0.6, 0.1)),
    ("x1*y1", (0.0, -2.5, -0.5, 0.1)),
)
DANCING_JITTER = 0.05
HARMONIC_OMEGA = (0.5, 3.0)
HARMONIC_HALF_PERIODS = 1.5       # T = 1.5 pi / omega: one conjugate time, at pi / omega
PERTURBED_T = 1.25 * math.pi      # eps = 0: one double conjugate time, at pi
SPHERE_T = 1.25 * math.pi         # one conjugate time, at pi
MECH_T = 3.5
PERTURBED_EPS = (0.01, 0.1)
SPHERE_TILT = (0.1, 0.4)          # |tilt| of the unit-speed geodesic, radians
MECH_QUART = (0.0, 0.4)
MECH_C = (0.0, 0.15)

# crosscheck slots: (m, nonautonomous); a third are nonautonomous (n = 2m+1).
# Every size comes twice, so the cost of a cycle hardly depends on the draw.
CROSSCHECK_SLOTS = ((1, False), (2, True), (3, False)) * 2
CROSS_LAMBDA = (1.0, 4.0)         # spectrum of A in the force -A x
CROSS_LAMBDA_GAP = 0.3
CROSS_MIXING = 0.2                # A = S diag(lambda) S^-1, S = I + U(-0.2, 0.2)
CROSS_QUAD = 0.1                  # coefficient range of the quadratic terms
CROSS_X0 = 0.3
CROSS_STATE_LIMIT = 30.0
CROSS_REG_POINTS = 7
# horizon over the first conjugate time of the linear part
CROSS_HORIZON = 1.2
CROSS_END_MARGIN = 0.08
CROSS_ATTEMPTS = 50

SWEEP_SYSTEM = "perturbed_pair"
SWEEP_T = PERTURBED_T
# 0 plus one value per stratum: the 4-value sweep of the README and ROADMAP,
# which runs the CLI's pool at its min(4, n) = 4-thread cap
SWEEP_STRATA = ((0.01, 0.04), (0.04, 0.07), (0.07, 0.1))


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def catalog_cycle(seed):
    """`conjscope analyze` inputs: dicts with system, params, x0 (None keeps
    the entry's default state) and the horizon T (the entry's default for
    the dancing fixtures).  Every draw stays inside the entry's guards."""
    rng = _rng(seed, 1)
    omega = rng.uniform(*HARMONIC_OMEGA)
    ops = [{"system": "harmonic", "params": {"omega": omega}, "x0": None,
            "T": HARMONIC_HALF_PERIODS * math.pi / omega}]
    ops.append({"system": "perturbed_pair", "params": {"eps": 0.0}, "x0": None,
                "T": PERTURBED_T})
    ops.append({"system": "perturbed_pair", "params": {"eps": rng.uniform(*PERTURBED_EPS)},
                "x0": None, "T": PERTURBED_T})
    for force, x0 in DANCING_FIXTURES:
        jitter = rng.uniform(-DANCING_JITTER, DANCING_JITTER, size=4)
        ops.append({"system": "dancing", "params": {"F": force},
                    "x0": [float(v) for v in np.add(x0, jitter)], "T": None})
    tilt = rng.choice((-1.0, 1.0)) * rng.uniform(*SPHERE_TILT)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    ops.append({"system": "sphere_spray", "params": {},
                "x0": [math.pi / 2, azimuth, math.sin(tilt), math.cos(tilt)], "T": SPHERE_T})
    ops.append({"system": "mechanical",
                "params": {"quart": rng.uniform(*MECH_QUART), "c": rng.uniform(*MECH_C)},
                "x0": None, "T": MECH_T})
    return ops


def sweep_cycle(seed):
    """One `conjscope sweep` over perturbed_pair: eps = 0 plus one value
    from each stratum."""
    rng = _rng(seed, 2)
    return [{"system": SWEEP_SYSTEM, "T": SWEEP_T,
             "values": [0.0] + [rng.uniform(lo, hi) for lo, hi in SWEEP_STRATA]}]


def _random_second_order(rng, m, nonautonomous):
    """Force -A x plus two small quadratic terms per component, A with a
    positive real spectrum; returns the force strings and the spectrum."""
    lam = np.sort(rng.uniform(*CROSS_LAMBDA, size=m))
    while m > 1 and np.min(np.diff(lam)) < CROSS_LAMBDA_GAP:
        lam = np.sort(rng.uniform(*CROSS_LAMBDA, size=m))
    S = np.eye(m) + rng.uniform(-CROSS_MIXING, CROSS_MIXING, size=(m, m))
    A = S @ np.diag(lam) @ np.linalg.inv(S)
    names = [f"x{i+1}" for i in range(m)] + [f"y{i+1}" for i in range(m)]
    if nonautonomous:
        names.append("t")
    forces = []
    for i in range(m):
        terms = [f"{-A[i, j]:.6f}*x{j+1}" for j in range(m)]
        for _ in range(2):
            a, b = rng.integers(0, len(names), size=2)
            terms.append(f"{rng.uniform(-CROSS_QUAD, CROSS_QUAD):.6f}*{names[a]}*{names[b]}")
        forces.append(" + ".join(terms))
    return forces, lam


def _horizon(lam):
    """CROSS_HORIZON times the first conjugate time of the linear part,
    pi/sqrt(max lambda), so it lies inside; None when another conjugate time
    k*pi/sqrt(lambda) falls within CROSS_END_MARGIN of the end."""
    T = CROSS_HORIZON * math.pi / math.sqrt(max(lam))
    for v in lam:
        for k in range(1, 4):
            if abs(k * math.pi / math.sqrt(v) - T) < CROSS_END_MARGIN * T:
                return None
    return T


def generic_spec(forces, m, nonautonomous):
    """Coordinates, field and vertical frame (all strings) of the lifted
    system as a generic pair, without the back-link to the second-order
    model, so analysis takes the generic bracket path."""
    coords = (["t"] if nonautonomous else []) + [f"x{i+1}" for i in range(m)] \
        + [f"y{i+1}" for i in range(m)]
    X = (["1"] if nonautonomous else []) + [f"y{i+1}" for i in range(m)] + list(forces)
    vframe = [["1" if c == f"y{j+1}" else "0" for c in coords] for j in range(m)]
    return {"coords": coords, "X": X, "vframe": vframe}


def screen(pair, x0, T):
    """True when the trajectory stays finite and bounded and the pair passes
    the regularity check along it."""
    try:
        traj = ode.integrate(pair.field_callable(), x0, T)
    except errors.ConjscopeError:
        return False
    if not np.all(np.isfinite(traj.states)) or np.max(np.abs(traj.states)) > CROSS_STATE_LIMIT:
        return False
    points = [traj.at(t) for t in np.linspace(0.0, T, CROSS_REG_POINTS)]
    return pair_mod.check_regularity(pair, points).all_ok


def crosscheck_cycle(seed):
    """Random second-order systems given as generic pairs: dicts with the
    pair spec, the full initial state and the horizon.  Candidates that fail
    screening are redrawn from the same stream."""
    rng = _rng(seed, 3)
    ops = []
    for m, nonautonomous in CROSSCHECK_SLOTS:
        for _ in range(CROSS_ATTEMPTS):
            forces, lam = _random_second_order(rng, m, nonautonomous)
            spec = generic_spec(forces, m, nonautonomous)
            x0 = [float(v) for v in rng.uniform(-CROSS_X0, CROSS_X0, size=2 * m)]
            if nonautonomous:
                x0 = [0.0] + x0
            T = _horizon(lam)
            if T is not None and screen(build_pair(spec), x0, T):
                break
        else:
            raise RuntimeError(f"no screened system for m={m} after {CROSS_ATTEMPTS} draws")
        ops.append({"spec": spec, "x0": x0, "T": T, "m": m, "nonautonomous": nonautonomous})
    return ops


def build_pair(spec):
    return pair_mod.GenericPair(coords=tuple(spec["coords"]), X=tuple(spec["X"]),
                                vframe=tuple(tuple(col) for col in spec["vframe"]))
