"""Built-in parameterized fixture systems with machine-checkable known facts.

Entries cover the standard test set: a harmonic oscillator, the skew
perturbation family (two coupled oscillators whose conjugate times all vanish
under arbitrarily small skew coupling), the dancing-construction pair of
second-order equations with triangular closed-form curvature, a fully
actuated mechanical system with constant kinetic metric, and the unit-sphere
geodesic spray in spherical coordinates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import hamiltonian, ode, pair as pair_mod, scalar
from .errors import MissingParam, UnknownEntry

__all__ = ["CatalogEntry", "ENTRIES", "build", "entry_names", "known_facts",
           "perturbed_pair_oracle", "dancing_curvature_closed_form",
           "mechanical_curvature_closed_form"]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    defaults: dict                # parameter name -> default (None = required)
    default_x0: tuple
    default_T: float
    builder: object = field(repr=False)
    known_facts: tuple = ()       # dicts: fact, provenance, tol
    x0_guard: object = field(default=None, repr=False)

    def build(self, params=None):
        params = params or {}
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise ValueError(
                f"catalog entry {self.name!r} has no parameter {sorted(unknown)[0]!r}"
                f" (parameters: {', '.join(sorted(self.defaults)) or 'none'})")
        merged = dict(self.defaults)
        merged.update(params)
        for key, value in merged.items():
            if value is None:
                raise MissingParam(self.name, key)
        return self.builder(merged)

    def check_x0(self, x0):
        if self.x0_guard is not None:
            self.x0_guard(np.asarray(x0, dtype=float))


def _build_harmonic(p):
    model = pair_mod.SODEModel(m=1, F=("-omega^2*x1",), autonomous=True,
                               params={"omega": float(p["omega"])})
    return model, None


def _build_perturbed(p):
    model = pair_mod.SODEModel(
        m=2, F=("-x1 - eps*x2", "-x2 + eps*x1"), autonomous=True,
        params={"eps": float(p["eps"])})
    sigma = hamiltonian.canonical_sigma(2)
    return model, sigma


def _build_dancing(p):
    F1 = scalar.parse(str(p["F"]))
    autonomous = "t" not in F1.free_vars
    allowed = {"t", "x1", "y1"}
    if not set(F1.free_vars) <= allowed:
        raise ValueError(f"dancing force may depend on {sorted(allowed)} only, got {F1.free_vars}")
    F2 = scalar.parse(f"y2*(({F1.pretty()}) - 2*y2)/(y1 - x2)")
    model = pair_mod.SODEModel(m=2, F=(F1, F2), autonomous=autonomous)
    return model, None


def _mech_metric(p):
    g = np.array([[float(p["g11"]), float(p["g12"])],
                  [float(p["g12"]), float(p["g22"])]])
    if np.linalg.eigvalsh(g)[0] <= 0:
        raise ValueError("kinetic metric must be positive definite")
    return g


def _build_mechanical(p):
    # x_i'' = sum_s ginv[i,s] (-dP/dx_s + F0_s), quadratic + quartic potential,
    # rotational (antisymmetric-Jacobian) non-potential force of strength a
    g = _mech_metric(p)
    ginv = np.linalg.inv(g)
    k1, k2, c, quart, a = (float(p[k]) for k in ("k1", "k2", "c", "quart", "a"))
    dP = [f"({k1}*x1 + {c}*x2 + {quart}*x1^3)",
          f"({k2}*x2 + {c}*x1 + {quart}*x2^3)"]
    F0 = [f"(-{a}*x2)", f"({a}*x1)"]
    F = []
    for i in range(2):
        terms = [f"{ginv[i, s]}*(-{dP[s]} + {F0[s]})" for s in range(2)]
        F.append(" + ".join(terms))
    model = pair_mod.SODEModel(m=2, F=tuple(F), autonomous=True)
    sigma = hamiltonian.canonical_sigma(2)
    return model, sigma


def _build_sphere(p):
    # unit-sphere geodesic equations in spherical coordinates (polar x1,
    # azimuth x2), valid away from the poles
    model = pair_mod.SODEModel(
        m=2,
        F=("sin(x1)*cos(x1)*y2^2", "-2*(cos(x1)/sin(x1))*y1*y2"),
        autonomous=True)
    return model, None


DANCING_GUARD = 0.05              # admissibility: |x1' - x2| must stay above this
SPHERE_CHART = (0.2, math.pi - 0.2)


def _dancing_guard(x0):
    # state order (x1, x2, y1, y2): the system is singular on y1 = x2
    if abs(x0[2] - x0[1]) < DANCING_GUARD:
        raise ValueError(
            f"dancing initial condition too close to the singular set |x1' - x2| >= {DANCING_GUARD}")


def _sphere_guard(x0):
    if not SPHERE_CHART[0] <= x0[0] <= SPHERE_CHART[1]:
        raise ValueError(
            f"sphere chart requires the polar angle in [{SPHERE_CHART[0]}, {SPHERE_CHART[1]:.6g}]")


ENTRIES = {
    "harmonic": CatalogEntry(
        name="harmonic",
        description="single oscillator x'' = -omega^2 x",
        defaults={"omega": 1.0},
        default_x0=(0.3, 0.7),
        default_T=7.0,
        builder=_build_harmonic,
        known_facts=(
            {"fact": "curvature equals omega^2 everywhere", "provenance": "analytic", "tol": 1e-10},
            {"fact": "conjugate times at k*pi/omega, multiplicity 1", "provenance": "analytic", "tol": 1e-6},
        ),
    ),
    "perturbed_pair": CatalogEntry(
        name="perturbed_pair",
        description="x'' = -x - eps y, y'' = -y + eps x (skew coupling)",
        defaults={"eps": 0.0},
        default_x0=(0.2, -0.1, 1.0, 0.4),
        default_T=3 * math.pi,
        builder=_build_perturbed,
        known_facts=(
            {"fact": "curvature matrix [[1, eps], [-eps, 1]] at every point", "provenance": "paper", "tol": 1e-10},
            {"fact": "eps = 0: double conjugate times at k*pi", "provenance": "paper", "tol": 1e-6},
            {"fact": "eps != 0 small: no conjugate times up to N*pi", "provenance": "paper", "tol": 1e-6},
        ),
    ),
    "dancing": CatalogEntry(
        name="dancing",
        description="x1'' = F(t, x1, x1'), x2'' = x2' (F - 2 x2') / (x1' - x2)",
        defaults={"F": "sin(x1)"},
        default_x0=(2.5, -2.0, 0.6, 0.1),
        default_T=6.0,
        builder=_build_dancing,
        known_facts=(
            {"fact": "curvature is triangular with closed-form diagonal entries", "provenance": "paper", "tol": 1e-6},
            {"fact": "F = 0 gives identically zero curvature", "provenance": "paper", "tol": 1e-8},
            {"fact": "conjugate times equal scalar oscillation zeros of the two eigenvalue tracks", "provenance": "paper", "tol": 1e-6},
        ),
        x0_guard=_dancing_guard,
    ),
    "mechanical": CatalogEntry(
        name="mechanical",
        description="fully actuated mechanical system, constant kinetic metric,"
                    " quartic potential, rotational non-potential force",
        defaults={"g11": 1.0, "g12": 0.0, "g22": 1.0,
                  "k1": 1.0, "k2": 1.0, "c": 0.0, "quart": 0.0, "a": 0.0},
        default_x0=(0.4, -0.3, 0.1, 0.5),
        default_T=7.0,
        builder=_build_mechanical,
        known_facts=(
            {"fact": "normal curvature equals ginv (potential Hessian + rotational force gradient)", "provenance": "paper", "tol": 1e-7},
            {"fact": "with canonical 2-form the induced metric is definite and curvature self-adjoint when a = 0", "provenance": "paper", "tol": 1e-8},
        ),
    ),
    "sphere_spray": CatalogEntry(
        name="sphere_spray",
        description="unit 2-sphere geodesic spray, spherical chart (polar in [0.2, pi-0.2])",
        defaults={},
        default_x0=(math.pi / 2, 0.0, 0.0, 1.0),
        default_T=7.0,
        builder=_build_sphere,
        known_facts=(
            {"fact": "normal curvature eigenvalues {0, 1} along unit-speed geodesics", "provenance": "known geometry", "tol": 1e-5},
            {"fact": "first conjugate time pi", "provenance": "known geometry", "tol": 1e-5},
        ),
        x0_guard=_sphere_guard,
    ),
}


def entry_names():
    return sorted(ENTRIES)


def build(name, params=None):
    """Instantiate a catalog entry; returns (model, sigma-or-None)."""
    if name not in ENTRIES:
        raise UnknownEntry(name, ENTRIES)
    return ENTRIES[name].build(params)


def known_facts(name):
    if name not in ENTRIES:
        raise UnknownEntry(name, ENTRIES)
    return ENTRIES[name].known_facts


# -- closed forms used as oracles ---------------------------------------------

def perturbed_pair_oracle(eps, T, samples=4096, t_lo=1.0):
    """Closed-form behaviour of the skew perturbation family.

    The complexified system z'' = -(1 + i eps) z with z(0) = 0 has solution
    z(t) = w0 sin(w t) / w, w = sqrt(1 + i eps); the matrix solution of the
    Jacobi system is the real 2x2 representation of sin(w t) / w, so both of
    its singular values equal |sin(w t)| / |w|.  Conjugate times are the
    zeros of |sin(w t)|: every k*pi for eps = 0 (multiplicity 2) and none for
    eps != 0.  The reported envelope minimum is over [t_lo, T]; the envelope
    vanishes trivially at t = 0."""
    w = cmath.sqrt(1 + 1j * eps)

    def envelope(t):
        return np.abs(np.sin(w * t)) / abs(w)

    times = []
    if eps == 0.0:
        k = 1
        while k * math.pi <= T + 1e-12:
            times.append((k * math.pi, 2))
            k += 1

    ts = np.linspace(t_lo, T, samples)
    vals = envelope(ts)
    i_min = int(np.argmin(vals))
    lo = ts[max(i_min - 1, 0)]
    hi = ts[min(i_min + 1, samples - 1)]
    t_min, env_min = ode.refine_minimum(envelope, lo, hi)

    def f0(t):
        return math.sin(t)

    def f1(t):
        return 0.5 * (-math.sin(t) + t * math.cos(t))

    return {
        "omega": w,
        "times": times,
        "envelope": envelope,
        "min_envelope": float(env_min),
        "argmin_envelope": float(t_min),
        "f0": f0,
        "f1": f1,
    }


def dancing_curvature_closed_form(F_prog, t, x1, x2, y1, y2):
    """Triangular curvature matrix of the dancing pair from the scalar force.

    chi1 is the curvature of the single equation x1'' = F; chi2 and the lower
    off-diagonal entry follow from the second equation's structure."""
    F_prog = F_prog if isinstance(F_prog, scalar.ExprProgram) else scalar.parse(F_prog)
    env = {"t": t, "x1": x1, "y1": y1}
    Fv, dF_t, _, d2_ty1 = scalar.second_partials(F_prog, env, "t", "y1")
    _, dF_x1, dF_y1, d2_x1y1 = scalar.second_partials(F_prog, env, "x1", "y1")
    _, _, _, d2_y1y1 = scalar.second_partials(F_prog, env, "y1", "y1")

    XF = dF_t + y1 * dF_x1 + Fv * dF_y1
    X_dFy1 = d2_ty1 + y1 * d2_x1y1 + Fv * d2_y1y1
    chi1 = -dF_x1 + 0.5 * X_dFy1 - 0.25 * dF_y1 ** 2
    denom = y1 - x2
    chi2 = 0.5 * XF / denom + 0.75 * Fv * (2 * y2 - Fv) / denom ** 2
    # off-diagonal fixed by the eigenvector d/dy1 + y2/(y1 - x2) d/dy2
    # carrying eigenvalue chi1 (and d/dy2 carrying chi2)
    K = np.array([
        [chi1, 0.0],
        [(chi1 - chi2) * y2 / denom, chi2],
    ])
    return K, chi1, chi2


def mechanical_curvature_closed_form(params, q):
    """K = ginv (potential Hessian + rotational force gradient) at position q.

    The working frame of the lifted system is already normal here (the force
    is velocity independent), so this is the normal curvature matrix."""
    g = _mech_metric(params)
    ginv = np.linalg.inv(g)
    k1, k2, c, quart, a = (float(params[k]) for k in ("k1", "k2", "c", "quart", "a"))
    hess = np.array([[k1 + 3 * quart * q[0] ** 2, c],
                     [c, k2 + 3 * quart * q[1] ** 2]])
    rot = np.array([[0.0, a], [-a, 0.0]])
    return ginv @ (hess + rot)
