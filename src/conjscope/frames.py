"""Normal-frame transport, normal curvature matrix and invariant metrics.

A working frame of the distribution becomes a normal frame along a trajectory
after multiplication by the matrix solution G of the transport equation
X(G) = -H1 G / 2; the curvature matrix expressed in that frame is the
coefficient matrix of the Jacobi equation.  The base point, G and the Jacobi
matrices are one ODE solve, so the joint solution is the trajectory itself
and G, P, Q are consistent with it to integrator tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jacobi, ode, pair as pair_mod
from .errors import SingularG, ZeroDirection

__all__ = ["FrameTransport", "transport_normal_frame", "invariant_metric_at",
           "directional_curvature"]


@dataclass(frozen=True)
class FrameTransport:
    """Trajectory and frame view of the joint (x, vec G, vec P, vec Q) solve."""

    pair: object
    jacobi_solution: jacobi.JacobiSolution

    @property
    def joint(self):
        return self.jacobi_solution.joint

    @property
    def m(self):
        return self.jacobi_solution.m

    @property
    def T(self):
        return self.joint.T

    def x(self, t):
        return self.joint.at(t)[: self.pair.n]

    def _x_and_G(self, t):
        z = self.joint.at(t)
        n = self.pair.n
        G = z[n:n + self.m * self.m]
        return z[:n], np.moveaxis(G, 0, -1).reshape(np.shape(t) + (self.m, self.m))

    def G(self, t):
        """G(t); an array of times gives the stack of shape (len(t), m, m)."""
        return self._x_and_G(t)[1]

    def det_G(self, t):
        return np.linalg.det(self.G(t))

    def K_normal(self, t):
        """Curvature in the normal frame at c(t): G^-1 K(c(t)) G; an array of
        times gives the stack of shape (len(t), m, m) from one dense lookup
        and one batched solve."""
        x, G = self._x_and_G(t)
        if np.ndim(t) == 0:
            K = pair_mod.curvature_at(self.pair, x)
        else:
            K = np.array([pair_mod.curvature_at(self.pair, xk) for xk in x.T])
        return np.linalg.solve(G, K @ G)

    def grid(self, per_step=ode.SAMPLES_PER_STEP):
        return self.joint.grid(per_step)


def transport_normal_frame(pair, x0, T, G0=None, rel_tol=ode.DEFAULT_REL_TOL,
                           abs_tol=ode.DEFAULT_ABS_TOL) -> FrameTransport:
    """Integrate x' = X(x) from x0 over [0, T] jointly with G' = -H1(x) G / 2
    and the Jacobi system in the normal curvature G^-1 K(x) G.

    G0 defaults to the identity.  Raises SingularG if |det G| collapses
    relative to |det G0| (analytically impossible: det G obeys a linear
    scalar equation, so this would signal numerical breakdown)."""
    m = pair.m
    n = pair.n
    if G0 is None:
        G0 = np.eye(m)
    G0 = np.asarray(G0, dtype=float)
    if abs(np.linalg.det(G0)) < 1e-300:
        raise ValueError("G0 must be invertible")

    fld = pair.field_callable()

    def base(z):
        x = z[:n]
        G = z[n:].reshape(m, m)
        H1, K = pair_mod.H1_and_curvature_at(pair, x)
        dz = np.concatenate([fld(x), (-0.5 * H1 @ G).ravel()])
        return dz, np.linalg.solve(G, K @ G)

    z0 = np.concatenate([np.asarray(x0, dtype=float), G0.ravel()])
    js = jacobi.integrate_jacobi(base, z0, m, T, rel_tol=rel_tol, abs_tol=abs_tol)

    dets = np.abs(np.linalg.det(js.joint.states[:, n:n + m * m].reshape(-1, m, m)))
    collapsed = np.flatnonzero(dets < 1e-12 * abs(np.linalg.det(G0)))
    if len(collapsed):
        raise SingularG(f"|det G| collapsed at t={js.joint.steps[collapsed[0]]}")
    return FrameTransport(pair=pair, jacobi_solution=js)


def invariant_metric_at(ft: FrameTransport, t):
    """Metric on the distribution (working-frame coordinates) that makes the
    transported normal frame orthonormal: (G G^T)^{-1} at t."""
    G = ft.G(t)
    return np.linalg.inv(G @ G.T)


def directional_curvature(K, g, v):
    """Rayleigh-type quotient g(Kv, v) / g(v, v)."""
    K = np.asarray(K, dtype=float)
    g = np.asarray(g, dtype=float)
    v = np.asarray(v, dtype=float)
    denom = float(v @ g @ v)
    scale = 1e-14 * max(float(v @ v), 1e-300) * float(np.linalg.norm(g))
    if abs(denom) <= scale:
        raise ZeroDirection("direction is g-null")
    return float((K @ v) @ g @ v) / denom
