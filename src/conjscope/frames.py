"""Normal-frame transport, normal curvature matrix and invariant metrics.

A working frame of the distribution becomes a normal frame along a trajectory
after multiplication by the matrix solution G of the transport equation
X(G) = -H1 G / 2; the curvature matrix expressed in that frame is the
coefficient matrix of the Jacobi equation.  The transport is integrated as an
augmented state alongside the base point, so the joint solution is the
trajectory itself and G is consistent with it to integrator tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ode, pair as pair_mod
from .errors import SingularG, ZeroDirection

__all__ = ["FrameTransport", "transport_normal_frame", "invariant_metric_at",
           "directional_curvature"]


@dataclass(frozen=True)
class FrameTransport:
    """Joint dense solution of the trajectory and the frame transport."""

    pair: object
    joint: object                 # Trajectory of the (x, vec G) system
    m: int

    @property
    def T(self):
        return self.joint.T

    def x(self, t):
        return self.joint.at(t)[: self.pair.n]

    def G(self, t):
        """G(t); an array of times gives the stack of shape (len(t), m, m)."""
        z = self.joint.at(t)[self.pair.n:]
        return np.moveaxis(z, 0, -1).reshape(np.shape(t) + (self.m, self.m))

    def det_G(self, t):
        return np.linalg.det(self.G(t))

    def K_normal(self, t):
        """Curvature in the normal frame at c(t): G^-1 K(c(t)) G."""
        n = self.pair.n
        z = self.joint.at(t)
        G = z[n:].reshape(self.m, self.m)
        return np.linalg.solve(G, pair_mod.curvature_at(self.pair, z[:n]) @ G)

    def grid(self, per_step=ode.SAMPLES_PER_STEP):
        return self.joint.grid(per_step)


def transport_normal_frame(pair, x0, T, G0=None, rel_tol=ode.DEFAULT_REL_TOL,
                           abs_tol=ode.DEFAULT_ABS_TOL) -> FrameTransport:
    """Integrate x' = X(x) from x0 over [0, T] jointly with G' = -H1(x) G / 2.

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

    def rhs(z):
        x = z[:n]
        G = z[n:].reshape(m, m)
        dG = -0.5 * pair_mod.H1_at(pair, x) @ G
        return np.concatenate([fld(x), dG.ravel()])

    z0 = np.concatenate([np.asarray(x0, dtype=float), G0.ravel()])
    joint = ode.integrate(rhs, z0, T, rel_tol=rel_tol, abs_tol=abs_tol)

    dets = np.abs(np.linalg.det(joint.states[:, n:].reshape(-1, m, m)))
    collapsed = np.flatnonzero(dets < 1e-12 * abs(np.linalg.det(G0)))
    if len(collapsed):
        raise SingularG(f"|det G| collapsed at t={joint.steps[collapsed[0]]}")
    return FrameTransport(pair=pair, joint=joint, m=m)


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
