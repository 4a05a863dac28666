"""Normal-frame transport and the normal curvature matrix.

A working frame of the distribution becomes a normal frame along a trajectory
after multiplication by the matrix solution G of the transport equation
X(G) = -H1 G / 2; the curvature matrix expressed in that frame is the
coefficient matrix of the Jacobi equation.  The base point, G and the Jacobi
fields are one ODE solve, whose right-hand side (``pair.joint_rhs``) is one
call of the pair's compiled joint kernel per evaluation, which gives the
whole derivative, on a lifted second-order system as on any other pair:
the brackets, a Givens least-squares solve for the structure matrices H0,
H1 of the bracket relation, the products after it and the verdict of the
solve's screen (a bound on its condition number, and its residual).  The
derivative is always the kernel's; a point whose screen fails is decided
by the SVD (``pair.extract_H``), which reports regularity and raises the
violation it finds.  The normal curvature is computed afterwards, on
whatever times it is asked for, from the transported point and G: on an
array of times, one dense lookup (on the grid, the one every grid reader
shares), one curvature call per block of points and one batched solve.
On a generic pair each curvature block is one call of the pair's curvature
kernel (``pair.flow_derivative_H1``): the brackets with their derivatives
along X, the same Givens solve for H0, H1, its tangent, which gives the
exact X(H1), and its screen, whose failing points go to the SVD in the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jacobi, ode, pair as pair_mod
from .errors import SingularG, StepSizeUnderflow

__all__ = ["FrameTransport", "transport_normal_frame"]


@dataclass(frozen=True)
class FrameTransport:
    """Trajectory and frame view of the joint (x, vec G, vec a, vec b) solve."""

    pair: object
    jacobi_solution: jacobi.JacobiSolution

    @property
    def joint(self):
        return self.jacobi_solution.joint

    @property
    def T(self):
        return self.joint.T

    def x(self, t):
        return self.joint.at(t)[: self.pair.n]

    def G(self, t):
        """G(t); an array of times gives the stack of shape (len(t), m, m)."""
        return self.jacobi_solution.blocks(t)[1]

    def det_G(self, t):
        return np.linalg.det(self.G(t))

    def K_normal(self, t):
        """Curvature in the normal frame at c(t): G^-1 K(c(t)) G; an array of
        times gives the stack of shape (len(t), m, m) from one dense lookup,
        one ``curvature_at`` call per block of points and one batched solve."""
        x, G = self.jacobi_solution.blocks(t)[:2]
        K = pair_mod.on_blocks(lambda xs: pair_mod.curvature_at(self.pair, xs), x)
        return np.linalg.solve(G, K @ G)

    def grid(self):
        return self.joint.grid()


def transport_normal_frame(pair, x0, T, G0=None, rel_tol=ode.DEFAULT_REL_TOL,
                           abs_tol=ode.DEFAULT_ABS_TOL) -> FrameTransport:
    """Integrate x' = X(x) from x0 over [0, T] jointly with G' = -H1(x) G / 2
    and the Jacobi fields in the working frame (``jacobi.integrate_jacobi``).

    G0 defaults to the identity.  Raises SingularG if |det G| collapses
    relative to |det G0| (analytically impossible: det G obeys a linear
    scalar equation, so this would signal numerical breakdown).  When the
    solve stalls (StepSizeUnderflow), its ``point`` becomes the pair's point
    where the solve stopped (the leading n entries of the joint state, the t
    slot first on a nonautonomous system); the pair is checked for
    regularity there, and the R2 or I violation found is raised in its
    place."""
    m, n = pair.m, pair.n
    G0 = np.eye(m) if G0 is None else np.asarray(G0, dtype=float)
    if abs(np.linalg.det(G0)) < 1e-300:
        raise ValueError("G0 must be invertible")

    try:
        js = jacobi.integrate_jacobi(pair_mod.joint_rhs(pair), x0, G0, T,
                                     rel_tol=rel_tol, abs_tol=abs_tol)
    except StepSizeUnderflow as err:
        err.point = err.point[:n]
        pair_mod.extract_H(pair, err.point)     # a stall at a singular [V | XV] is that violation
        raise

    dets = np.abs(np.linalg.det(js.joint.states[:, n:n + m * m].reshape(-1, m, m)))
    collapsed = np.flatnonzero(dets < 1e-12 * abs(np.linalg.det(G0)))
    if len(collapsed):
        raise SingularG(f"|det G| collapsed at t={js.joint.steps[collapsed[0]]}")
    return FrameTransport(pair=pair, jacobi_solution=js)

