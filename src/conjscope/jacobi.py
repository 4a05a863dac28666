"""Jacobi fields, conjugate times and the variational-flow oracle.

A Jacobi field J = V a + XV b is a V-vector pushed along the flow of X; with
[X, XV] = V H0 + XV H1 its coefficients obey a' = -H0 b, b' = -a - H1 b, solved
together with the normal-frame transport G' = -H1 G / 2 and the system the
structure matrices are read at, so no curvature enters the solve.  In the
normal frame P = -G^-1 b solves P'' = -K P with P(0) = 0, Q(0) = P'(0) = I;
conjugate times are the rank drops of P, with multiplicity the rank drop.  The
variational oracle applies the definition instead: it pushes V(x0) along the
flow, W' = DX W, and finds the rank drops of [V(c(t)) | W(t)].  It takes
first derivatives of the pair only and shares nothing with the Jacobi route
but the events-to-conjugate-times tail, so it cross-validates detection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import ode, pair as pair_mod
from .errors import RegularityViolation

DETECT_TOL = 1e-8        # refined singular-value dip counted as zero, x scale
RANK_TOL = 1e-7          # singular values below this x scale count into the kernel
MERGE_TOL = 1e-6

__all__ = ["JacobiSolution", "ConjugateTime", "integrate_jacobi",
           "find_conjugate_times", "variational_oracle"]


@dataclass(frozen=True)
class JacobiSolution:
    m: int
    joint: object                 # Trajectory of (z, vec G, vec a, vec b)
    offset: int                   # dimension of the base state z
    base: object                  # z -> (z', H0, H1); also maps (offset, N) stacks

    def blocks(self, t):
        """(z, G, a, b) at t from one dense lookup; an array of times gives z
        of shape (offset, len(t)) and the stacks of shape (len(t), m, m)."""
        w = self.joint.at(t)
        mats = np.moveaxis(w[self.offset:], 0, -1).reshape(np.shape(t) + (3, self.m, self.m))
        return (w[:self.offset], *np.moveaxis(mats, -3, 0))

    def P(self, t):
        """P(t) = -G^-1 b; an array of times gives the stack of shape (len(t), m, m)."""
        _, G, _, b = self.blocks(t)
        return -np.linalg.solve(G, b)

    def Q(self, t):
        """Q(t) = P'(t) = G^-1 (a + H1 b / 2), with H1 read from ``base``, one
        call per block of points for an array of times."""
        z, G, a, b = self.blocks(t)
        H1 = pair_mod.on_blocks(lambda zs: self.base(zs)[2], z)
        return np.linalg.solve(G, a + 0.5 * H1 @ b)

    def sigma_min(self, t):
        return np.linalg.svd(self.P(t), compute_uv=False).min(axis=-1)

    def grid(self):
        return self.joint.grid()

    @cached_property
    def grid_samples(self):
        """(grid, P on it, its singular values): one lookup and one batched
        SVD, shared by detection and the sigma_min curve."""
        return _sampled(self.P, self.grid())


@dataclass(frozen=True)
class ConjugateTime:
    t_star: float
    multiplicity: int
    kernel_basis: tuple           # orthonormal, in coordinates of V(x0) (oracle: of W)
    mode: str                     # "sign_change" | "touch"

    def as_dict(self):
        return {
            "t": self.t_star,
            "multiplicity": self.multiplicity,
            "mode": self.mode,
            "kernel_basis": [list(map(float, k)) for k in self.kernel_basis],
        }


def integrate_jacobi(base, z0, G0, T, rel_tol=ode.DEFAULT_REL_TOL,
                     abs_tol=ode.DEFAULT_ABS_TOL) -> JacobiSolution:
    """Integrate z' = f(z) from z0 together with G' = -H1 G / 2,
    a' = -H0 b, b' = -a - H1 b from G(0) = a(0) = G0, b(0) = 0, with dense
    output; ``base(z)`` returns (f(z), H0(z), H1(z))."""
    G0 = np.asarray(G0, dtype=float)
    k, m = len(z0), len(G0)

    def rhs(w):
        dz, H0, H1 = base(w[:k])
        G, a, b = w[k:].reshape(3, m, m)
        return np.concatenate([dz, (-0.5 * H1 @ G).ravel(), (-H0 @ b).ravel(),
                               (-a - H1 @ b).ravel()])

    w0 = np.concatenate([z0, G0.ravel(), G0.ravel(), np.zeros(m * m)])
    joint = ode.integrate(rhs, w0, T, rel_tol=rel_tol, abs_tol=abs_tol)
    return JacobiSolution(m=m, joint=joint, offset=k, base=base)


def _rank_events(sigma_min, sigma_values, det_like, det_values, grid, zero_tol, t_floor):
    """Zeros of a nonnegative singular-value track past t_floor.

    Sign changes of the signed determinant-like companion (when available)
    give odd-multiplicity crossings; refined minima of the track below
    zero_tol times its largest sample give tangential zeros (touches).  Events
    within MERGE_TOL of each other count once, and a sign change wins over a
    touch.  Returns sorted (t, mode) events."""
    events = []
    if det_like is not None:
        events += [(t, "sign_change") for t in ode.locate_events(det_like, grid, det_values)]
    cut = zero_tol * float(np.max(sigma_values))
    if cut > 0.0:                 # an identically zero track has no isolated zeros
        events += [(t, "touch") for t, v in ode.refined_minima(sigma_min, grid, sigma_values,
                                                                cut=cut) if v <= cut]
    merged = []
    for t, mode in sorted(ev for ev in events if ev[0] > t_floor):
        if merged and abs(t - merged[-1][0]) < MERGE_TOL * (1.0 + abs(t)):
            if merged[-1][1] == "touch" and mode == "sign_change":
                merged[-1] = (t, mode)
            continue
        merged.append((t, mode))
    return merged


def _kernel(matrix, scale, rank_tol):
    _, s, Vt = np.linalg.svd(matrix)
    kernel = tuple(Vt[s < rank_tol * scale])
    return len(kernel), kernel


def _sampled(matrix_at, grid):
    """(grid, the stack of matrices on it, their singular values)."""
    samples = matrix_at(grid)
    return grid, samples, np.linalg.svd(samples, compute_uv=False)


def _conjugate_times(matrix_at, sampled, rank_tol, zero_tol):
    """Rank drops of a matrix track that drops rank structurally at t = 0.

    ``matrix_at`` maps a time to the matrix and ``sampled`` holds the grid,
    the stack on it and its singular values (see ``_sampled``).
    Multiplicity counts singular values of the matrix at t* below rank_tol
    times the largest singular value seen on the whole grid (the pointwise
    maximum is useless at a full-rank drop, where every singular value
    vanishes).  Square tracks add the determinant as a signed companion."""
    grid, samples, svals = sampled
    scale = float(np.max(svals[:, 0]))
    if scale == 0.0:
        return []
    sigma_min = lambda t: float(np.linalg.svd(matrix_at(t), compute_uv=False)[-1])
    det_like = det_values = None
    if samples.shape[1] == samples.shape[2]:
        det_like = lambda t: float(np.linalg.det(matrix_at(t)))
        det_values = np.linalg.det(samples)
    # events inside the first dense subinterval are sign noise of the
    # structural rank drop at t = 0, not conjugate times
    events = _rank_events(sigma_min, svals[:, -1], det_like, det_values, grid, zero_tol,
                          t_floor=grid[1])
    out = []
    for t_star, mode in events:
        C = matrix_at(t_star)
        mult, kernel = _kernel(C, scale, rank_tol)
        if mult == 0:
            # dip passed the zero tolerance but no singular value clears the
            # rank cut; classify with the most conservative reading
            mult, kernel = 1, (np.linalg.svd(C)[2][-1],)
        out.append(ConjugateTime(t_star=float(t_star), multiplicity=mult,
                                 kernel_basis=kernel, mode=mode))
    return out


def find_conjugate_times(js: JacobiSolution, rank_tol=RANK_TOL, zero_tol=DETECT_TOL):
    """Detected conjugate times on (0, T] with multiplicity and kernel basis:
    the rank drops of P, which vanishes at t = 0 by construction."""
    return _conjugate_times(js.P, js.grid_samples, rank_tol, zero_tol)


def _orthonormal(A):
    """Q of A = Q R with R's diagonal positive, which moves continuously with
    A (Gram-Schmidt); stacks factor batched."""
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]


def variational_oracle(pair, x0, T, rel_tol=ode.DEFAULT_REL_TOL, abs_tol=ode.DEFAULT_ABS_TOL,
                       rank_tol=RANK_TOL, zero_tol=DETECT_TOL):
    """Conjugate times straight from the definition: t > 0 is conjugate when
    the flow carries a nonzero vector of V(x0) into V(c(t)).

    Integrates x' = X(x), W' = DX(x) W from W(0) = V(x0) (n + n m states)
    and returns the rank drops of [V(c(t)) | W(t)] with both halves
    orthonormalised, so the rank cut stays put while W grows with the flow:
    the singular values are sqrt(1 +- cos) of the principal angles between
    the halves, at most m of them vanish, and for n = 2m the determinant
    keeps the sign of det[V | W].  Takes first derivatives of the pair
    only; kernel bases are coordinates in V(x0).  Raises
    RegularityViolation (R2) where [V | XV] is ill-conditioned."""
    model = pair
    pair = pair_mod.as_pair(pair)
    n, m = pair.n, pair.m
    x0 = pair_mod.full_x0(model, pair, x0)

    def rhs(z):
        x_val, J_X = pair_mod._jacobian(pair.X, pair.coords, pair.bindings(z[:n]))
        return np.concatenate([x_val, (J_X @ z[n:].reshape(n, m)).ravel()])

    V0, _ = pair_mod.frame_at(pair, x0)
    joint = ode.integrate(rhs, np.concatenate([x0, V0.ravel()]), T,
                          rel_tol=rel_tol, abs_tol=abs_tol)

    def track(t):
        """[V | W], halves orthonormalised, at t; an array of times gives the
        stack.  D = [V | XV] is only read for R2."""
        z = joint.at(np.atleast_1d(t))
        D = np.concatenate(pair_mod.on_blocks(lambda xs: pair_mod.frame_at(pair, xs), z[:n]),
                           axis=-1)
        cond = np.linalg.cond(D)
        bad = cond > pair_mod.COND_LIMIT
        if bad.any():
            k = int(np.argmax(bad))           # the first ill-conditioned sample
            raise RegularityViolation(
                f"frame + bracket matrix ill-conditioned along the trajectory (cond={cond[k]:.3e})",
                cond="R2", residual=float(cond[k]), point=z[:n, k])
        W = np.moveaxis(z[n:], 0, -1).reshape(-1, n, m)
        out = np.concatenate([_orthonormal(D[..., :m]), _orthonormal(W)], axis=-1)
        return out if np.ndim(t) else out[0]

    def in_V0(c):
        # (a, b) in the kernel has V a + W R^-1 b = 0, with R = Q^T W
        W = joint.at(c.t_star)[n:].reshape(n, m)
        coeffs = np.linalg.solve(_orthonormal(W).T @ W, np.array(c.kernel_basis)[:, m:].T)
        return replace(c, kernel_basis=tuple(np.linalg.qr(coeffs)[0].T))

    return [in_V0(c) for c in _conjugate_times(track, _sampled(track, joint.grid()),
                                               rank_tol, zero_tol)]
