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
Both routes hand that tail a scale-free track, built from orthonormalised
stacks, whose singular values measure principal angles between subspaces
(Bjorck & Golub, 1973): the rank and zero cuts are absolute, whatever the
growth of the fields along the flow.  The tail samples the track on the
solve's grid and then resamples around every dip that can reach the zero
cut (``ode.dip_points``): 32 points in each grid interval next to the dip,
then 16 in each of those pieces next to the dip of the merged samples, one
read of the track a level and only at the new points, so conjugate times
closer together than the grid spacing fall in separate intervals wherever
the steps happen to put the samples, at 96 points an isolated dip.  The
events are then refined together, the determinant's sign changes in one
``ode.locate_events`` call and the track's minima in one
``ode.refine_minimum`` call, each round reading the track on the samples of
every open bracket as one stack; after an evenly spaced first round each
round samples a narrow window about an interpolated zero or minimum.  Each
event is refined once: a minimum whose bracket holds a sign change of the
determinant is that crossing, which the sign change refines and which wins
the merge, so it is not searched again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ode, pair as pair_mod, scalar
from .errors import UnboundVariable

DETECT_TOL = 1e-8        # refined dip of a scale-free track counted as zero
RANK_TOL = 1e-7          # singular values of a scale-free track below this count into the kernel
MERGE_TOL = 1e-6

__all__ = ["JacobiSolution", "ConjugateTime", "integrate_jacobi",
           "find_conjugate_times", "variational_oracle"]


@dataclass(frozen=True)
class JacobiSolution:
    m: int
    joint: object                 # Trajectory of (z, vec G, vec a, vec b)
    offset: int                   # dimension of the base state z

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

    def sigma_min(self, t):
        return np.linalg.svd(self.P(t), compute_uv=False).min(axis=-1)

    def grid(self):
        return self.joint.grid()


@dataclass(frozen=True)
class ConjugateTime:
    t_star: float
    multiplicity: int
    kernel_basis: tuple           # orthonormal, in coordinates of V(x0), peaks positive
    mode: str                     # "sign_change" | "touch"

    def as_dict(self):
        return {
            "t": self.t_star,
            "multiplicity": self.multiplicity,
            "mode": self.mode,
            "kernel_basis": [list(map(float, k)) for k in self.kernel_basis],
        }


def integrate_jacobi(rhs, z0, G0, T, rel_tol=ode.DEFAULT_REL_TOL,
                     abs_tol=ode.DEFAULT_ABS_TOL) -> JacobiSolution:
    """Integrate the joint state w = (z, vec G, vec a, vec b) of z' = f(z),
    G' = -H1 G / 2, a' = -H0 b, b' = -a - H1 b, with the structure matrices
    H0, H1 read at z, from z0, G(0) = a(0) = G0, b(0) = 0, with dense
    output.  ``rhs(w)`` gives the whole w' in one call (``pair.joint_rhs``
    compiles it for a pair)."""
    G0 = np.asarray(G0, dtype=float)
    m = len(G0)
    w0 = np.concatenate([z0, G0.ravel(), G0.ravel(), np.zeros(m * m)])
    joint = ode.integrate(rhs, w0, T, rel_tol=rel_tol, abs_tol=abs_tol)
    return JacobiSolution(m=m, joint=joint, offset=len(z0))


def _rank_events(sigma_min, sigma_values, det_like, det_values, grid, zero_tol, t_floor):
    """Zeros of a nonnegative singular-value track past t_floor.

    Sign changes of the signed determinant-like companion (when available)
    give odd-multiplicity crossings; refined minima of the track at or below
    zero_tol give tangential zeros (touches).  A minimum whose bracket holds
    a sign change of the companion is not refined: that crossing is, and
    wins the merge.  Events within MERGE_TOL of each other count once, and
    a sign change wins over a touch.  Returns sorted (t, mode) events."""
    crossings = [] if det_like is None else ode.locate_events(det_like, grid, det_values)
    events = [(t, "sign_change") for t in crossings]
    events += [(t, "touch") for t, v in ode.refined_minima(sigma_min, grid, sigma_values,
                                                            cut=zero_tol, skip=crossings)
               if v <= zero_tol]
    merged = []
    for t, mode in sorted(ev for ev in events if ev[0] > t_floor):
        if merged and abs(t - merged[-1][0]) < MERGE_TOL * (1.0 + abs(t)):
            if merged[-1][1] == "touch" and mode == "sign_change":
                merged[-1] = (t, mode)
            continue
        merged.append((t, mode))
    return merged


def _conjugate_times(matrix_at, grid, rank_tol):
    """Rank drops of a scale-free matrix track that drops rank structurally
    at t = 0; ``matrix_at`` maps a time to the matrix and ``grid`` to the
    stack on it.  The singular values measure principal angles (they lie in
    [0, sqrt 2]), so both cuts are absolute: multiplicity counts those at t*
    below rank_tol.  Square tracks add the determinant as a signed
    companion.  Both are searched on ``grid`` resampled around the dips of
    the track (``ode.dip_points``, which reads the track at the new points
    only, a level at a time); every sample's matrix is kept, so the
    determinant is read off the same stacks.  Kernel bases are in the
    coordinates of the track's columns."""
    # events inside the first dense subinterval are sign noise of the
    # structural rank drop at t = 0, not conjugate times
    t_floor = grid[1]

    def read(ts):
        stack = matrix_at(ts)
        return np.linalg.svd(stack, compute_uv=False)[:, -1], stack

    # resample around every dip that can reach the zero cut, so that zeros
    # closer than the grid spacing fall in separate intervals
    grid, (sigma_values, samples) = ode.dip_points(read, grid, read(grid), DETECT_TOL)
    sigma_min = lambda ts: read(ts)[0]
    det_like = det_values = None
    if samples.shape[1] == samples.shape[2]:
        det_like = lambda ts: np.linalg.det(matrix_at(ts))
        det_values = np.linalg.det(samples)
    events = _rank_events(sigma_min, sigma_values, det_like, det_values, grid, DETECT_TOL,
                          t_floor)
    out = []
    for t_star, mode in events:
        _, s, Vt = np.linalg.svd(matrix_at(t_star))
        # a dip that passed the zero cut while no singular value clears the
        # rank cut takes the most conservative reading, multiplicity 1
        kernel = tuple(Vt[s < rank_tol]) or (Vt[-1],)
        out.append(ConjugateTime(t_star=float(t_star), multiplicity=len(kernel),
                                 kernel_basis=kernel, mode=mode))
    return out


def _mapped_back(c, stack):
    """``c`` with each kernel vector k, read on the columns of Q for
    ``stack`` = Q R (``_orthonormal``; the trailing entries of k when the
    track puts other columns first), mapped back to R^-1 k.  The basis is
    orthonormalised and each vector signed so that its largest-magnitude
    entry is positive, so that equal analyses report equal bases."""
    k = np.array(c.kernel_basis)[:, -stack.shape[-1]:]
    basis = np.linalg.qr(np.linalg.solve(_orthonormal(stack).T @ stack, k.T))[0].T
    peak = basis[np.arange(len(basis)), np.argmax(np.abs(basis), axis=1)]
    return replace(c, kernel_basis=tuple(basis * np.sign(peak)[:, None]))


def find_conjugate_times(js: JacobiSolution, rank_tol=RANK_TOL):
    """Detected conjugate times on (0, T] with multiplicity and kernel basis:
    the rank drops of P = -G^-1 b, which vanishes at t = 0 by construction,
    read on b^ = -b R^-1, the top block of the orthonormalised working-frame
    stack [-b; a] = Q R.  b^ has the rank of P, the sign of det P (det G and
    det R are positive) and as singular values the sines of the principal
    angles between V and the Jacobi fields, in [0, 1] however the fields
    grow, so ``rank_tol`` and DETECT_TOL are absolute.  Kernel bases map
    back through R^-1 to coordinates in V(x0)."""
    def stack(t):
        _, _, a, b = js.blocks(t)
        return np.concatenate([-b, a], axis=-2)

    track = lambda t: _orthonormal(stack(t))[..., :js.m, :]
    return [_mapped_back(c, stack(c.t_star))
            for c in _conjugate_times(track, js.grid(), rank_tol)]


def _orthonormal(A):
    """Q of A = Q R with R's diagonal positive, which moves continuously with
    A (Gram-Schmidt); stacks factor batched."""
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]


def _flow_algebra(gen, jet, m):
    """x' = X and W' = DX W of the state (x, vec W), W n x m."""
    n = len(jet.val)
    W = [gen.state(n + k) for k in range(n * m)]
    return list(jet.val) + [gen.dot(zip(jet.dj[r], W[c::m])) for r in range(n) for c in range(m)]


def variational_oracle(pair, x0, T, rel_tol=ode.DEFAULT_REL_TOL, abs_tol=ode.DEFAULT_ABS_TOL,
                       rank_tol=RANK_TOL):
    """Conjugate times straight from the definition: t > 0 is conjugate when
    the flow carries a nonzero vector of V(x0) into V(c(t)).

    Integrates x' = X(x), W' = DX(x) W from W(0) = V(x0) (n + n m states,
    one call of a field kernel of X per evaluation) and returns the rank
    drops of [V(c(t)) | W(t)] with both halves orthonormalised, so the rank
    cut stays put while W grows with the flow: the singular values are
    sqrt(1 +- cos) of the principal angles between the halves, at most m of
    them vanish, and for n = 2m the determinant keeps the sign of
    det[V | W].  Takes first derivatives of the pair only; kernel bases are
    coordinates in V(x0).  Raises RegularityViolation (R2) where [V | XV]
    is ill-conditioned."""
    model = pair
    pair = pair_mod.as_pair(pair)
    n, m = pair.n, pair.m
    x0 = pair_mod.full_x0(model, pair, x0)

    kernel = scalar.field_kernel(pair.X, pair.coords, None, pair.coords, _flow_algebra, m)
    env, size = pair.params, kernel.size

    def rhs(z):
        # one scalar kernel call, as in pair.joint_rhs; a KeyError is an
        # unbound parameter, as in scalar.run_field
        try:
            return np.fromiter(kernel.scalar(z.tolist(), env), float, size)
        except KeyError as err:
            raise UnboundVariable(err.args[0]) from None

    V0, _ = pair_mod.frame_at(pair, x0)
    joint = ode.integrate(rhs, np.concatenate([x0, V0.ravel()]), T, rel_tol=rel_tol,
                          abs_tol=abs_tol)

    def track(t):
        """[V | W], halves orthonormalised, at t; an array of times gives the
        stack.  D = [V | XV] is only read for R2."""
        z = joint.at(np.atleast_1d(t))
        D = np.concatenate(pair_mod.on_blocks(lambda xs: pair_mod.frame_at(pair, xs), z[:n]),
                           axis=-1)
        pair_mod._raise_first_violation(z[:n], np.linalg.cond(D))
        W = np.moveaxis(z[n:], 0, -1).reshape(-1, n, m)
        out = np.concatenate([_orthonormal(D[..., :m]), _orthonormal(W)], axis=-1)
        return out if np.ndim(t) else out[0]

    # (a, b) in the kernel has V a + W R^-1 b = 0, with W = Q R
    return [_mapped_back(c, joint.at(c.t_star)[n:].reshape(n, m))
            for c in _conjugate_times(track, joint.grid(), rank_tol)]
