"""Jacobi matrix system, conjugate times and the variational-flow oracle.

In a normal frame the Jacobi equation reduces to the matrix system
P' = Q, Q' = -K P with P(0) = 0, Q(0) = I, solved together with the system
whose state K is read at; conjugate times are the parameter values where P
loses rank, with multiplicity equal to the rank drop.  The variational oracle
instead pushes the vertical subspace forward with the linearized flow and
watches its transverse components directly, providing an independent
detection path for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from . import ode, pair as pair_mod
from .errors import EndpointNotZero, RegularityViolation

DETECT_TOL = 1e-8        # refined singular-value dip counted as zero, x scale
RANK_TOL = 1e-7          # singular values below this x scale count into the kernel
MERGE_TOL = 1e-6

__all__ = ["JacobiSolution", "ConjugateTime", "integrate_jacobi",
           "find_conjugate_times", "index_functional", "variational_oracle"]


@dataclass(frozen=True)
class JacobiSolution:
    m: int
    joint: object                 # Trajectory of (z, vec P, vec Q)
    offset: int                   # dimension of the base state z

    @property
    def T(self):
        return self.joint.T

    def P(self, t):
        """P(t); an array of times gives the stack of shape (len(t), m, m)."""
        z = self.joint.at(t)[self.offset:self.offset + self.m * self.m]
        return np.moveaxis(z, 0, -1).reshape(np.shape(t) + (self.m, self.m))

    def Q(self, t):
        return self.joint.at(t)[self.offset + self.m * self.m:].reshape(self.m, self.m)

    def sigma_min(self, t):
        return np.linalg.svd(self.P(t), compute_uv=False).min(axis=-1)

    def grid(self, per_step=ode.SAMPLES_PER_STEP):
        return self.joint.grid(per_step)


@dataclass(frozen=True)
class ConjugateTime:
    t_star: float
    multiplicity: int
    kernel_basis: tuple           # right singular vectors spanning ker P(t*)
    mode: str                     # "sign_change" | "touch"

    def as_dict(self):
        return {
            "t": self.t_star,
            "multiplicity": self.multiplicity,
            "mode": self.mode,
            "kernel_basis": [list(map(float, k)) for k in self.kernel_basis],
        }


def integrate_jacobi(base, z0, m, T, rel_tol=ode.DEFAULT_REL_TOL,
                     abs_tol=ode.DEFAULT_ABS_TOL) -> JacobiSolution:
    """Integrate z' = f(z) from z0 together with P' = Q, Q' = -K(z) P from
    P(0) = 0, Q(0) = I, with dense output; ``base(z)`` returns (f(z), K(z))."""
    z0 = np.asarray(z0, dtype=float)
    k, mm = len(z0), m * m

    def rhs(w):
        dz, K = base(w[:k])
        P = w[k:k + mm].reshape(m, m)
        return np.concatenate([dz, w[k + mm:], (-K @ P).ravel()])

    w0 = np.concatenate([z0, np.zeros(mm), np.eye(m).ravel()])
    joint = ode.integrate(rhs, w0, T, rel_tol=rel_tol, abs_tol=abs_tol)
    return JacobiSolution(m=m, joint=joint, offset=k)


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
        events += [(t, "touch") for t, v in ode.refined_minima(sigma_min, grid, sigma_values)
                   if v <= cut]
    merged = []
    for t, mode in sorted(ev for ev in events if ev[0] > t_floor):
        if merged and abs(t - merged[-1][0]) < MERGE_TOL * (1.0 + abs(t)):
            if merged[-1][1] == "touch" and mode == "sign_change":
                merged[-1] = (t, mode)
            continue
        merged.append((t, mode))
    return merged


def _kernel(matrix, scale, rank_tol):
    U, s, Vt = np.linalg.svd(matrix)
    cut = rank_tol * scale
    idx = [i for i in range(len(s)) if s[i] < cut]
    return len(idx), tuple(Vt[i] for i in idx)


def _conjugate_times(matrix_at, grid, rank_tol, zero_tol):
    """Rank drops of a matrix track that vanishes structurally at t = 0.

    ``matrix_at`` maps a time to the matrix and an array of times to the
    stack, so the grid is sampled once, with one batched SVD.  Multiplicity
    counts singular values of the matrix at t* below rank_tol times the
    largest singular value seen on the whole grid (the pointwise maximum is
    useless at a full-rank drop, where every singular value vanishes).
    Square tracks add the determinant as a signed companion."""
    samples = matrix_at(grid)
    svals = np.linalg.svd(samples, compute_uv=False)
    scale = float(np.max(svals[:, 0]))
    if scale == 0.0:
        return []
    sigma_min = lambda t: float(np.linalg.svd(matrix_at(t), compute_uv=False)[-1])
    det_like = det_values = None
    if samples.shape[1] == samples.shape[2]:
        det_like = lambda t: float(np.linalg.det(matrix_at(t)))
        det_values = np.linalg.det(samples)
    # events inside the first dense subinterval are sign noise of the
    # structural zero at t = 0, not conjugate times
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
    return _conjugate_times(js.P, js.grid(), rank_tol, zero_tol)


def index_functional(K_normal, w, r, times=None):
    """Quadrature of the second-variation integrand over [0, r].

    ``w`` is an (N, m) array of section samples on a uniform grid (or the grid
    ``times``), vanishing at both ends; derivatives come from a cubic spline
    through the samples; the metric is the identity of the normal frame."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if w.shape[0] == 1:
        w = w.T
    N = w.shape[0]
    ts = np.linspace(0.0, r, N) if times is None else np.asarray(times, dtype=float)
    w_max = float(np.max(np.abs(w))) or 1.0
    if np.linalg.norm(w[0]) > 1e-10 * w_max or np.linalg.norm(w[-1]) > 1e-10 * w_max:
        raise EndpointNotZero("section must vanish at both endpoints")
    spline = CubicSpline(ts, w, axis=0)
    dw = spline(ts, 1)
    integrand = np.empty(N)
    for i, t in enumerate(ts):
        K = np.asarray(K_normal(t), dtype=float)
        integrand[i] = dw[i] @ dw[i] - (K @ w[i]) @ w[i]
    return float(simpson(integrand, x=ts))


def variational_oracle(pair, x0, T, rel_tol=ode.DEFAULT_REL_TOL, abs_tol=ode.DEFAULT_ABS_TOL,
                       rank_tol=RANK_TOL, zero_tol=DETECT_TOL):
    """Conjugate times straight from the definition.

    Integrates the flow linearization M' = DX(c(t)) M, M(0) = I, pushes a
    basis of the vertical space at x0 forward, and solves
    [V(c(t)) | XV(c(t)) | X(c(t))] coeffs = M(t) v_j at each t.  The rows of
    the XV block together with the X row measure transversality; conjugate
    times are the rank drops of that block.  (On lifted second-order systems
    the X row vanishes identically, so including it matches intersecting with
    the vertical space alone.)"""
    model = pair
    pair = pair_mod.as_pair(pair)
    n = pair.n
    x0 = pair_mod.full_x0(model, pair, x0)

    def rhs(z):
        x = z[:n]
        M = z[n:].reshape(n, n)
        env = pair.bindings(x)
        x_val, J_X = pair_mod._jacobian(pair.X, pair.coords, env)
        return np.concatenate([x_val, (J_X @ M).ravel()])

    z0 = np.concatenate([x0, np.eye(n).ravel()])
    joint = ode.integrate(rhs, z0, T, rel_tol=rel_tol, abs_tol=abs_tol)

    data0 = pair_mod.extract_H(pair, x0)
    V0 = data0.V                  # columns form the transported basis seeds
    square = (n == 2 * pair.m)

    def block(z):
        x = z[:n]
        M = z[n:].reshape(n, n)
        data = pair_mod.extract_H(pair, x)
        # a square basis is extract_H's D, whose SVD is reused
        basis = np.hstack([data.V, data.XV] if square else [data.V, data.XV, data.X[:, None]])
        coeffs, cond, _ = pair_mod._lstsq(basis, M @ V0, data.D_svd if square else None)
        if cond > pair_mod.COND_LIMIT:
            raise RegularityViolation(
                f"decomposition basis ill-conditioned along the trajectory (cond={cond:.3e})",
                cond="R2", residual=cond, point=x)
        return coeffs[pair.m:, :]

    def transverse(t):
        """Transverse block at t; an array of times gives the stack."""
        z = joint.at(t)
        return np.array([block(zk) for zk in z.T]) if np.ndim(t) else block(z)

    return _conjugate_times(transverse, joint.grid(), rank_tol, zero_tol)
