"""Curvature estimates for conjugate-time location, checked against detections.

Three bounds are evaluated along a trajectory from samples of the normal
curvature matrix K, one (N, m, m) array (a list of N matrices also works)
read with batched array expressions.  The normal frame is orthonormal (the
Jacobi equation in it is P'' + K P = 0 with the identity as metric), so the
bounds take no metric:

* an upper bound on the symmetric part of K gives an interval free of
  conjugate times (none before pi / sqrt(lambda_max), Cartan-Hadamard style);
* a positive lower bound on the trace of a symmetric curvature forces
  a conjugate time before pi * sqrt(m / kappa) (Bonnet-Myers style);
* constant eigenlines of the normal curvature reduce to scalar oscillation
  problems whose zeros must reappear among the detected conjugate times
  (Sturm comparison).

Every verdict compares a bound against the detected conjugate times with a
fixed slack; the bounds are sharp for the harmonic oscillator, so the safe
interval is half-open.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import ode

VERDICT_SLACK = 1e-6
SYMMETRY_TOL = 1e-6
EIGENLINE_TOL = 1e-6

__all__ = ["BoundsReport", "EigenlineTrack", "theorem_safe_interval",
           "theorem_trace_bound", "detect_parallel_eigenlines", "sturm_zeros",
           "bounds_report"]


@dataclass(frozen=True)
class EigenlineTrack:
    direction: np.ndarray         # unit vector, constant in the normal frame
    kappa: float                  # inf of the track
    predicted_first_zero: float | None
    sturm_zeros: tuple


@dataclass(frozen=True)
class BoundsReport:
    lambda_max: float
    trK_min: float
    symmetry_residual: float
    safe_interval: tuple          # (0, t_c)
    trace_bound_time: float | None
    trace_bound_reason: str
    eigenline_tracks: tuple
    verdicts: dict                # name -> consistent | violated | not_applicable


def theorem_safe_interval(K_samples, T):
    """Upper curvature bound and the interval it clears of conjugate times.

    Returns (lambda, t_c): no conjugate times in (0, t_c); t_c = T when
    lambda <= 0, else min(T, pi / sqrt(lambda))."""
    Ks = np.asarray(K_samples, dtype=float)
    lam = float(np.max(np.linalg.eigvalsh(0.5 * (Ks + np.swapaxes(Ks, 1, 2)))[:, -1]))
    t_c = T if lam <= 0.0 else min(T, np.pi / np.sqrt(lam))
    return lam, t_c


def theorem_trace_bound(K_samples, m, T):
    """Trace bound: with K symmetric and tr K >= kappa > 0 along the
    trajectory, a conjugate time exists by T* = pi sqrt(m / kappa).

    Returns (T* or None, kappa, symmetry residual, reason)."""
    residual = symmetry_residual(K_samples)
    kappa = float(np.min(np.trace(np.asarray(K_samples, dtype=float), axis1=1, axis2=2)))
    if residual > SYMMETRY_TOL:
        return None, kappa, residual, "curvature not symmetric for the metric"
    if kappa <= 0.0:
        return None, kappa, residual, "trace lower bound not positive"
    T_star = float(np.pi * np.sqrt(m / kappa))
    if T_star >= T:
        return None, kappa, residual, "bound time beyond the trajectory"
    return T_star, kappa, residual, "hypotheses hold"


def symmetry_residual(K_samples):
    """Largest relative size of the skew part of K over the samples."""
    Ks = np.asarray(K_samples, dtype=float)
    scale = np.linalg.norm(Ks, axis=(1, 2))
    skew = np.linalg.norm(Ks - np.swapaxes(Ks, 1, 2), axis=(1, 2))
    live = scale != 0.0
    return float(np.max(skew[live] / scale[live], initial=0.0))


def detect_parallel_eigenlines(K_samples, tol=EIGENLINE_TOL):
    """Directions fixed by the normal curvature matrix at every sample.

    The initial matrix is diagonalized; a real eigenvector e survives when
    K(t) e stays parallel to e (relative tolerance ``tol``) along the whole
    sample set.  Returns (direction, eigenvalue track) pairs."""
    Ks = np.asarray(K_samples, dtype=float)
    m = Ks.shape[1]
    norms = np.linalg.norm(Ks, axis=(1, 2))
    if np.max(norms) <= 1e-12:
        # identically zero curvature: every direction is a parallel eigenline
        return [(np.eye(m)[:, i], np.zeros(len(Ks))) for i in range(m)]
    vals, vecs = np.linalg.eig(Ks[0])
    lines = []
    for idx in range(len(vals)):
        if abs(vals[idx].imag) > 1e-9 * (1.0 + abs(vals[idx])):
            continue
        v = vecs[:, idx]
        if np.max(np.abs(v.imag)) > 1e-9 * np.max(np.abs(v)):
            continue
        e = v.real / np.linalg.norm(v.real)
        if any(abs(abs(e @ prev) - 1.0) < 1e-8 for prev, _ in lines):
            continue
        track = (e[None, :] @ Ks @ e[:, None])[:, 0, 0]      # rounds as e^T K, then . e
        residual = np.linalg.norm(Ks @ e - track[:, None] * e, axis=1)
        if not np.any(residual > tol * np.maximum(norms, 1e-14)):
            lines.append((e, track))
    return lines


def sturm_zeros(ts, lam_track, T):
    """Zeros on (0, T] of y'' = -lam(t) y, y(0) = 0, y'(0) = 1 with lam
    interpolated through the samples."""
    ts = np.asarray(ts, dtype=float)
    lam = CubicSpline(ts, np.asarray(lam_track, dtype=float))

    def rhs(z):
        t, y, dy = z
        return np.array([1.0, dy, -float(lam(min(max(t, ts[0]), ts[-1]))) * y])

    traj = ode.integrate(rhs, [0.0, 0.0, 1.0], T)
    grid = traj.grid()
    return ode.locate_events(lambda t: traj.at(t)[1], grid, traj.at(grid)[1])


def bounds_report(K_samples, ts, m, T, detected_times) -> BoundsReport:
    """Assemble every bound and its verdict against the detected times.

    ``detected_times`` is a list of (t, multiplicity) pairs from the Jacobi
    pipeline.  Verdicts: ``consistent`` when the detections respect the bound,
    ``violated`` otherwise (which indicates an implementation bug), and
    ``not_applicable`` when a bound's hypotheses fail numerically."""
    K_samples = np.asarray(K_samples, dtype=float)
    det = sorted(t for t, _ in detected_times)

    lam, t_c = theorem_safe_interval(K_samples, T)
    safe_ok = all(t >= t_c - VERDICT_SLACK for t in det)
    verdicts = {"max_eig_bound": "consistent" if safe_ok else "violated"}

    T_star, kappa, sym_res, reason = theorem_trace_bound(K_samples, m, T)
    if T_star is None:
        verdicts["trace_bound"] = "not_applicable"
    else:
        hit = any(t <= T_star + VERDICT_SLACK for t in det)
        verdicts["trace_bound"] = "consistent" if hit else "violated"

    lines = detect_parallel_eigenlines(K_samples)
    tracks = []
    solved = []                   # (track, zeros): equal tracks share one solve
    sturm_ok = True
    for e, track in lines:
        kappa_i = float(np.min(track))
        predicted = float(np.pi / np.sqrt(kappa_i)) if kappa_i > 0 else None
        zeros = next((z for tr, z in solved if np.array_equal(tr, track)), None)
        if zeros is None:
            zeros = sturm_zeros(ts, track, T)
            solved.append((track, zeros))
        for z in zeros:
            if not any(abs(z - t) <= VERDICT_SLACK * (1.0 + abs(z)) for t in det):
                sturm_ok = False
        tracks.append(EigenlineTrack(direction=e, kappa=kappa_i,
                                     predicted_first_zero=predicted,
                                     sturm_zeros=tuple(zeros)))
    if not tracks:
        verdicts["sturm_bound"] = "not_applicable"
    else:
        verdicts["sturm_bound"] = "consistent" if sturm_ok else "violated"

    return BoundsReport(
        lambda_max=lam,
        trK_min=kappa,
        symmetry_residual=sym_res,
        safe_interval=(0.0, t_c),
        trace_bound_time=T_star,
        trace_bound_reason=reason,
        eigenline_tracks=tuple(tracks),
        verdicts=verdicts,
    )
