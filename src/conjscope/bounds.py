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
  (Sturm comparison); when m of them span the frame the Jacobi equation
  decouples along them, and each detected time must have as its
  multiplicity the number of lines whose zeros fall on it.

The figures the bounds read (the largest eigenvalue of the symmetric part,
the smallest trace, the symmetry residual and each eigenline's infimum) are
extrema of the samples.  When ``bounds_report`` can evaluate K at new times,
it adds REFINE_ROUNDS rounds of REFINE_POINTS samples across the two
intervals next to each extremum, so the figures do not move with the
sampling grid.  The Sturm coefficient is a local quintic interpolant of
the samples, on each interval between them the polynomial through the six
samples around it, and its scalar equation is solved exactly on the
interpolant's polynomial pieces by Taylor series (Pruess, SIAM J. Numer.
Anal. 10, 1973; Corliss & Chang, ACM TOMS 8, 1982), with no ODE solve.

Every verdict compares a bound against the detected conjugate times with a
fixed slack; the bounds are sharp for the harmonic oscillator, so the safe
interval is half-open.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import NonFiniteState

VERDICT_SLACK = 1e-6
SYMMETRY_TOL = 1e-6
EIGENLINE_TOL = 1e-6
REFINE_ROUNDS = 2
REFINE_POINTS = 16        # samples per round across an extremum's two intervals
PIECE_PHASE = 0.5         # bound on sqrt(max |lam|) times the length of a Sturm series piece
ROUNDING = np.finfo(float).eps

__all__ = ["BoundsReport", "EigenlineTrack", "theorem_safe_interval",
           "theorem_trace_bound", "detect_parallel_eigenlines", "sturm_zeros",
           "bounds_report"]


@dataclass(frozen=True)
class EigenlineTrack:
    direction: np.ndarray         # unit vector, constant in the normal frame
    kappa: float                  # inf of the track, refined like the other figures
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


def _max_sym_eig(Ks):
    """Largest eigenvalue of the symmetric part of each matrix of a stack."""
    return np.linalg.eigvalsh(0.5 * (Ks + np.swapaxes(Ks, 1, 2)))[:, -1]


def _trace(Ks):
    return np.trace(Ks, axis1=1, axis2=2)


def _skew_ratio(Ks):
    """Relative size of the skew part of each matrix (0 for a zero matrix)."""
    scale = np.linalg.norm(Ks, axis=(1, 2))
    skew = np.linalg.norm(Ks - np.swapaxes(Ks, 1, 2), axis=(1, 2))
    return np.divide(skew, scale, out=np.zeros_like(scale), where=scale != 0.0)


def _along(e):
    """e^T K e of each matrix of a stack."""
    return lambda Ks: (e[None, :] @ Ks @ e[:, None])[:, 0, 0]      # rounds as e^T K, then . e


def theorem_safe_interval(K_samples, T):
    """Upper curvature bound and the interval it clears of conjugate times.

    Returns (lambda, t_c): no conjugate times in (0, t_c); t_c = T when
    lambda <= 0, else min(T, pi / sqrt(lambda))."""
    lam = float(np.max(_max_sym_eig(np.asarray(K_samples, dtype=float))))
    t_c = T if lam <= 0.0 else min(T, np.pi / np.sqrt(lam))
    return lam, t_c


def theorem_trace_bound(K_samples, m, T):
    """Trace bound: with K symmetric and tr K >= kappa > 0 along the
    trajectory, a conjugate time exists by T* = pi sqrt(m / kappa).

    Returns (T* or None, kappa, symmetry residual, reason)."""
    residual = symmetry_residual(K_samples)
    kappa = float(np.min(_trace(np.asarray(K_samples, dtype=float))))
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
    return float(np.max(_skew_ratio(np.asarray(K_samples, dtype=float)), initial=0.0))


def _local_samples(figures, K_samples, ts, K_at):
    """K (read by ``K_at``, an array of times -> the stack of K there) at
    the times that refine the smallest sample of each figure, a map from a
    stack of K to one value per matrix, over ``K_samples`` on ``ts``.

    Each of REFINE_ROUNDS rounds reads REFINE_POINTS evenly spaced times
    across the two intervals next to each figure's smallest sample so far,
    every figure in one ``K_at`` call (windows that coincide are read
    once).  Returns the stack of every matrix read."""
    ts = np.asarray(ts, dtype=float)
    samples = []
    for f in figures:
        v = f(K_samples)
        near = np.unique(np.clip(np.argmin(v) + np.arange(-1, 2), 0, len(ts) - 1))
        samples.append((ts[near], v[near]))
    read = []
    for _ in range(REFINE_ROUNDS):
        windows = []
        for t, v in samples:
            k = int(np.argmin(v))
            lo, hi = t[max(k - 1, 0)], t[min(k + 1, len(t) - 1)]
            windows.append(np.linspace(lo, hi, REFINE_POINTS + 2)[1:-1])
        times, where = np.unique(np.concatenate(windows), return_inverse=True)
        read.append(K_at(times))
        per_figure = read[-1][where].reshape((len(figures), REFINE_POINTS) + K_samples.shape[1:])
        samples = [_merged(t, v, w, f(K))
                   for (t, v), w, f, K in zip(samples, windows, figures, per_figure)]
    return np.concatenate(read)


def _merged(t, v, t_new, v_new):
    """The samples (t, v) and (t_new, v_new) as one pair sorted by time."""
    order = np.argsort(np.concatenate([t, t_new]), kind="stable")
    return np.concatenate([t, t_new])[order], np.concatenate([v, v_new])[order]


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
        track = _along(e)(Ks)
        residual = np.linalg.norm(Ks @ e - track[:, None] * e, axis=1)
        if not np.any(residual > tol * np.maximum(norms, 1e-14)):
            lines.append((e, track))
    return lines


def sturm_zeros(ts, lam_track, T):
    """Zeros on (0, T] of y'' = -lam(t) y, y(0) = 0, y'(0) = 1 with lam
    the local quintic interpolant of the samples (``_quintic``; held at its
    end values outside them), solved exactly piece by piece
    (``_series_pieces``).  Sign changes are located between the nodes of
    the pieces, at most one zero apart, and refined on each piece's series;
    T itself counts when y vanishes there within the verdicts' slack,
    |y(T)| <= VERDICT_SLACK |y'(T)|, as detection counts a touch at the last
    grid point."""
    if T <= 0:
        raise ValueError("T must be positive")
    ts = np.asarray(ts, dtype=float)
    nodes, series = _series_pieces(_quintic(ts, np.asarray(lam_track, dtype=float)), ts, T)
    h = np.diff(nodes)
    # u(h), v(h) / h and h u'(h), v'(h) on each piece
    (u0, v0), (u1, v1) = series.sum(axis=0), (np.arange(len(series))[:, None, None] * series).sum(0)
    # chain the transfer matrices [[u, v], [u', v']](h) from (y, y') = (0, 1)
    y, dy = [0.0], [1.0]
    for a, b, c, d in zip(u0.tolist(), (h * v0).tolist(), (u1 / h).tolist(), v1.tolist()):
        y.append(a * y[-1] + b * dy[-1])
        dy.append(c * y[-2] + d * dy[-1])
    y, dy = np.array(y), np.array(dy)
    if not np.all(np.isfinite(y) & np.isfinite(dy)):
        raise NonFiniteState("non-finite Sturm solution")
    # y on piece i is sum_k (y_i u_k + h_i y'_i v_k) s^k, s = (t - t_i) / h_i
    coeffs = y[:-1] * series[:, 0] + h * dy[:-1] * series[:, 1]

    def y_at(t):
        i = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, len(h) - 1)
        s, c = (t - nodes[i]) / h[i], coeffs[:, i]
        value = c[-1]
        for row in c[-2::-1]:
            value = value * s + row
        return value

    zeros = ode.locate_events(y_at, nodes, y)
    if abs(y[-1]) <= VERDICT_SLACK * abs(dy[-1]) and not (zeros and T - zeros[-1] <= VERDICT_SLACK):
        zeros.append(float(T))
    return zeros


def _quintic(ts, values):
    """The local quintic interpolant of ``values`` on the increasing nodes
    ``ts``, as its Taylor coefficients: a map from times t to the array
    (6, len(t)) of coefficients about each t (from the right at a node;
    constant past the nodes' ends).

    On each interval [ts_i, ts_(i+1)] it is the polynomial through the six
    nodes around it, its own two and two on each side (the six at an end,
    all of them when there are fewer), in s = (t - ts_i) / w_i with w_i the
    span of those nodes, so |s| <= 1 on them: Newton's divided differences
    multiplied out, all the intervals together.  Neighbouring polynomials
    meet at their shared node, so the interpolant is continuous but not
    smooth there, and ``_series_pieces`` starts a piece at every node."""
    k = min(6, len(ts))
    first = np.clip(np.arange(len(ts) - 1) - (k - 2) // 2, 0, len(ts) - k)
    window = first + np.arange(k)[:, None]
    width = ts[window[-1]] - ts[window[0]]
    s, c = (ts[window] - ts[:-1]) / width, values[window]
    for j in range(1, k):         # Newton's divided differences, every interval at once
        c[j:] = (c[j:] - c[j - 1:-1]) / (s[j:] - s[:k - j])
    coef = np.zeros((6, len(ts) - 1))
    coef[0] = c[-1]
    for j in range(k - 2, -1, -1):        # the Newton form multiplied out, as Horner's rule
        coef[1:] = coef[:-1] - s[j] * coef[1:]
        coef[0] = c[j] - s[j] * coef[0]

    def taylor(t):
        inside = (t >= ts[0]) & (t < ts[-1])
        t = np.clip(t, ts[0], ts[-1])
        i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
        s0, p = (t - ts[i]) / width[i], coef[:, i]
        for j in range(5):        # shift the polynomial to s0 (Horner's rule, repeated)
            for r in range(4, j - 1, -1):
                p[r] += s0 * p[r + 1]
        p /= width[i] ** np.arange(6)[:, None]
        p[1:, ~inside] = 0.0
        return p
    return taylor


def _series_pieces(taylor, ts, T):
    """Nodes 0 = t_0 < ... < t_n = T and the Taylor coefficients (K, 2, n),
    in s = (t - t_i) / h_i, of the two basis solutions of y'' = -lam y on
    each piece: u (1, 0) and v / h (0, 1).  ``taylor`` maps times to the
    Taylor coefficients (6, len(t)) of lam there (``_quintic``).

    The pieces are the intervals between the samples ``ts``, each cut into
    equal sub-pieces so that sqrt(sum_j |p_j| h^j) h <= PIECE_PHASE for
    lam(t_i + r) = sum_j p_j r^j: the phase of a solution across a piece
    stays below pi, so a piece holds at most one zero, and the series sum
    with no cancellation beyond rounding.  With q_j = p_j h^(j+2), about
    each sub-piece's left end, the coefficients obey
    c_(k+2) = -sum_(j <= min(5, k)) q_j c_(k-j) / ((k+1)(k+2)); they are
    summed until the last two terms of a solution and of its derivative
    fall below rounding on every piece."""
    breaks = np.unique(np.clip(np.concatenate([[0.0, T], ts]), 0.0, T))
    h = np.diff(breaks)
    phase = np.sqrt(np.sum(np.abs(taylor(breaks[:-1])) * h ** np.arange(6)[:, None], axis=0)) * h
    cuts = np.maximum(1, np.ceil(phase / PIECE_PHASE)).astype(int)
    first = np.repeat(np.cumsum(cuts) - cuts, cuts)
    nodes = np.append(np.repeat(breaks[:-1], cuts)
                      + np.repeat(h / cuts, cuts) * (np.arange(first.size) - first), T)
    h = np.diff(nodes)
    q = taylor(nodes[:-1]) * h ** np.arange(2, 8)[:, None]
    series = [np.array([np.ones_like(h), np.zeros_like(h)]),
              np.array([np.zeros_like(h), np.ones_like(h)])]
    k = 0
    while k * np.max(np.abs(series[-2])) + (k + 1) * np.max(np.abs(series[-1])) > ROUNDING:
        series.append(-sum(q[j] * series[k - j] for j in range(min(5, k) + 1))
                      / ((k + 1) * (k + 2)))
        k += 1
    return nodes, np.array(series)


def bounds_report(K_samples, ts, m, T, detected_times, K_at=None) -> BoundsReport:
    """Assemble every bound and its verdict against the detected times.

    ``detected_times`` is a list of (t, multiplicity) pairs from the Jacobi
    pipeline.  With ``K_at`` (an array of times -> the stack of K there),
    the figures lambda_max, trK_min, the symmetry residual and each
    eigenline's kappa read the samples together with local ones around
    each figure's extremum among them (``_local_samples``), so the bound
    times and verdicts read refined figures.  Verdicts: ``consistent`` when
    the detections respect the bound, ``violated`` otherwise (which
    indicates an implementation bug), and ``not_applicable`` when a bound's
    hypotheses fail numerically."""
    K_samples = np.asarray(K_samples, dtype=float)
    det = sorted(t for t, _ in detected_times)
    lines = detect_parallel_eigenlines(K_samples)
    Ks = K_samples
    if K_at is not None:
        figures = [lambda K: -_max_sym_eig(K), _trace, lambda K: -_skew_ratio(K)]
        local = _local_samples(figures + [_along(e) for e, _ in lines], K_samples, ts, K_at)
        Ks = np.concatenate([K_samples, local])

    lam, t_c = theorem_safe_interval(Ks, T)
    safe_ok = all(t >= t_c - VERDICT_SLACK for t in det)
    verdicts = {"max_eig_bound": "consistent" if safe_ok else "violated"}

    T_star, kappa, sym_res, reason = theorem_trace_bound(Ks, m, T)
    if T_star is None:
        verdicts["trace_bound"] = "not_applicable"
    else:
        hit = any(t <= T_star + VERDICT_SLACK for t in det)
        verdicts["trace_bound"] = "consistent" if hit else "violated"

    tracks = []
    solved = []                   # (track, zeros): equal tracks share one solve
    sturm_ok = True
    near = lambda z, t: abs(z - t) <= VERDICT_SLACK * (1.0 + abs(z))
    for e, track in lines:
        kappa_i = float(np.min(_along(e)(Ks)))
        predicted = float(np.pi / np.sqrt(kappa_i)) if kappa_i > 0 else None
        zeros = next((z for tr, z in solved if np.array_equal(tr, track)), None)
        if zeros is None:
            zeros = sturm_zeros(ts, track, T)
            solved.append((track, zeros))
        if not all(any(near(z, t) for t in det) for z in zeros):
            sturm_ok = False
        tracks.append(EigenlineTrack(direction=e, kappa=kappa_i,
                                     predicted_first_zero=predicted,
                                     sturm_zeros=tuple(zeros)))
    if len(tracks) == m:
        # the lines span the frame: multiplicity counts the lines vanishing there
        sturm_ok &= all(mult == sum(any(near(z, t) for z in tr.sturm_zeros) for tr in tracks)
                        for t, mult in detected_times)
    verdicts["sturm_bound"] = ("not_applicable" if not tracks
                               else "consistent" if sturm_ok else "violated")

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
