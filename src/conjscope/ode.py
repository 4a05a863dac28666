"""Dense-output integration and scalar event location.

Integration uses the explicit eighth-order Dormand-Prince method with its
seventh-order continuous extension (scipy's DOP853; Hairer, Norsett &
Wanner, Solving ODEs I, II.5-II.6): about 15 right-hand-side evaluations
per accepted step, 12 for the step (the derivative at its end is the next
step's first stage) and 3 for the dense output.  ``integrate`` runs the step
loop itself and calls the right-hand side directly; scipy's ``DOP853`` class
is built once, only for f(0), the initial step and the validated
tolerances, and its class attributes give the tableau.  Every operation of
scipy's ``rk_step``, ``_step_impl``, ``_estimate_error_norm`` and
``_dense_output_impl`` keeps scipy's form and order on arrays of the same
layout, so the steps, the states, the coefficients and the counts are
bitwise the ones ``solve_ivp`` gives; finiteness is checked once per
attempt, on its stages.  After each accepted step the loop keeps the step's
seven dense-output coefficient rows, and all the steps' rows go into one
array.  A Trajectory owns the step mesh, the states
there, that array and the evaluation grid used everywhere else for sampling,
event search and report curves, and answers every lookup from them in one
vectorised pass; the grid cuts each step into ``SAMPLES_PER_STEP`` pieces,
and readers that need a finer spacing somewhere resample there
(``dip_points``).

A solve always ends.  DOP853 as published stops after NMAX steps and at a
step too small for the time it has reached (IDID = -2 and -3 in the code of
Hairer, Norsett & Wanner, 1993); here a solve raises StepSizeUnderflow,
with the time, the state, the last step and the steps taken, once an
accepted step short of T falls below ``MIN_STEP`` times T or the solve has
taken ``MAX_STEPS`` steps.  The catalog defaults never step below 9e-4 T
and take at most 72 steps; a force that blows up within the horizon
crosses the floor within a few hundred steps.

Event search comes in two kinds, both over samples the caller has already
taken on a grid: ``locate_events`` refines sign changes, and
``refined_minima`` refines discrete minima (the caller decides which minima
count as touching zero, may pass its cut so that minima that cannot reach
it are not refined, and may pass zeros it has found otherwise, so that the
minima around them are not refined again).  Both refine all their brackets together by multisection
(``_multisect``): each round samples ``SECTION_POINTS`` points inside every
open bracket in one call of f, which maps an array of times to an array of
values, and keeps a sub-interval of each.  Minima are sampled evenly in
every round.  Sign changes are sampled evenly in the first round only;
later rounds sample a narrow window about the false-position point of the
bracket's ends, so a bracket closes at float resolution in about four
rounds instead of about ten.  ``dip_points`` gives extra times around those
minima, for a caller that resamples before it searches, so that zeros
closer together than the grid spacing separate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import DOP853

from .errors import NonFiniteState, StepSizeUnderflow

DEFAULT_REL_TOL = 1e-13
DEFAULT_ABS_TOL = 1e-15
MIN_STEP = 1e-9           # smallest accepted step short of T, relative to T
MAX_STEPS = 20_000        # accepted steps of one solve
SAMPLES_PER_STEP = 8
DIP_POINTS = 256          # extra samples around each dip of a detection track
SECTION_POINTS = 16       # samples per bracket and round of the event searches
MINIMUM_TOL = 1e-12       # relative width at which a minimum's bracket closes
EVENT_ULPS = 4            # float spacings at which a sign change's bracket closes
WINDOW = 2.0 ** -12       # half-width of a sign change's later rounds, relative to its bracket

# scipy's DOP853 step control (scipy.integrate._ivp.rk) and interpolant size
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
INTERPOLATOR_POWER = 7

__all__ = ["Trajectory", "integrate", "locate_events", "refine_minimum", "refined_minima",
           "dip_points", "dense_grid"]


@dataclass(frozen=True)
class Trajectory:
    """Dense numerical solution of x' = field(x) on [0, T].

    ``steps`` are the accepted step endpoints; ``states`` the solution there.
    Evaluation between endpoints goes through the continuous extension of
    the step that holds t, whose coefficients are kept in one array;
    evaluation at an endpoint returns the stepped value exactly.
    """

    t_span: tuple
    steps: np.ndarray
    states: np.ndarray          # shape (len(steps), n)
    rel_tol: float
    abs_tol: float
    n_steps: int
    n_rhs_evals: int              # 2 + 12 (n_steps + n_rejected) + 3 n_steps
    n_rejected: int               # attempts the error test rejected
    _coef: np.ndarray = field(repr=False)    # shape (7, n, n_steps): step k's F[p] in [p, :, k]

    @property
    def T(self):
        return self.t_span[1]

    def at(self, t):
        """Dense evaluation; scalar t -> (n,), array t -> (n, len(t)).  Every
        reader of the array ``grid()`` shares one cached, read-only lookup."""
        if np.ndim(t) and t is self.grid():
            return self._grid_states
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < self.t_span[0] - 1e-12) or np.any(t_arr > self.t_span[1] + 1e-12):
            raise ValueError(f"dense evaluation outside [{self.t_span[0]}, {self.t_span[1]}]")
        return self._lookup(t_arr)

    def _lookup(self, t):
        """The solution at the times t (0-d or 1-d float array): the stored
        state at a step endpoint, else the continuous extension of the step
        that holds t (the first step before 0, the last past T), evaluated
        with the operations of scipy's ``Dop853DenseOutput`` in their order,
        so that every value has the bits scipy's ``OdeSolution`` gives."""
        ts = t.reshape(-1)
        end = np.minimum(np.searchsorted(self.steps, ts), self.n_steps)
        hit = self.steps[end] == ts
        seg = np.maximum(end - 1, 0)
        t_old = self.steps[seg]
        x = (ts - t_old) / (self.steps[seg + 1] - t_old)
        powers = (x, 1 - x)
        y = np.zeros((self._coef.shape[1], len(ts)))
        for i, coef in enumerate(self._coef[::-1]):    # a power at a time: one gather alive
            y += np.take(coef, seg, axis=1)
            y *= powers[i % 2]
        y += self.states[seg].T
        y[:, hit] = self.states[end[hit]].T
        return y if t.ndim else y[:, 0]

    def grid(self):
        """``dense_grid`` of the steps: one read-only array, computed once."""
        return self._grid

    @cached_property
    def _grid(self):
        return _read_only(dense_grid(self.steps))

    @cached_property
    def _grid_states(self):
        return _read_only(self.at(self._grid.copy()))   # a copy is looked up


def _read_only(a):
    a.flags.writeable = False
    return a


def dense_grid(steps):
    """Every accepted step subdivided into SAMPLES_PER_STEP pieces, each
    step's points as ``np.linspace(a, b, SAMPLES_PER_STEP, endpoint=False)``
    computes them."""
    steps = np.asarray(steps, dtype=float)
    a = steps[:-1, None]
    pieces = np.arange(SAMPLES_PER_STEP) * ((steps[1:, None] - a) / SAMPLES_PER_STEP) + a
    return np.concatenate([pieces.ravel(), steps[-1:]])


def integrate(field, x0, T, rel_tol=DEFAULT_REL_TOL, abs_tol=DEFAULT_ABS_TOL) -> Trajectory:
    """Integrate x' = field(x) over [0, T] with dense output.

    Deterministic for fixed inputs.  Raises NonFiniteState if the right-hand
    side returns NaN/inf, StepSizeUnderflow if the step control collapses:
    scipy's own stop, an accepted step short of T below MIN_STEP * T, or
    MAX_STEPS steps taken before T.  The loop is scipy's DOP853 step loop
    (see the module docstring); the time argument scipy would pass the
    right-hand side is not formed, since ``field`` does not read it.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    x0 = np.asarray(x0, dtype=float)
    T = float(T)

    def rhs(t, x):
        dx = np.asarray(field(x), dtype=float)
        if not np.isfinite(dx).all():
            raise NonFiniteState(f"non-finite derivative at t={t}")
        return dx

    start = DOP853(rhs, 0.0, x0, T, rtol=rel_tol, atol=abs_tol)
    rtol, atol, exponent = start.rtol, start.atol, start.error_exponent
    t, y, f, h_abs = start.t, start.y, start.f, start.h_abs
    n = len(y)
    # scipy's stage block: the 12 stages, f(t + h), the 3 dense-output stages
    K_ext = np.empty((DOP853.n_stages + 1 + len(DOP853.A_EXTRA), n))
    K = K_ext[:DOP853.n_stages + 1]
    stages = [(s, K[:s].T, a[:s]) for s, a in enumerate(DOP853.A[1:], start=1)]
    extra = [(s, K_ext[:s].T, a[:s]) for s, a in enumerate(DOP853.A_EXTRA, start=len(K))]
    K_T, K_head_T = K.T, K[:-1].T
    B, E3, E5, D = DOP853.B, DOP853.E3, DOP853.E5, DOP853.D
    steps, states, coefs = [t], [y], []
    n_evals, n_rejected = start.nfev, 0
    while True:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        step_start = h_abs
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:                # attempts: rk_step and the error test
            if h_abs < min_step:
                raise StepSizeUnderflow(
                    "Required step size is less than spacing between numbers.", t=float(t),
                    point=y, step=step_start, n_steps=len(coefs))
            t_new = t + h_abs
            if t_new - T > 0:
                t_new = T
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            try:
                for s, KsT, a in stages:
                    K[s] = field(y + np.dot(KsT, a) * h)
                s += 1
                y_new = y + h * np.dot(K_head_T, B)
                K[s] = field(y_new)
            except Exception as err:
                # an evaluation at a point that a non-finite stage led to
                # fails because of that stage
                if np.isfinite(K[:s]).all():
                    raise
                raise NonFiniteState(f"non-finite derivative near t={t}") from err
            n_evals += 12
            if not np.isfinite(K).all():
                raise NonFiniteState(f"non-finite derivative in the step from t={t}")
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.dot(K_T, E5) / scale
            err3 = np.dot(K_T, E3) / scale
            err5_norm_2 = np.sqrt(err5.dot(err5)) ** 2     # np.linalg.norm's 1-d path
            err3_norm_2 = np.sqrt(err3.dot(err3)) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = np.abs(h) * err5_norm_2 / np.sqrt(denom * n)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** exponent)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** exponent)
            rejected = True
            n_rejected += 1
        y_old, y, f_old, f = y, y_new, K[0], K[-1].copy()
        for s, KsT, a in extra:    # the dense output of the accepted step
            K_ext[s] = field(y_old + np.dot(KsT, a) * h)
        n_evals += 3
        F = np.empty((INTERPOLATOR_POWER, n))
        delta_y = y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f + f_old)
        F[3:] = h * np.dot(D, K_ext)
        coefs.append(F)
        t = t_new
        steps.append(t)
        states.append(y)
        if t - T >= 0:
            break
        if h < MIN_STEP * T or len(coefs) >= MAX_STEPS:
            reason = (f"step {h:.3e} below {MIN_STEP:g} T" if h < MIN_STEP * T
                      else "step budget spent")
            raise StepSizeUnderflow(
                f"solve stalled: {reason} at t={t:.17g} of T={T!r} after {len(coefs)}"
                " steps", t=float(t), point=y, step=h, n_steps=len(coefs))
    states = np.array(states)
    coef = np.stack(coefs, axis=-1)
    if not (np.isfinite(states).all() and np.isfinite(coef).all()):
        raise NonFiniteState("integration produced non-finite state")
    return Trajectory(
        t_span=(0.0, T),
        steps=np.array(steps),
        states=states,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        n_steps=len(coefs),
        n_rhs_evals=n_evals,
        n_rejected=n_rejected,
        _coef=coef,
    )


def _multisect(f, lo, hi, narrow, closed, place=None):
    """Shrink every bracket [lo_i, hi_i] (1-d arrays, narrowed in place) by
    rounds of ``SECTION_POINTS`` interior samples, one call of f over the
    samples of every open bracket per round.  The first round spaces them
    evenly; later rounds do too, unless ``place(idx, lo, hi)`` gives them:
    the sample times, shape (len(idx), SECTION_POINTS), of the brackets
    ``idx`` with ends ``lo`` and ``hi``.  ``narrow(idx, ts, values)``
    returns the new ends of the brackets ``idx`` from their times ``ts``
    (ends included, shape (len(idx), SECTION_POINTS + 2)) and interior
    ``values``; a bracket closes once ``closed(lo, hi)`` holds for it, or
    when a round leaves it as it was (its samples have run into its ends).
    A bracket's rounds depend on its own ends and samples alone, whatever
    the placement."""
    idx = np.arange(len(lo))
    sample = _even
    while idx.size:
        inner = sample(idx, lo[idx], hi[idx])
        ts = np.column_stack([lo[idx], inner, hi[idx]])
        values = np.asarray(f(inner.ravel()), dtype=float).reshape(inner.shape)
        before = lo[idx], hi[idx]
        lo[idx], hi[idx] = narrow(idx, ts, values)
        still = (lo[idx] == before[0]) & (hi[idx] == before[1])
        idx = idx[~(closed(lo[idx], hi[idx]) | still)]
        sample = place or _even


def _even(idx, lo, hi):
    """``SECTION_POINTS`` evenly spaced interior points of each bracket."""
    h = (hi - lo) / (SECTION_POINTS + 1)
    return lo[:, None] + h[:, None] * np.arange(1, SECTION_POINTS + 1)


def _brackets(a, b):
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return lo.shape, lo.ravel().copy(), hi.ravel().copy()


def refine_minimum(f, a, b):
    """Minimum of f on every bracket [a, b] by multisection; returns (t_min,
    f_min) of the shape of the bracket ends (scalars or equal-shape arrays).
    ``f`` maps an array of times to an array of values.  Each round keeps the
    two sub-intervals around the smallest sample, until the bracket is
    narrower than MINIMUM_TOL (1 + |a| + |b|); the result is that sample."""
    shape, lo, hi = _brackets(a, b)
    t_min, f_min = np.empty_like(lo), np.empty_like(lo)

    def narrow(idx, ts, values):
        rows, k = np.arange(len(idx)), np.argmin(values, axis=1) + 1
        t_min[idx], f_min[idx] = ts[rows, k], values[rows, k - 1]
        return ts[rows, k - 1], ts[rows, k + 1]

    _multisect(f, lo, hi, narrow,
               lambda lo, hi: hi - lo < MINIMUM_TOL * (1.0 + np.abs(lo) + np.abs(hi)))
    return t_min.reshape(shape)[()], f_min.reshape(shape)[()]


def refined_minima(f, grid, values, interior=False, cut=None, skip=()):
    """(t_min, f_min) of each discrete local minimum of the samples ``values``
    of f on ``grid`` (``_minima``), refined over its two neighbouring
    intervals; one ``refine_minimum`` call takes every bracket, so f maps an
    array of times to an array of values.  A minimum whose bracket holds
    one of the sorted times ``skip`` (zeros found otherwise) is dropped."""
    found = np.array(_minima(grid, values, interior, cut), dtype=int).reshape(-1, 2)
    grid = np.asarray(grid, dtype=float)
    lo, hi = grid[found[:, 0] - 1], grid[found[:, 1]]
    keep = np.searchsorted(skip, lo) == np.searchsorted(skip, hi, side="right")
    if not keep.any():
        return []
    t_min, f_min = refine_minimum(f, lo[keep], hi[keep])
    return list(zip(t_min.tolist(), f_min.tolist()))


def _minima(grid, values, interior=False, cut=None):
    """(i, right) of each discrete local minimum i of the samples ``values``
    on ``grid``, with ``right`` its right neighbour (i itself at the end).
    The last grid point counts when not above its left neighbour, unless
    ``interior``.

    With ``cut``, only minima that can fall to ``cut`` count.  Near a kink
    |t - t0| or a parabola about its minimum, f falls below the sample by at
    most the slope to the steeper neighbour times the wider interval; a
    sample above ``cut`` by more than that is a plateau or a shallow dip."""
    last = len(grid) - 1
    values = np.asarray(values)
    idx = np.arange(1, last if interior else last + 1)
    right = np.minimum(idx + 1, last)
    low = (values[idx] <= values[idx - 1]) & (values[idx] <= values[right])
    return [(i, r) for i, r in zip(idx[low].tolist(), right[low].tolist())
            if cut is None or values[i] - _reach(grid, values, i, r) <= cut]


def dip_points(grid, values, cut):
    """Sorted times that resample the two intervals around each minimum of
    ``values`` on ``grid`` that can fall to ``cut`` (``_minima``, the last
    grid point included): DIP_POINTS / 2 evenly spaced points inside each
    interval, an interval two dips share once.  Merged into the grid, they
    resolve zeros closer together than the grid spacing."""
    ends = sorted({j for i, right in _minima(grid, values, cut=cut) for j in (i, right)})
    parts = [np.linspace(grid[j - 1], grid[j], DIP_POINTS // 2 + 2)[1:-1] for j in ends]
    return np.concatenate(parts) if parts else np.empty(0)


def _reach(grid, values, i, right):
    sides = [(grid[i] - grid[i - 1], values[i - 1] - values[i])]
    if right > i:
        sides.append((grid[right] - grid[i], values[right] - values[i]))
    return max(rise / h for h, rise in sides) * max(h for h, _ in sides)


def locate_events(f, grid, values):
    """Sign changes of a scalar function f sampled as ``values`` on ``grid``.

    ``f`` maps an array of times to an array of values.  Every change of sign
    between adjacent samples is refined by multisection, all together: each
    round keeps the first sub-interval whose ends differ in sign, until it is
    at most EVENT_ULPS spacings of floats wide at its larger end, or a round
    no longer narrows it, and returns its midpoint; a sample that is exactly
    zero ahead of the first change is returned.  The first round samples
    evenly; each later one samples a window of +-WINDOW of the bracket's
    width, at least EVENT_ULPS spacings wide and clipped inside the bracket,
    about the false-position point of the bracket's ends (Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 4): on a smooth f the
    window holds the zero from the second round on, so a bracket closes in
    about four rounds, and a window that misses keeps one side of it and is
    placed again.  A grid sample that is exactly zero counts when its two
    neighbours have opposite signs.  Nothing is reported at the edges of
    the grid, and zeros where f touches without changing sign are not found
    here (refine the minima of |f| with ``refined_minima`` for those).
    Returns the sorted times."""
    grid, values = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    change = np.flatnonzero(values[:-1] * values[1:] < 0.0)
    zero = 1 + np.flatnonzero((values[1:-1] == 0.0) & (values[:-2] * values[2:] < 0.0))
    _, lo, hi = _brackets(grid[change], grid[change + 1])
    negative = values[change] < 0.0
    f_lo, f_hi = values[change], values[change + 1]      # f at each bracket's ends

    def narrow(idx, ts, values):
        # keep the sub-interval that ends at the first sample exactly zero or
        # across zero from the left end (the right end when none is); a zero
        # closes its bracket on itself
        zero = np.column_stack([values == 0.0, np.zeros(len(idx), bool)])
        across = np.column_stack([(values < 0.0) != negative[idx, None], np.ones(len(idx), bool)])
        rows, k = np.arange(len(idx)), np.argmax(zero | across, axis=1) + 1
        left = np.where(zero[rows, k - 1], k, k - 1)
        full = np.column_stack([f_lo[idx], values, f_hi[idx]])
        f_lo[idx], f_hi[idx] = full[rows, left], full[rows, k]
        return ts[rows, left], ts[rows, k]

    def place(idx, lo, hi):
        # the ends differ in sign, so the false-position point lies in the bracket
        width = hi - lo
        at = lo + width * (f_lo[idx] / (f_lo[idx] - f_hi[idx]))
        half = np.maximum(WINDOW * width, 0.5 * EVENT_ULPS * _spacing(lo, hi))
        return np.linspace(np.maximum(at - half, lo), np.minimum(at + half, hi), SECTION_POINTS,
                           axis=-1)

    _multisect(f, lo, hi, narrow, lambda lo, hi: hi - lo <= EVENT_ULPS * _spacing(lo, hi), place)
    return np.sort(np.concatenate([0.5 * (lo + hi), grid[zero]])).tolist()


def _spacing(lo, hi):
    """Spacing of floats at the larger end of each bracket."""
    return np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
