"""Dense-output integration and scalar event location.

Integration uses the explicit eighth-order Dormand-Prince method with its
seventh-order continuous extension (scipy's DOP853; Hairer, Norsett &
Wanner, Solving ODEs I, II.5-II.6): about 15 right-hand-side evaluations
per accepted step, 12 for the step (the derivative at its end is the next
step's first stage) and 3 for the dense output.  A Trajectory value wraps
it and owns the step mesh, the per-step interpolants and the evaluation
grid used everywhere else for sampling, event search and report curves;
the grid cuts each step into ``SAMPLES_PER_STEP`` pieces, and readers that
need a finer spacing somewhere resample there (``dip_points``).

Event search comes in two kinds, both over samples the caller has already
taken on a grid: ``locate_events`` refines sign changes, and
``refined_minima`` refines discrete minima (the caller decides which minima
count as touching zero, and may pass its cut so that minima that cannot reach
it are not refined).  Both refine all their brackets together by
multisection: each round samples ``SECTION_POINTS`` evenly spaced points
inside every open bracket in one call of f, which maps an array of times to
an array of values, and keeps a sub-interval of each.  ``dip_points`` gives
extra times around those minima, for a caller that resamples before it
searches, so that zeros closer together than the grid spacing separate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NonFiniteState, StepSizeUnderflow

DEFAULT_REL_TOL = 1e-13
DEFAULT_ABS_TOL = 1e-15
SAMPLES_PER_STEP = 8
DIP_POINTS = 256          # extra samples around each dip of a detection track
SECTION_POINTS = 16       # samples per bracket and round of the event searches

__all__ = ["Trajectory", "integrate", "locate_events", "refine_minimum", "refined_minima",
           "dip_points", "dense_grid"]


@dataclass(frozen=True)
class Trajectory:
    """Dense numerical solution of x' = field(x) on [0, T].

    ``steps`` are the accepted step endpoints; ``states`` the solution there.
    Evaluation between endpoints goes through the stored continuous extension
    of each Runge-Kutta step; evaluation at an endpoint returns the stepped
    value exactly.
    """

    x0: np.ndarray
    t_span: tuple
    steps: np.ndarray
    states: np.ndarray          # shape (len(steps), n)
    rel_tol: float
    abs_tol: float
    n_steps: int
    n_rhs_evals: int
    _sol: object = field(repr=False)

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
        if t_arr.ndim == 0:
            idx = np.searchsorted(self.steps, float(t_arr))
            if idx < len(self.steps) and self.steps[idx] == t_arr:
                return self.states[idx].copy()
            return np.asarray(self._sol(float(t_arr)), dtype=float)
        out = np.asarray(self._sol(t_arr), dtype=float)
        idx = np.minimum(np.searchsorted(self.steps, t_arr), len(self.steps) - 1)
        hit = self.steps[idx] == t_arr
        out[:, hit] = self.states[idx[hit]].T
        return out

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


def dense_grid(steps, per_step=SAMPLES_PER_STEP):
    """Every accepted step subdivided into ``per_step`` pieces."""
    steps = np.asarray(steps, dtype=float)
    parts = [np.linspace(a, b, per_step, endpoint=False) for a, b in zip(steps[:-1], steps[1:])]
    return np.concatenate(parts + [steps[-1:]])


def integrate(field, x0, T, rel_tol=DEFAULT_REL_TOL, abs_tol=DEFAULT_ABS_TOL) -> Trajectory:
    """Integrate x' = field(x) over [0, T] with dense output.

    Deterministic for fixed inputs.  Raises NonFiniteState if the right-hand
    side returns NaN/inf, StepSizeUnderflow if the step control collapses.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    x0 = np.asarray(x0, dtype=float)

    def rhs(t, x):
        dx = np.asarray(field(x), dtype=float)
        if not np.all(np.isfinite(dx)):
            raise NonFiniteState(f"non-finite derivative at t={t}")
        return dx

    sol = solve_ivp(rhs, (0.0, float(T)), x0, method="DOP853", dense_output=True,
                    rtol=rel_tol, atol=abs_tol)
    if sol.status != 0:
        raise StepSizeUnderflow(sol.message)
    if not np.all(np.isfinite(sol.y)):
        raise NonFiniteState("integration produced non-finite state")
    return Trajectory(
        x0=x0,
        t_span=(0.0, float(T)),
        steps=sol.t,
        states=sol.y.T.copy(),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        n_steps=len(sol.t) - 1,
        n_rhs_evals=sol.nfev,
        _sol=sol.sol,
    )


def _multisect(f, lo, hi, narrow, tol):
    """Shrink every bracket [lo_i, hi_i] (1-d arrays, narrowed in place) by
    rounds of ``SECTION_POINTS`` evenly spaced interior samples, one call of
    f over the samples of every open bracket per round.  ``narrow(idx, ts,
    values)`` returns the new ends of the brackets ``idx`` from their times
    ``ts`` (ends included, shape (len(idx), SECTION_POINTS + 2)) and interior
    ``values``; a bracket closes once its width falls below ``tol(lo, hi)``.
    A bracket's rounds depend on its own ends and samples alone."""
    idx = np.arange(len(lo))
    while idx.size:
        h = (hi[idx] - lo[idx]) / (SECTION_POINTS + 1)
        inner = lo[idx, None] + h[:, None] * np.arange(1, SECTION_POINTS + 1)
        ts = np.column_stack([lo[idx], inner, hi[idx]])
        values = np.asarray(f(inner.ravel()), dtype=float).reshape(inner.shape)
        lo[idx], hi[idx] = narrow(idx, ts, values)
        idx = idx[hi[idx] - lo[idx] >= tol(lo[idx], hi[idx])]


def _brackets(a, b):
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return lo.shape, lo.ravel().copy(), hi.ravel().copy()


def refine_minimum(f, a, b, tol=1e-12):
    """Minimum of f on every bracket [a, b] by multisection; returns (t_min,
    f_min) of the shape of the bracket ends (scalars or equal-shape arrays).
    ``f`` maps an array of times to an array of values.  Each round keeps the
    two sub-intervals around the smallest sample, until the bracket is
    narrower than tol (1 + |a| + |b|); the result is that sample."""
    shape, lo, hi = _brackets(a, b)
    t_min, f_min = np.empty_like(lo), np.empty_like(lo)

    def narrow(idx, ts, values):
        rows, k = np.arange(len(idx)), np.argmin(values, axis=1) + 1
        t_min[idx], f_min[idx] = ts[rows, k], values[rows, k - 1]
        return ts[rows, k - 1], ts[rows, k + 1]

    _multisect(f, lo, hi, narrow, lambda lo, hi: tol * (1.0 + np.abs(lo) + np.abs(hi)))
    return t_min.reshape(shape)[()], f_min.reshape(shape)[()]


def refined_minima(f, grid, values, interior=False, cut=None):
    """(t_min, f_min) of each discrete local minimum of the samples ``values``
    of f on ``grid`` (``_minima``), refined over its two neighbouring
    intervals; one ``refine_minimum`` call takes every bracket, so f maps an
    array of times to an array of values."""
    found = np.array(_minima(grid, values, interior, cut), dtype=int).reshape(-1, 2)
    if not len(found):
        return []
    grid = np.asarray(grid, dtype=float)
    t_min, f_min = refine_minimum(f, grid[found[:, 0] - 1], grid[found[:, 1]])
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
    narrower than 1e-13 (1 + |mid|), and returns its midpoint; a sample that
    is exactly zero ahead of the first change is returned.  A grid sample that is exactly zero counts when
    its two neighbours have opposite signs.  Nothing is reported at the edges
    of the grid, and zeros where f touches without changing sign are not
    found here (refine the minima of |f| with ``refined_minima`` for those).
    Returns the sorted times."""
    grid, values = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    change = np.flatnonzero(values[:-1] * values[1:] < 0.0)
    zero = 1 + np.flatnonzero((values[1:-1] == 0.0) & (values[:-2] * values[2:] < 0.0))
    _, lo, hi = _brackets(grid[change], grid[change + 1])
    negative = values[change] < 0.0

    def narrow(idx, ts, values):
        # keep the sub-interval that ends at the first sample exactly zero or
        # across zero from the left end (the right end when none is); a zero
        # closes its bracket on itself
        zero = np.column_stack([values == 0.0, np.zeros(len(idx), bool)])
        across = np.column_stack([(values < 0.0) != negative[idx, None], np.ones(len(idx), bool)])
        rows, k = np.arange(len(idx)), np.argmax(zero | across, axis=1) + 1
        return np.where(zero[rows, k - 1], ts[rows, k], ts[rows, k - 1]), ts[rows, k]

    _multisect(f, lo, hi, narrow, lambda lo, hi: 1e-13 * (1.0 + np.abs(0.5 * (lo + hi))))
    return np.sort(np.concatenate([0.5 * (lo + hi), grid[zero]])).tolist()
