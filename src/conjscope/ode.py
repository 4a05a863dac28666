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
taken on a grid: ``locate_events`` refines sign changes by bisection, and
``refined_minima`` refines discrete minima by golden-section search (the
caller decides which minima count as touching zero, and may pass its cut so
that minima that cannot reach it are not refined).  ``dip_points`` gives
extra times around those minima, for a caller that resamples before it
searches, so that zeros closer together than the grid spacing separate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NonFiniteState, StepSizeUnderflow

DEFAULT_REL_TOL = 1e-13
DEFAULT_ABS_TOL = 1e-15
SAMPLES_PER_STEP = 8
DIP_POINTS = 256          # extra samples around each dip of a detection track

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


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def refine_minimum(f, a, b, tol=1e-12, max_iter=200):
    """Golden-section minimum of f on [a, b]; returns (t_min, f_min)."""
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a < tol * (1.0 + abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
    if f1 <= f2:
        return x1, f1
    return x2, f2


def refined_minima(f, grid, values, interior=False, cut=None):
    """(t_min, f_min) of each discrete local minimum of the samples ``values``
    of f on ``grid`` (``_minima``), refined over its two neighbouring
    intervals."""
    return [refine_minimum(f, grid[i - 1], grid[right])
            for i, right in _minima(grid, values, interior, cut)]


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


def _bisect(f, a, b, fa, fb, tol=1e-13, max_iter=200):
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        if b - a < tol * (1.0 + abs(mid)):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fa < 0.0) != (fm < 0.0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def locate_events(f, grid, values):
    """Sign changes of a scalar function f sampled as ``values`` on ``grid``.

    Each change of sign between adjacent samples is refined by bisection of
    f; a sample that is exactly zero counts when its two neighbours have
    opposite signs.  Nothing is reported at the edges of the grid, and zeros
    where f touches without changing sign are not found here (refine the
    minima of |f| with ``refined_minima`` for those).  Returns the sorted
    times."""
    events = []
    for i in range(len(grid) - 1):
        fa, fb = values[i], values[i + 1]
        if fa == 0.0:
            if i > 0 and values[i - 1] * fb < 0.0:
                events.append(grid[i])
        elif fa * fb < 0.0:
            events.append(_bisect(f, grid[i], grid[i + 1], fa, fb))
    return events
