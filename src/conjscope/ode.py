"""Dense-output integration and scalar event location.

Integration uses an explicit Dormand-Prince 5(4) pair with a quartic
continuous extension (scipy's RK45) wrapped behind a Trajectory value that
owns the step mesh, the per-step interpolants and the evaluation grid used
everywhere else for sampling, event search and report curves.

Event search comes in two kinds, both over samples the caller has already
taken on a grid: ``locate_events`` refines sign changes by bisection, and
``refined_minima`` refines discrete minima by golden-section search (the
caller decides which minima count as touching zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NonFiniteState, StepSizeUnderflow

DEFAULT_REL_TOL = 1e-11
DEFAULT_ABS_TOL = 1e-13
SAMPLES_PER_STEP = 8

__all__ = ["Trajectory", "integrate", "locate_events", "refine_minimum", "refined_minima", "dense_grid"]


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
        """Dense evaluation; scalar t -> (n,), array t -> (n, len(t))."""
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
        return dense_grid(self.steps)


def dense_grid(steps, per_step=SAMPLES_PER_STEP):
    """Every accepted step subdivided into ``per_step`` pieces."""
    steps = np.asarray(steps, dtype=float)
    parts = [
        np.linspace(steps[i], steps[i + 1], per_step, endpoint=False)
        for i in range(len(steps) - 1)
    ]
    parts.append(steps[-1:])
    return np.concatenate(parts)


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

    sol = solve_ivp(rhs, (0.0, float(T)), x0, method="RK45", dense_output=True,
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


def refined_minima(f, grid, values, interior=False):
    """(t_min, f_min) of each discrete local minimum of the samples ``values``
    of f on ``grid``, refined over its two neighbouring intervals.  The last
    grid point counts when not above its left neighbour, unless ``interior``."""
    last = len(grid) - 1
    out = []
    for i in range(1, last if interior else last + 1):
        right = min(i + 1, last)
        if values[i] <= values[i - 1] and values[i] <= values[right]:
            out.append(refine_minimum(f, grid[i - 1], grid[right]))
    return out


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
