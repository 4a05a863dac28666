"""Dynamic pairs: a vector field X together with a rank-m distribution V.

A pair is either given directly (expression-valued X and a frame of V) or
lifted from a system of second order ODEs x'' = F(t, x, x').  The module
computes Lie brackets and iterated brackets exactly through hyper-dual AD,
extracts the structure matrices H0, H1 of the iterated bracket relation (the
Jacobi solve reads them alone), evaluates the curvature operator and checks
the regularity conditions.

The bracket and curvature functions take one point or a stack of points, and
readers of a grid call them once per block of BLOCK points (``on_blocks``):
one array-kernel call jets a whole block, and the linear algebra after it is
batched over the block.  ``structure_at``, the Jacobi right-hand side's one
pair call, takes one point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgels as _dgels, dtrcon as _dtrcon

from . import scalar
from .errors import RegularityViolation
from .scalar import ExprProgram, Field, evaluate, parse

COND_LIMIT = 1e8
INVARIANCE_TOL = 1e-6
_EPS = np.finfo(float).eps

__all__ = [
    "SODEModel",
    "GenericPair",
    "PointFrameData",
    "RegularityReport",
    "lift_sode",
    "extract_H",
    "structure_at",
    "curvature_frame",
    "sode_curvature",
    "flow_derivative_H1",
    "check_regularity",
]


def _as_expr(e) -> ExprProgram:
    return e if isinstance(e, ExprProgram) else parse(e)


@dataclass(frozen=True)
class SODEModel:
    """System x_i'' = F_i(t, x, x'), stored with x' renamed to y.

    ``autonomous`` systems must not reference t and are analysed on the
    2m-dimensional (x, y) space; otherwise t becomes the first coordinate of
    the lifted 2m+1 dimensional space.
    """

    m: int
    F: tuple                      # m ExprPrograms in (t, x1..xm, y1..ym)
    autonomous: bool = False
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "F", Field(_as_expr(f) for f in self.F))
        if len(self.F) != self.m:
            raise ValueError(f"expected {self.m} force components, got {len(self.F)}")
        if self.autonomous:
            for f in self.F:
                if "t" in f.free_vars:
                    raise ValueError("autonomous system must not reference t")

    @property
    def coord_names(self):
        names = [f"x{i+1}" for i in range(self.m)] + [f"y{i+1}" for i in range(self.m)]
        return tuple(names if self.autonomous else ["t"] + names)

    def force_bindings(self, t, x, y):
        env = dict(self.params)
        env["t"] = t
        for i in range(self.m):
            env[f"x{i+1}"] = x[i]
            env[f"y{i+1}"] = y[i]
        return env


@dataclass(frozen=True)
class GenericPair:
    """Expression-valued pair: X (n components) and a frame of V (n x m).

    ``vframe[j]`` is the j-th frame column.  ``sode`` optionally points back
    at the second-order system the pair was lifted from, which unlocks exact
    closed-form curvature along X.
    """

    coords: tuple
    X: tuple
    vframe: tuple                 # m columns, each a tuple of n ExprPrograms
    params: dict = field(default_factory=dict)
    sode: SODEModel | None = None

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        object.__setattr__(self, "X", Field(_as_expr(e) for e in self.X))
        object.__setattr__(
            self, "vframe",
            tuple(tuple(_as_expr(e) for e in col) for col in self.vframe),
        )
        n = len(self.coords)
        if len(self.X) != n:
            raise ValueError("X must have one component per coordinate")
        for col in self.vframe:
            if len(col) != n:
                raise ValueError("every frame column must have one component per coordinate")

    @property
    def n(self):
        return len(self.coords)

    @property
    def m(self):
        return len(self.vframe)

    @cached_property
    def stacked(self):
        """X followed by the m frame columns as one Field, so that one kernel
        call jets the whole pair."""
        return Field(self.X + tuple(e for col in self.vframe for e in col))

    def bindings(self, x):
        """The parameters and the coordinates of x: reals for one point
        (n,), arrays over the points for an (n, N) stack."""
        x = np.asarray(x, dtype=float)
        env = dict(self.params)
        env.update(zip(self.coords, x.tolist() if x.ndim == 1 else x))
        return env

    def X_at(self, x):
        return evaluate(self.X, self.bindings(x))

    def field_callable(self):
        return lambda x: self.X_at(x)


def lift_sode(model: SODEModel) -> GenericPair:
    """Total-derivative lift: X = d/dt + sum y_i d/dx_i + sum F_i d/dy_i with
    V spanned by the d/dy_i; the t coordinate is dropped for autonomous
    systems."""
    m = model.m
    names = model.coord_names
    n = len(names)
    X = []
    if not model.autonomous:
        X.append(scalar.const_expr(1.0))
    X += [scalar.var_expr(f"y{i+1}") for i in range(m)]
    X += list(model.F)
    vframe = []
    for j in range(m):
        col = [scalar.const_expr(0.0)] * n
        col[names.index(f"y{j+1}")] = scalar.const_expr(1.0)
        vframe.append(tuple(col))
    return GenericPair(coords=names, X=tuple(X), vframe=tuple(vframe),
                       params=dict(model.params), sode=model)


def as_pair(model: SODEModel | GenericPair) -> GenericPair:
    return lift_sode(model) if isinstance(model, SODEModel) else model


def full_x0(model, pair: GenericPair, x0):
    """The initial point on the pair's space: a leading t = 0 is added to the
    2m state of a nonautonomous second-order model.  Raises ValueError when
    the length does not fit the pair."""
    x0 = np.asarray(x0, dtype=float)
    if isinstance(model, SODEModel) and not model.autonomous and len(x0) == 2 * model.m:
        return np.concatenate([[0.0], x0])
    if len(x0) != pair.n:
        raise ValueError(f"x0 must have {pair.n} components (got {len(x0)})")
    return x0


# -- jets of expression-valued vector fields ---------------------------------
#
# Every function below but ``structure_at`` takes one point x of shape (n,) or
# a stack of N points as the columns of an (n, N) array, and is written once,
# for stacks: a point is a stack of one, and its outputs lose the leading
# point axis that the outputs of a stack carry.  A stack binds each coordinate
# to an array, so one array-kernel call jets every point
# (``scalar.second_partials``); one point binds reals and runs the scalar
# kernel, whose outputs ``_lead`` gives the point axis.  Each point of a stack
# goes through the same per-point matrix products as it does alone, so it
# gives the same bits.

# points per call on a grid: bounds the memory of the jets of a block, which
# for a generic curvature cover three points per grid point
BLOCK = 64


def on_blocks(fn, x):
    """``fn`` over the points of x: one call for one point or for a stack of
    at most BLOCK points, otherwise one call per BLOCK columns, with the
    outputs (an array or a tuple of arrays) joined along the point axis."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1 or x.shape[1] <= BLOCK:
        return fn(x)
    parts = [fn(x[:, k:k + BLOCK]) for k in range(0, x.shape[1], BLOCK)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _stack(x):
    """x as an (n, N) stack, and whether it was one point."""
    x = np.asarray(x, dtype=float)
    return (x[:, None], True) if x.ndim == 1 else (x, False)


def _lead(one, *arrays):
    """Outputs of a one-point evaluation with the point axis of a stack's."""
    return tuple(a[None] for a in arrays) if one else arrays


def _unstack(one, *arrays):
    return tuple(a[0] for a in arrays) if one else arrays


def _T(A):
    """Each matrix of a stack transposed."""
    return A.swapaxes(-1, -2)


def _rows(A, rows):
    """A applied to each vector of a stack ``rows`` (stacks broadcast)."""
    return (A @ rows[..., None])[..., 0]


def _norms(rows):
    """Euclidean norm of each row, summed along the row alone."""
    return np.sqrt(np.add.reduce(np.square(rows, order="C"), axis=-1))


def _fro(A):
    """Frobenius norm of each matrix of a stack."""
    return _norms(A.reshape(A.shape[:-2] + (-1,)))


def _jet(exprs, coords, env, u):
    """Value, Jacobian and direction-contracted Hessian of a vector field.

    ``env`` binds every variable at the points and ``u`` maps names to the
    components of the direction.  Returns (val[k], J[k,n], Hu[k,n]) with
    Hu[i,b] = sum_j u_j d2 f_i / dx_b dx_j over the n names in ``coords``,
    each with a leading point axis for bindings of arrays; one engine call."""
    val, _, J, Hu = scalar.second_partials(exprs, env, u, coords)
    return val, J, Hu


def _jacobian(exprs, coords, env):
    """Value and Jacobian over the names in ``coords``; one engine call."""
    val, _, J, _ = scalar.second_partials(exprs, env, {}, coords)
    return val, J


def _lstsq(D, B):
    """Least-squares solution S of D S = B, the condition number of D and the
    relative residual |D S - B| / |B|, all from one SVD of D; stacks of D
    and B solve matrix by matrix in one batched SVD.

    Singular values at or below numpy lstsq's cutoff eps * max(D.shape) * s_max
    are dropped, so a singular D (cond = inf) still gives a finite solution
    and residual."""
    U, s, Vt = np.linalg.svd(D, full_matrices=False)
    keep = s > _EPS * max(D.shape[-2:]) * s[..., :1]
    S = _T(Vt) @ ((_T(U) @ B) / np.where(keep, s, np.inf)[..., None])
    cond = np.divide(s[..., 0], s[..., -1], out=np.full(s.shape[:-1], np.inf),
                     where=s[..., -1] > 0.0)
    scale = _fro(B)
    residual = _fro(D @ S - B) / np.where(scale > 0, scale, 1.0)
    return S, cond, residual


@dataclass(frozen=True)
class PointFrameData:
    """Frame, first and second iterated brackets and the structure matrices
    of the relation [X,[X,V]] = V H0 + [X,V] H1 at one point, or at a stack
    of points (every field then has a leading point axis)."""

    point: np.ndarray
    X: np.ndarray
    V: np.ndarray                 # n x m
    XV: np.ndarray                # n x m, columns [X, V_j]
    XXV: np.ndarray               # n x m, columns [X, [X, V_j]]
    H0: np.ndarray
    H1: np.ndarray
    cond_D: float
    residual: float               # relative residual of XXV outside span [V | XV]

    def at(self, k):
        """The data of point k (an index or a slice) of a stack."""
        return PointFrameData(*(v[k] for v in vars(self).values()))


def _first_brackets(pair: GenericPair, x_val, val, J):
    """DX, the stack DV_j, the rows V_j and DV_j X, and the rows of
    [X, V_j] = DV_j X - DX V_j, from X and a jet of ``pair.stacked`` at a
    stack of points (rows 0 .. n-1 of a point's jet are X, rows
    (j+1)*n .. (j+2)*n - 1 are V_j)."""
    n, m = pair.n, pair.m
    N = len(val)
    J_X, J_V = J[:, :n], J[:, n:].reshape(N, m, n, n)
    V_rows = val[:, n:].reshape(N, m, n)
    JV_x = _rows(J_V, x_val[:, None])
    return J_X, J_V, V_rows, JV_x, JV_x - V_rows @ _T(J_X)


def frame_at(pair: GenericPair, x):
    """V and [X, V] at x (n x m each) from one first-order jet of the pair."""
    one = np.ndim(x) == 1
    val, J = _lead(one, *_jacobian(pair.stacked, pair.coords, pair.bindings(x)))
    _, _, V_rows, _, XV_rows = _first_brackets(pair, val[:, :pair.n], val, J)
    return _unstack(one, _T(V_rows), _T(XV_rows))


def brackets_at(pair: GenericPair, x):
    """X, V, [X,V], [X,[X,V]] at x, all m columns, exact AD."""
    one = np.ndim(x) == 1
    env = pair.bindings(x)
    n, m = pair.n, pair.m
    x_val = evaluate(pair.X, env)
    # one jet of X and all frame columns stacked along u = X(x)
    val, J, Hu = _lead(one, *_jet(pair.stacked, pair.coords, env, dict(zip(pair.coords, x_val.T))))
    x_val, = _lead(one, x_val)
    J_X, J_V, V_rows, JV_x, XV_rows = _first_brackets(pair, x_val, val, J)
    Hu_X, Hu_V = Hu[:, :n], Hu[:, n:].reshape(len(val), m, n, n)
    # directional derivative of the bracket fields along X, with the second
    # derivative of X along X and V_j, then bracket again
    dW = (_rows(Hu_V, x_val[:, None]) + _rows(J_V, _rows(J_X, x_val)[:, None])
          - V_rows @ _T(Hu_X) - JV_x @ _T(J_X))
    XXV = dW - XV_rows @ _T(J_X)
    return _unstack(one, x_val, _T(V_rows), _T(XV_rows), _T(XXV))


def _raise_first_violation(points, cond_D, residual=0.0):
    """RegularityViolation at the first point, in stack order, whose [V | XV]
    is ill-conditioned (R2) or whose iterated bracket leaves its span (I)."""
    bad = (cond_D > COND_LIMIT) | (residual > INVARIANCE_TOL)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    x = points[:, k]
    if cond_D[k] > COND_LIMIT:
        raise RegularityViolation(
            f"frame + bracket matrix ill-conditioned (cond={cond_D[k]:.3e})",
            cond="R2", residual=float(cond_D[k]), point=x)
    raise RegularityViolation(
        f"iterated bracket leaves span[V | XV] (residual={residual[k]:.3e})",
        cond="I", residual=float(residual[k]), point=x)


def _screened_solve(D, B):
    """Least-squares solution S of D S = B for one point from one QR solve
    (LAPACK dgels) and a 1-norm condition estimate of its R factor (dtrcon),
    or None when the point fails a conservative screen: a failed or
    non-finite solve, an estimate above COND_LIMIT / (10 k) for the k
    columns of D (cond_2 <= k cond_1, and the estimate may fall below
    cond_1), a relative residual above INVARIANCE_TOL / 10 (read from the
    trailing rows of the solve), or a wide D.  With these margins a point
    that passes is regular by the SVD's reading too, unless the estimate
    falls more than ten times below cond_1, which the 1-norm estimator
    rarely does (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, 15.3); a point that fails is left to the SVD."""
    n, k = D.shape
    if n < k:
        return None
    qr, S, info = _dgels(D, B)
    if info != 0:
        return None
    rcond, info = _dtrcon(qr[:k])
    out = S[k:].ravel()            # Q2^T B: |D S - B| is its norm
    if (info != 0 or not rcond > 10.0 * k / COND_LIMIT or not np.isfinite(S).all()
            or out @ out > (0.1 * INVARIANCE_TOL) ** 2 * np.vdot(B, B)):
        return None
    return S[:k]


def extract_H(pair: GenericPair, x, raise_on_violation=True):
    """Solve [V | XV] (H0; H1) = XXV column-wise, with the diagnostics.

    One SVD of the 2m-column matrix (least squares when the ambient
    dimension exceeds 2m) gives its condition number and the relative
    residual, the numerical witness of the invariance condition; this is
    the solve that decides and reports regularity.  The Jacobi solve does
    not call it at every point: ``structure_at`` screens with a QR solve and
    a condition estimate, and calls on this SVD only where the screen
    fails.  On a stack the violation raised is the first in stack order."""
    xs, one = _stack(x)
    x_val, V, XV, XXV = _lead(one, *brackets_at(pair, x))
    m = pair.m
    sol, cond_D, residual = _lstsq(np.concatenate([V, XV], axis=-1), XXV)
    if raise_on_violation:
        _raise_first_violation(xs, cond_D, residual)
    return PointFrameData(*_unstack(one, xs.T, x_val, V, XV, XXV, sol[:, :m], sol[:, m:],
                                    cond_D, residual))


def curvature_frame(pair: GenericPair, x):
    """Curvature matrix K = -H0 + X(H1)/2 - H1^2/4 in the working frame, with
    H0, H1 and the derivative X(H1) of H1 along X from ``flow_derivative_H1``."""
    data, XH1 = flow_derivative_H1(pair, x)
    return -data.H0 + 0.5 * XH1 - 0.25 * (data.H1 @ data.H1)


def flow_derivative_H1(pair: GenericPair, x):
    """X(H1) at x, the derivative of H1 along the vector X(x), together with
    the ``extract_H`` data at x: (data, X(H1)).

    X(H1)(x) = DH1(x) X(x) depends on x alone, so it is approximated by the
    central difference of H1 over the segment x +- h X(x), h = 1e-4 (1 + |x|),
    with O(h^2) truncation error; no trajectory or flow is involved.  One
    ``extract_H`` call reads the stack that interleaves x, x + h X(x) and
    x - h X(x) point by point, so the first RegularityViolation is the one
    that evaluating the points one at a time in that order raises."""
    xs, one = _stack(x)
    n, N = xs.shape
    h = 1e-4 * (1.0 + _norms(xs.T))
    step = h[:, None] * pair.X_at(xs)
    points = np.stack([xs, xs + step.T, xs - step.T], axis=-1).reshape(n, 3 * N)
    data = extract_H(pair, points)
    H1 = data.H1.reshape((N, 3) + data.H1.shape[1:])
    XH1 = (H1[:, 1] - H1[:, 2]) / (2.0 * h[:, None, None])
    at_x = data.at(slice(0, None, 3))
    return (at_x.at(0), XH1[0]) if one else (at_x, XH1)


# -- closed-form path for second-order systems -------------------------------

def _sode_point(pair: GenericPair, x):
    """The model, t, x and y of a point or a stack of the lifted space."""
    model, x = pair.sode, np.asarray(x, dtype=float)
    t, x = (0.0, x) if model.autonomous else (x[0], x[1:])
    return model, t, x[:model.m], x[model.m:]


def sode_curvature(model: SODEModel, t, x, y):
    """Closed-form curvature of x'' = F(t, x, x'):

        K^i_j = -dF_i/dx_j - (1/4) sum_k dF_i/dy_k dF_k/dy_j
                + (1/2) sum_k F_k d2F_i/dy_k dy_j
                + (1/2) sum_k y_k d2F_i/dx_k dy_j + (1/2) d2F_i/dt dy_j.

    The last three terms are the Hessian of F contracted with the lifted
    field X = (1, y, F), so one jet of F along X gives all of it:
    K = -dF/dx - (1/4) (dF/dy)^2 + (1/2) X(dF/dy).  The derivative of H1
    along X is exact here (no finite difference).  x and y may be (m, N)
    stacks, with t a real or N times."""
    _, dFdx, dFdy, X_dFdy = _force_jet(model, t, x, y)
    return -dFdx - 0.25 * dFdy @ dFdy + 0.5 * X_dFdy


def _force_jet(model: SODEModel, t, x, y):
    """F, dF/dx, dF/dy and the derivative X(dF/dy) of dF/dy along the lifted
    field X = (1, y, F), from one evaluation and one jet of the force."""
    m = model.m
    env = model.force_bindings(t, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    F_val = evaluate(model.F, env)
    x_names = [f"x{k+1}" for k in range(m)]
    y_names = [f"y{k+1}" for k in range(m)]
    u = dict(zip(x_names + y_names, [env[name] for name in y_names] + list(F_val.T)))
    if not model.autonomous:
        u["t"] = 1.0
    _, J, Hu = _jet(model.F, x_names + y_names, env, u)
    return F_val, J[..., :m], J[..., m:], Hu[..., m:]


def structure_at(pair: GenericPair, x):
    """X and the structure matrices (H0, H1) of [X, XV] = V H0 + XV H1 at the
    point x, the base of the joint Jacobi solve: one evaluation and one jet
    of the force for lifted second-order systems (X = (1, y, F), without the
    1 when autonomous; H1 = -dF/dy, H0 = dF/dx - X(dF/dy)), one
    ``brackets_at`` and one screened QR solve otherwise (``_screened_solve``).
    A point that fails the screen is solved by ``extract_H``'s SVD, which
    raises the RegularityViolation that ``extract_H`` raises."""
    if pair.sode is not None:
        model, t, xs, ys = _sode_point(pair, x)
        F, dFdx, dFdy, X_dFdy = _force_jet(model, t, xs, ys)
        X = np.concatenate(([] if model.autonomous else [[1.0]]) + [ys, F])
        return X, dFdx - X_dFdy, -dFdy
    x_val, V, XV, XXV = brackets_at(pair, x)
    D = np.concatenate([V, XV], axis=1)
    S = _screened_solve(D, XXV)
    if S is None:
        S, cond_D, residual = _lstsq(D[None], XXV[None])
        _raise_first_violation(np.asarray(x, dtype=float)[:, None], cond_D, residual)
        S = S[0]
    return x_val, S[:pair.m], S[pair.m:]


def curvature_at(pair: GenericPair, x):
    """Curvature in the working frame: closed form for lifted second-order
    systems, ``curvature_frame`` otherwise."""
    if pair.sode is not None:
        return sode_curvature(*_sode_point(pair, x))
    return curvature_frame(pair, x)


# -- regularity ---------------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    """The checks of each point, as arrays along the checked points."""

    point: np.ndarray             # (N, n)
    X_norm: np.ndarray
    cond_D: np.ndarray
    residual: np.ndarray
    weak_invariance_only: np.ndarray
    r1_ok: np.ndarray
    r2_ok: np.ndarray
    inv_ok: np.ndarray

    @property
    def all_ok(self):
        return bool(np.all(self.r1_ok & self.r2_ok & self.inv_ok))

    @property
    def worst_cond(self):
        return float(np.max(self.cond_D))

    @property
    def worst_residual(self):
        return float(np.max(self.residual))


def _regularity(pair, xs):
    """X norm, cond[V | XV], residual and weak invariance at a stack."""
    data = extract_H(pair, xs, raise_on_violation=False)
    weak = np.zeros(len(data.residual), dtype=bool)
    out = data.residual > INVARIANCE_TOL
    if out.any():
        D = np.concatenate([data.V, data.XV, data.X[:, :, None]], axis=-1)
        weak[out] = _lstsq(D[out], data.XXV[out])[2] <= INVARIANCE_TOL
    return _norms(data.X), data.cond_D, data.residual, weak


def check_regularity(pair: GenericPair, points) -> RegularityReport:
    """Pointwise check of X != 0, full rank of [V | XV], and invariance of the
    span under bracketing with X, at the rows of ``points`` (N x n), one
    ``extract_H`` call per block.  When the strict invariance residual fails
    but the residual modulo X passes, the point is flagged as weakly invariant
    only; no modular computations are attempted beyond the diagnostic."""
    xs = np.asarray(points, dtype=float).T
    x_norm, cond_D, residual, weak = on_blocks(lambda b: _regularity(pair, b), xs)
    return RegularityReport(point=xs.T, X_norm=x_norm, cond_D=cond_D, residual=residual,
                            weak_invariance_only=weak,
                            r1_ok=x_norm > 1e-10 * (1.0 + _norms(xs.T)),
                            r2_ok=cond_D <= COND_LIMIT, inv_ok=residual <= INVARIANCE_TOL)
