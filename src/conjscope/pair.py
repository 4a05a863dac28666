"""Dynamic pairs: a vector field X together with a rank-m distribution V.

A pair is either given directly (expression-valued X and a frame of V) or
lifted from a system of second order ODEs x'' = F(t, x, x').  The module
computes Lie brackets and iterated brackets exactly through hyper-dual AD,
extracts the structure matrices H0, H1 of the iterated bracket relation (the
Jacobi solve reads them alone), evaluates the curvature operator, builds the
canonical vertical/horizontal splitting and checks the regularity conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import scalar
from .errors import RegularityViolation
from .scalar import ExprProgram, Field, evaluate, parse

COND_LIMIT = 1e8
INVARIANCE_TOL = 1e-6

__all__ = [
    "SODEModel",
    "GenericPair",
    "PointFrameData",
    "RegularityReport",
    "lift_sode",
    "bracket",
    "extract_H",
    "structure_at",
    "curvature_frame",
    "sode_curvature",
    "flow_derivative_H1",
    "split_and_project",
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
        env = dict(self.params)
        env.update(zip(self.coords, np.asarray(x, dtype=float).tolist()))
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

def _jet(exprs, coords, env, u):
    """Value, Jacobian and direction-contracted Hessian of a vector field.

    ``env`` binds every variable at the point and ``u`` maps names to the
    components of the direction.  Returns (val[k], J[k,n], Hu[k,n]) with
    Hu[i,b] = sum_j u_j d2 f_i / dx_b dx_j over the n names in ``coords``;
    one engine call."""
    val, _, J, Hu = scalar.second_partials(exprs, env, u, coords)
    return val, J, Hu


def _jacobian(exprs, coords, env):
    """Value and Jacobian over the names in ``coords``; one engine call."""
    val, _, J, _ = scalar.second_partials(exprs, env, {}, coords)
    return val, J


def _lstsq(D, B):
    """Least-squares solution S of D S = B, the condition number of D and the
    relative residual |D S - B| / |B|, all from one SVD of D.

    Singular values at or below numpy lstsq's cutoff eps * max(D.shape) * s_max
    are dropped, so a singular D (cond = inf) still gives a finite solution
    and residual."""
    U, s, Vt = np.linalg.svd(D, full_matrices=False)
    keep = s > np.finfo(float).eps * max(D.shape) * s[0]
    S = Vt[keep].T @ ((U[:, keep].T @ B) / s[keep, None])
    cond = float(s[0] / s[-1]) if s[-1] > 0.0 else float("inf")
    scale = np.linalg.norm(B)
    residual = float(np.linalg.norm(D @ S - B) / (scale if scale > 0 else 1.0))
    return S, cond, residual


def bracket(pair: GenericPair, A_exprs, B_exprs, x):
    """Lie bracket [A, B](x) = (DB)(x) A(x) - (DA)(x) B(x), Jacobians by AD."""
    env = pair.bindings(np.asarray(x, dtype=float))
    a_val, Ja = _jacobian(tuple(_as_expr(e) for e in A_exprs), pair.coords, env)
    b_val, Jb = _jacobian(tuple(_as_expr(e) for e in B_exprs), pair.coords, env)
    return Jb @ a_val - Ja @ b_val


@dataclass(frozen=True)
class PointFrameData:
    """Frame, first and second iterated brackets and the structure matrices
    of the relation [X,[X,V]] = V H0 + [X,V] H1 at one point."""

    point: np.ndarray
    X: np.ndarray
    V: np.ndarray                 # n x m
    XV: np.ndarray                # n x m, columns [X, V_j]
    XXV: np.ndarray               # n x m, columns [X, [X, V_j]]
    H0: np.ndarray
    H1: np.ndarray
    cond_D: float
    residual: float               # relative residual of XXV outside span [V | XV]


def _rows(A, rows):
    """A applied to each row of ``rows``."""
    return (A @ rows[..., None])[..., 0]


def _first_brackets(pair: GenericPair, x_val, val, J):
    """DX, the stack DV_j, the rows V_j and DV_j X, and the rows of
    [X, V_j] = DV_j X - DX V_j, from X(x) and a jet of ``pair.stacked``
    (rows 0 .. n-1 are X, rows (j+1)*n .. (j+2)*n - 1 are V_j).  Stacked
    matrix-vector products round as one product per column does."""
    n, m = pair.n, pair.m
    J_X, J_V = J[:n], J[n:].reshape(m, n, n)
    V_rows = val[n:].reshape(m, n)
    JV_x = J_V @ x_val
    return J_X, J_V, V_rows, JV_x, JV_x - _rows(J_X, V_rows)


def frame_at(pair: GenericPair, x):
    """V and [X, V] at x (n x m each) from one first-order jet of the pair."""
    val, J = _jacobian(pair.stacked, pair.coords, pair.bindings(x))
    _, _, V_rows, _, XV_rows = _first_brackets(pair, val[:pair.n], val, J)
    return V_rows.T, XV_rows.T


def brackets_at(pair: GenericPair, x):
    """X, V, [X,V], [X,[X,V]] at x, all m columns, exact AD."""
    env = pair.bindings(x)
    n, m = pair.n, pair.m
    x_val = evaluate(pair.X, env)
    # one jet of X and all frame columns stacked along u = X(x)
    val, J, Hu = _jet(pair.stacked, pair.coords, env, dict(zip(pair.coords, x_val.tolist())))
    J_X, J_V, V_rows, JV_x, XV_rows = _first_brackets(pair, x_val, val, J)
    Hu_X, Hu_V = Hu[:n], Hu[n:].reshape(m, n, n)
    # directional derivative of the bracket fields along X, with the second
    # derivative of X along X and V_j, then bracket again
    dW = Hu_V @ x_val + J_V @ (J_X @ x_val) - _rows(Hu_X, V_rows) - _rows(J_X, JV_x)
    XXV = (dW - _rows(J_X, XV_rows)).T.copy()
    return x_val, V_rows.T, XV_rows.T.copy(), XXV


def extract_H(pair: GenericPair, x, raise_on_violation=True):
    """Solve [V | XV] (H0; H1) = XXV column-wise.

    Least squares when the ambient dimension exceeds 2m; reports the
    conditioning of the 2m-column matrix and the relative residual, which is
    the numerical witness of the invariance condition."""
    x = np.asarray(x, dtype=float)
    x_val, V, XV, XXV = brackets_at(pair, x)
    m = pair.m
    sol, cond_D, residual = _lstsq(np.hstack([V, XV]), XXV)
    if raise_on_violation:
        if cond_D > COND_LIMIT:
            raise RegularityViolation(
                f"frame + bracket matrix ill-conditioned (cond={cond_D:.3e})",
                cond="R2", residual=cond_D, point=x)
        if residual > INVARIANCE_TOL:
            raise RegularityViolation(
                f"iterated bracket leaves span[V | XV] (residual={residual:.3e})",
                cond="I", residual=residual, point=x)
    return PointFrameData(point=x, X=x_val, V=V, XV=XV,
                          XXV=XXV, H0=sol[:m, :], H1=sol[m:, :],
                          cond_D=cond_D, residual=residual)


def curvature_frame(pair: GenericPair, x):
    """Curvature matrix K = -H0 + X(H1)/2 - H1^2/4 in the working frame, with
    the derivative X(H1) of H1 along X from ``flow_derivative_H1``."""
    data = extract_H(pair, x)
    return -data.H0 + 0.5 * flow_derivative_H1(pair, x) - 0.25 * (data.H1 @ data.H1)


def flow_derivative_H1(pair: GenericPair, x):
    """X(H1) at x, the derivative of H1 along the vector X(x).

    X(H1)(x) = DH1(x) X(x) depends on x alone, so it is approximated by the
    central difference of H1 over the segment x +- h X(x), h = 1e-4 (1 + |x|),
    with O(h^2) truncation error; no trajectory or flow is involved."""
    x = np.asarray(x, dtype=float)
    h = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    step = h * pair.X_at(x)
    H1p = extract_H(pair, x + step).H1
    H1m = extract_H(pair, x - step).H1
    return (H1p - H1m) / (2.0 * h)


# -- closed-form path for second-order systems -------------------------------

def _sode_point(pair: GenericPair, x):
    model = pair.sode
    x = np.asarray(x, dtype=float)
    m = model.m
    if model.autonomous:
        t, xs, ys = 0.0, x[:m], x[m:]
    else:
        t, xs, ys = x[0], x[1:m + 1], x[m + 1:]
    return model, t, xs, ys


def sode_curvature(model: SODEModel, t, x, y):
    """Closed-form curvature of x'' = F(t, x, x'):

        K^i_j = -dF_i/dx_j - (1/4) sum_k dF_i/dy_k dF_k/dy_j
                + (1/2) sum_k F_k d2F_i/dy_k dy_j
                + (1/2) sum_k y_k d2F_i/dx_k dy_j + (1/2) d2F_i/dt dy_j.

    The last three terms are the Hessian of F contracted with the lifted
    field X = (1, y, F), so one jet of F along X gives all of it:
    K = -dF/dx - (1/4) (dF/dy)^2 + (1/2) X(dF/dy).  The derivative of H1
    along X is exact here (no finite difference)."""
    dFdx, dFdy, X_dFdy = _force_jet(model, t, x, y)
    return -dFdx - 0.25 * dFdy @ dFdy + 0.5 * X_dFdy


def _force_jet(model: SODEModel, t, x, y):
    """dF/dx, dF/dy and the derivative X(dF/dy) of dF/dy along the lifted
    field X = (1, y, F), from one jet of the force."""
    m = model.m
    env = model.force_bindings(t, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    F_val = evaluate(model.F, env)
    xs = [f"x{k+1}" for k in range(m)]
    ys = [f"y{k+1}" for k in range(m)]
    u = dict(zip(xs + ys, [env[name] for name in ys] + F_val.tolist()))
    if not model.autonomous:
        u["t"] = 1.0
    _, J, Hu = _jet(model.F, xs + ys, env, u)
    return J[:, :m], J[:, m:], Hu[:, m:]


def structure_at(pair: GenericPair, x):
    """(H0, H1) of the bracket relation [X, XV] = V H0 + XV H1 at x: one jet
    of the force for lifted second-order systems (H1 = -dF/dy,
    H0 = dF/dx - X(dF/dy)), one ``extract_H`` otherwise."""
    if pair.sode is not None:
        dFdx, dFdy, X_dFdy = _force_jet(*_sode_point(pair, x))
        return dFdx - X_dFdy, -dFdy
    data = extract_H(pair, x)
    return data.H0, data.H1


def curvature_at(pair: GenericPair, x):
    """Curvature in the working frame: closed form for lifted second-order
    systems, ``curvature_frame`` otherwise."""
    if pair.sode is not None:
        return sode_curvature(*_sode_point(pair, x))
    return curvature_frame(pair, x)


# -- canonical splitting ------------------------------------------------------

def split_and_project(pair: GenericPair, x):
    """Vertical/horizontal splitting of span[V | XV] at x.

    Returns projector matrices on the ambient space (valid on the span), the
    horizontal frame columns XV - V H1/2, and the morphism matrices A (frame
    coordinates of the horizontal part of [X, .] on V) and B (vertical part
    of [X, .] on the horizontal frame).  The composition -B A reproduces the
    curvature matrix."""
    data = extract_H(pair, x)
    V, XV, H1 = data.V, data.XV, data.H1
    m = pair.m
    Hcols = XV - 0.5 * V @ H1
    D = np.hstack([V, Hcols])
    pinv = np.linalg.pinv(D)
    pi_V = V @ pinv[:m, :]
    pi_H = Hcols @ pinv[m:, :]

    # A: decompose [X, V_j] = XV_j over [V | Hcols]
    coeff_XV = pinv @ XV
    A = coeff_XV[m:, :]

    # B: vertical coefficients of [X, H_j] for the frozen-coefficient
    # extension of the horizontal frame, corrected by the flow derivative of
    # H1 (the frozen extension differs from the true frame by a vertical
    # field with nonzero X-derivative).
    XXVh = data.XXV - 0.5 * (XV @ H1)     # [X, XV_j - V (H1)_j] with H1 frozen
    coeff = pinv @ XXVh
    B = coeff[:m, :] - 0.5 * flow_derivative_H1(pair, x)
    return {
        "pi_V": pi_V,
        "pi_H": pi_H,
        "vertical_frame": V,
        "horizontal_frame": Hcols,
        "A": A,
        "B": B,
        "data": data,
    }


# -- regularity ---------------------------------------------------------------

@dataclass(frozen=True)
class RegularityPoint:
    point: np.ndarray
    X_norm: float
    cond_D: float
    residual: float
    weak_invariance_only: bool
    r1_ok: bool
    r2_ok: bool
    inv_ok: bool


@dataclass(frozen=True)
class RegularityReport:
    points: tuple
    all_ok: bool

    @property
    def worst_cond(self):
        return max(p.cond_D for p in self.points)

    @property
    def worst_residual(self):
        return max(p.residual for p in self.points)


def check_regularity(pair: GenericPair, points) -> RegularityReport:
    """Pointwise check of X != 0, full rank of [V | XV], and invariance of the
    span under bracketing with X.  When the strict invariance residual fails
    but the residual modulo X passes, the point is flagged as weakly invariant
    only; no modular computations are attempted beyond the diagnostic."""
    rows = []
    ok = True
    for x in points:
        data = extract_H(pair, x, raise_on_violation=False)
        x, residual = data.point, data.residual
        weak = False
        if residual > INVARIANCE_TOL:
            _, _, res2 = _lstsq(np.hstack([data.V, data.XV, data.X[:, None]]), data.XXV)
            weak = res2 <= INVARIANCE_TOL
        x_norm = float(np.linalg.norm(data.X))
        r1 = x_norm > 1e-10 * (1.0 + float(np.linalg.norm(x)))
        r2 = data.cond_D <= COND_LIMIT
        inv = residual <= INVARIANCE_TOL
        ok = ok and r1 and r2 and inv
        rows.append(RegularityPoint(point=x, X_norm=x_norm, cond_D=data.cond_D,
                                    residual=residual, weak_invariance_only=weak,
                                    r1_ok=r1, r2_ok=r2, inv_ok=inv))
    return RegularityReport(points=tuple(rows), all_ok=ok)
