"""Dynamic pairs: a vector field X together with a rank-m distribution V.

A pair is either given directly (expression-valued X and a frame of V) or
lifted from a system of second order ODEs x'' = F(t, x, x').  The module
computes Lie brackets and iterated brackets exactly through forward-mode AD
(the tangent sweeps of ``scalar``'s compiled kernels), extracts the
structure matrices H0, H1 of the iterated bracket relation (the Jacobi solve
reads them alone), evaluates the curvature operator and checks the
regularity conditions.  The curvature is exact on both paths: in closed
form from one jet of a second-order force, and for a generic pair from one
call of its curvature kernel (``flow_derivative_H1``): the brackets with
their tangents along X, then the Givens solve for H0, H1, the tangent of
that solve, which gives X(H1), and the verdict of its screen.

The bracket and curvature functions take one point or a stack of points, and
readers of a grid call them once per block of BLOCK points (``on_blocks``):
one array-kernel call jets a whole block, and the linear algebra after it is
batched over the block.  The iterated brackets of a pair and the jet of a
second-order force are each one field kernel (``scalar.field_kernel``),
which emits the bracket algebra after the jet, so ``brackets_at`` and
``_force_jet`` are its scalar form at one point and its array form on a
stack.  ``joint_rhs`` gives the right-hand side of the joint Jacobi solve
of every pair, a lifted second-order system included, as one call of the
pair's joint kernel, which emits the bracket algebra, then a Givens
least-squares solve for H0, H1 (``_least_squares``), then the products,
then the verdict of the solve's regularity screen.  On a lifted system the
solve folds to H1 = -dF/dy and H0 = dF/dx - X(dF/dy).  Both readers keep
the kernel's outputs; ``extract_H``'s SVD alone decides regularity, and
they call it only on the points whose verdict fails, where it raises the
violation it finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import scalar
from .errors import DomainError, RegularityViolation
from .scalar import ExprProgram, evaluate, parse

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
    "joint_rhs",
    "curvature_frame",
    "sode_curvature",
    "flow_derivative_H1",
    "check_regularity",
]


def _as_expr(e) -> ExprProgram:
    return e if isinstance(e, ExprProgram) else parse(e)


# The kernels that a solve reads on every step or block are model attributes,
# although scalar's kernel table would give them back on every request:
# SODEModel.jet_kernel, GenericPair.joint_kernel, curvature_kernel,
# bracket_kernel and stacked, and
# hamiltonian.SemiHamiltonianModel.sigma_field.
# A table lookup builds the exact key and takes the table's lock, 2.5-5.2 us
# against 0.3 us for an attribute read (timed on 64-point blocks of random
# second-order systems read as generic pairs, (n, m) = (2, 1) to (6, 3)), and
# a right-hand side, which reads joint_kernel at every evaluation, takes
# 1.5-5.7 us in all on those pairs (2 vCPU, Python 3.11).

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
        object.__setattr__(self, "F", tuple(_as_expr(f) for f in self.F))
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

    @cached_property
    def jet_kernel(self):
        """The force kernel of F, dF/dx, dF/dy and X(dF/dy) (``_force_jet``),
        compiled on first use."""
        return _force_kernel(self)

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
        object.__setattr__(self, "X", tuple(_as_expr(e) for e in self.X))
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
        """X followed by the m frame columns as one sequence, so that one
        kernel call jets the whole pair."""
        return self.X + tuple(e for col in self.vframe for e in col)

    @cached_property
    def bracket_kernel(self):
        """The kernel of X, D = [V | XV] and XXV (``_bracket_algebra``),
        compiled on first use."""
        return _pair_kernel(self, _bracket_algebra)

    @cached_property
    def curvature_kernel(self):
        """The bracket kernel's outputs with their derivatives along a
        direction u given with the point, then the solve for H0, H1, its
        tangent along u and its screen (``_curvature_algebra``), compiled on
        first use."""
        return _pair_kernel(self, _bracket_algebra, tangent=_curvature_algebra)

    @cached_property
    def joint_kernel(self):
        """The kernel of the joint right-hand side with the solve for H0, H1
        emitted after the bracket algebra (``_rhs_algebra``), compiled on
        first use."""
        return _pair_kernel(self, _rhs_algebra)

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
    systems.  Each call builds a new pair over the model's force programs;
    its kernels come from ``scalar``'s kernel table whenever a pair of the
    same expressions compiled them before."""
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
# Every function below but ``joint_rhs`` takes one point x of shape (n,) or a
# stack of N points as the columns of an (n, N) array, and is written once,
# for stacks: a point is a stack of one, and its outputs lose the leading
# point axis that the outputs of a stack carry.  A stack binds each
# coordinate to an array, so one array-kernel call jets every point
# (``scalar.second_partials``, ``scalar.run_field``); one point binds reals
# and runs the scalar kernel, whose outputs ``_lead`` gives the point axis.
# Each point of a stack goes through the same per-point matrix products as
# it does alone, so it gives the same bits.

# points per call on a grid: bounds the memory of the jets of a block
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


def _jacobian(exprs, coords, env):
    """Value and Jacobian over the names in ``coords``; one engine call."""
    val, _, J, _ = scalar.second_partials(exprs, env, {}, coords)
    return val, J


def _lstsq(D, B):
    """Least-squares solution S of D S = B, the condition number of D and the
    relative residual |D S - B| / |B|, all from one SVD of D; stacks of D
    and B solve matrix by matrix in one batched SVD.  The kernels emit the
    same solve by Givens QR (``_least_squares``); this SVD decides
    regularity (``extract_H``, ``check_regularity``).

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
    of points (every field then has a leading point axis).

    ``extract_H`` gives cond_2 of [V | XV] and the relative residual of the
    SVD's solve.  ``flow_derivative_H1`` gives the figures of the curvature
    kernel's screen: the bound |R|_F |R^-1|_F >= cond_2([V | XV]), with R
    the Givens R factor, and the exact relative residual
    |Q^T XXV|[k:] / |XXV| (k = 2m), 0.0 where those rows are statically
    zero."""

    point: np.ndarray
    X: np.ndarray
    V: np.ndarray                 # n x m
    XV: np.ndarray                # n x m, columns [X, V_j]
    XXV: np.ndarray               # n x m, columns [X, [X, V_j]]
    H0: np.ndarray
    H1: np.ndarray
    cond_D: float
    residual: float               # relative residual of XXV outside span [V | XV]


def frame_at(pair: GenericPair, x):
    """V and [X, V] at x (n x m each) from one first-order jet of the pair:
    the rows of [X, V_j] = DV_j X - DX V_j (rows 0 .. n-1 of a point's jet
    are X, rows (j+1)*n .. (j+2)*n - 1 are V_j)."""
    one = np.ndim(x) == 1
    n, m = pair.n, pair.m
    val, J = _lead(one, *_jacobian(pair.stacked, pair.coords, pair.bindings(x)))
    N = len(val)
    V_rows = val[:, n:].reshape(N, m, n)
    XV_rows = _rows(J[:, n:].reshape(N, m, n, n), val[:, None, :n]) - V_rows @ _T(J[:, :n])
    return _unstack(one, _T(V_rows), _T(XV_rows))


# -- field kernels ------------------------------------------------------------
#
# The Jacobi solve and the bracket readers run one field kernel per pair
# (``scalar.field_kernel``): the jet of the pair's fields along X(x), which
# the kernel computes itself, and the algebra that turns it into brackets or
# into the solve's right-hand side, emitted as straight-line code.  Sums of
# products run in index order; a component that is statically zero (a
# constant frame entry, or a derivative the fields do not have) drops out of
# them.

def _nonzero(local):
    return None if local == "0.0" else local


def _bracket_algebra(gen, jet):
    """X, then D = [V | XV] and XXV row-major, from the jet of X and the
    frame columns along u = X(x): [X, V_j] = DV_j X - DX V_j, and
    [X, [X, V_j]] from the directional derivative of [X, V_j] along X, with
    the second derivatives of X and V_j along X, bracketed again."""
    x = [_nonzero(v) for v in jet.along]
    n = len(x)
    m = len(jet.val) // n - 1
    J, Hu = jet.dj, jet.dij                     # rows n + j n + i are V_j
    V = [[_nonzero(v) for v in jet.val[n + j * n:n + (j + 1) * n]] for j in range(m)]
    JV_x = [[gen.dot(zip(J[n + j * n + i], x)) for i in range(n)] for j in range(m)]
    XV = [[gen.combine(("+", JV_x[j][i]), ("-", gen.dot(zip(V[j], J[i])))) for i in range(n)]
          for j in range(m)]
    JX_x = [gen.dot(zip(J[b], x)) for b in range(n)]
    XXV = [[gen.combine(("+", gen.dot(zip(Hu[n + j * n + i], x))),
                        ("+", gen.dot(zip(J[n + j * n + i], JX_x))),
                        ("-", gen.dot(zip(V[j], Hu[i]))),
                        ("-", gen.dot(zip(JV_x[j], J[i]))),
                        ("-", gen.dot(zip(XV[j], J[i]))))
            for i in range(n)] for j in range(m)]
    D = [c for i in range(n) for c in [V[j][i] for j in range(m)] + [XV[j][i] for j in range(m)]]
    return list(jet.along) + D + [XXV[j][i] for i in range(n) for j in range(m)]


def _pair_kernel(pair: GenericPair, algebra, tangent=False):
    """The field kernel of ``algebra`` over the jet of the stacked fields
    along X(x), with its tangent when ``tangent`` (``scalar.field_kernel``)."""
    return scalar.field_kernel(pair.stacked, pair.coords,
                               scalar.Along(tuple((c, k) for k, c in enumerate(pair.coords))),
                               pair.coords, algebra, tangent=tangent)


def _outputs(pair: GenericPair, kernel, w):
    """Outputs of one of the pair's field kernels at the state w: (size,),
    or (N, size) for a stack of N states as the columns of w."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        return scalar.run_field(kernel, w.tolist(), pair.params)
    return scalar.run_field(kernel, list(w), pair.params, w.shape[1])


def _split(flat, n, m):
    """X, D = [V | XV] and XXV stacks from flat bracket outputs."""
    return (flat[:, :n], flat[:, n:n + 2 * n * m].reshape(-1, n, 2 * m),
            flat[:, n + 2 * n * m:].reshape(-1, n, m))


def brackets_at(pair: GenericPair, x):
    """X, V, [X,V], [X,[X,V]] at x, all m columns, exact AD: one call of the
    pair's bracket kernel."""
    one = np.ndim(x) == 1
    flat, = _lead(one, _outputs(pair, pair.bracket_kernel, x))
    m = pair.m
    X, D, XXV = _split(flat, pair.n, m)
    return _unstack(one, X, D[..., :m], D[..., m:], XXV)


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


def extract_H(pair: GenericPair, x, raise_on_violation=True):
    """Solve [V | XV] (H0; H1) = XXV column-wise, with the diagnostics.

    One SVD of the 2m-column matrix (least squares when the ambient
    dimension exceeds 2m) gives its condition number and the relative
    residual, the numerical witness of the invariance condition; this is
    the one solve that decides and reports regularity.  Neither the Jacobi
    solve nor the curvature calls it at every point: the joint and the
    curvature kernels emit a Givens solve whose screen, a bound on the
    condition number of its R factor and its residual, is one more output
    (``_least_squares``).  Their readers (``joint_rhs``,
    ``flow_derivative_H1``) keep the kernel's outputs and call this SVD
    only on the points whose screen fails, or that the solve could not be
    formed at, so that it raises the violation there.  On a stack the
    violation raised is the first in stack order."""
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
    H0, H1 and the exact derivative X(H1) of H1 along X from
    ``flow_derivative_H1``."""
    data, XH1 = flow_derivative_H1(pair, x)
    return -data.H0 + 0.5 * XH1 - 0.25 * (data.H1 @ data.H1)


def flow_derivative_H1(pair: GenericPair, x):
    """X(H1) at x, the derivative of H1 along the vector X(x), together with
    the ``extract_H`` data at x: (data, X(H1)).

    X(H1)(x) = DH1(x) X(x) depends on x alone, and it is exact to rounding.
    One call of the pair's curvature kernel per block gives X, D = [V | XV]
    and XXV = [X, [X, V]] with their derivatives along u = X(x) (read by
    ``X_at``), which carry the terms in which X itself varies, then the
    Givens solve of D (H0; H1) = XXV, its tangent X(H0; H1) and its screen
    (``_least_squares``), so X, V, XV, XXV and the point are ``extract_H``'s
    bits and H0, H1 and X(H1) are the SVD's to rounding; the diagnostics
    are the screen's figures (``PointFrameData``).  The points whose screen
    fails go to ``extract_H``, which raises the RegularityViolation it
    finds, the first in stack order; where it passes, the kernel's outputs
    stand.  A block at which the solve cannot be formed (the kernel raises
    DomainError) goes to ``extract_H`` whole, and the DomainError is raised
    where it passes."""
    xs, one = _stack(x)
    n, m = pair.n, pair.m
    w = np.concatenate([xs, pair.X_at(xs).T])
    try:
        flat = _outputs(pair, pair.curvature_kernel, w)
    except DomainError as err:
        failed = err
    else:
        fails = flat[:, -1] != 0.0
        if fails.any():
            extract_H(pair, xs[:, fails])
        size = n + 3 * n * m
        x_val, D, XXV = _split(flat[:, :size], n, m)
        H = flat[:, size:size + 3 * m * m].reshape(-1, 3, m, m)
        data = PointFrameData(*_unstack(one, xs.T, x_val, D[..., :m], D[..., m:], XXV,
                                        H[:, 0], H[:, 1], np.sqrt(flat[:, -3]), flat[:, -2]))
        return data, _unstack(one, H[:, 2])[0]
    extract_H(pair, xs)                 # raises outside the handler
    raise failed


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
    along X is exact here, as on the generic path.  x and y may be (m, N)
    stacks, with t a real or N times."""
    _, dFdx, dFdy, X_dFdy = _force_jet(model, t, x, y)
    return -dFdx - 0.25 * dFdy @ dFdy + 0.5 * X_dFdy


def _force_algebra(gen, jet):
    """F, then dF/dx, dF/dy and X(dF/dy) row-major, from the jet of the
    force along the lifted field X = (1, y, F) and each x_k, then each y_k."""
    m = len(jet.val)
    cells = [(r, c) for r in range(m) for c in range(m)]
    return (list(jet.val) + [jet.dj[r][c] for r, c in cells]
            + [jet.dj[r][m + c] for r, c in cells] + [jet.dij[r][m + c] for r, c in cells])


def _force_kernel(model: SODEModel):
    """The field kernel of ``_force_algebra`` over the jet of the force along
    the lifted field X = (1, y, F) (no 1 when autonomous) and each x_k and
    y_k; the state holds the lifted coordinates."""
    m = model.m
    along = [] if model.autonomous else [("t", 1.0)]
    along += [(f"x{k+1}", f"y{k+1}") for k in range(m)] + [(f"y{k+1}", k) for k in range(m)]
    j = [f"x{k+1}" for k in range(m)] + [f"y{k+1}" for k in range(m)]
    return scalar.field_kernel(model.F, model.coord_names, scalar.Along(tuple(along)), j,
                               _force_algebra)


def _force_jet(model: SODEModel, t, x, y):
    """F, dF/dx, dF/dy and the derivative X(dF/dy) of dF/dy along the lifted
    field X = (1, y, F), from one call of the force kernel."""
    m = model.m
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    count = None if x.ndim == 1 else x.shape[1]
    w = x.tolist() + y.tolist() if count is None else [*x, *y]
    if not model.autonomous:
        w.insert(0, t if np.ndim(t) else float(t))
    flat = scalar.run_field(model.jet_kernel, w, model.params, count)
    mats = flat[..., m:].reshape(flat.shape[:-1] + (3, m, m))
    return (flat[..., :m], *np.moveaxis(mats, -3, 0))


def curvature_at(pair: GenericPair, x):
    """Curvature in the working frame: closed form for lifted second-order
    systems, ``curvature_frame`` otherwise."""
    if pair.sode is not None:
        return sode_curvature(*_sode_point(pair, x))
    return curvature_frame(pair, x)


# -- the right-hand side of the joint Jacobi solve -----------------------------

def _products(gen, m, H0, H1, G, a, b):
    """The Jacobi part of the joint right-hand side, -H1 G / 2, -H0 b and
    -a - H1 b row-major, from the row-major entries of H0, H1, G, a and b
    (locals, None where statically zero); each product is summed in index
    order after the factor -H1 / 2 or -H0 is formed, as numpy forms it."""
    half_H1 = [None if h is None else gen.emit(f"-0.5 * {h}") for h in H1]
    minus_H0 = [gen.negate(h) for h in H0]
    prod = lambda A, B, r, c: gen.dot((A[r * m + k], B[k * m + c]) for k in range(m))
    cells = [(r, c) for r in range(m) for c in range(m)]
    return ([prod(half_H1, G, r, c) for r, c in cells]
            + [prod(minus_H0, b, r, c) for r, c in cells]
            + [gen.combine(("-", a[r * m + c]), ("-", prod(H1, b, r, c))) for r, c in cells])


# a rotation whose a^2 + b^2 is at most this is not formed, unless both
# entries are 0.0:
# above it the larger square is a normal float, so the rounding that
# underflow adds to the smaller one is below 2^-115 of the sum
_TINY = 2.0 ** -960
_WHERE = "the least-squares solve of [V | XV] (H0; H1) = XXV"


def _numeric(v):
    """The value of a finite literal of the generated code, None for a local
    (or an infinite or NaN literal)."""
    try:
        return float(v.strip("()"))
    except ValueError:
        return None


def _quotient(gen, v, d):
    """Local of v / d, with d a diagonal entry of R: a sign for a literal
    1.0 or -1.0, and a zero pivot check for a local."""
    if v is None or d == "1.0":
        return v
    if d == "(-1.0)":
        return gen.negate(v)
    if _numeric(d) is None:
        gen.check(f"{d} == 0.0", "zero pivot", _WHERE)
    return gen.emit(f"{v} / {d}")


def _turn(gen, turn, top, low):
    """Rows ``top`` and ``low`` after the rotation ``turn`` of a Givens QR:
    (c, s) maps (u, v) to (c u + s v, -s u + c v), and None is the signed
    row swap (u, v) -> (v, -u)."""
    if turn is None:
        return low, [gen.negate(v) for v in top]
    cs, sn = turn
    minus_sn = gen.negate(sn)
    return ([gen.dot(((cs, u), (sn, v))) for u, v in zip(top, low)],
            [gen.dot(((minus_sn, u), (cs, v))) for u, v in zip(top, low)])


def _substitute(gen, R, Y):
    """R^-1 Y by back substitution, with R upper triangular (k x k) and Y
    k rows; row i reads only the rows below it."""
    k, p = len(R), len(Y[0])
    S = [[None] * p for _ in range(k)]
    for i in reversed(range(k)):
        for j in range(p):
            rest = gen.dot((R[i][l], S[l][j]) for l in range(i + 1, k))
            top = gen.negate(rest) if Y[i][j] is None else gen.combine(("+", Y[i][j]),
                                                                       ("-", rest))
            S[i][j] = _quotient(gen, top, R[i][i])
    return S


def _residual(gen, D, B, S):
    """B - D S, entry by entry."""
    return [[gen.combine(("+", b[j]), ("-", gen.dot((d[l], S[l][j]) for l in range(len(S)))))
             for j in range(len(b))] for d, b in zip(D, B)]


def _least_squares(gen, D, B, *tangent):
    """The least-squares solve of D S = B and its screen, emitted as
    straight-line code; returns S (k rows of p), the screen's bound
    |R|_F^2 |R^-1|_F^2 on cond_2(D)^2, the relative residual
    |D S - B| / |B|, the screen's verdict (true where it fails) and, given
    in ``tangent`` the derivatives dD and dB of D and B along a direction,
    the derivative dS of S along it (else None).

    D and dD (n rows of k) and B and dB (n rows of p) hold locals or
    literals, None where statically zero.  Givens QR without pivoting
    (Golub & Van Loan, *Matrix Computations*, 4th ed., 5.1.8-5.2.5) rotates
    the rows of [D | B] to [R | Q^T B], column by column, each row below the
    diagonal against the diagonal row; back substitution gives
    S = R^-1 (Q^T B)[:k], and the columns of R^-1.  The tangent of the
    solve (Giles, "Collected matrix derivative results for forward and
    reverse mode algorithmic differentiation", 2008, differentiating the
    normal equations) is dS = R^-1 (Q^T (dB - dD S))[:k]
    + R^-1 R^-T dD^T (B - D S): the same rotations turn the columns of
    dB - dD S, and R substitutes; the second term, the least-squares part,
    is left out where Q^T B has no trailing rows that are not statically
    zero (a square D, or a lifted second-order system).

    The screen raises nothing: its verdict is an output, and the kernel's
    reader leaves the points where it fails to ``extract_H``.  It passes
    when S, the bound and the residual terms are finite, the bound is at
    most (COND_LIMIT / 10)^2 and the relative residual, read from the
    trailing rows of Q^T B, is at most INVARIANCE_TOL / 10.  D = Q R keeps
    the singular values, and |A|_2 <= |A|_F, so |R|_F |R^-1|_F >= cond_2(D)
    (Golub & Van Loan, 2.3 and 5.2); with these margins a point that passes
    is regular by the SVD's reading too.  The bound is compared as a square,
    so the screen takes no sqrt.

    Static entries fold.  A rotation whose lower entry is statically zero is
    skipped; one whose upper entry is statically zero is a signed row swap,
    rows (c, q) becoming (q, -c), with no sqrt; a division by a literal 1.0
    or -1.0 is a sign.  A rotation of two entries that are both 0.0 at a
    point is the identity there.  A solve that cannot be formed raises
    DomainError where it occurs: a rotation whose a^2 + b^2 is at most
    _TINY otherwise, a zero diagonal entry of R, and every point of a wide D
    (n < k) or of one whose R has a statically zero diagonal entry."""
    n, k, p = len(D), len(D[0]), len(B[0])
    A = [list(d) + list(b) for d, b in zip(D, B)]
    rotations = []
    for c in range(min(k, n)):
        for q in range(c + 1, n):
            a, b = A[c][c], A[q][c]
            if b is None:
                continue
            if a is None:
                r, turn = b, None
            else:
                r2 = gen.dot(((a, a), (b, b)))
                # two entries that are both 0.0 at a point rotate by the
                # identity there (as LAPACK's dlartg takes them), and r = 0
                # is a pivot
                gen.check(f"({r2} <= {_TINY!r}) & (({a} != 0.0) | ({b} != 0.0))",
                          "tiny Givens rotation", _WHERE)
                r, nonzero = gen.emit(f"_sqrt({r2})"), f"{r2} != 0.0"
                turn = tuple(gen.emit(f"{v} / {r} if {nonzero} else {one}",
                                      array=f"_where({nonzero}, {v} / {r}, {one})")
                             for v, one in ((a, "1.0"), (b, "0.0")))
            top, low = _turn(gen, turn, A[c][c + 1:], A[q][c + 1:])
            A[c], A[q] = [None] * c + [r] + top, [None] * (c + 1) + low
            rotations.append((c, q, turn))
    S = [[None] * p for _ in range(k)]
    if n < k or any(A[c][c] is None for c in range(k)):
        gen.check("True", "no least-squares solve", _WHERE)
        return S, None, None, None, S
    R = [row[:k] for row in A[:k]]
    S = _substitute(gen, R, [row[k:] for row in A[:k]])
    inverse = _substitute(gen, R, [[None] * c + ["1.0"] + [None] * (k - c - 1)
                                   for c in range(k)])
    bound = gen.dot([tuple(gen.dot((v, v) for row in M for v in row) for M in (R, inverse))])
    cap = (COND_LIMIT / 10) ** 2
    terms, fails = [v for row in S for v in row] + [bound], []
    if _numeric(bound) is None or _numeric(bound) > cap:
        fails.append(f"({bound} > {cap!r})")
    residual, relative = gen.dot((v, v) for row in A[k:] for v in row[k:]), "0.0"
    if residual is not None:
        scale = gen.dot((v, v) for row in B for v in row)
        fails.append(f"({residual} > {(0.1 * INVARIANCE_TOL) ** 2!r} * {scale})")
        terms += [residual, scale]
        num, den = gen.emit(f"_sqrt({residual})"), gen.emit(f"_sqrt({scale})")
        relative = gen.emit(f"{num} / {den} if {den} > 0.0 else {num}",
                            array=f"_where({den} > 0.0, {num} / {den}, {num})")
    # a sum is finite only when every term is (an overflowing sum of finite
    # terms fails too), and v - v is 0.0 only for a finite v; a NaN compares
    # false, so these come first
    total = gen.combine(*(("+", v) for v in terms if v is not None and _numeric(v) is None))
    if total is not None:
        fails.insert(0, f"({total} - {total} != 0.0)")
    verdict = gen.emit(" | ".join(fails)) if fails else None
    if not tangent:
        return S, bound, relative, verdict, None
    dD, dB = tangent
    Y = _residual(gen, dD, dB, S)
    for c, q, turn in rotations:
        Y[c], Y[q] = _turn(gen, turn, Y[c], Y[q])
    Y = Y[:k]
    if residual is not None:
        # the least-squares term R^-T dD^T (B - D S), before R substitutes
        rest = _residual(gen, D, B, S)
        Z = [[gen.dot((d[l], r[j]) for d, r in zip(dD, rest)) for j in range(p)]
             for l in range(k)]
        Y = [[gen.combine(("+", Y[i][j]), ("+", gen.dot((inverse[l][i], Z[l][j])
                                                         for l in range(i + 1))))
              for j in range(p)] for i in range(k)]
    return S, bound, relative, verdict, _substitute(gen, R, Y)


def _solve_rows(flat, n, m):
    """D (n rows of k = 2m) and XXV (n rows of m) from the flat bracket
    outputs that follow X."""
    k = 2 * m
    D, B = flat[n:n + n * k], flat[n + n * k:]
    return [D[i * k:(i + 1) * k] for i in range(n)], [B[i * m:(i + 1) * m] for i in range(n)]


def _rhs_algebra(gen, jet):
    """The right-hand side of the joint Jacobi solve of a pair, with state
    w = (x, vec G, vec a, vec b): x' = X, G' = -H1 G / 2, a' = -H0 b and
    b' = -a - H1 b (``_products``), with H0, H1 from the bracket algebra and
    the solve of D (H0; H1) = XXV (``_least_squares``), then the verdict of
    the solve's screen."""
    n = len(jet.along)
    m = len(jet.val) // n - 1
    out = _bracket_algebra(gen, jet)
    S, _, _, verdict, _ = _least_squares(gen, *_solve_rows(out, n, m))
    H0, H1 = [v for row in S[:m] for v in row], [v for row in S[m:] for v in row]
    G, a, b = ([gen.state(n + s * m * m + c) for c in range(m * m)] for s in range(3))
    return out[:n] + _products(gen, m, H0, H1, G, a, b) + [verdict]


def _curvature_algebra(gen, jet, out, d_out):
    """The bracket algebra's outputs X, D = [V | XV] and XXV, then H0, H1,
    X(H1) row-major, the bound |R|_F^2 |R^-1|_F^2 on cond_2(D)^2, the
    relative residual and the verdict of the screen, from the solve of
    D (H0; H1) = XXV and its tangent along u (``_least_squares``), emitted
    after the sweep that gives ``d_out``."""
    n = len(jet.along)
    m = len(jet.val) // n - 1
    S, bound, residual, verdict, dS = _least_squares(gen, *_solve_rows(out, n, m),
                                                     *_solve_rows(d_out, n, m))
    return out + [v for row in S + dS[m:] for v in row] + [bound, residual, verdict]


def joint_rhs(pair: GenericPair):
    """The right-hand side w' of the joint Jacobi solve of the pair, with
    state w = (x, vec G, vec a, vec b) (``jacobi.integrate_jacobi``): one
    call of the pair's joint kernel, whose bracket algebra, least-squares
    solve and products give all of w', and whose last output is the verdict
    of the solve's screen.  A point that fails the screen goes to
    ``extract_H``, which raises the RegularityViolation it finds; where it
    passes, w' is the kernel's.  Where the solve cannot be formed (the
    kernel raises DomainError), ``extract_H`` decides the point first (or
    raises the fields' own DomainError), and the kernel's DomainError is
    raised where it passes."""
    n, kernel, env = pair.n, pair.joint_kernel, pair.params

    def rhs(w):
        try:
            out = scalar.run_field(kernel, w.tolist(), env)
        except DomainError as err:
            failed = err
        else:
            if out[-1]:
                extract_H(pair, w[:n])
            return out[:-1]
        extract_H(pair, w[:n])          # raises outside the handler
        raise failed
    return rhs


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
