"""Semi-Hamiltonian structure checks.

A skew 2-form sigma (given as a coordinate matrix of expressions, contracted
only with vectors of the span of the frame and its brackets) induces a metric
g(V, W) = sigma([X, V], W) on the distribution when the distribution is
sigma-isotropic.  The module verifies the isotropy condition, the invariance
of sigma along X, the induced metric's symmetry and nondegeneracy, and the
self-adjointness of the curvature with respect to it.  Closedness of sigma is
neither required nor checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from . import pair as pair_mod
from . import scalar
from .errors import DegenerateMetric
from .pair import _T, _fro, _norms, on_blocks
from .scalar import Field, evaluate

__all__ = ["SemiHamiltonianModel", "check_lagrangian", "induced_metric",
           "check_semi_invariance", "check_K_selfadjoint", "canonical_sigma",
           "transported_frames", "horizontal_lagrangian_residual",
           "metric_constancy_residual"]


@dataclass(frozen=True)
class SemiHamiltonianModel:
    """A generic pair together with a coordinate matrix of 2-form components."""

    pair: pair_mod.GenericPair
    sigma: tuple                  # n x n ExprPrograms, antisymmetric pointwise
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "sigma",
            tuple(tuple(pair_mod._as_expr(e) for e in row) for row in self.sigma))
        n = self.pair.n
        if len(self.sigma) != n or any(len(row) != n for row in self.sigma):
            raise ValueError("sigma must be an n x n matrix of expressions")

    @cached_property
    def sigma_field(self):
        """The n x n components row by row as one Field."""
        return Field(e for row in self.sigma for e in row)

    def bindings(self, x):
        """The parameters and the coordinates of one point (n,) or of an
        (n, N) stack, as ``GenericPair.bindings``."""
        env = self.pair.bindings(x)
        env.update(self.params)
        return env

    def sigma_at(self, x, check=True):
        """The n x n matrix of sigma at x; a stack (n, N) gives N matrices."""
        n = self.pair.n
        S = evaluate(self.sigma_field, self.bindings(x))
        S = S.reshape(S.shape[:-1] + (n, n))
        if check:
            scale = _fro(S)
            if np.any((scale > 0) & (_fro(S + _T(S)) > 1e-12 * scale)):
                raise ValueError("sigma matrix is not antisymmetric at the evaluated point")
        return S


def canonical_sigma(m, coords=None):
    """Matrix of sum dx_i ^ dy_i on coordinates (x1..xm, y1..ym); a leading t
    coordinate (odd total dimension) gets a zero row and column."""
    offset = 0 if coords is None or len(coords) == 2 * m else 1
    n = 2 * m + offset
    rows = [["0"] * n for _ in range(n)]
    for i in range(m):
        rows[offset + i][offset + m + i] = "1"
        rows[offset + m + i][offset + i] = "-1"
    return tuple(tuple(row) for row in rows)


def _isotropy_residual(S, V):
    """Max relative residual of sigma (matrix S) on pairs of columns of V,
    over every (S, V) of a stack; 0 for an empty stack or one column."""
    i, j = np.triu_indices(V.shape[-1], 1)
    scale = np.maximum(_fro(S), 1e-300)
    norms = _norms(_T(V))
    num = np.abs((_T(V) @ S @ V)[..., i, j])
    den = scale[..., None] * np.maximum(norms[..., i] * norms[..., j], 1e-300)
    return float(np.max(num / den, initial=0.0))


def check_lagrangian(model: SemiHamiltonianModel, points):
    """Max relative residual of sigma(V_i, V_j) over the rows of ``points``
    (N x n): zero means the distribution is sigma-isotropic (the Lagrangian
    condition)."""
    xs = np.asarray(points, dtype=float).T
    S, V = on_blocks(lambda b: (model.sigma_at(b), pair_mod.frame_at(model.pair, b)[0]), xs)
    return _isotropy_residual(S, V)


def induced_metric(model: SemiHamiltonianModel, x):
    """Metric g_ij = sigma([X, V_i], V_j) at x.

    If the metric comes out negative definite it is flipped to its negative
    (recorded in the result).  Raises DegenerateMetric when the smallest
    singular value collapses."""
    pr = model.pair
    S = model.sigma_at(x)
    V, XV = pair_mod.frame_at(pr, x)
    g = XV.T @ S @ V
    sym_res = float(np.linalg.norm(g - g.T) / max(np.linalg.norm(g), 1e-300))
    svals = np.linalg.svd(g, compute_uv=False)
    if svals[-1] < 1e-10 * max(svals[0], 1e-300):
        raise DegenerateMetric(f"induced metric degenerate at {x} (smallest sv {svals[-1]:.3e})")
    eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
    flipped = bool(np.all(eigs < 0))
    sign = -1.0 if flipped else 1.0
    return {"g": sign * g, "flipped": flipped, "symmetry_residual": sym_res,
            "eigenvalues": np.sort(sign * eigs)}


# -- invariance of sigma along X (condition on the Lie derivative) ------------

def check_semi_invariance(model: SemiHamiltonianModel, points):
    """Max relative residual of the invariance condition

        X(sigma(Y, Z)) = sigma([X, Y], Z) + sigma(Y, [X, Z])

    over all pairs of frame and bracket basis fields of the span.  The two
    sides differ by Y^T L Z, where L = X(S) + DX^T S + S DX is the coordinate
    matrix of the Lie derivative L_X sigma (S the matrix of sigma, X(S) its
    derivative along X, DX the Jacobian of X), so one first-order jet of
    sigma along X and the Jacobian of X give the residual exactly.  The
    points are read as one stack: one bracket jet, one jet of sigma along X
    with per-point directions and one Jacobian of X per block."""
    pr = model.pair

    def at(xs):
        x_val, V, XV, XXV = pair_mod.brackets_at(pr, xs)
        S = model.sigma_at(xs)
        _, XS, _, _ = scalar.second_partials(model.sigma_field, model.bindings(xs),
                                             dict(zip(pr.coords, x_val.T)), {})
        _, DX = pair_mod._jacobian(pr.X, pr.coords, pr.bindings(xs))
        L = XS.reshape(S.shape) + _T(DX) @ S + S @ DX
        return S, L, np.concatenate([V, XV], axis=-1), np.concatenate([XV, XXV], axis=-1)

    # the basis fields (frame, then first brackets) and their brackets with X
    S, L, val, brk = on_blocks(at, np.asarray(points, dtype=float).T)
    diff = _T(val) @ L @ val
    rhs = _T(brk) @ S @ val + _T(val) @ S @ brk
    norm_S = _fro(S)[:, None, None]
    norm_val, norm_brk = _norms(_T(val))[:, :, None], _norms(_T(brk))[:, :, None]
    scale = np.maximum(norm_S, 1e-300) * np.maximum(np.max(norm_val, axis=1, keepdims=True) ** 2,
                                                    1e-300)
    bracket_scale = reduce(np.maximum, [scale, np.abs(rhs + diff), norm_S * norm_brk * _T(norm_val),
                                        norm_S * norm_val * _T(norm_brk), 1e-300])
    a, b = np.triu_indices(val.shape[-1], 1)
    return float(np.max((np.abs(diff) / bracket_scale)[:, a, b], initial=0.0))


def check_K_selfadjoint(g, K):
    """Relative asymmetry of gK; zero means K is self-adjoint for g."""
    g = np.asarray(g, dtype=float)
    K = np.asarray(K, dtype=float)
    gK = g @ K
    scale = np.linalg.norm(gK)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(gK - gK.T) / scale)


# -- transported-frame diagnostics --------------------------------------------

def transported_frames(model: SemiHamiltonianModel, x, G):
    """sigma, the transported frame W = V G and its horizontal partner
    XV G - V H1 G / 2 at the points ``x`` (n, N) of a trajectory, where the
    normal-frame transport is ``G`` (N, m, m): three stacks along the points,
    from one ``extract_H`` call per block.  Both residuals below read them."""
    def at(xs):
        data = pair_mod.extract_H(model.pair, xs, raise_on_violation=False)
        return model.sigma_at(xs), data.V, data.XV, data.H1

    S, V, XV, H1 = on_blocks(at, x)
    return S, V @ G, XV @ G - 0.5 * V @ (H1 @ G)


def horizontal_lagrangian_residual(frames):
    """Max relative residual of sigma on pairs of transported horizontal
    frame vectors [X, W_i] with W = V G, over ``transported_frames``."""
    S, _, H = frames
    return _isotropy_residual(S, H)


def metric_constancy_residual(frames):
    """Sup relative drift over ``transported_frames`` of the induced metric
    coefficients in the transported normal frame (constant for invariant sigma)."""
    S, W, XW = frames
    gs = _T(XW) @ S @ W
    return float(np.max(_fro(gs - gs[0])) / max(_fro(gs[0]), 1e-300))
