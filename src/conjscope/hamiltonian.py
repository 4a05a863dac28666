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
from functools import cached_property

import numpy as np

from . import pair as pair_mod
from . import scalar
from .errors import DegenerateMetric
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
        env = dict(self.pair.params)
        env.update(self.params)
        env.update(zip(self.pair.coords, np.asarray(x, dtype=float).tolist()))
        return env

    def sigma_at(self, x, check=True):
        n = self.pair.n
        S = evaluate(self.sigma_field, self.bindings(x)).reshape(n, n)
        if check:
            scale = np.linalg.norm(S)
            if scale > 0 and np.linalg.norm(S + S.T) > 1e-12 * scale:
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
    """Max relative residual of sigma (matrix S) on pairs of columns of V."""
    scale = max(np.linalg.norm(S), 1e-300)
    worst = 0.0
    for i in range(V.shape[1]):
        for j in range(i + 1, V.shape[1]):
            num = abs(V[:, i] @ S @ V[:, j])
            den = scale * max(np.linalg.norm(V[:, i]) * np.linalg.norm(V[:, j]), 1e-300)
            worst = max(worst, num / den)
    return worst


def check_lagrangian(model: SemiHamiltonianModel, points):
    """Max relative residual of sigma(V_i, V_j) over the points: zero means
    the distribution is sigma-isotropic (the Lagrangian condition)."""
    return max([0.0] + [_isotropy_residual(model.sigma_at(x), pair_mod.frame_at(model.pair, x)[0])
                        for x in points])


def induced_metric(model: SemiHamiltonianModel, x):
    """Metric g_ij = sigma([X, V_i], V_j) at x.

    If the metric comes out negative definite it is flipped to its negative
    (recorded in the result).  Raises DegenerateMetric when the smallest
    singular value collapses."""
    pr = model.pair
    S = model.sigma_at(x)
    V, XV = pair_mod.frame_at(pr, x)
    m = pr.m
    g = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            g[i, j] = XV[:, i] @ S @ V[:, j]
    sym_res = float(np.linalg.norm(g - g.T) / max(np.linalg.norm(g), 1e-300))
    svals = np.linalg.svd(g, compute_uv=False)
    if svals[-1] < 1e-10 * max(svals[0], 1e-300):
        raise DegenerateMetric(f"induced metric degenerate at {x} (smallest sv {svals[-1]:.3e})")
    flipped = False
    eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
    if np.all(eigs < 0):
        g = -g
        flipped = True
    return {"g": g, "flipped": flipped, "symmetry_residual": sym_res,
            "eigenvalues": np.sort(eigs if not flipped else -eigs)}


# -- invariance of sigma along X (condition on the Lie derivative) ------------

def check_semi_invariance(model: SemiHamiltonianModel, points):
    """Max relative residual of the invariance condition

        X(sigma(Y, Z)) = sigma([X, Y], Z) + sigma(Y, [X, Z])

    over all pairs of frame and bracket basis fields of the span.  The two
    sides differ by Y^T L Z, where L = X(S) + DX^T S + S DX is the coordinate
    matrix of the Lie derivative L_X sigma (S the matrix of sigma, X(S) its
    derivative along X, DX the Jacobian of X), so one first-order jet of
    sigma along X and the Jacobian of X give the residual exactly."""
    pr = model.pair
    n = pr.n
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        data = pair_mod.extract_H(pr, x, raise_on_violation=False)
        S0 = model.sigma_at(x)
        _, XS, _, _ = scalar.second_partials(model.sigma_field, model.bindings(x),
                                             dict(zip(pr.coords, data.X.tolist())), {})
        _, DX = pair_mod._jacobian(pr.X, pr.coords, pr.bindings(x))
        L = XS.reshape(n, n) + DX.T @ S0 + S0 @ DX

        basis_val = [data.V[:, j] for j in range(pr.m)] + [data.XV[:, j] for j in range(pr.m)]
        basis_brk = [data.XV[:, j] for j in range(pr.m)] + [data.XXV[:, j] for j in range(pr.m)]

        scale = max(np.linalg.norm(S0), 1e-300) * max(
            max(np.linalg.norm(v) for v in basis_val) ** 2, 1e-300)
        for a in range(len(basis_val)):
            for b in range(a + 1, len(basis_val)):
                rhs = float(basis_brk[a] @ S0 @ basis_val[b] + basis_val[a] @ S0 @ basis_brk[b])
                diff = float(basis_val[a] @ L @ basis_val[b])
                bracket_scale = max(
                    scale,
                    abs(rhs + diff),
                    np.linalg.norm(S0) * np.linalg.norm(basis_brk[a]) * np.linalg.norm(basis_val[b]),
                    np.linalg.norm(S0) * np.linalg.norm(basis_val[a]) * np.linalg.norm(basis_brk[b]),
                    1e-300,
                )
                worst = max(worst, abs(diff) / bracket_scale)
    return worst


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

def transported_frames(model: SemiHamiltonianModel, ft, ts):
    """sigma, the transported frame W = V G and its horizontal partner
    XV G - V H1 G / 2 at each time of ``ts``; both residuals below read them."""
    for x, G in zip(ft.x(ts).T, ft.G(ts)):
        data = pair_mod.extract_H(model.pair, x, raise_on_violation=False)
        yield model.sigma_at(x), data.V @ G, data.XV @ G - 0.5 * data.V @ (data.H1 @ G)


def horizontal_lagrangian_residual(frames):
    """Max relative residual of sigma on pairs of transported horizontal
    frame vectors [X, W_i] with W = V G, over ``transported_frames``."""
    return max([0.0] + [_isotropy_residual(S, H) for S, _, H in frames])


def metric_constancy_residual(frames):
    """Sup relative drift over ``transported_frames`` of the induced metric
    coefficients in the transported normal frame (constant for invariant sigma)."""
    gs = [XW.T @ S @ W for S, W, XW in frames]
    scale = max(np.linalg.norm(gs[0]), 1e-300)
    return max(float(np.linalg.norm(g - gs[0]) / scale) for g in gs)
