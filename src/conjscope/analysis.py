"""End-to-end analysis pipeline and the report it produces.

One call runs one ODE solve: the trajectory, the normal-frame transport
and the Jacobi fields (no curvature in it); then, all on that solve's grid
and its one dense lookup (``Trajectory.grid``), the closed-orbit distances,
detection on a scale-free track, the sigma_min curve of P, the normal
curvature samples (one (N, m, m) array) and the bound verdicts (the Sturm
comparison is solved exactly on a quintic interpolant's pieces, not
integrated).  Detection resamples around its dips and the bounds refine
their extrema locally.
Regularity and (when a 2-form is supplied) the semi-Hamiltonian checks read
MAX_SAMPLE_POINTS evenly spaced times, one more dense lookup: unlike the
grid, which follows the step-size control, these times depend on T alone,
so the figures they give follow the trajectory, not the arithmetic of the
solve.  The normal frame is orthonormal, so the bounds read the normal
curvature alone, with no metric.
The report is a plain nested dict that serializes to JSON losslessly and
deterministically: no timestamps, no environment data, keys sorted at emission.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import frames, hamiltonian, jacobi, ode
from . import pair as pair_mod
from .errors import ClosedOrbitWarning

MAX_SAMPLE_POINTS = 160
SELFADJOINT_FLAG_TOL = 1e-6

__all__ = ["AnalysisResult", "analyze", "curve_rows"]


@dataclass
class AnalysisResult:
    """Everything the pipeline produced, plus the JSON-ready report dict."""

    pair: object
    transport: object
    jacobi_solution: object
    conjugate_times: list
    bounds: object
    report: dict
    grid: np.ndarray
    K_track: np.ndarray           # (len(grid), m, m) normal curvature samples
    sigma_min_track: np.ndarray


def _closed_orbit_suspected(ft):
    """Whether the trajectory comes back to x(0) on [0.1 T, T] within 1e-6
    of the largest distance from it reached by then: the smallest sampled
    distance there, refined only when it can fall to that cut (the reach
    test of ``ode._minima``; i >= 1, since grid[0] = 0 < 0.1 T).  A closed
    orbit has traced its whole loop before it returns, so its cut comes from
    the loop's largest distance; growth after the candidate does not raise
    the cut."""
    grid = ft.grid()
    x0 = ft.x(0.0)
    dist = lambda ts: np.linalg.norm(ft.x(ts) - x0[:, None], axis=0)
    vals = dist(grid)
    if float(np.max(vals)) == 0.0:
        return True
    cand = np.flatnonzero(grid >= 0.1 * ft.T)
    if len(cand) == 0:
        return False
    i = cand[np.argmin(vals[cand])]
    right = min(i + 1, len(grid) - 1)
    cut = 1e-6 * float(np.max(vals[:i + 1]))
    if vals[i] - ode._reach(grid, vals, i, right) > cut:
        return False
    _, d_min = ode.refine_minimum(dist, grid[i - 1], grid[right])
    return d_min < cut


def _subsample(ts, cap):
    """``cap`` rows of ``ts``, evenly spread by index (``ts`` has more)."""
    return ts[np.unique(np.linspace(0, len(ts) - 1, cap).round().astype(int))]


def analyze(model, x0=None, T=None, sigma=None, rel_tol=ode.DEFAULT_REL_TOL,
            abs_tol=ode.DEFAULT_ABS_TOL, rank_tol=jacobi.RANK_TOL, system_name=None,
            params_used=None) -> AnalysisResult:
    """Run the full pipeline on a model (second-order system or generic pair).

    ``sigma`` optionally supplies the coordinate matrix of a 2-form for the
    semi-Hamiltonian checks.  ``x0`` is the 2m state (position, velocity) for
    second-order models; a leading time coordinate is added automatically for
    nonautonomous systems.  ``rel_tol`` and ``abs_tol`` set the one ODE solve.

    The report's ``sigma_min_dips`` and the ``sigma_min_P`` column of
    ``curve_rows`` read sigma_min(P), the Jacobi matrix in the normal frame,
    not the scale-free track b^ that detection cuts at ``jacobi.DETECT_TOL``:
    P grows with the fields, so a dip does not show how close detection came
    to its cut."""
    pair = pair_mod.as_pair(model)
    if x0 is None or T is None:
        raise ValueError("x0 and T are required")
    x0_full = pair_mod.full_x0(model, pair, x0)
    T = float(T)
    m = pair.m

    ft = frames.transport_normal_frame(pair, x0_full, T, rel_tol=rel_tol, abs_tol=abs_tol)
    js = ft.jacobi_solution
    grid = js.grid()

    sample_x, sample_G = js.blocks(np.linspace(0.0, T, MAX_SAMPLE_POINTS))[:2]
    points = sample_x.T
    regularity = pair_mod.check_regularity(pair, points)

    closed = _closed_orbit_suspected(ft)
    if closed:
        warnings.warn("trajectory appears to revisit its initial point; "
                      "conjugate-point analysis assumes a non-closed trajectory",
                      ClosedOrbitWarning, stacklevel=2)

    cts = jacobi.find_conjugate_times(js, rank_tol=rank_tol)

    K_track = ft.K_normal(grid)
    brep = bounds_mod.bounds_report(K_track, grid, m, T,
                                    [(c.t_star, c.multiplicity) for c in cts],
                                    K_at=ft.K_normal)

    sigma_track = js.sigma_min(grid)
    dips = [{"t": float(t), "value": float(v)}
            for t, v in ode.refined_minima(js.sigma_min, grid, sigma_track, interior=True)]

    ham_section = None
    if sigma is not None:
        sh = hamiltonian.SemiHamiltonianModel(pair=pair, sigma=sigma)
        pts = _subsample(points, 12)
        metric_info = hamiltonian.induced_metric(sh, x0_full)
        # G(0) = I, so the first normal curvature sample is K at x0
        selfadj = hamiltonian.check_K_selfadjoint(metric_info["g"], K_track[0])
        ham_frames = hamiltonian.transported_frames(sh, _subsample(points, 24).T,
                                                    _subsample(sample_G, 24))
        flags = []
        if selfadj > SELFADJOINT_FLAG_TOL:
            flags.append("curvature_not_selfadjoint")
        if metric_info["flipped"]:
            flags.append("metric_sign_flipped")
        ham_section = {
            "lagrangian_residual": hamiltonian.check_lagrangian(sh, pts),
            "semi_invariance_residual": hamiltonian.check_semi_invariance(sh, pts[:8]),
            "metric_symmetry_residual": metric_info["symmetry_residual"],
            "metric_eigenvalues": [float(v) for v in metric_info["eigenvalues"]],
            "metric_flipped": bool(metric_info["flipped"]),
            "selfadjoint_residual": float(selfadj),
            "horizontal_lagrangian_residual": hamiltonian.horizontal_lagrangian_residual(ham_frames),
            "metric_constancy_residual": hamiltonian.metric_constancy_residual(ham_frames),
            "flags": flags,
        }

    report = {
        "system": {
            "name": system_name or type(model).__name__,
            "kind": "sode" if isinstance(model, pair_mod.SODEModel) else "generic",
            "m": m,
            "n": pair.n,
            "coords": list(pair.coords),
            "params": {k: v for k, v in sorted((params_used or {}).items())},
        },
        "trajectory": {
            "x0": [float(v) for v in x0_full],
            "T": T,
            "rel_tol": ft.joint.rel_tol,
            "abs_tol": ft.joint.abs_tol,
            "steps": int(ft.joint.n_steps),
            "rhs_evals": int(ft.joint.n_rhs_evals),
        },
        "jacobi": {
            "rel_tol": js.joint.rel_tol,
            "abs_tol": js.joint.abs_tol,
            "steps": int(js.joint.n_steps),
            "rhs_evals": int(js.joint.n_rhs_evals),
        },
        "tolerances": {"rank_tol": rank_tol, "zero_tol": jacobi.DETECT_TOL},
        "regularity": {
            "all_ok": bool(regularity.all_ok),
            "worst_cond": float(regularity.worst_cond),
            "worst_residual": float(regularity.worst_residual),
            "points_checked": len(regularity.cond_D),
            "weak_invariance_points": int(np.sum(regularity.weak_invariance_only)),
        },
        "closed_orbit_suspected": bool(closed),
        "conjugate_times": [c.as_dict() for c in cts],
        "sigma_min_dips": dips,
        "bounds": {
            "lambda_max": float(brep.lambda_max),
            "trK_min": float(brep.trK_min),
            "symmetry_residual": float(brep.symmetry_residual),
            "safe_interval": [0.0, float(brep.safe_interval[1])],
            "trace_bound_time": None if brep.trace_bound_time is None else float(brep.trace_bound_time),
            "trace_bound_reason": brep.trace_bound_reason,
            "eigenlines": [
                {
                    "direction": [float(v) for v in tr.direction],
                    "kappa": float(tr.kappa),
                    "predicted_first_zero": None if tr.predicted_first_zero is None else float(tr.predicted_first_zero),
                    "sturm_zeros": [float(z) for z in tr.sturm_zeros],
                }
                for tr in brep.eigenline_tracks
            ],
            "verdicts": dict(sorted(brep.verdicts.items())),
        },
        "hamiltonian": ham_section,
    }

    return AnalysisResult(pair=pair, transport=ft,
                          jacobi_solution=js, conjugate_times=cts, bounds=brep,
                          report=report, grid=grid, K_track=K_track,
                          sigma_min_track=sigma_track)


def _curve_columns(m):
    cols = ["t", "sigma_min_P"]
    for i in range(m):
        cols += [f"k_eig_{i+1}_re", f"k_eig_{i+1}_im"]
    cols += ["tr_K", "det_G"]
    return cols


def curve_rows(result: AnalysisResult):
    """Rows of the curves table: t, sigma_min(P), curvature eigenvalues
    (real/imag, sorted by real part), trace, det G."""
    eig = np.sort_complex(np.linalg.eigvals(result.K_track))
    table = np.column_stack([result.grid, result.sigma_min_track,
                             np.stack([eig.real, eig.imag], axis=2).reshape(len(eig), -1),
                             np.trace(result.K_track, axis1=1, axis2=2),
                             result.transport.det_G(result.grid)])
    return _curve_columns(result.pair.m), table.tolist()
