import json
import math
import warnings

import numpy as np
import pytest

from conjscope import analysis, catalog, jacobi, ode, pair as pm
from conjscope.errors import ClosedOrbitWarning


def test_closed_orbit_warning_emitted():
    model, _ = catalog.build("harmonic", {"omega": 1.0})
    with pytest.warns(ClosedOrbitWarning):
        res = analysis.analyze(model, x0=(0.3, 0.7), T=7.0)
    assert res.report["closed_orbit_suspected"]
    # times are still computed
    assert len(res.report["conjugate_times"]) == 2


def test_no_closed_orbit_for_short_horizon():
    model, _ = catalog.build("harmonic", {"omega": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error", ClosedOrbitWarning)
        res = analysis.analyze(model, x0=(0.3, 0.7), T=3.0)
    assert not res.report["closed_orbit_suspected"]


def test_nonautonomous_x0_lifting():
    model = pm.SODEModel(m=1, F=("-x1 - 0.05*t*y1",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(0.5, 0.2), T=4.0)
    assert res.report["trajectory"]["x0"] == [0.0, 0.5, 0.2]
    assert res.report["system"]["n"] == 3


def test_report_is_json_roundtrippable():
    model, sigma = catalog.build("mechanical", {"quart": 0.2})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(0.4, -0.3, 0.1, 0.5), T=4.0, sigma=sigma)
    text = json.dumps(res.report, sort_keys=True)
    assert json.loads(text) == res.report


def test_verdict_values_are_constrained():
    model, _ = catalog.build("harmonic", {"omega": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(0.3, 0.7), T=7.0)
    for v in res.report["bounds"]["verdicts"].values():
        assert v in ("consistent", "violated", "not_applicable")


def test_sigma_min_dips_track_conjugate_times():
    model, _ = catalog.build("perturbed_pair", {"eps": 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(0.2, -0.1, 1.0, 0.4), T=7.0)
    dips = res.report["sigma_min_dips"]
    assert len(dips) >= 2
    deep = sorted(d["t"] for d in dips if d["value"] < 1e-7)
    assert abs(deep[0] - math.pi) < 1e-6
    assert abs(deep[1] - 2 * math.pi) < 1e-6


def test_curve_rows_shape_and_content():
    model, _ = catalog.build("harmonic", {"omega": 2.0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(model, x0=(0.3, 0.7), T=3.0)
    columns, rows = analysis.curve_rows(res)
    assert columns == ["t", "sigma_min_P", "k_eig_1_re", "k_eig_1_im", "tr_K", "det_G"]
    assert len(rows) == len(res.grid)
    for row in rows[:: len(rows) // 7]:
        assert row[2] == pytest.approx(4.0, abs=1e-9)   # curvature eigenvalue
        assert row[3] == 0.0
        assert row[5] == pytest.approx(1.0, abs=1e-12)  # det G, H1 = 0


def test_generic_pair_input_accepted():
    model = pm.SODEModel(m=1, F=("-x1",), autonomous=True)
    pr_sode = pm.lift_sode(model)
    pr = pm.GenericPair(coords=pr_sode.coords, X=pr_sode.X, vframe=pr_sode.vframe)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = analysis.analyze(pr, x0=(0.3, 0.7), T=4.0)
    times = [c["t"] for c in res.report["conjugate_times"]]
    assert len(times) == 1 and abs(times[0] - math.pi) < 1e-6


def test_x0_length_validation():
    model, _ = catalog.build("harmonic")
    with pytest.raises(ValueError):
        analysis.analyze(model, x0=(0.3,), T=4.0)
    with pytest.raises(ValueError):
        analysis.analyze(model, x0=(0.3, 0.7), T=None)


@pytest.mark.parametrize("name, params, x0, T, n_tracks", [
    ("harmonic", {"omega": 1.0}, (0.3, 0.7), 3.0, 1),
    ("perturbed_pair", {"eps": 0.0}, (0.2, -0.1, 1.0, 0.4), 4.0, 2),
    ("perturbed_pair", {"eps": 0.05}, (0.2, -0.1, 1.0, 0.4), 4.0, 0),
])
def test_analyze_solves_transport_jacobi_and_one_per_eigenline(monkeypatch, name, params, x0, T,
                                                               n_tracks):
    # the transport is the trajectory: no separate solve of X alone
    solves = []
    integrate = ode.integrate

    def counting(*args, **kwargs):
        solves.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(ode, "integrate", counting)
    model, _ = catalog.build(name, params)
    res = analysis.analyze(model, x0=x0, T=T)
    assert len(res.bounds.eigenline_tracks) == n_tracks
    assert len(solves) == 2 + n_tracks


def test_report_states_the_transport_and_jacobi_solves():
    model, _ = catalog.build("perturbed_pair", {"eps": 0.05})
    res = analysis.analyze(model, x0=(0.2, -0.1, 1.0, 0.4), T=4.0, rel_tol=1e-9, abs_tol=1e-11)
    rep = res.report["trajectory"]
    joint = res.transport.joint
    assert rep["steps"] == joint.n_steps
    assert rep["rhs_evals"] == joint.n_rhs_evals
    assert (rep["rel_tol"], rep["abs_tol"]) == (joint.rel_tol, joint.abs_tol) == (1e-9, 1e-11)
    joint = res.jacobi_solution.joint
    assert res.report["jacobi"] == {
        "rel_tol": jacobi.JACOBI_REL_TOL,
        "abs_tol": jacobi.JACOBI_ABS_TOL,
        "steps": joint.n_steps,
        "rhs_evals": joint.n_rhs_evals,
    }
    assert (joint.rel_tol, joint.abs_tol) == (jacobi.JACOBI_REL_TOL, jacobi.JACOBI_ABS_TOL)
