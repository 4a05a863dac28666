"""Tests of the benchmark harness itself: python3 -m pytest bench -q"""

import json
import math
import os
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from conjscope import analysis, catalog, cli, ode, pair, scalar  # noqa: E402

import inputs  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (CatalogWorkload, CrosscheckWorkload, Outcome, SweepWorkload,  # noqa: E402
                       _Workload)


def test_inputs_are_seeded_and_inside_the_guards():
    assert inputs.catalog_cycle(3) == inputs.catalog_cycle(3)
    assert inputs.catalog_cycle(3) != inputs.catalog_cycle(4)
    for op in inputs.catalog_cycle(3):
        entry = catalog.ENTRIES[op["system"]]
        if op["x0"] is not None:
            entry.check_x0(op["x0"])
        if op["system"] == "harmonic":
            assert 0.5 <= op["params"]["omega"] <= 3.0
    values = inputs.sweep_cycle(3)[0]["values"]
    assert len(values) == 4                # the CLI's pool runs at its 4-thread cap
    assert values[0] == 0.0 and all(0.01 <= v <= 0.1 for v in values[1:])


def test_short_horizons_still_hold_a_conjugate_time():
    expected = {"harmonic": [1], "perturbed_pair": [2], "sphere_spray": [1]}
    for op in inputs.catalog_cycle(3):
        if op["system"] in expected and op["params"].get("eps", 0.0) == 0.0:
            reference = CatalogWorkload.reference(op)
            assert [mult for _, mult in reference] == expected[op["system"]]
            assert reference[0][0] < 0.9 * op["T"]


def test_prepared_inputs_survive_the_child_process_round_trip():
    prepared = SweepWorkload.prepare(3)
    assert json.loads(json.dumps(prepared)) == json.loads(json.dumps(prepared))
    op = prepared["cycle"][0]
    refs = json.loads(json.dumps(prepared["references"]))[0]
    assert SweepWorkload.check(0, _sweep_csv(op["values"], refs), op["values"], refs) == []


def test_crosscheck_inputs_are_generic_pairs_with_a_third_nonautonomous():
    cycle = inputs.crosscheck_cycle(5)
    assert [op["m"] for op in cycle] == [m for m, _ in inputs.CROSSCHECK_SLOTS]
    assert sum(op["nonautonomous"] for op in cycle) == len(cycle) // 3
    for op in cycle:
        built = inputs.build_pair(op["spec"])
        assert built.sode is None
        assert len(op["x0"]) == built.n == 2 * op["m"] + op["nonautonomous"]


def test_analysis_cost_takes_the_median_calibrated_repeat_per_input():
    class Two(_Workload):
        name = "two"

        def analyses(self, index):
            return 1 + index          # the second input runs two analyses

    def outcome(index, wall, probe_s):
        return Outcome(index=index, wall=wall, probe_s=probe_s, analyses=1 + index)

    outcomes = [outcome(0, 1.0, 0.01), outcome(1, 6.0, 0.02), outcome(0, 3.0, 0.01),
                outcome(1, 9.0, 0.03), outcome(0, 1.5, 0.01)]
    metrics, _ = run.end_to_end(Two([None, None]), outcomes, setup_s=0.5)
    # input 0: median of 100, 300, 150 = 150; input 1: median of 300, 300 = 300
    assert metrics["analysis_cost"]["value"] == pytest.approx((150 + 300) / 3)
    assert metrics["setup_s"] == {"value": 0.5, "unit": "s"}


@pytest.mark.parametrize("pin", [True, False])
def test_sampler_times_pieces_during_an_operation_and_restores_affinity(pin):
    affinity = os.sched_getaffinity(0)
    with probe.Sampler(pin=pin) as sampler:
        t0 = time.perf_counter()
        time.sleep(10 * probe.PERIOD)
        t1 = time.perf_counter()
        during = sampler.mean(t0, t1)
        assert len(os.sched_getaffinity(0)) == (1 if pin else len(affinity))
    assert 0.0 < during < probe.PERIOD
    assert sampler.mean(t1 + 1.0, t1 + 2.0) == sampler.seconds[-1]
    assert os.sched_getaffinity(0) == affinity


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(10))) == (None, None)
    assert run.tail(list(range(20))) == (9, 50.0)
    assert run.tail(list(range(100))) == (89, 90.0)


@pytest.fixture(scope="module")
def harmonic_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("analyze")
    assert cli.main(["analyze", "--system", "harmonic", "--param", "omega=0.5",
                     "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())


def test_catalog_check_accepts_the_closed_form(harmonic_report):
    op = {"system": "harmonic", "params": {"omega": 0.5}, "x0": None, "T": None}
    reference = CatalogWorkload.reference(op)
    assert reference == [(2 * math.pi, 1)]
    assert CatalogWorkload.check(harmonic_report, reference, "h") == []


@pytest.mark.parametrize("corrupt", [
    lambda ref: [(t + 1e-3, m) for t, m in ref],
    lambda ref: [(t, m + 1) for t, m in ref],
    lambda ref: ref + [(3 * math.pi, 1)],
])
def test_corrupted_reference_registers_a_failure(harmonic_report, corrupt):
    reference = CatalogWorkload.reference({"system": "harmonic", "params": {"omega": 0.5},
                                           "x0": None, "T": None})
    assert CatalogWorkload.check(harmonic_report, corrupt(reference), "h")


def test_violated_verdict_is_a_failure(harmonic_report):
    report = json.loads(json.dumps(harmonic_report))
    report["bounds"]["verdicts"]["max_eig_bound"] = "violated"
    assert CatalogWorkload.check(report, [(2 * math.pi, 1)], "h")


def test_a_repeat_with_other_output_is_a_failure():
    class Drifting(_Workload):
        name = "drifting"

        def _run(self, index, outcome):
            self.calls = getattr(self, "calls", 0) + 1
            outcome.output = "same" if self.calls < 3 else "changed"

    w = Drifting([None])
    assert [bool(w.run(0).failures) for _ in range(3)] == [False, False, True]


def test_crosscheck_check_uses_the_oracle_rule():
    report = {"bounds": {"verdicts": {"max_eig_bound": "consistent"}},
              "regularity": {"all_ok": True}}
    found = [(1.5, 1), (2.5, 2)]
    assert CrosscheckWorkload.check(0, report, found, list(found)) == []
    assert CrosscheckWorkload.check(0, report, found, [(1.5 + 2e-6, 1), (2.5, 2)])
    assert CrosscheckWorkload.check(0, report, found, found[:1])


def _sweep_csv(values, references, dip_shift=0.0):
    lines = ["eps,first_conjugate_time,n_conjugate_times,min_sigma_min_dip,a,b,c"]
    for v, ref in zip(values, references):
        first = f"{ref['times'][0][0]:.17g}" if ref["times"] else "NONE"
        lines.append(f"{v:.17g},{first},{len(ref['times'])},"
                     f"{ref['min_envelope'] + dip_shift:.17g},consistent,consistent,consistent")
    return "\n".join(lines) + "\n"


def test_sweep_check_against_the_closed_form():
    values = [0.0, 0.03]
    T = catalog.ENTRIES["perturbed_pair"].default_T
    refs = [catalog.perturbed_pair_oracle(v, T) for v in values]
    assert SweepWorkload.check(0, _sweep_csv(values, refs), values, refs) == []
    assert SweepWorkload.check(0, _sweep_csv(values, refs, dip_shift=1e-4), values, refs)
    swapped = [refs[1], refs[0]]
    assert SweepWorkload.check(0, _sweep_csv(values, refs), values, swapped)


def test_tracer_wraps_every_namespace_and_restores():
    original_evaluate = scalar.evaluate
    original_at = ode.Trajectory.__dict__["at"]
    model = pair.lift_sode(catalog.build("harmonic", {"omega": 1.0})[0])
    with tracer.Tracer() as tr:
        assert pair.evaluate is not original_evaluate          # by-name import
        traj = ode.integrate(model.field_callable(), [0.3, 0.7], 1.0)
        traj.at(0.5)
    totals, rhs, steps = tr.totals()
    assert totals["scalar.evaluate"][0] > 0
    assert totals["ode.at"][0] == 1
    assert (rhs, steps) == (traj.n_rhs_evals, traj.n_steps)
    assert scalar.evaluate is original_evaluate and pair.evaluate is original_evaluate
    assert ode.Trajectory.__dict__["at"] is original_at


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    original = ode.integrate
    monkeypatch.setattr(tracer, "FUNCTIONS", tracer.FUNCTIONS[:1] + (("ode", "gone", "ode.gone"),))
    with pytest.raises(RuntimeError, match="conjscope.ode.gone"):
        with tracer.Tracer():
            pass
    assert ode.integrate is original


def test_traced_and_untraced_analyses_agree():
    model, sigma = catalog.build("harmonic", {"omega": 0.5})
    args = dict(x0=(0.3, 0.7), T=7.0, sigma=sigma)
    plain = analysis.analyze(model, **args).report
    with tracer.Tracer():
        traced = analysis.analyze(model, **args).report
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
