"""The benchmark's workloads: one operation each, its reference and its checks.

* ``catalog`` runs the in-process ``conjscope analyze --out`` command on
  seeded draws of every catalog entry (the second-order closed-form path).
* ``crosscheck`` runs ``analysis.analyze`` and then
  ``jacobi.variational_oracle`` on random second-order systems handed over as
  generic pairs (the generic bracket path, and the oracle's linearized flow).
* ``sweep`` runs the in-process ``conjscope sweep`` command over
  perturbed_pair with ``CONJSCOPE_THREADS`` unset (the CLI's thread pool).

``prepare(seed)`` makes a workload's inputs (the crosscheck screening
included) and its references: closed forms where the catalog has them, the
variational oracle for the mechanical entry.  The harness calls it in a child
process (prepare.py), so none of that work counts in the harness's peak
memory, and builds the workload from the result.  ``run`` times the
operation alone and checks its output afterwards.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from conjscope import analysis, catalog, cli, jacobi
from conjscope.errors import ClosedOrbitWarning

import inputs

TIME_TOL = 1e-6                   # |dt| allowed against a reference (acceptance suite)


@dataclass
class Outcome:
    """One operation: the cycle index of its input, its wall time, the named
    timings inside it, how many analyses it completed, the output every
    repeat of the same input must reproduce exactly (report.json text,
    sweep.csv text, or the analysis and oracle conjugate times; traced
    repeats included) and the check failures.  The harness adds the mean
    time of the host-speed pieces run during it (probe.py)."""

    index: int = 0
    wall: float = 0.0
    probe_s: float = 0.0
    timings: dict = field(default_factory=dict)
    analyses: int = 0
    output: object = None
    failures: list = field(default_factory=list)


def compare_times(found, expected, label):
    """Failures when (t, multiplicity) lists differ in count, multiplicity or
    by TIME_TOL or more in time."""
    if len(found) != len(expected):
        return [f"{label}: {len(found)} conjugate times, expected {len(expected)}"
                f" ({found} vs {expected})"]
    out = []
    for (t, mult), (t_ref, mult_ref) in zip(found, expected):
        if mult != mult_ref:
            out.append(f"{label}: multiplicity {mult} at t={t!r}, expected {mult_ref}")
        if not abs(t - t_ref) < TIME_TOL:
            out.append(f"{label}: conjugate time {t!r}, expected {t_ref!r}")
    return out


def _verdict_failures(verdicts, label):
    return [f"{label}: bound {name} is violated"
            for name, value in sorted(verdicts.items()) if value == "violated"]


def _float_arg(value):
    return repr(float(value))


def _cli(argv):
    """Exit code of the in-process CLI, including argparse's usage exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class _Workload:
    name = ""
    threads = 1                   # threads the operation runs; one is pinned to one CPU

    def __init__(self, cycle):
        self.cycle = cycle
        self._first = {}          # cycle index -> first output, for repeats

    def analyses(self, index):
        """Analyses one operation on the input runs."""
        return 1

    def run(self, index):
        """Run one operation of the cycle and check it; never raises."""
        outcome = Outcome(index=index)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ClosedOrbitWarning)
                self._run(index, outcome)
        except Exception:         # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            outcome.failures.append(f"{self.name}[{index}]: raised")
        if outcome.failures:
            return outcome
        first = self._first.setdefault(index, outcome.output)
        if first != outcome.output:
            outcome.failures.append(f"{self.name}[{index}]: output differs from the first run"
                                    " of the same input")
        return outcome


class CatalogWorkload(_Workload):
    name = "catalog"

    def __init__(self, prepared, workdir):
        super().__init__(prepared["cycle"])
        self.out = Path(workdir) / "analyze"
        self.references = prepared["references"]

    @classmethod
    def prepare(cls, seed):
        cycle = inputs.catalog_cycle(seed)
        return {"cycle": cycle, "references": [cls.reference(op) for op in cycle]}

    def setup_spec(self):
        return {"catalog": [[op["system"], op["params"]] for op in self.cycle]}

    @staticmethod
    def reference(op):
        """Expected (t, multiplicity) list, or None where the check compares
        the report with itself (dancing: Sturm zeros against detections)."""
        entry = catalog.ENTRIES[op["system"]]
        T = op["T"] if op["T"] is not None else entry.default_T
        params = op["params"]
        if op["system"] == "harmonic":
            step = math.pi / params["omega"]
            return [(k * step, 1) for k in range(1, int(T / step) + 1)]
        if op["system"] == "perturbed_pair":
            return [(t, mult) for t, mult in catalog.perturbed_pair_oracle(params["eps"], T)["times"]]
        if op["system"] == "sphere_spray":
            return [(k * math.pi, 1) for k in range(1, int(T / math.pi) + 1)]
        if op["system"] == "mechanical":
            model, _ = catalog.build("mechanical", params)
            x0 = op["x0"] if op["x0"] is not None else entry.default_x0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ClosedOrbitWarning)
                return [(c.t_star, c.multiplicity) for c in jacobi.variational_oracle(model, x0, T)]
        return None

    def argv(self, op):
        argv = ["analyze", "--system", op["system"]]
        for key, value in op["params"].items():
            text = value if isinstance(value, str) else _float_arg(value)
            argv += ["--param", f"{key}={text}"]
        if op["x0"] is not None:
            argv.append("--x0=" + ",".join(_float_arg(v) for v in op["x0"]))
        if op["T"] is not None:
            argv += ["--T", _float_arg(op["T"])]
        return argv + ["--out", str(self.out)]

    def _run(self, index, outcome):
        op = self.cycle[index]
        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.argv(op)
        t0 = time.perf_counter()
        rc = _cli(argv)
        outcome.wall = time.perf_counter() - t0
        outcome.timings["analyze_s"] = outcome.wall
        outcome.analyses = 1
        label = f"catalog[{index}] {op['system']} {op['params']}"
        if rc != 0:
            outcome.failures.append(f"{label}: exit code {rc}")
            return
        text = (self.out / "report.json").read_text()
        with open(self.out / "curves.csv") as fh:
            if sum(1 for _ in fh) < 2:
                outcome.failures.append(f"{label}: curves.csv has no rows")
        outcome.failures += self.check(json.loads(text), self.references[index], label)
        outcome.output = text

    @staticmethod
    def check(report, reference, label):
        found = [(c["t"], c["multiplicity"]) for c in report["conjugate_times"]]
        failures = _verdict_failures(report["bounds"]["verdicts"], label)
        if reference is None:     # dancing: Sturm zeros equal the detected times
            zeros = sorted(z for line in report["bounds"]["eigenlines"] for z in line["sturm_zeros"])
            return failures + compare_times([(t, 1) for t, _ in found], [(z, 1) for z in zeros],
                                            f"{label} Sturm zeros")
        return failures + compare_times(found, reference, label)


class CrosscheckWorkload(_Workload):
    name = "crosscheck"

    def __init__(self, prepared, workdir=None):
        super().__init__(prepared["cycle"])
        self.pairs = [inputs.build_pair(op["spec"]) for op in self.cycle]

    @staticmethod
    def prepare(seed):
        return {"cycle": inputs.crosscheck_cycle(seed)}

    def setup_spec(self):
        return {"generic": [op["spec"] for op in self.cycle]}

    def _run(self, index, outcome):
        op = self.cycle[index]
        pair = self.pairs[index]
        t0 = time.perf_counter()
        result = analysis.analyze(pair, x0=op["x0"], T=op["T"])
        t1 = time.perf_counter()
        oracle = jacobi.variational_oracle(pair, op["x0"], op["T"])
        t2 = time.perf_counter()
        outcome.wall = t2 - t0
        outcome.timings.update(analyze_s=t1 - t0, oracle_s=t2 - t1)
        outcome.analyses = 1
        found = [(c.t_star, c.multiplicity) for c in result.conjugate_times]
        expected = [(c.t_star, c.multiplicity) for c in oracle]
        outcome.failures += self.check(index, result.report, found, expected)
        outcome.output = (found, expected)

    @staticmethod
    def check(index, report, found, expected):
        label = f"crosscheck[{index}]"
        failures = _verdict_failures(report["bounds"]["verdicts"], label)
        if not report["regularity"]["all_ok"]:
            failures.append(f"{label}: regularity check failed")
        return failures + compare_times(found, expected, f"{label} analysis vs oracle")


class SweepWorkload(_Workload):
    name = "sweep"
    threads = 4                   # the CLI's pool, min(4, values) with 4 values

    def __init__(self, prepared, workdir):
        super().__init__(prepared["cycle"])
        self.out = Path(workdir) / "sweep"
        self.references = prepared["references"]
        self.workers = []         # thread-pool size of each sweep (1 = serial)
        os.environ.pop("CONJSCOPE_THREADS", None)   # the CLI's default, as users run it

    @staticmethod
    def prepare(seed):
        cycle = inputs.sweep_cycle(seed)
        references = []
        for op in cycle:
            oracles = [catalog.perturbed_pair_oracle(v, op["T"]) for v in op["values"]]
            references.append([{"times": o["times"], "min_envelope": o["min_envelope"]}
                               for o in oracles])
        return {"cycle": cycle, "references": references}

    def setup_spec(self):
        return {"catalog": [[op["system"], {"eps": v}] for op in self.cycle for v in op["values"]]}

    def analyses(self, index):
        return len(self.cycle[index]["values"])

    def _run(self, index, outcome):
        op = self.cycle[index]
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["sweep", "--system", op["system"],
                "--sweep", "eps=" + ",".join(_float_arg(v) for v in op["values"]),
                "--T", _float_arg(op["T"]), "--out", str(self.out)]
        with _PoolSizes(cli) as sizes:
            t0 = time.perf_counter()
            rc = _cli(argv)
            outcome.wall = time.perf_counter() - t0
        self.workers.append(sizes[-1] if sizes else 1)
        outcome.timings["sweep_s"] = outcome.wall
        outcome.analyses = self.analyses(index)
        if rc != 0:
            outcome.failures.append(f"sweep[{index}]: exit code {rc}")
            return
        text = (self.out / "sweep.csv").read_text()
        outcome.failures += self.check(index, text, op["values"], self.references[index])
        outcome.output = text

    @staticmethod
    def check(index, text, values, references):
        """Rows against the closed form: eps = 0 gives first time pi and the
        oracle's count, eps != 0 gives NONE; the smallest dip matches the
        oracle's envelope minimum; no verdict is violated."""
        lines = text.strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(values):
            return [f"sweep[{index}]: {len(rows)} rows for {len(values)} values"]
        failures = []
        for row, value, ref in zip(rows, values, references):
            label = f"sweep[{index}] eps={value!r}"
            swept, first, count, dip = float(row[0]), row[1], int(row[2]), row[3]
            if swept != value:
                failures.append(f"{label}: row is for eps={swept!r}")
            if ref["times"]:
                if first == "NONE" or not abs(float(first) - ref["times"][0][0]) < TIME_TOL:
                    failures.append(f"{label}: first conjugate time {first}, expected pi")
            elif first != "NONE":
                failures.append(f"{label}: first conjugate time {first}, expected NONE")
            if count != len(ref["times"]):
                failures.append(f"{label}: {count} conjugate times, expected {len(ref['times'])}")
            if dip == "NONE" or not abs(float(dip) - ref["min_envelope"]) < TIME_TOL:
                failures.append(f"{label}: smallest dip {dip}, expected {ref['min_envelope']!r}")
            if "violated" in row[4:]:
                failures.append(f"{label}: a bound verdict is violated")
        return failures


class _PoolSizes:
    """Records the max_workers of every thread pool the CLI creates, by
    substituting a recording subclass for the module's ThreadPoolExecutor."""

    def __init__(self, module):
        self.module = module
        self.original = module.ThreadPoolExecutor

    def __enter__(self):
        sizes = []

        class Recording(self.original):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        self.module.ThreadPoolExecutor = Recording
        return sizes

    def __exit__(self, *exc):
        self.module.ThreadPoolExecutor = self.original


WORKLOADS = {w.name: w for w in (CatalogWorkload, CrosscheckWorkload, SweepWorkload)}
