"""conjscope benchmark: one workload per run, from the root of a checkout.

    python3 bench/run.py --workload catalog --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --baseline

The harness imports conjscope from ``src/`` of the current directory and
drives it in one process: a closed loop, one operation in flight, the
operations of a seeded cycle repeated in order while the next one is
predicted to end within ``--seconds`` (at least MIN_CYCLES whole cycles).  Each
output is checked (see workloads.py); an operation fails when it raises,
exits nonzero or fails its check.

BENCHMARK.json lists catalog and crosscheck.  The sweep workload runs by
hand only (``--workload sweep``, with ``--trace 1`` for ``cli.sweep.overlap``):
its four pool threads share two vCPUs, and how long they wait to hand the
interpreter lock across CPUs rose and fell with the load of other tenants,
which no single-CPU measure of host speed follows, so ten runs spread by
up to a third of their median however they were calibrated.

Untraced runs (``--trace 0``) report the end-to-end metrics.  Every workload
reports the same three, and none of them can read 0:

* ``setup_s``: median of five fresh-process ``import conjscope`` plus
  building every model of the workload.
* ``analysis_cost``: wall time per analysis (per swept value on sweep) as
  a multiple of the time of the host-speed piece of probe.py, which a
  sampler thread runs every 20 ms during the operations.  Each operation's
  time is divided by the mean time of the pieces run during it; each input
  of the cycle takes the median of its repeats, and the cycle's sum is
  divided by its analyses.  The operation is the whole ``conjscope analyze
  --out`` command on catalog, ``analysis.analyze`` plus
  ``jacobi.variational_oracle`` on crosscheck and the whole ``conjscope
  sweep`` command on sweep.  On a shared 2-vCPU host the speed of a core
  drifted by up to 1.6 times over minutes, and 20-second windows of raw
  seconds spread by a third; the sampler divides that drift out.
* ``peak_rss_mb``: peak resident memory of the harness process, which
  imports conjscope, builds the workload's models and runs the timed
  operations; inputs and references are made in a child (prepare.py).

The table above the result also gives the raw timings: each named timing
(``analyze_s``, ``oracle_s``, ``sweep_s``) as median and tail, the tail
being the highest percentile with at least ten samples beyond it,
``analyses_per_s`` (completed analyses per second of operation wall time),
the median piece time, and ``failed_frac``; the JSON result carries the latter
as ``attempted`` and ``failed``.

Traced runs (``--trace 1``) run each operation untraced and then traced,
check that both give the same outputs, and report the per-layer metrics of
tracer.py per operation.  ``--baseline`` prints the traced stage split of
perturbed_pair at eps = 0.05 next to the figures recorded in ROADMAP.md.

The last line of standard output is the JSON result.  Without
``src/conjscope`` the harness exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from probe import Sampler

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
PREPARE_TIMEOUT = 150
MIN_CYCLES = 1
TAIL_BEYOND = 10

# spans every traced operation of a workload must reach; zero calls means a
# rename or a lost path, not a saving
COMMON_SPANS = ("ode.integrate", "ode.at", "ode.locate_events", "ode.refine_minimum",
                "scalar.evaluate", "pair.brackets_at", "pair.extract_H",
                "pair.check_regularity", "frames.transport_normal_frame", "frames.K_normal",
                "jacobi.integrate_jacobi", "jacobi.find_conjugate_times", "jacobi.sigma_min",
                "bounds.bounds_report", "analysis.analyze")
CLI_SPANS = ("scalar.second_partials", "pair.sode_curvature", "bounds.sturm_zeros",
             "hamiltonian.check_lagrangian", "cli", "catalog.build")
REQUIRED_SPANS = {
    "catalog": COMMON_SPANS + CLI_SPANS + ("analysis.curve_rows",),
    "crosscheck": COMMON_SPANS + ("pair.flow_derivative_H1", "jacobi.variational_oracle"),
    "sweep": COMMON_SPANS + CLI_SPANS,
}

# ROADMAP re-anchor figures, perturbed_pair eps = 0.05 (single runs, +-10%)
ROADMAP_TOTAL_S = 2.15
ROADMAP_STAGES_S = (("jacobi.integrate_jacobi", 0.87), ("jacobi.find_conjugate_times", 0.28),
                    ("frames.transport_normal_frame", 0.17), ("bounds.bounds_report", 0.09),
                    ("pair.check_regularity", 0.05))
ROADMAP_CALLS = (("ode.at", 23.7e3), ("scalar.second_partials", 48e3))


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or (None, None) with ten samples or fewer."""
    ordered = sorted(samples)
    idx = len(ordered) - TAIL_BEYOND - 1
    if idx < 0:
        return None, None
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def measure(workload, seconds, tracer=None):
    """Run the cycle's operations in order while the next one is predicted
    to end within ``seconds`` (at least MIN_CYCLES whole cycles); return the
    untraced and the traced outcomes.  Without a tracer the host-speed
    sampler runs throughout.  With a tracer every operation runs untraced
    and then, right after it, traced, so both see the machine in the same
    state."""
    untraced, traced = [], []
    size = len(workload.cycle)
    sampler = Sampler(pin=workload.threads == 1) if tracer is None else nullcontext()
    with sampler:
        start = time.perf_counter()
        while True:
            i = len(untraced) % size
            t0 = time.perf_counter()
            outcome = workload.run(i)
            untraced.append(outcome)
            if tracer is None:
                outcome.probe_s = sampler.mean(t0, time.perf_counter())
            else:
                with tracer:
                    traced.append(workload.run(i))
            done = len(untraced)
            elapsed = time.perf_counter() - start
            if done >= MIN_CYCLES * size and elapsed * (done + 1) / done > seconds:
                return untraced, traced


def prepare(name, seed, root):
    """The workload's inputs and references, made in a child process."""
    proc = subprocess.run([sys.executable, str(HERE / "prepare.py"), name, str(seed),
                           str(root / "src")], stdout=subprocess.PIPE, text=True,
                          timeout=PREPARE_TIMEOUT, check=True, cwd=root)
    return json.loads(proc.stdout)


def setup_seconds(spec, root):
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(root / "src")],
                              input=json.dumps(spec), capture_output=True, text=True,
                              timeout=120, check=True, cwd=root)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_digest(root):
    """Stands in for the commit in a checkout without .git: a digest of the
    package sources."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "conjscope").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def metadata(args, root, workload):
    import numpy
    import scipy
    commit = _git_commit(root)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": _blas_threads(),
        "git_commit": commit or _source_digest(root),
        "sweep_workers": getattr(workload, "workers", None),
    }


def _fmt(value):
    return f"{value:.6g}"


def end_to_end(workload, outcomes, setup_s):
    """The JSON metrics and the table rows of an untraced run."""
    by_input = {}
    for o in outcomes:
        by_input.setdefault(o.index, []).append(o)
    cycle_cost = sum(statistics.median(o.wall / o.probe_s for o in outs)
                     for outs in by_input.values())
    cycle_analyses = sum(workload.analyses(i) for i in by_input)
    repeats = "/".join(map(str, sorted({len(outs) for outs in by_input.values()})))
    metrics = {
        "setup_s": (setup_s, "s"),
        "analysis_cost": (cycle_cost / cycle_analyses, "pieces"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"setup_s": f"median of {SETUP_REPEATS} fresh-process set-ups",
             "analysis_cost": f"{len(by_input)} inputs, median of {repeats} repeats each"}
    rows = [(name, _fmt(v), unit, notes.get(name, "")) for name, (v, unit) in metrics.items()]
    completed = sum(o.analyses for o in outcomes if not o.failures)
    wall = sum(o.wall for o in outcomes)
    rows += [("analyses_per_s", _fmt(completed / wall), "1/s",
              f"{completed} completed in {_fmt(wall)} s of operations"),
             ("probe_s_p50", _fmt(statistics.median(o.probe_s for o in outcomes)), "s",
              "host-speed piece during the operations")]
    names = sorted({key for o in outcomes for key in o.timings})
    for name in names:
        samples = [o.timings[name] for o in outcomes if name in o.timings]
        rows.append((f"{name}_p50", _fmt(statistics.median(samples)), "s",
                     f"{len(samples)} samples"))
        value, pct = tail(samples)
        rows.append((f"{name}_tail", "n/a" if value is None else _fmt(value), "s",
                     f"p{pct:.0f} of {len(samples)} samples" if value is not None
                     else f"{len(samples)} samples: none with {TAIL_BEYOND} beyond"))
    failed = sum(1 for o in outcomes if o.failures)
    rows.append(("failed_frac", _fmt(failed / len(outcomes)), "ratio",
                 f"{failed} of {len(outcomes)}"))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, rows


def per_layer(workload, untraced, traced, tracer):
    """The JSON metrics and table rows of a traced run; raises when a span
    the workload must reach reads zero calls."""
    from tracer import layer_metrics
    totals, rhs, steps = tracer.totals()
    missing = [name for name in REQUIRED_SPANS[workload.name] if totals[name][0] == 0]
    if missing:
        raise RuntimeError(f"traced run of {workload.name} reached no call of {', '.join(missing)}")
    layers = layer_metrics(totals, rhs, steps, len(traced))
    overlap = 0.0
    if workload.name == "sweep":
        overlap = totals["analysis.analyze"][1] / totals["cli"][1]
    layers["cli.sweep.overlap"] = overlap
    layers["trace.overhead_frac"] = (sum(o.wall for o in traced) / sum(o.wall for o in untraced)
                                     - 1.0)
    units = {"calls": "count", "self_s": "s", "total_s": "s", "rhs_evals": "count",
             "steps": "count", "rhs_per_step": "evals/step", "overlap": "ratio",
             "overhead_frac": "ratio"}
    metrics = {name: {"value": value, "unit": units[name.rsplit(".", 1)[1]]}
               for name, value in layers.items()}
    rows = [(name, _fmt(m["value"]), m["unit"], "per operation") for name, m in metrics.items()]
    edges = tracer.edges()
    for leaf in ("scalar.evaluate", "ode.at"):
        for (parent, name), (calls, total_s, _) in sorted(edges.items(), key=lambda kv: -kv[1][1]):
            if name == leaf:
                rows.append((f"  {leaf} under {parent}", _fmt(calls / len(traced)), "count",
                             f"{_fmt(total_s / len(traced))} s per operation"))
    return metrics, rows


def print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>12} {unit:<10} {note}")


def baseline(root):
    """Traced stage split of perturbed_pair eps = 0.05 against ROADMAP."""
    import warnings
    from conjscope import analysis, catalog
    from conjscope.errors import ClosedOrbitWarning
    from tracer import Tracer
    model, sigma = catalog.build("perturbed_pair", {"eps": 0.05})
    entry = catalog.ENTRIES["perturbed_pair"]
    warnings.simplefilter("ignore", ClosedOrbitWarning)

    def once():
        t0 = time.perf_counter()
        analysis.analyze(model, x0=entry.default_x0, T=entry.default_T, sigma=sigma)
        return time.perf_counter() - t0

    walls = [once() for _ in range(3)]
    stages = [name for name, _ in ROADMAP_STAGES_S]
    with Tracer(spans=stages) as light:
        once()
    with Tracer() as full:
        once()
    stage_totals, counts = light.totals()[0], full.totals()[0]
    rows = [("analyze total", statistics.median(walls), ROADMAP_TOTAL_S, "s")]
    rows += [(name, stage_totals[name][1], ref, "s") for name, ref in ROADMAP_STAGES_S]
    rows += [(f"{name} calls", counts[name][0], ref, "count") for name, ref in ROADMAP_CALLS]
    print("perturbed_pair eps=0.05, T=3*pi: total is the untraced median of 3, stage times"
          " come from a trace of those stages alone, calls from a full trace")
    print(f"  {'stage':<32} {'measured':>10} {'ROADMAP':>10} {'ratio':>7}")
    for name, value, ref, unit in rows:
        flag = "" if abs(value / ref - 1.0) <= 0.10 else "  outside +-10%"
        print(f"  {name:<32} {_fmt(value):>10} {_fmt(ref):>10} {value / ref:>7.2f} {unit}{flag}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("catalog", "crosscheck", "sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="print the traced stage split against ROADMAP.md and exit")
    args = parser.parse_args(argv)
    if not args.baseline and args.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    if not (root / "src" / "conjscope" / "__init__.py").is_file():
        print(f"no conjscope sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.baseline:
        return baseline(root)

    from tracer import Tracer
    from workloads import WORKLOADS

    workdir = root / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](prepare(args.workload, args.seed, root), workdir)
        setup_s = None if args.trace else setup_seconds(workload.setup_spec(), root)
        tracer = Tracer() if args.trace else None
        untraced, traced = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    outcomes = untraced + traced
    for outcome in outcomes:
        for failure in outcome.failures:
            print(f"FAILED {failure}", file=sys.stderr)
    failed = sum(1 for o in outcomes if o.failures)

    header = (f"workload {args.workload}, seed {args.seed}: {len(untraced)} operations on a "
              f"cycle of {len(workload.cycle)} inputs")
    if args.trace:
        metrics, rows = per_layer(workload, untraced, traced, tracer)
        print_table(header + ", each untraced then traced; per-layer metrics", rows)
    else:
        metrics, rows = end_to_end(workload, untraced, setup_s)
        print_table(header + "; end-to-end metrics", rows)
    print("meta " + json.dumps(metadata(args, root, workload), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
