"""Command-line interface: analyze, sweep, catalog.

Exit codes: 0 success, 1 usage/config error, 2 regularity failure along the
trajectory, 3 a bound verdict came back ``violated`` (which points at an
implementation bug, not at the mathematics).  Report JSON is deterministic:
same arguments, byte-identical output.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import analysis, catalog, pair as pair_mod
from .errors import ConjscopeError, RegularityViolation

__all__ = ["main", "build_system", "load_config"]


def _fmt(x):
    return f"{x:.17g}"


def _parse_value(text):
    try:
        return float(text)
    except ValueError:
        return text


def _parse_params(items):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--param expects name=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = _parse_value(value.strip())
    return params


def _parse_vector(text):
    return [float(v) for v in str(text).replace(";", ",").split(",") if v.strip()]


def load_config(path):
    """Read a key = value config file describing a system and an analysis.

    Parameter names keep their case; everything else is case-insensitive."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(path)
    sections = {name.lower(): name for name in cp.sections()}
    if "system" not in sections:
        raise ValueError("config needs a [system] section")
    sys_sec = {k.lower(): v for k, v in cp[sections["system"]].items()}
    params = {}
    if "params" in sections:
        params = {k: _parse_value(v) for k, v in cp[sections["params"]].items()}
    sigma = None
    if "sigma" in sections:
        def row_key(item):
            digits = "".join(c for c in item[0] if c.isdigit())
            return int(digits) if digits else 0
        rows = sorted(cp[sections["sigma"]].items(), key=row_key)
        sigma = tuple(tuple(str(v) for v in _split_exprs(r[1])) for r in rows)
    run = {}
    if "analysis" in sections:
        run = {k.lower(): v for k, v in cp[sections["analysis"]].items()}
    return {"system": sys_sec, "params": params, "sigma": sigma, "analysis": run}


def _split_exprs(text):
    # expressions contain no commas (single-argument functions only)
    return [part.strip() for part in text.split(",") if part.strip()]


def build_system(sys_sec, params):
    """Instantiate (model, sigma, name, entry) from a [system] description."""
    kind = sys_sec.get("type", "catalog").strip().lower()
    if kind == "catalog":
        name = sys_sec["name"].strip()
        model, sigma = catalog.build(name, params)
        return model, sigma, name, catalog.ENTRIES[name]
    if kind == "sode":
        m = int(sys_sec["m"])
        autonomous = sys_sec.get("autonomous", "false").strip().lower() in ("1", "true", "yes")
        F = [sys_sec[f"f{i+1}"] for i in range(m)]
        numeric = {k: float(v) for k, v in params.items() if isinstance(v, float)}
        model = pair_mod.SODEModel(m=m, F=tuple(F), autonomous=autonomous, params=numeric)
        return model, None, sys_sec.get("name", "sode"), None
    if kind == "generic":
        coords = [c.strip() for c in sys_sec["coords"].split(",")]
        n = len(coords)
        X = [sys_sec[f"x{i+1}"] for i in range(n)]
        vcols = []
        j = 1
        while f"v{j}" in sys_sec:
            col = _split_exprs(sys_sec[f"v{j}"])
            if len(col) != n:
                raise ValueError(f"frame column v{j} must have {n} components")
            vcols.append(tuple(col))
            j += 1
        if not vcols:
            raise ValueError("generic system needs frame columns v1, v2, ...")
        numeric = {k: float(v) for k, v in params.items() if isinstance(v, float)}
        model = pair_mod.GenericPair(coords=tuple(coords), X=tuple(X),
                                     vframe=tuple(vcols), params=numeric)
        return model, None, sys_sec.get("name", "generic"), None
    raise ValueError(f"unknown system type {kind!r}")


def _report_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _write_curves(fh, columns, rows):
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


def _run_analysis(args, overrides=None):
    params = _parse_params(args.param)
    if overrides:
        params.update(overrides)
    run_cfg = {}
    if args.config:
        cfg = load_config(args.config)
        merged = dict(cfg["params"])
        merged.update(params)
        params = merged
        model, sigma, name, entry = build_system(cfg["system"], params)
        run_cfg = cfg["analysis"]
        if cfg["sigma"] is not None:
            sigma = cfg["sigma"]
    elif args.system:
        model, sigma, name, entry = build_system({"type": "catalog", "name": args.system}, params)
    else:
        raise ValueError("either --system or --config is required")

    x0 = args.x0 if args.x0 is not None else run_cfg.get("x0")
    T = args.T if args.T is not None else run_cfg.get("t", run_cfg.get("T"))
    if x0 is None and entry is not None:
        x0 = list(entry.default_x0)
    if T is None and entry is not None:
        T = entry.default_T
    if x0 is None or T is None:
        raise ValueError("x0 and T must be given (flags or config)")
    x0 = _parse_vector(x0) if not isinstance(x0, (list, tuple)) else list(x0)
    T = float(T)
    if entry is not None:
        entry.check_x0(x0)

    rel_tol = args.rel_tol if args.rel_tol is not None else float(run_cfg.get("rel_tol", analysis.ode.DEFAULT_REL_TOL))
    abs_tol = args.abs_tol if args.abs_tol is not None else float(run_cfg.get("abs_tol", analysis.ode.DEFAULT_ABS_TOL))
    rank_tol = args.rank_tol if args.rank_tol is not None else float(run_cfg.get("rank_tol", analysis.jacobi.RANK_TOL))

    result = analysis.analyze(model, x0=x0, T=T, sigma=sigma, rel_tol=rel_tol,
                              abs_tol=abs_tol, rank_tol=rank_tol,
                              system_name=name, params_used=params)
    return result


def cmd_analyze(args):
    result = _run_analysis(args)
    report = result.report
    text = _report_json(report)
    columns, rows = analysis.curve_rows(result)

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(text)
        with open(out / "curves.csv", "w") as fh:
            _write_curves(fh, columns, rows)
    if args.json or not args.out:
        sys.stdout.write(text)
    if args.csv:
        _write_curves(sys.stdout, columns, rows)

    if not report["regularity"]["all_ok"]:
        print("regularity check failed along the trajectory", file=sys.stderr)
        return 2
    if any(v == "violated" for v in report["bounds"]["verdicts"].values()):
        print("a bound verdict is 'violated'; this indicates a bug", file=sys.stderr)
        return 3
    return 0


def _sweep_values(spec):
    if "=" not in spec:
        raise ValueError("--sweep expects name=lo:hi:count or name=v1,v2,...")
    name, rhs = spec.split("=", 1)
    name = name.strip()
    rhs = rhs.strip()
    if ":" in rhs:
        lo, hi, count = rhs.split(":")
        values = np.linspace(float(lo), float(hi), int(count))
    else:
        values = np.array([float(v) for v in rhs.split(",")])
    return name, [float(v) for v in values]


def cmd_sweep(args):
    name, values = _sweep_values(args.sweep)
    workers = int(os.environ.get("CONJSCOPE_THREADS", "0")) or min(4, len(values))

    def one(value):
        return _run_analysis(args, overrides={name: value})

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, values))
    else:
        results = [one(v) for v in values]

    header = [name, "first_conjugate_time", "n_conjugate_times", "min_sigma_min_dip",
              "verdict_max_eig_bound", "verdict_trace_bound", "verdict_sturm_bound"]
    lines = [",".join(header)]
    worst = 0
    for value, result in zip(values, results):
        rep = result.report
        cts = rep["conjugate_times"]
        dips = rep["sigma_min_dips"]
        verdicts = rep["bounds"]["verdicts"]
        lines.append(",".join([
            _fmt(value),
            _fmt(cts[0]["t"]) if cts else "NONE",
            str(len(cts)),
            _fmt(min(d["value"] for d in dips)) if dips else "NONE",
            verdicts["max_eig_bound"],
            verdicts["trace_bound"],
            verdicts["sturm_bound"],
        ]))
        if not rep["regularity"]["all_ok"]:
            worst = max(worst, 2)
        if any(v == "violated" for v in verdicts.values()):
            worst = max(worst, 3)
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep.csv").write_text(text)
    else:
        sys.stdout.write(text)
    return worst


def cmd_catalog(args):
    if args.json:
        payload = {}
        for name in catalog.entry_names():
            entry = catalog.ENTRIES[name]
            payload[name] = {
                "description": entry.description,
                "parameters": {k: v for k, v in sorted(entry.defaults.items())},
                "default_x0": list(entry.default_x0),
                "default_T": entry.default_T,
                "known_facts": list(entry.known_facts),
            }
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    for name in catalog.entry_names():
        entry = catalog.ENTRIES[name]
        print(f"{name}: {entry.description}")
        if entry.defaults:
            defaults = ", ".join(f"{k}={v}" for k, v in sorted(entry.defaults.items()))
            print(f"  parameters: {defaults}")
        print(f"  defaults: x0={list(entry.default_x0)}, T={entry.default_T}")
        for fact in entry.known_facts:
            print(f"  - [{fact['provenance']}] {fact['fact']} (tol {fact['tol']:g})")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="conjscope",
        description="curvature and conjugate-point analysis for dynamic pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--system", help="catalog entry name")
        p.add_argument("--config", help="config file (key = value sections)")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="parameter override (repeatable)")
        p.add_argument("--x0", help="initial state, comma separated")
        p.add_argument("--T", type=float, default=None, help="trajectory length")
        p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
        p.add_argument("--abs-tol", dest="abs_tol", type=float, default=None)
        p.add_argument("--rank-tol", dest="rank_tol", type=float, default=None)
        p.add_argument("--out", help="output directory for report.json / curves.csv")
        p.add_argument("--json", action="store_true", help="print report JSON to stdout")
        p.add_argument("--csv", action="store_true", help="print curves CSV to stdout")

    p_an = sub.add_parser("analyze", help="analyse one system")
    common(p_an)
    p_an.set_defaults(fn=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="analyse across one swept parameter")
    common(p_sw)
    p_sw.add_argument("--sweep", required=True, metavar="NAME=LO:HI:COUNT",
                      help="swept parameter (or NAME=v1,v2,...)")
    p_sw.set_defaults(fn=cmd_sweep)

    p_cat = sub.add_parser("catalog", help="list built-in systems")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(fn=cmd_catalog)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RegularityViolation as err:
        point = ", ".join(f"{v:.6g}" for v in err.point)
        print(f"regularity failure: {err} [condition {err.cond}, residual {err.residual:.3e},"
              f" point ({point})]", file=sys.stderr)
        return 2
    except (ConjscopeError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
