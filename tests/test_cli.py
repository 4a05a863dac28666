import json
import math
import warnings
from types import SimpleNamespace

import pytest

from conjscope import catalog, cli, scalar


def run_cli(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.main(argv)


def test_analyze_harmonic_report(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["analyze", "--system", "harmonic", "--param", "omega=1",
                    "--x0", "0.3,0.7", "--T", "7", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    times = [c["t"] for c in report["conjugate_times"]]
    assert len(times) == 2
    assert abs(times[0] - math.pi) < 1e-6
    assert abs(times[1] - 2 * math.pi) < 1e-6
    assert abs(report["bounds"]["safe_interval"][1] - math.pi) < 1e-9
    assert report["bounds"]["verdicts"]["max_eig_bound"] == "consistent"
    csv_text = (out / "curves.csv").read_text().splitlines()
    assert csv_text[0] == "t,sigma_min_P,k_eig_1_re,k_eig_1_im,tr_K,det_G"
    assert len(csv_text) > 100


def test_analyze_perturbed_multiplicities(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["analyze", "--system", "perturbed_pair", "--param", "eps=0",
                    "--x0", "0.2,-0.1,1.0,0.4", "--T", "7", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    got = [(round(c["t"], 6), c["multiplicity"]) for c in report["conjugate_times"]]
    assert got == [(round(math.pi, 6), 2), (round(2 * math.pi, 6), 2)]


def test_analyze_json_stdout(capsys):
    code = run_cli(["analyze", "--system", "harmonic", "--T", "4", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["system"]["name"] == "harmonic"


def test_report_deterministic(tmp_path):
    args = ["analyze", "--system", "dancing", "--T", "5", "--out"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + [str(out1)]) == 0
    assert run_cli(args + [str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()


def test_repeated_analysis_writes_identical_reports(tmp_path):
    # kernel vectors carry a fixed sign, so equal runs write equal bytes
    args = ["analyze", "--system", "mechanical", "--out"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + [str(out1)]) == 0
    assert run_cli(args + [str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    vectors = [k for c in report["conjugate_times"] for k in c["kernel_basis"]]
    assert vectors and all(max(k, key=abs) > 0.0 for k in vectors)


def test_report_roundtrip(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["analyze", "--system", "harmonic", "--T", "4",
                    "--out", str(out)]) == 0
    text = (out / "report.json").read_text()
    parsed = json.loads(text)
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text


def test_csv_stdout(capsys):
    code = run_cli(["analyze", "--system", "harmonic", "--T", "4", "--json", "--csv"])
    assert code == 0
    out = capsys.readouterr().out
    csv_start = out.index("t,sigma_min_P")
    json.loads(out[:csv_start])
    lines = out[csv_start:].strip().splitlines()
    assert len(lines) > 50
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_missing_system_is_usage_error(capsys):
    assert run_cli(["analyze", "--T", "4"]) == 1
    assert run_cli(["analyze", "--system", "not-a-system", "--T", "4"]) == 1


def test_regularity_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(
        "[system]\n"
        "type = generic\n"
        "coords = a, b\n"
        "X1 = 0\n"
        "X2 = 0\n"
        "V1 = 0, 1\n"
        "\n"
        "[analysis]\n"
        "x0 = 0.5, 0.5\n"
        "T = 1.0\n")
    code = run_cli(["analyze", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "condition R2" in err
    assert "point (0.5, 0.5)" in err


def test_a_stalled_solve_exits_1_and_names_its_point(tmp_path, capsys):
    # the force blows up near t = 1.50101: the step floor ends the solve, and
    # the message names the pair's point there, its t slot first
    cfg = tmp_path / "stall.cfg"
    cfg.write_text(
        "[system]\n"
        "type = sode\n"
        "m = 1\n"
        "F1 = x1^3 + 0.1*sin(t)\n"
        "\n"
        "[analysis]\n"
        "x0 = 1.0, 0.5\n"
        "T = 3\n")
    code = run_cli(["analyze", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "solve stalled" in err and "point (1.50101, " in err
    point = err[err.index("point (") + 7:err.index(")]")].split(", ")
    assert len(point) == 3


def test_a_second_order_system_past_the_cond_limit_exits_2(tmp_path, capsys):
    # the dancing force 0.3 sin(t) - x1 from this state takes cond[V | XV]
    # of the lift past COND_LIMIT at t = 1.20161: R2, as for a generic pair
    code = run_cli(["analyze", "--system", "dancing", "--param", "F=0.3*sin(t) - x1",
                    "--x0=2.5,-2.0,0.6,0.1", "--T", "3", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "condition R2" in err and "point (1.20161, " in err


def test_config_file_sode(tmp_path):
    cfg = tmp_path / "osc.cfg"
    cfg.write_text(
        "[system]\n"
        "type = sode\n"
        "name = my-oscillator\n"
        "m = 1\n"
        "autonomous = true\n"
        "F1 = -omega^2*x1\n"
        "\n"
        "[params]\n"
        "omega = 2.0\n"
        "\n"
        "[analysis]\n"
        "x0 = 0.3, 0.7\n"
        "T = 4.0\n")
    out = tmp_path / "run"
    assert run_cli(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["system"]["name"] == "my-oscillator"
    times = [c["t"] for c in report["conjugate_times"]]
    assert abs(times[0] - math.pi / 2) < 1e-6


def test_config_with_sigma(tmp_path):
    cfg = tmp_path / "ham.cfg"
    cfg.write_text(
        "[system]\n"
        "type = sode\n"
        "m = 1\n"
        "autonomous = true\n"
        "F1 = -x1\n"
        "\n"
        "[sigma]\n"
        "row1 = 0, 1\n"
        "row2 = -1, 0\n"
        "\n"
        "[analysis]\n"
        "x0 = 0.3, 0.7\n"
        "T = 4.0\n")
    out = tmp_path / "run"
    assert run_cli(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    ham = report["hamiltonian"]
    assert ham is not None
    assert ham["selfadjoint_residual"] <= 1e-10


def test_config_catalog_entry_with_expression_param(tmp_path):
    cfg = tmp_path / "dance.cfg"
    cfg.write_text(
        "[system]\n"
        "type = catalog\n"
        "name = dancing\n"
        "\n"
        "[params]\n"
        "F = sin(x1)\n"
        "\n"
        "[analysis]\n"
        "x0 = 2.5, -2.0, 0.6, 0.1\n"
        "T = 6.0\n")
    out = tmp_path / "run"
    assert run_cli(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["system"]["params"]["F"] == "sin(x1)"
    assert len(report["conjugate_times"]) == 1

    # CLI --param overrides the config value; F = 0 has no conjugate times
    out2 = tmp_path / "run2"
    assert run_cli(["analyze", "--config", str(cfg), "--param", "F=0",
                    "--x0", "0,-2.0,0.5,0.1", "--out", str(out2)]) == 0
    report2 = json.loads((out2 / "report.json").read_text())
    assert report2["conjugate_times"] == []


def test_sweep_perturbed(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--system", "perturbed_pair", "--sweep", "eps=0,0.05",
                    "--x0", "0.2,-0.1,1.0,0.4", "--T", str(3 * math.pi),
                    "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("eps,first_conjugate_time,n_conjugate_times")
    row0 = lines[1].split(",")
    row1 = lines[2].split(",")
    assert abs(float(row0[1]) - math.pi) < 1e-6
    assert row0[2] == "3"
    assert row1[1] == "NONE"


def _count_kernels(monkeypatch):
    """The exact keys that scalar._compile generates kernels for, and the
    sources that scalar._build compiles, in call order."""
    keys, sources = [], []
    compile_kernel, build = scalar._compile, scalar._build

    def counting_compile(progs, key):
        keys.append((tuple(map(scalar._text, progs)), scalar._exact(key)))
        return compile_kernel(progs, key)

    def counting_build(source, namespace_globals):
        sources.append(source)
        return build(source, namespace_globals)

    monkeypatch.setattr(scalar, "_compile", counting_compile)
    monkeypatch.setattr(scalar, "_build", counting_build)
    return keys, sources


def test_rebuilt_catalog_entries_compile_nothing(monkeypatch, tmp_path):
    # each analyze builds its model and 2-form again from the same
    # expressions; the second round finds every kernel in the table
    keys, sources = _count_kernels(monkeypatch)
    codes = [run_cli(["analyze", "--system", name, "--out", str(tmp_path / f"{name}-1")])
             for name in catalog.ENTRIES]
    assert keys and sources
    keys.clear()
    sources.clear()
    assert [run_cli(["analyze", "--system", name, "--out", str(tmp_path / f"{name}-2")])
            for name in catalog.ENTRIES] == codes
    assert keys == [] and sources == []
    for name in catalog.ENTRIES:
        for out in ("report.json", "curves.csv"):
            assert ((tmp_path / f"{name}-1" / out).read_bytes()
                    == (tmp_path / f"{name}-2" / out).read_bytes())


def test_a_sweep_compiles_each_kernel_once(monkeypatch, tmp_path):
    # every value rebuilds perturbed_pair, whose force reads eps by name, so
    # a 4-value sweep compiles what one analysis compiles, on the pool (whose
    # threads share the table) and serially, and writes the same rows
    keys, sources = _count_kernels(monkeypatch)
    args = ["--system", "perturbed_pair", "--T", "3.93"]
    assert run_cli(["analyze", *args, "--param", "eps=0.05", "--out", str(tmp_path / "one")]) == 0
    one_keys, one_builds = set(keys), len(sources)
    assert len(one_keys) == len(keys)
    for threads in (None, "1"):
        if threads is None:
            monkeypatch.delenv("CONJSCOPE_THREADS", raising=False)
        else:
            monkeypatch.setenv("CONJSCOPE_THREADS", threads)
        scalar._TABLE.clear()
        keys.clear()
        sources.clear()
        out = tmp_path / f"sweep-{threads}"
        assert run_cli(["sweep", *args, "--sweep", "eps=0,0.02,0.05,0.08", "--out", str(out)]) == 0
        assert len(keys) == len(set(keys)) and set(keys) == one_keys
        assert len(sources) == one_builds
    assert ((tmp_path / "sweep-None" / "sweep.csv").read_bytes()
            == (tmp_path / "sweep-1" / "sweep.csv").read_bytes())


def test_sweep_harmonic_first_times(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--system", "harmonic", "--sweep", "omega=1,2,4",
                    "--x0", "0.3,0.7", "--T", "4", "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    for line, omega in zip(lines, (1.0, 2.0, 4.0)):
        first = float(line.split(",")[1])
        assert abs(first - math.pi / omega) < 1e-6


def _stub_report(all_ok, verdict):
    verdicts = {"max_eig_bound": verdict, "trace_bound": "consistent",
                "sturm_bound": "consistent"}
    return {"regularity": {"all_ok": all_ok}, "bounds": {"verdicts": verdicts},
            "conjugate_times": [], "sigma_min_dips": []}


@pytest.mark.parametrize("all_ok, verdict, code", [
    (True, "consistent", 0), (False, "consistent", 2), (True, "violated", 3),
    (False, "violated", 3)])
def test_analyze_and_sweep_share_one_exit_code_rule(monkeypatch, tmp_path, capsys,
                                                    all_ok, verdict, code):
    # a violated verdict (a bug) outranks a regularity failure, in analyze as
    # in sweep, which exits with the largest code of its values
    reports = iter([_stub_report(True, "consistent"), _stub_report(all_ok, verdict),
                    _stub_report(all_ok, verdict)])
    monkeypatch.setattr(cli, "_run_analysis",
                        lambda args, overrides=None: SimpleNamespace(report=next(reports)))
    monkeypatch.setattr(cli.analysis, "curve_rows", lambda result: (["t"], []))
    monkeypatch.setenv("CONJSCOPE_THREADS", "1")
    assert run_cli(["sweep", "--system", "harmonic", "--sweep", "omega=1,2",
                    "--out", str(tmp_path / "sweep")]) == code
    assert run_cli(["analyze", "--system", "harmonic", "--out", str(tmp_path / "run")]) == code


def test_catalog_listing(capsys):
    assert run_cli(["catalog"]) == 0
    text = capsys.readouterr().out
    for name in ("harmonic", "perturbed_pair", "dancing", "mechanical", "sphere_spray"):
        assert name in text
    assert "[paper]" in text


def test_catalog_json(capsys):
    assert run_cli(["catalog", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"dancing", "harmonic", "mechanical", "perturbed_pair",
                            "sphere_spray"}
    assert all("known_facts" in v for v in payload.values())


def test_x0_guard_enforced():
    assert run_cli(["analyze", "--system", "dancing",
                    "--x0", "0,0.5,0.52,0.1", "--T", "4"]) == 1
