import csv
import json

import pytest
from click.testing import CliRunner

from harflow.cli import main
from harflow.device import load_bundled_profile
from harflow.generators import bundled_model_names, bundled_model_text
from harflow.hardware_graph import initial_mapping
from harflow.model_ir import parse_model

QUICK_PARAMS = {"tau_start": 1.0, "tau_min": 0.05, "cooling": 0.9,
                "warm_start_samples": 8}


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workdir(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(QUICK_PARAMS))
    return tmp_path


def test_parse_bundled_model(runner):
    result = runner.invoke(main, ["parse", "toy"])
    assert result.exit_code == 0, result.output
    assert "layers: 4" in result.output
    assert "Conv3D=1" in result.output


def test_parse_missing_file_fails(runner):
    result = runner.invoke(main, ["parse", "/nonexistent.json"])
    assert result.exit_code != 0
    assert "not found" in result.output


def test_bundled_models_are_the_data_files(runner):
    assert bundled_model_names() == ["c3d", "multishape", "r2plus1d", "toy"]
    for name in bundled_model_names():
        assert parse_model(bundled_model_text(name)).name == name
        assert runner.invoke(main, ["parse", name]).exit_code == 0
    result = runner.invoke(main, ["parse", "nosuch"])
    assert result.exit_code == 1
    assert result.output.startswith("Error: model file not found")


def _unschedulable_design(workdir):
    """A design whose graph leaves the toy pool layer unmapped."""
    toy = parse_model(bundled_model_text("toy"))
    graph = initial_mapping(toy).to_dict()
    del graph["mapping"]["pool_0"]
    design = workdir / "unschedulable.json"
    design.write_text(json.dumps({
        "model": json.loads(bundled_model_text("toy")),
        "device": load_bundled_profile("zcu102").to_dict(),
        "mode": "runtime_configurable",
        "graph": graph,
    }))
    return design


def _params(workdir, text):
    path = workdir / "bad_params.json"
    path.write_text(text)
    return str(path)


def _search(workdir, cmd, *extra):
    return [cmd, "--model", "toy", "--device", "zcu102", "--out", str(workdir / "out"), *extra]


@pytest.mark.parametrize("argv", [
    lambda w: _search(w, "pareto", "--budgets", "10,x"),
    lambda w: _search(w, "pareto", "--budgets", "256,64"),
    lambda w: _search(w, "optimize", "--params", _params(w, '{"nosuch": 1}')),
    lambda w: _search(w, "optimize", "--params", str(w / "missing.json")),
    lambda w: _search(w, "optimize", "--params", _params(w, '{"cooling": 1.5}')),
    lambda w: _search(w, "optimize", "--params", _params(w, "{oops")),
    lambda w: _search(w, "optimize", "--params", _params(w, "[1, 2]")),
    lambda w: ["schedule", "--design", str(_unschedulable_design(w))],
], ids=["budget-not-int", "budgets-unsorted", "params-unknown-key", "params-missing",
        "params-out-of-range", "params-bad-json", "params-not-object", "schedule-infeasible"])
def test_malformed_input_exits_with_one_error_line(runner, workdir, argv):
    result = runner.invoke(main, argv(workdir))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    assert "Traceback" not in result.output


def test_unknown_device_fails(runner, workdir):
    result = runner.invoke(main, [
        "optimize", "--model", "toy", "--device", "nosuchboard",
        "--out", str(workdir / "d.json"),
    ])
    assert result.exit_code != 0
    assert "unknown device" in result.output


def test_optimize_schedule_report_pipeline(runner, workdir):
    design = workdir / "design.json"
    trace = workdir / "trace.csv"
    result = runner.invoke(main, [
        "optimize", "--model", "toy", "--device", "zcu102", "--seed", "1",
        "--params", str(workdir / "params.json"),
        "--out", str(design), "--trace", str(trace),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(design.read_text())
    assert doc["mode"] == "runtime_configurable"
    assert doc["latency_cycles"] > 0
    assert set(doc["resources"]) == {"dsp", "bram", "lut", "ff"}

    with open(trace) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"iter", "tau", "current_cycles",
                                     "best_cycles", "feasible"}
    bests = [int(r["best_cycles"]) for r in rows]
    assert all(a >= b for a, b in zip(bests, bests[1:]))

    sched = workdir / "schedule.json"
    result = runner.invoke(main, ["schedule", "--design", str(design),
                                  "--out", str(sched)])
    assert result.exit_code == 0, result.output
    sdoc = json.loads(sched.read_text())
    assert sdoc["total_cycles"] == doc["latency_cycles"]
    assert sdoc["entries"]

    report = workdir / "report.json"
    result = runner.invoke(main, [
        "report", "--design", str(design), "--schedule", str(sched),
        "--out", str(report),
    ])
    assert result.exit_code == 0, result.output
    rdoc = json.loads(report.read_text())
    assert rdoc["gops_per_s"] > 0
    assert 0 < rdoc["utilization_percent"]["dsp"] <= 100
    assert rdoc["per_layer"]


def test_optimize_accepts_model_file_path(runner, workdir):
    from harflow.generators import bundled_model_text

    model_file = workdir / "m.json"
    model_file.write_text(bundled_model_text("toy"))
    result = runner.invoke(main, [
        "optimize", "--model", str(model_file), "--device", "zcu102",
        "--params", str(workdir / "params.json"),
        "--out", str(workdir / "d.json"),
    ])
    assert result.exit_code == 0, result.output


def test_optimize_padded_mode_flag(runner, workdir):
    design = workdir / "padded.json"
    result = runner.invoke(main, [
        "optimize", "--model", "toy", "--device", "zcu102",
        "--no-runtime-reconfig",
        "--params", str(workdir / "params.json"), "--out", str(design),
    ])
    assert result.exit_code == 0, result.output
    assert json.loads(design.read_text())["mode"] == "padded_baseline"


def test_pareto_writes_monotone_csv(runner, workdir):
    out = workdir / "pareto.csv"
    result = runner.invoke(main, [
        "pareto", "--model", "toy", "--device", "zcu102",
        "--budgets", "64,256,1024",
        "--params", str(workdir / "params.json"), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"dsp", "bram", "latency_ms"}
    dsps = [int(r["dsp"]) for r in rows]
    lats = [float(r["latency_ms"]) for r in rows]
    assert dsps == sorted(dsps)
    assert lats == sorted(lats, reverse=True)
