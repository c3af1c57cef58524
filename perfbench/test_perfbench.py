"""Smoke and determinism checks for the benchmark.

Run from the repository root:  python3 -m pytest perfbench -q

Each workload runs at tiny length: a 1-second window over an input panel
of one seed.
"""

import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COMMON = ("search_invocations_per_s", "best_latency_ms", "export_s", "failed_ops_frac",
          "setup_raw_s", "search_raw_s", "export_raw_invocations_per_s")
PRINTED = {
    "c3d-search": COMMON + ("moves_per_s",),
    "multishape-ablation": COMMON + ("search_runtime_s", "search_padded_s", "moves_per_s",
                                     "padded_latency_ms"),
    "c3d-export": COMMON,
}


def tiny(workload, trace=0):
    buf = io.StringIO()
    result = run.run(workload, 0, 1.0, trace, panel_size=1, out=buf)
    return result, buf.getvalue()


@pytest.fixture(scope="module")
def twice():
    return {wl: (tiny(wl), tiny(wl)) for wl in run.WORKLOADS}


def printed(text, name):
    """(value, unit) of a metric line `  name  value unit  note`."""
    match = re.search(rf"^  {re.escape(name)}\s+(\S+) (\S+)", text, re.M)
    assert match, f"{name} not printed"
    return float(match.group(1)), match.group(2)


def fingerprints(text):
    return [line for line in text.splitlines() if line.startswith("  seed ")]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_prints_every_metric_with_unit_and_no_failure(twice, workload):
    (result, text), _ = twice[workload]
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, text
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        assert printed(text, name)[1] == unit == result["metrics"][name]["unit"]
        assert result["metrics"][name]["value"] > 0
    for name in PRINTED[workload]:
        printed(text, name)
    assert printed(text, "failed_ops_frac")[0] == 0


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_gives_identical_simulated_results(twice, workload):
    (first, text1), (second, text2) = twice[workload]
    assert fingerprints(text1) and fingerprints(text1) == fingerprints(text2), (
        "simulated results changed between two runs at the same seed:\n"
        + "\n".join(fingerprints(text1)) + "\n--- vs ---\n" + "\n".join(fingerprints(text2))
    )
    assert printed(text1, "best_latency_ms") == printed(text2, "best_latency_ms")
    if workload == "multishape-ablation":
        assert printed(text1, "padded_latency_ms") == printed(text2, "padded_latency_ms")


def test_traced_run_reports_every_per_layer_metric():
    result, text = tiny("multishape-ablation", trace=1)
    assert result["correct"] and result["failed"] == 0, text
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert "tracing overhead" in text
    spans = run.WORK / "spans-multishape-ablation-seed0.jsonl"
    assert spans.stat().st_size > 0


def test_host_speed_drops_samples_and_scales_by_the_samples_around():
    speed = hostspeed.HostSpeed()
    speed.starts = [0.0, 1.0, 1.5, 5.0]
    speed.durations = [0.001, 0.002, 0.002, 0.004]
    assert speed.raw(0.9, 2.0) == pytest.approx(1.1 - 0.004)
    # the window widens by one interval on each side: samples at 1.0 and 1.5
    assert speed.factor(0.9, 2.0) == pytest.approx(hostspeed.NOMINAL_S / 0.002)


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]] == list(table)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable] + BENCHMARK["command"][1:]
        + ["--workload", "c3d-search", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
