import ast
import hashlib
import json
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from harflow.device import load_bundled_profile
from harflow.generators import bundled_model_text
from harflow.hardware_graph import HardwareGraph
from harflow.model_ir import parse_model
from harflow.optimizer import AnnealingParams, OptimizerError, anneal, evaluate, warm_start
from harflow.perf_model import schedule_latency
from harflow.reporting import build_report
from harflow.scheduler import MODE_RUNTIME, build_schedule

TOOLS = Path(__file__).resolve().parents[1] / "tools"
PROBE = TOOLS / "design_probe.py"


def _probe(out_dir, *runs):
    args = [arg for run in runs for arg in ("--run", run)]
    done = subprocess.run([sys.executable, str(PROBE), str(out_dir), *args],
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_design_probe_digest_of_toy_seed_0(tmp_path):
    assert "toy-runtime-0" in _probe(tmp_path / "a", "toy-runtime-0")
    _probe(tmp_path / "b", "toy-runtime-0")
    digest_file = tmp_path / "a" / "toy-runtime-0.json"
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["toy-runtime-0.json"]
    # two runs of the same tree give the same bytes
    assert digest_file.read_bytes() == (tmp_path / "b" / "toy-runtime-0.json").read_bytes()

    digest = json.loads(digest_file.read_text())
    assert digest["optimize_exit"] == 0 and digest["schedule_exit"] == 0
    assert digest["trace"][0] == "iter,tau,current_cycles,best_cycles,feasible"
    assert int(digest["trace"][-1].split(",")[3]) == digest["latency_cycles"]
    model = parse_model(bundled_model_text("toy"))
    dev = load_bundled_profile("zcu102")
    graph = HardwareGraph.from_dict(digest["graph"])
    state = evaluate(model, graph, dev, MODE_RUNTIME)
    assert state.feasible and state.latency_cycles == digest["latency_cycles"]
    assert state.resources.to_dict() == digest["resources"]
    schedule = build_schedule(model, graph, MODE_RUNTIME)
    assert digest["schedule_stdout"].startswith(f"schedule: {len(schedule)} invocations")
    assert digest["schedule_bytes"] > 0 and len(digest["schedule_sha256"]) == 64
    # the report of the design's own schedule
    report = build_report(model, dev, schedule, state.resources, state.latency_cycles)
    text = json.dumps(report, indent=2) + "\n"
    assert digest["report_exit"] == 0
    assert digest["report_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert digest["report_stdout"] == _report_line(report)
    # the report at a copy of the device with slower, rational DMA bandwidths
    slow = replace(dev, name="zcu102-slow-dma", bw_in_words_per_cycle=Fraction(1, 2),
                   bw_out_words_per_cycle=Fraction(1, 3))
    report = build_report(model, slow, schedule, state.resources,
                          schedule_latency(schedule, slow))
    assert any(row["bounds"] != ["compute"] for row in report["per_layer"])
    text = json.dumps(report, indent=2) + "\n"
    assert digest["slow_dma_report_exit"] == 0
    assert digest["slow_dma_report_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert digest["slow_dma_report_stdout"] == _report_line(report)


def _report_line(report):
    return (f"{report['gops_per_s']:.2f} GOps/s, {report['gops_per_s_per_dsp']:.3f} GOps/s/DSP, "
            f"{report['op_per_dsp_per_cycle']:.3f} Op/DSP/cycle\n")


def test_design_probe_lists_the_thirty_runs():
    done = subprocess.run([sys.executable, str(PROBE), "--list"],
                          capture_output=True, text=True, check=True)
    names = done.stdout.split()
    assert len(names) == len(set(names)) == 30
    assert {"c3d-runtime-18", "multishape-padded-7", "r2plus1d-runtime-1",
            "toy-padded-3"} <= set(names)


def test_stage_profile_of_toy_seed_0():
    done = subprocess.run([sys.executable, str(TOOLS / "stage_profile.py"),
                           "--model", "toy", "--seed", "0"],
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    head, params_text = lines[0].split(", params ")
    assert head == "toy/zcu102 runtime"
    chain = re.fullmatch(
        r"seed 0: [\d.]+ s, best (\d+) cycles, _plan_layer (\d+), tilings (\d+), "
        r"axes derived (\d+), plan scores computed (\d+), node records built (\d+), "
        r"configs built (\d+), rejected on budget (\d+)", lines[1])
    best, plans, tilings, axes, scores, records, configs, rejected = map(int, chain.groups())
    model = parse_model(bundled_model_text("toy"))
    params = AnnealingParams(seed=0, **ast.literal_eval(params_text))
    state, _ = anneal(model, load_bundled_profile("zcu102"), params)
    assert best == state.latency_cycles
    # a runtime chain scores its plans from their tilings' terms: it builds no
    # config, and plans whose folds cut to equal lanes share one score
    assert configs == 0 and plans >= tilings > 0 and plans >= scores > 0
    # toy has one layer of each kind, so each node runs one layer: one record per plan
    assert records == plans
    # each tiling derives at most its five axes, and the first of each layer all five
    assert 5 * tilings >= axes >= 5 * len(state.schedule.parts)
    stages = dict(re.fullmatch(r"(\w+): (\d+) calls, [\d.]+ s", line).group(1, 2)
                  for line in lines[2:6])
    assert list(stages) == ["build_schedule", "schedule_latency", "graph_resources",
                            "check_constraints"]
    # every evaluation costs its graph, and builds a schedule unless it is over budget
    assert int(stages["build_schedule"]) + rejected == int(stages["graph_resources"]) > 0
    assert rejected > 0

    # the warm starts of seeds 0-7, then the best design of the chain just profiled
    warm = []
    for seed in range(8):
        params = AnnealingParams(seed=seed, **ast.literal_eval(params_text))
        try:
            warm.append(warm_start(model, load_bundled_profile("zcu102"), params,
                                   random.Random(seed))[0].schedule)
        except OptimizerError:
            pass
    exports = [("warm-start", "0, 1, 2, 3, 4, 5, 6, 7", 8 - len(warm), warm, lines[6:14]),
               ("chain-best", "0", 0, [state.schedule], lines[14:])]
    for what, seeds, infeasible, schedules, export_lines in exports:
        export = re.fullmatch(
            rf"export: (\d+) {what} designs of seeds \[{seeds}\] \((\d+) infeasible\), "
            r"(\d+) entries written, (\d+) configs encoded, (\d+) reports checked by text, "
            r"(\d+) reports decoded, (\d+) groups scored", export_lines[0])
        designs = len(schedules)
        entries = sum(map(len, schedules))
        groups = sum(len(s.groups) for s in schedules)  # one config object per group
        first = schedules[0]  # also reported from an indent=2 copy of its file
        *counts, scored = map(int, export.groups())
        # both commands format the design's own text, encoding each config
        # once, and the report finds the file equal to it; the copy's report
        # formats the first plan's text, finds it differs, decodes the copy
        # and formats the rest of the text to compare it with
        encoded = 2 * groups + len(first.groups)
        assert counts == [designs, infeasible, entries, encoded, designs, 1], what
        # `schedule_latency` scores plans; each report scores each group once,
        # for its per-layer rows
        assert scored == groups + len(first.groups) and entries > groups, what
        export_stages = [re.fullmatch(r"export ([\w +]+): [\d.]+ s", line).group(1)
                         for line in export_lines[1:]]
        assert export_stages == ["build", "expand + encode + write", "compare",
                                 "decode + compare", "score + report", "read model",
                                 "read design + device + graph"], what
