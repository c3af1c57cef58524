"""Correctness checks on the designs a benchmark run produced.

Runs in its own process, so that its memory (the coverage oracle allocates
grids of up to 64**4 cells) does not count toward the run's peak RSS, and so
that every design is re-evaluated from its design.json with a cold cache.

Usage: python3 checks.py SRC_DIR LIST_JSON
LIST_JSON is a list of {"path": design.json path, "oracle": bool}. Prints
one JSON object mapping each path to the list of checks that design failed.

Per design:
- the graph rebuilt from design.json (`graph.to_dict()` output) re-evaluates
  to the recorded `latency_cycles` and is feasible;
- `scheduler.coverage_oracle` passes on its schedule;
- with "oracle": `scheduler.schedule_latency_oracle` equals
  `perf_model.schedule_latency`. The oracle enumerates fold steps and takes
  seconds per C3D chain design (minutes on some warm-start designs), so a
  run asks for it on the chain designs of its first operation only.
  It is a sum over entries, so it is evaluated once per distinct runtime
  configuration and weighted by that configuration's count.
"""

import json
import sys
from collections import Counter
from pathlib import Path


def check_design(h, doc, oracle):
    model = h.model_ir.parse_model(json.dumps(doc["model"]))
    dev = h.device.load_profile(json.dumps(doc["device"]))
    graph = h.hardware_graph.HardwareGraph.from_dict(doc["graph"])
    state = h.optimizer.evaluate(model, graph, dev, doc["mode"])
    failures = []
    if not state.feasible:
        failures.append(f"rebuilt design is infeasible: {state.violations[:3]}")
    if state.latency_cycles != doc["latency_cycles"]:
        failures.append(
            f"rebuilt design latency {state.latency_cycles} != recorded {doc['latency_cycles']}"
        )
    cover = h.scheduler.coverage_oracle(state.schedule, model, fused=graph.fused)
    if not cover.passed:
        failures.append(f"coverage oracle failed: {cover.failures[:3]}")
    if oracle:
        counts = Counter(e.config for e in state.schedule.entries)
        first = {}
        for entry in state.schedule.entries:
            first.setdefault(entry.config, entry)
        oracle_total = sum(
            n * h.scheduler.schedule_latency_oracle(h.scheduler.Schedule([first[cfg]]), dev)
            for cfg, n in counts.items()
        )
        model_total = h.perf_model.schedule_latency(state.schedule, dev)
        if oracle_total != model_total:
            failures.append(
                f"schedule_latency_oracle {oracle_total} != schedule_latency {model_total}"
            )
    return failures


def main(argv):
    src, listing = argv
    sys.path.insert(0, src)
    import harflow.device
    import harflow.hardware_graph
    import harflow.model_ir
    import harflow.optimizer
    import harflow.perf_model
    import harflow.scheduler

    h = sys.modules["harflow"]
    results = {}
    for item in json.loads(Path(listing).read_text()):
        doc = json.loads(Path(item["path"]).read_text())
        results[item["path"]] = check_design(h, doc, item["oracle"])
    print(json.dumps(results))


if __name__ == "__main__":
    main(sys.argv[1:])
