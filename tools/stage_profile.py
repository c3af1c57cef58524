"""Stage profile of fixed-seed annealing chains: where `evaluate` spends its time.

Runs one `optimizer.anneal` chain per seed on zcu102 at the design-probe
annealing parameters (C3D seeds 0-2 by default) and prints:

- per chain: its wall time, best latency, the `scheduler._plan_layer` calls,
  the layer tilings made (`scheduler._tile_layer` calls; a plan whose tiling
  the chain's memo holds makes none), the axes derived for them
  (`scheduler._AxisCut` calls, one per axis cut; a tiling takes each axis
  the memo holds at its tile from it), the plan scores computed
  (`perf_model.lane_cycles` calls: a runtime tiling keeps one per lanes and
  bandwidth pair, which its plans share), the node records built
  (`scheduler._NodeRecord`; a node whose record the memo holds builds
  none), the configs the scheduler built (none in either mode: a plan is
  scored from its tiling's terms or its node's, and builds its configs
  only when its groups are read), and the evaluations rejected on budget,
  which `evaluate` returns before building a schedule;
- per `evaluate` stage, summed over the chains: the calls and seconds spent in
  `build_schedule`, `schedule_latency`, `graph_resources` and
  `check_constraints`, timed by wrapping their module-level `optimizer` names.

Then it exports the warm-start design of each of the seeds 0-7 (for C3D, the
inputs of the c3d-export benchmark workload), and then the best design of
each chain it has just profiled (for C3D, the designs the c3d-search
workload exports, whose plans have few tiles), through `harflow schedule`
and `harflow report`. The first design of each set is reported once more,
from a copy of its schedule.json re-dumped with `indent=2`, which the
report decodes. For each set it prints the entries written, the configs
encoded (`perf_model.config_document` calls, the one writer of config
documents: both commands format the design's schedule.json text, so twice
the size of the file's config table, and the copy's report formats its
whole text once, the first plan to compare it with the file's text and the
rest to compare them with the decoded file), the reports that checked the
file by its text and those that decoded it (`scheduler.check_schedule_doc`
calls: a file `harflow schedule` has just written is the design's own
text, so only the copy's),
the groups scored (`perf_model.roofline` calls: each report scores each
group once, for its per-layer rows; `schedule_latency` scores plans, not
groups), and the seconds summed over the designs of each export stage:

- build: `build_schedule` in both commands (`harflow report` checks the
  file against the design's schedule, then scores and reports that
  schedule);
- expand + encode + write: the rest of `harflow schedule`, past loading the
  design and scoring the schedule: `schedule_json` has each layer plan
  format its entries a run of C tiles at a time, then the text is written;
- compare: `harflow report` reading the schedule file's text and comparing
  it, a layer plan at a time, with the design's own (`is_schedule_json`);
- decode + compare: `harflow report` decoding a file that is not the
  design's own text and comparing it with the design's entries
  (`scheduler.check_schedule_doc`): the copy's report only;
- score + report: `schedule_latency` in both commands and the rest of
  `harflow report`: the scoring and the report;
- read model: `model_ir.read_model` of the design's model in both commands;
- read design + device + graph: the rest of `cli._load_design` in both
  commands: decoding design.json, reading its device and its graph and
  checking that the graph covers the model.

The counts are deterministic per seed; the seconds are wall time of this
process. Two trees are compared by running the profile on each:

    python3 tools/stage_profile.py
    python3 tools/stage_profile.py --src OTHER_CHECKOUT/src
"""

import argparse
import io
import json
import random
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

from design_probe import DEVICE, PARAMS

EXPORT_SEEDS = range(8)  # the warm starts the c3d-export benchmark workload exports

STAGES = ("build_schedule", "schedule_latency", "graph_resources", "check_constraints")


def _timed(fn, totals):
    """`fn`, adding its calls and seconds to `totals` = [calls, seconds]."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[0] += 1
            totals[1] += time.perf_counter() - start
    return wrapper


def _counted(fn, totals):
    """`fn`, adding its calls to `totals` = [calls]."""
    def wrapper(*args, **kwargs):
        totals[0] += 1
        return fn(*args, **kwargs)
    return wrapper


def _rejected_on_budget(fn, totals):
    """`fn` (`optimizer.evaluate`), adding to `totals` = [count] each state it
    returns with a budget violation."""
    def wrapper(*args, **kwargs):
        state = fn(*args, **kwargs)
        totals[0] += any(" over budget: " in v for v in state.violations)
        return state
    return wrapper


def profile(model_name, seeds, padded=False):
    """(per-chain rows, {stage: [calls, seconds]}, best graph per chain) of
    one chain per seed."""
    from harflow import optimizer, scheduler
    from harflow.device import load_bundled_profile
    from harflow.generators import bundled_model_text
    from harflow.model_ir import parse_model

    model = parse_model(bundled_model_text(model_name))
    dev = load_bundled_profile(DEVICE)
    stages = {name: [0, 0.0] for name in STAGES}
    counters = {name: [0] for name in ("plan_layer", "tilings", "axes", "scores", "records",
                                       "configs", "rejected")}
    patched = {(optimizer, name): _timed(getattr(optimizer, name), stages[name])
               for name in STAGES}
    for name, counter in (("_plan_layer", "plan_layer"), ("_tile_layer", "tilings"),
                          ("_AxisCut", "axes"), ("lane_cycles", "scores"),
                          ("_NodeRecord", "records"), ("RuntimeConfig", "configs")):
        patched[scheduler, name] = _counted(getattr(scheduler, name), counters[counter])
    patched[optimizer, "evaluate"] = _rejected_on_budget(optimizer.evaluate,
                                                         counters["rejected"])
    saved = {key: getattr(*key) for key in patched}
    rows, bests = [], []
    try:
        for (module, name), fn in patched.items():
            setattr(module, name, fn)
        for seed in seeds:
            params = optimizer.AnnealingParams(
                seed=seed, enable_runtime_reconfig=not padded, **PARAMS)
            before = {name: counter[0] for name, counter in counters.items()}
            start = time.perf_counter()
            best, _ = optimizer.anneal(model, dev, params)
            wall = time.perf_counter() - start
            bests.append(best.graph)
            rows.append(dict(seed=seed, wall_s=wall, best_cycles=best.latency_cycles,
                             **{name: counter[0] - before[name]
                                for name, counter in counters.items()}))
    finally:
        for (module, name), fn in saved.items():
            setattr(module, name, fn)
    return rows, stages, bests


def warm_starts(model_name, seeds, padded=False):
    """(the warm-start design graph of each seed, the seeds skipped): a seed
    whose warm start finds no feasible design (`OptimizerError`) is skipped."""
    from harflow import optimizer
    from harflow.device import load_bundled_profile
    from harflow.generators import bundled_model_text
    from harflow.model_ir import parse_model

    model = parse_model(bundled_model_text(model_name))
    dev = load_bundled_profile(DEVICE)
    graphs, skipped = [], []
    for seed in seeds:
        params = optimizer.AnnealingParams(seed=seed, enable_runtime_reconfig=not padded, **PARAMS)
        try:
            state, _ = optimizer.warm_start(model, dev, params, random.Random(seed))
        except optimizer.OptimizerError:
            skipped.append(seed)
            continue
        graphs.append(state.graph)
    return graphs, skipped


def export_profile(model_name, graphs, padded=False):
    """(stage seconds, counts) of exporting the design of each hardware graph,
    and of reporting the first one from an `indent=2` copy of its file."""
    from harflow import cli, perf_model, reporting, scheduler
    from harflow.device import load_bundled_profile
    from harflow.generators import bundled_model_text
    from harflow.model_ir import parse_model, serialize_model
    from harflow.scheduler import MODE_PADDED, MODE_RUNTIME, build_schedule

    model = parse_model(bundled_model_text(model_name))
    dev = load_bundled_profile(DEVICE)
    mode = MODE_PADDED if padded else MODE_RUNTIME
    names = ("_load_design", "read_model", "build_schedule", "schedule_latency",
             "check_schedule_doc", "is_schedule_json")
    timers = {name: [0, 0.0] for name in names + ("read schedule text", "decode schedule")}
    encoded, scored = [0], [0]
    patched = {(cli, name): _timed(getattr(cli, name), timers[name]) for name in names}
    for name, timer in (("_read_text", "read schedule text"),
                        ("_read_json_object", "decode schedule")):
        plain, timed = getattr(cli, name), _timed(getattr(cli, name), timers[timer])
        patched[cli, name] = lambda path, what, *args, plain=plain, timed=timed: (
            timed if what == "schedule" else plain)(path, what, *args)
    for module in (perf_model, scheduler):
        patched[module, "config_document"] = _counted(perf_model.config_document, encoded)
    for module in (perf_model, reporting):
        patched[module, "roofline"] = _counted(perf_model.roofline, scored)
    saved = {key: vars(key[0])[key[1]] for key in patched}

    def command(*argv):
        """Seconds of one CLI command, and the seconds each timer took of them."""
        before = {name: t[1] for name, t in timers.items()}
        first = scored[0]  # the warm starts score groups too; count only the commands'
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            cli.main.main(list(argv), standalone_mode=False)
        wall = time.perf_counter() - start
        counts["scored"] += scored[0] - first
        return wall, {name: t[1] - before[name] for name, t in timers.items()}

    def report(schedule):
        """Run `harflow report` on `schedule` and add its stages."""
        checks = timers["check_schedule_doc"][0]
        wr, tr = command("report", "--design", design, "--schedule", schedule, "--out", out)
        decoded = timers["check_schedule_doc"][0] > checks
        counts["decoded_reports"] += decoded
        counts["by_text"] += not decoded
        compare = tr["read schedule text"] + tr["is_schedule_json"]
        decode = tr["decode schedule"] + tr["check_schedule_doc"]
        stages["build"] += tr["build_schedule"]
        stages["compare"] += compare
        stages["decode + compare"] += decode
        stages["score + report"] += (wr - tr["_load_design"] - compare - decode
                                     - tr["build_schedule"])
        load(tr)

    def load(times):
        """Add the stages of `cli._load_design` of one command."""
        stages["read model"] += times["read_model"]
        stages["read design + device + graph"] += times["_load_design"] - times["read_model"]

    stages = dict.fromkeys(("build", "expand + encode + write", "compare", "decode + compare",
                            "score + report", "read model", "read design + device + graph"),
                           0.0)
    counts = dict(designs=0, entries=0, scored=0, by_text=0, decoded_reports=0)
    try:
        for (owner, name), fn in patched.items():
            setattr(owner, name, fn)
        with tempfile.TemporaryDirectory() as tmp:
            design, schedule, indented, out = (str(Path(tmp) / f) for f in (
                "design.json", "schedule.json", "indented.json", "report.json"))
            for graph in graphs:
                Path(design).write_text(json.dumps({
                    "model": json.loads(serialize_model(model)), "device": dev.to_dict(),
                    "mode": mode, "graph": graph.to_dict(),
                }))
                ws, ts = command("schedule", "--design", design, "--out", schedule)
                stages["build"] += ts["build_schedule"]
                stages["expand + encode + write"] += (
                    ws - ts["_load_design"] - ts["build_schedule"] - ts["schedule_latency"])
                stages["score + report"] += ts["schedule_latency"]
                load(ts)
                report(schedule)
                if not counts["designs"]:
                    text = Path(schedule).read_text()
                    Path(indented).write_text(json.dumps(json.loads(text), indent=2))
                    report(indented)
                counts["designs"] += 1
                counts["entries"] += len(build_schedule(model, graph, mode))
    finally:
        for (owner, name), fn in saved.items():
            setattr(owner, name, fn)
    counts.update(encoded=encoded[0])
    return stages, counts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--model", default="c3d", help="bundled model name")
    ap.add_argument("--seed", type=int, action="append", default=[],
                    help="chain seed (repeatable; default 0, 1 and 2)")
    ap.add_argument("--padded", action="store_true",
                    help="schedule in padded mode (no runtime reconfiguration)")
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="source directory harflow is imported from")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src))
    seeds = args.seed or [0, 1, 2]
    rows, stages, bests = profile(args.model, seeds, args.padded)
    mode = "padded" if args.padded else "runtime"
    print(f"{args.model}/{DEVICE} {mode}, params {PARAMS}")
    for row in rows:
        print("seed {seed}: {wall_s:.3f} s, best {best_cycles} cycles, _plan_layer {plan_layer}, "
              "tilings {tilings}, axes derived {axes}, plan scores computed {scores}, "
              "node records built {records}, configs built {configs}, "
              "rejected on budget {rejected}"
              .format(**row))
    for name, (calls, seconds) in stages.items():
        print(f"{name}: {calls} calls, {seconds:.3f} s")
    warm, skipped = warm_starts(args.model, EXPORT_SEEDS, args.padded)
    for what, graphs, of_seeds, infeasible in (
            ("warm-start", warm, list(EXPORT_SEEDS), len(skipped)),
            ("chain-best", bests, seeds, 0)):
        stages, counts = export_profile(args.model, graphs, args.padded)
        print(f"export: {counts['designs']} {what} designs of seeds {of_seeds} "
              f"({infeasible} infeasible), {counts['entries']} entries written, "
              f"{counts['encoded']} configs encoded, "
              f"{counts['by_text']} reports checked by text, {counts['decoded_reports']} "
              f"reports decoded, {counts['scored']} groups scored")
        for name, seconds in stages.items():
            print(f"export {name}: {seconds:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
