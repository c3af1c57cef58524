#!/usr/bin/env python3
"""harflow benchmark: anneal search, padded/runtime ablation and export.

Run from the repository root (needs only the sources under src/):

    python3 perfbench/run.py --workload c3d-search --seed 0 --seconds 32 --trace 0

Workloads. Each is a closed loop with one caller: the next operation starts
when the previous one has finished. Operations take their input seeds from a
fixed panel (see WORKLOADS for why); --seed rotates the order and --panel
picks another panel for held-out checks. All run on the bundled zcu102
device at the annealing parameters of PARAMS.

An untimed warm-up comes first. A --trace 0 run then makes whole passes
over the panel (searches only), then whole rounds of exports over the
designs of the first pass, each phase until its share of --seconds is
used. Every input is searched and every design exported the same number
of times, so the mix of inputs a metric sums over is the same in every
run; per input the median over passes (rounds) is taken.

  c3d-search           per input seed, one anneal chain on C3D with runtime
                       reconfiguration, then `harflow schedule` + `report`
                       on its best design
  multishape-ablation  per input seed, one runtime and one padded anneal
                       chain on multishape, each best design exported
  c3d-export           per input seed, the `optimizer.warm_start` design of
                       C3D, exported as above (large schedules)

Host time is wall-clock time the tool takes on the machine running the
benchmark. Simulated time is what the modelled accelerator would take.
Every printed line says which.

The gated search and export metrics (search_s, export_invocations_per_s)
are normalized to a nominal host speed measured by a reference loop sampled
throughout the run; see hostspeed.py. Raw host times are printed beside them.

--trace 0 prints the end-to-end metrics. --trace 1 runs each input once
untraced and then once traced (the wall-time difference is the tracing
overhead, and the two results must agree exactly); it prints per-layer
metrics from spans recorded around calls into each harflow module, and
writes the spans to .bench_build/perfbench/.

Correctness checks run on every operation (see checks.py); a failed
operation is a search that raises, a CLI call that fails, or a failed check.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import gc
import io
import itertools
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from tracing import Tracer, merged, module_self, percentile_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

DEVICE = "zcu102"
# The fixed short annealing parameter set of acceptance criterion 5:
# 64 temperatures x 10 moves = 640 SA moves per chain.
PARAMS = dict(tau_start=1.0, tau_min=0.01, cooling=0.93, warm_start_samples=16)
REFERENCE_C3D_MS = 98.15  # C3D on zcu102, the reference of acceptance criteria 1 and 8
SETUP_REPEATS = 7
MIN_EXPORT_S = 2.0  # export rounds continue at least this long, even past --seconds
HARD_STOP_S = 120.0  # start no operation after this, so a run ends within 180 s
WARM_UP_SEED = 0  # warm start whose design is searched and exported once, untimed

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import harflow.cli
from harflow import device, generators, model_ir, resource_model
model_ir.parse_model(generators.bundled_model_text(sys.argv[2]))
device.load_bundled_profile(sys.argv[3])
resource_model.default_regression_models()
print(time.perf_counter() - t0)
"""
# Set-up reference: a fresh interpreter importing numpy, which harflow's set-up
# also does (~60% of it) and no harflow change can speed up.
SETUP_REFERENCE_SNIPPET = """
import time
t0 = time.perf_counter()
import numpy
print(time.perf_counter() - t0)
"""
SETUP_REFERENCE_NOMINAL_S = 0.1  # its time on the nominal host


@dataclass(frozen=True)
class Workload:
    model: str
    searches: tuple  # per operation: "runtime"/"padded" anneal chains or a "warm" start
    panel: int  # input seeds per panel
    search_share: float  # share of --seconds for search passes; exports get the rest

    def input_seed(self, panel, seed, i):
        """Input seed of operation i: position seed + i of panel `panel`."""
        return panel * self.panel + (seed + i) % self.panel


# Inputs come from fixed panels of seeds, not from seeds drawn per run. A C3D
# chain takes 5-20 s and its cost varies about 2x with its seed; multishape
# chains vary 3x. A run affords 3 C3D chains or ~8 multishape pairs, so a
# median over seed-drawn inputs moved by 20-40% from draw to draw (measured),
# more than any allowed bound. With three C3D chains a c3d-search run overshoots
# --seconds by a few seconds at most, even on a slow host. A c3d-export round
# over 8 designs writes and re-reads ~84k invocations (~11 s), so two or three
# rounds fit in a run.
# Panels 0 and 1 of c3d-export stop before seed 18, the first C3D seed whose
# warm start finds no feasible design at PARAMS.
WORKLOADS = {
    "c3d-search": Workload("c3d", ("runtime",), 3, 1.0),
    "multishape-ablation": Workload("multishape", ("runtime", "padded"), 8, 0.75),
    "c3d-export": Workload("c3d", ("warm",), 8, 0.4),
}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("search_s", "s", "lower"),
    ("export_invocations_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("optimizer.evaluate.calls", "count", "higher"),
    ("optimizer.evaluate.total_s", "s", "lower"),
    ("optimizer.evaluate.self_s", "s", "lower"),
    ("optimizer.evaluate.ms_p50", "ms", "lower"),
    ("optimizer.evaluate.ms_p99", "ms", "lower"),
    ("optimizer.check_constraints.calls", "count", "higher"),
    ("optimizer.check_constraints.total_s", "s", "lower"),
    ("optimizer.warm_start.calls", "count", "higher"),
    ("optimizer.warm_start.total_s", "s", "lower"),
    ("optimizer.random_transformation.calls", "count", "higher"),
    ("optimizer.fold_climb.calls", "count", "higher"),
    ("optimizer.fold_climb.evaluations", "count", "lower"),
    ("optimizer.feasible_ratio", "ratio", "higher"),
    ("optimizer.self_s", "s", "lower"),
    ("scheduler.build_schedule.calls", "count", "higher"),
    ("scheduler.build_schedule.total_s", "s", "lower"),
    ("scheduler.invocations", "count", "lower"),
    ("scheduler.distinct_configs", "count", "lower"),
    ("scheduler.invocations_per_config", "ratio", "higher"),
    ("scheduler.infeasible", "count", "lower"),
    ("scheduler.self_s", "s", "lower"),
    ("perf_model.schedule_latency.calls", "count", "higher"),
    ("perf_model.schedule_latency.total_s", "s", "lower"),
    ("perf_model.cache_hits", "count", "higher"),
    ("perf_model.cache_misses", "count", "lower"),
    ("perf_model.cache_hit_ratio", "ratio", "higher"),
    ("perf_model.self_s", "s", "lower"),
    ("resource_model.graph_resources.calls", "count", "higher"),
    ("resource_model.graph_resources.total_s", "s", "lower"),
    ("resource_model.self_s", "s", "lower"),
    ("hardware_graph.fuse_activations.calls", "count", "higher"),
    ("hardware_graph.fuse_activations.total_s", "s", "lower"),
    ("hardware_graph.combine_nodes.calls", "count", "higher"),
    ("hardware_graph.separate_node.calls", "count", "higher"),
    ("hardware_graph.self_s", "s", "lower"),
    ("model_ir.parse_model.calls", "count", "higher"),
    ("model_ir.parse_model.total_s", "s", "lower"),
    ("model_ir.self_s", "s", "lower"),
    ("device.load_profile.calls", "count", "higher"),
    ("device.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("reporting.build_report.total_s", "s", "lower"),
    ("reporting.per_layer_latency.total_s", "s", "lower"),
    ("reporting.self_s", "s", "lower"),
    ("export.schedule_build_s", "s", "lower"),
    ("export.encode_write_s", "s", "lower"),
    ("export.read_decode_s", "s", "lower"),
    ("export.build_report_s", "s", "lower"),
    ("export.schedule_bytes", "B", "lower"),
    ("model.compute_share", "share", "higher"),
    ("model.memory_in_share", "share", "lower"),
    ("model.memory_out_share", "share", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "higher"),
)


@dataclass
class Search:
    kind: str
    seed: int
    start: float = 0.0  # perf_counter() at the start
    seconds: float = 0.0
    moves: int = 0  # SA moves, len(trace); 0 for a warm start
    invocations: int = 0  # schedule entries scored across all evaluations
    cache_hits: int = 0
    cache_misses: int = 0
    state: object = None  # best CandidateState; None when the search raised or was released
    latency_cycles: object = None  # of the best state; None when the search raised
    design_invocations: int = 0  # schedule entries of the best state
    design: str = ""  # design.json path once exported
    failures: list = field(default_factory=list)


@dataclass
class Export:
    tag: str
    start: float = 0.0  # perf_counter() at the start
    seconds: float = 0.0
    invocations: int = 0
    schedule_bytes: int = 0
    failures: list = field(default_factory=list)


@dataclass
class Op:
    index: int
    seed: int
    searches: list
    exports: list
    wall: float

    @property
    def searched(self):
        return all(s.latency_cycles is not None for s in self.searches)


class Bench:
    """One process's harflow handles, inputs and instrumentation."""

    def __init__(self, h, workload, work, tracer):
        self.h = h
        self.workload = workload
        self.work = work
        self.tracer = tracer
        self.model = h.model_ir.parse_model(h.generators.bundled_model_text(workload.model))
        self.dev = h.device.load_bundled_profile(DEVICE)
        h.resource_model.default_regression_models()
        self.model_doc = json.loads(h.model_ir.serialize_model(self.model))
        self.dev_doc = self.dev.to_dict()
        self.scored = 0
        self._evaluate = h.optimizer.evaluate

        def counted(*args, **kwargs):
            state = self._evaluate(*args, **kwargs)
            self.scored += len(state.schedule)
            return state

        h.optimizer.evaluate = counted

    def close(self):
        self.h.optimizer.evaluate = self._evaluate

    def ms(self, cycles):
        return cycles * 1e3 / self.dev.clock_hz

    def warm_up(self):
        """One untimed warm start and export, so first-call costs fall outside timing."""
        warm = self.search("warm", WARM_UP_SEED)
        if warm.state is not None:
            self.write_design(warm, "warm-up")
            self.export(warm, "warm-up")

    def search(self, kind, seed):
        h = self.h
        # every `harflow optimize` process starts with an empty cache
        h.perf_model.invocation_latency.cache_clear()
        params = h.optimizer.AnnealingParams(
            seed=seed, enable_runtime_reconfig=kind != "padded", **PARAMS
        )
        out = Search(kind, seed)
        before = self.scored
        t0 = perf_counter()
        try:
            if kind == "warm":
                out.state, _ = h.optimizer.warm_start(
                    self.model, self.dev, params, random.Random(seed)
                )
            else:
                out.state, trace = h.optimizer.anneal(self.model, self.dev, params)
                out.moves = len(trace)
        except h.optimizer.OptimizerError as exc:
            out.failures.append(f"{kind} search at seed {seed} raised: {str(exc)[:160]}")
        out.start, out.seconds = t0, perf_counter() - t0
        out.invocations = self.scored - before
        if out.state is not None:
            out.latency_cycles = out.state.latency_cycles
            out.design_invocations = len(out.state.schedule)
        info = h.perf_model.invocation_latency.cache_info()
        out.cache_hits, out.cache_misses = info.hits, info.misses
        return out

    def write_design(self, search, tag):
        """design.json of the search's best state, in `harflow optimize` format."""
        h, state = self.h, search.state
        mode = h.scheduler.MODE_PADDED if search.kind == "padded" else h.scheduler.MODE_RUNTIME
        design = {
            "model": self.model_doc,
            "device": self.dev_doc,
            "mode": mode,
            "graph": state.graph.to_dict(),
            "latency_cycles": state.latency_cycles,
            "latency_ms": self.ms(state.latency_cycles),
            "resources": state.resources.to_dict(),
        }
        path = self.work / f"{tag}.design.json"
        path.write_text(json.dumps(design, indent=2) + "\n")
        search.design = str(path)

    def export(self, search, tag):
        """`harflow schedule` and `harflow report` on the search's design.json, via cli.main."""
        h, state, path = self.h, search.state, search.design
        schedule, report = self.work / "schedule.json", self.work / "report.json"
        out = Export(tag, invocations=len(state.schedule))
        t0 = perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                h.cli.main.main(["schedule", "--design", str(path), "--out", str(schedule)],
                                standalone_mode=False)
                h.cli.main.main(["report", "--design", str(path), "--schedule", str(schedule),
                                 "--out", str(report)], standalone_mode=False)
        except Exception as exc:  # the CLI would exit non-zero; record it and go on
            out.failures.append(f"export of {tag} failed: {type(exc).__name__}: {exc}")
        out.start, out.seconds = t0, perf_counter() - t0
        if not out.failures:
            out.schedule_bytes = schedule.stat().st_size
            doc = json.loads(report.read_text())
            if doc["latency_cycles"] != state.latency_cycles:
                out.failures.append(
                    f"{tag}: reloaded schedule totals {doc['latency_cycles']} cycles, "
                    f"design has {state.latency_cycles}"
                )
            reloaded = sum(row["invocations"] for row in doc["per_layer"])
            if reloaded != len(state.schedule):
                out.failures.append(f"{tag}: reloaded {reloaded} invocations of {len(state.schedule)}")
        schedule.unlink(missing_ok=True)
        report.unlink(missing_ok=True)
        return out

    def run_op(self, index, seed, traced=False, export=True):
        """Every search of the workload on one input seed, then (optionally) their exports."""
        tracer = self.tracer
        tracer.op, tracer.active = index, traced
        t0 = perf_counter()
        searches, exports = [], []
        for kind in self.workload.searches:
            with tracer.span("bench.search"):
                searches.append(self.search(kind, seed))
        for search in searches:
            if export and search.state is not None:
                tag = f"op{index}-{search.kind}"
                with tracer.span("bench.export"):
                    self.write_design(search, tag)
                    exports.append(self.export(search, tag))
        tracer.active = False
        return Op(index, seed, searches, exports, perf_counter() - t0)


def load_harflow():
    if not (SRC / "harflow" / "__init__.py").is_file():
        sys.exit(f"harflow sources not found under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import harflow.cli
    import harflow.device
    import harflow.generators
    import harflow.model_ir
    import harflow.optimizer
    import harflow.perf_model
    import harflow.reporting
    import harflow.resource_model
    import harflow.scheduler

    return sys.modules["harflow"]


def settle_heap():
    """Collect, then freeze the survivors out of later collections.

    The next timed unit's collections then scan only the objects it creates,
    as in a fresh `harflow` process, not the designs the benchmark keeps.
    """
    gc.collect()
    gc.freeze()


def measure(bench, panel, seed, seconds):
    """Untraced run: whole search passes over the panel, then whole export rounds.

    Searches take `search_share` of `seconds` (at least one pass); export
    rounds over the first pass's designs take the rest (at least MIN_EXPORT_S).
    Each round's exports are appended to the first-pass op that owns the design.
    """
    wl = bench.workload
    t0 = perf_counter()
    ops = []
    stop = False
    while not stop:
        start = perf_counter()
        for i in range(wl.panel):
            settle_heap()
            ops.append(bench.run_op(len(ops), wl.input_seed(panel, seed, i), export=False))
            if len(ops) > wl.panel:
                # only first-pass designs are exported; keeping later states
                # would make peak RSS grow with the number of passes
                for s in ops[-1].searches:
                    s.state = None
            stop = perf_counter() - t0 > HARD_STOP_S
            if stop:
                break
        now = perf_counter()
        stop = stop or now - t0 + (now - start) > wl.search_share * seconds
    designs = [(op, s) for op in ops[: wl.panel] for s in op.searches if s.state is not None]
    for op, s in designs:
        bench.write_design(s, f"op{op.index}-{s.kind}")
    exports_t0 = perf_counter()
    while designs:
        settle_heap()
        start = perf_counter()
        for op, s in designs:
            op.exports.append(bench.export(s, f"op{op.index}-{s.kind}"))
        now = perf_counter()
        in_budget = now - t0 + (now - start) <= seconds or now - exports_t0 < MIN_EXPORT_S
        if not in_budget or now - t0 > HARD_STOP_S:
            break
    gc.unfreeze()
    return ops


def measure_traced(bench, panel, seed, seconds):
    """Traced run: each input once untraced, then once traced, with exports.

    Their wall times give the tracing overhead, and their results must agree.
    Returns the ops and the (untraced, traced) pairs.
    """
    wl = bench.workload
    t0 = perf_counter()
    ops, pairs = [], []
    for i in itertools.count():
        elapsed = perf_counter() - t0
        typical = 2 * statistics.median(op.wall for op in ops) if ops else 0.0
        if i and (elapsed > HARD_STOP_S or elapsed + typical > seconds):
            break
        input_seed = wl.input_seed(panel, seed, i)
        plain = bench.run_op(len(ops), input_seed)
        traced = bench.run_op(len(ops) + 1, input_seed, traced=True)
        ops += [plain, traced]
        pairs.append((plain, traced))
        for a, b in zip(plain.searches, traced.searches):
            fa = (a.latency_cycles, a.invocations)
            fb = (b.latency_cycles, b.invocations)
            if fa != fb:
                b.failures.append(f"traced rerun of seed {a.seed} differs: {fa} != {fb}")
    return ops, pairs


def measure_setup(model):
    """Raw and normalized median host time of import + model/device parse +
    regression load, each in a fresh process.

    Each set-up process sits between two reference processes that import
    numpy (SETUP_REFERENCE_SNIPPET), and is scaled by the nominal reference
    time over their mean. The reference loop of hostspeed.py does not track
    set-up time: over 15 runs it left its interquartile spread at 0.35
    (0.37 raw).
    """
    def child(*args):
        done = subprocess.run([sys.executable, "-c", *args], capture_output=True, text=True,
                              timeout=60, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    refs, times = [child(SETUP_REFERENCE_SNIPPET)], []
    for _ in range(SETUP_REPEATS):
        times.append(child(SETUP_SNIPPET, str(SRC), model, DEVICE))
        refs.append(child(SETUP_REFERENCE_SNIPPET))
    normalized = [t * SETUP_REFERENCE_NOMINAL_S * 2 / (a + b)
                  for t, a, b in zip(times, refs, refs[1:])]
    return statistics.median(times), statistics.median(normalized)


def install_trace_points(h, tracer):
    """Patch every public function at the module-level name its caller uses."""
    def on_evaluate(counts, state):
        counts["evaluations"] += 1
        counts["feasible"] += bool(state.feasible)

    def on_schedule(counts, schedule):
        counts["invocations"] += len(schedule)
        # dedupe by object identity first (cheap), then by value among the survivors
        by_identity = {(e.node_id, e.layer_id, id(e.config)): e.config for e in schedule.entries}
        counts["distinct_configs"] += len(
            {(node, layer, cfg) for (node, layer, _), cfg in by_identity.items()}
        )

    def on_schedule_error(counts, exc):
        if isinstance(exc, h.scheduler.InfeasibleScheduleError):
            counts["infeasible"] += 1

    sched = dict(on_result=on_schedule, on_error=on_schedule_error)
    points = [
        (h.optimizer, "evaluate", "optimizer.evaluate", dict(on_result=on_evaluate)),
        (h.optimizer, "check_constraints", "optimizer.check_constraints", {}),
        (h.optimizer, "random_transformation", "optimizer.random_transformation", {}),
        (h.optimizer, "warm_start", "optimizer.warm_start", {}),
        (h.optimizer, "fold_climb", "optimizer.fold_climb", {}),
        (h.optimizer, "anneal", "optimizer.anneal", {}),
        (h.optimizer, "build_schedule", "scheduler.build_schedule", sched),
        (h.optimizer, "schedule_latency", "perf_model.schedule_latency", {}),
        (h.optimizer, "graph_resources", "resource_model.graph_resources", {}),
        (h.optimizer, "default_regression_models", "resource_model.default_regression_models", {}),
        (h.optimizer, "initial_mapping", "hardware_graph.initial_mapping", {}),
        (h.optimizer, "fuse_activations", "hardware_graph.fuse_activations", {}),
        (h.optimizer, "combine_nodes", "hardware_graph.combine_nodes", {}),
        (h.optimizer, "separate_node", "hardware_graph.separate_node", {}),
        (h.cli.schedule_cmd, "callback", "cli.schedule", {}),
        (h.cli.report_cmd, "callback", "cli.report", {}),
        (h.cli, "parse_model", "model_ir.parse_model", {}),
        (h.cli, "build_schedule", "scheduler.build_schedule", sched),
        (h.cli, "schedule_latency", "perf_model.schedule_latency", {}),
        (h.cli, "graph_resources", "resource_model.graph_resources", {}),
        (h.cli, "build_report", "reporting.build_report", {}),
        (h.reporting, "per_layer_latency", "reporting.per_layer_latency", {}),
        (h.scheduler, "build_schedule", "scheduler.build_schedule", sched),
        (h.model_ir, "parse_model", "model_ir.parse_model", {}),
        (h.device, "load_profile", "device.load_profile", {}),
        (h.device, "load_bundled_profile", "device.load_bundled_profile", {}),
    ]
    for owner, attr, name, hooks in points:
        site = getattr(owner, "__name__", "cli").rsplit(".", 1)[-1]
        tracer.patch(owner, attr, name, site, **hooks)


def bound_shares(h, schedule, dev):
    """Share of simulated cycles whose invocation bound is compute / memory_in / memory_out."""
    cycles = Counter()
    for cfg, n in Counter(e.config for e in schedule.entries).items():
        brk = h.perf_model.invocation_latency(
            cfg, dev.bw_in_words_per_cycle, dev.bw_out_words_per_cycle
        )
        cycles[brk.bound] += brk.total_cycles * n
    total = sum(cycles.values()) or 1
    return {b: cycles[b] / total for b in ("compute", "memory_in", "memory_out")}


def run_checks(ops, work, deadline_s):
    """Run checks.py on every exported design; attach failures to their searches."""
    searches = {s.design: s for op in ops for s in op.searches if s.design}
    if not searches:
        return
    listing = [
        {"path": s.design, "oracle": op.index == 0 and s.kind != "warm"}
        for op in ops for s in op.searches if s.design
    ]
    (work / "checks.json").write_text(json.dumps(listing))
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "checks.py"), str(SRC), str(work / "checks.json")],
            capture_output=True, text=True, timeout=max(30.0, deadline_s), check=True,
        )
        results = json.loads(done.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        detail = getattr(exc, "stderr", "") or ""
        for s in searches.values():
            s.failures.append(f"checks did not complete: {type(exc).__name__} {detail[-300:]}")
        return
    for path, failures in results.items():
        searches[path].failures.extend(failures)


def emit(out, name, value, unit, note=""):
    print(f"  {name:<30} {value:>16.6g} {unit:<6} {note}", file=out)


def tally(ops):
    attempted = sum(len(op.searches) + len(op.exports) for op in ops)
    failed = sum(bool(x.failures) for op in ops for x in op.searches + op.exports)
    return attempted, failed


def report_design(out, bench, search, title):
    """Simulated per-layer view of one design: cycles, invocations and bound tags."""
    h, state = bench.h, search.state
    print(f"{title} (simulated time, seed {search.seed}, {search.kind}):", file=out)
    print(f"  {'layer':<12} {'node':<10} {'invocations':>11} {'cycles':>12} {'ms':>9}  bounds",
          file=out)
    for row in h.reporting.per_layer_latency(state.schedule, bench.dev):
        print(f"  {row['layer']:<12} {row['node']:<10} {row['invocations']:>11} "
              f"{row['cycles']:>12} {row['ms']:>9.3f}  {','.join(row['bounds'])}", file=out)
    shares = bound_shares(h, state.schedule, bench.dev)
    print("  cycle share by bound: " + ", ".join(f"{b} {v:.4f}" for b, v in shares.items()),
          file=out)
    return shares


def end_to_end(out, bench, ops, setup, speed):
    wl = bench.workload
    ok = [s for op in ops for s in op.searches if s.latency_cycles is not None]
    exports = [e for op in ops for e in op.exports if not e.failures]
    chains = [s for s in ok if s.kind != "warm"]
    fingerprint = [op for op in ops[: wl.panel] if op.searched]
    best = min((s for op in fingerprint for s in op.searches if s.kind != "padded"),
               key=lambda s: s.latency_cycles)
    padded = [s for op in fingerprint for s in op.searches if s.kind == "padded"]
    attempted, failed = tally(ops)

    def host(x):  # (raw, normalized) host seconds of a search or an export
        raw = speed.raw(x.start, x.start + x.seconds)
        return raw, raw * speed.factor(x.start, x.start + x.seconds)

    # fixed mix: per input seed the median over passes, per design the median over rounds
    by_seed, by_design, invocations = defaultdict(list), defaultdict(list), {}
    for op in ops:
        if op.searched:
            by_seed[op.seed].append([host(s) for s in op.searches])
    for e in exports:
        by_design[e.tag].append(host(e))
        invocations[e.tag] = e.invocations
    passes = max(len(v) for v in by_seed.values())
    rounds = max(len(v) for v in by_design.values())

    def search_s(which):  # median over inputs of (median over passes of the mean per search)
        return statistics.median(
            statistics.median(statistics.mean(t[which] for t in op) for op in runs)
            for runs in by_seed.values()
        )

    def export_rate(which):
        per_design = [statistics.median(t[which] for t in v) for v in by_design.values()]
        return sum(invocations.values()) / sum(per_design)

    metrics = {
        "setup_s": setup[1],
        "search_s": search_s(1),
        "export_invocations_per_s": export_rate(1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print("end-to-end (host = this machine's wall clock; simulated = modelled accelerator; "
          "normalized = host time at the nominal host speed):", file=out)
    print(f"  host speed vs nominal: {speed.speed():.3f} (median over "
          f"{len(speed.durations)} reference samples)", file=out)
    emit(out, "setup_s", setup[1], "s",
         f"host, normalized by numpy imports; median of {SETUP_REPEATS} fresh processes: "
         "import, model+device parse, regression load")
    emit(out, "setup_raw_s", setup[0], "s", "host; the same, not normalized")
    what = {"runtime": "runtime anneal chain", "padded": "padded anneal chain", "warm": "warm start"}
    emit(out, "search_s", metrics["search_s"], "s",
         f"host, normalized; median over {len(by_seed)} input seeds ({passes} passes) of the "
         f"time per search ({' and '.join(what[k] for k in wl.searches)})")
    emit(out, "search_raw_s", search_s(0), "s", "host; the same, not normalized")
    if len(wl.searches) > 1:
        for kind in wl.searches:
            times = [s.seconds for s in ok if s.kind == kind]
            emit(out, f"search_{kind}_s", statistics.median(times), "s",
                 f"host; median per {what[kind]}, n={len(times)}")
    if chains:
        rates = [s.moves / s.seconds for s in chains]
        emit(out, "moves_per_s", statistics.median(rates), "1/s",
             f"host; SA moves per second of chain time, median, n={len(rates)}")
    emit(out, "search_invocations_per_s", sum(s.invocations for s in ok) / sum(s.seconds for s in ok),
         "1/s", f"host; schedule entries scored per search second, over {len(ok)} searches")
    best_ms = bench.ms(best.latency_cycles)
    emit(out, "best_latency_ms", best_ms, "ms",
         f"simulated; best runtime design of the first {len(fingerprint)} operations (seed {best.seed})")
    if wl.model == "c3d":
        print(f"  {'':<30} vs the {REFERENCE_C3D_MS} ms C3D/zcu102 reference: "
              f"{best_ms / REFERENCE_C3D_MS - 1:+.1%} (short search parameters, unlike the "
              "reference run; the model is otherwise unvalidated)", file=out)
    if padded:
        p = min(padded, key=lambda s: s.latency_cycles)
        emit(out, "padded_latency_ms", bench.ms(p.latency_cycles), "ms",
             f"simulated; best padded design of the first {len(fingerprint)} operations (seed {p.seed})")
    emit(out, "export_s", statistics.median(
        statistics.median(t[0] for t in v) for v in by_design.values()), "s",
         f"host; median over {len(by_design)} designs of the time per schedule+report")
    emit(out, "export_invocations_per_s", metrics["export_invocations_per_s"], "1/s",
         f"host, normalized; invocations written and re-read per export second, "
         f"{len(by_design)} designs x {rounds} rounds")
    emit(out, "export_raw_invocations_per_s", export_rate(0), "1/s",
         "host; the same, not normalized")
    emit(out, "peak_rss_mb", metrics["peak_rss_mb"], "MB", "host; high-water mark of this process")
    emit(out, "failed_ops_frac", failed / attempted, "ratio",
         f"{failed} of {attempted} operations (searches + exports) failed")
    print("per-seed fingerprints (simulated, exact per seed):", file=out)
    for op in ops:
        for s in op.searches:
            cycles = "raised" if s.latency_cycles is None else s.latency_cycles
            print(f"  seed {s.seed} {s.kind}: latency_cycles={cycles} "
                  f"design_invocations={s.design_invocations} "
                  f"scored_invocations={s.invocations}", file=out)
    print("per-operation host times:", file=out)
    for op in ops:
        print(f"  op {op.index} (seed {op.seed}): "
              + ", ".join(f"{s.kind} search {s.seconds:.3f} s" for s in op.searches)
              + "".join(f", export {e.seconds:.3f} s" for e in op.exports), file=out)
    report_design(out, bench, best, "best design per layer")
    return metrics


def per_layer(out, bench, traced_ops, overhead):
    tracer = bench.tracer
    stats = tracer.function_stats()
    counts = tracer.counts
    searches = [s for op in traced_ops for s in op.searches]
    exports = [e for op in traced_ops for e in op.exports]
    ev = merged(stats, "optimizer.evaluate")
    m = {
        "optimizer.evaluate.calls": ev["calls"],
        "optimizer.evaluate.total_s": ev["total_s"],
        "optimizer.evaluate.self_s": ev["self_s"],
        "optimizer.evaluate.ms_p50": percentile_ms(ev["durations"], 50),
        "optimizer.evaluate.ms_p99": percentile_ms(ev["durations"], 99),
        "optimizer.fold_climb.evaluations":
            tracer.parent_names("optimizer.evaluate")["optimizer.fold_climb"],
        "optimizer.feasible_ratio": counts["feasible"] / max(counts["evaluations"], 1),
        "scheduler.invocations": counts["invocations"],
        "scheduler.distinct_configs": counts["distinct_configs"],
        "scheduler.invocations_per_config":
            counts["invocations"] / max(counts["distinct_configs"], 1),
        "scheduler.infeasible": counts["infeasible"],
        "perf_model.cache_hits": sum(s.cache_hits for s in searches),
        "perf_model.cache_misses": sum(s.cache_misses for s in searches),
        "export.schedule_build_s": merged(stats, "scheduler.build_schedule", "cli")["total_s"],
        "export.encode_write_s": merged(stats, "cli.schedule")["self_s"],
        "export.read_decode_s": merged(stats, "cli.report")["self_s"],
        "export.build_report_s": merged(stats, "reporting.build_report")["total_s"],
        "export.schedule_bytes": sum(e.schedule_bytes for e in exports),
        "trace.overhead_frac": overhead,
        "trace.spans": len(tracer.spans),
    }
    lookups = m["perf_model.cache_hits"] + m["perf_model.cache_misses"]
    m["perf_model.cache_hit_ratio"] = m["perf_model.cache_hits"] / max(lookups, 1)
    for name, unit, _ in PER_LAYER:
        if name in m:
            continue
        if name.endswith(".self_s") and name.count(".") == 1:
            m[name] = module_self(stats, name.split(".")[0])
        elif name.endswith((".calls", ".total_s")):
            func, _, field_ = name.rpartition(".")
            m[name] = merged(stats, func)[field_]
    ok = [s for s in searches if s.latency_cycles is not None and s.kind != "padded"]
    best = min(ok, key=lambda s: s.latency_cycles)
    shares = report_design(out, bench, best, "best traced design per layer")
    for b in ("compute", "memory_in", "memory_out"):
        m[f"model.{b}_share"] = shares[b]

    print("per-function spans (host time; site = module whose name the caller used):",
          file=out)
    print(f"  {'function':<42} {'site':<15} {'calls':>7} {'total_s':>10} {'self_s':>10}",
          file=out)
    for (name, site), row in sorted(stats.items()):
        print(f"  {name:<42} {site:<15} {row['calls']:>7} {row['total_s']:>10.4f} "
              f"{row['self_s']:>10.4f}", file=out)
    print(f"  evaluate samples: {ev['calls']} (p99 has {ev['calls'] // 100} samples beyond it)",
          file=out)
    print("per-layer metrics (host time unless unit is share):", file=out)
    for name, unit, _ in PER_LAYER:
        emit(out, name, m[name], unit)
    return m


def run(workload_name, seed, seconds, trace, panel=0, panel_size=None, out=None):
    """One benchmark run; prints the report and returns the final JSON object."""
    out = out or sys.stdout
    workload = WORKLOADS[workload_name]
    if panel_size is not None:
        workload = replace(workload, panel=panel_size)
    h = load_harflow()
    work = WORK / f"{workload_name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    if trace:
        install_trace_points(h, tracer)
    bench, speed = None, HostSpeed()
    try:
        if not trace:  # spans would count the samples as harflow time
            setup = measure_setup(workload.model)
            speed.start()
        tracer.active = bool(trace)  # trace the in-process setup too
        bench = Bench(h, workload, work, tracer)
        tracer.active = False
        bench.warm_up()
        t0 = perf_counter()
        if trace:
            ops, pairs = measure_traced(bench, panel, seed, seconds)
        else:
            ops = measure(bench, panel, seed, seconds)
        speed.stop()
        measured = perf_counter() - t0
        print(f"workload {workload_name} seed {seed}: {len(ops)} operations in {measured:.1f} s "
              f"(closed loop, one caller); input seeds "
              f"{', '.join(str(op.seed) for op in ops)}", file=out)
        t_checks = perf_counter()
        run_checks(ops, work, 170.0 - measured)
        print(f"checks took {perf_counter() - t_checks:.1f} s", file=out)
        if not any(s.latency_cycles is not None for op in ops for s in op.searches):
            raise SystemExit("no search succeeded; no metrics to report")
        if trace:
            overhead = sum(b.wall for _, b in pairs) / sum(a.wall for a, _ in pairs) - 1
            metrics = per_layer(out, bench, [b for _, b in pairs], overhead)
            units = {name: unit for name, unit, _ in PER_LAYER}
            print(f"tracing overhead: traced runs took {overhead:+.1%} wall time vs untraced "
                  f"runs of the same {len(pairs)} inputs", file=out)
            rates = [[s.moves / s.seconds for s in op.searches if s.moves] for op in ops]
            plain_rates = [r for (a, _) in pairs for r in rates[a.index]]
            if plain_rates:
                traced_rates = [r for (_, b) in pairs for r in rates[b.index]]
                print(f"  moves_per_s untraced {statistics.median(plain_rates):.1f}, traced "
                      f"{statistics.median(traced_rates):.1f} (median over {len(plain_rates)} "
                      "chains each)", file=out)
            spans_path = WORK / f"spans-{workload_name}-seed{seed}.jsonl"
            tracer.write(spans_path)
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}", file=out)
        else:
            metrics = end_to_end(out, bench, ops, setup, speed)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        speed.stop()
        tracer.active = False
        if bench is not None:
            bench.close()
        tracer.restore()
    failures = [f for op in ops for x in op.searches + op.exports for f in x.failures]
    for f in failures:
        print(f"FAILED: {f}", file=out)
    attempted, failed = tally(ops)
    # a search that finds no feasible warm start fails the operation, but its
    # output (a typed OptimizerError) is correct; every other failure is not
    wrong = [f for f in failures if "no feasible warm-start state found" not in f]
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    shutil.rmtree(work, ignore_errors=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--panel", type=int, default=0,
                        help="input panel; 0 is the benchmark's, 1 the held-out one")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.panel)
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
