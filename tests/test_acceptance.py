"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
capture) so a full run yields a per-criterion scoreboard. Criterion 8 is a
soft calibration band: an out-of-band result prints a documented note about
the bandwidth assumption instead of failing.
"""

import json
import random

import pytest

from harflow.device import load_bundled_profile
from harflow.generators import bundled_model_text
from harflow.hardware_graph import NodeCapability, initial_mapping
from harflow.model_ir import LayerDescriptor, TensorShape, infer_output_shape, parse_model
from harflow.optimizer import AnnealingParams, anneal, check_constraints, pareto_sweep
from harflow.perf_model import RuntimeConfig, compute_latency, schedule_latency
from harflow.reporting import derive_metrics
from harflow.resource_model import (
    bram_blocks,
    node_dsp,
    sliding_window_bram,
    weights_bram,
)
from harflow.scheduler import (
    MODE_RUNTIME,
    Schedule,
    ScheduleEntry,
    _compute_cycles_oracle,
    build_schedule,
    coverage_oracle,
    schedule_latency_oracle,
)


def _verdict(capsys, number, label, passed, detail=""):
    with capsys.disabled():
        state = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"ACCEPTANCE {number} [{label}]: {state}{suffix}")
    return passed


@pytest.fixture(scope="module")
def c3d():
    return parse_model(bundled_model_text("c3d"))


@pytest.fixture(scope="module")
def zcu102():
    return load_bundled_profile("zcu102")


@pytest.fixture(scope="module")
def c3d_anneal(c3d, zcu102):
    """Single full-schedule optimisation shared by criteria 6 and 8."""
    return anneal(c3d, zcu102, AnnealingParams(seed=0))


def _close(a, b, rel=0.005):
    return abs(a - b) <= rel * abs(b)


def test_criterion_1_derived_metrics(capsys):
    m = derive_metrics(38.61, 98.15, 2520, 200_000_000)
    ok = (
        _close(m["gops_per_s"], 393.37)
        and _close(m["gops_per_s_per_dsp"], 0.156)
        and _close(m["op_per_dsp_per_cycle"], 0.781)
    )
    m2 = derive_metrics(38.61, 91.03, 3600, 150_000_000)
    ok = ok and _close(m2["gops_per_s"], 424.14) and _close(m2["op_per_dsp_per_cycle"], 0.785)
    assert _verdict(
        capsys, 1, "derived metrics",
        ok, f"{m['gops_per_s']:.2f} GOps/s, {m2['gops_per_s']:.2f} GOps/s",
    )


def test_criterion_2_formula_fixtures_and_work_conservation(capsys):
    ok = bram_blocks(512, 2) == 1 and bram_blocks(1024, 3) == 4

    slw = NodeCapability(
        kind="Conv3D",
        shape_in_max=TensorShape(4, 8, 4, 8),
        shape_out_max=TensorShape(4, 8, 4, 16),
        filters_max=16,
        kernel_max=(3, 3, 3),
        coarse_in=2,
        coarse_out=4,
        fine=3,
    )
    ok = ok and sliding_window_bram(slw) == 24 and node_dsp(slw) == 24

    fc = NodeCapability(
        kind="FullyConnected",
        shape_in_max=TensorShape(1, 1, 1, 16),
        shape_out_max=TensorShape(1, 1, 1, 10),
        filters_max=10,
        coarse_in=4,
        coarse_out=2,
    )
    ok = ok and weights_bram(fc) == 4 and node_dsp(fc) == 8

    conv_w = NodeCapability(
        kind="Conv3D",
        shape_in_max=TensorShape(4, 8, 8, 64),
        shape_out_max=TensorShape(4, 8, 8, 64),
        filters_max=64,
        kernel_max=(3, 3, 3),
        coarse_in=4,
        coarse_out=4,
        fine=3,
    )
    ok = ok and weights_bram(conv_w) == 110

    # work conservation: parallelism x time = MACs, exact, for 1000 random
    # capabilities executed at their own maximum (folds divide all dims)
    rng = random.Random(20)
    conserved = 0
    for _ in range(1000):
        c = rng.choice([2, 4, 6, 8, 12, 16, 24, 32])
        f = rng.choice([2, 4, 8, 16, 32, 64])
        kd, kh, kw = (rng.choice([1, 3]) for _ in range(3))
        kvol = kd * kh * kw
        cfg = RuntimeConfig(
            kind="Conv3D",
            shape_in=TensorShape(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6), c),
            shape_out=TensorShape(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6), f),
            filters=f,
            kernel=(kd, kh, kw),
            coarse_in=rng.choice([d for d in (1, 2, 4, 8) if c % d == 0]),
            coarse_out=rng.choice([d for d in (1, 2, 4, 8) if f % d == 0]),
            fine=rng.choice([d for d in (1, 3, 9, 27) if kvol % d == 0]),
        )
        out = cfg.shape_out
        macs = out.d * out.h * out.w * c * f * kvol
        dsp = cfg.coarse_in * cfg.coarse_out * cfg.fine
        conserved += compute_latency(cfg) * dsp == macs
    ok = ok and conserved == 1000
    assert _verdict(capsys, 2, "formula fixtures", ok, f"{conserved}/1000 conserved")


def _random_config(rng):
    kind = rng.choice(["Conv3D", "FullyConnected", "Pool3D", "Activation",
                       "GlobalAvgPool", "ElementWise"])
    dims = [rng.randint(1, 8) for _ in range(3)]
    c = rng.choice([1, 2, 4, 6, 8])
    if kind == "Conv3D":
        f = rng.choice([1, 2, 4, 8])
        kd, kh, kw = (rng.choice([1, 2, 3]) for _ in range(3))
        kvol = kd * kh * kw
        return RuntimeConfig(
            kind=kind,
            shape_in=TensorShape(*dims, c),
            shape_out=TensorShape(rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8), f),
            filters=f,
            kernel=(kd, kh, kw),
            coarse_in=rng.choice([d for d in (1, 2, 4, 8) if c % d == 0]),
            coarse_out=rng.choice([d for d in (1, 2, 4, 8) if f % d == 0]),
            fine=rng.choice([d for d in range(1, kvol + 1) if kvol % d == 0]),
            accumulate_psum=rng.random() < 0.3,
        )
    if kind == "FullyConnected":
        f = rng.choice([1, 2, 4, 8])
        return RuntimeConfig(
            kind=kind,
            shape_in=TensorShape(1, 1, 1, c),
            shape_out=TensorShape(1, 1, 1, f),
            filters=f,
            coarse_in=rng.choice([d for d in (1, 2, 4, 8) if c % d == 0]),
            coarse_out=rng.choice([d for d in (1, 2, 4, 8) if f % d == 0]),
        )
    fold = rng.choice([d for d in (1, 2, 4, 8) if c % d == 0])
    shape = TensorShape(*dims, c)
    out = TensorShape(1, 1, 1, c) if kind == "GlobalAvgPool" else shape
    return RuntimeConfig(
        kind=kind, shape_in=shape, shape_out=out,
        op_type={"Pool3D": "max", "Activation": "relu", "ElementWise": "add"}.get(kind, ""),
        coarse_in=fold, coarse_out=fold,
    )


def test_criterion_3_oracle_equivalence(capsys):
    rng = random.Random(21)
    matched = 0
    total = 1200
    for _ in range(total):
        cfg = _random_config(rng)
        matched += compute_latency(cfg) == _compute_cycles_oracle(cfg)
    # and the schedule-level sum with unlimited bandwidth
    for _ in range(50):
        entries = []
        for i in range(rng.randint(1, 6)):
            cfg = _random_config(rng)
            entries.append(ScheduleEntry(
                node_id="n", layer_id=f"l{i}", tile_index=(0, 0, 0, 0, 0),
                tile_origin=(0, 0, 0, 0), tile_shape=tuple(cfg.shape_in.to_list()),
                filter_origin=0, filter_count=cfg.filters, config=cfg,
            ))
        sched = Schedule(entries)
        matched += schedule_latency(sched) == schedule_latency_oracle(sched)
    ok = matched == total + 50
    assert _verdict(capsys, 3, "oracle equivalence", ok, f"{matched}/{total + 50} exact")


class _Builder:
    def __init__(self, name, input_shape):
        self.name = name
        self.layers = []
        self.edges = []
        self.shapes = {}  # id -> TensorShape
        self._input = TensorShape(*input_shape)
        self._last = None

    def add(self, lid, kind, after=None, inputs=None, **params):
        if inputs is None:
            src = after if after is not None else self._last
            producers = [src] if src else []
        else:
            producers = list(inputs)
        if producers:
            shape_in = tuple(self.shapes[p] for p in producers)
        else:
            shape_in = (self._input,)
        probe = LayerDescriptor(
            id=lid, kind=kind, shape_in=shape_in, shape_out=TensorShape(1, 1, 1, 1), **params
        )
        shape_out = infer_output_shape(probe)
        entry = {
            "id": lid,
            "kind": kind,
            "shape_in": [s.to_list() for s in shape_in] if kind == "ElementWise" else shape_in[0].to_list(),
            "shape_out": shape_out.to_list(),
        }
        if kind in ("Conv3D", "FullyConnected"):
            entry["filters"] = params["filters"]
        if kind in ("Conv3D", "Pool3D"):
            entry["kernel"] = list(params.get("kernel", (1, 1, 1)))
            entry["stride"] = list(params.get("stride", (1, 1, 1)))
            entry["padding"] = list(params.get("padding", (0, 0, 0, 0, 0, 0)))
        if kind == "Conv3D":
            entry["groups"] = params.get("groups", 1)
        if params.get("op_type"):
            entry["type"] = params["op_type"]
        if kind == "ElementWise":
            entry["broadcast"] = params.get("broadcast", False)
        self.layers.append(entry)
        self.edges.extend([p, lid] for p in producers)
        self.shapes[lid] = shape_out
        self._last = lid
        return lid

    def document(self):
        return {"name": self.name, "layers": self.layers, "edges": self.edges}


def _random_chain_model(rng):
    d = rng.choice([2, 4, 6])
    hw = rng.choice([4, 6, 8])
    c = rng.choice([1, 2, 3, 4])
    b = _Builder(name="rand", input_shape=(d, hw, hw, c))
    n = rng.randint(2, 5)
    for i in range(n):
        kind = rng.choice(["Conv3D", "Pool3D", "Activation"])
        shape = b.shapes[b._last] if b._last else b._input
        if kind == "Conv3D" and min(shape.d, shape.h, shape.w) >= 2:
            k = rng.choice([1, 2])
            b.add(f"conv{i}", "Conv3D", filters=rng.choice([2, 4, 6]),
                  kernel=(k, k, k), padding=(0, k - 1, 0, k - 1, 0, k - 1))
        elif kind == "Pool3D" and min(shape.d, shape.h, shape.w) >= 2:
            b.add(f"pool{i}", "Pool3D", op_type="max", kernel=(2, 2, 2), stride=(2, 2, 2))
        else:
            b.add(f"act{i}", "Activation", op_type=rng.choice(["relu", "sigmoid"]))
    b.add("gap", "GlobalAvgPool")
    b.add("fc", "FullyConnected", filters=rng.choice([3, 5, 8]))
    return parse_model(json.dumps(b.document()))


def _randomly_shrunk(graph, model, rng):
    nodes = dict(graph.nodes)
    for nid, cap in graph.nodes.items():
        s = cap.shape_in_max
        kd, kh, kw = cap.kernel_max
        new = TensorShape(
            rng.randint(min(kd, s.d), s.d),
            rng.randint(min(kh, s.h), s.h),
            rng.randint(min(kw, s.w), s.w),
            rng.randint(1, s.c),
        )
        nodes[nid] = NodeCapability(
            kind=cap.kind,
            shape_in_max=new,
            shape_out_max=cap.shape_out_max,
            filters_max=cap.filters_max and rng.randint(1, cap.filters_max),
            kernel_max=cap.kernel_max,
            supports_types=cap.supports_types,
        )
    return type(graph)(nodes=nodes, mapping=dict(graph.mapping), fused=dict(graph.fused))


def test_criterion_4_exact_cover(capsys):
    rng = random.Random(22)
    passed = 0
    for _ in range(200):
        model = _random_chain_model(rng)
        graph = _randomly_shrunk(initial_mapping(model), model, rng)
        schedule = build_schedule(model, graph, MODE_RUNTIME)
        passed += coverage_oracle(schedule, model).passed
    assert _verdict(capsys, 4, "exact cover", passed == 200, f"{passed}/200 schedules")


ABLATION_PARAMS = dict(tau_start=1.0, tau_min=0.01, cooling=0.93, warm_start_samples=16)


def _best_of_seeds(model, dev, seeds, **overrides):
    best = None
    for seed in seeds:
        params = AnnealingParams(seed=seed, **ABLATION_PARAMS, **overrides)
        state, _ = anneal(model, dev, params)
        if best is None or state.latency_cycles < best:
            best = state.latency_cycles
    return best


def test_criterion_5_ablation_direction(capsys, zcu102):
    model = parse_model(bundled_model_text("multishape"))
    seeds = (0, 1, 2)
    runtime = _best_of_seeds(model, zcu102, seeds)
    padded = _best_of_seeds(model, zcu102, seeds, enable_runtime_reconfig=False)
    no_fusion = _best_of_seeds(model, zcu102, seeds, enable_fusion=False)
    no_combine = _best_of_seeds(model, zcu102, seeds, enable_combine_separate=False)
    speedup = padded / runtime
    ok = speedup >= 2.0 and runtime <= no_fusion and runtime <= no_combine
    assert _verdict(
        capsys, 5, "ablation direction", ok,
        f"padded/runtime {speedup:.2f}x, fusion {runtime}<={no_fusion}, "
        f"combine {runtime}<={no_combine}",
    )


def test_criterion_6_sa_sanity(capsys, c3d, zcu102, c3d_anneal):
    best, trace = c3d_anneal
    non_increasing = all(
        trace[i].best_cycles >= trace[i + 1].best_cycles for i in range(len(trace) - 1)
    )
    halved = trace[-1].best_cycles <= 0.5 * trace[0].best_cycles
    feasible = best.feasible and not check_constraints(best, zcu102)
    util = 100.0 * best.resources.dsp / zcu102.dsp_total
    ok = non_increasing and halved and feasible and util >= 85.0
    assert _verdict(
        capsys, 6, "SA sanity", ok,
        f"final/start {trace[-1].best_cycles / trace[0].best_cycles:.3f}, "
        f"dsp {util:.1f}%",
    )


def test_criterion_7_pareto_validity(capsys, c3d, zcu102):
    params = AnnealingParams(seed=0, tau_start=1.0, tau_min=0.01, cooling=0.95,
                             warm_start_samples=16)
    budgets = [400, 800, 1200, 1800, 2520]
    points = pareto_sweep(c3d, zcu102, params, budgets)
    lats = [p.latency_cycles for p in points]
    dsps = [p.dsp for p in points]
    non_dominated = all(
        not (q.dsp <= p.dsp and q.latency_cycles <= p.latency_cycles
             and (q.dsp < p.dsp or q.latency_cycles < p.latency_cycles))
        for p in points for q in points
    )
    ok = (
        len(points) >= 1
        and dsps == sorted(dsps)
        and all(a > b for a, b in zip(lats, lats[1:]))  # strictly falling: each point once
        and non_dominated
    )
    assert _verdict(capsys, 7, "pareto validity", ok, f"{len(points)} points")


def test_criterion_8_calibration_band(capsys, zcu102, c3d_anneal):
    best, _ = c3d_anneal
    latency_ms = best.latency_cycles * 1e3 / zcu102.clock_hz
    reference = 98.15
    in_band = 0.5 * reference <= latency_ms <= 2.0 * reference
    _verdict(capsys, 8, "calibration band (soft)", in_band, f"{latency_ms:.2f} ms")
    if not in_band:
        with capsys.disabled():
            print(
                "  note: absolute latency depends on the assumed DMA bandwidth "
                "(8 words/cycle/direction in the bundled zcu102 profile); the "
                "band miss reflects that assumption, not a model defect."
            )
