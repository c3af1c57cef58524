import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from harflow.device import load_bundled_profile
from harflow.generators import bundled_model_names, bundled_model_text
from harflow.hardware_graph import fuse_activations, initial_mapping
from harflow.model_ir import ModelError, TensorShape, parse_model
from harflow.optimizer import AnnealingParams, _sample_capabilities, random_transformation
from harflow.perf_model import (
    RuntimeConfig,
    compute_latency,
    invocation_latency,
    lane_cycles,
    memory_cycles,
    roofline,
    schedule_latency,
)
from harflow.scheduler import (
    MODE_PADDED,
    MODE_RUNTIME,
    InfeasibleScheduleError,
    Schedule,
    ScheduleEntry,
    _compute_cycles_oracle,
    _memory,
    build_schedule,
    check_schedule_doc,
    schedule_json,
)


def _conv(shape_out=(4, 4, 4, 16), c_in=8, f=16, kernel=(3, 3, 3), groups=1,
          coarse_in=2, coarse_out=4, fine=3, psum=False):
    od, oh, ow, oc = shape_out
    return RuntimeConfig(
        kind="Conv3D",
        shape_in=TensorShape(od, oh, ow, c_in),
        shape_out=TensorShape(od, oh, ow, oc),
        filters=f,
        kernel=kernel,
        groups=groups,
        coarse_in=coarse_in,
        coarse_out=coarse_out,
        fine=fine,
        accumulate_psum=psum,
    )


def test_conv_latency_fixture():
    # out 4x4x4, C_in=8, F=16, |K|=27, folds (2,4,3): 64*8*16*27/24
    assert compute_latency(_conv()) == 9216


def test_fc_latency_fixture():
    cfg = RuntimeConfig(
        kind="FullyConnected",
        shape_in=TensorShape(1, 1, 1, 16),
        shape_out=TensorShape(1, 1, 1, 10),
        filters=10,
        coarse_in=4,
        coarse_out=2,
    )
    assert compute_latency(cfg) == 20


def test_pool_latency_fixture():
    cfg = RuntimeConfig(
        kind="Pool3D",
        shape_in=TensorShape(8, 8, 8, 1),
        shape_out=TensorShape(4, 4, 4, 1),
        kernel=(2, 2, 2),
        stride=(2, 2, 2),
        op_type="max",
        coarse_in=4,
        coarse_out=4,
    )
    assert compute_latency(cfg) == 128
    identity = RuntimeConfig(
        kind="Pool3D",
        shape_in=TensorShape(8, 8, 8, 1),
        shape_out=TensorShape(4, 4, 4, 1),
        kernel=(2, 2, 2),
        stride=(2, 2, 2),
        op_type="max",
    )
    assert compute_latency(identity) == 512


def _toy_schedule_doc():
    """(schedule.json document, schedule) of the toy initial mapping."""
    model = parse_model(bundled_model_text("toy"))
    schedule = build_schedule(model, initial_mapping(model), MODE_RUNTIME)
    return json.loads(schedule_json({}, schedule)), schedule


def _config_rejected(kind, **fields):
    """Set `fields` on the toy schedule document's `kind` config: the schedule
    check finds it no config the design runs, so it never reaches the model."""
    doc, schedule = _toy_schedule_doc()
    i = next(i for i, c in enumerate(doc["configs"]) if c["kind"] == kind)
    doc["configs"][i].update(fields)
    with pytest.raises(ValueError, match=f"^config {i} is no config the design runs$"):
        check_schedule_doc(doc, schedule)


def test_zero_fold_rejected():
    _config_rejected("Conv3D", coarse_in=0)


def test_non_string_type_rejected():
    _config_rejected("Pool3D", type=3)


@pytest.mark.parametrize("field, value", [
    ("kernel", [0, 1, 1]),
    ("stride", [1, True, 1]),
    ("padding", [-1, 0, 0, 0, 0, 0]),
    ("groups", 0),
    ("filters", -1),
    ("type", 3),
    ("broadcast", "false"),
])
def test_a_bad_operator_field_fails_the_layer_reader_and_the_schedule_check(field, value):
    """A bad operator field is rejected, by name, in a model's layer; in a
    schedule's config it makes the config no config the design runs."""
    model = json.loads(bundled_model_text("toy"))
    model["layers"][0][field] = value
    with pytest.raises(ModelError, match=f"layer 'conv': '{field}' must be"):
        parse_model(json.dumps(model))
    _config_rejected("Conv3D", **{field: value})


def test_config_hashes_as_its_value_however_built():
    """The hash is kept per object, so a config hashes as its value whether it
    was built by the scheduler, from its fields or by `replace`."""
    model = parse_model(bundled_model_text("multishape"))
    graph = _sample_capabilities(initial_mapping(model), model, random.Random(3))
    for mode in (MODE_RUNTIME, MODE_PADDED):
        for _, _, cfg, _ in build_schedule(model, graph, mode).groups:
            hash(cfg)
            fields = {k: getattr(cfg, k) for k in cfg.__dataclass_fields__}
            for other in (RuntimeConfig(**fields), replace(cfg)):
                assert other == cfg and hash(other) == hash(cfg)
            changed = replace(cfg, accumulate_psum=not cfg.accumulate_psum)
            hash(changed)
            rebuilt = RuntimeConfig(**{k: getattr(changed, k) for k in cfg.__dataclass_fields__})
            assert changed == rebuilt and hash(changed) == hash(rebuilt) != hash(cfg)


def test_pool_roofline_integer_fixture():
    # 512 input words at 4 words/cycle take exactly the 128 compute cycles, and
    # compute wins the tie; at 3 words/cycle they take ceil(512 / 3) = 171.
    # Psum words are not timed (ROADMAP item 1), so no psum case is kept.
    cfg = RuntimeConfig(
        kind="Pool3D",
        shape_in=TensorShape(8, 8, 8, 1),
        shape_out=TensorShape(4, 4, 4, 1),
        kernel=(2, 2, 2),
        stride=(2, 2, 2),
        op_type="max",
        coarse_in=4,
        coarse_out=4,
    )
    brk = invocation_latency(cfg, 4, 4)
    assert (brk.total_cycles, brk.bound) == (128, "compute")
    brk = invocation_latency(cfg, 3, 3)
    assert (brk.total_cycles, brk.bound) == (171, "memory_in")


def test_roofline_fixture_compute_and_memory_bound():
    cfg = RuntimeConfig(
        kind="Pool3D",
        shape_in=TensorShape(8, 8, 8, 1),
        shape_out=TensorShape(4, 4, 4, 1),
        kernel=(2, 2, 2),
        stride=(2, 2, 2),
        op_type="max",
        coarse_in=4,
        coarse_out=4,
    )
    brk = invocation_latency(cfg, Fraction(8), Fraction(8))
    assert brk.total_cycles == 128 and brk.bound == "compute"
    brk2 = invocation_latency(cfg, Fraction(2), Fraction(8))
    assert brk2.total_cycles == 256 and brk2.bound == "memory_in"


def test_unlimited_bandwidth_equals_compute_latency():
    rng = random.Random(2)
    for _ in range(200):
        cfg = _conv(
            shape_out=(rng.randint(1, 4),) * 3 + (8,),
            coarse_in=rng.choice([1, 2, 4, 8]),
            coarse_out=rng.choice([1, 2, 4, 8, 16]),
            fine=rng.choice([1, 3, 9, 27]),
            psum=rng.random() < 0.5,
        )
        brk = invocation_latency(cfg)
        assert brk.total_cycles == compute_latency(cfg)
        assert brk.bound == "compute"


def test_fold_monotonicity():
    base = compute_latency(_conv(coarse_in=1, coarse_out=1, fine=1))
    for c_in in (1, 2, 4, 8):
        for c_out in (1, 2, 4, 8, 16):
            for f in (1, 3, 9, 27):
                lat = compute_latency(_conv(coarse_in=c_in, coarse_out=c_out, fine=f))
                assert lat <= base


def test_roofline_dominance_and_bandwidth_monotonicity():
    rng = random.Random(3)
    for _ in range(300):
        cfg = _conv(
            shape_out=(rng.randint(1, 4),) * 3 + (16,),
            coarse_in=rng.choice([1, 2, 4, 8]),
            coarse_out=rng.choice([1, 2, 4, 8]),
            fine=rng.choice([1, 3, 9]),
            psum=rng.random() < 0.5,
        )
        bw = Fraction(rng.randint(1, 16))
        lat = invocation_latency(cfg, bw, bw).total_cycles
        assert lat >= compute_latency(cfg)
        assert invocation_latency(cfg, 2 * bw, 2 * bw).total_cycles <= lat


def test_work_conservation_exact_when_folds_divide():
    rng = random.Random(4)
    for _ in range(500):
        c_in = rng.choice([1, 2, 4, 8])
        f = rng.choice([1, 2, 4, 8, 16])
        fine = rng.choice([1, 3, 9, 27])
        cfg = _conv(shape_out=(2, 3, 4, f), c_in=8, f=f if f else 1,
                    coarse_in=c_in, coarse_out=rng.choice([d for d in (1, 2, 4) if f % d == 0]),
                    fine=fine)
        macs = 2 * 3 * 4 * cfg.shape_in.c * cfg.filters * 27
        dsp = cfg.coarse_in * cfg.coarse_out * cfg.fine
        assert compute_latency(cfg) * dsp == macs


def test_schedule_latency_additivity():
    cfg = _conv()
    entry = ScheduleEntry(
        node_id="n", layer_id="l", tile_index=(0, 0, 0, 0, 0),
        tile_origin=(0, 0, 0, 0), tile_shape=(4, 4, 4, 8),
        filter_origin=0, filter_count=16, config=cfg,
    )
    assert schedule_latency(Schedule()) == 0
    assert schedule_latency(Schedule([entry, entry])) == 2 * schedule_latency(Schedule([entry]))


def test_schedule_latency_rescores_at_another_bandwidth():
    """A schedule keeps its cycles with the bandwidths they were scored at, so
    scoring it for a second device scores it afresh."""
    model = parse_model(bundled_model_text("toy"))
    dev = load_bundled_profile("zcu102")
    slow = replace(dev, bw_in_words_per_cycle=Fraction(1, 2))
    graph = initial_mapping(model)
    schedule = build_schedule(model, graph, MODE_RUNTIME)
    fast = schedule_latency(schedule, dev)
    assert schedule_latency(schedule, slow) == (
        schedule_latency(build_schedule(model, graph, MODE_RUNTIME), slow))
    assert schedule_latency(schedule, slow) != fast
    assert schedule_latency(schedule, dev) == fast


def test_analytical_matches_enumeration_oracle_spot():
    cfg = _conv()
    assert compute_latency(cfg) == _compute_cycles_oracle(cfg)


def _fraction_roofline(cfg, bw_in, bw_out):
    """(total_cycles, bound) of the stream-rate roofline in exact rationals.

    Each DMA runs at the lower of its cap and the invocation's demand, where
    the inbound demand also counts weight and psum words; the integer form in
    `invocation_latency` must agree with it wherever there is compute.
    """
    cycles = compute_latency(cfg)
    if cycles == 0:
        return 0, "compute"
    words_in, words_out = cfg.shape_in.numel, cfg.shape_out.numel
    demand_in = Fraction(words_in, cycles)
    if cfg.kind in ("Conv3D", "FullyConnected"):
        weights = cfg.shape_in.c * cfg.filters * cfg.kernel_volume // cfg.groups
        psum = words_out if cfg.accumulate_psum else 0
        demand_in += Fraction(weights + psum, cycles)
    demand_out = Fraction(words_out, cycles)
    b_in = demand_in if bw_in is None else min(Fraction(bw_in), demand_in)
    b_out = demand_out if bw_out is None else min(Fraction(bw_out), demand_out)
    term_in = words_in / b_in if b_in > 0 else Fraction(0)
    term_out = words_out / b_out if b_out > 0 else Fraction(0)
    bound = "compute"
    if term_in >= term_out and b_in < demand_in and term_in > cycles:
        bound = "memory_in"
    elif term_out > term_in and b_out < demand_out and term_out > cycles:
        bound = "memory_out"
    return math.ceil(max(term_in, term_out, Fraction(cycles))), bound


def _search_configs():
    """Distinct configs of the bundled models' warm-start samples and random
    moves, in both modes, plus one tile that yields no output."""
    params = AnnealingParams(tau_start=1.0, tau_min=0.05, cooling=0.9)
    rng = random.Random(11)
    configs = {_conv(shape_out=(0, 4, 4, 16))}
    for name in bundled_model_names():
        model = parse_model(bundled_model_text(name))
        for mode in (MODE_RUNTIME, MODE_PADDED):
            for _ in range(3):
                graph = fuse_activations(initial_mapping(model), model)
                graph = _sample_capabilities(graph, model, rng)
                for _ in range(8):
                    try:
                        configs.update(cfg for *_, cfg, _ in
                                       build_schedule(model, graph, mode).groups)
                    except InfeasibleScheduleError:
                        pass
                    graph = random_transformation(model, graph, rng, params)
    return sorted(configs, key=repr)


def test_integer_roofline_equals_fraction_reference():
    values = [None, 1, 2, 8, Fraction(15, 2), Fraction(1, 3), 64]
    configs = _search_configs()
    assert any(compute_latency(cfg) == 0 for cfg in configs)
    seen = set()
    for cfg in configs:
        words_in, words_out = cfg.shape_in.numel, cfg.shape_out.numel
        for bw_in, bw_out in itertools.product(values, values):
            brk = invocation_latency(cfg, bw_in, bw_out)
            expected = _fraction_roofline(cfg, bw_in, bw_out)
            assert (brk.total_cycles, brk.bound) == expected, (cfg, bw_in, bw_out)
            assert brk.compute_cycles == compute_latency(cfg)
            if bw_in is not None and bw_out is not None and brk.bound != "compute":
                t_in, t_out = Fraction(words_in) / bw_in, Fraction(words_out) / bw_out
                seen.add("memory tie" if t_in == t_out else brk.bound)
            if bw_in is not None and Fraction(words_in) / bw_in == brk.compute_cycles > 0:
                seen.add("compute tie")
    # the sample decides every rule: both memory bounds, and both kinds of tie
    assert seen == {"memory_in", "memory_out", "memory tie", "compute tie"}


def test_lane_cycles_are_the_roofline_totals():
    """Per invocation, max(⌈work / lanes⌉, memory cycles) is `roofline`'s total,
    for random work, lanes and words at int, Fraction and unlimited
    bandwidths; a term without work takes 0 cycles. So a plan scored by
    `lane_cycles` from its fold-free terms, with the memory cycles of
    `scheduler._memory`, scores as the sum of its invocations' rooflines."""
    rng = random.Random(23)
    values = [None, 1, 3, 8, Fraction(1, 2), Fraction(1, 3), Fraction(15, 2), Fraction(7, 5)]
    seen = set()
    for _ in range(3000):
        bw = (rng.choice(values), rng.choice(values))
        widths = rng.randint(1, 3)
        lanes = tuple(rng.randint(1, 64) for _ in range(widths))
        terms = [(rng.choice([0, rng.randint(1, 50), rng.randint(1, 5000)]),
                  rng.randint(0, 4000), rng.randint(0, 4000), rng.randrange(widths),
                  rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
        for work, words_in, words_out, k, _ in terms:
            _, bound, total = roofline(work, lanes[k], words_in, words_out, *bw)
            if work:
                assert max(-(-work // lanes[k]), memory_cycles(words_in, words_out, *bw)) == total
                seen.add(bound)
            else:
                assert total == 0 and _memory([(work, words_in, words_out, k, 1)], bw) == [0]
                seen.add("no work")
        assert lane_cycles(terms, lanes, _memory(terms, bw)) == sum(
            roofline(work, lanes[k], words_in, words_out, *bw)[2] * n
            for work, words_in, words_out, k, n in terms)
    assert seen == {"compute", "memory_in", "memory_out", "no work"}
