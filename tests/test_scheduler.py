import random

import pytest

from harflow.device import load_bundled_profile
from harflow.generators import bundled_model_text
from harflow.hardware_graph import (
    NodeCapability,
    capability_for_layers,
    fuse_activations,
    initial_mapping,
)
from harflow.model_ir import TensorShape, parse_model
from harflow.optimizer import evaluate
from harflow.perf_model import schedule_latency
from harflow.scheduler import (
    MODE_PADDED,
    MODE_RUNTIME,
    InfeasibleScheduleError,
    Schedule,
    ScheduleEntry,
    build_schedule,
    coverage_oracle,
    schedule_latency_oracle,
)


@pytest.fixture(scope="module")
def toy():
    return parse_model(bundled_model_text("toy"))


@pytest.fixture(scope="module")
def multishape():
    return parse_model(bundled_model_text("multishape"))


def _shrink_conv(graph, d=None, c=None, f=None):
    """Return a copy of the graph with the conv node's maxima reduced."""
    nid = next(n for n, cap in graph.nodes.items() if cap.kind == "Conv3D")
    cap = graph.nodes[nid]
    s = cap.shape_in_max
    new = NodeCapability(
        kind="Conv3D",
        shape_in_max=TensorShape(d or s.d, s.h, s.w, c or s.c),
        shape_out_max=cap.shape_out_max,
        filters_max=f or cap.filters_max,
        kernel_max=cap.kernel_max,
        supports_types=cap.supports_types,
    )
    nodes = dict(graph.nodes)
    nodes[nid] = new
    return type(graph)(nodes=nodes, mapping=dict(graph.mapping), fused=dict(graph.fused))


def test_full_size_node_yields_one_tile_per_layer(toy):
    graph = initial_mapping(toy)
    schedule = build_schedule(toy, graph, MODE_RUNTIME)
    per_layer = {}
    for e in schedule.entries:
        per_layer[e.layer_id] = per_layer.get(e.layer_id, 0) + 1
    assert per_layer == {"conv": 1, "relu": 1, "pool": 1, "fc": 1}
    assert coverage_oracle(schedule, toy).passed


def test_channel_tiling_sets_psum_on_non_final_tiles(toy):
    graph = _shrink_conv(initial_mapping(toy), c=2)  # conv C=3 -> tiles 2, 1
    schedule = build_schedule(toy, graph, MODE_RUNTIME)
    conv_entries = [e for e in schedule.entries if e.layer_id == "conv"]
    assert [e.tile_shape[3] for e in conv_entries] == [2, 1]
    assert [e.config.accumulate_psum for e in conv_entries] == [True, False]
    assert coverage_oracle(schedule, toy).passed


def test_min_rule_tile_sizes():
    # layer C=96 on node C_max=64: channel tiles of 64 then 32
    doc = bundled_model_text("toy")
    model = parse_model(doc)
    graph = initial_mapping(model)
    nid = next(n for n, cap in graph.nodes.items() if cap.kind == "Activation")
    cap = graph.nodes[nid]
    from harflow.scheduler import _axis_tiles

    assert _axis_tiles(96, 64) == [(0, 64), (64, 32)]
    assert _axis_tiles(64, 64) == [(0, 64)]
    assert _axis_tiles(12, 5) == [(0, 5), (5, 5), (10, 2)]


def test_runtime_folds_are_gcd_of_tile_and_node_folds(toy):
    graph = initial_mapping(toy)
    nid = next(n for n, cap in graph.nodes.items() if cap.kind == "Conv3D")
    graph.nodes[nid] = graph.nodes[nid].with_folds(coarse_in=3, coarse_out=8)
    graph2 = _shrink_conv(graph, c=2)
    graph2.nodes[nid] = graph2.nodes[nid].with_folds(coarse_in=2, coarse_out=8)
    schedule = build_schedule(toy, graph2, MODE_RUNTIME)
    conv_entries = [e for e in schedule.entries if e.layer_id == "conv"]
    # tile channels 2 then 1; runtime coarse_in = gcd(tile_c, node fold)
    assert [e.config.coarse_in for e in conv_entries] == [2, 1]
    assert all(e.config.coarse_out == 8 for e in conv_entries)


def test_border_tiles_keep_layer_padding(toy):
    graph = _shrink_conv(initial_mapping(toy), d=2)  # conv D=4 -> 2 tiles of 2
    schedule = build_schedule(toy, graph, MODE_RUNTIME)
    conv_entries = sorted(
        (e for e in schedule.entries if e.layer_id == "conv"),
        key=lambda e: e.tile_index,
    )
    pads = [e.config.padding for e in conv_entries]
    # D padding (slots 0, 1) applies only on the first/last depth tile
    assert pads[0][0] == 1 and pads[0][1] == 0
    assert pads[1][0] == 0 and pads[1][1] == 1
    # no halos: input cells are partitioned exactly once
    assert coverage_oracle(schedule, toy).passed


def test_tile_without_output_is_the_only_violation(toy):
    # conv D=4 -> depth tiles 3, 1; the last tile plus its end padding is
    # shallower than the 3-deep kernel, so it yields no output
    graph = _shrink_conv(initial_mapping(toy), d=3)
    state = evaluate(toy, graph, load_bundled_profile("zcu102"), MODE_RUNTIME)
    assert state.violations == ["layer conv on conv_0: tile yields no output"]
    assert not state.feasible


def test_padded_mode_runs_every_tile_at_node_maximum(multishape):
    graph = fuse_activations(initial_mapping(multishape), multishape)
    schedule = build_schedule(multishape, graph, MODE_PADDED)
    for e in schedule.entries:
        cap = graph.nodes[e.node_id]
        assert e.config.shape_in == cap.shape_in_max
        if cap.kind in ("Conv3D", "FullyConnected"):
            assert e.config.filters == cap.filters_max
    assert coverage_oracle(schedule, multishape, fused=graph.fused).passed


def test_padded_latency_dominates_runtime(multishape):
    dev = load_bundled_profile("zcu102")
    graph = fuse_activations(initial_mapping(multishape), multishape)
    fast = schedule_latency(build_schedule(multishape, graph, MODE_RUNTIME), dev)
    slow = schedule_latency(build_schedule(multishape, graph, MODE_PADDED), dev)
    assert slow >= fast


def test_fused_layers_are_not_scheduled(toy):
    graph = fuse_activations(initial_mapping(toy), toy)
    schedule = build_schedule(toy, graph, MODE_RUNTIME)
    assert not any(e.layer_id == "relu" for e in schedule.entries)
    assert coverage_oracle(schedule, toy, fused=graph.fused).passed


def test_schedule_determinism(multishape):
    graph = initial_mapping(multishape)
    a = build_schedule(multishape, graph, MODE_RUNTIME)
    b = build_schedule(multishape, graph, MODE_RUNTIME)
    assert [e.to_dict() for e in a.entries] == [e.to_dict() for e in b.entries]


def test_unmapped_layer_rejected(toy):
    graph = initial_mapping(toy)
    nid = next(n for n, cap in graph.nodes.items() if cap.kind == "Pool3D")
    mapping = {n: lids for n, lids in graph.mapping.items() if n != nid}
    bad = type(graph)(nodes=dict(graph.nodes), mapping=mapping, fused={})
    with pytest.raises(InfeasibleScheduleError, match="not mapped"):
        build_schedule(toy, bad, MODE_RUNTIME)


def test_kernel_larger_than_capability_rejected(toy):
    graph = initial_mapping(toy)
    nid = next(n for n, cap in graph.nodes.items() if cap.kind == "Conv3D")
    cap = graph.nodes[nid]
    graph.nodes[nid] = NodeCapability(
        kind="Conv3D",
        shape_in_max=cap.shape_in_max,
        shape_out_max=cap.shape_out_max,
        filters_max=cap.filters_max,
        kernel_max=(1, 1, 1),
    )
    with pytest.raises(InfeasibleScheduleError, match="kernel"):
        build_schedule(toy, graph, MODE_RUNTIME)


def test_coverage_oracle_flags_duplicates_and_gaps(toy):
    graph = initial_mapping(toy)
    schedule = build_schedule(toy, graph, MODE_RUNTIME)
    dup = Schedule(schedule.entries + [schedule.entries[0]])
    report = coverage_oracle(dup, toy)
    assert not report.passed
    assert any(kind == "duplicate" for _, kind, _ in report.failures)
    gap = Schedule(schedule.entries[1:])
    report = coverage_oracle(gap, toy)
    assert not report.passed
    assert any(kind == "gap" for _, kind, _ in report.failures)


def test_schedule_entry_round_trip(toy):
    graph = initial_mapping(toy)
    schedule = build_schedule(toy, graph, MODE_RUNTIME)
    for e in schedule.entries:
        assert ScheduleEntry.from_dict(e.to_dict()) == e


def test_oracle_latency_matches_analytical_on_random_shrinks(toy):
    rng = random.Random(8)
    dev = load_bundled_profile("zcu102")
    for _ in range(20):
        graph = _shrink_conv(
            initial_mapping(toy),
            d=rng.randint(3, 4),
            c=rng.choice([1, 2, 3]),
            f=rng.choice([2, 4, 8]),
        )
        schedule = build_schedule(toy, graph, MODE_RUNTIME)
        assert coverage_oracle(schedule, toy).passed
        assert schedule_latency(schedule, dev) == schedule_latency_oracle(schedule, dev)
        assert schedule_latency(schedule) == schedule_latency_oracle(schedule)
