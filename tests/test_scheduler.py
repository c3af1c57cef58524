import hashlib
import json
import math
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import _Builder, _random_chain_model, _randomly_shrunk

import harflow.scheduler as scheduler
from harflow.device import load_bundled_profile
from harflow.generators import bundled_model_names, bundled_model_text
from harflow.hardware_graph import (
    HardwareGraph,
    HardwareGraphError,
    NodeCapability,
    capability_for_layers,
    fuse_activations,
    initial_mapping,
)
from harflow.model_ir import FILTER_KINDS, TensorShape, parse_model
from harflow.optimizer import _sample_capabilities, check_constraints, evaluate
from harflow.perf_model import RuntimeConfig, invocation_latency, schedule_latency
from harflow.reporting import per_layer_latency
from harflow.scheduler import (
    MODE_PADDED,
    MODE_RUNTIME,
    ChainMemo,
    InfeasibleScheduleError,
    Schedule,
    ScheduleEntry,
    _axis_classes,
    _axis_count,
    _indexed_tiles,
    _LayerPlan,
    _tile_layer,
    build_schedule,
    check_schedule_doc,
    coverage_oracle,
    is_schedule_json,
    schedule_json,
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


def _axis_tiles(full, tile):
    """[(origin, extent), ...] partitioning `full` into tiles of `tile`, by
    enumeration; an empty axis has one empty tile."""
    origins = range(0, full, tile) if full else [0]
    return [(o, min(tile, full - o)) for o in origins]


def test_min_rule_tile_sizes():
    """`_indexed_tiles` cuts an axis into tiles of the node's tile, the last
    one shorter: layer C=96 on node C_max=64 has channel tiles of 64 then
    32. Each tile's class position is that of its (is first, is last) class
    in `_axis_classes`."""
    def tiles(full, tile):
        return [(o, x) for _, o, x, _ in _indexed_tiles((full, tile))[1]]

    assert tiles(96, 64) == [(0, 64), (64, 32)]
    assert tiles(64, 64) == [(0, 64)]
    assert tiles(12, 5) == [(0, 5), (5, 5), (10, 2)]
    for full in range(40):
        for tile in range(1, 14):
            classes = list(_axis_classes(full, tile))
            count, indexed = _indexed_tiles((full, tile))
            expected = _axis_tiles(full, tile)
            n = len(expected)
            assert count == len(classes)
            assert indexed == [(i, o, x, classes.index((i == 0, i == n - 1)))
                               for i, (o, x) in enumerate(expected)]


def test_runtime_folds_are_gcd_of_tile_and_node_folds(toy):
    graph = initial_mapping(toy)
    nid = next(n for n, cap in graph.nodes.items() if cap.kind == "Conv3D")
    graph.nodes[nid] = graph.nodes[nid].refit(coarse_in=3, coarse_out=8)
    graph2 = _shrink_conv(graph, c=2)
    graph2.nodes[nid] = graph2.nodes[nid].refit(coarse_in=2, coarse_out=8)
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
    # shallower than the 3-deep kernel, so it yields no output. At depth 1 the
    # first, interior and last tiles are three configs without output, and
    # the layer is still named once.
    for depth in (3, 1):
        graph = _shrink_conv(initial_mapping(toy), d=depth)
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
    assert a.entries == b.entries


def test_unmapped_layer_rejected(toy):
    """`build_schedule` takes a valid cover: the cover check rejects a graph
    that leaves a layer unmapped."""
    graph = initial_mapping(toy)
    nid = next(n for n, cap in graph.nodes.items() if cap.kind == "Pool3D")
    mapping = {n: lids for n, lids in graph.mapping.items() if n != nid}
    bad = type(graph)(nodes=dict(graph.nodes), mapping=mapping, fused={})
    with pytest.raises(HardwareGraphError, match=r"missing \['pool'\]"):
        bad.validate_cover(toy)


def test_kernel_larger_than_capability_rejected(toy):
    """`build_schedule` takes a valid cover: the cover check rejects a node
    whose kernel is smaller than a layer's along any axis."""
    graph = initial_mapping(toy)
    cap = graph.nodes["conv_0"]
    for kernel in ((1, 1, 1), (3, 2, 3)):
        bad = graph.with_node("conv_0", replace(cap, kernel_max=kernel))
        with pytest.raises(HardwareGraphError, match=re.escape(
                f"layer 'conv' kernel (3, 3, 3) exceeds node 'conv_0' kernel_max {kernel}")):
            bad.validate_cover(toy)


def test_unsupported_type_rejected(toy):
    """The cover check rejects a node that lacks the type of a layer mapped to it."""
    graph = initial_mapping(toy)
    bad = graph.with_node("pool_0", replace(graph.nodes["pool_0"], supports_types=frozenset()))
    with pytest.raises(HardwareGraphError,
                       match="layer 'pool' type 'max' is not supported by node 'pool_0'"):
        bad.validate_cover(toy)


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


def entry_doc(entry, config):
    """The schedule.json entry document of `entry` for `json.dumps`, which
    writes its tuples as arrays, with `config` as its 'config' field: in
    schedule.json, the index of its config in the `configs` table. The
    reference writer of one entry."""
    return {
        "node": entry.node_id,
        "layer": entry.layer_id,
        "tile_index": entry.tile_index,
        "tile_origin": entry.tile_origin,
        "tile_shape": entry.tile_shape,
        "filter_origin": entry.filter_origin,
        "filter_count": entry.filter_count,
        "config": config,
    }


def config_of_doc(doc):
    """The config of a schedule.json config document, as `RuntimeConfig.to_dict`
    writes it: arrays as tuples, shapes as `TensorShape`, 'type' as `op_type`.
    The reference reader of one config."""
    fields = {"op_type" if key == "type" else key: tuple(value) if type(value) is list else value
              for key, value in doc.items()}
    return RuntimeConfig(**dict(fields, shape_in=TensorShape(*doc["shape_in"]),
                                shape_out=TensorShape(*doc["shape_out"])))


def entry_of_doc(doc, configs):
    """The entry of a schedule.json entry document, its config `configs[i]`
    for its 'config' index i: the reference reader of one entry."""
    return ScheduleEntry(doc["node"], doc["layer"], tuple(doc["tile_index"]),
                         tuple(doc["tile_origin"]), tuple(doc["tile_shape"]),
                         doc["filter_origin"], doc["filter_count"], configs[doc["config"]])


def entries_of_doc(doc):
    """The entries of a decoded schedule.json document, one `ScheduleEntry`
    per entry document, by the reference reader."""
    configs = list(map(config_of_doc, doc["configs"]))
    return [entry_of_doc(e, configs) for e in doc["entries"]]


def test_schedule_entry_round_trip(toy):
    graph = initial_mapping(toy)
    schedule = build_schedule(toy, graph, MODE_RUNTIME)
    for e in schedule.entries:
        assert entry_of_doc(entry_doc(e, 0), [e.config]) == e


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


def _counted_schedule_cases(mode):
    """(model, graph, oracle) over criterion-4 random chains and the bundled models.

    The enumeration oracle takes seconds per config on the larger multishape,
    r2plus1d and c3d tiles, so only the chains and toy are checked against it.
    """
    rng = random.Random(44)
    for _ in range(30):
        model = _random_chain_model(rng)
        yield model, _randomly_shrunk(initial_mapping(model), model, rng), True
    for name in bundled_model_names():
        model = parse_model(bundled_model_text(name))
        base = initial_mapping(model)
        for fuse in (False, True):
            graph = fuse_activations(base, model) if fuse else base
            graph = _sample_capabilities(graph, model, rng)
            yield model, graph, name == "toy"


@pytest.mark.parametrize("mode", [MODE_RUNTIME, MODE_PADDED])
def test_counted_schedule_equals_its_expanded_entries(mode):
    dev = load_bundled_profile("zcu102")
    half = replace(dev, bw_in_words_per_cycle=Fraction(1, 2),
                   bw_out_words_per_cycle=Fraction(1, 2))
    scheduled = 0
    memory_rows = Counter()  # rows with a memory bound, at zcu102 (False) and `half` (True)
    for model, graph, oracle in _counted_schedule_cases(mode):
        try:
            schedule = build_schedule(model, graph, mode)
        except InfeasibleScheduleError:
            continue
        scheduled += 1
        n = len(schedule)
        entries = schedule.entries
        assert n == len(entries)
        counts = Counter((e.node_id, e.layer_id, e.config) for e in entries)
        assert {(nid, lid, cfg): k for nid, lid, cfg, k in schedule.groups} == counts
        assert len(schedule.groups) == len(counts)
        recounted = Schedule(entries)
        for device in (dev, None):
            bw = (device.bw_in_words_per_cycle, device.bw_out_words_per_cycle) if device else ()
            per_entry = sum(invocation_latency(e.config, *bw).total_cycles for e in entries)
            assert schedule_latency(schedule, device) == per_entry
            assert schedule_latency(recounted, device) == per_entry
            if oracle:  # the oracle sums over entries: score each config once
                first = {e.config: e for e in reversed(entries)}
                assert per_entry == sum(
                    k * schedule_latency_oracle(Schedule([first[cfg]]), device)
                    for (_, _, cfg), k in counts.items()
                )
        state = evaluate(model, graph, dev, mode)
        assert check_constraints(replace(state, schedule=recounted), dev) == state.violations
        by_layer = {}
        for e in entries:
            by_layer.setdefault(e.layer_id, []).append(e)
        for device in (dev, half):
            rows = per_layer_latency(schedule, device)
            assert rows == per_layer_latency(recounted, device)
            assert sum(row["invocations"] for row in rows) == n
            assert sum(row["cycles"] for row in rows) == schedule_latency(schedule, device)
            for row in rows:
                layer = by_layer[row["layer"]]
                assert row["invocations"] == len(layer)
                assert row["configs"] == len({e.config for e in layer})
                brk = [invocation_latency(e.config, device.bw_in_words_per_cycle,
                                          device.bw_out_words_per_cycle) for e in layer]
                assert row["cycles"] == sum(b.total_cycles for b in brk)
                assert row["bounds"] == sorted({b.bound for b in brk})
                memory_rows[device is half] += row["bounds"] != ["compute"]
    assert scheduled >= 30
    # the slower device makes more rows memory-bound
    assert memory_rows[True] > memory_rows[False]


@pytest.mark.parametrize("mode", [MODE_RUNTIME, MODE_PADDED])
def test_plans_build_each_distinct_config_once(mode):
    plans = 0
    for model, graph, _ in _counted_schedule_cases(mode):
        try:
            schedule = build_schedule(model, graph, mode)
        except InfeasibleScheduleError:
            continue
        for plan in schedule.parts:
            plans += 1
            configs = [cfg for _, _, cfg, _ in plan.groups]
            assert len(set(configs)) == len(configs)
            # one group per combination of parts of the tiling, in its order
            assert [n for *_, n in plan.groups] == list(plan.tiling.counts.values())
            assert sum(n for *_, n in plan.groups) == math.prod(
                _axis_count(*axis) for axis in plan.tiling.axes)
            if mode == MODE_PADDED:  # only the partial-sum flag varies
                assert len(configs) <= 2
    assert plans >= 100


@pytest.mark.parametrize("mode", [MODE_RUNTIME, MODE_PADDED])
def test_tiles_cut_to_the_layer_tile_it_alike(mode):
    """A tile at least as large as its axis is one tile of the whole axis, so
    `_plan_layer` keys a tiling on the node's tiles cut to the layer. Over
    the layers of every bundled model and of random chains, and random tile
    shapes, the tiling over the raw tiles and over the cut ones have equal
    counts, tile-class slots, widths, terms and invocations, and a plan on
    each yields the same rows. The layers include FC's flattened input,
    kinds without filters (whose filter axis is one empty tile, whatever the
    node's filter tile), stride > 1 and padding."""
    rng = random.Random(21)
    models = [parse_model(bundled_model_text(name)) for name in bundled_model_names()]
    models += [_random_chain_model(rng) for _ in range(20)]
    seen = Counter()
    for layer in (layer for model in models for layer in model.layers.values()):
        s, filters = layer.tiled_shape_in, layer.kind in FILTER_KINDS
        fulls = (s.h, s.w, s.d, s.c, layer.filters if filters else 0)
        for _ in range(3):
            tiles = [rng.randint(-(-full // 3), 2 * full + 1) for full in fulls[:4]]
            tiles.append(rng.randint(-(-fulls[4] // 3), 2 * fulls[4] + 1) if filters
                         else rng.randint(1, 4))
            raw = tuple(zip(fulls, tiles))
            cut = tuple((full, min(full, tile)) for full, tile in raw[:4]) + (
                (fulls[4], min(fulls[4], tiles[4])) if filters else (0, 1),)
            a, b = (_tile_layer(layer, axes, mode, ChainMemo()) for axes in (raw, cut))
            assert (a.counts, a.slots, a.widths, a.terms, a.invocations) == (
                b.counts, b.slots, b.widths, b.terms, b.invocations)
            th, tw, td, tc, tf = tiles
            cap = capability_for_layers(layer.kind, [layer]).refit(
                shape_in_max=TensorShape(td, th, tw, tc), filters_max=tf if filters else 0,
                coarse_in=rng.randint(1, 4), coarse_out=rng.randint(1, 4), fine=rng.randint(1, 9))
            rows = [list(_LayerPlan(layer, "node", cap, t).rows()) for t in (a, b)]
            assert rows[0] == rows[1] and len(rows[0]) == a.invocations
            seen["cut"] += raw != cut
            seen["fc"] += layer.kind == "FullyConnected" and layer.primary_in != s
            seen["no filters"] += not filters and tiles[4] > 1
            seen["stride"] += max(layer.stride) > 1
            seen["padding"] += any(layer.padding)
    assert len(seen) == 5 and min(seen.values()) >= 5, seen


def test_plans_with_equal_lanes_share_one_score(toy, monkeypatch):
    """A runtime plan's score depends on its tiling and lanes only. On one
    memo, toy's conv node at folds (1, 8, 3) and then (3, 8, 1), which cut
    to equal lanes on its one width, shares one score: the second schedule
    tiles nothing and scores nothing. A fold move to other lanes tiles
    nothing and scores once. Each latency equals the one from scratch."""
    made = Counter()
    for name in ("_tile_layer", "lane_cycles"):
        def counted(*args, _fn=getattr(scheduler, name), _name=name):
            made[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(scheduler, name, counted)
    dev = load_bundled_profile("zcu102")
    base = initial_mapping(toy)
    memo = ChainMemo()

    def conv_plan(**folds):
        graph = base.with_node("conv_0", base.nodes["conv_0"].refit(**folds))
        schedule = build_schedule(toy, graph, MODE_RUNTIME, memo)
        latency = schedule_latency(schedule, dev)
        return graph, latency, next(p for p in schedule.parts if p.layer.id == "conv")

    first, cycles, a = conv_plan(coarse_in=1, coarse_out=8, fine=3)
    assert made["_tile_layer"] > 0 and made["lane_cycles"] > 0
    before = made.copy()
    second, again, b = conv_plan(coarse_in=3, coarse_out=8, fine=1)
    assert made == before
    assert b is not a and b.tiling is a.tiling and b.lanes == a.lanes == (24,)
    assert again == cycles and len(a.tiling.scores) == 1
    _, _, c = conv_plan(coarse_in=1, coarse_out=2, fine=1)
    assert c.tiling is a.tiling and c.lanes == (2,) and len(a.tiling.scores) == 2
    assert made == before + Counter(lane_cycles=1)
    for graph, latency in ((first, cycles), (second, again)):
        assert latency == schedule_latency(build_schedule(toy, graph, MODE_RUNTIME), dev)


def test_a_padded_plan_is_scored_once_per_bandwidth_pair(multishape, monkeypatch):
    """A padded plan keeps its score per bandwidth pair: new node records
    that hold plans the memo kept score none of them again, and a second
    device scores each plan once more."""
    calls = []
    lane_cycles = scheduler.lane_cycles
    monkeypatch.setattr(scheduler, "lane_cycles", lambda *a: calls.append(1) or lane_cycles(*a))
    dev = load_bundled_profile("zcu102")
    half = replace(dev, bw_in_words_per_cycle=Fraction(1, 2),
                   bw_out_words_per_cycle=Fraction(1, 2))
    graph = initial_mapping(multishape)
    memo = ChainMemo()
    first = build_schedule(multishape, graph, MODE_PADDED, memo)
    cycles = schedule_latency(first, dev)
    plans = len(first.parts)
    assert len(calls) == plans > 1
    memo.nodes.clear()  # the next schedule builds new records over the kept plans
    second = build_schedule(multishape, graph, MODE_PADDED, memo)
    assert second.nodes[0] is not first.nodes[0]
    assert second.parts == first.parts
    assert schedule_latency(second, dev) == cycles and len(calls) == plans
    schedule_latency(second, half)
    schedule_latency(first, half)
    assert len(calls) == 2 * plans


def _entries_digest(schedule):
    doc = json.dumps([entry_doc(e, e.config.to_dict()) for e in schedule.entries])
    return len(schedule.entries), hashlib.sha256(doc.encode()).hexdigest()[:16]


def _pinned_schedules():
    for name in ("toy", "multishape"):
        model = parse_model(bundled_model_text(name))
        base = initial_mapping(model)
        graphs = [base, fuse_activations(base, model)]
        graphs += [_sample_capabilities(graphs[1], model, random.Random(s)) for s in (0, 1, 2)]
        for mode in (MODE_RUNTIME, MODE_PADDED):
            for i, graph in enumerate(graphs):
                yield f"{name}/{mode}/{i}", build_schedule(model, graph, mode)


# (invocations, sha256 prefix of the JSON entry list) of the list-building
# scheduler that counted schedules replaced
PINNED_ENTRIES = {
    "toy/runtime_configurable/0": (4, "3774ecf29e281e31"),
    "toy/runtime_configurable/1": (3, "2cc7d7d30bb40b6b"),
    "toy/runtime_configurable/2": (1030, "905e42cdc0fb082b"),
    "toy/runtime_configurable/3": (80, "b8c97058bc977dae"),
    "toy/runtime_configurable/4": (64, "b29a16dd079668e0"),
    "toy/padded_baseline/0": (4, "c9a1a0eb956a100e"),
    "toy/padded_baseline/1": (3, "908cfe37c10735d7"),
    "toy/padded_baseline/2": (1030, "ffa9f62cd9fd18ce"),
    "toy/padded_baseline/3": (80, "198f2fe0bc238ebd"),
    "toy/padded_baseline/4": (64, "78e994f1f98f0e15"),
    "multishape/runtime_configurable/0": (13, "9ddb0e3db578768d"),
    "multishape/runtime_configurable/1": (10, "7027b686c30bd820"),
    "multishape/runtime_configurable/2": (718, "c869e211b2220a35"),
    "multishape/runtime_configurable/3": (153, "ba827aad8c88522d"),
    "multishape/runtime_configurable/4": (340, "320ad8b2140c96a4"),
    "multishape/padded_baseline/0": (13, "d91290b050b2cd5d"),
    "multishape/padded_baseline/1": (10, "465137738c026d7e"),
    "multishape/padded_baseline/2": (718, "ba297f9e9822319f"),
    "multishape/padded_baseline/3": (153, "16cddff4fb235ce9"),
    "multishape/padded_baseline/4": (340, "14e02c0b444035ab"),
}


def test_expanded_entries_match_pinned_fixture():
    digests = {key: _entries_digest(s) for key, s in _pinned_schedules()}
    assert digests == PINNED_ENTRIES


def _escaped_ids_schedule():
    """The toy schedule, conv tiled, with a layer and a node id that JSON escapes."""
    layer, node = 'conv "3d" \u00e9\\', "n\u0153ud\t0"
    doc = json.loads(bundled_model_text("toy").replace('"conv"', json.dumps(layer)))
    model = parse_model(json.dumps(doc))
    graph = initial_mapping(model).to_dict()
    graph["nodes"][node] = graph["nodes"].pop("conv_0")
    graph["mapping"][node] = graph["mapping"].pop("conv_0")
    graph = _shrink_conv(HardwareGraph.from_dict(graph), d=2, c=2, f=3)
    schedule = build_schedule(model, graph, MODE_RUNTIME)
    assert {(e.node_id, e.layer_id) for e in schedule.entries} >= {(node, layer)}
    return schedule


def test_schedule_json_reads_back_as_its_entries():
    cases = list(_pinned_schedules())
    cases += [("empty", Schedule()), ("escaped ids", _escaped_ids_schedule())]
    head = {"model": "toy \"\u00e9\"", "device": "zcu102", "total_cycles": 12, "total_ms": 0.06}
    for name, schedule in cases:
        text = schedule_json(head, schedule)
        doc = json.loads(text)
        assert list(doc) == [*head, "configs", "entries"], name
        assert {key: doc[key] for key in head} == head, name
        # one table element per config object, in first-use order
        first_use = {id(e.config): e.config for e in schedule.entries}
        assert doc["configs"] == [cfg.to_dict() for cfg in first_use.values()], name
        assert doc == json.loads(_dumped_schedule_json(head, schedule)), name
        assert entries_of_doc(doc) == schedule.entries, name
        # the document holds the schedule, and its entries reversed do not
        check_schedule_doc(doc, schedule)
        if len(doc["entries"]) > 1:
            doc["entries"].reverse()
            with pytest.raises(ValueError, match="^entry 0 "):
                check_schedule_doc(doc, schedule)


def _dumped_schedule_json(head, schedule):
    """schedule.json text as `json.dumps` writes the whole document, one entry
    dict per invocation: the reference for `schedule_json`'s streamed text."""
    index, configs = {}, []  # index: id(config) -> position in configs
    for e in schedule.entries:
        if id(e.config) not in index:
            index[id(e.config)] = len(configs)
            configs.append(e.config.to_dict())
    entries = [entry_doc(e, index[id(e.config)]) for e in schedule.entries]
    return json.dumps(dict(head, configs=configs, entries=entries)) + "\n"


def test_schedule_json_writes_the_text_json_dumps_writes():
    cases = list(_pinned_schedules())  # both modes
    cases += [("empty", Schedule()), ("escaped ids", _escaped_ids_schedule())]
    for name in bundled_model_names():
        model = parse_model(bundled_model_text(name))
        for mode in (MODE_RUNTIME, MODE_PADDED):
            cases.append((f"{name}/{mode}/initial",
                          build_schedule(model, initial_mapping(model), mode)))
    head = {"model": "toy \"é\"", "device": "zcu102", "total_cycles": 12, "total_ms": 0.06}
    for name, schedule in cases:
        text = schedule_json(head, schedule)
        assert text == _dumped_schedule_json(head, schedule), name
        # a schedule of entries, and one read back, stream the same rows
        for entries in (schedule.entries, entries_of_doc(json.loads(text))):
            assert schedule_json(head, Schedule(entries)) == text, name


# ids that JSON escapes ('"', '\\', 'é') or that a format template would read ('%', '{')
_IDS = st.text(st.sampled_from('a%"{\u00e9\\'), min_size=1, max_size=4)


@st.composite
def _tilings(draw):
    """(mode, (conv id, fc id, conv node id, fc node id), conv kernel, conv
    (extent, tile) per axis H, W, D, C, F, fc channel tile, fc (filters,
    filter tile)) of a conv -> global pool -> fc chain. Each conv axis, and
    the fc's filters, has 1, 2 or more tiles, the last one short or full."""
    def axis(most):
        count, tile = draw(st.integers(1, most)), draw(st.integers(1, 3))
        return (count - 1) * tile + draw(st.integers(1, tile)), tile
    ids = tuple(draw(_IDS) for _ in range(4))
    conv = (axis(3), axis(3), axis(3), axis(4), axis(4))
    return (draw(st.sampled_from([MODE_RUNTIME, MODE_PADDED])), ids,
            draw(st.sampled_from([1, 3])), conv, draw(st.integers(1, 4)), axis(4))


def _tiled_chain(spec):
    """The model and the schedule of a `_tilings` example, each node's tile
    shape cut to its drawn tiles (the pool's node runs whole)."""
    mode, (conv_id, fc_id, conv_node, fc_node), k, axes, fc_c, (fc_f, fc_tf) = spec
    conv_id, fc_id, conv_node, fc_node = "c" + conv_id, "f" + fc_id, "n" + conv_node, "m" + fc_node
    (h, th), (w, tw), (d, td), (c, tc), (f, tf) = axes
    b = _Builder("rand", (d, h, w, c))
    b.add(conv_id, "Conv3D", filters=f, kernel=(k, k, k), padding=(k // 2,) * 6)
    b.add("gap", "GlobalAvgPool")
    b.add(fc_id, "FullyConnected", filters=fc_f)
    model = parse_model(json.dumps(b.document()))
    graph = initial_mapping(model)
    nodes, mapping = {}, {}
    for nid, lids in graph.mapping.items():
        cap = graph.nodes[nid]
        if conv_id in lids:
            nid, cap = conv_node, cap.refit(shape_in_max=TensorShape(td, th, tw, tc),
                                            filters_max=tf)
        elif fc_id in lids:
            nid, cap = fc_node, cap.refit(shape_in_max=TensorShape(1, 1, 1, fc_c),
                                          filters_max=fc_tf)
        nodes[nid], mapping[nid] = cap, lids
    return model, build_schedule(model, HardwareGraph(nodes, mapping, {}), mode)


# the fc runs 4,096 one-channel tiles, each with a full and a short filter tile
_FC_OF_CHANNEL_TILES = (MODE_RUNTIME, ("a", "%", '"', "\u00e9{"), 1,
                        ((1, 1), (1, 1), (1, 1), (1, 1), (4096, 4096)), 1, (3, 2))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(spec=_tilings())
@example(spec=_FC_OF_CHANNEL_TILES)
def test_schedule_json_writes_json_dumps_text_of_random_tilings(spec):
    """The text `schedule_json` writes a layer plan's entries with, a C tile
    run at a time, is the text `json.dumps` writes for the whole document:
    over C and F axes of 1, 2 and more tiles, each last tile short or full,
    several (h, w, d) tile classes, both modes and ids that JSON escapes."""
    model, schedule = _tiled_chain(spec)
    head = {"model": model.name, "device": "zcu102", "total_cycles": 1, "total_ms": 0.5}
    text = schedule_json(head, schedule)
    assert text == _dumped_schedule_json(head, schedule)
    assert is_schedule_json(text, head, schedule)
    if spec == _FC_OF_CHANNEL_TILES:
        fc = schedule.parts[-1]
        assert fc.layer.kind == "FullyConnected"
        assert [_axis_count(*axis) for axis in fc.tiling.axes] == [1, 1, 1, 4096, 2]


def test_is_schedule_json_finds_every_one_character_difference():
    """`is_schedule_json` holds for the text `schedule_json` writes and for
    no text one character off it: in the head, the config table, any entry,
    the end, one character more or less. The schedules hold no entry, one
    entry, and several plans."""
    model = parse_model(bundled_model_text("toy"))
    toy = build_schedule(model, initial_mapping(model), MODE_RUNTIME)
    cases = [("empty", Schedule()), ("one entry", Schedule(toy.entries[:1])), ("toy", toy),
             ("escaped ids", _escaped_ids_schedule())]
    head = {"model": "toy \"\u00e9\"", "device": "zcu102", "total_cycles": 12, "total_ms": 0.06}
    for name, schedule in cases:
        text = schedule_json(head, schedule)
        assert text == _dumped_schedule_json(head, schedule), name
        assert is_schedule_json(text, head, schedule), name
        assert not is_schedule_json(text, dict(head, total_cycles=13), schedule), name
        for at in range(0, len(text), 7):
            changed = "#" if text[at] != "#" else "$"
            for other in (text[:at] + changed + text[at + 1:], text[:at] + text[at + 1:],
                          text[:at] + changed + text[at:]):
                assert not is_schedule_json(other, head, schedule), (name, at)
        assert not is_schedule_json(text + " ", head, schedule), name
