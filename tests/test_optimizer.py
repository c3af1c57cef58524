import hashlib
import json
import logging
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from test_acceptance import _random_chain_model

import harflow.optimizer as optimizer
import harflow.perf_model as perf_model
import harflow.resource_model as resource_model
import harflow.scheduler as scheduler

from harflow.device import load_bundled_profile
from harflow.generators import bundled_model_names, bundled_model_text
from harflow.hardware_graph import (
    HardwareGraph,
    NodeCapability,
    fuse_activations,
    initial_mapping,
    separate_node,
)
from harflow.model_ir import FILTER_KINDS, parse_model
from harflow.optimizer import (
    AnnealingParams,
    ChainMemo,
    OptimizerError,
    ParetoPoint,
    _fold_neighbours,
    _sample_capabilities,
    anneal,
    check_constraints,
    evaluate,
    fold_climb,
    pareto_filter,
    pareto_sweep,
    random_transformation,
    warm_start,
)
from harflow.perf_model import compute_latency, invocation_latency, schedule_latency
from harflow.resource_model import default_regression_models, graph_resources
from harflow.scheduler import (
    MODE_PADDED,
    MODE_RUNTIME,
    InfeasibleScheduleError,
    _plan_layer,
    build_schedule,
    coverage_oracle,
)

QUICK = dict(tau_start=1.0, tau_min=0.05, cooling=0.9, warm_start_samples=8)
PROBE = dict(tau_start=1.0, tau_min=0.01, cooling=0.93, warm_start_samples=16)  # design_probe's


@pytest.fixture(scope="module")
def toy():
    return parse_model(bundled_model_text("toy"))


@pytest.fixture(scope="module")
def multishape():
    return parse_model(bundled_model_text("multishape"))


@pytest.fixture(scope="module")
def zcu102():
    return load_bundled_profile("zcu102")


def test_params_validation():
    with pytest.raises(ValueError):
        AnnealingParams(tau_start=0.1, tau_min=1.0)
    with pytest.raises(ValueError):
        AnnealingParams(cooling=1.5)
    # integers only, as in input documents: a bool or a float is not one
    for bad in (dict(seed=[1]), dict(seed=True), dict(warm_start_samples=1.5),
                dict(warm_start_samples="4"), dict(warm_start_samples=-3),
                dict(iterations_per_temperature=True), dict(combine_nodes=2.0)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            AnnealingParams(**bad)
    assert AnnealingParams(warm_start_samples=0).warm_start_samples == 0
    # numbers only: true would pass every comparison as 1
    for bad, name in ((dict(tau_start=10, tau_min=True, cooling=0.5), "tau_min"),
                      (dict(cooling=True), "cooling"), (dict(tau_start=False), "tau_start"),
                      (dict(tau_start="10"), "tau_start"), (dict(tau_min=None), "tau_min"),
                      (dict(cooling=[0.5]), "cooling")):
        with pytest.raises(ValueError, match=name):
            AnnealingParams(**bad)
    assert AnnealingParams(tau_start=10, tau_min=1, cooling=0.5).tau_min == 1


def test_evaluate_flags_budget_violations(toy, zcu102, monkeypatch):
    def unschedulable(*args, **kwargs):
        raise AssertionError("an over-budget graph was scheduled")

    graph = initial_mapping(toy)
    tiny = zcu102.with_dsp_cap(1)
    nid = next(n for n, c in graph.nodes.items() if c.kind == "Conv3D")
    graph.nodes[nid] = graph.nodes[nid].refit(coarse_in=3, coarse_out=8)
    monkeypatch.setattr(optimizer, "build_schedule", unschedulable)
    state = evaluate(toy, graph, tiny, MODE_RUNTIME)
    assert not state.feasible and state.latency_cycles == 0
    assert state.violations == [f"dsp over budget: {state.resources.dsp} > 1"]
    assert len(state.schedule) == 0 and state.schedule.groups == []


def test_check_constraints_passes_on_modest_design(toy, zcu102):
    state = evaluate(toy, initial_mapping(toy), zcu102, MODE_RUNTIME)
    assert state.feasible, state.violations
    assert check_constraints(state, zcu102) == []


def _assert_feasibility_invariants(model, graph, mode):
    """The invariants that make per-state shape, fold and bandwidth checks redundant.

    Returns the number of distinct configurations that yield no output.
    """
    for cap in graph.nodes.values():
        assert NodeCapability.from_dict(cap.to_dict()) == cap
    try:
        schedule = build_schedule(model, graph, mode)
    except InfeasibleScheduleError:
        return 0
    empty = 0
    for node_id, cfg in {(e.node_id, e.config) for e in schedule.entries}:
        cap = graph.nodes[node_id]
        assert all(getattr(cfg.shape_in, a) <= getattr(cap.shape_in_max, a) for a in "dhwc")
        assert cfg.coarse_in <= cap.coarse_in
        assert cfg.coarse_out <= cap.coarse_out
        assert cfg.fine <= cap.fine
        no_output = compute_latency(cfg) == 0
        assert no_output == (invocation_latency(cfg, 8, 8).total_cycles == 0)
        empty += no_output
    return empty


@pytest.mark.parametrize("runtime", [True, False], ids=["runtime", "padded"])
def test_feasibility_invariants_over_search_moves(runtime):
    mode = MODE_RUNTIME if runtime else MODE_PADDED
    params = AnnealingParams(**QUICK)
    rng = random.Random(30)
    models = [_random_chain_model(rng) for _ in range(40)]
    models += [parse_model(bundled_model_text(name)) for name in bundled_model_names()]
    empty = 0
    for model in models:
        graph = initial_mapping(model)
        if rng.random() < 0.5:
            graph = fuse_activations(graph, model)
        graph = _sample_capabilities(graph, model, rng)
        empty += _assert_feasibility_invariants(model, graph, mode)
        for _ in range(3):
            graph = random_transformation(model, graph, rng, params)
            empty += _assert_feasibility_invariants(model, graph, mode)
    # padded tiles run at the node's full shape, which always has output
    assert (empty > 0) == runtime


def test_warm_start_returns_feasible_state(toy, zcu102):
    rng = random.Random(0)
    state, mode = warm_start(toy, zcu102, AnnealingParams(**QUICK), rng)
    assert mode == MODE_RUNTIME
    assert state.feasible
    state.graph.validate_cover(toy)


def test_warm_start_raises_when_nothing_fits(toy, zcu102):
    rng = random.Random(0)
    impossible = zcu102.with_dsp_cap(1)
    object.__setattr__(impossible, "bram_total", 1)
    object.__setattr__(impossible, "lut_total", 1)
    object.__setattr__(impossible, "ff_total", 1)
    with pytest.raises(OptimizerError, match="no feasible warm-start"):
        warm_start(toy, impossible, AnnealingParams(**QUICK), rng)


def test_random_transformation_yields_valid_graphs(multishape, zcu102):
    rng = random.Random(1)
    params = AnnealingParams(**QUICK)
    graph = fuse_activations(initial_mapping(multishape), multishape)
    for _ in range(100):
        graph = random_transformation(multishape, graph, rng, params)
        graph.validate_cover(multishape)


def test_anneal_trace_best_is_non_increasing(toy, zcu102):
    best, trace = anneal(toy, zcu102, AnnealingParams(seed=2, **QUICK))
    assert best.feasible
    assert all(trace[i].best_cycles >= trace[i + 1].best_cycles
               for i in range(len(trace) - 1))
    assert trace[-1].best_cycles == best.latency_cycles


def test_anneal_is_deterministic_per_seed(toy, zcu102):
    a, _ = anneal(toy, zcu102, AnnealingParams(seed=3, **QUICK))
    b, _ = anneal(toy, zcu102, AnnealingParams(seed=3, **QUICK))
    assert a.latency_cycles == b.latency_cycles
    assert a.graph.to_dict() == b.graph.to_dict()


def test_anneal_improves_on_or_matches_warm_start(toy, zcu102):
    params = AnnealingParams(seed=4, **QUICK)
    rng = random.Random(params.seed)
    start, _ = warm_start(toy, zcu102, params, rng)
    best, _ = anneal(toy, zcu102, params)
    assert best.latency_cycles <= start.latency_cycles


def test_anneal_final_schedule_covers_model(toy, zcu102):
    best, _ = anneal(toy, zcu102, AnnealingParams(seed=5, **QUICK))
    report = coverage_oracle(best.schedule, toy, fused=best.graph.fused)
    assert report.passed, report.failures


def test_fold_climb_never_worsens(toy, zcu102):
    params = AnnealingParams(seed=6, **QUICK)
    rng = random.Random(params.seed)
    state, mode = warm_start(toy, zcu102, params, rng)
    polished = fold_climb(toy, zcu102, state, mode)
    assert polished.feasible
    assert polished.latency_cycles <= state.latency_cycles


def test_pareto_filter_matches_brute_force_dominance():
    rng = random.Random(7)
    for _ in range(50):
        # `bram` tells the points apart; the last repeats an earlier (dsp, latency)
        points = [
            ParetoPoint(dsp=rng.randint(1, 50), bram=i,
                        latency_cycles=rng.randint(1, 50), latency_ms=0.0)
            for i in range(12)
        ]
        points.append(replace(rng.choice(points), bram=12))
        kept = pareto_filter(points)
        for i, p in enumerate(points):
            dominated = any(
                q.dsp <= p.dsp and q.latency_cycles <= p.latency_cycles
                and (q.dsp < p.dsp or q.latency_cycles < p.latency_cycles)
                for q in points
            )
            repeated = any((q.dsp, q.latency_cycles) == (p.dsp, p.latency_cycles)
                           for q in points[:i])
            assert (p in kept) == (not dominated and not repeated)
        assert [p.dsp for p in kept] == sorted(p.dsp for p in kept)


def test_pareto_sweep_latency_monotone(toy, zcu102):
    params = AnnealingParams(seed=8, **QUICK)
    points = pareto_sweep(toy, zcu102, params, [64, 256, 1024])
    assert points
    lats = [p.latency_cycles for p in points]
    assert all(a > b for a, b in zip(lats, lats[1:]))  # strictly falling: each point once
    for p in points:
        assert p.dsp <= zcu102.dsp_total


def test_pareto_sweep_rejects_unsorted_budgets(toy, zcu102):
    with pytest.raises(ValueError, match="ascending"):
        pareto_sweep(toy, zcu102, AnnealingParams(**QUICK), [512, 64])


def test_info_logging_reports_chain_progress(toy, zcu102, caplog, monkeypatch):
    params = AnnealingParams(**QUICK)
    with caplog.at_level(logging.ERROR, logger="harflow"):
        quiet = anneal(toy, zcu102, params)
    assert not caplog.records
    moves = []  # (graph a move starts from, graph it proposes), in call order

    def recording(model, graph, rng, params):
        proposed = random_transformation(model, graph, rng, params)
        moves.append((graph, proposed))
        return proposed

    monkeypatch.setattr(optimizer, "random_transformation", recording)
    with caplog.at_level(logging.INFO, logger="harflow"):
        best, trace = anneal(toy, zcu102, params)
    # logging draws no random number and changes no trace row
    assert trace == quiet[1] and best.graph.to_dict() == quiet[0].graph.to_dict()
    messages = [r.getMessage() for r in caplog.records]
    temperatures, tau = 0, params.tau_start
    while tau > params.tau_min:
        temperatures, tau = temperatures + 1, tau * params.cooling
    searched = trace[temperatures * params.iterations_per_temperature - 1]
    assert messages[0].startswith("warm start: ")
    assert f"of {params.warm_start_samples + 1} candidates feasible" in messages[0]
    warm = messages[0].rsplit("best ", 1)[1].split()[0]
    assert messages[1] == (
        f"tau 1: current {warm}, best {warm} cycles; accepted 0 of 0 moves (0%)"
    )
    progress = [m for m in messages if m.startswith("tau ")]
    assert len(progress) == -(-temperatures // 10)
    # a move was accepted exactly when the next move starts from its graph (every
    # move proposes a new graph object)
    accepted = [nxt is proposed for (_, proposed), (nxt, _) in zip(moves, moves[1:])]
    window = 10 * params.iterations_per_temperature
    for k, line in enumerate(progress[1:]):
        count = sum(accepted[k * window:(k + 1) * window])
        assert line.endswith(
            f"; accepted {count} of {window} moves ({100 * count / window:.0f}%)"
        )
    assert messages[-1] == (
        f"fold_climb: {searched.best_cycles} -> {best.latency_cycles} cycles"
    )
    assert len(messages) == 2 + -(-temperatures // 10)


def test_info_logging_reports_each_pareto_budget(toy, zcu102, caplog):
    params = AnnealingParams(seed=8, **QUICK)
    with caplog.at_level(logging.INFO, logger="harflow"):
        points = pareto_sweep(toy, zcu102, params, [1, 64, 256])
    budgets = [r.getMessage() for r in caplog.records if r.getMessage().startswith("budget ")]
    assert budgets[0] == "budget 1 dsp: no feasible design"
    assert len(budgets) == 3 and budgets[1].startswith("budget 64 dsp: best ")
    for p in points:
        assert any(f"best {p.latency_cycles} cycles, dsp {p.dsp}" in m for m in budgets[1:])


def _move_fingerprint(name, seed, mode):
    """(feasible states, sha256 prefix) of 50 search moves from a sampled warm start."""
    model = parse_model(bundled_model_text(name))
    dev = load_bundled_profile("zcu102")
    params = AnnealingParams(**QUICK)
    rng = random.Random(seed)
    graph = _sample_capabilities(fuse_activations(initial_mapping(model), model), model, rng)
    states = []
    for _ in range(50):
        graph = random_transformation(model, graph, rng, params)
        state = evaluate(model, graph, dev, mode)
        states.append([graph.to_dict(), state.latency_cycles, state.violations])
    feasible = sum(not violations for *_, violations in states)
    return feasible, hashlib.sha256(json.dumps(states).encode()).hexdigest()[:16]


# The reshape, fold, combine and separate moves must still produce these
# graphs and latencies; a state over budget hashes with latency 0 and its
# budget lines only, since it is rejected before it is scheduled.
PINNED_MOVES = {
    "toy/runtime_configurable": (0, "1064ec7b30bc99a5"),
    "toy/padded_baseline": (50, "c75a0b0a23922df4"),
    "multishape/runtime_configurable": (3, "f173dd02ea8defd7"),
    "multishape/padded_baseline": (3, "3655edffbe176835"),
    "c3d/runtime_configurable": (0, "79defb4f8d7bc27a"),
    "c3d/padded_baseline": (4, "36aa18dc1fbd1901"),
}


def test_search_moves_match_pinned_fixture():
    fingerprints = {
        f"{name}/{mode}": _move_fingerprint(name, seed, mode)
        for seed, name in enumerate(("toy", "multishape", "c3d"))
        for mode in (MODE_RUNTIME, MODE_PADDED)
    }
    assert fingerprints == PINNED_MOVES


def _evaluation(state):
    """Everything `evaluate` reports about a state, entries included."""
    return (state.latency_cycles, state.feasible, state.violations, state.resources,
            state.schedule.groups, state.schedule.entries)


def _no_output(state):
    return [v for v in state.violations if v.endswith("tile yields no output")]


def _memo_walk(model, dev, mode, rng, steps, built):
    """Random annealing moves and fold_climb candidates, each evaluated with the
    walk's memo and from scratch. `built` counts the node costings ("costs"),
    layer plannings ("plans"), layer tilings ("tilings") and axes derived
    ("axes") made. Returns counts of: node costs, node plans and layer plans
    taken from the memo, new plans that took their tiling from it, new
    tilings that took an axis from it, new tilings over a tile cut to the
    layer, moves that changed the node set, the resources, and the no-output
    violations."""
    params = AnnealingParams(**QUICK)
    graph = initial_mapping(model)
    if rng.random() < 0.5:
        graph = fuse_activations(graph, model)
    memo = ChainMemo()
    state = evaluate(model, _sample_capabilities(graph, model, rng), dev, mode, memo=memo)
    counts = Counter()
    for step in range(steps):
        nid = rng.choice(sorted(state.graph.nodes))
        neighbours = _fold_neighbours(state.graph.nodes[nid], dev.dsp_total)
        if step % 3 == 2 and neighbours:
            graph = state.graph.with_node(nid, rng.choice(neighbours))
        else:
            graph = random_transformation(model, state.graph, rng, params)
        costs, nodes, plans = dict(memo.costs), dict(memo.nodes), dict(memo.plans)
        tilings, axes = dict(memo.tilings), dict(memo.axes)
        before = built.copy()
        child = evaluate(model, graph, dev, mode, memo=memo)
        # only capabilities new to the memo are costed, only layers new to it
        # planned, only (layer, axes) new to it tiled, and only (layer, axis,
        # full, tile) new to it derived
        caps = set(graph.nodes.values())
        assert built["costs"] - before["costs"] == len(caps - costs.keys())
        counts["costs"] += len(caps & costs.keys())
        parts = child.schedule.parts
        keys = [(p.layer.id, p.node_id, graph.nodes[p.node_id]) for p in parts]
        assert built["plans"] - before["plans"] == sum(key not in plans for key in keys)
        tiled = [(p.layer.id, p.tiling.axes) for p in parts]
        assert built["tilings"] - before["tilings"] == sum(key not in tilings for key in tiled)
        derived = {(lid, axis, full, tile) for lid, cut in tiled if (lid, cut) not in tilings
                   for axis, (full, tile) in enumerate(cut)}
        assert built["axes"] - before["axes"] == len(derived - axes.keys())
        counts["axes"] += len(derived & axes.keys())
        assert len(child.schedule) == sum(n for *_, n in child.schedule.groups)
        if parts:  # scheduled: each node's plans are held under its (id, capability, layers)
            held = {(nid, graph.nodes[nid], lids) for nid, lids in graph.mapping.items()}
            counts["nodes"] += len(held & nodes.keys())
            by_layer = {p.layer.id: p for p in parts}
            records = child.schedule.nodes
            assert len(records) == len(held)
            for nid, cap, lids in held:
                record = memo.nodes[nid, cap, lids]
                assert any(record is r for r in records)
                assert record.plans == {lid: by_layer[lid] for lid in lids}
                assert record.invocations == sum(by_layer[lid].tiling.invocations
                                                 for lid in lids)
        for (lid, _, cap), (_, cut), plan in zip(keys, tiled, parts):
            # a tiling is keyed on the node's tile shape cut to the layer; a
            # kind without filters has one empty filter tile
            layer, s, n = plan.layer, plan.layer.tiled_shape_in, cap.shape_in_max
            filters = (layer.filters, cap.filters_max) if layer.kind in FILTER_KINDS else (0, 1)
            raw = ((s.h, n.h), (s.w, n.w), (s.d, n.d), (s.c, n.c), filters)
            assert cut == tuple((full, min(full, tile)) if full else (full, tile)
                                for full, tile in raw)
            counts["cut"] += (lid, cut) not in tilings and cut != raw
        for key, tiling_key, plan in zip(keys, tiled, parts):
            if key in plans:
                assert plan is plans[key]
                counts["plans"] += 1
            elif tiling_key in tilings:
                counts["tilings"] += 1
            if tiling_key in tilings:
                assert plan.tiling is tilings[tiling_key]
            # the plan's groups are those of the layer planned from scratch
            scratch_plan = _plan_layer(plan.layer, plan.node_id, key[2], mode, ChainMemo())
            assert plan.groups == scratch_plan.groups
        scratch = evaluate(model, graph, dev, mode)
        assert _evaluation(child) == _evaluation(scratch)
        counts["structural"] += set(graph.nodes) != set(state.graph.nodes)
        counts["resources"] += child.resources != state.resources
        counts["no_output"] += _no_output(child) != _no_output(state)
        state = child
    return counts


@pytest.mark.parametrize("mode", [MODE_RUNTIME, MODE_PADDED])
def test_memo_reuse_equals_evaluation_from_scratch(mode, monkeypatch):
    built = Counter()

    def counted(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args):
            built[key] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(resource_model, "node_resources", "costs")
    counted(scheduler, "_plan_layer", "plans")
    counted(scheduler, "_tile_layer", "tilings")
    counted(scheduler, "_axis_parts", "axes")
    dev = load_bundled_profile("zcu102")
    rng = random.Random(40)
    counts = Counter()
    for name in bundled_model_names():
        model = parse_model(bundled_model_text(name))
        counts += _memo_walk(model, dev, mode, rng, steps=10 if name == "c3d" else 16,
                             built=built)
    for _ in range(30):
        counts += _memo_walk(_random_chain_model(rng), dev, mode, rng, steps=10, built=built)
    # the walks did take node costs, node plans, layer plans, for new plans
    # tilings and for new tilings axes from the memo, tiled over tiles cut to
    # the layer, made combine/separate moves and changed resources; padded
    # tiles run at the node's full shape, so only runtime tiles lack output
    assert counts["costs"] > 0 and counts["plans"] > 0 and counts["tilings"] > 0
    assert counts["nodes"] > 0 and counts["axes"] > 0 and counts["cut"] > 0
    assert counts["structural"] > 0 and counts["resources"] > 0
    assert (counts["no_output"] > 0) == (mode == MODE_RUNTIME)


def _grouped_toy():
    """toy with a 3-group conv in front of its conv. The grouped conv runs
    only on a node at least 3 channels and filters wide, so some reshapes
    schedule it and some make the state infeasible."""
    doc = json.loads(bundled_model_text("toy"))
    conv = doc["layers"][0]
    doc["layers"].insert(0, dict(conv, id="gconv", shape_out=[4, 16, 16, 3], filters=3,
                                 groups=3))
    doc["edges"].insert(0, ["gconv", "conv"])
    return parse_model(json.dumps(doc))


@pytest.mark.parametrize("mode", [MODE_RUNTIME, MODE_PADDED])
def test_infeasible_schedule_names_its_first_layer_in_model_order(mode, zcu102):
    """toy with two 3-group convs in a row, each on its own node, the node of
    the second listed first in the mapping. Cut to 2 channels, a node cannot
    run its grouped conv: the state names the first such layer in
    `model.order`, with a fresh memo and with one that holds the plans of
    the feasible design."""
    doc = json.loads(bundled_model_text("toy"))
    conv = doc["layers"][0]
    doc["layers"][:0] = [dict(conv, id=lid, shape_out=[4, 16, 16, 3], filters=3, groups=3)
                         for lid in ("gconv_a", "gconv_b")]
    doc["edges"][:0] = [["gconv_a", "gconv_b"], ["gconv_b", "conv"]]
    model = parse_model(json.dumps(doc))
    assert model.order.index("gconv_a") < model.order.index("gconv_b")
    base = initial_mapping(model)
    conv_node = next(nid for nid, lids in base.mapping.items() if "gconv_b" in lids)
    base = separate_node(base, conv_node, ["gconv_b"], model)
    b_node = next(nid for nid, lids in base.mapping.items() if lids == ("gconv_b",))
    base = HardwareGraph(nodes=base.nodes, fused=base.fused, mapping={
        b_node: base.mapping[b_node],
        **{nid: lids for nid, lids in base.mapping.items() if nid != b_node}})

    def cut(graph, *node_ids):
        nodes = dict(graph.nodes)
        for nid in node_ids:
            nodes[nid] = nodes[nid].refit(shape_in_max=replace(nodes[nid].shape_in_max, c=2))
        return HardwareGraph(nodes=nodes, mapping=graph.mapping, fused=graph.fused)

    def message(lid, nid):
        return (f"layer '{lid}' cannot run on node '{nid}': "
                "grouped convolution cannot be channel-tiled")

    memo = ChainMemo()
    assert evaluate(model, base, zcu102, mode, memo).feasible
    for held in (ChainMemo(), memo):
        assert evaluate(model, cut(base, b_node), zcu102, mode, held).violations == [
            message("gconv_b", b_node)]
        assert evaluate(model, cut(base, conv_node, b_node), zcu102, mode, held).violations == [
            message("gconv_a", conv_node)]


@pytest.mark.parametrize("mode", [MODE_RUNTIME, MODE_PADDED])
def test_plans_score_as_their_configs(mode):
    """A warm start and random moves on one memo, over every bundled model and
    a toy with a grouped conv. Each schedule built is scored from its plans'
    terms at two devices before any of its groups is read; that equals the
    sum of `invocation_latency` over its groups, and its no-output verdicts
    are those of `compute_latency` over its groups."""
    zcu102 = load_bundled_profile("zcu102")
    slow = replace(zcu102, bw_in_words_per_cycle=Fraction(1, 2),
                   bw_out_words_per_cycle=Fraction(1, 2))
    params = AnnealingParams(**QUICK, enable_runtime_reconfig=mode == MODE_RUNTIME)
    models = [parse_model(bundled_model_text(name)) for name in bundled_model_names()]
    counts = Counter()
    for model in models + [_grouped_toy()]:
        rng = random.Random(19)
        memo = ChainMemo()
        state, _ = warm_start(model, zcu102, params, rng, memo)
        states = [state]
        for _ in range(200):
            child = evaluate(model, random_transformation(model, state.graph, rng, params),
                             zcu102, mode, memo)
            if child.schedule.parts:  # scheduled: within budget and schedulable
                states.append(child)
                state = child
        # every schedule is scored before any group is read
        scored = [[schedule_latency(s.schedule, dev) for dev in (zcu102, slow)] for s in states]
        for state, cycles_at in zip(states, scored):
            schedule = state.schedule
            for dev, cycles in zip((zcu102, slow), cycles_at):
                brk = [(invocation_latency(cfg, dev.bw_in_words_per_cycle,
                                           dev.bw_out_words_per_cycle), n)
                       for _, _, cfg, n in schedule.groups]
                assert cycles == sum(b.total_cycles * n for b, n in brk)
                counts[dev is slow, "memory"] += any(b.bound != "compute" for b, _ in brk)
            assert state.latency_cycles == cycles_at[0]
            assert len(schedule) == sum(n for *_, n in schedule.groups)
            empty = sorted({(node, layer) for node, layer, cfg, _ in schedule.groups
                            if compute_latency(cfg) == 0})
            assert _no_output(state) == [f"layer {layer} on {node}: tile yields no output"
                                         for node, layer in empty]
            counts["no_output"] += bool(empty)
            counts["grouped"] += any(layer == "gconv" for _, layer, _, _ in schedule.groups)
            counts["scheduled"] += 1
    assert counts["scheduled"] > 500 and counts["grouped"] > 20
    assert counts[True, "memory"] > counts[False, "memory"]
    # padded tiles run at the node's full shape, so only runtime tiles lack output
    assert (counts["no_output"] > 0) == (mode == MODE_RUNTIME)


@pytest.mark.parametrize("name, mode", [
    pytest.param(name, mode, id=name + suffix)
    for mode, suffix in ((MODE_RUNTIME, ""), (MODE_PADDED, "-padded"))
    for name in ("toy", "multishape")])
def test_search_builds_no_config(name, mode, monkeypatch):
    """A chain scores and checks its plans from their tilings' terms, or a
    padded plan from its node's: `anneal` builds no config and calls no
    `roofline`, nor do the length and constraint check of its best state.
    Reading the groups builds each config once."""
    built = Counter()
    for module, fn in ((scheduler, "_tile_config"), (scheduler, "_padded_config"),
                       (scheduler, "roofline"), (perf_model, "roofline")):
        def counted(*args, _fn=getattr(module, fn), _name=fn):
            built[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, fn, counted)
    dev = load_bundled_profile("zcu102")
    params = AnnealingParams(**PROBE, enable_runtime_reconfig=mode == MODE_RUNTIME)
    best, _ = anneal(parse_model(bundled_model_text(name)), dev, params)
    assert len(best.schedule) > 0 and check_constraints(best, dev) == best.violations == []
    assert not built
    groups = best.schedule.groups
    config = "_tile_config" if mode == MODE_RUNTIME else "_padded_config"
    assert built == {config: len(groups)}


@pytest.mark.parametrize("mode", [MODE_RUNTIME, MODE_PADDED])
def test_only_states_within_budget_are_scheduled(mode):
    """A random-move walk, each state evaluated with the walk's memo: a state is
    rejected on budget exactly when `graph_resources` puts it over a budget,
    and a state within budget scores as its schedule built from scratch."""
    dev = load_bundled_profile("zcu102")
    params = AnnealingParams(**QUICK)
    rng = random.Random(41)
    models = [parse_model(bundled_model_text(name)) for name in bundled_model_names()]
    models += [_random_chain_model(rng) for _ in range(20)]
    counts = Counter()
    for model in models:
        graph = _sample_capabilities(initial_mapping(model), model, rng)
        memo = ChainMemo()
        state = evaluate(model, graph, dev, mode, memo=memo)
        for _ in range(12):
            graph = random_transformation(model, state.graph, rng, params)
            child = evaluate(model, graph, dev, mode, memo=memo)
            resources = graph_resources(graph, dev, *default_regression_models())
            over = [name for name in ("dsp", "bram", "lut", "ff")
                    if getattr(resources, name) > getattr(dev.budgets, name)]
            if over:
                assert not child.feasible and child.latency_cycles == 0
                assert [v.split()[0] for v in child.violations] == over
                assert len(child.schedule) == 0
                counts["rejected"] += 1
            else:
                try:
                    schedule = build_schedule(model, graph, mode)
                except InfeasibleScheduleError as exc:
                    assert child.violations == [str(exc)]
                else:
                    assert child.latency_cycles == schedule_latency(schedule, dev)
                    counts["scheduled"] += 1
            state = child
    assert counts["rejected"] > 0 and counts["scheduled"] > 0
