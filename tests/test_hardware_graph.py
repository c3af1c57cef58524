import math
import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from harflow import optimizer
from harflow.generators import bundled_model_names, bundled_model_text
from harflow.hardware_graph import (
    HardwareGraph,
    HardwareGraphError,
    NodeCapability,
    capability_for_layers,
    combine_nodes,
    fuse_activations,
    initial_mapping,
    separate_node,
)
from harflow.model_ir import TensorShape, parse_model
from harflow.optimizer import AnnealingParams, _sample_capabilities, random_transformation
from harflow.resource_model import default_regression_models, graph_resources, node_dsp
from harflow.device import load_bundled_profile
from harflow.scheduler import MODE_RUNTIME, ChainMemo, build_schedule

DROP = object()  # a parameter value that stands for a key left out


@pytest.fixture(scope="module")
def c3d():
    return parse_model(bundled_model_text("c3d"))


@pytest.fixture(scope="module")
def multishape():
    return parse_model(bundled_model_text("multishape"))


@pytest.fixture(scope="module")
def toy():
    return parse_model(bundled_model_text("toy"))


def _node_doc(kind, shape_in, shape_out, **fields):
    return dict(kind=kind, shape_in_max=shape_in, shape_out_max=shape_out, **fields)


def test_capability_validates_fold_divisibility():
    """The reader rejects a node whose folds `refit` would change, naming the
    folds, the extents they must divide and the legal folds."""
    with pytest.raises(HardwareGraphError, match=re.escape(
            "Conv3D node folds (coarse_in, coarse_out, fine) (4, 1, 1) must divide max "
            "channels 6, max filters 8 and |K| 1")):
        NodeCapability.from_dict(_node_doc(
            "Conv3D", [2, 2, 2, 6], [2, 2, 2, 8], filters_max=8, coarse_in=4))
    with pytest.raises(HardwareGraphError, match=re.escape(
            "(1, 1, 5) must divide max channels 4, max filters 4 and |K| 27")):
        NodeCapability.from_dict(_node_doc(
            "Conv3D", [2, 2, 2, 4], [2, 2, 2, 4], filters_max=4, kernel_max=[3, 3, 3], fine=5))
    with pytest.raises(HardwareGraphError, match=re.escape(
            "coarse_out = coarse_in outside Conv/FC and fine 1 outside Conv3D: "
            "legal are (2, 2, 1)")):
        NodeCapability.from_dict(_node_doc(
            "Pool3D", [2, 2, 2, 4], [1, 1, 1, 4], coarse_in=2, coarse_out=4))


def test_capability_for_layers_takes_elementwise_max(c3d):
    convs = c3d.layers_of_kind("Conv3D")
    cap = capability_for_layers("Conv3D", convs)
    assert cap.shape_in_max == TensorShape(16, 112, 112, 512)
    assert cap.filters_max == 512
    assert cap.kernel_max == (3, 3, 3)


def test_fc_capability_uses_flattened_features(c3d):
    fcs = c3d.layers_of_kind("FullyConnected")
    cap = capability_for_layers("FullyConnected", fcs)
    assert cap.shape_in_max == TensorShape(1, 1, 1, 8192)
    assert cap.filters_max == 4096


def test_initial_mapping_one_node_per_kind(c3d):
    graph = initial_mapping(c3d)
    kinds = sorted(cap.kind for cap in graph.nodes.values())
    assert kinds == ["Activation", "Conv3D", "FullyConnected", "Pool3D"]
    graph.validate_cover(c3d)


def test_combine_never_shrinks_capability(multishape):
    graph = initial_mapping(multishape)
    conv_node = next(n for n, c in graph.nodes.items() if c.kind == "Conv3D")
    split = separate_node(graph, conv_node, [graph.mapping[conv_node][0]], multishape)
    pair = sorted(n for n, c in split.nodes.items() if c.kind == "Conv3D")
    merged = combine_nodes(split, pair, multishape)
    merged.validate_cover(multishape)
    new_node = next(n for n, c in merged.nodes.items() if c.kind == "Conv3D")
    cap = merged.nodes[new_node]
    for old_id in pair:
        old = split.nodes[old_id]
        for attr in "dhwc":
            assert getattr(cap.shape_in_max, attr) >= getattr(old.shape_in_max, attr)
        assert cap.filters_max >= old.filters_max
        assert all(cap.kernel_max[i] >= old.kernel_max[i] for i in range(3))


def test_combine_rejects_bad_selections(multishape):
    graph = initial_mapping(multishape)
    conv = next(n for n, c in graph.nodes.items() if c.kind == "Conv3D")
    pool = next(n for n, c in graph.nodes.items() if c.kind == "Pool3D")
    with pytest.raises(HardwareGraphError, match="at least 2 distinct"):
        combine_nodes(graph, [conv, conv], multishape)
    with pytest.raises(HardwareGraphError, match="different kinds"):
        combine_nodes(graph, [conv, pool], multishape)


def test_separate_splits_mapping(c3d):
    graph = initial_mapping(c3d)
    conv = next(n for n, c in graph.nodes.items() if c.kind == "Conv3D")
    detached = graph.mapping[conv][0]
    out = separate_node(graph, conv, [detached], c3d)
    out.validate_cover(c3d)
    sizes = sorted(len(lids) for n, lids in out.mapping.items()
                   if out.nodes[n].kind == "Conv3D")
    assert sizes == [1, 7]


def test_separate_all_layers_removes_source(multishape):
    graph = initial_mapping(multishape)
    pool = next(n for n, c in graph.nodes.items() if c.kind == "Pool3D")
    out = separate_node(graph, pool, list(graph.mapping[pool]), multishape)
    out.validate_cover(multishape)
    pool_nodes = [n for n, c in out.nodes.items() if c.kind == "Pool3D"]
    assert len(pool_nodes) == 1  # replacement carries all layers, source is gone
    assert sorted(out.mapping[pool_nodes[0]]) == sorted(graph.mapping[pool])


def test_separate_never_decreases_total_dsp(c3d):
    rng = random.Random(6)
    graph = initial_mapping(c3d)
    for _ in range(20):
        candidates = [n for n, lids in graph.mapping.items() if len(lids) >= 2]
        if not candidates:
            break
        nid = rng.choice(sorted(candidates))
        lids = sorted(graph.mapping[nid])
        before = sum(node_dsp(c) for c in graph.nodes.values())
        graph = separate_node(graph, nid, [rng.choice(lids)], c3d)
        graph.validate_cover(c3d)
        after = sum(node_dsp(c) for c in graph.nodes.values())
        assert after >= before


def test_random_edit_sequences_preserve_cover(multishape, monkeypatch):
    rng = random.Random(7)
    graph = initial_mapping(multishape)
    for _ in range(60):
        roll = rng.random()
        if roll < 0.5:
            splittable = [n for n, lids in graph.mapping.items() if len(lids) >= 2]
            if splittable:
                nid = rng.choice(sorted(splittable))
                lid = rng.choice(sorted(graph.mapping[nid]))
                graph = separate_node(graph, nid, [lid], multishape)
        else:
            by_kind = {}
            for nid, cap in graph.nodes.items():
                by_kind.setdefault(cap.kind, []).append(nid)
            mergeable = [ids for ids in by_kind.values() if len(ids) >= 2]
            if mergeable:
                ids = rng.choice(sorted(mergeable))
                graph = combine_nodes(graph, rng.sample(sorted(ids), 2), multishape)
        graph.validate_cover(multishape)
        # every unfused layer on exactly one node, of its own kind
        owners = Counter(lid for lids in graph.mapping.values() for lid in lids)
        assert set(owners) == set(multishape.layers) - set(graph.fused)
        assert set(owners.values()) == {1}
        for nid, lids in graph.mapping.items():
            assert all(multishape.layers[lid].kind == graph.nodes[nid].kind for lid in lids)

    # The search edits graphs with `_sample_capabilities` and the five moves of
    # `random_transformation`, and schedules them unchecked: every graph they
    # build must pass the checks the design reader makes, the kind rule of
    # each node included. And the scheduler copies a layer's kernel, stride,
    # groups, type and broadcast into each runtime config, so those must be
    # the layer's, whatever its kind.
    def assert_valid(graph, model, memo):
        graph.validate_cover(model)
        for cap in graph.nodes.values():
            assert cap.refit() == cap and NodeCapability.from_dict(cap.to_dict()) == cap
        again = HardwareGraph.from_dict(graph.to_dict())
        assert again.nodes == graph.nodes and again.mapping == graph.mapping
        for _, lid, cfg, _ in build_schedule(model, graph, MODE_RUNTIME, memo).groups:
            layer = model.layers[lid]
            assert (cfg.kernel, cfg.stride, cfg.groups, cfg.op_type, cfg.broadcast) == (
                layer.kernel, layer.stride, layer.groups, layer.op_type, layer.broadcast)

    walked = Counter()

    def counted(name, move):
        def counting(*args):
            walked[name] += 1
            return move(*args)
        return counting

    moves = ("_reshape", "_coarse_fold", "_fine_fold", "_combine", "_separate")
    for name in moves:
        monkeypatch.setattr(optimizer, name, counted(name, getattr(optimizer, name)))
    for name in bundled_model_names():
        model = parse_model(bundled_model_text(name))
        rng = random.Random(name)
        memo = ChainMemo()
        for base in (initial_mapping(model), fuse_activations(initial_mapping(model), model)):
            for params in (AnnealingParams(), AnnealingParams(separate_layers=3, combine_nodes=3)):
                graph = _sample_capabilities(base, model, rng)
                assert_valid(graph, model, memo)
                for _ in range(60):
                    graph = random_transformation(model, graph, rng, params)
                    assert_valid(graph, model, memo)
    assert set(walked) == set(moves) and min(walked.values()) > 50, walked


def test_fuse_activations_rules(c3d, multishape):
    fused = fuse_activations(initial_mapping(c3d), c3d)
    fused.validate_cover(c3d)
    # every C3D activation follows a conv or fc, so all fuse
    assert sorted(fused.fused) == sorted(l.id for l in c3d.layers_of_kind("Activation"))
    assert not any(cap.kind == "Activation" for cap in fused.nodes.values())

    ms_fused = fuse_activations(initial_mapping(multishape), multishape)
    ms_fused.validate_cover(multishape)
    # act_se follows a GlobalAvgPool and must stay standalone
    assert "act_se" not in ms_fused.fused
    assert "act_a" in ms_fused.fused and "ew_se" not in ms_fused.fused


def test_graph_dict_round_trip(c3d):
    dev = load_bundled_profile("zcu102")
    graph = fuse_activations(initial_mapping(c3d), c3d)
    again = HardwareGraph.from_dict(graph.to_dict())
    assert again.nodes == graph.nodes
    assert again.mapping == graph.mapping
    assert again.fused == graph.fused
    pair = default_regression_models()
    assert graph_resources(again, dev, *pair) == graph_resources(graph, dev, *pair)


def test_refit_cuts_each_fold_to_a_legal_divisor(c3d, multishape):
    rng = random.Random(11)
    for model in (c3d, multishape):
        for cap in initial_mapping(model).nodes.values():
            macs = cap.kind in ("Conv3D", "FullyConnected")
            for _ in range(40):
                shape = TensorShape(*(rng.randint(1, x) for x in cap.shape_in_max.to_list()))
                filters = rng.randint(1, cap.filters_max) if macs else 0
                kernel = tuple(rng.randint(1, k) for k in cap.kernel_max)
                folds = {k: rng.randint(1, 64) for k in ("coarse_in", "coarse_out", "fine")}
                new = cap.refit(shape_in_max=shape, filters_max=filters, kernel_max=kernel,
                                **folds)
                assert NodeCapability.from_dict(new.to_dict()) == new
                assert (new.shape_in_max, new.filters_max, new.kernel_max) == (
                    shape, filters, kernel)
                assert new.coarse_in == math.gcd(folds["coarse_in"], shape.c)
                assert new.coarse_out == (
                    math.gcd(folds["coarse_out"], filters) if macs else new.coarse_in
                )
                kvol = kernel[0] * kernel[1] * kernel[2]
                assert new.fine == (
                    math.gcd(folds["fine"], kvol) if cap.kind == "Conv3D" else 1
                )


def test_capability_hashes_as_its_value_however_built(c3d, multishape):
    """The hash is kept per object, so each way of building a capability must
    hash as its value: from the constructor, `from_dict`, `refit` or
    `replace`, and a `refit` of an already-hashed capability afresh."""
    for model in (c3d, multishape):
        for cap in initial_mapping(model).nodes.values():
            hash(cap)
            fields = {k: getattr(cap, k) for k in cap.__dataclass_fields__}
            same = [NodeCapability(**fields), NodeCapability.from_dict(cap.to_dict()),
                    cap.refit(), replace(cap)]
            deeper = replace(cap.shape_in_max, d=cap.shape_in_max.d + 1)
            wider = replace(cap.shape_out_max, w=cap.shape_out_max.w + 1)
            changed = [cap.refit(coarse_in=1), cap.refit(shape_in_max=deeper),
                       replace(cap, shape_out_max=wider)]
            for other in same:
                assert other == cap and hash(other) == hash(cap)
            for other in changed:
                hash(other)
                rebuilt = NodeCapability.from_dict(other.to_dict())
                assert other == rebuilt and hash(other) == hash(rebuilt)
                assert other.refit() == other and hash(other.refit()) == hash(other)
            assert changed[1] != cap and hash(changed[1]) != hash(cap)


def test_with_node_replaces_one_node_and_shares_nothing(multishape):
    graph = fuse_activations(initial_mapping(multishape), multishape)
    nid = sorted(graph.nodes)[1]
    cap = graph.nodes[nid].refit(coarse_in=2)
    edited = graph.with_node(nid, cap)
    assert list(edited.nodes.items()) == [
        (n, cap if n == nid else c) for n, c in graph.nodes.items()
    ]
    assert edited.nodes[nid] != graph.nodes[nid]
    assert edited.mapping == graph.mapping and edited.mapping is not graph.mapping
    assert edited.fused == graph.fused and edited.fused is not graph.fused


def test_validate_cover_rejects_a_mapping_to_an_unknown_node(multishape):
    graph = initial_mapping(multishape)
    nid = sorted(graph.nodes)[0]
    nodes = {n: c for n, c in graph.nodes.items() if n != nid}
    with pytest.raises(HardwareGraphError, match=f"unknown node '{nid}'"):
        HardwareGraph(nodes=nodes, mapping=graph.mapping).validate_cover(multishape)


def test_from_dict_ignores_a_node_level_runtime_flag(c3d):
    graph = initial_mapping(c3d)
    doc = graph.to_dict()
    for node in doc["nodes"].values():
        node["runtime_configurable"] = False
    assert HardwareGraph.from_dict(doc).nodes == graph.nodes


@pytest.mark.parametrize("fused, match", [
    ({"conv": "relu"}, "'conv' is not an activation"),
    ({"nosuch": "conv"}, "'nosuch' is not an activation"),
    ({"relu": "pool"}, "'relu' does not have 'pool' as its single producer"),
], ids=["not-activation", "unknown-layer", "not-its-producer"])
def test_validate_cover_rejects_bad_fused_layers(toy, fused, match):
    graph = initial_mapping(toy)
    mapping = {nid: tuple(l for l in lids if l not in fused)
               for nid, lids in graph.mapping.items()}
    bad = HardwareGraph(nodes=graph.nodes, mapping=mapping, fused=fused)
    with pytest.raises(HardwareGraphError, match=match):
        bad.validate_cover(toy)
    fuse_activations(graph, toy).validate_cover(toy)


def test_validate_cover_rejects_an_activation_fed_by_an_unfusible_producer(multishape):
    graph = initial_mapping(multishape)
    # act_se follows a GlobalAvgPool, which cannot absorb it
    producer = multishape.predecessors("act_se")[0]
    mapping = {nid: tuple(l for l in lids if l != "act_se")
               for nid, lids in graph.mapping.items()}
    bad = HardwareGraph(nodes=graph.nodes, mapping=mapping, fused={"act_se": producer})
    with pytest.raises(HardwareGraphError, match="single producer"):
        bad.validate_cover(multishape)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["mapping"].update(conv_0=[["conv"]]),
    lambda doc: doc["mapping"].update(conv_0=[7]),
    lambda doc: doc.update(fused={"relu": ["conv"]}),
], ids=["mapping-list", "mapping-int", "fused-value-list"])
def test_from_dict_rejects_layer_ids_that_are_not_strings(toy, edit):
    doc = initial_mapping(toy).to_dict()
    edit(doc)
    with pytest.raises(HardwareGraphError, match="must be strings"):
        HardwareGraph.from_dict(doc)


@pytest.mark.parametrize("field, value, match", [
    ("coarse_in", 0, "'coarse_in' must be an integer >= 1"),
    ("coarse_out", -2, "'coarse_out' must be an integer >= 1"),
    ("fine", 0, "'fine' must be an integer >= 1"),
    ("shape_in_max", [4, 0, 16, 3], "'shape_in_max' must be 4 integers >= 1"),
    ("shape_out_max", [4, 16, 16, 0], "'shape_out_max' must be 4 integers >= 1"),
    ("kernel_max", [3, 0, 3], "'kernel_max' must be 3 integers >= 1"),
    ("filters_max", 0, "'filters_max' must be an integer >= 1"),
    ("supports_types", "max", "'supports_types' must be an array of strings"),
    ("supports_types", [1], "'supports_types' must be an array of strings"),
    # checked first: an unknown kind is not read as a node with a single coarse fold
    ("kind", "Bogus", "'kind' must be one of Conv3D, .*, got 'Bogus'"),
    ("kind", ["Conv3D"], "'kind' must be one of"),
    ("kind", DROP, "node capability lacks 'kind'"),
    ("shape_in_max", DROP, "node capability lacks 'shape_in_max'"),
    ("shape_out_max", DROP, "node capability lacks 'shape_out_max'"),
])
def test_capability_reader_rejects_an_empty_or_malformed_node(toy, field, value, match):
    """A node document is checked where it is read: no required key missing,
    no fold, shape dimension or kernel size below 1, no Conv/FC node without
    filters, and no `supports_types` but an array of strings (a string is not
    read as the set of its letters)."""
    doc = initial_mapping(toy).nodes["conv_0"].to_dict()
    if value is DROP:
        del doc[field]
    else:
        doc[field] = value
    with pytest.raises(HardwareGraphError, match=match):
        NodeCapability.from_dict(doc)


@pytest.mark.parametrize("field, value", [
    ("nodes", [1]), ("mapping", [1]), ("fused", ["relu"]), ("nodes", None), ("mapping", None),
    (None, [1]),  # the graph document itself
    ("conv_0", 1),  # a node document
])
def test_graph_reader_rejects_a_field_that_is_not_an_object(toy, field, value):
    doc = initial_mapping(toy).to_dict()
    if field is None:
        doc, match = value, re.escape("graph must be an object, got [1]")
    elif field in doc:
        doc[field], match = value, f"graph '{field}' must be an object"
    else:
        doc["nodes"][field], match = value, "node capability must be an object, got 1"
    with pytest.raises(HardwareGraphError, match=match):
        HardwareGraph.from_dict(doc)


def test_graph_reader_rejects_a_mapping_value_that_is_not_an_array(toy):
    doc = initial_mapping(toy).to_dict()
    doc["mapping"]["conv_0"] = "conv"
    with pytest.raises(HardwareGraphError, match="graph 'mapping' values must be arrays"):
        HardwareGraph.from_dict(doc)
