import json
import random

import pytest

from harflow.generators import bundled_model_names, bundled_model_text
from harflow.model_ir import (
    LayerDescriptor,
    ModelError,
    TensorShape,
    infer_output_shape,
    layer_workload_macs,
    parse_model,
    serialize_model,
    topological_order,
)


def _layer(kind="Conv3D", shape_in=(4, 8, 8, 3), **kw):
    s = TensorShape(*shape_in)
    params = dict(id=kw.pop("id", "l"), kind=kind, shape_in=(s,),
                  shape_out=TensorShape(1, 1, 1, 1))
    params.update(kw)
    probe = LayerDescriptor(**params)
    return LayerDescriptor(**{**params, "shape_out": infer_output_shape(probe)})


def _count_windows(x_in, k, j, ps, pe):
    # brute force: slide the window over the padded axis and count fits
    padded = x_in + ps + pe
    return sum(1 for o in range(padded) if o % j == 0 and o + k <= padded)


def test_output_shape_matches_window_enumeration():
    rng = random.Random(0)
    for _ in range(300):
        x = rng.randint(1, 20)
        k = rng.randint(1, min(5, x))
        j = rng.randint(1, 3)
        ps, pe = rng.randint(0, 2), rng.randint(0, 2)
        layer = _layer(
            kind="Conv3D", shape_in=(x, x, x, 2), filters=4,
            kernel=(k, k, k), stride=(j, j, j), padding=(ps, pe, ps, pe, ps, pe),
        )
        expect = _count_windows(x, k, j, ps, pe)
        assert layer.shape_out.d == expect
        assert layer.shape_out.h == expect
        assert layer.shape_out.w == expect
        assert layer.shape_out.c == 4


def test_conv_output_shape_example():
    layer = _layer(shape_in=(16, 112, 112, 3), filters=64, kernel=(3, 3, 3),
                   padding=(1, 1, 1, 1, 1, 1))
    assert layer.shape_out == TensorShape(16, 112, 112, 64)


def test_conv_workload_matches_mac_enumeration():
    rng = random.Random(1)
    for _ in range(50):
        c_in = rng.randint(1, 4)
        f = rng.randint(1, 4)
        k = rng.randint(1, 2)
        x = rng.randint(k, 5)
        layer = _layer(shape_in=(x, x, x, c_in), filters=f, kernel=(k, k, k))
        out = layer.shape_out
        # one MAC per (output position, input channel, filter, kernel tap)
        macs = 0
        for _pos in range(out.d * out.h * out.w):
            macs += c_in * f * k ** 3
        assert layer_workload_macs(layer) == macs


def test_grouped_conv_workload_scaled_down():
    full = _layer(shape_in=(2, 4, 4, 8), filters=8, kernel=(1, 1, 1))
    grouped = _layer(shape_in=(2, 4, 4, 8), filters=8, kernel=(1, 1, 1), groups=4)
    assert layer_workload_macs(grouped) * 4 == layer_workload_macs(full)


def test_fc_flattens_input():
    layer = _layer(kind="FullyConnected", shape_in=(1, 4, 4, 512), filters=4096)
    assert layer.fc_features == 4 * 4 * 512
    assert layer_workload_macs(layer) == 8192 * 4096
    assert layer.shape_out == TensorShape(1, 1, 1, 4096)


def _toy_doc():
    return {
        "name": "t",
        "layers": [
            {"id": "conv", "kind": "Conv3D", "shape_in": [4, 8, 8, 3],
             "shape_out": [4, 8, 8, 8], "filters": 8, "kernel": [3, 3, 3],
             "stride": [1, 1, 1], "padding": [1, 1, 1, 1, 1, 1]},
            {"id": "relu", "kind": "Activation", "type": "relu",
             "shape_in": [4, 8, 8, 8], "shape_out": [4, 8, 8, 8]},
        ],
        "edges": [["conv", "relu"]],
    }


def _renamed_conv(doc, layer_id, edge_id):
    """The toy document with its conv layer named `layer_id` and its edge
    naming it `edge_id`: ids that match only when coerced to strings."""
    doc["layers"][0]["id"] = layer_id
    doc["edges"][0][0] = edge_id


def test_parse_serialize_round_trip():
    model = parse_model(json.dumps(_toy_doc()))
    again = parse_model(serialize_model(model))
    assert serialize_model(model) == serialize_model(again)
    assert list(again.layers) == ["conv", "relu"]


def test_a_field_at_its_default_is_accepted_on_any_kind():
    """A field that a kind does not take may be written at its default: each
    bundled model, with all seven operator fields written on every layer at
    the layer's values, parses to the same layers and serializes as before."""
    for name in bundled_model_names():
        doc = json.loads(bundled_model_text(name))
        model = parse_model(json.dumps(doc))
        for entry in doc["layers"]:
            layer = model.layers[entry["id"]]
            entry.update(filters=layer.filters, kernel=list(layer.kernel),
                         stride=list(layer.stride), padding=list(layer.padding),
                         groups=layer.groups, type=layer.op_type, broadcast=layer.broadcast)
        again = parse_model(json.dumps(doc))
        assert again.layers == model.layers
        assert serialize_model(again) == serialize_model(model)


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d["layers"].append(dict(d["layers"][0])), "duplicate layer id"),
        (lambda d: d["edges"].append(["relu", "conv"]), "cycle"),
        (lambda d: d["layers"][1].update(shape_in=[4, 8, 8, 9], shape_out=[4, 8, 8, 9]),
         "shape mismatch"),
        (lambda d: d["layers"][0].update(kind="Conv4D"), "unknown layer kind"),
        (lambda d: d["layers"][0].update(shape_out=[4, 8, 8, 9]), "does not match"),
        (lambda d: d["layers"][1].update(type="tanh"), "unknown activation"),
        (lambda d: d.update(edges=[]), "single input"),
        (lambda d: d["layers"][0].update(filters="x"), "'filters' must be an integer"),
        (lambda d: d["layers"][0].update(shape_in=["a", 1, 1, 1]), "integer array"),
        (lambda d: d["edges"].append(["conv"]), "source, target"),
        (lambda d: d.update(layers=[3]), "must be an object"),
        (lambda d: d["layers"][0].update(kernel=3), "'kernel' must be 3 integers"),
        (lambda d: d["layers"][0].update(shape_in=[2.5, 8, 8, 3]), r"integer array, got \[2.5"),
        (lambda d: d["layers"][0].update(shape_in=[True, 8, 8, 3]), r"array, got \[True"),
        (lambda d: d["layers"][0].update(filters=8.7), "'filters' must be an integer, got 8.7"),
        (lambda d: d["layers"][0].update(filters=True), "'filters' must be an integer, got True"),
        (lambda d: d["layers"][0].update(kernel=[3, 3.0, 3]), r"3 integers, got \[3, 3.0, 3\]"),
        (lambda d: d["layers"][1].update(broadcast="false"), "'broadcast' must be true or false"),
        (lambda d: d["layers"][0].update(type=5), "'type' must be a string, got 5"),
        (lambda d: d["layers"][0].update(type=["relu"]), r"'type' must be a string, got \['relu'"),
        (lambda d: _renamed_conv(d, None, "None"), "layer 'id' must be a string, got None"),
        (lambda d: _renamed_conv(d, 3, "3"), "layer 'id' must be a string, got 3"),
        (lambda d: _renamed_conv(d, "3", 3), "edge source must be a string, got 3"),
        (lambda d: d["edges"][0].__setitem__(1, None), "edge target must be a string, got None"),
        (lambda d: d.update(name=5), "model 'name' must be a string, got 5"),
        (lambda d: d.update(name=None), "model 'name' must be a string, got None"),
        (lambda d: d["layers"][0].pop("kind"), "layer entry lacks 'kind'"),
        (lambda d: d["layers"][1].pop("id"), "layer entry lacks 'id'"),
    ],
)
def test_parse_rejects_malformed_documents(mutate, match):
    doc = _toy_doc()
    mutate(doc)
    with pytest.raises(ModelError, match=match):
        parse_model(json.dumps(doc))


def test_a_model_without_a_name_is_named_model():
    doc = _toy_doc()
    del doc["name"]
    assert parse_model(json.dumps(doc)).name == "model"


@pytest.mark.parametrize("dims", [[True, 8, 8, 3], [4, -1, 8, 3], [4, 8, 2.0, 3], [4, 8, 8],
                                  (4, 8, 8, 3, 1), "4883", None])
def test_shape_from_list_rejects_what_is_not_four_non_negative_integers(dims):
    with pytest.raises(ModelError, match="4-element"):
        TensorShape.from_list(dims)


def test_shape_from_list_takes_four_non_negative_integers():
    assert TensorShape.from_list([4, 0, 8, 3]) == TensorShape(4, 0, 8, 3)


def test_parse_rejects_disconnected_layer():
    doc = _toy_doc()
    doc["layers"].append({"id": "orphanA", "kind": "Activation", "type": "relu",
                          "shape_in": [1, 1, 1, 1], "shape_out": [1, 1, 1, 1]})
    doc["layers"].append({"id": "orphanB", "kind": "Activation", "type": "relu",
                          "shape_in": [1, 1, 1, 1], "shape_out": [1, 1, 1, 1]})
    doc["edges"].append(["orphanA", "orphanB"])
    with pytest.raises(ModelError, match="single input"):
        parse_model(json.dumps(doc))


def test_groups_must_divide_channels_and_filters():
    doc = _toy_doc()
    doc["layers"][0]["groups"] = 2
    with pytest.raises(ModelError, match="groups"):
        parse_model(json.dumps(doc))


def test_topological_order_is_deterministic_and_valid():
    doc = _toy_doc()
    doc["layers"].append({"id": "pool", "kind": "Pool3D", "type": "max",
                          "shape_in": [4, 8, 8, 8], "shape_out": [2, 4, 4, 8],
                          "kernel": [2, 2, 2], "stride": [2, 2, 2]})
    doc["layers"].append({"id": "act2", "kind": "Activation", "type": "sigmoid",
                          "shape_in": [4, 8, 8, 8], "shape_out": [4, 8, 8, 8]})
    doc["edges"] += [["relu", "pool"], ["relu", "act2"]]
    model = parse_model(json.dumps(doc))
    order = topological_order(model)
    assert set(order) == set(model.layers)
    pos = {lid: i for i, lid in enumerate(order)}
    for src, dst in model.edges:
        assert pos[src] < pos[dst]
    assert order == topological_order(parse_model(json.dumps(doc)))


def test_elementwise_broadcast_validation():
    doc = {
        "name": "ew",
        "layers": [
            {"id": "a", "kind": "Activation", "type": "relu",
             "shape_in": [2, 2, 2, 4], "shape_out": [2, 2, 2, 4]},
            {"id": "g", "kind": "GlobalAvgPool",
             "shape_in": [2, 2, 2, 4], "shape_out": [1, 1, 1, 4]},
            {"id": "mul", "kind": "ElementWise", "type": "mul", "broadcast": True,
             "shape_in": [[2, 2, 2, 4], [1, 1, 1, 4]], "shape_out": [2, 2, 2, 4]},
        ],
        "edges": [["a", "g"], ["a", "mul"], ["g", "mul"]],
    }
    model = parse_model(json.dumps(doc))
    assert model.layers["mul"].broadcast
    doc["layers"][2]["broadcast"] = False
    with pytest.raises(ModelError, match="differ without broadcast"):
        parse_model(json.dumps(doc))


def test_edge_count_error_names_the_first_declared_layer():
    doc = json.loads(bundled_model_text("toy"))
    doc["edges"] += [["relu", "pool"], ["pool", "fc"]]  # pool and fc get two inputs
    with pytest.raises(ModelError, match="layer 'pool': 2 incoming edges"):
        parse_model(json.dumps(doc))
