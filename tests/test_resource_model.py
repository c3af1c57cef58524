import json
import random
import sys
from importlib import resources
from pathlib import Path

import pytest

from harflow.device import ResourceVector, load_bundled_profile
from harflow.hardware_graph import NodeCapability, initial_mapping
from harflow.model_ir import LAYER_KINDS, TensorShape, parse_model
from harflow.generators import bundled_model_text
from harflow.resource_model import (
    REGRESSION_FEATURES,
    RegressionModel,
    ResourceModelError,
    bram_blocks,
    capability_features,
    default_regression_models,
    graph_resources,
    node_bram,
    node_dsp,
    node_resources,
    sliding_window_bram,
    weights_bram,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from fit_resources import fit_document, regression_fit  # noqa: E402


def test_bram_blocks_fixtures():
    assert bram_blocks(512, 2) == 1
    assert bram_blocks(1024, 3) == 4
    assert bram_blocks(0, 5) == 0
    assert bram_blocks(5, 0) == 0


def test_bram_blocks_monotone():
    rng = random.Random(0)
    for _ in range(200):
        d, w = rng.randint(1, 2000), rng.randint(1, 64)
        assert bram_blocks(d + 1, w) >= bram_blocks(d, w)
        assert bram_blocks(d, w + 1) >= bram_blocks(d, w)


def _conv_cap(c=8, f=16, kernel=(3, 3, 3), coarse_in=2, coarse_out=4, fine=3,
              shape=(4, 8, 8)):
    d, h, w = shape
    return NodeCapability(
        kind="Conv3D",
        shape_in_max=TensorShape(d, h, w, c),
        shape_out_max=TensorShape(d, h, w, f),
        filters_max=f,
        kernel_max=kernel,
        coarse_in=coarse_in,
        coarse_out=coarse_out,
        fine=fine,
    )


def test_node_dsp_by_kind():
    assert node_dsp(_conv_cap()) == 2 * 4 * 3
    fc = NodeCapability(
        kind="FullyConnected",
        shape_in_max=TensorShape(1, 1, 1, 16),
        shape_out_max=TensorShape(1, 1, 1, 10),
        filters_max=10,
        coarse_in=4,
        coarse_out=2,
    )
    assert node_dsp(fc) == 8
    pool = NodeCapability(
        kind="Pool3D",
        shape_in_max=TensorShape(4, 4, 4, 8),
        shape_out_max=TensorShape(2, 2, 2, 8),
        kernel_max=(2, 2, 2),
        coarse_in=2,
        coarse_out=2,
    )
    assert node_dsp(pool) == 0


def test_sliding_window_bram_fixture():
    # W=D=4, C=8, c=2, K=(3,3,3): R(64,4) + R(16,12) + R(4,36) = 2 + 6 + 16
    cap = _conv_cap(c=8, coarse_in=2, shape=(4, 8, 4))
    cap = NodeCapability(
        kind="Conv3D",
        shape_in_max=TensorShape(4, 8, 4, 8),
        shape_out_max=cap.shape_out_max,
        filters_max=16,
        kernel_max=(3, 3, 3),
        coarse_in=2,
        coarse_out=4,
        fine=3,
    )
    assert sliding_window_bram(cap) == 24


def test_weights_bram_fixtures():
    fc = NodeCapability(
        kind="FullyConnected",
        shape_in_max=TensorShape(1, 1, 1, 16),
        shape_out_max=TensorShape(1, 1, 1, 10),
        filters_max=10,
        coarse_in=4,
        coarse_out=2,
    )
    assert weights_bram(fc) == 4  # R(160/8, 8) = R(20, 8)
    conv = _conv_cap(c=64, f=64, coarse_in=4, coarse_out=4, fine=3)
    assert weights_bram(conv) == 110  # R(2304, 48) = 5 * 22


def test_non_windowed_kinds_use_no_bram():
    act = NodeCapability(
        kind="Activation",
        shape_in_max=TensorShape(4, 4, 4, 8),
        shape_out_max=TensorShape(4, 4, 4, 8),
        coarse_in=2,
        coarse_out=2,
        supports_types=frozenset(["relu"]),
    )
    assert node_bram(act) == 0


def test_regression_fit_recovers_linear_data_exactly():
    # noise-free linear targets must be reproduced to rounding
    rng = random.Random(5)
    kinds = ["Conv3D", "FullyConnected", "Pool3D", "Activation",
             "GlobalAvgPool", "ElementWise"]
    base = {k: 1000 + 500 * i for i, k in enumerate(kinds)}
    rows = ["kind,c_in,c_out,f,kvol,smax,lut,ff"]
    for _ in range(120):
        kind = rng.choice(kinds)
        c_in, c_out = rng.randint(1, 16), rng.randint(1, 16)
        f, kvol = rng.randint(1, 27), rng.choice([1, 8, 27])
        smax = rng.randint(64, 10000)
        lut = base[kind] + 100 * c_in + 200 * c_out + 50 * f + 10 * kvol
        ff = 2 * lut
        rows.append(f"{kind},{c_in},{c_out},{f},{kvol},{smax},{lut},{ff}")
    csv_text = "\n".join(rows) + "\n"
    model = regression_fit(csv_text, "lut")
    for row in rows[1:20]:
        kind, c_in, c_out, f, kvol, smax, lut, _ = row.split(",")
        feats = [float(c_in), float(c_out), float(f), float(kvol), float(smax)]
        feats += [1.0 if kind == k else 0.0 for k in kinds]
        assert model.predict_features(feats) == int(lut)


def test_regression_singular_needs_ridge():
    csv_text = (
        "kind,c_in,c_out,f,kvol,smax,lut,ff\n"
        "Conv3D,1,1,1,1,64,100,200\n"
        "Conv3D,2,2,2,8,64,400,800\n"
    )
    with pytest.raises(ResourceModelError, match="ridge"):
        regression_fit(csv_text, "lut")
    model = regression_fit(csv_text, "lut", ridge=True)
    assert model.predict_features([1, 1, 1, 1, 64, 1, 0, 0, 0, 0, 0]) >= 0


def test_regression_rejects_bad_target_and_columns():
    with pytest.raises(ResourceModelError, match="unknown regression target"):
        regression_fit("kind,c_in,c_out,f,kvol,smax,lut,ff\nConv3D,1,1,1,1,1,1,1\n", "dsp")
    with pytest.raises(ResourceModelError, match="missing columns"):
        regression_fit("kind,lut\nConv3D,1\n", "lut")


def test_bundled_model_is_the_fit_of_the_bundled_dataset():
    data = resources.files("harflow").joinpath("data/regression")
    fitted = fit_document(data.joinpath("calibration.csv").read_text())
    assert fitted == json.loads(data.joinpath("default_model.json").read_text())


def test_regression_model_round_trip():
    lut_model, _ = default_regression_models()
    again = RegressionModel.from_dict(lut_model.to_dict())
    assert again == lut_model


def test_predict_equals_the_feature_product_sum():
    """`predict` adds only the numeric products and the kind's coefficient:
    on random capabilities of every kind it gives what the full feature
    vector gives, for both bundled models and for random coefficients. Their
    magnitudes span sixteen decades, past the integers a float holds
    exactly, so a sum taken in another order would round to another
    integer."""
    rng = random.Random(17)
    models = list(default_regression_models())
    models += [RegressionModel("lut", REGRESSION_FEATURES,
                               tuple(rng.uniform(-1, 1) * 10 ** rng.randint(0, 16)
                                     for _ in REGRESSION_FEATURES),
                               rng.uniform(-1e4, 1e4)) for _ in range(4)]
    for _ in range(500):
        kind = rng.choice(LAYER_KINDS)
        cap = NodeCapability(
            kind=kind, shape_in_max=TensorShape(*(rng.randint(1, 128) for _ in range(4))),
            shape_out_max=TensorShape(1, 1, 1, 1), filters_max=rng.randint(0, 512),
            kernel_max=tuple(rng.randint(1, 7) for _ in range(3)),
            coarse_in=rng.randint(1, 64), coarse_out=rng.randint(1, 64), fine=rng.randint(1, 27))
        for model in models:
            assert model.predict(cap) == model.predict_features(capability_features(cap))


def test_predictions_are_non_negative():
    lut_model, ff_model = default_regression_models()
    cap = _conv_cap()
    assert lut_model.predict(cap) >= 0
    assert ff_model.predict(cap) >= 0


def test_graph_resources_are_node_sum_plus_overheads():
    model = parse_model(bundled_model_text("toy"))
    dev = load_bundled_profile("zcu102")
    graph = initial_mapping(model)
    pair = default_regression_models()
    total = graph_resources(graph, dev, *pair)
    nodes = [node_resources(cap, *pair) for cap in graph.nodes.values()]
    assert total == ResourceVector(**{
        name: sum(getattr(r, name) for r in nodes) + getattr(dev.dma_overhead, name)
        + 2 * getattr(dev.xbar_overhead, name)
        for name in ("dsp", "bram", "lut", "ff")})
