"""Per-node and whole-graph resource estimation (DSP, BRAM, LUT, FF).

DSP and BRAM are analytical; LUT and FF come from a linear regression fitted
on a calibration dataset (a default model is bundled with the package).
"""

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .device import ResourceVector
from .model_ir import LAYER_KINDS


class ResourceModelError(ValueError):
    pass


def bram_blocks(depth: int, words: int) -> int:
    """36Kb BRAM blocks for a memory of `depth` rows of `words` 16-bit words."""
    if depth <= 0 or words <= 0:
        return 0
    return math.ceil(depth / 512) * math.ceil(16 * words / 36)


def node_dsp(cap) -> int:
    if cap.kind == "Conv3D":
        return cap.coarse_in * cap.coarse_out * cap.fine
    if cap.kind == "FullyConnected":
        return cap.coarse_in * cap.coarse_out
    return 0


def sliding_window_bram(cap) -> int:
    """Line/plane/volume buffers of the sliding window, sized at compile time."""
    if cap.kind not in ("Conv3D", "Pool3D"):
        return 0
    s = cap.shape_in_max
    kd, kh, kw = cap.kernel_max
    c_in = cap.coarse_in
    ch = math.ceil(s.c / c_in)
    return (
        bram_blocks(s.w * s.d * ch, (kh - 1) * c_in)
        + bram_blocks(s.d * ch, kh * (kw - 1) * c_in)
        + bram_blocks(ch, kh * kw * (kd - 1) * c_in)
    )


def weights_bram(cap) -> int:
    if cap.kind == "Conv3D":
        kd, kh, kw = cap.kernel_max
        total = cap.shape_in_max.c * cap.filters_max * kd * kh * kw
        folds = cap.coarse_in * cap.coarse_out * cap.fine
    elif cap.kind == "FullyConnected":
        total = cap.shape_in_max.c * cap.filters_max
        folds = cap.coarse_in * cap.coarse_out
    else:
        return 0
    if total == 0:
        return 0
    return bram_blocks(math.ceil(total / folds), folds)


def node_bram(cap) -> int:
    return sliding_window_bram(cap) + weights_bram(cap)


NUMERIC_FEATURES = ("c_in", "c_out", "f", "kvol", "smax")
REGRESSION_FEATURES = NUMERIC_FEATURES + tuple(f"is_{k}" for k in LAYER_KINDS)


def _features(kind, numeric) -> list:
    """REGRESSION_FEATURES values: the numeric columns, then a one-hot of the kind."""
    return [float(x) for x in numeric] + [1.0 if kind == k else 0.0 for k in LAYER_KINDS]


def capability_features(cap) -> list:
    kd, kh, kw = cap.kernel_max
    return _features(
        cap.kind,
        (cap.coarse_in, cap.coarse_out, cap.fine, kd * kh * kw, cap.shape_in_max.numel),
    )


@dataclass(frozen=True)
class RegressionModel:
    """Linear estimator for a single target (lut or ff)."""

    target: str
    feature_names: tuple
    coefficients: tuple
    intercept: float

    def __post_init__(self):
        if len(self.coefficients) != len(self.feature_names):
            raise ResourceModelError("coefficient count must match feature count")

    def predict_features(self, features) -> int:
        value = self.intercept + sum(c * x for c, x in zip(self.coefficients, features))
        return max(0, int(round(value)))

    def predict(self, cap) -> int:
        return self.predict_features(capability_features(cap))

    def to_dict(self):
        return {
            "target": self.target,
            "features": list(self.feature_names),
            "coefficients": list(self.coefficients),
            "intercept": self.intercept,
        }

    @classmethod
    def from_dict(cls, doc) -> "RegressionModel":
        return cls(
            target=doc["target"],
            feature_names=tuple(doc["features"]),
            coefficients=tuple(float(c) for c in doc["coefficients"]),
            intercept=float(doc["intercept"]),
        )


def _rows_from_csv(samples_csv: str) -> list:
    reader = csv.DictReader(io.StringIO(samples_csv))
    rows = list(reader)
    if not rows:
        raise ResourceModelError("calibration CSV is empty")
    required = {"kind", "c_in", "c_out", "f", "kvol", "smax", "lut", "ff"}
    missing = required - set(reader.fieldnames or [])
    if missing:
        raise ResourceModelError(f"calibration CSV missing columns: {sorted(missing)}")
    return rows


def regression_fit(samples_csv: str, target: str, ridge: bool = False) -> RegressionModel:
    """Least-squares fit of a LUT or FF estimator from a calibration CSV.

    The kind one-hot columns absorb the intercept, so none is fitted. With
    fewer independent samples than features the plain fit is singular; pass
    ridge=True to use a fixed 1e-6 Tikhonov regulariser instead.
    """
    if target not in ("lut", "ff"):
        raise ResourceModelError(f"unknown regression target '{target}'")
    rows = _rows_from_csv(samples_csv)
    if len(rows) < 2:
        raise ResourceModelError("need at least 2 calibration samples")
    x = np.array([_features(r["kind"], (r[k] for k in NUMERIC_FEATURES)) for r in rows])
    y = np.array([float(r[target]) for r in rows])
    n_params = x.shape[1]
    if ridge:
        a = x.T @ x + 1e-6 * np.eye(n_params)
        theta = np.linalg.solve(a, x.T @ y)
    else:
        if len(rows) < n_params or np.linalg.matrix_rank(x) < n_params:
            raise ResourceModelError(
                "singular regression fit (fewer independent samples than features); "
                "retry with ridge=True (fixed 1e-6 regulariser)"
            )
        theta, *_ = np.linalg.lstsq(x, y, rcond=None)
    return RegressionModel(
        target=target,
        feature_names=REGRESSION_FEATURES,
        coefficients=tuple(float(c) for c in theta),
        intercept=0.0,
    )


_default_models_cache = None


def default_regression_models():
    """(lut_model, ff_model) fitted from the bundled calibration dataset."""
    global _default_models_cache
    if _default_models_cache is None:
        from importlib import resources

        doc = json.loads(
            resources.files("harflow")
            .joinpath("data/regression/default_model.json")
            .read_text()
        )
        _default_models_cache = (
            RegressionModel.from_dict(doc["lut"]),
            RegressionModel.from_dict(doc["ff"]),
        )
    return _default_models_cache


def node_resources(cap, lut_model=None, ff_model=None) -> ResourceVector:
    if lut_model is None or ff_model is None:
        lut_model, ff_model = default_regression_models()
    return ResourceVector(
        dsp=node_dsp(cap),
        bram=node_bram(cap),
        lut=lut_model.predict(cap),
        ff=ff_model.predict(cap),
    )


def graph_resources(graph, dev, lut_model=None, ff_model=None, costs=None,
                    known=None) -> ResourceVector:
    """Total estimate: node sum plus one DMA pair and two crossbars.

    `costs`, if given, receives each node's (capability, regression models,
    ResourceVector). `known` is such a map of another graph, e.g. the parent
    of an annealing move: a node whose capability and models it records keeps
    its vector instead of being costed again.
    """
    if lut_model is None or ff_model is None:
        lut_model, ff_model = default_regression_models()
    models, costs = (lut_model, ff_model), {} if costs is None else costs
    dsp = bram = lut = ff = 0
    for node_id, cap in graph.nodes.items():
        cost = known.get(node_id) if known else None
        if cost is None or cost[1] != models or not (cost[0] is cap or cost[0] == cap):
            cost = (cap, models, node_resources(cap, lut_model, ff_model))
        costs[node_id] = cost
        res = cost[2]
        dsp, bram, lut, ff = dsp + res.dsp, bram + res.bram, lut + res.lut, ff + res.ff
    return ResourceVector(dsp, bram, lut, ff) + dev.dma_overhead + dev.xbar_overhead.scaled(2)
