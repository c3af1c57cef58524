"""Per-node and whole-graph resource estimation (DSP, BRAM, LUT, FF).

DSP and BRAM are analytical; LUT and FF come from a linear regression fitted
on a calibration dataset. The bundled default pair is the fit of the
bundled dataset by `tools/fit_resources.py`; `default_regression_models`
reads it once per process. `optimizer.evaluate` and `cli.report_cmd` are its
readers, and pass it to `graph_resources`.
"""

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

from .device import ResourceVector
from .model_ir import FILTER_KINDS, LAYER_KINDS


class ResourceModelError(ValueError):
    pass


def bram_blocks(depth: int, words: int) -> int:
    """36Kb BRAM blocks for a memory of `depth` rows of `words` 16-bit words."""
    if depth <= 0 or words <= 0:
        return 0
    return math.ceil(depth / 512) * math.ceil(16 * words / 36)


def node_dsp(cap) -> int:
    """One DSP per MAC lane: coarse_in * coarse_out * fine on a filter kind
    (an FC node has fine 1), none on any other."""
    return cap.coarse_in * cap.coarse_out * cap.fine if cap.kind in FILTER_KINDS else 0


def sliding_window_bram(cap) -> int:
    """Line/plane/volume buffers of the sliding window, sized at compile time;
    none for the unit window of a kind that takes no kernel."""
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
    """Weight buffers, `folds` words wide; none on a kind without filters,
    whose `filters_max` is 0. FC weights are a 1x1x1 conv's."""
    kd, kh, kw = cap.kernel_max
    total = cap.shape_in_max.c * cap.filters_max * kd * kh * kw
    folds = cap.coarse_in * cap.coarse_out * cap.fine
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

    @cached_property
    def _kind_coefficients(self) -> dict:
        """The coefficient of each kind's one-hot feature, by kind."""
        return dict(zip(LAYER_KINDS, self.coefficients[len(NUMERIC_FEATURES):]))

    def predict(self, cap) -> int:
        """`predict_features(capability_features(cap))`, without building the
        features: the numeric features' products summed in order, then the
        coefficient of the node's kind. The one-hot's other products are
        zeros, which leave the float sum unchanged, so the value is the same."""
        c_in, c_out, fine, kvol, smax = self.coefficients[:len(NUMERIC_FEATURES)]
        kd, kh, kw = cap.kernel_max
        value = (c_in * cap.coarse_in + c_out * cap.coarse_out + fine * cap.fine
                 + kvol * (kd * kh * kw) + smax * cap.shape_in_max.numel)
        value += self._kind_coefficients.get(cap.kind, 0.0)
        return max(0, int(round(self.intercept + value)))

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


@cache
def default_regression_models():
    """(lut_model, ff_model) fitted from the bundled calibration dataset."""
    from importlib import resources

    doc = json.loads(
        resources.files("harflow").joinpath("data/regression/default_model.json").read_text()
    )
    return RegressionModel.from_dict(doc["lut"]), RegressionModel.from_dict(doc["ff"])


def node_resources(cap, lut_model, ff_model) -> ResourceVector:
    return ResourceVector(
        dsp=node_dsp(cap),
        bram=node_bram(cap),
        lut=lut_model.predict(cap),
        ff=ff_model.predict(cap),
    )


def graph_resources(graph, dev, lut_model, ff_model, costs=None) -> ResourceVector:
    """Total estimate: node sum plus one DMA pair and two crossbars.

    `costs`, if given, maps capabilities to the node resources costed with
    these estimators (a search chain's memo): a node whose capability it
    holds is not costed again, and every node costed is added to it.
    """
    costs = {} if costs is None else costs
    dma, xbar = dev.dma_overhead, dev.xbar_overhead
    dsp, bram = dma.dsp + 2 * xbar.dsp, dma.bram + 2 * xbar.bram
    lut, ff = dma.lut + 2 * xbar.lut, dma.ff + 2 * xbar.ff
    for cap in graph.nodes.values():
        res = costs.get(cap)
        if res is None:
            res = costs[cap] = node_resources(cap, lut_model, ff_model)
        dsp, bram, lut, ff = dsp + res.dsp, bram + res.bram, lut + res.lut, ff + res.ff
    return ResourceVector(dsp, bram, lut, ff)
