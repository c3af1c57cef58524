"""Analytical latency model: compute cycles and the bandwidth roofline.

The roofline is computed in integers: a rational DMA bandwidth enters as its
numerator and denominator, and memory terms are compared by
cross-multiplication, so the model can be checked against brute-force cycle
counters with exact integer equality.

`schedule_latency` keeps each part's cycles on the part, with the bandwidths
they were scored at. A layer plan is shared by every schedule of a search
chain that reuses it from the chain's memo, so it is scored once per chain.
"""

from dataclasses import dataclass
from functools import lru_cache

from .model_ir import (
    FILTER_KINDS, LAYER_KINDS, WINDOWED_KINDS, TensorShape, operator_fields, require_keys,
    strict,
)


class PerfModelError(ValueError):
    pass


@dataclass(frozen=True)
class RuntimeConfig:
    """Per-invocation parameters of a computation node.

    FullyConnected invocations use the flattened form: shape_in = (1,1,1,C)
    where C is the feature count processed by the invocation.
    """

    kind: str
    shape_in: TensorShape
    shape_out: TensorShape
    filters: int = 0
    kernel: tuple = (1, 1, 1)
    stride: tuple = (1, 1, 1)
    padding: tuple = (0, 0, 0, 0, 0, 0)
    groups: int = 1
    op_type: str = ""
    broadcast: bool = False
    coarse_in: int = 1
    coarse_out: int = 1
    fine: int = 1
    # set on every non-final channel tile of a Conv/FC layer: partial sums
    # must be streamed out and read back on the next channel tile
    accumulate_psum: bool = False

    @property
    def kernel_volume(self) -> int:
        kd, kh, kw = self.kernel
        return kd * kh * kw

    def to_dict(self):
        d = {
            "kind": self.kind,
            "shape_in": self.shape_in.to_list(),
            "shape_out": self.shape_out.to_list(),
            "coarse_in": self.coarse_in,
            "coarse_out": self.coarse_out,
        }
        if self.kind in FILTER_KINDS:
            d["filters"] = self.filters
            d["accumulate_psum"] = self.accumulate_psum
        if self.kind in WINDOWED_KINDS:
            d["kernel"] = list(self.kernel)
            d["stride"] = list(self.stride)
            d["padding"] = list(self.padding)
        if self.kind == "Conv3D":
            d["groups"] = self.groups
            d["fine"] = self.fine
        if self.op_type:
            d["type"] = self.op_type
        if self.kind == "ElementWise":
            d["broadcast"] = self.broadcast
        return d

    @classmethod
    def from_dict(cls, doc) -> "RuntimeConfig":
        """The config of a schedule.json config document, every field checked:
        an object with `kind`, `shape_in` and `shape_out`; the kind first,
        the operator fields by `model_ir.operator_fields` (so none that the
        kind does not take), and the folds at least 1, so no latency term
        divides by zero or counts negative work."""
        error = PerfModelError
        kind = require_keys(doc, ("kind", "shape_in", "shape_out"), "config", error)["kind"]
        if kind not in LAYER_KINDS:
            raise error(f"config 'kind' must be one of {', '.join(LAYER_KINDS)}, got {kind!r}")
        return cls(
            kind=kind,
            **{key: TensorShape(*strict(doc[key], int, f"config '{key}'", error, 4, 0))
               for key in ("shape_in", "shape_out")},
            **operator_fields(doc, kind, "config ", error),
            coarse_in=strict(doc.get("coarse_in", 1), int, "config 'coarse_in'", error, least=1),
            coarse_out=strict(doc.get("coarse_out", 1), int, "config 'coarse_out'", error,
                              least=1),
            fine=strict(doc.get("fine", 1), int, "config 'fine'", error, least=1),
            accumulate_psum=strict(doc.get("accumulate_psum", False), bool,
                                   "config 'accumulate_psum'", error),
        )


@dataclass(frozen=True)
class LatencyBreakdown:
    compute_cycles: int
    bound: str  # compute | memory_in | memory_out
    total_cycles: int


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def compute_latency(cfg: RuntimeConfig) -> int:
    """Cycles assuming unlimited memory bandwidth, rounded up to integers. An
    FC config is scored as a 1x1x1 conv over its flattened input (1, 1, 1, C)."""
    if cfg.kind in FILTER_KINDS:
        out = cfg.shape_out
        work = out.d * out.h * out.w * cfg.shape_in.c * cfg.filters * cfg.kernel_volume
        return _ceil_div(work, cfg.groups * cfg.coarse_in * cfg.coarse_out * cfg.fine)
    # Pool3D / Activation / ElementWise / GlobalAvgPool stream one element per
    # cycle per stream
    return _ceil_div(cfg.shape_in.numel, cfg.coarse_in)


def _transfer(words: int, bw):
    """words / bw cycles as an exact (numerator, denominator); (0, 1) for bw None."""
    if bw is None:
        return 0, 1
    num, den = bw.as_integer_ratio()
    return words * den, num


@lru_cache(maxsize=1 << 16)
def invocation_latency(cfg: RuntimeConfig, bw_in=None, bw_out=None) -> LatencyBreakdown:
    """Roofline latency of one invocation (cached; configs repeat across tiles).

    bw_in / bw_out are DMA caps in words/cycle (int, Fraction or None for
    unlimited). The total is max(compute, words_in / bw_in, words_out / bw_out)
    rounded up. The bound names the term that sets it: compute wins every tie
    and memory_in wins a tie with memory_out. A config without compute (a tile
    that yields no output) takes 0 cycles.
    """
    cycles = compute_latency(cfg)
    if cycles == 0:
        return LatencyBreakdown(0, "compute", 0)
    a, b = _transfer(cfg.shape_in.numel, bw_in)  # T_in = a / b
    c, d = _transfer(cfg.shape_out.numel, bw_out)  # T_out = c / d
    if a > cycles * b and a * d >= c * b:
        return LatencyBreakdown(cycles, "memory_in", _ceil_div(a, b))
    if c > cycles * d and c * b > a * d:
        return LatencyBreakdown(cycles, "memory_out", _ceil_div(c, d))
    return LatencyBreakdown(cycles, "compute", cycles)


def schedule_latency(schedule, dev=None) -> int:
    """Total cycles of a schedule: sum of per-invocation roofline latencies.

    Each part of the schedule keeps its cycles with the bandwidths they were
    scored at, so a layer plan reused from a chain's memo is not scored
    again at the same bandwidths; one schedule may be scored at two devices.
    """
    bw = (None, None) if dev is None else (dev.bw_in_words_per_cycle,
                                           dev.bw_out_words_per_cycle)
    bw_in, bw_out = bw
    total = 0
    for part in schedule.parts:
        scored = part.scored
        if scored is None or scored[0] != bw:
            part.scored = scored = (bw, sum(
                invocation_latency(cfg, bw_in, bw_out).total_cycles * n
                for _, _, cfg, n in part.groups
            ))
        total += scored[1]
    return total
