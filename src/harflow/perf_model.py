"""Analytical latency model: compute cycles, stream rates and the bandwidth roofline.

All rates are exact rationals (fractions.Fraction) so the model can be checked
against brute-force cycle counters with exact integer equality.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .model_ir import TensorShape


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

    @property
    def weight_words(self) -> int:
        if self.kind == "Conv3D":
            return self.shape_in.c * self.filters * self.kernel_volume // self.groups
        if self.kind == "FullyConnected":
            return self.shape_in.c * self.filters
        return 0

    def to_dict(self):
        d = {
            "kind": self.kind,
            "shape_in": self.shape_in.to_list(),
            "shape_out": self.shape_out.to_list(),
            "coarse_in": self.coarse_in,
            "coarse_out": self.coarse_out,
        }
        if self.kind in ("Conv3D", "FullyConnected"):
            d["filters"] = self.filters
            d["accumulate_psum"] = self.accumulate_psum
        if self.kind in ("Conv3D", "Pool3D"):
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
        return cls(
            kind=doc["kind"],
            shape_in=TensorShape.from_list(doc["shape_in"]),
            shape_out=TensorShape.from_list(doc["shape_out"]),
            filters=int(doc.get("filters", 0)),
            kernel=tuple(doc.get("kernel", (1, 1, 1))),
            stride=tuple(doc.get("stride", (1, 1, 1))),
            padding=tuple(doc.get("padding", (0, 0, 0, 0, 0, 0))),
            groups=int(doc.get("groups", 1)),
            op_type=doc.get("type", ""),
            broadcast=bool(doc.get("broadcast", False)),
            coarse_in=int(doc.get("coarse_in", 1)),
            coarse_out=int(doc.get("coarse_out", 1)),
            fine=int(doc.get("fine", 1)),
            accumulate_psum=bool(doc.get("accumulate_psum", False)),
        )


@dataclass(frozen=True)
class LatencyBreakdown:
    compute_cycles: int
    bw_in: Fraction
    bw_out: Fraction
    bound: str  # compute | memory_in | memory_out
    total_cycles: int


def _ceil_div(a: int, b: int) -> int:
    if b <= 0:
        raise PerfModelError(f"zero or negative divisor in latency model ({b})")
    return -(-a // b)


def compute_latency(cfg: RuntimeConfig) -> int:
    """Cycles assuming unlimited memory bandwidth, rounded up to integers."""
    if cfg.kind == "Conv3D":
        out = cfg.shape_out
        work = out.d * out.h * out.w * cfg.shape_in.c * cfg.filters * cfg.kernel_volume
        return _ceil_div(work, cfg.groups * cfg.coarse_in * cfg.coarse_out * cfg.fine)
    if cfg.kind == "FullyConnected":
        return _ceil_div(cfg.shape_in.c * cfg.filters, cfg.coarse_in * cfg.coarse_out)
    # Pool3D / Activation / ElementWise / GlobalAvgPool stream one element per
    # cycle per stream
    return _ceil_div(cfg.shape_in.numel, cfg.coarse_in)


def stream_rates(cfg: RuntimeConfig):
    """(r_in, r_out, r_param, r_psum) in words/cycle/stream."""
    cycles = compute_latency(cfg)
    if cycles == 0:
        return Fraction(0), Fraction(0), Fraction(0), Fraction(0)
    r_in = Fraction(cfg.shape_in.numel, cycles * cfg.coarse_in)
    r_out = Fraction(cfg.shape_out.numel, cycles * cfg.coarse_out)
    if cfg.kind in ("Conv3D", "FullyConnected"):
        r_param = Fraction(
            cfg.weight_words, cycles * cfg.coarse_in * cfg.coarse_out * cfg.fine
        )
        r_psum = r_out if cfg.accumulate_psum else Fraction(0)
    else:
        r_param = Fraction(0)
        r_psum = Fraction(0)
    return r_in, r_out, r_param, r_psum


@lru_cache(maxsize=1 << 16)
def invocation_latency(cfg: RuntimeConfig, bw_in=None, bw_out=None) -> LatencyBreakdown:
    """Roofline latency of one invocation (cached; configs repeat across tiles).

    bw_in / bw_out are DMA caps in words/cycle; None means unlimited.
    """
    cycles = compute_latency(cfg)
    r_in, r_out, r_param, r_psum = stream_rates(cfg)
    demand_in = r_in * cfg.coarse_in
    if cfg.kind in ("Conv3D", "FullyConnected"):
        demand_in += r_psum * cfg.coarse_out
        demand_in += r_param * cfg.coarse_in * cfg.coarse_out * cfg.fine
    demand_out = r_out * cfg.coarse_out

    b_in = demand_in if bw_in is None else min(Fraction(bw_in), demand_in)
    b_out = demand_out if bw_out is None else min(Fraction(bw_out), demand_out)

    term_in = Fraction(cfg.shape_in.numel) / b_in if b_in > 0 else Fraction(0)
    term_out = Fraction(cfg.shape_out.numel) / b_out if b_out > 0 else Fraction(0)
    total = max(term_in, term_out, Fraction(cycles))
    total_cycles = math.ceil(total)

    bound = "compute"
    if term_in >= term_out and b_in < demand_in and term_in > cycles:
        bound = "memory_in"
    elif term_out > term_in and b_out < demand_out and term_out > cycles:
        bound = "memory_out"
    return LatencyBreakdown(
        compute_cycles=cycles,
        bw_in=b_in,
        bw_out=b_out,
        bound=bound,
        total_cycles=total_cycles,
    )


def schedule_latency(schedule, dev=None) -> int:
    """Total cycles of a schedule: sum of per-invocation roofline latencies.

    Each part of the schedule keeps its cycles with the bandwidths they were
    scored at, so a layer plan reused from a parent schedule is not scored
    again at the same bandwidths.
    """
    bw_in = dev.bw_in_words_per_cycle if dev is not None else None
    bw_out = dev.bw_out_words_per_cycle if dev is not None else None
    bw = (bw_in, bw_out)
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
