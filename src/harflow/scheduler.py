"""Feature-map tiling scheduler and its independent coverage/latency oracles.

The scheduler walks the model in topological order, greedily tiles each
layer's feature-map over its computation node (channels fastest, filters
innermost for Conv/FC) and derives the runtime configuration of every
invocation. The oracles re-derive coverage and cycle counts by explicit
enumeration and are kept free of the analytical formulas they check.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .hardware_graph import HardwareGraph
from .model_ir import ModelGraph, TensorShape, _windowed_axis, topological_order
from .perf_model import RuntimeConfig

MODE_RUNTIME = "runtime_configurable"
MODE_PADDED = "padded_baseline"


class InfeasibleScheduleError(ValueError):
    def __init__(self, layer_id, node_id, reason):
        self.layer_id = layer_id
        self.node_id = node_id
        super().__init__(f"layer '{layer_id}' cannot run on node '{node_id}': {reason}")


@dataclass(frozen=True)
class ScheduleEntry:
    node_id: str
    layer_id: str
    tile_index: tuple  # (i_H, i_W, i_D, i_C, i_F)
    tile_origin: tuple  # input-space origin (d, h, w, c)
    tile_shape: tuple  # input-space extent (d, h, w, c)
    filter_origin: int
    filter_count: int
    config: RuntimeConfig

    def to_dict(self):
        return {
            "node": self.node_id,
            "layer": self.layer_id,
            "tile_index": list(self.tile_index),
            "tile_origin": list(self.tile_origin),
            "tile_shape": list(self.tile_shape),
            "filter_origin": self.filter_origin,
            "filter_count": self.filter_count,
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc) -> "ScheduleEntry":
        return cls(
            node_id=doc["node"],
            layer_id=doc["layer"],
            tile_index=tuple(doc["tile_index"]),
            tile_origin=tuple(doc["tile_origin"]),
            tile_shape=tuple(doc["tile_shape"]),
            filter_origin=int(doc["filter_origin"]),
            filter_count=int(doc["filter_count"]),
            config=RuntimeConfig.from_dict(doc["config"]),
        )


@dataclass
class Schedule:
    entries: list = field(default_factory=list)

    def __len__(self):
        return len(self.entries)


def _check_capability(layer, node_id, cap):
    if layer.kind != cap.kind:
        raise InfeasibleScheduleError(layer.id, node_id, f"kind mismatch ({cap.kind})")
    if layer.kind in ("Conv3D", "Pool3D"):
        if any(layer.kernel[i] > cap.kernel_max[i] for i in range(3)):
            raise InfeasibleScheduleError(
                layer.id, node_id, f"kernel {layer.kernel} exceeds {cap.kernel_max}"
            )
    if layer.op_type and layer.op_type not in cap.supports_types:
        raise InfeasibleScheduleError(
            layer.id, node_id, f"type '{layer.op_type}' not supported"
        )
    if layer.kind == "Conv3D" and layer.groups > 1:
        # grouped convolutions are never channel/filter tiled: splitting would
        # break group alignment
        if cap.shape_in_max.c < layer.primary_in.c or cap.filters_max < layer.filters:
            raise InfeasibleScheduleError(
                layer.id, node_id, "grouped convolution cannot be channel-tiled"
            )


def _axis_tiles(full: int, tile: int):
    """[(origin, extent), ...] partitioning `full` into tiles of `tile`."""
    n = -(-full // tile)
    return [(i * tile, min(tile, full - i * tile)) for i in range(n)]


def _tile_output_shape(layer, tile_shape, pad):
    """Windowed (D, H, W) output of one input tile under its border padding."""
    return tuple(
        max(0, _windowed_axis(x, k, j, pad[2 * i], pad[2 * i + 1]))
        for i, (x, k, j) in enumerate(zip(tile_shape[:3], layer.kernel, layer.stride))
    )


def _runtime_config(layer, cap, tile_shape, first, last, f_count, psum):
    td, th, tw, tc = tile_shape
    kind = layer.kind
    if kind in ("Conv3D", "Pool3D"):
        # border tiles keep the layer padding
        pad = tuple(
            p if on_border else 0
            for p, on_border in zip(
                layer.padding,
                (first[0], last[0], first[1], last[1], first[2], last[2]),
            )
        )
        od, oh, ow = _tile_output_shape(layer, tile_shape, pad)
        kvol = layer.kernel_volume
        if kind == "Conv3D":
            return RuntimeConfig(
                kind=kind,
                shape_in=TensorShape(td, th, tw, tc),
                shape_out=TensorShape(od, oh, ow, f_count),
                filters=f_count,
                kernel=layer.kernel,
                stride=layer.stride,
                padding=pad,
                groups=layer.groups,
                coarse_in=math.gcd(tc, cap.coarse_in),
                coarse_out=math.gcd(f_count, cap.coarse_out),
                fine=math.gcd(kvol, cap.fine),
                accumulate_psum=psum,
            )
        c = math.gcd(tc, cap.coarse_in)
        return RuntimeConfig(
            kind=kind,
            shape_in=TensorShape(td, th, tw, tc),
            shape_out=TensorShape(od, oh, ow, tc),
            kernel=layer.kernel,
            stride=layer.stride,
            padding=pad,
            op_type=layer.op_type,
            coarse_in=c,
            coarse_out=c,
        )
    if kind == "FullyConnected":
        return RuntimeConfig(
            kind=kind,
            shape_in=TensorShape(1, 1, 1, tc),
            shape_out=TensorShape(1, 1, 1, f_count),
            filters=f_count,
            coarse_in=math.gcd(tc, cap.coarse_in),
            coarse_out=math.gcd(f_count, cap.coarse_out),
            accumulate_psum=psum,
        )
    # Activation / ElementWise / GlobalAvgPool
    c = math.gcd(tc, cap.coarse_in)
    out = (
        TensorShape(1, 1, 1, tc)
        if kind == "GlobalAvgPool"
        else TensorShape(td, th, tw, tc)
    )
    return RuntimeConfig(
        kind=kind,
        shape_in=TensorShape(td, th, tw, tc),
        shape_out=out,
        op_type=layer.op_type,
        broadcast=layer.broadcast,
        coarse_in=c,
        coarse_out=c,
    )


def _padded_config(layer, cap, psum):
    """Non-runtime-configurable execution: the node runs at full compile-time size."""
    macs = cap.kind in ("Conv3D", "FullyConnected")
    windowed = cap.kind in ("Conv3D", "Pool3D")
    return RuntimeConfig(
        kind=cap.kind,
        shape_in=cap.shape_in_max,
        shape_out=cap.shape_out_max,
        filters=cap.filters_max if macs else 0,
        kernel=cap.kernel_max if windowed else (1, 1, 1),
        stride=layer.stride if windowed else (1, 1, 1),
        op_type="" if macs else layer.op_type,
        broadcast=layer.broadcast and not (macs or windowed),
        coarse_in=cap.coarse_in,
        coarse_out=cap.coarse_out,
        fine=cap.fine,
        accumulate_psum=psum and macs,
    )


def _layer_input_dims(layer):
    """Input space tiled by the scheduler; FC inputs are flattened."""
    if layer.kind == "FullyConnected":
        return 1, 1, 1, layer.fc_features
    s = layer.primary_in
    return s.d, s.h, s.w, s.c


def _node_tile_dims(cap):
    s = cap.shape_in_max
    return s.d, s.h, s.w, s.c


def build_schedule(model: ModelGraph, g: HardwareGraph, mode: str = MODE_RUNTIME) -> Schedule:
    """Emit the ordered invocation list covering every schedulable layer."""
    if mode not in (MODE_RUNTIME, MODE_PADDED):
        raise ValueError(f"unknown schedule mode '{mode}'")
    inv = g.inverse_mapping()
    schedule = Schedule()
    for lid in topological_order(model):
        if lid in g.fused:
            continue
        layer = model.layers[lid]
        if lid not in inv:
            raise InfeasibleScheduleError(lid, "<none>", "layer not mapped")
        node_id = inv[lid]
        cap = g.nodes[node_id]
        _check_capability(layer, node_id, cap)
        padded = mode == MODE_PADDED or not cap.runtime_configurable

        ld, lh, lw, lc = _layer_input_dims(layer)
        nd, nh, nw, nc = _node_tile_dims(cap)
        tiles_h = _axis_tiles(lh, nh)
        tiles_w = _axis_tiles(lw, nw)
        tiles_d = _axis_tiles(ld, nd)
        tiles_c = _axis_tiles(lc, nc)
        if layer.kind in ("Conv3D", "FullyConnected"):
            tiles_f = _axis_tiles(layer.filters, cap.filters_max)
        else:
            tiles_f = [(0, 0)]

        config_memo = {}  # interior tiles repeat the same configuration
        for (ih, (oh, th)), (iw, (ow, tw)), (idx_d, (od, td)), (ic, (oc, tc)) in itertools.product(
            enumerate(tiles_h), enumerate(tiles_w), enumerate(tiles_d), enumerate(tiles_c)
        ):
            first = (idx_d == 0, ih == 0, iw == 0)
            last = (
                idx_d == len(tiles_d) - 1,
                ih == len(tiles_h) - 1,
                iw == len(tiles_w) - 1,
            )
            psum = ic < len(tiles_c) - 1
            for i_f, (of, tf) in enumerate(tiles_f):
                key = ((td, th, tw, tc), first, last, tf, psum)
                cfg = config_memo.get(key)
                if cfg is None:
                    if padded:
                        cfg = _padded_config(layer, cap, psum)
                    else:
                        cfg = _runtime_config(
                            layer, cap, (td, th, tw, tc), first, last, tf, psum
                        )
                    config_memo[key] = cfg
                schedule.entries.append(
                    ScheduleEntry(
                        node_id=node_id,
                        layer_id=lid,
                        tile_index=(ih, iw, idx_d, ic, i_f),
                        tile_origin=(od, oh, ow, oc),
                        tile_shape=(td, th, tw, tc),
                        filter_origin=of,
                        filter_count=tf,
                        config=cfg,
                    )
                )
    return schedule


# ---------------------------------------------------------------------------
# Oracles


@dataclass
class CoverageReport:
    passed: bool
    failures: list = field(default_factory=list)  # (layer_id, kind, coordinates)


ORACLE_CELL_CAP = 64**4


def coverage_oracle(schedule: Schedule, model: ModelGraph, fused=(),
                    cell_cap=ORACLE_CELL_CAP) -> CoverageReport:
    """Exact-cover check: every input cell (and filter, for Conv/FC) exactly once.

    `fused` lists layer ids legitimately absent from the schedule (activations
    absorbed into their producer); every other layer must be fully covered.
    """
    by_layer = {}
    for entry in schedule.entries:
        by_layer.setdefault(entry.layer_id, []).append(entry)
    report = CoverageReport(passed=True)
    for lid, layer in model.layers.items():
        if lid in fused:
            continue
        entries = by_layer.get(lid, [])
        ld, lh, lw, lc = _layer_input_dims(layer)
        with_filters = layer.kind in ("Conv3D", "FullyConnected")
        nf = layer.filters if with_filters else 1
        if ld * lh * lw * lc * nf > cell_cap:
            continue
        grid = np.zeros((ld, lh, lw, lc, nf), dtype=np.int32)
        for e in entries:
            od, oh, ow, oc = e.tile_origin
            td, th, tw, tc = e.tile_shape
            of, tf = (e.filter_origin, e.filter_count) if with_filters else (0, 1)
            grid[od : od + td, oh : oh + th, ow : ow + tw, oc : oc + tc, of : of + tf] += 1
        if not np.all(grid == 1):
            dup = np.argwhere(grid > 1)
            gap = np.argwhere(grid == 0)
            report.passed = False
            if dup.size:
                report.failures.append((lid, "duplicate", dup[:10].tolist()))
            if gap.size:
                report.failures.append((lid, "gap", gap[:10].tolist()))
    return report


def _compute_cycles_oracle(cfg: RuntimeConfig) -> int:
    """Cycle count by explicit enumeration of fold steps (unlimited bandwidth)."""
    if cfg.kind == "Conv3D":
        out = cfg.shape_out
        c_per_group = cfg.shape_in.c // cfg.groups
        count = 0
        for _pos in itertools.product(range(out.d), range(out.h), range(out.w)):
            for _fg in range(0, cfg.filters, cfg.coarse_out):
                for _cg in range(0, c_per_group, cfg.coarse_in):
                    count += len(range(0, cfg.kernel_volume, cfg.fine))
        return count
    if cfg.kind == "FullyConnected":
        count = 0
        for _fg in range(0, cfg.filters, cfg.coarse_out):
            for _cg in range(0, cfg.shape_in.c, cfg.coarse_in):
                count += 1
        return count
    s = cfg.shape_in
    count = 0
    for _pos in itertools.product(range(s.d), range(s.h), range(s.w)):
        for _cg in range(0, s.c, cfg.coarse_in):
            count += 1
    return count


def _word_counts_oracle(cfg: RuntimeConfig):
    """(words_in, words_out, psum_words, weight_words) by enumeration."""
    words_in = sum(1 for _ in itertools.product(*(range(x) for x in cfg.shape_in.to_list())))
    words_out = sum(1 for _ in itertools.product(*(range(x) for x in cfg.shape_out.to_list())))
    weight_words = 0
    psum_words = 0
    if cfg.kind in ("Conv3D", "FullyConnected"):
        for _c in range(cfg.shape_in.c // cfg.groups):
            for _f in range(cfg.filters):
                weight_words += cfg.kernel_volume
        if cfg.accumulate_psum:
            psum_words = words_out
    return words_in, words_out, psum_words, weight_words


def _invocation_cycles_oracle(cfg: RuntimeConfig, bw_in, bw_out) -> int:
    cycles = _compute_cycles_oracle(cfg)
    if cycles == 0:
        return 0
    words_in, words_out, psum_words, weight_words = _word_counts_oracle(cfg)
    demand_in = Fraction(words_in + psum_words + weight_words, cycles)
    demand_out = Fraction(words_out, cycles)
    b_in = demand_in if bw_in is None else min(Fraction(bw_in), demand_in)
    b_out = demand_out if bw_out is None else min(Fraction(bw_out), demand_out)
    term_in = Fraction(words_in) / b_in if b_in > 0 else Fraction(0)
    term_out = Fraction(words_out) / b_out if b_out > 0 else Fraction(0)
    return math.ceil(max(term_in, term_out, Fraction(cycles)))


def schedule_latency_oracle(schedule: Schedule, dev=None) -> int:
    """Independent total-latency count; must equal perf_model.schedule_latency."""
    bw_in = dev.bw_in_words_per_cycle if dev is not None else None
    bw_out = dev.bw_out_words_per_cycle if dev is not None else None
    return sum(
        _invocation_cycles_oracle(e.config, bw_in, bw_out) for e in schedule.entries
    )
