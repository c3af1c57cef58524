"""Analytical latency model: compute cycles and the bandwidth roofline.

One `roofline` scores an invocation from four integers: its work (MACs, or
elements streamed), the lanes that share it per cycle, and the words it
reads and writes. It is computed in integers: a rational DMA bandwidth
enters as its numerator and denominator, and memory terms are compared by
cross-multiplication, so the model can be checked against brute-force cycle
counters with exact integer equality. Its total is max(⌈work / lanes⌉,
`memory_cycles`), the memory term the larger of the two transfers' ceilings;
docs/perf-model.md states the model. `compute_latency` and
`invocation_latency` score one `RuntimeConfig` through it (`config_terms`),
for checks that hold a config; no harflow command calls them.

`schedule_latency` sums the cycles of a schedule's nodes. A search scores a
layer plan with `lane_cycles`: the same total per invocation, from its
tiling's fold-free terms, the lanes its node's folds give each width, and
memory cycles the tiling keeps per bandwidth pair; no `roofline` call and
no config. Each node of a schedule keeps its cycles per bandwidth pair, so
a node that a search chain's memo shares among its schedules is scored once
per chain and device.
"""

from dataclasses import astuple, dataclass
from functools import lru_cache

from .model_ir import FILTER_KINDS, WINDOWED_KINDS, TensorShape


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
        return config_document(*astuple(self))


def config_document(kind, shape_in, shape_out, filters, kernel, stride, padding, groups,
                    op_type, broadcast, coarse_in, coarse_out, fine, accumulate_psum) -> dict:
    """The schedule.json document of the config with these `RuntimeConfig`
    fields, shapes as (d, h, w, c) sequences: the fields its kind takes, in
    the file's key order. Every config document is written by it."""
    d = {"kind": kind, "shape_in": list(shape_in), "shape_out": list(shape_out),
         "coarse_in": coarse_in, "coarse_out": coarse_out}
    if kind in FILTER_KINDS:
        d["filters"] = filters
        d["accumulate_psum"] = accumulate_psum
    if kind in WINDOWED_KINDS:
        d["kernel"] = list(kernel)
        d["stride"] = list(stride)
        d["padding"] = list(padding)
    if kind == "Conv3D":
        d["groups"] = groups
        d["fine"] = fine
    if op_type:
        d["type"] = op_type
    if kind == "ElementWise":
        d["broadcast"] = broadcast
    return d


@dataclass(frozen=True)
class LatencyBreakdown:
    compute_cycles: int
    bound: str  # compute | memory_in | memory_out
    total_cycles: int


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def work_terms(kind, shape_in, shape_out, filters, kernel_volume) -> tuple:
    """(work, words_in, words_out) of one invocation over (d, h, w, c) shapes,
    before folding. The work of a filter kind is its MACs, an FC invocation
    counted as a 1x1x1 conv over its flattened input (1, 1, 1, C); any other
    kind streams its input elements."""
    d, h, w, c = shape_in
    od, oh, ow, oc = shape_out
    words_in = d * h * w * c
    work = od * oh * ow * c * filters * kernel_volume if kind in FILTER_KINDS else words_in
    return work, words_in, od * oh * ow * oc


def fold_lanes(kind, groups, coarse_in, coarse_out, fine) -> int:
    """Work done per cycle: a filter kind's folds times its groups, else one
    element per cycle per input stream."""
    return groups * coarse_in * coarse_out * fine if kind in FILTER_KINDS else coarse_in


def config_terms(cfg: RuntimeConfig) -> tuple:
    """(work, lanes, words_in, words_out) of one invocation of `cfg`."""
    work, words_in, words_out = work_terms(cfg.kind, cfg.shape_in.to_list(),
                                           cfg.shape_out.to_list(), cfg.filters,
                                           cfg.kernel_volume)
    lanes = fold_lanes(cfg.kind, cfg.groups, cfg.coarse_in, cfg.coarse_out, cfg.fine)
    return work, lanes, words_in, words_out


def compute_latency(cfg: RuntimeConfig) -> int:
    """Cycles assuming unlimited memory bandwidth, rounded up to integers."""
    work, lanes, _, _ = config_terms(cfg)
    return _ceil_div(work, lanes)


def _transfer(words: int, bw):
    """words / bw cycles as an exact (numerator, denominator); (0, 1) for bw None."""
    if bw is None:
        return 0, 1
    num, den = bw.as_integer_ratio()
    return words * den, num


def memory_cycles(words_in, words_out, bw_in=None, bw_out=None) -> int:
    """max(⌈words_in / bw_in⌉, ⌈words_out / bw_out⌉): the memory term of an
    invocation's roofline, which no fold enters; 0 at unlimited bandwidth."""
    a, b = _transfer(words_in, bw_in)
    c, d = _transfer(words_out, bw_out)
    return max(_ceil_div(a, b), _ceil_div(c, d))


def roofline(work, lanes, words_in, words_out, bw_in=None, bw_out=None) -> tuple:
    """(compute cycles, bound, total cycles) of one invocation: the total is
    max(⌈work / lanes⌉, `memory_cycles`), the ceiling of the largest of
    work / lanes, words_in / bw_in and words_out / bw_out.

    bw_in / bw_out are DMA caps in words/cycle (int, Fraction or None for
    unlimited). The bound names the term that sets the total: compute wins
    every tie and memory_in wins a tie with memory_out. An invocation without
    work (a tile that yields no output) takes 0 cycles.
    """
    cycles = _ceil_div(work, lanes)
    if cycles == 0:
        return 0, "compute", 0
    total = max(cycles, memory_cycles(words_in, words_out, bw_in, bw_out))
    a, b = _transfer(words_in, bw_in)  # T_in = a / b
    c, d = _transfer(words_out, bw_out)  # T_out = c / d
    if a > cycles * b and a * d >= c * b:
        return cycles, "memory_in", total
    if c > cycles * d and c * b > a * d:
        return cycles, "memory_out", total
    return cycles, "compute", total


def lane_cycles(terms, lanes, memory) -> int:
    """Cycles of the invocations of one layer plan: Σ n·max(⌈work / lanes⌉,
    mem) over its fold-free `terms`, each (work, words in, words out, width,
    n), at `lanes[width]` lanes and `memory` cycles each (`memory_cycles`,
    taken as 0 for a term without work). Per term it is `roofline`'s total."""
    return sum(n * max(-(-work // lanes[k]), mem)
               for (work, _, _, k, n), mem in zip(terms, memory))


@lru_cache(maxsize=1 << 16)
def invocation_latency(cfg: RuntimeConfig, bw_in=None, bw_out=None) -> LatencyBreakdown:
    """`roofline` of one invocation of `cfg`, cached per (config, bandwidths)."""
    return LatencyBreakdown(*roofline(*config_terms(cfg), bw_in, bw_out))


def schedule_latency(schedule, dev=None) -> int:
    """Total cycles of a schedule: the sum of its nodes' cycles (see
    `Schedule.nodes`), each scored by its `score` at the device's
    bandwidths.

    Each node keeps its cycles per bandwidth pair, so a node reused from a
    chain's memo is not scored again at the same bandwidths; one schedule
    may be scored at two devices.
    """
    bw = (None, None) if dev is None else (dev.bw_in_words_per_cycle,
                                           dev.bw_out_words_per_cycle)
    total = 0
    for node in schedule.nodes:
        cycles = node.cycles.get(bw)
        if cycles is None:
            cycles = node.cycles[bw] = node.score(bw)
        total += cycles
    return total
