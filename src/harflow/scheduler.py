"""Feature-map tiling scheduler and its independent coverage/latency oracles.

The scheduler walks the model in topological order, greedily tiles each
layer's feature-map over its computation node (channels fastest, filters
innermost for Conv/FC) and counts the invocations of each distinct runtime
configuration; the invocation list itself is expanded on demand.

A layer is planned in two steps. Its tiling depends only on the layer, its
node's tile shape cut to the layer's extents and the schedule mode: how
tiles cut each axis (`_AxisCut`, the one source of every tile's index,
origin, extent, padding and class, in tile order), the invocations of each
combination of the axes' parts and, at runtime, each combination's fold-free
roofline terms (work, words in and out) and whether one has no work. The
fold pass then cuts the node's folds per distinct (channels, filters) of the
combinations (`_folds`) into one lane count each: a runtime plan is its
tiling and those lanes. A padded plan takes its terms and lanes from its
node, which runs every tile at full size. A plan derives its roofline terms
only when a report reads them, and builds its configs only when its `groups`
are first read (tests, the benchmark), never in a command or a search.

A built schedule is one record per node (`_NodeRecord`): its plans, its
invocations, its no-output verdicts and its cycles per bandwidth pair. So
its length, latency and constraint check cost O(nodes); the plans in model
order (`Schedule.parts`) are listed only when rows, groups or terms are
read. A plan's cycles come from its tiling, which keeps its memory cycles
per bandwidth pair (no fold enters them) and its score per (lanes,
bandwidths), shared by every plan whose folds cut to those lanes.

A search chain passes `build_schedule` its `ChainMemo`; the chain's model and
mode are fixed. It holds each node's record, keyed on (node id, capability,
layer ids): a node whose key it holds takes that record, already scored.
Below that it holds every plan built, keyed on (layer id, node id,
capability); every tiling, keyed on (layer id, cut tile shape), so a move
that changes only folds re-tiles nothing; and each axis's cut, keyed on
(layer id, axis, extent, tile), so a new tile shape derives only the axes
it changed.

`schedule_json` writes schedule.json text: a `configs` table holds each
config document once, and each entry names its config by index into it.
A layer plan formats its own entries (`_LayerPlan.entry_texts`) a run of
C tiles of one class at a time: per (h, w, d) tile and run, one row of
pieces for one C tile, repeated per C tile of the run, each tile's index
and origin texts slice-assigned in, and one join. `_Groups` formats row by
row. `is_schedule_json` compares a text with the one `schedule_json` would
write, a part at a time; `check_schedule_doc` compares a decoded document
with the schedule's entries, in order, every field, configs as documents.
Both read `Schedule.texts`, so each part is formatted once; no
`ScheduleEntry` is built on any path unless `Schedule.entries` is read.

The oracles re-derive coverage and cycle counts by explicit enumeration and
are kept free of the analytical formulas they check.
"""

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import attrgetter

from .hardware_graph import HardwareGraph
from .model_ir import FILTER_KINDS, ModelGraph, TensorShape, _windowed_axis, require_keys
from .perf_model import (
    RuntimeConfig, config_document, config_terms, fold_lanes, lane_cycles, memory_cycles,
    roofline, work_terms,
)

MODE_RUNTIME = "runtime_configurable"
MODE_PADDED = "padded_baseline"


class InfeasibleScheduleError(ValueError):
    def __init__(self, layer_id, node_id, reason):
        self.layer_id = layer_id
        self.node_id = node_id
        super().__init__(f"layer '{layer_id}' cannot run on node '{node_id}': {reason}")


@dataclass(frozen=True, slots=True)
class ScheduleEntry:
    node_id: str
    layer_id: str
    tile_index: tuple  # (i_H, i_W, i_D, i_C, i_F)
    tile_origin: tuple  # input-space origin (d, h, w, c)
    tile_shape: tuple  # input-space extent (d, h, w, c)
    filter_origin: int
    filter_count: int
    config: RuntimeConfig


_ENTRY_ROW = attrgetter(*ScheduleEntry.__slots__)  # an entry's row: its fields, in order


class Schedule:
    """Ordered invocation list of a model, held as counted groups.

    `nodes` holds what latency, constraint checks and the length read, one
    unit per node of a built schedule (`_NodeRecord`), one for all groups of
    `Schedule(entries)` (`_Groups`). Each unit has its invocations in
    `invocations`, its (node id, layer id) pairs with a tile without output
    in `no_output`, and its cycles per bandwidth pair in `cycles`, which
    `perf_model.schedule_latency` fills through its `score`. So a search
    reads O(nodes) per schedule.

    `parts` lists the units that rows and terms are read from: a built
    schedule's layer plans in `model.order`, made on first read; the one
    `_Groups` of `Schedule(entries)`. `groups` has one (node_id, layer_id,
    config, count) per distinct config of each layer, in schedule order,
    worked out when first asked for, and a built schedule's configs are
    made only then or when `rows()` or `entries` is read. `rows()` streams
    every invocation from the parts; `entries` lists them as
    `ScheduleEntry` objects, kept when given and built on first access
    otherwise; `texts` formats the parts' entry texts (`_EntryTexts`). An
    empty schedule has no nodes.
    """

    def __init__(self, entries=(), nodes=None, order=None):
        self._entries = None
        if nodes is None:
            entries = self._entries = list(entries)
            nodes = [_Groups(Counter((e.node_id, e.layer_id, e.config) for e in entries),
                             lambda: map(_ENTRY_ROW, entries))] if entries else []
        self.nodes = nodes
        self._order = order  # a built schedule's layer order; None when its nodes are its parts

    @cached_property
    def parts(self) -> list:
        if self._order is None:
            return self.nodes
        plans = {}
        for node in self.nodes:
            plans.update(node.plans)
        return [plans[lid] for lid in self._order if lid in plans]

    @cached_property
    def groups(self) -> list:
        return [g for part in self.parts for g in part.groups]

    @cached_property
    def texts(self) -> "_EntryTexts":
        return _EntryTexts(self.parts)

    def rows(self):
        """Each invocation's row, in schedule order: the fields of its
        `ScheduleEntry`, in order, as a plain tuple."""
        return itertools.chain.from_iterable(part.rows() for part in self.parts)

    @property
    def entries(self) -> list:
        if self._entries is None:
            self._entries = list(itertools.starmap(ScheduleEntry, self.rows()))
        return self._entries

    def __len__(self):
        return sum(node.invocations for node in self.nodes)


# the text `json.dumps` writes for an entry document past its 'tile_index' key,
# each "%d" one integer
_ENTRY_TEXT = ('%d, %d, %d, %d, %d], "tile_origin": [%d, %d, %d, %d], "tile_shape": '
               '[%d, %d, %d, %d], "filter_origin": %d, "filter_count": %d, "config": %d}')


def _entry_start(node_id, layer_id) -> str:
    """The text `json.dumps` writes for an entry document up to its first tile index."""
    return f'{{"node": {json.dumps(node_id)}, "layer": {json.dumps(layer_id)}, "tile_index": ['


def _config_index(doc, index: dict, configs: list) -> int:
    """Position of config document `doc` in `configs`, a schedule.json's in
    first-use order: `index` maps id(doc), of a document `configs` keeps
    alive, to it, and a document not seen yet is appended."""
    i = index.get(id(doc))
    if i is None:
        i = index[id(doc)] = len(configs)
        configs.append(doc)
    return i


def _head_text(head: dict, configs: list) -> str:
    """The text `json.dumps` writes for a schedule.json document of `head`
    and `configs` up to its first entry: it ends in '"entries": ['."""
    return json.dumps(dict(head, configs=configs, entries=[]), check_circular=False)[:-2]


def schedule_json(head: dict, schedule: Schedule) -> str:
    """schedule.json text: `head`, then `configs`, each config object of the
    schedule once in first-use order, then `entries`, each naming its config
    by index into `configs`: what `json.dumps` writes. Each part of the
    schedule formats its own entries (`entry_texts`), as texts of one or
    more entries: a layer plan one per (h, w, d) tile and run of C tiles of
    one class, `_Groups` one per row."""
    index, configs, entries = {}, [], []
    for part in schedule.parts:
        entries += part.entry_texts(index, configs)
    head_text = _head_text(head, configs)
    if not entries:
        return f"{head_text}]}}\n"
    entries[0] = head_text + entries[0]
    entries[-1] += "]}\n"
    return ", ".join(entries)  # the text is copied once


_ENTRIES_KEY = '"entries": ['


def is_schedule_json(text: str, head: dict, schedule: Schedule) -> bool:
    """Whether `text` is `schedule_json(head, schedule)`, compared part by
    part: each part's entry texts at their offsets past the first
    '"entries": [' of `text`, then the head and config table before it and
    the end after them. The config table is known only once every entry is
    formatted, so it is compared last. It returns False at the first
    difference, formatting no part past it, and builds no whole text.
    (`json.dumps` escapes every '"' inside a string, so in the text
    `schedule_json` writes the first '"entries": [' is the entries key, as
    long as `head` nests no "entries" key.)"""
    at = start = text.find(_ENTRIES_KEY) + len(_ENTRIES_KEY)
    if start < len(_ENTRIES_KEY):  # no entries key
        return False
    texts, sep = schedule.texts, ""
    for part in texts:
        for entries in part:
            if not (text.startswith(sep, at) and text.startswith(entries, at + len(sep))):
                return False
            at += len(sep) + len(entries)
            sep = ", "
    head_text = _head_text(head, texts.configs)
    return (len(head_text) == start and text.startswith(head_text)
            and len(text) == at + 3 and text.endswith("]}\n"))


class _EntryTexts:
    """A schedule's entry texts, a list per part (`entry_texts`), and the
    config table they index, each part formatted when first read: so
    `check_schedule_doc` reads on where `is_schedule_json` stopped."""

    def __init__(self, parts):
        self.index, self.configs, self.formatted, self._parts = {}, [], [], iter(parts)

    def __iter__(self):
        yield from self.formatted
        for part in self._parts:
            self.formatted.append(part.entry_texts(self.index, self.configs))
            yield self.formatted[-1]


def _same(a, b) -> bool:
    """Whether JSON values `a` and `b`, neither an object, are equal with
    their JSON types: 1.0 and true are not 1."""
    return type(a) is type(b) and (len(a) == len(b) and all(map(_same, a, b))
                                   if type(a) is list else a == b)


def check_schedule_doc(doc: dict, schedule: Schedule):
    """Check that the decoded schedule.json document `doc` holds `schedule`:
    `configs` and `entries` are arrays, each element of `configs` equals, as
    a document, a config the schedule runs, and each entry, its `config`
    resolved through `configs`, equals the schedule's entry at its position,
    values with their JSON types. Else ValueError names the first config
    index, or the first entry and field, that differs; the head is not
    compared. A document that `json.dumps` writes as `schedule_json` does
    passes on one comparison of texts; any other is compared entry by entry
    with the entry documents of that text, configs as documents, as the
    schedule's own table can hold one config at two indices."""
    require_keys(doc, ("configs", "entries"), "document", ValueError)
    configs, entries = doc["configs"], doc["entries"]
    for key, value in (("configs", configs), ("entries", entries)):
        if type(value) is not list:
            raise ValueError(f"'{key}' must be an array, got {type(value).__name__}")
    texts = schedule.texts
    text = f"[{', '.join(t for part in texts for t in part)}]"
    own = texts.configs
    if json.dumps(configs) == json.dumps(own) and text == json.dumps(
            entries, check_circular=False):  # a decoded document holds no cycles
        return
    keys, own_keys = ([json.dumps(c, sort_keys=True) for c in table] for table in (configs, own))
    for i in (i for i, key in enumerate(keys) if key not in own_keys):
        raise ValueError(f"config {i} is no config the design runs")
    wanted = json.loads(text)
    for n, (got, want) in enumerate(zip(entries, wanted)):
        require_keys(got, want, f"entry {n}", ValueError)
        for key, value in want.items():
            if key == "config":
                i = got[key]
                if not (type(i) is int and 0 <= i < len(keys) and keys[i] == own_keys[value]):
                    raise ValueError(f"entry {n} 'config' {json.dumps(i)} names no config "
                                     f"equal to the design's")
            elif not _same(got[key], value):
                raise ValueError(f"entry {n} '{key}' is {json.dumps(got[key])}, not the "
                                 f"design's {json.dumps(value)}")
        if len(got) > len(want):
            extra = next(key for key in got if key not in want)
            raise ValueError(f"entry {n} has '{extra}', a key the design's entries lack")
    if len(entries) != len(wanted):
        raise ValueError(f"entry {min(len(entries), len(wanted))}: the file lists "
                         f"{len(entries)} entries, the design runs {len(wanted)}")


class _Groups:
    """Counted groups, from `counts` of (node id, layer id, config): the one
    node and part of `Schedule(entries)`. `rows()` gives their invocations'
    rows. `terms` has each group's (node id, layer id, work, lanes, words
    in, words out, count) (see `perf_model.config_terms`), `no_output` the
    (node id, layer id) of each group without work, `invocations` their
    count and `cycles` their cycles per bandwidth pair, which `score` gives
    through `perf_model.roofline`."""

    __slots__ = ("groups", "terms", "no_output", "rows", "cycles", "invocations")

    def __init__(self, counts, rows):
        self.groups = [(*key, n) for key, n in counts.items()]
        self.invocations = counts.total()
        self.terms = [(node, layer, *config_terms(cfg), n) for node, layer, cfg, n in self.groups]
        self.no_output = [(node, layer) for node, layer, work, *_ in self.terms if work == 0]
        self.rows = rows
        self.cycles = {}

    def score(self, bw) -> int:
        return sum(roofline(work, lanes, words_in, words_out, *bw)[2] * n
                   for _, _, work, lanes, words_in, words_out, n in self.terms)

    def entry_texts(self, index, configs) -> list:
        """The schedule.json text of each row's entry (see
        `_LayerPlan.entry_texts`), formatted one row at a time, each (node,
        layer) pair of ids encoded once, each config object's document once."""
        starts, docs, texts = {}, {}, []  # starts: (node id, layer id) -> `_entry_start`
        for node, layer, tile_index, origin, shape, f_origin, f_count, cfg in self.rows():
            start = starts.get((node, layer))
            if start is None:
                start = starts[node, layer] = _entry_start(node, layer)
            doc = docs.get(id(cfg)) or docs.setdefault(id(cfg), cfg.to_dict())
            texts.append(start + _ENTRY_TEXT % (*tile_index, *origin, *shape, f_origin, f_count,
                                                _config_index(doc, index, configs)))
        return texts


def _tile_shapes(layer, parts) -> tuple:
    """(shape_in, shape_out), each (d, h, w, c), of the tiles whose per-axis
    parts (see `_AxisCut`) are runtime `parts`."""
    (th, _, _, oh), (tw, _, _, ow), (td, _, _, od), (tc, _), tf = parts
    return (td, th, tw, tc), (od, oh, ow, tf if layer.kind in FILTER_KINDS else tc)


def _folds(layer, cap, tc, tf) -> tuple:
    """(coarse_in, coarse_out, fine) of a runtime tile of `tc` channels and
    `tf` filters on `cap`: each of the node's folds cut to divide what it
    folds (a node's `fine` is 1 outside Conv3D; a kind without filters
    folds its output as its input)."""
    c_in = math.gcd(tc, cap.coarse_in)
    c_out = math.gcd(tf, cap.coarse_out) if layer.kind in FILTER_KINDS else c_in
    return c_in, c_out, math.gcd(layer.kernel_volume, cap.fine)


def _tile_config(layer, cap, parts) -> tuple:
    """The runtime config of the tiles whose per-axis parts are `parts`, as
    `RuntimeConfig`'s fields in order, shapes as (d, h, w, c): their own
    shape and border padding, the layer's other operator fields, folds cut
    to fit (`_folds`). A layer without filters has one empty filter tile."""
    (_, ph0, ph1, _), (_, pw0, pw1, _), (_, pd0, pd1, _), (tc, psum), tf = parts
    return (layer.kind, *_tile_shapes(layer, parts), tf, layer.kernel, layer.stride,
            (pd0, pd1, ph0, ph1, pw0, pw1), layer.groups, layer.op_type, layer.broadcast,
            *_folds(layer, cap, tc, tf), psum)


def _padded_config(layer, cap, parts) -> tuple:
    """Non-runtime-configurable execution, as `_tile_config`: the node runs at
    full compile-time size, so `filters` and `kernel` are the node's, and the
    other operator fields the layer's but `padding` and `groups`, which keep
    their defaults. Of the per-axis parts only the partial-sum flag is left."""
    return (cap.kind, cap.shape_in_max.to_list(), cap.shape_out_max.to_list(), cap.filters_max,
            cap.kernel_max, layer.stride, (0,) * 6, 1, layer.op_type, layer.broadcast,
            cap.coarse_in, cap.coarse_out, cap.fine, parts[3])


class _AxisCut:
    """How tiles of `tile` cut axis `axis` (0-4: H, W, D, C, F) of extent
    `full` of `layer` in mode `mode`: the one source of each tile's index,
    origin, extent and config part. Each tile is `tile` long but the last;
    an empty axis has one empty tile. `origins` has each tile's input
    origin: its index times the step `origins.step`.

    `classes` has the tile classes in tile order (first, interior, last),
    each as (first index, end index, input extent, padding at the start, at
    the end, output extent), and `parts` has each class's (part, tile
    count), in the same order. Only a D, H or W tile at the border of its
    axis takes the layer's padding, and each slides the layer's window over
    itself alone; a C or F tile is unpadded, its extent its output. A part
    is what the class's tiles give their config: at runtime the extent,
    padding and output extent on D, H and W, the extent and partial-sum flag
    on C, the filter count on F; a padded tile runs at its node's full size,
    so only the partial-sum flag is left."""

    __slots__ = ("classes", "parts", "origins")

    def __init__(self, layer, axis, full, tile, mode):
        n, runtime = max(1, -(-full // tile)), mode == MODE_RUNTIME
        self.origins, self.classes, self.parts = range(0, n * tile, tile), [], []
        # before the last tile: the first, and the interior tiles of an axis of more than two
        ahead = ((0, 1, tile), (1, n - 1, tile)) if n > 2 else ((0, 1, tile),) * (n - 1)
        for lo, hi, x in (*ahead, (n - 1, n, full - (n - 1) * tile)):
            start, end, out, part = 0, 0, x, x
            if axis < 3:  # a kind that takes no kernel has the unit window and no padding
                i = (1, 2, 0)[axis]  # kernel, stride and padding are in (D, H, W) order
                start = layer.padding[2 * i] if lo == 0 else 0
                end = layer.padding[2 * i + 1] if hi == n else 0
                out = 1 if layer.kind == "GlobalAvgPool" else max(0, _windowed_axis(
                    x, layer.kernel[i], layer.stride[i], start, end))  # pool: one per channel
                part = (x, start, end, out)
            if axis == 3:
                psum = layer.kind in FILTER_KINDS and hi < n
                part = (x, psum) if runtime else psum
            elif not runtime:
                part = None
            self.classes.append((lo, hi, x, start, end, out))
            self.parts.append((part, hi - lo))

    def tiles(self) -> list:
        """(index, origin, input extent, class position) of each tile, in tile order."""
        step = self.origins.step
        return [(i, i * step, x, k) for k, (lo, hi, x, _, _, _) in enumerate(self.classes)
                for i in range(lo, hi)]


@dataclass
class ChainMemo:
    """Everything one search chain has computed that its later moves reuse:
    `costs` maps a node capability to its resources (see
    `resource_model.graph_resources`); `nodes` maps (node id, capability,
    layer ids) to the node's record (`_NodeRecord`: its layer plans,
    invocations, no-output verdicts and cycles per bandwidth pair); `plans`
    maps (layer id, node id, capability) to a layer plan; `tilings` maps
    (layer id, axes) to a layer's tiling (see `_plan_layer`), which keeps
    its plans' scores per (lanes, bandwidths); and `axes` maps (layer id,
    axis, full, tile) to how tiles cut that axis (`_AxisCut`). No search
    step builds a config. No key names the model, the schedule mode
    or the device, so a memo serves one chain: one model, mode and device."""

    costs: dict = field(default_factory=dict)
    nodes: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)
    tilings: dict = field(default_factory=dict)
    axes: dict = field(default_factory=dict)


def _memory(terms, bw) -> list:
    """`perf_model.memory_cycles` of each of the fold-free `terms` at
    bandwidths `bw`, 0 for a term without work: a tile without output takes
    no cycles."""
    return [memory_cycles(words_in, words_out, *bw) if work else 0
            for work, words_in, words_out, _, _ in terms]


@dataclass(eq=False, slots=True)
class _Tiling:
    """A layer's tiling over one tile shape in one mode, the same for every
    fold: (full, tile) per axis (H, W, D, C, F) in `axes`, how tiles cut each
    axis (`_AxisCut`) in `cuts`, and the invocations of each combination of
    per-axis parts in `counts`, in schedule order, `invocations` in all.
    `slots` has, per combination of per-axis tile classes in product order,
    the position of its parts in `counts`. At runtime `widths` has each
    distinct (channels, filters) of the combinations, which fix their folds
    (`_folds`); `terms` has, per combination of parts in `counts` order, its
    fold-free terms: (work, words in, words out, position of its width in
    `widths`, invocations) (see `perf_model.work_terms`); and `no_output` says
    whether a combination has no work, a tile without output, whatever the
    folds. No fold enters a term's memory cycles either: `memory` keeps them
    per bandwidth pair (`_memory`), and `scores` keeps the cycles of the
    tiling's invocations per (lanes per width, bandwidth pair), shared by
    every plan whose folds cut to those lanes (`score`)."""

    axes: tuple
    cuts: list
    mode: str
    counts: dict
    slots: list
    widths: list
    terms: list
    invocations: int
    no_output: bool = False
    memory: dict = field(default_factory=dict)
    scores: dict = field(default_factory=dict)

    def score(self, lanes, bw) -> int:
        """Cycles of the invocations at `lanes` per width and bandwidths `bw`
        (`perf_model.lane_cycles`), computed once per (lanes, bw)."""
        key = (lanes, bw)
        cycles = self.scores.get(key)
        if cycles is None:
            memory = self.memory.get(bw)
            if memory is None:
                memory = self.memory[bw] = _memory(self.terms, bw)
            cycles = self.scores[key] = lane_cycles(self.terms, lanes, memory)
        return cycles


def _tile_layer(layer, axes, mode, memo: ChainMemo) -> _Tiling:
    """The tiling of `layer` over `axes`. Per axis a layer has at most three
    tile classes (first, interior, last), so its combinations of parts and
    their counts are a product over classes. An axis's cut is taken from
    `memo` when it holds it."""
    cuts = []
    for axis, (full, tile) in enumerate(axes):
        key = (layer.id, axis, full, tile)
        cuts.append(memo.axes.get(key) or memo.axes.setdefault(
            key, _AxisCut(layer, axis, full, tile, mode)))
    counts, slot, slots = {}, {}, []
    for (ph, kh), (pw, kw), (pd, kd), (pc, kc), (pf, kf) in itertools.product(
            *(cut.parts for cut in cuts)):
        parts = (ph, pw, pd, pc, pf)
        counts[parts] = counts.get(parts, 0) + kh * kw * kd * kc * kf
        slots.append(slot.setdefault(parts, len(slot)))
    widths = {}
    terms = [] if mode == MODE_PADDED else [
        (*work_terms(layer.kind, *_tile_shapes(layer, parts), parts[4], layer.kernel_volume),
         widths.setdefault((parts[3][0], parts[4]), len(widths)), n)
        for parts, n in counts.items()]
    return _Tiling(axes, cuts, mode, counts, slots, list(widths), terms, sum(counts.values()),
                   any(work == 0 for work, *_ in terms))


def _padded_terms(cap) -> tuple:
    """(work, lanes, words in, words out) of a padded invocation on `cap`:
    the node runs at its full compile-time size (`_padded_config`), so they
    are the node's, whatever the layer and the partial-sum flag."""
    kd, kh, kw = cap.kernel_max
    work, words_in, words_out = work_terms(cap.kind, cap.shape_in_max.to_list(),
                                           cap.shape_out_max.to_list(), cap.filters_max,
                                           kd * kh * kw)
    lanes = fold_lanes(cap.kind, 1, cap.coarse_in, cap.coarse_out, cap.fine)  # groups: 1
    return work, lanes, words_in, words_out


@dataclass(eq=False, slots=True)
class _LayerPlan:
    """One layer's tiling on its node `cap`: `lanes` has the lanes of each
    width of the tiling, which the node's folds cut (`_folds`); a padded
    plan has one width, the node's. `no_output` is the verdict that a tile
    yields no output. `score` gives the plan's cycles, `terms` its groups'
    roofline terms, derived when read (the report's rows), and `groups`
    has (node id, layer id, config, count) per combination of parts of the
    tiling, in its order, built on first read and then kept."""

    layer: object
    node_id: str
    cap: object
    tiling: _Tiling
    lanes: tuple = ()
    no_output: bool = False
    built: list = None  # `groups`, once read
    scores: dict = None  # a padded plan's cycles per bandwidth pair, once scored

    @property
    def fold_free(self) -> list:
        """(work, words in, words out, width, count) per combination of parts:
        the tiling's at runtime; a padded plan's are its node's
        (`_padded_terms`), with the count of each partial-sum flag."""
        tiling = self.tiling
        if tiling.mode == MODE_RUNTIME:
            return tiling.terms
        work, _, words_in, words_out = _padded_terms(self.cap)
        return [(work, words_in, words_out, 0, n) for n in tiling.counts.values()]

    @property
    def terms(self) -> list:
        """(node id, layer id, work, lanes, words in, words out, count) per
        combination of parts, in the tiling's order."""
        node_id, layer_id, lanes = self.node_id, self.layer.id, self.lanes
        return [(node_id, layer_id, work, lanes[k], words_in, words_out, n)
                for work, words_in, words_out, k, n in self.fold_free]

    def score(self, bw) -> int:
        """Cycles of the plan's invocations at bandwidths `bw` = (in, out):
        a runtime plan's are kept by its tiling (`_Tiling.score`), a padded
        plan's by the plan, in `scores` per bandwidth pair."""
        if self.tiling.mode == MODE_RUNTIME:
            return self.tiling.score(self.lanes, bw)
        if self.scores is None:
            self.scores = {}
        cycles = self.scores.get(bw)
        if cycles is None:
            terms = self.fold_free
            cycles = self.scores[bw] = lane_cycles(terms, self.lanes, _memory(terms, bw))
        return cycles

    @property
    def configs(self) -> list:
        """The config of each combination of parts, as its fields (`_tile_config`)."""
        config = _padded_config if self.tiling.mode == MODE_PADDED else _tile_config
        return [config(self.layer, self.cap, parts) for parts in self.tiling.counts]

    @property
    def groups(self) -> list:
        if self.built is None:
            self.built = [(self.node_id, self.layer.id, RuntimeConfig(
                kind, TensorShape(*si), TensorShape(*so), *fields), n) for
                (kind, si, so, *fields), n in zip(self.configs, self.tiling.counts.values())]
        return self.built

    def rows(self):
        """Each invocation's row (see `Schedule.rows`), channels fastest,
        filters innermost. A row's config is found by the position of its
        combination of tile classes in the tiling's product of classes
        (`_Tiling.slots`), worked out one loop level at a time, from each
        tile's index, origin, extent and class (`_AxisCut.tiles`)."""
        tiling, groups = self.tiling, self.groups
        h, w, d, c, f = (cut.tiles() for cut in tiling.cuts)
        _, nw, nd, nc, nf = (len(cut.classes) for cut in tiling.cuts)
        node_id, layer_id = self.node_id, self.layer.id
        configs = [groups[slot][2] for slot in tiling.slots]
        for ih, oh, th, kh in h:
            for iw, ow, tw, kw in w:
                at_w = (kh * nw + kw) * nd
                for i_d, od, td, kd in d:
                    at_d = (at_w + kd) * nc
                    for ic, oc, tc, kc in c:
                        at_c = (at_d + kc) * nf
                        origin, shape = (od, oh, ow, oc), (td, th, tw, tc)
                        for i_f, of, tf, kf in f:
                            yield (node_id, layer_id, (ih, iw, i_d, ic, i_f), origin, shape,
                                   of, tf, configs[at_c + kf])

    def entry_texts(self, index, configs) -> list:
        """The schedule.json text of each invocation's entry, in `rows()`
        order, naming its config by its position in `configs` (see
        `_config_index`): one text per (h, w, d) tile and run of C tiles of
        one class (of the C axis's `_AxisCut`), its entries joined by ', '.

        The entries of such a run differ only in their C tile's index and
        origin. So the run formats one row of pieces, the entries of its
        first C tile with the F tiles inside, repeats the row once per C
        tile, slice-assigns each tile's index and origin text, made once per
        plan, into its copy, and joins the pieces once. Rows are formatted
        in entry order, so configs take their indices in first-use order;
        each config document is written from the config's fields."""
        tiling, slots = self.tiling, self.tiling.slots
        docs = [config_document(*fields) for fields in self.configs]
        h_cut, w_cut, d_cut, c_cut, f_cut = tiling.cuts
        h, w, d, f = (cut.tiles() for cut in (h_cut, w_cut, d_cut, f_cut))
        nw, nd, nc, nf = (len(cut.classes) for cut in (w_cut, d_cut, c_cut, f_cut))
        n = len(c_cut.origins)
        c_index = list(map(str, range(n)))
        c_origin = c_index if c_cut.origins == range(n) else list(map(str, c_cut.origins))
        # per run: its C tiles, extent and class, and its tiles' index and origin texts
        c_runs = [(hi - lo, tc, kc, c_index[lo:hi], c_origin[lo:hi])
                  for kc, (lo, hi, tc, _, _, _) in enumerate(c_cut.classes)]
        start = _entry_start(self.node_id, self.layer.id)
        # per F tile: its text from its index to the tile origin, its F fields, its class
        f_texts = [(f', {i_f}], "tile_origin": [',
                    f'], "filter_origin": {of}, "filter_count": {tf}, "config": ', kf)
                   for i_f, of, tf, kf in f]
        step, texts = 4 * len(f_texts), []
        for ih, oh, th, kh in h:
            for iw, ow, tw, kw in w:
                at_w = (kh * nw + kw) * nd
                for i_d, od, td, kd in d:
                    at_d = (at_w + kd) * nc
                    head, origin = f"{start}{ih}, {iw}, {i_d}, ", f"{od}, {oh}, {ow}, "
                    for count, tc, kc, indices, origins in c_runs:
                        at_c = (at_d + kc) * nf
                        shape = f'], "tile_shape": [{td}, {th}, {tw}, {tc}'
                        i_c, o_c, row = indices[0], origins[0], []
                        # each entry's last piece runs on to the next entry's first
                        for to_origin, fields, kf in f_texts:
                            k = _config_index(docs[slots[at_c + kf]], index, configs)
                            row += (i_c, to_origin + origin, o_c, f"{shape}{fields}{k}}}, {head}")
                        pieces = row * count
                        if count > 1:
                            for j in range(0, step, 4):
                                pieces[j::step] = indices
                                pieces[j + 2::step] = origins
                        pieces[0] = head + i_c
                        pieces[-1] = f"{shape}{fields}{k}}}"
                        texts.append("".join(pieces))
        return texts


def _plan_layer(layer, node_id, cap, mode, memo: ChainMemo) -> _LayerPlan:
    """Tile one layer over its node and cut the node's folds into its lanes.

    Each axis's tile is first cut to the axis (a tile at least as large as
    its axis is one tile of the whole axis), so node shapes that tile the
    layer alike share one tiling, taken from `memo` when it holds it. A
    runtime plan cuts the node's folds once per width of the tiling
    (`_folds`) into its lanes, and takes the tiling's no-output verdict; a
    padded plan takes its lanes and verdict from the node
    (`_padded_terms`). A grouped conv is never channel or filter tiled, as
    tiles would cut across groups: a reshape can make that so, the only
    capability check a search move can fail.
    """
    if layer.groups > 1 and (
            cap.shape_in_max.c < layer.primary_in.c or cap.filters_max < layer.filters):
        raise InfeasibleScheduleError(
            layer.id, node_id, "grouped convolution cannot be channel-tiled")
    s, n = layer.tiled_shape_in, cap.shape_in_max
    if layer.kind in FILTER_KINDS:
        filters = (layer.filters, min(cap.filters_max, layer.filters))
    else:
        filters = (0, 1)  # no filter axis: one empty tile
    axes = ((s.h, min(n.h, s.h)), (s.w, min(n.w, s.w)), (s.d, min(n.d, s.d)),
            (s.c, min(n.c, s.c)), filters)
    key = (layer.id, axes)
    tiling = memo.tilings.get(key)
    if tiling is None:
        tiling = memo.tilings[key] = _tile_layer(layer, axes, mode, memo)
    if mode == MODE_PADDED:
        work, lanes, _, _ = _padded_terms(cap)
        return _LayerPlan(layer, node_id, cap, tiling, (lanes,), work == 0)
    kind, groups = layer.kind, layer.groups
    lanes = tuple(fold_lanes(kind, groups, *_folds(layer, cap, tc, tf)) for tc, tf in tiling.widths)
    return _LayerPlan(layer, node_id, cap, tiling, lanes, tiling.no_output)


class _NodeRecord:
    """One node's part of a built schedule: its layer plans by layer id, in
    the node's layer order, in `plans`; their invocations in `invocations`;
    the (node id, layer id) of each plan with a tile without output in
    `no_output`; and its cycles per bandwidth pair in `cycles`, filled by
    `perf_model.schedule_latency` through `score`."""

    __slots__ = ("plans", "invocations", "no_output", "cycles")

    def __init__(self, node_id, plans):
        self.plans = plans
        self.invocations = sum(plan.tiling.invocations for plan in plans.values())
        self.no_output = [(node_id, lid) for lid, plan in plans.items() if plan.no_output]
        self.cycles = {}

    def score(self, bw) -> int:
        return sum(plan.score(bw) for plan in self.plans.values())


def _in_model_order(model: ModelGraph, layer_ids: tuple) -> list:
    """`layer_ids`, sorted by their position in `model.order`."""
    rank = {lid: i for i, lid in enumerate(model.order)}
    return sorted(layer_ids, key=rank.__getitem__)


def build_schedule(model: ModelGraph, g: HardwareGraph, mode: str = MODE_RUNTIME,
                   memo: ChainMemo = None) -> Schedule:
    """The schedule of every schedulable layer, in `model.order`: one record
    per node, with its layers' plans.

    `g` is a valid cover of `model` (see `HardwareGraph.validate_cover`):
    the design reader checks a graph read from a file, and the search's
    edits keep it. `mode` is MODE_RUNTIME or MODE_PADDED.

    `memo` holds the node records, plans and tilings of earlier schedules of
    the same model in the same mode: a node whose (node id, capability,
    layer ids) it holds takes that record. The layers of every other node
    are planned in `model.order` (`_in_model_order`, derived once per model
    and set of layers), so an infeasible schedule names its first layer
    that cannot be planned; each takes the plan of its (layer id,
    node id, capability) if the memo holds it. Every record, plan and
    tiling built is added to the memo.
    """
    memo = ChainMemo() if memo is None else memo
    nodes, missed = [], []
    for node_id, layer_ids in g.mapping.items():
        key = (node_id, g.nodes[node_id], layer_ids)
        node = memo.nodes.get(key)
        if node is None:
            missed.append(key)
        else:
            nodes.append(node)
    if missed:
        owner = {lid: key for key in missed for lid in key[2]}
        plans = {}
        for lid in model.derive(_in_model_order, tuple(owner)):
            node_id, cap, _ = owner[lid]
            plan = memo.plans.get((lid, node_id, cap))
            if plan is None:
                plan = memo.plans[lid, node_id, cap] = _plan_layer(
                    model.layers[lid], node_id, cap, mode, memo)
            plans[lid] = plan
        for key in missed:
            node = memo.nodes[key] = _NodeRecord(key[0], {lid: plans[lid] for lid in key[2]})
            nodes.append(node)
    return Schedule(nodes=nodes, order=model.order)


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
    import numpy as np  # test-only; kept off the import of the CLI

    by_layer = {}
    for entry in schedule.entries:
        by_layer.setdefault(entry.layer_id, []).append(entry)
    report = CoverageReport(passed=True)
    for lid, layer in model.layers.items():
        if lid in fused:
            continue
        entries = by_layer.get(lid, [])
        ld, lh, lw, lc = layer.tiled_shape_in.to_list()
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
