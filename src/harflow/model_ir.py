"""3D-CNN model graph: layer descriptors, shape inference and workload queries.

Models are described by a JSON document (see docs/model-schema.md) holding a
DAG of layers. Shapes are stored as (D, H, W, C) where D is the temporal
dimension and C the channel dimension.
"""

import json
from dataclasses import dataclass, field

# The kind table of docs/model-schema.md: the operator fields each layer kind
# takes, in document order. A field that its kind does not take holds its
# default, so every reader and writer copies fields without asking the kind.
KIND_FIELDS = {
    "Conv3D": ("filters", "kernel", "stride", "padding", "groups"),
    "FullyConnected": ("filters",),
    "Pool3D": ("kernel", "stride", "padding", "type"),
    "Activation": ("type",),
    "GlobalAvgPool": (),
    "ElementWise": ("type", "broadcast"),
}
LAYER_KINDS = tuple(KIND_FIELDS)
FILTER_KINDS = tuple(k for k, f in KIND_FIELDS.items() if "filters" in f)  # Conv3D, FC
WINDOWED_KINDS = tuple(k for k, f in KIND_FIELDS.items() if "kernel" in f)  # Conv3D, Pool3D

POOL_TYPES = ("max", "avg")
ACT_TYPES = ("relu", "sigmoid", "swish")
ELTWISE_TYPES = ("add", "mul")


class ModelError(ValueError):
    """Raised on malformed or inconsistent model documents."""


_NOUNS = {int: ("an integer", "integers"), bool: ("true or false", "booleans"),
          str: ("a string", "strings")}


def strict(value, kind, what, error=ModelError, length=None, least=None):
    """`value` when it is a JSON integer (`kind` int; booleans are not), a JSON
    boolean (`kind` bool) or a JSON string (`kind` str); with `length`, a JSON
    array of `length` such values, returned as a tuple; with `least`, integers
    at least `least`. Anything else raises `error`, so input documents get
    2.5, true or "false" rejected, not truncated or coerced."""
    if length is None:
        typed = type(value) is kind
        if typed and (least is None or value >= least):
            return value
    else:
        typed = (isinstance(value, (list, tuple)) and len(value) == length
                 and all(type(x) is kind for x in value))
        if typed and (least is None or min(value) >= least):
            return tuple(value)
    one, many = _NOUNS[kind]
    noun = one if length is None else f"{length} {many}"
    if typed:
        noun += f" >= {least}"
    raise error(f"{what} must be {noun}, got {value!r}")


def require_keys(doc, keys, what, error=ModelError):
    """`doc` when it is a JSON object holding each of `keys`; anything else
    raises `error` naming `what` and the first key it lacks."""
    if type(doc) is not dict:
        raise error(f"{what} must be an object, got {doc!r}")
    for key in keys:
        if key not in doc:
            raise error(f"{what} lacks '{key}'")
    return doc


# Each operator field of a layer document: its attribute, its default and the
# `strict` rule of its value (type, array length, least).
_OPERATOR_FIELDS = {
    "filters": ("filters", 0, int, None, 0),
    "kernel": ("kernel", (1, 1, 1), int, 3, 1),
    "stride": ("stride", (1, 1, 1), int, 3, 1),
    "padding": ("padding", (0,) * 6, int, 6, 0),
    "groups": ("groups", 1, int, None, 1),
    "type": ("op_type", "", str, None, None),
    "broadcast": ("broadcast", False, bool, None, None),
}


def operator_fields(doc, kind, where) -> dict:
    """The operator fields a layer document of layer kind `kind` holds, as
    keyword arguments of `LayerDescriptor`, each checked by `strict` (see
    `_OPERATOR_FIELDS`). An absent field keeps its default; a field that
    `kind` does not take (see `KIND_FIELDS`) must hold it. `where` prefixes
    each field name in an error."""
    takes = KIND_FIELDS[kind]
    fields = {}
    for key, (attr, default, type_, length, least) in _OPERATOR_FIELDS.items():
        if key in doc:
            value = fields[attr] = strict(doc[key], type_, f"{where}'{key}'", length=length,
                                          least=least)
            if key not in takes and value != default:
                raise ModelError(f"{where}{kind} takes no '{key}'")
    return fields


def hash_once(cls):
    """Class decorator for a frozen dataclass: the hash of its fields is
    computed on the first call and kept on the object as `_hash`, which is
    not a field. So `dataclasses.replace` and a copy built from the fields
    compute their own. (Strings hash differently in every process, so an
    object must not carry its `_hash` into another one.)"""
    field_hash = cls.__hash__

    def __hash__(self):
        value = self._hash
        if value is None:
            value = field_hash(self)
            object.__setattr__(self, "_hash", value)
        return value

    cls._hash = None
    cls.__hash__ = __hash__
    return cls


@dataclass(frozen=True)
class TensorShape:
    """Feature-map shape (depth, height, width, channels). Document values are
    checked by `from_list`; shapes the program derives are non-negative."""

    d: int
    h: int
    w: int
    c: int

    @property
    def numel(self) -> int:
        return self.d * self.h * self.w * self.c

    @classmethod
    def from_list(cls, dims) -> "TensorShape":
        """The shape of a [D, H, W, C] document value: four non-negative JSON
        integers (the rule of `strict`: no bool)."""
        if isinstance(dims, (list, tuple)) and len(dims) == 4:
            d, h, w, c = dims
            if type(d) is type(h) is type(w) is type(c) is int and min(dims) >= 0:
                return cls(d, h, w, c)
        raise ModelError(f"shape must be a 4-element [D,H,W,C] integer array, got {dims!r}")

    def to_list(self):
        return [self.d, self.h, self.w, self.c]


def _require_positive(shape: TensorShape, layer_id: str, role: str):
    if min(shape.d, shape.h, shape.w, shape.c) < 1:
        raise ModelError(f"layer '{layer_id}': {role} dimensions must be >= 1, got {shape}")


@dataclass(frozen=True)
class LayerDescriptor:
    """A single execution node of the model graph."""

    id: str
    kind: str
    shape_in: tuple  # tuple of TensorShape; more than one entry only for ElementWise
    shape_out: TensorShape
    # the operator fields; each kind takes those of its `KIND_FIELDS` row.
    # kernel and stride are (D, H, W), padding is
    # (D_start, D_end, H_start, H_end, W_start, W_end)
    filters: int = 0
    kernel: tuple = (1, 1, 1)
    stride: tuple = (1, 1, 1)
    padding: tuple = (0, 0, 0, 0, 0, 0)
    groups: int = 1
    op_type: str = ""  # the document's `type`
    broadcast: bool = False

    @property
    def primary_in(self) -> TensorShape:
        return self.shape_in[0]

    @property
    def kernel_volume(self) -> int:
        kd, kh, kw = self.kernel
        return kd * kh * kw

    @property
    def fc_features(self) -> int:
        """Input feature count of a FullyConnected layer (flattened input)."""
        return self.primary_in.numel

    @property
    def tiled_shape_in(self) -> TensorShape:
        """The input space the scheduler tiles: a FullyConnected input is
        flattened to (1, 1, 1, features), so FC runs as a 1x1x1 conv."""
        if self.kind == "FullyConnected":
            return TensorShape(1, 1, 1, self.fc_features)
        return self.primary_in


def _windowed_axis(x_in: int, k: int, j: int, p_start: int, p_end: int) -> int:
    return (x_in + p_start + p_end - k) // j + 1


def infer_output_shape(layer: LayerDescriptor) -> TensorShape:
    """Output shape from the layer's own parameters (floor convention). Every
    kind but GlobalAvgPool slides its window over its tiled input; a kind
    that takes no kernel has the unit window, so FC yields (1, 1, 1, filters)
    and Activation and ElementWise keep their input shape."""
    s = layer.tiled_shape_in
    if layer.kind == "GlobalAvgPool":
        return TensorShape(1, 1, 1, s.c)
    kd, kh, kw = layer.kernel
    jd, jh, jw = layer.stride
    pds, pde, phs, phe, pws, pwe = layer.padding
    d = _windowed_axis(s.d, kd, jd, pds, pde)
    h = _windowed_axis(s.h, kh, jh, phs, phe)
    w = _windowed_axis(s.w, kw, jw, pws, pwe)
    if min(d, h, w) < 1:
        raise ModelError(f"layer '{layer.id}': kernel {layer.kernel} larger than padded input {s}")
    return TensorShape(d, h, w, layer.filters if layer.kind in FILTER_KINDS else s.c)


def layer_workload_macs(layer: LayerDescriptor) -> int:
    """Multiply-accumulate count of a layer; zero for non-MAC kinds. FC is
    counted as a 1x1x1 conv over its flattened input."""
    if layer.kind in FILTER_KINDS:
        out = layer.shape_out
        macs = (out.d * out.h * out.w * layer.tiled_shape_in.c * layer.filters
                * layer.kernel_volume)
        return macs // layer.groups
    return 0


@dataclass
class ModelGraph:
    """Validated DAG of layers."""

    name: str
    layers: dict = field(default_factory=dict)  # id -> LayerDescriptor, insertion ordered
    edges: list = field(default_factory=list)  # list of (src_id, dst_id)
    order: list = field(default_factory=list)  # `topological_order`, set by read_model
    # facts that depend only on the model and a tuple of its layer ids, by
    # (the function that derives one, layer ids); see `derive`
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    def derive(self, fn, layer_ids: tuple):
        """`fn(self, layer_ids)`, computed on the first call with these
        arguments and kept in `derived`: a search move asks for the same
        fact of the same layers again and again."""
        key = (fn, layer_ids)
        value = self.derived.get(key)
        if value is None:
            value = self.derived[key] = fn(self, layer_ids)
        return value

    def predecessors(self, layer_id: str) -> list:
        return [s for s, t in self.edges if t == layer_id]

    def workload_macs(self) -> int:
        return sum(layer_workload_macs(l) for l in self.layers.values())

    def layers_of_kind(self, kind: str) -> list:
        return [l for l in self.layers.values() if l.kind == kind]


def _validate_layer(layer: LayerDescriptor):
    lid = layer.id
    for s in layer.shape_in:
        _require_positive(s, lid, "input")
    _require_positive(layer.shape_out, lid, "output")
    if layer.kind == "ElementWise":
        if layer.op_type not in ELTWISE_TYPES:
            raise ModelError(f"layer '{lid}': unknown element-wise op '{layer.op_type}'")
        if len(layer.shape_in) != 2:
            raise ModelError(f"layer '{lid}': ElementWise requires exactly 2 inputs")
        primary, secondary = layer.shape_in
        if layer.broadcast:
            expect = TensorShape(1, 1, 1, primary.c)
            if secondary != expect:
                raise ModelError(
                    f"layer '{lid}': broadcast input must be {expect.to_list()}, "
                    f"got {secondary.to_list()}"
                )
        elif primary != secondary:
            raise ModelError(f"layer '{lid}': element-wise inputs differ without broadcast")
    else:
        if len(layer.shape_in) != 1:
            raise ModelError(f"layer '{lid}': '{layer.kind}' takes exactly one input")
    if layer.kind == "Activation" and layer.op_type not in ACT_TYPES:
        raise ModelError(f"layer '{lid}': unknown activation '{layer.op_type}'")
    if layer.kind == "Pool3D" and layer.op_type not in POOL_TYPES:
        raise ModelError(f"layer '{lid}': unknown pool type '{layer.op_type}'")
    if layer.kind in FILTER_KINDS and layer.filters < 1:
        raise ModelError(f"layer '{lid}': filters must be >= 1")
    if layer.kind == "Conv3D":
        c_in = layer.primary_in.c
        gr = layer.groups
        if c_in % gr or layer.filters % gr:
            raise ModelError(
                f"layer '{lid}': groups {gr} must divide channels {c_in} and filters "
                f"{layer.filters}"
            )
    declared = layer.shape_out
    inferred = infer_output_shape(layer)
    if inferred != declared:
        raise ModelError(
            f"layer '{lid}': declared shape_out {declared.to_list()} does not match "
            f"inferred {inferred.to_list()}"
        )
    if layer.shape_out.numel > 2**62 or layer.primary_in.numel > 2**62:
        raise ModelError(f"layer '{lid}': shape exceeds 64-bit element count")


def _layer_from_json(entry: dict) -> LayerDescriptor:
    require_keys(entry, ("id", "kind"), "layer entry")
    lid = strict(entry["id"], str, "layer 'id'")
    kind = entry["kind"]
    if kind not in LAYER_KINDS:
        raise ModelError(f"layer '{lid}': unknown layer kind '{kind}'")
    raw_in = entry.get("shape_in")
    if not raw_in or not isinstance(raw_in, list):
        raise ModelError(f"layer '{lid}': missing or malformed shape_in")
    shape_in = tuple(map(TensorShape.from_list,
                         raw_in if isinstance(raw_in[0], (list, tuple)) else (raw_in,)))
    if "shape_out" not in entry:
        raise ModelError(f"layer '{lid}': missing shape_out")
    return LayerDescriptor(lid, kind, shape_in, TensorShape.from_list(entry["shape_out"]),
                           **operator_fields(entry, kind, f"layer '{lid}': "))


def _check_graph_structure(model: ModelGraph) -> list:
    """Validate the DAG; returns its `topological_order`. A DAG with a single
    input layer reaches every layer from it: each layer's producers lead
    back to an input layer."""
    ids = set(model.layers)
    for src, dst in model.edges:
        if src not in ids or dst not in ids:
            raise ModelError(f"edge ({src}, {dst}) references unknown layer")
    order = topological_order(model)
    if len(order) != len(ids):
        raise ModelError(f"cycle detected involving layers {sorted(ids - set(order))}")
    sources = sorted(ids - {dst for _, dst in model.edges})
    if len(sources) != 1:
        raise ModelError(f"model must have a single input layer, found {sources}")
    # edge shape consistency, checked in layer declaration order so the layer
    # reported does not vary with string hashing; input slots follow edge order
    incoming = {lid: [] for lid in model.layers}
    for src, dst in model.edges:
        incoming[dst].append(src)
    for lid, producers in incoming.items():
        layer = model.layers[lid]
        if producers and len(producers) != len(layer.shape_in):
            raise ModelError(
                f"layer '{lid}': {len(producers)} incoming edges but "
                f"{len(layer.shape_in)} declared inputs"
            )
        for slot, src in enumerate(producers):
            produced = model.layers[src].shape_out
            if produced != layer.shape_in[slot]:
                raise ModelError(
                    f"shape mismatch on edge {src} -> {lid}: producer emits "
                    f"{produced.to_list()}, consumer expects "
                    f"{layer.shape_in[slot].to_list()}"
                )
    return order


def parse_model(document: str) -> ModelGraph:
    """Parse and validate a model JSON document (see `read_model`)."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON: {exc}") from exc
    return read_model(doc)


def read_model(doc) -> ModelGraph:
    """The validated model of a decoded model document, such as a design's
    `model` member."""
    if not isinstance(doc, dict) or "layers" not in doc:
        raise ModelError("document must be an object with a 'layers' array")
    if not isinstance(doc["layers"], list) or not doc["layers"]:
        raise ModelError("model has no layers")
    model = ModelGraph(name=strict(doc.get("name", "model"), str, "model 'name'"))
    for entry in doc["layers"]:
        layer = _layer_from_json(entry)
        if layer.id in model.layers:
            raise ModelError(f"duplicate layer id '{layer.id}'")
        _validate_layer(layer)
        model.layers[layer.id] = layer
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list) or not all(
        isinstance(e, list) and len(e) == 2 for e in raw_edges
    ):
        raise ModelError("'edges' must be an array of [source, target] pairs")
    model.edges = [(strict(s, str, "edge source"), strict(t, str, "edge target"))
                   for s, t in raw_edges]
    model.order = _check_graph_structure(model)
    return model


def serialize_model(model: ModelGraph) -> str:
    """Inverse of parse_model: emit a JSON document for the graph."""
    layers = []
    for layer in model.layers.values():
        entry = {
            "id": layer.id,
            "kind": layer.kind,
            "shape_in": [s.to_list() for s in layer.shape_in]
            if layer.kind == "ElementWise"
            else layer.primary_in.to_list(),
            "shape_out": layer.shape_out.to_list(),
        }
        for key in KIND_FIELDS[layer.kind]:  # json.dumps writes tuples as arrays
            entry[key] = getattr(layer, _OPERATOR_FIELDS[key][0])
        layers.append(entry)
    doc = {"name": model.name, "layers": layers, "edges": [list(e) for e in model.edges]}
    return json.dumps(doc, indent=2)


def topological_order(model: ModelGraph) -> list:
    """Deterministic topological order; ties broken lexicographically by id."""
    import heapq

    indeg = dict.fromkeys(model.layers, 0)
    successors = {lid: [] for lid in model.layers}
    for src, dst in model.edges:
        indeg[dst] += 1
        successors[src].append(dst)
    heap = [lid for lid, n in indeg.items() if n == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        lid = heapq.heappop(heap)
        order.append(lid)
        for nxt in successors[lid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(heap, nxt)
    return order
