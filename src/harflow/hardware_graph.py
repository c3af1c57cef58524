"""Accelerator hardware graph: node capabilities, the layer-to-node mapping and
the combine/separate/fuse structural edits.

Graphs are immutable values: every edit returns a new graph, so candidate
states in concurrent search chains never alias mutable state. A graph read
from a design is checked once, by `from_dict` and `validate_cover`; the edits
keep what they check, so the search checks nothing again.
"""

import math
from dataclasses import dataclass, field

from .model_ir import (
    FILTER_KINDS, KIND_FIELDS, LAYER_KINDS, ModelGraph, TensorShape, hash_once, require_keys,
    strict,
)


class HardwareGraphError(ValueError):
    pass


@hash_once
@dataclass(frozen=True)
class NodeCapability:
    """Compile-time capability record of a computation node. Its hash is
    computed once per object (see `model_ir.hash_once`)."""

    kind: str
    shape_in_max: TensorShape
    shape_out_max: TensorShape
    filters_max: int = 0
    kernel_max: tuple = (1, 1, 1)
    coarse_in: int = 1
    coarse_out: int = 1
    fine: int = 1
    supports_types: frozenset = frozenset()

    def refit(self, **changes) -> "NodeCapability":
        """Copy with `changes` applied and each fold cut to the largest divisor
        of its extent that divides its preferred value (their gcd; every
        extent is at least 1). Outside Conv/FC the output fold is the input
        fold; outside Conv3D the fine fold is 1. It is the only path that sets
        folds. The copy is made from the object's field values, not through
        `__init__`, and hashes its own fields."""
        f = self.__dict__.copy()
        f.pop("_hash", None)  # set by `hash_once` once hashed
        f.update(changes)
        kd, kh, kw = f["kernel_max"]
        f["coarse_in"] = math.gcd(f["coarse_in"], f["shape_in_max"].c)
        if self.kind in FILTER_KINDS:
            f["coarse_out"] = math.gcd(f["coarse_out"], f["filters_max"])
        else:
            f["coarse_out"] = f["coarse_in"]
        f["fine"] = math.gcd(f["fine"], kd * kh * kw) if self.kind == "Conv3D" else 1
        copy = object.__new__(NodeCapability)
        copy.__dict__.update(f)
        return copy

    def to_dict(self):
        return {
            "kind": self.kind,
            "shape_in_max": self.shape_in_max.to_list(),
            "shape_out_max": self.shape_out_max.to_list(),
            "filters_max": self.filters_max,
            "kernel_max": list(self.kernel_max),
            "coarse_in": self.coarse_in,
            "coarse_out": self.coarse_out,
            "fine": self.fine,
            "supports_types": sorted(self.supports_types),
        }

    @classmethod
    def from_dict(cls, doc) -> "NodeCapability":
        """The capability of a design.json node document, every field checked:
        an object with `kind` (a layer kind), `shape_in_max` and
        `shape_out_max`; shape dimensions, kernel sizes and folds at least 1;
        `filters_max` at least 1 on a Conv/FC node; `supports_types` an array
        of strings; the three at their defaults on a kind that takes no
        filters, kernel or type (`model_ir.KIND_FIELDS`); and the folds as
        `refit` leaves them. So every node tiles a layer into non-empty tiles."""
        error = HardwareGraphError
        kind = require_keys(doc, ("kind", "shape_in_max", "shape_out_max"), "node capability",
                            error)["kind"]
        if kind not in LAYER_KINDS:
            raise error(f"node capability 'kind' must be one of {', '.join(LAYER_KINDS)}, "
                        f"got {kind!r}")
        types = doc.get("supports_types", [])
        if type(types) is not list or not all(type(t) is str for t in types):
            raise error(f"node capability 'supports_types' must be an array of strings, "
                        f"got {types!r}")
        cap = cls(
            kind=kind,
            shape_in_max=TensorShape(*strict(
                doc["shape_in_max"], int, "node capability 'shape_in_max'", error, 4, 1)),
            shape_out_max=TensorShape(*strict(
                doc["shape_out_max"], int, "node capability 'shape_out_max'", error, 4, 1)),
            filters_max=strict(doc.get("filters_max", 0), int, "node capability 'filters_max'",
                               error, least=int(kind in FILTER_KINDS)),
            kernel_max=strict(doc.get("kernel_max", (1, 1, 1)), int,
                              "node capability 'kernel_max'", error, 3, 1),
            coarse_in=strict(doc.get("coarse_in", 1), int, "node capability 'coarse_in'",
                             error, least=1),
            coarse_out=strict(doc.get("coarse_out", 1), int, "node capability 'coarse_out'",
                              error, least=1),
            fine=strict(doc.get("fine", 1), int, "node capability 'fine'", error, least=1),
            supports_types=frozenset(types),
        )
        takes = KIND_FIELDS[kind]
        for key, field in (("filters_max", "filters"), ("kernel_max", "kernel"),
                           ("supports_types", "type")):
            if field not in takes and getattr(cap, key) != getattr(cls, key):
                raise error(f"node capability: {kind} takes no '{key}', got {doc[key]!r}")
        fit = cap.refit()
        if fit != cap:
            kd, kh, kw = cap.kernel_max
            raise error(f"{kind} node folds (coarse_in, coarse_out, fine) "
                        f"{cap.coarse_in, cap.coarse_out, cap.fine} must divide max channels "
                        f"{cap.shape_in_max.c}, max filters {cap.filters_max} and |K| "
                        f"{kd * kh * kw}, with coarse_out = coarse_in outside Conv/FC and fine "
                        f"1 outside Conv3D: legal are {fit.coarse_in, fit.coarse_out, fit.fine}")
        return cap


def _shape_max(shapes) -> TensorShape:
    return TensorShape(
        max(s.d for s in shapes),
        max(s.h for s in shapes),
        max(s.w for s in shapes),
        max(s.c for s in shapes),
    )


def capability_for_layers(kind, layers) -> NodeCapability:
    """Derive a maximal capability covering `layers`, one or more layers of
    `kind`: the elementwise max of their tiled input shapes, output shapes,
    filters and kernels, and the union of their types."""
    return NodeCapability(
        kind=kind,
        shape_in_max=_shape_max([l.tiled_shape_in for l in layers]),
        shape_out_max=_shape_max([l.shape_out for l in layers]),
        filters_max=max(l.filters for l in layers),
        kernel_max=tuple(max(l.kernel[i] for l in layers) for i in range(3)),
        supports_types=frozenset(l.op_type for l in layers if l.op_type),
    )


def _layers_capability(model: ModelGraph, layer_ids: tuple) -> NodeCapability:
    """`capability_for_layers` of the layers `layer_ids` of `model`, all of one kind."""
    layers = [model.layers[lid] for lid in layer_ids]
    return capability_for_layers(layers[0].kind, layers)


@dataclass(frozen=True)
class HardwareGraph:
    """Set of computation nodes plus the execution mapping over model layers."""

    nodes: dict  # node id -> NodeCapability
    mapping: dict  # node id -> tuple of layer ids
    fused: dict = field(default_factory=dict)  # activation layer id -> producer layer id

    def with_node(self, node_id: str, cap: NodeCapability) -> "HardwareGraph":
        """Copy with one node's capability replaced."""
        return HardwareGraph(
            nodes={**self.nodes, node_id: cap}, mapping=dict(self.mapping), fused=dict(self.fused)
        )

    def validate_cover(self, model: ModelGraph):
        """Disjoint-cover invariant: every non-fused layer mapped exactly once, to
        a node of its kind whose kernel and types fit it, and every fused layer
        an activation absorbed into its single fusible producer."""
        for lid, producer in self.fused.items():
            layer = model.layers.get(lid)
            if layer is None or layer.kind != "Activation":
                raise HardwareGraphError(f"fused layer '{lid}' is not an activation of the model")
            if (model.predecessors(lid) != [producer]
                    or model.layers[producer].kind not in FUSIBLE_PRODUCER_KINDS):
                raise HardwareGraphError(
                    f"fused activation '{lid}' does not have '{producer}' as its single "
                    f"producer of a kind in {FUSIBLE_PRODUCER_KINDS}"
                )
        seen = {}
        for node_id, layer_ids in self.mapping.items():
            for lid in layer_ids:
                if lid in seen:
                    raise HardwareGraphError(
                        f"layer '{lid}' mapped to both '{seen[lid]}' and '{node_id}'"
                    )
                seen[lid] = node_id
        expected = set(model.layers) - set(self.fused)
        if set(seen) != expected:
            missing = sorted(expected - set(seen))
            extra = sorted(set(seen) - expected)
            raise HardwareGraphError(
                f"mapping does not cover the model (missing {missing}, extra {extra})"
            )
        for node_id, layer_ids in self.mapping.items():
            if node_id not in self.nodes:
                raise HardwareGraphError(f"mapping names unknown node '{node_id}'")
            cap = self.nodes[node_id]
            for lid in layer_ids:
                layer = model.layers[lid]
                if layer.kind != cap.kind:
                    raise HardwareGraphError(
                        f"layer '{lid}' ({layer.kind}) mapped to '{node_id}' ({cap.kind})")
                if any(k > m for k, m in zip(layer.kernel, cap.kernel_max)):
                    raise HardwareGraphError(
                        f"layer '{lid}' kernel {layer.kernel} exceeds node '{node_id}' "
                        f"kernel_max {cap.kernel_max}")
                if layer.op_type and layer.op_type not in cap.supports_types:
                    raise HardwareGraphError(
                        f"layer '{lid}' type '{layer.op_type}' is not supported by node "
                        f"'{node_id}'")

    def to_dict(self):
        return {
            "nodes": {nid: cap.to_dict() for nid, cap in self.nodes.items()},
            "mapping": {nid: list(lids) for nid, lids in self.mapping.items()},
            "fused": dict(self.fused),
        }

    @classmethod
    def from_dict(cls, doc) -> "HardwareGraph":
        """The graph of a design.json `graph` document, every field checked;
        whether it covers a model is `validate_cover`'s check."""
        error = HardwareGraphError
        if type(doc) is not dict:
            raise error(f"graph must be an object, got {doc!r}")
        nodes, mapping, fused = doc.get("nodes"), doc.get("mapping"), doc.get("fused", {})
        for key, value in (("nodes", nodes), ("mapping", mapping), ("fused", fused)):
            if type(value) is not dict:
                raise error(f"graph '{key}' must be an object, got {value!r}")
        if not all(type(lids) is list for lids in mapping.values()):
            raise error("graph 'mapping' values must be arrays of layer ids")
        names = [lid for lids in mapping.values() for lid in lids] + [*fused, *fused.values()]
        if not all(isinstance(name, str) for name in names):
            raise error("graph 'mapping' entries and 'fused' layer ids must be strings")
        return cls(
            nodes={nid: NodeCapability.from_dict(d) for nid, d in nodes.items()},
            mapping={nid: tuple(lids) for nid, lids in mapping.items()},
            fused=dict(fused),
        )


_KIND_TAG = {
    "Conv3D": "conv",
    "FullyConnected": "fc",
    "Pool3D": "pool",
    "Activation": "act",
    "GlobalAvgPool": "gap",
    "ElementWise": "eltwise",
}


def _fresh_node_id(kind: str, existing) -> str:
    tag = _KIND_TAG[kind]
    i = 0
    while f"{tag}_{i}" in existing:
        i += 1
    return f"{tag}_{i}"


def initial_mapping(model: ModelGraph) -> HardwareGraph:
    """One computation node per layer kind, sized to cover all its layers."""
    kinds = []
    for layer in model.layers.values():
        if layer.kind not in kinds:
            kinds.append(layer.kind)
    nodes = {}
    mapping = {}
    for kind in kinds:
        layers = model.layers_of_kind(kind)
        node_id = _fresh_node_id(kind, nodes)
        nodes[node_id] = capability_for_layers(kind, layers)
        mapping[node_id] = tuple(l.id for l in layers)
    return HardwareGraph(nodes=nodes, mapping=mapping)


def combine_nodes(g: HardwareGraph, node_ids, model: ModelGraph) -> HardwareGraph:
    """Merge same-kind nodes into one whose capability covers all of them."""
    node_ids = list(node_ids)
    if len(node_ids) != len(set(node_ids)) or len(node_ids) < 2:
        raise HardwareGraphError("combine requires at least 2 distinct nodes")
    caps = []
    for nid in node_ids:
        if nid not in g.nodes:
            raise HardwareGraphError(f"unknown node '{nid}'")
        caps.append(g.nodes[nid])
    kind = caps[0].kind
    if any(c.kind != kind for c in caps):
        raise HardwareGraphError("cannot combine nodes of different kinds")
    merged = caps[0].refit(
        shape_in_max=_shape_max([c.shape_in_max for c in caps]),
        shape_out_max=_shape_max([c.shape_out_max for c in caps]),
        filters_max=max(c.filters_max for c in caps),
        kernel_max=tuple(max(c.kernel_max[i] for c in caps) for i in range(3)),
        coarse_in=max(c.coarse_in for c in caps),
        coarse_out=max(c.coarse_out for c in caps),
        fine=max(c.fine for c in caps),
        supports_types=frozenset().union(*[c.supports_types for c in caps]),
    )
    nodes = {nid: cap for nid, cap in g.nodes.items() if nid not in node_ids}
    mapping = {nid: lids for nid, lids in g.mapping.items() if nid not in node_ids}
    merged_id = _fresh_node_id(kind, nodes)
    nodes[merged_id] = merged
    mapping[merged_id] = tuple(lid for nid in node_ids for lid in g.mapping[nid])
    return HardwareGraph(nodes=nodes, mapping=mapping, fused=dict(g.fused))


def separate_node(g: HardwareGraph, node_id: str, layer_ids, model: ModelGraph) -> HardwareGraph:
    """Detach layers from a node onto a freshly derived node of their own."""
    if node_id not in g.nodes:
        raise HardwareGraphError(f"unknown node '{node_id}'")
    detach = list(layer_ids)
    if not detach:
        raise HardwareGraphError("must detach at least one layer")
    assigned = g.mapping[node_id]
    for lid in detach:
        if lid not in assigned:
            raise HardwareGraphError(f"layer '{lid}' is not mapped to node '{node_id}'")
    source = g.nodes[node_id]
    remaining = tuple(lid for lid in assigned if lid not in detach)
    new_cap = model.derive(_layers_capability, tuple(sorted(detach))).refit(
        coarse_in=source.coarse_in, coarse_out=source.coarse_out, fine=source.fine
    )
    nodes = dict(g.nodes)
    mapping = dict(g.mapping)
    if remaining:
        mapping[node_id] = remaining
    else:
        del nodes[node_id]
        del mapping[node_id]
    new_id = _fresh_node_id(source.kind, nodes)
    nodes[new_id] = new_cap
    mapping[new_id] = tuple(detach)
    return HardwareGraph(nodes=nodes, mapping=mapping, fused=dict(g.fused))


FUSIBLE_PRODUCER_KINDS = ("Conv3D", "FullyConnected", "ElementWise")


def fuse_activations(g: HardwareGraph, model: ModelGraph) -> HardwareGraph:
    """Absorb activation layers into their producer's output stream.

    Activations are rate-1 elementwise passes; fusing one removes its
    standalone (memory-bound) invocation without changing the producer's
    stream shape. Activations fed by anything other than Conv/FC/ElementWise
    stay standalone.
    """
    fused = dict(g.fused)
    for layer in model.layers.values():
        if layer.kind != "Activation" or layer.id in fused:
            continue
        producers = model.predecessors(layer.id)
        if len(producers) != 1:
            continue
        if model.layers[producers[0]].kind in FUSIBLE_PRODUCER_KINDS:
            fused[layer.id] = producers[0]
    if fused == g.fused:
        return g
    nodes = dict(g.nodes)
    mapping = {}
    for node_id, layer_ids in g.mapping.items():
        keep = tuple(lid for lid in layer_ids if lid not in fused)
        if keep:
            mapping[node_id] = keep
        else:
            del nodes[node_id]
    return HardwareGraph(nodes=nodes, mapping=mapping, fused=fused)
