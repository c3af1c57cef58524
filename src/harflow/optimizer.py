"""Simulated-annealing design space exploration over hardware graphs.

A candidate state bundles a hardware graph with its schedule, latency and
resource estimate. The annealer perturbs states with the reshaping, folding
and combine/separate transformations, subject to the device constraint set.
Chains are deterministic per seed.

`evaluate` checks the resource budgets first: the search never reads the
latency of an infeasible state, so a graph over budget is rejected before
it is tiled and scored.

A move changes one node, or a few for combine and separate, of a state that
is already scored. So `anneal` keeps one `ChainMemo` for its chain and passes
it to `warm_start`, to every `evaluate` and to `fold_climb`. It holds every
node resource vector, node record, layer plan, layer tiling and axis tiling
that the chain has computed. A node whose capability the chain has costed
before is not costed again. A node whose (node, capability, layers) the
chain has scheduled before takes its record in one lookup, with its
invocations, no-output verdicts and cycles: the schedule's length, latency
and constraint check read one record per node. Only the other nodes have
their layers planned, and a layer whose (layer, node, capability) the chain
has planned before takes that plan. A layer whose tile shape, cut to the
layer, the chain has tiled before is not re-tiled, so a move that changes
only folds (coarse, fine or a `fold_climb` step) re-tiles nothing and only
cuts its new plans' folds into lanes; plans whose lanes the tiling has
scored before take that score. A new tile shape derives only the axes the
chain has not tiled at that size. The search builds no `RuntimeConfig` and
calls no `roofline`: a plan builds its configs only when its groups are
read, which no command does. The memo lives only as long
as its chain. The result equals an evaluation from scratch.

What a move draws from is derived once per model and set of layers
(`ModelGraph.derive`): a reshape's extents and channel divisors, and the
capability `separate_node` derives for the layers it detaches.
"""

import logging
import math
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache

from .device import RESOURCES, DeviceProfile
from .hardware_graph import (
    HardwareGraph,
    combine_nodes,
    fuse_activations,
    initial_mapping,
    separate_node,
)
from .model_ir import FILTER_KINDS, ModelGraph, TensorShape, strict
from .perf_model import schedule_latency
from .resource_model import default_regression_models, graph_resources, node_dsp
from .scheduler import (
    MODE_PADDED,
    MODE_RUNTIME,
    ChainMemo,
    InfeasibleScheduleError,
    Schedule,
    build_schedule,
)


log = logging.getLogger(__name__)


class OptimizerError(RuntimeError):
    pass


@dataclass(frozen=True)
class AnnealingParams:
    tau_start: float = 10.0
    tau_min: float = 1e-6
    cooling: float = 0.99
    seed: int = 0
    iterations_per_temperature: int = 10
    separate_layers: int = 2  # layers detached per separate move
    combine_nodes: int = 2  # nodes merged per combine move
    warm_start_samples: int = 32
    enable_combine_separate: bool = True
    enable_fusion: bool = True
    enable_runtime_reconfig: bool = True

    def __post_init__(self):
        for name in ("tau_start", "tau_min", "cooling"):
            value = getattr(self, name)
            if type(value) not in (int, float):  # JSON numbers; true is not one
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (math.inf > self.tau_start > self.tau_min > 0):  # else the chain never cools
            raise ValueError("need a finite tau_start > tau_min > 0")
        if not (0 < self.cooling < 1):
            raise ValueError("cooling rate must be in (0, 1)")
        strict(self.seed, int, "seed", ValueError)
        strict(self.iterations_per_temperature, int, "iterations_per_temperature", ValueError,
               least=1)
        strict(self.separate_layers, int, "separate_layers", ValueError, least=1)
        strict(self.combine_nodes, int, "combine_nodes", ValueError, least=2)
        strict(self.warm_start_samples, int, "warm_start_samples", ValueError, least=0)

    @property
    def mode(self) -> str:
        """Schedule mode: per-tile runtime configs, or every tile padded to its node."""
        return MODE_RUNTIME if self.enable_runtime_reconfig else MODE_PADDED


@dataclass
class CandidateState:
    graph: HardwareGraph
    schedule: Schedule
    latency_cycles: int
    resources: object
    feasible: bool
    violations: list = field(default_factory=list)


@dataclass
class TraceRow:
    iteration: int
    tau: float
    current_cycles: int
    best_cycles: int
    feasible: bool


def _budget_violations(resources, dev: DeviceProfile) -> list:
    """One line per resource budget that `resources` exceed."""
    # most states are within budget: compare before building any vector or message
    if (resources.dsp <= dev.dsp_total and resources.bram <= dev.bram_total
            and resources.lut <= dev.lut_total and resources.ff <= dev.ff_total):
        return []
    budgets = dev.budgets
    return [f"{name} over budget: {getattr(resources, name)} > {getattr(budgets, name)}"
            for name in RESOURCES if getattr(resources, name) > getattr(budgets, name)]


def check_constraints(state: CandidateState, dev: DeviceProfile) -> list:
    """Violation list of a scheduled state (empty means feasible).

    The four resource budgets, plus every (node, layer) with a tile whose
    configuration yields no output (a border tile smaller than the kernel
    window): its work is 0, a verdict the scheduler made per node record.
    """
    violations = _budget_violations(state.resources, dev)
    empty = []
    for node in state.schedule.nodes:
        empty += node.no_output
    for node_id, layer_id in sorted(set(empty)):
        violations.append(f"layer {layer_id} on {node_id}: tile yields no output")
    return violations


def evaluate(model: ModelGraph, graph: HardwareGraph, dev: DeviceProfile, mode: str,
             memo: ChainMemo = None) -> CandidateState:
    """Cost, then schedule, measure and constraint-check one hardware graph.

    The budgets come first. A graph over any resource budget is rejected
    before it is tiled: its violations are the budget lines, its schedule is
    empty and its latency 0. A graph that cannot be scheduled is rejected
    the same way, with the schedule error. Only a graph within budget is
    scheduled, scored and checked for tiles without output.

    `memo` is the memo of the search chain the graph belongs to; the
    result equals the one without it.
    """
    memo = ChainMemo() if memo is None else memo
    resources = graph_resources(graph, dev, *default_regression_models(), memo.costs)
    violations = _budget_violations(resources, dev)
    if not violations:
        try:
            schedule = build_schedule(model, graph, mode, memo)
        except InfeasibleScheduleError as exc:
            violations = [str(exc)]
    if violations:
        return CandidateState(graph=graph, schedule=Schedule(), latency_cycles=0,
                              resources=resources, feasible=False, violations=violations)
    state = CandidateState(
        graph=graph,
        schedule=schedule,
        latency_cycles=schedule_latency(schedule, dev),
        resources=resources,
        feasible=True,
    )
    state.violations = check_constraints(state, dev)
    state.feasible = not state.violations
    return state


# ---------------------------------------------------------------------------
# Transformations


@lru_cache(maxsize=1024)
def _divisors(n: int) -> tuple:
    divs = []
    for i in range(1, int(math.isqrt(n)) + 1):
        if n % i == 0:
            divs.append(i)
            if i != n // i:
                divs.append(n // i)
    return tuple(sorted(divs))


def _reshape_choices(model, layer_ids) -> tuple:
    """What a reshape of the node running `layer_ids` draws from: on an FC
    node, the divisors of the layers' feature counts; else the largest input
    depth, width and height of the layers, and the divisors of their
    channels. It depends only on the layers, so `_reshape` derives it once
    per chain's model (`ModelGraph.derive`)."""
    layers = [model.layers[lid] for lid in layer_ids]
    if layers[0].kind == "FullyConnected":
        return sorted({d for c in {l.fc_features for l in layers} for d in _divisors(c)})
    shapes = [l.primary_in for l in layers]
    return (max(s.d for s in shapes), max(s.w for s in shapes), max(s.h for s in shapes),
            sorted({d for s in shapes for d in _divisors(s.c)}))


def _reshape(graph, model, node_id, rng):
    cap = graph.nodes[node_id]
    choices = model.derive(_reshape_choices, graph.mapping[node_id])
    s = cap.shape_in_max
    if cap.kind == "FullyConnected":
        new_shape = TensorShape(s.d, s.h, s.w, rng.choice(choices))
    else:
        d_max, w_max, h_max, c_choices = choices
        kd, _, kw = cap.kernel_max
        new_d = rng.randint(min(kd, d_max), d_max)
        new_w = rng.randint(min(kw, w_max), w_max)
        new_c = rng.choice(c_choices)
        new_shape = TensorShape(new_d, h_max, new_w, new_c)
    return graph.with_node(node_id, cap.refit(shape_in_max=new_shape))


def _coarse_fold(graph, model, node_id, rng):
    cap = graph.nodes[node_id]
    if cap.kind in FILTER_KINDS:
        new_cap = cap.refit(
            coarse_in=rng.choice(_divisors(cap.shape_in_max.c)),
            coarse_out=rng.choice(_divisors(cap.filters_max)),
        )
    else:
        new_cap = cap.refit(coarse_in=rng.choice(_divisors(cap.shape_in_max.c)))
    return graph.with_node(node_id, new_cap)


def _fine_fold(graph, model, node_id, rng):
    cap = graph.nodes[node_id]
    kvol = cap.kernel_max[0] * cap.kernel_max[1] * cap.kernel_max[2]
    return graph.with_node(node_id, cap.refit(fine=rng.choice(_divisors(kvol))))


def _combine(graph, model, rng, n_c):
    by_kind = {}
    for nid, cap in graph.nodes.items():
        by_kind.setdefault(cap.kind, []).append(nid)
    candidates = [ids for ids in by_kind.values() if len(ids) >= 2]
    if not candidates:
        return None
    ids = rng.choice(sorted(candidates))
    take = min(n_c, len(ids))
    chosen = rng.sample(sorted(ids), take)
    return combine_nodes(graph, chosen, model)


def _separate(graph, model, rng, l_e):
    candidates = sorted(nid for nid, lids in graph.mapping.items() if len(lids) >= 2)
    if not candidates:
        return None
    nid = rng.choice(candidates)
    lids = sorted(graph.mapping[nid])
    take = min(l_e, len(lids) - 1)
    chosen = rng.sample(lids, take)
    return separate_node(graph, nid, chosen, model)


def random_transformation(model: ModelGraph, graph: HardwareGraph, rng: random.Random,
                          params: AnnealingParams) -> HardwareGraph:
    """Apply one uniformly chosen enabled transform to one eligible node."""
    moves = ["reshape", "coarse"]
    if any(c.kind == "Conv3D" for c in graph.nodes.values()):
        moves.append("fine")
    if params.enable_combine_separate:
        moves.extend(["combine", "separate"])
    rng.shuffle(moves)
    for move in moves:
        if move == "combine":
            result = _combine(graph, model, rng, params.combine_nodes)
        elif move == "separate":
            result = _separate(graph, model, rng, params.separate_layers)
        else:
            if move == "fine":
                eligible = sorted(
                    nid for nid, c in graph.nodes.items() if c.kind == "Conv3D"
                )
            else:
                eligible = sorted(graph.nodes)
            node_id = rng.choice(eligible)
            fn = {"reshape": _reshape, "coarse": _coarse_fold, "fine": _fine_fold}[move]
            result = fn(graph, model, node_id, rng)
        if result is not None:
            return result
    return graph


def _sample_capabilities(graph, model, rng):
    """Random tile shapes and folds for every node (warm-start sampling).

    The full elementwise-max shapes of the initial mapping are usually far
    over BRAM budget, so shapes must be sampled alongside folds.
    """
    for nid in sorted(graph.nodes):
        graph = _reshape(graph, model, nid, rng)
    for nid in list(graph.nodes):
        graph = _coarse_fold(graph, model, nid, rng)
        if graph.nodes[nid].kind == "Conv3D":
            graph = _fine_fold(graph, model, nid, rng)
    return graph


def warm_start(model: ModelGraph, dev: DeviceProfile, params: AnnealingParams,
               rng: random.Random, memo: ChainMemo = None):
    """Initial per-kind mapping with the best feasible of R random fold samplings.
    `memo` is the memo of the chain it starts; without one, the samples share
    a memo of their own."""
    mode = params.mode
    memo = ChainMemo() if memo is None else memo
    base = initial_mapping(model)
    if params.enable_fusion:
        base = fuse_activations(base, model)
    best = None
    last = None
    feasible = 0
    candidates = [base] + [
        _sample_capabilities(base, model, rng) for _ in range(params.warm_start_samples)
    ]
    for graph in candidates:
        state = evaluate(model, graph, dev, mode, memo)
        last = state
        feasible += state.feasible
        if state.feasible and (best is None or state.latency_cycles < best.latency_cycles):
            best = state
    if best is None:
        raise OptimizerError(
            "no feasible warm-start state found; last violations: "
            + "; ".join(last.violations if last else [])
        )
    log.info("warm start: %d of %d candidates feasible, best %d cycles",
             feasible, len(candidates), best.latency_cycles)
    return best, mode


def _fold_neighbours(cap, dsp_headroom):
    """Higher-parallelism fold assignments for `cap`.

    For Conv/FC every fold combination with a larger parallelism product is a
    candidate (single-axis steps are multiplicative and often overshoot the
    DSP budget where a repacking like (c_in/2, c_out/4, 27·f) would fit);
    combinations whose DSP increase exceeds `dsp_headroom` are pruned before
    evaluation. Other kinds step the single coarse fold up one divisor.
    """
    if cap.kind in FILTER_KINDS:
        current = cap.coarse_in * cap.coarse_out * cap.fine
        kvol = cap.kernel_max[0] * cap.kernel_max[1] * cap.kernel_max[2]
        fines = _divisors(kvol)  # (1,) on an FC node, whose kernel is 1x1x1
        out = []
        for c_in in _divisors(cap.shape_in_max.c):
            for c_out in _divisors(cap.filters_max):
                for fine in fines:
                    product = c_in * c_out * fine
                    if product <= current or product - node_dsp(cap) > dsp_headroom:
                        continue
                    out.append(cap.refit(coarse_in=c_in, coarse_out=c_out, fine=fine))
        # try the most parallel repackings first
        out.sort(key=lambda c: -(c.coarse_in * c.coarse_out * c.fine))
        return out
    bigger = [d for d in _divisors(cap.shape_in_max.c) if d > cap.coarse_in]
    if not bigger:
        return []
    return [cap.refit(coarse_in=min(bigger))]


def fold_climb(model: ModelGraph, dev: DeviceProfile, state: CandidateState, mode: str,
               memo: ChainMemo = None) -> CandidateState:
    """Greedy post-search pass: repack folds while feasible and improving.

    SA's random divisor proposals leave parallelism on the table near the
    resource cap; this systematic neighbourhood descent closes the gap.
    `memo` is the memo of the chain it polishes, if any.
    """
    best = state
    improved = True
    while improved:
        improved = False
        for nid in sorted(best.graph.nodes):
            headroom = dev.dsp_total - best.resources.dsp
            for cap in _fold_neighbours(best.graph.nodes[nid], headroom):
                cand = evaluate(model, best.graph.with_node(nid, cap), dev, mode, memo)
                if cand.feasible and cand.latency_cycles < best.latency_cycles:
                    best = cand
                    improved = True
                    break
    return best


def anneal(model: ModelGraph, dev: DeviceProfile, params: AnnealingParams):
    """Run one SA chain; returns (best feasible CandidateState, trace rows).

    Acceptance of worse feasible states uses the Metropolis rule on the
    latency delta measured in milliseconds, so the default temperature
    schedule is meaningful across devices.
    """
    rng = random.Random(params.seed)
    memo = ChainMemo()  # dropped with the chain
    current, mode = warm_start(model, dev, params, rng, memo)
    best = current
    trace = []
    tau = params.tau_start
    iteration = 0
    accepted = logged = 0  # moves accepted since, and iteration of, the last progress line
    ms = 1e3 / dev.clock_hz
    while tau > params.tau_min:
        if iteration % (10 * params.iterations_per_temperature) == 0:  # every 10th tau
            moves = iteration - logged
            log.info("tau %.4g: current %d, best %d cycles; accepted %d of %d moves (%.0f%%)",
                     tau, current.latency_cycles, best.latency_cycles,
                     accepted, moves, 100 * accepted / max(moves, 1))
            accepted, logged = 0, iteration
        for _ in range(params.iterations_per_temperature):
            new_graph = random_transformation(model, current.graph, rng, params)
            state = evaluate(model, new_graph, dev, mode, memo)
            if state.feasible:
                delta_ms = (state.latency_cycles - current.latency_cycles) * ms
                if delta_ms <= 0 or rng.random() < math.exp(-delta_ms / tau):
                    current = state
                    accepted += 1
                if state.latency_cycles < best.latency_cycles:
                    best = state
            trace.append(
                TraceRow(
                    iteration=iteration,
                    tau=tau,
                    current_cycles=current.latency_cycles,
                    best_cycles=best.latency_cycles,
                    feasible=state.feasible,
                )
            )
            iteration += 1
        tau *= params.cooling
    polished = fold_climb(model, dev, best, mode, memo)
    log.info("fold_climb: %d -> %d cycles", best.latency_cycles, polished.latency_cycles)
    if polished.latency_cycles < best.latency_cycles:
        best = polished
        trace.append(
            TraceRow(
                iteration=iteration,
                tau=tau,
                current_cycles=best.latency_cycles,
                best_cycles=best.latency_cycles,
                feasible=True,
            )
        )
    return best, trace


@dataclass
class ParetoPoint:
    dsp: int
    bram: int
    latency_cycles: int
    latency_ms: float


def pareto_filter(points) -> list:
    """Non-dominated subset under (dsp, latency) minimisation, with the first
    of equal (dsp, latency) points only."""
    kept = []
    for p in points:
        dominated = any(
            (q.dsp <= p.dsp and q.latency_cycles <= p.latency_cycles)
            and (q.dsp < p.dsp or q.latency_cycles < p.latency_cycles)
            for q in points
        )
        repeated = any((q.dsp, q.latency_cycles) == (p.dsp, p.latency_cycles) for q in kept)
        if not (dominated or repeated):
            kept.append(p)
    kept.sort(key=lambda p: p.dsp)
    return kept


def pareto_sweep(model: ModelGraph, dev: DeviceProfile, params: AnnealingParams,
                 budgets) -> list:
    """Anneal once per ascending DSP budget; keep the non-dominated points.

    Each budget's chain is seeded deterministically from the base seed, and
    the best design from the previous (smaller) budget carries forward, so
    latency never increases with budget.
    """
    budgets = list(budgets)
    if budgets != sorted(budgets):
        raise ValueError("budgets must be ascending")
    points = []
    carry = None
    for i, cap in enumerate(budgets):
        capped = dev.with_dsp_cap(cap)
        run_params = replace(params, seed=params.seed + i)
        try:
            best, _ = anneal(model, capped, run_params)
        except OptimizerError:
            best = None
        if carry is not None:
            carried = evaluate(model, carry.graph, capped, params.mode)
            if carried.feasible and (
                best is None or carried.latency_cycles < best.latency_cycles
            ):
                best = carried
        if best is None:
            log.info("budget %d dsp: no feasible design", cap)
            continue
        log.info("budget %d dsp: best %d cycles, dsp %d", cap, best.latency_cycles,
                 best.resources.dsp)
        carry = best
        points.append(
            ParetoPoint(
                dsp=best.resources.dsp,
                bram=best.resources.bram,
                latency_cycles=best.latency_cycles,
                latency_ms=best.latency_cycles * 1e3 / dev.clock_hz,
            )
        )
    return pareto_filter(points)
