"""Derived metrics and report assembly for optimized designs."""

from .device import RESOURCES
from .perf_model import invocation_latency


def derive_metrics(workload_gmacs: float, latency_ms: float, dsp_total: int,
                   clock_hz: int) -> dict:
    """Throughput metrics from workload and latency; pure arithmetic."""
    latency_s = latency_ms / 1e3
    gops = workload_gmacs / latency_s
    gops_per_dsp = gops / dsp_total
    clock_ghz = clock_hz / 1e9
    return {
        "gops_per_s": gops,
        "gops_per_s_per_dsp": gops_per_dsp,
        "op_per_dsp_per_cycle": gops_per_dsp / clock_ghz,
    }


def utilization_percent(resources, dev) -> dict:
    budgets = dev.budgets
    return {name: 100.0 * getattr(resources, name) / getattr(budgets, name)
            for name in RESOURCES}


def per_layer_latency(schedule, dev) -> list:
    """Aggregate invocation counts, cycles, distinct configs and bound tags per layer."""
    rows = {}
    for node_id, layer_id, cfg, n in schedule.groups:
        brk = invocation_latency(cfg, dev.bw_in_words_per_cycle, dev.bw_out_words_per_cycle)
        row = rows.setdefault(
            layer_id,
            {"layer": layer_id, "node": node_id, "invocations": 0, "configs": 0,
             "cycles": 0, "bounds": set()},
        )
        row["invocations"] += n
        row["configs"] += 1
        row["cycles"] += brk.total_cycles * n
        row["bounds"].add(brk.bound)
    out = []
    for row in rows.values():
        row["bounds"] = sorted(row["bounds"])
        row["ms"] = row["cycles"] * 1e3 / dev.clock_hz
        out.append(row)
    return out


def build_report(model, dev, schedule, resources, latency_cycles: int) -> dict:
    """The report.json document of a scheduled design, keys in document order."""
    workload_gmacs = model.workload_macs() / 1e9
    latency_ms = latency_cycles * 1e3 / dev.clock_hz
    return {
        "model": model.name,
        "device": dev.name,
        "latency_cycles": latency_cycles,
        "latency_ms": latency_ms,
        "workload_gmacs": workload_gmacs,
        **derive_metrics(workload_gmacs, latency_ms, dev.dsp_total, dev.clock_hz),
        "utilization_percent": utilization_percent(resources, dev),
        "per_layer": per_layer_latency(schedule, dev),
    }
