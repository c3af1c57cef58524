"""Derived metrics and report assembly for optimized designs; the per-layer
rows are scored from the roofline terms the schedule's latency is scored from."""

from .device import RESOURCES
from .perf_model import roofline


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
    """Invocations, distinct configs, cycles and bound tags per layer, scored
    from each group's roofline terms as `perf_model.schedule_latency` is."""
    bw_in, bw_out = dev.bw_in_words_per_cycle, dev.bw_out_words_per_cycle
    rows = {}
    for part in schedule.parts:
        for node_id, layer_id, work, lanes, words_in, words_out, n in part.terms:
            _, bound, cycles = roofline(work, lanes, words_in, words_out, bw_in, bw_out)
            row = rows.setdefault(layer_id, {"layer": layer_id, "node": node_id, "invocations": 0,
                                             "configs": 0, "cycles": 0, "bounds": set()})
            row["invocations"] += n
            row["configs"] += 1
            row["cycles"] += cycles * n
            row["bounds"].add(bound)
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
