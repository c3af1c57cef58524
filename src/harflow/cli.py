"""Command-line entry point: parse -> optimize -> schedule -> report.

All artifacts are JSON/CSV so runs can be diffed and pinned as fixtures.
design.json is decoded once. schedule.json holds each runtime config once,
in a `configs` table that its entries index, each written from its plan's
parts by the one writer of config documents (`perf_model.config_document`):
no command builds a `RuntimeConfig`. `harflow report` builds the design's own schedule and
compares the file, a layer plan at a time, with the schedule.json text
`harflow schedule` writes for it (`scheduler.is_schedule_json`): a file
holding that text is the design's schedule and is not decoded. Any other
file is decoded and compared with the design's entries, in order, every
field, each config as a document (`scheduler.check_schedule_doc`). The
report scores and reports the design's schedule.
Set HARFLOW_LOG to error/info/debug to control verbosity.
"""

import csv
import io
import json
import logging
import os
from pathlib import Path

import click

from . import device as device_mod
from . import generators
from .model_ir import ModelError, parse_model, read_model, serialize_model
from .optimizer import (
    AnnealingParams,
    OptimizerError,
    anneal,
    pareto_sweep,
)
from .perf_model import schedule_latency
from .reporting import build_report
from .resource_model import default_regression_models, graph_resources
from .scheduler import (
    MODE_PADDED,
    MODE_RUNTIME,
    InfeasibleScheduleError,
    build_schedule,
    check_schedule_doc,
    is_schedule_json,
    schedule_json,
)
from .hardware_graph import HardwareGraph, HardwareGraphError

def _setup_logging():
    level = os.environ.get("HARFLOW_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(message)s")


def _read_text(path, what) -> str:
    """The UTF-8 text of file `path`; a file that is missing, cannot be read
    or is not UTF-8 text ends in a one-line error naming the `what` file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise click.ClickException(f"{what} file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise click.ClickException(f"{what} file {path}: cannot read: {exc}")


def _write_text(path, text, what):
    """Write `text` to file `path` as UTF-8; a path that cannot be written
    ends in a one-line error naming the `what` file."""
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise click.ClickException(f"{what} file {path}: cannot write: {exc}")


def _csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def _load_model_text(spec: str) -> str:
    if spec in generators.bundled_model_names() and not Path(spec).exists():
        return generators.bundled_model_text(spec)
    return _read_text(spec, "model")


def _load_device(spec: str):
    try:
        if Path(spec).exists():
            return device_mod.load_profile(_read_text(spec, "device"))
        if spec in device_mod.bundled_profile_names():
            return device_mod.load_bundled_profile(spec)
    except device_mod.DeviceError as exc:
        raise click.ClickException(str(exc))
    raise click.ClickException(
        f"unknown device '{spec}' (bundled: {', '.join(device_mod.bundled_profile_names())})"
    )


def _model_or_fail(read, value):
    try:
        return read(value)  # `parse_model` of a text or `read_model` of a document
    except ModelError as exc:
        raise click.ClickException(str(exc))


@click.group()
def main():
    """Latency-driven DSE for streaming 3D-CNN FPGA accelerators."""
    _setup_logging()


@main.command("parse")
@click.argument("model_file")
def parse_cmd(model_file):
    """Validate a model document and print a summary."""
    model = _model_or_fail(parse_model, _load_model_text(model_file))
    kinds = {}
    for layer in model.layers.values():
        kinds[layer.kind] = kinds.get(layer.kind, 0) + 1
    click.echo(f"model: {model.name}")
    click.echo(f"layers: {len(model.layers)} ({', '.join(f'{k}={v}' for k, v in sorted(kinds.items()))})")
    click.echo(f"edges: {len(model.edges)}")
    click.echo(f"workload: {model.workload_macs() / 1e9:.2f} GMACs")
    click.echo(f"order: {' -> '.join(model.order[:6])} ...")


def _params_from_file(params_file, seed, fusion, runtime_reconfig, combine):
    overrides = _read_json_object(params_file, "params") if params_file else {}
    overrides.setdefault("seed", seed)
    overrides["enable_fusion"] = fusion
    overrides["enable_runtime_reconfig"] = runtime_reconfig
    overrides["enable_combine_separate"] = combine
    try:
        return AnnealingParams(**overrides)
    except (TypeError, ValueError) as exc:
        raise click.ClickException(f"invalid annealing params: {exc}")


@main.command("optimize")
@click.option("--model", "model_file", required=True)
@click.option("--device", "device_spec", required=True)
@click.option("--seed", default=0, type=int)
@click.option("--params", "params_file", default=None, help="JSON of AnnealingParams overrides")
@click.option("--out", "out_file", default="design.json")
@click.option("--trace", "trace_file", default=None)
@click.option("--no-fusion", is_flag=True, help="disable activation fusion")
@click.option("--no-runtime-reconfig", is_flag=True, help="padded-baseline execution")
@click.option("--no-combine", is_flag=True, help="disable combine/separate moves")
def optimize_cmd(model_file, device_spec, seed, params_file, out_file, trace_file,
                 no_fusion, no_runtime_reconfig, no_combine):
    """Minimise model latency on a device with simulated annealing."""
    model_text = _load_model_text(model_file)
    model = _model_or_fail(parse_model, model_text)
    dev = _load_device(device_spec)
    params = _params_from_file(
        params_file, seed, not no_fusion, not no_runtime_reconfig, not no_combine
    )
    try:
        best, trace = anneal(model, dev, params)
    except OptimizerError as exc:
        raise click.ClickException(str(exc))
    design = {
        "model": json.loads(serialize_model(model)),
        "device": dev.to_dict(),
        "mode": params.mode,
        "graph": best.graph.to_dict(),
        "latency_cycles": best.latency_cycles,
        "latency_ms": best.latency_cycles * 1e3 / dev.clock_hz,
        "resources": best.resources.to_dict(),
    }
    _write_text(out_file, json.dumps(design, indent=2) + "\n", "design")
    if trace_file:
        _write_text(trace_file, _csv_text(
            [["iter", "tau", "current_cycles", "best_cycles", "feasible"]]
            + [[row.iteration, f"{row.tau:.9g}", row.current_cycles, row.best_cycles,
                int(row.feasible)] for row in trace]), "trace")
    click.echo(
        f"best latency: {design['latency_ms']:.3f} ms "
        f"({best.latency_cycles} cycles), dsp={best.resources.dsp}"
    )


def _read_json_object(path, what, text=None):
    """The JSON object in file `path` (see `_read_text`), or in `text`, the
    file's text when already read; invalid JSON or any other JSON value ends
    in a one-line error naming the `what` file."""
    try:
        doc = json.loads(_read_text(path, what) if text is None else text)
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"{what} file {path}: invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise click.ClickException(f"{what} file {path}: expected a JSON object")
    return doc


def _load_design(design_file):
    doc = _read_json_object(design_file, "design")
    missing = [k for k in ("model", "device", "graph") if k not in doc]
    if missing:
        raise click.ClickException(f"design file {design_file}: missing {', '.join(missing)}")
    model = _model_or_fail(read_model, doc["model"])
    try:
        dev = device_mod.read_profile(doc["device"])
    except device_mod.DeviceError as exc:
        raise click.ClickException(f"design file {design_file}: {exc}")
    try:
        graph = HardwareGraph.from_dict(doc["graph"])
        graph.validate_cover(model)
    except HardwareGraphError as exc:
        raise click.ClickException(f"design file {design_file}: {exc}")
    if doc.get("mode", MODE_RUNTIME) not in (MODE_RUNTIME, MODE_PADDED):
        raise click.ClickException(f"design file {design_file}: unknown mode {doc['mode']!r}")
    return doc, model, dev, graph


def _schedule_head(model, dev, schedule) -> tuple:
    """(total ms, schedule.json head) of a design's schedule on the design's
    own device `dev`: the head of the text `harflow schedule` writes
    (`scheduler.schedule_json`), and of the one `harflow report` compares a
    schedule file with (`scheduler.is_schedule_json`)."""
    total = schedule_latency(schedule, dev)
    total_ms = total * 1e3 / dev.clock_hz
    head = {"model": model.name, "device": dev.name, "total_cycles": total, "total_ms": total_ms}
    return total_ms, head


@main.command("schedule")
@click.option("--design", "design_file", required=True)
@click.option("--out", "out_file", default="schedule.json")
def schedule_cmd(design_file, out_file):
    """Build the tiled invocation schedule for an optimized design."""
    doc, model, dev, graph = _load_design(design_file)
    try:
        schedule = build_schedule(model, graph, doc.get("mode", MODE_RUNTIME))
    except InfeasibleScheduleError as exc:
        raise click.ClickException(str(exc))
    total_ms, head = _schedule_head(model, dev, schedule)
    _write_text(out_file, schedule_json(head, schedule), "schedule")
    configs = sum(len(plan.tiling.counts) for plan in schedule.parts)  # one per group
    click.echo(f"schedule: {len(schedule)} invocations ({configs} distinct configs), "
               f"{total_ms:.3f} ms")


@main.command("report")
@click.option("--design", "design_file", required=True)
@click.option("--schedule", "schedule_file", required=True)
@click.option("--device", "device_spec", default=None)
@click.option("--out", "out_file", default="report.json")
def report_cmd(design_file, schedule_file, device_spec, out_file):
    """Derive throughput/utilisation metrics for a design + schedule.

    A schedule file whose text is the one `harflow schedule` writes for the
    design (`_schedule_head`) holds the design's own invocations, so it is
    not decoded. The text is compared a layer plan at a time
    (`scheduler.is_schedule_json`), so a file that differs is decoded at its
    first difference and compared with the design's entries
    (`scheduler.check_schedule_doc`). A file that is not a JSON object fails
    before an infeasible design does.
    """
    doc, model, design_dev, graph = _load_design(design_file)
    dev = _load_device(device_spec) if device_spec else design_dev
    text = _read_text(schedule_file, "schedule")
    try:
        schedule = build_schedule(model, graph, doc.get("mode", MODE_RUNTIME))
    except InfeasibleScheduleError as exc:
        _read_json_object(schedule_file, "schedule", text)  # a file not an object fails first
        raise click.ClickException(str(exc))
    if not is_schedule_json(text, _schedule_head(model, design_dev, schedule)[1], schedule):
        try:
            check_schedule_doc(_read_json_object(schedule_file, "schedule", text), schedule)
        except ValueError as exc:
            raise click.ClickException(f"schedule file {schedule_file}: invalid schedule: {exc}")
    latency = schedule_latency(schedule, dev)
    if latency <= 0:
        raise click.ClickException(
            f"schedule file {schedule_file}: total latency is {latency} cycles; nothing to report")
    resources = graph_resources(graph, dev, *default_regression_models())
    report = build_report(model, dev, schedule, resources, latency)
    _write_text(out_file, json.dumps(report, indent=2) + "\n", "report")
    click.echo(
        f"{report['gops_per_s']:.2f} GOps/s, {report['gops_per_s_per_dsp']:.3f} GOps/s/DSP, "
        f"{report['op_per_dsp_per_cycle']:.3f} Op/DSP/cycle"
    )


@main.command("pareto")
@click.option("--model", "model_file", required=True)
@click.option("--device", "device_spec", required=True)
@click.option("--budgets", required=True, help="comma-separated ascending DSP caps")
@click.option("--seed", default=0, type=int)
@click.option("--params", "params_file", default=None)
@click.option("--out", "out_file", default="pareto.csv")
def pareto_cmd(model_file, device_spec, budgets, seed, params_file, out_file):
    """Sweep DSP budgets and emit the non-dominated (dsp, latency) set."""
    model = _model_or_fail(parse_model, _load_model_text(model_file))
    dev = _load_device(device_spec)
    params = _params_from_file(params_file, seed, True, True, True)
    try:
        caps = [int(b) for b in budgets.split(",")]
    except ValueError:
        caps = None
    if not caps or caps != sorted(caps) or caps[0] < 1:
        raise click.ClickException(
            f"--budgets must be ascending comma-separated integers >= 1, got '{budgets}'"
        )
    points = pareto_sweep(model, dev, params, caps)
    _write_text(out_file, _csv_text([["dsp", "bram", "latency_ms"]] + [
        [p.dsp, p.bram, f"{p.latency_ms:.6f}"] for p in points]), "pareto")
    click.echo(f"pareto points: {len(points)}")


if __name__ == "__main__":
    main()
