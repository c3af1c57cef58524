import csv
import json
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import harflow.cli as cli
import harflow.perf_model as perf_model
import harflow.scheduler as scheduler
from harflow.cli import main
from harflow.device import load_bundled_profile
from harflow.generators import bundled_model_names, bundled_model_text
from harflow.hardware_graph import HardwareGraph, initial_mapping
from harflow.model_ir import KIND_FIELDS, TensorShape, parse_model
from harflow.optimizer import check_constraints, evaluate
from harflow.perf_model import invocation_latency
from harflow.reporting import per_layer_latency
from harflow.scheduler import MODE_RUNTIME

QUICK_PARAMS = {"tau_start": 1.0, "tau_min": 0.05, "cooling": 0.9,
                "warm_start_samples": 8}


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workdir(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(QUICK_PARAMS))
    return tmp_path


def test_parse_bundled_model(runner):
    result = runner.invoke(main, ["parse", "toy"])
    assert result.exit_code == 0, result.output
    assert "layers: 4" in result.output
    assert "Conv3D=1" in result.output


def test_parse_missing_file_fails(runner):
    result = runner.invoke(main, ["parse", "/nonexistent.json"])
    assert result.exit_code != 0
    assert "not found" in result.output


def test_bundled_models_are_the_data_files(runner):
    assert bundled_model_names() == ["c3d", "multishape", "r2plus1d", "toy"]
    for name in bundled_model_names():
        assert parse_model(bundled_model_text(name)).name == name
        assert runner.invoke(main, ["parse", name]).exit_code == 0
    result = runner.invoke(main, ["parse", "nosuch"])
    assert result.exit_code == 1
    assert result.output.startswith("Error: model file not found")


def _design(workdir, edit, name="design.json"):
    """The toy initial-mapping design, edited in place, written to `name`."""
    toy = parse_model(bundled_model_text("toy"))
    doc = {
        "model": json.loads(bundled_model_text("toy")),
        "device": load_bundled_profile("zcu102").to_dict(),
        "mode": "runtime_configurable",
        "graph": initial_mapping(toy).to_dict(),
    }
    edit(doc)
    design = workdir / name
    design.write_text(json.dumps(doc))
    return design


def _unschedulable_design(workdir):
    """A design whose graph leaves the toy pool layer unmapped."""
    return _design(workdir, lambda d: d["graph"]["mapping"].pop("pool_0"), "unschedulable.json")


def _bad_design(workdir, edit):
    return str(_design(workdir, edit, "bad_design.json"))


def _rename_pool_node(doc):
    """Map the pool layer to a node the graph does not have."""
    mapping = doc["graph"]["mapping"]
    mapping["nosuch"] = mapping.pop("pool_0")


def _empty_pool_tile(doc):
    doc["graph"]["nodes"]["pool_0"]["shape_in_max"][0] = 0


def _conv_node(doc):
    return doc["graph"]["nodes"]["conv_0"]


def _double_map_conv(doc):
    """Map the conv layer to a copy of its node as well."""
    graph = doc["graph"]
    graph["nodes"]["conv_9"] = dict(graph["nodes"]["conv_0"])
    graph["mapping"]["conv_9"] = ["conv"]


def _fuse_conv_away(doc):
    """List the conv layer as fused into relu, with its node and mapping gone."""
    graph = doc["graph"]
    del graph["nodes"]["conv_0"], graph["mapping"]["conv_0"]
    graph["fused"] = {"conv": "relu"}


def _bad_device(workdir, **fields):
    """The zcu102 profile with `fields` replaced, written to a file."""
    path = workdir / "bad_device.json"
    path.write_text(json.dumps(dict(load_bundled_profile("zcu102").to_dict(), **fields)))
    return str(path)


def _unscorable_schedule(workdir):
    """schedule.json of the toy design with one config at a zero channel fold."""
    return _edited_schedule(workdir, coarse_in=0)


def _edited_schedule(workdir, **config):
    """schedule.json of the toy design with `config` fields set on its first entry's config."""
    return _edited_doc(
        workdir, lambda doc: doc["configs"][doc["entries"][0]["config"]].update(config))


def _edited_kind(workdir, kind, **config):
    """schedule.json of the toy design with `config` fields set on its first `kind` config."""
    return _edited_doc(
        workdir, lambda doc: next(c for c in doc["configs"] if c["kind"] == kind).update(config))


def _edited_entry(workdir, **fields):
    """schedule.json of the toy design with `fields` set on its first entry."""
    return _edited_doc(workdir, lambda doc: doc["entries"][0].update(fields))


def _edited_entries(workdir, edit):
    """schedule.json of the toy design with `edit` applied to its entry list."""
    return _edited_doc(workdir, lambda doc: edit(doc["entries"]))


def _edited_doc(workdir, edit, design=None):
    """schedule.json of the toy design (or `design`) with `edit` applied to its document."""
    with open(_schedule_file(workdir, design)) as fh:
        doc = json.load(fh)
    edit(doc)
    return _bad_schedule(workdir, json.dumps(doc))


def _outputless(doc):
    """The toy conv layer alone, on a node one plane deep: with the 3-deep kernel
    and one plane of padding, no depth tile yields output, so the design's own
    schedule totals 0 cycles."""
    doc["model"].update(layers=doc["model"]["layers"][:1], edges=[])
    for nid in ("act_0", "pool_0", "fc_0"):
        del doc["graph"]["nodes"][nid], doc["graph"]["mapping"][nid]
    _conv_node(doc)["shape_in_max"][0] = 1


def _report_own_schedule(workdir, edit):
    """report argv for the toy design edited by `edit`, with its own schedule file."""
    design = _design(workdir, edit)
    return ["report", "--schedule", _schedule_file(workdir, design), "--design", str(design)]


def _old_layout(doc):
    """The layout before the config table: each entry holds its config document."""
    configs = doc.pop("configs")
    for entry in doc["entries"]:
        entry["config"] = configs[entry["config"]]


# edits of the toy design's schedule.json document, each with the error it ends in
SCHEDULE_EDITS = [
    (lambda d: d["configs"][0].pop("kind"), "config 0 is no config the design runs"),
    (lambda d: d["configs"][0].pop("shape_in"), "config 0 is no config the design runs"),
    (lambda d: d["configs"][0].update(shape_out=[1, 1, 1]),
     "config 0 is no config the design runs"),
    (lambda d: d["configs"].__setitem__(0, 1), "config 0 is no config the design runs"),
    # a config that no entry names is checked too
    (lambda d: d["configs"].append(dict(d["configs"][0], coarse_in=2)),
     "config 4 is no config the design runs"),
    (lambda d: d["entries"].__setitem__(0, 1), "entry 0 must be an object, got 1"),
    (lambda d: d["entries"][0].pop("node"), "entry 0 lacks 'node'"),
    (lambda d: d["entries"][0].update(x=1), "entry 0 has 'x', a key the design's entries lack"),
    (lambda d: d.update(entries=5), "'entries' must be an array, got int"),
    (lambda d: d.pop("configs"), "document lacks 'configs'"),
    (lambda d: d["entries"].pop(), "entry 3: the file lists 3 entries, the design runs 4"),
    (lambda d: d["entries"][0]["tile_index"].__setitem__(1, True),
     "entry 0 'tile_index' is [0, true, 0, 0, 0], not the design's [0, 0, 0, 0, 0]"),
    # 8.0 == 8 in Python, not in JSON
    (lambda d: d["entries"][0].update(filter_count=8.0),
     "entry 0 'filter_count' is 8.0, not the design's 8"),
    (lambda d: d["entries"][0].update(config=len(d["configs"])),
     "entry 0 'config' 4 names no config equal to the design's"),
    (lambda d: d["entries"][0]["tile_index"].__setitem__(0, -1),
     "entry 0 'tile_index' is [-1, 0, 0, 0, 0], not the design's [0, 0, 0, 0, 0]"),
    (lambda d: d["entries"][0]["tile_origin"].__setitem__(0, -1),
     "entry 0 'tile_origin' is [-1, 0, 0, 0], not the design's [0, 0, 0, 0]"),
    (lambda d: d["entries"][0]["tile_shape"].__setitem__(3, -1),
     "entry 0 'tile_shape' is [4, 16, 16, -1], not the design's [4, 16, 16, 3]"),
    (lambda d: d["entries"][0].update(filter_origin=-1),
     "entry 0 'filter_origin' is -1, not the design's 0"),
    (lambda d: d["entries"][0].update(filter_count=-1),
     "entry 0 'filter_count' is -1, not the design's 8"),
]
SCHEDULE_EDIT_IDS = ["config-without-kind", "config-without-shape-in", "config-shape-short",
                     "config-not-object", "config-unused-not-the-designs", "entry-not-object",
                     "entry-without-node", "entry-extra-key", "entries-not-array", "no-configs",
                     "entry-missing", "tile-index-holds-true", "filter-count-float",
                     "config-index-past-table", "tile-index-negative", "tile-origin-negative",
                     "tile-shape-negative", "filter-origin-negative", "filter-count-negative"]


def _report_edited(workdir, edit):
    """report argv for the toy design with its schedule.json edited by `edit`."""
    return ["report", "--schedule", _edited_doc(workdir, edit),
            "--design", str(_design(workdir, lambda d: None))]


def _bad_schedule(workdir, text):
    path = workdir / "bad_schedule.json"
    path.write_text(text)
    return str(path)


def _schedule_file(workdir, design=None):
    """schedule.json of `design`, by default the unedited toy design."""
    out = workdir / "good_schedule.json"
    design = design or _design(workdir, lambda d: None)
    main.main(["schedule", "--design", str(design), "--out", str(out)], standalone_mode=False)
    return str(out)


def _undecodable(workdir):
    """A file holding the bytes ff fe, which are not UTF-8 text."""
    path = workdir / "undecodable.json"
    path.write_bytes(b"\xff\xfe")
    return str(path)


def _bad_model(workdir, edit):
    doc = json.loads(bundled_model_text("toy"))
    edit(doc)
    path = workdir / "bad_model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _params(workdir, text):
    path = workdir / "bad_params.json"
    path.write_text(text)
    return str(path)


def _search(workdir, cmd, *extra):
    return [cmd, "--model", "toy", "--device", "zcu102", "--out", str(workdir / "out"), *extra]


def _quick(workdir, cmd, *extra):
    """`cmd` on toy at the quick params, with `extra` options such as --out."""
    return [cmd, "--model", "toy", "--device", "zcu102",
            "--params", str(workdir / "params.json"), *extra]


def _multishape_search(workdir, **params):
    """optimize on multishape, whose combine and separate moves have candidates."""
    return ["optimize", "--model", "multishape", "--device", "zcu102",
            "--out", str(workdir / "out"),
            "--params", _params(workdir, json.dumps(dict(QUICK_PARAMS, **params)))]


@pytest.mark.parametrize("argv", [
    lambda w: _search(w, "pareto", "--budgets", "10,x"),
    lambda w: _search(w, "pareto", "--budgets", "256,64"),
    lambda w: _search(w, "optimize", "--params", _params(w, '{"nosuch": 1}')),
    lambda w: _search(w, "optimize", "--params", str(w / "missing.json")),
    lambda w: _search(w, "optimize", "--params", _params(w, '{"cooling": 1.5}')),
    lambda w: _search(w, "optimize", "--params", _params(w, "{oops")),
    lambda w: _search(w, "optimize", "--params", _params(w, "[1, 2]")),
    lambda w: ["schedule", "--design", str(_unschedulable_design(w))],
    lambda w: ["parse", _bad_model(w, lambda d: d["layers"][0].update(filters="x"))],
    lambda w: ["parse", _bad_model(w, lambda d: d["layers"][0].update(shape_in=["a", 1, 1, 1]))],
    lambda w: ["parse", _bad_model(w, lambda d: d["edges"].append(["conv"]))],
    lambda w: ["parse", _bad_model(w, lambda d: d.update(layers=[3]))],
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: d.pop("device"))],
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: d.pop("graph"))],
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: d.pop("model"))],
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: d.update(device="zcu102"))],
    lambda w: ["schedule", "--design", _bad_design(w, _rename_pool_node)],
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: d.update(mode="fastest"))],
    lambda w: ["schedule", "--design", _bad_design(w, _empty_pool_tile)],
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: _conv_node(d).update(coarse_in=0))],
    lambda w: ["schedule", "--design", _bad_design(
        w, lambda d: _conv_node(d).update(kernel_max=[3, 3]))],
    lambda w: ["report", "--schedule", _schedule_file(w),
               "--design", _bad_design(w, lambda d: d.pop("device"))],
    lambda w: ["report", "--schedule", _schedule_file(w),
               "--design", _bad_design(w, lambda d: d.update(device=[1, 2]))],
    lambda w: ["report", "--schedule", str(w / "missing.json"),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _bad_schedule(w, "{oops"),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _bad_schedule(
                   w, '{"configs": [], "entries": [{"node": "conv_0"}]}'),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _unscorable_schedule(w),
               "--design", str(_design(w, lambda d: None))],
    lambda w: _search(w, "optimize", "--device", _bad_device(w, dsp_total="abc")),
    lambda w: _search(w, "optimize", "--device", _bad_device(w, dsp_total=None)),
    lambda w: _search(w, "optimize", "--device", _bad_device(w, clock_mhz="fast")),
    lambda w: _search(w, "optimize", "--device", _bad_device(w, bw_in_words_per_cycle="x")),
    lambda w: _search(w, "optimize", "--device", _bad_device(w, dma_overhead=[1])),
    lambda w: _search(w, "optimize", "--device", _bad_device(w, dma_overhead={"foo": 1})),
    lambda w: ["schedule", "--design", _bad_design(
        w, lambda d: d["device"].update(dsp_total="abc"))],
    lambda w: _search(w, "optimize", "--params", _params(
        w, json.dumps(dict(QUICK_PARAMS, iterations_per_temperature=0)))),
    lambda w: _multishape_search(w, separate_layers=0),
    lambda w: _multishape_search(w, combine_nodes=1),
    lambda w: _multishape_search(w, warm_start_samples=1.5),
    lambda w: _multishape_search(w, warm_start_samples="4"),
    lambda w: _multishape_search(w, warm_start_samples=-3),
    lambda w: _multishape_search(w, iterations_per_temperature=True),
    lambda w: _multishape_search(w, seed=[1]),
    lambda w: _multishape_search(w, enable_fusion="yes"),
    lambda w: _multishape_search(w, enable_runtime_reconfig=0),
    lambda w: _search(w, "optimize", "--params", _params(w, '{"tau_start": Infinity}')),
    # true passes every comparison as 1
    lambda w: _search(w, "optimize", "--params", _params(
        w, '{"tau_start": 10, "tau_min": true, "cooling": 0.5}')),
    lambda w: _search(w, "optimize", "--params", _params(w, '{"cooling": true}')),
    lambda w: ["schedule", "--design", _bad_design(w, _double_map_conv)],
    lambda w: ["schedule", "--design", _bad_design(
        w, lambda d: _conv_node(d).update(kernel_max=[1, 1, 1]))],
    lambda w: ["schedule", "--design", _bad_design(w, _fuse_conv_away)],
    lambda w: ["schedule", "--design", _bad_design(
        w, lambda d: d["graph"]["mapping"].update(conv_0=[["conv"]]))],
    lambda w: ["schedule", "--design", _bad_design(
        w, lambda d: d["graph"]["nodes"]["pool_0"]["shape_in_max"].__setitem__(0, 2.5))],
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: _conv_node(d).update(coarse_in=True))],
    lambda w: ["parse", _bad_model(w, lambda d: d["layers"][0].update(filters=8.7))],
    lambda w: ["parse", _bad_model(w, lambda d: d["layers"][0].update(broadcast="false"))],
    # ids and names that would match or print only when coerced to strings
    lambda w: ["parse", _bad_model(w, lambda d: (d["layers"][0].update(id=None),
                                                 d["edges"][0].__setitem__(0, "None")))],
    lambda w: ["parse", _bad_model(w, lambda d: (d["layers"][0].update(id=3),
                                                 d["edges"][0].__setitem__(0, "3")))],
    lambda w: ["parse", _bad_model(w, lambda d: (d["layers"][0].update(id="3"),
                                                 d["edges"][0].__setitem__(0, 3)))],
    lambda w: ["parse", _bad_model(w, lambda d: d.update(name=5))],
    lambda w: ["report", "--schedule", _edited_schedule(w, accumulate_psum="false"),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_schedule(w, kernel=["3", 3, 3]),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_entry(w, node=1),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_entry(w, layer=7),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_schedule(w, kind="Conv2D"),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_schedule(w, kind=None),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_entry(w, tile_index=[0.5, "x"]),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_entry(w, tile_origin=[0, 0, 0]),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_entry(w, tile_shape="abc"),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_entries(w, list.clear),
               "--design", str(_design(w, lambda d: None))],
    lambda w: _report_own_schedule(w, _outputless),
    # {"coarse_in": true} == {"coarse_in": 1}: every table element is checked,
    # also a copy of a valid config that no entry names
    lambda w: ["report", "--schedule", _edited_doc(
        w, lambda d: d["configs"].append(dict(d["configs"][0], coarse_in=True))),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_schedule(w, filters=-1),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_schedule(w, padding=[0, 0, -1, 0, 0, 0]),
               "--design", str(_design(w, lambda d: None))],
    # Python reads configs[-1] and configs[True] as the last and the second config
    lambda w: ["report", "--schedule", _edited_entry(w, config=-1),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_doc(
        w, lambda d: d["entries"][0].update(config=len(d["configs"]))),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_entry(w, config=True),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_doc(
        w, lambda d: d.update(configs=dict(enumerate(d["configs"])))),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_entry(w, layer="nosuch"),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_entries(w, lambda e: e.append(e[0])),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_entry(w, node="pool_0"),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_entries(w, list.pop),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_doc(w, _old_layout),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_kind(w, "Activation", shape_out=[9, 9, 9, 9]),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _edited_kind(w, "Pool3D", type=3),
               "--design", str(_design(w, lambda d: None))],
    lambda w: _search(w, "optimize", "--device", _bad_device(w, dsp_total=2.5)),
    lambda w: _search(w, "optimize", "--device", _bad_device(w, clock_mhz=True)),
    lambda w: _search(w, "pareto", "--budgets", "0,64"),
    lambda w: _search(w, "pareto", "--budgets", "-5,64"),
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: _conv_node(d).update(filters_max=0))],
    lambda w: ["schedule", "--design", _bad_design(
        w, lambda d: d["model"]["layers"][0].update(type=[1]))],
    # a directory or a file that is not UTF-8 text, as each input file
    lambda w: ["parse", str(w)],
    lambda w: ["parse", _undecodable(w)],
    lambda w: ["schedule", "--design", str(w)],
    lambda w: ["schedule", "--design", _undecodable(w)],
    lambda w: ["optimize", "--model", "toy", "--device", str(w), "--out", str(w / "out")],
    lambda w: ["optimize", "--model", "toy", "--device", _undecodable(w),
               "--out", str(w / "out")],
    lambda w: _search(w, "optimize", "--params", str(w)),
    lambda w: _search(w, "optimize", "--params", _undecodable(w)),
    lambda w: ["report", "--schedule", str(w), "--design", str(_design(w, lambda d: None))],
    lambda w: ["report", "--schedule", _undecodable(w),
               "--design", str(_design(w, lambda d: None))],
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: d["graph"].update(mapping=[1]))],
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: d["graph"].update(nodes=[1]))],
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: d["graph"].update(fused=[1]))],
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: _conv_node(d).update(kind="Bogus"))],
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: _conv_node(d).update(coarse_in=2))],
    lambda w: ["schedule", "--design", _bad_design(
        w, lambda d: d["graph"]["nodes"]["pool_0"].update(supports_types=[]))],
    # an output path that is a directory, as each output file
    lambda w: _quick(w, "optimize", "--out", str(w)),
    lambda w: _quick(w, "optimize", "--out", str(w / "design.json"), "--trace", str(w)),
    lambda w: ["schedule", "--design", str(_design(w, lambda d: None)), "--out", str(w)],
    lambda w: ["report", "--schedule", _schedule_file(w),
               "--design", str(_design(w, lambda d: None)), "--out", str(w)],
    lambda w: _quick(w, "pareto", "--budgets", "64", "--out", str(w)),
    # a graph or node document that is not an object, a node without its kind
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: d.update(graph=[1]))],
    lambda w: ["schedule", "--design", _bad_design(
        w, lambda d: d["graph"]["nodes"].update(conv_0=1))],
    lambda w: ["schedule", "--design", _bad_design(w, lambda d: _conv_node(d).pop("kind"))],
    # a schedule config or entry that is not an object or lacks a key, entries not an array
    *(lambda w, edit=edit: _report_edited(w, edit) for edit, _ in SCHEDULE_EDITS),
], ids=["budget-not-int", "budgets-unsorted", "params-unknown-key", "params-missing",
        "params-out-of-range", "params-bad-json", "params-not-object", "schedule-infeasible",
        "model-filters-not-int", "model-shape-not-int", "model-one-element-edge",
        "model-layer-not-object", "schedule-no-device", "schedule-no-graph",
        "schedule-no-model", "schedule-device-not-object", "schedule-unknown-node",
        "schedule-unknown-mode", "schedule-empty-tile", "schedule-zero-fold",
        "schedule-kernel-not-triple", "report-no-device", "report-device-not-object",
        "report-schedule-missing", "report-schedule-bad-json", "report-schedule-bad-entry",
        "report-schedule-zero-fold", "device-dsp-not-number", "device-dsp-null",
        "device-clock-not-number", "device-bw-not-number", "device-overhead-not-object",
        "device-overhead-unknown-key", "schedule-device-bad-field",
        "params-zero-iterations", "params-separate-none", "params-combine-one",
        "params-samples-float", "params-samples-string", "params-samples-negative",
        "params-iterations-bool", "params-seed-list", "params-fusion-string",
        "params-runtime-reconfig-int", "params-tau-infinite",
        "params-tau-min-bool", "params-cooling-bool",
        "schedule-layer-mapped-twice", "schedule-kernel-exceeds-node",
        "schedule-fused-not-activation", "schedule-mapped-id-not-string",
        "schedule-shape-not-int", "schedule-fold-bool", "model-filters-float",
        "model-broadcast-string", "model-layer-id-null", "model-layer-id-int",
        "model-edge-source-int", "model-name-int", "report-schedule-psum-string",
        "report-schedule-kernel-string", "report-schedule-node-not-string",
        "report-schedule-layer-not-string", "report-schedule-kind-unknown",
        "report-schedule-kind-null", "report-schedule-tile-index-not-int",
        "report-schedule-tile-origin-short", "report-schedule-tile-shape-string",
        "report-schedule-no-entries", "report-schedule-zero-latency",
        "report-schedule-bool-after-equal-int", "report-schedule-filters-negative",
        "report-schedule-padding-negative", "report-schedule-config-index-negative",
        "report-schedule-config-index-out-of-range", "report-schedule-config-index-bool",
        "report-schedule-configs-not-list", "report-schedule-unknown-layer",
        "report-schedule-repeated-entry", "report-schedule-wrong-node",
        "report-schedule-missing-entry", "report-schedule-old-layout",
        "report-schedule-config-not-the-designs", "report-schedule-type-not-string",
        "device-dsp-float", "device-clock-bool", "budgets-zero", "budgets-negative",
        "schedule-conv-no-filters", "schedule-model-type-not-string",
        "model-directory", "model-not-utf8", "schedule-design-directory",
        "schedule-design-not-utf8", "device-directory", "device-not-utf8",
        "params-directory", "params-not-utf8", "report-schedule-directory",
        "report-schedule-not-utf8", "schedule-mapping-not-object",
        "schedule-nodes-not-object", "schedule-fused-not-object", "schedule-node-kind-unknown",
        "schedule-fold-not-divisor", "schedule-type-not-supported",
        "optimize-out-directory", "optimize-trace-directory", "schedule-out-directory",
        "report-out-directory", "pareto-out-directory", "schedule-graph-not-object",
        "schedule-node-not-object", "schedule-node-without-kind",
        *(f"report-{name}" for name in SCHEDULE_EDIT_IDS)])
def test_malformed_input_exits_with_one_error_line(runner, workdir, argv):
    result = runner.invoke(main, argv(workdir))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["graph"].update(mapping=[1]), "graph 'mapping' must be an object, got [1]"),
    (lambda d: d.update(graph=[1]), "graph must be an object, got [1]"),
    (lambda d: d["graph"]["nodes"].update(conv_0=1), "node capability must be an object, got 1"),
    (lambda d: _conv_node(d).pop("kind"), "node capability lacks 'kind'"),
    (lambda d: _conv_node(d).update(kind="Bogus"), "node capability 'kind' must be one of"),
    (lambda d: _conv_node(d).update(coarse_in=2),
     "Conv3D node folds (coarse_in, coarse_out, fine) (2, 1, 1) must divide max channels 3"),
    (lambda d: _conv_node(d).update(kernel_max=[3, 1, 3]),
     "layer 'conv' kernel (3, 3, 3) exceeds node 'conv_0' kernel_max (3, 1, 3)"),
], ids=["mapping-not-object", "graph-not-object", "node-not-object", "node-without-kind",
        "node-kind-unknown", "fold-not-divisor", "kernel-exceeds-node"])
def test_design_reader_names_the_bad_field(runner, workdir, edit, message):
    result = runner.invoke(main, ["schedule", "--design", _bad_design(workdir, edit)])
    assert result.exit_code == 1 and message in result.output, result.output


@pytest.mark.parametrize("edit, message", SCHEDULE_EDITS, ids=SCHEDULE_EDIT_IDS)
def test_schedule_reader_names_the_bad_field(runner, workdir, edit, message):
    result = runner.invoke(main, _report_edited(workdir, edit))
    path = workdir / "bad_schedule.json"
    assert result.exit_code == 1
    assert result.output == f"Error: schedule file {path}: invalid schedule: {message}\n"


def _tiled_conv_design(workdir):
    """The toy design with its conv layer tiled into many invocations of few configs."""
    return _design(workdir, lambda d: _conv_node(d).update(shape_in_max=[4, 1, 1, 3]))


def test_report_counts_reordered_equal_configs_as_one_group(runner, workdir):
    def reorder(doc):
        """Point one entry of the most used config at a copy with the keys reversed."""
        used = Counter(e["config"] for e in doc["entries"])
        entry = next(e for e in doc["entries"] if e["config"] == max(used, key=used.get))
        doc["configs"].append(dict(reversed(doc["configs"][entry["config"]].items())))
        entry["config"] = len(doc["configs"]) - 1

    design = str(_tiled_conv_design(workdir))
    reports = []
    for schedule in (_schedule_file(workdir, design), _edited_doc(workdir, reorder, design)):
        out = workdir / f"report{len(reports)}.json"
        result = runner.invoke(main, ["report", "--out", str(out), "--schedule", schedule,
                                      "--design", design])
        assert result.exit_code == 0, result.output
        reports.append(out.read_text())
    assert reports[1] == reports[0]
    rows = {row["layer"]: row for row in json.loads(reports[0])["per_layer"]}
    assert rows["conv"]["invocations"] > rows["conv"]["configs"]


def _slow_dma_device(workdir):
    """zcu102 at DMA bandwidths of 1/2 and 1/3 words per cycle, written to a file."""
    path = workdir / "slow_dma.json"
    path.write_text(json.dumps(dict(load_bundled_profile("zcu102").to_dict(),
                                    name="zcu102-slow-dma", bw_in_words_per_cycle="1/2",
                                    bw_out_words_per_cycle="1/3")))
    return str(path)


def _indented(doc):
    """The document re-dumped with `indent=2`: the design's entries, in order."""
    return json.dumps(doc, indent=2)


def _configs_permuted(doc):
    """The config table reversed, each entry naming its config at its new index."""
    last = len(doc["configs"]) - 1
    return json.dumps(dict(doc, configs=doc["configs"][::-1], entries=[
        dict(e, config=last - e["config"]) for e in doc["entries"]]))


def _config_at_two_indices(doc):
    """The config table twice over, every other entry naming its config's second copy."""
    n = len(doc["configs"])
    return json.dumps(dict(doc, configs=doc["configs"] * 2, entries=[
        dict(e, config=e["config"] + n * (k % 2)) for k, e in enumerate(doc["entries"])]))


def _keys_reversed(doc):
    """Each object's keys in reverse order, the head's included, and another total."""
    def reverse(value):
        if type(value) is dict:
            return {key: reverse(value[key]) for key in reversed(value)}
        return [reverse(v) for v in value] if type(value) is list else value
    return json.dumps(reverse(dict(doc, total_ms=0.5)))


@pytest.mark.parametrize("copy", [_configs_permuted, _config_at_two_indices, _keys_reversed])
def test_report_of_a_copy_holding_the_designs_entries(runner, workdir, copy):
    """A file that holds the design's entries in their order, each config
    as a document, reports as the design's own file does, byte for byte,
    at the design's device and at `--device`: with the config table
    permuted or one config at two indices, with the keys of every object in
    another order (for another whitespace, see
    `test_report_checks_its_own_schedule_by_its_text`)."""
    design = str(_tiled_conv_design(workdir))
    canonical = _schedule_file(workdir, design)
    other = _bad_schedule(workdir, copy(json.loads(Path(canonical).read_text())))
    for device in ([], ["--device", _slow_dma_device(workdir)]):
        reports = []
        for schedule in (canonical, other):
            out = workdir / f"report{len(reports)}.json"
            result = runner.invoke(main, ["report", "--design", design, "--schedule", schedule,
                                          "--out", str(out), *device])
            assert result.exit_code == 0, result.output
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


def _reversed(entries):
    """Reverse the entries: (index, key) of the first difference."""
    entries.reverse()
    return 0, "node"


def _tile_moved(entries):
    """Move entry 5's tile by one along H, its counts unchanged."""
    entries[5]["tile_origin"][1] += 1
    return 5, "tile_origin"


def _true_for_1(entries):
    """Write true for the first `tile_index[1]` of 1, equal to it in Python."""
    n = next(n for n, e in enumerate(entries) if e["tile_index"][1] == 1)
    entries[n]["tile_index"][1] = True
    return n, "tile_index"


def _float_filter_count(entries):
    """Write the first entry's `filter_count` as a float, equal to it in Python."""
    entries[0]["filter_count"] = float(entries[0]["filter_count"])
    return 0, "filter_count"


@pytest.mark.parametrize("edit", [_reversed, _tile_moved, _true_for_1, _float_filter_count])
def test_report_rejects_a_file_whose_entries_differ(runner, workdir, edit):
    """The design runs its entries in order, each on its tile: a file with
    the entries reversed or one tile moved is not the design's schedule,
    though each (node, layer, config) keeps its count. Values are compared
    with their JSON types, so true for 1 or 8.0 for 8 differ too. The error
    line names the first entry and field that differ."""
    design = str(_tiled_conv_design(workdir))
    doc = json.loads(Path(_schedule_file(workdir, design)).read_text())
    own = json.loads(json.dumps(doc["entries"]))
    n, key = edit(doc["entries"])
    schedule = _bad_schedule(workdir, json.dumps(doc))
    result = runner.invoke(main, ["report", "--design", design, "--schedule", schedule,
                                  "--out", str(workdir / "report.json")])
    assert result.exit_code == 1
    assert result.output == (
        f"Error: schedule file {schedule}: invalid schedule: entry {n} '{key}' is "
        f"{json.dumps(doc['entries'][n][key])}, not the design's {json.dumps(own[n][key])}\n")


def test_report_decodes_the_designs_entries_only_for_a_copy_in_another_form(
        runner, workdir, monkeypatch):
    """A file that is not the design's own text is decoded once. When
    `json.dumps` writes its entries and config table as the design's, that
    one comparison of texts holds; any other file, such as one with its
    config table permuted, is compared entry by entry with the design's
    entry documents, decoded from the design's own entry text."""
    design = _tiled_conv_design(workdir)
    doc = json.loads(Path(_schedule_file(workdir, str(design))).read_text())
    assert len(doc["entries"]) > 20 * len(doc["configs"])
    loaded, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: loaded.append(s) or loads(s, *a, **k))
    for copy, entry_texts_decoded in ((_indented, 0), (_configs_permuted, 1)):
        path = workdir / "copy.json"
        path.write_text(copy(doc))
        loaded.clear()
        result = runner.invoke(main, ["report", "--design", str(design), "--schedule", str(path),
                                      "--out", str(workdir / "report.json")])
        assert result.exit_code == 0, result.output
        assert loaded.count(path.read_text()) == 1, copy
        assert sum(s.startswith('[{"node": ') for s in loaded) == entry_texts_decoded, copy


def test_report_checks_its_own_schedule_by_its_text(runner, workdir, monkeypatch):
    """On the tiled toy design, the file `harflow schedule` writes and a copy
    re-dumped with `indent=2` give byte-identical report.json, at the
    design's device and at `--device`. The design's own file is compared by
    its text: it is never passed to `json.loads`, nor to
    `check_schedule_doc`; the copy is decoded once and checked once."""
    design = str(_tiled_conv_design(workdir))
    canonical = _schedule_file(workdir, design)
    doc = json.loads(Path(canonical).read_text())
    copy = workdir / "indented.json"
    copy.write_text(_indented(doc))
    loaded, checked = [], []
    loads, check_schedule_doc = json.loads, cli.check_schedule_doc
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: loaded.append(s) or loads(s, *a, **k))
    monkeypatch.setattr(cli, "check_schedule_doc", lambda doc, schedule: checked.append(
        len(doc["entries"])) or check_schedule_doc(doc, schedule))
    for device in ([], ["--device", _slow_dma_device(workdir)]):
        reports = []
        for schedule in (canonical, str(copy)):
            loaded.clear()
            checked.clear()
            out = workdir / f"report{len(reports)}.json"
            result = runner.invoke(main, ["report", "--design", design, "--schedule", schedule,
                                          "--out", str(out), *device])
            assert result.exit_code == 0, result.output
            reports.append(out.read_bytes())
            schedule_text = Path(schedule).read_text()
            if schedule == canonical:
                assert schedule_text not in loaded and checked == []
            else:
                assert loaded.count(schedule_text) == 1 and checked == [len(doc["entries"])]
        assert reports[0] == reports[1]
    assert len(doc["entries"]) > 20 * len(doc["configs"])


def test_report_stops_comparing_at_the_first_plan_that_differs(runner, workdir, monkeypatch):
    """`harflow report` compares a schedule file with the design's own text a
    layer plan at a time, and formats each plan once. The design's own file
    formats every plan. A copy that differs from it in the whitespace of the
    first plan formats that plan, then is decoded and compared whole,
    formatting the plans past it; a copy that differs only in the last plan
    formats every plan before it is decoded, and none after. Each reports as
    the design's own file does."""
    design = str(_tiled_conv_design(workdir))
    canonical = _schedule_file(workdir, design)
    text = Path(canonical).read_text()
    first, last = workdir / "first.json", workdir / "last.json"
    first.write_text(text.replace('"entries": [{"node": ', '"entries": [{"node":  ', 1))
    at = text.rindex('{"node": ')
    last.write_text(text[:at] + '{"node":  ' + text[at + len('{"node": '):])
    formatted = []
    entry_texts = scheduler._LayerPlan.entry_texts
    monkeypatch.setattr(scheduler._LayerPlan, "entry_texts", lambda plan, *args: (
        formatted.append(plan.layer.id) or entry_texts(plan, *args)))
    plans = ["conv", "relu", "pool", "fc"]
    reports = []
    for schedule, formats in ((canonical, plans), (first, plans), (last, plans)):
        formatted.clear()
        out = workdir / f"report{len(reports)}.json"
        result = runner.invoke(main, ["report", "--design", design, "--schedule", str(schedule),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert formatted == formats, schedule
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_report_reads_the_file_before_it_finds_the_design_infeasible(runner, workdir):
    """A design that cannot be scheduled has no schedule text to compare a
    file with, so the file is decoded first: a file that is not a JSON
    object fails on the file, any object on the design."""
    doc = json.loads(bundled_model_text("toy"))
    conv = doc["layers"][0]
    doc["layers"].insert(0, dict(conv, id="gconv", shape_out=[4, 16, 16, 3], filters=3,
                                 groups=3))
    doc["edges"].insert(0, ["gconv", "conv"])
    model = parse_model(json.dumps(doc))
    graph = initial_mapping(model)
    node = next(nid for nid, lids in graph.mapping.items() if "gconv" in lids)
    graph = graph.with_node(node, graph.nodes[node].refit(
        shape_in_max=TensorShape(4, 16, 16, 2)))
    design = workdir / "grouped.json"
    design.write_text(json.dumps({"model": doc, "device": load_bundled_profile("zcu102").to_dict(),
                                  "mode": MODE_RUNTIME, "graph": graph.to_dict()}))
    malformed = _bad_schedule(workdir, "{oops")
    for schedule, message in (
            (malformed, f"schedule file {malformed}: invalid JSON"),
            (_schedule_file(workdir), f"layer 'gconv' cannot run on node '{node}'"),
            (str(_design(workdir, lambda d: None, "object.json")),
             f"layer 'gconv' cannot run on node '{node}'")):
        result = runner.invoke(main, ["report", "--design", str(design), "--schedule", schedule,
                                      "--out", str(workdir / "report.json")])
        assert result.exit_code == 1 and result.output.startswith(f"Error: {message}"), (
            result.output)


def test_report_of_an_id_holding_a_percent_sign(runner, workdir):
    """A node and a layer id holding '%', which a format template would read
    as a conversion, are written as `json.dumps` writes them, and the
    design's own file then reports as copies of it that are decoded do."""
    def percent_ids(doc):
        _conv_node(doc).update(shape_in_max=[4, 1, 1, 3])
        graph = doc["graph"]
        graph["nodes"]["n%d%%s"] = graph["nodes"].pop("conv_0")
        graph["mapping"]["n%d%%s"] = [
            "c%s%" if lid == "conv" else lid for lid in graph["mapping"].pop("conv_0")]
        for layer in doc["model"]["layers"]:
            if layer["id"] == "conv":
                layer["id"] = "c%s%"
        doc["model"]["edges"] = [["c%s%" if x == "conv" else x for x in edge]
                                 for edge in doc["model"]["edges"]]
    design = str(_design(workdir, percent_ids))
    canonical = _schedule_file(workdir, design)
    doc = json.loads(Path(canonical).read_text())
    assert {(e["node"], e["layer"]) for e in doc["entries"]} >= {("n%d%%s", "c%s%")}
    reports = []
    for schedule in (canonical, _bad_schedule(workdir, _indented(doc)),
                     _bad_schedule(workdir, _configs_permuted(doc))):
        out = workdir / f"report{len(reports)}.json"
        result = runner.invoke(main, ["report", "--design", design, "--schedule", schedule,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_reports_and_checks_read_only_the_plans_terms(runner, workdir, monkeypatch):
    """The per-layer rows and the constraint check of a built runtime schedule
    read its plans' roofline terms and no-output verdicts: they build no
    config and never call `invocation_latency`, nor does `harflow report`."""
    design = _tiled_conv_design(workdir)
    schedule = _schedule_file(workdir, str(design))
    toy = parse_model(bundled_model_text("toy"))
    dev = load_bundled_profile("zcu102")
    graph = HardwareGraph.from_dict(json.loads(design.read_text())["graph"])
    state = evaluate(toy, graph, dev, MODE_RUNTIME)
    invocation_latency.cache_clear()

    def no_config(*args):
        raise AssertionError("a config was built")
    with monkeypatch.context() as patch:
        patch.setattr(scheduler, "_tile_config", no_config)
        rows = per_layer_latency(state.schedule, dev)
        assert check_constraints(state, dev) == state.violations == [
            "layer conv on conv_0: tile yields no output"]
    assert sum(row["cycles"] for row in rows) == state.latency_cycles
    assert sum(row["invocations"] for row in rows) == len(state.schedule) > len(rows)
    result = runner.invoke(main, ["report", "--design", str(design), "--schedule", schedule,
                                  "--out", str(workdir / "report.json")])
    assert result.exit_code == 0, result.output
    assert json.loads((workdir / "report.json").read_text())["per_layer"] == rows
    cache = invocation_latency.cache_info()
    assert cache.hits == cache.misses == 0


@pytest.mark.parametrize("mode", ["runtime_configurable", "padded_baseline"])
def test_export_commands_build_no_config(runner, workdir, monkeypatch, mode):
    """`harflow schedule` writes, and `harflow report` checks, the tiled toy
    design's schedule.json from its plans' config fields through
    `perf_model.config_document`: neither command constructs a
    `RuntimeConfig`, in either mode, nor does a report that decodes a copy."""
    design = _design(workdir, lambda d: (_conv_node(d).update(shape_in_max=[4, 1, 1, 3]),
                                         d.update(mode=mode)))

    def no_config(*args, **kwargs):
        raise AssertionError("a RuntimeConfig was constructed")
    monkeypatch.setattr(perf_model.RuntimeConfig, "__init__", no_config)
    schedule = workdir / "schedule.json"
    result = runner.invoke(main, ["schedule", "--design", str(design), "--out", str(schedule)])
    assert result.exit_code == 0, result.output
    copy = workdir / "indented.json"
    copy.write_text(_indented(json.loads(schedule.read_text())))
    reports = []
    for path in (schedule, copy):
        out = workdir / f"report{len(reports)}.json"
        result = runner.invoke(main, ["report", "--design", str(design), "--schedule", str(path),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_unknown_device_fails(runner, workdir):
    result = runner.invoke(main, [
        "optimize", "--model", "toy", "--device", "nosuchboard",
        "--out", str(workdir / "d.json"),
    ])
    assert result.exit_code != 0
    assert "unknown device" in result.output


def _multishape_design(runner, workdir, *extra, **params):
    """design.json of `_multishape_search` with `extra` options."""
    result = runner.invoke(main, [*_multishape_search(workdir, **params), *extra])
    assert result.exit_code == 0, result.output
    return json.loads((workdir / "out").read_text())


def test_seed_flag_beats_the_params_file_seed(runner, workdir):
    """A `--seed` given on the command line wins over the params file's
    seed, which wins over the default, 0."""
    seed_3 = _multishape_design(runner, workdir, "--seed", "3")
    assert _multishape_design(runner, workdir, "--seed", "3", seed=0) == seed_3
    assert _multishape_design(runner, workdir, seed=3) == seed_3
    assert _multishape_design(runner, workdir) == _multishape_design(runner, workdir, "--seed", "0")
    assert _multishape_design(runner, workdir)["latency_cycles"] != seed_3["latency_cycles"]


def test_params_file_switches_hold_unless_a_flag_forces_them_off(runner, workdir):
    """The params file's `enable_*` switches hold; a `--no-*` flag forces its
    switch off whatever the file says."""
    default = _multishape_design(runner, workdir)
    assert default["mode"] == MODE_RUNTIME and default["graph"]["fused"]
    assert _multishape_design(runner, workdir, enable_runtime_reconfig=False)["mode"] == (
        "padded_baseline")
    assert _multishape_design(runner, workdir, "--no-runtime-reconfig",
                              enable_runtime_reconfig=True)["mode"] == "padded_baseline"
    assert not _multishape_design(runner, workdir, enable_fusion=False)["graph"]["fused"]
    assert not _multishape_design(runner, workdir, "--no-fusion",
                                  enable_fusion=True)["graph"]["fused"]
    assert _multishape_design(runner, workdir, enable_combine_separate=False) != default
    assert _multishape_design(runner, workdir, "--no-combine",
                              enable_combine_separate=True) == _multishape_design(
        runner, workdir, enable_combine_separate=False)


def test_pareto_takes_the_params_file_switches(runner, workdir):
    """`pareto` reads the params file's `enable_*` switches too: a padded
    sweep finds other latencies than a runtime one."""
    def sweep(**params):
        out = workdir / "pareto.csv"
        params_file = _params(workdir, json.dumps(dict(QUICK_PARAMS, **params)))
        result = runner.invoke(main, ["pareto", "--model", "toy", "--device", "zcu102",
                                      "--budgets", "64,256", "--params", params_file,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        return out.read_text()

    assert sweep(enable_runtime_reconfig=False) != sweep()


def test_optimize_schedule_report_pipeline(runner, workdir):
    design = workdir / "design.json"
    trace = workdir / "trace.csv"
    result = runner.invoke(main, [
        "optimize", "--model", "toy", "--device", "zcu102", "--seed", "1",
        "--params", str(workdir / "params.json"),
        "--out", str(design), "--trace", str(trace),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(design.read_text())
    assert doc["mode"] == "runtime_configurable"
    assert doc["latency_cycles"] > 0
    assert set(doc["resources"]) == {"dsp", "bram", "lut", "ff"}

    with open(trace) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"iter", "tau", "current_cycles",
                                     "best_cycles", "feasible"}
    bests = [int(r["best_cycles"]) for r in rows]
    assert all(a >= b for a, b in zip(bests, bests[1:]))

    sched = workdir / "schedule.json"
    result = runner.invoke(main, ["schedule", "--design", str(design),
                                  "--out", str(sched)])
    assert result.exit_code == 0, result.output
    sdoc = json.loads(sched.read_text())
    assert sdoc["total_cycles"] == doc["latency_cycles"]
    assert sdoc["entries"]

    def config(entry):
        return json.dumps(sdoc["configs"][entry["config"]], sort_keys=True)

    configs = {(e["layer"], config(e)) for e in sdoc["entries"]}
    assert f"{len(sdoc['entries'])} invocations ({len(configs)} distinct configs)" in result.output

    report = workdir / "report.json"
    result = runner.invoke(main, [
        "report", "--design", str(design), "--schedule", str(sched),
        "--out", str(report),
    ])
    assert result.exit_code == 0, result.output
    rdoc = json.loads(report.read_text())
    assert rdoc["gops_per_s"] > 0
    assert 0 < rdoc["utilization_percent"]["dsp"] <= 100
    assert rdoc["per_layer"]
    for row in rdoc["per_layer"]:
        layer = [e for e in sdoc["entries"] if e["layer"] == row["layer"]]
        assert row["invocations"] == len(layer)
        assert row["configs"] == len({config(e) for e in layer})


def test_report_writes_its_keys_in_document_order(runner, workdir):
    out = workdir / "report.json"
    result = runner.invoke(main, ["report", "--schedule", _schedule_file(workdir),
                                  "--design", str(_design(workdir, lambda d: None)),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert list(doc) == [
        "model", "device", "latency_cycles", "latency_ms", "workload_gmacs", "gops_per_s",
        "gops_per_s_per_dsp", "op_per_dsp_per_cycle", "utilization_percent", "per_layer"]
    assert list(doc["utilization_percent"]) == ["dsp", "bram", "lut", "ff"]
    assert result.output == (f"{doc['gops_per_s']:.2f} GOps/s, "
                             f"{doc['gops_per_s_per_dsp']:.3f} GOps/s/DSP, "
                             f"{doc['op_per_dsp_per_cycle']:.3f} Op/DSP/cycle\n")


def test_optimize_accepts_model_file_path(runner, workdir):
    from harflow.generators import bundled_model_text

    model_file = workdir / "m.json"
    model_file.write_text(bundled_model_text("toy"))
    result = runner.invoke(main, [
        "optimize", "--model", str(model_file), "--device", "zcu102",
        "--params", str(workdir / "params.json"),
        "--out", str(workdir / "d.json"),
    ])
    assert result.exit_code == 0, result.output


def test_optimize_padded_mode_flag(runner, workdir):
    design = workdir / "padded.json"
    result = runner.invoke(main, [
        "optimize", "--model", "toy", "--device", "zcu102",
        "--no-runtime-reconfig",
        "--params", str(workdir / "params.json"), "--out", str(design),
    ])
    assert result.exit_code == 0, result.output
    assert json.loads(design.read_text())["mode"] == "padded_baseline"


def test_pareto_writes_monotone_csv(runner, workdir):
    out = workdir / "pareto.csv"
    result = runner.invoke(main, [
        "pareto", "--model", "toy", "--device", "zcu102",
        "--budgets", "64,256,1024",
        "--params", str(workdir / "params.json"), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"dsp", "bram", "latency_ms"}
    dsps = [int(r["dsp"]) for r in rows]
    lats = [float(r["latency_ms"]) for r in rows]
    assert dsps == sorted(dsps)
    assert all(a > b for a, b in zip(lats, lats[1:]))  # strictly falling: each point once


# a non-default value of each operator field, and of each node field that
# bounds one
FOREIGN_VALUES = {"filters": 4, "kernel": [1, 1, 2], "stride": [1, 1, 2],
                  "padding": [0, 0, 0, 0, 0, 1], "groups": 2, "type": "relu",
                  "broadcast": True}
NODE_FIELDS = {"filters_max": ("filters", 4), "kernel_max": ("kernel", [1, 1, 2]),
               "supports_types": ("type", ["relu"])}
FOREIGN_FIELDS = (
    [(doc, kind, field) for doc in ("layer", "config") for kind, takes in KIND_FIELDS.items()
     for field in FOREIGN_VALUES if field not in takes]
    + [("node", kind, field) for kind, takes in KIND_FIELDS.items()
       for field, (bounds, _) in NODE_FIELDS.items() if bounds not in takes])


@pytest.fixture(scope="module")
def multishape_files(tmp_path_factory):
    """(design.json, schedule.json) of the unfused multishape initial mapping:
    a node, and configs, of every layer kind."""
    work = tmp_path_factory.mktemp("multishape")
    text = bundled_model_text("multishape")
    design, schedule = work / "design.json", work / "schedule.json"
    design.write_text(json.dumps({
        "model": json.loads(text),
        "device": load_bundled_profile("zcu102").to_dict(),
        "mode": "runtime_configurable",
        "graph": initial_mapping(parse_model(text)).to_dict(),
    }))
    main.main(["schedule", "--design", str(design), "--out", str(schedule)],
              standalone_mode=False)
    return design, schedule


@pytest.mark.parametrize("document, kind, field", FOREIGN_FIELDS,
                         ids=["-".join(case) for case in FOREIGN_FIELDS])
def test_a_field_its_kind_does_not_take_is_one_error_line(runner, workdir, multishape_files,
                                                          document, kind, field):
    """Each reader enforces the kind table (`model_ir.KIND_FIELDS`): a layer
    document or a design.json node with a field that its kind does not take,
    at a value other than its default, ends in one `Error:` line that names
    the kind and the field. A schedule.json config with such a field is no
    config the design runs: its line names the config's index."""
    design, schedule = multishape_files
    edited = workdir / "edited.json"
    if document == "layer":
        doc = json.loads(bundled_model_text("multishape"))
        layer = next(l for l in doc["layers"] if l["kind"] == kind)
        layer[field] = FOREIGN_VALUES[field]
        argv = ["parse", str(edited)]
        message = f"layer '{layer['id']}': {kind} takes no '{field}'"
    elif document == "config":
        doc = json.loads(schedule.read_text())
        i = next(i for i, c in enumerate(doc["configs"]) if c["kind"] == kind)
        doc["configs"][i][field] = FOREIGN_VALUES[field]
        argv = ["report", "--design", str(design), "--schedule", str(edited),
                "--out", str(workdir / "report.json")]
        message = f"invalid schedule: config {i} is no config the design runs"
    else:
        doc = json.loads(design.read_text())
        node = next(n for n in doc["graph"]["nodes"].values() if n["kind"] == kind)
        node[field] = NODE_FIELDS[field][1]
        argv = ["schedule", "--design", str(edited), "--out", str(workdir / "schedule.json")]
        message = f"node capability: {kind} takes no '{field}'"
    edited.write_text(json.dumps(doc))
    result = runner.invoke(main, argv)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    assert message in lines[0], result.output
