"""Mutation gate: a bundled document with one key dropped, or one value swapped
for a value of another JSON type, either parses or raises the loader's typed
error, and the CLI ends in exit code 0 or in exit code 1 with one `Error:` line
that holds no Python exception repr. The documents are the toy model, the
zcu102 profile, the toy design and the toy design's schedule file.
"""

import copy
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harflow.cli import main
from harflow.device import DeviceError, load_bundled_profile, load_profile
from harflow.generators import bundled_model_text
from harflow.hardware_graph import initial_mapping
from harflow.model_ir import ModelError, parse_model

# bounded and derandomized, so every run draws the same examples; the whole
# single-mutation space of the three documents is about 3,300 examples
GATE = settings(max_examples=300, deadline=None, derandomize=True, database=None)

MODEL = json.loads(bundled_model_text("toy"))
DEVICE = load_bundled_profile("zcu102").to_dict()
DESIGN = {
    "model": MODEL,
    "device": DEVICE,
    "mode": "runtime_configurable",
    "graph": initial_mapping(parse_model(bundled_model_text("toy"))).to_dict(),
}


def _toy_schedule():
    """schedule.json of DESIGN, as `harflow schedule` writes it."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("design.json").write_text(json.dumps(DESIGN))
        result = runner.invoke(main, ["schedule", "--design", "design.json"])
        assert result.exit_code == 0, result.output
        return json.loads(Path("schedule.json").read_text())


SCHEDULE = _toy_schedule()

# one value per JSON type; bool and int, and int and float, are told apart
# because Python's loaders treat them differently
SAMPLES = [None, True, 0, 3, -1, 2.5, "", "x", [], [1], {}, {"x": 1}]
EXCEPTION_REPR = re.compile(r"\b\w+(Error|Exception)\(")


def _kind(value):
    return type(value).__name__


def _paths(doc, prefix=()):
    """Every key path of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def mutations(doc, where=lambda path: True):
    """("drop", path, None) or ("swap", path, value of another JSON type) of `doc`,
    at the key paths that `where` accepts."""
    paths = [p for p in _paths(doc) if where(p)]
    droppable = [p for p in paths if isinstance(_get(doc, p[:-1]), dict)]
    swaps = st.sampled_from(paths).flatmap(lambda p: st.tuples(
        st.just("swap"), st.just(p),
        st.sampled_from([v for v in SAMPLES if _kind(v) != _kind(_get(doc, p))])))
    return st.tuples(st.just("drop"), st.sampled_from(droppable), st.none()) | swaps


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(doc, mutation):
    op, path, value = mutation
    out = copy.deepcopy(doc)
    parent = _get(out, path[:-1])
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def _assert_one_line_outcome(argv):
    result = CliRunner().invoke(main, argv)
    assert "Traceback" not in result.output
    if result.exit_code != 0:
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), (
            repr(result.exception))
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
        # the line says what is wrong in words, not in a Python exception repr
        assert not EXCEPTION_REPR.search(lines[0]), result.output


def _schedule(tmp_path, design):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(design))
    _assert_one_line_outcome(["schedule", "--design", str(path),
                              "--out", str(tmp_path / "schedule.json")])


@GATE
@given(mutation=mutations(MODEL))
@example(mutation=("swap", ("layers", 0, "type"), [1]))
def test_mutated_model_parses_or_fails_in_one_line(tmp_path_factory, mutation):
    doc = _mutated(MODEL, mutation)
    tmp_path = tmp_path_factory.mktemp("model")
    try:
        parse_model(json.dumps(doc))
    except ModelError:
        pass
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    _assert_one_line_outcome(["parse", str(path)])
    _schedule(tmp_path, dict(DESIGN, model=doc))


@GATE
@given(mutation=mutations(DEVICE))
def test_mutated_device_parses_or_fails_in_one_line(tmp_path_factory, mutation):
    doc = _mutated(DEVICE, mutation)
    try:
        load_profile(json.dumps(doc))
    except DeviceError:
        pass
    _schedule(tmp_path_factory.mktemp("device"), dict(DESIGN, device=doc))


@GATE
@given(mutation=mutations(DESIGN))
@example(mutation=("swap", ("graph", "nodes", "pool_0", "kernel_max", 0), ""))
def test_mutated_design_schedules_or_fails_in_one_line(tmp_path_factory, mutation):
    _schedule(tmp_path_factory.mktemp("design"), _mutated(DESIGN, mutation))


_MODEL_ERROR = "Error: document must be an object with a 'layers' array"


# members of the toy design set to a malformed value, with the line the design
# reader ends in: a model error as `parse` prints it, a device error after the
# design file's name
@pytest.mark.parametrize("key, value, line", [
    ("model", [], _MODEL_ERROR),
    ("model", "x", _MODEL_ERROR),
    ("model", {}, _MODEL_ERROR),
    ("model", {k: v for k, v in MODEL.items() if k != "layers"}, _MODEL_ERROR),
    ("device", 3, "Error: design file {}: device document must be a JSON object, got int"),
    ("device", {k: v for k, v in DEVICE.items() if k != "dsp_total"},
     "Error: design file {}: device 'zcu102': missing field 'dsp_total'"),
], ids=["model-array", "model-string", "model-empty", "model-no-layers", "device-int",
        "device-no-dsp_total"])
def test_a_malformed_design_member_ends_in_its_error_line(tmp_path, key, value, line):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(dict(DESIGN, **{key: value})))
    for argv in (["schedule", "--out", str(tmp_path / "schedule.json")],
                 ["report", "--schedule", str(path), "--out", str(tmp_path / "report.json")]):
        result = CliRunner().invoke(main, [*argv, "--design", str(path)])
        assert (result.exit_code, result.output) == (1, line.format(path) + "\n"), argv


@GATE
@given(mutation=mutations(
    SCHEDULE, lambda p: len(p) == 1 or p[:2] in (("configs", 0), ("entries", 0))))
@example(mutation=("swap", ("entries",), ""))
@example(mutation=("swap", ("entries", 0, "tile_shape"), "abc"))
# swaps draw values of another JSON type, so in-type bad indices are pinned here
@example(mutation=("swap", ("entries", 0, "config"), -1))
@example(mutation=("swap", ("entries", 0, "config"), len(SCHEDULE["configs"])))
@example(mutation=("swap", ("entries", 0, "config"), True))
def test_mutated_schedule_reports_or_fails_in_one_line(tmp_path_factory, mutation):
    tmp_path = tmp_path_factory.mktemp("schedule")
    design, schedule = tmp_path / "design.json", tmp_path / "schedule.json"
    design.write_text(json.dumps(DESIGN))
    schedule.write_text(json.dumps(_mutated(SCHEDULE, mutation)))
    _assert_one_line_outcome(["report", "--design", str(design), "--schedule", str(schedule),
                              "--out", str(tmp_path / "report.json")])


def _entry_mutations():
    """Every mutation that `mutations` can draw on the schedule's first entry,
    as the schedule gate above draws them, then in-type values no swap draws:
    values equal to the original's in Python but not in JSON, other config
    indices and ids, fields below 0, and one value equal to the original's."""
    for path in _paths(SCHEDULE):
        if path[:2] != ("entries", 0):
            continue
        if isinstance(_get(SCHEDULE, path[:-1]), dict):
            yield ("drop", path, None)
        for value in SAMPLES:
            if _kind(value) != _kind(_get(SCHEDULE, path)):
                yield ("swap", path, value)
    yield ("swap", ("entries", 0, "tile_index", 1), True)
    yield ("swap", ("entries", 0, "filter_count"), 1.0)
    yield ("swap", ("entries", 0, "config"), len(SCHEDULE["configs"]))
    yield ("swap", ("entries", 0, "config"), -1)
    yield ("swap", ("entries", 0, "config"), 1)
    yield ("swap", ("entries", 3, "config"), 0)
    yield ("swap", ("entries", 0, "node"), "x")
    yield ("swap", ("entries", 0, "tile_index", 0), -1)
    yield ("swap", ("entries", 0, "tile_origin", 0), -1)
    yield ("swap", ("entries", 0, "tile_shape", 3), -1)
    yield ("swap", ("entries", 0, "filter_origin"), -1)
    yield ("swap", ("entries", 0, "filter_count"), -1)
    yield ("swap", ("entries", 0, "filter_origin"), SCHEDULE["entries"][0]["filter_origin"])


def _report(tmp_path, doc, name):
    """(exit code, output, report.json bytes or None) of the toy design's report
    on schedule document `doc`, written to `name`."""
    design, schedule, out = (tmp_path / f for f in ("design.json", name, f"{name}.report"))
    design.write_text(json.dumps(DESIGN))
    schedule.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["report", "--design", str(design),
                                       "--schedule", str(schedule), "--out", str(out)])
    return result.exit_code, result.output, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("mutation", list(_entry_mutations()), ids=repr)
def test_an_entry_mutation_reports_as_the_original_or_names_its_entry(tmp_path, mutation):
    """A mutated schedule document that has the original's JSON value,
    types included, reports as the original does; any other fails in one
    line that names the mutated entry."""
    doc = _mutated(SCHEDULE, mutation)
    code, output, report = _report(tmp_path, doc, "mutated.json")
    if json.dumps(doc, sort_keys=True) == json.dumps(SCHEDULE, sort_keys=True):
        assert (code, report) == _report(tmp_path, SCHEDULE, "original.json")[::2], output
    else:
        assert code == 1 and output.count("\n") == 1, output
        assert f": invalid schedule: entry {mutation[1][1]} " in output, output
