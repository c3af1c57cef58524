"""Design-equivalence probe: fixed-seed searches whose outputs two trees must share.

Runs `harflow optimize`, `harflow schedule` and then `harflow report` on
zcu102 at a short annealing parameter set, for a fixed list of (model, mode,
seed) runs, and writes one digest file per run into OUT_DIR:

- the best design's `graph`, `latency_cycles` and `resources`;
- every trace row;
- the sha256 and size of the `harflow schedule` file, and its stdout;
- the exit code and stdout of `harflow report` on that file, and the
  sha256 of its report.json;
- the same of `harflow report --device` at a copy of zcu102 whose DMA
  bandwidths are 1/2 and 1/3 words per cycle (`SLOW_DMA`), so memory-bound
  rows and rational bandwidths are compared too;
- or, for a run that cannot start, the exit code and the error line.

A change that must not alter designs is checked by running the probe on both
trees and comparing the directories:

    python3 tools/design_probe.py /tmp/probe-new
    python3 tools/design_probe.py /tmp/probe-old --src OTHER_CHECKOUT/src
    diff -r /tmp/probe-old /tmp/probe-new

`--run NAME` (repeatable) limits the probe to the named runs, for example
`--run toy-runtime-0`; `--list` prints every run name.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

PARAMS = dict(tau_start=1.0, tau_min=0.01, cooling=0.93, warm_start_samples=16)
DEVICE = "zcu102"
SLOW_DMA = {"name": f"{DEVICE}-slow-dma", "bw_in_words_per_cycle": "1/2",
            "bw_out_words_per_cycle": "1/3"}
QUIET = {"HARFLOW_LOG": "error"}  # digests compare designs, not log lines
RUNS = (
    [("c3d", "runtime", seed) for seed in (0, 1, 2, 18)]
    + [("multishape", mode, seed) for mode in ("runtime", "padded") for seed in range(8)]
    + [("r2plus1d", "runtime", seed) for seed in (0, 1)]
    + [("toy", mode, seed) for mode in ("runtime", "padded") for seed in range(4)]
)


def run_name(model, mode, seed):
    return f"{model}-{mode}-{seed}"


def probe(main, runner, model, mode, seed, work: Path) -> dict:
    """Digest of one optimize + schedule + report run through the CLI."""
    params, design = work / "params.json", work / "design.json"
    trace, schedule, report = work / "trace.csv", work / "schedule.json", work / "report.json"
    slow_device, slow_report = work / "slow_device.json", work / "slow_report.json"
    params.write_text(json.dumps(PARAMS))
    argv = ["optimize", "--model", model, "--device", DEVICE, "--seed", str(seed),
            "--params", str(params), "--out", str(design), "--trace", str(trace)]
    if mode == "padded":
        argv.append("--no-runtime-reconfig")
    result = runner.invoke(main, argv, env=QUIET)
    digest = {"run": run_name(model, mode, seed), "params": PARAMS,
              "optimize_exit": result.exit_code, "optimize_stdout": result.output}
    if result.exit_code != 0:
        return digest
    doc = json.loads(design.read_text())
    digest.update(
        graph=doc["graph"],
        latency_cycles=doc["latency_cycles"],
        resources=doc["resources"],
        trace=trace.read_text().splitlines(),
    )
    result = runner.invoke(main, ["schedule", "--design", str(design), "--out", str(schedule)],
                           env=QUIET)
    data = schedule.read_bytes() if result.exit_code == 0 else b""
    digest.update(
        schedule_exit=result.exit_code,
        schedule_stdout=result.output,
        schedule_sha256=hashlib.sha256(data).hexdigest(),
        schedule_bytes=len(data),
    )
    if result.exit_code != 0:
        return digest
    from harflow.device import load_bundled_profile

    slow_device.write_text(json.dumps(dict(load_bundled_profile(DEVICE).to_dict(), **SLOW_DMA)))
    for prefix, out, device in (("report", report, []),
                                ("slow_dma_report", slow_report, ["--device", str(slow_device)])):
        result = runner.invoke(main, ["report", "--design", str(design), "--schedule",
                                      str(schedule), "--out", str(out), *device], env=QUIET)
        data = out.read_bytes() if result.exit_code == 0 else b""
        digest[f"{prefix}_exit"] = result.exit_code
        digest[f"{prefix}_stdout"] = result.output
        digest[f"{prefix}_sha256"] = hashlib.sha256(data).hexdigest()
    return digest


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("out_dir", nargs="?", type=Path)
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="source directory harflow is imported from")
    ap.add_argument("--run", action="append", default=[], metavar="NAME",
                    help="probe only this run (repeatable)")
    ap.add_argument("--list", action="store_true", help="print the run names and exit")
    args = ap.parse_args(argv)
    names = {run_name(*r): r for r in RUNS}
    if args.list:
        print("\n".join(names))
        return 0
    if args.out_dir is None:
        ap.error("OUT_DIR is required")
    unknown = sorted(set(args.run) - set(names))
    if unknown:
        ap.error(f"unknown runs {unknown}; see --list")
    sys.path.insert(0, str(args.src))
    from click.testing import CliRunner

    from harflow.cli import main as harflow_main

    args.out_dir.mkdir(parents=True, exist_ok=True)
    runner = CliRunner()
    for name, run in names.items():
        if args.run and name not in args.run:
            continue
        with tempfile.TemporaryDirectory() as work:
            digest = probe(harflow_main, runner, *run, Path(work))
        (args.out_dir / f"{name}.json").write_text(json.dumps(digest, indent=1) + "\n")
        print(f"{name}: {digest.get('latency_cycles', 'no design')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
