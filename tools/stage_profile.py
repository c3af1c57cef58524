"""Stage profile of fixed-seed annealing chains: where `evaluate` spends its time.

Runs one `optimizer.anneal` chain per seed on zcu102 at the design-probe
annealing parameters (C3D seeds 0-2 by default) and prints:

- per chain: its wall time, best latency, the `scheduler._plan_layer` calls,
  the runtime configs the scheduler built, and the `invocation_latency`
  cache hits and misses (the cache is cleared before each chain);
- per `evaluate` stage, summed over the chains: the calls and seconds spent in
  `build_schedule`, `schedule_latency`, `graph_resources` and
  `check_constraints`, timed by wrapping their module-level `optimizer` names.

The counts are deterministic per seed; the seconds are wall time of this
process. Two trees are compared by running the profile on each:

    python3 tools/stage_profile.py
    python3 tools/stage_profile.py --src OTHER_CHECKOUT/src
"""

import argparse
import sys
import time
from pathlib import Path

from design_probe import DEVICE, PARAMS

STAGES = ("build_schedule", "schedule_latency", "graph_resources", "check_constraints")


def _timed(fn, totals):
    """`fn`, adding its calls and seconds to `totals` = [calls, seconds]."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[0] += 1
            totals[1] += time.perf_counter() - start
    return wrapper


def _counted(fn, totals):
    """`fn`, adding its calls to `totals` = [calls]."""
    def wrapper(*args, **kwargs):
        totals[0] += 1
        return fn(*args, **kwargs)
    return wrapper


def profile(model_name, seeds, padded=False):
    """(per-chain rows, {stage: [calls, seconds]}) of one chain per seed."""
    from harflow import optimizer, perf_model, scheduler
    from harflow.device import load_bundled_profile
    from harflow.generators import bundled_model_text
    from harflow.model_ir import parse_model

    model = parse_model(bundled_model_text(model_name))
    dev = load_bundled_profile(DEVICE)
    stages = {name: [0, 0.0] for name in STAGES}
    plans, configs = [0], [0]
    patched = {(optimizer, name): _timed(getattr(optimizer, name), stages[name])
               for name in STAGES}
    patched[scheduler, "_plan_layer"] = _counted(scheduler._plan_layer, plans)
    patched[scheduler, "RuntimeConfig"] = _counted(scheduler.RuntimeConfig, configs)
    saved = {key: getattr(*key) for key in patched}
    rows = []
    try:
        for (module, name), fn in patched.items():
            setattr(module, name, fn)
        for seed in seeds:
            params = optimizer.AnnealingParams(
                seed=seed, enable_runtime_reconfig=not padded, **PARAMS)
            perf_model.invocation_latency.cache_clear()
            before = plans[0], configs[0]
            start = time.perf_counter()
            best, _ = optimizer.anneal(model, dev, params)
            wall = time.perf_counter() - start
            cache = perf_model.invocation_latency.cache_info()
            rows.append(dict(seed=seed, wall_s=wall, best_cycles=best.latency_cycles,
                             plan_layer=plans[0] - before[0], configs=configs[0] - before[1],
                             hits=cache.hits, misses=cache.misses))
    finally:
        for (module, name), fn in saved.items():
            setattr(module, name, fn)
    return rows, stages


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--model", default="c3d", help="bundled model name")
    ap.add_argument("--seed", type=int, action="append", default=[],
                    help="chain seed (repeatable; default 0, 1 and 2)")
    ap.add_argument("--padded", action="store_true",
                    help="schedule in padded mode (no runtime reconfiguration)")
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="source directory harflow is imported from")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src))
    rows, stages = profile(args.model, args.seed or [0, 1, 2], args.padded)
    mode = "padded" if args.padded else "runtime"
    print(f"{args.model}/{DEVICE} {mode}, params {PARAMS}")
    for row in rows:
        print("seed {seed}: {wall_s:.3f} s, best {best_cycles} cycles, _plan_layer {plan_layer}, "
              "configs built {configs}, invocation_latency hits {hits} misses {misses}"
              .format(**row))
    for name, (calls, seconds) in stages.items():
        print(f"{name}: {calls} calls, {seconds:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
