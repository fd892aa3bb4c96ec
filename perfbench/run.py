"""Run the FUSE benchmark: one workload (or all), timed or traced.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the set-up (reporting its median) and times one
window; it prints the end-to-end metrics.  ``--trace 1`` runs an
untraced pass and then a profiled pass of the same inputs, and prints
the per-layer metrics; its spans go to ``perfbench/out/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed correctness check prints the
problems, reports ``correct: false`` with no metrics, and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import pathlib
import platform
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per timed run; ``setup_s`` is their median
SETUP_REPEATS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("steady", "lossy", "crash-storm", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "world.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from fusebench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            WORKLOADS[name].window_ms(args.seconds)
        except ValueError as exc:
            parser.error(str(exc))

    outcomes = []
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        outcomes.append((name, outcome))
    if len(outcomes) == 1:
        final = outcomes[0][1]
    else:
        final = {
            "correct": all(o["correct"] for _, o in outcomes),
            "attempted": sum(o["attempted"] for _, o in outcomes),
            "failed": sum(o["failed"] for _, o in outcomes),
            "metrics": {
                f"{name}.{metric}": value
                for name, o in outcomes
                for metric, value in o["metrics"].items()
            },
        }
    if not final["correct"]:
        final["metrics"] = {}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def environment(seed: int, lane_backend: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "scipy": importlib.util.find_spec("scipy") is not None,
        "lane_backend": lane_backend,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: int, traced: bool,
                 shape=None) -> dict:
    """Run one workload; print its report and return the result object."""
    from fusebench.layers import Spans
    from fusebench.report import end_to_end, gate, per_layer
    from fusebench.workloads import SHAPE, WORKLOADS, run_pass, set_up

    shape = shape or SHAPE
    workload = WORKLOADS[name]
    if not traced:
        spans = Spans()
        setups = []
        for _ in range(SETUP_REPEATS):
            if setups:
                setups[-1].world = None  # free it before building the next
                gc.collect()
            setups.append(set_up(shape, seed, spans))
        result = run_pass(workload, seed, seconds, spans, setups[-1])
        problems = gate(workload, result, setups)
        metrics = end_to_end(result, [s.wall_s for s in setups])
        passes = {"timed": result}
    else:
        untraced_spans = Spans()
        untraced = run_pass(workload, seed, seconds, untraced_spans,
                            set_up(shape, seed, untraced_spans))
        untraced.setup.world = None
        gc.collect()
        traced_spans = Spans(profiled=True)
        result = run_pass(workload, seed, seconds, traced_spans,
                          set_up(shape, seed, traced_spans))
        problems = gate(workload, untraced, [untraced.setup])
        problems += gate(workload, result, [result.setup])
        if untraced.fingerprint != result.fingerprint:
            problems.append(
                f"traced pass diverged: {result.fingerprint} != {untraced.fingerprint}"
            )
        metrics = per_layer(untraced, untraced_spans, result, traced_spans)
        passes = {"untraced": untraced, "traced": result}

    plane = result.setup.world.sim.lane_plane
    env = environment(seed, plane.backend if plane is not None else "off")
    print(f"[{name}] env {json.dumps(env, sort_keys=True)}")
    if not traced:
        print(f"[{name}] set-up wall s: {' '.join(f'{s.wall_s:.3f}' for s in setups)}")
    for label, p in passes.items():
        print(f"[{name}] {label} pass: fingerprint setup={p.setup.fingerprint} "
              f"run={p.fingerprint}; window {p.window_ms / 1000:.0f} virtual s "
              f"in {p.window_wall_s:.3f} wall s")
    found = result.audit
    print(f"[{name}] audit creates={found.creates} create_failures={found.create_failures} "
          f"owed={found.owed} lost={found.lost} spurious_groups={found.spurious_groups}")
    for problem in problems:
        print(f"[{name}] FAIL {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"[{name}] {metric:32s} {value:>16.6g} {unit}")
    if traced:
        _write_trace(name, seed, env, passes, {"untraced": untraced_spans,
                                               "traced": traced_spans}, metrics)
    return {
        "correct": not problems,
        "attempted": found.attempted,
        "failed": found.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def _write_trace(name, seed, env, passes, spans, metrics) -> None:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{name}-seed{seed}.json"
    doc = {
        "workload": name,
        "env": env,
        "fingerprints": {label: p.fingerprint for label, p in passes.items()},
        "spans": {label: s.rows for label, s in spans.items()},
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"[{name}] spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
