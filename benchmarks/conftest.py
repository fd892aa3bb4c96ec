"""Shared benchmark plumbing.

Each benchmark runs one experiment driver (scaled to finish in seconds),
asserts the paper's qualitative shape, and records the generated table
under benchmarks/results/, so a run's paper-vs-measured tables can be
read back from its artifacts.

Drivers now run through the shared trial engine (:mod:`repro.engine`),
which times every trial; passing the driver's ``result_set`` to
:func:`record_result` archives the per-figure wall clock (and per-trial
breakdown) in ``benchmarks/results/wall_clock.json``.
"""

from __future__ import annotations

import json
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
WALL_CLOCK_FILE = RESULTS_DIR / "wall_clock.json"


def record_result(name: str, text: str, result_set=None) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if result_set is not None:
        record_wall_clock(name, result_set)
    print()
    print(text)


def record_wall_clock(name: str, result_set) -> None:
    """Merge one figure's engine timing into the shared wall-clock ledger."""
    RESULTS_DIR.mkdir(exist_ok=True)
    data = {}
    if WALL_CLOCK_FILE.exists():
        try:
            data = json.loads(WALL_CLOCK_FILE.read_text())
        except ValueError:
            data = {}
    data[name] = {
        "experiment": result_set.experiment,
        "trials": len(result_set),
        "total_trial_seconds": round(result_set.total_wall_seconds, 3),
        "per_trial_seconds": [round(t.wall_seconds, 3) for t in result_set],
    }
    WALL_CLOCK_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
