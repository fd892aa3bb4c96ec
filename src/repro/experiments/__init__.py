"""Experiment drivers reproducing every figure and table in the paper's
evaluation (§7) plus the §4 application statistics.

Each module exposes a config dataclass (with a scaled-down default that
runs in seconds and a ``paper_scale()`` preset matching the paper's
parameters), a module-level trial function plus ``sweep()`` declaration
for the shared trial engine (:mod:`repro.engine`), and a
``run(config, *, jobs=1, seeds=None)`` function returning a result
object with ``rows()``, ``format_table()``, and a ``result_set``
(:class:`repro.engine.ResultSet`) for JSON archiving.  ``jobs`` fans the
sweep's independent trials across worker processes with aggregate
results identical to a serial run.  The benchmarks/ directory wraps each
driver in a pytest-benchmark target that asserts the paper's qualitative
shape and writes the generated table to benchmarks/results/.

| Paper result | Module |
|---|---|
| Fig 6  RPC latency CDFs           | :mod:`repro.experiments.calibration` |
| Fig 7  group creation latency     | :mod:`repro.experiments.creation_latency` |
| Fig 8  signalled notification     | :mod:`repro.experiments.notification_latency` |
| Fig 9  crash notification CDF     | :mod:`repro.experiments.crash_notification` |
| Fig 10 churn message load         | :mod:`repro.experiments.churn` |
| Fig 11 route loss CDFs            | :mod:`repro.experiments.loss_rates` |
| Fig 12 false positives vs loss    | :mod:`repro.experiments.false_positives` |
| §7.5  steady-state load           | :mod:`repro.experiments.steady_state` |
| §4    SV-tree group sizes         | :mod:`repro.experiments.svtree_stats` |
| §3    agreement latency bound     | :mod:`repro.experiments.agreement` |
| §5.1  topology ablation           | :mod:`repro.experiments.ablation` |
"""

from repro.experiments.report import format_cdf, format_table

__all__ = ["format_cdf", "format_table"]
