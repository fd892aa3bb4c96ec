"""Self-test of the FUSE benchmark.

A tiny shape of every workload must emit every metric ``BENCHMARK.json``
names, with its unit, and pass the correctness gate; the audit must catch
a lost notification and a spurious group on hand-built ledgers.

    PYTHONPATH=src python -m pytest -q perfbench/test_fusebench.py
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.fuse.api import GroupLedger  # noqa: E402

from fusebench.audit import Audit, audit  # noqa: E402
from fusebench.layers import layer_of, layer_self_times  # noqa: E402
from fusebench.report import gate  # noqa: E402
from fusebench.workloads import WORKLOADS, PassResult, SetUp, Shape  # noqa: E402

_spec = importlib.util.spec_from_file_location("fusebench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

TINY = Shape(n_nodes=24, groups=24, group_size=4)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True], ids=["timed", "traced"])
def test_tiny_workload_emits_every_metric(name, traced):
    result = bench.run_workload(name, seed=3, seconds=SPEC["run_seconds"],
                                traced=traced, shape=TINY)
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert metric["value"] == metric["value"], "NaN metric"


class _Clock:
    now = 0.0


def _ledger(groups):
    """A ledger with each ``(gid, members)`` created and live at t=0."""
    ledger = GroupLedger(_Clock())
    for gid, members in groups:
        ledger.record_create(gid, members[0], members)
        ledger.group_live(gid)
    return ledger


def _notify(ledger, gid, node, when):
    ledger.sim.now = when
    ledger.notified(gid, node, "member", "link-timeout")


def test_audit_clean_group():
    ledger = _ledger([("g", (1, 2, 3))])
    for node, when in ((2, 40.0), (3, 70.0)):
        _notify(ledger, "g", node, when)
    found = audit(ledger, {"g": (10.0, {1})})
    assert (found.owed, found.lost, found.spurious_groups) == (2, 0, 0)
    assert sorted(found.latencies_ms) == [30.0, 60.0]


def test_audit_catches_missing_notification():
    ledger = _ledger([("g", (1, 2, 3))])
    _notify(ledger, "g", 2, 40.0)
    found = audit(ledger, {"g": (10.0, {1})})
    assert (found.owed, found.lost, found.failed) == (2, 1, 1)


def test_audit_catches_spurious_group():
    ledger = _ledger([("ok", (1, 2)), ("early", (3, 4)), ("never", (5, 6))])
    _notify(ledger, "early", 4, 5.0)  # before its failure at 10
    _notify(ledger, "never", 6, 5.0)  # no failure at all
    found = audit(ledger, {"early": (10.0, {3})})
    assert found.spurious_groups == 2
    assert found.lost == 0


def test_audit_does_not_time_notifications_before_the_failure():
    ledger = _ledger([("g", (1, 2, 3))])
    _notify(ledger, "g", 2, 5.0)  # spurious: before member 1 fails at 10
    _notify(ledger, "g", 3, 25.0)
    found = audit(ledger, {"g": (10.0, {1})})
    assert (found.owed, found.lost, found.spurious_groups) == (2, 0, 1)
    assert found.latencies_ms == [15.0]


def test_gate_fails_spurious_groups_except_under_loss():
    setup = SetUp(None, 1.0, [1.0], "f", (0, 0), [])
    found = Audit(creates=1, spurious_groups=1, latencies_ms=[1.0])
    result = PassResult(setup, 60_000.0, 1.0, found, {}, "f")
    for name, fails in (("steady", True), ("crash-storm", True), ("lossy", False)):
        assert bool(gate(WORKLOADS[name], result, [setup])) is fails, name


def test_audit_counts_unfinished_create_as_failure():
    ledger = GroupLedger(_Clock())
    ledger.record_create("g", 1, (1, 2))
    found = audit(ledger, {})
    assert (found.creates, found.create_failures, found.owed) == (1, 1, 0)


def test_builtins_are_charged_to_their_callers():
    lanes = ("/x/src/repro/sim/lanes.py", 1, "advance")
    net = ("/x/src/repro/net/network.py", 1, "send")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        lanes: (1, 1, 2.0, 5.0, {}),
        net: (1, 1, 1.0, 2.0, {}),
        push: (4, 4, 2.0, 2.0, {lanes: (3, 3, 1.5, 1.5), net: (1, 1, 0.5, 0.5)}),
    }
    times = layer_self_times(stats)
    assert times["sim.lanes"] == pytest.approx(3.5)
    assert times["net"] == pytest.approx(1.5)
    assert layer_of(("/x/src/repro/fuse/service.py", 9, "_payload_for")) == "fuse.piggyback"
    assert layer_of(("/x/src/repro/net/routing.py", 9, "route")) == "net.routing"
