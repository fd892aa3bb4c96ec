"""End-to-end and per-layer metrics, and the correctness gate."""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Sequence, Tuple

from repro.sim.metrics import percentile

from fusebench.layers import Spans, call_count, layer_self_times
from fusebench.workloads import PassResult, SetUp, Workload

Metrics = Dict[str, Tuple[float, str]]

#: name -> unit of every end-to-end metric, reported with tracing off
END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_rate": "s/s",
    "peak_rss_mb": "MB",
    "create_p50_ms": "ms",
    "create_p98_ms": "ms",
    "notify_p50_ms": "ms",
    "notify_p99_ms": "ms",
    "msgs_per_node_s": "1/s",
    "ok_ops_frac": "ratio",
    "clean_groups_frac": "ratio",
}

#: layers reported with ``self_s`` and ``setup_self_s``; ``fuse``
#: includes its piggyback, which is also reported on its own
_SELF_TIMED = ("sim.kernel", "sim.lanes", "net", "net.routing",
               "overlay.skipnet", "fuse", "other")

_FUSE_COUNTERS = (
    "create_attempts", "groups_created", "create_failures",
    "hard_notifications", "soft_notifications", "repairs_started",
    "repairs_succeeded", "link_timeouts", "explicit_signals",
)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gate(workload: Workload, result: PassResult, setups: Sequence[SetUp]) -> List[str]:
    """Every correctness problem of a pass; empty means it passed.

    Spurious groups fail every workload but ``lossy``: under loss a
    liveness link may time out with every member alive (Fig 12 counts
    such false positives), so there ``clean_groups_frac`` reports them."""
    problems: List[str] = []
    for setup in setups:
        problems.extend(setup.problems)
    if len({s.fingerprint for s in setups}) > 1:
        problems.append(
            "set-up repeats disagree: " + ", ".join(s.fingerprint for s in setups)
        )
    found = result.audit
    if found.create_failures:
        problems.append(f"{found.create_failures} creates failed")
    if found.lost:
        problems.append(f"{found.lost} of {found.owed} owed notifications lost")
    if not workload.loss and found.spurious_groups:
        problems.append(f"{found.spurious_groups} groups notified with no failed member")
    if not found.latencies_ms:
        problems.append("no notification to time")
    return problems


def end_to_end(result: PassResult, setup_walls: Sequence[float]) -> Metrics:
    found = result.audit
    creates = sorted(result.setup.create_latencies_ms) or [float("nan")]
    notes = sorted(found.latencies_ms) or [float("nan")]
    n_nodes = len(result.setup.world.node_ids)
    window_s = result.window_ms / 1000.0
    values = {
        "setup_s": statistics.median(setup_walls),
        "sim_rate": window_s / result.window_wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "create_p50_ms": percentile(creates, 50),
        "create_p98_ms": percentile(creates, 98),
        "notify_p50_ms": percentile(notes, 50),
        "notify_p99_ms": percentile(notes, 99),
        "msgs_per_node_s": result.window_counters["net.messages"] / n_nodes / window_s,
        "ok_ops_frac": 1.0 - found.failed / max(1, found.attempted),
        "clean_groups_frac": 1.0 - found.spurious_groups / max(1, found.creates),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(untraced: PassResult, untraced_spans: Spans,
              traced: PassResult, traced_spans: Spans) -> Metrics:
    """Per-layer metrics of one workload.

    Wall times of the set-up phases come from the untraced pass; self
    times from the traced pass's profiles (``self_s`` over the timed
    window, ``setup_self_s`` over set-up).  Counters are deltas over the
    timed window, except routing (set-up) and ``fuse.*`` (whole pass).
    """
    out: Metrics = {}
    for phase in ("construct", "bootstrap", "groups"):
        out[f"setup.{phase}_s"] = (untraced_spans.seconds(f"setup.{phase}"), "s")

    window_stats = traced_spans.stats("window")
    setup_stats = traced_spans.stats("setup")
    window_self = layer_self_times(window_stats)
    setup_self = layer_self_times(setup_stats)
    window_self["fuse"] += window_self["fuse.piggyback"]
    setup_self["fuse"] += setup_self["fuse.piggyback"]
    for layer in _SELF_TIMED:
        out[f"{layer}.self_s"] = (window_self[layer], "s")
        out[f"{layer}.setup_self_s"] = (setup_self[layer], "s")
    out["fuse.piggyback_self_s"] = (window_self["fuse.piggyback"], "s")

    c = traced.window_counters
    events = c["events"]
    micro = c.get("lanes.micro_events_dispatched", 0)
    heap_events = events - micro
    # Main-heap pushes: the kernel's public push, plus the lane plane's
    # direct pushes when it hands flights back to the heap.
    lane_pushes = sum(
        entry[0]
        for func, entry in _callers_of(window_stats, "<built-in method _heapq.heappush>").items()
        if func[0].replace("\\", "/").endswith("/repro/sim/lanes.py")
        and func[2] in ("_materialize", "_push_retry")
    )
    pushes = call_count(window_stats, "/repro/sim/events.py", "push")
    out["sim.kernel.heap_events"] = (heap_events, "count")
    out["sim.kernel.heap_pushes"] = (pushes, "count")
    out["sim.kernel.timer_reschedules"] = (
        call_count(window_stats, "/repro/sim/events.py", "reschedule_at"), "count")
    # Entries cancelled in the window: pushed, never dispatched, and
    # left for a later pop to shed.
    out["sim.kernel.stale_pops"] = (
        pushes + lane_pushes - heap_events - c["queue.pending"], "count")

    absorbs = c.get("lanes.absorbs", 0)
    ejects = c.get("lanes.ejects", 0)
    out["sim.lanes.micro_events"] = (micro, "count")
    out["sim.lanes.micro_frac"] = (micro / events if events else 0.0, "ratio")
    out["sim.lanes.absorbs"] = (absorbs, "count")
    out["sim.lanes.ejects"] = (ejects, "count")
    out["sim.lanes.flushes"] = (c.get("lanes.flushes", 0), "count")
    out["sim.lanes.keep_frac"] = (1.0 - ejects / absorbs if absorbs else 0.0, "ratio")

    transmissions = c.get("net.transmissions", 0)
    messages = c.get("net.messages", 0)
    out["net.messages"] = (messages, "count")
    out["net.transmissions"] = (transmissions, "count")
    out["net.retransmit_frac"] = (
        1.0 - messages / transmissions if transmissions else 0.0, "ratio")
    out["net.deliveries"] = (c.get("net.deliveries", 0), "count")
    out["net.bytes"] = (c.get("net.bytes", 0), "bytes")
    out["net.connection_breaks"] = (c.get("net.connection_breaks", 0), "count")

    routes, trees = traced.setup.route_cache
    out["net.routing.route_calls"] = (
        call_count(setup_stats, "/repro/net/routing.py", "route"), "count")
    out["net.routing.trees"] = (trees, "count")
    out["net.routing.routes_cached"] = (routes, "count")

    world = traced.setup.world
    out["overlay.skipnet.members"] = (world.overlay.member_count, "count")
    out["overlay.skipnet.route_drops"] = (c.get("overlay.route_drops", 0), "count")
    out["overlay.skipnet.pings"] = (c.get("net.msg.OverlayPing", 0), "count")

    counters = world.sim.metrics.counters()
    for name in _FUSE_COUNTERS:
        counter = counters.get(f"fuse.{name}")
        out[f"fuse.{name}"] = (counter.value if counter is not None else 0, "count")
    out["fuse.spurious_groups"] = (traced.audit.spurious_groups, "count")
    out["fuse.lost_notifications"] = (traced.audit.lost, "count")

    traced_s = traced.window_wall_s
    untraced_s = untraced.window_wall_s
    out["trace.window_traced_s"] = (traced_s, "s")
    out["trace.window_untraced_s"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.unattributed_s"] = (traced_s - sum(
        v for k, v in window_self.items() if k != "fuse.piggyback"), "s")
    return out


def _callers_of(stats, name: str) -> dict:
    for func, entry in stats.items():
        if func[0] == "~" and func[2] == name:
            return entry[4]
    return {}
