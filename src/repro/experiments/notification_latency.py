"""Fig 8 — latency of explicitly signalled failure notification vs size.

Paper setup: for the same group sizes as Fig 7, a random member calls
SignalFailure; the time until members hear the notification is reported
(25th/50th/75th percentiles over 20 create/notify cycles per size).

Expected shape (§7.4): notification is much faster than creation —
one-way messages over cached TCP connections, taking effect per-member on
arrival; the median rises from size 2 to 8 (the extra member->root->member
forwarding hop), then creeps up at 16/32 from per-message serialization
at the root (the paper measured 2.8 ms per send).  Paper max: 1165 ms.

Engine decomposition: one trial per group size (× seed), each in its own
bootstrapped world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import Measurements, ResultSet, Sweep, TrialSpec, run_trials
from repro.experiments.report import format_table
from repro.sim.metrics import Histogram
from repro.world import FuseWorld

EXPERIMENT = "fig8"


@dataclass
class NotificationConfig:
    n_nodes: int = 100
    group_sizes: Sequence[int] = (2, 4, 8, 16, 32)
    groups_per_size: int = 10
    seed: int = 3

    @classmethod
    def paper_scale(cls) -> "NotificationConfig":
        return cls(n_nodes=400, groups_per_size=20)


class NotificationResult:
    def __init__(self) -> None:
        # Latency until the LAST member hears (per group).
        self.group_latency: Dict[int, Histogram] = {}
        # Latency of each individual member notification.
        self.member_latency: Dict[int, Histogram] = {}
        self.max_observed_ms: float = 0.0
        self.result_set: Optional[ResultSet] = None

    def rows(self) -> List[Tuple]:
        out = []
        for size in sorted(self.group_latency):
            g = self.group_latency[size].summary()
            m = self.member_latency[size].summary()
            out.append((size, m["p25"], m["p50"], m["p75"], g["p50"], g["max"]))
        return out

    def format_table(self) -> str:
        return format_table(
            [
                "group size",
                "member p25 ms",
                "member p50 ms",
                "member p75 ms",
                "group p50 ms",
                "group max ms",
            ],
            self.rows(),
            title="Fig 8 — explicitly signalled notification latency "
            "(paper: well under creation latency; max 1165 ms)",
        )


def _trial(spec: TrialSpec) -> Measurements:
    config: NotificationConfig = spec.context
    size = spec["group_size"]
    world = FuseWorld(n_nodes=config.n_nodes, seed=spec.seed)
    world.bootstrap()
    rng = world.sim.rng.stream("notify-workload")
    member_ms: List[float] = []
    group_ms: List[float] = []
    for _ in range(config.groups_per_size):
        root, *members = rng.sample(world.node_ids, size)
        fid, status, _ = world.create_group_sync(root, members)
        if status != "ok":
            continue
        everyone = [root] + members
        # The world ledger records every member's first notification; the
        # live view replaces the per-node observer bookkeeping.
        times: Dict[int, float] = world.ledger.notification_times(fid)
        signaller = rng.choice(everyone)
        t0 = world.now
        world.fuse(signaller).signal_failure(fid)
        # Run until every member heard (bounded patience).
        world.sim.run_until(lambda: len(times) >= len(everyone), timeout_ms=120_000.0)
        for node, when in times.items():
            if node != signaller:
                member_ms.append(when - t0)
        if times:
            group_ms.append(max(times.values()) - t0)
    return {"member_ms": member_ms, "group_ms": group_ms}


def sweep(config: NotificationConfig, seeds: Optional[Sequence[int]] = None) -> Sweep:
    return Sweep(
        grid={"group_size": tuple(config.group_sizes)},
        seeds=tuple(seeds) if seeds else (config.seed,),
    )


def run(
    config: Optional[NotificationConfig] = None,
    *,
    jobs: int = 1,
    seeds: Optional[Sequence[int]] = None,
) -> NotificationResult:
    config = config or NotificationConfig()
    specs = sweep(config, seeds).expand(EXPERIMENT, context=config)
    rs = ResultSet(run_trials(_trial, specs, jobs=jobs), experiment=EXPERIMENT)
    result = NotificationResult()
    for size, subset in rs.group_by("group_size").items():
        result.group_latency[size] = subset.histogram("group_ms", f"group-{size}")
        result.member_latency[size] = subset.histogram("member_ms", f"member-{size}")
    group_samples = rs.samples("group_ms")
    result.max_observed_ms = max(group_samples) if group_samples else 0.0
    result.result_set = rs
    return result
