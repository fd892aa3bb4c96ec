"""Set-up and the three workloads, driven through the sim backend's public API.

Every workload starts from the same set-up: a bootstrapped
:class:`~repro.world.FuseWorld` with one FUSE group per node, laid
open-loop at a fixed virtual spacing.  Then a timed window runs under the
workload's fault, followed by an untimed check of what FUSE owed:

* ``steady`` — no faults.  The read path: ping piggyback, evidence
  checks, link-timer resets; the lane plane carries almost every event.
* ``lossy`` — uniform per-link loss of 0.4%, Fig 12's lowest nonzero
  rate, where the paper predicts no false positives.  Transport
  retransmission runs, and lanes absorb and eject nodes on dropped pings.
* ``crash-storm`` — 6% of the nodes crash, evenly spread over the
  window up to its last five virtual minutes, the detection budget.  The
  failure path: suspicion, repair and hard notification.

After ``steady`` and ``lossy`` one member of every still-live group calls
SignalFailure (the Fig 8 probe), so each workload times notifications:
signalled ones there, crash-driven ones in ``crash-storm``.

The deployment — topology, overlay ids, transport randomness — comes
from a fixed world seed, so every run measures one system.  The
workload seed draws the inputs: group membership, signallers, crash
victims.  A pass's virtual-time results are a pure function of
(workload, seed, seconds, shape).
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Set, Tuple

from repro.fuse.api import GroupStatus
from repro.world import FuseWorld

from fusebench.audit import Audit, audit
from fusebench.layers import Spans

MINUTE_MS = 60_000.0


#: seeds the deployment; the workload seed only draws the inputs
WORLD_SEED = 1
#: virtual ms between consecutive group creates (open loop)
SPACING_MS = 10.0
#: virtual ms a create may take before set-up gives up on it
CREATE_DEADLINE_MS = 120_000.0


@dataclass(frozen=True)
class Shape:
    """World size and groups laid."""

    n_nodes: int = 500
    groups: int = 500  # one group per node, as in Fig 9
    group_size: int = 5


#: The benchmark's shape: sized so that a timed run, five set-ups and a
#: 15-second window, takes well under a minute on a 2-core x86 host.
SHAPE = Shape()


@dataclass(frozen=True)
class Workload:
    name: str
    #: virtual ms of timed window per requested wall second; calibrated so
    #: the window lasts about ``--seconds`` on a 2-core x86 host
    window_ms_per_s: float
    loss: float = 0.0
    crash_frac: float = 0.0

    def window_ms(self, seconds: float) -> float:
        """The timed window: whole virtual minutes (SkipNet ping periods)."""
        window = max(1, round(seconds * self.window_ms_per_s / MINUTE_MS)) * MINUTE_MS
        if self.crash_frac and window <= DETECTION_BUDGET_MS:
            raise ValueError(
                f"{self.name}: a {window / 1000:.0f} s window leaves no time to crash "
                f"nodes before the detection budget; pass more --seconds"
            )
        return window


#: Detection plus repair budget past the last crash: a ping period plus
#: timeout to detect, and the two-minute root repair timeout (§7.4),
#: with slack for retries.
DETECTION_BUDGET_MS = 5 * MINUTE_MS

#: virtual ms the signal probe waits past its last signal
PROBE_TAIL_MS = 60_000.0

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("steady", window_ms_per_s=128_000.0),
        Workload("lossy", window_ms_per_s=44_000.0, loss=0.004),
        Workload("crash-storm", window_ms_per_s=36_000.0, crash_frac=0.06),
    )
}


@dataclass
class SetUp:
    world: FuseWorld
    wall_s: float
    create_latencies_ms: List[float]
    fingerprint: str
    #: (cached routes, cached Dijkstra trees) when set-up ended
    route_cache: Tuple[int, int]
    problems: List[str]


@dataclass
class PassResult:
    """One set-up plus one window of one workload."""

    setup: SetUp
    window_ms: float
    window_wall_s: float
    audit: Audit
    #: counter deltas over the timed window
    window_counters: Dict[str, float]
    fingerprint: str


def ledger_digest(world: FuseWorld) -> str:
    """Digest of every ledger row, in order."""
    ledger = world.ledger
    h = hashlib.sha256()
    for rec in ledger.creates:
        h.update(repr(tuple(rec)).encode())
    for rec in ledger.notes:
        h.update(repr((rec.when, rec.fuse_id, rec.node, rec.role,
                       rec.reason.value, rec.raw, rec.phase)).encode())
    h.update(repr(len(ledger.duplicates)).encode())
    return h.hexdigest()[:16]


def fingerprint(world: FuseWorld) -> str:
    """Events dispatched plus the ledger digest: equal across repeats,
    and across traced and untraced passes, or the run is not
    deterministic."""
    return f"{world.sim.events_dispatched}:{ledger_digest(world)}"


def set_up(shape: Shape, seed: int, spans: Spans) -> SetUp:
    """Build, bootstrap and lay the groups; wall time until all are live."""
    with spans.span("setup"):
        started = time.perf_counter()
        with spans.span("setup.construct", phase="setup"):
            world = FuseWorld(n_nodes=shape.n_nodes, seed=WORLD_SEED)
        with spans.span("setup.bootstrap", phase="setup"):
            world.bootstrap()
        with spans.span("setup.groups", phase="setup"):
            latencies = _lay_groups(world, shape, random.Random(seed))
        wall = time.perf_counter() - started
    problems: List[str] = []
    if world.overlay.member_count != shape.n_nodes:
        problems.append(
            f"bootstrap ended with {world.overlay.member_count}/{shape.n_nodes} members"
        )
    if len(latencies) != shape.groups:
        problems.append(f"only {len(latencies)}/{shape.groups} groups went live")
    routes = world.net.routes
    return SetUp(world, wall, latencies, fingerprint(world),
                 (routes.cached_route_count, routes.cached_tree_count), problems)


def _lay_groups(world: FuseWorld, shape: Shape, rng: random.Random) -> List[float]:
    """Create ``shape.groups`` groups open-loop; return each one's create
    latency (virtual ms from when it was due until it went live)."""
    latencies: List[float] = []
    base = world.now
    for i in range(shape.groups):
        root, *members = rng.sample(world.node_ids, shape.group_size)
        due = base + i * SPACING_MS
        world.sim.call_at(due, partial(_create, world, latencies, root, members, due))
    last_due = base + (shape.groups - 1) * SPACING_MS
    world.sim.run(until=last_due)
    deadline = last_due + CREATE_DEADLINE_MS
    while len(latencies) < shape.groups and world.now < deadline:
        world.run_for(1_000.0)
    return latencies


def _create(world: FuseWorld, latencies: List[float], root: int,
            members: List[int], due: float) -> None:
    world.create_group(root, members).on_live(
        lambda _group: latencies.append(world.now - due)
    )


def _snapshot(world: FuseWorld) -> Dict[str, float]:
    values: Dict[str, float] = {
        name: counter.value for name, counter in world.sim.metrics.counters().items()
    }
    values["events"] = world.sim.events_dispatched
    values["queue.pending"] = len(world.sim.queue)
    plane = world.sim.lane_plane
    if plane is not None:
        stats = plane.stats()
        for key in ("micro_events_dispatched", "absorbs", "ejects", "flushes"):
            values[f"lanes.{key}"] = stats[key]
    return values


def run_pass(workload: Workload, seed: int, seconds: float, spans: Spans,
             setup: SetUp) -> PassResult:
    """Run one workload's fault, timed window and audit on ``setup``."""
    with spans.span("pass", workload=workload.name):
        world = setup.world
        window_ms = workload.window_ms(seconds)
        wrng = random.Random(f"{workload.name}/{seed}")
        crashed_at: Dict[int, float] = {}
        with spans.span("fault.inject"):
            _inject(world, workload, window_ms, wrng, crashed_at)
        gc.collect()
        before = _snapshot(world)
        with spans.span("window.run", phase="window"):
            started = time.perf_counter()
            world.run_for(window_ms)
            window_wall = time.perf_counter() - started
        after = _snapshot(world)
        counters = {k: v - before.get(k, 0) for k, v in after.items()}
        if workload.crash_frac:
            crashed = set(crashed_at)
            failures = {
                rec.fuse_id: (min(crashed_at[m] for m in rec.members if m in crashed), crashed)
                for rec in world.ledger.creates
                if crashed.intersection(rec.members)
            }
        else:
            with spans.span("probe.signal"):
                failures = _signal_probe(world, wrng)
        result = audit(world.ledger, failures)
    return PassResult(
        setup, window_ms, window_wall, result, counters, fingerprint(world)
    )


def _inject(world: FuseWorld, workload: Workload, window_ms: float,
            rng: random.Random, crashed_at: Dict[int, float]) -> None:
    if workload.loss:
        world.topology.set_uniform_loss(workload.loss)
    if workload.crash_frac:
        victims = rng.sample(world.node_ids, round(workload.crash_frac * len(world.node_ids)))
        step = (window_ms - DETECTION_BUDGET_MS) / len(victims)
        start = world.now
        for i, victim in enumerate(victims):
            world.sim.call_at(start + (i + 0.5) * step, partial(_crash, world, victim, crashed_at))


def _crash(world: FuseWorld, victim: int, crashed_at: Dict[int, float]) -> None:
    crashed_at[victim] = world.now
    world.crash(victim)


def _signal_probe(world: FuseWorld, rng: random.Random
                  ) -> Dict[str, Tuple[float, Set[int]]]:
    """One random member of every still-live group calls SignalFailure,
    open-loop at the set-up spacing; returns the failures the audit
    checks (signal time, signaller exempt)."""
    ledger = world.ledger
    failures: Dict[str, Tuple[float, Set[int]]] = {}
    base = world.now
    live = [rec for rec in ledger.creates if ledger.status_of(rec.fuse_id) is GroupStatus.LIVE]
    for i, rec in enumerate(live):
        signaller = rng.choice(rec.members)
        when = base + i * SPACING_MS
        failures[rec.fuse_id] = (when, {signaller})
        world.sim.call_at(when, partial(world.fuse(signaller).signal_failure, rec.fuse_id))
    world.sim.run(until=base + len(live) * SPACING_MS + PROBE_TAIL_MS)
    return failures
