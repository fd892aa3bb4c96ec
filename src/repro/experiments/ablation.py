"""§5/§5.1 ablations — liveness topology trade-offs and design switches.

Two studies the paper argues qualitatively, measured here:

1. **Topology scaling** (§5.1): steady-state message load as the number
   of groups grows, for the overlay implementation (shared pings — load
   flat in group count) versus direct spanning trees, all-to-all pinging
   (n² per group), and a central server (per-member flat, server
   bottleneck).

2. **Repair ablation** (§6 intro): with repair disabled, delegate
   failures convert directly into group failures; the paper chose repair
   precisely to avoid these false positives.

Engine decomposition: the topology study is a ``topology × n_groups``
grid (one world per cell), the repair study a two-point grid over
``repair_enabled`` — the widest fan-outs in the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import Measurements, ResultSet, Sweep, TrialSpec, run_trials
from repro.experiments.report import format_table
from repro.fuse.api import GroupLedger
from repro.fuse.config import FuseConfig
from repro.fuse.topologies import (
    AllToAllFuse,
    CentralServer,
    CentralServerFuse,
    DirectTreeFuse,
    TopologyConfig,
)
from repro.net import MercatorConfig, Network, build_mercator_topology
from repro.net.node import Host
from repro.sim import Simulator
from repro.world import FuseWorld

TOPOLOGY_EXPERIMENT = "ablation-topologies"
REPAIR_EXPERIMENT = "ablation-repair"

TOPOLOGIES = ("overlay (paper)", "direct-tree", "all-to-all", "central")


@dataclass
class TopologyAblationConfig:
    n_nodes: int = 40
    group_counts: Tuple[int, ...] = (5, 10, 20, 40)
    group_size: int = 6
    window_minutes: float = 10.0
    seed: int = 11


class TopologyAblationResult:
    def __init__(self) -> None:
        # (topology, n_groups) -> msgs/sec
        self.load: Dict[Tuple[str, int], float] = {}
        self.result_set: Optional[ResultSet] = None

    def rows(self) -> List[Tuple]:
        topologies = sorted({t for t, _ in self.load})
        counts = sorted({c for _, c in self.load})
        out = []
        for topology in topologies:
            row = [topology] + [round(self.load.get((topology, c), 0.0), 1) for c in counts]
            out.append(tuple(row))
        return out

    def format_table(self) -> str:
        counts = sorted({c for _, c in self.load})
        return format_table(
            ["topology"] + [f"{c} groups msg/s" for c in counts],
            self.rows(),
            title="§5.1 ablation — steady-state load vs group count "
            "(overlay: flat; direct/all-to-all: grows; all-to-all fastest growth)",
        )


def _run_overlay(n_nodes: int, n_groups: int, group_size: int,
                 window_ms: float, seed: int) -> float:
    """The paper's implementation: FUSE trees over the SkipNet overlay."""
    world = FuseWorld(n_nodes=n_nodes, seed=seed)
    world.bootstrap()
    rng = world.sim.rng.stream("ablation-groups")
    for _ in range(n_groups):
        root, *members = rng.sample(world.node_ids, group_size)
        world.create_group_sync(root, members)
    world.run_for_minutes(1.0)
    world.sim.metrics.reset_counters()
    world.run_for(window_ms)
    return world.sim.metrics.counter("net.messages").rate_per_second(window_ms)


def _run_alternative(kind: str, n_nodes: int, n_groups: int, group_size: int,
                     window_ms: float, seed: int) -> float:
    sim = Simulator(seed=seed)
    topo, host_ids = build_mercator_topology(
        MercatorConfig.scaled_for_hosts(n_nodes + 1), sim.rng.stream("topology")
    )
    net = Network(sim, topo)
    hosts = [Host(net, h) for h in host_ids[: n_nodes + 1]]
    cfg = TopologyConfig()
    # One ledger per deployment (as FuseWorld does) so handles see every
    # member's notifications, not just the local node's.
    ledger = GroupLedger(sim, net.faults)
    if kind == "central":
        CentralServer(hosts[-1], cfg)
        services = [
            CentralServerFuse(h, hosts[-1].node_id, cfg, ledger=ledger)
            for h in hosts[:-1]
        ]
    elif kind == "direct-tree":
        services = [DirectTreeFuse(h, cfg, ledger=ledger) for h in hosts[:-1]]
    else:
        services = [AllToAllFuse(h, cfg, ledger=ledger) for h in hosts[:-1]]
    rng = sim.rng.stream("ablation-groups")
    for _ in range(n_groups):
        indices = rng.sample(range(len(services)), group_size)
        root, members = indices[0], [hosts[i].node_id for i in indices[1:]]
        done = []
        handle = services[root].create_group(members)
        handle.on_live(lambda _g: done.append("ok"))
        handle.on_notified(lambda _g, reason: done.append(reason.value))
        sim.run_until(lambda: bool(done), timeout_ms=math.inf)
    sim.metrics.reset_counters()
    sim.run(until=sim.now + window_ms)
    return sim.metrics.counter("net.messages").rate_per_second(window_ms)


def _topology_trial(spec: TrialSpec) -> Measurements:
    config: TopologyAblationConfig = spec.context
    kind = spec["topology"]
    n_groups = spec["n_groups"]
    window_ms = config.window_minutes * 60_000.0
    if kind == "overlay (paper)":
        rate = _run_overlay(
            config.n_nodes, n_groups, config.group_size, window_ms, spec.seed
        )
    else:
        rate = _run_alternative(
            kind, config.n_nodes, n_groups, config.group_size, window_ms, spec.seed
        )
    return {"msgs_per_sec": rate}


def topology_sweep(
    config: TopologyAblationConfig, seeds: Optional[Sequence[int]] = None
) -> Sweep:
    return Sweep(
        grid={"topology": TOPOLOGIES, "n_groups": tuple(config.group_counts)},
        seeds=tuple(seeds) if seeds else (config.seed,),
    )


def run_topology_ablation(
    config: Optional[TopologyAblationConfig] = None,
    *,
    jobs: int = 1,
    seeds: Optional[Sequence[int]] = None,
) -> TopologyAblationResult:
    config = config or TopologyAblationConfig()
    specs = topology_sweep(config, seeds).expand(TOPOLOGY_EXPERIMENT, context=config)
    rs = ResultSet(run_trials(_topology_trial, specs, jobs=jobs), experiment=TOPOLOGY_EXPERIMENT)
    result = TopologyAblationResult()
    for topology, by_topology in rs.group_by("topology").items():
        for n_groups, cell in by_topology.group_by("n_groups").items():
            result.load[(topology, n_groups)] = cell.mean("msgs_per_sec")
    result.result_set = rs
    return result


@dataclass
class RepairAblationConfig:
    n_nodes: int = 40
    n_groups: int = 12
    group_size: int = 4
    churn_events: int = 6
    observe_minutes: float = 12.0
    seed: int = 12


class RepairAblationResult:
    def __init__(self) -> None:
        self.false_positives: Dict[str, int] = {}
        self.groups: Dict[str, int] = {}
        self.result_set: Optional[ResultSet] = None

    def rows(self) -> List[Tuple]:
        return [
            (mode, self.groups.get(mode, 0), self.false_positives.get(mode, 0))
            for mode in sorted(self.groups)
        ]

    def format_table(self) -> str:
        return format_table(
            ["mode", "groups", "false positives"],
            self.rows(),
            title="§6 ablation — repair vs signal-on-delegate-failure "
            "(paper chose repair to avoid false positives)",
        )


def _repair_trial(spec: TrialSpec) -> Measurements:
    config: RepairAblationConfig = spec.context
    world = FuseWorld(
        n_nodes=config.n_nodes,
        seed=spec.seed,
        fuse_config=FuseConfig(repair_enabled=spec["repair_enabled"]),
    )
    world.bootstrap()
    rng = world.sim.rng.stream("repair-ablation")
    group_members: List[Tuple[str, List[int]]] = []
    stable = world.node_ids[: config.n_nodes // 2]
    for _ in range(config.n_groups):
        root, *members = rng.sample(stable, config.group_size)
        fid, status, _ = world.create_group_sync(root, members)
        if status == "ok":
            group_members.append((fid, [root] + members))
    world.run_for_minutes(1.0)
    fids = {fid for fid, _m in group_members}
    member_nodes = {m for _fid, members in group_members for m in members}
    for _ in range(config.churn_events):
        # Crash a node that is currently a *delegate* (holds checking
        # state for one of our groups without being a member of it).
        delegates = sorted(
            nid
            for nid in world.node_ids
            if nid not in member_nodes
            and world.host(nid).alive
            and any(f in fids for f in world.fuse(nid).groups)
        )
        if not delegates:
            world.run_for_minutes(config.observe_minutes / config.churn_events)
            continue
        victim = rng.choice(delegates)
        world.crash(victim)
        world.run_for_minutes(config.observe_minutes / config.churn_events)
        world.restart(victim)
        world.run_for_minutes(1.0)
    world.run_for_minutes(2.0)
    # Ledger accounting: a false positive is any group one of its own
    # members was notified about (no member was ever faulted here).
    false_positives = sum(
        1
        for fid, members in group_members
        if any(world.ledger.was_notified(fid, m) for m in members)
    )
    return {"groups": len(group_members), "false_positives": false_positives}


def repair_sweep(
    config: RepairAblationConfig, seeds: Optional[Sequence[int]] = None
) -> Sweep:
    return Sweep(
        grid={"repair_enabled": (True, False)},
        seeds=tuple(seeds) if seeds else (config.seed,),
    )


def run_repair_ablation(
    config: Optional[RepairAblationConfig] = None,
    *,
    jobs: int = 1,
    seeds: Optional[Sequence[int]] = None,
) -> RepairAblationResult:
    config = config or RepairAblationConfig()
    specs = repair_sweep(config, seeds).expand(REPAIR_EXPERIMENT, context=config)
    rs = ResultSet(run_trials(_repair_trial, specs, jobs=jobs), experiment=REPAIR_EXPERIMENT)
    result = RepairAblationResult()
    for enabled, subset in rs.group_by("repair_enabled").items():
        mode = "repair-enabled" if enabled else "repair-disabled"
        result.groups[mode] = int(subset.total("groups"))
        result.false_positives[mode] = int(subset.total("false_positives"))
    result.result_set = rs
    return result
