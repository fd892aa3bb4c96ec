"""Seeded property tests for the conservative window scheduler.

Complements the identity matrix (``test_parallel_identity``) with the
*invariants* that make the byte-identity non-accidental, checked over
many random topologies and seeds:

* the partitioner covers every host exactly once and never splits an
  autonomous system (splitting one would put sub-millisecond intra-AS
  links on the cut and collapse the lookahead);
* the lookahead bound never exceeds the latency of any actual
  cross-partition route — the conservative condition;
* no event is dispatched beyond the window barrier it ran under;
* every cross-partition message exchanged at a barrier arrives in a
  strictly later window than the one that sent it.

The dispatch-level properties instrument :class:`WindowRunner.run_window`
directly, so they hold for every worker split by construction (the
runner code is identical; only partition ownership differs).
"""

import random

import pytest

from repro.net.topology import LinkKind
from repro.sim.parallel import REPLICATED, PartitionPlan, WindowRunner
from repro.world import FuseWorld

MINUTE_MS = 60_000.0

#: (seed, n_nodes, n_partitions) — 50 random plan configurations.
_PLAN_CASES = [
    (seed, random.Random(seed * 7919).choice([24, 36, 60, 90, 150]),
     random.Random(seed * 104729).choice([2, 3, 4, 6]))
    for seed in range(50)
]


def _plan_world(seed: int, n_nodes: int) -> FuseWorld:
    world = FuseWorld(n_nodes=n_nodes, seed=seed, liveness_lanes="off")
    world.bootstrap()
    return world


class TestPartitionerProperties:
    @pytest.mark.parametrize("seed,n_nodes,n_partitions", _PLAN_CASES)
    def test_plan_invariants(self, seed, n_nodes, n_partitions):
        world = _plan_world(seed, n_nodes)
        plan = PartitionPlan.build(world, n_partitions)

        # Every host exactly once, across exactly the requested range.
        seen = [h for part in plan.partitions for h in part]
        assert sorted(seen) == sorted(world.node_ids)
        assert len(seen) == len(set(seen))
        assert set(plan.partition_of_host) == set(world.node_ids)
        assert all(
            0 <= p < n_partitions for p in plan.partition_of_host.values()
        )

        # AS-atomicity: one partition per autonomous system.
        by_as = {}
        for host, as_id in plan.as_of_host.items():
            by_as.setdefault(as_id, set()).add(plan.partition_of_host[host])
        assert all(len(parts) == 1 for parts in by_as.values())

        # Lookahead is positive and conservative w.r.t. every actual
        # cross-partition route: route latency = access + core + access,
        # and the core path crosses at least one partition-crossing link.
        assert plan.lookahead_ms is not None and plan.lookahead_ms > 0
        routes = world.net.routes
        rng = random.Random(seed)
        hosts = sorted(world.node_ids)
        checked = 0
        for _ in range(200):
            a, b = rng.sample(hosts, 2)
            if plan.partition_of_host[a] == plan.partition_of_host[b]:
                continue
            route = routes.route(a, b)
            assert plan.lookahead_ms <= route.current_latency() + 1e-9, (
                f"lookahead {plan.lookahead_ms} exceeds cross-partition "
                f"route {a}->{b} latency {route.current_latency()}"
            )
            checked += 1
            if checked >= 25:
                break
        assert checked > 0, "no cross-partition pair sampled"

    def test_lookahead_uses_min_crossing_link(self):
        """The bound equals min crossing core link + both access hops."""
        world = _plan_world(3, 60)
        plan = PartitionPlan.build(world, 4)
        topo = world.topology
        comp = topo.router_components([LinkKind.INTRA_AS])
        group_of = {}
        for router, as_id in comp.items():
            hosts = [h for h, a in plan.as_of_host.items() if a == as_id]
            group_of[router] = (
                plan.partition_of_host[hosts[0]] if hosts else -(as_id + 2)
            )
        min_cross = min(
            link.latency_ms
            for link in topo.links()
            if group_of.get(link.a) != group_of.get(link.b)
        )
        min_access = topo.min_access_latency()
        assert plan.lookahead_ms == pytest.approx(min_cross + 2 * min_access)


class _Probe:
    """Wraps run_window to audit barrier discipline and exchanges."""

    def __init__(self, runner: WindowRunner):
        self.runner = runner
        self.violations = []
        self.exchanged = 0
        self.windows = 0
        inner = runner.run_window

        def audited(w0, w1, slot):
            mark = len(runner.stream)
            out = inner(w0, w1, slot)
            self.windows += 1
            for _slot, _ctx, when, _label in runner.stream[mark:]:
                if when > w1 + 1e-9:
                    self.violations.append(
                        f"dispatch at {when} beyond barrier {w1}"
                    )
            for delivery in out["outbox"]:
                self.exchanged += 1
                # Strictly-later-window arrival: at or past the barrier,
                # so re-injection can never land in the sending window.
                if delivery[0] < w1 - 1e-9:
                    self.violations.append(
                        f"cross-partition arrival {delivery[0]} inside "
                        f"window ending {w1}"
                    )
            return out

        runner.run_window = audited


class TestWindowDispatchProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_barrier_and_exchange_discipline(self, seed):
        rng = random.Random(seed * 31337)
        n_nodes = rng.choice([36, 60, 90])
        n_partitions = rng.choice([2, 3, 4])
        world = _plan_world(seed, n_nodes)
        ids = world.node_ids
        probes = []

        def body(session):
            probe = _Probe(session.runner)
            probes.append(probe)
            for i in range(4):
                root = ids[(i * len(ids)) // 4]
                members = [ids[(i * 9 + k + 1) % len(ids)] for k in range(3)]
                world.create_group_sync(root, members)
            session.run_for(1.0 * MINUTE_MS)
            world.crash(ids[seed % len(ids)])
            session.run_for(1.0 * MINUTE_MS)

        world.run_partitioned(
            body, workers=1, partitions=n_partitions, record_stream=True
        )
        (probe,) = probes
        assert probe.windows > 0
        assert probe.violations == [], probe.violations[:5]
        # The workload spans partitions, so the conservative exchange
        # path must actually be exercised.
        assert probe.exchanged > 0

    def test_replicated_and_partition_contexts_both_used(self):
        world = _plan_world(2, 60)
        ids = world.node_ids

        def body(session):
            world.create_group_sync(ids[0], ids[1:5])
            # A replicated-context timer: closes over no host object.
            ticks = []
            world.sim.call_after(10_000.0, lambda: ticks.append(1))
            session.run_for(1.0 * MINUTE_MS)

        result = world.run_partitioned(
            body, workers=1, partitions=3, record_stream=True
        )
        contexts = {record[1] for record in result.stream}
        assert REPLICATED in contexts
        assert contexts - {REPLICATED}, "no partition-context dispatches"


def test_lazily_moved_timer_survives_the_window_drain():
    """A timer moved later outside any partition phase rides on its old
    heap entry; the window drain must re-push it when that entry comes
    up, as the serial kernel does."""
    world = _plan_world(2, 36)
    fired = []
    want = []

    def body(session):
        handle = world.sim.call_after(10_000.0, lambda: fired.append(world.now))
        assert handle.reschedule_at(handle.when + 5_000.0)
        want.append(handle.when)
        session.run_for(1.0 * MINUTE_MS)

    world.run_partitioned(body, workers=1, partitions=2)
    assert fired == want
