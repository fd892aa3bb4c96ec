"""Conservatively-synchronized parallel simulation of one world.

One :class:`~repro.world.FuseWorld` is partitioned across worker
processes: hosts are grouped AS-atomically (autonomous systems recovered
from the topology's intra-AS links), the lazily-built route table supplies
the affinity graph (cut as few communicating host pairs as possible), and
the minimum latency of any partition-crossing router link — plus both
access hops — is the conservative *lookahead* bound.  Workers dispatch
events in lock-stepped time windows no wider than the lookahead, so a
message sent across partitions inside a window can only arrive in a
strictly later window; the deliveries are exchanged at the window barrier
and re-injected in a canonical order.  That makes the merged event stream
(and with it the :class:`~repro.fuse.api.GroupLedger`) a pure function of
the partition plan: byte-identical for any ``--workers`` value, including
``--workers 1`` running the very same window schedule serially.

Execution model (the invariants the determinism matrix in
``tests/test_parallel_identity.py`` pins):

* Workers are **fork replicas** of one bootstrapped world.  Outside
  windows (setup hooks, phase boundaries) every worker executes the same
  Python serially on shared-RNG state — replicated, not divided.
* Inside a window each worker runs a fixed *phase order*: first the
  replicated phase (events owned by no single host — fault commands,
  scenario timers), then each of its own partitions in ascending
  partition id.  Events are attributed to partitions by push context
  (anything scheduled during partition *p*'s phase belongs to *p*), with
  callback introspection as the fallback for events created outside
  windows.  A worker that pops a foreign partition's replica event drops
  it — the owner has its own copy.
* During a partition phase the shared transport/overlay RNG streams and
  the connection cache are swapped for per-partition ones (named
  ``net.transport.p{p}of{P}`` etc.), so divided execution never advances
  a replicated stream, and the streams depend only on the plan — never
  on which worker runs the phase.
* Membership-oracle mutations (``report_dead`` / ``complete_join`` /
  ``member_leave``) raised during a partition phase are deferred to the
  window barrier and applied replicated, in canonical ``(origin
  partition, index)`` order, in *every* worker — ring state stays a
  replicated structure.  Likewise per-sender serialization backlog
  (``_send_busy_until``) written during a phase is broadcast at the
  barrier.

Known (deterministic, workers-independent) deviations from the classic
serial path, documented in docs/PERFORMANCE.md: membership changes and
cross-partition deliveries take effect at window granularity, and the
connection cache is viewed per partition, so a cross-partition pair pays
first-contact setup once per direction.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.net.address import NodeId
from repro.net.network import Network, _SendAttemptState
from repro.net.node import Host
from repro.net.topology import LinkKind
from repro.overlay.skipnet.node import OverlayNode
from repro.overlay.skipnet.overlay import SkipNetOverlay

#: owner sentinel for events that belong to no single partition and must
#: be dispatched replicated in every worker (fault commands, scenario
#: timers, anything unattributable).  Sorts before real partition ids, so
#: canonical stream order is replicated-phase-then-partitions.
REPLICATED = -1

_UNRESOLVED = object()

_DELIVER_FUNC = _SendAttemptState._deliver_now
_ATTEMPT_FUNC = _SendAttemptState.attempt


class ParallelDeterminismError(RuntimeError):
    """An invariant of the conservative window schedule was violated."""


# ----------------------------------------------------------------------
# Partition plan
# ----------------------------------------------------------------------
class PartitionPlan:
    """Host-to-partition assignment plus the lookahead bound.

    Built once per session from the world's topology and route table; the
    windowed execution is a pure function of this plan, so identical
    plans yield identical merged streams for any worker count.
    """

    def __init__(
        self,
        n_partitions: int,
        partition_of_host: Dict[NodeId, int],
        lookahead_ms: Optional[float],
        as_of_host: Dict[NodeId, int],
        cut_pairs: int,
        total_pairs: int,
    ) -> None:
        self.n_partitions = n_partitions
        self.partition_of_host = partition_of_host
        #: window width; None only for single-partition plans (no link
        #: ever crosses, so the serial fast path runs unwindowed).
        self.lookahead_ms = lookahead_ms
        self.as_of_host = as_of_host
        #: communicating host pairs split across partitions vs total
        #: pairs seen in the route table when the plan was built.
        self.cut_pairs = cut_pairs
        self.total_pairs = total_pairs
        parts: List[List[NodeId]] = [[] for _ in range(n_partitions)]
        for host in sorted(partition_of_host):
            parts[partition_of_host[host]].append(host)
        self.partitions: List[List[NodeId]] = parts

    @classmethod
    def build(cls, world, n_partitions: int) -> "PartitionPlan":
        """Partition ``world``'s hosts AS-atomically into ``n_partitions``
        groups, minimizing the cut of communicating pairs.

        The affinity graph is the route table's lazily-materialized
        ``(src, dst)`` key set — exactly the host pairs that have
        actually exchanged traffic so far — balanced greedily over
        whole autonomous systems (splitting an AS would put sub-ms
        intra-AS links on the cut and collapse the lookahead).
        """
        if n_partitions < 1:
            raise ValueError(f"need at least one partition, got {n_partitions}")
        topo = world.topology
        comp = topo.router_components([LinkKind.INTRA_AS])
        hosts: List[NodeId] = sorted(world.node_ids)
        as_of_host = {h: comp[topo.host_router(h)] for h in hosts}

        as_hosts: Dict[int, List[NodeId]] = {}
        for h in hosts:
            as_hosts.setdefault(as_of_host[h], []).append(h)

        # AS-level affinity from the route table's communicating pairs.
        affinity: Dict[int, Dict[int, int]] = {a: {} for a in as_hosts}
        total_pairs = 0
        for src, dst in world.net.routes._routes:
            a = as_of_host.get(src)
            b = as_of_host.get(dst)
            if a is None or b is None:
                continue
            total_pairs += 1
            if a != b:
                affinity[a][b] = affinity[a].get(b, 0) + 1
                affinity[b][a] = affinity[b].get(a, 0) + 1

        # Greedy balanced assignment: biggest ASes first, each to the
        # partition it communicates with most among those under the load
        # cap (ties: lighter load, then lower partition id).
        cap = math.ceil(1.2 * len(hosts) / n_partitions)
        order = sorted(as_hosts, key=lambda a: (-len(as_hosts[a]), a))
        assignment: Dict[int, int] = {}
        loads = [0] * n_partitions
        for as_id in order:
            size = len(as_hosts[as_id])
            candidates = [p for p in range(n_partitions) if loads[p] + size <= cap]
            if not candidates:
                candidates = [min(range(n_partitions), key=lambda p: (loads[p], p))]
            gains = {p: 0 for p in candidates}
            for nb, w in affinity[as_id].items():
                p = assignment.get(nb)
                if p in gains:
                    gains[p] += w
            best = max(candidates, key=lambda p: (gains[p], -loads[p], -p))
            assignment[as_id] = best
            loads[best] += size

        partition_of_host = {h: assignment[as_of_host[h]] for h in hosts}
        cut_pairs = sum(
            1
            for src, dst in world.net.routes._routes
            if src in partition_of_host
            and dst in partition_of_host
            and partition_of_host[src] != partition_of_host[dst]
        )

        lookahead: Optional[float] = None
        if n_partitions > 1:
            # Routers of host-bearing ASes take their AS's partition;
            # transit ASes get a unique label so every link on their
            # boundary counts as crossing — overly conservative (smaller
            # windows), never unsafe.
            group_of_router = {
                router: assignment.get(as_id, -(as_id + 2))
                for router, as_id in comp.items()
            }
            min_cross = topo.min_cross_group_latency(group_of_router)
            min_access = topo.min_access_latency()
            if min_cross is not None:
                lookahead = min_cross + 2.0 * (min_access or 0.0)
            else:
                # No router link crosses partitions, so no route does
                # either — any width is conservative; pick a progress cap.
                lookahead = 250.0
        return cls(
            n_partitions, partition_of_host, lookahead, as_of_host, cut_pairs, total_pairs
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "n_partitions": self.n_partitions,
            "lookahead_ms": self.lookahead_ms,
            "partition_sizes": [len(p) for p in self.partitions],
            "cut_pairs": self.cut_pairs,
            "total_pairs": self.total_pairs,
        }


# ----------------------------------------------------------------------
# Ownership attribution
# ----------------------------------------------------------------------
def owner_node_of(callback: Callable[[], Any]) -> Optional[NodeId]:
    """Best-effort host attribution of a scheduled callback.

    Resolves the network's send/deliver state machines exactly (attempt
    runs at the sender, delivery at the destination) and otherwise walks
    bound-method receivers and closure cells breadth-first for the first
    Host / OverlayNode / host-carrying service object.  Deterministic:
    the walk order depends only on the object graph, which is identical
    in every fork replica for the pre-window events this is used on.
    Returns None for events that touch no single host — those dispatch
    replicated.
    """
    queue: List[Tuple[Any, int]] = [(callback, 0)]
    while queue:
        obj, depth = queue.pop(0)
        self_obj = getattr(obj, "__self__", None)
        if self_obj is not None:
            if type(self_obj) is _SendAttemptState:
                func = getattr(obj, "__func__", None)
                return self_obj.dst if func is _DELIVER_FUNC else self_obj.src
            nid = _node_of(self_obj)
            if nid is not None:
                return nid
        if depth >= 3:
            continue
        closure = getattr(obj, "__closure__", None)
        if closure:
            for cell in closure:
                try:
                    value = cell.cell_contents
                except ValueError:  # pragma: no cover - empty cell
                    continue
                if type(value) is _SendAttemptState:
                    return value.src
                nid = _node_of(value)
                if nid is not None:
                    return nid
                if callable(value):
                    queue.append((value, depth + 1))
        func = getattr(obj, "__func__", None)
        if func is not None:
            queue.append((func, depth + 1))
    return None


def _node_of(obj: Any) -> Optional[NodeId]:
    if isinstance(obj, Host):
        return obj.node_id
    if isinstance(obj, OverlayNode):
        return obj.host.node_id
    # FuseService and the §5 alternative topologies all carry .host.
    host = getattr(obj, "host", None)
    if isinstance(host, Host):
        return host.node_id
    return None


# ----------------------------------------------------------------------
# Runtime helpers
# ----------------------------------------------------------------------
class _DirtyTrackingDict(dict):
    """dict recording written keys into ``dirty`` (when set).

    Swapped in for ``Network._send_busy_until`` during a parallel
    session so partition-phase writes to per-sender serialization
    backlog can be broadcast at the window barrier.
    """

    dirty: Optional[Set[Any]] = None

    def __setitem__(self, key: Any, value: Any) -> None:
        dict.__setitem__(self, key, value)
        dirty = self.dirty
        if dirty is not None:
            dirty.add(key)


class _CrossDelivery:
    """Re-injected cross-partition delivery (canonical replacement for
    the intercepted ``_SendAttemptState._deliver_now``)."""

    __slots__ = ("net", "src", "dst", "message")

    def __init__(self, net: Network, src: NodeId, dst: NodeId, message: Any) -> None:
        self.net = net
        self.src = src
        self.dst = dst
        self.message = message

    def __call__(self) -> None:
        self.net._deliver(self.src, self.dst, self.message)


def delivery_sort_key(record: Tuple) -> Tuple:
    """Canonical re-injection order: (arrival, origin partition, index)."""
    return (record[0], record[5], record[6])


def ring_op_sort_key(op: Tuple) -> Tuple:
    """Canonical membership-op order: (origin partition, index)."""
    return (op[2], op[3])


# ----------------------------------------------------------------------
# Window runner
# ----------------------------------------------------------------------
class WindowRunner:
    """Masked, phase-ordered dispatch of one worker's share of a world.

    One instance per worker per session.  ``run_window`` mirrors the
    kernel's hot loop (:meth:`repro.sim.kernel.Simulator.run`) — heap
    worked directly, cancelled entries shed inline, ``clock._now``
    assigned per dispatch — restricted to the active context's events.
    """

    def __init__(
        self,
        world,
        plan: PartitionPlan,
        owned_partitions: Sequence[int],
        record_stream: bool = False,
    ) -> None:
        self.world = world
        self.plan = plan
        self.sim = world.sim
        self.queue = world.sim.queue
        self.owned = sorted(owned_partitions)
        self._owned_set = set(self.owned)
        self.partition_of = plan.partition_of_host
        self.record_stream = record_stream

        P = plan.n_partitions
        rng = self.sim.rng
        self._net_rngs = {p: rng.stream(f"net.transport.p{p}of{P}") for p in self.owned}
        self._overlay_rngs = {p: rng.stream(f"overlay.p{p}of{P}") for p in self.owned}
        # Per-partition connection-cache views, seeded from the shared
        # set at session open (identical in every fork replica).
        base_connections = world.net._connections
        self._connections = {p: set(base_connections) for p in self.owned}

        #: seq -> owner partition (or REPLICATED); events created outside
        #: windows resolve lazily at pop time via owner_node_of.
        self._owner_cache: Dict[int, int] = {}

        # Window-scoped capture state.
        self._active_partition: Optional[int] = None
        self._outbox: List[Tuple] = []
        self._ring_ops: List[Tuple] = []
        self._busy_dirty: Set[NodeId] = set()
        self._window_start = 0.0
        self._window_end = 0.0
        self._window_slot = 0
        self.window_index = -1

        # Accounting.
        self.stream: List[Tuple[int, int, float, str]] = []
        self.dispatched_replicated = 0
        self.dispatched_partitioned = 0
        #: cumulative partition-phase dispatches across the session; the
        #: parent sums these over workers to produce merged event totals.
        self.lifetime_partitioned = 0
        #: per-window dispatch counts: window -> {context: count}; the
        #: critical-path metric in BENCH_parallel.json derives from this.
        self.window_counts: List[Dict[int, int]] = []
        self.partitioned_counter_totals: Dict[str, float] = {}
        # Ledger rows appended during partition phases, as (list name,
        # index, partition) — everything else in the ledger is replicated.
        self.partitioned_ledger_rows: List[Tuple[str, int, int]] = []
        self._saved_overlay_methods: Optional[Tuple] = None
        self._saved_rngs: Optional[Tuple] = None
        self._saved_connections = None

    # ------------------------------------------------------------------
    # Push probes
    # ------------------------------------------------------------------
    def _probe_partition(self, when: float, seq: int, cb, label: str) -> None:
        p = self._active_partition
        state = getattr(cb, "__self__", None)
        if state is not None and type(state) is _SendAttemptState:
            if getattr(cb, "__func__", None) is _DELIVER_FUNC:
                dst_p = self.partition_of.get(state.dst)
                if dst_p is not None and dst_p != p:
                    # Cross-partition delivery: intercept, exchange at the
                    # barrier.  The conservative bound must hold here —
                    # a violation means the lookahead computation is wrong.
                    if when < self._window_end - 1e-9:
                        raise ParallelDeterminismError(
                            f"cross-partition delivery at {when:.3f}ms lands inside "
                            f"the current window (ends {self._window_end:.3f}ms); "
                            f"lookahead {self.plan.lookahead_ms}ms is not conservative"
                        )
                    self.queue.cancel(seq)
                    self._outbox.append(
                        (when, state.src, state.dst, state.message, label, p, len(self._outbox))
                    )
                    return
        self._owner_cache[seq] = p

    # ------------------------------------------------------------------
    # Phase context swaps
    # ------------------------------------------------------------------
    def _enter_partition(self, p: int) -> None:
        net = self.world.net
        overlay = self.world.overlay
        self._saved_rngs = (net._rng, overlay.rng)
        net._rng = self._net_rngs[p]
        overlay.rng = self._overlay_rngs[p]
        self._saved_connections = net._connections
        net._connections = self._connections[p]

        ops = self._ring_ops

        def report_dead(name, _p=p):
            ops.append(("dead", name, _p, len(ops)))

        def complete_join(node, _p=p):
            ops.append(("join", node.name, _p, len(ops)))

        def member_leave(node, _p=p):
            ops.append(("leave", node.name, _p, len(ops)))

        overlay.report_dead = report_dead
        overlay.complete_join = complete_join
        overlay.member_leave = member_leave

        self._active_partition = p
        self.queue.push_probe = self._probe_partition

    def _exit_partition(self, p: int) -> None:
        net = self.world.net
        overlay = self.world.overlay
        self.queue.push_probe = None
        self._active_partition = None
        net._rng, overlay.rng = self._saved_rngs
        self._saved_rngs = None
        # Reassign in case anything rebound the active set in-phase.
        self._connections[p] = net._connections
        net._connections = self._saved_connections
        self._saved_connections = None
        for name in ("report_dead", "complete_join", "member_leave"):
            overlay.__dict__.pop(name, None)

    # ------------------------------------------------------------------
    # One window
    # ------------------------------------------------------------------
    def next_event_time(self) -> Optional[float]:
        return self.queue.peek_time()

    def run_window(self, w0: float, w1: float, slot: int) -> Dict[str, Any]:
        """Run one ``[w0, w1]`` window: replicated phase, then each owned
        partition in ascending id.  Returns the barrier payload.

        ``slot`` is the window's index on the session's fixed lookahead
        grid — the canonical label used in stream records.  (The runner's
        own ``window_index`` counts executed windows, which can include
        extra empty ones: a replica of a foreign event whose owner
        cancelled it stays live in this worker's heap until swept, and
        may pull the empty-window fast-forward to an earlier slot.  Grid
        slots, unlike execution counts, are identical for every worker
        split.)"""
        self.window_index += 1
        self._window_slot = slot
        self._window_start = w0
        self._window_end = w1
        self._outbox = []
        self._ring_ops = []
        counts: Dict[int, int] = {}
        clock = self.sim.clock

        # Replicated phase: shared streams, shared caches, no probe.
        clock._now = max(clock._now, w0)
        n = self._drain_phase(w1, REPLICATED)
        if n:
            counts[REPLICATED] = n
        self.dispatched_replicated += n

        # Partition-phase writes to per-sender busy state are broadcast
        # at the barrier; start tracking after the replicated phase
        # (replicated writes already happened identically everywhere).
        busy = self.world.net._send_busy_until
        self._busy_dirty.clear()
        busy.dirty = self._busy_dirty
        counter_snap = {
            name: c.value for name, c in self.sim.metrics._counters.items()
        }
        ledger = self.world.ledger
        ledger_marks = (
            len(ledger.creates), len(ledger.notes), len(ledger.duplicates)
        )

        for p in self.owned:
            clock._now = w0
            self._enter_partition(p)
            try:
                n = self._drain_phase(w1, p)
            finally:
                self._exit_partition(p)
            if n:
                counts[p] = n
            self.dispatched_partitioned += n
            new_marks = (
                len(ledger.creates), len(ledger.notes), len(ledger.duplicates)
            )
            for list_name, before, after in zip(
                ("creates", "notes", "duplicates"), ledger_marks, new_marks
            ):
                for idx in range(before, after):
                    self.partitioned_ledger_rows.append((list_name, idx, p))
            ledger_marks = new_marks

        busy.dirty = None
        busy_delta = {src: busy[src] for src in sorted(self._busy_dirty) if src in busy}
        totals = self.partitioned_counter_totals
        for name, c in self.sim.metrics._counters.items():
            delta = c.value - counter_snap.get(name, 0)
            if delta:
                totals[name] = totals.get(name, 0) + delta

        clock._now = w1
        self.window_counts.append(counts)
        return {
            "outbox": self._outbox,
            "ring_ops": self._ring_ops,
            "busy": busy_delta,
            "heap_min": self.queue.peek_time(),
        }

    def _drain_phase(self, window_end: float, want: int) -> int:
        queue = self.queue
        heap = queue._heap
        pending = queue._pending
        cache = self._owner_cache
        owned = self._owned_set
        clock = self.sim.clock
        record = self.record_stream
        stream = self.stream
        window = self._window_slot
        pop = heappop
        deferred: List[Tuple] = []
        dispatched = 0
        while heap:
            entry = heap[0]
            seq = entry[1]
            if seq not in pending:
                queue.shed_head()  # stale: no dispatch
                continue
            when = entry[0]
            if when > window_end:
                break
            pop(heap)
            pending.remove(seq)
            owner = cache.pop(seq, _UNRESOLVED)
            if owner is _UNRESOLVED:
                node = owner_node_of(entry[2])
                owner = REPLICATED if node is None else self.partition_of.get(node, REPLICATED)
            if owner == want:
                clock._now = when
                if record:
                    stream.append((window, want, when, entry[3]))
                entry[2]()
                dispatched += 1
            elif owner == REPLICATED or owner in owned:
                deferred.append((entry, owner))
            # else: a foreign worker's replica — the owner dispatches it.
        for entry, owner in deferred:
            heappush(heap, entry)
            pending.add(entry[1])
            cache[entry[1]] = owner
        return dispatched

    # ------------------------------------------------------------------
    # Barrier application
    # ------------------------------------------------------------------
    def apply_barrier(
        self,
        ring_ops: Sequence[Tuple],
        deliveries: Sequence[Tuple],
        busy_updates: Dict[NodeId, float],
    ) -> None:
        """Apply the merged barrier state at the window end (clock = w1).

        Ring ops run replicated (shared overlay RNG) in canonical order
        in every worker; deliveries — already filtered to this worker's
        partitions and canonically sorted — are pushed with their owner
        assigned directly, so same-time ties re-inject in the same order
        for every worker count.
        """
        overlay = self.world.overlay
        for kind, name, _p, _idx in ring_ops:
            if kind == "dead":
                overlay.report_dead(name)
            else:
                node = overlay._nodes.get(name)
                if node is None:
                    continue
                if kind == "join":
                    overlay.complete_join(node)
                else:
                    overlay.member_leave(node)
        net = self.world.net
        push = self.queue.push
        cache = self._owner_cache
        partition_of = self.partition_of
        for when, src, dst, message, label, _p, _idx in deliveries:
            seq = push(when, _CrossDelivery(net, src, dst, message), label)
            cache[seq] = partition_of[dst]
        if busy_updates:
            busy = net._send_busy_until
            for src, value in busy_updates.items():
                busy[src] = value

    def finish_run(self, end: float) -> None:
        """Advance the clock to the run's end (kernel ``run(until)``
        semantics) and fold dispatch counts into the simulator."""
        clock = self.sim.clock
        if end > clock._now:
            clock._now = end

    def sync_dispatch_total(self) -> None:
        self.sim._dispatched += self.dispatched_replicated + self.dispatched_partitioned
        self.lifetime_partitioned += self.dispatched_partitioned
        self.dispatched_replicated = 0
        self.dispatched_partitioned = 0
