"""FuseWorld: one-call assembly of a complete simulated deployment.

Everything the paper's testbed provides — a wide-area topology, a TCP-ish
messaging layer, a SkipNet overlay with N virtual nodes, and a FUSE
service on each — wired together and bootstrapped.  Tests, examples, and
the experiment harness all start from here::

    world = FuseWorld(n_nodes=40, seed=1)
    world.bootstrap()                      # all nodes join the overlay
    fid, status, _ = world.create_group_sync(0, [5, 9, 13])
    world.disconnect(9)
    world.run_for_minutes(5)
    assert world.fuse(0).notifications[fid]

:class:`WorldBase` holds what does not depend on the backend: the node
stacks, the join-spacing policy, the accessors, group creation and the
fault conveniences.  :class:`FuseWorld` adds the simulator and
:class:`repro.net.backends.liveworld.LiveWorld` real UDP sockets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.fuse.api import FuseGroup, GroupLedger, GroupStatus
from repro.fuse.config import FuseConfig
from repro.fuse.ids import FuseId
from repro.fuse.service import FuseService
from repro.net.address import NodeId
from repro.net.mercator import MercatorConfig, build_mercator_topology
from repro.net.network import Network
from repro.net.node import Host
from repro.net.transport import TransportConfig
from repro.overlay.skipnet.config import OverlayConfig
from repro.overlay.skipnet.node import OverlayNode
from repro.overlay.skipnet.overlay import SkipNetOverlay
from repro.sim.kernel import Simulator
from repro.sim.lanes import LanePlane, resolve_lanes_mode

MINUTE_MS = 60_000.0


class WorldBase:
    """A wired FUSE deployment on any backend.

    A subclass builds ``self.sim`` (a kernel with ``run_for`` and
    ``run_until``) and ``self.net``, calls :meth:`_assemble`, and
    implements ``bootstrap``.
    """

    def _assemble(
        self,
        node_ids: Sequence[NodeId],
        overlay_config: Optional[OverlayConfig],
        fuse_config: Optional[FuseConfig],
    ) -> None:
        """Build the overlay, the shared ledger and one Host ->
        OverlayNode -> FuseService stack per node."""
        self.overlay = SkipNetOverlay(self.sim, self.net, overlay_config)
        self.fuse_config = fuse_config or FuseConfig()
        # The world-wide notification ledger: every FuseService records
        # group creations and per-member notifications here, making it
        # the single source of truth for agreement / false-positive /
        # latency accounting (see repro.fuse.api and docs/API.md).
        self.ledger = GroupLedger(self.sim, self.net.faults)

        self.node_ids: List[NodeId] = list(node_ids)
        self.hosts: Dict[NodeId, Host] = {}
        self.overlay_nodes: Dict[NodeId, OverlayNode] = {}
        self.fuse_services: Dict[NodeId, FuseService] = {}
        for node_id in self.node_ids:
            host = Host(self.net, node_id, name=f"node-{node_id:05d}")
            overlay_node = self.overlay.create_node(host)
            self.hosts[node_id] = host
            self.overlay_nodes[node_id] = overlay_node
            self.fuse_services[node_id] = FuseService(
                overlay_node, self.fuse_config, ledger=self.ledger
            )

    # ------------------------------------------------------------------
    # Bootstrap and clock control
    # ------------------------------------------------------------------
    #: Node count up to which the default join schedule uses the classic
    #: 200 ms spacing (every committed fixture and test world is below
    #: this, so their event streams are bit-for-bit unchanged).
    CLASSIC_BOOTSTRAP_MAX_NODES = 400
    #: Target virtual length of the auto-scaled join window at scale.
    AUTO_JOIN_WINDOW_MS = 30_000.0
    #: Floor on auto-scaled join spacing (joins stay staggered, never a
    #: same-instant thundering herd).
    AUTO_JOIN_SPACING_MIN_MS = 2.0

    def default_join_spacing_ms(self) -> float:
        """The join spacing ``bootstrap()`` uses when none is given.

        200 ms per join — the spacing the paper-scale experiments were
        calibrated with — up to :data:`CLASSIC_BOOTSTRAP_MAX_NODES`.
        Beyond that the schedule is compressed so the whole join storm
        fits in :data:`AUTO_JOIN_WINDOW_MS` of virtual time: at 200 ms a
        16,000-node world would spend 53 virtual *minutes* joining, and
        the liveness sweeps of already-joined nodes during that window
        make bootstrap cost O(n²) pings.  Capping the window (at half a
        ping period — joins complete in well under a second of virtual
        time, so the window models a deployment ramp, not idle steady
        state) keeps it O(n).  Pass ``join_spacing_ms`` explicitly to
        override either regime.
        """
        n = len(self.node_ids)
        if n <= self.CLASSIC_BOOTSTRAP_MAX_NODES:
            return 200.0
        return max(self.AUTO_JOIN_SPACING_MIN_MS, self.AUTO_JOIN_WINDOW_MS / n)

    def _join_spacing(self, join_spacing_ms: Optional[float]) -> float:
        """Resolve ``bootstrap()``'s join spacing (None means
        :meth:`default_join_spacing_ms`).

        In the compressed flash-crowd regime every node's first liveness
        sweep is held until the join storm has ended.  A probe fired
        mid-storm races thousands of queued joins; at 16k nodes that
        raced a handful of members clean out of the overlay (the
        15,996/16,000 gap).  Classic 200 ms schedules keep the floor at
        zero so historical event streams stay byte-identical.
        """
        if join_spacing_ms is None:
            join_spacing_ms = self.default_join_spacing_ms()
        if join_spacing_ms < 200.0:
            self.overlay.first_sweep_floor_ms = len(self.node_ids) * join_spacing_ms
        return join_spacing_ms

    def run_for(self, duration_ms: float) -> None:
        self.sim.run_for(duration_ms)

    def run_for_minutes(self, minutes: float) -> None:
        self.sim.run_for(minutes * MINUTE_MS)

    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def fuse(self, node_id: NodeId) -> FuseService:
        return self.fuse_services[node_id]

    def host(self, node_id: NodeId) -> Host:
        return self.hosts[node_id]

    def overlay_node(self, node_id: NodeId) -> OverlayNode:
        return self.overlay_nodes[node_id]

    def alive_node_ids(self) -> List[NodeId]:
        return [nid for nid in self.node_ids if self.hosts[nid].alive]

    # ------------------------------------------------------------------
    # Group creation conveniences
    # ------------------------------------------------------------------
    def create_group(self, root: NodeId, members: Sequence[NodeId]) -> FuseGroup:
        """Start creating a group rooted at ``root`` and return its
        handle (asynchronous — drive the world to complete it, or use
        :meth:`create_group_sync`)."""
        return self.fuse(root).create_group(members)

    def create_group_sync(
        self,
        root: NodeId,
        members: Sequence[NodeId],
        max_wait_ms: float = 120_000.0,
    ) -> Tuple[Optional[FuseId], str, float]:
        """Create a group and drive the world until creation completes.

        Wraps :meth:`create_group`: subscribes the handle's
        lifecycle callbacks and runs the kernel until one fires.
        Returns (fuse_id or None, status string, creation latency in ms).
        """
        outcome: Dict[str, object] = {}
        started = self.sim.now

        def live(group: FuseGroup) -> None:
            outcome["fuse_id"] = group.fuse_id
            outcome["status"] = "ok"
            outcome["latency"] = self.sim.now - started

        def notified(group: FuseGroup, _reason) -> None:
            if group.status is not GroupStatus.FAILED_CREATE or "status" in outcome:
                return
            outcome["fuse_id"] = None
            outcome["status"] = group.create_failure_reason or "create-failed"
            outcome["latency"] = self.sim.now - started

        self.create_group(root, members).on_live(live).on_notified(notified)
        if not self.sim.run_until(lambda: "status" in outcome, timeout_ms=max_wait_ms):
            return None, "no-completion", self.sim.now - started
        return (
            outcome.get("fuse_id"),  # type: ignore[return-value]
            str(outcome["status"]),
            float(outcome["latency"]),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # Fault conveniences
    # ------------------------------------------------------------------
    def crash(self, node_id: NodeId) -> None:
        self.net.crash_host(node_id)

    def disconnect(self, node_id: NodeId) -> None:
        self.net.disconnect_host(node_id)

    def restart(self, node_id: NodeId) -> None:
        """Recover a crashed node and rejoin it into the overlay."""
        self.net.recover_host(node_id)
        node = self.overlay_nodes[node_id]
        if not node.joined:
            node.join()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={len(self.node_ids)}, "
            f"t={self.sim.now / 1000.0:.1f}s, members={self.overlay.member_count})"
        )


class FuseWorld(WorldBase):
    """A fully wired simulated FUSE deployment."""

    def __init__(
        self,
        n_nodes: int = 400,
        seed: int = 0,
        mercator: Optional[MercatorConfig] = None,
        overlay_config: Optional[OverlayConfig] = None,
        fuse_config: Optional[FuseConfig] = None,
        transport: Optional[TransportConfig] = None,
        trace: bool = False,
        liveness_lanes: Optional[object] = None,
    ) -> None:
        self.sim = Simulator(seed=seed, trace=trace)
        self.mercator = mercator or MercatorConfig.scaled_for_hosts(n_nodes)
        if self.mercator.n_hosts < n_nodes:
            raise ValueError("mercator config has fewer hosts than requested nodes")
        topo, host_ids = build_mercator_topology(self.mercator, self.sim.rng.stream("topology"))
        self.topology = topo
        self.net = Network(self.sim, topo, config=transport)
        self._assemble(host_ids[:n_nodes], overlay_config, fuse_config)

        # Liveness lanes: the batched fast path for steady-state ping
        # traffic (repro.sim.lanes).  ``liveness_lanes`` overrides the
        # REPRO_LIVENESS_LANES environment default ("on").
        self.lanes_mode = resolve_lanes_mode(liveness_lanes)
        if self.lanes_mode != "off":
            plane = LanePlane(self.sim, self.net, self.overlay)
            self.sim.lane_plane = plane
            self.overlay.lane_plane = plane

    def bootstrap(
        self,
        join_spacing_ms: Optional[float] = None,
        settle_ms: float = 5_000.0,
    ) -> None:
        """Join every node into the overlay, staggered, then settle.

        ``join_spacing_ms`` defaults to :meth:`default_join_spacing_ms`:
        the classic 200 ms schedule for worlds up to 400 nodes (keeping
        historical event streams byte-identical), a compressed schedule
        above that so paper-scale worlds bootstrap in bounded virtual
        time.
        """
        join_spacing_ms = self._join_spacing(join_spacing_ms)
        plane = self.sim.lane_plane
        if plane is not None:
            # Join storms churn routing tables too fast for lanes to pay
            # off (every table push would eject); absorb only afterward.
            plane.suspend()
        try:
            for index, node_id in enumerate(self.node_ids):
                node = self.overlay_nodes[node_id]
                self.sim.call_at(index * join_spacing_ms, node.join)
            self.sim.run(until=len(self.node_ids) * join_spacing_ms + settle_ms)
        finally:
            if plane is not None:
                plane.resume()
        if join_spacing_ms < 200.0:
            # A probe routed into the churning mid-storm rings can
            # dead-end (hop-count drop), parking its joiner on the 30 s
            # join-retry timer — past the settle window.  Drive the
            # world until the stragglers' retries land so a compressed
            # bootstrap always ends with full membership (bounded: one
            # retry cycle plus slack).
            deadline = self.sim.now + 60_000.0
            while (
                self.overlay.member_count < len(self.node_ids)
                and self.sim.now < deadline
            ):
                self.sim.run_for(1_000.0)


def make_world(backend: str = "sim", **kwargs):
    """Build a world on the requested backend with one call.

    ``backend="sim"`` returns a :class:`FuseWorld` on the deterministic
    simulator; ``backend="live"`` returns a
    :class:`repro.net.backends.liveworld.LiveWorld` running real asyncio
    UDP sockets (imported lazily so the simulated path never touches the
    backend package).  Both accept ``n_nodes``/``seed``/``overlay_config``/
    ``fuse_config``; backend-specific keywords (``mercator``, ``trace``,
    ``liveness_lanes`` vs ``time_scale``, ``transport``) pass through.
    """
    if backend == "sim":
        return FuseWorld(**kwargs)
    if backend == "live":
        from repro.net.backends.liveworld import LiveWorld

        return LiveWorld(**kwargs)
    raise ValueError(f"unknown backend {backend!r} (choose 'sim' or 'live')")
