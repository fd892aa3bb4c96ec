"""LiveWorld: a complete FUSE deployment over real asyncio UDP sockets.

The live twin of :class:`repro.world.FuseWorld` — same protocol objects
(:class:`~repro.net.node.Host`, :class:`~repro.overlay.skipnet.node.OverlayNode`,
:class:`~repro.fuse.service.FuseService`, one shared
:class:`~repro.fuse.api.GroupLedger`), bound to an
:class:`~repro.net.backends.asynckernel.AsyncioKernel` and a
:class:`~repro.net.backends.livenet.LiveNetwork` instead of the simulator.
N peers run in one process, each with its own UDP endpoint on 127.0.0.1,
joined through the same SkipNet introducer logic; every message crosses a
real socket.

Naming, node ids (0..n-1), fuse-id serials, and the seeded RNG streams
all match the simulated world, so a scenario run on both backends with
the same seed produces comparable ledgers keyed by identical fuse ids —
that is what the parity harness in :mod:`repro.scenarios.parity` leans on.

``time_scale`` compresses wall time (0.02 ⇒ a 60 s virtual ping period
takes 1.2 s of wall clock), which is how the soak and CI runs keep
multi-virtual-minute scenarios inside seconds of real time.
"""

from __future__ import annotations

from typing import Optional

from repro.fuse.config import FuseConfig
from repro.net.backends.asynckernel import AsyncioKernel
from repro.net.backends.config import LiveTransportConfig
from repro.net.backends.livenet import LiveNetwork
from repro.overlay.skipnet.config import OverlayConfig
from repro.world import WorldBase


def _raise_fd_limit(n_sockets: int) -> None:
    """Best-effort bump of RLIMIT_NOFILE for large peer counts."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    needed = n_sockets * 2 + 256
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < needed:
            resource.setrlimit(resource.RLIMIT_NOFILE, (min(needed, hard), hard))
    except (ValueError, OSError):  # pragma: no cover - clamped by the OS
        pass


class LiveWorld(WorldBase):
    """A fully wired FUSE deployment running over localhost UDP.

    Everything but the kernel, the network, the wave bootstrap and
    :meth:`close` comes from :class:`repro.world.WorldBase`, shared with
    :class:`repro.world.FuseWorld`.
    """

    def __init__(
        self,
        n_nodes: int = 64,
        seed: int = 0,
        time_scale: float = 0.02,
        overlay_config: Optional[OverlayConfig] = None,
        fuse_config: Optional[FuseConfig] = None,
        transport: Optional[LiveTransportConfig] = None,
        trace: bool = False,  # accepted for FuseWorld signature parity
    ) -> None:
        if transport is None:
            transport = LiveTransportConfig(time_scale=time_scale)
        _raise_fd_limit(n_nodes)
        self.sim = AsyncioKernel(seed=seed, time_scale=transport.time_scale)
        self.net = LiveNetwork(self.sim, config=transport)
        self.topology = self.net.loss_model  # the wire's loss/burst knobs
        self._assemble(range(n_nodes), overlay_config, fuse_config)
        self._closed = False

    #: Peers joining concurrently during bootstrap.  On the simulator a
    #: join costs zero wall time, so any spacing works; on real sockets
    #: each join burns CPU in the shared event loop, and a 1,000-node
    #: flash crowd starves its own retransmit timers into connection
    #: breaks.  Waves bound the in-flight joins to something the loop
    #: can drain regardless of ``time_scale``.
    JOIN_WAVE_SIZE = 32

    def bootstrap(
        self,
        join_spacing_ms: Optional[float] = None,
        settle_ms: float = 5_000.0,
    ) -> None:
        """Open every UDP endpoint, join all nodes in waves, settle."""
        self.sim.run_coroutine(self.net.open_endpoints())
        join_spacing_ms = self._join_spacing(join_spacing_ms)
        joined_target = 0
        for base in range(0, len(self.node_ids), self.JOIN_WAVE_SIZE):
            wave = self.node_ids[base : base + self.JOIN_WAVE_SIZE]
            start = self.sim.now
            for index, node_id in enumerate(wave):
                node = self.overlay_nodes[node_id]
                self.sim.call_at(start + index * join_spacing_ms, node.join)
            self.sim.run_until_time(start + len(wave) * join_spacing_ms)
            joined_target += len(wave)
            # Wall clocks are not obedient: under heavy time compression
            # the CPU cost of real joins eats any fixed virtual budget,
            # so the wait is progress-based — each window must grow the
            # membership, and stalled nodes are re-joined (a join RPC
            # that lost its retransmit race surfaces as a failed join,
            # exactly like a dropped SYN would).
            target = joined_target
            stalled_windows = 0
            while self.overlay.member_count < target and stalled_windows < 3:
                before = self.overlay.member_count
                self.sim.run_until(
                    lambda: self.overlay.member_count >= target,
                    timeout_ms=120_000.0,
                )
                if self.overlay.member_count > before:
                    stalled_windows = 0
                    continue
                stalled_windows += 1
                for node_id in wave:
                    node = self.overlay_nodes[node_id]
                    if not node.joined:
                        node.join()
        self.sim.run_until_time(self.sim.now + settle_ms)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.net.close()
        self.sim.close()

    def __enter__(self) -> "LiveWorld":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
