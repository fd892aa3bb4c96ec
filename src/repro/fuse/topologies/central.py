"""Central-server liveness checking (§5.1, third alternative).

One trusted server is the hub for every FUSE group in the deployment
(the paper suggests this fits a data-center deployment).  Each
participating node pings the server once per ping period, listing the
groups it considers live; the server acknowledges with the subset *it*
considers live.  Failure flows in three ways:

* a node falls silent -> the server declares every group it belongs to
  failed and notifies the surviving members;
* a node stops listing a group (it signalled or heard a failure) -> the
  server sees the omission and propagates;
* the server itself falls silent -> each node independently declares all
  of its groups failed (the conservative reading of "the server is the
  single point of trust").

Per-member load is minimal — one ping per period regardless of group
count — but all traffic converges on the server.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.fuse.api import GroupLedger
from repro.fuse.ids import FuseId
from repro.fuse.topologies.base import (
    AltGroup,
    AlternativeFuseBase,
    AltNotify,
    TopologyConfig,
)
from repro.net.address import NodeId
from repro.net.message import Message
from repro.net.node import Host


class CsRegister(Message):
    """Root -> server: a new group and its membership."""

    size_bytes = 192

    def __init__(self, fuse_id: FuseId = "", member_ids: Sequence[NodeId] = ()) -> None:
        self.fuse_id = fuse_id
        self.member_ids = tuple(member_ids)


class CsPing(Message):
    """Node -> server: I am alive and consider these groups live."""

    size_bytes = 96

    def __init__(self, nonce: int = 0, group_ids: Sequence[FuseId] = ()) -> None:
        self.nonce = nonce
        self.group_ids = tuple(group_ids)


class CsPingAck(Message):
    """Server -> node: the subset of your groups the server holds live."""

    size_bytes = 96

    def __init__(self, nonce: int = 0, group_ids: Sequence[FuseId] = ()) -> None:
        self.nonce = nonce
        self.group_ids = tuple(group_ids)


class CentralServer:
    """The hub process.  Holds the authoritative group membership map and
    the per-node last-heard clock."""

    def __init__(self, host: Host, config: Optional[TopologyConfig] = None) -> None:
        self.host = host
        self.sim = host.network.sim
        self.config = config or TopologyConfig()
        self.group_members: Dict[FuseId, Sequence[NodeId]] = {}
        self._deadline: Dict[NodeId, float] = {}
        self._scanning = False
        host.on_crash(self._on_crash)
        host.register_handler(CsRegister, self._on_register)
        host.register_handler(CsPing, self._on_ping)
        host.register_handler(AltNotify, self._on_notify)

    def _on_register(self, message: Message) -> None:
        reg = message
        self.group_members[reg.fuse_id] = tuple(reg.member_ids)
        deadline = self.sim.now + self.config.silence_ms
        for member in reg.member_ids:
            self._deadline.setdefault(member, deadline)
        self._ensure_scanning()

    def _on_ping(self, message: Message) -> None:
        ping = message
        node = ping.sender
        if node is None:
            return
        self._deadline[node] = self.sim.now + self.config.silence_ms
        live_here = [g for g in ping.group_ids if g in self.group_members]
        self.host.send(node, CsPingAck(ping.nonce, live_here))
        # Groups we hold that the node no longer lists have been dropped
        # on the node's side (explicit signal or heard failure): propagate.
        listed = set(ping.group_ids)
        for fuse_id, members in list(self.group_members.items()):
            if node in members and fuse_id not in listed:
                self._fail_group(fuse_id, f"dropped-by-{node}")

    def _on_notify(self, message: Message) -> None:
        notify = message
        if notify.fuse_id in self.group_members:
            self._fail_group(notify.fuse_id, notify.reason)

    def _ensure_scanning(self) -> None:
        if self._scanning:
            return
        self._scanning = True
        self.host.call_after(self.config.ping_period_ms, self._scan)

    def _scan(self) -> None:
        if not self.group_members:
            self._scanning = False
            return
        now = self.sim.now
        silent = sorted(n for n, dl in self._deadline.items() if dl <= now)
        for node in silent:
            for fuse_id, members in list(self.group_members.items()):
                if node in members:
                    self._fail_group(fuse_id, f"node-{node}-silent")
            del self._deadline[node]
        self.host.call_after(self.config.ping_period_ms, self._scan)

    def _fail_group(self, fuse_id: FuseId, reason: str) -> None:
        members = self.group_members.pop(fuse_id, None)
        if members is None:
            return
        for member in members:
            self.host.send(member, AltNotify(fuse_id, reason))

    def _on_crash(self) -> None:
        self.group_members.clear()
        self._deadline.clear()
        self._scanning = False


class CentralServerFuse(AlternativeFuseBase):
    """Member-side FUSE API backed by a :class:`CentralServer`.

    Creation, the API calls and local failure come from
    :class:`AlternativeFuseBase`; liveness is one ping per period to the
    server in place of the base class's per-group peer pings.
    """

    def __init__(
        self,
        host: Host,
        server_id: NodeId,
        config: Optional[TopologyConfig] = None,
        ledger: Optional[GroupLedger] = None,
    ) -> None:
        self.server_id = server_id
        self._pinging = False
        self._server_deadline: Optional[float] = None
        super().__init__(host, config, ledger)

    # ------------------------------------------------------------------
    # Hooks into the shared create/fail machinery
    # ------------------------------------------------------------------
    def _group_installed(self, group: AltGroup) -> None:
        self._ensure_pinging()

    def _create_succeeded(self, group: AltGroup) -> None:
        self.host.send(self.server_id, CsRegister(group.fuse_id, group.member_ids))

    def _create_failed(self, group: AltGroup, member: NodeId, why: str) -> str:
        for peer in group.peers(self.host.node_id):
            self.host.send(peer, AltNotify(group.fuse_id, "create-failed"))
        self._fail_group(group, f"create-failed: {member} {why}")
        return f"member {member} unreachable ({why})"

    def _propagate_failure(self, group: AltGroup, reason: str) -> None:
        """Only a signal propagates from here: the server fans it out."""
        self.host.send(self.server_id, AltNotify(group.fuse_id, reason))

    def _forward_notification(self, group: AltGroup, notify: AltNotify) -> None:
        """The server already notified every member; nothing to relay."""

    # ------------------------------------------------------------------
    # Server liveness
    # ------------------------------------------------------------------
    def _register_liveness(self, host: Host) -> None:
        host.register_handler(CsPingAck, self._on_ping_ack)

    def _ensure_pinging(self) -> None:
        if self._pinging:
            return
        self._pinging = True
        self._server_deadline = self.sim.now + self.config.silence_ms
        phase = self.sim.rng.stream(f"cs-fuse:{self.host.name}").uniform(
            0.0, self.config.ping_period_ms
        )
        self.host.call_after(phase, self._ping_server)

    def _ping_server(self) -> None:
        if not self.groups:
            self._pinging = False
            self._server_deadline = None
            return
        if self._server_deadline is not None and self._server_deadline <= self.sim.now:
            self._server_silent()
            return
        self.host.send(
            self.server_id,
            CsPing(next(self._nonce), self.live_group_ids()),
            on_fail=lambda *_: self._server_silent(),
        )
        self.host.call_after(self.config.ping_period_ms, self._ping_server)

    def _on_ping_ack(self, message: Message) -> None:
        ack = message
        self._server_deadline = self.sim.now + self.config.silence_ms
        acked = set(ack.group_ids)
        for group in list(self.groups.values()):
            if group.fuse_id not in acked:
                # The server no longer holds this group: it failed.
                self._fail_group(group, "server-disclaimed")

    def _server_silent(self) -> None:
        """The single point of trust is gone: conservatively fail every
        group (we can no longer guarantee notification delivery)."""
        self._pinging = False
        for group in list(self.groups.values()):
            self._fail_group(group, "server-unreachable")

    def _on_crash(self) -> None:
        super()._on_crash()
        self._pinging = False
        self._server_deadline = None
