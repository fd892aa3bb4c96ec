"""The FUSE service: one instance per node.

Protocol summary (paper §6):

* **Create** (§6.2): the root contacts every member directly and in
  parallel (GroupCreateRequest/Reply).  Each member concurrently routes an
  InstallChecking message toward the root through the overlay; every node
  on the path — member, delegates, root — installs per-(group, link)
  timers.  Creation succeeds only when every member replied within the
  creation timeout; otherwise every contacted member is sent a
  HardNotification so no state is orphaned.

* **Steady state** (§6.3): each overlay ping/ack carries a hash of the
  FUSE IDs the sender believes it monitors jointly with that neighbor.  A
  matching hash resets all the (group, neighbor) timers; a mismatch makes
  both sides exchange their id lists and drop — after a grace period —
  the checking trees they disagree on.

* **Notifications** (§6.4): liveness-tree breaks raise SoftNotifications,
  which spread through the tree, tear down delegate state, and trigger
  repair — they never reach the application.  Explicit signals, create or
  repair failures, and repair encountering a forgotten group raise
  HardNotifications, which invoke the application handler exactly once.

* **Repair** (§6.5): members ask the root to repair (NeedRepair) and give
  up after the member repair timeout; the root re-runs the create-style
  exchange (GroupRepairRequest/Reply) with an incremented sequence number
  and per-group exponential backoff capped at 40 s.  Any member that lost
  its group state fails the repair, converting it into a HardNotification
  for everyone.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.fuse.api import FuseGroup, GroupLedger, ledger_completion
from repro.fuse.config import FuseConfig
from repro.fuse.ids import FuseId, make_fuse_id
from repro.fuse.messages import (
    FuseLinkList,
    GroupCreateReply,
    GroupCreateRequest,
    GroupRepairReply,
    GroupRepairRequest,
    HardNotification,
    InstallChecking,
    NeedRepair,
    SoftNotification,
)
from repro.fuse.state import FailureHandler, GroupState
from repro.net.address import NodeId
from repro.net.message import Message
from repro.net.node import Host
from repro.overlay.skipnet.messages import RouteEnvelope
from repro.overlay.skipnet.node import OverlayNode

CreateCallback = Callable[[Optional[FuseId], str], None]

_EMPTY_HASH = hashlib.sha1(b"").hexdigest()


class _PendingCreate:
    """Root-side bookkeeping for one CreateGroup call."""

    __slots__ = ("awaiting", "on_complete", "failed")

    def __init__(self, awaiting: Set[NodeId], on_complete: CreateCallback) -> None:
        self.awaiting = awaiting
        self.on_complete = on_complete
        self.failed = False


class FuseService:
    """FUSE API and protocol engine attached to one overlay node."""

    __slots__ = (
        "overlay",
        "host",
        "sim",
        "config",
        "ledger",
        "groups",
        "notifications",
        "_last_list_sent",
        "_liveness_timeout",
        "_fuse_id_serial",
        "_stable_store",
        "_links_gen",
        "_shared_cache",
    )

    def __init__(
        self,
        overlay_node: OverlayNode,
        config: Optional[FuseConfig] = None,
        ledger: Optional[GroupLedger] = None,
    ) -> None:
        self.overlay = overlay_node
        self.host: Host = overlay_node.host
        self.sim = self.host.network.sim
        self.config = config or FuseConfig()
        # The notification ledger — shared world-wide when constructed by
        # FuseWorld, private otherwise.  All group lifecycle accounting
        # (creates, per-member notifications, handle dispatch) goes
        # through it; see repro.fuse.api.
        self.ledger = ledger if ledger is not None else GroupLedger(
            self.sim, self.host.network.faults
        )
        self.groups: Dict[FuseId, GroupState] = {}
        self.notifications: Dict[FuseId, str] = {}
        self._last_list_sent: Dict[NodeId, float] = {}
        # _shared_ids scans every group for link membership — the hottest
        # FUSE call in steady state (twice per ping, plus evidence on
        # both ends).  Healthy pings only *reschedule* link timers, so
        # the scan result is stable between membership changes: every
        # site that adds/removes a group or changes a links key-set
        # bumps _links_gen, and the per-neighbor cache keys on it.
        # Entries are [gen, ids, digest, payload, link_timers]; the last
        # three fill in lazily.
        self._links_gen = 0
        self._shared_cache: Dict[NodeId, list] = {}
        self._liveness_timeout = self.config.effective_liveness_timeout(
            overlay_node.config.liveness_silence_ms
        )
        # Per-creator serial: fuse ids are a pure function of the world's
        # seed (no process-global state), which the trial engine's
        # serial-vs-parallel determinism guarantee depends on.
        self._fuse_id_serial = itertools.count(1)

        # §3.6 stable storage: survives crashes (it models a disk file).
        # Maps fuse_id -> minimal recovery record.
        self._stable_store: Dict[FuseId, dict] = {}

        host = self.host
        host.on_crash(self._on_host_crash)
        host.on_recover(self._on_host_recover)
        host.register_handler(GroupCreateRequest, self._on_create_request)
        host.register_handler(InstallChecking, self._on_install_delivered)
        host.register_handler(SoftNotification, self._on_soft_notification)
        host.register_handler(HardNotification, self._on_hard_notification)
        host.register_handler(NeedRepair, self._on_need_repair)
        host.register_handler(GroupRepairRequest, self._on_repair_request)
        host.register_handler(FuseLinkList, self._on_link_list)

        overlay_node.register_payload_provider(self._payload_for)
        overlay_node.register_ping_listener(self._on_ping_evidence)
        overlay_node.register_failure_listener(self._on_neighbor_failure)
        overlay_node.register_upcall(self._on_route_upcall)

    def _on_host_crash(self) -> None:
        """Fail-stop crash: all volatile FUSE state vanishes (§3.6).  The
        surviving peers discover the loss via liveness timers and list
        reconciliation; repairs hitting this node after recovery find no
        state and harden into notifications."""
        self.groups.clear()
        self._last_list_sent.clear()
        self._links_gen += 1
        self._shared_cache.clear()

    def _on_host_recover(self) -> None:
        """§3.6 alternative: with stable storage enabled, a recovering
        node assumes its member/root groups are still alive and
        re-installs checking state.  The active comparison of live FUSE
        IDs (and repair hitting any group that actually failed meanwhile)
        reconciles it with the rest of the world."""
        if not self.config.stable_storage:
            return
        for fuse_id, record in sorted(self._stable_store.items()):
            if fuse_id in self.groups or fuse_id in self.notifications:
                continue
            state = GroupState(
                fuse_id,
                root_name=record["root_name"],
                root_id=record["root_id"],
                created_at=self.sim.now,
                is_root=record["is_root"],
                is_member=record["is_member"],
            )
            state.seq = record["seq"]
            state.member_ids = list(record["member_ids"])
            state.member_names = list(record["member_names"])
            self.groups[fuse_id] = state
            self._links_gen += 1
            if state.is_root:
                # Rebuild the whole checking tree via a repair round.
                state.pending_installs = set(state.member_names)
                self._attempt_repair(state, "stable-storage-recovery")
            else:
                self._arm_bootstrap_timer(state)
                self.sim.schedule_soon(lambda s=state: self._route_install_checking(s))

    def _persist(self, state: GroupState) -> None:
        """Write the group's recovery record to "disk" (no-op unless the
        §3.6 stable-storage option is on)."""
        if not self.config.stable_storage:
            return
        if not (state.is_member or state.is_root):
            return  # delegates never persist; they are rebuilt by repair
        self._stable_store[state.fuse_id] = {
            "root_name": state.root_name,
            "root_id": state.root_id,
            "is_root": state.is_root,
            "is_member": state.is_member,
            "seq": state.seq,
            "member_ids": list(state.member_ids),
            "member_names": list(state.member_names),
        }

    def _unpersist(self, fuse_id: FuseId) -> None:
        self._stable_store.pop(fuse_id, None)

    # ------------------------------------------------------------------
    # Public API (Fig 1 of the paper)
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.host.name

    def create_group(self, members: Sequence[NodeId]) -> FuseGroup:
        """CreateGroup: build a group of this node (the root) plus ``members``.

        Returns a :class:`~repro.fuse.api.FuseGroup` handle carrying the
        assigned FUSE ID and lifecycle subscriptions: ``on_live`` fires
        once every member has been contacted (blocking-create semantics,
        §3.2); on failure the handle moves to ``failed_create``,
        ``on_notified`` fires, and all contacted members are notified so
        no state is orphaned (§6.2).  Every attempt and outcome is also
        recorded on :attr:`ledger`.
        """
        member_ids = [m for m in dict.fromkeys(members) if m != self.host.node_id]
        fuse_id = make_fuse_id(self.name, serial=next(self._fuse_id_serial))
        state = GroupState(
            fuse_id,
            root_name=self.name,
            root_id=self.host.node_id,
            created_at=self.sim.now,
            is_root=True,
            is_member=True,
        )
        state.member_ids = member_ids
        state.member_names = [self._name_of(m) for m in member_ids]
        state.pending_installs = set(state.member_names)
        self.groups[fuse_id] = state
        self._links_gen += 1
        self.sim.metrics.counter("fuse.create_attempts").increment()

        handle = FuseGroup(
            self, self.ledger, fuse_id, self.host.node_id, [self.host.node_id] + member_ids
        )
        self.ledger.record_create(fuse_id, self.host.node_id, handle.members)
        self.ledger.attach_handle(handle)
        done = ledger_completion(self.ledger, fuse_id)

        if not member_ids:
            self.sim.schedule_soon(lambda: self._complete_create(state, done))
            return handle

        pending = _PendingCreate(set(member_ids), done)
        state.pending_create = pending
        request_names = [self.name] + state.member_names
        for member in member_ids:
            self._create_rpc(state, pending, member, request_names)

        if not self.config.blocking_create:
            # Ablation: hand the ID back immediately; liveness checking
            # must catch unreachable members after the fact.
            self.sim.schedule_soon(lambda: done(fuse_id, "ok"))
            pending.on_complete = lambda *_: None
        return handle

    def register_failure_handler(self, fuse_id: FuseId, handler: FailureHandler) -> None:
        """RegisterFailureHandler: invoke ``handler`` on group failure.

        If the group is unknown here — typically because it has already
        been signalled — the handler is invoked immediately (§3.2).
        """
        state = self.groups.get(fuse_id)
        if state is None:
            self.sim.schedule_soon(lambda: handler(fuse_id))
            return
        state.handler = handler

    def signal_failure(self, fuse_id: FuseId) -> None:
        """SignalFailure: the application declares the group failed."""
        state = self.groups.get(fuse_id)
        if state is None:
            return  # already failed; one notification per group, ever
        self.sim.metrics.counter("fuse.explicit_signals").increment()
        if state.is_root:
            self._root_hard_fail(state, "signaled", exclude=None)
        else:
            self._send_control(state.root_id, HardNotification(fuse_id, "signaled"))
            self._soft_notify_links(state, exclude=None)
            self._fail_group(state, "signaled")

    def live_group_ids(self) -> List[FuseId]:
        return sorted(self.groups)

    # ------------------------------------------------------------------
    # Group creation
    # ------------------------------------------------------------------
    def _create_rpc(
        self,
        state: GroupState,
        pending: _PendingCreate,
        member: NodeId,
        request_names: List[str],
    ) -> None:
        request = GroupCreateRequest(state.fuse_id, self.name, request_names)

        def on_reply(reply) -> None:
            if pending.failed or state.fuse_id not in self.groups:
                return
            if not getattr(reply, "ok", False):
                self._create_failed(state, pending, f"member {member} refused")
                return
            pending.awaiting.discard(member)
            if not pending.awaiting:
                self._complete_create(state, pending.on_complete)

        def on_failure(why: str) -> None:
            if pending.failed or state.fuse_id not in self.groups:
                return
            self._create_failed(state, pending, f"member {member} unreachable ({why})")

        self.host.rpc(member, request, self.config.create_timeout_ms, on_reply, on_failure)

    def _complete_create(self, state: GroupState, on_complete: CreateCallback) -> None:
        if state.fuse_id not in self.groups:
            return
        state.pending_create = None
        self.sim.metrics.counter("fuse.groups_created").increment()
        self._persist(state)
        self._arm_install_timer(state)
        on_complete(state.fuse_id, "ok")

    def _create_failed(self, state: GroupState, pending: _PendingCreate, reason: str) -> None:
        pending.failed = True
        self.sim.metrics.counter("fuse.create_failures").increment()
        # Notify everyone who may have installed state; no orphans (§6.2).
        for member in state.member_ids:
            self.host.send(member, HardNotification(state.fuse_id, f"create-failed: {reason}"))
        self._soft_notify_links(state, exclude=None)
        self._remove_state(state)
        pending.on_complete(None, reason)

    def _on_create_request(self, message: Message) -> None:
        request = message
        root_id = request.sender
        existing = self.groups.get(request.fuse_id)
        if existing is not None:
            # Another member's InstallChecking can race ahead of our own
            # create request, leaving delegate-only state here.  Upgrade
            # it to member state — otherwise a later repair would find
            # "no membership" and wrongly harden (§6.5).
            if not existing.is_member:
                existing.is_member = True
                existing.root_name = request.root_name
                if root_id is not None:
                    existing.root_id = root_id
                self._persist(existing)
                self._arm_bootstrap_timer(existing)
                self._route_install_checking(existing)
            self.host.respond(request, GroupCreateReply(request.fuse_id, ok=True))
            return
        state = GroupState(
            request.fuse_id,
            root_name=request.root_name,
            root_id=root_id,
            created_at=self.sim.now,
            is_member=True,
        )
        self.groups[request.fuse_id] = state
        self._links_gen += 1
        self._persist(state)
        self._arm_bootstrap_timer(state)
        self.host.respond(request, GroupCreateReply(request.fuse_id, ok=True))
        self._route_install_checking(state)

    def _route_install_checking(self, state: GroupState) -> None:
        if not self.overlay.joined:
            return  # bootstrap timer will catch the dead overlay
        self.overlay.route(
            state.root_name,
            InstallChecking(state.fuse_id, state.seq, self.name, state.root_name),
        )

    def _arm_bootstrap_timer(self, state: GroupState) -> None:
        if state.bootstrap_timer is not None and state.bootstrap_timer.reschedule_after(
            self._liveness_timeout
        ):
            return
        state.bootstrap_timer = self.host.call_after(
            self._liveness_timeout,
            lambda: self._on_bootstrap_timeout(state.fuse_id),
            label=f"{self.name}:fuse-bootstrap",
        )

    def _on_bootstrap_timeout(self, fuse_id: FuseId) -> None:
        """No liveness links ever materialized for a member's group."""
        state = self.groups.get(fuse_id)
        if state is None or state.links:
            return
        self._local_tree_failure(state, "no-checking-installed")

    def _arm_install_timer(self, state: GroupState) -> None:
        if state.install_timer is not None:
            state.install_timer.cancel()
        if not state.pending_installs:
            state.install_timer = None
            return
        state.install_timer = self.host.call_after(
            self.config.install_timeout_ms,
            lambda: self._on_install_timeout(state.fuse_id),
            label=f"{self.name}:fuse-install",
        )

    def _on_install_timeout(self, fuse_id: FuseId) -> None:
        state = self.groups.get(fuse_id)
        if state is None or not state.is_root or not state.pending_installs:
            return
        self._attempt_repair(state, "install-timeout")

    # ------------------------------------------------------------------
    # InstallChecking handling (upcalls on every hop + root terminal)
    # ------------------------------------------------------------------
    def _on_route_upcall(
        self,
        envelope: RouteEnvelope,
        prev_hop: Optional[NodeId],
        next_hop: Optional[NodeId],
        delivered: bool,
    ) -> None:
        payload = envelope.payload
        if not isinstance(payload, InstallChecking):
            return
        state = self.groups.get(payload.fuse_id)
        if state is not None and payload.seq < state.seq:
            return  # stale install from before a repair
        if state is None:
            if delivered:
                return  # terminal node with no state: nothing to install
            root_id = self.overlay.overlay.resolve(payload.root_name)
            if root_id is None:
                return
            state = GroupState(
                payload.fuse_id,
                root_name=payload.root_name,
                root_id=root_id,
                created_at=self.sim.now,
            )
            self.groups[payload.fuse_id] = state
            self._links_gen += 1
        state.seq = payload.seq
        for hop in (prev_hop, next_hop):
            if hop is not None and hop != self.host.node_id:
                self._ensure_link(state, hop)
        if state.bootstrap_timer is not None and state.links:
            state.bootstrap_timer.cancel()
            state.bootstrap_timer = None

    def _on_install_delivered(self, message: Message) -> None:
        """Terminal delivery of an InstallChecking envelope."""
        install = message
        state = self.groups.get(install.fuse_id)
        if state is None or not state.is_root or install.root_name != self.name:
            # Delivered somewhere other than the intended root (the root
            # departed, or overlay routing is in flux).  The originating
            # member's timers will drive recovery; nothing to do here.
            return
        if install.seq < state.seq:
            return
        state.pending_installs.discard(install.member_name)
        if not state.pending_installs:
            if state.install_timer is not None:
                state.install_timer.cancel()
                state.install_timer = None
            state.repair_backoff_ms = 0.0  # tree fully healthy again

    # ------------------------------------------------------------------
    # Liveness links and piggybacked hashes
    # ------------------------------------------------------------------
    def _ensure_link(self, state: GroupState, neighbor: NodeId) -> None:
        # Resetting a live timer in place reuses its callback closure and
        # handle (the agreeing-ping path in _on_ping_evidence does the
        # same through memoized handles).  Safe because group state never
        # survives a crash, so the closure's incarnation guard always
        # matches the current incarnation.
        existing = state.links.get(neighbor)
        if existing is not None and existing.reschedule_after(self._liveness_timeout):
            return
        state.links[neighbor] = self._make_link_timer(state.fuse_id, neighbor)
        self._links_gen += 1

    def _make_link_timer(self, fuse_id: FuseId, neighbor: NodeId):
        return self.host.call_after(
            self._liveness_timeout,
            lambda: self._on_link_timeout(fuse_id, neighbor),
            label=f"{self.name}:fuse-link",
        )

    def _shared_ids(self, neighbor: NodeId) -> List[FuseId]:
        if not self.groups:
            return []  # fast path: dominant during bootstrap at scale
        entry = self._shared_cache.get(neighbor)
        if entry is not None and entry[0] == self._links_gen:
            return entry[1]
        ids = [
            fuse_id for fuse_id, state in self.groups.items() if neighbor in state.links
        ]
        ids.sort()
        self._shared_cache[neighbor] = [self._links_gen, ids, None, None, None]
        return ids

    @staticmethod
    def _hash_ids(ids: Sequence[FuseId]) -> str:
        return hashlib.sha1("|".join(ids).encode()).hexdigest()

    def _shared_hash(self, neighbor: NodeId, ids: List[FuseId]) -> str:
        """sha1 of the shared-id list, memoized alongside the cached list
        (the ids of a healthy link hash identically every ping)."""
        entry = self._shared_cache.get(neighbor)
        if entry is not None and entry[0] == self._links_gen and entry[1] is ids:
            digest = entry[2]
            if digest is None:
                digest = entry[2] = self._hash_ids(ids)
            return digest
        return self._hash_ids(ids)

    def _payload_for(self, neighbor: NodeId) -> Optional[dict]:
        # The piggyback dict for a healthy link is the same every ping
        # (it only carries the shared-id hash), so it is memoized next to
        # the id list and invalidated by the same generation bump.
        if not self.groups:
            return None
        entry = self._shared_cache.get(neighbor)
        if entry is None or entry[0] != self._links_gen:
            self._shared_ids(neighbor)
            entry = self._shared_cache[neighbor]
        payload = entry[3]
        if payload is None:
            ids = entry[1]
            if not ids:
                return None
            digest = entry[2]
            if digest is None:
                digest = entry[2] = self._hash_ids(ids)
            payload = entry[3] = {"fuse": {"hash": digest}}
        return payload

    def _on_ping_evidence(self, neighbor: NodeId, payload: dict, _is_ack: bool) -> None:
        fuse_part = payload.get("fuse")
        theirs = _EMPTY_HASH if fuse_part is None else fuse_part.get("hash", _EMPTY_HASH)
        if fuse_part is None and not self.groups:
            # Empty on both sides — trivially in agreement.  The dominant
            # steady-state case for nodes outside every group.
            return
        mine_ids = self._shared_ids(neighbor)
        mine = self._shared_hash(neighbor, mine_ids) if mine_ids else _EMPTY_HASH
        if mine == theirs:
            # Agreement: this link is alive for every shared group.  The
            # groups' link timers are memoized beside the id list (every
            # site that replaces or drops one bumps _links_gen), so each
            # reset is one reschedule to a shared deadline.
            if not mine_ids:
                return
            entry = self._shared_cache[neighbor]
            timers = entry[4]
            if timers is None:
                groups = self.groups
                timers = entry[4] = [groups[f].links[neighbor] for f in mine_ids]
            deadline = self.sim.now + self._liveness_timeout
            for i, timer in enumerate(timers):
                if not timer.reschedule_at(deadline):
                    # Fired or cancelled without a generation bump:
                    # recreate it, then reset the rest the slow way.
                    for fuse_id in mine_ids[i:]:
                        self._ensure_link(self.groups[fuse_id], neighbor)
                    return
            return
        # Disagreement: reconcile by exchanging id lists (§6.3), at most
        # once per link per half ping period to bound chatter.
        last = self._last_list_sent.get(neighbor, -1e18)
        if self.sim.now - last < self.overlay.config.ping_period_ms / 2.0:
            return
        self._last_list_sent[neighbor] = self.sim.now
        listing = {
            fuse_id: self.groups[fuse_id].seq for fuse_id in mine_ids
        }
        self.host.send(neighbor, FuseLinkList(listing))

    def _on_link_list(self, message: Message) -> None:
        peer = message.sender
        if peer is None:
            return
        peer_groups: Dict[FuseId, int] = message.groups
        mine_ids = self._shared_ids(peer)
        for fuse_id in mine_ids:
            state = self.groups[fuse_id]
            if fuse_id in peer_groups:
                state.seq = max(state.seq, peer_groups[fuse_id])
                self._ensure_link(state, peer)
            else:
                # The neighbor disclaims this group on our shared link.
                if self.sim.now - state.created_at <= self.config.grace_period_ms:
                    continue  # install/ping race (§6.3): give it time
                timer = state.links.pop(peer, None)
                if timer is not None:
                    timer.cancel()
                    self._links_gen += 1
                self._local_tree_failure(state, "reconcile-disagreement")
        # Groups the peer has but we do not: the peer's own reconciliation
        # (triggered by our hash) removes them on its side; replying with
        # our list here would only double the chatter.

    def _on_link_timeout(self, fuse_id: FuseId, neighbor: NodeId) -> None:
        state = self.groups.get(fuse_id)
        if state is None:
            return
        timer = state.links.pop(neighbor, None)
        if timer is not None:
            timer.cancel()
            self._links_gen += 1
        self.sim.metrics.counter("fuse.link_timeouts").increment()
        self._local_tree_failure(state, "link-timeout")

    def _on_neighbor_failure(self, neighbor: NodeId, reason: str) -> None:
        """Overlay declared a neighbor unresponsive: every group sharing a
        checking link with it just lost that link."""
        affected = [
            state for state in list(self.groups.values()) if neighbor in state.links
        ]
        for state in affected:
            timer = state.links.pop(neighbor, None)
            if timer is not None:
                timer.cancel()
                self._links_gen += 1
            self._local_tree_failure(state, f"overlay-{reason}")

    # ------------------------------------------------------------------
    # Soft notifications and local tree teardown
    # ------------------------------------------------------------------
    def _soft_notify_links(self, state: GroupState, exclude: Optional[NodeId]) -> None:
        for neighbor in sorted(state.links):
            if neighbor == exclude:
                continue
            self.sim.metrics.counter("fuse.soft_notifications").increment()
            self.host.send(neighbor, SoftNotification(state.fuse_id, state.seq))

    def _clear_links(self, state: GroupState) -> None:
        for timer in state.links.values():
            timer.cancel()
        state.links.clear()
        self._links_gen += 1

    def _local_tree_failure(self, state: GroupState, reason: str, exclude: Optional[NodeId] = None) -> None:
        """This node's view of the group's checking tree is broken (§6.3):
        spread SoftNotifications, drop delegate state, and — if we are a
        member or the root — start repair."""
        if state.fuse_id not in self.groups:
            return
        if not self.config.repair_enabled and (state.is_member or state.is_root):
            # Ablation: no repair; convert any tree break into group failure.
            if state.is_root:
                self._root_hard_fail(state, f"no-repair:{reason}", exclude=None)
            else:
                self._send_control(
                    state.root_id, HardNotification(state.fuse_id, f"no-repair:{reason}")
                )
                self._soft_notify_links(state, exclude)
                self._fail_group(state, f"no-repair:{reason}")
            return
        self._soft_notify_links(state, exclude)
        self._clear_links(state)
        if state.is_root:
            self._attempt_repair(state, reason)
        elif state.is_member:
            self._member_request_repair(state)
        else:
            self._remove_state(state)

    def _on_soft_notification(self, message: Message) -> None:
        soft = message
        state = self.groups.get(soft.fuse_id)
        if state is None:
            return
        if soft.seq < state.seq:
            return  # stale notification from a pre-repair tree (§6.4)
        state.seq = max(state.seq, soft.seq)
        self._local_tree_failure(state, "soft-notification", exclude=soft.sender)

    # ------------------------------------------------------------------
    # Repair (§6.5)
    # ------------------------------------------------------------------
    def _member_request_repair(self, state: GroupState) -> None:
        if state.need_repair_timer is not None and state.need_repair_timer.active:
            return  # repair request already outstanding
        self._send_control(state.root_id, NeedRepair(state.fuse_id, state.seq))
        state.need_repair_timer = self.host.call_after(
            self.config.member_repair_timeout_ms,
            lambda: self._on_member_repair_timeout(state.fuse_id),
            label=f"{self.name}:fuse-needrepair",
        )

    def _on_member_repair_timeout(self, fuse_id: FuseId) -> None:
        state = self.groups.get(fuse_id)
        if state is None:
            return
        # Never heard back from the root: give up and notify (§6.5).
        self._send_control(state.root_id, HardNotification(fuse_id, "member-repair-timeout"))
        self._soft_notify_links(state, exclude=None)
        self._fail_group(state, "member-repair-timeout")

    def _on_need_repair(self, message: Message) -> None:
        need = message
        state = self.groups.get(need.fuse_id)
        if state is None or not state.is_root:
            # The group no longer exists here: whoever asked must hear a
            # hard failure, or their state would dangle until timeout.
            if need.sender is not None:
                self.host.send(need.sender, HardNotification(need.fuse_id, "group-gone"))
            return
        if state.pending_create is not None:
            return  # creation still in flight; its own machinery decides
        self._attempt_repair(state, "need-repair")

    def _attempt_repair(self, state: GroupState, reason: str) -> None:
        if not state.is_root or state.fuse_id not in self.groups:
            return
        if not self.config.repair_enabled:
            self._root_hard_fail(state, f"no-repair:{reason}", exclude=None)
            return
        if state.repair_in_progress:
            return
        if state.repair_scheduled is not None and state.repair_scheduled.active:
            return
        delay = state.repair_backoff_ms
        state.repair_backoff_ms = min(
            self.config.repair_backoff_cap_ms,
            max(self.config.repair_backoff_initial_ms, state.repair_backoff_ms * 2.0),
        )
        state.repair_scheduled = self.host.call_after(
            delay,
            lambda: self._do_repair(state.fuse_id),
            label=f"{self.name}:fuse-repair",
        )

    def _do_repair(self, fuse_id: FuseId) -> None:
        state = self.groups.get(fuse_id)
        if state is None or not state.is_root:
            return
        state.repair_scheduled = None
        state.repair_in_progress = True
        state.seq += 1
        state.pending_installs = set(state.member_names)
        self._persist(state)
        self.sim.metrics.counter("fuse.repairs_started").increment()
        if not state.member_ids:
            state.repair_in_progress = False
            return
        outcome = {"failed": False, "awaiting": set(state.member_ids)}
        for member in state.member_ids:
            self._repair_rpc(state, member, outcome)
        # Root's own stake in the new tree: wait for installs again.
        self._arm_install_timer(state)

    def _repair_rpc(self, state: GroupState, member: NodeId, outcome: dict) -> None:
        request = GroupRepairRequest(state.fuse_id, state.seq, self.name)

        def on_reply(reply) -> None:
            if outcome["failed"] or state.fuse_id not in self.groups:
                return
            if not getattr(reply, "known", False):
                outcome["failed"] = True
                self._root_hard_fail(state, f"repair-unknown-at-{member}", exclude=None)
                return
            outcome["awaiting"].discard(member)
            if not outcome["awaiting"]:
                state.repair_in_progress = False
                self.sim.metrics.counter("fuse.repairs_succeeded").increment()

        def on_failure(why: str) -> None:
            if outcome["failed"] or state.fuse_id not in self.groups:
                return
            outcome["failed"] = True
            self._root_hard_fail(state, f"repair-{why}-at-{member}", exclude=None)

        self.host.rpc(member, request, self.config.root_repair_timeout_ms, on_reply, on_failure)

    def _on_repair_request(self, message: Message) -> None:
        request = message
        state = self.groups.get(request.fuse_id)
        if state is None or not state.is_member:
            self.host.respond(request, GroupRepairReply(request.fuse_id, known=False))
            return
        state.seq = max(state.seq, request.seq)
        if state.need_repair_timer is not None:
            state.need_repair_timer.cancel()
            state.need_repair_timer = None
        # Fresh tree: drop the old links (their delegates reconcile away)
        # and install checking along the current overlay route.
        self._clear_links(state)
        self._persist(state)
        self.host.respond(request, GroupRepairReply(request.fuse_id, known=True))
        self._arm_bootstrap_timer(state)
        self._route_install_checking(state)

    # ------------------------------------------------------------------
    # Hard notifications and group teardown
    # ------------------------------------------------------------------
    def _on_hard_notification(self, message: Message) -> None:
        hard = message
        state = self.groups.get(hard.fuse_id)
        if state is None:
            return  # already failed here; exactly-once is preserved
        if state.is_root:
            self._root_hard_fail(state, hard.reason, exclude=hard.sender)
        else:
            self._soft_notify_links(state, exclude=None)
            self._fail_group(state, hard.reason)

    def _root_hard_fail(self, state: GroupState, reason: str, exclude: Optional[NodeId]) -> None:
        """Root-side group failure: fan the HardNotification out to every
        other member, clean the checking tree, fail locally (§6.4)."""
        for member in state.member_ids:
            if member == exclude:
                continue
            self._send_control(member, HardNotification(state.fuse_id, reason))
        self._soft_notify_links(state, exclude=None)
        self._fail_group(state, reason)

    def _fail_group(self, state: GroupState, reason: str) -> None:
        """Invoke the handler exactly once and drop every trace of the
        group.  Absence of state is what makes later notifications no-ops
        and RegisterFailureHandler fire immediately."""
        if self.groups.pop(state.fuse_id, None) is None:
            return
        self._links_gen += 1
        state.cancel_all_timers()
        self._unpersist(state.fuse_id)
        self.notifications[state.fuse_id] = reason
        if state.is_member or state.is_root:
            self.sim.metrics.counter("fuse.hard_notifications").increment()
        handler = state.handler
        if handler is not None:
            handler(state.fuse_id)
        role = "root" if state.is_root else ("member" if state.is_member else "delegate")
        self.ledger.notified(state.fuse_id, self.host.node_id, role, reason)

    def _remove_state(self, state: GroupState) -> None:
        """Silent teardown for delegate-only or never-completed state."""
        if self.groups.pop(state.fuse_id, None) is None:
            return
        self._links_gen += 1
        state.cancel_all_timers()
        self._unpersist(state.fuse_id)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _send_control(self, dst_id: NodeId, msg: Message) -> None:
        """Root<->member control traffic: sent directly, never routed
        through the overlay (§6 intro); a message to self is delivered
        locally."""
        if dst_id == self.host.node_id:
            self.sim.schedule_soon(lambda: self.host.deliver(self._stamp_self(msg)))
            return
        self.host.send(dst_id, msg)

    def _stamp_self(self, msg: Message):
        stamped = copy.copy(msg)
        stamped.sender = self.host.node_id
        return stamped

    def _name_of(self, node_id: NodeId) -> str:
        name = self.overlay.overlay.name_of(node_id)
        if name is not None:
            return name
        return self.host.network.host(node_id).name

    def __repr__(self) -> str:
        return f"FuseService({self.name}, groups={len(self.groups)})"
