"""First-class FUSE group API: handles, lifecycle events, notification ledger.

The paper's application surface is three calls (§2, Fig 1): CreateGroup,
RegisterFailureHandler, SignalFailure.  This module is the typed,
object-level form of that surface for everything that *consumes* groups —
apps, experiments, scenario tracks:

* :class:`FuseGroup` — the handle ``create_group`` returns.  It carries
  the group's identity (``fuse_id``, ``root``, ``members``), its
  lifecycle :class:`GroupStatus`, and subscription points for the three
  observable transitions::

      creating ──ok──────────▶ live ──first member notified──▶ notified
          │                     on_live(cb)                  on_notified(cb)
          └──any member unreachable──▶ failed_create         on_member_notified(cb)
                                       (on_notified fires too)

* :class:`GroupLedger` — one per world (``FuseWorld.ledger``): the
  append-only record of every creation attempt and every per-member
  notification (who, when, why, in which scenario phase).  It is the
  single source of truth for agreement / false-positive / latency
  accounting: experiments and scenario ``[expect]`` assertions read the
  ledger instead of re-implementing observer bookkeeping per consumer.

* :class:`NotificationReason` — the typed "why" of a notification.  The
  protocol reports raw cause strings (``"link-timeout"``,
  ``"repair-unknown-at-17"``, …); the ledger classifies them and — when
  it can see the world's fault state — refines detection-driven causes
  into ``crash`` / ``disconnect`` / ``false_positive``.

Dispatch semantics, which the byte-identical guarantee of the refactor
rests on: ledger recording and handle callbacks run *synchronously* at
the instant the underlying service event fires, never through the event
queue, so adopting handles schedules no new events and perturbs no RNG
stream.  Callbacks subscribed after the fact are caught up immediately
(``on_live`` on an already-live group fires right away), mirroring §3.2's
"RegisterFailureHandler on a failed group notifies immediately".

Exactly-once: the ledger keeps the *first* notification per
(group, member) — the first-cause record — and files any later report
for the same pair under :attr:`GroupLedger.duplicates` instead of
double-counting it (a group both signalled and crash-detected in one
trial yields one row per member).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.fuse.ids import FuseId
from repro.net.address import NodeId


class GroupStatus(str, enum.Enum):
    """Lifecycle of one FUSE group as the ledger sees it."""

    CREATING = "creating"
    LIVE = "live"
    NOTIFIED = "notified"
    FAILED_CREATE = "failed_create"


class NotificationReason(str, enum.Enum):
    """Typed cause of a hard notification (§6.4's notification sources)."""

    SIGNALLED = "signalled"  # the application called SignalFailure (§3.2)
    CRASH = "crash"  # detection, and a group member is crashed
    DISCONNECT = "disconnect"  # detection, and a group member is unplugged
    LINK_TIMEOUT = "link_timeout"  # a liveness-checking link fell silent (§6.3)
    CREATE_FAILED = "create_failed"  # blocking create could not reach a member (§6.2)
    REPAIR_FAILED = "repair_failed"  # repair gave up or found no state (§6.5)
    RECONCILE = "reconcile"  # id-list reconciliation disagreed (§6.3)
    GRAY_FAIL = "gray_fail"  # detection, and a group member is gray-failed
    FALSE_POSITIVE = "false_positive"  # detection with no fault in the world
    UNKNOWN = "unknown"


#: Detection-driven reasons the ledger refines against live fault state.
_REFINABLE = frozenset(
    {
        NotificationReason.LINK_TIMEOUT,
        NotificationReason.REPAIR_FAILED,
        NotificationReason.RECONCILE,
        NotificationReason.UNKNOWN,
    }
)


def base_reason(raw: str) -> NotificationReason:
    """Map a protocol cause string to its typed reason.

    Covers both the overlay implementation's strings
    (:mod:`repro.fuse.service`) and the §5 alternative topologies'
    (``silent:…``, ``server-…``).  The no-repair ablation prefixes causes
    with ``no-repair:``; classification looks through the prefix.
    """
    if raw.startswith("no-repair:"):
        raw = raw[len("no-repair:") :]
    if raw == "signaled":
        return NotificationReason.SIGNALLED
    if raw.startswith("create-failed"):
        return NotificationReason.CREATE_FAILED
    if raw in ("link-timeout", "no-checking-installed", "soft-notification"):
        return NotificationReason.LINK_TIMEOUT
    if raw.startswith("overlay-") or raw.startswith("silent:"):
        return NotificationReason.LINK_TIMEOUT
    if raw == "reconcile-disagreement":
        return NotificationReason.RECONCILE
    if (
        raw in ("member-repair-timeout", "group-gone", "stable-storage-recovery")
        or raw.startswith("repair-")
        or raw.startswith("server-")
        or raw.startswith("dropped-by-")
        or (raw.startswith("node-") and raw.endswith("-silent"))
    ):
        return NotificationReason.REPAIR_FAILED
    return NotificationReason.UNKNOWN


class CreateRecord(NamedTuple):
    """One CreateGroup attempt (ledger row)."""

    when: float
    fuse_id: FuseId
    root: NodeId
    members: Tuple[NodeId, ...]  # includes the root
    phase: str


class NoteRecord(NamedTuple):
    """One delivered notification (ledger row): who, when, why, where."""

    when: float
    fuse_id: FuseId
    node: NodeId
    role: str  # "root" | "member" | "delegate"
    reason: "NotificationReason"
    raw: str  # the protocol's cause string, verbatim
    phase: str


class FuseGroup:
    """Application-facing handle for one FUSE group.

    Returned by ``FuseService.create_group`` (and the §5 alternative
    topologies, and ``FuseWorld.create_group``).  ``owner`` is the
    creating service — ``signal()`` forwards to its ``signal_failure``.
    """

    __slots__ = (
        "owner",
        "fuse_id",
        "root",
        "members",
        "_ledger",
        "_live_cbs",
        "_notified_cbs",
        "_member_cbs",
        "_live_fired",
        "_notified_fired",
        "_notified_reason",
    )

    def __init__(
        self,
        owner,
        ledger: "GroupLedger",
        fuse_id: FuseId,
        root: NodeId,
        members: Sequence[NodeId],
    ) -> None:
        self.owner = owner
        self.fuse_id = fuse_id
        self.root = root
        self.members: Tuple[NodeId, ...] = tuple(members)
        self._ledger = ledger
        self._live_cbs: List[Callable[["FuseGroup"], None]] = []
        self._notified_cbs: List[Callable[["FuseGroup", NotificationReason], None]] = []
        self._member_cbs: List[
            Callable[["FuseGroup", NodeId, NotificationReason], None]
        ] = []
        self._live_fired = False
        self._notified_fired = False
        self._notified_reason: Optional[NotificationReason] = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def status(self) -> GroupStatus:
        return self._ledger.status_of(self.fuse_id)

    @property
    def ledger(self) -> "GroupLedger":
        return self._ledger

    @property
    def create_failure_reason(self) -> Optional[str]:
        """The raw cause string when creation failed, else ``None``."""
        return self._ledger.create_failure_reason(self.fuse_id)

    def notified_members(self) -> Dict[NodeId, float]:
        """member -> virtual ms of that member's (first) notification."""
        return dict(self._ledger.notification_times(self.fuse_id))

    # ------------------------------------------------------------------
    # Subscriptions (synchronous dispatch; late subscribers catch up)
    # ------------------------------------------------------------------
    def on_live(self, cb: Callable[["FuseGroup"], None]) -> "FuseGroup":
        """``cb(group)`` once creation completes on every member (§3.2)."""
        if self._live_fired:
            cb(self)
        else:
            self._live_cbs.append(cb)
        return self

    def on_notified(
        self, cb: Callable[["FuseGroup", NotificationReason], None]
    ) -> "FuseGroup":
        """``cb(group, reason)`` once, when the group transitions to
        ``notified`` (first member-level notification anywhere) or to
        ``failed_create``."""
        if self._notified_fired:
            cb(self, self._notified_reason or NotificationReason.UNKNOWN)
        else:
            self._notified_cbs.append(cb)
        return self

    def on_member_notified(
        self, cb: Callable[["FuseGroup", NodeId, NotificationReason], None]
    ) -> "FuseGroup":
        """``cb(group, member, reason)`` for every member's first
        notification (the one-way-agreement fan-out, §3).  Past member
        notifications are replayed immediately on subscription."""
        for rec in self._ledger.member_notes(self.fuse_id):
            cb(self, rec.node, rec.reason)
        self._member_cbs.append(cb)
        return self

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def signal(self) -> None:
        """SignalFailure through the creating service (§3.2)."""
        self.owner.signal_failure(self.fuse_id)

    # ------------------------------------------------------------------
    # Ledger-driven dispatch (internal)
    # ------------------------------------------------------------------
    def _fire_live(self) -> None:
        if self._live_fired:
            return
        self._live_fired = True
        cbs, self._live_cbs = self._live_cbs, []
        for cb in cbs:
            cb(self)

    def _fire_notified(self, reason: NotificationReason) -> None:
        if self._notified_fired:
            return
        self._notified_fired = True
        self._notified_reason = reason
        cbs, self._notified_cbs = self._notified_cbs, []
        for cb in cbs:
            cb(self, reason)

    def _fire_member(self, node: NodeId, reason: NotificationReason) -> None:
        for cb in list(self._member_cbs):
            cb(self, node, reason)

    def __repr__(self) -> str:
        return (
            f"FuseGroup({self.fuse_id}, root={self.root}, "
            f"members={list(self.members)}, status={self.status.value})"
        )


class GroupLedger:
    """World-level append-only record of group lifecycle events.

    One instance per :class:`~repro.world.FuseWorld` (shared by every
    ``FuseService``); standalone services create a private one.  Rows are
    cheap named tuples; recording never touches the event queue or any
    RNG stream, so the ledger is observationally free.
    """

    __slots__ = (
        "sim",
        "faults",
        "creates",
        "notes",
        "duplicates",
        "_members",
        "_outcome",
        "_first",
        "_times",
        "_member_notes",
        "_notified_groups",
        "_handles",
        "_phase",
    )

    def __init__(self, sim, faults=None) -> None:
        self.sim = sim
        #: optional :class:`repro.net.faults.FaultInjector` used to refine
        #: detection-driven reasons into crash/disconnect/false_positive.
        self.faults = faults
        self.creates: List[CreateRecord] = []
        self.notes: List[NoteRecord] = []
        #: suppressed second-and-later reports per (group, member) — the
        #: double-count guard; agreement checks assert this stays empty.
        self.duplicates: List[NoteRecord] = []
        self._members: Dict[FuseId, Tuple[NodeId, ...]] = {}
        self._outcome: Dict[FuseId, Tuple[str, float, str]] = {}
        self._first: Dict[Tuple[FuseId, NodeId], NoteRecord] = {}
        self._times: Dict[FuseId, Dict[NodeId, float]] = {}
        self._member_notes: Dict[FuseId, List[NoteRecord]] = {}
        self._notified_groups: Set[FuseId] = set()
        self._handles: Dict[FuseId, FuseGroup] = {}
        self._phase = ""

    # ------------------------------------------------------------------
    # Phase labelling (scenario integration)
    # ------------------------------------------------------------------
    @property
    def phase(self) -> str:
        return self._phase

    def set_phase(self, name: str) -> None:
        """Label subsequent rows with a scenario phase name."""
        self._phase = name

    # ------------------------------------------------------------------
    # Recording (called by the FUSE implementations)
    # ------------------------------------------------------------------
    def record_create(
        self, fuse_id: FuseId, root: NodeId, members: Sequence[NodeId]
    ) -> None:
        """A CreateGroup attempt started (root + full membership)."""
        everyone = tuple(members)
        self.creates.append(
            CreateRecord(self.sim.now, fuse_id, root, everyone, self._phase)
        )
        self._members[fuse_id] = everyone

    def attach_handle(self, handle: FuseGroup) -> None:
        self._handles[handle.fuse_id] = handle

    def handle(self, fuse_id: FuseId) -> Optional[FuseGroup]:
        """The creator's handle for ``fuse_id`` (None if unknown)."""
        return self._handles.get(fuse_id)

    def group_live(self, fuse_id: FuseId) -> None:
        """Creation completed on every member.  First outcome wins."""
        if fuse_id in self._outcome:
            return
        self._outcome[fuse_id] = ("live", self.sim.now, "ok")
        handle = self._handles.get(fuse_id)
        if handle is not None:
            handle._fire_live()

    def group_create_failed(self, fuse_id: FuseId, reason: str) -> None:
        """Blocking create gave up.  First outcome wins (§6.2)."""
        if fuse_id in self._outcome:
            return
        self._outcome[fuse_id] = ("failed_create", self.sim.now, reason)
        handle = self._handles.get(fuse_id)
        if handle is not None:
            handle._fire_notified(NotificationReason.CREATE_FAILED)

    def notified(self, fuse_id: FuseId, node: NodeId, role: str, raw: str) -> None:
        """A node's FUSE instance delivered a hard notification.

        The first report per (group, member) is the ledger row — the
        *first-cause* record; later reports for the same pair land in
        :attr:`duplicates`.  ``role`` is "root"/"member"/"delegate";
        delegate rows are kept (experiments count them) but do not drive
        handle callbacks or group status.
        """
        record = NoteRecord(
            self.sim.now, fuse_id, node, role, self._classify(fuse_id, raw), raw, self._phase
        )
        key = (fuse_id, node)
        if key in self._first:
            self.duplicates.append(record)
            return
        self._first[key] = record
        self.notes.append(record)
        if role != "delegate":
            self._times.setdefault(fuse_id, {})[node] = record.when
            self._member_notes.setdefault(fuse_id, []).append(record)
            newly_notified = fuse_id not in self._notified_groups
            self._notified_groups.add(fuse_id)
            handle = self._handles.get(fuse_id)
            if handle is not None:
                handle._fire_member(node, record.reason)
                if newly_notified:
                    handle._fire_notified(record.reason)

    def _classify(self, fuse_id: FuseId, raw: str) -> NotificationReason:
        reason = base_reason(raw)
        faults = self.faults
        if faults is not None and reason in _REFINABLE:
            members = self._members.get(fuse_id, ())
            if any(faults.is_crashed(m) for m in members):
                return NotificationReason.CRASH
            if any(faults.is_disconnected(m) for m in members):
                return NotificationReason.DISCONNECT
            if any(faults.is_gray_failed(m) for m in members):
                # The member answers pings but blackholes application
                # traffic: detections here come from rpc/repair timeouts,
                # never from the liveness plane.  Checked after crash and
                # disconnect (those dominate when combined) and before
                # the false-positive fallback — a gray member makes the
                # detection real, not a loss artifact.
                return NotificationReason.GRAY_FAIL
            if not faults.has_link_faults():
                return NotificationReason.FALSE_POSITIVE
        return reason

    # ------------------------------------------------------------------
    # Queries (the accounting surface)
    # ------------------------------------------------------------------
    def status_of(self, fuse_id: FuseId) -> GroupStatus:
        outcome = self._outcome.get(fuse_id)
        if outcome is not None and outcome[0] == "failed_create":
            return GroupStatus.FAILED_CREATE
        if fuse_id in self._notified_groups:
            return GroupStatus.NOTIFIED
        if outcome is not None:
            return GroupStatus.LIVE
        return GroupStatus.CREATING

    def create_failure_reason(self, fuse_id: FuseId) -> Optional[str]:
        outcome = self._outcome.get(fuse_id)
        if outcome is not None and outcome[0] == "failed_create":
            return outcome[2]
        return None

    def members_of(self, fuse_id: FuseId) -> Tuple[NodeId, ...]:
        """Full membership (root included) as recorded at creation."""
        return self._members.get(fuse_id, ())

    def notification_times(self, fuse_id: FuseId) -> Dict[NodeId, float]:
        """member -> first notification time (ms), insertion-ordered
        chronologically.  A live view that updates as notifications land
        (cheap to poll in a drive-until-notified loop) — treat as
        read-only."""
        return self._times.setdefault(fuse_id, {})

    def member_notes(self, fuse_id: FuseId) -> List[NoteRecord]:
        """First-cause member/root-role rows for one group, in time order."""
        return self._member_notes.get(fuse_id, [])

    def first_note(self, fuse_id: FuseId, node: NodeId) -> Optional[NoteRecord]:
        return self._first.get((fuse_id, node))

    def was_notified(self, fuse_id: FuseId, node: Optional[NodeId] = None) -> bool:
        """Did ``node`` (any role) — or, with ``node=None``, *any* node —
        record a notification for this group?"""
        if node is None:
            return any(key[0] == fuse_id for key in self._first)
        return (fuse_id, node) in self._first

    def notified_group_ids(self) -> Set[FuseId]:
        """Groups with at least one row at any node, delegates included."""
        return {key[0] for key in self._first}

    def reason_counts(self) -> Dict[str, int]:
        """Typed reason -> member/root-role row count (Fig 12 flavour)."""
        counts: Dict[str, int] = {}
        for rows in self._member_notes.values():
            for rec in rows:
                counts[rec.reason.value] = counts.get(rec.reason.value, 0) + 1
        return counts

    def __repr__(self) -> str:
        return (
            f"GroupLedger(creates={len(self.creates)}, notes={len(self.notes)}, "
            f"duplicates={len(self.duplicates)})"
        )


def ledger_completion(
    ledger: GroupLedger, fuse_id: FuseId
) -> Callable[[Optional[FuseId], str], None]:
    """The single create-completion callback every FUSE implementation
    routes through: records the outcome on the ledger, which dispatches
    the handle."""

    def done(fid: Optional[FuseId], status: str) -> None:
        if fid is not None and status == "ok":
            ledger.group_live(fuse_id)
        else:
            ledger.group_create_failed(fuse_id, status)

    return done
