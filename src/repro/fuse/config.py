"""FUSE configuration.

Defaults mirror the paper's implementation constants where it states
them: a 5 second grace period for the install/ping race (§6.3), per-group
exponential repair backoff capped at 40 seconds (§6.5), a 1 minute member
repair timeout and 2 minute root repair timeout (§7.4).

The ablation switches at the bottom correspond to the design choices the
paper argues for; flipping them reproduces the alternatives it rejects
(paper §5/§5.1; ``repair_enabled`` is swept by the ``ablation-repair``
experiment in repro.experiments.ablation, ``blocking_create`` by
tests/test_fuse_create.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class FuseConfig:
    create_timeout_ms: float = 10_000.0
    """Group-creation attempt timeout: every member must reply within this
    window or creation fails (§6.2)."""

    install_timeout_ms: float = 30_000.0
    """Root's timer for receiving InstallChecking from every member; on
    expiry the root attempts a repair (§6.2)."""

    liveness_timeout_ms: Optional[float] = None
    """Per-(group, link) silence tolerance before the link is declared
    failed.  None derives ping period + ping timeout from the overlay
    (the paper's 20-80 s detection window)."""

    member_repair_timeout_ms: float = 60_000.0
    """How long a member waits to hear from the root after requesting a
    repair before it signals failure itself (§7.4: 1 minute)."""

    root_repair_timeout_ms: float = 120_000.0
    """How long the root waits for all repair replies before declaring the
    repair failed (§7.4: 2 minutes)."""

    repair_backoff_initial_ms: float = 2_500.0
    repair_backoff_cap_ms: float = 40_000.0
    """Per-group exponential backoff between repair attempts, capped at 40
    seconds (§6.5)."""

    grace_period_ms: float = 5_000.0
    """A node only removes checking state its neighbor disclaims if that
    state is older than this, resolving the InstallChecking/ping race
    (§6.3: 5 seconds)."""

    notification_size_bytes: int = 128

    # ------------------------------------------------------------------
    # Ablation switches (the paper's §5 design choices)
    # ------------------------------------------------------------------
    repair_enabled: bool = True
    """Paper choice: attempt repair on delegate/path failures instead of
    immediately signalling group failure (§6 intro).  False = signal a
    hard failure on any liveness-tree break."""

    blocking_create: bool = True
    """Paper choice: CreateGroup blocks until every member acknowledged
    (§3.2).  False = return the ID immediately and let liveness checking
    catch unreachable members."""

    stable_storage: bool = False
    """§3.6 alternative implementation: persist group membership to
    stable storage so a node recovering from a brief crash can assume its
    groups are still alive and re-install checking state, instead of
    forgetting them (which forces those groups to fail).  Nodes with and
    without stable storage co-exist without any semantic change — the
    active comparison of live FUSE IDs reconciles either way."""

    def __post_init__(self) -> None:
        if self.repair_backoff_initial_ms <= 0:
            raise ValueError("repair backoff must be positive")
        if self.repair_backoff_cap_ms < self.repair_backoff_initial_ms:
            raise ValueError("repair backoff cap below initial value")
        if self.grace_period_ms < 0:
            raise ValueError("grace period must be non-negative")

    def effective_liveness_timeout(self, overlay_silence_ms: float) -> float:
        if self.liveness_timeout_ms is not None:
            return self.liveness_timeout_ms
        return overlay_silence_ms
