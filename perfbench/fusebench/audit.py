"""The correctness audit: what FUSE owed and what the ledger shows it did.

FUSE's guarantee (§3) is one-way agreement: once a group fails, every
live member hears about it.  The audit reads a world's
:class:`~repro.fuse.api.GroupLedger` against the failures the benchmark
itself injected and returns the counts the correctness gate and the
end-to-end metrics are built from.  It takes plain mappings and the
ledger, never the world, so it can be unit-tested on hand-built ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Mapping, Tuple

from repro.fuse.api import GroupLedger, GroupStatus

#: group id -> (virtual ms the group failed, nodes owed no notification)
Failures = Mapping[str, Tuple[float, AbstractSet[int]]]


@dataclass
class Audit:
    creates: int = 0
    create_failures: int = 0
    owed: int = 0
    lost: int = 0
    spurious_groups: int = 0
    #: virtual ms from each group's failure to each owed member's
    #: notification, for notifications at or after the failure
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.creates + self.owed

    @property
    def failed(self) -> int:
        return self.create_failures + self.lost


def audit(ledger: GroupLedger, failures: Failures) -> Audit:
    """Audit every group the ledger saw created.

    A group with an entry in ``failures`` owes a notification to each
    member outside its exempt set (crashed nodes, the signaller); one
    that never arrived is *lost*.  A group notified anywhere with no
    failure, or before its failure, is *spurious*; a notification before
    the failure settles what the member was owed but is not timed.  A
    create that never went live is a create failure and owes nothing.
    """
    result = Audit()
    for record in ledger.creates:
        gid = record.fuse_id
        result.creates += 1
        if ledger.status_of(gid) in (GroupStatus.FAILED_CREATE, GroupStatus.CREATING):
            result.create_failures += 1
            continue
        times: Dict[int, float] = ledger.notification_times(gid)
        failure = failures.get(gid)
        if failure is None:
            if times:
                result.spurious_groups += 1
            continue
        failed_at, exempt = failure
        if times and min(times.values()) < failed_at:
            result.spurious_groups += 1
        for member in record.members:
            if member in exempt:
                continue
            result.owed += 1
            when = times.get(member)
            if when is None:
                result.lost += 1
            elif when >= failed_at:
                result.latencies_ms.append(when - failed_at)
    return result
