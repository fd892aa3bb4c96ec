"""Lane-mode identity on a 400-node crash workload.

The lane plane (``repro.sim.lanes``) must not change what a world does.
One fixed workload — eight groups spread over the id space, two crashes
mid-run, enough virtual time for detection and repair — runs serially
with liveness lanes off and on, and both must produce byte-identical
artifacts:

* the full :class:`~repro.fuse.api.GroupLedger` (creates, notes,
  duplicates, as tuples),
* every metrics counter, the total events dispatched and the final clock.

This complements ``tests/test_liveness_lanes.py`` (golden trace on a
small world, builtin scenarios with lanes off) with a larger world whose
crashes drive overlay liveness detection and ring repair while the lane
plane carries the healthy pings.
"""

import pytest

from repro.world import FuseWorld

MINUTE_MS = 60_000.0


def _artifacts(n_nodes: int, seed: int, lanes: str):
    world = FuseWorld(n_nodes=n_nodes, seed=seed, liveness_lanes=lanes)
    world.bootstrap()
    ids = world.node_ids
    n = len(ids)
    for i in range(8):
        root = ids[(i * n) // 8]
        members = [ids[((i * n) // 8 + k * 7 + 1) % n] for k in range(4)]
        world.create_group_sync(root, members)
    world.run_for(1.5 * MINUTE_MS)
    world.crash(ids[n // 3])
    world.crash(ids[(2 * n) // 3])
    world.run_for(2.0 * MINUTE_MS)
    return {
        "creates": tuple(world.ledger.creates),
        "notes": tuple(world.ledger.notes),
        "duplicates": tuple(world.ledger.duplicates),
        "counters": {
            name: c.value
            for name, c in sorted(world.sim.metrics.counters().items())
        },
        "events": world.sim.events_dispatched,
        "clock": world.sim.now,
    }


class TestIdentityMatrix400:
    """n=400 — the classic-bootstrap reference size."""

    SEED = 11
    N = 400

    @pytest.fixture(scope="class")
    def reference(self):
        return _artifacts(self.N, self.SEED, lanes="off")

    @pytest.mark.parametrize("lanes", ["on"])
    def test_serial_lanes_identical(self, reference, lanes):
        got = _artifacts(self.N, self.SEED, lanes=lanes)
        for key in reference:
            assert got[key] == reference[key], f"lanes={lanes}: {key} diverged"
