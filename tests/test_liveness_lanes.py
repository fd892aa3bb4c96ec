"""Liveness-lane proofs: byte identity, ejection, retransmission.

The lane plane (``repro.sim.lanes``) is a pure performance layer: with
lanes on or off, every observable — dispatch trace, counters,
notification times, scenario measurements — must be byte-identical.
These tests pin that contract:

* the golden dispatch trace matches the committed fixture with lanes
  *off* (the default-on path is covered by
  ``tests/test_hotpath_determinism.py``, against the same fixture, so
  the two modes are identical by transitivity);
* every builtin scenario reproduces its committed ``[expect]`` fixture
  with lanes off (lanes-on is covered by ``tests/test_api_identity.py``);
* heterogeneity ejects lanes before the next lane step: a link fault, a
  loss change (``Topology.generation``), and a crash mid-window each
  return their nodes to the scalar path;
* a dropped ping or ack is retransmitted inside the lane, and the full
  dispatch trace under loss — retries, connection breaks, and an eject
  while a retry is pending — matches the lanes-off run;
* the compressed flash-crowd bootstrap joins *every* node (the
  15,996/16,000 gap regression, fixed by the first-sweep floor).
"""

import hashlib
import json
import pathlib

import pytest

from repro.scenarios import BUILTIN
from repro.sim.lanes import _ATTEMPT, LanePlane, resolve_lanes_mode
from repro.world import FuseWorld

from golden_scenario import run_golden_scenario
from tests.make_api_fixtures import OUT_DIR, scenario_json

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_dispatch.json"

GOLDEN_KEYS = (
    "trace_records",
    "trace_sha256",
    "events_dispatched",
    "final_time_ms",
    "counters",
    "group_status",
    "notifications",
)


def _golden_fixture():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenTraceIdentity:
    """Lanes off reproduces the same golden dispatch trace as the
    committed (lanes-on-verified) fixture."""

    @pytest.mark.parametrize("mode", ["off"])
    def test_golden_trace_mode(self, mode, monkeypatch):
        monkeypatch.setenv("REPRO_LIVENESS_LANES", mode)
        want = _golden_fixture()
        got = run_golden_scenario(seed=want["seed"])
        for key in GOLDEN_KEYS:
            assert got[key] == want[key], f"{key} diverged with lanes={mode}"


class TestScenarioIdentityLanesOff:
    """All builtin scenarios match their committed fixtures with lanes
    off (test_api_identity covers the default lanes-on path)."""

    @pytest.mark.parametrize("name", sorted(BUILTIN))
    def test_builtin_scenario_lanes_off(self, name, monkeypatch):
        monkeypatch.setenv("REPRO_LIVENESS_LANES", "off")
        fixture = (OUT_DIR / f"scenario_{name}.json").read_text()
        assert scenario_json(name) == fixture


class TestFallbackParity:
    """Lane modes are on and off; off builds no plane at all."""

    def test_mode_resolution(self, monkeypatch):
        assert resolve_lanes_mode(True) == "on"
        assert resolve_lanes_mode(False) == "off"
        monkeypatch.setenv("REPRO_LIVENESS_LANES", "0")
        assert resolve_lanes_mode() == "off"
        monkeypatch.delenv("REPRO_LIVENESS_LANES")
        assert resolve_lanes_mode() == "on"
        for bogus in ("bogus", "py"):
            with pytest.raises(ValueError):
                resolve_lanes_mode(bogus)

    def test_lanes_off_world_has_no_plane(self):
        world = FuseWorld(n_nodes=12, seed=3, liveness_lanes="off")
        assert world.sim.lane_plane is None
        assert world.overlay.lane_plane is None


def _laned_world(n=20, seed=5):
    """A settled world where every node has been absorbed into a lane."""
    world = FuseWorld(n_nodes=n, seed=seed, liveness_lanes=True)
    world.bootstrap()
    # Every first sweep fires within one ping period; the sweep absorbs.
    world.run_for_minutes(1.5)
    plane = world.sim.lane_plane
    assert plane is not None
    assert plane.lane_count == n, "every idle node should be laned"
    return world, plane


class TestLaneEjection:
    def test_link_fault_flushes_before_next_lane_step(self):
        world, plane = _laned_world()
        flushes = plane.flushes
        a, b = world.node_ids[0], world.node_ids[1]
        world.net.faults.block_pair(a, b)
        # Nothing is ejected until the next micro-event would dispatch...
        assert plane.lane_count == 20
        # ...but the advance window containing the next lane step flushes
        # before dispatching a single micro-event with the stale fault
        # snapshot (invalidation is checked at every advance() entry).
        world.run_for_minutes(1.0)
        assert plane.flushes == flushes + 1
        # Nodes re-form lanes at their next sweep with fresh snapshots.
        world.run_for_minutes(1.5)
        assert plane.lane_count > 0

    def test_loss_change_flushes_before_next_lane_step(self):
        world, plane = _laned_world()
        flushes = plane.flushes
        gen_before = world.topology.generation
        world.topology.set_uniform_loss(0.05)
        assert world.topology.generation != gen_before
        world.run_for_minutes(1.0)
        assert plane.flushes == flushes + 1

    def test_crash_ejects_synchronously(self):
        world, plane = _laned_world()
        victim = world.node_ids[4]
        node = world.overlay_node(victim)
        assert plane.is_laned(node)
        ejects = plane.ejects
        world.crash(victim)
        # The crash listener tears the node down, which must eject it
        # from the plane immediately — not at the next advance window.
        assert not plane.is_laned(node)
        assert plane.ejects > ejects
        # The crashed node's timers were materialized and then cancelled
        # by the teardown, exactly like the scalar path.
        assert node._sweep_timer is None or not node._sweep_timer.active
        assert not node._outstanding_pings

    def test_table_change_ejects(self):
        world, plane = _laned_world()
        # A leave triggers table pushes to the departed node's neighbors;
        # each push ejects that node from its lane.
        ejects = plane.ejects
        world.overlay_node(world.node_ids[7]).leave()
        assert plane.ejects > ejects

    def test_ejected_state_is_scalar_equivalent(self):
        """After a flush, materialized timers keep working: suspicion of
        a crashed neighbor still fires through the scalar path."""
        world, plane = _laned_world()
        victim = world.node_ids[2]
        world.crash(victim)
        world.run_for_minutes(3.0)
        # Some neighbor must have suspected the victim and reported it.
        assert world.overlay.member_count < 20


class TestRetransmissionInLanes:
    def test_drop_does_not_eject(self):
        """Under uniform loss, dropped pings and acks are retransmitted as
        micro-events: retransmissions happen and no node leaves its lane."""
        world, plane = _laned_world()
        world.topology.set_uniform_loss(0.01)
        # The loss change flushes every lane; nodes re-absorb at their
        # next sweep, within one ping period.
        world.run_for_minutes(1.5)
        assert plane.lane_count == 20
        counters = world.sim.metrics.counters()
        messages = counters["net.messages"].value
        transmissions = counters["net.transmissions"].value
        ejects = plane.ejects
        world.run_for_minutes(3.0)
        sent = counters["net.messages"].value - messages
        tried = counters["net.transmissions"].value - transmissions
        assert tried > sent, "the loss should have forced retransmissions"
        assert plane.ejects == ejects
        assert plane.lane_count == 20


def _lossy_trace(lanes, loss, crash=None):
    """Full dispatch-trace digest of a 40-node world with 8 groups that
    runs 6 minutes under uniform per-link loss.

    ``crash="retry"`` (lanes on) steps the world in 50 ms slices until a
    laned node has a ping waiting on a retransmission, then crashes that
    node; the result's ``crashed`` is ``(when, node_id)``.  Passing that
    pair as ``crash`` replays the same crash, with the same stepping.
    """
    n = 40
    world = FuseWorld(n_nodes=n, seed=3, trace=True, liveness_lanes=lanes)
    world.bootstrap()
    ids = world.node_ids
    for i in range(8):
        root = ids[(i * n) // 8]
        members = [ids[((i * n) // 8 + k * 7 + 1) % n] for k in range(3)]
        world.create_group_sync(root, members)
    world.topology.set_uniform_loss(loss)
    end = world.now + 6 * 60_000.0
    crashed = None
    if crash is not None:
        plane = world.sim.lane_plane
        while crashed is None and world.now < end:
            world.run_for(50.0)
            if crash != "retry":
                if world.now >= crash[0]:
                    crashed = crash
                continue
            for entry in plane._entries.values():
                if any(f.kind == _ATTEMPT and f.tries
                       for f in entry.outstanding.values()):
                    crashed = (world.now, entry.src)
                    break
        assert crashed is not None, "no ping ever waited on a retry"
        world.crash(crashed[1])
    world.run_for(end - world.now)
    digest = hashlib.sha256()
    for rec in world.sim.trace:
        digest.update(f"{rec.time!r}|{rec.category}|{rec.message}\n".encode())
    labels = [rec.message for rec in world.sim.trace]
    return {
        "trace_sha256": digest.hexdigest(),
        "events_dispatched": world.sim.events_dispatched,
        "rtx": sum(label.startswith("rtx:") for label in labels),
        "breaks": world.sim.metrics.counters()["net.connection_breaks"].value,
        "crashed": crashed,
    }


class TestTraceIdentityUnderLoss:
    """The lane's retransmission mirrors ``_SendAttemptState`` operation
    for operation: lanes on and off dispatch the same trace under loss,
    including retries (``rtx:``) and broken connections (``brk:``)."""

    @pytest.mark.parametrize("loss", [0.004, 0.05, 0.3])
    def test_lossy_trace_lanes_on_off(self, loss, monkeypatch):
        exhausted = []
        for name, tries in (("_ping_lost", "tries"), ("_ack_lost", "ack_tries")):
            lost = getattr(LanePlane, name)

            def spy(self, f, now, lost=lost, tries=tries):
                if getattr(f, tries) == self._max_retries:
                    exhausted.append(now)
                lost(self, f, now)

            monkeypatch.setattr(LanePlane, name, spy)
        on = _lossy_trace(True, loss)
        off = _lossy_trace(False, loss)
        assert on == off
        assert on["rtx"] > 0
        if loss >= 0.05:
            # Retries ran out inside a lane: the break policy ran on the
            # rebuilt scalar state and the node ejected.
            assert exhausted and on["breaks"] > 0

    def test_eject_while_retry_pending(self):
        on = _lossy_trace(True, 0.05, crash="retry")
        off = _lossy_trace(False, 0.05, crash=on["crashed"])
        assert on == off


class TestCompressedBootstrapJoinsEveryNode:
    """Satellite regression for the 16k flash-crowd gap: in the
    compressed join regime the first-sweep floor holds liveness probes
    until the storm ends, so no joiner is suspected mid-join and
    ``overlay_members == n_nodes``."""

    def test_compressed_bootstrap_full_membership(self):
        # 500 nodes is past CLASSIC_BOOTSTRAP_MAX_NODES, so bootstrap
        # uses the compressed schedule (60 ms spacing).
        world = FuseWorld(n_nodes=500, seed=7)
        world.bootstrap()
        assert world.overlay.member_count == 500
        spacing = world.default_join_spacing_ms()
        assert spacing < 200.0
        assert world.overlay.first_sweep_floor_ms == 500 * spacing

    def test_classic_bootstrap_keeps_floor_at_zero(self):
        world = FuseWorld(n_nodes=20, seed=7)
        world.bootstrap()
        assert world.overlay.first_sweep_floor_ms == 0.0
        assert world.overlay.member_count == 20


class TestLazyTimerMovesInLaneSteps:
    def test_stale_head_shed_inside_advance_repushes_moved_timer(self):
        """A lane listener lazily moves the real heap's head timer and then
        pushes a later real event: the lane step's own shed loop meets the
        stale entry first and must put the moved timer back, not drop it."""
        world, plane = _laned_world()
        sim = world.sim
        fired = []
        handle = sim.call_after(30_000.0, lambda: fired.append(sim.now))
        assert sim.queue.snapshot()[0][1] == handle._seq, "timer must head the heap"
        target = handle.when + 5_000.0
        moved_laned = []

        def listener(nbr, payload, is_ack):
            if not moved_laned and sim.now > handle.when - 20_000.0:
                moved_laned.append(plane.lane_count == 20)
                assert handle.reschedule_at(target)
                sim.schedule_at(target + 1_000.0, lambda: None)

        for node in world.overlay_nodes.values():
            node.register_ping_listener(listener)
        world.run_for(60_000.0)
        assert moved_laned == [True]
        assert fired == [target]
