"""Sim-vs-wire parity on a miniature scenario, tier-1 fast.

The CLI harness (``python -m repro.scenarios.parity``) runs the built-in
scenarios; those take several wall seconds per live leg, so CI runs them
in a dedicated job.  This test keeps the parity *machinery* honest in
the unit suite with a purpose-built small scenario: two groups, one
crash and one disconnect, compared with the exact same helpers the CLI
uses (aggregates, group identity, verdicts, latency band).
"""

import pytest

from repro.scenarios.parity import (
    EXACT_KEYS,
    LINK_LEVEL_REASONS,
    default_tolerance_ms,
    run_parity,
)
from repro.scenarios.timeline import Phase, Scenario
from repro.scenarios.tracks import CrashRecoverWave, DisconnectWave, GroupWorkload

# 1 virtual minute ≈ 0.3 wall seconds on the live leg.  Smaller scales
# shrink the protocol's wall-time deadlines (a 200 ms virtual
# retransmission timer is 0.4 ms of wall time at 0.002) below what CPU
# contention on a shared host can stall the loop for.
SCALE = 0.005

pytestmark = pytest.mark.usefixtures("settled_heap")


def mini_scenario() -> Scenario:
    """Two 3-member groups; one member crashes, one host unplugs.

    Three virtual minutes comfortably covers the paper's 20-80 s
    detection window, and both faults map to fault-attributing verdicts
    (CRASH / DISCONNECT) that parity compares member for member.
    """
    return Scenario(
        name="parity-mini",
        n_nodes=8,
        phases=(Phase("fault", minutes=3.0),),
        tracks=(
            GroupWorkload(n_groups=2, group_size=3),
            CrashRecoverWave(count=1, crash_phase="fault", recover_phase="__none__"),
            DisconnectWave(count=1, phase="fault"),
        ),
        seed=7,
        description="miniature sim-vs-wire parity check",
    )


class TestToleranceModel:
    def test_default_band_is_detection_window_plus_slack(self):
        from repro.overlay.skipnet.config import OverlayConfig

        assert default_tolerance_ms() == OverlayConfig().liveness_silence_ms + 10_000.0

    def test_link_level_class_excludes_fault_attributing(self):
        assert {"CRASH", "DISCONNECT", "GRAY_FAIL"}.isdisjoint(LINK_LEVEL_REASONS)
        assert "FALSE_POSITIVE" in LINK_LEVEL_REASONS

    def test_exact_keys_cover_agreement_counts(self):
        assert "notifications_expected" in EXACT_KEYS
        assert "notifications_delivered" in EXACT_KEYS


class TestMiniParity:
    def test_mini_scenario_reaches_parity(self):
        result = run_parity(mini_scenario(), time_scale=SCALE)
        assert result.ok, "\n".join(result.mismatches)
        assert result.scenario == "parity-mini"
        # Both faults were detected and compared member for member:
        # 2 surviving members per affected group at minimum.
        assert result.verdicts_compared >= 4
        assert result.max_latency_delta_ms <= result.tolerance_ms

    def test_unknown_builtin_name_raises(self):
        with pytest.raises(KeyError):
            run_parity("no-such-scenario")
