"""sessioncheck's faults gate: the figure walk survives injected faults.

Marked ``tier2_faults`` with the rest of the robustness suite; the
standard schedule is part of the repo's contract, so these tests pin
both its outcome (every rule fires, help degrades gracefully) and the
defect it exists to catch.
"""

import pytest

from repro.core.help import Help
from repro.tools import sessioncheck

pytestmark = pytest.mark.tier2_faults


class TestSchedule:
    def test_standard_schedule_targets_real_session_ops(self):
        plan = sessioncheck.standard_schedule()
        ops = [fault.op for fault in plan.faults]
        assert sorted(ops) == ["close", "open", "read", "write"]
        assert all(fault.at > 0 for fault in plan.faults)


class TestRun:
    def test_clean_and_faulted_passes_hold(self):
        assert sessioncheck.check_faults() == []

    def test_replay_completes_without_faults(self):
        from repro.tools.install import build_system
        system = build_system(width=120, height=40)
        skipped = []
        sessioncheck.walk(system, sessioncheck.STACK, skipped)
        assert skipped == []
        assert system.help.window_by_name("/usr/rob/src/help/") is not None


class TestCli:
    def test_main_ok(self, capsys):
        assert sessioncheck.main(["--faults"]) == 0
        assert "faults: no problems" in capsys.readouterr().out

    def test_main_usage_error(self, capsys):
        assert sessioncheck.main(["--bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_lost_diagnostic_turns_the_gate_red(self, capsys, monkeypatch):
        # a fault whose diagnostic never reaches the Errors window
        monkeypatch.setattr(Help, "post_error", lambda self, text: None)
        assert sessioncheck.main(["--faults"]) == 1
        assert ("faults: no diagnostics in the Errors window"
                in capsys.readouterr().err)
