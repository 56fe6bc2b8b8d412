"""sessioncheck's replay and crash gates: figures replay byte-identical,
a torn journal recovers to the pre-crash screen."""

import pytest

from repro.core.render import render_screen
from repro.journal.recorder import divergence
from repro.tools import sessioncheck
from repro.tools.sessioncheck import fig05_headers


class TestRecordReplay:
    def test_fig05_round_trips(self):
        recorded, text = sessioncheck.record_figure(fig05_headers)
        replayed, shadow, scan = sessioncheck.replay_journal(text)
        assert render_screen(replayed.help) == render_screen(recorded.help)
        assert divergence(scan.records, shadow.records) is None

    def test_intermediate_screens_always_traced(self):
        _, text = sessioncheck.record_figure(fig05_headers)
        assert "+screen" in text

    def test_torn_journal_is_refused(self):
        _, text = sessioncheck.record_figure(fig05_headers)
        with pytest.raises(ValueError, match="torn"):
            sessioncheck.replay_journal(text[:-4])


class TestCheckFigure:
    def test_clean_figure_reports_nothing(self):
        assert sessioncheck.check_replay("fig05_headers", fig05_headers) == []

    def test_missing_golden_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sessioncheck, "ARTIFACTS", tmp_path)
        problems = sessioncheck.check_replay("fig99_nope", fig05_headers)
        assert problems and "no golden" in problems[0]

    def test_divergence_saves_the_journal(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sessioncheck, "ARTIFACTS", tmp_path)

        def wanders(system):
            fig05_headers(system)
            system.help.open_path("/usr/rob/lib/profile")  # not in golden

        problems = sessioncheck.check_replay("fig05_headers", wanders)
        assert any(p.startswith("replay/fig05_headers: screen differs")
                   for p in problems)
        assert (tmp_path / "journals" / "fig05_headers.journal").exists()


class TestCheckRecovery:
    def test_crash_recovery_round_trips(self):
        assert sessioncheck.check_crash() == []

    def test_recovery_that_misses_the_torn_write_is_red(
            self, capsys, monkeypatch, tmp_path):
        real = sessioncheck.recover

        def blind(help_app, text):  # never sees the torn tail
            return real(help_app, text[:text.rfind("\n") + 1])

        monkeypatch.setattr(sessioncheck, "recover", blind)
        monkeypatch.setattr(sessioncheck, "ARTIFACTS", tmp_path)
        assert sessioncheck.main(["--crash"]) == 1
        assert ("crash: the torn tail went undetected"
                in capsys.readouterr().err)


class TestCli:
    def test_usage_error(self, capsys):
        assert sessioncheck.main(["--crash", "--figures", "2"]) == 2
        err = capsys.readouterr().err
        assert "--figures applies to none of the chosen gates" in err
        assert "usage" in err
