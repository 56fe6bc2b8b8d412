"""sessioncheck's kill-primary gate: a real SIGKILL, goldens survive."""

from __future__ import annotations

from repro.serve.replica import ReplicaStandby
from repro.tools import sessioncheck


def test_sigkilled_primary_promotes_to_goldens(capsys):
    """Two figures mid-stream, the primary process SIGKILLed, the
    promoted standby serves both screens byte-identical to the pinned
    goldens with zero acknowledged writes lost."""
    assert sessioncheck.main(["--kill-primary", "--figures", "2"]) == 0
    assert "kill-primary: no problems" in capsys.readouterr().out


def test_standby_that_drops_an_acked_write_is_red(capsys, monkeypatch):
    real = ReplicaStandby._apply_ship

    def forgetful(self, msg):  # acks every append, stores none
        return msg.seq if msg.verb == "append" else real(self, msg)

    monkeypatch.setattr(ReplicaStandby, "_apply_ship", forgetful)
    assert sessioncheck.main(["--kill-primary", "--figures", "1"]) == 1
    assert ("kill-primary: fig05_headers: acked-write loss"
            in capsys.readouterr().err)


def test_split_points_leave_every_figure_mid_stream():
    lines = {name: script["input"].splitlines(keepends=True)
             for name, script in sessioncheck.record_figures().items()}
    points = sessioncheck.split_points(7, lines)
    for name, todo in lines.items():
        assert 1 <= points[name] <= len(todo)
        if len(todo) > 1:
            assert points[name] < len(todo)  # something left to resume

    # seeded: the same seed picks the same kill points
    assert points == sessioncheck.split_points(7, lines)


def test_main_usage_errors(capsys):
    assert sessioncheck.main(["--bogus"]) == 2
    assert sessioncheck.main(["--figures", "99"]) == 2
    assert sessioncheck.main(["--kill-primary", "--pipe"]) == 2
    err = capsys.readouterr().err
    assert "usage" in err and "--pipe applies to none" in err
