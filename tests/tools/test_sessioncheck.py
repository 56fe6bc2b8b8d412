"""sessioncheck: the hosted gate, and its axes as a whole."""

from __future__ import annotations

import itertools

import pytest

from repro.journal.record import parse_line
from repro.journal.recorder import SessionRecorder
from repro.metrics.counter import MetricsRegistry
from repro.serve import host
from repro.tools import sessioncheck


@pytest.fixture(scope="module")
def scripts():
    return sessioncheck.record_figures()


def test_concurrent_sessions_match_goldens_over_pipes(scripts):
    """Two concurrent sessions, every figure, byte-identical, isolated."""
    assert sessioncheck.check_hosted(scripts, "pipe", sessions=2) == []


def test_concurrent_sessions_match_goldens_across_shards(scripts):
    """The same gate with attaches hashed over a 2-shard router: the
    sharding must be invisible — screens, journals, ledgers identical."""
    assert sessioncheck.check_hosted(scripts, "pipe", sessions=2,
                                     shards=2) == []


def test_budget_holds_on_shards_over_tcp(scripts):
    two = dict(itertools.islice(scripts.items(), 2))
    assert sessioncheck.check_hosted(two, "tcp", shards=2, budget=1) == []


def test_recorded_scripts_cover_every_figure(scripts):
    assert set(scripts) == {name for name, _, _ in sessioncheck.FIGURES}
    for script in scripts.values():
        assert script["input"]  # every figure drives at least one record
        assert script["screen"]


def test_ledger_parse_drops_unstable_entries():
    text = ("fs.read 7\nwire.bytes.in 123\nmux.inflight 1\n"
            "session.input.applied 4\n")
    assert sessioncheck._ledger_of(text) == {"fs.read": 7,
                                             "session.input.applied": 4}


def test_main_usage_error(capsys):
    assert sessioncheck.main(["--bogus"]) == 2
    assert "usage:" in capsys.readouterr().err


FLAGS = {"--pipe": None, "--tcp": None, "--figures": 2, "--sessions": 3,
         "--shards": 2, "--budget": 2, "--faults": None, "--crash": None,
         "--kill-primary": None}


@pytest.mark.parametrize("count", range(len(FLAGS) + 1))
def test_every_axis_combination_runs_or_names_its_conflict(count):
    """Each flag is either honoured by the jobs the plan runs, or the
    plan refuses the command line and names one of the flags given."""
    for combo in itertools.combinations(FLAGS, count):
        argv = [str(part) for flag in combo
                for part in (flag, FLAGS[flag]) if part is not None]
        try:
            jobs, figures = sessioncheck.plan(argv)
        except ValueError as exc:
            assert any(flag in str(exc) for flag in combo), (argv, exc)
            continue
        gates = {gate for gate, _ in jobs}
        hosted = [config for gate, config in jobs if gate == "hosted"]
        wired = [config for gate, config in jobs if gate in ("wire",
                                                             "hosted")]
        for flag in combo:
            if flag in ("--pipe", "--tcp"):
                assert wired and all(c["transport"] == flag[2:]
                                     for c in wired), argv
            elif flag == "--figures":
                assert figures == 2, argv
            elif flag in ("--sessions", "--shards", "--budget"):
                assert hosted and all(c.get(flag[2:]) == FLAGS[flag]
                                      for c in hosted), argv
            else:
                assert flag[2:] in gates, argv


def test_budget_with_sessions_is_a_named_conflict(capsys):
    argv = ["--budget", "3", "--shards", "4", "--tcp", "--sessions", "8"]
    assert sessioncheck.main(argv) == 2
    err = capsys.readouterr().err
    assert "--budget" in err and "--sessions" in err


# -- mutations: each defect a gate exists for must turn sessioncheck red --


def test_one_byte_render_drift_is_red(capsys, monkeypatch):
    real = host.render_screen

    def drifted(help_app, *args, **kwargs):
        text = real(help_app, *args, **kwargs)
        return chr(ord(text[0]) ^ 1) + text[1:]

    monkeypatch.setattr(host, "render_screen", drifted)
    assert sessioncheck.main(["--sessions", "1", "--figures", "1",
                              "--pipe"]) == 1
    assert ("hosted/pipe/sessions1: fig05_headers.solo: screen differs "
            "from golden (first at line 1)" in capsys.readouterr().err)


def test_counter_bleeding_between_sessions_is_red(capsys, monkeypatch):
    shared = MetricsRegistry("shared")

    def registry(name):
        return shared if name.startswith("session:") else MetricsRegistry(
            name)

    monkeypatch.setattr(host, "MetricsRegistry", registry)
    assert sessioncheck.main(["--sessions", "2", "--figures", "1",
                              "--pipe"]) == 1
    err = capsys.readouterr().err
    assert "hosted/pipe/sessions2: fig05_headers.w" in err
    assert "counter bleed" in err


def test_hibernate_that_drops_the_last_record_is_red(capsys, monkeypatch):
    def drops_last_record(self):
        self._flush()
        sink = self.journal.sink
        lines = sink.ns.read(sink.path).splitlines(keepends=True)
        cut = max((i for i, line in enumerate(lines[1:], start=1)
                   if parse_line(line.rstrip("\n")).applies),
                  default=len(lines))
        return "".join(lines[:cut])

    monkeypatch.setattr(SessionRecorder, "compact_to_text",
                        drops_last_record)
    assert sessioncheck.main(["--budget", "3", "--figures", "1",
                              "--pipe"]) == 1
    assert ("hosted/pipe/budget3: fig05_headers.woken: screen differs"
            in capsys.readouterr().err)
