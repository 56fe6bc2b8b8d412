"""Session isolation: N worlds behind one wire server.

The load-bearing scenario is the ISSUE's: two sessions attach to the
same TCP server, mutate same-named files inside their own namespaces
(each session journals to its own ``/tmp/session.<id>.journal``), a
fault is injected into one of them — and the other's screen, journal
and counter ledger never notice.  The hibernation tests cover the
lifecycle fixes: evict/close double-count, torn ``srv/sessions``
reads, stale parked unames, and the hibernate/wake round trip.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.fs import wire
from repro.fs.errors import Busy, Closed, Invalid, IOFault, NotFound
from repro.fs.faults import Fault, FaultPlan
from repro.fs.mux import MuxClient, dial, mount_remote
from repro.fs.namespace import Namespace
from repro.fs.vfs import VFS
from repro.metrics.counter import MetricsRegistry
from repro.serve import SessionHost, input_line


def _attach(host, aname, addr=None):
    """Attach one session; returns (client, namespace-with-/s-mount)."""
    channel = dial(*addr) if addr is not None else host.pipe()
    client = MuxClient(channel, aname=aname)
    ns = Namespace(VFS())
    ns.mkdir("/s", parents=True)
    ns.mount(mount_remote(client), "/s")
    return client, ns


def _newwin(tag, body):
    return input_line("newwin", ("-", "-", "-", tag, body))


def _ledger(ns):
    out = {}
    for line in ns.read("/s/metrics").splitlines():
        name, _, value = line.rpartition(" ")
        out[name] = int(value)
    return out


def test_two_tcp_sessions_isolated_under_fault():
    """Alice's world is untouched by the victim's injected fault."""
    def plan_for(session_id):
        if session_id == "victim":
            # the victim's second screen open dies with an I/O fault
            return FaultPlan(Fault(op="open", path="/screen", at=2))
        return None

    host = SessionHost(width=100, height=40, plan_for=plan_for)
    addr = host.listen()
    try:
        alice, alice_ns = _attach(host, "alice", addr)
        victim, victim_ns = _attach(host, "victim", addr)
        try:
            # both sessions write the same-named window into their own
            # namespaces; alice writes one more than the victim
            alice_ns.append("/s/input", _newwin("/tmp/note", "alice text"))
            alice_ns.append("/s/input", _newwin("/tmp/more", "alice again"))
            victim_ns.append("/s/input", _newwin("/tmp/note", "victim text"))

            alice_screen = alice_ns.read("/s/screen")
            assert "alice text" in alice_screen
            assert "victim text" not in alice_screen

            assert victim_ns.read("/s/screen").count("victim text") >= 1
            with pytest.raises(IOFault):
                victim_ns.read("/s/screen")       # the scheduled fault

            # the fault landed in the victim's ledger, nobody else's
            assert _ledger(victim_ns).get("fs.fault.injected") == 1
            alice_ledger = _ledger(alice_ns)
            assert "fs.fault.injected" not in alice_ledger
            assert alice_ledger["session.input.applied"] == 2
            assert _ledger(victim_ns)["session.input.applied"] == 1

            # each journal holds only its own session's records
            assert alice_ns.read("/s/journal").count("newwin") == 2
            assert victim_ns.read("/s/journal").count("newwin") == 1

            # alice keeps working after the victim's fault
            assert "alice again" in alice_ns.read("/s/screen")
        finally:
            alice.close()
            victim.close()
    finally:
        host.close()
    assert host.audit() == []
    assert host.metrics.counter("host.sessions.opened") == 2
    assert host.metrics.counter("host.sessions.closed") == 2
    assert host.metrics.counter("host.sessions.bleed") == 0


def test_evict_via_control_file():
    """A session can evict another through srv/sessions; reads then
    raise Closed on the evicted side only."""
    host = SessionHost()
    try:
        _a, a_ns = _attach(host, "a")
        _b, b_ns = _attach(host, "b")
        b_ns.append("/s/srv/sessions", "evict a\n")
        with pytest.raises(Closed):
            a_ns.read("/s/screen")
        assert b_ns.read("/s/id") == "b\n"
        # the listing no longer shows the evicted session
        assert [line.split("\t")[0]
                for line in b_ns.read("/s/srv/sessions").splitlines()] == ["b"]
    finally:
        host.close()
    assert host.audit() == []
    assert host.metrics.counter("host.sessions.evicted") == 1


def test_control_file_list_stat_and_errors():
    host = SessionHost()
    try:
        _client, ns = _attach(host, "carol")
        listing = ns.read("/s/srv/sessions")
        assert listing.startswith("carol\t")
        assert "windows=" in listing and "records=" in listing

        ns.append("/s/srv/sessions", "stat carol\n")
        # a fresh open re-reads the listing; stat needs one handle, so
        # drive the control session directly
        session = host.control_file().open("rw")
        session.write("stat carol\n")
        stat = session.read()
        session.close()
        assert "id carol\n" in stat
        assert "state live\n" in stat
        assert "screen 100x40\n" in stat

        with pytest.raises(NotFound):
            ns.append("/s/srv/sessions", "stat nobody\n")
        with pytest.raises(NotFound):
            ns.append("/s/srv/sessions", "evict nobody\n")
        with pytest.raises(Invalid):
            ns.append("/s/srv/sessions", "frobnicate carol\n")
    finally:
        host.close()


def test_connection_drop_tears_the_session_down():
    """Dropping the wire retires the session — no leak, ledger balanced."""
    host = SessionHost()
    try:
        client, ns = _attach(host, "dropper")
        assert ns.read("/s/id") == "dropper\n"
        client.close()
        deadline = time.monotonic() + 5.0
        while (host.metrics.counter("host.sessions.closed") < 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert host.metrics.counter("host.sessions.closed") == 1
        assert "dropper" not in host.sessions
    finally:
        host.close()
    assert host.audit() == []


def test_duplicate_session_name_is_busy():
    host = SessionHost()
    try:
        _client, _ns = _attach(host, "taken")
        with pytest.raises(Busy):
            _attach(host, "taken")
    finally:
        host.close()


def test_unnamed_attaches_get_generated_ids():
    host = SessionHost()
    try:
        _c1, ns1 = _attach(host, "")
        _c2, ns2 = _attach(host, "")
        ids = {ns1.read("/s/id").strip(), ns2.read("/s/id").strip()}
        assert len(ids) == 2
        assert all(sid.startswith("s") for sid in ids)
    finally:
        host.close()
    assert host.audit() == []


def test_bad_input_kind_is_invalid_and_not_applied():
    host = SessionHost()
    try:
        _client, ns = _attach(host, "strict")
        with pytest.raises(Invalid):
            ns.append("/s/input", "levitate now\n")
        with pytest.raises(ValueError):
            input_line("levitate", ())
        assert "session.input.applied" not in _ledger(ns)
    finally:
        host.close()


def test_a_handler_error_books_once_on_its_session():
    """An error a session's handler raises is counted where the wire
    server answers it: once, on that session's ledger.  The host's
    ledger and the client's see nothing, and the audit stays clean."""
    host = SessionHost()
    caller = MetricsRegistry("caller")
    try:
        with caller.activate():
            _client, ns = _attach(host, "typo")
            with pytest.raises(Invalid):
                ns.append("/s/input", "levitate now\n")
            errors = {name: value for name, value in _ledger(ns).items()
                      if name.startswith("fs.error.")}
        assert errors == {"fs.error.invalid": 1}
        assert host.metrics.counters("fs.error.") == {}
        assert caller.counters("fs.error.") == {}
    finally:
        host.close()
    assert host.audit() == []


def test_a_parked_read_books_nothing_for_its_caller():
    """The hibernate soak's wake check in miniature: a read on a
    connection whose session was parked under it fails with Closed,
    which the caller catches on purpose, so the caller's ledger holds
    no error."""
    host = SessionHost(max_live=1)
    caller = MetricsRegistry("caller")
    try:
        with caller.activate():
            _a, a_ns = _attach(host, "a")
            a_ns.read("/s/screen")
            _b, _b_ns = _attach(host, "b")
            assert "a" in host.hibernated
            with pytest.raises(Closed):
                a_ns.read("/s/screen")
    finally:
        host.close()
    assert caller.counters("fs.error.") == {}
    assert host.audit() == []


def test_an_error_answered_after_the_close_reaches_the_host_ledger():
    """A connection can outlive its session: the Closed a read on a
    parked session answers is booked on the host's retired ledger,
    which drain() folds, so the roll-up sees the error and still
    balances its opens and closes."""
    host = SessionHost(max_live=1)
    try:
        _a, a_ns = _attach(host, "a")
        a_ns.read("/s/screen")
        _b, _b_ns = _attach(host, "b")
        assert "a" in host.hibernated
        with pytest.raises(Closed):
            a_ns.read("/s/screen")
    finally:
        host.close()
    total = host.drain(into=MetricsRegistry("roll-up"))
    assert total.counters("fs.error.") == {"fs.error.closed": 1}
    assert total.counter("fs.open") == total.counter("fs.close")
    assert host.audit() == []


def test_ops_behind_a_close_in_one_chain_reach_the_host_ledger():
    """A chain that hibernates its own session and then reads on: the
    ops served after the close book on the host's retired ledger too,
    so drain() counts every op the connection was served."""
    host = SessionHost()
    try:
        with MuxClient(host.pipe(), aname="a") as client:
            ctl, own = client.alloc_fid(), client.alloc_fid()
            replies = client.batch([
                wire.Twalk(fid=0, newfid=ctl, names=["srv", "sessions"]),
                wire.Topen(fid=ctl, mode="w"),
                wire.Twrite(fid=ctl, data="hibernate a\n"),
                wire.Tclunk(fid=ctl),
                wire.Twalk(fid=0, newfid=own, names=["id"]),
                wire.Topen(fid=own, mode="r"),
                wire.Tread(fid=own),
                wire.Tclunk(fid=own)])
            assert replies[6].kind == "closed"
    finally:
        host.close()
    total = host.drain(into=MetricsRegistry("roll-up"))
    assert total.counters("wire.rpc.") == {
        "wire.rpc.attach": 1, "wire.rpc.walk": 2, "wire.rpc.open": 2,
        "wire.rpc.write": 1, "wire.rpc.read": 1, "wire.rpc.clunk": 2}
    assert total.counters("fs.error.") == {"fs.error.closed": 1}
    assert host.audit() == []


def test_evict_racing_a_close_counts_once():
    """An evict that loses the race to a close must not move the
    ``host.sessions.evicted`` counter — the ledger counts retirements,
    not attempts."""
    host = SessionHost()
    try:
        _client, ns = _attach(host, "racer")
        assert ns.read("/s/id") == "racer\n"
        session = host.sessions["racer"]
        # simulate the race: a concurrent close has just flipped the
        # flag but the evict call is already past its lookup
        session.closed = True
        host.evict("racer")
        assert host.metrics.counter("host.sessions.evicted") == 0
        # the loser still removed the wire registration; a real close
        # balances the opened/closed ledger for the audit
        session.closed = False
        session.close()
    finally:
        host.close()
    assert host.audit() == []


def test_stat_and_list_never_block_on_a_busy_session(monkeypatch):
    """srv/sessions reads must not tear or block while a session is
    mid-input: the row degrades to ``state busy`` instead."""
    import repro.serve.host as host_mod
    real = host_mod.apply_record
    started = threading.Event()
    release = threading.Event()

    def gated(help_obj, record):
        started.set()
        assert release.wait(5)
        return real(help_obj, record)

    monkeypatch.setattr(host_mod, "apply_record", gated)
    host = SessionHost()
    try:
        _client, ns = _attach(host, "busy1")
        writer = threading.Thread(
            target=ns.append,
            args=("/s/input", _newwin("/tmp/slow", "slow write")),
            daemon=True)
        writer.start()
        assert started.wait(5)
        # the input holds busy1's oplock; stat and list answer anyway
        stat = host._stat_text("busy1")
        assert "state busy\n" in stat
        row = [line for line in host._list_text().splitlines()
               if line.startswith("busy1\t")][0]
        assert "\tbusy\t" in row
        assert "windows=?" in row
        release.set()
        writer.join(timeout=5)
        assert not writer.is_alive()
        # quiescent again: the real row comes back
        assert "state live\n" in host._stat_text("busy1")
        assert "windows=?" not in host._list_text()
        assert "records=2" in host._list_text()
    finally:
        release.set()
        host.close()
    assert host.audit() == []


def test_claiming_a_parked_session_takes_the_claimer_uname():
    """A snapshot adopted under its old owner must show the waker's
    identity once woken — not the stale uname."""
    source = SessionHost()
    host = SessionHost()
    try:
        _client, ns = _attach(source, "moved")
        ns.append("/s/input", _newwin("/tmp/note", "moved text\n"))
        source.hibernate("moved")
        host.adopt_hibernated("moved", "old-owner",
                              source.hibernated["moved"].read_text())
        before = host._stat_text("moved")
        assert "user old-owner\n" in before
        assert "state hibernated\n" in before
        channel = host.pipe()
        client = MuxClient(channel, uname="new-owner", aname="moved")
        try:
            after = host._stat_text("moved")
            assert "user new-owner\n" in after
            assert "state live\n" in after
            assert "\tnew-owner\tlive\t" in host._list_text()
        finally:
            client.close()
    finally:
        host.close()
        source.close()
    assert host.audit() == []
    assert host.metrics.counter("host.sessions.woken") == 1


def test_hibernate_wake_round_trip_is_byte_identical():
    """A hibernated session's next attach wakes it to the same screen,
    and the wake ledger records the journey."""
    host = SessionHost(max_live=4)
    try:
        _client, ns = _attach(host, "sleeper")
        ns.append("/s/input", _newwin("/tmp/keep", "text that must survive"))
        golden = ns.read("/s/screen")
        host.hibernate("sleeper")
        assert "sleeper" in host.hibernated
        assert host.hibernated["sleeper"].exists()
        stat = host._stat_text("sleeper")
        assert "state hibernated\n" in stat
        assert "\thibernated\t" in host._list_text()
        # the world is gone; only the snapshot file remains
        assert "sleeper" not in host.sessions

        _client2, ns2 = _attach(host, "sleeper")
        assert ns2.read("/s/screen") == golden
        assert "sleeper" not in host.hibernated
        assert host.metrics.counter("host.sessions.woken") == 1
        assert host.metrics.histogram("host.wake_us")["count"] == 1
    finally:
        host.close()
    assert host.audit() == []


def test_racing_hibernates_park_once_and_book_no_error(monkeypatch):
    """Two LRU sweeps, or a sweep and a connection drop, can race to
    park one session.  The loser — waiting on the oplock while the
    winner compacts, or arriving after the world is gone — leaves the
    session parked and books no error into the ledger it runs under
    (the host's, on the reactor and during an attach)."""
    host = SessionHost(max_live=4)
    try:
        _client, ns = _attach(host, "sleeper")
        ns.append("/s/input", _newwin("/tmp/keep", "text"))
        recorder = host.sessions["sleeper"].recorder
        compact = recorder.compact_to_text
        inside, release = threading.Event(), threading.Event()

        def gated():
            inside.set()
            assert release.wait(5)
            return compact()

        def lose():
            with host.metrics.activate():
                host.hibernate("sleeper")

        monkeypatch.setattr(recorder, "compact_to_text", gated)
        winner = threading.Thread(target=host.hibernate, args=("sleeper",))
        winner.start()
        assert inside.wait(5)
        loser = threading.Thread(target=lose)
        loser.start()
        time.sleep(0.1)  # the loser now waits on the oplock
        release.set()
        winner.join(5)
        loser.join(5)
        assert not winner.is_alive() and not loser.is_alive()
        lose()  # the world is gone by now
        assert "sleeper" in host.hibernated
        assert host.metrics.counter("host.sessions.hibernated") == 1
    finally:
        host.close()
    assert host.audit() == []


def test_connection_drop_hibernates_under_a_budget():
    """With max_live set, a dropped connection parks the session on
    disk instead of retiring it — the user went nominal, not away."""
    host = SessionHost(max_live=2)
    try:
        client, ns = _attach(host, "nominal")
        ns.append("/s/input", _newwin("/tmp/keep", "still here later"))
        golden = ns.read("/s/screen")
        client.close()
        deadline = time.monotonic() + 5.0
        while (host.metrics.counter("host.sessions.hibernated") < 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert host.metrics.counter("host.sessions.hibernated") == 1
        assert "nominal" in host.hibernated
        _client2, ns2 = _attach(host, "nominal")
        assert ns2.read("/s/screen") == golden
    finally:
        host.close()
    assert host.audit() == []


def test_lru_budget_hibernates_the_oldest_session():
    """The third attach under a two-world budget parks the session
    whose last input is oldest."""
    host = SessionHost(max_live=2)
    try:
        _a, a_ns = _attach(host, "old")
        a_ns.append("/s/input", _newwin("/tmp/a", "oldest"))
        _b, b_ns = _attach(host, "mid")
        b_ns.append("/s/input", _newwin("/tmp/b", "newer"))
        _c, c_ns = _attach(host, "new")
        assert c_ns.read("/s/id") == "new\n"
        # "old" was least recently used: it went to disk
        assert "old" in host.hibernated
        assert "mid" in host.sessions and "new" in host.sessions
        assert host.live_peak <= 2
        # its connection now sees Closed; a fresh attach wakes it
        with pytest.raises(Closed):
            a_ns.read("/s/screen")
        _a2, a2_ns = _attach(host, "old")
        assert "oldest" in a2_ns.read("/s/screen")
    finally:
        host.close()
    assert host.audit() == []


def test_sessions_journal_to_distinct_paths():
    """Two concurrent journalled sessions must not share a journal
    file — the old shared /tmp/session.journal was cross-talk."""
    from repro.serve.host import journal_path

    assert journal_path("a") != journal_path("b")
    host = SessionHost()
    try:
        _a, a_ns = _attach(host, "one")
        _b, b_ns = _attach(host, "two")
        a_ns.append("/s/input", _newwin("/tmp/x", "first session"))
        b_ns.append("/s/input", _newwin("/tmp/x", "second session"))
        assert a_ns.read("/s/journal").count("newwin") == 1
        assert b_ns.read("/s/journal").count("newwin") == 1
    finally:
        host.close()
    assert host.audit() == []


def test_drain_folds_every_ledger_into_one():
    """drain() hands benches the complete cross-session ledger."""
    from repro.metrics.counter import MetricsRegistry

    host = SessionHost()
    try:
        alice, alice_ns = _attach(host, "alice")
        alice_ns.append("/s/input", _newwin("/tmp/x", "hi"))
        bob, bob_ns = _attach(host, "bob")
        bob_ns.append("/s/input", _newwin("/tmp/x", "yo"))
        alice.close()
        bob.close()
    finally:
        host.close()
    total = host.drain(into=MetricsRegistry("roll-up"))
    assert total.counter("session.input.applied") == 2
    assert total.counter("host.sessions.opened") == 2
    assert total.counter("host.sessions.closed") == 2
    assert total.histogram("session.apply_us")["count"] == 2


def test_a_chained_ledger_read_counts_only_served_ops():
    """``wire.rpc.<op>`` is booked where an op is served: a ``metrics``
    read sees its own walk, open and read, never the clunk that went
    out behind it in the same write, however far the reactor decoded."""
    host = SessionHost(width=100, height=40)
    try:
        with MuxClient(host.pipe(), aname="ledger") as client:
            files = mount_remote(client)
            files.lookup("screen").data
            text = files.lookup("metrics").data
    finally:
        host.close()
    ledger = {name: int(value) for name, _, value in
              (line.rpartition(" ") for line in text.splitlines())}
    assert {name: value for name, value in ledger.items()
            if name.startswith("wire.rpc.")} == {
        "wire.rpc.walk": 4, "wire.rpc.open": 2, "wire.rpc.read": 2,
        "wire.rpc.clunk": 3}
