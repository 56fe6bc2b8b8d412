"""Hosting N concurrent help sessions in one process.

The paper's ``help`` serves one user; the ROADMAP's north star serves
many.  :class:`SessionHost` is the step between: it accepts mux
connections (in-memory pipes or TCP) on a shared
:class:`~repro.fs.mux.WireServer`, and builds one fully isolated world
per attach — its own namespace, its own :class:`~repro.core.help.Help`
with a private :class:`~repro.metrics.MetricsRegistry` ledger, its own
write-ahead journal — wrapped in a :class:`HostedSession` whose file
tree is what the connection sees::

    id          the session's name
    screen      read: the rendered screen (golden-comparable)
    input       write: one journal input record per line, applied live
    journal     read: the session's record kinds, in order
    metrics     read: the session's counter ledger, sorted
    mnt/help/   the session's own /mnt/help window server
    srv/sessions  host-level control: list, stat <id>, evict <id>,
                  hibernate <id>

The ``input`` grammar is PR 4's journal record payload — ``<kind>
<token>...`` with each token encoded by :func:`repro.journal.record.enc`
— so anything a journal can replay, a remote client can drive.

Isolation is structural: the wire layer binds each connection's
session registry around every RPC it serves, each session serializes
on its own lock, and a dropped connection tears its session down.  The
host keeps its own private ledger (``host.sessions.*``); because no
session work is ever done under the host's registry, :meth:`audit` can
assert that the host ledger holds **zero** session-scoped counters —
any nonzero value is cross-session bleed by construction.

**Hibernation** is the capacity story on top: give the host a memory
budget (``max_live`` resident worlds) and idle sessions cost disk, not
RAM.  :meth:`SessionHost.hibernate` flushes and compacts a session's
journal (PR 4's snapshot+truncate) into one serialized text, spools it
to a disk file, and tears the world down; the session survives as an
entry in the ``hibernated`` table.  The next ``Tattach`` naming that
session **wakes** it: the snapshot text rehydrates a fresh world
through :func:`repro.journal.recovery.recover` (the same path shard
migration uses), byte-identically, metered into the ``host.wake_us``
histograms.  With a budget set, sessions past the least-recently-used
line are hibernated to make room for new attaches, and a dropped
connection hibernates its session instead of retiring it — a
disconnected user becomes a nominal one, parked on disk.
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile
import threading
import time
from urllib.parse import quote

from repro.core.render import render_screen
from repro.fs.errors import Busy, Closed, FsError, Invalid, IOFault, NotFound
from repro.fs.mux import WireServer, channel_pair
from repro.fs.server import SynthDir, SynthFile, SynthSession
from repro.journal.log import Journal
from repro.journal.record import APPLY_KINDS, Record, enc
from repro.journal.recorder import apply_record, attach
from repro.metrics.counter import MetricsRegistry, current_registry


def journal_path(session_id: str) -> str:
    """The session's own journal file inside its namespace.

    Per-session (not one shared ``/tmp/session.journal``) so two
    sessions' hibernation snapshots can never collide on one
    namespace-external name when their journal texts are spooled,
    diffed, or carried between shards.
    """
    return f"/tmp/session.{session_id}.journal"


# Counter prefixes that only session work produces.  The host audit
# asserts its own ledger holds none of them: the wire layer binds each
# session's registry around that session's RPCs, so a single increment
# under one of these prefixes landing in the host ledger means some
# session's work escaped its binding — bleed.
SESSION_PREFIXES = ("fs.", "journal.", "layout.", "render.", "replay.",
                    "session.", "frame.", "text.")


def kind_class(kind: str) -> str:
    """The op class of an input record kind, for histogram tagging.

    ``session.apply_us`` alone says how slow *applying input* is;
    tagged buckets (``session.apply_us.exec`` vs ``.mouse``) say which
    class of input owns the tail, which is what a latency SLO needs to
    name before it can be budgeted.
    """
    if kind.startswith("mouse-"):
        return "mouse"
    if kind in ("type", "select"):
        return "key"
    if kind in ("exec", "builtin"):
        return "exec"
    return "window"  # open/newwin/close/scroll/replace-body/resize


def input_line(kind: str, fields: tuple | list) -> str:
    """Serialize one record for a session's ``input`` file."""
    if kind not in APPLY_KINDS:
        raise ValueError(f"{kind!r} is not an input record kind")
    tokens = " ".join(enc(str(f)) for f in fields)
    return f"{kind} {tokens}\n" if tokens else f"{kind}\n"


class HostedSession:
    """One attached session: a private world served as a file tree."""

    def __init__(self, host: "SessionHost", session_id: str,
                 uname: str, journal_text: str | None = None) -> None:
        self.host = host
        self.id = session_id
        self.uname = uname
        self.metrics = MetricsRegistry(f"session:{session_id}")
        self.oplock = threading.RLock()
        self.closed = False
        # A parked session was adopted from a draining shard and waits
        # for its owner to re-attach under the same name.
        self.parked = False
        # LRU clock for the hibernation budget: the moment of the last
        # applied input (or the build, until one arrives).
        self.last_input = time.monotonic()
        # Everything the world's construction touches — fs traffic,
        # layout caching, the journal's genesis — belongs to this
        # session's ledger, not to whoever called attach.
        # True while a hibernate is tearing this world down: the
        # session survives as a spooled snapshot, so the retire must
        # NOT ship a replica drop
        self._hibernating = False
        with self.metrics.activate():
            self.system = host._build(session_id, uname, self.metrics)
            self.journal = None
            self.recorder = None
            if journal_text is not None:
                # Migration or wake: rebuild the world from the
                # serialized journal (snapshot group + suffix, PR 4
                # recovery).
                from repro.journal.recovery import recover
                recovery = recover(self.system.help, journal_text)
            if host.record:
                self.journal = Journal.create(self.system.ns,
                                              journal_path(session_id),
                                              metrics=self.metrics)
                if journal_text is not None:
                    from repro.journal.record import scan_text
                    scanned = scan_text(journal_text).records
                    if scanned:
                        # sequence numbering survives the migration
                        self.journal.seq = scanned[-1].seq
                self.recorder = attach(self.system.help, self.journal,
                                       context=self.system.context)
                if journal_text is not None:
                    # the resume index and the journal survive the
                    # rebuild together; re-found the journal on a
                    # snapshot of the adopted state — the next drain
                    # or hibernate starts here
                    self.recorder.inputs_recorded = recovery.inputs
                    self.recorder.compact()
            feed = host.replica
            if feed is not None and self.journal is not None:
                # one full reset puts the standby at this exact journal
                # (genesis or adopted snapshot); every later flush and
                # compaction ships through the durability hook, so in
                # sync mode a write is acked only once the standby
                # holds its record
                sink = self.journal.sink
                feed.ship(self.id, "reset", self.journal.seq,
                          sink.ns.read(sink.path), meta=self.uname)
                self.journal.on_durable = self._ship_durable
        self.root = self._build_root()
        # a per-session fault schedule wraps only this session's tree
        self.fault_plan = (host.plan_for(session_id)
                           if host.plan_for is not None else None)
        if self.fault_plan is not None:
            from repro.fs.faults import wrap
            self.system.context.fault_plan = self.fault_plan
            self.root = wrap(self.root, self.fault_plan, base="/")

    # -- the served tree --------------------------------------------------

    def _ship_durable(self, event: str, text: str, seq: int) -> None:
        """The journal's on_durable hook: mirror the sink write."""
        feed = self.host.replica
        if feed is None:
            return
        if event == "append":
            feed.ship(self.id, "append", seq, text)
        else:  # truncate: compaction replaced the whole file
            feed.ship(self.id, "reset", seq, text, meta=self.uname)

    def _build_root(self) -> SynthDir:
        mnt = SynthDir("mnt", list_fn=lambda: [self.system.helpfs.root])
        srv = SynthDir("srv", list_fn=lambda: self.host.srv_files())
        files = [
            SynthFile("id", read_fn=self._read_id),
            SynthFile("screen", read_fn=self._read_screen),
            SynthFile("input", write_fn=self._input_line),
            SynthFile("inputs", read_fn=self._read_inputs),
            SynthFile("journal", read_fn=self._read_journal),
            SynthFile("metrics", read_fn=self._read_metrics),
            mnt, srv,
        ]
        return SynthDir(self.id, list_fn=lambda: list(files))

    def _check(self, op: str) -> None:
        if self.closed:
            raise Closed(f"session {self.id} is gone",
                         path=f"session/{self.id}", op=op)

    def _read_id(self) -> str:
        self._check("read")
        return f"{self.id}\n"

    def _read_screen(self) -> str:
        self._check("read")
        return render_screen(self.system.help)

    def _read_inputs(self) -> str:
        """The session's input-record count — the replication resume
        index: after failover a client reads this to learn exactly how
        many of its writes the promoted journal holds."""
        self._check("read")
        if self.recorder is not None:
            return f"{self.recorder.inputs_recorded}\n"
        return f"{self.metrics.counter('session.input.applied')}\n"

    def _read_journal(self) -> str:
        self._check("read")
        if self.journal is None:
            return ""
        return "".join(r.kind + "\n" for r in self.journal.records)

    def _read_metrics(self) -> str:
        self._check("read")
        return "".join(f"{name} {value}\n" for name, value
                       in sorted(self.metrics.counters().items()))

    def _input_line(self, line: str) -> None:
        """Apply one ``<kind> <token>...`` record to the live session."""
        self._check("write")
        parts = line.rstrip("\n").split(" ")
        kind = parts[0]
        if kind not in APPLY_KINDS:
            raise Invalid(f"unknown input kind {kind!r}",
                          path=f"session/{self.id}/input", op="write")
        record = Record(0, kind, " ".join(parts[1:]))
        start = time.perf_counter()
        apply_record(self.system.help, record)
        self.last_input = time.monotonic()
        self.metrics.observe_op("session.apply_us", kind_class(kind),
                                (time.perf_counter() - start) * 1e6)
        self.metrics.incr("session.input.applied")

    # -- lifecycle --------------------------------------------------------

    def close(self) -> bool:
        """Retire the session; True when **this** call retired it.

        Idempotent: a second close (an evict racing a connection drop,
        a teardown after a hibernate) returns False and touches
        nothing, so callers that keep a ledger — ``evict`` bumps
        ``host.sessions.evicted`` — only count the close that
        actually happened.
        """
        if self.closed:
            return False
        self.closed = True
        if self.recorder is not None:
            with self.metrics.activate():
                self.recorder._flush()
        self.host._retire(self)
        return True

    def detach(self) -> None:
        """The connection dropped: park the session or retire it.

        With a hibernation budget on the host, a disconnect turns the
        session nominal — compacted to disk, woken by the owner's next
        attach.  Without one (or for an unjournalled world, or during
        host shutdown) the drop retires the session as before.
        """
        if self.closed:
            return
        if (self.host.max_live is not None and self.recorder is not None
                and not self.host._closing):
            try:
                self.host.hibernate(self.id)
                return
            except FsError:
                pass  # raced an evict or a shutdown: fall through
        self.close()


class SessionHost:
    """N isolated help sessions behind one wire server."""

    def __init__(self, *, width: int = 100, height: int = 40,
                 record: bool = True, extra_tools: bool = False,
                 metrics: MetricsRegistry | None = None,
                 plan_for=None, id_prefix: str = "s",
                 max_outstanding: int = 64, workers: int = 4,
                 max_live: int | None = None,
                 spool: str | pathlib.Path | None = None) -> None:
        self.width = width
        self.height = height
        self.record = record
        self.extra_tools = extra_tools
        # plan_for(session_id) -> FaultPlan | None: a deterministic
        # fault schedule for that one session's served tree
        self.plan_for = plan_for
        # anonymous attaches get ids f"{id_prefix}{n}"; a shard router
        # gives each shard its own prefix so ids never collide
        self.id_prefix = id_prefix
        # a ShardRouter installs itself here to federate srv/sessions
        self.directory: "SessionDirectory | None" = None
        # the memory budget: at most max_live worlds resident; the
        # least-recently-used sessions beyond it hibernate to disk
        if max_live is not None and max_live < 1:
            raise ValueError("max_live must be at least 1")
        self.max_live = max_live
        self._spool = pathlib.Path(spool) if spool is not None else None
        self._spool_owned = False
        # session id -> spool file holding its compacted journal text
        self.hibernated: dict[str, pathlib.Path] = {}
        self._hibernated_uname: dict[str, str] = {}
        self.live_peak = 0
        self._closing = False
        self._killed = False
        # a ReplicaFeed shipping every session's journal to a standby
        # (installed via attach_replica before the first attach), and
        # an optional status callback a standby installs so its
        # srv/replica file reports the standby side
        self.replica = None
        self.replica_status = None
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry("host")
        self.sessions: dict[str, HostedSession] = {}
        # retired sessions' ledgers, folded as they retire — a list
        # would grow without bound under a hibernation churn of
        # thousands of nominal sessions
        self._retired = MetricsRegistry("host:retired")
        self._lock = threading.Lock()
        self._next = 1
        self.server = WireServer(metrics=self.metrics,
                                 session_factory=self._make_session,
                                 max_outstanding=max_outstanding,
                                 workers=workers)

    # -- accepting connections --------------------------------------------

    def listen(self, host: str = "127.0.0.1",
               port: int = 0) -> tuple[str, int]:
        """Accept TCP attaches; returns the bound (host, port)."""
        return self.server.listen(host, port)

    def pipe(self, max_chunk: int | None = None):
        """An in-memory attach: returns the client end of a fresh pipe."""
        client_end, server_end = channel_pair(max_chunk)
        self.server.serve(server_end)
        return client_end

    # -- replication ------------------------------------------------------

    def attach_replica(self, feed) -> None:
        """Ship every session's journal to *feed* from now on.

        Install before the first attach: a session ships one full
        reset at construction and every durable write thereafter, so
        only sessions built after this call are replicated.
        """
        self.replica = feed

    def _ship_drop(self, session_id: str) -> None:
        """Tell the standby *session_id* is gone — best-effort: a
        standby that misses a drop merely tracks a dead session."""
        feed = self.replica
        if feed is None:
            return
        try:
            # connection-teardown threads have no metrics context; a
            # stopped feed's Closed must book to the feed, not the
            # process default registry
            with feed.metrics.activate():
                feed.ship(session_id, "drop", 0)
        except FsError:
            pass

    def _ship_state(self, session_id: str, state: str) -> None:
        """Mirror a live/parked transition — best-effort: the state
        only splits the standby's promoted live/parked counters."""
        feed = self.replica
        if feed is None:
            return
        try:
            with feed.metrics.activate():
                feed.ship(session_id, "state", 0, meta=state)
        except FsError:
            pass

    def kill(self) -> None:
        """Crash this host: sever every connection, tear down nothing.

        The in-process stand-in for SIGKILL — no fid closes, no
        session close/hibernate, no replica drops; clients see torn
        connections and the standby sees the feed go silent.  Used by
        chaos tests; a killed host must never be reused.
        """
        self._killed = True
        self._closing = True
        # connections first: a write applied after the feed is dropped
        # must have no live connection left to carry its ack
        self.server.kill()
        self.replica = None

    # -- session lifecycle ------------------------------------------------

    def _build(self, session_id: str, uname: str,
               metrics: MetricsRegistry):
        from repro.tools.install import build_system
        return build_system(width=self.width, height=self.height,
                            user=uname or "rob",
                            extra_tools=self.extra_tools,
                            session_id=session_id, metrics=metrics)

    def _make_session(self, uname: str, aname: str) -> HostedSession:
        with self._lock:
            session_id = aname or f"{self.id_prefix}{self._next}"
            self._next += 1
            existing = self.sessions.get(session_id)
            claimed = None
            if existing is not None and existing.parked:
                # a migrated session waiting for its owner: claim it —
                # the claimer's identity replaces the stale one and the
                # LRU clock restarts, or the fresh claim would be the
                # first hibernation victim
                existing.parked = False
                if uname:
                    existing.uname = uname
                existing.last_input = time.monotonic()
                self.metrics.incr("host.sessions.claimed")
                claimed = existing
            elif session_id in self.sessions:
                raise Busy(f"session {session_id!r} already attached",
                           path=f"session/{session_id}", op="attach")
            else:
                wake_path = self.hibernated.pop(session_id, None)
                wake_uname = self._hibernated_uname.pop(session_id, None)
                # reserve the name before the (slow) world build
                self.sessions[session_id] = None  # type: ignore[assignment]
        if claimed is not None:
            # the standby's tracked state follows (outside the host
            # lock: shipping is an rpc)
            self._ship_state(claimed.id, "live")
            return claimed
        try:
            self._ensure_room(exclude=session_id)
            start = time.perf_counter()
            journal_text = None
            if wake_path is not None:
                try:
                    journal_text = wake_path.read_text()
                except OSError as exc:
                    raise IOFault(f"hibernated snapshot unreadable: {exc}",
                                  path=f"session/{session_id}",
                                  op="attach") from exc
            session = HostedSession(self, session_id, uname or wake_uname
                                    or "", journal_text=journal_text)
        except BaseException:
            with self._lock:
                self.sessions.pop(session_id, None)
                if wake_path is not None:
                    # the snapshot file is untouched: keep the session
                    # nominal instead of losing it to a failed wake
                    self.hibernated[session_id] = wake_path
                    self._hibernated_uname[session_id] = wake_uname or ""
            raise
        with self._lock:
            self.sessions[session_id] = session
            live = sum(1 for s in self.sessions.values() if s is not None)
        self.live_peak = max(self.live_peak, live)
        # attach latency, tagged by op class: a cold attach builds a
        # world, a wake also rehydrates one from its spooled journal
        self.metrics.observe_op(
            "host.attach_us", "wake" if wake_path is not None else "cold",
            (time.perf_counter() - start) * 1e6)
        if wake_path is not None:
            self.metrics.observe("host.wake_us",
                                 (time.perf_counter() - start) * 1e6)
            self.metrics.incr("host.sessions.woken")
            try:
                wake_path.unlink()
            except OSError:
                pass  # the table entry is gone; a stale file is litter
        self.metrics.incr("host.sessions.opened")
        return session

    def adopt(self, session_id: str, uname: str,
              journal_text: str | None) -> HostedSession:
        """Take over a session migrated from another shard.

        Rebuilds the world from *journal_text* (the source shard's
        snapshot + journal suffix) and parks the result: the next
        Tattach naming *session_id* claims it instead of building a
        fresh world, so the migration is invisible to the client apart
        from the reconnect.
        """
        with self._lock:
            if session_id in self.sessions:
                raise Busy(f"session {session_id!r} already attached",
                           path=f"session/{session_id}", op="adopt")
            self.sessions[session_id] = None  # type: ignore[assignment]
        try:
            self._ensure_room(exclude=session_id)
            session = HostedSession(self, session_id, uname,
                                    journal_text=journal_text)
        except BaseException:
            with self._lock:
                self.sessions.pop(session_id, None)
            raise
        session.parked = True
        with self._lock:
            self.sessions[session_id] = session
            live = sum(1 for s in self.sessions.values() if s is not None)
        self.live_peak = max(self.live_peak, live)
        self.metrics.incr("host.sessions.opened")
        self.metrics.incr("host.sessions.adopted")
        # construction shipped the reset as "live"; it is parked
        self._ship_state(session_id, "parked")
        return session

    def adopt_hibernated(self, session_id: str, uname: str,
                         journal_text: str) -> None:
        """Take over another shard's **hibernated** session.

        The snapshot text is re-spooled locally and the session joins
        this host's ``hibernated`` table without ever being resident —
        a drained shard's nominal users move as files, not worlds.
        """
        with self._lock:
            if session_id in self.sessions or session_id in self.hibernated:
                raise Busy(f"session {session_id!r} already here",
                           path=f"session/{session_id}", op="adopt")
        path = self._spool_path(session_id)
        path.write_text(journal_text)
        with self._lock:
            self.hibernated[session_id] = path
            self._hibernated_uname[session_id] = uname
        self.metrics.incr("host.sessions.hib.in")
        feed = self.replica
        if feed is not None:
            # the standby holds nominal sessions too: a promoted
            # standby must re-spool them, so the snapshot ships whole
            try:
                feed.ship(session_id, "reset", 0, journal_text, meta=uname)
            except FsError:
                pass
            self._ship_state(session_id, "parked")

    def _retire(self, session: HostedSession) -> None:
        with self._lock:
            self.sessions.pop(session.id, None)
            self._retired.merge(session.metrics)
        self.metrics.incr("host.sessions.closed")
        if not session._hibernating:
            # truly gone — a hibernating session survives as a spooled
            # snapshot and keeps its standby entry
            self._ship_drop(session.id)

    def evict(self, session_id: str) -> None:
        """Force one session out; its connection sees ``Closed``.

        Evicting a hibernated session discards its disk snapshot.  The
        ``host.sessions.evicted`` counter moves only when this call is
        the one that retires the session — an evict racing a close (or
        a second evict) must not inflate the ledger.
        """
        with self._lock:
            session = self.sessions.get(session_id)
            discarded = False
            if session is None and session_id in self.hibernated:
                path = self.hibernated.pop(session_id)
                self._hibernated_uname.pop(session_id, None)
                self.metrics.incr("host.sessions.discarded")
                discarded = True
                try:
                    path.unlink()
                except OSError:
                    pass
        if discarded:
            self._ship_drop(session_id)
            return
        if session is None:
            raise NotFound(path=f"session/{session_id}", op="evict")
        if session.close():
            self.metrics.incr("host.sessions.evicted")

    # -- hibernation ------------------------------------------------------

    def _spool_dir(self) -> pathlib.Path:
        if self._spool is None:
            self._spool = pathlib.Path(
                tempfile.mkdtemp(prefix="repro-hibernate-"))
            self._spool_owned = True
        else:
            self._spool.mkdir(parents=True, exist_ok=True)
        return self._spool

    def _spool_path(self, session_id: str) -> pathlib.Path:
        return self._spool_dir() / (quote(session_id, safe="") + ".journal")

    def hibernate(self, session_id: str) -> None:
        """Park one live session on disk: compact, spool, tear down.

        Under the session's oplock (an in-flight input finishes
        first), the journal is flushed and compacted to a snapshot
        group, the serialized text is written to the spool, and the
        world is retired.  The session survives as a ``hibernated``
        table entry; the next attach naming it wakes it
        byte-identically.
        """
        with self._lock:
            session = self.sessions.get(session_id)
        if session is None:
            raise NotFound(path=f"session/{session_id}", op="hibernate")
        if session.recorder is None:
            raise Invalid("cannot hibernate an unjournalled session",
                          path=f"session/{session_id}", op="hibernate")
        with session.oplock:
            if session.closed:
                raise NotFound(path=f"session/{session_id}", op="hibernate")
            with session.metrics.activate():
                text = session.recorder.compact_to_text()
            path = self._spool_path(session_id)
            path.write_text(text)
            with self._lock:
                # registered before the retire pops the id, so there is
                # no window where an attach rebuilds a fresh world
                self.hibernated[session_id] = path
                self._hibernated_uname[session_id] = session.uname
            session._hibernating = True
            if not session.close():
                # an evict slipped in between the closed check and
                # here: honour it — the snapshot is already stale
                with self._lock:
                    self.hibernated.pop(session_id, None)
                    self._hibernated_uname.pop(session_id, None)
                try:
                    path.unlink()
                except OSError:
                    pass
                raise NotFound(path=f"session/{session_id}",
                               op="hibernate")
        self.metrics.incr("host.sessions.hibernated")
        # the compaction already shipped the snapshot text through the
        # durability hook; only the state flips
        self._ship_state(session_id, "parked")

    def _ensure_room(self, exclude: str | None = None) -> None:
        """Hibernate LRU sessions until the budget fits one more world.

        Victims are picked by ``last_input`` (parked sessions, whose
        clock never restarts, go first by construction).  A victim
        without a journal cannot hibernate and is evicted instead —
        the budget is a hard ceiling either way.
        """
        if self.max_live is None:
            return
        while True:
            with self._lock:
                total = len(self.sessions) + (1 if exclude
                                              not in self.sessions else 0)
                victims = [s for sid, s in self.sessions.items()
                           if s is not None and sid != exclude]
                if total <= self.max_live or not victims:
                    return
                victim = min(victims, key=lambda s: s.last_input)
            try:
                self.hibernate(victim.id)
            except Invalid:
                if victim.close():
                    self.metrics.incr("host.sessions.evicted")
            except NotFound:
                pass  # raced a close; re-evaluate

    def close(self) -> None:
        """Stop serving: drop every connection, retire every session.

        The ``hibernated`` table is kept (a post-close audit balances
        the wake ledger against it) but an owned spool directory is
        removed from disk.
        """
        self._closing = True
        self.server.close()
        with self._lock:
            live = list(self.sessions.values())
        for session in live:
            if session is not None:
                session.close()
        if self._spool_owned and self._spool is not None:
            shutil.rmtree(self._spool, ignore_errors=True)

    def __enter__(self) -> "SessionHost":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- the /srv/sessions control file -----------------------------------

    def control_file(self) -> SynthFile:
        return SynthFile("sessions", open_fn=self._control_session)

    def srv_files(self) -> list:
        """Every session's ``srv/`` directory: the control file, plus
        a ``replica`` status file when this host is a replication
        primary (feed attached) or standby (status callback)."""
        files = [self.control_file()]
        if self.replica is not None or self.replica_status is not None:
            files.append(SynthFile("replica", read_fn=self._replica_text))
        return files

    def _replica_text(self) -> str:
        if self.replica is not None:
            return self.replica.status_text()
        if self.replica_status is not None:
            return self.replica_status()
        return "role none\n"

    def _control_session(self, mode: str) -> SynthSession:
        focus: dict[str, str | None] = {"id": None}
        # with a router installed, srv/sessions spans every shard
        directory = self.directory if self.directory is not None else self

        def read_fn() -> str:
            if focus["id"] is not None:
                return directory._stat_text(focus["id"])
            return directory._list_text()

        def write_fn(line: str) -> None:
            words = line.split()
            if len(words) == 2 and words[0] == "stat":
                if not directory._knows(words[1]):
                    raise NotFound(path=f"session/{words[1]}", op="stat")
                focus["id"] = words[1]
            elif len(words) == 2 and words[0] == "evict":
                directory.evict(words[1])
            elif len(words) == 2 and words[0] == "hibernate":
                directory.hibernate(words[1])
            else:
                raise Invalid(f"bad control message {line.strip()!r}",
                              path="srv/sessions", op="write")

        return SynthSession(mode, read_fn, write_fn, name="srv/sessions")

    def _knows(self, session_id: str) -> bool:
        with self._lock:
            return (session_id in self.sessions
                    or session_id in self.hibernated)

    def _session_state(self, session: HostedSession) -> str:
        return "parked" if session.parked else "live"

    def _list_text(self) -> str:
        """One line per session — live, parked, busy or hibernated.

        Live rows read ``help.windows`` and ``journal.seq``, which a
        concurrent input apply mutates; each row takes its session's
        oplock (non-blocking — a listing must never stall behind a
        slow apply) and a session mid-apply is reported ``busy`` with
        its volatile fields elided rather than torn.
        """
        with self._lock:
            live = sorted((s for s in self.sessions.values()
                           if s is not None), key=lambda s: s.id)
            nominal = sorted((sid, self._hibernated_uname.get(sid, ""))
                             for sid in self.hibernated)
        lines = []
        for s in live:
            if s.oplock.acquire(blocking=False):
                try:
                    lines.append(
                        f"{s.id}\t{s.uname}\t{self._session_state(s)}"
                        f"\twindows={len(s.system.help.windows)}"
                        f"\trecords="
                        f"{0 if s.journal is None else s.journal.seq}\n")
                finally:
                    s.oplock.release()
            else:
                lines.append(f"{s.id}\t{s.uname}\tbusy"
                             f"\twindows=?\trecords=?\n")
        for sid, uname in nominal:
            lines.append(f"{sid}\t{uname}\thibernated"
                         f"\twindows=?\trecords=?\n")
        return "".join(sorted(lines))

    def _stat_text(self, session_id: str) -> str:
        with self._lock:
            session = self.sessions.get(session_id)
            if session is None and session_id in self.hibernated:
                uname = self._hibernated_uname.get(session_id, "")
                return (f"id {session_id}\nuser {uname}\n"
                        f"state hibernated\n")
        if session is None:
            return f"id {session_id}\nstate gone\n"
        if not session.oplock.acquire(blocking=False):
            # an input is being applied right now: report that rather
            # than reading windows/seq mid-mutation
            return (f"id {session.id}\nuser {session.uname}\n"
                    f"state busy\n")
        try:
            h = session.system.help
            return (f"id {session.id}\nuser {session.uname}\n"
                    f"state {self._session_state(session)}\n"
                    f"windows {len(h.windows)}\n"
                    f"records "
                    f"{0 if session.journal is None else session.journal.seq}\n"
                    f"screen {h.screen.rect.width}x{h.screen.rect.height}\n")
        finally:
            session.oplock.release()

    # -- the ledger -------------------------------------------------------

    def session_ledger(self) -> tuple[int, int]:
        """(sessions opened, sessions closed) — same shape a router sums."""
        return (self.metrics.counter("host.sessions.opened"),
                self.metrics.counter("host.sessions.closed"))

    def audit(self) -> list[str]:
        """Check the host ledger; returns problems (empty = clean).

        Balances sessions opened against closed + live, balances the
        wake ledger (every hibernation is accounted for by a wake, a
        discard, a transfer to another shard, or a snapshot still on
        the spool), and asserts the host's own registry carries **no**
        session-scoped counters — session work always runs under the
        session's registry, so any such counter here is cross-session
        bleed.  The bleed total is recorded as ``host.sessions.bleed``
        (0 when clean) so the bench ledger always carries an explicit
        verdict.
        """
        problems: list[str] = []
        opened = self.metrics.counter("host.sessions.opened")
        closed = self.metrics.counter("host.sessions.closed")
        with self._lock:
            live = sum(1 for s in self.sessions.values() if s is not None)
            parked_on_disk = len(self.hibernated)
        if opened != closed + live:
            problems.append(f"session ledger unbalanced: opened {opened} "
                            f"!= closed {closed} + live {live}")
        hibernated = self.metrics.counter("host.sessions.hibernated")
        woken = self.metrics.counter("host.sessions.woken")
        discarded = self.metrics.counter("host.sessions.discarded")
        hib_in = self.metrics.counter("host.sessions.hib.in")
        hib_out = self.metrics.counter("host.sessions.hib.out")
        if hibernated + hib_in != woken + discarded + hib_out \
                + parked_on_disk:
            problems.append(
                f"wake ledger unbalanced: hibernated {hibernated} "
                f"+ in {hib_in} != woken {woken} + discarded {discarded} "
                f"+ out {hib_out} + parked {parked_on_disk}")
        leaked = 0
        for prefix in SESSION_PREFIXES:
            for name, value in sorted(self.metrics.counters(prefix).items()):
                problems.append(f"session counter {name}={value} leaked "
                                f"into the host ledger")
                leaked += abs(value)
        self.metrics.incr("host.sessions.bleed", leaked)
        problems.extend(self._audit_replica())
        return problems

    def _audit_replica(self) -> list[str]:
        """The replication ledger, both roles.

        Primary: every shipped frame is acked, still in flight, or a
        counted error.  Standby: every promoted session resurfaced as
        a live wake or a parked snapshot.
        """
        problems: list[str] = []
        feed = self.replica
        if feed is not None:
            shipped = self.metrics.counter("replica.ship.frames")
            acked = self.metrics.counter("replica.ack.frames")
            errors = self.metrics.counter("replica.ship.errors")
            inflight = feed.pending()
            if shipped != acked + inflight + errors:
                problems.append(
                    f"replica ship ledger unbalanced: shipped {shipped} "
                    f"!= acked {acked} + inflight {inflight} "
                    f"+ errors {errors}")
        promoted = self.metrics.counter("replica.sessions.promoted")
        p_live = self.metrics.counter("replica.promoted.live")
        p_parked = self.metrics.counter("replica.promoted.parked")
        if promoted != p_live + p_parked:
            problems.append(
                f"replica promotion ledger unbalanced: promoted "
                f"{promoted} != live {p_live} + parked {p_parked}")
        return problems

    def drain(self, into: MetricsRegistry | None = None) -> MetricsRegistry:
        """Fold every ledger (host, retired, live) into *into*.

        Benches call this after closing their connections so the
        process-default registry — and therefore ``BENCH_perf.json`` —
        carries the complete cross-session ledger (``fs.open ==
        fs.close`` across every session hosted, ``host.sessions.*``
        balance) for :mod:`repro.tools.benchgate` to audit.
        """
        target = into if into is not None else current_registry()
        target.merge(self.metrics)
        with self._lock:
            live = [s for s in self.sessions.values() if s is not None]
            target.merge(self._retired)
        for session in live:
            target.merge(session.metrics)
        return target
