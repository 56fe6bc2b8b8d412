"""Seeded traffic for the hosted-help benchmark.

Every workload's inputs are a pure function of the seed, and each run
prints a CRC of them, so two runs can show they sent the same bytes.

* ``edit`` and ``replicated`` replay a keystroke-level editing script
  on exec.c.  The script is recorded by driving a local world through
  Help's own API under a shadow journal, the way
  ``sessioncheck.record_figures()`` records the figure scripts.  Each
  step keeps the CRC of the screen the local world shows after it, so
  every screen the server returns can be checked.
* ``visit`` reuses loadgen's traffic model (``build_models()``,
  ``DEFAULT_WEIGHTS``, ``plan_user()``) as one ordered stream of
  visits, with the returning cohort interleaved later in the stream.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.core.render import render_screen
from repro.journal.log import Journal
from repro.journal.recorder import apply_record, attach
from repro.journal.record import Record
from repro.tools.corpus import SRC_DIR
from repro.tools.install import build_system
from repro.tools.loadgen import TrafficModel, build_models, plan_user

WIDTH, HEIGHT = 160, 60
EDIT_FILE = f"{SRC_DIR}/exec.c"

# Keystroke mix of the editing script: mostly typing, some selecting
# (a click somewhere on the visible text) and some scrolling.
TYPE_SHARE, SELECT_SHARE = 0.80, 0.12
KEYS = "etaoinshrdlucmfwypvbgk" * 3 + "     ;(){}*" + "\n"

# A returning user comes back this many visits (drawn per user) after
# their first visit, so returns are spread through the whole stream.
RETURN_GAP = (4, 24)


def crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def screen_crc(help_app) -> int:
    return crc(render_screen(help_app))


def local_world():
    return build_system(width=WIDTH, height=HEIGHT)


def record_line(record: Record) -> str:
    """A journal input record as one line of a session's input file."""
    if record.payload:
        return f"{record.kind} {record.payload}\n"
    return f"{record.kind}\n"


# -- the editing script -----------------------------------------------------


def edit_script(seed: int, steps: int) -> tuple[str, ...]:
    """Record *steps* editing inputs in a local world."""
    rng = random.Random(f"hostbench:edit:{seed}")
    h = local_world().help
    journal = Journal()  # shadow: records in memory only
    attach(h, journal)
    lines: list[str] = []
    seen = 0
    window = None
    while len(lines) < steps:
        if window is None:
            window = h.open_path(EDIT_FILE)
        elif len(lines) == 1:
            h.point_at(window, window.org)
        else:
            roll = rng.random()
            if roll < TYPE_SHARE:
                h.type_text(rng.choice(KEYS))
            elif roll < TYPE_SHARE + SELECT_SHARE:
                span = min(1200, len(window.body.string()) - window.org)
                h.point_at(window, window.org + rng.randrange(max(1, span)))
            else:
                h.scroll(window, rng.choice((-3, -1, 1, 3)))
        fresh = [r for r in journal.records[seen:] if r.applies]
        seen = len(journal.records)
        if len(fresh) != 1:
            raise RuntimeError(f"an edit step recorded {len(fresh)} inputs")
        lines.append(record_line(fresh[0]))
    return tuple(lines)


def replay_screens(lines, read_after: set[int]) -> tuple[dict[int, int], str]:
    """Apply *lines* to a fresh local world, rendering where the server
    was read: the screen CRC after each input in *read_after*, and the
    final screen."""
    h = local_world().help
    screens: dict[int, int] = {}
    for i, line in enumerate(lines):
        kind, _, payload = line.rstrip("\n").partition(" ")
        apply_record(h, Record(0, kind, payload))
        if i in read_after:
            screens[i] = screen_crc(h)
    return screens, render_screen(h)


# -- the visit stream -------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    """One traffic model: its input lines and the screen after each."""

    model: TrafficModel
    screens: tuple[int, ...]   # CRC after model.lines[:i + 1]
    final: str                 # record_figures()'s screen for the figure


@dataclass(frozen=True)
class Visit:
    """One entry of the visit stream: a first visit or a return."""

    uid: int
    aname: str
    model: str
    returning: bool
    # ("write", index) / ("read", 0): loadgen's plan without think time
    steps: tuple[tuple[str, int], ...]


def figures() -> dict[str, Figure]:
    """loadgen's weighted figure models, with every prefix screen."""
    from repro.tools.sessioncheck import record_figures

    recorded = record_figures()
    out: dict[str, Figure] = {}
    for model in build_models():
        world = local_world()
        screens = []
        for line in model.lines:
            kind, _, payload = line.rstrip("\n").partition(" ")
            apply_record(world.help, Record(0, kind, payload))
            screens.append(screen_crc(world.help))
        final = recorded[model.name]["screen"]
        if crc(final) != screens[-1]:
            raise RuntimeError(f"{model.name}: replayed records do not "
                               f"reproduce the recorded screen")
        out[model.name] = Figure(model, tuple(screens), final)
    return out


def visit_stream(seed: int, users: int, models: dict[str, Figure]
                 ) -> list[Visit]:
    """*users* first visits, each returner placed later in the stream."""
    weighted = [models[name].model for name in sorted(models)]
    gap_rng = random.Random(f"hostbench:visit:{seed}")
    stream: list[Visit] = []
    due: dict[int, list[Visit]] = {}
    for uid in range(users):
        stream.extend(due.pop(uid, []))
        plan = plan_user(seed, uid, weighted)
        steps = tuple((op, int(arg)) for op, arg in plan.steps
                      if op != "think")
        stream.append(Visit(uid, plan.aname, plan.model, False, steps))
        if plan.wake:
            back = uid + gap_rng.randint(*RETURN_GAP)
            due.setdefault(back, []).append(
                Visit(uid, plan.aname, plan.model, True, (("read", 0),)))
    return stream


def visit_text(stream: list[Visit]) -> str:
    return "".join(
        f"{v.aname} {v.model} {'return' if v.returning else 'visit'} "
        + ";".join(f"{op[0]}{arg}" for op, arg in v.steps) + "\n"
        for v in stream)
