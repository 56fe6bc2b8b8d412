"""ASCII screenshots of a help screen.

The paper's twelve figures are bitmaps of text screens; this renderer
reproduces them as character grids so the figure benchmarks can save
comparable artifacts.  Conventions:

- row 0 is the header strip; each column's expand square is ``#``;
- the left edge of each column carries the tab tower: ``#`` per
  window (visible or hidden, in order), then ``|`` down the column;
- each window's tag row is drawn between ``[`` and ``]`` so windows
  are visually separated the way the originals' borders separate them;
- the current selection can be marked in a footer (reverse video has
  no ASCII equivalent that preserves the grid).

Rendering is **damage tracked**: each ``Help`` instance keeps a
persistent canvas, and a repaint only redraws windows whose signature
— ``(tag version, body version, scroll origin, extent, width)`` —
changed since the canvas was last painted.  Any *structural* change
(column edges, window set, visibility, tag rows, screen size) repaints
everything, because geometry moves are rare and cheap relative to
getting partial-clear bookkeeping wrong.  ``render_screen(...,
full=True)`` bypasses and ignores the cache entirely; golden and
figure tests use it to prove the damage-tracked output is
byte-identical to a from-scratch paint.  Cells repainted and
full/damage render counts land in :mod:`repro.metrics.counter`.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.core.frame import Frame
from repro.metrics.counter import incr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.column import Column
    from repro.core.help import Help
    from repro.core.window import Window


class _ScreenCache:
    """Persistent canvas plus the signatures it was painted from, and
    the grid joined from it: each row's string and the whole."""

    __slots__ = ("canvas", "structure", "window_sigs", "rows", "grid")

    def __init__(self, canvas: list[list[str]], structure: object,
                 window_sigs: dict[int, object], rows: list[str]) -> None:
        self.canvas = canvas
        self.structure = structure
        self.window_sigs = window_sigs
        self.rows = rows
        self.grid = "\n".join(rows)


_screen_caches: "weakref.WeakKeyDictionary[Help, _ScreenCache]" = \
    weakref.WeakKeyDictionary()


def _structure_sig(help_app: "Help") -> object:
    """Everything that decides *where* things draw (not their text)."""
    screen = help_app.screen
    return (screen.rect,
            tuple((column.rect,
                   tuple(w.id for w in column.tab_order()),
                   tuple((w.id, w.y) for w in column.visible()))
                  for column in screen.columns))


def _window_sig(column: "Column", window: "Window") -> object:
    """Everything that decides what one window's cells look like."""
    rect = column.win_rect(window)
    return (window.tag.version, window.body.version, window.org,
            rect, column.text_width, column.body_x0)


def render_screen(help_app: "Help", footer: bool = True,
                  full: bool = False) -> str:
    """The whole screen as a character grid, one string.

    With ``full=True`` the persistent canvas is neither used nor
    touched: the grid is painted from scratch, which regression tests
    compare against the damage-tracked output.  Otherwise only the
    rows of repainted windows are joined again, and an unchanged
    screen returns the cached grid itself; the footer is always new.
    """
    rect = help_app.screen.rect
    cache = None if full else _screen_caches.get(help_app)
    structure = _structure_sig(help_app)
    if full or cache is None or cache.structure != structure:
        canvas = [[" "] * rect.width for _ in range(rect.height)]
        for column in help_app.screen.columns:
            _render_column(help_app, column, canvas)
        incr("render.full")
        incr("render.cells_repainted", rect.width * rect.height)
        rows = [_join(row) for row in canvas]
        if full:
            grid = "\n".join(rows)
        else:
            sigs = {window.id: _window_sig(column, window)
                    for column in help_app.screen.columns
                    for window in column.visible()}
            cache = _ScreenCache(canvas, structure, sigs, rows)
            _screen_caches[help_app] = cache
            grid = cache.grid
    else:
        incr("render.damage")
        dirty: set[int] = set()
        for column in help_app.screen.columns:
            for window in column.visible():
                sig = _window_sig(column, window)
                if cache.window_sigs.get(window.id) != sig:
                    wrect = _repaint_window(column, window, cache.canvas)
                    if wrect is not None:
                        dirty.update(range(wrect.y0, wrect.y1))
                    cache.window_sigs[window.id] = sig
        if dirty:
            for y in dirty:
                cache.rows[y] = _join(cache.canvas[y])
            cache.grid = "\n".join(cache.rows)
        grid = cache.grid
    if footer:
        return grid + "\n" + _footer(help_app)
    return grid


def _join(row: list[str]) -> str:
    return "".join(row).rstrip()


def _render_column(help_app: "Help", column, canvas: list[list[str]]) -> None:
    rect = column.rect
    # header square for this column
    canvas[0][rect.x0] = "#"
    # tab tower
    order = column.tab_order()
    for i in range(rect.y0, rect.y1):
        x = rect.x0
        canvas[i][x] = "#" if i - rect.y0 < len(order) else "|"
    # windows
    for window in column.visible():
        _paint_window(column, window, canvas)


def _paint_window(column, window, canvas: list[list[str]]) -> None:
    """Draw one window's tag row and body into the canvas."""
    wrect = column.win_rect(window)
    if wrect is None:
        return
    width = column.text_width
    tag = window.tag.string().split("\n", 1)[0]
    _put(canvas, wrect.y0, column.body_x0, ("[" + tag)[:width].ljust(width, " "))
    if width >= 1:
        end_x = column.body_x0 + width - 1
        if canvas[wrect.y0][end_x] == " ":
            canvas[wrect.y0][end_x] = "]"
    if wrect.height > 1:
        frame = Frame(width, wrect.height - 1)
        for line in frame.layout(window.body, window.org):
            text = window.body.slice(line.start, line.end)
            _put(canvas, wrect.y0 + 1 + line.row, column.body_x0, text[:width])


def _repaint_window(column, window, canvas: list[list[str]]):
    """Damage repaint: blank the window's rect, then draw it fresh.

    Returns the rect repainted (None for a window with no room).
    """
    wrect = column.win_rect(window)
    if wrect is None:
        return None
    blank = [" "] * wrect.width
    for y in range(wrect.y0, wrect.y1):
        canvas[y][wrect.x0:wrect.x1] = blank
    incr("render.cells_repainted", wrect.width * wrect.height)
    incr("render.windows_repainted")
    _paint_window(column, window, canvas)
    return wrect


def _put(canvas: list[list[str]], row: int, x0: int, s: str) -> None:
    if not 0 <= row < len(canvas):
        return
    for i, ch in enumerate(s):
        x = x0 + i
        if 0 <= x < len(canvas[row]):
            canvas[row][x] = ch if ch != "\t" else " "


def _footer(help_app: "Help") -> str:
    current = help_app.current
    if current is None:
        return "-- no selection --"
    window, sub = current
    sel = window.selection(sub)
    text = window.text(sub).slice(sel.q0, sel.q1)
    shown = text if len(text) <= 40 else text[:37] + "..."
    shown = shown.replace("\n", "\\n")
    return (f"-- selection: window {window.id} ({window.name() or 'unnamed'}) "
            f"{sub.value} {sel.q0}..{sel.q1} {shown!r} --")


def render_window(help_app: "Help", window: "Window") -> str:
    """Just one window (tag plus visible body), as the screen shows it."""
    column = help_app.screen.column_of(window)
    if column is None:
        return ""
    wrect = column.win_rect(window)
    if wrect is None:
        return f"[{window.tag.string()}] (hidden)"
    width = column.text_width
    lines = [window.tag.string().split(chr(10), 1)[0][:width]]
    if wrect.height > 1:
        frame = Frame(width, wrect.height - 1)
        for line in frame.layout(window.body, window.org):
            lines.append(window.body.slice(line.start, line.end)[:width])
    return "\n".join(lines)
