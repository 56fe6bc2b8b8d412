"""The assembled ``help`` application.

This is the program the paper describes: "a self-contained program,
more like a shell than a library, that joins users and applications."
A :class:`Help` instance owns

- a :class:`~repro.fs.namespace.Namespace` through which *everything*
  is read and written,
- the :class:`~repro.core.screen.Screen` of columns and windows,
- the cut (*snarf*) buffer and the **current selection** — "the one
  with the most recent selection or typed text",
- the :class:`~repro.core.execute.Executor` binding middle-button text
  to builtins and external commands,
- an :class:`~repro.metrics.counter.InteractionStats` tally, because
  the paper's evaluation counts clicks and keystrokes.

Events arrive either raw (``mouse_press``/``mouse_drag``/
``mouse_release``/``type_text``, exactly what a display server would
deliver) or through the semantic conveniences built on them
(``left_click``, ``middle_click``, ``sweep`` ...) that tests and
examples use.  Both paths go through the same
:class:`~repro.core.events.MouseMachine`, so chords and sweeps behave
identically however they are driven.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.core.column import Column
from repro.core.events import (
    Button,
    Gesture,
    GestureKind,
    MouseMachine,
    Point,
    button_name,
)
from repro.core.execute import ExecContext, Executor, Runner
from repro.core.screen import Region, Screen
from repro.core.selection import expand_execution
from repro.core.window import Subwindow, Window
from repro.fs.errors import FsError, diagnostic
from repro.fs.namespace import Namespace
from repro.metrics.counter import InteractionStats

# Name of the window external command output lands in.
ERRORS = "Errors"

_BUTTON_NAMES = {Button.LEFT: "left", Button.MIDDLE: "middle",
                 Button.RIGHT: "right"}


def _opt(value) -> str:
    """A journal token for an optional field: '-' absent, '=v' present."""
    return "-" if value is None else f"={value}"


class Help:
    """One running help session."""

    def __init__(self, ns: Namespace | None = None, width: int = 100,
                 height: int = 40, ncolumns: int = 2,
                 runner: Runner | None = None,
                 tools_dir: str = "/help", context=None) -> None:
        # context is a repro.session.SessionContext; a session-scoped
        # Help takes its namespace (and metrics ledger) from it, a
        # bare Help still accepts the namespace positionally.
        if ns is None:
            if context is None:
                raise TypeError("Help needs a namespace or a context")
            ns = context.ns
        self.context = context
        self.ns = ns
        self.screen = Screen(width, height, ncolumns)
        self.windows: dict[int, Window] = {}
        self._next_id = 1
        self.snarf = ""
        self.current: tuple[Window, Subwindow] | None = None
        self.running = True
        self.tools_dir = tools_dir
        self.machine = MouseMachine()
        self.mouse = Point(0, 0)
        self.executor = Executor(self, runner)
        self.stats = InteractionStats()
        # a repro.journal.recorder.SessionRecorder, installed by
        # attach() (or carried in by the session context)
        self.journal = None if context is None else context.recorder

    @property
    def metrics(self):
        """This session's ledger (the process default when unscoped)."""
        if self.context is not None:
            return self.context.metrics
        from repro.metrics.counter import current_registry
        return current_registry()

    def _record(self, kind: str, *fields):
        """The journal tee around one mutating entry point.

        With no recorder attached this is free; with one, the record is
        appended (and, at top level, flushed) *before* the method body
        runs — the write-ahead ordering crash recovery depends on.
        """
        if self.journal is None:
            return nullcontext()
        return self.journal.recording(kind, fields)

    # -- boot ---------------------------------------------------------------

    def boot(self) -> None:
        """Load the boot window and the tools column (Figure 4).

        "When help starts it loads a set of 'tools' ... into the right
        hand column of its initially two-column screen.  These are
        files with names like /help/edit/stf ... Each is a plain text
        file that lists the names of the commands available as parts
        of the tool."
        """
        self.new_window("help/Boot", column=self.screen.columns[0],
                        tag_suffix="Exit")
        tools_column = self.screen.columns[-1]
        if not self.ns.isdir(self.tools_dir):
            return
        for name in sorted(self.ns.listdir(self.tools_dir)):
            stf = f"{self.tools_dir}/{name}/stf"
            if self.ns.exists(stf) and not self.ns.isdir(stf):
                self.new_window(stf, self.ns.read(stf), column=tools_column)

    # -- window management ----------------------------------------------------

    def new_window(self, name: str, body: str = "",
                   near: Window | None = None,
                   column: Column | None = None,
                   tag_suffix: str | None = None) -> Window:
        """Create a window, placed by the paper's heuristic.

        The column is, in order of preference: the explicit *column*,
        the column of *near*, the column of the current selection
        ("near the current selected text"), or the least crowded one.
        """
        with self._record(
                "newwin",
                _opt(None if column is None
                     else self.screen.columns.index(column)),
                _opt(None if near is None else near.id),
                _opt(tag_suffix), name, body):
            window = (Window(self._next_id, name, body)
                      if tag_suffix is None
                      else Window(self._next_id, name, body, tag_suffix))
            self._next_id += 1
            target = column
            if target is None and near is not None:
                target = self.screen.column_of(near)
            if target is None and self.current is not None:
                target = self.screen.column_of(self.current[0])
            if target is None:
                target = min(self.screen.columns, key=lambda c: len(c.windows))
            target.place(window)
            self.windows[window.id] = window
            return window

    def close_window(self, window: Window) -> None:
        """Remove *window* from the screen and forget it."""
        with self._record("close", window.id):
            self.screen.remove_window(window)
            self.windows.pop(window.id, None)
            if self.current is not None and self.current[0] is window:
                self.current = None

    def window_by_name(self, name: str) -> Window | None:
        """The first window whose tag names *name* (files are unique)."""
        for window in self.windows.values():
            if window.name() == name:
                return window
        return None

    def make_visible(self, window: Window) -> None:
        """Guarantee *window* shows, as a tab click would."""
        column = self.screen.column_of(window)
        if column is not None:
            column.make_visible(window)

    # -- files ----------------------------------------------------------------

    def directory_listing(self, path: str) -> str:
        """The body text of a directory window: entries, dirs slashed."""
        from repro.fs.vfs import join
        lines = []
        for name in self.ns.listdir(path):
            suffix = "/" if self.ns.isdir(join(path, name)) else ""
            lines.append(name + suffix)
        return "".join(line + "\n" for line in lines)

    def open_path(self, path: str, line: int | None = None,
                  near: Window | None = None) -> Window | None:
        """The Open operation on a resolved absolute *path*.

        Directories get a listing body and a trailing slash in the tag
        (Figure 1); an already-open file's window is just made visible;
        a ``line`` positions and selects that line (Figure 8).
        """
        with self._record("open", path, _opt(line),
                          _opt(None if near is None else near.id)):
            if self.ns.isdir(path):
                name = path if path.endswith("/") else path + "/"
                existing = self.window_by_name(name)
                if existing is not None:
                    self.make_visible(existing)
                    return existing
                return self.new_window(name, self.directory_listing(path),
                                       near=near)
            existing = self.window_by_name(path)
            if existing is not None:
                self.make_visible(existing)
                if line is not None:
                    existing.show_line(line)
                return existing
            if not self.ns.exists(path):
                self.post_error(f"help: '{path}' does not exist\n")
                return None
            window = self.new_window(path, self.ns.read(path), near=near)
            if line is not None:
                window.show_line(line)
            return window

    # -- the Errors window ----------------------------------------------------

    def errors_window(self) -> Window:
        """The Errors window, created on demand.

        "The standard and error outputs are directed to a special
        window, called Errors, that will be created automatically if
        needed."
        """
        existing = self.window_by_name(ERRORS)
        if existing is None:
            existing = self.new_window(ERRORS, tag_suffix="Close!")
        return existing

    def post_error(self, text: str) -> None:
        """Append *text* to the Errors window (and keep it visible)."""
        if not text:
            return
        window = self.errors_window()
        window.append(text)
        self.make_visible(window)

    def report_error(self, exc: Exception, text: str | None = None) -> None:
        """Post a failure to the Errors window: *text*, else the error's
        diagnostic line.  That line is help's report of a taxonomy
        error, so the error is counted here: ``fs.error.<kind>``, once."""
        if isinstance(exc, FsError):
            self.metrics.incr(f"fs.error.{exc.kind}")
        self.post_error(text or f"help: {diagnostic(exc)}\n")

    # -- selection ------------------------------------------------------------

    def select(self, window: Window, q0: int, q1: int,
               subwindow: Subwindow = Subwindow.BODY) -> None:
        """Set a subwindow's selection and make it the current one."""
        with self._record("select", window.id, subwindow.value, q0, q1):
            text = window.text(subwindow)
            lo = max(0, min(q0, len(text)))
            hi = max(0, min(q1, len(text)))
            window.selection(subwindow).set(min(lo, hi), max(lo, hi))
            self.current = (window, subwindow)

    def point_at(self, window: Window, pos: int,
                 subwindow: Subwindow = Subwindow.BODY) -> None:
        """A null selection at *pos*: what a bare left click leaves."""
        self.select(window, pos, pos, subwindow)

    def selected_text(self) -> str:
        """The text of the current selection ('' if none)."""
        if self.current is None:
            return ""
        window, sub = self.current
        sel = window.selection(sub)
        return window.text(sub).slice(sel.q0, sel.q1)

    # -- execution ------------------------------------------------------------

    def execute_text(self, window: Window, text: str,
                     subwindow: Subwindow = Subwindow.BODY) -> None:
        """Execute *text* as though middle-swept in *window*.

        The programmatic twin of the middle button, used by the help
        file server's ``event`` path and by tests.
        """
        with self._record("exec", window.id, subwindow.value, text):
            self.stats.note(
                f"execute:{text.split()[0] if text.split() else ''}")
            self.executor.execute(window, subwindow, text)

    def exec_builtin(self, name: str, window: Window,
                     subwindow: Subwindow = Subwindow.BODY,
                     arg: str = "") -> None:
        """Invoke built-in *name* directly (chords use this for Cut/Paste)."""
        with self._record("builtin", name, window.id, subwindow.value, arg):
            fn = self.executor.builtins[name]
            fn(ExecContext(self, window, subwindow, name, arg))

    # -- raw events -----------------------------------------------------------

    def mouse_press(self, x: int, y: int, button: Button) -> None:
        """A mouse button went down."""
        with self._record("mouse-press", x, y, button_name(button)):
            self.mouse = Point(x, y)
            self.stats.press(_BUTTON_NAMES.get(button, "?"))
            gestures = self.machine.press(x, y, button)
            if (button is Button.LEFT and self.machine.primary is Button.LEFT
                    and not gestures):
                # A left press starts a selection immediately: chords that
                # fire before any drag must see the null selection here.
                hit = self.screen.hit(x, y)
                if hit.window is not None and hit.subwindow is not None:
                    self.select(hit.window, hit.pos, hit.pos, hit.subwindow)
            for gesture in gestures:
                self._handle(gesture)

    def mouse_drag(self, x: int, y: int) -> None:
        """The mouse moved with a button held."""
        with self._record("mouse-drag", x, y):
            self.mouse = Point(x, y)
            for gesture in self.machine.drag(x, y):
                self._handle(gesture)

    def mouse_release(self, x: int, y: int, button: Button) -> None:
        """A mouse button came up."""
        with self._record("mouse-release", x, y, button_name(button)):
            self.mouse = Point(x, y)
            for gesture in self.machine.release(x, y, button):
                self._handle(gesture)

    def mouse_move(self, x: int, y: int) -> None:
        """The mouse moved with no buttons (typing targets follow it)."""
        with self._record("mouse-move", x, y):
            self.mouse = Point(x, y)

    def type_text(self, s: str) -> None:
        """Type *s* into the subwindow under the mouse.

        "Typed text replaces the selection in the subwindow under the
        mouse.  Note that typing does not execute commands: newline is
        just a character."
        """
        with self._record("type", s):
            self.stats.keys(len(s))
            hit = self.screen.hit(self.mouse.x, self.mouse.y)
            if hit.window is not None and hit.subwindow is not None:
                target, sub = hit.window, hit.subwindow
            elif self.current is not None:
                target, sub = self.current
            else:
                return
            target.type_text(sub, s)
            self.current = (target, sub)
            if target.is_shell and sub is Subwindow.BODY and "\n" in s:
                self._shell_lines(target)

    def _shell_lines(self, window: Window) -> None:
        """Run completed input lines of a shell window.

        Everything between the prompt (``shell_input_start``) and a
        typed newline is a command; its output lands in the window,
        followed by a fresh prompt.
        """
        if self.executor.runner is None:
            return
        while True:
            body = window.body.string()
            start = min(window.shell_input_start, len(body))
            newline = body.find("\n", start)
            if newline < 0:
                return
            command = body[start:newline]
            window.shell_input_start = newline + 1
            if command.strip():
                result = self.executor.runner(
                    command, window.directory(), {"helpdir": window.directory()})
                window.append(result.stdout)
                window.append(result.stderr)
            window.append("% ")
            window.shell_input_start = len(window.body)
            window.body_sel.set(len(window.body))
            window.mark_clean()

    # -- semantic conveniences ------------------------------------------------

    def left_click(self, x: int, y: int) -> None:
        """Press and release the left button at (x, y)."""
        self.mouse_press(x, y, Button.LEFT)
        self.mouse_release(x, y, Button.LEFT)

    def middle_click(self, x: int, y: int) -> None:
        """Press and release the middle button at (x, y)."""
        self.mouse_press(x, y, Button.MIDDLE)
        self.mouse_release(x, y, Button.MIDDLE)

    def sweep(self, x0: int, y0: int, x1: int, y1: int,
              button: Button = Button.LEFT) -> None:
        """Press at (x0, y0), drag to and release at (x1, y1)."""
        self.mouse_press(x0, y0, button)
        self.mouse_drag(x1, y1)
        self.mouse_release(x1, y1, button)

    def right_drag(self, x0: int, y0: int, x1: int, y1: int) -> None:
        """Drag a window by its tag from (x0, y0) to (x1, y1)."""
        self.sweep(x0, y0, x1, y1, Button.RIGHT)

    # -- gesture handling -----------------------------------------------------

    def _handle(self, gesture: Gesture) -> None:
        kind = gesture.kind
        if kind in (GestureKind.SWEEP, GestureKind.SELECT):
            self._handle_select(gesture)
        elif kind is GestureKind.EXECUTE:
            self._handle_execute(gesture)
        elif kind is GestureKind.MOVE:
            self._handle_move(gesture)
        elif kind is GestureKind.CHORD_CUT:
            # press and drag have already maintained the live selection
            if self.current is not None:
                self.stats.note("chord:cut")
                self.exec_builtin("Cut", *self.current)
        elif kind is GestureKind.CHORD_PASTE:
            if self.current is not None:
                self.stats.note("chord:paste")
                self.exec_builtin("Paste", *self.current)

    def _handle_select(self, gesture: Gesture) -> None:
        start = self.screen.hit(gesture.start.x, gesture.start.y)
        if start.region is Region.HEADER:
            if gesture.kind is GestureKind.SELECT and start.column is not None:
                self.screen.expand_column(
                    self.screen.columns.index(start.column))
            return
        if start.region is Region.TAB:
            if gesture.kind is not GestureKind.SELECT or start.column is None:
                return
            if start.window is not None:
                start.column.make_visible(start.window)
            else:
                self._scroll_click(start.column, gesture.start.y, up=True)
            return
        if start.window is None or start.subwindow is None:
            return
        end = self.screen.hit(gesture.end.x, gesture.end.y)
        q0 = start.pos
        q1 = end.pos if (end.window is start.window
                         and end.subwindow is start.subwindow) else q0
        self.select(start.window, min(q0, q1), max(q0, q1), start.subwindow)

    def _handle_execute(self, gesture: Gesture) -> None:
        start = self.screen.hit(gesture.start.x, gesture.start.y)
        if start.region is Region.TAB and start.column is not None:
            if start.window is None:
                self._scroll_click(start.column, gesture.start.y, up=False)
            return
        if start.window is None or start.subwindow is None:
            return
        text = start.window.text(start.subwindow)
        if gesture.is_click:
            q0, q1, command = expand_execution(text, start.pos, start.pos)
        else:
            end = self.screen.hit(gesture.end.x, gesture.end.y)
            pos1 = end.pos if (end.window is start.window
                               and end.subwindow is start.subwindow) else start.pos
            q0, q1 = min(start.pos, pos1), max(start.pos, pos1)
            q0, q1, command = expand_execution(text, q0, q1)
        self.stats.note(f"execute:{command.split()[0] if command.split() else ''}")
        self.executor.execute(start.window, start.subwindow, command, (q0, q1))

    def _handle_move(self, gesture: Gesture) -> None:
        start = self.screen.hit(gesture.start.x, gesture.start.y)
        if start.region is not Region.TAG or start.window is None:
            return
        self.screen.move_window(start.window, gesture.end.x, gesture.end.y)

    def _scroll_click(self, column: Column, y: int, up: bool) -> None:
        """A click in the tab strip beside a window's body scrolls it.

        Left scrolls toward the beginning, middle toward the end, by
        the number of rows between the window top and the click — the
        8 1/2-style scroll bar the paper's "only text, scroll bars,
        one simple kind of window" sentence implies.
        """
        window = column.window_at(y)
        if window is None:
            return
        rect = column.win_rect(window)
        frame = column.body_frame(window)
        if rect is None or frame is None:
            return
        amount = max(1, y - rect.y0)
        delta = -amount if up else amount
        window.org = frame.scroll(window.body, window.org, delta)

    def resize(self, width: int, height: int) -> None:
        """Resize the display (a reparented terminal, a new monitor)."""
        with self._record("resize", width, height):
            self.screen.resize(width, height)

    def hover(self, x: int, y: int) -> str:
        """What pointing at (x, y) would tell the user, without a click.

        The paper's own improvement idea for the tab tower: "perhaps
        the file name of each window should pop up alongside the tabs
        when the mouse is nearby."  Over a tab square this returns the
        window's name (hidden windows marked); elsewhere it returns ''.
        """
        hit = self.screen.hit(x, y)
        if hit.region is not Region.TAB or hit.window is None:
            return ""
        name = hit.window.name() or f"(window {hit.window.id})"
        return f"{name} (hidden)" if hit.window.hidden else name

    def scroll(self, window: Window, lines: int) -> None:
        """Scroll *window*'s body by *lines* rows (negative scrolls up)."""
        with self._record("scroll", window.id, lines):
            column = self.screen.column_of(window)
            if column is None:
                return
            frame = column.body_frame(window)
            if frame is None:
                return
            window.org = frame.scroll(window.body, window.org, lines)

    def replace_body(self, window: Window, text: str,
                     dirty: bool = False) -> None:
        """Replace *window*'s whole body (the programmatic file rewrite).

        The recordable twin of :meth:`repro.core.window.Window.replace_body`
        — tools and tests that rewrite a body wholesale should come
        through here so the journal sees the mutation.
        """
        with self._record("replace-body", window.id, int(dirty), text):
            window.replace_body(text, dirty=dirty)
