"""Middle-button execution: builtins, context rules, external commands.

"Like the left mouse button, the middle button also selects text, but
the act of releasing the button ... executes the command indicated by
that text."  This module turns an executed string into an action:

- the first word names either a **built-in** (capitalized, registered
  in :mod:`repro.core.builtins`) or an **external program**;
- external commands are resolved through the window's *directory
  context*: "if the tag line of the window containing the command has
  a file name and the command does not begin with a slash, the
  directory of the file will be prepended to the command.  If that
  command cannot be found locally, it will be searched for in the
  standard directory of program binaries";
- their standard input is an empty file, and standard/error output is
  appended to the ``Errors`` window, created on demand;
- the selected text's location rides along in the ``helpsel``
  environment variable so tools like ``decl`` can see what the user is
  pointing at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.window import Subwindow, Window

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.help import Help

# Where external commands are looked up when the directory context
# does not supply them (Plan 9's /bin).
BIN_DIR = "/bin"


@dataclass
class CommandResult:
    """What running an external command produced."""

    status: int = 0
    stdout: str = ""
    stderr: str = ""


# The runner contract: (command line with argv[0] already resolved,
# working directory, environment) -> CommandResult.  The shell
# substrate provides the real implementation; help itself neither
# knows nor cares what language the tools are written in.
Runner = Callable[[str, str, dict[str, str]], CommandResult]


@dataclass
class ExecContext:
    """Everything a built-in command gets to see."""

    help: "Help"
    window: Window            # the window the command text was executed in
    subwindow: Subwindow
    cmd: str                  # first word of the executed text
    arg: str                  # the rest, stripped
    extent: tuple[int, int] = (0, 0)  # offsets of the executed text


class Executor:
    """Dispatches executed text to builtins or external commands."""

    def __init__(self, help_app: "Help", runner: Runner | None = None) -> None:
        self.help = help_app
        self.runner = runner
        self.builtins: dict[str, Callable[[ExecContext], None]] = {}
        from repro.core import builtins as _builtins
        _builtins.register_all(self)

    def register(self, name: str,
                 fn: Callable[[ExecContext], None]) -> None:
        """Bind built-in *name* to *fn* (used by builtins and by tests)."""
        self.builtins[name] = fn

    # -- dispatch ---------------------------------------------------------

    def execute(self, window: Window, subwindow: Subwindow, text: str,
                extent: tuple[int, int] = (0, 0)) -> None:
        """Execute *text* as selected in *window*'s *subwindow*.

        A filesystem failure anywhere below (a faulted ``/mnt/help``,
        a vanished file) must not take the interface down with it: it
        is reported in the Errors window, the paper's only channel
        from a failing tool to the user, and help stays live.
        """
        from repro.fs.errors import FsError
        text = text.strip()
        if not text:
            return
        if self.help.journal is not None:
            self.help.journal.trace("run", (text,))
        cmd, _, arg = text.partition(" ")
        ctx = ExecContext(self.help, window, subwindow, cmd, arg.strip(),
                          extent)
        try:
            builtin = self.builtins.get(cmd)
            if builtin is not None:
                builtin(ctx)
                return
            self._run_external(ctx)
        except FsError as exc:
            self.help.report_error(exc)

    # -- external commands ---------------------------------------------------

    def resolve_command(self, cmd: str, context_dir: str) -> str:
        """Apply the paper's resolution rules to *cmd*.

        A command in the window's directory context wins ("the
        directory of the file will be prepended to the command");
        otherwise the name passes through unchanged for the shell to
        find in the standard directory of program binaries — or in
        its own command table, where the simulated userland lives.
        """
        from repro.fs.vfs import join
        ns = self.help.ns
        if cmd.startswith("/"):
            return join("/", cmd)
        local = join(context_dir, cmd)
        if ns.exists(local) and not ns.isdir(local):
            return local
        return cmd

    def _run_external(self, ctx: ExecContext) -> None:
        context_dir = ctx.window.directory()
        resolved = self.resolve_command(ctx.cmd, context_dir)
        if self.runner is None:
            self.help.post_error(
                f"help: {ctx.cmd}: no command runner attached\n")
            return
        cmdline = resolved + (f" {ctx.arg}" if ctx.arg else "")
        env = self.environment(ctx)
        result = self.runner(cmdline, context_dir, env)
        if result.stdout:
            self.help.post_error(result.stdout)
        if result.stderr:
            self.help.post_error(result.stderr)

    def environment(self, ctx: ExecContext) -> dict[str, str]:
        """The environment an external command runs with.

        ``helpsel`` encodes the current selection as
        ``<window-id>:<subwindow>:<q0>:<q1>`` — "help passes to an
        application the file and character offset of the mouse
        position".
        """
        env: dict[str, str] = {}
        current = self.help.current
        if current is not None:
            window, subwindow = current
            sel = window.selection(subwindow)
            env["helpsel"] = f"{window.id}:{subwindow.value}:{sel.q0}:{sel.q1}"
        env["helpdir"] = ctx.window.directory()
        return env


def parse_helpsel(value: str) -> tuple[int, str, int, int]:
    """Decode a ``helpsel`` string back to (window id, subwindow, q0, q1).

    The inverse of :meth:`Executor.environment`; the ``help/parse``
    tool uses this.  Raises ValueError on malformed input.
    """
    parts = value.split(":")
    if len(parts) != 4 or parts[1] not in ("tag", "body"):
        raise ValueError(f"bad helpsel {value!r}")
    return (int(parts[0]), parts[1], int(parts[2]), int(parts[3]))
