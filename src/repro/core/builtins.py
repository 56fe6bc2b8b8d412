"""The built-in commands: Open, Cut, Paste, Snarf, New, and friends.

"By convention, capitalized commands represent built-in functions" and
"commands ending in an exclamation mark take no arguments; they are
window operations that apply to the window in which they are
executed."

A built-in is *not* a button: "Cut is not a 'button' in the usual
window system sense; it is just a word, wherever it appears, that is
bound to some action."  The binding lives here.

``Undo`` and ``Redo`` are this reproduction's extensions — the paper
lists undo first among the features "overdue" for the rewrite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.selection import expand_operand, parse_address, resolve_name
from repro.core.window import Subwindow, Window

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.execute import ExecContext, Executor

_REGISTRY: dict[str, Callable[["ExecContext"], None]] = {}


def builtin(name: str) -> Callable[[Callable[["ExecContext"], None]],
                                   Callable[["ExecContext"], None]]:
    """Register a function as the built-in command *name*."""
    def wrap(fn: Callable[["ExecContext"], None]) -> Callable[["ExecContext"], None]:
        _REGISTRY[name] = fn
        return fn
    return wrap


def register_all(executor: "Executor") -> None:
    """Install every built-in into *executor*."""
    for name, fn in _REGISTRY.items():
        executor.register(name, fn)


def _target(ctx: "ExecContext") -> tuple[Window, Subwindow]:
    """The window/subwindow a selection-oriented command acts on.

    That is the *current selection* — "the one with the most recent
    selection or typed text" — falling back to where the command was
    executed.
    """
    if ctx.help.current is not None:
        return ctx.help.current
    return (ctx.window, ctx.subwindow)


# -- editing -----------------------------------------------------------------


@builtin("Cut")
def cmd_cut(ctx: "ExecContext") -> None:
    """Delete the current selection, remembering it in the cut buffer."""
    window, sub = _target(ctx)
    removed = window.delete_selection(sub)
    if removed:
        ctx.help.snarf = removed


@builtin("Snarf")
def cmd_snarf(ctx: "ExecContext") -> None:
    """Remember the current selection without deleting it."""
    window, sub = _target(ctx)
    sel = window.selection(sub)
    grabbed = window.text(sub).slice(sel.q0, sel.q1)
    if grabbed:
        ctx.help.snarf = grabbed


@builtin("Paste")
def cmd_paste(ctx: "ExecContext") -> None:
    """Replace the current selection with the cut buffer's contents."""
    window, sub = _target(ctx)
    window.insert_at_selection(sub, ctx.help.snarf)


@builtin("Undo")
def cmd_undo(ctx: "ExecContext") -> None:
    """Undo the last body edit in the current window (extension)."""
    window, _ = _target(ctx)
    if not window.body.undo():
        ctx.help.post_error("help: nothing to undo\n")


@builtin("Redo")
def cmd_redo(ctx: "ExecContext") -> None:
    """Redo the last undone body edit in the current window (extension)."""
    window, _ = _target(ctx)
    if not window.body.redo():
        ctx.help.post_error("help: nothing to redo\n")


# -- files and windows --------------------------------------------------------


@builtin("Open")
def cmd_open(ctx: "ExecContext") -> None:
    """Open a file, directory, or ``file:line`` address in a window.

    With an argument (``Open /usr/rob/lib/profile``) the argument is
    the address.  Without one, the address comes from the current
    selection — expanded to the surrounding file name when null — and
    relative names get the selection's window directory prepended.
    """
    if ctx.arg:
        address_text = ctx.arg
        context_dir = ctx.window.directory()
        near: Window | None = ctx.window
    else:
        window, sub = _target(ctx)
        sel = window.selection(sub)
        _, _, address_text = expand_operand(window.text(sub), sel.q0, sel.q1)
        context_dir = window.directory()
        near = window
    if not address_text:
        ctx.help.post_error("help: Open: no file name\n")
        return
    address = parse_address(address_text)
    path = resolve_name(address.name, context_dir)
    ctx.help.open_path(path, line=address.line, near=near)


@builtin("New")
def cmd_new(ctx: "ExecContext") -> None:
    """Create a fresh empty window near the one executing the command."""
    ctx.help.new_window("", near=ctx.window)


@builtin("Close!")
def cmd_close(ctx: "ExecContext") -> None:
    """Delete the window the command was executed in."""
    ctx.help.close_window(ctx.window)


@builtin("Get!")
def cmd_get(ctx: "ExecContext") -> None:
    """Reload the window's body from the file (or directory) it names."""
    window = ctx.window
    name = window.name()
    if not name:
        ctx.help.post_error("help: Get!: window has no file name\n")
        return
    ns = ctx.help.ns
    bare = name.rstrip("/") or "/"
    if ns.isdir(bare):
        window.replace_body(ctx.help.directory_listing(bare))
        return
    if not ns.exists(bare):
        ctx.help.post_error(f"help: '{bare}' does not exist\n")
        return
    window.replace_body(ns.read(bare))


@builtin("Put!")
def cmd_put(ctx: "ExecContext") -> None:
    """Write the window's body back to the file named in its tag."""
    window = ctx.window
    name = window.name()
    if not name or name.endswith("/"):
        ctx.help.post_error("help: Put!: window has no plain file name\n")
        return
    try:
        ctx.help.ns.write(name, window.body.string())
    except Exception as exc:  # FsError carries a user-facing message
        ctx.help.report_error(exc, f"help: Put!: {exc}\n")
        return
    window.mark_clean()


@builtin("Write")
def cmd_write(ctx: "ExecContext") -> None:
    """Write the *current selection's* window back to its file.

    The edit tool's spelling of Put! for use from the tools column:
    point into a window, then click Write in ``/help/edit/stf``.
    """
    window, _ = _target(ctx)
    name = window.name()
    if not name or name.endswith("/"):
        ctx.help.post_error("help: Write: window has no plain file name\n")
        return
    try:
        ctx.help.ns.write(name, window.body.string())
    except Exception as exc:
        ctx.help.report_error(exc, f"help: Write: {exc}\n")
        return
    window.mark_clean()


@builtin("Clone!")
def cmd_clone(ctx: "ExecContext") -> None:
    """A second window on the same file (extension).

    The paper's rewrite wish list includes "multiple windows per
    file"; Clone! copies the window's name and body into a fresh
    window with an independent selection and scroll position.
    """
    window = ctx.window
    clone = ctx.help.new_window(window.name(), window.body.string(),
                                near=window)
    clone.org = window.org
    if window.dirty:
        clone.mark_dirty()


@builtin("Shell")
def cmd_shell(ctx: "ExecContext") -> None:
    """A traditional shell window (extension).

    Named ``<dir>/-rc`` so the window's directory context is where
    the shell runs; lines typed after the prompt execute when the
    newline lands — the one deliberate exception to "newline is just
    a character", which the paper's own wish list asks for.
    """
    window, _ = _target(ctx)
    directory = window.directory()
    shell_w = ctx.help.new_window(f"{directory}/-rc", near=window,
                                  tag_suffix="Close!")
    shell_w.is_shell = True
    shell_w.append("% ")
    shell_w.shell_input_start = len(shell_w.body)
    shell_w.body_sel.set(len(shell_w.body))
    ctx.help.current = (shell_w, Subwindow.BODY)


@builtin("Dump")
def cmd_dump(ctx: "ExecContext") -> None:
    """Write the session layout to a dump file (extension).

    ``Dump /path`` chooses the file; the default is
    ``/usr/rob/help.dump``.  ``Load`` restores it.
    """
    from repro.core import dump as dumpmod
    path = ctx.arg.strip() or "/usr/rob/help.dump"
    try:
        dumpmod.save(ctx.help, path)
    except Exception as exc:
        ctx.help.report_error(exc, f"help: Dump: {exc}\n")


@builtin("Load")
def cmd_load(ctx: "ExecContext") -> None:
    """Recreate a dumped session (extension)."""
    from repro.core import dump as dumpmod
    path = ctx.arg.strip() or "/usr/rob/help.dump"
    try:
        dumpmod.restore(ctx.help, path)
    except Exception as exc:
        ctx.help.report_error(exc, f"help: Load: {exc}\n")


@builtin("Exit")
def cmd_exit(ctx: "ExecContext") -> None:
    """Shut help down."""
    ctx.help.running = False


# -- searching ---------------------------------------------------------------


def _search(ctx: "ExecContext", literal: bool) -> None:
    window, sub = _target(ctx)
    needle = ctx.arg.strip("'\"")
    if not needle:
        sel = window.selection(sub)
        needle = window.text(sub).slice(sel.q0, sel.q1)
    if not needle:
        ctx.help.post_error("help: search: nothing to search for\n")
        return
    text = window.body
    start = window.body_sel.q1
    if literal:
        found = text.find(needle, start) or text.find(needle, 0)
    else:
        found = text.find_pattern(needle, start) or text.find_pattern(needle, 0)
    if found is None:
        ctx.help.post_error(f"help: '{needle}' not found\n")
        return
    window.body_sel.set(*found)
    window.show_line(text.line_of(found[0]))
    window.body_sel.set(*found)  # show_line reselects the line; restore
    ctx.help.current = (window, Subwindow.BODY)


@builtin("Text")
def cmd_text(ctx: "ExecContext") -> None:
    """Select the next literal occurrence of the argument (or selection)."""
    _search(ctx, literal=True)


@builtin("Pattern")
def cmd_pattern(ctx: "ExecContext") -> None:
    """Select the next regular-expression match of the argument."""
    _search(ctx, literal=False)
