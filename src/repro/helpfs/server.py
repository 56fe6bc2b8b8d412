"""The /mnt/help tree: numbered window directories served on demand.

Mount with :meth:`HelpFS.mount` and every process sharing the
namespace can script the user interface::

    ns.read('/mnt/help/7/body')                 # read a window
    with ns.open('/mnt/help/7/ctl', 'w') as f:  # edit it
        f.write('delete 10 20\\n')
    with ns.open('/mnt/help/new/ctl') as f:     # make a window
        wid = int(f.read())

Errors raised by bad ctl messages surface in the Errors window, since
the writing process has no other channel to the user.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.window import Window
from repro.fs.errors import FsError, Invalid
from repro.fs.server import SynthDir, SynthFile, SynthSession
from repro.fs.vfs import Node
from repro.helpfs.ctl import CtlError, apply_ctl, ctl_status

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.help import Help
    from repro.fs.namespace import Namespace


class HelpFS:
    """Serves a :class:`~repro.core.help.Help` instance as a file tree."""

    def __init__(self, help_app: "Help", context=None) -> None:
        self.help = help_app
        # a repro.session.SessionContext: which session this server
        # belongs to (defaults to its Help's)
        self.context = context if context is not None \
            else getattr(help_app, "context", None)
        self.root = SynthDir("help",
                             list_fn=self._list_root,
                             lookup_fn=self._lookup_root)

    def mount(self, ns: "Namespace", at: str = "/mnt/help") -> None:
        """Graft the server into *ns* at *at* (created if missing)."""
        if not ns.exists(at):
            ns.mkdir(at, parents=True)
        ns.mount(self.root, at)

    def _trace(self, kind: str, *fields) -> None:
        """Tee one server-side mutation into the session journal.

        These are derived records: the commands that caused them are
        replayed, the server regenerates them, and the journal's
        divergence check compares the two streams.
        """
        recorder = self.help.journal
        if recorder is not None:
            recorder.trace(kind, fields)

    # -- root directory -------------------------------------------------------

    def _list_root(self) -> list[Node]:
        nodes: list[Node] = [self._index_file(), self._new_dir()]
        for wid in sorted(self.help.windows):
            nodes.append(self._window_dir(self.help.windows[wid]))
        return nodes

    def _lookup_root(self, name: str) -> Node | None:
        if name == "index":
            return self._index_file()
        if name == "new":
            return self._new_dir()
        if name.isdigit():
            window = self.help.windows.get(int(name))
            if window is not None:
                return self._window_dir(window)
        return None

    # -- index ----------------------------------------------------------------

    def _index_file(self) -> SynthFile:
        return SynthFile("index", read_fn=self._index_text)

    def _index_text(self) -> str:
        """"Each line of this file is a window number, a tab, and the
        first line of the tag."""
        lines = []
        for wid in sorted(self.help.windows):
            window = self.help.windows[wid]
            first = window.tag.string().split("\n", 1)[0]
            lines.append(f"{wid}\t{first}\n")
        return "".join(lines)

    # -- per-window directories -----------------------------------------------

    def _window_dir(self, window: Window) -> SynthDir:
        files = [
            SynthFile("tag",
                      read_fn=lambda w=window: w.tag.string() + "\n",
                      write_fn=lambda line, w=window: self._set_tag(w, line)),
            SynthFile("body",
                      open_fn=lambda mode, w=window: self._body_session(w, mode)),
            SynthFile("bodyapp",
                      write_fn=lambda s, w=window: self._bodyapp(w, s)),
            SynthFile("ctl",
                      open_fn=lambda mode, w=window: self._ctl_session(w, mode)),
        ]
        return SynthDir(str(window.id), list_fn=lambda fs=files: list(fs))

    def _set_tag(self, window: Window, line: str) -> None:
        """Writing the tag file replaces the tag line."""
        self._trace("fs-tag", window.id, line.rstrip("\n"))
        window.tag.set_string(line.rstrip("\n"))
        window.tag_sel.set(0, 0)

    def _body_session(self, window: Window, mode: str) -> SynthSession:
        name = f"{window.id}/body"
        if mode == "r":
            return SynthSession("r", read_fn=lambda: window.body.string(),
                                name=name)
        if mode == "a":
            return _RawWriteSession(
                mode, lambda s, w=window: self._body_write(w, "a", s),
                name=name)
        if mode in ("w", "rw"):
            window.replace_body("")
            return _RawWriteSession(
                "w", lambda s, w=window: self._body_write(w, "w", s),
                name=name)
        raise Invalid(f"bad open mode '{mode}'", path=name, op="open")

    def _body_write(self, window: Window, mode: str, s: str) -> None:
        import zlib
        self._trace("fs-body", window.id, mode, len(s),
                    f"{zlib.crc32(s.encode()) & 0xffffffff:08x}")
        window.append(s)

    def _ctl_session(self, window: Window, mode: str) -> SynthSession:
        name = f"{window.id}/ctl"
        if mode == "r":
            return SynthSession("r", read_fn=lambda: ctl_status(window),
                                name=name)
        return SynthSession(mode,
                            read_fn=lambda: ctl_status(window),
                            write_fn=lambda line: self._apply(window, line),
                            name=name)

    def _bodyapp(self, window: Window, s: str) -> None:
        import zlib
        self._trace("fs-bodyapp", window.id, len(s),
                    f"{zlib.crc32(s.encode()) & 0xffffffff:08x}")
        window.append(s)

    def _apply(self, window: Window, line: str) -> None:
        self._trace("fs-ctl", window.id, line.rstrip("\n"))
        try:
            apply_ctl(self.help, window, line)
        except CtlError as exc:
            self.help.post_error(f"help: {exc}\n")
        except FsError as exc:
            # A ctl message that touched the filesystem and failed:
            # the writer has no other channel to the user.
            self.help.report_error(exc)

    # -- window creation ------------------------------------------------------

    def _new_dir(self) -> SynthDir:
        ctl = SynthFile("ctl", open_fn=self._new_session)
        return SynthDir("new", list_fn=lambda c=ctl: [c])

    def _new_session(self, mode: str) -> SynthSession:
        """Opening ``new/ctl`` creates a window near the selection.

        "a process just opens /mnt/help/new/ctl, which places the new
        window automatically on the screen near the current selected
        text, and may then read from that file the name of the window
        created."  Reading yields the window number; writes are ctl
        messages for the fresh window.
        """
        window = self.help.new_window("")
        return SynthSession(mode,
                            read_fn=lambda: f"{window.id}\n",
                            write_fn=lambda line: self._apply(window, line),
                            name=f"{window.id}/ctl")


class _RawWriteSession(SynthSession):
    """A write session that forwards chunks unbuffered (body writes)."""

    def __init__(self, mode: str, sink, name: str = "") -> None:
        super().__init__(mode, write_fn=sink, name=name)

    def write(self, s: str) -> int:
        self._check("w")
        if self._write_fn is not None:
            self._write_fn(s)
        return len(s)
