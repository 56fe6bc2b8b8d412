"""The filesystem error taxonomy: structured failures for every layer.

Everything in this system — the shell, the tools, ``help`` itself —
talks to the world through file operations, so a swallowed or
stringly-typed error corrupts the only channel applications have to
the user.  Every failure raised by :mod:`repro.fs` and
:mod:`repro.helpfs` is an instance of one of the subclasses below,
carrying

- ``path`` — the canonical path the operation was applied to (or the
  node name when no full path is known),
- ``op`` — the operation that failed (``'open'``, ``'read'``,
  ``'write'``, ``'close'``, ``'walk'``, ``'remove'``, ...),
- ``kind`` — a short machine-readable tag (``'notfound'``,
  ``'closed'``, ...) that also names the ``fs.error.<kind>``
  performance counter.

An error is a plain value: making one books nothing.  It is counted
where it is *reported* — the wire server's error reply, help's Errors
window, a shell diagnostic — so a caller that catches one on purpose
leaves no trace in any ledger.

``str(exc)`` stays the terse Plan 9-style user message ("'/x' does
not exist") that the Errors window shows; :meth:`FsError.diagnostic`
renders the structured one-line form the shell prints::

    open '/mnt/help/7/body': does not exist [notfound]
"""

from __future__ import annotations


class FsError(Exception):
    """Base class for all filesystem failures.

    May be raised bare (``FsError("message")``) by code outside the
    fs packages; inside :mod:`repro.fs` and :mod:`repro.helpfs` only
    the taxonomy subclasses are raised, so callers can dispatch on
    type and report sites can count failures by kind.
    """

    kind = "io"
    fmt = "'{path}': i/o error"

    def __init__(self, message: str | None = None, *,
                 path: str | None = None, op: str | None = None) -> None:
        if message is None:
            message = (self.fmt.format(path=path) if path is not None
                       else self.fmt.format(path="?"))
        super().__init__(message)
        self.path = path
        self.op = op
        # The reason is the message with the leading quoted path (if
        # any) stripped, so diagnostic() never prints the path twice.
        reason = message
        if path is not None:
            quoted = f"'{path}'"
            if reason.startswith(quoted):
                reason = reason[len(quoted):].lstrip(":").strip()
        self.reason = reason or message

    def diagnostic(self) -> str:
        """The structured one-line form: ``op 'path': reason [kind]``."""
        op = self.op or "io"
        if self.path is not None:
            return f"{op} '{self.path}': {self.reason} [{self.kind}]"
        return f"{op}: {self.reason} [{self.kind}]"


class NotFound(FsError):
    """The path does not resolve (or a mount point is not mounted)."""

    kind = "notfound"
    fmt = "'{path}' does not exist"


class NotADirectory(FsError):
    """A directory operation hit a plain file."""

    kind = "notadir"
    fmt = "'{path}' is not a directory"


class IsADirectory(FsError):
    """A file operation hit a directory."""

    kind = "isadir"
    fmt = "'{path}' is a directory"


class Exists(FsError):
    """Creation collided with an existing node."""

    kind = "exists"
    fmt = "'{path}' already exists"


class Permission(FsError):
    """The node refuses the requested access (mode, writability)."""

    kind = "perm"
    fmt = "'{path}' permission denied"


class Busy(FsError):
    """The node is in use: a mount point, a non-empty directory."""

    kind = "busy"
    fmt = "'{path}' busy"


class Closed(FsError):
    """I/O on a handle after close()."""

    kind = "closed"
    fmt = "'{path}': read/write on closed file"


class IOFault(FsError):
    """A (possibly injected) transport or device failure."""

    kind = "iofault"
    fmt = "'{path}': i/o fault"


class Invalid(FsError):
    """A malformed request: bad open mode, mismatched bind kinds."""

    kind = "invalid"
    fmt = "'{path}': invalid request"


class Crashed(IOFault):
    """The serving process died mid-operation.

    Raised once by the operation that crashed (possibly after a torn
    partial write) and then by every later operation on the same
    fault plan: a dead process answers nothing.
    """

    kind = "crashed"
    fmt = "'{path}': process crashed"


def diagnostic(exc: BaseException) -> str:
    """The structured form of *exc* if it has one, else ``str(exc)``.

    Shell commands print their errors through this so taxonomy errors
    come out structured while plain exceptions stay readable.
    """
    if isinstance(exc, FsError):
        return exc.diagnostic()
    return str(exc)


TAXONOMY = (NotFound, NotADirectory, IsADirectory, Exists, Permission,
            Busy, Closed, IOFault, Invalid, Crashed)

__all__ = ["FsError", "NotFound", "NotADirectory", "IsADirectory",
           "Exists", "Permission", "Busy", "Closed", "IOFault",
           "Invalid", "Crashed", "diagnostic", "TAXONOMY"]
