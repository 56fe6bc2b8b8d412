"""Plan 9 filesystem substrate.

The paper's ``help`` runs on Plan 9, where *everything* — including the
user interface itself — is reached through file operations on a
per-process namespace assembled with ``bind`` and ``mount``.  This
package provides that substrate in-process:

- :mod:`repro.fs.vfs` — an in-memory filesystem of files and
  directories, with a logical modification clock (used by the ``mk``
  build substrate).
- :mod:`repro.fs.namespace` — Plan 9 ``bind``/``mount`` semantics:
  union directories with before/after/replace ordering, per-namespace
  mount tables over a shared VFS.
- :mod:`repro.fs.server` — synthetic (server-backed) files and
  directories whose contents are computed per open, the mechanism by
  which :mod:`repro.helpfs` serves ``/mnt/help``.
- :mod:`repro.fs.errors` — the structured error taxonomy every layer
  raises (``NotFound``, ``Closed``, ``IOFault``, ...), each carrying
  the canonical path and operation.
- :mod:`repro.fs.faults` — deterministic fault injection: wrap any
  tree in a :class:`~repro.fs.faults.FaultPlan` and scheduled opens,
  reads, writes, or closes fail on cue for robustness tests.
- :mod:`repro.fs.wire` — the 9P-style wire codec: tagged T/R message
  frames with size prefixes, carrying the error taxonomy in
  ``Rerror`` replies.
- :mod:`repro.fs.mux` — multiplexed service over byte transports
  (in-process socketpairs, TCP sockets): a concurrent
  :class:`~repro.fs.mux.WireServer`, a tag-multiplexing
  :class:`~repro.fs.mux.MuxClient`, and ``Remote*`` proxies so a
  remote server mounts into a local namespace transparently.

All file contents are text (``str``): ``help`` "operates only on text"
and so does this reproduction.
"""

from repro.fs.errors import (
    Busy,
    Closed,
    Exists,
    FsError,
    Invalid,
    IOFault,
    IsADirectory,
    NotADirectory,
    NotFound,
    Permission,
    diagnostic,
)
from repro.fs.vfs import (
    VFS,
    Dir,
    File,
    FileHandle,
    Node,
    normalize,
    split_path,
)
from repro.fs.namespace import BindFlag, Namespace
from repro.fs.server import SynthDir, SynthFile, SynthSession
from repro.fs.faults import Fault, FaultPlan, wrap
from repro.fs.mux import (
    MuxClient,
    RemoteDir,
    RemoteFile,
    RemoteSession,
    WireServer,
    channel_pair,
    dial,
    mount_remote,
)

__all__ = [
    "VFS",
    "Dir",
    "File",
    "FileHandle",
    "FsError",
    "NotFound",
    "NotADirectory",
    "IsADirectory",
    "Exists",
    "Permission",
    "Busy",
    "Closed",
    "IOFault",
    "Invalid",
    "diagnostic",
    "Fault",
    "FaultPlan",
    "wrap",
    "Node",
    "Namespace",
    "BindFlag",
    "SynthDir",
    "SynthFile",
    "SynthSession",
    "normalize",
    "split_path",
    "WireServer",
    "MuxClient",
    "RemoteDir",
    "RemoteFile",
    "RemoteSession",
    "channel_pair",
    "dial",
    "mount_remote",
]
