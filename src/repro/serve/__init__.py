"""The session host: N isolated help sessions in one process.

See :mod:`repro.serve.host` for the architecture; the short version::

    from repro.fs.mux import MuxClient, dial
    from repro.serve import SessionHost

    host = SessionHost(width=160, height=60)
    addr = host.listen()                    # or host.pipe(): a socketpair
    client = MuxClient(dial(*addr), aname="alice")
    # the attached tree: id, screen, input, journal, metrics,
    # mnt/help/..., srv/sessions

:class:`ShardRouter` puts N hosts behind one attach router, whose one
reactor thread routes each new connection by its ``Tattach`` — no
thread per connection; :class:`ReplicaPair` ships a host's journals
synchronously to a standby.
"""

from repro.serve.host import (
    HostedSession,
    SESSION_PREFIXES,
    SessionHost,
    input_line,
    kind_class,
)
from repro.serve.replica import ReplicaFeed, ReplicaPair, ReplicaStandby
from repro.serve.shards import ShardRouter

__all__ = ["SessionHost", "HostedSession", "SESSION_PREFIXES",
           "ShardRouter", "ReplicaFeed", "ReplicaPair", "ReplicaStandby",
           "input_line", "kind_class"]
