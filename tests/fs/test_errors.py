"""Unit tests for the structured error taxonomy."""

import pytest

from repro.fs import VFS, Namespace
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
    TAXONOMY,
    diagnostic,
)
from repro.metrics.counter import (
    MetricsRegistry,
    counter,
    counters,
    reset_counters,
)


class TestTaxonomy:
    def test_every_kind_is_an_fserror(self):
        for cls in TAXONOMY:
            assert issubclass(cls, FsError)

    def test_kinds_are_distinct(self):
        kinds = [cls.kind for cls in TAXONOMY]
        assert len(kinds) == len(set(kinds))

    def test_default_message_from_path(self):
        exc = NotFound(path="/usr/rob/doc", op="open")
        assert str(exc) == "'/usr/rob/doc' does not exist"
        assert exc.path == "/usr/rob/doc"
        assert exc.op == "open"
        assert exc.kind == "notfound"

    def test_explicit_message_wins(self):
        exc = Busy("'/tmp' not empty", path="/tmp", op="remove")
        assert str(exc) == "'/tmp' not empty"
        assert exc.reason == "not empty"

    def test_diagnostic_shape(self):
        exc = NotFound(path="/x", op="walk")
        assert exc.diagnostic() == "walk '/x': does not exist [notfound]"

    def test_diagnostic_without_path(self):
        exc = IOFault("disk on fire")
        assert exc.diagnostic() == "io: disk on fire [iofault]"

    def test_module_diagnostic_passes_plain_exceptions_through(self):
        assert diagnostic(ValueError("nope")) == "nope"
        exc = Permission(path="/etc/shadow", op="open")
        assert "[perm]" in diagnostic(exc)

    def test_errors_bump_kind_counters(self):
        """Making an error books nothing; reporting it (here, as a
        shell diagnostic) books its kind once."""
        from repro.shell.interp import diagnostic as report
        reset_counters("fs.error.")
        errors = [NotFound(path="/a", op="open"),
                  NotFound(path="/b", op="open"),
                  Closed(path="/c", op="read")]
        assert counters("fs.error.") == {}
        for exc in errors:
            report(exc)
        assert counter("fs.error.notfound") == 2
        assert counter("fs.error.closed") == 1

    def test_making_or_rehydrating_an_error_books_nothing(self):
        """An error is a plain value: constructing any taxonomy class,
        or rebuilding one from its wire reply, leaves every ledger as
        it was, the one bound for the caller included."""
        from repro.fs.wire import Rerror
        caller = MetricsRegistry("caller")
        with caller.activate():
            for cls in TAXONOMY:
                exc = cls(path="/x", op="read")
                rebuilt = Rerror.from_exc(7, exc).to_exc()
                assert type(rebuilt) is cls
        assert caller.counters() == {}
        assert counters() == {}


class TestRaiseSitesCarryStructure:
    """Every layer raises taxonomy errors with path and op attached."""

    def setup_method(self):
        self.vfs = VFS()
        self.ns = Namespace(self.vfs)

    def test_vfs_open_missing(self):
        with pytest.raises(NotFound) as err:
            self.vfs.open("/nope", "r")
        assert err.value.path == "/nope"
        assert err.value.op == "open"

    def test_vfs_mkdir_over_file(self):
        self.vfs.create("/f", "x")
        with pytest.raises(Exists) as err:
            self.vfs.mkdir("/f")
        assert err.value.path == "/f"

    def test_vfs_open_directory(self):
        self.vfs.mkdir("/d")
        with pytest.raises(IsADirectory) as err:
            self.vfs.open("/d", "r")
        assert err.value.op == "open"

    def test_vfs_remove_nonempty(self):
        self.vfs.mkdir("/d")
        self.vfs.create("/d/f", "x")
        with pytest.raises(Busy) as err:
            self.vfs.remove("/d")
        assert err.value.path == "/d"
        assert err.value.op == "remove"

    def test_vfs_bad_mode(self):
        self.vfs.create("/f", "x")
        with pytest.raises(Invalid):
            self.vfs.open("/f", "q")

    def test_vfs_closed_handle_names_file(self):
        self.vfs.create("/f", "x")
        handle = self.vfs.open("/f", "r")
        handle.close()
        with pytest.raises(Closed) as err:
            handle.read()
        assert "f" in str(err.value)
        assert err.value.op == "read"

    def test_namespace_walk_missing(self):
        with pytest.raises(NotFound) as err:
            self.ns.walk("/no/such/dir")
        assert err.value.path == "/no/such/dir"
        assert err.value.op == "walk"

    def test_namespace_listdir_of_file(self):
        self.ns.write("/f", "x")
        with pytest.raises(NotADirectory) as err:
            self.ns.listdir("/f")
        assert err.value.op == "listdir"

    def test_namespace_unmount_unmounted(self):
        self.ns.mkdir("/mnt")
        with pytest.raises(NotFound) as err:
            self.ns.unmount("/mnt")
        assert "not mounted" in str(err.value)

    def test_shell_sees_structured_diagnostic(self):
        from repro.shell import Interp
        from repro.shell.commands import DEFAULT_COMMANDS
        self.ns.mkdir("/tmp")
        interp = Interp(self.ns, cwd="/tmp", commands=dict(DEFAULT_COMMANDS))
        result = interp.run("cat /absent")
        assert result.status != 0
        assert "'/absent'" in result.stderr
        assert "[notfound]" in result.stderr


def test_no_bare_fserror_raises_left_in_fs_or_helpfs():
    """Acceptance: string-only `raise FsError(...)` sites are gone."""
    import pathlib
    import re
    import repro.fs
    import repro.helpfs
    pattern = re.compile(r"raise FsError\(")
    offenders = []
    for pkg in (repro.fs, repro.helpfs):
        for path in pathlib.Path(pkg.__path__[0]).glob("*.py"):
            if pattern.search(path.read_text()):
                offenders.append(str(path))
    assert offenders == []
