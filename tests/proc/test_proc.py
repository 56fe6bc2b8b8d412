"""Tests for the process table, symbol tables, and adb."""

import pytest

from repro.fs import VFS, Namespace
from repro.proc import (
    Adb,
    CoreImage,
    ProcessTable,
    Registers,
    SymbolTable,
    cmd_adb,
    cmd_ps,
    paper_crash,
)
from repro.proc.crash import PAPER_PID, crash_report, synthetic_crash
from repro.proc.process import ProcState
from repro.shell import Interp


class TestSymbolTable:
    def test_add_and_lookup(self):
        table = SymbolTable("/bin/x")
        table.add_func("main", "main.c", 10)
        sym = table.lookup("main")
        assert sym.kind == "func"
        assert sym.location == "main.c:10"

    def test_addresses_monotonic(self):
        table = SymbolTable()
        a = table.add_func("a", "a.c", 1)
        b = table.add_func("b", "b.c", 1)
        assert b.address > a.address

    def test_find_address(self):
        table = SymbolTable()
        a = table.add_func("a", "a.c", 1)
        b = table.add_func("b", "b.c", 1)
        sym, off = table.find_address(a.address + 8)
        assert sym is a and off == 8
        sym, off = table.find_address(b.address)
        assert sym is b and off == 0

    def test_find_address_below_text(self):
        table = SymbolTable()
        table.add_func("a", "a.c", 1)
        assert table.find_address(0) is None

    def test_globals_and_files(self):
        table = SymbolTable()
        table.add_func("f", "f.c", 1)
        table.add_data("n", "dat.h", 136)
        assert [s.name for s in table.globals()] == ["n"]
        assert table.files() == ["dat.h", "f.c"]

    def test_len(self):
        table = SymbolTable()
        table.add_func("f", "f.c", 1)
        assert len(table) == 1


class TestProcessTable:
    def test_spawn_assigns_pids(self):
        procs = ProcessTable()
        a = procs.spawn("a")
        b = procs.spawn("b")
        assert b.pid == a.pid + 1

    def test_spawn_specific_pid(self):
        procs = ProcessTable()
        p = procs.spawn("x", pid=500)
        assert p.pid == 500
        assert procs.spawn("y").pid == 501

    def test_duplicate_pid_rejected(self):
        procs = ProcessTable()
        procs.spawn("x", pid=5)
        with pytest.raises(ValueError):
            procs.spawn("y", pid=5)

    def test_break_and_broken_listing(self):
        procs = ProcessTable()
        p = procs.spawn("crashy")
        p.break_with(CoreImage(exception="boom"))
        assert p.state is ProcState.BROKEN
        assert procs.broken() == [p]

    def test_finish(self):
        procs = ProcessTable()
        p = procs.spawn("x")
        p.finish()
        assert procs.broken() == []
        assert p.state is ProcState.DONE

    def test_ps_lines(self):
        procs = ProcessTable()
        procs.spawn("alpha")
        lines = procs.ps_lines()
        assert len(lines) == 1
        assert "alpha" in lines[0]
        assert "Running" in lines[0]

    def test_registers_lines(self):
        regs = Registers(pc=0x18df4, sp=0x3f4e8, status=0xfb0c,
                         gp={"R3": 0})
        lines = regs.lines()
        assert "pc\t0x18df4" in lines
        assert "R3\t0x0" in lines


class TestPaperCrash:
    def test_installs_pid(self):
        procs = ProcessTable()
        proc = paper_crash(procs)
        assert proc.pid == PAPER_PID
        assert proc.state is ProcState.BROKEN

    def test_trace_matches_figure7(self):
        procs = ProcessTable()
        proc = paper_crash(procs)
        trace = Adb(proc).run("$C")
        assert trace.startswith("last exception: TLB miss (load or fetch)\n")
        assert "/sys/src/libc/mips/strchr.s:34" in trace
        assert ("strlen(s=0x0) called from textinsert+0x30 text.c:32"
                in trace)
        assert ("textinsert(sel=0x1, t=0x40e60, s=0x0, q0=0xd, full=0x1) "
                "called from errs+0xe8 errs.c:34" in trace)
        assert "\tn = 0x3d7cc" in trace
        assert "errs(s=0x0) called from Xdie2+0x14 exec.c:252" in trace
        assert "Xdie2() called from lookup+0xc4 exec.c:101" in trace
        assert "execute(t=0x3ebbc, p0=0x2, p1=0x2) called from " \
            "control+0x430 ctrl.c:331" in trace

    def test_plain_trace_omits_locals(self):
        procs = ProcessTable()
        trace = Adb(paper_crash(procs)).run("$c")
        assert "n = 0x3d7cc" not in trace
        assert "called from" in trace

    def test_registers(self):
        procs = ProcessTable()
        out = Adb(paper_crash(procs)).run("$r")
        assert "pc\t0x18df4" in out
        assert "sp\t0x3f4e8" in out

    def test_exception_and_pc(self):
        procs = ProcessTable()
        adb = Adb(paper_crash(procs))
        assert adb.run("$e") == "last exception: TLB miss (load or fetch)\n"
        assert adb.run("$p") == "/sys/src/libc/mips/strchr.s:34\n"

    def test_crash_report_text(self):
        report = crash_report()
        assert "help 176153: user TLB miss" in report
        assert "pc=0x18df4" in report

    def test_symtab_has_the_culprits(self):
        procs = ProcessTable()
        table = paper_crash(procs).symtab
        assert table.lookup("Xdie1") is not None
        assert table.lookup("n").location == "dat.h:136"


class TestAdbErrors:
    def test_not_broken(self):
        procs = ProcessTable()
        p = procs.spawn("healthy")
        assert "not broken" in Adb(p).run("$c")

    def test_bad_command(self):
        procs = ProcessTable()
        p = paper_crash(procs)
        assert "bad command" in Adb(p).run("$z")


class TestShellIntegration:
    @pytest.fixture
    def sh(self):
        fs = VFS()
        fs.mkdir("/bin")
        ns = Namespace(fs)
        procs = ProcessTable()
        paper_crash(procs)
        synthetic_crash(procs, "other", depth=3)
        interp = Interp(ns)
        interp.commands["adb"] = cmd_adb(procs)
        interp.commands["ps"] = cmd_ps(procs)
        return interp

    def test_ps(self, sh):
        out = sh.run("ps").stdout
        assert "176153 Broken   help" in out

    def test_ps_broken_only(self, sh):
        out = sh.run("ps -b").stdout
        assert all("Broken" in line for line in out.splitlines())

    def test_adb_via_pipe(self, sh):
        """The db tool's idiom: echo '$C' | adb pid."""
        result = sh.run("echo '$C' | adb 176153")
        assert result.status == 0
        assert "textinsert" in result.stdout

    def test_adb_no_such_process(self, sh):
        result = sh.run("echo '$c' | adb 99999")
        assert result.status == 1
        assert "no process" in result.stderr

    def test_adb_usage(self, sh):
        assert sh.run("adb notapid").status == 1

    def test_synthetic_crash_depth(self, sh):
        sh.run("echo '$c' | adb " + "104")
        # synthetic pid may vary; find it via ps instead
        out = sh.run("ps").stdout
        pid = next(line.split()[0] for line in out.splitlines()
                   if "other" in line)
        trace = sh.run(f"echo '$c' | adb {pid}").stdout
        assert trace.count("called from") == 3
