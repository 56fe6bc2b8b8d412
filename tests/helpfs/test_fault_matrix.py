"""Fault-injection matrix over /mnt/help: the interface must degrade
gracefully when its own file server misbehaves.

Every test wraps the mounted help server in a
:class:`~repro.fs.faults.FaultPlan`, drives the system through the
shell or the help app itself, and asserts three things: the scheduled
faults actually fired (counters match the schedule), the failure
surfaced as a structured diagnostic, and help stayed live — the screen
still renders and further commands still work.
"""

import pathlib

import pytest

from repro import build_system, render_screen
from repro.core.help import ERRORS
from repro.fs import Fault, FaultPlan, wrap
from repro.metrics.counter import counter, reset_counters

pytestmark = pytest.mark.tier2_faults

MOUNT = "/mnt/help"
GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"


def faulted_system(*faults, width=100, height=40):
    system = build_system(width=width, height=height)
    plan = FaultPlan(*faults)
    system.ns.unmount(MOUNT)
    system.ns.mount(wrap(system.helpfs.root, plan, base=MOUNT), MOUNT)
    return system, plan


def errors_text(help_app):
    window = help_app.window_by_name(ERRORS)
    return "" if window is None else window.body.string()


class TestFaultMatrix:
    def test_open_refusal_on_window_creation(self):
        system, plan = faulted_system(
            Fault(op="open", path=f"{MOUNT}/new/ctl", at=1))
        h = system.help
        before = set(h.windows)
        h.execute_text(h.window_by_name("/help/mail/stf"), "headers")
        assert plan.fired == [1]
        assert "[iofault]" in errors_text(h)
        assert set(h.windows) - before <= {h.window_by_name(ERRORS).id}
        assert h.running
        render_screen(h)

    def test_mid_read_fault_on_body(self):
        system, plan = faulted_system(
            Fault(op="read", path=f"{MOUNT}/*/body", at=1))
        w = system.help.new_window("/tmp/x", "hello body\n")
        shell = system.shell("/usr/rob")
        result = shell.run(f"cat {MOUNT}/{w.id}/body")
        assert plan.fired == [1]
        assert result.status != 0
        assert f"'{MOUNT}/{w.id}/body'" in result.stderr
        assert "[iofault]" in result.stderr
        # the server is fine afterwards: the next read succeeds
        assert shell.run(f"cat {MOUNT}/{w.id}/body").stdout == "hello body\n"

    def test_short_read_of_new_window_name(self):
        system, plan = faulted_system(
            Fault(op="read", path=f"{MOUNT}/new/ctl", at=1, short=0))
        h = system.help
        h.execute_text(h.window_by_name("/help/mail/stf"), "headers")
        assert plan.fired == [1]
        # the window was created, but the script lost its name and
        # had to report the resulting null list
        assert errors_text(h) != ""
        assert h.running
        render_screen(h)

    def test_write_fault_on_ctl(self):
        system, plan = faulted_system(
            Fault(op="write", path=f"{MOUNT}/*/ctl", at=1))
        w = system.help.new_window("/tmp/x", "text\n")
        shell = system.shell("/usr/rob")
        result = shell.run(f"echo tag extra > {MOUNT}/{w.id}/ctl")
        assert plan.fired == [1]
        assert result.status != 0
        assert "[iofault]" in result.stderr
        assert "extra" not in w.tag.string()  # the message never landed
        # and the ctl file still works on the next try
        assert shell.run(f"echo tag extra > {MOUNT}/{w.id}/ctl").status == 0
        assert "extra" in w.tag.string()

    def test_close_time_fault_on_ctl(self):
        system, plan = faulted_system(
            Fault(op="close", path=f"{MOUNT}/[0-9]*/ctl", at=1))
        w = system.help.new_window("/tmp/x", "text\n")
        shell = system.shell("/usr/rob")
        result = shell.run(f"echo tag extra > {MOUNT}/{w.id}/ctl")
        assert plan.fired == [1]
        assert result.status != 0
        assert "[iofault]" in result.stderr
        # the line was complete before close, so it was already applied
        assert "extra" in w.tag.string()

    def test_write_fault_on_bodyapp(self):
        system, plan = faulted_system(
            Fault(op="write", path=f"{MOUNT}/*/bodyapp", at=1))
        w = system.help.new_window("/tmp/x", "")
        shell = system.shell("/usr/rob")
        result = shell.run(f"echo appended > {MOUNT}/{w.id}/bodyapp")
        assert plan.fired == [1]
        assert result.status != 0
        assert w.body.string() == ""  # nothing landed
        assert system.help.running


class TestCrashMatrix:
    def test_crash_mid_write_to_body_surfaces_and_unmount_recovers(self):
        system, plan = faulted_system(
            Fault(op="write", path=f"{MOUNT}/*/body", crash=True))
        w = system.help.new_window("/tmp/x", "before\n")
        shell = system.shell("/usr/rob")
        result = shell.run(f"echo replacement > {MOUNT}/{w.id}/body")
        assert plan.fired == [1]
        assert result.status != 0
        assert "[crashed]" in result.stderr
        # the dead server answers nothing until the mount is replaced
        assert shell.run(f"cat {MOUNT}/index").status != 0
        system.ns.unmount(MOUNT)
        system.ns.mount(system.helpfs.root, MOUNT)
        assert shell.run(f"cat {MOUNT}/index").status == 0
        assert system.help.running

    def test_crash_is_the_whole_process_not_one_file(self):
        system, plan = faulted_system(
            Fault(op="read", path=f"{MOUNT}/index", crash=True))
        shell = system.shell("/usr/rob")
        assert shell.run(f"cat {MOUNT}/index").status != 0
        # a different file on the same (dead) server also refuses
        w = next(iter(system.help.windows.values()))
        result = shell.run(f"cat {MOUNT}/{w.id}/body")
        assert result.status != 0
        assert "[crashed]" in result.stderr
        assert plan.injected == 1  # one crash; the rest is deadness

    def test_journal_crash_recovery_through_the_matrix(self):
        """The sessioncheck crash gate as a tier-2 test: tear the journal
        mid-append, then recover byte-identically from the torn file."""
        from repro.journal import Journal, attach
        from repro.journal.recovery import recover

        system = build_system(width=100, height=40)
        journal = Journal.create(system.ns, "/usr/rob/help.journal")
        attach(system.help, journal, ns=system.ns, snapshot_every=2)
        h = system.help
        h.execute_text(h.window_by_name("/help/mail/stf"), "headers")
        pre_crash = render_screen(h, full=True)
        plan = FaultPlan(Fault(op="write", path="*/help.journal",
                               crash=True))
        system.ns.mount(wrap(system.ns.walk("/usr/rob"), plan,
                             base="/usr/rob"), "/usr/rob")
        from repro.fs.errors import Crashed
        with pytest.raises(Crashed):
            h.type_text("lost input")
        system.ns.unmount("/usr/rob")
        fresh = build_system(width=100, height=40)
        report = recover(fresh.help, system.ns.read("/usr/rob/help.journal"))
        assert report.torn
        assert render_screen(fresh.help, full=True) == pre_crash


class TestCountersMatchSchedule:
    def test_injection_and_error_counters_reconcile(self):
        reset_counters("fs.error.")
        reset_counters("fs.fault.")
        system, plan = faulted_system(
            Fault(op="open", path=f"{MOUNT}/new/ctl", at=1),
            Fault(op="read", path=f"{MOUNT}/index", at=1),
            Fault(op="read", path=f"{MOUNT}/index", at=2, short=1))
        shell = system.shell("/usr/rob")
        h = system.help
        h.execute_text(h.window_by_name("/help/mail/stf"), "headers")
        assert shell.run(f"cat {MOUNT}/index").status != 0
        shell.run(f"cat {MOUNT}/index")  # short read: succeeds, truncated
        assert plan.fired == [1, 1, 1]
        assert counter("fs.fault.injected") == 3
        # only the raising rules produced errors; the short read did not
        assert counter("fs.error.iofault") == 2


class TestNoFaultControl:
    def test_empty_plan_is_transparent(self):
        system, plan = faulted_system(width=160, height=60)
        assert render_screen(system.help, footer=False) == \
            (GOLDEN / "boot_160x60.txt").read_text()
        h = system.help
        h.execute_text(h.window_by_name("/help/mail/stf"), "headers")
        assert h.window_by_name("/mail/box/rob/mbox") is not None
        assert plan.injected == 0
        assert errors_text(h) == ""
