"""Unit tests for the execution layer itself."""

import pytest

from repro.core.execute import CommandResult, parse_helpsel
from repro.core.window import Subwindow
from repro.fs.errors import NotFound
from repro.fs.faults import Fault, FaultPlan, wrap
from repro.metrics.counter import counters


class TestResolveCommand:
    def test_context_dir_wins(self, app):
        app.ns.write("/usr/rob/src/help/mytool", "echo local")
        w = app.new_window("/usr/rob/src/help/help.c")
        resolved = app.executor.resolve_command("mytool", w.directory())
        assert resolved == "/usr/rob/src/help/mytool"

    def test_absolute_passes_through(self, app):
        assert app.executor.resolve_command("/bin/x", "/anywhere") == "/bin/x"

    def test_unknown_passes_bare_name(self, app):
        assert app.executor.resolve_command("grep", "/usr/rob") == "grep"

    def test_directory_is_not_executable(self, app):
        app.ns.mkdir("/usr/rob/grep")
        assert app.executor.resolve_command("grep", "/usr/rob") == "grep"


class TestEnvironment:
    def test_helpsel_encoding(self, app):
        w = app.new_window("/tmp/f", "abcdef")
        app.select(w, 2, 5)
        from repro.core.execute import ExecContext
        ctx = ExecContext(app, w, Subwindow.BODY, "cmd", "")
        env = app.executor.environment(ctx)
        assert env["helpsel"] == f"{w.id}:body:2:5"
        assert env["helpdir"] == "/tmp"

    def test_no_selection_no_helpsel(self, app):
        w = app.new_window("/tmp/f")
        from repro.core.execute import ExecContext
        ctx = ExecContext(app, w, Subwindow.BODY, "cmd", "")
        env = app.executor.environment(ctx)
        assert "helpsel" not in env

    def test_tag_selection_encoded(self, app):
        w = app.new_window("/tmp/f")
        app.select(w, 0, 4, Subwindow.TAG)
        from repro.core.execute import ExecContext
        ctx = ExecContext(app, w, Subwindow.TAG, "cmd", "")
        assert app.executor.environment(ctx)["helpsel"] == f"{w.id}:tag:0:4"


class TestParseHelpsel:
    def test_roundtrip(self):
        assert parse_helpsel("7:body:10:25") == (7, "body", 10, 25)
        assert parse_helpsel("3:tag:0:0") == (3, "tag", 0, 0)

    @pytest.mark.parametrize("bad", [
        "", "7", "7:body", "7:body:1", "7:nowhere:1:2", "x:body:1:2",
        "7:body:a:2", "7:body:1:2:3",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_helpsel(bad)


class TestDispatch:
    def test_empty_text_is_noop(self, app):
        w = app.new_window("/tmp/f")
        app.executor.execute(w, Subwindow.BODY, "   ")
        assert app.window_by_name("Errors") is None

    def test_builtin_wins_over_external(self, app):
        app.ns.write("/bin/Open", "echo shadowed")
        w = app.new_window("/tmp/f", "/usr/rob/lib/profile")
        app.select(w, 0, len(w.body))
        app.executor.execute(w, Subwindow.BODY, "Open")
        assert app.window_by_name("/usr/rob/lib/profile") is not None

    def test_no_runner_message(self, app):
        w = app.new_window("/tmp/f")
        app.executor.execute(w, Subwindow.BODY, "grep x y")
        assert "no command runner" in app.window_by_name("Errors").body.string()

    def test_registered_custom_builtin(self, app):
        calls = []
        app.executor.register("Zap", lambda ctx: calls.append(ctx.arg))
        w = app.new_window("/tmp/f")
        app.executor.execute(w, Subwindow.BODY, "Zap everything now")
        assert calls == ["everything now"]

    def test_command_result_defaults(self):
        result = CommandResult()
        assert (result.status, result.stdout, result.stderr) == (0, "", "")


class TestErrorReports:
    def test_an_errors_window_report_books_once(self, app):
        """The Errors window is help's report of a filesystem failure,
        so that is where the error is counted: once, on the session's
        ledger."""
        def vanish(ctx):
            raise NotFound(path="/gone", op="open")

        app.executor.register("Vanish", vanish)
        w = app.new_window("/tmp/f")
        app.executor.execute(w, Subwindow.BODY, "Vanish")
        assert "help: open '/gone': does not exist [notfound]" in (
            app.window_by_name("Errors").body.string())
        assert app.metrics.counters("fs.error.") == {"fs.error.notfound": 1}

    def test_a_failed_put_books_once(self, app):
        """Put! words its own Errors line, and that line is still help's
        report of the write's failure: one iofault on the session's
        ledger."""
        app.ns.write("/tmp/f", "old\n")
        plan = FaultPlan(Fault(op="write", path="/tmp/f", at=1))
        app.ns.mount(wrap(app.ns.walk("/tmp"), plan, base="/tmp"), "/tmp")
        w = app.new_window("/tmp/f", "new\n")
        app.executor.execute(w, Subwindow.BODY, "Put!")
        assert plan.fired == [1]
        assert app.window_by_name("Errors").body.string() == (
            "help: Put!: '/tmp/f': i/o fault\n")
        assert app.metrics.counters("fs.error.") == {"fs.error.iofault": 1}

    def test_a_shell_error_help_posts_is_booked_once(self):
        """The shell books its diagnostic; help posts the tool's stderr
        as text and books nothing more."""
        from repro.tools.install import build_system

        h = build_system().help
        h.execute_text(h.window_by_name("/help/mail/stf"), "cat /absent")
        assert "cat: open '/absent': does not exist [notfound]" in (
            h.window_by_name("Errors").body.string())
        assert counters("fs.error.") == {"fs.error.notfound": 1}


class TestHover:
    def test_hover_over_tab(self, app):
        w = app.new_window("/tmp/hoverme", "x", column=app.screen.columns[0])
        column = app.screen.columns[0]
        tab_y = column.rect.y0 + column.tab_order().index(w)
        assert app.hover(column.rect.x0, tab_y) == "/tmp/hoverme"

    def test_hover_hidden_window_marked(self, app):
        column = app.screen.columns[0]
        body = "".join(f"l{i}\n" for i in range(60))
        windows = [app.new_window(f"/tmp/w{i}", body, column=column)
                   for i in range(6)]
        hidden = next(w for w in windows if w.hidden)
        tab_y = column.rect.y0 + column.tab_order().index(hidden)
        assert app.hover(column.rect.x0, tab_y) == f"{hidden.name()} (hidden)"

    def test_hover_elsewhere_empty(self, app):
        w = app.new_window("/tmp/x", "body")
        column = app.screen.column_of(w)
        assert app.hover(column.body_x0 + 1, w.y) == ""
        assert app.hover(column.rect.x0, column.rect.y1 - 1) == ""

    def test_hover_unnamed_window(self, app):
        w = app.new_window("", "x", column=app.screen.columns[0])
        column = app.screen.columns[0]
        tab_y = column.rect.y0 + column.tab_order().index(w)
        assert app.hover(column.rect.x0, tab_y) == f"(window {w.id})"
