"""Tests for the rc interpreter."""

import pytest

from repro.fs import VFS, Namespace
from repro.metrics.counter import counters
from repro.shell import Interp


@pytest.fixture
def world():
    fs = VFS()
    for d in ("/bin", "/tmp", "/usr/rob/bin/rc", "/usr/rob/tmp", "/lib",
              "/usr/rob/src"):
        fs.mkdir(d, parents=True)
    fs.create("/tmp/data", "alpha\nbeta\ngamma\n")
    fs.create("/usr/rob/src/a.c", "int a;\n")
    fs.create("/usr/rob/src/b.c", "int b;\n")
    fs.create("/usr/rob/src/c.h", "int c;\n")
    return Namespace(fs)


@pytest.fixture
def sh(world):
    return Interp(world, cwd="/usr/rob/src")


def run(sh, src, stdin=""):
    return sh.run(src, stdin)


class TestBasics:
    def test_echo(self, sh):
        assert run(sh, "echo hello world").stdout == "hello world\n"

    def test_status_success(self, sh):
        assert run(sh, "true").status == 0
        assert run(sh, "false").status == 1

    def test_unknown_command(self, sh):
        result = run(sh, "no-such-cmd")
        assert result.status == 1
        assert "not found" in result.stderr

    def test_sequence_last_status(self, sh):
        assert run(sh, "false; true").status == 0

    def test_semicolons_and_newlines(self, sh):
        assert run(sh, "echo a; echo b\necho c").stdout == "a\nb\nc\n"

    def test_parse_error_reported(self, sh):
        result = run(sh, "if(")
        assert result.status == 1
        assert "rc:" in result.stderr


class TestVariables:
    def test_assignment_and_reference(self, sh):
        assert run(sh, "x=world; echo hello $x").stdout == "hello world\n"

    def test_list_variable(self, sh):
        assert run(sh, "l=(a b c); echo $l").stdout == "a b c\n"

    def test_count(self, sh):
        assert run(sh, "l=(a b c); echo $#l").stdout == "3\n"
        assert run(sh, "echo $#undefined").stdout == "0\n"

    def test_flatten(self, sh):
        out = run(sh, 'l=(a b); echo $"l').stdout
        assert out == "a b\n"

    def test_empty_var_vanishes_from_argv(self, sh):
        assert run(sh, "echo a $nothing b").stdout == "a b\n"

    def test_concatenation_scalar(self, sh):
        assert run(sh, "x=5; echo -i$x").stdout == "-i5\n"

    def test_concatenation_distributes(self, sh):
        assert run(sh, "l=(a b); echo pre^$l").stdout == "prea preb\n"

    def test_concatenation_pairwise(self, sh):
        assert run(sh, "a=(1 2); b=(x y); echo $a^$b").stdout == "1x 2y\n"

    def test_null_concatenation_errors(self, sh):
        result = run(sh, "echo -i$missing")
        assert result.status == 1
        assert "null list" in result.stderr

    def test_mismatched_lists_error(self, sh):
        result = run(sh, "a=(1 2); b=(x y z); echo $a^$b")
        assert "mismatched" in result.stderr

    def test_scoped_assignment_restores(self, sh):
        out = run(sh, "x=global; x=local echo $x; echo $x").stdout
        assert out == "local\nglobal\n"

    def test_quoted_text_is_literal(self, sh):
        assert run(sh, "echo '$x | y'").stdout == "$x | y\n"


class TestSubstitution:
    def test_backquote_words(self, sh):
        assert run(sh, "x=`{echo one two}; echo $#x").stdout == "2\n"

    def test_backquote_in_argv(self, sh):
        assert run(sh, "echo `{echo inner}").stdout == "inner\n"

    def test_backquote_strips_newlines(self, sh):
        assert run(sh, "x=`{cat /tmp/data}; echo $#x").stdout == "3\n"

    def test_eval(self, sh):
        assert run(sh, "eval 'x=5; echo' $x; echo $x").stdout.endswith("5\n")

    def test_eval_output_of_command(self, sh):
        """decl's idiom: eval `{help/parse -c} sets variables."""
        sh.ns.write("/bin/emitvars", "echo 'file=/a/b.c' 'line=12'")
        result = run(sh, "eval `{emitvars}; echo $file $line")
        assert result.stdout == "/a/b.c 12\n"


class TestGlobbing:
    def test_relative_glob(self, sh):
        assert run(sh, "echo *.c").stdout == "a.c b.c\n"

    def test_absolute_glob(self, sh):
        assert run(sh, "echo /usr/rob/src/*.c").stdout == \
            "/usr/rob/src/a.c /usr/rob/src/b.c\n"

    def test_no_match_passes_through(self, sh):
        assert run(sh, "echo *.zig").stdout == "*.zig\n"

    def test_quoted_glob_is_literal(self, sh):
        assert run(sh, "echo '*.c'").stdout == "*.c\n"

    def test_charclass(self, sh):
        assert run(sh, "echo [ab].c").stdout == "a.c b.c\n"


class TestPipesRedirs:
    def test_pipeline(self, sh):
        assert run(sh, "cat /tmp/data | grep beta").stdout == "beta\n"

    def test_three_stage_pipeline(self, sh):
        out = run(sh, "cat /tmp/data | grep a | wc -l").stdout
        assert out.strip() == "3"  # alpha, beta, gamma all contain 'a'

    def test_write_redirect(self, sh):
        run(sh, "echo saved > /tmp/out")
        assert sh.ns.read("/tmp/out") == "saved\n"

    def test_append_redirect(self, sh):
        run(sh, "echo one > /tmp/out; echo two >> /tmp/out")
        assert sh.ns.read("/tmp/out") == "one\ntwo\n"

    def test_read_redirect(self, sh):
        assert run(sh, "grep beta < /tmp/data").stdout == "beta\n"

    def test_block_pipe_redirect(self, sh):
        """The decl script's shape: a block piped then redirected."""
        run(sh, "{ echo a; echo b } | sort > /tmp/sorted")
        assert sh.ns.read("/tmp/sorted") == "a\nb\n"

    def test_redirect_to_var_path(self, sh):
        run(sh, "x=7; echo hi > /tmp/file$x")
        assert sh.ns.read("/tmp/file7") == "hi\n"

    def test_stderr_passes_through_pipe(self, sh):
        result = run(sh, "cat /nope | wc -l")
        assert "cat:" in result.stderr


class TestIOLifecycle:
    """Handles and buffered output survive commands that die mid-way."""

    def test_failed_command_still_flushes_redirected_output(self, sh):
        result = run(sh, "{echo partial; cat /absent} > /tmp/out")
        assert result.status == 1
        assert "cat:" in result.stderr
        # what the block wrote before the failure still reaches the file
        assert sh.ns.read("/tmp/out") == "partial\n"

    def test_raising_stage_keeps_its_own_stderr(self, sh):
        # the block's cat diagnostics must survive the redirection
        # blowing up afterwards (/no/such/dir cannot be created)
        result = run(sh, "{cat /absent; echo x > /no/such/dir/f} | wc -l")
        assert result.status == 1
        assert "cat:" in result.stderr   # stage's own diagnostics kept
        assert "rc:" in result.stderr    # and the fatal error reported

    def test_failing_pipeline_flushes_unterminated_ctl_tail(self, sh):
        from repro.fs import SynthDir, SynthFile
        lines = []
        root = SynthDir("srv", list_fn=lambda: [
            SynthFile("ctl", write_fn=lines.append)])
        sh.ns.mkdir("/mnt")
        sh.ns.mount(root, "/mnt")
        result = run(sh, "{echo -n 'tag 1 2'; cat /absent} > /mnt/ctl")
        assert result.status == 1
        assert "cat:" in result.stderr
        # the unterminated final line was flushed when the handle closed
        assert lines == ["tag 1 2"]

    def test_backquote_failure_keeps_diagnostics(self, sh):
        result = run(sh, "x=`{cat /absent}; echo got $x")
        assert "cat:" in result.stderr
        assert result.stdout == "got\n"


class TestControlFlow:
    def test_if_true(self, sh):
        assert run(sh, "if(true) echo yes").stdout == "yes\n"

    def test_if_false(self, sh):
        assert run(sh, "if(false) echo yes").stdout == ""

    def test_if_not(self, sh):
        out = run(sh, "if(false) echo a\nif not echo b").stdout
        assert out == "b\n"

    def test_if_not_skipped_after_success(self, sh):
        out = run(sh, "if(true) echo a\nif not echo b").stdout
        assert out == "a\n"

    def test_match_builtin(self, sh):
        assert run(sh, "if(~ hello h*) echo yes").stdout == "yes\n"
        assert run(sh, "if(~ hello x*) echo yes").stdout == ""

    def test_match_multiple_patterns(self, sh):
        assert run(sh, "if(~ b a b c) echo yes").stdout == "yes\n"

    def test_negated_match(self, sh):
        out = run(sh, "if(! ~ $#list 0) echo nonempty").stdout
        assert out == ""
        out = run(sh, "list=(x); if(! ~ $#list 0) echo nonempty").stdout
        assert out == "nonempty\n"

    def test_for_loop(self, sh):
        assert run(sh, "for(i in 1 2 3) echo $i").stdout == "1\n2\n3\n"

    def test_for_over_glob(self, sh):
        assert run(sh, "for(f in *.c) echo $f").stdout == "a.c\nb.c\n"

    def test_while_loop(self, sh):
        src = "x=(a a a); while(! ~ $#x 0) { echo $#x; x=`{echo $x | sed 's/a *//'} }"
        result = run(sh, src)
        assert result.stdout == "3\n2\n1\n"
        assert result.stderr == ""

    def test_while_loop_is_capped(self, sh, monkeypatch):
        monkeypatch.setattr("repro.shell.interp.MAX_LOOP", 5)
        result = run(sh, "while(true) echo spin")
        assert result.stdout == "spin\n" * 5
        assert "while loop ran too long" in result.stderr
        assert result.status != 0

    def test_switch(self, sh):
        src = """service=terminal
switch($service){
case cpu
\techo heavy
case terminal
\techo light
}"""
        assert run(sh, src).stdout == "light\n"

    def test_switch_glob_patterns(self, sh):
        assert run(sh, "switch(abc){ case a*\necho starts-a\n}").stdout == \
            "starts-a\n"

    def test_switch_no_match(self, sh):
        assert run(sh, "switch(zz){ case a\necho a\n}").stdout == ""

    def test_andor(self, sh):
        assert run(sh, "true && echo yes").stdout == "yes\n"
        assert run(sh, "false || echo fallback").stdout == "fallback\n"
        assert run(sh, "false && echo no").stdout == ""


class TestFunctions:
    def test_define_and_call(self, sh):
        out = run(sh, "fn greet { echo hello $1 }\ngreet rob").stdout
        assert out == "hello rob\n"

    def test_args_star(self, sh):
        out = run(sh, "fn count { echo $#* }\ncount a b c").stdout
        assert out == "3\n"

    def test_profile_fn_idiom(self, sh):
        """fn x { if(! ~ $#* 0) $* } — run args if any were given."""
        src = "fn x { if(! ~ $#* 0) $* }\nx echo ran\nx"
        assert run(sh, src).stdout == "ran\n"

    def test_fn_deletion(self, sh):
        result = run(sh, "fn f { echo x }\nfn f\nf")
        assert "not found" in result.stderr

    def test_fn_args_restored(self, sh):
        out = run(sh, "fn f { echo $1 }\nf inner\necho $#1").stdout
        assert out == "inner\n0\n"


class TestScripts:
    def test_script_from_path(self, sh):
        sh.ns.write("/bin/hello", "echo hello from script")
        assert run(sh, "hello").stdout == "hello from script\n"

    def test_script_by_full_path(self, sh):
        sh.ns.write("/lib/tool", "echo tool $1")
        assert run(sh, "/lib/tool arg").stdout == "tool arg\n"

    def test_script_gets_args(self, sh):
        sh.ns.write("/bin/show", "echo $0: $*")
        assert run(sh, "show a b").stdout == "show: a b\n"

    def test_script_vars_do_not_leak(self, sh):
        sh.ns.write("/bin/setter", "leaky=yes")
        run(sh, "setter")
        assert run(sh, "echo $#leaky").stdout == "0\n"

    def test_run_file(self, sh):
        sh.ns.write("/lib/script", "echo ran with $1")
        result = sh.run_file("/lib/script", ["arg1"])
        assert result.stdout == "ran with arg1\n"

    def test_run_file_missing(self, sh):
        assert sh.run_file("/lib/nope").status == 1

    def test_exit_builtin(self, sh):
        result = run(sh, "echo before; exit 3; echo after")
        assert result.status == 3
        assert result.stdout == "before\n"

    def test_cd(self, sh):
        assert run(sh, "cd /tmp; pwd").stdout == "/tmp\n"
        result = run(sh, "cd /nope")
        assert result.status == 1

    def test_dot_sources_in_current_shell(self, sh):
        sh.ns.write("/lib/profile", "sourced=yes")
        run(sh, ". /lib/profile")
        assert sh.get("sourced") == ["yes"]


class TestPaperProfile:
    def test_profile_executes(self, sh):
        """The Figure 2 profile runs: binds apply to the namespace."""
        sh.ns.write("/usr/rob/bin/rc/mytool", "echo mine")
        sh.set("home", ["/usr/rob"])
        sh.set("service", ["terminal"])
        sh.set("cputype", ["mips"])
        sh.ns.mkdir("/usr/rob/bin/mips", parents=True)
        src = """bind -c $home/tmp /tmp
bind -a $home/bin/rc /bin
bind -a $home/bin/$cputype /bin
switch($service){
case terminal
\tprompt=('g* ' '')
\tsite=plan9
case cpu
\tnews
}
"""
        result = run(sh, src)
        assert result.status == 0
        assert result.stderr == ""
        # the union bind makes the personal tool visible in /bin
        assert run(sh, "mytool").stdout == "mine\n"
        # and /tmp now aliases $home/tmp
        run(sh, "echo x > /tmp/t")
        assert sh.ns.read("/usr/rob/tmp/t") == "x\n"
        assert sh.get("site") == ["plan9"]


class TestSubscripts:
    def test_single_subscript(self, sh):
        assert run(sh, "l=(a b c); echo $l(2)").stdout == "b\n"

    def test_multiple_subscripts(self, sh):
        assert run(sh, "l=(a b c); echo $l(3 1)").stdout == "c a\n"

    def test_out_of_range_empty(self, sh):
        assert run(sh, "l=(a); echo x $l(5) y").stdout == "x y\n"

    def test_subscript_then_text(self, sh):
        assert run(sh, "l=(top mid); echo $l(1)^-level").stdout == "top-level\n"

    def test_paren_not_subscript(self, sh):
        # a non-numeric paren belongs to the grammar, not the var
        assert run(sh, "if(~ $#nothing 0) echo ok").stdout == "ok\n"


class TestMoreBuiltins:
    def test_whatis_function(self, sh):
        run(sh, "fn greet { echo hi }")
        assert run(sh, "whatis greet").stdout == "fn greet\n"

    def test_whatis_variable(self, sh):
        run(sh, "x=(a b)")
        assert run(sh, "whatis x").stdout == "x=(a b)\n"

    def test_whatis_command(self, sh):
        assert run(sh, "whatis echo").stdout == "echo\n"

    def test_whatis_script(self, sh):
        sh.ns.write("/bin/mytool", "echo t")
        assert run(sh, "whatis mytool").stdout == "mytool\n"

    def test_whatis_unknown(self, sh):
        result = run(sh, "whatis nothing-here")
        assert result.status == 1
        assert "not found" in result.stderr

    def test_shift(self, sh):
        sh.ns.write("/bin/shifty", "shift\necho $1 $#*")
        assert run(sh, "shifty a b c").stdout == "b 2\n"

    def test_shift_n(self, sh):
        sh.ns.write("/bin/shifty2", "shift 2\necho $*")
        assert run(sh, "shifty2 a b c d").stdout == "c d\n"

    def test_exit_without_status(self, sh):
        assert run(sh, "exit").status == 0

    def test_exit_bad_status(self, sh):
        assert run(sh, "exit notanumber").status == 1

    def test_cd_no_args_goes_root(self, sh):
        run(sh, "cd /tmp")
        assert run(sh, "cd; pwd").stdout == "/\n"

    def test_dot_missing_file(self, sh):
        result = run(sh, ". /nope")
        assert result.status == 1

    def test_dot_with_parse_error(self, sh):
        sh.ns.write("/lib/badrc", "if( broken")
        result = run(sh, ". /lib/badrc")
        assert result.status == 1
        assert "rc:" in result.stderr

    def test_match_no_args(self, sh):
        assert run(sh, "~").status == 1

    def test_ampersand_runs_synchronously(self, sh):
        # '&' is accepted (scripts use it); execution is synchronous here
        assert run(sh, "echo bg &").stdout == "bg\n"


class TestDiagnostics:
    def test_a_diagnostic_books_its_error_once(self, sh):
        """A diagnostic is where the shell reports a taxonomy error:
        each one printed, by a command or by rc itself, books
        fs.error.<kind> once, the lines rc's ``.`` and a script run
        from a file word themselves included."""
        result = run(sh, "cat /absent")
        assert "cat: open '/absent': does not exist [notfound]" in (
            result.stderr)
        assert counters("fs.error.") == {"fs.error.notfound": 1}
        result = run(sh, "echo x >/absent/x")
        assert result.stderr.startswith("rc: ")
        assert counters("fs.error.") == {"fs.error.notfound": 2}
        assert run(sh, ". /absent").stderr == ".: '/absent' does not exist\n"
        assert counters("fs.error.") == {"fs.error.notfound": 3}
        assert sh.run_file("/absent").stderr == (
            "rc: '/absent' does not exist\n")
        assert counters("fs.error.") == {"fs.error.notfound": 4}


class TestStatusVariable:
    def test_status_after_success(self, sh):
        assert run(sh, "true; echo $status").stdout == "0\n"

    def test_status_after_failure(self, sh):
        assert run(sh, "false; echo $status").stdout == "1\n"

    def test_status_in_condition(self, sh):
        out = run(sh, "false; if(~ $status 1) echo caught").stdout
        assert out == "caught\n"
