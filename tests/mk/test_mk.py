"""Tests for mkfile parsing, the builder, toolchain, and inverted mk."""

import pytest

from repro.fs import VFS, Namespace
from repro.metrics.counter import counters
from repro.mk import (
    BuildError,
    Builder,
    MkfileError,
    affected_targets,
    cmd_imk,
    cmd_mk,
    cmd_vc,
    cmd_vl,
    modified_from_index,
    parse_mkfile,
)
from repro.mk.inverted import invert_and_build, modified_since
from repro.shell import Interp

MKFILE = """OBJS=a.v b.v

prog: $OBJS
\tvl -o prog $OBJS -lc

%.v: %.c common.h
\tvc -w $stem.c
"""


@pytest.fixture
def sh():
    fs = VFS()
    fs.mkdir("/src", parents=True)
    fs.mkdir("/bin")
    fs.create("/src/mkfile", MKFILE)
    fs.create("/src/a.c", "int a;\n")
    fs.create("/src/b.c", "int b;\n")
    fs.create("/src/common.h", "extern int a;\n")
    interp = Interp(Namespace(fs), cwd="/src")
    interp.commands["vc"] = cmd_vc
    interp.commands["vl"] = cmd_vl
    interp.commands["mk"] = cmd_mk
    interp.commands["imk"] = cmd_imk
    return interp


class TestParseMkfile:
    def test_variables(self):
        mkfile = parse_mkfile("X=1 2 3\nY=$X 4\n")
        assert mkfile.variables["X"] == ["1", "2", "3"]
        assert mkfile.variables["Y"] == ["1", "2", "3", "4"]

    def test_rule_with_recipe(self):
        mkfile = parse_mkfile("t: p1 p2\n\tcmd one\n\tcmd two\n")
        rule = mkfile.rules[0]
        assert rule.targets == ["t"]
        assert rule.prereqs == ["p1", "p2"]
        assert rule.recipe == ["cmd one", "cmd two"]

    def test_meta_rule_match(self):
        mkfile = parse_mkfile("%.v: %.c\n\tvc $stem.c\n")
        rule = mkfile.rules[0]
        assert rule.is_meta
        assert rule.match("exec.v") == "exec"
        assert rule.match("exec.o") is None

    def test_variable_in_rule(self):
        mkfile = parse_mkfile(MKFILE)
        assert mkfile.rules[0].prereqs == ["a.v", "b.v"]

    def test_default_target(self):
        assert parse_mkfile(MKFILE).default_target() == "prog"

    def test_comments_and_blanks(self):
        mkfile = parse_mkfile("# comment\n\nX=1\n")
        assert mkfile.variables["X"] == ["1"]

    def test_recipe_outside_rule_fails(self):
        with pytest.raises(MkfileError):
            parse_mkfile("\torphan recipe\n")

    def test_unparsable_line_fails(self):
        with pytest.raises(MkfileError):
            parse_mkfile("not a rule or assignment\n")

    def test_unknown_vars_pass_through(self):
        from repro.mk.mkfile import expand
        assert expand("vc $stem.c", {}) == "vc $stem.c"


class TestBuilder:
    def test_full_build(self, sh):
        result = Builder(sh, "/src").build()
        assert result.built == ["a.v", "b.v", "prog"]
        assert sh.ns.exists("/src/prog")
        assert "vc -w a.c" in result.commands

    def test_rebuild_is_noop(self, sh):
        Builder(sh, "/src").build()
        result = Builder(sh, "/src").build()
        assert result.up_to_date
        assert result.built == []

    def test_touch_source_rebuilds_one_object(self, sh):
        Builder(sh, "/src").build()
        sh.run("touch a.c")
        result = Builder(sh, "/src").build()
        assert "a.v" in result.built
        assert "b.v" not in result.built
        assert "prog" in result.built

    def test_touch_header_rebuilds_all(self, sh):
        Builder(sh, "/src").build()
        sh.run("touch common.h")
        result = Builder(sh, "/src").build()
        assert set(result.built) == {"a.v", "b.v", "prog"}

    def test_unknown_target(self, sh):
        with pytest.raises(BuildError, match="don't know how"):
            Builder(sh, "/src").build("mystery")

    def test_missing_source(self, sh):
        sh.ns.write("/src/mkfile", "t: absent.c\n\tvc absent.c\n")
        with pytest.raises(BuildError, match="don't know how"):
            Builder(sh, "/src").build()

    def test_cycle_detected(self, sh):
        sh.ns.write("/src/mkfile", "a: b\n\techo a\nb: a\n\techo b\n")
        with pytest.raises(BuildError, match="cycle"):
            Builder(sh, "/src").build()

    def test_failing_recipe(self, sh):
        sh.ns.write("/src/a.c", "int a; SYNTAX_ERROR\n")
        with pytest.raises(BuildError, match="failed"):
            Builder(sh, "/src").build()


class TestMkCommand:
    def test_mk_from_shell(self, sh):
        result = sh.run("mk")
        assert result.status == 0
        assert "vc -w a.c" in result.stdout
        assert "vl -o prog" in result.stdout

    def test_mk_nothing_to_do(self, sh):
        sh.run("mk")
        assert "nothing to do" in sh.run("mk").stdout

    def test_mk_explicit_target(self, sh):
        result = sh.run("mk a.v")
        assert result.status == 0
        assert sh.ns.exists("/src/a.v")
        assert not sh.ns.exists("/src/prog")

    def test_mk_missing_mkfile(self, sh):
        sh.cwd = "/bin"
        result = sh.run("mk")
        assert result.status == 1
        assert "no mkfile" in result.stderr

    def test_mk_compile_error_reported(self, sh):
        sh.ns.write("/src/b.c", "SYNTAX_ERROR\n")
        result = sh.run("mk")
        assert result.status == 1
        assert "syntax error" in result.stderr


class TestToolchain:
    def test_vc_output_names_input(self, sh):
        sh.run("vc -w a.c")
        assert "a.c" in sh.ns.read("/src/a.v")

    def test_vc_explicit_output(self, sh):
        sh.run("vc -o custom.v a.c")
        assert sh.ns.exists("/src/custom.v")

    def test_vc_missing_file(self, sh):
        """vc words its own error line, which is still the shell's
        report of the error: one notfound."""
        result = sh.run("vc nope.c")
        assert result.status == 1
        assert result.stderr == "vc: '/src/nope.c' does not exist\n"
        assert counters("fs.error.") == {"fs.error.notfound": 1}

    def test_vl_combines_objects(self, sh):
        sh.run("vc a.c; vc b.c; vl -o out a.v b.v -lbio")
        binary = sh.ns.read("/src/out")
        assert "a.c" in binary and "b.c" in binary
        assert "lib(bio)" in binary

    def test_vl_missing_object(self, sh):
        result = sh.run("vl -o out ghost.v")
        assert result.status == 1
        assert result.stderr == "vl: '/src/ghost.v' does not exist\n"
        assert counters("fs.error.") == {"fs.error.notfound": 1}


class TestInverted:
    def test_affected_targets_by_source(self, sh):
        builder = Builder(sh, "/src")
        assert affected_targets(builder, ["a.c"]) == ["prog"]
        assert affected_targets(builder, ["common.h"]) == ["prog"]
        assert affected_targets(builder, ["unrelated.c"]) == []

    def test_invert_and_build(self, sh):
        result = invert_and_build(sh, "/src", ["a.c"])
        assert "prog" in result.built
        assert "a.v" in result.built

    def test_modified_from_index(self):
        index = ("1\t/usr/rob/src/help/exec.c Put! Close! Get!\n"
                 "2\t/usr/rob/src/help/dat.h Close! Get!\n"
                 "3\thelp/Boot Exit\n"
                 "4\t/usr/rob/src/help/ Put! Close! Get!\n")
        assert modified_from_index(index) == ["/usr/rob/src/help/exec.c"]

    def test_modified_since(self, sh):
        tick = sh.ns.vfs.clock.now
        sh.run("touch b.c")
        assert modified_since(sh, "/src", tick) == ["b.c"]

    def test_imk_with_sources(self, sh):
        result = sh.run("imk a.c")
        assert result.status == 0
        assert "vl -o prog" in result.stdout

    def test_imk_no_index(self, sh):
        result = sh.run("imk")
        assert result.status == 1
        assert "no /mnt/help/index" in result.stderr

    def test_imk_from_help_index(self, sh):
        sh.ns.mkdir("/mnt/help", parents=True)
        sh.ns.write("/mnt/help/index", "5\t/src/a.c Put! Close! Get!\n")
        result = sh.run("imk")
        assert result.status == 0
        assert "vc -w a.c" in result.stdout

    def test_imk_nothing_modified(self, sh):
        sh.ns.mkdir("/mnt/help", parents=True)
        sh.ns.write("/mnt/help/index", "5\t/src/a.c Close! Get!\n")
        assert "nothing modified" in sh.run("imk").stdout
