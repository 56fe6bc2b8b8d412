"""Tests for the cpp/rcc/cuses/cdecls shell commands."""

import pytest

from repro.cbrowse.tools import apply_line_markers, parse_marked_source
from repro.cbrowse.lexer import tokenize
from repro.fs import VFS, Namespace
from repro.metrics.counter import counters
from repro.shell import Interp


@pytest.fixture
def sh():
    fs = VFS()
    fs.mkdir("/src", parents=True)
    fs.mkdir("/inc", parents=True)
    fs.create("/src/dat.h", "extern int n;\n")
    fs.create("/inc/extra.h", "extern int m;\n")
    fs.create("/src/a.c",
              '#include "dat.h"\n#include "extra.h"\n'
              "void f(void) { n = m; }\n")
    interp = Interp(Namespace(fs), cwd="/src")
    from repro.cbrowse.tools import CBROWSE_COMMANDS
    interp.commands["cpp"] = CBROWSE_COMMANDS["cpp"]
    interp.commands["rcc"] = CBROWSE_COMMANDS["rcc"]
    interp.commands["cuses"] = CBROWSE_COMMANDS["cuses"]
    interp.commands["cdecls"] = CBROWSE_COMMANDS["cdecls"]
    return interp


class TestCpp:
    def test_inlines_quoted_include(self, sh):
        out = sh.run("cpp a.c").stdout
        assert 'extern int n;' in out
        assert '#line 1 "./dat.h"' in out
        assert '#line 2 "a.c"' in out  # resume marker after the include

    def test_include_dirs_flag(self, sh):
        out = sh.run("cpp -I/inc a.c").stdout
        assert "extern int m;" in out

    def test_missing_include_skipped(self, sh):
        result = sh.run("cpp a.c")  # extra.h not found without -I
        assert result.status == 0
        assert "extern int m;" not in result.stdout

    def test_no_input(self, sh):
        assert sh.run("cpp -w").status == 1

    def test_missing_file(self, sh):
        """cpp words its own error line, which is still the shell's
        report of the error: one notfound."""
        result = sh.run("cpp ghost.c")
        assert result.status == 1
        assert result.stderr == "cpp: '/src/ghost.c' does not exist\n"
        assert counters("fs.error.") == {"fs.error.notfound": 1}

    def test_double_include_once(self, sh):
        sh.ns.write("/src/b.c", '#include "dat.h"\n#include "dat.h"\nint x;\n')
        out = sh.run("cpp b.c").stdout
        assert out.count("extern int n;") == 1


class TestLineMarkers:
    def test_apply_markers(self):
        source = ('#line 1 "main.c"\n'
                  "int a;\n"
                  '#line 1 "./hdr.h"\n'
                  "int b;\n"
                  '#line 3 "main.c"\n'
                  "int c;\n")
        tokens = apply_line_markers(tokenize(source))
        coords = {t.text: (t.file, t.line) for t in tokens
                  if t.kind == "ident"}
        assert coords["a"] == ("main.c", 1)
        assert coords["b"] == ("./hdr.h", 1)
        assert coords["c"] == ("main.c", 3)

    def test_unmarked_source_untouched(self):
        tokens = apply_line_markers(tokenize("int a;\n", "orig.c"))
        assert tokens[1].file == "orig.c"

    def test_parse_marked_source_main_file(self):
        source = '#line 1 "thing.c"\nint q;\n'
        program, main_file = parse_marked_source(source)
        assert main_file == "thing.c"
        assert program.declaration_of("q").file == "thing.c"


class TestRcc:
    def test_finds_declaration(self, sh):
        result = sh.run("cpp -I/inc a.c | rcc -w -g -in -n3")
        assert result.stdout == "./dat.h:1\n"

    def test_finds_other_header(self, sh):
        result = sh.run("cpp -I/inc a.c | rcc -im -n3")
        assert result.stdout == "./extra.h:1\n"

    def test_undeclared(self, sh):
        result = sh.run("cpp a.c | rcc -izzz")
        assert result.status == 1
        assert "not declared" in result.stderr

    def test_usage(self, sh):
        assert sh.run("echo x | rcc").status == 1
        assert sh.run("echo x | rcc -nbogus -iq").status == 1
        assert sh.run("echo x | rcc --badflag -iq").status == 1


class TestCuses:
    def test_lists_references(self, sh):
        result = sh.run("cuses -in -fa.c -n3 a.c")
        assert "./dat.h:1" in result.stdout
        assert "a.c:3" in result.stdout

    def test_usage(self, sh):
        assert sh.run("cuses a.c").status == 1
        assert sh.run("cuses -in").status == 1
        assert sh.run("cuses -in -nx a.c").status == 1

    def test_unknown_identifier(self, sh):
        result = sh.run("cuses -ighost a.c")
        assert result.status == 1


class TestCdecls:
    def test_lists_declarations(self, sh):
        result = sh.run("cdecls a.c")
        assert "./dat.h:1 var n" in result.stdout
        assert "a.c:3 func f" in result.stdout

    def test_usage(self, sh):
        assert sh.run("cdecls").status == 1
