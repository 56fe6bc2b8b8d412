"""The browser as shell commands: cpp, rcc, and cuses.

The paper's decl script runs::

    cpp $cppflags $file | help/rcc -w -g -i$id -n$line | sed 1q

so these commands reproduce that pipeline:

- :func:`cmd_cpp` inlines quoted ``#include`` files, emitting
  ``#line`` markers so coordinates survive the pipe;
- :func:`cmd_rcc` is the compiler with no code generator: it parses
  its standard input (honouring the markers), finds the declaration
  binding ``-i``\\ *identifier* as used at ``-n``\\ *line*, and prints
  its file coordinate;
- :func:`cmd_cuses` is the whole-program variant behind ``uses``:
  parse the argument files and list every reference of the identifier.
"""

from __future__ import annotations

import re

from repro.cbrowse.lexer import CToken, tokenize
from repro.cbrowse.parser import parse_program
from repro.cbrowse.symbols import Program
from repro.fs.errors import FsError
from repro.fs.vfs import dirname, join
from repro.shell.interp import IO, Interp, reported

_LINE_MARKER = re.compile(r'#line\s+(\d+)\s+"([^"]*)"')


def cmd_cpp(interp: Interp, args: list[str], io: IO) -> int:
    """cpp [flags] file — inline quoted includes with #line markers.

    ``-Dx`` and ``-Idir`` flags are accepted (``-I`` extends the quoted
    include search); comments pass through untouched (the downstream
    parser skips them), so line numbers are preserved exactly.
    """
    include_dirs: list[str] = []
    files: list[str] = []
    for arg in args:
        if arg.startswith("-I") and len(arg) > 2:
            include_dirs.append(arg[2:])
        elif arg.startswith("-"):
            continue  # -D etc.: tolerated, not needed by the browser
        else:
            files.append(arg)
    if not files:
        io.stderr.append("cpp: no input file\n")
        return 1
    seen: set[str] = set()

    def emit(path: str, label: str) -> None:
        if path in seen:
            return
        seen.add(path)
        source = interp.ns.read(path)
        io.stdout.append(f'#line 1 "{label}"\n')
        out_line = 1
        for line_no, line in enumerate(source.splitlines(), start=1):
            match = re.match(r'\s*#include\s+"([^"]+)"', line)
            if match:
                name = match.group(1)
                candidates = [join(dirname(path), name)]
                candidates += [join(d, name) for d in include_dirs]
                for candidate in candidates:
                    if interp.ns.exists(candidate):
                        emit(candidate, f"./{name}")
                        break
                io.stdout.append(f'#line {line_no + 1} "{label}"\n')
                continue
            io.stdout.append(line + "\n")
            out_line += 1

    try:
        for name in files:
            path = interp._abspath(name)
            emit(path, name)
    except FsError as exc:
        io.stderr.append(f"cpp: {reported(exc)}\n")
        return 1
    return 0


def apply_line_markers(tokens: list[CToken]) -> list[CToken]:
    """Remap token coordinates according to ``#line N "file"`` markers."""
    out: list[CToken] = []
    current_file: str | None = None
    base_line = 0       # marker's N
    marker_line = 0     # physical line the marker sat on
    for tok in tokens:
        if tok.kind == "cpp":
            match = _LINE_MARKER.match(tok.text)
            if match:
                base_line = int(match.group(1))
                current_file = match.group(2)
                marker_line = tok.line
                continue
        if current_file is None:
            out.append(tok)
        else:
            mapped = base_line + (tok.line - marker_line - 1)
            out.append(CToken(tok.kind, tok.text, current_file, mapped))
    return out


def parse_marked_source(source: str) -> tuple[Program, str]:
    """Parse cpp output; returns (program, label of the main file)."""
    from repro.cbrowse.parser import _Parser  # reuse the walker

    tokens = apply_line_markers(tokenize(source, "<stdin>"))
    program = Program()
    parser = _Parser(program, set())
    parser.walk([t for t in tokens
                 if not (t.kind == "cpp" and t.text.startswith("#include"))])
    main_file = "<stdin>"
    # the main file is the label of the outermost (first) marker
    first = re.search(_LINE_MARKER, source)
    if first is not None:
        main_file = first.group(2)
    return program, main_file


def cmd_rcc(interp: Interp, args: list[str], io: IO) -> int:
    """rcc [-w] [-g] -i<identifier> -n<line> — print the declaration.

    Reads (preprocessed) C on standard input.  "This compiler has no
    code generator: it parses the program and manages the symbol
    table, and when it sees the declaration for the indicated
    identifier on the appropriate line of the file, it prints the file
    coordinates of that declaration."
    """
    ident: str | None = None
    line: int | None = None
    for arg in args:
        if arg.startswith("-i") and len(arg) > 2:
            ident = arg[2:]
        elif arg.startswith("-n") and len(arg) > 2:
            try:
                line = int(arg[2:])
            except ValueError:
                io.stderr.append(f"rcc: bad line {arg[2:]!r}\n")
                return 1
        elif arg in ("-w", "-g"):
            continue
        else:
            io.stderr.append(f"rcc: bad flag {arg}\n")
            return 1
    if ident is None:
        io.stderr.append("usage: rcc [-w] [-g] -iident [-nline]\n")
        return 1
    program, main_file = parse_marked_source(io.stdin)
    decl = program.declaration_of(ident, main_file, line)
    if decl is None:
        io.stderr.append(f"rcc: {ident}: not declared\n")
        return 1
    io.stdout.append(f"{decl.location}\n")
    return 0


def cmd_cuses(interp: Interp, args: list[str], io: IO) -> int:
    """cuses -i<identifier> [-f<file>] [-n<line>] sources...

    Parse the source files (relative to the working directory, which
    help sets to the window's context) and list every reference bound
    to the same declaration as the identifier at file:line, one
    ``file:line`` per line — Figure 10's window body.
    """
    ident: str | None = None
    file: str | None = None
    line: int | None = None
    sources: list[str] = []
    for arg in args:
        if arg.startswith("-i") and len(arg) > 2:
            ident = arg[2:]
        elif arg.startswith("-f") and len(arg) > 2:
            file = arg[2:]
        elif arg.startswith("-n") and len(arg) > 2:
            try:
                line = int(arg[2:])
            except ValueError:
                io.stderr.append(f"cuses: bad line {arg[2:]!r}\n")
                return 1
        else:
            sources.append(arg)
    if ident is None or not sources:
        io.stderr.append("usage: cuses -iident [-ffile] [-nline] sources...\n")
        return 1
    base = interp.cwd
    paths = [interp._abspath(s) for s in sources]
    try:
        program = parse_program(interp.ns, paths, base_dir=base)
    except FsError as exc:
        io.stderr.append(f"cuses: {reported(exc)}\n")
        return 1
    label = None
    if file is not None:
        full = interp._abspath(file)
        prefix = base.rstrip("/") + "/"
        label = full[len(prefix):] if full.startswith(prefix) else full
    uses = program.uses_of(ident, label, line)
    if not uses:
        io.stderr.append(f"cuses: {ident}: not found\n")
        return 1
    for use in uses:
        io.stdout.append(f"{use.location}\n")
    return 0


def cmd_cdecls(interp: Interp, args: list[str], io: IO) -> int:
    """cdecls sources... — every declaration, as ``file:line kind name``.

    Backs the ``src`` tool's overview of what a directory defines.
    """
    if not args:
        io.stderr.append("usage: cdecls sources...\n")
        return 1
    paths = [interp._abspath(s) for s in args]
    try:
        program = parse_program(interp.ns, paths, base_dir=interp.cwd)
    except FsError as exc:
        io.stderr.append(f"cdecls: {reported(exc)}\n")
        return 1
    for decl in program.decls:
        if decl.kind in ("func", "var", "typedef", "macro", "tag"):
            io.stdout.append(f"{decl.location} {decl.kind} {decl.name}\n")
    return 0


CBROWSE_COMMANDS = {
    "cpp": cmd_cpp,
    "rcc": cmd_rcc,
    "cuses": cmd_cuses,
    "cdecls": cmd_cdecls,
}
