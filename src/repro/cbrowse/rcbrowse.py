"""A browser for a second language: rc scripts.

"Given another language, we would need only to modify the compiler to
achieve the same result.  We would not need to write any user
interface software."  This module is that sentence made executable:
a browser for *rc* built on the reproduction's own shell parser, with
no new UI code anywhere — the same Program/Decl/Use model, the same
kind of shell commands, the same window plumbing.

Declarations: ``fn name { ... }`` definitions and ``name=value``
assignments.  Uses: ``$name`` references and command words naming a
known function.  Coordinates are (file, line), derived from token
positions in the source.
"""

from __future__ import annotations

from repro.cbrowse.symbols import Decl, Program, Use
from repro.fs.errors import FsError
from repro.fs.namespace import Namespace
from repro.shell import ast
from repro.shell.lexer import Backquote, Lit, VarRef
from repro.shell.parser import ParseError, parse
from repro.shell.interp import IO, Interp, reported


def _line_of(source: str, pos: int) -> int:
    return source.count("\n", 0, pos) + 1


class _RcWalker:
    """Walks an rc AST, collecting declarations and uses."""

    def __init__(self, source: str, file: str, program: Program,
                 line_offset: int = 0, record_uses: bool = True) -> None:
        self.source = source
        self.file = file
        self.program = program
        self.line_offset = line_offset
        self.record_uses = record_uses
        self._fn_names = {d.name for d in program.decls if d.kind == "func"}
        self._var_names = {d.name for d in program.decls if d.kind == "var"}

    def _line(self, pos: int) -> int:
        return self.line_offset + _line_of(self.source, pos)

    # -- recording ----------------------------------------------------------

    def _declare(self, name: str, kind: str, pos: int) -> None:
        line = self._line(pos)
        existing = next(
            (d for d in self.program.decls
             if d.name == name and d.kind == kind), None)
        if existing is not None:
            if (self.record_uses
                    and (existing.file, existing.line) != (self.file, line)):
                self.program.uses.append(
                    Use(name, self.file, line, existing))
            return
        self.program.decls.append(Decl(name, kind, self.file, line))
        (self._fn_names if kind == "func" else self._var_names).add(name)

    def _use(self, name: str, pos: int, kinds: tuple[str, ...]) -> None:
        if not self.record_uses:
            return
        line = self._line(pos)
        decl = next((d for d in self.program.decls
                     if d.name == name and d.kind in kinds), None)
        self.program.uses.append(Use(name, self.file, line, decl))

    # -- traversal ----------------------------------------------------------------

    def walk(self, node: ast.Command | ast.Seq) -> None:
        method = getattr(self, f"_walk_{type(node).__name__.lower()}", None)
        if method is not None:
            method(node)

    def _walk_seq(self, node: ast.Seq) -> None:
        for command in node.commands:
            self.walk(command)

    def _walk_simple(self, node: ast.Simple) -> None:
        for assign in node.assigns:
            pos = assign.values[0].pos if assign.values else 0
            self._declare(assign.name, "var", pos)
            for word in assign.values:
                self._walk_word(word)
        for i, word in enumerate(node.argv):
            if i == 0:
                name = _word_literal(word)
                if name and name in self._fn_names:
                    self._use(name, word.pos, ("func",))
            self._walk_word(word)
        for redir in node.redirs:
            self._walk_word(redir.target)

    def _walk_word(self, word: ast.Word) -> None:
        for fragment in word.fragments:
            if isinstance(fragment, VarRef):
                # $1, $*, $status etc. are the shell's, not the script's
                if fragment.name.isdigit() or fragment.name in ("*", "status"):
                    continue
                self._use(fragment.name, word.pos, ("var",))
            elif isinstance(fragment, Backquote):
                try:
                    tree = parse(fragment.source)
                except ParseError:
                    continue
                sub = _RcWalker(fragment.source, self.file, self.program,
                                self._line(fragment.pos) - 1)
                sub.walk(tree)

    def _walk_block(self, node: ast.Block) -> None:
        self.walk(node.body)
        for redir in node.redirs:
            self._walk_word(redir.target)

    def _walk_pipeline(self, node: ast.Pipeline) -> None:
        for stage in node.stages:
            self.walk(stage)

    def _walk_not(self, node: ast.Not) -> None:
        self.walk(node.cmd)

    def _walk_andor(self, node: ast.AndOr) -> None:
        self.walk(node.first)
        for _, command in node.rest:
            self.walk(command)

    def _walk_if(self, node: ast.If) -> None:
        self.walk(node.cond)
        self.walk(node.body)

    def _walk_ifnot(self, node: ast.IfNot) -> None:
        self.walk(node.body)

    def _walk_for(self, node: ast.For) -> None:
        self._declare(node.var, "var", 0)
        for word in node.words or []:
            self._walk_word(word)
        self.walk(node.body)

    def _walk_while(self, node: ast.While) -> None:
        self.walk(node.cond)
        self.walk(node.body)

    def _walk_switch(self, node: ast.Switch) -> None:
        self._walk_word(node.subject)
        for case in node.cases:
            for pattern in case.patterns:
                self._walk_word(pattern)
            self.walk(case.body)

    def _walk_fndef(self, node: ast.FnDef) -> None:
        pos = self.source.find(f"fn {node.name}")
        self._declare(node.name, "func", max(pos, 0))
        if node.body is not None:
            self.walk(node.body.body)


def _word_literal(word: ast.Word) -> str:
    parts = []
    for fragment in word.fragments:
        if not isinstance(fragment, Lit):
            return ""
        parts.append(fragment.text)
    return "".join(parts)


def parse_rc_program(ns: Namespace, paths: list[str],
                     base_dir: str | None = None) -> Program:
    """Browse a set of rc scripts as one program."""
    from repro.fs.vfs import dirname
    if not paths:
        return Program()
    if base_dir is None:
        base_dir = dirname(paths[0])
    program = Program()
    prefix = base_dir.rstrip("/") + "/"
    parsed: list[tuple[str, str, object]] = []
    for path in paths:
        label = path[len(prefix):] if path.startswith(prefix) else path
        source = ns.read(path)
        try:
            tree = parse(source)
        except ParseError:
            program.missing_includes.append(path)
            continue
        parsed.append((source, label, tree))
    # two passes so forward references across files still bind:
    # declarations first, then uses
    for source, label, tree in parsed:
        _RcWalker(source, label, program, record_uses=False).walk(tree)
    for source, label, tree in parsed:
        _RcWalker(source, label, program).walk(tree)
    return program


# -- shell commands -------------------------------------------------------------


def cmd_rdecl(interp: Interp, args: list[str], io: IO) -> int:
    """rdecl -i<name> scripts... — where an rc function/var is defined."""
    name = None
    sources: list[str] = []
    for arg in args:
        if arg.startswith("-i") and len(arg) > 2:
            name = arg[2:]
        else:
            sources.append(arg)
    if name is None or not sources:
        io.stderr.append("usage: rdecl -iname scripts...\n")
        return 1
    paths = [interp._abspath(s) for s in sources]
    try:
        program = parse_rc_program(interp.ns, paths, base_dir=interp.cwd)
    except FsError as exc:
        io.stderr.append(f"rdecl: {reported(exc)}\n")
        return 1
    decl = program.declaration_of(name)
    if decl is None:
        io.stderr.append(f"rdecl: {name}: not declared\n")
        return 1
    io.stdout.append(f"{decl.location}\n")
    return 0


def cmd_ruses(interp: Interp, args: list[str], io: IO) -> int:
    """ruses -i<name> scripts... — every reference to an rc name."""
    name = None
    sources: list[str] = []
    for arg in args:
        if arg.startswith("-i") and len(arg) > 2:
            name = arg[2:]
        else:
            sources.append(arg)
    if name is None or not sources:
        io.stderr.append("usage: ruses -iname scripts...\n")
        return 1
    paths = [interp._abspath(s) for s in sources]
    try:
        program = parse_rc_program(interp.ns, paths, base_dir=interp.cwd)
    except FsError as exc:
        io.stderr.append(f"ruses: {reported(exc)}\n")
        return 1
    uses = program.uses_of(name)
    if not uses:
        io.stderr.append(f"ruses: {name}: not found\n")
        return 1
    for use in uses:
        io.stdout.append(f"{use.location}\n")
    return 0


RCBROWSE_COMMANDS = {
    "help-rdecl": cmd_rdecl,
    "help-ruses": cmd_ruses,
}
