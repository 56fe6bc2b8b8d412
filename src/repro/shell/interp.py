"""The rc interpreter: word evaluation, command dispatch, pipelines.

Processes are function calls and pipes are strings: each pipeline
stage runs to completion and hands its standard output to the next.
That loses concurrency but preserves everything the paper's scripts
observe — they are all linear filters.

Variables are rc lists.  Concatenation follows rc: pairwise for
equal-length lists, distributing when one side is a single word, and
an error when a referenced list is empty ("null list in
concatenation" catches tool bugs early, as in the original).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Callable

from repro.fs.errors import FsError, diagnostic as fs_diagnostic
from repro.fs.namespace import Namespace
from repro.fs.vfs import join
from repro.metrics.counter import incr
from repro.shell import ast
from repro.shell.lexer import Backquote, Fragment, Lit, VarRef
from repro.shell.parser import ParseError, parse


def reported(exc: BaseException) -> BaseException:
    """*exc*, about to be printed by the shell or a tool it runs.  That
    line is the shell's report of a taxonomy error, so the error is
    counted here, once, as ``fs.error.<kind>``."""
    if isinstance(exc, FsError):
        incr(f"fs.error.{exc.kind}")
    return exc


def diagnostic(exc: BaseException) -> str:
    """The structured line the shell prints for *exc*, counted."""
    return fs_diagnostic(reported(exc))


class ShellError(Exception):
    """A runtime shell error (bad concatenation, runaway loop, ...)."""


class _Exit(Exception):
    """Raised by the ``exit`` builtin to unwind the script."""

    def __init__(self, status: int) -> None:
        super().__init__(status)
        self.status = status


@dataclass
class IO:
    """Standard streams for one command: in as a string, out/err grow."""

    stdin: str = ""
    stdout: list[str] = field(default_factory=list)
    stderr: list[str] = field(default_factory=list)

    def out(self) -> str:
        return "".join(self.stdout)

    def err(self) -> str:
        return "".join(self.stderr)


@dataclass
class RunResult:
    """What :meth:`Interp.run` returns."""

    status: int
    stdout: str
    stderr: str


# A userland command: full access to the interpreter (namespace, cwd,
# variables) plus argv and streams; returns an exit status.
Command = Callable[["Interp", list[str], IO], int]

# Hard cap on while-loop iterations: the scripts here are tiny, so a
# loop that spins this long is a bug, not a workload.
MAX_LOOP = 100_000


class Interp:
    """One shell execution context."""

    def __init__(self, ns: Namespace, cwd: str = "/",
                 commands: dict[str, Command] | None = None,
                 context=None) -> None:
        self.ns = ns
        self.cwd = cwd
        # a repro.session.SessionContext: which session's world this
        # shell mutates (inherited by subshells)
        self.context = context
        self.vars: dict[str, list[str]] = {"status": ["0"], "path": ["/bin"]}
        self.funcs: dict[str, ast.Block] = {}
        if commands is None:
            from repro.shell.commands import DEFAULT_COMMANDS
            commands = dict(DEFAULT_COMMANDS)
        self.commands = commands
        # journal hook: called with (argv, cwd) for every simple command
        self.trace: Callable[[list[str], str], None] | None = None

    # -- entry points ---------------------------------------------------------

    def run(self, src: str, stdin: str = "") -> RunResult:
        """Parse and execute *src*; collect the streams."""
        io = IO(stdin=stdin)
        try:
            program = parse(src)
        except ParseError as exc:
            return RunResult(1, "", f"rc: {exc}\n")
        try:
            status = self.exec(program, io)
        except _Exit as exc:
            status = exc.status
        except FsError as exc:
            # Structured one-liner: op, canonical path, reason, kind.
            io.stderr.append(f"rc: {diagnostic(exc)}\n")
            status = 1
        except ShellError as exc:
            io.stderr.append(f"rc: {exc}\n")
            status = 1
        return RunResult(status, io.out(), io.err())

    def run_file(self, path: str, args: list[str] | None = None,
                 stdin: str = "") -> RunResult:
        """Run the rc script stored at *path* with ``$*`` set to *args*."""
        try:
            src = self.ns.read(path)
        except FsError as exc:
            return RunResult(1, "", f"rc: {reported(exc)}\n")
        child = self.subshell()
        child.set_args(path, args or [])
        return child.run(src, stdin)

    def subshell(self) -> "Interp":
        """A child interpreter: copied variables, shared world."""
        child = Interp(self.ns, self.cwd, self.commands,
                       context=self.context)
        child.vars = {name: list(value) for name, value in self.vars.items()}
        child.funcs = dict(self.funcs)
        child.trace = self.trace
        return child

    def set_args(self, name: str, args: list[str]) -> None:
        """Install ``$0``, ``$*`` and ``$1``-``$9``."""
        self.vars["0"] = [name]
        self.vars["*"] = list(args)
        for i in range(1, 10):
            self.vars[str(i)] = [args[i - 1]] if i <= len(args) else []

    # -- variables ------------------------------------------------------------

    def get(self, name: str) -> list[str]:
        return self.vars.get(name, [])

    def set(self, name: str, value: list[str]) -> None:
        self.vars[name] = value

    @property
    def status(self) -> int:
        try:
            return int(self.get("status")[0])
        except (IndexError, ValueError):
            return 1

    def _set_status(self, status: int) -> int:
        self.vars["status"] = [str(status)]
        return status

    # -- word evaluation ------------------------------------------------------

    def eval_word(self, word: ast.Word, io: IO, glob: bool = True) -> list[str]:
        """Evaluate one word to a list, with concatenation and globbing.

        ``glob=False`` keeps metacharacters literal — switch/case and
        ``~`` patterns match strings, not the filesystem.
        """
        result: list[str] | None = None
        globbable = False
        for fragment in word.fragments:
            values, frag_glob = self._eval_fragment(fragment, io)
            globbable = globbable or frag_glob
            result = values if result is None else _concat(result, values)
        assert result is not None
        if globbable and glob:
            expanded: list[str] = []
            for value in result:
                expanded.extend(self._glob(value))
            return expanded
        return result

    def eval_words(self, words: list[ast.Word], io: IO,
                   glob: bool = True) -> list[str]:
        """Evaluate and flatten a word list (an argv)."""
        out: list[str] = []
        for word in words:
            out.extend(self.eval_word(word, io, glob))
        return out

    def _eval_fragment(self, fragment: Fragment, io: IO) -> tuple[list[str], bool]:
        if isinstance(fragment, Lit):
            has_glob = (not fragment.quoted
                        and any(c in fragment.text for c in "*?["))
            return ([fragment.text], has_glob)
        if isinstance(fragment, VarRef):
            value = self.get(fragment.name)
            if fragment.count:
                return ([str(len(value))], False)
            if fragment.flatten:
                return ([" ".join(value)], False)
            if fragment.indices is not None:
                # rc subscripts are 1-based; out-of-range picks nothing
                return ([value[i - 1] for i in fragment.indices
                         if 1 <= i <= len(value)], False)
            return (list(value), False)
        assert isinstance(fragment, Backquote)
        sub_io = IO(stdin=io.stdin)
        try:
            self.exec(parse(fragment.source), sub_io)
        except ParseError as exc:
            raise ShellError(f"in `{{...}}: {exc}") from exc
        finally:
            # even a failing substitution surfaces its diagnostics
            io.stderr.append(sub_io.err())
        return (sub_io.out().split(), False)

    def _glob(self, pattern: str) -> list[str]:
        if not any(c in pattern for c in "*?["):
            return [pattern]
        absolute = pattern.startswith("/")
        full = pattern if absolute else join(self.cwd, pattern)
        matches = self.ns.glob(full)
        if not matches:
            return [pattern]  # rc passes unmatched patterns through
        if absolute:
            return matches
        prefix = self.cwd.rstrip("/") + "/"
        return [m[len(prefix):] if m.startswith(prefix) else m
                for m in matches]

    # -- execution ------------------------------------------------------------

    def exec(self, node: ast.Command, io: IO) -> int:
        """Execute any AST node; returns (and records) the exit status."""
        method = getattr(self, f"_exec_{type(node).__name__.lower()}")
        return method(node, io)

    def _exec_seq(self, node: ast.Seq, io: IO) -> int:
        status = self.status
        for command in node.commands:
            status = self.exec(command, io)
        return status

    def _exec_simple(self, node: ast.Simple, io: IO) -> int:
        if not node.argv:
            for assign in node.assigns:
                self.set(assign.name, self.eval_words(assign.values, io))
            return self._set_status(0)
        saved: dict[str, list[str]] = {}
        for assign in node.assigns:
            saved[assign.name] = self.get(assign.name)
            self.set(assign.name, self.eval_words(assign.values, io))
        try:
            head = self.eval_word(node.argv[0], io)
            if head == ["~"] and len(node.argv) > 1:
                # rc does not glob-expand ~'s patterns; the subject is.
                subject = self.eval_word(node.argv[1], io)
                patterns = self.eval_words(node.argv[2:], io, glob=False)
                argv = head + subject + patterns
            else:
                argv = head + self.eval_words(node.argv[1:], io)
            if not argv:
                return self._set_status(0)
            return self._with_redirs(node.redirs, io,
                                     lambda sub: self._dispatch(argv, sub))
        finally:
            for name, value in saved.items():
                self.set(name, value)

    def _exec_block(self, node: ast.Block, io: IO) -> int:
        return self._with_redirs(node.redirs, io,
                                 lambda sub: self.exec(node.body, sub))

    def _exec_pipeline(self, node: ast.Pipeline, io: IO) -> int:
        data = io.stdin
        status = 0
        for i, stage in enumerate(node.stages):
            stage_io = IO(stdin=data)
            try:
                status = self.exec(stage, stage_io)
            finally:
                # a stage that dies mid-pipeline must not swallow the
                # diagnostics (or partial output) it already produced
                io.stderr.append(stage_io.err())
            data = stage_io.out()
        io.stdout.append(data)
        return self._set_status(status)

    def _exec_not(self, node: ast.Not, io: IO) -> int:
        status = self.exec(node.cmd, io)
        return self._set_status(0 if status != 0 else 1)

    def _exec_andor(self, node: ast.AndOr, io: IO) -> int:
        status = self.exec(node.first, io)
        for op, command in node.rest:
            if (op == "&&") == (status == 0):
                status = self.exec(command, io)
        return self._set_status(status)

    def _exec_if(self, node: ast.If, io: IO) -> int:
        cond_status = self.exec(node.cond, io)
        if cond_status == 0:
            self._if_failed = False
            return self.exec(node.body, io)
        self._if_failed = True
        return self._set_status(0)

    def _exec_ifnot(self, node: ast.IfNot, io: IO) -> int:
        if getattr(self, "_if_failed", False):
            self._if_failed = False
            return self.exec(node.body, io)
        return self._set_status(0)

    def _exec_for(self, node: ast.For, io: IO) -> int:
        values = (self.eval_words(node.words, io) if node.words is not None
                  else list(self.get("*")))
        status = 0
        for value in values:
            self.set(node.var, [value])
            status = self.exec(node.body, io)
        return self._set_status(status)

    def _exec_while(self, node: ast.While, io: IO) -> int:
        status = 0
        for _ in range(MAX_LOOP):
            if self.exec(node.cond, io) != 0:
                return self._set_status(status)
            status = self.exec(node.body, io)
        raise ShellError("while loop ran too long")

    def _exec_switch(self, node: ast.Switch, io: IO) -> int:
        subjects = self.eval_word(node.subject, io)
        subject = " ".join(subjects)
        for case in node.cases:
            patterns = self.eval_words(case.patterns, io, glob=False)
            if any(fnmatch.fnmatchcase(subject, p) for p in patterns):
                return self.exec(case.body, io)
        return self._set_status(0)

    def _exec_fndef(self, node: ast.FnDef, io: IO) -> int:
        if node.body is None:
            self.funcs.pop(node.name, None)
        else:
            self.funcs[node.name] = node.body
        return self._set_status(0)

    # -- redirections ---------------------------------------------------------

    def _with_redirs(self, redirs: list[ast.Redir], io: IO,
                     run: Callable[[IO], int]) -> int:
        if not redirs:
            return run(io)
        sub = IO(stdin=io.stdin)
        capture_out = False
        for redir in redirs:
            if redir.kind == "<":
                targets = self.eval_word(redir.target, io)
                if len(targets) != 1:
                    raise ShellError("redirection needs one file name")
                sub.stdin = self.ns.read(self._abspath(targets[0]))
            else:
                capture_out = True
        status = 0
        failed = False
        try:
            status = run(sub)
        except BaseException:
            failed = True
            raise
        finally:
            # Flush even when the command failed: whatever it wrote
            # before dying still reaches the redirection targets (and
            # its stderr is never swallowed).  Secondary errors while
            # flushing must not mask the original failure.
            io.stderr.append(sub.err())
            wrote = False
            for redir in redirs:
                if redir.kind == "<":
                    continue
                try:
                    targets = self.eval_word(redir.target, io)
                    if len(targets) != 1:
                        raise ShellError("redirection needs one file name")
                    path = self._abspath(targets[0])
                    if redir.kind == ">":
                        self.ns.write(path, sub.out())
                    else:
                        self.ns.append(path, sub.out())
                    wrote = True
                except (ShellError, FsError):
                    if not failed:
                        raise
            if capture_out and not wrote and not failed:
                io.stdout.append(sub.out())
            if not capture_out:
                io.stdout.append(sub.out())
        return status

    def _abspath(self, path: str) -> str:
        return path if path.startswith("/") else join(self.cwd, path)

    # -- command dispatch -----------------------------------------------------

    def _dispatch(self, argv: list[str], io: IO) -> int:
        if self.trace is not None:
            self.trace(argv, self.cwd)
        name, args = argv[0], argv[1:]
        fn = self.funcs.get(name)
        if fn is not None:
            child_vars = {k: list(v) for k, v in self.vars.items()}
            self.set_args(name, args)
            try:
                return self._set_status(self.exec(fn.body, io))
            finally:
                for key in ("0", "*", *map(str, range(1, 10))):
                    if key in child_vars:
                        self.vars[key] = child_vars[key]
                    else:
                        self.vars.pop(key, None)
        shell_builtin = _SHELL_BUILTINS.get(name)
        if shell_builtin is not None:
            return self._set_status(shell_builtin(self, args, io))
        command = self.commands.get(name)
        if command is not None:
            return self._set_status(command(self, args, io))
        return self._set_status(self._run_script(name, args, io))

    def _run_script(self, name: str, args: list[str], io: IO) -> int:
        path = self._find_script(name)
        if path is None:
            io.stderr.append(f"rc: {name}: not found\n")
            return 1
        child = self.subshell()
        child.set_args(name, args)
        result = child.run(self.ns.read(path), io.stdin)
        io.stdout.append(result.stdout)
        io.stderr.append(result.stderr)
        return result.status

    def _find_script(self, name: str) -> str | None:
        # rc resolves names beginning with /, ./ or ../ directly;
        # anything else — slashes included, as in "help/parse" —
        # is searched for along $path.
        if name.startswith(("/", "./", "../")):
            path = self._abspath(name)
            return path if (self.ns.exists(path)
                            and not self.ns.isdir(path)) else None
        for directory in self.get("path") or ["/bin"]:
            path = join(directory, name)
            if self.ns.exists(path) and not self.ns.isdir(path):
                return path
        path = self._abspath(name)
        if self.ns.exists(path) and not self.ns.isdir(path):
            return path
        return None


def _concat(left: list[str], right: list[str]) -> list[str]:
    """rc list concatenation: pairwise, or distributed over a scalar."""
    if not left or not right:
        raise ShellError("null list in concatenation")
    if len(left) == len(right):
        return [a + b for a, b in zip(left, right)]
    if len(left) == 1:
        return [left[0] + b for b in right]
    if len(right) == 1:
        return [a + right[0] for a in left]
    raise ShellError(
        f"mismatched list lengths in concatenation ({len(left)} vs {len(right)})")


# -- shell builtins (affect the interpreter itself) ---------------------------


def _builtin_cd(interp: Interp, args: list[str], io: IO) -> int:
    if not args:
        interp.cwd = "/"
        return 0
    path = interp._abspath(args[0])
    if not interp.ns.isdir(path):
        io.stderr.append(f"cd: {args[0]}: bad directory\n")
        return 1
    interp.cwd = path
    return 0


def _builtin_eval(interp: Interp, args: list[str], io: IO) -> int:
    """Re-parse and run the arguments as rc input (decl's first line)."""
    result = interp.run(" ".join(args), io.stdin)
    io.stdout.append(result.stdout)
    io.stderr.append(result.stderr)
    return result.status


def _builtin_exit(interp: Interp, args: list[str], io: IO) -> int:
    status = 0
    if args:
        try:
            status = int(args[0])
        except ValueError:
            status = 1
    raise _Exit(status)


def _builtin_match(interp: Interp, args: list[str], io: IO) -> int:
    """``~ subject pattern...`` — status 0 if any pattern matches."""
    if not args:
        return 1
    subject, patterns = args[0], args[1:]
    return 0 if any(fnmatch.fnmatchcase(subject, p) for p in patterns) else 1


def _builtin_dot(interp: Interp, args: list[str], io: IO) -> int:
    """``. file`` — run a script in the current shell (profiles)."""
    if not args:
        io.stderr.append(".: needs a file\n")
        return 1
    path = interp._abspath(args[0])
    try:
        src = interp.ns.read(path)
    except FsError as exc:
        io.stderr.append(f".: {reported(exc)}\n")
        return 1
    interp.set_args(path, args[1:])
    result_io = IO(stdin=io.stdin)
    try:
        status = interp.exec(parse(src), result_io)
    except ParseError as exc:
        io.stderr.append(f"rc: {exc}\n")
        return 1
    finally:
        # a profile that dies halfway still shows what it printed
        io.stdout.append(result_io.out())
        io.stderr.append(result_io.err())
    return status


def _builtin_shift(interp: Interp, args: list[str], io: IO) -> int:
    n = int(args[0]) if args else 1
    star = interp.get("*")
    interp.set_args(interp.get("0")[0] if interp.get("0") else "rc",
                    star[n:])
    return 0


def _builtin_whatis(interp: Interp, args: list[str], io: IO) -> int:
    status = 0
    for name in args:
        if name in interp.funcs:
            io.stdout.append(f"fn {name}\n")
        elif name in interp.vars:
            io.stdout.append(f"{name}=({' '.join(interp.get(name))})\n")
        elif name in interp.commands or interp._find_script(name):
            io.stdout.append(f"{name}\n")
        else:
            io.stderr.append(f"whatis: {name}: not found\n")
            status = 1
    return status


_SHELL_BUILTINS: dict[str, Callable[[Interp, list[str], IO], int]] = {
    "cd": _builtin_cd,
    "eval": _builtin_eval,
    "exit": _builtin_exit,
    "~": _builtin_match,
    ".": _builtin_dot,
    "shift": _builtin_shift,
    "whatis": _builtin_whatis,
}
