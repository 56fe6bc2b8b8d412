"""The builder: out-of-date analysis and recipe execution.

A target is rebuilt when it does not exist or any prerequisite
(recursively brought up to date first) has a newer logical mtime.
Recipes run through the rc interpreter with ``$target``, ``$prereq``
and ``$stem`` bound, in the mkfile's directory — which, under help,
is the window's context directory ("Running make in the appropriate
directory is too pedestrian for an environment like this", but mk
itself must still work).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fs.vfs import join
from repro.mk.mkfile import Mkfile, Rule, expand, parse_mkfile
from repro.shell.interp import IO, Interp, reported


class BuildError(Exception):
    """A recipe failed or a target is unbuildable."""


@dataclass
class BuildResult:
    """What a build did."""

    built: list[str] = field(default_factory=list)     # targets rebuilt
    commands: list[str] = field(default_factory=list)  # recipe lines run
    output: str = ""                                   # their stdout+stderr
    up_to_date: bool = False

    def log(self) -> str:
        """The transcript mk prints (Figure 12's mk window)."""
        if self.up_to_date:
            return "mk: nothing to do\n"
        return "".join(cmd + "\n" for cmd in self.commands)


class Builder:
    """Builds targets of one mkfile in one directory."""

    def __init__(self, interp: Interp, directory: str,
                 mkfile: Mkfile | None = None) -> None:
        self.interp = interp
        self.dir = directory
        if mkfile is None:
            mkfile = parse_mkfile(interp.ns.read(join(directory, "mkfile")))
        self.mkfile = mkfile

    # -- graph resolution ---------------------------------------------------

    def resolve(self, target: str) -> tuple[Rule | None, list[str], str]:
        """(rule, prereqs, stem) for *target*; rule None = source file."""
        rule = self.mkfile.explicit_rule(target)
        if rule is not None:
            prereqs = list(rule.prereqs)
            # an explicit rule without a recipe may chain to a meta-rule
            if not rule.recipe:
                meta = self.mkfile.meta_rule(target)
                if meta is not None:
                    meta_rule, stem = meta
                    prereqs += [p.replace("%", stem) for p in meta_rule.prereqs]
                    return (meta_rule, prereqs, stem)
            return (rule, prereqs, "")
        meta = self.mkfile.meta_rule(target)
        if meta is not None:
            rule, stem = meta
            return (rule, [p.replace("%", stem) for p in rule.prereqs], stem)
        return (None, [], "")

    def _mtime(self, name: str) -> int | None:
        path = join(self.dir, name)
        if not self.interp.ns.exists(path):
            return None
        return self.interp.ns.mtime(path)

    # -- building ---------------------------------------------------------------

    def build(self, target: str | None = None,
              result: BuildResult | None = None) -> BuildResult:
        """Bring *target* (default: the mkfile's first) up to date."""
        if result is None:
            result = BuildResult()
        if target is None:
            target = self.mkfile.default_target()
            if target is None:
                raise BuildError("mkfile has no targets")
        self._build(target, result, set())
        result.up_to_date = not result.built
        return result

    def _build(self, target: str, result: BuildResult,
               in_progress: set[str]) -> None:
        if target in in_progress:
            raise BuildError(f"dependency cycle through '{target}'")
        rule, prereqs, stem = self.resolve(target)
        if rule is None:
            if self._mtime(target) is None:
                raise BuildError(f"don't know how to make '{target}'")
            return
        in_progress.add(target)
        for prereq in prereqs:
            self._build(prereq, result, in_progress)
        in_progress.discard(target)
        if target in result.built:
            return
        target_time = self._mtime(target)
        if target_time is not None:
            newest = max((self._mtime(p) or 0 for p in prereqs), default=0)
            if newest <= target_time:
                return
        self._run_recipe(rule, target, prereqs, stem, result)
        result.built.append(target)

    def _run_recipe(self, rule: Rule, target: str, prereqs: list[str],
                    stem: str, result: BuildResult) -> None:
        shell = self.interp.subshell()
        shell.cwd = self.dir
        shell.set("target", [target])
        shell.set("prereq", prereqs)
        shell.set("stem", [stem])
        for line in rule.recipe:
            command = expand(line, self.mkfile.variables)
            # mk's own $stem/$target expansion happens in the shell
            result.commands.append(_pretty(command, shell))
            run = shell.run(command)
            result.output += run.stdout + run.stderr
            if run.status != 0:
                raise BuildError(
                    f"mk: '{_pretty(command, shell)}' failed: "
                    f"{run.stderr.strip() or run.status}")


def _pretty(command: str, shell: Interp) -> str:
    """The recipe line as mk echoes it (with mk variables substituted)."""
    out = command
    for name in ("stem", "target"):
        out = out.replace(f"${name}", " ".join(shell.get(name)))
    return out


def cmd_mk(interp: Interp, args: list[str], io: IO) -> int:
    """The mk shell command: ``mk [-f mkfile] [targets...]``."""
    mkfile_name = "mkfile"
    targets: list[str] = []
    i = 0
    while i < len(args):
        if args[i] == "-f" and i + 1 < len(args):
            mkfile_name = args[i + 1]
            i += 2
            continue
        targets.append(args[i])
        i += 1
    path = join(interp.cwd, mkfile_name)
    if not interp.ns.exists(path):
        io.stderr.append(f"mk: no {mkfile_name} in {interp.cwd}\n")
        return 1
    try:
        builder = Builder(interp, interp.cwd,
                          parse_mkfile(interp.ns.read(path)))
        result = BuildResult()
        for target in targets or [None]:
            builder.build(target, result)
        result.up_to_date = not result.built
    except BuildError as exc:
        io.stderr.append(f"{exc}\n")
        return 1
    except Exception as exc:  # MkfileError and friends
        io.stderr.append(f"mk: {reported(exc)}\n")
        return 1
    io.stdout.append(result.log())
    io.stdout.append(result.output)
    return 0
