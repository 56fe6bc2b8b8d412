"""The inverted builder: from modified sources to affected targets.

From the paper's Discussion: "Make works by being told what target to
build and looking at which files have been changed ...  What's needed
for help is almost the opposite: a tool that, perhaps by examining
the index file, sees what source files have been modified and builds
the targets that depend on them.  Such a program may be a simple
variation of make — the information in the makefile would be the
same."

That is exactly what this module is: the same mkfile, traversed from
leaves to roots.  Two front ends feed it:

- :func:`modified_from_index` reads ``/mnt/help/index`` and treats
  every window whose tag shows ``Put!`` (modified, unwritten) as a
  changed source — the paper's suggestion verbatim;
- explicit source lists (or "changed since logical time T").

``cmd_imk`` is the shell command (``imk [sources...]``).
"""

from __future__ import annotations

from repro.fs.vfs import basename, dirname, join
from repro.mk.build import Builder, BuildError, BuildResult
from repro.mk.mkfile import parse_mkfile
from repro.shell.interp import IO, Interp, reported


def dependency_closure(builder: Builder, target: str,
                       seen: set[str] | None = None) -> set[str]:
    """Every file *target* transitively depends on (excluding itself)."""
    if seen is None:
        seen = set()
    _, prereqs, _ = builder.resolve(target)
    out: set[str] = set()
    for prereq in prereqs:
        if prereq in seen:
            continue
        seen.add(prereq)
        out.add(prereq)
        out |= dependency_closure(builder, prereq, seen)
    return out


def affected_targets(builder: Builder, sources: list[str]) -> list[str]:
    """The explicit targets whose closure touches any of *sources*.

    Order follows the mkfile, so dependencies build before dependents.
    """
    changed = set(sources)
    out: list[str] = []
    for target in builder.mkfile.all_targets():
        closure = dependency_closure(builder, target)
        if closure & changed or target in changed:
            out.append(target)
    return out


def modified_from_index(index_text: str) -> list[str]:
    """Source files named by dirty windows in a ``/mnt/help/index``.

    Each index line is ``number<TAB>first-line-of-tag``; a tag whose
    words include ``Put!`` belongs to a modified window, and its first
    word is the file.
    """
    return [file for _, file in dirty_windows_from_index(index_text)]


def dirty_windows_from_index(index_text: str) -> list[tuple[int, str]]:
    """(window number, file name) for each dirty window in the index."""
    out: list[tuple[int, str]] = []
    for line in index_text.splitlines():
        number, _, tag = line.partition("\t")
        words = tag.split()
        if (number.isdigit() and len(words) >= 2 and "Put!" in words[1:]
                and not words[0].endswith("/")):
            out.append((int(number), words[0]))
    return out


def modified_since(interp: Interp, directory: str, tick: int) -> list[str]:
    """Files in *directory* whose logical mtime is newer than *tick*."""
    out = []
    for name in interp.ns.listdir(directory):
        path = join(directory, name)
        if not interp.ns.isdir(path) and interp.ns.mtime(path) > tick:
            out.append(name)
    return sorted(out)


def invert_and_build(interp: Interp, directory: str,
                     sources: list[str]) -> BuildResult:
    """Build whatever depends on *sources* (names relative to *directory*)."""
    mkfile = parse_mkfile(interp.ns.read(join(directory, "mkfile")))
    builder = Builder(interp, directory, mkfile)
    result = BuildResult()
    targets = affected_targets(builder, sources)
    for target in targets:
        builder.build(target, result)
    result.up_to_date = not result.built
    return result


def cmd_imk(interp: Interp, args: list[str], io: IO) -> int:
    """imk [sources...] — inverted mk.

    With no arguments, consults ``/mnt/help/index`` for dirty windows
    whose files live in the working directory; with arguments, those
    are the modified sources.
    """
    directory = interp.cwd
    if args:
        sources = [basename(interp._abspath(a)) if a.startswith("/") else a
                   for a in args]
    else:
        if not interp.ns.exists("/mnt/help/index"):
            io.stderr.append("imk: no sources and no /mnt/help/index\n")
            return 1
        index = interp.ns.read("/mnt/help/index")
        sources = []
        for number, path in dirty_windows_from_index(index):
            full = interp._abspath(path)
            if dirname(full) != directory:
                continue
            # "tighten the binding between the compilation process and
            # the editing of the source code": write the dirty window
            # out through /mnt/help, then build what depends on it.
            # A window that vanished since the index was read is
            # skipped — its file still counts as modified.
            if interp.ns.exists(f"/mnt/help/{number}/body"):
                body = interp.ns.read(f"/mnt/help/{number}/body")
                interp.ns.write(full, body)
                interp.ns.append(f"/mnt/help/{number}/ctl", "clean\n")
            sources.append(basename(full))
        if not sources:
            io.stdout.append("imk: nothing modified\n")
            return 0
    try:
        result = invert_and_build(interp, directory, sources)
    except BuildError as exc:
        io.stderr.append(f"{exc}\n")
        return 1
    except Exception as exc:
        io.stderr.append(f"imk: {reported(exc)}\n")
        return 1
    io.stdout.append(result.log())
    io.stdout.append(result.output)
    return 0
