"""vc and vl: the simulated Plan 9 MIPS toolchain.

Figure 12's mk window shows::

    vc -w exec.c
    vl help.v clik.v ctrl.v ... -lg -lregexp -ldmalloc

``vc -w file.c`` "compiles" to ``file.v`` and ``vl -o out objs...``
"links" — both write derived files whose contents identify their
inputs, so rebuild logic and tests can verify exactly what happened.
A source file containing the token ``SYNTAX_ERROR`` fails to compile,
which is how failure-injection tests exercise mk's error path.
"""

from __future__ import annotations

from repro.fs.errors import FsError
from repro.fs.vfs import basename
from repro.shell.interp import IO, Interp, reported


def cmd_vc(interp: Interp, args: list[str], io: IO) -> int:
    """vc [-w] [-o out.v] file.c — compile one C source to an object."""
    out_name: str | None = None
    sources: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "-o" and i + 1 < len(args):
            out_name = args[i + 1]
            i += 2
            continue
        if arg.startswith("-"):
            i += 1
            continue
        sources.append(arg)
        i += 1
    if len(sources) != 1:
        io.stderr.append("usage: vc [-w] [-o out.v] file.c\n")
        return 1
    source = sources[0]
    path = interp._abspath(source)
    try:
        text = interp.ns.read(path)
    except FsError as exc:
        io.stderr.append(f"vc: {reported(exc)}\n")
        return 1
    if "SYNTAX_ERROR" in text:
        line = next(i for i, l in enumerate(text.splitlines(), 1)
                    if "SYNTAX_ERROR" in l)
        io.stderr.append(f"vc: {source}:{line}: syntax error\n")
        return 1
    if out_name is None:
        stem = basename(source)
        stem = stem[:-2] if stem.endswith(".c") else stem
        out_name = stem + ".v"
    mtime = interp.ns.mtime(path)
    interp.ns.write(interp._abspath(out_name),
                    f"object({basename(source)}@{mtime})\n")
    return 0


def cmd_vl(interp: Interp, args: list[str], io: IO) -> int:
    """vl [-o out] objects... [-llib...] — link objects into a binary."""
    out_name = "v.out"
    objects: list[str] = []
    libraries: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "-o" and i + 1 < len(args):
            out_name = args[i + 1]
            i += 2
            continue
        if arg.startswith("-l"):
            libraries.append(arg[2:])
            i += 1
            continue
        if arg.startswith("-"):
            i += 1
            continue
        objects.append(arg)
        i += 1
    if not objects:
        io.stderr.append("vl: no objects\n")
        return 1
    parts: list[str] = []
    for obj in objects:
        path = interp._abspath(obj)
        try:
            parts.append(interp.ns.read(path).strip())
        except FsError as exc:
            io.stderr.append(f"vl: {reported(exc)}\n")
            return 1
    binary = "binary[\n" + "".join(f"  {p}\n" for p in parts)
    binary += "".join(f"  lib({name})\n" for name in libraries) + "]\n"
    interp.ns.write(interp._abspath(out_name), binary)
    return 0
