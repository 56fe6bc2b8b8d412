"""The simulated userland: the commands the paper's scripts invoke.

Every command here is a Python function with the contract
``fn(interp, argv, io) -> status``, operating on the shared namespace.
They are deliberately small — just enough POSIX/Plan 9 behaviour for
the tool scripts, the profile in Figure 2, and the examples.

Domain commands (``cpp``, ``rcc``, ``adb``, ``ps``, ``mk``, the mail
and help tools) live with their substrates and are registered into an
interpreter's table by :mod:`repro.tools.install`.
"""

from __future__ import annotations

import re

from repro.fs.errors import FsError
from repro.fs.namespace import BindFlag
from repro.fs.vfs import basename as _basename, dirname as _dirname, join
from repro.shell.interp import IO, Interp, diagnostic as _diag

# The paper's screenshots are all dated mid-April 1991; a deterministic
# clock keeps reproduced figures reproducible.
EPOCH = "Tue Apr 16 19:26:14 EDT 1991"


def _files_or_stdin(interp: Interp, args: list[str], io: IO) -> list[tuple[str, str]]:
    """(name, contents) for each file argument, or stdin if none."""
    if not args:
        return [("<stdin>", io.stdin)]
    out = []
    for name in args:
        out.append((name, interp.ns.read(interp._abspath(name))))
    return out


def cmd_echo(interp: Interp, args: list[str], io: IO) -> int:
    """echo [-n] words..."""
    newline = True
    if args and args[0] == "-n":
        newline = False
        args = args[1:]
    io.stdout.append(" ".join(args) + ("\n" if newline else ""))
    return 0


def cmd_cat(interp: Interp, args: list[str], io: IO) -> int:
    """cat [files...] — concatenate files (or stdin)."""
    try:
        for _, data in _files_or_stdin(interp, args, io):
            io.stdout.append(data)
    except FsError as exc:
        io.stderr.append(f"cat: {_diag(exc)}\n")
        return 1
    return 0


def cmd_cp(interp: Interp, args: list[str], io: IO) -> int:
    """cp src dst — the paper's `cp /mnt/help/7/body file`."""
    if len(args) != 2:
        io.stderr.append("usage: cp src dst\n")
        return 1
    src, dst = (interp._abspath(a) for a in args)
    try:
        data = interp.ns.read(src)
        if interp.ns.isdir(dst):
            dst = join(dst, _basename(src))
        interp.ns.write(dst, data)
    except FsError as exc:
        io.stderr.append(f"cp: {_diag(exc)}\n")
        return 1
    return 0


def cmd_mv(interp: Interp, args: list[str], io: IO) -> int:
    """mv src dst."""
    status = cmd_cp(interp, args, io)
    if status != 0:
        return status
    interp.ns.remove(interp._abspath(args[0]))
    return 0


def cmd_rm(interp: Interp, args: list[str], io: IO) -> int:
    """rm files... (-f ignores missing)."""
    force = False
    if args and args[0] == "-f":
        force = True
        args = args[1:]
    status = 0
    for name in args:
        try:
            interp.ns.remove(interp._abspath(name))
        except FsError as exc:
            if not force:
                io.stderr.append(f"rm: {_diag(exc)}\n")
                status = 1
    return status


def cmd_ls(interp: Interp, args: list[str], io: IO) -> int:
    """ls [-p] [dirs...] — names one per line, dirs slashed."""
    plain = False
    if args and args[0] == "-p":
        plain = True
        args = args[1:]
    targets = args or [interp.cwd]
    status = 0
    for target in targets:
        path = interp._abspath(target)
        try:
            if not interp.ns.isdir(path):
                interp.ns.walk(path)
                io.stdout.append(target + "\n")
                continue
            for name in interp.ns.listdir(path):
                slash = ("" if plain or not interp.ns.isdir(join(path, name))
                         else "/")
                io.stdout.append(name + slash + "\n")
        except FsError as exc:
            io.stderr.append(f"ls: {_diag(exc)}\n")
            status = 1
    return status


def cmd_grep(interp: Interp, args: list[str], io: IO) -> int:
    """grep [-n] [-c] [-i] [-v] pattern [files...].

    Status 0 if anything matched, 1 otherwise — the interface the
    paper's `grep pattern /mnt/help/7/body` example relies on.
    """
    number = count = ignore = invert = False
    while args and args[0].startswith("-") and len(args[0]) > 1:
        for flag in args[0][1:]:
            if flag == "n":
                number = True
            elif flag == "c":
                count = True
            elif flag == "i":
                ignore = True
            elif flag == "v":
                invert = True
            else:
                io.stderr.append(f"grep: bad flag -{flag}\n")
                return 2
        args = args[1:]
    if not args:
        io.stderr.append("usage: grep [-nciv] pattern [files...]\n")
        return 2
    pattern, files = args[0], args[1:]
    try:
        regex = re.compile(pattern, re.IGNORECASE if ignore else 0)
    except re.error as exc:
        io.stderr.append(f"grep: bad pattern: {exc}\n")
        return 2
    matched_any = False
    try:
        sources = _files_or_stdin(interp, files, io)
    except FsError as exc:
        io.stderr.append(f"grep: {_diag(exc)}\n")
        return 2
    many = len(sources) > 1
    for name, data in sources:
        hits = 0
        for line_no, line in enumerate(data.splitlines(), start=1):
            hit = bool(regex.search(line)) != invert
            if not hit:
                continue
            hits += 1
            matched_any = True
            if count:
                continue
            prefix = f"{name}:" if many else ""
            num = f"{line_no}:" if number else ""
            io.stdout.append(f"{prefix}{num}{line}\n")
        if count:
            prefix = f"{name}:" if many else ""
            io.stdout.append(f"{prefix}{hits}\n")
    return 0 if matched_any else 1


def cmd_sed(interp: Interp, args: list[str], io: IO) -> int:
    """sed — the subset the tools use: ``Nq``, ``s/a/b/[g]``, ``-n Np``."""
    quiet = False
    if args and args[0] == "-n":
        quiet = True
        args = args[1:]
    if not args:
        io.stderr.append("usage: sed [-n] script [files...]\n")
        return 1
    script, files = args[0], args[1:]
    try:
        sources = _files_or_stdin(interp, files, io)
    except FsError as exc:
        io.stderr.append(f"sed: {_diag(exc)}\n")
        return 1
    text = "".join(data for _, data in sources)
    lines = text.splitlines(keepends=True)

    if m := re.fullmatch(r"(\d+)q", script):
        limit = int(m.group(1))
        io.stdout.append("".join(lines[:limit]))
        return 0
    if m := re.fullmatch(r"(\d+)p", script):
        want = int(m.group(1))
        if not quiet:
            io.stdout.append("".join(lines))
        if 1 <= want <= len(lines):
            io.stdout.append(lines[want - 1])
        return 0
    if script.startswith("s") and len(script) > 2:
        delim = script[1]
        parts = script[2:].split(delim)
        if len(parts) >= 2:
            pattern, replacement = parts[0], parts[1]
            flags = parts[2] if len(parts) > 2 else ""
            count = 0 if "g" in flags else 1
            try:
                out = [re.sub(pattern, replacement, line, count=count)
                       for line in lines]
            except re.error as exc:
                io.stderr.append(f"sed: bad pattern: {exc}\n")
                return 1
            io.stdout.append("".join(out))
            return 0
    io.stderr.append(f"sed: unsupported script {script!r}\n")
    return 1


def cmd_wc(interp: Interp, args: list[str], io: IO) -> int:
    """wc [-l] [-w] [-c] [files...]."""
    want = {f for f in ("l", "w", "c")
            if args and args[0].startswith("-") and f in args[0]}
    if args and args[0].startswith("-"):
        args = args[1:]
    if not want:
        want = {"l", "w", "c"}
    try:
        sources = _files_or_stdin(interp, args, io)
    except FsError as exc:
        io.stderr.append(f"wc: {_diag(exc)}\n")
        return 1
    for name, data in sources:
        fields = []
        if "l" in want:
            fields.append(str(data.count("\n")))
        if "w" in want:
            fields.append(str(len(data.split())))
        if "c" in want:
            fields.append(str(len(data)))
        suffix = f" {name}" if name != "<stdin>" else ""
        io.stdout.append(" ".join(fields) + suffix + "\n")
    return 0


def cmd_sort(interp: Interp, args: list[str], io: IO) -> int:
    """sort [-r] [-n] [-u] [files...]."""
    reverse = numeric = unique = False
    while args and args[0].startswith("-") and len(args[0]) > 1:
        for flag in args[0][1:]:
            reverse |= flag == "r"
            numeric |= flag == "n"
            unique |= flag == "u"
        args = args[1:]
    try:
        sources = _files_or_stdin(interp, args, io)
    except FsError as exc:
        io.stderr.append(f"sort: {_diag(exc)}\n")
        return 1
    lines = "".join(d for _, d in sources).splitlines()
    if numeric:
        def key(line: str):
            m = re.match(r"\s*(-?\d+)", line)
            return (int(m.group(1)) if m else 0, line)
        lines.sort(key=key, reverse=reverse)
    else:
        lines.sort(reverse=reverse)
    if unique:
        deduped: list[str] = []
        for line in lines:
            if not deduped or deduped[-1] != line:
                deduped.append(line)
        lines = deduped
    io.stdout.append("".join(line + "\n" for line in lines))
    return 0


def cmd_uniq(interp: Interp, args: list[str], io: IO) -> int:
    """uniq [-c] [files...]."""
    counted = bool(args) and args[0] == "-c"
    if counted:
        args = args[1:]
    try:
        sources = _files_or_stdin(interp, args, io)
    except FsError as exc:
        io.stderr.append(f"uniq: {_diag(exc)}\n")
        return 1
    lines = "".join(d for _, d in sources).splitlines()
    out: list[tuple[str, int]] = []
    for line in lines:
        if out and out[-1][0] == line:
            out[-1] = (line, out[-1][1] + 1)
        else:
            out.append((line, 1))
    for line, n in out:
        io.stdout.append(f"{n:4d} {line}\n" if counted else line + "\n")
    return 0


def _head_tail(args: list[str]) -> tuple[int, list[str]]:
    n = 10
    if args and re.fullmatch(r"-\d+", args[0]):
        n = int(args[0][1:])
        args = args[1:]
    elif len(args) >= 2 and args[0] == "-n":
        n = int(args[1])
        args = args[2:]
    return n, args


def cmd_head(interp: Interp, args: list[str], io: IO) -> int:
    """head [-N | -n N] [files...]."""
    n, args = _head_tail(args)
    try:
        sources = _files_or_stdin(interp, args, io)
    except FsError as exc:
        io.stderr.append(f"head: {_diag(exc)}\n")
        return 1
    lines = "".join(d for _, d in sources).splitlines(keepends=True)
    io.stdout.append("".join(lines[:n]))
    return 0


def cmd_tail(interp: Interp, args: list[str], io: IO) -> int:
    """tail [-N | -n N] [files...]."""
    n, args = _head_tail(args)
    try:
        sources = _files_or_stdin(interp, args, io)
    except FsError as exc:
        io.stderr.append(f"tail: {_diag(exc)}\n")
        return 1
    lines = "".join(d for _, d in sources).splitlines(keepends=True)
    io.stdout.append("".join(lines[-n:] if n else []))
    return 0


def cmd_touch(interp: Interp, args: list[str], io: IO) -> int:
    """touch files... — bump mtimes (mk's notion of change)."""
    for name in args:
        path = interp._abspath(name)
        node = interp.ns.resolve(path)
        if node is None:
            interp.ns.write(path, "")
        else:
            node.mtime = interp.ns.vfs.clock.tick()
    return 0


def cmd_mkdir(interp: Interp, args: list[str], io: IO) -> int:
    """mkdir [-p] dirs..."""
    parents = bool(args) and args[0] == "-p"
    if parents:
        args = args[1:]
    status = 0
    for name in args:
        try:
            interp.ns.mkdir(interp._abspath(name), parents=parents)
        except FsError as exc:
            io.stderr.append(f"mkdir: {_diag(exc)}\n")
            status = 1
    return status


def cmd_pwd(interp: Interp, args: list[str], io: IO) -> int:
    """pwd — though help itself 'has no explicit notion of cwd'."""
    io.stdout.append(interp.cwd + "\n")
    return 0


def cmd_basename(interp: Interp, args: list[str], io: IO) -> int:
    """basename path [suffix]."""
    if not args:
        io.stderr.append("usage: basename path [suffix]\n")
        return 1
    name = _basename(args[0])
    if len(args) > 1 and name.endswith(args[1]):
        name = name[:-len(args[1])]
    io.stdout.append(name + "\n")
    return 0


def cmd_dirname(interp: Interp, args: list[str], io: IO) -> int:
    """dirname path."""
    if not args:
        io.stderr.append("usage: dirname path\n")
        return 1
    io.stdout.append(_dirname(args[0]) + "\n")
    return 0


def cmd_bind(interp: Interp, args: list[str], io: IO) -> int:
    """bind [-a|-b|-c] src dst — the profile's namespace surgery."""
    flag = BindFlag.REPLACE
    while args and args[0].startswith("-"):
        if args[0] == "-a":
            flag = BindFlag.AFTER
        elif args[0] == "-b":
            flag = BindFlag.BEFORE
        elif args[0] == "-c":
            pass  # create permission: every bind here allows creation
        else:
            io.stderr.append(f"bind: bad flag {args[0]}\n")
            return 1
        args = args[1:]
    if len(args) != 2:
        io.stderr.append("usage: bind [-a|-b|-c] src dst\n")
        return 1
    try:
        interp.ns.bind(interp._abspath(args[0]), interp._abspath(args[1]), flag)
    except FsError as exc:
        io.stderr.append(f"bind: {_diag(exc)}\n")
        return 1
    return 0


def cmd_ns(interp: Interp, args: list[str], io: IO) -> int:
    """ns — show the mount table."""
    for path, stack in sorted(interp.ns.mount_table().items()):
        names = " ".join(node.name or "/" for node in stack)
        io.stdout.append(f"{path} <- {names}\n")
    return 0


def cmd_date(interp: Interp, args: list[str], io: IO) -> int:
    """date — deterministic: the paper's date plus the logical clock."""
    tick = interp.ns.vfs.clock.now
    io.stdout.append(f"{EPOCH} (+{tick})\n")
    return 0


def cmd_true(interp: Interp, args: list[str], io: IO) -> int:
    return 0


def cmd_false(interp: Interp, args: list[str], io: IO) -> int:
    return 1


def cmd_news(interp: Interp, args: list[str], io: IO) -> int:
    """news — print /lib/news if present (run from the profile)."""
    if interp.ns.exists("/lib/news"):
        io.stdout.append(interp.ns.read("/lib/news"))
    return 0


def cmd_fortune(interp: Interp, args: list[str], io: IO) -> int:
    """fortune — deterministic rotation through /lib/fortunes."""
    fortunes = ["Minimalism is not a style, it is an attitude.\n"]
    if interp.ns.exists("/lib/fortunes"):
        lines = interp.ns.read("/lib/fortunes").splitlines(keepends=True)
        fortunes = lines or fortunes
    index = interp.ns.vfs.clock.now % len(fortunes)
    io.stdout.append(fortunes[index])
    return 0


def cmd_xargs(interp: Interp, args: list[str], io: IO) -> int:
    """xargs cmd [fixed args...] — append stdin words and run."""
    if not args:
        io.stderr.append("usage: xargs cmd [args...]\n")
        return 1
    argv = args + io.stdin.split()
    return interp._dispatch(argv, IO(stdin="", stdout=io.stdout,
                                     stderr=io.stderr))


def cmd_tee(interp: Interp, args: list[str], io: IO) -> int:
    """tee files... — copy stdin to stdout and each file."""
    io.stdout.append(io.stdin)
    for name in args:
        interp.ns.write(interp._abspath(name), io.stdin)
    return 0


def cmd_read(interp: Interp, args: list[str], io: IO) -> int:
    """read var — first line of stdin into a variable."""
    if not args:
        io.stderr.append("usage: read var\n")
        return 1
    line, _, _ = io.stdin.partition("\n")
    interp.set(args[0], [line])
    return 0 if io.stdin else 1


DEFAULT_COMMANDS = {
    "echo": cmd_echo,
    "cat": cmd_cat,
    "cp": cmd_cp,
    "mv": cmd_mv,
    "rm": cmd_rm,
    "ls": cmd_ls,
    "lc": cmd_ls,
    "grep": cmd_grep,
    "sed": cmd_sed,
    "wc": cmd_wc,
    "sort": cmd_sort,
    "uniq": cmd_uniq,
    "head": cmd_head,
    "tail": cmd_tail,
    "touch": cmd_touch,
    "mkdir": cmd_mkdir,
    "pwd": cmd_pwd,
    "basename": cmd_basename,
    "dirname": cmd_dirname,
    "bind": cmd_bind,
    "ns": cmd_ns,
    "date": cmd_date,
    "true": cmd_true,
    "false": cmd_false,
    "news": cmd_news,
    "fortune": cmd_fortune,
    "xargs": cmd_xargs,
    "tee": cmd_tee,
    "read": cmd_read,
}
