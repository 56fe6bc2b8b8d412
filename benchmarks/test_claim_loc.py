"""Claim C7: the system is small — "4300 lines of C".

The reproduction's *core* (the help program proper: editor, windows,
placement, execution, file server) should be of the same order.  Every
other line under ``src/repro`` is counted too, in one of three groups:
serving (session hosting, the wire transport, journals and
replication), substrates (shell, browser, debugger, mail, mk ... — on
Plan 9 they already existed) and tooling (the acceptance gates, the
load generator, benchgate).  The group totals land in the ``loc``
section of ``BENCH_perf.json``, so every run's artifact shows the line
delta.
"""

import fnmatch
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

# First match wins: fs/mux.py is serving before fs/* is a substrate.
GROUPS = (
    ("core", ("core/*", "helpfs/*", "__init__.py", "__main__.py")),
    ("serving", ("serve/*", "journal/*", "session.py", "fs/mux.py",
                 "fs/wire.py")),
    ("tooling", ("tools/benchgate.py", "tools/loadgen.py",
                 "tools/sessioncheck.py", "fs/faults.py", "testing.py")),
    ("substrates", ("fs/*", "shell/*", "proc/*", "cbrowse/*", "mail/*",
                    "mk/*", "metrics/*", "tools/*")),
)


def count_lines():
    """({group: {package: lines}}, files no group claims)."""
    counts = {group: {} for group, _ in GROUPS}
    unclaimed = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        group = next((name for name, patterns in GROUPS
                      if any(fnmatch.fnmatch(rel, p) for p in patterns)),
                     None)
        if group is None:
            unclaimed.append(rel)
            continue
        package = rel.split("/")[0]
        counts[group][package] = (counts[group].get(package, 0)
                                  + len(path.read_text().splitlines()))
    return counts, unclaimed


def test_claim_loc(benchmark, save_artifact, report_extra):
    counts, unclaimed = benchmark(count_lines)
    assert unclaimed == []  # every file is in exactly one group
    totals = {group: sum(detail.values()) for group, detail in counts.items()}
    titles = {
        "core": "our core (help itself)",
        "serving": "serving (hosting, wire, journals, replication)",
        "substrates": "substrates (Plan 9 gave the paper these for free)",
        "tooling": "tooling (acceptance gates, load, benchgate)",
    }
    rows = ["paper's help: 4300 lines of C"]
    for group, detail in counts.items():
        rows.append(f"{titles[group]}: {totals[group]} lines of Python")
        rows += [f"  {package:12s} {lines:6d}"
                 for package, lines in sorted(detail.items())]
    rows.append(f"all of src/repro: {sum(totals.values())}")
    save_artifact("claim_loc", "\n".join(rows) + "\n")
    report_extra("loc", total=sum(totals.values()), **totals)
    print("\n[C7] " + rows[1])
    # same order of magnitude as the original's 4300
    assert 1500 < totals["core"] < 10000
