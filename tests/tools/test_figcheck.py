"""sessioncheck's artifacts gate: figure artifacts never drift from goldens.

The paper's twelve figures are the repo's ground truth for what the
screen looks like; the incremental display pipeline is only allowed to
make rendering *faster*, never different.  ``tests/goldens/`` pins the
byte-exact artifacts, and this gate fails the tier-1 suite the moment
a regenerated ``bench_artifacts/fig*.txt`` disagrees.
"""

import pathlib
import subprocess
import sys

from repro.tools import sessioncheck

REPO = pathlib.Path(__file__).resolve().parents[2]
GOLDENS = REPO / "tests" / "goldens"
ARTIFACTS = REPO / "bench_artifacts"


class TestRepoArtifacts:
    def test_no_fig_artifact_drifts_from_golden(self):
        assert sorted(GOLDENS.glob("fig*.txt")), "goldens missing"
        assert sessioncheck.check_artifacts(GOLDENS, ARTIFACTS) == []

    def test_cli_passes_on_repo(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools.sessioncheck", "--faults",
             "--crash"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr
        assert "crash: no problems" in proc.stdout


def dirs(tmp_path):
    baseline, artifact = tmp_path / "baseline", tmp_path / "artifact"
    baseline.mkdir()
    artifact.mkdir()
    return baseline, artifact


class TestCompare:
    def test_detects_content_drift(self, tmp_path):
        baseline, artifact = dirs(tmp_path)
        (baseline / "fig01.txt").write_text("row one\nrow two\n")
        (artifact / "fig01.txt").write_text("row one\nrow 2\n")
        problems = sessioncheck.check_artifacts(baseline, artifact)
        assert problems == ["artifacts/fig01.txt: screen differs from "
                            "golden (first at line 2)"]

    def test_detects_missing_baseline(self, tmp_path):
        baseline, artifact = dirs(tmp_path)
        (artifact / "fig09.txt").write_text("new figure\n")
        problems = sessioncheck.check_artifacts(baseline, artifact)
        assert len(problems) == 1
        assert "no golden" in problems[0]

    def test_unregenerated_artifact_is_not_drift(self, tmp_path):
        baseline, artifact = dirs(tmp_path)
        (baseline / "fig05.txt").write_text("pinned\n")
        assert sessioncheck.check_artifacts(baseline, artifact) == []

    def test_identical_artifacts_pass(self, tmp_path):
        baseline, artifact = dirs(tmp_path)
        for name in ("fig01.txt", "fig02.txt"):
            (baseline / name).write_text("same bytes\n")
            (artifact / name).write_text("same bytes\n")
        assert sessioncheck.check_artifacts(baseline, artifact) == []
