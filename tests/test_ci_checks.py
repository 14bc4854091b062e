"""The CI checks script runs here as it runs after the tier-1 tests in CI."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ".github/ci_checks.sh"
TOOLS = ("bash", "taskset", "sha256sum")
WRONG = ("'^3b7031ab408722aa'", "'^3b7031ab408722ab'")  # the torsion digest line


def checks(tmp_path, text):
    """Run text as the script of a copy of the checkout, with `catbij` and
    `python` on PATH as shims for this interpreter, traced by bash -x."""
    repo = tmp_path / "repo"
    for part in "src/catbij", "bench":
        (repo / part).mkdir(parents=True)
        for p in (ROOT / part).glob("*.py"):
            (repo / part / p.name).write_bytes(p.read_bytes())
    (repo / ".github").mkdir()
    (repo / SCRIPT).write_text(text, encoding="utf-8")
    shims = tmp_path / "shims"
    shims.mkdir()
    for name, run in ("catbij", "-m catbij.cli"), ("python", ""):
        (shims / name).write_text(f'#!/bin/sh\nexec "{sys.executable}" {run} "$@"\n')
        (shims / name).chmod(0o755)
    env = dict(os.environ, PATH=f"{shims}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=str(repo / "src"))
    return subprocess.run(["bash", "-x", str(repo / SCRIPT)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.skipif(not all(map(shutil.which, TOOLS)), reason=f"the script needs {TOOLS}")
def test_ci_checks_pass_and_fail_on_a_wrong_expected_line(tmp_path):
    text = (ROOT / SCRIPT).read_text(encoding="utf-8")
    proc = checks(tmp_path / "right", text)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "run.py --workload verify" in proc.stderr  # the last check ran
    assert text.count(WRONG[0]) == 1
    proc = checks(tmp_path / "wrong", text.replace(*WRONG))
    assert proc.returncode != 0
    # it stopped at the wrong line, before the checks after it
    assert WRONG[1] in proc.stderr and "verify all" not in proc.stderr
