"""Smoke test: every narrative demo runs to completion against the package
in ``src/``, under the interpreter's own ``-X dev`` and ``-W`` options, so
that a run under ``-X dev`` or ``-W error::ResourceWarning`` checks the
demos for leaks too."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    flags = (["-X", "dev"] if sys.flags.dev_mode else []) + [
        f"-W{option}" for option in sys.warnoptions
    ]
    proc = subprocess.run(
        [sys.executable, *flags, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # a leak found at garbage collection is reported, not raised, so it
    # leaves the exit status 0
    assert "ResourceWarning" not in proc.stderr, proc.stderr[-2000:]
