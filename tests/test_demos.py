"""Smoke test: every narrative demo runs to completion against the package
in ``src/``, with no warning on stderr, under ``-W default`` followed by
the interpreter's own ``-X dev`` and ``-W`` options, so that a run under
``-X dev`` or ``-W error::ResourceWarning`` checks the demos for leaks
too."""

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
    # -W default shows every category once per location; a later -W wins
    flags = (["-X", "dev"] if sys.flags.dev_mode else []) + [
        f"-W{option}" for option in ("default", *sys.warnoptions)
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
    # a demo filters no warning but the one it expects, so any other
    # reaches stderr; a leak found at garbage collection is reported, not
    # raised, so it leaves the exit status 0
    assert "Warning" not in proc.stderr, proc.stderr[-2000:]
    # tmp_path is the demo's TMPDIR: a work directory left there outlives the run
    assert not list(tmp_path.glob("fairbound_demo_*"))
