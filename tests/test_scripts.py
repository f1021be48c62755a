"""Smoke runs of the committed scripts, so an API change cannot silently break them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import optinput

SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(name, *args):
    # a fresh interpreter that imports this same optinput package
    env = dict(os.environ, PYTHONPATH=str(Path(optinput.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize(
    "name,args",
    [
        ("run_benchmark.py", ("--systems", "2")),
        ("design_sweep.py", ("--steps", "3")),
    ],
)
def test_script_exits_cleanly(tmp_path, name, args):
    extra = ("--outdir", str(tmp_path / "out")) if name == "run_benchmark.py" else ()
    proc = run_script(name, *args, *extra)
    assert proc.returncode == 0, proc.stderr
