"""Smoke runs of the committed scripts, the README's library tour and the
benchmark's workloads, so an API change cannot silently break them."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optinput

ROOT = Path(__file__).parents[1]
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"


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


def test_readme_library_tour_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    sol, energy = scope["sol"], scope["problem"].energy
    assert np.max(np.abs(optinput.circular_correlation(sol.u.values, 4) - sol.r)) <= 1e-8 * energy


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py loaded from its path; its checks import perfbench/reference.py."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, identify, solve",
    [("mc-tc", 4, 12), ("design-coupling", 0, 36), ("identify-long", 4, 0)],
)
def test_benchmark_round_passes_its_checks(workloads, tmp_path, name, identify, solve):
    # one round of each workload as perfbench/run.py runs it, then its reference checks
    seed = 0
    ops = workloads.WORKLOADS[name](seed, tmp_path).run_round()
    workloads.check(ops, seed)
    assert [(op.op_id, op.problems) for op in ops if op.problems] == []
    kinds = [op.kind for op in ops]
    assert (kinds.count("identify"), kinds.count("solve")) == (identify, solve)
    assert len({op.op_id for op in ops}) == len(ops)
