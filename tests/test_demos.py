import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: extra arguments that keep a demo short
ARGS = {"simulate.py": ["--t-end", "0.05"]}


def run_demo(demo, cwd) -> str:
    """The demo's stdout, after checking that it exits 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *ARGS.get(demo, [])],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_gates_demo_prints_the_verdict_of_check(tmp_path):
    # the negative-delta fleet fails check, as its eigenvalue gate fails
    verdicts = [line.split()[2] for line in run_demo("assumption_gates.py", tmp_path).splitlines()
                if line.strip().startswith("check verdict")]
    assert verdicts == ["True", "False"]
