"""The narrative scripts in demos/ run to completion and reach their
verdicts.  Each runs in a fresh interpreter with the package imported
from src/, as a reader would run it from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

VERDICTS = {
    "identity_survey.py": "closure failures on [1,60): 0",
    "induction_sweep.py": "violations: none",
    "sublinear_mertens.py": "spot checks to 10^5: all agree",
    "gamma_convergence.py": "bounded envelope: True",
}


def test_every_demo_has_a_verdict():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(VERDICTS)


@pytest.mark.parametrize("demo", sorted(VERDICTS))
def test_demo_runs_and_reaches_its_verdict(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert VERDICTS[demo] in proc.stdout.splitlines()
