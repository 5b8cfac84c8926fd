"""Every script in demos/ runs to completion against the library in src/.

Each demo runs in its own interpreter with the runtime, deprecation and
pending-deprecation warnings turned into errors, so a removed or renamed
API, or a numpy warning in a demo's path, fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WARNINGS_AS_ERRORS = ("RuntimeWarning", "DeprecationWarning", "PendingDeprecationWarning")


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    flags = [arg for name in WARNINGS_AS_ERRORS for arg in ("-W", f"error::{name}")]
    proc = subprocess.run([sys.executable, *flags, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
