"""Every narrated walkthrough in demos/ runs to completion, cleans up after itself,
and prints the bytes recorded in tests/demo_output/.

A demo that writes files prints paths under its temporary directory; the
check masks that directory, whose name changes from run to run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).resolve().parent / "demo_output"


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []
    stdout = re.sub(re.escape(str(tmp_path)) + r"/[^/\s]+", "<TMPDIR>/<demo>", result.stdout)
    assert stdout == (RECORDED / f"{demo.stem}.txt").read_text(encoding="utf-8")
