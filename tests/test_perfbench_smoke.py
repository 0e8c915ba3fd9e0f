"""The benchmark's own test passes: ``python3 perfbench/run.py --smoke``.

The smoke run traces the public functions the benchmark patches by name
and checks every output apart from the program, including that the
bytes repeat.  So a renamed traced function or a changed output byte
fails here.  It takes about ten seconds and needs scipy for its checks.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytest.importorskip("scipy")


def test_smoke_run_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
