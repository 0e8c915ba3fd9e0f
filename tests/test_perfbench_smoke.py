"""The benchmark's own test passes: ``python3 perfbench/run.py --smoke``.

The smoke run traces the public functions the benchmark patches by name
and checks every output apart from the program, including that the
bytes repeat.  So a renamed traced function or a changed output byte
fails here.  It takes about ten seconds and needs scipy for its checks;
the check that every traced name still exists needs neither.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for group, targets in {**tracer.SPAN_GROUPS, **tracer.COUNT_GROUPS}.items():
        for module, *names in targets:
            owner = importlib.import_module(f"minconsist.{module}")
            if len(names) == 2:  # a method, which the tracer finds in its class's __dict__
                owner = vars(getattr(owner, names[0]))
                assert names[1] in owner, (group, module, *names)
            else:
                assert callable(getattr(owner, names[0], None)), (group, module, *names)


def test_smoke_run_passes():
    pytest.importorskip("scipy")
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
