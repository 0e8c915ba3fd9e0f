"""Generated CSV text never takes a command outside the exit-code contract.

Every ``train``, ``predict`` and ``audit`` run on the generated files must
return 0, 1 or 2 from ``main``; an exception escaping it would reach the
user as a traceback.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from minconsist import family_names  # noqa: E402
from minconsist.cli import main  # noqa: E402

FAMILY_FLAGS = {
    "smoothing": ["--k", "1"],
    "knn": ["--k", "1"],
    "dtree": [],
    "nb": [],
    "svm": ["--w", "1"],
    "svr": ["--epsilon", "0.1", "--lambda", "0.01"],
    "erm": [],
}
NUMBERS = ["0", "1", "-1", "2.5", "1e200", "-1e308"]
# Symbols, empty cells, non-finite numbers, quoted delimiters and line
# breaks, U+0085 (a line break to str.splitlines, not to csv), and bare
# line breaks, which make blank lines and ragged rows.
TOKENS = NUMBERS + ["nan", "1e400", "red", "blue", "", '"a,b"', '"c\nd"', "e\x85f", "\n"]


def feature(name):
    """A feature column's alphabet: numbers, its own symbols, or any token."""
    return st.sampled_from([NUMBERS, [f"{name}a", f"{name}b"], TOKENS])


FEEDBACK = st.sampled_from([["0", "1"], ["-1", "1"], NUMBERS, TOKENS])


@st.composite
def csv_text(draw, columns):
    """A table with a header row; ``columns`` maps each name to its alphabet."""
    alphabets = [draw(alphabet) for alphabet in columns.values()]
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, alphabets)), min_size=1, max_size=6,
                         unique_by=lambda cells: cells[:2]))  # mostly no repeated vectors
    return "".join(",".join(cells) + "\n" for cells in [list(columns), *rows])


def test_every_family_is_generated():
    assert sorted(FAMILY_FLAGS) == sorted(family_names())


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2), argv
    return code


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=csv_text({"x1": feature("x1"), "x2": feature("x2"), "y": FEEDBACK}),
       queries=csv_text({"x1": feature("x1"), "x2": feature("x2")}))
def test_commands_keep_the_exit_code_contract(data, queries):
    with tempfile.TemporaryDirectory() as tmp:
        data_csv, queries_csv = Path(tmp, "d.csv"), Path(tmp, "q.csv")
        data_csv.write_text(data, encoding="utf-8")
        queries_csv.write_text(queries, encoding="utf-8")
        for family, flags in FAMILY_FLAGS.items():
            model = Path(tmp, f"{family}.json")
            if _run(["train", "--learner", family, *flags, "--data", data_csv,
                     "--out", model]) == 0:
                _run(["predict", "--model", model, "--queries", queries_csv,
                      "--data", data_csv])
                _run(["audit", "--model", model, "--data", data_csv])
