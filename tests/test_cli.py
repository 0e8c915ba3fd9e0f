"""Command-line behavior: flags, exit codes, stream discipline."""

import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minconsist import (
    Case,
    FeatureVector,
    InconsistencyReport,
    KNearest,
    LinearHypothesis,
    NeighborhoodSpec,
    SvmParams,
    SvrParams,
    TrainingSet,
    YKind,
    dtree_predict,
    family_names,
    knn_predict,
    load_dataset,
    load_model,
    nb_predict,
    select_hypothesis,
    smoothing_fit,
    svm_slack,
    svr_report,
    training_set,
)
from minconsist import linear, pointwise
from minconsist.core import family_spec
from minconsist.cli import _fmt_prediction, main


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    return _write


PM1_CSV = "x1,x2,y\n0,0,-1\n0,1,-1\n2,2,1\n3,2,1\n"
REAL_CSV = "x,y\n0,1\n1,2\n5,9\n"
BIN_CSV = "x,y\n0,0\n1,0\n5,1\n6,1\n"
DELETE = object()  # an edit that removes the key from a model file


def run(argv):
    return main([str(a) for a in argv])


def edits(*cases):
    """Parametrize ``edit, named`` over (model-file edit, its error after the model's path)."""
    return pytest.mark.parametrize("edit, named", cases,
                                   ids=[f"edit{i}" for i in range(len(cases))])


class TestTrain:
    def test_svm_train_writes_model_and_echoes(self, write, tmp_path, capsys):
        data = write("d.csv", PM1_CSV)
        out = tmp_path / "m.json"
        assert run(["train", "--learner", "svm", "--data", data, "--w", "1.0",
                    "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "family=svm"
        assert "w=1.0" in lines
        assert "m=4" in lines and "n=2" in lines
        assert out.exists()
        model = load_model(out)
        assert model.family == "svm"
        assert model.fitted is not None

    def test_a_fit_past_the_step_bound_is_an_error(self, write, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(linear, "STEPS_PER_ROW", 0)
        out = tmp_path / "m.json"
        assert run(["train", "--learner", "erm", "--data", write("d.csv", REAL_CSV),
                    "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == "error: the solver found no certified optimum in 0 steps\n"
        assert not out.exists()

    def test_knn_train_binds_training_hash(self, write, tmp_path):
        data = write("d.csv", BIN_CSV)
        out = tmp_path / "m.json"
        assert run(["train", "--learner", "knn", "--data", data, "--k", "3",
                    "--out", out]) == 0
        model = load_model(out)
        assert model.training_hash is not None
        assert model.fitted is None

    def test_dtree_train_saves_tree(self, write, tmp_path):
        data = write("d.csv", BIN_CSV)
        out = tmp_path / "m.json"
        assert run(["train", "--learner", "dtree", "--data", data, "--out", out]) == 0
        assert load_model(out).fitted is not None

    def test_dtree_splits_at_a_negative_threshold(self, write, tmp_path, capsys):
        data = write("d.csv", "x,y\n-3,0\n-2,0\n1,1\n2,1\n")
        queries = write("q.csv", "x\n-5\n-2\n0\n7\n")
        model = tmp_path / "m.json"
        assert run(["train", "--learner", "dtree", "--data", data, "--out", model]) == 0
        assert json.loads(model.read_text())["tree"]["threshold"] == -2
        capsys.readouterr()
        assert run(["predict", "--model", model, "--queries", queries, "--data", data]) == 0
        assert capsys.readouterr().out == "0\n0\n1\n1\n"
        assert run(["audit", "--model", model, "--data", data]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(r["x"], r["mu"], r["counterparts"]) for r in rows] == [
            ([-3], 0.0, 2), ([-2], 0.0, 2), ([1], 0.0, 2), ([2], 0.0, 2)
        ]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["train", "--learner", "knn", "--data", "d.csv", "--k", "0", "--out", "m"],
        ["train", "--learner", "svm", "--data", "d.csv", "--w", "1", "--k", "3",
         "--out", "m"],
        ["train", "--learner", "svm", "--data", "d.csv", "--out", "m"],
        ["train", "--learner", "smoothing", "--data", "d.csv", "--k", "2",
         "--radius", "1", "--out", "m"],
        ["train", "--learner", "smoothing", "--data", "d.csv", "--out", "m"],
        ["train", "--learner", "wizard", "--data", "d.csv", "--out", "m"],
        ["verify", "--trials", "0"],
        ["train"],
        [],
        ["train", "--learner", "svm", "--data", "d.csv", "--w", "nan", "--out", "m"],
        ["train", "--learner", "svr", "--data", "d.csv", "--epsilon", "nan",
         "--lambda", "0", "--out", "m"],
        ["train", "--learner", "svr", "--data", "d.csv", "--epsilon", "0",
         "--lambda", "nan", "--out", "m"],
        ["train", "--learner", "smoothing", "--data", "d.csv", "--radius", "nan",
         "--out", "m"],
        ["train", "--learner", "svr", "--data", "d.csv", "--epsilon", "inf",
         "--lambda", "0", "--out", "m"],
        ["train", "--learner", "smoothing", "--data", "d.csv", "--radius", "inf",
         "--out", "m"],
        ["verify", "--seed", "-1"],
    ])
    def test_exit_two(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err != ""


class TestDataErrors:
    def test_svm_rejects_binary01_labels(self, write, tmp_path, capsys):
        data = write("d.csv", BIN_CSV)
        code = run(["train", "--learner", "svm", "--data", data, "--w", "1",
                    "--out", tmp_path / "m.json"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pm1" in captured.err

    def test_pointwise_predict_needs_data(self, write, tmp_path, capsys):
        data = write("d.csv", BIN_CSV)
        model = tmp_path / "m.json"
        run(["train", "--learner", "knn", "--data", data, "--k", "3",
             "--out", model])
        capsys.readouterr()
        queries = write("q.csv", "x\n2\n")
        assert run(["predict", "--model", model, "--queries", queries]) == 1
        assert "--data" in capsys.readouterr().err

    def test_pointwise_predict_rejects_changed_data(self, write, tmp_path, capsys):
        data = write("d.csv", BIN_CSV)
        model = tmp_path / "m.json"
        run(["train", "--learner", "knn", "--data", data, "--k", "3",
             "--out", model])
        capsys.readouterr()
        other = write("other.csv", "x,y\n0,0\n1,0\n5,1\n7,1\n")
        queries = write("q.csv", "x\n2\n")
        code = run(["predict", "--model", model, "--queries", queries,
                    "--data", other])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_radius_miss_keeps_the_answers_before_it(self, write, tmp_path, capsys):
        data = write("d.csv", REAL_CSV)
        model = tmp_path / "m.json"
        run(["train", "--learner", "smoothing", "--data", data, "--radius", "1.5",
             "--out", model])
        capsys.readouterr()
        queries = write("q.csv", "x\n0.5\n5\n20\n1\n")
        assert run(["predict", "--model", model, "--queries", queries,
                    "--data", data]) == 1
        captured = capsys.readouterr()
        assert captured.out == "1.5\n9\n"
        assert captured.err == "error: no case within radius 1.5 of (20,)\n"

    def test_missing_data_file(self, tmp_path, capsys):
        code = run(["train", "--learner", "nb", "--data", tmp_path / "nope.csv",
                    "--out", tmp_path / "m.json"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


def _train_argv(tmp_path, **files):
    """A knn train command on BIN_CSV; ``files`` replace its paths or add flags."""
    (tmp_path / "d.csv").write_text(BIN_CSV, encoding="utf-8")
    paths = {"data": tmp_path / "d.csv", "out": tmp_path / "m.json", **files}
    return ["train", "--learner", "knn", "--k", "1",
            *(arg for key, path in paths.items() for arg in (f"--{key}", path))]


def _written(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
    return path


class TestFileBoundaries:
    """Every file the CLI reads or writes fails as a data error, never a traceback."""

    @pytest.mark.parametrize("argv", [
        lambda t: _train_argv(t, schema=t / "nosuch.json"),
        lambda t: _train_argv(t, schema=_written(
            t, "s.json", '{"columns": ' + "[" * 100_000 + "]" * 100_000 + "}")),
        lambda t: _train_argv(t, data=_written(t, "e.csv", b"x,y\n0,0\n\xff,1\n")),
        lambda t: ["predict", "--model", _written(t, "m.json", b'{"format": "\xff"}'),
                   "--queries", _written(t, "q.csv", "x\n2\n")],
        lambda t: _train_argv(t, out=t / "nonexistent" / "m.json"),
        lambda t: _train_argv(t, out=t),
    ], ids=["missing-schema", "nested-schema", "csv-not-utf8", "model-not-utf8",
            "out-in-missing-dir", "out-is-a-directory"])
    def test_exit_one(self, tmp_path, capsys, argv):
        assert run(argv(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


class TestNonFiniteTokens:
    """nan, inf and 1e400 (inf once parsed) are data errors that name their cell."""

    @pytest.fixture(params=["nan", "inf", "1e400"])
    def token(self, request):
        return request.param

    def _fail(self, argv, capsys, column):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert f"(row 3, column {column!r})" in captured.err
        assert "Traceback" not in captured.err

    def _model(self, write, tmp_path, capsys, argv):
        model = tmp_path / "m.json"
        assert run(["train", *argv, "--out", model]) == 0
        capsys.readouterr()
        return model

    @pytest.mark.parametrize("row, column", [("{},1", "x"), ("5,{}", "y")])
    def test_train(self, write, tmp_path, capsys, token, row, column):
        data = write("d.csv", "x,y\n0,1\n" + row.format(token) + "\n")
        self._fail(["train", "--learner", "erm", "--data", data,
                    "--out", tmp_path / "m.json"], capsys, column)

    def test_predict_queries(self, write, tmp_path, capsys, token):
        model = self._model(write, tmp_path, capsys,
                            ["--learner", "erm", "--data", write("d.csv", REAL_CSV)])
        queries = write("q.csv", f"x\n2\n{token}\n")
        self._fail(["predict", "--model", model, "--queries", queries], capsys, "x")

    @pytest.mark.parametrize("row, column", [("{},1", "x"), ("6,{}", "y")])
    def test_predict_data(self, write, tmp_path, capsys, token, row, column):
        model = self._model(write, tmp_path, capsys,
                            ["--learner", "knn", "--k", "1", "--data", write("d.csv", BIN_CSV)])
        data = write("e.csv", "x,y\n0,0\n" + row.format(token) + "\n")
        queries = write("q.csv", "x\n2\n")
        self._fail(["predict", "--model", model, "--queries", queries, "--data", data],
                   capsys, column)

    @pytest.mark.parametrize("row, column", [("{},1", "x"), ("5,{}", "y")])
    def test_audit(self, write, tmp_path, capsys, token, row, column):
        model = self._model(write, tmp_path, capsys,
                            ["--learner", "erm", "--data", write("d.csv", REAL_CSV)])
        data = write("e.csv", "x,y\n0,1\n" + row.format(token) + "\n")
        self._fail(["audit", "--model", model, "--data", data], capsys, column)


class TestNonFiniteResults:
    """An answer, a case's inconsistency or a total that overflows is an error that names it.

    No output then holds ``NaN`` or ``Infinity``, which are not JSON.
    """

    HUGE_CSV = "x,y\n0,1e308\n1,1e308\n5,0\n"  # the sum of the first two overflows
    LINE_CSV = "x,y\n0,0\n1,2\n2,4.5\n"  # the least-total line is 2.25 x

    def _fail(self, argv, capsys, named):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {named} is beyond the floating-point range\n"
        for word in ("nan", "inf", "NaN", "Infinity"):
            assert word not in captured.out

    def test_train(self, write, tmp_path, capsys, monkeypatch):
        # A pointwise fit's training scores are bounded: a smoothing answer is its
        # neighborhood's mean, so its gap is 0, and a vote's gap is at most 1.  So
        # the check behind them is reached here by scores no learner gives today.
        data, answers = write("d.csv", self.HUGE_CSV), pointwise._smoothing
        for mu, named in ((1e308, "the total inconsistency"),
                          (math.inf, "the inconsistency of case 1")):
            monkeypatch.setattr(pointwise, "_smoothing", lambda *args: (
                (value, mu, count) for value, _, count in answers(*args)))
            model = tmp_path / "m.json"
            self._fail(["train", "--learner", "smoothing", "--k", "2", "--out", model,
                        "--data", data], capsys, named)
            assert not model.exists()

    def test_train_a_line(self, write, tmp_path, capsys):
        # No line fits all three: the second difference of the residuals is 4e308.
        model = tmp_path / "m.json"
        self._fail(["train", "--learner", "erm", "--out", model,
                    "--data", write("d.csv", "x,y\n0,1e308\n1,-1e308\n2,1e308\n")],
                   capsys, "the least total inconsistency")
        assert not model.exists()

    def test_predict(self, write, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run(["train", "--learner", "erm", "--data", write("d.csv", self.LINE_CSV),
                    "--out", model]) == 0
        capsys.readouterr()
        queries = write("q.csv", "x\n5\n1e308\n")
        assert run(["predict", "--model", model, "--queries", queries]) == 1
        captured = capsys.readouterr()
        assert float(captured.out) == pytest.approx(11.25)
        assert captured.err == "error: the answer to query 2 is beyond the floating-point range\n"

    def test_predict_stops_at_the_query_it_cannot_answer(self, write, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run(["train", "--learner", "erm", "--data", write("d.csv", self.LINE_CSV),
                    "--out", model]) == 0
        capsys.readouterr()
        queries = write("q.csv", "x\n5\n1e308\n6\n")
        assert run(["predict", "--model", model, "--queries", queries]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1
        assert float(captured.out) == pytest.approx(11.25)
        assert captured.err == "error: the answer to query 2 is beyond the floating-point range\n"

    def test_a_mean_whose_sum_overflows_is_answered(self, write, tmp_path, capsys):
        data, model = write("d.csv", self.HUGE_CSV), tmp_path / "m.json"
        assert run(["train", "--learner", "smoothing", "--k", "2", "--data", data,
                    "--out", model]) == 0
        assert capsys.readouterr().out.splitlines()[5] == "total_inconsistency=0.0"
        queries = write("q.csv", "x\n0.5\n3\n")  # 0.5 ties the first two cases
        assert run(["predict", "--model", model, "--queries", queries, "--data", data]) == 0
        assert capsys.readouterr().out == "1e+308\n5e+307\n"
        assert run(["audit", "--model", model, "--data", data]) == 0
        assert json.loads(capsys.readouterr().out)["total_inconsistency"] == 0.0

    def test_a_mean_slack_whose_sum_overflows_is_audited(self, write, capsys):
        # Both slacks and their mean are finite, though their plain sum is not.
        model = write("m.json", json.dumps({
            "format": "minconsist-model", "version": 1, "family": "svm", "params": {"w": 1.0},
            "feature_names": ["x1"], "schema": [{"kind": "numeric"}], "target": "y",
            "y_kind": "pm1", "hypothesis": {"kind": "linear", "b": [1e8], "a": 0.0},
            "tree": None, "training_hash": None, "total_inconsistency": None,
        }))
        assert run(["audit", "--model", model,
                    "--data", write("d.csv", "x1,y\n1e300,-1\n1.5e300,-1\n")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["mu"] for row in doc["rows"]] == [1e8 * 1.5e300 + 1.0, 1e8 * 1e300 + 1.0]
        assert doc["total_inconsistency"] == pytest.approx(1.25e308 + 1e16)
        f, T = LinearHypothesis((1e8,), 0.0), training_set([((1e300,), -1), ((1.5e300,), -1)])
        assert linear.svm_objective(f, T, SvmParams(1.0)) == doc["total_inconsistency"]
        assert linear.svm_objectives_agree(f, T, SvmParams(1.0))

    def test_audit(self, write, tmp_path, capsys):
        model = tmp_path / "m.json"
        data = write("d.csv", self.LINE_CSV)
        assert run(["train", "--learner", "erm", "--data", data, "--out", model]) == 0
        capsys.readouterr()
        self._fail(["audit", "--model", model, "--data", write("e.csv", "x,y\n1e308,0\n")],
                   capsys, "the inconsistency of case 1")


class TestNeighborsBeyondTheFloatRange:
    """A neighbor whose distance total overflows is still chosen by its distance.

    At 1e200 every squared difference below overflows; the same tables
    at smaller scales give the same answers, counts and scores.
    """

    # No case is equally far from two others: rounding the scaled cells could break the tie.
    KNN_CSV = "x1,y\n1,1\n2,0\n4,0\n"  # the query 1.1 is nearest the case labelled 1
    SMOOTHING_CSV = "x1,y\n1,1.5\n5,3.5\n"  # the radius 100 around 1 holds both cases

    @staticmethod
    def _scaled(table, scale):
        """``table`` with every feature cell multiplied by ``scale``."""
        head, *rows = table.splitlines()
        cells = [row.split(",") for row in rows]
        return "\n".join([head, *(",".join([*(repr(float(v) * scale) for v in xs), y])
                                  for *xs, y in cells)]) + "\n"

    def _answers(self, write, tmp_path, capsys, flags, table, query):
        """What ``predict`` writes at ``query``, and the audit's (case, mu, counterparts)."""
        data, model = write("d.csv", table), tmp_path / "m.json"
        assert run(["train", *flags, "--data", data, "--out", model]) == 0
        capsys.readouterr()
        assert run(["predict", "--model", model, "--queries", write("q.csv", f"x1\n{query}\n"),
                    "--data", data]) == 0
        predicted = capsys.readouterr().out
        assert run(["audit", "--model", model, "--data", data]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        return predicted, [(row["case"], row["mu"], row["counterparts"]) for row in rows]

    def test_knn_takes_the_nearest_far_case(self, write, tmp_path, capsys):
        assert self._answers(write, tmp_path, capsys, ["--learner", "knn", "--k", "1"],
                             "x1,y\n1e200,1\n2e200,0\n3e200,0\n", "1.1e200")[0] == "1\n"

    def test_smoothing_reaches_a_far_case_inside_the_radius(self, write, tmp_path, capsys):
        flags = ["--learner", "smoothing", "--radius", "1e300"]
        assert self._answers(write, tmp_path, capsys, flags,
                             "x1,y\n1e200,1.5\n5e200,3.5\n", "1e200")[0] == "2.5\n"

    def test_manhattan_takes_the_nearest_far_case(self, write, tmp_path, capsys):
        # Both differences, 2.7e308 and 2.5e308, overflow on their own.
        flags = ["--learner", "knn", "--k", "1", "--metric", "manhattan"]
        assert self._answers(write, tmp_path, capsys, flags,
                             "x1,y\n-1.7e308,0\n-1.5e308,1\n", "1e308")[0] == "1\n"

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_every_scale_gives_the_same_answers(self, write, tmp_path, capsys, metric):
        for learner, flags, table, query, expected in (
            ("knn", ["--k", "1"], self.KNN_CSV, 1.1, "1\n"),
            ("knn", ["--k", "2"], self.KNN_CSV, 1.1, "0\n"),
            ("smoothing", ["--radius", 100.0], self.SMOOTHING_CSV, 1.0, "2.5\n"),  # scales
            ("smoothing", ["--k", "1"], self.SMOOTHING_CSV, 4.0, "3.5\n"),
        ):
            seen = set()
            for scale in (1, 1e100, 1e200):
                argv = ["--learner", learner, "--metric", metric,
                        *(repr(v * scale) if isinstance(v, float) else v for v in flags)]
                predicted, audited = self._answers(write, tmp_path, capsys, argv,
                                                   self._scaled(table, scale), repr(query * scale))
                assert predicted == expected, (learner, flags, scale)
                seen.add(repr(audited))
            assert len(seen) == 1, (learner, flags)


class TestHugeIntegralCells:
    """1e200 stays a float, and neither distances nor linear fits crash on it."""

    @pytest.mark.parametrize("learner", ["smoothing", "knn"])
    @pytest.mark.parametrize("command", ["train", "predict", "audit"])
    def test_exit_zero(self, write, tmp_path, capsys, learner, command):
        data = write("d.csv", "x,y\n1e200,1\n0,0\n5,1\n")
        model = tmp_path / "m.json"
        train = ["train", "--learner", learner, "--k", "1", "--data", data, "--out", model]
        argv = {
            "train": train,
            "predict": ["predict", "--model", model, "--queries", write("q.csv", "x\n1e200\n2\n"),
                        "--data", data],
            "audit": ["audit", "--model", model, "--data", data],
        }[command]
        if command != "train":
            assert run(train) == 0
        assert run(argv) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("flags, total", [
        (["--learner", "erm"], 1.0),
        (["--learner", "svr", "--epsilon", "0", "--lambda", "0"], 1.0),
        (["--learner", "svr", "--epsilon", "0.1", "--lambda", "0.01"], 0.8),
    ])
    def test_linear_fit_reaches_the_least_total(self, write, tmp_path, capsys, flags, total):
        # The line through (1e200, 1) and either other case leaves 1 (or 0.8,
        # with the tube) on the third: the brute-force minimum.
        data = write("d.csv", "x,y\n1e200,1\n0,0\n5,1\n")
        assert run(["train", *flags, "--data", data, "--out", tmp_path / "m.json"]) == 0
        out, err = capsys.readouterr()
        found = float(out.split("total_inconsistency=")[1].split()[0])
        assert abs(found - total) <= 1e-12
        assert "eta0" not in err

    def test_huge_weight_trains(self, write, tmp_path, capsys):
        out = tmp_path / "m.json"
        data = write("d.csv", "x,y\n2,1\n-2,-1\n")
        assert run(["train", "--learner", "svm", "--w", "1e308", "--data", data,
                    "--out", out]) == 0
        assert "total_inconsistency=1.0" in capsys.readouterr().out
        # w b^2 + 1 - 2b is least at b = 1/w, which is 0 to float precision.
        assert json.loads(out.read_text())["hypothesis"]["b"] == [1 / 1e308]

    def test_huge_cells_keep_their_value(self, write, tmp_path, capsys):
        data = write("d.csv", "x,y\n1e300,1e300\n0,-1e300\n5,1\n")
        model = tmp_path / "m.json"
        assert run(["train", "--learner", "smoothing", "--k", "1", "--data", data,
                    "--out", model]) == 0
        capsys.readouterr()
        queries = write("q.csv", "x\n1e300\n")
        assert run(["predict", "--model", model, "--queries", queries, "--data", data]) == 0
        assert capsys.readouterr().out == "1e+300\n"
        assert run(["audit", "--model", model, "--data", data]) == 0
        text = capsys.readouterr().out
        assert text.count("1e+300") == 3  # x and y of case 1, y of case 2
        assert str(int(1e300)) not in text

    def test_fit_whose_ratio_test_overflows(self, write, tmp_path, capsys):
        # Each case starts ~1e308 from its kink and moves at a rate below 1, so
        # every step length overflows although the optimum is in range.
        data = write("d.csv", "x1,x2,y\n-1,1,-1e308\n-1e308,2.5,-1\n")
        assert run(["train", "--learner", "erm", "--data", data,
                    "--out", tmp_path / "m.json"]) == 0
        found = float(capsys.readouterr().out.split("total_inconsistency=")[1].split()[0])
        T = training_set([((-1, 1), -1e308), ((-1e308, 2.5), -1)])
        known = LinearHypothesis((0.0, 6.67e307), -1.67e308)
        assert found <= svr_report(known, T, SvrParams(0.0, 0.0)).total


class TestOpenSolverFaults:
    """Fits that stop above the least total; ROADMAP item 5 is to make them reach it."""

    @staticmethod
    def _trained_total(write, tmp_path, capsys, flags, text):
        assert run(["train", *flags, "--data", write("d.csv", text),
                    "--out", tmp_path / "m.json"]) == 0
        return float(capsys.readouterr().out.split("total_inconsistency=")[1].split()[0])

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the multiplier test passes a "
                                           "vertex at 3.99e292 on this 1e308 input")
    def test_erm_at_1e308_reaches_one(self, write, tmp_path, capsys):
        # b = (0, 1e308/1.5), a = -1e308 - 1e308/1.5 scores 1.0 in floating point.
        total = self._trained_total(write, tmp_path, capsys, ["--learner", "erm"],
                                    "x1,x2,y\n-1,1,-1e308\n-1e308,2.5,-1\n")
        assert total <= 1.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the fit stops on the boundary of "
                                           "the least-total region, 1.42e-12 outside it")
    def test_svr_tube_holding_every_case_reaches_zero(self, write, tmp_path, capsys):
        # A line with all three cases inside the 0.5-tube exists.
        total = self._trained_total(
            write, tmp_path, capsys, ["--learner", "svr", "--epsilon", "0.5", "--lambda", "0"],
            "x1,x2,y\n"
            "-1.6153699806353738,-2.3251473124682143,2.410690042677353\n"
            "-1.6009862501181131,-2.825626010815908,-2.9067714298334684\n"
            "-2.632780258571458,2.7429104213476228,2.1880013817520467\n",
        )
        assert total == 0.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the walk's second step lands at "
                                           "b = 0.9999999999999998, and nothing mends its rounding")
    def test_erm_through_two_cases_reaches_zero(self, write, tmp_path, capsys):
        # b = 1, a = 0 passes through both cases and scores 0.0.
        total = self._trained_total(write, tmp_path, capsys, ["--learner", "erm"],
                                    "x,y\n0,0\n1,1\n")
        assert total == 0.0


def test_closed_pipe_exits_one_without_traceback(write, tmp_path):
    model = tmp_path / "m.json"
    assert run(["train", "--learner", "erm", "--data", write("d.csv", REAL_CSV),
                "--out", model]) == 0
    queries = write("q.csv", "x\n" + "".join(f"{i}.5\n" for i in range(30_000)))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "minconsist", "predict", "--model", model, "--queries", queries],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.readline()
    proc.stdout.close()  # more than 64 KiB is still to come
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("stdout, code", [("/dev/full", errno.ENOSPC), ("closed", errno.EBADF)])
def test_an_unwritable_stdout_exits_one_with_one_error_line(write, tmp_path, stdout, code):
    model, data = tmp_path / "m.json", write("d.csv", REAL_CSV)
    assert run(["train", "--learner", "erm", "--data", data, "--out", model]) == 0
    queries = write("q.csv", "x\n0.5\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for argv in (["train", "--learner", "erm", "--data", data, "--out", tmp_path / "n.json"],
                 ["predict", "--model", model, "--queries", queries],
                 ["audit", "--model", model, "--data", data]):
        command = [sys.executable, "-m", "minconsist", *map(str, argv)]
        if stdout == "closed":
            proc = subprocess.run(command, stderr=subprocess.PIPE, env=env, timeout=60,
                                  preexec_fn=lambda: os.close(1))
        else:
            with open(stdout, "w") as full:
                proc = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, env=env,
                                      timeout=60)
        assert proc.returncode == 1, argv
        reason = OSError(code, os.strerror(code))
        assert proc.stderr.decode() == f"error: cannot write standard output: {reason}\n", argv


class TestModelChecks:
    @staticmethod
    def _rejected(model, queries, data, capsys, named=""):
        for argv in (["predict", "--model", model, "--queries", queries, "--data", data],
                     ["audit", "--model", model, "--data", data]):
            assert run(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
            assert named in captured.err
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize("edit", [
        {"tree": None},
        {"schema": DELETE},
        {"y_kind": "weird"},
        {"feature_names": 5},
        {"feature_names": ["x", "z"]},
        {"schema": [{"kind": "ordinal"}]},
        {"target": DELETE},
        {"hypothesis": 5},
        {"hypothesis": {"kind": "linear", "b": "ab", "a": 0.0}},
        {"tree": {"leaf": 0, "cases": "all"}},
        {"tree": {"feature": 3, "threshold": 0, "left": None, "right": None}},
        {"tree": {"feature": 0, "threshold": True,
                  "left": {"leaf": 0, "cases": [0, 1]}, "right": {"leaf": 1, "cases": [2, 3]}}},
        {"tree": {"leaf": 0, "cases": [0, 1, 2, 7]}},
        {"schema": [{"kind": "interval"}]},
    ])
    def test_edited_dtree_model_is_a_data_error(self, write, tmp_path, capsys, edit):
        data = write("d.csv", BIN_CSV)
        model = tmp_path / "m.json"
        run(["train", "--learner", "dtree", "--data", data, "--out", model])
        doc = {**json.loads(model.read_text()), **edit}
        model.write_text(json.dumps({k: v for k, v in doc.items() if v is not DELETE}))
        queries = write("q.csv", "x\n2\n")
        capsys.readouterr()
        self._rejected(model, queries, data, capsys)

    @edits(
        ({"params": {}}, "learner 'knn' requires k"),
        ({"params": {"k": 3, "metric": "euclidean", "zeal": 1}},
         "zeal not applicable to learner 'knn'"),
        ({"params": {"k": 0, "metric": "euclidean"}}, "k must be an integer >= 1, got 0"),
        ({"params": {"k": 3, "metric": "cosine"}},
         "metric must be one of euclidean, manhattan, got 'cosine'"),
        ({"family": "wizard"}, "unknown family 'wizard'; known: "),
        ({"hypothesis": {"kind": "pointwise", "x0": [2], "value": 0}},
         "unknown hypothesis kind 'pointwise'"),
        ({"hypothesis": {"kind": "linear", "b": [1.0], "a": 0.0}},
         "a knn model keeps no hypothesis"),
        ({"tree": {"leaf": 0, "cases": [0, 1, 2, 3]}}, "a knn model keeps no tree"),
    )
    def test_edited_knn_model_is_a_data_error(self, write, tmp_path, capsys, edit, named):
        data = write("d.csv", BIN_CSV)
        model = tmp_path / "m.json"
        run(["train", "--learner", "knn", "--data", data, "--k", "3", "--out", model])
        model.write_text(json.dumps({**json.loads(model.read_text()), **edit}))
        queries = write("q.csv", "x\n2\n")
        capsys.readouterr()
        self._rejected(model, queries, data, capsys, f"{model}: {named}")

    @edits(  # numbers that do not convert to a float, and no hypothesis
        ({"params": {"w": 2**1024}}, f"w must be a number > 0, got {2**1024}"),
        ({"hypothesis": {"kind": "linear", "b": [1.0, -10**400], "a": 0.0}},
         "linear coefficients must be finite"),
        ({"hypothesis": None}, "a svm model needs its hypothesis"),
        ({"tree": {"leaf": 0, "cases": [0, 1, 2, 3]}}, "a svm model keeps no tree"),
    )
    def test_edited_svm_model_is_a_data_error(self, write, tmp_path, capsys, edit, named):
        data = write("d.csv", PM1_CSV)
        model = tmp_path / "m.json"
        run(["train", "--learner", "svm", "--data", data, "--w", "1", "--out", model])
        model.write_text(json.dumps({**json.loads(model.read_text()), **edit}))
        queries = write("q.csv", "x1,x2\n2,2\n")
        capsys.readouterr()
        self._rejected(model, queries, data, capsys, f"{model}: {named}")

    @pytest.mark.parametrize("b", [[1.0], [1.0, 2.0, 3.0]], ids=["shorter", "longer"])
    @pytest.mark.parametrize("family", ["erm", "svm"])
    def test_linear_model_of_another_width_is_a_data_error(self, write, tmp_path, capsys,
                                                           family, b):
        data, model = write("d.csv", PM1_CSV), tmp_path / "m.json"
        assert run(["train", "--learner", family, *AUDIT_FLAGS.get(family, []), "--data", data,
                    "--out", model]) == 0
        doc = json.loads(model.read_text())
        doc["hypothesis"]["b"] = b
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        self._rejected(model, write("q.csv", "x1,x2\n2,2\n"), data, capsys,
                       f"{model}: hypothesis b must hold one coefficient per feature name (2), "
                       f"got {len(b)}")

    def test_svm_model_over_a_nominal_column_is_a_data_error(self, write, tmp_path, capsys):
        model = tmp_path / "m.json"
        run(["train", "--learner", "svm", "--data", write("d.csv", "x,y\n0,-1\n1,1\n"),
             "--w", "1", "--out", model])
        nominal = [{"kind": "nominal", "symbols": ["a", "b"]}]
        model.write_text(json.dumps({**json.loads(model.read_text()), "schema": nominal}))
        capsys.readouterr()
        self._rejected(model, write("q.csv", "x\na\n"), write("n.csv", "x,y\na,-1\nb,1\n"),
                       capsys, "a svm model takes no nominal features")

    def test_dtree_model_over_a_nominal_column_is_a_data_error(self, write, tmp_path, capsys):
        # The hash is recomputed under the edited schema, so only the kind rule can refuse it.
        data, model = write("d.csv", BIN_CSV), tmp_path / "m.json"
        assert run(["train", "--learner", "dtree", "--data", data, "--out", model]) == 0
        sidecar = write("d.schema.json", json.dumps({"columns": {"x": {"kind": "nominal"}}}))
        doc = {**json.loads(model.read_text()),
               "schema": [{"kind": "nominal", "symbols": ["0", "1", "5", "6"]}],
               "training_hash": load_dataset(data, schema_path=sidecar).content_hash}
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        self._rejected(model, write("q.csv", "x\n1\n"), data, capsys,
                       f"{model}: a dtree model takes no nominal features")

    def test_nb_model_over_a_numeric_column_is_a_data_error(self, write, tmp_path, capsys):
        data, model = write("d.csv", "x,y\na,0\nb,1\n"), tmp_path / "m.json"
        assert run(["train", "--learner", "nb", "--data", data, "--out", model]) == 0
        model.write_text(json.dumps({**json.loads(model.read_text()),
                                     "schema": [{"kind": "numeric"}]}))
        capsys.readouterr()
        self._rejected(model, write("q.csv", "x\n1\n"), write("n.csv", BIN_CSV), capsys,
                       f"{model}: a nb model takes only nominal features")

    @pytest.mark.parametrize("total", [math.inf, -math.inf, math.nan, 2**1024, 2**1024 - 2**970,
                                       -1.0, -5e-324, "abc", "0.5", True, [0.5]],
                             ids=["inf", "-inf", "nan", "2**1024", "2**1024-2**970", "-1.0",
                                  "-5e-324", "abc", "text-0.5", "True", "list"])
    @pytest.mark.parametrize("family", ["svm", "knn"])
    def test_a_total_that_is_not_a_finite_number_at_least_0_is_a_data_error(
            self, write, tmp_path, capsys, family, total):
        data = write("d.csv", {"svm": PM1_CSV}.get(family, BIN_CSV))
        model = tmp_path / "m.json"
        assert run(["train", "--learner", family, *AUDIT_FLAGS[family], "--data", data,
                    "--out", model]) == 0
        model.write_text(json.dumps({**json.loads(model.read_text()),
                                     "total_inconsistency": total}))
        capsys.readouterr()
        self._rejected(model, write("q.csv", "x1,x2\n2,2\n" if family == "svm" else "x\n2\n"),
                       data, capsys, f"{model}: total_inconsistency must be a finite number "
                       f">= 0, or null, got {total!r}")

    @pytest.mark.parametrize("total", [None, 0, 0.0, 3, 1.7976931348623157e308,
                                       pytest.param(2**1024 - 2**970 - 1, id="2**1024-2**970-1")])
    def test_a_total_that_is_null_or_a_finite_number_at_least_0_loads(self, write, tmp_path,
                                                                      total):
        data, model = write("d.csv", PM1_CSV), tmp_path / "m.json"
        assert run(["train", "--learner", "svm", "--w", "1", "--data", data,
                    "--out", model]) == 0
        model.write_text(json.dumps({**json.loads(model.read_text()),
                                     "total_inconsistency": total}))
        assert load_model(model).total_inconsistency == total

    @pytest.mark.parametrize("edit", [5, "0" * 64, ""])
    @pytest.mark.parametrize("family", ["erm", "svm", "svr"])
    def test_linear_model_with_a_data_hash_is_a_data_error(self, write, tmp_path, capsys,
                                                           family, edit):
        data, model = write("d.csv", PM1_CSV), tmp_path / "m.json"
        assert run(["train", "--learner", family, *AUDIT_FLAGS.get(family, []), "--data", data,
                    "--out", model]) == 0
        model.write_text(json.dumps({**json.loads(model.read_text()), "training_hash": edit}))
        capsys.readouterr()
        self._rejected(model, write("q.csv", "x1,x2\n2,2\n"), data, capsys,
                       f"{model}: a {family} model keeps no training_hash")

    @pytest.mark.parametrize("edit", [None, DELETE, 5], ids=["null", "absent", "number"])
    @pytest.mark.parametrize("family", [f for f in family_names() if family_spec(f).pointwise])
    def test_query_time_model_without_its_data_hash_is_a_data_error(self, write, tmp_path,
                                                                    capsys, family, edit):
        tables = {"nb": ("x,y\na,0\nb,1\n", "x\na\n")}
        table, query_table = tables.get(family, (BIN_CSV, "x\n2\n"))
        data, model = write("d.csv", table), tmp_path / "m.json"
        assert run(["train", "--learner", family, *AUDIT_FLAGS.get(family, []), "--data", data,
                    "--out", model]) == 0
        doc = {**json.loads(model.read_text()), "training_hash": edit}
        model.write_text(json.dumps({k: v for k, v in doc.items() if v is not DELETE}))
        capsys.readouterr()
        self._rejected(model, write("q.csv", query_table), data, capsys,
                       f"training_hash must be the content hash of the training data, got "
                       f"{None if edit is DELETE else edit!r}")

    @pytest.mark.parametrize("family, y_kind", [
        (family, kind.value) for family in family_names() for kind in YKind
        if kind not in family_spec(family).y_kinds
    ])
    def test_feedback_domain_outside_the_row_is_a_data_error(self, write, tmp_path, capsys,
                                                            family, y_kind):
        tables = {"svm": (PM1_CSV, "x1,x2\n2,2\n"), "nb": ("x,y\na,0\nb,1\n", "x\na\n")}
        table, query_table = tables.get(family, (BIN_CSV, "x\n2\n"))
        data, model = write("d.csv", table), tmp_path / "m.json"
        assert run(["train", "--learner", family, *AUDIT_FLAGS.get(family, []), "--data", data,
                    "--out", model]) == 0
        model.write_text(json.dumps({**json.loads(model.read_text()), "y_kind": y_kind}))
        capsys.readouterr()
        self._rejected(model, write("q.csv", query_table), data, capsys,
                       f"{family} cannot learn from {y_kind} feedback")


class TestPredict:
    def test_linear_prediction_is_exact(self, write, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps({
            "format": "minconsist-model",
            "version": 1,
            "family": "svr",
            "params": {"epsilon": 0.0, "lambda": 0.0},
            "feature_names": ["x"],
            "schema": [{"kind": "numeric"}],
            "target": "y",
            "y_kind": "real",
            "hypothesis": {"kind": "linear", "b": [1.0], "a": 0.0},
            "tree": None,
            "training_hash": None,
            "total_inconsistency": 0.0,
        }))
        queries = write("q.csv", "x\n2\n-0.5\n")
        assert run(["predict", "--model", model_path, "--queries", queries]) == 0
        assert capsys.readouterr().out == "2\n-0.5\n"

    def test_knn_prediction_round_trip(self, write, tmp_path, capsys):
        data = write("d.csv", BIN_CSV)
        model = tmp_path / "m.json"
        run(["train", "--learner", "knn", "--data", data, "--k", "3",
             "--out", model])
        capsys.readouterr()
        queries = write("q.csv", "x\n0.2\n5.8\n")
        assert run(["predict", "--model", model, "--queries", queries,
                    "--data", data]) == 0
        assert capsys.readouterr().out == "0\n1\n"


def _seeded_table(family, rng):
    """(training rows, feedbacks, query rows) for ``family``, as Python values."""
    if family == "nb":
        symbols = [("a0", "a1", "a2"), ("b0", "b1")]
        points = sorted({tuple(rng.choice(s) for s in symbols) for _ in range(12)})
        queries = [tuple(rng.choice(s) for s in symbols) for _ in range(25)]
    elif family == "dtree":
        points = sorted({(rng.randrange(5), rng.randrange(4)) for _ in range(15)})
        queries = [(rng.randrange(-1, 6), rng.randrange(5)) for _ in range(25)]
    else:
        points = sorted({(rng.randrange(-9, 10), round(rng.uniform(-3, 3), 2))
                         for _ in range(15)})
        queries = [(round(rng.uniform(-12, 12), 3), rng.randrange(-5, 5)) for _ in range(25)]
    labels = {"svm": (-1, 1), "svr": None, "erm": None, "smoothing": None}.get(family, (0, 1))
    ys = [rng.choice(labels) if labels else round(rng.uniform(-5, 5), 1) for _ in points]
    return points, ys, queries


def _table_text(header, rows):
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


@pytest.mark.parametrize("family", family_names())
def test_predict_writes_the_per_query_answers(write, tmp_path, capsys, family):
    import random

    points, ys, queries = _seeded_table(family, random.Random(f"predict:{family}"))
    data = write("d.csv", _table_text(("x1", "x2", "y"), [(*x, y) for x, y in zip(points, ys)]))
    model = tmp_path / "m.json"
    assert run(["train", "--learner", family, *AUDIT_FLAGS.get(family, []), "--data", data,
                "--out", model]) == 0
    capsys.readouterr()
    assert run(["predict", "--model", model, "--queries",
                write("q.csv", _table_text(("x1", "x2"), queries)), "--data", data]) == 0
    fitted, training = load_model(model), training_set(zip(points, ys))
    vectors = [FeatureVector(q) for q in queries]
    if family in ("svm", "svr", "erm"):
        answers = [fitted.fitted(x0) for x0 in vectors]
    elif family == "smoothing":
        spec = NeighborhoodSpec(KNearest(2), "euclidean")
        answers = [smoothing_fit(x0, training, spec).value for x0 in vectors]
    elif family == "knn":
        answers = [knn_predict(x0, training, 3)[0] for x0 in vectors]
    elif family == "dtree":
        answers = [dtree_predict(x0, fitted.fitted, training)[0] for x0 in vectors]
    else:
        answers = [nb_predict(x0, training)[0] for x0 in vectors]
    assert capsys.readouterr().out == "".join(f"{_fmt_prediction(v)}\n" for v in answers)


class TestAudit:
    def _train(self, write, tmp_path, capsys):
        data = write("d.csv", PM1_CSV)
        model = tmp_path / "m.json"
        run(["train", "--learner", "svm", "--data", data, "--w", "1.0",
             "--out", model])
        capsys.readouterr()
        return data, model

    def test_svm_audit_reproduces_total_exactly(self, write, tmp_path, capsys):
        data, model = self._train(write, tmp_path, capsys)
        assert run(["audit", "--model", model, "--data", data]) == 0
        doc = json.loads(capsys.readouterr().out)
        saved = load_model(model)
        assert doc["total_inconsistency"] == saved.total_inconsistency
        assert doc["family"] == "svm"
        assert len(doc["rows"]) == 4

    def test_svm_audit_mu_column_equals_slack(self, write, tmp_path, capsys):
        data, model = self._train(write, tmp_path, capsys)
        run(["audit", "--model", model, "--data", data])
        doc = json.loads(capsys.readouterr().out)
        saved = load_model(model)
        T = training_set([((0, 0), -1), ((0, 1), -1), ((2, 2), 1), ((3, 2), 1)])
        zeta = svm_slack(saved.fitted, T)
        by_case = {row["case"]: row["mu"] for row in doc["rows"]}
        assert [by_case[i + 1] for i in range(4)] == list(zeta)

    def test_rows_sorted_by_descending_mu(self, write, tmp_path, capsys):
        data, model = self._train(write, tmp_path, capsys)
        run(["audit", "--model", model, "--data", data])
        doc = json.loads(capsys.readouterr().out)
        mus = [row["mu"] for row in doc["rows"]]
        assert mus == sorted(mus, reverse=True)

    def test_pointwise_audit_sums_to_total(self, write, tmp_path, capsys):
        data = write("d.csv", BIN_CSV)
        model = tmp_path / "m.json"
        run(["train", "--learner", "knn", "--data", data, "--k", "3",
             "--out", model])
        capsys.readouterr()
        assert run(["audit", "--model", model, "--data", data]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 4
        in_case_order = sorted(doc["rows"], key=lambda row: row["case"])
        total = 0.0
        for row in in_case_order:
            total += row["mu"]
        assert total == doc["total_inconsistency"]
        assert doc["aggregation"] == "sum-over-queries"


class TestColumnsWrittenWhole:
    """A numeric audit is checked and written a column at a time: no value goes through
    ``cli._json_value`` or the value-by-value walk of ``core._unfit``."""

    ROWS = 2_000

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of each value-by-value path, by function name."""
        from minconsist import cli, core

        calls = {}
        for module, name in ((cli, "_json_value"), (core, "_unfit_walk")):
            def counted(*args, _call=getattr(module, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _call(*args)

            monkeypatch.setattr(module, name, counted)
        list(cli._json_column([None]))
        core._unfit((True,), (int,))
        assert calls == {"_json_value": 1, "_unfit_walk": 1}  # the counters are live
        calls.clear()
        return calls

    def test_a_numeric_audit_walks_no_value(self, write, tmp_path, capsys, calls):
        # Columns of ints, of ints beside floats, and of floats, as the loader reads them.
        rows = "".join(f"{i},{i * 0.25},{i % 7 - 3.5}\n" for i in range(self.ROWS))
        data = write("d.csv", "x1,x2,y\n" + rows)
        model = tmp_path / "m.json"
        sample = write("s.csv", "x1,x2,y\n0,0,1\n1,1,2\n5,2,9\n")
        assert run(["train", "--learner", "erm", "--data", sample, "--out", model]) == 0
        capsys.readouterr()
        calls.clear()
        assert run(["audit", "--model", model, "--data", data]) == 0
        out = capsys.readouterr().out
        assert calls == {}
        assert len(json.loads(out)["rows"]) == self.ROWS

    def test_an_svm_audit_dumps_its_header_alone(self, write, tmp_path, capsys, monkeypatch):
        # An svm report's counts are all None: the column is written "null" by "null".
        data, model = write("d.csv", PM1_CSV), tmp_path / "m.json"
        assert run(["train", "--learner", "svm", "--w", "1", "--data", data, "--out", model]) == 0
        capsys.readouterr()
        dumps, dumped = json.dumps, []
        monkeypatch.setattr(json, "dumps", lambda *args, **kw: dumped.append(args) or dumps(
            *args, **kw))
        assert run(["audit", "--model", model, "--data", data]) == 0
        assert len(dumped) == 1 and "family" in dumped[0][0]
        assert [row["counterparts"] for row in json.loads(capsys.readouterr().out)["rows"]] == [
            None] * 4


# One training file per family, by the feedback and feature kinds it takes.  The
# nominal file's symbols hold a quote, a backslash, non-ASCII and astral text
# and U+2028, which the audit must escape as json does.
AUDIT_DATA = {
    "svm": PM1_CSV,
    "nb": 'x1,x2,y\n"a""q",c\\d,0\nb\u00e9,c\\d,1\n"a""q",\U0001d538\u2028,1\n'
          'b\u00e9,\U0001d538\u2028,0\n',
}
AUDIT_FLAGS = {"smoothing": ["--k", "2"], "knn": ["--k", "3"], "svm": ["--w", "1"],
               "svr": ["--epsilon", "0.1", "--lambda", "0.01"]}


@pytest.mark.parametrize("family", family_names())
def test_audit_text_is_json_indent_2(write, tmp_path, capsys, family):
    data = write("d.csv", AUDIT_DATA.get(family, BIN_CSV))
    model = tmp_path / "m.json"
    assert run(["train", "--learner", family, *AUDIT_FLAGS.get(family, []), "--data", data,
                "--out", model]) == 0
    capsys.readouterr()
    assert run(["audit", "--model", model, "--data", data]) == 0
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


@pytest.mark.parametrize("family", family_names())
def test_train_echoes_the_audit_total_bit_for_bit(write, tmp_path, capsys, family):
    data = write("d.csv", AUDIT_DATA.get(family, BIN_CSV))
    model = tmp_path / "m.json"
    assert run(["train", "--learner", family, *AUDIT_FLAGS.get(family, []), "--data", data,
                "--out", model]) == 0
    echoed = capsys.readouterr().out.split("total_inconsistency=")[1].split()[0]
    assert run(["audit", "--model", model, "--data", data]) == 0
    assert repr(json.loads(capsys.readouterr().out)["total_inconsistency"]) == echoed


@pytest.mark.parametrize("family", family_names())
def test_each_row_audits_into_the_report_of_its_fit(write, tmp_path, capsys, family):
    data = write("d.csv", AUDIT_DATA.get(family, BIN_CSV))
    model = tmp_path / "m.json"
    assert run(["train", "--learner", family, *AUDIT_FLAGS.get(family, []), "--data", data,
                "--out", model]) == 0
    capsys.readouterr()
    assert run(["audit", "--model", model, "--data", data]) == 0
    header = json.loads(capsys.readouterr().out)
    spec, params = family_spec(family), load_model(model).params
    training = load_dataset(data).training
    fitted, total = select_hypothesis(family, params, training)
    report = spec.audit(params, fitted, training)
    assert isinstance(report, InconsistencyReport)
    # Position i scores case i: the audit's row of case i + 1 holds its mu and count.
    by_case = {row["case"]: row for row in header["rows"]}
    assert [(by_case[i]["mu"], by_case[i]["counterparts"]) for i in range(1, training.m + 1)] == (
        list(zip(report.mus, report.counts)))
    assert report.total.hex() == total.hex()
    assert report.aggregation.value == header["aggregation"]
    assert (report.regularizer, report.total) == (header["regularizer"],
                                                  header["total_inconsistency"])


@pytest.mark.parametrize("family", family_names())
def test_the_commands_build_no_row_objects(write, tmp_path, capsys, monkeypatch, family):
    """``train``, ``predict`` and ``audit`` read a training set's columns, never its row view."""
    text = AUDIT_DATA.get(family, BIN_CSV)
    data = write("d.csv", text)
    features = io.StringIO()
    csv.writer(features, lineterminator="\n").writerows(
        row[:-1] for row in csv.reader(io.StringIO(text, newline="")))
    queries = write("q.csv", features.getvalue())
    built, sets = [], []
    for cls in (FeatureVector, Case, TrainingSet):
        def counted(self, _check=cls.__post_init__):
            (sets if isinstance(self, TrainingSet) else built).append(self)
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    model = tmp_path / "m.json"
    assert run(["train", "--learner", family, *AUDIT_FLAGS.get(family, []), "--data", data,
                "--out", model]) == 0
    assert run(["predict", "--model", model, "--queries", queries, "--data", data]) == 0
    assert run(["audit", "--model", model, "--data", data]) == 0
    capsys.readouterr()
    assert built == []
    assert len(sets) == 2 + family_spec(family).pointwise  # one per loaded training file
    assert not any("cases" in vars(training) for training in sets)


def test_ordinal_model_keeps_its_levels_and_reads_level_tokens(write, tmp_path, capsys):
    levels = ["small", "medium", "large"]
    data = write("d.csv", "size,y\nsmall,0\nmedium,0\nlarge,1\n")
    schema = write("s.json", json.dumps({"columns": {"size": {"kind": "ordinal",
                                                              "levels": levels}}}))
    model = tmp_path / "m.json"
    assert run(["train", "--learner", "dtree", "--data", data, "--schema", schema,
                "--out", model]) == 0
    assert json.loads(model.read_text())["schema"] == [{"kind": "ordinal", "levels": levels}]
    capsys.readouterr()
    queries = write("q.csv", "size\nlarge\nsmall\nmedium\n")
    assert run(["predict", "--model", model, "--queries", queries, "--data", data]) == 0
    assert capsys.readouterr().out == "1\n0\n0\n"
    assert run(["audit", "--model", model, "--data", data]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert {row["case"]: row["x"] for row in rows} == {1: [0], 2: [1], 3: [2]}


class TestVerify:
    def test_small_budget_passes(self, capsys):
        assert run(["verify", "--trials", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4
        assert all(line.startswith("PASS") for line in out)

    def test_broken_invariant_is_reported(self, monkeypatch, capsys):
        import minconsist.oracle as oracle

        monkeypatch.setattr(oracle, "svm_slack_is_feasible", lambda f, T: False)
        assert run(["verify", "--trials", "2", "--seed", "7"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("FAIL slack-feasibility")
        assert "seed 7" in out[0]


class TestSvrErmAgreement:
    def test_degenerate_svr_matches_erm(self, write, tmp_path, capsys):
        data = write("d.csv", REAL_CSV)
        svr_out, erm_out = tmp_path / "svr.json", tmp_path / "erm.json"
        assert run(["train", "--learner", "svr", "--data", data, "--epsilon", "0",
                    "--lambda", "0", "--out", svr_out]) == 0
        assert run(["train", "--learner", "erm", "--data", data,
                    "--out", erm_out]) == 0
        capsys.readouterr()
        a, b = load_model(svr_out), load_model(erm_out)
        assert a.fitted.b == b.fitted.b
        assert a.fitted.a == b.fitted.a
        assert a.total_inconsistency == b.total_inconsistency


def flag_table() -> str:
    """The README's table of train flags, rendered from the family registry."""
    lines = ["| learner | flag | model-file key | default | range |",
             "|---|---|---|---|---|"]
    for name in family_names():
        spec = family_spec(name)
        for param in spec.params:
            if param.key in spec.one_of:
                default = "exactly one of " + ", ".join(
                    f"`{p.flag}`" for p in spec.params if p.key in spec.one_of)
            elif param.required:
                default = "required"
            else:
                default = f"`{json.dumps(param.default)}`"
            lines.append(f"| `{name}` | `{param.flag}` | `{param.key}` | {default} "
                         f"| {param.rule} |")
        if not spec.params:
            lines.append(f"| `{name}` | none | | | |")
    return "\n".join(lines)


def test_readme_flag_table_matches_the_registry():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert flag_table() in readme


SRC = Path(__file__).resolve().parent.parent / "src"

NEW_MODULES = """
import sys
before = set(sys.modules)
import minconsist.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""

# Runs the command line as the `minconsist` script does; with "blocked" first,
# numpy cannot be imported.
ENTRYPOINT = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from minconsist.cli import entrypoint
sys.argv = ["minconsist", *sys.argv[2:]]
entrypoint()
"""


def launch(code, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, env=env, timeout=120)


def test_the_command_line_imports_only_the_standard_library():
    proc = launch(NEW_MODULES)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.decode().split()
    assert "minconsist.cli" in added
    allowed = sys.stdlib_module_names | {"minconsist"}
    assert [name for name in added if name.split(".")[0] not in allowed] == []


class TestWithoutNumpy:
    @pytest.mark.parametrize("learner, table, query_table", [
        (["knn", "--k", "3"], BIN_CSV, "x\n0.5\n4\n"),
        (["svm", "--w", "0.1"], PM1_CSV, "x1,x2\n1,1\n2.5,0\n"),
    ], ids=["knn", "svm"])
    def test_train_predict_and_audit_print_the_same_bytes(self, write, tmp_path, learner,
                                                          table, query_table):
        data = write("d.csv", table)
        queries = write("q.csv", query_table)
        model = tmp_path / "m.json"  # one path for both modes: train prints it
        seen = {}
        for mode in ("numpy", "blocked"):
            runs = [launch(ENTRYPOINT, mode, "train", "--learner", *learner,
                           "--data", data, "--out", model),
                    launch(ENTRYPOINT, mode, "predict", "--model", model, "--queries", queries,
                           "--data", data),
                    launch(ENTRYPOINT, mode, "audit", "--model", model, "--data", data)]
            assert [proc.returncode for proc in runs] == [0, 0, 0], runs
            seen[mode] = ([(proc.stdout, proc.stderr) for proc in runs], model.read_bytes())
        assert seen["blocked"] == seen["numpy"]

    def test_verify_names_the_extra(self):
        proc = launch(ENTRYPOINT, "blocked", "verify", "--trials", "2")
        assert proc.returncode == 1
        assert proc.stdout == b""
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "minconsist[verify]" in lines[0]
