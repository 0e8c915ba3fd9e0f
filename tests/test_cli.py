"""Command-line behavior: flags, exit codes, stream discipline."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minconsist import family_names, load_model, svm_slack, training_set
from minconsist.core import family_spec
from minconsist.cli import main


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
        assert model.hypothesis is not None

    def test_knn_train_binds_training_hash(self, write, tmp_path):
        data = write("d.csv", BIN_CSV)
        out = tmp_path / "m.json"
        assert run(["train", "--learner", "knn", "--data", data, "--k", "3",
                    "--out", out]) == 0
        model = load_model(out)
        assert model.training_hash is not None
        assert model.hypothesis is None

    def test_dtree_train_saves_tree(self, write, tmp_path):
        data = write("d.csv", BIN_CSV)
        out = tmp_path / "m.json"
        assert run(["train", "--learner", "dtree", "--data", data, "--out", out]) == 0
        assert load_model(out).tree is not None

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
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


class TestModelChecks:
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
    ])
    def test_edited_dtree_model_is_a_data_error(self, write, tmp_path, capsys, edit):
        data = write("d.csv", BIN_CSV)
        model = tmp_path / "m.json"
        run(["train", "--learner", "dtree", "--data", data, "--out", model])
        doc = {**json.loads(model.read_text()), **edit}
        model.write_text(json.dumps({k: v for k, v in doc.items() if v is not DELETE}))
        queries = write("q.csv", "x\n2\n")
        capsys.readouterr()
        for argv in (["predict", "--model", model, "--queries", queries, "--data", data],
                     ["audit", "--model", model, "--data", data]):
            assert run(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize("edit", [
        {"params": {}},
        {"params": {"k": 3, "metric": "euclidean", "zeal": 1}},
        {"params": {"k": 0, "metric": "euclidean"}},
        {"params": {"k": 3, "metric": "cosine"}},
        {"family": "wizard"},
        {"hypothesis": {"kind": "pointwise", "x0": [2], "value": 0}},
    ])
    def test_edited_knn_model_is_a_data_error(self, write, tmp_path, capsys, edit):
        data = write("d.csv", BIN_CSV)
        model = tmp_path / "m.json"
        run(["train", "--learner", "knn", "--data", data, "--k", "3", "--out", model])
        model.write_text(json.dumps({**json.loads(model.read_text()), **edit}))
        queries = write("q.csv", "x\n2\n")
        capsys.readouterr()
        for argv in (["predict", "--model", model, "--queries", queries, "--data", data],
                     ["audit", "--model", model, "--data", data]):
            assert run(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
            assert "Traceback" not in captured.err


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
        zeta = svm_slack(saved.hypothesis, T)
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
        assert a.hypothesis.b == b.hypothesis.b
        assert a.hypothesis.a == b.hypothesis.a
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
