"""Generated inputs never take a command outside the exit-code contract.

Every ``train``, ``predict`` and ``audit`` run on generated CSV text must
return 0, 1 or 2 from ``main``, as must every generated argument list and
every ``train`` with a generated sidecar schema.  Every ``predict`` and
``audit`` run on a model document with one field, parameter or tree node
replaced by a generated JSON value must return 0 or 1, as must each
family's model with its columns declared under every kind and its
training hash taken again.  An exception escaping ``main`` would reach
the user as a traceback.  Each family's model file comes back through
its one ``fitted`` slot byte for byte.

The loader's rows, built without the constructors' checks, must be rows
the constructors accept, and the audit's template must write the text
``json.dumps(..., indent=2)`` writes, for columns written whole and value by
value.  The value rule decided over a whole column must find the fault a
walk over its values finds.  A block of queries must get the
answers its rows get one at a time: a linear hypothesis the same bits,
and a tree the same leaves.  Pairs of one width and their columns must
build the same training set or name the same fault.  The neighbor
families' cell search must select, at every query, the cases a full
scan by the engine tests' brute-force reference selects.  A query block
given one bad value must refuse it when it is built, naming its row and
feature, and the rows before it must get the clean block's answers.
Every place a value enters (a vector, a feedback, a block, a float
parameter, a coefficient, a model file's total) must admit the same
numbers.
"""

import contextlib
import copy
import enum
import io
import itertools
import json
import math
import struct
import sys
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from minconsist import family_names  # noqa: E402
from minconsist.cli import _audit_text, _json_value, main  # noqa: E402
from minconsist.core import (  # noqa: E402
    Aggregation,
    Case,
    FeatureColumns,
    FeatureVector,
    InconsistencyReport,
    LinearHypothesis,
    MinconsistError,
    Param,
    SchemaMismatch,
    TrainingSet,
    YKind,
    _clean,
    _unfit,
    family_spec,
    select_hypothesis,
    training_set,
)
from minconsist.dataio import (  # noqa: E402
    Model,
    load_dataset,
    load_dataset_for_model,
    load_model,
    load_queries,
    save_model,
)
from minconsist.pointwise import TreeLeaf, TreeNode, TreePartition, _routed  # noqa: E402
from test_pointwise_engine import assert_brute, brute_distance, neighbors  # noqa: E402

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


def _run(argv, codes=(0, 1, 2)):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in codes, argv
    assert "Traceback" not in err.getvalue(), argv
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


# Any JSON value, a scalar half the time.  json reads NaN, Infinity and integers
# beyond the float range from a model file, so they come up often, as do the
# names the format uses.
EDGES = [2**1024, -10**400, float("nan"), float("inf"), 1e308, -1, 0, True, None]
WORDS = ["linear", "numeric", "ordinal", "nominal", "x1", "y", "a", *FAMILY_FLAGS]
SCALAR = (st.sampled_from(EDGES) | st.sampled_from(WORDS) | st.integers() | st.floats()
          | st.text(max_size=4))
JSON = SCALAR | st.recursive(
    SCALAR,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
TRAINING = {  # one file per feedback domain and feature kind the families need
    "numeric": "x1,x2,y\n0,0,0\n1,0,1\n0,1,1\n2,2,0\n-1,3,1\n",
    "pm1": "x1,x2,y\n0,0,-1\n1,0,1\n0,1,1\n2,2,-1\n-1,3,1\n",
    "nominal": "x1,x2,y\na,c,0\nb,c,1\na,d,1\nb,d,0\n",
}
DATA_OF = {"svm": "pm1", "nb": "nominal"}
QUERIES = {"numeric": "x1,x2\n0,0\n1.5,-2\n", "pm1": "x1,x2\n0,0\n1.5,-2\n",
           "nominal": "x1,x2\na,c\nb,e\n"}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A model, its training file and a query file for every family."""
    tmp = tmp_path_factory.mktemp("models")
    for name, text in {**TRAINING, **{f"q-{k}": v for k, v in QUERIES.items()}}.items():
        Path(tmp, f"{name}.csv").write_text(text, encoding="utf-8")
    out = {}
    for family, flags in FAMILY_FLAGS.items():
        kind = DATA_OF.get(family, "numeric")
        data, model = Path(tmp, f"{kind}.csv"), Path(tmp, f"{family}.json")
        assert _run(["train", "--learner", family, *flags, "--data", data, "--out", model],
                    codes=(0,)) == 0
        out[family] = (json.loads(model.read_text(encoding="utf-8")), data,
                       Path(tmp, f"q-{kind}.csv"))
    assert "left" in out["dtree"][0]["tree"]  # the tree has nodes below its root
    return out


def _nodes(node):
    """(parent, side) of every node below the root of a tree document."""
    for side in ("left", "right"):
        if isinstance(node, dict) and side in node:
            yield node, side
            yield from _nodes(node[side])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(data=st.data())
def test_edited_model_documents_keep_the_exit_code_contract(trained, data):
    family = data.draw(st.sampled_from(sorted(trained)))
    doc, training_csv, queries_csv = trained[family]
    doc = copy.deepcopy(doc)
    sites = {"field": [(doc, key) for key in doc],
             "param": [(doc["params"], key) for key in doc["params"]],
             "node": list(_nodes(doc["tree"]))}
    kind = data.draw(st.sampled_from([kind for kind, found in sites.items() if found]))
    owner, key = data.draw(st.sampled_from(sites[kind]))
    owner[key] = data.draw(JSON)
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp, "m.json")
        model.write_text(json.dumps(doc), encoding="utf-8")
        _run(["predict", "--model", model, "--queries", queries_csv, "--data", training_csv],
             codes=(0, 1))
        _run(["audit", "--model", model, "--data", training_csv], codes=(0, 1))


def _kind(entry, tokens):
    """A model-file schema entry of kind ``entry`` over a column's ``tokens``."""
    if entry == "numeric":
        return {"kind": "numeric"}
    if entry == "ordinal":
        return {"kind": "ordinal", "levels": list(dict.fromkeys(tokens))}
    return {"kind": "nominal", "symbols": sorted(set(tokens))}


@pytest.mark.parametrize("kinds", list(itertools.product(["numeric", "ordinal", "nominal"],
                                                         repeat=2)), ids="-".join)
@pytest.mark.parametrize("family", sorted(FAMILY_FLAGS))
def test_a_model_with_each_column_kind_keeps_the_exit_code_contract(trained, family, kinds):
    # A model that names its training data by their hash gets the hash of the
    # data parsed under the edited schema, so the edit reaches the family's
    # answers and audit, unless the data do not parse under it.
    doc, training_csv, _ = trained[family]
    header, *rows = [line.split(",") for line in training_csv.read_text().splitlines()]
    columns = [_kind(kind, tokens) for kind, tokens in zip(kinds, list(zip(*rows))[:2])]
    with tempfile.TemporaryDirectory() as tmp:
        sidecar, model = Path(tmp, "s.json"), Path(tmp, "m.json")
        queries = Path(tmp, "q.csv")
        queries.write_text("".join(",".join(row[:2]) + "\n" for row in [header, *rows]),
                           encoding="utf-8")
        sidecar.write_text(json.dumps({"columns": dict(zip(header, columns))}), encoding="utf-8")
        training_hash = doc["training_hash"]
        if training_hash is not None:
            with contextlib.suppress(MinconsistError):
                training_hash = load_dataset(training_csv, schema_path=sidecar).content_hash
        model.write_text(json.dumps({**doc, "schema": columns, "training_hash": training_hash}),
                         encoding="utf-8")
        _run(["predict", "--model", model, "--queries", queries, "--data", training_csv],
             codes=(0, 1))
        _run(["audit", "--model", model, "--data", training_csv], codes=(0, 1))


@pytest.mark.parametrize("family", sorted(FAMILY_FLAGS))
def test_a_model_file_round_trips_through_its_fitted_slot(trained, family, tmp_path):
    path = trained[family][1].parent / f"{family}.json"
    loaded, keeps = load_model(path), family_spec(family).keeps
    assert loaded.fitted is None if keeps is None else isinstance(loaded.fitted, keeps)
    save_model(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


# -- the audit's template against json ---------------------------------------

# Where json's choices show: signed zero, the least subnormal, the switch to
# exponent form at 1e16, 1e22 (the largest power of ten a float holds
# exactly), 2**53 - 1 (an int at the edge of float precision), and symbols
# json must escape (a quote, a backslash, control characters, non-ASCII and
# astral text, U+2028).
EDGE_NUMBERS = [-0.0, 0.0, 5e-324, 1e16, 1e22, 2**53 - 1, -(2**53 - 1), 0, 1, 2.5]
NUMBER = (st.sampled_from(EDGE_NUMBERS) | st.integers()
          | st.floats(allow_nan=False, allow_infinity=False))
SYMBOL = st.text(alphabet=st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9",
                                           "\u2028", "\U0001d538", "a", ",", " "]),
                 max_size=5) | st.text(max_size=5)
MU = st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e22]) | NUMBER  # often tied


class Level(enum.IntEnum):
    """An int subclass whose ``repr`` is not its json text."""

    LOW = 1
    HIGH = 2 ** 53


# Values that take a column off the whole-column path: an int subclass, mus
# that are not finite, and None counts.
ODD_X = st.sampled_from([Level.LOW, Level.HIGH])
ODD_Y = st.sampled_from([Level.LOW, Level.HIGH])
ODD_MU = st.sampled_from([math.inf, -math.inf, Level.HIGH])


@st.composite
def scored_rows(draw):
    """An audit's ``(x, y, mu, counterparts)`` rows: one kind per column and distinct
    vectors, as loaded.

    Each column is drawn whole: numbers only (ints and floats mixed), which
    are written a column at a time, or with odd values among them, written
    value by value.
    """
    columns = draw(st.lists(st.sampled_from([NUMBER, SYMBOL, NUMBER | ODD_X]),
                            min_size=1, max_size=3))
    y, mu, count = (draw(st.sampled_from([plain, plain | odd])) for plain, odd in (
        (NUMBER, ODD_Y), (MU, ODD_MU), (st.integers(0, 10**6), st.none() | ODD_Y)))
    return draw(st.lists(st.tuples(st.tuples(*columns), y, mu, count),
                         min_size=1, max_size=8, unique_by=lambda row: row[0]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scored=scored_rows(), family=st.sampled_from(sorted(FAMILY_FLAGS)),
       regularizer=NUMBER, total=NUMBER)
@example(scored=[((1, 2.5), 1, 0.5, 1), ((2 ** 1024 - 2 ** 970 - 1, -0.0), 2.5, math.inf, None),
                 ((Level.HIGH, 1e16), Level.LOW, -math.inf, Level.LOW)],
         family="erm", regularizer=0.0, total=1.0)
def test_audit_template_writes_what_json_writes(scored, family, regularizer, total):
    xs, ys, mus, counts = zip(*scored)
    report = InconsistencyReport(mus, counts, Aggregation.SUM, regularizer, total)
    header = {"family": family, "aggregation": "sum", "regularizer": regularizer,
              "total_inconsistency": total}
    rows = [{"case": n, "x": list(x), "y": y, "mu": mu, "counterparts": count}
            for n, (x, y, mu, count) in enumerate(scored, 1)]
    rows.sort(key=lambda row: (-row["mu"], row["case"]))  # tied mus in case order
    training = training_set(zip(xs, ys))
    assert _audit_text(family, training, report) == json.dumps({**header, "rows": rows}, indent=2)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(value=NUMBER | SYMBOL | st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                                True, False, None]))
def test_scalars_are_written_as_json_writes_them(value):
    assert _json_value(value) == json.dumps(value)


# -- the whole-column value rule against the walk ----------------------------

class Real(float):
    """A float subclass, which the walk admits as a float."""


ODD_VALUES = st.sampled_from([True, False, Level.LOW, Real(1.5), Real("nan"), math.nan,
                              math.inf, -math.inf, 10 ** 400, -(10 ** 400), "a", None])


def _walked(values, kinds):
    """The value rule's first fault, a value at a time: the reference for ``core._unfit``."""
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, kinds):
            return i
        if not isinstance(v, str) and not _holds(v):
            return i
    return None


def _holds(number):
    """Whether ``float()`` holds ``number`` finitely."""
    try:
        return math.isfinite(float(number))
    except OverflowError:
        return False


@settings(derandomize=True, max_examples=400, deadline=None)
@given(values=st.lists(NUMBER, max_size=6) | st.lists(SYMBOL, max_size=6)
       | st.lists(NUMBER | SYMBOL | ODD_VALUES, max_size=6),
       kinds=st.sampled_from([(int, float, str), (int, float), (str,), (int,)]))
def test_the_column_rule_finds_what_the_walk_finds(values, kinds):
    assert _unfit(values, kinds) == _walked(values, kinds)
    assert not _clean(values, kinds) or _walked(values, kinds) is None


TOP = 2 ** 1024 - 2 ** 970 - 1  # the largest int float() holds; one more rounds beyond the range
RULE_VALUES = [*EDGES, TOP, TOP + 1, -TOP, -(TOP + 1), Level.HIGH, Real(1.5), Real("inf"),
               10 ** 5000]


def _admits(build):
    """Whether ``build`` returns rather than raising a ``MinconsistError``."""
    try:
        build()
    except MinconsistError:
        return False
    return True


def _total_loads(doc, total):
    """Whether a model file whose total inconsistency is ``total`` loads."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # write an int of any length; the loader reads under the limit
    try:
        text = json.dumps({**doc, "total_inconsistency": total})
    finally:
        sys.set_int_max_str_digits(limit)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "m.json")
        path.write_text(text, encoding="utf-8")
        return _admits(lambda: load_model(path))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(value=st.sampled_from(RULE_VALUES))
def test_every_entry_point_admits_the_same_numbers(trained, value):
    number = not isinstance(value, bool) and isinstance(value, (int, float)) and _holds(value)
    admitted = {
        "vector": _admits(lambda: FeatureVector.of(value)),
        "feedback": _admits(lambda: Case(FeatureVector.of(0), value)),
        "block": _admits(lambda: FeatureColumns(((value,),))),
        "parameter": _admits(lambda: Param("v", "--v", float).check(value)),
        "coefficient": _admits(lambda: LinearHypothesis((value,), 0.0)),
    }
    if value is not None and not (number and value < 0):  # a total is >= 0, or null
        admitted["model total"] = _total_loads(trained["erm"][0], value)
    assert admitted == dict.fromkeys(admitted, number)


# -- the loader's rows against the constructors ------------------------------

# Numeric tokens (with spellings of one value, and one with spaces around it),
# symbols that need CSV quoting, and ordinal levels.
NUMERIC_TOKENS = ["0", "-0.0", "7", "7.0", "2.5", " -3 ", "1e16", "1e300", "9007199254740993"]
NOMINAL_TOKENS = ["a", '"b,c"', '"d""e"', "\u00e9", "\U0001d538"]
LEVELS = ["lo", "mid", "hi"]
SIDECAR = {"columns": {"s": {"kind": "nominal"}, "o": {"kind": "ordinal", "levels": LEVELS}}}


@st.composite
def valid_table(draw):
    """Rows of ``x,s,o,y`` cells whose parsed feature vectors are distinct."""
    return draw(st.lists(
        st.tuples(st.sampled_from(NUMERIC_TOKENS), st.sampled_from(NOMINAL_TOKENS),
                  st.sampled_from(LEVELS), st.sampled_from(NUMERIC_TOKENS)),
        min_size=1, max_size=8, unique_by=lambda row: (float(row[0]), row[1], row[2]),
    ))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rows=valid_table())
def test_loaded_rows_are_rows_the_constructors_accept(rows):
    with tempfile.TemporaryDirectory() as tmp:
        data, queries = Path(tmp, "d.csv"), Path(tmp, "q.csv")
        sidecar = Path(tmp, "d.schema.json")
        data.write_text("x,s,o,y\n" + "".join(",".join(r) + "\n" for r in rows),
                        encoding="utf-8")
        queries.write_text("x,s,o\n" + "".join(",".join(r[:3]) + "\n" for r in rows),
                           encoding="utf-8")
        sidecar.write_text(json.dumps(SIDECAR), encoding="utf-8")
        dataset = load_dataset(data, schema_path=sidecar)
        model = Model(family="knn", params={"k": 1, "metric": "euclidean"},
                      feature_names=dataset.feature_names, schema=dataset.schema,
                      target_name="y", y_kind=YKind.REAL)
        for training in (dataset.training, load_dataset_for_model(data, model).training):
            rebuilt = training_set((c.x.values, c.y) for c in training.cases)
            assert rebuilt == training
        loaded = load_queries(queries, dataset.feature_names, dataset.schema)
        assert tuple(FeatureVector(q).values for q in loaded.rows()) == tuple(loaded.rows())
        assert loaded == dataset.training.columns


# Numbers; numbers and symbols; and those with bools, None and non-finite floats.
# Each is small, and 1 == 1.0, so vectors repeat.
VALUES = [[0, 1, 1.0, -2.5], [0, 1, "a", "b"], [0, 1.0, "a", True, None, math.nan, math.inf]]
FEEDBACKS = [[0, 1, 0.5], [0, -1, 0.5, True, None, math.nan, "1"]]


@st.composite
def uniform_pairs(draw):
    """One to six ``(values, feedback)`` pairs, all of one width, from drawn alphabets."""
    n, values, feedbacks = (draw(st.integers(1, 3)), draw(st.sampled_from(VALUES)),
                            draw(st.sampled_from(FEEDBACKS)))
    return draw(st.lists(st.tuples(st.tuples(*[st.sampled_from(values)] * n),
                                   st.sampled_from(feedbacks)), min_size=1, max_size=6))


def _outcome(build):
    """What ``build`` returns, or the type and message of the error it raises."""
    try:
        return build()
    except MinconsistError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(pairs=uniform_pairs())
def test_pairs_and_columns_name_the_same_fault(pairs):
    xs, ys = zip(*pairs)
    assert _outcome(lambda: training_set(pairs)) == _outcome(
        lambda: TrainingSet(FeatureColumns(list(zip(*xs))), ys)
    )


# -- generated argument lists and sidecar schemas ----------------------------

NUMBER_ARGS = ["0", "1", "3", "-1", "2.5", "1e308", "nan", "inf", "x", ""]
FLAG_VALUES = {
    "--learner": [*FAMILY_FLAGS, "wizard"],
    "--target": ["x1", "x2", "y", "zz"],
    "--metric": ["euclidean", "manhattan", "cosine"],
    "--seed": ["0", "3", "-1", "x"],
    "--trials": ["1", "3", "0", "-1", "x"],
    **{flag: NUMBER_ARGS for flag in ["--k", "--radius", "--w", "--epsilon", "--lambda",
                                      "--max-depth", "--min-leaf", "--purity"]},
}
FILE_FLAGS = ["--data", "--queries", "--model", "--schema"]
REQUIRED = {"train": ["--learner", "--data", "--out"], "predict": ["--model", "--queries"],
            "audit": ["--model", "--data"], "verify": []}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_generated_arguments_keep_the_exit_code_contract(trained, data):
    inputs = [str(path) for family, (_, data_csv, queries_csv) in trained.items()
              for path in (data_csv.parent / f"{family}.json", data_csv, queries_csv)]
    with tempfile.TemporaryDirectory() as tmp:
        sidecar = Path(tmp, "s.json")
        sidecar.write_text(json.dumps({"columns": {"x1": {"kind": "numeric"}}}),
                           encoding="utf-8")
        files = [*inputs, str(sidecar), str(Path(tmp, "missing.csv")), tmp]
        pools = {**FLAG_VALUES, **{flag: files for flag in FILE_FLAGS},
                 "--out": [str(Path(tmp, "out.json")), str(Path(tmp, "no", "out.json")), tmp],
                 "--help": [], "--zeal": []}
        command = data.draw(st.sampled_from(sorted(REQUIRED)))
        flags = data.draw(st.lists(st.sampled_from(sorted(pools)), max_size=6))
        if data.draw(st.booleans()):  # half the lists start from the required flags
            flags = REQUIRED[command] + flags
        argv = [command]
        for flag in flags:
            argv.append(flag)
            if pools[flag] and data.draw(st.integers(0, 9)):  # now and then no value
                argv.append(data.draw(st.sampled_from(pools[flag])))
        if command == "verify":  # its default of 1000 trials is too slow to generate
            argv += ["--trials", data.draw(st.sampled_from(FLAG_VALUES["--trials"]))]
        _run(argv)


def either(shaped, anything=JSON):
    """A value drawn from ``shaped`` or from ``anything``, each half the time.

    (``|`` would flatten ``anything``'s branches in beside ``shaped``.)
    """
    return st.booleans().flatmap(lambda pick: shaped if pick else anything)


SIDECAR_VALUE = either(st.sampled_from(["x1", "x2", "y", "a", "0", "1", "2"]))
COLUMN_ENTRY = st.fixed_dictionaries(
    {"kind": either(st.sampled_from(["numeric", "ordinal", "nominal", "weird"]))},
    optional={"levels": either(st.lists(SIDECAR_VALUE, max_size=3)),
              "symbols": either(st.lists(SIDECAR_VALUE, max_size=3))},
)
SIDECAR_DOC = either(st.fixed_dictionaries(
    {"columns": either(st.dictionaries(st.sampled_from(["x1", "x2", "y", "zz"]),
                                       either(COLUMN_ENTRY), max_size=3))},
    optional={"target": SIDECAR_VALUE},
))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=SIDECAR_DOC, family=st.sampled_from(sorted(FAMILY_FLAGS)))
def test_generated_sidecars_keep_the_exit_code_contract(doc, family):
    with tempfile.TemporaryDirectory() as tmp:
        data, sidecar = Path(tmp, "d.csv"), Path(tmp, "d.schema.json")
        labels = ("-1", "1") if family == "svm" else ("0", "1")
        data.write_text("x1,x2,y\n" + "".join(f"{x1},{x2},{labels[y]}\n" for x1, x2, y in
                                               [(0, 0, 0), (1, 1, 1), (2, 0, 1), (1, 0, 0)]),
                        encoding="utf-8")
        sidecar.write_text(json.dumps(doc), encoding="utf-8")
        _run(["train", "--learner", family, *FAMILY_FLAGS[family], "--data", data,
              "--schema", sidecar, "--out", Path(tmp, "m.json")])


# -- block answers against row answers ---------------------------------------

# Signed zeros, subnormals, and values whose products and sums overflow.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.5, -3.0]
COEFFICIENT = st.one_of(st.sampled_from(EDGE_FLOATS),
                        st.floats(allow_nan=False, allow_infinity=False))
CELL = st.one_of(COEFFICIENT, st.integers(-2**60, 2**60))


@st.composite
def linear_block(draw):
    """A hypothesis and the columns of one to eight rows of its width."""
    n = draw(st.integers(1, 4))
    b = draw(st.lists(COEFFICIENT, min_size=n, max_size=n))
    rows = draw(st.lists(st.tuples(*[CELL] * n), min_size=1, max_size=8))
    return LinearHypothesis(tuple(b), draw(COEFFICIENT)), rows


def _bits(v):
    return struct.pack("<d", v)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=linear_block())
@example(case=(LinearHypothesis((1e308, 1e308), -1e308), [(2, -2), (1e308, 1.0), (0, 5e-324)]))
# Sums that rounding tells apart from ones taken in another order, or with a added first.
@example(case=(LinearHypothesis((1e16, -1e16), 1.0), [(1, 1)]))
@example(case=(LinearHypothesis((1.0, 1e16, -1e16), 0.0), [(1, 1, 1), (-0.0, 0, 0)]))
def test_block_evaluation_is_the_row_sum_bit_for_bit(case):
    f, rows = case
    block = f.block(FeatureColumns(tuple(zip(*rows))))
    sums = []
    for row in rows:
        s = 0.0
        for bj, xj in zip(f.b, row):
            s += bj * xj
        sums.append(s + f.a)
    # Bit for bit, so an overflow gives inf or NaN at the same rows, with the same sign.
    assert list(map(_bits, block)) == list(map(_bits, sums))
    assert [_bits(f(FeatureVector(row))) for row in rows] == list(map(_bits, sums))


@st.composite
def routed_block(draw):
    """A tree over one to three features, and the columns of one to twelve rows."""
    n = draw(st.integers(1, 3))
    ids = itertools.count()

    def grow(depth):
        if depth == 0 or draw(st.booleans()):
            return TreeLeaf(next(ids), ())
        return TreeNode(draw(st.integers(0, n - 1)), draw(st.integers(-1, 4)),
                        grow(depth - 1), grow(depth - 1))

    value = st.one_of(st.integers(-2, 6), st.floats(-2.0, 6.0))
    rows = draw(st.lists(st.tuples(*[value] * n), min_size=1, max_size=12))
    return TreePartition(grow(4), n), rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=routed_block())
def test_index_routing_is_routing_row_by_row(case):
    tree, rows = case
    reached = {}
    for leaf, indices in _routed(tree, FeatureColumns(tuple(zip(*rows)))):
        assert indices == sorted(indices)
        for i in indices:
            assert i not in reached
            reached[i] = leaf
    assert sorted(reached) == list(range(len(rows)))
    for i, row in enumerate(rows):
        node = tree.root  # a plain walk: left where the value is at most the threshold
        while isinstance(node, TreeNode):
            node = node.left if row[node.feature] <= node.threshold else node.right
        assert reached[i] is node
        assert tree.route(FeatureVector(row)) is node


@st.composite
def neighborhood_problem(draw):
    """Up to 60 lattice points or floats of width one to four, a neighborhood rule and queries.

    The training set comes as labels (for ``knn``) and as real feedbacks
    (for ``smoothing``); the queries are its own points, then fresh ones,
    some beyond the points' range.
    """
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 60))
    if draw(st.booleans()):
        side = draw(st.integers(2, 8))
        coord, fresh = st.integers(0, side - 1), st.integers(-2, side + 1)
        m = min(m, side ** n)
    else:
        coord, fresh = st.floats(-3.0, 3.0), st.floats(-5.0, 5.0)
    points = sorted(draw(st.sets(st.tuples(*[coord] * n), min_size=m, max_size=m)))
    labels = training_set([(x, draw(st.sampled_from((0, 1)))) for x in points])
    reals = training_set([(x, draw(st.sampled_from((0, 1, -2, 0.5, 2.75)))) for x in points])
    queries = [case.x for case in labels.cases] + [
        FeatureVector(x) for x in draw(st.lists(st.tuples(*[fresh] * n), max_size=6))
    ]
    metric = draw(st.sampled_from(("euclidean", "manhattan")))
    if draw(st.booleans()):
        return labels, reals, queries, {"k": draw(st.integers(1, labels.m)), "metric": metric}
    a, b = draw(st.sampled_from(queries)), draw(st.sampled_from(points))
    radius = brute_distance(a, FeatureVector(b), metric)  # a case on the boundary
    return labels, reals, queries, {"radius": radius or 1.0, "metric": metric}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(problem=neighborhood_problem())
def test_the_cell_search_selects_what_a_full_scan_selects(problem):
    labels, reals, queries, params = problem
    if "k" in params:
        assert_brute("knn", params, labels, queries)
    assert_brute("smoothing", params, reals, [q for q in queries if neighbors(q, reals, params)])


# -- bad values in library calls ---------------------------------------------

# Each family's parameters and feedbacks; nb's features are symbols, the rest's numbers.
LIBRARY_ROWS = {
    "smoothing": ({"k": 1}, (0, 1, -2, 0.5)),
    "knn": ({"k": 2}, (0, 1)),
    "dtree": ({}, (0, 1)),
    "nb": ({}, (0, 1)),
    "svm": ({"w": 1.0}, (-1, 1)),
    "svr": ({"epsilon": 0.1, "lambda": 0.01}, (0, 1, -2, 0.5)),
    "erm": ({}, (0, 1, -2, 0.5)),
}
BAD_VALUES = [None, math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 400)]


@st.composite
def bad_value_problem(draw):
    """A family, a small training set, a clean query block and one bad value put into it.

    The bad value (of the wrong kind, None, NaN, ±inf or ±10**400) goes
    into the block at a drawn row and feature; now and then a feedback
    is ±10**400.
    """
    family = draw(st.sampled_from(sorted(LIBRARY_ROWS)))
    params, feedbacks = LIBRARY_ROWS[family]
    n = draw(st.integers(1, 3))
    if family == "nb":  # each position its own symbols
        values = [st.sampled_from([f"{v}{j}" for v in "abc"]) for j in range(n)]
        wrong = 1
    else:
        values, wrong = [st.integers(0, 4)] * n, "a"
    points = draw(st.lists(st.tuples(*values), min_size=2, max_size=8, unique=True))
    ys = [draw(st.sampled_from(feedbacks)) for _ in points]
    if draw(st.integers(0, 4)) == 0:
        ys[draw(st.integers(0, len(ys) - 1))] = draw(st.sampled_from([10 ** 400, -(10 ** 400)]))
    rows = draw(st.lists(st.tuples(*values), min_size=1, max_size=5))
    row, feature = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n - 1))
    bad = draw(st.sampled_from([wrong, *BAD_VALUES]))
    return family, params, list(zip(points, ys)), rows, row, feature, bad


def _answered(spec, params, fitted, training, rows):
    """The row's answers to ``rows``, up to the first query that raises a MinconsistError."""
    answers = []
    with contextlib.suppress(MinconsistError):
        for answer in spec.answers(params, fitted, training, FeatureColumns(tuple(zip(*rows)))):
            answers.append(answer)
    return answers


@settings(derandomize=True, max_examples=300, deadline=None)
@given(problem=bad_value_problem())
def test_a_bad_value_in_a_library_call_is_a_data_error(problem):
    family, params, pairs, rows, row, feature, bad = problem
    spec = family_spec(family)
    params = spec.complete(params)
    try:
        training = training_set(pairs)
        fitted, _ = select_hypothesis(family, params, training)
        spec.audit(params, fitted, training)
    except MinconsistError:
        return
    clean = _answered(spec, params, fitted, training, rows)
    bad_rows = [list(values) for values in rows]
    bad_rows[row][feature] = bad
    # A value of the other kind in row 1 sets its column's kind: row 2 is then at fault.
    sets_kind = row == 0 and bad in ("a", 1)
    try:
        block = FeatureColumns(tuple(zip(*bad_rows)))
    except SchemaMismatch as exc:
        assert str(exc).startswith(f"row {2 if sets_kind else row + 1}, feature {feature + 1}: ")
        # the rows before the bad one get the clean block's answers
        assert _answered(spec, params, fitted, training, rows[:row]) == clean[:row]
        return
    assert sets_kind and len(rows) == 1  # a block of one row, of the other kind
    with pytest.raises(SchemaMismatch):
        list(spec.answers(params, fitted, training, block))
