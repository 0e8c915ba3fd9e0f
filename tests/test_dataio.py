"""Dataset parsing, sidecar schemas, and model files."""

import json

import pytest

from minconsist import (
    DuplicateFeatureVector,
    EmptySet,
    LinearHypothesis,
    MinconsistError,
    ModelFormatError,
    NominalKind,
    NumericKind,
    OrdinalKind,
    ParseError,
    SchemaMismatch,
    UnknownColumnKind,
    YKind,
    dtree_build,
    training_set,
)
from minconsist.dataio import (
    Dataset,
    Model,
    load_dataset,
    load_dataset_for_model,
    load_model,
    load_queries,
    save_model,
)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    return _write


class TestLoadDataset:
    def test_two_row_numeric(self, write):
        path = write("d.csv", "x1,x2,y\n1,2,0\n3,4,1\n")
        ds = load_dataset(path)
        assert ds.training.m == 2
        assert ds.feature_names == ("x1", "x2")
        assert ds.target_name == "y"
        assert all(isinstance(k, NumericKind) for k in ds.schema.columns)
        assert ds.training.cases[0].x.values == (1, 2)

    def test_float_and_int_tokens(self, write):
        path = write("d.csv", "x,y\n1.5,0.25\n2,1\n")
        ds = load_dataset(path)
        assert ds.training.cases[0].x.values == (1.5,)
        assert ds.training.cases[0].y == 0.25
        assert ds.training.cases[1].y == 1  # integral feedback collapses to int

    def test_duplicate_rows_name_both_lines(self, write):
        path = write("d.csv", "x,y\n1,0\n2,1\n1,1\n")
        with pytest.raises(DuplicateFeatureVector, match="2.*4|4.*2"):
            load_dataset(path)

    def test_bad_numeric_token_locates_itself(self, write):
        data = write("d.csv", "x,y\n1,0\nfour,1\n")
        schema = write("d.schema.json", json.dumps({
            "columns": {"x": {"kind": "numeric"}}
        }))
        with pytest.raises(ParseError) as info:
            load_dataset(data, schema_path=schema)
        assert info.value.row == 3
        assert info.value.column == "x"

    def test_mixed_tokens_without_declaration_fall_back_to_nominal(self, write):
        ds = load_dataset(write("d.csv", "x,y\n1,0\nfour,1\n"))
        assert isinstance(ds.schema.columns[0], NominalKind)
        assert ds.schema.columns[0].symbols == frozenset({"1", "four"})

    def test_bad_feedback_token(self, write):
        path = write("d.csv", "x,y\n1,zero\n")
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert info.value.row == 2
        assert info.value.column == "y"

    def test_target_flag_overrides_last_column(self, write):
        path = write("d.csv", "y,x\n0,1\n1,2\n")
        ds = load_dataset(path, target="y")
        assert ds.feature_names == ("x",)
        assert ds.training.feedbacks == (0, 1)

    def test_unknown_target(self, write):
        path = write("d.csv", "x,y\n1,0\n")
        with pytest.raises(ParseError):
            load_dataset(path, target="label")

    def test_text_column_inferred_nominal(self, write):
        path = write("d.csv", "color,y\nred,1\nblue,0\n")
        ds = load_dataset(path)
        kind = ds.schema.columns[0]
        assert isinstance(kind, NominalKind)
        assert kind.symbols == frozenset({"red", "blue"})

    def test_ragged_row(self, write):
        path = write("d.csv", "x,y\n1\n")
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert info.value.row == 2

    def test_empty_file(self, write):
        path = write("d.csv", "")
        with pytest.raises(EmptySet):
            load_dataset(path)

    def test_header_only(self, write):
        path = write("d.csv", "x,y\n")
        with pytest.raises(EmptySet):
            load_dataset(path)

    def test_repeated_header_names(self, write):
        path = write("d.csv", "x,x,y\n1,2,0\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_dataset(tmp_path / "absent.csv")

    def test_quoted_cell_keeps_its_line_break(self, write):
        ds = load_dataset(write("d.csv", 'x,y\n"a\nb",1\nab,0\n'))
        assert [c.x.values for c in ds.training.cases] == [("a\nb",), ("ab",)]

    def test_next_line_character_stays_in_its_cell(self, write):
        ds = load_dataset(write("d.csv", "x,y\na\x85b,1\nc,0\n"))
        assert [c.x.values for c in ds.training.cases] == [("a\x85b",), ("c",)]

    def test_rows_are_file_lines(self, write):
        with pytest.raises(ParseError, match=r"\(row 4, column 'x'\)") as info:
            load_dataset(write("d.csv", "x,y\n1,0\n\nnan,1\n"))
        assert info.value.row == 4
        with pytest.raises(DuplicateFeatureVector, match="rows 2 and 5 share"):
            load_dataset(write("e.csv", 'x,y\n1,0\n"a\nb",1\n1,1\n'))

    def test_cell_beyond_the_field_limit(self, write):
        with pytest.raises(ParseError, match="field larger than field limit") as info:
            load_dataset(write("d.csv", "x,y\n1,0\n" + "9" * 200_000 + ",1\n"))
        assert info.value.row == 3


class TestSidecarSchema:
    def test_ordinal_tokens_become_ranks(self, write):
        data = write("d.csv", "size,y\nsmall,0\nlarge,1\nmedium,0\n")
        schema = write("d.schema.json", json.dumps({
            "columns": {"size": {"kind": "ordinal", "levels": ["small", "medium", "large"]}}
        }))
        ds = load_dataset(data, schema_path=schema)
        assert isinstance(ds.schema.columns[0], OrdinalKind)
        assert [c.x.values[0] for c in ds.training.cases] == [0, 2, 1]

    def test_token_outside_levels(self, write):
        data = write("d.csv", "size,y\ntiny,0\n")
        schema = write("d.schema.json", json.dumps({
            "columns": {"size": {"kind": "ordinal", "levels": ["small", "large"]}}
        }))
        with pytest.raises(ParseError) as info:
            load_dataset(data, schema_path=schema)
        assert info.value.row == 2

    def test_declared_nominal_symbols(self, write):
        data = write("d.csv", "c,y\nred,0\n")
        schema = write("d.schema.json", json.dumps({
            "columns": {"c": {"kind": "nominal", "symbols": ["red", "blue"]}}
        }))
        ds = load_dataset(data, schema_path=schema)
        assert ds.schema.columns[0].symbols == frozenset({"red", "blue"})

    def test_value_outside_declared_symbols(self, write):
        data = write("d.csv", "c,y\ngreen,0\n")
        schema = write("d.schema.json", json.dumps({
            "columns": {"c": {"kind": "nominal", "symbols": ["red", "blue"]}}
        }))
        with pytest.raises(ParseError):
            load_dataset(data, schema_path=schema)

    def test_nominal_without_symbols_takes_its_values(self, write):
        data = write("d.csv", "c,y\n1,0\nred,1\n")
        schema = write("d.schema.json", json.dumps({"columns": {"c": {"kind": "nominal"}}}))
        assert load_dataset(data, schema_path=schema).schema.columns[0].symbols == {"1", "red"}

    def test_declared_question_mark_symbol(self, write):
        data = write("d.csv", "c,y\nx,0\n")
        schema = write("d.schema.json", json.dumps({
            "columns": {"c": {"kind": "nominal", "symbols": ["?"]}}
        }))
        with pytest.raises(ParseError) as info:
            load_dataset(data, schema_path=schema)
        assert str(info.value) == "value 'x' not among declared symbols (row 2, column 'c')"

    def test_unknown_kind(self, write):
        data = write("d.csv", "c,y\n1,0\n")
        schema = write("d.schema.json", json.dumps({
            "columns": {"c": {"kind": "fractal"}}
        }))
        with pytest.raises(UnknownColumnKind):
            load_dataset(data, schema_path=schema)

    def test_sidecar_target(self, write):
        data = write("d.csv", "y,x\n0,1\n")
        schema = write("d.schema.json", json.dumps({"columns": {}, "target": "y"}))
        ds = load_dataset(data, schema_path=schema)
        assert ds.target_name == "y"
        assert ds.feature_names == ("x",)

    def test_sidecar_naming_a_missing_column(self, write):
        data = write("d.csv", "x,y\n1,0\n")
        schema = write("d.schema.json", json.dumps({
            "columns": {"ghost": {"kind": "numeric"}}
        }))
        with pytest.raises(ParseError):
            load_dataset(data, schema_path=schema)

    def test_invalid_sidecar_json(self, write):
        data = write("d.csv", "x,y\n1,0\n")
        schema = write("d.schema.json", "not json{")
        with pytest.raises(ParseError):
            load_dataset(data, schema_path=schema)


class TestContentHash:
    def test_formatting_does_not_matter(self, write):
        a = load_dataset(write("a.csv", "x,y\n1,0\n2,1\n"))
        b = load_dataset(write("b.csv", "x , y\n 1 , 0\n 2 , 1\n"))
        assert a.content_hash == b.content_hash

    def test_values_do_matter(self, write):
        a = load_dataset(write("a.csv", "x,y\n1,0\n"))
        b = load_dataset(write("b.csv", "x,y\n1,1\n"))
        assert a.content_hash != b.content_hash

    def test_column_order_is_canonicalized_by_name(self, write):
        model = _linear_model()
        a = load_dataset_for_model(write("a.csv", "x1,x2,y\n1,2,0\n"), model)
        b = load_dataset_for_model(write("b.csv", "x2,y,x1\n2,0,1\n"), model)
        assert a.content_hash == b.content_hash


def _linear_model() -> Model:
    from minconsist import FeatureSchema

    return Model(
        family="svr",
        params={"epsilon": 0.0, "lambda": 0.0},
        feature_names=("x1", "x2"),
        schema=FeatureSchema.numeric(2),
        target_name="y",
        y_kind=YKind.REAL,
        hypothesis=LinearHypothesis((0.1 + 0.2, 1e-17), -0.30000000000000004),
        total_inconsistency=0.75,
    )


class TestLoadForModel:
    def test_missing_column(self, write):
        with pytest.raises(SchemaMismatch):
            load_dataset_for_model(write("d.csv", "x1,y\n1,0\n"), _linear_model())

    def test_extra_column(self, write):
        with pytest.raises(SchemaMismatch):
            load_dataset_for_model(
                write("d.csv", "x1,x2,x3,y\n1,2,3,0\n"), _linear_model()
            )

    def test_model_kinds_govern_parsing(self, write, tmp_path):
        from minconsist import FeatureSchema

        model = Model(
            family="knn",
            params={"k": 1, "metric": "euclidean"},
            feature_names=("size",),
            schema=FeatureSchema((OrdinalKind(("small", "large")),)),
            target_name="y",
            y_kind=YKind.BINARY01,
        )
        ds = load_dataset_for_model(write("d.csv", "size,y\nlarge,1\n"), model)
        assert ds.training.cases[0].x.values == (1,)


class TestLoadQueries:
    def test_header_must_match(self, write):
        from minconsist import FeatureSchema

        schema = FeatureSchema.numeric(2)
        with pytest.raises(SchemaMismatch):
            load_queries(write("q.csv", "x1,x3\n1,2\n"), ("x1", "x2"), schema)

    def test_rows_parse_in_order(self, write):
        from minconsist import FeatureSchema

        schema = FeatureSchema.numeric(2)
        queries = load_queries(write("q.csv", "x1,x2\n1,2\n3,4\n"), ("x1", "x2"), schema)
        assert [q.values for q in queries] == [(1, 2), (3, 4)]


class TestModelFiles:
    def test_linear_round_trip_is_bit_exact(self, tmp_path):
        model = _linear_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.hypothesis.b == model.hypothesis.b
        assert loaded.hypothesis.a == model.hypothesis.a
        assert loaded.total_inconsistency == model.total_inconsistency
        assert loaded.params == model.params
        assert loaded.schema == model.schema
        assert loaded.y_kind is YKind.REAL

    def test_tree_round_trip_is_structural(self, tmp_path):
        from minconsist import FeatureSchema

        T = training_set([((1,), 0), ((2,), 0), ((3,), 1), ((4,), 1)])
        tree = dtree_build(T)
        model = Model(
            family="dtree",
            params={"max_depth": 8, "min_leaf_size": 1, "purity_threshold": 0.0},
            feature_names=("x",),
            schema=FeatureSchema.numeric(1),
            target_name="y",
            y_kind=YKind.BINARY01,
            tree=tree,
            training_hash="0" * 64,
        )
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.tree == tree
        assert loaded.training_hash == model.training_hash

    def test_pointwise_payload(self, tmp_path):
        # A pointwise model answers from its training data and keeps no
        # hypothesis; a hypothesis of kind "pointwise" is not a format.
        path = tmp_path / "m.json"
        save_model(_linear_model(), path)
        doc = json.loads(path.read_text())
        doc["hypothesis"] = {"kind": "pointwise", "x0": [0.4], "value": 1.5}
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="unknown hypothesis kind 'pointwise'"):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        model = _linear_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_foreign_document(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_deeply_nested_document(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"tree": ' + '{"left": ' * 100_000 + "null" + "}" * 100_001)
        with pytest.raises(ModelFormatError, match="nests too deeply"):
            load_model(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "absent.json")

    def test_nominal_symbols_serialize_deterministically(self, tmp_path):
        from minconsist import FeatureSchema

        model = Model(
            family="nb",
            params={},
            feature_names=("c",),
            schema=FeatureSchema((NominalKind(frozenset({"zeta", "alpha", "mid"})),)),
            target_name="y",
            y_kind=YKind.BINARY01,
            training_hash="0" * 64,
        )
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_text() == p2.read_text()
        assert load_model(p1).schema == model.schema


_FAULT_SCHEMA = {
    "x": {"kind": "numeric"},
    "s": {"kind": "nominal", "symbols": ["a", "b"]},
    "o": {"kind": "ordinal", "levels": ["lo", "hi"]},
}
_FAULTS = [
    ("non-number", "four,a,lo", ParseError,
     "value 'four' is not a number (row 4, column 'x')", 4, "x"),
    ("nan", "nan,a,lo", ParseError, "value 'nan' is not finite (row 4, column 'x')", 4, "x"),
    ("undeclared-symbol", "3,zz,lo", ParseError,
     "value 'zz' not among declared symbols (row 4, column 's')", 4, "s"),
    ("unknown-level", "3,a,mid", ParseError,
     "value 'mid' not among ordinal levels ['lo', 'hi'] (row 4, column 'o')", 4, "o"),
    ("duplicate", "1,a,lo", DuplicateFeatureVector,
     "rows 2 and 4 share feature vector (1, 'a', 0)", None, None),
]


def _load_with_fault(write, loader, cells):
    """Load ``x,s,o[,y]`` rows whose third data row (file line 4) is ``cells``."""
    from minconsist import FeatureSchema

    if loader == "load_queries":
        path = write("q.csv", f"x,s,o\n1,a,lo\n2,b,hi\n{cells}\n")
        schema = FeatureSchema((
            NumericKind(), NominalKind(frozenset({"a", "b"})), OrdinalKind(("lo", "hi")),
        ))
        return load_queries(path, ("x", "s", "o"), schema)
    path = write("d.csv", f"x,s,o,y\n1,a,lo,0\n2,b,hi,1\n{cells},1\n")
    sidecar = write("d.schema.json", json.dumps({"columns": _FAULT_SCHEMA}))
    if loader == "load_dataset":
        return load_dataset(path, schema_path=sidecar)
    model = Model(
        family="knn",
        params={"k": 1, "metric": "euclidean"},
        feature_names=("x", "s", "o"),
        schema=load_dataset(write("t.csv", "x,s,o,y\n1,a,lo,0\n2,b,hi,1\n"),
                            schema_path=sidecar).schema,
        target_name="y",
        y_kind=YKind.BINARY01,
    )
    return load_dataset_for_model(path, model)


class TestRowFaults:
    """Every loader reports a bad cell, or a repeated vector, the same way."""

    @pytest.mark.parametrize("loader,fault", [
        pytest.param(loader, fault, id=f"{loader}-{fault[0]}")
        for loader in ("load_dataset", "load_dataset_for_model", "load_queries")
        for fault in _FAULTS
        if loader != "load_queries" or fault[2] is not DuplicateFeatureVector  # queries may repeat
    ])
    def test_fault_names_its_row_and_column(self, write, loader, fault):
        _, cells, error, message, row, column = fault
        with pytest.raises(MinconsistError) as info:
            _load_with_fault(write, loader, cells)
        assert type(info.value) is error
        assert str(info.value) == message
        assert getattr(info.value, "row", None) == row
        assert getattr(info.value, "column", None) == column
