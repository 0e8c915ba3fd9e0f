"""Dataset files, sidecar schemas, and versioned model files.

Datasets are delimited text with a header row.  Column kinds come from
an optional JSON sidecar (numeric needs no declaration; ordinal columns
must declare their ordered level list; nominal columns may declare
their symbol set).  Models are JSON documents with an explicit format
version; floats survive the round trip bit for bit because they are
written in shortest round-trip form.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from .core import (
    Case,
    ColumnKind,
    DuplicateFeatureVector,
    EmptySet,
    FeatureSchema,
    FeatureVector,
    InvalidParameter,
    LinearHypothesis,
    MinconsistError,
    ModelFormatError,
    NominalKind,
    NumericKind,
    OrdinalKind,
    ParseError,
    SchemaMismatch,
    TrainingSet,
    UnknownColumnKind,
    YKind,
    _is_number,
    family_spec,
)
from .pointwise import TreeLeaf, TreeNode, TreePartition

MODEL_FORMAT = "minconsist-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    """A parsed dataset: cases plus the column story behind them."""

    training: TrainingSet
    schema: FeatureSchema
    feature_names: tuple[str, ...]
    target_name: str

    @property
    def content_hash(self) -> str:
        return dataset_content_hash(self)


def dataset_content_hash(dataset: Dataset) -> str:
    """Hash of the parsed content, independent of file formatting."""
    payload = {
        "features": list(dataset.feature_names),
        "target": dataset.target_name,
        "rows": [
            [list(map(_json_scalar, case.x.values)), _json_scalar(case.y)]
            for case in dataset.training.cases
        ],
    }
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _json_scalar(v):
    return repr(v) if isinstance(v, float) else v


# ---------------------------------------------------------------------------
# Sidecar schemas


def load_sidecar_schema(path: str | Path) -> tuple[dict[str, ColumnKind], str | None]:
    """Column kinds by name, plus the declared target column if any."""
    doc = _read(path, ParseError, f"sidecar schema {path}")
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), dict):
        raise ParseError("sidecar schema needs a 'columns' object")
    kinds: dict[str, ColumnKind] = {}
    for name, entry in doc["columns"].items():
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ParseError(f"column {name!r} needs a 'kind'")
        kinds[name] = _column_kind_from_json(entry, name)
    target = doc.get("target")
    if target is not None and not isinstance(target, str):
        raise ParseError("'target' must be a column name")
    return kinds, target


def _column_kind_from_json(entry: Mapping, name: str) -> ColumnKind:
    kind = entry["kind"]
    if kind == "numeric":
        return NumericKind()
    if kind == "ordinal":
        levels = entry.get("levels")
        if not isinstance(levels, list) or not levels:
            raise ParseError(f"ordinal column {name!r} needs a non-empty 'levels' list")
        return OrdinalKind(tuple(str(v) for v in levels))
    if kind == "nominal":
        symbols = entry.get("symbols")
        if symbols is None:
            return NominalKind(frozenset({"?"}))  # placeholder; replaced after inference
        if not isinstance(symbols, list) or not symbols:
            raise ParseError(f"nominal column {name!r} needs a non-empty 'symbols' list")
        return NominalKind(frozenset(str(v) for v in symbols))
    raise UnknownColumnKind(f"column {name!r} declares unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Dataset loading


def load_dataset(
    path: str | Path,
    target: str | None = None,
    schema_path: str | Path | None = None,
) -> Dataset:
    """Parse a delimited dataset with a header row.

    The feedback column is ``target``, the sidecar's target, or the last
    column.  Undeclared columns are numeric when every value parses as a
    number and nominal otherwise.  Parse problems name their row and
    column; duplicate feature vectors name both offending rows.
    """
    declared: dict[str, ColumnKind] = {}
    sidecar_target: str | None = None
    if schema_path is not None:
        declared, sidecar_target = load_sidecar_schema(schema_path)

    header, rows = _read_delimited(path)
    target_name = target or sidecar_target or header[-1]
    if target_name not in header:
        raise ParseError(f"target column {target_name!r} not in header {header}")
    target_idx = header.index(target_name)
    feature_names = tuple(name for i, name in enumerate(header) if i != target_idx)
    if not feature_names:
        raise ParseError("dataset needs at least one feature column")
    unknown = set(declared) - set(header)
    if unknown:
        raise ParseError(f"sidecar declares column(s) not in header: {sorted(unknown)}")

    kinds: list[ColumnKind | None] = []
    for name in feature_names:
        kinds.append(declared.get(name))
    # Infer undeclared kinds: numeric when every token parses as a number.
    feature_cols = [i for i in range(len(header)) if i != target_idx]
    for pos, name in enumerate(feature_names):
        if kinds[pos] is None:
            col_tokens = [row[feature_cols[pos]] for row in rows]
            kinds[pos] = _infer_kind(col_tokens)
        elif isinstance(kinds[pos], NominalKind) and kinds[pos].symbols == frozenset({"?"}):
            observed = {row[feature_cols[pos]] for row in rows}
            kinds[pos] = NominalKind(frozenset(observed))

    cases = []
    row_by_vector: dict[tuple, int] = {}
    for r, row in enumerate(rows):
        line_no = r + 2  # header is line 1
        values = []
        for pos, name in enumerate(feature_names):
            token = row[feature_cols[pos]]
            values.append(_parse_value(token, kinds[pos], line_no, name))
        y = _parse_number(rows[r][target_idx], line_no, target_name, "feedback")
        vec = tuple(values)
        if vec in row_by_vector:
            raise DuplicateFeatureVector(
                f"rows {row_by_vector[vec]} and {line_no} share feature vector {vec!r}"
            )
        row_by_vector[vec] = line_no
        cases.append(Case(FeatureVector(vec), y))

    schema = FeatureSchema(tuple(kinds))
    training = TrainingSet(tuple(cases))
    for case in training.cases:
        schema.validate_vector(case.x)
    return Dataset(training, schema, feature_names, target_name)


def _read(path: str | Path, error: type[MinconsistError], json_name: str | None = None):
    """The text of a file, or its JSON document when ``json_name`` names it.

    Every file this module reads comes through here: each way the read
    can fail (a missing file, bytes that are not UTF-8, malformed or
    too deeply nested JSON) becomes ``error``, naming the file.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        return text if json_name is None else json.loads(text)
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{json_name} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{path} nests too deeply to read") from None


def _read_delimited(path: str | Path) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(_read(path, ParseError).splitlines())
    table = [row for row in reader if row]
    if not table:
        raise EmptySet(f"{path} is empty")
    header = [name.strip() for name in table[0]]
    if len(set(header)) != len(header):
        raise ParseError("header column names must be distinct", row=1)
    rows = []
    for r, row in enumerate(table[1:]):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, found {len(row)}", row=r + 2
            )
        rows.append([cell.strip() for cell in row])
    if not rows:
        raise EmptySet(f"{path} has a header but no data rows")
    return header, rows


def _infer_kind(tokens: list[str]) -> ColumnKind:
    for token in tokens:
        try:
            float(token)
        except ValueError:
            return NominalKind(frozenset(tokens))
    return NumericKind()


def _parse_value(token: str, kind: ColumnKind, line_no: int, column: str):
    if isinstance(kind, NumericKind):
        return _parse_number(token, line_no, column, "value")
    if isinstance(kind, OrdinalKind):
        if token not in kind.levels:
            raise ParseError(
                f"value {token!r} not among ordinal levels {list(kind.levels)}",
                row=line_no,
                column=column,
            )
        return kind.levels.index(token)
    if token not in kind.symbols:
        raise ParseError(
            f"value {token!r} not among declared symbols", row=line_no, column=column
        )
    return token


def _parse_number(token: str, line_no: int, column: str, what: str) -> int | float:
    """A finite number; integral values become ints, as the content hash expects."""
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"{what} {token!r} is not a number", row=line_no, column=column
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} {token!r} is not finite", row=line_no, column=column)
    return int(value) if value == int(value) else value


def load_dataset_for_model(path: str | Path, model: "Model") -> Dataset:
    """Parse a dataset using a trained model's column story.

    The header must contain exactly the model's feature columns plus its
    target column, in any order; cells are parsed under the model's
    declared kinds rather than re-inferred, so ordinal levels keep the
    ranks they had at training time.
    """
    header, rows = _read_delimited(path)
    expected = set(model.feature_names) | {model.target_name}
    if set(header) != expected:
        raise SchemaMismatch(
            f"columns {header} do not match model columns "
            f"{list(model.feature_names)} + target {model.target_name!r}"
        )
    position = {name: header.index(name) for name in header}
    kind_of = dict(zip(model.feature_names, model.schema.columns))
    cases = []
    row_by_vector: dict[tuple, int] = {}
    for r, row in enumerate(rows):
        line_no = r + 2
        values = tuple(
            _parse_value(row[position[name]], kind_of[name], line_no, name)
            for name in model.feature_names
        )
        token = row[position[model.target_name]]
        y = _parse_number(token, line_no, model.target_name, "feedback")
        if values in row_by_vector:
            raise DuplicateFeatureVector(
                f"rows {row_by_vector[values]} and {line_no} share feature vector {values!r}"
            )
        row_by_vector[values] = line_no
        cases.append(Case(FeatureVector(values), y))
    training = TrainingSet(tuple(cases))
    for case in training.cases:
        model.schema.validate_vector(case.x)
    return Dataset(training, model.schema, model.feature_names, model.target_name)


def load_queries(
    path: str | Path, feature_names: tuple[str, ...], schema: FeatureSchema
) -> tuple[FeatureVector, ...]:
    """Feature-only rows whose header must match the model's columns."""
    header, rows = _read_delimited(path)
    if tuple(header) != tuple(feature_names):
        raise SchemaMismatch(
            f"query columns {header} do not match model columns {list(feature_names)}"
        )
    out = []
    for r, row in enumerate(rows):
        values = tuple(
            _parse_value(token, kind, r + 2, name)
            for token, kind, name in zip(row, schema.columns, feature_names)
        )
        vec = FeatureVector(values)
        schema.validate_vector(vec)
        out.append(vec)
    return tuple(out)


# ---------------------------------------------------------------------------
# Model files


@dataclass(frozen=True)
class Model:
    """Everything a trained model remembers."""

    family: str
    params: dict
    feature_names: tuple[str, ...]
    schema: FeatureSchema
    target_name: str
    y_kind: YKind
    hypothesis: LinearHypothesis | None = None
    tree: TreePartition | None = None
    training_hash: str | None = None
    total_inconsistency: float | None = None


def save_model(model: Model, path: str | Path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "family": model.family,
        "params": model.params,
        "feature_names": list(model.feature_names),
        "schema": [_column_kind_to_json(kind) for kind in model.schema.columns],
        "target": model.target_name,
        "y_kind": model.y_kind.value,
        "hypothesis": _hypothesis_to_json(model.hypothesis),
        "tree": _tree_to_json(model.tree.root) if model.tree is not None else None,
        "training_hash": model.training_hash,
        "total_inconsistency": model.total_inconsistency,
    }
    _write(path, json.dumps(doc, indent=2) + "\n")


def _write(path: str | Path, text: str) -> None:
    """Write a file; this module's one write, so its one place to fail."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"cannot write {path}: {exc}") from exc


def load_model(path: str | Path) -> Model:
    doc = _read(path, ModelFormatError, str(path))
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path} is not a {MODEL_FORMAT} file")
    if doc.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            f"unsupported model version {doc.get('version')!r}; this build reads {MODEL_VERSION}"
        )
    family, params = _checked_params(doc, path)
    try:
        names = _field(doc, "feature_names", _is_names, "a non-empty list of column names")
        schema_doc = _field(
            doc, "schema",
            lambda v: isinstance(v, list) and len(v) == len(names),
            "a list of column kinds, one per feature name",
        )
        schema = FeatureSchema(tuple(_column_kind_from_model(e) for e in schema_doc))
        target = _field(doc, "target", lambda v: isinstance(v, str), "a column name")
        y_kinds = [kind.value for kind in YKind]
        y_kind = _field(doc, "y_kind", lambda v: v in y_kinds, f"one of {y_kinds}")
        hypothesis = _hypothesis_from_json(_field(
            doc, "hypothesis", lambda v: v is None or isinstance(v, dict), "an object or null"
        ))
        tree_doc = _field(doc, "tree", lambda v: v is None or isinstance(v, dict),
                          "an object or null")
        if family == "dtree" and tree_doc is None:
            raise ModelFormatError("a dtree model needs its tree")
        tree = None if tree_doc is None else TreePartition(
            _tree_from_json(tree_doc, schema.n), schema.n
        )
    except MinconsistError as exc:  # includes the schema's and hypothesis's own checks
        raise ModelFormatError(f"{path}: {exc}") from None
    return Model(
        family=family,
        params=params,
        feature_names=tuple(names),
        schema=schema,
        target_name=target,
        y_kind=YKind(y_kind),
        hypothesis=hypothesis,
        tree=tree,
        training_hash=doc.get("training_hash"),
        total_inconsistency=doc.get("total_inconsistency"),
    )


def _field(doc: dict, key: str, ok: Callable[[object], bool], what: str):
    value = doc.get(key)
    if not ok(value):
        raise ModelFormatError(f"{key} must be {what}, got {value!r}")
    return value


def _is_names(value: object) -> bool:
    return isinstance(value, list) and bool(value) and all(isinstance(v, str) for v in value)


def _checked_params(doc: dict, path: str | Path) -> tuple[str, dict]:
    """The model's family and its parameters, checked against the family's row.

    Parameters left out take their defaults.
    """
    family, params = doc.get("family"), doc.get("params")
    try:
        if not isinstance(family, str):
            raise InvalidParameter(f"family must be a name, got {family!r}")
        spec = family_spec(family)
        if not isinstance(params, dict):
            raise InvalidParameter(f"params must be an object, got {params!r}")
        spec.check(params, spec.file_params)
    except InvalidParameter as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    return family, spec.complete(params, spec.file_params)


def _column_kind_to_json(kind: ColumnKind) -> dict:
    if isinstance(kind, NumericKind):
        return {"kind": "numeric"}
    if isinstance(kind, OrdinalKind):
        return {"kind": "ordinal", "levels": list(kind.levels)}
    return {"kind": "nominal", "symbols": sorted(kind.symbols)}


def _column_kind_from_model(entry: object) -> ColumnKind:
    kind = entry.get("kind") if isinstance(entry, dict) else None
    if kind == "numeric":
        return NumericKind()
    if kind == "ordinal":
        return OrdinalKind(tuple(_field(entry, "levels", _is_names, "a list of level names")))
    if kind == "nominal":
        return NominalKind(frozenset(_field(entry, "symbols", _is_names, "a list of symbols")))
    raise ModelFormatError(f"model schema declares unknown kind {kind!r}")


def _hypothesis_to_json(h: LinearHypothesis | None) -> dict | None:
    return None if h is None else {"kind": "linear", "b": list(h.b), "a": h.a}


def _hypothesis_from_json(doc: dict | None) -> LinearHypothesis | None:
    if doc is None:
        return None
    if doc.get("kind") == "linear":
        b = _field(doc, "b", _is_numbers, "a list of numbers")
        return LinearHypothesis(tuple(b), _field(doc, "a", _is_number, "a number"))
    raise ModelFormatError(f"unknown hypothesis kind {doc.get('kind')!r}")


def _is_numbers(value: object) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _tree_to_json(node: TreeNode | TreeLeaf) -> dict:
    if isinstance(node, TreeLeaf):
        return {"leaf": node.leaf_id, "cases": list(node.case_indices)}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _tree_to_json(node.left),
        "right": _tree_to_json(node.right),
    }


def _tree_from_json(doc: object, n: int) -> TreeNode | TreeLeaf:
    """The tree below ``doc``; its splits may name features 0..n-1."""
    if isinstance(doc, dict) and _is_index(doc.get("leaf")):
        cases = doc.get("cases")
        if isinstance(cases, list) and all(map(_is_index, cases)):
            return TreeLeaf(doc["leaf"], tuple(cases))
    elif (isinstance(doc, dict) and _is_index(doc.get("feature")) and doc["feature"] < n
          and _is_int(doc.get("threshold"))):
        return TreeNode(
            doc["feature"],
            doc["threshold"],
            _tree_from_json(doc.get("left"), n),
            _tree_from_json(doc.get("right"), n),
        )
    raise ModelFormatError("the tree holds a malformed node")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_index(value: object) -> bool:
    return _is_int(value) and value >= 0
