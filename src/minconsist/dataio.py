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
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

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


# A sidecar's nominal column that lists no symbols: it takes the values it holds.
_OBSERVED = "nominal"


def load_sidecar_schema(path: str | Path) -> tuple[dict[str, ColumnKind | str], str | None]:
    """Column kinds by name (``"nominal"`` when no symbols are listed), and the target."""
    doc = _read(path, ParseError, f"sidecar schema {path}")
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), dict):
        raise ParseError("sidecar schema needs a 'columns' object")
    kinds: dict[str, ColumnKind | str] = {}
    for name, entry in doc["columns"].items():
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ParseError(f"column {name!r} needs a 'kind'")
        kinds[name] = _column_kind_from_json(entry, name)
    target = doc.get("target")
    if target is not None and not isinstance(target, str):
        raise ParseError("'target' must be a column name")
    return kinds, target


def _column_kind_from_json(entry: Mapping, name: str) -> ColumnKind | str:
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
            return _OBSERVED
        if not isinstance(symbols, list) or not symbols:
            raise ParseError(f"nominal column {name!r} needs a non-empty 'symbols' list")
        return NominalKind(frozenset(str(v) for v in symbols))
    raise UnknownColumnKind(f"column {name!r} declares unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Dataset loading

Row = tuple[int, list[str]]  # a data row's cells and the file line it ends on


def load_dataset(
    path: str | Path,
    target: str | None = None,
    schema_path: str | Path | None = None,
) -> Dataset:
    """Parse a delimited dataset with a header row.

    The feedback column is ``target``, the sidecar's target, or the last
    column.  Undeclared columns are numeric when every value parses as a
    number and nominal otherwise.  Parse problems name their row (the
    file line) and column; duplicate feature vectors name both rows.
    """
    declared: dict[str, ColumnKind | str] = {}
    sidecar_target: str | None = None
    if schema_path is not None:
        declared, sidecar_target = load_sidecar_schema(schema_path)

    header, rows = _read_delimited(path)
    target_name = target or sidecar_target or header[-1]
    if target_name not in header:
        raise ParseError(f"target column {target_name!r} not in header {header}")
    feature_names = tuple(name for name in header if name != target_name)
    if not feature_names:
        raise ParseError("dataset needs at least one feature column")
    unknown = set(declared) - set(header)
    if unknown:
        raise ParseError(f"sidecar declares column(s) not in header: {sorted(unknown)}")

    kinds = tuple(
        _column_kind(declared.get(name), [cells[i] for _, cells in rows])
        for i, name in enumerate(header) if name != target_name
    )
    training = _training(rows, header, feature_names, kinds, target_name)
    return Dataset(training, FeatureSchema(kinds), feature_names, target_name)


def load_dataset_for_model(path: str | Path, model: "Model") -> Dataset:
    """Parse a dataset using a trained model's column story.

    The header must contain exactly the model's feature columns plus its
    target column, in any order; cells are parsed under the model's
    declared kinds rather than re-inferred, so ordinal levels keep the
    ranks they had at training time.
    """
    header, rows = _read_delimited(path)
    names, target = model.feature_names, model.target_name
    if set(header) != set(names) | {target}:
        raise SchemaMismatch(
            f"columns {header} do not match model columns {list(names)} + target {target!r}"
        )
    training = _training(rows, header, names, model.schema.columns, target)
    return Dataset(training, model.schema, names, target)


def load_queries(
    path: str | Path, feature_names: tuple[str, ...], schema: FeatureSchema
) -> tuple[FeatureVector, ...]:
    """Feature-only rows whose header must match the model's columns."""
    header, rows = _read_delimited(path)
    if tuple(header) != tuple(feature_names):
        raise SchemaMismatch(
            f"query columns {header} do not match model columns {list(feature_names)}"
        )
    return tuple(_vectors(rows, header, feature_names, schema.columns))


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


def _read_delimited(path: str | Path) -> tuple[list[str], list[Row]]:
    """The header and the data rows, each row with the file line it ends on.

    Blank lines are skipped, and cells are stripped of surrounding
    whitespace; a quoted cell may hold the delimiter and line breaks.
    """
    reader = csv.reader(io.StringIO(_read(path, ParseError), newline=""))
    try:
        table = [(reader.line_num, [cell.strip() for cell in cells]) for cells in reader if cells]
    except csv.Error as exc:  # a cell longer than the csv module's field limit
        raise ParseError(str(exc), row=reader.line_num) from None
    if not table:
        raise EmptySet(f"{path} is empty")
    (header_line, header), rows = table[0], table[1:]
    if len(set(header)) != len(header):
        raise ParseError("header column names must be distinct", row=header_line)
    for line, cells in rows:
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} cells, found {len(cells)}", row=line)
    if not rows:
        raise EmptySet(f"{path} has a header but no data rows")
    return header, rows


def _column_kind(declared: ColumnKind | str | None, tokens: list[str]) -> ColumnKind:
    """The declared kind; else numeric if every token is a number, else nominal over them."""
    if declared is None:
        try:
            for token in tokens:
                float(token)
            return NumericKind()
        except ValueError:
            declared = _OBSERVED
    return NominalKind(frozenset(tokens)) if declared == _OBSERVED else declared


def _vectors(rows: list[Row], header: list[str], names: Sequence[str],
             kinds: Sequence[ColumnKind]) -> Iterator[FeatureVector]:
    """Each row's feature vector: the cells of ``names``, parsed under ``kinds``."""
    columns = [(header.index(name), kind, name) for name, kind in zip(names, kinds)]
    for line, cells in rows:
        yield FeatureVector(
            tuple(_parse_value(cells[i], kind, line, name) for i, kind, name in columns)
        )


def _training(rows: list[Row], header: list[str], names: Sequence[str],
              kinds: Sequence[ColumnKind], target: str) -> TrainingSet:
    """The rows as cases: ``_vectors`` plus the feedback cells, no vector twice."""
    t = header.index(target)
    cases = []
    line_of: dict[tuple, int] = {}
    for (line, cells), x in zip(rows, _vectors(rows, header, names, kinds)):
        y = _parse_number(cells[t], line, target, "feedback")
        if x.values in line_of:
            raise DuplicateFeatureVector(
                f"rows {line_of[x.values]} and {line} share feature vector {x.values!r}"
            )
        line_of[x.values] = line
        cases.append(Case(x, y))
    return TrainingSet(tuple(cases))


def _parse_value(token: str, kind: ColumnKind, line_no: int, column: str):
    if isinstance(kind, NumericKind):
        return _parse_number(token, line_no, column, "value")
    if isinstance(kind, OrdinalKind):
        if token not in kind.levels:
            raise ParseError(f"value {token!r} not among ordinal levels {list(kind.levels)}",
                             row=line_no, column=column)
        return kind.levels.index(token)
    if token not in kind.symbols:
        raise ParseError(f"value {token!r} not among declared symbols", row=line_no, column=column)
    return token


def _parse_number(token: str, line_no: int, column: str, what: str) -> int | float:
    """A finite number; integral values below 2**53 become ints, as the content hash expects."""
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"{what} {token!r} is not a number", row=line_no, column=column
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} {token!r} is not finite", row=line_no, column=column)
    return int(value) if value.is_integer() and abs(value) < 2**53 else value


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
        spec.check(params)
    except InvalidParameter as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    return family, spec.complete(params)


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
