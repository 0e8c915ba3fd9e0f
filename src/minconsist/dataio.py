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
from typing import Callable, Mapping, NoReturn, Sequence

from .core import (
    ColumnKind,
    DuplicateFeatureVector,
    EmptySet,
    FamilySpec,
    FeatureColumns,
    FeatureSchema,
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
    _NUMBER_KINDS,
    _fits,
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
            [list(map(_json_scalar, x)), _json_scalar(y)]
            for x, y in zip(dataset.training.columns.rows(), dataset.training.feedbacks)
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

Lines = Callable[[], list[int]]  # the file line each data row ends on, found when asked for


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

    header, lines, table = _read_delimited(path)
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
        _column_kind(declared.get(name), tokens)
        for name, tokens in zip(header, table) if name != target_name
    )
    training = _parsed(lines, table, header, feature_names, kinds, target_name)
    return Dataset(training, FeatureSchema(kinds), feature_names, target_name)


def load_dataset_for_model(path: str | Path, model: "Model") -> Dataset:
    """Parse a dataset using a trained model's column story.

    The header must contain exactly the model's feature columns plus its
    target column, in any order; cells are parsed under the model's
    declared kinds rather than re-inferred, so ordinal levels keep the
    ranks they had at training time.
    """
    header, lines, table = _read_delimited(path)
    names, target = model.feature_names, model.target_name
    if set(header) != set(names) | {target}:
        raise SchemaMismatch(
            f"columns {header} do not match model columns {list(names)} + target {target!r}"
        )
    training = _parsed(lines, table, header, names, model.schema.columns, target)
    return Dataset(training, model.schema, names, target)


def load_queries(
    path: str | Path, feature_names: tuple[str, ...], schema: FeatureSchema
) -> FeatureColumns:
    """Feature-only rows whose header must match the model's columns, as columns."""
    header, lines, table = _read_delimited(path)
    if tuple(header) != tuple(feature_names):
        raise SchemaMismatch(
            f"query columns {header} do not match model columns {list(feature_names)}"
        )
    return _parsed(lines, table, header, feature_names, schema.columns)


def _read(path: str | Path, error: type[MinconsistError], json_name: str | None = None):
    """The text of a file, or its JSON document when ``json_name`` names it.

    Every file this module reads comes through here: each way the read
    can fail (a missing file, bytes that are not UTF-8, malformed or
    too deeply nested JSON, an int of more digits than ``int()`` reads)
    becomes ``error``, naming the file.  A UTF-8 byte-order mark at its
    head, as spreadsheets write, is no part of the text.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
        return text if json_name is None else json.loads(text)
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or an int too long to read
        raise error(f"{json_name} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{path} nests too deeply to read") from None


def _read_delimited(path: str | Path) -> tuple[list[str], Lines, list[tuple[str, ...]]]:
    """The header, the file lines of the data rows, and the data's cells by column.

    Blank lines are skipped, and cells are stripped of surrounding
    whitespace; a quoted cell may hold the delimiter and line breaks.
    Only an error names a file line, so the lines come from a second
    read of the text, made when one is asked for.
    """
    text = _read(path, ParseError)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [cells for cells in reader if cells]
    except csv.Error as exc:  # a cell longer than the csv module's field limit
        raise ParseError(str(exc), row=reader.line_num) from None
    if not rows:
        raise EmptySet(f"{path} is empty")
    header, width = [cell.strip() for cell in rows[0]], len(rows[0])
    if len(set(header)) != width:
        raise ParseError("header column names must be distinct", row=_file_lines(text)[0])
    if set(map(len, rows)) != {width}:
        line, cells = next(row for row in zip(_file_lines(text), rows) if len(row[1]) != width)
        raise ParseError(f"expected {width} cells, found {len(cells)}", row=line)
    if len(rows) == 1:
        raise EmptySet(f"{path} has a header but no data rows")

    def lines() -> list[int]:
        return _file_lines(text)[1:]

    return header, lines, [tuple(map(str.strip, column)) for column in zip(*rows[1:])]


def _file_lines(text: str) -> list[int]:
    """The file line each non-blank row of ``text`` ends on, the header's first."""
    reader = csv.reader(io.StringIO(text, newline=""))
    return [reader.line_num for cells in reader if cells]


def _column_kind(declared: ColumnKind | str | None, tokens: Sequence[str]) -> ColumnKind:
    """The declared kind; else numeric if every token is a number, else nominal over them."""
    if declared is None:
        try:
            for token in tokens:
                float(token)
            return NumericKind()
        except ValueError:
            declared = _OBSERVED
    return NominalKind(frozenset(tokens)) if declared == _OBSERVED else declared


def _parsed(lines: Lines, table: Sequence[Sequence[str]], header: list[str],
            names: Sequence[str], kinds: Sequence[ColumnKind],
            target: str | None = None) -> FeatureColumns | TrainingSet:
    """The columns of ``names`` parsed under ``kinds``; with a ``target``, the training set.

    The training set's feedbacks are the ``target`` column's numbers, and
    its constructor checks the columns.  Each column is parsed whole, by
    :func:`_column`.  Only where that fails, or the constructor finds a
    repeated feature vector, are the rows walked again, in file order, to
    raise what a row-by-row parse meets first (:func:`_first_fault`).
    """
    if not names or len(names) != len(kinds):
        raise SchemaMismatch(f"{len(names)} feature names but {len(kinds)} column kinds")
    cells = [(table[header.index(name)], kind, name, "value") for name, kind in zip(names, kinds)]
    if target is not None:
        cells.append((table[header.index(target)], NumericKind(), target, "feedback"))
    columns = tuple(_column(kind, tokens) for tokens, kind, _, _ in cells)
    try:
        if None not in columns:
            return (FeatureColumns(columns) if target is None
                    else TrainingSet(FeatureColumns(columns[:-1]), columns[-1]))
    except DuplicateFeatureVector:  # named below by its two file lines
        pass
    _first_fault(lines(), cells, distinct=target is not None)


def _column(kind: ColumnKind, tokens: Sequence[str]) -> tuple | None:
    """The values of a column of ``kind``, or None if a cell breaks the kind's rule.

    A numeric cell must be a finite number, and integral values below
    2**53 become ints, as the content hash expects; an ordinal cell
    becomes its level's rank; a nominal cell must be a declared symbol.
    Each rule runs once over the whole column.
    """
    try:
        if isinstance(kind, NumericKind):
            values = tuple(map(float, tokens))
            if not all(map(math.isfinite, values)):
                return None
            if any(map(float.is_integer, values)):
                values = tuple([int(v) if v.is_integer() and abs(v) < 2**53 else v
                                for v in values])
            return values
        if isinstance(kind, OrdinalKind):
            return tuple(map({level: r for r, level in enumerate(kind.levels)}.__getitem__,
                             tokens))
    except (ValueError, KeyError):
        return None
    return tuple(tokens) if kind.symbols.issuperset(tokens) else None


def _first_fault(lines: Sequence[int], cells: Sequence[tuple], distinct: bool) -> NoReturn:
    """Raise what a row-by-row parse of ``cells`` meets first.

    Row by row, in file order: each cell in column order, the feedback
    last, and then, when the vectors must be ``distinct``, the row's
    feature vector against those before it.  A bad cell names its line,
    its column and why (:func:`_fault`); a repeated vector names both lines.
    """
    line_of: dict[tuple, int] = {}
    for row, line in enumerate(lines):
        values = []
        for tokens, kind, column, what in cells:
            value = _column(kind, tokens[row:row + 1])
            if value is None:
                raise ParseError(_fault(kind, tokens[row], what), row=line, column=column)
            values += value
        if distinct:
            x = tuple(values[:-1])
            if x in line_of:
                raise DuplicateFeatureVector(
                    f"rows {line_of[x]} and {line} share feature vector {x!r}"
                )
            line_of[x] = line
    raise AssertionError("no fault to name")


def _fault(kind: ColumnKind, token: str, what: str) -> str:
    """Why ``token``, a ``what`` in its column, breaks the rule of ``kind``."""
    if isinstance(kind, OrdinalKind):
        return f"value {token!r} not among ordinal levels {list(kind.levels)}"
    if isinstance(kind, NominalKind):
        return f"value {token!r} not among declared symbols"
    try:
        float(token)
    except ValueError:
        return f"{what} {token!r} is not a number"
    return f"{what} {token!r} is not finite"


# ---------------------------------------------------------------------------
# Model files


@dataclass(frozen=True)
class Model:
    """Everything a trained model remembers; ``fitted`` is what its family's fit returned."""

    family: str
    params: dict
    feature_names: tuple[str, ...]
    schema: FeatureSchema
    target_name: str
    y_kind: YKind
    fitted: LinearHypothesis | TreePartition | None = None
    training_hash: str | None = None
    total_inconsistency: float | None = None


def save_model(model: Model, path: str | Path) -> None:
    fitted = model.fitted
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "family": model.family,
        "params": model.params,
        "feature_names": list(model.feature_names),
        "schema": [_column_kind_to_json(kind) for kind in model.schema.columns],
        "target": model.target_name,
        "y_kind": model.y_kind.value,
        "hypothesis": (_hypothesis_to_json(fitted) if isinstance(fitted, LinearHypothesis)
                       else None),
        "tree": _tree_to_json(fitted.root) if isinstance(fitted, TreePartition) else None,
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
    """A model file, checked against its family's registry row alone.

    The family must know the parameters and learn from the feedback
    domain.  The hypothesis, the tree and the training data's content hash
    are each present exactly when the row's ``keeps`` says so; a hypothesis
    holds one coefficient per feature, and a column is nominal exactly when
    the family takes symbols.  The total is a finite number >= 0, or null.
    """
    doc = _read(path, ModelFormatError, str(path))
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path} is not a {MODEL_FORMAT} file")
    if doc.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            f"unsupported model version {doc.get('version')!r}; this build reads {MODEL_VERSION}"
        )
    try:
        spec, params = _checked_params(doc)
        family = spec.name
        names = _field(doc, "feature_names", _is_names, "a non-empty list of column names")
        schema_doc = _field(
            doc, "schema",
            lambda v: isinstance(v, list) and len(v) == len(names),
            "a list of column kinds, one per feature name",
        )
        schema = FeatureSchema(tuple(_column_kind_from_model(e) for e in schema_doc))
        target = _field(doc, "target", lambda v: isinstance(v, str), "a column name")
        y_kinds = [kind.value for kind in YKind]
        y_kind = YKind(_field(doc, "y_kind", lambda v: v in y_kinds, f"one of {y_kinds}"))
        spec.require_y_kind(y_kind)
        hypothesis = _hypothesis_from_json(
            _field(doc, "hypothesis", _is_object_or_null, "an object or null")
        )
        tree_doc = _field(doc, "tree", _is_object_or_null, "an object or null")
        for key, value, kind in (("hypothesis", hypothesis, LinearHypothesis),
                                 ("tree", tree_doc, TreePartition)):
            if (value is None) == (spec.keeps is kind):
                keeps = "needs its" if value is None else "keeps no"
                raise ModelFormatError(f"a {family} model {keeps} {key}")
        if hypothesis is not None and hypothesis.n != len(names):
            raise ModelFormatError(
                f"hypothesis b must hold one coefficient per feature name ({len(names)}), "
                f"got {hypothesis.n}"
            )
        if any(isinstance(c, NominalKind) != spec.symbols for c in schema.columns):
            takes = "only" if spec.symbols else "no"
            raise ModelFormatError(f"a {family} model takes {takes} nominal features")
        if spec.pointwise:
            _field(doc, "training_hash", lambda v: isinstance(v, str),
                   "the content hash of the training data")
        elif doc.get("training_hash") is not None:
            raise ModelFormatError(f"a {family} model keeps no training_hash")
        total = _field(doc, "total_inconsistency",
                       lambda v: v is None or _fits(v, _NUMBER_KINDS) and v >= 0,
                       "a finite number >= 0, or null")
        fitted = hypothesis if tree_doc is None else TreePartition(
            _tree_from_json(tree_doc, schema.n), schema.n
        )
    except MinconsistError as exc:  # includes the schema's and hypothesis's own checks
        raise ModelFormatError(f"{path}: {exc}") from None
    return Model(family, params, tuple(names), schema, target, y_kind, fitted=fitted,
                 training_hash=doc.get("training_hash"), total_inconsistency=total)


def _field(doc: dict, key: str, ok: Callable[[object], bool], what: str):
    value = doc.get(key)
    if not ok(value):
        raise ModelFormatError(f"{key} must be {what}, got {value!r}")
    return value


def _is_names(value: object) -> bool:
    return isinstance(value, list) and bool(value) and all(isinstance(v, str) for v in value)


def _checked_params(doc: dict) -> tuple[FamilySpec, dict]:
    """The model family's registry row and its parameters, checked against that row.

    Parameters left out take their defaults.
    """
    family, params = doc.get("family"), doc.get("params")
    if not isinstance(family, str):
        raise InvalidParameter(f"family must be a name, got {family!r}")
    spec = family_spec(family)
    if not isinstance(params, dict):
        raise InvalidParameter(f"params must be an object, got {params!r}")
    return spec, spec.complete(params)


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


def _hypothesis_to_json(h: LinearHypothesis) -> dict:
    return {"kind": "linear", "b": list(h.b), "a": h.a}


def _hypothesis_from_json(doc: dict | None) -> LinearHypothesis | None:
    if doc is None:
        return None
    if doc.get("kind") == "linear":
        b = _field(doc, "b", _is_numbers, "a list of numbers")
        return LinearHypothesis(tuple(b), _field(doc, "a", _is_number, "a number"))
    raise ModelFormatError(f"unknown hypothesis kind {doc.get('kind')!r}")


def _is_object_or_null(value: object) -> bool:
    return value is None or isinstance(value, dict)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
