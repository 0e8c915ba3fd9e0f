"""Command-line surface: train, predict, audit, verify.

Standard output carries only data (parameter echoes, predictions, the
audit report, check lines); diagnostics go to standard error.  Exit
codes: 0 on success, 1 on data or solver errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from typing import Iterator, Sequence

from .core import (
    InconsistencyReport,
    InvalidParameter,
    MinconsistError,
    ModelFormatError,
    Param,
    SolverDiverged,
    TrainingDataMismatch,
    TrainingSet,
    YKind,
    _LABELS,
    _NUMBER_KINDS,
    _clean,
    family_names,
    family_spec,
    select_hypothesis,
)
from .dataio import (
    Dataset,
    Model,
    load_dataset,
    load_dataset_for_model,
    load_model,
    load_queries,
    save_model,
)
from .oracle import run_all_checks
from .pointwise import TreePartition


def _train_params() -> tuple[Param, ...]:
    """Every family's ``train`` parameters, each once."""
    found: dict[str, Param] = {}
    for name in family_names():
        for param in family_spec(name).params:
            found.setdefault(param.key, param)
    return tuple(found.values())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minconsist",
        description="Learners as inconsistency minimizers: train, predict, audit, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a learner and write a model file")
    train.add_argument("--learner", required=True, choices=family_names())
    train.add_argument("--data", required=True, help="training dataset (CSV with header)")
    train.add_argument("--target", help="feedback column name (default: last column)")
    train.add_argument("--schema", help="sidecar schema file (JSON)")
    train.add_argument("--out", required=True, help="model file to write")
    for param in _train_params():
        users = [name for name in family_names() if param in family_spec(name).params]
        train.add_argument(
            param.flag,
            dest=param.key,
            type=param.type,
            choices=param.choices or None,
            help=f"{param.help} ({', '.join(users)})",
        )

    predict = sub.add_parser("predict", help="answer query rows with a saved model")
    predict.add_argument("--model", required=True)
    predict.add_argument("--queries", required=True, help="feature-only CSV with header")
    predict.add_argument(
        "--data", help="training dataset; required for query-time learners"
    )

    audit = sub.add_parser("audit", help="per-case inconsistency report for a dataset")
    audit.add_argument("--model", required=True)
    audit.add_argument("--data", required=True)

    verify = sub.add_parser("verify", help="run the randomized equivalence checks")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=1000, help="trial count per check")

    return parser


def _train_values(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """The parameters the model saves: the flags given, defaults made explicit.

    A flag the learner does not take, a missing one, or a value out of
    range is a usage error.
    """
    spec = family_spec(args.learner)
    params = _train_params()
    given = {p.key: getattr(args, p.key) for p in params if getattr(args, p.key) is not None}
    flags = {p.key: p.flag for p in params}
    try:
        return spec.complete(given, name=flags.__getitem__)
    except InvalidParameter as exc:
        parser.error(str(exc))


def _infer_y_kind(training: TrainingSet, family: str) -> YKind:
    """The most specific feedback domain the data fits and the family takes.

    Labels are never re-encoded: a 0/1 dataset handed to a learner that
    needs -1/+1 labels is a data error, not a conversion.
    """
    values = set(training.feedbacks)
    candidates = [kind for kind, labels in _LABELS.items() if values <= set(labels)]
    candidates.append(YKind.REAL)
    allowed = family_spec(family).y_kinds
    for kind in candidates:
        if kind in allowed:
            return kind
    raise TrainingDataMismatch(
        f"{family} needs {'/'.join(sorted(k.value for k in allowed))} feedback; "
        f"observed values {sorted(values)}"
    )


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _fmt_prediction(v: float) -> str:
    if isinstance(v, float) and v.is_integer() and abs(v) < 2**53:
        return str(int(v))
    return str(v)


def _echo_params(family: str, params: dict, dataset: Dataset, total: float, out: str) -> None:
    print(f"family={family}")
    for key in sorted(params):
        value = params[key]
        print(f"{key}={_fmt_float(value) if isinstance(value, float) else value}")
    print(f"m={dataset.training.m}")
    print(f"n={dataset.training.n}")
    print(f"total_inconsistency={_fmt_float(total)}")
    print(f"model={out}")


def cmd_train(args: argparse.Namespace, params: dict) -> int:
    dataset = load_dataset(args.data, target=args.target, schema_path=args.schema)
    family = args.learner
    y_kind = _infer_y_kind(dataset.training, family)
    fitted, total = select_hypothesis(family, params, dataset.training)
    # A model that keeps no hypothesis answers from its training data, named by their hash.
    training_hash = dataset.content_hash if family_spec(family).pointwise else None
    save_model(Model(family, params, dataset.feature_names, dataset.schema, dataset.target_name,
                     y_kind, fitted=fitted, training_hash=training_hash,
                     total_inconsistency=total), args.out)
    _echo_params(family, params, dataset, total, args.out)
    return 0


def _require_matching_data(model: Model, path: str) -> Dataset:
    dataset = load_dataset_for_model(path, model)
    if model.training_hash is not None and dataset.content_hash != model.training_hash:
        raise TrainingDataMismatch(
            f"{path} does not match the data this model was trained on"
        )
    if isinstance(model.fitted, TreePartition):
        last = max((i for leaf in model.fitted.leaves() for i in leaf.case_indices), default=0)
        if last >= dataset.training.m:
            raise ModelFormatError(
                f"the model's tree names case {last + 1}, but {path} has {dataset.training.m}"
            )
    return dataset


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    queries = load_queries(args.queries, model.feature_names, model.schema)
    spec = family_spec(model.family)
    training = None
    if spec.pointwise:
        if args.data is None:
            raise TrainingDataMismatch(
                f"{model.family} answers queries from its training data; pass --data"
            )
        training = _require_matching_data(model, args.data).training
    answers, stopped = [], None
    try:
        for value in spec.answers(model.params, model.fitted, training, queries):
            if not math.isfinite(value):
                raise SolverDiverged(
                    f"the answer to query {len(answers) + 1} is beyond the floating-point range"
                )
            answers.append(value)
    except MinconsistError as exc:
        stopped = exc
    # The answers before a query that fails go out first, in one call.  It hands
    # the stream a line at a time: one write longer than the stream's buffer can
    # end short at a closed pipe without raising, and the exit code would hide it.
    sys.stdout.writelines([f"{_fmt_prediction(v)}\n" for v in answers])
    if stopped is not None:
        raise stopped
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    training = _require_matching_data(model, args.data).training
    report = family_spec(model.family).audit(model.params, model.fitted, training)
    print(_audit_text(model.family, training, report))
    return 0


# One audit row as ``json.dumps(..., indent=2)`` lays it out inside the rows list.
_ROW = """    {
      "case": %s,
      "x": [
        %s
      ],
      "y": %s,
      "mu": %s,
      "counterparts": %s
    }"""


def _audit_text(family: str, training: TrainingSet, report: InconsistencyReport) -> str:
    """The audit document of ``family``'s report on ``training``: a header, one row per case.

    The header holds ``family``, ``aggregation``, ``regularizer`` and
    ``total_inconsistency``.  Largest inconsistencies come first, so
    candidate outliers lead the report.  The text equals
    ``json.dumps({**header, "rows": rows}, indent=2)``, where ``rows``
    holds ``{"case", "x", "y", "mu", "counterparts"}`` for each case
    (numbered from 1), sorted by ``(-mu, case)``.  Only the header goes
    through ``json``.  Each column is written whole (:func:`_json_column`):
    one of exact ints and finite floats by ``repr`` in C, any other value
    by value.  Each row is laid out from one ``%`` template.
    """
    xs = map(",\n        ".join, zip(*map(_json_column, training.columns.columns)))
    rows = list(map(_ROW.__mod__, zip(itertools.count(1), xs, *map(
        _json_column, (training.feedbacks, report.mus, report.counts)))))
    # A stable sort keeps tied mus in case order, as the (-mu, case) key would.
    order = sorted(range(len(rows)), key=report.mus.__getitem__, reverse=True)
    header = {"family": family, "aggregation": report.aggregation.value,
              "regularizer": report.regularizer, "total_inconsistency": report.total}
    head = json.dumps(header, indent=2)[:-2]  # without its closing "\n}"
    return head + ',\n  "rows": [\n' + ",\n".join([rows[i] for i in order]) + "\n  ]\n}"


def _json_column(column: Sequence[object]) -> Iterator[str]:
    """``json.dumps`` of each value in ``column``.

    A column of exact ints and finite floats (:func:`core._clean`) is
    written by ``repr`` in C, which is ``json``'s text for them; any other
    column (symbols, None, a NaN or inf, a bool or a subclass) value by
    value through :func:`_json_value`.
    """
    return map(repr if _clean(column, _NUMBER_KINDS) else _json_value, column)


def _json_value(v) -> str:
    """``json.dumps(v)`` for a scalar, with the common cases taken directly."""
    if type(v) is float and math.isfinite(v):
        return float.__repr__(v)
    if type(v) is int:
        return int.__repr__(v)
    if v is None:  # an svm report's counts
        return "null"
    return json.dumps(v)


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        import numpy  # noqa: F401  the oracle draws and scans with it
    except ImportError:
        print("error: verify needs numpy: pip install 'minconsist[verify]'", file=sys.stderr)
        return 1
    results = run_all_checks(args.trials, seed=args.seed)
    for result in results:
        print(result.line())
    return 0 if all(result.ok for result in results) else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train":
            return cmd_train(args, _train_values(args, parser))
        if args.command == "predict":
            return cmd_predict(args)
        if args.command == "audit":
            return cmd_audit(args)
        if args.trials < 1:
            parser.error("--trials must be >= 1")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        return cmd_verify(args)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else 2
    except MinconsistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    try:
        if sys.stdout is None:  # started with stdout closed: opening it names the fault
            sys.stdout = open(1, "w")
        code = main()
        sys.stdout.flush()
    except OSError as exc:  # dataio turns each file fault into its own error: this is stdout's
        # Point stdout at devnull, so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        if not isinstance(exc, BrokenPipeError):  # the reader left early, as ``| head`` does
            print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
