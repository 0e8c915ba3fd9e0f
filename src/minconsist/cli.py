"""Command-line surface: train, predict, audit, verify.

Standard output carries only data (parameter echoes, predictions, the
audit report, check lines); diagnostics go to standard error.  Exit
codes: 0 on success, 1 on data or solver errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Sequence

from . import get_learner
from .core import (
    InvalidParameter,
    LinearHypothesis,
    MinconsistError,
    ModelFormatError,
    Param,
    ProblemStatement,
    TrainingDataMismatch,
    TrainingSet,
    YKind,
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
from .oracle import CheckBudget, run_all_checks
from .pointwise import pointwise_answers, pointwise_fit


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
    verify.add_argument("--trials", type=int, help="trial count per check")

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
        spec.check(given, name=flags.__getitem__)
    except InvalidParameter as exc:
        parser.error(str(exc))
    return spec.complete(given)


def _infer_y_kind(training: TrainingSet, family: str) -> YKind:
    """The most specific feedback domain the data fits and the family takes.

    Labels are never re-encoded: a 0/1 dataset handed to a learner that
    needs -1/+1 labels is a data error, not a conversion.
    """
    values = set(training.feedbacks)
    candidates = []
    if values <= {0, 1}:
        candidates.append(YKind.BINARY01)
    if values <= {-1, 1}:
        candidates.append(YKind.PM1)
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
    training = dataset.training
    y_kind = _infer_y_kind(training, family)
    model = Model(
        family=family,
        params=params,
        feature_names=dataset.feature_names,
        schema=dataset.schema,
        target_name=dataset.target_name,
        y_kind=y_kind,
    )

    if family_spec(family).pointwise:
        # The parameters were checked as flags and every vector by the loader.
        tree = pointwise_fit(family, params, training)
        total = 0.0
        for _, mu, _ in pointwise_answers(family, params, tree, training, training.features):
            total += mu
        model = replace(
            model, tree=tree, training_hash=dataset.content_hash, total_inconsistency=total
        )
    else:
        problem = ProblemStatement(dataset.schema, y_kind, family, params)
        hypothesis, report = select_hypothesis(get_learner(family), problem, training)
        total = report.total
        model = replace(model, hypothesis=hypothesis, total_inconsistency=total)

    save_model(model, args.out)
    _echo_params(family, params, dataset, total, args.out)
    return 0


def _require_matching_data(model: Model, path: str) -> Dataset:
    dataset = load_dataset_for_model(path, model)
    if model.training_hash is not None and dataset.content_hash != model.training_hash:
        raise TrainingDataMismatch(
            f"{path} does not match the data this model was trained on"
        )
    if model.tree is not None:
        last = max((i for leaf in model.tree.leaves() for i in leaf.case_indices), default=0)
        if last >= dataset.training.m:
            raise ModelFormatError(
                f"the model's tree names case {last + 1}, but {path} has {dataset.training.m}"
            )
    return dataset


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    queries = load_queries(args.queries, model.feature_names, model.schema)

    if family_spec(model.family).pointwise:
        if args.data is None:
            raise TrainingDataMismatch(
                f"{model.family} answers queries from its training data; pass --data"
            )
        dataset = _require_matching_data(model, args.data)
        for value, _, _ in pointwise_answers(
            model.family, model.params, model.tree, dataset.training, queries
        ):
            print(_fmt_prediction(value))
        return 0

    f = model.hypothesis
    if not isinstance(f, LinearHypothesis):
        raise TrainingDataMismatch(f"model for {model.family!r} carries no hypothesis")
    for x0 in queries:
        print(_fmt_prediction(f(x0)))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    dataset = _require_matching_data(model, args.data)
    training = dataset.training

    if family_spec(model.family).pointwise:
        rows = []
        total = 0.0
        answers = pointwise_answers(
            model.family, model.params, model.tree, training, training.features
        )
        for idx, (case, (_, mu, count)) in enumerate(zip(training.cases, answers), start=1):
            total += mu
            rows.append(
                {
                    "case": idx,
                    "x": list(case.x.values),
                    "y": case.y,
                    "mu": mu,
                    "counterparts": count,
                }
            )
        doc = {
            "family": model.family,
            "aggregation": "sum-over-queries",
            "regularizer": 0.0,
            "total_inconsistency": total,
            "rows": _sorted_rows(rows),
        }
    else:
        f = model.hypothesis
        if not isinstance(f, LinearHypothesis):
            raise TrainingDataMismatch(
                f"model for {model.family!r} carries no hypothesis"
            )
        problem = ProblemStatement(model.schema, model.y_kind, model.family, model.params)
        report = get_learner(model.family).report(f, problem, training)
        rows = [
            {
                "case": idx,
                "x": list(entry.case.x.values),
                "y": entry.case.y,
                "mu": entry.mu,
                "counterparts": entry.counterpart_count,
            }
            for idx, entry in enumerate(report.entries, start=1)
        ]
        doc = {
            "family": model.family,
            "aggregation": report.aggregation.value,
            "regularizer": report.regularizer,
            "total_inconsistency": report.total,
            "rows": _sorted_rows(rows),
        }

    print(json.dumps(doc, indent=2))
    return 0


def _sorted_rows(rows: list[dict]) -> list[dict]:
    """Largest inconsistencies first, so candidate outliers lead the report."""
    return sorted(rows, key=lambda row: (-row["mu"], row["case"]))


def cmd_verify(args: argparse.Namespace) -> int:
    budget = CheckBudget() if args.trials is None else CheckBudget.scaled(args.trials)
    results = run_all_checks(budget, seed=args.seed)
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
        if args.trials is not None and args.trials < 1:
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
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early, as ``| head`` does
        # Point stdout at devnull, so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
