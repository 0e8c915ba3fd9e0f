"""Seeded inputs and the per-round command list of each workload.

Every workload is a list of operations, each one ``minconsist`` command
line.  A round runs the whole list once, in order.  The inputs are
written as CSV files (plus sidecar schemas) into a run directory, and
every file name in an operation is relative to that directory.

Linear training samples are the one place where the seed does not draw
fresh values.  The subgradient solver's epoch count is chaotic in the
data: jittering a 100-case sample by 1e-3 moves it between 3,300 and
4,100 epochs, and fresh samples range from 3,900 to 50,000.  A fully
seeded sample would make ``train_s`` measure the seed.  So each linear
sample is a fixed base sample seen through a seed-chosen mirror: every
feature column and, jointly, the feedback and all features may change
sign.  Sign changes are exact in floating point and carry the solver's
whole trajectory into its mirror image, so the epochs and the objective
are the same bits for every seed while the files differ.  Queries,
populations and all pointwise data are drawn afresh from the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("linear-fit", "pointwise-leave-in", "bulk-apply")
DEFAULT_SEED = 1

# Base-sample seeds of the linear fits: fixed, see the module docstring.
LINEAR_BASE_SEEDS = {"svm": 11, "svr": 12, "erm": 13}


@dataclass(frozen=True)
class Op:
    """One command of a round."""

    name: str            # unique within the workload, e.g. "train:svm"
    kind: str            # "train", "predict" or "audit"
    argv: tuple[str, ...]
    model: str           # the model file the command writes or reads


@dataclass
class Fit:
    """What the checks need to know about one trained model."""

    family: str
    params: dict
    features: list[list]              # as the program parses them (ranks for dtree)
    labels: list
    queries: list[list] = field(default_factory=list)
    heldout: "HeldOut | None" = None  # a further file a round audits


@dataclass
class HeldOut:
    """A labelled file, apart from the training data, that a linear model audits."""

    name: str                         # "holdout" or "population"; ends the op name
    features: list[list]
    labels: list


@dataclass
class Plan:
    ops: list[Op]
    fits: dict[str, Fit]              # keyed by model file name
    sizes: dict


# ---------------------------------------------------------------------------
# Sizes


FULL = {
    "linear-fit": {"m": {"svm": 240, "svr": 200, "erm": 220}, "n": 3, "queries": 2000,
                   "holdout": 1500},
    "pointwise-leave-in": {
        "m": {"smoothing": 260, "knn": 260, "dtree": 300, "nb": 100},
        "queries": 150,
    },
    "bulk-apply": {"m": {"erm": 80, "dtree": 120}, "queries": 12000, "population": 12000},
}

SMOKE = {
    "linear-fit": {"m": {"svm": 12, "svr": 12, "erm": 12}, "n": 3, "queries": 10,
                   "holdout": 10},
    "pointwise-leave-in": {
        "m": {"smoothing": 20, "knn": 20, "dtree": 20, "nb": 16},
        "queries": 8,
    },
    "bulk-apply": {"m": {"erm": 12, "dtree": 20}, "queries": 60, "population": 60},
}

LINEAR_PARAMS = {
    "svm": {"w": 0.05},
    "svr": {"epsilon": 0.1, "lambda": 0.05},
    "erm": {},
}
SMOOTHING_PARAMS = {"k": 5, "metric": "manhattan"}
KNN_PARAMS = {"k": 6, "metric": "euclidean"}
DTREE_PARAMS = {"max_depth": 6, "min_leaf": 2}

DTREE_LEVELS = [
    ["low", "mid", "high"],
    ["xs", "s", "m", "l", "xl"],
    ["q1", "q2", "q3", "q4"],
    ["r1", "r2", "r3", "r4", "r5", "r6"],
]
NB_SYMBOLS = [
    [f"a{i}" for i in range(5)],
    [f"b{i}" for i in range(4)],
    [f"c{i}" for i in range(6)],
    [f"d{i}" for i in range(3)],
]


# ---------------------------------------------------------------------------
# Writing files


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _feature_names(n: int) -> list[str]:
    return [f"x{j + 1}" for j in range(n)]


# ---------------------------------------------------------------------------
# Linear samples


def _nonzero_gauss(rng: random.Random, sd: float) -> float:
    while True:
        v = round(rng.gauss(0.0, sd), 4)
        if abs(v) >= 1e-3:
            return v


def linear_base_sample(family: str, m: int, n: int) -> tuple[list[list[float]], list]:
    """The fixed base sample of one linear family (independent of the run seed)."""
    rng = random.Random(LINEAR_BASE_SEEDS[family])
    truth = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    xs: list[list[float]] = []
    ys: list = []
    seen = set()
    while len(xs) < m:
        x = [_nonzero_gauss(rng, 1.0) for _ in range(n)]
        if tuple(x) in seen:
            continue
        seen.add(tuple(x))
        score = sum(t * v for t, v in zip(truth, x))
        if family == "svm":
            ys.append(1 if score + 0.2 + rng.gauss(0.0, 0.5) > 0 else -1)
        elif family == "svr":
            ys.append(_nonzero(round(2.0 * score + 0.5 + rng.gauss(0.0, 0.3), 4)))
        else:
            ys.append(_nonzero(round(score - 0.3 + rng.expovariate(2.0) - 0.5, 4)))
        xs.append(x)
    return xs, ys


def _nonzero(v: float) -> float:
    return v if abs(v) >= 1e-3 else 1e-3


def mirror(xs: list[list[float]], ys: list, rng: random.Random) -> tuple[list, list]:
    """Seed-chosen sign flips that leave the solver's trajectory mirrored exactly."""
    n = len(xs[0])
    signs = [rng.choice((-1.0, 1.0)) for _ in range(n)]
    g = rng.choice((-1, 1))
    mx = [[g * s * v for s, v in zip(signs, x)] for x in xs]
    my = [g * y for y in ys]
    return mx, my


def gauss_rows(rng: random.Random, count: int, n: int, sd: float) -> list[list[float]]:
    rows = []
    seen = set()
    while len(rows) < count:
        x = [_nonzero_gauss(rng, sd) for _ in range(n)]
        if tuple(x) not in seen:
            seen.add(tuple(x))
            rows.append(x)
    return rows


def _linear_train_args(family: str, data: str, out: str) -> tuple[str, ...]:
    argv = ["train", "--learner", family, "--data", data, "--out", out]
    params = LINEAR_PARAMS[family]
    if family == "svm":
        argv += ["--w", repr(params["w"])]
    elif family == "svr":
        argv += ["--epsilon", repr(params["epsilon"]), "--lambda", repr(params["lambda"])]
    return tuple(argv)


# ---------------------------------------------------------------------------
# Pointwise samples


def _pointwise_train_args(family, data, model, params, schema=None) -> tuple[str, ...]:
    argv = ["train", "--learner", family, "--data", data, "--out", model]
    if schema is not None:
        argv += ["--schema", schema]
    for key, value in params.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return tuple(argv)


def smoothing_sample(rng: random.Random, m: int) -> tuple[list, list]:
    xs, ys, seen = [], [], set()
    while len(xs) < m:
        x = [round(rng.uniform(0.0, 10.0), 2), round(rng.uniform(0.0, 10.0), 2)]
        if tuple(x) in seen:
            continue
        seen.add(tuple(x))
        xs.append(x)
        ys.append(round(x[0] * 0.5 - x[1] * 0.3 + rng.gauss(0.0, 0.5), 3))
    return xs, ys


def grid_points(rng: random.Random, count: int, distinct: bool) -> list[list[int]]:
    """Points on the integer cube {0..9}^3; integer distances make ties common."""
    pts, seen = [], set()
    while len(pts) < count:
        x = [rng.randrange(10) for _ in range(3)]
        if distinct and tuple(x) in seen:
            continue
        seen.add(tuple(x))
        pts.append(x)
    return pts


def knn_labels(rng: random.Random, xs: list[list[int]]) -> list[int]:
    return [1 if x[0] + x[1] - x[2] + rng.gauss(0.0, 2.0) > 4.5 else 0 for x in xs]


def ordinal_points(rng: random.Random, count: int, distinct: bool) -> list[list[int]]:
    pts, seen = [], set()
    while len(pts) < count:
        x = [rng.randrange(len(levels)) for levels in DTREE_LEVELS]
        if distinct and tuple(x) in seen:
            continue
        seen.add(tuple(x))
        pts.append(x)
    return pts


def dtree_labels(rng: random.Random, xs: list[list[int]]) -> list[int]:
    out = []
    for x in xs:
        y = 1 if (x[0] >= 1 and x[1] >= 2) or x[3] >= 4 else 0
        out.append(1 - y if rng.random() < 0.15 else y)
    return out


def nominal_points(rng: random.Random, count: int, distinct: bool) -> list[list[str]]:
    pts, seen = [], set()
    while len(pts) < count:
        x = [rng.choice(symbols) for symbols in NB_SYMBOLS]
        if distinct and tuple(x) in seen:
            continue
        seen.add(tuple(x))
        pts.append(x)
    return pts


def nb_labels(rng: random.Random, xs: list[list[str]]) -> list[int]:
    weight = {"a0": 1, "a1": 1, "b2": 1, "c0": 1, "c5": 1, "d1": 1}
    return [
        1 if sum(weight.get(v, 0) for v in x) + rng.gauss(0.0, 0.6) >= 1.0 else 0
        for x in xs
    ]


def _ordinal_rows(xs: list[list[int]]) -> list[list[str]]:
    return [[DTREE_LEVELS[j][v] for j, v in enumerate(x)] for x in xs]


def _write_dtree_schema(path: Path) -> None:
    doc = {
        "columns": {
            name: {"kind": "ordinal", "levels": levels}
            for name, levels in zip(_feature_names(len(DTREE_LEVELS)), DTREE_LEVELS)
        },
        "target": "y",
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _write_nb_schema(path: Path) -> None:
    doc = {
        "columns": {
            name: {"kind": "nominal", "symbols": symbols}
            for name, symbols in zip(_feature_names(len(NB_SYMBOLS)), NB_SYMBOLS)
        },
        "target": "y",
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Workload plans


def build_plan(workload: str, seed: int, smoke: bool, run_dir: Path) -> Plan:
    """Write the workload's inputs into ``run_dir`` and list a round's commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = (SMOKE if smoke else FULL)[workload]
    rng = random.Random(f"{workload}:{seed}")
    make_plan = {
        "linear-fit": _plan_linear_fit,
        "pointwise-leave-in": _plan_pointwise,
        "bulk-apply": _plan_bulk,
    }[workload]
    ops, fits = make_plan(rng, sizes, run_dir)
    return Plan(ops, fits, sizes)


def heldout_labels(rng: random.Random, family: str, xs: list[list[float]]) -> list:
    """Labels of a held-out file: any labels the family accepts will do."""
    if family == "svm":
        return [1 if x[0] - x[1] + rng.gauss(0.0, 0.5) > 0 else -1 for x in xs]
    return [_nonzero(round(0.8 * x[0] - 0.5 * x[1] + 0.2 * x[2] + rng.gauss(0.0, 0.4), 4))
            for x in xs]


def _plan_linear_fit(rng, sizes, run_dir):
    n = sizes["n"]
    names = _feature_names(n)
    trains, predicts, audits, fits = [], [], [], {}
    for family in ("svm", "svr", "erm"):
        xs, ys = mirror(*linear_base_sample(family, sizes["m"][family], n), rng)
        data, qfile, model = f"{family}.csv", f"{family}.queries.csv", f"{family}.model.json"
        hfile = f"{family}.holdout.csv"
        write_csv(run_dir / data, names + ["y"], [x + [y] for x, y in zip(xs, ys)])
        queries = gauss_rows(rng, sizes["queries"], n, 1.5)
        write_csv(run_dir / qfile, names, queries)
        hxs = gauss_rows(rng, sizes["holdout"], n, 1.0)
        hys = heldout_labels(rng, family, hxs)
        write_csv(run_dir / hfile, names + ["y"], [x + [y] for x, y in zip(hxs, hys)])
        fits[model] = Fit(family, dict(LINEAR_PARAMS[family]), xs, ys,
                          queries=queries,
                          heldout=HeldOut("holdout", hxs, hys))
        trains.append(Op(f"train:{family}", "train", _linear_train_args(family, data, model), model))
        predicts.append(Op(f"predict:{family}", "predict",
                           ("predict", "--model", model, "--queries", qfile), model))
        audits.append(Op(f"audit:{family}", "audit",
                         ("audit", "--model", model, "--data", data), model))
        audits.append(Op(f"audit:{family}:holdout", "audit",
                         ("audit", "--model", model, "--data", hfile), model))
    return trains + predicts + audits, fits


def _plan_pointwise(rng, sizes, run_dir):
    q = sizes["queries"]
    ops, fits = [], {}

    def add(family, xs, ys, queries, header, rows, qrows, params, schema=None):
        data, qfile, model = f"{family}.csv", f"{family}.queries.csv", f"{family}.model.json"
        write_csv(run_dir / data, header + ["y"], [r + [y] for r, y in zip(rows, ys)])
        write_csv(run_dir / qfile, header, qrows)
        fits[model] = Fit(family, dict(params), xs, ys, queries=queries)
        ops.append(Op(f"train:{family}", "train",
                      _pointwise_train_args(family, data, model, params, schema), model))
        ops.append(Op(f"predict:{family}", "predict",
                      ("predict", "--model", model, "--queries", qfile, "--data", data), model))
        ops.append(Op(f"audit:{family}", "audit",
                      ("audit", "--model", model, "--data", data), model))

    xs, ys = smoothing_sample(rng, sizes["m"]["smoothing"])
    qs = [[round(rng.uniform(0.0, 10.0), 2), round(rng.uniform(0.0, 10.0), 2)]
          for _ in range(q)]
    add("smoothing", xs, ys, qs, ["x1", "x2"], xs, qs, SMOOTHING_PARAMS)

    xs = grid_points(rng, sizes["m"]["knn"], distinct=True)
    qs = grid_points(rng, q, distinct=False)
    add("knn", xs, knn_labels(rng, xs), qs, ["x1", "x2", "x3"], xs, qs, KNN_PARAMS)

    xs = ordinal_points(rng, sizes["m"]["dtree"], distinct=True)
    qs = ordinal_points(rng, q, distinct=False)
    _write_dtree_schema(run_dir / "dtree.schema.json")
    add("dtree", xs, dtree_labels(rng, xs), qs, _feature_names(4), _ordinal_rows(xs),
        _ordinal_rows(qs), DTREE_PARAMS, schema="dtree.schema.json")

    xs = nominal_points(rng, sizes["m"]["nb"], distinct=True)
    qs = nominal_points(rng, q, distinct=False)
    _write_nb_schema(run_dir / "nb.schema.json")
    add("nb", xs, nb_labels(rng, xs), qs, _feature_names(4), xs, qs, {},
        schema="nb.schema.json")
    return ops, fits


def _plan_bulk(rng, sizes, run_dir):
    n = 3
    names = _feature_names(n)
    q = sizes["queries"]

    xs, ys = mirror(*linear_base_sample("erm", sizes["m"]["erm"], n), rng)
    write_csv(run_dir / "erm.csv", names + ["y"], [x + [y] for x, y in zip(xs, ys)])
    queries = gauss_rows(rng, q, n, 1.5)
    write_csv(run_dir / "erm.queries.csv", names, queries)
    population = gauss_rows(rng, sizes["population"], n, 1.2)
    pop_labels = heldout_labels(rng, "erm", population)
    write_csv(run_dir / "population.csv", names + ["y"],
              [x + [y] for x, y in zip(population, pop_labels)])
    erm = Fit("erm", {}, xs, ys, queries=queries,
              heldout=HeldOut("population", population, pop_labels))

    dxs = ordinal_points(rng, sizes["m"]["dtree"], distinct=True)
    dys = dtree_labels(rng, dxs)
    dqs = ordinal_points(rng, q, distinct=False)
    dnames = _feature_names(4)
    _write_dtree_schema(run_dir / "dtree.schema.json")
    write_csv(run_dir / "dtree.csv", dnames + ["y"],
              [r + [y] for r, y in zip(_ordinal_rows(dxs), dys)])
    write_csv(run_dir / "dtree.queries.csv", dnames, _ordinal_rows(dqs))
    dtree = Fit("dtree", dict(DTREE_PARAMS), dxs, dys, queries=dqs)

    dtree_train = _pointwise_train_args("dtree", "dtree.csv", "dtree.model.json",
                                        DTREE_PARAMS, "dtree.schema.json")
    ops = [
        Op("train:erm", "train", _linear_train_args("erm", "erm.csv", "erm.model.json"),
           "erm.model.json"),
        Op("train:dtree", "train", dtree_train, "dtree.model.json"),
        Op("predict:erm", "predict",
           ("predict", "--model", "erm.model.json", "--queries", "erm.queries.csv"),
           "erm.model.json"),
        Op("predict:dtree", "predict",
           ("predict", "--model", "dtree.model.json", "--queries", "dtree.queries.csv",
            "--data", "dtree.csv"), "dtree.model.json"),
        Op("audit:erm:population", "audit",
           ("audit", "--model", "erm.model.json", "--data", "population.csv"),
           "erm.model.json"),
    ]
    return ops, {"erm.model.json": erm, "dtree.model.json": dtree}
