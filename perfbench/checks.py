"""Checks every output of a run against computations made apart from minconsist.

Nothing here imports the program.  Linear optima come from a linear
program solved by scipy's HiGHS: exactly for the piecewise-linear
objectives (``erm``), and by Kelley's cutting planes on the ``||b||^2``
term for the regularized ones (``svm``, ``svr``), which brackets the
optimum between the relaxation's value (a lower bound) and the true
objective at the relaxation's solution (an upper bound).  Pointwise
answers are recomputed by brute force with the program's own fold order,
so they must agree to the last bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

LP_TOL = 1e-9  # relative slack allowed for the LP solver's own tolerances


class Checker:
    def __init__(self, run_dir: Path, plan):
        self.run_dir = run_dir
        self.plan = plan
        self.errors: list[str] = []
        self.ratios: list[float] = []   # Λ / least Λ, one per fit whose least Λ > 0
        self.details: dict[str, dict] = {}
        self.op_names = {op.name for op in plan.ops}

    def fail(self, message: str) -> None:
        if len(self.errors) < 50:
            self.errors.append(message)

    def output(self, op_name: str) -> str | None:
        """The first round's stdout of an operation, or None if the workload has none."""
        if op_name not in self.op_names:
            return None
        path = self.run_dir / (op_name.replace(":", "_") + ".out")
        if not path.exists():
            self.fail(f"{op_name}: no output recorded")
            return None
        return path.read_text(encoding="utf-8")

    def run(self) -> None:
        for model_file, fit in self.plan.fits.items():
            model_path = self.run_dir / model_file
            if not model_path.exists():
                self.fail(f"{model_file}: model file missing")
                continue
            model = json.loads(model_path.read_text(encoding="utf-8"))
            if fit.family in ("svm", "svr", "erm"):
                self.check_linear(fit, model)
            else:
                self.check_pointwise(fit, model)

    # -- shared pieces -------------------------------------------------------

    def train_lambda(self, fit, model) -> float | None:
        text = self.output(f"train:{fit.family}")
        if text is None:
            return None
        echo = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        if echo.get("family") != fit.family:
            self.fail(f"train:{fit.family}: echo names family {echo.get('family')!r}")
        if echo.get("m") != str(len(fit.features)) or echo.get("n") != str(len(fit.features[0])):
            self.fail(f"train:{fit.family}: echo m/n {echo.get('m')}/{echo.get('n')}")
        lam = float(echo["total_inconsistency"])
        if model.get("total_inconsistency") != lam:
            self.fail(f"train:{fit.family}: model file total differs from the echo")
        return lam

    def check_audit(self, op_name, text, features, labels, mus, counts, total, train_lam):
        doc = json.loads(text)
        rows = doc["rows"]
        if len(rows) != len(features):
            self.fail(f"{op_name}: {len(rows)} rows for {len(features)} cases")
            return
        keys = [(-row["mu"], row["case"]) for row in rows]
        if keys != sorted(keys):
            self.fail(f"{op_name}: rows not sorted by descending mu, then case")
        seen = set()
        for row in rows:
            i = row["case"] - 1
            seen.add(i)
            if list(row["x"]) != list(features[i]) or row["y"] != labels[i]:
                self.fail(f"{op_name}: case {i + 1} carries other x or y")
            if row["mu"] != mus[i]:
                self.fail(f"{op_name}: case {i + 1} mu {row['mu']!r}, expected {mus[i]!r}")
            if row["counterparts"] != counts[i]:
                self.fail(f"{op_name}: case {i + 1} counterparts {row['counterparts']!r}, "
                          f"expected {counts[i]!r}")
        if len(seen) != len(features):
            self.fail(f"{op_name}: case numbers repeat")
        if doc["total_inconsistency"] != total:
            self.fail(f"{op_name}: total {doc['total_inconsistency']!r}, own fold {total!r}")
        if train_lam is not None and doc["total_inconsistency"] != train_lam:
            self.fail(f"{op_name}: total {doc['total_inconsistency']!r}, train said {train_lam!r}")

    # -- linear --------------------------------------------------------------

    def check_linear(self, fit, model) -> None:
        family = fit.family
        h = model["hypothesis"]
        b, a = h["b"], h["a"]
        lam = self.train_lambda(fit, model)

        def f(x):
            s = 0.0
            for bj, xj in zip(b, x):
                s += bj * xj
            return s + a

        reg = 0.0
        norm = 0.0
        for bj in b:
            norm += bj * bj
        if family == "svm":
            reg = fit.params["w"] * norm
        elif family == "svr":
            reg = fit.params["lambda"] * norm

        def mus_of(xs, ys):
            out = []
            for x, y in zip(xs, ys):
                fx = f(x)
                if family == "svm":
                    margin = y * fx
                    out.append(0.0 if margin >= 1.0 else abs(margin - 1.0))
                elif family == "svr":
                    r = y - fx
                    eps = fit.params["epsilon"]
                    out.append(0.0 if abs(r) < eps else abs(r) - eps)
                else:
                    out.append(abs(y - fx))
            return out

        def fold(mus):
            total = 0.0
            for mu in mus:
                total += mu
            if family == "svm":
                total /= len(mus)
            return total + reg

        train_mus = mus_of(fit.features, fit.labels)
        own_lambda = fold(train_mus)
        if lam is not None:
            if lam != own_lambda:
                self.fail(f"train:{family}: Λ {lam!r}, own fold at the saved model {own_lambda!r}")
            lower, upper = linear_optimum(family, fit.features, fit.labels, fit.params)
            slack = LP_TOL * max(1.0, abs(upper))
            if lam < lower - slack:
                self.fail(f"train:{family}: Λ {lam!r} below the optimum's lower bound {lower!r}")
            self.ratios.append(lam / upper)
            self.details[f"train:{family}"] = {
                "lambda": lam, "optimum_lower": lower, "optimum_upper": upper,
                "ratio": lam / upper,
            }

        text = self.output(f"predict:{family}")
        if text is not None:
            lines = text.splitlines()
            if len(lines) != len(fit.queries):
                self.fail(f"predict:{family}: {len(lines)} answers for {len(fit.queries)} queries")
            for i, (line, x) in enumerate(zip(lines, fit.queries)):
                if float(line) != f(x):
                    self.fail(f"predict:{family}: query {i + 1} answer {line}, b·x + a = {f(x)!r}")
                    break

        count = None if family == "svm" else 1
        text = self.output(f"audit:{family}")
        if text is not None:
            self.check_audit(f"audit:{family}", text, fit.features, fit.labels, train_mus,
                             [count] * len(train_mus), own_lambda, lam)
        if fit.heldout is not None:
            op_name = f"audit:{family}:{fit.heldout.name}"
            text = self.output(op_name)
            if text is not None:
                mus = mus_of(fit.heldout.features, fit.heldout.labels)
                self.check_audit(op_name, text, fit.heldout.features, fit.heldout.labels,
                                 mus, [count] * len(mus), fold(mus), None)

    # -- pointwise -----------------------------------------------------------

    def check_pointwise(self, fit, model) -> None:
        family = fit.family
        if family in ("smoothing", "knn"):
            answer = NeighborhoodBrute(fit).answer
        elif family == "dtree":
            answer = TreeBrute(fit, model, self).answer
        else:
            answer = NbBrute(fit).answer
        lam = self.train_lambda(fit, model)

        # Each brute-force mu is the smaller of the two candidates' (or the
        # smoothing mean's 0), so their fold is the least leave-in Λ.
        mus, counts = [], []
        for x in fit.features:
            _, mu, count = answer(x)
            mus.append(mu)
            counts.append(count)
        least = 0.0
        for mu in mus:
            least += mu
        if lam is not None:
            if lam != least:
                self.fail(f"train:{family}: Λ {lam!r}, brute-force least leave-in Λ {least!r}")
            elif least > 0.0:
                self.ratios.append(lam / least)
            self.details[f"train:{family}"] = {"lambda": lam, "least": least}

        text = self.output(f"predict:{family}")
        if text is not None:
            lines = text.splitlines()
            if len(lines) != len(fit.queries):
                self.fail(f"predict:{family}: {len(lines)} answers for {len(fit.queries)} queries")
            for i, (line, x) in enumerate(zip(lines, fit.queries)):
                expected = answer(x)[0]
                if float(line) != expected:
                    self.fail(f"predict:{family}: query {i + 1} answer {line}, expected {expected!r}")
                    break

        text = self.output(f"audit:{family}")
        if text is not None:
            self.check_audit(f"audit:{family}", text, fit.features, fit.labels, mus, counts,
                             least, lam)


def _two_label_contest(mean: float) -> tuple[int, float]:
    """The argmin over the constants 0 and 1, 0 first: a split vote goes to 0."""
    mu0, mu1 = abs(0 - mean), abs(1 - mean)
    return (1, mu1) if mu1 < mu0 else (0, mu0)


def _py_mean(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


class NeighborhoodBrute:
    """Every distance, then the k nearest with ties at the k-th distance kept."""

    def __init__(self, fit):
        self.family = fit.family
        self.k = fit.params["k"]
        self.metric = fit.params["metric"]
        self.X = np.array(fit.features, dtype=np.float64)
        self.labels = list(fit.labels)
        self.index = np.arange(len(self.labels))

    def answer(self, x0):
        acc = np.zeros(len(self.labels))
        for j, v in enumerate(x0):
            d = self.X[:, j] - float(v)
            acc = acc + (d * d if self.metric == "euclidean" else np.abs(d))
        dist = np.sqrt(acc) if self.metric == "euclidean" else acc
        order = np.lexsort((self.index, dist))
        cutoff = dist[order[self.k - 1]]
        chosen = np.nonzero(dist <= cutoff)[0]
        mean = _py_mean([self.labels[i] for i in chosen])
        if self.family == "smoothing":
            return mean, abs(mean - mean), len(chosen)
        label, mu = _two_label_contest(mean)
        return label, mu, len(chosen)


class TreeBrute:
    """Routes through the saved tree; checks each training case lands in its own leaf."""

    def __init__(self, fit, model, checker):
        self.root = model["tree"]
        self.labels = list(fit.labels)
        leaves = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if "leaf" in node:
                leaves.append(node)
            else:
                stack.extend((node["left"], node["right"]))
        listed = sorted(i for leaf in leaves for i in leaf["cases"])
        if listed != list(range(len(fit.features))):
            checker.fail("dtree: leaves do not partition the training cases")
        for i, x in enumerate(fit.features):
            if i not in self.route(x)["cases"]:
                checker.fail(f"dtree: training case {i + 1} routes to a leaf that omits it")
                break

    def route(self, x):
        node = self.root
        while "leaf" not in node:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return node

    def answer(self, x0):
        cases = self.route(x0)["cases"]
        label, mu = _two_label_contest(_py_mean([self.labels[i] for i in cases]))
        return label, mu, len(cases)


class NbBrute:
    """Per-feature value counts; the product of disagreeing fractions, 0 on a tie."""

    def __init__(self, fit):
        self.tables = []
        for j in range(len(fit.features[0])):
            table: dict[str, list[int]] = {}
            for x, y in zip(fit.features, fit.labels):
                entry = table.setdefault(x[j], [0, 0])
                entry[y] += 1
            self.tables.append(table)

    def answer(self, x0):
        products = []
        for label in (0, 1):
            total = 1.0
            for table, v in zip(self.tables, x0):
                zeros, ones = table.get(v, [0, 0])
                matches = zeros + ones
                disagree = ones if label == 0 else zeros
                total *= 0.5 if matches == 0 else disagree / matches
            products.append(total)
        count = sum(sum(table.get(v, [0, 0])) for table, v in zip(self.tables, x0))
        label = 1 if products[1] < products[0] else 0
        return label, products[label], count


# ---------------------------------------------------------------------------
# Linear optima


def linear_optimum(family: str, features, labels, params) -> tuple[float, float]:
    """(lower, upper) bounds on the least Λ of a linear family.

    Variables are b, a, per-case losses t >= 0 and, with a regularizer,
    s >= ||b||^2, which is relaxed to tangent cuts added one per round
    (Kelley) until the bounds meet.
    """
    X = np.array(features, dtype=np.float64)
    y = np.array(labels, dtype=np.float64)
    m, n = X.shape
    if family == "svm":
        reg, eps, scale = params["w"], None, 1.0 / m
    elif family == "svr":
        reg, eps, scale = params["lambda"], params["epsilon"], 1.0
    else:
        reg, eps, scale = 0.0, 0.0, 1.0

    def objective(b, a):
        fx = X @ b + a
        if family == "svm":
            loss = np.maximum(0.0, 1.0 - y * fx).mean()
        else:
            loss = np.maximum(0.0, np.abs(y - fx) - eps).sum()
        return loss + reg * float(b @ b)

    nv = n + 1 + m + 1
    c = np.zeros(nv)
    c[n + 1:n + 1 + m] = scale
    c[-1] = reg
    rows, rhs = [], []
    eye = np.eye(m)
    if family == "svm":
        # t_i >= 1 - y_i (b·x_i + a)
        rows.append(np.hstack([-y[:, None] * X, -y[:, None], -eye, np.zeros((m, 1))]))
        rhs.append(-np.ones(m))
    else:
        # t_i >= ±(y_i - b·x_i - a) - eps
        rows.append(np.hstack([-X, -np.ones((m, 1)), -eye, np.zeros((m, 1))]))
        rhs.append(eps - y)
        rows.append(np.hstack([X, np.ones((m, 1)), -eye, np.zeros((m, 1))]))
        rhs.append(eps + y)
    A = np.vstack(rows)
    ub = np.concatenate(rhs)
    if reg > 0:
        # reg ||b||^2 <= objective(0, 0) at the optimum bounds every |b_j|.
        box = math.sqrt(objective(np.zeros(n), 0.0) / reg)
        bounds = [(-box, box)] * n + [(None, None)] + [(0, None)] * m + [(0, None)]
    else:
        bounds = [(None, None)] * (n + 1) + [(0, None)] * m + [(0, 0)]
    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    upper = math.inf
    lower = -math.inf
    cuts: list[np.ndarray] = []
    for _ in range(400):
        A_all = np.vstack([A] + [cut[None, :-1] for cut in cuts]) if cuts else A
        ub_all = np.concatenate([ub, [cut[-1] for cut in cuts]]) if cuts else ub
        res = linprog(c, A_ub=A_all, b_ub=ub_all, bounds=bounds, method="highs",
                      options=options)
        if res.status != 0:
            raise RuntimeError(f"reference LP failed: {res.message}")
        lower = res.fun
        b, a = res.x[:n], res.x[n]
        upper = min(upper, objective(b, a))
        if reg == 0 or upper - lower <= 1e-11 * max(1.0, upper):
            break
        cut = np.zeros(nv + 1)
        cut[:n] = 2.0 * b        # s >= 2 b_k·b - ||b_k||^2
        cut[nv - 1] = -1.0
        cut[-1] = float(b @ b)
        cuts.append(cut)
    return lower, upper
