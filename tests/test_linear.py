"""Margin classification, tube regression, and the exact solver."""

import importlib.util
import itertools
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from minconsist import linear
from minconsist import (
    Aggregation,
    Case,
    FeatureColumns,
    FeatureVector,
    IncompatibleFamily,
    InfeasibleSlack,
    InvalidParameter,
    LinearHypothesis,
    SchemaMismatch,
    SolverDiverged,
    SvmParams,
    SvrParams,
    erm_total_inconsistency,
    select_hypothesis,
    slack_feasible,
    squared_weight_norm,
    svm_case_inconsistency,
    svm_constrained_objective,
    svm_objective,
    svm_objective_subgradient,
    svm_objectives_agree,
    svm_report,
    svm_slack,
    svm_slack_is_feasible,
    svm_slack_is_minimal,
    svm_solve,
    svr_case_inconsistency,
    svr_objective,
    svr_objective_subgradient,
    svr_report,
    svr_solve,
    training_set,
    v_epsilon,
)
from minconsist.core import family_spec
from minconsist.oracle import random_feasible_slack, random_linear_instance


def vec(*values):
    return FeatureVector.of(*values)


UNIT = LinearHypothesis((1.0,), 0.0)


class TestParams:
    def test_svm_weight_positive(self):
        SvmParams(0.01)
        with pytest.raises(InvalidParameter):
            SvmParams(0.0)
        with pytest.raises(InvalidParameter):
            SvmParams(-1.0)

    def test_svr_ranges(self):
        SvrParams(0.0, 0.0)
        with pytest.raises(InvalidParameter):
            SvrParams(-0.1, 0.0)
        with pytest.raises(InvalidParameter):
            SvrParams(0.0, -0.1)

    def test_halfspace_label(self):
        with pytest.raises(InvalidParameter, match="^half-space label must be -1 or 1, got 0$"):
            svm_case_inconsistency(Case(vec(1.0), 0), UNIT)


class TestMarginGeometry:
    def test_margin_distance_examples(self):
        # Outside its half-space a case scores |y f(x) - 1|.
        assert svm_case_inconsistency(Case(vec(1.0), 1), UNIT) == 0.0
        assert svm_case_inconsistency(Case(vec(0.5), 1), UNIT) == 0.5
        assert svm_case_inconsistency(Case(vec(3.0), -1), UNIT) == 4.0
        assert svm_case_inconsistency(Case(vec(-1.0), 1), UNIT) == 2.0
        assert svm_case_inconsistency(Case(vec(0.999), 1), UNIT) == abs(0.999 - 1.0)

    def test_case_inconsistency_zero_inside(self):
        assert svm_case_inconsistency(Case(vec(2.0), 1), UNIT) == 0.0
        assert svm_case_inconsistency(Case(vec(1.0), 1), UNIT) == 0.0

    def test_case_inconsistency_outside(self):
        assert svm_case_inconsistency(Case(vec(-0.1), 1), UNIT) == 1.1
        assert svm_case_inconsistency(Case(vec(0.5), 1), UNIT) == 0.5


class TestSlack:
    def test_closed_form(self):
        T = training_set([((2.0,), 1)])
        assert tuple(svm_slack(UNIT, T)) == (0.0,)
        T = training_set([((0.5,), 1), ((2.0,), 1)])
        assert tuple(svm_slack(UNIT, T)) == (0.5, 0.0)

    def test_slack_matches_case_inconsistency_exactly(self):
        for seed in range(200):
            f, T = random_linear_instance(seed)
            zeta = svm_slack(f, T)
            mus = [svm_case_inconsistency(case, f) for case in T.cases]
            assert all(z == mu for z, mu in zip(zeta, mus))

    def test_determined_slack_is_feasible(self):
        for seed in range(200):
            f, T = random_linear_instance(seed)
            assert svm_slack_is_feasible(f, T)

    def test_lowering_a_slack_component_breaks_feasibility(self):
        T = training_set([((0.5,), 1), ((2.0,), 1)])
        zeta = svm_slack(UNIT, T)
        assert slack_feasible(UNIT, T, zeta)
        lowered = (zeta[0] - 1e-9, zeta[1])
        assert not slack_feasible(UNIT, T, lowered)

    def test_no_feasible_slack_undercuts_the_determined_one(self):
        for seed in range(100):
            f, T = random_linear_instance(seed)
            zeta = random_feasible_slack(f, T, seed=seed + 10_000)
            assert svm_slack_is_minimal(f, T, zeta)

    def test_minimality_check_requires_feasible_input(self):
        T = training_set([((0.5,), 1)])
        with pytest.raises(InfeasibleSlack):
            svm_slack_is_minimal(UNIT, T, (0.0,))


class TestSvmObjective:
    def test_worked_example(self):
        T = training_set([((2.0,), 1)])
        assert svm_objective(UNIT, T, SvmParams(0.5)) == 0.5

    def test_intercept_is_not_regularized(self):
        T = training_set([((2.0,), 1), ((-2.0,), -1)])
        with_flat = LinearHypothesis((1.0,), 0.0)
        with_lift = LinearHypothesis((1.0,), 0.5)
        p = SvmParams(1.0)
        assert squared_weight_norm(with_flat) == squared_weight_norm(with_lift) == 1.0
        # Regularizer identical; only the slack part may move.
        assert svm_objective(with_lift, T, p) >= svm_objective(with_flat, T, p)

    def test_constrained_form_agrees_at_determined_slack(self):
        for seed in range(100):
            f, T = random_linear_instance(seed)
            p = SvmParams(0.3)
            assert svm_objectives_agree(f, T, p)
            zeta = svm_slack(f, T)
            assert svm_constrained_objective(f, T, zeta, p) == svm_objective(f, T, p)

    def test_constrained_form_rejects_infeasible_slack(self):
        T = training_set([((0.5,), 1)])
        with pytest.raises(InfeasibleSlack):
            svm_constrained_objective(UNIT, T, (0.0,), SvmParams(1.0))

    def test_report_totals_the_objective(self):
        f, T = random_linear_instance(3)
        p = SvmParams(0.7)
        report = svm_report(f, T, p)
        assert report.aggregation is Aggregation.MEAN
        assert report.regularizer == p.w * squared_weight_norm(f)
        assert report.total == svm_objective(f, T, p)
        assert report.mus == tuple(svm_case_inconsistency(case, f) for case in T.cases)
        assert report.counts == (None,) * T.m

    def test_labels_must_be_signed(self):
        T = training_set([((1.0,), 1), ((2.0,), 0)])
        with pytest.raises(SchemaMismatch):
            svm_report(UNIT, T, SvmParams(1.0))


class TestTube:
    def test_v_epsilon(self):
        assert v_epsilon(-2.0, 0.5) == 1.5
        assert v_epsilon(0.3, 0.5) == 0.0
        assert v_epsilon(0.5, 0.5) == 0.0
        assert v_epsilon(0.0, 0.0) == 0.0

    def test_case_inconsistency(self):
        p = SvrParams(0.5, 0.0)
        assert svr_case_inconsistency(Case(vec(1.0), 3.0), UNIT, p) == 1.5
        assert svr_case_inconsistency(Case(vec(1.0), 1.2), UNIT, p) == 0.0

    def test_zero_tube_equals_absolute_loss(self):
        rng = np.random.default_rng(21)
        instances = [  # ||b||^2 overflows while every residual is 0
            (LinearHypothesis((1e200,), 1.0), training_set([((0.0,), 1.0), ((1e-200,), 2.0)])),
        ]
        for _ in range(100):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 10))
            xs = rng.uniform(-3, 3, size=(m, n))
            while len({tuple(r) for r in xs.round(9)}) < m:
                xs = rng.uniform(-3, 3, size=(m, n))
            ys = rng.uniform(-3, 3, size=m)
            T = training_set(
                [(tuple(map(float, x)), float(y)) for x, y in zip(xs, ys)]
            )
            f = LinearHypothesis(tuple(map(float, rng.uniform(-2, 2, n))),
                                 float(rng.uniform(-2, 2)))
            instances.append((f, T))
        zero = SvrParams(0.0, 0.0)
        for f, T in instances:
            total = erm_total_inconsistency(f, T)
            assert svr_objective(f, T, zero) == total == svr_report(f, T, zero).total

    def test_report_structure(self):
        T = training_set([((1.0,), 2.0), ((2.0,), 4.0)])
        report = svr_report(UNIT, T, SvrParams(0.1, 0.01))
        assert report.aggregation is Aggregation.SUM
        assert report.counts == (1, 1)
        assert report.total == svr_objective(UNIT, T, SvrParams(0.1, 0.01))


class TestSubgradients:
    def test_zero_contribution_at_margin_boundary(self):
        T = training_set([((1.0,), 1)])  # y f(x) exactly 1
        gb, ga = svm_objective_subgradient(UNIT, T, SvmParams(1.0))
        assert gb == (2.0,)  # only the regularizer term
        assert ga == 0.0

    def test_zero_contribution_on_tube_boundary(self):
        T = training_set([((1.0,), 1.5)])  # |residual| exactly epsilon
        gb, ga = svr_objective_subgradient(UNIT, T, SvrParams(0.5, 0.0))
        assert gb == (0.0,)
        assert ga == 0.0

    def test_matches_finite_differences_off_kinks(self):
        rng = np.random.default_rng(17)
        step = 1e-6
        checked = 0
        while checked < 20:
            f, T = random_linear_instance(int(rng.integers(0, 10_000)))
            p = SvmParams(0.4)
            if any(abs(c.y * f(c.x) - 1.0) < 1e-3 for c in T.cases):
                continue
            gb, ga = svm_objective_subgradient(f, T, p)
            grad = np.array([*gb, ga])
            fd = np.empty_like(grad)
            theta = np.array([*f.b, f.a])
            for j in range(len(theta)):
                up, dn = theta.copy(), theta.copy()
                up[j] += step
                dn[j] -= step
                fu = svm_objective(LinearHypothesis(tuple(up[:-1]), up[-1]), T, p)
                fd_ = svm_objective(LinearHypothesis(tuple(dn[:-1]), dn[-1]), T, p)
                fd[j] = (fu - fd_) / (2 * step)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5
            checked += 1


class TestSolver:
    def test_separable_instance_reaches_a_wide_margin(self):
        T = training_set([((2.0,), 1), ((-2.0,), -1)])
        f, report = svm_solve(T, SvmParams(0.5))
        assert report.total == svm_objective(f, T, SvmParams(0.5))
        # Optimal coefficient for this instance is b = 0.5, a = 0.
        assert abs(f.b[0] - 0.5) < 1e-12
        assert abs(f.a) < 1e-12

    def test_deterministic(self):
        T = training_set([((2.0, 0.0), 1), ((-1.0, 1.0), -1), ((0.5, -2.0), 1)])
        f1, r1 = svm_solve(T, SvmParams(0.2))
        f2, r2 = svm_solve(T, SvmParams(0.2))
        assert f1.b == f2.b and f1.a == f2.a and r1.total == r2.total

    def test_svr_interpolates_clean_line(self):
        xs = [(-1.0,), (0.0,), (1.0,), (2.0,)]
        T = training_set([(x, 3.0 * x[0] + 1.0) for x in xs])
        f, _ = svr_solve(T, SvrParams(0.0, 0.0))
        assert abs(f.b[0] - 3.0) < 1e-12
        assert abs(f.a - 1.0) < 1e-12

    @pytest.mark.parametrize("pairs", [
        # No line fits all three: the second difference of the residuals is 4e308.
        [((0.0,), 1e308), ((1.0,), -1e308), ((2.0,), 1e308)],
        # The one interpolating line has slope -2e308.
        [((0.0,), 1e308), ((1.0,), -1e308)],
    ])
    def test_an_optimum_beyond_the_float_range_is_reported(self, pairs):
        with pytest.raises(SolverDiverged):
            svr_solve(training_set(pairs), SvrParams(0.0, 0.0))


def _interpolating_minimum(xs, ys, eps=0.0):
    """The least tube-loss total, over every line through n+1 cases' tube edges.

    When ``[X 1]`` has full column rank some optimum puts n+1 cases on an
    edge of the tube of half-width ``eps`` (on the line itself when ``eps``
    is 0), so this is the exact minimum; it is computed in rationals and
    rounded once.  None when no n+1 cases determine a line.
    """
    n, eps = len(xs[0]), Fraction(eps)
    best = None
    edges = itertools.product((-eps, eps), repeat=n + 1) if eps else [(eps,) * (n + 1)]
    for subset, edge in itertools.product(
        itertools.combinations(range(len(xs)), n + 1), edges
    ):
        rows = [[Fraction(v) for v in (*xs[i], 1.0)] + [Fraction(ys[i]) - e]
                for i, e in zip(subset, edge)]
        for col in range(n + 1):  # Gauss-Jordan elimination, exact
            pivot = next((r for r in range(col, n + 1) if rows[r][col] != 0), None)
            if pivot is None:
                break
            rows[col], rows[pivot] = rows[pivot], rows[col]
            for r in range(n + 1):
                if r != col and rows[r][col] != 0:
                    factor = rows[r][col] / rows[col][col]
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
        else:
            coef = [rows[j][n + 1] / rows[j][j] for j in range(n + 1)]
            total = sum(max(Fraction(0), abs(Fraction(y) - sum(
                c * Fraction(v) for c, v in zip(coef, (*x, 1.0)))) - eps)
                        for x, y in zip(xs, ys))
            best = total if best is None else min(best, total)
    return None if best is None else float(best)


def test_erm_matches_subset_enumeration():
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        n, m = rng.randint(1, 2), rng.randint(2, 8)
        grid = checked % 2 == 0  # integer grids have ties; float draws have none
        draw = (lambda: float(rng.randint(-2, 2))) if grid else (lambda: rng.uniform(-3, 3))
        xs = list({tuple(draw() for _ in range(n)) for _ in range(m)})
        ys = [draw() for _ in xs]
        least = _interpolating_minimum(xs, ys)
        if least is None:
            continue
        _, report = svr_solve(training_set(zip(xs, ys)), SvrParams(0.0, 0.0))
        assert abs(report.total - least) <= 1e-12 * max(1.0, least), (xs, ys)
        checked += 1


@pytest.fixture(scope="module")
def checks():
    """The benchmark's checks, whose ``linear_optimum`` bounds the least total by LP."""
    pytest.importorskip("scipy")
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_linear_families_match_the_lp_reference(checks):
    rng = random.Random(11)
    for trial in range(30):
        family = ("svm", "svr", "erm")[trial % 3]
        n = rng.randint(1, 3)
        m = rng.randint(2, n + 1) if trial % 5 == 0 else rng.randint(2, 12)  # some with m <= n
        xs = list({tuple(float(rng.randint(-2, 2)) for _ in range(n)) for _ in range(m)})
        if family == "svm":
            ys = [rng.choice((-1, 1)) for _ in xs]
            params = {"w": rng.choice((0.01, 0.5, 2.0))}
            _, report = svm_solve(training_set(zip(xs, ys)), SvmParams(params["w"]))
        else:
            ys = [float(rng.randint(-2, 2)) for _ in xs]
            params = {"epsilon": 0.0, "lambda": 0.0}
            if family == "svr":
                params = {"epsilon": rng.choice((0.0, 0.5, 1.0)),
                          "lambda": rng.choice((0.0, 1e-6, 0.5))}
            svr = SvrParams(params["epsilon"], params["lambda"])
            _, report = svr_solve(training_set(zip(xs, ys)), svr)
        lower, upper = checks.linear_optimum(family, [list(x) for x in xs], ys, params)
        slack = 1e-9 * max(1.0, abs(upper))  # cases pinned to a kink may miss it by an ulp
        assert lower - slack <= report.total <= upper + slack, (family, params, xs, ys)


def _assert_least(checks, family, xs, ys, params):
    """The fit's total is the least: by enumeration for m <= 8 without ``||b||^2``, else by LP.

    A case pinned to a kink misses it by the rounding of ``f(x)``, which
    grows with ``|a| + sum |b_j x_j|``; so does the tolerance.
    """
    T = training_set(zip(xs, ys))
    if family == "svm":
        f, report = svm_solve(T, SvmParams(params["w"]))
    else:
        f, report = svr_solve(T, SvrParams(params["epsilon"], params["lambda"]))
    if family != "svm" and not params["lambda"] and len(xs) <= 8:
        least = _interpolating_minimum(xs, ys, params["epsilon"])
        scale = max(abs(f.a) + sum(abs(bj * xj) for bj, xj in zip(f.b, x)) for x in xs)
        tol = 1e-12 * max(1.0, least, scale)
        assert abs(report.total - least) <= tol, (family, params, xs, ys)
    else:
        lower, upper = checks.linear_optimum(family, [list(x) for x in xs], ys, params)
        slack = 1e-9 * max(1.0, abs(upper))
        assert lower - slack <= report.total <= upper + slack, (family, params, xs, ys)


@pytest.fixture
def steps(monkeypatch):
    """Each step the solver walks: (length, (case, kink) pairs reached, those at the length)."""
    taken, walk = [], linear._walk

    def recording(U, z, d, offsets, kinks, *rest):
        t, blocker, crossed = out = walk(U, z, d, offsets, kinks, *rest)
        reached = [(i, k) for i, k, _ in crossed] + ([blocker] if blocker else [])
        at_t = [(i, k) for i, k in reached if t == max(
            0.0, (kinks[k] - linear._dot(U[i], z) - offsets[i]) / linear._dot(U[i], d))]
        taken.append((t, reached, at_t))
        return out

    monkeypatch.setattr(linear, "_walk", recording)
    return taken


def test_a_step_carries_cases_across_both_tube_edges(checks, steps):
    rng = random.Random(17)
    for trial in range(40):
        n, m = rng.randint(1, 2), rng.randint(3, 8) if trial % 2 else rng.randint(9, 40)
        params = {"epsilon": rng.choice((0.25, 0.5, 1.0)),
                  "lambda": 0.0 if m <= 8 else rng.choice((0.0, 0.01, 0.5))}
        xs = list({tuple(rng.uniform(-3, 3) for _ in range(n)) for _ in range(m)})
        _assert_least(checks, "svr", xs, [rng.uniform(-3, 3) for _ in xs], params)
    across = [reached for t, reached, _ in steps
              if t > 0 and any((i, 1) in reached for i, k in reached if k == 0)]
    assert len(across) >= 10


def test_cases_sharing_a_kink_are_crossed_in_one_step(checks, steps):
    """Most cases lie on one integer line, on its tube's edge or on its side, so kinks tie."""
    rng = random.Random(23)
    for trial in range(60):
        family = ("svm", "svr", "erm")[trial % 3]
        n, m = rng.randint(1, 2), rng.randint(4, 8) if trial % 2 else rng.randint(9, 30)
        coef, a = [rng.randint(-1, 1) for _ in range(n)], rng.randint(-1, 1)
        xs = list({tuple(float(rng.randint(-3, 3)) for _ in range(n)) for _ in range(m)})
        line = [sum(c * x for c, x in zip(coef, xi)) + a for xi in xs]
        off = [rng.randint(-2, 2) if rng.random() < 0.3 else 0 for _ in xs]
        if family == "svm":
            ys = [(1 if v >= 0 else -1) * (-1 if o else 1) for v, o in zip(line, off)]
            params = {"w": 0.01}
        else:
            eps = 0.0 if family == "erm" else rng.choice((0.0, 1.0))
            lam = 0.0 if family == "erm" or m <= 8 else rng.choice((0.0, 0.5))
            ys = [float(v + o + eps * rng.choice((-1, 1))) for v, o in zip(line, off)]
            params = {"epsilon": eps, "lambda": lam}
        _assert_least(checks, family, xs, ys, params)
    assert sum(t > 0 and len(at_t) >= 2 for t, _, at_t in steps) >= 10


def test_a_two_thousand_case_tube_fit_takes_few_steps(steps):
    """A step crosses many kinks: a one-kink step needs about 2m steps here, near 4,000."""
    rng = random.Random(3)
    xs = [tuple(rng.uniform(-3, 3) for _ in range(3)) for _ in range(2000)]
    T = training_set((x, sum(x) + rng.gauss(0.0, 1.0)) for x in xs)
    start = time.perf_counter()
    svr_solve(T, SvrParams(0.1, 0.05))
    elapsed = time.perf_counter() - start
    assert len(steps) < 400
    assert elapsed < 3.0  # loose: about 0.2 s on a 2-vCPU host


class TestLearnerAdapters:
    def test_svm_requires_numeric_features(self):
        T = training_set([(("a",), 1), (("b",), -1)])
        with pytest.raises(IncompatibleFamily):
            select_hypothesis("svm", {"w": 1.0}, T)

    def test_linear_reports_and_audits_require_numeric_features(self):
        T = training_set([(("a",), 1), (("b",), -1)])
        with pytest.raises(IncompatibleFamily):
            svm_report(UNIT, T, SvmParams(1.0))
        with pytest.raises(IncompatibleFamily):
            svr_report(UNIT, T, SvrParams(0.0, 0.0))
        for family, params in (("svm", {"w": 1.0}), ("svr", {"epsilon": 0.0, "lambda": 0.0}),
                               ("erm", {})):
            with pytest.raises(IncompatibleFamily):
                family_spec(family).audit(params, UNIT, T)

    def test_the_first_symbol_is_named(self):
        # A training set holds one value kind per column, so case 1 names the column.
        T = training_set([((1.0, 2.0, "a"), 1), ((2.0, 3.0, "b"), -1)])
        message = "case 1, feature 3: linear learners need numbers"
        with pytest.raises(IncompatibleFamily, match=f"^{message}$"):
            svm_report(LinearHypothesis((1.0, 1.0, 1.0), 0.0), T, SvmParams(1.0))
        for family, params in (("svm", {"w": 1.0}), ("erm", {})):
            with pytest.raises(IncompatibleFamily, match=f"^{message}$"):
                select_hypothesis(family, params, T)

    def test_a_block_value_that_is_no_number_a_float_holds_is_named(self):
        # A block checks its values when it is built, and names the first bad row.
        for bad, fault in ((10 ** 400, "value 1.000E+400 is beyond the float range"),
                           (-(10 ** 400), "value -1.000E+400 is beyond the float range"),
                           ("a", "mixed value kinds in one column"),
                           (None, "unsupported feature value None")):
            message = f"row 2, feature 2: {fault}"
            with pytest.raises(SchemaMismatch, match=f"^{re.escape(message)}$"):
                FeatureColumns(((1.0, 2.0, 3.0), (0.0, bad, None)))
        with pytest.raises(SchemaMismatch, match=r"^feature 1: value 1\.000E\+400 is"):
            LinearHypothesis((1.0,), 0.0)(FeatureVector.of(10 ** 400))
        # A block of symbols is built, and a linear hypothesis refuses it.
        f, queries = LinearHypothesis((1.0, 2.0), 0.5), FeatureColumns(((1.0, 2.0), ("a", "b")))
        message = "^row 1, feature 2: unsupported feature value 'a'$"
        with pytest.raises(SchemaMismatch, match=message):
            f.block(queries)
        for family in ("svm", "svr", "erm"):
            with pytest.raises(SchemaMismatch, match=message):
                list(family_spec(family).answers({}, f, None, queries))
        # A nominal training set reaches the block through the slack and the plain total.
        T = training_set([(("a",), 1), (("b",), -1)])
        message = "^row 1, feature 1: unsupported feature value 'a'$"
        for score in (lambda: svm_slack(UNIT, T), lambda: slack_feasible(UNIT, T, (0.0, 0.0)),
                      lambda: erm_total_inconsistency(UNIT, T)):
            with pytest.raises(SchemaMismatch, match=message):
                score()

    def test_a_block_value_that_is_not_finite_is_named(self):
        # A block refuses a NaN, an inf and a value of no kind when it is built.
        for bad, fault in ((math.nan, "value nan is not finite"),
                           (math.inf, "value inf is not finite"),
                           (-math.inf, "value -inf is not finite"),
                           (1j, "unsupported feature value 1j")):
            message = f"row 2, feature 2: {fault}"
            with pytest.raises(SchemaMismatch, match=f"^{re.escape(message)}$"):
                FeatureColumns(((1.0, 2.0, 3.0), (0.0, bad, 1.0)))
        # Finite values whose sum is beyond the range are no fault of the block's.
        block = LinearHypothesis((1e308,), 0.0).block(FeatureColumns(((10.0, 1.0),)))
        assert block == [math.inf, 1e308]

    def test_plain_fit_reuses_the_tube_solver(self):
        T = training_set([((0.0,), 1.0), ((1.0,), 3.0), ((2.0,), 5.0)])
        f_erm, total = select_hypothesis("erm", {}, T)
        f_svr, _ = svr_solve(T, SvrParams(0.0, 0.0))
        assert f_erm.b == f_svr.b and f_erm.a == f_svr.a
        assert total == erm_total_inconsistency(f_erm, T)
        report = family_spec("erm").audit({}, f_erm, T)
        assert (report.aggregation, report.total) == (Aggregation.SUM, total)