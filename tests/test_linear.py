"""Margin classification, tube regression, and the exact solver."""

import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from minconsist import (
    Aggregation,
    Case,
    ErmLearner,
    FeatureSchema,
    FeatureVector,
    HalfSpace,
    IncompatibleFamily,
    InfeasibleSlack,
    InvalidParameter,
    LinearHypothesis,
    NominalKind,
    ProblemStatement,
    SchemaMismatch,
    SlackVector,
    SolverDiverged,
    SvmLearner,
    SvmParams,
    SvrParams,
    YKind,
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
        HalfSpace(UNIT, 1)
        HalfSpace(UNIT, -1)
        with pytest.raises(InvalidParameter):
            HalfSpace(UNIT, 0)


class TestMarginGeometry:
    def test_margin_distance_examples(self):
        # Outside its half-space a case scores |y f(x) - 1|.
        assert svm_case_inconsistency(Case(vec(1.0), 1), UNIT) == 0.0
        assert svm_case_inconsistency(Case(vec(0.5), 1), UNIT) == 0.5
        assert svm_case_inconsistency(Case(vec(3.0), -1), UNIT) == 4.0
        assert svm_case_inconsistency(Case(vec(-1.0), 1), UNIT) == 2.0

    def test_halfspace_boundary_is_inside(self):
        hs = HalfSpace(UNIT, 1)
        assert hs.contains(vec(1.0))
        assert hs.contains(vec(2.0))
        assert not hs.contains(vec(0.999))

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
        lowered = SlackVector((zeta[0] - 1e-9, zeta[1]))
        assert not slack_feasible(UNIT, T, lowered)

    def test_no_feasible_slack_undercuts_the_determined_one(self):
        for seed in range(100):
            f, T = random_linear_instance(seed)
            zeta = random_feasible_slack(f, T, seed=seed + 10_000)
            assert svm_slack_is_minimal(f, T, zeta)

    def test_minimality_check_requires_feasible_input(self):
        T = training_set([((0.5,), 1)])
        with pytest.raises(InfeasibleSlack):
            svm_slack_is_minimal(UNIT, T, SlackVector((0.0,)))


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
            svm_constrained_objective(UNIT, T, SlackVector((0.0,)), SvmParams(1.0))

    def test_report_totals_the_objective(self):
        f, T = random_linear_instance(3)
        p = SvmParams(0.7)
        report = svm_report(f, T, p)
        assert report.aggregation is Aggregation.MEAN
        assert report.regularizer == p.w * squared_weight_norm(f)
        assert report.total == svm_objective(f, T, p)
        assert len(report.entries) == T.m
        assert all(e.counterpart_count is None for e in report.entries)

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
            assert svr_objective(f, T, SvrParams(0.0, 0.0)) == erm_total_inconsistency(f, T)

    def test_report_structure(self):
        T = training_set([((1.0,), 2.0), ((2.0,), 4.0)])
        report = svr_report(UNIT, T, SvrParams(0.1, 0.01))
        assert report.aggregation is Aggregation.SUM
        assert all(e.counterpart_count == 1 for e in report.entries)
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


def _interpolating_minimum(xs, ys):
    """The least absolute-deviation total, over every line through n+1 cases.

    When ``[X 1]`` has full column rank some optimum interpolates n+1
    cases, so this is the exact minimum; it is computed in rationals and
    rounded once.  None when no n+1 cases determine a line.
    """
    n = len(xs[0])
    best = None
    for subset in itertools.combinations(range(len(xs)), n + 1):
        rows = [[Fraction(v) for v in (*xs[i], 1.0)] + [Fraction(ys[i])] for i in subset]
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
            total = sum(abs(Fraction(y) - sum(c * Fraction(v) for c, v in zip(coef, (*x, 1.0))))
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


def test_all_linear_families_match_the_lp_reference():
    pytest.importorskip("scipy")
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
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


class TestLearnerAdapters:
    def test_svm_requires_numeric_features(self):
        T = training_set([(("a",), 1), (("b",), -1)])
        problem = ProblemStatement(
            FeatureSchema((NominalKind(frozenset({"a", "b"})),)),
            YKind.PM1,
            "svm",
            {"w": 1.0},
        )
        with pytest.raises(IncompatibleFamily):
            SvmLearner().report(UNIT, problem, T)

    def test_plain_fit_reuses_the_tube_solver(self):
        T = training_set([((0.0,), 1.0), ((1.0,), 3.0), ((2.0,), 5.0)])
        problem = ProblemStatement(FeatureSchema.numeric(1), YKind.REAL, "erm")
        f_erm, rep_erm = select_hypothesis(ErmLearner(), problem, T)
        f_svr, _ = svr_solve(T, SvrParams(0.0, 0.0))
        assert f_erm.b == f_svr.b and f_erm.a == f_svr.a
        assert rep_erm.total == erm_total_inconsistency(f_erm, T)
        assert rep_erm.aggregation is Aggregation.SUM
