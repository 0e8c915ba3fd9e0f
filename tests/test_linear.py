"""Margin classification, tube regression, and the shared descent engine."""

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
    SolverConfig,
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
    def test_config_validation(self):
        with pytest.raises(InvalidParameter):
            SolverConfig(eta0=0.0)
        with pytest.raises(InvalidParameter):
            SolverConfig(max_iters=0)
        with pytest.raises(InvalidParameter):
            SolverConfig(patience=0)

    def test_separable_instance_reaches_a_wide_margin(self):
        T = training_set([((2.0,), 1), ((-2.0,), -1)])
        f, report = svm_solve(T, SvmParams(0.5))
        assert report.total == svm_objective(f, T, SvmParams(0.5))
        # Optimal coefficient for this instance is b = 0.5, a = 0.
        assert abs(f.b[0] - 0.5) < 0.01
        assert abs(f.a) < 0.01

    def test_deterministic(self):
        T = training_set([((2.0, 0.0), 1), ((-1.0, 1.0), -1), ((0.5, -2.0), 1)])
        f1, r1 = svm_solve(T, SvmParams(0.2))
        f2, r2 = svm_solve(T, SvmParams(0.2))
        assert f1.b == f2.b and f1.a == f2.a and r1.total == r2.total

    def test_divergence_is_reported(self):
        T = training_set([((2.0,), 1), ((-2.0,), -1)])
        with pytest.raises(SolverDiverged):
            svm_solve(T, SvmParams(1.0), SolverConfig(eta0=1e300, patience=5))

    def test_svr_interpolates_clean_line(self):
        xs = [(-1.0,), (0.0,), (1.0,), (2.0,)]
        T = training_set([(x, 3.0 * x[0] + 1.0) for x in xs])
        f, _ = svr_solve(T, SvrParams(0.0, 0.0))
        assert abs(f.b[0] - 3.0) < 0.05
        assert abs(f.a - 1.0) < 0.05


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
