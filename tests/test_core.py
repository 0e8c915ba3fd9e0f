"""Domain types and the shared learner contract."""

import math

import numpy as np
import pytest

from minconsist import (
    Aggregation,
    Case,
    CounterpartSet,
    DimensionMismatch,
    DuplicateFeatureVector,
    EmptySet,
    FeatureSchema,
    FeatureVector,
    IncompatibleFamily,
    InconsistencyReport,
    InvalidParameter,
    LEARNERS,
    Learner,
    LinearHypothesis,
    NominalKind,
    ProblemStatement,
    ReportEntry,
    SchemaMismatch,
    TrainingSet,
    YKind,
    aggregate_mus,
    erm_total_inconsistency,
    get_learner,
    reencode_labels,
    require_labels,
    select_hypothesis,
    training_set,
)
from minconsist.core import least_inconsistent


class TestFeatureVector:
    def test_component_is_one_based(self):
        x = FeatureVector.of(10, 20, 30)
        assert x.component(1) == 10
        assert x.component(3) == 30
        with pytest.raises(IndexError):
            x.component(0)
        with pytest.raises(IndexError):
            x.component(4)

    def test_rejects_non_finite(self):
        with pytest.raises(SchemaMismatch):
            FeatureVector.of(float("nan"))
        with pytest.raises(SchemaMismatch):
            FeatureVector.of(float("inf"), 1.0)

    def test_rejects_bool(self):
        with pytest.raises(SchemaMismatch):
            FeatureVector.of(True)

    def test_rejects_empty(self):
        with pytest.raises(SchemaMismatch):
            FeatureVector(())


class TestCase_:
    def test_feedback_must_be_real(self):
        with pytest.raises(SchemaMismatch):
            Case(FeatureVector.of(1), "yes")
        with pytest.raises(SchemaMismatch):
            Case(FeatureVector.of(1), float("nan"))

    def test_holds_values(self):
        c = Case(FeatureVector.of(1, 2), 0.5)
        assert c.x.values == (1, 2)
        assert c.y == 0.5


class TestTrainingSet:
    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            TrainingSet(())

    def test_duplicate_features_named_one_based(self):
        with pytest.raises(DuplicateFeatureVector, match="1.*3|3.*1"):
            training_set([((1, 2), 0), ((3, 4), 1), ((1, 2), 1)])

    def test_same_x_different_y_still_duplicate(self):
        # Distinctness is over feature vectors alone.
        with pytest.raises(DuplicateFeatureVector):
            training_set([((5,), 0), ((5,), 1)])

    def test_dimension_homogeneity(self):
        with pytest.raises(SchemaMismatch):
            training_set([((1,), 0), ((1, 2), 1)])

    def test_positionwise_kind_homogeneity(self):
        with pytest.raises(SchemaMismatch):
            training_set([((1, "a"), 0), (("b", 2), 1)])

    def test_sizes_and_projections(self):
        T = training_set([((0, 1), 1), ((2, 3), 0)])
        assert (T.m, T.n) == (2, 2)
        assert T.feedbacks == (1, 0)
        assert T.features[0].values == (0, 1)


class TestFeatureSchema:
    def test_nominal_symbol_sets_must_be_disjoint(self):
        from minconsist import NonDisjointValueSets

        with pytest.raises(NonDisjointValueSets):
            FeatureSchema(
                (NominalKind(frozenset({"a", "b"})), NominalKind(frozenset({"b"})))
            )

    def test_numeric_shortcut(self):
        schema = FeatureSchema.numeric(3)
        assert schema.n == 3


class TestLabels:
    def test_require_labels(self):
        T = training_set([((0,), 0), ((1,), 1)])
        require_labels(T, YKind.BINARY01)
        with pytest.raises(SchemaMismatch):
            require_labels(T, YKind.PM1)

    def test_reencode_is_explicit_and_total(self):
        T = training_set([((0,), 0), ((1,), 1)])
        Tpm = reencode_labels(T, YKind.PM1)
        assert Tpm.feedbacks == (-1, 1)
        back = reencode_labels(Tpm, YKind.BINARY01)
        assert back.feedbacks == (0, 1)
        with pytest.raises(SchemaMismatch):
            reencode_labels(training_set([((0,), 0.5)]), YKind.PM1)


class TestHypotheses:
    def test_linear_evaluation(self):
        f = LinearHypothesis((2.0, -1.0), 0.5)
        assert f(FeatureVector.of(1.0, 1.0)) == 1.5
        with pytest.raises(DimensionMismatch):
            f(FeatureVector.of(1.0))

    def test_linear_rejects_non_finite(self):
        with pytest.raises(InvalidParameter):
            LinearHypothesis((float("nan"),), 0.0)


class TestCaseGeneration:
    def test_erm_total(self):
        T = training_set([((0,), 0.5)])
        assert erm_total_inconsistency(LinearHypothesis((0.0,), 0.0), T) == 0.5
        assert erm_total_inconsistency(LinearHypothesis((0.0,), 0.5), T) == 0.0


class TestAggregation:
    def test_folds(self):
        assert aggregate_mus([1.0, 2.0, 3.0], Aggregation.SUM) == 6.0
        assert aggregate_mus([1.0, 2.0, 3.0], Aggregation.MEAN) == 2.0
        assert aggregate_mus([0.5, 0.5], Aggregation.PRODUCT) == 0.25

    def test_report_total_reproducible(self):
        entries = [
            ReportEntry(Case(FeatureVector.of(i), 0), float(i) / 7, None)
            for i in range(1, 5)
        ]
        for agg in Aggregation:
            rep = InconsistencyReport.build(entries, agg, "h")
            assert rep.total == rep.recompute_total()

    def test_negative_mu_rejected(self):
        entry = ReportEntry(Case(FeatureVector.of(1), 0), -0.1, None)
        with pytest.raises(InvalidParameter):
            InconsistencyReport.build([entry], Aggregation.SUM, "h")

    def test_empty_report_rejected(self):
        with pytest.raises(EmptySet):
            InconsistencyReport.build([], Aggregation.SUM, "h")

    def test_raising_one_score_never_lowers_the_total(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mus = list(rng.uniform(0.01, 2.0, size=5))
            bumped = list(mus)
            j = int(rng.integers(0, 5))
            bumped[j] += float(rng.uniform(0.01, 1.0))
            for agg in Aggregation:
                lo = aggregate_mus(mus, agg)
                hi = aggregate_mus(bumped, agg)
                assert hi >= lo
                if agg is Aggregation.PRODUCT:
                    # All other factors positive here, so strictly monotone.
                    assert hi > lo


def _report_for(value: float) -> InconsistencyReport:
    entry = ReportEntry(Case(FeatureVector.of(0), 0), value, None)
    return InconsistencyReport.build([entry], Aggregation.SUM, "stub")


class StubLearner(Learner):
    """A solver that returns a fixed hypothesis."""

    family = "smoothing"

    def solve(self, problem, training):
        h = LinearHypothesis((0.0,), 0.0)
        return h, self.report(h, problem, training)

    def report(self, h, problem, training):
        return _report_for(0.0)


class TestSelectHypothesis:
    """The finite argmin, and the solver entry point."""

    def test_minimum_wins(self):
        scores = {0: 0.7, 1: 0.2}
        assert least_inconsistent((0, 1), scores.__getitem__) == (1, 0.2)

    def test_tie_goes_to_the_earlier_candidate(self):
        scores = {0: 0.5, 1: 0.5, 2: 0.7}
        assert least_inconsistent((0, 1, 2), scores.__getitem__) == (0, 0.5)
        assert least_inconsistent((1, 0), scores.__getitem__) == (1, 0.5)
        with pytest.raises(EmptySet):
            least_inconsistent((), scores.__getitem__)

    def test_family_mismatch_rejected(self):
        T = training_set([((0.0,), 1)])
        smoothing = ProblemStatement(FeatureSchema.numeric(1), YKind.REAL, "smoothing", {"k": 1})
        assert select_hypothesis(StubLearner(), smoothing, T)[1].total == 0.0
        problem = ProblemStatement(FeatureSchema.numeric(1), YKind.REAL, "erm")
        with pytest.raises(IncompatibleFamily):
            select_hypothesis(StubLearner(), problem, T)


class TestProblemStatement:
    def test_unknown_family(self):
        with pytest.raises(InvalidParameter):
            ProblemStatement(FeatureSchema.numeric(1), YKind.REAL, "mystery")

    def test_missing_required_parameter(self):
        with pytest.raises(InvalidParameter):
            ProblemStatement(FeatureSchema.numeric(1), YKind.PM1, "svm")

    def test_unknown_parameter(self):
        with pytest.raises(InvalidParameter):
            ProblemStatement(
                FeatureSchema.numeric(1), YKind.PM1, "svm", {"w": 1.0, "zeal": 2}
            )

    def test_feedback_domain_checked(self):
        with pytest.raises(SchemaMismatch):
            ProblemStatement(FeatureSchema.numeric(1), YKind.REAL, "knn", {"k": 1})

    @pytest.mark.parametrize("v", [{"k": 1, "radius": 1.0}, {}])
    def test_smoothing_takes_exactly_one_neighborhood(self, v):
        with pytest.raises(InvalidParameter):
            ProblemStatement(FeatureSchema.numeric(1), YKind.REAL, "smoothing", v)

    @pytest.mark.parametrize("family, v", [
        ("svm", {"w": float("nan")}),
        ("svr", {"epsilon": 0.0, "lambda": float("nan")}),
        ("knn", {"k": True}),
        ("dtree", {"max_depth": 2.0}),
    ])
    def test_values_checked_against_the_registry(self, family, v):
        y_kind = {"svm": YKind.PM1, "svr": YKind.REAL}.get(family, YKind.BINARY01)
        with pytest.raises(InvalidParameter):
            ProblemStatement(FeatureSchema.numeric(1), y_kind, family, v)

    def test_defaults_are_filled_in_registry_order(self):
        problem = ProblemStatement(FeatureSchema.numeric(1), YKind.BINARY01, "dtree",
                                   {"purity_threshold": 0.25, "max_depth": 3})
        assert problem.v == {"max_depth": 3, "min_leaf_size": 1, "purity_threshold": 0.25}
        assert list(problem.v) == ["max_depth", "min_leaf_size", "purity_threshold"]


class TestLearnerRegistry:
    def test_every_learner_pairs_opposite_sources(self):
        for name, learner in LEARNERS.items():
            assert learner.family == name

    def test_counterpart_set_exposes_feedbacks(self):
        cps = CounterpartSet((Case(FeatureVector.of(0), 1), Case(FeatureVector.of(1), 0)))
        assert cps.feedbacks == (1, 0)
        assert len(cps) == 2

    def test_get_learner_unknown(self):
        with pytest.raises(InvalidParameter):
            get_learner("mystery")

    def test_math_helpers_stay_exact(self):
        # Folds run in entry order; a permutation may round differently.
        mus = [0.1, 0.2, 0.3]
        assert aggregate_mus(mus, Aggregation.SUM) == (0.1 + 0.2) + 0.3
        assert math.isclose(aggregate_mus(mus, Aggregation.MEAN), 0.2)
