"""Domain types and the shared learner contract."""

import math
import re
import sys

import numpy as np
import pytest

from minconsist import (
    Aggregation,
    Case,
    CounterpartSet,
    DimensionMismatch,
    DuplicateFeatureVector,
    EmptySet,
    FeatureColumns,
    FeatureSchema,
    FeatureVector,
    InconsistencyReport,
    InvalidParameter,
    LinearHypothesis,
    NominalKind,
    ProblemStatement,
    SchemaMismatch,
    SolverDiverged,
    TrainingSet,
    YKind,
    aggregate_mus,
    erm_total_inconsistency,
    require_labels,
    select_hypothesis,
    training_set,
)
from minconsist.core import Param, least_inconsistent


# Each fault a training set can have, and the message that names it.
FAULTS = [
    ([((1, 2), 0), ((3,), 1)], SchemaMismatch, "case 2 has 1 features, case 1 has 2"),
    ([((1, 2), 0), ((3, True), 1)], SchemaMismatch,
     "row 2, feature 2: unsupported feature value True"),
    ([((1, 2), 0), ((3, None), 1)], SchemaMismatch,
     "row 2, feature 2: unsupported feature value None"),
    ([((1, 2), 0), ((3, math.inf), 1)], SchemaMismatch,
     "row 2, feature 2: value inf is not finite"),
    ([((1, 2), 0), ((3, 10 ** 400), 1)], SchemaMismatch,
     "row 2, feature 2: value 1.000E+400 is beyond the float range"),
    ([((1, 2), 0), ((3, 4), False)], SchemaMismatch,
     "feedback must be a real number, got False"),
    ([((1, 2), 0), ((3, 4), "1")], SchemaMismatch, "feedback must be a real number, got '1'"),
    ([((1, 2), 0), ((3, 4), math.nan)], SchemaMismatch, "feedback value nan is not finite"),
    ([((1, 2), 0), ((3, 4), -(10 ** 400))], SchemaMismatch,
     "feedback value -1.000E+400 is beyond the float range"),
    ([((1, "a"), 0), ((2, "b"), 1), ((3, 4), 0)], SchemaMismatch,
     "row 3, feature 2: mixed value kinds in one column"),
    ([((1, 2), 0), ((3, 4), 1), ((1, 2), 1)], DuplicateFeatureVector,
     "cases 1 and 3 share feature vector (1, 2)"),
    ([((1, 2), 0), ((1.0, 2.0), 1)], DuplicateFeatureVector,
     "cases 1 and 2 share feature vector (1.0, 2.0)"),
    ([], EmptySet, "a training set needs at least one case"),
]

# Of two faults, the one named: first a width unlike case 1's; then a bad
# value or a value of a kind unlike row 1's, in row order (lowest feature
# first); then a bad feedback; then a repeated vector.
TWO_FAULTS = [
    ([((1, 2), 0), ((3,), 1), ((True, 4), 0)], SchemaMismatch,
     "case 2 has 1 features, case 1 has 2"),
    ([((1, 2), 0), ((3, 4), math.nan), ((True, 5), 0)], SchemaMismatch,
     "row 3, feature 1: unsupported feature value True"),
    ([((1, 2), 0), ((3, math.nan), "y")], SchemaMismatch,
     "row 2, feature 2: value nan is not finite"),
    ([((1, 2), 0), ((3, None), 0), ((math.inf, 5), 0)], SchemaMismatch,
     "row 2, feature 2: unsupported feature value None"),
    ([((1, 2), 0), ((1, 2), 1), ((3, 4), True)], SchemaMismatch,
     "feedback must be a real number, got True"),
    ([((1, 2), 0), ((3, None), 10 ** 400)], SchemaMismatch,
     "row 2, feature 2: unsupported feature value None"),
    ([((1, 2), 10 ** 400), ((1, 2), 1)], SchemaMismatch,
     "feedback value 1.000E+400 is beyond the float range"),
    ([((1, 2), 0), ((1, 2), 1), (("a", 4), 0)], SchemaMismatch,
     "row 3, feature 1: mixed value kinds in one column"),
    ([((1, 2), 0), (("a", 4), 1), ((1, 2), 0)], SchemaMismatch,
     "row 2, feature 1: mixed value kinds in one column"),
    ([((1, 2), 0), ((3, "b"), 1), (("a", 4), 0)], SchemaMismatch,
     "row 2, feature 2: mixed value kinds in one column"),
    ([((1, 2), 0), (("a", "b"), 1)], SchemaMismatch,
     "row 2, feature 1: mixed value kinds in one column"),
    ([((1, 2), 0), ((1,), 0), ((1, 2), 1)], SchemaMismatch,
     "case 2 has 1 features, case 1 has 2"),
    ([((1, 2), 0), ((5, 6, 7), 0), (("a", 2), 1)], SchemaMismatch,
     "case 2 has 3 features, case 1 has 2"),
    ([((1, 2), 0), (("a", 2), 1), ((5,), 0)], SchemaMismatch,
     "case 3 has 1 features, case 1 has 2"),
]


class TestFeatureVector:
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


class TestFeatureColumns:
    @pytest.mark.parametrize("columns", [(), ((1, 2), (3,)), ((1,), ())], ids=repr)
    def test_rejects_no_columns_and_ragged_columns(self, columns):
        with pytest.raises(DimensionMismatch, match="all of one length"):
            FeatureColumns(columns)

    def test_zero_rows_are_a_block(self):
        block = FeatureColumns(((), ()))
        assert (len(block), block.n, list(block.rows())) == (0, 2, [])

    def test_keeps_tuples_of_its_own(self):
        first, second = [1.0, 2.0], [3.0, 4.0]
        block = FeatureColumns([first, second])
        second.pop()
        assert block == FeatureColumns(((1.0, 2.0), (3.0, 4.0)))
        assert hash(block) == hash(FeatureColumns(((1.0, 2.0), (3.0, 4.0))))
        assert list(block.rows()) == [(1.0, 3.0), (2.0, 4.0)]
        assert LinearHypothesis((1.0, 1.0), 0.0).block(block) == [4.0, 6.0]


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
            training_set([])

    def test_duplicate_features_named_one_based(self):
        with pytest.raises(DuplicateFeatureVector, match="1.*3|3.*1"):
            training_set([((1, 2), 0), ((3, 4), 1), ((1, 2), 1)])

    def test_same_x_different_y_still_duplicate(self):
        # Distinctness is over feature vectors alone.
        with pytest.raises(DuplicateFeatureVector):
            training_set([((5,), 0), ((5,), 1)])

    def test_a_vector_too_long_for_repr_is_named(self):
        # repr refuses an int of more than 4,300 digits; such an int is beyond the float
        # range, so the columns refuse it, and the message writes it as Decimal does.
        for big, named in ((10 ** 5000, "1.000E+5000"), (-(10 ** 5000), "-1.000E+5000")):
            with pytest.raises(SchemaMismatch) as caught:
                training_set([((big,), 0), ((big,), 1)])
            assert str(caught.value) == f"row 1, feature 1: value {named} is beyond the float range"
        with pytest.raises(SchemaMismatch) as caught:
            training_set([((1, 10 ** 5000), 0), ((1, 10 ** 5000), 1)])
        assert str(caught.value) == "row 1, feature 2: value 1.000E+5000 is beyond the float range"

    def test_dimension_homogeneity(self):
        with pytest.raises(SchemaMismatch):
            training_set([((1,), 0), ((1, 2), 1)])

    def test_positionwise_kind_homogeneity(self):
        with pytest.raises(SchemaMismatch):
            training_set([((1, "a"), 0), (("b", 2), 1)])

    @pytest.mark.parametrize("pairs, error, message", FAULTS, ids=lambda v: repr(v)[:40])
    def test_each_fault_keeps_its_message(self, pairs, error, message):
        with pytest.raises(error) as caught:
            training_set(pairs)
        assert str(caught.value) == message

    @pytest.mark.parametrize("pairs, error, message", TWO_FAULTS, ids=lambda v: repr(v)[:40])
    def test_of_two_faults_the_first_in_case_order_is_named(self, pairs, error, message):
        with pytest.raises(error) as caught:
            training_set(pairs)
        assert str(caught.value) == message

    @pytest.mark.parametrize("pairs, error, message", [
        fault for fault in FAULTS + TWO_FAULTS
        if fault[0] and len({len(xs) for xs, _ in fault[0]}) == 1
    ], ids=lambda v: repr(v)[:40])
    def test_the_constructor_names_what_the_rows_name(self, pairs, error, message):
        xs, ys = zip(*pairs)
        with pytest.raises(error) as caught:
            TrainingSet(FeatureColumns(list(zip(*xs))), ys)
        assert str(caught.value) == message

    def test_built_from_columns(self):
        T = TrainingSet(FeatureColumns([[0, 2], ["a", "b"]]), [1, 0.5])
        assert (T.m, T.n, T.feedbacks) == (2, 2, (1, 0.5))
        assert T == training_set([((0, "a"), 1), ((2, "b"), 0.5)])
        assert T.cases == (Case(FeatureVector.of(0, "a"), 1), Case(FeatureVector.of(2, "b"), 0.5))
        assert T.cases is T.cases  # the row view is built once, when first asked for

    def test_valid_pairs_build_no_row_objects(self, monkeypatch):
        built = []
        for cls in (FeatureVector, Case):
            monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))
        T = training_set([((0, "a"), 1), ((2.5, "b"), 0), ((1, "a"), 0.5)])
        assert (T.m, built) == (3, [])

    def test_one_feedback_per_case(self):
        with pytest.raises(DimensionMismatch, match="2 cases but 1 feedbacks"):
            TrainingSet(FeatureColumns([[0, 2]]), [1])

    def test_sizes_and_projections(self):
        T = training_set([((0, 1), 1), ((2, 3), 0)])
        assert (T.m, T.n) == (2, 2)
        assert T.feedbacks == (1, 0)
        assert T.columns == FeatureColumns(((0, 2), (1, 3)))
        assert T.cases[0] == Case(FeatureVector.of(0, 1), 1)


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


class TestHypotheses:
    def test_linear_evaluation(self):
        f = LinearHypothesis((2.0, -1.0), 0.5)
        assert f(FeatureVector.of(1.0, 1.0)) == 1.5
        with pytest.raises(DimensionMismatch):
            f(FeatureVector.of(1.0))

    def test_linear_rejects_non_finite(self):
        with pytest.raises(InvalidParameter):
            LinearHypothesis((float("nan"),), 0.0)

    def test_linear_rejects_bools_and_takes_the_ints_a_float_holds(self):
        # A bool is no number; float() rounds an int below 2**1024 - 2**970 to a finite float.
        for b, a in (((True,), 0.0), ((1.0,), False)):
            with pytest.raises(InvalidParameter,
                               match="^linear coefficients must be numbers, got (True|False)$"):
                LinearHypothesis(b, a)
        f = LinearHypothesis((2 ** 1024 - 2 ** 970 - 1,), 0)
        assert (f.b, f.a) == ((sys.float_info.max,), 0.0)
        with pytest.raises(InvalidParameter, match="^linear coefficients must be finite$"):
            LinearHypothesis((2 ** 1024 - 2 ** 970,), 0)


class TestParam:
    def test_a_float_parameter_takes_the_ints_a_float_holds(self):
        # float() rounds an int below 2**1024 - 2**970 to a finite float, and that one beyond.
        w = Param("w", "--w", float, low=0.0, strict=True)
        w.check(2 ** 1024 - 2 ** 970 - 1)
        for big, written in ((2 ** 1024 - 2 ** 970, str(2 ** 1024 - 2 ** 970)),
                             (10 ** 5000, "1.000E+5000")):
            with pytest.raises(InvalidParameter) as caught:
                w.check(big)
            assert str(caught.value) == f"w must be a number > 0, got {written}"
        with pytest.raises(InvalidParameter, match="^w must be a number > 0, got True$"):
            w.check(True)


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
        mus = [float(i) / 7 for i in range(1, 5)]
        for agg in Aggregation:
            rep = InconsistencyReport.build(mus, [None] * 4, agg, regularizer=0.25)
            folded = aggregate_mus(rep.mus, rep.aggregation)
            assert rep.total == folded + rep.regularizer

    def test_negative_mu_rejected(self):
        with pytest.raises(InvalidParameter):
            InconsistencyReport.build([-0.1], [None], Aggregation.SUM)

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            InconsistencyReport.build([0.5], [None, None], Aggregation.SUM)

    def test_a_total_beyond_the_range_names_its_first_non_finite_score(self):
        def build(*mus):
            return InconsistencyReport.build(mus, [None] * len(mus), Aggregation.SUM)

        for mus, named in (((1.0, math.inf, math.nan), "the inconsistency of case 2"),
                           ((-1.0, math.nan), "the inconsistency of case 2"),
                           ((1e308, 1e308), "the total inconsistency")):
            with pytest.raises(SolverDiverged) as caught:
                build(*mus)
            assert str(caught.value) == f"{named} is beyond the floating-point range"

    def test_empty_report_rejected(self):
        with pytest.raises(EmptySet):
            InconsistencyReport.build([], [], Aggregation.SUM)

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

    def test_the_family_row_fits_from_checked_parameters(self):
        T = training_set([((0.0,), 1), ((1.0,), 3)])
        assert select_hypothesis("smoothing", {"k": 1}, T) == (None, 0.0)
        with pytest.raises(InvalidParameter):
            select_hypothesis("smoothing", {"k": 1, "radius": 1.0}, T)
        with pytest.raises(InvalidParameter):
            select_hypothesis("mystery", {}, T)

    @pytest.mark.parametrize("family, params, labels", [
        ("smoothing", {"k": 1}, (1, 0)),
        ("knn", {"k": 1}, (1, 0)),
        ("svm", {"w": 0.5}, (1, -1)),
        ("svr", {"epsilon": 0.1, "lambda": 0.1}, (1, 0)),
        ("erm", {}, (1, 0)),
    ])
    def test_an_int_beyond_the_float_range_is_named(self, family, params, labels):
        # The value rule admits an int that float() holds: the training set names one
        # beyond the range before a family sees it, and the family fits the largest one.
        for big, named in ((10 ** 400, "1.000E+400"), (10 ** 5000, "1.000E+5000"),
                           (-(2 ** 1024), "-1.798E+308"), (2 ** 1024 - 2 ** 970, "1.798E+308")):
            message = f"row 2, feature 2: value {named} is beyond the float range"
            with pytest.raises(SchemaMismatch, match=f"^{re.escape(message)}$"):
                training_set([((0, 0), labels[1]), ((0, big), labels[0])])
        T = training_set([((0, 0), labels[1]), ((0, 2 ** 1024 - 2 ** 970 - 1), labels[0])])
        assert math.isfinite(select_hypothesis(family, params, T)[1])

    @pytest.mark.parametrize("family, params", [
        ("smoothing", {"k": 1}), ("svr", {"epsilon": 0.1, "lambda": 0.1}), ("erm", {}),
    ])
    def test_a_feedback_int_beyond_the_float_range_is_named(self, family, params):
        # The value rule of a feedback admits an int only within the float range.
        for big, named in ((10 ** 400, "1.000E+400"), (-(2 ** 1024), "-1.798E+308")):
            message = f"^feedback value {re.escape(named)} is beyond the float range$"
            with pytest.raises(SchemaMismatch, match=message):
                select_hypothesis(family, params, training_set([((0,), big), ((1,), 0)]))
            with pytest.raises(SchemaMismatch, match=message):
                Case(FeatureVector.of(0), big)
        largest = 2 ** 1024 - 2 ** 971  # the largest float, as an int
        assert training_set([((0,), largest), ((1,), 0)]).feedbacks[0] == largest

    def test_ranks_and_symbols_keep_ints_a_float_holds(self):
        # A tree only compares its ranks, yet a rank keeps the value rule too.
        with pytest.raises(SchemaMismatch, match=r"^row 1, feature 1: value 1\.000E\+400 is "):
            training_set([((10 ** 400,), 1), ((0,), 0)])
        T = training_set([((2 ** 1024 - 2 ** 970 - 1,), 1), ((0,), 0)])
        assert select_hypothesis("dtree", {}, T)[1] == 0.0
        with pytest.raises(SchemaMismatch, match="feature 1 must be nominal"):
            select_hypothesis("nb", {}, T)


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
        ("svr", {"epsilon": float("inf"), "lambda": 0.0}),
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
    def test_counterpart_set_exposes_feedbacks(self):
        cps = CounterpartSet((Case(FeatureVector.of(0), 1), Case(FeatureVector.of(1), 0)))
        assert cps.feedbacks == (1, 0)
        assert len(cps) == 2

    def test_math_helpers_stay_exact(self):
        # Folds run in entry order; a permutation may round differently.
        mus = [0.1, 0.2, 0.3]
        assert aggregate_mus(mus, Aggregation.SUM) == (0.1 + 0.2) + 0.3
        assert math.isclose(aggregate_mus(mus, Aggregation.MEAN), 0.2)
