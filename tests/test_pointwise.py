"""Query-time learners: local smoothing, k-nearest, trees, naive Bayes."""

import math
import re

import numpy as np
import pytest

from minconsist import (
    EmptyNeighborhood,
    FeatureColumns,
    FeatureVector,
    FixedRadius,
    InvalidParameter,
    KExceedsSampleSize,
    KNearest,
    NeighborhoodSpec,
    NonDisjointValueSets,
    SchemaMismatch,
    TreeConfig,
    TreeLeaf,
    TreeNode,
    distance,
    dtree_build,
    dtree_counterparts,
    dtree_predict,
    knn_predict,
    nb_predict,
    nb_transform,
    select_hypothesis,
    smoothing_case_inconsistency,
    smoothing_counterparts,
    smoothing_fit,
    training_set,
)
from minconsist.core import family_spec
from minconsist import pointwise
from minconsist.pointwise import LABELS


def vec(*values):
    return FeatureVector.of(*values)


def block(*vectors):
    """A rule's queries: the vectors as one block of columns."""
    return FeatureColumns.of(vectors)


class TestDistance:
    def test_euclidean(self):
        assert distance(vec(0.0, 0.0), vec(3.0, 4.0)) == 5.0

    def test_manhattan(self):
        assert distance(vec(0.0, 0.0), vec(3.0, 4.0), "manhattan") == 7.0

    def test_ordinal_ranks_are_numbers(self):
        assert distance(vec(0), vec(3)) == 3.0

    def test_a_distance_whose_terms_overflow_is_measured_scaled(self):
        assert distance(vec(1e200), vec(3e200)) == 2e200
        big = 2.0 ** 700  # about 5e210, so the 3-4-5 triangle scales exactly
        assert distance(vec(3 * big, 0.0), vec(0.0, 4 * big)) == 5 * big
        assert distance(vec(-1.5e308), vec(1e308), "manhattan") == math.inf
        assert distance(vec(1e308, 1e308), vec(0.0, 0.0)) == math.sqrt(2) * 1e308
        assert distance(vec(1.5e308, 1.5e308), vec(0.0, 0.0)) == math.inf  # beyond the range

    def test_nominal_rejected(self):
        with pytest.raises(SchemaMismatch):
            distance(vec("a"), vec("b"))

    def test_unknown_metric(self):
        with pytest.raises(InvalidParameter):
            distance(vec(0.0), vec(1.0), "chebyshev")

    def test_dimension_mismatch(self):
        with pytest.raises(SchemaMismatch):
            distance(vec(0.0), vec(1.0, 2.0))

    def test_a_query_int_beyond_the_float_range_is_named(self):
        # The query vector refuses the value before a family can measure it.
        message = r"^feature 2: value -1\.000E\+400 is beyond the float range$"
        for values in ((1, -(10 ** 400)), ("a", -(10 ** 400)), (1, -(10 ** 400), 0)):
            with pytest.raises(SchemaMismatch, match=message):
                vec(*values)
        # The largest int a float holds is measured: it is as far as the largest float.
        top = 2 ** 1024 - 2 ** 970 - 1
        for metric in ("euclidean", "manhattan"):
            assert distance(vec(0, 1), vec(0, top), metric) == float(top)
        T = training_set([((0, 1), 1), ((2, 3), 0)])
        assert knn_predict(vec(0, top), T, 1)[0] == 0

    @pytest.mark.parametrize("family, params", [
        ("knn", {"k": 1}), ("knn", {"k": 2, "metric": "manhattan"}),
        ("smoothing", {"k": 1}), ("smoothing", {"radius": 2.0}),
    ])
    def test_a_query_value_that_is_not_finite_is_named(self, family, params):
        # A block refuses a bad value when it is built, naming its row.  A block holding
        # the largest int a float holds is answered, or meets no case within the radius.
        T = training_set([((0, 1), 1), ((2, 3), 0), ((4, 4), 1)])
        spec = family_spec(family)
        params = spec.complete(params)
        for bad in (math.nan, math.inf, -math.inf, None):
            with pytest.raises(SchemaMismatch, match=f"^row 2, feature 2: .*{bad!r}"):
                FeatureColumns(((0, 1), (1, bad)))
        clean = list(spec.answers(params, None, T, FeatureColumns(((0,), (1,)))))
        block = FeatureColumns(((0, 1), (1, 2 ** 1024 - 2 ** 970 - 1)))
        if "radius" in params:
            with pytest.raises(EmptyNeighborhood):
                list(spec.answers(params, None, T, block))
        else:
            assert list(spec.answers(params, None, T, block))[:1] == clean


class TestNeighborhoods:
    T = training_set([((0,), 1), ((1,), 2), ((5,), 9)])

    def test_k_nearest_picks_closest(self):
        spec = NeighborhoodSpec(KNearest(2))
        cps = smoothing_counterparts(vec(0.4), self.T, spec)
        assert [c.x.values for c in cps.members] == [(0,), (1,)]

    def test_radius_is_inclusive_cutoff(self):
        spec = NeighborhoodSpec(FixedRadius(0.5))
        cps = smoothing_counterparts(vec(0.4), self.T, spec)
        assert [c.x.values for c in cps.members] == [(0,)]
        # 0.6 away exactly: included at radius 0.6
        cps = smoothing_counterparts(vec(0.4), self.T, NeighborhoodSpec(FixedRadius(0.6)))
        assert len(cps) == 2

    def test_distance_ties_at_the_cut_are_all_kept(self):
        T = training_set([((0,), 0), ((1,), 1), ((-1,), 2), ((4,), 3)])
        cps = smoothing_counterparts(vec(0.0), T, NeighborhoodSpec(KNearest(2)))
        # distances 0, 1, 1, 4: the pair tied at the second-smallest both stay
        assert len(cps) == 3

    def test_k_larger_than_sample(self):
        with pytest.raises(KExceedsSampleSize):
            smoothing_counterparts(vec(0.0), self.T, NeighborhoodSpec(KNearest(4)))

    def test_empty_radius(self):
        with pytest.raises(EmptyNeighborhood):
            smoothing_counterparts(vec(100.0), self.T, NeighborhoodSpec(FixedRadius(1.0)))

    def test_single_case_k1(self):
        T = training_set([((7,), 3)])
        cps = smoothing_counterparts(vec(0.0), T, NeighborhoodSpec(KNearest(1)))
        assert cps.feedbacks == (3,)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            KNearest(0)
        with pytest.raises(InvalidParameter):
            FixedRadius(0.0)
        with pytest.raises(InvalidParameter):
            NeighborhoodSpec(KNearest(1), "cosine")


class TestSmoothing:
    def test_inconsistency_is_gap_to_neighborhood_mean(self):
        T = training_set([((0,), 2.0), ((1,), 4.0)])
        cps = smoothing_counterparts(vec(0.5), T, NeighborhoodSpec(KNearest(2)))
        assert smoothing_case_inconsistency(3.0, cps) == 0.0
        assert smoothing_case_inconsistency(0.0, cps) == 3.0

    def test_single_counterpart(self):
        T = training_set([((0,), 5.0)])
        cps = smoothing_counterparts(vec(0.0), T, NeighborhoodSpec(KNearest(1)))
        assert smoothing_case_inconsistency(5.0, cps) == 0.0

    def test_fit_returns_the_neighborhood_mean(self):
        T = training_set([((0,), 2.0), ((1,), 4.0), ((9,), 100.0)])
        h = smoothing_fit(vec(0.5), T, NeighborhoodSpec(KNearest(2)))
        assert h.value == 3.0
        assert h.x0 == vec(0.5)

    def test_fit_of_binary_labels(self):
        T = training_set([((0,), 1), ((1,), 1), ((2,), 0)])
        h = smoothing_fit(vec(1.0), T, NeighborhoodSpec(KNearest(3)))
        assert h.value == (1 + 1 + 0) / 3

    def test_fit_scores_zero_on_its_own_report(self):
        T = training_set([((0,), 2.0), ((1,), 4.0)])
        spec = NeighborhoodSpec(KNearest(2))
        assert list(pointwise._smoothing(spec, T, block(vec(0.5)))) == [(3.0, 0.0, 2)]


class TestKnn:
    def test_majority_neighborhood(self):
        T = training_set([((0,), 1), ((0.1,), 1), ((0.9,), 0), ((1,), 0)])
        label, report = knn_predict(vec(0.05), T, 3)
        assert label == 1
        assert report.total == abs(1 - (1 + 1 + 0) / 3)
        assert report.counts == (3,)

    def test_single_neighbor(self):
        T = training_set([((0,), 1)])
        label, _ = knn_predict(vec(42.0), T, 1)
        assert label == 1

    def test_split_vote_answers_zero(self):
        T = training_set([((0,), 0), ((1,), 1)])
        label, report = knn_predict(vec(0.5), T, 2)
        assert label == 0
        assert report.total == 0.5

    def test_labels_must_be_binary(self):
        T = training_set([((0,), 2), ((1,), 1)])
        with pytest.raises(SchemaMismatch):
            knn_predict(vec(0.0), T, 1)

    def test_candidate_order_fixes_ties(self):
        T = training_set([((0,), 0), ((1,), 1)])
        assert LABELS == (0, 1)
        spec = NeighborhoodSpec(KNearest(2))
        assert list(pointwise._knn(spec, T, block(vec(0.5)))) == [(0, 0.5, 2)]


class TestTreeBuild:
    T = training_set([((1,), 0), ((2,), 0), ((3,), 1), ((4,), 1)])

    def test_clean_split(self):
        part = dtree_build(self.T)
        root = part.root
        assert isinstance(root, TreeNode)
        assert (root.feature, root.threshold) == (0, 2)
        assert isinstance(root.left, TreeLeaf) and root.left.case_indices == (0, 1)
        assert isinstance(root.right, TreeLeaf) and root.right.case_indices == (2, 3)

    def test_pure_data_stays_one_leaf(self):
        T = training_set([((1,), 1), ((2,), 1), ((3,), 1)])
        part = dtree_build(T)
        assert isinstance(part.root, TreeLeaf)

    def test_small_node_stays_one_leaf(self):
        T = training_set([((1,), 0), ((2,), 1), ((3,), 0)])
        part = dtree_build(T, TreeConfig(min_leaf_size=2))
        assert isinstance(part.root, TreeLeaf)

    def test_depth_limit(self):
        T = training_set([((i,), i % 2) for i in range(8)])
        part = dtree_build(T, TreeConfig(max_depth=1))

        def depth(node):
            if isinstance(node, TreeLeaf):
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(part.root) <= 1

    def test_purity_threshold_stops_early(self):
        T = training_set([((1,), 0), ((2,), 0), ((3,), 0), ((4,), 1)])
        part = dtree_build(T, TreeConfig(purity_threshold=0.25))
        assert isinstance(part.root, TreeLeaf)

    def test_tie_breaks_to_the_lowest_feature(self):
        # Both features carry the identical perfect split.
        T = training_set([((0, 0), 0), ((1, 1), 0), ((2, 2), 1), ((3, 3), 1)])
        part = dtree_build(T)
        assert isinstance(part.root, TreeNode)
        assert part.root.feature == 0

    def test_features_must_be_ranks(self):
        with pytest.raises(SchemaMismatch):
            dtree_build(training_set([((0.5,), 0), ((1.5,), 1)]))

    def test_config_validation(self):
        with pytest.raises(InvalidParameter):
            TreeConfig(max_depth=0)
        with pytest.raises(InvalidParameter):
            TreeConfig(min_leaf_size=0)
        with pytest.raises(InvalidParameter):
            TreeConfig(purity_threshold=0.6)


class TestTreeQueries:
    T = training_set([((1,), 0), ((2,), 0), ((3,), 1), ((4,), 1)])

    def test_counterparts_come_from_the_query_leaf(self):
        part = dtree_build(self.T)
        cps = dtree_counterparts(vec(1), part, self.T)
        assert [c.x.values for c in cps.members] == [(1,), (2,)]
        cps = dtree_counterparts(vec(4), part, self.T)
        assert [c.x.values for c in cps.members] == [(3,), (4,)]

    def test_single_leaf_takes_everything(self):
        T = training_set([((1,), 1), ((2,), 1)])
        part = dtree_build(T)
        cps = dtree_counterparts(vec(9), part, T)
        assert len(cps) == 2

    def test_pure_leaf_prediction(self):
        part = dtree_build(self.T)
        label, report = dtree_predict(vec(1), part, self.T)
        assert (label, report.total) == (0, 0.0)
        label, report = dtree_predict(vec(4), part, self.T)
        assert (label, report.total) == (1, 0.0)

    def test_split_leaf_answers_zero(self):
        T = training_set([((1,), 0), ((2,), 1)])
        part = dtree_build(T, TreeConfig(min_leaf_size=2))
        label, report = dtree_predict(vec(1), part, T)
        assert label == 0
        assert report.total == 0.5

    def test_routing_is_boundary_inclusive_on_the_left(self):
        part = dtree_build(self.T)
        assert part.route(vec(2)).leaf_id == part.route(vec(1)).leaf_id
        assert part.route(vec(3)).leaf_id == part.route(vec(4)).leaf_id

    def test_a_query_holding_a_symbol_or_none_is_named(self):
        # A block of symbols is built, and routing refuses it; a block refuses a None,
        # or a symbol among numbers, when it is built.
        part = dtree_build(self.T)
        message = "^row 1, feature 1: unsupported feature value 'a'$"
        with pytest.raises(SchemaMismatch, match=message):
            dtree_predict(vec("a"), part, self.T)
        with pytest.raises(SchemaMismatch, match=message):
            part.route(vec("a"))
        with pytest.raises(SchemaMismatch, match=message):
            list(family_spec("dtree").answers({}, part, self.T, FeatureColumns((("a", "b"),))))
        for bad, fault in (("a", "mixed value kinds in one column"),
                           (None, "unsupported feature value None")):
            with pytest.raises(SchemaMismatch, match=f"^row 3, feature 1: {re.escape(fault)}$"):
                FeatureColumns(((1, 4, bad, 2),))

    def test_a_query_value_that_is_not_finite_is_named(self):
        # No threshold orders a NaN, and an inf is no rank: the block refuses both.
        for bad in (math.nan, math.inf, -math.inf):
            message = f"^row 3, feature 1: value {re.escape(repr(bad))} is not finite$"
            with pytest.raises(SchemaMismatch, match=message):
                FeatureColumns(((1, 4, bad, 2),))
        # Values whose column sum is beyond the range are routed.
        part, top = dtree_build(self.T), 2 ** 1024 - 2 ** 970 - 1
        for column, labels in (((1e308, 1e308, 1), [1, 1, 0]), ((top, 1.5, 1), [1, 0, 0])):
            answers = family_spec("dtree").answers({}, part, self.T, FeatureColumns((column,)))
            assert list(answers) == labels

    def test_learner_adapter(self):
        # The learner as the CLI runs it: fit the tree once, then answer.
        tree, total = select_hypothesis("dtree", {}, self.T)
        assert total == 0.0
        assert list(pointwise._leaf_answers(tree, self.T, block(vec(1), vec(4)))) == [
            (0, 0.0, 2), (1, 0.0, 2)
        ]


class TestNbTransform:
    def test_flattens_to_single_value_cases(self):
        T = training_set([(("a", "p"), 1)])
        transformed = nb_transform(vec("a", "p"), T)
        assert len(transformed.cases) == 2
        assert [c.x.values for c in transformed.cases] == [("a",), ("p",)]

    def test_cardinality_is_cases_times_features(self):
        T = training_set(
            [(("a", "p"), 1), (("b", "q"), 0), (("c", "r"), 0)]
        )
        transformed = nb_transform(vec("a", "q"), T)
        assert len(transformed.cases) == 6

    def test_shared_value_sets_rejected(self):
        T = training_set([(("a", "b"), 1), (("b", "a"), 0)])
        with pytest.raises(NonDisjointValueSets):
            nb_transform(vec("a", "a"), T)


class TestNbScoring:
    # "v" is seen three times: twice with label 0, once with label 1.
    T = training_set([(("v", "p"), 0), (("v", "q"), 0), (("v", "r"), 1)])

    def test_disagreement_fraction(self):
        label, report = nb_predict(vec("v", "s"), self.T)
        # label 0 scores 1/3 * 1/2 for ("v", unseen "s"); label 1 scores 2/3 * 1/2
        assert label == 0
        assert len(report.mus) == 2  # one score per feature of the query
        assert report.mus == (1 / 3, 0.5)
        assert report.counts == (3, 0)

    def test_full_agreement_scores_zero(self):
        label, report = nb_predict(vec("v", "r"), self.T)
        assert label == 1
        assert report.mus == (2 / 3, 0.0)
        assert report.total == 0.0

    def test_empty_pool_scores_half(self):
        _, report = nb_predict(vec("w", "s"), self.T)
        assert (report.mus, report.counts) == ((0.5, 0.5), (0, 0))

    def test_training_values_are_checked_before_the_query(self):
        T = training_set([((1,), 0), ((2,), 1)])
        with pytest.raises(SchemaMismatch, match="feature 1 must be nominal, got 1"):
            nb_predict(vec("a", "b"), T)  # the query's width is wrong as well

    def test_a_query_int_too_long_for_repr_is_named(self):
        # repr refuses an int of more than 4,300 digits; the block refuses it as beyond
        # the float range, written as Decimal writes it.  nb names a number it cannot take.
        message = r"^row 1, feature 1: value 1\.000E\+5000 is beyond the float range$"
        with pytest.raises(SchemaMismatch, match=message):
            FeatureColumns(((10 ** 5000,),))
        T = training_set([(("a",), 1), (("b",), 0)])
        with pytest.raises(SchemaMismatch, match=r"^feature 1 must be nominal, got 10$"):
            list(family_spec("nb").answers({}, None, T, FeatureColumns(((10,),))))

    def test_predict_multiplies_per_feature_scores(self):
        T = training_set(
            [(("a", "p"), 1), (("a", "q"), 0), (("b", "p"), 0), (("b", "q"), 0)]
        )
        label, report = nb_predict(vec("a", "p"), T)
        # feature scores for label 1: a -> 1/2, p -> 1/2; for label 0 both 1/2
        assert len(report.mus) == 2
        assert label == 0  # tie at 0.25 resolves to 0
        assert report.total == 0.25

    def test_unseen_value_contributes_half(self):
        T = training_set([(("a",), 1), (("b",), 0)])
        label, report = nb_predict(vec("c"), T)
        assert report.total == 0.5
        assert label == 0

    def test_clear_majority(self):
        T = training_set(
            [(("a", "p"), 1), (("a", "q"), 1), (("b", "p"), 0), (("b", "r"), 0)]
        )
        label, report = nb_predict(vec("a", "p"), T)
        assert label == 1
        assert report.total == 0.0  # "a" always carried label 1, so that factor is 0

    def test_learner_adapter_tie_rule(self):
        # The learner as the CLI runs it: an unseen value ties, and the tie gives 0.
        T = training_set([(("a",), 0), (("b",), 1)])
        assert list(pointwise._nb(T, block(vec("z")))) == [(0, 0.5, 0)]


class TestDeterminism:
    def test_same_inputs_same_answers(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-2, 2, size=(12, 2))
        ys = rng.integers(0, 2, size=12)
        T = training_set([(tuple(map(float, x)), int(y)) for x, y in zip(xs, ys)])
        for _ in range(3):
            a = knn_predict(vec(0.0, 0.0), T, 5)
            b = knn_predict(vec(0.0, 0.0), T, 5)
            assert a[0] == b[0] and a[1].total == b[1].total
