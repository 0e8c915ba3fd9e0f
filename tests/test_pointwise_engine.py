"""The batch engine gives, query by query, what the per-query functions give.

``pointwise_answers`` does the training set's work once per call; the
per-query library functions redo it at every query.  Each test runs both
over the same queries and compares the answers, the inconsistencies (as
``repr``, so every bit counts), the counterpart counts and, where a query
fails, the error class, its message and the query it happens at.
"""

import random

import pytest

from minconsist import (
    EmptyLeaf,
    EmptyNeighborhood,
    FeatureVector,
    FixedRadius,
    KExceedsSampleSize,
    KNearest,
    MinconsistError,
    NeighborhoodSpec,
    NonDisjointValueSets,
    SchemaMismatch,
    TreeLeaf,
    TreeNode,
    distance,
    dtree_predict,
    knn_predict,
    nb_predict,
    smoothing_case_inconsistency,
    smoothing_counterparts,
    smoothing_fit,
    training_set,
)
from minconsist.pointwise import TreePartition, pointwise_answers, pointwise_fit

TREE_DEFAULTS = {"max_depth": 8, "min_leaf_size": 1, "purity_threshold": 0.0}


def vec(*values):
    return FeatureVector.of(*values)


def reference(family, params, tree, training):
    """The per-query path: (answer, inconsistency, count) at one query."""

    def answer(x0):
        if family == "smoothing":
            mode = KNearest(params["k"]) if "k" in params else FixedRadius(params["radius"])
            spec = NeighborhoodSpec(mode, params["metric"])
            value = smoothing_fit(x0, training, spec).value
            cps = smoothing_counterparts(x0, training, spec)
            return value, smoothing_case_inconsistency(value, cps), len(cps)
        if family == "knn":
            label, report = knn_predict(x0, training, params["k"], params["metric"])
        elif family == "dtree":
            label, report = dtree_predict(x0, tree, training)
        else:
            label, report = nb_predict(x0, training)
        return label, report.total, sum(e.counterpart_count for e in report.entries)

    return answer


def outcomes(answers):
    """Each answer as reprs, up to and including the first error (class, message)."""
    out = []
    try:
        for value, mu, count in answers:
            out.append((repr(value), repr(mu), count))
    except MinconsistError as exc:
        out.append((type(exc), str(exc)))
    return out


def assert_same(family, params, training, queries, tree=None):
    if tree is None:
        tree = pointwise_fit(family, params, training)
    engine = outcomes(pointwise_answers(family, params, tree, training, queries))
    per_query = reference(family, params, tree, training)
    expected = outcomes(per_query(x0) for x0 in queries)
    assert engine == expected
    return engine


# ---------------------------------------------------------------------------
# Seeded samples


def numeric_sample(rng, m, n, grid):
    """Distinct points: small integer grids (many distance ties) or floats."""
    points = set()
    while len(points) < m:
        if grid:
            points.add(tuple(rng.randrange(4) for _ in range(n)))
        else:
            points.add(tuple(round(rng.uniform(-3.0, 3.0), rng.choice((1, 3, 17)))
                             for _ in range(n)))
    return [list(p) for p in points]


def numeric_queries(rng, training, grid, count):
    n = training.n
    fresh = [vec(*(rng.randrange(-1, 5) if grid else rng.uniform(-4.0, 4.0)
                   for _ in range(n))) for _ in range(count)]
    return list(training.features) + fresh  # the leave-in pass, then new points


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("grid", [True, False], ids=["grid", "floats"])
def test_neighborhood_families_match(seed, metric, grid):
    rng = random.Random(f"{seed}:{metric}:{grid}")
    m, n = rng.randrange(1, 26), rng.randrange(1, 5)
    xs = numeric_sample(rng, min(m, 4 ** n) if grid else m, n, grid)
    labels = training_set([(x, rng.randrange(2)) for x in xs])
    reals = training_set([(x, rng.choice((0, 1, -2, 0.5, rng.uniform(-9, 9)))) for x in xs])
    queries = numeric_queries(rng, labels, grid, 15)
    for k in {1, 2, rng.randrange(1, labels.m + 1), labels.m}:
        assert_same("knn", {"k": k, "metric": metric}, labels, queries)
        assert_same("smoothing", {"k": k, "metric": metric}, reals, queries)
    # radii on exact distances, so cases sit on the boundary
    a, b = rng.choice(queries), rng.choice(labels.features)
    for radius in {1.0, 2.5, distance(a, b, metric)}:
        if radius > 0.0:
            assert_same("smoothing", {"radius": radius, "metric": metric}, reals,
                        [q for q in queries if _within(q, reals, radius, metric)])


def _within(x0, training, radius, metric):
    try:
        smoothing_counterparts(x0, training, NeighborhoodSpec(FixedRadius(radius), metric))
    except EmptyNeighborhood:
        return False
    return True


@pytest.mark.parametrize("seed", range(12))
def test_dtree_matches(seed):
    rng = random.Random(f"dtree:{seed}")
    n = rng.randrange(1, 4)
    xs = numeric_sample(rng, rng.randrange(1, min(40, 4 ** n) + 1), n, grid=True)
    training = training_set([(x, rng.randrange(2)) for x in xs])
    queries = list(training.features) + [
        vec(*(rng.randrange(4) for _ in range(n))) for _ in range(20)
    ]
    for params in (TREE_DEFAULTS,
                   {"max_depth": rng.randrange(1, 4), "min_leaf_size": rng.randrange(1, 4),
                    "purity_threshold": rng.choice((0.0, 0.2, 0.5))}):
        assert_same("dtree", params, training, queries)


@pytest.mark.parametrize("seed", range(12))
def test_nb_matches(seed):
    rng = random.Random(f"nb:{seed}")
    n = rng.randrange(1, 4)
    symbols = [[f"{'abc'[j]}{i}" for i in range(rng.randrange(1, 4))] for j in range(n)]
    points = {tuple(rng.choice(s) for s in symbols) for _ in range(30)}
    training = training_set([(p, rng.randrange(2)) for p in sorted(points)])
    unseen = [[f"{'abc'[j]}9", *s] for j, s in enumerate(symbols)]  # one unseen value each
    queries = list(training.features) + [
        vec(*(rng.choice(s) for s in unseen)) for _ in range(20)
    ]
    assert_same("nb", {}, training, queries)


# ---------------------------------------------------------------------------
# Errors: the same class and message, at the same query


def test_k_beyond_the_sample():
    training = training_set([((0.0,), 1), ((1.0,), 0), ((3.0,), 1)])
    for family in ("knn", "smoothing"):
        out = assert_same(family, {"k": 4, "metric": "euclidean"}, training, [vec(0.5)])
        assert out == [(KExceedsSampleSize, "k=4 but only 3 cases")]


def test_empty_radius_after_two_answers():
    training = training_set([((0.0,), 1.0), ((1.0,), 2.0), ((5.0,), 9.0)])
    out = assert_same("smoothing", {"radius": 1.5, "metric": "euclidean"}, training,
                      [vec(0.5), vec(5.0), vec(20.0), vec(1.0)])
    assert len(out) == 3
    assert out[2][0] is EmptyNeighborhood


def test_nominal_column_under_knn():
    training = training_set([((0.0, "a"), 1), ((1.0, "b"), 0)])
    out = assert_same("knn", {"k": 1, "metric": "euclidean"}, training, [vec(0.0, "a")])
    assert out == [(SchemaMismatch, "feature 2 is nominal; it has no distance")]
    numeric = training_set([((0.0, 1.0), 1), ((1.0, 2.0), 0)])
    out = assert_same("knn", {"k": 1, "metric": "manhattan"}, numeric,
                      [vec(0.0, 1.0), vec("a", 1.0), vec(1.0)])
    assert out[1:] == [(SchemaMismatch, "feature 1 is nominal; it has no distance")]
    out = assert_same("smoothing", {"k": 1, "metric": "euclidean"}, numeric, [vec(1.0)])
    assert out == [(SchemaMismatch, "vectors of dimension 2 and 1")]


def test_query_value_shared_between_positions():
    training = training_set([(("a0", "b0"), 1), (("a1", "b1"), 0), (("a0", "b1"), 0)])
    queries = [vec("a0", "b0"), vec("a9", "b9"), vec("a0", "a1"), vec("b0", "b1")]
    out = assert_same("nb", {}, training, queries)
    assert out[2] == (NonDisjointValueSets, "features 1 and 2 share value(s) ['a1']")
    for query in (vec("zz", "zz"), vec("b1", "b9"), vec("a0", "b0", "c0"), vec("a0", 3)):
        assert_same("nb", {}, training, [vec("a1", "b0"), query])
    shared = training_set([(("s", "b0"), 1), (("a1", "s"), 0)])
    out = assert_same("nb", {}, shared, [vec("a1", "b0")])
    assert out[0][0] is NonDisjointValueSets


def test_empty_leaf_when_a_query_reaches_it():
    training = training_set([((0,), 1), ((1,), 0), ((2,), 1)])
    tree = TreePartition(TreeNode(0, 1, TreeLeaf(0, (0, 1, 2)), TreeLeaf(1, ())), 1)
    out = assert_same("dtree", TREE_DEFAULTS, training, [vec(0), vec(1), vec(3), vec(0)],
                      tree=tree)
    assert out[2] == (EmptyLeaf, "leaf 1 holds no cases")


@pytest.mark.parametrize("family", ["knn", "dtree", "nb"])
def test_labels_outside_zero_one(family):
    if family == "nb":
        training = training_set([(("a",), 1), (("b",), 2)])
        queries, params, tree = [vec("a")], {}, None
    else:
        training = training_set([((0,), 1), ((1,), 2)])
        queries, params = [vec(0)], {"k": 1, "metric": "euclidean", **TREE_DEFAULTS}
        tree = TreePartition(TreeLeaf(0, (0, 1)), 1)
    out = assert_same(family, params, training, queries, tree=tree)
    assert out == [(SchemaMismatch, "case 2 feedback 2 outside {0, 1}")]
