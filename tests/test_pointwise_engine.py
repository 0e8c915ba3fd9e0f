"""The batch engine against brute force, query by query.

``pointwise_answers`` is the one implementation of each pointwise rule.
Each test runs it over seeded samples and compares, at every query, the
answer, the inconsistency (as ``repr``, so every bit counts) and the
counterpart count with a reference computed apart from the library:
the oracle's majority vote and naive-Bayes product, and plain code for
the neighborhood mean and the leaf vote.  Where a query fails, the
error class, its message and the query it happens at are written out.
"""

import math
import random

import pytest

from minconsist import (
    EmptyLeaf,
    EmptyNeighborhood,
    FeatureVector,
    KExceedsSampleSize,
    MinconsistError,
    NonDisjointValueSets,
    SchemaMismatch,
    TreeLeaf,
    TreeNode,
    training_set,
)
from minconsist.oracle import brute_knn_majority, brute_nb_total
from minconsist.pointwise import TreePartition, pointwise_answers, pointwise_fit

TREE_DEFAULTS = {"max_depth": 8, "min_leaf_size": 1, "purity_threshold": 0.0}


def vec(*values):
    return FeatureVector.of(*values)


def brute_distance(x, y, metric):
    total = 0.0
    for a, b in zip(x.values, y.values):
        total += (a - b) * (a - b) if metric == "euclidean" else abs(a - b)
    return math.sqrt(total) if metric == "euclidean" else total


def neighbors(x0, training, params):
    """Feedbacks of the cases the neighborhood rule takes, in training order."""
    dists = [brute_distance(case.x, x0, params["metric"]) for case in training.cases]
    if params.get("k", 0) > training.m:
        raise KExceedsSampleSize(f"k={params['k']} but only {training.m} cases")
    cut = sorted(dists)[params["k"] - 1] if "k" in params else params["radius"]
    return [case.y for case, d in zip(training.cases, dists) if d <= cut]


def reference(family, params, tree, training, x0):
    """(answer, inconsistency, count) at one query, by brute force."""
    if family == "nb":
        totals = [brute_nb_total(x0, training, label) for label in (0, 1)]
        label = 0 if totals[0] <= totals[1] else 1
        count = sum(case.x.values[pos] == v
                    for case in training.cases for pos, v in enumerate(x0.values))
        return label, totals[label], count
    if family == "dtree":
        ys = [training.cases[i].y for i in tree.route(x0).case_indices]
    else:
        ys = neighbors(x0, training, params)
    mean = 0.0
    for y in ys:
        mean += y
    mean /= len(ys)
    if family == "smoothing":
        return mean, 0.0, len(ys)  # the mean is the answer, at zero gap
    if family == "knn":
        label = brute_knn_majority(x0, training, params["k"], params["metric"])
    else:
        label = 1 if mean > 0.5 else 0
    return label, abs(label - mean), len(ys)


def outcomes(answers):
    """Each answer as reprs, up to and including the first error (class, message)."""
    out = []
    try:
        for value, mu, count in answers:
            out.append((repr(value), repr(mu), count))
    except MinconsistError as exc:
        out.append((type(exc), str(exc)))
    return out


def engine(family, params, training, queries, tree=None):
    if tree is None:
        tree = pointwise_fit(family, params, training)
    return outcomes(pointwise_answers(family, params, tree, training, queries))


def assert_brute(family, params, training, queries):
    tree = pointwise_fit(family, params, training)
    expected = outcomes(reference(family, params, tree, training, x0) for x0 in queries)
    assert engine(family, params, training, queries, tree) == expected


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
        assert_brute("knn", {"k": k, "metric": metric}, labels, queries)
        assert_brute("smoothing", {"k": k, "metric": metric}, reals, queries)
    # radii on exact distances, so cases sit on the boundary
    a, b = rng.choice(queries), rng.choice(labels.features)
    for radius in {1.0, 2.5, brute_distance(a, b, metric)}:
        if radius > 0.0:
            params = {"radius": radius, "metric": metric}
            assert_brute("smoothing", params, reals,
                         [q for q in queries if neighbors(q, reals, params)])


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
        assert_brute("dtree", params, training, queries)


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
    assert_brute("nb", {}, training, queries)


# ---------------------------------------------------------------------------
# Errors: the class and message, at the query where they happen


def test_k_beyond_the_sample():
    training = training_set([((0.0,), 1), ((1.0,), 0), ((3.0,), 1)])
    for family in ("knn", "smoothing"):
        out = engine(family, {"k": 4, "metric": "euclidean"}, training, [vec(0.5)])
        assert out == [(KExceedsSampleSize, "k=4 but only 3 cases")]


def test_empty_radius_after_two_answers():
    training = training_set([((0.0,), 1.0), ((1.0,), 2.0), ((5.0,), 9.0)])
    out = engine("smoothing", {"radius": 1.5, "metric": "euclidean"}, training,
                 [vec(0.5), vec(5.0), vec(20.0), vec(1.0)])
    assert out == [
        ("1.5", "0.0", 2),
        ("9.0", "0.0", 1),
        (EmptyNeighborhood, "no case within radius 1.5 of (20.0,)"),
    ]


def test_nominal_column_under_knn():
    training = training_set([((0.0, "a"), 1), ((1.0, "b"), 0)])
    out = engine("knn", {"k": 1, "metric": "euclidean"}, training, [vec(0.0, "a")])
    assert out == [(SchemaMismatch, "feature 2 is nominal; it has no distance")]
    numeric = training_set([((0.0, 1.0), 1), ((1.0, 2.0), 0)])
    out = engine("knn", {"k": 1, "metric": "manhattan"}, numeric,
                 [vec(0.0, 1.0), vec("a", 1.0), vec(1.0)])
    assert out == [("1", "0.0", 1), (SchemaMismatch, "feature 1 is nominal; it has no distance")]
    out = engine("smoothing", {"k": 1, "metric": "euclidean"}, numeric, [vec(1.0)])
    assert out == [(SchemaMismatch, "vectors of dimension 2 and 1")]


def test_query_value_shared_between_positions():
    training = training_set([(("a0", "b0"), 1), (("a1", "b1"), 0), (("a0", "b1"), 0)])
    queries = [vec("a0", "b0"), vec("a9", "b9"), vec("a0", "a1"), vec("b0", "b1")]
    assert engine("nb", {}, training, queries) == [
        ("1", "0.0", 3),
        ("0", "0.25", 0),
        (NonDisjointValueSets, "features 1 and 2 share value(s) ['a1']"),
    ]
    for query, error in [
        (vec("zz", "zz"), (NonDisjointValueSets, "features 1 and 2 share value(s) ['zz']")),
        (vec("b1", "b9"), (NonDisjointValueSets, "features 1 and 2 share value(s) ['b1']")),
        (vec("a0", "b0", "c0"), (SchemaMismatch, "query has 3 features, training has 2")),
        (vec("a0", 3), (SchemaMismatch, "feature 2 must be nominal, got 3")),
    ]:
        assert engine("nb", {}, training, [vec("a1", "b0"), query]) == [("0", "0.0", 2), error]
    shared = training_set([(("s", "b0"), 1), (("a1", "s"), 0)])
    assert engine("nb", {}, shared, [vec("a1", "b0")]) == [
        (NonDisjointValueSets, "features 1 and 2 share value(s) ['s']")
    ]


def test_empty_leaf_when_a_query_reaches_it():
    training = training_set([((0,), 1), ((1,), 0), ((2,), 1)])
    tree = TreePartition(TreeNode(0, 1, TreeLeaf(0, (0, 1, 2)), TreeLeaf(1, ())), 1)
    out = engine("dtree", TREE_DEFAULTS, training, [vec(0), vec(1), vec(3), vec(0)], tree)
    leaf_0 = ("1", repr(1 - 2 / 3), 3)
    assert out == [leaf_0, leaf_0, (EmptyLeaf, "leaf 1 holds no cases")]


@pytest.mark.parametrize("family", ["knn", "dtree", "nb"])
def test_labels_outside_zero_one(family):
    if family == "nb":
        training = training_set([(("a",), 1), (("b",), 2)])
        queries, params, tree = [vec("a")], {}, None
    else:
        training = training_set([((0,), 1), ((1,), 2)])
        queries, params = [vec(0)], {"k": 1, "metric": "euclidean", **TREE_DEFAULTS}
        tree = TreePartition(TreeLeaf(0, (0, 1)), 1)
    out = engine(family, params, training, queries, tree)
    assert out == [(SchemaMismatch, "case 2 feedback 2 outside {0, 1}")]

