"""The pointwise rules against brute force, query by query.

Each pointwise family is one rule (``_smoothing``, ``_knn``,
``_leaf_answers``, ``_nb``) over a block of queries.  Each test runs the
rules over seeded samples and compares, at every query, the answer, the
inconsistency (as ``repr``, so every bit counts) and the counterpart
count with a reference computed apart from the library: the oracle's
majority vote and naive-Bayes product, and plain code for the
neighborhood mean and the leaf vote.  Where a query fails, the error
class, its message and the query it happens at are written out.  The
family's one-query function (``smoothing_fit``, ``knn_predict``,
``dtree_predict``, ``nb_predict``) must agree with its rule at every query.
"""

import itertools
import math
import random
import tracemalloc

import pytest

from minconsist import (
    EmptyLeaf,
    EmptyNeighborhood,
    FeatureColumns,
    FeatureVector,
    KExceedsSampleSize,
    MinconsistError,
    NonDisjointValueSets,
    SchemaMismatch,
    TreeConfig,
    TreeLeaf,
    TreeNode,
    dtree_predict,
    knn_predict,
    nb_predict,
    pointwise,
    smoothing_fit,
    training_set,
)
from minconsist.oracle import brute_knn_majority, brute_nb_total
from minconsist.pointwise import KNearest, NeighborhoodSpec, TreePartition, dtree_build

TREE_DEFAULTS = {"max_depth": 8, "min_leaf_size": 1, "purity_threshold": 0.0}


def vec(*values):
    return FeatureVector.of(*values)


FAR = 2.0 ** -600  # the scale a distance beyond the float range is measured again at


def brute_distance(x, y, metric, scale=1):
    total = 0.0
    for a, b in zip(x.values, y.values):
        a, b = a * scale, b * scale
        total += (a - b) * (a - b) if metric == "euclidean" else abs(a - b)
    return math.sqrt(total) if metric == "euclidean" else total


def neighbors(x0, training, params):
    """Feedbacks of the cases the neighborhood rule takes, in training order.

    A distance beyond the float range lies beyond every finite one; such
    distances are compared with each other, and with the radius, at ``FAR``.
    """
    keys = []
    for case in training.cases:
        d = brute_distance(case.x, x0, params["metric"])
        keys.append((d, brute_distance(case.x, x0, params["metric"], FAR) if d == math.inf
                     else 0.0))
    if params.get("k", 0) > training.m:
        raise KExceedsSampleSize(f"k={params['k']} but only {training.m} cases")
    if "k" in params:
        cut = sorted(keys)[params["k"] - 1]
        return [case.y for case, key in zip(training.cases, keys) if key <= cut]
    radius = params["radius"]
    return [case.y for case, (d, far) in zip(training.cases, keys)
            if d <= radius or d == math.inf and far <= radius * FAR]


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


def grown(family, params, training):
    """The tree the rule answers ``dtree`` queries from; the other families use none."""
    return dtree_build(training, TreeConfig(**params)) if family == "dtree" else None


def engine(family, params, training, queries, tree=None):
    """The outcomes of the family's rule at ``queries``, which its one-query function matches."""
    if tree is None:
        tree = grown(family, params, training)
    out = outcomes(blocks(family, params, tree, training, queries))
    assert one_query_outcomes(family, params, tree, training, queries) == [
        shown[:1] if family == "smoothing" and len(shown) == 3 else shown for shown in out
    ]
    return out


def rule(family, params, tree, training, queries):
    """The answers of the family's rule at the block ``queries``."""
    if family == "dtree":
        return pointwise._leaf_answers(tree, training, queries)
    if family == "nb":
        return pointwise._nb(training, queries)
    neighborhood = pointwise._knn if family == "knn" else pointwise._smoothing
    return neighborhood(pointwise._neighborhood(params), training, queries)


def blocks(family, params, tree, training, queries):
    """The rule's answers at the vectors ``queries``, in order.

    A rule takes a block of columns, all of one width and each of one
    kind, so each run of vectors of one width, with symbols at the same
    positions, goes in as a block of its own.
    """
    for _, run in itertools.groupby(queries, key=lambda x: [isinstance(v, str) for v in x.values]):
        yield from rule(family, params, tree, training, FeatureColumns.of(list(run)))


def one_query_outcomes(family, params, tree, training, queries):
    """What the family's one-query function reports at each query, as ``outcomes`` shows it.

    ``smoothing_fit`` reports the answer alone; the others report the
    whole triple.  The outcomes stop at the first error, as a rule's do.
    """
    out = []
    for x0 in queries:
        try:
            if family == "smoothing":
                h = smoothing_fit(x0, training, pointwise._neighborhood(params))
                out.append((repr(h.value),))
                continue
            if family == "knn":
                label, report = knn_predict(x0, training, params["k"], params["metric"])
            elif family == "dtree":
                label, report = dtree_predict(x0, tree, training)
            else:
                label, report = nb_predict(x0, training)
            out.append((repr(label), repr(report.total), sum(report.counts)))
        except MinconsistError as exc:
            out.append((type(exc), str(exc)))
            break
    return out


def assert_brute(family, params, training, queries):
    tree = grown(family, params, training)
    expected = outcomes(reference(family, params, tree, training, x0) for x0 in queries)
    assert engine(family, params, training, queries, tree) == expected


# ---------------------------------------------------------------------------
# Seeded samples


def numeric_sample(rng, m, n, grid, side=4):
    """Distinct points: integer lattices of ``side`` values a position (many ties) or floats."""
    points = set()
    while len(points) < m:
        if grid:
            points.add(tuple(rng.randrange(side) for _ in range(n)))
        else:
            points.add(tuple(round(rng.uniform(-3.0, 3.0), rng.choice((1, 3, 17)))
                             for _ in range(n)))
    return [list(p) for p in points]


def numeric_queries(rng, training, grid, count):
    n = training.n
    fresh = [vec(*(rng.randrange(-1, 5) if grid else rng.uniform(-4.0, 4.0)
                   for _ in range(n))) for _ in range(count)]
    return [case.x for case in training.cases] + fresh  # the leave-in pass, then new points


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
    a, b = rng.choice(queries), rng.choice(labels.cases).x
    for radius in {1.0, 2.5, brute_distance(a, b, metric)}:
        if radius > 0.0:
            params = {"radius": radius, "metric": metric}
            assert_brute("smoothing", params, reals,
                         [q for q in queries if neighbors(q, reals, params)])


def tie_cut(x0, training, metric):
    """A k whose k-th nearest case ties the next one, so the cut falls inside a tie; or None."""
    dists = sorted(brute_distance(case.x, x0, metric) for case in training.cases)
    return next((k for k in range(1, len(dists)) if dists[k - 1] == dists[k]), None)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("grid", [True, False], ids=["lattice", "floats"])
def test_neighborhood_families_match_across_many_cells(seed, metric, grid):
    # 60 to 300 cases give the search many cells a feature; n > 3 adds
    # features the cells do not index.  Lattices tie most distances.
    rng = random.Random(f"cells:{seed}:{metric}:{grid}")
    m, n = rng.randrange(60, 301), rng.randrange(1, 6)
    side = max(4, math.ceil((2 * m) ** (1 / n)))
    xs = numeric_sample(rng, m, n, grid, side)
    labels = training_set([(x, rng.randrange(2)) for x in xs])
    reals = training_set([(x, rng.choice((0, 1, -2, 0.5, rng.uniform(-9, 9)))) for x in xs])
    # training points (cell edges are among them), fresh points and points
    # beyond the data's range on either side
    low, high = (-2, side + 2) if grid else (-4.0, 4.0)
    draw = rng.randrange if grid else rng.uniform
    queries = rng.sample([case.x for case in labels.cases], 24) + [
        vec(*(draw(low, high) for _ in range(n))) for _ in range(12)
    ] + [vec(*(bound * 3 for _ in range(n))) for bound in (low, high)]
    ties = {tie_cut(q, labels, metric) for q in queries[:12]} - {None}
    for k in {1, min(ties, default=2), labels.m}:
        assert_brute("knn", {"k": k, "metric": metric}, labels, queries)
        assert_brute("smoothing", {"k": k, "metric": metric}, reals, queries)
    # radii on exact case distances, so cases sit on the boundary
    for a, b in ((queries[0], labels.cases[0].x), (queries[30], rng.choice(labels.cases).x)):
        radius = brute_distance(a, b, metric)
        if radius > 0.0:
            params = {"radius": radius, "metric": metric}
            assert_brute("smoothing", params, reals,
                         [q for q in queries if neighbors(q, reals, params)])


def far_samples(rng, m, n, grid, scale, side=4):
    """Training sets, with labels and with real feedbacks, of sample points at ``scale``."""
    step = scale * 3 / (side - 1) if side > 4 else scale
    xs = [[v * (step if grid else scale) for v in x]
          for x in numeric_sample(rng, m, n, grid, side)]
    labels = training_set([(x, rng.randrange(2)) for x in xs])
    reals = training_set([(x, rng.choice((0, 1, -2, 0.5))) for x in xs])
    return labels, reals


def assert_brute_beyond_the_float_range(rng, labels, reals, metric, scale):
    queries = [case.x for case in labels.cases] + [
        vec(*(rng.uniform(-3.0, 3.0) * scale for _ in range(labels.n))) for _ in range(10)
    ]
    for k in {1, 2, rng.randrange(1, labels.m + 1), labels.m}:
        assert_brute("knn", {"k": k, "metric": metric}, labels, queries)
        assert_brute("smoothing", {"k": k, "metric": metric}, reals, queries)
    for radius in (scale, 2.5 * scale, 1e308):
        params = {"radius": radius, "metric": metric}
        assert_brute("smoothing", params, reals,
                     [q for q in queries if neighbors(q, reals, params)])


FAR_SCALES = [("euclidean", 1e150), ("euclidean", 1e200), ("euclidean", 1e300),
              ("manhattan", 1e200), ("manhattan", 5e307)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("metric, scale", FAR_SCALES)
def test_neighborhood_families_match_beyond_the_float_range(seed, metric, scale):
    # At 1e150 no total overflows; at the larger scales some or all do.
    rng = random.Random(f"far:{seed}:{metric}:{scale}")
    n, grid = rng.randrange(1, 4), rng.random() < 0.5
    m = min(rng.randrange(1, 16), 4 ** n if grid else 16)
    labels, reals = far_samples(rng, m, n, grid, scale)
    assert_brute_beyond_the_float_range(rng, labels, reals, metric, scale)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("metric, scale", FAR_SCALES)
def test_neighborhood_families_match_beyond_the_float_range_across_cells(seed, metric, scale):
    # As above, with 60 to 100 cases, so the search cuts each feature into
    # several cells whose edges lie at the scale.
    rng = random.Random(f"far-cells:{seed}:{metric}:{scale}")
    n, grid = rng.randrange(1, 4), rng.random() < 0.5
    m = rng.randrange(60, 101)
    labels, reals = far_samples(rng, m, n, grid, scale, max(4, math.ceil((2 * m) ** (1 / n))))
    assert_brute_beyond_the_float_range(rng, labels, reals, metric, scale)


@pytest.mark.parametrize("n", [1, 2])
def test_edges_whose_gap_to_the_query_overflows_prune_nothing(n):
    # Cases near +1e308 and -1e308: from a query near -1e308 the gap to the
    # upper cells' edges overflows to inf, which bounds nothing, so those
    # cells are searched as well; radius 1e308 takes cases on both sides.
    rng = random.Random(f"edges:{n}")
    xs = {tuple(rng.choice((-1, 1)) * rng.uniform(0.5, 1.0) * 1e308 for _ in range(n))
          for _ in range(80)}
    reals = training_set([(x, rng.choice((0, 1, -2, 0.5))) for x in sorted(xs)])
    queries = [vec(*(-v for v in reals.cases[i].x.values)) for i in range(0, 80, 7)] + [
        vec(*(-1e308 for _ in range(n))), vec(*(1e308 for _ in range(n))), vec(*(0.0,) * n)
    ]
    for params in ({"radius": 1e308, "metric": "manhattan"},
                   {"k": 3, "metric": "manhattan"}, {"k": 3, "metric": "euclidean"}):
        assert_brute("smoothing", params, reals,
                     [q for q in queries if neighbors(q, reals, params)])


@pytest.fixture
def measured(monkeypatch):
    """The engine's distance passes so far, as [passes, rows]."""
    tally = [0, 0]
    column_distances = pointwise._column_distances

    def counted(columns, x0, metric):
        tally[0] += 1
        tally[1] += len(columns[0])
        return column_distances(columns, x0, metric)

    monkeypatch.setattr(pointwise, "_column_distances", counted)
    return tally


def repeated_sample(rng, m, n, repeated):
    """Points whose first ``repeated`` features take only the values 0 and 1; floats after."""
    return [[rng.randrange(2) for _ in range(repeated)]
            + [rng.uniform(-3.0, 3.0) for _ in range(n - repeated)] for _ in range(m)]


@pytest.mark.parametrize("case", ["wide radius", "k = m", "repeated values", "repeated, 3-D"])
def test_a_query_measures_at_most_two_blocks(measured, case):
    # One block for a radius; for k, a block of k cases and, when cases
    # outside it may come nearer than its k-th, one larger block.  With
    # 1-D data every case has a cell of about four; a radius wider than
    # the data, or k = m, reaches all of them, and features of two values
    # put ties at every cell edge.
    rng = random.Random(case)
    m = 400 if case.startswith("repeated") else 300
    if case.startswith("repeated"):
        xs = repeated_sample(rng, m, *((3, 2) if "3-D" in case else (2, 1)))
    else:
        xs = [[x] for x in rng.sample(range(10 ** 6), m)]
    labels = training_set([(x, rng.randrange(2)) for x in xs])
    params = {"wide radius": {"radius": 1e7, "metric": "manhattan"},
              "k = m": {"k": m, "metric": "euclidean"}}.get(case, {"k": 5, "metric": "euclidean"})
    family = "smoothing" if "radius" in params else "knn"
    for x0 in [case.x for case in labels.cases][:60]:  # each query on a grid of its own
        measured[:] = [0, 0]
        assert outcomes(blocks(family, params, None, labels, [x0])) == outcomes(
            [reference(family, params, None, labels, x0)])
        passes, rows = measured
        assert passes <= 2 and rows <= 2 * m
        if "radius" in params:
            assert (passes, rows) == (1, m)


def test_the_blocks_kept_stay_within_their_bound(monkeypatch):
    # A few hundred cases kept at most, or one block past that bound: a
    # wide radius measures every query's block, the whole set, once.
    monkeypatch.setattr(pointwise, "_KEPT", 250)
    rng = random.Random("kept")
    reals = training_set([([x], rng.uniform(-9, 9)) for x in rng.sample(range(10 ** 6), 300)])
    spec = pointwise.NeighborhoodSpec(pointwise.FixedRadius(1e7))
    grid = pointwise._CellGrid(tuple(tuple(map(float, column))
                                     for column in reals.columns.columns), spec)
    for x0 in reals.columns.rows():
        assert len(grid.selected(x0)) == 300
        kept = [len(ids) for ids, _ in grid.blocks.values()]
        assert sum(kept) == grid.kept <= max(250, max(kept))


def test_a_search_of_the_whole_set_holds_little_memory():
    # Every query of this 1-D leave-in pass measures all 600 cases.  The
    # blocks kept are bounded, where keeping every block by cell and ring
    # would hold about 100 MB.
    rng = random.Random("held")
    reals = training_set([([x], rng.uniform(-9, 9)) for x in rng.sample(range(10 ** 6), 600)])
    for params in ({"radius": 1e7, "metric": "manhattan"}, {"k": 600, "metric": "euclidean"}):
        tracemalloc.start()
        try:
            spec = pointwise._neighborhood(params)
            assert len(list(pointwise._smoothing(spec, reals, reals.columns))) == 600
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


@pytest.mark.parametrize("kept", [0, 40])
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_the_selection_does_not_depend_on_the_blocks_kept(monkeypatch, kept, metric):
    monkeypatch.setattr(pointwise, "_KEPT", kept)
    rng = random.Random(f"kept:{kept}:{metric}")
    xs = numeric_sample(rng, 120, 2, grid=True, side=12)
    labels = training_set([(x, rng.randrange(2)) for x in xs])
    queries = [case.x for case in labels.cases] + [
        vec(rng.randrange(-2, 14), rng.randrange(-2, 14)) for _ in range(20)
    ]
    for params in ({"k": 1, "metric": metric}, {"k": 7, "metric": metric},
                   {"radius": 2.0, "metric": metric}):
        family = "knn" if "k" in params else "smoothing"
        assert_brute(family, params, labels, [q for q in queries if neighbors(q, labels, params)])


def test_near_cases_keep_their_unscaled_distances():
    # The far case's total overflows, so the query's distances are taken
    # again; 1e-120 scaled with it would square to 0 and tie the case at 0.
    training = training_set([((0.0,), 1), ((1e-120,), 0), ((1e200,), 0)])
    queries = FeatureColumns.of([vec(0.0)])
    for k, answer in ((1, (1, 0.0, 1)), (2, (0, 0.5, 2)), (3, (0, 1 / 3, 3))):
        spec = NeighborhoodSpec(KNearest(k))
        assert list(pointwise._knn(spec, training, queries)) == [answer]


@pytest.mark.parametrize("tiny", [1e-160, 1e-270, 1e-300, 5e-324])
@pytest.mark.parametrize("scale", [1, 1e100, 1e200])
def test_a_difference_lost_to_scaling_ties_as_it_does_unscaled(scale, tiny):
    # Two cases differ only by ``tiny``, 2*scale from the query.  Unscaled,
    # tiny's term is absorbed in the total 4*scale**2 or its square is 0, so
    # they tie.  At 1e200 the totals overflow, and scaled by 2**-156, tiny
    # squares to 0 (1e-160), is subnormal (1e-270) or is 0 (1e-300, 5e-324):
    # they tie there too, and k=1 keeps both.
    training = training_set([((scale, tiny), 1), ((scale, 0), 0)])
    queries = FeatureColumns.of([vec(3 * scale, 0)])
    assert list(pointwise._knn(NeighborhoodSpec(KNearest(1)), training, queries)) == [(0, 0.5, 2)]
    assert brute_knn_majority(vec(3 * scale, 0), training, 1) == 0


@pytest.mark.parametrize("seed", range(12))
def test_dtree_matches(seed):
    rng = random.Random(f"dtree:{seed}")
    n = rng.randrange(1, 4)
    xs = numeric_sample(rng, rng.randrange(1, min(40, 4 ** n) + 1), n, grid=True)
    training = training_set([(x, rng.randrange(2)) for x in xs])
    queries = [case.x for case in training.cases] + [
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
    queries = [case.x for case in training.cases] + [
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


def test_the_first_query_at_an_empty_leaf_stops_the_answers():
    training = training_set([((0,), 1), ((1,), 0), ((2,), 1)])
    tree = TreePartition(
        TreeNode(0, 1, TreeLeaf(0, ()), TreeNode(0, 3, TreeLeaf(1, (0, 1, 2)), TreeLeaf(2, ()))), 1
    )
    leaf_1 = ("1", repr(1 - 2 / 3), 3)
    for queries, empty in (([2, 0, 5], 0), ([2, 5, 0], 2)):
        out = engine("dtree", TREE_DEFAULTS, training, [vec(q) for q in queries], tree)
        assert out == [leaf_1, (EmptyLeaf, f"leaf {empty} holds no cases")]


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

