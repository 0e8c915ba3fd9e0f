"""Query-time learners: local smoothing, k-nearest, decision tree, naive Bayes.

These learners answer at a single query point.  Their hypotheses are
constants anchored at the query, the baseline case is the hypothetical
case the hypothesis generates there (or, for naive Bayes, one per
feature), and the counterparts are observed cases selected around the
query: by distance, by tree subdomain, or by shared feature value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

from .core import (
    Aggregation,
    Case,
    CounterpartSet,
    EmptyLeaf,
    EmptyNeighborhood,
    FamilySpec,
    FeatureValue,
    FeatureVector,
    InconsistencyReport,
    InvalidParameter,
    KExceedsSampleSize,
    NonDisjointValueSets,
    Param,
    PointwiseHypothesis,
    ReportEntry,
    SchemaMismatch,
    TrainingSet,
    YKind,
    aggregate_mus,
    describe_hypothesis,
    least_inconsistent,
    register_family,
    require_labels,
)

METRICS = ("euclidean", "manhattan")
LABELS = (0, 1)  # the 0/1 classifiers' candidate answers, in tie-break order

K = Param("k", "--k", int, low=1, help="neighborhood size")
RADIUS = Param("radius", "--radius", float, low=0.0, strict=True, help="neighborhood radius")
METRIC = Param("metric", "--metric", str, default="euclidean", choices=METRICS,
               help="distance metric")
MAX_DEPTH = Param("max_depth", "--max-depth", int, default=8, low=1, help="tree depth limit")
MIN_LEAF = Param("min_leaf_size", "--min-leaf", int, default=1, low=1,
                 help="minimum leaf size")
PURITY = Param("purity_threshold", "--purity", float, default=0.0, low=0.0, high=0.5,
               help="purity stopping threshold")
TREE_PARAMS = (MAX_DEPTH, MIN_LEAF, PURITY)


def distance(x1: FeatureVector, x2: FeatureVector, metric: str = METRIC.default) -> float:
    """Distance between two number-valued feature vectors.

    Ordinal positions take part through their rank integers; nominal
    positions have no distance and are rejected.
    """
    return _column_distances([(v,) for v in x1.values], x2, metric)[0]


def _column_distances(
    columns: Sequence[Sequence[FeatureValue]], x0: FeatureVector, metric: str
) -> list[float]:
    """The distance from every row of the transposed ``columns`` to ``x0``.

    Each row's total starts at 0.0 and adds one term per position, in
    position order.  A nominal position, in the rows or in ``x0``, has
    no distance and is rejected.
    """
    if x0.n != len(columns):
        raise _dimensions(len(columns), x0.n)
    if metric not in METRICS:
        METRIC.check(metric)
    totals = [0.0] * len(columns[0])
    for pos, (column, b) in enumerate(zip(columns, x0.values)):
        if isinstance(column[0], str) or isinstance(b, str):  # columns hold one kind
            raise _nominal(pos)
        b = float(b)  # all-float terms: faster than mixed, and a huge int squares to inf
        if metric == "euclidean":
            totals = [t + (a - b) * (a - b) for t, a in zip(totals, column)]
        else:
            totals = [t + abs(a - b) for t, a in zip(totals, column)]
    return list(map(math.sqrt, totals)) if metric == "euclidean" else totals


def _dimensions(n1: int, n2: int) -> SchemaMismatch:
    return SchemaMismatch(f"vectors of dimension {n1} and {n2}")


def _nominal(pos: int) -> SchemaMismatch:
    return SchemaMismatch(f"feature {pos + 1} is nominal; it has no distance")


# ---------------------------------------------------------------------------
# Neighborhoods


@dataclass(frozen=True)
class KNearest:
    """Take the k closest cases; distance ties at the cut are all kept."""

    k: int

    def __post_init__(self) -> None:
        K.check(self.k)


@dataclass(frozen=True)
class FixedRadius:
    """Take every case within the radius (inclusive)."""

    radius: float

    def __post_init__(self) -> None:
        RADIUS.check(self.radius)


@dataclass(frozen=True)
class NeighborhoodSpec:
    mode: Union[KNearest, FixedRadius]
    metric: str = METRIC.default

    def __post_init__(self) -> None:
        if not isinstance(self.mode, (KNearest, FixedRadius)):
            raise InvalidParameter("mode must be KNearest or FixedRadius")
        METRIC.check(self.metric)


def _neighborhood(params: Mapping[str, object]) -> NeighborhoodSpec:
    """The neighborhood rule of a complete ``smoothing`` or ``knn`` parameter set."""
    mode = KNearest(params[K.key]) if K.key in params else FixedRadius(params[RADIUS.key])
    return NeighborhoodSpec(mode, params[METRIC.key])


def smoothing_counterparts(
    x0: FeatureVector, training: TrainingSet, spec: NeighborhoodSpec
) -> CounterpartSet:
    """Observed cases around the query, per the neighborhood rule.

    K-nearest keeps training order among the selected cases and extends
    past k when further cases tie the k-th distance exactly, so the
    selection never depends on how equal distances happen to sort.
    """
    dists = _column_distances(_columns(training), x0, spec.metric)
    return CounterpartSet(tuple(training.cases[i] for i in _chosen(dists, spec.mode, x0)))


def _columns(training: TrainingSet) -> tuple[tuple[FeatureValue, ...], ...]:
    """The training features transposed, one tuple per position; numbers become floats."""
    return tuple(column if isinstance(column[0], str) else tuple(map(float, column))
                 for column in zip(*(case.x.values for case in training.cases)))


def _chosen(
    dists: Sequence[float], mode: Union[KNearest, FixedRadius], x0: FeatureVector
) -> list[int]:
    """Indices, in training order, of the cases the neighborhood rule selects."""
    if isinstance(mode, KNearest):
        if mode.k > len(dists):
            raise KExceedsSampleSize(f"k={mode.k} but only {len(dists)} cases")
        cutoff = sorted(dists)[mode.k - 1]
        return [i for i, d in enumerate(dists) if d <= cutoff]
    chosen = [i for i, d in enumerate(dists) if d <= mode.radius]
    if not chosen:
        raise EmptyNeighborhood(f"no case within radius {mode.radius} of {x0.values!r}")
    return chosen


def smoothing_case_inconsistency(h_value: float, counterparts: CounterpartSet) -> float:
    """Absolute gap between the answer and the neighborhood's mean feedback."""
    if len(counterparts) == 0:
        raise EmptyNeighborhood("inconsistency against an empty neighborhood")
    return _gap(h_value, counterparts.feedbacks)


def _gap(value: float, feedbacks: Sequence[float]) -> float:
    return abs(value - _mean(feedbacks))


def _mean(values: Sequence[float]) -> float:
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def smoothing_fit(
    x0: FeatureVector, training: TrainingSet, spec: NeighborhoodSpec
) -> PointwiseHypothesis:
    """The inconsistency-minimal constant at the query: the neighborhood mean."""
    value, _, _ = next(_neighborhood_answers(False, spec, training, (x0,)))
    return PointwiseHypothesis(x0, value)


def _vote(feedbacks: Sequence[float]) -> tuple[int, float]:
    """The 0/1 answer closer to the mean label, with its gap; ties give 0."""
    return least_inconsistent(LABELS, lambda label: _gap(label, feedbacks))


def _reported(
    x0: FeatureVector, answers: Iterator[tuple[float, float, int]]
) -> tuple[int, InconsistencyReport]:
    """The engine's one answer at ``x0``, with its one-entry report."""
    label, mu, count = next(answers)
    entry = ReportEntry(Case(x0, label), mu, count)
    report = InconsistencyReport.build(
        [entry], Aggregation.SUM, describe_hypothesis(PointwiseHypothesis(x0, label))
    )
    return label, report


# ---------------------------------------------------------------------------
# k-nearest classification


def knn_predict(
    x0: FeatureVector, training: TrainingSet, k: int, metric: str = METRIC.default
) -> tuple[int, InconsistencyReport]:
    """Binary answer at the query, as an argmin over the two constants.

    The candidate answering 0 is tried first, so an exact tie (neighbor
    labels averaging one half) resolves to 0.
    """
    params = {K.key: k, METRIC.key: metric}
    return _reported(x0, pointwise_answers("knn", params, None, training, (x0,)))


# ---------------------------------------------------------------------------
# Decision trees over ordinal features


@dataclass(frozen=True)
class TreeConfig:
    """Stopping controls for tree construction."""

    max_depth: int = MAX_DEPTH.default
    min_leaf_size: int = MIN_LEAF.default
    purity_threshold: float = PURITY.default

    def __post_init__(self) -> None:
        for param in TREE_PARAMS:
            param.check(getattr(self, param.key))


def _tree_config(params: Mapping[str, object]) -> TreeConfig:
    return TreeConfig(**{param.key: params[param.key] for param in TREE_PARAMS})


@dataclass(frozen=True)
class TreeLeaf:
    """One subdomain of the partition, holding its training case indices."""

    leaf_id: int
    case_indices: tuple[int, ...]


@dataclass(frozen=True)
class TreeNode:
    """Binary split: cases with ``x[feature] <= threshold`` go left."""

    feature: int
    threshold: int
    left: "TreeNode | TreeLeaf"
    right: "TreeNode | TreeLeaf"


@dataclass(frozen=True)
class TreePartition:
    """An immutable partition of the ordinal feature space into leaves."""

    root: Union[TreeNode, TreeLeaf]
    n_features: int

    def route(self, x: FeatureVector) -> TreeLeaf:
        if x.n != self.n_features:
            raise SchemaMismatch(f"tree splits {self.n_features} features, vector has {x.n}")
        node = self.root
        while isinstance(node, TreeNode):
            node = node.left if x.values[node.feature] <= node.threshold else node.right
        return node

    def leaves(self) -> tuple[TreeLeaf, ...]:
        found: list[TreeLeaf] = []
        stack: list[Union[TreeNode, TreeLeaf]] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, TreeLeaf):
                found.append(node)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return tuple(sorted(found, key=lambda leaf: leaf.leaf_id))


def _impurity(labels: Sequence[float]) -> float:
    p = _mean(labels)
    return p * (1.0 - p)


def _minority_fraction(labels: Sequence[float]) -> float:
    p = _mean(labels)
    return min(p, 1.0 - p)


def _best_split(
    training: TrainingSet, indices: Sequence[int]
) -> tuple[int, int, float] | None:
    """Split with maximal size-weighted impurity decrease, or None.

    Ties break toward the lowest feature index, then the lowest
    threshold, so construction is deterministic.  Splits that fail to
    strictly decrease impurity are not offered.
    """
    labels = [training.cases[i].y for i in indices]
    parent = _impurity(labels)
    size = len(indices)
    best: tuple[int, int, float] | None = None
    for feature in range(training.n):
        values = sorted({training.cases[i].x.values[feature] for i in indices})
        for threshold in values[:-1]:
            left = [training.cases[i].y for i in indices
                    if training.cases[i].x.values[feature] <= threshold]
            right = [training.cases[i].y for i in indices
                     if training.cases[i].x.values[feature] > threshold]
            decrease = parent - (
                len(left) / size * _impurity(left)
                + len(right) / size * _impurity(right)
            )
            if decrease > 0.0 and (best is None or decrease > best[2]):
                best = (feature, threshold, decrease)
    return best


def dtree_build(training: TrainingSet, cfg: TreeConfig = TreeConfig()) -> TreePartition:
    """Grow a binary partition of the ordinal feature space.

    A node becomes a leaf when it reaches ``max_depth``, holds fewer
    than ``2 * min_leaf_size`` cases, is pure enough (minority fraction
    at or below ``purity_threshold``), or admits no impurity-decreasing
    split.
    """
    for idx, case in enumerate(training.cases):
        for pos, v in enumerate(case.x.values):
            if not isinstance(v, int) or isinstance(v, bool):
                raise SchemaMismatch(
                    f"case {idx + 1}, feature {pos + 1}: tree features must be ordinal ranks"
                )
    require_labels(training, YKind.BINARY01)

    counter = {"next_id": 0}

    def grow(indices: list[int], depth: int) -> Union[TreeNode, TreeLeaf]:
        if not indices:
            raise EmptyLeaf("a leaf with zero cases")
        labels = [training.cases[i].y for i in indices]
        stop = (
            depth >= cfg.max_depth
            or len(indices) < 2 * cfg.min_leaf_size
            or _minority_fraction(labels) <= cfg.purity_threshold
        )
        split = None if stop else _best_split(training, indices)
        if stop or split is None:
            leaf = TreeLeaf(counter["next_id"], tuple(indices))
            counter["next_id"] += 1
            return leaf
        feature, threshold, _ = split
        left = [i for i in indices if training.cases[i].x.values[feature] <= threshold]
        right = [i for i in indices if training.cases[i].x.values[feature] > threshold]
        return TreeNode(feature, threshold, grow(left, depth + 1), grow(right, depth + 1))

    return TreePartition(grow(list(range(training.m)), 0), training.n)


def dtree_counterparts(
    x0: FeatureVector, partition: TreePartition, training: TrainingSet
) -> CounterpartSet:
    """Observed cases sharing the query's subdomain."""
    return CounterpartSet(_leaf_cases(partition.route(x0), training))


def _leaf_cases(leaf: TreeLeaf, training: TrainingSet) -> tuple[Case, ...]:
    if not leaf.case_indices:
        raise EmptyLeaf(f"leaf {leaf.leaf_id} holds no cases")
    return tuple(training.cases[i] for i in leaf.case_indices)


def dtree_predict(
    x0: FeatureVector, partition: TreePartition, training: TrainingSet
) -> tuple[int, InconsistencyReport]:
    """Binary answer at the query from its subdomain's cases; ties give 0."""
    return _reported(x0, pointwise_answers("dtree", {}, partition, training, (x0,)))


# ---------------------------------------------------------------------------
# Naive Bayes over nominal features


@dataclass(frozen=True)
class TransformedProblem:
    """A nominal problem recast as single-feature cases.

    Each n-feature case splits into n one-feature cases; the pool keeps
    duplicates, so it is deliberately not a :class:`TrainingSet`.
    """

    pooled_values: frozenset[str]
    x0_parts: tuple[FeatureVector, ...]
    cases: tuple[Case, ...]


def nb_transform(x0: FeatureVector, training: TrainingSet) -> TransformedProblem:
    """Split every case (and the query) into per-feature single-value cases.

    Requires the observed value sets of distinct feature positions to be
    disjoint: after pooling, a value must still name its position.
    """
    _require_query_width(x0, training)
    observed = _observed_values(training.features)
    for pos, v in enumerate(_nominal_values(x0)):
        observed[pos].add(v)
    _require_disjoint(observed)
    pooled = frozenset().union(*observed)
    parts = tuple(FeatureVector((v,)) for v in x0.values)
    flat = tuple(
        Case(FeatureVector((v,)), case.y)
        for case in training.cases
        for v in case.x.values
    )
    return TransformedProblem(pooled, parts, flat)


def _require_query_width(x0: FeatureVector, training: TrainingSet) -> None:
    if x0.n != training.n:
        raise SchemaMismatch(f"query has {x0.n} features, training has {training.n}")


def _nominal_values(x: FeatureVector) -> tuple[str, ...]:
    for pos, v in enumerate(x.values):
        if not isinstance(v, str):
            raise SchemaMismatch(f"feature {pos + 1} must be nominal, got {v!r}")
    return x.values


def _observed_values(vectors: Sequence[FeatureVector]) -> list[set[str]]:
    """The set of values seen at each position; every value must be nominal."""
    observed: list[set[str]] = [set() for _ in range(vectors[0].n)]
    for x in vectors:
        for pos, v in enumerate(_nominal_values(x)):
            observed[pos].add(v)
    return observed


def _require_disjoint(observed: Sequence[set[str]]) -> None:
    for i in range(len(observed)):
        for j in range(i + 1, len(observed)):
            shared = observed[i] & observed[j]
            if shared:
                raise NonDisjointValueSets(
                    f"features {i + 1} and {j + 1} share value(s) {sorted(shared)!r}"
                )


def nb_predict(
    x0: FeatureVector, training: TrainingSet
) -> tuple[int, InconsistencyReport]:
    """Binary answer whose per-feature disagreement product is smallest.

    One baseline case per feature, scored against the training cases
    that share its value; the n scores multiply.  Ties resolve to 0.
    """
    tallies = next(_nb_tallies(training, (x0,)))
    label, _ = _nb_vote(tallies)
    entries = [
        ReportEntry(Case(FeatureVector((v,)), label), mu, n0 + n1)
        for v, mu, (n0, n1) in zip(x0.values, _nb_fractions(tallies, label), tallies)
    ]
    report = InconsistencyReport.build(
        entries, Aggregation.PRODUCT, describe_hypothesis(PointwiseHypothesis(x0, label))
    )
    return label, report


# ---------------------------------------------------------------------------
# The engine: every pointwise answer, from a complete parameter set


def pointwise_fit(
    family: str, params: Mapping[str, object], training: TrainingSet
) -> TreePartition | None:
    """What a pointwise model keeps from training: the grown tree for ``dtree``."""
    if family == "dtree":
        return dtree_build(training, _tree_config(params))
    return None


def pointwise_answers(
    family: str,
    params: Mapping[str, object],
    tree: TreePartition | None,
    training: TrainingSet,
    queries: Sequence[FeatureVector],
) -> Iterator[tuple[float, float, int]]:
    """(answer, query inconsistency, counterpart count) at each query, in order.

    ``tree`` is what :func:`pointwise_fit` returned.  This is the one
    implementation of each pointwise rule; the per-query functions
    (:func:`smoothing_fit`, :func:`knn_predict`, :func:`dtree_predict`,
    :func:`nb_predict`) run it on a single query.  The work that
    depends on the training set alone is done once per call: the label
    check, the transposed columns of ``smoothing`` and ``knn``, the
    value table of ``nb`` (with its check that every training value is
    nominal), and each ``dtree`` leaf's vote (when a query first
    reaches the leaf).  Answers are yielded as they are found, so a
    query that fails ends the iteration after the answers before it.
    """
    if family == "dtree":
        yield from _leaf_answers(tree, training, queries)
    elif family == "nb":
        for tallies in _nb_tallies(training, queries):
            label, mu = _nb_vote(tallies)
            yield label, mu, sum(n0 + n1 for n0, n1 in tallies)
    else:
        yield from _neighborhood_answers(family == "knn", _neighborhood(params), training, queries)


def _neighborhood_answers(
    vote: bool,
    spec: NeighborhoodSpec,
    training: TrainingSet,
    queries: Sequence[FeatureVector],
) -> Iterator[tuple[float, float, int]]:
    if vote:
        require_labels(training, YKind.BINARY01)
    columns = _columns(training)
    feedbacks = training.feedbacks
    for x0 in queries:
        chosen = _chosen(_column_distances(columns, x0, spec.metric), spec.mode, x0)
        ys = [feedbacks[i] for i in chosen]
        if vote:
            label, mu = _vote(ys)
            yield label, mu, len(ys)
        else:
            value = _mean(ys)
            yield value, _gap(value, ys), len(ys)


def _leaf_answers(
    tree: TreePartition, training: TrainingSet, queries: Sequence[FeatureVector]
) -> Iterator[tuple[float, float, int]]:
    require_labels(training, YKind.BINARY01)
    votes: dict[int, tuple[int, float, int]] = {}  # id of a reached leaf -> its answer
    for x0 in queries:
        leaf = tree.route(x0)
        answer = votes.get(id(leaf))
        if answer is None:
            ys = [case.y for case in _leaf_cases(leaf, training)]
            answer = votes[id(leaf)] = (*_vote(ys), len(ys))
        yield answer


def _nb_tallies(
    training: TrainingSet, queries: Sequence[FeatureVector]
) -> Iterator[list[tuple[int, int]]]:
    """Each query's (label-0 cases, label-1 cases) per feature value, in order.

    The value table is built once, before the first query is read.
    """
    require_labels(training, YKind.BINARY01)
    observed = _observed_values(training.features)
    position = {v: pos for pos, seen in enumerate(observed) for v in seen}
    disjoint = len(position) == sum(map(len, observed))
    counts: dict[str, tuple[int, int]] = {}  # value -> (label-0 cases, label-1 cases)
    for case in training.cases:
        for v in case.x.values:
            n0, n1 = counts.get(v, (0, 0))
            counts[v] = (n0 + 1, n1) if case.y == 0 else (n0, n1 + 1)
    for x0 in queries:
        _require_query_width(x0, training)
        values = _nominal_values(x0)
        # A FeatureSchema keeps nominal symbol sets apart, so data read
        # through one never meets here.  Otherwise value sets meet only
        # where one value sits at two positions; then the pooled check
        # names the pair and the shared values.
        if not disjoint or len(set(values)) < len(values) or any(
            position.get(v, pos) != pos for pos, v in enumerate(values)
        ):
            _require_disjoint([seen | {v} for seen, v in zip(observed, values)])
        yield [counts.get(v, (0, 0)) for v in values]


def _nb_vote(tallies: Sequence[tuple[int, int]]) -> tuple[int, float]:
    """The 0/1 answer with the smaller product of fractions, with that product; ties give 0."""
    return least_inconsistent(
        LABELS, lambda label: aggregate_mus(_nb_fractions(tallies, label), Aggregation.PRODUCT)
    )


def _nb_fractions(tallies: Sequence[tuple[int, int]], label: int) -> list[float]:
    """Each feature's fraction of same-valued cases whose label is not ``label``.

    A value never seen in training scores one half: maximal uncertainty
    rather than false confidence either way.
    """
    return [(n0 + n1 - (n0, n1)[label]) / (n0 + n1) if n0 + n1 else 0.5 for n0, n1 in tallies]


# ---------------------------------------------------------------------------
# Family registration

register_family(FamilySpec(
    "smoothing", (K, RADIUS, METRIC), frozenset(YKind), one_of=(K.key, RADIUS.key),
    pointwise=True,
))
register_family(FamilySpec("knn", (K, METRIC), frozenset({YKind.BINARY01}), pointwise=True))
register_family(FamilySpec("dtree", TREE_PARAMS, frozenset({YKind.BINARY01}), pointwise=True))
register_family(FamilySpec("nb", (), frozenset({YKind.BINARY01}), pointwise=True))
