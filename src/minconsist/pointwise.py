"""Query-time learners: local smoothing, k-nearest, decision tree, naive Bayes.

These learners answer at a single query point.  Their hypotheses are
constants anchored at the query, the baseline case is the hypothetical
case the hypothesis generates there (or, for naive Bayes, one per
feature), and the counterparts are observed cases selected around the
query: by distance, by tree subdomain, or by shared feature value.
Each family is one rule, which yields (answer, inconsistency, counterpart
count) at each query of a block; its registry row answers and audits
through it, and the total of a fit is its audit, which scores every
training case as a query.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, product
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Sequence, Union

from .core import (
    Aggregation,
    Case,
    CounterpartSet,
    EmptyLeaf,
    EmptyNeighborhood,
    FamilySpec,
    FeatureColumns,
    FeatureValue,
    FeatureVector,
    InconsistencyReport,
    InvalidParameter,
    KExceedsSampleSize,
    Param,
    PointwiseHypothesis,
    SchemaMismatch,
    TrainingSet,
    YKind,
    _first_in_row_order,
    _mean,
    _require_disjoint,
    _require_numbers,
    _unfit,
    aggregate_mus,
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

Answers = Iterator[tuple[float, float, int]]  # a rule's (answer, inconsistency, count) per query


def distance(x1: FeatureVector, x2: FeatureVector, metric: str = METRIC.default) -> float:
    """Distance between two number-valued feature vectors.

    Ordinal positions take part through their rank integers; nominal
    positions have no distance and are rejected.  A distance beyond the
    floating-point range is inf.
    """
    b = _query([(v,) for v in x1.values], x2.values)
    METRIC.check(metric)
    columns = [(a,) for a in map(float, x1.values)]
    d = _column_distances(columns, b, metric)[0]
    if d == math.inf:  # a term overflowed: measure again scaled, then scale back
        (d,), shift = _scaled_distances(columns, b, metric)
        d *= 2.0 ** shift  # exact, or inf beyond the range
    return d


def _query(
    columns: Sequence[Sequence[FeatureValue]], x0: Sequence[FeatureValue]
) -> tuple[float, ...]:
    """The values ``x0`` as floats, once they can be measured against the transposed ``columns``.

    A width mismatch is named first, then the first nominal position, in
    the columns or in ``x0``.  The values keep the value rule, so each
    number is finite in a float.
    """
    if len(x0) != len(columns):
        raise _dimensions(len(columns), len(x0))
    for pos, (column, b) in enumerate(zip(columns, x0)):
        if isinstance(column[0], str) or isinstance(b, str):  # columns hold one kind
            raise _nominal(pos)
    return tuple(map(float, x0))


def _column_distances(
    columns: Sequence[Sequence[float]], x0: Sequence[float], metric: str
) -> list[float]:
    """The distance from every row of the transposed float ``columns`` to the float values ``x0``.

    Each row's total starts at 0.0 and adds one term per position, in
    position order.
    """
    totals = [0.0] * len(columns[0])
    for column, b in zip(columns, x0):
        if metric == "euclidean":
            totals = [t + (a - b) * (a - b) for t, a in zip(totals, column)]
        else:
            totals = [t + abs(a - b) for t, a in zip(totals, column)]
    return list(map(math.sqrt, totals)) if metric == "euclidean" else totals


def _scaled_distances(
    columns: Sequence[Sequence[float]], x0: Sequence[float], metric: str
) -> tuple[list[float], int]:
    """The distances of :func:`_column_distances` from coordinates scaled by 2**-shift, and shift.

    The shift is chosen from the largest magnitude, so that no total of n
    scaled terms overflows.  Scaling by a power of two is exact until a
    value falls below 2**-1022; what it loses there, under 2**-1074, is far
    below the rounding of a total that overflowed unscaled (at least 2**-24
    once scaled), so rows that differ only there tie, as they do unscaled.
    """
    n = len(x0).bit_length()
    top = (1021 - n) // 2 if metric == "euclidean" else 1022 - n
    shift = math.frexp(max(map(abs, chain(x0, *columns))))[1] - top
    scaled = [[math.ldexp(v, -shift) for v in values] for values in (*columns, x0)]
    return _column_distances(scaled[:-1], scaled[-1], metric), shift


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
    chosen = next(_selections(spec, training, FeatureColumns.of((x0,))))
    return CounterpartSet(tuple(training.cases[i] for i in chosen))


def _selections(
    spec: NeighborhoodSpec, training: TrainingSet, queries: FeatureColumns
) -> Iterator[list[int]]:
    """Indices, in training order, of the cases the rule selects at each row of ``queries``."""
    grid = _CellGrid(tuple(column if isinstance(column[0], str) else tuple(map(float, column))
                           for column in training.columns.columns), spec)
    for x0 in queries.rows():
        yield grid.selected(x0)


_KEPT = 1 << 14  # the most cases the measured blocks of one engine call keep at once


class _CellGrid:
    """The training cases bucketed by their first (up to) three features, for one engine call.

    Each indexed feature is cut at up to c - 1 distinct data values,
    ``sorted(column)[m * t // c]`` with c = round((m / 4) ** (1 / D)) (at
    least one), so skewed data still fills the cells evenly and no cell
    lies between two equal edges; a value's cell is
    ``bisect_right(edges, value)``.  The cases are held cell by cell, the
    cells in lexicographic order, so the cells of a block that differ
    only in their last index are one run of cases.  A block is every
    case whose cell lies within Chebyshev distance r, its ring, of a
    query's cell.  The call keeps, by cell, the first ring whose block
    holds k cases, and the blocks it measures, up to :data:`_KEPT` cases
    (queries in one cell share them).
    """

    def __init__(
        self, columns: tuple[tuple[FeatureValue, ...], ...], spec: NeighborhoodSpec
    ) -> None:
        m, indexed = len(columns[0]), columns[:3]
        c = max(1, round((m / 4) ** (1 / len(indexed))))
        self.columns, self.spec = columns, spec
        self.edges = [sorted({ordered[m * t // c] for t in range(1, c)})
                      for ordered in map(sorted, indexed)]
        self.sizes = [len(edges) + 1 for edges in self.edges]
        self.strides = [math.prod(self.sizes[j + 1:]) for j in range(len(indexed))]
        places = [0] * m
        for edges, column, stride in zip(self.edges, indexed, self.strides):
            cells = map(partial(bisect_right, edges), column)
            places = list(map(operator.add, places, map(stride.__mul__, cells)))
        self.order = sorted(range(m), key=places.__getitem__)
        self.held = tuple([column[i] for i in self.order] for column in columns)
        tally = Counter(places)
        self.starts = list(accumulate(map(tally.__getitem__, range(math.prod(self.sizes))),
                                      initial=0))
        self.rings: dict[tuple[int, ...], tuple[range, int]] = {}
        self.blocks: dict[tuple[tuple[int, ...], int], tuple[list[int], tuple[list, ...]]] = {}
        self.kept = 0

    def selected(self, x0: tuple[FeatureValue, ...]) -> list[int]:
        """Indices, in training order, of the cases the neighborhood rule selects at ``x0``.

        The selection is measured on the block of the first ring past
        which every case lies strictly beyond its reach (the radius, or
        the k-th distance), so every tie at the cut is inside.  For k
        cases, the reach is first measured on the first block that holds
        k cases; the k-th distance of a larger block is no larger, so a
        second block measured is the last.  A k-th distance of inf prunes
        nothing, nor does a bound of inf for a radius: the block is then
        the whole set.
        """
        b, spec = _query(self.columns, x0), self.spec
        mode, m = spec.mode, len(self.order)
        if isinstance(mode, KNearest) and mode.k > m:
            raise KExceedsSampleSize(f"k={mode.k} but only {m} cases")
        cell = tuple(map(bisect_right, self.edges, b))
        rings, r = self.rings.get(cell) or self.first_rings(cell)
        bound = partial(self.bound, cell, b, spec.metric)
        if isinstance(mode, KNearest):
            ids, columns = self.block(cell, r)
            chosen, reach = _chosen(columns, b, spec)
            # past a finite reach, a bound of inf holds only cases the full scan leaves out
            end = _first(lambda s: reach < bound(s), rings[r:])
            if end > r:
                ids, columns = self.block(cell, end)
                chosen, _ = _chosen(columns, b, spec)
        else:
            # a case whose distance is inf may lie within the radius
            end = _first(lambda s: mode.radius < bound(s), rings)
            if end < rings[-1] and bound(end) == math.inf:
                end = rings[-1]
            ids, columns = self.block(cell, end)
            chosen, _ = _chosen(columns, b, spec)
        if not chosen:
            raise EmptyNeighborhood(f"no case within radius {mode.radius} of {x0!r}")
        return sorted(map(ids.__getitem__, chosen))

    def first_rings(self, cell: tuple[int, ...]) -> tuple[range, int]:
        """The rings around ``cell``, the last holding every case, and the first to measure.

        That is the first whose block holds k cases, for k nearest, and 0
        for a radius.
        """
        rings = range(max(max(q, size - 1 - q) for q, size in zip(cell, self.sizes)) + 1)
        mode = self.spec.mode
        k = mode.k if isinstance(mode, KNearest) else 0
        found = self.rings[cell] = rings, _first(lambda s: self.count(cell, s) >= k, rings)
        return found

    def runs(self, cell: tuple[int, ...], r: int) -> list[tuple[int, int]]:
        """The block of ring r around ``cell``, as runs of positions in the held order."""
        *outer, last = [range(max(0, q - r), min(size, q + r + 1))
                        for q, size in zip(cell, self.sizes)]
        heads = map(sum, product(*(range(span.start * stride, span.stop * stride, stride)
                                   for span, stride in zip(outer, self.strides))))
        return [(self.starts[head + last.start], self.starts[head + last.stop])
                for head in heads]

    def count(self, cell: tuple[int, ...], r: int) -> int:
        """The number of cases in the block of ring r around ``cell``."""
        return sum(stop - start for start, stop in self.runs(cell, r))

    def block(self, cell: tuple[int, ...], r: int) -> tuple[list[int], tuple[list, ...]]:
        """The ids of the cases in the block of ring r around ``cell``, and their columns."""
        found = self.blocks.get((cell, r))
        if found is None:
            runs = self.runs(cell, r)
            found = (list(chain.from_iterable(self.order[start:stop] for start, stop in runs)),
                     tuple(list(chain.from_iterable(column[start:stop] for start, stop in runs))
                           for column in self.held))
            self.kept += len(found[0])
            if self.kept > _KEPT:
                self.blocks.clear()
                self.kept = len(found[0])
            self.blocks[cell, r] = found
        return found

    def bound(self, cell: tuple[int, ...], x0: Sequence[float], metric: str, r: int) -> float:
        """A lower bound on the distance from ``x0`` of each case outside a block (not the last).

        Such a case lies, in some indexed feature, at or above the edge
        ``e`` after the block or below the edge before it.  Float
        subtraction, squaring and ``abs`` keep order, so the term ``e``
        makes, computed as the case's own term is, is at most the case's
        term; a float sum of non-negative terms is at least each term, and
        ``sqrt`` keeps order.  The bound grows with r.
        """
        gaps = []
        for edges, q, b in zip(self.edges, cell, x0):
            if q + r < len(edges):
                gaps.append(edges[q + r] - b)
            if q - r > 0:
                gaps.append(edges[q - r - 1] - b)
        if metric == "euclidean":
            return math.sqrt(min(g * g for g in gaps))
        return min(map(abs, gaps))


def _first(holds: Callable[[int], bool], rings: range) -> int:
    """The first of ``rings`` at which ``holds``, which holds after any ring it holds at.

    It is taken to hold at the last ring, which is never probed.  Probes
    at 0, 1, 3, 7, ... rings out bracket the answer and a bisection finds
    it there, so a near answer costs few probes.
    """
    lo, probe, step, last = 0, 0, 1, len(rings) - 1
    while probe < last and not holds(rings[probe]):
        lo, probe, step = probe + 1, probe + step, step * 2
    return rings[bisect_left(rings, True, lo, min(probe, last), key=holds)]


def _chosen(
    columns: Sequence[Sequence[float]], x0: Sequence[float], spec: NeighborhoodSpec
) -> tuple[list[int], float]:
    """Indices, in row order, of the rows the rule selects, and the distance it reaches.

    The reach is the k-th distance, or the radius.  A row whose distance
    overflows to inf lies beyond every row whose distance is finite.
    Where the rule reaches such rows, they are measured again from
    coordinates scaled by one power of two (:func:`_scaled_distances`),
    and compared with each other and with the radius scaled the same way.
    """
    dists, mode = _column_distances(columns, x0, spec.metric), spec.mode
    reach = sorted(dists)[mode.k - 1] if isinstance(mode, KNearest) else mode.radius
    chosen = [i for i, d in enumerate(dists) if d <= reach]
    if reach == math.inf or isinstance(mode, FixedRadius) and math.inf in dists:
        far = [i for i, d in enumerate(dists) if d == math.inf]
        scaled, shift = _scaled_distances([[column[i] for i in far] for column in columns],
                                          x0, spec.metric)
        if isinstance(mode, KNearest):  # the nearest of the far rows complete the k
            limit = sorted(scaled)[mode.k - (len(dists) - len(far)) - 1]
        else:
            limit = math.ldexp(mode.radius, -shift)
        chosen = sorted([i for i in chosen if dists[i] < math.inf]
                        + [i for i, d in zip(far, scaled) if d <= limit])
    return chosen, reach


def smoothing_case_inconsistency(h_value: float, counterparts: CounterpartSet) -> float:
    """Absolute gap between the answer and the neighborhood's mean feedback."""
    if len(counterparts) == 0:
        raise EmptyNeighborhood("inconsistency against an empty neighborhood")
    return abs(h_value - _mean(counterparts.feedbacks))


def smoothing_fit(
    x0: FeatureVector, training: TrainingSet, spec: NeighborhoodSpec
) -> PointwiseHypothesis:
    """The inconsistency-minimal constant at the query: the neighborhood mean."""
    value, _, _ = next(_smoothing(spec, training, FeatureColumns.of((x0,))))
    return PointwiseHypothesis(x0, value)


def _smoothing(spec: NeighborhoodSpec, training: TrainingSet, queries: FeatureColumns) -> Answers:
    """Each query's neighborhood mean, at gap 0: the mean is the gap's argmin."""
    feedbacks = training.feedbacks
    for chosen in _selections(spec, training, queries):
        ys = [feedbacks[i] for i in chosen]
        yield _mean(ys), 0.0, len(ys)


def _vote(mean: float) -> tuple[int, float]:
    """The 0/1 answer closer to the mean label, with its gap; ties give 0."""
    return least_inconsistent(LABELS, lambda label: abs(label - mean))


def _reported(answers: Answers) -> tuple[int, InconsistencyReport]:
    """A rule's one answer, with the report of its one query."""
    label, mu, count = next(answers)
    return label, InconsistencyReport.build([mu], [count], Aggregation.SUM)


# ---------------------------------------------------------------------------
# k-nearest classification


def knn_predict(
    x0: FeatureVector, training: TrainingSet, k: int, metric: str = METRIC.default
) -> tuple[int, InconsistencyReport]:
    """Binary answer at the query, as an argmin over the two constants.

    The candidate answering 0 is tried first, so an exact tie (neighbor
    labels averaging one half) resolves to 0.
    """
    spec = NeighborhoodSpec(KNearest(k), metric)
    return _reported(_knn(spec, training, FeatureColumns.of((x0,))))


def _knn(spec: NeighborhoodSpec, training: TrainingSet, queries: FeatureColumns) -> Answers:
    """Each query's vote on the mean label of its neighborhood."""
    require_labels(training, YKind.BINARY01)
    feedbacks = training.feedbacks
    for chosen in _selections(spec, training, queries):
        ys = [feedbacks[i] for i in chosen]
        yield (*_vote(_mean(ys)), len(ys))


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
        """The leaf ``x`` reaches: the one-row case of routing a block."""
        return _leaves(self, FeatureColumns.of((x,)))[0]

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
    ys = training.feedbacks
    parent = _impurity([ys[i] for i in indices])
    size = len(indices)
    best: tuple[int, int, float] | None = None
    for feature, column in enumerate(training.columns.columns):
        values = sorted({column[i] for i in indices})
        for threshold in values[:-1]:
            left = [ys[i] for i in indices if column[i] <= threshold]
            right = [ys[i] for i in indices if column[i] > threshold]
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
    columns, ys = training.columns.columns, training.feedbacks
    unranked = _first_in_row_order(_unfit(column, (int,)) for column in columns)
    if unranked is not None:
        i, j = unranked
        raise SchemaMismatch(f"case {i + 1}, feature {j + 1}: tree features must be ordinal ranks")
    require_labels(training, YKind.BINARY01)

    counter = {"next_id": 0}

    def grow(indices: list[int], depth: int) -> Union[TreeNode, TreeLeaf]:
        if not indices:
            raise EmptyLeaf("a leaf with zero cases")
        labels = [ys[i] for i in indices]
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
        left = [i for i in indices if columns[feature][i] <= threshold]
        right = [i for i in indices if columns[feature][i] > threshold]
        return TreeNode(feature, threshold, grow(left, depth + 1), grow(right, depth + 1))

    return TreePartition(grow(list(range(training.m)), 0), training.n)


def dtree_counterparts(
    x0: FeatureVector, partition: TreePartition, training: TrainingSet
) -> CounterpartSet:
    """Observed cases sharing the query's subdomain."""
    return CounterpartSet(tuple(training.cases[i] for i in _leaf_indices(partition.route(x0))))


def _leaf_indices(leaf: TreeLeaf) -> tuple[int, ...]:
    if not leaf.case_indices:
        raise EmptyLeaf(f"leaf {leaf.leaf_id} holds no cases")
    return leaf.case_indices


def dtree_predict(
    x0: FeatureVector, partition: TreePartition, training: TrainingSet
) -> tuple[int, InconsistencyReport]:
    """Binary answer at the query from its subdomain's cases; ties give 0."""
    return _reported(_leaf_answers(partition, training, FeatureColumns.of((x0,))))


def _leaf_answers(tree: TreePartition, training: TrainingSet, queries: FeatureColumns) -> Answers:
    """Each query's leaf vote, in row order (:func:`_leaves`).

    Each leaf's vote is taken when a query first reaches it, so a query
    at an empty leaf stops the answers there.
    """
    require_labels(training, YKind.BINARY01)
    feedbacks = training.feedbacks
    votes: dict[int, tuple[int, float, int]] = {}  # id of a reached leaf -> its answer
    for leaf in _leaves(tree, queries):
        answer = votes.get(id(leaf))
        if answer is None:
            ys = [feedbacks[i] for i in _leaf_indices(leaf)]
            answer = votes[id(leaf)] = (*_vote(_mean(ys)), len(ys))
        yield answer


def _leaves(tree: TreePartition, queries: FeatureColumns) -> list[TreeLeaf]:
    """The leaf each query reaches, in row order.

    The block goes down the tree as lists of row indices (:func:`_routed`);
    its values keep the value rule, so every number is ordered against a
    threshold, and only a column of symbols is refused (:func:`_require_numbers`).
    """
    if queries.n != tree.n_features:
        raise SchemaMismatch(f"tree splits {tree.n_features} features, vector has {queries.n}")
    _require_numbers(queries)
    leaf_of: list = [None] * len(queries)
    for leaf, indices in _routed(tree, queries):
        for i in indices:
            leaf_of[i] = leaf
    return leaf_of


def _routed(
    tree: TreePartition, queries: FeatureColumns
) -> Iterator[tuple[TreeLeaf, list[int]]]:
    """Each leaf that some query reaches, with those queries' row indices in order."""
    columns = queries.columns
    stack = [(tree.root, list(range(len(queries))))]
    while stack:
        node, indices = stack.pop()
        if isinstance(node, TreeLeaf):
            yield node, indices
            continue
        column, threshold = columns[node.feature], node.threshold
        left = [i for i in indices if column[i] <= threshold]
        right = [i for i in indices if not column[i] <= threshold]
        for side, part in ((node.right, right), (node.left, left)):
            if part:
                stack.append((side, part))


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
    _require_query_width(x0.n, training)
    observed = _observed_values(training.columns)
    for pos, v in enumerate(_nominal_values(x0.values)):
        observed[pos].add(v)
    _require_disjoint(observed)
    pooled = frozenset().union(*observed)
    parts = tuple(FeatureVector((v,)) for v in x0.values)
    flat = tuple(
        Case(FeatureVector((v,)), y)
        for xs, y in zip(training.columns.rows(), training.feedbacks)
        for v in xs
    )
    return TransformedProblem(pooled, parts, flat)


def _require_query_width(n: int, training: TrainingSet) -> None:
    if n != training.n:
        raise SchemaMismatch(f"query has {n} features, training has {training.n}")


def _nominal_values(values: Sequence[FeatureValue]) -> Sequence[str]:
    for pos, v in enumerate(values):
        if not isinstance(v, str):
            raise SchemaMismatch(f"feature {pos + 1} must be nominal, got {v!r}")
    return values


def _observed_values(features: FeatureColumns) -> list[set[str]]:
    """The set of values seen at each position; every value must be nominal, as row 1's are."""
    _nominal_values(next(features.rows()))
    return [set(column) for column in features.columns]


def nb_predict(
    x0: FeatureVector, training: TrainingSet
) -> tuple[int, InconsistencyReport]:
    """Binary answer whose per-feature disagreement product is smallest.

    One baseline case per feature, scored against the training cases
    that share its value; the n scores multiply.  Ties resolve to 0.
    """
    tallies = next(_nb_tallies(training, FeatureColumns.of((x0,))))
    label, _ = _nb_vote(tallies)
    return label, InconsistencyReport.build(
        _nb_fractions(tallies, label), [n0 + n1 for n0, n1 in tallies], Aggregation.PRODUCT,
    )


def _nb_tallies(
    training: TrainingSet, queries: FeatureColumns
) -> Iterator[list[tuple[int, int]]]:
    """Each query's (label-0 cases, label-1 cases) per feature value, in order.

    The value table is built once, before the first query is read.
    """
    require_labels(training, YKind.BINARY01)
    observed = _observed_values(training.columns)
    position = {v: pos for pos, seen in enumerate(observed) for v in seen}
    disjoint = len(position) == sum(map(len, observed))
    columns, ys = training.columns.columns, training.feedbacks
    # value -> how many cases hold it, and how many of those are labelled 1
    cases = Counter(chain(*columns))
    ones = Counter(v for column in columns for v, y in zip(column, ys) if y == 1)
    _require_query_width(queries.n, training)
    _nominal_values(next(queries.rows(), ()))  # a column holds one kind, as row 1's
    for values in queries.rows():
        # A FeatureSchema keeps nominal symbol sets apart, so data read
        # through one never meets here.  Otherwise value sets meet only
        # where one value sits at two positions; then the pooled check
        # names the pair and the shared values.
        if not disjoint or len(set(values)) < len(values) or any(
            position.get(v, pos) != pos for pos, v in enumerate(values)
        ):
            _require_disjoint([seen | {v} for seen, v in zip(observed, values)])
        yield [(cases[v] - ones[v], ones[v]) for v in values]


def _nb(training: TrainingSet, queries: FeatureColumns) -> Answers:
    """Each query's answer of the smaller product of fractions (:func:`_nb_vote`)."""
    for tallies in _nb_tallies(training, queries):
        label, mu = _nb_vote(tallies)
        yield label, mu, sum(n0 + n1 for n0, n1 in tallies)


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
# The family rows: fit, answer and audit through the family's rule


def _register(name: str, params: tuple[Param, ...], y_kinds: frozenset[YKind], rule, **kw) -> None:
    """Register a family that answers and audits through its rule.

    ``rule(params, fitted, training, queries)`` yields (answer, query
    inconsistency, counterpart count) at each row of ``queries``, in
    order; a query that fails ends it after the answers before it.  It
    is the family's one implementation: the row answers and audits with
    it, and the one-query functions run it on one query (``nb_predict``
    runs its tallies and vote, to report each feature's fraction).  It
    does the work that depends on the training set alone once a call:
    the label check, the float columns and cell grid (:class:`_CellGrid`)
    of ``smoothing`` and ``knn``, the value table of ``nb``, and each
    reached ``dtree`` leaf's vote.
    """

    def answers(params, fitted, training, queries) -> Iterator[float]:
        return map(itemgetter(0), rule(params, fitted, training, queries))

    def audit(params, fitted, training) -> InconsistencyReport:
        _, mus, counts = zip(*rule(params, fitted, training, training.columns))
        return InconsistencyReport.build(mus, counts, Aggregation.SUM_OVER_QUERIES)

    register_family(FamilySpec(name, params, y_kinds, answers, audit, **kw))


# The rows look their rule up when called, so a rule patched on the module (as a
# tracer does) is the one they run.
_register("smoothing", (K, RADIUS, METRIC), frozenset(YKind),
          lambda params, _, training, block: _smoothing(_neighborhood(params), training, block),
          one_of=(K.key, RADIUS.key))
_register("knn", (K, METRIC), frozenset({YKind.BINARY01}),
          lambda params, _, training, block: _knn(_neighborhood(params), training, block))
_register("dtree", TREE_PARAMS, frozenset({YKind.BINARY01}),
          lambda _, tree, training, block: _leaf_answers(tree, training, block),
          keeps=TreePartition,
          fit=lambda params, training: dtree_build(training, _tree_config(params)))
_register("nb", (), frozenset({YKind.BINARY01}),
          lambda _, __, training, block: _nb(training, block), symbols=True)
