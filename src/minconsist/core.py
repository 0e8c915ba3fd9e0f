"""Shared vocabulary for inconsistency-minimizing learners.

Every learner in this library is posed the same way.  A hypothesis, once
fixed, generates its own cases; observed cases keep it honest.  Each
baseline case is compared against a set of counterpart cases drawn from
the opposite source, the disagreement is scored by a non-negative
case-inconsistency, and the scores are folded into a single total.
Training means returning the hypothesis whose total inconsistency is
smallest.

This module owns the data model (feature vectors, blocks of them held as
columns, cases, training sets kept as their feature columns and
feedbacks, schemas), the hypothesis variants, the one report structure
(:class:`InconsistencyReport`, the scores of a block of cases, folded
into a total and checked), and the family registry.  A registry row
describes a learner once: its parameters, the feedback it learns from,
and how it fits, answers queries and audits a training set into a report.
:func:`least_inconsistent` is the one finite argmin, and
:func:`select_hypothesis`, the one entry point for training, hands a
family's parameters and cases to its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import (AbstractSet, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence,
                    TypeVar, Union)


# ---------------------------------------------------------------------------
# Errors


class MinconsistError(Exception):
    """Base class for every error this library raises on purpose."""


class EmptySet(MinconsistError):
    """A non-empty collection of cases was required."""


class SchemaMismatch(MinconsistError):
    """Values do not fit the declared or inferred column layout."""


class DuplicateFeatureVector(MinconsistError):
    """Two cases in one training set share an identical feature vector."""


class IncompatibleFamily(MinconsistError):
    """A linear learner was given a feature that is not a number."""


class InvalidParameter(MinconsistError):
    """A parameter is missing, unknown, or outside its legal range."""


class SolverDiverged(MinconsistError):
    """A fit's optimum, an answer or a total lies beyond the floating-point range.

    Also raised when the exact linear solver exceeds its step bound.
    """


class EmptyNeighborhood(MinconsistError):
    """No training case fell inside the requested neighborhood."""


class KExceedsSampleSize(MinconsistError):
    """A k-nearest request asked for more neighbors than cases exist."""


class EmptyLeaf(MinconsistError):
    """A tree leaf holds no training cases."""


class NonDisjointValueSets(MinconsistError):
    """Two nominal feature positions share a value."""


class DimensionMismatch(MinconsistError):
    """Vector lengths disagree."""


class InfeasibleSlack(MinconsistError):
    """A slack vector violates the margin constraints it must satisfy."""


class BoxTooLarge(MinconsistError):
    """A grid search box contains more lattice points than allowed."""


class ExhaustedRetries(MinconsistError):
    """Random generation could not satisfy distinctness constraints."""


class ParseError(MinconsistError):
    """A data file could not be parsed.

    Attributes:
        row: 1-based line number in the file, counting the header line.
        column: column name, when one can be named.
    """

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        detail = message
        if row is not None:
            detail += f" (row {row}"
            detail += f", column {column!r})" if column is not None else ")"
        super().__init__(detail)
        self.row = row
        self.column = column


class UnknownColumnKind(MinconsistError):
    """A sidecar schema declared a column kind this library does not know."""


class ModelFormatError(MinconsistError):
    """A model file cannot be read or written, is malformed, or has an unsupported version."""


class TrainingDataMismatch(MinconsistError):
    """The supplied training data is not the data a model was built from."""


# ---------------------------------------------------------------------------
# Enums and schema descriptors


class YKind(Enum):
    """Feedback domain descriptor."""

    REAL = "real"
    BINARY01 = "binary01"
    PM1 = "pm1"


class Aggregation(Enum):
    """How per-case inconsistencies fold into a total."""

    SUM = "sum"
    MEAN = "mean"
    PRODUCT = "product"
    SUM_OVER_QUERIES = "sum-over-queries"  # a sum over training cases posed as queries


@dataclass(frozen=True)
class NumericKind:
    """Real-valued feature position."""


@dataclass(frozen=True)
class OrdinalKind:
    """Feature position ranked within a declared, ordered value list.

    Stored feature values for an ordinal position are rank integers,
    0-based into ``levels``.
    """

    levels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) == 0:
            raise InvalidParameter("ordinal column needs at least one level")
        if len(set(self.levels)) != len(self.levels):
            raise InvalidParameter("ordinal levels must be distinct")


@dataclass(frozen=True)
class NominalKind:
    """Feature position drawing symbols from a declared finite set."""

    symbols: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", frozenset(self.symbols))
        if not self.symbols:
            raise InvalidParameter("nominal column needs at least one symbol")


ColumnKind = Union[NumericKind, OrdinalKind, NominalKind]


@dataclass(frozen=True)
class FeatureSchema:
    """Per-position value kinds for feature vectors.

    Nominal positions must use pairwise-disjoint symbol sets: learners
    that pool values from several positions rely on a value naming its
    position unambiguously.
    """

    columns: tuple[ColumnKind, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise InvalidParameter("schema needs at least one column")
        _require_disjoint([
            c.symbols if isinstance(c, NominalKind) else frozenset() for c in self.columns
        ])

    @property
    def n(self) -> int:
        return len(self.columns)

    @classmethod
    def numeric(cls, n: int) -> "FeatureSchema":
        return cls(tuple(NumericKind() for _ in range(n)))


def _require_disjoint(value_sets: Sequence[AbstractSet[str]]) -> None:
    """Raise :class:`NonDisjointValueSets` unless the value sets are pairwise disjoint."""
    for i, first in enumerate(value_sets):
        for j in range(i + 1, len(value_sets)):
            shared = first & value_sets[j]
            if shared:
                raise NonDisjointValueSets(
                    f"features {i + 1} and {j + 1} share value(s) {sorted(shared)!r}"
                )


# The kinds a feature value and a number may have; a bool is neither.
_VALUE_KINDS = (int, float, str)
_NUMBER_KINDS = (int, float)


def _unfit(values: Sequence[object], kinds: tuple[type, ...]) -> int | None:
    """The index of the first value that breaks the value rule for ``kinds``, or None.

    The one value rule: a value is of ``kinds`` and not a bool, and a
    number is one that ``float()`` holds finitely.  A feature block runs
    it over each of its columns, with the column's kind (:func:`_kind_of`);
    a vector, a feedback, a coefficient and a float parameter over
    themselves.  A :func:`_clean` sequence passes whole; any other is
    walked value by value (:func:`_unfit_walk`).
    """
    return None if _clean(values, kinds) else _unfit_walk(values, kinds)


def _unfit_walk(values: Sequence[object], kinds: tuple[type, ...]) -> int | None:
    """:func:`_unfit` a value at a time, which admits a subclass of ``kinds`` (not a bool)."""
    return next((i for i, v in enumerate(values) if not _fits(v, kinds)), None)


def _fits(value: object, kinds: tuple[type, ...]) -> bool:
    """Whether ``value`` keeps the value rule for ``kinds``."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        return False
    try:
        return isinstance(value, str) or math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _clean(values: Sequence[object], kinds: tuple[type, ...]) -> bool:
    """Whether every value's exact type is one of ``kinds`` and every number is finite in a float.

    The value rule's fast path, decided over the whole sequence in C.
    False is no verdict: a bool, a subclass, a symbol beside a number, a
    non-finite float or an int beyond the float range all make it False,
    and the caller walks.
    """
    types = set(map(type, values))
    try:
        return types.issubset(kinds) and (types == {str} or all(map(math.isfinite, values)))
    except (OverflowError, TypeError):  # an int beyond the float range, a symbol
        return False


def _why(value: object) -> str:
    """Why the value rule refuses ``value`` as a feature value in its column.

    A value of no kind is unsupported, and a number must be finite in a
    float; a symbol or a number that keeps the rule is refused for being
    of the other kind than its column's.
    """
    if isinstance(value, bool) or not isinstance(value, _VALUE_KINDS):
        return f"unsupported feature value {value!r}"
    try:
        if isinstance(value, str) or math.isfinite(value):
            return "mixed value kinds in one column"
    except OverflowError:
        return f"value {_decimal(value)} is beyond the float range"
    return f"value {value!r} is not finite"


def _decimal(value: int) -> str:
    """``value`` to four digits, as ``Decimal`` writes an int of any length (repr may refuse)."""
    from decimal import Decimal
    return f"{Decimal(value):.3E}"


def _kind_of(value: object) -> tuple[type, ...]:
    """The kinds of ``value``'s column, which keeps one kind: symbols, or numbers."""
    return (str,) if isinstance(value, str) else _NUMBER_KINDS


def _first_in_row_order(faults: Iterable[int | None]) -> tuple[int, int] | None:
    """(row, position) of the first fault in row order, given each position's first fault."""
    return min(((i, pos) for pos, i in enumerate(faults) if i is not None), default=None)


def _feedback_fault(y: object) -> SchemaMismatch:
    """Why the value rule refuses ``y`` as a feedback."""
    if isinstance(y, bool) or not isinstance(y, _NUMBER_KINDS):
        return SchemaMismatch(f"feedback must be a real number, got {y!r}")
    return SchemaMismatch(f"feedback {_why(y)}")


# ---------------------------------------------------------------------------
# Cases and training sets


FeatureValue = Union[int, float, str]


@dataclass(frozen=True)
class FeatureVector:
    """An ordered tuple of feature values.

    Values are raw scalars: floats for numeric positions, rank integers
    for ordinal positions, symbols for nominal positions.  Each keeps the
    value rule (:func:`_unfit`).  Equality is exact, which is what
    duplicate detection is defined over.
    """

    values: tuple[FeatureValue, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise SchemaMismatch("a feature vector needs at least one value")
        i = _unfit(self.values, _VALUE_KINDS)
        if i is not None:
            raise SchemaMismatch(f"feature {i + 1}: {_why(self.values[i])}")

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def of(cls, *values: FeatureValue) -> "FeatureVector":
        return cls(tuple(values))


@dataclass(frozen=True)
class FeatureColumns:
    """Rows of feature values held by position: ``columns[j][i]`` is row i's value at j.

    The loader returns its query rows this way, a training set keeps its
    features this way, and the families answer them a block at a time.
    There is at least one position, and every column has one length, the
    row count, which ``len`` gives.  Each column keeps the value rule
    (:func:`_unfit`) and one kind, row 1's: symbols, or numbers.  The
    first value that does not, in row order, raises
    :class:`SchemaMismatch` naming its row and feature.  The columns are
    kept as tuples.
    """

    columns: tuple[tuple[FeatureValue, ...], ...]

    def __post_init__(self) -> None:
        columns = tuple(map(tuple, self.columns))
        object.__setattr__(self, "columns", columns)
        if len(set(map(len, columns))) != 1:
            raise DimensionMismatch("feature columns need at least one column, all of one length")
        fault = len(self) and _first_in_row_order(
            _unfit(column, _kind_of(column[0])) for column in columns)
        if fault:
            i, j = fault
            raise SchemaMismatch(f"row {i + 1}, feature {j + 1}: {_why(columns[j][i])}")

    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def n(self) -> int:
        return len(self.columns)

    def rows(self) -> Iterator[tuple[FeatureValue, ...]]:
        """Each row's values, in row order."""
        return zip(*self.columns)

    @classmethod
    def of(cls, vectors: Sequence[FeatureVector]) -> "FeatureColumns":
        """The columns of at least one vector, all of one width."""
        if len({x.n for x in vectors}) != 1:
            raise DimensionMismatch("feature columns need vectors, all of one width")
        return cls(tuple(zip(*(x.values for x in vectors))))


@dataclass(frozen=True)
class Case:
    """One observation or one hypothesis-generated pair: features plus feedback."""

    x: FeatureVector
    y: float

    def __post_init__(self) -> None:
        if not _fits(self.y, _NUMBER_KINDS):
            raise _feedback_fault(self.y)


@dataclass(frozen=True)
class TrainingSet:
    """A finite, duplicate-free sequence of observed cases, kept as columns.

    Case i is row i of ``columns`` with feedback ``feedbacks[i]``.  Order
    is preserved and meaningful: totals are accumulated in this order,
    which keeps reported values bit-for-bit reproducible.  The columns
    checked their values when they were built; construction checks one
    feedback per case, then feedbacks that keep the value rule of
    :class:`Case`, then distinct vectors.
    """

    columns: FeatureColumns
    feedbacks: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "feedbacks", tuple(self.feedbacks))
        ys, m = self.feedbacks, len(self.columns)
        if not m:
            raise EmptySet("a training set needs at least one case")
        if len(ys) != m:
            raise DimensionMismatch(f"{m} cases but {len(ys)} feedbacks")
        i = _unfit(ys, _NUMBER_KINDS)
        if i is not None:
            raise _feedback_fault(ys[i])
        if len(set(self.columns.rows())) < m:
            _name_duplicate(self.columns.rows())

    @property
    def m(self) -> int:
        return len(self.columns)

    @property
    def n(self) -> int:
        return self.columns.n

    @cached_property
    def cases(self) -> tuple[Case, ...]:
        """The row view, built through the constructors when first asked for; no command asks."""
        return tuple(map(Case, map(FeatureVector, self.columns.rows()), self.feedbacks))


def _name_duplicate(rows: Iterable[tuple[FeatureValue, ...]]) -> NoReturn:
    """Raise :class:`DuplicateFeatureVector` at the first row an earlier row repeats."""
    case_of: dict[tuple, int] = {}
    for i, values in enumerate(rows, 1):
        if case_of.setdefault(values, i) != i:
            raise DuplicateFeatureVector(f"cases {case_of[values]} and {i} share "
                                         f"feature vector {values!r}")
    raise AssertionError("no duplicate to name")


def training_set(pairs: Iterable[tuple[Sequence[FeatureValue], float]]) -> TrainingSet:
    """Build a training set from ``(feature values, feedback)`` pairs.

    Widths are checked first: the first pair with no values, or of a
    width other than pair 1's, is named.  The pairs then become the
    constructor's columns, and no pairs one column of no rows, which it
    finds empty.
    """
    pairs = list(pairs)
    rows, ys = [tuple(xs) for xs, _ in pairs], [y for _, y in pairs]
    widths = list(map(len, rows))
    i = next((i for i, n in enumerate(widths) if n != widths[0] or not n), None)
    if i is not None:
        if not widths[i]:
            raise SchemaMismatch(f"case {i + 1}: a feature vector needs at least one value")
        raise SchemaMismatch(f"case {i + 1} has {widths[i]} features, case 1 has {widths[0]}")
    return TrainingSet(FeatureColumns(tuple(zip(*rows)) or ((),)), ys)


# The values of each labelled feedback domain; a REAL feedback is any number.
_LABELS = {YKind.BINARY01: (0, 1), YKind.PM1: (-1, 1)}


def require_labels(training: TrainingSet, kind: YKind) -> None:
    """Raise :class:`SchemaMismatch` unless every feedback fits ``kind``."""
    allowed = _LABELS.get(kind)
    if allowed is None:
        return
    for idx, y in enumerate(training.feedbacks):
        if y not in allowed:
            raise SchemaMismatch(
                f"case {idx + 1} feedback {y!r} outside {set(allowed)!r}"
            )


# ---------------------------------------------------------------------------
# Hypotheses


@dataclass(frozen=True)
class PointwiseHypothesis:
    """A hypothesis defined at a single query point only: its answer there."""

    x0: FeatureVector
    value: float


@dataclass(frozen=True)
class LinearHypothesis:
    """An affine function of numeric features: ``f(x) = <b, x> + a``."""

    b: tuple[float, ...]
    a: float

    def __post_init__(self) -> None:
        coefficients = (*self.b, self.a)
        i = _unfit(coefficients, _NUMBER_KINDS)
        if i is not None:
            bad = coefficients[i]
            if isinstance(bad, bool) or not isinstance(bad, _NUMBER_KINDS):
                raise InvalidParameter(f"linear coefficients must be numbers, got {bad!r}")
            raise InvalidParameter("linear coefficients must be finite")
        object.__setattr__(self, "b", tuple(map(float, coefficients[:-1])))
        object.__setattr__(self, "a", float(self.a))
        if not self.b:
            raise InvalidParameter("a linear hypothesis needs at least one coefficient")

    @property
    def n(self) -> int:
        return len(self.b)

    def __call__(self, x: FeatureVector) -> float:
        return self.block(FeatureColumns(tuple(zip(x.values))))[0]

    def block(self, x: FeatureColumns) -> list[float]:
        """``f`` at every row of ``x``, in row order.

        Each row's sum starts at 0.0, adds ``b_j * x_j`` in position order
        and then ``a``; the fixed order keeps evaluations reproducible bit
        for bit.  The block runs it column by column; its values keep the
        value rule, so only a column of symbols is refused
        (:func:`_require_numbers`).
        """
        if x.n != self.n:
            raise DimensionMismatch(f"{self.n}-dim hypothesis applied to {x.n}-dim vector")
        _require_numbers(x)
        s = [0.0] * len(x)
        for bj, column in zip(self.b, x.columns):
            s = [si + bj * xj for si, xj in zip(s, column)]
        a = self.a
        return [si + a for si in s]


def _require_numbers(x: FeatureColumns) -> None:
    """Raise :class:`SchemaMismatch` at the first column of ``x`` that holds symbols.

    A column holds one kind, so row 1 speaks for every row.
    """
    for j, value in enumerate(next(x.rows(), ())):
        if isinstance(value, str):
            raise SchemaMismatch(f"row 1, feature {j + 1}: unsupported feature value {value!r}")


# ---------------------------------------------------------------------------
# Counterparts and reports


@dataclass(frozen=True)
class CounterpartSet:
    """The finite cases one baseline case is compared against."""

    members: tuple[Case, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))

    def __len__(self) -> int:
        return len(self.members)

    @property
    def feedbacks(self) -> tuple[float, ...]:
        return tuple(case.y for case in self.members)


@dataclass(frozen=True)
class InconsistencyReport:
    """Per-case scores plus the total a learner minimizes.

    A report scores the block of baseline cases it was built over, which
    its caller holds (a training set, a query's features): position i of
    ``mus`` and ``counts`` is case i's score and its counterpart count,
    which is ``None`` when the counterpart set is not finite (a half-space
    rather than a list of cases).  The total is always reproducible from
    the columns: fold ``mus`` with ``aggregation`` in case order, then add
    ``regularizer`` (a hypothesis-only term, zero for most learners).
    """

    mus: tuple[float, ...]
    counts: tuple[int | None, ...]
    aggregation: Aggregation
    regularizer: float
    total: float

    @classmethod
    def build(
        cls,
        mus: Sequence[float],
        counts: Sequence[int | None],
        aggregation: Aggregation,
        regularizer: float = 0.0,
    ) -> "InconsistencyReport":
        """The report of the columns, whose total must be finite and scores non-negative.

        Columns of different lengths raise :class:`DimensionMismatch`.  A
        total beyond the floating-point range raises :class:`SolverDiverged`,
        which names the first case whose ``mu`` is not finite, or the total,
        when a fold of finite scores overflows.
        """
        mus, counts = tuple(mus), tuple(counts)
        if len(mus) != len(counts):
            raise DimensionMismatch(f"{len(mus)} mus but {len(counts)} counterpart counts")
        if not mus:
            raise EmptySet("a report needs at least one entry")
        total = aggregate_mus(mus, aggregation) + regularizer
        if not math.isfinite(total):
            bad = next((n for n, mu in enumerate(mus, 1) if not math.isfinite(mu)), None)
            what = "the total inconsistency" if bad is None else f"the inconsistency of case {bad}"
            raise SolverDiverged(f"{what} is beyond the floating-point range")
        for mu in mus:
            if not mu >= 0.0:
                raise InvalidParameter(f"case inconsistency must be >= 0, got {mu!r}")
        return cls(mus, counts, aggregation, regularizer, total)


def aggregate_mus(mus: Sequence[float], aggregation: Aggregation) -> float:
    """Fold per-case scores in the given order."""
    if aggregation is Aggregation.MEAN:
        return _mean(mus)
    if aggregation is Aggregation.PRODUCT:
        total = 1.0
        for mu in mus:
            total *= mu
        return total
    total = 0.0
    for mu in mus:
        total += mu
    return total


def _mean(values: Sequence[float]) -> float:
    """The sum of ``values`` in order over their count, scaled down if the sum overflows."""
    total = aggregate_mus(values, Aggregation.SUM)
    if math.isfinite(total):
        return total / len(values)
    shift = len(values).bit_length()  # the mean may be finite: sum again, scaled
    total = aggregate_mus([math.ldexp(v, -shift) for v in values], Aggregation.SUM)
    return math.ldexp(total / len(values), shift)


# ---------------------------------------------------------------------------
# The family registry


class _Required:
    """The default of a parameter that has none and must be given."""

    def __repr__(self) -> str:
        return "REQUIRED"


REQUIRED = _Required()


@dataclass(frozen=True)
class Param:
    """One learner parameter, described once for the library, the CLI and model files.

    ``key`` names it in problem statements and model files; ``flag`` is
    the ``train`` option that sets it.  The range rule is
    ``low <= value`` (``low < value`` when ``strict``), ``value <= high``
    and ``value in choices``.  A ``float`` parameter keeps the value rule
    (:func:`_fits`), so no model file or echo holds NaN or Infinity.
    """

    key: str
    flag: str
    type: type
    default: object = REQUIRED
    low: float | None = None
    strict: bool = False
    high: float | None = None
    choices: tuple[str, ...] = ()
    help: str = ""

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    @property
    def rule(self) -> str:
        """The type and range rule in words."""
        if self.choices:
            return "one of " + ", ".join(self.choices)
        noun = {int: "an integer", float: "a number"}.get(self.type, f"a {self.type.__name__}")
        if self.high is not None:
            return f"{noun} in [{self.low:g}, {self.high:g}]"
        if self.low is not None:
            return f"{noun} {'>' if self.strict else '>='} {self.low:g}"
        return noun

    def check(self, value: object, name: str | None = None) -> None:
        """Raise :class:`InvalidParameter` unless ``value`` meets the rule."""
        if self.type is float:
            fits = _fits(value, _NUMBER_KINDS)
        else:
            fits = isinstance(value, self.type) and not isinstance(value, bool)
        if fits and self.choices:
            fits = value in self.choices
        if fits and self.low is not None:
            fits = value > self.low if self.strict else value >= self.low
        if fits and self.high is not None:
            fits = value <= self.high
        if not fits:
            try:
                got = repr(value)
            except ValueError:  # an int of more digits than int-to-str conversion allows
                got = _decimal(value)
            raise InvalidParameter(f"{name or self.key} must be {self.rule}, got {got}")


@dataclass(frozen=True)
class FamilySpec:
    """Registry row: the one description of a hypothesis family, and its learner.

    ``params`` lists the family's parameters in model-file order.
    ``one_of`` names parameters of which exactly one must be given;
    none of them is required on its own.  ``y_kinds`` are the feedback
    domains the family learns from.  Every ``params`` argument below is
    a complete, checked parameter set.

    - ``answers(params, fitted, training, queries)`` yields one answer
      per row of the :class:`FeatureColumns` ``queries``, in order; a
      query that cannot be answered raises after the answers before it.
    - ``audit(params, fitted, training)`` returns the
      :class:`InconsistencyReport` of ``fitted`` over ``training``: one
      position per case, in case order.
    - ``fit(params, training)`` returns what a model keeps of the fit of
      least total inconsistency: an instance of ``keeps``, or None (the
      default fit) when it keeps nothing.

    ``keeps`` is the type of what a fit returns (a :class:`LinearHypothesis`,
    the tree of ``dtree``), or None.  ``symbols`` marks a family whose
    features are all nominal; every other family takes no nominal feature.
    """

    name: str
    params: tuple[Param, ...]
    y_kinds: frozenset[YKind]
    answers: Callable[..., Iterable[float]]
    audit: Callable[..., InconsistencyReport]
    fit: Callable[[Mapping[str, object], TrainingSet], object] = lambda params, training: None
    one_of: tuple[str, ...] = ()
    keeps: type | None = None
    symbols: bool = False

    @property
    def pointwise(self) -> bool:
        """Whether the family answers from its training cases; others' ``answers`` take None."""
        return self.keeps is not LinearHypothesis

    def complete(self, values: Mapping[str, object], name: Callable[[str], str] = str) -> dict:
        """``values`` in registry order, with the default of every unset parameter.

        An unknown, missing or out-of-range value raises :class:`InvalidParameter`
        first; ``name`` turns a key into the word that messages use for it.
        """
        by_key = {p.key: p for p in self.params}
        unknown = sorted(name(key) for key in values if key not in by_key)
        if unknown:
            raise InvalidParameter(
                f"{', '.join(unknown)} not applicable to learner {self.name!r}"
            )
        missing = [
            name(key) for key, p in by_key.items()
            if p.required and key not in self.one_of and key not in values
        ]
        if missing:
            raise InvalidParameter(f"learner {self.name!r} requires {', '.join(missing)}")
        if self.one_of and sum(key in values for key in self.one_of) != 1:
            raise InvalidParameter(
                f"learner {self.name!r} takes exactly one of "
                f"{' or '.join(map(name, self.one_of))}"
            )
        for key, value in values.items():
            by_key[key].check(value, name(key))
        return {
            p.key: values[p.key] if p.key in values else p.default
            for p in self.params
            if p.key in values or not p.required
        }

    def require_y_kind(self, kind: YKind) -> None:
        """Raise :class:`SchemaMismatch` unless the family learns from ``kind`` feedback."""
        if kind not in self.y_kinds:
            raise SchemaMismatch(f"{self.name} cannot learn from {kind.value} feedback")


_FAMILIES: dict[str, FamilySpec] = {}


def register_family(spec: FamilySpec) -> None:
    _FAMILIES[spec.name] = spec


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def family_spec(name: str) -> FamilySpec:
    spec = _FAMILIES.get(name)
    if spec is None:
        raise InvalidParameter(
            f"unknown family {name!r}; known: {', '.join(family_names())}"
        )
    return spec


# ---------------------------------------------------------------------------
# Problem statements and the argmin


# Kept because the benchmark's tracer patches its ``__post_init__``; no command builds one.
@dataclass(frozen=True)
class ProblemStatement:
    """What is being learned: feature layout, feedback domain, family, parameters.

    Construction rejects unknown families, missing or unknown
    parameters, out-of-range parameter values, and a feedback domain
    outside the family's.  It then fills in the default of
    every parameter not given, so ``v`` holds the whole parameter set.
    """

    x_schema: FeatureSchema
    y_kind: YKind
    family: str
    v: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        spec = family_spec(self.family)
        v = spec.complete(self.v)
        spec.require_y_kind(self.y_kind)
        object.__setattr__(self, "v", v)


T = TypeVar("T")


def least_inconsistent(candidates: Iterable[T], score: Callable[[T], float]) -> tuple[T, float]:
    """The candidate whose total inconsistency ``score`` is smallest, with that total.

    Candidates are scored in the order given and a later one must score
    strictly lower to win, so ties resolve to the earlier candidate.
    """
    best: tuple[T, float] | None = None
    for candidate in candidates:
        scored = score(candidate)
        if best is None or scored < best[1]:
            best = (candidate, scored)
    if best is None:
        raise EmptySet("candidate family is empty")
    return best


def select_hypothesis(
    family: str, params: Mapping[str, object], training: TrainingSet
) -> tuple[object, float]:
    """What the family's fit of least total inconsistency over ``training`` keeps, and that total.

    ``params`` is checked against the family's registry row, which then
    fits from the complete parameter set (see :class:`FamilySpec`); the
    total is the row's audit of the fit.  A solver finds a linear
    family's hypothesis; a family's finite answers are compared by
    :func:`least_inconsistent` instead.
    """
    spec = family_spec(family)
    params = spec.complete(params)
    fitted = spec.fit(params, training)
    return fitted, spec.audit(params, fitted, training).total


def erm_total_inconsistency(f: LinearHypothesis, training: TrainingSet) -> float:
    """Sum of absolute disagreements between feedback and prediction.

    This is the plainest instantiation of the shared contract: each
    observed case meets a single hypothetical counterpart at the same
    point, and scores their absolute feedback gap.
    """
    total = 0.0
    for y, fx in zip(training.feedbacks, f.block(training.columns)):
        total += abs(y - fx)
    return total
