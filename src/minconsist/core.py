"""Shared vocabulary for inconsistency-minimizing learners.

Every learner in this library is posed the same way.  A hypothesis, once
fixed, generates its own cases; observed cases keep it honest.  Each
baseline case is compared against a set of counterpart cases drawn from
the opposite source, the disagreement is scored by a non-negative
case-inconsistency, and the scores are folded into a single total.
Training means returning the hypothesis whose total inconsistency is
smallest.

This module owns the data model (feature vectors, cases, training sets,
schemas), the hypothesis variants, the per-case report structure, the
family registry that describes every learner's parameters once, the
problem statement checked against it, the one finite argmin,
:func:`least_inconsistent`, and :func:`select_hypothesis`, which hands a
problem to its learner's solver.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence, TypeVar, Union


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
    """A learner was paired with a problem statement for another family."""


class InvalidParameter(MinconsistError):
    """A parameter is missing, unknown, or outside its legal range."""


class SolverDiverged(MinconsistError):
    """A fit's optimum or its total lies beyond the floating-point range."""


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
        nominal = [(i, c) for i, c in enumerate(self.columns) if isinstance(c, NominalKind)]
        for pos, (i, ci) in enumerate(nominal):
            for j, cj in nominal[pos + 1:]:
                shared = ci.symbols & cj.symbols
                if shared:
                    raise NonDisjointValueSets(
                        f"features {i + 1} and {j + 1} share value(s) {sorted(shared)!r}"
                    )

    @property
    def n(self) -> int:
        return len(self.columns)

    @classmethod
    def numeric(cls, n: int) -> "FeatureSchema":
        return cls(tuple(NumericKind() for _ in range(n)))


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Cases and training sets


FeatureValue = Union[int, float, str]


@dataclass(frozen=True)
class FeatureVector:
    """An ordered tuple of feature values.

    Values are raw scalars: floats for numeric positions, rank integers
    for ordinal positions, symbols for nominal positions.  Equality is
    exact, which is what duplicate detection is defined over.
    """

    values: tuple[FeatureValue, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise SchemaMismatch("a feature vector needs at least one value")
        for v in self.values:
            if isinstance(v, bool) or not isinstance(v, (int, float, str)):
                raise SchemaMismatch(f"unsupported feature value {v!r}")
            if isinstance(v, float) and not math.isfinite(v):
                raise SchemaMismatch("feature values must be finite")

    @property
    def n(self) -> int:
        return len(self.values)

    def component(self, i: int) -> FeatureValue:
        """1-based component access."""
        if not 1 <= i <= self.n:
            raise IndexError(f"component {i} of a {self.n}-feature vector")
        return self.values[i - 1]

    @classmethod
    def of(cls, *values: FeatureValue) -> "FeatureVector":
        return cls(tuple(values))


@dataclass(frozen=True)
class Case:
    """One observation or one hypothesis-generated pair: features plus feedback."""

    x: FeatureVector
    y: float

    def __post_init__(self) -> None:
        if not _is_number(self.y):
            raise SchemaMismatch(f"feedback must be a real number, got {self.y!r}")
        if isinstance(self.y, float) and not math.isfinite(self.y):
            raise SchemaMismatch("feedback must be finite")


@dataclass(frozen=True)
class TrainingSet:
    """A finite, duplicate-free sequence of observed cases.

    Order is preserved and meaningful: totals are accumulated in this
    order, which keeps reported values bit-for-bit reproducible.
    """

    cases: tuple[Case, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cases", tuple(self.cases))
        if not self.cases:
            raise EmptySet("a training set needs at least one case")
        n = self.cases[0].x.n
        buckets: list[str] = [_kind_bucket(v) for v in self.cases[0].x.values]
        seen: dict[tuple[FeatureValue, ...], int] = {}
        for idx, case in enumerate(self.cases):
            if case.x.n != n:
                raise SchemaMismatch(
                    f"case {idx + 1} has {case.x.n} features, case 1 has {n}"
                )
            for pos, v in enumerate(case.x.values):
                if _kind_bucket(v) != buckets[pos]:
                    raise SchemaMismatch(
                        f"case {idx + 1}, feature {pos + 1}: mixed value kinds in one column"
                    )
            key = case.x.values
            if key in seen:
                raise DuplicateFeatureVector(
                    f"cases {seen[key] + 1} and {idx + 1} share feature vector {key!r}"
                )
            seen[key] = idx

    @property
    def m(self) -> int:
        return len(self.cases)

    @property
    def n(self) -> int:
        return self.cases[0].x.n

    @property
    def feedbacks(self) -> tuple[float, ...]:
        return tuple(case.y for case in self.cases)

    @property
    def features(self) -> tuple[FeatureVector, ...]:
        return tuple(case.x for case in self.cases)


def _kind_bucket(value: FeatureValue) -> str:
    return "symbol" if isinstance(value, str) else "number"


def training_set(pairs: Iterable[tuple[Sequence[FeatureValue], float]]) -> TrainingSet:
    """Build a training set from ``(feature values, feedback)`` pairs."""
    return TrainingSet(tuple(Case(FeatureVector(tuple(xs)), y) for xs, y in pairs))


def require_labels(training: TrainingSet, kind: YKind) -> None:
    """Raise :class:`SchemaMismatch` unless every feedback fits ``kind``."""
    if kind is YKind.REAL:
        return
    allowed = (0, 1) if kind is YKind.BINARY01 else (-1, 1)
    for idx, y in enumerate(training.feedbacks):
        if y not in allowed:
            raise SchemaMismatch(
                f"case {idx + 1} feedback {y!r} outside {set(allowed)!r}"
            )


def reencode_labels(training: TrainingSet, to: YKind) -> TrainingSet:
    """Re-encode binary feedback between the 0/1 and -1/+1 conventions.

    Re-encoding is always explicit; no learner converts labels behind
    the caller's back.
    """
    if to is YKind.PM1:
        mapping = {0: -1, 1: 1, -1: -1}
    elif to is YKind.BINARY01:
        mapping = {-1: 0, 0: 0, 1: 1}
    else:
        raise InvalidParameter("re-encoding targets a binary convention")
    out = []
    for idx, case in enumerate(training.cases):
        if case.y not in mapping:
            raise SchemaMismatch(f"case {idx + 1} feedback {case.y!r} is not binary")
        out.append(Case(case.x, mapping[case.y]))
    return TrainingSet(tuple(out))


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
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        object.__setattr__(self, "a", float(self.a))
        if not self.b:
            raise InvalidParameter("a linear hypothesis needs at least one coefficient")
        if not all(math.isfinite(v) for v in (*self.b, self.a)):
            raise InvalidParameter("linear coefficients must be finite")

    @property
    def n(self) -> int:
        return len(self.b)

    def __call__(self, x: FeatureVector) -> float:
        if x.n != self.n:
            raise DimensionMismatch(f"{self.n}-dim hypothesis applied to {x.n}-dim vector")
        # Fixed-order accumulation keeps evaluations reproducible bit for bit.
        s = 0.0
        for bj, xj in zip(self.b, x.values):
            s += bj * xj
        return s + self.a


Hypothesis = Union[PointwiseHypothesis, LinearHypothesis]


def describe_hypothesis(h: Hypothesis) -> str:
    if isinstance(h, PointwiseHypothesis):
        return f"pointwise(x0={h.x0.values!r}, value={h.value!r})"
    return f"linear(b={h.b!r}, a={h.a!r})"


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
class ReportEntry:
    """One baseline case with its inconsistency score.

    ``counterpart_count`` is ``None`` when the counterpart set is not
    finite (a half-space rather than a list of cases).
    """

    case: Case
    mu: float
    counterpart_count: int | None


@dataclass(frozen=True)
class InconsistencyReport:
    """Per-case scores plus the total a learner minimizes.

    The total is always reproducible from the entries: fold the ``mu``
    column with ``aggregation`` in entry order, then add ``regularizer``
    (a hypothesis-only term, zero for most learners).
    """

    entries: tuple[ReportEntry, ...]
    aggregation: Aggregation
    regularizer: float
    hypothesis: str
    total: float

    @classmethod
    def build(
        cls,
        entries: Sequence[ReportEntry],
        aggregation: Aggregation,
        hypothesis: str,
        regularizer: float = 0.0,
    ) -> "InconsistencyReport":
        entries = tuple(entries)
        if not entries:
            raise EmptySet("a report needs at least one entry")
        for e in entries:
            if not (e.mu >= 0.0):
                raise InvalidParameter(f"case inconsistency must be >= 0, got {e.mu!r}")
        total = aggregate_mus([e.mu for e in entries], aggregation) + regularizer
        return cls(entries, aggregation, regularizer, hypothesis, total)

    def recompute_total(self) -> float:
        return (
            aggregate_mus([e.mu for e in self.entries], self.aggregation)
            + self.regularizer
        )


def aggregate_mus(mus: Sequence[float], aggregation: Aggregation) -> float:
    """Fold per-case scores in the given order."""
    if aggregation is Aggregation.PRODUCT:
        total = 1.0
        for mu in mus:
            total *= mu
        return total
    total = 0.0
    for mu in mus:
        total += mu
    if aggregation is Aggregation.MEAN:
        total /= len(mus)
    return total


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
    and ``value in choices``; NaN meets no bound.
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
        fits = isinstance(value, (int, float) if self.type is float else self.type)
        fits = fits and not isinstance(value, bool)
        if fits and self.choices:
            fits = value in self.choices
        if fits and self.low is not None:
            fits = value > self.low if self.strict else value >= self.low
        if fits and self.high is not None:
            fits = value <= self.high
        if not fits:
            raise InvalidParameter(f"{name or self.key} must be {self.rule}, got {value!r}")


@dataclass(frozen=True)
class FamilySpec:
    """Registry row: the one description of a hypothesis family.

    ``params`` lists the family's parameters in model-file order.
    ``one_of`` names parameters of which exactly one must be given;
    none of them is required on its own.  ``pointwise`` marks a family
    that answers each query from its training cases rather than from a
    fitted hypothesis.
    """

    name: str
    params: tuple[Param, ...]
    y_kinds: frozenset[YKind]
    one_of: tuple[str, ...] = ()
    pointwise: bool = False

    def check(self, values: Mapping[str, object], name: Callable[[str], str] = str) -> None:
        """Raise :class:`InvalidParameter` for an unknown, missing or out-of-range value.

        ``name`` turns a key into the word that messages use for it.
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

    def complete(self, values: Mapping[str, object]) -> dict:
        """``values`` in registry order, with the default of every unset parameter."""
        return {
            p.key: values[p.key] if p.key in values else p.default
            for p in self.params
            if p.key in values or not p.required
        }


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
# Problem statements


@dataclass(frozen=True)
class ProblemStatement:
    """What is being learned: feature layout, feedback domain, family, parameters.

    Construction rejects unknown families, missing or unknown
    parameters, out-of-range parameter values, and a feedback domain
    the family cannot learn from.  It then fills in the default of
    every parameter not given, so ``v`` holds the whole parameter set.
    """

    x_schema: FeatureSchema
    y_kind: YKind
    family: str
    v: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        spec = family_spec(self.family)
        spec.check(self.v)
        if self.y_kind not in spec.y_kinds:
            raise SchemaMismatch(
                f"{self.family} cannot learn from {self.y_kind.value} feedback"
            )
        object.__setattr__(self, "v", spec.complete(self.v))


# ---------------------------------------------------------------------------
# The learner contract


class Learner(ABC):
    """One learner seen through the shared inconsistency contract.

    A learner scores any hypothesis of its family via :meth:`report`
    and solves for a minimizer via :meth:`solve`.
    """

    family: str

    @abstractmethod
    def report(
        self, h: Hypothesis, problem: ProblemStatement, training: TrainingSet
    ) -> InconsistencyReport:
        """Score ``h``: per-baseline-case inconsistencies and their total."""

    @abstractmethod
    def solve(
        self, problem: ProblemStatement, training: TrainingSet
    ) -> tuple[Hypothesis, InconsistencyReport]:
        """The hypothesis of least total inconsistency, with its report."""


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
    learner: Learner, problem: ProblemStatement, training: TrainingSet
) -> tuple[Hypothesis, InconsistencyReport]:
    """Return the hypothesis with minimal total inconsistency, plus its report.

    The learner's solver finds it; a family's finite answers are
    compared by :func:`least_inconsistent` instead.
    """
    if learner.family != problem.family:
        raise IncompatibleFamily(
            f"learner {learner.family!r} cannot take a {problem.family!r} problem"
        )
    return learner.solve(problem, training)


def erm_total_inconsistency(f: Hypothesis, training: TrainingSet) -> float:
    """Sum of absolute disagreements between feedback and prediction.

    This is the plainest instantiation of the shared contract: each
    observed case meets a single hypothetical counterpart at the same
    point, and scores their absolute feedback gap.
    """
    total = 0.0
    for case in training.cases:
        total += abs(case.y - f(case.x))
    return total
