"""Linear learners: margin classification, tube regression, absolute-loss fitting.

The classification learner scores each observed case by its distance to
the margin half-space its label demands, which reproduces the familiar
hinge slack exactly.  Two routes to that number are implemented on
purpose (a distance through the half-space geometry, and the closed
form of the smallest feasible slack) so the equality between them can
be checked rather than assumed.  The regression learner swaps the
half-space for a tube of width epsilon and drops the sample-size
normalization; with a zero-width tube and no regularization it
collapses to plain absolute-loss fitting.  One exact active-set solver
finds the least total of all three.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .core import (
    Aggregation,
    Case,
    DimensionMismatch,
    FamilySpec,
    FeatureVector,
    IncompatibleFamily,
    InconsistencyReport,
    InfeasibleSlack,
    InvalidParameter,
    Learner,
    LinearHypothesis,
    Param,
    ProblemStatement,
    ReportEntry,
    SolverDiverged,
    TrainingSet,
    YKind,
    aggregate_mus,
    describe_hypothesis,
    register_family,
    require_labels,
)


# ---------------------------------------------------------------------------
# Parameters and small value types

Fit = tuple[LinearHypothesis, InconsistencyReport]

W = Param("w", "--w", float, low=0.0, strict=True, help="weight-norm coefficient")
EPSILON = Param("epsilon", "--epsilon", float, low=0.0, help="tube half-width")
LAMBDA = Param("lambda", "--lambda", float, low=0.0, help="regularization")


@dataclass(frozen=True)
class SvmParams:
    """Margin objective weight: total = w * ||b||^2 + mean slack."""

    w: float

    def __post_init__(self) -> None:
        W.check(self.w)


@dataclass(frozen=True)
class SvrParams:
    """Tube half-width and regularization weight for tube regression."""

    epsilon: float
    lam: float

    def __post_init__(self) -> None:
        EPSILON.check(self.epsilon)
        LAMBDA.check(self.lam)


@dataclass(frozen=True)
class SlackVector:
    """Per-case slack values aligned with a training set's case order."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


@dataclass(frozen=True)
class HalfSpace:
    """The region where a hypothesis honors one case's label with margin one."""

    f: LinearHypothesis
    y: int

    def __post_init__(self) -> None:
        if self.y not in (-1, 1):
            raise InvalidParameter(f"half-space label must be -1 or 1, got {self.y!r}")

    def contains(self, x: FeatureVector) -> bool:
        return self.y * self.f(x) >= 1.0


# ---------------------------------------------------------------------------
# Margin classification pieces


def squared_weight_norm(f: LinearHypothesis) -> float:
    """The regularizer body ||b||^2, kept separately retrievable."""
    total = 0.0
    for bj in f.b:
        total += bj * bj
    return total


def svm_case_inconsistency(alpha: Case, f: LinearHypothesis) -> float:
    """Zero inside the case's half-space, else the margin distance |y f(x) - 1|.

    This is the geometric route to the slack value; it never writes the
    closed form down.
    """
    hs = HalfSpace(f, _pm1_label(alpha.y))
    if hs.contains(alpha.x):
        return 0.0
    return abs(hs.y * hs.f(alpha.x) - 1.0)


def _pm1_label(y: float) -> int:
    if y == 1:
        return 1
    if y == -1:
        return -1
    raise InvalidParameter(f"margin classification needs -1/+1 feedback, got {y!r}")


def svm_slack(f: LinearHypothesis, training: TrainingSet) -> SlackVector:
    """The smallest feasible slack, case by case: 0 or 1 - y f(x)."""
    require_labels(training, YKind.PM1)
    out = []
    for case in training.cases:
        margin = case.y * f(case.x)
        out.append(0.0 if margin >= 1.0 else 1.0 - margin)
    return SlackVector(tuple(out))


def slack_feasible(f: LinearHypothesis, training: TrainingSet, zeta: SlackVector) -> bool:
    """Whether zeta satisfies every margin constraint and is non-negative.

    The margin constraint is tested as ``zeta_i >= 1 - y_i f(x_i)``: the
    same arithmetic that defines the closed-form slack, so rounding in a
    rearranged comparison cannot flag a spurious one-ulp violation.
    """
    if len(zeta) != training.m:
        raise DimensionMismatch(f"{len(zeta)} slacks for {training.m} cases")
    for case, z in zip(training.cases, zeta):
        if z < 0.0:
            return False
        if z < 1.0 - case.y * f(case.x):
            return False
    return True


def svm_objective(f: LinearHypothesis, training: TrainingSet, params: SvmParams) -> float:
    """Unconstrained margin objective: w ||b||^2 + mean of determined slacks."""
    zeta = svm_slack(f, training)
    return params.w * squared_weight_norm(f) + aggregate_mus(zeta.values, Aggregation.MEAN)


def svm_constrained_objective(
    f: LinearHypothesis,
    training: TrainingSet,
    zeta: SlackVector,
    params: SvmParams,
) -> float:
    """Margin objective with caller-supplied slack variables.

    Raises :class:`InfeasibleSlack` when the slacks violate a margin
    constraint; with the smallest feasible slacks this evaluates to
    exactly the same number as :func:`svm_objective`.
    """
    if not slack_feasible(f, training, zeta):
        raise InfeasibleSlack("slack vector violates the margin constraints")
    return params.w * squared_weight_norm(f) + aggregate_mus(zeta.values, Aggregation.MEAN)


def svm_slack_is_feasible(f: LinearHypothesis, training: TrainingSet) -> bool:
    """The determined slacks are always feasible."""
    return slack_feasible(f, training, svm_slack(f, training))


def svm_slack_is_minimal(
    f: LinearHypothesis, training: TrainingSet, zeta: SlackVector
) -> bool:
    """No feasible slack undercuts the determined one anywhere."""
    if not slack_feasible(f, training, zeta):
        raise InfeasibleSlack("comparison slack must itself be feasible")
    determined = svm_slack(f, training)
    return all(zs <= zi for zs, zi in zip(determined, zeta))


def svm_objectives_agree(
    f: LinearHypothesis, training: TrainingSet, params: SvmParams
) -> bool:
    """At the determined slacks the two objective forms agree exactly."""
    zeta = svm_slack(f, training)
    return svm_constrained_objective(f, training, zeta, params) == svm_objective(
        f, training, params
    )


def svm_report(
    f: LinearHypothesis, training: TrainingSet, params: SvmParams
) -> InconsistencyReport:
    """Per-case margin inconsistencies with the regularized mean total."""
    require_labels(training, YKind.PM1)
    entries = tuple(
        ReportEntry(case, svm_case_inconsistency(case, f), None)
        for case in training.cases
    )
    return InconsistencyReport.build(
        entries,
        Aggregation.MEAN,
        describe_hypothesis(f),
        regularizer=params.w * squared_weight_norm(f),
    )


# ---------------------------------------------------------------------------
# Tube regression pieces


def v_epsilon(residual: float, epsilon: float) -> float:
    """Tube loss: zero strictly inside the tube, linear outside."""
    if abs(residual) < epsilon:
        return 0.0
    return abs(residual) - epsilon


def svr_case_inconsistency(alpha: Case, f: LinearHypothesis, params: SvrParams) -> float:
    """Tube loss of the case's residual against the hypothesis."""
    return v_epsilon(alpha.y - f(alpha.x), params.epsilon)


def svr_objective(f: LinearHypothesis, training: TrainingSet, params: SvrParams) -> float:
    """Summed tube losses plus lambda ||b||^2; no sample-size normalization."""
    mus = [svr_case_inconsistency(case, f, params) for case in training.cases]
    return aggregate_mus(mus, Aggregation.SUM) + params.lam * squared_weight_norm(f)


def svr_report(
    f: LinearHypothesis, training: TrainingSet, params: SvrParams
) -> InconsistencyReport:
    entries = tuple(
        ReportEntry(case, svr_case_inconsistency(case, f, params), 1)
        for case in training.cases
    )
    return InconsistencyReport.build(
        entries,
        Aggregation.SUM,
        describe_hypothesis(f),
        regularizer=params.lam * squared_weight_norm(f) if params.lam else 0.0,
    )


# ---------------------------------------------------------------------------
# Subgradients


def svm_objective_subgradient(
    f: LinearHypothesis, training: TrainingSet, params: SvmParams
) -> tuple[tuple[float, ...], float]:
    """A subgradient of the margin objective at f.

    Cases on the margin boundary contribute nothing; that is a valid
    subgradient choice at the kink.
    """
    m = training.m
    gb = [2.0 * params.w * bj for bj in f.b]
    ga = 0.0
    for case in training.cases:
        if case.y * f(case.x) < 1.0:
            for j, xj in enumerate(case.x.values):
                gb[j] -= case.y * xj / m
            ga -= case.y / m
    return tuple(gb), ga


def svr_objective_subgradient(
    f: LinearHypothesis, training: TrainingSet, params: SvrParams
) -> tuple[tuple[float, ...], float]:
    """A subgradient of the tube objective at f; tube-boundary kinks give zero."""
    gb = [2.0 * params.lam * bj for bj in f.b]
    ga = 0.0
    for case in training.cases:
        r = case.y - f(case.x)
        if abs(r) > params.epsilon:
            s = 1.0 if r > 0 else -1.0
            for j, xj in enumerate(case.x.values):
                gb[j] -= s * xj
            ga -= s
    return tuple(gb), ga


# ---------------------------------------------------------------------------
# The exact solver


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum(map(operator.mul, u, v))


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """``x`` with ``matrix x = rhs``, by Gauss-Jordan elimination with partial pivoting."""
    n = len(rhs)
    rows = [[*row, r] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n] / row[i] for i, row in enumerate(rows)]


def _project(basis: Sequence[Sequence[float]], v: Sequence[float]) -> list[float]:
    """``v`` less its part in the span of the orthonormal ``basis``."""
    for q in basis:
        c = _dot(q, v)
        v = [x - c * qj for x, qj in zip(v, q)]
    return list(v)


def _orthonormal(vectors, basis=(), floor: float = 1e-13) -> list[list[float]]:
    """``basis`` extended by Gram-Schmidt with each vector more than ``floor`` outside it."""
    out = list(basis)
    for v in vectors:
        r = _project(out, _project(out, v))  # the second pass undoes rounding
        if math.hypot(*r) > floor * math.hypot(*v):
            out.append([x / math.hypot(*r) for x in r])
    return out


def _least_total(rows, offsets, kinks, slopes, rho: float) -> tuple[float, ...]:
    """The exact minimizer z = (b, a) of sum_i L(rows[i]·z + offsets[i]) + rho ||b||^2.

    L is convex and piecewise linear, slope ``slopes[k]`` left of ``kinks[k]``;
    each row ends with a nonzero intercept entry.  A primal active-set method
    (Nocedal & Wright, ch. 16): each step heads for the least total on the
    subspace where the working set's cases stay on their kinks, by a Newton
    step or down the projected gradient where nothing curves it, and the first
    case to reach a kink joins the set.  At a subspace minimum, multipliers
    between their kinks' two slopes certify the optimum; otherwise the worst
    case, or after a zero-length step the lowest-numbered (Bland), leaves.
    """
    p = len(rows[0])
    # Powers of two put each column's largest entry in [1, 2): exact, and no
    # product of two entries overflows.  The scaled curvature 2 rho 4**shift
    # is held as 2**level times a factor in [2**-40, 1] (raising a smaller one
    # moves the total by under 1e-12 of the regularizer and keeps the Newton
    # system regular); a coefficient whose curvature overflows is 0 at the
    # float optimum, so its column is zeroed.
    shifts = [1 - math.frexp(max(abs(row[j]) for row in rows))[1] for j in range(p)]
    mantissa, power = math.frexp(rho)
    exponents = [power + 1 + 2 * s for s in shifts[:-1]]
    fixed = [rho > 0 and e > 1024 for e in exponents] + [False]
    level = max((e for e, fix in zip(exponents, fixed) if not fix), default=0)
    scaled = [0.0 if not rho else 1.0 if fix else max(math.ldexp(mantissa, e - level), 2**-40)
              for e, fix in zip(exponents, fixed)] + [0.0]
    curvature = [0.0 if fix else math.ldexp(h, level) for h, fix in zip(scaled, fixed)]
    reach = math.ldexp(1.0, -level) if level > -1024 else math.inf
    U = [[0.0 if fix else math.ldexp(x, s) for x, s, fix in zip(row, shifts, fixed)]
         for row in rows]
    cols, small = list(zip(*U)), [1e-12 * math.hypot(*u) for u in U]
    axes = [[float(i == j) for i in range(p)] for j in range(p)]
    tol = 2e-11 * len(U) * max(map(abs, slopes))

    z, stalled = [0.0] * p, False
    piece = [bisect.bisect_left(kinks, v) for v in offsets]
    work: list[tuple[int, int]] = []  # (case, kink) pairs pinned in place
    while True:
        pinned = {i for i, _ in work}
        G = [U[i] for i, _ in work]
        weights = [0.0 if i in pinned else slopes[k] for i, k in enumerate(piece)]
        g = [hj * zj + _dot(weights, col) for hj, zj, col in zip(curvature, z, cols)]
        span = _orthonormal(G)
        drift = _project(span, g)
        if len(span) < p and max(map(abs, drift)) > tol + 1e-12 * max(map(abs, g)):
            if not rho or (not work and abs(g[-1]) > tol):
                # Nothing curves the whole drift (no regularizer) or the intercept.
                d = [-x for x in drift] if not rho else [0.0] * (p - 1) + [-g[-1]]
                alpha = math.inf
            else:  # Newton, in an orthonormal basis Y; the intercept held if nothing is pinned
                held = span or axes[-1:]
                Y = _orthonormal(axes, held, 0.5 / math.sqrt(p))[len(held):]
                M = [[_dot([h * x for h, x in zip(scaled, a)], b) for b in Y] for a in Y]
                d = [_dot(_solve(M, [-_dot(y, g) for y in Y]), col) for col in zip(*Y)]
                alpha = reach
            # Ratio test: the first unpinned case to reach a kink stops the step.  One
            # moving at under 1e-12 |u| |d| never does: pinned rows stay independent.
            norm, blocker = math.hypot(*d), None
            for i, u in enumerate(U):
                rate = _dot(u, d)
                k = piece[i] if rate > 0 else piece[i] - 1
                if i in pinned or not 0 <= k < len(kinks) or abs(rate) <= small[i] * norm:
                    continue
                step = max(0.0, (kinks[k] - _dot(u, z) - offsets[i]) / rate)
                if step < alpha:
                    alpha, blocker = step, (i, k)
            z = [zj + alpha * dj for zj, dj in zip(z, d)]
            if not all(map(math.isfinite, z)):
                raise SolverDiverged("the fit left the floating-point range")
            stalled = alpha == 0.0
            work += [blocker] if blocker else []
            continue
        # A subspace minimum: certify it, or release one pinned case.
        mu = _solve([[_dot(a, b) for b in G] for a in G], [-_dot(a, g) for a in G])
        excess = [max(slopes[k] - mk, mk - slopes[k + 1]) for (_, k), mk in zip(work, mu)]
        wrong = [pos for pos, e in enumerate(excess) if e > tol]
        if not wrong:
            return tuple(math.ldexp(zj, s) for zj, s in zip(z, shifts))
        leave = min(wrong, key=lambda pos: work[pos][0] if stalled else -excess[pos])
        i, k = work.pop(leave)
        piece[i] = k + 1 if mu[leave] > slopes[k + 1] else k


def _fit(report, training: TrainingSet, params, *problem) -> Fit:
    """The least-total hypothesis of ``problem``, with its report, if its total is finite."""
    try:
        z = _least_total(*problem)
    except OverflowError:
        raise SolverDiverged("the fit left the floating-point range") from None
    f = LinearHypothesis(z[:-1], z[-1])
    if all(math.isfinite(f(case.x)) for case in training.cases):
        scored = report(f, training, params)
        if math.isfinite(scored.total):
            return f, scored
    raise SolverDiverged("the least total inconsistency is beyond the floating-point range")


def svm_solve(training: TrainingSet, params: SvmParams) -> Fit:
    """The hypothesis of least margin objective, with its report."""
    _require_numeric_features(training)
    require_labels(training, YKind.PM1)
    rows = [[case.y * float(x) for x in (*case.x.values, 1.0)] for case in training.cases]
    slopes = (-1.0 / training.m, 0.0)
    return _fit(svm_report, training, params, rows, [0.0] * len(rows), (1.0,), slopes, params.w)


def svr_solve(training: TrainingSet, params: SvrParams) -> Fit:
    """The hypothesis of least tube objective, with its report."""
    _require_numeric_features(training)
    eps = params.epsilon
    kinks, slopes = ((-eps, eps), (-1.0, 0.0, 1.0)) if eps else ((0.0,), (-1.0, 1.0))
    rows = [[float(x) for x in (*case.x.values, 1.0)] for case in training.cases]
    offsets = [-float(case.y) for case in training.cases]
    return _fit(svr_report, training, params, rows, offsets, kinks, slopes, params.lam)


# ---------------------------------------------------------------------------
# Learner contract adapters


def _require_numeric_features(training: TrainingSet) -> None:
    for idx, case in enumerate(training.cases):
        for pos, v in enumerate(case.x.values):
            if isinstance(v, str):
                raise IncompatibleFamily(
                    f"case {idx + 1}, feature {pos + 1}: linear learners need numbers"
                )


class SvmLearner(Learner):
    """Margin classification over affine hypotheses."""

    family = "svm"

    def _params(self, problem: ProblemStatement) -> SvmParams:
        return SvmParams(problem.v[W.key])

    def report(self, h, problem, training):
        _require_numeric_features(training)
        return svm_report(h, training, self._params(problem))

    def solve(self, problem, training):
        return svm_solve(training, self._params(problem))


class SvrLearner(Learner):
    """Tube regression over affine hypotheses."""

    family = "svr"

    def _params(self, problem: ProblemStatement) -> SvrParams:
        return SvrParams(problem.v[EPSILON.key], problem.v[LAMBDA.key])

    def report(self, h, problem, training):
        _require_numeric_features(training)
        return svr_report(h, training, self._params(problem))

    def solve(self, problem, training):
        return svr_solve(training, self._params(problem))


class ErmLearner(Learner):
    """Absolute-loss fitting: tube regression with zero width and no regularization."""

    family = "erm"

    def report(self, h, problem, training):
        _require_numeric_features(training)
        return svr_report(h, training, SvrParams(0.0, 0.0))

    def solve(self, problem, training):
        return svr_solve(training, SvrParams(0.0, 0.0))


# ---------------------------------------------------------------------------
# Family registration

register_family(FamilySpec("svm", (W,), frozenset({YKind.PM1})))
register_family(FamilySpec("svr", (EPSILON, LAMBDA), frozenset(YKind)))
register_family(FamilySpec("erm", (), frozenset(YKind)))
