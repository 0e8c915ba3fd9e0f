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
finds the least total of all three.  Each loss is written once, as the
problem the solver takes, which the subgradients read; a fit and an
audit both score through :func:`svm_report` or :func:`svr_report`.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .core import (
    Aggregation,
    Case,
    DimensionMismatch,
    FamilySpec,
    FeatureColumns,
    IncompatibleFamily,
    InconsistencyReport,
    InfeasibleSlack,
    InvalidParameter,
    LinearHypothesis,
    Param,
    SolverDiverged,
    TrainingSet,
    YKind,
    aggregate_mus,
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


# ---------------------------------------------------------------------------
# Margin classification pieces


def squared_weight_norm(f: LinearHypothesis) -> float:
    """The regularizer body ||b||^2, kept separately retrievable."""
    total = 0.0
    for bj in f.b:
        total += bj * bj
    return total


def svm_case_inconsistency(alpha: Case, f: LinearHypothesis) -> float:
    """Zero inside the case's half-space y f(x) >= 1, else the margin distance |y f(x) - 1|.

    This is the geometric route to the slack value; it never writes the
    closed form down.
    """
    return _margin_inconsistency(alpha.y, f(alpha.x))


def _margin_inconsistency(y: float, fx: float) -> float:
    """:func:`svm_case_inconsistency` of a case with label ``y`` at which ``f`` is ``fx``."""
    if y not in (-1, 1):
        raise InvalidParameter(f"half-space label must be -1 or 1, got {y!r}")
    margin = y * fx
    return 0.0 if margin >= 1.0 else abs(margin - 1.0)


def svm_slack(f: LinearHypothesis, training: TrainingSet) -> tuple[float, ...]:
    """The smallest feasible slack, case by case: 0 or 1 - y f(x), in case order."""
    require_labels(training, YKind.PM1)
    margins = [y * fx for y, fx in zip(training.feedbacks, f.block(training.columns))]
    return tuple(0.0 if margin >= 1.0 else 1.0 - margin for margin in margins)


def slack_feasible(f: LinearHypothesis, training: TrainingSet, zeta: Sequence[float]) -> bool:
    """Whether zeta satisfies every margin constraint and is non-negative.

    The margin constraint is tested as ``zeta_i >= 1 - y_i f(x_i)``: the
    same arithmetic that defines the closed-form slack, so rounding in a
    rearranged comparison cannot flag a spurious one-ulp violation.
    """
    if len(zeta) != training.m:
        raise DimensionMismatch(f"{len(zeta)} slacks for {training.m} cases")
    for z, y, fx in zip(zeta, training.feedbacks, f.block(training.columns)):
        if z < 0.0 or z < 1.0 - y * fx:
            return False
    return True


def svm_objective(f: LinearHypothesis, training: TrainingSet, params: SvmParams) -> float:
    """Unconstrained margin objective: w ||b||^2 + mean of determined slacks."""
    zeta = svm_slack(f, training)
    return params.w * squared_weight_norm(f) + aggregate_mus(zeta, Aggregation.MEAN)


def svm_constrained_objective(
    f: LinearHypothesis,
    training: TrainingSet,
    zeta: Sequence[float],
    params: SvmParams,
) -> float:
    """Margin objective with caller-supplied slack variables.

    Raises :class:`InfeasibleSlack` when the slacks violate a margin
    constraint; with the smallest feasible slacks this evaluates to
    exactly the same number as :func:`svm_objective`.
    """
    if not slack_feasible(f, training, zeta):
        raise InfeasibleSlack("slack vector violates the margin constraints")
    return params.w * squared_weight_norm(f) + aggregate_mus(zeta, Aggregation.MEAN)


def svm_slack_is_feasible(f: LinearHypothesis, training: TrainingSet) -> bool:
    """The determined slacks are always feasible."""
    return slack_feasible(f, training, svm_slack(f, training))


def svm_slack_is_minimal(
    f: LinearHypothesis, training: TrainingSet, zeta: Sequence[float]
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
    _require_numeric_features(training)
    require_labels(training, YKind.PM1)
    mus = list(map(_margin_inconsistency, training.feedbacks, f.block(training.columns)))
    return InconsistencyReport.build(
        mus, (None,) * len(mus), Aggregation.MEAN, regularizer=params.w * squared_weight_norm(f),
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
    mus = _tube_losses(f, training, params.epsilon)
    return aggregate_mus(mus, Aggregation.SUM) + _tube_regularizer(f, params)


def _tube_losses(f: LinearHypothesis, training: TrainingSet, epsilon: float) -> list[float]:
    """:func:`svr_case_inconsistency` at every case, in case order, through one block."""
    fxs = f.block(training.columns)
    return [v_epsilon(y - fx, epsilon) for y, fx in zip(training.feedbacks, fxs)]


def _tube_regularizer(f: LinearHypothesis, params: SvrParams) -> float:
    """lambda ||b||^2, and 0 at lambda = 0 even where ||b||^2 overflows."""
    return params.lam * squared_weight_norm(f) if params.lam else 0.0


def svr_report(
    f: LinearHypothesis, training: TrainingSet, params: SvrParams
) -> InconsistencyReport:
    """Per-case tube losses with the summed, regularized total."""
    _require_numeric_features(training)
    mus = _tube_losses(f, training, params.epsilon)
    return InconsistencyReport.build(
        mus, (1,) * len(mus), Aggregation.SUM, regularizer=_tube_regularizer(f, params),
    )


# ---------------------------------------------------------------------------
# Subgradients


def svm_objective_subgradient(
    f: LinearHypothesis, training: TrainingSet, params: SvmParams
) -> tuple[tuple[float, ...], float]:
    """A subgradient of the margin objective at f, from :func:`svm_solve`'s problem.

    Cases on the margin boundary contribute nothing; that is a valid
    subgradient choice at the kink.
    """
    return _subgradient(f, *_svm_problem(training, params))


def svr_objective_subgradient(
    f: LinearHypothesis, training: TrainingSet, params: SvrParams
) -> tuple[tuple[float, ...], float]:
    """A subgradient of the tube objective at f, from :func:`svr_solve`'s problem; kinks give 0."""
    return _subgradient(f, *_svr_problem(training, params))


def _subgradient(f: LinearHypothesis, rows, offsets, kinks, slopes, rho: float):
    """``2 rho b + sum_i slope(r_i) u_i`` at z = (b, a), split as (b part, a part).

    ``r_i = u_i·z + o_i`` is case i's place on the loss of :func:`_least_total`;
    a case exactly on a kink contributes nothing.
    """
    z = (*f.b, f.a)
    g = [2.0 * rho * bj for bj in f.b] + [0.0]
    for u, o in zip(rows, offsets):
        r = _dot(u, z) + o
        slope = 0.0 if r in kinks else slopes[bisect.bisect_left(kinks, r)]
        if slope:
            g = [gj + slope * uj for gj, uj in zip(g, u)]
    return tuple(g[:-1]), g[-1]


# ---------------------------------------------------------------------------
# The exact solver

# The exact solver's step bound is this many steps per case and coefficient.
# No fit comes near it; it turns a cycling bug into an error.
STEPS_PER_ROW = 50


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
    step or down the projected gradient where nothing curves it.  The step is
    long (Fourer, 1985): it crosses every kink at which the total still falls
    and stops where its slope turns non-negative, at a kink whose case joins
    the set or at the Newton point between two kinks.  A step of length 0
    crosses no kink and pins the first.  At a subspace minimum, multipliers
    between their kinks' two slopes certify the optimum; otherwise the worst
    case, or after a zero-length step the lowest-numbered (Bland), leaves.
    More than ``STEPS_PER_ROW (m + p)`` steps raise SolverDiverged.
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
    bound = STEPS_PER_ROW * (len(U) + p)
    for _ in range(bound):
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
            # The long step: walk the kinks that unpinned cases reach along d, nearest
            # first (ties to the lowest-numbered case), each adding its slope jump to
            # the total's slope.  A case moving at under 1e-12 |u| |d| has none:
            # pinned rows stay independent.  A linear walk whose next kink's quotient
            # overflows, although the kink may be in range, walks again along 2**600 d
            # (such a d is a projected gradient, so it stays in range).
            for retry in (False, True):
                if retry:
                    d = [math.ldexp(x, 600) for x in d]
                step_to, blocker, crossed = _walk(U, z, d, offsets, kinks, slopes,
                                                  piece, pinned, small, _dot(g, d), alpha)
                if step_to < math.inf or alpha < math.inf:
                    break
            if step_to == 0.0 and crossed:
                # A step of length 0 crosses nothing: it pins the first kink, so
                # pieces change while z stands still only on release (Bland's rule).
                blocker, crossed = crossed[0][:2], []
            z = [zj + step_to * dj for zj, dj in zip(z, d)]
            if not all(map(math.isfinite, z)):
                raise SolverDiverged("the fit left the floating-point range")
            for i, k, rate in crossed:
                piece[i] = k + 1 if rate > 0 else k
            stalled = step_to == 0.0
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
    raise SolverDiverged(f"the solver found no certified optimum in {bound} steps")


def _walk(U, z, d, offsets, kinks, slopes, piece, pinned, small, slope, reach):
    """(length, case and kink to pin or None, (case, kink, rate) crossed) of a step along d.

    The total's slope along d starts at ``slope`` < 0.  On a Newton step it
    rises linearly to 0 at ``reach``, the Newton point; on a ray nothing curves
    (``reach`` inf) it stays.  Each kink an unpinned case crosses adds
    (s_{k+1} - s_k) |u·d|.  The walk stops at the first kink after which the
    slope is non-negative, pinning its case, or at the Newton point between
    two kinks.  The total is bounded below, so on a ray a slope still under 0
    after the last kink is rounding, and that kink's case is pinned.  A length
    of inf means the ray found no kink in range.
    """
    norm, ahead = math.hypot(*d), []
    for i, u in enumerate(U):
        rate = _dot(u, d)
        if i in pinned or abs(rate) <= small[i] * norm:
            continue
        uz = _dot(u, z)
        reached = range(piece[i], len(kinks)) if rate > 0 else range(piece[i] - 1, -1, -1)
        ahead += [(max(0.0, (kinks[k] - uz - offsets[i]) / rate), i, k, rate) for k in reached]
    ahead.sort(key=operator.itemgetter(0, 1))  # stable: a case's nearer kink first
    curved, jumps, crossed = reach < math.inf, 0.0, []
    for t, i, k, rate in ahead:
        if not curved and t == math.inf:
            return math.inf, None, []
        smooth = slope * (1.0 - t / reach) if curved else slope
        if smooth + jumps >= 0.0:  # the Newton point comes first
            break
        jumps += (slopes[k + 1] - slopes[k]) * abs(rate)
        if smooth + jumps >= 0.0:
            return t, (i, k), crossed
        crossed.append((i, k, rate))
    if curved:
        return reach * (1.0 + jumps / slope), None, crossed
    if crossed:
        i, k, _ = crossed.pop()
        return t, (i, k), crossed
    return math.inf, None, []


def _fit(report, training: TrainingSet, params, *problem) -> Fit:
    """The least-total hypothesis of ``problem``, with its report, if its total is finite."""
    try:
        z = _least_total(*problem)
    except OverflowError:
        raise SolverDiverged("the fit left the floating-point range") from None
    f = LinearHypothesis(z[:-1], z[-1])
    if all(map(math.isfinite, f.block(training.columns))):
        try:
            return f, report(f, training, params)
        except SolverDiverged:  # the report's total is beyond the range
            pass
    raise SolverDiverged("the least total inconsistency is beyond the floating-point range")


def svm_solve(training: TrainingSet, params: SvmParams) -> Fit:
    """The hypothesis of least margin objective, with its report."""
    return _fit(svm_report, training, params, *_svm_problem(training, params))


def svr_solve(training: TrainingSet, params: SvrParams) -> Fit:
    """The hypothesis of least tube objective, with its report."""
    return _fit(svr_report, training, params, *_svr_problem(training, params))


def _svm_problem(training: TrainingSet, params: SvmParams):
    """(rows, offsets, kinks, slopes, rho) of the margin objective, for :func:`_least_total`.

    A case's row is y (x, 1), so its place is its margin y f(x); its loss
    falls at 1/m up to the kink at 1 and is flat after it.
    """
    xs = _feature_rows(training)
    require_labels(training, YKind.PM1)
    rows = [[y * x for x in (*row, 1.0)] for row, y in zip(xs, training.feedbacks)]
    return rows, [0.0] * len(rows), (1.0,), (-1.0 / training.m, 0.0), params.w


def _svr_problem(training: TrainingSet, params: SvrParams):
    """(rows, offsets, kinks, slopes, rho) of the tube objective, for :func:`_least_total`.

    A case's place is f(x) - y, its residual negated; its loss is flat
    inside the tube [-epsilon, epsilon] and has slope 1 outside it.
    """
    xs = _feature_rows(training)
    eps = params.epsilon
    kinks, slopes = ((-eps, eps), (-1.0, 0.0, 1.0)) if eps else ((0.0,), (-1.0, 1.0))
    rows = [[*row, 1.0] for row in xs]
    offsets = [-float(y) for y in training.feedbacks]
    return rows, offsets, kinks, slopes, params.lam


# ---------------------------------------------------------------------------
# The family rows


def _require_numeric_features(training: TrainingSet) -> None:
    """Raise :class:`IncompatibleFamily` at the first symbol among the features.

    A training set holds one value kind per column, so case 1 speaks for every case.
    """
    for pos, column in enumerate(training.columns.columns):
        if isinstance(column[0], str):
            raise IncompatibleFamily(f"case 1, feature {pos + 1}: linear learners need numbers")


def _feature_rows(training: TrainingSet) -> Iterator[tuple[float, ...]]:
    """Each case's features as floats, once they are checked to be numbers."""
    _require_numeric_features(training)
    return zip(*(map(float, column) for column in training.columns.columns))


def _svr_params(params: Mapping[str, object]) -> SvrParams:
    """The tube of ``svr``; ``erm``, which has no parameters, gets zero width and weight."""
    return SvrParams(params.get(EPSILON.key, 0.0), params.get(LAMBDA.key, 0.0))


def _answers(params, f: LinearHypothesis, training, queries: FeatureColumns) -> list[float]:
    return f.block(queries)


# Kept because the benchmark's tracer patches ``ErmLearner.report``; no command calls it.
class ErmLearner:
    """Absolute-loss fitting: tube regression with zero width and no regularization."""

    def report(self, h, problem, training):
        return svr_report(h, training, SvrParams(0.0, 0.0))


# ---------------------------------------------------------------------------
# Family registration

# The rows look their solver and report functions up when called, as the benchmark's
# tracer needs.
register_family(FamilySpec(
    "svm", (W,), frozenset({YKind.PM1}), _answers,
    lambda params, f, training: svm_report(f, training, SvmParams(params[W.key])),
    lambda params, training: svm_solve(training, SvmParams(params[W.key]))[0],
    keeps=LinearHypothesis,
))
for _name, _params in (("svr", (EPSILON, LAMBDA)), ("erm", ())):
    register_family(FamilySpec(
        _name, _params, frozenset(YKind), _answers,
        lambda params, f, training: svr_report(f, training, _svr_params(params)),
        lambda params, training: svr_solve(training, _svr_params(params))[0],
        keeps=LinearHypothesis,
    ))
