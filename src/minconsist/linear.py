"""Linear learners: margin classification, tube regression, absolute-loss fitting.

The classification learner scores each observed case by its distance to
the margin half-space its label demands, which reproduces the familiar
hinge slack exactly.  Two routes to that number are implemented on
purpose (a distance through the half-space geometry, and the closed
form of the smallest feasible slack) so the equality between them can
be checked rather than assumed.  The regression learner swaps the
half-space for a tube of width epsilon and drops the sample-size
normalization; with a zero-width tube and no regularization it
collapses to plain absolute-loss fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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


@dataclass(frozen=True)
class SolverConfig:
    """Subgradient descent controls.

    The step at epoch t is ``eta0 / (1 + t * decay)``.  Subgradient
    steps are not monotone, so a single flat pass proves nothing; the
    solver stops only after the best objective seen has failed to
    improve by at least ``tol`` for ``patience`` consecutive passes, or
    at ``max_iters`` passes.
    """

    eta0: float = 0.1
    decay: float = 0.01
    tol: float = 1e-8
    max_iters: int = 50000
    patience: int = 200

    def __post_init__(self) -> None:
        if not self.eta0 > 0:
            raise InvalidParameter(f"eta0 must be positive, got {self.eta0!r}")
        if not self.decay >= 0:
            raise InvalidParameter(f"decay must be >= 0, got {self.decay!r}")
        if not self.tol >= 0:
            raise InvalidParameter(f"tol must be >= 0, got {self.tol!r}")
        if not isinstance(self.max_iters, int) or self.max_iters < 1:
            raise InvalidParameter(f"max_iters must be >= 1, got {self.max_iters!r}")
        if not isinstance(self.patience, int) or self.patience < 1:
            raise InvalidParameter(f"patience must be >= 1, got {self.patience!r}")


SOLVER = Param("solver", None, SolverConfig, default=SolverConfig())


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
        regularizer=params.lam * squared_weight_norm(f),
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
# Deterministic subgradient descent


def _descend(
    training: TrainingSet,
    n: int,
    cfg: SolverConfig,
    case_subgradient: Callable[[list[float], float, Case], tuple[list[float], float]],
    objective: Callable[[list[float], float], float],
) -> tuple[list[float], float, list[float]]:
    """Shared engine: fixed-order per-case updates, best-seen iterate kept.

    Returns the best coefficients, the best intercept, and the per-epoch
    history of the best objective (non-increasing by construction).
    """
    b = [0.0] * n
    a = 0.0
    best_obj = objective(b, a)
    if not math.isfinite(best_obj):
        raise SolverDiverged("objective is not finite at the starting point")
    best_b = list(b)
    best_a = a
    history = [best_obj]
    stale = 0
    for t in range(cfg.max_iters):
        eta = cfg.eta0 / (1.0 + t * cfg.decay)
        for case in training.cases:
            gb, ga = case_subgradient(b, a, case)
            for j in range(n):
                b[j] -= eta * gb[j]
            a -= eta * ga
        if not all(math.isfinite(v) for v in (*b, a)):
            raise SolverDiverged(
                f"iterate became non-finite at epoch {t + 1}; lower eta0"
            )
        current = objective(b, a)
        if not math.isfinite(current):
            raise SolverDiverged(
                f"objective became non-finite at epoch {t + 1}; lower eta0"
            )
        if current < best_obj:
            improvement = best_obj - current
            best_obj = current
            best_b = list(b)
            best_a = a
        else:
            improvement = 0.0
        history.append(best_obj)
        if improvement < cfg.tol:
            stale += 1
            if stale >= cfg.patience:
                break
        else:
            stale = 0
    return best_b, best_a, history


def svm_solve(
    training: TrainingSet,
    params: SvmParams,
    cfg: SolverConfig = SOLVER.default,
) -> tuple[LinearHypothesis, InconsistencyReport]:
    """Minimize the margin objective from the zero hypothesis."""
    require_labels(training, YKind.PM1)
    n = training.n
    m = training.m
    w = params.w

    def case_subgradient(b: list[float], a: float, case: Case):
        fx = a
        for bj, xj in zip(b, case.x.values):
            fx += bj * xj
        active = case.y * fx < 1.0
        gb = [2.0 * w * bj / m for bj in b]
        ga = 0.0
        if active:
            for j, xj in enumerate(case.x.values):
                gb[j] -= case.y * xj / m
            ga = -case.y / m
        return gb, ga

    def objective(b: list[float], a: float) -> float:
        return svm_objective(LinearHypothesis(tuple(b), a), training, params)

    best_b, best_a, _ = _descend(training, n, cfg, case_subgradient, objective)
    f = LinearHypothesis(tuple(best_b), best_a)
    return f, svm_report(f, training, params)


def svr_solve(
    training: TrainingSet,
    params: SvrParams,
    cfg: SolverConfig = SOLVER.default,
) -> tuple[LinearHypothesis, InconsistencyReport]:
    """Minimize the tube objective from the zero hypothesis."""
    n = training.n
    m = training.m
    lam = params.lam
    eps = params.epsilon

    def case_subgradient(b: list[float], a: float, case: Case):
        fx = a
        for bj, xj in zip(b, case.x.values):
            fx += bj * xj
        r = case.y - fx
        gb = [2.0 * lam * bj / m for bj in b]
        ga = 0.0
        if abs(r) > eps:
            s = 1.0 if r > 0 else -1.0
            for j, xj in enumerate(case.x.values):
                gb[j] -= s * xj
            ga = -s
        return gb, ga

    def objective(b: list[float], a: float) -> float:
        return svr_objective(LinearHypothesis(tuple(b), a), training, params)

    best_b, best_a, _ = _descend(training, n, cfg, case_subgradient, objective)
    f = LinearHypothesis(tuple(best_b), best_a)
    return f, svr_report(f, training, params)


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
        _require_numeric_features(training)
        return svm_solve(training, self._params(problem), problem.v[SOLVER.key])


class SvrLearner(Learner):
    """Tube regression over affine hypotheses."""

    family = "svr"

    def _params(self, problem: ProblemStatement) -> SvrParams:
        return SvrParams(problem.v[EPSILON.key], problem.v[LAMBDA.key])

    def report(self, h, problem, training):
        _require_numeric_features(training)
        return svr_report(h, training, self._params(problem))

    def solve(self, problem, training):
        _require_numeric_features(training)
        return svr_solve(training, self._params(problem), problem.v[SOLVER.key])


class ErmLearner(Learner):
    """Absolute-loss fitting: each case against its single hypothetical twin.

    Solving reuses the tube solver with a zero-width tube and no
    regularization, which evaluates to the identical objective.
    """

    family = "erm"

    def report(self, h, problem, training):
        _require_numeric_features(training)
        entries = tuple(
            ReportEntry(case, abs(case.y - h(case.x)), 1) for case in training.cases
        )
        return InconsistencyReport.build(
            entries, Aggregation.SUM, describe_hypothesis(h)
        )

    def solve(self, problem, training):
        _require_numeric_features(training)
        f, _ = svr_solve(training, SvrParams(0.0, 0.0), problem.v[SOLVER.key])
        return f, self.report(f, problem, training)


# ---------------------------------------------------------------------------
# Family registration

register_family(FamilySpec("svm", (W, SOLVER), frozenset({YKind.PM1})))
register_family(FamilySpec("svr", (EPSILON, LAMBDA, SOLVER), frozenset(YKind)))
register_family(FamilySpec("erm", (SOLVER,), frozenset(YKind)))
