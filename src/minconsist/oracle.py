"""Brute-force references, instance generators, and verification drivers.

Everything here exists to check the learners from the outside: the
reference answers are computed by deliberately plain code that never
calls the implementation it validates, and the drivers sweep seeded
random instances so a failure always comes with the seed that
reproduces it.

numpy is imported inside the functions that draw or scan, not here, so
importing this module (as the command line does) costs only the
standard library.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .core import (
    BoxTooLarge,
    ExhaustedRetries,
    FeatureValue,
    FeatureVector,
    InvalidParameter,
    LinearHypothesis,
    TrainingSet,
    training_set,
)
from .linear import (
    SvmParams,
    svm_slack,
    svm_objectives_agree,
    svm_slack_is_feasible,
    svm_slack_is_minimal,
)

if TYPE_CHECKING:
    import numpy as np

GRID_POINT_LIMIT = 10_000_000


# ---------------------------------------------------------------------------
# Brute-force references


def brute_knn_majority(
    x0: FeatureVector, training: TrainingSet, k: int, metric: str = "euclidean"
) -> int:
    """Majority vote over the k nearest cases, ties at the cut included.

    Implemented with its own distance code and plain counting; 0 wins a
    split vote.  A distance beyond the floating-point range sorts after
    every finite one, and such distances are compared with each other
    measured from coordinates scaled by 2**-600.
    """
    if k < 1:
        raise InvalidParameter(f"k must be positive, got {k!r}")
    if k > training.m:
        raise InvalidParameter(f"k={k} but only {training.m} cases")
    if metric not in ("euclidean", "manhattan"):
        raise InvalidParameter(f"unknown metric {metric!r}")

    def measured(x: FeatureVector, scale: float) -> float:
        diffs = [a * scale - b * scale for a, b in zip(x.values, x0.values)]
        if metric == "euclidean":
            return math.sqrt(sum(d * d for d in diffs))
        return sum(abs(d) for d in diffs)

    dists = []
    for case in training.cases:
        d = measured(case.x, 1)
        dists.append((d, measured(case.x, 2.0 ** -600) if d == math.inf else 0.0))
    cutoff = sorted(dists)[k - 1]
    votes = Counter(
        case.y for case, d in zip(training.cases, dists) if d <= cutoff
    )
    return 1 if votes.get(1, 0) > votes.get(0, 0) else 0


def brute_nb_total(x0: FeatureVector, training: TrainingSet, label: int) -> float:
    """Product of per-feature disagreement fractions, straight off the raw cases."""
    total = 1.0
    for pos in range(x0.n):
        value = x0.values[pos]
        matches = [case for case in training.cases if case.x.values[pos] == value]
        if not matches:
            mu = 0.5
        else:
            mu = sum(1 for case in matches if case.y != label) / len(matches)
        total *= mu
    return total


def grid_search_linear(
    objective: Callable[[LinearHypothesis], float],
    bounds: Sequence[tuple[float, float]],
    step: float,
) -> tuple[LinearHypothesis, float]:
    """Exhaustive lattice scan over (b..., a); first minimizer wins.

    The scan order is lexicographic over the axes, so equal minima
    resolve deterministically.  Boxes beyond ``GRID_POINT_LIMIT``
    lattice points are refused.
    """
    if not step > 0:
        raise InvalidParameter(f"step must be positive, got {step!r}")
    if len(bounds) < 1:
        raise InvalidParameter("bounds must cover at least the intercept axis")
    axes = [_axis(lo, hi, step) for lo, hi in bounds]
    points = 1
    for axis in axes:
        points *= len(axis)
    if points > GRID_POINT_LIMIT:
        raise BoxTooLarge(f"{points} lattice points exceed {GRID_POINT_LIMIT}")
    best: tuple[LinearHypothesis, float] | None = None
    for combo in itertools.product(*axes):
        h = LinearHypothesis(tuple(combo[:-1]), combo[-1])
        value = objective(h)
        if best is None or value < best[1]:
            best = (h, value)
    assert best is not None
    return best


def _axis(lo: float, hi: float, step: float) -> list[float]:
    if hi < lo:
        raise InvalidParameter(f"bound ({lo}, {hi}) is empty")
    out = []
    i = 0
    while True:
        v = lo + i * step
        if v > hi + 1e-12:
            break
        out.append(v)
        i += 1
    return out


def svm_objective_grids(
    training: TrainingSet,
    params: SvmParams,
    box: float = 3.0,
    step: float = 0.05,
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Both margin-objective routes evaluated over a full lattice.

    Returns the lattice shape plus two flat value arrays in lexicographic
    scan order: one accumulating ``|y f(x) - 1|`` outside each case's
    half-space, one accumulating the closed-form slack.  Vectorized so
    wide scans stay affordable.
    """
    import numpy as np

    n = training.n
    axis = np.round(np.arange(-box, box + step / 2, step), 12)
    grids = np.meshgrid(*([axis] * (n + 1)), indexing="ij")
    shape = grids[0].shape
    via_distance = np.zeros(shape)
    via_slack = np.zeros(shape)
    for case in training.cases:
        fx = grids[n].copy()
        for j in range(n):
            fx += grids[j] * case.x.values[j]
        margin = case.y * fx
        inside = margin >= 1.0
        via_distance += np.where(inside, 0.0, np.abs(margin - 1.0))
        via_slack += np.where(inside, 0.0, 1.0 - margin)
    reg = params.w * sum(grids[j] ** 2 for j in range(n)) if n else 0.0
    via_distance = reg + via_distance / training.m
    via_slack = reg + via_slack / training.m
    return shape, via_distance.ravel(), via_slack.ravel()


def random_feasible_slack(
    f: LinearHypothesis, training: TrainingSet, seed: int, noise: float = 1.0
) -> tuple[float, ...]:
    """The determined slack plus seeded non-negative noise; zero noise returns it unchanged."""
    if noise < 0:
        raise InvalidParameter(f"noise must be >= 0, got {noise!r}")
    import numpy as np

    rng = np.random.default_rng(seed)
    base = svm_slack(f, training)
    bumps = rng.uniform(0.0, 1.0, size=training.m) * noise
    return tuple(z + float(u) for z, u in zip(base, bumps))


# ---------------------------------------------------------------------------
# Seeded instance generation


@dataclass(frozen=True)
class RandomInstance:
    """Recipe for one reproducible random dataset.

    Kept deliberately small: dimension at most 3, sample size at most
    20, which is plenty to exercise every code path while keeping
    thousand-instance sweeps fast.
    """

    seed: int
    n: int = 1
    m: int = 8
    feature_kind: str = "numeric"
    label_scheme: str = "pm1"
    levels: int = 5
    queries: int = 5

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 3:
            raise InvalidParameter(f"n must lie in 1..3, got {self.n!r}")
        if not 1 <= self.m <= 20:
            raise InvalidParameter(f"m must lie in 1..20, got {self.m!r}")
        if self.feature_kind not in ("numeric", "ordinal", "nominal"):
            raise InvalidParameter(f"unknown feature kind {self.feature_kind!r}")
        if self.label_scheme not in ("binary01", "pm1", "real"):
            raise InvalidParameter(f"unknown label scheme {self.label_scheme!r}")
        if self.levels < 2:
            raise InvalidParameter(f"levels must be >= 2, got {self.levels!r}")
        if self.queries < 0:
            raise InvalidParameter(f"queries must be >= 0, got {self.queries!r}")


_MAX_DRAWS_PER_CASE = 200


def generate_instance(
    spec: RandomInstance,
) -> tuple[TrainingSet, tuple[FeatureVector, ...]]:
    """Draw a training set honoring feature-vector distinctness, plus queries.

    Colliding draws are resampled; when the value universe cannot host
    ``m`` distinct vectors the attempt budget runs out and
    :class:`ExhaustedRetries` is raised rather than looping forever.
    """
    import numpy as np

    rng = np.random.default_rng(spec.seed)
    seen: set[tuple, ...] = set()
    pairs = []
    budget = _MAX_DRAWS_PER_CASE * spec.m
    while len(pairs) < spec.m:
        if budget <= 0:
            raise ExhaustedRetries(
                f"could not draw {spec.m} distinct vectors (seed {spec.seed})"
            )
        budget -= 1
        xs = _draw_values(rng, spec)
        if xs in seen:
            continue
        seen.add(xs)
        pairs.append((xs, _draw_label(rng, spec)))
    queries = tuple(FeatureVector(_draw_values(rng, spec)) for _ in range(spec.queries))
    return training_set(pairs), queries


def _draw_values(rng: np.random.Generator, spec: RandomInstance) -> tuple[FeatureValue, ...]:
    if spec.feature_kind == "numeric":
        return tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=spec.n))
    if spec.feature_kind == "ordinal":
        return tuple(int(v) for v in rng.integers(0, spec.levels, size=spec.n))
    return tuple(
        f"{chr(ord('a') + int(v))}{pos}"
        for pos, v in enumerate(rng.integers(0, spec.levels, size=spec.n))
    )


def _draw_label(rng: np.random.Generator, spec: RandomInstance) -> float:
    if spec.label_scheme == "binary01":
        return int(rng.integers(0, 2))
    if spec.label_scheme == "pm1":
        return int(rng.choice((-1, 1)))
    return float(rng.uniform(-2.0, 2.0))


def random_linear_instance(seed: int) -> tuple[LinearHypothesis, TrainingSet]:
    """A random affine hypothesis, in 1 to 3 dimensions, with 1 to 20 matching -1/+1 cases."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 21))
    spec = RandomInstance(seed=seed + 1, n=n, m=m, feature_kind="numeric",
                          label_scheme="pm1", queries=0)
    training, _ = generate_instance(spec)
    b = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=n))
    a = float(rng.uniform(-2.0, 2.0))
    return LinearHypothesis(b, a), training


# ---------------------------------------------------------------------------
# Verification drivers


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one randomized check."""

    name: str
    trials: int
    ok: bool
    first_failure_seed: int | None = None

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" (seed {self.first_failure_seed})" if not self.ok else ""
        return f"{status} {self.name}: {self.trials} trials{extra}"


def _sweep(name: str, trials: int, seed: int, holds: Callable[..., bool]) -> CheckResult:
    """Test ``holds(f, training, s)`` on the random linear instance of each seed s in turn.

    The result names the first seed that fails.
    """
    for s in range(seed, seed + trials):
        f, training = random_linear_instance(s)
        if not holds(f, training, s):
            return CheckResult(name, trials, False, s)
    return CheckResult(name, trials, True)


def verify_slack_feasibility(trials: int = 1000, seed: int = 0) -> CheckResult:
    """Determined slacks are feasible on every random instance."""
    return _sweep("slack-feasibility", trials, seed,
                  lambda f, training, s: svm_slack_is_feasible(f, training))


def verify_slack_minimality(trials: int = 1000, seed: int = 0) -> CheckResult:
    """No random feasible slack undercuts the determined one."""
    return _sweep("slack-minimality", trials, seed, lambda f, training, s: svm_slack_is_minimal(
        f, training, random_feasible_slack(f, training, seed=s)
    ))


def verify_objective_identity(trials: int = 1000, seed: int = 0) -> CheckResult:
    """Both objective forms agree exactly at the determined slacks."""
    import numpy as np

    return _sweep("objective-identity", trials, seed, lambda f, training, s: svm_objectives_agree(
        f, training, SvmParams(float(np.random.default_rng(s).uniform(0.01, 1.0)))
    ))


def verify_argmin_agreement(instances: int = 8, seed: int = 0) -> CheckResult:
    """Both objective routes pick the same minimizer on the default lattice.

    The instances are one-dimensional, with 2 to 6 cases.
    """
    import numpy as np

    for t in range(instances):
        rng = np.random.default_rng(seed + t)
        m = int(rng.integers(2, 7))
        spec = RandomInstance(seed=seed + t + 1, n=1, m=m, feature_kind="numeric",
                              label_scheme="pm1", queries=0)
        training, _ = generate_instance(spec)
        params = SvmParams(float(rng.uniform(0.01, 1.0)))
        _, via_distance, via_slack = svm_objective_grids(training, params)
        same_values = bool(np.array_equal(via_distance, via_slack))
        same_argmin = int(np.argmin(via_distance)) == int(np.argmin(via_slack))
        if not (same_values and same_argmin):
            return CheckResult("grid-argmin-agreement", instances, False, seed + t)
    return CheckResult("grid-argmin-agreement", instances, True)


def run_all_checks(trials: int = 1000, seed: int = 0) -> list[CheckResult]:
    """The four equivalence checks behind the command-line verify step.

    The three slack checks run ``trials`` instances each; the lattice
    check, which scans a whole grid per instance, runs at most 8.
    """
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials!r}")
    return [
        verify_slack_feasibility(trials, seed),
        verify_slack_minimality(trials, seed),
        verify_objective_identity(trials, seed),
        verify_argmin_agreement(min(trials, 8), seed),
    ]
