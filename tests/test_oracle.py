"""Brute-force and randomized cross-checks of the learners."""

import numpy as np
import pytest

from minconsist import (
    BoxTooLarge,
    ExhaustedRetries,
    FeatureVector,
    InvalidParameter,
    LinearHypothesis,
    SvmParams,
    knn_predict,
    nb_predict,
    svm_objective,
    svm_slack,
    training_set,
)
from minconsist.oracle import (
    CheckResult,
    RandomInstance,
    brute_knn_majority,
    brute_nb_total,
    generate_instance,
    grid_search_linear,
    random_feasible_slack,
    random_linear_instance,
    run_all_checks,
    svm_objective_grids,
    verify_argmin_agreement,
    verify_objective_identity,
    verify_slack_feasibility,
    verify_slack_minimality,
)


def vec(*values):
    return FeatureVector.of(*values)


class TestBruteKnn:
    def test_matches_the_learner_on_a_hand_instance(self):
        T = training_set([((0,), 1), ((0.1,), 1), ((0.9,), 0), ((1,), 0)])
        assert brute_knn_majority(vec(0.05), T, 3) == knn_predict(vec(0.05), T, 3)[0]

    def test_split_vote_gives_zero(self):
        T = training_set([((0,), 0), ((1,), 1)])
        assert brute_knn_majority(vec(0.5), T, 2) == 0

    def test_random_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = int(rng.integers(3, 12))
            spec = RandomInstance(seed=int(rng.integers(0, 10_000)), n=2, m=m,
                                  label_scheme="binary01", queries=3)
            T, queries = generate_instance(spec)
            k = int(rng.choice([1, 3]))
            if k > m:
                continue
            for q in queries:
                assert brute_knn_majority(q, T, k) == knn_predict(q, T, k)[0]


class TestBruteNb:
    def test_hand_instance(self):
        T = training_set(
            [(("a", "p"), 1), (("a", "q"), 0), (("b", "p"), 0), (("b", "q"), 0)]
        )
        label, report = nb_predict(vec("a", "p"), T)
        assert brute_nb_total(vec("a", "p"), T, label) == report.total

    def test_unseen_value_factor(self):
        T = training_set([(("a",), 1), (("b",), 0)])
        assert brute_nb_total(vec("c"), T, 1) == 0.5


class TestGridSearch:
    def test_quadratic_bowl(self):
        def objective(f):
            return (f.b[0] - 1.0) ** 2 + (f.a + 0.5) ** 2

        f, value = grid_search_linear(objective, [(-2.0, 2.0), (-2.0, 2.0)], 0.5)
        assert f.b == (1.0,)
        assert f.a == -0.5
        assert value == 0.0

    def test_flat_objective_returns_the_first_lattice_point(self):
        f, value = grid_search_linear(lambda f: 7.0, [(-1.0, 1.0), (-1.0, 1.0)], 1.0)
        assert (f.b, f.a) == ((-1.0,), -1.0)
        assert value == 7.0

    def test_single_point_box(self):
        f, value = grid_search_linear(
            lambda f: f.b[0], [(0.25, 0.25), (0.0, 0.0)], 0.1
        )
        assert (f.b, f.a) == ((0.25,), 0.0)

    def test_oversized_box_refused(self):
        with pytest.raises(BoxTooLarge):
            grid_search_linear(lambda f: 0.0, [(-100.0, 100.0), (-100.0, 100.0)], 0.01)


class TestObjectiveGrids:
    def test_both_routes_identical_and_indexable(self):
        T = training_set([((0.5,), 1), ((-1.0,), -1), ((2.0,), 1)])
        params = SvmParams(0.25)
        shape, via_distance, via_slack = svm_objective_grids(T, params, box=1.0, step=0.25)
        assert shape == (9, 9)
        assert np.array_equal(via_distance, via_slack)
        idx = int(np.argmin(via_distance))
        *b, a = (-1.0 + int(c) * 0.25 for c in np.unravel_index(idx, shape))
        f = LinearHypothesis(tuple(b), a)
        assert via_distance[idx] == svm_objective(f, T, params)

    def test_grid_agrees_with_scalar_scan(self):
        T = training_set([((0.5,), 1), ((-1.0,), -1)])
        params = SvmParams(0.5)
        shape, via_distance, _ = svm_objective_grids(T, params, box=1.0, step=0.5)
        f_scan, v_scan = grid_search_linear(
            lambda f: svm_objective(f, T, params), [(-1.0, 1.0), (-1.0, 1.0)], 0.5
        )
        idx = int(np.argmin(via_distance))
        *b, a = (-1.0 + int(c) * 0.5 for c in np.unravel_index(idx, shape))
        f_grid = LinearHypothesis(tuple(b), a)
        assert v_scan == via_distance[idx]
        assert (f_grid.b, f_grid.a) == (f_scan.b, f_scan.a)


class TestRandomSlack:
    def test_zero_noise_returns_the_determined_slack(self):
        f, T = random_linear_instance(4)
        zeta = random_feasible_slack(f, T, seed=1, noise=0.0)
        assert tuple(zeta) == tuple(svm_slack(f, T))

    def test_noise_only_increases_components(self):
        f, T = random_linear_instance(4)
        base = svm_slack(f, T)
        zeta = random_feasible_slack(f, T, seed=1)
        assert all(z >= b for z, b in zip(zeta, base))

    def test_negative_noise_rejected(self):
        f, T = random_linear_instance(4)
        with pytest.raises(InvalidParameter):
            random_feasible_slack(f, T, seed=1, noise=-0.5)


class TestInstanceGeneration:
    def test_reproducible(self):
        a, qa = generate_instance(RandomInstance(seed=5, n=2, m=6))
        b, qb = generate_instance(RandomInstance(seed=5, n=2, m=6))
        assert a.cases == b.cases and qa == qb

    def test_label_schemes(self):
        pm1, _ = generate_instance(RandomInstance(seed=1, m=10, label_scheme="pm1"))
        assert set(pm1.feedbacks) <= {-1, 1}
        b01, _ = generate_instance(RandomInstance(seed=1, m=10, label_scheme="binary01"))
        assert set(b01.feedbacks) <= {0, 1}

    def test_nominal_values_cannot_collide_across_positions(self):
        T, _ = generate_instance(
            RandomInstance(seed=3, n=3, m=10, feature_kind="nominal")
        )
        per_position = [set() for _ in range(3)]
        for case in T.cases:
            for pos, v in enumerate(case.x.values):
                per_position[pos].add(v)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (per_position[i] & per_position[j])

    def test_too_small_a_universe_fails_loudly(self):
        # 5 ordinal levels in one dimension cannot host 20 distinct vectors.
        with pytest.raises(ExhaustedRetries):
            generate_instance(
                RandomInstance(seed=0, n=1, m=20, feature_kind="ordinal", levels=5)
            )

    def test_spec_validation(self):
        with pytest.raises(InvalidParameter):
            RandomInstance(seed=0, n=0)
        with pytest.raises(InvalidParameter):
            RandomInstance(seed=0, m=21)
        with pytest.raises(InvalidParameter):
            RandomInstance(seed=0, feature_kind="fractal")


class TestCheckDrivers:
    def test_all_pass_on_a_small_budget(self):
        results = run_all_checks(10, seed=0)
        assert [r.name for r in results] == [
            "slack-feasibility",
            "slack-minimality",
            "objective-identity",
            "grid-argmin-agreement",
        ]
        assert all(r.ok for r in results)

    def test_budget_scaling_caps_grid_instances(self):
        assert [r.trials for r in run_all_checks(9, seed=0)] == [9, 9, 9, 8]
        assert [r.trials for r in run_all_checks(3, seed=0)] == [3, 3, 3, 3]
        with pytest.raises(InvalidParameter):
            run_all_checks(0)

    def test_result_lines(self):
        ok = CheckResult("slack-feasibility", 10, True)
        assert ok.line() == "PASS slack-feasibility: 10 trials"
        bad = CheckResult("slack-feasibility", 10, False, first_failure_seed=7)
        assert bad.line() == "FAIL slack-feasibility: 10 trials (seed 7)"

    def test_drivers_report_the_failing_seed(self, monkeypatch):
        import minconsist.oracle as oracle

        monkeypatch.setattr(oracle, "svm_slack_is_feasible", lambda f, T: False)
        result = verify_slack_feasibility(trials=5, seed=3)
        assert not result.ok
        assert result.first_failure_seed == 3

        monkeypatch.setattr(oracle, "svm_slack_is_minimal", lambda f, T, z: False)
        result = verify_slack_minimality(trials=5, seed=3)
        assert not result.ok and result.first_failure_seed == 3

        monkeypatch.setattr(oracle, "svm_objectives_agree", lambda f, T, p: False)
        result = verify_objective_identity(trials=5, seed=3)
        assert not result.ok and result.first_failure_seed == 3

    def test_grid_driver_detects_a_skewed_route(self, monkeypatch):
        import minconsist.oracle as oracle

        true_grids = oracle.svm_objective_grids

        def skewed(training, params, box=3.0, step=0.05):
            shape, via_distance, via_slack = true_grids(training, params, box, step)
            return shape, via_distance + 1e-9, via_slack

        monkeypatch.setattr(oracle, "svm_objective_grids", skewed)
        result = verify_argmin_agreement(instances=2, seed=0)
        assert not result.ok

    def test_individual_drivers_pass(self):
        assert verify_slack_feasibility(trials=20, seed=0).ok
        assert verify_slack_minimality(trials=20, seed=0).ok
        assert verify_objective_identity(trials=20, seed=0).ok
        assert verify_argmin_agreement(instances=2, seed=0).ok
