import dataclasses

import numpy as np
import pytest

import balancebench as bb
from balancebench import scenarios
from balancebench.errors import ConfigError, GenerationError
from balancebench.scenarios import (
    LATENT_COVARIANCE,
    ScenarioSpec,
    dichotomize,
    expit,
    propensity_scores,
    response_scores,
    sample_latent,
)


def test_build_scenario_constants():
    assert scenarios.OUTCOME_CONSTANTS["low"] == (-1.5, 1.0) and scenarios.TREATMENT_INTERCEPTS["common"] == -1.84
    assert scenarios.OUTCOME_CONSTANTS["high"] == (-4.1, 5.0) and scenarios.TREATMENT_INTERCEPTS["very_rare"] == -6.5
    assert scenarios.OUTCOME_CONSTANTS["moderate"] == (-2.22, 2.25) and scenarios.TREATMENT_INTERCEPTS["rare"] == -4.12
    assert bb.build_scenario("rare", "moderate", 1000, 3) == ScenarioSpec(1000, "rare", "moderate", 3)
    assert [f.name for f in dataclasses.fields(ScenarioSpec)] == ["n", "rarity", "confounding", "seed"]


def test_expit_equals_the_branchwise_formula_bit_for_bit():
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.standard_normal(1000) * scale for scale in (1.0, 10.0, 300.0)]
                       + [np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf])])
    with np.errstate(over="ignore"):
        reference = np.array([1.0 / (1.0 + np.exp(-v)) if v >= 0 else np.exp(v) / (1.0 + np.exp(v)) for v in z])
    assert np.array_equal(expit(z), reference)
    assert expit(z.reshape(-1, 8)).shape == (len(z) // 8, 8)
    assert isinstance(expit(0.25), float) and expit(0.25) == 1.0 / (1.0 + np.exp(-0.25))
    assert np.isnan(expit(np.nan))


def test_build_scenario_rejects_bad_labels_and_sizes():
    for n, rarity, confounding, seed in (
        (500, "sometimes", "low", 7),
        (500, "common", "extreme", 7),
        (19, "common", "low", 7),
        (250.5, "common", "low", 7),
        (500, "common", "low", -1),
    ):
        with pytest.raises(ConfigError):
            bb.build_scenario(rarity, confounding, n, seed)
        with pytest.raises(ConfigError):
            ScenarioSpec(n, rarity, confounding, seed)


def test_grid_has_36_scenarios():
    grid = bb.grid_scenarios()
    assert len(grid) == 36
    assert len({(s.n, s.rarity, s.confounding) for s in grid}) == 36


def test_latent_correlations():
    rng = np.random.default_rng(5)
    latent = sample_latent(400_000, rng)
    corr = np.corrcoef(latent.T)
    assert corr[1, 5] == pytest.approx(0.9, abs=0.01)
    assert corr[3, 8] == pytest.approx(0.9, abs=0.01)
    assert corr[0, 4] == pytest.approx(0.2, abs=0.01)
    assert corr[2, 7] == pytest.approx(0.2, abs=0.01)
    # empirical covariance matches the latent covariance entrywise
    emp = np.cov(latent.T)
    assert np.max(np.abs(emp - LATENT_COVARIANCE)) < 0.01


def test_binary_columns_are_balanced():
    rng = np.random.default_rng(6)
    X = bb.sample_covariates(400_000, rng)
    binary = [0, 2, 4, 5, 7, 8, 9]
    for j in binary:
        assert set(np.unique(X[:, j])) <= {0.0, 1.0}
        assert X[:, j].mean() == pytest.approx(0.5, abs=0.005)
    for j in (1, 3, 6):
        assert np.unique(X[:, j]).size > 1000


def test_dichotomization_attenuates_correlation():
    # independent oracle: direct bivariate-normal simulation of the (x1, x5) pair
    oracle_rng = np.random.default_rng(99)
    z1 = oracle_rng.standard_normal(400_000)
    z5 = 0.2 * z1 + np.sqrt(1 - 0.04) * oracle_rng.standard_normal(400_000)
    oracle_corr = np.corrcoef((z1 > 0), (z5 > 0))[0, 1]

    rng = np.random.default_rng(7)
    X = bb.sample_covariates(400_000, rng)
    got = np.corrcoef(X[:, 0], X[:, 4])[0, 1]
    assert 0.0 < got < 0.2
    assert got == pytest.approx(oracle_corr, abs=0.01)


def test_true_propensity_at_zero_covariates():
    zeros = np.zeros(10)
    spec = bb.build_scenario("common", "low", 500, 7)
    assert propensity_scores(spec, zeros[None])[0] == pytest.approx(expit(-1.84), abs=1e-12)
    spec = bb.build_scenario("very_rare", "low", 500, 7)
    assert propensity_scores(spec, zeros[None])[0] == pytest.approx(expit(-6.5), abs=1e-12)


def test_true_response_at_zero_covariates():
    zeros = np.zeros(10)
    spec = bb.build_scenario("common", "low", 500, 7)
    assert response_scores(spec, zeros[None])[0] == pytest.approx(expit(-1.5 - 0.2476), abs=1e-12)
    spec = bb.build_scenario("common", "high", 500, 7)
    assert response_scores(spec, zeros[None])[0] == pytest.approx(expit(-4.1 - 0.7734), abs=1e-12)


def _scalar_propensity(spec, x):
    b0 = {"common": -1.84, "rare": -4.12, "very_rare": -6.5}[spec.rarity]
    b = [0.8, -0.25, 0.6, -0.4, -0.8, -0.5, 0.7, 0.0, 0.0, 0.0]
    score = sum(b[j] * x[j] for j in range(10)) + 0.5 * x[0] * x[1] ** 2
    z = b0 + 2.25 * score
    return 1.0 / (1.0 + np.exp(-z))


def _scalar_response(spec, x):
    a0, g, shift = {"low": (-1.5, 1.0, -0.2476), "moderate": (-2.22, 2.25, -0.4120),
                    "high": (-4.1, 5.0, -0.7734)}[spec.confounding]
    a = [0.3, -0.36, -0.73, -0.2, 0.0, 0.0, 0.0, 0.71, -0.19, 0.26]
    score = sum(a[j] * x[j] for j in range(10)) + 0.5 * x[2] * x[3] ** 2
    z = a0 + shift + g * score
    return 1.0 / (1.0 + np.exp(-z))


def test_truths_match_scalar_reimplementation():
    spec = bb.build_scenario("rare", "moderate", 500, 3)
    rng = np.random.default_rng(8)
    X = bb.sample_covariates(50, rng)
    e, mu = propensity_scores(spec, X), response_scores(spec, X)
    for i in range(50):
        assert e[i] == pytest.approx(_scalar_propensity(spec, X[i]), rel=1e-12)
        assert mu[i] == pytest.approx(_scalar_response(spec, X[i]), rel=1e-12)


def test_generate_dataset_invariants():
    spec = bb.build_scenario("common", "moderate", 800, 21)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    assert ds.n == 800 and ds.n0 + ds.n1 == 800
    assert ds.n0 >= 1 and ds.n1 >= 1
    np.testing.assert_array_equal(ds.Y, ds.T * ds.Y1 + (1 - ds.T) * ds.Y0)
    assert ds.e_true.min() > 0 and ds.e_true.max() < 1
    assert ds.mu_true.min() > 0 and ds.mu_true.max() < 1
    binary = [0, 2, 4, 5, 7, 8, 9]
    assert set(np.unique(ds.X[:, binary])) <= {0.0, 1.0}


def test_generate_dataset_deterministic():
    spec = bb.build_scenario("rare", "low", 300, 42)
    a = bb.generate_dataset(spec, bb.replication_rng(spec, 3))
    c = bb.generate_dataset(spec, bb.replication_rng(spec, 3))
    np.testing.assert_array_equal(a.X, c.X)
    np.testing.assert_array_equal(a.T, c.T)
    np.testing.assert_array_equal(a.Y, c.Y)
    d = bb.generate_dataset(spec, bb.replication_rng(spec, 4))
    assert not np.array_equal(a.X, d.X)


def test_oracle_vectors_match_row_oracles():
    spec = bb.build_scenario("very_rare", "high", 200, 9)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 1))
    for i in range(0, 200, 37):
        # the scalar references agree up to summation order
        assert ds.e_true[i] == pytest.approx(_scalar_propensity(spec, ds.X[i]), rel=1e-12)
        assert ds.mu_true[i] == pytest.approx(_scalar_response(spec, ds.X[i]), rel=1e-12)


def test_event_and_treatment_rates_moderate_n():
    # desk-scale version of the large-sample checks (full-size in the acceptance suite)
    for rarity, target in (("common", 0.35), ("rare", 0.15), ("very_rare", 0.05)):
        for confounding in ("low", "moderate", "high"):
            spec = bb.build_scenario(rarity, confounding, 150_000, 17)
            ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
            assert ds.T.mean() == pytest.approx(target, abs=0.012)
            assert 0.23 <= ds.Y.mean() <= 0.27
            assert ds.Y1.mean() - ds.Y0.mean() == pytest.approx(0.0, abs=0.01)


def test_empty_arm_triggers_generation_error(monkeypatch):
    monkeypatch.setitem(scenarios.TREATMENT_INTERCEPTS, "very_rare", -40.0)
    hopeless = ScenarioSpec(n=25, rarity="very_rare", confounding="low", seed=1)
    with pytest.raises(GenerationError):
        bb.generate_dataset(hopeless, bb.replication_rng(hopeless, 0))


def test_crude_estimate():
    spec = bb.build_scenario("common", "low", 500, 7)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    t, y = ds.T, ds.Y
    expected = y[t == 1].mean() - y[t == 0].mean()
    assert bb.crude_estimate(ds) == pytest.approx(expected, abs=1e-14)
    two = dataclasses.replace(ds, T=np.array([1.0, 0.0]), Y=np.array([1.0, 0.0]))
    assert bb.crude_estimate(two) == 1.0
    with pytest.raises(ValueError):
        bb.crude_estimate(dataclasses.replace(ds, T=np.array([1.0, 1.0]), Y=np.array([1.0, 0.0])))


def test_dichotomize_respects_continuous_columns():
    latent = np.array([[-1.0, -1.0, 2.0, 0.5, -0.2, 0.1, 1.4, -3.0, 0.0, 2.2]])
    x = dichotomize(latent)
    assert x[0, 1] == -1.0 and x[0, 3] == 0.5 and x[0, 6] == 1.4
    assert list(x[0, [0, 2, 4, 5, 7, 8, 9]]) == [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0]
