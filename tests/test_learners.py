import numpy as np
import pytest

import balancebench as bb
from balancebench.learners import LogisticModel
from balancebench.scenarios import expit


def test_engineer_features_misspecified_is_identity():
    X = bb.sample_covariates(30, np.random.default_rng(0))
    out = bb.engineer_features(X, "propensity", False)
    np.testing.assert_array_equal(out, X)
    assert out.shape == (30, 10)


def test_engineer_features_appends_interactions():
    X = np.zeros((1, 10))
    X[0, 0] = 1.0
    X[0, 1] = 2.0
    out = bb.engineer_features(X, "propensity", True)
    assert out.shape == (1, 11)
    assert out[0, 10] == 4.0

    X = np.zeros((1, 10))
    X[0, 2] = 0.0
    X[0, 3] = 5.0
    out = bb.engineer_features(X, "outcome", True)
    assert out[0, 10] == 0.0


def test_engineer_features_rejects_wrong_shape():
    with pytest.raises(ValueError):
        bb.engineer_features(np.zeros((5, 9)), "outcome", False)
    for well_specified in (False, True):
        with pytest.raises(ValueError, match="unknown target"):
            bb.engineer_features(np.zeros((5, 10)), "thing", well_specified)


def test_fit_recovers_known_coefficients():
    rng = np.random.default_rng(1)
    n = 100_000
    design = rng.standard_normal((n, 3))
    beta = np.array([0.4, -0.7, 0.2, 1.1])
    p = expit(beta[0] + design @ beta[1:])
    y = (rng.random(n) < p).astype(float)
    model = bb.fit_logistic(design, y)
    assert model.ridge_used == 0.0
    np.testing.assert_allclose(model.coefficients, beta, atol=0.05)


def test_intercept_only_fit():
    y = np.array([1.0] * 30 + [0.0] * 70)
    model = bb.fit_logistic(np.empty((100, 0)), y)
    assert model.coefficients[0] == pytest.approx(np.log(0.3 / 0.7), abs=1e-7)


def test_separation_falls_back_to_ridge():
    y = np.array([0.0] * 20 + [1.0] * 20)
    design = y.reshape(-1, 1).copy()
    model = bb.fit_logistic(design, y)
    assert model.ridge_used > 0


def test_gradient_small_at_unpenalized_optimum():
    rng = np.random.default_rng(2)
    design = rng.standard_normal((500, 4))
    y = (rng.random(500) < expit(design @ np.array([0.5, -0.5, 0.2, 0.0]))).astype(float)
    model = bb.fit_logistic(design, y)
    assert model.ridge_used == 0.0
    Z = np.column_stack([np.ones(500), design])
    grad = Z.T @ (y - expit(Z @ model.coefficients))
    assert np.max(np.abs(grad)) < 1e-6


def test_single_class_rejected():
    with pytest.raises(ValueError):
        bb.fit_logistic(np.zeros((10, 2)), np.ones(10))
    with pytest.raises(ValueError):
        bb.fit_logistic(np.zeros((10, 2)), np.array([0, 1, 2, 0, 0, 0, 0, 0, 0, 0]))


def test_predict_proba_matches_scalar_loop():
    rng = np.random.default_rng(3)
    design = rng.standard_normal((40, 5))
    y = (rng.random(40) < 0.4).astype(float)
    model = bb.fit_logistic(design, y)
    preds = bb.predict_proba(model, design)
    for i in range(40):
        eta = model.coefficients[0] + float(design[i] @ model.coefficients[1:])
        assert preds[i] == pytest.approx(1.0 / (1.0 + np.exp(-eta)), abs=1e-14)


def test_predict_proba_clamped_and_monotone():
    model = LogisticModel(np.array([0.0, 5.0]), 0.0)
    x = np.array([[-500.0], [0.0], [1.0], [500.0]])
    p = bb.predict_proba(model, x)
    assert p[0] >= 1e-12 and p[-1] <= 1 - 1e-12
    assert np.all(np.diff(p) >= 0)
    zero = bb.predict_proba(LogisticModel(np.array([0.7, 1.0]), 0.0), np.zeros((1, 1)))
    assert zero[0] == pytest.approx(expit(0.7), abs=1e-15)


def test_predict_proba_shape_mismatch():
    model = LogisticModel(np.array([0.0, 1.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        bb.predict_proba(model, np.zeros((3, 5)))


def test_well_specified_beats_misspecified_in_likelihood():
    spec = bb.build_scenario("common", "moderate", 2000, 13)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))

    def mean_ll(well_specified):
        design = bb.engineer_features(ds.X, "propensity", well_specified)
        pred = bb.predict_proba(bb.fit_logistic(design, ds.T), design)
        return float(np.mean(ds.T * np.log(pred) + (1 - ds.T) * np.log1p(-pred)))

    assert mean_ll(True) >= mean_ll(False)
