import numpy as np
import pytest

import balancebench as bb
from balancebench import learners
from balancebench.learners import LogisticModel
from balancebench.scenarios import CONFOUNDING_LEVELS, RARITY_LEVELS, expit


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


def _reference_irls(Z, y, ridge, gtol):
    """The IRLS attempt as written before its ridge-0 path dropped the penalty
    terms: every iterate, flag and return of `learners._irls` must equal these."""
    n, p = Z.shape
    pen = np.full(p, ridge)
    pen[0] = 0.0
    pen_diag = np.diag(pen)
    beta = np.zeros(p)
    eta = Z @ beta
    e = np.exp(-np.abs(eta))
    obj = learners._log_likelihood(eta, y, e) - 0.5 * float(pen @ beta**2)
    for _ in range(learners._IRLS_MAX_ITER):
        mu = learners._expit_from(eta, e)
        grad = Z.T @ (y - mu) - pen * beta
        if np.max(np.abs(grad)) < gtol:
            return beta, True
        w = np.maximum(mu * (1.0 - mu), 1e-10)
        hess = Z.T @ (w[:, None] * Z) + pen_diag
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return beta, False
        step = 1.0
        while step >= 1e-10:
            cand = beta + step * delta
            eta_c = Z @ cand
            e_c = np.exp(-np.abs(eta_c))
            obj_c = learners._log_likelihood(eta_c, y, e_c) - 0.5 * float(pen @ cand**2)
            if np.isfinite(obj_c) and obj_c >= obj - 1e-12:
                beta, eta, e, obj = cand, eta_c, e_c, obj_c
                break
            step *= 0.5
        else:
            return beta, False
        if not np.all(np.isfinite(beta)) or np.max(np.abs(beta)) > 1e3:
            return beta, False
    mu = learners._expit_from(eta, e)
    grad = Z.T @ (y - mu) - pen * beta
    return beta, bool(np.max(np.abs(grad)) < gtol)


@pytest.fixture(scope="module")
def iptw_run_fits():
    """Every fit_logistic call (design, labels, model) and every IRLS attempt
    ((Z, y, ridge, gtol), beta, converged) of a fixed IPTW run over the nine
    n=250 scenarios."""
    fits, attempts = [], []
    fit, irls = learners.fit_logistic, learners._irls

    def recording_fit(design, labels):
        model = fit(design, labels)
        fits.append((design, labels, model))
        return model

    def recording_irls(*args):
        beta, converged = irls(*args)
        attempts.append((args, beta, converged))
        return beta, converged

    scenarios = tuple((250, r, c) for r in RARITY_LEVELS for c in CONFOUNDING_LEVELS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learners, "fit_logistic", recording_fit)
        mp.setattr(learners, "_irls", recording_irls)
        bb.run(bb.RunConfig(scenarios=scenarios, replications=5, methods=("iptw",), master_seed=300000))
    return fits, attempts


def test_fits_equal_the_reference_irls_fits(iptw_run_fits, monkeypatch):
    fits, _ = iptw_run_fits
    assert len(fits) == 9 * 5 * 6
    assert any(model.ridge_used > 0.0 for _, _, model in fits)
    monkeypatch.setattr(learners, "_irls", _reference_irls)
    for design, labels, model in fits:
        reference = learners.fit_logistic(design, labels)
        assert np.array_equal(reference.coefficients, model.coefficients)
        assert reference.ridge_used == model.ridge_used


def test_irls_attempts_equal_the_reference(iptw_run_fits):
    _, attempts = iptw_run_fits
    ridges = {args[2] > 0.0 for args, _, _ in attempts}
    assert ridges == {False, True}
    assert any(not converged and np.abs(beta).max() > 1e3 for _, beta, converged in attempts)
    for args, beta, converged in attempts:
        reference_beta, reference_converged = _reference_irls(*args)
        assert np.array_equal(reference_beta, beta)
        assert reference_converged == converged
