import numpy as np
import pytest

import balancebench as bb
from balancebench.errors import EstimationError
from balancebench.estimators import ResponseSurfaces
from balancebench.weights import BalanceWeights


def make_weights(values, estimand="ATE", kept=None):
    values = np.asarray(values, dtype=float)
    kept = np.ones(values.size, dtype=bool) if kept is None else np.asarray(kept, bool)
    return BalanceWeights(values, estimand, "iptw", kept, {})


def test_weighted_average_uniform_hajek():
    Y = np.array([1.0, 1.0, 0.0, 0.0])
    T = np.array([1.0, 0.0, 1.0, 0.0])
    bw = make_weights([0.5, 0.5, 0.5, 0.5])
    est = bb.weighted_average(Y, T, bw)
    assert est.value == pytest.approx(0.0)
    assert est.valid and est.se is None and est.ci95 is None


def test_weighted_average_constant_propensity_equals_crude():
    spec = bb.build_scenario("common", "low", 200, 1)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    e = np.full(ds.n, 0.4)
    bw = bb.iptw_weights(e, ds.T, "ATE", "hajek")
    from balancebench.scenarios import crude_estimate

    assert bb.weighted_average(ds.Y, ds.T, bw).value == pytest.approx(crude_estimate(ds), abs=1e-12)


def test_weighted_average_matches_scalar_loop():
    rng = np.random.default_rng(0)
    Y = (rng.random(10) < 0.5).astype(float)
    T = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0, 1], dtype=float)
    w = rng.random(10)
    bw = make_weights(w)
    got = bb.weighted_average(Y, T, bw).value
    expected = sum(T[i] * w[i] * Y[i] for i in range(10)) - sum(
        (1 - T[i]) * w[i] * Y[i] for i in range(10)
    )
    assert got == pytest.approx(expected, abs=1e-14)

    bw_att = make_weights(w, "ATT")
    got = bb.weighted_average(Y, T, bw_att).value
    expected = sum(T[i] * Y[i] for i in range(10)) / T.sum() - sum(
        (1 - T[i]) * w[i] * Y[i] for i in range(10)
    )
    assert got == pytest.approx(expected, abs=1e-14)


def test_weighted_average_all_trimmed_group_fails():
    Y = np.array([1.0, 0.0, 1.0])
    T = np.array([1.0, 0.0, 0.0])
    bw = make_weights([0.0, 0.5, 0.5], kept=[False, True, True])
    with pytest.raises(EstimationError):
        bb.weighted_average(Y, T, bw)


def test_awa_noiseless_outcomes_ignore_weights():
    rng = np.random.default_rng(1)
    n = 60
    mu0 = rng.uniform(0.2, 0.8, n)
    mu1 = rng.uniform(0.2, 0.8, n)
    T = (rng.random(n) < 0.5).astype(float)
    if T.sum() in (0, n):
        T[0], T[1] = 1.0, 0.0
    Y = T * mu1 + (1 - T) * mu0  # exactly on the surfaces
    surf = ResponseSurfaces(mu0, mu1)
    plug_in = float(np.mean(mu1 - mu0))
    for w in (rng.random(n), np.zeros(n), np.full(n, 13.7)):
        est = bb.augmented_weighted_average(Y, T, make_weights(w), surf)
        assert est.value == pytest.approx(plug_in, abs=1e-12)


def test_awa_att_formula():
    rng = np.random.default_rng(2)
    n = 12
    Y = (rng.random(n) < 0.4).astype(float)
    T = np.array([1.0] * 4 + [0.0] * 8)
    mu0 = rng.uniform(0.1, 0.9, n)
    w = rng.random(n)
    est = bb.augmented_weighted_average(Y, T, make_weights(w, "ATT"), ResponseSurfaces(mu0, mu0))
    expected = (T * (Y - mu0)).sum() / 4 - ((1 - T) * w * (Y - mu0)).sum()
    assert est.value == pytest.approx(expected, abs=1e-14)


def test_awa_misaligned_surfaces_rejected():
    surf = ResponseSurfaces(np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        bb.augmented_weighted_average(np.zeros(6), np.array([1.0] * 3 + [0.0] * 3), make_weights(np.ones(6)), surf)


def test_weighted_ols_uniform_equals_crude():
    rng = np.random.default_rng(3)
    Y = (rng.random(40) < 0.5).astype(float)
    T = np.array([1.0, 0.0] * 20)
    est = bb.weighted_ols(Y, T, make_weights(np.ones(40)))
    crude = Y[T == 1].mean() - Y[T == 0].mean()
    assert est.value == pytest.approx(crude, abs=1e-12)
    assert est.se is not None and est.ci95 is not None
    lo, hi = est.ci95
    assert lo <= est.value <= hi


def test_weighted_ols_hand_example():
    W = np.array([1.0, 1.0, 2.0])
    T = np.array([1.0, 0.0, 0.0])
    Y = np.array([1.0, 0.0, 1.0])
    est = bb.weighted_ols(Y, T, make_weights(W))
    assert est.value == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_weighted_ols_scale_invariance():
    rng = np.random.default_rng(4)
    Y = (rng.random(30) < 0.4).astype(float)
    T = (rng.random(30) < 0.5).astype(float)
    T[:2] = [1.0, 0.0]
    w = rng.random(30) + 0.1
    base = bb.weighted_ols(Y, T, make_weights(w))
    dyadic = bb.weighted_ols(Y, T, make_weights(4.0 * w))
    assert dyadic.value == base.value  # power-of-two scaling is exact in floats
    other = bb.weighted_ols(Y, T, make_weights(17.3 * w))
    assert other.value == pytest.approx(base.value, abs=1e-14)
    assert other.se == pytest.approx(base.se, abs=1e-10)


def test_weighted_ols_degenerate_groups():
    with pytest.raises(EstimationError):
        bb.weighted_ols(np.array([1.0, 0.0]), np.array([1.0, 0.0]), make_weights([1.0, 0.0], kept=[True, False]))


def test_wa_equals_ols_with_group_normalized_weights():
    spec = bb.build_scenario("rare", "low", 300, 15)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    bw = bb.iptw_weights(ds.e_true, ds.T, "ATE", "hajek")
    wa = bb.weighted_average(ds.Y, ds.T, bw)
    ols = bb.weighted_ols(ds.Y, ds.T, bw)
    assert wa.value == pytest.approx(ols.value, abs=1e-10)


def test_sandwich_zero_residuals():
    Y = np.array([1.0, 1.0, 0.0, 0.0])
    T = np.array([1.0, 1.0, 0.0, 0.0])
    se = bb.weighted_ols(Y, T, make_weights(np.ones(4))).se
    assert se == pytest.approx(0.0, abs=1e-12)


def test_sandwich_matches_direct_matrix_oracle():
    rng = np.random.default_rng(5)
    n = 50
    T = (rng.random(n) < 0.5).astype(float)
    T[:2] = [1.0, 0.0]
    Y = rng.standard_normal(n)
    for W in (np.ones(n), rng.random(n) + 0.1):
        est = bb.weighted_ols(Y, T, make_weights(W))

        Z = np.column_stack([np.ones(n), T])
        beta = np.linalg.solve(Z.T @ (W[:, None] * Z), Z.T @ (W * Y))
        r = Y - Z @ beta
        bread = np.linalg.inv(Z.T @ (W[:, None] * Z))
        meat = Z.T @ np.diag(W**2 * r**2) @ Z
        V = bread @ meat @ bread
        assert est.value == pytest.approx(beta[1], abs=1e-12)
        assert est.se == pytest.approx(np.sqrt(V[1, 1]), abs=1e-10)


def test_sandwich_coverage_monte_carlo():
    rng = np.random.default_rng(6)
    n, reps = 400, 2000
    T = np.array([1.0, 0.0] * (n // 2))
    covered = 0
    for _ in range(reps):
        Y = rng.standard_normal(n)
        est = bb.weighted_ols(Y, T, make_weights(np.ones(n)))
        lo, hi = est.ci95
        covered += lo <= 0.0 <= hi
    assert covered / reps == pytest.approx(0.95, abs=0.015)


def test_estimates_invariant_under_row_permutation():
    rng = np.random.default_rng(7)
    n = 80
    Y = (rng.random(n) < 0.4).astype(float)
    T = (rng.random(n) < 0.4).astype(float)
    T[:2] = [1.0, 0.0]
    w = rng.random(n)
    mu0, mu1 = rng.random(n), rng.random(n)
    perm = rng.permutation(n)

    for field in ("WA", "AWA", "OLS"):
        bw = make_weights(w)
        bw_p = make_weights(w[perm])
        if field == "WA":
            a = bb.weighted_average(Y, T, bw).value
            b = bb.weighted_average(Y[perm], T[perm], bw_p).value
        elif field == "OLS":
            a = bb.weighted_ols(Y, T, bw).value
            b = bb.weighted_ols(Y[perm], T[perm], bw_p).value
        else:
            a = bb.augmented_weighted_average(Y, T, bw, ResponseSurfaces(mu0, mu1)).value
            b = bb.augmented_weighted_average(
                Y[perm], T[perm], bw_p, ResponseSurfaces(mu0[perm], mu1[perm])
            ).value
        assert a == pytest.approx(b, abs=1e-12)


def test_valid_flag_tracks_range():
    Y = np.array([1.0, 0.0])
    T = np.array([1.0, 0.0])
    inside = bb.weighted_average(Y, T, make_weights([1.0, 1.0]))
    assert inside.valid
    outside = bb.weighted_average(Y, T, make_weights([5.0, 1.0]))
    assert abs(outside.value) > 1 and not outside.valid
