import dataclasses

import numpy as np
import pytest

import balancebench as bb
from balancebench import weights
from balancebench.estimators import weighted_average
from balancebench.kernels import KernelSpec, distance_matrix, gram_matrix
from balancebench.weights import (
    BalanceWeights,
    effective_sample_size,
    gp_ridge_selection,
    select_tlf_hyper,
    tlf_fit,
    tlf_weights,
)


# ---------------------------------------------------------------------------
# IPTW
# ---------------------------------------------------------------------------

def raw_iptw(e, T, estimand):
    """IPTW weights at propensities e with no post-processing, every row kept."""
    w = weights._inverse_probability(e, T, estimand, int(T.sum()))
    return BalanceWeights(w, estimand, "iptw", np.ones(T.size, dtype=bool))


def hajek_iptw(e, T, estimand):
    """IPTW weights at propensities e with each group rescaled to sum to one."""
    return weights._sum_to_one(raw_iptw(e, T, estimand).values, (np.flatnonzero(T == 1.0), np.flatnonzero(T == 0.0)))


def test_iptw_ate_constant_propensity():
    e = np.full(4, 0.5)
    T = np.array([1.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(raw_iptw(e, T, "ATE").values, 0.5)
    for postproc in weights.POSTPROCS:  # equal weights are neither trimmed nor capped
        bw = bb.iptw_weights(e, T, "ATE", postproc)
        np.testing.assert_allclose(bw.values, 0.5)
        assert bw.kept_mask.all()


def test_iptw_att_constant_propensity():
    e, T = np.array([0.5, 0.5]), np.array([1.0, 0.0])
    np.testing.assert_allclose(raw_iptw(e, T, "ATT").values, [1.0, 1.0])
    for postproc in weights.POSTPROCS:
        np.testing.assert_allclose(bb.iptw_weights(e, T, "ATT", postproc).values, [1.0, 1.0])


def test_iptw_validation():
    T = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        bb.iptw_weights(np.array([0.0, 0.5]), T, "ATE", "trim99")
    with pytest.raises(ValueError, match="strictly inside"):
        bb.iptw_weights(np.array([0.5, np.nan, 0.3, 0.4]), np.array([1.0, 0.0, 1.0, 0.0]), "ATE", "cap99")
    with pytest.raises(ValueError):
        bb.iptw_weights(np.array([0.5, 0.5]), np.array([1.0, 1.0]), "ATE", "trim99")
    with pytest.raises(ValueError):
        bb.iptw_weights(np.array([0.5, 0.5]), T, "ATM", "trim99")
    for postproc in ("chop", "hajek", "none"):
        with pytest.raises(ValueError, match="unknown postproc"):
            bb.iptw_weights(np.array([0.5, 0.5]), T, "ATE", postproc)


def test_trim99_matches_sort_oracle():
    rng = np.random.default_rng(0)
    n = 200
    e = np.clip(rng.beta(2, 4, n), 0.02, 0.98)
    T = (rng.random(n) < e).astype(float)
    if T.sum() == 0 or T.sum() == n:
        T[0], T[1] = 1.0, 0.0
    bw = bb.iptw_weights(e, T, "ATE", "trim99")
    raw = (T / e + (1 - T) / (1 - e)) / n

    # oracle: manual type-7 quantile from the full sort
    srt = np.sort(raw)
    pos = 0.99 * (n - 1)
    lo, hi = int(np.floor(pos)), int(np.ceil(pos))
    cutoff = srt[lo] + (pos - lo) * (srt[hi] - srt[lo])
    expected_kept = raw <= cutoff
    np.testing.assert_array_equal(bw.kept_mask, expected_kept)
    np.testing.assert_array_equal(bw.kept_mask, raw <= np.percentile(raw, 99.0))
    assert np.all(bw.values[~bw.kept_mask] == 0.0)
    np.testing.assert_allclose(bw.values[bw.kept_mask], raw[expected_kept])


def test_hajek_group_sums():
    rng = np.random.default_rng(1)
    e = np.clip(rng.random(50), 0.05, 0.95)
    T = (rng.random(50) < 0.4).astype(float)
    for estimand in ("ATE", "ATT"):
        w = hajek_iptw(e, T, estimand)
        assert w[T == 1].sum() == pytest.approx(1.0, abs=1e-12)
        assert w[T == 0].sum() == pytest.approx(1.0, abs=1e-12)


def test_cap99_truncates_per_group():
    rng = np.random.default_rng(2)
    e = np.clip(rng.random(300), 0.01, 0.99)
    T = (rng.random(300) < 0.4).astype(float)
    raw = (T / e + (1 - T) / (1 - e)) / 300
    bw = bb.iptw_weights(e, T, "ATE", "cap99")
    assert bw.kept_mask.all()
    for grp in (T == 1.0, T == 0.0):
        cut = np.percentile(raw[grp], 99.0)
        np.testing.assert_array_equal(bw.values[grp], np.minimum(raw[grp], cut))


def test_percentile99_is_numpys_bit_for_bit():
    rng = np.random.default_rng(4)
    for size in range(1, 401):
        for scale in (1e-3, 1.0, 1e3):
            draws = (rng.random(size), np.round(rng.random(size) * 4.0), 1.0 / rng.random(size))
            for w in draws:  # uniform, heavily tied, heavy-tailed
                w = w * scale
                before = w.copy()
                assert weights._percentile99(w) == np.percentile(w, 99.0)
                np.testing.assert_array_equal(w, before)


def test_att_treated_weights_fixed():
    spec = bb.build_scenario("common", "low", 120, 3)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    n1 = ds.n1
    for maker in (
        lambda: raw_iptw(ds.e_true, ds.T, "ATT"),
        lambda: bb.iptw_weights(ds.e_true, ds.T, "ATT", "cap99"),
        lambda: bb.energy_balance(bb.Geometry(ds.X), ds.T, "ATT"),
        lambda: bb.kom_weights(bb.Geometry(ds.X), ds.T, ds.Y, "ATT"),
        lambda: tlf_weights(bb.Geometry(ds.X), ds.T, "ATT", hyper={"lambda": 0.01, "gamma": 0.5}),
    ):
        bw = maker()
        np.testing.assert_allclose(bw.values[ds.T == 1], 1.0 / n1, atol=1e-12)
        assert np.all(bw.values >= 0)
        assert np.all(np.isfinite(bw.values))


def test_effective_sample_size():
    assert effective_sample_size(np.ones(8)) == pytest.approx(8.0)
    assert effective_sample_size(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Energy balancing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("estimand", ["ATE", "ATT"])
def test_identical_rows(estimand):
    # EB and TLF reach the uniform weights by their ordinary solves; KOM's
    # median bandwidth is undefined on a sample with no nonzero distance
    X = np.ones((10, 10))
    T = np.array([1.0] * 3 + [0.0] * 7)
    for bw in (
        bb.energy_balance(bb.Geometry(X), T, estimand),
        tlf_weights(bb.Geometry(X), T, estimand, {"lambda": 1e-2, "gamma": 0.5}),
    ):
        np.testing.assert_allclose(bw.values[T == 1], 1 / 3)
        np.testing.assert_allclose(bw.values[T == 0], 1 / 7)
        assert bw.diagnostics["solver_status"] in {"optimal", "converged"}
    with pytest.raises(ValueError, match="identical"):
        bb.kom_weights(bb.Geometry(X), T, np.zeros(10), estimand)


def energy_distance_objective(D: np.ndarray, w: np.ndarray, T: np.ndarray, estimand: str) -> float:
    """Direct evaluation of the weighted energy-distance objective.

    `w` is on the pre-normalization scale (each group summing to its size).
    An independent check on the QP expansion, whose objective plus the terms
    free of w energy_balance reports as its `energy_objective` diagnostic.
    """
    T = np.asarray(T, dtype=float)
    treated = T == 1.0
    control = ~treated
    n = T.size
    n1 = int(treated.sum())
    n0 = n - n1

    def against_pool(group_mask, size):
        wg = w[group_mask]
        dg = D[group_mask]
        term1 = 2.0 / (size * n) * float(wg @ dg.sum(axis=1))
        term2 = -1.0 / size**2 * float(wg @ D[np.ix_(group_mask, group_mask)] @ wg)
        term3 = -1.0 / n**2 * float(D.sum())
        return term1 + term2 + term3

    def between(w0, w1):
        term1 = 2.0 / (n0 * n1) * float(w0 @ D[np.ix_(control, treated)] @ w1)
        term2 = -1.0 / n0**2 * float(w0 @ D[np.ix_(control, control)] @ w0)
        term3 = -1.0 / n1**2 * float(w1 @ D[np.ix_(treated, treated)] @ w1)
        return term1 + term2 + term3

    if estimand == "ATE":
        return against_pool(control, n0) + against_pool(treated, n1) + between(w[control], w[treated])
    return between(w[control], np.ones(n1))


def test_energy_objective_no_worse_than_uniform():
    spec = bb.build_scenario("rare", "moderate", 150, 9)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 2))
    D = distance_matrix(ds.X)
    for estimand in ("ATE", "ATT"):
        bw = bb.energy_balance(bb.Geometry(ds.X), ds.T, estimand)
        raw = bw.values.copy()
        raw[ds.T == 1] *= ds.n1
        raw[ds.T == 0] *= ds.n0
        opt = energy_distance_objective(D, raw, ds.T, estimand)
        uniform = energy_distance_objective(D, np.ones(ds.n), ds.T, estimand)
        assert opt <= uniform + 1e-10
        assert bw.values[ds.T == 1].sum() == pytest.approx(1.0, abs=1e-9)
        assert bw.values[ds.T == 0].sum() == pytest.approx(1.0, abs=1e-9)


def test_energy_objective_diagnostic_matches_direct_evaluation():
    spec = bb.build_scenario("common", "moderate", 250, 7)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    D = distance_matrix(ds.X)
    for estimand in ("ATE", "ATT"):
        bw = bb.energy_balance(bb.Geometry(ds.X), ds.T, estimand)
        raw = bw.values.copy()
        raw[ds.T == 1] = ds.n1 * raw[ds.T == 1] if estimand == "ATE" else 1.0
        raw[ds.T == 0] *= ds.n0
        direct = energy_distance_objective(D, raw, ds.T, estimand)
        assert bw.diagnostics["energy_objective"] == pytest.approx(direct, rel=1e-12, abs=0)


def _staged_grid_oracle(fn, dim, total, steps=(0.08, 0.008, 0.0008, 0.00008)):
    """Minimize fn over the scaled simplex by staged grid refinement."""

    def simplex_grid(center, radius, step):
        axes = []
        for k in range(dim - 1):
            lo = max(0.0, center[k] - radius)
            hi = min(total, center[k] + radius)
            axes.append(np.arange(lo, hi + step / 2, step))
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim - 1)
        last = total - pts.sum(axis=1)
        ok = last >= -1e-12
        return np.column_stack([pts[ok], np.maximum(last[ok], 0.0)])

    center = np.full(dim, total / dim)
    radius = total
    best = None
    for step in steps:
        pts = simplex_grid(center, radius, step)
        vals = fn(pts)
        best = pts[int(np.argmin(vals))]
        center = best
        radius = 3 * step
    return best


def test_energy_att_matches_grid_oracle():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 2))
    T = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    bw = bb.energy_balance(bb.Geometry(X), T, "ATT")
    control = np.nonzero(T == 0.0)[0]
    treated = np.nonzero(T == 1.0)[0]

    # scalar-formula pieces: 2 E|Wc - Ut| - E|Wc - Wc'| - E|Ut - Ut'|
    cross_mean = np.array(
        [np.mean([np.linalg.norm(X[i] - X[j]) for j in treated]) for i in control]
    )
    within_cc = np.array(
        [[np.linalg.norm(X[i] - X[j]) for j in control] for i in control]
    )
    within_t = float(np.mean([np.linalg.norm(X[i] - X[j]) for i in treated for j in treated]))

    def direct_energy(pts):
        w = pts / 4.0
        return 2 * w @ cross_mean - np.einsum("ri,ij,rj->r", w, within_cc, w) - within_t

    best = _staged_grid_oracle(direct_energy, dim=4, total=4.0)
    np.testing.assert_allclose(bw.values[control] * 4.0, best, atol=1e-3)


def test_energy_weights_permutation_equivariant():
    spec = bb.build_scenario("common", "low", 80, 5)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 1))
    bw = bb.energy_balance(bb.Geometry(ds.X), ds.T, "ATE")
    perm = np.random.default_rng(0).permutation(ds.n)
    bw_p = bb.energy_balance(bb.Geometry(ds.X[perm]), ds.T[perm], "ATE")
    np.testing.assert_allclose(bw_p.values, bw.values[perm], atol=1e-6)


# ---------------------------------------------------------------------------
# Kernel optimal matching
# ---------------------------------------------------------------------------

def test_kom_att_single_control():
    X = np.vstack([np.random.default_rng(0).standard_normal((4, 3)), [[0.0, 0.0, 0.0]]])
    T = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    bw = bb.kom_weights(bb.Geometry(X), T, np.array([1.0, 0.0, 1.0, 0.0, 1.0]), "ATT")
    assert bw.values[4] == pytest.approx(1.0, abs=1e-9)


def test_kom_att_matches_grid_oracle():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((5, 2))
    T = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    Y = (rng.random(5) < 0.4).astype(float)
    geometry = bb.Geometry(X)
    bw = bb.kom_weights(geometry, T, Y, "ATT")
    kernel = KernelSpec("gaussian", geometry.median())
    lam = bw.diagnostics["ridge_control"]
    K = gram_matrix(kernel, X)
    control = T == 0.0
    Q = 2.0 * (K[np.ix_(control, control)] + lam * np.eye(3))
    c = -(2.0 / 2) * K[np.ix_(T == 1.0, control)].sum(axis=0)

    grid = np.arange(0.0, 1.0001, 0.001)
    pts = []
    for w0 in grid:
        w1 = np.arange(0.0, 1.0 - w0 + 5e-4, 0.001)
        pts.append(np.column_stack([np.full(w1.size, w0), w1, 1.0 - w0 - w1]))
    pts = np.vstack(pts)
    vals = 0.5 * np.einsum("ij,jk,ik->i", pts, Q, pts) + pts @ c
    best = pts[int(np.argmin(vals))]
    np.testing.assert_allclose(bw.values[control], best, atol=2e-3)


def test_kom_large_ridge_shrinks_to_uniform():
    spec = bb.build_scenario("common", "low", 100, 8)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    kernel = KernelSpec("gaussian", 2.0)
    control = ds.T == 0.0
    n0 = int(control.sum())

    def max_dev(lam):
        from balancebench.kernels import gram_matrix as gm
        from balancebench.qpsolver import QuadraticProgram, solve_qp

        K = gm(kernel, ds.X)
        Q = 2.0 * (K[np.ix_(control, control)] + lam * np.eye(n0))
        c = -(2.0 / ds.n1) * K[np.ix_(~control, control)].sum(axis=0)
        sol = solve_qp(QuadraticProgram(Q, c, ((tuple(range(n0)), 1.0),)))
        return np.max(np.abs(sol.w - 1.0 / n0))

    assert max_dev(100.0) < max_dev(1.0)
    assert max_dev(100.0) < 2.0 / n0


@pytest.mark.parametrize("rarity", ["common", "rare"])
def test_kom_ate_group_qps_match_joint_qp(rarity):
    from balancebench.qpsolver import QuadraticProgram, solve_qp

    for seed in (11, 12, 13):
        spec = bb.build_scenario(rarity, "moderate", 150, seed)
        ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
        bw = bb.kom_weights(bb.Geometry(ds.X), ds.T, ds.Y, "ATE")
        assert bw.diagnostics["solver_status"] == "optimal"
        # the joint block-diagonal QP over all n coordinates
        K = gram_matrix(KernelSpec("gaussian", bw.diagnostics["kernel_scale"]), ds.X)
        treated, control = np.nonzero(ds.T == 1.0)[0], np.nonzero(ds.T == 0.0)[0]
        Q = np.zeros((ds.n, ds.n))
        for group, lam in ((control, bw.diagnostics["ridge_control"]),
                           (treated, bw.diagnostics["ridge_treated"])):
            Q[np.ix_(group, group)] = 2.0 * (K[np.ix_(group, group)] + lam * np.eye(group.size))
        c = -(2.0 / ds.n) * K.sum(axis=0)
        joint = solve_qp(QuadraticProgram(Q, c, ((tuple(treated), 1.0), (tuple(control), 1.0))))
        assert joint.status == "optimal"
        np.testing.assert_allclose(bw.values, joint.w, rtol=0, atol=1e-8)


def test_kom_ate_certified_only_when_both_group_qps_are(monkeypatch):
    spec = bb.build_scenario("common", "moderate", 120, 10)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    real = weights.solve_qp
    solved = []

    def solve(qp, *args, **kwargs):
        sol = real(qp, *args, **kwargs)
        if qp.n == ds.n1:
            sol = dataclasses.replace(sol, status="max_iter", kkt_residual=1.0, diagonal_shift=0.5)
        solved.append(sol)
        return sol

    monkeypatch.setattr(weights, "solve_qp", solve)
    bw = bb.kom_weights(bb.Geometry(ds.X), ds.T, ds.Y, "ATE")
    assert [s.w.size for s in solved] == [ds.n0, ds.n1]
    assert bw.diagnostics["solver_status"] == "max_iter"
    assert bw.diagnostics["solver_iterations"] == sum(s.iterations for s in solved)
    assert bw.diagnostics["kkt_residual"] == 1.0
    assert bw.diagnostics["diagonal_shift"] == 0.5


@pytest.mark.parametrize("estimand", ["ATE", "ATT"])
def test_eb_and_kom_report_qp_iterations(monkeypatch, estimand):
    spec = bb.build_scenario("common", "moderate", 120, 10)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    real = weights.solve_qp
    solved = []

    def solve(qp, *args, **kwargs):
        solved.append(real(qp, *args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(weights, "solve_qp", solve)
    for method in (lambda: bb.energy_balance(bb.Geometry(ds.X), ds.T, estimand),
                   lambda: bb.kom_weights(bb.Geometry(ds.X), ds.T, ds.Y, estimand)):
        solved.clear()
        bw = method()
        assert bw.diagnostics["solver_status"] == "optimal"
        assert bw.diagnostics["solver_iterations"] == sum(s.iterations for s in solved) >= 1


def _cholesky_ridge_selection(K_group, y_group, grid=weights.KOM_RIDGE_GRID):
    """Reference: gp_ridge_selection with one Cholesky factor per ridge."""
    yc = y_group - y_group.mean()
    m = yc.size
    lmls, lams = [], []
    for lam in grid:
        try:
            L = np.linalg.cholesky(K_group + lam * np.eye(m))
        except np.linalg.LinAlgError:
            continue
        z = np.linalg.solve(L, yc)
        lmls.append(-0.5 * m * np.log(float(z @ z) / m) - float(np.log(np.diag(L)).sum()))
        lams.append(lam)
    if not lams:
        return 1.0, None
    evidence = np.exp(np.asarray(lmls) - max(lmls))
    return float(np.exp(evidence / evidence.sum() @ np.log(lams))), max(lmls)


def test_gp_ridge_selection_matches_cholesky_reference(monkeypatch):
    spec = bb.build_scenario("common", "moderate", 250, 7)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    K = gram_matrix(KernelSpec("gaussian", bb.median_heuristic(bb.distance_matrix(ds.X))), ds.X)
    cases = [(K[np.ix_(g, g)], ds.Y[g]) for g in (ds.T == 1, ds.T == 0)]
    # K - 0.05 I is indefinite: the ridges 1e-3 and 1e-2 leave it so and are skipped
    K_c, y_c = cases[1]
    cases.append((K_c - 0.05 * np.eye(y_c.size), y_c))
    for K_group, y_group in cases:
        ridge, diag, (mu, U) = gp_ridge_selection(K_group, y_group)
        reference, evidence = _cholesky_ridge_selection(K_group, y_group)
        assert not diag["ridge_fallback"]
        assert ridge == pytest.approx(reference, rel=1e-12, abs=0)
        assert diag["ridge_evidence_max"] == pytest.approx(evidence, rel=1e-12, abs=0)
        # the eigendecomposition KOM's QPs reuse
        np.testing.assert_allclose((U * mu) @ U.T, K_group, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(cases[2][0]).min() + 1e-2 < 0
    # no ridge in the grid makes K - 10 I positive definite
    monkeypatch.setattr(weights, "KOM_RIDGE_GRID", (1e-3, 1.0))
    ridge, diag, _ = gp_ridge_selection(K_c - 10.0 * np.eye(y_c.size), y_c)
    assert (ridge, diag) == (1.0, {"ridge_fallback": True})


def test_kom_ate_group_sums():
    spec = bb.build_scenario("common", "moderate", 120, 10)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    bw = bb.kom_weights(bb.Geometry(ds.X), ds.T, ds.Y, "ATE")
    assert bw.values[ds.T == 1].sum() == pytest.approx(1.0, abs=1e-6)
    assert bw.values[ds.T == 0].sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(bw.values >= 0)


# ---------------------------------------------------------------------------
# Tailored loss functions
# ---------------------------------------------------------------------------

def laplacian_gram(X, gamma=0.5):
    return gram_matrix(KernelSpec("laplacian", gamma), X)


def tlf_propensity(model, K):
    """The fitted model's propensities at the rows K's columns were fitted on."""
    return weights._tlf_propensity(model.intercept + K @ model.alpha)


@pytest.fixture
def small_tlf_grid(monkeypatch):
    monkeypatch.setattr(weights, "TLF_LAMBDA_GRID", (1e-3, 1e-2))
    monkeypatch.setattr(weights, "TLF_GAMMA_GRID", (0.5, 1.0))
    monkeypatch.setattr(weights, "TLF_FOLDS", 3)

def test_tlf_score_values():
    def score(q, t, estimand):  # the tailored score at the propensity q
        return weights._tlf_terms(np.log(q / (1.0 - q)), t, estimand)[0]

    assert score(0.5, 1.0, "ATE") == pytest.approx(-2.0)
    assert score(0.5, 0.0, "ATT") == pytest.approx(0.0)
    assert score(0.5, 0.0, "ATE") == pytest.approx(-2.0)
    assert score(0.25, 1.0, "ATT") == pytest.approx(-4.0)


def test_tlf_gradient_matches_finite_differences():
    spec = bb.build_scenario("common", "low", 20, 3)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    K = gram_matrix(KernelSpec("laplacian", 0.5), ds.X)
    from balancebench.weights import _tlf_value_grad

    rng = np.random.default_rng(1)
    alpha = 0.05 * rng.standard_normal(20)
    b0, lam, eps = -0.3, 1e-3, 1e-5
    for estimand in ("ATE", "ATT"):
        _, g0, ga = _tlf_value_grad(K, ds.T, b0, alpha, lam, estimand)
        up = _tlf_value_grad(K, ds.T, b0 + eps, alpha, lam, estimand)[0]
        dn = _tlf_value_grad(K, ds.T, b0 - eps, alpha, lam, estimand)[0]
        assert g0 == pytest.approx((up - dn) / (2 * eps), rel=1e-4)
        for j in (0, 9, 19):
            da, db = alpha.copy(), alpha.copy()
            da[j] += eps
            db[j] -= eps
            up = _tlf_value_grad(K, ds.T, b0, da, lam, estimand)[0]
            dn = _tlf_value_grad(K, ds.T, b0, db, lam, estimand)[0]
            assert ga[j] == pytest.approx((up - dn) / (2 * eps), rel=1e-4)


def test_tlf_curvature_matches_finite_differences():
    # With K = I the linear predictor is eta_j = b + alpha_j, so the gradient's
    # alpha_j-derivative of component j is h_j / n - 2 lam and its b-derivative
    # of the intercept component is mean(h).
    spec = bb.build_scenario("common", "low", 20, 3)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    from balancebench.weights import _tlf_terms, _tlf_value_grad

    n = 20
    K = np.eye(n)
    rng = np.random.default_rng(1)
    alpha = 0.5 * rng.standard_normal(n)
    b0, lam, eps = -0.3, 1e-3, 1e-5
    for estimand in ("ATE", "ATT"):
        _, _, h = _tlf_terms(b0 + alpha, ds.T, estimand)
        assert np.all(h <= 0.0)
        up = _tlf_value_grad(K, ds.T, b0 + eps, alpha, lam, estimand)[1]
        dn = _tlf_value_grad(K, ds.T, b0 - eps, alpha, lam, estimand)[1]
        assert h.mean() == pytest.approx((up - dn) / (2 * eps), rel=1e-4)
        for j in range(n):
            da, db = alpha.copy(), alpha.copy()
            da[j] += eps
            db[j] -= eps
            up = _tlf_value_grad(K, ds.T, b0, da, lam, estimand)[2][j]
            dn = _tlf_value_grad(K, ds.T, b0, db, lam, estimand)[2][j]
            assert h[j] / n - 2 * lam == pytest.approx((up - dn) / (2 * eps), rel=1e-4)


def test_tlf_fit_certifies_in_few_newton_steps():
    from balancebench.weights import _tlf_value_grad

    spec = bb.build_scenario("common", "moderate", 250, 1)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    K = laplacian_gram(ds.X)
    for estimand in ("ATE", "ATT"):
        model = tlf_fit(K, ds.T, estimand, lam=1e-2)
        assert model.converged and 1 <= model.iterations <= 20
        _, g0, ga = _tlf_value_grad(K, ds.T, model.intercept, model.alpha, 1e-2, estimand)
        assert max(abs(g0), np.max(np.abs(ga))) == model.grad_norm < 1e-6


def test_tlf_att_reduced_newton_direction_matches_full_solve():
    from balancebench.weights import _tlf_newton_direction, _tlf_newton_rows, _tlf_terms

    spec = bb.build_scenario("common", "moderate", 250, 7)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    K = gram_matrix(KernelSpec("laplacian", 0.5), ds.X)
    n, lam = ds.n, 1e-2
    alpha = 0.05 * np.random.default_rng(2).standard_normal(n)
    _, u, h = _tlf_terms(-0.4 + K @ alpha, ds.T, "ATT")
    # the full (n+1)-square Newton system, alpha rows divided by K
    hn = h / n
    system = np.empty((n + 1, n + 1))
    system[0, 0], system[0, 1:], system[1:, 0] = hn.sum(), K @ hn, hn
    system[1:, 1:] = hn[:, None] * K - 2.0 * lam * np.eye(n)
    full = np.linalg.solve(system, -np.concatenate(([u.mean()], u / n - 2.0 * lam * alpha)))
    rows, rest, K_rows, _ = split = _tlf_newton_rows(K, ds.T, "ATT")
    assert rows.size == ds.n1 and K_rows.shape == (ds.n1, ds.n1)
    reduced = _tlf_newton_direction(split, u, h, alpha, lam, np.empty((ds.n1 + 1, ds.n1 + 1)))
    assert np.max(np.abs(reduced - full)) <= 1e-10 * np.max(np.abs(full))


@pytest.mark.parametrize("rarity,confounding", [("common", "moderate"), ("very_rare", "low")])
def test_tlf_att_fit_takes_the_full_systems_newton_steps(monkeypatch, rarity, confounding):
    spec = bb.build_scenario(rarity, confounding, 250, 7)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    K = laplacian_gram(ds.X)
    fits = {lam: tlf_fit(K, ds.T, "ATT", lam) for lam in weights.TLF_LAMBDA_GRID}
    real = weights._tlf_newton_rows
    # every row in the system, as for ATE: the control rows' step is solved for
    monkeypatch.setattr(weights, "_tlf_newton_rows", lambda K, T, estimand: real(K, T, "ATE"))
    for lam, fit in fits.items():
        full = tlf_fit(K, ds.T, "ATT", lam)
        assert fit.converged and full.converged
        assert fit.iterations == full.iterations >= 1
        np.testing.assert_allclose(tlf_propensity(fit, K), tlf_propensity(full, K), rtol=0, atol=1e-10)


def test_tlf_rejects_nonpositive_penalty(monkeypatch, small_tlf_grid):
    spec = bb.build_scenario("common", "low", 30, 3)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    for lam in (0.0, -1e-3):
        with pytest.raises(ValueError):
            tlf_fit(laplacian_gram(ds.X), ds.T, "ATT", lam=lam)
    monkeypatch.setattr(weights, "TLF_LAMBDA_GRID", (0.0,))
    with pytest.raises(ValueError):
        select_tlf_hyper(ds.X, ds.T, ("ATE",))


def test_tlf_weight_sums():
    spec = bb.build_scenario("rare", "low", 150, 6)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    for estimand in ("ATE", "ATT"):
        bw = tlf_weights(bb.Geometry(ds.X), ds.T, estimand, hyper={"lambda": 1e-2, "gamma": 0.5})
        assert bw.values[ds.T == 1].sum() == pytest.approx(1.0, abs=1e-6)
        assert bw.values[ds.T == 0].sum() == pytest.approx(1.0, abs=1e-6)
        assert bw.diagnostics["solver_status"] == "converged"
        assert bw.diagnostics["solver_iterations"] >= 1
        assert bw.diagnostics["grad_norm"] < 1e-6


def test_tlf_weights_are_hajek_iptw_weights_at_its_propensities():
    spec = bb.build_scenario("rare", "low", 150, 6)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    K = laplacian_gram(ds.X)
    for estimand in ("ATE", "ATT"):
        p = tlf_propensity(tlf_fit(K, ds.T, estimand, lam=1e-2), K)
        bw = tlf_weights(bb.Geometry(ds.X), ds.T, estimand, hyper={"lambda": 1e-2, "gamma": 0.5})
        assert np.array_equal(bw.values, hajek_iptw(p, ds.T, estimand))


def test_tlf_huge_penalty_collapses_to_intercept():
    spec = bb.build_scenario("common", "low", 100, 2)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    model = tlf_fit(laplacian_gram(ds.X), ds.T, "ATE", lam=1e6)
    assert np.max(np.abs(model.alpha)) < 1e-4
    bw = tlf_weights(bb.Geometry(ds.X), ds.T, "ATE", hyper={"lambda": 1e6, "gamma": 0.5})
    hajek = hajek_iptw(np.full(ds.n, ds.n1 / ds.n), ds.T, "ATE")
    np.testing.assert_allclose(bw.values, hajek, atol=1e-3)


def test_tlf_recovers_constant_propensity():
    rng = np.random.default_rng(12)
    X = bb.sample_covariates(1000, rng)
    T = (rng.random(1000) < 0.3).astype(float)
    K = laplacian_gram(X)
    p = tlf_propensity(tlf_fit(K, T, "ATE", lam=1e-1), K)
    assert np.max(np.abs(p - T.mean())) < 0.05


def selected_ate_hyper(X, T):
    hyper = select_tlf_hyper(X, T, ("ATE",))["ATE"]
    return hyper["lambda"], hyper["gamma"]


def test_tlf_hyper_selection_is_deterministic_and_on_grid(small_tlf_grid):
    spec = bb.build_scenario("common", "low", 120, 4)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    lam, gamma = selected_ate_hyper(ds.X, ds.T)
    lam2, gamma2 = selected_ate_hyper(ds.X, ds.T)
    assert (lam, gamma) == (lam2, gamma2)
    assert lam in (1e-3, 1e-2) and gamma in (0.5, 1.0)


def test_tlf_hyper_selection_skips_uncertified_points(monkeypatch, small_tlf_grid):
    spec = bb.build_scenario("common", "low", 120, 4)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    best = selected_ate_hyper(ds.X, ds.T)
    real_gram, real_fit = weights.gram_matrix, weights.tlf_fit
    gamma = []  # the gamma of the Gram matrix the selection is fitting on

    def gram(kernel, X):
        gamma[:] = [kernel.scale]
        return real_gram(kernel, X)

    def fit(K, T, estimand, lam):
        model = real_fit(K, T, estimand, lam)
        uncertified = (lam, gamma[0]) == best
        return dataclasses.replace(model, converged=model.converged and not uncertified)

    monkeypatch.setattr(weights, "gram_matrix", gram)
    monkeypatch.setattr(weights, "tlf_fit", fit)
    again = selected_ate_hyper(ds.X, ds.T)
    assert again != best
    assert again[0] in weights.TLF_LAMBDA_GRID and again[1] in weights.TLF_GAMMA_GRID


def test_iptw_oracle_unbiased_over_replications():
    # small-sample Monte Carlo: raw oracle weights give an unbiased WA-ATE
    spec = bb.build_scenario("common", "low", 200, 77)
    vals = []
    for rep in range(600):
        ds = bb.generate_dataset(spec, bb.replication_rng(spec, rep))
        bw = raw_iptw(ds.e_true, ds.T, "ATE")
        vals.append(weighted_average(ds.Y, ds.T, bw).value)
    v = np.asarray(vals)
    mc_se = v.std(ddof=1) / np.sqrt(v.size)
    assert abs(v.mean()) <= 3 * mc_se
