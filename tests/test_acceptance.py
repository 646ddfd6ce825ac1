"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Criterion 9 is expected to fail; see the notes in the repository README.
"""

import numpy as np
import pytest

import balancebench as bb
from balancebench.estimators import ResponseSurfaces, weighted_average, weighted_ols
from balancebench.harness import RunConfig, summarize
from balancebench.qpsolver import QuadraticProgram, solve_qp
from balancebench.weights import tlf_weights

SEED = 7


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def big_dataset(rarity, confounding):
    spec = bb.build_scenario(rarity, confounding, 1_000_000, SEED)
    return bb.generate_dataset(spec, bb.replication_rng(spec, 0))


@pytest.fixture(scope="module")
def million_row_cells():
    return {
        ("common", "low"): big_dataset("common", "low"),
        ("rare", "moderate"): big_dataset("rare", "moderate"),
        ("very_rare", "high"): big_dataset("very_rare", "high"),
    }


def harness_cell(n, rarity, confounding, reps, methods, learners, estimators, estimands):
    # Serial: records do not depend on the worker count (criterion 10f), and
    # two pool workers at the default BLAS thread count oversubscribe a small
    # host (60 EB n=500 replications took 33 s at workers=2 against 2.6 s
    # serial on 2 cores).
    config = RunConfig(
        scenarios=((n, rarity, confounding),),
        replications=reps,
        methods=methods,
        learners=learners,
        estimators=estimators,
        estimands=estimands,
        master_seed=SEED,
    )
    records = bb.run(config)
    return summarize(records)


def test_criterion_1_crude_bias(million_row_cells):
    targets = {("common", "low"): 0.065, ("rare", "moderate"): 0.144, ("very_rare", "high"): 0.258}
    lines = []
    ok = True
    for cell, target in targets.items():
        crude = bb.crude_estimate(million_row_cells[cell])
        ok &= abs(crude - target) <= 0.008
        lines.append(f"{cell[0]}/{cell[1]} crude={crude:.4f} (target {target}±0.008)")
    report(1, ok, "; ".join(lines))


def test_criterion_2_treatment_prevalence(million_row_cells):
    targets = {("common", "low"): 0.35, ("rare", "moderate"): 0.15, ("very_rare", "high"): 0.05}
    lines = []
    ok = True
    for cell, target in targets.items():
        prev = float(million_row_cells[cell].T.mean())
        ok &= abs(prev - target) <= 0.01
        lines.append(f"{cell[0]} prevalence={prev:.4f} (target {target}±0.01)")
    report(2, ok, "; ".join(lines))


def test_criterion_3_iptw_awa_ate():
    (cell,) = harness_cell(2000, "common", "low", 500, ("iptw",), ("oracle",), ("AWA",), ("ATE",))
    bias_ok = abs(cell.bias) <= 0.006
    spread_ok = 0.029 * 0.8 <= cell.spread_rmse <= 0.029 * 1.2
    report(
        3,
        bias_ok and spread_ok,
        f"IPTW-oracle AWA ATE n=2000: bias={cell.bias:+.4f} (|.|<=0.006), "
        f"spread={cell.spread_rmse:.4f} (0.029±20%)",
    )


def test_criterion_4_iptw_wa_att():
    # the reference value corresponds to the main-effects logistic fit
    (cell,) = harness_cell(500, "rare", "low", 500, ("iptw",), ("logistic_mis",), ("WA",), ("ATT",))
    ok = abs(cell.bias - 0.125) <= 0.015
    report(4, ok, f"IPTW-logistic WA ATT n=500 rare/low: bias={cell.bias:+.4f} (0.125±0.015)")


def test_criterion_5_eb_wa_ate():
    (cell,) = harness_cell(500, "common", "low", 500, ("eb",), ("oracle",), ("WA",), ("ATE",))
    bias_ok = abs(cell.bias - 0.001) <= 0.010
    spread_ok = 0.060 * 0.75 <= cell.spread_rmse <= 0.060 * 1.25
    report(
        5,
        bias_ok and spread_ok,
        f"EB WA ATE n=500: bias={cell.bias:+.4f} (0.001±0.010), "
        f"spread={cell.spread_rmse:.4f} (0.060±25%), valid={cell.valid_pct:.3f}",
    )


def test_criterion_6_tlf_wa_ate():
    # fixed hyperparameters from the heavy-regularization corner of the search
    # grid; the reference value corresponds to near-uniform weights
    spec = bb.build_scenario("common", "high", 500, SEED)
    vals = []
    for rep in range(300):
        ds = bb.generate_dataset(spec, bb.replication_rng(spec, rep))
        bw = tlf_weights(bb.Geometry(ds.X), ds.T, "ATE", hyper={"lambda": 0.1, "gamma": 2.0})
        vals.append(weighted_average(ds.Y, ds.T, bw).value)
    bias = float(np.mean(vals))
    ok = abs(bias - 0.146) <= 0.03
    report(6, ok, f"TLF WA ATE n=500 common/high: bias={bias:+.4f} (0.146±0.03)")


def test_criterion_7_kom_ols_ate():
    (cell,) = harness_cell(500, "common", "low", 300, ("kom",), ("oracle",), ("OLS",), ("ATE",))
    ok = abs(cell.bias - 0.051) <= 0.02
    report(7, ok, f"KOM OLS ATE n=500: bias={cell.bias:+.4f} (0.051±0.02), spread={cell.spread_rmse:.4f}")


def test_criterion_8_ols_coverage():
    lines = []
    ok = True
    for confounding in ("low", "moderate", "high"):
        (cell,) = harness_cell(500, "common", confounding, 300, ("eb",), ("oracle",), ("OLS",), ("ATE",))
        ok &= 0.92 <= cell.coverage <= 1.0
        lines.append(f"EB/{confounding}={cell.coverage:.3f}")
    (iptw,) = harness_cell(2000, "common", "high", 300, ("iptw",), ("logistic_well",), ("OLS",), ("ATE",))
    ok &= iptw.coverage <= 0.85
    lines.append(f"IPTW-well n=2000={iptw.coverage:.3f} (<=0.85)")
    report(8, ok, "coverage: " + ", ".join(lines) + " (EB needs [0.92, 1.00])")


def test_criterion_9_eb_validity_bookkeeping():
    (cell,) = harness_cell(250, "very_rare", "low", 500, ("eb",), ("oracle",), ("WA",), ("ATE",))
    ok = 0.70 <= cell.valid_pct <= 0.92
    report(
        9,
        ok,
        f"EB WA ATE n=250 very_rare/low: valid_pct={cell.valid_pct:.3f} (need [0.70, 0.92]; "
        "group-normalized nonnegative weights make the weighted average bounded in [-1,1], "
        "so a correctly solved QP yields 100% validity — see README notes)",
    )


# ---------------------------------------------------------------------------
# Criterion 10: property suite
# ---------------------------------------------------------------------------

def test_criterion_10a_qp_certificates():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 14))
        A = rng.standard_normal((n, n))
        Q = A @ A.T + 0.05 * np.eye(n)
        c = rng.standard_normal(n) * 2
        if n >= 6:
            split = n // 2
            eqs = ((tuple(range(split)), float(rng.uniform(0.5, 3.0))),
                   (tuple(range(split, n)), float(rng.uniform(0.5, 3.0))))
        else:
            eqs = ((tuple(range(n)), float(rng.uniform(0.5, 3.0))),)
        sol = solve_qp(QuadraticProgram(Q, c, eqs))
        assert sol.status == "optimal"
        worst = max(worst, sol.kkt_residual)
    report("10a", worst <= 1e-8, f"100 random QPs optimal, worst KKT residual {worst:.2e}")


def test_criterion_10b_eb_kom_grid_oracles():
    from test_weights import _staged_grid_oracle

    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 2))
    T = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    bw = bb.energy_balance(bb.Geometry(X), T, "ATT")
    control = np.nonzero(T == 0.0)[0]
    treated = np.nonzero(T == 1.0)[0]
    cross_mean = np.array(
        [np.mean([np.linalg.norm(X[i] - X[j]) for j in treated]) for i in control]
    )
    within_cc = np.array([[np.linalg.norm(X[i] - X[j]) for j in control] for i in control])

    def energy(pts):
        w = pts / 4.0
        return 2 * w @ cross_mean - np.einsum("ri,ij,rj->r", w, within_cc, w)

    eb_best = _staged_grid_oracle(energy, dim=4, total=4.0)
    eb_err = float(np.max(np.abs(bw.values[control] * 4.0 - eb_best)))

    from balancebench.kernels import KernelSpec, gram_matrix

    X5 = rng.standard_normal((5, 2))
    T5 = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    Y5 = (rng.random(5) < 0.4).astype(float)
    geometry5 = bb.Geometry(X5)
    bw5 = bb.kom_weights(geometry5, T5, Y5, "ATT")
    kernel = KernelSpec("gaussian", geometry5.median())
    lam = bw5.diagnostics["ridge_control"]
    K = gram_matrix(kernel, X5)
    ctrl = T5 == 0.0
    Q = 2.0 * (K[np.ix_(ctrl, ctrl)] + lam * np.eye(3))
    cvec = -(2.0 / 2) * K[np.ix_(T5 == 1.0, ctrl)].sum(axis=0)

    def kom_obj(pts):
        return 0.5 * np.einsum("ri,ij,rj->r", pts, Q, pts) + pts @ cvec

    kom_best = _staged_grid_oracle(kom_obj, dim=3, total=1.0, steps=(0.02, 0.002, 0.0002, 0.00002))
    kom_err = float(np.max(np.abs(bw5.values[ctrl] - kom_best)))
    ok = eb_err <= 1e-3 and kom_err <= 1e-3
    report("10b", ok, f"grid oracles: EB err={eb_err:.2e}, KOM err={kom_err:.2e} (<=1e-3)")


def test_criterion_10c_tlf_gradient():
    from balancebench.kernels import KernelSpec, gram_matrix
    from balancebench.weights import _tlf_value_grad

    spec = bb.build_scenario("common", "low", 20, 3)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    K = gram_matrix(KernelSpec("laplacian", 0.5), ds.X)
    rng = np.random.default_rng(1)
    alpha = 0.05 * rng.standard_normal(20)
    b0, lam, eps = -0.3, 1e-3, 1e-5
    worst = 0.0
    for estimand in ("ATE", "ATT"):
        _, g0, ga = _tlf_value_grad(K, ds.T, b0, alpha, lam, estimand)
        up = _tlf_value_grad(K, ds.T, b0 + eps, alpha, lam, estimand)[0]
        dn = _tlf_value_grad(K, ds.T, b0 - eps, alpha, lam, estimand)[0]
        worst = max(worst, abs(g0 - (up - dn) / (2 * eps)) / max(abs(g0), 1e-8))
        for j in range(20):
            da, db = alpha.copy(), alpha.copy()
            da[j] += eps
            db[j] -= eps
            up = _tlf_value_grad(K, ds.T, b0, da, lam, estimand)[0]
            dn = _tlf_value_grad(K, ds.T, b0, db, lam, estimand)[0]
            fd = (up - dn) / (2 * eps)
            worst = max(worst, abs(ga[j] - fd) / max(abs(fd), 1e-8))
    report("10c", worst <= 1e-4, f"TLF gradient vs central differences, worst rel err {worst:.2e}")


def test_criterion_10d_awa_weight_independence():
    from balancebench.weights import BalanceWeights

    rng = np.random.default_rng(2)
    n = 50
    mu0 = rng.uniform(0.2, 0.8, n)
    mu1 = rng.uniform(0.2, 0.8, n)
    T = (rng.random(n) < 0.5).astype(float)
    T[:2] = [1.0, 0.0]
    Y = T * mu1 + (1 - T) * mu0
    plug = float(np.mean(mu1 - mu0))
    worst = 0.0
    for w in (rng.random(n), np.zeros(n), np.full(n, 4.0)):
        bw = BalanceWeights(w, "ATE", "iptw", np.ones(n, bool), {})
        est = bb.augmented_weighted_average(Y, T, bw, ResponseSurfaces(mu0, mu1))
        worst = max(worst, abs(est.value - plug))
    report("10d", worst <= 1e-12, f"AWA on noiseless data is weight-free to {worst:.2e}")


def test_criterion_10e_ols_scale_invariance():
    from balancebench.weights import BalanceWeights

    rng = np.random.default_rng(3)
    Y = (rng.random(40) < 0.4).astype(float)
    T = (rng.random(40) < 0.5).astype(float)
    T[:2] = [1.0, 0.0]
    w = rng.random(40) + 0.1
    base = bb.weighted_ols(Y, T, BalanceWeights(w, "ATE", "iptw", np.ones(40, bool), {}))
    scaled = bb.weighted_ols(Y, T, BalanceWeights(8.0 * w, "ATE", "iptw", np.ones(40, bool), {}))
    ok = scaled.value == base.value
    report("10e", ok, "weighted least squares slope invariant under weight rescaling (exact)")


def test_criterion_10f_determinism_across_workers():
    def run(workers):
        config = RunConfig(
            scenarios=((250, "rare", "low"),),
            replications=6,
            methods=("iptw", "eb"),
            learners=("oracle",),
            estimators=("WA", "OLS"),
            estimands=("ATE",),
            master_seed=5,
            workers=workers,
        )
        return [
            (r.replication, r.method, r.estimator, r.value, r.se, r.ci_lo, r.ci_hi, r.valid, r.reason)
            for r in bb.run(config)
        ]

    ok = run(1) == run(2)
    report("10f", ok, "identical record sets at 1 and 2 workers")
