"""Balancing weights for treatment-effect estimation.

Four methods: inverse-propensity weighting with optional trimming or Hajek
rescaling, energy-distance balancing (a QP over group simplexes), kernel
optimal matching (ridge-regularized kernel QPs, each group's ridge chosen by
GP evidence from one eigendecomposition), and tailored-loss-function
propensity scores (penalized scoring-rule maximization in an RKHS, fitted by
damped Newton; for ATT the Newton system is solved on the treated rows only).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .kernels import Geometry, KernelSpec, gram_matrix
from .qpsolver import STATUS_OPTIMAL, QuadraticProgram, solve_qp
from .scenarios import expit

ESTIMANDS = ("ATE", "ATT")
METHODS = ("iptw", "eb", "kom", "tlf")
POSTPROCS = ("trim99", "cap99", "hajek", "none")

KOM_RIDGE_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)
TLF_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1)
TLF_GAMMA_GRID = (0.1, 0.5, 1.0, 2.0)
TLF_FOLDS = 5  # cross-validation folds of select_tlf_hyper
TLF_MAX_ITER = 50  # Newton steps per fit
TLF_GTOL = 1e-6  # a fit is certified when max|gradient| falls below this


@dataclass
class BalanceWeights:
    """Per-observation nonnegative weights tagged with estimand and method.

    Trimmed observations carry weight 0 and kept_mask False; estimators must
    consume kept entries only.
    """

    values: np.ndarray
    estimand: str
    method: str
    kept_mask: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def effective_sample_size(w: np.ndarray) -> float:
    w = np.asarray(w, dtype=float)
    denom = float((w**2).sum())
    if denom == 0.0:
        return 0.0
    return float(w.sum()) ** 2 / denom


def _validate_groups(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    T = np.asarray(T, dtype=float)
    if not ((T == 0.0) | (T == 1.0)).all():
        raise ValueError("treatment indicator must be 0/1")
    treated = np.nonzero(T == 1.0)[0]
    control = np.nonzero(T == 0.0)[0]
    if treated.size == 0 or control.size == 0:
        raise ValueError("both treatment groups must be nonempty")
    return treated, control


def _check_estimand(estimand: str) -> None:
    if estimand not in ESTIMANDS:
        raise ValueError(f"unknown estimand {estimand!r}; expected one of {ESTIMANDS}")


def _finish(values, estimand, method, T, extra=None, kept=None) -> BalanceWeights:
    """The weight set with its diagnostics; every row is kept unless `kept` says otherwise."""
    if kept is None:
        kept = np.ones(T.size, dtype=bool)
    diagnostics = {
        "max_weight": float(values[kept].max()) if kept.any() else 0.0,
        "ess_treated": effective_sample_size(values[(T == 1.0) & kept]),
        "ess_control": effective_sample_size(values[(T == 0.0) & kept]),
        "solver_status": "closed_form",
    }
    if extra:
        diagnostics.update(extra)
    return BalanceWeights(values, estimand, method, kept, diagnostics)


# ---------------------------------------------------------------------------
# IPTW
# ---------------------------------------------------------------------------

def _inverse_probability(p, T, estimand, n1):
    """IPTW weights at propensities p: 1/p for treated and 1/(1-p) for control
    rows over n (ATE), or 1/n1 for treated and the odds p/(1-p) over n1 for
    control rows (ATT)."""
    if estimand == "ATE":
        return (T / p + (1.0 - T) / (1.0 - p)) / T.size
    return np.where(T == 1.0, 1.0 / n1, p / ((1.0 - p) * n1))


def _sum_to_one(w, groups):
    """w with each group's entries rescaled, in place, to sum to one."""
    for grp in groups:
        w[grp] /= w[grp].sum()
    return w


def _percentile99(w):
    """np.percentile(w, 99.0), bit for bit, from one partition: numpy's linear
    interpolation between the order statistics around (size - 1) * 0.99."""
    pos = (w.size - 1) * 0.99
    lo = int(pos)
    if lo == w.size - 1:  # a single value
        return float(w[lo])
    a, b = np.partition(w, (lo, lo + 1))[lo:lo + 2]
    t = pos - lo
    d = b - a
    return float(b - d * (1.0 - t)) if t >= 0.5 else float(a + d * t)


def iptw_weights(
    e_hat: np.ndarray,
    T: np.ndarray,
    estimand: str,
    postproc: str = "trim99",
) -> BalanceWeights:
    """Inverse-probability weights with the requested post-processing.

    trim99 zeroes observations whose raw weight strictly exceeds the empirical
    99th percentile of all raw weights (linear interpolation) and leaves the
    survivors unrescaled; cap99 truncates each group's weights at that group's
    own 99th percentile (nothing removed); hajek rescales each kept group to
    sum to one.
    """
    _check_estimand(estimand)
    if postproc not in POSTPROCS:
        raise ValueError(f"unknown postproc {postproc!r}; expected one of {POSTPROCS}")
    e = np.asarray(e_hat, dtype=float)
    T = np.asarray(T, dtype=float)
    if (e <= 0.0).any() or (e >= 1.0).any():
        raise ValueError("propensity scores must lie strictly inside (0, 1)")
    treated, control = _validate_groups(T)
    w = _inverse_probability(e, T, estimand, treated.size)
    kept = None
    if postproc == "trim99":
        kept = w <= _percentile99(w)
        w = np.where(kept, w, 0.0)
    elif postproc == "cap99":
        for grp in (treated, control):
            w[grp] = np.minimum(w[grp], _percentile99(w[grp]))
    elif postproc == "hajek":
        _sum_to_one(w, (treated, control))
    return _finish(w, estimand, "iptw", T, {"postproc": postproc}, kept)


# ---------------------------------------------------------------------------
# Energy balancing
# ---------------------------------------------------------------------------

def energy_balance(geometry: Geometry, T: np.ndarray, estimand: str) -> BalanceWeights:
    """Weights minimizing the discrete energy distance between the weighted
    group distributions and their targets, from the sample's distance matrix;
    group sums normalized to one."""
    _check_estimand(estimand)
    T = np.asarray(T, dtype=float)
    treated, control = _validate_groups(T)
    n = T.size
    n1, n0 = treated.size, control.size
    D = geometry.distances()

    if estimand == "ATE":
        # each entry is its pair's coefficient times D, one rounding as in a
        # per-block product: -4/n0^2 and -4/n1^2 within a group, 2/(n0 n1) across
        within = np.where(T == 1.0, -(4.0 / n1**2), -(4.0 / n0**2))
        Q = np.where(T[:, None] == T, within[:, None], 2.0 / (n0 * n1))
        Q *= D
        c = np.empty(n)
        rowsums = D.sum(axis=1)
        c[control] = (2.0 / (n0 * n)) * rowsums[control]
        c[treated] = (2.0 / (n1 * n)) * rowsums[treated]
        qp = QuadraticProgram(Q, c, ((treated, float(n1)), (control, float(n0))))
        sol = solve_qp(qp)
        raw = sol.w
        constant = -(2.0 / n**2) * float(rowsums.sum())
    else:
        Q = -(2.0 / n0**2) * D[np.ix_(control, control)]
        c = (2.0 / (n0 * n1)) * D[np.ix_(control, treated)].sum(axis=1)
        qp = QuadraticProgram(Q, c, ((np.arange(n0), float(n0)),))
        sol = solve_qp(qp)
        raw = np.ones(n)
        raw[control] = sol.w
        constant = -(1.0 / n1**2) * float(T @ (D @ T))

    # each group's QP sums to the group's size, so no group sum is zero
    w = _sum_to_one(raw, (treated, control))
    extra = {
        "solver_status": sol.status,
        "solver_iterations": sol.iterations,
        "kkt_residual": sol.kkt_residual,
        "diagonal_shift": sol.diagonal_shift,
        # the QP objective plus the terms free of w: the weighted energy distance at raw
        "energy_objective": sol.objective + constant,
    }
    return _finish(w, estimand, "eb", T, extra)


# ---------------------------------------------------------------------------
# Kernel optimal matching
# ---------------------------------------------------------------------------

def gp_ridge_selection(K_group: np.ndarray, y_group: np.ndarray):
    """Ridge from the Gaussian-process marginal likelihood of the (centered)
    group outcomes, with the signal amplitude profiled out in closed form so the
    ridge plays the noise-to-signal role. The grid evidence is combined by an
    evidence-weighted geometric mean (the likelihood surface is nearly flat for
    weak binary signals, so a hard argmax flips between extremes). One
    eigendecomposition K = U diag(mu) U' serves every ridge: log det(K + lam I)
    = sum log(mu + lam) and yc'(K + lam I)^-1 yc = sum (U'yc)^2 / (mu + lam); a
    ridge with K + lam I not positive definite is skipped. Falls back to 1.0 if
    every evaluation fails numerically. Returns the ridge, its diagnostics and
    the eigendecomposition (mu, U), which KOM's QPs reuse."""
    y = np.asarray(y_group, dtype=float)
    yc = y - y.mean()
    m = y.size
    mu, U = np.linalg.eigh(K_group)
    proj2 = (U.T @ yc) ** 2
    lmls, lams = [], []
    for lam in KOM_RIDGE_GRID:
        shifted = mu + lam
        if shifted.min() <= 0.0:
            continue
        quad = float(np.sum(proj2 / shifted))
        if not np.isfinite(quad) or quad <= 0.0:
            continue
        # amplitude maximized analytically at quad/m
        lml = -0.5 * m * np.log(quad / m) - 0.5 * float(np.log(shifted).sum())
        if np.isfinite(lml):
            lmls.append(lml)
            lams.append(lam)
    if not lams:
        return 1.0, {"ridge_fallback": True}, (mu, U)
    weights = np.exp(np.asarray(lmls) - max(lmls))
    weights /= weights.sum()
    ridge = float(np.exp(weights @ np.log(lams)))
    return ridge, {"ridge_fallback": False, "ridge_evidence_max": float(max(lmls))}, (mu, U)


def _group_ridge(geometry: Geometry, kernel: KernelSpec, K, group, Y):
    """gp_ridge_selection for one group, computed once per geometry, kernel and group data."""
    key = ("gp_ridge", kernel, group.tobytes(), Y[group].tobytes())
    return geometry.memo(key, lambda: gp_ridge_selection(K[group][:, group], Y[group]))


def _simplex_qp(K, group, lam, c, spectrum):
    """min w'(K_gg + lam I)w + c'w over the unit simplex of one group, with
    `spectrum` = eigh(K_gg) shifted to the QP's Hessian 2(K_gg + lam I)."""
    m = group.size
    Q = K[group][:, group]
    Q.flat[:: m + 1] += lam  # K_gg + lam I, entry for entry
    Q *= 2.0
    mu, U = spectrum
    return solve_qp(QuadraticProgram(Q, c, ((np.arange(m), 1.0),), spectrum=(2.0 * (mu + lam), U)))


def kom_weights(geometry: Geometry, T: np.ndarray, Y: np.ndarray, estimand: str) -> BalanceWeights:
    """Kernel-optimal-matching weights: minimize the worst-case bias quadratic
    over group simplexes, with per-group ridge chosen by GP marginal likelihood.

    The ATE objective is block-diagonal with a separable linear term, so it is
    solved as one simplex QP per group; the weights are certified only when
    every group's QP is. Each group's QP reuses the eigendecomposition its
    ridge selection took. `geometry` supplies the Gaussian kernel's bandwidth
    (its median heuristic) and the Gram matrix, and shares the control
    group's ridge and eigendecomposition between estimands."""
    _check_estimand(estimand)
    T = np.asarray(T, dtype=float)
    Y = np.asarray(Y, dtype=float)
    treated, control = _validate_groups(T)
    kernel = KernelSpec("gaussian", geometry.median())
    n = T.size
    n1 = treated.size
    K = geometry.gram(kernel)

    lam0, diag0, spectrum0 = _group_ridge(geometry, kernel, K, control, Y)
    extra = {"kernel_scale": kernel.scale, "ridge_control": lam0, **{f"control_{k}": v for k, v in diag0.items()}}

    w = np.empty(n)
    if estimand == "ATE":
        lam1, diag1, spectrum1 = _group_ridge(geometry, kernel, K, treated, Y)
        extra.update({"ridge_treated": lam1, **{f"treated_{k}": v for k, v in diag1.items()}})
        c = -(2.0 / n) * K.sum(axis=0)
        sols = [
            _simplex_qp(K, control, lam0, c[control], spectrum0),
            _simplex_qp(K, treated, lam1, c[treated], spectrum1),
        ]
        w[treated] = sols[1].w
    else:
        c = -(2.0 / n1) * K[np.ix_(treated, control)].sum(axis=0)
        sols = [_simplex_qp(K, control, lam0, c, spectrum0)]
        w[treated] = 1.0 / n1
    w[control] = sols[0].w

    extra.update(
        {
            "solver_status": next((s.status for s in sols if s.status != STATUS_OPTIMAL), STATUS_OPTIMAL),
            "solver_iterations": sum(s.iterations for s in sols),
            "kkt_residual": max(s.kkt_residual for s in sols),
            "diagonal_shift": max(s.diagonal_shift for s in sols),
        }
    )
    return _finish(w, estimand, "kom", T, extra)


# ---------------------------------------------------------------------------
# Tailored loss functions
# ---------------------------------------------------------------------------

@dataclass
class TlfModel:
    """Penalized RKHS propensity model p(x) = logit^-1(intercept + sum_j alpha_j K(x, X_j))."""

    alpha: np.ndarray
    intercept: float
    converged: bool
    iterations: int
    grad_norm: float


def tlf_score(q, t, estimand: str):
    """Scoring rule tailored to the estimand, evaluated elementwise."""
    _check_estimand(estimand)
    q = np.asarray(q, dtype=float)
    t = np.asarray(t, dtype=float)
    logodds = np.log(q) - np.log1p(-q)
    if estimand == "ATE":
        return (2.0 * t - 1.0) * logodds - t / q - (1.0 - t) / (1.0 - q)
    return -(1.0 - t) * logodds - t / q


def _tlf_propensity(eta):
    """The model's propensity at linear predictor eta, kept inside [1e-12, 1 - 1e-12]."""
    return np.clip(expit(eta), 1e-12, 1.0 - 1e-12)


def _tlf_terms(eta, T, estimand):
    """Tailored score s, its first derivative u and its second derivative h <= 0
    in the linear predictor eta, elementwise."""
    p = _tlf_propensity(eta)
    if estimand == "ATE":
        s = (2.0 * T - 1.0) * eta - T / p - (1.0 - T) / (1.0 - p)
        u = T / p - (1.0 - T) / (1.0 - p)
        h = -(T * (1.0 - p) / p + (1.0 - T) * p / (1.0 - p))
    else:
        s = -(1.0 - T) * eta - T / p
        u = T * (1.0 - p) / p - (1.0 - T)
        h = -T * (1.0 - p) / p
    return s, u, h


def _tlf_value_grad(K, T, intercept, alpha, lam, estimand):
    n = T.size
    K_alpha = K @ alpha
    s, u, _ = _tlf_terms(intercept + K_alpha, T, estimand)
    value = float(s.mean()) - lam * float(alpha @ K_alpha)
    return value, float(u.mean()), K @ (u / n - 2.0 * lam * alpha)


def _tlf_newton_rows(K, T, estimand):
    """(rows, rest, K[rows, rows], K[rows, rest]) for _tlf_newton_direction.
    The curvature h is identically zero on `rest` (the controls for ATT; no
    row for ATE), so the Newton system there reads -2 lam d_alpha_i = -r_i."""
    if estimand == "ATT":
        rows, rest = np.flatnonzero(T == 1.0), np.flatnonzero(T != 1.0)
        return rows, rest, K[np.ix_(rows, rows)], K[np.ix_(rows, rest)]
    return slice(None), slice(0, 0), K, K[:, :0]


def _tlf_newton_direction(split, u, h, alpha, lam, system):
    """Newton direction for (intercept, alpha) with the factor K divided out of
    the alpha rows: the closed-form step on `rest`, then the (|rows| + 1)-square
    system, built in the work array `system`, with the rest's step moved to its
    right-hand side. `split` is from _tlf_newton_rows; u and h are the score's
    derivatives from _tlf_terms."""
    rows, rest, K_rows, K_rest = split
    n = alpha.size
    r = u / n - 2.0 * lam * alpha
    direction = np.empty(n + 1)
    d_rest = direction[1:][rest] = r[rest] / (2.0 * lam)
    coupling = K_rest @ d_rest
    h = h[rows] / n
    m = h.size
    system[0, 0], system[0, 1:], system[1:, 0] = h.sum(), K_rows @ h, h
    np.multiply(h[:, None], K_rows, out=system[1:, 1:])
    system[1:, 1:].flat[:: m + 1] -= 2.0 * lam
    rhs = np.concatenate(([u.mean() + h @ coupling], r[rows] + h * coupling))
    solved = np.linalg.solve(system, -rhs)
    direction[0] = solved[0]
    direction[1:][rows] = solved[1:]
    return direction


def tlf_fit(K: np.ndarray, T: np.ndarray, estimand: str, lam: float) -> TlfModel:
    """Maximize the penalized tailored scoring rule in the RKHS whose Gram
    matrix K is that of the rows T labels, by damped Newton on (intercept,
    alpha) from alpha = 0 and the marginal log-odds intercept; certified
    (converged) only when max|gradient| < TLF_GTOL within TLF_MAX_ITER steps.
    For ATT the Newton system is solved on the treated rows only (see
    _tlf_newton_rows)."""
    _check_estimand(estimand)
    if lam <= 0:  # the objective is unbounded, and for ATT the system singular
        raise ValueError("need lam > 0")
    T = np.asarray(T, dtype=float)
    _validate_groups(T)
    n = T.size
    rate = min(max(T.mean(), 1e-6), 1.0 - 1e-6)
    intercept = float(np.log(rate / (1.0 - rate)))
    alpha = np.zeros(n)
    value, g0, ga = _tlf_value_grad(K, T, intercept, alpha, lam, estimand)
    if not np.isfinite(value):
        raise NumericError("tailored-loss objective is non-finite at the start point")
    split = _tlf_newton_rows(K, T, estimand)
    system = np.empty((split[2].shape[0] + 1,) * 2)
    iterations = 0
    while (gnorm := max(abs(g0), float(np.max(np.abs(ga))))) >= TLF_GTOL and iterations < TLF_MAX_ITER:
        _, u, h = _tlf_terms(intercept + K @ alpha, T, estimand)
        try:
            direction = _tlf_newton_direction(split, u, h, alpha, lam, system)
        except np.linalg.LinAlgError:
            break
        slope = g0 * direction[0] + float(ga @ direction[1:])
        step = 1.0
        # Armijo backtracking; no ascent direction or no acceptable step ends the fit uncertified
        while slope > 0.0 and step >= 1e-10:
            cand = (intercept + step * direction[0], alpha + step * direction[1:])
            cand_v, cand_g0, cand_ga = _tlf_value_grad(K, T, *cand, lam, estimand)
            if np.isfinite(cand_v) and cand_v >= value + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        (intercept, alpha), value, g0, ga = cand, cand_v, cand_g0, cand_ga
        iterations += 1
    return TlfModel(alpha, intercept, gnorm < TLF_GTOL, iterations, gnorm)


def select_tlf_hyper(X: np.ndarray, T: np.ndarray, estimands) -> dict:
    """(lambda, gamma) for each estimand from TLF_LAMBDA_GRID x TLF_GAMMA_GRID,
    picked by TLF_FOLDS-fold cross-validated mean tailored score. Each gamma's
    Gram matrix is built once, and each fold's train and test blocks of it are
    copied once, for all (estimand, lambda)."""
    lambdas, gammas, folds = TLF_LAMBDA_GRID, TLF_GAMMA_GRID, TLF_FOLDS
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.asarray(T, dtype=float)
    n = T.size
    fold_id = np.arange(n) % folds
    points = list(itertools.product(estimands, lambdas))
    best = {estimand: (float(lambdas[0]), float(gammas[0])) for estimand in estimands}
    best_score = dict.fromkeys(estimands, -np.inf)
    for gamma in gammas:
        K = gram_matrix(KernelSpec("laplacian", gamma), X)
        # fold scores per (estimand, lambda); None once a fold fit is uncertified,
        # which makes the whole grid point ineligible
        fold_scores = {point: [] for point in points}
        for f in range(folds):
            test = fold_id == f
            train = ~test
            t_train = T[train]
            if t_train.min() == t_train.max():
                continue
            K_tr, K_te = K[np.ix_(train, train)], K[np.ix_(test, train)]
            for estimand, lam in points:
                if fold_scores[estimand, lam] is None:
                    continue
                model = tlf_fit(K_tr, t_train, estimand, lam)
                if not model.converged:
                    fold_scores[estimand, lam] = None
                    continue
                p = _tlf_propensity(model.intercept + K_te @ model.alpha)
                fold_scores[estimand, lam].append(float(tlf_score(p, T[test], estimand).mean()))
        for (estimand, lam), scores in fold_scores.items():
            if not scores:
                continue
            score = float(np.mean(scores))
            if score > best_score[estimand]:
                best_score[estimand] = score
                best[estimand] = (float(lam), float(gamma))
    return best


def tlf_weights(geometry: Geometry, T: np.ndarray, estimand: str, hyper: dict) -> BalanceWeights:
    """IPTW-formula weights from the tailored-loss propensity fit at
    hyper = {"lambda": ..., "gamma": ...} (see select_tlf_hyper) on the
    sample's Laplacian Gram matrix, normalized so each group's weights sum to
    one."""
    _check_estimand(estimand)
    T = np.asarray(T, dtype=float)
    treated, control = _validate_groups(T)
    lam, gamma = float(hyper["lambda"]), float(hyper["gamma"])
    K = geometry.gram(KernelSpec("laplacian", gamma))
    model = tlf_fit(K, T, estimand, lam)
    p = _tlf_propensity(model.intercept + K @ model.alpha)
    w = _sum_to_one(_inverse_probability(p, T, estimand, treated.size), (treated, control))
    extra = {
        "solver_status": "converged" if model.converged else "max_iter",
        "solver_iterations": model.iterations,
        "grad_norm": model.grad_norm,
        "lambda": lam,
        "gamma": gamma,
    }
    return _finish(w, estimand, "tlf", T, extra)

