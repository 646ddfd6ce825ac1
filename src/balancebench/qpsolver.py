"""Deterministic solver for convex quadratic programs with nonnegativity and
group-sum equality constraints.

A solve first runs block active-set pivoting (Judice & Pires 1994) from the
all-free face: solve the face's KKT system, drop every negative coordinate,
or else release every zeroed coordinate whose reduced gradient is negative.
The point it ends on is accepted only when its face is strictly convex and a
fresh fixed-point (KKT) residual, computed with the dense Q, is within
tolerance. Strict convexity is certified by a Cholesky factor of the face's
reduced Hessian, or, when the QP carries Q's eigendecomposition and its
smallest eigenvalue clears eigh's backward error, by that bound for every
face at once; such a QP also solves each face's KKT system from the
eigendecomposition while that is cheaper than factoring the face.
Otherwise the solve falls back to projected-gradient iteration:
a proximal quadratic step with projection onto the scaled simplex of each
equality block, an exact line search along the projected direction and a
periodic active-set polish. Everything is deterministic: fixed iteration
order, no randomized pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITER = "max_iter"
STATUS_INFEASIBLE = "infeasible"

_FREE_EPS = 1e-12
_NEGATIVE = -1e-11  # a KKT coordinate below this leaves the face
_RELEASE = -1e-10  # a zeroed coordinate with reduced gradient below this joins it
_POLISH_EVERY = 25
_PIVOT_ROUNDS = 20


@dataclass(frozen=True)
class QuadraticProgram:
    """min 0.5 w'Qw + c'w  subject to  sum(w[idx]) = target per block and w >= 0.

    `spectrum`, if given, is (mu, U) with Q = U diag(mu) U' and U orthogonal,
    as np.linalg.eigh returns it; see solve_qp for its use."""

    Q: np.ndarray
    c: np.ndarray
    equalities: tuple[tuple[np.ndarray, float], ...] = ()
    spectrum: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)
    block_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        c = np.asarray(self.c, dtype=float).ravel()
        if Q.shape != (c.size, c.size):
            raise ValueError("Q must be square and match c")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "c", c)
        # index arrays and the block of each coordinate (-1 if in none)
        block_of = np.full(c.size, -1, dtype=np.intp)
        blocks = []
        for k, (idx, target) in enumerate(self.equalities):
            idx = np.asarray(idx, dtype=np.intp)
            if idx.size == 0:
                raise ValueError("equality blocks must be nonempty")
            if idx.min() < 0 or idx.max() >= c.size:
                raise ValueError("equality index out of range")
            if (block_of[idx] >= 0).any():
                raise ValueError("equality blocks must be disjoint")
            block_of[idx] = k
            blocks.append((idx, float(target)))
        object.__setattr__(self, "equalities", tuple(blocks))
        object.__setattr__(self, "block_of", block_of)
        if self.spectrum is not None:
            mu, U = (np.asarray(a, dtype=float) for a in self.spectrum)
            if mu.shape != (c.size,) or U.shape != Q.shape:
                raise ValueError("spectrum must be (mu, U) with mu of length n and U n x n")
            object.__setattr__(self, "spectrum", (mu, U))

    @property
    def n(self) -> int:
        return self.c.size


@dataclass
class QPSolution:
    w: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    status: str
    diagonal_shift: float = 0.0
    diagnostics: dict = field(default_factory=dict)


def project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum(w) = total}."""
    v = np.asarray(v, dtype=float)
    if total < 0:
        raise ValueError("cannot project onto a simplex with negative total")
    if total == 0.0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, v.size + 1)
    rho = np.nonzero(u - css / ks > 0)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def _project_feasible(v: np.ndarray, qp: QuadraticProgram) -> np.ndarray:
    w = np.maximum(v, 0.0)
    for idx, target in qp.equalities:
        w[idx] = project_simplex(v[idx], target)
    return w


def _feasible_start(qp: QuadraticProgram) -> np.ndarray:
    w = np.zeros(qp.n)
    for idx, target in qp.equalities:
        w[idx] = target / idx.size
    return w


def _spectral_bound(Q: np.ndarray) -> float:
    # Power iteration from a fixed start; generous head-room since it
    # approaches the spectral norm from below.
    v = np.ones(Q.shape[0]) / np.sqrt(Q.shape[0])
    norm = 0.0
    for _ in range(60):
        v = Q @ v
        norm = float(np.linalg.norm(v))
        if norm <= 1e-300:
            return 0.0
        v /= norm
    return 1.25 * norm


def _reduced_min_eigenvalue(Q: np.ndarray, qp: QuadraticProgram) -> float:
    """Smallest eigenvalue of Q restricted to the equality-constraint null space."""
    n = qp.n
    P = np.eye(n)
    for idx, _ in qp.equalities:
        e = np.zeros(n)
        e[idx] = 1.0 / np.sqrt(idx.size)
        P -= np.outer(e, e)
    M = P @ Q @ P
    M = 0.5 * (M + M.T)
    return float(np.linalg.eigvalsh(M)[0])


def _certified_spectrum(qp: QuadraticProgram):
    """qp.spectrum when its smallest eigenvalue exceeds eigh's backward error
    bound n * eps * max|mu|, which makes Q positive definite and every face
    strictly convex; otherwise None."""
    if qp.spectrum is None:
        return None
    mu = qp.spectrum[0]
    margin = qp.n * np.finfo(float).eps * float(np.abs(mu).max())
    return qp.spectrum if float(mu.min()) > margin else None


def _kkt_solve(free, Qs, c, qp, spectrum=None):
    """Equality-constrained solve on the free coordinates; returns the candidate
    full vector and the per-block multipliers (None on numerical failure).

    With a certified `spectrum` (see _certified_spectrum) the solve goes
    through Q's eigendecomposition while that costs fewer flops than a dense
    factorization of the face (see _spectral_kkt_solve)."""
    free_block = qp.block_of[free]
    ks, targets = [], []
    for k, (_, target) in enumerate(qp.equalities):
        if (free_block == k).any():
            ks.append(k)
            targets.append(target)
        elif target > _FREE_EPS:
            return None, None
    # the block-sum rows over the free coordinates
    E = (free_block == np.asarray(ks, dtype=np.intp)[:, None]).astype(float)
    targets = np.asarray(targets, dtype=float)
    f, m = free.size, len(ks)
    sol = None
    # 2 n^2 |dropped| flops of products against about f^3 for the LU of the face
    if spectrum is not None and 2 * qp.n**2 * (qp.n - f) < f**3:
        sol = _spectral_kkt_solve(free, spectrum, c, E, targets)
    if sol is None:
        kkt = np.empty((f + m, f + m))
        if f == qp.n:  # the all-free face: free is arange(n)
            kkt[:f, :f] = Qs
        else:
            np.take(Qs[free], free, axis=1, out=kkt[:f, :f], mode="clip")
        kkt[:f, f:] = E.T
        kkt[f:, :f] = E
        kkt[f:, f:] = 0.0
        rhs = np.concatenate([-c[free], targets])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    if not np.all(np.isfinite(sol)):
        return None, None
    cand = np.zeros(qp.n)
    cand[free] = sol[:f]
    lams = np.zeros(len(qp.equalities))
    lams[ks] = -sol[f:]
    return cand, lams


def _spectral_kkt_solve(free, spectrum, c, E, targets):
    """The face's KKT solution [w_free; s] from Q = U diag(mu) U', without a
    factorization of the face or the n x n inverse P = U diag(1/mu) U'.

    With the dropped coordinates S, Q_FF^-1 = P_FF - P_FS P_SS^-1 P_SF (the
    Schur complement of P_SS), so Q_FF^-1 [-c_F, E'] costs two products with
    U, the columns P[:, S] and an |S|-square solve. The block multipliers s
    then solve the small system (E Q_FF^-1 E') s = E Q_FF^-1 (-c_F) - targets.
    Returns None when a solve is singular."""
    mu, U = spectrum
    n = mu.size
    R = np.zeros((n, 1 + E.shape[0]))
    R[free, 0] = -c[free]
    R[free, 1:] = E.T
    X = U @ ((U.T @ R) / mu[:, None])
    outside = np.ones(n, dtype=bool)
    outside[free] = False
    dropped = np.flatnonzero(outside)
    try:
        if dropped.size:
            P_S = U @ (U[dropped].T / mu[:, None])
            X -= P_S @ np.linalg.solve(P_S[dropped], X[dropped])
        a, B = X[free, 0], X[free, 1:]
        s = np.linalg.solve(E @ B, E @ a - targets)
    except np.linalg.LinAlgError:
        return None
    return np.concatenate([a - B @ s, s])


def _reduced_gradient(g, lams, qp):
    reduced = g.copy()
    covered = qp.block_of >= 0
    reduced[covered] -= lams[qp.block_of[covered]]
    return reduced


def _natural_residual(w, g, qp) -> float:
    # Unit-step fixed-point residual; zero exactly at KKT points.
    return float(np.max(np.abs(w - _project_feasible(w - g, qp))))


def _polish(w, Qs, c, qp, objective, rounds: int = 3):
    """Active-set refinement: repeatedly solve the KKT system on the free set,
    dropping negative coordinates and releasing dual-infeasible ones. Only
    feasible candidates that do not increase the objective are accepted.
    Returns the point and the number of KKT solves."""
    best = w
    best_obj = objective(w)
    free = np.nonzero(w > _FREE_EPS)[0]
    solves = 0
    for _ in range(rounds):
        if free.size == 0:
            break
        cand, lams = _kkt_solve(free, Qs, c, qp)
        solves += 1
        if cand is None:
            break
        negative = cand.min() < _NEGATIVE
        feasible = _project_feasible(cand, qp)
        feas_obj = objective(feasible)
        improved = feas_obj <= best_obj + 1e-12 * (1.0 + abs(best_obj))
        if feas_obj <= best_obj:
            best, best_obj = feasible, feas_obj
        if negative:
            # shrink the working set and retry
            worst = int(free[np.argmin(cand[free])])
            free = free[free != worst]
            continue
        # dual feasibility on the active bound
        reduced = _reduced_gradient(Qs @ feasible + c, lams, qp)
        zeroed = np.nonzero(feasible <= _FREE_EPS)[0]
        viol = zeroed[reduced[zeroed] < _RELEASE]
        if viol.size == 0:
            if improved:
                return feasible, solves  # KKT-certified on this working set
            break
        release = int(viol[np.argmin(reduced[viol])])
        free = np.unique(np.append(np.nonzero(feasible > _FREE_EPS)[0], release))
    return best, solves


def _face_is_convex(Q, free, qp) -> bool:
    """Whether Q restricted to the face's feasible directions, the null space
    of the block-sum rows on the free coordinates, has a Cholesky factor.

    The basis pairs each free coordinate of a block with the block's last
    free coordinate, so Z'QZ is formed by column and row differences."""
    M = Q.copy() if free.size == qp.n else Q[free][:, free]
    free_block = qp.block_of[free]
    keep = np.ones(free.size, dtype=bool)
    for k in range(len(qp.equalities)):
        members = np.nonzero(free_block == k)[0]
        if members.size == 0:
            continue
        last, rest = members[-1], members[:-1]
        M[:, rest] -= M[:, [last]]
        M[rest, :] -= M[[last], :]
        keep[last] = False
    try:
        np.linalg.cholesky(M[keep][:, keep])
    except np.linalg.LinAlgError:
        return False
    return True


def _pivot(Q, qp, rounds: int):
    """Block active-set pivoting from the all-free face: solve the face's KKT
    system, then drop every negative coordinate or, if there is none, release
    every zeroed coordinate whose reduced gradient is negative.

    Returns the KKT point of the final face, or None when the rounds run out,
    a block loses all its coordinates or the face is not strictly convex;
    and the number of KKT solves. A certified spectrum (see
    _certified_spectrum) stands for every face's convexity check."""
    spectrum = _certified_spectrum(qp)
    free = np.arange(qp.n)
    for solves in range(1, rounds + 1):
        cand, lams = _kkt_solve(free, Q, qp.c, qp, spectrum)
        if cand is None:
            return None, solves
        negative = cand[free] < _NEGATIVE
        if negative.any():
            free = free[~negative]
            continue
        w = _project_feasible(cand, qp)
        reduced = _reduced_gradient(Q @ w + qp.c, lams, qp)
        zeroed = np.nonzero(w <= _FREE_EPS)[0]
        release = zeroed[reduced[zeroed] < _RELEASE]
        if release.size:
            free = np.union1d(np.nonzero(w > _FREE_EPS)[0], release)
            continue
        convex = spectrum is not None or _face_is_convex(Q, free, qp)
        return (w if convex else None), solves
    return None, rounds


def solve_qp(
    qp: QuadraticProgram,
    tol: float = 1e-8,
    max_iter: int = 50000,
    trace: list | None = None,
) -> QPSolution:
    """Solve the QP; status 'optimal' certifies a fixed-point (KKT) residual <= tol.

    Active-set pivoting is tried first; a point it certifies is returned with
    path "pivot". Pivoting certifies a point when its face is strictly convex
    and its residual, computed with the dense Q, is within tol. When
    qp.spectrum's smallest eigenvalue exceeds n * eps * max|mu| (eigh's
    backward error), Q is positive definite, which certifies every face
    without a factorization, and the face KKT systems are solved from the
    spectrum while that is cheaper than a dense LU; otherwise each final face
    needs a Cholesky factor of its reduced Hessian. When pivoting certifies
    nothing, projected-gradient iteration runs from the uniform start (path
    "gradient"). If the objective turns out to be
    indefinite along the feasible directions (possible from floating-point
    round-off in distance-based objectives), the smallest diagonal shift
    restoring positive semidefiniteness on that subspace is applied and the
    gradient solve restarts once; the shift is recorded. `iterations` counts
    pivot rounds plus gradient steps and never exceeds `max_iter`; the
    diagnostics hold the path and the number of KKT solves.
    """
    return _solve_qp(qp, tol, max_iter, trace, _PIVOT_ROUNDS)


def _solve_qp(qp, tol, max_iter, trace, pivot_rounds) -> QPSolution:
    for _, target in qp.equalities:
        if target < 0:
            return QPSolution(
                np.zeros(qp.n), float("nan"), float("inf"), 0, STATUS_INFEASIBLE,
                diagnostics={"kkt_solves": 0, "path": "none"},
            )

    # 0.5*(Q + Q') equals a symmetric Q bit for bit; skip the two n x n temporaries
    Q = qp.Q if np.array_equal(qp.Q, qp.Q.T) else 0.5 * (qp.Q + qp.Q.T)

    def final_objective(w):
        return float(0.5 * w @ (Q @ w) + qp.c @ w)

    w, kkt_solves = _pivot(Q, qp, min(pivot_rounds, max_iter))
    iterations = kkt_solves
    if w is not None:
        residual = _natural_residual(w, Q @ w + qp.c, qp)
        if residual <= tol:
            if trace is not None:
                trace.append(final_objective(w))
            return QPSolution(
                w, final_objective(w), residual, iterations, STATUS_OPTIMAL,
                diagnostics={"kkt_solves": kkt_solves, "path": "pivot"},
            )

    shift = 0.0
    repaired = False

    while True:
        Qs = Q if shift == 0.0 else Q + shift * np.eye(qp.n)

        def objective(w, _Qs=Qs):
            return float(0.5 * w @ (_Qs @ w) + qp.c @ w)

        L = _spectral_bound(Qs)
        eta = 1.0 / max(L, tol)
        w = _feasible_start(qp)
        if trace is not None:
            trace.append(objective(w))
        residual = float("inf")
        indefinite = False

        while iterations < max_iter:
            iterations += 1
            g = Qs @ w + qp.c
            residual = _natural_residual(w, g, qp)
            if residual <= tol:
                break
            proposal = _project_feasible(w - eta * g, qp)
            d = proposal - w
            dQd = float(d @ (Qs @ d))
            dnorm2 = float(d @ d)
            if dnorm2 == 0.0:
                break
            if dQd < -1e-12 * max(L, 1.0) * dnorm2:
                indefinite = True
                break
            gd = float(g @ d)
            if gd >= 0.0 or not np.isfinite(gd):
                break  # step is below numerical resolution; certify below
            neg = d < 0
            alpha_max = float(np.min(w[neg] / -d[neg])) if np.any(neg) else np.inf
            if dQd > 0:
                alpha = min(-gd / dQd, alpha_max)  # exact minimizer along d
            else:
                alpha = min(alpha_max, 1e6)
            w = _project_feasible(w + alpha * d, qp)
            if iterations % _POLISH_EVERY == 0:
                w, solves = _polish(w, Qs, qp.c, qp, objective)
                kkt_solves += solves
            if trace is not None:
                trace.append(objective(w))

        if indefinite and not repaired:
            repaired = True
            lam_min = _reduced_min_eigenvalue(Q, qp)
            new_shift = max(0.0, -lam_min) + 1e-12
            if new_shift > shift:
                shift = new_shift
            if trace is not None:
                trace.clear()
            continue  # restart; a second detection falls through below

        # Final refinement, exact feasibility, and a fresh certificate.
        w = _project_feasible(w, qp)
        w, solves = _polish(w, Qs, qp.c, qp, objective, rounds=30)
        kkt_solves += solves
        residual = _natural_residual(w, Qs @ w + qp.c, qp)
        status = STATUS_OPTIMAL if residual <= tol else STATUS_MAX_ITER
        if trace is not None:
            trace.append(objective(w))
        return QPSolution(
            w, final_objective(w), residual, iterations, status, shift,
            diagnostics={"kkt_solves": kkt_solves, "path": "gradient"},
        )
