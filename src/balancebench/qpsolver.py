"""Deterministic solver for convex quadratic programs with nonnegativity and
group-sum equality constraints.

A solve runs block active-set pivoting (Judice & Pires 1994) from the
all-free face: solve the face's KKT system, drop every negative coordinate,
or else release every zeroed coordinate whose reduced gradient is negative.
When the number of coordinates a round moves has not reached a new low for
_STALL_ROUNDS rounds, each later round exchanges only the lowest-index
infeasible coordinate (Murty's rule), which keeps pivoting finite. The point
it ends on is accepted only when its face is strictly convex and a fresh
fixed-point (KKT) residual, computed with the dense Q, is within tolerance.
Strict convexity is certified by a Cholesky factor of the face's reduced
Hessian, or, when the QP carries Q's eigendecomposition, its smallest
eigenvalue clears eigh's backward error and it reproduces Q @ 1, by that
bound for every face at once; such a QP also solves each face's KKT system
from the eigendecomposition while that is cheaper than factoring the face.
A point that is not accepted gets one dense retry on Q plus a diagonal shift
taken from Q's smallest eigenvalue along the feasible directions (see
solve_qp); if that fails too, the uniform feasible point is returned,
uncertified.
Everything is deterministic: fixed pivoting order, no randomized choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITER = "max_iter"

_FREE_EPS = 1e-12
_NEGATIVE = -1e-11  # a KKT coordinate below this leaves the face
_RELEASE = -1e-10  # a zeroed coordinate with reduced gradient below this joins it
_STALL_ROUNDS = 10  # block rounds without a new low in coordinates moved before single pivots
KKT_TOL = 1e-8  # largest fixed-point (KKT) residual a solution is certified at


@dataclass(frozen=True)
class QuadraticProgram:
    """min 0.5 w'Qw + c'w  subject to  sum(w[idx]) = target per block and w >= 0.

    Blocks must be nonempty, in range and disjoint; targets finite and >= 0.

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
            target = float(target)
            if not (np.isfinite(target) and target >= 0.0):
                raise ValueError("equality targets must be finite and nonnegative")
            block_of[idx] = k
            blocks.append((idx, target))
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


def _uniform_point(qp: QuadraticProgram) -> np.ndarray:
    w = np.zeros(qp.n)
    for idx, target in qp.equalities:
        w[idx] = target / idx.size
    return w


def _reduced_min_eigenvalue(Q: np.ndarray, qp: QuadraticProgram) -> float:
    """Smallest eigenvalue of Z'QZ, with Z the basis of the equality-constraint
    null space that _reduced_hessian forms (inf when that space is trivial).
    Z'Z >= I for that basis, so Q + max(0, 1e-12 - lam) I is positive definite
    on the null space."""
    M = _reduced_hessian(Q, np.arange(qp.n), qp)
    return float(np.linalg.eigvalsh(M)[0]) if M.size else float("inf")


def _certified_spectrum(qp: QuadraticProgram):
    """qp.spectrum when its smallest eigenvalue exceeds eigh's backward error
    bound n * eps * max|mu|, which makes Q positive definite and every face
    strictly convex, and it reproduces Q @ 1 to within that bound times
    ||1||_2 = sqrt(n), so that the spectrum of another matrix is refused before
    any pivot round uses it; otherwise None."""
    if qp.spectrum is None:
        return None
    mu, U = qp.spectrum
    margin = qp.n * np.finfo(float).eps * float(np.abs(mu).max())
    if not float(mu.min()) > margin:
        return None
    ones = np.ones(qp.n)
    mismatch = float(np.abs(qp.Q @ ones - U @ (mu * (U.T @ ones))).max())
    return qp.spectrum if mismatch <= margin * np.sqrt(qp.n) else None


def _kkt_solve(free, Qs, c, qp, spectrum=None):
    """Equality-constrained solve on the free coordinates; returns the candidate
    full vector and the per-block multipliers (None when the system is
    singular or a block with a positive target has no free coordinate).

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
            return None, None
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


def _reduced_hessian(Q, free, qp) -> np.ndarray:
    """Z'QZ for a basis Z of the face's feasible directions, the null space of
    the block-sum rows on the free coordinates. The basis pairs each free
    coordinate of a block with the block's last free coordinate, so Z'QZ is
    formed by column and row differences."""
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
    return M[keep][:, keep]


def _face_is_convex(Q, free, qp) -> bool:
    """Whether the face's reduced Hessian (see _reduced_hessian) has a Cholesky factor."""
    try:
        np.linalg.cholesky(_reduced_hessian(Q, free, qp))
    except np.linalg.LinAlgError:
        return False
    return True


def _round_cap(n: int) -> int:
    """Pivot rounds allowed per attempt. Single pivots move one coordinate a
    round, and a coordinate may leave the face and rejoin it."""
    return 2 * n + _STALL_ROUNDS


def _block_pivot(free, cand, lams, Q, qp):
    """One block round at the face's KKT point `cand`: drop every free
    coordinate below _NEGATIVE or, if there is none, release every zeroed
    coordinate of the projected point whose reduced gradient is below
    _RELEASE. Returns the next face (None when nothing moves) and the number
    of coordinates moved."""
    negative = cand[free] < _NEGATIVE
    if negative.any():
        return free[~negative], int(negative.sum())
    w = _project_feasible(cand, qp)
    reduced = _reduced_gradient(Q @ w + qp.c, lams, qp)
    zeroed = np.nonzero(w <= _FREE_EPS)[0]
    release = zeroed[reduced[zeroed] < _RELEASE]
    if release.size == 0:
        return None, 0
    return np.union1d(np.nonzero(w > _FREE_EPS)[0], release), release.size


def _single_pivot(free, cand, lams, Q, qp):
    """One round of Murty's rule: exchange only the lowest-index coordinate
    that is infeasible at the face's KKT point `cand`, a free one below
    _NEGATIVE or a zeroed one whose reduced gradient is below _RELEASE.
    Returns the next face, or None when there is no such coordinate."""
    on_face = np.zeros(qp.n, dtype=bool)
    on_face[free] = True
    reduced = _reduced_gradient(Q @ cand + qp.c, lams, qp)
    infeasible = np.flatnonzero(np.where(on_face, cand < _NEGATIVE, reduced < _RELEASE))
    if infeasible.size == 0:
        return None
    on_face[infeasible[0]] = not on_face[infeasible[0]]
    return np.flatnonzero(on_face)


def _pivot(Q, qp, spectrum):
    """Active-set pivoting from the all-free face: block rounds while the
    number of coordinates moved keeps reaching new lows, then single pivots
    once it has not for _STALL_ROUNDS rounds (Judice & Pires 1994), so the
    rounds cannot cycle.

    Returns the projected KKT point of the final face, or None when a face's
    KKT system is singular, the final face is not strictly convex or the
    rounds run out; and the number of KKT solves. A certified `spectrum`
    (see _certified_spectrum) stands for every face's convexity check."""
    free = np.arange(qp.n)
    fewest, stalled = qp.n + 1, 0
    cap = _round_cap(qp.n)
    for solves in range(1, cap + 1):
        cand, lams = _kkt_solve(free, Q, qp.c, qp, spectrum)
        if cand is None:
            return None, solves
        if stalled < _STALL_ROUNDS:
            face, moved = _block_pivot(free, cand, lams, Q, qp)
            fewest, stalled = (moved, 0) if moved < fewest else (fewest, stalled + 1)
        else:
            face = _single_pivot(free, cand, lams, Q, qp)
        if face is None:
            convex = spectrum is not None or _face_is_convex(Q, free, qp)
            return (_project_feasible(cand, qp) if convex else None), solves
        free = face
    return None, cap


def solve_qp(qp: QuadraticProgram) -> QPSolution:
    """Solve the QP; status 'optimal' certifies a fixed-point (KKT) residual <= KKT_TOL.

    Pivoting (see _pivot) ends on a point that is certified when its face is
    strictly convex and its residual, computed with the dense Q, is within
    KKT_TOL. When qp.spectrum's smallest eigenvalue exceeds n * eps * max|mu|
    (eigh's backward error) and the spectrum reproduces Q @ 1 (see
    _certified_spectrum), Q is positive definite, which certifies every
    face without a factorization, and the face KKT systems are solved from
    the spectrum while that is cheaper than a dense LU; otherwise the final
    face needs a Cholesky factor of its reduced Hessian.

    A point that is not certified (a singular face, a final face that is not
    strictly convex, the rounds run out, or the residual is above KKT_TOL) gets
    one retry: dense pivoting on Q + shift * I, with shift = max(0, 1e-12 - lam)
    and lam the smallest eigenvalue of Q's reduced Hessian on the null space of
    the equality rows (see _reduced_min_eigenvalue), so a Q that is positive
    definite there gets no shift; distance-based objectives can be indefinite
    there from floating-point round-off. The shift is recorded, and the
    retry's residual is computed with the shifted Q. If the retry is not
    certified either, the uniform feasible point is returned with status
    'max_iter'. `iterations` counts the KKT solves of both attempts.
    """
    # 0.5*(Q + Q') equals a symmetric Q bit for bit; skip the two n x n temporaries
    Q = qp.Q if np.array_equal(qp.Q, qp.Q.T) else 0.5 * (qp.Q + qp.Q.T)

    w, iterations = _pivot(Q, qp, _certified_spectrum(qp))
    residual = float("inf") if w is None else _natural_residual(w, Q @ w + qp.c, qp)
    shift = 0.0
    if residual > KKT_TOL:
        shift = max(0.0, 1e-12 - _reduced_min_eigenvalue(Q, qp))
        shifted = Q + shift * np.eye(qp.n)
        w, solves = _pivot(shifted, qp, None)
        iterations += solves
        residual = float("inf") if w is None else _natural_residual(w, shifted @ w + qp.c, qp)
        if residual > KKT_TOL:
            w = _uniform_point(qp)
            residual = _natural_residual(w, shifted @ w + qp.c, qp)
    status = STATUS_OPTIMAL if residual <= KKT_TOL else STATUS_MAX_ITER
    objective = float(0.5 * w @ (Q @ w) + qp.c @ w)
    return QPSolution(w, objective, residual, iterations, status, shift)
