import dataclasses
import itertools

import numpy as np
import pytest

import balancebench as bb
from balancebench import qpsolver, weights
from balancebench.qpsolver import QuadraticProgram, project_simplex, solve_qp
from balancebench.scenarios import CONFOUNDING_LEVELS, RARITY_LEVELS


def brute_force_simplex(Q, c, total=1.0, step=1e-3):
    """Dense grid search over the 3-point simplex."""
    best, best_val = None, np.inf
    grid = np.arange(0.0, total + step / 2, step)
    for w0 in grid:
        for w1 in np.arange(0.0, total - w0 + step / 2, step):
            w = np.array([w0, w1, total - w0 - w1])
            val = 0.5 * w @ Q @ w + c @ w
            if val < best_val:
                best, best_val = w, val
    return best, best_val


def test_project_simplex_basics():
    np.testing.assert_allclose(project_simplex(np.array([0.2, 0.3, 0.5]), 1.0), [0.2, 0.3, 0.5])
    np.testing.assert_allclose(project_simplex(np.array([-1.0, -2.0]), 1.0), [1.0, 0.0])


def test_feasible_point_is_returned_unchanged():
    u = np.array([0.2, 0.3, 0.5])
    qp = QuadraticProgram(2 * np.eye(3), -2 * u, (((0, 1, 2), 1.0),))
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.w, u, atol=1e-9)


def test_symmetric_problem_gives_uniform():
    qp = QuadraticProgram(np.eye(4), np.zeros(4), (((0, 1, 2, 3), 1.0),))
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.w, 0.25, atol=1e-9)


def test_matches_brute_force_grid():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    Q = A @ A.T + 0.05 * np.eye(3)
    c = rng.standard_normal(3)
    qp = QuadraticProgram(Q, c, (((0, 1, 2), 1.0),))
    sol = solve_qp(qp)
    w_grid, _ = brute_force_simplex(Q, c)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.w, w_grid, atol=1e-3)


def test_validation_errors():
    with pytest.raises(ValueError):
        QuadraticProgram(np.eye(3), np.zeros(2), (((0, 1), 1.0),))
    with pytest.raises(ValueError):
        QuadraticProgram(np.eye(2), np.zeros(2), (((), 1.0),))
    with pytest.raises(ValueError):
        QuadraticProgram(np.eye(2), np.zeros(2), (((0,), 1.0), ((0, 1), 1.0)))
    with pytest.raises(ValueError):
        QuadraticProgram(np.eye(2), np.zeros(2), (((0, 5), 1.0),))


@pytest.mark.parametrize("equalities", [
    ((np.array([], dtype=int), 1.0), (np.array([0, 1, 2]), 1.0)),
    ((np.array([0, 0, 1]), 1.0),),
    ((np.array([0, 1]), 1.0),),
    ((np.array([0, 1]), 1.0), (np.array([2, 1]), 1.0)),
    ((np.array([0, 1, 3]), 1.0),),
    ((np.array([-1, 0, 1]), 1.0),),
    ((np.array([0, 1, 2]), 0.0),),
    ((np.array([0, 1]), 1.0), (np.array([2]), -1.0)),
    ((np.array([0, 1, 2]), float("nan")),),
    ((np.array([0, 1, 2]), float("inf")),),
], ids=["empty", "duplicate", "gap", "overlap", "past_end", "negative", "zero_target", "negative_target",
        "nan_target", "inf_target"])
def test_equality_block_errors(equalities):
    message = "equality blocks must partition the coordinates with finite positive totals"
    with pytest.raises(ValueError, match=f"^{message}$"):
        QuadraticProgram(np.eye(3), np.zeros(3), equalities)


def test_equality_blocks_become_index_arrays():
    qp = QuadraticProgram(np.eye(3), np.zeros(3), (((2, 0), 1), (np.array([1]), 2.0)))
    assert [(idx.tolist(), target) for idx, target in qp.equalities] == [([2, 0], 1.0), ([1], 2.0)]
    assert all(idx.dtype == np.intp for idx, _ in qp.equalities)
    assert qp.block_of.tolist() == [0, 1, 0]


def _random_problem(rng):
    n = int(rng.integers(4, 12))
    A = rng.standard_normal((n, n))
    Q = A @ A.T + 0.05 * np.eye(n)
    c = rng.standard_normal(n) * 2
    k = int(rng.integers(1, 3))
    if k == 1 or n < 6:
        eqs = ((tuple(range(n)), float(rng.uniform(0.5, 3.0))),)
    else:
        split = n // 2
        eqs = (
            (tuple(range(split)), float(rng.uniform(0.5, 3.0))),
            (tuple(range(split, n)), float(rng.uniform(0.5, 3.0))),
        )
    return QuadraticProgram(Q, c, eqs)


def _check_kkt(qp, sol, tol=1e-6):
    w = sol.w
    assert np.all(w >= -1e-10)
    g = qp.Q @ w + qp.c
    for idx, target in qp.equalities:
        idx = list(idx)
        assert abs(w[idx].sum() - target) < 1e-9
        active = w[idx] > 1e-9
        if active.any():
            lam = float(np.mean(g[idx][active]))
        else:
            lam = 0.0
        reduced = g[idx] - lam
        # stationarity on free coordinates, dual feasibility on the bound
        assert np.max(np.abs(reduced[active])) < tol
        assert np.all(reduced[~active] > -tol)
        # complementary slackness
        assert np.max(np.abs(w[idx] * np.minimum(reduced, 0.0))) < tol


def test_kkt_certificates_on_random_problems():
    rng = np.random.default_rng(1)
    for _ in range(40):
        qp = _random_problem(rng)
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert sol.kkt_residual <= 1e-8
        _check_kkt(qp, sol)


def test_solution_invariant_under_permutation():
    rng = np.random.default_rng(3)
    n = 8
    A = rng.standard_normal((n, n))
    Q = A @ A.T + 0.1 * np.eye(n)
    c = rng.standard_normal(n)
    qp = QuadraticProgram(Q, c, ((tuple(range(4)), 1.0), (tuple(range(4, 8)), 2.0)))
    sol = solve_qp(qp)

    perm = rng.permutation(n)
    Qp = Q[np.ix_(perm, perm)]
    cp = c[perm]
    inv = np.argsort(perm)
    eqs = tuple(
        (tuple(int(inv[i]) for i in idx), t) for idx, t in qp.equalities
    )
    solp = solve_qp(QuadraticProgram(Qp, cp, eqs))
    np.testing.assert_allclose(solp.w[inv], sol.w, atol=1e-7)


def test_round_cap_returns_the_uniform_point_with_max_iter(monkeypatch):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((30, 30))
    Q = A @ A.T
    c = rng.standard_normal(30)
    qp = QuadraticProgram(Q, c, ((tuple(range(30)), 1.0),))
    monkeypatch.setattr(qpsolver, "_round_cap", lambda n: 1)
    sol = solve_qp(qp)
    assert sol.status == "max_iter"
    assert sol.iterations == 2  # one round for the first attempt, one for the retry
    assert np.array_equal(sol.w, np.full(30, 1.0 / 30))  # exactly feasible
    assert sol.kkt_residual > 1e-8


def test_linear_objective_reaches_vertex():
    c = np.array([0.5, -1.0, 0.2])
    qp = QuadraticProgram(np.zeros((3, 3)), c, (((0, 1, 2), 1.0),))
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.w, [0.0, 1.0, 0.0], atol=1e-8)


def test_subspace_indefinite_gets_diagonal_shift():
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    qp = QuadraticProgram(Q, np.array([-0.1, 0.0]), (((0, 1), 1.0),))
    sol = solve_qp(qp)
    # the all-free face is a saddle, so only the shifted retry certifies a point
    assert sol.diagonal_shift > 0
    assert sol.status == "optimal"


def _assert_pivot_certifies(qp):
    """Pivoting certifies the QP without a shift, and its point satisfies the
    KKT conditions, which for these convex QPs prove it globally optimal."""
    sol = solve_qp(qp)
    assert sol.status == "optimal" and sol.diagonal_shift == 0.0
    assert sol.kkt_residual <= 1e-8
    _check_kkt(qp, sol)
    return sol


def _single_pivots(monkeypatch):
    """A list that grows by one for every single-pivot round."""
    seen = []
    real = qpsolver._single_pivot

    def spy(*args):
        seen.append(args[0].size)
        return real(*args)

    monkeypatch.setattr(qpsolver, "_single_pivot", spy)
    return seen


def test_pivot_path_certifies_random_problems():
    rng = np.random.default_rng(1)
    for _ in range(40):
        _assert_pivot_certifies(_random_problem(rng))


def _replication_qps(rarity, confounding, n=250, seed=21):
    """Every QP behind the EB and KOM weights of one seeded replication."""
    spec = bb.build_scenario(rarity, confounding, n, seed)
    ds = bb.generate_dataset(spec, bb.replication_rng(spec, 0))
    captured = []

    def capture(qp, *args, **kwargs):
        captured.append(qp)
        return solve_qp(qp, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "solve_qp", capture)
        for estimand in ("ATE", "ATT"):
            bb.energy_balance(bb.Geometry(ds.X), ds.T, estimand)
            bb.kom_weights(bb.Geometry(ds.X), ds.T, ds.Y, estimand)
    return captured


@pytest.mark.parametrize("rarity,confounding", list(itertools.product(RARITY_LEVELS, CONFOUNDING_LEVELS)))
def test_pivot_path_certifies_replication_qps(monkeypatch, rarity, confounding):
    qps = _replication_qps(rarity, confounding)
    assert len(qps) == 5  # EB-ATE, EB-ATT, KOM-ATE per group, KOM-ATT
    single = _single_pivots(monkeypatch)
    for qp in qps:
        _assert_pivot_certifies(qp)
    assert single == []  # block rounds alone reach every optimal face


def test_single_pivots_reach_the_block_rounds_point(monkeypatch):
    rng = np.random.default_rng(1)
    qps = [_random_problem(rng) for _ in range(40)] + _replication_qps("common", "moderate")
    block = [solve_qp(qp) for qp in qps]
    single = _single_pivots(monkeypatch)
    monkeypatch.setattr(qpsolver, "_STALL_ROUNDS", 0)  # every round is a single pivot
    for qp, ref in zip(qps, block):
        before = len(single)
        sol = _assert_pivot_certifies(qp)
        assert len(single) - before == sol.iterations
        np.testing.assert_allclose(sol.w, ref.w, rtol=0, atol=1e-12)


def test_every_kkt_face_frees_a_coordinate_of_each_block(monkeypatch):
    """Pivoting never empties a block: at a face's KKT point each block's free
    coordinates sum to its positive total, so dropping the negative ones keeps
    at least one, and _kkt_solve needs no empty-block check."""
    rng = np.random.default_rng(1)
    qps = [_random_problem(rng) for _ in range(40)]
    qps += [qp for rarity in RARITY_LEVELS for qp in _replication_qps(rarity, "moderate")]
    covers = []
    real = qpsolver._kkt_solve

    def spy(free, Qs, c, qp, *args):
        covers.append(np.unique(qp.block_of[free]).size == len(qp.equalities))
        return real(free, Qs, c, qp, *args)

    monkeypatch.setattr(qpsolver, "_kkt_solve", spy)
    for qp in qps:
        assert solve_qp(qp).status == "optimal"
    assert len(covers) > len(qps) and all(covers)


def test_eb_ate_qp_certifies_in_few_kkt_solves():
    qp = _replication_qps("common", "moderate")[0]
    assert qp.n == 250 and len(qp.equalities) == 2
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert sol.iterations <= 10


def test_pivot_rounds_count_toward_max_iter():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((30, 30))
    qp = QuadraticProgram(A @ A.T, rng.standard_normal(30), ((tuple(range(30)), 1.0),))
    full = solve_qp(qp)
    assert full.status == "optimal" and full.iterations == 4  # one KKT solve per round


def _kom_qps():
    """The KOM QPs of two seeded replications; each carries its spectrum."""
    qps = [qp for rarity, confounding in (("common", "moderate"), ("rare", "high"))
           for qp in _replication_qps(rarity, confounding) if qp.spectrum is not None]
    assert len(qps) == 6 and all(qpsolver._certified_spectrum(qp) is not None for qp in qps)
    return qps


def _faces(monkeypatch, name):
    """(n, free count) of every call to _spectral_kkt_solve(free, spectrum, ...)
    or _face_is_convex(Q, free, qp)."""
    seen = []
    real = getattr(qpsolver, name)

    def spy(*args):
        free = args[1] if name == "_face_is_convex" else args[0]
        seen.append((args[2].n if name == "_face_is_convex" else args[1][0].size, free.size))
        return real(*args)

    monkeypatch.setattr(qpsolver, name, spy)
    return seen


def test_spectral_and_dense_paths_agree_on_kom_qps(monkeypatch):
    qps = _kom_qps()
    spectral = _faces(monkeypatch, "_spectral_kkt_solve")
    convexity = _faces(monkeypatch, "_face_is_convex")
    for qp in qps:
        sol = solve_qp(qp)
        dense = solve_qp(dataclasses.replace(qp, spectrum=None))
        assert sol.status == dense.status == "optimal"
        assert sol.iterations == dense.iterations and sol.diagonal_shift == dense.diagonal_shift == 0.0
        assert sol.kkt_residual <= 1e-8
        np.testing.assert_allclose(sol.w, dense.w, rtol=0, atol=1e-12)
    # the dense solves alone checked convexity; the spectral ones solved
    # all-free faces and faces with dropped coordinates
    assert len(convexity) == len(qps)
    assert any(free == qp_n for qp_n, free in spectral)
    assert any(free < qp_n for qp_n, free in spectral)


def test_spectral_kkt_solve_matches_the_dense_face_solve():
    qp = _kom_qps()[4]  # the rare/high replication's treated group: 31 coordinates
    spectrum = qpsolver._certified_spectrum(qp)
    rng = np.random.default_rng(8)
    for dropped in (0, 1, 3, 10, 20):
        free = np.sort(rng.permutation(qp.n)[dropped:])
        E = np.ones((1, free.size))
        sol = qpsolver._spectral_kkt_solve(free, spectrum, qp.c, E, np.array([1.0]))
        cand, lams = qpsolver._kkt_solve(free, qp.Q, qp.c, qp)
        np.testing.assert_allclose(sol[:-1], cand[free], rtol=0, atol=1e-12)
        assert -sol[-1] == pytest.approx(lams[0], rel=1e-10)


def test_spectrum_below_the_margin_takes_the_dense_path(monkeypatch):
    rng = np.random.default_rng(9)
    A = rng.standard_normal((12, 6))
    Q = A @ A.T  # rank 6: the smallest eigenvalues are round-off
    qp = QuadraticProgram(Q, rng.standard_normal(12), ((np.arange(12), 1.0),), spectrum=np.linalg.eigh(Q))
    assert qpsolver._certified_spectrum(qp) is None
    spectral = _faces(monkeypatch, "_spectral_kkt_solve")
    convexity = _faces(monkeypatch, "_face_is_convex")
    sol = solve_qp(qp)
    dense = solve_qp(dataclasses.replace(qp, spectrum=None))
    assert spectral == [] and len(convexity) == 2
    assert sol.status == dense.status == "optimal"
    assert sol.iterations == dense.iterations and sol.diagonal_shift == dense.diagonal_shift == 0.0
    assert np.array_equal(sol.w, dense.w)


def test_spectrum_that_does_not_match_q_is_refused(monkeypatch):
    qp = _kom_qps()[0]
    mu, U = qp.spectrum
    wrong = dataclasses.replace(qp, spectrum=(2.0 * mu, U))  # the spectrum of 2Q
    assert qpsolver._certified_spectrum(wrong) is None
    spectral = _faces(monkeypatch, "_spectral_kkt_solve")
    convexity = _faces(monkeypatch, "_face_is_convex")
    sol = solve_qp(wrong)
    dense = solve_qp(dataclasses.replace(qp, spectrum=None))
    # refused up front: the dense path alone, with no retry and no shift
    assert not spectral and len(convexity) == 2
    assert sol.status == "optimal" and sol.diagonal_shift == 0.0 and sol.iterations == dense.iterations
    assert np.array_equal(sol.w, dense.w)


def test_retry_on_a_positive_definite_qp_is_not_shifted(monkeypatch):
    qp = _kom_qps()[0]
    assert qpsolver._reduced_min_eigenvalue(qp.Q, qp) > 1e-12
    real = qpsolver._pivot
    attempts = []

    def fail_first(*args):
        attempts.append(args[2])
        return (None, 1) if len(attempts) == 1 else real(*args)

    monkeypatch.setattr(qpsolver, "_pivot", fail_first)
    sol = solve_qp(qp)
    # the retry pivots densely on Q + 0 * I, which is Q itself
    assert len(attempts) == 2 and attempts[1] is None
    assert sol.status == "optimal" and sol.diagonal_shift == 0.0
    monkeypatch.setattr(qpsolver, "_pivot", real)
    assert np.array_equal(sol.w, solve_qp(dataclasses.replace(qp, spectrum=None)).w)


def test_spectrum_shape_is_checked():
    with pytest.raises(ValueError, match="spectrum"):
        QuadraticProgram(np.eye(3), np.zeros(3), ((np.arange(3), 1.0),), spectrum=(np.ones(2), np.eye(3)))
