import numpy as np
import pytest

from balancebench.kernels import (
    Geometry,
    KernelSpec,
    _l1_distances,
    distance_matrix,
    gram_matrix,
    median_heuristic,
)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("cubic", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", 0.0)


def test_unit_diagonal_both_families():
    X = np.random.default_rng(0).standard_normal((8, 4))
    for spec in (KernelSpec("gaussian", 0.7), KernelSpec("laplacian", 2.0)):
        K = gram_matrix(spec, X)
        np.testing.assert_allclose(np.diag(K), 1.0)
        np.testing.assert_allclose(K, K.T, atol=1e-12)


def test_gaussian_wide_bandwidth_limit():
    X = np.random.default_rng(1).standard_normal((6, 3))
    K = gram_matrix(KernelSpec("gaussian", 1e9), X)
    np.testing.assert_allclose(K, 1.0, atol=1e-12)


def test_gram_positive_semidefinite():
    X = np.random.default_rng(2).standard_normal((5, 3))
    for spec in (KernelSpec("gaussian", 1.0), KernelSpec("laplacian", 0.5)):
        K = gram_matrix(spec, X)
        assert np.linalg.eigvalsh(K).min() >= -1e-8


def test_gram_matches_scalar_double_loop():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((7, 4))
    gaussian = gram_matrix(KernelSpec("gaussian", 0.9), X)
    laplacian = gram_matrix(KernelSpec("laplacian", 1.3), X)
    for i in range(7):
        for j in range(7):
            d2 = float(((X[i] - X[j]) ** 2).sum())
            d1 = float(np.abs(X[i] - X[j]).sum())
            assert gaussian[i, j] == pytest.approx(np.exp(-d2 / (2 * 0.9**2)), abs=1e-14)
            assert laplacian[i, j] == pytest.approx(np.exp(-1.3 * d1), abs=1e-14)


@pytest.mark.parametrize("d", range(1, 21))
def test_l1_distances_match_broadcast_sum(d):
    # 300 rows span ten 32-row blocks, the last one partial; below 8 terms
    # numpy's pairwise sum also adds in sequence
    X = np.random.default_rng(d).standard_normal((300, d))
    reference = np.abs(X[:, None, :] - X[None, :, :]).sum(axis=2)
    L = _l1_distances(X)
    if d < 8:
        assert np.array_equal(L, reference)
    np.testing.assert_allclose(L, reference, rtol=d * np.finfo(float).eps, atol=0)
    assert np.array_equal(L, L.T)


def test_strided_input_gives_exactly_symmetric_matrices():
    # a non-contiguous X, for which X @ X.T alone is not exactly symmetric
    X = np.random.default_rng(7).standard_normal((600, 20))[::2, ::2]
    for M in (distance_matrix(X), gram_matrix(KernelSpec("gaussian", 1.1), X),
              gram_matrix(KernelSpec("laplacian", 0.4), X)):
        assert np.array_equal(M, M.T)


def test_distance_matrix_properties():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 6))
    D = distance_matrix(X)
    assert np.all(np.diag(D) == 0.0)
    np.testing.assert_allclose(D, D.T)
    for i, j, k in rng.integers(0, 20, size=(30, 3)):
        assert D[i, k] <= D[i, j] + D[j, k] + 1e-12


def test_median_heuristic_small_cases():
    assert median_heuristic(distance_matrix(np.array([[0.0], [2.0]]))) == 2.0
    assert median_heuristic(distance_matrix(np.array([[0.0], [1.0], [3.0]]))) == 2.0


def test_median_heuristic_matches_brute_force():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((50, 5))
    dists = sorted(
        float(np.linalg.norm(X[i] - X[j])) for i in range(50) for j in range(i + 1, 50)
    )
    assert median_heuristic(distance_matrix(X)) == pytest.approx(float(np.median(dists)), rel=1e-12)


def test_median_heuristic_degenerate_input():
    with pytest.raises(ValueError):
        median_heuristic(distance_matrix(np.ones((5, 3))))
    with pytest.raises(ValueError):
        median_heuristic(distance_matrix(np.ones((1, 3))))


def test_geometry_matches_standalone_functions():
    X = np.random.default_rng(3).standard_normal((30, 4))
    geometry = Geometry(X)
    np.testing.assert_array_equal(geometry.distances(), distance_matrix(X))
    assert geometry.median() == median_heuristic(distance_matrix(X))
    for spec in (KernelSpec("gaussian", 0.9), KernelSpec("laplacian", 1.3)):
        np.testing.assert_array_equal(geometry.gram(spec), gram_matrix(spec, X))


def test_geometry_builds_each_piece_once_and_read_only():
    X = np.random.default_rng(4).standard_normal((10, 3))
    geometry = Geometry(X)
    spec = KernelSpec("gaussian", 1.0)
    assert geometry.distances() is geometry.distances()
    assert geometry.gram(spec) is geometry.gram(KernelSpec("gaussian", 1.0))
    assert geometry.gram(spec) is not geometry.gram(KernelSpec("gaussian", 2.0))
    with pytest.raises(ValueError):
        geometry.gram(spec)[0, 1] = 0.0
    calls = []
    assert geometry.memo("k", lambda: calls.append(1) or 7) == 7
    assert geometry.memo("k", lambda: calls.append(1) or 8) == 7
    assert calls == [1]


def test_geometry_release_keeps_scalars_and_rebuilds_arrays():
    X = np.random.default_rng(6).standard_normal((8, 3))
    geometry = Geometry(X)
    spec = KernelSpec("laplacian", 1.0)
    distances, K = geometry.distances(), geometry.gram(spec)
    # a memo value that holds arrays inside tuples, as KOM's ridge and spectrum do
    spectrum = geometry.memo("spectrum", lambda: (1.0, {"fallback": False}, np.linalg.eigh(K)))
    flags = geometry.memo("flags", lambda: (2.0, ("a", 3)))
    assert not any(array.flags.writeable for array in spectrum[2])
    geometry.release()  # no median yet, so the distances stay
    assert geometry.distances() is distances
    assert geometry.gram(spec) is not K
    assert geometry.memo("flags", lambda: None) is flags
    rebuilt = geometry.memo("spectrum", lambda: (1.0, {"fallback": False}, np.linalg.eigh(K)))
    assert rebuilt is not spectrum
    median = geometry.median()
    geometry.release()  # the median is taken, so the distances go
    assert geometry.median() == median and "distances" not in geometry._memo
    assert geometry.distances() is not distances
    assert geometry.memo("spectrum", lambda: None) is None
    np.testing.assert_array_equal(geometry.distances(), distances)
    np.testing.assert_array_equal(geometry.gram(spec), K)
