"""Gram and distance matrices plus the median bandwidth heuristic.

Gaussian Grams come from squared Euclidean distances through one matrix
product; Laplacian Grams from L1 distances summed one covariate column at a
time within 32-row blocks, at a fraction of the broadcast sum's memory."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("gaussian", "laplacian")


@dataclass(frozen=True)
class KernelSpec:
    """family 'gaussian': exp(-||x-z||^2 / (2 scale^2)); 'laplacian': exp(-scale * ||x-z||_1)."""

    family: str
    scale: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not self.scale > 0:
            raise ValueError("kernel scale must be positive")


def squared_distances(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    xx = np.sum(X**2, axis=1)
    d2 = xx[:, None] + xx[None, :] - 2.0 * (X @ X.T)
    return np.maximum(d2, 0.0)


def distance_matrix(X: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, symmetric with an exact zero diagonal."""
    d = np.sqrt(squared_distances(X))
    np.fill_diagonal(d, 0.0)
    return 0.5 * (d + d.T)  # X @ X.T is not exactly symmetric for a non-contiguous X


_L1_BLOCK = 32  # rows per block of _l1_distances


def _l1_distances(X: np.ndarray) -> np.ndarray:
    """Pairwise L1 distances between the rows of X without the 3-D temporary
    of np.abs(X[:, None, :] - X[None, :, :]).sum(axis=2): each 32-row block
    adds |X[:, j] - X[:, j]'| one covariate column at a time, in column
    order. Small blocks keep the running sum in cache."""
    n = X.shape[0]
    out = np.zeros((n, n))
    for start in range(0, n, _L1_BLOCK):
        stop = start + _L1_BLOCK
        for j in range(X.shape[1]):
            diff = np.subtract.outer(X[start:stop, j], X[:, j])
            out[start:stop] += np.abs(diff, out=diff)
    return out


def gram_matrix(kernel: KernelSpec, X: np.ndarray) -> np.ndarray:
    """Kernel evaluations between the rows of X, symmetric with unit diagonal."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise ValueError("cannot build a Gram matrix from an empty sample")
    if kernel.family == "gaussian":
        K = np.exp(-squared_distances(X) / (2.0 * kernel.scale**2))
    else:
        K = np.exp(-kernel.scale * _l1_distances(X))
    K = 0.5 * (K + K.T)  # the Gaussian path's X @ X.T is not exactly symmetric for a non-contiguous X
    np.fill_diagonal(K, 1.0)
    return K


def median_heuristic(D: np.ndarray) -> float:
    """Median of the strictly positive entries above the diagonal of the
    pairwise distance matrix D, such as distance_matrix(X)."""
    if D.shape[0] < 2:
        raise ValueError("need at least two rows")
    upper = D[np.triu_indices(D.shape[0], k=1)]
    positive = upper[upper > 0.0]
    if positive.size == 0:
        raise ValueError("all rows are identical; the median distance is degenerate")
    return float(np.median(positive))


class Geometry:
    """Pairwise geometry of one sample, each piece built on first use and then
    shared: Euclidean distances, the median bandwidth, one Gram matrix per
    KernelSpec, and `memo` for objects derived from them. Cached arrays are
    read-only; `release` drops them when their users are done."""

    def __init__(self, X: np.ndarray):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self._memo: dict = {}

    def memo(self, key, compute):
        """compute() on the first call with `key`, the stored result afterwards."""
        if key not in self._memo:
            value = compute()
            for array in _arrays(value):
                array.flags.writeable = False
            self._memo[key] = value
        return self._memo[key]

    def release(self) -> None:
        """Drop the cached values that hold arrays, except the distances until
        the median is taken from them; scalars such as the median stay. A
        dropped value is rebuilt on its next use."""
        self._memo = {
            key: value
            for key, value in self._memo.items()
            if not _arrays(value) or (key == "distances" and "median" not in self._memo)
        }

    def distances(self) -> np.ndarray:
        return self.memo("distances", lambda: distance_matrix(self.X))

    def median(self) -> float:
        return self.memo("median", lambda: median_heuristic(self.distances()))

    def gram(self, kernel: KernelSpec) -> np.ndarray:
        return self.memo(kernel, lambda: gram_matrix(kernel, self.X))


def _arrays(value) -> list:
    """The arrays in a memo value: the value itself, or those nested in its tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [array for item in value for array in _arrays(item)]
    return []
