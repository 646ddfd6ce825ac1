"""Gram and distance matrices plus the median bandwidth heuristic.

Gaussian Grams come from squared Euclidean distances through one matrix
product; Laplacian Grams from L1 distances summed one covariate column at a
time within 32-row blocks, in the order numpy's own pairwise sum uses, so
that they match the broadcast sum bit for bit at a fraction of its memory."""

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
    return 0.5 * (d + d.T)


_L1_BLOCK = 32  # rows per block of _l1_distances


def _l1_distances(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Pairwise L1 distances, equal bit for bit to
    np.abs(X[:, None, :] - Z[None, :, :]).sum(axis=2) without its 3-D
    temporary: each block of rows adds one covariate column at a time, in
    the order of numpy's pairwise summation. A row's sum does not depend on
    the block; small blocks keep the 8 accumulators in cache and out of
    freshly mapped pages."""
    out = np.empty((X.shape[0], Z.shape[0]))
    for start in range(0, X.shape[0], _L1_BLOCK):
        stop = min(start + _L1_BLOCK, X.shape[0])
        out[start:stop] = _pairwise_column_sum(X[start:stop], Z, 0, X.shape[1])
    return out


def _pairwise_column_sum(X, Z, lo, hi):
    """sum over columns j in [lo, hi) of |X[:, j] - Z[:, j]'|, summed as numpy's
    pairwise_sum does: in sequence below 8 terms, in 8 strided accumulators up
    to 128, and by halving (at a multiple of 8) above that."""
    def term(j):
        diff = np.subtract.outer(X[:, j], Z[:, j])
        return np.abs(diff, out=diff)

    count = hi - lo
    if count > 128:
        half = count // 2
        half -= half % 8
        total = _pairwise_column_sum(X, Z, lo, lo + half)
        total += _pairwise_column_sum(X, Z, lo + half, hi)
        return total
    if count < 8:
        total = term(lo)
        for j in range(lo + 1, hi):
            total += term(j)
        return total
    acc = [term(lo + k) for k in range(8)]
    body = lo + count - count % 8
    for j in range(lo + 8, body):
        acc[(j - lo) % 8] += term(j)
    for stride in (1, 2, 4):  # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
        for k in range(0, 8, 2 * stride):
            acc[k] += acc[k + stride]
    total = acc[0]
    for j in range(body, hi):
        total += term(j)
    return total


def gram_matrix(kernel: KernelSpec, X: np.ndarray) -> np.ndarray:
    """Kernel evaluations between the rows of X, symmetric with unit diagonal."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise ValueError("cannot build a Gram matrix from an empty sample")
    if kernel.family == "gaussian":
        K = np.exp(-squared_distances(X) / (2.0 * kernel.scale**2))
    else:
        K = np.exp(-kernel.scale * _l1_distances(X, X))
    K = 0.5 * (K + K.T)
    np.fill_diagonal(K, 1.0)
    return K


def median_heuristic(X: np.ndarray, distances: np.ndarray | None = None) -> float:
    """Median of the strictly positive pairwise Euclidean distances; `distances`,
    if given, is distance_matrix(X) computed beforehand."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 2:
        raise ValueError("need at least two rows")
    d = distance_matrix(X) if distances is None else distances
    upper = d[np.triu_indices(d.shape[0], k=1)]
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

    def release(self, keep_distances: bool = False) -> None:
        """Drop the cached values that hold arrays, except the distances if
        asked; scalars such as the median stay. A dropped value is rebuilt on
        its next use."""
        self._memo = {
            key: value
            for key, value in self._memo.items()
            if not _arrays(value) or (keep_distances and key == "distances")
        }

    def distances(self) -> np.ndarray:
        return self.memo("distances", lambda: distance_matrix(self.X))

    def median(self) -> float:
        return self.memo("median", lambda: median_heuristic(self.X, distances=self.distances()))

    def gram(self, kernel: KernelSpec) -> np.ndarray:
        return self.memo(kernel, lambda: gram_matrix(kernel, self.X))


def _arrays(value) -> list:
    """The arrays in a memo value: the value itself, or those nested in its tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [array for item in value for array in _arrays(item)]
    return []
