"""Dense GF(2) linear algebra on small matrices (numpy uint8)."""

from __future__ import annotations

import numpy as np


def gf2_rref(A: np.ndarray):
    """Row-reduce A over GF(2). Returns (R, pivot_columns)."""
    R = (np.asarray(A) & 1).astype(np.uint8, copy=True)
    if R.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    m, n = R.shape
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        rows = np.nonzero(R[r:, c])[0]
        if rows.size == 0:
            continue
        p = r + int(rows[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        ones = np.nonzero(R[:, c])[0]
        ones = ones[ones != r]
        if ones.size:
            R[ones] ^= R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def gf2_rank(A: np.ndarray) -> int:
    _, pivots = gf2_rref(A)
    return len(pivots)


def gf2_nullspace(A: np.ndarray) -> np.ndarray:
    """Basis for the right nullspace of A, as rows. Shape (dim, n)."""
    A = (np.asarray(A) & 1).astype(np.uint8)
    m, n = A.shape
    R, pivots = gf2_rref(A)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = np.zeros((len(free), n), dtype=np.uint8)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for r, pc in enumerate(pivots):
            if R[r, c]:
                basis[k, pc] = 1
    return basis


def gf2_rowspace_basis(A: np.ndarray) -> np.ndarray:
    R, pivots = gf2_rref(A)
    return R[: len(pivots)].copy()


def gf2_intersection(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Basis (rows) of rowspace(A) ∩ rowspace(B)."""
    A = gf2_rowspace_basis(A)
    B = gf2_rowspace_basis(B)
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, max(A.shape[1], B.shape[1])), dtype=np.uint8)
    # x = a^T A = b^T B  <=>  [A^T | B^T] (a; b) = 0 with sign-free XOR.
    stacked = np.concatenate([A.T, B.T], axis=1)
    null = gf2_nullspace(stacked)
    if null.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=np.uint8)
    coeffs_a = null[:, : A.shape[0]]
    vecs = (coeffs_a @ A) & 1
    return gf2_rowspace_basis(vecs)


class PackedGF2Solver:
    """Pre-factorised solver for A x = b over GF(2), reusable across many b.

    Rows are bit-packed into uint64 words; the factorisation records the row
    transform T with R = T A in reduced row-echelon form.
    """

    def __init__(self, A: np.ndarray):
        A = (np.asarray(A) & 1).astype(np.uint8)
        self.m, self.n = A.shape
        words = (self.n + 63) // 64
        R = np.zeros((self.m, words), dtype=np.uint64)
        for c in range(self.n):
            w, b = divmod(c, 64)
            R[:, w] |= A[:, c].astype(np.uint64) << np.uint64(b)
        twords = (self.m + 63) // 64
        T = np.zeros((self.m, twords), dtype=np.uint64)
        for r in range(self.m):
            w, b = divmod(r, 64)
            T[r, w] |= np.uint64(1) << np.uint64(b)
        pivots = []
        r = 0
        for c in range(self.n):
            if r >= self.m:
                break
            w, b = divmod(c, 64)
            col = (R[r:, w] >> np.uint64(b)) & np.uint64(1)
            hits = np.nonzero(col)[0]
            if hits.size == 0:
                continue
            p = r + int(hits[0])
            if p != r:
                R[[r, p]] = R[[p, r]]
                T[[r, p]] = T[[p, r]]
            col_all = ((R[:, w] >> np.uint64(b)) & np.uint64(1)).astype(bool)
            col_all[r] = False
            idx = np.nonzero(col_all)[0]
            if idx.size:
                R[idx] ^= R[r]
                T[idx] ^= T[r]
            pivots.append(c)
            r += 1
        self.rank = r
        self.pivots = pivots
        self.R = R
        self.T = T
        self.twords = twords

    def _apply_T(self, b: np.ndarray) -> np.ndarray:
        b = (np.asarray(b).reshape(-1) & 1).astype(np.uint8)
        bw = np.zeros(self.twords, dtype=np.uint64)
        for i in np.nonzero(b)[0]:
            w, bit = divmod(int(i), 64)
            bw[w] ^= np.uint64(1) << np.uint64(bit)
        tb = np.bitwise_count(self.T & bw).sum(axis=1) & 1
        return tb.astype(np.uint8)

    def solve(self, b: np.ndarray):
        """One solution x (free variables zero), or None if infeasible."""
        tb = self._apply_T(b)
        if tb[self.rank :].any():
            return None
        x = np.zeros(self.n, dtype=np.uint8)
        for r, c in enumerate(self.pivots):
            x[c] = tb[r]
        return x


def gf2_extend_basis(T: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Rows of K that extend span(T) to span(T)+span(K), greedily in order.

    Row k of K is kept exactly when it is outside the span of T and of the
    rows of K before it, that is when its column of [T^T | K^T] is a pivot
    column, so one reduction finds them all.
    """
    K = (np.asarray(K) & 1).astype(np.uint8)
    T = (np.asarray(T) & 1).astype(np.uint8).reshape(-1, K.shape[1])
    _, pivots = gf2_rref(np.concatenate([T.T, K.T], axis=1))
    keep = [c - T.shape[0] for c in pivots if c >= T.shape[0]]
    return K[keep]
