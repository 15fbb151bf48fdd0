"""GF(2) linear algebra on Python-int bit rows.

Layout: a vector over n columns is a Python int whose bit c is column c,
and a matrix is a list of them.  A row takes about n/8 bytes, and a row
operation is one XOR of two ints.

Every reduction goes through one lowest-bit basis {pivot: (row, combo)}:
the pivot of a row is its lowest set bit, no two rows share one, and combo
records which inputs a row combines.  rref returns the reduced row echelon
form, which is canonical: every generating set of a span gives the same
rows.
"""

from __future__ import annotations

__all__ = [
    "bits", "rref", "rank", "nullspace", "intersection", "extend_basis", "ColumnSolver"
]


def bits(v: int):
    """Indices of the set bits of v, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _insert(basis: dict, v: int, combo: int = 0) -> int:
    """Reduce v by the basis, XORing the combos used into combo, and store
    what is left under its pivot.  Returns what is left, 0 if v was in the
    span."""
    while v:
        p = (v & -v).bit_length() - 1
        if p not in basis:
            basis[p] = (v, combo)
            return v
        row, c = basis[p]
        v ^= row
        combo ^= c
    return 0


def _basis(rows) -> dict:
    basis: dict = {}
    for r in rows:
        _insert(basis, r)
    return basis


def rref(rows) -> list[int]:
    """Reduced row echelon form of span(rows): one row per pivot, pivots
    ascending, each pivot column set in its own row only."""
    basis = _basis(rows)
    pivot_mask = sum(1 << p for p in basis)
    out: dict[int, int] = {}
    # the other pivots of row p lie above p and are reduced already, and
    # XORing a reduced row clears its own pivot only
    for p in sorted(basis, reverse=True):
        r = basis[p][0]
        for q in bits((r & pivot_mask) ^ (1 << p)):
            r ^= out[q]
        out[p] = r
    return [out[p] for p in sorted(out)]


def rank(rows) -> int:
    return len(_basis(rows))


def nullspace(rows, n: int) -> list[int]:
    """Basis of {x : row · x = 0 for every row} over n columns: for each
    free column c, ascending, the vector set at c and at the pivot of every
    rref row that has column c."""
    R = rref(rows)
    pivots = {(r & -r).bit_length() - 1 for r in R}
    free = {c: 1 << c for c in range(n) if c not in pivots}
    for r in R:
        low = r & -r
        for c in bits(r ^ low):
            free[c] |= low
    return list(free.values())


def intersection(A, B, n: int) -> list[int]:
    """rref of span(A) ∩ span(B) over n columns (Zassenhaus).  The rows
    a | a << n and b span {(a ^ b) | a << n}; the rows of its rref with no
    bit below n are x << n for the rows x of the intersection's rref."""
    R = rref([a | a << n for a in A] + list(B))
    return [r >> n for r in R if not r & ((1 << n) - 1)]


def extend_basis(T, K) -> list[int]:
    """Rows of K that extend span(T) to span(T) + span(K), greedily: row k
    is kept when it lies outside the span of T and the rows of K before it."""
    basis = _basis(T)
    return [k for k in K if _insert(basis, k)]


class ColumnSolver:
    """Solves A x = b over GF(2) for many b, where A is given as one int
    per column (bit i is row i).

    The columns go into one lowest-bit basis in order, each with the set of
    columns it combines, so only the greedy independent columns enter, and
    solve returns the unique solution that is zero on every other column.
    """

    def __init__(self, columns):
        self._basis: dict = {}
        for j, col in enumerate(columns):
            _insert(self._basis, col, 1 << j)

    def solve(self, b: int) -> int | None:
        """The set of columns summing to b, as an int, or None when b is
        outside the column span."""
        x = 0
        while b:
            hit = self._basis.get((b & -b).bit_length() - 1)
            if hit is None:
                return None
            b ^= hit[0]
            x ^= hit[1]
        return x
