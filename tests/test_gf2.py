from hypothesis import given, settings
from hypothesis import strategies as st

from floqnet.gf2 import ColumnSolver, extend_basis, intersection, nullspace, rank, rref

from oracles import reference_extend_basis, reference_span


@st.composite
def _rows(draw, n, max_rows=8):
    """Int rows over n columns that repeat rows and sums of rows, so that
    they are often rank-deficient."""
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_rows))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if rows:
            picks = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
            row = 0
            for r in picks:
                row ^= r
            rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


_n = st.integers(min_value=1, max_value=12)


def _pivot(r: int) -> int:
    return (r & -r).bit_length() - 1


def _rank(rows) -> int:
    return len(reference_span(rows)).bit_length() - 1


@given(_n.flatmap(lambda n: st.tuples(_rows(n), st.randoms())))
@settings(max_examples=200, deadline=None)
def test_rref_is_canonical_with_the_same_span(case):
    rows, rnd = case
    R = rref(rows)
    assert reference_span(R) == reference_span(rows)
    assert len(R) == _rank(rows) == rank(rows)
    pivots = [_pivot(r) for r in R]
    assert pivots == sorted(set(pivots))
    for p, r in zip(pivots, R):
        assert [q for q in pivots if r >> q & 1] == [p]
    # another generating set of the same span reduces to the same rows
    other = list(R) + [a ^ b for a, b in zip(R, R[1:])]
    rnd.shuffle(other)
    assert rref(other) == R


@given(_n.flatmap(lambda n: st.tuples(st.just(n), _rows(n))))
@settings(max_examples=200, deadline=None)
def test_nullspace_is_a_basis_of_the_kernel(case):
    n, rows = case
    N = nullspace(rows, n)
    assert all(v < 1 << n for v in N)
    assert all((r & v).bit_count() % 2 == 0 for r in rows for v in N)
    assert len(N) == n - _rank(rows) == _rank(N)
    kernel = {x for x in range(1 << n) if all((r & x).bit_count() % 2 == 0 for r in rows)}
    assert reference_span(N) == kernel


@given(_n.flatmap(lambda n: st.tuples(st.just(n), _rows(n), _rows(n))))
@settings(max_examples=200, deadline=None)
def test_intersection_is_the_common_span(case):
    n, A, B = case
    got = intersection(A, B, n)
    assert reference_span(got) == reference_span(A) & reference_span(B)
    assert got == rref(got)


@given(_n.flatmap(lambda n: st.tuples(_rows(n, 6), _rows(n))))
@settings(max_examples=200, deadline=None)
def test_extend_basis_matches_greedy_rank_loop(case):
    T, K = case
    assert extend_basis(T, K) == reference_extend_basis(T, K)


def test_extend_basis_with_no_rows_in_t():
    K = [0b011, 0b011, 0b110, 0b101]
    assert extend_basis([], K) == [0b011, 0b110]
    assert extend_basis([], K[:1]) == [0b011]


@given(
    _n.flatmap(
        lambda m: st.tuples(_rows(m), st.lists(st.integers(0, (1 << m) - 1), max_size=6))
    )
)
@settings(max_examples=200, deadline=None)
def test_solve_uses_only_independent_columns(case):
    cols, targets = case
    span = reference_span(cols)
    dependent = 0
    for j, c in enumerate(cols):
        if c in reference_span(cols[:j]):
            dependent |= 1 << j
    solver = ColumnSolver(cols)
    for b in targets + cols + [0]:
        x = solver.solve(b)
        assert (x is not None) == (b in span)
        if x is None:
            continue
        assert x < 1 << len(cols) and not x & dependent
        total = 0
        for j, c in enumerate(cols):
            if x >> j & 1:
                total ^= c
        assert total == b
