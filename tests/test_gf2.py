import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from floqnet.gf2 import gf2_extend_basis

from oracles import reference_extend_basis


@st.composite
def _spans(draw):
    """(T, K) over n columns: T may have no rows, and K repeats rows and
    sums of rows of T and of itself, so that it is often rank-deficient."""
    n = draw(st.integers(min_value=1, max_value=12))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    T = np.array(draw(st.lists(bits, max_size=6)), dtype=np.uint8).reshape(-1, n)
    K = [np.array(r, dtype=np.uint8) for r in draw(st.lists(bits, max_size=8))]
    pool = list(T) + K
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if pool:
            picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=3))
            row = np.bitwise_xor.reduce([pool[i] for i in picks])
            K.insert(draw(st.integers(0, len(K))), row)
    return T, np.array(K, dtype=np.uint8).reshape(-1, n)


@given(_spans())
@settings(max_examples=200, deadline=None)
def test_extend_basis_matches_greedy_rank_loop(spans):
    T, K = spans
    got = gf2_extend_basis(T, K)
    want = reference_extend_basis(T, K)
    assert got.dtype == np.uint8
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_extend_basis_with_no_rows_in_t():
    K = np.array([[1, 1, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    assert gf2_extend_basis(np.zeros((0, 3), dtype=np.uint8), K).tolist() == [
        [1, 1, 0],
        [0, 1, 1],
    ]
    assert gf2_extend_basis(np.zeros(0, dtype=np.uint8), K[:1]).tolist() == [[1, 1, 0]]
