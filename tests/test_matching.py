import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqnet.matching import max_weight_matching


def _min_perfect(n, edges):
    """Minimum-weight perfect matching through max_weight_matching on the
    offset weights big - w: big makes every perfect matching outweigh every
    smaller one."""
    wmax = max([1] + [abs(w) for (_, _, w) in edges])
    big = 2 * n * wmax + 1
    mate = max_weight_matching(n, [(i, j, big - w) for (i, j, w) in edges])
    assert all(m != -1 for m in mate), "no perfect matching"
    return mate


def _brute_min_perfect(n, weights):
    """Exhaustive minimum-weight perfect matching over a dense int matrix."""
    verts = list(range(n))

    def rec(remaining):
        if not remaining:
            return 0, []
        first = remaining[0]
        best = None
        best_pairs = None
        for k in range(1, len(remaining)):
            other = remaining[k]
            w = weights[first][other]
            if w is None:
                continue
            rest = remaining[1:k] + remaining[k + 1 :]
            sub = rec(rest)
            if sub is None:
                continue
            cost, pairs = sub
            if best is None or w + cost < best:
                best = w + cost
                best_pairs = [(first, other)] + pairs
        if best is None:
            return None
        return best, best_pairs

    return rec(verts)


def _matching_cost(mate, weights):
    cost = 0
    for v, m in enumerate(mate):
        if m > v:
            cost += weights[v][m]
    return cost


def _random_complete(rng, n, wmax=100):
    weights = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = int(rng.integers(0, wmax))
            weights[i][j] = weights[j][i] = w
    edges = [(i, j, weights[i][j]) for i in range(n) for j in range(i + 1, n)]
    return weights, edges


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_exhaustive_small_complete(n):
    rng = np.random.default_rng(n)
    for trial in range(60):
        weights, edges = _random_complete(rng, n)
        mate = _min_perfect(n, edges)
        assert all(mate[mate[v]] == v and mate[v] != v for v in range(n))
        best, _ = _brute_min_perfect(n, weights)
        assert _matching_cost(mate, weights) == best


def test_sparse_with_infeasible():
    # path of 3 edges on 4 vertices has a unique perfect matching
    edges = [(0, 1, 5), (1, 2, 1), (2, 3, 5)]
    mate = _min_perfect(4, edges)
    assert mate == [1, 0, 3, 2]
    # a star and an odd vertex count leave vertices unmatched
    mate = max_weight_matching(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    assert mate.count(-1) == 2
    assert max_weight_matching(3, [(0, 1, 1)]) == [1, 0, -1]


def test_max_weight_does_not_force_cardinality():
    # the middle edge alone outweighs the two outer ones
    assert max_weight_matching(4, [(0, 1, 1), (1, 2, 3), (2, 3, 1)]) == [-1, 2, 1, -1]


def test_blossom_structure_triangle_pair():
    # two triangles joined by a bridge force odd-cycle handling
    edges = [
        (0, 1, 2),
        (1, 2, 2),
        (0, 2, 2),
        (2, 3, 1),
        (3, 4, 2),
        (4, 5, 2),
        (3, 5, 2),
    ]
    mate = _min_perfect(6, edges)
    assert all(mate[mate[v]] == v for v in range(6))
    cost = sum(w for (i, j, w) in edges if mate[i] == j and i < j)
    weights = [[None] * 6 for _ in range(6)]
    for i, j, w in edges:
        weights[i][j] = weights[j][i] = w
    best, _ = _brute_min_perfect(6, weights)
    assert cost == best


@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_matches_networkx_on_random_complete(half_n, seed):
    n = 2 * half_n
    rng = np.random.default_rng(seed)
    weights, edges = _random_complete(rng, n, wmax=50)
    mate = _min_perfect(n, edges)
    g = nx.Graph()
    big = 2 * n * 50 + 1
    for i, j, w in edges:
        g.add_edge(i, j, weight=big - w)
    ref = nx.max_weight_matching(g, maxcardinality=True)
    ref_cost = sum(weights[i][j] for i, j in ref)
    assert _matching_cost(mate, weights) == ref_cost


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.3, max_value=0.9),
)
@settings(max_examples=80, deadline=None)
def test_max_weight_matches_networkx_on_sparse(n_half, seed, density):
    n = 2 * n_half
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((i, j, int(rng.integers(1, 40))))
    if not edges:
        return
    mate = max_weight_matching(n, edges)
    got = sum(w for (i, j, w) in edges if 0 <= mate[i] == j and i < j)
    g = nx.Graph()
    for i, j, w in edges:
        g.add_edge(i, j, weight=w)
    ref = nx.max_weight_matching(g, maxcardinality=False)
    wmap = {(min(i, j), max(i, j)): w for i, j, w in edges}
    ref_w = sum(wmap[(min(i, j), max(i, j))] for i, j in ref)
    assert got == ref_w


def test_large_random_instance_against_networkx():
    rng = np.random.default_rng(123)
    n = 40
    weights, edges = _random_complete(rng, n, wmax=1000)
    mate = _min_perfect(n, edges)
    g = nx.Graph()
    big = 2 * n * 1000 + 1
    for i, j, w in edges:
        g.add_edge(i, j, weight=big - w)
    ref = nx.max_weight_matching(g, maxcardinality=True)
    ref_cost = sum(weights[i][j] for i, j in ref)
    assert _matching_cost(mate, weights) == ref_cost
