import itertools

import numpy as np
import pytest

from floqnet.lattice import generate_honeycomb_torus
from floqnet.partition import (
    PartitionError,
    _adjacency,
    _fiedler_vector,
    _spectral_bisect,
    partition_code,
    partition_stats,
    validate_partition,
)


def _laplacian(n, edges):
    L = np.zeros((n, n))
    for u, v in edges:
        L[u, v] -= 1
        L[v, u] -= 1
        L[u, u] += 1
        L[v, v] += 1
    return L


def _dense_fiedler(n, edges):
    return np.linalg.eigh(_laplacian(n, edges))


def test_fiedler_path4_sign_pattern():
    edges = [(0, 1), (1, 2), (2, 3)]
    f = _fiedler_vector(_adjacency(4, edges))
    w, V = _dense_fiedler(4, edges)
    dense = V[:, 1]
    # align global sign and compare
    if np.sign(dense[0]) != np.sign(f[0]):
        dense = -dense
    assert np.allclose(np.abs(f), np.abs(dense), atol=1e-6)
    signs = np.sign(f)
    assert signs[0] == signs[1] and signs[2] == signs[3] and signs[0] != signs[2]


def test_fiedler_k4_degenerate_residual():
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    f = _fiedler_vector(_adjacency(4, edges))
    L = _laplacian(4, edges)
    lam = f @ (L @ f)
    assert abs(f.sum()) < 1e-7
    assert np.linalg.norm(L @ f - lam * f) <= 1e-7
    assert abs(np.linalg.norm(f) - 1) < 1e-9


def test_fiedler_two_triangles_split():
    # triangles {0,1,2} and {3,4,5} joined by edge (2,3)
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    f = _fiedler_vector(_adjacency(6, edges))
    assert set(np.sign(f[:3])) != set(np.sign(f[3:])) or (
        np.sign(f[0]) == np.sign(f[1]) == np.sign(f[2])
        and np.sign(f[3]) == np.sign(f[4]) == np.sign(f[5])
        and np.sign(f[0]) != np.sign(f[3])
    )
    left, right = _spectral_bisect(_adjacency(6, edges))
    assert sorted(map(len, (left, right))) == [3, 3]
    assert set(left) in ({0, 1, 2}, {3, 4, 5})


def test_fiedler_rejects_disconnected():
    with pytest.raises(PartitionError):
        _fiedler_vector(_adjacency(4, [(0, 1), (2, 3)]))


def test_bisect_single_edge():
    assert _spectral_bisect(_adjacency(2, [(0, 1)])) == ([0], [1])


def test_bisect_path4():
    left, right = _spectral_bisect(_adjacency(4, [(0, 1), (1, 2), (2, 3)]))
    assert (left, right) == ([0, 1], [2, 3]) or (left, right) == ([2, 3], [0, 1])


def test_bisect_honeycomb_balanced_and_near_optimal_cut():
    lat = generate_honeycomb_torus(3, 3)
    edges = [(e.u, e.v) for e in lat.edges]
    left, right = _spectral_bisect(_adjacency(lat.n_vertices, edges))
    assert sorted(map(len, (left, right))) == [9, 9]
    cut = sum(1 for u, v in edges if (u in set(left)) != (v in set(left)))
    # exhaustive minimum over all balanced bipartitions; the spectral split
    # is a heuristic, so require the cut to be within 2x of optimal
    best = min(
        sum(1 for u, v in edges if (u in combo) != (v in combo))
        for combo in map(set, itertools.combinations(range(18), 9))
    )
    assert best <= cut <= 2 * best


def test_partition_small_lattice_single_cluster():
    lat = generate_honeycomb_torus(3, 3)
    part = partition_code(lat, 32)
    assert part.n_clusters == 1
    assert part.nonlocal_edges == ()
    stats = partition_stats(lat, part)
    assert stats["n_nonlocal_edges"] == 0


def test_partition_honeycomb_forced_split():
    lat = generate_honeycomb_torus(3, 3)
    part = partition_code(lat, 16)  # capacity |V_i| <= 10
    assert all(len(v) <= 10 for v, _ in part.clusters)
    validate_partition(lat, part)
    # cut size of any bisection-derived partition equals recount
    stats = partition_stats(lat, part)
    recount = sum(
        1
        for e in lat.edges
        if not any(e.u in v and e.v in v for v, _ in part.clusters)
    )
    assert stats["n_nonlocal_edges"] == recount


def test_partition_determinism():
    lat = generate_honeycomb_torus(6, 3)
    p1 = partition_code(lat, 16, seed=7)
    p2 = partition_code(lat, 16, seed=7)
    assert p1 == p2
    p3 = partition_code(lat, 16, seed=8)
    validate_partition(lat, p3)


def test_partition_rejects_small_nqpu():
    lat = generate_honeycomb_torus(3, 3)
    with pytest.raises(PartitionError):
        partition_code(lat, 4)


def test_partition_planarity_proxy():
    lat = generate_honeycomb_torus(6, 6)
    part = partition_code(lat, 32)
    stats = partition_stats(lat, part)
    assert stats["planarity_proxy_ok"]


def test_fiedler_vector_spans_degenerate_eigenspace():
    lat = generate_honeycomb_torus(9, 9)
    edges = [(e.u, e.v) for e in lat.edges]
    L = _laplacian(lat.n_vertices, edges)
    w = np.linalg.eigvalsh(L)
    assert np.allclose(w[1:7], w[1]) and w[7] - w[1] > 1e-3  # lambda_2 six-fold
    adj = _adjacency(lat.n_vertices, edges)
    f = _fiedler_vector(adj, seed=0)
    assert abs(np.linalg.norm(f) - 1) < 1e-12
    assert np.linalg.norm(L @ f - w[1] * f) <= 1e-8 * w[-1]
    assert np.array_equal(f, _fiedler_vector(adj, seed=0))
    assert not np.allclose(np.abs(f), np.abs(_fiedler_vector(adj, seed=1)))


@pytest.mark.parametrize("L", [6, 9, 12, 15, 18])
def test_partition_grid(L):
    lat = generate_honeycomb_torus(L, L)
    for n_qpu in (16, 20, 24, 28, 30, 32, 36, 40, 48, 56, 64, 80, 96, 112, 128):
        validate_partition(lat, partition_code(lat, n_qpu))


def test_partition_12x12_smallest_processors():
    lat = generate_honeycomb_torus(12, 12)
    stats = partition_stats(lat, partition_code(lat, 16))
    assert stats["max_cluster_size"] <= 10
    assert sum(stats["cluster_sizes"]) == lat.n_vertices


@pytest.mark.parametrize("n_qpu", [40.5, "40", True, None])
def test_partition_rejects_bad_nqpu(n_qpu):
    lat = generate_honeycomb_torus(3, 3)
    with pytest.raises(PartitionError):
        partition_code(lat, n_qpu)
