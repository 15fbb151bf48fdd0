import dataclasses
import itertools

import numpy as np
import pytest

from floqnet.lattice import Edge, generate_honeycomb_torus
from floqnet.partition import (
    Partition,
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


def test_partition_9x9_smallest_processors_hold_their_bell_halves():
    lat = generate_honeycomb_torus(9, 9)
    part = partition_code(lat, 16)
    cut = [lat.edges[e] for e in part.nonlocal_edges]
    peak = [
        len(verts)
        + max(sum((e.u in verts) + (e.v in verts) for e in cut if e.color == c)
              for c in range(3))
        for verts, _ in part.clusters
    ]
    assert partition_stats(lat, part)["peak_qubits_per_cluster"] == peak
    assert max(peak) <= 16


def test_uncoloured_edges_count_their_bell_halves_in_every_colour():
    lat = generate_honeycomb_torus(6, 6)
    bare = dataclasses.replace(lat, edges=tuple(Edge(e.u, e.v) for e in lat.edges))
    part = partition_code(bare, 16)
    cut = [bare.edges[e] for e in part.nonlocal_edges]
    every = [len(v) + sum((e.u in v) + (e.v in v) for e in cut) for v, _ in part.clusters]
    assert partition_stats(bare, part)["peak_qubits_per_cluster"] == every
    assert max(every) <= 16


def test_over_full_processor_names_cluster_colour_and_count():
    # one end of every colour-0 edge: 9 data qubits and 9 colour-0 Bell halves
    lat = generate_honeycomb_torus(3, 3)
    side = frozenset(e.u for e in lat.edges if e.color == 0)
    clusters = (side, frozenset(range(lat.n_vertices)) - side)
    local = [
        tuple(i for i, e in enumerate(lat.edges) if e.u in c and e.v in c)
        for c in clusters
    ]
    nonlocal_edges = tuple(sorted(set(range(len(lat.edges))) - {*local[0], *local[1]}))
    part = Partition(tuple(zip(clusters, local)), nonlocal_edges, n_qpu=17)
    with pytest.raises(PartitionError, match="cluster 0 holds 18 qubits in colour-0"):
        validate_partition(lat, part)
    validate_partition(lat, Partition(part.clusters, nonlocal_edges, n_qpu=18))


@pytest.mark.parametrize("n_qpu", [40.5, "40", True, None])
def test_partition_rejects_bad_nqpu(n_qpu):
    lat = generate_honeycomb_torus(3, 3)
    with pytest.raises(PartitionError):
        partition_code(lat, n_qpu)
