"""Recursive spectral bisection of code lattices over fixed-size processors.

Clusters must satisfy (3/2)·|V_i| < n_qpu so that every data qubit fits on
its processor with headroom for check ancillas.  Edges inside a cluster are
local checks E_i; everything else is the non-local check set E'.  A
non-local check of colour c holds one Bell half on each end's processor
through the sub-rounds of colour c, so each cluster's data qubits plus its
Bell halves of any one colour must also fit in n_qpu.

Each bisection splits a cluster at the median of a Fiedler vector: one dense
``np.linalg.eigh`` of the cluster's Laplacian, then the projection of a seeded
Gaussian vector onto the eigenspace of λ₂.  The eigenspace holds every
eigenvalue within a relative _DEGENERATE_RTOL of λ₂, so a degenerate λ₂ (the
9×9 and 12×12 tori have multiplicity 6) gives a vector chosen by the seed,
not by the solver.  The dense Laplacian costs n² floats for an n-vertex
cluster, about 2 GB at n ≈ 16k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from floqnet.lattice import Lattice, _require_int

__all__ = [
    "Partition",
    "PartitionError",
    "partition_code",
    "partition_stats",
    "validate_partition",
]

# Eigenvalues within this relative distance of λ₂ count as λ₂.  It sits far
# above eigh's rounding (about 1e-15·λmax) and far below the gaps of the
# lattices' non-degenerate spectra.
_DEGENERATE_RTOL = 1e-8


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class Partition:
    clusters: tuple[tuple[frozenset, tuple[int, ...]], ...]  # (V_i, E_i)
    nonlocal_edges: tuple[int, ...]
    n_qpu: int

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def cluster_of(self, n_vertices: int) -> np.ndarray:
        out = np.full(n_vertices, -1, dtype=np.int64)
        for i, (verts, _) in enumerate(self.clusters):
            for v in verts:
                out[v] = i
        return out


def _adjacency(n_vertices: int, edges: Sequence[tuple[int, int]]) -> sp.csr_matrix:
    """Symmetric adjacency matrix; a repeated edge adds its multiplicity."""
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    return sp.csr_matrix(
        (np.ones(2 * len(u)), (np.r_[u, v], np.r_[v, u])),
        shape=(n_vertices, n_vertices),
    )


def _components(adj: sp.csr_matrix, idx: np.ndarray) -> list[np.ndarray]:
    """The vertices idx grouped by the connected components of adj[idx][:, idx]."""
    k, labels = connected_components(adj[idx][:, idx], directed=False)
    return [idx[labels == c] for c in range(k)]


def _fiedler_vector(adj: sp.csr_matrix, seed: int = 0) -> np.ndarray:
    """Unit vector in the graph Laplacian's λ₂ eigenspace.

    It is the normalised projection of ``default_rng(seed).standard_normal(n)``
    onto the eigenvectors whose eigenvalues lie within _DEGENERATE_RTOL·λ₂ of
    λ₂, so the seed picks the direction when λ₂ is degenerate.
    """
    n = adj.shape[0]
    if n < 2 or connected_components(adj, directed=False)[0] != 1:
        raise PartitionError("the Fiedler vector needs a connected graph on >= 2 vertices")
    deg = np.asarray(adj.sum(axis=1)).ravel()
    w, vecs = np.linalg.eigh((sp.diags(deg) - adj).toarray())
    space = vecs[:, 1 : 1 + np.count_nonzero(w[1:] - w[1] <= _DEGENERATE_RTOL * w[1])]
    f = space @ (space.T @ np.random.default_rng(seed).standard_normal(n))
    return f / np.linalg.norm(f)


def _spectral_bisect(adj: sp.csr_matrix, seed: int = 0) -> tuple[list[int], list[int]]:
    """Split vertices at the Fiedler median into parts differing by <= 1.

    The first part holds the n // 2 smallest computed Fiedler entries; only
    bitwise-equal entries keep ascending id order.  Ties in exact arithmetic
    are decided by rounding noise from ``eigh``, not by vertex ids.
    """
    n = adj.shape[0]
    if n == 2:
        return [0], [1]
    order = np.argsort(_fiedler_vector(adj, seed), kind="stable").tolist()
    return sorted(order[: n // 2]), sorted(order[n // 2 :])


def _edge_arrays(lattice: Lattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges' endpoints u and v and their colours (-1 for none), as
    int64 arrays."""
    uvc = [(e.u, e.v, -1 if e.color is None else e.color) for e in lattice.edges]
    return tuple(np.asarray(uvc, dtype=np.int64).reshape(-1, 3).T)


def _qubits_per_colour(edges, cluster: np.ndarray, nonlocal_edges) -> np.ndarray:
    """(clusters, 3): the qubits that cluster i holds in a sub-round of colour
    c, its data qubits plus one Bell half per end on it of a non-local edge
    of colour c, or of no colour yet.  edges is _edge_arrays' output,
    cluster[v] v's cluster."""
    u, v, colour = edges
    e = np.asarray(nonlocal_edges, dtype=np.int64)
    n_clusters = int(cluster.max()) + 1
    counts = np.zeros((n_clusters, 4), dtype=np.int64)  # colour -1 in column 3
    np.add.at(counts, (np.r_[cluster[u[e]], cluster[v[e]]], np.tile(colour[e], 2)), 1)
    data = np.bincount(cluster, minlength=n_clusters)[:, None]
    return counts[:, :3] + counts[:, 3:] + data


def partition_code(lattice: Lattice, n_qpu: int, seed: int = 0) -> Partition:
    """Recursive spectral bisection until every cluster fits its processor.

    A cluster fits when (3/2)|V_i| < n_qpu and its data qubits plus its
    Bell halves of each colour number at most n_qpu (see
    _qubits_per_colour).  Each cluster that does not fit is split at the
    median of its Fiedler vector (see the module docstring), and each half
    is split again into its connected components.  ``seed`` picks the
    direction of that vector inside a degenerate λ₂ eigenspace and changes
    nothing otherwise.  Every bisection solves a dense eigenproblem of the
    cluster's size, so memory grows as n² in the lattice's vertex count.
    """
    _require_int(n_qpu, PartitionError, f"n_qpu must be an integer, not {n_qpu!r}")
    if n_qpu < 5:
        raise PartitionError("n_qpu must be at least 5")
    all_edges = [(e.u, e.v) for e in lattice.edges]
    adj = _adjacency(lattice.n_vertices, all_edges)
    edges = _edge_arrays(lattice)

    def fits(idx: np.ndarray) -> bool:
        side = np.ones(lattice.n_vertices, dtype=np.int64)  # idx is cluster 0
        side[idx] = 0
        cut = np.flatnonzero(side[edges[0]] != side[edges[1]])
        return (
            3 * len(idx) < 2 * n_qpu
            and _qubits_per_colour(edges, side, cut)[0].max() <= n_qpu
        )

    done: list[np.ndarray] = []
    work = _components(adj, np.arange(lattice.n_vertices))
    while work:
        idx = work.pop()
        if fits(idx):
            done.append(idx)
            continue
        for half in _spectral_bisect(adj[idx][:, idx], seed=seed):
            work += _components(adj, idx[half])

    done.sort(key=lambda c: c[0])
    vert_cluster = np.empty(lattice.n_vertices, dtype=np.int64)
    for i, idx in enumerate(done):
        vert_cluster[idx] = i

    local: list[list[int]] = [[] for _ in done]
    nonlocal_edges = []
    for eid, (u, v) in enumerate(all_edges):
        cu, cv = vert_cluster[u], vert_cluster[v]
        if cu == cv:
            local[cu].append(eid)
        else:
            nonlocal_edges.append(eid)

    part = Partition(
        clusters=tuple(
            (frozenset(idx.tolist()), tuple(local[i])) for i, idx in enumerate(done)
        ),
        nonlocal_edges=tuple(nonlocal_edges),
        n_qpu=n_qpu,
    )
    validate_partition(lattice, part)
    return part


def validate_partition(lattice: Lattice, part: Partition) -> None:
    """Raise PartitionError unless the clusters are disjoint, cover the
    vertices, hold only internal edges, leave exactly the non-local edges
    and fit their processors (see partition_code)."""
    seen: set[int] = set()
    total = 0
    for verts, eids in part.clusters:
        if 3 * len(verts) >= 2 * part.n_qpu:
            raise PartitionError(
                f"cluster of size {len(verts)} violates (3/2)|V_i| < {part.n_qpu}"
            )
        total += len(verts)
        if seen & verts:
            raise PartitionError("clusters are not pairwise disjoint")
        seen |= verts
        for e in eids:
            edge = lattice.edges[e]
            if edge.u not in verts or edge.v not in verts:
                raise PartitionError(f"edge {e} is not internal to its cluster")
    if total != lattice.n_vertices or len(seen) != lattice.n_vertices:
        raise PartitionError("clusters do not cover the vertex set")
    local_all = {e for _, eids in part.clusters for e in eids}
    complement = set(range(len(lattice.edges))) - local_all
    if complement != set(part.nonlocal_edges):
        raise PartitionError("nonlocal edge set is not the complement of local edges")
    counts = _qubits_per_colour(
        _edge_arrays(lattice), part.cluster_of(lattice.n_vertices), part.nonlocal_edges
    )
    over = np.argwhere(counts > part.n_qpu)
    if over.size:
        i, c = over[0].tolist()
        raise PartitionError(
            f"cluster {i} holds {counts[i, c]} qubits in colour-{c} sub-rounds "
            f"(data qubits and Bell halves), more than n_qpu = {part.n_qpu}"
        )


def partition_stats(lattice: Lattice, part: Partition) -> dict:
    """Cluster census: sizes, non-local degrees, the most qubits each
    cluster holds in one sub-round and the planarity proxy."""
    validate_partition(lattice, part)
    sizes = sorted(len(v) for v, _ in part.clusters)
    hist: dict[int, int] = {}
    for s in sizes:
        hist[s] = hist.get(s, 0) + 1
    cluster_idx = part.cluster_of(lattice.n_vertices)
    nl_degree = [0] * len(part.clusters)
    for e in part.nonlocal_edges:
        edge = lattice.edges[e]
        nl_degree[cluster_idx[edge.u]] += 1
        nl_degree[cluster_idx[edge.v]] += 1
    planar_proxy = []
    for verts, eids in part.clusters:
        nv, ne = len(verts), len(eids)
        planar_proxy.append(True if nv < 3 else ne <= 3 * nv - 6)
    return {
        "n_clusters": len(part.clusters),
        "n_qpu": part.n_qpu,
        "cluster_sizes": sizes,
        "size_histogram": hist,
        "max_cluster_size": max(sizes),
        "n_nonlocal_edges": len(part.nonlocal_edges),
        "nonlocal_degree_per_cluster": nl_degree,
        "peak_qubits_per_cluster": _qubits_per_colour(
            _edge_arrays(lattice), cluster_idx, part.nonlocal_edges
        ).max(axis=1).tolist(),
        "planarity_proxy_ok": all(planar_proxy),
        "planarity_proxy_per_cluster": planar_proxy,
    }
