"""Recursive spectral bisection of code lattices over fixed-size processors.

Clusters must satisfy (3/2)·|V_i| < n_qpu so that every data qubit fits on
its processor with headroom for check ancillas.  Edges inside a cluster are
local checks E_i; everything else is the non-local check set E'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from floqnet.lattice import Lattice

__all__ = [
    "Partition",
    "PartitionError",
    "EigensolverError",
    "fiedler_vector",
    "spectral_bisect",
    "partition_code",
    "partition_stats",
    "validate_partition",
]


class PartitionError(ValueError):
    pass


class EigensolverError(RuntimeError):
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


def _connected_components(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def fiedler_vector(
    n_vertices: int,
    edges: Sequence[tuple[int, int]],
    seed: int = 0,
    tol: float = 1e-8,
) -> np.ndarray:
    """Unit eigenvector of the graph Laplacian's second-smallest eigenvalue.

    Shifted inverse power iteration with the all-ones vector deflated at
    every step; converges when the Laplacian residual drops below ``tol``
    (scaled by the maximum degree).  Raises EigensolverError after 10·|V|
    iterations without convergence.
    """
    if n_vertices < 2:
        raise PartitionError("fiedler vector requires at least 2 vertices")
    if len(_connected_components(n_vertices, edges)) != 1:
        raise PartitionError("fiedler vector is undefined on disconnected graphs")

    rows, cols, vals = [], [], []
    deg = np.zeros(n_vertices)
    for u, v in edges:
        rows += [u, v]
        cols += [v, u]
        vals += [-1.0, -1.0]
        deg[u] += 1
        deg[v] += 1
    L = sp.csc_matrix(
        (
            vals + list(deg),
            (rows + list(range(n_vertices)), cols + list(range(n_vertices))),
        ),
        shape=(n_vertices, n_vertices),
    )
    sigma = 1e-6 * max(1.0, float(deg.max()))
    solver = spla.splu((L + sigma * sp.identity(n_vertices, format="csc")).tocsc())

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n_vertices)
    v -= v.mean()
    nrm = np.linalg.norm(v)
    if nrm == 0:
        v = np.arange(n_vertices) - (n_vertices - 1) / 2.0
        nrm = np.linalg.norm(v)
    v /= nrm

    max_iter = 10 * n_vertices
    for _ in range(max_iter):
        w = solver.solve(v)
        w -= w.mean()
        nrm = np.linalg.norm(w)
        if nrm == 0:
            raise EigensolverError("inverse iteration collapsed to zero")
        v = w / nrm
        lam = float(v @ (L @ v))
        resid = np.linalg.norm(L @ v - lam * v)
        if resid <= tol * max(1.0, float(deg.max())):
            return v
    raise EigensolverError(
        f"inverse power iteration did not reach residual {tol} in {max_iter} steps"
    )


def spectral_bisect(
    n_vertices: int,
    edges: Sequence[tuple[int, int]],
    seed: int = 0,
) -> tuple[list[int], list[int]]:
    """Split vertices at the Fiedler median into parts differing by <= 1.

    Vertices tied at the median go to the smaller (first) part in ascending
    id order.
    """
    if n_vertices == 2:
        return [0], [1]
    f = fiedler_vector(n_vertices, edges, seed=seed)
    order = sorted(range(n_vertices), key=lambda i: (f[i], i))
    cut = n_vertices // 2
    return sorted(order[:cut]), sorted(order[cut:])


def partition_code(lattice: Lattice, n_qpu: int, seed: int = 0) -> Partition:
    """Recursive spectral bisection until (3/2)|V_i| < n_qpu everywhere.

    Disconnected intermediate clusters are split into their connected
    components before further bisection.
    """
    if n_qpu < 5:
        raise PartitionError("n_qpu must be at least 5")
    all_edges = [(e.u, e.v) for e in lattice.edges]
    work = _connected_components(lattice.n_vertices, all_edges)
    covered = sum(len(c) for c in work)
    if covered != lattice.n_vertices:
        raise PartitionError("lattice has isolated vertices")

    done: list[list[int]] = []
    while work:
        cluster = work.pop()
        if 3 * len(cluster) < 2 * n_qpu:
            done.append(cluster)
            continue
        index = {v: i for i, v in enumerate(cluster)}
        sub_edges = [
            (index[u], index[v]) for u, v in all_edges if u in index and v in index
        ]
        left, right = spectral_bisect(len(cluster), sub_edges, seed=seed)
        for part in (left, right):
            verts = [cluster[i] for i in part]
            inpart = [False] * len(cluster)
            for i in part:
                inpart[i] = True
            relabel = {v: i for i, v in enumerate(part)}
            comp_edges = [
                (relabel[u], relabel[v])
                for u, v in sub_edges
                if inpart[u] and inpart[v]
            ]
            for comp in _connected_components(len(verts), comp_edges):
                work.append(sorted(verts[i] for i in comp))

    done.sort(key=lambda c: c[0])
    vert_cluster: dict[int, int] = {}
    for i, verts in enumerate(done):
        for v in verts:
            vert_cluster[v] = i

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
            (frozenset(verts), tuple(local[i])) for i, verts in enumerate(done)
        ),
        nonlocal_edges=tuple(nonlocal_edges),
        n_qpu=n_qpu,
    )
    validate_partition(lattice, part)
    return part


def validate_partition(lattice: Lattice, part: Partition) -> None:
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


def partition_stats(lattice: Lattice, part: Partition) -> dict:
    """Cluster census: sizes, non-local degrees and the planarity proxy."""
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
        "planarity_proxy_ok": all(planar_proxy),
        "planarity_proxy_per_cluster": planar_proxy,
    }
