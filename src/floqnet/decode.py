"""Minimum-weight perfect-matching decoding of detector syndromes.

Defects (odd detectors) are paired along shortest paths of the decoding
graph; the predicted observable flip is the XOR of edge masks along the
matched paths.  Edge weights are log-likelihood ratios scaled to integers,
so the blossom solver's optimality is exact rather than floating-point.

The pairing is exact over all defect pairs.  One Dijkstra from every defect
and from a virtual boundary gives every distance, and one minimum-weight
perfect matching is solved on the defects and their boundary images.
Single-detector mechanisms (the experiment's time boundaries) end at the
virtual boundary: a defect may match its own image at its boundary
distance, and images pair off among themselves at zero cost.  A pair with
no connecting path gets no edge, so a defect set that cannot be fully
paired (odd parity in a component without boundary edges) raises
``DecodeError``, matching the closed-surface contract.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from floqnet.matching import MatchingInfeasibleError, min_weight_perfect_matching
from floqnet.sim import DecodingGraph, ShotBatch

__all__ = [
    "MatchingResult",
    "DecodeError",
    "DecoderContext",
    "decode_syndrome",
    "decode_batch",
    "shortest_graphlike_error",
]

_WEIGHT_SCALE_BITS = 20


class DecodeError(ValueError):
    pass


@dataclass
class MatchingResult:
    prediction: np.ndarray  # uint8 per observable
    matched_pairs: tuple[tuple[int, int], ...]  # (-1, d) marks a boundary match
    total_weight: float


class DecoderContext:
    """Precomputed geometry of a decoding graph, shared across shots."""

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        self.n_det = graph.n_detectors
        self.n_obs = graph.n_observables
        self.boundary = self.n_det

        w = graph.weights
        wmax = float(w.max()) if len(w) else 1.0
        self.scale = (1 << _WEIGHT_SCALE_BITS) / max(wmax, 1e-12)
        iw = np.maximum(1, np.round(w * self.scale).astype(np.int64))

        best: dict[tuple[int, int], tuple[int, int]] = {}
        for idx in range(graph.n_edges):
            a = int(graph.det1[idx])
            b = int(graph.det2[idx])
            if a < 0:
                continue
            if b < 0:
                b = self.boundary
            key = (min(a, b), max(a, b))
            cand = (int(iw[idx]), int(graph.obs_mask[idx]))
            if key not in best or cand[0] < best[key][0]:
                best[key] = cand
        self.edge_weight = {k: v[0] for k, v in best.items()}
        self.edge_mask = {k: v[1] for k, v in best.items()}

        n_nodes = self.n_det + 1
        rows, cols, vals = [], [], []
        for (a, b), wgt in self.edge_weight.items():
            rows += [a, b]
            cols += [b, a]
            vals += [wgt, wgt]
        self.csr = sp.csr_matrix(
            (vals, (rows, cols)), shape=(n_nodes, n_nodes), dtype=np.float64
        )

    def distances_from(self, defects: np.ndarray):
        """Dijkstra from each defect and, last, from the virtual boundary.

        Returns (dist, pred), each with one row per source.  Distances are
        sums of integer edge weights, exact in float64.
        """
        src = np.concatenate([defects, [self.boundary]]).astype(np.int64)
        return csgraph.dijkstra(
            self.csr, directed=False, indices=src, return_predecessors=True
        )

    def path_mask(self, pred_row: np.ndarray, target: int) -> int:
        mask = 0
        node = target
        while True:
            prev = pred_row[node]
            if prev < 0:
                break
            key = (min(node, int(prev)), max(node, int(prev)))
            mask ^= self.edge_mask[key]
            node = int(prev)
        return mask


def _match_defects(ctx: DecoderContext, defects: np.ndarray):
    """Exact minimum-weight pairing of the defects, boundary included.

    Vertex i of the matching graph is defect i and vertex m + i its
    boundary image.  Edges: defect-defect at the shortest-path weight,
    defect-own image at the boundary distance, each where a path exists,
    and image-image at weight 0.  Returns (matches, dist, pred): matches
    lists (i, j) with i < j, where j < m is a defect and j == m the
    boundary; dist[j, defects[i]] is the match's integer weight and
    pred[j] the shortest-path tree that traces it.

    Raises MatchingInfeasibleError when no perfect matching exists.
    """
    m = len(defects)
    dist, pred = ctx.distances_from(defects)
    d = dist[:, defects].tolist()  # d[j][i]: from defect j (boundary if j == m) to i
    pairs = list(itertools.combinations(range(m), 2))
    edges = [(i, j, int(d[i][j])) for i, j in pairs if math.isfinite(d[i][j])]
    edges += [(i, m + i, int(d[m][i])) for i in range(m) if math.isfinite(d[m][i])]
    edges += [(m + i, m + j, 0) for i, j in pairs]
    mate = min_weight_perfect_matching(2 * m, edges)
    matches = [(i, min(mate[i], m)) for i in range(m) if mate[i] > i]
    return matches, dist, pred


def decode_syndrome(
    graph: DecodingGraph,
    syndrome: np.ndarray,
    context: DecoderContext | None = None,
) -> MatchingResult:
    """Match the syndrome's defects and predict the observable flips."""
    ctx = context or DecoderContext(graph)
    syndrome = np.asarray(syndrome).astype(bool)
    if syndrome.shape[0] != ctx.n_det:
        raise DecodeError("syndrome length does not match detector count")
    defects = np.nonzero(syndrome)[0]
    if len(defects) == 0:
        return MatchingResult(
            prediction=np.zeros(ctx.n_obs, dtype=np.uint8),
            matched_pairs=(),
            total_weight=0.0,
        )
    if graph.n_edges == 0:
        raise DecodeError("nonempty syndrome on an empty decoding graph")
    try:
        matches, dist, pred = _match_defects(ctx, defects)
    except MatchingInfeasibleError as exc:
        raise DecodeError(
            f"odd defect parity in a connected component: {exc}"
        ) from exc

    m = len(defects)
    mask_total = 0
    pairs = []
    weight = 0
    for i, j in matches:
        target = int(defects[i])
        mask_total ^= ctx.path_mask(pred[j], target)
        weight += int(dist[j, target])
        pairs.append((target, int(defects[j])) if j < m else (-1, target))
    prediction = np.zeros(ctx.n_obs, dtype=np.uint8)
    for k in range(ctx.n_obs):
        prediction[k] = (mask_total >> k) & 1
    return MatchingResult(
        prediction=prediction,
        matched_pairs=tuple(sorted(pairs)),
        total_weight=weight / ctx.scale,
    )


def decode_batch(
    graph: DecodingGraph,
    batch: ShotBatch,
    context: DecoderContext | None = None,
):
    """Decode every shot; returns (predictions, per-observable error counts).

    Identical syndromes are decoded once and reused; shot order does not
    affect any count.
    """
    ctx = context or DecoderContext(graph)
    if batch.detectors.shape[1] != ctx.n_det:
        raise DecodeError("batch detector width does not match the graph")
    if batch.observables.shape[1] != ctx.n_obs:
        raise DecodeError("batch observable width does not match the graph")
    preds = np.zeros((batch.shots, ctx.n_obs), dtype=np.uint8)
    cache: dict[bytes, np.ndarray] = {}
    for s in range(batch.shots):
        key = batch.detectors[s].tobytes()
        hit = cache.get(key)
        if hit is None:
            hit = decode_syndrome(graph, batch.detectors[s], ctx).prediction
            cache[key] = hit
        preds[s] = hit
    errors = (preds != batch.observables).sum(axis=0)
    return preds, errors


# ---------------------------------------------------------------------------
# graph-like distance


def shortest_graphlike_error(graph: DecodingGraph) -> int:
    """Minimum number of mechanisms with empty syndrome and odd observable.

    Computed per observable on the parity-doubled mechanism graph (virtual
    boundary included): the answer is the shortest cycle whose accumulated
    observable parity is odd, minimised over observables.
    """
    if graph.n_observables < 1:
        raise DecodeError("graph has no observable")
    if graph.n_edges == 0:
        raise DecodeError("empty decoding graph")
    boundary = graph.n_detectors
    n_nodes = graph.n_detectors + 1

    undetectable = (graph.det1 < 0) & (graph.obs_mask.astype(np.int64) != 0)
    if undetectable.any():
        raise DecodeError("mechanism flips an observable but no detector")

    best = None
    for k in range(graph.n_observables):
        rows, cols = [], []
        odd_endpoints = set()
        for idx in range(graph.n_edges):
            a = int(graph.det1[idx])
            if a < 0:
                continue
            b = int(graph.det2[idx])
            if b < 0:
                b = boundary
            parity = (int(graph.obs_mask[idx]) >> k) & 1
            if parity:
                rows += [a, a + n_nodes]
                cols += [b + n_nodes, b]
                odd_endpoints.add(a)
            else:
                rows += [a, a + n_nodes]
                cols += [b, b + n_nodes]
        if not odd_endpoints:
            continue
        vals = np.ones(len(rows), dtype=np.int8)
        doubled = sp.csr_matrix(
            (vals, (rows, cols)), shape=(2 * n_nodes, 2 * n_nodes)
        )
        doubled = doubled + doubled.T
        for u in sorted(odd_endpoints):
            dist = csgraph.dijkstra(
                doubled,
                directed=False,
                indices=u,
                unweighted=True,
                limit=(best - 1) if best is not None else np.inf,
            )
            d = dist[u + n_nodes]
            if np.isfinite(d) and (best is None or d < best):
                best = int(d)
    if best is None:
        raise DecodeError("no undetectable observable-flipping set exists")
    return int(best)
