"""Minimum-weight matching decoding of detector syndromes.

Defects (odd detectors) are paired along shortest paths of the decoding
graph; the predicted observable flip is the XOR of edge masks along the
matched paths.  Edge weights are log-likelihood ratios scaled to integers,
so the blossom solver's optimality is exact rather than floating-point.

``DecoderContext`` computes the geometry once per graph.  One Dijkstra from
every detector and from a virtual boundary, which ends single-detector
mechanisms (the experiment's time boundaries), fills an all-pairs distance
table; one sweep of each shortest-path tree fills a table of the observable
mask along every path.  Each table has (n_detectors + 1)² entries, float64
and the smallest unsigned type that holds a mask: 1.9 MB in all for the 459
detectors of a 9×9 torus at R = 3, 0.9 GB for 10⁴ detectors; building
them takes about 22 bytes per entry.

Each shot solves one exact maximum-weight matching on its defects alone;
the defects it leaves unmatched go to the boundary.  With b(i) defect i's
boundary distance, pairing i with j instead of sending both to the
boundary gains b(i) + b(j) - d(i, j), so the pairs where d is finite and
that gain is positive are the edges, at the gain as weight; no other pair
can beat the boundary.  A defect with no boundary path gets b = big, more
than the sum of every finite entry of the shot's distance table, so it is
left unmatched only when no pairing covers it.  Such a defect set (odd
parity in a component without boundary edges) raises ``DecodeError``,
matching the closed-surface contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from floqnet.matching import max_weight_matching
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
    """All-pairs shortest-path tables of a decoding graph, shared across shots.

    Node ``n_det`` is the boundary.  ``dist[r, v]`` is the integer weight of
    a shortest path from r to v (inf where none exists; exact in float64),
    and ``mask[r, v]`` the observable mask along the path that r's
    shortest-path tree traces to v.  Actual weights are ``dist / scale``.
    It keeps its graph: the decoders raise DecodeError given another one.
    """

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        self.n_det = graph.n_detectors
        self.n_obs = graph.n_observables
        n = self.n_det + 1

        w = graph.weights
        wmax = float(w.max()) if len(w) else 1.0
        self.scale = (1 << _WEIGHT_SCALE_BITS) / max(wmax, 1e-12)
        iw = np.maximum(1, np.round(w * self.scale).astype(np.int64))

        # the lightest edge per node pair; on equal weight the first in
        # graph order (lexsort is stable)
        keep = graph.det1 >= 0
        a = graph.det1[keep].astype(np.int64)
        b = graph.det2[keep].astype(np.int64)
        b[b < 0] = self.n_det
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = lo * n + hi
        order = np.lexsort((iw[keep], key))
        first = order[np.diff(key[order], prepend=-1) != 0]
        lo, hi, wgt = lo[first], hi[first], iw[keep][first].astype(np.float64)
        csr = sp.csr_matrix(
            (np.r_[wgt, wgt], (np.r_[lo, hi], np.r_[hi, lo])), shape=(n, n)
        )
        self.dist, pred = csgraph.dijkstra(csr, directed=False, return_predecessors=True)

        # mask[r, v] = mask[r, pred[r, v]] ^ edge_mask[pred[r, v], v], in
        # distance order so that every predecessor is done first (weights
        # are >= 1); sources and unreached nodes keep mask 0
        dtype = np.min_scalar_type((1 << self.n_obs) - 1)
        edge_mask = np.zeros((n, n), dtype=dtype)
        edge_mask[lo, hi] = edge_mask[hi, lo] = graph.obs_mask[keep][first]
        self.mask = np.zeros((n, n), dtype=dtype)
        rows = np.arange(n)
        for v in np.argsort(self.dist, axis=1).T:
            p = pred[rows, v]
            q = np.maximum(p, 0)
            self.mask[rows, v] = np.where(
                p >= 0, self.mask[rows, q] ^ edge_mask[q, v], 0
            )


def _check_bits(a: np.ndarray) -> np.ndarray:
    """a as an integer array, or DecodeError if an entry is not 0 or 1.

    Integer and bool arrays are returned as they are, after one min/max
    pass; any other dtype is compared entry by entry and cast to uint8.
    """
    if a.dtype.kind not in "biu":
        if not np.isin(a, (0, 1)).all():
            raise DecodeError("detector values must be 0 or 1")
        return a.astype(np.uint8)
    if a.size and (a.min() < 0 or a.max() > 1):
        raise DecodeError("detector values must be 0 or 1")
    return a


def _match_defects(d: np.ndarray) -> list[tuple[int, int]]:
    """Exact minimum-weight pairing of m defects, boundary included.

    ``d[j, i]`` is the distance from defect j (the boundary if j == m) to
    defect i, inf where no path exists.  Returns the matches (i, j) with
    i < j, where j < m is a defect and j == m the boundary.

    Raises DecodeError when a defect can neither pair nor reach the
    boundary.
    """
    m = len(d) - 1
    finite = np.isfinite(d)
    # int64 is exact: entries are path weights of at most 2^20 * n_det, so
    # 2 * big < 2^63 for tables of up to 10^4 detectors
    t = np.where(finite, d, 0).astype(np.int64)
    big = int(t.sum()) + 1
    b = np.where(finite[m], t[m], big)
    gain = b[:, None] + b - t[:m]
    u, v = np.nonzero(np.triu(finite[:m] & (gain > 0), 1))
    mate = max_weight_matching(m, zip(u.tolist(), v.tolist(), gain[u, v].tolist()))
    matches = []
    for i, k in enumerate(mate):
        if k > i:
            matches.append((i, k))
        elif k == -1:
            if not finite[m, i]:
                raise DecodeError("odd defect parity in a connected component")
            matches.append((i, m))
    return matches


def _context(graph: DecodingGraph, context: DecoderContext | None) -> DecoderContext:
    """context, or a new one; DecodeError if it was built from another graph."""
    if context is not None and context.graph is not graph:
        raise DecodeError("the decoder context was built from another graph")
    return context or DecoderContext(graph)


def decode_syndrome(
    graph: DecodingGraph,
    syndrome: np.ndarray,
    context: DecoderContext | None = None,
) -> MatchingResult:
    """Match the syndrome's defects and predict the observable flips."""
    return _decode(_context(graph, context), syndrome)


def _decode(ctx: DecoderContext, syndrome: np.ndarray) -> MatchingResult:
    """decode_syndrome on the context's graph."""
    syndrome = np.asarray(syndrome)
    if syndrome.shape != (ctx.n_det,):
        raise DecodeError(
            f"syndrome has shape {syndrome.shape}, expected ({ctx.n_det},)"
        )
    syndrome = _check_bits(syndrome)
    defects = np.flatnonzero(syndrome)
    if len(defects) == 0:
        return MatchingResult(
            prediction=np.zeros(ctx.n_obs, dtype=np.uint8),
            matched_pairs=(),
            total_weight=0.0,
        )
    if ctx.graph.n_edges == 0:
        raise DecodeError("nonempty syndrome on an empty decoding graph")
    src = np.append(defects, ctx.n_det)  # each defect, then the boundary
    d = ctx.dist[np.ix_(src, defects)]
    matches = _match_defects(d)

    m = len(defects)
    mask_total = 0
    pairs = []
    weight = 0
    for i, j in matches:
        target = int(defects[i])
        mask_total ^= int(ctx.mask[src[j], target])
        weight += int(d[j, i])
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

    Identical syndromes are decoded once and reused, keyed on their packed
    bits; shot order does not affect any count.
    """
    ctx = _context(graph, context)
    if batch.detectors.shape[1] != ctx.n_det:
        raise DecodeError("batch detector width does not match the graph")
    if batch.observables.shape[1] != ctx.n_obs:
        raise DecodeError("batch observable width does not match the graph")
    det = _check_bits(batch.detectors)
    preds = np.zeros((batch.shots, ctx.n_obs), dtype=np.uint8)
    cache: dict[bytes, np.ndarray] = {}
    for s, row in enumerate(np.packbits(det, axis=1)):
        key = row.tobytes()
        hit = cache.get(key)
        if hit is None:
            hit = _decode(ctx, det[s]).prediction
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
    observable parity is odd, minimised over observables.  One unweighted
    Dijkstra run per observable, from every endpoint of an odd edge, finds
    the shortest path from each to its copy in the other layer.
    """
    if graph.n_observables < 1:
        raise DecodeError("graph has no observable")
    if graph.n_edges == 0:
        raise DecodeError("empty decoding graph")
    n_nodes = graph.n_detectors + 1
    if ((graph.det1 < 0) & (graph.obs_mask != 0)).any():
        raise DecodeError("mechanism flips an observable but no detector")

    keep = graph.det1 >= 0
    a = graph.det1[keep].astype(np.int64)
    b = np.where(graph.det2 < 0, graph.n_detectors, graph.det2)[keep].astype(np.int64)
    masks = graph.obs_mask[keep]
    rows = np.concatenate([a, a + n_nodes])
    best = None
    for k in range(graph.n_observables):
        odd = (masks >> np.uint64(k)) & np.uint64(1) == 1
        if not odd.any():
            continue
        # node v of layer 0 is v, of layer 1 v + n_nodes; odd edges cross
        cross = n_nodes * odd
        cols = np.concatenate([b + cross, b + n_nodes - cross])
        doubled = sp.csr_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(2 * n_nodes, 2 * n_nodes)
        )
        sources = np.unique(a[odd])
        dist = csgraph.dijkstra(
            doubled,
            directed=False,
            indices=sources,
            unweighted=True,
            limit=(best - 1) if best is not None else np.inf,
        )
        d = dist[np.arange(sources.size), sources + n_nodes].min()
        if np.isfinite(d):
            best = int(d)
    if best is None:
        raise DecodeError("no undetectable observable-flipping set exists")
    return int(best)
