"""Independent checks on every layer's output.

Each check recomputes a property from the layer's output by its own means
(closed-form counts, a fresh edge scan, a brute-force oracle) and never
compares against a stored copy of an earlier run.  A failed check raises
CheckFailed; the caller turns that into ``"correct": false``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from floqnet import decode_syndrome, sample_shots
from floqnet.circuit import Depolarize1, Depolarize2, MeasurePP

# A detector is a marginal outlier when the sampled count sits more than
# OUTLIER_SIGMAS binomial standard deviations from the graph's prediction.
OUTLIER_SIGMAS = 5.0
# Per-block graph check: a block fails on a mean-defect gap above
# BLOCK_Z_LIMIT standard errors, or on a detector whose count has a
# Chernoff tail bound below DETECTOR_TAIL / 2 on either side.  With ~10^3
# blocks per benchmark campaign and ~10^3 detectors, a correct graph fails
# a block with probability below 1e-6, so the failure count stays exact
# across seeds once the graph is right.
BLOCK_Z_LIMIT = 6.0
DETECTOR_TAIL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# lattice, partition, circuit


def check_honeycomb(lat, L: int) -> None:
    v, e, f = lat.n_vertices, len(lat.edges), len(lat.faces)
    require(v == 2 * L * L, f"V={v}, expected 2L^2={2 * L * L}")
    require(2 * e == 3 * v, f"E={e}, expected 3V/2")
    require(2 * f == v, f"F={f}, expected V/2")
    require(v - e + f == 2 - 2 * 1, f"Euler characteristic {v - e + f} is not genus 1")
    require(lat.genus == 1, f"lattice reports genus {lat.genus}")
    degree = np.bincount(
        [x for edge in lat.edges for x in (edge.u, edge.v)], minlength=v
    )
    require(bool((degree == 3).all()), "lattice is not trivalent")


def nonlocal_edges_of(lat, part) -> set[int]:
    """Edges whose endpoints lie in different clusters, found by a fresh scan."""
    owner = {}
    for i, (verts, _) in enumerate(part.clusters):
        for x in verts:
            require(x not in owner, f"vertex {x} lies in two clusters")
            owner[x] = i
    require(
        sorted(owner) == list(range(lat.n_vertices)),
        "clusters do not cover every vertex",
    )
    for verts, _ in part.clusters:
        require(
            3 * len(verts) < 2 * part.n_qpu,
            f"cluster of {len(verts)} vertices breaks (3/2)|V_i| < {part.n_qpu}",
        )
    return {
        i for i, edge in enumerate(lat.edges) if owner[edge.u] != owner[edge.v]
    }


def check_partition(lat, part) -> None:
    cut = nonlocal_edges_of(lat, part)
    require(
        set(part.nonlocal_edges) == cut,
        "non-local edges differ from the edges cut by the clusters",
    )


def check_circuit(circuit, lat, n_nonlocal: int, report) -> None:
    require(
        circuit.n_qubits == lat.n_vertices + 2 * n_nonlocal,
        f"n_qubits={circuit.n_qubits}, expected V + 2*{n_nonlocal}",
    )
    require(circuit.n_detectors > 0, "circuit has no detector")
    require(report.ok, f"circuit is not deterministic: {report}")


# ---------------------------------------------------------------------------
# sampler


def noiseless_copy(circuit):
    """The same compiled program with every noise probability set to zero.

    The noiseless reference outcomes are kept: they do not depend on the
    noise, and the sampler reports flips relative to them.
    """
    quiet = []
    for instr in circuit.instructions:
        if isinstance(instr, (Depolarize1, Depolarize2)):
            instr = dataclasses.replace(instr, p=0.0)
        elif isinstance(instr, MeasurePP):
            instr = dataclasses.replace(instr, flip_p=0.0)
        quiet.append(instr)
    return dataclasses.replace(circuit, instructions=tuple(quiet))


def check_sampler(circuit, seed: int, shots: int) -> None:
    a = sample_shots(circuit, seed, shots)
    b = sample_shots(circuit, seed, shots)
    require(
        np.array_equal(a.detectors, b.detectors)
        and np.array_equal(a.observables, b.observables),
        "the same seed gave different bits",
    )
    q = sample_shots(noiseless_copy(circuit), seed, shots)
    require(
        not q.detectors.any() and not q.observables.any(),
        "a noiseless copy of the circuit sampled a non-zero bit",
    )


# ---------------------------------------------------------------------------
# decoding graph against the sampler


def graph_marginals(graph) -> np.ndarray:
    """Each detector's flip probability implied by independent graph edges:
    (1 - prod_e (1 - 2 p_e)) / 2 over the edges touching the detector."""
    log_keep = np.log1p(-2.0 * np.asarray(graph.probability, dtype=np.float64))
    acc = np.zeros(graph.n_detectors)
    for ends in (graph.det1, graph.det2):
        ends = np.asarray(ends, dtype=np.int64)
        hit = ends >= 0
        np.add.at(acc, ends[hit], log_keep[hit])
    return (1.0 - np.exp(acc)) / 2.0


def marginal_outliers(pred: np.ndarray, counts: np.ndarray, shots: int) -> int:
    """Detectors whose sampled count is more than 5 sigma from the prediction."""
    sigma = np.sqrt(shots * pred * (1.0 - pred))
    dev = np.abs(counts - shots * pred)
    return int(np.count_nonzero(dev > OUTLIER_SIGMAS * np.maximum(sigma, 1e-12)))


def graph_matches_block(pred: np.ndarray, detectors: np.ndarray) -> bool:
    """Does one sampled block agree with the graph's detector marginals?

    Two tests: the mean defect count per shot against the sum of the
    predicted marginals (standard error from the block itself, so detector
    correlations are accounted for), and every detector's count against a
    binomial with the predicted marginal, through its Chernoff tail bound.
    """
    shots = detectors.shape[0]
    per_shot = detectors.sum(axis=1, dtype=np.int64)
    se = max(float(per_shot.std(ddof=1)) / np.sqrt(shots), 1e-12) if shots > 1 else 1.0
    if abs(float(per_shot.mean()) - float(pred.sum())) > BLOCK_Z_LIMIT * se:
        return False
    freq = detectors.sum(axis=0, dtype=np.int64) / shots
    return bool((shots * binary_kl(freq, pred) <= np.log(2.0 / DETECTOR_TAIL)).all())


def binary_kl(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """KL divergence D(q || p) of Bernoulli laws, elementwise.

    exp(-n D(k/n || p)) bounds the binomial tail beyond k on the side
    where k/n lies (Chernoff), so the detector test above fails a block
    only where the exact tail is smaller still.
    """
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(q > 0, q * np.log(q / p), 0.0)
        b = np.where(q < 1, (1 - q) * np.log((1 - q) / (1 - p)), 0.0)
    return a + b


# ---------------------------------------------------------------------------
# brute-force matching oracle


class PairingOracle:
    """Exact minimum-weight pairing of a few defects, by enumeration.

    Distances come from scipy Dijkstra over the decoding graph plus one
    boundary node that absorbs single-detector edges; each defect either
    pairs with another defect or goes to the boundary.
    """

    def __init__(self, graph):
        self.n_det = graph.n_detectors
        p = np.clip(np.asarray(graph.probability, dtype=np.float64), 1e-300, 0.5 - 1e-12)
        w = -np.log(p / (1.0 - p))
        a = np.asarray(graph.det1, dtype=np.int64)
        b = np.asarray(graph.det2, dtype=np.int64)
        keep = a >= 0
        a, b, w = a[keep], b[keep], w[keep]
        b = np.where(b < 0, self.n_det, b)
        n = self.n_det + 1
        # parallel edges: the lightest one is the one a path would use
        best = {}
        for u, v, wt in zip(a.tolist(), b.tolist(), w.tolist()):
            key = (min(u, v), max(u, v))
            if wt < best.get(key, np.inf):
                best[key] = wt
        rows = [k[0] for k in best] + [k[1] for k in best]
        cols = [k[1] for k in best] + [k[0] for k in best]
        vals = list(best.values()) * 2
        self.csr = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def min_weight(self, defects: np.ndarray) -> float:
        m = len(defects)
        if m == 0:
            return 0.0
        src = np.concatenate([defects, [self.n_det]]).astype(np.int64)
        dist = csgraph.dijkstra(self.csr, directed=False, indices=src)
        pair = dist[:m][:, defects]
        bound = dist[m][defects]
        best = {0: 0.0}
        for mask in range(1, 1 << m):
            i = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << i)
            cand = bound[i] + best[rest]
            for j in range(i + 1, m):
                if rest >> j & 1:
                    cand = min(cand, pair[i, j] + best[rest & ~(1 << j)])
            best[mask] = cand
        return float(best[(1 << m) - 1])


def check_decoded_block(
    graph, ctx, oracle, detectors, preds, max_defects, max_checked
) -> None:
    """Check a block that decode_batch returned.

    Empty syndromes must predict no flip.  Distinct syndromes of at most
    max_defects defects (up to max_checked of them) must have a
    decode_syndrome weight equal to the oracle's minimum, and the same
    prediction as decode_batch gave for that shot.
    """
    empty = ~detectors.any(axis=1)
    require(not preds[empty].any(), "an empty syndrome predicted a logical flip")
    seen = set()
    checked = 0
    for s in np.flatnonzero(~empty):
        if checked >= max_checked:
            break
        row = detectors[s]
        defects = np.flatnonzero(row)
        key = row.tobytes()
        if len(defects) > max_defects or key in seen:
            continue
        seen.add(key)
        got = decode_syndrome(graph, row, ctx)
        want = oracle.min_weight(defects)
        require(
            abs(got.total_weight - want) <= 1e-6 * max(1.0, want) + 1e-4,
            f"shot {s}: matching weight {got.total_weight} != brute force {want}",
        )
        require(
            np.array_equal(got.prediction, preds[s]),
            f"shot {s}: decode_batch and decode_syndrome disagree",
        )
        checked += 1
