"""Pauli-frame Monte Carlo sampling and decoding-graph extraction.

Sampling tracks error frames against the circuit's noiseless reference, so
detector bits are parities of record flips.  All randomness is drawn from
counter-based Philox streams keyed on (seed, noise-annotation index, shot
chunk), making batches bitwise reproducible for a fixed (circuit, seed,
shots).

Graph extraction enumerates every Pauli term of every noise annotation,
propagates it through the circuit, and merges identical detector/observable
signatures by XOR-composition.  Terms that flip more than two detectors are
split into single-qubit X/Z constituents (and, for recorded-outcome flips,
into equivalent constituent sets found by a local GF(2) solve), mirroring
how matching decoders consume circuit noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from floqnet import gf2
from floqnet.circuit import (
    BellPrep,
    CircuitError,
    CircuitProgram,
    Depolarize1,
    Depolarize2,
    MeasurePP,
    Reset,
)

__all__ = [
    "ShotBatch",
    "DecodingGraph",
    "GraphExtractionError",
    "sample_shots",
    "extract_decoding_graph",
    "save_shot_batch",
    "load_shot_batch",
]

_CHUNK = 4096
_DENSE_P = 0.05

# pauli codes: bit0 = X component, bit1 = Z component
_PCODE = {"X": 1, "Z": 2, "Y": 3}


class GraphExtractionError(RuntimeError):
    pass


@dataclass
class ShotBatch:
    shots: int
    seed: int
    detectors: np.ndarray  # (shots, n_detectors) uint8
    observables: np.ndarray  # (shots, n_observables) uint8

    def __post_init__(self):
        if (
            self.detectors.shape[0] != self.shots
            or self.observables.shape[0] != self.shots
        ):
            raise ValueError("bit-matrix shape does not match shot count")


def _annotation_rng(seed: int, ann: int, chunk: int) -> np.random.Generator:
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64((ann << 24) ^ chunk)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _sample_events(rng, n_cells: int, p: float, n_types: int):
    """Positions and types of iid error events on n_cells Bernoulli(p) cells."""
    if p <= 0 or n_cells == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if p >= _DENSE_P:
        u = rng.random(n_cells)
        pos = np.nonzero(u < p)[0]
        types = np.floor(n_types * u[pos] / p).astype(np.int64)
        np.clip(types, 0, n_types - 1, out=types)
        return pos, types
    # geometric gap sampling: exact sparse Bernoulli process
    chunks = []
    last = -1
    expect = int(n_cells * p) + 1
    while True:
        m = max(16, expect + 8 * int(np.sqrt(expect)) + 8)
        u = rng.random(m)
        gaps = np.floor(np.log(u) / np.log1p(-p)).astype(np.int64) + 1
        run = last + np.cumsum(gaps)
        chunks.append(run[run < n_cells])
        if run.size and run[-1] >= n_cells:
            break
        if run.size:
            last = int(run[-1])
        expect = max(1, expect // 2)
    pos = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    types = rng.integers(0, n_types, size=pos.size)
    return pos, types


def sample_shots(circuit: CircuitProgram, seed: int, shots: int) -> ShotBatch:
    """Sample detector and observable frame bits under the annotated noise.

    Deterministic for fixed (circuit, seed, shots); all-zero output for a
    noiseless circuit.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    circuit.ensure_reference()
    n_det = circuit.n_detectors
    n_obs = circuit.n_observables

    rec_det = sp.lil_matrix((circuit.n_records, max(n_det, 1)), dtype=np.uint8)
    for d, det in enumerate(circuit.detectors):
        for r in det.records:
            rec_det[r, d] = 1
    rec_obs = sp.lil_matrix((circuit.n_records, max(n_obs, 1)), dtype=np.uint8)
    for obs in circuit.observables:
        for r in obs.records:
            rec_obs[r, obs.index] = 1
    rec_det = rec_det.tocsr()
    rec_obs = rec_obs.tocsr()

    det_out = np.zeros((shots, n_det), dtype=np.uint8)
    obs_out = np.zeros((shots, n_obs), dtype=np.uint8)

    for chunk_idx, lo in enumerate(range(0, shots, _CHUNK)):
        hi = min(lo + _CHUNK, shots)
        w = hi - lo
        fx = np.zeros((w, circuit.n_qubits), dtype=np.uint8)
        fz = np.zeros((w, circuit.n_qubits), dtype=np.uint8)
        det_acc = np.zeros((w, max(n_det, 1)), dtype=np.uint8)
        obs_acc = np.zeros((w, max(n_obs, 1)), dtype=np.uint8)
        ann = 0
        rec = 0
        for instr in circuit.instructions:
            if isinstance(instr, Reset):
                t = list(instr.targets)
                fx[:, t] = 0
                fz[:, t] = 0
            elif isinstance(instr, BellPrep):
                t = [q for pair in instr.pairs for q in pair]
                fx[:, t] = 0
                fz[:, t] = 0
            elif isinstance(instr, Depolarize1):
                rng = _annotation_rng(seed, ann, chunk_idx)
                ann += 1
                nt = len(instr.targets)
                pos, types = _sample_events(rng, w * nt, instr.p, 3)
                if pos.size:
                    srow = pos // nt
                    qcol = np.asarray(instr.targets, dtype=np.int64)[pos % nt]
                    code = types + 1  # 1=X, 2=Z, 3=Y
                    fx[srow, qcol] ^= (code & 1).astype(np.uint8)
                    fz[srow, qcol] ^= (code >> 1).astype(np.uint8)
            elif isinstance(instr, Depolarize2):
                rng = _annotation_rng(seed, ann, chunk_idx)
                ann += 1
                npair = len(instr.pairs)
                pos, types = _sample_events(rng, w * npair, instr.p, 15)
                if pos.size:
                    srow = pos // npair
                    pair_idx = pos % npair
                    pairs = np.asarray(instr.pairs, dtype=np.int64)
                    q1 = pairs[pair_idx, 0]
                    q2 = pairs[pair_idx, 1]
                    code = types + 1  # 1..15, (c1, c2) = (code >> 2, code & 3)
                    c1 = code >> 2
                    c2 = code & 3
                    fx[srow, q1] ^= (c1 & 1).astype(np.uint8)
                    fz[srow, q1] ^= (c1 >> 1).astype(np.uint8)
                    fx[srow, q2] ^= (c2 & 1).astype(np.uint8)
                    fz[srow, q2] ^= (c2 >> 1).astype(np.uint8)
            elif isinstance(instr, MeasurePP):
                nprod = len(instr.products)
                flips = np.zeros((w, nprod), dtype=np.uint8)
                for j, prod in enumerate(instr.products):
                    acc = np.zeros(w, dtype=np.uint8)
                    for q, p in prod:
                        code = _PCODE[p]
                        if code & 2:  # Z component anticommutes with X frame
                            acc ^= fx[:, q]
                        if code & 1:  # X component anticommutes with Z frame
                            acc ^= fz[:, q]
                    flips[:, j] = acc
                rng = _annotation_rng(seed, ann, chunk_idx)
                ann += 1
                pos, _ = _sample_events(rng, w * nprod, instr.flip_p, 1)
                if pos.size:
                    flips[pos // nprod, pos % nprod] ^= 1
                det_acc += flips @ rec_det[rec : rec + nprod]
                obs_acc += flips @ rec_obs[rec : rec + nprod]
                rec += nprod
            else:
                raise CircuitError(f"unknown instruction {instr!r}")
        if n_det:
            det_out[lo:hi] = det_acc[:, :n_det] & 1
        if n_obs:
            obs_out[lo:hi] = obs_acc[:, :n_obs] & 1
    return ShotBatch(shots=shots, seed=seed, detectors=det_out, observables=obs_out)


# ---------------------------------------------------------------------------
# decoding graph


@dataclass
class DecodingGraph:
    n_detectors: int
    n_observables: int
    det1: np.ndarray  # int32; second endpoint -1 for single-detector edges
    det2: np.ndarray
    probability: np.ndarray  # float64
    obs_mask: np.ndarray  # uint64 bitmask over observables

    @property
    def n_edges(self) -> int:
        return len(self.probability)

    @property
    def weights(self) -> np.ndarray:
        p = np.clip(self.probability, 1e-300, 0.5 - 1e-12)
        return -np.log(p / (1.0 - p))


def _compose(p1: float, p2: float) -> float:
    return p1 * (1 - p2) + p2 * (1 - p1)


def _qubit_timelines(circuit: CircuitProgram):
    """Per-qubit ordered event lists: measurement touches and reset barriers."""
    timelines: list[list[tuple]] = [[] for _ in range(circuit.n_qubits)]
    rec = 0
    for instr in circuit.instructions:
        if isinstance(instr, Reset):
            for q in instr.targets:
                timelines[q].append(("barrier",))
        elif isinstance(instr, BellPrep):
            for pair in instr.pairs:
                for q in pair:
                    timelines[q].append(("barrier",))
        elif isinstance(instr, MeasurePP):
            for prod in instr.products:
                for q, p in prod:
                    timelines[q].append(("meas", rec, _PCODE[p]))
                rec += 1
    return timelines


def _atom_signatures(circuit: CircuitProgram, rec_dets, rec_obs):
    """Signature of every (qubit, slot, X or Z) Pauli insertion.

    sigs[q][i][pcode] is the (detector set, observable mask) flipped by a
    Pauli placed just before the i-th event on qubit q; slot len(events) sits
    after everything and is trivial.
    """
    timelines = _qubit_timelines(circuit)
    sigs = []
    for events in timelines:
        per_slot = [None] * (len(events) + 1)
        cur = {1: (frozenset(), 0), 2: (frozenset(), 0)}
        per_slot[len(events)] = dict(cur)
        for i in range(len(events) - 1, -1, -1):
            ev = events[i]
            if ev[0] == "barrier":
                cur = {1: (frozenset(), 0), 2: (frozenset(), 0)}
            else:
                _, rec, code = ev
                nxt = {}
                for pcode in (1, 2):
                    anti = ((pcode & 1) & (code >> 1)) ^ ((pcode >> 1) & (code & 1))
                    if anti:
                        d, o = cur[pcode]
                        nxt[pcode] = (d ^ rec_dets[rec], o ^ rec_obs[rec])
                    else:
                        nxt[pcode] = cur[pcode]
                cur = nxt
            per_slot[i] = dict(cur)
        sigs.append(per_slot)
    return sigs


def extract_decoding_graph(circuit: CircuitProgram) -> DecodingGraph:
    """Enumerate, propagate and merge every noise term into graph-like edges.

    Raises GraphExtractionError if a term flips three or more detectors and
    cannot be decomposed into graph-like mechanisms present in the circuit,
    or if a term flips an observable without flipping any detector.
    """
    rec_dets = [frozenset() for _ in range(circuit.n_records)]
    for d, det in enumerate(circuit.detectors):
        for r in det.records:
            rec_dets[r] = rec_dets[r] ^ frozenset((d,))
    rec_obs = [0] * circuit.n_records
    for obs in circuit.observables:
        for r in obs.records:
            rec_obs[r] ^= 1 << obs.index

    sigs = _atom_signatures(circuit, rec_dets, rec_obs)
    cursor = [0] * circuit.n_qubits

    def atom(q: int, pcode: int):
        return sigs[q][cursor[q]][pcode]

    def combine(parts):
        d = frozenset()
        o = 0
        for dd, oo in parts:
            d = d ^ dd
            o ^= oo
        return d, o

    terms: list[tuple[frozenset, int, float]] = []

    def add_term(sig, p):
        d, o = sig
        if p <= 0 or (not d and not o):
            return
        terms.append((d, o, p))

    rec = 0
    for instr in circuit.instructions:
        if isinstance(instr, Reset):
            for q in instr.targets:
                cursor[q] += 1
        elif isinstance(instr, BellPrep):
            for pair in instr.pairs:
                for q in pair:
                    cursor[q] += 1
        elif isinstance(instr, Depolarize1):
            if instr.p > 0:
                for q in instr.targets:
                    x = atom(q, 1)
                    z = atom(q, 2)
                    add_term(x, instr.p / 3)
                    add_term(z, instr.p / 3)
                    add_term(combine([x, z]), instr.p / 3)
        elif isinstance(instr, Depolarize2):
            if instr.p > 0:
                for q1, q2 in instr.pairs:
                    side = {
                        (0, 1): atom(q1, 1),
                        (0, 2): atom(q1, 2),
                        (1, 1): atom(q2, 1),
                        (1, 2): atom(q2, 2),
                    }
                    side[(0, 3)] = combine([side[(0, 1)], side[(0, 2)]])
                    side[(1, 3)] = combine([side[(1, 1)], side[(1, 2)]])
                    side[(0, 0)] = (frozenset(), 0)
                    side[(1, 0)] = (frozenset(), 0)
                    for c1 in range(4):
                        for c2 in range(4):
                            if c1 == 0 and c2 == 0:
                                continue
                            add_term(
                                combine([side[(0, c1)], side[(1, c2)]]),
                                instr.p / 15,
                            )
        elif isinstance(instr, MeasurePP):
            for prod in instr.products:
                if instr.flip_p > 0:
                    add_term((rec_dets[rec], rec_obs[rec]), instr.flip_p)
                for q, _ in prod:
                    cursor[q] += 1
                rec += 1

    edges: dict[tuple[frozenset, int], float] = {}
    pending: list[tuple[frozenset, int, float]] = []
    for d, o, p in terms:
        if len(d) <= 2:
            if not d and o:
                raise GraphExtractionError(
                    "error mechanism flips an observable but no detector"
                )
            key = (d, o)
            edges[key] = _compose(edges.get(key, 0.0), p)
        else:
            pending.append((d, o, p))

    if pending:
        det_edges: dict[int, set] = {}
        for key in edges:
            for det in key[0]:
                det_edges.setdefault(det, set()).add(key)

        def local_decompose(d: frozenset, o: int):
            pool: set = set()
            for det in d:
                pool |= det_edges.get(det, set())
            frontier = set()
            for key in pool:
                frontier |= key[0]
            for det in frontier:
                pool |= det_edges.get(det, set())
            pool = sorted(pool, key=lambda k: (sorted(k[0]), k[1]))
            if not pool:
                return None
            all_dets = sorted(set(d).union(*[set(k[0]) for k in pool]))
            det_index = {det: i for i, det in enumerate(all_dets)}
            n_obs = circuit.n_observables
            rows = len(all_dets) + n_obs
            A = np.zeros((rows, len(pool)), dtype=np.uint8)
            for j, (dd, oo) in enumerate(pool):
                for det in dd:
                    A[det_index[det], j] = 1
                for k in range(n_obs):
                    if oo >> k & 1:
                        A[len(all_dets) + k, j] = 1
            b = np.zeros(rows, dtype=np.uint8)
            for det in d:
                b[det_index[det]] = 1
            for k in range(n_obs):
                if o >> k & 1:
                    b[len(all_dets) + k] = 1
            x = gf2.gf2_solve(A, b)
            if x is None:
                return None
            return [pool[j] for j in np.nonzero(x)[0]]

        merged_pending: dict[tuple[frozenset, int], float] = {}
        for d, o, p in pending:
            key = (d, o)
            merged_pending[key] = _compose(merged_pending.get(key, 0.0), p)
        for (d, o), p in sorted(
            merged_pending.items(), key=lambda kv: (sorted(kv[0][0]), kv[0][1])
        ):
            components = local_decompose(d, o)
            if components is None:
                raise GraphExtractionError(
                    f"mechanism flipping {len(d)} detectors cannot be decomposed "
                    "into graph-like components"
                )
            for key in components:
                edges[key] = _compose(edges.get(key, 0.0), p)

    keys = sorted(edges.keys(), key=lambda k: (sorted(k[0]), k[1]))
    det1 = np.full(len(keys), -1, dtype=np.int32)
    det2 = np.full(len(keys), -1, dtype=np.int32)
    prob = np.zeros(len(keys))
    masks = np.zeros(len(keys), dtype=np.uint64)
    for i, (d, o) in enumerate(keys):
        ds = sorted(d)
        if len(ds) >= 1:
            det1[i] = ds[0]
        if len(ds) == 2:
            det2[i] = ds[1]
        prob[i] = edges[(d, o)]
        masks[i] = o
    return DecodingGraph(
        n_detectors=circuit.n_detectors,
        n_observables=circuit.n_observables,
        det1=det1,
        det2=det2,
        probability=prob,
        obs_mask=masks,
    )


# ---------------------------------------------------------------------------
# batch export


def save_shot_batch(batch: ShotBatch, path: str | Path) -> None:
    """Packed bit rows (detectors then observables) with a JSON-lines header."""
    path = Path(path)
    header = {
        "shots": batch.shots,
        "seed": batch.seed,
        "n_detectors": int(batch.detectors.shape[1]),
        "n_observables": int(batch.observables.shape[1]),
        "bit_order": "detectors,observables",
    }
    rows = np.concatenate([batch.detectors, batch.observables], axis=1)
    packed = np.packbits(rows, axis=1)
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(packed.tobytes())


def load_shot_batch(path: str | Path) -> ShotBatch:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        raw = fh.read()
    n_bits = header["n_detectors"] + header["n_observables"]
    row_bytes = (n_bits + 7) // 8
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(header["shots"], row_bytes)
    rows = np.unpackbits(packed, axis=1)[:, :n_bits]
    return ShotBatch(
        shots=header["shots"],
        seed=header["seed"],
        detectors=rows[:, : header["n_detectors"]].copy(),
        observables=rows[:, header["n_detectors"] :].copy(),
    )
