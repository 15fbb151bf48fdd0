"""Pauli-frame Monte Carlo sampling and decoding-graph extraction.

Sampling tracks error frames against the circuit's noiseless reference, so
detector bits are parities of record flips.  All randomness is drawn from
counter-based Philox streams keyed on (seed, noise-annotation index, shot
chunk), making batches bitwise reproducible for a fixed (circuit, seed,
shots).

The sampler is bit-packed, as in stim (Gidney, arXiv:2103.02202).  One call
compiles the instruction list once into flat index arrays, then works
through the shots in chunks of _CHUNK.  A chunk keeps 64 shots per uint64
word: a (2 * n_qubits, words) frame array, X components in rows 0..n-1 and
Z components in rows n..2n-1, and an (n_records, words) array of record
flips.  Resets clear frame rows; noise events XOR single bits into them; a
measured product's flip is the XOR of the frame rows it anticommutes with.
Detector and observable parities are XORs of record rows, taken once at the
end of the chunk in slices of bounded size, then unpacked into one uint8
per shot.  The output equals, bit for bit, that of the unpacked loop kept
as the reference in the test suite: the same streams are drawn in the same
order, and each event maps to the same (shot, target).  A record that a
detector or observable lists twice counts once.

Graph extraction enumerates every Pauli term of every noise annotation,
propagates it through the circuit, and merges identical detector/observable
signatures by XOR-composition.  Terms that flip more than two detectors are
split into single-qubit X/Z constituents (and, for recorded-outcome flips,
into equivalent constituent sets found by a local GF(2) solve), mirroring
how matching decoders consume circuit noise.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
_SLICE_ROWS = 4096  # record rows gathered at once for detector parities
_WORD = np.dtype("<u8")  # 64 shots per word, shot 64i + j at bit j of word i
_CLEAR, _PAULI, _MEASURE = range(3)

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


def _index_lists(lists) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated int64 index lists, each list's start offset and size."""
    sizes = np.fromiter((len(x) for x in lists), dtype=np.int64, count=len(lists))
    flat = np.fromiter(
        itertools.chain.from_iterable(lists), dtype=np.int64, count=int(sizes.sum())
    )
    starts = np.zeros(len(lists), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return flat, starts, sizes


def _xor_rows(rows: np.ndarray, flat, starts, sizes) -> np.ndarray:
    """Row i of the result is the XOR of rows[flat[starts[i] : starts[i] + sizes[i]]].

    Empty lists give a zero row: reduceat would return rows[flat[starts[i]]]
    for them, so only the non-empty lists are reduced.
    """
    out = np.zeros((len(sizes), rows.shape[1]), dtype=rows.dtype)
    nonempty = sizes > 0
    if flat.size:
        out[nonempty] = np.bitwise_xor.reduceat(rows[flat], starts[nonempty], axis=0)
    return out


def _parity_slices(lists) -> list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Split index lists into consecutive slices gathering at most _SLICE_ROWS rows.

    Each slice is (first list, end list, flat, starts, sizes) with starts
    relative to the slice, ready for _xor_rows.  A list longer than the
    bound gets a slice of its own.
    """
    flat, starts, sizes = _index_lists(lists)
    ends = starts + sizes
    slices = []
    lo = 0
    while lo < len(lists):
        base = starts[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + _SLICE_ROWS, "right")))
        slices.append(
            (lo, hi, flat[base : ends[hi - 1]], starts[lo:hi] - base, sizes[lo:hi])
        )
        lo = hi
    return slices


def _compile_sampler(circuit: CircuitProgram) -> tuple[list[tuple], list[tuple]]:
    """Flatten the instruction list into index arrays for the packed kernel.

    Frame rows 0..n-1 hold the X components of the n qubits and rows n..2n-1
    their Z components.  Returns (ops, parity slices over record rows for the
    detectors followed by the observables).  Noise ops carry the annotation
    index that keys their random stream, counted in instruction order.
    """
    n = circuit.n_qubits
    n_obs = circuit.n_observables
    if not circuit.measurement_index_ok():
        raise CircuitError("a detector or observable references a missing record")
    obs_records: list[set[int]] = [set() for _ in range(n_obs)]
    for obs in circuit.observables:
        if not 0 <= obs.index < n_obs:
            raise CircuitError(f"observable index {obs.index} outside [0, {n_obs})")
        obs_records[obs.index].update(obs.records)
    # a record listed twice counts once, as a set of records
    parity_lists = [sorted(set(det.records)) for det in circuit.detectors]
    parity_lists += [sorted(recs) for recs in obs_records]

    ops: list[tuple] = []
    qubits_seen: list[np.ndarray] = []
    ann = 0
    rec = 0
    for instr in circuit.instructions:
        if isinstance(instr, (Reset, BellPrep)):
            targets = instr.targets if isinstance(instr, Reset) else instr.pairs
            q = np.asarray(targets, dtype=np.int64).reshape(-1)
            qubits_seen.append(q)
            ops.append((_CLEAR, np.concatenate([q, q + n])))
        elif isinstance(instr, (Depolarize1, Depolarize2)):
            # one row per noise cell: a target qubit, or a pair of them
            if isinstance(instr, Depolarize1):
                cells = np.asarray(instr.targets, dtype=np.int64).reshape(-1, 1)
            else:
                cells = np.asarray(instr.pairs, dtype=np.int64).reshape(-1, 2)
            qubits_seen.append(cells.reshape(-1))
            ops.append((_PAULI, ann, instr.p, cells))
            ann += 1
        elif isinstance(instr, MeasurePP):
            rows = []
            for prod in instr.products:
                row = []
                for q, p in prod:
                    code = _PCODE[p]
                    if code & 2:  # Z component anticommutes with X frame
                        row.append(q)
                    if code & 1:  # X component anticommutes with Z frame
                        row.append(q + n)
                rows.append(row)
            qubits_seen.append(
                np.fromiter((q for prod in instr.products for q, _ in prod), np.int64)
            )
            nprod = len(rows)
            ops.append((_MEASURE, ann, instr.flip_p, rec, nprod, *_index_lists(rows)))
            ann += 1
            rec += nprod
        else:
            raise CircuitError(f"unknown instruction {instr!r}")
    if rec != circuit.n_records:
        raise CircuitError(
            f"instructions measure {rec} records, the circuit declares "
            f"{circuit.n_records}"
        )
    if qubits_seen:
        q = np.concatenate(qubits_seen)
        if q.size and (q.min() < 0 or q.max() >= n):
            raise CircuitError(f"an instruction targets a qubit outside [0, {n})")
    return ops, _parity_slices(parity_lists)


def _flip(words: np.ndarray, rows: np.ndarray, shots: np.ndarray) -> None:
    """XOR a one into bit (row, shot) of a packed (rows, words) array per event.

    ufunc.at, because several events can land in the same word.
    """
    flat = words.reshape(-1)
    idx = rows * words.shape[1] + (shots >> 6)
    np.bitwise_xor.at(flat, idx, np.uint64(1) << (shots & 63).astype(np.uint64))


def sample_shots(circuit: CircuitProgram, seed: int, shots: int) -> ShotBatch:
    """Sample detector and observable frame bits under the annotated noise.

    Deterministic for fixed (circuit, seed, shots); all-zero output for a
    noiseless circuit.  Raises CircuitError when a detector or observable
    references a missing record, an observable index is out of range or an
    instruction targets a qubit the circuit does not have.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    ops, slices = _compile_sampler(circuit)
    circuit.ensure_reference()
    n = circuit.n_qubits
    n_det = circuit.n_detectors
    n_obs = circuit.n_observables

    det_out = np.zeros((shots, n_det), dtype=np.uint8)
    obs_out = np.zeros((shots, n_obs), dtype=np.uint8)

    for chunk_idx, lo in enumerate(range(0, shots, _CHUNK)):
        w = min(_CHUNK, shots - lo)
        n_words = -(-w // 64)
        frame = np.zeros((2 * n, n_words), dtype=_WORD)
        flips = np.zeros((circuit.n_records, n_words), dtype=_WORD)
        for op in ops:
            kind = op[0]
            if kind == _CLEAR:
                frame[op[1]] = 0
            elif kind == _PAULI:
                _, ann, p, cells = op
                if p <= 0 or not cells.size:
                    continue
                n_cells, k = cells.shape
                rng = _annotation_rng(seed, ann, chunk_idx)
                pos, types = _sample_events(rng, w * n_cells, p, 4**k - 1)
                if not pos.size:
                    continue
                shot = np.tile(pos // n_cells, k)
                qubit = cells[pos % n_cells].T.reshape(-1)
                # types + 1 holds one 2-bit Pauli per qubit, the first qubit
                # in the high bits; bit0 = X, bit1 = Z
                shifts = np.arange(2 * (k - 1), -1, -2)[:, None]
                pauli = (((types + 1) >> shifts) & 3).reshape(-1)
                x = (pauli & 1).astype(bool)
                z = (pauli & 2).astype(bool)
                _flip(
                    frame,
                    np.concatenate([qubit[x], qubit[z] + n]),
                    np.concatenate([shot[x], shot[z]]),
                )
            else:
                _, ann, flip_p, rec, nprod, flat, starts, sizes = op
                flips[rec : rec + nprod] = _xor_rows(frame, flat, starts, sizes)
                if flip_p <= 0 or not nprod:
                    continue
                rng = _annotation_rng(seed, ann, chunk_idx)
                pos, _ = _sample_events(rng, w * nprod, flip_p, 1)
                if pos.size:
                    _flip(flips, rec + pos % nprod, pos // nprod)
        bits = np.empty((n_det + n_obs, n_words), dtype=_WORD)
        for a, b, flat, starts, sizes in slices:
            bits[a:b] = _xor_rows(flips, flat, starts, sizes)
        # little-endian words: bit j of byte i is shot 8i + j, so row i of
        # the transposed bytes unpacks into output rows 8i + j, j = 0..7
        by = np.ascontiguousarray(bits.view(np.uint8).T)
        for out, cols in ((det_out, by[:, :n_det]), (obs_out, by[:, n_det:])):
            for j in range(8):
                dst = out[lo + j : lo + w : 8]
                np.bitwise_and(cols[: len(dst)] >> j, 1, out=dst)
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
    """Read a batch written by save_shot_batch.

    Raises ValueError when the payload length disagrees with the header.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        raw = fh.read()
    n_bits = header["n_detectors"] + header["n_observables"]
    row_bytes = (n_bits + 7) // 8
    expected = header["shots"] * row_bytes
    if len(raw) != expected:
        raise ValueError(
            f"{path}: header promises {expected} payload bytes "
            f"({header['shots']} shots x {row_bytes} bytes), file holds {len(raw)}"
        )
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(header["shots"], row_bytes)
    rows = np.unpackbits(packed, axis=1)[:, :n_bits]
    return ShotBatch(
        shots=header["shots"],
        seed=header["seed"],
        detectors=rows[:, : header["n_detectors"]].copy(),
        observables=rows[:, header["n_detectors"] :].copy(),
    )
