"""Pauli-frame Monte Carlo sampling and decoding-graph extraction.

Sampling tracks error frames: each record bit is the flip of that record
against its noiseless value, which is never computed, and detector and
observable bits are parities of record flips.  All randomness is drawn
from counter-based Philox streams keyed on (seed, noise-annotation index,
shot chunk), making batches bitwise reproducible for a fixed (circuit,
seed, shots).

One kernel, _propagate, moves the frames, bit-packed as in stim (Gidney,
arXiv:2103.02202).  The instruction list is compiled once into flat index
arrays, which the program keeps, and up to _CHUNK columns, 64 per uint64
word, run through one packed state: X components of the n qubits in rows
0..n-1, Z components in rows n..2n-1, then one row per record flip.  Resets
clear frame rows, a measured product's flip is the XOR of the frame rows
it anticommutes with, and the caller's injections XOR single bits in just
before or just after an op.  Detector and observable parities are XORs of
record rows (a record listed twice counts once), taken at the end in
slices of bounded size.  The three callers differ only in their columns
and injections.  The sampler's columns are event bits (see below).  Graph
extraction's columns are atoms: an X and a Z per qubit of every noisy
depolarising cell, and, for every product with a noisy outcome, a Pauli on
its first qubit that anticommutes with it there, just before and just
after the measurement.  Determinism certification's columns are
stabiliser gauges (see _random_parities): a parity of records is
deterministic in the noiseless circuit exactly when no gauge flips it.

Sampling rests on linearity over GF(2): what a noise event flips depends
only on the circuit, and a shot's bits are the XOR of its events'.  An
event sets event bits, each a single-bit injection: X or Z on one qubit
of a depolarising cell, or the flip of one record.  The first call on a
program runs one kernel column per stretch of event bits, as for
extraction's atoms, and keeps the parities each bit flips as the event
table (see _Streams).  A chunk then draws its events and np.add.at counts
each (shot, parity) pair of their table rows into the uint8 output; the
low bit of a count is the parity.

Every noisy Depolarize1, Depolarize2 or MeasurePP is one stream with its
own Philox generator, kept on the program and re-keyed for each chunk by
assigning its state, far cheaper than building a generator.  Streams
with p < _DENSE_P draw one block of uniforms each into one shared
buffer, and one in-place pass turns the whole buffer into geometric
gaps, running sums per stream and event positions; the rare stream whose
block ends short of its cells continues alone, block by block, and a
stream with p >= _DENSE_P draws one uniform per cell.  Pauli terms are
drawn only for streams with events, and one vectorised decode turns
every event into its event bits.  The draws are those of the unpacked
per-stream reference loop in the test suite, whose output the sampler
equals bit for bit.

Graph extraction keeps the atoms' detectors as a CSR with one observable
mask per column.  Columns on one frame row between the same two ops that
read or clear it share their bits, so one column per such stretch is run.
A Pauli term of a depolarising channel is the XOR of its qubits' columns;
a record flip is its record's detectors and observables, checked against
the XOR of its before and after columns.  The terms are never Python
objects: batches of whole instructions expand every term's columns
through the CSR and keep the detectors that an odd number of them flip,
and terms with equal detectors and mask are folded with np.lexsort and
one vectorised composition per occurrence rank, in term order, so the
graph does not depend on the batching.  Terms that flip three or four
detectors are split, in the style of stim, into two disjoint graph-like
mechanisms that the circuit already has; a record flip that does not
split so is split through its before and after atoms.  Only these splits
run in Python, once per distinct Pauli hyperedge and once per record flip
with three or four detectors.  Anything else raises GraphExtractionError
(see extract_decoding_graph).
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from floqnet.circuit import (
    BellPrep,
    CircuitError,
    CircuitProgram,
    Depolarize1,
    Depolarize2,
    MeasurePP,
    Reset,
    _CODE,
)
from floqnet.lattice import _require_int

__all__ = [
    "ShotBatch",
    "DecodingGraph",
    "GraphExtractionError",
    "sample_shots",
    "extract_decoding_graph",
]

_CHUNK = 4096
_DENSE_P = 0.05
_SLICE_ROWS = 2048  # record rows gathered at once for detector parities
_EVENT_BATCH = 1 << 13  # event bits whose table rows are added up at once
_WORD = np.dtype("<u8")  # 64 shots per word, shot 64i + j at bit j of word i
_CLEAR, _PAULI, _MEASURE = range(3)
# row c: the bits of noise event code c, least significant first
_CODE_BITS = np.array([[c >> b & 1 for b in range(4)] for c in range(16)], dtype=bool)


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


def _draws(expect):
    """Uniforms drawn for one block of a sparse stream that expects expect
    events in it (an int or an int64 array): the mean plus eight standard
    deviations, at least 16, so that one block almost always covers the
    stream's cells."""
    return np.maximum(16, expect + 8 * np.sqrt(expect).astype(np.int64) + 8)


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


def _parity_lists(circuit: CircuitProgram) -> list[list[int]]:
    """The record lists of the detectors followed by the observables, in
    index order, each a sorted set: a record listed twice counts once."""
    n_obs = circuit.n_observables
    if not circuit.measurement_index_ok():
        raise CircuitError("a detector or observable references a missing record")
    obs_records: list[set[int]] = [set() for _ in range(n_obs)]
    for obs in circuit.observables:
        if not 0 <= obs.index < n_obs:
            raise CircuitError(f"observable index {obs.index} outside [0, {n_obs})")
        obs_records[obs.index].update(obs.records)
    parity_lists = [sorted(set(det.records)) for det in circuit.detectors]
    return parity_lists + [sorted(recs) for recs in obs_records]


def _compile_ops(circuit: CircuitProgram) -> list[tuple]:
    """Flatten the instruction list into index arrays for the packed kernel,
    one op per instruction.

    Frame rows 0..n-1 hold the X components of the n qubits and rows n..2n-1
    their Z components.  Noise ops carry the annotation index that keys
    their random stream, counted in instruction order.
    """
    n = circuit.n_qubits
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
                    code = _CODE[p]
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
    return ops


def _compiled_ops(circuit: CircuitProgram) -> list[tuple]:
    """_compile_ops' output, kept on the program and compiled again once its
    instruction tuple is another object or its qubit or record count
    changes."""
    sources = (circuit.instructions, circuit.n_qubits, circuit.n_records)
    return circuit.cached("ops", sources, lambda: _compile_ops(circuit))


def _compiled(circuit: CircuitProgram) -> tuple[list[tuple], list[tuple]]:
    """The compiled ops and the parity slices over record rows for the
    detectors followed by the observables, each kept on the program; the
    slices are built again once its detector or observable tuple is another
    object or its record count changes."""
    sources = (circuit.detectors, circuit.observables, circuit.n_records)
    slices = circuit.cached(
        "parities", sources, lambda: _parity_slices(_parity_lists(circuit))
    )
    return _compiled_ops(circuit), slices


def _flip(words: np.ndarray, rows: np.ndarray, shots: np.ndarray) -> None:
    """XOR a one into bit (row, shot) of a packed (rows, words) array per event.

    ufunc.at, because several events can land in the same word.
    """
    flat = words.reshape(-1)
    idx = rows * words.shape[1] + (shots >> 6)
    np.bitwise_xor.at(flat, idx, np.uint64(1) << (shots & 63).astype(np.uint64))


def _propagate(circuit: CircuitProgram, ops, slices, width: int, slot, row, col):
    """The one walk over the compiled ops: run width columns (shots or
    deterministic Paulis, 64 per word) through one packed state.

    Rows 0..2n-1 of the state are the frame, row 2n + r the flip of record
    r.  Injection k XORs a one into row row[k] of column col[k] at slot[k],
    ascending, where slot 2i is just before op i and slot 2i + 1 just after
    it; the walk starts at the earliest slot.  Returns the packed parity
    bits: bit j of word w of row p is set when column 64w + j flips parity p
    of slices.
    """
    n2 = 2 * circuit.n_qubits
    n_words = -(-width // 64)
    state = np.zeros((n2 + circuit.n_records, n_words), dtype=_WORD)
    bounds = np.searchsorted(slot, np.arange(2 * len(ops) + 1)).tolist()

    def inject(t: int) -> None:
        a, b = bounds[t], bounds[t + 1]
        if a < b:
            _flip(state, row[a:b], col[a:b])

    for i in range(int(slot[0]) // 2 if slot.size else len(ops), len(ops)):
        op = ops[i]
        inject(2 * i)
        if op[0] == _CLEAR:
            state[op[1]] = 0
        elif op[0] == _MEASURE:
            rec, nprod, flat, starts, sizes = op[3:]
            state[n2 + rec : n2 + rec + nprod] = _xor_rows(state, flat, starts, sizes)
        inject(2 * i + 1)
    bits = np.empty((slices[-1][1] if slices else 0, n_words), dtype=_WORD)
    for a, b, flat, starts, sizes in slices:
        bits[a:b] = _xor_rows(state[n2:], flat, starts, sizes)
    return bits


def _run_columns(circuit: CircuitProgram, ops, slot, row, col, slices):
    """_propagate over columns, _CHUNK at a time, with no random event:
    column col[k] gets a one in state row row[k] at slot[k], the injections
    sorted by column.  Yields each chunk's first column and parity bits."""
    n_cols = int(col[-1]) + 1 if col.size else 0
    for lo in range(0, n_cols, _CHUNK):
        hi = min(lo + _CHUNK, n_cols)
        first, end = np.searchsorted(col, (lo, hi)).tolist()
        order = first + np.argsort(slot[first:end], kind="stable")
        yield lo, _propagate(
            circuit, ops, slices, hi - lo, slot[order], row[order], col[order] - lo
        )


def _row_stretches(ops, slot: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Per injection into state row row[k] at slot[k], an id of the stretch
    of that row between two ops that read or clear it.  Nothing else acts
    on a frame row, so injections with one id flip the same parities; a
    record row, injected after its measurement, is one stretch."""
    n_slots = 2 * len(ops)
    events = [np.empty(0, dtype=np.int64)]  # row * n_slots + slot just after
    for i, op in enumerate(ops):
        if op[0] == _CLEAR:
            events.append(op[1] * n_slots + 2 * i + 1)
        elif op[0] == _MEASURE:
            events.append(op[5] * n_slots + 2 * i + 1)
    events = np.unique(np.concatenate(events))
    # the count of events up to an injection tells its stretch only together
    # with its row: one row's last stretch and the next row's first count
    # the same events
    before = np.searchsorted(events, row * n_slots + slot, "right")
    return row * (events.size + 1) + before


def _gather(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions indptr[r] .. indptr[r + 1] - 1 of each row r in rows,
    concatenated, and each row's length."""
    start = indptr[rows]
    length = indptr[rows + 1] - start
    offset = np.repeat(start - (np.cumsum(length) - length), length)
    return offset + np.arange(offset.size), length


def _stretch_signatures(circuit: CircuitProgram, ops, slices, slot, row):
    """(stretch, indptr, par): single-bit injection (slot[k], row[k]), in
    slot order, flips the parity rows par[indptr[i] : indptr[i + 1]]
    (ascending; detectors, then observables) of stretch i = stretch[k].  One
    column per stretch (see _row_stretches) runs through the kernel, and par
    takes the smallest dtype, unpacked one _run_columns chunk at a time."""
    _, first, stretch = np.unique(
        _row_stretches(ops, slot, row), return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    run = first[order]  # the first injection of each stretch, in slot order
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    stretch = rank[stretch.reshape(-1)]
    dtype = np.min_scalar_type(slices[-1][1] if slices else 0)
    counts, pars = [np.zeros(1, dtype=np.int64)], [np.empty(0, dtype=dtype)]
    for lo, bits in _run_columns(
        circuit, ops, slot[run], row[run], np.arange(run.size), slices
    ):
        # unpack only the non-zero words: bit j of word w is column 64w + j
        par, word = np.nonzero(bits)
        hit, bit = np.nonzero(
            np.unpackbits(
                bits[par, word].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
            )
        )
        col = 64 * word[hit] + bit
        par = par[hit]
        pars.append(par[np.lexsort((par, col))].astype(dtype))
        counts.append(np.bincount(col, minlength=min(_CHUNK, run.size - lo)))
    return stretch, np.cumsum(np.concatenate(counts)), np.concatenate(pars)


class _Streams(NamedTuple):
    """The program's noise streams, in op order, and their event table: one
    stream per Depolarize1 or Depolarize2 with p > 0 and a cell, and one per
    MeasurePP with flip_p > 0 and a product.  A stream has cells[s] cells
    per shot, cell c of shot j being its event position j * cells[s] + c.

    An event's code has one bit per injection: a Pauli term t (0-based) has
    code t + 1, an outcome flip code 1.  Bits 0 and 1 of a Pauli cell's code
    are X and Z on its last qubit, bits 2 and 3 on its first, and bit 0 of
    an outcome flip flips its record.  Bit b of cell c of stream s is event
    bit 4 * (first[s] + c) + b, which flips the parity rows (detectors, then
    observables) par[indptr[r] : indptr[r + 1]] of r = event_row[bit].
    """

    key: np.ndarray  # uint64: annotation index << 24, XOR the chunk for the key
    p: np.ndarray  # float64
    logq: np.ndarray  # float64: np.log1p(-p), the gap sampler's divisor
    n_types: list  # 3 or 15 Pauli terms, or 1 for an outcome flip
    cells: np.ndarray  # int64
    first: np.ndarray  # in the index dtype
    index: type  # np.int32 where every event position, bit and key fits
    event_row: np.ndarray  # per event bit, in the smallest unsigned dtype
    indptr: np.ndarray  # int64
    par: np.ndarray  # in the smallest unsigned dtype
    # sets of one Generator per stream, re-keyed each chunk, that no call is
    # using: a call takes one set, or makes one if none is free, and puts it
    # back, so calls from several threads never share a generator
    idle: list


def _noise_streams(circuit: CircuitProgram, ops, slices) -> _Streams:
    """The noise streams of the compiled ops and their event table, built
    one kernel column per stretch of event bits, each bit injected just
    after its op (see _Streams)."""
    n = circuit.n_qubits
    fields, rows = [], [np.zeros((0, 4), dtype=np.int64)]
    for i, op in enumerate(ops):
        if op[0] == _PAULI and op[2] > 0 and op[3].size:
            _, ann, p, cells = op
            # the last qubit of a cell takes code bits 0 (X) and 1 (Z), as
            # its Pauli is the low two bits of the term; -1 marks no bit
            k = cells.shape[1]
            r = np.full((len(cells), 4), -1)
            r[:, 0 : 2 * k : 2] = cells[:, ::-1]
            r[:, 1 : 2 * k : 2] = cells[:, ::-1] + n
            fields.append((ann, p, 4**k - 1, len(cells), 2 * i + 1))
        elif op[0] == _MEASURE and op[2] > 0 and op[4]:
            _, ann, flip_p, rec, nprod = op[:5]
            r = np.full((nprod, 4), -1)
            r[:, 0] = 2 * n + rec + np.arange(nprod)
            fields.append((ann, flip_p, 1, nprod, 2 * i + 1))
        else:
            continue
        rows.append(r)
    ann, p, n_types, cells, slot = zip(*fields) if fields else ((),) * 5
    cells = np.array(cells, dtype=np.int64)
    rows = np.concatenate(rows).reshape(-1)  # per event bit
    bits = np.flatnonzero(rows >= 0)
    n_bits, rows = rows.size, rows[bits]
    slot = np.repeat(np.array(slot, dtype=np.int64), 4 * cells)[bits]
    stretch, indptr, par = _stretch_signatures(circuit, ops, slices, slot, rows)
    event_row = np.zeros(n_bits, dtype=np.min_scalar_type(indptr.size - 1))
    event_row[bits] = stretch
    n_par = slices[-1][1] if slices else 0
    widest = max(_CHUNK * cells.max(initial=0), n_bits, _CHUNK * n_par)
    index = np.int32 if widest < 2**31 else np.int64
    return _Streams(
        key=np.array(ann, dtype=np.uint64) << np.uint64(24),
        p=np.array(p, dtype=np.float64),
        logq=np.array([np.log1p(-q) for q in p], dtype=np.float64),
        n_types=list(n_types),
        cells=cells,
        first=(np.cumsum(cells) - cells).astype(index),
        index=index,
        event_row=event_row,
        indptr=indptr,
        par=par,
        idle=[],
    )


def _more_gaps(rng, last: int, expect: int, n_cells: int, logq) -> list[np.ndarray]:
    """The positions after last of a sparse stream whose first block of
    gaps ended before n_cells: more blocks, expect halved before each, until
    one passes n_cells."""
    out = []
    while True:
        expect = max(1, expect // 2)
        u = rng.random(_draws(expect))
        run = last + np.cumsum(np.floor(np.log(u) / logq).astype(np.int64) + 1)
        out.append(run[run < n_cells])
        if run.size and run[-1] >= n_cells:
            return out
        if run.size:
            last = int(run[-1])


def _noise_events(streams: _Streams, gens: list, seed: int, chunk: int, w: int):
    """One chunk's noise events on w shots as (event bit, shot) pairs, the
    shots in the index dtype (see _Streams).

    Stream s draws from gens[s], its Philox re-keyed on (seed, annotation
    index << 24 XOR chunk) with a zero counter.  A stream with p < _DENSE_P
    draws one block of _draws uniforms, turned into geometric gaps and
    positions with the other sparse streams' blocks in one pass; in the
    rare stream whose block ends before its last cell, more blocks follow.
    A stream with p >= _DENSE_P draws one uniform per cell: an event where
    u < p, of Pauli term floor(n_types u / p).  A sparse Pauli stream with
    events then draws their terms with Generator.integers.
    """
    n_cells = w * streams.cells
    dense = streams.p >= _DENSE_P
    sparse = np.flatnonzero(~dense)
    expect = (n_cells[sparse] * streams.p[sparse]).astype(np.int64) + 1
    m = _draws(expect)
    ends = np.cumsum(m)
    starts = ends - m
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    keys = (streams.key ^ np.uint64(chunk)).tolist()

    def rekey(s: int) -> np.random.Generator:
        key[1] = keys[s]
        gens[s].bit_generator.state = state
        return gens[s]

    # every sparse block in one buffer, worked in place
    run = np.empty(int(ends[-1]) if m.size else 0)
    for s, a, b in zip(sparse.tolist(), starts.tolist(), ends.tolist()):
        rekey(s).random(out=run[a:b])
    np.log(run, out=run)
    run /= np.repeat(streams.logq[sparse], m)
    run = np.floor(run, out=run).astype(np.int64)
    run += 1
    if run.size:
        # running sums from -1 within each block: the first gap of a block
        # takes back the total of the block before it
        total = np.add.reduceat(run, starts)
        run[starts[1:]] -= total[:-1]
        run[0] -= 1
        np.cumsum(run, out=run)
    keep = run < np.repeat(n_cells[sparse], m)

    extra = []  # (stream, positions, terms or None) outside the batch
    for j in np.flatnonzero(keep[ends - 1]).tolist():
        s, a, b = int(sparse[j]), int(starts[j]), int(ends[j])
        more = _more_gaps(
            gens[s], int(run[b - 1]), int(expect[j]), n_cells[s], streams.logq[s]
        )
        extra.append((s, np.concatenate([run[a:b], *more]), None))
        keep[a:b] = False
    for s in np.flatnonzero(dense).tolist():
        u = rekey(s).random(n_cells[s])
        pos = np.flatnonzero(u < streams.p[s])
        n_types = streams.n_types[s]
        types = np.floor(n_types * u[pos] / streams.p[s]).astype(np.int64)
        extra.append((s, pos, np.clip(types, 0, n_types - 1, out=types)))

    idx = np.flatnonzero(keep)
    stream = np.repeat(sparse, np.diff(np.searchsorted(idx, ends), prepend=0))
    pos = run[idx].astype(streams.index)
    del run, keep, idx
    if extra:
        stream = np.concatenate([stream] + [np.full(x[1].size, x[0]) for x in extra])
        pos = np.concatenate([pos] + [x[1] for x in extra], dtype=streams.index)
        order = np.argsort(stream, kind="stable")
        stream, pos = stream[order], pos[order]
    bounds = np.searchsorted(stream, np.arange(len(gens) + 1)).tolist()
    code = np.zeros(pos.size, dtype=np.uint8)  # the term, 0 for an outcome flip
    terms = {s: t for s, _, t in extra if t is not None}
    for s, n_types in enumerate(streams.n_types):
        a, b = bounds[s], bounds[s + 1]
        if n_types > 1 and a < b:
            code[a:b] = terms[s] if s in terms else gens[s].integers(0, n_types, b - a)
    code += 1

    # decode, event-level arrays in the index dtype and each freed once
    # used: an event bit per set bit of an event's code, in event order
    shot, cell = np.divmod(pos, streams.cells.astype(streams.index)[stream])
    del pos
    cell += streams.first[stream]
    cell *= 4
    del stream
    bit = np.flatnonzero(np.take(_CODE_BITS, code, axis=0))  # 4 event + code bit
    del code
    event = bit >> 2
    bit &= 3
    bit += np.take(cell, event)
    return bit, np.take(shot, event)


def sample_shots(circuit: CircuitProgram, seed: int, shots: int) -> ShotBatch:
    """Sample detector and observable frame bits under the annotated noise.

    Each chunk of up to _CHUNK shots draws its noise events in one batched
    pass (see _noise_events) and adds up their event bits' table rows in
    the output, _EVENT_BATCH bits at a time.  The first call on a program
    builds the streams and the event table once, one kernel column per
    stretch of event bits (see _Streams), and keeps them on the program
    until its instructions, detectors or observables are other objects.

    Deterministic for fixed (circuit, seed, shots); all-zero output for a
    noiseless circuit.  Raises ValueError unless shots is an integer >= 1
    and seed an integer (numpy integers are accepted, bools are not), and
    CircuitError when a detector or observable references a missing record,
    an observable index is out of range or an instruction targets a qubit
    the circuit does not have.
    """
    for name, value in (("shots", shots), ("seed", seed)):
        _require_int(value, ValueError, f"{name} must be an integer, not {value!r}")
    shots, seed = int(shots), int(seed)
    if shots < 1:
        raise ValueError("shots must be positive")
    ops, slices = _compiled(circuit)
    sources = (circuit.instructions, circuit.n_qubits, circuit.n_records)
    sources += (circuit.detectors, circuit.observables)
    streams = circuit.cached(
        "noise", sources, lambda: _noise_streams(circuit, ops, slices)
    )
    n_det = circuit.n_detectors
    n_obs = circuit.n_observables

    det_out = np.zeros((shots, n_det), dtype=np.uint8)
    obs_out = np.zeros((shots, n_obs), dtype=np.uint8)

    try:
        gens = streams.idle.pop()
    except IndexError:  # the first call, or every set is in use
        gens = [np.random.Generator(np.random.Philox(key=0)) for _ in streams.n_types]
    try:
        for chunk_idx, lo in enumerate(range(0, shots, _CHUNK)):
            w = min(_CHUNK, shots - lo)
            bits, shot = _noise_events(streams, gens, seed, chunk_idx, w)
            dets, obs = det_out[lo : lo + w], obs_out[lo : lo + w]
            for a in range(0, bits.size, _EVENT_BATCH):
                rows = streams.event_row[bits[a : a + _EVENT_BATCH]]
                pos, length = _gather(streams.indptr, rows)
                par = streams.par[pos]
                at = np.repeat(shot[a : a + _EVENT_BATCH], length)
                det = par < n_det
                for out, keys in (
                    (dets, at[det] * n_det + par[det]),
                    (obs, at[~det] * n_obs + (par[~det] - n_det)),
                ):
                    # a uint8 array of ones keeps ufunc.at on its fast path
                    np.add.at(out.reshape(-1), keys, np.ones(keys.size, np.uint8))
            dets &= 1
            obs &= 1
    finally:
        streams.idle.append(gens)
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
    # counts from extraction: terms, graph-like terms, splits, edges
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def n_edges(self) -> int:
        return len(self.probability)

    @property
    def weights(self) -> np.ndarray:
        p = np.clip(self.probability, 1e-300, 0.5 - 1e-12)
        return -np.log(p / (1.0 - p))


def _compose(p1, p2):
    """The probability that exactly one of two independent events occurs;
    floats or arrays, with the same operations in the same order."""
    return p1 * (1 - p2) + p2 * (1 - p1)


class _Signatures(NamedTuple):
    """Detector lists and observable bitmasks of n items in CSR form: item k
    flips the detectors dets[indptr[k] : indptr[k + 1]] (ascending) and the
    observables set in masks[k]."""

    indptr: np.ndarray
    dets: np.ndarray
    masks: np.ndarray

    @classmethod
    def from_pairs(cls, n: int, item, par, n_det: int) -> "_Signatures":
        """From (item, parity row) pairs sorted by item, then row; parity rows
        n_det and up are observables, as in the parity slices."""
        is_det = par < n_det
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(item[is_det], minlength=n), out=indptr[1:])
        masks = np.zeros(n, dtype=np.uint64)
        obs = ~is_det
        bit = np.left_shift(np.uint64(1), (par[obs] - n_det).astype(np.uint64))
        np.bitwise_or.at(masks, item[obs], bit)
        return cls(indptr, par[is_det], masks)

    def row(self, k: int) -> tuple[tuple[int, ...], int]:
        """(detectors, observable mask) of item k."""
        dets = self.dets[self.indptr[k] : self.indptr[k + 1]]
        return tuple(dets.tolist()), int(self.masks[k])


class _Columns(NamedTuple):
    """Atom columns in slot order: column c injects one single-qubit Pauli
    into frame row row[c] at slot[c], where slot 2i is just before
    instruction i and slot 2i + 1 just after it, and flips sigs' item c."""

    slot: np.ndarray
    row: np.ndarray
    sigs: _Signatures


def _record_signatures(circuit: CircuitProgram, slices) -> _Signatures:
    """Each record's detectors and observables, read from the parity slices."""
    par = [np.empty(0, dtype=np.int64)]
    rec = [np.empty(0, dtype=np.int64)]
    for a, b, flat, _, sizes in slices:
        par.append(np.repeat(np.arange(a, b), sizes))
        rec.append(flat)
    par = np.concatenate(par)
    rec = np.concatenate(rec)
    order = np.lexsort((par, rec))
    return _Signatures.from_pairs(
        circuit.n_records, rec[order], par[order], circuit.n_detectors
    )


def _atom_columns(circuit: CircuitProgram, ops, slices) -> _Columns:
    """Run the compiled ops over atom columns (see _propagate).

    Each noise cell of a Depolarize1 or Depolarize2 with p > 0 gets an X and
    a Z column per qubit, in cell order, just before the instruction.  Each
    product of a MeasurePP with flip_p > 0 gets a Pauli on its first qubit
    that anticommutes with the product there, in one column just before
    the measurement and in one just after it, in product order.  Columns
    on one stretch of a frame row share one run (see _stretch_signatures).
    """
    n = circuit.n_qubits
    slot, rows = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i, op in enumerate(ops):
        if op[0] == _PAULI and op[2] > 0:
            q = op[3].reshape(-1)
            r = np.stack([q, q + n], axis=1).reshape(-1)
            slot.append(np.full(r.size, 2 * i))
        elif op[0] == _MEASURE and op[2] > 0:
            nprod, flat, starts, sizes = op[4:]
            if not sizes.all():
                raise GraphExtractionError(
                    f"instruction {i}: a product with a noisy outcome measures no qubit"
                )
            # the first row a product reads is an X row where it has a Z
            # component on its first qubit and a Z row otherwise
            r = np.tile(flat[starts], 2)
            slot.append(np.repeat([2 * i, 2 * i + 1], nprod))
        else:
            continue
        rows.append(r)
    slot = np.concatenate(slot)
    rows = np.concatenate(rows)
    stretch, indptr, par = _stretch_signatures(circuit, ops, slices, slot, rows)
    n_runs = indptr.size - 1
    sigs = _Signatures.from_pairs(
        n_runs, np.repeat(np.arange(n_runs), np.diff(indptr)), par, circuit.n_detectors
    )
    pos, length = _gather(sigs.indptr, stretch)
    indptr = np.zeros(stretch.size + 1, dtype=np.int64)
    np.cumsum(length, out=indptr[1:])
    sigs = _Signatures(indptr, sigs.dets[pos], sigs.masks[stretch])
    return _Columns(slot, rows, sigs)


def _gauge_columns(circuit: CircuitProgram) -> tuple[np.ndarray, ...]:
    """(slot, frame row, column) injections of the stabiliser gauges, by column.

    Each column is one Pauli that stabilises the noiseless state where it
    is injected: Z on every qubit before the first instruction, Z on each
    target just after a Reset, X_aX_b and Z_aZ_b just after a BellPrep of
    (a, b), and each measured product just after its MeasurePP.
    """
    n = circuit.n_qubits
    slots, paulis = [0] * n, [[q + n] for q in range(n)]
    for i, instr in enumerate(circuit.instructions):
        if isinstance(instr, Reset):
            new = [[q + n] for q in instr.targets]
        elif isinstance(instr, BellPrep):
            new = [rows for a, b in instr.pairs for rows in ([a, b], [a + n, b + n])]
        elif isinstance(instr, MeasurePP):
            # bit0 of a Pauli code is its X component (row q), bit1 its Z (row q + n)
            new = [
                [q + n * z for q, p in prod for z in (0, 1) if _CODE[p] >> z & 1]
                for prod in instr.products
                if prod
            ]
        else:
            continue
        slots += [2 * i + 1] * len(new)
        paulis += new
    row, _, sizes = _index_lists(paulis)
    col = np.repeat(np.arange(len(paulis)), sizes)
    return np.repeat(np.asarray(slots, dtype=np.int64), sizes), row, col


def _random_parities(circuit: CircuitProgram, parity_lists) -> np.ndarray:
    """For each list of records, whether the XOR of their noiseless outcomes
    is random.  Each list is read as a set, as the sampler reads detector
    and observable lists: a record listed twice counts once.

    Frame randomisation as in stim: multiplying the frame by a stabiliser of
    the state leaves every outcome distribution as it is, so a parity that
    some gauge column (see _gauge_columns) flips takes both values, and the
    gauges generate every random outcome, so one that no gauge flips is
    deterministic.  Raises CircuitError where the instructions do not
    compile (see _compile_ops).
    """
    slices = _parity_slices([sorted(set(recs)) for recs in parity_lists])
    flipped = np.zeros(len(parity_lists), dtype=bool)
    for _, bits in _run_columns(
        circuit, _compiled_ops(circuit), *_gauge_columns(circuit), slices
    ):
        flipped |= bits.any(axis=1)
    return flipped


# The 4^k - 1 Pauli terms of a k-qubit depolarising cell as sets of the
# cell's 2k atom columns, column c the X (c even) or Z component of qubit
# c // 2: (column offsets, sizes).  Term t - 1 puts Pauli
# (t >> 2(k - 1 - j)) & 3 (bit0 X, bit1 Z) on qubit j, which is
# itertools.product order over (I, X, Z, Y) per qubit, the first qubit in
# the high bits, as the sampler numbers them.
_PAULI_TERMS = {
    k: _index_lists(
        [
            [c for c in range(2 * k) if (t >> 2 * (k - 1 - c // 2) + c % 2) & 1]
            for t in range(1, 4**k)
        ]
    )[::2]
    for k in (1, 2)
}
_TERM_BATCH = 1 << 12  # terms whose signatures are expanded at once
# (flat, sizes, p, instruction, record) of no terms, as _term_batches yields them
_NO_TERMS = (np.empty(0, np.int64),) * 2 + (np.empty(0),) + (np.empty(0, np.int64),) * 2


def _stack(parts: list) -> list[np.ndarray]:
    """Concatenate per-batch tuples of arrays field by field; empties parts."""
    out = [np.concatenate(a) for a in zip(*parts)]
    parts.clear()
    return out


def _term_batches(ops, slot: np.ndarray):
    """Every Pauli term and record flip as a set of atom columns, in
    instruction order, in batches of whole instructions that stop once
    they hold _TERM_BATCH terms; at least one batch, perhaps empty.

    Yields (flat, sizes, p, instruction, record): term t is the XOR of the
    sizes[t] columns that follow the earlier terms' in flat, occurs with
    probability p[t] and comes from instruction[t]; record[t] is the record
    that a record flip flips, and -1 for a Pauli term.  A record flip's
    columns are its before and its after atom.
    """
    bounds = np.searchsorted(slot, 2 * np.arange(len(ops) + 1)).tolist()
    parts, n_terms = [_NO_TERMS], 0
    for i, op in enumerate(ops):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            continue
        if op[0] == _PAULI:
            k = op[3].shape[1]
            offsets, sizes = _PAULI_TERMS[k]
            flat = (np.arange(lo, hi, 2 * k)[:, None] + offsets).reshape(-1)
            sizes = np.tile(sizes, (hi - lo) // (2 * k))
            p, record = op[2] / (4**k - 1), np.full(sizes.size, -1)
        else:
            nprod = op[4]
            flat = np.arange(lo, hi).reshape(2, nprod).T.reshape(-1)
            sizes = np.full(nprod, 2)
            p, record = op[2], op[3] + np.arange(nprod)
        n = sizes.size
        parts.append((flat, sizes, np.full(n, p), np.full(n, i), record))
        n_terms += n
        if n_terms >= _TERM_BATCH:
            yield _stack(parts)
            n_terms = 0
    if parts:
        yield _stack(parts)


def _term_signatures(sigs: _Signatures, m: int, flat, sizes):
    """Each term's XOR of atom columns: its number of detectors, the
    detectors of all terms as term * m + detector, ascending, and its
    observable mask.  A detector stays where an odd number of the term's
    columns flip it; m exceeds every detector."""
    pos, length = _gather(sigs.indptr, flat)
    term = np.repeat(np.repeat(np.arange(sizes.size), sizes), length)
    keyed = term * m + sigs.dets[pos]
    keyed.sort()
    first = np.ones(keyed.size, dtype=bool)
    first[1:] = keyed[1:] != keyed[:-1]
    runs = np.flatnonzero(first)
    keyed = keyed[runs[np.diff(runs, append=keyed.size) % 2 == 1]]
    count = np.bincount(keyed // m, minlength=sizes.size)
    masks = np.bitwise_xor.reduceat(sigs.masks[flat], np.cumsum(sizes) - sizes)
    return count, keyed, masks


def _record_mismatch(rec_sigs: _Signatures, m: int, record, keyed, masks) -> np.ndarray:
    """Per term, whether it is a record flip whose signature (keyed and
    masks, as from _term_signatures) differs from its record's detectors
    and observables."""
    terms = np.flatnonzero(record >= 0)
    pos, length = _gather(rec_sigs.indptr, record[terms])
    want = np.repeat(terms, length) * m + rec_sigs.dets[pos]
    have = keyed[record[keyed // m] >= 0]
    bad = np.zeros(record.size, dtype=bool)
    bad[np.setxor1d(have, want, assume_unique=True) // m] = True
    bad[terms] |= masks[terms] != rec_sigs.masks[record[terms]]
    return bad


def _fold(p: np.ndarray, *keys: np.ndarray):
    """Compose the probabilities of terms with equal keys, given least
    significant first as for np.lexsort.

    Returns each group's first term, its number of terms and its composed
    probability, the groups in key order.  A group's terms are composed in
    term order, by one vectorised _compose per occurrence rank: the same
    floats as composing them one at a time.
    """
    order = np.lexsort(keys)  # stable: equal keys stay in term order
    new = np.ones(order.size, dtype=bool)
    for k in keys:
        new[1:] &= k[order[1:]] == k[order[:-1]]
    new[1:] = ~new[1:]
    start = np.flatnonzero(new)
    group = (np.cumsum(new) - 1).astype(np.int32)
    rank = (np.arange(order.size) - start[group]).astype(np.int32)
    by_rank = np.argsort(rank, kind="stable")
    prob = np.zeros(start.size)
    lo = 0
    for hi in np.cumsum(np.bincount(rank)).tolist():
        sel = by_rank[lo:hi]
        prob[group[sel]] = _compose(prob[group[sel]], p[order[sel]])
        lo = hi
    return order[start], np.diff(start, append=order.size), prob


def _flip_probabilities(p: np.ndarray, masks: np.ndarray, n_obs: int) -> np.ndarray:
    """Per observable, prod(1 - 2p) over the independent events whose mask
    flips it; the observable flips with probability (1 - that) / 2."""
    bits = np.uint64(1) << np.arange(n_obs, dtype=np.uint64)
    return np.array([np.prod(1 - 2 * p[(masks & bit) != 0]) for bit in bits])


def _split_in_two(dets: tuple, mask: int, known: dict):
    """Step 1: two disjoint known graph-like pieces covering a 3- or
    4-detector set, whose masks XOR to mask; None if there are none.

    Splits are tried in a fixed order (one detector against the other two,
    or pairs), and each part's known masks in ascending order.
    """
    if len(dets) == 3:
        parts = [((dets[i],), dets[:i] + dets[i + 1 :]) for i in range(3)]
    elif len(dets) == 4:
        a, b, c, d = dets
        parts = [((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))]
    else:
        return None
    for left, right in parts:
        right_masks = known.get(right, ())
        for m in known.get(left, ()):
            if m ^ mask in right_masks:
                return [(left, m), (right, m ^ mask)]
    return None


def _split_record_flip(atoms, known: dict):
    """Step 2: split a record flip through its before and after atoms, each
    a (detectors, mask) pair with the detectors an ascending tuple.

    Each atom is split by step 1 where it flips 3 or 4 detectors.  A piece
    found on both sides cancels; pieces that share a detector are joined by
    XOR.  Returns at most two disjoint graph-like pieces, or None.
    """
    pieces = []
    for d, o in atoms:
        if len(d) > 2:
            split = _split_in_two(d, o, known)
            if split is None:
                return None
            pieces += split
        elif d or o:
            pieces.append((d, o))
    groups = []  # (detectors touched, XOR of detectors, XOR of masks)
    for (d, o), n in collections.Counter(pieces).items():
        if n % 2 == 0:
            continue
        touched, dx, ox = set(d), set(d), o
        rest = []
        for g in groups:
            if g[0] & touched:
                touched |= g[0]
                dx, ox = dx ^ g[1], ox ^ g[2]
            else:
                rest.append(g)
        groups = rest + [(touched, dx, ox)]
    out = [(tuple(sorted(dx)), ox) for _, dx, ox in groups if dx or ox]
    if len(out) > 2 or any(not 1 <= len(d) <= 2 for d, _ in out):
        return None
    return out


def extract_decoding_graph(circuit: CircuitProgram) -> DecodingGraph:
    """The decoding graph of the circuit's detector error model.

    Fault signatures come from the compiled ops, run over atom columns
    (see _atom_columns).  Each Pauli term of a Depolarize1 (X, Y, Z; p/3
    each) or Depolarize2 (15 terms, p/15 each) is the XOR of its qubits'
    atom columns.  A record flip (flip_p) flips its record's
    detectors and observables, which must equal the XOR of its before and
    after columns.  Terms with the same detectors and observable mask are
    composed as independent events.

    A term that flips one or two detectors is an edge.  A term that flips
    three or four is split into graph-like pieces, each composed into its
    edge with the term's probability, by the first rule that applies:

    1. two disjoint parts of its detector set, each a graph-like mechanism
       of some term (known before any split), whose observable masks XOR
       to the term's mask;
    2. for a record flip only, its before and after atoms, each split by
       rule 1 where needed, with pieces found on both sides dropped and
       pieces sharing a detector joined, if that leaves at most two
       disjoint graph-like pieces.

    The terms are array rows, never Python objects: batches of whole
    instructions (_term_batches) expand each term's columns through the
    column signatures and keep the detectors flipped an odd number of
    times (_term_signatures).  Only the graph-like terms' keys and
    probabilities and the 3- and 4-detector terms are kept past their
    batch.  Equal keys are folded by np.lexsort and one vectorised
    _compose per occurrence rank (_fold); only the distinct Pauli
    hyperedges and the record flips with 3 or 4 detectors go through the
    splits in Python.  Each edge's probability is composed in this order,
    which makes the graph independent of the batching, bit for bit: its
    graph-like terms in term order, then rule-1 pieces of the Pauli terms
    (each distinct Pauli hyperedge composed over its terms first, the
    hyperedges in the order of their first term), then the pieces of the
    3- and 4-detector record flips in term order.

    Raises GraphExtractionError, naming the instruction and the number of
    detectors, for a term that flips an observable but no detector, a term
    that flips five or more detectors, and a term that neither rule splits;
    also where a record flip differs from its before and after columns, a
    noisy product measures no qubit, or there are more than 64 observables.
    Of the terms at fault, the first in term order raises.  graph.stats
    counts the terms, graph-like terms, rule-1 and rule-2 splits and edges,
    and gives each observable's flip probability twice: over the terms
    (obs_flip_terms) and over the graph's edges taken as independent
    (obs_flip_graph), which differ where a split hands a piece an
    observable that the term does not flip.
    """
    if circuit.n_observables > 64:
        raise GraphExtractionError("observable masks hold at most 64 observables")
    ops, slices = _compiled(circuit)
    cols = _atom_columns(circuit, ops, slices)
    rec_sigs = _record_signatures(circuit, slices)
    n_obs = circuit.n_observables
    m = max(circuit.n_detectors, 1)

    graphlike, pauli_hyper, record_hyper = [], [], []
    keep = np.ones(n_obs)  # per observable, prod(1 - 2p) over the terms
    n_terms = 0
    for flat, sizes, p, instr, record in _term_batches(ops, cols.slot):
        count, keyed, masks = _term_signatures(cols.sigs, m, flat, sizes)
        bad = _record_mismatch(rec_sigs, m, record, keyed, masks)
        fault = bad | (count > 4) | ((count == 0) & (masks != 0))
        if fault.any():
            t = int(np.argmax(fault))
            if bad[t]:
                why = (
                    f"the flip of record {record[t]} is not the XOR of a Pauli "
                    "just before and just after its measurement"
                )
            elif count[t]:
                why = (
                    f"a mechanism flips {count[t]} detectors, more than the 4 "
                    "that can be split into graph-like pieces"
                )
            else:
                why = "a mechanism flips an observable but 0 detectors"
            raise GraphExtractionError(f"instruction {instr[t]}: {why}")
        term = keyed // m
        dets = np.full((sizes.size, 4), -1, dtype=np.int32)
        dets[term, np.arange(term.size) - (np.cumsum(count) - count)[term]] = keyed % m
        n_terms += int(np.count_nonzero(count))
        keep *= _flip_probabilities(p, masks, n_obs)
        g = (count == 1) | (count == 2)
        graphlike.append((dets[g, 0], dets[g, 1], masks[g], p[g]))
        hyper = count > 2
        h = hyper & (record < 0)
        pauli_hyper.append((dets[h], masks[h], instr[h], p[h]))
        h = hyper & (record >= 0)
        # a record flip's before and after columns are its two in flat
        at = (np.cumsum(sizes) - sizes)[h]
        record_hyper.append((dets[h], masks[h], p[h], instr[h], flat[at], flat[at + 1]))
    d1, d2, masks, p = _stack(graphlike)
    first, _, prob = _fold(p, masks, d2, d1)
    stats = {
        "terms": n_terms,
        "graphlike_terms": masks.size,
        "step1_splits": 0,
        "step2_splits": 0,
    }

    edges: dict[tuple, float] = {}  # (detectors, mask) -> p
    for a, b, o, q in zip(*(x[first].tolist() for x in (d1, d2, masks)), prob.tolist()):
        edges[(a,) if b < 0 else (a, b), o] = q
    known: dict[tuple, list[int]] = {}  # detectors -> masks, ascending
    for dets, o in edges:
        known.setdefault(dets, []).append(o)

    def add(pieces, p):
        for piece in pieces:
            edges[piece] = _compose(edges.get(piece, 0.0), p)

    dets, masks, instr, p = _stack(pauli_hyper)
    first, size, prob = _fold(p, masks, *dets.T[::-1])
    seen = np.argsort(first)
    first = first[seen]
    for row, o, i, n, q in zip(
        dets[first].tolist(),
        masks[first].tolist(),
        instr[first].tolist(),
        size[seen].tolist(),
        prob[seen].tolist(),
    ):
        row = tuple(d for d in row if d >= 0)
        pieces = _split_in_two(row, o, known)
        if pieces is None:
            raise GraphExtractionError(
                f"instruction {i}: a mechanism flipping {len(row)} detectors does "
                "not split into two known graph-like mechanisms"
            )
        stats["step1_splits"] += n
        add(pieces, q)
    for row, o, q, i, before, after in zip(
        *(np.concatenate(a).tolist() for a in zip(*record_hyper))
    ):
        row = tuple(d for d in row if d >= 0)
        pieces = _split_in_two(row, o, known)
        if pieces is not None:
            stats["step1_splits"] += 1
        else:
            atoms = (cols.sigs.row(before), cols.sigs.row(after))
            pieces = _split_record_flip(atoms, known)
            if pieces is None:
                raise GraphExtractionError(
                    f"instruction {i}: a measurement error flipping {len(row)} "
                    "detectors does not split into at most two graph-like pieces"
                )
            stats["step2_splits"] += 1
        add(pieces, q)

    keys = sorted(edges)
    graph = DecodingGraph(
        n_detectors=circuit.n_detectors,
        n_observables=n_obs,
        det1=np.array([d[0] for d, _ in keys], dtype=np.int32),
        det2=np.array([d[1] if len(d) == 2 else -1 for d, _ in keys], dtype=np.int32),
        probability=np.array([edges[k] for k in keys], dtype=np.float64),
        obs_mask=np.array([o for _, o in keys], dtype=np.uint64),
        stats=stats,
    )
    stats["edges"] = len(keys)
    stats["obs_flip_terms"] = ((1 - keep) / 2).tolist()
    graph_keep = _flip_probabilities(graph.probability, graph.obs_mask, n_obs)
    stats["obs_flip_graph"] = ((1 - graph_keep) / 2).tolist()
    return graph
