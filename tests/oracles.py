"""Independent brute-force oracles used only by the test suite."""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

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
from floqnet.lattice import (
    Edge,
    Face,
    Lattice,
    LatticeError,
    NotThreeColorableError,
    validate_lattice,
)
from floqnet import sim
from floqnet.sim import _CHUNK, ShotBatch

_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class StatevectorSim:
    """Dense simulator of Pauli-product measurements on few qubits.

    The k-th random outcome takes branches[k] (0 past its end, the +1
    branch), counting those of measure and those of the Z measurement
    inside reset_z: a reset measures its qubit and flips it back to |0>, so
    an entangled partner keeps a random outcome.  The XX projection inside
    bell_prep, which follows two resets, takes the +1 branch and draws no
    branch.
    """

    def __init__(self, n_qubits: int, branches=()):
        self.n = n_qubits
        self.psi = np.zeros(2**n_qubits, dtype=complex)
        self.psi[0] = 1.0
        self.branches = tuple(branches)
        self.n_random = 0

    def _pauli_matrix(self, terms: dict[int, str]) -> np.ndarray:
        mats = [_P1[terms.get(q, "I")] for q in range(self.n)]
        out = np.array([[1.0]], dtype=complex)
        for m in mats:
            out = np.kron(out, m)
        return out

    def apply_pauli(self, terms: dict[int, str]) -> None:
        self.psi = self._pauli_matrix(terms) @ self.psi

    def _collapse(self, terms: dict[int, str], branch: int) -> tuple[int, bool]:
        """Project onto an outcome of a Pauli product, branch if it is random.
        Returns (outcome_bit, was_deterministic)."""
        P = self._pauli_matrix(terms)
        plus = 0.5 * (self.psi + P @ self.psi)
        p0 = float(np.vdot(plus, plus).real)
        if p0 > 1 - 1e-9:
            bit, det = 0, True
        elif p0 < 1e-9:
            bit, det = 1, True
        else:
            bit, det = branch, False
        post = 0.5 * (self.psi + (-1) ** bit * (P @ self.psi))
        self.psi = post / np.sqrt(float(np.vdot(post, post).real))
        return bit, det

    def measure(self, terms: dict[int, str]) -> tuple[int, bool]:
        """Measure a Pauli product. Returns (outcome_bit, was_deterministic)."""
        k = self.n_random
        bit, det = self._collapse(terms, self.branches[k] if k < len(self.branches) else 0)
        if not det:
            self.n_random += 1
        return bit, det

    def reset_z(self, q: int) -> None:
        bit, _ = self.measure({q: "Z"})
        if bit:
            self.apply_pauli({q: "X"})

    def bell_prep(self, a: int, b: int) -> None:
        self.reset_z(a)
        self.reset_z(b)
        bit, _ = self._collapse({a: "X", b: "X"}, 0)
        if bit:
            self.apply_pauli({a: "Z"})


def reference_constraint_matrix(gens, rows) -> list[int]:
    """Every generator against every constraint row, as one column int per
    generator: bit i of column j is 1 when generator j = (t, codes)
    anticommutes with the Pauli row i = (s, ((qubit, code), ...)), and 0
    where t > s.  Two single-qubit Paulis anticommute when both are not the
    identity and they differ."""
    cols = []
    for t, codes in gens:
        col = 0
        for i, (s, row) in enumerate(rows):
            if t > s:
                continue
            val = 0
            for q, pauli in row:
                mine = codes.get(q, 0)
                val ^= mine not in (0, pauli)
            col |= val << i
        cols.append(col)
    return cols


def reference_span(rows) -> set[int]:
    """Every XOR of a subset of the int rows, listed by brute force."""
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    return span


def reference_extend_basis(T, K) -> list[int]:
    """Rows of K outside the span of T and of the rows kept before them,
    tried one at a time in order."""
    span = reference_span(T)
    out = []
    for row in K:
        if row not in span:
            out.append(row)
            span |= {s ^ row for s in span}
    return out


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
                    timelines[q].append(("meas", rec, _CODE[p]))
                rec += 1
    return timelines


def reference_atom_signatures(circuit: CircuitProgram):
    """Signature of every (qubit, slot, X or Z) Pauli insertion, by walking
    each qubit's timeline backwards.

    sigs[q][i][pcode] is the (detector set, observable mask) flipped by a
    Pauli (pcode 1 = X, 2 = Z) placed just before the i-th event on qubit
    q; slot len(events) sits after everything and is trivial.  A record
    that a detector lists twice counts once.
    """
    rec_dets = [set() for _ in range(circuit.n_records)]
    for d, det in enumerate(circuit.detectors):
        for r in det.records:
            rec_dets[r].add(d)
    rec_dets = [frozenset(x) for x in rec_dets]
    rec_obs = [0] * circuit.n_records
    for obs in circuit.observables:
        for r in obs.records:
            rec_obs[r] |= 1 << obs.index
    sigs = []
    for events in _qubit_timelines(circuit):
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


def brute_force_min_weight(weights, syndromes, obs_masks, target_syndrome, max_size):
    """Minimum-weight subset of mechanisms producing a target syndrome.

    Every subset of at most max_size mechanisms is tried; with non-uniform
    weights a larger subset can be lighter, so no size is skipped.
    Returns (min_weight, set of achievable observable masks at that weight),
    or (None, set()) when nothing within max_size matches.
    """
    m = len(weights)
    best = None
    masks = set()
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(range(m), size):
            syn = 0
            obs = 0
            w = 0
            for i in combo:
                syn ^= syndromes[i]
                obs ^= obs_masks[i]
                w += weights[i]
            if syn == target_syndrome:
                if best is None or w < best - 1e-12:
                    best = w
                    masks = {obs}
                elif abs(w - best) <= 1e-12:
                    masks.add(obs)
    return best, masks


def _annotation_rng(seed: int, ann: int, chunk: int) -> np.random.Generator:
    """A fresh generator for noise annotation ann in shot chunk chunk."""
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64((ann << 24) ^ chunk)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _sample_events(rng, n_cells: int, p: float, n_types: int):
    """Positions and types of iid error events on n_cells Bernoulli(p) cells,
    one stream at a time: the definition the batched sampler reproduces.
    Each block of gaps draws sim._draws(expect) uniforms, read at call time
    so that a test can patch the block size for both samplers at once."""
    if p <= 0 or n_cells == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if p >= sim._DENSE_P:
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
        m = sim._draws(expect)
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


def reference_sample_shots(circuit: CircuitProgram, seed: int, shots: int) -> ShotBatch:
    """The unpacked Pauli-frame sampler: one uint8 per shot and qubit.

    Loops over every measured product in Python and accumulates detector
    and observable parities as dense (shots x detectors) products.  It draws
    each noise stream alone, from a fresh generator (_sample_events), where
    floqnet.sim.sample_shots batches them; their outputs must be equal bit
    for bit.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
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
                        code = _CODE[p]
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


def _bitset(dets) -> int:
    return sum(1 << d for d in dets)


def _members(bits: int) -> tuple[int, ...]:
    """The set bits of a detector bitset, ascending."""
    return tuple(d for d in range(bits.bit_length()) if bits >> d & 1)


def _between(sigs, lo: int, hi: int) -> list[tuple[int, int]]:
    """(detector bitset, observable mask) of signature items lo..hi-1."""
    ptr = sigs.indptr
    return [
        (_bitset(sigs.dets[ptr[k] : ptr[k + 1]].tolist()), int(sigs.masks[k]))
        for k in range(lo, hi)
    ]


def _reference_terms(ops, cols, rec_sigs):
    """Every Pauli term and record flip, one at a time, in instruction order.

    Yields (instruction, detector bitset, observable mask, p, atoms), where
    atoms is the (before, after) column signature pair of a record flip and
    None for a Pauli term.  A Pauli term is the XOR of its qubits' columns.
    """
    bounds = np.searchsorted(cols.slot, 2 * np.arange(len(ops) + 1)).tolist()
    identity = (0, 0)
    for i, op in enumerate(ops):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            continue
        sigs = _between(cols.sigs, lo, hi)
        if op[0] == sim._PAULI:
            p, k = op[2], op[3].shape[1]
            p_term = p / (4**k - 1)
            for c in range(0, len(sigs), 2 * k):
                # per qubit: I, X, Z, Y = XZ
                cell = sigs[c : c + 2 * k]
                sides = [
                    (identity, x, z, (x[0] ^ z[0], x[1] ^ z[1]))
                    for x, z in zip(cell[::2], cell[1::2])
                ]
                for paulis in itertools.islice(itertools.product(*sides), 1, None):
                    d, o = paulis[0]
                    for dd, oo in paulis[1:]:
                        d, o = d ^ dd, o ^ oo
                    yield i, d, o, p_term, None
        else:
            flip_p, rec, nprod = op[2], op[3], op[4]
            for j, want in enumerate(_between(rec_sigs, rec, rec + nprod)):
                before, after = sigs[j], sigs[nprod + j]
                if (before[0] ^ after[0], before[1] ^ after[1]) != want:
                    raise sim.GraphExtractionError(
                        f"instruction {i}: the flip of record {rec + j} is not the "
                        "XOR of a Pauli just before and just after its measurement"
                    )
                yield i, want[0], want[1], flip_p, (before, after)


def reference_decoding_graph(circuit: CircuitProgram) -> sim.DecodingGraph:
    """floqnet.sim.extract_decoding_graph, one term at a time.

    Walks every term as a Python detector bitset and folds it into a dict
    of edges, with the same splits (floqnet.sim._split_in_two and
    _split_record_flip) and the same composition order, so the graph must
    equal extract_decoding_graph's bit for bit.  The stats hold the same
    counts; obs_flip_terms and obs_flip_graph are composed in another
    order, so they agree only to rounding.
    """
    if circuit.n_observables > 64:
        raise sim.GraphExtractionError("observable masks hold at most 64 observables")
    ops, slices = sim._compiled(circuit)
    cols = sim._atom_columns(circuit, ops, slices)
    rec_sigs = sim._record_signatures(circuit, slices)

    edges: dict[tuple, float] = {}  # (detectors, mask) -> p
    pauli_hyper: dict[tuple, list] = {}  # (detectors, mask) -> [p, instruction, terms]
    record_hyper: list[tuple] = []  # ((detectors, mask), p, instruction, atoms)
    stats = dict.fromkeys(
        ("terms", "graphlike_terms", "step1_splits", "step2_splits"), 0
    )
    keep = defaultdict(lambda: 1.0)  # observable -> prod(1 - 2p) over its terms
    for i, d, o, p, atoms in _reference_terms(ops, cols, rec_sigs):
        if not d:
            if o:
                raise sim.GraphExtractionError(
                    f"instruction {i}: a mechanism flips an observable but 0 detectors"
                )
            continue
        stats["terms"] += 1
        for b in range(o.bit_length()):
            if o >> b & 1:
                keep[b] *= 1 - 2 * p
        n_flipped = d.bit_count()
        if n_flipped > 4:
            raise sim.GraphExtractionError(
                f"instruction {i}: a mechanism flips {n_flipped} detectors, "
                "more than the 4 that can be split into graph-like pieces"
            )
        key = (_members(d), o)
        if n_flipped <= 2:
            stats["graphlike_terms"] += 1
            edges[key] = sim._compose(edges.get(key, 0.0), p)
        elif atoms is None:
            entry = pauli_hyper.setdefault(key, [0.0, i, 0])
            entry[0] = sim._compose(entry[0], p)
            entry[2] += 1
        else:
            record_hyper.append((key, p, i, atoms))

    known: dict[tuple, list[int]] = {}  # detectors -> masks, ascending
    for dets, o in sorted(edges):
        known.setdefault(dets, []).append(o)

    def add(pieces, p):
        for piece in pieces:
            edges[piece] = sim._compose(edges.get(piece, 0.0), p)

    for (dets, o), (p, i, n_terms) in pauli_hyper.items():
        pieces = sim._split_in_two(dets, o, known)
        if pieces is None:
            raise sim.GraphExtractionError(
                f"instruction {i}: a mechanism flipping {len(dets)} detectors does "
                "not split into two known graph-like mechanisms"
            )
        stats["step1_splits"] += n_terms
        add(pieces, p)
    for (dets, o), p, i, atoms in record_hyper:
        pieces = sim._split_in_two(dets, o, known)
        if pieces is not None:
            stats["step1_splits"] += 1
        else:
            atoms = [(_members(d), m) for d, m in atoms]
            pieces = sim._split_record_flip(atoms, known)
            if pieces is None:
                raise sim.GraphExtractionError(
                    f"instruction {i}: a measurement error flipping {len(dets)} "
                    "detectors does not split into at most two graph-like pieces"
                )
            stats["step2_splits"] += 1
        add(pieces, p)

    keys = sorted(edges)
    stats["edges"] = len(keys)
    n_obs = circuit.n_observables
    stats["obs_flip_terms"] = [(1 - keep[b]) / 2 for b in range(n_obs)]
    graph_keep = [1.0] * n_obs
    for (_, o), p in edges.items():
        for b in range(n_obs):
            if o >> b & 1:
                graph_keep[b] *= 1 - 2 * p
    stats["obs_flip_graph"] = [(1 - k) / 2 for k in graph_keep]
    return sim.DecodingGraph(
        n_detectors=circuit.n_detectors,
        n_observables=n_obs,
        det1=np.array([d[0] for d, _ in keys], dtype=np.int32),
        det2=np.array([d[1] if len(d) == 2 else -1 for d, _ in keys], dtype=np.int32),
        probability=np.array([edges[k] for k in keys], dtype=np.float64),
        obs_mask=np.array([o for _, o in keys], dtype=np.uint64),
        stats=stats,
    )


def reference_color_faces(lat: Lattice) -> Lattice:
    """Properly 3-colour the faces and derive edge colours, by search.

    An oracle for floqnet.lattice.color_faces that does not rely on the
    colouring being forced.  Already-coloured lattices are verified and
    returned unchanged.  Uses most-constrained-face-first backtracking with
    ties broken by face id, and so completes partial colourings; raises
    NotThreeColorableError when the exhaustive search fails.
    """
    if all(f.color is not None for f in lat.faces) and all(
        e.color is not None for e in lat.edges
    ):
        validate_lattice(lat, require_colors=True)
        return lat

    ef = lat.edge_faces()
    n_faces = len(lat.faces)
    neighbours: list[set[int]] = [set() for _ in range(n_faces)]
    for e in range(len(lat.edges)):
        a, b = ef[e]
        if a == b:
            raise NotThreeColorableError(
                f"face {a} is adjacent to itself across edge {e}; not 3-colorable"
            )
        neighbours[a].add(b)
        neighbours[b].add(a)

    colors: list[Optional[int]] = [f.color for f in lat.faces]
    for fi, c in enumerate(colors):
        if c is not None:
            for g in neighbours[fi]:
                if colors[g] == c:
                    raise LatticeError(
                        f"pre-assigned colours conflict on faces {fi} and {g}"
                    )

    def options(fi: int) -> list[int]:
        used = {colors[g] for g in neighbours[fi] if colors[g] is not None}
        return [c for c in (0, 1, 2) if c not in used]

    # iterative backtracking; most-constrained face first, ties by id
    trail: list[tuple[int, list[int], int]] = []  # (face, remaining options, depth)

    def pick() -> Optional[int]:
        best = None
        best_opts = 4
        for fi in range(n_faces):
            if colors[fi] is not None:
                continue
            k = len(options(fi))
            if k < best_opts:
                best, best_opts = fi, k
                if k <= 1:
                    break
        return best

    while True:
        fi = pick()
        if fi is None:
            break
        opts = options(fi)
        while not opts:
            # backtrack
            while trail:
                prev, remaining, _ = trail.pop()
                colors[prev] = None
                if remaining:
                    fi, opts = prev, remaining
                    break
            else:
                raise NotThreeColorableError(
                    "exhaustive search found no proper 3-colouring of the faces"
                )
            if opts:
                break
        c = opts.pop(0)
        colors[fi] = c
        trail.append((fi, opts, len(trail)))

    new_faces = tuple(Face(f.edges, colors[i]) for i, f in enumerate(lat.faces))
    new_edges = []
    for i, e in enumerate(lat.edges):
        f0, f1 = ef[i]
        derived = 3 - colors[f0] - colors[f1]
        if e.color is not None and e.color != derived:
            raise LatticeError(
                f"stored colour of edge {i} conflicts with the face colouring"
            )
        new_edges.append(Edge(e.u, e.v, derived))
    out = replace(lat, edges=tuple(new_edges), faces=new_faces)
    validate_lattice(out, require_colors=True)
    return out
