"""Compilation of distributed Floquet-code memory experiments.

A memory experiment initialises all data qubits in Z, runs 6·R measurement
sub-rounds (sub-round t measures every edge of colour t mod 3 with that
colour's Pauli), then reads out transversally in Z.  Local checks are direct
two-qubit Pauli-product measurements; non-local checks route through a noisy
Bell pair and two local pair measurements whose XOR is the check value.

One rule gives every record set, face_value(f, τ): the records whose XOR
is the stabiliser value of face f, of colour c, after sub-round τ.  The
face's edges have colours c - 1 and c + 1 (mod 3), and the product of
either set of checks is the stabiliser, so an inference completes at each
anchor t = c - 1 mod 3: fresh(f, t) is the (c-1)-checks at t XOR the
(c+1)-checks at t - 1, where the checks before sub-round 0 are the Z checks
fixed by the reset.  A Bell-mediated check leaves a branch Pauli on its
data qubits that its halves' X readouts resolve.  The branches of the
anchor's (c-1)-checks, and of the (c+1)-checks at t + 2, fall after the
inference and flip the face (those of the (c+1)-checks at t - 1 fall
inside it and cancel), so face_value(f, τ) is fresh(f, t) at the
latest anchor t <= τ, XOR the Bell X records of the (c-1)-checks at t,
XOR those of the (c+1)-checks at t + 2 once τ >= t + 2.  A colour-2 face
is Z type and fixed by the reset before its first anchor; any other face
is random until then, and face_value is None.  From this rule:

- every bulk detector is fresh(f, s) XOR face_value(f, s - 1), at each
  anchor s where the earlier value is known;
- every closing detector is the transversal readout of a colour-2 face
  XOR face_value(f, 6R - 1);
- the observable tracker multiplies in face f before sub-round s with the
  records face_value(f, s - 1).

The detectors and observables are then certified by the Pauli-frame kernel
of floqnet.sim, run over stabiliser gauges: a parity that some gauge flips
depends on a random measurement outcome, and compiling raises CircuitError
naming it.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from floqnet import gf2
from floqnet.lattice import Lattice, PAULI_OF_COLOR, _require_int, validate_lattice
from floqnet.partition import Partition, validate_partition

__all__ = [
    "NoiseParams",
    "Reset",
    "Depolarize1",
    "Depolarize2",
    "BellPrep",
    "MeasurePP",
    "Detector",
    "Observable",
    "CircuitProgram",
    "CircuitError",
    "DeterminismReport",
    "LogicalOperatorSet",
    "find_logical_observables",
    "build_memory_circuit",
    "validate_determinism",
]


class CircuitError(ValueError):
    pass


def _check_count(name: str, value, least: int) -> None:
    """Raise CircuitError unless value is an integer (not a bool) >= least."""
    _require_int(value, CircuitError, f"{name} must be an integer, not {value!r}")
    if value < least:
        raise CircuitError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class NoiseParams:
    """Two-tier circuit noise: local error rate, Bell-pair error rate, and
    the system-wide stall (in gate cycles) while Bell states are heralded.

    Each rate p is the total probability of a fault: of a non-identity
    term of a depolarising channel, uniform over its 3 or 15 terms, or of a
    flipped outcome.  Read as a process fidelity, F = 1 - p, so (3e-4,
    1e-2) are the paper's local and non-local fidelities of 99.97 % and
    99 %.  A Bell pair under Depolarize2(p) keeps a state fidelity of
    1 - 4p/5, since 3 of the 15 two-qubit terms (XX, YY, ZZ) fix it.
    """

    p_local: float
    p_nonlocal: float
    bell_wait_cycles: int = 5

    def __post_init__(self):
        for name in ("p_local", "p_nonlocal"):
            p = getattr(self, name)
            if isinstance(p, bool) or not isinstance(p, numbers.Real):
                raise CircuitError(f"{name} must be a real number, not {p!r}")
            if not (0.0 <= p <= 1.0):
                raise CircuitError(f"{name}={p} is not a probability")
        _check_count("bell_wait_cycles", self.bell_wait_cycles, 0)


# ---------------------------------------------------------------------------
# instructions

_CODE = {"X": 1, "Z": 2, "Y": 3}  # bit0 = X component, bit1 = Z component


@dataclass(frozen=True)
class Reset:
    targets: tuple[int, ...]


@dataclass(frozen=True)
class Depolarize1:
    p: float
    targets: tuple[int, ...]


@dataclass(frozen=True)
class Depolarize2:
    p: float
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BellPrep:
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MeasurePP:
    """Parallel Pauli-product measurements, one record per product.

    The recorded outcome of each product flips with probability flip_p.
    """

    flip_p: float
    products: tuple[tuple[tuple[int, str], ...], ...]

    def __post_init__(self):
        for prod in self.products:
            for _, p in prod:
                if p not in _CODE:
                    raise CircuitError(f"Pauli {p!r} is not one of X, Y, Z")
            if len({q for q, _ in prod}) != len(prod):
                raise CircuitError(f"product {prod!r} names a qubit twice")


@dataclass(frozen=True)
class Detector:
    records: tuple[int, ...]
    face: int = -1
    anchor: int = -1


@dataclass(frozen=True)
class Observable:
    index: int
    records: tuple[int, ...]


@dataclass
class CircuitProgram:
    name: str
    n_qubits: int
    data_qubits: tuple[int, ...]
    bell_ancillas: tuple[tuple[int, int, int], ...]  # (edge id, a0, a1)
    instructions: tuple
    detectors: tuple[Detector, ...]
    observables: tuple[Observable, ...]
    n_records: int
    # what is derived from the program once and read many times (the
    # kernel's compiled ops and parity slices), by name, with the objects
    # each was derived from; not an init field, so that dataclasses.replace
    # never carries it into a copy with other contents
    kernel_cache: Optional[dict] = field(
        default=None, init=False, compare=False, repr=False
    )

    def measurement_index_ok(self) -> bool:
        """Whether every detector and observable record is in [0, n_records)."""
        lists = [d.records for d in self.detectors]
        lists += [o.records for o in self.observables]
        records = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64)
        return bool(np.all((records >= 0) & (records < self.n_records)))

    def cached(self, name: str, sources: tuple, build):
        """build(), kept under name and built again once any object in
        sources is another object than the one it was built from."""
        cache = self.kernel_cache or {}
        hit = cache.get(name)
        if hit is not None and all(a is b for a, b in zip(hit[0], sources)):
            return hit[1]
        value = build()
        self.kernel_cache = {**cache, name: (sources, value)}
        return value

    @property
    def n_detectors(self) -> int:
        return len(self.detectors)

    @property
    def n_observables(self) -> int:
        return len(self.observables)


# ---------------------------------------------------------------------------
# logical observables from homology


@dataclass(frozen=True)
class LogicalOperatorSet:
    """Independent Z-type logical representatives as vertex-support rows."""

    supports: np.ndarray  # (2g, n_vertices) uint8
    genus: int

    def __len__(self) -> int:
        return self.supports.shape[0]


def _face_vertex_sets(lat: Lattice) -> list[set[int]]:
    out = []
    for f in lat.faces:
        verts: set[int] = set()
        for e in f.edges:
            verts.add(lat.edges[e].u)
            verts.add(lat.edges[e].v)
        out.append(verts)
    return out


def find_logical_observables(lat: Lattice) -> LogicalOperatorSet:
    """Basis of Z-type logical operators: vertex sets with even overlap with
    every X- and Y-type face, modulo the span of stabilizer-valued sets.

    Dimension must equal 2g or the lattice is rejected as corrupt.
    """
    validate_lattice(lat)
    n = lat.n_vertices
    face_rows = [sum(1 << v for v in verts) for verts in _face_vertex_sets(lat)]

    def rows_of(color: int) -> list[int]:
        # the faces and the checks of one colour, as vertex-set rows
        faces = [face_rows[fi] for fi, f in enumerate(lat.faces) if f.color == color]
        return faces + [1 << e.u | 1 << e.v for e in lat.edges if e.color == color]

    kernel = gf2.nullspace(
        [face_rows[fi] for fi, f in enumerate(lat.faces) if f.color in (0, 1)], n
    )
    # stabilizer-valued Z-type sets: Z-colour faces and checks directly, plus
    # X-type and Y-type products that share a support (their product is Z-type)
    trivial = gf2.rref(rows_of(2) + gf2.intersection(rows_of(0), rows_of(1), n))
    # the kernel basis has full rank, so trivial lies in its span exactly
    # when stacking them adds no rank
    if gf2.rank(kernel + trivial) != len(kernel):
        raise CircuitError("stabilizer-valued set escapes the commutant kernel")
    reps = gf2.extend_basis(trivial, kernel)
    if len(reps) != 2 * lat.genus:
        raise CircuitError(
            f"homology rank {len(reps)} does not match 2g = {2 * lat.genus}; "
            "lattice is corrupt"
        )
    # the public supports: bit v of each representative as one uint8
    width = -(-n // 8)
    raw = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in reps), np.uint8)
    supports = np.unpackbits(raw, bitorder="little").reshape(len(reps), 8 * width)
    return LogicalOperatorSet(supports=supports[:, :n].copy(), genus=lat.genus)


# ---------------------------------------------------------------------------
# compilation


def build_memory_circuit(
    lattice: Lattice,
    partition: Optional[Partition],
    noise: NoiseParams,
    n_detector_rounds: int,
) -> CircuitProgram:
    """Compile a Z-basis memory experiment over 6·n_detector_rounds sub-rounds."""
    from floqnet.sim import _random_parities  # sim imports this module

    _check_count("n_detector_rounds", n_detector_rounds, 1)
    validate_lattice(lattice)
    nonlocal_set = set()
    if partition is not None:
        validate_partition(lattice, partition)
        nonlocal_set = set(partition.nonlocal_edges)

    n_data = lattice.n_vertices

    bell_ancillas = []
    anc = {}
    next_q = n_data
    for e in sorted(nonlocal_set):
        anc[e] = (next_q, next_q + 1)
        bell_ancillas.append((e, next_q, next_q + 1))
        next_q += 2
    n_qubits = next_q

    edges_by_color = {c: lattice.edges_of_color(c) for c in range(3)}
    face_vertices = _face_vertex_sets(lattice)

    n_sub = 6 * n_detector_rounds
    instructions: list = []
    n_records = 0
    # per sub-round and edge: records whose XOR is the check value (two halves
    # for Bell-mediated checks), and each Bell-mediated check's closing X
    # readouts of its halves
    check_records: list[dict[int, list[int]]] = [dict() for _ in range(n_sub)]
    bell_records: list[dict[int, list[int]]] = [dict() for _ in range(n_sub)]

    def emit_mpp(flip_p, products):
        nonlocal n_records
        instructions.append(MeasurePP(flip_p, tuple(products)))
        first = n_records
        n_records += len(products)
        return list(range(first, n_records))

    all_data = tuple(range(n_data))
    instructions.append(Reset(all_data))
    if noise.p_local > 0:
        instructions.append(Depolarize1(noise.p_local, all_data))

    for s in range(n_sub):
        color = s % 3
        pauli = PAULI_OF_COLOR[color]
        local_edges = [e for e in edges_by_color[color] if e not in nonlocal_set]
        nl_edges = [e for e in edges_by_color[color] if e in nonlocal_set]

        if nl_edges:
            pairs = tuple(anc[e] for e in nl_edges)
            instructions.append(BellPrep(pairs))
            if noise.p_nonlocal > 0:
                instructions.append(Depolarize2(noise.p_nonlocal, pairs))

        if local_edges:
            pairs = tuple(
                (lattice.edges[e].u, lattice.edges[e].v) for e in local_edges
            )
            if noise.p_local > 0:
                instructions.append(Depolarize2(noise.p_local, pairs))
            prods = [
                ((lattice.edges[e].u, pauli), (lattice.edges[e].v, pauli))
                for e in local_edges
            ]
            recs = emit_mpp(noise.p_local, prods)
            for e, r in zip(local_edges, recs):
                check_records[s][e] = [r]

        if nl_edges:
            u_pairs = tuple((lattice.edges[e].u, anc[e][0]) for e in nl_edges)
            v_pairs = tuple((lattice.edges[e].v, anc[e][1]) for e in nl_edges)
            if noise.p_local > 0:
                instructions.append(Depolarize2(noise.p_local, u_pairs))
            u_prods = [
                ((lattice.edges[e].u, pauli), (anc[e][0], "Z")) for e in nl_edges
            ]
            u_recs = emit_mpp(noise.p_local, u_prods)
            if noise.p_local > 0:
                instructions.append(Depolarize2(noise.p_local, v_pairs))
            v_prods = [
                ((lattice.edges[e].v, pauli), (anc[e][1], "Z")) for e in nl_edges
            ]
            v_recs = emit_mpp(noise.p_local, v_prods)
            # closing X readout of both Bell halves resolves the branch frame;
            # stabilizer inference needs these records, the check value does not
            anc_targets = tuple(a for e in nl_edges for a in anc[e])
            if noise.p_local > 0:
                instructions.append(Depolarize1(noise.p_local, anc_targets))
            x_prods = [((a, "X"),) for a in anc_targets]
            x_recs = emit_mpp(noise.p_local, x_prods)
            for i, e in enumerate(nl_edges):
                check_records[s][e] = [u_recs[i], v_recs[i]]
                bell_records[s][e] = [x_recs[2 * i], x_recs[2 * i + 1]]

        duration = noise.bell_wait_cycles if nl_edges else 1
        idle_layers = max(0, duration - 1)
        if noise.p_local > 0:
            for _ in range(idle_layers):
                instructions.append(Depolarize1(noise.p_local, all_data))

    if noise.p_local > 0:
        instructions.append(Depolarize1(noise.p_local, all_data))
    final_recs = emit_mpp(noise.p_local, [((q, "Z"),) for q in all_data])
    final_rec_of = {q: r for q, r in zip(all_data, final_recs)}

    def records(fi: int, t: int, table) -> list[int]:
        """The records in table of face fi's edges measured at sub-round t
        (those of colour t mod 3); none before sub-round 0."""
        if t < 0:
            return []
        at = table[t]
        return [r for e in lattice.faces[fi].edges if e in at for r in at[e]]

    def anchor(fi: int, tau: int) -> int:
        """The latest sub-round t <= tau with t = c - 1 mod 3, where c is
        face fi's colour: the face's inferences complete at such t."""
        return tau - (tau - lattice.faces[fi].color + 1) % 3

    def fresh(fi: int, t: int) -> list[int]:
        """The inference of face fi at anchor t: its (c-1)-checks at t XOR
        its (c+1)-checks at t - 1 (before sub-round 0, the Z checks that the
        reset fixes, which have no records)."""
        return records(fi, t, check_records) + records(fi, t - 1, check_records)

    def face_value(fi: int, tau: int) -> Optional[list[int]]:
        """Records whose XOR is face fi's stabiliser value after sub-round
        tau, or None while that value is random (see the module docstring)."""
        c = lattice.faces[fi].color
        t = anchor(fi, tau)
        if t < 0 and c != 2:
            return None
        recs = fresh(fi, t) + records(fi, t, bell_records)
        if tau >= t + 2:
            recs += records(fi, t + 2, bell_records)
        return recs

    def generators_for(s: int) -> list:
        """The operators whose values are known before sub-round s, each as
        (Pauli codes per vertex, records(t) of its value before sub-round t,
        for any t = s mod 6 from s on): the faces that are colour 2 or have
        an inference at sub-round 1 or later, and the checks of sub-round
        s - 1, which before sub-round 0 are the Z checks the reset fixes."""
        color = (s - 1) % 3
        code = _CODE[PAULI_OF_COLOR[color]]
        checks = [
            (
                {lattice.edges[e].u: code, lattice.edges[e].v: code},
                lambda t, e=e: check_records[t - 1][e] if t > 0 else [],
            )
            for e in edges_by_color[color]
        ]
        faces = [
            (
                dict.fromkeys(face_vertices[fi], _CODE[PAULI_OF_COLOR[f.color]]),
                lambda t, fi=fi: face_value(fi, t - 1),
            )
            for fi, f in enumerate(lattice.faces)
            if f.color == 2 or anchor(fi, s - 1) >= 1
        ]
        # the column order picks the solver's solution among equivalent ones
        return faces + checks if s == 0 else checks + faces

    logicals = find_logical_observables(lattice)
    observables = _track_observables(
        lattice, logicals, n_sub, nonlocal_set, generators_for, final_rec_of
    )

    program = CircuitProgram(
        name=f"{lattice.name}-memZ-r{n_detector_rounds}",
        n_qubits=n_qubits,
        data_qubits=all_data,
        bell_ancillas=tuple(bell_ancillas),
        instructions=tuple(instructions),
        detectors=(),
        observables=tuple(observables),
        n_records=n_records,
    )

    # each detector compares a face's inference with its value just before;
    # the transversal Z readout closes the Z-type colour-2 faces
    candidates: list[tuple[int, int, list[int]]] = []  # (face, anchor, records)
    for fi, f in enumerate(lattice.faces):
        for s in range((f.color - 1) % 3, n_sub, 3):
            before = face_value(fi, s - 1)
            if before is not None:
                candidates.append((fi, s, fresh(fi, s) + before))
        if f.color == 2:
            readout = [final_rec_of[v] for v in face_vertices[fi]]
            candidates.append((fi, n_sub, readout + face_value(fi, n_sub - 1)))
    candidates.sort(key=lambda cand: (cand[1], cand[0]))

    random = _random_parities(
        program,
        [recs for _, _, recs in candidates] + [obs.records for obs in observables],
    )
    for (fi, s, recs), bad in zip(candidates, random.tolist()):
        if bad:
            raise CircuitError(
                f"detector of face {fi} at sub-round {s} is not deterministic"
            )
        if len(set(recs)) != len(recs):
            raise CircuitError("duplicate record in a detector")
    for obs, bad in zip(observables, random[len(candidates) :].tolist()):
        if bad:
            raise CircuitError(f"observable {obs.index} is not deterministic")
    program.detectors = tuple(
        Detector(tuple(sorted(recs)), face=fi, anchor=s) for fi, s, recs in candidates
    )

    if not program.measurement_index_ok():
        raise CircuitError("detector or observable references a missing record")
    return program


def _track_observables(
    lattice: Lattice,
    logicals: LogicalOperatorSet,
    n_sub: int,
    nonlocal_set: set[int],
    generators_for,
    final_rec_of: dict[int, int],
) -> list[Observable]:
    """Propagate each Z-type representative through the measurement schedule.

    A representative must commute with every upcoming pair measurement (both
    halves, for Bell-mediated checks) or the measurement would destroy it.
    Before each sub-round s the representative is repaired by multiplying in
    generators_for(s): operators whose values are already known, each with
    the records of its value, which the multiplication XORs into the
    observable.  Before each Z sub-round the repair also forces the
    representative back to Z type so the final transversal readout can
    evaluate it.
    """
    n = lattice.n_vertices

    def constraint_rows(s: int):
        # Pauli rows, as ((qubit, code), ...), that an operator must commute
        # with; a local check gives one joint row, a Bell-mediated check one
        # row per half
        rows: list[tuple[tuple[int, int], ...]] = []
        c = s % 3
        pcode = _CODE[PAULI_OF_COLOR[c]]
        for e in lattice.edges_of_color(c):
            u, v = lattice.edges[e].u, lattice.edges[e].v
            if e in nonlocal_set:
                rows.append(((u, pcode),))
                rows.append(((v, pcode),))
            else:
                rows.append(((u, pcode), (v, pcode)))
        if s % 6 == 5:
            # the representative's form cycles with period 6; it can be forced
            # back to Z type, that is to commute with Z on every qubit, only on
            # every other Z sub-round, which is also where the experiment ends
            # (6R - 1 = 5 mod 6)
            rows.extend(((q, _CODE["Z"]),) for q in range(n))
        return rows

    # The first six repairs interlock (early generators are scarce), so they
    # are solved jointly: choosing generator subsets r_0..r_5 is a triangular
    # GF(2) system because sub-round s only constrains r_0..r_s.  Later
    # sub-rounds are repaired one at a time, and their systems repeat with
    # period 6.
    window = min(6, n_sub)
    solvers: dict[int, tuple] = {}

    def solver_for(s: int):
        """(solver, generators (t, codes, records), constraint rows) for the
        repair at sub-round s, or for the whole window when s < window."""
        key = -1 if s < window else s % 6
        if key not in solvers:
            subs = range(window) if s < window else (s,)
            gens = [(t, *gen) for t in subs for gen in generators_for(t)]
            rows = _Constraints([(t, row) for t in subs for row in constraint_rows(t)])
            solver = gf2.ColumnSolver(rows.matrix([(t, codes) for t, codes, _ in gens]))
            solvers[key] = (solver, gens, rows)
        return solvers[key]

    observables = []
    for k in range(len(logicals)):
        op: dict[int, int] = {
            int(v): _CODE["Z"] for v in np.nonzero(logicals.supports[k])[0]
        }
        records: set[int] = set()
        for s in range(window - 1, n_sub):
            solver, gens, rows = solver_for(s)
            x = solver.solve(rows.vector(op))
            if x is None:
                where = "through warmup" if s < window else f"at sub-round {s}"
                raise CircuitError(f"observable {k} cannot be kept commuting {where}")
            for j in gf2.bits(x):
                t, codes, value = gens[j]
                for q, code in codes.items():
                    new = op.get(q, 0) ^ code
                    if new:
                        op[q] = new
                    else:
                        op.pop(q, None)
                # one single-sub-round solver serves every s of its s % 6
                records.symmetric_difference_update(value(t if s < window else s))
        bad = [q for q, code in op.items() if code != _CODE["Z"]]
        if bad:
            raise CircuitError(
                f"observable {k} is not Z-type at readout (qubit {bad[0]})"
            )
        for q in op:
            records.symmetric_difference_update({final_rec_of[q]})
        observables.append(Observable(index=k, records=tuple(sorted(records))))
    return observables


class _Constraints:
    """Constraint rows, each a (sub-round, ((qubit, pauli code), ...)) pair,
    indexed by qubit once, so that the rows an operator breaks cost its
    support rather than every row."""

    def __init__(self, rows: list[tuple[int, tuple]]):
        self.rows = rows
        self.by_qubit: dict[int, list[tuple[int, int, int]]] = {}
        for i, (s, row) in enumerate(rows):
            for q, pauli in row:
                self.by_qubit.setdefault(q, []).append((i, s, pauli))

    def _broken(self, codes: dict[int, int], t: int) -> int:
        """Rows of sub-round t or later with which codes anticommutes, as an
        int whose bit i is row i."""
        odd = 0
        for q, code in codes.items():
            for i, s, pauli in self.by_qubit.get(q, ()):
                # two single-qubit Paulis (bit0 X, bit1 Z) anticommute when
                # their symplectic product is odd
                if s >= t and ((code & pauli >> 1) ^ (code >> 1 & pauli)) & 1:
                    odd ^= 1 << i
        return odd

    def matrix(self, gens: list[tuple[int, dict[int, int]]]) -> list[int]:
        """One column int per generator; generator j = (t, codes) is
        multiplied in at sub-round t, so it enters only rows of sub-round t
        or later."""
        return [self._broken(codes, t) for t, codes in gens]

    def vector(self, codes: dict[int, int]) -> int:
        """The rows that the operator codes breaks, over all sub-rounds."""
        return self._broken(codes, 0)


# ---------------------------------------------------------------------------
# determinism report


@dataclass(frozen=True)
class DeterminismReport:
    ok: bool
    failing_detectors: tuple[tuple[int, str], ...]
    failing_observables: tuple[tuple[int, str], ...]

    def __str__(self) -> str:
        if self.ok:
            return "determinism: PASS"
        lines = ["determinism: FAIL"]
        for i, why in self.failing_detectors:
            lines.append(f"  detector {i}: {why}")
        for i, why in self.failing_observables:
            lines.append(f"  observable {i}: {why}")
        return "\n".join(lines)


def validate_determinism(program: CircuitProgram) -> DeterminismReport:
    """Flag any detector whose parity is not deterministic and any observable
    whose value is not deterministic in the noiseless circuit.

    Certifies exactly the record sets that sampling and graph extraction
    read (floqnet.sim._parity_lists): a record that a detector lists twice
    counts once, and the entries of one observable index are merged into
    one set, reported by that index.  Runs the kernel's Pauli frames over
    stabiliser gauges (see floqnet.sim._random_parities).  Raises
    CircuitError where an observable index is out of range or the
    instructions do not compile: an unknown instruction, a qubit out of
    range or a record count that differs from n_records.
    """
    from floqnet.sim import _parity_lists, _random_parities  # sim imports this module

    try:
        parity_lists = _parity_lists(program)
    except CircuitError:
        if program.measurement_index_ok():
            raise
        return DeterminismReport(False, ((-1, "record index out of range"),), ())
    random = _random_parities(program, parity_lists).tolist()
    n_det = program.n_detectors
    bad_d = tuple(
        (i, "parity depends on measurement randomness")
        for i, bad in enumerate(random[:n_det])
        if bad
    )
    bad_o = tuple(
        (k, "value depends on measurement randomness")
        for k, bad in enumerate(random[n_det:])
        if bad
    )
    return DeterminismReport(not bad_d and not bad_o, bad_d, bad_o)
