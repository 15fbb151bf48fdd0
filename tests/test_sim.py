import dataclasses
import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from floqnet import sim
from floqnet.circuit import (
    BellPrep,
    CircuitError,
    CircuitProgram,
    Depolarize1,
    Depolarize2,
    Detector,
    MeasurePP,
    NoiseParams,
    Observable,
    Reset,
    build_memory_circuit,
    validate_determinism,
)
from floqnet.lattice import fine_grain, generate_honeycomb_torus
from floqnet.partition import partition_code
from floqnet.sim import ShotBatch, sample_shots

from oracles import reference_sample_shots

# word and chunk boundaries of the packed sampler (64 shots per word, 4096
# per chunk), and either side of them
SHOT_COUNTS = (1, 63, 64, 65, 4096, 4097, 8193)
SEEDS = (0, 12345, 2**64 - 1)


def _compiled(L: int, n_qpu, noise: NoiseParams) -> CircuitProgram:
    lat = generate_honeycomb_torus(L, L)
    part = partition_code(lat, n_qpu) if n_qpu else None
    return build_memory_circuit(lat, part, noise, 1)


@pytest.fixture(scope="module")
def local3():
    return _compiled(3, None, NoiseParams(3e-4, 1e-2))


@pytest.fixture(scope="module")
def dist6():
    # p_nonlocal >= _DENSE_P: the Bell-pair noise takes the dense event branch
    return _compiled(6, 40, NoiseParams(3e-3, 6e-2))


def _hand_built() -> CircuitProgram:
    """Y and single-Pauli products, p on both sides of _DENSE_P, two clears."""
    assert 0.2 >= sim._DENSE_P > 0.01
    instructions = (
        Reset((0, 1, 2, 3)),
        Depolarize1(0.2, (0, 1, 2, 3)),
        MeasurePP(
            0.1,
            (
                ((0, "Y"), (1, "Y")),
                ((2, "X"),),
                ((3, "Z"),),
                ((0, "Z"), (1, "X"), (2, "Y")),
            ),
        ),
        BellPrep(((2, 3),)),
        Depolarize2(0.3, ((0, 1), (2, 3))),
        Depolarize1(0.01, (1,)),
        MeasurePP(0.0, (((0, "Y"),), ((1, "Z"), (2, "Z"), (3, "Z")))),
        Reset((1,)),
        Depolarize2(0.02, ((1, 3),)),
        MeasurePP(0.06, (((1, "X"), (3, "Y")), ((2, "X"), (3, "X")))),
    )
    return CircuitProgram(
        name="hand-built",
        n_qubits=4,
        data_qubits=(0, 1, 2, 3),
        bell_ancillas=(),
        instructions=instructions,
        detectors=(
            Detector((0,)),
            Detector((1, 4)),
            Detector((0, 2, 3, 5)),
            Detector((4, 6, 7)),
            Detector((3, 3, 6)),  # a repeated record counts once
            Detector(()),
            Detector((7,)),
        ),
        observables=(Observable(0, (2, 5, 7)), Observable(1, ())),
        n_records=8,
    )


def _assert_same(a: ShotBatch, b: ShotBatch) -> None:
    assert a.shots == b.shots and a.seed == b.seed
    assert a.detectors.dtype == b.detectors.dtype == np.uint8
    assert a.observables.dtype == b.observables.dtype == np.uint8
    assert np.array_equal(a.detectors, b.detectors)
    assert np.array_equal(a.observables, b.observables)


@pytest.fixture(scope="module")
def dense3():
    # every stream at p >= _DENSE_P: no sparse block is drawn
    return _compiled(3, None, NoiseParams(sim._DENSE_P, 0.1))


@pytest.mark.parametrize("name", ["local3", "dist6", "dense3"])
@pytest.mark.parametrize("seed", SEEDS)
def test_matches_reference_on_compiled_circuits(request, name, seed):
    circuit = request.getfixturevalue(name)
    for shots in SHOT_COUNTS:
        _assert_same(
            sample_shots(circuit, seed, shots),
            reference_sample_shots(circuit, seed, shots),
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_reference_on_hand_built_program(seed):
    circuit = _hand_built()
    for shots in SHOT_COUNTS:
        batch = sample_shots(circuit, seed, shots)
        _assert_same(batch, reference_sample_shots(circuit, seed, shots))
    # noise is dense enough that every non-empty parity fires somewhere
    assert batch.detectors[:, [0, 1, 2, 3, 4, 6]].any(axis=0).all()
    assert batch.observables[:, 0].any()


def test_noisy_product_of_no_qubit_matches_reference():
    """A product with no qubit still draws its outcome flips, across a chunk
    boundary, and the records after it keep their places."""
    circuit = CircuitProgram(
        name="empty-product",
        n_qubits=1,
        data_qubits=(0,),
        bell_ancillas=(),
        instructions=(
            Reset((0,)),
            MeasurePP(0.2, ((),)),
            Depolarize1(0.1, (0,)),
            MeasurePP(0.2, (((0, "Z"),), (), ((0, "X"),))),
        ),
        detectors=(Detector((0,)), Detector((1, 2)), Detector((2, 3))),
        observables=(Observable(0, (0, 3)),),
        n_records=4,
    )
    for seed in SEEDS:
        batch = sample_shots(circuit, seed, sim._CHUNK + 100)
        _assert_same(batch, reference_sample_shots(circuit, seed, sim._CHUNK + 100))
    assert batch.detectors[sim._CHUNK :].any(axis=0).all()


def _edge_cases() -> CircuitProgram:
    """Dense and sparse streams in one chunk, zero-p ops, ops with no cell,
    an empty product, noise ops back to back and noise after the last
    measurement, whose outcome flips no later op reads or clears."""
    assert 0.1 >= sim._DENSE_P > 0.03
    instructions = (
        Reset((0, 1, 2, 3)),
        Depolarize1(0.0, (0, 1)),
        Depolarize1(0.01, (0, 1, 2, 3)),
        Depolarize2(0.2, ((0, 1), (2, 3))),
        Depolarize1(0.3, ()),
        MeasurePP(0.0, (((0, "Z"),), ((1, "X"), (2, "X")))),
        MeasurePP(0.03, (((0, "Z"), (1, "Z")), (), ((2, "X"), (3, "X")))),
        MeasurePP(0.2, ()),
        Depolarize2(0.0, ((1, 2),)),
        Depolarize2(0.004, ((1, 2), (0, 3))),
        MeasurePP(0.1, (((1, "Y"),), ((3, "Z"),))),
        Depolarize1(0.3, (0, 2)),
        Depolarize2(0.004, ((0, 3),)),
    )
    return CircuitProgram(
        name="edge-cases",
        n_qubits=4,
        data_qubits=(0, 1, 2, 3),
        bell_ancillas=(),
        instructions=instructions,
        detectors=(
            Detector((0, 2)),
            Detector((1, 4)),
            Detector((3,)),
            Detector((2, 5)),
            Detector((6,)),
        ),
        observables=(Observable(0, (4, 6)),),
        n_records=7,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_edge_cases_match_reference(seed):
    circuit = _edge_cases()
    for shots in (1, 63, 4097, 8193):
        batch = sample_shots(circuit, seed, shots)
        _assert_same(batch, reference_sample_shots(circuit, seed, shots))
    # the empty product's outcome flips reach detector 2 alone, and the last
    # measurement's flips, which no later op reads, reach detector 4
    assert batch.detectors.any(axis=0).all()


def test_gap_continuation_matches_reference(monkeypatch):
    """Blocks of about half a stream's expected events, patched into both
    samplers through the one block-size rule, so sparse streams continue
    block by block."""
    calls = []
    more = sim._more_gaps
    monkeypatch.setattr(sim, "_draws", lambda expect: expect // 2 + 1)
    monkeypatch.setattr(sim, "_more_gaps", lambda *a: calls.append(1) or more(*a))
    for circuit in (_edge_cases(), _hand_built()):
        for seed in SEEDS:
            _assert_same(
                sample_shots(circuit, seed, 4097),
                reference_sample_shots(circuit, seed, 4097),
            )
    assert calls


# sha256 of the detector and observable bytes that sample_shots returns for
# 4097 shots at seed 20260 on the benchmark's circuits, at NoiseParams(3e-4,
# 1e-2) and partition seed 0, keyed by (L, n_qpu, R)
GOLDEN = {
    (6, None, 2): (
        "3863bbcb2db51fd12e559c3f2b547180ec4efac42e6a22e223032ca775e8b39e",
        "d1724f2c602d3a79558fd66712efc438ad11efee27b5b8eca6440b7993033e5f",
    ),
    (9, 40, 3): (
        "fb85c14073498da20654916eec7d764dba111ff5256da72397e15bfef2b618db",
        "d959dd8e9a6fef8ea0b23ed1fb8c531e25a0e052ceb469f63283755ca1360d06",
    ),
    (12, 64, 4): (
        "8cc8c61b0cdac6ed39a41a713373267efc54c0d5d651014fc7e56b766acfd45d",
        "79309fb49dccca5c52dbd6b5b4848a86970293ec01250b29ab0a1189a684a642",
    ),
}


@pytest.mark.parametrize("L, n_qpu, rounds", list(GOLDEN), ids=str)
def test_benchmark_circuits_sample_golden_bits(L, n_qpu, rounds):
    lat = generate_honeycomb_torus(L, L)
    part = partition_code(lat, n_qpu, seed=0) if n_qpu else None
    circuit = build_memory_circuit(lat, part, NoiseParams(3e-4, 1e-2), rounds)
    batch = sample_shots(circuit, 20260, 4097)
    digests = tuple(
        hashlib.sha256(bits.tobytes()).hexdigest()
        for bits in (batch.detectors, batch.observables)
    )
    assert digests == GOLDEN[L, n_qpu, rounds]


def test_sampling_extraction_and_certification_walk_one_kernel(monkeypatch):
    """The first sample_shots call on a program walks the kernel to build
    its event table; later calls only add up table rows."""
    circuit = _compiled(3, None, NoiseParams(3e-4, 1e-2))
    calls = []
    kernel = sim._propagate
    monkeypatch.setattr(sim, "_propagate", lambda *a: calls.append(1) or kernel(*a))
    sample_shots(circuit, 0, sim._CHUNK + 1)
    assert calls
    calls.clear()
    sample_shots(circuit, 1, sim._CHUNK + 1)
    assert not calls
    sim.extract_decoding_graph(circuit)
    assert calls
    calls.clear()
    assert validate_determinism(circuit).ok
    assert calls


def _event_bits(circuit: CircuitProgram):
    """(event bit, slot, state row) of every event bit, read from the
    instructions: bits 0 and 1 of a noise cell are X and Z on its last
    qubit, bits 2 and 3 on its first, and bit 0 of a noisy product flips
    its record, each injected just after the instruction."""
    n = circuit.n_qubits
    out, cell, rec = [], 0, 0
    for i, instr in enumerate(circuit.instructions):
        if isinstance(instr, (Depolarize1, Depolarize2)) and instr.p > 0:
            cells = instr.targets if isinstance(instr, Depolarize1) else instr.pairs
            for qubits in cells:
                qubits = np.atleast_1d(qubits)[::-1].tolist()
                for b, q in enumerate(qubits):
                    out.append((4 * cell + 2 * b, 2 * i + 1, q))
                    out.append((4 * cell + 2 * b + 1, 2 * i + 1, q + n))
                cell += 1
        elif isinstance(instr, MeasurePP) and instr.flip_p > 0:
            for j in range(len(instr.products)):
                out.append((4 * cell, 2 * i + 1, 2 * n + rec + j))
                cell += 1
        rec += len(instr.products) if isinstance(instr, MeasurePP) else 0
    return np.array(out, dtype=np.int64).reshape(-1, 3).T


@pytest.fixture(scope="module")
def fine3x3():
    lat = fine_grain(generate_honeycomb_torus(3, 3), 2)
    return build_memory_circuit(lat, None, NoiseParams(3e-3, 2e-2), 1)


@pytest.mark.parametrize("name", ["dist6", "fine3x3"])
def test_event_table_matches_one_event_oracle(request, name):
    """Each event bit injected alone through the kernel flips the parity
    rows its table row lists, and only those."""
    circuit = request.getfixturevalue(name)
    sample_shots(circuit, 0, 1)
    streams = circuit.kernel_cache["noise"][1]
    bit, slot, row = _event_bits(circuit)
    assert bit.size and bit.max() < streams.event_row.size
    ops, slices = sim._compiled(circuit)
    n_par = circuit.n_detectors + circuit.n_observables
    want = np.zeros((bit.size, n_par), dtype=bool)
    for k, b in enumerate(bit.tolist()):
        r = int(streams.event_row[b])
        want[k, streams.par[streams.indptr[r] : streams.indptr[r + 1]]] = True
    for lo, par in sim._run_columns(
        circuit, ops, slot, row, np.arange(bit.size), slices
    ):
        got = np.unpackbits(par.view(np.uint8), axis=1, bitorder="little")
        hi = min(lo + sim._CHUNK, bit.size)
        assert np.array_equal(got[:, : hi - lo].T.astype(bool), want[lo:hi])


def test_threads_sampling_one_program_get_their_own_bits():
    """Calls from several threads on one program each re-key generators
    that no other call is using."""
    circuit = _compiled(3, None, NoiseParams(3e-3, 2e-2))
    seeds = list(range(6)) * 4
    want = {seed: sample_shots(circuit, seed, 4097) for seed in set(seeds)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            calls = pool.map(lambda s: sample_shots(circuit, s, 4097), seeds, timeout=120)
            got = list(calls)
    finally:
        sys.setswitchinterval(interval)
    for seed, batch in zip(seeds, got):
        _assert_same(batch, want[seed])


def test_slices_of_any_size_give_the_same_parities(monkeypatch, dist6):
    """Detector parities taken a few records at a time, one list per slice
    where a list is longer than the bound."""
    expected = reference_sample_shots(dist6, 9, 130)
    monkeypatch.setattr(sim, "_SLICE_ROWS", 3)
    _assert_same(sample_shots(dist6, 9, 130), expected)


def test_empty_record_lists_sample_zero():
    batch = sample_shots(_hand_built(), 4, 300)
    assert not batch.detectors[:, 5].any()
    assert not batch.observables[:, 1].any()


def test_noiseless_circuit_samples_zeros():
    circuit = _compiled(3, None, NoiseParams(0.0, 0.0))
    batch = sample_shots(circuit, 3, 4097)
    assert batch.detectors.shape == (4097, circuit.n_detectors)
    assert batch.observables.shape == (4097, circuit.n_observables)
    assert not batch.detectors.any() and not batch.observables.any()
    streams = circuit.kernel_cache["noise"][1]
    assert streams.event_row.size == streams.par.size == 0


def test_same_seed_same_bits(dist6):
    a = sample_shots(dist6, 21, 200)
    _assert_same(a, sample_shots(dist6, 21, 200))
    assert not np.array_equal(a.detectors, sample_shots(dist6, 22, 200).detectors)


@pytest.mark.parametrize("shots", [0, -1])
def test_rejects_nonpositive_shots(local3, shots):
    with pytest.raises(ValueError):
        sample_shots(local3, 0, shots)


@pytest.mark.parametrize(
    "seed, shots",
    [(0, 1.5), (0, True), (0, "3"), (0, np.float64(2.0)), (1.5, 10), (None, 10), (True, 10)],
)
def test_rejects_non_integer_shots_or_seed(local3, seed, shots):
    with pytest.raises(ValueError, match="must be an integer"):
        sample_shots(local3, seed, shots)


def test_accepts_numpy_integers(local3):
    want = sample_shots(local3, 7, 100)
    for seed, shots in [(np.int64(7), 100), (7, np.int32(100)), (np.uint64(7), np.int64(100))]:
        got = sample_shots(local3, seed, shots)
        _assert_same(got, want)
        assert type(got.seed) is int and type(got.shots) is int


@pytest.mark.parametrize(
    "change",
    [
        {"detectors": (Detector((0,)), Detector((8,)))},
        {"detectors": (Detector((-1, 2)),)},
        {"observables": (Observable(0, (1, 8)),)},
        {"observables": (Observable(0, (-3,)),)},
        {"observables": (Observable(0, (2,)), Observable(2, (5,)))},
        {"observables": (Observable(-1, (2,)),)},
        {"instructions": _hand_built().instructions + (Depolarize1(0.1, (4,)),)},
        {"instructions": (Reset((-1,)),) + _hand_built().instructions},
    ],
    ids=[
        "detector-record-past-end",
        "detector-record-negative",
        "observable-record-past-end",
        "observable-record-negative",
        "observable-index-past-end",
        "observable-index-negative",
        "noise-qubit-past-end",
        "reset-qubit-negative",
    ],
)
def test_bad_indices_raise_circuit_error(change):
    circuit = dataclasses.replace(_hand_built(), **change)
    with pytest.raises(CircuitError):
        sample_shots(circuit, 0, 10)
