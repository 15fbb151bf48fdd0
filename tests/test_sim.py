import dataclasses

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
)
from floqnet.lattice import generate_honeycomb_torus
from floqnet.partition import partition_code
from floqnet.sim import ShotBatch, load_shot_batch, sample_shots, save_shot_batch

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


@pytest.mark.parametrize("name", ["local3", "dist6"])
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


def test_same_seed_same_bits(dist6):
    a = sample_shots(dist6, 21, 200)
    _assert_same(a, sample_shots(dist6, 21, 200))
    assert not np.array_equal(a.detectors, sample_shots(dist6, 22, 200).detectors)


@pytest.mark.parametrize("shots", [0, -1])
def test_rejects_nonpositive_shots(local3, shots):
    with pytest.raises(ValueError):
        sample_shots(local3, 0, shots)


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


@pytest.mark.parametrize("shots, n_det, n_obs", [(13, 11, 2), (1, 0, 3), (70, 7, 0)])
def test_shot_batch_round_trip(tmp_path, shots, n_det, n_obs):
    rng = np.random.default_rng(shots)
    batch = ShotBatch(
        shots=shots,
        seed=5,
        detectors=rng.integers(0, 2, (shots, n_det), dtype=np.uint8),
        observables=rng.integers(0, 2, (shots, n_obs), dtype=np.uint8),
    )
    path = tmp_path / "batch.bin"
    save_shot_batch(batch, path)
    _assert_same(load_shot_batch(path), batch)


def test_damaged_shot_file_names_file_and_size(tmp_path):
    batch = sample_shots(_hand_built(), 1, 300)
    path = tmp_path / "batch.bin"
    save_shot_batch(batch, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError, match=r"batch\.bin.*600 payload bytes"):
        load_shot_batch(path)
