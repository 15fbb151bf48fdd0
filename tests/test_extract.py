import dataclasses
import re

import numpy as np
import pytest

from floqnet import sim
from floqnet.circuit import (
    BellPrep,
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
from floqnet.lattice import fine_grain, generate_honeycomb_torus
from floqnet.partition import partition_code
from floqnet.sim import (
    DecodingGraph,
    GraphExtractionError,
    extract_decoding_graph,
    sample_shots,
)

from oracles import reference_atom_signatures, reference_decoding_graph


def _compiled(
    L: int, n_qpu, noise: NoiseParams, rounds: int, level: int = 1
) -> CircuitProgram:
    lat = generate_honeycomb_torus(L, L)
    if level > 1:
        lat = fine_grain(lat, level)
    part = partition_code(lat, n_qpu) if n_qpu else None
    return build_memory_circuit(lat, part, noise, rounds)


def _marginals(graph: DecodingGraph) -> np.ndarray:
    """Each detector's flip probability under independent graph edges."""
    log_keep = np.log1p(-2.0 * graph.probability)
    acc = np.zeros(graph.n_detectors)
    for ends in (graph.det1, graph.det2):
        ends = ends.astype(np.int64)
        hit = ends >= 0
        np.add.at(acc, ends[hit], log_keep[hit])
    return (1.0 - np.exp(acc)) / 2.0


SHOTS = 100_000


@pytest.fixture(scope="module", params=[(6, None, 2), (9, 40, 3)], ids=["local6", "dist9"])
def sampled(request):
    """A circuit at NoiseParams(2e-3, 1e-2), its graph and the detectors and
    observables of 10^5 sampled shots."""
    L, n_qpu, rounds = request.param
    circuit = _compiled(L, n_qpu, NoiseParams(2e-3, 1e-2), rounds)
    graph = extract_decoding_graph(circuit)
    batch = sample_shots(circuit, 2024, SHOTS)
    return graph, batch.detectors, batch.observables


def _outliers(pred: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of counts more than 5 binomial sigma from SHOTS * pred."""
    sigma = np.sqrt(SHOTS * pred * (1.0 - pred))
    return np.flatnonzero(np.abs(counts - SHOTS * pred) > 5.0 * sigma)


@pytest.mark.slow
def test_graph_marginals_match_sampled_shots(sampled):
    graph, detectors, _ = sampled
    counts = detectors.sum(axis=0, dtype=np.int64)
    outliers = _outliers(_marginals(graph), counts)
    assert outliers.size == 0, f"detectors {outliers.tolist()} lie beyond 5 sigma"


@pytest.mark.slow
def test_graph_edge_parities_match_sampled_shots(sampled):
    """For every two-detector edge (i, j), the rate of d_i != d_j: the graph
    predicts it from the edges that touch exactly one of i and j."""
    graph, detectors, _ = sampled
    two = graph.det2 >= 0
    ends = np.stack([graph.det1[two], graph.det2[two]], axis=1).astype(np.int64)
    pairs, which = np.unique(ends, axis=0, return_inverse=True)
    log_keep = np.log1p(-2.0 * graph.probability)
    per_det = np.log1p(-2.0 * _marginals(graph))
    both = np.bincount(which.reshape(-1), log_keep[two], minlength=len(pairs))
    i, j = pairs.T
    pred = (1.0 - np.exp(per_det[i] + per_det[j] - 2.0 * both)) / 2.0
    rows = np.packbits(detectors.T, axis=1)
    popcount = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)
    counts = np.concatenate(
        [
            popcount[rows[i[k : k + 256]] ^ rows[j[k : k + 256]]].sum(axis=1)
            for k in range(0, len(pairs), 256)
        ]
    )
    outliers = _outliers(pred, counts)
    assert outliers.size == 0, f"pairs {pairs[outliers].tolist()} lie beyond 5 sigma"


@pytest.mark.slow
def test_term_observable_flips_match_sampled_shots(sampled):
    """The terms' observable flip probabilities (graph.stats) match the
    sampled rates.  The graph's own figure (obs_flip_graph) is recorded but
    not checked: on local6 splits hand observable 1 to pieces whose term
    does not flip it, and the graph predicts 0.405 against 0.315."""
    graph, _, observables = sampled
    counts = observables.sum(axis=0, dtype=np.int64)
    outliers = _outliers(np.array(graph.stats["obs_flip_terms"]), counts)
    assert outliers.size == 0, f"observables {outliers.tolist()} lie beyond 5 sigma"


@pytest.fixture(scope="module", params=[(3, None), (6, 40)], ids=["local3", "dist6"])
def circuit(request):
    L, n_qpu = request.param
    return _compiled(L, n_qpu, NoiseParams(3e-3, 2e-2), 1)


def _rows(sigs) -> list[tuple[frozenset, int]]:
    """(detector set, observable mask) of every signature item."""
    return [
        (frozenset(sigs.dets[a:b].tolist()), mask)
        for a, b, mask in zip(sigs.indptr[:-1], sigs.indptr[1:], sigs.masks.tolist())
    ]


def _columns(circuit):
    ops, slices = sim._compiled(circuit)
    cols = sim._atom_columns(circuit, ops, slices)
    records = sim._record_signatures(circuit, slices)
    return cols, _rows(cols.sigs), _rows(records)


def test_atom_columns_match_timeline_oracle(circuit):
    """Every column's signature equals the backward walk over the qubit's
    timeline from the slot where the column injects its Pauli."""
    cols, sigs, _ = _columns(circuit)
    want = reference_atom_signatures(circuit)
    n = circuit.n_qubits
    cursor = [0] * n
    bounds = np.searchsorted(cols.slot, 2 * np.arange(len(circuit.instructions) + 1))
    checked = 0
    for i, instr in enumerate(circuit.instructions):
        for c in range(bounds[i], bounds[i + 1]):
            q, pcode = int(cols.row[c]) % n, 1 if cols.row[c] < n else 2
            # just after a measurement is the qubit's next timeline slot
            slot = cursor[q] + int(cols.slot[c]) % 2
            assert sigs[c] == want[q][slot][pcode], (i, c)
            checked += 1
        if isinstance(instr, Reset):
            touched = instr.targets
        elif isinstance(instr, BellPrep):
            touched = [q for pair in instr.pairs for q in pair]
        elif isinstance(instr, MeasurePP):
            touched = [q for prod in instr.products for q, _ in prod]
        else:
            touched = ()
        for q in touched:
            cursor[q] += 1
    assert checked == cols.slot.size > 0


def test_record_flip_is_xor_of_before_and_after_columns(circuit):
    cols, sigs, records = _columns(circuit)
    rec = 0
    n_checked = 0
    for i, instr in enumerate(circuit.instructions):
        if not isinstance(instr, MeasurePP):
            continue
        if instr.flip_p > 0:
            before, after = np.searchsorted(cols.slot, [2 * i, 2 * i + 1])
            for j in range(len(instr.products)):
                (db, ob), (da, oa) = sigs[before + j], sigs[after + j]
                assert (db ^ da, ob ^ oa) == records[rec + j]
                n_checked += 1
        rec += len(instr.products)
    assert n_checked > 0


def test_stats_count_every_term_once(circuit):
    graph = extract_decoding_graph(circuit)
    s = graph.stats
    assert s["terms"] == s["graphlike_terms"] + s["step1_splits"] + s["step2_splits"]
    assert s["step1_splits"] > 0 and s["step2_splits"] > 0
    assert s["edges"] == graph.n_edges
    # every edge is graph-like and appears once
    keys = set(zip(graph.det1.tolist(), graph.det2.tolist(), graph.obs_mask.tolist()))
    assert len(keys) == graph.n_edges
    assert (graph.det1 >= 0).all() and (graph.det2 < graph.n_detectors).all()
    assert ((graph.probability > 0) & (graph.probability < 0.5)).all()


def _program(n_det: int, observables=()) -> CircuitProgram:
    """One qubit measured once with a noisy outcome: record 0 lies in every
    one of n_det detectors, and in the given observables."""
    return CircuitProgram(
        name="one-record",
        n_qubits=1,
        data_qubits=(0,),
        bell_ancillas=(),
        instructions=(Reset((0,)), MeasurePP(0.01, (((0, "Z"),),))),
        detectors=tuple(Detector((0,)) for _ in range(n_det)),
        observables=observables,
        n_records=1,
    )


@pytest.mark.parametrize(
    "program, message",
    [
        (_program(0, (Observable(0, (0,)),)), r"instruction 1: .* 0 detectors"),
        (_program(5), r"instruction 1: .* 5 detectors"),
        (_program(3), r"instruction 1: a measurement error flipping 3 detectors"),
    ],
    ids=["observable-only", "five-detectors", "unsplittable-measurement-error"],
)
def test_unsplittable_mechanisms_raise(program, message):
    with pytest.raises(GraphExtractionError, match=message):
        extract_decoding_graph(program)


@pytest.mark.parametrize(
    "change, message",
    [
        (
            {"instructions": (Reset((0,)), MeasurePP(0.01, ((),)))},
            r"instruction 1: a product with a noisy outcome measures no qubit",
        ),
        (
            {"observables": tuple(Observable(k, (0,)) for k in range(65))},
            r"at most 64 observables",
        ),
    ],
    ids=["empty-noisy-product", "65-observables"],
)
def test_programs_outside_the_model_raise(change, message):
    program = dataclasses.replace(_program(1), **change)
    with pytest.raises(GraphExtractionError, match=message):
        extract_decoding_graph(program)


def _three_detector_record() -> CircuitProgram:
    """Record 0 lies in three detectors, and no known pair of mechanisms
    covers them."""
    return CircuitProgram(
        name="three-detector-record",
        n_qubits=2,
        data_qubits=(0, 1),
        bell_ancillas=(),
        instructions=(
            Reset((0, 1)),
            Depolarize1(0.03, (0,)),
            MeasurePP(0.02, (((0, "X"), (1, "X")),)),
            Depolarize1(0.03, (1,)),
            MeasurePP(0.0, (((0, "X"),), ((1, "X"),))),
        ),
        detectors=(Detector((0,)), Detector((0, 1)), Detector((0, 2))),
        observables=(),
        n_records=3,
    )


def test_measurement_error_splits_through_its_atoms():
    """Record 0's before and after atoms split its three detectors."""
    graph = extract_decoding_graph(_three_detector_record())
    counts = ("terms", "graphlike_terms", "step1_splits", "step2_splits", "edges")
    assert [graph.stats[k] for k in counts] == [5, 4, 0, 1, 3]
    edges = dict(zip(zip(graph.det1.tolist(), graph.det2.tolist()), graph.probability))
    # known: Z or Y on qubit 0 flips records 0 and 1, so detectors {0, 2};
    # Z or Y on qubit 1 flips record 2, so detector {2}.  The record flip is
    # Z on qubit 0 before its measurement ({0, 2}) then after it ({1}).
    p_zy = sim._compose(0.01, 0.01)
    assert edges == pytest.approx(
        {(0, 2): sim._compose(p_zy, 0.02), (1, -1): 0.02, (2, -1): p_zy}
    )


def test_record_split_drops_repeated_pieces_and_joins_shared_detectors():
    known = {(0, 1): [1], (2, 3): [0], (4,): [0]}

    def split(*atoms):
        return sim._split_record_flip(atoms, known)

    # {0, 1, 2, 3} splits into {0, 1} and {2, 3}; {2, 3} also comes after
    assert split(((0, 1, 2, 3), 1), ((2, 3), 0)) == [((0, 1), 1)]
    # pieces sharing detector 1 join into {0, 2}, with both masks
    assert split(((0, 1), 1), ((1, 2), 2)) == [((0, 2), 3)]
    # a join that leaves three detectors, or an observable with no detector
    assert split(((0, 1), 0), ((1, 2, 3, 4), 0)) is None
    assert split(((0, 1), 1), ((0, 1), 0)) is None
    # three disjoint pieces
    assert split(((0, 1, 2, 3), 1), ((4,), 0)) is None


def test_stats_default_keeps_old_constructors():
    g = DecodingGraph(1, 0, np.zeros(1, np.int32), np.full(1, -1, np.int32),
                      np.full(1, 0.1), np.zeros(1, np.uint64))
    assert g.stats == {}
    assert g == dataclasses.replace(g, stats={"edges": 1})


def test_noiseless_replace_does_not_carry_compiled_noise():
    circuit = _compiled(3, None, NoiseParams(5e-3, 1e-2), 1)
    assert sample_shots(circuit, 1, 500).detectors.any()
    assert circuit.kernel_cache is not None
    quiet = []
    for instr in circuit.instructions:
        if isinstance(instr, (Depolarize1, Depolarize2)):
            instr = dataclasses.replace(instr, p=0.0)
        elif isinstance(instr, MeasurePP):
            instr = dataclasses.replace(instr, flip_p=0.0)
        quiet.append(instr)
    copy = dataclasses.replace(circuit, instructions=tuple(quiet))
    assert copy.kernel_cache is None
    batch = sample_shots(copy, 1, 500)
    assert not batch.detectors.any() and not batch.observables.any()


def test_compiled_once_and_again_after_detectors_change():
    circuit = _compiled(3, None, NoiseParams(5e-3, 1e-2), 1)
    sample_shots(circuit, 1, 10)
    cache = circuit.kernel_cache
    sample_shots(circuit, 2, 10)
    extract_decoding_graph(circuit)
    assert circuit.kernel_cache is cache
    circuit.detectors = circuit.detectors[:1]
    batch = sample_shots(circuit, 1, 10)
    assert circuit.kernel_cache is not cache
    assert batch.detectors.shape == (10, 1)


_ORACLE_CIRCUITS = {
    "local3": lambda: _compiled(3, None, NoiseParams(3e-3, 2e-2), 1),
    "dist6": lambda: _compiled(6, 40, NoiseParams(3e-3, 2e-2), 1),
    "fine3x3-2-dist20": lambda: _compiled(3, 20, NoiseParams(3e-3, 2e-2), 1, level=2),
    "local6-r2": lambda: _compiled(6, None, NoiseParams(2e-3, 1e-2), 2),
    "three-detector-record": _three_detector_record,
}


@pytest.mark.parametrize("make", _ORACLE_CIRCUITS.values(), ids=_ORACLE_CIRCUITS.keys())
def test_graph_equals_per_term_oracle(make):
    """The array pipeline gives the per-term fold's graph bit for bit: the
    same edges, the same probabilities (exact, not close) and the same
    counts."""
    circuit = make()
    graph = extract_decoding_graph(circuit)
    want = reference_decoding_graph(circuit)
    assert graph.stats["step2_splits"] > 0
    for name in ("det1", "det2", "probability", "obs_mask"):
        have, ref = getattr(graph, name), getattr(want, name)
        assert have.dtype == ref.dtype and np.array_equal(have, ref), name
    for key, value in want.stats.items():
        if key.startswith("obs_flip"):
            assert graph.stats[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key
        else:
            assert graph.stats[key] == value, key
    assert graph.stats.keys() == want.stats.keys()


@pytest.mark.parametrize(
    "program",
    [
        _program(0, (Observable(0, (0,)),)),
        _program(5),
        _program(3),
        dataclasses.replace(
            _program(1), observables=tuple(Observable(k, (0,)) for k in range(65))
        ),
        # record 0 flips only an observable, record 1 five detectors: the
        # first fault in term order raises
        CircuitProgram(
            name="two-faults",
            n_qubits=1,
            data_qubits=(0,),
            bell_ancillas=(),
            instructions=(
                Reset((0,)),
                MeasurePP(0.01, (((0, "Z"),),)),
                MeasurePP(0.01, (((0, "Z"),),)),
            ),
            detectors=tuple(Detector((1,)) for _ in range(5)),
            observables=(Observable(0, (0,)),),
            n_records=2,
        ),
    ],
    ids=["observable-only", "five-detectors", "unsplittable", "65-observables",
         "two-faults"],
)
def test_errors_equal_per_term_oracle(program):
    with pytest.raises(GraphExtractionError) as want:
        reference_decoding_graph(program)
    message = re.escape(str(want.value))
    with pytest.raises(GraphExtractionError, match=f"^{message}$"):
        extract_decoding_graph(program)
    if program.name == "two-faults":
        assert str(want.value).startswith("instruction 1: ")
