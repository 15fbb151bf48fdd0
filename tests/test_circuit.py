import dataclasses

import pytest

from floqnet import circuit as circuit_module
from floqnet import sim as sim_module
from floqnet.circuit import (
    BellPrep,
    CircuitProgram,
    CircuitError,
    Depolarize1,
    Depolarize2,
    Detector,
    MeasurePP,
    NoiseParams,
    Observable,
    Reset,
    build_memory_circuit,
    find_logical_observables,
    validate_determinism,
)
from floqnet.lattice import (
    Edge,
    Face,
    Lattice,
    RotationSystem,
    color_faces,
    derive_faces,
    generate_honeycomb_torus,
)
from floqnet.partition import partition_code
from floqnet.sim import sample_shots

from oracles import reference_constraint_matrix


@pytest.fixture(scope="module")
def hc():
    return generate_honeycomb_torus(3, 3)


@pytest.fixture(scope="module")
def hc_part(hc):
    return partition_code(hc, 16)


def test_noise_params_validation():
    with pytest.raises(CircuitError):
        NoiseParams(-0.1, 0.0)
    with pytest.raises(CircuitError):
        NoiseParams(0.0, 1.5)
    for p in ("0.1", None, True, float("nan")):
        with pytest.raises(CircuitError):
            NoiseParams(p, 0.0)
        with pytest.raises(CircuitError):
            NoiseParams(0.0, p)
    for cycles in (-1, 2.5, True):
        with pytest.raises(CircuitError):
            NoiseParams(0.0, 0.0, bell_wait_cycles=cycles)
    assert NoiseParams(1e-3, 1e-2).bell_wait_cycles == 5


def test_find_logicals_torus(hc):
    logicals = find_logical_observables(hc)
    assert len(logicals) == 2


def test_find_logicals_sphere_empty():
    edges = [(0, 1), (0, 1), (0, 1)]
    rot = RotationSystem(((0, 1, 2), (2, 1, 0)))
    cycles = derive_faces(2, edges, rot)
    theta = color_faces(
        Lattice(
            name="theta",
            schlafli=(2, 3),
            genus=0,
            n_vertices=2,
            edges=tuple(Edge(u, v) for u, v in edges),
            faces=tuple(Face(c) for c in cycles),
        )
    )
    assert len(find_logical_observables(theta)) == 0


def test_subround_color_discipline(hc):
    c = build_memory_circuit(hc, None, NoiseParams(1e-3, 0), 2)
    pauli_of_color = {0: "X", 1: "Y", 2: "Z"}
    sub = -1
    for instr in c.instructions:
        if isinstance(instr, MeasurePP) and len(instr.products[0]) == 2:
            sub += 1
            expect = pauli_of_color[sub % 3]
            for prod in instr.products:
                assert all(p == expect for _, p in prod)
    assert sub + 1 == 12  # 6 sub-rounds per detector round, one MPP batch each


def test_instruction_count_matches_hand_count(hc):
    # single cluster, 2 detector rounds: per sub-round one pair measurement
    # per edge of the measured colour (27 edges / 3 colours = 9), plus 18
    # transversal readouts: 12*9 + 18 = 126 records
    c = build_memory_circuit(hc, None, NoiseParams(1e-3, 0), 2)
    assert c.n_records == 12 * 9 + 18


def test_noiseless_circuit_omits_noise(hc):
    c = build_memory_circuit(hc, None, NoiseParams(0, 0), 1)
    assert not any(
        isinstance(i, (Depolarize1, Depolarize2)) for i in c.instructions
    )


def test_bellprep_census(hc, hc_part):
    noise = NoiseParams(1e-3, 1e-2)
    rounds = 2
    c = build_memory_circuit(hc, hc_part, noise, rounds)
    n_bell = sum(len(i.pairs) for i in c.instructions if isinstance(i, BellPrep))
    # one Bell state per non-local check execution: |E'| per plaquette round
    assert n_bell == 2 * rounds * len(hc_part.nonlocal_edges)
    n_nl_dep = sum(
        len(i.pairs)
        for i in c.instructions
        if isinstance(i, Depolarize2) and i.p == noise.p_nonlocal
    )
    assert n_nl_dep == n_bell


def test_idle_layer_census(hc, hc_part):
    noise = NoiseParams(1e-3, 1e-2, bell_wait_cycles=5)
    c = build_memory_circuit(hc, hc_part, noise, 1)
    idle = [
        i
        for i in c.instructions
        if isinstance(i, Depolarize1) and i.targets == c.data_qubits
    ]
    # init layer + final layer + (duration-1) layers per sub-round; every
    # sub-round has a non-local check here so duration = 5
    assert len(idle) == 2 + 6 * (noise.bell_wait_cycles - 1)
    nowait = build_memory_circuit(hc, hc_part, NoiseParams(1e-3, 1e-2, 1), 1)
    idle0 = [
        i
        for i in nowait.instructions
        if isinstance(i, Depolarize1) and i.targets == nowait.data_qubits
    ]
    assert len(idle0) == 2


@pytest.mark.parametrize("rounds", [1, 2])
def test_determinism_single_and_partitioned(hc, hc_part, rounds):
    for part in (None, hc_part):
        c = build_memory_circuit(hc, part, NoiseParams(1e-3, 1e-2), rounds)
        assert validate_determinism(c).ok


def test_determinism_catches_corrupted_detector(hc):
    c = build_memory_circuit(hc, None, NoiseParams(1e-3, 0), 1)
    bad = list(c.detectors)
    victim = bad[3]
    corrupt = tuple(
        list(victim.records[:-1]) + [(victim.records[-1] + 1) % c.n_records]
    )
    bad[3] = Detector(corrupt, face=victim.face, anchor=victim.anchor)
    c.detectors = tuple(bad)
    report = validate_determinism(c)
    assert not report.ok
    assert any(i == 3 for i, _ in report.failing_detectors)


def test_determinism_catches_corrupted_observable(hc):
    c = build_memory_circuit(hc, None, NoiseParams(1e-3, 0), 1)
    obs = list(c.observables)
    victim = obs[0]
    obs[0] = Observable(victim.index, victim.records[:-1])
    c.observables = tuple(obs)
    report = validate_determinism(c)
    assert not report.ok
    assert any(i == victim.index for i, _ in report.failing_observables)


def _one_qubit_program(instructions, detectors=(), observables=()) -> CircuitProgram:
    n_records = sum(len(i.products) for i in instructions if isinstance(i, MeasurePP))
    return CircuitProgram(
        name="hand",
        n_qubits=1,
        data_qubits=(0,),
        bell_ancillas=(),
        instructions=tuple(instructions),
        detectors=tuple(detectors),
        observables=tuple(observables),
        n_records=n_records,
    )


def test_determinism_reads_a_twice_listed_record_once():
    """X on |0> is random.  A detector that lists its record twice samples
    that record's flips, so certification must fail it too, rather than
    cancel the record away."""
    program = _one_qubit_program(
        [Reset((0,)), Depolarize1(0.3, (0,)), MeasurePP(0.0, (((0, "X"),),))],
        detectors=[Detector((0, 0))],
    )
    report = validate_determinism(program)
    assert not report.ok
    assert [i for i, _ in report.failing_detectors] == [0]
    assert sample_shots(program, 1, 1000).detectors.mean() > 0.1


def test_determinism_merges_the_entries_of_one_observable_index():
    """Records 0, 1 and 2 are the same random X outcome.  The entries
    {0, 1} and {1, 2} of observable 0 are each deterministic, but the
    sampler reads their union {0, 1, 2}, which is random; the failure is
    reported once, by index."""
    x0 = MeasurePP(0.0, (((0, "X"),),))
    program = _one_qubit_program(
        [Reset((0,)), x0, x0, x0],
        observables=[Observable(0, (0, 1)), Observable(0, (1, 2))],
    )
    report = validate_determinism(program)
    assert not report.ok and not report.failing_detectors
    assert [i for i, _ in report.failing_observables] == [0]
    deterministic = dataclasses.replace(
        program, observables=(Observable(0, (0, 1)), Observable(1, (1, 2)))
    )
    assert validate_determinism(deterministic).ok
    outside = dataclasses.replace(program, observables=(Observable(1, (0,)),))
    with pytest.raises(CircuitError, match="observable index 1 outside"):
        validate_determinism(outside)


@pytest.mark.parametrize("record", [-1, 3])
@pytest.mark.parametrize("where", ["detector", "observable"])
def test_record_index_out_of_range(monkeypatch, where, record):
    """A record outside [0, n_records) fails certification with one report
    entry, and sampling refuses the program; a program whose records are
    all in range has them checked once per certification."""
    z0 = MeasurePP(0.0, (((0, "Z"),),))
    good = _one_qubit_program(
        [Reset((0,)), z0, z0, z0],
        detectors=[Detector((0, 1))],
        observables=[Observable(0, (2,))],
    )
    checks = []
    real = CircuitProgram.measurement_index_ok

    def counted(program):
        checks.append(program)
        return real(program)

    monkeypatch.setattr(CircuitProgram, "measurement_index_ok", counted)
    assert validate_determinism(good).ok
    assert len(checks) == 1
    if where == "detector":
        bad = dataclasses.replace(good, detectors=(Detector((0, record)),))
    else:
        bad = dataclasses.replace(good, observables=(Observable(0, (record,)),))
    report = validate_determinism(bad)
    assert not report.ok and not report.failing_observables
    assert report.failing_detectors == ((-1, "record index out of range"),)
    with pytest.raises(CircuitError, match="missing record"):
        sample_shots(bad, 1, 10)


def test_no_partition_compiles_as_one_processor(hc):
    noise = NoiseParams(1e-3, 1e-2)
    alone = build_memory_circuit(hc, None, noise, 2)
    one = partition_code(hc, 3 * hc.n_vertices)
    assert one.n_clusters == 1 and not one.nonlocal_edges
    together = build_memory_circuit(hc, one, noise, 2)
    for name in ("instructions", "detectors", "observables", "n_qubits", "n_records"):
        assert getattr(alone, name) == getattr(together, name)


def test_rejects_bad_round_count(hc):
    for rounds in (0, 1.5, True):
        with pytest.raises(CircuitError):
            build_memory_circuit(hc, None, NoiseParams(0, 0), rounds)


def _count_calls(monkeypatch, name: str) -> list:
    """Patch sim's function name to count its calls; returns the counter."""
    calls = []
    real = getattr(sim_module, name)

    def counted(circuit, *args):
        calls.append(args)
        return real(circuit, *args)

    monkeypatch.setattr(sim_module, name, counted)
    return calls


def test_build_and_certify_simulate_once(hc, hc_part, monkeypatch):
    # the instructions are compiled once for compiling, certifying and
    # sampling; each certification is one run over the gauge columns
    compiles = _count_calls(monkeypatch, "_compile_ops")
    runs = _count_calls(monkeypatch, "_random_parities")
    c = build_memory_circuit(hc, hc_part, NoiseParams(1e-3, 1e-2), 2)
    assert len(compiles) == 1 and len(runs) == 1
    (candidates,) = runs[0]
    assert len(candidates) > c.n_detectors + c.n_observables
    assert validate_determinism(c).ok
    assert len(runs) == 2
    assert len(runs[1][0]) == c.n_detectors + c.n_observables
    sample_shots(c, 1, 10)
    assert len(compiles) == 1


def _flip_one_pauli(instructions: tuple) -> tuple:
    """The instructions with the second Pauli of the first product of the
    fourth two-qubit MeasurePP swapped between X and Z."""
    out = list(instructions)
    pair_mpps = [
        i for i, ins in enumerate(out)
        if isinstance(ins, MeasurePP) and len(ins.products[0]) == 2
    ]
    i = pair_mpps[3]
    (a, pa), (b, pb) = out[i].products[0]
    swapped = ((a, pa), (b, "Z" if pb == "X" else "X"))
    out[i] = MeasurePP(out[i].flip_p, (swapped,) + out[i].products[1:])
    return tuple(out)


@pytest.mark.parametrize("how", ["replace", "reassign"])
def test_changed_instructions_are_simulated_again(hc, monkeypatch, how):
    c = build_memory_circuit(hc, None, NoiseParams(1e-3, 0), 1)
    compiles = _count_calls(monkeypatch, "_compile_ops")
    changed = _flip_one_pauli(c.instructions)
    if how == "replace":
        c = dataclasses.replace(c, instructions=changed)
    else:
        c.instructions = changed
    report = validate_determinism(c)
    assert len(compiles) == 1
    assert not report.ok


def _no_certification(circuit, parity_lists):
    raise AssertionError("determinism was certified")


def test_sampling_a_hand_built_program_runs_no_certification(monkeypatch):
    monkeypatch.setattr(sim_module, "_random_parities", _no_certification)
    program = CircuitProgram(
        name="hand",
        n_qubits=2,
        data_qubits=(0, 1),
        bell_ancillas=(),
        instructions=(
            Reset((0, 1)),
            Depolarize1(0.2, (0, 1)),
            MeasurePP(0.1, (((0, "Z"), (1, "Z")), ((1, "Z"),))),
        ),
        detectors=(Detector((0,)), Detector((1,))),
        observables=(Observable(0, (1,)),),
        n_records=2,
    )
    batch = sample_shots(program, 7, 200)
    assert batch.detectors.any()


@pytest.mark.parametrize("L, n_qpu", [(3, None), (6, 40)])
def test_constraint_rows_match_all_pairs_oracle(monkeypatch, L, n_qpu):
    # every constraint matrix and vector the observable tracker builds by
    # walking generators through its qubit index equals the all-pairs loop
    built = []
    cls = circuit_module._Constraints
    real_matrix, real_vector = cls.matrix, cls.vector

    def matrix(self, gens):
        cols = real_matrix(self, gens)
        built.append((self.rows, gens, cols))
        return cols

    def vector(self, codes):
        b = real_vector(self, codes)
        built.append((self.rows, [(0, dict(codes))], [b]))
        return b

    monkeypatch.setattr(cls, "matrix", matrix)
    monkeypatch.setattr(cls, "vector", vector)
    lat = generate_honeycomb_torus(L, L)
    part = partition_code(lat, n_qpu) if n_qpu else None
    build_memory_circuit(lat, part, NoiseParams(1e-3, 1e-2), 2)
    assert sum(len(cols) > 1 for _, _, cols in built) >= 7  # window + 6 sub-rounds
    for rows, gens, cols in built:
        assert cols == reference_constraint_matrix(gens, rows)


def test_measure_rejects_unknown_pauli():
    with pytest.raises(CircuitError, match="'Q'"):
        MeasurePP(0.0, (((1, "Q"),),))
    with pytest.raises(CircuitError):
        MeasurePP(0.0, (((0, "Z"), (1, "x")),))


def test_measure_rejects_repeated_qubit():
    # X0·Z0 is not Hermitian, and the frame rows would read it as Y0
    with pytest.raises(CircuitError, match="twice"):
        MeasurePP(0.0, (((0, "X"), (0, "Z")),))


def _two_qubit_program(instructions, n_records):
    return CircuitProgram(
        name="hand",
        n_qubits=2,
        data_qubits=(0, 1),
        bell_ancillas=(),
        instructions=instructions,
        detectors=(),
        observables=(),
        n_records=n_records,
    )


@pytest.mark.parametrize(
    "instructions, n_records",
    [
        ((Reset((0, 1)), MeasurePP(0.0, (((0, "Z"), (2, "Z")),))), 1),
        ((Reset((0, 1)), MeasurePP(0.0, (((-1, "X"),),))), 1),
        ((Reset((0, 2)),), 0),
        ((BellPrep(((1, 2),)),), 0),
    ],
    ids=["measured-past-end", "measured-negative", "reset-past-end", "bell-past-end"],
)
def test_qubit_out_of_range_raises_circuit_error(instructions, n_records):
    program = _two_qubit_program(instructions, n_records)
    with pytest.raises(CircuitError, match="outside"):
        validate_determinism(program)
    with pytest.raises(CircuitError, match="outside"):
        sample_shots(program, 0, 10)
