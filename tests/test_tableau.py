"""Determinism certification against a dense statevector.

validate_determinism runs the Pauli-frame kernel over stabiliser gauges.
Its verdicts on every record and every pair of records are compared with
StatevectorSim, which takes a chosen branch at each random outcome.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from floqnet import gf2, sim
from floqnet.circuit import (
    BellPrep,
    CircuitProgram,
    Detector,
    MeasurePP,
    Reset,
    validate_determinism,
)

from oracles import StatevectorSim


def _program(n: int, instructions) -> tuple[CircuitProgram, list[tuple[int, ...]]]:
    """The noiseless program with one detector per record and per pair of
    records, and those record tuples in detector order."""
    n_records = sum(len(i.products) for i in instructions if isinstance(i, MeasurePP))
    parities = [(r,) for r in range(n_records)]
    parities += list(itertools.combinations(range(n_records), 2))
    program = CircuitProgram(
        name="hand",
        n_qubits=n,
        data_qubits=tuple(range(n)),
        bell_ancillas=(),
        instructions=tuple(instructions),
        detectors=tuple(Detector(p) for p in parities),
        observables=(),
        n_records=n_records,
    )
    return program, parities


def _random(n: int, instructions) -> set[tuple[int, ...]]:
    """The records and record pairs that validate_determinism reports as
    random."""
    program, parities = _program(n, instructions)
    return {parities[i] for i, _ in validate_determinism(program).failing_detectors}


def _measure(*products) -> MeasurePP:
    return MeasurePP(0.0, tuple(tuple(p.items()) for p in products))


def test_measure_z_on_zero_state_deterministic():
    assert _random(2, [Reset((0, 1)), _measure({0: "Z"})]) == set()
    # every qubit starts in |0>, reset or not
    assert _random(2, [_measure({0: "Z"}), _measure({1: "X"})]) == {(1,), (0, 1)}


def test_repeat_x_measurement_correlated():
    assert _random(1, [Reset((0,)), _measure({0: "X"}), _measure({0: "X"})]) == {
        (0,),
        (1,),
    }


def test_bell_pair_correlations():
    instructions = [
        BellPrep(((0, 1),)),
        _measure({0: "X", 1: "X"}),
        _measure({0: "Z", 1: "Z"}),
        _measure({0: "Z"}),
        _measure({1: "Z"}),
    ]
    assert _random(2, instructions) == {(2,), (3,), (0, 2), (0, 3), (1, 2), (1, 3)}


def test_reset_after_entanglement():
    instructions = [BellPrep(((0, 1),)), Reset((0,)), _measure({0: "Z"})]
    assert _random(2, instructions) == set()


def test_anticommuting_pair_randomizes():
    instructions = [Reset((0,)), _measure({0: "X"}), _measure({0: "Z"})]
    assert _random(1, instructions) == {(0,), (1,), (0, 1)}


@st.composite
def _branched_program(draw):
    """(n, instructions) on up to 6 qubits: resets, Bell preparations and
    measured products of 1 to 3 qubits.  Each Bell half is measured, in a
    product with up to two other qubits, 2 to 5 instructions after its
    preparation."""
    n = draw(st.integers(min_value=1, max_value=6))
    qubit = st.integers(min_value=0, max_value=n - 1)

    def product(first: int) -> MeasurePP:
        others = draw(
            st.lists(
                qubit.filter(lambda q: q != first),
                max_size=min(2, n - 1),
                unique=True,
            )
        )
        terms = {q: draw(st.sampled_from("XYZ")) for q in [first, *others]}
        return _measure(terms)

    instructions: list = []
    due: list[tuple[int, MeasurePP]] = []  # (instruction count, measurement)
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        kind = draw(st.sampled_from(["measure", "measure", "reset", "bell"]))
        if kind == "measure":
            instructions.append(product(draw(qubit)))
        elif kind == "reset":
            targets = draw(st.lists(qubit, min_size=1, max_size=n, unique=True))
            instructions.append(Reset(tuple(targets)))
        elif n >= 2:
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            instructions.append(BellPrep(((a, b),)))
            for half in (a, b):
                delay = draw(st.integers(min_value=2, max_value=5))
                due.append((len(instructions) + delay, product(half)))
        instructions += [m for at, m in due if at <= len(instructions)]
        due = [(at, m) for at, m in due if at > len(instructions)]
    return n, instructions + [m for _, m in due]


def _outcomes(n: int, instructions, branches=()) -> tuple[list[int], int]:
    """Each record's statevector outcome on the given branches, and the
    number of random outcomes drawn, those of resets included."""
    sv = StatevectorSim(n, branches)
    bits = []
    for instr in instructions:
        if isinstance(instr, Reset):
            for q in instr.targets:
                sv.reset_z(q)
        elif isinstance(instr, BellPrep):
            for a, b in instr.pairs:
                sv.bell_prep(a, b)
        else:
            bits += [sv.measure(dict(prod))[0] for prod in instr.products]
    return bits, sv.n_random


def _branch_runs(n: int, instructions) -> list[list[int]]:
    """The records' outcomes on branch 0, then on each branch that flips
    one random outcome.  Outcomes are affine in the branch bits, so these
    runs decide every parity."""
    base, n_random = _outcomes(n, instructions)
    unit = [(0,) * k + (1,) for k in range(n_random)]
    return [base] + [_outcomes(n, instructions, b)[0] for b in unit]


@given(_branched_program())
@settings(max_examples=150, deadline=None)
def test_outcomes_match_statevector_on_every_branch(prog):
    n, instructions = prog
    runs = _branch_runs(n, instructions)
    _, parities = _program(n, instructions)
    want = {
        p for p in parities if len({sum(run[r] for r in p) & 1 for run in runs}) > 1
    }
    assert _random(n, instructions) == want


@given(_branched_program())
@settings(max_examples=100, deadline=None)
def test_gauges_and_branches_fix_the_same_parities(prog):
    # record r's gauge flips and its outcome changes over the unit branches
    # have the same linear dependencies, so every parity of records, not
    # only singles and pairs, gets the statevector's verdict: the gauge
    # rows, the branch rows and both side by side have one rank
    n, instructions = prog
    program, _ = _program(n, instructions)
    slices = sim._parity_slices([[r] for r in range(program.n_records)])
    ops = sim._compiled_ops(program)
    gauge_rows = [0] * program.n_records
    for lo, bits in sim._run_columns(
        program, ops, *sim._gauge_columns(program), slices
    ):
        for r, words in enumerate(bits.tolist()):
            for w, word in enumerate(words):
                gauge_rows[r] |= word << (lo + 64 * w)
    base, *unit = _branch_runs(n, instructions)
    branch_rows = [
        sum((run[r] ^ base[r]) << k for k, run in enumerate(unit))
        for r in range(program.n_records)
    ]
    shift = max((g.bit_length() for g in gauge_rows), default=0)
    both = [g | b << shift for g, b in zip(gauge_rows, branch_rows)]
    assert gf2.rank(gauge_rows) == gf2.rank(branch_rows) == gf2.rank(both)
