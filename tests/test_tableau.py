import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqnet.tableau import Outcome, SymbolicTableau, pack_pauli

from oracles import StatevectorSim


def test_measure_z_on_zero_state_deterministic():
    t = SymbolicTableau(2)
    out = t.measure(pack_pauli(2, {0: "Z"}))
    assert out.mask == 0 and out.bit == 0


def test_repeat_x_measurement_correlated():
    t = SymbolicTableau(1)
    a = t.measure(pack_pauli(1, {0: "X"}))
    assert a.mask != 0
    b = t.measure(pack_pauli(1, {0: "X"}))
    assert a == b


def test_bell_pair_correlations():
    t = SymbolicTableau(2)
    t.bell_prep(0, 1)
    xx = t.measure(pack_pauli(2, {0: "X", 1: "X"}))
    zz = t.measure(pack_pauli(2, {0: "Z", 1: "Z"}))
    assert xx == Outcome(0, 0)
    assert zz == Outcome(0, 0)
    z0 = t.measure(pack_pauli(2, {0: "Z"}))
    z1 = t.measure(pack_pauli(2, {1: "Z"}))
    assert z0.mask != 0
    assert z0 == z1


def test_reset_after_entanglement():
    t = SymbolicTableau(2)
    t.bell_prep(0, 1)
    t.reset_z(0)
    out = t.measure(pack_pauli(2, {0: "Z"}))
    assert out == Outcome(0, 0)


def test_anticommuting_pair_randomizes():
    t = SymbolicTableau(1)
    t.measure(pack_pauli(1, {0: "X"}))
    z = t.measure(pack_pauli(1, {0: "Z"}))
    assert z.mask != 0


_PAULIS = ["X", "Y", "Z"]


@st.composite
def _random_program(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=3, max_value=14))
    ops = []
    for _ in range(k):
        kind = draw(st.sampled_from(["measure", "reset", "bell"]))
        if kind == "measure":
            support = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1,
                    max_size=2,
                    unique=True,
                )
            )
            terms = {q: draw(st.sampled_from(_PAULIS)) for q in support}
            ops.append(("measure", terms))
        elif kind == "reset":
            ops.append(("reset", draw(st.integers(min_value=0, max_value=n - 1))))
        else:
            a = draw(st.integers(min_value=0, max_value=n - 1))
            b = draw(st.integers(min_value=0, max_value=n - 1))
            if a != b:
                ops.append(("bell", (a, b)))
    return n, ops


@given(_random_program())
@settings(max_examples=120, deadline=None)
def test_reference_outcomes_match_statevector(prog):
    n, ops = prog
    tab = SymbolicTableau(n)
    sv = StatevectorSim(n)
    for op, arg in ops:
        if op == "measure":
            before = tab.n_random_bits
            sym = tab.measure(pack_pauli(n, arg))
            fresh_randomness = tab.n_random_bits > before
            bit, det = sv.measure(arg)
            # det means "no new randomness given past branch choices"
            assert det == (not fresh_randomness)
            # reference outcome: all symbolic random bits evaluate to 0
            assert bit == sym.bit
        elif op == "reset":
            tab.reset_z(arg)
            sv.reset_z(arg)
        else:
            tab.bell_prep(*arg)
            sv.bell_prep(*arg)


def test_symbolic_masks_track_pauli_frames():
    # inserting a Pauli flips exactly the outcomes whose operators anticommute
    n = 3
    tab = SymbolicTableau(n)
    sv = StatevectorSim(n)
    sv.apply_pauli({1: "X"})  # error on qubit 1 before any measurement
    seq = [{1: "Z"}, {0: "Z", 1: "Z"}, {1: "X"}, {2: "Z"}]
    for terms in seq:
        sym = tab.measure(pack_pauli(n, terms))
        bit, det = sv.measure(terms)
        if det:
            anti = sum(1 for q, p in terms.items() if q == 1 and p != "X") % 2
            assert bit == sym.bit ^ anti


@st.composite
def _branched_program(draw):
    """A random program on up to 6 qubits, with products of up to 3 qubits,
    and one branch bit per possible random outcome."""
    n = draw(st.integers(min_value=1, max_value=6))
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        kind = draw(st.sampled_from(["measure", "measure", "reset", "bell"]))
        if kind == "measure":
            support = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1,
                    max_size=min(3, n),
                    unique=True,
                )
            )
            ops.append(("measure", {q: draw(st.sampled_from(_PAULIS)) for q in support}))
        elif kind == "reset":
            ops.append(("reset", draw(st.integers(min_value=0, max_value=n - 1))))
        elif n >= 2:
            a, b = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=2,
                    max_size=2,
                    unique=True,
                )
            )
            ops.append(("bell", (a, b)))
    branches = draw(st.lists(st.integers(0, 1), min_size=len(ops), max_size=len(ops)))
    return n, ops, branches


@given(_branched_program())
@settings(max_examples=150, deadline=None)
def test_outcomes_match_statevector_on_every_branch(prog):
    # the symbolic outcome (bit, mask) evaluated at the branch choices gives
    # the statevector's outcome on that branch, for every measurement
    n, ops, branches = prog
    chosen = sum(b << k for k, b in enumerate(branches))
    tab = SymbolicTableau(n)
    sv = StatevectorSim(n, branches)
    for op, arg in ops:
        if op == "measure":
            sym = tab.measure(pack_pauli(n, arg))
            bit, _ = sv.measure(arg)
            assert bit == sym.bit ^ ((sym.mask & chosen).bit_count() & 1)
        elif op == "reset":
            tab.reset_z(arg)
            sv.reset_z(arg)
        else:
            tab.bell_prep(*arg)
            sv.bell_prep(*arg)
    assert tab.n_random_bits == sv.n_random


def test_inconsistent_deterministic_outcome_raises():
    # stabilizer rows that do not generate the measured product
    t = SymbolicTableau(2)
    t._set_row(2, 0, 0, 0, 0)
    with pytest.raises(RuntimeError, match="does not match tableau"):
        t.measure(pack_pauli(2, {0: "Z"}))
    # a stabilizer with phase i
    t = SymbolicTableau(1)
    t.phase[1] = 1
    with pytest.raises(RuntimeError, match="imaginary phase"):
        t.measure(pack_pauli(1, {0: "Z"}))
