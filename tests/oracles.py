"""Independent brute-force oracles used only by the test suite."""

from __future__ import annotations

import itertools

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
)
from floqnet.sim import _CHUNK, _PCODE, ShotBatch, _annotation_rng, _sample_events

_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class StatevectorSim:
    """Dense simulator of Pauli-product measurements on few qubits.

    Random outcomes always take the +1 branch, matching the reference
    convention of the production simulator (symbolic random bits = 0).
    """

    def __init__(self, n_qubits: int):
        self.n = n_qubits
        self.psi = np.zeros(2**n_qubits, dtype=complex)
        self.psi[0] = 1.0

    def _pauli_matrix(self, terms: dict[int, str]) -> np.ndarray:
        mats = [_P1[terms.get(q, "I")] for q in range(self.n)]
        out = np.array([[1.0]], dtype=complex)
        for m in mats:
            out = np.kron(out, m)
        return out

    def apply_pauli(self, terms: dict[int, str]) -> None:
        self.psi = self._pauli_matrix(terms) @ self.psi

    def measure(self, terms: dict[int, str]) -> tuple[int, bool]:
        """Measure a Pauli product. Returns (outcome_bit, was_deterministic)."""
        P = self._pauli_matrix(terms)
        plus = 0.5 * (self.psi + P @ self.psi)
        p0 = float(np.vdot(plus, plus).real)
        if p0 > 1 - 1e-9:
            self.psi = plus / np.sqrt(p0)
            return 0, True
        if p0 < 1e-9:
            minus = 0.5 * (self.psi - P @ self.psi)
            self.psi = minus / np.sqrt(float(np.vdot(minus, minus).real))
            return 1, True
        self.psi = plus / np.sqrt(p0)
        return 0, False

    def reset_z(self, q: int) -> None:
        bit, _ = self.measure({q: "Z"})
        if bit:
            self.apply_pauli({q: "X"})

    def bell_prep(self, a: int, b: int) -> None:
        self.reset_z(a)
        self.reset_z(b)
        bit, det = self.measure({a: "X", b: "X"})
        if bit:
            self.apply_pauli({a: "Z"})


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


def reference_sample_shots(circuit: CircuitProgram, seed: int, shots: int) -> ShotBatch:
    """The unpacked Pauli-frame sampler: one uint8 per shot and qubit.

    Loops over every measured product in Python and accumulates detector
    and observable parities as dense (shots x detectors) products.  It draws
    the same random streams in the same order as floqnet.sim.sample_shots,
    whose output must equal this one bit for bit.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    circuit.ensure_reference()
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
                        code = _PCODE[p]
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
