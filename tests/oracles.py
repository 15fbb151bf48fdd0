"""Independent brute-force oracles used only by the test suite."""

from __future__ import annotations

import itertools

import numpy as np

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
