"""Stabilizer tableau with symbolic measurement outcomes.

Tracks a stabilizer state under Pauli-product measurements, resets and Bell
preparations.  Every non-deterministic measurement introduces a fresh
symbolic random bit; outcome values are affine GF(2) functions of those
bits.  A parity of outcomes is deterministic exactly when the symbolic
masks cancel, which is the oracle used to certify detector and observable
definitions.

Row convention: a row with bit vectors (x, z) and phase exponent e stands
for i^e · ⊗_j P_j with P_j ∈ {I, X, Y, Z} read literally from (x_j, z_j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PauliWords", "Outcome", "SymbolicTableau", "pack_pauli"]


@dataclass(frozen=True)
class Outcome:
    """Measurement outcome bit + mask over symbolic random bits."""

    bit: int
    mask: int

    def __xor__(self, other: "Outcome") -> "Outcome":
        return Outcome(self.bit ^ other.bit, self.mask ^ other.mask)


@dataclass
class PauliWords:
    x: np.ndarray
    z: np.ndarray


def pack_pauli(n_qubits: int, terms: dict[int, str]) -> PauliWords:
    """Bit-packed Pauli from {qubit: 'X'|'Y'|'Z'}."""
    words = (n_qubits + 63) // 64
    x = np.zeros(words, dtype=np.uint64)
    z = np.zeros(words, dtype=np.uint64)
    for q, p in terms.items():
        w, b = divmod(q, 64)
        if p in ("X", "Y"):
            x[w] |= np.uint64(1 << b)
        if p in ("Z", "Y"):
            z[w] |= np.uint64(1 << b)
    return PauliWords(x, z)


def _parity_per_row(words: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(words).sum(axis=1) & 1).astype(bool)


class SymbolicTableau:
    def __init__(self, n_qubits: int):
        self.n = n_qubits
        self.words = (n_qubits + 63) // 64
        rows = 2 * n_qubits
        self.X = np.zeros((rows, self.words), dtype=np.uint64)
        self.Z = np.zeros((rows, self.words), dtype=np.uint64)
        # destabilizers: rows 0..n-1 = X_i ; stabilizers: rows n..2n-1 = Z_i
        for i in range(n_qubits):
            w, b = divmod(i, 64)
            self.X[i, w] |= np.uint64(1 << b)
            self.Z[n_qubits + i, w] |= np.uint64(1 << b)
        self.phase_exp = np.zeros(rows, dtype=np.uint8)  # i-exponent mod 4
        self.mask_words = 1
        self.masks = np.zeros((rows, self.mask_words), dtype=np.uint64)
        self.n_random_bits = 0

    # -- symbolic random bits -------------------------------------------------

    def _new_random_bit(self) -> int:
        k = self.n_random_bits
        self.n_random_bits += 1
        if k >= 64 * self.mask_words:
            grow = max(self.mask_words, 1)
            self.masks = np.concatenate(
                [self.masks, np.zeros((self.masks.shape[0], grow), dtype=np.uint64)],
                axis=1,
            )
            self.mask_words += grow
        return k

    # -- phase arithmetic ------------------------------------------------------

    def _g_exponent(self, p: int, targets: np.ndarray) -> np.ndarray:
        """i-exponent of per-qubit products row_p · row_t, summed per target."""
        xi, zi = self.X[p], self.Z[p]
        xh, zh = self.X[targets], self.Z[targets]
        plus = (xi & ~zi & xh & zh) | (xi & zi & ~xh & zh) | (~xi & zi & xh & ~zh)
        minus = (xi & zi & xh & ~zh) | (~xi & zi & xh & zh) | (xi & ~zi & ~xh & zh)
        return (
            np.bitwise_count(plus).sum(axis=1).astype(np.int64)
            - np.bitwise_count(minus).sum(axis=1).astype(np.int64)
        )

    def _rowsum_into(self, targets: np.ndarray, p: int) -> None:
        """row_t <- row_p · row_t for each target row t."""
        if targets.size == 0:
            return
        g = self._g_exponent(p, targets)
        self.phase_exp[targets] = (
            self.phase_exp[targets].astype(np.int64) + self.phase_exp[p] + g
        ) % 4
        self.X[targets] ^= self.X[p]
        self.Z[targets] ^= self.Z[p]
        self.masks[targets] ^= self.masks[p]

    def _anticommute_rows(self, pauli: PauliWords) -> np.ndarray:
        t = (self.X & pauli.z) ^ (self.Z & pauli.x)
        return np.nonzero(_parity_per_row(t))[0]

    # -- operations ------------------------------------------------------------

    def measure(self, pauli: PauliWords) -> Outcome:
        """Measure a (real, +1-phased) Pauli product; return its outcome."""
        n = self.n
        anti = self._anticommute_rows(pauli)
        anti_stab = anti[anti >= n]
        if anti_stab.size:
            p = int(anti_stab[0])
            others = anti[anti != p]
            self._rowsum_into(others, p)
            # old stabilizer becomes the matching destabilizer
            d = p - n
            self.X[d] = self.X[p]
            self.Z[d] = self.Z[p]
            self.phase_exp[d] = self.phase_exp[p]
            self.masks[d] = self.masks[p]
            k = self._new_random_bit()
            self.X[p] = pauli.x
            self.Z[p] = pauli.z
            self.phase_exp[p] = 0
            self.masks[p] = 0
            w, b = divmod(k, 64)
            self.masks[p, w] = np.uint64(1 << b)
            return Outcome(0, 1 << k)
        # deterministic: accumulate stabilizer rows indexed by anticommuting
        # destabilizers into a scratch row
        anti_destab = anti[anti < n]
        sx = np.zeros(self.words, dtype=np.uint64)
        sz = np.zeros(self.words, dtype=np.uint64)
        sexp = 0
        smask = np.zeros(self.mask_words, dtype=np.uint64)
        for i in anti_destab:
            p = int(i) + n
            xi, zi = self.X[p], self.Z[p]
            plus = (xi & ~zi & sx & sz) | (xi & zi & ~sx & sz) | (~xi & zi & sx & ~sz)
            minus = (xi & zi & sx & ~sz) | (~xi & zi & sx & sz) | (xi & ~zi & ~sx & sz)
            g = int(np.bitwise_count(plus).sum()) - int(np.bitwise_count(minus).sum())
            sexp = (sexp + int(self.phase_exp[p]) + g) % 4
            sx ^= xi
            sz ^= zi
            smask = smask ^ self.masks[p]
        if not (np.array_equal(sx, pauli.x) and np.array_equal(sz, pauli.z)):
            raise RuntimeError("deterministic measurement does not match tableau")
        if sexp % 2 != 0:
            raise RuntimeError("imaginary phase on a deterministic outcome")
        return Outcome((sexp // 2) % 2, int.from_bytes(smask.tobytes(), "little"))

    def apply_pauli_conditional(self, pauli: PauliWords, symbol: Outcome) -> None:
        """Conjugate by a Pauli applied iff the symbolic value is 1."""
        if symbol.bit == 0 and symbol.mask == 0:
            return
        anti = self._anticommute_rows(pauli)
        if anti.size == 0:
            return
        if symbol.bit:
            self.phase_exp[anti] = (self.phase_exp[anti] + 2) % 4
        if symbol.mask:
            add = np.frombuffer(
                symbol.mask.to_bytes(self.mask_words * 8, "little"), dtype=np.uint64
            )
            self.masks[anti] ^= add
        return

    def measure_forced(self, pauli: PauliWords) -> None:
        """Measure and force the +1 outcome (projective preparation)."""
        n = self.n
        anti = self._anticommute_rows(pauli)
        anti_stab = anti[anti >= n]
        if anti_stab.size:
            p = int(anti_stab[0])
            others = anti[anti != p]
            self._rowsum_into(others, p)
            d = p - n
            self.X[d] = self.X[p]
            self.Z[d] = self.Z[p]
            self.phase_exp[d] = self.phase_exp[p]
            self.masks[d] = self.masks[p]
            self.X[p] = pauli.x
            self.Z[p] = pauli.z
            self.phase_exp[p] = 0
            self.masks[p] = 0
            return
        out = self.measure(pauli)
        if out.bit or out.mask:
            # correct with any anticommuting single-qubit Pauli
            corr = self._anticommuting_single(pauli)
            self.apply_pauli_conditional(corr, out)

    def _anticommuting_single(self, pauli: PauliWords) -> PauliWords:
        for w in range(self.words):
            word = int(pauli.x[w])
            if word:
                b = (word & -word).bit_length() - 1
                return pack_pauli(self.n, {64 * w + b: "Z"})
            word = int(pauli.z[w])
            if word:
                b = (word & -word).bit_length() - 1
                return pack_pauli(self.n, {64 * w + b: "X"})
        raise ValueError("identity Pauli has no anticommuting partner")

    def reset_z(self, q: int) -> None:
        self.measure_forced(pack_pauli(self.n, {q: "Z"}))

    def bell_prep(self, a: int, b: int) -> None:
        """Project qubits (a, b) onto the |Φ+> Bell state."""
        self.reset_z(a)
        self.reset_z(b)
        self.measure_forced(pack_pauli(self.n, {a: "X", b: "X"}))
