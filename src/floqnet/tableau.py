"""Stabilizer tableau with symbolic measurement outcomes.

Tracks a stabilizer state under Pauli-product measurements, resets and Bell
preparations (Aaronson and Gottesman, arXiv:quant-ph/0406196).  Every
non-deterministic measurement introduces a fresh symbolic random bit;
outcome values are affine GF(2) functions of those bits.  A parity of
outcomes is deterministic exactly when the symbolic masks cancel, which is
the oracle used to certify detector and observable definitions.

Row convention: a row with bit vectors (x, z) and phase exponent e stands
for i^e · ⊗_j P_j with P_j ∈ {I, X, Y, Z} read literally from (x_j, z_j).

Layout: every bit vector is a Python int.  Row r of the 2n rows
(destabilizers 0..n-1, stabilizers n..2n-1) holds x[r] and z[r], whose bit
j is qubit j, a phase exponent phase[r] in 0..3, and masks[r], whose bit k
is the k-th symbolic random bit.  The columns are kept as well: bit r of
cols_x[j] (cols_z[j]) is set when row r has an x (z) bit at qubit j.  The
rows anticommuting with a Pauli are then the XOR of cols_z over its x
support and cols_x over its z support, and multiplying row p into a set S
of rows XORs S into the columns of row p's support, so that each operation
touches only the rows and qubits it changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from floqnet.gf2 import bits

__all__ = ["PauliWords", "Outcome", "SymbolicTableau", "pack_pauli"]


@dataclass(frozen=True)
class Outcome:
    """Measurement outcome bit + mask over symbolic random bits."""

    bit: int
    mask: int


@dataclass
class PauliWords:
    """A Pauli product as x and z bitsets over the qubits (bit j is qubit j)."""

    x: int
    z: int


def pack_pauli(n_qubits: int, terms: dict[int, str]) -> PauliWords:
    """Bit-packed Pauli from {qubit: 'X'|'Y'|'Z'}."""
    x = z = 0
    for q, p in terms.items():
        bit = 1 << q
        if p in ("X", "Y"):
            x |= bit
        if p in ("Z", "Y"):
            z |= bit
    return PauliWords(x, z)


def _log_i(x1: int, z1: int, x2: int, z2: int) -> int:
    """i-exponent, mod 4, of the per-qubit products of rows (x1, z1) · (x2, z2).

    Each anticommuting qubit gives i or -i, so the sum is the number of
    anticommuting qubits plus twice the number that give -i: the pairs
    YX, ZY and XZ, where x1 ^ z1 ^ x2 ^ z2 ^ (x1 & z2) is set.
    """
    x1z2 = x1 & z2
    anti = (x2 & z1) ^ x1z2
    minus = (x1 ^ z1 ^ x2 ^ z2 ^ x1z2) & anti
    return anti.bit_count() + 2 * minus.bit_count()


class SymbolicTableau:
    def __init__(self, n_qubits: int):
        self.n = n_qubits
        n = n_qubits
        # destabilizers: rows 0..n-1 = X_i ; stabilizers: rows n..2n-1 = Z_i
        self.x = [1 << i for i in range(n)] + [0] * n
        self.z = [0] * n + [1 << i for i in range(n)]
        self.phase = [0] * (2 * n)  # i-exponent mod 4
        self.masks = [0] * (2 * n)
        self.cols_x = [1 << i for i in range(n)]
        self.cols_z = [1 << (n + i) for i in range(n)]
        self.n_random_bits = 0

    # -- row operations --------------------------------------------------------

    def _anticommuting(self, pauli: PauliWords) -> int:
        """Bitset of the rows that anticommute with pauli."""
        rows = 0
        for q in bits(pauli.x):
            rows ^= self.cols_z[q]
        for q in bits(pauli.z):
            rows ^= self.cols_x[q]
        return rows

    def _rowsum(self, targets: int, p: int) -> None:
        """row_t <- row_p · row_t for each row t in the bitset targets."""
        xp, zp, ep, mp = self.x[p], self.z[p], self.phase[p], self.masks[p]
        for t in bits(targets):
            xt, zt = self.x[t], self.z[t]
            self.phase[t] = (self.phase[t] + ep + _log_i(xp, zp, xt, zt)) & 3
            self.x[t] = xt ^ xp
            self.z[t] = zt ^ zp
            self.masks[t] ^= mp
        for q in bits(xp):
            self.cols_x[q] ^= targets
        for q in bits(zp):
            self.cols_z[q] ^= targets

    def _set_row(self, r: int, x: int, z: int, phase: int, mask: int) -> None:
        bit = 1 << r
        for q in bits(self.x[r] ^ x):
            self.cols_x[q] ^= bit
        for q in bits(self.z[r] ^ z):
            self.cols_z[q] ^= bit
        self.x[r], self.z[r], self.phase[r], self.masks[r] = x, z, phase, mask

    def _collapse(self, pauli: PauliWords, anti: int) -> int:
        """Project onto pauli's +1 eigenspace, given that the stabilizers in
        the bitset anti anticommute with it.  The first of them multiplies
        into every other anticommuting row, becomes the matching
        destabilizer, and its stabilizer row becomes pauli with mask 0.
        Returns that row."""
        n = self.n
        stab = anti >> n
        p = n + (stab & -stab).bit_length() - 1
        self._rowsum(anti ^ (1 << p), p)
        self._set_row(p - n, self.x[p], self.z[p], self.phase[p], self.masks[p])
        self._set_row(p, pauli.x, pauli.z, 0, 0)
        return p

    def _determined(self, pauli: PauliWords, anti: int) -> Outcome:
        """Outcome of pauli when no stabilizer anticommutes with it: the
        product of the stabilizers paired with the anticommuting
        destabilizers in the bitset anti."""
        n = self.n
        sx = sz = e = mask = 0
        for i in bits(anti):
            p = i + n
            xp, zp = self.x[p], self.z[p]
            e = (e + self.phase[p] + _log_i(xp, zp, sx, sz)) & 3
            sx ^= xp
            sz ^= zp
            mask ^= self.masks[p]
        if sx != pauli.x or sz != pauli.z:
            raise RuntimeError("deterministic measurement does not match tableau")
        if e & 1:
            raise RuntimeError("imaginary phase on a deterministic outcome")
        return Outcome(e >> 1, mask)

    # -- operations ------------------------------------------------------------

    def measure(self, pauli: PauliWords) -> Outcome:
        """Measure a (real, +1-phased) Pauli product; return its outcome."""
        anti = self._anticommuting(pauli)
        if anti >> self.n:
            p = self._collapse(pauli, anti)
            k = self.n_random_bits
            self.n_random_bits += 1
            self.masks[p] = 1 << k
            return Outcome(0, 1 << k)
        return self._determined(pauli, anti)

    def apply_pauli_conditional(self, pauli: PauliWords, symbol: Outcome) -> None:
        """Conjugate by a Pauli applied iff the symbolic value is 1."""
        if symbol.bit == 0 and symbol.mask == 0:
            return
        for r in bits(self._anticommuting(pauli)):
            if symbol.bit:
                self.phase[r] = (self.phase[r] + 2) & 3
            self.masks[r] ^= symbol.mask

    def measure_forced(self, pauli: PauliWords) -> None:
        """Measure and force the +1 outcome (projective preparation)."""
        anti = self._anticommuting(pauli)
        if anti >> self.n:
            self._collapse(pauli, anti)
            return
        out = self._determined(pauli, anti)
        if out.bit or out.mask:
            # correct with any anticommuting single-qubit Pauli
            self.apply_pauli_conditional(self._anticommuting_single(pauli), out)

    def _anticommuting_single(self, pauli: PauliWords) -> PauliWords:
        """Z on the lowest qubit of pauli's support if pauli has an x bit
        there, else X."""
        support = pauli.x | pauli.z
        if not support:
            raise ValueError("identity Pauli has no anticommuting partner")
        low = support & -support
        q = low.bit_length() - 1
        return pack_pauli(self.n, {q: "Z" if pauli.x & low else "X"})

    def reset_z(self, q: int) -> None:
        self.measure_forced(pack_pauli(self.n, {q: "Z"}))

    def bell_prep(self, a: int, b: int) -> None:
        """Project qubits (a, b) onto the |Φ+> Bell state."""
        self.reset_z(a)
        self.reset_z(b)
        self.measure_forced(pack_pauli(self.n, {a: "X", b: "X"}))
