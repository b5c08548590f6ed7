"""Exact statevector simulation on 2m qubits, and product-formula steps in
the sector basis.

Amplitude index b encodes occupations directly: bit p is orbital p spin-up,
bit p+m is orbital p spin-down, matching the fock-module convention, so
sector vectors embed by index with no sign bookkeeping, and a register
projects back to a sector only with its leak check. The register serves
the measurement model (the recipes of quantum, sampled by shots) and QITE.

Pauli actions and exponentials work directly on amplitudes, through one
table kernel: `pauli_rows` turns (x, z) masks into per-row gather indices
and phases, so a Pauli sum is a term-ordered reduction over table tiles
and QITE gathers its whole rotation pool at once.

The Trotter step takes and returns a sector vector and exponentiates each
factor of the factorized Hamiltonian in string space. A spin-free one-body
factor F keeps both spins' electron counts, and on one spin's k-electron
strings it is the real symmetric matrix fock.string_operator(F, k) with
eigenpairs (lambda, Y). A (m, k_up, k_down) sector vector, stored
down-major, reshapes to its one block C[down string, up string], on which
exp(-i t F) is Y_d (exp(-i t (lambda_d + lambda_u)) o (Y_d^T C Y_u)) Y_u^T,
and exp(-i t F^2) squares the exponent's sum. The step is

    exp(-i dt H) ~ e^{-i dt e_nuc} [prod_g exp(-i dt (L^g)^2)] exp(-i dt J1)

applied rightmost first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DataError, ValidationError
from .fock import FockVector, sector_word_indices, string_operator
from .integrals import CholeskyFactors
from .qubits import _PHASES, PauliString, PauliSum

_MAX_QUBITS = 24


def _zeros(num_qubits: int) -> np.ndarray:
    """Zero amplitudes; the qubit cap is checked before allocating."""
    if num_qubits > _MAX_QUBITS:
        raise CapacityError(f"statevector capped at {_MAX_QUBITS} qubits")
    return np.zeros(1 << num_qubits, dtype=complex)


@dataclass(eq=False)
class Statevector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits > _MAX_QUBITS:
            raise CapacityError(f"statevector capped at {_MAX_QUBITS} qubits")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (1 << self.num_qubits,):
            raise ValidationError("amplitude length is not 2^num_qubits")
        self.amplitudes = amp

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "Statevector":
        n = self.norm()
        if n == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return Statevector(self.num_qubits, self.amplitudes / n)


def statevector_from_fock(v: FockVector) -> Statevector:
    m = v.sector[0]
    amp = _zeros(2 * m)
    amp[sector_word_indices(v.sector)] = v.amplitudes
    return Statevector(2 * m, amp)


def fock_from_statevector(s: Statevector, sector: tuple) -> FockVector:
    """Project onto one particle-number sector; amplitude weight outside it
    beyond 1e-9 of the state's raises."""
    m = sector[0]
    if s.num_qubits != 2 * m:
        raise ValidationError("qubit count does not match sector")
    inside = s.amplitudes[sector_word_indices(sector)]
    total = float(np.vdot(s.amplitudes, s.amplitudes).real)
    kept = float(np.vdot(inside, inside).real)
    if total - kept > 1e-9 * max(total, 1e-300):
        raise DataError(
            f"state leaks {total - kept:.3e} of weight {total:.3e} "
            "outside the requested sector"
        )
    return FockVector(sector, inside.copy())


def inner(a: Statevector, b: Statevector) -> complex:
    if a.num_qubits != b.num_qubits:
        raise ValidationError("qubit counts differ")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def distance(a: Statevector, b: Statevector) -> float:
    """1 - |<a|b>|, insensitive to global phase."""
    return 1.0 - abs(inner(a, b))


# a Pauli sum's table is built and summed in tiles of about _TILE entries,
# at most _WIDTH amplitudes wide, so that a tile's arrays stay in cache
_TILE, _WIDTH = 1 << 15, 1 << 12


def pauli_rows(num_qubits: int, x, z, lo: int = 0, hi: int | None = None):
    """Gather indices and phases of the strings with masks x, z, one row
    each: (P_k s)[j] = phase[k] (s, -s)[src[k, j - lo]] for lo <= j < hi
    (all 2^n by default), with src = j ^ x_k plus 2^n where
    popcount((j ^ x_k) & z_k) is odd and phase = i^|x_k & z_k|."""
    # int32 holds every index of the 24-qubit cap and halves the passes' traffic
    x, z = (np.asarray(v, dtype=np.int32)[:, None] for v in (x, z))
    src = np.arange(lo, 1 << num_qubits if hi is None else hi, dtype=np.int32) ^ x
    src |= (np.bitwise_count(src & z) & 1).astype(np.int32) << num_qubits
    return src, _PHASES[np.bitwise_count(x & z) & 3]


def gather_rows(src, phase, amplitudes: np.ndarray) -> np.ndarray:
    """phase * (s, -s)[src] for rows of `pauli_rows` and amplitudes s."""
    return phase * np.concatenate([amplitudes, -amplitudes]).take(src)


def apply_pauli(p: PauliString, s: Statevector) -> Statevector:
    if p.num_qubits != s.num_qubits:
        raise ValidationError("qubit counts differ")
    src, phase = pauli_rows(p.num_qubits, [p.x], [p.z])
    return Statevector(s.num_qubits, gather_rows(src[0], phase[0], s.amplitudes))


def apply_pauli_sum(h: PauliSum, s: Statevector) -> Statevector:
    """sum_k c_k P_k s, summed in term order from zero: each tile of the
    table is reduced with the running sum as its first row."""
    if h.num_qubits != s.num_qubits:
        raise ValidationError("qubit counts differ")
    size, signed = s.amplitudes.size, np.concatenate([s.amplitudes, -s.amplitudes])
    width = min(size, _WIDTH)
    step = _TILE // width
    out = np.zeros(size, dtype=complex)
    rows = np.empty((min(step, len(h)) + 1, width), dtype=complex)
    for lo in range(0, len(h), step):
        part = slice(lo, lo + step)
        block = rows[:h.coeffs[part].size + 1]
        for col in range(0, size, width):
            src, phase = pauli_rows(h.num_qubits, h.x[part], h.z[part], col, col + width)
            block[0] = out[col:col + width]
            np.multiply(h.coeffs[part, None] * phase, signed.take(src), out=block[1:])
            np.add.reduce(block, axis=0, out=out[col:col + width])
    return Statevector(s.num_qubits, out)


def expectation(h: PauliSum, s: Statevector) -> complex:
    return inner(s, apply_pauli_sum(h, s))


def apply_pauli_exponential(p: PauliString, theta: float, s: Statevector) -> Statevector:
    """R_P(theta) = cos(theta/2) - i sin(theta/2) P, applied to s."""
    rotated = apply_pauli(p, s)
    amp = math.cos(theta / 2) * s.amplitudes - 1j * math.sin(theta / 2) * rotated.amplitudes
    return Statevector(s.num_qubits, amp)


# ---------------------------------------------------------------------------
# Trotter steps for the factorized Hamiltonian


@dataclass(frozen=True, eq=False)
class TrotterPlan:
    """H = e_nuc + J1hat + sum_g (Lhat^g)^2 as its one-body matrices: J1 in
    `one_body`, the L^g in `pair_factors`. Each factor's eigenpairs on one
    spin's k-electron strings are built on first use and kept."""

    e_nuc: float
    one_body: np.ndarray
    pair_factors: tuple
    _eigenpairs: dict = field(default_factory=dict, repr=False)

    def eigenpairs(self, factor: int, k: int):
        """(eigenvalues, real orthonormal eigenvectors) of factor's string
        operator on k-electron strings; factor 0 is J1, g + 1 is L^g."""
        if (factor, k) not in self._eigenpairs:
            mat = self.pair_factors[factor - 1] if factor else self.one_body
            self._eigenpairs[factor, k] = np.linalg.eigh(string_operator(mat, k))
        return self._eigenpairs[factor, k]


def trotter_plan(j1: np.ndarray, factors: CholeskyFactors,
                 e_nuc: float = 0.0) -> TrotterPlan:
    m = factors.num_orbitals
    mats = [np.asarray(j1, dtype=float), *factors.factors]
    for mat in mats:
        tol = 1e-10 * max(1.0, np.max(np.abs(mat)))
        if mat.shape != (m, m) or np.max(np.abs(mat - mat.T)) > tol:
            raise ValidationError("one-body factors must be symmetric m x m matrices")
    return TrotterPlan(float(e_nuc), mats[0], tuple(mats[1:]))


def _real_sandwich(left: np.ndarray, z: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ z @ right for real left and right: one real product from each
    side acts on the real and imaginary parts of z together."""
    rows, cols = z.shape
    parts = np.stack([z.real, z.imag], axis=1).reshape(rows, 2 * cols)
    parts = (left @ parts).reshape(-1, cols) @ right
    return parts[0::2] + 1j * parts[1::2]


def trotter_step(plan: TrotterPlan, dt: float, v: FockVector) -> FockVector:
    """One first-order product-formula step of exp(-i dt H), J1 first (see
    the module docstring), on the sector's one block C[down, up]."""
    m, k_up, k_down = v.sector
    if m != plan.one_body.shape[0]:
        raise ValidationError("plan and state sizes differ")
    z = v.amplitudes.reshape(math.comb(m, k_down), math.comb(m, k_up))
    for factor, power in enumerate((1,) + (2,) * len(plan.pair_factors)):
        lam_d, y_d = plan.eigenpairs(factor, k_down)
        lam_u, y_u = plan.eigenpairs(factor, k_up)
        phase = np.exp(-1j * dt * (lam_d[:, None] + lam_u) ** power)
        z = _real_sandwich(y_d, phase * _real_sandwich(y_d.T, z, y_u), y_u.T)
    return FockVector(v.sector, z.ravel() * np.exp(-1j * dt * plan.e_nuc))
