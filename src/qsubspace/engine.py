"""Exact statevector simulation on 2m qubits.

Amplitude index b encodes occupations directly: bit p is orbital p spin-up,
bit p+m is orbital p spin-down, matching the fock-module convention, so
sector vectors embed by index with no sign bookkeeping.

Pauli actions and exponentials work directly on amplitudes, through one
table kernel: `pauli_rows` turns (x, z) masks into per-row gather indices
and phases, so a Pauli sum is a term-ordered reduction over table tiles
and QITE gathers its whole rotation pool at once. Orbital
rotations exp(sum_pr kappa_pr adag_p a_r) are compiled to networks of
adjacent two-mode Givens elements (applied to both spin blocks) plus a
single diagonal phase layer; symmetric one-body generators are handled by
rotating into their eigenbasis where the evolution is a number-operator
phase. The Trotter step composes those pieces:

    exp(-i dt H) ~ e^{-i dt e_nuc} [prod_g W_g^+ U2(sqrt(dt) l^g) W_g]
                                   W_0^+ U1(dt zeta) W_0

with U1 a linear and U2 a squared occupation phase, applied rightmost
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import CapacityError, DataError, ValidationError
from .fock import Configuration, FockVector, sector_word_indices
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


def prepare_configuration(config: Configuration) -> Statevector:
    """Basis state |occ_up | occ_down << m> on 2m qubits."""
    nq = 2 * config.m
    amp = _zeros(nq)
    amp[config.word] = 1.0
    return Statevector(nq, amp)


def statevector_from_fock(v: FockVector) -> Statevector:
    m = v.sector[0]
    amp = _zeros(2 * m)
    amp[sector_word_indices(v.sector)] = v.amplitudes
    return Statevector(2 * m, amp)


def fock_from_statevector(s: Statevector, sector: tuple, tol=1e-9) -> FockVector:
    """Project onto one particle-number sector.

    With the default tolerance, amplitude weight outside the sector beyond
    tol (relative to the state norm) raises; pass tol=None to project
    silently.
    """
    m = sector[0]
    if s.num_qubits != 2 * m:
        raise ValidationError("qubit count does not match sector")
    idx = sector_word_indices(sector)
    inside = s.amplitudes[idx]
    if tol is not None:
        total = float(np.vdot(s.amplitudes, s.amplitudes).real)
        kept = float(np.vdot(inside, inside).real)
        if total - kept > tol * max(total, 1e-300):
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
# orbital rotation networks


@dataclass(frozen=True, eq=False)
class RotationNetwork:
    """Compiled one-body rotation W acting on both spin blocks.

    `rotations` is a tuple of (orbital, theta) adjacent Givens elements in
    forward application order, acting on orbitals (orbital, orbital+1);
    `phases` is the diagonal layer applied before them. For a symmetric
    generator (kind "h"), `eigenvalues` holds the number-operator weights in
    the rotated basis.
    """

    num_orbitals: int
    kind: str
    rotations: tuple
    phases: np.ndarray
    eigenvalues: np.ndarray | None = None


def _givens_synthesis(u: np.ndarray):
    """u = R_1^T ... R_K^T D with adjacent-row rotations; returns the
    elements in state-application order plus the diagonal of D."""
    m = u.shape[0]
    work = u.copy()
    eliminated = []  # (row, c, s) in elimination order
    for col in range(m - 1):
        for row in range(m - 1, col, -1):
            a, b = work[row - 1, col], work[row, col]
            r = math.hypot(a, b)
            if r < 1e-14:
                continue
            c, s = a / r, b / r
            rot = np.array([[c, s], [-s, c]])
            work[row - 1 : row + 1, :] = rot @ work[row - 1 : row + 1, :]
            eliminated.append((row - 1, math.atan2(s, c)))
    diag = np.diag(work).copy()
    if np.max(np.abs(work - np.diag(diag))) > 1e-10:
        raise DataError("rotation synthesis left a non-diagonal residual")
    if np.max(np.abs(np.abs(diag) - 1.0)) > 1e-10:
        raise DataError("rotation synthesis produced a non-unit diagonal")
    return tuple(reversed(eliminated)), diag


def build_rotation_network(mat: np.ndarray) -> RotationNetwork:
    """Compile a one-body generator matrix to a network.

    Antisymmetric kappa gives W = image of exp(sum kappa_pr adag_p a_r);
    symmetric h gives the basis change W with W^+ (sum_p eta_p n_p) W equal
    to the image of h, eta its eigenvalues.
    """
    mat = np.asarray(mat, dtype=float)
    m = mat.shape[0]
    if mat.shape != (m, m):
        raise ValidationError("generator must be square")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat + mat.T)) <= 1e-10 * scale:
        kind = "kappa"
        u = scipy.linalg.expm(mat)
        eigenvalues = None
    elif np.max(np.abs(mat - mat.T)) <= 1e-10 * scale:
        kind = "h"
        eigenvalues, vecs = np.linalg.eigh(mat)
        u = vecs.T
    else:
        raise ValidationError("generator is neither symmetric nor antisymmetric")
    rotations, diag = _givens_synthesis(u)
    return RotationNetwork(m, kind, rotations, diag.astype(complex), eigenvalues)


@lru_cache(maxsize=None)
def _occupation_bits(num_qubits: int) -> np.ndarray:
    idx = np.arange(1 << num_qubits)
    return np.stack([(idx >> q) & 1 for q in range(num_qubits)]).astype(float)


def _apply_givens(amp: np.ndarray, qubit: int, theta: float):
    """Rotate the (10, 01) occupation pair of qubits (qubit, qubit+1)."""
    lo, hi = 1 << qubit, 1 << (qubit + 1)
    idx = np.arange(amp.size)
    sel = (idx & lo).astype(bool) & ~(idx & hi).astype(bool)
    ones = idx[sel]
    partner = ones ^ lo ^ hi
    c, s = math.cos(theta), math.sin(theta)
    a, b = amp[ones], amp[partner]
    amp[ones] = c * a - s * b
    amp[partner] = s * a + c * b


def apply_rotation_network(net: RotationNetwork, s: Statevector,
                           dagger: bool = False) -> Statevector:
    m = net.num_orbitals
    if s.num_qubits != 2 * m:
        raise ValidationError("network and state sizes differ")
    amp = s.amplitudes.copy()
    bits = _occupation_bits(s.num_qubits)

    def phase_layer(conj):
        vals = np.conj(net.phases) if conj else net.phases
        scale = np.ones(amp.size, dtype=complex)
        for p in range(m):
            occ = bits[p] + bits[p + m]
            scale = np.where(occ >= 1, scale * vals[p], scale)
            scale = np.where(occ == 2, scale * vals[p], scale)
        return scale

    if not dagger:
        amp *= phase_layer(conj=False)
        for orb, theta in net.rotations:
            _apply_givens(amp, orb, theta)
            _apply_givens(amp, orb + m, theta)
    else:
        for orb, theta in reversed(net.rotations):
            _apply_givens(amp, orb, -theta)
            _apply_givens(amp, orb + m, -theta)
        amp *= phase_layer(conj=True)
    return Statevector(s.num_qubits, amp)


def _occupation_sum(x: np.ndarray, num_qubits: int) -> np.ndarray:
    """sum_p x_p (n_p-up + n_p-down) evaluated on every basis index."""
    m = num_qubits // 2
    bits = _occupation_bits(num_qubits)
    return x @ (bits[:m] + bits[m : 2 * m])


# ---------------------------------------------------------------------------
# Trotter steps for the factorized Hamiltonian


@dataclass(frozen=True, eq=False)
class TrotterPlan:
    """Pre-synthesized networks for H = e_nuc + J1hat + sum_g (Lhat^g)^2."""

    num_orbitals: int
    e_nuc: float
    one_body_network: RotationNetwork
    factor_networks: tuple


def trotter_plan(j1: np.ndarray, factors: CholeskyFactors,
                 e_nuc: float = 0.0) -> TrotterPlan:
    j1 = np.asarray(j1, dtype=float)
    m = factors.num_orbitals
    if j1.shape != (m, m):
        raise ValidationError("one-body correction shape mismatch")
    nets = tuple(build_rotation_network(ell) for ell in factors.factors)
    return TrotterPlan(m, float(e_nuc), build_rotation_network(j1), nets)


def trotter_step(plan: TrotterPlan, dt: float, s: Statevector) -> Statevector:
    """One first-order product-formula step of exp(-i dt H)."""
    nq = s.num_qubits
    if nq != 2 * plan.num_orbitals:
        raise ValidationError("plan and state sizes differ")

    net0 = plan.one_body_network
    s = apply_rotation_network(net0, s)
    occ = _occupation_sum(dt * net0.eigenvalues, nq)
    s = Statevector(nq, s.amplitudes * np.exp(-1j * occ))
    s = apply_rotation_network(net0, s, dagger=True)

    root = math.sqrt(dt)
    for net in plan.factor_networks:
        s = apply_rotation_network(net, s)
        occ = _occupation_sum(root * net.eigenvalues, nq)
        s = Statevector(nq, s.amplitudes * np.exp(-1j * occ * occ))
        s = apply_rotation_network(net, s, dagger=True)

    return Statevector(nq, s.amplitudes * np.exp(-1j * dt * plan.e_nuc))
