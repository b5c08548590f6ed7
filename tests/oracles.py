"""Independent dense-algebra oracles used to derive test expectations.

Everything here is built from first principles with dense numpy/scipy
routines and deliberately shares no code with src/qsubspace. The package
implements sparse Slater-Condon assembly, bit-twiddled Pauli algebra, and
statevector kernels; the oracles build the same objects as explicit dense
matrices on the full Fock space, so any convention slip shows up as a
matrix mismatch.

Conventions (fixed once, used consistently package-side and oracle-side):
  - spin-orbital mode index: (p, up) -> p, (p, down) -> p + m
  - basis word w: bit j set means mode j occupied
  - determinant |w> = prod_{j in w, ascending j} adag_j |vac>
    => sign of adag_j / a_j acting on w is (-1)^popcount(w & (2^j - 1))
  - two-body operator: 1/2 sum_{prqs,st} (pr|qs) adag_ps adag_qt a_st a_rt'
    with chemist-notation spatial integrals (pr|qs)
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg


# ---------------------------------------------------------------------------
# fermionic ladder matrices on the full Fock space (dimension 4^m)


def ladder_matrix(mode: int, num_modes: int) -> np.ndarray:
    """Dense creation operator for one spin-orbital mode."""
    dim = 1 << num_modes
    out = np.zeros((dim, dim))
    below = (1 << mode) - 1
    for w in range(dim):
        if w & (1 << mode):
            continue
        sign = -1.0 if bin(w & below).count("1") % 2 else 1.0
        out[w | (1 << mode), w] = sign
    return out


def excitation_matrices(m: int) -> dict:
    """adag_p a_r for every spin and orbital pair, keys (spin, p, r)."""
    num_modes = 2 * m
    cre = [ladder_matrix(j, num_modes) for j in range(num_modes)]
    out = {}
    for spin, offset in ((0, 0), (1, m)):
        for p in range(m):
            for r in range(m):
                out[(spin, p, r)] = cre[p + offset] @ cre[r + offset].T
    return out


def sector_words(m: int, n_up: int, n_down: int) -> list:
    """Full-space indices of the (n_up, n_down) sector, lexicographic in
    (occ_down, occ_up) as integers. Index = occ_up | occ_down << m."""

    def words(k):
        return sorted(
            sum(1 << i for i in c) for c in itertools.combinations(range(m), k)
        )

    return [u | (d << m) for d in words(n_down) for u in words(n_up)]


def full_hamiltonian(e_nuc: float, h: np.ndarray, eri: np.ndarray) -> np.ndarray:
    """Dense Hamiltonian on the full Fock space from ladder algebra.

    Uses adag_p adag_q a_s a_r = E_pr E_qs - delta_st delta_qr E_ps with
    E_pr = adag_p a_r, all within explicit dense matrices.
    """
    m = h.shape[0]
    dim = 1 << (2 * m)
    ex = excitation_matrices(m)
    out = e_nuc * np.eye(dim)
    for spin in (0, 1):
        for p in range(m):
            for r in range(m):
                if h[p, r] != 0.0:
                    out += h[p, r] * ex[(spin, p, r)]
    for sp in (0, 1):
        for tp in (0, 1):
            for p in range(m):
                for r in range(m):
                    for q in range(m):
                        for s in range(m):
                            g = eri[p, r, q, s]
                            if g == 0.0:
                                continue
                            term = ex[(sp, p, r)] @ ex[(tp, q, s)]
                            if sp == tp and q == r:
                                term = term - ex[(sp, p, s)]
                            out += 0.5 * g * term
    return out


def sector_hamiltonian(e_nuc, h, eri, n_up, n_down) -> np.ndarray:
    m = h.shape[0]
    idx = sector_words(m, n_up, n_down)
    return full_hamiltonian(e_nuc, h, eri)[np.ix_(idx, idx)]


def sector_fci(e_nuc, h, eri, n_up, n_down):
    """Eigenvalues and eigenvectors of the sector Hamiltonian."""
    mat = sector_hamiltonian(e_nuc, h, eri, n_up, n_down)
    return np.linalg.eigh(mat)


# ---------------------------------------------------------------------------
# Pauli matrices

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli(letters: str) -> np.ndarray:
    """Tensor product; letters run qubit (n-1) ... qubit 0 left to right."""
    out = np.array([[1.0 + 0j]])
    for ch in letters:
        out = np.kron(out, _PAULI[ch])
    return out


def dense_pauli_sum(num_qubits: int, terms) -> np.ndarray:
    """terms: iterable of (coeff, letters)."""
    dim = 1 << num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, letters in terms:
        assert len(letters) == num_qubits
        out += coeff * dense_pauli(letters)
    return out


# ---------------------------------------------------------------------------
# propagators and subspace references


def evolve_dense(mat: np.ndarray, vec: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) v via scipy expm (independent of eigendecomposition)."""
    return scipy.linalg.expm(-1j * t * np.asarray(mat, dtype=complex)) @ vec


def imaginary_evolve_dense(mat, vec, tau):
    """Normalized exp(-tau H) v and the pre-normalization norm."""
    w = scipy.linalg.expm(-tau * np.asarray(mat, dtype=float)) @ vec
    norm = float(np.linalg.norm(w))
    return w / norm, norm


def reference_thresholded_solve(hmat, smat, eps):
    """Generalized eigenvalues after discarding overlap directions <= eps.

    Projects onto the retained eigenvectors of S and lets scipy solve the
    reduced generalized problem directly (no explicit whitening), which is a
    different route from the package implementation.
    """
    hmat = (hmat + hmat.conj().T) / 2
    smat = (smat + smat.conj().T) / 2
    w, v = np.linalg.eigh(smat)
    keep = w > eps
    if not np.any(keep):
        return None
    vk = v[:, keep]
    a = vk.conj().T @ hmat @ vk
    b = vk.conj().T @ smat @ vk
    return scipy.linalg.eigh(a, b, eigvals_only=True)


def krylov_moments(mat, vec, count):
    """f_l = <v|H^l|v> for l = 0 .. count-1."""
    out = []
    cur = np.asarray(vec, dtype=complex)
    for _ in range(count):
        out.append(complex(np.vdot(vec, cur)).real)
        cur = mat @ cur
    return np.array(out)


def one_body_fock_operator(mat_up: np.ndarray, m: int, mat_down=None) -> np.ndarray:
    """Dense sum_{pr,spin} mat_pr adag_ps a_rs on the full Fock space."""
    if mat_down is None:
        mat_down = mat_up
    ex = excitation_matrices(m)
    dim = 1 << (2 * m)
    out = np.zeros((dim, dim), dtype=complex)
    for p in range(m):
        for r in range(m):
            out += mat_up[p, r] * ex[(0, p, r)]
            out += mat_down[p, r] * ex[(1, p, r)]
    return out


# ---------------------------------------------------------------------------
# per-term and per-group statevector loops: the package's kernels before
# it applied Pauli strings as tables, kept as bit-level references


def apply_pauli_terms(x, z, coeffs, amplitudes: np.ndarray) -> np.ndarray:
    """sum_k c_k P_k s for strings with masks x, z, one term at a time and
    added in term order from zero, with P_k s[b ^ x] = i^|x & z|
    (-1)^popcount(b & z) s[b]."""
    idx = np.arange(amplitudes.size)
    out = np.zeros_like(amplitudes)
    for c, xk, zk in zip(coeffs, np.asarray(x).tolist(), np.asarray(z).tolist()):
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & zk) & 1)
        np.add.at(out, idx ^ xk, c * (1j ** (xk & zk).bit_count()) * signs * amplitudes)
    return out


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_Y_TO_Z = np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex) / np.sqrt(2.0)


def qubitwise_model(amplitudes: np.ndarray, x, z):
    """Outcome distribution and int8 +-1 value table of one qubitwise group
    with masks x, z, measured on the normalized state: X/Y letters rotate
    onto Z one qubit at a time, with an einsum per qubit, in order of first
    appearance in the group and then by index; string k reads
    (-1)^popcount(outcome & (x_k | z_k))."""
    x, z = np.asarray(x, dtype=np.uint64), np.asarray(z, dtype=np.uint64)
    nq = amplitudes.size.bit_length() - 1
    touched = (x[:, None] >> np.arange(nq, dtype=np.uint64)) & np.uint64(1)
    first = touched.argmax(axis=0)
    qubits = np.flatnonzero(touched.any(axis=0))
    amps = amplitudes / float(np.linalg.norm(amplitudes))
    for q in qubits[np.argsort(first[qubits], kind="stable")].tolist():
        gate = _Y_TO_Z if int(z[first[q]]) >> q & 1 else _HADAMARD
        t = amps.reshape(1 << (nq - 1 - q), 2, 1 << q)
        amps = np.einsum("ab,ibj->iaj", gate, t).reshape(amps.size)
    odd = np.bitwise_count(np.arange(amps.size, dtype=np.uint64) & (x | z)[:, None]) & 1
    probs = np.clip(np.abs(amps) ** 2, 0.0, None)
    return probs / probs.sum(), 1 - 2 * odd.astype(np.int8)
