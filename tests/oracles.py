"""Independent dense-algebra oracles used to derive test expectations.

Everything here is built from first principles with dense numpy/scipy
routines and deliberately shares no code with src/qsubspace, apart from
two references moved out of it (at the end of the file). The package
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
import math

import numpy as np
import scipy.linalg
import scipy.sparse

from qsubspace.errors import ValidationError
from qsubspace.fock import _replacements, _spin_words
from qsubspace.integrals import MolecularIntegrals


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


# ---------------------------------------------------------------------------
# the QITE step before it formed its Gram matrix in real arithmetic, kept as
# a reference: a complex Gram product, a general positive-definite solve and
# a fresh gather per rotation


def _pauli_rows(num_qubits: int, x, z):
    """Gather indices and phases: (P_k s)[j] = phase_k (s, -s)[src_k[j]]."""
    x, z = (np.asarray(v, dtype=np.int64)[:, None] for v in (x, z))
    src = np.arange(1 << num_qubits) ^ x
    src |= (np.bitwise_count(src & z) & 1).astype(np.int64) << num_qubits
    return src, np.array([1, 1j, -1, -1j])[np.bitwise_count(x & z) & 3]


def _gather_rows(src, phase, amplitudes: np.ndarray) -> np.ndarray:
    return phase * np.concatenate([amplitudes, -amplitudes]).take(src)


def reference_qite_step(amplitudes: np.ndarray, ham, pool, delta_tau: float):
    """One unitary imaginary-time step on the full register: solve A theta
    = b with A = 2 Re(R* R^T) + 1e-8 and b = 2 dtau Im(R conj(H phi)) over
    the pool rows R_m = P_m phi, then apply exp(i theta_m P_m) in pool
    order. ham is (x, z, coeffs) and pool (x, z) mask arrays. Returns
    (amplitudes, energy, norm factor); the energy-rise check is left out."""
    nq = amplitudes.size.bit_length() - 1
    phi = amplitudes / float(np.linalg.norm(amplitudes))
    hphi = apply_pauli_terms(*ham, phi)
    e_old = float(np.vdot(phi, hphi).real)
    src, phase = _pauli_rows(nq, *pool)
    rotated = _gather_rows(src, phase, phi)
    amat = 2.0 * np.real(rotated.conj() @ rotated.T)
    bvec = 2.0 * delta_tau * np.imag(rotated @ np.conj(hphi))
    theta = scipy.linalg.solve(amat + 1e-8 * np.eye(len(src)), bvec, assume_a="pos")
    amp = phi
    for row, ph, angle in zip(src, phase, theta):
        rot = -2.0 * float(angle)
        amp = math.cos(rot / 2) * amp - 1j * math.sin(rot / 2) * _gather_rows(row, ph, amp)
    e_new = float(np.vdot(amp, apply_pauli_terms(*ham, amp)).real)
    h2 = float(np.vdot(hphi, hphi).real)
    factor = math.sqrt(max(1.0 - 2.0 * delta_tau * e_old + 2.0 * delta_tau**2 * h2, 0.0))
    return amp, e_new, factor


# ---------------------------------------------------------------------------
# references moved out of the package: the sector matrix assembled as a COO
# and symmetrized by a sparse sum (the build before its cached CSR pattern),
# and the frozen-core active-space restriction. They read the package's
# replacement tables and integral container.


def _sector_entries(ints, sector: tuple):
    """The sector Hamiltonian's entries, one block per excitation class."""
    m, *counts = sector
    h, g = ints.one_body, ints.two_body
    jmat, kmat = np.einsum("ppqq->pq", g), np.einsum("pqqp->pq", g)
    gj, gk = np.einsum("aiqq->aiq", g), np.einsum("aqqi->aiq", g)
    bits = np.arange(m)
    occ = [((_spin_words(m, k)[:, None] >> bits) & 1).astype(float) for k in counts]
    n_ups = len(occ[0])
    rows, cols, vals = [], [], []

    def spin_block(spin, src, tgt, values):
        """One spin's replacements on every string of the other spin;
        values has the other spin's strings on its first axis."""
        other = np.arange(len(occ[1 - spin]), dtype=np.int32)[:, None]
        if spin:
            block = (tgt * n_ups + other, src * n_ups + other, values)
        else:
            block = (other * n_ups + tgt, other * n_ups + src, values)
        for out, arr in zip((rows, cols, vals), np.broadcast_arrays(*block)):
            out.append(arr.ravel())

    # diagonal: index = down rank * n_ups + up rank
    ntot = (occ[1][:, None, :] + occ[0][None, :, :]).reshape(-1, m)
    spin_k = [((o @ kmat) * o).sum(1) for o in occ]
    coulomb = ((ntot @ jmat) * ntot).sum(1).reshape(-1, n_ups)
    diag = ints.e_nuc + ntot @ np.diag(h)
    diag += 0.5 * (coulomb - spin_k[0][None, :] - spin_k[1][:, None]).ravel()
    rows.append(np.arange(diag.size, dtype=np.int32))
    cols.append(rows[0])
    vals.append(diag)

    singles = [_replacements(m, k, 1) for k in counts]
    for spin, t in enumerate(singles):
        # spectators: the source string minus the hole, plus the other spin;
        # sums run in orbital order, like a per-determinant dot product
        i, a = t.holes[:, 0], t.particles[:, 0]
        spect = occ[spin][t.src] - (bits == i[:, None])
        coul = exch = 0.0
        for p in range(m):
            coul = coul + gj[a, i, p] * (spect[:, p] + occ[1 - spin][:, p, None])
            exch = exch + gk[a, i, p] * spect[:, p]
        spin_block(spin, t.src, t.tgt, t.sign * (h[a, i] + (coul - exch)))

        d = _replacements(m, counts[spin], 2)
        (i, j), (a, b) = d.holes.T, d.particles.T
        val = g[a, i, b, j] - g[a, j, b, i]
        keep = val != 0.0
        spin_block(spin, d.src[keep], d.tgt[keep], (d.sign * val)[keep])

    # opposite-spin doubles: one up and one down single at once
    up, down = singles
    i, a, j, b = up.holes, up.particles, down.holes[:, 0], down.particles[:, 0]
    val = g[a, i, b, j]
    p, q = np.nonzero(val)
    rows.append(down.tgt[q] * n_ups + up.tgt[p])
    cols.append(down.src[q] * n_ups + up.src[p])
    vals.append(up.sign[p] * down.sign[q] * val[p, q])

    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(diag.size, diag.size),
    )


def sector_matrix_reference(ints) -> scipy.sparse.csr_matrix:
    """The sector matrix as the COO build made it: every block's raw
    entries, converted to CSR and averaged with their transpose."""
    mat = _sector_entries(ints, ints.sector).tocsr()
    return (mat + mat.T) * 0.5


def restrict_active_space(ints, core, active) -> MolecularIntegrals:
    """Fold doubly occupied core orbitals into constants and keep `active`.

    Core orbitals contribute e_core = 2 sum_i h_ii + sum_ij [2(ii|jj)-(ij|ji)]
    plus a mean-field shift of the active one-body block; orbitals in neither
    list are discarded along with their (empty) occupations.
    """
    core = list(core)
    active = list(active)
    m = ints.num_orbitals
    both = core + active
    if len(set(both)) != len(both):
        raise ValidationError("core and active lists overlap or repeat")
    if both and not all(0 <= p < m for p in both):
        raise ValidationError(f"orbital indices must lie in 0..{m - 1}")
    if not active:
        raise ValidationError("active space is empty")
    ncore = len(core)
    new_up = ints.num_up - ncore
    new_down = ints.num_down - ncore
    if min(new_up, new_down) < 0:
        raise ValidationError("core orbitals exceed electron pairs")
    if max(new_up, new_down) > len(active):
        raise ValidationError("active space too small for remaining electrons")

    h = ints.one_body
    g = ints.two_body
    e_core = ints.e_nuc
    for i in core:
        e_core += 2.0 * h[i, i]
        for j in core:
            e_core += 2.0 * g[i, i, j, j] - g[i, j, j, i]
    h_eff = h[np.ix_(active, active)].copy()
    for a, t in enumerate(active):
        for b, u in enumerate(active):
            for i in core:
                h_eff[a, b] += 2.0 * g[t, u, i, i] - g[t, i, i, u]
    g_act = g[np.ix_(active, active, active, active)]
    return MolecularIntegrals(
        len(active), new_up, new_down, e_core, h_eff, g_act
    )
