"""Configuration bases and exact sector operations.

A sector (m, n_up, n_down) is spanned by determinants
|w> = prod_{j in w, ascending mode j} adag_j |vac>, where mode j < m is
orbital j spin-up and mode j + m is orbital j - m spin-down. Occupation
words are enumerated lexicographically in (occ_down, occ_up) as integers,
so the basis index is rank(occ_down) * C(m, n_up) + rank(occ_up). With the
ascending-product convention the ladder sign on a word is
(-1)^popcount(word & (2^mode - 1)), for creation and annihilation alike.
apply_ladders applies any ladder monomial with that rule to whole sector
vectors (or stacked blocks of them) at once; it is the number-restricted
counterpart of the Jordan-Wigner image on the full register.

Matrix elements follow the usual excitation-degree rules; the assembled
sparse matrix is checked against a dense ladder-algebra construction in the
test suite. Dense spectra and propagators are capped at dimension 4096,
iterative access (apply_hamiltonian) at 65536.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse

from .errors import CapacityError, ValidationError
from .integrals import MolecularIntegrals, cached_per_integrals

_DENSE_CAP = 4096
_SPARSE_CAP = 65536


@dataclass(frozen=True)
class Configuration:
    """One determinant: occupation bit words per spin over m orbitals."""

    m: int
    occ_up: int
    occ_down: int

    def __post_init__(self):
        top = 1 << self.m
        if not (0 <= self.occ_up < top and 0 <= self.occ_down < top):
            raise ValidationError("occupation word outside orbital range")

    @property
    def word(self) -> int:
        """Combined mode word; equals the basis-state index on 2m qubits."""
        return self.occ_up | (self.occ_down << self.m)

    @property
    def sector(self) -> tuple:
        return (self.m, self.occ_up.bit_count(), self.occ_down.bit_count())


@dataclass(eq=False)
class FockVector:
    """Amplitudes over one sector's determinant basis."""

    sector: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (sector_dimension(*self.sector),):
            raise ValidationError("amplitude length does not match sector")
        self.amplitudes = amp

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return FockVector(self.sector, self.amplitudes / n)


def inner(u: FockVector, v: FockVector) -> complex:
    if u.sector != v.sector:
        raise ValidationError(f"sector mismatch: {u.sector} vs {v.sector}")
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def sector_dimension(m: int, n_up: int, n_down: int) -> int:
    return math.comb(m, n_up) * math.comb(m, n_down)


@lru_cache(maxsize=None)
def _spin_words(m: int, k: int) -> tuple:
    """All m-bit words with k set bits, ascending as integers."""
    words = sorted(
        sum(1 << i for i in combo) for combo in itertools.combinations(range(m), k)
    )
    return tuple(words)


@lru_cache(maxsize=None)
def _spin_ranks(m: int, k: int) -> dict:
    return {w: i for i, w in enumerate(_spin_words(m, k))}


def enumerate_configurations(m: int, n_up: int, n_down: int) -> list:
    """Sector basis in storage order."""
    if not (0 <= n_up <= m and 0 <= n_down <= m):
        raise ValidationError("electron counts outside 0..m")
    return [
        Configuration(m, up, down)
        for down in _spin_words(m, n_down)
        for up in _spin_words(m, n_up)
    ]


def configuration_index(config: Configuration, n_up: int, n_down: int) -> int:
    m = config.m
    up_rank = _spin_ranks(m, n_up)[config.occ_up]
    down_rank = _spin_ranks(m, n_down)[config.occ_down]
    return down_rank * math.comb(m, n_up) + up_rank


@lru_cache(maxsize=None)
def sector_word_indices(sector: tuple) -> np.ndarray:
    """Combined mode words of the sector basis, in storage order. These are
    the basis-state indices the sector occupies on 2m qubits."""
    m, n_up, n_down = sector
    words = np.array(
        [u | (d << m) for d in _spin_words(m, n_down) for u in _spin_words(m, n_up)],
        dtype=np.int64,
    )
    words.setflags(write=False)
    return words


def basis_vector(sector: tuple, config: Configuration) -> FockVector:
    if config.sector != sector:
        raise ValidationError("configuration not in sector")
    amp = np.zeros(sector_dimension(*sector), dtype=complex)
    amp[configuration_index(config, sector[1], sector[2])] = 1.0
    return FockVector(sector, amp)


def reference_configuration(ints: MolecularIntegrals) -> Configuration:
    """Lowest-orbital determinant (the mean-field reference in a canonical
    basis)."""
    return Configuration(
        ints.num_orbitals, (1 << ints.num_up) - 1, (1 << ints.num_down) - 1
    )


# ---------------------------------------------------------------------------
# ladder bookkeeping on combined mode words


def _destroy(word: int, mode: int):
    sign = -1.0 if (word & ((1 << mode) - 1)).bit_count() & 1 else 1.0
    return sign, word & ~(1 << mode)


def _create(word: int, mode: int):
    sign = -1.0 if (word & ((1 << mode) - 1)).bit_count() & 1 else 1.0
    return sign, word | (1 << mode)


def _bits(word: int, m: int) -> list:
    return [p for p in range(m) if word & (1 << p)]


def apply_ladders(ladders, sector: tuple, amplitudes: np.ndarray):
    """Apply the ladder monomial L_1 L_2 ... L_k to sector amplitudes.

    ladders holds (mode, create) pairs in product order, so the last pair
    acts first; create=True is adag_mode and False is a_mode. amplitudes
    has the sector basis on its last axis: one vector or a stacked block.
    A component whose occupation forbids a step is killed; the others pick
    up (-1)^popcount(word & (2^mode - 1)) per step, as in _create and
    _destroy. The adjoint monomial is the reversed tuple with every create
    flipped. Returns the target sector and the amplitudes over it.
    """
    m, n_up, n_down = sector
    amplitudes = np.asarray(amplitudes)
    if amplitudes.shape[-1:] != (sector_dimension(*sector),):
        raise ValidationError("amplitude length does not match sector")
    words = sector_word_indices(sector)
    live = np.ones(words.size, dtype=bool)
    sign = np.ones(words.size)
    counts = [n_up, n_down]
    for mode, create in reversed(ladders):
        if not 0 <= mode < 2 * m:
            raise ValidationError("ladder mode outside register")
        bit = 1 << mode
        live &= ((words & bit) == 0) == create
        sign *= 1.0 - 2.0 * (np.bitwise_count(words & (bit - 1)) & 1)
        words = words ^ bit
        counts[mode >= m] += 1 if create else -1
    if not all(0 <= n <= m for n in counts):
        raise ValidationError(f"ladders take sector {sector} outside 0..{m} per spin")
    target = (m, *counts)
    out = np.zeros(
        amplitudes.shape[:-1] + (sector_dimension(*target),),
        dtype=np.result_type(amplitudes, float),
    )
    dest = np.searchsorted(sector_word_indices(target), words[live])
    out[..., dest] = amplitudes[..., live] * sign[live]
    return target, out


@cached_per_integrals
def _sector_matrix(ints: MolecularIntegrals, sector: tuple):
    """Sparse CSR Hamiltonian on the sector basis (real symmetric)."""
    m, n_up, n_down = sector
    dim = sector_dimension(m, n_up, n_down)
    if dim > _SPARSE_CAP:
        raise CapacityError(f"sector dimension {dim} exceeds {_SPARSE_CAP}")
    h = ints.one_body
    g = ints.two_body
    jmat = np.einsum("ppqq->pq", g)
    kmat = np.einsum("pqqp->pq", g)
    gj = np.ascontiguousarray(np.einsum("aiqq->aiq", g))
    gk = np.ascontiguousarray(np.einsum("aqqi->aiq", g))
    hdiag = np.diag(h)

    ups = _spin_words(m, n_up)
    downs = _spin_words(m, n_down)
    up_rank = _spin_ranks(m, n_up)
    down_rank = _spin_ranks(m, n_down)
    n_up_words = len(ups)

    rows, cols, vals = [], [], []

    def push(row, col, val):
        rows.append(row)
        cols.append(col)
        vals.append(val)

    orbitals = range(m)
    for down in downs:
        base = down_rank[down] * n_up_words
        occ_d = _bits(down, m)
        emp_d = [p for p in orbitals if not (down & (1 << p))]
        nd = np.array([(down >> p) & 1 for p in orbitals], dtype=float)
        for up in ups:
            col = base + up_rank[up]
            word = up | (down << m)
            occ_u = _bits(up, m)
            emp_u = [p for p in orbitals if not (up & (1 << p))]
            nu = np.array([(up >> p) & 1 for p in orbitals], dtype=float)
            ntot = nu + nd

            diag = ints.e_nuc + float(hdiag @ ntot)
            diag += 0.5 * float(ntot @ jmat @ ntot - nu @ kmat @ nu - nd @ kmat @ nd)
            push(col, col, diag)

            # single excitations: spectators are occ(word) minus the hole
            for occ, emp, spin_n, offset in (
                (occ_u, emp_u, nu, 0),
                (occ_d, emp_d, nd, m),
            ):
                for i in occ:
                    s1, w1 = _destroy(word, i + offset)
                    spect_tot = ntot.copy()
                    spect_tot[i] -= 1.0
                    spect_spin = spin_n.copy()
                    spect_spin[i] -= 1.0
                    for a in emp:
                        s2, w2 = _create(w1, a + offset)
                        val = h[a, i] + float(
                            gj[a, i] @ spect_tot - gk[a, i] @ spect_spin
                        )
                        row = (
                            down_rank[(w2 >> m)] * n_up_words
                            + up_rank[w2 & ((1 << m) - 1)]
                        )
                        push(row, col, s1 * s2 * val)

            # same-spin double excitations
            for occ, emp, offset in ((occ_u, emp_u, 0), (occ_d, emp_d, m)):
                for i, j in itertools.combinations(occ, 2):
                    s1, w1 = _destroy(word, i + offset)
                    s2, w2 = _destroy(w1, j + offset)
                    for a, b in itertools.combinations(emp, 2):
                        s3, w3 = _create(w2, b + offset)
                        s4, w4 = _create(w3, a + offset)
                        val = g[a, i, b, j] - g[a, j, b, i]
                        if val == 0.0:
                            continue
                        row = (
                            down_rank[(w4 >> m)] * n_up_words
                            + up_rank[w4 & ((1 << m) - 1)]
                        )
                        push(row, col, s1 * s2 * s3 * s4 * val)

            # opposite-spin double excitations
            for i in occ_u:
                s1, w1 = _destroy(word, i)
                for j in occ_d:
                    s2, w2 = _destroy(w1, j + m)
                    for b in emp_d:
                        s3, w3 = _create(w2, b + m)
                        for a in emp_u:
                            s4, w4 = _create(w3, a)
                            val = g[a, i, b, j]
                            if val == 0.0:
                                continue
                            row = (
                                down_rank[(w4 >> m)] * n_up_words
                                + up_rank[w4 & ((1 << m) - 1)]
                            )
                            push(row, col, s1 * s2 * s3 * s4 * val)

    mat = scipy.sparse.coo_matrix(
        (vals, (rows, cols)), shape=(dim, dim)
    ).tocsr()
    # element formulas are symmetric; average away summation-order roundoff
    return (mat + mat.T) * 0.5


def sector_matrix(ints: MolecularIntegrals) -> scipy.sparse.csr_matrix:
    """Sparse Hamiltonian for the integral set's own sector."""
    return _sector_matrix(ints, ints.sector)


def hamiltonian_diagonal(ints: MolecularIntegrals) -> np.ndarray:
    return _sector_matrix(ints, ints.sector).diagonal()


def apply_hamiltonian(ints: MolecularIntegrals, v: FockVector) -> FockVector:
    if v.sector != ints.sector:
        raise ValidationError(f"vector sector {v.sector} != {ints.sector}")
    mat = _sector_matrix(ints, v.sector)
    return FockVector(v.sector, mat @ v.amplitudes)


@cached_per_integrals
def _eigensystem(ints: MolecularIntegrals):
    dim = ints.sector_dimension
    if dim > _DENSE_CAP:
        raise CapacityError(f"dense spectrum needs dimension <= {_DENSE_CAP}")
    dense = _sector_matrix(ints, ints.sector).toarray()
    vals, vecs = np.linalg.eigh(dense)
    return vals, vecs


@dataclass(eq=False)
class SpectrumSlice:
    """The k lowest eigenpairs of one sector."""

    eigenvalues: np.ndarray
    eigenvectors: list  # of FockVector


def exact_eigenpairs(ints: MolecularIntegrals, k: int = 1) -> SpectrumSlice:
    dim = ints.sector_dimension
    if not 1 <= k <= dim:
        raise ValidationError(f"k={k} outside 1..{dim}")
    vals, vecs = _eigensystem(ints)
    sector = ints.sector
    vectors = [FockVector(sector, vecs[:, i].astype(complex)) for i in range(k)]
    return SpectrumSlice(vals[:k].copy(), vectors)


def evolve_real(ints: MolecularIntegrals, v: FockVector, t: float) -> FockVector:
    """exp(-i t H) v via the cached sector eigendecomposition."""
    if v.sector != ints.sector:
        raise ValidationError("vector sector does not match integrals")
    vals, vecs = _eigensystem(ints)
    coeff = vecs.T @ v.amplitudes
    return FockVector(v.sector, vecs @ (np.exp(-1j * t * vals) * coeff))


def evolve_imag(ints: MolecularIntegrals, v: FockVector, tau: float):
    """Normalized exp(-tau H) v and the pre-normalization norm."""
    if v.sector != ints.sector:
        raise ValidationError("vector sector does not match integrals")
    vals, vecs = _eigensystem(ints)
    coeff = vecs.T @ v.amplitudes
    raw = vecs @ (np.exp(-tau * vals) * coeff)
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise ValidationError("propagated vector vanished")
    return FockVector(v.sector, raw / norm), norm

