"""Configuration bases and exact sector operations.

A sector (m, n_up, n_down) is spanned by determinants
|w> = prod_{j in w, ascending mode j} adag_j |vac>, where mode j < m is
orbital j spin-up and mode j + m is orbital j - m spin-down. Occupation
words are enumerated lexicographically in (occ_down, occ_up) as integers,
so the basis index is rank(occ_down) * C(m, n_up) + rank(occ_up). With the
ascending-product convention the ladder sign on a word is
(-1)^popcount(word & (2^mode - 1)), for creation and annihilation alike
(_ladder_sign). apply_ladders applies a stack of ladder monomials of one
pattern with that rule to whole sector vectors (or stacked blocks of them)
at once; it is the number-restricted counterpart of the Jordan-Wigner image
on the full register.

The sparse sector Hamiltonian is built string-driven (Knowles & Handy 1984;
Olsen et al. 1988). _replacements tabulates once per (m, k) every single
replacement i -> a and same-spin double (i<j) -> (a<b) of every k-electron
spin string: source and target ranks, orbitals and sign. The up-spin count
cancels from every sign, so couplings take products of per-spin signs, and
every block (diagonal, singles, same-spin doubles broadcast over the other
spin, opposite-spin doubles as the outer product of the two single tables)
is one array expression; no loop runs over determinants. Doubles that are
exactly zero are dropped. The build is capped at 12,000,000 stored entries,
counted from the table lengths before anything is allocated (m = 9 (4,4)
stores 8.9M; m = 10 (4,4) would store 35.5M). Dense spectra and propagators
are capped at dimension 4096. string_operator reads one spin's block of a
spin-free one-body operator off the same singles table; engine's Trotter
step exponentiates it.

The dense eigensystem takes one eigh per spin-flip block. When n_up =
n_down, swapping the two spin strings P (the transpose of the (down, up)
rank grid; its sign (-1)^(n_up n_down) is global) commutes with a
spin-free H. The even block is spanned by the diagonal determinants and
(|a> + |Pa>)/sqrt 2, the odd block by (|a> - |Pa>)/sqrt 2. Each block is
U^T H U from the sparse matrix, about half the dimension, so the two
eigensolves take about a quarter of the flops of one. They run at once:
the calling thread solves the even block while one worker thread, kept for
the life of the process, solves the odd one. eigh releases the GIL, and
each call is the same LAPACK call on the same input at the configured BLAS
thread count, so the bits do not depend on the threads. Any other sector is
one block, the sector matrix itself, solved by a single eigh on the calling
thread.
spectral_measure reads a vector's measure (E_k, |<k|v>|^2) off the cached
eigensystem; every exact filter subspace in quantum is built from it.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .errors import CapacityError, ValidationError
from .integrals import MolecularIntegrals, cached_per_integrals

_DENSE_CAP = 4096
_ENTRY_CAP = 12_000_000


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
def _spin_words(m: int, k: int) -> np.ndarray:
    """All m-bit words with k set bits, ascending as integers (read-only).
    Adding orbital p appends words >= 2^p to words < 2^p, so order holds."""
    by_count = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * k
    for p in range(m):
        for c in range(min(k, p + 1), 0, -1):
            by_count[c] = np.concatenate([by_count[c], by_count[c - 1] | (1 << p)])
    words = by_count[k]
    words.setflags(write=False)
    return words


def enumerate_configurations(m: int, n_up: int, n_down: int) -> list:
    """Sector basis in storage order."""
    if not (0 <= n_up <= m and 0 <= n_down <= m):
        raise ValidationError("electron counts outside 0..m")
    return [
        Configuration(m, up, down)
        for down in _spin_words(m, n_down).tolist()
        for up in _spin_words(m, n_up).tolist()
    ]


def configuration_index(config: Configuration, n_up: int, n_down: int) -> int:
    m = config.m
    if config.sector != (m, n_up, n_down):
        raise ValidationError("configuration not in sector")
    up_rank = int(np.searchsorted(_spin_words(m, n_up), config.occ_up))
    down_rank = int(np.searchsorted(_spin_words(m, n_down), config.occ_down))
    return down_rank * math.comb(m, n_up) + up_rank


@lru_cache(maxsize=None)
def sector_word_indices(sector: tuple) -> np.ndarray:
    """Combined mode words of the sector basis, in storage order. These are
    the basis-state indices the sector occupies on 2m qubits."""
    m, n_up, n_down = sector
    words = (_spin_words(m, n_down)[:, None] << m) | _spin_words(m, n_up)[None, :]
    words = words.ravel()
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
# ladder signs, replacement tables and the sector matrix


def _ladder_sign(words: np.ndarray, mode) -> np.ndarray:
    """(-1)^popcount(word & (2^mode - 1)) per word, as floats: the sign a
    creation or annihilation on mode picks up. mode may be an array."""
    below = (np.int64(1) << mode) - 1
    return 1.0 - 2.0 * (np.bitwise_count(words & below) & 1)


def apply_ladders(modes, create: tuple, sector: tuple, amplitudes: np.ndarray):
    """Apply a stack of ladder monomials of one pattern to sector amplitudes.

    Row r of the (ops, k) table modes is the monomial L_1 L_2 ... L_k with
    L_j on mode modes[r, j], adag where create[j] and a otherwise; the last
    factor acts first. amplitudes has the sector basis on its last axis:
    one vector or a stacked block. A component whose occupation forbids a
    step is killed; the others pick up the _ladder_sign of each step. The
    adjoint monomial is the reversed row with every create flipped. Returns
    the target sector, which every row must share, and the (ops, ...,
    target dimension) block of images.
    """
    m, n_up, n_down = sector
    amplitudes = np.asarray(amplitudes)
    if amplitudes.shape[-1:] != (sector_dimension(*sector),):
        raise ValidationError("amplitude length does not match sector")
    modes = np.asarray(modes, dtype=np.int64)
    if modes.shape[1:] != (len(create),) or modes.ndim != 2:
        raise ValidationError("modes must be an (ops, k) table for k create flags")
    if np.any((modes < 0) | (modes >= 2 * m)):
        raise ValidationError("ladder mode outside register")
    step = np.where(np.asarray(create, dtype=bool), 1, -1)
    moved = np.stack([(modes < m) @ step, (modes >= m) @ step])  # (spin, row)
    if np.any(moved != moved[:, :1]):
        raise ValidationError("ladder stack reaches more than one target sector")
    counts = [int(n) for n in moved[:, :1].sum(axis=1) + (n_up, n_down)]
    if not all(0 <= n <= m for n in counts):
        raise ValidationError(f"ladders take sector {sector} outside 0..{m} per spin")
    words = np.broadcast_to(sector_word_indices(sector), (len(modes), amplitudes.shape[-1]))
    live = np.ones(words.shape, dtype=bool)
    sign = np.ones(words.shape)
    for mode, make in zip(modes.T[::-1, :, None], create[::-1]):
        bit = np.int64(1) << mode
        live &= ((words & bit) == 0) == make
        sign *= _ladder_sign(words, mode)
        words = words ^ bit
    target = (m, *counts)
    out = np.zeros(
        (len(modes), *amplitudes.shape[:-1], sector_dimension(*target)),
        dtype=np.result_type(amplitudes, float),
    )
    op, src = np.nonzero(live)
    dest = np.searchsorted(sector_word_indices(target), words[op, src])
    scale = sign[op, src].reshape(-1, *(1,) * (amplitudes.ndim - 1))
    out[op, ..., dest] = np.moveaxis(amplitudes[..., src], -1, 0) * scale
    return target, out


class _Replacements(NamedTuple):
    """Every replacement of `order` occupied orbitals of every k-electron
    spin string, one row each: source and target string ranks, holes i < j,
    particles a < b, and the sign of a_a^+ a_i or a_a^+ a_b^+ a_j a_i."""

    src: np.ndarray
    tgt: np.ndarray
    holes: np.ndarray
    particles: np.ndarray
    sign: np.ndarray


@lru_cache(maxsize=None)
def _replacements(m: int, k: int, order: int) -> _Replacements:
    words = _spin_words(m, k)
    combos = np.array(list(itertools.combinations(range(m), order)), dtype=np.int64)
    combos = combos.reshape(-1, order)
    masks = np.bitwise_or.reduce(np.int64(1) << combos, axis=1)
    hit = words[:, None] & masks
    full, empty = hit == masks, hit == 0
    src, hole, particle = np.nonzero(full[:, :, None] & empty[:, None, :])
    holes, particles = combos[hole], combos[particle]
    word = words[src]
    sign = np.ones(src.size)
    # a_i acts first, then a_j, a_b^+ and a_a^+
    for mode in (*holes.T, *particles[:, ::-1].T):
        sign *= _ladder_sign(word, mode)
        word = word ^ (np.int64(1) << mode)
    rank = np.searchsorted(words, word).astype(np.int32)  # < C(32, 16) < 2^31
    table = _Replacements(src.astype(np.int32), rank, holes, particles, sign)
    for arr in table:
        arr.setflags(write=False)
    return table


def string_operator(mat: np.ndarray, k: int) -> np.ndarray:
    """One spin's block of the spin-free sum_pq mat_pq adag_p a_q on its
    k-electron strings, in _spin_words order: the diagonal sum over each
    string's orbitals of mat_pp plus one signed entry per single
    replacement. The other spin's strings do not enter the signs."""
    m = mat.shape[0]
    occ = (_spin_words(m, k)[:, None] >> np.arange(m)) & 1
    out = np.diag(occ @ np.diag(mat))
    t = _replacements(m, k, 1)
    out[t.tgt, t.src] = t.sign * mat[t.particles[:, 0], t.holes[:, 0]]
    return out


def _entry_count(m: int, n_up: int, n_down: int) -> int:
    """Entries the sector build stores before it drops zero doubles:
    dim + n_down L_up + n_up L_down + n_down D_up + n_up D_down + L_up L_down,
    where n counts a spin's strings, L its singles and D its doubles."""
    n_u, n_d = math.comb(m, n_up), math.comb(m, n_down)
    l_u, l_d = n_u * n_up * (m - n_up), n_d * n_down * (m - n_down)
    d_u = n_u * math.comb(n_up, 2) * math.comb(m - n_up, 2)
    d_d = n_d * math.comb(n_down, 2) * math.comb(m - n_down, 2)
    return n_u * n_d + n_d * (l_u + d_u) + n_u * (l_d + d_d) + l_u * l_d


def _sector_entries(ints: MolecularIntegrals, sector: tuple):
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


@cached_per_integrals
def _sector_matrix(ints: MolecularIntegrals, sector: tuple):
    """Sparse CSR Hamiltonian on the sector basis (real symmetric)."""
    entries = _entry_count(*sector)
    if entries > _ENTRY_CAP:
        raise CapacityError(f"sector {sector} stores {entries} entries > {_ENTRY_CAP}")
    mat = _sector_entries(ints, sector).tocsr()
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
    return FockVector(v.sector, matvec(_sector_matrix(ints, v.sector), v.amplitudes))


def matvec(mat, v: np.ndarray) -> np.ndarray:
    """mat @ v for a real sector matrix, bit for bit, but in real arithmetic:
    with a complex v scipy would upcast mat's data on every call."""
    if not np.iscomplexobj(v):
        return mat @ v
    out = np.empty(np.shape(v), dtype=complex)
    out.real, out.imag = mat @ v.real, mat @ v.imag
    return out


@lru_cache(maxsize=None)
def _flip_blocks(sector: tuple) -> tuple:
    """The sector's spin-flip blocks, even then odd, as (column, weight,
    size): each block basis U has one entry per determinant i, U[i,
    column[i]] = weight[i], with weight 0 where the block has none. A
    sector with n_up != n_down, or of one determinant, is one block."""
    m, n_up, n_down = sector
    dim, n = sector_dimension(*sector), math.comb(m, n_up)
    if n_up != n_down:
        return ((np.arange(dim), np.ones(dim), dim),)
    upper = np.triu_indices(n, 1)
    pairs = upper[0].size
    rank = np.zeros((n, n), dtype=np.intp)
    rank[upper] = np.arange(pairs)
    down, up = np.divmod(np.arange(dim), n)
    diag, half, k = down == up, math.sqrt(0.5), (rank + rank.T).ravel()
    even = (np.where(diag, down, n + k), np.where(diag, 1.0, half), n + pairs)
    odd = (k, np.where(diag, 0.0, np.where(down < up, half, -half)), pairs)
    return (even, odd) if pairs else (even,)


def _block_matrix(mat, rows: np.ndarray, col: np.ndarray, weight: np.ndarray, size: int):
    """One spin-flip block U^T H U, summed over H's stored entries, then
    symmetrized with one temporary fewer than, and the bits of,
    (block + block.T) * 0.5."""
    cols = mat.indices
    block = np.bincount(col[rows] * size + col[cols], weight[rows] * weight[cols] * mat.data,
                        minlength=size * size).reshape(size, size)
    half = block + block.T  # P H P = H to roundoff
    half *= 0.5
    return half


def _start_flip_worker() -> None:
    """The thread that solves the odd spin-flip block while the calling
    thread builds and solves the even one; eigh releases the GIL. It is kept
    between calls. A forked child inherits the executor but not its thread,
    so the child gets a new one."""
    global _FLIP_WORKER
    _FLIP_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="qsubspace-flip")


_start_flip_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_flip_worker)


@cached_per_integrals
def _eigensystem(ints: MolecularIntegrals):
    dim = ints.sector_dimension
    if dim > _DENSE_CAP:
        raise CapacityError(f"dense spectrum needs dimension <= {_DENSE_CAP}")
    mat, blocks = _sector_matrix(ints, ints.sector), _flip_blocks(ints.sector)
    if len(blocks) == 1:  # the block is the matrix itself
        vals, vecs = np.linalg.eigh(mat.toarray())
        return vals, np.asfortranarray(vecs)
    rows = np.repeat(np.arange(dim), np.diff(mat.indptr))
    odd = _FLIP_WORKER.submit(np.linalg.eigh, _block_matrix(mat, rows, *blocks[1]))
    solved = [np.linalg.eigh(_block_matrix(mat, rows, *blocks[0])), odd.result()]
    vals = np.concatenate([w for w, _ in solved])
    order = np.argsort(vals, kind="stable")
    slot = np.empty(dim, dtype=np.intp)
    slot[order] = np.arange(dim)
    vecs = np.empty((dim, dim), order="F")  # Fortran order: each eigenvector contiguous
    for (col, weight, _), at in zip(blocks, np.split(slot, [solved[0][0].size])):
        y = solved.pop(0)[1][col]  # the block's eigenvectors are freed here
        y *= weight[:, None]
        vecs[:, at] = y
    return vals[order], vecs


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


def spectral_measure(ints: MolecularIntegrals, v: FockVector):
    """The spectral measure of v: the sector eigenvalues E_k, ascending, and
    the weights w_k = |<k|v>|^2 of the normalized v, which sum to 1. Then
    <f(H) v|g(H) v> = sum_k w_k conj(f(E_k)) g(E_k) for normalized v."""
    if v.sector != ints.sector:
        raise ValidationError("vector sector does not match integrals")
    vals, vecs = _eigensystem(ints)
    amp = v.normalized().amplitudes
    return vals.copy(), (vecs.T @ amp.real) ** 2 + (vecs.T @ amp.imag) ** 2
