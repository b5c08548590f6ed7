"""Pauli-operator algebra and fermion-to-qubit images.

A Pauli string on n qubits is stored symplectically as two bit masks (x, z);
qubit ell carries I, X, Y, Z for (x_ell, z_ell) = (0,0), (1,0), (1,1), (0,1),
and the operator is i^{|x & z|} X^x Z^z, which makes every string Hermitian.
Text form lists letters for qubits n-1 ... 0 left to right. A PauliSum holds
read-only uint64 mask arrays x, z and its coefficients, so products (popcount
phase rule of Aaronson & Gottesman, quant-ph/0406196), sums and images are
array operations. Terms merge in term order, are pruned at 1e-14 and sorted
by a 64-bit key interleaving, top qubit first, the bits (z, x xor z): letter
order I < X < Y < Z. Other modules order strings only through `pauli_keys`
and `string_table`; the key caps sums at 32 qubits (CapacityError).

The fermion mapping sends mode j (orbital p spin-up -> j = p, spin-down ->
j = p + m) to ladder operators (X_j -/+ i Y_j)/2 tensored with Z on all
qubits below j, so determinant words coincide with basis-state indices and
amplitudes carry no extra signs (see fock module docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy import bitwise_count as _popcount

from .errors import CapacityError, ValidationError
from .integrals import MolecularIntegrals, cached_per_integrals

_PRUNE = 1e-14
# string products formed per block of `pauli_products`
_BLOCK_TERMS = 1 << 13
_DENSE_QUBITS = 12
_KEY_QUBITS = 32
_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_MASKS = {v: k for k, v in _LETTERS.items()}
_PHASES = np.array([1j**k for k in range(4)])
# (shift s, mask of s-bit blocks 2s apart) steps moving bit i of a 32-bit word to bit 2i
_SPREAD = [(np.uint64(s), np.uint64((2**64 - 1) // (2**s + 1))) for s in (16, 8, 4, 2, 1)]


@dataclass(frozen=True, order=True)
class PauliString:
    num_qubits: int
    x: int
    z: int

    def __post_init__(self):
        if min(self.x, self.z) < 0 or max(self.x, self.z) >> self.num_qubits:
            raise ValidationError("mask outside qubit register")

    @classmethod
    def from_letters(cls, letters: str) -> "PauliString":
        x = z = 0
        for ch in letters:
            if ch not in _MASKS:
                raise ValidationError(f"unknown Pauli letter {ch!r}")
            xb, zb = _MASKS[ch]
            x, z = (x << 1) | xb, (z << 1) | zb
        return cls(len(letters), x, z)

    @property
    def letters(self) -> str:
        bits = (((self.x >> ell) & 1, (self.z >> ell) & 1) for ell in range(self.num_qubits))
        return "".join(_LETTERS[b] for b in bits)[::-1]

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()


def pauli_product(a: PauliString, b: PauliString):
    """(phase, string) with a @ b = phase * string; phase is a power of i."""
    if a.num_qubits != b.num_qubits:
        raise ValidationError("qubit counts differ")
    x, z = a.x ^ b.x, a.z ^ b.z
    k = ((a.x & a.z).bit_count() + (b.x & b.z).bit_count() - (x & z).bit_count()
         + 2 * (a.z & b.x).bit_count()) % 4
    return 1j**k, PauliString(a.num_qubits, x, z)


def commutes(a: PauliString, b: PauliString) -> bool:
    return ((a.x & b.z).bit_count() & 1) == ((a.z & b.x).bit_count() & 1)


def qubitwise_commutes(a: PauliString, b: PauliString) -> bool:
    return ((a.x & b.z) ^ (a.z & b.x)) == 0


def _phase_exponent(ax, az, bx, bz, x, z) -> np.ndarray:
    """`pauli_product`'s exponent on mask arrays (uint8 sums wrap mod 256)."""
    return (_popcount(ax & az) + _popcount(bx & bz) - _popcount(x & z)
            + 2 * _popcount(az & bx)) & 3


def _cmul(a, b) -> np.ndarray:
    """Complex product rounded like numpy scalars; array loops may fuse multiply-adds."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def pauli_keys(x, z) -> np.ndarray:
    """Canonical sort keys of the strings with masks x, z (at most 32 qubits)."""
    x, z = np.asarray(x, dtype=np.uint64), np.asarray(z, dtype=np.uint64)
    v = np.stack([z, x ^ z])
    for shift, mask in _SPREAD:
        v = (v | (v << shift)) & mask
    return (v[0] << 1) | v[1]


def _masks(keys) -> tuple:
    """The (x, z) masks of the strings with the given keys: `pauli_keys`
    inverted."""
    shifts, masks = zip(*_SPREAD[::-1])
    v = np.stack([keys >> np.uint64(1), keys]) & masks[0]
    for shift, mask in zip(shifts, masks[1:] + (np.uint64(2**32 - 1),)):
        v = (v | (v >> shift)) & mask
    z, x_xor_z = v
    return x_xor_z ^ z, z


def string_table(num_qubits: int, keys) -> "PauliSum":
    """The distinct strings among the `pauli_keys` keys as a unit-coefficient
    PauliSum in key order: a measurement job's string table."""
    keys = np.sort(keys)
    distinct = np.ones(keys.size, dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    keys = keys[distinct]
    return PauliSum(num_qubits, *_masks(keys), np.ones(keys.size), keys)


@dataclass(frozen=True, eq=False)
class PauliSum:
    """Canonical linear combination: merged, pruned, in key order; one
    uint64 (x, z) mask pair per term. Built by `pauli_sum` and the algebra.
    Equality is identity so instances can key caches."""

    num_qubits: int
    x: np.ndarray
    z: np.ndarray
    coeffs: np.ndarray
    keys: np.ndarray = field(default=None, repr=False)  # from x and z when None

    def __post_init__(self):
        if self.keys is None:
            object.__setattr__(self, "keys", pauli_keys(self.x, self.z))
        for name in ("x", "z", "keys", "coeffs"):
            dtype = complex if name == "coeffs" else np.uint64
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
            getattr(self, name).setflags(write=False)

    def __len__(self):
        return self.coeffs.size

    @cached_property
    def strings(self) -> tuple:
        pairs = zip(self.x.tolist(), self.z.tolist())
        return tuple(PauliString(self.num_qubits, a, b) for a, b in pairs)

    def terms(self):
        return zip(self.coeffs, self.strings)

    def split_identity(self):
        """(identity coefficient, other terms); the identity sorts first."""
        if len(self) == 0 or self.x[0] | self.z[0]:
            return 0j, self
        rest = PauliSum(self.num_qubits, self.x[1:], self.z[1:], self.coeffs[1:], self.keys[1:])
        return complex(self.coeffs[0]), rest

    def _columns(self, other: "PauliSum") -> tuple:
        if other.num_qubits != self.num_qubits:
            raise ValidationError("qubit counts differ")
        return zip((self.x, self.z, self.coeffs), (other.x, other.z, other.coeffs))

    def __add__(self, other):
        if isinstance(other, PauliSum):
            return _canonical(self.num_qubits, *map(np.concatenate, self._columns(other)))
        return NotImplemented

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            coeffs = _cmul(self.coeffs, complex(other))
            return _canonical(self.num_qubits, self.x, self.z, coeffs)
        if isinstance(other, PauliSum):
            _, *columns = next(pauli_products([self], [other], [(0, 0)]))
            return PauliSum(self.num_qubits, *columns)
        return NotImplemented

    __rmul__ = __mul__

    def dagger(self) -> "PauliSum":
        return _canonical(self.num_qubits, self.x, self.z, self.coeffs.conj())

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.coeffs.imag), initial=0.0) <= tol)

    def to_dense(self) -> np.ndarray:
        if self.num_qubits > _DENSE_QUBITS:
            raise CapacityError(f"dense form capped at {_DENSE_QUBITS} qubits")
        idx = np.arange(1 << self.num_qubits, dtype=np.uint64)
        out = np.zeros((idx.size, idx.size), dtype=complex)
        for c, x, z, k in zip(self.coeffs, self.x, self.z, _popcount(self.x & self.z)):
            out[idx ^ x, idx] += c * _PHASES[k & 3] * (1.0 - 2.0 * (_popcount(idx & z) & 1))
        return out


def _check_width(num_qubits: int) -> None:
    if num_qubits > _KEY_QUBITS:
        raise CapacityError(f"Pauli sums are capped at {_KEY_QUBITS} qubits")


def _merge(x, z, coeffs, keys) -> tuple:
    """Merge terms of equal key, adding coefficients in term order from zero,
    drop sums of magnitude <= 1e-14; (x, z, sums, keys) of the rest in key
    order."""
    keys, inverse = np.unique(keys, return_inverse=True)
    acc = np.zeros(keys.size, dtype=complex)
    np.add.at(acc, inverse, coeffs)
    ux, uz = np.zeros(keys.size, dtype=np.uint64), np.zeros(keys.size, dtype=np.uint64)
    ux[inverse], uz[inverse] = x, z
    keep = np.abs(acc) > _PRUNE
    return ux[keep], uz[keep], acc[keep], keys[keep]


def _canonical(num_qubits: int, x, z, coeffs) -> PauliSum:
    """Merge equal strings and order them by key."""
    return PauliSum(num_qubits, *_merge(x, z, coeffs, pauli_keys(x, z)))


def pauli_products(left, right, pairs):
    """Canonical products left[a] * right[b] of PauliSums for the index
    pairs (a, b), in pair order, formed in blocks of about _BLOCK_TERMS
    string products. A block is one gather of both factors' terms, one
    phase and coefficient pass, and one merge keyed by
    (pair in block << 2n) | string key, so every product has the sums,
    pruning and key order of a product formed alone. A product's key is
    the xor of its factors' keys. Yields per block (bounds, x, z, coeffs,
    keys): the block's products end to end, pair p's terms at
    bounds[p]:bounds[p + 1]."""
    num_qubits = left[0].num_qubits
    if any(s.num_qubits != num_qubits for s in (*left, *right)):
        raise ValidationError("qubit counts differ")
    shift = np.uint64(2 * num_qubits)
    (lx, lz, lc, lk), (rx, rz, rc, rk) = (
        [np.concatenate([getattr(s, a) for s in side]) for a in ("x", "z", "coeffs", "keys")]
        for side in (left, right))
    loff, roff = (np.cumsum([0] + [len(s) for s in side]) for side in (left, right))
    pa, pb = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    rows, cols = np.diff(loff)[pa], np.diff(roff)[pb]
    # cut so that a block's pair index fits above the 2n string-key bits
    cuts, terms, most = [0], 0, 1 << max(64 - 2 * num_qubits, 0)
    for p, count in enumerate((rows * cols).tolist()):
        if p > cuts[-1] and (terms + count > _BLOCK_TERMS or p - cuts[-1] == most):
            cuts.append(p)
            terms = 0
        terms += count
    cuts.append(len(pa))
    for p0, p1 in zip(cuts[:-1], cuts[1:]):
        # one row per left term of each pair, repeated over the pair's right terms
        a, b, nrows = pa[p0:p1], pb[p0:p1], rows[p0:p1]
        pair = np.repeat(np.arange(p1 - p0), nrows)
        row = np.arange(pair.size) + (loff[a] - np.cumsum(nrows) + nrows)[pair]
        width = cols[p0:p1][pair]
        ri = np.arange(width.sum()) + np.repeat(roff[b][pair] - np.cumsum(width) + width, width)
        ax, az, ac = (np.repeat(col[row], width) for col in (lx, lz, lc))
        bx, bz = rx[ri], rz[ri]
        x, z = ax ^ bx, az ^ bz
        k = _phase_exponent(ax, az, bx, bz, x, z)
        coeffs = _cmul(ac, rc[ri]) * _PHASES[k]
        keys = np.repeat((pair.astype(np.uint64) << shift) | lk[row], width) ^ rk[ri]
        x, z, coeffs, keys = _merge(x, z, coeffs, keys)
        bounds = np.append(np.searchsorted(keys, np.arange(p1 - p0, dtype=np.uint64) << shift),
                           keys.size)
        yield bounds, x, z, coeffs, keys & np.uint64((1 << 2 * num_qubits) - 1)


def pauli_sum(num_qubits: int, terms) -> PauliSum:
    """Canonicalizing constructor; terms are (coeff, PauliString | letters)."""
    _check_width(num_qubits)
    terms = [(complex(c), PauliString.from_letters(s) if isinstance(s, str) else s)
             for c, s in terms]
    if any(s.num_qubits != num_qubits for _, s in terms):
        raise ValidationError("string width does not match register")
    x, z = np.array([(s.x, s.z) for _, s in terms], dtype=np.uint64).reshape(-1, 2).T
    return _canonical(num_qubits, x, z, np.array([c for c, _ in terms], dtype=complex))


# ---------------------------------------------------------------------------
# fermionic images


def _ladder_terms(scale, modes, create) -> tuple:
    """(x, z, coeffs) of the products scale[r] * prod_j L(modes[r, j], create[j])
    of ladder images, each expanded into its 2^factors strings in
    itertools.product order over the factors' X and Y terms, coefficients
    scale * (c_1 ph_1) * (c_2 ph_2) ..., ph_j the phase of factor j."""
    nf = len(create)
    x = z = np.zeros((len(scale), 1 << nf), dtype=np.uint64)
    coeff = np.asarray(scale, dtype=float)[:, None]
    for j, cr in enumerate(create):
        y = ((np.arange(1 << nf) >> (nf - 1 - j)) & 1).astype(np.uint64)  # 1: the Y term
        bit = np.uint64(1) << modes[:, j:j + 1].astype(np.uint64)
        fx, fz = bit, bit - np.uint64(1) + bit * y
        fc = np.where(y == 1, complex(0.0, -0.5 if cr else 0.5), complex(0.5, 0.0))
        k = _phase_exponent(x, z, fx, fz, x ^ fx, z ^ fz)
        x, z, coeff = x ^ fx, z ^ fz, _cmul(coeff, fc * _PHASES[k])
    return x.ravel(), z.ravel(), coeff.ravel()


def ladder_product(num_qubits: int, ladders) -> PauliSum:
    """Qubit image of a product of ladder operators ((mode, create), ...),
    leftmost first; create=True is adag_mode. No factors is the identity."""
    _check_width(num_qubits)
    modes = np.array([mode for mode, _ in ladders], dtype=np.intp)
    if np.any((modes < 0) | (modes >= num_qubits)):
        raise ValidationError("mode outside register")
    return _canonical(num_qubits, *_ladder_terms(np.ones(1), modes[None], [c for _, c in ladders]))


@cached_per_integrals
def jordan_wigner(ints: MolecularIntegrals) -> PauliSum:
    """Qubit image of the full electronic Hamiltonian on 2m qubits; terms merge
    in the order e_nuc, one-body (p, r, spin), two-body (p, r, q, s, spins)."""
    m = ints.num_orbitals
    if m > 8:
        raise CapacityError("qubit image capped at 8 orbitals (16 qubits)")
    parts = [(np.zeros(1, np.uint64), np.zeros(1, np.uint64), np.array([complex(ints.e_nuc)]))]
    # integrals, their factor, index order of the ladders, spin offsets, creators
    for tensor, factor, order, offsets, create in (
        (ints.one_body, 1.0, [0, 1], [[0, 0], [m, m]], (1, 0)),
        (ints.two_body, 0.5, [0, 2, 3, 1], [[a, b, b, a] for a in (0, m) for b in (0, m)],
         (1, 1, 0, 0)),
    ):
        idx = np.argwhere(tensor != 0.0)  # row-major: the order of nested loops
        modes = (idx[:, None, order] + np.array(offsets)).reshape(-1, len(create))
        scale = np.repeat(factor * tensor[tuple(idx.T)], len(offsets))
        parts.append(_ladder_terms(scale, modes, create))
    return _canonical(2 * m, *(np.concatenate(column) for column in zip(*parts)))


# ---------------------------------------------------------------------------
# measurement grouping


@dataclass(frozen=True)
class CommutingGroups:
    """Partition of a Pauli sum into mutually commuting groups: index tuples
    into the sum's term list, every term in exactly one group."""

    mode: str
    groups: tuple

    @property
    def num_groups(self) -> int:
        return len(self.groups)


def group_commuting(h: PauliSum, mode: str = "qubitwise") -> CommutingGroups:
    """Greedy sorted insertion: visit terms by descending |coefficient| and
    put each into the first group it is compatible with. A qubitwise group
    fixes one letter on every qubit its members touch; one bitset over the
    groups per (qubit, letter) marks the groups whose letter there differs,
    so a term joins the lowest group that none of its letters' bitsets
    mark. Full commutation is tested against every placed term."""
    if mode not in ("qubitwise", "full"):
        raise ValidationError(f"unknown grouping mode {mode!r}")
    order = np.argsort(-np.abs(h.coeffs), kind="stable").tolist()
    if mode == "qubitwise":
        return CommutingGroups(mode, _qubitwise_insertion(h, order))
    # x and z masks of every placed term, and the group it went to
    mx, mz = np.zeros(len(h), dtype=np.uint64), np.zeros(len(h), dtype=np.uint64)
    owner = np.zeros(len(h), dtype=np.intp)
    groups = []
    for placed, i in enumerate(order):
        sx, sz, n = h.x[i], h.z[i], len(groups)
        anti = _popcount(mx[:placed] & sz) + _popcount(mz[:placed] & sx)
        fits = np.ones(n, dtype=bool)
        fits[owner[:placed][anti & 1 == 1]] = False
        g = int(fits.argmax()) if fits.any() else n
        if g == n:
            groups.append([])
        groups[g].append(i)
        mx[placed], mz[placed], owner[placed] = sx, sz, g
    return CommutingGroups(mode, tuple(tuple(g) for g in groups))


def _qubitwise_insertion(h: PauliSum, order: list) -> tuple:
    qubit = np.arange(h.num_qubits, dtype=np.uint64)
    # letter - 1 (X 0, Z 1, Y 2) of each term on each qubit, -1 off its support
    letter = (((h.x[:, None] >> qubit) & 1) | (((h.z[:, None] >> qubit) & 1) << 1)).astype(int) - 1
    term, q = np.nonzero(letter >= 0)
    slot = (3 * q + letter[term, q]).tolist()  # one bitset per (qubit, letter)
    first = np.searchsorted(term, np.arange(len(h) + 1)).tolist()
    clash = [0] * (3 * h.num_qubits)
    groups = []
    for i in order:
        slots = slot[first[i]:first[i + 1]]
        marked = 0
        for s in slots:
            marked |= clash[s]
        g = ((marked + 1) & ~marked).bit_length() - 1  # lowest unmarked group
        if g == len(groups):
            groups.append([])
        groups[g].append(i)
        bit = 1 << g
        for s in slots:  # group g now fixes this letter: mark the other two
            base = s - s % 3
            clash[base + (s + 1) % 3] |= bit
            clash[base + (s + 2) % 3] |= bit
    return tuple(tuple(g) for g in groups)
