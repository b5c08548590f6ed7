"""Pauli-operator algebra and fermion-to-qubit images.

A Pauli string on n qubits is stored symplectically as two bit masks (x, z);
qubit ell carries I, X, Y, Z for (x_ell, z_ell) = (0,0), (1,0), (1,1), (0,1),
and the operator is i^{|x & z|} X^x Z^z, which makes every string Hermitian.
Products, commutation checks, and basis-state actions are then integer
arithmetic. Text form lists letters for qubits n-1 ... 0 left to right.

The fermion mapping sends mode j (orbital p spin-up -> j = p, spin-down ->
j = p + m) to ladder operators (X_j -/+ i Y_j)/2 tensored with Z on all
qubits below j, so determinant words coincide with basis-state indices and
amplitudes carry no extra signs (see fock module docstring).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ParseError, ValidationError
from .integrals import MolecularIntegrals, cached_per_integrals

_PRUNE = 1e-14
_DENSE_QUBITS = 12
_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_MASKS = {v: k for k, v in _LETTERS.items()}


@dataclass(frozen=True, order=True)
class PauliString:
    num_qubits: int
    x: int
    z: int

    def __post_init__(self):
        top = 1 << self.num_qubits
        if not (0 <= self.x < top and 0 <= self.z < top):
            raise ValidationError("mask outside qubit register")

    @classmethod
    def from_letters(cls, letters: str) -> "PauliString":
        x = z = 0
        for ch in letters:
            if ch not in _MASKS:
                raise ValidationError(f"unknown Pauli letter {ch!r}")
            xb, zb = _MASKS[ch]
            x = (x << 1) | xb
            z = (z << 1) | zb
        return cls(len(letters), x, z)

    @property
    def letters(self) -> str:
        out = []
        for ell in reversed(range(self.num_qubits)):
            out.append(_LETTERS[((self.x >> ell) & 1, (self.z >> ell) & 1)])
        return "".join(out)

    @property
    def support(self) -> int:
        """Mask of qubits carrying a non-identity letter."""
        return self.x | self.z

    @property
    def weight(self) -> int:
        return self.support.bit_count()

    def __str__(self):
        return self.letters


def identity_string(num_qubits: int) -> PauliString:
    return PauliString(num_qubits, 0, 0)


def pauli_product(a: PauliString, b: PauliString):
    """(phase, string) with a @ b = phase * string; phase is a power of i."""
    if a.num_qubits != b.num_qubits:
        raise ValidationError("qubit counts differ")
    x = a.x ^ b.x
    z = a.z ^ b.z
    k = (
        (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        - (x & z).bit_count()
        + 2 * (a.z & b.x).bit_count()
    ) % 4
    return 1j**k, PauliString(a.num_qubits, x, z)


def commutes(a: PauliString, b: PauliString) -> bool:
    return ((a.x & b.z).bit_count() & 1) == ((a.z & b.x).bit_count() & 1)


def qubitwise_commutes(a: PauliString, b: PauliString) -> bool:
    return ((a.x & b.z) ^ (a.z & b.x)) == 0


@dataclass(frozen=True, eq=False)
class PauliSum:
    """Canonical linear combination: merged, pruned, sorted by string.

    Equality is identity so instances can key caches; use `same_terms` for
    structural comparison in tests.
    """

    num_qubits: int
    strings: tuple
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __len__(self):
        return len(self.strings)

    def terms(self):
        return zip(self.coeffs, self.strings)

    def __add__(self, other):
        if isinstance(other, PauliSum):
            if other.num_qubits != self.num_qubits:
                raise ValidationError("qubit counts differ")
            return pauli_sum(
                self.num_qubits, list(self.terms()) + list(other.terms())
            )
        return NotImplemented

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return pauli_sum(
                self.num_qubits, [(c * other, s) for c, s in self.terms()]
            )
        if isinstance(other, PauliSum):
            if other.num_qubits != self.num_qubits:
                raise ValidationError("qubit counts differ")
            acc = {}
            for ca, sa in self.terms():
                for cb, sb in other.terms():
                    phase, s = pauli_product(sa, sb)
                    acc[s] = acc.get(s, 0.0) + ca * cb * phase
            return pauli_sum(self.num_qubits, list((c, s) for s, c in acc.items()))
        return NotImplemented

    __rmul__ = __mul__

    def dagger(self) -> "PauliSum":
        return pauli_sum(self.num_qubits, [(c.conjugate(), s) for c, s in self.terms()])

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.coeffs.imag), initial=0.0) <= tol)

    def same_terms(self, other: "PauliSum", tol: float = 1e-12) -> bool:
        return self.strings == other.strings and bool(
            np.allclose(self.coeffs, other.coeffs, atol=tol)
        )

    def to_dense(self) -> np.ndarray:
        if self.num_qubits > _DENSE_QUBITS:
            raise CapacityError(f"dense form capped at {_DENSE_QUBITS} qubits")
        dim = 1 << self.num_qubits
        idx = np.arange(dim)
        out = np.zeros((dim, dim), dtype=complex)
        for c, s in self.terms():
            signs = 1.0 - 2.0 * (np.bitwise_count(idx & s.z) & 1)
            out[idx ^ s.x, idx] += c * (1j ** (s.x & s.z).bit_count()) * signs
        return out


def pauli_sum(num_qubits: int, terms) -> PauliSum:
    """Canonicalizing constructor; terms are (coeff, PauliString | letters)."""
    acc = {}
    for coeff, s in terms:
        if isinstance(s, str):
            s = PauliString.from_letters(s)
        if s.num_qubits != num_qubits:
            raise ValidationError("string width does not match register")
        acc[s] = acc.get(s, 0.0) + complex(coeff)
    kept = sorted(
        ((s, c) for s, c in acc.items() if abs(c) > _PRUNE),
        key=lambda item: item[0].letters,
    )
    return PauliSum(
        num_qubits,
        tuple(s for s, _ in kept),
        np.array([c for _, c in kept], dtype=complex),
    )


def identity_sum(num_qubits: int, coeff=1.0) -> PauliSum:
    return pauli_sum(num_qubits, [(coeff, identity_string(num_qubits))])


def serialize_pauli_sum(h: PauliSum) -> str:
    lines = [
        f"{format(c.real, '.17g')} {format(c.imag, '.17g')} {s.letters}"
        for c, s in h.terms()
    ]
    return "\n".join(lines) + "\n"


def parse_pauli_sum(text: str) -> PauliSum:
    terms = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected 're im LETTERS'", lineno)
        try:
            coeff = complex(float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if width is None:
            width = len(parts[2])
        elif len(parts[2]) != width:
            raise ParseError("inconsistent string width", lineno)
        terms.append((coeff, parts[2]))
    if width is None:
        raise ParseError("no terms found")
    return pauli_sum(width, terms)


# ---------------------------------------------------------------------------
# fermionic images


def jw_ladder(mode: int, num_qubits: int, create: bool) -> PauliSum:
    """Qubit image of adag_mode (create=True) or a_mode."""
    if not 0 <= mode < num_qubits:
        raise ValidationError("mode outside register")
    bit = 1 << mode
    below = bit - 1
    sign = -1.0 if create else 1.0
    return pauli_sum(
        num_qubits,
        [
            (0.5, PauliString(num_qubits, bit, below)),
            (sign * 0.5j, PauliString(num_qubits, bit, below | bit)),
        ],
    )


def _ladder_terms(mode: int, num_qubits: int, create: bool):
    return list(jw_ladder(mode, num_qubits, create).terms())


@cached_per_integrals
def jordan_wigner(ints: MolecularIntegrals) -> PauliSum:
    """Qubit image of the full electronic Hamiltonian on 2m qubits."""
    m = ints.num_orbitals
    if m > 8:
        raise CapacityError("qubit image capped at 8 orbitals (16 qubits)")
    nq = 2 * m
    acc = {identity_string(nq): complex(ints.e_nuc)}

    def add_product(scale, ops):
        # ops: list of (mode, create); expand the product of ladder images
        factors = [_ladder_terms(mode, nq, create) for mode, create in ops]
        for combo in itertools.product(*factors):
            coeff = scale
            string = identity_string(nq)
            for c, s in combo:
                phase, string = pauli_product(string, s)
                coeff *= c * phase
            acc[string] = acc.get(string, 0.0) + coeff

    h = ints.one_body
    g = ints.two_body
    offsets = (0, m)
    for p in range(m):
        for r in range(m):
            if h[p, r] != 0.0:
                for off in offsets:
                    add_product(h[p, r], [(p + off, True), (r + off, False)])
    for p, r, q, s in itertools.product(range(m), repeat=4):
        val = g[p, r, q, s]
        if val == 0.0:
            continue
        for off1 in offsets:
            for off2 in offsets:
                add_product(
                    0.5 * val,
                    [
                        (p + off1, True),
                        (q + off2, True),
                        (s + off2, False),
                        (r + off1, False),
                    ],
                )
    return pauli_sum(nq, [(c, s) for s, c in acc.items()])


# ---------------------------------------------------------------------------
# measurement grouping


@dataclass(frozen=True)
class CommutingGroups:
    """Partition of a Pauli sum into mutually commuting groups.

    `groups` holds index tuples into the parent sum's term list; every term
    belongs to exactly one group.
    """

    mode: str
    num_terms: int
    groups: tuple

    num_groups: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "num_groups", len(self.groups))


def group_commuting(h: PauliSum, mode: str = "qubitwise") -> CommutingGroups:
    """Greedy sorted insertion: visit terms by descending |coefficient| and
    put each into the first group it is compatible with.

    A qubitwise group fixes one letter on every qubit its members touch, so
    a term is checked against the group's merged (x, z, support) masks in
    one test; full commutation is checked against every member.
    """
    if mode not in ("qubitwise", "full"):
        raise ValidationError(f"unknown grouping mode {mode!r}")
    order = sorted(range(len(h)), key=lambda i: (-abs(h.coeffs[i]), i))
    groups = []
    if mode == "qubitwise":
        masks = []  # per group: (x, z, support) merged over its members
        for i in order:
            s = h.strings[i]
            sx, sz = s.x, s.z
            ss = sx | sz
            for g, (gx, gz, gs) in enumerate(masks):
                if ((sx ^ gx) | (sz ^ gz)) & ss & gs == 0:
                    groups[g].append(i)
                    masks[g] = (gx | sx, gz | sz, gs | ss)
                    break
            else:
                groups.append([i])
                masks.append((sx, sz, ss))
    else:
        for i in order:
            s = h.strings[i]
            for g in groups:
                if all(commutes(s, h.strings[j]) for j in g):
                    g.append(i)
                    break
            else:
                groups.append([i])
    return CommutingGroups(mode, len(h), tuple(tuple(g) for g in groups))
