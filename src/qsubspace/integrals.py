"""Molecular integral containers and transformations.

The electronic Hamiltonian is specified by a nuclear repulsion constant, a
symmetric one-body matrix h_pr, and a chemist-notation two-body tensor
(pr|qs) with full 8-fold permutation symmetry, over M spatial orbitals:

    H = e_nuc + sum_{pr,s} h_pr adag_ps a_rs
             + 1/2 sum_{prqs,st} (pr|qs) adag_ps adag_qt a_st a_rs'

Input is FCIDUMP text (namelist header, then "value p r q s" lines with
1-based indices; q = s = 0 marks a one-body entry, all-zero indices the
nuclear repulsion). The same spatial integrals serve both spins.
"""

from __future__ import annotations

import functools
import math
import re
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DecompositionError, ParseError, ValidationError

_SYM_TOL = 1e-10
# orbital cap of parsed files, checked before the m^4 tensor is allocated
_MAX_ORBITALS = 32
# larger integrals overflow the sector matrix and its eigensolvers
_MAX_ABS = 1e100


@dataclass(frozen=True, eq=False)
class MolecularIntegrals:
    """Integral set plus the particle-number sector it is meant for.

    Equality is identity so instances can key caches; treat as immutable.
    """

    num_orbitals: int
    num_up: int
    num_down: int
    e_nuc: float
    one_body: np.ndarray
    two_body: np.ndarray

    def __post_init__(self):
        m = self.num_orbitals
        if m < 1:
            raise ValidationError("need at least one orbital")
        for name, n in (("num_up", self.num_up), ("num_down", self.num_down)):
            if not 0 <= n <= m:
                raise ValidationError(f"{name}={n} outside 0..{m}")
        h = np.ascontiguousarray(self.one_body, dtype=float)
        g = np.ascontiguousarray(self.two_body, dtype=float)
        if h.shape != (m, m):
            raise ValidationError(f"one_body shape {h.shape}, expected {(m, m)}")
        if g.shape != (m, m, m, m):
            raise ValidationError(f"two_body shape {g.shape}, expected 4x{m}")
        values = (float(self.e_nuc), h, g)
        if not all(np.all(np.isfinite(v)) for v in values):
            raise ValidationError("integrals contain non-finite entries")
        if any(np.max(np.abs(v), initial=0.0) > _MAX_ABS for v in values):
            raise ValidationError(f"integrals exceed {_MAX_ABS:g} in magnitude")
        scale = max(1.0, float(np.max(np.abs(h)) if h.size else 0.0))
        if np.max(np.abs(h - h.T)) > _SYM_TOL * scale:
            raise ValidationError("one_body matrix is not symmetric")
        gscale = max(1.0, float(np.max(np.abs(g))))
        # spot the three generators of the 8-fold group: p<->r, q<->s, (pr)<->(qs)
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if np.max(np.abs(g - g.transpose(perm))) > _SYM_TOL * gscale:
                raise ValidationError("two_body tensor lacks 8-fold symmetry")
        h.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "one_body", h)
        object.__setattr__(self, "two_body", g)
        object.__setattr__(self, "e_nuc", float(self.e_nuc))

    @property
    def num_electrons(self) -> int:
        return self.num_up + self.num_down

    @property
    def sector(self) -> tuple:
        """(orbitals, spin-up count, spin-down count)."""
        return (self.num_orbitals, self.num_up, self.num_down)

    @property
    def sector_dimension(self) -> int:
        return math.comb(self.num_orbitals, self.num_up) * math.comb(
            self.num_orbitals, self.num_down
        )


def cached_per_integrals(fn):
    """Memoize fn(ints, *args) for as long as the integral set lives.

    Results sit in a table keyed weakly by the MolecularIntegrals instance,
    so dropping the last reference to an integral set frees everything
    cached for it. Cached values must not refer back to the integrals.
    """
    table = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def cached(ints, *args):
        slot = table.setdefault(ints, {})
        if args in slot:
            return slot[args]
        # threads racing on a first call may each compute; setdefault is
        # atomic, so they all get the one value stored first
        return slot.setdefault(args, fn(ints, *args))

    return cached


def _assign_eri(g: np.ndarray, p: int, r: int, q: int, s: int, value: float):
    # unfold the 8-fold symmetry on assignment
    for a, b, c, d in (
        (p, r, q, s), (r, p, q, s), (p, r, s, q), (r, p, s, q),
        (q, s, p, r), (s, q, p, r), (q, s, r, p), (s, q, r, p),
    ):
        g[a, b, c, d] = value


def parse_fcidump(text: str) -> MolecularIntegrals:
    """Parse FCIDUMP contents (the text itself, not a path)."""
    lines = text.splitlines()
    header_parts = []
    data_start = None
    for i, line in enumerate(lines):
        header_parts.append(line)
        if re.search(r"&END|^\s*/\s*$|\)\s*$", line, flags=re.IGNORECASE):
            data_start = i + 1
            break
    if data_start is None:
        raise ParseError("header never terminated by &END or /")
    header = " ".join(header_parts)
    if not re.search(r"&FCI\b", header, flags=re.IGNORECASE):
        raise ParseError("missing &FCI namelist marker", line_number=1)

    def header_int(key, default=None):
        match = re.search(rf"{key}\s*=\s*(-?\d+)", header, flags=re.IGNORECASE)
        if match:
            return int(match.group(1))
        if default is None:
            raise ParseError(f"header lacks {key}", line_number=1)
        return default

    norb = header_int("NORB")
    nelec = header_int("NELEC")
    ms2 = header_int("MS2", default=0)
    if norb < 1:
        raise ParseError(f"NORB={norb} invalid", line_number=1)
    if norb > _MAX_ORBITALS:
        raise CapacityError(f"NORB={norb} exceeds the cap of {_MAX_ORBITALS} orbitals")
    if nelec < 0 or abs(ms2) > nelec or (nelec + ms2) % 2:
        raise ParseError(f"inconsistent NELEC={nelec}, MS2={ms2}", line_number=1)
    num_up = (nelec + ms2) // 2
    num_down = (nelec - ms2) // 2
    if max(num_up, num_down) > norb:
        raise ParseError(f"{nelec} electrons do not fit in {norb} orbitals")

    h = np.zeros((norb, norb))
    g = np.zeros((norb, norb, norb, norb))
    e_nuc = 0.0
    for lineno, line in enumerate(lines[data_start:], start=data_start + 1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.replace("D", "E").replace("d", "e").split()
        if len(fields) != 5:
            raise ParseError(f"expected 'value p r q s', got {stripped!r}", lineno)
        try:
            value = float(fields[0])
            p, r, q, s = (int(x) for x in fields[1:])
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if min(p, r, q, s) < 0 or max(p, r, q, s) > norb:
            raise ParseError(f"orbital index outside 1..{norb}", lineno)
        if p == r == q == s == 0:
            e_nuc = value
        elif q == 0 and s == 0:
            if p == 0 or r == 0:
                raise ParseError("one-body entry needs two indices", lineno)
            h[p - 1, r - 1] = value
            h[r - 1, p - 1] = value
        elif min(p, r, q, s) == 0:
            raise ParseError("two-body entry needs four indices", lineno)
        else:
            _assign_eri(g, p - 1, r - 1, q - 1, s - 1, value)
    return MolecularIntegrals(norb, num_up, num_down, e_nuc, h, g)


def serialize_fcidump(ints: MolecularIntegrals) -> str:
    """Canonical FCIDUMP text; parse_fcidump round-trips it bit for bit."""
    m = ints.num_orbitals
    out = [
        f"&FCI NORB={m},NELEC={ints.num_electrons},MS2={ints.num_up - ints.num_down},",
        " ORBSYM=" + ",".join(["1"] * m) + ",",
        " ISYM=1,",
        "&END",
    ]

    def fmt(value, p, r, q, s):
        return f" {format(value, '.17g'):>24} {p:4d} {r:4d} {q:4d} {s:4d}"

    g = ints.two_body
    seen = set()
    for p in range(m):
        for r in range(p + 1):
            for q in range(p + 1):
                for s in range(q + 1):
                    key = frozenset(
                        ((p, r, q, s), (r, p, q, s), (p, r, s, q), (q, s, p, r))
                    )
                    if key in seen or g[p, r, q, s] == 0.0:
                        continue
                    seen.add(key)
                    out.append(fmt(g[p, r, q, s], p + 1, r + 1, q + 1, s + 1))
    for p in range(m):
        for r in range(p + 1):
            if ints.one_body[p, r] != 0.0:
                out.append(fmt(ints.one_body[p, r], p + 1, r + 1, 0, 0))
    out.append(fmt(ints.e_nuc, 0, 0, 0, 0))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class CholeskyFactors:
    """Symmetric factors L^g with (pr|qs)/2 = sum_g L^g_pr L^g_qs."""

    num_orbitals: int
    factors: np.ndarray  # (num_factors, m, m)
    residual_tol: float

    num_factors: int = field(init=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.factors, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "factors", arr)
        object.__setattr__(self, "num_factors", arr.shape[0])


def cholesky_decompose_eri(ints, tol: float = 1e-8) -> CholeskyFactors:
    """Pivoted Cholesky of the pair supermatrix V_(pr),(qs) = (pr|qs)/2.

    Greedy diagonal pivoting; stops once every remaining diagonal residual
    is at or below `tol`, which bounds the whole residual in max norm since
    Schur complements of a PSD matrix stay PSD. A pivot below -tol means the
    supermatrix is not PSD and raises.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    m = ints.num_orbitals
    n = m * m
    v = ints.two_body.reshape(n, n) / 2.0
    diag = np.diag(v).copy()
    cols = []
    for _ in range(n):
        if float(np.min(diag)) < -tol:
            raise DecompositionError(
                "two-body supermatrix is not positive semidefinite",
                pivot=float(np.min(diag)),
            )
        k = int(np.argmax(diag))
        if diag[k] <= tol:
            break
        col = v[:, k].copy()
        for ell in cols:
            col -= ell * ell[k]
        ell = col / math.sqrt(diag[k])
        cols.append(ell)
        diag -= ell * ell
    factors = (
        np.array(cols).reshape(len(cols), m, m)
        if cols
        else np.zeros((0, m, m))
    )
    return CholeskyFactors(m, factors, tol)


def effective_one_body(ints, factors: CholeskyFactors) -> np.ndarray:
    """One-body matrix left after pulling squared factors out of the pair term.

    H = e_nuc + J1hat + sum_g (Lhat^g)^2 with J1 = h - sum_g L^g L^g.
    """
    j1 = ints.one_body.copy()
    for ell in factors.factors:
        j1 -= ell @ ell
    return j1
