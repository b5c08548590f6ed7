"""Finite-sampling measurement model.

Expectation values are estimated by drawing computational-basis samples
after a Clifford circuit that diagonalizes a commuting group, found from
the x and z mask arrays of its strings alone: single-qubit basis changes
where all its letters agree, batched as gather layers over bounded blocks
of a job's groups, then, for a group that is not qubitwise, the CNOT and
single-qubit gates of Gaussian elimination on its tableau.  Each string
reads a signed parity of the outcome, so a group of m strings on n qubits
becomes an outcome distribution and an (m, 2^n) +-1 value table V, with
no 2^n x 2^n matrix.  On top of that the module sets shot counts against
a precision target and assembles noise-tagged subspace problems from
measurement recipes emitted by the subspace builders.

A recipe is a const vector and one sparse matrix over all jobs' strings
(a job is a state and its string table), with one row per distinct
linear combination and each matrix entry mapped to a row, so row values
are const + matrix @ expectations.  A recipe is frozen; per grouping mode
its groups, their distributions and tables, and a sparse pair-weight
matrix W (rows x the groups' m^2 covariance slots) are computed on first
use and kept on it.  The distributions and tables sit in one stack per
shape (m strings, 2^n outcomes), cut into blocks of bounded size.  A seed draws each group's
outcome counts c once, in its own stream, into its block's count rows;
then per block the integer sums h = V c and G = V diag(c) V^T are one
stacked product each, O(m^2 2^n) per group and exact in float64 below the
shot cap SHOT_LIMIT = 2^53, and the means and covariances are scattered
in one assignment each.  Row means and variances are then one sparse
product each, the variances W @ (covariances from h and G) at nnz(W).

Sample streams use the Philox counter-based generator keyed by
(seed, group index), so every estimate is bit-reproducible from the
recorded plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar

import numpy as np
import scipy.sparse
from numpy import bitwise_count as _popcount

from .engine import Statevector, apply_pauli, inner
from .errors import CapacityError, ValidationError
from .geev import SubspaceProblem
from .qubits import PauliString, PauliSum, group_commuting

GENERATOR = "philox"

# Philox keys are two unsigned 64-bit words: (seed, stream index)
SEED_LIMIT = 1 << 64

# largest shot count per group: histogram sums stay exact in float64
SHOT_LIMIT = 1 << 53

# shots per group in the pilot round of a target-driven plan
_PILOT_SHOTS = 100

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_Y_TO_Z = np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex) / math.sqrt(2.0)


def _streams(seed: int):
    """stream(f) -> the generator of Philox keyed (seed, f).

    One bit generator and one `Generator` are re-keyed per stream through
    one reused state dict, with the counter reset and the buffer empty, so
    the draws equal those of a fresh `Philox(key=(seed, f))` at a fraction
    of its cost (that would also draw OS entropy).  The returned generator
    is the same object each time and is valid until the next stream.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ValidationError("seed must lie in [0, 2^64)")
    key = np.array([seed, 0], dtype=np.uint64)
    bits = np.random.Philox(key=key)
    gen = np.random.Generator(bits)
    state = {"bit_generator": "Philox", "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
             "buffer": np.zeros(4, dtype=np.uint64),
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key}}

    def stream(index: int) -> np.random.Generator:
        if not 0 <= index < SEED_LIMIT:
            raise ValidationError("stream index must lie in [0, 2^64)")
        key[1] = index
        bits.state = state
        return gen

    return stream


@dataclass(frozen=True)
class SampledEstimate:
    """Sample mean with its standard error (sample std / sqrt(shots))."""

    mean: float
    std_error: float
    shots: int


@dataclass(frozen=True)
class ShotPlan:
    """Per-group shot counts plus the seed that fixes every stream."""

    seed: int
    counts: tuple
    eps_target: float | None = None
    mode: str = "qubitwise"
    generator: ClassVar[str] = GENERATOR

    def __post_init__(self):
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValidationError("seed must lie in [0, 2^64)")
        counts = tuple(map(int, self.counts))
        if not counts or not 1 <= min(counts) <= max(counts) <= SHOT_LIMIT:
            raise ValidationError("every group needs between 1 and 2^53 shots")
        object.__setattr__(self, "counts", counts)

    @property
    def total_shots(self) -> int:
        return int(sum(self.counts))

    def to_dict(self) -> dict:
        eps = None if self.eps_target is None else float(self.eps_target)
        return {"generator": self.generator, "seed": int(self.seed),
                "counts": list(self.counts), "eps_target": eps, "mode": self.mode}


# ---------------------------------------------------------------------------
# sampling a commuting group, given by its strings' x and z mask arrays


def _eliminate(amps: np.ndarray, x: np.ndarray, z: np.ndarray):
    """Turn the X parts x of a commuting group into Z parts on the amplitudes,
    in place, and return the strings' final z masks and sign bits.  While
    some string k has an X part: CNOTs from a pivot q of it clear its other
    X letters, a Hadamard (X) or Y-to-Z gate (Y) turns q into Z, and CNOTs
    onto q clear its other Z letters, so k becomes +-Z_q.  Letters and signs
    follow the Aaronson-Gottesman tableau rules (quant-ph/0406196).  A
    string that keeps an X on q anticommutes with k: the group does not
    commute, and this test finds every such group."""
    idx, shift = np.arange(amps.size), np.arange(amps.size.bit_length() - 1, dtype=np.uint64)
    xs, zs = (((m[:, None] >> shift) & np.uint64(1)).astype(bool) for m in (x, z))
    sign = np.zeros(x.size, bool)

    def cnot(a, b):
        nonlocal sign
        sign ^= xs[:, a] & zs[:, b] & ~(xs[:, b] ^ zs[:, a])
        xs[:, b] ^= xs[:, a]
        zs[:, a] ^= zs[:, b]
        amps[:] = amps[idx ^ (((idx >> a) & 1) << b)]

    while xs.any():
        k = xs.any(axis=1).argmax()  # the first string with an X part
        q, *others = np.flatnonzero(xs[k])
        for t in others:
            cnot(q, t)
        # Y-to-Z (X -> Y -> Z -> X) where k has Y, else Hadamard (X <-> Z, Y -> -Y)
        y = zs[k, q]
        sign ^= xs[:, q] & zs[:, q] & ~y
        xs[:, q], zs[:, q] = (xs[:, q] & y) ^ zs[:, q], xs[:, q].copy()
        at, g = idx[((idx >> q) & 1) == 0], (_Y_TO_Z if y else _HADAMARD)[0, 1]
        r, h = _HADAMARD[0, 0] * amps[at], g * amps[at + (1 << q)]
        amps[at], amps[at + (1 << q)] = r + h, r - h
        for t in np.flatnonzero(zs[k]):
            if t != q:
                cnot(t, q)
        if xs[:, q].any():
            raise ValidationError("strings in one measurement group must commute")
    return (zs.astype(np.uint64) << shift).sum(axis=1, dtype=np.uint64), sign


def _group_block(amps: np.ndarray, x: np.ndarray, z: np.ndarray, px: np.ndarray,
                 start: np.ndarray, probs: list, values: list):
    """Fill in the outcome distributions probs[g] and value tables values[g]
    of commuting groups x[start[g]:start[g + 1]] on normalized amplitudes.
    A group turns the X/Y letters px on its pure qubits to Z one qubit at a
    time, by first appearance and then index (Y-to-Z gate where the letter
    is Y, else Hadamard).  Gate step s is one gather layer over the groups
    with an s-th gate, stacked longest first: a qubit's amplitude pairs
    (a0, a1) become (r a0 + g a1, r a0 - g a1), the einsum's products and
    sums.  `_eliminate` clears the X parts left; string k then reads
    (-1)^(sign_k + popcount(outcome & z_k))."""
    nq, size, sizes = amps.size.bit_length() - 1, amps.size, np.diff(start)
    bits = ((px[:, None] >> np.arange(nq, dtype=np.uint64)) & np.uint64(1)).astype(bool)
    pos = np.arange(x.size) - np.repeat(start[:-1], sizes)
    first = np.minimum.reduceat(np.where(bits, pos[:, None], x.size), start[:-1], axis=0)
    qubits = np.argsort(first * nq + np.arange(nq), axis=1)  # gate order, untouched last
    first = np.take_along_axis(first, qubits, axis=1)
    letter = z[start[:-1, None] + np.minimum(first, sizes[:, None] - 1)]  # at first appearance
    gate = np.where((letter >> qubits.astype(np.uint64)) & np.uint64(1), _Y_TO_Z[0, 1],
                    _HADAMARD[0, 1])
    count = (first < x.size).sum(axis=1)
    rank = np.argsort(-count, kind="stable")
    work, pair = np.repeat(amps[None], rank.size, axis=0), np.arange(size // 2)
    low = np.array([(pair >> q << (q + 1)) | (pair & ((1 << q) - 1)) for q in range(nq)])
    for step in range(int(count.max(initial=0))):
        rows = rank[:np.count_nonzero(count > step)]
        q, flat = qubits[rows, step], work[:rows.size].reshape(-1)
        at = low[q] + size * np.arange(rows.size)[:, None]
        partner = at + (1 << q)[:, None]
        r, h = _HADAMARD[0, 0] * flat.take(at), gate[rows, step, None] * flat.take(partner)
        flat[at], flat[partner] = r + h, r - h
    row = np.argsort(rank)
    zf, sign = z | px, np.zeros(x.size, bool)
    for g in np.flatnonzero(np.bitwise_or.reduceat(x ^ px, start[:-1])):
        lo, hi = start[g], start[g + 1]
        zf[lo:hi], sign[lo:hi] = _eliminate(work[row[g]], x[lo:hi] ^ px[lo:hi], zf[lo:hi])
    p = np.clip(np.abs(work) ** 2, 0.0, None)
    p /= p.sum(axis=1, keepdims=True)
    odd = _popcount(np.arange(size, dtype=np.uint64) & zf[:, None]) & 1
    odd ^= sign[:, None]
    v = 1 - 2 * odd.astype(np.int8)
    for g, at in enumerate(row):
        probs[g][:], values[g][:] = p[at], v[start[g]:start[g + 1]]


# group models are built in blocks of about this many amplitudes and
# value-table entries, and sampled in blocks of about this many float
# temporaries
_BLOCK = 1 << 15


def _group_models(state: Statevector, x: np.ndarray, z: np.ndarray, groups: list,
                  probs: list, values: list):
    """Write the normalized outcome distribution of each group, an index
    array into the masks x, z, into probs[g] and its (strings, outcomes)
    int8 +-1 value table into values[g], built in blocks by `_group_block`.
    A qubit is pure in a group when every member with a letter there has
    the same letter, X or Y; a qubitwise group has only pure qubits and Z
    letters.  The destinations are allocated by the caller, before the
    blocks' temporaries, since they outlive them."""
    amps = state.normalized().amplitudes
    sizes = np.array([len(m) for m in groups], dtype=np.intp)
    start, owner = np.cumsum(np.r_[0, sizes]), np.repeat(np.arange(sizes.size), sizes)
    mx, mz = (v[np.concatenate([np.zeros(0, np.intp), *groups])] for v in (x, z))
    ox, oz = (np.bitwise_or.reduceat(v, start[:-1]) for v in (mx, mz))
    # a member's letters that differ from the ones its group merges
    clash = ((mx ^ ox[owner]) | (mz ^ oz[owner])) & (mx | mz)
    px = mx & (ox & ~np.bitwise_or.reduceat(clash, start[:-1]))[owner]  # on pure qubits
    cost = np.cumsum((1 + sizes) * amps.size)
    cuts = np.r_[0, np.flatnonzero(np.diff(cost // _BLOCK)) + 1, sizes.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi > lo:
            rows = slice(start[lo], start[hi])
            _group_block(amps, mx[rows], mz[rows], px[rows], start[lo:hi + 1] - start[lo],
                         probs[lo:hi], values[lo:hi])


def _group_model(state: Statevector, x: np.ndarray, z: np.ndarray):
    """(probabilities, value table) of the one group of all strings x, z."""
    size = state.amplitudes.size
    probs, values = np.empty(size), np.empty((x.size, size), np.int8)
    _group_models(state, x, z, [np.arange(x.size)], [probs], [values])
    return probs, values


def _draw(stream, index: int, n: int, probs: np.ndarray) -> np.ndarray:
    """Outcome counts of n shots with probabilities probs, drawn in stream index."""
    return stream(index).multinomial(n, probs)


def _sums(values: np.ndarray, counts: np.ndarray):
    """h = V c and G = V diag(c) V^T of each row of a stack of value tables
    V and float outcome counts c, one stacked product each.  They are
    integers below 2^53 (SHOT_LIMIT caps the shots), exact in float64 in
    any summation order."""
    v = values.astype(float)
    h = np.matmul(v, counts[:, :, None])[:, :, 0]
    return h, np.matmul(v * counts[:, None], v.transpose(0, 2, 1))


def _moments(stream, index: list, shots: np.ndarray, probs: np.ndarray, values: np.ndarray):
    """Means h/n and unbiased single-shot covariances (G - h h^T/n)/(n - 1)
    of a stack of groups with m strings each, exactly zero for one shot.
    Row r draws its counts of n = shots[r] shots from probs[r] in stream
    index[r]; h and G are their `_sums` over the value tables values[r]."""
    counts = np.empty(probs.shape)
    for r, (f, n) in enumerate(zip(index, shots.tolist())):
        counts[r] = _draw(stream, f, n, probs[r])
    h, g = _sums(values, counts)
    n = shots.astype(float)[:, None]
    cov = (g - h[:, :, None] * h[:, None] / n[:, :, None]) / np.maximum(n - 1, 1)[:, :, None]
    return h / n, cov


def sample_group(state, group, n_shots: int, seed: int, group_index: int = 0):
    """Joint measurement of one commuting group, qubitwise or not, after its
    diagonalizing Clifford circuit (see `_group_models`).  All strings are
    read off the same n_shots samples, so the estimates are correlated
    exactly as they would be on hardware.  Accepts bare PauliStrings or
    (coefficient, PauliString) pairs; the coefficients are ignored.  A
    group that does not commute is a ValidationError.  The draw and its
    sums are the recipe sampler's on a stack of one, in stream
    (seed, group_index)."""
    if not 1 <= n_shots <= SHOT_LIMIT:
        raise ValidationError("need between one shot and 2^53 shots")
    strings = [item if isinstance(item, PauliString) else item[1] for item in group]
    if not strings:
        raise ValidationError("empty measurement group")
    if any(p.num_qubits != state.num_qubits for p in strings):
        raise ValidationError("string width does not match the register")
    x, z = np.array([(p.x, p.z) for p in strings], dtype=np.uint64).T
    probs, values = _group_model(state, x, z)
    means, cov = _moments(_streams(seed), [group_index], np.array([n_shots]), probs[None],
                          values[None])
    return tuple(SampledEstimate(float(h), math.sqrt(max(v, 0.0) / n_shots), n_shots)
                 for h, v in zip(means[0], np.diag(cov[0])))


# ---------------------------------------------------------------------------
# measurement recipes: matrix entries as linear combinations of expectations


@dataclass(frozen=True, eq=False)
class MeasurementJob:
    """One preparable state and its string table: distinct non-identity
    strings in canonical order, kept as a unit-coefficient PauliSum (see
    `qubits.string_table`) and a read-only copy of the amplitudes, so
    nothing computed from the job can go stale."""

    state: Statevector
    strings: PauliSum

    def __post_init__(self):
        s = self.strings
        if not isinstance(s, PauliSum):
            raise ValidationError("job strings must be a PauliSum")
        if s.num_qubits != self.state.num_qubits:
            raise ValidationError("string width does not match the register")
        if np.any((s.x | s.z) == 0):
            raise ValidationError("identity belongs in the constant part")
        if np.any(s.keys[1:] <= s.keys[:-1]):
            raise ValidationError("job strings must be distinct and in canonical order")
        unit = PauliSum(s.num_qubits, s.x, s.z, np.ones(len(s)), s.keys)
        object.__setattr__(self, "strings", unit)
        amps = self.state.amplitudes.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "state", Statevector(self.state.num_qubits, amps))


@dataclass(frozen=True, eq=False)
class ExpectationRecipe:
    """Measurement plan for a subspace pair (H, S).

    entries maps ("h" | "s", i, j) with i <= j to a row; the lower triangle
    is the conjugate by construction and is never measured twice.  Row r
    reads const[r] + matrix[r] @ (expectations), matrix one CSR array over
    all jobs' string tables end to end, job j's from column offsets[j].
    Entries that share their estimates share a row.  The recipe is frozen,
    `entries` a read-only mapping and the arrays read-only, so the per-mode
    sampling data compiled from them stay valid for its lifetime.
    """

    size: int
    jobs: tuple
    entries: dict
    const: np.ndarray
    matrix: scipy.sparse.csr_array
    provenance: dict = field(default_factory=dict)
    # kind -> (rows, i, j), for assembling matrices
    _layout: dict = field(default_factory=dict, init=False, repr=False)
    _offsets: np.ndarray = field(default=None, init=False, repr=False)
    # grouping mode -> _Compiled, filled on first use
    _compiled: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        if self.size < 1:
            raise ValidationError("need at least a 1x1 subspace")
        offsets = np.cumsum([0] + [len(job.strings) for job in self.jobs], dtype=np.intp)
        const, matrix = np.asarray(self.const, dtype=complex), self.matrix
        if const.ndim != 1 or matrix.shape != (const.size, offsets[-1]):
            raise ValidationError("need one const per matrix row and a column per job string")
        if matrix.nnz and not 0 <= matrix.indices.min() <= matrix.indices.max() < offsets[-1]:
            raise ValidationError("matrix references a missing string")
        for (kind, i, j), row in self.entries.items():
            if kind not in ("h", "s") or not 0 <= i <= j < self.size or not 0 <= row < const.size:
                raise ValidationError(f"bad entry {(kind, i, j)!r} -> row {row!r}")
        for value in (const, matrix.data, matrix.indices, matrix.indptr):
            value.setflags(write=False)
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "_offsets", offsets)
        for kind in ("h", "s"):
            picked = [(r, i, j) for (k, i, j), r in self.entries.items() if k == kind]
            self._layout[kind] = tuple(np.array(picked, dtype=int).reshape(-1, 3).T)


@dataclass(frozen=True)
class MeasurementGroup:
    """Indices of one commuting set within one job's string table."""

    job: int
    members: tuple


@dataclass(frozen=True, eq=False)
class _Block:
    """Rows of one per-shape stack: groups (indices into the compiled groups)
    of m strings over 2^n outcomes, their (g, m) recipe-matrix columns,
    (g, 2^n) outcome probabilities and (g, m, 2^n) int8 value tables."""

    groups: np.ndarray
    cols: np.ndarray
    probs: np.ndarray
    values: np.ndarray


@dataclass(eq=False)
class _Compiled:
    """One recipe under one grouping mode: the groups, then on first
    sampling which groups some entry reads, the blocks of their per-shape
    stacks, and W's row blocks.  Group f's covariance is row-major in
    slots[f]:slots[f + 1]."""

    groups: tuple
    read: np.ndarray | None = None
    tables: tuple | None = None
    slots: np.ndarray | None = None
    weights: tuple | None = None


def _tables(recipe: ExpectationRecipe, groups: tuple, cols: list):
    """(read, blocks): whether some entry reads each group, and the groups
    read as one stack per shape (m, 2^n), allocated block by block, so no
    array is much larger than a block's temporaries.  The blocks are
    allocated first, then each job's group models are one batch written
    into them."""
    hit = np.bincount(recipe.matrix.indices, minlength=recipe.matrix.shape[1]) > 0
    read = np.array([hit[c].any() for c in cols], dtype=bool)
    shapes = {}
    for f in np.flatnonzero(read).tolist():
        size = recipe.jobs[groups[f].job].state.amplitudes.size
        shapes.setdefault((cols[f].size, size), []).append(f)
    blocks, probs, values = [], [None] * len(groups), [None] * len(groups)
    for (m, size), picked in shapes.items():
        # sampling a block keeps its counts and two float copies of its
        # value tables, about _BLOCK entries in all
        step = max(1, _BLOCK // ((1 + 2 * m) * size))
        for lo in range(0, len(picked), step):
            rows = picked[lo:lo + step]
            block = _Block(np.array(rows, dtype=np.intp), np.array([cols[f] for f in rows]),
                           np.empty((len(rows), size)), np.empty((len(rows), m, size), np.int8))
            for f, p, v in zip(rows, block.probs, block.values):
                probs[f], values[f] = p, v
            blocks.append(block)
    for j, job in enumerate(recipe.jobs):
        picked = [f for f, g in enumerate(groups) if g.job == j and read[f]]
        _group_models(job.state, job.strings.x, job.strings.z,
                      [cols[f] - recipe._offsets[j] for f in picked],
                      [probs[f] for f in picked], [values[f] for f in picked])
    return read, tuple(blocks)


def _compile(recipe: ExpectationRecipe, mode: str, sampling: bool = True) -> _Compiled:
    compiled = recipe._compiled.get(mode)
    if compiled is None:
        groups = tuple(MeasurementGroup(j, tuple(sorted(members)))
                       for j, job in enumerate(recipe.jobs)
                       for members in group_commuting(job.strings, mode).groups)
        compiled = recipe._compiled[mode] = _Compiled(groups)
    if sampling and compiled.tables is None:
        cols = [recipe._offsets[g.job] + np.array(g.members, dtype=np.intp)
                for g in compiled.groups]
        read, tables = _tables(recipe, compiled.groups, cols)
        compiled.slots = np.cumsum([0] + [c.size**2 for c in cols], dtype=np.int64)
        compiled.weights = _pair_weights(recipe.matrix, cols, compiled.slots)
        compiled.read, compiled.tables = read, tables
    return compiled


def measurement_groups(recipe: ExpectationRecipe, mode: str = "qubitwise"):
    """Deterministic partition of every job's strings into commuting groups."""
    return _compile(recipe, mode, sampling=False).groups


# W is built and kept in row blocks of about this many recipe-matrix
# nonzeros, so it is never one large allocation
_CHUNK = 1 << 12


def _pair_weights(matrix: scipy.sparse.csr_array, cols: list, slots: np.ndarray) -> tuple:
    """Row blocks of W: W[d, slots[f] + i m_f + j] = Re(conj a_di a_dj),
    doubled for i < j, over the pairs i <= j of group f's members (columns
    cols[f]) that row d of the matrix reads, so W @ (flattened group
    covariances) is the rows' variance.  A column repeated in a row adds
    its terms to the same slots, as its coefficients add in the product."""
    sizes = np.array([c.size for c in cols], dtype=np.int64)
    group = np.repeat(np.arange(sizes.size), sizes)
    pos = np.arange(group.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    base = slots[group] + pos * sizes[group]  # slot of the pair (pos, 0)
    rank = np.empty(group.size, np.int64)  # column -> place in group order
    rank[np.concatenate([np.zeros(0, np.intp), *cols])] = np.arange(group.size)
    itype = np.int32 if slots[-1] < 1 << 31 else np.int64
    indptr, blocks, lo = matrix.indptr, [], 0
    while lo < matrix.shape[0]:
        hi = max(lo + 1, int(np.searchsorted(indptr, indptr[lo] + _CHUNK, "right")) - 1)
        nz = slice(indptr[lo], indptr[hi])
        row = np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1]))
        r = rank[matrix.indices[nz]]
        at = np.argsort(row * group.size + r)
        row, r, a = row[at], r[at], matrix.data[nz][at]
        # each nonzero pairs with itself and the later ones of its (row, group) run
        start = np.flatnonzero(np.diff(row * sizes.size + group[r], prepend=-1))
        count = np.repeat(np.r_[start[1:], r.size], np.diff(np.r_[start, r.size]))
        count -= np.arange(r.size)
        first = np.cumsum(count) - count  # where each nonzero's pairs begin
        p = np.repeat(np.arange(r.size), count)
        q = np.arange(p.size) - np.repeat(first - np.arange(r.size), count)
        data = 2.0 * (a.conj()[p] * a[q]).real
        data[first] *= 0.5  # the pair i = j counts once
        slot = (base[r][p] + pos[r][q]).astype(itype)
        rows = np.r_[first, p.size][indptr[lo:hi + 1] - indptr[lo]]
        blocks.append(scipy.sparse.csr_array((data, slot, rows), shape=(hi - lo, int(slots[-1]))))
        lo = hi
    return tuple(blocks)


def _sample(recipe: ExpectationRecipe, compiled: _Compiled, counts, seed: int, first: int = 0,
            of_means: bool = False):
    """String means in recipe column order and the flat single-shot
    covariances of the groups that rows read, or with of_means those
    of their means (divided by the shots), group f from counts[f] shots
    drawn in stream (seed, first + f), one block at a time."""
    stream, slots = _streams(seed), compiled.slots
    means, cov = np.zeros(recipe.matrix.shape[1]), np.zeros(int(slots[-1]))
    for block in compiled.tables:
        groups = block.groups.tolist()
        n = np.array([counts[f] for f in groups])
        mean, c = _moments(stream, [first + f for f in groups], n, block.probs, block.values)
        if of_means:
            c /= n[:, None, None]
        means[block.cols] = mean
        cov[slots[block.groups, None] + np.arange(c[0].size)] = c.reshape(len(c), -1)
        del mean, c  # not kept while the next block is sampled
    return means, cov


def _assemble(recipe: ExpectationRecipe, values, stds=None):
    """The pair from row values and stds.  An off-diagonal estimate of std
    s fills (i, j) and, conjugated, (j, i); it equals two independent raw
    entries of std s sqrt(2), which SubspaceProblem combines back to s."""
    n, mats = recipe.size, {}
    for kind, (r, i, j) in recipe._layout.items():
        mat, std = np.zeros((n, n), dtype=complex), np.zeros((n, n))
        mat[i, j], mat[j, i] = values[r], np.conj(values[r])
        if stds is not None:
            std[i, j] = std[j, i] = stds[r] * np.where(i == j, 1.0, math.sqrt(2.0))
        mats[kind], mats[kind + "mat_std"] = mat, std
    noise = {} if stds is None else {k: mats[k] for k in ("hmat_std", "smat_std")}
    return SubspaceProblem(mats["h"], mats["s"], dict(recipe.provenance), **noise)


def exact_subspace(recipe: ExpectationRecipe) -> SubspaceProblem:
    """Infinite-shot limit: every expectation evaluated on the statevector."""
    exact = [inner(job.state, apply_pauli(p, job.state))
             for job in recipe.jobs for p in job.strings.strings]
    return _assemble(recipe, recipe.const + recipe.matrix @ np.array(exact, dtype=complex))


def _pilot(recipe: ExpectationRecipe, compiled: _Compiled, seed: int):
    """(lo, d, f, v) per row block of W from row lo, over the (d, f) it reads:
    v is W summed over f's slots against f's pilot covariance, clipped."""
    count = len(compiled.groups)
    _, cov = _sample(recipe, compiled, (_PILOT_SHOTS,) * count, seed, first=count)
    group_of_slot, lo = np.repeat(np.arange(count), np.diff(compiled.slots)), 0
    for block in compiled.weights:
        d = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
        f = group_of_slot[block.indices]
        # slots ascend along a row, so each (d, f) is one run of nonzeros
        start = np.flatnonzero(np.diff(d * count + f, prepend=-1))
        v = np.add.reduceat(block.data * cov[block.indices], start)
        yield lo, d[start], f[start], np.maximum(v, 0.0)
        lo += block.shape[0]


def pilot_variances(recipe: ExpectationRecipe, groups, seed: int) -> np.ndarray:
    """Single-shot variance of each row's contribution from each group,
    estimated from _PILOT_SHOTS shots per group.  groups must be
    `measurement_groups(recipe, mode)` for some mode.  Pilot streams are
    keyed (seed, len(groups) + f), apart from the production streams."""
    groups = tuple(groups)
    mode = next((m for m, c in recipe._compiled.items() if c.groups == groups), None)
    if mode is None:
        raise ValidationError("groups must come from measurement_groups on this recipe")
    out = np.zeros((recipe.matrix.shape[0], len(groups)))
    for lo, d, f, v in _pilot(recipe, _compile(recipe, mode), seed):
        out[lo + d, f] = v
    return out


def plan_from_target(recipe: ExpectationRecipe, eps_target: float, seed: int,
                     mode: str = "qubitwise") -> ShotPlan:
    """Pilot round plus allocation in one step: every group that some row
    reads gets the uniform count M = ceil(max_d sum_f Var[A_d^(f)] / eps^2),
    from the pilot's single-shot variances, also when its pilot saw no
    variance: a finite pilot can miss a rare outcome, and a single shot
    would leave that group's error out of every entry std.  Groups that no
    row reads keep one shot.  An M above SHOT_LIMIT is a CapacityError."""
    if not eps_target > 0.0:
        raise ValidationError("eps_target must be positive")
    compiled = _compile(recipe, mode)
    # max_d sum_f, row block by row block, without the dense (d, f) table
    total = max((float(np.bincount(d, v).max(initial=0.0))
                 for _, d, _, v in _pilot(recipe, compiled, seed)), default=0.0)
    # compared before dividing, since eps^2 may underflow to zero
    if total > SHOT_LIMIT * eps_target**2:
        raise CapacityError(f"eps_target {eps_target:g} needs more than 2^53 shots per group")
    m = max(1, math.ceil(total / eps_target**2)) if total > 0.0 else 1
    counts = tuple(np.where(compiled.read, m, 1).tolist())
    return ShotPlan(seed, counts, eps_target=eps_target, mode=mode)


def noisy_subspace(recipe: ExpectationRecipe, plan: ShotPlan) -> SubspaceProblem:
    """Sample every row of the recipe per the plan and tag entrywise stds:
    values const + matrix @ (string means), variances W @ (covariances /
    n_f).  Hermiticity holds by construction (conjugate pairs share
    estimates), and each entry's std is its row's."""
    compiled = _compile(recipe, plan.mode)
    if len(compiled.groups) != len(plan.counts):
        raise ValidationError(
            f"plan has {len(plan.counts)} counts for {len(compiled.groups)} groups")
    means, cov = _sample(recipe, compiled, plan.counts, plan.seed, of_means=True)
    values = recipe.const + recipe.matrix @ means
    var = np.concatenate([np.zeros(0), *(block @ cov for block in compiled.weights)])
    prob = _assemble(recipe, values, np.sqrt(np.maximum(var, 0.0)))
    prob.provenance["shots"] = plan.to_dict()
    return prob


def operator_recipe(state: Statevector, h, provenance: dict | None = None):
    """1x1 recipe for a single operator expectation (S is the constant 1)."""
    const, plain = h.split_identity()
    job = MeasurementJob(state.normalized(), plain)
    matrix = scipy.sparse.csr_array(np.vstack([plain.coeffs, np.zeros(len(plain))]))  # H, S rows
    return ExpectationRecipe(1, (job,), {("h", 0, 0): 0, ("s", 0, 0): 1}, [const, 1.0], matrix,
                             provenance or {"method": "operator"})
