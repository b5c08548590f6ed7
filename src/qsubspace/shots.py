"""Finite-sampling measurement model.

Expectation values are estimated by drawing computational-basis samples
after the diagonalizing rotation implied by a commuting group.  A group is
read only as the x and z mask arrays of its strings: qubitwise groups need
single-qubit basis changes and read parities off the masks, fully
commuting groups are sampled in their densely computed joint eigenbasis.
On top of the estimators the module sets shot counts against a precision
target and assembles noise-tagged subspace problems from measurement
recipes emitted by the subspace builders.

Each entry of a recipe reads one job, a state and its string table.  The
entries compile once into a const vector and one sparse matrix over all
jobs' strings, so entry values are const + matrix @ expectations.  A
recipe is frozen.  Everything about it that does not depend on the seed
(the grouping, each group's entry coefficients, its outcome probabilities
and its +-1 value table) is computed once per grouping mode, the first
time it is needed, and kept on the recipe, so it is freed with the recipe.
A seeded estimate then costs one multinomial draw and a few small matrix
products per group; `sample_group` runs the same sampler on one group.  A
target-driven plan gives the same count to every group that some matrix
entry reads.

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
from .errors import CapacityError, DataError, ValidationError
from .geev import SubspaceProblem
from .qubits import PauliString, PauliSum, group_commuting

GENERATOR = "philox"

# Philox keys are two unsigned 64-bit words: (seed, stream index)
SEED_LIMIT = 1 << 64

# shots per group in the pilot round of a target-driven plan
_PILOT_SHOTS = 100

# dense joint-eigenbasis cap; beyond this the diagonalization would need
# the Clifford machinery this package deliberately avoids
_FULL_GROUP_QUBIT_CAP = 12

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_Y_TO_Z = np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex) / math.sqrt(2.0)


def _streams(seed: int):
    """stream(f) -> the generator of Philox keyed (seed, f).

    One bit generator is re-keyed per stream, with its counter reset and
    its buffer empty, so the draws equal those of a fresh
    `Philox(key=(seed, f))`; building that would also draw OS entropy the
    key then overrides, at four times the cost.  A returned generator is
    valid until the next stream is taken.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ValidationError("seed must lie in [0, 2^64)")
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))

    def stream(index: int) -> np.random.Generator:
        if not 0 <= index < SEED_LIMIT:
            raise ValidationError("stream index must lie in [0, 2^64)")
        bits.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([seed, index], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return np.random.Generator(bits)

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
        counts = tuple(int(c) for c in self.counts)
        if not counts or any(c < 1 for c in counts):
            raise ValidationError("every group needs at least one shot")
        object.__setattr__(self, "counts", counts)

    @property
    def total_shots(self) -> int:
        return int(sum(self.counts))

    def to_dict(self) -> dict:
        return {
            "generator": self.generator,
            "seed": int(self.seed),
            "counts": list(self.counts),
            "eps_target": None if self.eps_target is None else float(self.eps_target),
            "mode": self.mode,
        }


# ---------------------------------------------------------------------------
# sampling a commuting group, given by its strings' x and z mask arrays


def _apply_one_qubit(amps: np.ndarray, gate: np.ndarray, qubit: int, nq: int):
    t = amps.reshape(1 << (nq - 1 - qubit), 2, 1 << qubit)
    return np.einsum("ab,ibj->iaj", gate, t).reshape(amps.size)


def _qubitwise_model(state: Statevector, x: np.ndarray, z: np.ndarray):
    """Rotate X/Y letters onto Z one qubit at a time, qubits in order of
    first appearance in the group and then by index, and read every
    string's parity (-1)^popcount(outcome & (x | z))."""
    nq = state.num_qubits
    touched = (x[:, None] >> np.arange(nq, dtype=np.uint64)) & np.uint64(1)
    first = touched.argmax(axis=0)
    qubits = np.flatnonzero(touched.any(axis=0))
    amps = state.normalized().amplitudes
    for q in qubits[np.argsort(first[qubits], kind="stable")].tolist():
        gate = _Y_TO_Z if int(z[first[q]]) >> q & 1 else _HADAMARD
        amps = _apply_one_qubit(amps, gate, q, nq)
    odd = _popcount(np.arange(amps.size, dtype=np.uint64) & (x | z)[:, None]) & 1
    return np.abs(amps) ** 2, 1 - 2 * odd.astype(np.int8)


def _full_commuting_model(state: Statevector, x: np.ndarray, z: np.ndarray):
    """Sample in the simultaneous eigenbasis of the group's strings.

    The basis is refined one string at a time, from that string's dense
    matrix (built once, by `PauliSum.to_dense`); the +-1 spectrum of a
    Pauli string makes the block split unambiguous.  Each string's value
    on a basis vector is read off <u|P|u>, with P applied as the signed
    permutation P|r> = i^|x&z| (-1)^popcount(r & z) |r ^ x>.
    """
    nq = state.num_qubits
    if nq > _FULL_GROUP_QUBIT_CAP:
        raise CapacityError(
            f"joint eigenbasis of a fully commuting group is dense; "
            f"capped at {_FULL_GROUP_QUBIT_CAP} qubits, got {nq}"
        )
    dim = 1 << nq
    basis = np.eye(dim, dtype=complex)
    blocks = [np.arange(dim)]
    for k in range(x.size):
        mat = PauliSum(nq, x[k:k + 1], z[k:k + 1], np.ones(1)).to_dense()
        refined = []
        for idx in blocks:
            if idx.size == 1:
                refined.append(idx)
                continue
            sub = basis[:, idx]
            w, vec = np.linalg.eigh(sub.conj().T @ mat @ sub)
            basis[:, idx] = sub @ vec
            refined.extend(part for part in (idx[w < 0.0], idx[w >= 0.0]) if part.size)
        blocks = refined
    amps = basis.conj().T @ state.normalized().amplitudes
    outcomes = np.arange(dim, dtype=np.uint64)
    values = np.empty((x.size, dim), dtype=np.int8)
    for k, (xk, zk) in enumerate(zip(x, z)):
        src = outcomes ^ xk
        factor = 1j ** int(_popcount(xk & zk)) * (1.0 - 2.0 * (_popcount(src & zk) & 1))
        diag = np.einsum("ij,ij->j", basis.conj(), factor[:, None] * basis[src])
        if np.max(np.abs(np.abs(diag) - 1.0)) > 1e-8:
            raise DataError("group strings are not diagonal in the joint basis")
        values[k] = np.where(diag.real > 0.0, 1, -1)
    return np.abs(amps) ** 2, values


def _group_model(state: Statevector, x: np.ndarray, z: np.ndarray):
    """Outcome distribution and the (strings, outcomes) int8 +-1 value
    table of the group with masks x, z: qubitwise when every pair of
    letters agrees or meets an identity, else fully commuting when every
    pair anticommutes on an even number of qubits."""
    xa, za = x[:, None], z[:, None]
    if not ((xa & z) ^ (za & x)).any():
        return _qubitwise_model(state, x, z)
    if not ((_popcount(xa & z) + _popcount(za & x)) & 1).any():
        return _full_commuting_model(state, x, z)
    raise ValidationError("strings in one measurement group must commute")


@dataclass(frozen=True, eq=False)
class _GroupTable:
    """Seed-independent sampling data of one group that entries read."""

    rows: np.ndarray  # indices of the entries that read the group
    cmat: np.ndarray  # (rows, members) complex coefficients
    probs: np.ndarray  # normalized outcome probabilities
    values: np.ndarray  # (members, outcomes) int8 +-1 value table


def _group_table(state: Statevector, x, z, rows, cmat) -> _GroupTable:
    probs, values = _group_model(state, x, z)
    p = np.clip(probs, 0.0, None)
    return _GroupTable(rows, cmat, p / p.sum(), values)


def _sample_moments(table: _GroupTable, n: int, rng: np.random.Generator):
    """Mean of each read entry's contribution over n shots, and its
    single-shot variance (zero for a single shot)."""
    counts = rng.multinomial(n, table.probs)
    per_shot = table.cmat @ table.values.astype(complex)  # (rows, outcomes)
    mean = per_shot @ counts / n
    if n == 1:
        return mean, np.zeros(mean.size)
    second = (np.abs(per_shot) ** 2) @ counts / n
    var1 = (second - np.abs(mean) ** 2) * n / (n - 1)
    return mean, np.maximum(var1.real, 0.0)


def sample_group(state, group, n_shots: int, seed: int, group_index: int = 0):
    """Joint measurement of one commuting group.

    All strings are read off the same n_shots samples, so the returned
    estimates are correlated exactly as they would be on hardware.
    Accepts bare PauliStrings or (coefficient, PauliString) pairs; the
    coefficients are ignored.  The estimates are those of the recipe
    sampler on one group whose entries are its strings, in stream
    (seed, group_index).
    """
    if n_shots < 1:
        raise ValidationError("need at least one shot")
    strings = [item if isinstance(item, PauliString) else item[1] for item in group]
    if not strings:
        raise ValidationError("empty measurement group")
    if any(p.num_qubits != state.num_qubits for p in strings):
        raise ValidationError("string width does not match the register")
    x, z = np.array([(p.x, p.z) for p in strings], dtype=np.uint64).T
    eye = np.eye(len(strings), dtype=complex)
    table = _group_table(state, x, z, np.arange(len(strings)), eye)
    mean, var1 = _sample_moments(table, n_shots, _streams(seed)(group_index))
    return tuple(SampledEstimate(float(m.real), math.sqrt(v / n_shots), n_shots)
                 for m, v in zip(mean, var1))


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
class EntryPlan:
    """const + sum of coeffs[n] * <string indices[n] of job> for one matrix
    entry; kept as read-only copies of the two arrays."""

    const: complex
    job: int = 0
    indices: np.ndarray = ()
    coeffs: np.ndarray = ()

    def __post_init__(self):
        indices = np.array(self.indices, dtype=np.intp)
        coeffs = np.array(self.coeffs, dtype=complex)
        if indices.ndim != 1 or indices.shape != coeffs.shape:
            raise ValidationError("an entry needs one coefficient per string index")
        for name, value in (("indices", indices), ("coeffs", coeffs)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class ExpectationRecipe:
    """Measurement plan for a subspace pair (H, S).

    entries maps ("h" | "s", i, j) with i <= j to an EntryPlan; the lower
    triangle is the conjugate by construction and is never measured twice.
    The entries compile into a const vector and one CSR matrix of shape
    (entries, all jobs' strings), whose columns are the jobs' string tables
    end to end, job j's from column offsets[j].  The recipe is frozen and
    `entries` is a read-only mapping, so these and the per-mode sampling
    data compiled from them stay valid for its lifetime.
    """

    size: int
    jobs: tuple
    entries: dict
    provenance: dict = field(default_factory=dict)
    # kind -> (entry positions, rows, columns), for assembling matrices
    _layout: dict = field(default_factory=dict, init=False, repr=False)
    _offsets: np.ndarray = field(default=None, init=False, repr=False)
    _const: np.ndarray = field(default=None, init=False, repr=False)
    _matrix: scipy.sparse.csr_array = field(default=None, init=False, repr=False)
    # grouping mode -> _Compiled, filled on first use
    _compiled: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        if self.size < 1:
            raise ValidationError("need at least a 1x1 subspace")
        for kind, i, j in self.entries:
            if kind not in ("h", "s") or not 0 <= i <= j < self.size:
                raise ValidationError(f"bad entry key {(kind, i, j)!r}")
        plans = self.entries.values()
        offsets = np.cumsum([0] + [len(job.strings) for job in self.jobs], dtype=np.intp)
        counts = np.array([p.indices.size for p in plans], dtype=np.intp)
        jobs = np.repeat(np.array([p.job for p in plans], dtype=np.intp), counts)
        ks = np.concatenate([np.zeros(0, np.intp), *(p.indices for p in plans)])
        if np.any((jobs < 0) | (jobs >= len(self.jobs))):
            raise ValidationError("entry references a missing job")
        if np.any((ks < 0) | (ks >= np.diff(offsets)[jobs])):
            raise ValidationError("entry references a missing string")
        data = np.concatenate([np.zeros(0, complex), *(p.coeffs for p in plans)])
        const = np.array([p.const for p in plans], dtype=complex)
        matrix = scipy.sparse.csr_array((data, offsets[jobs] + ks, np.cumsum([0, *counts])),
                                        shape=(counts.size, offsets[-1]))
        for name, value in (("_offsets", offsets), ("_const", const), ("_matrix", matrix)):
            object.__setattr__(self, name, value)
        for kind in ("h", "s"):
            picked = [(d, i, j) for d, (k, i, j) in enumerate(self.entries) if k == kind]
            self._layout[kind] = tuple(np.array(picked, dtype=int).reshape(-1, 3).T)


@dataclass(frozen=True)
class MeasurementGroup:
    """Indices of one commuting set within one job's string table."""

    job: int
    members: tuple


@dataclass(eq=False)
class _Compiled:
    """One recipe under one grouping mode: the groups, then on first
    sampling one _GroupTable per group (None where no entry reads it)."""

    groups: tuple
    tables: tuple | None = None


def _partition(recipe: ExpectationRecipe, mode: str) -> tuple:
    return tuple(
        MeasurementGroup(j, tuple(sorted(members)))
        for j, job in enumerate(recipe.jobs)
        for members in group_commuting(job.strings, mode).groups
    )


def _compile(recipe: ExpectationRecipe, mode: str) -> _Compiled:
    compiled = recipe._compiled.get(mode)
    if compiled is None:
        compiled = recipe._compiled[mode] = _Compiled(_partition(recipe, mode))
    return compiled


def measurement_groups(recipe: ExpectationRecipe, mode: str = "qubitwise"):
    """Deterministic partition of every job's strings into commuting groups."""
    return _compile(recipe, mode).groups


def _entry_blocks(recipe: ExpectationRecipe, groups):
    """Per group: rows of the entries that read it and their coefficient
    matrix, scattered from its columns of the recipe matrix with the
    columns permuted into group order."""
    perm = [recipe._offsets[g.job] + np.array(g.members, dtype=np.intp) for g in groups]
    cols = recipe._matrix[:, np.concatenate([np.zeros(0, np.intp), *perm])].tocsc()
    blocks, start = [], 0
    for g in groups:
        stop = start + len(g.members)
        span = slice(cols.indptr[start], cols.indptr[stop])
        rows, at = np.unique(cols.indices[span], return_inverse=True)
        members = np.repeat(np.arange(len(g.members)), np.diff(cols.indptr[start:stop + 1]))
        cmat = np.zeros((rows.size, len(g.members)), dtype=complex)
        np.add.at(cmat, (at, members), cols.data[span])
        blocks.append((rows.astype(np.intp), cmat))
        start = stop
    return blocks


def _group_tables(recipe: ExpectationRecipe, mode: str) -> tuple:
    compiled = _compile(recipe, mode)
    if compiled.tables is None:
        tables = []
        for g, (rows, cmat) in zip(compiled.groups, _entry_blocks(recipe, compiled.groups)):
            job, m = recipe.jobs[g.job], list(g.members)
            x, z = job.strings.x[m], job.strings.z[m]
            tables.append(_group_table(job.state, x, z, rows, cmat) if rows.size else None)
        compiled.tables = tuple(tables)
    return compiled.tables


def _assemble(recipe: ExpectationRecipe, values, stds=None):
    n = recipe.size
    mats, smats = {}, {}
    for kind, (d, i, j) in recipe._layout.items():
        mats[kind] = np.zeros((n, n), dtype=complex)
        mats[kind][i, j] = values[d]
        mats[kind][j, i] = np.conj(values[d])
        smats[kind] = np.zeros((n, n))
        if stds is not None:
            smats[kind][i, j] = smats[kind][j, i] = stds[d]
    if stds is None:
        return SubspaceProblem(mats["h"], mats["s"], dict(recipe.provenance))
    return SubspaceProblem(
        mats["h"],
        mats["s"],
        dict(recipe.provenance),
        hmat_std=smats["h"],
        smat_std=smats["s"],
    )


def exact_subspace(recipe: ExpectationRecipe) -> SubspaceProblem:
    """Infinite-shot limit: every expectation evaluated on the statevector."""
    exact = [inner(job.state, apply_pauli(p, job.state))
             for job in recipe.jobs for p in job.strings.strings]
    return _assemble(recipe, recipe._const + recipe._matrix @ np.array(exact, dtype=complex))


def pilot_variances(recipe: ExpectationRecipe, groups, seed: int) -> np.ndarray:
    """Single-shot variance of each entry's contribution from each group,
    estimated from _PILOT_SHOTS shots per group.

    groups must be `measurement_groups(recipe, mode)` for some mode.  Pilot
    streams are keyed (seed, len(groups) + f) so they never collide with
    the production streams of the same seed.
    """
    groups = tuple(groups)
    mode = next((m for m, c in recipe._compiled.items() if c.groups == groups), None)
    if mode is None:
        raise ValidationError("groups must come from measurement_groups on this recipe")
    stream = _streams(seed)
    out = np.zeros((len(recipe.entries), len(groups)))
    for f, table in enumerate(_group_tables(recipe, mode)):
        if table is not None:
            _, var1 = _sample_moments(table, _PILOT_SHOTS, stream(len(groups) + f))
            out[table.rows, f] = var1
    return out


def plan_from_target(
    recipe: ExpectationRecipe,
    eps_target: float,
    seed: int,
    mode: str = "qubitwise",
) -> ShotPlan:
    """Pilot round plus allocation in one step.

    Every group that some entry reads gets the uniform count
    M = ceil(max_d sum_f Var[A_d^(f)] / eps^2), from the pilot's
    single-shot variances, also when its pilot saw no variance: a finite
    pilot can miss a rare outcome, and a single shot would leave that
    group's error out of every entry std.  Groups that no entry reads keep
    one shot.
    """
    if not eps_target > 0.0:
        raise ValidationError("eps_target must be positive")
    groups = measurement_groups(recipe, mode)
    v = pilot_variances(recipe, groups, seed)
    m = max(1, math.ceil(float(v.sum(axis=1).max()) / eps_target**2))
    counts = tuple(1 if t is None else m for t in _group_tables(recipe, mode))
    return ShotPlan(seed, counts, eps_target=eps_target, mode=mode)


def noisy_subspace(recipe: ExpectationRecipe, plan: ShotPlan) -> SubspaceProblem:
    """Sample every entry of the pair per the plan and tag entrywise stds.

    Hermiticity holds by construction (conjugate pairs share estimates);
    the SubspaceProblem constructor applies the documented quadrature
    combination on the mirrored stds.
    """
    tables = _group_tables(recipe, plan.mode)
    if len(tables) != len(plan.counts):
        raise ValidationError(
            f"plan has {len(plan.counts)} counts for {len(tables)} groups"
        )
    stream = _streams(plan.seed)
    values = recipe._const.copy()
    var_mean = np.zeros(len(recipe.entries))
    for f, table in enumerate(tables):
        if table is None:
            continue
        n = plan.counts[f]
        mean, var1 = _sample_moments(table, n, stream(f))
        values[table.rows] += mean
        var_mean[table.rows] += var1 / n
    prob = _assemble(recipe, values, np.sqrt(var_mean))
    prob.provenance["shots"] = plan.to_dict()
    return prob


def operator_recipe(state: Statevector, h, provenance: dict | None = None):
    """1x1 recipe for a single operator expectation (S is the constant 1)."""
    const, plain = h.split_identity()
    job = MeasurementJob(state.normalized(), plain)
    entries = {
        ("h", 0, 0): EntryPlan(const, 0, np.arange(len(plain)), plain.coeffs),
        ("s", 0, 0): EntryPlan(1.0 + 0.0j),
    }
    return ExpectationRecipe(1, (job,), entries, provenance or {"method": "operator"})


# ---------------------------------------------------------------------------
# ancilla-free overlap reconstruction


@dataclass(frozen=True)
class OverlapCosine:
    """Relative phase recovered from three ancilla-free magnitudes."""

    value: float
    raw: float
    consistent: bool
    theta0: float


def hadamard_free_overlap(
    f0: float, f1: float, f2: float, theta0: float = 0.0, tol: float = 1e-6
) -> OverlapCosine:
    """cos(theta1 - theta0) from 4 f2 = f1 + f0 + 2 sqrt(f0 f1) cos(...).

    f0 and f1 are the squared magnitudes of the reference and target
    matrix elements, f2 the squared magnitude on their equal superposition;
    the cross terms cancel by sector orthogonality.  Out-of-range results
    beyond tol are flagged and clamped.
    """
    if f0 < 0.0 or f1 < 0.0 or f2 < 0.0:
        raise ValidationError("squared magnitudes must be nonnegative")
    if f0 * f1 == 0.0:
        raise DataError("relative phase is indeterminate when f0 * f1 = 0")
    raw = (4.0 * f2 - f1 - f0) / (2.0 * math.sqrt(f0 * f1))
    consistent = abs(raw) <= 1.0 + tol
    return OverlapCosine(float(np.clip(raw, -1.0, 1.0)), raw, consistent, theta0)
