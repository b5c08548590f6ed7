"""Measurement-driven subspace builders.

Each builder prepares a family of states (operator pools applied to a
reference, real- or imaginary-time snapshots, filtered power bases),
evaluates overlap and Hamiltonian matrix elements exactly, and packages
them as a SubspaceProblem for the thresholded eigensolver. Derived
quantities (excitation energies, convergence bounds, response spectra,
fast-forwarded states) reuse the same machinery.

Exact matrix elements are evaluated in the particle-number sector basis:
pool operators act as ladder monomials on determinant words
(fock.apply_ladders) and H as the cached sparse sector matrix, so qse_build
and qeom_build never apply anything on the 2^(2m) register. qeom_build takes
its reference as a sector FockVector; qse_build and qse_recipe take a
Statevector and project it back to the sector, leak-checked. The exact
real-time, imaginary-time and Gaussian-power subspaces span filtered states
f_a(H) v0, so they are read off v0's spectral measure (fock.spectral_measure,
capped with the dense spectrum): filter_subspace forms S and H from the
filter matrix, qlanczos_build its norms and Rayleigh quotients, and
epperly_qfd_bound its gaps and weights. The Chebyshev basis, like the power
basis, comes from classical.polynomial_moments and needs no dense spectrum.
Trotter snapshots stay in the sector too: engine.trotter_step steps the
reference sector's one block C[down, up]. Spectra take their probe as a
Hermitian sector operator, any matrix fock.matvec applies. The statevector
backend, with Jordan-Wigner images, serves only the measurement model (the
recipes the shots module samples, with the Hadamard-test ancilla of
qfd_recipe) and QITE rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .classical import polynomial_moments
from .errors import (
    CapacityError,
    DataError,
    RescalingError,
    StepError,
    ValidationError,
)
from .fock import (
    FockVector,
    apply_hamiltonian,
    apply_ladders,
    evolve_real,
    matvec,
    sector_matrix,
    spectral_measure,
)
from .geev import GEEVSolution, SubspaceProblem, real_if_exact
from .integrals import MolecularIntegrals, cholesky_decompose_eri, effective_one_body
from .integrals import cached_per_integrals
from .qubits import PauliSum, jordan_wigner, ladder_product, pauli_keys, string_table
from .qubits import _ladder_terms, pauli_products
from .engine import (
    Statevector,
    apply_pauli_sum,
    expectation,
    fock_from_statevector,
    inner,
    pauli_rows,
    statevector_from_fock,
    trotter_plan,
    trotter_step,
)
from .shots import ExpectationRecipe, MeasurementJob
# qse work cap: pool_size^2 * sector dimension for qse_build (its Gram
# matrices), the Pauli string products of the expansion for qse_recipe
_QSE_BUDGET = 50_000_000

# pool vectors with smaller norm on the reference are metric null directions
_NULL_OP = 1e-12


# ---------------------------------------------------------------------------
# excitation operators and pools


@dataclass(frozen=True)
class ExcitationOperator:
    """Number- and spin-projection-conserving ladder monomial.

    kind "identity" carries no indices. kind "single" is adag_{a s} a_{i s}
    with orbitals=(a, i), spins=(s,). kind "double" is
    adag_{a s} adag_{b t} a_{j t} a_{i s} with orbitals=(a, b, i, j),
    spins=(s, t). Spin 0 is up, 1 is down. Same-spin doubles are canonical
    with a < b and i < j; opposite-spin doubles fix (s, t) = (0, 1).
    """

    num_orbitals: int
    kind: str
    orbitals: tuple = ()
    spins: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "orbitals", tuple(int(x) for x in self.orbitals))
        object.__setattr__(self, "spins", tuple(int(s) for s in self.spins))
        if self.num_orbitals < 1:
            raise ValidationError("need at least one orbital")
        shapes = {"identity": (0, 0), "single": (2, 1), "double": (4, 2)}
        if self.kind not in shapes:
            raise ValidationError(f"unknown excitation kind {self.kind!r}")
        if (len(self.orbitals), len(self.spins)) != shapes[self.kind]:
            raise ValidationError(f"index counts do not match kind {self.kind!r}")
        if any(not 0 <= x < self.num_orbitals for x in self.orbitals):
            raise ValidationError("orbital index outside register")
        if any(s not in (0, 1) for s in self.spins):
            raise ValidationError("spin must be 0 (up) or 1 (down)")
        if self.kind == "double":
            a, b, i, j = self.orbitals
            s, t = self.spins
            if s == t and not (a < b and i < j):
                raise ValidationError("same-spin double needs a < b and i < j")
            if s != t and (s, t) != (0, 1):
                raise ValidationError("opposite-spin double fixes spins (0, 1)")

    @property
    def ladders(self) -> tuple:
        """(mode, create) factors in product order; up modes are 0..m-1 and
        down modes m..2m-1."""
        m = self.num_orbitals
        if self.kind == "identity":
            return ()
        if self.kind == "single":
            a, i = self.orbitals
            (s,) = self.spins
            return ((a + s * m, True), (i + s * m, False))
        a, b, i, j = self.orbitals
        s, t = self.spins
        return ((a + s * m, True), (b + t * m, True), (j + t * m, False), (i + s * m, False))

    def to_pauli(self) -> PauliSum:
        """Qubit image on 2m qubits: the product of the ladders' images."""
        return ladder_product(2 * self.num_orbitals, self.ladders)


def _pool_images(pool, sector: tuple, amplitudes: np.ndarray, adjoint: bool = False):
    """Each pool monomial (or its adjoint: reversed, every create flipped)
    applied to sector amplitudes, in pool order: one apply_ladders call per
    ladder pattern."""
    patterns = {}
    for at, op in enumerate(pool):
        ladders = [(mode, not make) for mode, make in op.ladders[::-1]] if adjoint else op.ladders
        create = tuple(make for _, make in ladders)
        patterns.setdefault(create, []).append((at, [mode for mode, _ in ladders]))
    out = np.empty((len(pool), *np.shape(amplitudes)), dtype=np.result_type(amplitudes, float))
    for create, rows in patterns.items():
        at, modes = zip(*rows)
        out[list(at)] = apply_ladders(modes, create, sector, amplitudes)[1]
    return out


def single_excitations(num_orbitals: int, include_diagonal: bool = True) -> list:
    ops = []
    for s in (0, 1):
        for a in range(num_orbitals):
            for i in range(num_orbitals):
                if a == i and not include_diagonal:
                    continue
                ops.append(ExcitationOperator(num_orbitals, "single", (a, i), (s,)))
    return ops


def double_excitations(num_orbitals: int, disjoint_only: bool = False) -> list:
    """Canonical doubles; disjoint_only drops creation/annihilation overlap."""
    m = num_orbitals
    ops = []
    for s in (0, 1):
        for a in range(m):
            for b in range(a + 1, m):
                for i in range(m):
                    for j in range(i + 1, m):
                        if disjoint_only and ({a, b} & {i, j}):
                            continue
                        ops.append(
                            ExcitationOperator(m, "double", (a, b, i, j), (s, s))
                        )
    for a in range(m):
        for b in range(m):
            for i in range(m):
                for j in range(m):
                    if disjoint_only and (a == i or b == j):
                        continue
                    ops.append(ExcitationOperator(m, "double", (a, b, i, j), (0, 1)))
    return ops


def qse_pool(num_orbitals: int, level: str) -> list:
    """Identity plus all singles, plus all doubles at level SD."""
    level = str(level).upper()
    if level not in ("S", "SD"):
        raise ValidationError(f"level must be S or SD, got {level!r}")
    ops = [ExcitationOperator(num_orbitals, "identity")]
    ops += single_excitations(num_orbitals)
    if level == "SD":
        ops += double_excitations(num_orbitals)
    return ops


def qeom_pool(num_orbitals: int) -> list:
    """True excitations only: off-diagonal singles, disjoint-index doubles."""
    return single_excitations(num_orbitals, include_diagonal=False) + (
        double_excitations(num_orbitals, disjoint_only=True)
    )


# ---------------------------------------------------------------------------
# expansion subspaces on a reference state


def _sector_reference(state: Statevector, ints: MolecularIntegrals) -> FockVector:
    """The reference's normalized amplitudes on the sector basis; raises on
    sector leakage."""
    if state.num_qubits != 2 * ints.num_orbitals:
        raise ValidationError("state register does not match the orbital count")
    return fock_from_statevector(state, ints.sector).normalized()


def _qse_setup(state: Statevector, ints: MolecularIntegrals, level: str):
    """Sector reference, pool and provenance shared by qse_build and
    qse_recipe."""
    phi = _sector_reference(state, ints)
    pool = qse_pool(ints.num_orbitals, level)
    provenance = {"method": "qse", "level": str(level).upper(), "pool_size": len(pool)}
    return phi, pool, provenance


def qse_build(
    state: Statevector,
    ints: MolecularIntegrals,
    level: str = "SD",
    budget: int = _QSE_BUDGET,
) -> SubspaceProblem:
    """Subspace over pool states O_a |Phi>.

    S_ab = <Phi| O_a^+ O_b |Phi> and H_ab = <Phi| O_a^+ H O_b |Phi>,
    evaluated on the sector basis: the pool operators act as ladder
    monomials on the reference's determinant amplitudes and H as the sparse
    sector matrix. The budget caps the Gram work, pool size^2 x sector
    dimension.
    """
    phi, pool, provenance = _qse_setup(state, ints, level)
    cost = len(pool) ** 2 * ints.sector_dimension
    if cost > budget:
        raise CapacityError(
            f"pool^2 x sector dimension = {cost} exceeds the budget {budget}"
        )
    basis = _pool_images(pool, phi.sector, phi.amplitudes)
    smat = basis.conj() @ basis.T
    hmat = basis.conj() @ matvec(sector_matrix(ints), basis.T)
    return SubspaceProblem(hmat, smat, provenance)


def qse_recipe(
    state: Statevector,
    ints: MolecularIntegrals,
    level: str = "SD",
    budget: int = _QSE_BUDGET,
) -> ExpectationRecipe:
    """Measurement plan whose exact limit reproduces qse_build.

    Expands O_a^+ O_b and O_a^+ H O_b into Pauli sums measured on the one
    reference state; conjugate entries share the same estimates, so only
    the i <= j triangle is planned. The budget caps the Pauli string
    products this performs, |H| sum_b |P_b| for the images H P_b plus
    (1 + |H|) sum_{a<=b} |P_a||P_b| for the entries, with |.| the term
    count of a Pauli sum. The entries' products are formed in blocks by
    `pauli_products`, bit for bit the products formed one pair at a time,
    and written straight into the recipe's rows: a product's identity term
    is the row's const and its other terms, in key order, the row's
    nonzeros. A block keeps the keys of those terms only until the string
    table is built from them and they become int32 table indices (the
    budget keeps every index below 2^31).
    """
    _, pool, provenance = _qse_setup(state, ints, level)  # also checks the sector
    paulis = [op.to_pauli() for op in pool]
    ham = jordan_wigner(ints)
    sizes = np.array([len(p) for p in paulis])
    pairs = (int(sizes.sum()) ** 2 + int(sizes @ sizes)) // 2
    cost = len(ham) * int(sizes.sum()) + (1 + len(ham)) * pairs
    if cost > budget:
        raise CapacityError(
            f"qse recipe Pauli string products = {cost} exceeds the budget {budget}"
        )
    dags = [p.dagger() for p in paulis]
    n = len(pool)
    names = [(kind, a, b) for a in range(n) for b in range(a, n) for kind in "sh"]
    factors = [(a, b + n * (kind == "h")) for kind, a, b in names]
    const, sizes, blocks, row = np.zeros(len(names), complex), np.zeros(len(names), int), [], 0
    for bounds, _, _, coeffs, keys in pauli_products(dags, paulis + [ham * p for p in paulis],
                                                     factors):
        ident = np.flatnonzero(keys == 0)  # an identity term sorts first in its product
        owner = row + np.searchsorted(bounds, ident, side="right") - 1
        const[owner] = coeffs[ident]
        sizes[row:row + len(bounds) - 1] = np.diff(bounds)
        sizes[owner] -= 1
        row += len(bounds) - 1
        blocks.append([keys[keys != 0], coeffs[keys != 0]])
    table = string_table(ham.num_qubits, np.concatenate([keys for keys, _ in blocks]))
    for block in blocks:  # each block's keys are released as they become indices
        block[0] = np.searchsorted(table.keys, block[0]).astype(np.int32)
    indices, data = (np.concatenate(part) for part in zip(*blocks))
    rows = np.r_[0, sizes.cumsum()].astype(np.int32)
    matrix = scipy.sparse.csr_array((data, indices, rows), shape=(len(names), len(table)))
    job = MeasurementJob(state.normalized(), table)
    entries = {name: r for r, name in enumerate(names)}
    return ExpectationRecipe(len(pool), (job,), entries, const, matrix, provenance)


@dataclass(eq=False)
class EomBlocks:
    """Commutator blocks of the excitation-operator eigenproblem.

    mmat and vmat are Hermitized on construction; all blocks must be finite.
    As in SubspaceProblem, the four blocks are stored in float64 when every
    imaginary part is exactly zero. pool holds the retained operators,
    dropped counts pool members that annihilate the reference.
    """

    mmat: np.ndarray
    qmat: np.ndarray
    vmat: np.ndarray
    wmat: np.ndarray
    pool: tuple = ()
    dropped: int = 0
    report: dict = field(default_factory=dict)

    def __post_init__(self):
        names = ("mmat", "qmat", "vmat", "wmat")
        mats = real_if_exact(*(getattr(self, n) for n in names))
        for name, mat in zip(names, mats):
            if mat.ndim != 2 or mat.shape != mats[0].shape[:1] * 2:
                raise ValidationError(f"{name} must be square, of the size of mmat")
            if not np.all(np.isfinite(mat)):
                raise DataError(f"{name} contains non-finite entries")
            setattr(self, name, mat)
        self.mmat = (self.mmat + self.mmat.conj().T) / 2.0
        self.vmat = (self.vmat + self.vmat.conj().T) / 2.0

    @property
    def size(self) -> int:
        return self.mmat.shape[0]


def _eom_energies(blocks: EomBlocks, tda: bool) -> np.ndarray:
    """Solve the block pencil (or its Tamm-Dancoff reduction) for gaps."""
    p = blocks.size
    report = blocks.report
    report["tda"] = bool(tda)
    if tda:
        w, u = np.linalg.eigh(blocks.vmat)
        keep = np.abs(w) > 1e-10
        report["metric_dropped"] = int(np.sum(~keep))
        report["metric_negative"] = int(np.sum(w[keep] < 0))
        if not np.any(keep):
            raise DataError("excitation metric has no significant directions")
        ub = u[:, keep]
        vals, vecs = scipy.linalg.eig(ub.conj().T @ blocks.mmat @ ub, np.diag(w[keep]))
        finite = np.isfinite(vals)
        report["num_finite"] = int(np.sum(finite))
        report["max_imag"] = float(np.max(np.abs(vals[finite].imag), initial=0.0))
        # as in the full pencil, only eigenvectors of positive norm give
        # gaps; x = ub y has x^+ V x = sum_k w_k |y_k|^2
        positive = finite & (w[keep] @ np.abs(vecs) ** 2 > 0)
        return np.sort(vals[positive].real)

    lhs = np.block([[blocks.mmat, blocks.qmat], [blocks.qmat.conj(), blocks.mmat.conj()]])
    rhs = np.block([[blocks.vmat, blocks.wmat], [-blocks.wmat.conj(), -blocks.vmat.conj()]])
    if float(np.max(np.abs(lhs))) < 1e-14:
        # commuting pool: every excitation is degenerate at zero
        report["num_finite"] = 2 * p
        report["max_imag"] = 0.0
        report["paired"] = p
        return np.zeros(p)
    # the metric is Hermitian (V Hermitian, W antisymmetric) but indefinite;
    # pool states that are linearly dependent on the reference give exact
    # null directions shared by both sides, so those are projected out
    w, u = np.linalg.eigh(rhs)
    keep = np.abs(w) > 1e-10 * max(1.0, float(np.max(np.abs(w))))
    report["metric_dropped"] = int(np.sum(~keep))
    report["metric_min_kept"] = float(np.min(np.abs(w[keep]), initial=math.inf))
    flagged = bool(np.any(~keep))
    report["flagged_singular"] = flagged
    if flagged:
        report["suggestion"] = "metric has null directions; consider tda=True"
    if not np.any(keep):
        raise DataError("excitation metric has no significant directions")
    ub = u[:, keep]
    reduced = ub.conj().T @ lhs @ ub
    vals = scipy.linalg.eig(reduced, np.diag(w[keep]), right=False)
    finite = np.sort(vals[np.isfinite(vals)].real)
    k = finite.size
    report["num_finite"] = int(k)
    report["max_imag"] = float(
        np.max(np.abs(vals[np.isfinite(vals)].imag), initial=0.0)
    )
    upper = finite[k - k // 2 :]
    lower = -finite[: k // 2][::-1]
    # a first-order bound, not a safety margin: backward error n u in (A, diag w)
    # moves dE by n u (||A||_2 + |dE| max|w|) / min|w|, a pair's distance twice that
    wk = np.abs(w[keep])
    unit = wk.size * np.finfo(float).eps / wk.min()
    floor = unit * (np.linalg.norm(reduced, 2) + np.abs(upper) * wk.max())
    report["paired"] = int(np.sum(np.abs(upper - lower) <= 2 * floor))
    report["gap_roundoff"] = [float(x) for x in floor]
    return upper


def qeom_build(v0: FockVector, ints: MolecularIntegrals, tda: bool = False):
    """Commutator-block eigenproblem for excitation energies.

    Blocks on the normalized sector reference |Phi> = v0 / |v0| with the
    qeom_pool operators F_J:

        V_IJ =  <Phi| [F_I^+, F_J] |Phi>
        W_IJ = -<Phi| [F_I^+, F_J^+] |Phi>
        M_IJ =  <Phi| [F_I^+, [H, F_J]] |Phi>
        Q_IJ = -<Phi| [F_I^+, [H, F_J^+]] |Phi>

    The full pencil [[M, Q], [Q*, M*]] z = dE [[V, W], [-W*, -V*]] z has
    paired +/- eigenvalues; the upper half is returned, ascending. With
    tda=True the reduced problem M x = dE V x is solved instead and the
    finite eigenvalues whose eigenvectors have positive norm x^+ V x are
    returned, ascending. Operators annihilating the reference are dropped
    before solving.

    Returns (EomBlocks, excitation energies); diagnostics (pairing, metric
    conditioning, imaginary residue) land in blocks.report. All states are
    evaluated on the sector basis, as in qse_build.
    """
    if v0.sector != ints.sector:
        raise ValidationError("reference sector does not match integrals")
    phi = v0.normalized()
    pool = qeom_pool(ints.num_orbitals)
    if not pool:
        raise DataError("empty excitation pool: one orbital has no excitation")
    ham = sector_matrix(ints)
    # rows: Phi and H Phi, so each monomial gives F Phi and F H Phi at once
    pair = np.stack([phi.amplitudes, matvec(ham, phi.amplitudes)])
    up = _pool_images(pool, phi.sector, pair)
    live = np.linalg.norm(up[:, 0], axis=-1) >= _NULL_OP
    kept = [op for op, keep in zip(pool, live) if keep]
    dropped = len(pool) - len(kept)
    if not kept:
        raise DataError("every pool operator annihilates the reference")

    amat, fhmat = up[live].swapaxes(0, 1)
    cmat, fdhmat = _pool_images(kept, phi.sector, pair, adjoint=True).swapaxes(0, 1)
    hamat = matvec(ham, amat.T).T
    hcmat = matvec(ham, cmat.T).T

    def gram(x, y):
        return x.conj() @ y.T

    vmat = gram(amat, amat) - gram(cmat, cmat).T
    wmat = -(gram(amat, cmat) - gram(amat, cmat).T)
    mmat = (
        gram(amat, hamat)
        - gram(amat, fhmat)
        - gram(fdhmat, cmat).T
        + gram(cmat, hcmat).T
    )
    qmat = -(
        gram(amat, hcmat)
        - gram(amat, fdhmat)
        - gram(fhmat, cmat).T
        + gram(amat, hcmat).T
    )
    blocks = EomBlocks(mmat, qmat, vmat, wmat, pool=tuple(kept), dropped=dropped)
    blocks.report["pool_size"] = len(kept)
    blocks.report["dropped"] = dropped
    energies = _eom_energies(blocks, tda)
    return blocks, energies


# ---------------------------------------------------------------------------
# real-time (phase-estimation-free) subspaces


@dataclass(frozen=True)
class QfdGrid:
    """Uniform time grid t_a = a*dt, a = 0..n-1."""

    dt: float
    n: int
    backend: str = "exact"
    substeps: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValidationError("dt must be positive")
        if self.n < 1:
            raise ValidationError("need at least one grid point")
        if self.backend not in ("exact", "trotter"):
            raise ValidationError(f"unknown backend {self.backend!r}")
        if self.substeps < 1:
            raise ValidationError("substeps must be at least 1")

    def times(self) -> np.ndarray:
        return np.arange(self.n, dtype=float) * self.dt

    def provenance(self) -> dict:
        return {
            "method": "qfd",
            "dt": float(self.dt),
            "n": int(self.n),
            "backend": self.backend,
            "substeps": int(self.substeps),
        }


def filter_subspace(energies, weights, filters, provenance: dict) -> SubspaceProblem:
    """Subspace over the filtered states f_a(H) v0, from v0's spectral
    measure (energies E_k, weights w_k; fock.spectral_measure) and the filter
    matrix F[k, a] = f_a(E_k): S = F^H diag(w) F and H = F^H diag(w E) F."""
    left = filters.conj().T * weights
    return SubspaceProblem(left @ (energies[:, None] * filters), left @ filters, provenance)


@cached_per_integrals
def _trotter_plan(ints: MolecularIntegrals):
    """The product-formula plan of the integrals' factorized Hamiltonian;
    it holds arrays only, so the weak-keyed cache frees it with ints."""
    factors = cholesky_decompose_eri(ints)
    return trotter_plan(effective_one_body(ints, factors), factors, ints.e_nuc)


def _snapshots(state0: FockVector, ints, grid: QfdGrid) -> list:
    """The normalized state0 propagated to the grid times: exactly, or by
    `substeps` product-formula hops of (t_a - t_{a-1}) / substeps per grid
    step."""
    v0 = state0.normalized()
    times = grid.times()
    if grid.backend == "exact":
        return [evolve_real(ints, v0, float(t)) for t in times]
    plan = _trotter_plan(ints)
    snaps = [v0]
    for hop in np.diff(times) / grid.substeps:
        cur = snaps[-1]
        for _ in range(grid.substeps):
            cur = trotter_step(plan, hop, cur)
        snaps.append(cur)
    return snaps


def qfd_build(state0: FockVector, ints: MolecularIntegrals, grid: QfdGrid) -> SubspaceProblem:
    """Subspace over propagated states v_a = exp(-i t_a H) v0.

    S_ab = <v_a|v_b> and H_ab = <v_a|H|v_b>. With the exact backend both
    depend only on b - a (Toeplitz) and come from v0's spectral measure with
    the filters exp(-i t_a E); the trotter backend breaks that structure by
    product-formula error and builds the states.
    """
    if grid.backend == "exact":
        energies, weights = spectral_measure(ints, state0)
        filters = np.exp(-1j * np.outer(energies, grid.times()))
        return filter_subspace(energies, weights, filters, grid.provenance())
    snaps = _snapshots(state0, ints, grid)
    basis = np.stack([s.amplitudes for s in snaps])
    images = np.stack([apply_hamiltonian(ints, s).amplitudes for s in snaps])
    smat = basis.conj() @ basis.T
    hmat = basis.conj() @ images.T
    return SubspaceProblem(hmat, smat, grid.provenance())


def qfd_recipe(
    state0: FockVector, ints: MolecularIntegrals, grid: QfdGrid
) -> ExpectationRecipe:
    """Hadamard-test measurement plan whose exact limit reproduces qfd_build.

    Matrix elements depend only on the grid offset b - a, so each offset k
    gets one superposition register (|0> snap_0 + |1> snap_k)/sqrt(2)
    carrying ancilla-X and ancilla-Y copies of every Hamiltonian string;
    offset zero is measured directly on the first snapshot.  The recipe has
    one S row and one H row per offset, 2k and 2k + 1, and every entry of
    one diagonal maps to its offset's row, so sampled matrices stay exactly
    Toeplitz.  With the trotter backend the offset structure is exact for S
    and holds for H up to the product-formula error the builder already
    accepts.
    """
    psi = [statevector_from_fock(s).normalized() for s in _snapshots(state0, ints, grid)]
    ham = jordan_wigner(ints)
    nq = 2 * ints.num_orbitals
    const_h, plain = ham.split_identity()
    # ancilla-X and ancilla-Y copies of sigma in [identity, *plain]
    anc = np.uint64(1 << nq)
    sx, sz = (np.concatenate([np.zeros(1, np.uint64), getattr(plain, a)]) for a in "xz")
    copies = ((sx | anc, sz), (sx | anc, sz | anc))
    table = string_table(nq + 1, pauli_keys(*map(np.concatenate, zip(*copies))))
    x_at, y_at = (np.searchsorted(table.keys, pauli_keys(*copy)) for copy in copies)
    # each term c sigma of H reads sigma's X copy with c and its Y copy with i c
    rows = np.arange(len(ham)) + (len(ham) == len(plain))
    reads = np.concatenate([x_at[rows], y_at[rows]])
    weights = np.concatenate([ham.coeffs, 0.0j + 1.0j * ham.coeffs])
    jobs = [MeasurementJob(psi[0], plain)]
    # the nonzeros of rows 1, 2, ...; job k's columns start at
    # len(plain) + (k - 1) len(table)
    cols, data = [np.arange(len(plain))], [plain.coeffs]
    for k in range(1, grid.n):
        amps = np.concatenate([psi[0].amplitudes, psi[k].amplitudes]) / math.sqrt(2.0)
        jobs.append(MeasurementJob(Statevector(nq + 1, amps), table))
        start = len(plain) + (k - 1) * len(table)
        cols += [start + np.array([x_at[0], y_at[0]]), start + reads]
        data += [np.array([1.0, 1.0j]), weights]
    const = np.zeros(2 * grid.n, dtype=complex)
    const[:2] = 1.0, const_h
    matrix = scipy.sparse.csr_array(
        (np.concatenate(data).astype(complex), np.concatenate(cols).astype(np.int32),
         np.cumsum([0, 0, *map(len, cols)], dtype=np.int32)),
        shape=(const.size, len(plain) + (grid.n - 1) * len(table)))
    entries = {(kind, a, b): 2 * (b - a) + (kind == "h")
               for a in range(grid.n) for b in range(a, grid.n) for kind in "sh"}
    return ExpectationRecipe(grid.n, tuple(jobs), entries, const, matrix, grid.provenance())


def epperly_qfd_bound(
    ints: MolecularIntegrals,
    v0: FockVector,
    num_points: int,
    l_index: int | None = None,
) -> dict:
    """Ground-energy error bound for a uniform-grid time subspace.

    For the grid step dt = pi / (E_L - E_0) and d grid points,

        0 <= E0_estimate - E0 <= (1 + pi dE_1/dE_L)^-(d-1)
                                 * 8 sum_{u=1..L} dE_u w_u / w_0
                               + 2 sum_{u>L} dE_u w_u / w_0

    with dE_u = E_u - E_0 and w_u the squared overlap of v0 with the u-th
    eigenvector, both read off v0's spectral measure. Default L = D-1
    empties the second sum. Returns the bound together with the prescribed
    dt.
    """
    if num_points < 1:
        raise ValidationError("need at least one grid point")
    dim = ints.sector_dimension
    if dim == 1:
        raise ValidationError("the sector has one state, so no excited level can set dt")
    l_index = dim - 1 if l_index is None else l_index
    if not 1 <= l_index <= dim - 1:
        raise ValidationError(f"l_index={l_index} outside 1..{dim - 1}")
    energies, weights = spectral_measure(ints, v0)
    gaps = energies - energies[0]
    if gaps[l_index] <= 0:
        raise DataError("reference level is degenerate with the ground state")
    dt = math.pi / float(gaps[l_index])
    if weights[0] <= 0:
        bound = math.inf
    else:
        decay = (1.0 + math.pi * gaps[1] / gaps[l_index]) ** (-(num_points - 1))
        head = 8.0 * float(np.sum(gaps[1 : l_index + 1] * weights[1 : l_index + 1]))
        tail = 2.0 * float(np.sum(gaps[l_index + 1 :] * weights[l_index + 1 :]))
        bound = (decay * head + tail) / float(weights[0])
    return {
        "bound": float(bound),
        "dt": dt,
        "l_index": int(l_index),
        "num_points": int(num_points),
        "w0": float(weights[0]),
    }


# ---------------------------------------------------------------------------
# imaginary-time subspaces


def qite_pool(ints: MolecularIntegrals) -> tuple:
    """Hermitian Pauli strings spanning the anti-Hermitian excitation images.

    Every T - T^+ over off-diagonal singles and doubles maps to a purely
    imaginary combination of Hermitian strings, 2i Im c_s for the merged
    coefficient c_s of string s in T; the distinct strings form the
    rotation pool. Monomials with one ladder pattern are expanded together.
    """
    nq, patterns = 2 * ints.num_orbitals, {}
    for op in qeom_pool(ints.num_orbitals):
        modes, create = zip(*op.ladders)
        patterns.setdefault(create, []).append(modes)
    masks = [np.zeros((2, 0), dtype=np.uint64)]
    for create, modes in patterns.items():
        x, z, coeffs = _ladder_terms(np.ones(len(modes)), np.array(modes), create)
        # one key per (monomial, string): the monomial index above the string key
        monomial = np.repeat(np.arange(len(modes), dtype=np.uint64), 1 << len(create))
        _, first, inverse = np.unique((monomial << np.uint64(2 * nq)) | pauli_keys(x, z),
                                      return_index=True, return_inverse=True)
        keep = first[2.0 * np.abs(np.bincount(inverse, coeffs.imag)) > _NULL_OP]
        masks.append(np.stack([x[keep], z[keep]]))
    return string_table(nq, pauli_keys(*np.concatenate(masks, axis=1))).strings


def qite_step(
    state: Statevector,
    ints: MolecularIntegrals,
    delta_tau: float,
    pool: tuple | None = None,
):
    """One unitary imaginary-time step.

    Matches (1 + i sum_m theta_m G_m)|Phi> to the first-order propagated
    state by solving A theta = b with

        A_mn = <Phi| {G_m, G_n} |Phi>    b_m = -i dtau <Phi| [H, G_m] |Phi>

    (Tikhonov damping 1e-8, Cholesky solve), then applies prod_m
    exp(i theta_m G_m). A step whose energy rises by more than 1e-8 is
    rejected (StepError); an empty pool is a ValidationError. Returns
    (state, energy, norm factor) where the norm factor
    sqrt(1 - 2 dtau <H> + 2 dtau^2 <H^2>) is the second-order estimate of
    the decay of the unnormalized imaginary-time state.
    """
    if not delta_tau > 0:
        raise ValidationError("delta_tau must be positive")
    if pool is None:
        pool = qite_pool(ints)
    if not pool:
        raise ValidationError("empty rotation pool")
    ham = jordan_wigner(ints)
    phi = state.normalized()
    hphi = apply_pauli_sum(ham, phi)
    e_old = float(inner(phi, hphi).real)
    # one table for the pool: P_m phi for the gradient, then each rotation, all
    # gathered from one buffer (s, -s) whose halves the rotations update in place
    src, phase = pauli_rows(phi.num_qubits, [p.x for p in pool], [p.z for p in pool])
    signed = np.concatenate([phi.amplitudes, -phi.amplitudes])
    amp, flipped = np.split(signed, 2)
    rotated = signed.take(src)
    np.multiply(phase, rotated, out=rotated)
    bvec = 2.0 * delta_tau * np.imag(rotated @ np.conj(hphi.amplitudes))
    # A = 2 Re(R* R^T) is one real product over the interleaved (Re, Im) columns
    parts = rotated.view(float)
    amat = parts @ parts.T
    del rotated, parts
    amat *= 2.0
    amat.flat[::len(pool) + 1] += 1e-8
    try:
        # A is symmetric, so A^T is the Fortran-order array LAPACK factors in place
        chol = scipy.linalg.cho_factor(amat.T, overwrite_a=True, check_finite=False)
        theta = scipy.linalg.cho_solve(chol, bvec, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - damped solve
        raise StepError(f"rotation solve failed: {exc}") from exc
    del amat, chol
    if not np.all(np.isfinite(theta)):
        raise StepError("rotation solve produced non-finite angles")
    turned = np.empty_like(amp)
    for row, ph, angle in zip(src, phase, theta):
        # exp(i angle P) = R_P(-2 angle), as apply_pauli_exponential applies it:
        # amp <- cos amp - i sin P amp, in place with gather_rows' operations
        rot = -2.0 * float(angle)
        np.multiply(ph, signed.take(row, out=turned), out=turned)
        np.multiply(1j * math.sin(rot / 2), turned, out=turned)
        np.multiply(math.cos(rot / 2), amp, out=amp)
        np.subtract(amp, turned, out=amp)
        np.negative(amp, out=flipped)
    new = Statevector(phi.num_qubits, amp.copy())
    e_new = float(expectation(ham, new).real)
    if e_new > e_old + 1e-8:
        raise StepError(
            f"energy rose from {e_old:.12f} to {e_new:.12f} at dtau={delta_tau}"
        )
    h2 = float(np.vdot(hphi.amplitudes, hphi.amplitudes).real)
    factor = math.sqrt(
        max(1.0 - 2.0 * delta_tau * e_old + 2.0 * delta_tau**2 * h2, 0.0)
    )
    return new, e_new, factor


def qlanczos_build(
    v0: FockVector,
    ints: MolecularIntegrals,
    delta_tau: float,
    n: int,
    mode: str = "exact",
) -> SubspaceProblem:
    """Subspace over imaginary-time snapshots v_a = exp(-a dtau H) v0 / norm.

    Only norms and snapshot energies are recorded, at every half step
    k = 0..2(n-1): N_k = |exp(-k dtau/2 H) v0| and the snapshot Rayleigh
    quotient h_k. Matrix elements then follow from

        S_ab = N_{a+b}^2 / (N_{2a} N_{2b})      H_ab = S_ab h_{a+b}

    mode "exact" reads N_k and h_k off v0's spectral measure, with H shifted
    by the sector's lowest eigenvalue E_0 in the exponent so that no term
    grows; S and H do not depend on the shift, but the recorded norms are
    those of exp(-k dtau/2 (H - E_0)) v0. Mode "qite" replaces each half step
    by a unitary step whose norm factor estimates the decay.
    """
    if not delta_tau > 0:
        raise ValidationError("delta_tau must be positive")
    if n < 1:
        raise ValidationError("need at least one snapshot")
    if mode not in ("exact", "qite"):
        raise ValidationError(f"unknown mode {mode!r}")
    half = delta_tau / 2.0
    num_half = 2 * (n - 1)
    if mode == "exact":
        energies, weights = spectral_measure(ints, v0)
        # decay[k, j] = |<j|exp(-k dtau/2 (H - E_0)) v0>|^2 for normalized v0
        decay = weights * np.exp(-np.outer(np.arange(num_half + 1) * delta_tau,
                                           energies - energies[0]))
        squares = decay.sum(axis=1)
        norms, rayleigh = np.sqrt(squares), decay @ energies / squares
    else:
        norms = np.ones(num_half + 1)
        rayleigh = np.empty(num_half + 1)
        pool = qite_pool(ints)
        if not pool:
            raise DataError("empty rotation pool: one orbital has no excitation")
        ham = jordan_wigner(ints)
        cur = statevector_from_fock(v0.normalized())
        rayleigh[0] = float(expectation(ham, cur).real)
        for k in range(1, num_half + 1):
            cur, energy, factor = qite_step(cur, ints, half, pool)
            norms[k] = norms[k - 1] * factor
            rayleigh[k] = energy
    idx = np.add.outer(np.arange(n), np.arange(n))
    full = norms[2 * np.arange(n)]
    smat = norms[idx] ** 2 / np.outer(full, full)
    hmat = smat * rayleigh[idx]
    provenance = {
        "method": "qlanczos",
        "delta_tau": float(delta_tau),
        "n": int(n),
        "mode": mode,
        "norms": [float(x) for x in norms],
    }
    return SubspaceProblem(hmat, smat, provenance)


# ---------------------------------------------------------------------------
# polynomial filter subspaces


def chebyshev_krylov_build(
    v0: FockVector,
    ints: MolecularIntegrals,
    n: int,
    bounds: tuple,
) -> SubspaceProblem:
    """Subspace over T_a(Hbar) v0 with Hbar = (2H - (a+b)) / (b - a).

    Only the 2n moments f_k = <v0| T_k(Hbar) |v0> are needed; the product
    rule 2 T_a T_b = T_{a+b} + T_{|a-b|} assembles

        S_ab = (f_{a+b} + f_{|a-b|}) / 2
        Hbar_ab = (f_{a+b+1} + f_{|a+b-1|} + f_{|a-b|+1} + f_{|a-b-1|}) / 4

    and H is returned in energy units as scale * Hbar + shift * S. Any
    moment leaving [-1, 1] means the spectrum escapes [a, b].
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not hi > lo:
        raise ValidationError("need spectral bounds with b > a")
    if n < 1:
        raise ValidationError("need at least one basis vector")
    scale = (hi - lo) / 2.0
    shift = (hi + lo) / 2.0
    f = polynomial_moments(ints, v0.normalized(), 2 * n, "chebyshev", shift, scale)
    worst = int(np.argmax(np.abs(f)))
    if abs(f[worst]) > 1.0 + 1e-8:
        raise RescalingError(
            f"moment {worst} has magnitude {abs(f[worst]):.6f}; "
            f"spectrum escapes [{lo}, {hi}]"
        )
    r = np.arange(n)
    tot = np.add.outer(r, r)
    dif = np.abs(np.subtract.outer(r, r))
    smat = (f[tot] + f[dif]) / 2.0
    hbar = (f[tot + 1] + f[np.abs(tot - 1)] + f[dif + 1] + f[np.abs(dif - 1)]) / 4.0
    hmat = scale * hbar + shift * smat
    provenance = {"method": "chebyshev", "n": int(n), "bounds": [lo, hi]}
    return SubspaceProblem(hmat, smat, provenance)


def gaussian_power_build(
    v0: FockVector,
    ints: MolecularIntegrals,
    n: int,
    tau: float,
) -> SubspaceProblem:
    """Subspace over v_a = (H - E0)^a exp(-(H - E0)^2 tau^2 / 2) v0.

    The Gaussian filter suppresses eigencomponents far from E0, taming the
    norm growth of the power basis; tau = 0 recovers the plain shifted
    power basis. E0 is the Rayleigh quotient of v0. Realized
    on v0's spectral measure, so it needs the dense sector spectrum.
    """
    if n < 1:
        raise ValidationError("need at least one basis vector")
    if tau < 0:
        raise ValidationError("tau must be non-negative")
    energies, weights = spectral_measure(ints, v0)
    e0 = float(weights @ energies)
    centered = energies - e0
    gauss = np.exp(-(centered**2) * tau**2 / 2.0)
    filters = np.stack([centered**alpha * gauss for alpha in range(n)], axis=1)
    provenance = {"method": "gaussian_power", "n": int(n), "tau": float(tau), "e0": float(e0)}
    prob = filter_subspace(energies, weights, filters, provenance)
    provenance["basis_norms"] = [float(x) for x in np.sqrt(np.diag(prob.smat))]
    return prob


# ---------------------------------------------------------------------------
# derived spectra and fast-forwarding


def _subspace_eigenstates(sol: GEEVSolution, basis: list) -> np.ndarray:
    """Rows are eigenvector amplitudes assembled from the original basis."""
    if not basis:
        raise ValidationError("empty basis")
    arrays = np.stack([np.asarray(x.amplitudes) for x in basis])
    if sol.coefficients.shape[0] != arrays.shape[0]:
        raise ValidationError("coefficient rows do not match the basis size")
    return sol.coefficients.T @ arrays


def spectral_weights(sol: GEEVSolution, basis: list, probe) -> tuple[np.ndarray, np.ndarray]:
    """Stick spectrum: gaps dE_u and weights |<u|B|0>|^2 of a Hermitian
    sector operator B, any matrix fock.matvec applies. The basis states are
    FockVectors, and the u=0 term is included.
    """
    eigen = _subspace_eigenstates(sol, basis)
    amp = eigen.conj() @ matvec(probe, eigen[0])  # <u|B|0>
    gaps = sol.eigenvalues - sol.eigenvalues[0]
    return gaps, (amp.conj() * amp).real


def response_function(sol: GEEVSolution, basis: list, probe, omegas, eta: float) -> np.ndarray:
    """Frequency response sum_u L_eta(w - dE_u) |<u|B|0>|^2 of a Hermitian
    sector operator B (see spectral_weights).

    The subspace eigenvectors replace the exact eigenfunctions; L_eta is a
    unit-area Lorentzian, so integrating recovers the transition weights.
    """
    if not eta > 0:
        raise ValidationError("broadening must be positive")
    gaps, weights = spectral_weights(sol, basis, probe)
    omegas = np.asarray(omegas, dtype=float)
    spectrum = np.zeros(omegas.shape, dtype=complex)
    for w, gap in zip(weights, gaps):
        spectrum += w * (eta / math.pi) / ((omegas - gap) ** 2 + eta**2)
    return spectrum


@dataclass(eq=False)
class FastForwardResult:
    """Propagated state plus how much of the input the subspace captured."""

    state: FockVector
    projection_weight: float
    low_weight: bool


def fast_forward(sol: GEEVSolution, basis: list, state: FockVector, t: float) -> FastForwardResult:
    """Evolve by projecting onto subspace eigenpairs and rotating phases.

    out = sum_u exp(-i E_u t) <psi_u|state> |psi_u>. The projection weight
    sum |<psi_u|state>|^2 / |state|^2 reports subspace leakage; below 0.5
    the result is flagged. t = 0 returns the plain projection.
    """
    eigen = _subspace_eigenstates(sol, basis)
    target = np.asarray(state.amplitudes)
    if target.shape != eigen[0].shape:
        raise ValidationError("state does not live in the basis vector space")
    coeff = eigen.conj() @ target
    norm2 = float(np.vdot(target, target).real)
    if norm2 == 0.0:
        raise ValidationError("cannot fast-forward the zero vector")
    weight = float(np.sum(np.abs(coeff) ** 2) / norm2)
    out = (np.exp(-1j * sol.eigenvalues * t) * coeff) @ eigen
    return FastForwardResult(FockVector(state.sector, out), weight, weight < 0.5)
