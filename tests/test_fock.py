"""Configuration bases and sparse sector Hamiltonians vs dense ladder algebra
and a per-determinant loop build."""

import gc
import itertools
import math
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse

import oracles
from conftest import FIXTURE_NAMES, load_integrals, random_integrals, scan_integrals
import qsubspace.fock as fock_module
from qsubspace.errors import CapacityError, ValidationError
from qsubspace.fock import (
    _ENTRY_CAP,
    _eigensystem,
    _flip_blocks,
    _entry_count,
    _replacements,
    _spin_words,
    Configuration,
    FockVector,
    apply_hamiltonian,
    apply_ladders,
    basis_vector,
    configuration_index,
    enumerate_configurations,
    evolve_real,
    exact_eigenpairs,
    hamiltonian_diagonal,
    inner,
    reference_configuration,
    sector_dimension,
    sector_matrix,
    spectral_measure,
)
from qsubspace.integrals import MolecularIntegrals
from qsubspace.qubits import jordan_wigner


def test_enumeration_order_two_orbitals():
    configs = enumerate_configurations(2, 1, 1)
    assert [(c.occ_up, c.occ_down) for c in configs] == [
        (1, 1), (2, 1), (1, 2), (2, 2)
    ]
    for i, c in enumerate(configs):
        assert configuration_index(c, 1, 1) == i
    # combined word doubles as the qubit basis index
    assert configs[1].word == 2 | (1 << 2)


def test_enumeration_counts():
    assert sector_dimension(4, 2, 2) == 36
    assert len(enumerate_configurations(4, 2, 2)) == 36
    assert sector_dimension(3, 2, 1) == 9


def test_reference_configuration(h2):
    ref = reference_configuration(h2)
    assert (ref.occ_up, ref.occ_down) == (1, 1)
    v = basis_vector(h2.sector, ref)
    assert v.amplitudes[0] == 1.0
    assert v.norm() == 1.0


SECTOR_CASES = [
    ("he_minimal", None),
    ("h2_sto3g", None),
    ("h2_stretched", None),
    ("heh_like", None),
    ("h3_plus", None),
    ("h4_toy", None),
    ("h3_plus", (2, 1)),  # spin-polarized sector of the same integrals
    ("h3_plus", (2, 2)),
]


@pytest.mark.parametrize("name,sector", SECTOR_CASES)
def test_sector_matrix_matches_ladder_algebra(name, sector):
    ints = load_integrals(name)
    if sector is not None:
        ints = MolecularIntegrals(
            ints.num_orbitals, sector[0], sector[1],
            ints.e_nuc, ints.one_body, ints.two_body,
        )
    ours = sector_matrix(ints).toarray()
    ref = oracles.sector_hamiltonian(
        ints.e_nuc, ints.one_body, ints.two_body, ints.num_up, ints.num_down
    )
    assert np.max(np.abs(ours - ref)) < 1e-10
    np.testing.assert_allclose(hamiltonian_diagonal(ints), np.diag(ref), atol=1e-10)


def sector_matrix_by_determinant(ints, sector):
    """The sector matrix built one determinant and one excitation at a time
    with Python integer ladder signs: the reference for the table build."""
    m, n_up, n_down = sector

    def words(k):
        return sorted(sum(1 << i for i in c) for c in itertools.combinations(range(m), k))

    def destroy(word, mode):
        sign = -1.0 if (word & ((1 << mode) - 1)).bit_count() & 1 else 1.0
        return sign, word & ~(1 << mode)

    def create(word, mode):
        sign = -1.0 if (word & ((1 << mode) - 1)).bit_count() & 1 else 1.0
        return sign, word | (1 << mode)

    def bits(word):
        return [p for p in range(m) if word & (1 << p)]

    h, g = ints.one_body, ints.two_body
    jmat = np.einsum("ppqq->pq", g)
    kmat = np.einsum("pqqp->pq", g)
    gj = np.ascontiguousarray(np.einsum("aiqq->aiq", g))
    gk = np.ascontiguousarray(np.einsum("aqqi->aiq", g))
    hdiag = np.diag(h)
    ups, downs = words(n_up), words(n_down)
    up_rank = {w: i for i, w in enumerate(ups)}
    down_rank = {w: i for i, w in enumerate(downs)}
    n_up_words = len(ups)
    rows, cols, vals = [], [], []

    def push(word, col, val):
        rows.append(down_rank[word >> m] * n_up_words + up_rank[word & ((1 << m) - 1)])
        cols.append(col)
        vals.append(val)

    orbitals = range(m)
    for down in downs:
        occ_d = bits(down)
        emp_d = [p for p in orbitals if not (down & (1 << p))]
        nd = np.array([(down >> p) & 1 for p in orbitals], dtype=float)
        for up in ups:
            col = down_rank[down] * n_up_words + up_rank[up]
            word = up | (down << m)
            occ_u = bits(up)
            emp_u = [p for p in orbitals if not (up & (1 << p))]
            nu = np.array([(up >> p) & 1 for p in orbitals], dtype=float)
            ntot = nu + nd

            diag = ints.e_nuc + float(hdiag @ ntot)
            diag += 0.5 * float(ntot @ jmat @ ntot - nu @ kmat @ nu - nd @ kmat @ nd)
            push(word, col, diag)

            # single excitations: spectators are occ(word) minus the hole
            for occ, emp, spin_n, offset in ((occ_u, emp_u, nu, 0), (occ_d, emp_d, nd, m)):
                for i in occ:
                    s1, w1 = destroy(word, i + offset)
                    spect_tot = ntot.copy()
                    spect_tot[i] -= 1.0
                    spect_spin = spin_n.copy()
                    spect_spin[i] -= 1.0
                    for a in emp:
                        s2, w2 = create(w1, a + offset)
                        val = h[a, i] + float(gj[a, i] @ spect_tot - gk[a, i] @ spect_spin)
                        push(w2, col, s1 * s2 * val)

            # same-spin double excitations
            for occ, emp, offset in ((occ_u, emp_u, 0), (occ_d, emp_d, m)):
                for i, j in itertools.combinations(occ, 2):
                    s1, w1 = destroy(word, i + offset)
                    s2, w2 = destroy(w1, j + offset)
                    for a, b in itertools.combinations(emp, 2):
                        s3, w3 = create(w2, b + offset)
                        s4, w4 = create(w3, a + offset)
                        val = g[a, i, b, j] - g[a, j, b, i]
                        if val != 0.0:
                            push(w4, col, s1 * s2 * s3 * s4 * val)

            # opposite-spin double excitations
            for i in occ_u:
                s1, w1 = destroy(word, i)
                for j in occ_d:
                    s2, w2 = destroy(w1, j + m)
                    for b in emp_d:
                        s3, w3 = create(w2, b + m)
                        for a in emp_u:
                            s4, w4 = create(w3, a)
                            val = g[a, i, b, j]
                            if val != 0.0:
                                push(w4, col, s1 * s2 * s3 * s4 * val)

    dim = math.comb(m, n_up) * math.comb(m, n_down)
    mat = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    return (mat + mat.T) * 0.5


SYNTHETIC_SECTORS = [(4, 0, 2), (4, 4, 1), (5, 1, 4), (5, 2, 3), (6, 3, 2), (7, 3, 3)]


def _case_integrals(case):
    if isinstance(case[0], str):
        name, sector = case
        ints = load_integrals(name)
        if sector is None:
            return ints
        return MolecularIntegrals(
            ints.num_orbitals, *sector, ints.e_nuc, ints.one_body, ints.two_body
        )
    return random_integrals(*case, seed=sum(case))


def _case_id(case):
    if isinstance(case[0], str):
        return case[0] + ("" if case[1] is None else "-{}-{}".format(*case[1]))
    return "random-{}-{}-{}".format(*case)


@pytest.mark.parametrize("case", SECTOR_CASES + SYNTHETIC_SECTORS, ids=_case_id)
def test_sector_matrix_matches_determinant_loop(case):
    ints = _case_integrals(case)
    ours = sector_matrix(ints)
    ref = sector_matrix_by_determinant(ints, ints.sector)
    np.testing.assert_array_equal(ours.indptr, ref.indptr)
    np.testing.assert_array_equal(ours.indices, ref.indices)
    np.testing.assert_allclose(ours.data, ref.data, rtol=0, atol=1e-13)
    if case in SYNTHETIC_SECTORS:  # dense random integrals: no entry is zero
        assert ours.nnz == _entry_count(*ints.sector)


def test_exact_zero_doubles_are_dropped():
    ints = random_integrals(5, 2, 3, seed=3, zero_share=0.5)
    ours = sector_matrix(ints)
    ref = sector_matrix_by_determinant(ints, ints.sector)
    np.testing.assert_array_equal(ours.indptr, ref.indptr)
    np.testing.assert_array_equal(ours.indices, ref.indices)
    np.testing.assert_allclose(ours.data, ref.data, rtol=0, atol=1e-13)
    # zero doubles are not candidates, and no stored entry is 0.0
    assert ours.nnz < _entry_count(*ints.sector)
    assert not np.any(ours.data == 0.0)


def _repeat_build_peak(first: str, second: str) -> int:
    """tracemalloc peak of building `second` in a fresh interpreter, after a
    first build of `first`, which has the same sector and zeros."""
    root = pathlib.Path(__file__).resolve().parent.parent
    code = textwrap.dedent(f"""
        import sys, tracemalloc
        sys.path[:0] = [{str(root / "src")!r}, {str(root / "tests")!r}]
        from conftest import random_integrals, scan_integrals
        from qsubspace.fock import sector_matrix
        from qsubspace.integrals import MolecularIntegrals
        first = {first}
        sector_matrix(first)
        second = {second}
        tracemalloc.start()
        sector_matrix(second)
        print(tracemalloc.get_traced_memory()[1])
    """)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return int(run.stdout)


def test_a_repeat_build_keeps_the_dense_peak():
    # the COO build peaked at 12.5 MB on the scan molecule, m = 7 (3,3)
    assert _repeat_build_peak("scan_integrals(1.0)", "scan_integrals(1.2)") <= 12_500_000


def test_a_repeat_build_keeps_the_sparse_peak():
    # the COO build peaked at 2.74 MB here; symmetrizing the opposite-spin
    # doubles may hold one more (L_up, L_down) = (420, 420) float array
    peak = _repeat_build_peak(
        "random_integrals(7, 3, 3, seed=13, zero_share=0.5)",
        "MolecularIntegrals(7, 3, 3, 0.7, 1.25 * first.one_body, 1.25 * first.two_body)",
    )
    assert peak <= 2_740_000 + 420 * 420 * 8


@pytest.mark.parametrize("name", ["h2_sto3g", "h2_stretched"])
def test_sector_matrix_is_bit_identical_on_h2(name):
    ints = load_integrals(name)
    ours = sector_matrix(ints)
    ref = sector_matrix_by_determinant(ints, ints.sector)
    assert np.array_equal(ours.indptr, ref.indptr)
    assert np.array_equal(ours.indices, ref.indices)
    assert ours.data.tobytes() == ref.data.tobytes()


def _noisy_integrals():
    """Random (6,3,2) integrals with 1e-13 noise: symmetric only to within
    the container's tolerance, so almost every raw entry differs from its
    transpose and the symmetrizing sum sees both."""
    ints = random_integrals(6, 3, 2, seed=11)
    rng = np.random.default_rng(1)
    return MolecularIntegrals(
        6, 3, 2, ints.e_nuc, ints.one_body + 1e-13 * rng.standard_normal((6, 6)),
        ints.two_body + 1e-13 * rng.standard_normal((6,) * 4),
    )


REFERENCE_CASES = {
    **{_case_id(case): (lambda case=case: _case_integrals(case))
       for case in SECTOR_CASES + SYNTHETIC_SECTORS},
    "zeros-0.5": lambda: random_integrals(7, 3, 3, seed=13, zero_share=0.5),
    "zeros-0.8": lambda: random_integrals(7, 3, 3, seed=13, zero_share=0.8),
    "scan-7-3-3": lambda: scan_integrals(1.0),
    "scan-7-4-3": lambda: scan_integrals(1.0, 7, 4, 3),
    "scan-8-4-4": lambda: scan_integrals(1.0, 8, 4, 4),
    "noisy-6-3-2": _noisy_integrals,
}


def _copy(ints, scale=1.0):
    return MolecularIntegrals(*ints.sector, ints.e_nuc, scale * ints.one_body,
                              scale * ints.two_body)


def assert_same_matrix(got, want):
    assert got.shape == want.shape and got.has_canonical_format
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_sector_matrix_is_bit_identical_to_the_sparse_sum_reference(name):
    ints = REFERENCE_CASES[name]()
    want = oracles.sector_matrix_reference(ints)
    fock_module._pattern.cache_clear()
    assert_same_matrix(sector_matrix(ints), want)  # cold: the pattern is sorted
    assert_same_matrix(sector_matrix(_copy(ints)), want)  # warm: one gather
    # another integral set of the sector, with other zeros, takes a second pattern
    sector_matrix(random_integrals(*ints.sector, seed=2, zero_share=0.5))
    assert_same_matrix(sector_matrix(_copy(ints)), want)
    if name == "noisy-6-3-2":  # symmetrizing with v alone must not pass
        raw = oracles._sector_entries(ints, ints.sector).tocsr()
        assert (raw != raw.T).nnz > 30_000


def test_reverse_rows_are_the_adjoint_replacements():
    for m, k, order in ((5, 2, 1), (5, 2, 2), (6, 3, 2), (7, 3, 1), (4, 4, 1)):
        t = _replacements(m, k, order)
        assert t.rev.dtype == np.int32
        assert np.array_equal(t.rev[t.rev], np.arange(t.src.size))
        assert np.array_equal(t.src[t.rev], t.tgt) and np.array_equal(t.tgt[t.rev], t.src)
        assert np.array_equal(t.holes[t.rev], t.particles)
        assert np.array_equal(t.particles[t.rev], t.holes)
        assert np.array_equal(t.sign[t.rev], t.sign)


def test_concurrent_builds_of_a_new_sector_match_the_reference():
    # cli --jobs sweeps build sector matrices from pool threads; more
    # builders than cores race on one new pattern
    made = [scan_integrals(s) for s in (0.3, 0.7, 1.3, 6.0)]
    want = [oracles.sector_matrix_reference(ints) for ints in made]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            fock_module._pattern.cache_clear()
            fresh = [_copy(ints) for ints in made]
            start = threading.Barrier(len(fresh))

            def build(ints):
                start.wait(timeout=60)
                return sector_matrix(ints)

            with ThreadPoolExecutor(max_workers=len(fresh)) as pool:
                together = list(pool.map(build, fresh, timeout=60))
            for got, ref in zip(together, want, strict=True):
                assert_same_matrix(got, ref)
    finally:
        sys.setswitchinterval(interval)


def test_replacement_tables_are_read_only():
    tables = [_replacements(5, 2, order) for order in (1, 2)]
    arrays = [_spin_words(5, 2)] + [arr for t in tables for arr in t]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    assert _replacements(5, 2, 1) is tables[0]


def test_entry_cap_admits_m9_and_refuses_m10():
    assert _entry_count(7, 3, 3) == 251_125
    assert _entry_count(9, 4, 4) == 8_906_436 <= _ENTRY_CAP
    assert _entry_count(10, 4, 4) > _ENTRY_CAP


def test_oversized_sector_build_is_refused_before_allocating():
    ints = random_integrals(10, 5, 5, seed=10)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="55629504 entries"):
        sector_matrix(ints)
    assert time.perf_counter() - start < 1.0


def test_single_orbital_energy_is_closed_form():
    ints = load_integrals("he_minimal")
    sl = exact_eigenpairs(ints, k=1)
    assert sl.eigenvalues[0] == pytest.approx(2 * (-1.85) + 1.05, abs=1e-12)


@pytest.mark.parametrize("name", ["h2_sto3g", "heh_like", "h3_plus", "h4_toy"])
def test_exact_eigenpairs_match_oracle(name):
    ints = load_integrals(name)
    dim = ints.sector_dimension
    sl = exact_eigenpairs(ints, k=dim)
    ref_vals, _ = oracles.sector_fci(
        ints.e_nuc, ints.one_body, ints.two_body, ints.num_up, ints.num_down
    )
    np.testing.assert_allclose(sl.eigenvalues, ref_vals, atol=1e-10)
    # residual check on every returned pair
    for val, vec in zip(sl.eigenvalues, sl.eigenvectors):
        resid = apply_hamiltonian(ints, vec).amplitudes - val * vec.amplitudes
        assert np.linalg.norm(resid) < 1e-9
    # the spectral measure of a complex vector: the same eigenvalues, and the
    # squared overlaps of its normalized amplitudes with each eigenvector
    rng = np.random.default_rng(9)
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    energies, weights = spectral_measure(ints, FockVector(ints.sector, 2.0 * amp))
    assert np.array_equal(energies, sl.eigenvalues)
    want = [abs(np.vdot(vec.amplitudes, amp)) ** 2 / np.vdot(amp, amp).real
            for vec in sl.eigenvectors]
    np.testing.assert_allclose(weights, want, rtol=0, atol=1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the dense eigensystem, one eigh per spin-flip block


def check_block_spectrum(ints):
    """_eigensystem against one dense eigh of the same sector matrix."""
    mat = sector_matrix(ints).toarray()
    ref_vals, ref_vecs = np.linalg.eigh(mat)
    vals, vecs = _eigensystem(ints)
    norm = float(np.max(np.abs(ref_vals)))
    assert np.max(np.abs(vals - ref_vals)) <= 1e-12
    assert np.all(np.diff(vals) >= 0)
    assert np.max(np.linalg.norm(mat @ vecs - vecs * vals, axis=0)) <= 1e-12 * norm
    assert np.max(np.abs(vecs.T @ vecs - np.eye(vals.size))) <= 1e-12
    return vals, vecs, ref_vals, ref_vecs


def flip(ints, vecs):
    """Swap the spin strings of every column: the transpose of the
    (down, up) rank grid."""
    n = math.comb(ints.num_orbitals, ints.num_up)
    return vecs.reshape(n, n, -1).transpose(1, 0, 2).reshape(vecs.shape)


def check_flip_parity(ints, vecs):
    parity = np.sum(flip(ints, vecs) * vecs, axis=0)
    assert np.allclose(np.abs(parity), 1.0, atol=1e-12)
    assert np.max(np.abs(flip(ints, vecs) - vecs * np.sign(parity))) <= 1e-12
    n = math.comb(ints.num_orbitals, ints.num_up)
    assert np.sum(parity > 0) == n * (n + 1) // 2


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_block_spectrum_matches_dense_eigh_on_fixtures(name):
    ints = load_integrals(name)
    _, vecs, _, _ = check_block_spectrum(ints)
    check_flip_parity(ints, vecs)


@pytest.mark.parametrize("counts", [(2, 0), (0, 2), (1, 0), (2, 1), (1, 2), (3, 1)])
def test_spin_polarized_sectors_are_one_unchanged_block(h3_plus, counts):
    ints = MolecularIntegrals(3, *counts, h3_plus.e_nuc, h3_plus.one_body, h3_plus.two_body)
    vals, vecs, ref_vals, ref_vecs = check_block_spectrum(ints)
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(vecs, ref_vecs)


@pytest.mark.parametrize(
    "sector",
    [(2, 0, 0), (3, 1, 1), (3, 3, 3), (4, 2, 2), (5, 1, 1), (5, 2, 2), (4, 3, 1), (5, 3, 2)],
)
def test_block_spectrum_matches_dense_eigh_on_random_sectors(sector):
    for seed in (1, 2):
        ints = random_integrals(*sector, seed=seed)
        vals, vecs, ref_vals, ref_vecs = check_block_spectrum(ints)
        if sector[1] == sector[2]:
            check_flip_parity(ints, vecs)
        else:
            assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)


def serial_eigensystem(ints):
    """The spin-flip assembly one block after the other on this thread:
    U^T H U summed over H's entries, symmetrized, eigh, vectors mapped back
    and sorted by eigenvalue."""
    mat = sector_matrix(ints)
    rows, cols = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)), mat.indices
    vals, vecs = [], []
    for col, weight, size in _flip_blocks(ints.sector):
        block = np.bincount(col[rows] * size + col[cols], weight[rows] * weight[cols] * mat.data,
                            minlength=size * size).reshape(size, size)
        w, y = np.linalg.eigh((block + block.T) * 0.5)
        vals.append(w)
        vecs.append(weight[:, None] * y[col])
    vals, vecs = np.concatenate(vals), np.concatenate(vecs, axis=1)
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def assert_same_bits(got, want):
    (vals, vecs), (want_vals, want_vecs) = got, want
    assert vecs.flags.f_contiguous
    assert vals.tobytes() == want_vals.tobytes()
    assert vecs.dtype == want_vecs.dtype and np.array_equal(vecs, want_vecs)
    assert np.array_equal(np.signbit(vecs), np.signbit(want_vecs))


@pytest.mark.parametrize("sector", [(3, 2, 1), (5, 3, 2), (6, 4, 3), (7, 4, 3)])
def test_one_block_sectors_skip_the_block_assembly_bit_for_bit(sector, monkeypatch):
    # the spin-flip assembly on the identity block, as for a split sector
    ints = random_integrals(*sector, seed=sum(sector))
    want = serial_eigensystem(ints)

    def refuse(*args, **kwargs):
        raise AssertionError("one-block sector assembled")

    monkeypatch.setattr(np, "bincount", refuse)
    assert_same_bits(_eigensystem(ints), want)


@pytest.mark.parametrize(
    "make",
    [lambda: scan_integrals(0.3), lambda: scan_integrals(0.7), lambda: scan_integrals(1.3),
     lambda: scan_integrals(6.0), lambda: load_integrals("h4_toy"),
     lambda: random_integrals(4, 2, 2, seed=5), lambda: random_integrals(5, 2, 2, seed=6)],
    ids=["scan-0.3", "scan-0.7", "scan-1.3", "scan-6.0", "h4_toy", "random-4-2-2",
         "random-5-2-2"],
)
def test_concurrent_block_solves_match_the_serial_assembly_bit_for_bit(make):
    ints = make()
    assert len(_flip_blocks(ints.sector)) == 2
    assert_same_bits(_eigensystem(ints), serial_eigensystem(ints))


def test_odd_block_solves_on_the_worker_and_one_block_on_the_caller(monkeypatch):
    threads, built = [], []
    eigh, build = np.linalg.eigh, fock_module._block_matrix

    def record(a):
        threads.append((a.shape[0], threading.current_thread()))
        return eigh(a)

    def record_build(*args):
        built.append((args[-1], threading.current_thread()))
        return build(*args)

    monkeypatch.setattr(np.linalg, "eigh", record)
    monkeypatch.setattr(fock_module, "_block_matrix", record_build)
    caller = threading.current_thread()
    _eigensystem(random_integrals(4, 2, 2, seed=3))  # even block 21, odd 15
    solved_on = dict(threads)
    assert solved_on.keys() == {21, 15}
    assert solved_on[21] is caller and solved_on[15] is not caller
    assert dict(built) == solved_on  # each block is built where it is solved
    threads.clear()
    _eigensystem(random_integrals(4, 2, 1, seed=3))
    assert threads == [(24, caller)]


@pytest.mark.parametrize("size", [21, 15], ids=["even-fails", "odd-fails"])
def test_a_failed_block_solve_raises_and_leaves_the_worker_free(size, monkeypatch):
    # the two threads wait on each other's eigenvalues; a failure on either
    # side must reach the caller and must not leave the worker waiting
    eigh = np.linalg.eigh

    def refuse(a):
        if a.shape[0] == size:
            raise np.linalg.LinAlgError(f"refused block of {size}")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    pool = ThreadPoolExecutor(max_workers=1)  # so that a hang fails the test
    try:
        failed = pool.submit(_eigensystem, random_integrals(4, 2, 2, seed=7))  # blocks 21, 15
        with pytest.raises(np.linalg.LinAlgError, match=f"refused block of {size}"):
            failed.result(timeout=60)
        monkeypatch.undo()
        vals, _ = pool.submit(_eigensystem, random_integrals(4, 2, 2, seed=8)).result(timeout=60)
    finally:
        pool.shutdown(wait=False)
    assert vals.size == 36


def test_concurrent_callers_get_the_bits_of_one_at_a_time():
    # cli --jobs sweeps reach the eigensystem from pool threads, which share
    # the one worker that solves odd blocks
    stretches = (0.3, 0.8, 1.3, 6.0)
    alone = [_eigensystem(scan_integrals(s, m=6)) for s in stretches]
    fresh = [scan_integrals(s, m=6) for s in stretches]
    start = threading.Barrier(len(fresh))

    def solve(ints):
        start.wait()
        return _eigensystem(ints)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(fresh)) as pool:
            together = list(pool.map(solve, fresh, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(together, alone, strict=True):
        assert_same_bits(got, want)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_gets_its_own_block_worker():
    # the child inherits the executor but not its thread; without a new
    # one the child's first split-sector solve would wait forever
    _eigensystem(random_integrals(4, 2, 2, seed=1))
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child, which never returns
        code = 1
        try:
            signal.alarm(30)
            vals, _ = _eigensystem(random_integrals(4, 2, 2, seed=2))
            code = 0 if vals.size == 36 else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


@pytest.mark.parametrize("stretch", [0.3, 0.7, 1.3, 6.0])
def test_block_spectrum_matches_dense_eigh_on_the_scan_molecule(stretch):
    ints = scan_integrals(stretch)
    _, vecs, _, _ = check_block_spectrum(ints)
    check_flip_parity(ints, vecs)


def test_exact_eigenpairs_own_their_amplitudes(h4_toy):
    pairs = exact_eigenpairs(h4_toy, k=3).eigenvectors
    _, vecs = _eigensystem(h4_toy)
    for i, vec in enumerate(pairs):
        assert vec.amplitudes.flags.owndata
        assert np.array_equal(vec.amplitudes, vecs[:, i])


def test_a_whole_spectrum_slice_copies_no_vector_up_front():
    # copied up front, a k = dim slice of the 1225-dimensional scan molecule
    # would hold 24.6 MB of complex vectors; each is copied when indexed
    ints = scan_integrals(1.3)
    dim = ints.sector_dimension
    vals, vecs = _eigensystem(ints)  # warms the cache
    tracemalloc.start()
    try:
        spec = exact_eigenpairs(ints, k=dim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert np.array_equal(spec.eigenvalues, vals) and len(spec.eigenvectors) == dim
    last = spec.eigenvectors[-1]
    assert last.amplitudes.flags.owndata and np.array_equal(last.amplitudes, vecs[:, -1])
    assert [v.amplitudes[0] for v in spec.eigenvectors[2:5]] == list(vecs[0, 2:5])
    with pytest.raises(TypeError):
        spec.eigenvectors[0] = last
    with pytest.raises(IndexError):
        exact_eigenpairs(ints, k=3).eigenvectors[3]


def test_apply_hamiltonian_on_random_vector(h4_toy):
    rng = np.random.default_rng(7)
    dim = h4_toy.sector_dimension
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = FockVector(h4_toy.sector, amp)
    ref = oracles.sector_hamiltonian(
        h4_toy.e_nuc, h4_toy.one_body, h4_toy.two_body, 2, 2
    )
    got = apply_hamiltonian(h4_toy, v).amplitudes
    np.testing.assert_allclose(got, ref @ amp, atol=1e-10)


def test_apply_rejects_sector_mismatch(h2, h3_plus):
    v = FockVector(h2.sector, np.ones(4))
    with pytest.raises(ValidationError):
        apply_hamiltonian(h3_plus, v)


def test_evolve_real_matches_expm(h3_plus):
    rng = np.random.default_rng(11)
    dim = h3_plus.sector_dimension
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amp /= np.linalg.norm(amp)
    v = FockVector(h3_plus.sector, amp)
    ref_mat = oracles.sector_hamiltonian(
        h3_plus.e_nuc, h3_plus.one_body, h3_plus.two_body, 1, 1
    )
    for t in (0.3, 1.7):
        got = evolve_real(h3_plus, v, t)
        np.testing.assert_allclose(
            got.amplitudes, oracles.evolve_dense(ref_mat, amp, t), atol=1e-10
        )
        assert got.norm() == pytest.approx(1.0, abs=1e-12)
    # group property
    a = evolve_real(h3_plus, evolve_real(h3_plus, v, 0.4), 0.6)
    b = evolve_real(h3_plus, v, 1.0)
    assert np.linalg.norm(a.amplitudes - b.amplitudes) < 1e-12


def test_dense_spectrum_capacity_cap():
    m = 8
    ints = MolecularIntegrals(
        m, 4, 4, 0.0, np.zeros((m, m)), np.zeros((m, m, m, m))
    )
    assert ints.sector_dimension == 4900
    with pytest.raises(CapacityError):
        exact_eigenpairs(ints, k=1)
    with pytest.raises(CapacityError):
        spectral_measure(ints, FockVector(ints.sector, np.ones(4900)))


def test_inner_product_and_sector_guard(h2):
    configs = enumerate_configurations(2, 1, 1)
    a = basis_vector(h2.sector, configs[0])
    b = basis_vector(h2.sector, configs[1])
    assert inner(a, b) == 0
    assert inner(a, a) == 1
    with pytest.raises(ValidationError):
        inner(a, FockVector((3, 1, 1), np.zeros(9)))


def test_configuration_validation():
    with pytest.raises(ValidationError):
        Configuration(2, 4, 0)


@pytest.mark.parametrize(
    "sector,ladders",
    [
        ((3, 1, 1), ((2, True), (0, False))),  # hop within the up spin
        ((3, 1, 1), ((4, False),)),  # removes a down electron
        ((3, 2, 1), ((1, True), (5, True), (3, False), (0, False))),
        ((3, 1, 2), ((0, True), (0, False), (4, True))),  # kills most words
        ((3, 1, 1), ((1, True), (1, True))),  # adag adag = 0
    ],
)
def test_apply_ladders_matches_dense_ladder_products(sector, ladders):
    m = sector[0]
    rng = np.random.default_rng(11)
    dim = sector_dimension(*sector)
    block = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    modes, create = zip(*ladders)
    target, got = apply_ladders([modes], create, sector, block)
    got = got[0]  # a stack of one
    dense = np.eye(1 << (2 * m))
    for mode, create in ladders:
        cre = oracles.ladder_matrix(mode, 2 * m)
        dense = dense @ (cre if create else cre.T)
    rows = oracles.sector_words(*target)
    cols = oracles.sector_words(*sector)
    want = block @ dense[np.ix_(rows, cols)].T
    assert got.shape == (2, len(rows))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_apply_ladders_rejects_empty_targets():
    amp = np.ones(sector_dimension(2, 2, 0))
    with pytest.raises(ValidationError):
        apply_ladders([[0]], (True,), (2, 2, 0), amp)
    with pytest.raises(ValidationError):
        apply_ladders([[4]], (True,), (2, 1, 0), np.ones(2))
    with pytest.raises(ValidationError):
        apply_ladders(np.zeros((1, 0)), (), (2, 1, 0), np.ones(3))


def test_caches_die_with_their_integrals(monkeypatch):
    patterns, cached = [], fock_module._pattern

    def pattern(sector, masks):
        patterns.append(((sector, masks), cached(sector, masks)))
        return patterns[-1][1]

    monkeypatch.setattr(fock_module, "_pattern", pattern)
    ints = load_integrals("h2_sto3g")
    mat = sector_matrix(ints)
    assert sector_matrix(ints) is mat
    exact_eigenpairs(ints, k=1)
    assert jordan_wigner(ints) is jordan_wigner(ints)
    alive = weakref.ref(ints)
    del ints
    gc.collect()
    assert alive() is None
    # the pattern cache is keyed by the sector and the mask bytes, and
    # holds int arrays only: nothing of the integral values
    [((sector, masks), found)] = patterns
    assert sector == (2, 1, 1) and type(masks) is bytes
    assert all(arr.dtype == np.int32 and not arr.flags.writeable for arr in found)


def test_matrices_share_their_pattern_read_only():
    ints = scan_integrals(0.9)
    mat, again = sector_matrix(ints), sector_matrix(_copy(ints, 1.1))
    assert np.shares_memory(mat.indices, again.indices)
    assert not np.shares_memory(mat.data, again.data)
    with pytest.raises(ValueError):
        mat.indices[0] = mat.indices[0]
    with pytest.raises(ValueError):
        mat.indptr[0] = mat.indptr[0]
    # canonical flags: scipy never sorts or merges the shared indices in place
    assert mat.has_sorted_indices and mat.has_canonical_format
    dense = oracles.sector_matrix_reference(ints).toarray()
    v = np.random.default_rng(3).standard_normal(mat.shape[0])
    assert np.array_equal(mat.toarray(), dense)
    assert np.array_equal(mat.T.toarray(), dense.T)
    assert np.array_equal(mat.diagonal(), np.diag(dense))
    np.testing.assert_allclose(mat @ v, dense @ v, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mat.T @ v, dense @ v, rtol=0, atol=1e-12)
    vals, _ = _eigensystem(ints)  # the two flip blocks read the shared indices
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(dense), rtol=0, atol=1e-10)
