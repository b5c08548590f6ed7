"""Quantum subspace builders: expansions, time grids, filters, spectra."""

import copy
import functools
import gc
import math
import pathlib
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest
import scipy.linalg

import qsubspace.engine as engine_module
import qsubspace.quantum as quantum_module
import qsubspace.qubits as qubits_module
from qsubspace import cli
from conftest import FIXTURE_NAMES, fixture_path, load_integrals, scan_integrals
from oracles import (
    apply_pauli_terms,
    dense_pauli_sum,
    evolve_dense,
    full_hamiltonian,
    imaginary_evolve_dense,
    ladder_matrix,
    reference_qite_step,
    sector_hamiltonian,
    sector_words,
)
from qsubspace.classical import power_krylov
from qsubspace.engine import (
    Statevector,
    apply_pauli_sum,
    distance,
    expectation,
    statevector_from_fock,
)
from qsubspace.errors import (
    CapacityError,
    DataError,
    RescalingError,
    StepError,
    ValidationError,
)
from qsubspace.fock import (
    FockVector,
    apply_ladders,
    basis_vector,
    evolve_real,
    exact_eigenpairs,
    matvec,
    reference_configuration,
    sector_dimension,
    sector_matrix,
    sector_word_indices,
)
from qsubspace.geev import SubspaceProblem, eigenvalue_roundoff, solve
from qsubspace.integrals import MolecularIntegrals, cholesky_decompose_eri
from qsubspace.qubits import PauliString, jordan_wigner, pauli_keys, string_table
from qsubspace.quantum import (
    QfdGrid,
    chebyshev_krylov_build,
    epperly_qfd_bound,
    fast_forward,
    gaussian_power_build,
    qeom_build,
    qeom_pool,
    qfd_build,
    qite_pool,
    qite_step,
    qlanczos_build,
    qse_build,
    qse_pool,
    qse_recipe,
    response_function,
    spectral_weights,
)


def dense_sector(ints):
    return sector_hamiltonian(
        ints.e_nuc, ints.one_body, ints.two_body, ints.num_up, ints.num_down
    )


def random_vector(ints, seed, offset=0.3):
    rng = np.random.default_rng(seed)
    dim = sector_dimension(*ints.sector)
    amp = rng.standard_normal(dim) + offset
    return FockVector(ints.sector, amp / np.linalg.norm(amp))


def hf_statevector(ints):
    return statevector_from_fock(
        basis_vector(ints.sector, reference_configuration(ints))
    )


def full_spectrum(ints):
    return exact_eigenpairs(ints, k=sector_dimension(*ints.sector))


def scaled_integrals(ints, s):
    return MolecularIntegrals(
        ints.num_orbitals,
        ints.num_up,
        ints.num_down,
        ints.e_nuc * s,
        ints.one_body * s,
        ints.two_body * s,
    )


# ---------------------------------------------------------------------------
# expansion subspaces


class TestQse:
    def test_pool_sizes(self):
        assert len(qse_pool(2, "S")) == 1 + 8
        # 2 same-spin doubles + 16 opposite-spin doubles for m = 2
        assert len(qse_pool(2, "SD")) == 1 + 8 + 18
        with pytest.raises(ValidationError):
            qse_pool(2, "SDT")

    def test_fci_reference_recovers_ground(self, h2):
        spec = exact_eigenpairs(h2, k=1)
        state = statevector_from_fock(spec.eigenvectors[0])
        sol = solve(qse_build(state, h2, level="SD"), eps=1e-10)
        assert abs(sol.eigenvalues[0] - spec.eigenvalues[0]) < 1e-9

    @pytest.mark.parametrize(
        "name", ["h2_sto3g", "h2_stretched", "heh_like", "h3_plus"]
    )
    def test_sd_exact_for_two_electrons(self, name):
        ints = load_integrals(name)
        e_fci = exact_eigenpairs(ints, k=1).eigenvalues[0]
        sol = solve(qse_build(hf_statevector(ints), ints, level="SD"), eps=1e-10)
        assert abs(sol.eigenvalues[0] - e_fci) < 1e-9

    @pytest.mark.parametrize("name", ["h2_sto3g", "heh_like"])
    def test_singles_keep_mean_field_energy(self, name):
        # canonical orbitals: the reference is stationary against singles
        ints = load_integrals(name)
        state = hf_statevector(ints)
        e_ref = float(expectation(jordan_wigner(ints), state).real)
        sol = solve(qse_build(state, ints, level="S"), eps=1e-10)
        assert abs(sol.eigenvalues[0] - e_ref) < 1e-9

    def test_budget_exceeded_raises(self, h2):
        state = hf_statevector(h2)
        with pytest.raises(CapacityError):
            qse_build(state, h2, level="SD", budget=10)

    def test_recipe_budget_is_the_pauli_product_count(self, h2):
        # |H| sum_b |P_b| products for the images H P_b, plus
        # (1 + |H|) |P_a||P_b| for each entry pair a <= b
        state = hf_statevector(h2)
        sizes = [len(op.to_pauli()) for op in qse_pool(h2.num_orbitals, "SD")]
        terms = len(jordan_wigner(h2))
        pairs = sum(
            sizes[a] * sizes[b] for a in range(len(sizes)) for b in range(a, len(sizes))
        )
        cost = terms * sum(sizes) + (1 + terms) * pairs
        qse_recipe(state, h2, level="SD", budget=cost)
        with pytest.raises(CapacityError, match=str(cost)):
            qse_recipe(state, h2, level="SD", budget=cost - 1)

    @pytest.mark.parametrize("name", ["h3_plus", "h4_toy"])
    def test_sd_recipe_beyond_the_budget(self, name):
        # 7.0e7 (h3_plus) and 2.7e9 (h4_toy) string products: refused before
        # any product is taken
        ints = load_integrals(name)
        with pytest.raises(CapacityError, match="Pauli string products"):
            qse_recipe(hf_statevector(ints), ints, level="SD")

    @staticmethod
    def per_pair_recipe(ints, level):
        """qse_recipe's string table (keys, x, z) and entries (const,
        indices, coeffs) with every product formed on its own."""
        paulis = [op.to_pauli() for op in qse_pool(ints.num_orbitals, level)]
        ham = jordan_wigner(ints)
        dags = [p.dagger() for p in paulis]
        h_images = [ham * p for p in paulis]
        split = {}
        for a in range(len(paulis)):
            for b in range(a, len(paulis)):
                split[("s", a, b)] = (dags[a] * paulis[b]).split_identity()
                split[("h", a, b)] = (dags[a] * h_images[b]).split_identity()
        x, z = (np.concatenate([getattr(sm, c) for _, sm in split.values()]) for c in "xz")
        keys, first = np.unique(pauli_keys(x, z), return_index=True)
        entries = {
            key: (const, np.searchsorted(keys, sm.keys), sm.coeffs)
            for key, (const, sm) in split.items()
        }
        return (keys, x[first], z[first]), entries

    @staticmethod
    def assert_same_recipe(recipe, table, entries):
        def bits(values):
            return np.asarray(values, dtype=complex).reshape(-1).view(np.uint64)

        (job,) = recipe.jobs
        for got, want in zip((job.strings.keys, job.strings.x, job.strings.z), table):
            assert np.array_equal(got, want)
        assert list(recipe.entries) == list(entries)
        assert list(recipe.entries.values()) == list(range(len(entries)))  # a row each
        mat = recipe.matrix
        assert mat.indices.dtype == mat.indptr.dtype == np.int32
        for (key, (const, indices, coeffs)), row in zip(entries.items(), recipe.entries.values()):
            lo, hi = mat.indptr[row], mat.indptr[row + 1]
            assert np.array_equal(bits(recipe.const[row]), bits(const)), key
            assert np.array_equal(mat.indices[lo:hi], indices), key
            assert np.array_equal(bits(mat.data[lo:hi]), bits(coeffs)), key

    @pytest.mark.parametrize(
        "name, level",
        [(name, "S") for name in FIXTURE_NAMES]
        + [(name, "SD") for name in FIXTURE_NAMES if name not in ("h3_plus", "h4_toy")],
    )
    def test_recipe_products_equal_the_per_pair_products(self, name, level):
        ints = load_integrals(name)
        recipe = qse_recipe(hf_statevector(ints), ints, level)
        self.assert_same_recipe(recipe, *self.per_pair_recipe(ints, level))

    @pytest.mark.parametrize("name, level, cancelled", [("h2_sto3g", "SD", 220), ("h3_plus", "S", 30)])
    def test_recipe_products_straddle_block_cuts(self, name, level, cancelled, monkeypatch):
        # blocks of a few products, so an entry's s and h products and the
        # runs of entries that cancel to nothing fall on both sides of cuts
        ints = load_integrals(name)
        table, entries = self.per_pair_recipe(ints, level)
        monkeypatch.setattr(qubits_module, "_BLOCK_TERMS", 40)
        recipe = qse_recipe(hf_statevector(ints), ints, level)
        self.assert_same_recipe(recipe, table, entries)
        empty = (np.diff(recipe.matrix.indptr) == 0) & (recipe.const == 0)
        assert np.count_nonzero(empty) == cancelled

    @pytest.mark.parametrize(
        "name, peak, kept",
        [("h3_plus", 3_548_850, 1_711_457), ("h4_toy", 43_577_352, 22_030_352)],
        ids=["h3_plus", "h4_toy"],
    )
    def test_recipe_keeps_the_build_peak(self, name, peak, kept):
        # tracemalloc peak of qse_recipe level S in a fresh interpreter, and
        # the size kept with the recipe held; the bounds are the lowest of
        # eleven runs with the products written straight into the recipe's
        # one CSR matrix, plus 8 kB, since runs spread by up to about 5 kB.
        # They were read with bytecode caches written by compileall (as
        # perfbench/run.py writes them), which read about 25 kB above caches
        # written on import
        root = pathlib.Path(__file__).resolve().parent.parent
        code = textwrap.dedent(f"""
            import sys, tracemalloc
            sys.path[:0] = [{str(root / "src")!r}, {str(root / "tests")!r}]
            from conftest import load_integrals
            from test_quantum import hf_statevector, qse_recipe
            ints = load_integrals({name!r})
            state = hf_statevector(ints)
            tracemalloc.start()
            recipe = qse_recipe(state, ints, "S")
            print(*tracemalloc.get_traced_memory())
        """)
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        got_kept, got_peak = map(int, run.stdout.split())
        assert got_peak <= peak + 8_000
        assert got_kept <= kept + 8_000

    def test_problem_passes_geev_validation(self, h2):
        state = statevector_from_fock(random_vector(h2, 5))
        prob = qse_build(state.normalized(), h2, level="SD")
        assert prob.provenance["method"] == "qse"
        sol = solve(prob, eps=1e-10)
        assert np.all(np.isfinite(sol.eigenvalues))


def dense_monomial(op, num_modes):
    """Dense matrix of an excitation operator, from its kind, orbitals and
    spins: adag_{a s} a_{i s}, or adag_{a s} adag_{b t} a_{j t} a_{i s}."""
    m = op.num_orbitals
    cre = lambda p, s: ladder_matrix(p + s * m, num_modes)  # noqa: E731
    if op.kind == "identity":
        return np.eye(1 << num_modes)
    if op.kind == "single":
        (a, i), (s,) = op.orbitals, op.spins
        return cre(a, s) @ cre(i, s).T
    (a, b, i, j), (s, t) = op.orbitals, op.spins
    return cre(a, s) @ cre(b, t) @ cre(j, t).T @ cre(i, s).T


class TestSectorPath:
    @pytest.mark.parametrize("name", ["h2_sto3g", "h3_plus", "h4_toy"])
    def test_ladders_match_pauli_images_on_the_sector(self, name):
        ints = load_integrals(name)
        sector = ints.sector
        states = [random_vector(ints, seed, offset=0.0) for seed in (1, 2)]
        inside = sector_word_indices(sector)
        full = np.arange(1 << (2 * ints.num_orbitals))
        for op in qse_pool(ints.num_orbitals, "SD"):
            image = op.to_pauli()
            adjoint = tuple((mode, not create) for mode, create in reversed(op.ladders))
            for ladders, pauli in ((op.ladders, image), (adjoint, image.dagger())):
                modes, create = zip(*ladders) if ladders else ((), ())
                for v in states:
                    out_sector, (got,) = apply_ladders([modes], create, sector, v.amplitudes)
                    assert out_sector == sector
                    want = apply_pauli_sum(pauli, statevector_from_fock(v)).amplitudes
                    assert np.max(np.abs(got - want[inside])) <= 1e-14
                    # what the Pauli image puts outside the sector is roundoff
                    assert np.max(np.abs(want[~np.isin(full, inside)])) <= 1e-14

    @pytest.mark.parametrize("name", ["h3_plus", "heh_like"])
    def test_qeom_blocks_match_dense_commutators(self, name):
        ints = load_integrals(name)
        m = ints.num_orbitals
        nmodes = 2 * m
        ham = full_hamiltonian(ints.e_nuc, ints.one_body, ints.two_body)
        words = sector_words(m, ints.num_up, ints.num_down)
        _, vecs = np.linalg.eigh(ham[np.ix_(words, words)])
        ref = np.zeros(1 << nmodes, dtype=complex)
        ref[words] = vecs[:, 0]
        blocks, _ = qeom_build(FockVector(ints.sector, ref[sector_word_indices(ints.sector)]),
                               ints)
        assert blocks.dropped == 0
        ops = [dense_monomial(op, nmodes) for op in blocks.pool]

        def bracket(a, b):
            return a @ b - b @ a

        def mean(mat):
            return complex(np.vdot(ref, mat @ ref))

        want = {name: np.empty((len(ops), len(ops)), dtype=complex) for name in "MQVW"}
        for i, fi in enumerate(ops):
            for j, fj in enumerate(ops):
                want["V"][i, j] = mean(bracket(fi.T, fj))
                want["W"][i, j] = -mean(bracket(fi.T, fj.T))
                want["M"][i, j] = mean(bracket(fi.T, bracket(ham, fj)))
                want["Q"][i, j] = -mean(bracket(fi.T, bracket(ham, fj.T)))
        for key, got in (
            ("M", blocks.mmat), ("Q", blocks.qmat), ("V", blocks.vmat), ("W", blocks.wmat)
        ):
            assert np.max(np.abs(got - want[key])) <= 1e-12, key

    def test_expansion_builders_stay_off_the_qubit_register(self, h3_plus, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("qubit-register path used")

        monkeypatch.setattr(quantum_module, "jordan_wigner", refuse)
        monkeypatch.setattr(quantum_module, "apply_pauli_sum", refuse)
        ground = exact_eigenpairs(h3_plus, k=1).eigenvectors[0]
        qse_build(statevector_from_fock(ground), h3_plus, level="SD")
        qeom_build(ground, h3_plus)
        qeom_build(ground, h3_plus, tda=True)

    @pytest.mark.parametrize("name", ["h4_toy", "h3_plus"])
    def test_real_sector_products_equal_the_complex_product(self, name, monkeypatch):
        # fock.matvec applies the real sector matrix to the real and
        # imaginary parts apart; scipy's complex product must give the same bits
        ints = load_integrals(name)
        ref = basis_vector(ints.sector, reference_configuration(ints))
        state = statevector_from_fock(ref)
        got_qse = qse_build(state, ints, level="S")
        got_eom, _ = qeom_build(ref, ints)
        monkeypatch.setattr(quantum_module, "matvec", lambda mat, v: mat @ v)
        want_qse = qse_build(state, ints, level="S")
        want_eom, _ = qeom_build(ref, ints)
        for got, want in ((got_qse.hmat, want_qse.hmat), (got_qse.smat, want_qse.smat)):
            assert got.tobytes() == want.tobytes()
        for key in ("vmat", "wmat", "mmat", "qmat"):
            assert getattr(got_eom, key).tobytes() == getattr(want_eom, key).tobytes(), key

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_stacked_ladders_equal_the_per_monomial_loop(self, name):
        ints = load_integrals(name)
        sector, m = ints.sector, ints.num_orbitals
        phi = random_vector(ints, 3)
        vector = phi.amplitudes * (1 + 0.5j)
        block = np.stack([vector, matvec(sector_matrix(ints), vector)])  # qeom's (2, dim)
        for pool in (qse_pool(m, "SD"), qeom_pool(m)):
            for adjoint in (False, True):
                for amp in (vector, block):
                    got = quantum_module._pool_images(pool, sector, amp, adjoint)
                    loop = []
                    for op in pool:
                        ladders = op.ladders
                        if adjoint:
                            ladders = tuple((mode, not c) for mode, c in reversed(ladders))
                        modes, create = zip(*ladders) if ladders else ((), ())
                        loop.append(apply_ladders([modes], create, sector, amp)[1][0])
                    assert np.array_equal(got, np.array(loop).reshape(got.shape))

    def test_stacked_ladders_reject_a_stack_leaving_the_sector_or_mixing_targets(self):
        full = (2, 2, 1)
        with pytest.raises(ValidationError, match="outside"):
            # a third up electron on two orbitals
            apply_ladders([[0], [1]], (True,), full, np.ones(sector_dimension(*full)))
        sector = (3, 2, 1)
        amp = np.ones(sector_dimension(*sector))
        with pytest.raises(ValidationError, match="more than one target"):
            # an up hop beside an up-to-down transfer
            apply_ladders([[1, 0], [4, 0]], (True, False), sector, amp)
        with pytest.raises(ValidationError):
            apply_ladders([[1, 0]], (True,), sector, amp)  # table wider than the pattern


class TestRealPencils:
    """Pencils whose imaginary parts are exactly zero are stored and solved
    in float64; each exact eigenvalue then stays within its reported
    roundoff floor of the complex-arithmetic solve of the same pencil."""

    EXACT_RUNS = (
        ("lanczos",), ("power-krylov",), ("chebyshev",), ("gaussian-power",), ("qse",),
        ("qfd",), ("qlanczos",), ("qlanczos", "--mode", "qite", "--n", "2"),
    )

    @staticmethod
    def solved(name, method, *flags):
        path = str(fixture_path(name))
        args = cli.build_parser().parse_args([method, "--input", path, "--out", ".", *flags])
        cfg, explicit = cli.merge_config(args, {})
        ints = load_integrals(name)
        cfg = cli.resolve_config(cfg, ints, explicit)
        return cli._pencil(cfg, ints)[:2]

    @staticmethod
    def complex_twin(prob):
        """The same pencil, stored in complex128 with its own overlap spectrum."""
        twin = copy.copy(prob)
        twin.hmat, twin.smat = prob.hmat.astype(complex), prob.smat.astype(complex)
        twin.overlap_spectrum = np.linalg.eigh(twin.smat)
        return twin

    def test_real_pencils_are_float64_while_qfd_and_sampled_stay_complex(self, h3_plus):
        state = hf_statevector(h3_plus)
        v0 = basis_vector(h3_plus.sector, reference_configuration(h3_plus))
        real = [
            qse_build(state, h3_plus, level="SD"),
            power_krylov(h3_plus, v0, 3),
            chebyshev_krylov_build(v0, h3_plus, 3, (-3.0, 3.0)),
            qlanczos_build(v0, h3_plus, 0.5, 3),
            qlanczos_build(v0, h3_plus, 0.5, 3, mode="qite"),
        ]
        for prob in real:
            assert prob.hmat.dtype == prob.smat.dtype == np.float64, prob.provenance
        blocks, _ = qeom_build(v0, h3_plus)
        for key in ("mmat", "qmat", "vmat", "wmat"):
            assert getattr(blocks, key).dtype == np.float64
        assert qfd_build(v0, h3_plus, QfdGrid(0.4, 3)).hmat.dtype == np.complex128
        for method, *flags in (("qfd",), ("qse", "--level", "S")):
            prob, _ = self.solved("h3_plus", method, *flags, "--shots", "1000", "--seed", "1")
            assert prob.noisy and prob.hmat.dtype == prob.smat.dtype == np.complex128

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_exact_eigenvalues_within_their_floor_of_the_complex_solve(self, name):
        for run in self.EXACT_RUNS:
            if name == "he_minimal" and "qite" in run:
                continue  # its qite rotation pool is empty
            prob, sol = self.solved(name, *run)
            floor = eigenvalue_roundoff(prob, sol)
            want = solve(self.complex_twin(prob), sol.eps)
            assert sol.retained_dim == want.retained_dim, run
            assert np.all(np.abs(sol.eigenvalues - want.eigenvalues) <= floor), run
            assert np.all(floor > 0), run

    @pytest.mark.parametrize("name", ["h2_sto3g", "heh_like", "h3_plus", "h4_toy"])
    def test_qeom_gaps_within_their_floor_of_the_complex_solve(self, name):
        ints = load_integrals(name)
        ground = exact_eigenpairs(ints, k=1).eigenvectors[0]
        blocks, gaps = qeom_build(ground, ints)
        twin = copy.copy(blocks)
        for key in ("mmat", "qmat", "vmat", "wmat"):
            setattr(twin, key, getattr(blocks, key).astype(complex))
        twin.report = {}
        want = quantum_module._eom_energies(twin, tda=False)
        floor = np.array(blocks.report["gap_roundoff"])
        assert floor.shape == gaps.shape == want.shape
        assert np.all(np.abs(gaps - want) <= floor)


class TestQeom:
    @pytest.mark.parametrize("name", ["h2_sto3g", "heh_like", "h3_plus"])
    def test_gaps_match_fci(self, name):
        ints = load_integrals(name)
        spec = full_spectrum(ints)
        blocks, energies = qeom_build(spec.eigenvectors[0], ints)
        gaps = spec.eigenvalues[1:] - spec.eigenvalues[0]
        pos = energies[energies > 1e-8]
        k = min(3, len(gaps))
        assert np.allclose(pos[:k], gaps[:k], atol=1e-7)

    def test_block_structure(self, h2):
        blocks, _ = qeom_build(exact_eigenpairs(h2, k=1).eigenvectors[0], h2)
        p = blocks.size
        assert blocks.mmat.shape == (p, p) and blocks.qmat.shape == (p, p)
        np.testing.assert_allclose(
            blocks.vmat, blocks.vmat.conj().T, atol=1e-12
        )
        np.testing.assert_allclose(
            blocks.mmat, blocks.mmat.conj().T, atol=1e-12
        )
        # W_IJ = -<[F+_I, F+_J]> flips sign under I <-> J
        np.testing.assert_allclose(blocks.wmat.T, -blocks.wmat, atol=1e-12)

    def test_shift_invariance(self, h2):
        # commutators kill any constant added to H
        shifted = MolecularIntegrals(
            2, 1, 1, h2.e_nuc + 7.3, h2.one_body, h2.two_body
        )
        state = exact_eigenpairs(h2, k=1).eigenvectors[0]
        _, base = qeom_build(state, h2)
        _, moved = qeom_build(state, shifted)
        np.testing.assert_allclose(base, moved, atol=1e-10)

    def test_commuting_pool_gives_zero_excitations(self):
        # H = -0.7 N commutes with every number-conserving excitation, so
        # M = Q = 0 and the pencil takes its zero branch
        ints = MolecularIntegrals(2, 1, 1, 0.5, -0.7 * np.eye(2), np.zeros((2, 2, 2, 2)))
        dim = sector_dimension(*ints.sector)
        state = FockVector(ints.sector, np.full(dim, 1.0 / math.sqrt(dim)))
        blocks, energies = qeom_build(state, ints)
        assert blocks.size > 0
        assert not blocks.mmat.any() and not blocks.qmat.any()
        assert not energies.any() and energies.size == blocks.size
        assert blocks.report["paired"] == blocks.report["pool_size"] == blocks.size

    def test_tda_matches_full_on_lowest_gap(self, h2):
        state = exact_eigenpairs(h2, k=1).eigenvectors[0]
        _, full = qeom_build(state, h2)
        _, tda = qeom_build(state, h2, tda=True)
        lowest_full = full[full > 1e-8][0]
        lowest_tda = tda[tda > 1e-8][0]
        assert abs(lowest_full - lowest_tda) < 1e-6

    @pytest.mark.parametrize("name", ["h2_sto3g", "heh_like", "h3_plus", "h4_toy"])
    def test_tda_keeps_the_positive_norm_half(self, name):
        # at the exact ground state the reduced metric V is indefinite; the
        # eigenvectors of negative norm x^+ V x mirror the gaps and are dropped
        ints = load_integrals(name)
        state = exact_eigenpairs(ints, k=1).eigenvectors[0]
        _, full = qeom_build(state, ints)
        blocks, tda = qeom_build(state, ints, tda=True)
        assert 2 * tda.size == blocks.report["num_finite"]
        assert np.all(tda > 0)
        np.testing.assert_allclose(tda[:3], full[:3], atol=1e-8)

    @pytest.mark.parametrize("name,pairs", [("h3_plus", 8), ("h4_toy", 35)])
    def test_pairs_survive_one_ulp_perturbations_of_the_ground_state(self, name, pairs):
        # h4_toy's smallest kept metric eigenvalue is 1.3e-7, so roundoff in
        # the blocks moves its gaps by up to 1e-7; h3_plus's is 2.0, and
        # its pairs differ by a few ulp
        ints = load_integrals(name)
        ground = exact_eigenpairs(ints, k=1).eigenvectors[0].amplitudes.real
        rng = np.random.default_rng(29)
        for trial in range(21):
            toward = np.where(rng.random(ground.size) < 0.5, -np.inf, np.inf)
            amp = np.nextafter(ground, toward) if trial else ground
            blocks, _ = qeom_build(FockVector(ints.sector, amp), ints)
            assert blocks.report["paired"] == pairs == blocks.report["num_finite"] // 2

    @pytest.mark.parametrize("name", ["h2_sto3g", "h4_toy"])
    def test_broken_pencil_symmetry_reports_fewer_pairs(self, name, monkeypatch):
        ints = load_integrals(name)
        state = exact_eigenpairs(ints, k=1).eigenvectors[0]
        eig = scipy.linalg.eig
        rng = np.random.default_rng(3)

        def broken(a, b, **kwargs):
            # a Hermitian 1e-3 perturbation of the reduced pencil's left
            # side breaks the +- pairing of its eigenvalues
            e = rng.standard_normal(a.shape)
            e = (e + e.T) / 2
            return eig(a + 1e-3 * e / np.linalg.norm(e, 2), b, **kwargs)

        blocks, _ = qeom_build(state, ints)
        pairs = blocks.report["num_finite"] // 2
        assert blocks.report["paired"] == pairs
        monkeypatch.setattr(scipy.linalg, "eig", broken)
        blocks, _ = qeom_build(state, ints)
        assert blocks.report["num_finite"] // 2 == pairs
        assert blocks.report["paired"] < pairs

    @pytest.mark.parametrize("name", ["h2_sto3g", "h4_toy"])
    @pytest.mark.parametrize("factor", [10.0, 0.1])
    def test_pair_tolerance_flags_a_shift_just_above_it(self, name, factor, monkeypatch):
        # (A + d W, W) has every eigenvalue of (A, W) moved by d, so every
        # pair's distance by 2d: 2d = 10 x the largest pair tolerance must
        # flag every pair, 2d = 0.1 x the smallest must flag none
        ints = load_integrals(name)
        state = exact_eigenpairs(ints, k=1).eigenvectors[0]
        eig = scipy.linalg.eig

        def shifted(a, b, **kwargs):
            wk = np.abs(np.diag(b))
            vals = np.sort(eig(a, b, right=False).real)
            upper = vals[vals.size - vals.size // 2 :]
            unit = wk.size * np.finfo(float).eps / wk.min()
            tol = 2 * unit * (np.linalg.norm(a, 2) + np.abs(upper) * wk.max())
            d = factor * (tol.max() if factor > 1 else tol.min()) / 2
            return eig(a + d * b, b, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eig", shifted)
        blocks, _ = qeom_build(state, ints)
        pairs = blocks.report["num_finite"] // 2
        assert pairs > 0
        assert blocks.report["paired"] == (0 if factor > 1 else pairs)

    def test_entangled_reference_degenerate_metric(self, h2_stretched):
        # open-shell singlet: excitation and de-excitation overlaps cancel
        state = exact_eigenpairs(h2_stretched, k=1).eigenvectors[0]
        with pytest.raises(DataError):
            qeom_build(state, h2_stretched)

    def test_pool_drops_diagonal_operators(self):
        assert all(
            op.orbitals[0] != op.orbitals[1]
            for op in qeom_pool(2)
            if op.kind == "single"
        )


# ---------------------------------------------------------------------------
# real-time grids


class TestQfd:
    def test_single_point_is_rayleigh(self, h2):
        v0 = random_vector(h2, 3)
        prob = qfd_build(v0, h2, QfdGrid(0.5, 1))
        ray = float(
            np.real(v0.amplitudes.conj() @ dense_sector(h2) @ v0.amplitudes)
        )
        np.testing.assert_allclose(prob.smat, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(prob.hmat, [[ray]], atol=1e-10)

    def test_exact_backend_toeplitz(self, h2):
        v0 = random_vector(h2, 7)
        prob = qfd_build(v0, h2, QfdGrid(0.3, 5))
        for mat, tol in ((prob.smat, 1e-12), (prob.hmat, 1e-10)):
            for k in range(5):
                band = np.diag(mat, k)
                assert np.max(np.abs(band - mat[0, k])) < tol

    def test_matches_direct_exponential_gram(self, h2):
        # independent route: scipy expm snapshots, explicit Gram
        import scipy.linalg

        v0 = random_vector(h2, 9)
        dt, n = 0.4, 4
        prob = qfd_build(v0, h2, QfdGrid(dt, n))
        mat = dense_sector(h2)
        snaps = [
            scipy.linalg.expm(-1j * dt * a * mat) @ v0.amplitudes for a in range(n)
        ]
        smat = np.array([[np.vdot(x, y) for y in snaps] for x in snaps])
        hmat = np.array([[np.vdot(x, mat @ y) for y in snaps] for x in snaps])
        np.testing.assert_allclose(prob.smat, smat, atol=1e-10)
        np.testing.assert_allclose(prob.hmat, hmat, atol=1e-10)

    def test_epperly_bound_holds(self, h3_plus):
        v0 = random_vector(h3_plus, 13)
        e0 = exact_eigenpairs(h3_plus, k=1).eigenvalues[0]
        errors = []
        for n in range(2, 9):
            report = epperly_qfd_bound(h3_plus, v0, n)
            prob = qfd_build(v0, h3_plus, QfdGrid(report["dt"], n))
            err = solve(prob, eps=1e-12).eigenvalues[0] - e0
            assert err <= report["bound"] + 1e-12
            errors.append(err)
        # convergence: later grids never do worse than the first
        assert errors[-1] <= errors[0] + 1e-12

    def test_trotter_backend_approaches_exact(self, h2):
        v0 = random_vector(h2, 7)
        exact = qfd_build(v0, h2, QfdGrid(0.3, 4))
        devs = []
        for substeps in (1, 2, 4):
            grid = QfdGrid(0.3, 4, backend="trotter", substeps=substeps)
            approx = qfd_build(v0, h2, grid)
            devs.append(float(np.max(np.abs(approx.hmat - exact.hmat))))
        assert devs[0] > devs[1] > devs[2]

    def test_trotter_plan_is_built_once_per_integral_set(self, monkeypatch):
        # a dt sweep factors the ERIs once, and the plan dies with its integrals
        calls = []

        def counting(ints, *args, **kwargs):
            calls.append(ints)
            return cholesky_decompose_eri(ints, *args, **kwargs)

        monkeypatch.setattr(quantum_module, "cholesky_decompose_eri", counting)
        ints = load_integrals("h2_sto3g")
        v0 = random_vector(ints, 7)
        for dt in (0.2, 0.4, 0.8):
            qfd_build(v0, ints, QfdGrid(dt, 3, backend="trotter", substeps=2))
        assert len(calls) == 1
        calls.clear()
        alive = weakref.ref(ints)
        del ints
        gc.collect()
        assert alive() is None

    def test_small_time_step_approaches_power_krylov(self, h2):
        v0 = random_vector(h2, 11, offset=0.5)
        target = solve(power_krylov(h2, v0, 3), eps=1e-12).eigenvalues[0]
        gaps = []
        for dt in (0.2, 0.1, 0.05):
            sol = solve(qfd_build(v0, h2, QfdGrid(dt, 3)), eps=1e-12)
            gaps.append(abs(sol.eigenvalues[0] - target))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            QfdGrid(0.0, 3)
        with pytest.raises(ValidationError):
            QfdGrid(0.1, 0)
        with pytest.raises(ValidationError):
            QfdGrid(0.1, 3, backend="adiabatic")

    def test_bound_report_fields(self, h2):
        v0 = random_vector(h2, 3)
        report = epperly_qfd_bound(h2, v0, 4)
        dim = sector_dimension(*h2.sector)
        assert report["l_index"] == dim - 1
        spec = full_spectrum(h2)
        gap = spec.eigenvalues[dim - 1] - spec.eigenvalues[0]
        assert abs(report["dt"] - math.pi / gap) < 1e-12

    def test_bound_on_a_one_state_sector_names_the_sector(self):
        # no excited level can set dt; the message must not name an
        # l_index the caller never gave
        ints = load_integrals("he_minimal")
        assert ints.sector_dimension == 1
        v0 = basis_vector(ints.sector, reference_configuration(ints))
        for l_index in (None, 1):
            with pytest.raises(ValidationError) as err:
                epperly_qfd_bound(ints, v0, 4, l_index)
            assert str(err.value) == "the sector has one state, so no excited level can set dt"


# ---------------------------------------------------------------------------
# imaginary-time grids


class TestQlanczos:
    def test_single_snapshot_is_rayleigh(self, h2):
        v0 = random_vector(h2, 3)
        prob = qlanczos_build(v0, h2, 0.5, 1)
        ray = float(
            np.real(v0.amplitudes.conj() @ dense_sector(h2) @ v0.amplitudes)
        )
        np.testing.assert_allclose(prob.smat, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(prob.hmat, [[ray]], atol=1e-10)

    def test_overlap_identity_vs_direct_norms(self, h2):
        v0 = random_vector(h2, 7)
        dtau, n = 0.5, 4
        prob = qlanczos_build(v0, h2, dtau, n)
        mat = dense_sector(h2)
        snaps = [
            imaginary_evolve_dense(mat, v0.amplitudes, dtau * a)[0] if a else v0.amplitudes
            for a in range(n)
        ]
        direct = np.array([[float(np.vdot(x, y).real) for y in snaps] for x in snaps])
        np.testing.assert_allclose(prob.smat, direct, atol=1e-10)

    def test_exact_mode_reaches_fci(self, h2):
        v0 = random_vector(h2, 7)
        e0 = exact_eigenpairs(h2, k=1).eigenvalues[0]
        sol = solve(qlanczos_build(v0, h2, 0.5, 4), eps=1e-10)
        assert abs(sol.eigenvalues[0] - e0) < 1e-6

    def test_qite_mode_is_variational_above_noise_floor(self, h2):
        # unitary-approximate snapshots leak O(dtau^2) error into S and H;
        # thresholding above that floor keeps the estimate variational
        v0 = random_vector(h2, 7)
        spec = exact_eigenpairs(h2, k=1)
        ray = float(
            np.real(v0.amplitudes.conj() @ dense_sector(h2) @ v0.amplitudes)
        )
        prob = qlanczos_build(v0, h2, 0.2, 4, mode="qite")
        val = solve(prob, eps=1e-5).eigenvalues[0]
        assert spec.eigenvalues[0] - 1e-6 <= val <= ray + 1e-3

    def test_mode_validation(self, h2):
        with pytest.raises(ValidationError):
            qlanczos_build(random_vector(h2, 3), h2, 0.5, 2, mode="euler")


class TestQite:
    def test_eigenstate_is_fixed_point(self, h2):
        spec = exact_eigenpairs(h2, k=1)
        state = statevector_from_fock(spec.eigenvectors[0])
        new, energy, factor = qite_step(state, h2, 0.1)
        assert distance(new, state) < 1e-9
        assert abs(energy - spec.eigenvalues[0]) < 1e-9
        assert factor > 0

    def test_single_step_second_order(self, h2):
        v0 = random_vector(h2, 7)
        state = statevector_from_fock(v0)
        mat = dense_sector(h2)
        taus = [0.4, 0.2, 0.1, 0.05]
        errs = []
        for dtau in taus:
            new, _, _ = qite_step(state, h2, dtau)
            want, _ = imaginary_evolve_dense(mat, v0.amplitudes, dtau)
            want_sv = statevector_from_fock(FockVector(h2.sector, want))
            errs.append(float(np.linalg.norm(new.amplitudes - want_sv.amplitudes)))
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.2

    def test_complete_pool_matches_exact_ite(self):
        # all 15 non-identity strings on 2 qubits: the linear ansatz is
        # complete and a single small step lands on the exact ITE state
        ints = load_integrals("he_minimal")
        pool = tuple(
            PauliString(2, x, z) for x in range(4) for z in range(4) if x or z
        )
        rng = np.random.default_rng(23)
        amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = Statevector(2, amp / np.linalg.norm(amp))
        ham = jordan_wigner(ints)
        dense = dense_pauli_sum(2, [(c, s.letters) for c, s in ham.terms()])
        dtau = 1e-3
        new, _, _ = qite_step(state, ints, dtau, pool)
        want, _ = imaginary_evolve_dense(dense.real, state.amplitudes, dtau)
        assert distance(new, Statevector(2, want)) < 1e-8

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_pool_equals_the_per_operator_images(self, name):
        # the strings with nonzero weight in F - F^+, one operator at a time
        ints = load_integrals(name)
        masks = [np.zeros((2, 0), dtype=np.uint64)]
        for op in qeom_pool(ints.num_orbitals):
            f = op.to_pauli()
            g = f - f.dagger()
            masks.append(np.stack([g.x, g.z])[:, np.abs(g.coeffs) > 1e-12])
        keys = pauli_keys(*np.concatenate(masks, axis=1))
        assert qite_pool(ints) == string_table(2 * ints.num_orbitals, keys).strings

    def test_pool_strings_are_distinct_and_sorted(self, h2):
        pool = qite_pool(h2)
        letters = [s.letters for s in pool]
        assert letters == sorted(letters)
        assert len(set(letters)) == len(pool)

    def test_step_applies_h_twice(self, h2, monkeypatch):
        # H|phi> serves the old energy, the gradient and <H^2>; the second
        # application is the new state's energy
        calls = []
        original = engine_module.apply_pauli_sum

        def counted(h, s):
            calls.append(len(h))
            return original(h, s)

        monkeypatch.setattr(engine_module, "apply_pauli_sum", counted)
        monkeypatch.setattr(quantum_module, "apply_pauli_sum", counted)
        state = statevector_from_fock(random_vector(h2, 7))
        qite_step(state, h2, 0.05)
        assert calls == [len(jordan_wigner(h2))] * 2

    def test_energy_rise_is_rejected(self):
        # at dtau = 4 the linearized rotation overshoots: the energy of this
        # start rises, and the step raises instead of retrying a smaller one
        ints = load_integrals("h4_toy")
        rng = np.random.default_rng(7)
        dim = ints.sector_dimension
        amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = statevector_from_fock(FockVector(ints.sector, amp / np.linalg.norm(amp)))
        with pytest.raises(StepError, match="energy rose"):
            qite_step(state, ints, 4.0)

    @staticmethod
    def reference_inputs(ints):
        # the Hamiltonian's and the pool's masks, as reference_qite_step reads them
        ham, pool = jordan_wigner(ints), qite_pool(ints)
        return (ham.x, ham.z, ham.coeffs), ([p.x for p in pool], [p.z for p in pool])

    # From the real reference determinant every pool row P_m phi is
    # imaginary, so the real and the complex Gram products add the same
    # numbers. From a complex start they round differently, and the damped
    # solve (condition number about 1e9 on these fixtures) carries that into
    # the state: up to 5e-10 after three steps, as far as the complex Gram's
    # own answer lies from one with an extended-precision Gram.
    @pytest.mark.parametrize("name", ["h2_sto3g", "h3_plus", "h4_toy"])
    @pytest.mark.parametrize("start, tol", [("reference", 1e-13), ("random", 2e-9)])
    def test_steps_match_the_complex_gram_reference(self, name, start, tol):
        ints = load_integrals(name)
        if start == "reference":
            v0 = basis_vector(ints.sector, reference_configuration(ints))
        else:
            rng = np.random.default_rng(7)
            dim = ints.sector_dimension
            amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v0 = FockVector(ints.sector, amp / np.linalg.norm(amp))
        terms, masks = self.reference_inputs(ints)
        state = statevector_from_fock(v0)
        want = state.amplitudes
        for _ in range(3):
            state, energy, factor = qite_step(state, ints, 0.1)
            want, want_energy, want_factor = reference_qite_step(want, terms, masks, 0.1)
            assert np.max(np.abs(state.amplitudes - want)) <= tol
            assert abs(energy - want_energy) <= tol
            assert abs(factor - want_factor) <= tol

    @pytest.mark.parametrize("name", ["h2_sto3g", "h3_plus", "h4_toy"])
    def test_qite_pencil_matches_the_complex_gram_reference(self, name):
        # norms and energies at the half steps, as qlanczos_build records them
        ints = load_integrals(name)
        v0 = basis_vector(ints.sector, reference_configuration(ints))
        terms, masks = self.reference_inputs(ints)
        dtau, amp = 0.2, statevector_from_fock(v0).amplitudes
        norms, rayleigh = [1.0], [float(np.vdot(amp, apply_pauli_terms(*terms, amp)).real)]
        for _ in range(6):
            amp, energy, factor = reference_qite_step(amp, terms, masks, dtau / 2)
            norms.append(norms[-1] * factor)
            rayleigh.append(energy)
        norms, rayleigh = np.array(norms), np.array(rayleigh)
        for n in (2, 3, 4):
            idx = np.add.outer(np.arange(n), np.arange(n))
            full = norms[2 * np.arange(n)]
            smat = norms[idx] ** 2 / np.outer(full, full)
            if np.linalg.eigvalsh(smat)[0] < -1e-8:
                # on h2_sto3g the overlap is not a Gram matrix (ROADMAP item 1)
                with pytest.raises(DataError, match="overlap matrix has eigenvalue"):
                    qlanczos_build(v0, ints, dtau, n, mode="qite")
                continue
            prob = qlanczos_build(v0, ints, dtau, n, mode="qite")
            assert np.max(np.abs(prob.smat - smat)) <= 1e-13, n
            assert np.max(np.abs(prob.hmat - smat * rayleigh[idx])) <= 1e-13, n
            got = np.array(prob.provenance["norms"])
            assert np.max(np.abs(got - norms[:2 * n - 1])) <= 1e-13, n

    def test_one_orbital_gives_empty_pools(self):
        # no excitation exists: empty results (DataError), not a bad argument;
        # an empty pool handed to qite_step is still one
        ints = load_integrals("he_minimal")
        v0 = basis_vector(ints.sector, reference_configuration(ints))
        with pytest.raises(DataError, match="empty excitation pool"):
            qeom_build(v0, ints)
        with pytest.raises(DataError, match="empty rotation pool"):
            qlanczos_build(v0, ints, 0.2, 2, mode="qite")
        with pytest.raises(ValidationError, match="empty rotation pool"):
            qite_step(statevector_from_fock(v0), ints, 0.1, ())

    def test_norm_factor_tracks_ite_norm(self, h2):
        v0 = random_vector(h2, 7)
        state = statevector_from_fock(v0)
        dtau = 0.05
        _, _, factor = qite_step(state, h2, dtau)
        _, norm = imaginary_evolve_dense(dense_sector(h2), v0.amplitudes, dtau)
        assert abs(factor - norm) < 5 * dtau**3


# ---------------------------------------------------------------------------
# polynomial filters


class TestChebyshev:
    def bounds(self, ints, margin=0.5):
        spec = full_spectrum(ints)
        return float(spec.eigenvalues[0] - margin), float(
            spec.eigenvalues[-1] + margin
        )

    def test_first_moments(self, h2):
        v0 = random_vector(h2, 7)
        lo, hi = self.bounds(h2)
        prob = chebyshev_krylov_build(v0, h2, 3, (lo, hi))
        ray = float(
            np.real(v0.amplitudes.conj() @ dense_sector(h2) @ v0.amplitudes)
        )
        assert abs(prob.smat[0, 0] - 1.0) < 1e-12
        # T_1 moment: S_01 = f_1 = <v0|Hbar|v0>
        f1 = (2 * ray - (lo + hi)) / (hi - lo)
        assert abs(prob.smat[0, 1] - f1) < 1e-12
        assert abs(prob.hmat[0, 0] - ray) < 1e-10

    def test_eigenvector_cosine_moments(self, h2):
        spec = full_spectrum(h2)
        v0 = FockVector(h2.sector, spec.eigenvectors[1].amplitudes)
        lo, hi = self.bounds(h2)
        lam = (2 * spec.eigenvalues[1] - (lo + hi)) / (hi - lo)
        n = 4
        prob = chebyshev_krylov_build(v0, h2, n, (lo, hi))
        f = [math.cos(a * math.acos(lam)) for a in range(2 * n)]
        want = np.array(
            [[(f[a + b] + f[abs(a - b)]) / 2 for b in range(n)] for a in range(n)]
        )
        np.testing.assert_allclose(prob.smat, want, atol=1e-12)

    @pytest.mark.parametrize("name", ["h2_sto3g", "heh_like", "h3_plus"])
    def test_matches_power_krylov(self, name):
        ints = load_integrals(name)
        v0 = random_vector(ints, 11, offset=0.5)
        cheb = solve(
            chebyshev_krylov_build(v0, ints, 4, self.bounds(ints)), eps=1e-10
        )
        power = solve(power_krylov(ints, v0, 4), eps=1e-10)
        assert len(cheb.eigenvalues) == len(power.eigenvalues)
        np.testing.assert_allclose(cheb.eigenvalues, power.eigenvalues, atol=1e-7)

    def test_spectrum_outside_interval_raises(self, h2):
        spec = full_spectrum(h2)
        lo = float(spec.eigenvalues[0] + 0.2)
        hi = float(spec.eigenvalues[-1] - 0.2)
        with pytest.raises(RescalingError):
            chebyshev_krylov_build(random_vector(h2, 7), h2, 4, (lo, hi))


class TestGaussianPower:
    def test_zero_width_matches_power_moments(self, h2):
        # tau = 0 leaves the power basis (H - E_R)^a v0 about the Rayleigh
        # quotient E_R, built here from the dense sector matrix
        v0 = random_vector(h2, 7)
        mat = dense_sector(h2)
        ray = float(np.real(v0.amplitudes.conj() @ mat @ v0.amplitudes))
        shifted = mat - ray * np.eye(len(mat))
        basis = np.stack(
            [np.linalg.matrix_power(shifted, a) @ v0.amplitudes for a in range(3)], axis=1
        )
        prob = gaussian_power_build(v0, h2, 3, 0.0)
        np.testing.assert_allclose(prob.smat, basis.conj().T @ basis, atol=1e-12)
        np.testing.assert_allclose(prob.hmat, basis.conj().T @ mat @ basis, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_norm_bound_when_filter_is_wide(self, h2, scale):
        # ||v_{n-1}|| <= ((n-1)/(e tau^2))^{(n-1)/2} once e tau^2 >= n-1
        n = 4
        tau = math.sqrt(scale * (n - 1) / math.e)
        prob = gaussian_power_build(random_vector(h2, 7), h2, n, tau)
        bound = ((n - 1) / (math.e * tau**2)) ** ((n - 1) / 2)
        assert prob.provenance["basis_norms"][-1] <= bound + 1e-12

    @pytest.mark.parametrize("tau", [-0.5, math.nan])
    def test_width_must_be_a_non_negative_number(self, h2, tau):
        with pytest.raises(ValidationError, match="tau"):
            gaussian_power_build(random_vector(h2, 7), h2, 3, tau)

    def test_default_shift_is_rayleigh(self, h2):
        v0 = random_vector(h2, 7)
        ray = float(
            np.real(v0.amplitudes.conj() @ dense_sector(h2) @ v0.amplitudes)
        )
        prob = gaussian_power_build(v0, h2, 3, 0.7)
        assert abs(prob.provenance["e0"] - ray) < 1e-12

    def test_noise_spread_smaller_with_filter(self, h3_plus):
        # fixed absolute matrix noise: the bounded-norm basis keeps the
        # thresholded ground eigenvalue far more stable than raw powers
        ints = scaled_integrals(h3_plus, 3.0)
        ref = basis_vector(ints.sector, reference_configuration(ints))
        n, noise = 7, 1e-6
        tau = math.sqrt(2 * (n - 1) / math.e)
        filtered = gaussian_power_build(ref, ints, n, tau)
        raw = gaussian_power_build(ref, ints, n, 0.0)

        def iqr(prob):
            rng = np.random.default_rng(3)
            stds = np.full(prob.hmat.shape, noise)
            vals = []
            for _ in range(100):
                noisy = SubspaceProblem(
                    prob.hmat + rng.normal(0, noise, prob.hmat.shape),
                    prob.smat + rng.normal(0, noise, prob.smat.shape),
                    dict(prob.provenance),
                    hmat_std=stds,
                    smat_std=stds,
                )
                vals.append(solve(noisy, eps=1e-6).eigenvalues[0])
            q1, q3 = np.percentile(vals, [25, 75])
            return q3 - q1

        assert iqr(filtered) < iqr(raw)


# ---------------------------------------------------------------------------
# the exact filter builders against explicit basis vectors


def dense_filter_basis(method, mat, v):
    """Rows f_a(H) v for n = 3 built from the dense sector matrix, with the
    builder call that should reproduce their Gram pencil."""
    n = 3
    if method == "qfd":
        grid = QfdGrid(0.3, n)
        rows = [evolve_dense(mat, v, t) for t in grid.times()]
        return rows, lambda ints, v0: qfd_build(v0, ints, grid)
    if method == "qlanczos":
        rows = [imaginary_evolve_dense(mat, v, 0.4 * a)[0] for a in range(n)]
        return rows, lambda ints, v0: qlanczos_build(v0, ints, 0.4, n)
    if method == "gaussian-power":
        shifted = mat - np.vdot(v, mat @ v).real * np.eye(len(v))
        filtered = scipy.linalg.expm(-shifted @ shifted * 0.7**2 / 2) @ v
        rows = [np.linalg.matrix_power(shifted, a) @ filtered for a in range(n)]
        return rows, lambda ints, v0: gaussian_power_build(v0, ints, n, 0.7)
    if method == "power-krylov":
        rows = [np.linalg.matrix_power(mat, a) @ v for a in range(n)]
        return rows, lambda ints, v0: power_krylov(ints, v0, n)
    lam, vecs = np.linalg.eigh(mat)
    lo, hi = lam[0] - 0.5, lam[-1] + 0.5
    angle = np.arccos((2 * lam - lo - hi) / (hi - lo))
    rows = [vecs @ (np.cos(a * angle) * (vecs.T @ v)) for a in range(n)]
    return rows, lambda ints, v0: chebyshev_krylov_build(v0, ints, n, (lo, hi))


@functools.cache
def dense_fixture(name):
    ints = load_integrals(name)
    return ints, dense_sector(ints)


@pytest.mark.parametrize("method", ["qfd", "qlanczos", "gaussian-power", "power-krylov",
                                    "chebyshev"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_exact_filter_builders_match_dense_basis_vectors(name, method):
    ints, mat = dense_fixture(name)
    rng = np.random.default_rng(41)
    amp = rng.standard_normal(mat.shape[0]) + 1j * rng.standard_normal(mat.shape[0])
    amp /= np.linalg.norm(amp)
    rows, build = dense_filter_basis(method, mat, amp)
    basis = np.array(rows)
    prob = build(ints, FockVector(ints.sector, amp))
    for got, want in ((prob.smat, basis.conj() @ basis.T),
                      (prob.hmat, basis.conj() @ (mat @ basis.T))):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_dense_cap_ends_the_spectral_paths_only():
    # dimension 4900 > 4096: the moment recurrences still build, every
    # builder on the spectral measure refuses
    ints = scan_integrals(1.0, m=8, n_up=4, n_down=4)
    assert ints.sector_dimension == 4900
    v0 = basis_vector(ints.sector, reference_configuration(ints))
    assert power_krylov(ints, v0, 3).n == 3
    assert chebyshev_krylov_build(v0, ints, 3, (-60.0, 60.0)).n == 3
    for build in (
        lambda: qfd_build(v0, ints, QfdGrid(0.1, 3)),
        lambda: gaussian_power_build(v0, ints, 3, 1.0),
        lambda: qlanczos_build(v0, ints, 0.2, 3),
        lambda: epperly_qfd_bound(ints, v0, 3),
    ):
        with pytest.raises(CapacityError):
            build()


# ---------------------------------------------------------------------------
# derived spectra and fast-forwarding


def qfd_eigenbasis(ints, seed, n, dt=0.4):
    v0 = random_vector(ints, seed)
    sol = solve(qfd_build(v0, ints, QfdGrid(dt, n)), eps=1e-10)
    basis = [evolve_real(ints, v0, a * dt) for a in range(n)]
    return sol, basis


class TestResponse:
    def test_identity_response_single_peak(self, h2):
        sol, basis = qfd_eigenbasis(h2, 5, 6)
        ident = np.eye(h2.sector_dimension)
        omegas = np.linspace(-1.0, 1.0, 9)
        eta = 0.05
        got = response_function(sol, basis, ident, omegas, eta)
        want = (eta / math.pi) / (omegas**2 + eta**2)
        np.testing.assert_allclose(got.real, want, atol=1e-8)
        np.testing.assert_allclose(got.imag, 0.0, atol=1e-8)

    def test_peak_positions_are_fci_gaps(self, h2):
        sol, basis = qfd_eigenbasis(h2, 5, 6)
        spec = full_spectrum(h2)
        gaps, _ = spectral_weights(sol, basis, sector_matrix(h2))
        want = spec.eigenvalues - spec.eigenvalues[0]
        np.testing.assert_allclose(np.sort(gaps), want, atol=1e-8)

    def test_sum_rule_complete_subspace(self, h2):
        sol, basis = qfd_eigenbasis(h2, 5, 6)
        ham = sector_matrix(h2)
        _, weights = spectral_weights(sol, basis, ham)
        spec = full_spectrum(h2)
        image = matvec(ham, spec.eigenvectors[0].amplitudes)
        norm2 = float(np.vdot(image, image).real)
        assert abs(float(np.sum(weights).real) - norm2) < 1e-8
        assert abs(float(np.sum(weights).imag)) < 1e-8

    def test_broadening_validation(self, h2):
        sol, basis = qfd_eigenbasis(h2, 5, 3)
        with pytest.raises(ValidationError):
            response_function(sol, basis, sector_matrix(h2), [0.0], 0.0)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_cli_probe_weights_match_dense_probes(self, name):
        # the spectrum method's ham and occ:P probes against the dense
        # sector Hamiltonian and occupation count of the full Fock space
        ints = load_integrals(name)
        m = ints.num_orbitals
        sol, basis = qfd_eigenbasis(ints, 5, 6)
        idx = sector_words(m, ints.num_up, ints.num_down)
        count = sum(c @ c.T for c in (ladder_matrix(p, 2 * m) for p in (m - 1, 2 * m - 1)))
        eigen = sol.coefficients.T @ np.stack([b.amplitudes for b in basis])
        for op, dense in (("ham", dense_sector(ints)), (f"occ:{m - 1}", count[np.ix_(idx, idx)])):
            _, got = spectral_weights(sol, basis, cli._probe_operator(op, ints))
            want = np.abs(eigen.conj() @ (dense @ eigen[0])) ** 2
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestFastForward:
    def contained_setup(self, ints, k=3):
        spec = full_spectrum(ints)
        amp = np.sum([spec.eigenvectors[i].amplitudes for i in range(k)], axis=0)
        v0 = FockVector(ints.sector, amp / np.linalg.norm(amp))
        dt = 0.6
        sol = solve(qfd_build(v0, ints, QfdGrid(dt, k)), eps=1e-10)
        basis = [evolve_real(ints, v0, a * dt) for a in range(k)]
        return spec, v0, sol, basis

    def test_t_zero_is_projection(self, h2):
        _, v0, sol, basis = self.contained_setup(h2)
        result = fast_forward(sol, basis, v0, 0.0)
        assert result.projection_weight > 1 - 1e-10
        assert not result.low_weight
        got = statevector_from_fock(result.state)
        assert distance(got, statevector_from_fock(v0)) < 1e-8

    def test_contained_state_evolves_exactly(self, h2):
        _, v0, sol, basis = self.contained_setup(h2)
        result = fast_forward(sol, basis, v0, 100.0)
        want = evolve_real(h2, v0, 100.0)
        got = statevector_from_fock(result.state)
        assert distance(got, statevector_from_fock(want)) < 1e-6

    def test_fidelity_bounded_by_leaked_weight(self, h2):
        spec, _, sol, basis = self.contained_setup(h2)
        mix = np.array([0.6, 0.5, 0.4, 0.48])
        amp = np.sum(
            [c * spec.eigenvectors[i].amplitudes for i, c in enumerate(mix)],
            axis=0,
        )
        target = FockVector(h2.sector, amp / np.linalg.norm(amp))
        result = fast_forward(sol, basis, target, 17.0)
        weight = result.projection_weight
        assert weight < 1.0
        want = evolve_real(h2, target, 17.0)
        overlap = 1.0 - distance(
            statevector_from_fock(result.state), statevector_from_fock(want)
        )
        assert overlap**2 >= weight**2 - 1e-9

    def test_low_weight_flagged(self, h2):
        spec, _, sol, basis = self.contained_setup(h2)
        amp = spec.eigenvectors[3].amplitudes + 0.1 * spec.eigenvectors[0].amplitudes
        target = FockVector(h2.sector, amp / np.linalg.norm(amp))
        result = fast_forward(sol, basis, target, 1.0)
        assert result.projection_weight < 0.5
        assert result.low_weight

    def test_zero_vector_rejected(self, h2):
        _, _, sol, basis = self.contained_setup(h2)
        dim = sector_dimension(*h2.sector)
        with pytest.raises(ValidationError):
            fast_forward(sol, basis, FockVector(h2.sector, np.zeros(dim)), 1.0)


# ---------------------------------------------------------------------------
# cross-builder invariants


@pytest.mark.parametrize("builder", ["qse", "qfd", "qlanczos", "chebyshev", "gauss"])
def test_builders_produce_solvable_problems(h2, builder):
    v0 = random_vector(h2, 31)
    spec = full_spectrum(h2)
    if builder == "qse":
        prob = qse_build(statevector_from_fock(v0), h2, level="SD")
    elif builder == "qfd":
        prob = qfd_build(v0, h2, QfdGrid(0.3, 4))
    elif builder == "qlanczos":
        prob = qlanczos_build(v0, h2, 0.4, 4)
    elif builder == "chebyshev":
        lo = float(spec.eigenvalues[0] - 0.5)
        hi = float(spec.eigenvalues[-1] + 0.5)
        prob = chebyshev_krylov_build(v0, h2, 4, (lo, hi))
    else:
        prob = gaussian_power_build(v0, h2, 4, 0.8)
    sol = solve(prob, eps=1e-10)
    # every subspace contains v0, so the ground estimate is variational up
    # to the first-order roundoff of the thresholded pencil,
    # u (||H|| + |E| ||S||) ||y||^2 for the returned coefficient vector y
    energy, y = sol.eigenvalues[0], sol.coefficients[:, 0]
    scale = np.linalg.norm(prob.hmat, 2) + abs(energy) * np.linalg.norm(prob.smat, 2)
    margin = np.finfo(float).eps * scale * np.vdot(y, y).real
    assert spec.eigenvalues[0] - margin <= energy
    assert np.all(np.diff(sol.eigenvalues) >= -1e-12)
