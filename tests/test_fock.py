"""Configuration bases and sparse sector Hamiltonians vs dense ladder algebra."""

import gc
import weakref

import numpy as np
import pytest

import oracles
from conftest import load_integrals
from qsubspace.errors import CapacityError, ValidationError
from qsubspace.fock import (
    Configuration,
    FockVector,
    apply_hamiltonian,
    apply_ladders,
    basis_vector,
    configuration_index,
    enumerate_configurations,
    evolve_imag,
    evolve_real,
    exact_eigenpairs,
    hamiltonian_diagonal,
    inner,
    reference_configuration,
    sector_dimension,
    sector_matrix,
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


def test_evolve_imag_matches_expm(h2_stretched):
    rng = np.random.default_rng(13)
    dim = h2_stretched.sector_dimension
    amp = rng.standard_normal(dim) + 0j
    amp /= np.linalg.norm(amp)
    v = FockVector(h2_stretched.sector, amp)
    ref_mat = oracles.sector_hamiltonian(
        h2_stretched.e_nuc, h2_stretched.one_body, h2_stretched.two_body, 1, 1
    )
    got, norm = evolve_imag(h2_stretched, v, 0.8)
    ref_vec, ref_norm = oracles.imaginary_evolve_dense(ref_mat, amp, 0.8)
    assert norm == pytest.approx(ref_norm, rel=1e-12)
    np.testing.assert_allclose(got.amplitudes, ref_vec, atol=1e-10)
    assert got.norm() == pytest.approx(1.0, abs=1e-12)


def test_dense_spectrum_capacity_cap():
    m = 8
    ints = MolecularIntegrals(
        m, 4, 4, 0.0, np.zeros((m, m)), np.zeros((m, m, m, m))
    )
    assert ints.sector_dimension == 4900
    with pytest.raises(CapacityError):
        exact_eigenpairs(ints, k=1)


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
    target, got = apply_ladders(ladders, sector, block)
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
        apply_ladders(((0, True),), (2, 2, 0), amp)
    with pytest.raises(ValidationError):
        apply_ladders(((4, True),), (2, 1, 0), np.ones(2))
    with pytest.raises(ValidationError):
        apply_ladders((), (2, 1, 0), np.ones(3))


def test_caches_die_with_their_integrals():
    ints = load_integrals("h2_sto3g")
    mat = sector_matrix(ints)
    assert sector_matrix(ints) is mat
    exact_eigenpairs(ints, k=1)
    assert jordan_wigner(ints) is jordan_wigner(ints)
    alive = weakref.ref(ints)
    del ints
    gc.collect()
    assert alive() is None
