"""Integral container, FCIDUMP round trips, active space, ERI factorization."""

import numpy as np
import pytest

import oracles
from oracles import restrict_active_space
from conftest import FIXTURE_NAMES, load_integrals
from qsubspace.errors import DecompositionError, ParseError, ValidationError
from qsubspace.integrals import (
    MolecularIntegrals,
    cholesky_decompose_eri,
    effective_one_body,
    parse_fcidump,
    serialize_fcidump,
)


def test_parse_header_and_sector(h2):
    assert h2.num_orbitals == 2
    assert h2.num_up == 1 and h2.num_down == 1
    assert h2.e_nuc == pytest.approx(0.713753950, abs=0)
    assert h2.sector == (2, 1, 1)
    assert h2.sector_dimension == 4


def test_eightfold_unfolding_on_assignment():
    text = "\n".join(
        [
            "&FCI NORB=3,NELEC=2,MS2=0,",
            "&END",
            " 0.25  2 1 3 1",
            " -1.0  1 1 0 0",
            " 0.5   0 0 0 0",
        ]
    )
    ints = parse_fcidump(text)
    g = ints.two_body
    p, r, q, s = 1, 0, 2, 0
    expected = [
        (p, r, q, s), (r, p, q, s), (p, r, s, q), (r, p, s, q),
        (q, s, p, r), (s, q, p, r), (q, s, r, p), (s, q, r, p),
    ]
    for idx in expected:
        assert g[idx] == 0.25
    assert np.count_nonzero(g) == len(set(expected))
    assert ints.one_body[0, 0] == -1.0
    assert ints.e_nuc == 0.5


def test_ms2_splits_spin_counts():
    text = "&FCI NORB=3,NELEC=3,MS2=1,\n&END\n -1.0 1 1 0 0\n"
    ints = parse_fcidump(text)
    assert (ints.num_up, ints.num_down) == (2, 1)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_serialize_round_trip_is_bitwise(name):
    first = load_integrals(name)
    text = serialize_fcidump(first)
    second = parse_fcidump(text)
    assert second.sector == first.sector
    assert second.e_nuc == first.e_nuc
    assert np.array_equal(second.one_body, first.one_body)
    assert np.array_equal(second.two_body, first.two_body)


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_fcidump("no header at all\n")
    with pytest.raises(ParseError, match="NELEC"):
        parse_fcidump("&FCI NORB=2,NELEC=3,MS2=0,\n&END\n")
    bad_line = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n 1.0 1 1\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_fcidump(bad_line)
    out_of_range = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n 1.0 3 1 1 1\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_fcidump(out_of_range)


def test_container_validation():
    eye = np.eye(2)
    g = np.zeros((2, 2, 2, 2))
    with pytest.raises(ValidationError):
        MolecularIntegrals(2, 3, 1, 0.0, eye, g)  # too many electrons
    with pytest.raises(ValidationError):
        MolecularIntegrals(2, 1, 1, 0.0, np.array([[0.0, 1.0], [0.0, 0.0]]), g)
    bad = g.copy()
    bad[0, 1, 0, 0] = 0.3  # no symmetry partners
    with pytest.raises(ValidationError):
        MolecularIntegrals(2, 1, 1, 0.0, eye, bad)


def test_frozen_core_matches_projected_hamiltonian(h4_toy):
    # freezing orbital 0 must reproduce the full Hamiltonian projected onto
    # determinants with that orbital doubly occupied
    ints = h4_toy
    reduced = restrict_active_space(ints, core=[0], active=[1, 2, 3])
    assert reduced.sector == (3, 1, 1)

    full = oracles.sector_hamiltonian(
        ints.e_nuc, ints.one_body, ints.two_body, ints.num_up, ints.num_down
    )
    words = oracles.sector_words(4, ints.num_up, ints.num_down)
    keep = [
        i
        for i, w in enumerate(words)
        if (w & 1) and (w >> 4) & 1  # orbital 0 occupied in both spins
    ]
    projected = np.linalg.eigvalsh(full[np.ix_(keep, keep)])

    small = oracles.sector_hamiltonian(
        reduced.e_nuc, reduced.one_body, reduced.two_body, 1, 1
    )
    assert small.shape == (9, 9)
    np.testing.assert_allclose(np.linalg.eigvalsh(small), projected, atol=1e-10)


def test_frozen_core_with_deleted_virtual(h4_toy):
    ints = h4_toy
    reduced = restrict_active_space(ints, core=[0], active=[1, 2])
    full = oracles.sector_hamiltonian(
        ints.e_nuc, ints.one_body, ints.two_body, ints.num_up, ints.num_down
    )
    words = oracles.sector_words(4, ints.num_up, ints.num_down)
    keep = [
        i
        for i, w in enumerate(words)
        if (w & 1) and (w >> 4) & 1 and not (w & 8) and not (w >> 4) & 8
    ]
    projected = np.linalg.eigvalsh(full[np.ix_(keep, keep)])
    small = oracles.sector_hamiltonian(
        reduced.e_nuc, reduced.one_body, reduced.two_body, 1, 1
    )
    np.testing.assert_allclose(np.linalg.eigvalsh(small), projected, atol=1e-10)


def test_restrict_active_space_validation(h4_toy):
    with pytest.raises(ValidationError):
        restrict_active_space(h4_toy, core=[0], active=[0, 1])
    with pytest.raises(ValidationError):
        restrict_active_space(h4_toy, core=[0, 1, 2], active=[3])
    with pytest.raises(ValidationError):
        restrict_active_space(h4_toy, core=[], active=[7])


@pytest.mark.parametrize("name", ["h2_sto3g", "heh_like", "h3_plus", "h4_toy"])
def test_cholesky_reconstructs_pair_matrix(name):
    ints = load_integrals(name)
    tol = 1e-10
    fac = cholesky_decompose_eri(ints, tol=tol)
    m = ints.num_orbitals
    v = ints.two_body.reshape(m * m, m * m) / 2.0
    rebuilt = np.zeros_like(v)
    for ell in fac.factors:
        flat = ell.reshape(-1)
        rebuilt += np.outer(flat, flat)
    assert np.max(np.abs(v - rebuilt)) <= tol
    for ell in fac.factors:
        np.testing.assert_allclose(ell, ell.T, atol=1e-12)
    assert fac.num_factors <= m * m


def test_cholesky_rejects_indefinite_tensor():
    g = np.zeros((1, 1, 1, 1))
    g[0, 0, 0, 0] = -0.5
    ints = MolecularIntegrals(1, 1, 0, 0.0, np.array([[-1.0]]), g)
    with pytest.raises(DecompositionError):
        cholesky_decompose_eri(ints, tol=1e-8)


@pytest.mark.parametrize("name", ["h2_sto3g", "heh_like"])
def test_one_body_correction_completes_the_square(name):
    # H = e_nuc + J1hat + sum_g (Lhat^g)^2 must hold as dense matrices
    ints = load_integrals(name)
    fac = cholesky_decompose_eri(ints, tol=1e-12)
    j1 = effective_one_body(ints, fac)
    m = ints.num_orbitals
    total = ints.e_nuc * np.eye(4**m) + oracles.one_body_fock_operator(j1, m)
    for ell in fac.factors:
        lhat = oracles.one_body_fock_operator(ell, m)
        total = total + lhat @ lhat
    expected = oracles.full_hamiltonian(ints.e_nuc, ints.one_body, ints.two_body)
    assert np.max(np.abs(total - expected)) < 1e-9
