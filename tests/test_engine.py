"""Statevector kernels, string-space factors, and product-formula steps."""

import numpy as np
import pytest
import scipy.linalg

import oracles
from conftest import FIXTURE_NAMES, load_integrals, random_integrals
from qsubspace.engine import (
    Statevector,
    apply_pauli,
    apply_pauli_exponential,
    apply_pauli_sum,
    distance,
    expectation,
    fock_from_statevector,
    inner,
    prepare_configuration,
    statevector_from_fock,
    trotter_plan,
    trotter_step,
)
from qsubspace.errors import DataError, ValidationError
from qsubspace.fock import (
    Configuration,
    FockVector,
    basis_vector,
    enumerate_configurations,
    evolve_real,
    string_operator,
)
from qsubspace.integrals import (
    CholeskyFactors,
    MolecularIntegrals,
    cholesky_decompose_eri,
    effective_one_body,
)
from qsubspace.qubits import PauliString, jordan_wigner, pauli_sum


def random_state(rng, nq):
    amp = rng.standard_normal(1 << nq) + 1j * rng.standard_normal(1 << nq)
    return Statevector(nq, amp / np.linalg.norm(amp))


def test_prepare_configuration_index():
    c = Configuration(2, occ_up=2, occ_down=1)
    s = prepare_configuration(c)
    assert s.num_qubits == 4
    assert s.amplitudes[c.word] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_fock_embedding_round_trip(h3_plus):
    rng = np.random.default_rng(5)
    sector = h3_plus.sector
    dim = h3_plus.sector_dimension
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = FockVector(sector, amp)
    s = statevector_from_fock(v)
    assert s.norm() == pytest.approx(v.norm(), rel=1e-12)
    back = fock_from_statevector(s, sector)
    np.testing.assert_array_equal(back.amplitudes, v.amplitudes)
    # every configuration lands on its combined word with amplitude +1
    for config in enumerate_configurations(*sector):
        e = statevector_from_fock(basis_vector(sector, config))
        assert e.amplitudes[config.word] == 1.0


def test_fock_projection_guards_leakage():
    vacuum = np.zeros(16, dtype=complex)
    vacuum[0] = 1.0
    s = Statevector(4, vacuum)  # not in the one-electron-per-spin sector
    with pytest.raises(DataError):
        fock_from_statevector(s, (2, 1, 1))
    # explicit opt-out projects silently
    v = fock_from_statevector(s, (2, 1, 1), tol=None)
    assert v.norm() == 0.0


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_apply_pauli_sum_equals_the_per_term_loop(name):
    h = jordan_wigner(load_integrals(name))
    s = random_state(np.random.default_rng(11), h.num_qubits)
    want = oracles.apply_pauli_terms(h.x, h.z, h.coeffs, s.amplitudes)
    assert apply_pauli_sum(h, s).amplitudes.tobytes() == want.tobytes()


def test_apply_pauli_sum_equals_the_per_term_loop_on_16_qubits():
    # 2^16 amplitudes: sixteen column tiles per block of eight terms, each
    # reduced onto its slice of the running sum
    h = jordan_wigner(random_integrals(8, 4, 4, seed=8))
    s = random_state(np.random.default_rng(12), h.num_qubits)
    want = oracles.apply_pauli_terms(h.x, h.z, h.coeffs, s.amplitudes)
    assert apply_pauli_sum(h, s).amplitudes.tobytes() == want.tobytes()


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(23)
    for _ in range(15):
        p = PauliString(3, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        s = random_state(rng, 3)
        got = apply_pauli(p, s).amplitudes
        want = oracles.dense_pauli(p.letters) @ s.amplitudes
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_apply_sum_and_expectation_match_dense(h2):
    rng = np.random.default_rng(31)
    h = jordan_wigner(h2)
    dense = oracles.dense_pauli_sum(4, [(c, s.letters) for c, s in h.terms()])
    s = random_state(rng, 4)
    np.testing.assert_allclose(
        apply_pauli_sum(h, s).amplitudes, dense @ s.amplitudes, atol=1e-12
    )
    want = np.vdot(s.amplitudes, dense @ s.amplitudes)
    assert expectation(h, s) == pytest.approx(want, abs=1e-12)
    assert abs(expectation(h, s).imag) < 1e-12


def test_pauli_exponential_matches_expm():
    rng = np.random.default_rng(37)
    p = PauliString.from_letters("XZY")
    dense = oracles.dense_pauli(p.letters)
    s = random_state(rng, 3)
    for theta in (0.3, -1.2, np.pi):
        got = apply_pauli_exponential(p, theta, s).amplitudes
        want = scipy.linalg.expm(-0.5j * theta * dense) @ s.amplitudes
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)


def test_distance_properties():
    rng = np.random.default_rng(39)
    s = random_state(rng, 3)
    assert distance(s, s) == pytest.approx(0.0, abs=1e-12)
    phased = Statevector(3, np.exp(0.7j) * s.amplitudes)
    assert distance(s, phased) == pytest.approx(0.0, abs=1e-12)
    t = random_state(rng, 3)
    assert 0.0 <= distance(s, t) <= 1.0
    assert abs(inner(s, t)) <= 1.0 + 1e-12


def _random_symmetric(rng, m):
    a = rng.standard_normal((m, m))
    return (a + a.T) / 2


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_string_operator_is_one_spin_of_the_fock_operator(m):
    rng = np.random.default_rng(50 + m)
    f = _random_symmetric(rng, m)
    zero = np.zeros((m, m))
    up = oracles.one_body_fock_operator(f, m, zero)
    down = oracles.one_body_fock_operator(zero, m, f)
    for k in range(m + 1):
        got = string_operator(f, k)
        # up strings with no down electrons; down strings under a full up shell
        for dense, n_up, n_down in ((up, k, 0), (down, m, k)):
            idx = oracles.sector_words(m, n_up, n_down)
            want = dense[np.ix_(idx, idx)]
            assert np.max(np.abs(want.imag)) == 0.0
            np.testing.assert_allclose(got, want.real, atol=1e-13)


def _dense_product_formula(ints, dt):
    """The first-order product of exact factor exponentials on the full
    register, J1 rightmost, from dense Fock operators."""
    m = ints.num_orbitals
    fac = cholesky_decompose_eri(ints, tol=1e-12)
    j1 = effective_one_body(ints, fac)
    step = scipy.linalg.expm(-1j * dt * oracles.one_body_fock_operator(j1, m))
    for ell in fac.factors:
        op = oracles.one_body_fock_operator(ell, m)
        step = scipy.linalg.expm(-1j * dt * (op @ op)) @ step
    return np.exp(-1j * dt * ints.e_nuc) * step


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_trotter_step_matches_the_dense_product_formula(name):
    ints = load_integrals(name)
    rng = np.random.default_rng(71)
    dim = ints.sector_dimension
    v = FockVector(ints.sector, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    v = v.normalized()
    idx = oracles.sector_words(*ints.sector)
    plan = _plan_for(ints)
    for dt in (0.3, -0.7):
        got = trotter_step(plan, dt, v).amplitudes
        # the product formula conserves particle number, so its sector block
        # is the whole of its action on a sector vector
        want = _dense_product_formula(ints, dt)[np.ix_(idx, idx)] @ v.amplitudes
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_trotter_step_builds_eigenpairs_only_for_the_counts_it_meets(h3_plus):
    plan = _plan_for(h3_plus)
    trotter_step(plan, 0.2,
                 basis_vector(h3_plus.sector, enumerate_configurations(*h3_plus.sector)[0]))
    counts = {k for _, k in plan._eigenpairs}
    assert counts == {h3_plus.num_up, h3_plus.num_down}


def test_trotter_plan_rejects_non_symmetric_or_misshaped_factors():
    m = 2
    sym = np.array([[0.3, 0.1], [0.1, -0.2]])
    bent = np.array([[0.0, 1.0], [0.5, 0.0]])
    good = CholeskyFactors(m, sym[None], 1e-8)
    for j1, factors in (
        (bent, good),
        (np.eye(3), good),
        (sym, CholeskyFactors(m, bent[None], 1e-8)),
        (sym, CholeskyFactors(m, np.zeros((1, 3, 3)), 1e-8)),
    ):
        with pytest.raises(ValidationError):
            trotter_plan(j1, factors)


def _plan_for(ints, tol=1e-12):
    fac = cholesky_decompose_eri(ints, tol=tol)
    j1 = effective_one_body(ints, fac)
    return trotter_plan(j1, fac, e_nuc=ints.e_nuc)


def test_trotter_exact_for_one_body_only():
    # with no pair term a single step is the exact propagator
    m = 2
    h = np.array([[-1.1, 0.2], [0.2, -0.4]])
    ints = MolecularIntegrals(m, 1, 1, 0.37, h, np.zeros((m,) * 4))
    plan = _plan_for(ints)
    assert len(plan.pair_factors) == 0
    v = FockVector(ints.sector, np.array([0.6, 0.4j, -0.5, 0.2 + 0.1j]))
    v = FockVector(ints.sector, v.amplitudes / v.norm())
    stepped = trotter_step(plan, 0.9, v)
    exact = evolve_real(ints, v, 0.9)
    np.testing.assert_allclose(stepped.amplitudes, exact.amplitudes, atol=1e-12)


def test_trotter_exact_for_single_factor():
    # H = e_nuc + J1 + (Lhat)^2 with commuting pieces is stepped exactly:
    # build integrals whose pair tensor has a single factor equal to a
    # matrix commuting with the one-body part
    m = 2
    ell = np.array([[0.7, 0.1], [0.1, 0.3]])
    g = 2.0 * np.einsum("pr,qs->prqs", ell, ell)
    ints = MolecularIntegrals(m, 1, 1, 0.11, 2.0 * ell, g)
    plan = _plan_for(ints)
    assert len(plan.pair_factors) == 1
    rng = np.random.default_rng(67)
    amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = FockVector(ints.sector, amp / np.linalg.norm(amp))
    stepped = trotter_step(plan, 0.55, v)
    exact = evolve_real(ints, v, 0.55)
    np.testing.assert_allclose(stepped.amplitudes, exact.amplitudes, atol=1e-10)


def test_trotter_error_scales_down(h2):
    plan = _plan_for(h2)
    v = FockVector(h2.sector, np.array([1.0, 0.3, 0.3, 0.1], dtype=complex))
    v = FockVector(h2.sector, v.amplitudes / v.norm())

    def step_error(dt):
        stepped = trotter_step(plan, dt, v)
        exact = evolve_real(h2, v, dt)
        return np.linalg.norm(stepped.amplitudes - exact.amplitudes)

    e1, e2 = step_error(0.2), step_error(0.1)
    assert e2 < e1 / 3.0  # roughly quadratic per-step error
    stepped = trotter_step(plan, 0.2, v)
    assert stepped.norm() == pytest.approx(1.0, abs=1e-12)


def test_trotter_respects_global_phase():
    # nuclear repulsion only shifts the phase; distance must see through it
    m = 1
    ints_a = MolecularIntegrals(m, 1, 0, 0.0, np.array([[-0.5]]), np.zeros((1,) * 4))
    ints_b = MolecularIntegrals(m, 1, 0, 2.5, np.array([[-0.5]]), np.zeros((1,) * 4))
    v = FockVector(ints_a.sector, np.array([1.0 + 0j]))
    pa = _plan_for(ints_a)
    pb = _plan_for(ints_b)
    sa = trotter_step(pa, 0.8, v)
    sb = trotter_step(pb, 0.8, v)
    assert distance(statevector_from_fock(sa), statevector_from_fock(sb)) == pytest.approx(
        0.0, abs=1e-12)
    ratio = sb.amplitudes[0] / sa.amplitudes[0]
    assert ratio == pytest.approx(np.exp(-1j * 0.8 * 2.5), abs=1e-12)
