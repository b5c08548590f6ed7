"""Moment Krylov, Lanczos, Davidson, and the convergence bound evaluator."""

import gc
import math
import weakref

import numpy as np
import pytest

import qsubspace.classical as classical_module
from conftest import load_integrals, scan_integrals
from qsubspace.classical import (
    ConvergenceBound,
    DavidsonResult,
    TridiagonalForm,
    davidson,
    kaniel_paige_saad,
    lanczos,
    polynomial_moments,
    power_krylov,
)
from qsubspace.errors import CapacityError, ConvergenceError, ValidationError
from qsubspace.fock import (
    FockVector,
    basis_vector,
    exact_eigenpairs,
    hamiltonian_diagonal,
    reference_configuration,
    sector_dimension,
)
from qsubspace.geev import conditioning_report, solve
from qsubspace.integrals import MolecularIntegrals

from oracles import krylov_moments, sector_fci, sector_hamiltonian


def dense_sector(ints):
    return sector_hamiltonian(
        ints.e_nuc, ints.one_body, ints.two_body, ints.num_up, ints.num_down
    )


def random_vector(ints, seed):
    rng = np.random.default_rng(seed)
    dim = sector_dimension(ints.num_orbitals, ints.num_up, ints.num_down)
    amp = rng.standard_normal(dim)
    return FockVector(ints.sector, amp / np.linalg.norm(amp))


def test_moments_match_dense_oracle(h2):
    v0 = random_vector(h2, 21)
    mom = polynomial_moments(h2, v0, 8)
    ref = krylov_moments(dense_sector(h2), v0.amplitudes, 8)
    assert mom.shape == (8,)
    assert np.allclose(mom, ref, atol=1e-10)
    # Chebyshev moments of (H - shift) / scale from the dense T_k recurrence
    shift, scale = -0.5, 2.0
    hbar = (dense_sector(h2) - shift * np.eye(4)) / scale
    prev, cur, ref = v0.amplitudes, hbar @ v0.amplitudes, [1.0]
    for _ in range(7):
        ref.append(float(np.vdot(v0.amplitudes, cur).real))
        prev, cur = cur, 2.0 * hbar @ cur - prev
    got = polynomial_moments(h2, v0, 8, "chebyshev", shift, scale)
    assert np.allclose(got, ref, atol=1e-10)


def test_moment_invariants(h3_plus):
    v0 = random_vector(h3_plus, 22)
    n = 5
    f = polynomial_moments(h3_plus, v0, 2 * n)
    assert np.isclose(f[0], 1.0)
    idx = np.arange(n)
    hankel = f[idx[:, None] + idx[None, :]]
    assert np.min(np.linalg.eigvalsh(hankel)) >= -1e-10


def test_power_krylov_smallest_case(h2):
    v0 = random_vector(h2, 23)
    prob = power_krylov(h2, v0, 1)
    f = polynomial_moments(h2, v0, 2)
    assert np.isclose(prob.smat[0, 0].real, 1.0)
    assert np.isclose(prob.hmat[0, 0].real, f[1])
    assert prob.provenance == {"method": "power_krylov", "n": 1}


def test_power_krylov_eigenvector_start(h2):
    evals, evecs = sector_fci(
        h2.e_nuc, h2.one_body, h2.two_body, h2.num_up, h2.num_down
    )
    v0 = FockVector(h2.sector, evecs[:, 0].astype(complex))
    sol = solve(power_krylov(h2, v0, 3), eps=1e-10)
    assert sol.retained_dim == 1
    assert np.isclose(sol.eigenvalues[0], evals[0], atol=1e-9)


def test_power_krylov_full_space_reaches_fci(h2):
    v0 = random_vector(h2, 24)
    evals, _ = sector_fci(
        h2.e_nuc, h2.one_body, h2.two_body, h2.num_up, h2.num_down
    )
    sol = solve(power_krylov(h2, v0, 4), eps=1e-10)
    assert abs(sol.eigenvalues[0] - evals[0]) < 1e-8


def test_power_krylov_provenance_enables_cond_bound(h3_plus):
    prob = power_krylov(h3_plus, random_vector(h3_plus, 25), 5)
    report = conditioning_report(prob)
    assert report["cond"] >= report["power_basis_cond_lower_bound"]


def test_power_krylov_domain_checks(h2, h3_plus):
    v0 = random_vector(h2, 26)
    with pytest.raises(CapacityError):
        power_krylov(h2, v0, 13)
    with pytest.raises(ValidationError):
        power_krylov(h2, v0, 0)
    with pytest.raises(ValidationError):
        power_krylov(h3_plus, v0, 2)  # sector mismatch
    with pytest.raises(ValidationError):
        polynomial_moments(h2, v0, 4, "legendre")


def test_lanczos_single_step_rayleigh(h2):
    v0 = random_vector(h2, 27)
    form, prob = lanczos(h2, v0, 1)
    hd = dense_sector(h2)
    rq = float(np.real(v0.amplitudes.conj() @ hd @ v0.amplitudes))
    assert form.num_steps == 1 and form.betas.size == 0
    assert np.isclose(form.alphas[0], rq, atol=1e-10)
    assert prob.smat.shape == (1, 1)


@pytest.mark.parametrize("name", ["h4_toy", "h3_plus"])
def test_one_lanczos_step_gives_the_first_step_of_a_longer_run(name):
    # a one-step run must not sum its start in another order than a longer
    # run does; a reference determinant has one nonzero term and cannot tell
    ints = load_integrals(name)
    for seed in range(1, 9):
        v0 = random_vector(ints, seed)
        one, five = lanczos(ints, v0, 1)[0], lanczos(ints, v0, 5)[0]
        assert one.alphas.tolist() == five.alphas[:1].tolist(), seed
        assert one.basis.tolist() == five.basis[:, :1].tolist(), seed


def test_lanczos_agrees_with_power_krylov(h3_plus):
    # Same start vector spans the same subspace, so the thresholded moment
    # problem and the tridiagonal form share their Ritz values.
    v0 = random_vector(h3_plus, 28)
    for n in (2, 4, 6):
        form, _ = lanczos(h3_plus, v0, n)
        ritz = form.eigenvalues()
        sol = solve(power_krylov(h3_plus, v0, n), eps=1e-10)
        k = sol.retained_dim
        assert np.allclose(sol.eigenvalues[:1], ritz[:1], atol=1e-6)
        # Retained directions match the leading Ritz values.
        assert np.allclose(sol.eigenvalues, ritz[:k], atol=1e-5) or k < n


def test_lanczos_full_run_reaches_fci(h3_plus):
    v0 = random_vector(h3_plus, 29)
    dim = sector_dimension(*h3_plus.sector)
    form, prob = lanczos(h3_plus, v0, dim)
    evals, _ = sector_fci(
        h3_plus.e_nuc, h3_plus.one_body, h3_plus.two_body,
        h3_plus.num_up, h3_plus.num_down,
    )
    if form.num_steps == dim:  # no accidental early invariant subspace
        assert np.allclose(form.eigenvalues(), evals, atol=1e-8)
    assert isinstance(form, TridiagonalForm)
    # Tridiagonal matrix is the projection of H onto the basis.
    hd = dense_sector(h3_plus)
    proj = form.basis.conj().T @ hd @ form.basis
    assert np.allclose(proj, prob.hmat, atol=1e-8)


def test_lanczos_basis_orthonormal(h4_toy):
    v0 = random_vector(h4_toy, 30)
    form, _ = lanczos(h4_toy, v0, 20)
    gram = form.basis.conj().T @ form.basis
    assert np.max(np.abs(gram - np.eye(form.num_steps))) <= 1e-8


def test_lanczos_breakdown_on_eigenvector(h2):
    evals, evecs = sector_fci(
        h2.e_nuc, h2.one_body, h2.two_body, h2.num_up, h2.num_down
    )
    v0 = FockVector(h2.sector, evecs[:, 1].astype(complex))
    form, _ = lanczos(h2, v0, 4)
    assert form.num_steps == 1
    assert np.isclose(form.alphas[0], evals[1], atol=1e-10)


def test_lanczos_zero_vector_rejected(h2):
    dim = sector_dimension(2, 1, 1)
    with pytest.raises(ValidationError):
        lanczos(h2, FockVector(h2.sector, np.zeros(dim, dtype=complex)), 3)


def bound_fields(rec):
    return (rec.mu, rec.n, rec.tan_theta, rec.gamma, rec.l_factor, rec.bound, rec.measured,
            rec.satisfied, rec.applicable)


def test_lanczos_and_its_bound_share_one_run(monkeypatch):
    # the benchmark's round: a 20-step build, then the bound on the same start
    ints = scan_integrals(0.7)
    v0 = basis_vector(ints.sector, reference_configuration(ints))
    spectrum = exact_eigenpairs(ints, k=ints.sector_dimension)
    products = []
    product = classical_module.matvec

    def count(mat, v):
        products.append(v.shape)
        return product(mat, v)

    monkeypatch.setattr(classical_module, "matvec", count)
    form, prob = lanczos(ints, v0, 20)
    rec = kaniel_paige_saad(ints, spectrum, v0, 20)
    assert len(products) == 20
    monkeypatch.undo()
    # each on integrals of its own, so neither finds a run to reuse
    alone, alone_prob = lanczos(scan_integrals(0.7), v0, 20)
    for got, want in zip((form.alphas, form.betas, form.basis, prob.hmat),
                         (alone.alphas, alone.betas, alone.basis, alone_prob.hmat), strict=True):
        assert np.array_equal(got, want)
    want = kaniel_paige_saad(scan_integrals(0.7), spectrum, v0, 20)
    assert bound_fields(rec) == bound_fields(want)


def test_changing_a_lanczos_result_does_not_reach_the_next_call(h4_toy):
    v0 = random_vector(h4_toy, 41)
    form, prob = lanczos(h4_toy, v0, 6)
    want = [a.copy() for a in (form.alphas, form.betas, form.basis, prob.hmat, prob.smat)]
    for arr in (form.alphas, form.betas, form.basis):
        with pytest.raises(ValueError):
            arr[0] = 7.0
    prob.hmat[0, 0] = prob.smat[0, 0] = 7.0
    prob.provenance["n"] = 99
    form.alphas = np.zeros(6)
    again, again_prob = lanczos(h4_toy, v0, 6)
    got = (again.alphas, again.betas, again.basis, again_prob.hmat, again_prob.smat)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)
    assert again_prob.provenance == {"method": "lanczos", "n": 6}
    # the run is found by the start's amplitudes, not by the object
    copy = FockVector(v0.sector, v0.amplitudes.copy())
    assert lanczos(h4_toy, copy, 6)[0].basis.base is again.basis.base


def test_lanczos_runs_are_freed_with_their_integrals():
    ints = load_integrals("h4_toy")
    form, prob = lanczos(ints, random_vector(ints, 42), 5)
    run = weakref.ref(form.basis.base)
    del form, prob, ints
    gc.collect()
    assert run() is None


def test_variational_upper_bound_and_monotonicity(h3_plus):
    v0 = random_vector(h3_plus, 32)
    evals, _ = sector_fci(
        h3_plus.e_nuc, h3_plus.one_body, h3_plus.two_body,
        h3_plus.num_up, h3_plus.num_down,
    )
    last = math.inf
    for n in range(1, 7):
        form, _ = lanczos(h3_plus, v0, n)
        ground = float(form.eigenvalues()[0])
        assert ground >= evals[0] - 1e-10
        assert ground <= last + 1e-12
        last = ground


@pytest.mark.parametrize("case", ["h4_toy", 0.4, 1.2])
def test_real_matvecs_equal_the_complex_product(case, monkeypatch):
    # Lanczos, Davidson and the moments apply the real sector matrix to
    # complex vectors as two real products; the bits must not change
    ints = load_integrals(case) if isinstance(case, str) else scan_integrals(case)
    rng = np.random.default_rng(17)
    dim = ints.sector_dimension
    v0 = FockVector(ints.sector, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))

    def run():
        form, prob = lanczos(ints, v0, 12)
        dav = davidson(ints, k=2)
        moments = polynomial_moments(ints, v0, 6)
        chebyshev = polynomial_moments(ints, v0, 6, "chebyshev", -5.0, 20.0)
        return (form.alphas, form.betas, form.basis, prob.hmat, moments, chebyshev,
                dav.eigenvalues, dav.residual_norms, np.array(dav.trace),
                *[v.amplitudes for v in dav.eigenvectors])

    fast = run()
    monkeypatch.setattr(classical_module, "matvec", lambda mat, v: mat @ v)
    plain = run()
    for got, want in zip(fast, plain, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case", ["h3_plus", "h4_toy", 0.9])
def test_real_starts_give_the_ritz_values_of_complex_ones(case, monkeypatch):
    # a start with zero imaginary part runs in float64; forcing the same
    # start through complex arithmetic must give the same numbers
    ints = load_integrals(case) if isinstance(case, str) else scan_integrals(case)
    v0 = random_vector(ints, 29)
    spectrum = exact_eigenpairs(ints, k=ints.sector_dimension)

    def run():
        form, _ = lanczos(ints, v0, 8)
        return (form.basis.dtype, form.eigenvalues(),
                davidson(ints, k=2).eigenvalues,
                polynomial_moments(ints, v0, 6),
                polynomial_moments(ints, v0, 6, "chebyshev", -5.0, 20.0),
                kaniel_paige_saad(ints, spectrum, v0, 5, mu=1).measured)

    real = run()
    to_complex = classical_module._sector_array
    monkeypatch.setattr(classical_module, "_sector_array",
                        lambda ints, v: to_complex(ints, v).astype(complex))
    forced = run()
    assert real[0] == np.float64 and forced[0] == np.complex128
    for got, want in zip(real[1:], forced[1:], strict=True):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_davidson_converges_on_fixture(h2):
    result = davidson(h2, k=1, tol=1e-8, max_iter=50)
    evals, _ = sector_fci(
        h2.e_nuc, h2.one_body, h2.two_body, h2.num_up, h2.num_down
    )
    assert isinstance(result, DavidsonResult)
    assert abs(result.eigenvalues[0] - evals[0]) < 1e-7
    assert result.num_iterations <= 5
    assert np.all(result.residual_norms <= 1e-8)
    it, energy, res = result.trace[-1]
    assert it == result.num_iterations
    assert np.isclose(energy, result.eigenvalues[0])


def test_davidson_default_start_is_the_unit_vectors_on_the_lowest_diagonal(h3_plus):
    # iteration 0 is the Rayleigh-Ritz step on those unit vectors: its Ritz
    # values are the eigenvalues of H on the k lowest diagonal entries, and
    # its Ritz vectors vanish off them
    low = np.argsort(hamiltonian_diagonal(h3_plus))[:3]
    want = np.linalg.eigvalsh(dense_sector(h3_plus)[np.ix_(low, low)])
    with pytest.raises(ConvergenceError) as err:
        davidson(h3_plus, k=3, tol=1e-9, max_iter=1)
    first = err.value.best
    assert first.num_iterations == 0
    np.testing.assert_allclose(first.eigenvalues, want, rtol=0, atol=1e-12)
    for v in first.eigenvectors:
        assert not np.delete(v.amplitudes, low).any()


def test_convergence_error_carries_the_last_iterations_result(h4_toy):
    # a run stopped by max_iter hands out the result of its last iteration:
    # the result the same run returns when the tolerance is that
    # iteration's residual
    full = davidson(h4_toy, k=1, tol=1e-10, max_iter=100)
    last = full.num_iterations - 1
    assert last >= 2
    with pytest.raises(ConvergenceError) as err:
        davidson(h4_toy, k=1, tol=1e-10, max_iter=last + 1)
    best = err.value.best
    resid = best.residual_norms[0]
    assert all(row[2] > resid for row in full.trace[:last])  # none converges earlier
    want = davidson(h4_toy, k=1, tol=resid, max_iter=100)
    assert best.num_iterations == want.num_iterations == last
    assert best.trace == want.trace == full.trace[: last + 1]
    for got, ref in ((best.eigenvalues, want.eigenvalues),
                     (best.residual_norms, want.residual_norms),
                     (best.eigenvectors[0].amplitudes, want.eigenvectors[0].amplitudes)):
        assert np.array_equal(got, ref)


def test_davidson_multiple_roots(h3_plus):
    result = davidson(h3_plus, k=3, tol=1e-9, max_iter=100)
    evals, _ = sector_fci(
        h3_plus.e_nuc, h3_plus.one_body, h3_plus.two_body,
        h3_plus.num_up, h3_plus.num_down,
    )
    assert np.allclose(result.eigenvalues, evals[:3], atol=1e-7)
    hd = dense_sector(h3_plus)
    for i in range(3):
        x = result.eigenvectors[i].amplitudes
        rq = float(np.real(x.conj() @ hd @ x) / np.real(x.conj() @ x))
        assert np.isclose(rq, evals[i], atol=1e-7)


def test_davidson_restart_path():
    # k=1 caps the search space at 8 columns: iteration i holds i + 1 of
    # them, and an unconverged iteration 7 restarts. Converging at iteration
    # 8 or later therefore passes through at least one restart.
    ints = stretched_molecule(1.0)
    result = davidson(ints, k=1, tol=1e-9, max_iter=100)
    assert result.num_iterations >= 8
    assert result.eigenvalues.size == 1
    assert abs(result.eigenvalues[0] - exact_eigenpairs(ints).eigenvalues[0]) < 1e-7


def stretched_molecule(stretch, m=7, n_up=3, n_down=3):
    """Synthetic integrals whose off-diagonal parts scale with `stretch`.

    The two-body tensor is 2 sum_g L^g_pr L^g_qs over symmetric pair
    factors, as in scripts/make_fixtures.py, drawn from one fixed key.
    """
    rng = np.random.default_rng([2009, 99])

    def sym(a):
        return (a + a.T) / 2

    f0 = np.diag(np.linspace(0.55, 0.30, m)) + stretch * sym(rng.uniform(-0.06, 0.06, (m, m)))
    f1 = stretch * sym(rng.uniform(-0.12, 0.12, (m, m)))
    g = np.zeros((m, m, m, m))
    for ell in (f0, f1):
        g += 2.0 * np.einsum("pr,qs->prqs", ell, ell)
    h = np.diag(np.linspace(-2.05, -0.25, m)) + stretch * sym(rng.uniform(-0.1, 0.1, (m, m)))
    return MolecularIntegrals(m, n_up, n_down, 1.5, h, g)


def test_davidson_converges_when_the_root_is_poorly_separated():
    # at stretch 6 the gap is 0.16 against a spectral spread of 41 and the
    # lowest diagonal entry sits 6 above E0. With k=1 the space holds 8
    # columns, so every run here passes through many restarts; restarting
    # to the Ritz vector alone stalls at residual 0.19 after 200 iterations
    ints = stretched_molecule(6.0)
    assert ints.sector_dimension == 1225
    result = davidson(ints, k=1, tol=1e-8, max_iter=200)
    e0 = exact_eigenpairs(ints, k=1).eigenvalues[0]
    assert abs(result.eigenvalues[0] - e0) < 1e-8
    assert result.residual_norms[0] <= 1e-8
    assert result.num_iterations < 180  # real margin below max_iter


def test_davidson_domain_and_convergence_errors(h2, h4_toy):
    with pytest.raises(ValidationError):
        davidson(h2, k=5)
    with pytest.raises(ConvergenceError) as err:
        davidson(h4_toy, k=2, tol=1e-12, max_iter=2)
    best = err.value.best
    assert best is not None and best.eigenvalues.size == 2
    assert len(best.trace) == 2


def test_bound_zero_for_exact_start(h2):
    spectrum = exact_eigenpairs(h2, k=4)
    v0 = spectrum.eigenvectors[0]
    rec = kaniel_paige_saad(h2, spectrum, v0, n=3, mu=0)
    assert rec.applicable and rec.satisfied
    assert rec.tan_theta == 0 and rec.bound == 0
    assert abs(rec.measured) < 1e-10


def test_bound_random_start_sweep(h3_plus):
    spectrum = exact_eigenpairs(h3_plus, k=9)
    for seed in range(10):
        v0 = random_vector(h3_plus, 100 + seed)
        for mu in (0, 1):
            for n in range(mu + 1, 7):
                rec = kaniel_paige_saad(h3_plus, spectrum, v0, n=n, mu=mu)
                assert isinstance(rec, ConvergenceBound)
                assert rec.applicable
                assert rec.satisfied, (seed, mu, n, rec.measured, rec.bound)


def test_bound_inapplicable_for_orthogonal_start(h2):
    spectrum = exact_eigenpairs(h2, k=4)
    v0 = spectrum.eigenvectors[1]
    rec = kaniel_paige_saad(h2, spectrum, v0, n=2, mu=0)
    assert not rec.applicable


def test_bound_rejects_a_partial_spectrum(h4_toy):
    # the top eigenvalue enters the bound: read off a k = 3 slice of the
    # 36, the bound would be 2.1e-13 and not satisfied, where the whole
    # spectrum gives 1.26e-4, satisfied
    v0 = basis_vector(h4_toy.sector, reference_configuration(h4_toy))
    with pytest.raises(ValidationError, match="36"):
        kaniel_paige_saad(h4_toy, exact_eigenpairs(h4_toy, k=3), v0, 4)
    rec = kaniel_paige_saad(h4_toy, exact_eigenpairs(h4_toy, k=36), v0, 4)
    assert rec.satisfied and rec.bound == pytest.approx(1.26e-4, rel=0.01)


def test_bound_argument_validation(h2):
    spectrum = exact_eigenpairs(h2, k=4)
    v0 = random_vector(h2, 33)
    with pytest.raises(ValidationError):
        kaniel_paige_saad(h2, spectrum, v0, n=2, mu=3)
    with pytest.raises(ValidationError):
        kaniel_paige_saad(h2, spectrum, v0, n=1, mu=1)
