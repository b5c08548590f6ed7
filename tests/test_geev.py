"""Thresholded generalized eigensolver against an independent scipy route."""

import math

import numpy as np
import pytest

import qsubspace.geev as geev_module
from qsubspace.classical import power_krylov
from qsubspace.engine import statevector_from_fock
from qsubspace.errors import DataError, EmptySubspaceError, ValidationError
from qsubspace.fock import basis_vector, reference_configuration
from qsubspace.geev import (
    GEEVSolution,
    SubspaceProblem,
    conditioning_report,
    default_threshold,
    eigenvalue_std,
    perturbation_bound,
    power_basis_cond_lower_bound,
    solution_report,
    solve,
)
from qsubspace.quantum import qse_build

from conftest import load_integrals
from oracles import krylov_moments, reference_thresholded_solve


def random_pair(rng, n, rank=None):
    """Hermitian pair with S PSD of the requested rank."""
    m = rng.standard_normal((n, rank or n))
    smat = m @ m.T
    h = rng.standard_normal((n, n))
    return (h + h.T) / 2, smat


def test_solve_matches_scipy_route():
    rng = np.random.default_rng(11)
    for n in (2, 4, 7):
        hmat, smat = random_pair(rng, n)
        smat += 0.5 * np.eye(n)
        sol = solve(SubspaceProblem(hmat, smat))
        ref = reference_thresholded_solve(hmat, smat, 1e-12)
        assert sol.retained_dim == n
        assert np.allclose(sol.eigenvalues, ref, atol=1e-9)


def test_thresholding_matches_scipy_route():
    rng = np.random.default_rng(12)
    hmat, smat = random_pair(rng, 6, rank=4)
    prob = SubspaceProblem(hmat, smat)
    for eps in (1e-10, 1e-2, 0.5):
        sol = solve(prob, eps=eps)
        ref = reference_thresholded_solve(hmat, smat, eps)
        assert sol.retained_dim == ref.size <= 4
        assert np.allclose(sol.eigenvalues, ref, atol=1e-8)


def test_coefficients_are_smat_orthonormal():
    rng = np.random.default_rng(13)
    hmat, smat = random_pair(rng, 5, rank=3)
    sol = solve(SubspaceProblem(hmat, smat), eps=1e-8)
    gram = sol.coefficients.conj().T @ smat @ sol.coefficients
    assert np.allclose(gram, np.eye(sol.retained_dim), atol=1e-9)
    # Rayleigh quotients reproduce the eigenvalues in the original basis.
    rq = sol.coefficients.conj().T @ hmat @ sol.coefficients
    assert np.allclose(np.diag(rq), sol.eigenvalues, atol=1e-9)


def test_complex_pair_supported():
    rng = np.random.default_rng(14)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    smat = m @ m.conj().T + 0.1 * np.eye(5)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    hmat = (h + h.conj().T) / 2
    sol = solve(SubspaceProblem(hmat, smat))
    ref = reference_thresholded_solve(hmat, smat, 1e-12)
    assert np.allclose(sol.eigenvalues, ref, atol=1e-9)
    assert np.max(np.abs(sol.eigenvalues.imag)) == 0  # eigh returns real


def test_symmetrization_on_construction():
    rng = np.random.default_rng(15)
    h = rng.standard_normal((4, 4))
    smat = np.eye(4)
    prob = SubspaceProblem(h, smat)
    assert np.allclose(prob.hmat, (h + h.T) / 2)
    sol = solve(prob)
    assert np.allclose(sol.eigenvalues, np.linalg.eigvalsh((h + h.T) / 2))


def test_empty_subspace_raises():
    prob = SubspaceProblem(np.eye(3), 1e-6 * np.eye(3))
    with pytest.raises(EmptySubspaceError):
        solve(prob, eps=1.0)


def test_validation_and_psd_guard():
    with pytest.raises(ValidationError):
        SubspaceProblem(np.eye(3), np.eye(4))
    with pytest.raises(DataError):
        SubspaceProblem(np.full((2, 2), np.nan), np.eye(2))
    smat = np.diag([1.0, -1e-3])
    with pytest.raises(DataError):
        SubspaceProblem(np.eye(2), smat)
    # The same indefiniteness is tolerated when stds say it is noise.
    std = np.full((2, 2), 1e-4)
    prob = SubspaceProblem(np.eye(2), smat, smat_std=std)
    assert prob.noisy


def test_default_threshold():
    prob = SubspaceProblem(np.eye(3), np.eye(3))
    assert default_threshold(prob) == 1e-12
    std = np.full((3, 3), 2e-5)
    noisy = SubspaceProblem(np.eye(3), np.eye(3), hmat_std=std, smat_std=std)
    # After symmetrization the off-diagonal stds combine in quadrature to
    # 2e-5/sqrt(2); those are 12 of 18 entries, so they set the median.
    assert np.isclose(default_threshold(noisy), 2 * (2e-5 / math.sqrt(2)) * math.sqrt(3))


def test_condition_numbers_reported():
    smat = np.diag([4.0, 1.0, 0.25, 1e-14])
    sol = solve(SubspaceProblem(np.eye(4), smat), eps=1e-6)
    assert np.isclose(sol.cond_smat_before, 4.0 / 1e-14, rtol=1e-6)
    assert np.isclose(sol.cond_smat_after, 16.0)
    assert sol.retained_dim == 3
    assert np.allclose(sol.overlap_eigenvalues, [4.0, 1.0, 0.25])


def test_cond_before_is_inf_when_s_is_singular_to_working_precision():
    # below dim * u * max|lambda| the ratio is roundoff, not a condition number
    for smallest in (0.0, 1e-17, -3e-16, 4 * 4.0 * np.finfo(float).eps):
        smat = np.diag([4.0, 1.0, 0.25, smallest])
        assert solve(SubspaceProblem(np.eye(4), smat), eps=1e-6).cond_smat_before == math.inf
    smat = np.diag([4.0, 1.0, 0.25, 1e-14])
    assert solve(SubspaceProblem(np.eye(4), smat), eps=1e-6).cond_smat_before == 4.0 / 1e-14


def test_well_conditioned_cond_before_keeps_its_bits():
    rng = np.random.default_rng(41)
    prob = SubspaceProblem(*random_pair(rng, 6))
    sing = np.abs(np.linalg.eigh(prob.smat)[0])
    sol = solve(prob, eps=1e-12)
    assert sol.cond_smat_before == float(np.max(sing) / np.min(sing))


def test_power_basis_bound_values():
    # Hand evaluation of the closed form:
    #   n=2,3: exponent 0 -> 1/4.
    #   n=4 (even) and n=5 (odd) share base exp(pi^2/(4 log(16/pi)))
    #   = 4.55276 and exponent 1 -> 1.13819.
    #   n=9: base exp(pi^2/(4 log(32/pi))) = 2.89525, exponent 3 -> 6.06738.
    assert power_basis_cond_lower_bound(1) == 0.25
    assert power_basis_cond_lower_bound(2) == 0.25
    assert power_basis_cond_lower_bound(3) == 0.25
    assert np.isclose(power_basis_cond_lower_bound(4), 1.13819, rtol=1e-4)
    assert np.isclose(power_basis_cond_lower_bound(5), 1.13819, rtol=1e-4)
    assert np.isclose(power_basis_cond_lower_bound(9), 6.06738, rtol=1e-4)
    grid = [power_basis_cond_lower_bound(n) for n in range(3, 40)]
    assert all(b2 >= b1 for b1, b2 in zip(grid, grid[1:]))


def test_power_basis_bound_holds_for_moment_matrices():
    rng = np.random.default_rng(16)
    for n in (5, 7, 9):
        for _ in range(5):
            d = 24
            a = rng.standard_normal((d, d))
            hdense = (a + a.T) / 2
            v0 = rng.standard_normal(d)
            v0 /= np.linalg.norm(v0)
            f = krylov_moments(hdense, v0, 2 * n)
            smat = np.array([[f[i + j] for j in range(n)] for i in range(n)])
            prob = SubspaceProblem(smat.copy(), smat, {"method": "power_krylov"})
            report = conditioning_report(prob)
            assert report["cond"] >= report["power_basis_cond_lower_bound"]
            assert report["cond_lower_bound_satisfied"]


def test_conditioning_report_gates_on_provenance():
    prob = SubspaceProblem(np.eye(4), np.diag([2.0, 1.0, 0.5, 0.1]))
    report = conditioning_report(prob)
    assert "power_basis_cond_lower_bound" not in report
    assert np.isclose(report["cond"], 20.0)
    assert report["singular_values"] == sorted(report["singular_values"])[::-1]


def test_singular_overlap_has_one_condition_number():
    # h2 power-krylov at n = 4: S's two smallest eigenvalues are roundoff
    # (5.6e-16 and 7.5e-17 against 6.05), so both readings report inf
    ints = load_integrals("h2_sto3g")
    prob = power_krylov(ints, basis_vector(ints.sector, reference_configuration(ints)), 4)
    report = conditioning_report(prob)
    assert solve(prob).cond_smat_before == math.inf
    assert report["cond"] == math.inf
    assert report["cond_lower_bound_satisfied"]
    # a well-conditioned S keeps its finite ratio in both
    prob = SubspaceProblem(np.eye(3), np.diag([4.0, 1.0, 1e-3]))
    assert solve(prob, 1e-6).cond_smat_before == conditioning_report(prob)["cond"] == 4e3


def test_perturbation_record_chi_sources():
    prob = SubspaceProblem(np.diag([0.0, 1.0]), np.eye(2))
    rec = perturbation_bound(prob)
    assert rec.chi_source == "none" and not rec.applicable

    # Uniform entry std sigma, n=2, identity retained basis: symmetrized
    # stds are sigma on the diagonal and sigma/sqrt(2) off it, so each
    # matrix contributes sum(std^2) = 3 sigma^2 and chi = sigma*sqrt(6).
    sigma = 1e-5
    std = np.full((2, 2), sigma)
    noisy = SubspaceProblem(
        np.diag([0.0, 1.0]), np.eye(2), hmat_std=std, smat_std=std
    )
    rec = perturbation_bound(noisy)
    assert rec.chi_source == "entry_stds"
    assert np.isclose(rec.chi, sigma * math.sqrt(6))
    assert rec.applicable and rec.bound > 0


def test_perturbation_bound_covers_noisy_solves():
    """Empirical coverage of the arctangent bound on a small noisy pair."""
    rng = np.random.default_rng(17)
    n = 6
    base = rng.standard_normal((n, n))
    s0 = base @ base.T
    s0 /= np.linalg.norm(s0, 2)
    h0 = rng.standard_normal((n, n))
    h0 = (h0 + h0.T) / 2
    sigma = 1e-5
    hits = 0
    trials = 20
    for _ in range(trials):
        dh = sigma * rng.standard_normal((n, n))
        ds = sigma * rng.standard_normal((n, n))
        prob = SubspaceProblem(
            h0 + dh,
            s0 + ds,
            {"method": "test"},
            hmat_std=np.full((n, n), sigma),
            smat_std=np.full((n, n), sigma),
        )
        rec = perturbation_bound(prob)
        if not rec.applicable:
            continue
        ref = reference_thresholded_solve(h0, s0, rec.eps)
        noisy_e0 = solve(prob, eps=rec.eps).eigenvalues[0]
        err = abs(math.atan(noisy_e0) - math.atan(ref[0]))
        hits += err <= rec.bound
    assert hits >= trials - 2


def test_eigenvalue_std_closed_form():
    hstd = np.array([[0.3]])
    sstd = np.array([[0.1]])
    prob = SubspaceProblem(
        np.array([[2.0]]), np.array([[1.0]]), hmat_std=hstd, smat_std=sstd
    )
    sol = solve(prob, eps=1e-12)
    assert np.isclose(sol.eigenvalues[0], 2.0)
    # var = 0.3^2 + (2.0 * 0.1)^2
    assert np.isclose(eigenvalue_std(prob, sol, 0), math.hypot(0.3, 0.2))
    with pytest.raises(ValidationError):
        eigenvalue_std(prob, sol, 5)
    clean = SubspaceProblem(np.array([[2.0]]), np.array([[1.0]]))
    assert eigenvalue_std(clean, solve(clean)) == 0.0


def test_eigenvalue_std_tracks_monte_carlo():
    rng = np.random.default_rng(18)
    n = 4
    h0 = np.diag([0.0, 0.7, 1.1, 2.0])
    s0 = np.eye(n)
    sigma = 1e-4
    std = np.full((n, n), sigma)
    samples = []
    predicted = None
    for _ in range(400):
        dh = sigma * rng.standard_normal((n, n))
        prob = SubspaceProblem(h0 + dh, s0, hmat_std=std)
        sol = solve(prob, eps=1e-8)
        samples.append(sol.eigenvalues[0])
        predicted = eigenvalue_std(prob, sol, 0)
    observed = float(np.std(samples, ddof=1))
    assert 0.5 * predicted < observed < 2.0 * predicted


def test_solution_report_schema():
    rng = np.random.default_rng(19)
    hmat, smat = random_pair(rng, 5)
    smat += 0.2 * np.eye(5)
    prob = SubspaceProblem(hmat, smat, {"method": "power_krylov"})
    sol = solve(prob)
    report = solution_report(prob, sol)
    assert report["method"] == "power_krylov"
    assert report["n"] == 5 and report["n_eps"] == sol.retained_dim
    assert report["eigenvalues"] == [float(x) for x in sol.eigenvalues]
    assert "power_basis_cond_lower_bound" in report["bounds"]
    assert isinstance(sol, GEEVSolution)

    std = np.full((5, 5), 1e-6)
    noisy = SubspaceProblem(hmat, smat, {"method": "qfd"}, hmat_std=std, smat_std=std)
    noisy_report = solution_report(noisy, solve(noisy))
    for key in ("arctangent_bound", "chi", "d0", "lowest_eigenvalue_std"):
        assert key in noisy_report["bounds"]


def test_solution_report_bounds_the_given_solve(monkeypatch):
    # the arctangent bound is read off the solution passed in, without a
    # second solve, and equals perturbation_bound at the same threshold
    rng = np.random.default_rng(20)
    hmat, smat = random_pair(rng, 5)
    smat += 0.2 * np.eye(5)
    std = np.full((5, 5), 1e-6)
    noisy = SubspaceProblem(hmat, smat, {"method": "qfd"}, hmat_std=std, smat_std=std)
    sol = solve(noisy)
    want = perturbation_bound(noisy, eps=sol.eps)

    def no_solve(*args, **kwargs):
        raise AssertionError("solution_report solved the pair again")

    monkeypatch.setattr(geev_module, "solve", no_solve)
    bounds = solution_report(noisy, sol)["bounds"]
    assert bounds["arctangent_bound"] == want.bound
    assert bounds["arctangent_applicable"] == want.applicable
    assert bounds["chi"] == want.chi and bounds["d0"] == want.d0


def test_one_overlap_decomposition_per_build_solve_report(monkeypatch):
    # the PSD check, every solve and the conditioning report read the one
    # spectrum taken on construction
    ints = load_integrals("h3_plus")
    state = statevector_from_fock(basis_vector(ints.sector, reference_configuration(ints)))
    seen = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
        real = getattr(np.linalg, name)

        def counted(mat, *args, _real=real, **kwargs):
            seen.append(np.array(mat))
            return _real(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    prob = qse_build(state, ints, level="SD")
    sol = solve(prob)
    solution_report(prob, sol)
    conditioning_report(prob)
    solve(prob, eps=1e-6)
    on_s = [mat for mat in seen if mat.shape == prob.smat.shape and np.array_equal(mat, prob.smat)]
    assert len(on_s) == 1
    assert prob.smat.dtype == np.float64
    w, v = prob.overlap_spectrum
    assert not (w.flags.writeable or v.flags.writeable)
