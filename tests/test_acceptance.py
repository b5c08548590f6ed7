"""Acceptance suite: one test per advertised guarantee, at its stated tolerance.

Each test prints a one-line summary of the measured quantities so a -v -s run
reads as a checklist. Oracles come from tests/oracles.py (dense matrix
algebra only, no package subspace code).
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import scipy.linalg

from conftest import FIXTURE_NAMES, TWO_ELECTRON_NAMES, load_integrals
from oracles import (
    imaginary_evolve_dense,
    krylov_moments,
    reference_thresholded_solve,
    sector_fci,
    sector_hamiltonian,
)

from qsubspace.classical import kaniel_paige_saad, lanczos, power_krylov
from qsubspace.engine import (
    apply_pauli_sum,
    inner as state_inner,
    statevector_from_fock,
    trotter_plan,
    trotter_step,
)
from qsubspace.fock import (
    FockVector,
    basis_vector,
    enumerate_configurations,
    evolve_real,
    exact_eigenpairs,
    inner as fock_inner,
    reference_configuration,
    sector_dimension,
)
from qsubspace.geev import (
    SubspaceProblem,
    conditioning_report,
    eigenvalue_std,
    perturbation_bound,
    power_basis_cond_lower_bound,
    solve,
)
from qsubspace.integrals import cholesky_decompose_eri, effective_one_body
from qsubspace.quantum import (
    QfdGrid,
    chebyshev_krylov_build,
    epperly_qfd_bound,
    fast_forward,
    qeom_build,
    qfd_build,
    qfd_recipe,
    qite_step,
    qlanczos_build,
    qse_build,
    qse_recipe,
    spectral_weights,
)
from qsubspace.qubits import jordan_wigner
from qsubspace.shots import ShotPlan, exact_subspace, measurement_groups, noisy_subspace


def oracle_eigenvalues(ints):
    return sector_fci(
        ints.e_nuc, ints.one_body, ints.two_body, ints.num_up, ints.num_down
    )[0]


def random_start(ints, seed, offset=0.3):
    # offset keeps a ground-state component in every draw
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(sector_dimension(*ints.sector)) + offset
    return FockVector(ints.sector, amp / np.linalg.norm(amp))


def reference_vector(ints):
    return basis_vector(ints.sector, reference_configuration(ints))


def ground_energy(prob, eps=None):
    return float(solve(prob, eps).eigenvalues[0])


def test_criterion_01_sector_spectra_match_dense_oracle():
    # qubit-mapped Hamiltonian, restricted to the particle-number sector,
    # against an independent dense construction; must stay under 10 s
    start = time.perf_counter()
    names = [n for n in FIXTURE_NAMES if load_integrals(n).num_orbitals <= 3]
    assert len(names) >= 5
    worst = 0.0
    for name in names:
        ints = load_integrals(name)
        ham = jordan_wigner(ints)
        configs = enumerate_configurations(
            ints.num_orbitals, ints.num_up, ints.num_down
        )
        states = [
            statevector_from_fock(basis_vector(ints.sector, c)) for c in configs
        ]
        mat = np.empty((len(states), len(states)), dtype=complex)
        for j, s in enumerate(states):
            image = apply_pauli_sum(ham, s)
            for i, t in enumerate(states):
                mat[i, j] = state_inner(t, image)
        got = np.linalg.eigvalsh(mat)
        want = oracle_eigenvalues(ints)
        worst = max(worst, float(np.max(np.abs(got - want))))
        np.testing.assert_allclose(got, want, atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 01: {len(names)} fixtures, max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_moment_routes_agree():
    # power-moment, Chebyshev-moment, and tridiagonal routes from a shared
    # start vector give the same thresholded ground energy
    worst = 0.0
    for name in ("h2_sto3g", "h3_plus", "h4_toy"):
        ints = load_integrals(name)
        n = min(6, ints.sector_dimension)
        v0 = random_start(ints, 42)
        w = oracle_eigenvalues(ints)
        pad = 0.01 * max(w[-1] - w[0], 1.0)
        e_power = ground_energy(power_krylov(ints, v0, n))
        e_cheb = ground_energy(
            chebyshev_krylov_build(v0, ints, n, (w[0] - pad, w[-1] + pad))
        )
        _, prob = lanczos(ints, v0, n)
        e_lan = ground_energy(prob)
        spread = max(e_power, e_cheb, e_lan) - min(e_power, e_cheb, e_lan)
        worst = max(worst, spread)
        assert spread < 1e-6, (name, e_power, e_cheb, e_lan)
    print(f"criterion 02: 3 fixtures, max route spread {worst:.2e}")


def test_criterion_03_ritz_errors_within_a_priori_bound():
    # 0 <= Ritz error <= Chebyshev-damped bound for the two lowest states,
    # n = 2..6, 20 random starts per fixture
    checked = violations = 0
    worst = -math.inf
    for name in ("h2_sto3g", "h3_plus"):
        ints = load_integrals(name)
        spectrum = exact_eigenpairs(ints, k=ints.sector_dimension)
        for seed in range(20):
            v0 = random_start(ints, 100 + seed)
            for n in range(2, 7):
                for mu in (0, 1):
                    rec = kaniel_paige_saad(ints, spectrum, v0, n, mu)
                    assert rec.applicable
                    checked += 1
                    ok = -1e-10 <= rec.measured <= rec.bound + 1e-12
                    violations += not ok
                    if math.isfinite(rec.bound) and rec.bound > 0:
                        worst = max(worst, rec.measured / rec.bound)
    assert checked == 400
    assert violations == 0
    print(f"criterion 03: {checked} cases, 0 violations, worst error/bound {worst:.3f}")


def test_criterion_04_moment_overlap_condition_number_floor():
    # cond(S) of a power-moment overlap beats the dimension-only lower
    # bound, on random Hermitian operators and on the packaged route
    rng = np.random.default_rng(4)
    violations = 0
    min_margin = math.inf
    for _ in range(10):
        dim = 16
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mat = (a + a.conj().T) / 2
        mat /= np.linalg.norm(mat, 2)
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec /= np.linalg.norm(vec)
        for n in (5, 7, 9):
            mom = krylov_moments(mat, vec, 2 * n - 1)
            smat = scipy.linalg.hankel(mom[:n], mom[n - 1:])
            cond = np.linalg.cond(smat)
            bound = power_basis_cond_lower_bound(n)
            violations += not cond >= bound
            min_margin = min(min_margin, cond / bound)
    ints = load_integrals("h3_plus")
    for n in (5, 7, 9):
        report = conditioning_report(power_krylov(ints, random_start(ints, 11), n))
        assert report["cond_lower_bound_satisfied"]
    assert violations == 0
    print(f"criterion 04: 30 random + 3 molecular cases, 0 violations, "
          f"min cond/bound {min_margin:.1e}")


def test_criterion_05_product_formula_single_step_order():
    # one split-operator step deviates from the exact propagator at
    # second order in the step size
    ints = load_integrals("h2_sto3g")
    factors = cholesky_decompose_eri(ints)
    plan = trotter_plan(effective_one_body(ints, factors), factors, ints.e_nuc)
    v0 = random_start(ints, 5)
    steps = (0.2, 0.1, 0.05, 0.025)
    errors = []
    for dt in steps:
        got = trotter_step(plan, dt, v0)
        want = evolve_real(ints, v0, dt)
        errors.append(float(np.linalg.norm(got.amplitudes - want.amplitudes)))
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    assert abs(slope - 2.0) < 0.1
    print(f"criterion 05: per-step error slope {slope:.3f}")


def test_criterion_06_time_grid_overlap_toeplitz_and_filter_bound():
    # the exact-backend time-grid overlap depends only on time differences,
    # and the ground-energy error sits under the uniform-grid filter bound
    violations = 0
    worst_dev = 0.0
    worst_ratio = -math.inf
    for name in ("h2_sto3g", "h3_plus"):
        ints = load_integrals(name)
        v0 = reference_vector(ints)
        exact0 = oracle_eigenvalues(ints)[0]
        for n in range(2, 9):
            info = epperly_qfd_bound(ints, v0, n)
            prob = qfd_build(v0, ints, QfdGrid(info["dt"], n, backend="exact"))
            for k in range(n):
                col = np.diagonal(prob.smat, -k)
                if col.size:
                    worst_dev = max(worst_dev, float(np.max(np.abs(col - col[0]))))
            err = ground_energy(prob) - exact0
            violations += not (-1e-9 <= err <= info["bound"] + 1e-12)
            if info["bound"] > 0:
                worst_ratio = max(worst_ratio, err / info["bound"])
    assert worst_dev < 1e-12
    assert violations == 0
    print(f"criterion 06: toeplitz deviation {worst_dev:.1e}, 0 bound violations, "
          f"worst error/bound {worst_ratio:.3f}")


def test_criterion_07_configuration_expansion_exact_for_two_electrons():
    # singles+doubles off a mean-field reference span the full two-electron
    # sector, so the subspace energy is the dense ground energy
    worst = 0.0
    assert len(TWO_ELECTRON_NAMES) >= 3
    for name in TWO_ELECTRON_NAMES:
        ints = load_integrals(name)
        prob = qse_build(statevector_from_fock(reference_vector(ints)), ints, "SD")
        err = abs(ground_energy(prob) - oracle_eigenvalues(ints)[0])
        worst = max(worst, err)
        assert err < 1e-9, name
    print(f"criterion 07: {len(TWO_ELECTRON_NAMES)} fixtures, max |error| {worst:.2e}")


def test_criterion_08_commutator_gaps_and_shift_invariance():
    # double-commutator pencil at the exact reference reproduces the three
    # lowest gaps; adding a constant to H moves nothing
    ints = load_integrals("h2_sto3g")
    w = oracle_eigenvalues(ints)
    ref = statevector_from_fock(exact_eigenpairs(ints, k=1).eigenvectors[0])
    _, energies = qeom_build(ref, ints)
    got = np.sort(energies)[:3]
    np.testing.assert_allclose(got, w[1:4] - w[0], atol=1e-7)
    shifted = dataclasses.replace(ints, e_nuc=ints.e_nuc + 3.7)
    ref2 = statevector_from_fock(exact_eigenpairs(shifted, k=1).eigenvectors[0])
    _, energies2 = qeom_build(ref2, shifted)
    shift_dev = float(np.max(np.abs(np.sort(energies2)[:3] - got)))
    assert shift_dev < 1e-10
    print(f"criterion 08: gap error {np.max(np.abs(got - (w[1:4] - w[0]))):.2e}, "
          f"shift deviation {shift_dev:.2e}")


def test_criterion_09_imaginary_time_step_order_and_subspace_exactness():
    # a single unitary imaginary-time step deviates from normalized exact
    # imaginary evolution at second order; the exact-mode subspace at
    # n = 4, dtau = 0.5 recovers the ground energy on a gapped fixture
    ints = load_integrals("h2_sto3g")
    dense = sector_hamiltonian(
        ints.e_nuc, ints.one_body, ints.two_body, ints.num_up, ints.num_down
    )
    v0 = random_start(ints, 9)
    state = statevector_from_fock(v0)
    taus = (0.4, 0.2, 0.1, 0.05)
    errors = []
    for dtau in taus:
        new, _, _ = qite_step(state, ints, dtau)
        want, _ = imaginary_evolve_dense(dense, v0.amplitudes, dtau)
        want_sv = statevector_from_fock(FockVector(ints.sector, want))
        errors.append(float(np.linalg.norm(new.amplitudes - want_sv.amplitudes)))
    slope = float(np.polyfit(np.log(taus), np.log(errors), 1)[0])
    assert abs(slope - 2.0) < 0.2
    prob = qlanczos_build(reference_vector(ints), ints, 0.5, 4, mode="exact")
    err = abs(ground_energy(prob) - oracle_eigenvalues(ints)[0])
    assert err < 1e-6
    print(f"criterion 09: step slope {slope:.3f}, subspace error {err:.2e}")


def test_criterion_10_sampling_statistics():
    # entry estimators are unbiased (pooled z over 1000 seeds), entry
    # variance scales as 1/shots, and the propagated eigenvalue std covers
    # the noisy thresholded energy in >= 95/100 seeds; all under 5 minutes
    start = time.perf_counter()
    ints = load_integrals("h2_sto3g")
    v0 = reference_vector(ints)
    exact0 = oracle_eigenvalues(ints)[0]

    recipe = qfd_recipe(v0, ints, QfdGrid(0.4, 3, backend="exact"))
    clean = exact_subspace(recipe)
    groups = measurement_groups(recipe)
    seeds = 1000
    hmats, smats = [], []
    for seed in range(seeds):
        prob = noisy_subspace(recipe, ShotPlan(seed, (2048,) * len(groups)))
        hmats.append(prob.hmat)
        smats.append(prob.smat)
    upper = np.triu_indices(clean.n)
    z_max = 0.0
    sampled_entries = 0
    for exact_mat, stack in ((clean.hmat, np.stack(hmats)), (clean.smat, np.stack(smats))):
        for part in (np.real, np.imag):
            vals = part(stack)[:, upper[0], upper[1]]
            std = vals.std(axis=0, ddof=1)
            mask = std > 1e-12  # entries that are actually sampled
            sampled_entries += int(mask.sum())
            if mask.any():
                pooled = (vals.mean(axis=0) - part(exact_mat)[upper])[mask]
                z_max = max(z_max, float(np.max(np.abs(pooled) * math.sqrt(seeds) / std[mask])))
    assert sampled_entries > 0
    assert z_max < 5.0

    levels = (1_000, 10_000, 100_000)
    reps = 400
    variances = []
    for li, n_shots in enumerate(levels):
        vals = [
            noisy_subspace(
                recipe, ShotPlan(10_000 + li * reps + r, (n_shots,) * len(groups))
            ).hmat[0, 1].real
            for r in range(reps)
        ]
        variances.append(float(np.var(vals, ddof=1)))
    var_slope = float(np.polyfit(np.log(levels), np.log(variances), 1)[0])
    assert abs(var_slope + 1.0) < 0.1

    recipe_q = qse_recipe(statevector_from_fock(v0), ints, "SD")
    groups_q = measurement_groups(recipe_q)
    covered = 0
    for seed in range(100):
        prob = noisy_subspace(recipe_q, ShotPlan(50_000 + seed, (100_000,) * len(groups_q)))
        # noise-scaled threshold; the default median collapses here because
        # most pool products are deterministic
        sol = solve(prob, 20.0 * float(np.max(prob.smat_std)))
        covered += abs(float(sol.eigenvalues[0]) - exact0) <= 5.0 * eigenvalue_std(prob, sol, 0)
    elapsed = time.perf_counter() - start
    assert covered >= 95
    assert elapsed < 300.0
    print(f"criterion 10: max|z| {z_max:.2f} over {sampled_entries} entries, "
          f"variance slope {var_slope:.3f}, coverage {covered}/100, {elapsed:.1f}s")


def test_criterion_11_thresholded_solve_under_injected_noise():
    # gaussian noise of std 1e-4 on a 6-dim time-grid pair: every trial
    # solves to finite eigenvalues, and the arctangent shift bound
    # (constant-1 evaluation) holds in >= 95/100 trials
    ints = load_integrals("h3_plus")
    clean = qfd_build(reference_vector(ints), ints, QfdGrid(0.5, 6, backend="exact"))
    sigma = 1e-4
    stds = np.full((6, 6), sigma)
    rng = np.random.default_rng(111)
    finite = held = applicable = 0
    for _ in range(100):
        dh = sigma * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        ds = sigma * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        prob = SubspaceProblem(
            clean.hmat + dh / math.sqrt(2),
            clean.smat + ds / math.sqrt(2),
            {"method": "qfd"},
            hmat_std=stds,
            smat_std=stds,
        )
        record = perturbation_bound(prob)
        sol = solve(prob, eps=record.eps)
        finite += bool(np.all(np.isfinite(sol.eigenvalues)))
        if record.applicable:
            applicable += 1
            ref = reference_thresholded_solve(clean.hmat, clean.smat, record.eps)
            shift = abs(math.atan(float(sol.eigenvalues[0])) - math.atan(float(ref[0])))
            held += shift <= record.bound
    assert finite == 100
    assert held >= 95
    print(f"criterion 11: finite {finite}/100, bound held {held}/100 "
          f"(applicable {applicable}/100)")


def test_criterion_12_spectral_sum_rule_and_fast_forward():
    # a subspace that spans the sector resolves the identity: stick weights
    # sum to the probe norm, and projected evolution at t = 100 is faithful
    # for a contained state
    ints = load_integrals("h2_sto3g")
    v0 = reference_vector(ints)
    grid = QfdGrid(0.4, 6, backend="exact")
    basis = [evolve_real(ints, v0, t) for t in grid.times()]
    sol = solve(qfd_build(v0, ints, grid))
    # orbital 0's occupation count n_0up + n_0down, diagonal on the sector
    words = np.array([c.word for c in enumerate_configurations(*ints.sector)])
    probe = np.diag(((words & 1) + (words >> 2 & 1)).astype(float))
    _, weights = spectral_weights(sol, basis, probe)
    amps = sum(c * b.amplitudes for c, b in zip(sol.coefficients[:, 0], basis))
    image = probe @ amps
    closure = float(np.vdot(image, image).real)
    residual = abs(float(np.sum(weights.real)) - closure)
    assert residual < 1e-8

    result = fast_forward(sol, basis, v0, 100.0)
    want = evolve_real(ints, v0, 100.0)
    fidelity = abs(fock_inner(want, result.state)) ** 2 / float(
        fock_inner(result.state, result.state).real
    )
    assert result.projection_weight > 1 - 1e-10
    assert not result.low_weight
    assert fidelity >= 1 - 1e-6
    print(f"criterion 12: sum-rule residual {residual:.1e}, fidelity {fidelity:.9f}")
