"""Sampling noise model: group measurement, shot allocation, noisy subspaces."""

import dataclasses
import functools
import math
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse

from conftest import FIXTURE_NAMES, load_integrals
from oracles import qubitwise_model

from qsubspace.engine import (
    Statevector,
    apply_pauli,
    expectation,
    inner,
    statevector_from_fock,
)
from qsubspace.errors import ValidationError
from qsubspace.fock import (
    basis_vector,
    exact_eigenpairs,
    reference_configuration,
)
from qsubspace.geev import default_threshold, eigenvalue_std, solve
from qsubspace.quantum import QfdGrid, qfd_build, qfd_recipe, qse_build, qse_recipe
from qsubspace import shots
from qsubspace.qubits import (
    PauliString,
    PauliSum,
    commutes,
    group_commuting,
    jordan_wigner,
    pauli_sum,
)
from qsubspace.shots import (
    GENERATOR,
    ShotPlan,
    exact_subspace,
    measurement_groups,
    noisy_subspace,
    operator_recipe,
    pilot_variances,
    plan_from_target,
    sample_group,
)


def pstr(word):
    return PauliString.from_letters(word)


def random_string(rng, n):
    return PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))


def single_term(p):
    return pauli_sum(p.num_qubits, [(1.0, p)])


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Statevector(num_qubits, amp).normalized()


def hf_statevector(ints):
    return statevector_from_fock(basis_vector(ints.sector, reference_configuration(ints)))


PLUS = Statevector(1, np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))


class TestSampleGroup:
    def test_z_eigenstate_is_deterministic(self):
        for word, sign in ((0, 1.0), (1, -1.0)):
            amp = np.zeros(2, dtype=complex)
            amp[word] = 1.0
            (est,) = sample_group(Statevector(1, amp), [pstr("Z")], 100, seed=3)
            assert est.mean == sign
            assert est.std_error == 0.0
            assert est.shots == 100

    def test_plus_state_mean_concentrates(self):
        # binomial 5-sigma band at N = 1e4
        (est,) = sample_group(PLUS, [pstr("Z")], 10_000, seed=7)
        assert abs(est.mean) <= 5.0 / math.sqrt(10_000)

    def test_variance_scales_inversely_with_shots(self):
        points = []
        for n_shots in (100, 1_000, 10_000, 100_000):
            means = [
                sample_group(PLUS, [pstr("Z")], n_shots, seed=rep)[0].mean
                for rep in range(200)
            ]
            points.append((math.log(n_shots), math.log(np.var(means))))
        x, y = np.array(points).T
        slope = np.polyfit(x, y, 1)[0]
        assert abs(slope + 1.0) <= 0.1

    def test_streams_are_deterministic(self):
        group = [pstr("XIZ"), pstr("XZI")]
        state = random_state(3, 11)
        first = sample_group(state, group, 500, seed=5, group_index=2)
        again = sample_group(state, group, 500, seed=5, group_index=2)
        assert first == again
        other = sample_group(state, group, 500, seed=6, group_index=2)
        assert first != other

    def test_reordering_keeps_per_string_estimates(self):
        # one joint sample stream serves every string of the group
        state = random_state(3, 4)
        group = [pstr("XIZ"), pstr("XZI"), pstr("XZZ"), pstr("XII")]
        base = dict(zip(group, sample_group(state, group, 2_000, seed=9)))
        flipped = list(reversed(group))
        again = dict(zip(flipped, sample_group(state, flipped, 2_000, seed=9)))
        assert all(base[p] == again[p] for p in group)

    def test_coefficient_pairs_are_accepted(self):
        state = random_state(2, 8)
        bare = sample_group(state, [pstr("ZI"), pstr("IZ")], 300, seed=1)
        paired = sample_group(state, [(0.5, pstr("ZI")), (2.0, pstr("IZ"))], 300, seed=1)
        assert bare == paired

    def test_bell_state_full_group_is_deterministic(self):
        # XX, YY, ZZ only commute jointly; the Bell state is an eigenstate
        bell = Statevector(2, np.array([1.0, 0.0, 0.0, 1.0], dtype=complex))
        ests = sample_group(bell, [pstr("XX"), pstr("YY"), pstr("ZZ")], 400, seed=2)
        assert [e.mean for e in ests] == [1.0, -1.0, 1.0]
        assert all(e.std_error == 0.0 for e in ests)

    def test_full_group_is_unbiased(self):
        state = random_state(2, 17)
        group = [pstr("XX"), pstr("YY"), pstr("ZZ")]
        ests = sample_group(state, group, 200_000, seed=13)
        for est, p in zip(ests, group):
            exact = expectation(single_term(p), state).real
            assert abs(est.mean - exact) <= 5.0 * max(est.std_error, 1e-12)

    def test_unbiased_over_many_seeds(self):
        # pooled mean of means within 5 pooled standard errors, 1e3 seeds
        state = random_state(3, 9)
        group = [pstr("XIZ"), pstr("XZI"), pstr("XZZ"), pstr("XII")]
        exact = np.array([expectation(single_term(p), state).real for p in group])
        total = np.zeros(len(group))
        total_var = np.zeros(len(group))
        n_seeds = 1_000
        for seed in range(n_seeds):
            for k, est in enumerate(sample_group(state, group, 200, seed=seed)):
                total[k] += est.mean
                total_var[k] += est.std_error**2
        pooled_se = np.sqrt(total_var) / n_seeds
        z = np.abs(total / n_seeds - exact) / pooled_se
        assert np.all(z <= 5.0)

    def test_std_error_is_calibrated(self):
        # reported std_error tracks the empirical std of the mean within 20%
        state = random_state(3, 9)
        group = [pstr("XIZ")]
        means, reported = [], []
        for rep in range(300):
            (est,) = sample_group(state, group, 400, seed=5_000 + rep)
            means.append(est.mean)
            reported.append(est.std_error)
        ratio = np.mean(reported) / np.std(means)
        assert 0.8 <= ratio <= 1.2

    def test_rekeyed_streams_match_fresh_philox(self):
        # each stream starts from a clean state, whatever the last one drew
        seed = 2**64 - 1
        stream = shots._streams(seed)
        for index in (0, 7, 3, 2**64 - 1):
            key = np.array([seed, index], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key))
            got = stream(index)
            assert got.random() == fresh.random()
            assert np.array_equal(
                got.multinomial(1000, [0.2, 0.3, 0.5]),
                fresh.multinomial(1000, [0.2, 0.3, 0.5]),
            )
            # leaves half a 64-bit word buffered for the next stream to drop
            assert got.integers(2**32, dtype=np.uint32) == fresh.integers(2**32, dtype=np.uint32)
        with pytest.raises(ValidationError):
            stream(2**64)

    def test_non_commuting_group_rejected(self):
        for words in (("X", "Z"), ("XX", "ZI"), ("XX", "YY", "ZX")):
            state = random_state(len(words[0]), 3)
            with pytest.raises(ValidationError, match="commute"):
                sample_group(state, [pstr(w) for w in words], 10, seed=0)

    def test_any_anticommuting_pair_is_rejected(self):
        # the elimination's test is complete: a random set of strings is
        # rejected exactly when some pair anticommutes
        rng = np.random.default_rng(5)
        state = random_state(3, 6)
        for _ in range(300):
            group = {random_string(rng, 3) for _ in range(rng.integers(2, 6))}
            group = list(group - {pstr("III")})
            masks = np.array([(p.x, p.z) for p in group], np.uint64).T
            if all(commutes(a, b) for a in group for b in group):
                shots._group_model(state, *masks)
            else:
                with pytest.raises(ValidationError):
                    shots._group_model(state, *masks)

    @pytest.mark.parametrize("num_qubits", [3, 4, 5, 6])
    def test_random_commuting_groups_match_dense_moments(self, num_qubits):
        # mixed-letter commuting sets: sum_b p_b v_k v_l = <P_k P_l> and
        # sum_b p_b v_k = <P_k>, against dense matrices on random states
        rng = np.random.default_rng(num_qubits)
        mixed = 0
        for trial in range(20):
            group = []
            for _ in range(40):
                p = random_string(rng, num_qubits)
                if (p.x | p.z) and p not in group and all(commutes(p, q) for q in group):
                    group.append(p)
            x, z = np.array([(p.x, p.z) for p in group], np.uint64).T
            mixed += bool(((x[:, None] & z) ^ (z[:, None] & x)).any())
            state = random_state(num_qubits, 100 * num_qubits + trial)
            probs, values = shots._group_model(state, x, z)
            mats = [single_term(p).to_dense() for p in group]
            psi = state.amplitudes
            want = np.array([[psi.conj() @ a @ b @ psi for b in mats] for a in mats])
            got = (values * probs) @ values.T.astype(float)
            assert np.all(np.abs(got - want) <= 1e-12)
            assert abs(probs.sum() - 1.0) <= 1e-12 and np.all(np.abs(values) == 1)
        assert mixed >= 15

    def test_empty_group_rejected(self):
        with pytest.raises(ValidationError):
            sample_group(PLUS, [], 10, seed=0)

    def test_shot_and_seed_domains(self):
        with pytest.raises(ValidationError):
            sample_group(PLUS, [pstr("Z")], 0, seed=0)
        with pytest.raises(ValidationError):
            sample_group(PLUS, [pstr("Z")], 10, seed=-1)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="width"):
            sample_group(PLUS, [pstr("ZZ")], 10, seed=0)

    def test_full_group_on_13_qubits_needs_little_memory(self):
        # a Bell pair on the two lowest of 13 qubits; a dense joint
        # eigenbasis of this group would need about 1,360 MiB at 12 qubits
        amp = np.zeros(1 << 13, dtype=complex)
        amp[0] = amp[3] = 1.0
        group = [pstr("I" * 11 + w) for w in ("XX", "YY", "ZZ")]
        tracemalloc.start()
        try:
            ests = sample_group(Statevector(13, amp), group, 400, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [e.mean for e in ests] == [1.0, -1.0, 1.0]
        assert all(e.std_error == 0.0 for e in ests)
        assert peak < 16 << 20


class TestShotAllocation:
    def test_plan_validation(self):
        with pytest.raises(ValidationError):
            ShotPlan(0, ())
        with pytest.raises(ValidationError):
            ShotPlan(0, (0,))
        with pytest.raises(ValidationError):
            ShotPlan(-1, (5,))
        with pytest.raises(ValidationError):
            ShotPlan(2**64, (5,))
        assert ShotPlan(2**64 - 1, (5,)).seed == 2**64 - 1
        plan = ShotPlan(3, (5, 7), eps_target=0.1)
        assert plan.total_shots == 12
        assert plan.to_dict() == {
            "generator": GENERATOR,
            "seed": 3,
            "counts": [5, 7],
            "eps_target": 0.1,
            "mode": "qubitwise",
        }

    def test_realized_variance_meets_target(self, h2):
        # full chain: pilot -> allocation -> sampled energy, 100 executions
        eps = 0.02
        recipe = operator_recipe(hf_statevector(h2), jordan_wigner(h2))
        plan = plan_from_target(recipe, eps, seed=5)
        energies = [
            noisy_subspace(recipe, ShotPlan(seed, plan.counts, eps_target=eps)).hmat[
                0, 0
            ].real
            for seed in range(100)
        ]
        assert np.var(energies) <= 2.0 * eps**2

    def test_target_plan_gives_every_read_group_the_uniform_count(self, h4_toy):
        # the 100-shot pilot sees no variance in groups 0 and 465, which
        # entries read; a single shot there would leave their error out of
        # every entry std
        v0 = basis_vector(h4_toy.sector, reference_configuration(h4_toy))
        recipe = qfd_recipe(v0, h4_toy, QfdGrid(dt=0.4, n=4))
        plan = plan_from_target(recipe, 1e-3, seed=0)
        groups = measurement_groups(recipe)
        pilot = pilot_variances(recipe, groups, seed=0)
        assert not pilot[:, 0].any() and not pilot[:, 465].any()
        assert plan.counts == (9_015_160,) * len(groups)

    def test_target_must_be_positive(self, h2):
        recipe = operator_recipe(hf_statevector(h2), jordan_wigner(h2))
        for eps in (0.0, -1e-3):
            with pytest.raises(ValidationError, match="eps_target"):
                plan_from_target(recipe, eps, seed=1)

    def test_pilot_needs_the_recipes_own_groups(self, h2):
        recipe = operator_recipe(hf_statevector(h2), jordan_wigner(h2))
        groups = measurement_groups(recipe)
        with pytest.raises(ValidationError):
            pilot_variances(recipe, groups[::-1], seed=2)

    def test_pilot_variances_are_deterministic(self, h2):
        recipe = operator_recipe(hf_statevector(h2), jordan_wigner(h2))
        groups = measurement_groups(recipe)
        first = pilot_variances(recipe, groups, seed=2)
        again = pilot_variances(recipe, groups, seed=2)
        assert np.array_equal(first, again)
        assert first.shape == (recipe.matrix.shape[0], len(groups))


class TestRecipes:
    # h3_plus SD needs more Pauli products than the qse recipe budget
    @pytest.mark.parametrize("name, levels", [("h2_sto3g", ("S", "SD")), ("h3_plus", ("S",))])
    def test_some_row_reads_every_group_of_each_recipe(self, name, levels):
        # sampling builds tables for every group and plan_from_target gives
        # each one M shots: that is no waste only while every group is read
        ints = load_integrals(name)
        state = hf_statevector(ints)
        v0 = basis_vector(ints.sector, reference_configuration(ints))
        recipes = [*(qse_recipe(state, ints, level=level) for level in levels),
                   qfd_recipe(v0, ints, QfdGrid(0.4, 4)),
                   qfd_recipe(v0, ints, QfdGrid(0.4, 4, backend="trotter")),
                   operator_recipe(state, jordan_wigner(ints))]
        for recipe in recipes:
            read = np.bincount(recipe.matrix.indices, minlength=recipe.matrix.shape[1]) > 0
            for mode in ("qubitwise", "full"):
                for g in measurement_groups(recipe, mode):
                    assert read[recipe._offsets[g.job] + np.array(g.members)].any()

    def test_qse_exact_limit_matches_builder(self, h2):
        recipe = qse_recipe(hf_statevector(h2), h2, level="SD")
        built = qse_build(hf_statevector(h2), h2, level="SD")
        prob = exact_subspace(recipe)
        assert np.allclose(prob.hmat, built.hmat, atol=1e-10)
        assert np.allclose(prob.smat, built.smat, atol=1e-10)
        assert not prob.noisy
        assert recipe.provenance == built.provenance

    def test_qse_singles_exact_limit(self, heh):
        recipe = qse_recipe(hf_statevector(heh), heh, level="S")
        built = qse_build(hf_statevector(heh), heh, level="S")
        prob = exact_subspace(recipe)
        assert np.allclose(prob.hmat, built.hmat, atol=1e-10)
        assert np.allclose(prob.smat, built.smat, atol=1e-10)

    def test_qfd_exact_limit_matches_builder(self, h2):
        v0 = basis_vector(h2.sector, reference_configuration(h2))
        grid = QfdGrid(dt=0.4, n=4)
        prob = exact_subspace(qfd_recipe(v0, h2, grid))
        built = qfd_build(v0, h2, grid)
        assert np.allclose(prob.hmat, built.hmat, atol=1e-9)
        assert np.allclose(prob.smat, built.smat, atol=1e-10)

    def test_qfd_trotter_recipe_tracks_builder(self, h2):
        # S shares the exact offset structure; H differs by the
        # product-formula error, which shrinks with substeps
        v0 = basis_vector(h2.sector, reference_configuration(h2))
        errs = []
        for substeps in (1, 4):
            grid = QfdGrid(dt=0.1, n=4, backend="trotter", substeps=substeps)
            prob = exact_subspace(qfd_recipe(v0, h2, grid))
            built = qfd_build(v0, h2, grid)
            assert np.allclose(prob.smat, built.smat, atol=1e-10)
            errs.append(np.max(np.abs(prob.hmat - built.hmat)))
        assert errs[0] < 1e-2
        assert errs[1] < errs[0] / 2.0

    def test_measurement_groups_partition_each_job(self, h2):
        recipe = qse_recipe(hf_statevector(h2), h2, level="SD")
        groups = measurement_groups(recipe)
        for j, job in enumerate(recipe.jobs):
            members = sorted(
                k for g in groups if g.job == j for k in g.members
            )
            assert members == list(range(len(job.strings)))
        full = measurement_groups(recipe, mode="full")
        assert len(full) <= len(groups)

    def test_recipe_is_frozen(self, h2):
        recipe = qse_recipe(hf_statevector(h2), h2, level="S")
        with pytest.raises(dataclasses.FrozenInstanceError):
            recipe.size = 2
        with pytest.raises(TypeError):
            recipe.entries[("h", 0, 0)] = recipe.entries[("s", 0, 0)]
        for array in (recipe.const, recipe.matrix.data, recipe.matrix.indices,
                      recipe.matrix.indptr):
            with pytest.raises(ValueError):
                array[0] = array[-1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            recipe.jobs[0].strings = ()
        with pytest.raises(ValueError):
            recipe.jobs[0].state.amplitudes[0] = 0.0

    def test_grouping_runs_once_per_recipe_and_mode(self, h2, monkeypatch):
        calls = []

        def counted(h, mode="qubitwise"):
            calls.append(mode)
            return group_commuting(h, mode)

        monkeypatch.setattr(shots, "group_commuting", counted)
        recipe = qse_recipe(hf_statevector(h2), h2, level="SD")
        groups = measurement_groups(recipe)
        assert measurement_groups(recipe) is groups
        plan = plan_from_target(recipe, 0.05, seed=1)
        first = noisy_subspace(recipe, plan)
        again = noisy_subspace(recipe, plan)
        assert np.array_equal(first.hmat, again.hmat)
        assert np.array_equal(first.smat_std, again.smat_std)
        assert calls == ["qubitwise"] * len(recipe.jobs)
        full = measurement_groups(recipe, mode="full")
        noisy_subspace(recipe, ShotPlan(1, (10,) * len(full), mode="full"))
        assert calls.count("full") == len(recipe.jobs)

    def test_recipe_rejects_bad_references_and_job_order(self):
        state = random_state(2, 3)
        job = shots.MeasurementJob(state, pauli_sum(2, [(1.0, "XI"), (1.0, "ZZ")]))

        def recipe(cols, rows=(0, 1), jobs=(job,), width=None, const=(0.0, 1.0)):
            # row 0 reads cols, row 1 is the constant 1
            width = sum(len(j.strings) for j in jobs) if width is None else width
            matrix = scipy.sparse.csr_array(
                (np.ones(len(cols), complex), np.array(cols, np.int32),
                 np.array([0, len(cols), len(cols)], np.int32)), shape=(2, width))
            entries = {("h", 0, 0): rows[0], ("s", 0, 0): rows[1]}
            return shots.ExpectationRecipe(1, jobs, entries, const, matrix)

        assert recipe([1, 0]).matrix.indices.tolist() == [1, 0]
        assert exact_subspace(recipe([1, 0], jobs=(job, job))).smat[0, 0] == 1.0
        for cols, rows, width, const, message in (
            ([2], (0, 1), None, (0.0, 1.0), "missing string"),
            ([0, -1], (0, 1), None, (0.0, 1.0), "missing string"),
            ([0], (0, 2), None, (0.0, 1.0), "bad entry"),
            ([0], (-1, 1), None, (0.0, 1.0), "bad entry"),
            ([0], (0, 1), 3, (0.0, 1.0), "a column per job string"),
            ([0], (0, 1), None, (1.0,), "one const per matrix row"),
            ([0], (0, 1), None, (0.0, 1.0, 0.0), "one const per matrix row"),
            ([0], (0, 1), None, ((0.0, 1.0),), "one const per matrix row"),
        ):
            with pytest.raises(ValidationError, match=message):
                recipe(cols, rows, width=width, const=const)
        # strings out of canonical order (Z sorts after X), or repeated, are
        # refused when the job is built
        zz, xi = pstr("ZZ"), pstr("XI")
        for x, z in (([zz.x, xi.x], [zz.z, xi.z]), ([xi.x, xi.x], [xi.z, xi.z])):
            with pytest.raises(ValidationError, match="distinct and in canonical order"):
                shots.MeasurementJob(state, PauliSum(2, x, z, [1.0, 1.0]))

    def test_operator_recipe_exact_value(self, h3_plus):
        state = hf_statevector(h3_plus)
        ham = jordan_wigner(h3_plus)
        prob = exact_subspace(operator_recipe(state, ham))
        assert prob.hmat.shape == (1, 1)
        assert prob.smat[0, 0] == 1.0
        assert abs(prob.hmat[0, 0] - expectation(ham, state)) < 1e-12


@functools.cache
def checked_recipe(name):
    method, fixture = name.split()
    ints = load_integrals(fixture)
    if method == "qfd":
        v0 = basis_vector(ints.sector, reference_configuration(ints))
        return qfd_recipe(v0, ints, QfdGrid(dt=0.4, n=4))
    return qse_recipe(hf_statevector(ints), ints, level=method.removeprefix("qse-"))


@functools.cache
def entry_blocks_by_term(recipe, groups):
    """Per group: the rows and coefficient matrix of the entries reading it,
    accumulated term by term in entry order."""
    lookup = {}
    for f, g in enumerate(groups):
        for col, k in enumerate(g.members):
            lookup[recipe._offsets[g.job] + k] = (f, col)
    rows = [[] for _ in groups]
    coeffs = [[] for _ in groups]
    for d, (ks, cs) in enumerate(row_terms(recipe)):
        per_group = {}
        for k, c in zip(ks, cs):
            f, col = lookup[k]
            vec = per_group.get(f)
            if vec is None:
                vec = per_group[f] = np.zeros(len(groups[f].members), dtype=complex)
            vec[col] += c
        for f, vec in per_group.items():
            rows[f].append(d)
            coeffs[f].append(vec)
    return [(np.asarray(r, dtype=int), np.asarray(c, dtype=complex)) for r, c in zip(rows, coeffs)]


def row_terms(recipe):
    """Per recipe row: its column indices and coefficients, in stored order."""
    m = recipe.matrix
    return [(m.indices[lo:hi].tolist(), m.data[lo:hi].tolist())
            for lo, hi in zip(m.indptr[:-1], m.indptr[1:])]


def same_bits(a, b):
    return a.dtype == b.dtype and a.size == b.size and a.tobytes() == b.tobytes()


def pair_weights_by_term(rows, cmat, base):
    """(entry, slot, weight) of one group's pairs i <= j that an entry reads,
    Re(conj a_i a_j) doubled for i < j, sorted by slot and then entry."""
    m = cmat.shape[1]
    i, j = np.triu_indices(m)
    read = (cmat[:, i] != 0) & (cmat[:, j] != 0)
    r, k = np.nonzero(read)
    a, b = cmat[r, i[k]], cmat[r, j[k]]
    w = (a.conj() * b).real * np.where(i[k] < j[k], 2.0, 1.0)
    slot = base + i[k] * m + j[k]
    order = np.lexsort((rows[r], slot))
    return rows[r][order], slot[order], w[order]


def moments_by_outcome(cmat, values, counts, n):
    """Mean of each entry's contribution over n shots and its single-shot
    variance, summed outcome by outcome (the formula the pair weights
    replace)."""
    per_shot = cmat @ values.astype(complex)  # (entries, outcomes)
    mean = per_shot @ counts / n
    if n == 1:
        return mean, np.zeros(mean.size)
    second = (np.abs(per_shot) ** 2) @ counts / n
    var1 = (second - np.abs(mean) ** 2) * n / (n - 1)
    return mean, np.maximum(var1.real, 0.0)


def fresh_stream(seed, index):
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


CHECKED = ["qfd h4_toy", "qse-S h3_plus", "qse-SD h2_sto3g", "qse-S h4_toy"]


class TestCompiledRecipe:
    """The sparse entry matrix against the per-term sums it replaces."""

    @pytest.mark.parametrize(
        "name, mode",
        [
            ("qfd h4_toy", "qubitwise"),
            ("qse-S h3_plus", "qubitwise"),
            ("qse-S h3_plus", "full"),
            ("qse-SD h2_sto3g", "qubitwise"),
            ("qse-SD h2_sto3g", "full"),
            ("qse-S h4_toy", "qubitwise"),
        ],
    )
    def test_pair_weights_equal_the_per_term_oracle(self, name, mode):
        recipe = checked_recipe(name)
        groups = measurement_groups(recipe, mode)
        compiled = shots._compile(recipe, mode)
        weights = scipy.sparse.vstack(compiled.weights).tocsc()
        assert weights.shape == (recipe.matrix.shape[0], compiled.slots[-1])
        seen = 0
        for f, (rows, cmat) in enumerate(entry_blocks_by_term(recipe, groups)):
            lo, hi = compiled.slots[f], compiled.slots[f + 1]
            assert hi - lo == len(groups[f].members) ** 2
            block = weights[:, lo:hi]
            got_slot = lo + np.repeat(np.arange(hi - lo), np.diff(block.indptr))
            want = pair_weights_by_term(rows, cmat, lo) if rows.size else ((), (), ())
            assert np.array_equal(block.indices, want[0])
            assert np.array_equal(got_slot, want[1])
            assert same_bits(block.data, np.asarray(want[2], dtype=float))
            seen += block.nnz
        assert seen == weights.nnz

    @pytest.mark.parametrize("mode", ["qubitwise", "full"])
    def test_each_distinct_table_is_grouped_once(self, h4_toy, mode, monkeypatch):
        # qfd's three Hadamard-test jobs share one string table
        v0 = basis_vector(h4_toy.sector, reference_configuration(h4_toy))
        recipe = qfd_recipe(v0, h4_toy, QfdGrid(dt=0.4, n=4))
        tables = {job.strings.keys.tobytes() for job in recipe.jobs}
        assert (len(recipe.jobs), len(tables)) == (4, 2)
        calls = []

        def counted(h, how):
            calls.append(how)
            return group_commuting(h, how)

        monkeypatch.setattr(shots, "group_commuting", counted)
        groups = measurement_groups(recipe, mode)
        assert calls == [mode, mode]
        alone = tuple(shots.MeasurementGroup(j, tuple(sorted(members)))
                      for j, job in enumerate(recipe.jobs)
                      for members in group_commuting(job.strings, mode).groups)
        assert groups == alone

    @pytest.mark.parametrize("fixture", FIXTURE_NAMES)
    @pytest.mark.parametrize("method", ["qse-S", "qfd"])
    def test_group_models_equal_the_per_group_oracle(self, method, fixture):
        # every group model of a job is built in one batch; a qubitwise one
        # must be the one-group einsum rotation bit for bit, any other must
        # give each string's exact expectation
        recipe = checked_recipe(f"{method} {fixture}")
        exact = []
        for job in recipe.jobs:
            s = job.state.normalized()
            exact.append(np.array([inner(s, apply_pauli(p, s)).real for p in job.strings.strings]))
        checked = {"qubitwise": 0, "mixed": 0}
        for mode in ("qubitwise", "full"):
            compiled = shots._compile(recipe, mode)
            tables = [row for block in compiled.tables
                      for row in zip(block.groups, block.probs, block.values)]
            for f, table_probs, table_values in tables:
                g = compiled.groups[f]
                job, m = recipe.jobs[g.job], list(g.members)
                x, z = job.strings.x[m], job.strings.z[m]
                if ((x[:, None] & z) ^ (z[:, None] & x)).any():
                    assert np.all(np.abs(table_values @ table_probs - exact[g.job][m]) <= 1e-12)
                    checked["mixed"] += 1
                    continue
                probs, values = qubitwise_model(job.state.amplitudes, x, z)
                assert same_bits(table_probs, probs) and same_bits(table_values, values)
                checked["qubitwise"] += 1
        assert checked["qubitwise"] > 0
        assert checked["mixed"] > 0 or fixture == "he_minimal"

    @pytest.mark.parametrize(
        "name, before, slack",
        [("qse-S h4_toy", 74_984_548, 0), ("qfd h4_toy", 5_365_591, 1 << 16)],
    )
    def test_group_model_batches_keep_the_compile_peak(self, name, before, slack):
        # tracemalloc peak of compiling the recipe in a fresh interpreter;
        # `before` is the lowest of three peaks measured before the qubitwise
        # group models were built in batches.  The qfd recipe keeps only
        # 4.5 MB, so an oversized batch shows: one batch per job raised its
        # peak by 3.3 MB.  Its slack covers the few KiB by which the array
        # headers the tables keep may differ.
        root = pathlib.Path(__file__).resolve().parent.parent
        code = textwrap.dedent(f"""
            import sys, tracemalloc
            sys.path[:0] = [{str(root / "src")!r}, {str(root / "tests")!r}]
            from test_shots import checked_recipe, shots
            recipe = checked_recipe({name!r})
            shots.measurement_groups(recipe)
            tracemalloc.start()
            shots._compile(recipe, "qubitwise")
            print(tracemalloc.get_traced_memory()[1])
        """)
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert int(run.stdout) <= before + slack

    @pytest.mark.parametrize(
        "name, before, slack",
        [("qfd h4_toy", 603_860, 0), ("qse-S h4_toy", 2_737_672, 0)],
    )
    def test_one_seed_keeps_the_sampling_peak(self, name, before, slack):
        # tracemalloc peak of one noisy_subspace call on a compiled recipe,
        # in a fresh interpreter; `before` is the peak when each group was
        # drawn and summed on its own (the same in every run).  A block's
        # float temporaries hold about _BLOCK entries, so only a group too
        # large to share a block sets the peak, as it did before.
        root = pathlib.Path(__file__).resolve().parent.parent
        code = textwrap.dedent(f"""
            import sys, tracemalloc
            sys.path[:0] = [{str(root / "src")!r}, {str(root / "tests")!r}]
            from test_shots import checked_recipe, shots
            recipe = checked_recipe({name!r})
            compiled = shots._compile(recipe, "qubitwise")
            plan = shots.ShotPlan(5, (1000,) * len(compiled.groups))
            tracemalloc.start()
            shots.noisy_subspace(recipe, plan)
            print(tracemalloc.get_traced_memory()[1])
        """)
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert int(run.stdout) <= before + slack

    @pytest.mark.parametrize("name", CHECKED)
    def test_exact_limit_is_the_per_term_sum(self, name):
        recipe = checked_recipe(name)
        exact = [
            inner(job.state, apply_pauli(p, job.state))
            for job in recipe.jobs for p in job.strings.strings
        ]
        prob = exact_subspace(recipe)
        terms = row_terms(recipe)
        for (kind, i, j), row in recipe.entries.items():
            acc = recipe.const[row]
            for k, c in zip(*terms[row]):
                acc += c * exact[k]
            got = (prob.hmat if kind == "h" else prob.smat)[i, j]
            assert abs(got - acc) <= 1e-14


class TestNoisySubspace:
    @pytest.mark.parametrize("name", CHECKED)
    @pytest.mark.parametrize("n", [1, 3000])
    def test_sampled_moments_match_the_per_outcome_formula(self, name, n, monkeypatch):
        # same draws, and entry means and variances within 1e-12 of the
        # outcome-by-outcome sums, relative to the entry's coefficient scale
        recipe = checked_recipe(name)
        groups = measurement_groups(recipe)
        blocks = entry_blocks_by_term(recipe, groups)
        drawn, assembled = [], []
        draw = shots._draw

        def recorded(stream, index, shots_, probs):
            counts = draw(stream, index, shots_, probs)
            drawn.append((index, counts.copy()))
            return counts

        def captured(recipe, values, stds=None):
            assembled.append((values, stds))
            return types.SimpleNamespace(provenance={})

        monkeypatch.setattr(shots, "_draw", recorded)
        monkeypatch.setattr(shots, "_assemble", captured)
        seed = 17
        noisy_subspace(recipe, ShotPlan(seed, (n,) * len(groups)))
        pilot = pilot_variances(recipe, groups, seed)

        count = recipe.matrix.shape[0]
        values, var_mean = recipe.const.copy(), np.zeros(count)
        want_pilot, want_drawn = np.zeros((count, len(groups))), []
        for f, (g, (rows, cmat)) in enumerate(zip(groups, blocks)):
            if not rows.size:
                continue
            job = recipe.jobs[g.job]
            m = list(g.members)
            probs, table = shots._group_model(job.state, job.strings.x[m], job.strings.z[m])
            counts = fresh_stream(seed, f).multinomial(n, probs)
            want_drawn.append(counts)
            mean, var1 = moments_by_outcome(cmat, table, counts, n)
            values[rows] += mean
            var_mean[rows] += var1 / n
            pilot_counts = fresh_stream(seed, len(groups) + f).multinomial(100, probs)
            want_pilot[rows, f] = moments_by_outcome(cmat, table, pilot_counts, 100)[1]

        # in group order, the production draws come first, then the pilot's
        assert len(drawn) == 2 * len(want_drawn)
        drawn = [counts for _, counts in sorted(drawn, key=lambda item: item[0])]
        assert all(same_bits(a, b) for a, b in zip(drawn, want_drawn))
        scale = np.array([np.abs(cs).sum() for _, cs in row_terms(recipe)])
        (got_values, got_stds), = assembled
        assert np.all(np.abs(got_values - values) <= 1e-12 * scale)
        assert np.all(np.abs(got_stds**2 - var_mean) <= 1e-12 * scale**2 / n)
        assert np.all(np.abs(pilot - want_pilot) <= 1e-12 * scale[:, None] ** 2)

    def test_batched_sums_are_integer_exact(self, monkeypatch):
        # one _sample call over groups of 1, 2 and 3 strings, three of them
        # in one block with 2^53 - 1, 7 and 3^30 shots: every stacked h and G
        # equals the Python-integer sums of the same counts, and the means
        # and covariances equal the one-group formula below bit for bit
        def histogram(values, counts, n):
            c = counts.astype(float)
            v = values.astype(float)
            h = v @ c
            return h, ((v * c) @ v.T - h[:, None] * h / n) / max(n - 1, 1)

        h = pauli_sum(3, [(0.5, "ZZI"), (0.3, "ZIZ"), (0.2, "IZZ"), (0.7, "XXI"), (0.1, "XIX"),
                          (0.4, "YYY"), (0.6, "IXI"), (0.9, "YII"), (0.25, "IIY"),
                          (0.35, "ZII"), (0.45, "XXX"), (0.15, "YZI")])
        recipe = operator_recipe(random_state(3, 4), h)
        compiled = shots._compile(recipe, "qubitwise")
        sizes = [len(g.members) for g in compiled.groups]
        assert sizes == [3, 3, 2, 1, 3] and len(compiled.tables) == 3
        assert compiled.tables[0].groups.tolist() == [0, 1, 4]
        counts = (2**53 - 1, 7, 1, 1000, 3**30)
        seen = []
        sums = shots._sums

        def recorded(values, c):
            got = sums(values, c)
            seen.append((values.copy(), c.copy(), *got))
            return got

        monkeypatch.setattr(shots, "_sums", recorded)
        seed = 29
        means, cov = shots._sample(recipe, compiled, counts, seed)
        assert len(seen) == len(compiled.tables)
        for block, (values, c, got_h, got_g) in zip(compiled.tables, seen):
            for row, f in enumerate(block.groups.tolist()):
                v, k = values[row].astype(int).tolist(), [int(x) for x in c[row]]
                assert k == c[row].tolist() and sum(k) == counts[f]
                assert got_h[row].tolist() == [sum(a * b for a, b in zip(vi, k)) for vi in v]
                assert got_g[row].tolist() == [
                    [sum(a * b * n for a, b, n in zip(vi, vj, k)) for vj in v] for vi in v
                ]
                n = counts[f]
                drawn = fresh_stream(seed, f).multinomial(n, block.probs[row])
                want_h, want_cov = histogram(block.values[row], drawn, n)
                assert same_bits(means[block.cols[row]], want_h / n)
                lo, hi = compiled.slots[f], compiled.slots[f + 1]
                assert same_bits(cov[lo:hi], want_cov.ravel())

    def test_large_shot_qse_matches_exact(self, h2):
        recipe = qse_recipe(hf_statevector(h2), h2, level="SD")
        groups = measurement_groups(recipe)
        prob = noisy_subspace(recipe, ShotPlan(11, (1_000_000,) * len(groups)))
        exact = exact_subspace(recipe)
        assert np.max(np.abs(prob.hmat - exact.hmat)) < 2e-2
        assert prob.noisy
        assert prob.provenance["shots"]["generator"] == GENERATOR
        assert prob.provenance["shots"]["counts"] == [1_000_000] * len(groups)

    def test_sampled_qfd_stays_toeplitz(self, h2):
        # entries of one diagonal share estimates, so the structure is exact
        v0 = basis_vector(h2.sector, reference_configuration(h2))
        recipe = qfd_recipe(v0, h2, QfdGrid(dt=0.4, n=4))
        groups = measurement_groups(recipe)
        prob = noisy_subspace(recipe, ShotPlan(3, (10_000,) * len(groups)))
        for mat in (prob.hmat, prob.smat):
            for k in range(4):
                diag = np.diag(mat, k)
                assert np.all(diag == diag[0])
        assert np.all(np.diag(prob.smat) == 1.0)  # offset zero is exact

    def test_large_shot_qfd_eigenvalues(self, h2):
        # shots off versus 1e8 shots per group at matched thresholds
        v0 = basis_vector(h2.sector, reference_configuration(h2))
        grid = QfdGrid(dt=0.4, n=4)
        recipe = qfd_recipe(v0, h2, grid)
        groups = measurement_groups(recipe)
        prob = noisy_subspace(recipe, ShotPlan(3, (100_000_000,) * len(groups)))
        noisy = solve(prob, default_threshold(prob))
        clean = solve(qfd_build(v0, h2, grid), 1e-8)
        m = min(noisy.retained_dim, clean.retained_dim)
        assert m >= 2
        assert np.max(np.abs(noisy.eigenvalues[:m] - clean.eigenvalues[:m])) < 1e-3

    def test_mirrored_entry_stds_are_calibrated(self, h2):
        # over 400 seeds each entry's spread matches its reported std; an
        # off-diagonal estimate fills (i, j) and (j, i), whose two stds must
        # not be combined as if they were independent (that reads 1/sqrt(2))
        v0 = basis_vector(h2.sector, reference_configuration(h2))
        recipe = qfd_recipe(v0, h2, QfdGrid(dt=0.4, n=3))
        count = len(measurement_groups(recipe))
        probs = [noisy_subspace(recipe, ShotPlan(seed, (2000,) * count)) for seed in range(400)]
        off = ~np.eye(3, dtype=bool)
        for name in ("hmat", "smat"):
            values = np.array([getattr(p, name) for p in probs])
            spread = np.sqrt(np.mean(np.abs(values - values.mean(axis=0)) ** 2, axis=0))
            stated = np.mean([getattr(p, name + "_std") for p in probs], axis=0)
            assert np.all((0.9 <= spread[off] / stated[off]) & (spread[off] / stated[off] <= 1.1))
            if name == "hmat":
                assert np.all(np.abs(np.diag(spread) / np.diag(stated) - 1.0) <= 0.1)
            else:  # offset zero of S is the constant 1
                assert not np.diag(spread).any() and not np.diag(stated).any()

    def test_bit_identical_replay(self, h2):
        recipe = qse_recipe(hf_statevector(h2), h2, level="SD")
        plan = ShotPlan(21, (2_000,) * len(measurement_groups(recipe)))
        first = noisy_subspace(recipe, plan)
        again = noisy_subspace(recipe, plan)
        assert np.array_equal(first.hmat, again.hmat)
        assert np.array_equal(first.smat, again.smat)
        assert np.array_equal(first.hmat_std, again.hmat_std)

    def test_entrywise_concentration(self, h2):
        # |sampled - exact| <= 5 std for at least 99% of entries over seeds
        recipe = qse_recipe(hf_statevector(h2), h2, level="SD")
        groups = measurement_groups(recipe)
        exact = exact_subspace(recipe)
        inside = total = 0
        for seed in range(20):
            prob = noisy_subspace(recipe, ShotPlan(300 + seed, (20_000,) * len(groups)))
            for mat, ref, std in (
                (prob.hmat, exact.hmat, prob.hmat_std),
                (prob.smat, exact.smat, prob.smat_std),
            ):
                mask = std > 0
                dev = np.abs(mat - ref)[mask]
                inside += int(np.sum(dev <= 5.0 * std[mask]))
                total += int(mask.sum())
        assert inside / total >= 0.99

    def test_ground_energy_coverage(self, h2):
        # thresholded noisy ground eigenvalue within 5 propagated stds of
        # the exact value in at least 95 of 100 seeds; the cut sits at the
        # overlap noise scale so only genuinely resolved directions remain
        recipe = qse_recipe(hf_statevector(h2), h2, level="SD")
        groups = measurement_groups(recipe)
        e_exact = exact_eigenpairs(h2).eigenvalues[0]
        hits = 0
        for seed in range(100):
            prob = noisy_subspace(recipe, ShotPlan(seed, (100_000,) * len(groups)))
            sol = solve(prob, 20.0 * float(prob.smat_std.max()))
            sigma = eigenvalue_std(prob, sol, 0)
            hits += abs(sol.eigenvalues[0] - e_exact) <= 5.0 * sigma
        assert hits >= 95

    @pytest.mark.parametrize(
        "fixture, method, mode",
        [
            ("h3_plus", "qse-S", "qubitwise"),
            ("h3_plus", "qse-S", "full"),
            ("h4_toy", "qfd", "qubitwise"),
        ],
    )
    def test_planning_and_sampling_read_only_masks(self, fixture, method, mode, monkeypatch):
        # no PauliString is built between the builder and the sampled pair
        def refuse(self):
            raise AssertionError("PauliSum.strings read while planning or sampling")

        ints = load_integrals(fixture)
        monkeypatch.setattr(PauliSum, "strings", property(refuse))
        if method == "qfd":
            v0 = basis_vector(ints.sector, reference_configuration(ints))
            recipe = qfd_recipe(v0, ints, QfdGrid(dt=0.4, n=4))
        else:
            recipe = qse_recipe(hf_statevector(ints), ints, level="S")
        plan = plan_from_target(recipe, 1e-2, seed=3, mode=mode)
        prob = noisy_subspace(recipe, plan)
        assert prob.noisy and plan.mode == mode

    def test_entry_is_the_coefficient_sum_of_group_estimates(self):
        # one qubitwise group: the recipe sampler and sample_group draw the
        # same stream and agree on every string's mean
        h = pauli_sum(3, [(0.3, "III"), (0.5, "XIZ"), (-1.25, "XZI"), (0.75, "XZZ"),
                          (2.0, "XII"), (-0.4, "IIZ")])
        state = random_state(3, 19)
        recipe = operator_recipe(state, h)
        assert len(measurement_groups(recipe)) == 1
        const, plain = h.split_identity()
        prob = noisy_subspace(recipe, ShotPlan(8, (700,)))
        group = list(zip(plain.coeffs, plain.strings))
        ests = sample_group(recipe.jobs[0].state, group, 700, seed=8, group_index=0)
        want = const + sum(c * est.mean for c, est in zip(plain.coeffs, ests))
        assert abs(prob.hmat[0, 0] - want) <= 1e-12

    def test_plan_must_match_groups(self, h2):
        recipe = qse_recipe(hf_statevector(h2), h2, level="SD")
        with pytest.raises(ValidationError):
            noisy_subspace(recipe, ShotPlan(0, (100,)))

    def test_eigenvalue_std_scales_with_shots(self, h2):
        # at a fixed threshold the propagated std follows 1/sqrt(shots)
        recipe = qse_recipe(hf_statevector(h2), h2, level="SD")
        groups = measurement_groups(recipe)
        sigmas = []
        for shots in (10_000, 1_000_000):
            prob = noisy_subspace(recipe, ShotPlan(7, (shots,) * len(groups)))
            sol = solve(prob, 0.05)
            sigmas.append(eigenvalue_std(prob, sol, 0))
        assert 8.0 <= sigmas[0] / sigmas[1] <= 12.0
        exact = exact_subspace(recipe)
        assert eigenvalue_std(exact, solve(exact, 1e-10), 0) == 0.0
