"""Pauli algebra, fermionic qubit images, and commutation grouping."""

import itertools

import numpy as np
import pytest

import oracles
import qsubspace.qubits as qubits_module
from conftest import load_integrals
from qsubspace.engine import statevector_from_fock
from qsubspace.errors import CapacityError, ValidationError
from qsubspace.fock import basis_vector, exact_eigenpairs, reference_configuration
from qsubspace.integrals import MolecularIntegrals
from qsubspace.quantum import QfdGrid, qfd_recipe, qse_recipe
from qsubspace.qubits import (
    CommutingGroups,
    PauliString,
    commutes,
    group_commuting,
    jordan_wigner,
    ladder_product,
    pauli_keys,
    pauli_product,
    pauli_products,
    pauli_sum,
    qubitwise_commutes,
    string_table,
)


def random_string(rng, n):
    return PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))


def test_letters_round_trip():
    for letters in ("I", "X", "Y", "Z", "IXYZ", "ZZXIY"):
        s = PauliString.from_letters(letters)
        assert s.letters == letters
    s = PauliString.from_letters("YIXZ")
    assert s.num_qubits == 4
    # leftmost letter is the highest qubit
    assert (s.x >> 3) & 1 == 1 and (s.z >> 3) & 1 == 1
    assert s.weight == 3
    with pytest.raises(ValidationError):
        PauliString.from_letters("XQ")


def test_strings_are_hermitian_dense():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = random_string(rng, 3)
        dense = oracles.dense_pauli(s.letters)
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-14)


def test_product_single_qubit_table():
    letters = "IXYZ"
    for a in letters:
        for b in letters:
            phase, s = pauli_product(
                PauliString.from_letters(a), PauliString.from_letters(b)
            )
            got = phase * oracles.dense_pauli(s.letters)
            want = oracles.dense_pauli(a) @ oracles.dense_pauli(b)
            np.testing.assert_allclose(got, want, atol=1e-14)


def test_product_random_strings_match_dense():
    rng = np.random.default_rng(17)
    for _ in range(40):
        a, b = random_string(rng, 4), random_string(rng, 4)
        phase, s = pauli_product(a, b)
        want = oracles.dense_pauli(a.letters) @ oracles.dense_pauli(b.letters)
        np.testing.assert_allclose(phase * oracles.dense_pauli(s.letters), want,
                                   atol=1e-13)


def test_commutation_predicates_match_dense():
    rng = np.random.default_rng(29)
    for _ in range(60):
        a, b = random_string(rng, 3), random_string(rng, 3)
        da, db = oracles.dense_pauli(a.letters), oracles.dense_pauli(b.letters)
        dense_commutes = np.allclose(da @ db, db @ da, atol=1e-13)
        assert commutes(a, b) == dense_commutes
        if qubitwise_commutes(a, b):
            assert dense_commutes


def test_qubitwise_is_strictly_stronger():
    xx = PauliString.from_letters("XX")
    zz = PauliString.from_letters("ZZ")
    assert commutes(xx, zz)
    assert not qubitwise_commutes(xx, zz)


def test_sum_canonicalization_and_algebra():
    h = pauli_sum(2, [(0.5, "XI"), (0.25, "XI"), (1e-16, "ZZ"), (-1.0, "IY")])
    assert len(h) == 2  # merged and pruned
    assert [s.letters for s in h.strings] == sorted(s.letters for s in h.strings)

    rng = np.random.default_rng(41)
    terms_a = [(complex(rng.standard_normal(), rng.standard_normal()),
                random_string(rng, 3)) for _ in range(4)]
    terms_b = [(complex(rng.standard_normal(), rng.standard_normal()),
                random_string(rng, 3)) for _ in range(4)]
    a = pauli_sum(3, terms_a)
    b = pauli_sum(3, terms_b)
    da = oracles.dense_pauli_sum(3, [(c, s.letters) for c, s in a.terms()])
    db = oracles.dense_pauli_sum(3, [(c, s.letters) for c, s in b.terms()])
    for ours, ref in (
        (a + b, da + db),
        (a - b, da - db),
        (2.5 * a, 2.5 * da),
        (a * b, da @ db),
        (a.dagger(), da.conj().T),
    ):
        got = oracles.dense_pauli_sum(3, [(c, s.letters) for c, s in ours.terms()])
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_to_dense_matches_kron_oracle():
    rng = np.random.default_rng(43)
    terms = [(complex(rng.standard_normal(), rng.standard_normal()),
              random_string(rng, 4)) for _ in range(6)]
    h = pauli_sum(4, terms)
    ref = oracles.dense_pauli_sum(4, [(c, s.letters) for c, s in h.terms()])
    np.testing.assert_allclose(h.to_dense(), ref, atol=1e-12)


def test_ladder_images_match_sign_rule():
    # the qubit ladder image must equal the dense fermionic ladder matrix
    for num_modes in (2, 4):
        for mode in range(num_modes):
            image = ladder_product(num_modes, [(mode, True)])
            dense = oracles.dense_pauli_sum(
                num_modes, [(c, s.letters) for c, s in image.terms()]
            )
            np.testing.assert_allclose(
                dense, oracles.ladder_matrix(mode, num_modes), atol=1e-14
            )
            lower = ladder_product(num_modes, [(mode, False)])
            dense_low = oracles.dense_pauli_sum(
                num_modes, [(c, s.letters) for c, s in lower.terms()]
            )
            np.testing.assert_allclose(
                dense_low, oracles.ladder_matrix(mode, num_modes).T, atol=1e-14
            )


@pytest.mark.parametrize("name", ["he_minimal", "h2_sto3g", "heh_like", "h3_plus"])
def test_hamiltonian_image_matches_ladder_algebra(name):
    ints = load_integrals(name)
    image = jordan_wigner(ints)
    assert np.max(np.abs(image.coeffs.imag)) <= 1e-12  # Hermitian strings, real weights
    got = image.to_dense()
    want = oracles.full_hamiltonian(ints.e_nuc, ints.one_body, ints.two_body)
    assert np.max(np.abs(got - want)) < 1e-12


def test_sector_restriction_reproduces_spectrum(h2):
    dense = jordan_wigner(h2).to_dense()
    idx = oracles.sector_words(2, 1, 1)
    vals = np.linalg.eigvalsh(dense[np.ix_(idx, idx)])
    sl = exact_eigenpairs(h2, k=4)
    np.testing.assert_allclose(vals, sl.eigenvalues, atol=1e-10)


def test_qubit_image_capacity_cap():
    m = 9
    ints = MolecularIntegrals(m, 1, 1, 0.0, np.zeros((m, m)), np.zeros((m,) * 4))
    with pytest.raises(CapacityError):
        jordan_wigner(ints)


def test_grouping_partitions_and_commutes(h2):
    h = jordan_wigner(h2)
    for mode, check in (("qubitwise", qubitwise_commutes), ("full", commutes)):
        grouping = group_commuting(h, mode=mode)
        assert isinstance(grouping, CommutingGroups)
        seen = sorted(i for g in grouping.groups for i in g)
        assert seen == list(range(len(h)))  # exactly one group per term
        for g in grouping.groups:
            for i in g:
                for j in g:
                    assert check(h.strings[i], h.strings[j])
    fine = group_commuting(h, mode="qubitwise").num_groups
    coarse = group_commuting(h, mode="full").num_groups
    assert coarse <= fine


def _pairwise_insertion(h, compatible):
    """Reference greedy sorted insertion that checks every group member."""
    order = sorted(range(len(h)), key=lambda i: (-abs(h.coeffs[i]), i))
    groups = []
    for i in order:
        for g in groups:
            if all(compatible(h.strings[i], h.strings[j]) for j in g):
                g.append(i)
                break
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


def test_qubitwise_grouping_matches_pairwise_insertion(h4_toy):
    rng = np.random.default_rng(5)
    sums = [jordan_wigner(h4_toy)]
    for nq in (3, 6):
        words = ["".join(rng.choice(list("IXYZ"), nq)) for _ in range(150)]
        sums.append(pauli_sum(nq, [(rng.normal(), w) for w in words]))
    for h in sums:
        want = _pairwise_insertion(h, qubitwise_commutes)
        assert group_commuting(h, mode="qubitwise").groups == want


def test_qubitwise_grouping_matches_pairwise_insertion_on_job_tables(h3_plus, h4_toy):
    v0 = basis_vector(h4_toy.sector, reference_configuration(h4_toy))
    tables = [job.strings for job in qfd_recipe(v0, h4_toy, QfdGrid(dt=0.4, n=4)).jobs]
    assert {t.num_qubits for t in tables[1:]} == {9}  # the Hadamard-test ancilla jobs
    state = statevector_from_fock(basis_vector(h3_plus.sector, reference_configuration(h3_plus)))
    (job,) = qse_recipe(state, h3_plus, level="S").jobs
    rng = np.random.default_rng(8)
    words = ["".join(rng.choice(list("IXYZ"), 32, p=[0.85, 0.05, 0.05, 0.05])) for _ in range(300)]
    for h in [*tables, job.strings, pauli_sum(32, [(rng.normal(), w) for w in words])]:
        want = _pairwise_insertion(h, qubitwise_commutes)
        assert group_commuting(h, mode="qubitwise").groups == want


def test_blocked_products_match_per_pair_rule_up_to_32_qubits(monkeypatch):
    # each sum draws its strings from three, so products merge and cancel
    rng = np.random.default_rng(12)
    monkeypatch.setattr(qubits_module, "_BLOCK_TERMS", 40)
    for nq in (3, 31, 32):
        sums = []
        for _ in range(4):
            strings = [random_string(rng, nq) for _ in range(3)]
            terms = [(rng.integers(-4, 5) / 4 + 1j * rng.normal(), strings[rng.integers(3)])
                     for _ in range(5)]
            sums.append(pauli_sum(nq, terms))
        pairs = [(a, b) for a in range(4) for b in range(4)]
        blocks = list(pauli_products(sums, sums[::-1], pairs))
        assert len(blocks) > 1
        got = [
            (x[lo:hi], z[lo:hi], coeffs[lo:hi], keys[lo:hi])
            for bounds, x, z, coeffs, keys in blocks
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        for (a, b), (x, z, coeffs, keys) in zip(pairs, got, strict=True):
            acc = {}
            for ca, sa in sums[a].terms():
                for cb, sb in sums[3 - b].terms():
                    phase, s = pauli_product(sa, sb)
                    acc[s] = acc.get(s, 0.0) + ca * cb * phase
            kept = sorted((s.letters, c) for s, c in acc.items() if abs(c) > 1e-14)
            letters = [PauliString(nq, *m).letters for m in zip(x.tolist(), z.tolist())]
            assert letters == [w for w, _ in kept]
            want = np.array([c for _, c in kept], dtype=complex)
            assert np.array_equal(coeffs.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(keys, pauli_keys(x, z))
            table = string_table(nq, np.concatenate([keys, keys[::-1]]))
            assert np.array_equal(table.keys, keys)
            assert np.array_equal(table.x, x) and np.array_equal(table.z, z)


def test_grouping_visits_largest_first():
    h = pauli_sum(2, [(0.1, "XX"), (3.0, "ZZ"), (0.5, "ZI")])
    grouping = group_commuting(h, mode="qubitwise")
    first = grouping.groups[0]
    strings = [h.strings[i].letters for i in first]
    assert "ZZ" in strings  # largest coefficient seeds the first group
    with pytest.raises(ValidationError):
        group_commuting(h, mode="diagonal")


def test_identity_sum():
    ident = pauli_sum(3, [(2.0, "III")])
    np.testing.assert_allclose(ident.to_dense(), 2.0 * np.eye(8), atol=1e-14)


def test_sum_wider_than_the_key_is_a_capacity_error():
    with pytest.raises(CapacityError):
        pauli_sum(33, [(1.0, "X" * 33)])
    assert len(pauli_sum(32, [(1.0, "Z" * 32)])) == 1
    with pytest.raises(CapacityError):
        ladder_product(33, [(0, True)])


def test_grouping_full_mode_matches_pairwise_insertion(h4_toy):
    h = jordan_wigner(h4_toy)
    assert group_commuting(h, mode="full").groups == _pairwise_insertion(h, commutes)


def _per_pair_jordan_wigner(ints):
    """Reference image: every ladder product expanded one string pair at a
    time, coefficients scale * (c_1 ph_1) * (c_2 ph_2) ..., added from e_nuc
    on in the order one-body, then two-body."""
    m = ints.num_orbitals
    nq = 2 * m
    acc = {PauliString(nq, 0, 0): complex(ints.e_nuc)}

    def add(scale, ops):
        factors = [list(ladder_product(nq, [op]).terms()) for op in ops]
        for combo in itertools.product(*factors):
            coeff, string = scale, PauliString(nq, 0, 0)
            for c, s in combo:
                phase, string = pauli_product(string, s)
                coeff *= c * phase
            acc[string] = acc.get(string, 0.0) + coeff

    h, g = ints.one_body, ints.two_body
    for p, r in itertools.product(range(m), repeat=2):
        if h[p, r] != 0.0:
            for off in (0, m):
                add(h[p, r], [(p + off, True), (r + off, False)])
    for p, r, q, s in itertools.product(range(m), repeat=4):
        if g[p, r, q, s] != 0.0:
            for o1, o2 in itertools.product((0, m), repeat=2):
                ops = [(p + o1, True), (q + o2, True), (s + o2, False), (r + o1, False)]
                add(0.5 * g[p, r, q, s], ops)
    kept = sorted(
        ((s, 0.0 + complex(c)) for s, c in acc.items() if abs(c) > 1e-14),
        key=lambda t: t[0].letters,
    )
    return tuple(s for s, _ in kept), np.array([c for _, c in kept])


@pytest.mark.parametrize("name", ["h2_sto3g", "heh_like", "h3_plus"])
def test_hamiltonian_image_matches_per_pair_expansion_bit_for_bit(name):
    ints = load_integrals(name)
    strings, coeffs = _per_pair_jordan_wigner(ints)
    image = jordan_wigner(ints)
    assert image.strings == strings
    assert np.array_equal(image.coeffs.view(np.float64), coeffs.view(np.float64))
