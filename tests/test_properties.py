"""Property tests: the array Pauli algebra against the per-pair product
rule and dense matrices, ladder expansions against chained products, and
the canonical key order against letter order."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qsubspace.qubits import (  # noqa: E402
    PauliString,
    ladder_product,
    pauli_keys,
    pauli_product,
    pauli_sum,
)


def _per_pair_sum(num_qubits, contributions):
    """Reference canonicalisation: add (coeff, string) contributions in order
    from zero, prune at 1e-14 and sort by letters."""
    acc = {}
    for c, s in contributions:
        acc[s] = acc.get(s, 0.0) + c
    kept = sorted(
        ((s, c) for s, c in acc.items() if abs(c) > 1e-14), key=lambda t: t[0].letters
    )
    return [s for s, _ in kept], [c for _, c in kept]


def _same_bits(got, strings, coeffs):
    assert got.strings == tuple(strings)
    want = np.array(coeffs, dtype=complex).reshape(-1)
    assert np.array_equal(got.coeffs.view(np.float64), want.view(np.float64))


@st.composite
def pauli_sums(draw, num_qubits):
    # quarter-integer parts make merges cancel exactly; the rest are generic
    part = st.one_of(
        st.integers(-8, 8).map(lambda k: k / 4),
        st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False),
    )
    top = (1 << num_qubits) - 1
    terms = draw(
        st.lists(
            st.tuples(part, part, st.integers(0, top), st.integers(0, top)), max_size=12
        )
    )
    return pauli_sum(
        num_qubits, [(complex(re, im), PauliString(num_qubits, x, z)) for re, im, x, z in terms]
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 17).flatmap(lambda n: st.tuples(pauli_sums(n), pauli_sums(n))))
def test_array_algebra_matches_per_pair_rule(pair):
    a, b = pair
    n = a.num_qubits
    products = []
    for ca, sa in a.terms():
        for cb, sb in b.terms():
            phase, s = pauli_product(sa, sb)
            products.append((ca * cb * phase, s))
    _same_bits(a * b, *_per_pair_sum(n, products))
    _same_bits(a + b, *_per_pair_sum(n, [*a.terms(), *b.terms()]))
    _same_bits(a.dagger(), *_per_pair_sum(n, [(c.conjugate(), s) for c, s in a.terms()]))
    _same_bits(a * (0.5 - 2j), *_per_pair_sum(n, [(c * (0.5 - 2j), s) for c, s in a.terms()]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(pauli_sums(n), pauli_sums(n))))
def test_array_algebra_matches_dense_products(pair):
    a, b = pair
    da, db = a.to_dense(), b.to_dense()
    np.testing.assert_allclose((a * b).to_dense(), da @ db, atol=1e-12)
    np.testing.assert_allclose((a + b).to_dense(), da + db, atol=1e-12)
    np.testing.assert_allclose(a.dagger().to_dense(), da.conj().T, atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 32).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
            min_size=1,
            max_size=20,
        ).map(lambda masks: [PauliString(n, x, z) for x, z in masks])
    )
)
def test_key_order_is_letter_order(strings):
    keys = pauli_keys([s.x for s in strings], [s.z for s in strings])
    by_key = [strings[i].letters for i in np.argsort(keys, kind="stable")]
    assert by_key == sorted(s.letters for s in strings)
    assert len(set(keys.tolist())) == len({s.letters for s in strings})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=4)
        )
    )
)
def test_ladder_product_matches_chained_products(case):
    n, ladders = case
    chained = pauli_sum(n, [(1.0, "I" * n)])
    for ladder in ladders:
        chained = chained * ladder_product(n, [ladder])
    _same_bits(ladder_product(n, ladders), chained.strings, chained.coeffs)
