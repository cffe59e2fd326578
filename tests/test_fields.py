import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcode.fields import BinaryField, PrimeField, DEFAULT_POLYS, is_prime


# ---------------------------------------------------------------------------
# independent oracles (naive coefficient-list polynomial arithmetic)
# ---------------------------------------------------------------------------

def poly_mul(a, b):
    """Multiply GF(2) polynomials given as coefficient lists (low first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] ^= ca & cb
    return out


def poly_mod(a, m):
    """Long division remainder of a by m over GF(2)."""
    a = list(a)
    dm = max(i for i, c in enumerate(m) if c)
    while True:
        da = max((i for i, c in enumerate(a) if c), default=-1)
        if da < dm:
            break
        for i, c in enumerate(m):
            if c:
                a[da - dm + i] ^= 1
    return a


def is_irreducible(poly):
    """Trial division of a bitmask polynomial over GF(2) by every
    polynomial of degree 1 .. deg/2, through the long-division oracle."""
    deg = poly.bit_length() - 1
    divisors = (f for d in range(1, deg // 2 + 1) for f in range(1 << d, 1 << (d + 1)))
    return deg >= 1 and all(any(poly_mod(from_int(poly, deg + 1), from_int(f, f.bit_length()))) for f in divisors)


def to_int(coeffs):
    return sum(c << i for i, c in enumerate(coeffs))


def from_int(x, width):
    return [(x >> i) & 1 for i in range(width)]


def test_gf4_product_matches_long_division_oracle():
    # x * x reduced by x^2 + x + 1
    prod = poly_mod(poly_mul([0, 1], [0, 1]), [1, 1, 1])
    assert to_int(prod) == 0b11  # x + 1
    F = BinaryField(2)
    assert F.mul(0b10, 0b10) == 0b11


def test_gf4_inverse_by_exhaustive_search():
    # search over the 3 nonzero elements with the naive oracle
    inv = None
    for b in range(1, 4):
        prod = poly_mod(poly_mul(from_int(2, 2), from_int(b, 2)), [1, 1, 1])
        if to_int(prod) == 1:
            inv = b
    assert inv == 0b11
    assert BinaryField(2).inv(0b10) == 0b11


def test_full_mul_table_against_oracle():
    for n in (2, 3, 4):
        F = BinaryField(n)
        modulus = from_int(F.poly, n + 2)
        for a in range(F.order):
            for b in range(F.order):
                prod = poly_mod(poly_mul(from_int(a, n), from_int(b, n)), modulus)
                assert F.mul(a, b) == to_int(prod)


def test_characteristic_two():
    for n in (1, 2, 3, 4):
        F = BinaryField(n)
        for a in range(F.order):
            assert F.add(a, a) == 0


def test_frobenius_nontrivial_for_extension_fields():
    for n in (2, 3, 4):
        F = BinaryField(n)
        assert any(F.mul(a, a) != a for a in range(F.order))


def test_prime_field_examples():
    assert PrimeField(3).add(2, 2) == 1
    assert PrimeField(5).inv(2) == 3
    # binomial oracle: integer arithmetic, then reduce
    assert math.comb(4, 2) % 3 == 0
    assert PrimeField(3).binom(4, 2) == 0


def test_binom_large_arguments_exact():
    F = PrimeField(13)
    for i in range(2 * 13 + 1):
        for j in range(i + 1):
            assert F.binom(i, j) == math.comb(i, j) % 13
    assert F.binom(3, 5) == 0


def test_field_axioms_exhaustive_prime():
    for p in (3, 5, 7, 11, 13):
        F = PrimeField(p)
        elems = list(range(F.order))
        for a in elems:
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        for a in elems:
            for b in elems:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in elems[:: max(1, p // 5)]:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_field_axioms_exhaustive_binary():
    for n in (1, 2, 3, 4):
        F = BinaryField(n)
        elems = list(range(F.order))
        for a in elems:
            if a:
                assert F.mul(a, F.inv(a)) == 1
        for a in elems:
            for b in elems:
                assert F.mul(a, b) == F.mul(b, a)
                for c in elems:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        BinaryField(2).inv(0)


def test_prime_validation():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)
    assert is_prime(13) and not is_prime(91)


def test_reduction_polynomial_validation():
    # each field's polynomial is monic of degree n and irreducible over GF(2)
    for n, poly in DEFAULT_POLYS.items():
        assert poly.bit_length() == n + 1
        assert is_irreducible(poly)
        assert BinaryField(n).poly == poly
    # the oracle itself: x^2 + 1 = (x + 1)^2 and x^4 + x^2 + 1 = (x^2 + x + 1)^2 are reducible
    assert not is_irreducible(0b101) and not is_irreducible(0b10101)
    assert is_irreducible(0b1101) and is_irreducible(0b111)
    for n in (0, 9):
        with pytest.raises(ValueError, match="out of supported range 1..8"):
            BinaryField(n)


def test_mul_table_is_numpy_and_consistent():
    F = BinaryField(4)
    assert isinstance(F.mul_table, np.ndarray)
    a, b = 9, 13
    assert F.mul_table[a, b] == F.mul(a, b)


# ---------------------------------------------------------------------------
# field axioms on drawn elements: every supported n for GF(2^n), small primes
# ---------------------------------------------------------------------------

SMALL_PRIMES = (3, 5, 7, 11, 13, 31, 101, 251)

binary_field = functools.cache(BinaryField)
prime_field = functools.cache(PrimeField)
fields = st.sampled_from(sorted(DEFAULT_POLYS)).map(binary_field) | st.sampled_from(SMALL_PRIMES).map(prime_field)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_field_axioms_on_drawn_elements(data):
    F = data.draw(fields)
    a, b, c = (data.draw(st.integers(0, F.order - 1)) for _ in range(3))
    assert F.add(a, b) == F.add(b, a) and F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, 0) == a and F.mul(a, 1) == a and F.mul(a, 0) == 0
    assert F.add(a, F.neg(a)) == 0 and F.sub(a, b) == F.add(a, F.neg(b))
    if a:
        assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("F", [binary_field(n) for n in sorted(DEFAULT_POLYS)] + [prime_field(p) for p in SMALL_PRIMES], ids=repr)
def test_every_nonzero_element_has_an_inverse(F):
    inverses = [F.inv(a) for a in range(1, F.order)]
    assert all(F.mul(a, x) == 1 for a, x in zip(range(1, F.order), inverses))
    assert sorted(inverses) == list(range(1, F.order))  # inversion permutes the units


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_binary_tables_agree_with_scalar_operations(data):
    # mul_table against the long-division oracle, inv_table against inv,
    # and the array helpers against the scalar operations
    n = data.draw(st.sampled_from(sorted(DEFAULT_POLYS)))
    F = binary_field(n)
    a, b = (data.draw(st.integers(0, F.order - 1)) for _ in range(2))
    want = to_int(poly_mod(poly_mul(from_int(a, n), from_int(b, n)), from_int(F.poly, n + 1)))
    assert int(F.mul_table[a, b]) == want == F.mul(a, b)
    if a:
        assert int(F.inv_table[a]) == F.inv(a) and int(F.mul_table[a, F.inv_table[a]]) == 1
    A = np.array([[a, b]], dtype=np.uint8)
    assert F.scale_array(b, A).tolist() == [[F.mul(b, a), F.mul(b, b)]]
    assert F.matmul(A, A.T).tolist() == [[F.add(F.mul(a, a), F.mul(b, b))]]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_prime_array_helpers_agree_with_scalar_operations(data):
    F = prime_field(data.draw(st.sampled_from(SMALL_PRIMES)))
    a, b = (data.draw(st.integers(0, F.order - 1)) for _ in range(2))
    A = np.array([[a, b]])
    assert F.add_arrays(A, A[:, ::-1]).tolist() == [[F.add(a, b)] * 2]
    assert F.sub_arrays(A, A[:, ::-1]).tolist() == [[F.sub(a, b), F.sub(b, a)]]
    assert F.scale_array(b, A).tolist() == [[F.mul(b, a), F.mul(b, b)]]
    assert F.matmul(A, A.T).tolist() == [[F.add(F.mul(a, a), F.mul(b, b))]]
