"""Exact arithmetic in GF(p) for odd primes p and in GF(2^n).

Field elements are plain Python integers: residues in ``[0, p)`` for
GF(p), and n-bit coefficient masks for GF(2^n) (bit ``i`` holds the
coefficient of ``x^i``).  The field objects carry the moduli and the
arithmetic; elements are totally ordered by their integer value, which
fixes the canonical point orderings used downstream.

Both field classes expose the same small array-facing surface
(``matmul``, ``scale_array``, ``add_arrays``, ``sub_arrays``) so that the
matrix layer can run one generic elimination over either kind.
"""

from __future__ import annotations

import math

import numpy as np

# The reduction polynomial of GF(2^n), keyed by n (bitmask, bit i is the
# coefficient of x^i); each is monic of degree n and irreducible
# (tests/test_fields.py checks both).  n=2..4 follow the standard primitive trinomials; higher
# degrees are included for completeness.
DEFAULT_POLYS = {
    1: 0b10,  # x  (GF(2) itself; reduction never triggers)
    2: 0b111,  # x^2 + x + 1
    3: 0b1011,  # x^3 + x + 1
    4: 0b10011,  # x^4 + x + 1
    5: 0b100101,  # x^5 + x^2 + 1
    6: 0b1000011,  # x^6 + x + 1
    7: 0b10000011,  # x^7 + x + 1
    8: 0b100011011,  # x^8 + x^4 + x^3 + x + 1
}

_MAX_PRIME = 251  # entries must fit uint8 matrix storage


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def gf2_polymod(a: int, b: int) -> int:
    """Remainder of carry-less polynomial division of a by b over GF(2)."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def gf2_polymul(a: int, b: int) -> int:
    """Carry-less polynomial product over GF(2)."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


class PrimeField:
    """GF(p) for an odd prime p; elements are residues in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p) or p == 2:
            raise ValueError(f"p={p} is not an odd prime")
        if p > _MAX_PRIME:
            raise ValueError(f"p={p} exceeds the supported bound {_MAX_PRIME}")
        self.p = p
        self.order = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def binom(self, i: int, j: int) -> int:
        """Binomial coefficient C(i, j) reduced mod p (exact integer arithmetic)."""
        if j < 0 or j > i:
            return 0
        return math.comb(i, j) % self.p

    # array helpers for the matrix layer

    def matmul(self, A, B):
        return (A.astype(np.int64) @ B.astype(np.int64)) % self.p

    def add_arrays(self, A, B):
        return (A.astype(np.int64) + B) % self.p

    def sub_arrays(self, A, B):
        return (A.astype(np.int64) - B) % self.p

    def scale_array(self, c, A):
        return (c * A.astype(np.int64)) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class BinaryField:
    """GF(2^n) with the reduction polynomial poly = DEFAULT_POLYS[n].

    Elements are integers in [0, 2^n); addition is XOR and products are
    reduced modulo ``poly``.  Full multiplication and inverse tables are
    built once at construction (n <= 8 keeps them small).
    """

    def __init__(self, n: int):
        if n not in DEFAULT_POLYS:
            raise ValueError(f"n={n} out of supported range 1..{max(DEFAULT_POLYS)}")
        poly = DEFAULT_POLYS[n]
        self.n = n
        self.poly = poly
        self.order = 1 << n
        q = self.order
        table = np.zeros((q, q), dtype=np.uint8)
        for a in range(q):
            for b in range(a, q):
                v = gf2_polymod(gf2_polymul(a, b), poly)
                table[a, b] = v
                table[b, a] = v
        table.setflags(write=False)
        self.mul_table = table
        inv = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            inv[a] = int(np.nonzero(table[a] == 1)[0][0])
        inv.setflags(write=False)
        self.inv_table = inv

    def add(self, a, b):
        return a ^ b

    sub = add

    def mul(self, a, b):
        return int(self.mul_table[a, b])

    def neg(self, a):
        return a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF(2^{self.n})")
        return int(self.inv_table[a])

    # array helpers for the matrix layer

    def matmul(self, A, B):
        prod = self.mul_table[A[:, :, None], B[None, :, :]]
        return np.bitwise_xor.reduce(prod, axis=1)

    def add_arrays(self, A, B):
        return A ^ B

    sub_arrays = add_arrays

    def scale_array(self, c, A):
        return self.mul_table[c, A]

    def __eq__(self, other):
        return isinstance(other, BinaryField) and (other.n, other.poly) == (self.n, self.poly)

    def __hash__(self):
        return hash(("GF2n", self.n, self.poly))

    def __repr__(self):
        return f"BinaryField({self.n}, poly={self.poly:#b})"
