#!/usr/bin/env python3
"""Tour of the exact arithmetic layer: GF(p), GF(2^n) and matrices."""

from twistcode import BinaryField, Matrix, PrimeField

# --- prime fields -----------------------------------------------------------
F5 = PrimeField(5)
print("GF(5):  2 + 4 =", F5.add(2, 4), "   inv(2) =", F5.inv(2), "   C(6,2) mod 5 =", F5.binom(6, 2))

# --- binary fields ----------------------------------------------------------
F4 = BinaryField(2)  # GF(4) with reduction x^2 + x + 1
x = 0b10
print("GF(4):  x * x =", F4.mul(x, x), "(x+1 is 3)   x + x =", F4.add(x, x))
print("GF(4) multiplication table:")
print(F4.mul_table)

# every nonzero element of GF(16) has an inverse
F16 = BinaryField(4)
assert all(F16.mul(a, F16.inv(a)) == 1 for a in range(1, 16))
print("GF(16): all 15 nonzero elements invert cleanly")

# --- matrices ---------------------------------------------------------------
B = Matrix(F5, [[1, 0], [1, 1]])
print("B =", B.A.tolist(), "  B^5 =", (B * B * B * B * B).A.tolist(), " (order 5, as expected mod 5)")
print("B^-1 =", B.inverse().A.tolist())
