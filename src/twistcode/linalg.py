"""Dense matrices over a PrimeField or BinaryField, and the wedge-pair
basis order of the exterior square of F^4.

Matrices are immutable, numpy-backed (uint8 entries), and all arithmetic
is exact.  Elimination-based routines (rank, inverse) use deterministic
first-nonzero pivoting; there is no rounding so no pivot strategy is
needed.
"""

from __future__ import annotations

import numpy as np


# Basis order of the exterior square of F^4: wedge pairs in lexicographic
# order, so numeric coordinates are reproducible across runs.
WEDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class Matrix:
    """Immutable dense matrix over one field."""

    __slots__ = ("field", "A")

    def __init__(self, field, rows):
        A = np.array(rows, dtype=np.uint8)
        if A.ndim == 1:
            A = A.reshape(1, -1)
        if A.ndim != 2 or A.size == 0:
            raise ValueError(f"bad matrix shape {A.shape}")
        if int(A.max(initial=0)) >= field.order:
            raise ValueError("matrix entry out of field range")
        A.setflags(write=False)
        self.field = field
        self.A = A

    @classmethod
    def identity(cls, field, n):
        return cls(field, np.eye(n, dtype=np.uint8))

    @classmethod
    def zeros(cls, field, rows, cols=None):
        return cls(field, np.zeros((rows, cols if cols is not None else rows), dtype=np.uint8))

    @property
    def rows(self):
        return self.A.shape[0]

    @property
    def cols(self):
        return self.A.shape[1]

    @property
    def shape(self):
        return self.A.shape

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.field != self.field:
            raise ValueError("matrices over different fields")
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch {self.shape} * {other.shape}")
        return Matrix(self.field, self.field.matmul(self.A, other.A))

    def __add__(self, other):
        if other.field != self.field or other.shape != self.shape:
            raise ValueError("shape or field mismatch")
        return Matrix(self.field, self.field.add_arrays(self.A, other.A))

    def __sub__(self, other):
        if other.field != self.field or other.shape != self.shape:
            raise ValueError("shape or field mismatch")
        return Matrix(self.field, self.field.sub_arrays(self.A, other.A))

    def is_zero(self):
        return not self.A.any()

    def is_identity(self):
        return self.rows == self.cols and bool((self.A == np.eye(self.rows, dtype=np.uint8)).all())

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.shape == self.shape
            and bool((other.A == self.A).all())
        )

    def __hash__(self):
        return hash((self.field, self.A.tobytes(), self.shape))

    def rank(self):
        return _eliminate(self.field, self.A.copy())[1]

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = np.concatenate([self.A.copy(), np.eye(n, dtype=np.uint8)], axis=1)
        red, rk = _eliminate(self.field, aug, reduce=True, limit_cols=n)
        if rk < n:
            raise ValueError("matrix is singular")
        return Matrix(self.field, red[:, n:])

    def __repr__(self):
        return f"Matrix({self.A.tolist()})"


def _eliminate(field, A, reduce=False, limit_cols=None):
    """In-place row echelon form; returns (array, rank).

    With reduce=True computes the reduced (Gauss-Jordan) form with unit
    pivots, eliminating above the pivots as well.  limit_cols restricts
    pivot search to the leading columns (for augmented systems).
    """

    m, n = A.shape
    r = 0
    for c in range(n if limit_cols is None else limit_cols):
        piv = None
        for i in range(r, m):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = field.inv(int(A[r, c]))
        if inv != 1:
            A[r] = field.scale_array(inv, A[r])
        lo = 0 if reduce else r + 1
        for i in range(lo, m):
            if i != r and A[i, c]:
                A[i] = field.sub_arrays(A[i], field.scale_array(int(A[i, c]), A[r]))
        r += 1
        if r == m:
            break
    return A, r
