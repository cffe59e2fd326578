import itertools

import numpy as np
import pytest

from twistcode import _packed
from twistcode.fields import BinaryField, PrimeField
from twistcode.linalg import Matrix, WEDGE_PAIRS
from twistcode.affine import matrix_A, matrix_B
from twistcode.symplectic import SymplecticSpace

from oracles import transvection

GF3 = PrimeField(3)
GF5 = PrimeField(5)
GF2 = BinaryField(1)
GF4 = BinaryField(2)


def rand_matrix(rng, field, n):
    return Matrix(field, rng.integers(0, field.order, size=(n, n)))


def rand_invertible(rng, field, n):
    while True:
        m = rand_matrix(rng, field, n)
        if m.rank() == n:
            return m


def test_identity_neutral():
    rng = np.random.default_rng(7)
    for field in (GF3, GF4):
        m = rand_matrix(rng, field, 3)
        assert Matrix.identity(field, 3) * m == m
        assert m * Matrix.identity(field, 3) == m


def test_b2_squared_over_gf5():
    B = matrix_B(2, 5)
    assert (B * B).A.tolist() == [[1, 0], [2, 1]]


def test_a_k_nilpotent():
    for p, k in [(3, 2), (5, 3), (7, 4), (13, 12)]:
        A = matrix_A(k, p)
        power = A  # A^(k-1) after the loop
        for _ in range(k - 2):
            power = power * A
        assert not power.is_zero()
        assert (power * A).is_zero()


def test_inverse_of_identity():
    assert Matrix.identity(GF3, 4).inverse().is_identity()


def test_inverse_b2_gf3_against_brute_force():
    # oracle: search all 81 candidate 2x2 matrices for B * X = I
    B = matrix_B(2, 3)
    I = Matrix.identity(GF3, 2)
    found = [
        mat
        for entries in itertools.product(range(3), repeat=4)
        for mat in [Matrix(GF3, np.array(entries).reshape(2, 2))]
        if B * mat == I
    ]
    assert len(found) == 1
    assert found[0].A.tolist() == [[1, 0], [2, 1]]
    assert B.inverse() == found[0]


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        Matrix(GF3, [[1, 2], [2, 1]]).inverse()  # det = 1 - 4 = 0 mod 3
    with pytest.raises(ValueError):
        Matrix(GF3, [[1, 2, 0], [0, 1, 1]]).inverse()


def test_rank_examples():
    assert Matrix.zeros(GF4, 4).rank() == 0
    assert Matrix.identity(GF4, 4).rank() == 4
    space = SymplecticSpace.create(2)
    t = transvection(space, (1, 0, 0, 0), 3)
    assert (t - Matrix.identity(space.field, 4)).rank() == 1


def test_rank_counts_the_row_space():
    # a 4 x 4 matrix has rank r iff its row space holds q^r vectors: every
    # combination of its rows, counted, on products of a 4 x k and a k x 4
    # matrix (rank at most k)
    rng = np.random.default_rng(11)
    for field in (GF3, GF4):
        q = field.order
        combos = np.array(list(itertools.product(range(q), repeat=4)), dtype=np.uint8)
        ranks = set()
        for i in range(25):
            k = 4 if i % 2 else int(rng.integers(1, 4))
            m = Matrix(field, field.matmul(*(rng.integers(0, q, size=s, dtype=np.uint8) for s in ((4, k), (k, 4)))))
            ranks.add(m.rank())
            assert len(np.unique(field.matmul(combos, m.A), axis=0)) == q ** m.rank()
        assert ranks == {1, 2, 3, 4}


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Matrix(GF3, [[1, 2]]) * Matrix(GF3, [[1, 2]])
    with pytest.raises(ValueError):
        Matrix(GF3, [[1]]) * Matrix(GF5, [[1]])


def exterior_squares(field, mats):
    """Exterior squares of a (N, 4, 4) batch over GF(2^n), as Matrix objects,
    through the batch kernel that tau's step (a) runs."""
    return [Matrix(field, lam) for lam in _packed.batch_exterior_square(field.mul_table, mats, WEDGE_PAIRS)]


def exterior_square(g):
    return exterior_squares(g.field, g.A[None])[0]


def test_exterior_square_identity():
    for field in (GF2, GF4):
        assert exterior_square(Matrix.identity(field, 4)).is_identity()


def test_exterior_square_diagonal():
    diag = (1, 2, 3, 1)
    lam = exterior_square(Matrix(GF4, np.diag(np.array(diag, dtype=np.uint8))))
    expected = [GF4.mul(diag[i], diag[j]) for i, j in WEDGE_PAIRS]
    assert lam.A.tolist() == np.diag(np.array(expected)).tolist()


def wedge_oracle(field, u, v):
    # brute-force wedge coordinates: w[(i,j)] = u_i v_j - u_j v_i, a sum in characteristic 2
    return [
        field.add(field.mul(int(u[i]), int(v[j])), field.mul(int(u[j]), int(v[i])))
        for i, j in WEDGE_PAIRS
    ]


def test_wedge_transform_identity_gf2_all_pairs():
    rng = np.random.default_rng(3)
    vectors = [np.array([(x >> i) & 1 for i in range(4)], dtype=np.uint8) for x in range(1, 16)]
    for _ in range(5):
        g = rand_invertible(rng, GF2, 4)
        lam = exterior_square(g)
        for u, v in itertools.combinations(vectors, 2):
            lhs = (np.array(wedge_oracle(GF2, u, v), dtype=np.uint8).reshape(1, 6) @ lam.A) % 2
            ug = GF2.matmul(u.reshape(1, 4), g.A)[0]
            vg = GF2.matmul(v.reshape(1, 4), g.A)[0]
            assert lhs[0].tolist() == wedge_oracle(GF2, ug, vg)


def test_wedge_transform_identity_gf4_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = rand_invertible(rng, GF4, 4)
        lam = exterior_square(g)
        u = rng.integers(0, 4, size=4).astype(np.uint8)
        v = rng.integers(0, 4, size=4).astype(np.uint8)
        w = np.array(wedge_oracle(GF4, u, v), dtype=np.uint8)
        lhs = GF4.matmul(w.reshape(1, 6), lam.A)[0]
        ug = GF4.matmul(u.reshape(1, 4), g.A)[0]
        vg = GF4.matmul(v.reshape(1, 4), g.A)[0]
        assert lhs.tolist() == wedge_oracle(GF4, ug, vg)


def test_exterior_square_multiplicative():
    rng = np.random.default_rng(9)
    for field in (GF2, GF4):
        pairs = [(rand_invertible(rng, field, 4), rand_invertible(rng, field, 4)) for _ in range(100)]
        lam_g = exterior_squares(field, np.stack([g.A for g, _ in pairs]))
        lam_h = exterior_squares(field, np.stack([h.A for _, h in pairs]))
        lam_gh = exterior_squares(field, np.stack([(g * h).A for g, h in pairs]))
        for g, h, gh in zip(lam_g, lam_h, lam_gh):
            assert gh == g * h


def test_pow_and_entry_validation():
    GF7 = PrimeField(7)
    B = matrix_B(3, 7)
    powers = [B]  # B^1, ..., B^7
    for _ in range(6):
        powers.append(powers[-1] * B)
    assert powers[-1] == Matrix.identity(GF7, 3)
    assert not any(P == Matrix.identity(GF7, 3) for P in powers[:-1])
    with pytest.raises(ValueError):
        Matrix(GF3, [[5, 0], [0, 1]])
