import numpy as np
import pytest

from twistcode import affine, codes
from twistcode.affine import (
    AffineParams,
    act_on_point,
    b_power,
    build_affine_twisted,
    enumerate_group,
    enumerate_points,
    fixed_point_count,
    matrix_A,
    matrix_B,
    omega_sum,
    tau_twist,
)
from twistcode.cli import main as cli_main
from twistcode.fields import PrimeField
from twistcode.linalg import Matrix


@pytest.fixture(scope="module")
def g32():
    return enumerate_group(AffineParams(3, 2))


@pytest.fixture(scope="module")
def g52():
    return enumerate_group(AffineParams(5, 2))


def test_params_validation():
    with pytest.raises(ValueError):
        AffineParams(4, 2)
    with pytest.raises(ValueError):
        AffineParams(3, 3)
    with pytest.raises(ValueError):
        AffineParams(5, 1)


def test_matrix_a_instances():
    assert matrix_A(2, 3).A.tolist() == [[0, 0], [1, 0]]
    A = matrix_A(4, 5)
    assert (A ** 4).is_zero() and not (A ** 3).is_zero()


def test_b_power_closed_form_examples():
    assert b_power(3, 5, 2).A.tolist() == [[1, 0, 0], [2, 1, 0], [1, 2, 1]]
    for p, k in [(3, 2), (5, 3), (7, 5), (13, 4)]:
        assert b_power(k, p, p).is_identity()


def test_b_power_matches_iterated_multiplication():
    for p, k in [(3, 2), (5, 4), (7, 3)]:
        B = matrix_B(k, p)
        for i in range(1, 2 * p + 1):
            assert b_power(k, p, i) == B ** i


def test_omega_closed_form_against_literal_sum():
    for p, k in [(3, 2), (5, 2), (5, 4), (7, 3)]:
        B = matrix_B(k, p)
        running = Matrix.zeros(PrimeField(p), k)
        for i in range(1, 2 * p + 1):
            running = running + B ** (i - 1)
            assert omega_sum(k, p, i) == running
        assert omega_sum(k, p, 1).is_identity()
        assert omega_sum(k, p, p).is_zero()
    assert omega_sum(2, 5, 2).A.tolist() == [[2, 0], [1, 2]]


def test_omega_recurrence():
    for p, k in [(5, 3), (7, 2)]:
        for i in range(1, p + 1):
            bi = b_power(k, p, i)
            for j in range(1, p + 1):
                assert omega_sum(k, p, i + j) == omega_sum(k, p, i) + bi * omega_sum(k, p, j)


def test_enumeration_counts(g32):
    assert len(g32) == 27
    assert len(enumerate_group(AffineParams(5, 3))) == 625
    assert len(np.unique(g32.elements.reshape(len(g32), -1), axis=0)) == 27  # distinct matrices
    assert g32.matrix(0).is_identity()


def test_exponent_addition_rule(g52):
    # B^i B^j = B^(i+j), through the product bookkeeping on (u, i) pairs
    p = 5
    for a in range(0, len(g52), 7):
        for b in range(0, len(g52), 11):
            idx = g52.product_index(a, b)
            assert g52.matrix(idx) == g52.matrix(a) * g52.matrix(b)


def test_points_order(g32):
    dom = enumerate_points(AffineParams(3, 2))
    assert dom.size == 9
    assert dom[0] == (1, 0, 0) and dom[1] == (1, 0, 1) and dom[3] == (1, 1, 0)


def test_tau_twist_identity_cases(g32):
    for idx in range(len(g32)):
        g = g32.element(idx)
        assert tau_twist(g32, 0, g) == g
        if g.i == 3:  # exponent p: B^i = I, twists act trivially
            for r in range(3):
                assert tau_twist(g32, r, g) == g


def test_tau_twist_is_automorphism_exhaustive(g32):
    p = 3
    for r in range(p):
        for a in range(len(g32)):
            ga = g32.element(a)
            ta = tau_twist(g32, r, ga)
            for b in range(len(g32)):
                gb = g32.element(b)
                tb = tau_twist(g32, r, gb)
                prod = g32.element(g32.product_index(a, b))
                assert tau_twist(g32, r, prod).matrix == ta.matrix * tb.matrix


def test_act_on_point_cases(g32):
    ident = g32.element(0)
    pts = list(enumerate_points(AffineParams(3, 2)))
    assert all(act_on_point(ident, x) == x for x in pts)
    # pure translation: i = p block with nonzero u
    trans = g32.element(g32.element_index((1, 2), 3))
    assert trans.i == 3 and trans.u == (1, 2)
    assert all(act_on_point(trans, x) != x for x in pts)
    assert act_on_point(trans, (1, 0, 0)) == (1, 1, 2)
    # v = 0, i = 1: fixed points are exactly (1, a, 0)
    g = g32.element(g32.element_index((0, 0), 1))
    fixed = [x for x in pts if act_on_point(g, x) == x]
    assert fixed == [(1, 0, 0), (1, 1, 0), (1, 2, 0)]


def test_fixed_point_count_closed_form_vs_enumeration():
    for p, k in [(3, 2), (5, 2)]:
        params = AffineParams(p, k)
        group = enumerate_group(params)
        for idx in range(1, len(group)):
            g = group.element(idx)
            by_form = fixed_point_count(params, g)
            by_enum = fixed_point_count(params, g, by_enumeration=True)
            assert by_form == by_enum
            assert by_form in (0, p)
            assert (by_form == p) == (g.i != p and g.u[-1] == 0)


def test_fixed_point_count_rejects_identity(g32):
    with pytest.raises(ValueError):
        fixed_point_count(AffineParams(3, 2), g32.element(0))


def test_fixed_count_table_matches_scalar_path(g32):
    params = AffineParams(3, 2)
    table = g32.fixed_count_table()
    assert table[0, 0] == 9
    for idx in range(1, len(g32)):
        g = g32.element(idx)
        assert table[idx, 0] == fixed_point_count(params, g)
        for r in range(3):
            tw = tau_twist(g32, r, g)
            assert table[idx, r] == fixed_point_count(params, tw, by_enumeration=True)


def test_unique_twist_with_p_fixed_points(g52):
    # for i nonzero mod p there is exactly one twist with fixed points,
    # at r = -u_k / i (which is r = 0 exactly when u_k = 0)
    p = 5
    table = g52.fixed_count_table()
    for idx in range(1, len(g52)):
        g = g52.element(idx)
        row = table[idx]
        if g.i == p:
            assert (row == 0).all()
        else:
            assert sorted(row)[-1] == p and (row == p).sum() == 1
            r_hit = int(np.flatnonzero(row == p)[0])
            assert (g.u[-1] + g.i * r_hit) % p == 0
            assert (r_hit == 0) == (g.u[-1] == 0)


def test_build_affine_twisted_values():
    build = build_affine_twisted(AffineParams(3, 2), check="all")
    r = build.report
    assert (r.delta_tw, r.delta_rep, r.gap) == (24, 18, 6)
    assert r.all_pass()
    code, report = build
    assert (code.size, code.length, code.q) == (27, 27, 9)
    assert report is r
    oracles = ("fpa_letter_counts", "pairwise_delta_agrees", "distance_invariant")
    assert report.coverage == {"twist_automorphism": "exhaustive", "twist_identity_r0": "exhaustive",
                               **dict.fromkeys(oracles, "exhaustive")}


def test_group_order_check_can_fail(monkeypatch, capsys):
    real = affine.enumerate_group

    def duplicate_one(params):
        group = real(params)
        elements = group.elements.copy()
        elements[5] = elements[4]
        group.elements = elements
        return group

    monkeypatch.setattr(affine, "enumerate_group", duplicate_one)
    status = cli_main(["affine", "--p", "3", "--k", "2"])
    assert "check.group_order=FAIL" in capsys.readouterr().out.splitlines()
    assert status == 1


def test_sampled_oracle_coverage(monkeypatch):
    monkeypatch.setattr(codes, "EXHAUSTIVE_ORACLE_LIMIT", 100)
    report = build_affine_twisted(AffineParams(5, 2), check="all").report
    assert report.all_pass()
    assert report.coverage == {
        "twist_automorphism": "exhaustive",
        "twist_identity_r0": "exhaustive",
        "fpa_letter_counts_sampled": "100/125",
        "distance_invariant_sampled": "8/125",
    }


def test_support_sum_dichotomy(g32):
    m, p = 9, 3
    table = g32.fixed_count_table()
    sums = (m - table[1:]).sum(axis=1)
    assert set(sums.tolist()) <= {p ** 3 - p, p ** 3}


def test_scan_guard_rejects_oversized():
    with pytest.raises(ValueError):
        build_affine_twisted(AffineParams(11, 7))


def test_code_size_guard_rejects_oversized():
    # (13, 3) passes the scan guard, but its code has 28,561^2 symbols > 2^28
    build = build_affine_twisted(AffineParams(13, 3))
    assert build.report.all_pass()
    with pytest.raises(ValueError, match="815730721 symbols, over the guard"):
        build.representations
    with pytest.raises(ValueError, match="over the guard"):
        build_affine_twisted(AffineParams(13, 3), check="all")


def test_bad_check_level():
    with pytest.raises(ValueError):
        build_affine_twisted(AffineParams(3, 2), check="exhaustive")
