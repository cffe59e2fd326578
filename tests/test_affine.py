import tracemalloc

import numpy as np
import pytest

from twistcode import affine, codes
from twistcode.affine import (
    AffineParams,
    b_power,
    build_affine_twisted,
    enumerate_group,
    matrix_A,
    matrix_B,
    omega_sum,
)
from twistcode.cli import main as cli_main
from twistcode.fields import PrimeField
from twistcode.linalg import Matrix
from twistcode.report import BuildRecord

from oracles import (
    affine_element_matrices, affine_matrix, affine_product_index, affine_twist_index, affine_twisted_elements,
    affine_twisted_table,
)


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
    cube = A * A * A
    assert (cube * A).is_zero() and not cube.is_zero()


def test_b_power_closed_form_examples():
    assert b_power(3, 5, 2).A.tolist() == [[1, 0, 0], [2, 1, 0], [1, 2, 1]]
    for p, k in [(3, 2), (5, 3), (7, 5), (13, 4)]:
        assert b_power(k, p, p).is_identity()


def test_b_power_matches_iterated_multiplication():
    for p, k in [(3, 2), (5, 4), (7, 3)]:
        B = matrix_B(k, p)
        power = Matrix.identity(PrimeField(p), k)
        for i in range(1, 2 * p + 1):
            power = power * B
            assert b_power(k, p, i) == power


def test_omega_closed_form_against_literal_sum():
    for p, k in [(3, 2), (5, 2), (5, 4), (7, 3)]:
        B = matrix_B(k, p)
        running = Matrix.zeros(PrimeField(p), k)
        power = Matrix.identity(PrimeField(p), k)  # B^(i - 1)
        for i in range(1, 2 * p + 1):
            running = running + power
            power = power * B
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
    assert len(np.unique(affine_element_matrices(g32).reshape(len(g32), -1), axis=0)) == 27  # distinct matrices
    u, i = g32.decompose(np.arange(len(g32)))
    assert len({(tuple(v), int(e)) for v, e in zip(u.tolist(), i)}) == 27  # distinct (u, i) pairs
    assert affine_matrix(g32, 0).is_identity()


def test_exponent_addition_rule(g52):
    # B^i B^j = B^(i+j), through the product bookkeeping on (u, i) pairs
    p = 5
    for a in range(0, len(g52), 7):
        for b in range(0, len(g52), 11):
            idx = affine_product_index(g52, a, b)
            assert affine_matrix(g52, idx) == affine_matrix(g52, a) * affine_matrix(g52, b)


def test_points_order(g32):
    # point rank j is v in GF(p)^k, lexicographically
    assert g32.points.tolist() == [list(v) for v in np.ndindex(3, 3)]


def test_twists_fix_identity_cases(g32):
    # tau_0 is the identity, and every twist fixes the elements of exponent p (B^p = I, w(p) = 0)
    n, m = len(g32), g32.params.num_points
    assert np.array_equal(g32.twist_index(0), np.arange(n))
    for r in range(3):
        assert np.array_equal(g32.twist_index(r)[:m], np.arange(m))
        assert np.array_equal(affine_twisted_elements(g32, r)[:m], affine_element_matrices(g32)[:m])


def test_twists_are_automorphisms_exhaustive(g32):
    # tau_r(a b) = tau_r(a) tau_r(b) for every pair, as matrix products of the
    # elements twist_index(r) names; a b is found among the element matrices
    p, n = 3, len(g32)
    mats = affine_element_matrices(g32).astype(np.int64)
    where = {mat.tobytes(): j for j, mat in enumerate(mats)}
    prods = np.einsum("aij,bjk->abik", mats, mats) % p
    ab = np.array([where[mat.tobytes()] for mat in prods.reshape(n * n, 3, 3)]).reshape(n, n)
    for r in range(p):
        tw = mats[g32.twist_index(r)]
        assert np.array_equal(tw[ab], np.einsum("aij,bjk->abik", tw, tw) % p)


def test_point_action_cases(g32):
    # the natural table against images by hand: point (1, v) goes to (1, v) M
    table, ident = g32.twisted_perm_table(), np.arange(9)
    assert np.array_equal(table[0], ident)
    trans = g32.element_index((1, 2), 3)  # pure translation: i = p block with nonzero u
    assert (table[trans] != ident).all()
    assert (np.array([1, 0, 0]) @ affine_matrix(g32, trans).A % 3).tolist() == [1, 1, 2] and table[trans, 0] == 5
    g = g32.element_index((0, 0), 1)  # v = 0, i = 1: fixed points are exactly (1, a, 0)
    assert np.flatnonzero(table[g] == ident).tolist() == [0, 3, 6]


@pytest.mark.parametrize("p, k", [(3, 2), (5, 2), (5, 3), (7, 2)])  # G_k needs p > k, so k = 3 starts at p = 5
def test_certificate_generators_order_by_schreier_sims(p, k):
    # sympy's Schreier-Sims on the point permutations of the certificate's
    # generators, B and the e_k translation, through matrix products on the
    # points (1, v): together they generate all p^(k+1) elements of G_k
    from sympy.combinatorics import Permutation, PermutationGroup

    params = AffineParams(p, k)
    group = enumerate_group(params)
    e_k = np.eye(k, dtype=np.int64)[-1]
    B = np.eye(k + 1, dtype=np.uint8)
    B[1:, 1:] = matrix_B(k, p).A
    shift = np.eye(k + 1, dtype=np.uint8)
    shift[0, 1:] = e_k
    gens = [affine_matrix(group, j) for j in group.generators()]
    assert gens == [Matrix(PrimeField(p), B), Matrix(PrimeField(p), shift)]
    points = np.array([(1, *v) for v in np.ndindex(*(p,) * k)], dtype=np.int64)
    index = {tuple(x): j for j, x in enumerate(points.tolist())}
    perms = [Permutation([index[tuple(x)] for x in (points @ g.A % p).tolist()]) for g in gens]
    assert PermutationGroup(perms).order() == params.group_order == p ** (k + 1)


@pytest.mark.parametrize("p, k", [(3, 2), (5, 2)])
def test_fixed_point_rule_by_enumeration(p, k):
    # fixed points counted on the element matrices: 0 or p for g != 1, and p
    # iff the exponent is nonzero mod p (entry (2, 1) of B^i is i mod p) and u_k = 0
    group = enumerate_group(AffineParams(p, k))
    mats = affine_element_matrices(group)
    counts = (affine_twisted_table(group, 0) == np.arange(p**k)).sum(axis=1)
    assert set(counts[1:].tolist()) <= {0, p}
    assert np.array_equal(counts[1:] == p, ((mats[:, 2, 1] != 0) & (mats[:, 0, -1] == 0))[1:])


def test_unique_twist_with_p_fixed_points(g52):
    # for i nonzero mod p there is exactly one twist with fixed points,
    # at r = -u_k / i (which is r = 0 exactly when u_k = 0); u_k and i mod p
    # are read off the element matrices
    p = 5
    table = g52.fixed_count_table()
    mats = affine_element_matrices(g52).astype(np.int64)
    for row, u_k, i in zip(table[1:], mats[1:, 0, -1], mats[1:, 2, 1]):
        if i == 0:
            assert (row == 0).all()
        else:
            assert sorted(row)[-1] == p and (row == p).sum() == 1
            r_hit = int(np.flatnonzero(row == p)[0])
            assert (u_k + i * r_hit) % p == 0
            assert (r_hit == 0) == (u_k == 0)


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


@pytest.mark.parametrize("p, k", [(3, 2), (5, 3)])
def test_affine_coverage_lines(p, k):
    # the twist certificate's lines, then the check="all" oracles', in report order
    names = ["twist_automorphism", "twist_identity_r0",
             "fpa_letter_counts", "pairwise_delta_agrees", "distance_invariant"]
    lines = build_affine_twisted(AffineParams(p, k), check="all").report.lines()
    assert [line for line in lines if line.startswith("# coverage.")] == [f"# coverage.{n}=exhaustive" for n in names]


def test_group_order_check_can_fail(monkeypatch, capsys):
    # one point row, or one power B^i, equal to another: the matrices
    # assembled from them are no longer p^(k+1) distinct ones
    real = affine.enumerate_group
    for stored in ("points", "b_pows"):

        def duplicate_one(params):
            group = real(params)
            rows = getattr(group, stored).copy()
            rows[2] = rows[1]
            setattr(group, stored, rows)
            return group

        monkeypatch.setattr(affine, "enumerate_group", duplicate_one)
        status = cli_main(["affine", "--p", "3", "--k", "2"])
        assert "check.group_order=FAIL" in capsys.readouterr().out.splitlines(), stored
        assert status == 1


def test_block_structure_check_can_fail(monkeypatch, capsys):
    # one entry above the diagonal of one stored B^i
    real = affine.enumerate_group

    def upper_entry(params):
        group = real(params)
        group.b_pows = group.b_pows.copy()
        group.b_pows[2, 0, 1] = 1
        return group

    monkeypatch.setattr(affine, "enumerate_group", upper_entry)
    status = cli_main(["affine", "--p", "3", "--k", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert "check.block_structure=FAIL" in lines and "check.group_order=PASS" in lines
    assert status == 1


def test_enumerate_group_memory():
    # the group holds its m points and p + 1 powers of B, not N matrices:
    # (7, 6) has N = 823,543 elements and m = 117,649 points (706 KiB)
    tracemalloc.start()
    try:
        group = enumerate_group(AffineParams(7, 6))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(group) == 7**7
    assert held < 2 * 2**20


def test_check_all_build_memory():
    # (5, 3) check="all": the twist certificate walks the Cayley edges one
    # exponent block at a time (forming all n^2 element pairs peaked at 132 MiB)
    tracemalloc.start()
    try:
        report = build_affine_twisted(AffineParams(5, 3), check="all").report
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_pass()
    assert peak < 20 << 20


def test_check_all_coverage_exhaustive(monkeypatch):
    # every oracle is exhaustive at every size, in blocks of one row as well
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", 1)
    report = build_affine_twisted(AffineParams(5, 2), check="all").report
    assert report.all_pass()
    assert report.coverage == dict.fromkeys(
        ["twist_automorphism", "twist_identity_r0", "fpa_letter_counts", "pairwise_delta_agrees", "distance_invariant"],
        "exhaustive",
    )
    assert not [line for line in report.lines() if "_sampled" in line]


@pytest.mark.parametrize("p, k", [(3, 2), (5, 2), (5, 3), (7, 3)])
def test_twisted_tables_are_gathers(p, k):
    # every twist's representation, table and fixed-count column, gathered
    # through twist_index, against the direct per-r image computation
    build = build_affine_twisted(AffineParams(p, k))
    group, (natural, automorphisms) = build.group, build.twisting
    m = p**k
    assert len(automorphisms) == p - 1
    for r in range(p):
        ref = affine_twisted_table(group, r)
        t = automorphisms[r - 1] if r else np.arange(len(group))
        assert np.array_equal(group.twist_index(r), affine_twist_index(group, r))
        assert np.array_equal(t, affine_twist_index(group, r))
        assert np.array_equal(natural.perms[t], ref)
        assert np.array_equal(build.fix[:, r], (ref == np.arange(m)).sum(axis=1))
        assert np.array_equal(natural.sizes[t], m - build.fix[:, r])


@pytest.mark.parametrize("p, k", [(3, 2), (7, 3), (11, 3), (5, 4)])
def test_iterated_twists_equal_closed_forms(p, k):
    # the columns and automorphisms iterated through twist (tau_r = tau_1^r)
    # against the natural column gathered through each closed-form twist_index(r)
    group = enumerate_group(AffineParams(p, k))
    fix = group.fixed_count_table()
    closed = [group.twist_index(r) for r in range(1, p)]
    assert np.array_equal(group.twist, closed[0])
    for r, (iterated, t) in enumerate(zip(group.twist_powers(), closed), start=1):
        assert np.array_equal(iterated, t)
        assert np.array_equal(fix[:, r], fix[:, 0][t])


def test_right_multiplier_is_the_group_product(g32):
    # right multiplication, as (starts, ranks) and as right_step, against affine_product_index for every pair
    m = g32.params.num_points
    for y in range(len(g32)):
        starts, ranks = g32.right_multiplier(y)
        x = np.arange(len(g32))
        want = [affine_product_index(g32, a, y) for a in x]
        assert np.array_equal(starts[x // m] + ranks[x % m], want)
        assert np.array_equal(g32.right_step(y)(x), want)


def test_right_multiplier_past_uint16_ranks():
    # (11,5): m = 161,051 point ranks need uint32, and a term coordinate * weight reaches
    # 10 * 11^4 = 146,410, so a product formed in uint16 would wrap; a few hundred sampled
    # pairs (x, y) against affine_product_index
    group = enumerate_group(AffineParams(11, 5))
    m, rng = group.params.num_points, np.random.default_rng(5)
    for y in rng.integers(0, len(group), size=12):
        starts, ranks = group.right_multiplier(y)
        assert ranks.dtype == np.uint32
        x = np.concatenate([rng.integers(0, len(group), size=24), [0, len(group) - 1]])
        want = [affine_product_index(group, a, y) for a in x]
        assert np.array_equal(starts[x // m] + ranks[x % m], want)
        assert np.array_equal(group.right_step(y)(x), want)


def test_twisted_perm_table_memory():
    # (5,4): the table (3125 x 625 uint16, 3.7 MiB) is built one exponent block at a time
    # through _image_ranks, with no int64 (m, m, k) broadcast (35.8 MiB above the table)
    group = enumerate_group(AffineParams(5, 4))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = group.twisted_perm_table()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert table.dtype == np.uint16 and table.shape == (5**5, 5**4)
    assert np.array_equal(table, affine_twisted_table(group, 0))
    assert peak - table.nbytes <= 2 * table.nbytes, peak


def test_twist_certificate_exhaustive_past_sampling_size():
    # n^2 = 1331^2 > 2^20: the certificate covers every Cayley edge, not 10^4 sampled pairs
    report = build_affine_twisted(AffineParams(11, 2)).report
    assert report.checks["twist_automorphism"] and report.coverage["twist_automorphism"] == "exhaustive"


def test_affine_build_draws_no_random_numbers(monkeypatch):
    # rng_seed stays in the signature, unused: nothing in the build is sampled
    def refuse(*args, **kwargs):
        raise AssertionError("the affine build drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    report = build_affine_twisted(AffineParams(5, 2), check="all", rng_seed=3).report
    assert report.all_pass()


def swap_pair(index):
    index[[1, 10]] = index[[10, 1]]


def repeat_entry(index):
    index[1] = index[2]


def bump(name, at):
    """Add one, mod p, to one entry of the group's stored array `name`."""

    def mutate(group):
        stored = getattr(group, name).copy()
        stored[at] = (stored[at] + 1) % group.params.p
        setattr(group, name, stored)

    return mutate


@pytest.mark.parametrize("p, k", [(3, 2), (7, 3)])
@pytest.mark.parametrize("case, failing", [
    ("twist_swap", "twist_automorphism"),  # one swapped pair in twist_index(1)
    ("twist_repeat", "twist_automorphism"),  # twist_index(1) no longer a permutation
    ("omega_last", "twist_automorphism"),  # one entry of one omega_last row
    ("b_pows_1", "twist_automorphism"),  # one entry of B as stored
    ("b_pows_2", "block_structure"),  # one entry of B^2 as stored, which no twist edge reads
    ("generators", "twist_automorphism"),  # S cut to {B}: the search stays in <B>
])
def test_twist_certificate_can_fail(monkeypatch, capsys, p, k, case, failing):
    real_enumerate, real_twist, real_generators = affine.enumerate_group, affine.AffineGroup.twist_index, affine.AffineGroup.generators
    mutations = {"twist_swap": swap_pair, "twist_repeat": repeat_entry}
    if case in mutations:
        def twist_index(group, r):
            index = real_twist(group, r)
            if r == 1:
                mutations[case](index)
            return index

        monkeypatch.setattr(affine.AffineGroup, "twist_index", twist_index)
    elif case == "generators":
        monkeypatch.setattr(affine.AffineGroup, "generators", lambda group: real_generators(group)[:1])
    else:
        mutate = bump("omega_last", (2, 0)) if case == "omega_last" else bump("b_pows", (int(case[-1]), 1, 0))

        def enumerate_mutated(params):
            group = real_enumerate(params)
            mutate(group)
            return group

        monkeypatch.setattr(affine, "enumerate_group", enumerate_mutated)
    for check in ("fast", "all"):
        status = cli_main(["affine", "--p", str(p), "--k", str(k), "--check", check])
        assert f"check.{failing}=FAIL" in capsys.readouterr().out.splitlines(), check
        assert status == 1


def test_wrong_twist_index_fails_check_all(monkeypatch, capsys):
    real = affine.AffineGroup.twist_index

    def swapped(group, r):
        index = real(group, r)
        if r == 1:
            index[[1, 10]] = index[[10, 1]]
        return index

    monkeypatch.setattr(affine.AffineGroup, "twist_index", swapped)
    status = cli_main(["affine", "--p", "3", "--k", "2", "--check", "all"])
    fails = [line for line in capsys.readouterr().out.splitlines() if line.endswith("=FAIL")]
    assert "check.distance_invariant=FAIL" in fails and status == 1


@pytest.mark.parametrize("p, k", [(3, 2), (7, 3)])
@pytest.mark.parametrize("name", ["omega_last", "b_pows"])
def test_twist_moving_the_identity_skips_check_all(monkeypatch, capsys, p, k, name):
    # one entry of omega_last[p] or B^p = I as stored: the twists move the
    # identity, so the code cannot be materialised; check="all" reports
    # the certificate's FAIL as "fast" does, and every oracle FAIL, skipped
    real_enumerate = affine.enumerate_group

    def enumerate_mutated(params):
        group = real_enumerate(params)
        bump(name, (p, 1) if name == "omega_last" else (p, 1, 0))(group)
        return group

    monkeypatch.setattr(affine, "enumerate_group", enumerate_mutated)
    for check in ("fast", "all"):
        status = cli_main(["affine", "--p", str(p), "--k", str(k), "--check", check])
        lines = capsys.readouterr().out.splitlines()
        assert "check.twist_automorphism=FAIL" in lines and status == 1, check
    for oracle in codes.ORACLES:
        assert f"check.{oracle}=FAIL" in lines and f"# coverage.{oracle}=skipped" in lines
    assert not any(line.startswith("# time.materialise") for line in lines)


@pytest.mark.parametrize("p, k", [(3, 2), (5, 2)])
def test_check_all_independent_of_block_size(monkeypatch, tmp_path, p, k):
    # blocks of one row: the same deterministic report lines and codeword file
    def run(name):
        build = build_affine_twisted(AffineParams(p, k), check="all")
        codes.write_code(tmp_path / name, build.code, "affine", {"p": p, "k": k}, r=p)
        return [line for line in build.report.lines() if not line.startswith("#")], (tmp_path / name).read_bytes()

    default = run("default.tw")
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", 1)
    assert run("one-row.tw") == default


def fixed_point_checks(group, fix):
    """_check_fixed_points on a table, with the sums support_scan takes from it."""
    sums, _ = codes.support_scan(fix, group.params.num_points)
    rec = BuildRecord()
    affine._check_fixed_points(group, fix, sums, rec)
    return rec.checks


def mutate_fixed_points(group, fix, case):
    """Break one fact of the (5, 2) table.  Row a has i != p and u_k = 0
    (p fixed points at r = 0), row b has i != p and u_k != 0 (natural
    column 0, p at some r != 0), row c has i = p (no fixed point at all)."""
    p, m = group.params.p, group.params.num_points
    u, i = group.decompose(np.arange(len(group)))
    moving, u_last = i != p, u[:, -1]
    idx = np.arange(len(group))
    a = idx[moving & (u_last == 0)][1]  # [0] is the identity
    b = idx[moving & (u_last != 0)][0]
    c = idx[~moving][1]
    r_b = int(np.flatnonzero(fix[b] == p)[0])
    if case == "entry_one":
        fix[b, 0] = 1
    elif case == "p_in_free_row":
        fix[b, 0] = p
    elif case in ("second_p", "sums"):
        fix[a, 1] = p
    elif case == "p_at_wrong_r":
        fix[b, r_b], fix[b, r_b % (p - 1) + 1] = 0, p  # still one p per row, in a twist column
    elif case == "nonzero_at_i_eq_p":
        fix[c, 2] = p
    elif case == "m_in_natural":
        fix[c, 0] = m


@pytest.mark.parametrize("case, name", [
    ("entry_one", "fixed_point_dichotomy"),
    ("p_in_free_row", "fixed_point_rule"),
    ("second_p", "twist_support_pattern"),
    ("p_at_wrong_r", "twist_support_pattern"),
    ("nonzero_at_i_eq_p", "twist_support_pattern"),
    ("sums", "support_sum_dichotomy"),
    ("m_in_natural", "faithful_natural_action"),
])
def test_fixed_point_checks_can_fail(g52, case, name):
    fix = g52.fixed_count_table()
    assert all(fixed_point_checks(g52, fix).values())
    mutate_fixed_points(g52, fix, case)
    assert fixed_point_checks(g52, fix)[name] is False


@pytest.mark.parametrize("case", [None, "entry_one", "p_in_free_row", "second_p", "p_at_wrong_r", "nonzero_at_i_eq_p", "m_in_natural"])
def test_fixed_point_checks_independent_of_block(monkeypatch, g52, case):
    # blocks of 7 rows end mid exponent block and leave a short last block
    fix = g52.fixed_count_table()
    if case:
        mutate_fixed_points(g52, fix, case)
    want = fixed_point_checks(g52, fix)
    monkeypatch.setattr(affine, "ROW_CHUNK", 7)
    assert fixed_point_checks(g52, fix) == want


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
        build.twisting
    with pytest.raises(ValueError, match="over the guard"):
        build_affine_twisted(AffineParams(13, 3), check="all")


def test_bad_check_level():
    with pytest.raises(ValueError):
        build_affine_twisted(AffineParams(3, 2), check="exhaustive")
