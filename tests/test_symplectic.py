import hashlib
import tracemalloc

import numpy as np
import pytest

from twistcode import _packed, symplectic
from twistcode._packed import batch_matmul
from twistcode.cli import main as cli_main
from twistcode.linalg import Matrix
from twistcode.symplectic import (
    GRAM,
    SymplecticSpace,
    TauConstructionError,
    all_transvections,
    build_outer_automorphism,
    build_symplectic_twisted,
    fixed_projective_count,
    generate_group,
    generators,
    is_transvection,
    projective_points,
    sp4_order,
    symplectic_form,
    transvection,
    transvection_flags,
)

from oracles import mulclose


@pytest.fixture(scope="module")
def sp2():
    space = SymplecticSpace.create(1)
    return space, generate_group(space)


@pytest.fixture(scope="module")
def tau2(sp2):
    space, group = sp2
    return build_outer_automorphism(space, group)


def test_form_basics():
    for n in (1, 2):
        space = SymplecticSpace.create(n)
        assert symplectic_form(space, space.e1, space.f1) == 1
        assert symplectic_form(space, space.e2, space.f2) == 1
        assert symplectic_form(space, space.e1, space.e2) == 0
        assert symplectic_form(space, space.e1, space.f2) == 0
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = rng.integers(0, space.q, size=4)
            assert symplectic_form(space, u, u) == 0
            v = rng.integers(0, space.q, size=4)
            assert symplectic_form(space, u, v) == symplectic_form(space, v, u)  # char 2


def test_transvection_matrix_shape():
    space = SymplecticSpace.create(1)
    t = transvection(space, space.e1, 1)
    # fixes e1, e2, f2 and maps f1 to f1 + e1
    assert t.A.tolist() == [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    space4 = SymplecticSpace.create(2)
    lam = 3
    t4 = transvection(space4, space4.e1, lam)
    expected = np.eye(4, dtype=np.uint8)
    expected[1, 0] = lam
    assert t4.A.tolist() == expected.tolist()


def test_transvection_validation_and_algebra():
    space = SymplecticSpace.create(2)
    with pytest.raises(ValueError):
        transvection(space, (0, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        transvection(space, space.e1, 0)
    # values outside GF(4), which would index the tables
    for lam in (-1, 4, 1.0):
        with pytest.raises(ValueError, match="scalar must be in 1..3"):
            transvection(space, space.e1, lam)
    for v in ((4, 0, 0, 0), (-1, 0, 0, 0), (1, 0, 0), (1, 0, 0, 0, 0), ((1, 0), (0, 0)), (1.0, 0, 0, 0)):
        with pytest.raises(ValueError, match="direction must be 4 entries in 0..3"):
            transvection(space, v, 1)
    assert transvection(space, np.array([0, 0, 0, 3], dtype=np.int64), 3) == transvection(space, (0, 0, 0, 3), 3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.integers(0, 4, size=4)
        if not v.any():
            continue
        lam = int(rng.integers(1, 4))
        t = transvection(space, v, lam)
        d = t - Matrix.identity(space.field, 4)
        assert d.rank() == 1 and (d * d).is_zero()
        # form preservation
        for _ in range(5):
            x = rng.integers(0, 4, size=4)
            y = rng.integers(0, 4, size=4)
            xt = space.field.matmul(x.reshape(1, 4).astype(np.uint8), t.A)[0]
            yt = space.field.matmul(y.reshape(1, 4).astype(np.uint8), t.A)[0]
            assert symplectic_form(space, xt, yt) == symplectic_form(space, x, y)


def test_projective_point_counts_and_canonical_form():
    for n, m in [(1, 15), (2, 85)]:
        space = SymplecticSpace.create(n)
        dom = projective_points(space)
        assert dom.size == m
        for pt in dom:
            lead = next(c for c in pt if c)
            assert lead == 1
    # canonicalisation is idempotent and scale invariant
    space = SymplecticSpace.create(2)
    ops = space.ops
    rng = np.random.default_rng(6)
    codes = rng.integers(1, ops.ncodes, size=100).astype(np.uint32)
    assert (ops.canon[ops.canon[codes]] == ops.canon[codes]).all()
    for s in range(1, 4):
        scaled = ops.smul[s][codes]
        assert (ops.canon[scaled] == ops.canon[codes]).all()


# SHA-256 of np.sort(group.keys) for Sp(4, 2): the element set, whatever its order
SORTED_KEYS_Q2_DIGEST = "1ddb0d95483a5adaabc5fc1755740a68400a7ed0447220020f96ae2c82c268f4"


def test_generate_group_order_and_oracle(sp2):
    space, group = sp2
    assert len(group) == sp4_order(2) == 720
    assert group.matrix(0).is_identity()
    assert hashlib.sha256(np.sort(group.keys).tobytes()).hexdigest() == SORTED_KEYS_Q2_DIGEST
    # independent dict-based closure over Matrix objects
    gens = [Matrix(space.field, t) for t in all_transvections(space)]
    assert len(gens) == 15
    assert len(mulclose(gens)) == 720
    assert len(mulclose([Matrix(space.field, g) for g in generators(space)])) == 720


@pytest.mark.parametrize("n", [1, 2])
def test_generator_order_by_schreier_sims(n):
    # sympy's Schreier-Sims on the pair's point permutations, sharing no
    # code with the closure
    from sympy.combinatorics import Permutation, PermutationGroup

    space = SymplecticSpace.create(n)
    perms = _packed.perm_tables(space.ops, space.ops.pack(generators(space)))
    assert PermutationGroup([Permutation(p.tolist()) for p in perms]).order() == sp4_order(space.q)


def test_generate_group_guard():
    space = SymplecticSpace.create(3)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="no recorded generator pair"):
            generate_group(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before anything is enumerated


def test_group_order_check_can_fail(monkeypatch, capsys):
    # words of even length generate a proper subgroup of Sp(4, 2) = S6
    even = ((6, 1, 3, 10, 8, 14), (7, 12, 6, 2, 8, 10))
    monkeypatch.setitem(symplectic.GENERATOR_WORDS, 1, even)
    with pytest.raises(RuntimeError, match="expected 720"):
        generate_group(SymplecticSpace.create(1))
    assert cli_main(["symplectic", "--n", "1"]) == 1
    assert "internal consistency error" in capsys.readouterr().err


def test_fixed_counts(sp2):
    space, group = sp2
    assert fixed_projective_count(space, group.matrix(0)) == 15
    t = transvection(space, space.f2, 1)
    assert fixed_projective_count(space, t) == 7
    counts = _packed.fixed_counts(space.ops, group.rows)
    mask = group.transvection_mask()
    assert (counts[1:][mask[1:]] == 7).all()
    assert (counts[1:][~mask[1:]] <= 6).all()


def test_is_transvection(sp2):
    space, group = sp2
    assert not is_transvection(space, group.matrix(0))
    assert is_transvection(space, transvection(space, space.e1, 1))
    count = sum(is_transvection(space, group.matrix(i)) for i in range(len(group)))
    assert count == 15
    assert int(group.transvection_mask().sum()) == 15


def test_outer_automorphism_q2(sp2, tau2):
    space, group = sp2
    tau = tau2
    assert tau.matrix(0).is_identity()
    mask = group.transvection_mask()
    for idx in np.flatnonzero(mask):
        img = tau.matrix(int(idx))
        assert fixed_projective_count(space, img) == 3
        assert not is_transvection(space, img)
    keys = symplectic._tau_keys(space, tau.basis_lift, tau.coords, group.rows)
    assert len(np.unique(keys)) == len(group)
    assert np.array_equal(np.sort(tau.index), np.arange(len(group)))


# SHA-256 of the tau table group.rows[tau.index].tobytes() (uint32) for Sp(4, 2)
TAU_IMAGE_Q2_DIGEST = "9fd4322a2ceec697861cc9b7495adc11fd4a4c955727d82e2c38cceb4c501023"


def test_tau_rows_equal_dense_tau_apply(sp2, tau2):
    space, group = sp2
    dense = symplectic._tau_apply(space.field, tau2.basis_lift, tau2.coords, space.ops.unpack(group.rows))
    packed = space.ops.unpack_keys(symplectic._tau_keys(space, tau2.basis_lift, tau2.coords, group.rows))
    assert np.array_equal(packed, space.ops.pack(dense))
    table = group.rows[tau2.index]
    assert np.array_equal(table, packed)
    assert hashlib.sha256(table.tobytes()).hexdigest() == TAU_IMAGE_Q2_DIGEST


def test_tau_rows_independent_of_chunk(monkeypatch, sp2):
    # 720 rows in blocks of 7: the last block is short; the row kernels
    # and the tau table equal their one-block results
    space, group = sp2
    ops = space.ops
    diff = group.rows ^ ops.pack(np.eye(4, dtype=np.uint8))[None, :]
    counts, flags = _packed.fixed_counts(ops, group.rows), _packed.rank_one_flags(ops, diff)
    monkeypatch.setattr(_packed, "ROW_CHUNK", 7)
    assert np.array_equal(_packed.fixed_counts(ops, group.rows), counts)
    assert np.array_equal(_packed.rank_one_flags(ops, diff), flags)
    tau = build_outer_automorphism(space, group)
    assert hashlib.sha256(group.rows[tau.index].tobytes()).hexdigest() == TAU_IMAGE_Q2_DIGEST


def _dense_preserves_form(space, mats):
    """g . Gram . g^T == Gram through the dense batch_matmul kernel."""
    mul = space.field.mul_table
    left = batch_matmul(mul, mats, GRAM)
    prod = batch_matmul(mul, left, mats.transpose(0, 2, 1))
    return (prod == GRAM[None, :, :]).all(axis=(1, 2))


def test_preserves_form_equals_dense_oracle(sp2):
    space, group = sp2
    ops = space.ops
    assert symplectic._preserves_form(space, group.rows).all()
    elements = ops.unpack(group.rows)
    assert _dense_preserves_form(space, elements).all()
    # every element with each one of its 16 entries flipped
    flipped = np.repeat(elements, 16, axis=0)
    pos = np.tile(np.arange(16), len(group))
    flipped.reshape(-1, 16)[np.arange(len(flipped)), pos] ^= 1
    packed = symplectic._preserves_form(space, ops.pack(flipped))
    assert np.array_equal(packed, _dense_preserves_form(space, flipped))
    # a flip stays symplectic exactly when it lands on another group element
    member = np.isin(ops.pack_keys(ops.pack(flipped)), group.keys)
    assert np.array_equal(packed, member)
    assert 0 < packed.sum() < len(flipped)


def test_form_check_failure_is_reported(monkeypatch, capsys):
    calls = []
    packed_ok = symplectic._preserves_form

    def reject_one(space, rows):
        ok = packed_ok(space, rows)
        ok[1] = False
        calls.append(len(rows))
        return ok

    monkeypatch.setattr(symplectic, "_preserves_form", reject_one)
    status = cli_main(["symplectic", "--n", "1"])
    out = capsys.readouterr().out
    assert calls == [720]  # the group's own check; tau's images are looked up in the group
    assert "check.form_preserved=FAIL" in out.splitlines()
    assert status == 1


def test_tau_step_failure_is_reported(monkeypatch, capsys):
    # a basis that cannot standardise the quotient form fails step (c)
    monkeypatch.setattr(symplectic, "_symplectic_basis_of", lambda field, F: np.zeros((4, 4), np.uint8))
    with pytest.raises(TauConstructionError) as err:
        build_symplectic_twisted(SymplecticSpace.create(1))
    assert err.value.step == "c"
    assert err.value.checks == {"tau_step_a": True, "tau_step_b": True, "tau_step_c": False}
    status = cli_main(["symplectic", "--n", "1"])
    out = capsys.readouterr().out
    assert out.splitlines() == ["check.tau_step_a=PASS", "check.tau_step_b=PASS", "check.tau_step_c=FAIL"]
    assert status == 1


def _duplicate_row(keys):
    keys[2] = keys[1]


def _zero_row(keys):
    keys[1] = 0  # the zero matrix's key: no group element has it


@pytest.mark.parametrize(
    "corrupt, message",
    [(_duplicate_row, "image table has duplicates"), (_zero_row, "an image falls outside the group")],
    ids=["duplicate", "zero"],
)
def test_tau_step_d_failure_is_reported(monkeypatch, capsys, corrupt, message):
    real = symplectic._tau_keys

    def corrupted(*args):
        keys = real(*args)
        corrupt(keys)
        return keys

    monkeypatch.setattr(symplectic, "_tau_keys", corrupted)
    with pytest.raises(TauConstructionError, match=message) as err:
        build_symplectic_twisted(SymplecticSpace.create(1))
    assert err.value.step == "d"
    status = cli_main(["symplectic", "--n", "1"])
    out = capsys.readouterr().out
    assert out.splitlines() == [f"check.tau_step_{s}=PASS" for s in "abc"] + ["check.tau_step_d=FAIL"]
    assert status == 1


def test_tau_tables_gathered_equal_kernel_oracle(sp2, tau2):
    # every tau-side table is the natural one gathered through tau.index;
    # the packed kernels run on the recomputed image rows are the oracle
    space, group = sp2
    ops = space.ops
    rows = ops.unpack_keys(symplectic._tau_keys(space, tau2.basis_lift, tau2.coords, group.rows))
    assert np.array_equal(_packed.fixed_counts(ops, rows), _packed.fixed_counts(ops, group.rows)[tau2.index])
    assert np.array_equal(transvection_flags(space, rows), group.transvection_mask()[tau2.index])
    natural = group.natural_representation()
    assert np.array_equal(_packed.perm_tables(ops, rows), natural.perms[tau2.index])


def test_outer_automorphism_is_homomorphism_sampled(sp2, tau2):
    space, group = sp2
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b = rng.integers(0, len(group), size=2)
        ga, gb = group.matrix(int(a)), group.matrix(int(b))
        assert tau2.map_matrix(ga * gb) == tau2.matrix(int(a)) * tau2.matrix(int(b))


def test_tau_rejects_nonsymplectic_input(sp2, tau2):
    space, _ = sp2
    shear = Matrix(space.field, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(TauConstructionError):
        tau2.map_matrix(shear)


def test_build_symplectic_twisted_n1():
    build = build_symplectic_twisted(SymplecticSpace.create(1), check="all")
    r = build.report
    assert (r.delta_tw, r.delta_rep, r.gap) == (20, 16, 4)
    assert r.all_pass()
    code, report = build
    assert (code.size, code.length, code.q) == (720, 30, 15)


def test_transvection_flags_match_scalar(sp2):
    space, group = sp2
    flags = transvection_flags(space, group.rows)
    rng = np.random.default_rng(10)
    for i in rng.integers(0, len(group), size=40):
        assert bool(flags[i]) == is_transvection(space, group.matrix(int(i)))


def _python_fixed_count(space, g):
    """Fixed 1-space count by pure Python scaling, independent of the
    packed kernels: canonicalise v.g by its leading coefficient."""
    field = space.field
    count = 0
    for pt in projective_points(space):
        img = field.matmul(np.array(pt, dtype=np.uint8).reshape(1, 4), g.A)[0]
        lead = next(int(c) for c in img if c)
        canon = tuple(field.mul(field.inv(lead), int(c)) for c in img)
        count += canon == pt
    return count


def test_packed_kernels_against_python_at_q4():
    # random transvection products exercise the q=4 kernels without the
    # (expensive) full enumeration
    space = SymplecticSpace.create(2)
    rng = np.random.default_rng(14)
    mats = []
    for _ in range(12):
        g = Matrix.identity(space.field, 4)
        for _ in range(4):
            v = rng.integers(0, 4, size=4)
            if not v.any():
                v[0] = 1
            g = g * transvection(space, v, int(rng.integers(1, 4)))
        mats.append(g)
    rows = space.ops.pack(np.stack([g.A for g in mats]))
    counts = _packed.fixed_counts(space.ops, rows)
    perms = _packed.perm_tables(space.ops, rows)
    dom = projective_points(space)
    for idx, g in enumerate(mats):
        assert counts[idx] == _python_fixed_count(space, g)
        for j in (0, 17, 84):
            img = space.field.matmul(np.array(dom[j], dtype=np.uint8).reshape(1, 4), g.A)[0]
            lead = next(int(c) for c in img if c)
            canon = tuple(space.field.mul(space.field.inv(lead), int(c)) for c in img)
            assert dom[int(perms[idx, j])] == canon
