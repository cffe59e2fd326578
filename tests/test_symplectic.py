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
    TAU_STEPS,
    SymplecticSpace,
    TauConstructionError,
    all_transvections,
    build_outer_automorphism,
    build_symplectic_twisted,
    generate_group,
    generators,
    sp4_order,
    transvection_flags,
)

from oracles import dense_tau_apply, mulclose, sorted_key_index, transvection, usable_cores


@pytest.fixture(scope="module")
def sp2():
    space = SymplecticSpace.create(1)
    return space, generate_group(space)


@pytest.fixture(scope="module")
def sp4():
    space = SymplecticSpace.create(2)
    return space, generate_group(space)


@pytest.fixture(scope="module")
def tau2(sp2):
    space, group = sp2
    return build_outer_automorphism(space, group)


def test_form_basics():
    # the Gram matrix pairs e1 with f1 and e2 with f2, and the form it gives
    # is alternating, so symmetric in characteristic 2 (_preserves_form
    # compares only i < j because of it)
    assert GRAM[0, 1] == GRAM[2, 3] == 1 and GRAM[0, 2] == GRAM[0, 3] == 0
    assert (GRAM == GRAM.T).all() and not np.diag(GRAM).any()
    for n in (1, 2):
        field = SymplecticSpace.create(n).field
        u, v = np.random.default_rng(2).integers(0, field.order, size=(2, 50, 4), dtype=np.uint8)
        B = lambda x, y: field.matmul(field.matmul(x, GRAM), y.T).diagonal()  # B(x_r, y_r) per row r
        assert not B(u, u).any()
        assert np.array_equal(B(u, v), B(v, u))


def points_of(space):
    """The projective points as coordinate tuples, in index order."""
    return [tuple(int(x) for x in v) for v in space.ops.unpack(space.ops.point_codes)]


def _is_transvection(space, g):
    """Scalar transvection test on one Matrix: g != I, rank(g - I) = 1 and (g - I)^2 = 0."""
    diff = g - Matrix.identity(space.field, 4)
    return not diff.is_zero() and diff.rank() == 1 and (diff * diff).is_zero()


def test_transvection_matrix_shape():
    space = SymplecticSpace.create(1)
    t = transvection(space, (1, 0, 0, 0), 1)
    # fixes e1, e2, f2 and maps f1 to f1 + e1
    assert t.A.tolist() == [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    # all_transvections is the scalar oracle over every (direction, scalar) pair, in that order
    space4 = SymplecticSpace.create(2)
    want = [transvection(space4, v, lam).A for v in points_of(space4) for lam in range(1, space4.q)]
    assert np.array_equal(all_transvections(space4), np.stack(want))
    assert transvection(space4, (1, 0, 0, 0), 3).A.tolist() == [[1, 0, 0, 0], [3, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_transvection_algebra():
    # every transvection of Sp(4, 4): g - I has rank one and squares to zero, and g preserves the form
    space = SymplecticSpace.create(2)
    mats = all_transvections(space)
    assert len(mats) == space.num_points * (space.q - 1)
    assert all(_is_transvection(space, Matrix(space.field, t)) for t in mats)
    assert _dense_preserves_form(space, mats).all()


def test_projective_point_counts_and_canonical_form():
    for n, m in [(1, 15), (2, 85)]:
        space = SymplecticSpace.create(n)
        dom = points_of(space)
        assert len(dom) == m == space.num_points
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
    perms = _packed.perm_tables(space.ops, space.ops.keys_of(generators(space)))
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


def index_queries(space, group, samples, seed):
    """Keys to index: random keys, products of random pairs of elements and
    one-bit flips of random elements, `samples` of each; at q = 2 every
    key, every product of two elements and every flip of every element."""
    ops = space.ops
    bits = 4 * ops.row_bits
    rng = np.random.default_rng(seed)
    if space.q == 2:
        every = np.arange(len(group))
        keys = np.arange(1 << bits, dtype=ops.key_dtype)
        a, b = np.repeat(every, len(group)), np.tile(every, len(group))
        members, flips = np.repeat(every, bits), np.tile(np.arange(bits), len(group))
    else:
        keys = rng.integers(0, 1 << bits, size=samples, dtype=np.uint64).astype(ops.key_dtype)
        a, b, members = rng.integers(0, len(group), size=(3, samples))
        flips = rng.integers(0, bits, size=samples)
    rows = _packed.rows_matmul(ops, ops.unpack_keys(group.keys[a]), ops.unpack_keys(group.keys[b]))
    flipped = group.keys[members] ^ (ops.key_dtype(1) << flips.astype(ops.key_dtype))
    return {"keys": keys, "products": ops.pack_keys(rows), "flips": flipped}


def index_mismatches(space, group, queries):
    """The queries whose SymplecticSpace.index_block answer differs from the
    binary search in the group's keys (sorted_key_index)."""
    got = np.empty(len(queries), dtype=np.int32)
    space.index_block(queries, got)
    return queries[got != sorted_key_index(group.keys, queries)]


@pytest.fixture(scope="module", params=[1, 2], ids=["q2", "q4"])
def indexed(request, sp2, sp4):
    space, group = sp2 if request.param == 1 else sp4
    return space, group, index_queries(space, group, 300_000, 38)


def test_index_of_every_element(indexed):
    space, group, _ = indexed
    assert np.array_equal(group.indices_of_keys(group.keys), np.arange(len(group)))
    # the tables are built by the first index, not with the space
    assert "index_tables" not in SymplecticSpace.create(space.n).__dict__


@pytest.mark.parametrize("kind", ["keys", "products", "flips"])
def test_index_equals_sorted_lookup(indexed, kind):
    # the same index, -1 included, as a binary search in the sorted keys
    space, group, queries = indexed
    assert index_mismatches(space, group, queries[kind]).size == 0
    member = sorted_key_index(group.keys, queries[kind]) >= 0
    assert member.all() if kind == "products" else not member.all()


def test_index_misses_a_dropped_sentinel(monkeypatch, indexed):
    # no build indexes a non-element, so only the comparison with the sorted
    # lookup sees a sentinel of the last table (B(r2, r3) != 1) replaced by 0;
    # it is dropped at a flip that no other table read refuses
    space, group, queries = indexed
    pair, perp, last, identity = space.index_tables
    flips, zeroed = queries["flips"], np.empty(len(queries["flips"]), dtype=np.int32)
    monkeypatch.setitem(space.__dict__, "index_tables", (pair, perp, np.zeros_like(last), identity))
    space.index_block(flips, zeroed)
    key = flips[(zeroed >= 0) & (sorted_key_index(group.keys, flips) < 0)][0]
    dropped, low = last.copy(), int(key) & (space.ops.ncodes**2 - 1)
    assert dropped.flat[low] < 0
    dropped.flat[low] = 0
    monkeypatch.setitem(space.__dict__, "index_tables", (pair, perp, dropped, identity))
    assert key in index_mismatches(space, group, flips)


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
    counts = _packed.fixed_counts(space.ops, group.keys)
    assert counts[0] == _python_fixed_count(space, group.matrix(0)) == 15
    t = transvection(space, (0, 0, 0, 1), 1)  # along f2
    assert _packed.fixed_counts(space.ops, space.ops.keys_of(t.A))[0] == _python_fixed_count(space, t) == 7
    mask = group.transvection_mask()
    assert (counts[1:][mask[1:]] == 7).all()
    assert (counts[1:][~mask[1:]] <= 6).all()


def test_outer_automorphism_q2(sp2, tau2):
    space, group = sp2
    tau = tau2
    assert group.matrix(tau.index[0]).is_identity()
    mask = group.transvection_mask()
    for idx in np.flatnonzero(mask):
        img = group.matrix(tau.index[idx])
        assert _python_fixed_count(space, img) == 3
        assert not _is_transvection(space, img)
    keys = symplectic._tau_keys(space, tau.basis_lift, tau.coords)(group.keys)
    assert len(np.unique(keys)) == len(group)
    assert np.array_equal(np.sort(tau.index), np.arange(len(group)))


# SHA-256 of the tau table ops.unpack_keys(group.keys[tau.index]).tobytes()
# (its (N, 4) uint32 packed rows) for Sp(4, 2)
TAU_IMAGE_Q2_DIGEST = "9fd4322a2ceec697861cc9b7495adc11fd4a4c955727d82e2c38cceb4c501023"


def test_tau_rows_equal_dense_tau_apply(sp2, tau2):
    space, group = sp2
    dense = dense_tau_apply(space.field, tau2.basis_lift, tau2.coords, space.ops.matrices_of(group.keys))
    packed = space.ops.unpack_keys(symplectic._tau_keys(space, tau2.basis_lift, tau2.coords)(group.keys))
    assert np.array_equal(packed, space.ops.pack(dense))
    table = space.ops.unpack_keys(group.keys[tau2.index])
    assert np.array_equal(table, packed)
    assert hashlib.sha256(table.tobytes()).hexdigest() == TAU_IMAGE_Q2_DIGEST


def test_tau_rows_independent_of_chunk(monkeypatch, sp2):
    # 720 rows in blocks of 7: the last block is short; the row kernels
    # and the tau table equal their one-block results
    space, group = sp2
    ops = space.ops
    diff = group.keys ^ ops.identity_key
    counts, flags = _packed.fixed_counts(ops, group.keys), _packed.rank_one_flags(ops, diff)
    monkeypatch.setattr(_packed, "ROW_CHUNK", 7)
    assert np.array_equal(_packed.fixed_counts(ops, group.keys), counts)
    assert np.array_equal(_packed.rank_one_flags(ops, diff), flags)
    tau = build_outer_automorphism(space, group)
    assert hashlib.sha256(ops.unpack_keys(group.keys[tau.index]).tobytes()).hexdigest() == TAU_IMAGE_Q2_DIGEST


def _dense_preserves_form(space, mats):
    """g . Gram . g^T == Gram through the dense batch_matmul kernel."""
    mul = space.field.mul_table
    left = batch_matmul(mul, mats, GRAM)
    prod = batch_matmul(mul, left, mats.transpose(0, 2, 1))
    return (prod == GRAM[None, :, :]).all(axis=(1, 2))


def test_preserves_form_equals_dense_oracle(sp2):
    space, group = sp2
    ops = space.ops
    assert symplectic._preserves_form(space, group.keys).all()
    elements = ops.matrices_of(group.keys)
    assert _dense_preserves_form(space, elements).all()
    # every element with each one of its 16 entries flipped
    flipped = np.repeat(elements, 16, axis=0)
    pos = np.tile(np.arange(16), len(group))
    flipped.reshape(-1, 16)[np.arange(len(flipped)), pos] ^= 1
    packed = symplectic._preserves_form(space, ops.keys_of(flipped))
    assert np.array_equal(packed, _dense_preserves_form(space, flipped))
    # a flip stays symplectic exactly when it lands on another group element
    member = np.isin(ops.keys_of(flipped), group.keys)
    assert np.array_equal(packed, member)
    assert 0 < packed.sum() < len(flipped)


def test_form_check_failure_is_reported(monkeypatch, capsys):
    calls = []
    packed_ok = symplectic._preserves_form

    def reject_one(space, keys):
        ok = packed_ok(space, keys)
        ok[1] = False
        calls.append(len(keys))
        return ok

    monkeypatch.setattr(symplectic, "_preserves_form", reject_one)
    status = cli_main(["symplectic", "--n", "1"])
    out = capsys.readouterr().out
    assert calls == [720]  # the group's own check; tau's images are looked up in the group
    assert "check.form_preserved=FAIL" in out.splitlines()
    assert status == 1


# one mutation per raise branch of steps (b) and (c): (step, the name
# patched in symplectic, its value, the error message)
TAU_BASIS_MUTATIONS = {
    "degenerate pairing": ("b", "_wedge_pairing_gram", lambda space: np.zeros((6, 6), np.uint8), "whole exterior square"),
    "row outside w-perp": ("b", "QUOTIENT_BASIS", ((0, 1), (1, 3), (0, 3), (1, 2)), "leaves w-perp"),
    "complement in the span": ("b", "QUOTIENT_COMPLEMENT", (0, 2), "do not span"),
    "repeated row": ("b", "QUOTIENT_BASIS", ((0, 2), (0, 2), (0, 3), (1, 2)), "do not span"),
    "not hyperbolic pairs": ("c", "QUOTIENT_BASIS", ((0, 2), (0, 3), (1, 3), (1, 2)), "does not standardise"),
}


@pytest.mark.parametrize("mutation", list(TAU_BASIS_MUTATIONS))
def test_tau_step_failure_is_reported(monkeypatch, capsys, mutation):
    step, attr, value, message = TAU_BASIS_MUTATIONS[mutation]
    monkeypatch.setattr(symplectic, attr, value)
    with pytest.raises(TauConstructionError, match=message) as err:
        build_symplectic_twisted(SymplecticSpace.create(1))
    assert err.value.step == step
    status = cli_main(["symplectic", "--n", "1"])
    out = capsys.readouterr().out
    steps = TAU_STEPS[: TAU_STEPS.index(step) + 1]
    assert out.splitlines() == [f"check.tau_step_{s}={'FAIL' if s == step else 'PASS'}" for s in steps]
    assert status == 1


def test_tau_pin_tells_a_conjugate_basis_apart(monkeypatch, sp2, tau2):
    # QUOTIENT_BASIS with its two hyperbolic pairs swapped is another
    # symplectic basis of the quotient: it passes steps (b)-(d) and gives the
    # same fixed-point column, but moves tau.index, so only the pin sees it
    space, group = sp2
    monkeypatch.setattr(symplectic, "QUOTIENT_BASIS", ((0, 3), (1, 2), (0, 2), (1, 3)))
    tau = build_outer_automorphism(space, group)
    fix = _packed.fixed_counts(space.ops, group.keys)
    assert np.array_equal(fix[tau.index], fix[tau2.index])
    assert not np.array_equal(tau.index, tau2.index)
    rows = space.ops.unpack_keys(group.keys[tau.index])
    assert hashlib.sha256(rows.tobytes()).hexdigest() != TAU_IMAGE_Q2_DIGEST


def _fail_step(monkeypatch, step):
    """Patch one input of build_outer_automorphism so that its step fails."""
    duplicated = _corrupt_image_keys(symplectic._tau_keys, _duplicate_row)

    attr, fake = {
        "a": ("batch_matmul_left", lambda mul, rows, mats: np.zeros((len(mats), 1, 6), np.uint8)),  # moves w
        "b": TAU_BASIS_MUTATIONS["row outside w-perp"][1:3],
        "c": TAU_BASIS_MUTATIONS["not hyperbolic pairs"][1:3],
        "d": ("_tau_keys", duplicated),
    }[step]
    monkeypatch.setattr(symplectic, attr, fake)


@pytest.mark.parametrize(
    "step, checks",
    [
        ("a", {"tau_step_a": False}),
        ("b", {"tau_step_a": True, "tau_step_b": False}),
        ("c", {"tau_step_a": True, "tau_step_b": True, "tau_step_c": False}),
        ("d", {"tau_step_a": True, "tau_step_b": True, "tau_step_c": True, "tau_step_d": False}),
    ],
    ids=list("abcd"),
)
def test_tau_error_carries_step_checks(monkeypatch, sp2, step, checks):
    # raised by build_outer_automorphism itself, with no builder around it
    _fail_step(monkeypatch, step)
    with pytest.raises(TauConstructionError) as err:
        build_outer_automorphism(*sp2)
    assert err.value.step == step
    assert err.value.checks == checks


def _duplicate_row(keys):
    keys[2] = keys[1]


def _zero_row(keys):
    keys[1] = 0  # the zero matrix's key: no group element has it


def _corrupt_image_keys(real, corrupt):
    """A _tau_keys whose block function applies corrupt to the image keys of
    every block it computes (one block of 720 at Sp(4, 2))."""

    def tau_keys(*args):
        image_keys = real(*args)

        def corrupted(keys):
            images = image_keys(keys)
            corrupt(images)
            return images

        return corrupted

    return tau_keys


@pytest.mark.parametrize(
    "corrupt, message",
    [(_duplicate_row, "image table has duplicates"), (_zero_row, "an image falls outside the group")],
    ids=["duplicate", "zero"],
)
def test_tau_step_d_failure_is_reported(monkeypatch, capsys, corrupt, message):
    monkeypatch.setattr(symplectic, "_tau_keys", _corrupt_image_keys(symplectic._tau_keys, corrupt))
    with pytest.raises(TauConstructionError, match=message) as err:
        build_symplectic_twisted(SymplecticSpace.create(1))
    assert err.value.step == "d"
    status = cli_main(["symplectic", "--n", "1"])
    out = capsys.readouterr().out
    assert out.splitlines() == [f"check.tau_step_{s}=PASS" for s in "abc"] + ["check.tau_step_d=FAIL"]
    assert status == 1


def test_tau_step_d_pair_check_can_fail(monkeypatch, capsys, sp2, tau2):
    # the images of two transvections swapped as tau.index is filled (one
    # block of 720 on one core): the index is still a permutation and every
    # transvection image still a non-transvection with q + 1 fixed points, so
    # only the generator-pair check on the index sees it
    space, group = sp2
    tmask = group.transvection_mask()
    i, j = np.flatnonzero(tmask)[:2]
    swapped = tau2.index.copy()
    swapped[[i, j]] = swapped[[j, i]]
    assert np.array_equal(np.sort(swapped), np.arange(len(group)))
    assert (_packed.fixed_counts(space.ops, group.keys[swapped[tmask]]) == 3).all()
    assert not tmask[swapped[tmask]].any()

    def swap(images):
        images[[i, j]] = images[[j, i]]

    usable_cores(monkeypatch, 1)
    monkeypatch.setattr(symplectic, "_tau_keys", _corrupt_image_keys(symplectic._tau_keys, swap))
    with pytest.raises(TauConstructionError, match="not a homomorphism on generator pairs") as err:
        build_outer_automorphism(space, group)
    assert err.value.step == "d"
    status = cli_main(["symplectic", "--n", "1"])
    out = capsys.readouterr().out
    assert out.splitlines() == [f"check.tau_step_{s}=PASS" for s in "abc"] + ["check.tau_step_d=FAIL"]
    assert status == 1


def test_tau_homomorphism_failure_is_reported(monkeypatch, capsys):
    # two tau.index entries swapped, at two elements that are neither the
    # identity nor transvections and whose images fix equally many points: the
    # index is still a permutation (step (d) passes) and every table gathered
    # through it is unchanged, so only the exhaustive pair check at q = 2 sees it
    real = symplectic.build_outer_automorphism
    swapped = []

    def swap_two(space, group):
        tau = real(space, group)
        image_fix = _packed.fixed_counts(space.ops, group.keys)[tau.index]
        plain = ~group.transvection_mask()
        plain[0] = False
        i = np.flatnonzero(plain)[0]
        j = np.flatnonzero(plain & (image_fix == image_fix[i]))[1]
        tau.index[[i, j]] = tau.index[[j, i]]
        swapped.append((i, j))
        return tau

    assert cli_main(["symplectic", "--n", "1"]) == 0
    clean = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    monkeypatch.setattr(symplectic, "build_outer_automorphism", swap_two)
    status = cli_main(["symplectic", "--n", "1"])
    out = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert len(swapped) == 1 and swapped[0][0] != swapped[0][1]
    assert [a for a, b in zip(clean, out) if a != b] == ["check.tau_homomorphism_pairs=PASS"]
    assert [line for line in out if line.endswith("=FAIL")] == ["check.tau_homomorphism_pairs=FAIL"]
    assert len(out) == len(clean)
    assert status == 1


def test_tau_tables_gathered_equal_kernel_oracle(sp2, tau2):
    # every tau-side table is the natural one gathered through tau.index;
    # the packed kernels run on the recomputed image keys are the oracle
    space, group = sp2
    ops = space.ops
    images = symplectic._tau_keys(space, tau2.basis_lift, tau2.coords)(group.keys)
    assert np.array_equal(_packed.fixed_counts(ops, images), _packed.fixed_counts(ops, group.keys)[tau2.index])
    assert np.array_equal(transvection_flags(space, images), group.transvection_mask()[tau2.index])
    natural = group.natural_representation()
    assert np.array_equal(_packed.perm_tables(ops, images), natural.perms[tau2.index])


def test_outer_automorphism_is_homomorphism_sampled(sp2, tau2):
    # tau's evaluator on 200 Matrix products against the product of the elements tau.index points at
    space, group = sp2
    ops = space.ops
    a, b = np.random.default_rng(8).integers(0, len(group), size=(2, 200))
    prods = np.stack([(group.matrix(int(x)) * group.matrix(int(y))).A for x, y in zip(a, b)])
    images = ops.matrices_of(symplectic._tau_keys(space, tau2.basis_lift, tau2.coords)(ops.keys_of(prods)))
    for image, x, y in zip(images, tau2.index[a], tau2.index[b]):
        assert Matrix(space.field, image) == group.matrix(x) * group.matrix(y)


def test_tau_rejects_nonsymplectic_input(sp2, tau2):
    space, _ = sp2
    shear = np.array([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.uint8)
    image_keys = symplectic._tau_keys(space, tau2.basis_lift, tau2.coords)
    with pytest.raises(TauConstructionError, match=r"step \(b\)"):
        image_keys(space.ops.keys_of(shear))


def test_build_symplectic_twisted_n1():
    build = build_symplectic_twisted(SymplecticSpace.create(1), check="all")
    r = build.report
    assert (r.delta_tw, r.delta_rep, r.gap) == (20, 16, 4)
    assert r.all_pass()
    code, report = build
    assert (code.size, code.length, code.q) == (720, 30, 15)


def test_transvection_flags_match_scalar(sp2):
    # every element of Sp(4, 2): the 15 transvections and nothing else
    space, group = sp2
    flags = transvection_flags(space, group.keys)
    assert flags.tolist() == [_is_transvection(space, group.matrix(i)) for i in range(len(group))]
    assert int(flags.sum()) == 15 and np.array_equal(group.transvection_mask(), flags)


@pytest.mark.parametrize("cores", [1, 3])
def test_product_index_is_the_matrix_product(monkeypatch, sp2, cores):
    # every element times one element, then random pairs, in blocks of a few rows on `cores` workers
    space, group = sp2
    usable_cores(monkeypatch, cores)
    monkeypatch.setattr(_packed, "ROW_CHUNK", 21)
    x = np.arange(len(group))
    a, b = np.random.default_rng(14).integers(0, len(group), size=(2, 200))
    for got, pairs in [(group.product_index(x, 5), [(i, 5) for i in x]), (group.product_index(a, b), zip(a, b))]:
        prods = np.stack([(group.matrix(int(i)) * group.matrix(int(j))).A for i, j in pairs])
        assert np.array_equal(got, sorted_key_index(group.keys, space.ops.keys_of(prods)))
        assert (got >= 0).all()


def _python_fixed_count(space, g):
    """Fixed 1-space count by pure Python scaling, independent of the
    packed kernels: canonicalise v.g by its leading coefficient."""
    field = space.field
    count = 0
    for pt in points_of(space):
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
    keys = space.ops.keys_of(np.stack([g.A for g in mats]))
    counts = _packed.fixed_counts(space.ops, keys)
    perms = _packed.perm_tables(space.ops, keys)
    dom = points_of(space)
    for idx, g in enumerate(mats):
        assert counts[idx] == _python_fixed_count(space, g)
        for j in (0, 17, 84):
            img = space.field.matmul(np.array(dom[j], dtype=np.uint8).reshape(1, 4), g.A)[0]
            lead = next(int(c) for c in img if c)
            canon = tuple(space.field.mul(space.field.inv(lead), int(c)) for c in img)
            assert dom[int(perms[idx, j])] == canon
