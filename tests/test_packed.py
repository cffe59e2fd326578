"""The packed kernels: the sorted dedup (np.sort plus first_of_runs) against
np.unique, the lookup_sorted reference against a dict, the closure's pinned
canonical order, its independence of the generators and its refusal of a
generator outside the group, the fixed-point
counts, permutation tables and rank-one flags against a scalar count and
Matrix.rank, the key-based kernels against their row-based references
(every key at q = 2, random batches at q = 4), the dense batch_matmul and
batch_matmul_left against a loop of BinaryField.matmul, keys_matmul
against batch_matmul, PackedOps' refusal of fields above GF(4) and the
Sp(4, q) kernels refused through it, the 2^16-entry tables over key
halves at GF(2) and GF(4), and parallel_map, through which the row
kernels and the closure levels run on every usable core."""

import functools
import hashlib
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from twistcode import _packed, codes
from twistcode.fields import BinaryField
from twistcode.linalg import WEDGE_PAIRS, Matrix
from twistcode import symplectic
from twistcode.symplectic import (
    SymplecticSpace,
    TauConstructionError,
    all_transvections,
    build_outer_automorphism,
    build_symplectic_twisted,
    generate_group,
    generators,
    transvection_flags,
)

from oracles import (
    lookup_sorted,
    row_fixed_counts,
    row_perm_tables,
    row_preserves_form,
    row_rank_one_flags,
    row_ranks,
    row_span_ranks,
    transvection,
    usable_cores,
)

# SHA-256 of the closure's key array for Sp(4, 2): canonical order, so the
# same for every generating set
CLOSURE_Q2_DIGEST = "1ad708613e6a328609a6096560f0ce4cbd65ef23ad3b6c320a9ae84f296a5edf"


def assert_matches_unique(keys):
    ranked = np.sort(keys, axis=None)
    got = ranked[_packed.first_of_runs(ranked)]
    want = np.unique(keys)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "keys",
    [
        np.array([], dtype=np.uint32),
        np.array([7], dtype=np.uint64),
        np.full(50, 3, dtype=np.uint16),
        np.arange(100, dtype=np.uint32),
        np.array([[5, 1], [5, 2]], dtype=np.uint32),
    ],
    ids=["empty", "single", "all-equal", "sorted", "2d"],
)
def test_unique_sorted_edge_cases(keys):
    assert_matches_unique(keys)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([np.uint16, np.uint32, np.uint64]).flatmap(
        lambda dt: hnp.arrays(
            dt,
            st.integers(0, 300),
            # a small pool of values forces many duplicates
            elements=st.sampled_from([0, 1, 2, 255, 1 << 15, np.iinfo(dt).max]) | st.integers(0, 40),
        )
    )
)
def test_unique_sorted_equals_np_unique(keys):
    assert_matches_unique(keys)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 60), min_size=1, max_size=30, unique=True),
    st.lists(st.integers(-5, 70), max_size=40),
)
@example([3, 8, 20], [0, 3, 5, 8, 8, 20, 21, 3])  # below, present, between, repeated, above
def test_lookup_sorted_against_dict(ranked, values):
    ranked = np.array(sorted(ranked), dtype=np.uint32)
    position = {int(v): i for i, v in enumerate(ranked)}
    got = lookup_sorted(ranked, np.array(values, dtype=np.int64))
    assert got.tolist() == [position.get(v, -1) for v in values]


@pytest.mark.parametrize("index, want", [
    (np.array([], dtype=np.intp), True),  # the empty permutation
    ([2, 0, 1], True),
    ([0, 1, 3], False),  # out of range
    ([0, -1, 2], False),  # negative
    ([0, 2, 2], False),  # repeated, so 1 is missed
    (np.array([1, 0], dtype=np.uint8), True),
])
def test_is_permutation(index, want):
    assert _packed.is_permutation(np.asarray(index)) is want


@pytest.fixture(scope="module")
def sp42():
    space = SymplecticSpace.create(1)
    return space, all_transvections(space)


# seeds for shuffling the generator list; the values are the case ids this
# test has always had
@pytest.mark.parametrize("seed", [7, 1 << 16])
def test_closure_discovery_order_pinned(sp42, seed):
    space, gens = sp42
    shuffled = gens[np.random.default_rng(seed).permutation(len(gens))]
    levels, keys = _packed.closure(space.ops, shuffled, space.index_block, 720)
    assert len(keys) == 720
    assert hashlib.sha256(keys.tobytes()).hexdigest() == CLOSURE_Q2_DIGEST
    assert levels[0] == 1 and min(levels) > 0 and sum(levels) == 720  # the identity's level, then every new frontier


def test_closure_independent_of_generators(sp42):
    space, gens = sp42
    _, keys = _packed.closure(space.ops, gens, space.index_block, 720)
    _, reversed_gens = _packed.closure(space.ops, gens[::-1], space.index_block, 720)
    _, pair = _packed.closure(space.ops, generators(space), space.index_block, 720)
    assert np.array_equal(reversed_gens, keys)  # a different level order
    assert np.array_equal(pair, keys)
    assert keys[0] == space.ops.identity_key
    assert (keys[2:] > keys[1:-1]).all()


def test_closure_refuses_a_generator_outside_the_group(sp42):
    # I + E_02 sends e1 to e1 + e2, and B(e1 + e2, f2) = 1: not symplectic
    space, gens = sp42
    outside = np.eye(4, dtype=np.uint8)
    outside[0, 2] = 1
    with pytest.raises(ValueError, match="not an element"):
        _packed.closure(space.ops, np.concatenate([gens, outside[None]]), space.index_block, 720)


def test_closure_of_a_subgroup(sp42):
    # the products of two transvections (two transpositions of S6 = Sp(4, 2))
    # generate the index-2 subgroup A6: 360 of the 720 slots are reached
    space, gens = sp42
    pairs = np.stack([space.field.matmul(s, t) for s in gens for t in gens])
    levels, keys = _packed.closure(space.ops, pairs, space.index_block, 720)
    assert len(keys) == sum(levels) == 360
    assert keys[0] == space.ops.identity_key and (keys[2:] > keys[1:-1]).all()
    _, group_keys = _packed.closure(space.ops, gens, space.index_block, 720)
    assert np.isin(keys, group_keys).all()


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_closure_equal_across_core_counts(monkeypatch, sp42, cores):
    # levels of up to 274 keys in blocks of 7 // cores keys, strided over the
    # workers, against one block per level on the calling thread
    space, gens = sp42
    gen_sets = {
        "all_transvections": gens,
        "shuffled": gens[np.random.default_rng(7).permutation(len(gens))],
        "generators": generators(space),
    }
    want = {name: _packed.closure(space.ops, g, space.index_block, 720) for name, g in gen_sets.items()}
    monkeypatch.setattr(_packed, "ROW_CHUNK", 7)
    usable_cores(monkeypatch, cores)
    started = recording_threads(monkeypatch)
    before = threading.active_count()
    for name, g in gen_sets.items():
        levels, keys = _packed.closure(space.ops, g, space.index_block, 720)
        assert levels == want[name][0], name
        assert np.array_equal(keys, want[name][1]), name
        assert hashlib.sha256(keys.tobytes()).hexdigest() == CLOSURE_Q2_DIGEST
    assert bool(started) == (cores > 1)
    # an index that reports the last key as no element fails a level of
    # several blocks, in whichever worker meets it first
    assert want["all_transvections"][0][-2] == 274

    def index_block(keys, out):
        space.index_block(keys, out)
        out[keys == want["all_transvections"][1][-1]] = -1

    with pytest.raises(ValueError, match="not an element"):
        _packed.closure(space.ops, gens, index_block, 720)
    assert threading.active_count() == before


def test_closure_single_block_levels_start_no_thread(monkeypatch, sp42):
    # at q = 2 every level fits one block of ROW_CHUNK // 3 keys
    space, gens = sp42
    usable_cores(monkeypatch, 3)
    started = recording_threads(monkeypatch)
    _, keys = _packed.closure(space.ops, gens, space.index_block, 720)
    assert started == []
    assert hashlib.sha256(keys.tobytes()).hexdigest() == CLOSURE_Q2_DIGEST


@pytest.mark.parametrize("cores", [1, 3])
def test_span_tables_equal_across_core_counts(monkeypatch, cores):
    field = SymplecticSpace.create(1).field
    want = _packed.PackedOps(field).span_tables
    monkeypatch.setattr(_packed, "ROW_CHUNK", 7)
    usable_cores(monkeypatch, cores)
    got = _packed.PackedOps(field).span_tables  # a fresh cache: 2601 sums in blocks of 7 // cores
    assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))


@functools.cache
def space_of(n):
    space = SymplecticSpace.create(n)
    return space, [tuple(int(x) for x in v) for v in space.ops.unpack(space.ops.point_codes)]


def scalar_image(space, points, pt, g):
    """Index of the point <pt . g>, through field.matmul and a scalar
    canonicalisation: scale by the inverse of the leading coefficient.
    None when pt . g = 0 (g singular)."""
    field = space.field
    img = field.matmul(np.array(pt, dtype=np.uint8).reshape(1, 4), g.A)[0]
    lead = next((int(c) for c in img if c), None)
    if lead is None:
        return None
    return points.index(tuple(field.mul(field.inv(lead), int(c)) for c in img))


@st.composite
def transvection_products(draw):
    """(n, matrices): 1-3 products of 1-4 transvections over GF(2^n)."""
    n = draw(st.integers(1, 2))
    q = 1 << n
    space, _ = space_of(n)
    vec = st.lists(st.integers(0, q - 1), min_size=4, max_size=4).filter(any)
    factor = st.tuples(vec, st.integers(1, q - 1))
    words = draw(st.lists(st.lists(factor, min_size=1, max_size=4), min_size=1, max_size=3))
    return n, [functools.reduce(Matrix.__mul__, [transvection(space, *f) for f in word]) for word in words]


@settings(max_examples=30, deadline=None)
@given(transvection_products())
def test_point_image_kernels_against_scalar_count(case):
    n, mats = case
    space, points = space_of(n)
    m = len(points)
    keys = space.ops.keys_of(np.stack([g.A for g in mats]))
    perms = _packed.perm_tables(space.ops, keys)
    assert perms.shape == (len(mats), m) and perms.flags.c_contiguous
    for g, perm in zip(mats, perms):
        assert perm.tolist() == [scalar_image(space, points, pt, g) for pt in points]
    assert np.array_equal(_packed.fixed_counts(space.ops, keys), (perms == np.arange(m)).sum(axis=1))


@st.composite
def arbitrary_matrices(draw):
    """(n, matrices): 1-4 arbitrary 4 x 4 matrices over GF(2^n), q <= 4 (the
    rank kernels' range), each either unconstrained, with some rows zeroed,
    of rank at most k (a 4 x k times a k x 4 product), or a scalar matrix
    lam I (lam = 0 included)."""
    n = draw(st.integers(1, 2))
    field = space_of(n)[0].field
    entry = st.integers(0, field.order - 1)

    def block(rows, cols):
        return np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)), dtype=np.uint8).reshape(rows, cols)

    mats = []
    for kind in draw(st.lists(st.sampled_from(["any", "zero_rows", "low_rank", "scalar"]), min_size=1, max_size=4)):
        if kind == "scalar":
            A = draw(entry) * np.eye(4, dtype=np.uint8)
        elif kind == "low_rank":
            k = draw(st.integers(1, 3))
            A = field.matmul(block(4, k), block(k, 4))
        else:
            A = block(4, 4)
            if kind == "zero_rows":
                A[draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))] = 0
        mats.append(A.astype(np.uint8))
    return n, mats


@settings(max_examples=80, deadline=None)
@given(arbitrary_matrices())
def test_rank_kernels_on_arbitrary_matrices(case):
    # fixed_counts from eigenspace ranks against point images, and the
    # rank-one flags against exact elimination, singular matrices included
    n, mats = case
    space, points = space_of(n)
    keys = space.ops.keys_of(np.stack(mats))
    counts = _packed.fixed_counts(space.ops, keys)
    flags = _packed.rank_one_flags(space.ops, keys)
    for A, count, flag in zip(mats, counts, flags):
        g = Matrix(space.field, A)
        assert count == sum(j == scalar_image(space, points, pt, g) for j, pt in enumerate(points))
        assert flag == (g.rank() == 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_keys_matmul_equals_batch_matmul(n, size, seed):
    field = BinaryField(n)
    ops = _packed.PackedOps(field)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, field.order, size=(size, 4, 4), dtype=np.uint8)
    B = rng.integers(0, field.order, size=(size, 4, 4), dtype=np.uint8)
    got = _packed.keys_matmul(ops, ops.keys_of(A), ops.keys_of(B))
    assert got.shape == (size,) and got.dtype == ops.key_dtype
    assert np.array_equal(got, ops.keys_of(_packed.batch_matmul(field.mul_table, A, B)))


@st.composite
def batch_operands(draw):
    """(field, A, B, C) for the dense kernels: A an (N, r, s) batch, B a
    fixed (s, t) matrix or an (N, s, t) batch, C a fixed (r, s) matrix; each
    operand is drawn as a transposed, non-contiguous view or not."""
    field = BinaryField(draw(st.integers(1, 4)))
    size = draw(st.sampled_from([0, 1]) | st.integers(0, 40))
    r, s, t = (draw(st.integers(1, 6)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(*shape):
        if draw(st.booleans()):  # drawn with its last two axes swapped, then swapped back
            swapped = shape[:-2] + (shape[-1], shape[-2])
            return rng.integers(0, field.order, size=swapped, dtype=np.uint8).swapaxes(-1, -2)
        return rng.integers(0, field.order, size=shape, dtype=np.uint8)

    B = operand(s, t) if draw(st.booleans()) else operand(size, s, t)
    return field, operand(size, r, s), B, operand(r, s)


def matmul_loop(field, lefts, rights, shape):
    out = np.zeros(shape, dtype=np.uint8)
    for i, (X, Y) in enumerate(zip(lefts, rights)):
        out[i] = field.matmul(X, Y)
    return out


@settings(max_examples=200, deadline=None)
@given(batch_operands())
def test_batch_matmul_kernels_against_field_matmul(case):
    # the dense tau kernels against a per-matrix loop of BinaryField.matmul
    field, A, B, C = case
    mul = field.mul_table
    size, r, s = A.shape
    t = B.shape[-1]
    fixed = B.ndim == 2
    got = _packed.batch_matmul(mul, A, B)
    assert got.dtype == np.uint8
    assert np.array_equal(got, matmul_loop(field, A, [B] * size if fixed else B, (size, r, t)))
    if not fixed:
        got = _packed.batch_matmul_left(mul, C, B)
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        assert np.array_equal(got, matmul_loop(field, [C] * size, B, (size, r, t)))


def test_batch_matmul_left_does_not_call_batch_matmul(monkeypatch):
    # a wrapping tracer counts one span per kernel call, so batch_matmul_left
    # must not reach the public batch_matmul
    field = BinaryField(2)
    rng = np.random.default_rng(7)
    C = rng.integers(0, 4, size=(4, 6), dtype=np.uint8)
    B = rng.integers(0, 4, size=(30, 6, 6), dtype=np.uint8)
    want = _packed.batch_matmul_left(field.mul_table, C, B)

    def refuse(*args):
        raise AssertionError("batch_matmul called")

    monkeypatch.setattr(_packed, "batch_matmul", refuse)
    assert np.array_equal(_packed.batch_matmul_left(field.mul_table, C, B), want)


def refused_with_small_peak(build, match):
    """build() raises ValueError matching `match` while tracemalloc's peak
    stays under 1 MiB: refused before the table is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [3, 4])
def test_packed_ops_refuse_above_q4(n):
    # four packed rows over GF(8) or GF(16) do not fit one uint32 key: refused
    # before any table is built, so no table over two packed rows (q^8
    # entries) exceeds 2^16 entries
    field = BinaryField(n)
    refused_with_small_peak(lambda: _packed.PackedOps(field), "32-bit key")


@pytest.mark.parametrize("n", [3, 4])
def test_space_kernels_refuse_above_q4(n):
    # the form, index and tau image tables over two packed rows (q^8 entries
    # at q = 8 and 16) hold no guard of their own: each kernel reads
    # space.ops first, so PackedOps refuses it before any table is built
    space = SymplecticSpace.create(n)
    keys = np.zeros(4, dtype=np.uint32)
    lift = symplectic._wedge_rows(WEDGE_PAIRS[:4])
    coords = np.eye(6, dtype=np.uint8)
    refused_with_small_peak(lambda: symplectic._preserves_form(space, keys), "32-bit key")
    refused_with_small_peak(lambda: space.index_block(keys, np.empty(4, dtype=np.int32)), "32-bit key")
    refused_with_small_peak(lambda: symplectic._tau_keys(space, lift, coords), "32-bit key")


@pytest.mark.parametrize("n", [1, 2])
def test_key_halves_index_tables_within_2_16(n):
    # GF(2) and GF(4): the all-(q - 1) matrix's key fills exactly 16 n <= 32
    # bits of a uint32 and round-trips, and each key half r0||r1 or r2||r3
    # indexes a table of ncodes^2 <= 2^16 entries
    space = SymplecticSpace.create(n)
    ops, q = space.ops, space.q
    full = np.full((1, 4, 4), q - 1, dtype=np.uint8)
    key = ops.keys_of(full)
    assert key.dtype == np.uint32 and int(key[0]) == (1 << 16 * n) - 1
    assert np.array_equal(ops.matrices_of(key), full)
    pair, _, last, _ = space.index_tables
    for table in (ops.span_tables[0], pair, last):
        assert table.size == ops.ncodes**2 <= 1 << 16
    assert int(key[0]) >> 2 * ops.row_bits == int(key[0]) & (ops.ncodes**2 - 1) == ops.ncodes**2 - 1


def assert_key_kernels_equal_row_references(ops, keys):
    """Every key-based kernel on `keys` against its row-based reference in
    tests/oracles.py on the unpacked rows."""
    rows = ops.unpack_keys(keys)
    ranks = row_ranks(ops, rows)
    assert np.array_equal(_packed._ranks(ops, keys), ranks)
    assert np.array_equal(_packed._span_ranks(ops, keys), ranks)
    assert np.array_equal(row_span_ranks(ops, rows), ranks)
    space = SymplecticSpace(ops.field)
    assert np.array_equal(symplectic._preserves_form(space, keys), row_preserves_form(ops, rows))
    assert np.array_equal(_packed.fixed_counts(ops, keys), row_fixed_counts(ops, rows))
    for offset in (ops.identity_key, keys[len(keys) // 2]):
        want = row_rank_one_flags(ops, rows, ops.unpack_keys(np.array([offset])))
        assert np.array_equal(_packed.rank_one_flags(ops, keys, offset), want)
    assert np.array_equal(_packed.perm_tables(ops, keys), row_perm_tables(ops, rows))


def test_key_kernels_exhaustive_q2():
    # all 2^16 keys of 4 x 4 matrices over GF(2): every pair_span entry and
    # every sum_rank entry is read
    ops = _packed.PackedOps(BinaryField(1))
    assert_key_kernels_equal_row_references(ops, np.arange(ops.ncodes**4, dtype=np.uint32))
    pair_span, sum_rank = ops.span_tables
    assert sum_rank.shape == (51, 51)  # 1 + 15 + 35 subspaces of dimension <= 2 in GF(2)^4
    assert pair_span[0] == 0 and sum_rank[0, 0] == 0


@pytest.mark.parametrize("n", [1, 2])
def test_fixed_counts_into_narrow_out(n):
    # the builder's table type np.min_scalar_type(m), uint8 at q = 2 and 4,
    # against the int16 default: every 4 x 4 matrix over GF(2); at q = 4
    # every lam I (lam = 1 fixes all m points) and uniform matrices
    ops = _packed.PackedOps(BinaryField(n))
    q, m = ops.field.order, len(ops.point_codes)
    if n == 1:
        keys = np.arange(ops.ncodes**4, dtype=np.uint32)
    else:
        scalars = ops.keys_of(np.arange(1, q)[:, None, None] * np.eye(4, dtype=np.uint8))
        uniform = np.random.default_rng(5).integers(0, ops.ncodes**4, size=1 << 16, dtype=np.uint32)
        keys = np.concatenate([scalars, uniform])
    want = _packed.fixed_counts(ops, keys)
    assert want.dtype == np.int16 and want.max() == m
    out = np.empty(len(keys), dtype=np.min_scalar_type(m))
    assert _packed.fixed_counts(ops, keys, out=out) is out
    assert out.dtype == np.uint8 and np.array_equal(out, want)


@pytest.mark.parametrize("n, dtype", [(1, np.bool_), (1, np.float32), (2, np.bool_), (2, np.float64)])
def test_fixed_counts_refuses_a_non_integer_out(n, dtype):
    # an out that is not an integer array is refused before any block
    # writes to it; every integer dtype holds m (85 at q = 4)
    ops = _packed.PackedOps(BinaryField(n))
    keys = ops.keys_of(np.eye(4, dtype=np.uint8)[None])
    out = np.ones(len(keys), dtype=dtype)
    with pytest.raises(ValueError, match="integer out array"):
        _packed.fixed_counts(ops, keys, out=out)
    assert (out == 1).all()


@pytest.mark.parametrize("n", [2])
def test_key_kernels_on_random_batches(n):
    # q = 4: uniform matrices, products of rank <= k, I plus a rank-one
    # product, and every lam I
    field = BinaryField(n)
    ops = _packed.PackedOps(field)
    q, mul = field.order, field.mul_table
    rng = np.random.default_rng(20 + n)
    eye = np.eye(4, dtype=np.uint8)

    def entries(*shape):
        return rng.integers(0, q, size=shape, dtype=np.uint8)

    low = [_packed.batch_matmul(mul, entries(60, 4, k), entries(60, k, 4)) for k in (1, 2, 3)]
    scalars = np.arange(q, dtype=np.uint8)[:, None, None] * eye
    keys = ops.keys_of(np.concatenate([entries(60, 4, 4), *low, low[0] ^ eye, scalars]))
    assert keys.dtype == ops.key_dtype == np.uint32
    assert_key_kernels_equal_row_references(ops, keys)


@st.composite
def low_pairs_q4(draw):
    """Packed r2||r3 over GF(4): random rows, zero rows, and a row with a
    scalar multiple of itself or of a unit vector."""
    ops = _packed.PackedOps(BinaryField(2))
    row = st.integers(0, ops.ncodes - 1)
    pairs = []
    for kind in draw(st.lists(st.sampled_from(["any", "zero", "multiple", "unit"]), min_size=1, max_size=6)):
        r2 = draw(row)
        if kind == "zero":
            r2, r3 = draw(st.sampled_from([(0, 0), (r2, 0), (0, r2)]))
        elif kind == "multiple":
            r3 = int(ops.smul[draw(st.integers(0, 3)), r2])
        elif kind == "unit":
            r3 = int(ops.smul[draw(st.integers(1, 3)), 1 << ops.shifts[draw(st.integers(0, 3))]])
        else:
            r3 = draw(row)
        pairs.append((r2 << ops.row_bits) | r3)
    return pairs


@settings(max_examples=25, deadline=None)
@given(low_pairs_q4())
@example([0, 1, 0x1100, 0xFF00, 0x00FF])
def test_span_ranks_q4_against_elimination(low):
    # every r0||r1 over GF(4), against drawn r2||r3
    ops = _packed.PackedOps(BinaryField(2))
    high = np.arange(ops.ncodes**2, dtype=np.uint32)[:, None] << 2 * ops.row_bits
    keys = (high | np.array(low, dtype=np.uint32)).ravel()
    assert np.array_equal(_packed._span_ranks(ops, keys), row_ranks(ops, ops.unpack_keys(keys)))
    assert ops.span_tables[1].shape == (443, 443)  # 1 + 85 + 357 subspaces of dimension <= 2 in GF(4)^4


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5]), st.integers(0, 50), st.integers(0, 2**32 - 1))
def test_exterior_square_equals_minor_formula(n, size, seed):
    # the one-gather minor table against g_ik g_jl ^ g_il g_jk from mul; at
    # q = 32 its index abcd needs 20 bits
    field = BinaryField(n)
    mul = field.mul_table
    mats = np.random.default_rng(seed).integers(0, field.order, size=(size, 4, 4), dtype=np.uint8)
    got = _packed.batch_exterior_square(mul, mats, WEDGE_PAIRS)
    assert got.shape == (size, 6, 6) and got.dtype == np.uint8
    for a, (i, j) in enumerate(WEDGE_PAIRS):
        for b, (k, l) in enumerate(WEDGE_PAIRS):
            want = mul[mats[:, i, k], mats[:, j, l]] ^ mul[mats[:, i, l], mats[:, j, k]]
            assert np.array_equal(got[:, a, b], want)


@pytest.fixture(scope="module")
def sp42_tau():
    space = SymplecticSpace.create(1)
    group = generate_group(space)
    return space, group, build_outer_automorphism(space, group)


def threaded_outputs(space, group, tau):
    """The output of every kernel that runs its rows through parallel_map,
    on the 720 elements of Sp(4, 2)."""
    ops = space.ops
    ident = ops.identity_key
    queries = np.concatenate([group.keys[::-1], group.keys[:50] + 1])  # unsorted, some absent
    return {
        "fixed_counts": _packed.fixed_counts(ops, group.keys),
        "rank_one_flags": _packed.rank_one_flags(ops, group.keys, ident),
        "rank_one_flags of the sums": _packed.rank_one_flags(ops, group.keys ^ ident),
        "transvection_flags": transvection_flags(space, group.keys),
        "_preserves_form": symplectic._preserves_form(space, group.keys),
        # _tau_keys and index_block on each row block
        "OuterAutomorphism.index": symplectic.OuterAutomorphism(space, group, tau.basis_lift, tau.coords).index,
        "perm_tables": _packed.perm_tables(ops, group.keys),
        "indices_of_keys": group.indices_of_keys(queries),
        # the same, and step (d)'s 225 generator pairs
        "tau.index": build_outer_automorphism(space, group).index,
        "_check_tau_homomorphism": symplectic._check_tau_homomorphism(space, group, tau, np.random.default_rng(3), 200),
    }


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_threaded_kernels_equal_across_core_counts(monkeypatch, sp42_tau, cores):
    # blocks of 7 // cores rows, strided over the workers, against one block on the calling thread
    monkeypatch.setattr(codes, "EXHAUSTIVE_PAIR_LIMIT", 0)  # 200 sampled tau pairs, not all 518,400
    want = threaded_outputs(*sp42_tau)
    assert want["_check_tau_homomorphism"] == (True, "200/518400")
    assert np.array_equal(want["rank_one_flags"], want["rank_one_flags of the sums"])  # offset XORs each row
    monkeypatch.setattr(_packed, "ROW_CHUNK", 7)
    usable_cores(monkeypatch, cores)
    before = threading.active_count()
    got = threaded_outputs(*sp42_tau)
    for name, value in want.items():
        assert np.array_equal(got[name], value) if isinstance(value, np.ndarray) else got[name] == value, name
    assert threading.active_count() == before


def recording_threads(monkeypatch):
    """Patch threading.Thread so every thread parallel_map starts is recorded."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(_packed.threading, "Thread", Recorded)
    return started


def test_parallel_map_workers(monkeypatch):
    usable_cores(monkeypatch, 3)
    started = recording_threads(monkeypatch)
    before = threading.active_count()
    # no block or one block: the calling thread runs it and no worker starts
    assert _packed.parallel_map(lambda b: 2 * b, []) == []
    assert _packed.parallel_map(lambda b: 2 * b, [5]) == [10]
    assert not started
    # two blocks: one worker beside the calling thread
    assert _packed.parallel_map(lambda b: 2 * b, [5, 6]) == [10, 12]
    assert len(started) == 1
    # ten blocks: results in block order, block i run by worker i % 3, the caller being worker 0
    started.clear()
    runs = _packed.parallel_map(lambda b: (b, threading.current_thread()), range(10))
    assert [b for b, _ in runs] == list(range(10)) and len(started) == 2
    assert {t for b, t in runs if b % 3 == 0} == {threading.current_thread()}
    assert {t for b, t in runs if b % 3 == 1} == {started[0]} and {t for b, t in runs if b % 3 == 2} == {started[1]}
    assert threading.active_count() == before


@pytest.mark.parametrize("cores", [2, 3])
def test_parallel_map_raises_once_workers_are_joined(monkeypatch, cores):
    # the calling thread's block 0 fails at once; the worker's block 1 is
    # still running, and has finished by the time the caller sees the error
    usable_cores(monkeypatch, cores)
    before = threading.active_count()
    finished = []

    def body(b):
        if b == 0:
            raise RuntimeError("block 0")
        time.sleep(0.05)
        finished.append(b)

    with pytest.raises(RuntimeError, match="block 0"):
        _packed.parallel_map(body, range(cores))
    assert sorted(finished) == list(range(1, cores))
    assert threading.active_count() == before


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_parallel_map_raises_lowest_failing_block(monkeypatch, cores):
    # blocks 2, 3 and 7 fail; block 3 (a worker's, at 2 cores) fails first,
    # yet block 2's exception is raised, as a serial loop would raise it,
    # and every block below it ran
    usable_cores(monkeypatch, cores)
    before = threading.active_count()
    three_failed = threading.Event()
    ran = []

    def body(b):
        ran.append(b)
        if b == 2:
            three_failed.wait(timeout=0.2)  # on one core, block 3 never runs first
            raise ValueError("block 2")
        if b in (3, 7):
            three_failed.set()
            raise ValueError(f"block {b}")
        return b

    with pytest.raises(ValueError, match="^block 2$"):
        _packed.parallel_map(body, range(9))
    assert {0, 1, 2} <= set(ran) and 8 not in ran
    assert threading.active_count() == before


def test_parallel_map_stress(monkeypatch):
    # more workers than cores, switched as often as the interpreter allows:
    # every result lands in its block's slot, and of the failing blocks
    # the lowest one's exception is raised, every block below it having run
    usable_cores(monkeypatch, 5)
    rng = np.random.default_rng(11)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _packed.parallel_map(lambda b: b * b, range(300)) == [b * b for b in range(300)]
        for _ in range(20):
            failing = set(rng.choice(300, size=5, replace=False).tolist())
            ran = set()

            def body(b):
                ran.add(b)
                if b in failing:
                    raise ValueError(b)

            with pytest.raises(ValueError) as err:
                _packed.parallel_map(body, range(300))
            assert err.value.args == (min(failing),) and set(range(min(failing) + 1)) <= ran
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


def test_tau_step_b_failure_in_a_worker_block(monkeypatch):
    # coords whose complement column also reads the w coordinate fail step
    # (b) at Sp(4, 2) row 13, in block 3 of 4 elements (two rows each in
    # OuterAutomorphism's blocks): a worker's at 2 cores
    real = symplectic._tau_keys

    def corrupted(space, basis_lift, coords):
        bad = coords.copy()
        bad[:, 5] ^= coords[:, 4]
        return real(space, basis_lift, bad)  # the image table is built from bad

    made_in = {}
    real_init = TauConstructionError.__init__

    def init(self, step, message):
        made_in[id(self)] = threading.current_thread()
        real_init(self, step, message)

    monkeypatch.setattr(symplectic, "_tau_keys", corrupted)
    monkeypatch.setattr(TauConstructionError, "__init__", init)
    errors = []
    for cores, chunk in ((1, _packed.ROW_CHUNK), (2, 16)):
        with pytest.MonkeyPatch.context() as mp:
            usable_cores(mp, cores)
            mp.setattr(_packed, "ROW_CHUNK", chunk)
            before = threading.active_count()
            with pytest.raises(TauConstructionError, match="invariant 5-space") as err:
                build_symplectic_twisted(SymplecticSpace.create(1))
            assert threading.active_count() == before
        errors.append(err.value)
    serial, threaded = errors
    assert made_in[id(serial)] is threading.main_thread()
    assert made_in[id(threaded)] is not threading.main_thread()
    assert threaded.step == serial.step == "b"
    assert threaded.checks == serial.checks == {"tau_step_a": True, "tau_step_b": False}
