"""The symplectic family: Sp(4, q) for q = 2^n, generated by transvections
and acting on the q^3+q^2+q+1 projective 1-spaces, together with an outer
automorphism realised through the exterior square and the 2-fold twisted
code (identity, outer) it yields.

The outer automorphism follows the classical characteristic-2 construction:
the exterior square of F^4 carries an invariant vector w (the form
vector) and an invariant pairing; the action induced on the 4-dimensional
quotient (w-perp)/<w>, written in the symplectic basis QUOTIENT_BASIS of
the quotient, is again Sp(4, q) but sends transvections to elements with
only q+1 fixed 1-spaces.  Every step of that construction is
machine-checked at build time and the builder raises naming the failed
step otherwise.
"""

from __future__ import annotations

from functools import cached_property, reduce

import numpy as np

from . import _packed
from ._packed import PackedOps, batch_matmul, batch_matmul_left, batch_exterior_square
from .codes import Representation, check_delta_formulas, finish_build, sample_pairs, support_scan
from .fields import BinaryField
from .linalg import Matrix, WEDGE_PAIRS
from .report import BuildRecord, coverage_value

GRAM = np.array(
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.uint8
)  # basis order (e1, f1, e2, f2); hyperbolic pairs (e1,f1) and (e2,f2)

# Per n, two words in all_transvections(space), multiplied left to right,
# whose products generate Sp(4, 2^n).  Fixed here, not drawn at run time, so
# the generators do not depend on the numpy version.  Odd lengths: words
# of even length lie in the index-2 subgroup A6 of Sp(4, 2) = S6.
GENERATOR_WORDS = {
    1: ((6, 1, 3, 10, 8, 14, 10), (7, 12, 6, 2, 8, 10, 9)),
    2: ((202, 128, 115, 56, 77, 196, 239), (246, 110, 41, 15, 33, 22, 163)),
}
# The quotient (w-perp)/<w> of the exterior square, w = e1^f1 + e2^f2, in
# wedge pairs of WEDGE_PAIRS: a basis lift e1^e2, f1^f2, e1^f2, f1^e2 in
# GRAM's hyperbolic order (the same rows for every q = 2^n), and e1^f1,
# which completes it and w to a basis.  build_outer_automorphism verifies
# both in steps (b) and (c).
QUOTIENT_BASIS = ((0, 2), (1, 3), (0, 3), (1, 2))
QUOTIENT_COMPLEMENT = (0, 1)
HOM_SAMPLES = 100_000  # sampled pairs of the tau-homomorphism check above q = 2
TAU_STEPS = ("a", "b", "c", "d")  # the verification steps of build_outer_automorphism


class TauConstructionError(RuntimeError):
    """A verification step of the outer-automorphism construction failed;
    `step` names it (one of TAU_STEPS), and `checks` holds the tau_step_*
    outcomes: the steps before it True, the failed step False."""

    def __init__(self, step, message):
        super().__init__(f"step ({step}): {message}")
        self.step = step
        self.checks = {f"tau_step_{s}": s != step for s in TAU_STEPS[: TAU_STEPS.index(step) + 1]}


def sp4_order(q):
    return q**4 * (q * q - 1) * (q**4 - 1)


class SymplecticSpace:
    """F^4 over GF(2^n) with the standard alternating form."""

    def __init__(self, field: BinaryField):
        self.field = field
        self.q = field.order
        self.n = field.n

    @classmethod
    def create(cls, n):
        return cls(BinaryField(n))

    @cached_property
    def ops(self) -> PackedOps:
        return PackedOps(self.field)

    @cached_property
    def index_tables(self):
        """(pair, perp, last, identity) for index_block.  An element's rows
        are an ordered symplectic basis (B(r0, r1) = B(r2, r3) = 1, r2 and r3
        in P = <r0, r1>-perp), and counting those bases (Taylor, The Geometry
        of the Classical Groups, 1992) ranks it in ascending key order as
        pair[r0||r1] + perp[s, r2] + last[r2||r3], s the span id of r0||r1
        (ops.span_tables).  The int32 tables, read flat, hold pair = ((r0 - 1)
        q^3 + #{v < r1 : B(r0, v) = 1}) q (q^2 - 1), perp = q #{w in P : 0 <
        w < r2} and last = #{c : r3 + c r2 < r3}, and -N where an entry breaks
        its condition, so any sum with it is negative; identity is the
        identity's rank.  B comes from a form table of its own, not
        _preserves_form's."""
        ops, q = self.ops, self.q
        size = ops.ncodes**2
        missing = -sp4_order(q)
        codes = np.arange(ops.ncodes, dtype=np.uint32)
        gram_rows = ops.unpack(ops.rmul_table(GRAM))  # the entries of u . GRAM
        form = np.bitwise_xor.reduce(self.field.mul_table[gram_rows[:, None], ops.unpack(codes)], axis=2)  # B(u, v)
        hyperbolic = form == 1
        before = np.cumsum(hyperbolic, axis=1, dtype=np.int32) - hyperbolic  # #{v < r1 : B(r0, v) = 1}
        pair = np.where(hyperbolic, ((codes[:, None].astype(np.int32) - 1) * q**3 + before) * q * (q * q - 1), missing)
        pair_span = ops.span_tables[0]
        spans = np.empty(int(pair_span.max()) + 1, dtype=np.uint32)
        spans[pair_span] = np.arange(size, dtype=np.uint32)  # a pair spanning each span
        inside = (form[spans >> ops.row_bits] == 0) & (form[spans & (ops.ncodes - 1)] == 0)
        inside[:, 0] = False
        perp = np.where(inside, (np.cumsum(inside, axis=1, dtype=np.int32) - inside) * q, missing)
        behind = np.count_nonzero(ops.smul[1:, :, None] ^ codes < codes, axis=0).astype(np.int32)  # c r2 + r3 < r3
        last = np.where(hyperbolic, behind, missing)
        high, low = divmod(int(ops.identity_key), size)
        return pair, perp, last, int(pair.flat[high] + perp[pair_span[high], low >> ops.row_bits] + last.flat[low])

    def index_block(self, keys, out):
        """Element index of each key of a block into out (int32), -1 where no
        element has it: the rank of index_tables (perp read at r3 too, for
        its sign), the identity moved to index 0 and the elements below it
        up by one.  Workers may call it once index_tables is built."""
        pair, perp, last, identity = self.index_tables
        ops = self.ops
        high, low = keys >> 2 * ops.row_bits, keys & (ops.ncodes**2 - 1)
        np.take(pair, high, out=out)
        span = np.take(ops.span_tables[0], high) << ops.row_bits
        out += np.take(perp, span | (low >> ops.row_bits))
        out += np.take(last, low)
        outside = np.take(perp, span | (low & (ops.ncodes - 1)))
        out += np.minimum(outside, 0, out=outside)
        is_identity = out == identity
        out += out.view(np.uint32) < identity  # the elements below the identity; a negative rank is above it
        out[is_identity] = 0
        np.maximum(out, -1, out=out)

    @property
    def num_points(self):
        q = self.q
        return q**3 + q**2 + q + 1

    def __repr__(self):
        return f"SymplecticSpace(q={self.q}, poly={self.field.poly:#b})"


class SymplecticGroup:
    """Enumerated Sp(4, q), stored only as its elements' keys (each packs
    the element's four packed rows, which the kernels read off it as
    fields; matrices_of unpacks them), in the order SymplecticSpace.index_block
    ranks them: the identity's first, then strictly ascending (so distinct)."""

    def __init__(self, space, keys):
        if keys[0] != space.ops.identity_key:
            raise ValueError("identity must sit at index 0")
        rest, n = keys[1:], sp4_order(space.q)
        if len(keys) != n or (rest[1:] <= rest[:-1]).any() or keys[0] in rest:
            raise ValueError(f"keys must be the identity's, then the other {n - 1} elements strictly ascending")
        self.space = space
        self.keys = keys
        self._trans = None
        space.index_tables  # index_block's tables, and the ops.smul they read, built before any worker reads them

    def __len__(self):
        return len(self.keys)

    def matrix(self, i) -> Matrix:
        return Matrix(self.space.field, self.space.ops.matrices_of(self.keys[i : i + 1])[0])

    def indices_of_keys(self, keys):
        """Element index of each key in an array, as int32, -1 where no
        element has it: SymplecticSpace.index_block on each block of
        queries (row_blocks, on every usable core)."""
        pos = np.empty(len(keys), dtype=np.int32)
        _packed.parallel_map(lambda sl: self.space.index_block(keys[sl], pos[sl]), _packed.row_blocks(len(keys)))
        return pos

    def product_index(self, a, b):
        """Element index of each product g_a g_b (index arrays, or one index
        broadcast against the other), -1 where the group lacks it:
        index_products on row_blocks, on every usable core."""
        a, b = np.broadcast_arrays(a, b)
        pos = np.empty(len(a), dtype=np.int32)
        _packed.parallel_map(lambda sl: self.index_products(a[sl], b[sl], pos[sl]), _packed.row_blocks(len(pos)))
        return pos

    def index_products(self, a, b, out):
        """product_index of one block of index pairs into out: keys_matmul on
        the keys, then SymplecticSpace.index_block."""
        self.space.index_block(_packed.keys_matmul(self.space.ops, self.keys[a], self.keys[b]), out)

    def transvection_mask(self):
        """Per-element decision rule: g != I, rank(g - I) = 1, (g - I)^2 = 0."""
        if self._trans is None:
            self._trans = transvection_flags(self.space, self.keys)
        return self._trans

    def natural_representation(self) -> Representation:
        perms = _packed.perm_tables(self.space.ops, self.keys)
        return Representation(self, perms)


def transvection_flags(space, rows):
    """Vectorised transvection test for the matrices whose keys are `rows`:
    difference from the identity has rank 1 and squares to zero."""
    ops = space.ops
    ident = ops.identity_key
    flags = _packed.rank_one_flags(ops, rows, ident)
    diff = rows[flags] ^ ident  # the rank-one differences only
    flags[flags] = _packed.keys_matmul(ops, diff, diff) == 0
    return flags


def all_transvections(space):
    """(T, 4, 4) matrices of every transvection: canonical directions times
    nonzero scalars, in (direction, scalar) lexicographic order.  The one
    for direction v and scalar lam is I + lam B(e_i, v) v_j, entry (i, j)."""
    mul = space.field.mul_table
    v = space.ops.unpack(space.ops.point_codes)[:, None, :]
    col = np.bitwise_xor.reduce(mul[GRAM, v], axis=2)  # B(e_i, v)
    scaled = mul[np.arange(1, space.q)[:, None], col[:, None, :]]  # (directions, scalars, 4)
    return (np.eye(4, dtype=np.uint8) ^ mul[scaled[..., None], v[:, None]]).reshape(-1, 4, 4)


def _preserves_form(space, keys):
    """Per-element g . Gram . g^T == Gram for the matrices with these keys.

    B(g_i, g_j) is one gather from the table of B(u, v) over packed u || v
    (ncodes^2 entries).  Only i < j is compared: g . Gram . g^T is
    alternating (characteristic 2), so its diagonal is zero and it is
    symmetric.  On every usable core, the six row pairs of each block of
    keys read off their fields (PackedOps.row_pair)."""
    ops = space.ops
    size = ops.ncodes**2
    uv = np.arange(size, dtype=np.uint32)
    u = ops.unpack(uv >> ops.row_bits)
    v = ops.unpack(uv & (ops.ncodes - 1))
    mul = space.field.mul_table
    form = np.zeros(size, dtype=np.uint8)
    for i, j in zip(*np.nonzero(GRAM)):
        form ^= mul[u[:, i], v[:, j]]
    ok = np.ones(len(keys), dtype=bool)

    def check(sl):
        for i, j in WEDGE_PAIRS:
            ok[sl] &= np.take(form, ops.row_pair(keys[sl], i, j)) == GRAM[i, j]

    _packed.parallel_map(check, _packed.row_blocks(len(keys)))
    return ok


def generators(space):
    """(2, 4, 4) matrices of the recorded generator pair (GENERATOR_WORDS);
    refuses an n without one."""
    words = GENERATOR_WORDS.get(space.n)
    if words is None:
        raise ValueError(
            f"|Sp(4,2^{space.n})| = {sp4_order(space.q)}: no recorded generator pair "
            f"for n={space.n} (enumerated: n in {sorted(GENERATOR_WORDS)})"
        )
    trans = all_transvections(space)
    return np.stack([reduce(space.field.matmul, trans[list(word)]) for word in words])


def generate_group(space) -> SymplecticGroup:
    """Closure of the recorded generator pair, in canonical key order
    (identity first, then ascending key); refuses an n without a recorded
    pair before anything is enumerated and raises unless every product is
    an element (index_block) and the closure has sp4_order(q) elements.
    Form preservation is checked by build_symplectic_twisted
    (check.form_preserved); with the distinct keys and the order it proves
    that the closure is Sp(4, q)."""
    gens = generators(space)
    expected = sp4_order(space.q)
    _, keys = _packed.closure(space.ops, gens, space.index_block, expected)
    if len(keys) != expected:
        raise RuntimeError(f"closure produced {len(keys)} elements, expected {expected}")
    return SymplecticGroup(space, keys)


class OuterAutomorphism:
    """tau as a permutation of the enumerated group, tau(g_i) = g_index[i],
    so a per-element table of tau(g) is the group's own one gathered
    through index; kept with the change-of-basis data (quotient basis lift
    and coordinate matrix) from which _tau_keys, tau's one evaluator,
    builds its image table.  index is filled in row_blocks of two rows per
    element, on every usable core: each block's image keys come off that
    table and are indexed at once (SymplecticSpace.index_block),
    so no array of N image keys is built."""

    def __init__(self, space, group, basis_lift, coords):
        self.space = space
        self.basis_lift = basis_lift  # (4, 6): lifted quotient basis rows
        self.coords = coords  # (6, 6): inverse of [basis_lift; w; complement]
        image_keys = _tau_keys(space, basis_lift, coords)
        self.index = np.empty(len(group), dtype=np.int32)
        # at one row per element, the heap top each 65,536-element block frees on
        # one core was trimmed and faulted back in by the next: 17k page faults at
        # Sp(4, 4), against 1k at two
        _packed.parallel_map(
            lambda sl: space.index_block(image_keys(group.keys[sl]), self.index[sl]), _packed.row_blocks(len(group), 2)
        )


def _tau_keys(space, basis_lift, coords):
    """The function from a block of keys to the keys of their images under
    tau.  Each basis_lift row must be the unit wedge row of a pair (i, j)
    (refused before any table is built), so row r of an image is row (i, j)
    of the exterior square in coords, (g_i ^ g_j) . coords: its first four
    entries are the image row, and its complement coordinate (entry 5)
    must vanish or the invariant 5-space is not invariant (step (b)).  A
    q^8-entry table over packed u || v holds the packed row (u ^ v) .
    coords[:, :4] with (u ^ v) . coords[:, 5] in the bits above it, so a
    block's image keys are four gathers of it at row pairs read off the
    keys (PackedOps.row_pair), and an entry of ncodes or more fails step
    (b); parallel_map bodies may call it."""
    ops = space.ops
    lift = np.asarray(basis_lift)
    pairs = [WEDGE_PAIRS[a] for a in lift.argmax(axis=1)]
    if not np.array_equal(lift, _wedge_rows(pairs)):
        raise ValueError("a quotient basis lift row is not a unit wedge row")
    mul = space.field.mul_table
    uv = np.arange(ops.ncodes**2, dtype=np.uint32)
    u = ops.unpack(uv >> ops.row_bits)
    v = ops.unpack(uv & (ops.ncodes - 1))
    # terms[s, b]: s times row b of coords, entries 0-3 packed and entry 5 in the bits above them
    terms = ops.smul[:, ops.pack(coords[:, :4])] | mul[:, coords[:, 5]].astype(np.uint32) << ops.row_bits
    images = np.zeros(len(uv), dtype=np.uint32)
    for b, (k, l) in enumerate(WEDGE_PAIRS):  # coordinate b of u ^ v is the minor u_k v_l + u_l v_k
        images ^= np.take(terms[:, b], mul[u[:, k], v[:, l]] ^ mul[u[:, l], v[:, k]])
    images = images.astype(np.min_scalar_type(ops.field.order * ops.ncodes - 1))

    def image_keys(keys):
        out = np.zeros(len(keys), dtype=ops.key_dtype)
        for i, j in pairs:
            rows = np.take(images, ops.row_pair(keys, i, j))
            if rows.max(initial=0) >= ops.ncodes:
                raise TauConstructionError("b", "exterior action leaves the invariant 5-space")
            out <<= ops.row_bits
            out |= rows
        return out

    return image_keys


def _wedge_rows(pairs):
    """(len(pairs), 6) uint8 rows: the unit vector of each wedge pair."""
    return np.eye(6, dtype=np.uint8)[[WEDGE_PAIRS.index(p) for p in pairs]]


def _wedge_pairing_gram(space):
    """Gram matrix of <u^v, x^y> = B(u,x)B(v,y) + B(u,y)B(v,x) on the
    wedge-pair basis; B(e_a, e_b) is the Gram entry GRAM[a, b]."""
    f = space.field
    B = GRAM
    G2 = np.zeros((6, 6), dtype=np.uint8)
    for a, (i, j) in enumerate(WEDGE_PAIRS):
        for b, (k, l) in enumerate(WEDGE_PAIRS):
            G2[a, b] = f.add(f.mul(B[i, k], B[j, l]), f.mul(B[i, l], B[j, k]))
    return G2


def build_outer_automorphism(space, group) -> OuterAutomorphism:
    """Construct tau through the exterior square, verifying every step:

    (a) the form vector w = e1^f1 + e2^f2 is isotropic for the induced
        pairing and fixed by the exterior square of every generator;
    (b) w-perp is 5-dimensional (G2 . w != 0), the QUOTIENT_BASIS rows lie
        in it, and with w and QUOTIENT_COMPLEMENT they are a basis of the
        exterior square, so the rows are a basis of the quotient;
    (c) the pairing on those rows is the standard Gram matrix, so they
        are a symplectic basis of the quotient;
    (d) each image row is an element (so symplectic), tau.index is a
        permutation and a homomorphism on the pairs of (a)'s generators
        (_tau_products_agree, on the index itself); it sends every
        transvection to a non-transvection (the group's own mask,
        gathered) with exactly q+1 fixed 1-spaces (counted afresh).
    """

    field = space.field
    mul = field.mul_table

    # step (a)
    G2 = _wedge_pairing_gram(space)
    w = np.zeros(6, dtype=np.uint8)
    w[WEDGE_PAIRS.index((0, 1))] = 1
    w[WEDGE_PAIRS.index((2, 3))] = 1
    ww = field.matmul(field.matmul(w.reshape(1, 6), G2), w.reshape(6, 1))
    if ww[0, 0] != 0:
        raise TauConstructionError("a", "form vector is not isotropic")
    gens = all_transvections(space)
    lam_gens = batch_exterior_square(mul, gens, WEDGE_PAIRS)
    if (batch_matmul_left(mul, w[None, :], lam_gens) != w).any():
        raise TauConstructionError("a", "a generator moves the form vector")
    pair_pres = batch_matmul(mul, batch_matmul(mul, lam_gens, G2), lam_gens.transpose(0, 2, 1))
    if (pair_pres != G2[None, :, :]).any():
        raise TauConstructionError("a", "a generator breaks the induced pairing")

    # step (b)
    if not field.matmul(G2, w.reshape(6, 1)).any():
        raise TauConstructionError("b", "w-perp is the whole exterior square")
    C = _wedge_rows(QUOTIENT_BASIS)  # lifted symplectic quotient basis
    if field.matmul(field.matmul(C, G2), w.reshape(6, 1)).any():
        raise TauConstructionError("b", "a quotient basis row leaves w-perp")
    M = Matrix(field, np.concatenate([C, w.reshape(1, 6), _wedge_rows([QUOTIENT_COMPLEMENT])]))
    if M.rank() != 6:
        raise TauConstructionError("b", "basis rows, w and complement do not span the exterior square")

    # step (c)
    if (field.matmul(field.matmul(C, G2), C.T) != GRAM).any():
        raise TauConstructionError("c", "the quotient basis does not standardise the form")
    coords = M.inverse().A

    tau = OuterAutomorphism(space, group, C, coords)

    # step (d)
    if (tau.index < 0).any():
        raise TauConstructionError("d", "an image falls outside the group")
    if not _packed.is_permutation(tau.index):
        raise TauConstructionError("d", "image table has duplicates")
    ops = space.ops
    t = group.indices_of_keys(ops.keys_of(gens))  # (a)'s generators, as int32 element indices
    if (t < 0).any() or not _tau_products_agree(group, tau, np.repeat(t, len(t)), np.tile(t, len(t))):
        raise TauConstructionError("d", "not a homomorphism on generator pairs")
    tmask = group.transvection_mask()
    if not (_packed.fixed_counts(ops, group.keys[tau.index[tmask]]) == space.q + 1).all():
        raise TauConstructionError("d", "a transvection image has wrong fixed count")
    if tmask[tau.index[tmask]].any():
        raise TauConstructionError("d", "a transvection image is a transvection")
    return tau


def _tau_products_agree(group, tau, a, b):
    """True when every product g_a g_b is an element and tau.index sends it
    to tau(g_a) tau(g_b), the product of the elements tau.index points at:
    tau.index is then a homomorphism on these pairs.  In row_blocks of
    four rows per pair on every usable core; each block indexes both
    products (index_products).  tau.index must already be a permutation."""

    def agrees(sl):
        found = np.empty((2, sl.stop - sl.start), dtype=np.int32)
        for out, x, y in zip(found, (a[sl], tau.index[a[sl]]), (b[sl], tau.index[b[sl]])):
            group.index_products(x, y, out)
        prod, image = found
        return bool((prod >= 0).all() and (tau.index[prod] == image).all())

    return all(_packed.parallel_map(agrees, _packed.row_blocks(len(a), 4)))


def _check_tau_homomorphism(space, group, tau, rng, samples):
    """tau(gh) = tau(g) tau(h) on tau.index, the table every tau-side scan
    gathers through (_tau_products_agree): exhaustive over all pairs at
    q = 2, on `samples` uniform pairs for larger groups.  Returns (ok,
    coverage)."""
    a, b, cov = sample_pairs(len(group), rng, samples)
    return _tau_products_agree(group, tau, a, b), cov


def _check_inverses_sampled(space, group, rng, samples=100):
    """Sampled inverse closure; returns (ok, coverage)."""
    inv = np.stack([group.matrix(int(i)).inverse().A for i in rng.integers(0, len(group), size=samples)])
    return bool((group.indices_of_keys(space.ops.keys_of(inv)) >= 0).all()), coverage_value(samples, len(group))


def _check_products_sampled(group, rng, samples=10_000):
    """Sampled closure certificate: products of random element pairs stay
    inside the enumerated set.  Returns (ok, coverage)."""
    n = len(group)
    a = rng.integers(0, n, size=samples)
    b = rng.integers(0, n, size=samples)
    return bool((group.product_index(a, b) >= 0).all()), coverage_value(samples, n * n)


def build_symplectic_twisted(space, check="fast", rng_seed=1):
    """Construct the (identity, outer) twisted code for Sp(4, q) and its
    verification report.

    check="fast" runs the closure, classification, outer-automorphism and
    support-scan suites; check="all" additionally materialises the code
    and runs the pairwise oracle, the distance-invariance certificate over
    the GENERATOR_WORDS elements' (row, product_index) pairs and letter
    counts, all exhaustive.
    """

    rec = BuildRecord(check)
    rng = np.random.default_rng(rng_seed)
    q = space.q
    m = space.num_points

    with rec.stage("enumerate"):
        group = generate_group(space)
        form_ok = bool(_preserves_form(space, group.keys).all())
    n = len(group)
    rec.check("group_order", n == sp4_order(q))
    rec.check("form_preserved", form_ok, coverage_value(n, n))
    with rec.stage("closure_samples"):
        rec.check("inverses_sampled", *_check_inverses_sampled(space, group, rng))
        rec.check("products_sampled", *_check_products_sampled(group, rng))

    with rec.stage("classify"):
        flags = group.transvection_mask()
        fix = np.empty((n, 2), dtype=np.min_scalar_type(m))  # the fixed-point table: columns rho and rho . tau
        fix_nat = _packed.fixed_counts(space.ops, group.keys, out=fix[:, 0])
    rec.check("identity_fixes_all", int(fix_nat[0]) == m)
    rec.check("transvection_count", int(flags.sum()) == m * (q - 1))
    trans_fix = q * q + q + 1
    rec.check(
        "fixed_trichotomy",
        ((fix_nat[1:] == trans_fix) == flags[1:]).all() and (fix_nat[1:][~flags[1:]] <= 2 * q + 2).all(),
    )
    rec.check("faithful", int(fix_nat[1:].max()) < m)

    with rec.stage("outer_automorphism"):
        tau = build_outer_automorphism(space, group)
    for s in TAU_STEPS:
        rec.check(f"tau_step_{s}", True)

    with rec.stage("tau_scan"):
        fix[:, 1] = fix_nat[tau.index]

    with rec.stage("tau_homomorphism"):
        rec.check("tau_homomorphism_pairs", *_check_tau_homomorphism(space, group, tau, rng, HOM_SAMPLES))

    with rec.stage("support_scan"):
        sums, deltas = support_scan(fix, m)
        check_delta_formulas(rec, deltas, (2 * q**3 + q**2, 2 * q**3))
        related = flags[tau.index]  # g or tau(g) is a transvection; built here, where it is read
        related |= flags

    attained = np.flatnonzero(sums == deltas[0]) + 1
    rec.check("min_at_transvection_related", related[attained].all())
    least = int(np.min(sums, where=~related[1:], initial=np.iinfo(sums.dtype).max))  # no copy of sums[~related]
    rec.check("nontransvection_support_bound", least >= 2 * (m - 2 * q - 2) and (q == 2 or least > 2 * q**3 + q**2))
    del related, sums  # not held through the check="all" oracles

    build = finish_build(
        group, fix, lambda: (group.natural_representation(), [tau.index]), rec,
        family="symplectic", params={"n": space.n, "poly": space.field.poly}, m=m, deltas=deltas,
        # the GENERATOR_WORDS elements and right multiplication by each, for the invariance certificate
        generators=lambda: [(s, lambda x, s=s: group.product_index(x, s))
                            for s in group.indices_of_keys(space.ops.keys_of(generators(space)))],
    )
    build.tau = tau
    return build
