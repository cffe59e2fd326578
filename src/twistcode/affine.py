"""The affine family: the group G_k of (k+1)x(k+1) matrices
[[1, u], [0, B^i]] over GF(p) with p > k >= 2, its action on the point set
{(1, v) : v in GF(p)^k}, the translation-twist automorphisms, and the
p-fold twisted permutation code they generate.

Element bookkeeping: no element matrix is stored.  Element j is read off
the block layout as its decomposition (u, i), where u is the top-row
translation block and i in {1..p} is the exponent of the lower block B^i
(i = p encodes B^p = I); the group holds only the m points and the
powers of B.  Natural
fixed-point counts are computed honestly from the point action, one
histogram per exponent block: an element (u, i) fixes (1, x) iff
u = x - x.B^i, so counting preimages of that difference map over all m
points answers every (u, i) at once.

The r-twist (u, i) -> (u + r w(i), i) is kept, as Sp(4, q)'s tau is, as a
permutation of the enumerated group (AffineGroup.twist_index), so its
fixed-count column and permutation table are the natural ones gathered
through it; codes.build_twisted_code writes the check="all" code of both
families from the natural table gathered through such permutations.  As
tau_r = tau_1^r, the builds gather through powers of the one permutation
AffineGroup.twist, which _check_twist_automorphism certifies an
automorphism from its Cayley edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._packed import ROW_CHUNK, chunks, first_of_runs
from .codes import IndexedDomain, Representation, finish_build, reaches_all, row_keys, support_scan
from .fields import PrimeField
from .linalg import Matrix
from .report import stage

GROUP_GUARD = 1 << 21  # max |G| = p^(k+1) for enumeration
SCAN_GUARD = 1 << 26  # max p^(k+2) twist-scan work


@dataclass(frozen=True)
class AffineParams:
    p: int
    k: int

    def __post_init__(self):
        PrimeField(self.p)  # validates odd prime
        if not self.p > self.k >= 2:
            raise ValueError(f"need p > k >= 2, got p={self.p}, k={self.k}")

    @property
    def field(self):
        return PrimeField(self.p)

    @property
    def num_points(self):
        return self.p**self.k

    @property
    def group_order(self):
        return self.p ** (self.k + 1)


def matrix_A(k, p) -> Matrix:
    """k x k nilpotent matrix: first row zero, row i equal to e_{i-1}."""
    AffineParams(p, k)
    A = np.zeros((k, k), dtype=np.uint8)
    for i in range(1, k):
        A[i, i - 1] = 1
    return Matrix(PrimeField(p), A)


def matrix_B(k, p) -> Matrix:
    return Matrix.identity(PrimeField(p), k) + matrix_A(k, p)


def b_power(k, p, i) -> Matrix:
    """Closed form of B^i: lower triangular with (s,t) entry C(i, s-t) mod p."""
    if i < 1:
        raise ValueError("exponent must be >= 1")
    f = PrimeField(p)
    M = np.zeros((k, k), dtype=np.uint8)
    for s in range(k):
        for t in range(s + 1):
            M[s, t] = f.binom(i, s - t)
    return Matrix(f, M)


def omega_sum(k, p, i) -> Matrix:
    """Closed form of I + B + ... + B^(i-1): (s,t) entry C(i, s-t+1) mod p."""
    if i < 1:
        raise ValueError("index must be >= 1")
    f = PrimeField(p)
    M = np.zeros((k, k), dtype=np.uint8)
    for s in range(k):
        for t in range(s + 1):
            M[s, t] = f.binom(i, s - t + 1)
    return Matrix(f, M)


@dataclass(frozen=True)
class AffineElement:
    """Group element with its cached (u, i) decomposition: the matrix is
    [[1, u], [0, B^i]]."""

    matrix: Matrix
    i: int
    u: tuple

    def is_identity(self):
        return self.matrix.is_identity()


def enumerate_points(params: AffineParams) -> IndexedDomain:
    """All (1, v) labels, v running lexicographically over GF(p)^k."""
    vecs = _point_array(params)
    return IndexedDomain([(1, *map(int, v)) for v in vecs])


def _point_array(params):
    p, k, m = params.p, params.k, params.num_points
    P = np.zeros((m, k), dtype=np.uint8)
    idx = np.arange(m)
    for j in range(k):
        P[:, j] = (idx // p ** (k - 1 - j)) % p
    return P


class AffineGroup:
    """The enumerated affine group, stored as its block layout only:
    element j = block * m + rank is [[1, u], [0, B^i]] with u = points[rank]
    and i = block_exponents[block].  Besides the m points it holds the
    powers B^0 .. B^p and the last rows of the partial-sum matrices."""

    def __init__(self, params):
        if params.group_order > GROUP_GUARD:
            raise ValueError(
                f"group order {params.group_order} exceeds the enumeration guard {GROUP_GUARD}"
            )
        self.params = params
        p, k = params.p, params.k
        self.points = _point_array(params)
        self.weights = np.array([p ** (k - 1 - j) for j in range(k)], dtype=np.int64)
        self.b_pows = np.stack([np.eye(k, dtype=np.uint8)] + [b_power(k, p, i).A for i in range(1, p + 1)])
        # w_r . Omega(k,i) = r * (last row of Omega(k,i))
        last_rows = [omega_sum(k, p, i).A[-1] for i in range(1, p + 1)]
        self.omega_last = np.stack([np.zeros(k, np.uint8)] + last_rows)
        # exponent blocks in order i = p, 1, 2, ..., p-1 so that the
        # identity (u = 0, B^p = I) lands at index 0
        self.block_exponents = np.array([p, *range(1, p)])

    def __len__(self):
        return self.params.group_order

    def decompose(self, idx):
        """(u, i) of the element(s) at idx, read off the block layout: u is
        points[idx % m] and i is block_exponents[idx // m]."""
        block, rank = np.divmod(idx, self.params.num_points)
        return self.points[rank], self.block_exponents[block]

    def matrix(self, j) -> Matrix:
        u, i = self.decompose(j)
        k = self.params.k
        mat = np.eye(k + 1, dtype=np.uint8)
        mat[0, 1:] = u
        mat[1:, 1:] = self.b_pows[i]
        return Matrix(self.params.field, mat)

    def exponent_blocks(self):
        """(slice, i) per exponent block: the m elements with lower block B^i."""
        return zip(chunks(self.params.group_order, self.params.num_points), self.block_exponents)

    def _encode_points(self, vecs):
        return vecs.astype(np.int64) @ self.weights

    def _image_ranks(self, mat, shift):
        """The rank of (shift + u mat) mod p for every point u, one coordinate
        at a time in uint16 columns: with entries of mat and shift below p,
        each sum stays below p + k p^2 < 2^16 within GROUP_GUARD, so nothing
        wraps before the reduction."""
        p, m = self.params.p, self.params.num_points
        mat = mat.astype(np.uint16)
        ranks = np.zeros(m, dtype=np.int64)
        for j, weight in enumerate(self.weights):
            coord = np.full(m, shift[j], dtype=np.uint16)
            for l in np.flatnonzero(mat[:, j]):
                coord += self.points[:, l] * mat[l, j]
            coord %= np.uint16(p)
            ranks += coord * weight
        return ranks

    def element_index(self, u, i) -> int:
        """Index of (u, i): exponent block i mod p (block_exponents), then u's rank."""
        p = self.params.p
        return i % p * self.params.num_points + int(self._encode_points(np.asarray(u, dtype=np.int64) % p))

    def element(self, idx) -> AffineElement:
        u, i = self.decompose(idx)
        return AffineElement(matrix=self.matrix(idx), i=int(i), u=tuple(int(x) for x in u))

    def product_index(self, a, b) -> int:
        """Index of the product element a * b."""
        (ua, ia), (ub, ib) = self.decompose(a), self.decompose(b)
        u = (ub.astype(np.int64) + ua.astype(np.int64) @ self.b_pows[ib]) % self.params.p
        return self.element_index(u, int(ia + ib))

    def generators(self):
        """Indices of B and of the translation by e_k, which generate G_k."""
        e_k = np.eye(self.params.k, dtype=np.int64)[-1]
        return [self.element_index(0 * e_k, 1), self.element_index(e_k, self.params.p)]

    def right_multiplier(self, y):
        """Right multiplication by g_y, x -> x g_y, as (starts, ranks): the
        element block * m + rank goes to starts[block] + ranks[rank].  It
        sends (u, i) to (u_y + u B^(i_y), i + i_y), whose point part does
        not depend on i: one map of the m points plus a shift of the
        exponent blocks, O(m) to build."""
        p, m = self.params.p, self.params.num_points
        u_y, i_y = self.decompose(y)
        ranks = self._image_ranks(self.b_pows[i_y], u_y)
        starts = (self.block_exponents + i_y) % p * m  # element_index's block of exponent i + i_y
        return starts, ranks

    def twist_index(self, r):
        """tau_r as a permutation of the enumerated group, tau_r(g_j) =
        g_index[j]: (u, i) goes to (u + r w(i), i), one exponent block at a
        time.  Points are ranked lexicographically, so adding c = r w(i) to
        every point rolls the (p,)*k grid of their ranks by -c."""
        p, k = self.params.p, self.params.k
        grid = np.arange(self.params.num_points).reshape((p,) * k)
        index = np.empty(len(self), dtype=np.intp)
        for sl, i in self.exponent_blocks():
            shift = tuple(-r * self.omega_last[i].astype(np.int64))
            index[sl] = sl.start + np.roll(grid, shift, axis=tuple(range(k))).ravel()
        return index

    @cached_property
    def twist(self):
        """twist_index(1), computed once: every build gathers through its powers."""
        return self.twist_index(1)

    def twist_powers(self):
        """The index permutations of tau_1, ..., tau_(p-1): tau_r = tau_1^r,
        so T_r = T_(r-1)[T_1] with T_1 = twist."""
        t = self.twist
        for _ in range(1, self.params.p):
            yield t
            t = t[self.twist]

    def twisted_perm_table(self, r=0):
        """Permutation images (N, m) of every element under the r-twist:
        the natural table, gathered through twist_index(r) for r != 0."""
        p, m = self.params.p, self.params.num_points
        out = np.empty((len(self), m), dtype=np.min_scalar_type(m - 1))
        for sl, i in self.exponent_blocks():
            pb = self.points.astype(np.int64) @ self.b_pows[i] % p
            imgs = (pb[None, :, :] + self.points[:, None, :]) % p
            out[sl] = self._encode_points(imgs)
        return out[self.twist_index(r)] if r else out

    def fixed_count_table(self):
        """Honest fixed-point counts (N, p): column r counts the points
        fixed by the r-twist of each element.  Column 0 enumerates the
        action with one histogram per exponent block; column r is column
        r - 1 gathered through twist (tau_r = tau_1 tau_(r-1)), so it is
        column 0 gathered through twist_index(r)."""
        p, m = self.params.p, self.params.num_points
        natural = np.empty(len(self), dtype=np.int32)  # contiguous, so each gather reads one block's window
        eye, zero = np.eye(self.params.k, dtype=np.int64), np.zeros(self.params.k, dtype=np.int64)
        for sl, i in self.exponent_blocks():
            diff = self._image_ranks((eye - self.b_pows[i]) % p, zero)  # the ranks of u - u B^i
            natural[sl] = np.bincount(diff, minlength=m)
        counts = np.empty((len(self), p), dtype=np.int32)  # every count is at most m
        counts[:, 0] = column = natural
        for r in range(1, p):
            counts[:, r] = column = column[self.twist]
        return counts


def enumerate_group(params: AffineParams) -> AffineGroup:
    return AffineGroup(params)


def tau_twist(group: AffineGroup, r, g: AffineElement) -> AffineElement:
    """Apply the automorphism tau_{w_r} tau_{w_0}^{-1}: the top block gains
    r times the last row of Omega(k, i)."""
    p = group.params.p
    if not 0 <= r < p:
        raise ValueError(f"twist parameter {r} outside GF({p})")
    w = group.omega_last[g.i].astype(np.int64)
    u = (np.array(g.u, dtype=np.int64) + r * w) % p
    return group.element(group.element_index(u, g.i))


def act_on_point(g: AffineElement, x):
    """Image of the point (1, v) under right multiplication by g."""
    mat = g.matrix
    p = mat.field.p
    vec = np.asarray(x, dtype=np.int64)
    if vec.shape != (mat.rows,) or vec[0] != 1:
        raise ValueError("point must be (1, v) of matching dimension")
    img = vec @ mat.A % p
    return tuple(int(c) for c in img)


def fixed_point_count(params: AffineParams, g: AffineElement, by_enumeration=False) -> int:
    """Fixed points of g on the m = p^k points; always 0 or p for g != 1.

    The closed form reads off the decomposition: p fixed points iff the
    exponent is nonzero mod p and the last coordinate of the top block is
    zero.  by_enumeration recounts by acting on every point.
    """

    if g.is_identity():
        raise ValueError("fixed_point_count is defined for non-identity elements")
    if by_enumeration:
        count = 0
        for v in _point_array(params):
            x = (1, *map(int, v))
            if act_on_point(g, x) == x:
                count += 1
        return count
    if g.i != params.p and g.u[-1] == 0:
        return params.p
    return 0


def _check_closed_forms(params, checks):
    """B^i and Omega(k,i) closed forms against iterated multiplication and
    the literal geometric sum, plus the mod-p periodicity facts."""
    p, k = params.p, params.k
    f = params.field
    B = matrix_B(k, p)
    prev = Matrix.identity(f, k)  # B^(i-1) by iterated multiplication
    ok_b, ok_om = True, True
    run = Matrix.zeros(f, k)
    for i in range(1, 2 * p + 1):
        run = run + prev
        acc = prev * B
        ok_b &= b_power(k, p, i) == acc
        ok_om &= omega_sum(k, p, i) == run
        prev = acc
    checks["bk_closed_form"] = ok_b
    checks["bk_order_p"] = b_power(k, p, p).is_identity()
    checks["omega_closed_form"] = ok_om
    checks["omega_zero_at_p"] = omega_sum(k, p, p).is_zero()
    ok_rec = True
    for i in range(1, p + 1):
        bi = b_power(k, p, i)
        for j in range(1, p + 1):
            ok_rec &= omega_sum(k, p, i + j) == omega_sum(k, p, i) + bi * omega_sum(k, p, j)
    checks["omega_recurrence"] = ok_rec


def _check_twist_automorphism(group, checks, coverage):
    """Certificate that T = group.twist, the permutation every twisted
    table is gathered through (in powers), is an automorphism, exhaustively:
    T permutes each exponent block (a scatter count per block, as tau_1
    keeps i), T(x s) = T(x) T(s) for every x and every s in S =
    group.generators(), and a search along x -> x s reaches every element
    from 1, so S generates G_k.  By induction on word length T(x y) =
    T(x) T(y) for all x and y (the argument behind Schreier's lemma;
    Seress, "Permutation Group Algorithms", CUP 2003), and then so is
    every power T_r.  Right multiplication is group.right_multiplier, read
    off the points and B powers, never off twist_index.  tau_0 is the
    identity on every element: its index permutation is the identity."""
    n, m = len(group), group.params.num_points
    t, gens = group.twist, group.generators()
    muls = [group.right_multiplier(s) for s in gens]

    def permutes_blocks():
        return all(
            ranks.min() >= 0 and ranks.max() < m and (np.bincount(ranks, minlength=m) == 1).all()
            for ranks in (t[sl] - sl.start for sl in chunks(n, m))
        )

    def edges_agree():
        for s, (starts, ranks) in zip(gens, muls):
            tw_starts, tw_ranks = group.right_multiplier(t[s])
            for b, sl in enumerate(chunks(n, m)):  # x running over exponent block b
                if not (t[starts[b] + ranks] == tw_starts[b] + tw_ranks[t[sl] - sl.start]).all():
                    return False
        return True

    def step(starts, ranks):
        def times(idx):
            block, rank = np.divmod(idx, m)
            return starts[block] + ranks[rank]

        return times

    checks["twist_automorphism"] = bool(
        permutes_blocks() and edges_agree() and reaches_all(n, [step(*mul) for mul in muls])
    )
    coverage["twist_automorphism"] = "exhaustive"
    t0 = group.twist_index(0)
    checks["twist_identity_r0"] = all(bool((t0[sl] == np.arange(sl.start, sl.stop)).all()) for sl in chunks(n, m))
    coverage["twist_identity_r0"] = "exhaustive"


def _check_fixed_points(group, fix, sums, checks):
    """Fixed-point dichotomy and the per-twist support pattern, from the
    honest counts: column r of fix holds |fix| of the r-twist, and sums
    are support_scan's summed supports of the non-identity elements.  The
    table is read once, a block of ROW_CHUNK rows with all p columns at a
    time, and each element's (u, i) comes off decompose's block layout
    (rank j % m, block j // m) for that block only."""
    p, m = group.params.p, group.params.num_points
    i_inv = np.array([0] + [pow(i, p - 2, p) for i in range(1, p)], dtype=np.int16)
    block_inv = i_inv[group.block_exponents % p]  # 1 / i mod p per exponent block, 0 at i = p
    u_last = group.points[:, -1].astype(np.int16)
    dichotomy = rule = pattern = faithful = True
    for sl in chunks(len(group) - 1, ROW_CHUNK):
        block, rank = np.divmod(np.arange(sl.start + 1, sl.stop + 1), m)  # the non-identity elements
        inv, u = block_inv[block], u_last[rank]
        moving = inv != 0
        table = fix[sl.start + 1 : sl.stop + 1]
        at_p = table == p
        nat = table[:, 0]
        dichotomy &= bool(((nat == 0) | at_p[:, 0]).all())
        rule &= bool((at_p[:, 0] == (moving & (u == 0))).all())
        # exponent p means every twist is fixed-point-free; otherwise
        # exactly one r, the solution r_pred of u_k + i r = 0, gives
        # support m - p
        r_pred = (p - u) * inv % p  # below p^2 < 2^15 within the group guard
        pattern &= bool(
            (at_p | (table == 0)).all()
            and (at_p.sum(axis=1) == moving).all()
            and at_p[np.arange(len(table)), r_pred][moving].all()
        )
        faithful &= bool((nat < m).all())
    checks["fixed_point_dichotomy"] = dichotomy
    checks["fixed_point_rule"] = rule
    checks["twist_support_pattern"] = pattern

    tw_min = p * m - p
    checks["support_sum_dichotomy"] = bool(((sums == tw_min) | (sums == p * m)).all())
    checks["faithful_natural_action"] = faithful


def build_affine_twisted(params: AffineParams, check="fast", rng_seed=1):
    """Construct the p-twisted affine code and its verification report.

    check="fast" runs the closed-form and support-scan suite and the
    twist-automorphism certificate; check="all" additionally materialises
    the code and runs the pairwise-distance oracle, the distance-invariance
    certificate over the code rows of B and the e_k translation, and the
    letter-count (FPA) property.  Every check is exhaustive and nothing is
    drawn at random: rng_seed is accepted for a signature shared with
    build_symplectic_twisted, and unused.
    """

    if check not in ("fast", "all"):
        raise ValueError(f"unknown check level {check!r}")
    p, k = params.p, params.k
    if p ** (k + 2) > SCAN_GUARD:
        raise ValueError(
            f"p^(k+2) = {p ** (k + 2)} exceeds the twist-scan guard {SCAN_GUARD}"
        )
    checks: dict[str, bool] = {}
    times: dict[str, float] = {}
    coverage: dict[str, str] = {}

    with stage(times, "enumerate"):
        group = enumerate_group(params)

    m = params.num_points
    # [[1, u], [0, B^i]] determines (u, B^i), so the distinct matrices are
    # the distinct points times the distinct powers the blocks use
    powers = group.b_pows[group.block_exponents]
    distinct = [int(first_of_runs(np.sort(row_keys(rows.reshape(len(rows), -1)))).sum())
                for rows in (group.points, powers)]
    checks["group_order"] = distinct[0] * distinct[1] == p ** (k + 1)
    # every stored B^i lower unitriangular (zeros above the diagonal, ones
    # on it) and the i-th power of B: B^0 = I, then B^i = B^(i-1) B
    B = matrix_B(k, p).A.astype(np.int64)
    steps = group.b_pows[:-1].astype(np.int64) @ B % p
    checks["block_structure"] = bool(
        not np.triu(powers, 1).any() and (np.diagonal(powers, axis1=1, axis2=2) == 1).all()
        and (group.b_pows[0] == np.eye(k)).all() and (group.b_pows[1:] == steps).all()
    )

    with stage(times, "closed_forms"):
        _check_closed_forms(params, checks)

    with stage(times, "support_scan"):
        fix = group.fixed_count_table()
        expected = (p ** (k + 1) - p, p ** (k + 1) - p * p)
        scan_checks = {}
        sums, delta_tw, delta_rep = support_scan(fix, m, expected, scan_checks)
        _check_fixed_points(group, fix, sums, checks)
        checks.update(scan_checks)  # report order: the fixed-point checks first

    with stage(times, "automorphism"):
        _check_twist_automorphism(group, checks, coverage)

    return finish_build(
        group, fix, lambda: (Representation(group, group.twisted_perm_table()), list(group.twist_powers())),
        family="affine", params={"p": p, "k": k},
        m=m, deltas=(delta_tw, delta_rep), checks=checks, times=times, coverage=coverage, check=check,
        generators=group.generators() if check == "all" else None,
    )
