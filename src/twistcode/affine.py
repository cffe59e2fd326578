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

from ._packed import ROW_CHUNK, chunks, first_of_runs, is_permutation
from .codes import (
    Representation, check_delta_formulas, finish_build, reaches_all, row_keys, support_scan,
)
from .fields import PrimeField
from .linalg import Matrix
from .report import BuildRecord

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

    def exponent_blocks(self):
        """(slice, i) per exponent block: the m elements with lower block B^i."""
        return zip(chunks(self.params.group_order, self.params.num_points), self.block_exponents)

    def _image_ranks(self, mat, shift):
        """The ranks (r, m) of (shift[s] + u mat) mod p for every row s of
        the (r, k) shift and every point u, one coordinate at a time: u mat's
        column in uint16 (with entries of mat and shift below p, each sum
        stays below p + k p^2 < 2^16 within GROUP_GUARD), reduced mod p, and
        its term coordinate * weight added in the ranks' type
        np.min_scalar_type(m - 1), as every term and partial sum is below m."""
        p, m = self.params.p, self.params.num_points
        dtype = np.min_scalar_type(m - 1)
        mat = mat.astype(np.uint16)
        ranks = np.zeros((len(shift), m), dtype=dtype)
        for j, weight in enumerate(self.weights.astype(dtype)):
            column = np.zeros(m, dtype=np.uint16)
            for l in np.flatnonzero(mat[:, j]):
                column += self.points[:, l] * mat[l, j]
            coord = shift[:, j, None] + column
            coord %= np.uint16(p)
            ranks += coord * weight
        return ranks

    def element_index(self, u, i) -> int:
        """Index of (u, i): exponent block i mod p (block_exponents), then u's rank."""
        p = self.params.p
        return i % p * self.params.num_points + int(np.asarray(u, dtype=np.int64) % p @ self.weights)

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
        ranks = self._image_ranks(self.b_pows[i_y], u_y[None])[0]
        starts = (self.block_exponents + i_y) % p * m  # element_index's block of exponent i + i_y
        return starts, ranks

    def right_step(self, y):
        """x -> x g_y on index arrays (a codes.reaches_all step), through right_multiplier's tables."""
        starts, ranks = self.right_multiplier(y)
        m = self.params.num_points
        return lambda idx: starts[idx // m] + ranks[idx % m]

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

    def twisted_perm_table(self):
        """Permutation images (N, m) of every element: the natural table,
        which the builds gather through twist_index(r) for the r-twist."""
        m = self.params.num_points
        out = np.empty((len(self), m), dtype=np.min_scalar_type(m - 1))
        for sl, i in self.exponent_blocks():
            out[sl] = self._image_ranks(self.b_pows[i], self.points)  # row u, column x: u + x B^i
        return out

    def fixed_count_table(self):
        """Honest fixed-point counts (N, p): column r counts the points
        fixed by the r-twist of each element.  Column 0 enumerates the
        action with one histogram per exponent block; column r is column
        r - 1 gathered through twist (tau_r = tau_1 tau_(r-1)), so it is
        column 0 gathered through twist_index(r)."""
        p, m = self.params.p, self.params.num_points
        natural = np.empty(len(self), dtype=np.int32)  # contiguous, so each gather reads one block's window
        eye, zero = np.eye(self.params.k, dtype=np.int64), np.zeros((1, self.params.k), dtype=np.uint8)
        for sl, i in self.exponent_blocks():
            diff = self._image_ranks((eye - self.b_pows[i]) % p, zero)[0]  # the ranks of u - u B^i
            natural[sl] = np.bincount(diff, minlength=m)
        counts = np.empty((len(self), p), dtype=np.int32)  # every count is at most m
        counts[:, 0] = column = natural
        for r in range(1, p):
            counts[:, r] = column = column[self.twist]
        return counts


def enumerate_group(params: AffineParams) -> AffineGroup:
    return AffineGroup(params)


def _check_closed_forms(params, rec):
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
    rec.check("bk_closed_form", ok_b)
    rec.check("bk_order_p", b_power(k, p, p).is_identity())
    rec.check("omega_closed_form", ok_om)
    rec.check("omega_zero_at_p", omega_sum(k, p, p).is_zero())
    ok_rec = True
    for i in range(1, p + 1):
        bi = b_power(k, p, i)
        for j in range(1, p + 1):
            ok_rec &= omega_sum(k, p, i + j) == omega_sum(k, p, i) + bi * omega_sum(k, p, j)
    rec.check("omega_recurrence", ok_rec)


def _check_twist_automorphism(group, rec):
    """Certificate that T = group.twist, the permutation every twisted
    table is gathered through (in powers), is an automorphism, exhaustively:
    T permutes each exponent block (is_permutation per block, as tau_1
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
        return all(is_permutation(t[sl] - sl.start) for sl in chunks(n, m))

    def edges_agree():
        for s, (starts, ranks) in zip(gens, muls):
            tw_starts, tw_ranks = group.right_multiplier(t[s])
            for b, sl in enumerate(chunks(n, m)):  # x running over exponent block b
                if not (t[starts[b] + ranks] == tw_starts[b] + tw_ranks[t[sl] - sl.start]).all():
                    return False
        return True

    ok = permutes_blocks() and edges_agree() and reaches_all(n, [group.right_step(s) for s in gens])
    rec.check("twist_automorphism", ok, "exhaustive")
    t0 = group.twist_index(0)
    ok = all((t0[sl] == np.arange(sl.start, sl.stop)).all() for sl in chunks(n, m))
    rec.check("twist_identity_r0", ok, "exhaustive")


def _check_fixed_points(group, fix, sums, rec):
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
    rec.check("fixed_point_dichotomy", dichotomy)
    rec.check("fixed_point_rule", rule)
    rec.check("twist_support_pattern", pattern)
    rec.check("support_sum_dichotomy", ((sums == p * m - p) | (sums == p * m)).all())
    rec.check("faithful_natural_action", faithful)


def build_affine_twisted(params: AffineParams, check="fast", rng_seed=1):
    """Construct the p-twisted affine code and its verification report.

    check="fast" runs the closed-form and support-scan suite and the
    twist-automorphism certificate; check="all" additionally materialises
    the code and runs the pairwise-distance oracle, the distance-invariance
    certificate over the (row, right_step) pairs of B and the e_k
    translation, and the letter-count (FPA) property.  Every check is exhaustive and nothing is
    drawn at random: rng_seed is accepted for a signature shared with
    build_symplectic_twisted, and unused.
    """

    rec = BuildRecord(check)
    p, k = params.p, params.k
    if p ** (k + 2) > SCAN_GUARD:
        raise ValueError(
            f"p^(k+2) = {p ** (k + 2)} exceeds the twist-scan guard {SCAN_GUARD}"
        )

    with rec.stage("enumerate"):
        group = enumerate_group(params)

    m = params.num_points
    # [[1, u], [0, B^i]] determines (u, B^i), so the distinct matrices are
    # the distinct points times the distinct powers the blocks use
    powers = group.b_pows[group.block_exponents]
    distinct = [int(first_of_runs(np.sort(row_keys(rows.reshape(len(rows), -1)))).sum())
                for rows in (group.points, powers)]
    rec.check("group_order", distinct[0] * distinct[1] == p ** (k + 1))
    # every stored B^i lower unitriangular (zeros above the diagonal, ones
    # on it) and the i-th power of B: B^0 = I, then B^i = B^(i-1) B
    B = matrix_B(k, p).A.astype(np.int64)
    steps = group.b_pows[:-1].astype(np.int64) @ B % p
    rec.check(
        "block_structure",
        not np.triu(powers, 1).any() and (np.diagonal(powers, axis1=1, axis2=2) == 1).all()
        and (group.b_pows[0] == np.eye(k)).all() and (group.b_pows[1:] == steps).all(),
    )

    with rec.stage("closed_forms"):
        _check_closed_forms(params, rec)

    with rec.stage("support_scan"):
        fix = group.fixed_count_table()
        sums, deltas = support_scan(fix, m)
        _check_fixed_points(group, fix, sums, rec)
        check_delta_formulas(rec, deltas, (p ** (k + 1) - p, p ** (k + 1) - p * p))

    with rec.stage("automorphism"):
        _check_twist_automorphism(group, rec)

    return finish_build(
        group, fix, lambda: (Representation(group, group.twisted_perm_table()), list(group.twist_powers())), rec,
        family="affine", params={"p": p, "k": k}, m=m, deltas=deltas,
        generators=lambda: [(s, group.right_step(s)) for s in group.generators()],
    )
