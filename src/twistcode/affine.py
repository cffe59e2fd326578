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
families from the natural table gathered through such permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._packed import chunks, first_of_runs
from .codes import IndexedDomain, Representation, finish_build, row_keys, sample_pairs, support_scan
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

    def twist_index(self, r):
        """tau_r as a permutation of the enumerated group, tau_r(g_j) =
        g_index[j]: (u, i) goes to (u + r w(i), i), one exponent block at a
        time, so the temporaries stay at m rows."""
        p = self.params.p
        index = np.empty(len(self), dtype=np.intp)
        for sl, i in self.exponent_blocks():
            moved = (self.points.astype(np.int64) + r * self.omega_last[i].astype(np.int64)) % p
            index[sl] = sl.start + self._encode_points(moved)
        return index

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
        action with one histogram per exponent block; column r is column 0
        gathered through twist_index(r)."""
        p, m = self.params.p, self.params.num_points
        natural = np.empty(len(self), dtype=np.int32)  # contiguous, so each gather reads one block's window
        for sl, i in self.exponent_blocks():
            diff = (self.points.astype(np.int64) - self.points.astype(np.int64) @ self.b_pows[i]) % p
            natural[sl] = np.bincount(self._encode_points(diff), minlength=m)
        counts = np.empty((len(self), p), dtype=np.int32)  # every count is at most m
        for r in range(p):
            counts[:, r] = natural[self.twist_index(r)] if r else natural
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


def _check_twist_automorphism(group, checks, coverage, rng):
    """tau_r is an automorphism: twist(a) twist(b) = twist(ab) for every r,
    exhaustively when the pair count is small, otherwise on 10^4 samples;
    tau_0 is the identity on every element: its index permutation is the
    identity."""
    p = group.params.p
    n = len(group)
    a, b, coverage["twist_automorphism"] = sample_pairs(n, rng, 10_000)
    (ua, ia), (ub, ib) = group.decompose(a), group.decompose(b)
    i3 = (ia + ib - 1) % p + 1
    ua, ub = ua.astype(np.int64), ub.astype(np.int64)
    ok = True
    for r in range(p):
        wa = r * group.omega_last[ia].astype(np.int64)
        wb = r * group.omega_last[ib].astype(np.int64)
        w3 = r * group.omega_last[i3].astype(np.int64)
        twa, twb = (ua + wa) % p, (ub + wb) % p
        # product of the twisted pair, versus the twist of the product
        lhs = (twb + np.einsum("nk,nkl->nl", twa, group.b_pows[ib])) % p
        plain = (ub + np.einsum("nk,nkl->nl", ua, group.b_pows[ib])) % p
        rhs = (plain + w3) % p
        ok &= bool((lhs == rhs).all())
    checks["twist_automorphism"] = ok
    checks["twist_identity_r0"] = bool((group.twist_index(0) == np.arange(n)).all())
    coverage["twist_identity_r0"] = "exhaustive"


def _check_fixed_points(group, fix, sums, checks):
    """Fixed-point dichotomy and the per-twist support pattern, from the
    honest counts: column r of fix holds |fix| of the r-twist, and sums
    are support_scan's summed supports of the non-identity elements."""
    p, m = group.params.p, group.params.num_points
    u, exps = group.decompose(np.arange(1, len(group)))
    u_last = u[:, -1].astype(np.int64)
    del u  # not held through the column loop: 9 MiB of the (11,5) peak
    nat = fix[1:, 0]
    checks["fixed_point_dichotomy"] = bool(np.isin(nat, (0, p)).all())
    moving = exps != p
    checks["fixed_point_rule"] = bool(((nat == p) == (moving & (u_last == 0))).all())

    # exponent p means every twist is fixed-point-free; otherwise
    # exactly one r (the solution of u_k + i r = 0) gives support m - p;
    # one column at a time, so no (N, p) copy of the table is made
    ok, hits = True, np.zeros(len(nat), dtype=np.int8)  # hits: p entries per row
    for r in range(p):
        at_p = fix[1:, r] == p
        ok &= bool((at_p | (fix[1:, r] == 0)).all())
        hits += at_p
    ok &= bool((hits == moving).all())
    i_inv = np.array([0] + [pow(int(i), p - 2, p) for i in range(1, p)], dtype=np.int64)
    r_pred = -u_last * i_inv[exps % p] % p
    ok &= bool(((fix[1:][np.arange(len(r_pred)), r_pred] == p) | ~moving).all())
    checks["twist_support_pattern"] = ok

    tw_min = p * m - p
    checks["support_sum_dichotomy"] = bool(np.isin(sums, (tw_min, p * m)).all())
    checks["faithful_natural_action"] = bool((fix[1:, 0] < m).all())


def build_affine_twisted(params: AffineParams, check="fast", rng_seed=1):
    """Construct the p-twisted affine code and its verification report.

    check="fast" runs the closed-form and support-scan suite; check="all"
    additionally materialises the code and runs the pairwise-distance
    oracle, the distance-invariance certificate over the code rows of B and
    the e_k translation, and the letter-count (FPA) property.
    """

    if check not in ("fast", "all"):
        raise ValueError(f"unknown check level {check!r}")
    p, k = params.p, params.k
    if p ** (k + 2) > SCAN_GUARD:
        raise ValueError(
            f"p^(k+2) = {p ** (k + 2)} exceeds the twist-scan guard {SCAN_GUARD}"
        )
    rng = np.random.default_rng(rng_seed)
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
    # every stored B^i lower unitriangular: zeros above the diagonal, ones on it
    checks["block_structure"] = bool(
        not np.triu(powers, 1).any() and (np.diagonal(powers, axis1=1, axis2=2) == 1).all()
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
        _check_twist_automorphism(group, checks, coverage, rng)

    e_k = np.eye(k, dtype=np.int64)[-1]  # B and the translation by e_k generate G_k
    gen_rows = [group.element_index(0 * e_k, 1), group.element_index(e_k, p)] if check == "all" else None
    return finish_build(
        group, fix, lambda: (
            Representation(group, group.twisted_perm_table()), [group.twist_index(r) for r in range(1, p)]
        ), family="affine", params={"p": p, "k": k},
        m=m, deltas=(delta_tw, delta_rep), checks=checks, times=times, coverage=coverage, check=check,
        generators=gen_rows,
    )
