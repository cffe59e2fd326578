"""The affine family: the group G_k of (k+1)x(k+1) matrices
[[1, u], [0, B^i]] over GF(p) with p > k >= 2, its action on the point set
{(1, v) : v in GF(p)^k}, the translation-twist automorphisms, and the
p-fold twisted permutation code they generate.

Element bookkeeping: every element is stored with its decomposition
(u, i) where u is the top-row translation block and i in {1..p} is the
exponent of the lower block B^i (i = p encodes B^p = I).  Fixed-point
counts are computed honestly from the point action, organised as one
histogram per exponent class: an element (u, i) fixes (1, x) iff
u = x - x.B^i, so counting preimages of that difference map over all m
points answers every (u, i) at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import EnumeratedGroup, IndexedDomain, Representation, finish_build, sample_pairs, support_scan
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


def _norm_exponent(p, i):
    """Normalise an exponent into {1..p} (i = p stands for B^i = I)."""
    return (i - 1) % p + 1


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


class AffineGroup(EnumeratedGroup):
    """Enumerated affine group with the (u, i) decomposition arrays, the
    precomputed B powers and the last rows of the partial-sum matrices."""

    def __init__(self, params):
        if params.group_order > GROUP_GUARD:
            raise ValueError(
                f"group order {params.group_order} exceeds the enumeration guard {GROUP_GUARD}"
            )
        self.params = params
        p, k = params.p, params.k
        m = params.num_points
        self.points = _point_array(params)
        self.weights = np.array([p ** (k - 1 - j) for j in range(k)], dtype=np.int64)
        self.b_pows = [None] + [b_power(k, p, i).A for i in range(1, p + 1)]
        # w_r . Omega(k,i) = r * (last row of Omega(k,i))
        last_rows = [omega_sum(k, p, i).A[-1] for i in range(1, p + 1)]
        self.omega_last = np.stack([np.zeros(k, np.uint8)] + last_rows)

        # exponent blocks in order i = p, 1, 2, ..., p-1 so that the
        # identity (u = 0, B^p = I) lands at index 0
        self.block_exponents = [p] + list(range(1, p))
        n = params.group_order
        u_vecs = np.zeros((n, k), dtype=np.uint8)
        i_vals = np.zeros(n, dtype=np.int64)
        mats = np.zeros((n, k + 1, k + 1), dtype=np.uint8)
        mats[:, 0, 0] = 1
        for s, i in enumerate(self.block_exponents):
            sl = slice(s * m, (s + 1) * m)
            u_vecs[sl] = self.points
            i_vals[sl] = i
            mats[sl, 0, 1:] = self.points
            mats[sl, 1:, 1:] = self.b_pows[i]
        self.u_vecs = u_vecs
        self.i_vals = i_vals
        super().__init__(params.field, mats)

    def _encode_points(self, vecs):
        return vecs.astype(np.int64) @ self.weights

    def _index_of_ui_arrays(self, u_vecs, i_vals):
        p, m = self.params.p, self.params.num_points
        s = np.where(i_vals == p, 0, i_vals)
        return s * m + self._encode_points(u_vecs)

    def element_index(self, u, i) -> int:
        u = np.asarray(u, dtype=np.int64) % self.params.p
        i = _norm_exponent(self.params.p, i)
        return int(self._index_of_ui_arrays(u.reshape(1, -1), np.array([i]))[0])

    def element(self, idx) -> AffineElement:
        return AffineElement(
            matrix=self.matrix(idx),
            i=int(self.i_vals[idx]),
            u=tuple(int(x) for x in self.u_vecs[idx]),
        )

    def product_index(self, a, b) -> int:
        """Index of the product element a * b."""
        p = self.params.p
        ia, ib = int(self.i_vals[a]), int(self.i_vals[b])
        u = (self.u_vecs[b].astype(np.int64) + self.u_vecs[a].astype(np.int64) @ self.b_pows[ib]) % p
        return self.element_index(u, ia + ib)

    def twist_translations(self, r):
        """Top-row blocks of the r-twisted elements: u + r * w(i)."""
        p = self.params.p
        w = self.omega_last[self.i_vals]
        return (self.u_vecs.astype(np.int64) + r * w.astype(np.int64)) % p

    def twisted_perm_table(self, r):
        """Permutation images (N, m) of every element under the r-twist."""
        p, m = self.params.p, self.params.num_points
        n = len(self)
        t_all = self.twist_translations(r)
        out = np.zeros((n, m), dtype=np.min_scalar_type(m - 1))
        for s, i in enumerate(self.block_exponents):
            sl = slice(s * m, (s + 1) * m)
            pb = self.points.astype(np.int64) @ self.b_pows[i] % p
            imgs = (pb[None, :, :] + t_all[sl][:, None, :]) % p
            out[sl] = self._encode_points(imgs)
        return out

    def fixed_count_table(self):
        """Honest fixed-point counts (N, p): column r counts the points
        fixed by the r-twist of each element, by enumerating the action."""
        p, m = self.params.p, self.params.num_points
        counts = np.zeros((len(self), p), dtype=np.int64)
        enc = self._encode_points
        for s, i in enumerate(self.block_exponents):
            sl = slice(s * m, (s + 1) * m)
            diff = (self.points.astype(np.int64) - self.points.astype(np.int64) @ self.b_pows[i]) % p
            hist = np.bincount(enc(diff % p), minlength=m)
            w = self.omega_last[i].astype(np.int64)
            for r in range(p):
                t = (self.points.astype(np.int64) + r * w) % p
                counts[sl, r] = hist[enc(t)]
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


def twisted_representation(group: AffineGroup, r) -> Representation:
    return Representation(group, group.twisted_perm_table(r))


def twisted_family(group: AffineGroup):
    """The ordered list (r = 0, 1, ..., p-1) of twisted representations;
    r = 0 is the natural action."""
    return [twisted_representation(group, r) for r in range(group.params.p)]


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
    ia, ib = group.i_vals[a], group.i_vals[b]
    i3 = (ia + ib - 1) % p + 1
    bp = np.stack(group.b_pows[1:])  # B^1 .. B^p
    ua, ub = group.u_vecs[a].astype(np.int64), group.u_vecs[b].astype(np.int64)
    ok = True
    for r in range(p):
        wa = r * group.omega_last[ia].astype(np.int64)
        wb = r * group.omega_last[ib].astype(np.int64)
        w3 = r * group.omega_last[i3].astype(np.int64)
        twa, twb = (ua + wa) % p, (ub + wb) % p
        # product of the twisted pair, versus the twist of the product
        lhs = (twb + np.einsum("nk,nkl->nl", twa, bp[ib - 1])) % p
        plain = (ub + np.einsum("nk,nkl->nl", ua, bp[ib - 1])) % p
        rhs = (plain + w3) % p
        ok &= bool((lhs == rhs).all())
    checks["twist_automorphism"] = ok
    tau0 = group._index_of_ui_arrays(group.twist_translations(0), group.i_vals)
    checks["twist_identity_r0"] = bool((tau0 == np.arange(n)).all())
    coverage["twist_identity_r0"] = "exhaustive"


def _check_fixed_points(group, fix, sums, checks):
    """Fixed-point dichotomy and the per-twist support pattern, from the
    honest counts: column r of fix holds |fix| of the r-twist, and sums
    are support_scan's summed supports of the non-identity elements."""
    p, m = group.params.p, group.params.num_points
    i_vals = group.i_vals[1:]
    u_last = group.u_vecs[1:, -1].astype(np.int64)
    nat = fix[1:, 0]
    checks["fixed_point_dichotomy"] = bool(np.isin(nat, (0, p)).all())
    expect_p = (i_vals != p) & (u_last == 0)
    checks["fixed_point_rule"] = bool(((nat == p) == expect_p).all())

    # exponent p means every twist is fixed-point-free; otherwise
    # exactly one r (the solution of u_k + i r = 0) gives support m - p.
    rows = fix[1:]
    ip_mask = i_vals == p
    ok = bool((rows[ip_mask] == 0).all())
    mv = rows[~ip_mask]
    ok &= bool(((mv == p).sum(axis=1) == 1).all()) and bool(np.isin(mv, (0, p)).all())
    i_inv = np.array([0] + [pow(int(i), p - 2, p) for i in range(1, p)], dtype=np.int64)
    r_pred = (-u_last[~ip_mask] * i_inv[i_vals[~ip_mask] % p]) % p
    ok &= bool((mv[np.arange(len(mv)), r_pred] == p).all())
    checks["twist_support_pattern"] = ok

    tw_min = p * m - p
    checks["support_sum_dichotomy"] = bool(np.isin(sums, (tw_min, p * m)).all())
    checks["faithful_natural_action"] = bool((fix[1:, 0] < m).all())


def build_affine_twisted(params: AffineParams, check="fast", rng_seed=1):
    """Construct the p-twisted affine code and its verification report.

    check="fast" runs the closed-form and support-scan suite; check="all"
    additionally materialises the code and runs the pairwise-distance
    oracle, distance invariance, and the letter-count (FPA) property.
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
    flat = group.elements.reshape(len(group), -1)  # one byte string per matrix: distinct matrices counted
    checks["group_order"] = len(np.unique(flat.view(f"V{flat.shape[1]}"))) == p ** (k + 1)
    checks["block_structure"] = bool(
        (group.elements[:, 1:, 0] == 0).all()
        and (group.elements[:, 0, 0] == 1).all()
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

    return finish_build(
        group, fix, lambda: twisted_family(group), family="affine", params={"p": p, "k": k},
        m=m, deltas=(delta_tw, delta_rep), checks=checks, times=times, coverage=coverage, check=check, rng=rng,
    )
