"""Independent oracles shared by the tests; they share no code with the
packed kernels and gathered tables they certify.

- Scalar references for the index API: hamming_distance (one pair of
  codewords), transvection (one Sp(4, q) transvection as a Matrix),
  affine_matrix (one affine element's matrix, from its decomposition),
  affine_product_index (the index of a product, from the decompositions),
  mulclose (a dict-based closure) and min_distance_all_pairs.
- The affine references affine_element_matrices, affine_twisted_elements,
  affine_twisted_table and affine_twist_index, assembled one element at a
  time.
- usable_cores, which sets the core count the threaded kernels split
  their work by.
- The row-based references of the key-based Sp(4, q) kernels: the same
  algorithms on packed (N, 4) row arrays, unthreaded.  These read the
  same PackedOps tables as the kernels, so they certify how the kernels
  read rows off keys, not the tables.
- dense_tau_apply, tau through the dense exterior square, the reference
  for _tau_keys' wedge table.
- lookup_sorted and sorted_key_index, binary search in the group's sorted
  keys, the reference of SymplecticSpace.index_block's arithmetic rank.
- sorted_key_invariance, the reference of check_distance_invariance, and
  write_code_lines and read_code_lines, the line-by-line references of the
  codeword file writer and reader."""

import itertools

import numpy as np

from twistcode import _packed
from twistcode.affine import matrix_B
from twistcode.codes import FORMAT_MAGIC, Code, CodewordFileError, _parse_header, row_keys
from twistcode.linalg import Matrix, WEDGE_PAIRS
from twistcode.symplectic import GRAM


def hamming_distance(a, b) -> int:
    """Number of positions where two equal-length codewords differ."""
    return int((np.asarray(a) != np.asarray(b)).sum())


def transvection(space, v, lam) -> Matrix:
    """The symplectic transvection x -> x + lam B(x, v) v of Sp(4, q), one
    entry at a time: row i is e_i + lam B(e_i, v) v, and B(e_i, v) is
    v[i ^ 1], as the form pairs e1 with f1 and e2 with f2."""
    f = space.field
    rows = [[int(i == j) ^ f.mul(f.mul(lam, int(v[i ^ 1])), int(v[j])) for j in range(4)] for i in range(4)]
    return Matrix(f, rows)


def affine_matrix(group, j) -> Matrix:
    """The matrix [[1, u], [0, B^i]] of affine element j, from its
    decomposition (u, i) and the group's powers of B."""
    u, i = group.decompose(j)
    k = group.params.k
    mat = np.eye(k + 1, dtype=np.uint8)
    mat[0, 1:] = u
    mat[1:, 1:] = group.b_pows[i]
    return Matrix(group.params.field, mat)


def affine_product_index(group, a, b) -> int:
    """Index of the product g_a g_b by the product rule of the matrices
    [[1, u], [0, B^i]]: (u_a, i_a)(u_b, i_b) = (u_b + u_a B^(i_b), i_a + i_b)."""
    (ua, ia), (ub, ib) = group.decompose(a), group.decompose(b)
    u = (ub.astype(np.int64) + ua.astype(np.int64) @ group.b_pows[ib]) % group.params.p
    return group.element_index(u, int(ia + ib))


def lookup_sorted(ranked, values):
    """Position of each value in the ascending, nonempty array ranked, -1
    where it is absent."""
    pos = np.searchsorted(ranked, values)
    np.minimum(pos, len(ranked) - 1, out=pos)
    pos[ranked[pos] != values] = -1
    return pos


def sorted_key_index(keys, queries):
    """Element index of each query in a group's keys (the identity's first,
    then ascending), -1 where no element has it: a binary search in
    keys[1:], shifted by one, with the identity's key answered as 0."""
    pos = lookup_sorted(keys[1:], queries)
    pos[pos >= 0] += 1
    pos[queries == keys[0]] = 0
    return pos


def mulclose(generators):
    """Closure of a list of Matrix generators under multiplication.

    Plain dict-based breadth-first closure, the order oracle for small
    groups.  Returns matrices in discovery order with the identity first.
    """

    if not generators:
        raise ValueError("need at least one generator")
    ident = Matrix.identity(generators[0].field, generators[0].rows)
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for g in frontier:
            for s in generators:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    order.append(h)
                    new.append(h)
        frontier = new
    return order


def affine_element_matrices(group):
    """(N, k+1, k+1) element matrices, assembled one affine_matrix(group, j) at a time."""
    return np.stack([affine_matrix(group, j).A for j in range(len(group))])


def affine_twisted_elements(group, r):
    """(N, k+1, k+1) matrices of the r-twisted affine elements, straight
    from the element matrices: [[1, u], [0, B^i]] gains r times the last
    row of I + B + ... + B^(i-1) in its top block.  The exponent i is read
    off the matrix (entry (2, 1) is i mod p) and the sum is taken term by
    term."""
    p, k = group.params.p, group.params.k
    B = matrix_B(k, p)
    power, acc, last_rows = Matrix.identity(B.field, k), Matrix.zeros(B.field, k), []
    for _ in range(p):
        acc = acc + power
        power = power * B
        last_rows.append(acc.A[-1].astype(np.int64))  # i = 1, ..., p
    mats = affine_element_matrices(group).astype(np.int64)
    i = mats[:, 2, 1].copy()
    i[i == 0] = p
    mats[:, 0, 1:] = (mats[:, 0, 1:] + r * np.stack(last_rows)[i - 1]) % p
    return mats


def affine_twisted_table(group, r):
    """(N, m) image table of the r-twists, one element at a time: point
    (1, v) goes to (1, v) M for the twisted matrix M, and points are
    numbered by their lexicographic rank in GF(p)^k."""
    p, k = group.params.p, group.params.k
    rank = p ** np.arange(k - 1, -1, -1)
    points = np.array(list(np.ndindex(*(p,) * k)), dtype=np.int64)
    homog = np.concatenate([np.ones((len(points), 1), dtype=np.int64), points], axis=1)
    return np.stack([(homog @ mat % p)[:, 1:] @ rank for mat in affine_twisted_elements(group, r)])


def affine_twist_index(group, r):
    """tau_r as an index permutation: the index of each twisted element
    matrix among the group's element matrices."""
    where = {mat.tobytes(): j for j, mat in enumerate(affine_element_matrices(group))}
    return np.array([where[mat.astype(np.uint8).tobytes()] for mat in affine_twisted_elements(group, r)])


def usable_cores(monkeypatch, cores):
    """Make _packed.usable_cores, which parallel_map and min_distance_pairwise
    size their workers by, report `cores` CPUs."""
    monkeypatch.setattr(_packed, "usable_cores", lambda: cores)


def min_distance_all_pairs(code):
    """The least hamming_distance over every unordered pair of codewords,
    one pair at a time; 0 with fewer than two codewords."""
    return min((hamming_distance(a, b) for a, b in itertools.combinations(code.words, 2)), default=0)


def sorted_key_invariance(code, rows):
    """The sorted-key reference of check_distance_invariance, from plain
    code rows: codeword s, read block by block, is a column permutation
    sigma_s (a Hamming isometry), the code gathered through sigma_s must
    hold the code's rows (its sorted row_keys equal the code's, argsorted
    here), so sigma_s maps each row to a row, and a set-based search along
    these row maps must reach every row from row 0.  In a group code
    sigma_s maps the codeword of x to that of s x."""
    if code.size <= 1:
        return True
    if code.length % code.q:
        return False
    q, keys = code.q, row_keys(code.words)
    order = np.argsort(keys)
    maps = []
    for s in rows:
        perm = code.words[s].reshape(-1, q).astype(np.intp) - 1
        if not (np.sort(perm, axis=1) == np.arange(q)).all():
            return False
        moved = row_keys(np.take(code.words, (q * np.arange(len(perm))[:, None] + perm).ravel(), axis=1))
        moved_order = np.argsort(moved)
        if not (moved[moved_order] == keys[order]).all():
            return False
        row_map = np.empty(code.size, dtype=np.intp)
        row_map[moved_order] = order  # gathered row x is codeword row_map[x]
        maps.append(row_map)
    reached, frontier = {0}, {0}
    while frontier:
        frontier = {int(row_map[x]) for x in frontier for row_map in maps} - reached
        reached |= frontier
    return len(reached) == code.size


def write_code_lines(path, code, family, params, r=1):
    """The line writer: write_code's file, one Python join per codeword."""
    param_str = " ".join(f"{k}={v}" for k, v in params.items())
    with open(path, "w") as fh:
        fh.write(FORMAT_MAGIC + "\n")
        fh.write(
            f"# family={family} {param_str} r={r} "
            f"q={code.q} length={code.length} size={code.size}\n"
        )
        strs = [str(i) for i in range(code.q + 1)]
        for row in code.words.tolist():
            fh.write(" ".join([strs[x] for x in row]) + "\n")


def read_code_lines(path):
    """The line parser: read_code for any file, one line and symbol at a time."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta, q, length, size = _parse_header(lines)
    rows = []
    for ln, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        if len(rows) == size:
            raise CodewordFileError(ln, f"more codewords than the header's size={size}")
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise CodewordFileError(ln, "non-integer symbol") from None
        if len(row) != length:
            raise CodewordFileError(ln, f"expected {length} symbols, got {len(row)}")
        if min(row) < 1 or max(row) > q:
            raise CodewordFileError(ln, f"symbol out of range 1..{q}")
        rows.append(row)
    if not rows:
        raise CodewordFileError(len(lines) + 1, "no codewords")
    if size is not None and len(rows) != size:
        raise CodewordFileError(len(lines) + 1, f"{len(rows)} codewords, the header's size={size}")
    words = np.asarray(rows, dtype=np.min_scalar_type(q))
    return Code(words, q), meta


def row_ranks(ops, rows):
    """Rank of each packed (N, 4) row set by forward elimination: pivot row
    i scaled to a leading 1 (canon) and cleared from every later row at its
    leading entry's shift (lead_shift)."""
    smul = ops.smul.ravel()
    r = [rows[:, i].copy() for i in range(4)]
    for i in range(3):
        p = ops.canon[r[i]]
        s = ops.lead_shift[p]
        for j in range(i + 1, 4):
            r[j] ^= smul[(((r[j] >> s) & ops.mask) << ops.row_bits) | p]
    rank = np.zeros(rows.shape[0], dtype=np.int8)
    for row in r:
        rank += row != 0
    return rank


def row_span_ranks(ops, rows):
    """row_ranks from ops.span_tables: the ids of span(g_0, g_1) and
    span(g_2, g_3), each from its two packed rows, then the dimension of
    their sum."""
    pair_span, sum_rank = ops.span_tables
    high = pair_span[(rows[:, 0] << ops.row_bits) | rows[:, 1]]
    low = pair_span[(rows[:, 2] << ops.row_bits) | rows[:, 3]]
    return sum_rank[high, low]


def row_fixed_counts(ops, rows):
    """Fixed projective points of each packed (N, 4) row set, from the
    eigenspace dimensions q^(4 - rank(g + lam I)) over lam != 0."""
    q = ops.field.order
    counts = np.zeros(rows.shape[0], dtype=np.int64)
    for lam in range(1, q):
        rank = row_ranks(ops, rows ^ ops.pack(lam * np.eye(4, dtype=np.uint8)))
        counts += (q ** (4 - rank.astype(np.int64)) - 1) // (q - 1)
    return counts


def row_rank_one_flags(ops, rows, offset=0):
    """rank(g + M) == 1 for packed (N, 4) rows g and packed 4-row M."""
    return row_ranks(ops, rows ^ offset) == 1


def row_perm_tables(ops, rows):
    """(N, m) point images of packed (N, 4) rows: the point-major (m, N)
    table, one point at a time, transposed."""
    out = np.empty((len(ops.point_codes), rows.shape[0]), dtype=ops.point_index.dtype)
    for j, v in enumerate(ops.unpack(ops.point_codes)):
        img = np.zeros(rows.shape[0], dtype=np.uint32)
        for k in np.flatnonzero(v):
            img ^= ops.smul[v[k]][rows[:, k]]
        out[j] = ops.point_index[img]
    return out.T


def row_preserves_form(ops, rows):
    """g . Gram . g^T == Gram for packed (N, 4) rows: B(g_i, g_j) over all
    i, j, from the entries and the field's multiplication table."""
    mul = ops.field.mul_table
    g = ops.unpack(rows)
    ok = np.ones(rows.shape[0], dtype=bool)
    for i in range(4):
        for j in range(4):
            b = np.zeros(rows.shape[0], dtype=np.uint8)
            for k, l in zip(*np.nonzero(GRAM)):
                b ^= mul[g[:, i, k], g[:, j, l]]
            ok &= b == GRAM[i, j]
    return ok


def dense_tau_apply(field, basis_lift, coords, mats):
    """tau of a (N, 4, 4) batch through the dense exterior square: wedge
    each matrix, push the lifted quotient basis through it and read
    coordinates.  The complement coordinate must vanish, or the invariant
    5-space is not invariant."""
    mul = field.mul_table
    lam = _packed.batch_exterior_square(mul, mats, WEDGE_PAIRS)
    y = _packed.batch_matmul(mul, _packed.batch_matmul_left(mul, basis_lift, lam), coords)
    if y[:, :, 5].any():
        raise ValueError("exterior action leaves the invariant 5-space")
    return y[:, :, :4]
