"""Vectorized GF(2^n) kernels on bit-packed row vectors.

A length-L row vector over GF(2^n) is packed into one integer code with
entry 0 in the highest bits, so numeric order on codes equals
lexicographic order on coordinate tuples.  Addition of vectors is XOR of
codes; row-times-matrix products and scalar multiples become single
table lookups, which is what makes the million-element group scans cheap.

All functions are pure.  fixed_counts and rank_one_flags split their rows
into row_blocks and run them on every usable core (parallel_map); the
other kernels take the batch they get, and the builders run the large
ones inside parallel_map bodies of their own.
"""

from __future__ import annotations

import os
import threading
from functools import cached_property

import numpy as np


WEDGE_TABLE_LIMIT = 1 << 24  # entries of wedge_table: q^8 for 4-rows over GF(q)
PAIR_TABLE_LIMIT = 1 << 16  # entries of a table over two packed 4-rows (q <= 4) or four field entries (q <= 16)
ROW_CHUNK = 1 << 16  # rows per block of the per-element row kernels (rank, tau rows, tau pairs)


def chunks(n, size):
    for i in range(0, n, size):
        yield slice(i, min(i + size, n))


def usable_cores():
    """The CPUs this process may run on: its affinity set, where the OS keeps one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def row_blocks(n):
    """Slices of n rows for parallel_map, ROW_CHUNK // usable_cores() rows
    each, so the blocks the workers hold at once add up to about one
    ROW_CHUNK block of temporaries."""
    return chunks(n, max(1, ROW_CHUNK // usable_cores()))


def parallel_map(body, blocks):
    """[body(b) for b in blocks], on W = min(usable_cores(), len(blocks))
    threads: worker w takes blocks w, w + W, w + 2W, ..., and the calling
    thread is worker 0, so a single block starts no thread.  Threads, not
    processes: numpy releases the GIL in its array loops.  A block that
    raises stops every worker before its next block above it (the blocks
    below still run), and once all workers are joined the exception of
    the lowest failing block is raised: the one a serial loop meets first,
    whatever the core count.  A body must not call a function that
    perfbench/tracer.py wraps, whose one span stack assumes strictly
    nested calls: traced kernels are entered on the calling thread and
    split their own rows through parallel_map."""
    blocks = list(blocks)
    workers = max(1, min(usable_cores(), len(blocks)))
    results = [None] * len(blocks)
    errors = {}
    lowest = len(blocks)  # the lowest failing block so far
    lock = threading.Lock()

    def run(w):
        nonlocal lowest
        for i in range(w, len(blocks), workers):
            if i > lowest:
                return
            try:
                results[i] = body(blocks[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc
                    lowest = min(lowest, i)
                return

    started = []
    try:
        for w in range(1, workers):
            started.append(threading.Thread(target=run, args=(w,)))
            started[-1].start()
        run(0)
    except BaseException:  # a thread that could not start
        lowest = -1
        raise
    finally:
        for t in started:
            if t.ident is not None:
                t.join()
    if errors:
        raise errors[min(errors)]
    return results


def first_of_runs(ranked):
    """True at the first element of each run of equal values in a sorted 1-D
    array (void row keys too), so ranked[first_of_runs(ranked)] is what
    np.unique returns, without its hash path, slow on large integer arrays."""
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return first


def lookup_sorted(ranked, values):
    """Position of each value in the ascending, nonempty array ranked, -1
    where it is absent; in place on its one index array."""
    pos = np.searchsorted(ranked, values)
    np.minimum(pos, len(ranked) - 1, out=pos)
    pos[ranked[pos] != values] = -1
    return pos


class PackedOps:
    """Packing tables for length-L rows over one BinaryField."""

    def __init__(self, field, length):
        n = field.n
        if n * length > 16:
            raise ValueError("packed row would exceed 16 bits")
        self.field = field
        self.length = length
        self.row_bits = n * length
        self.ncodes = 1 << self.row_bits
        self.mask = (1 << n) - 1
        self.shifts = [n * (length - 1 - j) for j in range(length)]
        self.key_dtype = np.uint32 if 4 * self.row_bits <= 32 else np.uint64

    def pack(self, vecs):
        vecs = np.asarray(vecs, dtype=np.uint32)
        out = np.zeros(vecs.shape[:-1], dtype=np.uint32)
        for j, sh in enumerate(self.shifts):
            out |= vecs[..., j] << sh
        return out

    def unpack(self, codes):
        codes = np.asarray(codes, dtype=np.uint32)
        out = np.zeros(codes.shape + (self.length,), dtype=np.uint8)
        for j, sh in enumerate(self.shifts):
            out[..., j] = (codes >> sh) & self.mask
        return out

    @cached_property
    def smul(self):
        """(q, ncodes) table: scalar times packed row."""
        q = self.field.order
        mul = self.field.mul_table
        codes = np.arange(self.ncodes, dtype=np.uint32)
        entries = [(codes >> sh) & self.mask for sh in self.shifts]
        out = np.zeros((q, self.ncodes), dtype=np.uint32)
        for s in range(q):
            acc = np.zeros(self.ncodes, dtype=np.uint32)
            for sh, e in zip(self.shifts, entries):
                acc ^= mul[s, e].astype(np.uint32) << sh
            out[s] = acc
        out.setflags(write=False)
        return out

    @cached_property
    def canon(self):
        """Projective canonicalisation: scale so the leftmost nonzero entry
        is 1; zero maps to zero."""
        codes = np.arange(self.ncodes, dtype=np.uint32)
        entries = self.unpack(codes)
        first = np.zeros(self.ncodes, dtype=np.uint8)
        for j in range(self.length):
            sel = (first == 0) & (entries[:, j] != 0)
            first[sel] = entries[sel, j]
        inv = np.zeros(self.field.order, dtype=np.uint8)
        inv[1:] = self.field.inv_table[1:]
        out = self.smul[inv[first], codes]
        out.setflags(write=False)
        return out

    @cached_property
    def lead_shift(self):
        """(ncodes,) table: the shift of a code's leftmost nonzero entry;
        zero maps to 0."""
        codes = np.arange(self.ncodes, dtype=np.uint32)
        out = np.zeros(self.ncodes, dtype=np.uint32)
        for sh in reversed(self.shifts):  # leftmost entry written last
            out[((codes >> sh) & self.mask) != 0] = sh
        out.setflags(write=False)
        return out

    @cached_property
    def span_tables(self):
        """(pair_span, sum_rank): pair_span maps packed r0||r1 (r0 in the
        high bits) to the id of span(r0, r1), numbering the two-row reduced
        row echelon forms in ascending order (id 0 the zero space), and the
        (n, n) sum_rank[a, b] is dim(span a + span b), so the rank of a
        4-row matrix is three gathers, the last at the flat index a n + b."""
        mask = self.ncodes - 1
        pairs = np.arange(self.ncodes**2, dtype=np.uint32)
        r0, r1 = pairs >> self.row_bits, pairs & mask
        p0 = self.canon[r0]
        r1 ^= self.smul[(r1 >> self.lead_shift[p0]) & self.mask, p0]
        p1 = self.canon[r1]
        p0 ^= self.smul[(p0 >> self.lead_shift[p1]) & self.mask, p1]
        # the two reduced rows, leftmost leading entry (larger code) first
        forms, pair_span = np.unique((np.maximum(p0, p1) << self.row_bits) | np.minimum(p0, p1), return_inverse=True)
        n = len(forms)
        sum_rank = np.empty(n * n, dtype=np.int8)
        for sl in chunks(n * n, ROW_CHUNK):
            ab = np.arange(sl.start, sl.stop)
            a, b = forms[ab // n], forms[ab % n]
            sum_rank[sl] = _ranks(self, np.stack([a >> self.row_bits, a & mask, b >> self.row_bits, b & mask], axis=1))
        pair_span = pair_span.astype(np.uint32)
        sum_rank = sum_rank.reshape(n, n)
        pair_span.setflags(write=False)
        sum_rank.setflags(write=False)
        return pair_span, sum_rank

    @cached_property
    def point_codes(self):
        """The projective points: ascending canonical nonzero codes, which is
        lexicographic order on their coordinate tuples."""
        codes = np.arange(1, self.ncodes, dtype=np.uint32)
        codes = codes[self.canon[codes] == codes]
        codes.setflags(write=False)
        return codes

    @cached_property
    def point_index(self):
        """(ncodes,) table from a nonzero code to the index of its point in
        point_codes; zero maps to the sentinel m = len(point_codes)."""
        m = len(self.point_codes)
        rank = np.full(self.ncodes, m, dtype=np.min_scalar_type(m))
        rank[self.point_codes] = np.arange(m)
        out = rank[self.canon]
        out.setflags(write=False)
        return out

    def rmul_table(self, B):
        """(ncodes,) table mapping packed row v to packed v @ B."""
        B = np.asarray(B, dtype=np.uint8)
        mul = self.field.mul_table
        q = self.field.order
        contrib = np.zeros((self.length, q), dtype=np.uint32)
        for j in range(self.length):
            contrib[j] = self.pack(mul[np.arange(q)[:, None], B[j][None, :]])
        codes = np.arange(self.ncodes, dtype=np.uint32)
        acc = np.zeros(self.ncodes, dtype=np.uint32)
        for j, sh in enumerate(self.shifts):
            acc ^= contrib[j][(codes >> sh) & self.mask]
        return acc

    def pack_keys(self, rows):
        rows = np.asarray(rows)
        keys = np.zeros(rows.shape[0], dtype=self.key_dtype)
        for i in range(rows.shape[1]):
            keys |= rows[:, i].astype(self.key_dtype) << (self.row_bits * (rows.shape[1] - 1 - i))
        return keys

    def unpack_keys(self, keys, nrows=4):
        rows = np.zeros((len(keys), nrows), dtype=np.uint32)
        mask = self.ncodes - 1
        for i in range(nrows):
            rows[:, i] = (keys >> (self.row_bits * (nrows - 1 - i))) & mask
        return rows


def rows_matmul(ops: PackedOps, A, B):
    """Row-wise product of two packed (N, L) batches: row i of A @ B is the
    XOR over k of entry (i, k) of A times row k of B, one smul lookup each."""
    smul = ops.smul.ravel()
    out = np.empty(A.shape, dtype=np.uint32)
    for i in range(ops.length):
        acc = np.zeros(A.shape[0], dtype=np.uint32)
        for k, sh in enumerate(ops.shifts):
            acc ^= smul[(((A[:, i] >> sh) & ops.mask) << ops.row_bits) | B[:, k]]
        out[:, i] = acc
    return out


def wedge_table(ops: PackedOps, ops6: PackedOps, coords, pairs):
    """(ncodes**2,) table from packed u||v (u in the high bits) to the packed
    6-row (u^v) . coords, u^v on the wedge-pair basis.  Refused before
    anything is allocated when it would exceed WEDGE_TABLE_LIMIT entries."""
    size = ops.ncodes**2
    if size > WEDGE_TABLE_LIMIT:
        raise ValueError(f"wedge table of {size} entries exceeds {WEDGE_TABLE_LIMIT}")
    mul = ops.field.mul_table
    uv = np.arange(size, dtype=np.uint32)
    u = ops.unpack(uv >> ops.row_bits)
    v = ops.unpack(uv & (ops.ncodes - 1))
    coord_rows = ops6.pack(coords)
    out = np.zeros(size, dtype=np.uint32)
    for b, (k, l) in enumerate(pairs):
        out ^= ops6.smul[mul[u[:, k], v[:, l]] ^ mul[u[:, l], v[:, k]], coord_rows[b]]
    return out


def wedge_rows(ops: PackedOps, ops6: PackedOps, table, rows, lift, pairs):
    """Packed 6-rows of lift . L(g) . coords for a packed (N, 4) batch g, where
    L(g) is the exterior square and table = wedge_table(ops, ops6, coords,
    pairs).  Row a = (i, j) of L(g) is g_i ^ g_j, so row r of the result is
    the XOR over a of lift[r, a] times table[g_i || g_j]."""
    smul = ops6.smul
    wedges = [table[(rows[:, i] << ops.row_bits) | rows[:, j]] for i, j in pairs]
    out = np.zeros((rows.shape[0], len(lift)), dtype=np.uint32)
    for r, lift_row in enumerate(lift):
        for c, w in zip(lift_row, wedges):
            if c:
                out[:, r] ^= smul[c][w]
    return out


# The dense kernels.  A parallel_map body calls the private ones: the public
# batch_* names are the entry points perfbench/tracer.py wraps, so they are
# called on the calling thread only.


def _matmul_fixed(mul, A, B):
    """(N, r, s) batch times a fixed (s, t) matrix: term k gathers rows of
    the (q, t) table mul[:, B[k]] at the entries of column k of A."""
    out = np.zeros(A.shape[:2] + B.shape[1:], dtype=mul.dtype)
    for k in range(B.shape[0]):
        out ^= np.take(mul[:, B[k]], A[:, :, k], axis=0)
    return out


def _matmul_each(mul, A, B):
    """(N, r, s) batch times per-element (N, s, t) batch: the XOR over k of
    the entrywise products of column k of A and row k of B, one (N, r, t)
    term at a time."""
    q = mul.shape[0]
    flat = mul.ravel()
    out = np.zeros((A.shape[0], A.shape[1], B.shape[2]), dtype=mul.dtype)
    for k in range(B.shape[1]):
        out ^= flat[A[:, :, k, None].astype(np.intp) * q + B[:, None, k, :]]
    return out


def _matmul_left(mul, C, B):
    """Fixed (r, s) matrix times per-element (N, s, t) batch, as the
    transpose of B^T . C^T."""
    return np.ascontiguousarray(_matmul_fixed(mul, B.transpose(0, 2, 1), C.T).transpose(0, 2, 1))


def _exterior_square(mul, mats, pairs):
    """Exterior-square matrices of a (N, 4, 4) batch on the wedge-pair
    basis; characteristic 2, so the sign terms are XORs.  Entry ((i, j),
    (k, l)) is the 2 x 2 minor g_ik g_jl ^ g_il g_jk: one gather from the
    q^4-entry table of a b ^ c d, at the uint16 index abcd in base q.
    Refused before anything is allocated when q^4 would exceed
    PAIR_TABLE_LIMIT (q > 16)."""
    q = mul.shape[0]
    if q**4 > PAIR_TABLE_LIMIT:
        raise ValueError(f"minor table of {q**4} entries exceeds {PAIR_TABLE_LIMIT}")
    n = q.bit_length() - 1
    minors = (mul[:, :, None, None] ^ mul[None, None, :, :]).ravel()
    k, l = np.array(pairs).T
    m = mats.astype(np.uint16)
    out = np.empty((mats.shape[0], len(pairs), len(pairs)), dtype=np.uint8)
    for a, (i, j) in enumerate(pairs):  # one output row at a time keeps the index arrays small
        idx = m[:, i, k] << 3 * n
        idx |= m[:, j, l] << 2 * n
        idx |= m[:, i, l] << n
        idx |= m[:, j, k]
        out[:, a] = np.take(minors, idx)
    return out


def batch_matmul(mul, A, B):
    """Exact product over GF(2^n) via the field's q x q table.

    A is (N, r, s); B is either a fixed (s, t) matrix or a per-element
    (N, s, t) batch.  Returns (N, r, t) (_matmul_fixed, _matmul_each).
    Callers chunk N.
    """

    return _matmul_fixed(mul, A, B) if B.ndim == 2 else _matmul_each(mul, A, B)


def batch_matmul_left(mul, C, B):
    """Fixed (r, s) matrix times per-element (N, s, t) batch (_matmul_left)."""
    return _matmul_left(mul, C, B)


def batch_exterior_square(mul, mats, pairs):
    """Exterior-square matrices of a (N, 4, 4) batch (_exterior_square)."""
    return _exterior_square(mul, mats, pairs)


def closure(ops: PackedOps, gen_mats, limit):
    """Level-order closure of the generated matrix group.

    gen_mats is (G, 4, 4) uint8.  Each level forms all G products of every
    key on the frontier straight from the key: every packed-row field of
    the key is looked up in the generators' row tables, pre-shifted into
    place, and the four results are ORed.  Candidates are sorted and
    deduplicated (first_of_runs); those lookup_sorted misses in the sorted
    `seen` array are merged into it and form the next frontier.  Returns
    (rows, keys) in canonical order: the identity first, then ascending
    key, whatever the generators.  Raises once more than `limit` elements
    are found.
    """

    kd = ops.key_dtype
    tables = np.stack([ops.rmul_table(B) for B in np.asarray(gen_mats, dtype=np.uint8)]).T.astype(kd)
    shifts = [kd(ops.row_bits * (3 - i)) for i in range(4)]
    # (ncodes, G) per key field: row code -> product row, already shifted into place
    field_tables = [tables << sh for sh in shifts]
    field_mask = kd(ops.ncodes - 1)
    id_key = ops.pack_keys(ops.pack(np.eye(4, dtype=np.uint8)).reshape(1, 4))
    seen = frontier = id_key
    while frontier.size:
        out = field_tables[0][frontier >> shifts[0]]  # the top field needs no mask
        for t, sh in zip(field_tables[1:], shifts[1:]):
            out |= t[(frontier >> sh) & field_mask]
        cand = np.sort(out, axis=None)
        cand = cand[first_of_runs(cand)]
        frontier = cand[lookup_sorted(seen, cand) < 0]
        if seen.size + frontier.size > limit:
            raise RuntimeError(f"closure exceeded the limit {limit}")
        # two ascending runs: the stable sort (timsort) merges them in one pass
        seen = np.concatenate([seen, frontier])
        seen.sort(kind="stable")
    at = int(np.searchsorted(seen, id_key[0]))
    keys = np.concatenate([id_key, seen[:at], seen[at + 1 :]])
    return ops.unpack_keys(keys), keys


def _ranks(ops: PackedOps, rows):
    """Per-row rank of a packed (N, 4) batch of 4 x 4 matrices, by forward
    elimination on the four row columns.  Pivot row i is scaled to a leading
    1 (canon) and cleared from every later row at its leading entry's shift
    (lead_shift); a zero pivot clears nothing.  Later rows are then zero at
    every earlier pivot's leading position, so the nonzero rows left are
    independent and the rank is their count."""
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


def _span_ranks(ops: PackedOps, rows):
    """_ranks of a packed (N, 4) batch from ops.span_tables: the ids of
    span(g_0, g_1) and span(g_2, g_3), then the dimension of their sum."""
    pair_span, sum_rank = ops.span_tables
    ids = np.take(pair_span, (rows[:, 0] << ops.row_bits) | rows[:, 1])
    ids *= sum_rank.shape[0]
    ids += np.take(pair_span, (rows[:, 2] << ops.row_bits) | rows[:, 3])
    return np.take(sum_rank, ids)


def _rank_kernel(ops: PackedOps):
    """_span_ranks while its pair table is small (q <= 4 for 4-rows), else
    the elimination _ranks; the tables it reads are computed here, before
    any worker reads them."""
    if ops.ncodes**2 <= PAIR_TABLE_LIMIT:
        ops.span_tables
        return _span_ranks
    ops.smul, ops.canon, ops.lead_shift
    return _ranks


def fixed_counts(ops: PackedOps, rows):
    """Per-element count of projective points fixed setwise by the packed
    (N, 4) batch rows, from eigenspace dimensions: <v> is fixed iff
    v . g = lam v for exactly one lam != 0, and the eigenspace of lam holds
    (q^(4 - rank(g + lam I)) - 1) / (q - 1) points (characteristic 2, so
    g - lam I = g + lam I).  The kernel vectors of a singular g (lam = 0)
    are not fixed points.  On every usable core."""
    q = ops.field.order
    ranks = _rank_kernel(ops)
    points_by_rank = np.array([(q ** (4 - k) - 1) // (q - 1) for k in range(5)], dtype=np.int16)
    scalars = [ops.pack(lam * np.eye(4, dtype=np.uint8)) for lam in range(1, q)]
    counts = np.zeros(rows.shape[0], dtype=np.int16)

    def count(sl):
        for lam in scalars:
            counts[sl] += points_by_rank[ranks(ops, rows[sl] ^ lam)]

    parallel_map(count, row_blocks(rows.shape[0]))
    return counts


def perm_tables(ops: PackedOps, rows):
    """(N, m) permutation images (point indices) of the projective action.
    Row j of the point-major (m, N) table is the point index of v . g for
    the j-th point <v>, assembled from scalar-multiple tables of g's rows
    and looked up in ops.point_index; the transposed view is returned."""
    smul = ops.smul
    index = ops.point_index
    out = np.empty((len(ops.point_codes), rows.shape[0]), dtype=index.dtype)
    for j, v in enumerate(ops.unpack(ops.point_codes)):
        img = None
        for k in np.flatnonzero(v):
            term = smul[v[k]][rows[:, k]]
            img = term if img is None else img ^ term
        out[j] = index[img]
    return out.T


def rank_one_flags(ops: PackedOps, rows, offset=0):
    """True where the packed (N, 4) row sets, each XORed with the packed
    4-row offset (g + M, which is g - M in characteristic 2), span exactly
    one dimension.  On every usable core, with no (N, 4) sum array."""
    ranks = _rank_kernel(ops)
    flags = np.empty(rows.shape[0], dtype=bool)

    def flag(sl):
        flags[sl] = ranks(ops, rows[sl] ^ offset) == 1

    parallel_map(flag, row_blocks(rows.shape[0]))
    return flags
