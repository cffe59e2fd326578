"""Vectorized GF(2^n) kernels on bit-packed row vectors.

A row vector of four entries over GF(2^n) is packed into one integer code
with entry 0 in the highest bits, so numeric order on codes equals
lexicographic order on coordinate tuples.  Addition of vectors is XOR of
codes; row-times-matrix products and scalar multiples become single
table lookups, which is what makes the million-element group scans cheap.

A 4 x 4 matrix is held as its key: its four packed rows in one uint32,
row 0 in the highest bits, which bounds the field at GF(4) (PackedOps).
Every table over two packed rows then has at most 2^16 entries.  The
per-element kernels read row fields straight off keys as contiguous 1-D
arrays: keys_matmul its entries and rows, PackedOps.row_pair a pair
g_i || g_j, the span-id rank key >> 2 row_bits and key & (ncodes^2 - 1);
only _ranks and perm_tables unpack one block of keys into (N, 4) rows
(unpack_keys).

All functions are pure.  fixed_counts, rank_one_flags and perm_tables
split their keys into row_blocks and run them on every usable core
(parallel_map), as closure does with each level's frontier and
span_tables with its sum_rank entries; the other kernels take the batch
they get.  The builders run keys_matmul inside parallel_map bodies of
their own, and the dense batch_* kernels on the calling thread, on the
few generators only.
"""

from __future__ import annotations

import os
import threading
from functools import cached_property

import numpy as np


ROW_CHUNK = 1 << 16  # rows per block of the per-element row kernels (rank, tau rows; a pair of the tau checks is four)


def chunks(n, size):
    for i in range(0, n, size):
        yield slice(i, min(i + size, n))


def usable_cores():
    """The CPUs this process may run on: its affinity set, where the OS keeps one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def row_blocks(n, width=1):
    """Slices of n items of `width` rows each for parallel_map,
    ROW_CHUNK // (width * usable_cores()) items each (at least one), so
    the blocks the workers hold at once add up to about one ROW_CHUNK
    block of rows' temporaries."""
    return chunks(n, max(1, ROW_CHUNK // (width * usable_cores())))


def parallel_map(body, blocks):
    """[body(b) for b in blocks], on W = min(usable_cores(), len(blocks))
    threads: worker w takes blocks w, w + W, w + 2W, ..., and the calling
    thread is worker 0, so a single block starts no thread.  Threads, not
    processes: numpy releases the GIL in its array loops.  A block that
    raises stops every worker before its next block above it (the blocks
    below still run), and once all workers are joined the exception of
    the lowest failing block is raised: the one a serial loop meets first,
    whatever the core count.  A body must not call a function that
    perfbench/tracer.py wraps (the batch_* dense kernels and the staged
    builders among them), whose one span stack assumes strictly nested
    calls: traced kernels are entered on the calling thread and split
    their own rows through parallel_map."""
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


def is_permutation(index):
    """True iff the 1-D integer array index permutes 0..len(index)-1: every
    entry is in range, and a mask of the n entries seen has no gap."""
    n = len(index)
    if n and (np.min(index) < 0 or np.max(index) >= n):
        return False
    seen = np.zeros(n, dtype=bool)
    seen[index] = True
    return bool(seen.all())


class PackedOps:
    """Packing tables for 4-rows over one BinaryField, GF(2) or GF(4):
    larger fields are refused before anything is built, since their four
    packed rows would not fit one uint32 key."""

    key_dtype = np.uint32

    def __init__(self, field):
        n = field.n
        if n > 2:
            raise ValueError(f"four packed rows over GF(2^{n}) exceed a 32-bit key")
        self.field = field
        self.row_bits = 4 * n
        self.ncodes = 1 << self.row_bits
        self.mask = (1 << n) - 1
        self.shifts = [n * (3 - j) for j in range(4)]

    def pack(self, vecs):
        vecs = np.asarray(vecs, dtype=np.uint32)
        out = np.zeros(vecs.shape[:-1], dtype=np.uint32)
        for j, sh in enumerate(self.shifts):
            out |= vecs[..., j] << sh
        return out

    def unpack(self, codes):
        codes = np.asarray(codes, dtype=np.uint32)
        out = np.zeros(codes.shape + (4,), dtype=np.uint8)
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
        for j in range(4):
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
        forms = forms.astype(self.key_dtype)
        n = len(forms)
        sum_rank = np.empty(n * n, dtype=np.int8)

        def fill(sl):
            ab = np.arange(sl.start, sl.stop)
            sum_rank[sl] = _ranks(self, (forms[ab // n] << 2 * self.row_bits) | forms[ab % n])

        parallel_map(fill, row_blocks(n * n))  # _ranks reads smul, canon and lead_shift, all computed above
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
        contrib = np.zeros((4, q), dtype=np.uint32)
        for j in range(4):
            contrib[j] = self.pack(mul[np.arange(q)[:, None], B[j][None, :]])
        codes = np.arange(self.ncodes, dtype=np.uint32)
        acc = np.zeros(self.ncodes, dtype=np.uint32)
        for j, sh in enumerate(self.shifts):
            acc ^= contrib[j][(codes >> sh) & self.mask]
        return acc

    def unpack_keys(self, keys):
        """(N, 4) uint32 packed rows of these keys."""
        rows = np.zeros((len(keys), 4), dtype=np.uint32)
        mask = self.ncodes - 1
        for i in range(4):
            rows[:, i] = (keys >> (self.row_bits * (3 - i))) & mask
        return rows

    def row_pair(self, keys, i, j):
        """Packed g_i || g_j (g_i in the high bits), rows i < j, of each key:
        a table index over two packed rows, read off the key's fields."""
        mask = self.ncodes - 1
        pair = (keys >> self.row_bits * (2 - i)) & (mask << self.row_bits)
        pair |= (keys >> self.row_bits * (3 - j)) & mask
        return pair

    def keys_of(self, mats):
        """Keys of a (N, 4, 4) batch of entries, or of one 4 x 4 matrix as a
        (1,) array."""
        rows = self.pack(mats).reshape(-1, 4)
        keys = np.zeros(len(rows), dtype=self.key_dtype)
        for row in rows.T:
            keys <<= self.row_bits
            keys |= row
        return keys

    def matrices_of(self, keys):
        """(N, 4, 4) uint8 entries of the matrices with these keys."""
        return self.unpack(self.unpack_keys(keys))

    @cached_property
    def identity_key(self):
        return self.keys_of(np.eye(4, dtype=np.uint8))[0]


def keys_matmul(ops: PackedOps, a_keys, b_keys):
    """Keys of the products a . b of two equal-length batches of keys.  Row
    i of a product is the XOR over k of entry (i, k) of a times row k of b:
    16 gathers from smul shifted into row i's field, at (entry << row_bits)
    | row k, both read off the keys, so no rows are unpacked or packed."""
    rb, n = ops.row_bits, ops.field.n
    smul = ops.smul.ravel().astype(ops.key_dtype)
    b_rows = [(b_keys >> rb * (3 - k)) & (ops.ncodes - 1) for k in range(4)]
    out = np.zeros(len(a_keys), dtype=ops.key_dtype)
    for i in range(4):
        table = smul << rb * (3 - i)
        for k, row in enumerate(b_rows):
            at = (a_keys >> rb * (3 - i) + n * (3 - k)) & ops.mask
            at <<= rb
            at |= row
            out ^= np.take(table, at)
    return out


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
    term at a time.  The flat index a q + b fits uint16 (q <= 256), and
    indexing casts a uint16 index array in buffered pieces, so no (N, r, t)
    intp index array is built."""
    q = mul.shape[0]
    flat = mul.ravel()
    out = np.zeros((A.shape[0], A.shape[1], B.shape[2]), dtype=mul.dtype)
    for k in range(B.shape[1]):
        idx = A[:, :, k, None].astype(np.uint16) * np.uint16(q)
        out ^= flat[idx + B[:, None, k, :]]
    return out


def batch_matmul(mul, A, B):
    """Exact product over GF(2^n) via the field's q x q table.

    A is (N, r, s); B is either a fixed (s, t) matrix or a per-element
    (N, s, t) batch.  Returns (N, r, t) (_matmul_fixed, _matmul_each).
    Callers chunk N.
    """

    return _matmul_fixed(mul, A, B) if B.ndim == 2 else _matmul_each(mul, A, B)


def batch_matmul_left(mul, C, B):
    """Fixed (r, s) matrix times per-element (N, s, t) batch, as the
    transpose of B^T . C^T through _matmul_fixed, not batch_matmul, so a
    tracer wrapping both counts one span per call."""
    return np.ascontiguousarray(_matmul_fixed(mul, B.transpose(0, 2, 1), C.T).transpose(0, 2, 1))


def batch_exterior_square(mul, mats, pairs):
    """Exterior-square matrices of a (N, 4, 4) batch on the wedge-pair
    basis; characteristic 2, so the sign terms are XORs.  Entry ((i, j),
    (k, l)) is the 2 x 2 minor g_ik g_jl ^ g_il g_jk: one gather from the
    q^4-entry table of a b ^ c d, at the index abcd in base q, formed in
    the narrowest unsigned type that holds it."""
    q = mul.shape[0]
    n = q.bit_length() - 1
    minors = (mul[:, :, None, None] ^ mul[None, None, :, :]).ravel()
    k, l = np.array(pairs).T
    m = mats.astype(np.min_scalar_type(len(minors) - 1))
    out = np.empty((mats.shape[0], len(pairs), len(pairs)), dtype=np.uint8)
    for a, (i, j) in enumerate(pairs):  # one output row at a time keeps the index arrays small
        idx = m[:, i, k] << 3 * n
        idx |= m[:, j, l] << 2 * n
        idx |= m[:, i, l] << n
        idx |= m[:, j, k]
        out[:, a] = np.take(minors, idx)
    return out


def closure(ops: PackedOps, gen_mats, index_block, size):
    """Level-order closure of the matrix group that gen_mats ((G, 4, 4)
    uint8) generates in a group of `size` elements, each level on every
    usable core; index_block(keys, out) writes each key's element index
    (int32, negative for a non-element).  Each generator has four 1-D
    tables, one per key field, mapping a packed row to the product row
    already shifted into place, so a product is four gathers ORed.  A
    block of the frontier (row_blocks, parallel_map) takes its four fields
    once (in the smallest dtype that holds a row code), writes its G
    products into one (G, F) buffer and stores each at its index, raising
    when one is not an element.  A zero key (the zero matrix is no
    element) marks an unreached slot; workers that meet one element write
    the same bytes, and the next frontier is the slots the level filled.
    Returns (levels, keys): the frontier size of each level, the
    identity's 1 first, and the reached keys in index order, whatever the
    generators and the core count."""

    kd = ops.key_dtype
    shifts = [kd(ops.row_bits * (3 - i)) for i in range(4)]
    tables = [[ops.rmul_table(B).astype(kd) << sh for sh in shifts] for B in np.asarray(gen_mats, dtype=np.uint8)]
    code_dtype = np.min_scalar_type(ops.ncodes - 1)
    field_mask = kd(ops.ncodes - 1)
    keys = np.zeros(size, dtype=kd)

    def store(new):
        at = np.empty(len(new), dtype=np.int32)
        index_block(new, at)
        if (at < 0).any():
            raise ValueError("a product of the generators is not an element")
        keys[at] = new

    def products(sl):
        block = frontier[sl]
        fields = [(block >> shifts[0]).astype(code_dtype)]  # the top field needs no mask
        fields += [((block >> sh) & field_mask).astype(code_dtype) for sh in shifts[1:]]
        cand = np.empty((len(tables), len(block)), dtype=kd)
        term = np.empty(len(block), dtype=kd)
        # every field is below ncodes, the table length, so "clip" never
        # clips; it spares the bounds check and the buffered `out` of "raise"
        for out, gen_tables in zip(cand, tables):
            np.take(gen_tables[0], fields[0], out=out, mode="clip")
            for t, f in zip(gen_tables[1:], fields[1:]):
                out |= np.take(t, f, out=term, mode="clip")
        store(cand.ravel())

    frontier = np.full(1, ops.identity_key, dtype=kd)
    store(frontier)  # on the calling thread, which builds what index_block reads
    levels = []
    while frontier.size:
        levels.append(frontier.size)
        fresh = keys == 0
        parallel_map(products, row_blocks(frontier.size))
        fresh &= keys != 0
        frontier = keys[fresh]
    return levels, keys if sum(levels) == size else keys[keys != 0]


def _ranks(ops: PackedOps, keys):
    """Per-element rank of a block of 4 x 4 matrices given by their keys, by
    forward elimination on the four row fields, unpacked from the block.
    Pivot row i is scaled to a leading 1 (canon) and cleared from every
    later row at its leading entry's shift (lead_shift); a zero pivot
    clears nothing.  Later rows are then zero at every earlier pivot's
    leading position, so the nonzero rows left are independent and the
    rank is their count."""
    smul = ops.smul.ravel()
    r = ops.unpack_keys(keys).T.copy()
    for i in range(3):
        p = ops.canon[r[i]]
        s = ops.lead_shift[p]
        for j in range(i + 1, 4):
            r[j] ^= smul[(((r[j] >> s) & ops.mask) << ops.row_bits) | p]
    return np.count_nonzero(r, axis=0).astype(np.int8)


def _span_ranks(ops: PackedOps, keys):
    """_ranks of a block of keys from ops.span_tables: the ids of
    span(g_0, g_1) and span(g_2, g_3), read straight off the key as its
    high and low pair of rows, then the dimension of their sum."""
    pair_span, sum_rank = ops.span_tables
    ids = np.take(pair_span, keys >> 2 * ops.row_bits)
    ids *= sum_rank.shape[0]
    ids += np.take(pair_span, keys & (ops.ncodes**2 - 1))
    return np.take(sum_rank, ids)


def fixed_counts(ops: PackedOps, rows, out=None):
    """Per-element count of projective points fixed setwise by the matrices
    whose keys are `rows` (one key per element), from
    eigenspace dimensions: <v> is fixed iff v . g = lam v for exactly one
    lam != 0, and the eigenspace of lam holds (q^(4 - rank(g + lam I)) - 1)
    / (q - 1) points (characteristic 2, so g - lam I = g + lam I, and the
    key of g + lam I is the key of g XOR that of lam I).  The kernel
    vectors of a singular g (lam = 0) are not fixed points.  On every
    usable core, into an int16 array, or into out when one is given (an
    (N,) integer array, a table's column will do): the points_by_rank
    terms are added in out's dtype, and every integer dtype holds m, the
    identity's count (85 at q = 4); an out that is not an integer array
    is refused before any block runs."""
    ops.span_tables  # built here, before any worker reads it
    q = ops.field.order
    counts = np.empty(rows.shape[0], dtype=np.int16) if out is None else out
    if counts.dtype.kind not in "iu":
        raise ValueError(f"fixed counts need an integer out array, not {counts.dtype}")
    points_by_rank = np.array([(q ** (4 - k) - 1) // (q - 1) for k in range(5)], dtype=counts.dtype)
    scalars = ops.keys_of(np.arange(1, q)[:, None, None] * np.eye(4, dtype=np.uint8))

    def count(sl):
        counts[sl] = 0
        for lam in scalars:
            counts[sl] += points_by_rank[_span_ranks(ops, rows[sl] ^ lam)]

    parallel_map(count, row_blocks(rows.shape[0]))
    return counts


def perm_tables(ops: PackedOps, keys):
    """(N, m) permutation images (point indices) of the projective action,
    written row-major one block of keys at a time, on every usable core.
    Entry (g, j) is the point index (ops.point_index) of v . g for the j-th
    point <v>, the XOR over k of v_k times row k of g.  Table k maps a
    packed row r to the m images v_k r, so a block's images are four row
    gathers."""
    m = len(ops.point_codes)
    index = ops.point_index
    points = ops.unpack(ops.point_codes)
    code_dtype = np.min_scalar_type(ops.ncodes - 1)
    tables = [np.ascontiguousarray(ops.smul[points[:, k]].T, dtype=code_dtype) for k in range(4)]
    out = np.empty((len(keys), m), dtype=index.dtype)

    def fill(sl):
        rows = ops.unpack_keys(keys[sl])
        img = np.take(tables[0], rows[:, 0], axis=0)
        for k in range(1, 4):
            img ^= np.take(tables[k], rows[:, k], axis=0)
        out[sl] = index[img]  # a uint8/uint16 index array is cast in buffered pieces, np.take would copy it to intp

    parallel_map(fill, row_blocks(len(keys)))
    return out


def rank_one_flags(ops: PackedOps, rows, offset=0):
    """True where the matrices whose keys are `rows`, each plus the matrix
    with key `offset` (g + M, which is g - M in characteristic 2: one XOR
    of keys), have rank exactly one.  On every usable core, with no sum
    array over all rows."""
    ops.span_tables  # built here, before any worker reads it
    flags = np.empty(rows.shape[0], dtype=bool)

    def flag(sl):
        flags[sl] = _span_ranks(ops, rows[sl] ^ offset) == 1

    parallel_map(flag, row_blocks(rows.shape[0]))
    return flags
