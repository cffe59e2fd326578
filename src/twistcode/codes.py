"""Permutation codes from group representations.

A group element t with permutation image rho(t) is encoded as the passive
form (1^rho(t), ..., q^rho(t)); a twisted code concatenates the passive
forms of rho and of rho . tau for automorphisms tau, read from rho's one
table through tau's index permutation of the group.  Minimum distance is
computed three ways: a support-sum scan over group elements (valid
whenever the joint kernel is trivial), the least distance from codeword 0
once check_distance_invariance has certified it against the group's right
multiplication (behind the check="all" oracles), and a plain
symbol-compare pairwise scan, the independent oracle of `dist`.

Both families run one pipeline, recording every check in one
report.BuildRecord: support_scan turns their (N, r) fixed-point table
into delta_tw and delta_rep, and finish_build wraps the report in a
TwistedBuild and runs the check="all" oracles.

Permutations are 0-based numpy index arrays internally; codeword symbols
are 1-based, matching the codeword file format.
"""

from __future__ import annotations

import io
import math
import os
import re
import threading

import numpy as np

from . import _packed
from ._packed import chunks, first_of_runs
from .report import VerificationReport, coverage_value

FORMAT_MAGIC = "# twistcode v1"
BLOCK_ENTRIES = 1 << 22  # entries per block of rows (bijection checks, codeword scans) or per pairwise tile; file I/O takes 1/16
CODE_BYTES_GUARD = 1 << 28  # max |C| * length for materialised codewords
EXHAUSTIVE_PAIR_LIMIT = 1 << 20  # max n^2 for the exhaustive element-pair checks
LANE_WORDS = 255  # uint64 words of a bool mask summed at once: 255 ones fill a byte lane
LOW_BYTES = 0x00FF00FF00FF00FF
LINE_END = re.compile(rb"\r\n?|\n")  # the line ends _line_blocks cuts a file at


def sample_pairs(n, rng, samples):
    """Element index pairs (a, b) for a check over the n^2 ordered pairs:
    all of them when n^2 <= EXHAUSTIVE_PAIR_LIMIT, otherwise `samples`
    uniform draws (a, then b).  Returns (a, b, coverage)."""
    if n * n <= EXHAUSTIVE_PAIR_LIMIT:
        a = np.repeat(np.arange(n), n)
        b = np.tile(np.arange(n), n)
    else:
        a = rng.integers(0, n, size=samples)
        b = rng.integers(0, n, size=samples)
    return a, b, coverage_value(len(a), n * n)


class NontrivialKernelError(ValueError):
    """The joint kernel of the twisted representations is nontrivial, so
    the support-sum formula does not compute the code's minimum distance."""


def row_keys(words):
    """One byte string per row of a 2-D array: a (N,) void view, so numpy
    sorts, deduplicates and compares whole rows, exactly (two keys are
    equal iff their rows are).  No hash, so no collision to resolve."""
    words = np.ascontiguousarray(words)
    return words.view(f"V{words.shape[1] * words.itemsize}").ravel()


def _row_blocks(n, width):
    """Slices of n rows of `width` entries, about BLOCK_ENTRIES per slice (at least one row)."""
    return chunks(n, max(1, BLOCK_ENTRIES // max(width, 1)))


def _frozen(a):
    """A read-only view of a; a itself, maybe the caller's array, stays writeable."""
    view = a.view()
    view.setflags(write=False)
    return view


def _rows_sort_to(rows, target):
    """True iff every row of a 2-D integer array sorts to the 1-D target."""
    # "stable" selects radix sort on 8- and 16-bit tables
    return bool((np.sort(rows, axis=1, kind="stable") == target).all())


def _rows_are_permutations(rows):
    """True iff every row of a 2-D integer array permutes 0..len(row)-1."""
    return _rows_sort_to(rows, np.arange(rows.shape[1]))


class CodewordFileError(ValueError):
    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Representation:
    """Permutation representation of an enumerated group: one image array
    per element index, over a fixed point domain."""

    def __init__(self, group, perms):
        perms = np.ascontiguousarray(perms)
        if perms.ndim != 2 or perms.shape[0] != len(group):
            raise ValueError("need one permutation per group element")
        q = perms.shape[1]
        ident = np.arange(q)
        if not (perms[0] == ident).all():
            raise ValueError("identity element must act as the identity permutation")
        self.sizes = np.empty(perms.shape[0], dtype=np.intp)  # support size of each element's image
        for sl in _row_blocks(perms.shape[0], q):
            if not _rows_are_permutations(perms[sl]):
                raise ValueError("some image array is not a bijection")
            self.sizes[sl] = np.count_nonzero(perms[sl] != ident, axis=1)
        self.perms = _frozen(perms)


class Code:
    """Deduplicated codeword list over alphabet {1..q}; rows are 1-based.
    Each duplicate row keeps its first occurrence, so the rows are
    distinct."""

    def __init__(self, words, q):
        words = np.ascontiguousarray(words)
        if words.ndim != 2:
            raise ValueError("words must be a 2-D array")
        if not words.shape[1]:  # row_keys has no key for a zero-width row
            raise ValueError("codewords must have at least one symbol")
        if words.size and (words.min() < 1 or words.max() > q):
            raise ValueError("codeword symbol out of alphabet range")
        keys = row_keys(words)
        order = np.argsort(keys, kind="stable")
        first = np.empty(len(order), dtype=bool)
        for sl in _row_blocks(len(order), words.shape[1]):  # a block of sorted keys at a time, no sorted copy
            lo = max(sl.start - 1, 0)  # and the key before it
            first[sl] = first_of_runs(keys[order[lo : sl.stop]])[sl.start - lo :]
        if not first.all():
            words = words[np.sort(order[first])]
        self.words = _frozen(words)
        self.q = q

    @property
    def size(self):
        return self.words.shape[0]

    @property
    def length(self):
        return self.words.shape[1]

    def __len__(self):
        return self.size


def build_twisted_code(rep: Representation, automorphisms=()) -> Code:
    """The code of rep twisted by automorphisms, each an index permutation t
    of the group (tau(g_j) = g_t[j]): block 0 of a codeword is rep's passive
    form, block b that of rep . tau_b, written from rep's rows gathered
    through t_b.  Rows of a checked table are bijections; each t is checked
    to permute 0..n-1, with t[0] acting as the identity."""
    n, q = rep.perms.shape
    for t in automorphisms:
        if np.shape(t) != (n,):
            raise ValueError(f"an automorphism index of shape {np.shape(t)} does not permute {n} elements")
        if not _packed.is_permutation(t):
            raise ValueError(f"an automorphism index is not a permutation of 0..{n - 1}")
        if not (rep.perms[t[0]] == np.arange(q)).all():
            raise ValueError("identity element must act as the identity permutation")
    words = np.empty((n, q * (1 + len(automorphisms))), dtype=np.min_scalar_type(q))
    for sl in _row_blocks(n, words.shape[1]):
        for b, rows in enumerate([sl] + [t[sl] for t in automorphisms]):
            np.add(rep.perms[rows], 1, out=words[sl, b * q : (b + 1) * q], casting="unsafe")
    return Code(words, q)


def min_distance_pairwise(code: Code) -> int:
    """Exact minimum over all unordered codeword pairs; 0 if |C| <= 1.

    A plain symbol compare, tile by tile, on every usable core
    (_packed.parallel_map): a tile pairs a block of R rows with a later
    (or the same) block, and each row block is swept with all its later
    partners by one worker (block i has n_blocks - i of them, and the
    workers take the blocks strided, which balances the work).
    R = isqrt(BLOCK_ENTRIES // (cores * L8)) for the length L8 rounded up
    to a multiple of 8, so each worker's mismatch mask fills at most
    BLOCK_ENTRIES // cores bytes of one reused buffer, and memory stays
    O(BLOCK_ENTRIES) in all.  Both blocks are copied into the worker's
    zero-padded buffers of the code's dtype (equal pads add no mismatch),
    and the mask is counted by _mismatch_counts, eight bytes to a uint64
    word.  The result is the least block minimum: every pair is compared
    once whatever the core count and tiling, so it is the same on every
    machine."""
    W = code.words
    n, length = W.shape
    if n <= 1:
        return 0
    width = -(-length // 8) * 8
    rows = max(1, math.isqrt(BLOCK_ENTRIES // _packed.usable_cores() // width))
    blocks = list(chunks(n, rows))
    buffers = threading.local()  # each worker's pads and mask, made at its first block

    def sweep(i):
        if not hasattr(buffers, "mask"):
            buffers.pads = np.zeros((2, rows, width), dtype=W.dtype)
            buffers.mask = np.empty(rows * rows * width, dtype=bool)
        (pad_a, pad_b), mask = buffers.pads, buffers.mask
        a = blocks[i]
        ra = a.stop - a.start
        pad_a[:ra, :length] = W[a]
        best = length + 1
        for b in blocks[i:]:
            rb = b.stop - b.start
            if b is not a:
                pad_b[:rb, :length] = W[b]
            ne = mask[: ra * rb * width].reshape(ra, rb, width)
            np.not_equal(pad_a[:ra, None], (pad_a if b is a else pad_b)[None, :rb], out=ne)
            d = _mismatch_counts(ne.view(np.uint64))
            if b is a:  # each pair once, and no codeword against itself
                d[np.tril_indices(ra)] = length + 1
            best = min(best, int(np.min(d)))
        return best

    return min(_packed.parallel_map(sweep, range(len(blocks))))


def _mismatch_counts(words):
    """Per row of a (..., g) uint64 view of a bool mask, its number of true
    bytes: the words are summed LANE_WORDS at a time, each byte lane adding
    at most one per word so none overflows, and each partial sum's eight
    lanes are folded into one count."""
    total = 0
    for sl in chunks(words.shape[-1], LANE_WORDS):
        x = np.add.reduce(words[..., sl], axis=-1)
        x = (x & LOW_BYTES) + ((x >> 8) & LOW_BYTES)  # four 16-bit lanes
        total += (x * 0x0001000100010001) >> 48  # their sum, in the top lane
    return total


def distance_row(code: Code, i) -> np.ndarray:
    """Hamming distance from codeword i to every codeword."""
    out = np.empty(code.size, dtype=np.int64)
    for sl in _row_blocks(code.size, code.length):
        out[sl] = (code.words[sl] != code.words[i]).sum(axis=1)
    return out


def check_distance_invariance(code: Code, *, generators) -> bool:
    """Certificate, from the codewords alone, that every codeword has the
    same distance distribution (Bailey, "Error-correcting codes from
    permutation groups", Discrete Math. 309, 2009).  generators are
    (s, step) pairs.  Codeword s must be blocks of permutations of 1..q, so
    relabelling each block's symbols through codeword s's block is a
    Hamming isometry f_s, and every row x, relabelled, must equal row
    step(x) (step maps an index array, as in reaches_all), a block of rows
    at a time on every usable core, and step must permute the rows
    (_packed.is_permutation of its image of 0..n-1).  True iff all pass, and
    the steps reach every row from row 0: a group of isometries acts
    transitively, so the minimum distance is row 0's least nonzero one.
    Sufficient, not necessary: a pass proves invariance whatever the pairs.
    In a group code f_s maps the codeword of x to that of x s, so
    generating elements s with steps x -> x s pass."""
    if code.size <= 1:
        return True
    if code.length % code.q:
        return False
    n, q, words = code.size, code.q, code.words
    images = []
    for s, step in generators:
        tables = np.insert(words[s].reshape(-1, q), 0, 0, axis=1)  # tables[b, v]: symbol v of block b, relabelled
        image = step(np.arange(n))
        if not _rows_sort_to(tables[:, 1:], np.arange(1, q + 1)) or not _packed.is_permutation(image):
            return False

        def agrees(sl):
            moved = words[image[sl]]
            return all((np.take(table, words[sl, cols], mode="clip") == moved[:, cols]).all()
                       for table, cols in zip(tables, chunks(code.length, q)))

        if not all(_packed.parallel_map(agrees, _row_blocks(n, code.length * _packed.usable_cores()))):
            return False
        images.append(image.__getitem__)
    return reaches_all(n, images)


def reaches_all(n, steps):
    """True iff a breadth-first search from index 0 reaches every index
    0..n-1, where each step maps an index array to the indices one edge
    away.  The frontier is kept as a boolean mask over the n indices
    (np.unique on it is an order of magnitude slower)."""
    reached, fresh = np.zeros((2, n), dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        for edge in steps:
            fresh[edge(frontier)] = True
        np.greater(fresh, reached, out=fresh)  # fresh and not reached
        frontier = np.flatnonzero(fresh)
        reached[frontier] = True
        fresh[frontier] = False
    return bool(reached.all())


def _block_sizes(rep, automorphisms):
    """Support sizes per element in each block: rep's, then rep's gathered through each t."""
    return [rep.sizes] + [rep.sizes[t] for t in automorphisms]


def summed_supports(rep, automorphisms=()):
    """Per element, the support sizes summed over the blocks: zero exactly
    on the joint kernel."""
    return sum(_block_sizes(rep, automorphisms))


def min_distance_by_support(rep, automorphisms=()) -> int:
    """Identity-anchored scan: min over non-identity t of the summed
    support sizes.  Raises NontrivialKernelError when the formula does not
    apply (some non-identity element acts trivially in every block)."""
    total = summed_supports(rep, automorphisms)
    kernel = int((total == 0).sum())
    if kernel != 1:
        raise NontrivialKernelError(f"joint kernel has {kernel} elements; support scan does not equal delta")
    return int(total[1:].min()) if len(total) > 1 else 0


def repetition_lower_bound(rep, automorphisms=()) -> int:
    """min over the blocks' rho of delta(Rep_r(C(T, rho))) = r * minimal degree of rho."""
    blocks = _block_sizes(rep, automorphisms)
    if not all(sizes.any() for sizes in blocks):
        raise NontrivialKernelError("representation is trivial")
    return len(blocks) * min(int(sizes[sizes > 0].min()) for sizes in blocks)


def check_code_size(rep, automorphisms, code: Code) -> bool:
    """|C| * |K| = |T| with K the joint kernel."""
    return code.size * int((summed_supports(rep, automorphisms) == 0).sum()) == len(rep.sizes)


def letter_counts_constant(code: Code, r) -> bool:
    """Frequency permutation array property: every letter occurs exactly r
    times in every codeword, i.e. every row sorts to 1..q each repeated r
    times; one sort per block of rows."""
    if code.length != r * code.q:
        return False
    # in the builders' symbol dtype, so the compare runs without a cast
    letters = np.repeat(np.arange(1, code.q + 1, dtype=np.min_scalar_type(code.q)), r)
    return all(_rows_sort_to(code.words[sl], letters) for sl in _row_blocks(code.size, code.length))


class TwistedBuild:
    """Result of a twisted-code construction: the report, the (N, r)
    fixed-point table it was scanned from (column j counts the points each
    element fixes under the j-th twist), and the lazily made twisting and
    code (unpacks as (code, report))."""

    def __init__(self, group, report, fix, make_twisting):
        self.group = group
        self.report = report
        self.fix = fix
        self._make_twisting = make_twisting
        self._twisting = None
        self._code = None

    @property
    def twisting(self):
        """(natural, automorphisms): the natural Representation and the
        index permutation t of each twisting automorphism, tau(g_j) = g_t[j]."""
        if self._twisting is None:
            nbytes = len(self.group) * self.report.length
            if nbytes > CODE_BYTES_GUARD:
                raise ValueError(
                    f"materialising this code needs {nbytes} symbols, over the guard {CODE_BYTES_GUARD}"
                )
            self._twisting = self._make_twisting()
        return self._twisting

    @property
    def code(self) -> Code:
        if self._code is None:
            self._code = build_twisted_code(*self.twisting)
        return self._code

    def __iter__(self):
        return iter((self.code, self.report))


def support_scan(fix, m):
    """Support scan over an (N, r) fixed-point table on m points, identity
    in row 0: delta_tw is the least summed support of a non-identity
    element, delta_rep is r times the least single support.  Returns
    (sums, (delta_tw, delta_rep)), sums[t - 1] belonging to element t,
    in the narrowest type that holds r * m, the largest sum:
    np.min_scalar_type(r * m), which is unsigned (uint8 at Sp(4, 4), uint16
    at affine (11, 2)), so they are compared, never subtracted."""
    sums = np.zeros(len(fix) - 1, dtype=np.min_scalar_type(fix.shape[1] * m))
    # column by column, ROW_CHUNK rows at a time: a row-wise sum reduces each short row on its own
    for sl in chunks(len(sums), _packed.ROW_CHUNK):
        block, out = fix[sl.start + 1 : sl.stop + 1], sums[sl]
        for c in range(fix.shape[1]):
            np.add(out, block[:, c], out=out, dtype=out.dtype, casting="unsafe")
    np.subtract(fix.shape[1] * m, sums, out=sums)  # in place, and no (N, r) copy of the supports
    return sums, (int(sums.min()), fix.shape[1] * (m - int(fix[1:].max())))


def check_delta_formulas(rec, deltas, expected):
    """Record delta_tw, delta_rep and their gap against the closed forms
    expected = (delta_tw, delta_rep)."""
    (delta_tw, delta_rep), (want_tw, want_rep) = deltas, expected
    rec.check("delta_tw_formula", delta_tw == want_tw)
    rec.check("delta_rep_formula", delta_rep == want_rep)
    rec.check("gap_formula", delta_tw - delta_rep == want_tw - want_rep)


ORACLES = (
    "code_size_faithful", "fpa_letter_counts", "pairwise_delta_agrees",
    "support_scan_agrees", "repetition_bound_agrees", "distance_invariant",
)  # the check="all" checks of finish_build, in report order


def finish_build(group, fix, make_twisting, rec, *, family, params, m, deltas, generators):
    """Assemble the report over the build record rec and the build
    (make_twisting returns its twisting).  At check level "all" it then
    materialises the code and certifies the scan independently and
    exhaustively: letter counts, distance invariance certified from the
    (row, step) pairs generators() of generating elements (x -> x s), the
    pairwise minimum as row 0's, the support scan and the repetition bound.
    When a check has already failed, the twisting may not even be a group
    automorphism, so nothing is materialised: every oracle is reported
    FAIL, with coverage 'skipped'."""
    delta_tw, delta_rep = deltas
    n, r = len(group), fix.shape[1]
    report = VerificationReport(
        family, params, reps=r, alphabet=m, length=r * m, code_size=n,
        delta_tw=delta_tw, delta_rep=delta_rep, record=rec,
    )
    build = TwistedBuild(group, report, fix, make_twisting)
    if rec.level != "all":
        return build
    if not report.all_pass():
        for name in ORACLES:
            rec.check(name, False, "skipped")
        return build

    with rec.stage("materialise"):
        rep, automorphisms = build.twisting
        code = build.code
    report.code_size = code.size
    rec.check("code_size_faithful", check_code_size(rep, automorphisms, code) and code.size == n)
    with rec.stage("letter_counts"):
        rec.check("fpa_letter_counts", letter_counts_constant(code, r), "exhaustive")
    with rec.stage("invariance"):
        invariant = check_distance_invariance(code, generators=generators())
    with rec.stage("pairwise"):
        least = int(distance_row(code, 0)[1:].min(initial=code.length + 1))
    rec.check("pairwise_delta_agrees", invariant and least == delta_tw, "exhaustive")
    rec.check("support_scan_agrees", min_distance_by_support(rep, automorphisms) == delta_tw)
    rec.check("repetition_bound_agrees", repetition_lower_bound(rep, automorphisms) == delta_rep)
    rec.check("distance_invariant", invariant, "exhaustive")
    return build


def write_code(path, code: Code, family, params, r=1):
    """Codeword file format v1 (see README): two comment headers, then one
    codeword per line as 1-based integers.  Each block of rows, about
    BLOCK_ENTRIES // 16 symbols, is gathered from a table of space-ended
    tokens (_token_table) by indexing with the symbols themselves (np.take
    would copy them to intp first), its last space per row turned into a
    newline, and written without the zero padding."""
    if not code.size:
        raise ValueError("an empty code has no codeword file")
    tokens = _token_table(code.q)
    param_str = " ".join(f"{k}={v}" for k, v in params.items())
    with open(path, "wb") as fh:
        fh.write(
            f"{FORMAT_MAGIC}\n# family={family} {param_str} r={r} "
            f"q={code.q} length={code.length} size={code.size}\n".encode()
        )
        for sl in _row_blocks(code.size, 16 * code.length):
            lines = tokens[code.words[sl]].view(np.uint8)
            lines[:, -1] = ord("\n")
            fh.write(lines[lines != 0])


def _token_table(q):
    """(q + 1,) array of w-byte words: word t holds the bytes of f"{t} ",
    right-aligned behind zero bytes, w = 4 up to 3 digits and 8 up to 7."""
    digits = len(str(q))
    if digits > 7:
        raise ValueError(f"q={q} has more than 7 digits, too many for a codeword file token")
    width = 4 if digits <= 3 else 8
    t = np.arange(q + 1)
    table = np.zeros((q + 1, width), dtype=np.uint8)
    table[:, -1] = ord(" ")
    for k in range(digits):  # the 10^k digit, where t has one (0 has its units digit)
        table[:, -2 - k] = np.where((t >= 10**k) | (k == 0), t // 10**k % 10 + ord("0"), 0)
    return table.view(f"u{width}").ravel()


def read_code(path):
    """Parse a v1 codeword file; returns (Code, header dict).

    One pass over _line_blocks, blocks of whole lines of about
    BLOCK_ENTRIES // 16 bytes: the header is the first two lines of the
    first block or two, then numpy parses the plain form write_code writes,
    the line parser any other block and one past size=.  Malformed input,
    not UTF-8 included, raises CodewordFileError with its line number."""
    with open(path, "rb") as fh:
        blocks = _line_blocks(fh, max(1, BLOCK_ENTRIES // 16))
        meta, q, length, size, rest = _read_header(blocks)
        # the int32 symbol sums hold 9 digits; every symbol takes at least one byte of the file
        plain = 1 <= q < 10**9 and length >= 1
        fits = plain and size is not None and 1 <= size * length <= os.fstat(fh.fileno()).st_size
        words = np.empty((size, length), dtype=np.min_scalar_type(q)) if fits else []
        done, count = 0, 2
        while chunk := rest or next(blocks, b""):
            rest = b""
            rows, n = _parse_rows(np.frombuffer(chunk, dtype=np.uint8), q, length) if plain else (None, 0)
            if rows is None or size is not None and done + len(rows) > size:
                rows, n = _parse_lines(chunk, count + 1, done, q, length, size)
            if len(rows) and fits:
                words[done : done + len(rows)] = rows
            elif len(rows):
                words.append(np.asarray(rows, dtype=np.min_scalar_type(q)))
            done, count = done + len(rows), count + n
    if not done:
        raise CodewordFileError(count + 1, "no codewords")
    if size is not None and done != size:
        raise CodewordFileError(count + 1, f"{done} codewords, the header's size={size}")
    return Code(words if fits else np.concatenate(words), q), meta


def _line_blocks(fh, size):
    """The bytes of the binary file fh in blocks of whole lines of at least
    `size` bytes, the last at the end of the file: each ends at the first
    LINE_END (b"\\n", b"\\r\\n" or a lone b"\\r") from its byte `size` on,
    so a file of b"\\n" lines gets the blocks readlines(size) gives (glibc
    reuses freed blocks by size, and other cuts moved the peak RSS of
    `dist` by up to 2 MiB).  It is read in pieces of at most `size` and at
    most io.DEFAULT_BUFFER_SIZE bytes, each block joined from them once,
    however long its lines.  A b"\\r" that ends a piece waits for the next
    one, so no CRLF pair is split.  The other str.splitlines separators
    (VT, FF, FS to RS, NEL, U+2028 and U+2029) never end a block."""
    pieces, held = [], 0
    while piece := fh.read(min(size, io.DEFAULT_BUFFER_SIZE)):
        if held >= size and pieces[-1].endswith(b"\r") and not piece.startswith(b"\n"):
            yield b"".join(pieces)  # the b"\r" that waited was a lone one
            pieces, held = [], 0
        pieces.append(piece)
        held += len(piece)
        end = LINE_END.search(piece, max(0, size - 1 - held + len(piece))) if held >= size else None
        if end and (end.end() < len(piece) or piece.endswith(b"\n")):
            block = b"".join([*pieces[:-1], piece[: end.end()]])
            pieces, held = [piece[end.end() :]], len(piece) - end.end()
            yield block
    if tail := b"".join(pieces):
        yield tail


def _read_header(blocks):
    """(meta, q, length, size, rest) of a v1 file from its _line_blocks: the
    header is the first two lines of the first block or two, and rest the
    body lines that follow them in those blocks."""
    head, cut = b"", None
    while cut is None and (block := next(blocks, b"")):  # every block but the last ends a line
        head += block
        cut = _two_lines(head)
    lines, error = _decode_lines(head[:cut], 1)
    if error and (error.line == 1 or error.line == 2 and lines[0].strip() == FORMAT_MAGIC):
        raise error
    rest = head[len("".join(lines[:2]).encode()) :]  # str.splitlines lines past the second are body lines
    return *_parse_header(lines), rest


def _two_lines(buf):
    """The length of buf's first two lines, each ended by b"\\n", b"\\r\\n" or
    a lone b"\\r" (one at the end of a block ends a line), or None if it has fewer."""
    ends = [match.end() for _, match in zip(range(2), LINE_END.finditer(buf))]
    return ends[1] if len(ends) == 2 else None


def _parse_header(lines):
    """(meta, q, length, size) from the first two lines of a v1 file."""
    if not lines or lines[0].strip() != FORMAT_MAGIC:
        raise CodewordFileError(1, f"missing magic header {FORMAT_MAGIC!r}")
    if len(lines) < 2 or not lines[1].startswith("# "):
        raise CodewordFileError(2, "missing metadata header")
    meta = {}
    for tok in lines[1][2:].split():
        if "=" in tok:
            k, v = tok.split("=", 1)
            meta[k] = v
        else:
            meta.setdefault("family", tok)
    try:
        q = int(meta["q"])
        length = int(meta["length"])
        size = int(meta["size"]) if "size" in meta else None
        if q >= 1 << 64:  # past np.uint64, no symbol type holds it
            raise ValueError(f"q={q} is 2^64 or more")
    except (KeyError, ValueError) as exc:
        raise CodewordFileError(2, f"bad metadata header: {exc}") from exc
    return meta, q, length, size


def _parse_rows(buf, q, length):
    """(int32 rows, lines) of whole body lines (non-empty bytes buf), or
    (None, 0) unless every byte is a digit, b" " or b"\\n", every line has 0
    or `length` tokens, and every token is at most len(str(q)) digits in 1..q."""
    digits = buf - np.uint8(ord("0"))  # bytes below "0" wrap above 9
    is_digit = digits < 10
    if not (is_digit | (buf == ord(" ")) | (buf == ord("\n"))).all():
        return None, 0
    # token starts and ends at the digit/non-digit edges, in int32 to halve the chunk's largest arrays
    bounds = np.flatnonzero(np.diff(is_digit, prepend=False, append=False)).astype(np.int32)
    starts, ends = bounds[::2], bounds[1::2]
    sizes = ends - starts
    width = sizes.max(initial=0)
    # tokens per line; the end of buf closes a last line that has no newline (an empty one if it has)
    line_ends = np.append(np.flatnonzero(buf == ord("\n")), len(buf))
    per_line = np.diff(np.searchsorted(starts, line_ends), prepend=0)
    if not ((per_line == 0) | (per_line == length)).all() or width > len(str(q)):
        return None, 0
    # index with the int32 ends themselves: np.take would copy them to intp
    values = digits[ends - 1].astype(np.int32)  # units; every token has one
    for k in range(1, width):  # then the 10^k digit of the tokens that have one
        digit = digits[ends - 1 - k]  # ends <= k wrap to the back of buf, where sizes <= k zeroes them
        digit *= sizes > k
        values += digit * np.int32(10**k)
    if values.size and (values.min() < 1 or values.max() > q):
        return None, 0
    return values.reshape(-1, length), len(line_ends) - bool(buf[-1] == ord("\n"))


def _decode_lines(buf, first):
    """(lines, None): buf's UTF-8 text split as str.splitlines splits it, ends kept;
    or the lines before its first invalid byte, and a CodewordFileError naming line
    first + len(lines), the one that holds it."""
    try:
        return buf.decode().splitlines(keepends=True), None
    except UnicodeDecodeError as exc:
        *lines, _ = (buf[: exc.start].decode() + "?").splitlines(keepends=True)
        return lines, CodewordFileError(first + len(lines), f"not UTF-8 text ({exc.reason})")


def _parse_lines(buf, first, done, q, length, size):
    """The line parser: (rows, lines) of body lines buf, numbered from first
    and read after `done` codewords, one int() per symbol."""
    lines, error = _decode_lines(buf, first)
    rows = []
    for ln, line in enumerate(lines, start=first):
        if not line.strip():
            continue
        if done + len(rows) == size:
            raise CodewordFileError(ln, f"more codewords than the header's size={size}")
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise CodewordFileError(ln, "non-integer symbol") from None
        if len(row) != length:
            raise CodewordFileError(ln, f"expected {length} symbols, got {len(row)}")
        if min(row) < 1 or max(row) > q:
            raise CodewordFileError(ln, f"symbol out of range 1..{q}")
        rows.append(np.array(row, dtype=np.min_scalar_type(q)))  # held in the symbol type, not as Python ints
    if error:
        raise error
    return rows, len(lines)
