"""Permutation codes from group representations.

A group element t with permutation image rho(t) is encoded as the passive
form (1^rho(t), ..., q^rho(t)); a twisted code concatenates the passive
forms of rho and of rho . tau for automorphisms tau, read from rho's one
table through tau's index permutation of the group.  Minimum distance is
computed three ways: a support-sum scan over group elements (valid
whenever the joint kernel is trivial), the least distance from codeword 0
once check_distance_invariance has certified it (behind the check="all"
oracles), and a plain symbol-compare pairwise scan, kept as the
independent oracle of the `dist` subcommand.

Both families run one pipeline: support_scan turns their (N, r)
fixed-point table into delta_tw and delta_rep, and finish_build wraps the
report in a TwistedBuild and runs the check="all" oracles.

Permutations are 0-based numpy index arrays internally; codeword symbols
are 1-based, matching the codeword file format.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from . import _packed
from ._packed import chunks, first_of_runs
from .report import VerificationReport, coverage_value, stage

FORMAT_MAGIC = "# twistcode v1"
BLOCK_ENTRIES = 1 << 22  # entries per block of rows (bijection checks, codeword scans, file writes) or per pairwise tile
CODE_BYTES_GUARD = 1 << 28  # max |C| * length for materialised codewords
EXHAUSTIVE_PAIR_LIMIT = 1 << 20  # max n^2 for the exhaustive element-pair checks
LANE_WORDS = 255  # uint64 words of a bool mask summed at once: 255 ones fill a byte lane
LOW_BYTES = 0x00FF00FF00FF00FF


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


class IndexedDomain:
    """Ordered point labels; index lookup inverts position lookup."""

    def __init__(self, points):
        self.points = list(points)
        self._index = {pt: i for i, pt in enumerate(self.points)}
        if len(self._index) != len(self.points):
            raise ValueError("domain points are not pairwise distinct")

    @property
    def size(self):
        return len(self.points)

    def index(self, label):
        return self._index[label]

    def __getitem__(self, i):
        return self.points[i]

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def support_size(perm) -> int:
    """Number of moved points of a permutation (0-based image array)."""
    perm = np.asarray(perm)
    return int((perm != np.arange(len(perm))).sum())


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

    @property
    def q(self):
        return self.perms.shape[1]

    def perm(self, i):
        return self.perms[i]


class Code:
    """Deduplicated codeword list over alphabet {1..q}; rows are 1-based.
    Each duplicate row keeps its first occurrence; `order` lists the row
    indices by ascending row_keys, from the dedup's one argsort."""

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
            kept = np.sort(order[first])
            words, order = words[kept], np.searchsorted(kept, order[first])
        self.words, self.order = _frozen(words), _frozen(order)
        self.q = q

    @property
    def size(self):
        return self.words.shape[0]

    @property
    def length(self):
        return self.words.shape[1]

    def __len__(self):
        return self.size


def hamming_distance(a, b) -> int:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch {a.shape} vs {b.shape}")
    return int((a != b).sum())


def codeword_from_element(rep: Representation, i: int):
    """Passive form of element i: symbol j is the 1-based image of point j."""
    return rep.perms[i].astype(np.min_scalar_type(rep.q)) + 1


def build_twisted_code(rep: Representation, automorphisms=()) -> Code:
    """The code of rep twisted by automorphisms, each an index permutation t
    of the group (tau(g_j) = g_t[j]): block 0 of a codeword is rep's passive
    form, block b that of rep . tau_b, written from rep's rows gathered
    through t_b.  Rows of a checked table are bijections; t is checked."""
    n, q = rep.perms.shape
    for t in automorphisms:
        if np.shape(t) != (n,):
            raise ValueError(f"an automorphism index of shape {np.shape(t)} does not permute {n} elements")
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
    permutation groups", Discrete Math. 309, 2009).  Each generator row c_s
    must be blocks of permutations of 1..q, so sigma_s(b q + j) = b q +
    c_s[b q + j] - 1 permutes the columns (a Hamming isometry), and the code
    gathered through sigma_s must hold the code's rows (equal sorted
    row_keys), so sigma_s also permutes the rows.  True iff all do, and they
    reach every row from row 0: a group of isometries acts transitively, so
    the minimum distance is row 0's least nonzero one.  Sufficient, not
    necessary: a pass proves invariance whatever the rows given; an
    invariant code fails when they are not permutation blocks or do not act
    transitively.  In a group code sigma_s maps the codeword of x to that of
    s x, so rows of generating elements pass."""
    if code.size <= 1:
        return True
    if code.length % code.q:
        return False
    q, keys, order = code.q, row_keys(code.words), code.order
    maps = []
    for s in generators:
        perm = code.words[s].reshape(-1, q).astype(np.intp) - 1
        if not _rows_are_permutations(perm):
            return False
        # np.take, as W[:, sigma] gathers the columns several times slower
        moved = row_keys(np.take(code.words, (q * np.arange(len(perm))[:, None] + perm).ravel(), axis=1))
        moved_order = np.argsort(moved)
        if not all((moved[moved_order[sl]] == keys[order[sl]]).all() for sl in _row_blocks(code.size, code.length)):
            return False
        row_map = np.empty(code.size, dtype=np.intp)
        row_map[moved_order] = order  # gathered row x is codeword row_map[x]
        maps.append(row_map.__getitem__)
        del moved  # one gathered copy of the code at a time
    return reaches_all(code.size, maps)


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


def support_scan(fix, m, expected, checks):
    """Support scan over an (N, r) fixed-point table on m points, identity
    in row 0: delta_tw is the least summed support of a non-identity
    element, delta_rep is r times the least single support.  Checks both
    and their gap against expected = (delta_tw, delta_rep) closed forms;
    returns (sums, delta_tw, delta_rep), sums[t - 1] belonging to element t."""
    sums = fix[1:].sum(axis=1, dtype=np.int32)  # at most r * m, under 2^31 within the guards
    np.subtract(fix.shape[1] * m, sums, out=sums)  # in place, and no (N, r) copy of the supports
    delta_tw = int(sums.min())
    delta_rep = fix.shape[1] * (m - int(fix[1:].max()))
    checks["delta_tw_formula"] = delta_tw == expected[0]
    checks["delta_rep_formula"] = delta_rep == expected[1]
    checks["gap_formula"] = delta_tw - delta_rep == expected[0] - expected[1]
    return sums, delta_tw, delta_rep


ORACLES = (
    "code_size_faithful", "fpa_letter_counts", "pairwise_delta_agrees",
    "support_scan_agrees", "repetition_bound_agrees", "distance_invariant",
)  # the check="all" checks of finish_build, in report order


def finish_build(group, fix, make_twisting, *, family, params, m, deltas, checks, times, coverage, check, generators):
    """Assemble the report and the build (make_twisting returns its
    twisting).  check="all" then materialises the code and certifies the
    scan independently and exhaustively, adding so to `coverage`: letter
    counts, distance invariance certified from the code rows `generators`
    of generating elements, and the pairwise minimum as row 0's, besides
    the support scan and the repetition bound.  When a check has already
    failed, the twisting may not even be a group automorphism, so nothing
    is materialised: every oracle is reported FAIL, with coverage
    'skipped'."""
    delta_tw, delta_rep = deltas
    n, r = len(group), fix.shape[1]
    report = VerificationReport(
        family, params, reps=r, alphabet=m, length=r * m, code_size=n,
        delta_tw=delta_tw, delta_rep=delta_rep, checks=checks, times=times, coverage=coverage,
    )
    build = TwistedBuild(group, report, fix, make_twisting)
    if check != "all":
        return build
    if not report.all_pass():
        for name in ORACLES:
            checks[name] = False
            coverage[name] = "skipped"
        return build

    with stage(times, "materialise"):
        rep, automorphisms = build.twisting
        code = build.code
    report.code_size = code.size
    checks["code_size_faithful"] = check_code_size(rep, automorphisms, code) and code.size == n
    for name in ("fpa_letter_counts", "pairwise_delta_agrees", "distance_invariant"):
        coverage[name] = "exhaustive"
    with stage(times, "letter_counts"):
        checks["fpa_letter_counts"] = letter_counts_constant(code, r)
    with stage(times, "invariance"):
        invariant = check_distance_invariance(code, generators=generators)
    with stage(times, "pairwise"):
        least = int(distance_row(code, 0)[1:].min(initial=code.length + 1))
    checks["pairwise_delta_agrees"] = invariant and least == delta_tw
    checks["support_scan_agrees"] = min_distance_by_support(rep, automorphisms) == delta_tw
    checks["repetition_bound_agrees"] = repetition_lower_bound(rep, automorphisms) == delta_rep
    checks["distance_invariant"] = invariant
    return build


def write_code(path, code: Code, family, params, r=1):
    """Codeword file format v1 (see README): two comment headers, then one
    codeword per line as 1-based integers.  Each block of rows is gathered
    from a table of space-ended tokens (_token_table), its last space per
    row turned into a newline, and written without the zero padding."""
    if not code.size:
        raise ValueError("an empty code has no codeword file")
    tokens = _token_table(code.q)
    param_str = " ".join(f"{k}={v}" for k, v in params.items())
    with open(path, "wb") as fh:
        fh.write(
            f"{FORMAT_MAGIC}\n# family={family} {param_str} r={r} "
            f"q={code.q} length={code.length} size={code.size}\n".encode()
        )
        for sl in _row_blocks(code.size, code.length * tokens.itemsize):
            lines = np.take(tokens, code.words[sl]).view(np.uint8)
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

    A file in the plain form write_code writes is parsed in numpy, about
    BLOCK_ENTRIES // 4 bytes of whole lines at a time.  Any other goes to
    the line parser, read again from the top: malformed input raises
    CodewordFileError carrying the line number, and whatever the line
    parser accepts reads the same.
    """
    with open(path, "rb") as fh:
        parsed = _read_plain(fh)
    return parsed if parsed is not None else _read_code_lines(path)


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
    except (KeyError, ValueError) as exc:
        raise CodewordFileError(2, f"bad metadata header: {exc}") from exc
    return meta, q, length, size


def _read_plain(fh):
    """read_code's result for the binary file fh, or None unless both header
    lines are printable ASCII and parse, and every body chunk passes
    _parse_rows, with as many rows as size= (when given) and at least one."""
    head = [fh.readline(), fh.readline()]
    if not all(line.endswith(b"\n") and line[:-1].isascii() and line[:-1].decode().isprintable() for line in head):
        return None
    try:
        meta, q, length, size = _parse_header([line[:-1].decode() for line in head])
    except CodewordFileError:
        return None
    # the int32 symbol sums hold 9 digits; every symbol takes at least one byte of the file
    if not (1 <= q < 10**9 and length >= 1 and (size is None or 1 <= size * length <= os.fstat(fh.fileno()).st_size)):
        return None
    dtype = np.min_scalar_type(q)
    words = [] if size is None else np.empty((size, length), dtype=dtype)
    done = 0
    while chunk := b"".join(fh.readlines(BLOCK_ENTRIES // 4)):  # whole lines, about 1 MiB
        rows = _parse_rows(np.frombuffer(chunk, dtype=np.uint8), q, length)
        if rows is None or (size is not None and done + len(rows) > size):
            return None
        if size is None:
            words.append(rows.astype(dtype))
        else:
            words[done : done + len(rows)] = rows
        done += len(rows)
    if not done or (size is not None and done != size):
        return None
    return Code(np.concatenate(words) if size is None else words, q), meta


def _parse_rows(buf, q, length):
    """The int32 rows of whole body lines (bytes buf), or None unless every
    byte is a digit, b" " or b"\\n", every line has 0 or `length` tokens,
    and every token is at most len(str(q)) digits and lies in 1..q."""
    digits = buf - np.uint8(ord("0"))  # bytes below "0" wrap above 9
    is_digit = digits < 10
    if not (is_digit | (buf == ord(" ")) | (buf == ord("\n"))).all():
        return None
    # token starts and ends at the digit/non-digit edges, in int32 to halve the chunk's largest arrays
    bounds = np.flatnonzero(np.diff(is_digit, prepend=False, append=False)).astype(np.int32)
    starts, ends = bounds[::2], bounds[1::2]
    sizes = ends - starts
    width = sizes.max(initial=0)
    # tokens per line; the end of buf closes a last line that has no newline (an empty one if it has)
    line_ends = np.append(np.flatnonzero(buf == ord("\n")), len(buf))
    per_line = np.diff(np.searchsorted(starts, line_ends), prepend=0)
    if not ((per_line == 0) | (per_line == length)).all() or width > len(str(q)):
        return None
    values = np.take(digits, ends - 1).astype(np.int32)  # units; every token has one
    for k in range(1, width):  # then the 10^k digit of the tokens that have one
        digit = np.take(digits, ends - 1 - k, mode="clip")
        digit *= sizes > k
        values += digit * np.int32(10**k)
    if values.size and (values.min() < 1 or values.max() > q):
        return None
    return values.reshape(-1, length)


def _read_code_lines(path):
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
