"""Permutation codes from group representations.

A group element t with permutation image rho(t) is encoded as the passive
form (1^rho(t), ..., q^rho(t)); a twisted code concatenates the passive
forms over an ordered list of representations.  Minimum distance is
computed three ways: a support-sum scan over group elements (valid
whenever the joint kernel is trivial), an agreement-count kernel over
codewords (distance_blocks, behind the check="all" oracles), and a plain
symbol-compare pairwise scan, kept as the independent oracle of the
`dist` subcommand.

Both families run one pipeline: support_scan turns their (N, r)
fixed-point table into delta_tw and delta_rep, and finish_build wraps the
report in a TwistedBuild and runs the check="all" oracles.

Permutations are 0-based numpy index arrays internally; codeword symbols
are 1-based, matching the codeword file format.
"""

from __future__ import annotations

import numpy as np

from .linalg import Matrix
from .report import VerificationReport, coverage_value, stage

FORMAT_MAGIC = "# twistcode v1"
BIJECTION_CHUNK = 1 << 22  # table entries sorted at a time by the bijection check
CODE_BYTES_GUARD = 1 << 28  # max |C| * length for materialised codewords
EXHAUSTIVE_ORACLE_LIMIT = 20_000  # max |C| for the pairwise and invariance sweeps
AGREEMENT_CHUNK = 1 << 19  # agreements (and output entries) per block of distance_blocks
PAIRWISE_CHUNK = 1 << 22  # symbol compares per block of min_distance_pairwise
INVARIANCE_ANCHORS = 8  # anchor codewords of the sampled invariance check
EXHAUSTIVE_PAIR_LIMIT = 1 << 20  # max n^2 for the exhaustive element-pair checks


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
    """The joint kernel of the representation list is nontrivial, so the
    support-sum formula does not compute the code's minimum distance."""


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


class EnumeratedGroup:
    """Explicit deduplicated element list of a matrix group, identity at
    index 0; elements are stored as one (N, d, d) uint8 array."""

    def __init__(self, field, elements):
        elements = np.ascontiguousarray(elements, dtype=np.uint8)
        if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
            raise ValueError("elements must be an (N, d, d) array")
        if not (elements[0] == np.eye(elements.shape[1], dtype=np.uint8)).all():
            raise ValueError("identity must sit at index 0")
        elements.setflags(write=False)
        self.field = field
        self.elements = elements

    def __len__(self):
        return self.elements.shape[0]

    def matrix(self, i) -> Matrix:
        return Matrix(self.field, self.elements[i])


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
        rows = max(1, BIJECTION_CHUNK // q)
        for i0 in range(0, perms.shape[0], rows):
            # "stable" selects radix sort on 8- and 16-bit tables
            if not (np.sort(perms[i0 : i0 + rows], axis=1, kind="stable") == ident).all():
                raise ValueError("some image array is not a bijection")
        perms.setflags(write=False)
        self.group = group
        self.perms = perms

    @property
    def q(self):
        return self.perms.shape[1]

    def perm(self, i):
        return self.perms[i]

    def support_sizes(self):
        return (self.perms != np.arange(self.q)).sum(axis=1)

    def kernel_mask(self):
        return (self.perms == np.arange(self.q)).all(axis=1)

    def minimal_degree(self):
        sizes = self.support_sizes()
        nontrivial = sizes[~self.kernel_mask()]
        if nontrivial.size == 0:
            raise NontrivialKernelError("representation is trivial")
        return int(nontrivial.min())


class Code:
    """Deduplicated codeword list over alphabet {1..q}; rows are 1-based."""

    def __init__(self, words, q):
        words = np.ascontiguousarray(words)
        if words.ndim != 2:
            raise ValueError("words must be a 2-D array")
        if words.size and (words.min() < 1 or words.max() > q):
            raise ValueError("codeword symbol out of alphabet range")
        _, first = np.unique(words, axis=0, return_index=True)
        words = words[np.sort(first)]
        words.setflags(write=False)
        self.words = words
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


def build_code(group, rep: Representation) -> Code:
    return build_twisted_code(group, [rep])


def build_twisted_code(group, reps) -> Code:
    if len(reps) < 1:
        raise ValueError("need at least one representation")
    q = reps[0].q
    if any(r.q != q for r in reps):
        raise ValueError("representations act on domains of different sizes")
    dtype = np.min_scalar_type(q)
    words = np.concatenate([r.perms.astype(dtype) + 1 for r in reps], axis=1)
    return Code(words, q)


def min_distance_pairwise(code: Code) -> int:
    """Exact minimum over all unordered codeword pairs; 0 if |C| <= 1.
    Each block compares about PAIRWISE_CHUNK symbols (at least one row)."""
    W = code.words
    n = code.size
    if n <= 1:
        return 0
    best = code.length + 1
    chunk = max(1, PAIRWISE_CHUNK // max(n * code.length, 1))
    for i0 in range(0, n, chunk):
        blk = W[i0 : i0 + chunk]
        # distances to all later codewords, plus the in-block upper triangle
        d = (blk[:, None, :] != W[None, i0:, :]).sum(axis=2)
        ii, jj = np.triu_indices(blk.shape[0], k=1, m=d.shape[1])
        if ii.size:
            best = min(best, int(d[ii, jj].min()))
    return best


def distance_row(code: Code, i) -> np.ndarray:
    return (code.words != code.words[i]).sum(axis=1)


def distance_blocks(code: Code):
    """Yield (i0, d) over consecutive blocks of rows, d[r, j] the Hamming
    distance from codeword i0 + r to codeword j, by counting agreements.

    Two codewords agree in a column only where they hold the same symbol,
    so the rows holding each (column, symbol) are listed once, and the
    agreements of row i are the rows listed under its L cells: the work is
    the sum over (column, symbol) of count^2, N^2 L / q for a transitive
    group code, against N^2 L symbol compares.  A block is cut on the
    running agreement count of its (row, column) cells and on its N-wide
    output, so it holds about AGREEMENT_CHUNK entries (at least one cell)
    whatever the symbol counts; a constant column costs N per cell."""
    W = code.words
    n, L = W.shape
    q1 = code.q + 1
    budget = AGREEMENT_CHUNK
    # listed[start[c, s] : start[c, s] + count[c, s]] are the rows holding s in column c
    listed = np.empty((L, n), dtype=np.min_scalar_type(max(n - 1, 0)))
    count = np.empty((L, q1), dtype=np.int64)
    cols = max(1, budget // max(n, 1))
    for c0 in range(0, L, cols):
        blk = W[:, c0 : c0 + cols].T
        # "stable" selects radix sort on 8- and 16-bit symbols
        listed[c0 : c0 + cols] = np.argsort(blk, axis=1, kind="stable")
        cells = blk + q1 * np.arange(len(blk))[:, None]
        count[c0 : c0 + cols] = np.bincount(cells.ravel(), minlength=len(blk) * q1).reshape(-1, q1)
    listed = listed.ravel()
    count = count.ravel()
    start = np.cumsum(count) - count
    col_key = q1 * np.arange(L)

    rows = max(1, budget // max(n, L))
    for i0 in range(0, n, rows):
        keys = (W[i0 : i0 + rows] + col_key).ravel()
        lens = count[keys]
        ends = np.cumsum(lens)
        cuts = np.searchsorted(ends, np.arange(budget, ends[-1], budget), side="right")
        bounds = np.unique(np.concatenate(([0], cuts, [len(keys)]))).tolist()
        nr = len(keys) // L
        agree = np.zeros(nr * n, dtype=np.int64)
        for a, b in zip(bounds[:-1], bounds[1:]):
            seg = lens[a:b]
            first = ends[a:b] - seg
            # positions in `listed` of every agreement of cells a..b, cell by cell
            pos = np.repeat(start[keys[a:b]] - (first - first[0]), seg) + np.arange(ends[b - 1] - first[0])
            owner = np.repeat(n * (np.arange(a, b) // L), seg)
            agree += np.bincount(owner + listed[pos], minlength=nr * n)
        yield i0, L - agree.reshape(nr, n)


def min_distance_by_agreement(code: Code) -> int:
    """min_distance_pairwise through distance_blocks; 0 if |C| <= 1."""
    if code.size <= 1:
        return 0
    best = code.length
    for i0, d in distance_blocks(code):
        r = np.arange(len(d))
        d[r, i0 + r] = code.length  # a row's distance to itself
        best = min(best, int(d.min()))
    return best


def check_distance_invariance(code: Code, anchors=None) -> bool:
    """True iff the distance distribution from a codeword is independent of
    the codeword.  anchors=None compares every codeword against the first,
    through distance_blocks; a list of indices checks just those (for codes
    too large to sweep)."""
    if code.size <= 1:
        return True
    if anchors is None:
        ref = None
        bins = code.length + 1
        for _, d in distance_blocks(code):
            # one distance histogram per row of the block, keyed in place in d
            d += bins * np.arange(len(d))[:, None]
            hist = np.bincount(d.ravel(), minlength=len(d) * bins).reshape(len(d), bins)
            if ref is None:
                ref = hist[0].copy()  # a view would keep the whole first block's table alive
            if not (hist == ref).all():
                return False
        return True
    ref = np.bincount(distance_row(code, 0), minlength=code.length + 1)
    for i in anchors:
        dist = np.bincount(distance_row(code, i), minlength=code.length + 1)
        if not (dist == ref).all():
            return False
    return True


def joint_kernel_mask(reps):
    mask = reps[0].kernel_mask()
    for r in reps[1:]:
        mask &= r.kernel_mask()
    return mask


def min_distance_by_support(group, reps) -> int:
    """Identity-anchored scan: min over non-identity t of the summed
    support sizes.  Raises NontrivialKernelError when the formula does not
    apply (some non-identity element acts trivially in every entry)."""
    kernel = joint_kernel_mask(reps)
    if kernel.sum() != 1:
        raise NontrivialKernelError(
            f"joint kernel has {int(kernel.sum())} elements; support scan does not equal delta"
        )
    total = sum(r.support_sizes() for r in reps)
    return int(total[1:].min()) if len(group) > 1 else 0


def repetition_lower_bound(group, reps) -> int:
    """min over rho of delta(Rep_r(C(T, rho))) = r * minimal degree of rho."""
    r = len(reps)
    return r * min(rep.minimal_degree() for rep in reps)


def check_code_size(group, reps, code: Code) -> bool:
    """|C| * |K| = |T| with K the joint kernel."""
    k = int(joint_kernel_mask(reps).sum())
    return code.size * k == len(group)


def letter_counts_constant(code: Code, r) -> bool:
    """Frequency permutation array property: every letter occurs exactly r
    times in every codeword."""
    if code.length != r * code.q:
        return False
    for row in code.words:
        if not (np.bincount(row, minlength=code.q + 1)[1:] == r).all():
            return False
    return True


class TwistedBuild:
    """Result of a twisted-code construction: the report, the (N, r)
    fixed-point table it was scanned from (column j counts the points each
    element fixes under representation j), and the lazily materialised
    representations and code (unpacks as (code, report))."""

    def __init__(self, group, report, fix, make_reps):
        self.group = group
        self.report = report
        self.fix = fix
        self._make_reps = make_reps
        self._reps = None
        self._code = None

    @property
    def representations(self):
        if self._reps is None:
            nbytes = len(self.group) * self.report.length
            if nbytes > CODE_BYTES_GUARD:
                raise ValueError(
                    f"materialising this code needs {nbytes} symbols, over the guard {CODE_BYTES_GUARD}"
                )
            self._reps = self._make_reps()
        return self._reps

    @property
    def code(self) -> Code:
        if self._code is None:
            self._code = build_twisted_code(self.group, self.representations)
        return self._code

    def __iter__(self):
        return iter((self.code, self.report))


def support_scan(fix, m, expected, checks):
    """Support scan over an (N, r) fixed-point table on m points, identity
    in row 0: delta_tw is the least summed support of a non-identity
    element, delta_rep is r times the least single support.  Checks both
    and their gap against expected = (delta_tw, delta_rep) closed forms;
    returns (sums, delta_tw, delta_rep), sums[t - 1] belonging to element t."""
    supports = m - fix[1:]
    sums = supports.sum(axis=1)
    delta_tw = int(sums.min())
    delta_rep = fix.shape[1] * int(supports.min())
    checks["delta_tw_formula"] = delta_tw == expected[0]
    checks["delta_rep_formula"] = delta_rep == expected[1]
    checks["gap_formula"] = delta_tw - delta_rep == expected[0] - expected[1]
    return sums, delta_tw, delta_rep


def finish_build(group, fix, make_reps, *, family, params, m, deltas, checks, times, coverage, check, rng):
    """Assemble the report and the build.  check="all" then materialises
    the code and certifies the scan independently: pairwise distance,
    distance invariance and letter counts, exhaustive up to
    EXHAUSTIVE_ORACLE_LIMIT codewords and sampled above, adding what each
    covered to `coverage`."""
    delta_tw, delta_rep = deltas
    n, r = len(group), fix.shape[1]
    report = VerificationReport(
        family, params, reps=r, alphabet=m, length=r * m, code_size=n,
        delta_tw=delta_tw, delta_rep=delta_rep, checks=checks, times=times, coverage=coverage,
    )
    build = TwistedBuild(group, report, fix, make_reps)
    if check != "all":
        return build

    with stage(times, "materialise"):
        reps = build.representations
        code = build.code
    report.code_size = code.size
    checks["code_size_faithful"] = check_code_size(group, reps, code) and code.size == n
    if n <= EXHAUSTIVE_ORACLE_LIMIT:
        suffix, letters, anchors = "", code, None
        for name in ("fpa_letter_counts", "pairwise_delta_agrees", "distance_invariant"):
            coverage[name] = "exhaustive"
    else:
        sample = rng.integers(0, n, size=100)
        anchors = [int(i) for i in rng.integers(1, n, size=INVARIANCE_ANCHORS)]
        suffix, letters = "_sampled", Code(code.words[sample], code.q)
        coverage["fpa_letter_counts_sampled"] = coverage_value(len(sample), n)
        coverage["distance_invariant_sampled"] = coverage_value(len(anchors), n)
    checks[f"fpa_letter_counts{suffix}"] = letter_counts_constant(letters, r)
    if anchors is None:
        with stage(times, "pairwise"):
            checks["pairwise_delta_agrees"] = min_distance_by_agreement(code) == delta_tw
        checks["support_scan_agrees"] = min_distance_by_support(group, reps) == delta_tw
        checks["repetition_bound_agrees"] = repetition_lower_bound(group, reps) == delta_rep
    with stage(times, "invariance"):
        checks[f"distance_invariant{suffix}"] = check_distance_invariance(code, anchors=anchors)
    return build


def write_code(path, code: Code, family, params, r=1):
    """Codeword file format v1 (see README): two comment headers, then one
    codeword per line as 1-based integers."""
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


def read_code(path):
    """Parse a v1 codeword file; returns (Code, header dict).

    Malformed input raises CodewordFileError carrying the line number.
    """

    with open(path) as fh:
        lines = fh.read().splitlines()
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
    except (KeyError, ValueError) as exc:
        raise CodewordFileError(2, f"bad metadata header: {exc}") from exc
    rows = []
    for ln, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
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
    words = np.asarray(rows, dtype=np.min_scalar_type(q))
    return Code(words, q), meta
