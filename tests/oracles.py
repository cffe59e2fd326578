"""Independent oracles shared by the tests; they share no code with the
packed kernels and gathered tables they certify.  Also usable_cores, which
sets the core count the threaded kernels split their work by."""

import itertools

import numpy as np

from twistcode import _packed
from twistcode.affine import matrix_B
from twistcode.codes import FORMAT_MAGIC, hamming_distance
from twistcode.linalg import Matrix


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
    """(N, k+1, k+1) element matrices, assembled one group.matrix(j) at a time."""
    return np.stack([group.matrix(j).A for j in range(len(group))])


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
