import hashlib
import io
import json
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from twistcode import _packed, codes, symplectic
from twistcode.affine import AffineParams, build_affine_twisted
from twistcode.codes import (
    Code,
    CodewordFileError,
    NontrivialKernelError,
    Representation,
    build_twisted_code,
    check_code_size,
    check_distance_invariance,
    distance_row,
    finish_build,
    letter_counts_constant,
    min_distance_by_support,
    min_distance_pairwise,
    reaches_all,
    read_code,
    repetition_lower_bound,
    sample_pairs,
    summed_supports,
    write_code,
)
from twistcode.fields import PrimeField
from twistcode.linalg import Matrix
from twistcode.report import BuildRecord
from twistcode.symplectic import (
    SymplecticGroup, SymplecticSpace, build_outer_automorphism, build_symplectic_twisted, generate_group, generators,
)

from oracles import (
    affine_product_index,
    hamming_distance,
    min_distance_all_pairs,
    mulclose,
    read_code_lines,
    sorted_key_index,
    sorted_key_invariance,
    usable_cores,
    write_code_lines,
)


@pytest.fixture(scope="module")
def cyclic3():
    """C3 acting on three points, identity first."""
    group = range(3)
    perms = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    return group, Representation(group, perms)


@pytest.fixture(scope="module")
def affine32():
    build = build_affine_twisted(AffineParams(3, 2))
    natural, automorphisms = build.twisting
    return build.group, natural, automorphisms


@pytest.fixture(scope="module")
def affine112():
    """The (11,2) build with its code materialised: 1,331 codewords of 1,331 symbols."""
    build = build_affine_twisted(AffineParams(11, 2))
    build.code  # materialised here, not inside a test's tracemalloc window
    return build


@pytest.fixture(scope="module")
def sp2():
    space = SymplecticSpace.create(1)
    group = generate_group(space)
    return space, group, group.natural_representation()


def test_transvection_support_in_sp42(sp2):
    space, group, rep = sp2
    mask = group.transvection_mask()
    sizes = rep.sizes
    # 15 points, q^2+q+1 = 7 fixed: support 8 for every transvection
    assert (sizes[mask] == 8).all()


def test_passive_form(cyclic3):
    # with no automorphism a codeword is its element's passive form: symbol j is the 1-based image of point j
    group, rep = cyclic3
    assert build_twisted_code(rep).words.tolist() == [[1, 2, 3], [2, 3, 1], [3, 1, 2]]


def test_enumerated_group_key_order(sp2):
    space, group, _ = sp2
    # every key of Sp(4, 2) answers its own index, the identity's (not the least) 0
    assert group.keys[0] > group.keys[1]
    assert group.indices_of_keys(group.keys).tolist() == list(range(len(group)))
    keys = group.keys
    # the zero key and one-bit flips of the identity and of the least and greatest keys miss
    queries = np.array([keys[0], 0, keys[0] ^ 1, keys[1] ^ 2, keys[-1] ^ 4, keys[-1]], dtype=keys.dtype)
    assert group.indices_of_keys(queries).tolist() == [0, -1, -1, -1, -1, len(keys) - 1]
    # every element but the last, a descent, a repeat, the identity's repeated
    for order in (np.arange(len(keys) - 1), [0, 2, 1], [0, 1, 1], [0, 1, 0]):
        with pytest.raises(ValueError, match="other 719 elements strictly ascending"):
            SymplecticGroup(space, keys[order])
    swapped = keys.copy()
    swapped[[1, 2]] = keys[[2, 1]]
    with pytest.raises(ValueError, match="strictly ascending"):
        SymplecticGroup(space, swapped)
    with pytest.raises(ValueError, match="identity must sit at index 0"):
        SymplecticGroup(space, keys[1:])


@pytest.mark.parametrize("chunk", [1, 3, None])
def test_indices_of_keys_independent_of_chunk(monkeypatch, sp2, chunk):
    # unsorted queries with repeats: elements, the identity's key, and
    # one-bit flips of elements, looked up block by block
    space, group, _ = sp2
    if chunk is not None:
        monkeypatch.setattr(_packed, "ROW_CHUNK", chunk)
    rng = np.random.default_rng(5)
    picks = rng.integers(0, len(group), size=200)
    flips = group.keys[picks[:40]] ^ (np.uint32(1) << rng.integers(0, 16, size=40).astype(np.uint32))
    queries = np.concatenate([group.keys[picks], group.keys[:1], flips, group.keys[picks[:20]]])
    want = sorted_key_index(group.keys, queries)
    assert (want[200:201] == 0).all() and (want[201:241] == -1).any()
    assert np.array_equal(group.indices_of_keys(queries), want)


@pytest.mark.parametrize("chunk", [1, 3, None])
def test_tau_index_equals_unchunked_lookup(monkeypatch, sp2, chunk):
    space, group, _ = sp2
    if chunk is not None:
        monkeypatch.setattr(_packed, "ROW_CHUNK", chunk)
    tau = build_outer_automorphism(space, group)
    image_keys = symplectic._tau_keys(space, tau.basis_lift, tau.coords)(group.keys)  # one block
    want = sorted_key_index(group.keys, image_keys)
    assert (want >= 0).all() and (want == 0).sum() == 1
    assert np.array_equal(tau.index, want)


def test_support_scan_narrow_sums(affine32, affine112):
    # both families' fixed-point tables: the sums in np.min_scalar_type(r * m)
    # (uint8 at affine (3,2) and Sp(4,2), uint16 at affine (11,2)), equal to
    # the summed supports in int64
    sp42 = build_symplectic_twisted(SymplecticSpace.create(1))
    cases = [
        (affine32[0].fixed_count_table(), 9, np.uint8),
        (affine112.fix, 121, np.uint16),
        (sp42.fix, 15, np.uint8),
    ]
    for fix, m, dtype in cases:
        r = fix.shape[1]
        sums, deltas = codes.support_scan(fix, m)
        want = r * m - fix[1:].astype(np.int64).sum(axis=1)
        assert sums.dtype == np.min_scalar_type(r * m) == dtype
        assert np.array_equal(sums, want)
        assert deltas == (int(want.min()), r * (m - int(fix[1:].max())))


def test_trivial_group_code():
    rep = Representation(range(1), np.arange(4)[None, :])
    code = build_twisted_code(rep)
    assert code.size == 1
    assert min_distance_pairwise(code) == 0


def test_distance_from_identity_equals_support_affine(affine32):
    group, rep, _ = affine32
    code = build_twisted_code(rep)
    base, ident = code.words[0], np.arange(rep.perms.shape[1])
    for t in range(len(group)):
        assert hamming_distance(base, code.words[t]) == hamming_distance(rep.perms[t], ident)


def test_distance_from_identity_equals_support_sp42(sp2):
    _, group, rep = sp2
    code = build_twisted_code(rep)
    base, ident = code.words[0], np.arange(rep.perms.shape[1])
    for t in range(len(group)):
        assert hamming_distance(base, code.words[t]) == hamming_distance(rep.perms[t], ident)


def test_natural_code_sizes(affine32, sp2):
    _, natural, _ = affine32
    code = build_twisted_code(natural)
    assert (code.size, code.length, code.q) == (27, 9, 9)
    _, _, sprep = sp2
    spcode = build_twisted_code(sprep)
    assert (spcode.size, spcode.length) == (720, 15)


def test_twisted_code_degenerate_and_repetition(affine32):
    group, natural, _ = affine32
    single = build_twisted_code(natural)
    assert (single.words == natural.perms + 1).all()
    doubled = build_twisted_code(natural, [np.arange(len(group))])  # twisted by the identity
    assert min_distance_pairwise(doubled) == 2 * min_distance_pairwise(single)
    assert letter_counts_constant(doubled, 2)


def gathered_oracle(group, natural, automorphisms):
    """The twisted code the plain way: one Representation per block, the
    natural table's rows gathered through t, their passive forms
    concatenated; with each block's support sizes."""
    reps = [natural] + [Representation(group, natural.perms[t]) for t in automorphisms]
    q = natural.perms.shape[1]
    words = np.concatenate([r.perms.astype(np.min_scalar_type(q)) + 1 for r in reps], axis=1)
    return Code(words, q), [r.sizes for r in reps]


@pytest.mark.parametrize("block", [1, codes.BLOCK_ENTRIES])
def test_twisted_code_equals_gathered_oracle(monkeypatch, affine32, sp2, block):
    space, spgroup, sprep = sp2
    cases = [affine32, (spgroup, sprep, [build_outer_automorphism(space, spgroup).index])]
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", block)
    for group, natural, automorphisms in cases:
        want, sizes = gathered_oracle(group, natural, automorphisms)
        code = build_twisted_code(natural, automorphisms)
        assert code.words.dtype == want.words.dtype
        assert np.array_equal(code.words, want.words)
        total = sum(sizes)
        assert np.array_equal(summed_supports(natural, automorphisms), total)
        assert min_distance_by_support(natural, automorphisms) == int(total[1:].min())
        assert repetition_lower_bound(natural, automorphisms) == len(sizes) * min(int(s[s > 0].min()) for s in sizes)
        assert check_code_size(natural, automorphisms, code) == (code.size * int((total == 0).sum()) == len(total))
        assert not check_code_size(natural, automorphisms, Code(code.words[1:], code.q))


def test_twisted_code_rejects_bad_automorphisms(affine32):
    group, natural, automorphisms = affine32
    with pytest.raises(ValueError, match="does not permute 27 elements"):
        build_twisted_code(natural, [automorphisms[0][:-1]])
    # t[0] != 0: the identity would act as element 1, which moves points (faithful)
    with pytest.raises(ValueError, match="identity element must act as the identity permutation"):
        build_twisted_code(natural, [automorphisms[0], np.roll(np.arange(len(group)), -1)])


@pytest.mark.parametrize("entry", ["negative", "repeated", "past_end"])
def test_twisted_code_rejects_non_permutation(affine32, entry):
    # an entry of -1 would wrap to the last element and a repeated one would leave an
    # element out; either way the code would still get 27 rows
    group, natural, automorphisms = affine32
    t = automorphisms[0].copy()
    t[2] = {"negative": -1, "repeated": t[1], "past_end": len(group)}[entry]
    with pytest.raises(ValueError, match=r"not a permutation of 0\.\.26"):
        build_twisted_code(natural, [automorphisms[0], t])


def test_affine_twisted_code_letter_counts(affine32):
    _, natural, automorphisms = affine32
    code = build_twisted_code(natural, automorphisms)
    assert (code.size, code.length) == (27, 27)
    assert letter_counts_constant(code, 3)


def test_min_distance_oracle_equivalence(affine32, sp2):
    _, natural, automorphisms = affine32
    code = build_twisted_code(natural, automorphisms)
    assert min_distance_pairwise(code) == min_distance_by_support(natural, automorphisms) == 24
    assert repetition_lower_bound(natural, automorphisms) == 18
    _, _, sprep = sp2
    spcode = build_twisted_code(sprep)
    assert min_distance_pairwise(spcode) == min_distance_by_support(sprep) == 8
    assert repetition_lower_bound(sprep) == 8


def test_pairwise_oracle_one_row_blocks(monkeypatch, affine32, sp2):
    group, natural, automorphisms = affine32
    _, _, sprep = sp2
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", 1)
    assert min_distance_pairwise(build_twisted_code(natural, automorphisms)) == 24
    assert min_distance_pairwise(build_twisted_code(natural, [np.arange(len(group))])) == 12
    # Sp(4,2) in seven-row tiles (length 15 pads to 16 bytes): one-row tiles of its
    # 720 codewords would be 259,560 calls of about 22 us each
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", 49 * 16 * _packed.usable_cores())
    assert min_distance_pairwise(build_twisted_code(sprep)) == 8


@pytest.mark.parametrize("cores", [1, 2])
def test_pairwise_oracle_memory_bound(monkeypatch, cores):
    # 1000 x 200 symbols: a 64-row block against every row would be a
    # 12.8 MB temporary; the budget holds each block to about 4 MiB, shared
    # by the workers' masks (tracemalloc traces every thread)
    usable_cores(monkeypatch, cores)
    words = np.random.default_rng(3).integers(1, 5, size=(1000, 200), dtype=np.uint8)
    code = Code(words, 4)
    assert code.size == 1000
    tracemalloc.start()
    try:
        delta = min_distance_pairwise(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert delta == min(int(distance_row(code, i)[i + 1 :].min()) for i in range(code.size - 1))
    assert peak < 8 << 20


def test_repetition_bound_degenerate_single_rep(affine32, sp2):
    _, natural, _ = affine32
    assert repetition_lower_bound(natural) == min_distance_by_support(natural)
    _, _, sprep = sp2
    assert repetition_lower_bound(sprep) == min_distance_by_support(sprep)


def test_pairwise_distance_equals_translated_support(sp2):
    # d(word_s, word_t) = |supp(s^-1 t)| for 100 random pairs
    _, group, rep = sp2
    code = build_twisted_code(rep)
    rng = np.random.default_rng(12)
    for _ in range(100):
        s, t = rng.integers(0, len(group), size=2)
        composed = rep.perms[t][np.argsort(rep.perms[s])]
        assert hamming_distance(code.words[s], code.words[t]) == hamming_distance(composed, np.arange(len(composed)))


def test_representation_homomorphism(affine32, sp2):
    group, natural, automorphisms = affine32
    perms = natural.perms[automorphisms[0]]  # the natural action of the 1-twist
    for a in range(len(group)):
        for b in range(len(group)):
            prod = affine_product_index(group, a, b)
            assert (perms[prod] == perms[b][perms[a]]).all()
    space, spgroup, sprep = sp2
    rng = np.random.default_rng(13)
    for _ in range(500):
        a, b = (int(x) for x in rng.integers(0, len(spgroup), size=2))
        prod_mat = spgroup.matrix(a) * spgroup.matrix(b)
        key = space.ops.keys_of(prod_mat.A)[0]
        prod = int(spgroup.indices_of_keys(np.array([key]))[0])
        assert (sprep.perms[prod] == sprep.perms[b][sprep.perms[a]]).all()


def test_nontrivial_joint_kernel_reported():
    trivial = Representation(range(2), np.tile(np.arange(3), (2, 1)))
    with pytest.raises(NontrivialKernelError):
        min_distance_by_support(trivial)
    code = build_twisted_code(trivial)
    assert code.size == 1  # both elements collapse to one codeword
    assert not check_code_size(trivial, (), Code(np.array([[1, 2, 3], [1, 3, 2]]), 3))


def sp2_generator_rows(space, group):
    """Code rows of the GENERATOR_WORDS elements of Sp(4, 2)."""
    return group.indices_of_keys(space.ops.keys_of(generators(space)))


def affine_generator_rows(group):
    """Code rows of B and of the translation by e_k."""
    k = group.params.k
    e_k = np.eye(k, dtype=np.int64)[-1]
    return [group.element_index(0 * e_k, 1), group.element_index(e_k, group.params.p)]


def affine_steps(group, rows):
    """(s, step) for each row s: step is right multiplication by s."""
    return [(s, group.right_step(s)) for s in rows]


def sp2_steps(group, rows):
    """(s, step) for each row s: step is right multiplication by s."""
    return [(s, lambda x, s=s: group.product_index(x, s)) for s in rows]


def relabel_steps(code, rows):
    """(s, step) for each row s, step read off the code one row at a time:
    row x goes to the row that equals x with each block's symbols
    relabelled through row s's block, -1 where no row does."""
    index = {tuple(w): i for i, w in enumerate(code.words.tolist())}
    offsets = np.arange(code.length) // code.q * code.q - 1
    return [(s, np.array([index.get(tuple(code.words[s].take(offsets + w, mode="clip")), -1)
                          for w in code.words.astype(np.intp)]).__getitem__) for s in rows]


def test_reaches_all():
    cycle = np.roll(np.arange(5), -1)
    assert reaches_all(1, [])
    assert reaches_all(5, [cycle.__getitem__])
    assert not reaches_all(5, [])
    assert not reaches_all(6, [np.array([1, 0, 3, 2, 5, 4]).__getitem__])  # three 2-cycles
    # two involutions that together walk the whole path 0 - 1 - 2 - 3 - 4 - 5
    assert reaches_all(6, [np.array([1, 0, 3, 2, 5, 4]).__getitem__, np.array([0, 2, 1, 4, 3, 5]).__getitem__])


def test_distance_invariance_small_cases(affine32):
    assert check_distance_invariance(Code(np.array([[1, 2, 3]]), 3), generators=[])
    # invariant, but its rows are not permutations of 1..q: not certified
    code = Code(np.array([[1, 2], [1, 3]]), 3)
    assert not check_distance_invariance(code, generators=relabel_steps(code, [0, 1]))
    # relabelling through the first row (1 -> 2, 2 -> 1, 3 -> 1) swaps the rows, but is no isometry
    code = Code(np.array([[2, 1, 1], [1, 2, 2]]), 3)
    assert not check_distance_invariance(code, generators=[(0, np.array([1, 0]).__getitem__)])
    # distances {0, 2, 2} from the first row, {0, 2, 3} from the second
    code = Code(np.array([[1, 2, 3], [2, 1, 3], [3, 2, 1]]), 3)
    assert not check_distance_invariance(code, generators=relabel_steps(code, [0, 1, 2]))
    group, natural, automorphisms = affine32
    code = build_twisted_code(natural, automorphisms)
    assert check_distance_invariance(code, generators=affine_steps(group, affine_generator_rows(group)))


def invariant_by_rows(code):
    """The plain invariance oracle: one distance_row histogram per codeword."""
    hists = [np.bincount(distance_row(code, i), minlength=code.length + 1) for i in range(code.size)]
    return all((h == hists[0]).all() for h in hists)


def close_permutations(gens):
    """Every product of the given permutation tuples, breadth first from the identity."""
    ident = tuple(range(len(gens[0])))
    seen, frontier = {ident: 0}, [ident]
    while frontier:
        fresh = []
        for x in frontier:
            for s in gens:
                y = tuple(x[i] for i in s)
                if y not in seen:
                    seen[y] = len(seen)
                    fresh.append(y)
        frontier = fresh
    return list(seen), seen


@st.composite
def certificate_codes(draw):
    """Small codes of r blocks of q columns: a permutation group's passive
    forms, repeated r times, as they are or with one row dropped or two
    symbols of one row swapped; rows of r random permutations; or plain
    random symbols."""
    q, r = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["group", "permutations", "symbols"]))
    if kind == "symbols":
        return Code(draw(hnp.arrays(np.uint8, (draw(st.integers(1, 8)), q * r), elements=st.integers(1, q))), q)
    perm = st.permutations(range(q))
    if kind == "group":
        elements, _ = close_permutations([tuple(draw(perm)) for _ in range(draw(st.integers(1, 2)))])
        words = np.tile(np.array(elements), r) + 1
        i, j, k = draw(st.integers(0, len(words) - 1)), draw(st.integers(0, q * r - 1)), draw(st.integers(0, q * r - 1))
        mutation = draw(st.sampled_from(["none", "drop", "swap"]))
        if mutation == "drop" and len(words) > 1:
            words = np.delete(words, i, axis=0)
        elif mutation == "swap":
            words[i, [j, k]] = words[i, [k, j]]
    else:
        words = np.array([sum((draw(perm) for _ in range(r)), []) for _ in range(draw(st.integers(1, 12)))]) + 1
    return Code(words.astype(np.uint8), q)


@st.composite
def certificate_steps(draw, code):
    """(s, step) for every row s of the code: its relabel_steps step, a
    permutation or any map into range(n), sometimes with one entry set to
    -1 or n."""
    n = code.size
    pairs = []
    for s, relabel in relabel_steps(code, range(n)):
        kind = draw(st.sampled_from(["relabel", "permutation", "map"]))
        if kind == "relabel":
            image = relabel(np.arange(n))
        elif kind == "permutation":
            image = np.array(draw(st.permutations(range(n))))
        else:
            image = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        if draw(st.sampled_from(["keep", "keep", "keep", "off"])) == "off":
            image[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, n]))
        pairs.append((s, image.__getitem__))
    return pairs


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_invariance_certificate_sound(data):
    # a pass, with every row as a generator and whatever its step, proves invariance and delta from row 0
    code = data.draw(certificate_codes())
    if check_distance_invariance(code, generators=data.draw(certificate_steps(code))):
        assert invariant_by_rows(code)
        assert code.size == 1 or int(distance_row(code, 0)[1:].min()) == min_distance_pairwise(code)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda d: st.tuples(st.lists(st.permutations(range(d)), min_size=1, max_size=3), st.permutations(range(d)))
))
def test_invariance_certificate_complete_on_permutation_groups(case):
    # the group's passive forms, then twisted by conjugation with h: its generators certify it
    gens, h = [tuple(g) for g in case[0]], np.array(case[1])
    elements, index = close_permutations(gens)
    nat = np.array(elements)
    conj = np.argsort(h)[nat[:, h]]  # h^-1 x h, a second representation
    code = Code(np.concatenate([nat, conj], axis=1) + 1, len(h))
    assert code.size == len(elements)
    # relabelling through g sends the passive form of x to that of x, then g
    steps = [(index[g], np.array([index[tuple(np.array(g)[x])] for x in nat]).__getitem__) for g in gens]
    assert check_distance_invariance(code, generators=steps)
    if code.size > 1:
        assert int(distance_row(code, 0)[1:].min()) == min_distance_pairwise(code)


FAMILIES = [(3, 2), (5, 2), (5, 3), "Sp(4,2)"]


def family_code(family, sp2):
    """(code, generator rows, steps, delta_tw) of a family's check="all" code:
    steps(rows) pairs each row with right multiplication by it."""
    if family == "Sp(4,2)":
        space, group, natural = sp2
        code = build_twisted_code(natural, [build_outer_automorphism(space, group).index])
        return code, list(sp2_generator_rows(space, group)), lambda rows: sp2_steps(group, rows), 20
    p, k = family
    build = build_affine_twisted(AffineParams(p, k))
    group = build.group
    return build.code, affine_generator_rows(group), lambda rows: affine_steps(group, rows), p ** (k + 1) - p


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_invariance_certificate_complete_on_families(family, sp2):
    # the certificate and its sorted-key reference both pass, and each step x -> x s is
    # the relabelling through row s
    code, rows, steps, delta = family_code(family, sp2)
    assert check_distance_invariance(code, generators=steps(rows))
    assert sorted_key_invariance(code, rows)
    x = np.arange(code.size)
    for (_, step), (_, relabel) in zip(steps(rows), relabel_steps(code, rows)):
        assert np.array_equal(step(x), relabel(x))
    assert int(distance_row(code, 0)[1:].min()) == min_distance_pairwise(code) == delta


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_invariance_certificate_fails_on_mutations(family, sp2):
    # the certificate and its sorted-key reference both fail
    code, rows, steps, _ = family_code(family, sp2)
    swapped = code.words.copy()
    swapped[7, [0, 1]] = swapped[7, [1, 0]]  # two symbols of one codeword
    dropped = Code(code.words[:-1], code.q)  # the last row; the generator rows stay put
    assert max(rows) < dropped.size
    mutants = [
        (Code(swapped, code.q), rows), (dropped, rows),
        (code, [0]),  # the identity alone
        (code, rows[:1]),  # one generator alone: cyclic
    ]
    for mutant, gens in mutants:
        assert not check_distance_invariance(mutant, generators=steps(gens))
        assert not sorted_key_invariance(mutant, gens)


@pytest.mark.parametrize("cores", [1, 3])
def test_invariance_certificate_fails_on_bad_steps(monkeypatch, affine32, sp2, cores):
    # each returns False, and none raises, on blocks of a few rows split over `cores` workers
    usable_cores(monkeypatch, cores)
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", 1 << 10)
    group, natural, automorphisms = affine32
    code = build_twisted_code(natural, automorphisms)
    (s, step), *rest = pairs = affine_steps(group, affine_generator_rows(group))
    image = step(np.arange(code.size))
    off_low, off_high, swapped = image.copy(), image.copy(), image.copy()
    off_low[9], off_high[4] = -1, code.size
    swapped[[3, 5]] = swapped[[5, 3]]  # two step targets
    for bad in (off_low, off_high, swapped):
        assert check_distance_invariance(code, generators=[(s, bad.__getitem__), *rest]) is False
    changed = code.words.copy()
    changed[7, 0] = changed[7, 1]  # one symbol of one codeword: block 0 of row 7 is no permutation
    mutant = Code(changed, code.q)
    assert mutant.size == code.size
    assert check_distance_invariance(mutant, generators=pairs) is False
    assert check_distance_invariance(mutant, generators=[*pairs, (7, group.right_step(7))]) is False
    # at Sp(4, 2), a step that multiplies the real keys by a matrix outside the
    # group (I + E_02, not symplectic): index_block misses every product, and the step returns -1
    space, spgroup, natural = sp2
    spcode = build_twisted_code(natural, [build_outer_automorphism(space, spgroup).index])
    ops, rows = space.ops, sp2_generator_rows(space, spgroup)
    outside = np.eye(4, dtype=np.uint8)
    outside[0, 2] = 1
    outside_key = ops.keys_of(outside)

    def off_group(x):
        prods = _packed.keys_matmul(ops, spgroup.keys[x], np.repeat(outside_key, len(x)))
        pos = np.empty(len(x), dtype=np.int32)
        space.index_block(prods, pos)
        return pos

    assert (off_group(np.arange(len(spgroup))) == -1).all()
    assert check_distance_invariance(spcode, generators=[(rows[0], off_group), *sp2_steps(spgroup, rows[1:])]) is False


def test_invariance_certificate_allocates_no_code_copy(monkeypatch):
    # blocks of rows are relabelled and compared in place of a gathered copy of the whole code
    build = build_affine_twisted(AffineParams(7, 3))
    group, code = build.group, build.code
    pairs = affine_steps(group, affine_generator_rows(group))
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", 1 << 16)
    tracemalloc.start()
    try:
        ok = check_distance_invariance(code, generators=pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and peak < code.words.nbytes // 8


@settings(max_examples=60, deadline=None)
@given(certificate_codes(), st.sampled_from([1, codes.BLOCK_ENTRIES]))
def test_row_scans_equal_row_loops(code, chunk):
    # the block scans, with one-row blocks too, against one row at a time
    r = code.length // code.q
    letters = all((np.bincount(row, minlength=code.q + 1)[1:] == r).all() for row in code.words)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "BLOCK_ENTRIES", chunk)
        assert letter_counts_constant(code, r) == letters
        assert distance_row(code, code.size - 1).tolist() == [hamming_distance(w, code.words[-1]) for w in code.words]


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(st.sampled_from([np.uint8, np.uint16]), st.tuples(st.integers(1, 30), st.integers(1, 4)),
                  elements=st.integers(1, 3)), st.sampled_from([1, codes.BLOCK_ENTRIES]))
def test_code_dedup_matches_unique_axis0(words, chunk):
    # with one-row blocks too, so runs of equal keys cross block edges
    _, first = np.unique(words, axis=0, return_index=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "BLOCK_ENTRIES", chunk)
        code = Code(words, 3)
    assert np.array_equal(code.words, words[np.sort(first)])


def test_code_dedup_keeps_first_occurrences():
    words = np.array([[2, 1], [1, 2], [2, 1], [1, 1], [1, 2]], dtype=np.uint8)
    assert Code(words, 2).words.tolist() == [[2, 1], [1, 2], [1, 1]]  # in input order
    assert Code(words[::-1], 2).words.tolist() == [[1, 2], [1, 1], [2, 1]]


def test_finish_build_reports_wrong_delta(affine32):
    group, natural, automorphisms = affine32
    rec = BuildRecord("all")
    build = finish_build(
        group, group.fixed_count_table(), lambda: (natural, automorphisms), rec, family="affine",
        params={"p": 3, "k": 2}, m=9, deltas=(25, 18),
        generators=lambda: affine_steps(group, affine_generator_rows(group)),
    )
    assert "check.pairwise_delta_agrees=FAIL" in build.report.lines()
    assert rec.checks["distance_invariant"] and rec.checks["fpa_letter_counts"]


@pytest.mark.parametrize(
    "build",
    [lambda check: build_affine_twisted(AffineParams(3, 2), check=check),
     lambda check: symplectic.build_symplectic_twisted(SymplecticSpace.create(1), check=check)],
    ids=["affine", "symplectic"],
)
def test_builders_reject_unknown_check_level(build):
    with pytest.raises(ValueError, match="unknown check level 'most'"):
        build("most")


def test_check_code_size(affine32):
    _, natural, automorphisms = affine32
    code = build_twisted_code(natural, automorphisms)
    assert check_code_size(natural, automorphisms, code)


def test_mulclose_oracle_affine_order():
    gf3 = PrimeField(3)
    gens = [
        Matrix(gf3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        Matrix(gf3, [[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
        Matrix(gf3, [[1, 0, 0], [0, 1, 0], [0, 1, 1]]),  # lower block B_2
    ]
    assert len(mulclose(gens)) == 27


def test_code_file_roundtrip(tmp_path, affine32):
    _, natural, automorphisms = affine32
    code = build_twisted_code(natural, automorphisms)
    path = tmp_path / "aff.tw"
    write_code(path, code, "affine", {"p": 3, "k": 2}, r=3)
    loaded, meta = read_code(path)
    assert (loaded.words == code.words).all()
    assert meta["family"] == "affine" and meta["r"] == "3" and int(meta["size"]) == 27


def test_code_file_malformed(tmp_path):
    bad_magic = tmp_path / "a.tw"
    bad_magic.write_text("# wrong\n# family=x q=3 length=2 size=1\n1 2\n")
    with pytest.raises(CodewordFileError) as err:
        read_code(bad_magic)
    assert err.value.line == 1

    ragged = tmp_path / "b.tw"
    ragged.write_text("# twistcode v1\n# family=custom q=3 length=3 size=2\n1 2 3\n1 2\n")
    with pytest.raises(CodewordFileError) as err:
        read_code(ragged)
    assert err.value.line == 4

    out_of_range = tmp_path / "c.tw"
    out_of_range.write_text("# twistcode v1\n# family=custom q=3 length=3 size=1\n1 2 4\n")
    with pytest.raises(CodewordFileError) as err:
        read_code(out_of_range)
    assert err.value.line == 3

    not_int = tmp_path / "d.tw"
    not_int.write_text("# twistcode v1\n# family=custom q=3 length=3 size=1\n1 x 3\n")
    with pytest.raises(CodewordFileError) as err:
        read_code(not_int)
    assert err.value.line == 3


def test_code_file_size_header_checked(tmp_path):
    # the header's size= must count the codeword lines: a dropped line or an extra one is named
    path = tmp_path / "e.tw"
    path.write_text("# twistcode v1\n# family=custom q=3 length=3 size=3\n1 2 3\n2 3 1\n")
    with pytest.raises(CodewordFileError, match="2 codewords, the header's size=3") as err:
        read_code(path)
    assert err.value.line == 5
    path.write_text("# twistcode v1\n# family=custom q=3 length=3 size=1\n1 2 3\n\n2 3 1\n")
    with pytest.raises(CodewordFileError, match="more codewords than the header's size=1") as err:
        read_code(path)
    assert err.value.line == 5
    path.write_text("# twistcode v1\n# family=custom q=3 length=3 size=x\n1 2 3\n")
    with pytest.raises(CodewordFileError) as err:
        read_code(path)
    assert err.value.line == 2
    path.write_text("# twistcode v1\n# family=custom q=3 length=3\n1 2 3\n2 3 1\n")  # no size=: not checked
    assert read_code(path)[0].size == 2


@st.composite
def code_files(draw):
    """(code, family, params, r): a deduplicated code of 1-20 words over
    1..q, with header fields as the builders write them."""
    q = draw(st.integers(1, 300))
    length = draw(st.integers(1, 12))
    words = draw(hnp.arrays(np.int64, (draw(st.integers(1, 20)), length), elements=st.integers(1, q)))
    family = draw(st.sampled_from(["affine", "symplectic", "custom"]))
    params = draw(st.dictionaries(st.sampled_from(["p", "k", "n", "poly"]), st.integers(0, 999), max_size=3))
    return Code(words, q), family, params, draw(st.integers(1, 5))


def corrupt_symbol(draw, tokens, q):
    """One malformed body line from a well-formed one's tokens."""
    kinds = ["non_integer", "extra_symbol", "zero", "above_q"] + (["missing_symbol"] if len(tokens) > 1 else [])
    kind = draw(st.sampled_from(kinds))
    at = draw(st.integers(0, len(tokens) - 1))
    if kind == "extra_symbol":
        return tokens + ["1"]
    if kind == "missing_symbol":
        return tokens[:at] + tokens[at + 1 :]
    bad = {"non_integer": "x", "zero": "0", "above_q": str(q + 1)}[kind]
    return tokens[:at] + [bad] + tokens[at + 1 :]


@settings(max_examples=60, deadline=None)
@given(code_files(), st.data(), st.sampled_from([4, codes.BLOCK_ENTRIES]))
def test_code_file_roundtrip_property(case, data, block):
    # block 4 reads one line per block (the reader takes max(1, BLOCK_ENTRIES // 16) bytes of whole lines)
    code, family, params, r = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "BLOCK_ENTRIES", block)
        path = Path(tmp) / "code.tw"
        write_code(path, code, family, params, r=r)
        loaded, meta = read_code(path)
        assert np.array_equal(loaded.words, code.words)
        assert loaded.words.dtype == read_code_lines(path)[0].words.dtype
        assert (loaded.q, loaded.length, loaded.size) == (code.q, code.length, code.size)
        want = {"family": family, **{k: str(v) for k, v in params.items()}, "r": str(r),
                "q": str(code.q), "length": str(code.length), "size": str(code.size)}
        assert meta == want

        # one malformed body line: the error names its line (body starts at line 3)
        lines = path.read_text().splitlines()
        i = data.draw(st.integers(0, code.size - 1))
        lines[2 + i] = " ".join(corrupt_symbol(data.draw, lines[2 + i].split(), code.q))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CodewordFileError) as err:
            read_code(path)
        assert err.value.line == 3 + i


HEADER = "# twistcode v1\n# family=custom q=12 length=3 size=2\n"


@pytest.mark.parametrize(
    "text, plain",
    [
        (HEADER + "1 2 3\n12 11 10\n", True),
        (HEADER + "1 2 3\r\n12 11 10\r\n", False),  # CRLF
        (HEADER + "1\t2 3\n12 11\t10\n", False),  # tabs
        (HEADER + "1 2 3\n   \n\n12 11 10\n", True),  # whitespace-only and empty lines
        (HEADER + "  1  2 3 \n12 11 10", True),  # extra spaces, no trailing newline
        (HEADER + "01 2 3\n12 11 10\n", True),  # more digits than q has, read as int() reads them
        (HEADER + "001 2 3\n12 11 10\n", False),
        (HEADER + "+1 2 3\n12 11 10\n", False),
        (HEADER + "1 2 3\n12 -1 10\n", False),
        (HEADER + "1 2 0\n12 11 10\n", False),
        (HEADER + "1 2 3\n12 11 13\n", False),
        (HEADER + "1 2 3\n12 11 10 9\n", False),
        (HEADER + "1 2 3\n12 11\n", False),
        (HEADER + "1 2 3\n12 11", False),  # short last line, no trailing newline
        (HEADER + "1 2 3\n", False),  # one line too few
        (HEADER + "1 2 3\n12 11 10\n2 3 1\n", False),  # one line too many
        (HEADER + "1 2 3\n12 11 10\n1 x 3\n", False),  # too many, and malformed after
        (HEADER + "\n \n", False),  # no codewords
        (HEADER.replace(" size=2", "") + "1 2 3\n\n12 11 10\n2 3 1\n", True),  # no size=
        (HEADER.replace(" size=2", " size=9999") + "1 2 3\n", False),
        (HEADER.replace("q=12", "q=0") + "1 2 3\n", False),
        (HEADER.replace("q=12", "q=1000000000") + "1 2 3\n", False),
        (HEADER.replace("q=12", f"q={2**64 - 1}") + "1 2 3\n12 11 10\n", False),  # uint64 symbols
        (HEADER.replace("q=12", f"q={2**64}") + "1 2 3\n12 11 10\n", False),  # no symbol type: line 2
        (HEADER.replace("length=3", "length=0") + "1 2 3\n", False),
        (HEADER.replace("family", "famille \u00e9") + "1 2 3\n12 11 10\n", False),
        (HEADER.replace(" size=2", "\tsize=2") + "1 2 3\n12 11 10\n", False),
        (HEADER.replace("q=12", "q=x") + "1 2 3\n12 11 10\n", False),
        (HEADER.replace("twistcode v1", "twistcode v2") + "1 2 3\n12 11 10\n", False),
        ("# twistcode v1\n", False),
        ("", False),
        # separators and encodings, as str.splitlines and int() read them: in the body
        (HEADER + "1 2 3\r12 11 10\r", False),  # bare CR
        (HEADER + "1 2 3\x0b12 11 10\n", False),
        (HEADER + "1 2 3\x0c\n12 11 10\n", False),  # a form feed, then a newline: an empty line between
        (HEADER + "1 2 3\x1c12 11 10\x1d\x1e", False),
        (HEADER + "1 2 3\u008512 11 10\u2028\u2029", False),  # NEL, line and paragraph separators
        (HEADER + "1\x0c2 3\n12 11 10\n", False),  # a form feed splits a codeword
        (HEADER + "1\xa02\u30003\n12\t11 10\n", False),  # no-break and ideographic spaces
        (HEADER + "\u0661 2 3\n\uff11_2 11 10\n", False),  # Arabic-Indic and fullwidth digits, a "_"
        (HEADER + "1 2 3\r\n12 11 10\r\n\r\n\r", False),
        (HEADER + "1 2 3\r\n12 11 10\r\n2 3 1\r\n", False),  # one line too many
        (HEADER + "1 2 3\r\n\x0c\r\n", False),  # one line too few, counted past two blank lines
        (HEADER + "1 2 3\n12 11 \u0661\u0663\n", False),  # 13 in Arabic-Indic digits
        # and in the header
        (HEADER.replace("\n", "\r\n") + "1 2 3\n12 11 10\n", True),
        (HEADER.replace("\n", "\r") + "1 2 3\r12 11 10\r", False),  # bare CR throughout
        (HEADER.replace("\n", "\x0c", 1) + "1 2 3\n12 11 10\n", True),
        (HEADER.replace("\n", "\u2028", 1) + "1 2 3\n12 11 10\n", True),
        (HEADER[:-1] + "\u00851 2 3\n12 11 10\n", True),  # the first codeword on the header's b"\n" line
        (HEADER[:-1] + "\r1 2 3\n12 11 10\n", True),
        (HEADER[:-1] + "\x0b1 2 x\n12 11 10\n", False),
        (HEADER.replace(" q=", "\x1cq=") + "1 2 3\n12 11 10\n", False),  # a separator splits the metadata
        (HEADER.replace("# family", "\x0c# family") + "1 2 3\n12 11 10\n", False),
        (HEADER.replace("# twistcode v1\n", "# twistcode v1\x85\x85") + "1 2 3\n12 11 10\n", False),
        (HEADER.replace("# twistcode", "\t# twistcode") + "1 2 3\n12 11 10\n", True),
        (HEADER.replace("q=12", "q=\u0661\u0662") + "1 2 3\n12 11 10\n", True),
        (HEADER.replace("\n", "\r"), False),  # no codewords
    ],
)
@pytest.mark.parametrize("block", [4, codes.BLOCK_ENTRIES])
def test_read_code_hands_over_to_line_parser(monkeypatch, tmp_path, text, plain, block):
    """read_code gives the reference line parser's words and meta, or its
    exact error; plain files never reach the per-block line parser."""
    path = tmp_path / "f.tw"
    path.write_bytes(text.encode())
    try:
        want = read_code_lines(path)
    except CodewordFileError as exc:
        want = exc
    calls = []
    line_parser = codes._parse_lines
    monkeypatch.setattr(codes, "_parse_lines", lambda *args: calls.append(args) or line_parser(*args))
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", block)
    if isinstance(want, CodewordFileError):
        with pytest.raises(CodewordFileError) as err:
            read_code(path)
        assert (err.value.line, str(err.value)) == (want.line, str(want))
    else:
        got = read_code(path)
        assert got[1] == want[1]
        assert got[0].words.dtype == want[0].words.dtype
        assert np.array_equal(got[0].words, want[0].words)
    assert not (plain and calls)


def test_read_code_fast_path_runs(monkeypatch, tmp_path, affine32):
    _, natural, automorphisms = affine32
    code = build_twisted_code(natural, automorphisms)
    path = tmp_path / "aff.tw"
    write_code(path, code, "affine", {"p": 3, "k": 2}, r=3)
    want, meta = read_code_lines(path)

    def refuse(*args):
        raise AssertionError("the line parser ran")

    monkeypatch.setattr(codes, "_parse_lines", refuse)
    # one 54-byte line, about four lines (a 200-byte hint) and the whole body per block
    for block in (4, 200 * 16, codes.BLOCK_ENTRIES):
        monkeypatch.setattr(codes, "BLOCK_ENTRIES", block)
        loaded, got_meta = read_code(path)
        assert np.array_equal(loaded.words, code.words) and np.array_equal(loaded.words, want.words)
        assert loaded.words.dtype == want.words.dtype and got_meta == meta


SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def mixed_code_texts(draw):
    """Codeword file text that mixes str.splitlines separators into the
    header and the body, tabs and Unicode spaces into lines, and symbols
    spelled as int() reads them (or cannot), with codeword lines of the
    right length or not, and a size= that may count them wrongly."""
    q = draw(st.sampled_from([3, 12]))
    length = draw(st.integers(1, 3))
    symbol = st.one_of(st.integers(1, q).map(str), st.integers(1, q).map(str),
                       st.sampled_from(["+1", "001", "\u0661", "1_0", "x", "0", str(q + 1)]))
    space = st.sampled_from([" ", "\t", "\xa0"])
    lines = [draw(st.lists(symbol, min_size=n, max_size=n))
             for n in draw(st.lists(st.one_of(st.just(length), st.integers(0, length + 1)), max_size=8))]
    size = draw(st.sampled_from([None, sum(map(bool, lines)), sum(map(bool, lines)) + 1, 0]))
    meta = f"# family=custom q={q} length={length}" + ("" if size is None else f" size={size}")
    text = codes.FORMAT_MAGIC + draw(st.sampled_from(SEPARATORS)) + meta
    for tokens in lines:
        text += draw(st.sampled_from(SEPARATORS)) + "".join(draw(space) + tok for tok in tokens)
    return text + draw(st.sampled_from(["", *SEPARATORS]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([b"a", b"\r", b"\n"]), max_size=60).map(b"".join), st.integers(1, 12))
def test_line_blocks_cut_at_first_line_end_past_size(data, size):
    # the blocks rejoin to the file; each but the last ends at the first b"\n", b"\r\n" or
    # lone b"\r" from its byte `size` on (so at least `size` bytes), and no CRLF pair is split
    blocks = list(codes._line_blocks(io.BytesIO(data), size))
    assert b"".join(blocks) == data and all(blocks)
    for block, after in zip(blocks, blocks[1:]):
        assert len(block) >= size and codes.LINE_END.search(block, size - 1).end() == len(block)
        assert not (block.endswith(b"\r") and after.startswith(b"\n"))
    if blocks and len(blocks[-1]) >= size:
        end = codes.LINE_END.search(blocks[-1], size - 1)
        assert end is None or end.end() == len(blocks[-1])


@settings(max_examples=150, deadline=None)
@given(mixed_code_texts(), st.sampled_from([4, codes.BLOCK_ENTRIES]))
def test_read_code_matches_line_parser_on_mixed_text(text, block):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "BLOCK_ENTRIES", block)
        path = Path(tmp) / "mixed.tw"
        path.write_bytes(text.encode())
        try:
            want = read_code_lines(path)
        except CodewordFileError as exc:
            with pytest.raises(CodewordFileError) as err:
                read_code(path)
            assert (err.value.line, str(err.value)) == (exc.line, str(exc))
        else:
            got = read_code(path)
            assert got[1] == want[1] and got[0].words.dtype == want[0].words.dtype
            assert np.array_equal(got[0].words, want[0].words)


@pytest.mark.parametrize("block", [4, codes.BLOCK_ENTRIES])
@pytest.mark.parametrize(
    "raw, line, message",
    [
        (b"# twistcode v1\xff\n# family=custom q=3 length=3\n1 2 3\n", 1, "not UTF-8 text"),
        (b"# twistcode v1\n# family=caf\xe9 q=3 length=3\n1 2 3\n", 2, "not UTF-8 text"),
        (b"# twistcode v2\n# family=caf\xe9 q=3 length=3\n1 2 3\n", 1, "missing magic header"),
        (b"# twistcode v1\n# family=custom q=3 length=3\x0c\xff\n1 2 3\n", 3, "not UTF-8 text"),
        (b"# twistcode v1\n# family=custom q=3 length=3 size=2\n1 2 3\n2 \xc3 1\n", 4, "not UTF-8 text"),
        (b"# twistcode v1\n# family=custom q=3 length=3\n1 2 3\r\n\r2 3 1\n\x80\n", 6, "not UTF-8 text"),
        # the first bad line is named, in the block of the invalid byte or before it
        (b"# twistcode v1\n# family=custom q=3 length=3\n1 x 3\n2 \xff 1\n", 3, "non-integer symbol"),
        (b"# twistcode v1\n# family=custom q=3 length=3 size=1\n1 2 3\n2 3 1\n\xff\n", 4, "more codewords"),
    ],
)
def test_read_code_names_non_utf8_line(monkeypatch, tmp_path, raw, line, message, block):
    # the reference line parser, which decodes the whole file at once, raises UnicodeDecodeError on each
    path = tmp_path / "bad.tw"
    path.write_bytes(raw)
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", block)
    with pytest.raises(CodewordFileError) as err:
        read_code(path)
    assert err.value.line == line and str(err.value).startswith(f"line {line}: {message}")


def test_read_code_holds_one_block_of_text(monkeypatch, tmp_path, affine112):
    # the (11,2) file (5.5 MB: 1,331 lines of 1,331 symbols) read one line per block, with its
    # last symbol made "x": the numpy parse takes every block but the last, which the line
    # parser reads, so read_code holds a block's text and rows beyond the codewords, not the
    # file's (numpy 2.4.6: 0.11 MiB; 18.1 MiB while the whole file went to the line parser)
    code = affine112.code
    path = tmp_path / "a112.tw"
    write_code(path, code, "affine", {"p": 11, "k": 2}, r=affine112.report.reps)
    path.write_bytes(path.read_bytes()[:-2] + b"x\n")
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", 1 << 16)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with pytest.raises(CodewordFileError, match="non-integer symbol") as err:
            read_code(path)
        held = tracemalloc.get_traced_memory()[1] - start - code.words.nbytes
    finally:
        tracemalloc.stop()
    assert err.value.line == code.size + 2
    assert held <= 1 << 18, held


def test_read_code_holds_one_block_of_bare_cr_text(monkeypatch, tmp_path, affine112):
    # the (11,2) file with bare-CR line ends, read about 4 KiB (one line) at a time: blocks
    # end at b"\r" as at b"\n", so the line parser holds one block's text and rows beyond
    # the codewords (numpy 2.4.6: 0.1 MiB; 26.3 MiB while the whole file was one block)
    code = affine112.code
    path = tmp_path / "a112.tw"
    write_code(path, code, "affine", {"p": 11, "k": 2}, r=affine112.report.reps)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", 1 << 16)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loaded, _ = read_code(path)
        held = tracemalloc.get_traced_memory()[1] - start - code.words.nbytes
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.words, code.words)
    assert held <= 1 << 18, held


@pytest.mark.parametrize("length", [255, 256, 65536])
def test_pairwise_oracle_counts_past_narrow_types(length):
    # two codewords that differ everywhere: a count that wrapped at 256 or 65,536 would read 0
    words = np.stack([np.ones(length, dtype=np.uint8), np.full(length, 2, dtype=np.uint8)])
    assert min_distance_pairwise(Code(words, 2)) == length
    assert min_distance_pairwise(Code(np.vstack([words, words[:1] % 2 + 1]), 2)) == length


@st.composite
def pairwise_codes(draw):
    """A code of 0-40 words over 1..q, q in {400, 256, 255, 2} (uint16 and
    uint8 symbols), of a small length or of 2040, 2041 or 4100 symbols
    (one, two and three 255-word lane groups): random words; words copied
    from earlier ones with a few symbols redrawn, so the least distance is
    small; or shifts of one word, which differ everywhere (n <= q)."""
    q = draw(st.sampled_from([400, 256, 255, 2]))
    length = draw(st.one_of(st.integers(1, 300), st.sampled_from([2040, 2041, 4100])))
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = rng.integers(1, q + 1, size=(n, length))
    kind = draw(st.sampled_from(["random", "near", "shifted"]))
    if kind == "near":
        for i in range(1, n):
            words[i] = words[rng.integers(i)]
            cols = rng.choice(length, size=min(length, draw(st.integers(0, 12))), replace=False)
            words[i, cols] = rng.integers(1, q + 1, size=len(cols))
    elif kind == "shifted":
        words = (words[:1] + np.arange(n)[:, None]) % q + 1
    return Code(words.astype(np.min_scalar_type(q)), q)


@pytest.mark.parametrize("cores", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(code=pairwise_codes(), block=st.sampled_from([64, codes.BLOCK_ENTRIES]))
# two words that differ in every symbol but agree mod 256; 2,041 symbols fill a 256-word lane
@example(code=Code(np.repeat([[1], [257]], 2041, axis=1).astype(np.uint16), 400), block=codes.BLOCK_ENTRIES)
def test_pairwise_oracle_equals_all_pairs(cores, code, block):
    # block 64 makes tiles of one or two rows, so tiles end mid-code; with
    # several workers, each takes every cores-th block of rows
    with pytest.MonkeyPatch.context() as mp:
        usable_cores(mp, cores)
        mp.setattr(codes, "BLOCK_ENTRIES", block)
        assert min_distance_pairwise(code) == min_distance_all_pairs(code)


@pytest.mark.parametrize("cores", [2, 3])
def test_pairwise_oracle_worker_edge_cases(monkeypatch, cores):
    usable_cores(monkeypatch, cores)
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(_packed.threading, "Thread", Recorded)
    before = threading.active_count()
    # |C| <= 1: no pair, and no worker started
    for n in (0, 1):
        assert min_distance_pairwise(Code(np.ones((n, 5), dtype=np.uint8), 2)) == 0
    assert not started
    # two rows fit one block: fewer blocks than cores, so the calling thread sweeps alone
    pair = Code(np.array([[1, 2, 3], [1, 3, 2]], dtype=np.uint8), 3)
    assert min_distance_pairwise(pair) == 2 and not started
    # blocks of one row: every tile one pair, every worker busy, and the
    # workers switched as often as the interpreter allows
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", 1)
    words = np.random.default_rng(cores).integers(1, 4, size=(9, 6), dtype=np.uint8)
    code = Code(words, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert min_distance_pairwise(code) == min_distance_all_pairs(code)
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == cores - 1
    assert threading.active_count() == before


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_pairwise_worker_exception_propagates(monkeypatch, where):
    # an exception in one worker reaches the caller once every worker has been joined
    usable_cores(monkeypatch, 3)
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", 64)
    real = codes._mismatch_counts

    def fail_in_one(words):
        if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
            raise RuntimeError(f"injected in the {where}")
        return real(words)

    monkeypatch.setattr(codes, "_mismatch_counts", fail_in_one)
    before = threading.active_count()
    code = Code(np.random.default_rng(7).integers(1, 4, size=(40, 8), dtype=np.uint8), 3)
    with pytest.raises(RuntimeError, match=f"injected in the {where}"):
        min_distance_pairwise(code)
    assert threading.active_count() == before


def test_code_refuses_zero_length_words():
    # a zero-width row has no row key, so duplicates of it could not be found
    with pytest.raises(ValueError, match="at least one symbol"):
        Code(np.ones((3, 0), dtype=np.uint8), 2)


def test_write_code_refuses_files_it_cannot_write(tmp_path):
    path = tmp_path / "x.tw"
    with pytest.raises(ValueError, match="empty code"):  # read_code refuses a file without codewords
        write_code(path, Code(np.ones((0, 3), dtype=np.uint8), 2), "custom", {})
    with pytest.raises(ValueError, match="more than 7 digits"):  # a token would not fit in 8 bytes
        write_code(path, Code(np.ones((1, 3), dtype=np.uint32), 10**7), "custom", {})
    assert not path.exists()


@pytest.mark.parametrize("block", [4, codes.BLOCK_ENTRIES])
@pytest.mark.parametrize("q", [9, 10, 99, 100, 999, 1000, 161051])
def test_write_code_equals_line_writer(tmp_path, q, block):
    # every digit width up to q's, with 4-byte tokens up to 3 digits and 8-byte ones past them
    words = np.random.default_rng(q).integers(1, q + 1, size=(30, 17))
    edges = [s for s in (1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000) if s < q] + [q]
    words[0, : len(edges)] = edges
    code = Code(words.astype(np.min_scalar_type(q)), q)
    write_code_lines(tmp_path / "lines.tw", code, "custom", {"p": 3}, r=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "BLOCK_ENTRIES", block)
        write_code(tmp_path / "tokens.tw", code, "custom", {"p": 3}, r=2)
    assert (tmp_path / "tokens.tw").read_bytes() == (tmp_path / "lines.tw").read_bytes()


def test_write_code_golden_digest(tmp_path, affine112):
    golden = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())
    path = tmp_path / "a112.tw"
    write_code(path, affine112.code, "affine", {"p": 11, "k": 2}, r=affine112.report.reps)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == golden["affine-certify-p11k2"]["codewords"]


def test_code_file_io_peaks_within_a_block(tmp_path, affine112):
    # write_code gathers BLOCK_ENTRIES // 16 symbols and read_code parses BLOCK_ENTRIES // 16
    # bytes of lines at a time, without intp copies of the symbols or token ends (numpy 2.4.6:
    # 2.8 and 3.1 MiB; 12.3 and 14.0 MiB with np.take over 4 MiB and 1 MiB blocks)
    code = affine112.code
    path = tmp_path / "a112.tw"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_code(path, code, "affine", {"p": 11, "k": 2}, r=affine112.report.reps)
        written = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        loaded, _ = read_code(path)
        read = tracemalloc.get_traced_memory()[1] - start - loaded.words.nbytes  # apart from the code it returns
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.words, code.words)
    assert written <= codes.BLOCK_ENTRIES and read <= codes.BLOCK_ENTRIES, (written, read)


def test_stored_arrays_frozen_not_callers():
    perms = np.array([[0, 1, 2], [1, 2, 0]])
    rep = Representation(range(2), perms)
    words = np.array([[1, 2], [2, 1]], dtype=np.uint8)
    code = Code(words, 2)
    for caller, stored in ((perms, rep.perms), (words, code.words)):
        assert np.shares_memory(caller, stored)  # no copy was needed
        assert caller.flags.writeable and not stored.flags.writeable


def test_code_dedup_stable():
    words = np.array([[2, 1], [1, 2], [2, 1], [1, 1]])
    code = Code(words, 2)
    assert code.words.tolist() == [[2, 1], [1, 2], [1, 1]]


def test_bijection_checked_above_2_22_entries():
    q = 64
    n = (1 << 22) // q + 2  # one row past 2^22 entries

    class StubGroup:
        def __len__(self):
            return n

    perms = np.tile(np.arange(q, dtype=np.uint8), (n, 1))
    assert perms.size > 1 << 22
    Representation(StubGroup(), perms.copy())
    perms[-1, 0] = perms[-1, 1]  # the last row repeats a point
    with pytest.raises(ValueError, match="not a bijection"):
        Representation(StubGroup(), perms)


def test_bijection_check_independent_of_chunk(monkeypatch, sp2):
    space, group, natural = sp2
    tau_perms = natural.perms[build_outer_automorphism(space, group).index]
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", space.num_points)  # one row per block
    for perms in (natural.perms, tau_perms):
        Representation(group, perms)
    bad = natural.perms.copy()
    bad[361, 0] = bad[361, 1]
    with pytest.raises(ValueError, match="not a bijection"):
        Representation(group, bad)


def test_sample_pairs_rule():
    a, b, cov = sample_pairs(3, None, 10)
    assert cov == "exhaustive"
    assert list(zip(a.tolist(), b.tolist())) == [(i, j) for i in range(3) for j in range(3)]
    assert sample_pairs(1024, None, 10)[2] == "exhaustive"  # n^2 == EXHAUSTIVE_PAIR_LIMIT
    a, b, cov = sample_pairs(1025, np.random.default_rng(5), 10)
    ref = np.random.default_rng(5)
    assert cov == "10/1050625"
    assert np.array_equal(a, ref.integers(0, 1025, size=10))  # a drawn first, then b
    assert np.array_equal(b, ref.integers(0, 1025, size=10))
