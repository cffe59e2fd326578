import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from twistcode import codes
from twistcode.affine import AffineParams, enumerate_group, twisted_family, twisted_representation
from twistcode.codes import (
    Code,
    CodewordFileError,
    EnumeratedGroup,
    IndexedDomain,
    NontrivialKernelError,
    Representation,
    build_code,
    build_twisted_code,
    check_code_size,
    check_distance_invariance,
    codeword_from_element,
    distance_blocks,
    distance_row,
    finish_build,
    hamming_distance,
    letter_counts_constant,
    min_distance_by_agreement,
    min_distance_by_support,
    min_distance_pairwise,
    read_code,
    repetition_lower_bound,
    sample_pairs,
    support_size,
    write_code,
)
from twistcode.fields import BinaryField, PrimeField
from twistcode.linalg import Matrix
from twistcode.symplectic import SymplecticGroup, SymplecticSpace, build_outer_automorphism, generate_group

from oracles import mulclose


@pytest.fixture(scope="module")
def cyclic3():
    """C3 as 3x3 permutation matrices over GF(2), identity first."""
    gf2 = BinaryField(1)
    shift = np.roll(np.eye(3, dtype=np.uint8), 1, axis=1)
    elements = np.stack([np.eye(3, dtype=np.uint8), shift, (shift @ shift) % 2])
    group = EnumeratedGroup(gf2, elements)
    perms = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    return group, Representation(group, perms)


@pytest.fixture(scope="module")
def affine32():
    group = enumerate_group(AffineParams(3, 2))
    return group, twisted_family(group)


@pytest.fixture(scope="module")
def sp2():
    space = SymplecticSpace.create(1)
    group = generate_group(space)
    return space, group, group.natural_representation()


def test_hamming_distance_basics():
    assert hamming_distance((1, 2, 3), (1, 2, 3)) == 0
    assert hamming_distance((1, 2, 3), (1, 3, 2)) == 2
    with pytest.raises(ValueError):
        hamming_distance((1, 2), (1, 2, 3))


def test_support_size_basics():
    assert support_size([0, 1, 2, 3]) == 0
    assert support_size([1, 0, 2, 3]) == 2


def test_transvection_support_in_sp42(sp2):
    space, group, rep = sp2
    mask = group.transvection_mask()
    sizes = rep.support_sizes()
    # 15 points, q^2+q+1 = 7 fixed: support 8 for every transvection
    assert (sizes[mask] == 8).all()


def test_passive_form(cyclic3):
    group, rep = cyclic3
    assert codeword_from_element(rep, 0).tolist() == [1, 2, 3]
    assert codeword_from_element(rep, 1).tolist() == [2, 3, 1]


def test_enumerated_group_key_order(sp2):
    space, group, _ = sp2
    # every key of Sp(4, 2) answers its own index, the identity's (not the least) 0
    assert group.keys[0] > group.keys[1]
    assert group.indices_of_keys(group.keys).tolist() == list(range(len(group)))
    rows = group.rows[:3]  # the identity first; the keys below are made up
    keyed = SymplecticGroup(space, rows, np.array([5, 1, 9]))
    # the identity's key answers 0; keys below, between and above the rest miss
    got = keyed.indices_of_keys(np.array([5, 1, 9, 0, 4, 7, 10, 5]))
    assert got.tolist() == [0, 1, 2, -1, -1, -1, -1, 0]
    for keys in ([5, 9, 1], [5, 1, 1], [5, 5, 9]):  # a descent, a repeat, the identity's repeated
        with pytest.raises(ValueError, match="strictly ascending"):
            SymplecticGroup(space, rows, np.array(keys))
    with pytest.raises(ValueError, match="identity must sit at index 0"):
        SymplecticGroup(space, group.rows[1:4], np.array([5, 1, 9]))


def test_trivial_group_code():
    gf2 = BinaryField(1)
    group = EnumeratedGroup(gf2, np.eye(2, dtype=np.uint8)[None, :, :])
    rep = Representation(group, np.arange(4)[None, :])
    code = build_code(group, rep)
    assert code.size == 1
    assert min_distance_pairwise(code) == 0


def test_distance_from_identity_equals_support_affine(affine32):
    group, reps = affine32
    rep = reps[0]
    code = build_code(group, rep)
    base = code.words[0]
    for t in range(len(group)):
        assert hamming_distance(base, code.words[t]) == support_size(rep.perm(t))


def test_distance_from_identity_equals_support_sp42(sp2):
    _, group, rep = sp2
    code = build_code(group, rep)
    base = code.words[0]
    for t in range(len(group)):
        assert hamming_distance(base, code.words[t]) == support_size(rep.perm(t))


def test_build_code_sizes(affine32, sp2):
    group, reps = affine32
    code = build_code(group, reps[0])
    assert (code.size, code.length, code.q) == (27, 9, 9)
    _, spgroup, sprep = sp2
    spcode = build_code(spgroup, sprep)
    assert (spcode.size, spcode.length) == (720, 15)


def test_twisted_code_degenerate_and_repetition(affine32):
    group, reps = affine32
    single = build_twisted_code(group, reps[:1])
    assert (single.words == build_code(group, reps[0]).words).all()
    doubled = build_twisted_code(group, [reps[0], reps[0]])
    assert min_distance_pairwise(doubled) == 2 * min_distance_pairwise(single)
    assert letter_counts_constant(doubled, 2)


def test_twisted_code_mixed_domains_rejected(affine32, cyclic3):
    group, reps = affine32
    _, c3rep = cyclic3
    with pytest.raises(ValueError):
        build_twisted_code(group, [reps[0], c3rep])


def test_affine_twisted_code_letter_counts(affine32):
    group, reps = affine32
    code = build_twisted_code(group, reps)
    assert (code.size, code.length) == (27, 27)
    assert letter_counts_constant(code, 3)


def test_min_distance_oracle_equivalence(affine32, sp2):
    group, reps = affine32
    code = build_twisted_code(group, reps)
    assert min_distance_pairwise(code) == min_distance_by_support(group, reps) == 24
    assert repetition_lower_bound(group, reps) == 18
    _, spgroup, sprep = sp2
    spcode = build_code(spgroup, sprep)
    assert min_distance_pairwise(spcode) == min_distance_by_support(spgroup, [sprep]) == 8
    assert repetition_lower_bound(spgroup, [sprep]) == 8


def test_pairwise_oracle_one_row_blocks(monkeypatch, affine32, sp2):
    group, reps = affine32
    _, spgroup, sprep = sp2
    monkeypatch.setattr(codes, "PAIRWISE_CHUNK", 1)
    assert min_distance_pairwise(build_twisted_code(group, reps)) == 24
    assert min_distance_pairwise(build_twisted_code(group, [reps[0], reps[0]])) == 12
    assert min_distance_pairwise(build_code(spgroup, sprep)) == 8


def test_pairwise_oracle_memory_bound():
    # 1000 x 200 symbols: a 64-row block against every row would be a
    # 12.8 MB temporary; the budget holds each block to about 4 MiB
    words = np.random.default_rng(3).integers(1, 5, size=(1000, 200), dtype=np.uint8)
    code = Code(words, 4)
    assert code.size == 1000
    tracemalloc.start()
    try:
        delta = min_distance_pairwise(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert delta == min_distance_by_agreement(code)
    assert peak < 8 << 20


def test_repetition_bound_degenerate_single_rep(affine32, sp2):
    group, reps = affine32
    assert repetition_lower_bound(group, reps[:1]) == min_distance_by_support(group, reps[:1])
    _, spgroup, sprep = sp2
    assert repetition_lower_bound(spgroup, [sprep]) == min_distance_by_support(spgroup, [sprep])


def test_pairwise_distance_equals_translated_support(sp2):
    # d(word_s, word_t) = |supp(s^-1 t)| for 100 random pairs
    _, group, rep = sp2
    code = build_code(group, rep)
    rng = np.random.default_rng(12)
    for _ in range(100):
        s, t = rng.integers(0, len(group), size=2)
        inv_s = np.argsort(rep.perm(int(s)))
        composed = rep.perm(int(t))[inv_s]
        assert hamming_distance(code.words[s], code.words[t]) == support_size(composed)


def test_representation_homomorphism(affine32, sp2):
    group, reps = affine32
    rep = reps[1]
    for a in range(len(group)):
        for b in range(len(group)):
            prod = group.product_index(a, b)
            assert (rep.perm(prod) == rep.perm(b)[rep.perm(a)]).all()
    space, spgroup, sprep = sp2
    rng = np.random.default_rng(13)
    for _ in range(500):
        a, b = (int(x) for x in rng.integers(0, len(spgroup), size=2))
        prod_mat = spgroup.matrix(a) * spgroup.matrix(b)
        key = space.ops.pack_keys(space.ops.pack(prod_mat.A)[None, :])[0]
        prod = int(spgroup.indices_of_keys(np.array([key]))[0])
        assert (sprep.perm(prod) == sprep.perm(b)[sprep.perm(a)]).all()


def test_nontrivial_joint_kernel_reported():
    gf3 = PrimeField(3)
    swap = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    group = EnumeratedGroup(gf3, np.stack([np.eye(2, dtype=np.uint8), swap]))
    trivial = Representation(group, np.tile(np.arange(3), (2, 1)))
    with pytest.raises(NontrivialKernelError):
        min_distance_by_support(group, [trivial])
    code = build_code(group, trivial)
    assert code.size == 1  # both elements collapse to one codeword
    assert not check_code_size(group, [trivial], Code(np.array([[1, 2, 3], [1, 3, 2]]), 3))


def test_distance_invariance_small_cases(affine32):
    assert check_distance_invariance(Code(np.array([[1, 2, 3]]), 3))
    assert check_distance_invariance(Code(np.array([[1, 2], [1, 3]]), 3))
    # distances {0, 2, 2} from the first row, {0, 2, 3} from the second
    assert not check_distance_invariance(Code(np.array([[1, 2, 3], [2, 1, 3], [3, 2, 1]]), 3))
    group, reps = affine32
    assert check_distance_invariance(build_twisted_code(group, reps))


def invariant_by_rows(code):
    """The plain invariance oracle: one distance_row histogram per codeword."""
    hists = [np.bincount(distance_row(code, i), minlength=code.length + 1) for i in range(code.size)]
    return all((h == hists[0]).all() for h in hists)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_distance_blocks_equal_plain_oracle(data):
    n, length, q = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 30)), data.draw(st.integers(1, 6))
    words = data.draw(hnp.arrays(np.uint8, (n, length), elements=st.integers(1, q)))
    constant = data.draw(st.lists(st.integers(0, length - 1), max_size=length))
    words[:, constant] = words[0, constant]
    code = Code(words, q)
    want = np.stack([distance_row(code, i) for i in range(code.size)])
    # the default budget, then one (row, column) cell per block
    for budget in (codes.AGREEMENT_CHUNK, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codes, "AGREEMENT_CHUNK", budget)
            mp.setattr(codes, "PAIRWISE_CHUNK", budget)
            got = np.full_like(want, -1)
            for i0, d in distance_blocks(code):
                got[i0 : i0 + len(d)] = d
            assert np.array_equal(got, want)
            assert min_distance_by_agreement(code) == min_distance_pairwise(code)
            assert check_distance_invariance(code) == invariant_by_rows(code)


def test_finish_build_reports_wrong_delta(affine32):
    group, reps = affine32
    checks = {}
    build = finish_build(
        group, group.fixed_count_table(), lambda: reps, family="affine", params={"p": 3, "k": 2},
        m=9, deltas=(25, 18), checks=checks, times={}, coverage={}, check="all",
        rng=np.random.default_rng(1),
    )
    assert "check.pairwise_delta_agrees=FAIL" in build.report.lines()
    assert checks["distance_invariant"] and checks["fpa_letter_counts"]


def test_check_code_size(affine32):
    group, reps = affine32
    code = build_twisted_code(group, reps)
    assert check_code_size(group, reps, code)


def test_mulclose_oracle_affine_order():
    gf3 = PrimeField(3)
    gens = [
        Matrix(gf3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        Matrix(gf3, [[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
        Matrix(gf3, [[1, 0, 0], [0, 1, 0], [0, 1, 1]]),  # lower block B_2
    ]
    assert len(mulclose(gens)) == 27


def test_indexed_domain():
    dom = IndexedDomain([(1, 0), (1, 1), (1, 2)])
    assert dom.size == 3 and dom.index((1, 1)) == 1 and dom[2] == (1, 2)
    with pytest.raises(ValueError):
        IndexedDomain([(1, 0), (1, 0)])


def test_code_file_roundtrip(tmp_path, affine32):
    group, reps = affine32
    code = build_twisted_code(group, reps)
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
@given(code_files(), st.data())
def test_code_file_roundtrip_property(case, data):
    code, family, params, r = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.tw"
        write_code(path, code, family, params, r=r)
        loaded, meta = read_code(path)
        assert np.array_equal(loaded.words, code.words)
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
    tau = build_outer_automorphism(space, group).representation(natural)
    monkeypatch.setattr(codes, "BIJECTION_CHUNK", space.num_points)  # one row per block
    for rep in (natural, tau):
        Representation(group, rep.perms)
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
