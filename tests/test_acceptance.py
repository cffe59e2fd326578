"""Acceptance suite: every headline criterion at its stated tolerance.

All expected values are exact integers; the only tolerances are the
stated wall-clock budgets.  Heavy builds are shared through module-scoped
fixtures; each criterion prints one PASS/FAIL line.
"""

import hashlib
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from twistcode.affine import AffineParams, build_affine_twisted, matrix_B, b_power, omega_sum
from twistcode.cli import main as cli_main
from twistcode.codes import write_code
from twistcode.linalg import Matrix
from twistcode.fields import PrimeField
from twistcode.symplectic import SymplecticSpace, build_symplectic_twisted, transvection_flags
from twistcode import _packed, symplectic

from oracles import dense_tau_apply

AFFINE_CASES = {(3, 2): (24, 18), (5, 2): (120, 100), (7, 2): (336, 294), (5, 3): (620, 600)}


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


@pytest.fixture(scope="module")
def affine_builds():
    out = {}
    for p, k in AFFINE_CASES:
        t0 = time.monotonic()
        build = build_affine_twisted(AffineParams(p, k), check="all")
        out[(p, k)] = (build, time.monotonic() - t0)
    return out


@pytest.fixture(scope="module")
def sp1():
    t0 = time.monotonic()
    build = build_symplectic_twisted(SymplecticSpace.create(1), check="all")
    return build, time.monotonic() - t0


@pytest.fixture(scope="module")
def sp2_traced():
    # the Sp(4,4) build under tracemalloc, which numpy reports its buffers to:
    # returns (build, wall, peak bytes, bytes still held once it returns)
    tracemalloc.start()
    try:
        t0 = time.monotonic()
        build = build_symplectic_twisted(SymplecticSpace.create(2), check="fast")
        wall = time.monotonic() - t0
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return build, wall, peak, retained


@pytest.fixture(scope="module")
def sp2(sp2_traced):
    return sp2_traced[:2]


def test_criterion_1_affine_table_rows(affine_builds):
    with criterion("1 affine family rows"):
        for (p, k), (tw, rep) in AFFINE_CASES.items():
            build, wall = affine_builds[(p, k)]
            r = build.report
            assert (r.delta_tw, r.delta_rep) == (tw, rep), (p, k)
            assert r.checks["pairwise_delta_agrees"], (p, k)
            assert r.checks["support_scan_agrees"], (p, k)
            pairwise = r.times.get("pairwise", 0.0)
            if (p, k) == (5, 3):
                assert pairwise < 60.0
                assert wall - pairwise < 5.0
            else:
                assert wall < 5.0


def test_criterion_2_symplectic_table_rows(sp1, sp2):
    with criterion("2 symplectic family rows"):
        build1, wall1 = sp1
        r1 = build1.report
        assert (r1.delta_tw, r1.delta_rep, r1.gap) == (20, 16, 4)
        assert r1.checks["pairwise_delta_agrees"]  # full pairwise over 720 codewords
        assert r1.code_size == 720
        assert wall1 < 5.0
        build2, wall2 = sp2
        r2 = build2.report
        assert (r2.delta_tw, r2.delta_rep, r2.gap) == (144, 128, 16)
        assert len(build2.group) == 979_200  # support-sum scan covers every element
        assert wall2 < 600.0


def test_criterion_3_affine_closed_forms():
    with criterion("3 affine closed-form identities (p <= 13)"):
        for p in (3, 5, 7, 11, 13):
            field = PrimeField(p)
            for k in range(2, p):
                B = matrix_B(k, p)
                acc = Matrix.identity(field, k)
                running = Matrix.zeros(field, k)
                for i in range(1, 2 * p + 1):
                    acc = acc * B
                    running = running + (b_power(k, p, i - 1) if i > 1 else Matrix.identity(field, k))
                    assert b_power(k, p, i) == acc, (p, k, i)
                    assert omega_sum(k, p, i) == running, (p, k, i)
                assert b_power(k, p, p).is_identity(), (p, k)
                assert omega_sum(k, p, p).is_zero(), (p, k)
                for i in range(1, p + 1):
                    bi = b_power(k, p, i)
                    for j in range(1, p + 1):
                        assert omega_sum(k, p, i + j) == omega_sum(k, p, i) + bi * omega_sum(k, p, j)


def test_criterion_4_affine_fixed_points(affine_builds):
    with criterion("4 affine fixed-point rule and twist supports"):
        for p, k in [(3, 2), (5, 2), (5, 3)]:
            build, _ = affine_builds[(p, k)]
            group, fix = build.group, build.fix
            m = p**k
            u, i_all = group.decompose(np.arange(len(group)))
            i_vals = i_all[1:]
            u_last = u[1:, -1].astype(np.int64)
            nat = fix[1:, 0]
            assert np.isin(nat, (0, p)).all()
            assert ((nat == p) == ((i_vals != p) & (u_last == 0))).all()
            # support p^k - p occurs exactly at the unique r with u_k + i r = 0
            for e in range(1, len(group)):
                row = fix[e]
                i, uk = int(i_all[e]), int(u[e, -1])
                if i == p:
                    assert (row == 0).all()
                else:
                    hits = np.flatnonzero(row == p)
                    assert len(hits) == 1 and (uk + i * int(hits[0])) % p == 0
                    assert (np.delete(row, hits) == 0).all()
            sums = (m - fix[1:]).sum(axis=1)
            assert set(np.unique(sums).tolist()) <= {p ** (k + 1) - p, p ** (k + 1)}


def test_criterion_5_symplectic_fixed_space_rule(sp1, sp2):
    with criterion("5 symplectic fixed-space trichotomy (q = 2, 4)"):
        for build, _ in (sp1, sp2):
            q = build.group.space.q
            group = build.group
            counts = build.fix[:, 0]
            mask = group.transvection_mask()
            assert ((counts[1:] == q * q + q + 1) == mask[1:]).all()
            assert (counts[1:][~mask[1:]] <= 2 * q + 2).all()
            assert int(mask.sum()) == (q**3 + q**2 + q + 1) * (q - 1)


def tau_image_keys(tau, keys):
    """Keys of tau on the elements with these keys, recomputed through the
    wedge table one row block at a time."""
    image_keys = symplectic._tau_keys(tau.space, tau.basis_lift, tau.coords)
    return np.concatenate([image_keys(keys[sl]) for sl in _packed.row_blocks(len(keys))])


def test_criterion_6_outer_automorphism(sp1, sp2):
    with criterion("6 outer automorphism construction and verification"):
        for build, _ in (sp1, sp2):
            q = build.group.space.q
            r = build.report
            for step in ("a", "b", "c", "d"):
                assert r.checks[f"tau_step_{step}"]
            assert r.checks["tau_homomorphism_pairs"]  # exhaustive at q=2, 1e5 pairs at q=4
            if q == 2:
                assert len(build.group) ** 2 <= 1 << 20  # the q=2 path really is exhaustive
            group, tau = build.group, build.tau
            ops = group.space.ops
            images = tau_image_keys(tau, group.keys)
            assert np.array_equal(images, group.keys[tau.index])  # the table tau.index points at
            tmask = group.transvection_mask()
            timg = images[tmask]
            fixed = _packed.fixed_counts(ops, timg)
            assert (fixed == q + 1).all()
            assert not transvection_flags(group.space, timg).any()
            assert len(np.unique(images)) == len(group)


def test_criterion_7_code_properties(affine_builds, sp1, sp2):
    with criterion("7 twisted-code properties (FPA, invariance, size, gap)"):
        for (p, k), (build, _) in affine_builds.items():
            r = build.report
            assert r.checks["fpa_letter_counts"], (p, k)
            assert r.checks["distance_invariant"], (p, k)
            assert r.checks["code_size_faithful"], (p, k)
            assert r.delta_tw > r.delta_rep, (p, k)
        build1, _ = sp1
        r1 = build1.report
        assert r1.checks["fpa_letter_counts"] and r1.checks["distance_invariant"]
        assert r1.checks["code_size_faithful"]
        assert r1.delta_tw > r1.delta_rep
        build2, _ = sp2
        assert build2.report.checks["faithful"]
        assert build2.report.delta_tw > build2.report.delta_rep


def test_criterion_8_dist_oracle_on_exports(tmp_path, capsys, affine_builds, sp1):
    with criterion("8 exported files reproduce delta through the dist oracle"):
        targets = []
        for (p, k), (build, _) in affine_builds.items():
            path = tmp_path / f"affine_{p}_{k}.tw"
            write_code(path, build.code, "affine", {"p": p, "k": k}, r=p)
            targets.append((path, build.report.delta_tw))
        build1, _ = sp1
        path = tmp_path / "symplectic_1.tw"
        write_code(path, build1.code, "symplectic", {"n": 1, "poly": 2}, r=2)
        targets.append((path, build1.report.delta_tw))
        for path, expected in targets:
            status = cli_main(["dist", str(path)])
            out = capsys.readouterr().out
            assert status == 0
            assert out.strip() == f"delta={expected}", path.name


def deterministic_text(report):
    """The rendered report without its '# ...' comment lines (times and coverage)."""
    return "".join(line + "\n" for line in report.render().splitlines() if not line.startswith("#"))


# SHA-256 of deterministic_text(report) for the default seed
REPORT_DIGESTS = {
    ("affine", 3, 2): "9a9c48176da64dab7a188ff4275527add31e2bd5bb066f92820d4de84500d310",
    ("affine", 5, 3): "19590d236171bd828d23df1b7e4b75264c9f0bfde469d4d80fb425e80f29cb4c",
    ("symplectic", 1): "e08c87a094897c404790586f5f0b19cb73baeb6814f99b01a32d6896cdaf8951",
    ("symplectic", 2): "9f2182ed0a668c3ab52191ad6a82884a6a5dce6ed66218454402730037d3a695",
}


def test_report_content_pinned(affine_builds, sp1):
    builds = {
        ("affine", 3, 2): affine_builds[(3, 2)][0],
        ("affine", 5, 3): affine_builds[(5, 3)][0],
        ("symplectic", 1): sp1[0],
    }
    for key, build in builds.items():
        text = deterministic_text(build.report)
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[key], (key, text)


def test_report_content_pinned_q4(sp2):
    # the Sp(4,4) check="fast" report, as `twistcode symplectic --n 2` prints it
    text = deterministic_text(sp2[0].report)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[("symplectic", 2)], text


# SHA-256 of the (N, 2) fixed-point table build.fix, columns rho and rho .
# tau, cast to int16 (its type when these were recorded), for each fixture's q
FIX_TABLE_DIGESTS = {
    2: "05a11d1059e140e687059d954675d5802032e6fc8388e930d358654b2c4eca4e",
    4: "890d6b446e90aadd00f37e30892cce945c20cf76e9296948243be41ff815f7ee",
}


def test_fix_tables_pinned(sp1, sp2):
    for build, _ in (sp1, sp2):
        fix = build.fix
        m = build.group.space.num_points
        assert fix.dtype == np.min_scalar_type(m) and fix.shape == (len(build.group), 2)
        digest = hashlib.sha256(fix.astype(np.int16).tobytes()).hexdigest()
        assert digest == FIX_TABLE_DIGESTS[build.group.space.q]


# SHA-256 of the Sp(4,4) closure's key array, i.e. of its canonical order
CLOSURE_Q4_DIGEST = "19a7b0ac1fa9fe3d58b21aeb757dcbc1449341cb6e2130a43afd41a43f07bd19"
# SHA-256 of the ascending key set, np.sort(keys): the same for any element
# order, so it holds across changes of the generators or of the order
SORTED_KEYS_Q4_DIGEST = "67ec9921b5fbbcb324da9176a20ac34dbf649cd412fc63c3f67c555963490ccb"


def test_closure_order_pinned_q4(sp2):
    keys = sp2[0].group.keys
    assert len(keys) == 979_200
    assert hashlib.sha256(keys.tobytes()).hexdigest() == CLOSURE_Q4_DIGEST


def test_key_set_pinned_q4(sp2):
    keys = sp2[0].group.keys
    assert hashlib.sha256(np.sort(keys).tobytes()).hexdigest() == SORTED_KEYS_Q4_DIGEST


# SHA-256 of the Sp(4,4) tau table, its (N, 4) uint32 packed rows
# ops.unpack_keys(group.keys[tau.index]).tobytes()
TAU_IMAGE_Q4_DIGEST = "ea2c95c702f76895d9967d38cd5c105935a44b6c7425de5e1b49651d7bfb34d1"


def test_tau_image_rows_pinned_q4(sp2):
    build = sp2[0]
    rows = build.group.space.ops.unpack_keys(build.group.keys[build.tau.index])
    assert rows.dtype == np.uint32
    assert hashlib.sha256(rows.tobytes()).hexdigest() == TAU_IMAGE_Q4_DIGEST


def test_sp2_build_memory(sp2_traced):
    # tracemalloc figures of the Sp(4,4) check="fast" build, numpy 2.4.6:
    # peak 14.5-14.6 MiB on 1 to 8 workers, reached in tau_homomorphism's pair
    # blocks (step (d)'s, in outer_automorphism, reach 14.5 MiB); 11.45 MiB
    # held: the keys and tau.index (3.7 MiB each), the (N, 2) uint8
    # fixed-point table, the transvection mask and the span-id rank tables.
    # The bounds leave about 2 MiB and 1 MiB for other numpy versions; a
    # per-element array of rows or dense entries, or an N-key image array
    # beside tau.index, exceeds them.  CHANGES.md keeps the history.
    build, _, peak, retained = sp2_traced
    assert peak < 16.5 * 2**20
    assert retained < 12.5 * 2**20
    assert build.tau.index.dtype == np.int32
    # the group holds its keys, no per-element array of rows or entries
    held = [v for v in vars(build.group).values() if isinstance(v, np.ndarray)]
    assert all(v.ndim == 1 for v in held) and any(v is build.group.keys for v in held)


def test_tau_tables_gathered_q4(sp2):
    # the tau-side tables of Sp(4,4), gathered through tau.index, against the
    # packed kernels run on the recomputed image keys: every 97th row; and
    # those images, from tau's one evaluator (the wedge table), against tau
    # through the dense exterior square
    build = sp2[0]
    group, tau = build.group, build.tau
    ops = group.space.ops
    sub = np.arange(0, len(group), 97)
    images = tau_image_keys(tau, group.keys[sub])
    dense = dense_tau_apply(group.space.field, tau.basis_lift, tau.coords, ops.matrices_of(group.keys[sub]))
    assert np.array_equal(ops.matrices_of(images), dense)
    assert np.array_equal(_packed.fixed_counts(ops, images), build.fix[sub, 1])
    assert np.array_equal(transvection_flags(group.space, images), group.transvection_mask()[tau.index[sub]])
    # the natural representation's rows tau.index[sub], as natural_representation computes them
    assert np.array_equal(_packed.perm_tables(ops, images), _packed.perm_tables(ops, group.keys[tau.index[sub]]))


def test_symplectic_coverage_lines(sp1, sp2):
    # sp1 is check="all": its exhaustive oracles follow the builder's own checks
    names = ["form_preserved", "inverses_sampled", "products_sampled", "tau_homomorphism_pairs"]
    oracles = ["fpa_letter_counts", "pairwise_delta_agrees", "distance_invariant"]
    expected = {
        2: list(zip(names, ["exhaustive", "100/720", "10000/518400", "exhaustive"]))
        + [(name, "exhaustive") for name in oracles],
        4: list(zip(names, ["exhaustive", "100/979200", "10000/958832640000", "100000/958832640000"])),
    }
    for build, _ in (sp1, sp2):
        got = [line for line in build.report.lines() if line.startswith("# coverage.")]
        want = [f"# coverage.{k}={v}" for k, v in expected[build.group.space.q]]
        assert got == want


def test_public_exports_resolve():
    # every name in __all__ resolves, once; the deleted scalar affine model and passive-form helper stay gone
    import twistcode
    from twistcode import affine, codes

    assert len(set(twistcode.__all__)) == len(twistcode.__all__)
    assert all(hasattr(twistcode, name) for name in twistcode.__all__)
    deleted = {
        affine: ["AffineElement", "act_on_point", "enumerate_points", "fixed_point_count", "tau_twist"],
        codes: ["codeword_from_element"],
        affine.AffineGroup: ["element"],
    }
    for owner, names in deleted.items():
        for name in names:
            assert not hasattr(owner, name) and not hasattr(twistcode, name), name
            assert name not in twistcode.__all__
