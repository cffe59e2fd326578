import pytest

from twistcode import affine
from twistcode.cli import main


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def report_dict(out):
    vals = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith("#"):
            k, v = line.split("=", 1)
            vals[k] = v
    return vals


def test_affine_fast(capsys):
    status, out, _ = run(capsys, "affine", "--p", "3", "--k", "2")
    assert status == 0
    vals = report_dict(out)
    assert vals["delta_tw"] == "24" and vals["delta_rep"] == "18" and vals["gap"] == "6"
    assert all(v == "PASS" for k, v in vals.items() if k.startswith("check."))


def test_affine_check_all_with_export(capsys, tmp_path):
    out_file = tmp_path / "aff.tw"
    rep_file = tmp_path / "aff.report"
    status, out, _ = run(
        capsys,
        "affine", "--p", "3", "--k", "2", "--check", "all",
        "--out", str(out_file), "--report", str(rep_file),
    )
    assert status == 0
    assert "check.pairwise_delta_agrees=PASS" in out
    header = out_file.read_text().splitlines()
    assert header[0] == "# twistcode v1"
    assert header[1] == "# family=affine p=3 k=2 r=3 q=9 length=27 size=27"
    assert rep_file.read_text().startswith("family=affine\n")


@pytest.mark.parametrize("check", ["fast", "all"])
def test_failed_checks_write_no_file(monkeypatch, capsys, tmp_path, check):
    # one entry of omega_last[p] bumped at (3, 2): the twists move the
    # identity, so the certificate fails; the report is still printed and
    # written, and no codeword file is
    real_enumerate = affine.enumerate_group

    def enumerate_mutated(params):
        group = real_enumerate(params)
        group.omega_last = group.omega_last.copy()
        group.omega_last[3, 1] = (group.omega_last[3, 1] + 1) % 3
        return group

    monkeypatch.setattr(affine, "enumerate_group", enumerate_mutated)
    out_file, rep_file = tmp_path / "aff.tw", tmp_path / "aff.report"
    status, out, err = run(
        capsys, "affine", "--p", "3", "--k", "2", "--check", check, "--out", str(out_file), "--report", str(rep_file),
    )
    assert status == 1
    assert "check.twist_automorphism=FAIL" in out.splitlines()
    assert rep_file.read_text() == out
    assert f"no codeword file written to {out_file}" in err
    assert not out_file.exists()


@pytest.mark.parametrize("flag", ["--out", "--report"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, flag, where):
    # a path that cannot be written is bad input: one error line and exit 2,
    # not a traceback; the report is printed before anything is written
    target = tmp_path / "missing" / "x.tw" if where == "missing-directory" else tmp_path
    status, out, err = run(capsys, "affine", "--p", "3", "--k", "2", flag, str(target))
    assert status == 2
    assert report_dict(out)["delta_tw"] == "24"
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_affine_bad_parameters(capsys):
    status, _, err = run(capsys, "affine", "--p", "4", "--k", "2")
    assert status == 2 and "odd prime" in err
    status, _, err = run(capsys, "affine", "--p", "3", "--k", "3")
    assert status == 2 and "p > k" in err
    status, _, err = run(capsys, "affine", "--p", "11", "--k", "7")
    assert status == 2 and "guard" in err


def test_symplectic_n1(capsys):
    status, out, _ = run(capsys, "symplectic", "--n", "1")
    assert status == 0
    vals = report_dict(out)
    assert vals["delta_tw"] == "20" and vals["delta_rep"] == "16" and vals["gap"] == "4"


def test_symplectic_size_guard(capsys):
    status, _, err = run(capsys, "symplectic", "--n", "3")
    assert status == 2 and "no recorded generator pair" in err


def test_dist_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "aff.tw"
    status, _, _ = run(capsys, "affine", "--p", "3", "--k", "2", "--out", str(out_file))
    assert status == 0
    status, out, _ = run(capsys, "dist", str(out_file))
    assert status == 0 and out.strip() == "delta=24"


def test_dist_single_codeword(capsys, tmp_path):
    path = tmp_path / "one.tw"
    path.write_text("# twistcode v1\n# family=custom q=3 length=3 size=1\n1 2 3\n")
    status, out, _ = run(capsys, "dist", str(path))
    assert status == 0 and out.strip() == "delta=0"


def test_dist_malformed(capsys, tmp_path):
    path = tmp_path / "bad.tw"
    path.write_text("# twistcode v1\n# family=custom q=3 length=3 size=2\n1 2 3\n1 2\n")
    status, _, err = run(capsys, "dist", str(path))
    assert status == 2 and "line 4" in err
    status, _, err = run(capsys, "dist", str(tmp_path / "missing.tw"))
    assert status == 2


def test_dist_not_utf8(capsys, tmp_path):
    # a byte that is not UTF-8 is malformed input like any other: exit 2 naming its line, no traceback
    path = tmp_path / "latin1.tw"
    path.write_bytes(b"# twistcode v1\n# family=custom q=3 length=3 size=2\n1 2 3\n2 3 1 \xe9\n")
    status, out, err = run(capsys, "dist", str(path))
    assert (status, out) == (2, "") and err.startswith("error: line 4: not UTF-8 text")


def test_dist_q_past_uint64(capsys, tmp_path):
    # no numpy type holds a symbol of 2^64 or more: a bad metadata header, exit 2 naming line 2
    path = tmp_path / "huge.tw"
    path.write_text("# twistcode v1\n# family=custom q=100000000000000000000 length=3 size=2\n1 2 3\n3 2 1\n")
    status, out, err = run(capsys, "dist", str(path))
    assert (status, out) == (2, "") and err.startswith("error: line 2: bad metadata header")


def test_table1(capsys):
    status, out, _ = run(capsys, "table1", "--max-p", "5", "--max-n", "1")
    assert status == 0
    lines = out.splitlines()
    assert any(l.startswith("affine(p=3,k=2)") and " 24 " in l for l in lines)
    assert any(l.startswith("affine(p=5,k=2)") and " 120 " in l for l in lines)
    assert any(l.startswith("affine(p=5,k=3)") and " 620 " in l for l in lines)
    assert any(l.startswith("Sp(4,2^1)") and " 20 " in l for l in lines)
    assert all(l.endswith("ok") for l in lines[1:] if l and not l.startswith("#"))


def broken_support_scan(monkeypatch):
    """Make affine's support scan return delta_tw = delta_rep - 1, which no
    correct scan can: the twists never lower the distance."""
    real = affine.support_scan

    def broken(fix, m):
        sums, (_, delta_rep) = real(fix, m)
        return sums, (delta_rep - 1, delta_rep)

    monkeypatch.setattr(affine, "support_scan", broken)


def test_broken_scan_is_an_internal_error(monkeypatch, capsys):
    # exit 1, not the exit 2 of bad parameters
    broken_support_scan(monkeypatch)
    status, out, err = run(capsys, "affine", "--p", "3", "--k", "2")
    assert status == 1 and out == ""
    assert err == "internal consistency error: delta_tw=17 below delta_rep=18: scan is broken\n"


def test_table1_broken_scan_is_not_skipped(monkeypatch, capsys):
    broken_support_scan(monkeypatch)
    status, out, err = run(capsys, "table1", "--max-p", "3", "--max-n", "1")
    assert status == 1 and out == ""
    assert err == "internal consistency error at affine p=3 k=2: delta_tw=17 below delta_rep=18: scan is broken\n"
    assert "# skipping" not in err


def test_report_determinism(capsys, tmp_path):
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    run(capsys, "affine", "--p", "5", "--k", "2", "--report", str(r1))
    run(capsys, "affine", "--p", "5", "--k", "2", "--report", str(r2))
    strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
    assert strip(r1) == strip(r2)

    c1, c2 = tmp_path / "c1.tw", tmp_path / "c2.tw"
    run(capsys, "affine", "--p", "5", "--k", "2", "--out", str(c1))
    run(capsys, "affine", "--p", "5", "--k", "2", "--out", str(c2))
    assert c1.read_bytes() == c2.read_bytes()
