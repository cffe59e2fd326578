"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE MODE

Run from the checkout root with ``src`` on PYTHONPATH.  The worker sets
up (imports twistcode, builds the parameter, field and space objects),
prints ``ready``, and stops there when MODE is ``setup``.  With MODE
``op`` it then runs the workload's library calls once, verifies every
output against the closed forms and the golden digests, and prints one
JSON result as its last line.  TRACE 1 installs the span tracer before
set-up and adds the per-layer metrics to the result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def report_checks(report, delta_tw, delta_rep, gap):
    """Problems with a VerificationReport: failed checks and closed forms."""
    problems = [f"check.{name}=FAIL" for name in report.failed()]
    for key, got, want in (
        ("delta_tw", report.delta_tw, delta_tw),
        ("delta_rep", report.delta_rep, delta_rep),
        ("gap", report.gap, gap),
    ):
        if got != want:
            problems.append(f"{key}={got}, closed form gives {want}")
    return problems


def deterministic_lines(report):
    return "".join(line + "\n" for line in report.render().splitlines() if not line.startswith("#"))


class Symplectic:
    """build_symplectic_twisted(Sp(4, 2^n), check="fast"), as `twistcode
    symplectic --n N`; the seed picks the draws of the sampled checks."""

    def __init__(self, n):
        self.n = n

    def setup(self, tc):
        return tc.SymplecticSpace.create(self.n)

    def run(self, tc, space, seed):
        return tc.build_symplectic_twisted(space, check="fast", rng_seed=seed)

    def verify(self, build):
        q = 1 << self.n
        problems = report_checks(build.report, 2 * q**3 + q**2, 2 * q**3, q * q)
        return problems, {"report": sha256_text(deterministic_lines(build.report))}


class AffineCertify:
    """build_affine_twisted(AffineParams(p, k), check="all"), export the code,
    then `twistcode dist` on the file: `twistcode affine --p P --k K --check
    all --out F` followed by `twistcode dist F`."""

    def __init__(self, p, k):
        self.p, self.k = p, k

    def setup(self, tc):
        params = tc.AffineParams(self.p, self.k)
        params.field  # builds the PrimeField
        return params

    def run(self, tc, params, seed):
        build = tc.build_affine_twisted(params, check="all", rng_seed=seed)
        path = os.path.join(OUT_DIR, f"affine-{self.p}-{self.k}-{os.getpid()}.tw")
        out = io.StringIO()
        try:
            tc.write_code(path, build.code, "affine", {"p": self.p, "k": self.k}, r=build.report.reps)
            with contextlib.redirect_stdout(out):
                status = tc.cli.main(["dist", path])
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            raise
        return build, path, status, out.getvalue()

    def verify(self, result):
        build, path, status, dist_out = result
        try:
            digest = sha256_file(path)
        finally:
            os.remove(path)
        p, k = self.p, self.k
        problems = report_checks(build.report, p ** (k + 1) - p, p ** (k + 1) - p * p, p * p - p)
        if status != 0 or dist_out != f"delta={build.report.delta_tw}\n":
            problems.append(f"dist exit {status}, output {dist_out!r}, delta_tw={build.report.delta_tw}")
        return problems, {"report": sha256_text(deterministic_lines(build.report)), "codewords": digest}


ROW = re.compile(r"^(affine\(p=(\d+),k=(\d+)\)|Sp\(4,2\^(\d+)\))\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\S+)$")


class Table1:
    """`twistcode table1 --max-p P --max-n N` through cli.main.  The CLI
    takes no seed, so the workload seed is unused."""

    def __init__(self, max_p, max_n):
        self.argv = ["table1", "--max-p", str(max_p), "--max-n", str(max_n)]

    def setup(self, tc):
        return None

    def run(self, tc, _, seed):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = tc.cli.main(self.argv)
        return status, out.getvalue()

    def verify(self, result):
        status, text = result
        problems = [] if status == 0 else [f"table1 exit {status}"]
        for line in text.splitlines()[1:]:
            m = ROW.match(line)
            if m is None:
                problems.append(f"unparsed row {line!r}")
                continue
            r, q, tw, gap = (int(x) for x in m.group(5, 6, 7, 8))
            if m.group(2):
                p, k = int(m.group(2)), int(m.group(3))
                want = (p, p**k, p ** (k + 1) - p, p * p - p)
            else:
                s = 1 << int(m.group(4))
                want = (2, s**3 + s**2 + s + 1, 2 * s**3 + s**2, s * s)
            if (r, q, tw, gap) != want or m.group(9) != "ok":
                problems.append(f"row {line!r} off the closed form {want}")
        return problems, {"stdout": sha256_text(text)}


WORKLOADS = {
    "sp4-q4-fast": Symplectic(2),
    "affine-certify": AffineCertify(7, 3),
    # the same pipeline at a size where several operations fit in one run
    "affine-certify-p11k2": AffineCertify(11, 2),
    "table1-p11": Table1(11, 1),
    # small instances for the harness self-test
    "sp4-q2-fast": Symplectic(1),
    "affine-p3-k2": AffineCertify(3, 2),
    "table1-p3": Table1(3, 1),
}


def golden_problems(name, digests, golden):
    want = golden.get(name, {})
    return [f"{key} digest {got[:12]} != golden {str(want.get(key))[:12]}"
            for key, got in digests.items() if want.get(key) != got]


def main(argv):
    name, seed, trace, mode = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    golden_path = argv[4] if len(argv) > 4 else os.path.join(HERE, "golden.json")
    workload = WORKLOADS[name]
    tracer = None
    import twistcode as tc
    import twistcode.cli  # noqa: F401  (binds tc.cli)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(tc.__file__).startswith(src + os.sep):
        raise SystemExit(f"twistcode imported from {tc.__file__}, not from {src}")
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = workload.setup(tc)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    t0 = time.perf_counter()
    result = workload.run(tc, state, seed)
    wall_s = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()
    problems, digests = workload.verify(result)
    with open(golden_path) as fh:
        problems += golden_problems(name, digests, json.load(fh))
    out = {
        "ok": not problems,
        "problems": problems,
        "wall_s": wall_s,
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "digests": digests,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wall_s, usage.ru_utime + usage.ru_stime)
        out["spans_file"] = os.path.join(OUT_DIR, f"spans-{name}-{seed}.json")
        tracer.write(out["spans_file"])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
