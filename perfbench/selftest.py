"""Self-test of the benchmark harness on small instances.

    python3 perfbench/selftest.py

Run from the checkout root; exits 0 when every check passes.

Tracer: on Sp(4,2), affine (3,2) and `table1 --max-p 3`, every layer
function predicted for the workload records at least one span, no child
span reaches outside its parent, and the self times of the spans inside
the timed window plus the untraced remainder add up to the traced
wall_s.  The affine workload records no ``packed`` span.

Golden outputs: a run against a golden file with one digest altered
counts every operation as failed, and the same run against the real
golden file counts none.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

sys.path.insert(0, "src")

import tracer as tr  # noqa: E402
import worker  # noqa: E402

PACKED = ["packed.closure", "packed.fixed_counts", "packed.rank_one_flags", "packed.batch_matmul",
          "packed.batch_matmul_left", "packed.batch_exterior_square"]
SYMPLECTIC = ["symplectic.build_symplectic_twisted", "symplectic.generate_group",
              "symplectic.build_outer_automorphism", "symplectic.transvection_flags",
              "symplectic.tau_homomorphism"]
AFFINE_FAST = ["affine.build_affine_twisted", "affine.AffineGroup", "affine.fixed_count_table"]
CODES = ["codes.build_twisted_code", "codes.min_distance_pairwise", "codes.check_distance_invariance",
         "codes.letter_counts_constant", "codes.min_distance_by_support", "codes.write_code",
         "codes.read_code"]
BASE = ["fields.setup", "linalg.Matrix"]

# small stand-ins for sp4-q4-fast, affine-certify and table1-p11
PREDICTED = {
    "sp4-q2-fast": PACKED + SYMPLECTIC + BASE,
    "affine-p3-k2": AFFINE_FAST + ["affine.twisted_perm_table"] + CODES + ["cli.main"] + BASE,
    "table1-p3": ["cli.main"] + AFFINE_FAST + PACKED + SYMPLECTIC + BASE,
}
NEVER = {"affine-p3-k2": "packed."}

failures = []


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def traced_op(name):
    import twistcode as tc
    import twistcode.cli  # noqa: F401

    workload = worker.WORKLOADS[name]
    tracer = tr.Tracer()
    tracer.install()
    try:
        state = workload.setup(tc)
        t0 = time.perf_counter()
        result = workload.run(tc, state, 1)
        t1 = time.perf_counter()
    finally:
        tracer.uninstall()
    problems, _ = workload.verify(result)
    return tracer, t0, t1, problems


def tracer_checks(name):
    tracer, t0, t1, problems = traced_op(name)
    check(not problems, f"{name}: outputs verify {problems}")
    names = {s[0] for s in tracer.spans}
    missing = [n for n in PREDICTED[name] if n not in names]
    check(not missing, f"{name}: every predicted layer function records a span (missing {missing})")
    if name in NEVER:
        stray = sorted(n for n in names if n.startswith(NEVER[name]))
        check(not stray, f"{name}: no {NEVER[name]}* spans ({stray})")

    spans = tracer.spans
    outside = [s for s in spans if s[1] >= 0 and not (spans[s[1]][2] <= s[2] <= s[3] <= spans[s[1]][3])]
    selfs = tracer.self_times()
    check(not outside and min(selfs) >= -1e-9,
          f"{name}: child spans lie within their parents and self times are >= 0 ({len(outside)} outside)")

    inside = [i for i, s in enumerate(spans) if t0 <= s[2] and s[3] <= t1]
    top = sum(spans[i][3] - spans[i][2] for i in inside if spans[i][1] < 0)
    wall = t1 - t0
    total = sum(selfs[i] for i in inside) + (wall - top)
    check(math.isclose(total, wall, rel_tol=1e-9, abs_tol=1e-9),
          f"{name}: self times {sum(selfs[i] for i in inside):.6f} + untraced {wall - top:.6f} = wall {wall:.6f}")

    metrics = tracer.layer_metrics(wall, 0.0)
    check(all(math.isfinite(v) and v >= 0 for v in metrics.values()) and len(metrics) == len(tr.METRICS),
          f"{name}: all {len(tr.METRICS)} per-layer metrics present, finite and >= 0")


def golden_checks(name="affine-p3-k2"):
    with open(os.path.join(worker.HERE, "golden.json")) as fh:
        golden = json.load(fh)
    golden[name]["report"] = golden[name]["report"][::-1]
    os.makedirs(worker.OUT_DIR, exist_ok=True)
    wrong = os.path.join(worker.OUT_DIR, "golden-altered.json")
    with open(wrong, "w") as fh:
        json.dump(golden, fh)
    for path, expect_failed in ((wrong, True), (None, False)):
        cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1", "--seconds", "0.5"]
        proc = subprocess.run(cmd + (["--golden", path] if path else []), capture_output=True, text=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        frac = res["failed"] / res["attempted"]
        ok = proc.returncode == 0 and (frac == 1 and not res["correct"] if expect_failed else frac == 0 and res["correct"])
        check(ok, f"{name}: {'altered' if path else 'real'} golden digest gives fail_frac {frac:.2f} "
                  f"({res['failed']} of {res['attempted']})")


def benchmark_json_checks():
    with open("BENCHMARK.json") as fh:
        listed = [(m["name"], m["unit"], m["better"]) for m in json.load(fh)["per_layer"]]
    check(listed == tr.METRICS, "BENCHMARK.json per_layer matches tracer.METRICS")


def main():
    for name in PREDICTED:
        tracer_checks(name)
    golden_checks()
    benchmark_json_checks()
    print(f"\n{len(failures)} failed" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
