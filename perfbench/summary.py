"""Run the benchmark on several workloads and seeds and summarise it.

    python3 perfbench/summary.py [--workloads A,B] [--runs N] [--first-seed S]
                                 [--trace] [--out FILE] [--compare FILE]

Run from the checkout root.  Each run is one ``perfbench/run.py`` process
with ``--seconds`` taken from BENCHMARK.json; runs go one at a time,
seeds S, S+1, ...  For every workload it prints wall_s, setup_s,
peak_rss_mib (median, quartiles, spread = (q3 - q1) / median over runs)
and fail_frac = failed / attempted operations.  ``--trace`` adds one
traced run per workload and prints its per-layer metrics.  ``--out``
writes everything, with the provenance of the runs, as JSON;
``--compare`` prints the medians beside those of an earlier ``--out``
file and flags a difference in machine, core count, Python or numpy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

ALL = ["sp4-q4-fast", "affine-certify", "table1-p11"]
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]
COMPARABLE = ("arch", "nproc", "python", "numpy")


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    prov = next(json.loads(ln.split(" ", 2)[2]) for ln in lines if ln.startswith("# provenance "))
    return json.loads(lines[-1]), prov


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    k = len(values) - 10
    return (100 * k / len(values), sorted(values)[k - 1]) if k >= 1 else None


def summarise(results):
    out = {}
    for name, unit in END_TO_END:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if values:
            out[name] = {"unit": unit, **spread(values)}
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    out["fail_frac"] = {"unit": "ratio", "median": failed / attempted, "failed": failed, "attempted": attempted}
    return out


def compare(record, old):
    for key in COMPARABLE:
        a, b = old["provenance"].get(key), record["provenance"].get(key)
        if a != b:
            print(f"WARNING: {key} differs ({a} then, {b} now); timings are not comparable"
                  + (" (numpy alone moves the Sp(4,4) build about 4x)" if key == "numpy" else ""))
    print(f"\n{'workload':<22} {'metric':<14} {'then':>12} {'now':>12} {'now/then':>9}")
    for workload, metrics in record["summary"].items():
        for name, now in metrics.items():
            then = old.get("summary", {}).get(workload, {}).get(name)
            if then and then["median"]:
                print(f"{workload:<22} {name:<14} {then['median']:>12.4f} {now['median']:>12.4f} "
                      f"{now['median'] / then['median']:>9.3f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(ALL))
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    record = {"run_seconds": seconds, "runs": {}, "summary": {}, "per_layer": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, record["provenance"] = bench(workload, seed, seconds, False)
            results.append({"seed": seed, **result})
            m = result["metrics"]
            print(f"# {workload} seed={seed} " + " ".join(f"{k}={v['value']:.4f}" for k, v in m.items())
                  + f" failed={result['failed']}/{result['attempted']}", flush=True)
        record["runs"][workload] = results
        record["summary"][workload] = summarise(results)
        if args.trace:
            layers, _ = bench(workload, args.first_seed, seconds, True)
            record["per_layer"][workload] = {k: v["value"] for k, v in layers["metrics"].items()}

    print(f"\n{'workload':<22} {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  n")
    for workload, metrics in record["summary"].items():
        for name, s in metrics.items():
            if name == "fail_frac":
                print(f"{workload:<22} {name:<14} {s['unit']:<6} {s['median']:>12.4f}"
                      f"   ({s['failed']} of {s['attempted']} operations failed)")
                continue
            print(f"{workload:<22} {name:<14} {s['unit']:<6} {s['median']:>12.4f} {s['q1']:>12.4f} "
                  f"{s['q3']:>12.4f} {s['spread']:>7.2%}  {s['n']}")
        walls = [r["metrics"]["wall_s"]["value"] for r in record["runs"][workload] if r["metrics"]]
        high = tail(walls)
        print(f"{workload:<22} {'wall_s tail':<14} {'s':<6} "
              + (f"p{high[0]:.0f} = {high[1]:.4f}" if high else f"none: {len(walls)} runs, a tail needs 11"))
    for workload, layers in record["per_layer"].items():
        print(f"\nper-layer metrics, traced run of {workload}:")
        for name, value in layers.items():
            print(f"  {name:<52} {value:.6g}")
    print("\n# provenance " + json.dumps(record["provenance"]))
    if args.compare:
        with open(args.compare) as fh:
            compare(record, json.load(fh))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
