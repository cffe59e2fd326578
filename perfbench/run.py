"""twistcode benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Each operation runs in a fresh worker process, one at a time, with
numeric libraries held to one thread.  The run first starts SETUP_RUNS
set-up-only workers, then repeats the operation, each followed by one
more set-up-only worker, until S seconds have passed (at least one
operation); every worker's set-up counts towards setup_s.  Every operation is verified
against the closed forms and the golden digests in golden.json; one that
exits non-zero, raises, or mismatches counts as failed.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (medians over the run); with ``--trace 1`` the workers
run under the span tracer and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from tracer import COMPUTED, METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s
CHILD_ENV = {
    "PYTHONPATH": "src",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class SetupFailed(RuntimeError):
    pass


def start_worker(workload, seed, trace, mode, golden):
    """Start a worker; returns (process, seconds from start to ready)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(int(trace)), mode]
    if golden:
        cmd.append(golden)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env={**os.environ, **CHILD_ENV})
    first = proc.stdout.readline()
    return proc, (time.monotonic() - t0 if first == "ready\n" else None)


def finish(proc, timeout):
    """Wait for a worker; returns (rest of its stdout, error or None)."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return "", "timed out"
    return out, (f"exit {proc.returncode}" if proc.returncode else None)


def op_result(out):
    try:
        return json.loads(out.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "no result line"


def provenance():
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {
        "machine": platform.platform(),
        "arch": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": commit,
    }


def setup_time(workload, seed, trace, golden):
    proc, ready = start_worker(workload, seed, trace, "setup", golden)
    _, err = finish(proc, RUN_LIMIT_S)
    if ready is None or err:
        raise SetupFailed(f"set-up worker for {workload!r} failed ({err or 'no ready line'})")
    return ready


def run(workload, seed, seconds, trace, golden=None):
    setups = [setup_time(workload, seed, trace, golden) for _ in range(SETUP_RUNS)]
    results, attempted, failed = [], 0, 0
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        attempted += 1
        proc, ready = start_worker(workload, seed, trace, "op", golden)
        out, err = finish(proc, RUN_LIMIT_S - (t0 - start))
        res, err = (None, err) if err else op_result(out)
        if ready is not None:
            setups.append(ready)
        if res is not None:
            results.append(res)
            err = "; ".join(res["problems"])
            print(f"# op: wall_s={res['wall_s']:.4f} peak_rss_mib={res['peak_rss_mib']:.1f} "
                  f"digests={json.dumps(res['digests'])}", flush=True)
        if err:
            failed += 1
            print(f"# op FAILED: {err}", flush=True)
        setups.append(setup_time(workload, seed, trace, golden))
        elapsed, last = time.monotonic() - start, time.monotonic() - t0
        # stop when one more operation as long as the last could pass the limit
        if elapsed >= seconds or elapsed + last > RUN_LIMIT_S - 20:
            break

    metrics = {}
    if results and trace:
        print(f"# computed from argument and result shapes: {', '.join(COMPUTED)}")
        print(f"# spans written to {', '.join(sorted({r['spans_file'] for r in results}))}")
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in results), "unit": unit}
            for name, unit, _ in METRICS
        }
    elif results:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in results), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(r["peak_rss_mib"] for r in results), "unit": "MiB"},
        }
    return {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", help="golden digests file (default perfbench/golden.json)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "twistcode", "__init__.py")):
        print("error: run from a twistcode checkout root (src/twistcode not found)", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, args.golden)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("# provenance " + json.dumps(provenance()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
