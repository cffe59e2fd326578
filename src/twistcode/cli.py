"""Command-line driver: build the affine and symplectic twisted codes,
verify them, export codewords, and recompute the headline table.

Exit codes: 0 all requested checks pass, 1 a check failed or an internal
consistency error was detected, 2 bad parameters or malformed input.
"""

from __future__ import annotations

import argparse
import sys

from .affine import AffineParams, build_affine_twisted
from .codes import CodewordFileError, min_distance_pairwise, read_code, write_code
from .symplectic import SymplecticSpace, TauConstructionError, build_symplectic_twisted


def _finish(build, args):
    """Print (and write) the report, then write the codeword file only when
    every check passed: a code whose checks failed is not exported."""
    report = build.report
    print(report.render(), end="")
    if args.report:
        report.write(args.report)
    if not report.all_pass():
        print(f"FAILED checks: {', '.join(report.failed())}", file=sys.stderr)
        if args.out:
            print(f"no codeword file written to {args.out}", file=sys.stderr)
        return 1
    if args.out:
        code, _ = build
        write_code(args.out, code, report.family, report.params, r=report.reps)
    return 0


def cmd_build(args):
    """The affine and symplectic subcommands: args.build, set by the
    subparser, builds and verifies the code from the parsed arguments."""
    try:
        return _finish(args.build(args), args)
    except TauConstructionError as exc:
        for name, ok in exc.checks.items():
            print(f"check.{name}={'PASS' if ok else 'FAIL'}")
        print(f"outer automorphism construction failed: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # OSError: --out or --report could not be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_dist(args):
    try:
        code, _ = read_code(args.in_file)
    except (OSError, CodewordFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"delta={min_distance_pairwise(code)}")
    return 0


def _primes_upto(bound):
    return [p for p in range(3, bound + 1, 2) if all(p % d for d in range(3, p, 2))]


def cmd_table1(args):
    # (name, label when skipped, expected gap, build) per row; each row is
    # built in its turn and only its report kept, so no build's tables
    # outlive its row
    rows = [
        (f"affine(p={p},k={k})", f"affine p={p} k={k}", p * p - p,
         lambda p=p, k=k: build_affine_twisted(AffineParams(p, k), check="fast"))
        for p in _primes_upto(args.max_p) for k in range(2, p)
    ] + [
        (f"Sp(4,2^{n})", f"symplectic n={n}", 1 << (2 * n),
         lambda n=n: build_symplectic_twisted(SymplecticSpace.create(n), check="fast"))
        for n in range(1, args.max_n + 1)
    ]
    done = []
    status = 0
    for name, label, expected_gap, build in rows:
        try:
            r = build().report
        except RuntimeError as exc:  # a row the program got wrong is not skipped
            print(f"internal consistency error at {label}: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"# skipping {label}: {exc}", file=sys.stderr)
            continue
        ok = r.all_pass() and r.gap == expected_gap
        done.append((name, r.reps, r.alphabet, r.delta_tw, r.gap, ok))
        status |= 0 if ok else 1
    print(f"{'T':<18} {'r':>4} {'q':>6} {'delta_tw':>9} {'gap':>6}  status")
    for name, reps, q, tw, gap, ok in done:
        print(f"{name:<18} {reps:>4} {q:>6} {tw:>9} {gap:>6}  {'ok' if ok else 'DEVIATES'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twistcode",
        description="Twisted permutation codes from affine and symplectic groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("affine", help="build and verify an affine twisted code")
    pa.add_argument("--p", type=int, required=True, help="odd prime, p > k")
    pa.add_argument("--k", type=int, required=True, help="dimension, 2 <= k < p")
    pa.add_argument("--out", help="write the codeword file here")
    pa.add_argument("--report", help="write the key=value report here")
    pa.add_argument("--check", choices=("fast", "all"), default="fast")
    pa.set_defaults(func=cmd_build, build=lambda a: build_affine_twisted(AffineParams(a.p, a.k), check=a.check))

    ps = sub.add_parser("symplectic", help="build and verify a symplectic twisted code")
    ps.add_argument("--n", type=int, required=True, help="field degree: q = 2^n")
    ps.add_argument("--out", help="write the codeword file here")
    ps.add_argument("--report", help="write the key=value report here")
    ps.add_argument("--check", choices=("fast", "all"), default="fast")
    ps.set_defaults(func=cmd_build, build=lambda a: build_symplectic_twisted(SymplecticSpace.create(a.n), check=a.check))

    pd = sub.add_parser("dist", help="pairwise minimum distance of a codeword file")
    pd.add_argument("in_file", help="codeword file (twistcode v1 format)")
    pd.set_defaults(func=cmd_dist)

    pt = sub.add_parser("table1", help="recompute the headline table rows")
    pt.add_argument("--max-p", type=int, default=5)
    pt.add_argument("--max-n", type=int, default=1)
    pt.set_defaults(func=cmd_table1)

    args = parser.parse_args(argv)
    return args.func(args)


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
