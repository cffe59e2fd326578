#!/usr/bin/env python3
"""The two independent minimum-distance computations, and the codeword
file format that connects them through the command line.

The element scan walks the group once and sums the support sizes of the
natural representation and of its twists (the natural sizes gathered
through each automorphism's index permutation); the pairwise oracle
compares every pair of codewords and knows nothing about the group.  They must agree on every faithful instance."""

import subprocess
import sys
import tempfile
from pathlib import Path

from twistcode import (
    AffineParams,
    build_affine_twisted,
    min_distance_by_support,
    min_distance_pairwise,
    read_code,
    write_code,
)

build = build_affine_twisted(AffineParams(5, 2), check="all")
code = build.code
natural, automorphisms = build.twisting

scan = min_distance_by_support(natural, automorphisms)
pairwise = min_distance_pairwise(code)
print(f"support scan: {scan}   pairwise oracle: {pairwise}   agree: {scan == pairwise}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "affine_5_2.tw"
    write_code(path, code, "affine", {"p": 5, "k": 2}, r=5)
    print("\nfile header:")
    print(path.read_text().splitlines()[0])
    print(path.read_text().splitlines()[1])

    loaded, meta = read_code(path)
    print("round trip preserves the code:", (loaded.words == code.words).all())

    out = subprocess.run(
        [sys.executable, "-m", "twistcode.cli", "dist", str(path)],
        capture_output=True,
        text=True,
    )
    print("CLI says:", out.stdout.strip(), "(exit", str(out.returncode) + ")")
