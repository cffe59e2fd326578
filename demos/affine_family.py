#!/usr/bin/env python3
"""Walkthrough of the affine twisted-code construction at (p, k) = (3, 2).

The group is the 27 matrices [[1, u], [0, B^i]] over GF(3); it acts on the
9 points (1, v).  Twisting by translation automorphisms spreads each
element's fixed points across the p copies so that the concatenated code
gains minimum distance over plain repetition."""

import numpy as np

from twistcode import (
    AffineParams,
    build_affine_twisted,
    enumerate_group,
    min_distance_pairwise,
)

params = AffineParams(3, 2)
group = enumerate_group(params)
points = [(1, *map(int, v)) for v in group.points]
print(f"group order {len(group)}, acting on {len(points)} points: {points[:4]} ...")

j = group.element_index((1, 0), 1)
print("\nan element with exponent i=1 and top block u=(1,0):")
print(group.matrix(j).A)
fix = group.fixed_count_table()  # column r: the points fixed by each element's r-twist
print("fixed points:", fix[j, 0], " (u_k = 0, i nonzero: fixes p points)")

print("\nits three twists and their fixed counts:")
for r in range(3):
    u, _ = group.decompose(group.twist_index(r)[j])
    print(f"  r={r}: u={tuple(map(int, u))}  fixes {fix[j, r]} points")

build = build_affine_twisted(params, check="all")
code, report = build
print(f"\ntwisted code: {code.size} codewords of length {code.length} over {code.q} letters")
print(f"delta_tw = {report.delta_tw}   delta_rep = {report.delta_rep}   gap = {report.gap}")
print("pairwise oracle agrees:", min_distance_pairwise(code) == report.delta_tw)
print("every check:", "PASS" if report.all_pass() else "FAIL")

print("\nthe first codeword concatenates the identity permutation three times:")
print(code.words[0].reshape(3, 9))
idx = group.element_index((0, 1), 1)  # exponent 1: the twists genuinely differ
word = code.words[idx].reshape(3, 9)
print(f"codeword {idx}, one row per twist (each row is a permutation of 1..9):")
print(word)
counts = np.bincount(code.words[idx], minlength=10)[1:]
print(f"letter counts in codeword {idx}:", counts.tolist(), " (a frequency permutation array)")
