"""Span tracer for the per-layer metrics, installed from outside the package.

The tracer replaces each listed twistcode function by a wrapper at every
name it is looked up through: modules that import a function by name
(``symplectic`` imports ``batch_matmul``; ``affine``, ``symplectic`` and
``cli`` import the ``codes`` functions) hold their own reference, so every
``twistcode`` module namespace is searched for the original object.
Methods are replaced on their class.

Spans are kept in memory as ``[name, parent index, start, end]`` and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children (calls are strictly nested: the
benchmark runs single-threaded).

Counts are computed here from argument and result shapes, not counted
by the program; ``COMPUTED`` names them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _closure_keys(args, kwargs, result):
    # every discovered element is multiplied by every generator once
    _, keys = result
    return {"packed.closure.keys": len(keys) * len(_arg(args, kwargs, 1, "gen_mats"))}


def _tau_pairs(args, kwargs, result):
    # mirrors the exhaustive/sampled rule of symplectic._check_tau_homomorphism
    n = len(_arg(args, kwargs, 1, "group"))
    samples = _arg(args, kwargs, 4, "samples")
    return {"symplectic.tau_homomorphism.pairs": n * n if n * n <= 1 << 20 else samples}


def _stage_times(layer):
    def count(args, kwargs, result):
        return {f"{layer}.stage.{k}_s": v for k, v in result.report.times.items()}

    return count


def _pairwise(args, kwargs, result):
    code = _arg(args, kwargs, 0, "code")
    pairs = code.size * (code.size - 1) // 2
    return {
        "codes.min_distance_pairwise.pairs": pairs,
        "codes.min_distance_pairwise.symbol_compares": pairs * code.length,
    }


def _invariance_rows(args, kwargs, result):
    code = _arg(args, kwargs, 0, "code")
    anchors = args[1] if len(args) > 1 else kwargs.get("anchors")
    rows = code.size if anchors is None else 1 + len(anchors)
    return {"codes.check_distance_invariance.rows": rows if code.size > 1 else 0}


def _file_bytes(metric):
    def count(args, kwargs, result):
        return {metric: os.path.getsize(_arg(args, kwargs, 0, "path"))}

    return count


def _first_dim(metric, i, name):
    def count(args, kwargs, result):
        return {metric: _arg(args, kwargs, i, name).shape[0]}

    return count


# (module, attribute or Class.method, span name, counter)
TARGETS = [
    ("_packed", "closure", "packed.closure", _closure_keys),
    ("_packed", "fixed_counts", "packed.fixed_counts", _first_dim("packed.fixed_counts.rows", 1, "rows")),
    ("_packed", "rank_one_flags", "packed.rank_one_flags", None),
    ("_packed", "batch_matmul", "packed.batch_matmul", _first_dim("packed.batch_matmul.matrices", 1, "A")),
    ("_packed", "batch_matmul_left", "packed.batch_matmul_left", None),
    ("_packed", "batch_exterior_square", "packed.batch_exterior_square", None),
    ("symplectic", "build_symplectic_twisted", "symplectic.build_symplectic_twisted", _stage_times("symplectic")),
    ("symplectic", "generate_group", "symplectic.generate_group", None),
    ("symplectic", "build_outer_automorphism", "symplectic.build_outer_automorphism", None),
    ("symplectic", "transvection_flags", "symplectic.transvection_flags", None),
    ("symplectic", "_check_tau_homomorphism", "symplectic.tau_homomorphism", _tau_pairs),
    ("affine", "build_affine_twisted", "affine.build_affine_twisted", _stage_times("affine")),
    ("affine", "AffineGroup.__init__", "affine.AffineGroup", None),
    ("affine", "AffineGroup.fixed_count_table", "affine.fixed_count_table",
     lambda a, k, r: {"affine.fixed_count_table.entries": r.size}),
    ("affine", "AffineGroup.twisted_perm_table", "affine.twisted_perm_table",
     lambda a, k, r: {"affine.twisted_perm_table.bytes": r.nbytes}),
    ("codes", "build_twisted_code", "codes.build_twisted_code", None),
    ("codes", "min_distance_pairwise", "codes.min_distance_pairwise", _pairwise),
    ("codes", "check_distance_invariance", "codes.check_distance_invariance", _invariance_rows),
    ("codes", "letter_counts_constant", "codes.letter_counts_constant", None),
    ("codes", "min_distance_by_support", "codes.min_distance_by_support", None),
    ("codes", "write_code", "codes.write_code", _file_bytes("codes.write_code.bytes")),
    ("codes", "read_code", "codes.read_code", _file_bytes("codes.read_code.bytes")),
    ("fields", "PrimeField.__init__", "fields.setup", None),
    ("fields", "BinaryField.__init__", "fields.setup", None),
    ("cli", "main", "cli.main", None),
] + [
    ("linalg", f"Matrix.{m}", "linalg.Matrix", None)
    for m in ("__init__", "__mul__", "__add__", "__sub__", "__eq__", "rank", "inverse")
]

SYMPLECTIC_STAGES = ("enumerate", "classify", "outer_automorphism", "tau_scan", "tau_homomorphism", "support_scan")
AFFINE_STAGES = ("enumerate", "closed_forms", "support_scan", "automorphism", "materialise", "pairwise", "invariance")

# (metric, unit, better); the order of BENCHMARK.json's per_layer list
METRICS = [
    ("packed.closure.self_s", "s", "lower"),
    ("packed.closure.keys_per_s", "1/s", "higher"),
    ("packed.fixed_counts.self_s", "s", "lower"),
    ("packed.fixed_counts.rows", "count", "lower"),
    ("packed.rank_one_flags.self_s", "s", "lower"),
    ("packed.batch_matmul.self_s", "s", "lower"),
    ("packed.batch_matmul_left.self_s", "s", "lower"),
    ("packed.batch_exterior_square.self_s", "s", "lower"),
    ("packed.batch_matmul.matrices", "count", "lower"),
    ("symplectic.generate_group.self_s", "s", "lower"),
    ("symplectic.build_outer_automorphism.self_s", "s", "lower"),
    ("symplectic.transvection_flags.self_s", "s", "lower"),
    ("symplectic.tau_homomorphism.pairs", "count", "higher"),
    ("symplectic.tau_homomorphism.pairs_per_s", "1/s", "higher"),
    *((f"symplectic.stage.{s}_s", "s", "lower") for s in SYMPLECTIC_STAGES),
    ("affine.AffineGroup.self_s", "s", "lower"),
    ("affine.fixed_count_table.self_s", "s", "lower"),
    ("affine.fixed_count_table.entries", "count", "lower"),
    ("affine.twisted_perm_table.self_s", "s", "lower"),
    ("affine.twisted_perm_table.bytes", "bytes", "lower"),
    *((f"affine.stage.{s}_s", "s", "lower") for s in AFFINE_STAGES),
    ("codes.build_twisted_code.self_s", "s", "lower"),
    ("codes.min_distance_pairwise.self_s", "s", "lower"),
    ("codes.min_distance_pairwise.pairs", "count", "higher"),
    ("codes.min_distance_pairwise.symbol_compares_per_s", "1/s", "higher"),
    ("codes.check_distance_invariance.self_s", "s", "lower"),
    ("codes.check_distance_invariance.rows", "count", "higher"),
    ("codes.letter_counts_constant.self_s", "s", "lower"),
    ("codes.min_distance_by_support.self_s", "s", "lower"),
    ("codes.write_code.self_s", "s", "lower"),
    ("codes.write_code.bytes", "bytes", "lower"),
    ("codes.read_code.self_s", "s", "lower"),
    ("codes.read_code.bytes", "bytes", "lower"),
    ("fields.setup_s", "s", "lower"),
    ("linalg.Matrix.self_s", "s", "lower"),
    ("linalg.Matrix.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("process.cpu_s", "s", "lower"),
]

COMPUTED = [
    "packed.closure.keys_per_s",
    "packed.fixed_counts.rows",
    "packed.batch_matmul.matrices",
    "symplectic.tau_homomorphism.pairs",
    "symplectic.tau_homomorphism.pairs_per_s",
    "affine.fixed_count_table.entries",
    "affine.twisted_perm_table.bytes",
    "codes.min_distance_pairwise.pairs",
    "codes.min_distance_pairwise.symbol_compares_per_s",
    "codes.check_distance_invariance.rows",
    "codes.write_code.bytes",
    "codes.read_code.bytes",
    "linalg.Matrix.calls",
    "trace.overhead_frac",
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def install(self):
        """Wrap every target; twistcode must be importable."""
        importlib.import_module("twistcode")
        modules = [m for n, m in list(sys.modules.items()) if n == "twistcode" or n.startswith("twistcode.")]
        for mod_name, attr, name, counter in TARGETS:
            module = importlib.import_module(f"twistcode.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig, counter))
                continue
            orig = getattr(module, attr)
            traced = self.wrap(name, orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, traced)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def self_times(self):
        """Per-span self time: duration minus the direct children's."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, _, t0, t1), c in zip(self.spans, child)]

    def layer_metrics(self, wall_s, cpu_s):
        """Every metric of METRICS, 0 where the workload makes no call."""
        self_by_name = defaultdict(float)
        total_by_name = defaultdict(float)
        calls = defaultdict(int)
        for (name, _, t0, t1), own in zip(self.spans, self.self_times()):
            self_by_name[name] += own
            total_by_name[name] += t1 - t0
            calls[name] += 1
        c = self.counts

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        out = {f"{name}.self_s": t for name, t in self_by_name.items()}
        out.update(
            {
                "packed.closure.keys_per_s": rate(c["packed.closure.keys"], self_by_name["packed.closure"]),
                "symplectic.tau_homomorphism.pairs_per_s": rate(
                    c["symplectic.tau_homomorphism.pairs"], total_by_name["symplectic.tau_homomorphism"]
                ),
                "codes.min_distance_pairwise.symbol_compares_per_s": rate(
                    c["codes.min_distance_pairwise.symbol_compares"], self_by_name["codes.min_distance_pairwise"]
                ),
                "fields.setup_s": self_by_name["fields.setup"],
                "linalg.Matrix.calls": calls["linalg.Matrix"],
                "trace.overhead_frac": self.overhead_frac(wall_s),
                "process.cpu_s": cpu_s,
            }
        )
        out.update(c)
        return {metric: float(out.get(metric, 0.0)) for metric, _, _ in METRICS}

    def overhead_frac(self, wall_s, calls=20_000):
        """Computed tracing overhead: spans recorded times the measured
        per-call cost of a wrapper, over the untraced remainder of wall_s."""

        def noop():
            return None

        traced = Tracer().wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        cost = max((t2 - t1) - (t1 - t0), 0.0) / calls * len(self.spans)
        return cost / (wall_s - cost)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
