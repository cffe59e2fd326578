"""The benchmark's span tracer (perfbench/tracer.py) must still find every
function it wraps, so a rename or removal fails here and not only in the
benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from twistcode.codes import Code

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(mod_name, attr):
    owner = importlib.import_module(f"twistcode.{mod_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def test_tracer_targets_resolve_and_restore():
    tr = load_tracer()
    originals = {(mod, attr): lookup(mod, attr) for mod, attr, _, _ in tr.TARGETS}
    tracer = tr.Tracer()
    try:
        tracer.install()
        for (mod, attr), orig in originals.items():
            assert getattr(lookup(mod, attr), "__wrapped__", None) is orig, f"{mod}.{attr} not traced"
    finally:
        tracer.uninstall()
    for (mod, attr), orig in originals.items():
        assert lookup(mod, attr) is orig, f"{mod}.{attr} not restored"


# (module, function, position, name) of every argument the counters read
ARGUMENT_READS = [
    ("_packed", "closure", 1, "gen_mats"),
    ("_packed", "fixed_counts", 1, "rows"),
    ("_packed", "batch_matmul", 1, "A"),
    ("symplectic", "_check_tau_homomorphism", 1, "group"),
    ("symplectic", "_check_tau_homomorphism", 4, "samples"),
    ("codes", "min_distance_pairwise", 0, "code"),
    ("codes", "check_distance_invariance", 0, "code"),
    ("codes", "write_code", 0, "path"),
    ("codes", "read_code", 0, "path"),
]


def test_tracer_argument_positions():
    for mod, attr, pos, name in ARGUMENT_READS:
        params = list(inspect.signature(lookup(mod, attr)).parameters)
        assert params[pos] == name, (mod, attr, params)


def test_invariance_rows_counter_reads_code_size():
    # the certificate reads every row; its generator rows are passed by keyword
    tr = load_tracer()
    code = Code(np.array([[1, 2], [2, 1]]), 2)
    counts = tr._invariance_rows((code,), {"generators": [1]}, True)
    assert counts == {"codes.check_distance_invariance.rows": code.size}
