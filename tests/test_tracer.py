"""The benchmark's span tracer (perfbench/tracer.py) must still find every
function it wraps, so a rename or removal fails here and not only in the
benchmark run."""

import functools
import importlib
import importlib.util
import inspect
import threading
from pathlib import Path

import numpy as np

from twistcode import _packed, codes, symplectic
from twistcode.codes import Code, min_distance_pairwise
from twistcode.symplectic import SymplecticSpace, build_symplectic_twisted

from oracles import usable_cores

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


def test_traced_functions_run_on_the_calling_thread(monkeypatch):
    # the tracer keeps one span stack and assumes strictly nested calls, so
    # no parallel_map worker may enter a function it wraps: Sp(4, 2) with
    # check="all" and the pairwise oracle, on 2 cores in blocks of 32 rows
    tr = load_tracer()
    usable_cores(monkeypatch, 2)
    monkeypatch.setattr(_packed, "ROW_CHUNK", 64)
    monkeypatch.setattr(codes, "EXHAUSTIVE_PAIR_LIMIT", 0)  # sampled tau pairs, not all 518,400
    monkeypatch.setattr(symplectic, "HOM_SAMPLES", 1000)
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", 1 << 16)
    threads = set()
    tracer = tr.Tracer()
    wrap = tracer.wrap

    def recording_wrap(name, fn, counter=None):
        traced = wrap(name, fn, counter)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            threads.add(threading.current_thread())
            return traced(*args, **kwargs)

        return recorded

    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or real_start(t))
    tracer.wrap = recording_wrap
    tracer.install()
    try:
        build = build_symplectic_twisted(SymplecticSpace.create(1), check="all")
        assert build.report.all_pass()
        assert min_distance_pairwise(build.code) == build.report.delta_tw
    finally:
        tracer.uninstall()
    assert started and threads == {threading.current_thread()}
    assert {"packed.batch_matmul_left", "symplectic.tau_homomorphism"} <= {span[0] for span in tracer.spans}
