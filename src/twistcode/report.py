"""Verification report: one table row's worth of recomputed values plus
named check outcomes, rendered as machine-diffable key=value lines.

A build records its check outcomes, what each check covered
('exhaustive', or k of N cases) and the wall time of each stage in one
BuildRecord.  The timings and coverage are emitted as '# time.*' and
'# coverage.*' comment lines, so that the non-comment content of a
report file is deterministic for fixed parameters.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def coverage_value(k, total):
    """A check's coverage line value: 'exhaustive', or k of total cases."""
    return "exhaustive" if k >= total else f"{k}/{total}"


class BuildRecord:
    """One build's named check outcomes, what each covered and its stage
    times, each in the order recorded (the report's order), at a check
    level of "fast" or "all"."""

    def __init__(self, check="fast"):
        if check not in ("fast", "all"):
            raise ValueError(f"unknown check level {check!r}")
        self.level = check
        self.checks: dict[str, bool] = {}
        self.coverage: dict[str, str] = {}
        self.times: dict[str, float] = {}

    def check(self, name, ok, covered=None):
        """Record a check's outcome and, when given, its coverage value."""
        self.checks[name] = bool(ok)
        if covered is not None:
            self.coverage[name] = covered

    @contextmanager
    def stage(self, name):
        """Record the wall time of the with-block as times[name]."""
        t0 = time.monotonic()
        yield
        self.times[name] = time.monotonic() - t0


@dataclass
class VerificationReport:
    family: str
    params: dict
    reps: int
    alphabet: int
    length: int
    code_size: int
    delta_tw: int
    delta_rep: int
    record: BuildRecord = field(default_factory=BuildRecord)

    def __post_init__(self):
        if self.delta_tw < self.delta_rep:  # the twists can only add distance: an internal error
            raise RuntimeError(
                f"delta_tw={self.delta_tw} below delta_rep={self.delta_rep}: scan is broken"
            )

    @property
    def checks(self):
        return self.record.checks

    @property
    def coverage(self):
        return self.record.coverage

    @property
    def times(self):
        return self.record.times

    @property
    def gap(self):
        return self.delta_tw - self.delta_rep

    def all_pass(self):
        return all(self.checks.values())

    def failed(self):
        return [name for name, ok in self.checks.items() if not ok]

    def lines(self):
        out = [f"family={self.family}"]
        out += [f"{k}={v}" for k, v in self.params.items()]
        out += [
            f"r={self.reps}",
            f"q={self.alphabet}",
            f"length={self.length}",
            f"code_size={self.code_size}",
            f"delta_tw={self.delta_tw}",
            f"delta_rep={self.delta_rep}",
            f"gap={self.gap}",
        ]
        out += [f"check.{name}={'PASS' if ok else 'FAIL'}" for name, ok in self.checks.items()]
        out += [f"# time.{name}={dt:.3f}" for name, dt in self.times.items()]
        out += [f"# coverage.{name}={cov}" for name, cov in self.coverage.items()]
        return out

    def render(self):
        return "\n".join(self.lines()) + "\n"

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.render())
