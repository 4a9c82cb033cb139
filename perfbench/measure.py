"""Measurement kit: spans, wrappers installed from outside, and statistics.

The traced run wraps named ``repro`` functions without editing them.  A
function is wrapped under *every* ``repro`` module name it is bound as
(``from x import f`` makes a second binding that patching ``x`` alone
would miss).  A target that no longer exists is reported as absent, so a
later change that deletes a function does not break the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import resource
import statistics
import subprocess
import sys
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class Span:
    """One timed call: name, interval, parent span and request id."""

    __slots__ = ("id", "name", "parent", "rid", "start", "end", "counts")

    def __init__(self, span_id: int, name: str, parent: Optional[int], rid):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.rid = rid
        self.start = 0.0
        self.end = 0.0
        self.counts: Dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def add(self, **counts: float) -> None:
        self.counts.update(counts)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "rid": self.rid,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class _NullSpan:
    def add(self, **counts: float) -> None:
        pass


_NULL_CONTEXT = contextlib.nullcontext(_NullSpan())


class NullTracer:
    """The untraced run's tracer: every span is a shared no-op context."""

    def span(self, name: str, rid=None):
        return _NULL_CONTEXT


class Tracer:
    """Records spans in memory; the parent is the caller's open span.

    The open span lives in a context variable, so asyncio tasks and
    executor threads each see their own parent.  A span without a
    request id inherits its parent's.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._open: ContextVar[Optional[Span]] = ContextVar("perfbench_span", default=None)

    @contextlib.contextmanager
    def span(self, name: str, rid=None):
        parent = self._open.get()
        record = Span(
            next(self._ids),
            name,
            parent.id if parent is not None else None,
            rid if rid is not None or parent is None else parent.rid,
        )
        token = self._open.set(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.reset(token)
            self.spans.append(record)


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``"module:qualname"`` and its span name.

    ``rebind`` names a different span for the binding in a given module
    (``assert_valid_mis`` as imported by ``repro.serve.incremental`` is
    ``serve.validate``); ``count`` turns the call's result into counts
    attached to the span.
    """

    path: str
    span: str
    rebind: Mapping[str, str] = field(default_factory=dict)
    count: Optional[Callable[[object], Mapping[str, float]]] = None


def _wrap(fn, tracer: Tracer, name: str, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if count is not None:
                span.add(**count(result))
            return result

    return traced


def _program_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer, targets: Sequence[Target]):
    """Wrap ``targets`` for the duration of the block.

    Yields the span names none of whose functions exist any more.
    """
    undo = []
    found = []
    # Resolve (and so import) every target before scanning for bindings,
    # so a module imported by a later target is scanned for earlier ones.
    for target in targets:
        module_name, _, qualname = target.path.partition(":")
        *outer, attr = qualname.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in outer:
                owner = getattr(owner, part)
            found.append((target, owner, outer, attr, getattr(owner, attr)))
        except (ImportError, AttributeError):
            continue
    present = {target.span for target, *_ in found}
    absent = sorted({target.span for target in targets} - present)
    try:
        for target, owner, outer, attr, original in found:
            if outer:
                # A method: every instance looks it up on the class.
                bindings = [(owner, attr, target.span)]
            else:
                bindings = [
                    (module, name, target.rebind.get(module.__name__, target.span))
                    for module in _program_modules()
                    for name, value in list(vars(module).items())
                    if value is original
                ]
            for obj, name, span_name in bindings:
                undo.append((obj, name, original))
                setattr(obj, name, _wrap(original, tracer, span_name, target.count))
        yield absent
    finally:
        for obj, name, original in reversed(undo):
            setattr(obj, name, original)


# -- span arithmetic ---------------------------------------------------------


def _covered(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _children(spans: Sequence[Span]) -> Dict[Optional[int], List[Span]]:
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return children


def self_seconds(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time: span time minus the time its child spans cover."""
    children = _children(spans)
    return {
        span.id: span.seconds
        - _covered(
            ((c.start, c.end) for c in children.get(span.id, ())), span.start, span.end
        )
        for span in spans
    }


def coverage(spans: Sequence[Span], parent: str, covering: Iterable[str]) -> float:
    """Share of ``parent`` spans' time covered by descendants named ``covering``."""
    names = set(covering)
    children = _children(spans)
    total = covered = 0.0
    for span in spans:
        if span.name != parent:
            continue
        found, stack = [], list(children.get(span.id, ()))
        while stack:
            child = stack.pop()
            if child.name in names:
                found.append((child.start, child.end))
            else:
                stack.extend(children.get(child.id, ()))
        total += span.seconds
        covered += _covered(found, span.start, span.end)
    return covered / total if total > 0 else 0.0


def span_table(spans: Sequence[Span]) -> List[str]:
    """Per span name: calls, total and self seconds, heaviest self first."""
    own = self_seconds(spans)
    rows: Dict[str, List[float]] = {}
    for span in spans:
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.seconds
        row[2] += own[span.id]
    lines = [f"  {'span':<24} {'calls':>6} {'total_s':>10} {'self_s':>10}"]
    for name, (calls, total, own_s) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {name:<24} {calls:>6} {total:>10.4f} {own_s:>10.4f}")
    return lines


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [span.seconds for span in spans if span.name == name]


def counts(spans: Sequence[Span], name: str, key: str) -> List[float]:
    return [span.counts[key] for span in spans if span.name == name and key in span.counts]


# -- statistics --------------------------------------------------------------


def quantile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation); 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


#: Seconds :func:`_calibration_kernel` takes on the reference host: the
#: median measured on the 2-vCPU, 2.1 GHz machine the benchmark was tuned
#: on (CPython 3.11, numpy 2.4).
REFERENCE_KERNEL_S = 0.0125


def _calibration_kernel() -> float:
    """Seconds of a fixed mix of dict, tuple-sort and numpy work."""
    start = time.perf_counter()
    table = {}
    for i in range(40_000):
        table[(i * 7919) % 10_007] = i
    sorted(((i * 31) % 1009, i) for i in range(15_000))
    values = np.random.default_rng(0).random(100_000)
    values.sort()
    return time.perf_counter() - start


class SpeedProbe:
    """How much slower than the reference host this one runs right now.

    A shared host's speed swings by tens of percent within seconds and
    drifts over minutes, which would swamp any run-to-run comparison.  So
    the benchmark times a fixed kernel next to the work it measures and
    divides each measured time by the slowdown seen around it: the
    end-to-end metrics read as if measured at reference speed.  Raw
    values are printed beside them.
    """

    def __init__(self) -> None:
        #: ``(perf_counter at the sample, slowdown)`` pairs.
        self.samples: List[tuple] = []

    def sample(self, runs: int = 1) -> float:
        """Time the kernel ``runs`` times; record and return the median slowdown."""
        when = time.perf_counter()
        slowdown = statistics.median(_calibration_kernel() for _ in range(runs)) / REFERENCE_KERNEL_S
        self.samples.append((when, slowdown))
        return slowdown

    def timed(self, fn: Callable[[], float], runs: int = 3) -> tuple:
        """``(raw, adjusted)`` seconds of ``fn()``, which returns its own time."""
        before = self.sample(runs)
        raw = fn()
        return raw, raw / ((before + self.sample(runs)) / 2)

    def slowdown_near(self, when: float, window: float = 1.5) -> float:
        """Median slowdown of the samples within ``window`` seconds of ``when``."""
        near = [s for t, s in self.samples if abs(t - when) <= window]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - when))[1]]
        return median(near)

    @property
    def slowdown(self) -> float:
        return median([s for _, s in self.samples]) if self.samples else 1.0


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Stopwatch:
    """Times the steps of one operation, raw and at reference speed.

    With a probe, the host's speed is sampled before the first step and
    after every step, and each step's time is divided by the mean of the
    slowdowns on either side of it: a long operation is adjusted step by
    step, not by one factor.  Without a probe both times are raw.
    """

    def __init__(self, probe: Optional[SpeedProbe] = None, runs: int = 3):
        self.probe = probe
        self.runs = runs
        self.raw = 0.0
        self.adjusted = 0.0
        self._before = probe.sample(runs) if probe is not None else 1.0

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - start
            after = self.probe.sample(self.runs) if self.probe is not None else 1.0
            self.raw += took
            self.adjusted += took / ((self._before + after) / 2)
            self._before = after


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def add(self, error: Optional[str] = None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(error)


def fresh_interpreter_seconds(body: str) -> float:
    """Wall seconds of ``body`` run first thing in a new interpreter.

    ``body`` runs with ``src`` on the path; the timer starts before it,
    so it includes every import the body makes.
    """
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"{body}\n"
        "print(time.perf_counter() - t0)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])
