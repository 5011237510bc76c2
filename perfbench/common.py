"""Shared pieces of the benchmark: spans, statistics and process probes.

Spans are recorded by the benchmark itself, around its calls into the
program's public functions, so the program is measured from outside and
needs no instrumentation of its own.  A :class:`Tracer` that is disabled
records nothing; the untraced run measures the end-to-end metrics, and the
separate traced run gives the per-layer numbers.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Benchmark directory and the checkout root that holds it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Scratch space for traces and span dumps; listed in the root .gitignore.
OUT_DIR = ROOT / ".perfbench"

#: Metric names must match this (the contract's name grammar).
NAME_PATTERN = r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"

clock = time.perf_counter

#: Seconds each part of :func:`probe` takes on the reference machine, a
#: shared 2-core Intel Xeon at 2.1 GHz, while no other tenant slows it.
#: Host-scaled times are expressed at that speed.
REFERENCE_PROBE_S = (0.0055, 0.006, 0.001)
PROBE_REPEATS = 2

_rng = np.random.default_rng(0)
_STREAM = _rng.random(4_000_000)
_GATHER = _rng.integers(0, _STREAM.size, 250_000)
_SORT = _rng.random(100_000)


def _interpreter() -> None:
    table: dict[int, int] = {}
    for i in range(40_000):
        table[i & 2047] = table.get(i & 2047, 0) + i


def _memory() -> None:
    _STREAM.sum()
    _STREAM[_GATHER].sum()


def _vector() -> None:
    np.sort(_SORT).cumsum()


def probe() -> float:
    """How much slower than the reference machine the host runs right now.

    Three fixed loads, each timed best of :data:`PROBE_REPEATS`: interpreter
    dict work, a memory stream plus random gather, and a numpy sort.  The
    pipeline mixes all three, and their mean slowdown tracks its own more
    closely than any one of them.  They are the benchmark's own code, so no
    change to the program moves them.
    """
    ratios = []
    for load, reference in zip((_interpreter, _memory, _vector), REFERENCE_PROBE_S):
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            start = clock()
            load()
            best = min(best, clock() - start)
        ratios.append(best / reference)
    return sum(ratios) / len(ratios)


class HostClock:
    """Wall seconds scaled to the reference speed of the host.

    Other tenants of a shared host slow it by up to half, for seconds to
    minutes at a time, so times do not compare across runs as measured.
    Each :meth:`mark` runs :func:`probe`; the time since the previous mark
    is divided by the mean slowdown of the probes at its two ends.  The
    probes' own time is left out.  Callers mark at the ends of what they
    time and between layer calls, so a slow spell is caught within a call
    or two.
    """

    def __init__(self) -> None:
        self.wall = 0.0
        #: Every probe's slowdown, in order.
        self.slowdowns: list[float] = []
        self._probe()

    def _probe(self) -> None:
        self.slowdowns.append(probe())
        self._wall0 = clock()

    @property
    def age(self) -> float:
        """Seconds since the last probe ended."""
        return clock() - self._wall0

    def mark(self) -> float:
        """Close the interval since the last mark; returns the scaled total."""
        wall = clock() - self._wall0
        self._probe()
        self.wall += wall / ((self.slowdowns[-2] + self.slowdowns[-1]) / 2.0)
        return self.wall


class Tracer:
    """In-memory span recorder: name, start, end, parent, one trace id."""

    def __init__(self, enabled: bool, trace_id: str) -> None:
        self.enabled = enabled
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = clock()

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span (a no-op when tracing is off).

        Yields a dict whose ``wall_s`` is filled in on exit, so callers can
        read the duration of a traced call without timing it twice.
        """
        record = {"wall_s": 0.0}
        if not self.enabled:
            yield record
            return
        span_id = len(self.spans)
        record.update(
            id=span_id,
            parent=self._stack[-1] if self._stack else None,
            trace=self.trace_id,
            name=name,
            start_s=clock() - self._origin,
            attrs=attrs,
        )
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_s"] = clock() - self._origin
            record["wall_s"] = record["end_s"] - record["start_s"]

    def children(self, parent: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == parent.get("id")]

    def child_wall(self, parent: dict, name: str) -> float:
        """Total wall time of ``parent``'s children called ``name``."""
        return sum(s["wall_s"] for s in self.children(parent) if s["name"] == name)

    def unattributed_s(self, parent: dict) -> float:
        """Time inside ``parent`` that no child span covers (its self time)."""
        return parent["wall_s"] - sum(s["wall_s"] for s in self.children(parent))

    def dump(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"trace": self.trace_id, "spans": self.spans}))
        return path


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> float:
    """The highest percentile, at most p99, with ten samples beyond it.

    Samples of ten or fewer have no such percentile; their maximum stands in.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1] if ordered else 0.0
    return ordered[min(int(0.99 * len(ordered)), len(ordered) - 11)]


def _status_kib(pid: str, field: str) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise KeyError(field)


def peak_rss_mib(pid: int | str = "self") -> float:
    """High-water resident set size of a process, in MiB."""
    return _status_kib(str(pid), "VmHWM") / 1024.0


def rss_mib(pid: int | str = "self") -> float:
    return _status_kib(str(pid), "VmRSS") / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's high-water mark from its current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # kernels without the reset keep the process-lifetime peak


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a process has used so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
