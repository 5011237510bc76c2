"""The two batch workloads: ``batch-cold`` and ``analyze-warm``.

``batch-cold`` times a researcher's whole seed-to-figures path in one
process: generate the private+public trace, save it, load it back, run all
19 registry tasks and build the knowledge base.  ``analyze-warm`` sets the
trace up once (generate, save, memory-mapped load) and times repeated
analysis passes: the 17 shared-trace registry tasks plus the knowledge-base
build.  Neither touches the serving layer.

Every call into the program goes through a public function, wrapped in a
span of the layer it belongs to, so the traced run attributes each second of
a pass to ``workloads``, ``telemetry``, ``experiments`` or ``core``.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    ROOT,
    HostClock,
    Tracer,
    clock,
    median,
    peak_rss_mib,
    reset_peak_rss,
)

from repro.cloud.allocator import AllocationFailure, AllocationService
from repro.core.knowledge_base import WorkloadKnowledgeBase
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import REGISTRY
from repro.telemetry.io import load_trace, save_trace
from repro.telemetry.shards import mmap_cache
from repro.workloads.generator import (
    GeneratorConfig,
    generate_trace,
    generate_trace_pair,
)
from repro.workloads.profiles import private_profile, public_profile

#: Trace scale of each batch workload (see README.md for why).
COLD_SCALE = 0.4
WARM_SCALE = 0.75

#: A run repeats its timed pass at least this often, and more while another
#: pass fits in ``--seconds``, and reports medians.
MIN_PASSES = 3
#: ``analyze-warm`` sets its trace up this many times; setup_s is the median.
WARM_SETUPS = 2
#: ``batch-cold`` has no setup but the interpreter start and imports, timed
#: this many times in fresh interpreters.
COLD_SETUPS = 3
#: Simulate-only generations in a traced run; synthesis time is the median
#: full generation minus the median of these.
SIMULATE_RUNS = 2

#: Layer calls closer than this to the last host-speed probe share its
#: interval (see :meth:`Run.stage`).
MARK_GAP_S = 0.3

SHARED_TASKS = tuple(task for task in REGISTRY if task.uses_shared_trace)

#: The modules a batch pass imports, for the interpreter-start setup probe.
_IMPORTS = (
    "import repro.core.knowledge_base, repro.experiments.parallel, "
    "repro.telemetry.io, repro.workloads.generator"
)


@dataclass
class Run:
    """One benchmark run: its inputs, its tracer and its failure accounting."""

    seed: int
    seconds: float
    tracer: Tracer
    work: Path
    attempted: int = 0
    failed: int = 0
    #: Output checks that did not hold; any entry makes the run incorrect.
    problems: list[str] = field(default_factory=list)
    layer: dict = field(default_factory=dict)
    host: HostClock = field(default_factory=HostClock)

    def mark(self) -> float:
        """Host-scaled wall seconds so far (see :class:`HostClock`)."""
        with self.tracer.span("host.probe"):
            return self.host.mark()

    @contextmanager
    def stage(self, name: str, **attrs):
        """One layer call: a host-speed mark, then a span when tracing.

        The mark ends the previous call's interval and starts this one's,
        so back-to-back calls share a probe; whoever times a region marks
        its end.  Calls that follow a probe within :data:`MARK_GAP_S` join
        its interval, which keeps probing to a few percent of the run.
        """
        if self.host.age >= MARK_GAP_S:
            self.mark()
        with self.tracer.span(name, **attrs) as record:
            yield record


@dataclass
class PassResult:
    #: Host-scaled seconds of the pass (see :class:`common.HostClock`).
    wall_s: float
    #: Seconds as measured, probes included.
    raw_wall_s: float
    peak_rss_mib: float
    kb_json: str
    verdicts: list
    span: dict
    #: Seconds the pass spent in trace generation (0 when it generates none).
    generate_s: float = 0.0


# ----------------------------------------------------------------------
# layer calls
# ----------------------------------------------------------------------
@contextmanager
def allocate_probe(counts: dict):
    """Count and time ``AllocationService.allocate`` (traced runs only)."""
    original = AllocationService.allocate

    def allocate(self, *args, **kwargs):
        start = clock()
        try:
            return original(self, *args, **kwargs)
        except AllocationFailure:
            counts["failures"] += 1
            raise
        finally:
            counts["calls"] += 1
            counts["seconds"] += clock() - start

    AllocationService.allocate = allocate
    try:
        yield counts
    finally:
        AllocationService.allocate = original


def generate(run: Run, scale: float):
    """The merged private+public trace; returns ``(store, seconds)``."""
    with run.stage("workloads.generate", scale=scale):
        start = clock()
        store = generate_trace_pair(GeneratorConfig(seed=run.seed, scale=scale))
        return store, clock() - start


def simulate_only(run: Run, scale: float) -> tuple[float, dict]:
    """Per-cloud generation without telemetry synthesis.

    Returns the seconds it took and the allocator's call counts.  The
    allocator is probed here rather than in a timed generation, so its
    per-call timer never inflates ``workloads.generate_s``.
    """
    counts = {"calls": 0, "seconds": 0.0, "failures": 0}
    config = GeneratorConfig(seed=run.seed, scale=scale, synthesize_utilization=False)
    with allocate_probe(counts), run.tracer.span("workloads.simulate", scale=scale):
        start = clock()
        generate_trace(private_profile(), config, entity_offset=0)
        generate_trace(public_profile(), config, entity_offset=1)
        return clock() - start, counts


def save_and_load(run: Run, store, directory: Path):
    with run.stage("telemetry.save"):
        save_trace(store, directory)
    with run.stage("telemetry.load"):
        return load_trace(directory)


def run_registry(run: Run, store, tasks, scale: float) -> list:
    """Run registry tasks; returns ``(task, check, passed)`` verdicts.

    A task that raises counts as a failed operation and yields the verdict
    ``(task, None, False)``.
    """
    config = ExperimentConfig(seed=run.seed, scale=scale)
    verdicts = []
    for task in tasks:
        run.attempted += 1
        with run.stage(f"experiments.{task.task_id}"):
            try:
                if task.uses_shared_trace:
                    result = task.runner(store)
                else:
                    result = task.runner(config, run.work / "cache", False)
            except Exception:  # a failing task is measured, not fatal
                run.failed += 1
                traceback.print_exc(file=sys.stderr)
                verdicts.append((task.task_id, None, False))
                continue
        verdicts.extend((task.task_id, c.name, c.passed) for c in result.checks)
    return verdicts


def build_kb(run: Run, store) -> WorkloadKnowledgeBase:
    run.attempted += 1
    with run.stage("core.kb_build"):
        return WorkloadKnowledgeBase.from_trace(store)


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def _timed_pass(run: Run, body) -> tuple[PassResult, dict]:
    """Time ``body`` as one pass; returns the result and body's artifacts."""
    gc.collect()
    reset_peak_rss()
    start = clock()
    with run.tracer.span("pass") as sp:
        wall0 = run.mark()
        kb, verdicts, artifacts = body()
        wall1 = run.mark()
    result = PassResult(
        wall1 - wall0,
        clock() - start,
        peak_rss_mib(),
        kb.to_json(),
        verdicts,
        sp,
        artifacts.get("generate_s", 0.0),
    )
    return result, artifacts


def cold_pass(run: Run, index: int) -> PassResult:
    """Seed to figures and knowledge base; the saved trace is checked after."""
    directory = run.work / f"pass{index}"

    def body():
        run.attempted += 3  # generate, save, load
        store, generate_s = generate(run, COLD_SCALE)
        loaded = save_and_load(run, store, directory)
        # Keep a small sample of the generated trace, not the whole of it,
        # so the pass's peak memory is that of the researcher's path.
        expected = fingerprint(store)
        del store
        verdicts = run_registry(run, loaded, REGISTRY, COLD_SCALE)
        kb = build_kb(run, loaded)
        artifacts = {"expected": expected, "loaded": loaded, "generate_s": generate_s}
        return kb, verdicts, artifacts

    try:
        result, artifacts = _timed_pass(run, body)
        loaded = artifacts["loaded"]
        if fingerprint(loaded) != artifacts["expected"]:
            run.problems.append("the loaded trace differs from the generated one")
        if run.tracer.enabled:
            run.layer.update(storage_layer(loaded, directory))
        return result
    finally:
        # The process-wide shard cache keeps this pass's trace mapped and
        # resident; a researcher's run starts without it, so each pass does.
        mmap_cache().clear()
        shutil.rmtree(directory, ignore_errors=True)


def warm_pass(run: Run, store) -> PassResult:
    def body():
        verdicts = run_registry(run, store, SHARED_TASKS, WARM_SCALE)
        return build_kb(run, store), verdicts, {}

    return _timed_pass(run, body)[0]


def fingerprint(store) -> tuple:
    """Sizes plus every 50th utilization series, for round-trip checks."""
    ids = store.vm_ids_with_utilization()
    sample = tuple(
        store.utilization(vm_id).tobytes() for vm_id in ids[:: max(1, len(ids) // 50)]
    )
    return store.summary()["vms"], len(store.events()), tuple(ids), sample


def check_passes_agree(run: Run, passes: list[PassResult]) -> None:
    """The same seed must give the same figures and knowledge base."""
    first = passes[0]
    if not first.kb_json or first.kb_json == "[]":
        run.problems.append("knowledge base is empty")
    for other in passes[1:]:
        if other.kb_json != first.kb_json:
            run.problems.append("knowledge base bytes differ between passes")
        if other.verdicts != first.verdicts:
            run.problems.append("registry check verdicts differ between passes")


def repeat_passes(run: Run, one_pass) -> list[PassResult]:
    """At least :data:`MIN_PASSES`, then more while another fits ``seconds``."""
    passes: list[PassResult] = []
    start = clock()
    while len(passes) < MIN_PASSES or (
        clock() - start + passes[-1].raw_wall_s <= run.seconds
    ):
        passes.append(one_pass(len(passes)))
        last = passes[-1]
        print(
            f"pass {len(passes)}: {last.wall_s:.3f} s host-scaled, "
            f"{last.raw_wall_s:.3f} s measured, peak {last.peak_rss_mib:.1f} MiB",
            file=sys.stderr,
        )
    return passes


# ----------------------------------------------------------------------
# setup
# ----------------------------------------------------------------------
def interpreter_setup_s(run: Run) -> float:
    """Host-scaled seconds for a fresh interpreter to import the pipeline."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = run.mark()
    subprocess.run(
        [sys.executable, "-c", _IMPORTS], env=env, check=True, cwd=ROOT, timeout=120
    )
    return run.mark() - start


def warm_setup(run: Run, index: int):
    """Generate, save and memory-map the warm trace.

    Returns the loaded store, the setup's host-scaled seconds and its
    generation seconds as measured.
    """
    directory = run.work / f"setup{index}"
    with run.tracer.span("setup"):
        start = run.mark()
        store, generate_s = generate(run, WARM_SCALE)
        loaded = save_and_load(run, store, directory)
        seconds = run.mark() - start
    if run.tracer.enabled:
        run.layer.update(storage_layer(store, directory))
    return loaded, seconds, generate_s


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def trace_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def storage_layer(store, directory: Path) -> dict:
    summary = store.summary()
    return {
        "workloads.vms": summary["vms"],
        "workloads.events": summary["events"],
        "workloads.series": summary["utilization_series"],
        "telemetry.trace_bytes": trace_bytes(directory),
    }


def generation_layer(run: Run, scale: float, generate_samples: list[float]) -> dict:
    """Generation and allocator figures from full and simulate-only runs.

    Synthesis is a small share of generation, so both sides of the
    difference are medians of several runs.
    """
    sims = [simulate_only(run, scale) for _ in range(SIMULATE_RUNS)]
    generate_s = median(generate_samples)
    simulate_s = median(seconds for seconds, _ in sims)
    counts = sims[0][1]
    return {
        "workloads.generate_s": generate_s,
        "workloads.simulate_s": simulate_s,
        "workloads.synthesize_s": generate_s - simulate_s,
        "workloads.us_per_vm": generate_s / run.layer["workloads.vms"] * 1e6,
        "cloud.allocate_calls": counts["calls"],
        "cloud.allocate_s": median(c["seconds"] for _, c in sims),
        "cloud.allocate_failures": counts["failures"],
    }


def pass_layer(run: Run, traced: PassResult, untraced: list[PassResult]) -> dict:
    """Per-task and KB times of the traced pass, plus the trace's own cost."""
    tracer = run.tracer
    spans = {s["name"]: s["wall_s"] for s in tracer.children(traced.span)}
    metrics = {
        f"experiments.{task.task_id}_s": spans.get(f"experiments.{task.task_id}", 0.0)
        for task in REGISTRY
    }
    metrics["experiments.checks_failed"] = sum(1 for v in traced.verdicts if not v[2])
    metrics["core.kb_build_s"] = spans["core.kb_build"]
    metrics["trace.overhead_ratio"] = traced.wall_s / median(p.wall_s for p in untraced)
    metrics["trace.unattributed_s"] = tracer.unattributed_s(traced.span)
    return metrics


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def batch_cold(run: Run) -> dict:
    if not run.tracer.enabled:
        setup = [interpreter_setup_s(run) for _ in range(COLD_SETUPS)]
        passes = repeat_passes(run, lambda i: cold_pass(run, i))
        check_passes_agree(run, passes)
        report_checks(passes[-1].verdicts)
        return end_to_end(median(setup), passes)

    # Traced run: untraced, traced, untraced passes; the traced one feeds
    # the per-layer table and the two others give the tracing overhead.
    run.tracer.enabled = False
    before = cold_pass(run, 0)
    run.tracer.enabled = True
    traced = cold_pass(run, 1)
    run.tracer.enabled = False
    after = cold_pass(run, 2)
    run.tracer.enabled = True
    check_passes_agree(run, [before, traced, after])
    report_checks(traced.verdicts)

    metrics = dict(run.layer)
    metrics.update(
        generation_layer(run, COLD_SCALE, [p.generate_s for p in (before, traced, after)])
    )
    metrics["telemetry.save_s"] = run.tracer.child_wall(traced.span, "telemetry.save")
    metrics["telemetry.load_s"] = run.tracer.child_wall(traced.span, "telemetry.load")
    metrics["core.kb_records"] = kb_records(traced)
    metrics.update(pass_layer(run, traced, [before, after]))
    return metrics


def analyze_warm(run: Run) -> dict:
    setup_times, generate_times = [], []
    for index in range(WARM_SETUPS):
        # Rebinding ``store`` drops the previous setup's trace.
        store, seconds, generate_s = warm_setup(run, index)
        setup_times.append(seconds)
        generate_times.append(generate_s)
    if not run.tracer.enabled:
        passes = repeat_passes(run, lambda i: warm_pass(run, store))
        check_passes_agree(run, passes)
        report_checks(passes[-1].verdicts)
        return end_to_end(median(setup_times), passes)

    setup_span = [s for s in run.tracer.spans if s["name"] == "setup"][-1]
    run.tracer.enabled = False
    before = warm_pass(run, store)
    run.tracer.enabled = True
    traced = warm_pass(run, store)
    run.tracer.enabled = False
    after = warm_pass(run, store)
    run.tracer.enabled = True
    check_passes_agree(run, [before, traced, after])
    report_checks(traced.verdicts)

    metrics = dict(run.layer)
    metrics.update(generation_layer(run, WARM_SCALE, generate_times))
    metrics["telemetry.save_s"] = run.tracer.child_wall(setup_span, "telemetry.save")
    metrics["telemetry.load_s"] = run.tracer.child_wall(setup_span, "telemetry.load")
    metrics["core.kb_records"] = kb_records(traced)
    metrics.update(pass_layer(run, traced, [before, after]))
    return metrics


def kb_records(result: PassResult) -> int:
    return len(json.loads(result.kb_json))


def end_to_end(setup_s: float, passes: list[PassResult]) -> dict:
    wall = median(p.wall_s for p in passes)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mib": median(p.peak_rss_mib for p in passes),
        "latency_p50_ms": wall * 1000.0,
    }


def report_checks(verdicts: list) -> None:
    failed = [f"{task}: {name}" for task, name, passed in verdicts if not passed]
    for line in failed:
        print(f"paper-shape check failed: {line}", file=sys.stderr)
