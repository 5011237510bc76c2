"""Per-task wall-time benchmark with a committed baseline (``bench-perf``).

ROADMAP item 5: the obs layer *records* per-task wall-times, but nothing
*enforces* them.  This module turns the 19-task experiment registry into a
perf contract:

* ``repro-cloud bench-perf`` runs every registry task at a fixed
  ``(seed, scale)`` in spawned subprocesses (the
  :func:`~repro.experiments.benchscale.run_subprocess_phase` gating used by
  the memory benchmark), records ``N`` repeats of each task's ``task.run``
  span wall-time, and writes a schema-versioned artifact of per-task
  medians;
* ``--check`` compares the artifact against the committed
  ``BENCH_perf.json`` and exits nonzero when any task regresses beyond the
  per-task tolerance or the registry total regresses beyond the total
  tolerance;
* ``--write-baseline`` refreshes the committed baseline after an accepted
  perf change (see ``docs/PERFORMANCE.md`` for the refresh policy).

Two deliberate design points:

**Calibration.**  Absolute wall-times do not transfer between machines, so
every run times a fixed numpy workload (:func:`_calibration_seconds`) in
the same subprocess that measures tasks, and comparisons scale the
baseline's medians by the ratio of calibration times.  A 2x-slower CI
runner is then expected to be ~2x slower on every task, and only *relative*
regressions trip the gate.

**Kernel evidence.**  The artifact embeds a microbenchmark of the two hot
kernels this campaign batched -- AUTOPERIOD period detection
(:func:`~repro.core.periodicity.detect_periods_block`) and pairwise Pearson
correlation (:func:`~repro.analysis.stats.pairwise_pearson`) -- against
their scalar reference paths, including an ``outputs_identical`` bitwise
check, so the committed baseline itself documents that the speedups hold
and the outputs did not drift.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
from pathlib import Path
from typing import Sequence

from repro.experiments.benchscale import run_subprocess_phase, write_artifact

__all__ = [
    "DEFAULT_PER_TASK_TOLERANCE",
    "DEFAULT_REPEATS",
    "DEFAULT_SCALE",
    "DEFAULT_TOTAL_TOLERANCE",
    "SCHEMA_VERSION",
    "calibration_seconds",
    "compare_to_baseline",
    "render_comparison",
    "run_bench_perf",
    "write_artifact",
]

#: Bumped whenever the artifact layout changes; comparisons across versions
#: are refused rather than guessed at.
SCHEMA_VERSION = 1

#: Default benchmark scale: large enough that the hot kernels dominate,
#: small enough for a CI job (~15 s per measured repeat).
DEFAULT_SCALE = 0.12

#: Default measured repeats (after one discarded warm-up run).
DEFAULT_REPEATS = 3

#: Default per-task regression tolerance (+20% on the calibrated median).
DEFAULT_PER_TASK_TOLERANCE = 0.20

#: Default whole-registry regression tolerance (+10% on the total).
DEFAULT_TOTAL_TOLERANCE = 0.10

#: A task (or registry total) expected under this floor is gated only once
#: the candidate exceeds the expected time by more than the floor: one
#: sample of a sub-50ms task moves by tens of ms on a busy host, so a
#: smaller difference cannot be told from timer noise.
DEFAULT_MIN_TASK_S = 0.05


def _under_noise_floor(candidate_s: float, expected_s: float, min_task_s: float) -> bool:
    """Whether a timing is too small to gate (see ``DEFAULT_MIN_TASK_S``)."""
    return expected_s < min_task_s and candidate_s - expected_s < min_task_s


def _calibration_seconds() -> float:
    """Wall-time of a fixed numpy workload, for cross-machine normalization.

    The workload mirrors what the registry's hot paths do (batched rFFTs,
    reductions, BLAS dots) so that its scaling across machines tracks the
    tasks'.  Seeded generation keeps the input identical everywhere; the
    elapsed time is read off an obs span (REP002).

    The result is the **best of five** timed passes of a workload sized to
    tens of milliseconds: scheduler noise is strictly additive, so the
    minimum estimates the machine's steady-state throughput far more
    stably than any single pass -- and a noisy calibration would shift
    *every* task's expected time in :func:`compare_to_baseline`.
    """
    import numpy as np

    from repro.obs import span

    rng = np.random.default_rng(0)
    block = rng.standard_normal((256, 4096))
    best = float("inf")
    for _ in range(5):
        with span("bench.perf.calibrate") as timing:
            acc = 0.0
            for _ in range(3):
                spectra = np.abs(np.fft.rfft(block, axis=1)) ** 2
                acc += float(spectra.sum())
                centered = block - block.mean(axis=1, keepdims=True)
                for row in centered:
                    acc += float(np.dot(row, row))
            if not np.isfinite(acc):  # pragma: no cover - keeps the loop live
                raise AssertionError("calibration workload overflowed")
        best = min(best, timing.wall_s)
    return best


#: Public alias: other benchmarks (``bench-serve``) time the *same* fixed
#: workload so their baselines normalize across machines identically --
#: a box that is 2x slower on this workload is expected to be ~2x slower
#: on analysis tasks and on serve latencies alike.
calibration_seconds = _calibration_seconds


def _phase_measure(
    conn, seed: int, scale: float, cache_dir: str, task_ids: "list[str] | None"
) -> None:
    """Subprocess body: run the registry once, report per-task wall-times.

    ``wall_time_s`` is the ``task.run`` span, which excludes the trace
    fetch -- cache hits vs misses therefore cannot masquerade as analysis
    regressions (the warm-up run makes every measured repeat a hit anyway).
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.parallel import execute
    from repro.obs import span

    config = ExperimentConfig(seed=seed, scale=scale)
    with span("bench.perf.measure", scale=scale) as timing:
        outcomes = execute(config, jobs=1, cache_dir=cache_dir, task_ids=task_ids)
    conn.send(
        {
            "phase": "measure",
            "wall_s": timing.wall_s,
            "calibration_s": _calibration_seconds(),
            "tasks": [
                {
                    "id": outcome.task_id,
                    "status": outcome.status,
                    "wall_s": outcome.wall_time_s,
                    "trace_fetch_s": outcome.trace_fetch_s,
                }
                for outcome in outcomes
            ],
        }
    )
    conn.close()


def _phase_kernels(conn) -> None:
    """Subprocess body: microbench the batched kernels vs their scalar paths.

    Fixtures are seeded and week-shaped (2016 samples = 7 days at 5
    minutes).  Each kernel reports the scalar and batched wall-times *and*
    whether the outputs are identical -- the acceptance evidence that the
    speedup did not buy a different answer.
    """
    import numpy as np

    from repro.analysis.stats import pairwise_pearson, pearson_correlation
    from repro.core.periodicity import detect_periods, detect_periods_block
    from repro.obs import span

    rng = np.random.default_rng(0)
    n = 2016
    t = np.arange(n, dtype=np.float64)
    daily = np.sin(2 * np.pi * t / 288.0)
    block = 0.3 + 0.2 * daily[None, :] + 0.05 * rng.standard_normal((48, n))
    block[8:16] = 0.4  # constant rows, the idle-VM case

    with span("bench.perf.kernel", kernel="detect_periods.scalar") as scalar_t:
        # lint: allow[REP007] -- scalar reference side of the kernel microbench
        scalar_periods = [detect_periods(row) for row in block]
    with span("bench.perf.kernel", kernel="detect_periods.block") as block_t:
        block_periods = detect_periods_block(block)
    periods = {
        "name": "detect_periods",
        "rows": int(block.shape[0]),
        "scalar_s": scalar_t.wall_s,
        "batched_s": block_t.wall_s,
        "speedup": scalar_t.wall_s / block_t.wall_s,
        "outputs_identical": block_periods == scalar_periods,
    }

    corr_block = 0.3 + 0.2 * daily[None, :] + 0.05 * rng.standard_normal((96, n))
    corr_block[4:8] = 0.7
    m = corr_block.shape[0]
    with span("bench.perf.kernel", kernel="pairwise_pearson.scalar") as scalar_t:
        scalar_r = np.full((m, m), np.nan)
        for i in range(m):
            for j in range(i, m):
                # lint: allow[REP007] -- scalar reference side of the microbench
                scalar_r[i, j] = scalar_r[j, i] = pearson_correlation(
                    corr_block[i], corr_block[j]
                )
    with span("bench.perf.kernel", kernel="pairwise_pearson.block") as block_t:
        blocked_r = pairwise_pearson(corr_block)
    both_nan = np.isnan(scalar_r) & np.isnan(blocked_r)
    correlation = {
        "name": "pairwise_pearson",
        "rows": m,
        "scalar_s": scalar_t.wall_s,
        "batched_s": block_t.wall_s,
        "speedup": scalar_t.wall_s / block_t.wall_s,
        "outputs_identical": bool(np.all((scalar_r == blocked_r) | both_nan)),
    }
    conn.send({"phase": "kernels", "kernels": [periods, correlation]})
    conn.close()


def run_bench_perf(
    *,
    seed: int = 7,
    scale: float = DEFAULT_SCALE,
    repeats: int = DEFAULT_REPEATS,
    cache_dir: str | Path,
    task_ids: Sequence[str] | None = None,
) -> dict:
    """Run the perf benchmark and return the artifact payload.

    One warm-up pass populates the trace cache (including the validity
    task's sub-traces), then ``repeats`` measured passes each run in a
    fresh spawned subprocess with ``jobs=1``.  Per-task medians are taken
    across the measured passes; a task's status is the worst it reported.
    """
    import numpy as np

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    cache_dir = str(cache_dir)
    ids = list(task_ids) if task_ids else None
    run_subprocess_phase(_phase_measure, (seed, scale, cache_dir, ids))  # warm-up
    runs = [
        run_subprocess_phase(_phase_measure, (seed, scale, cache_dir, ids))
        for _ in range(repeats)
    ]
    kernels = run_subprocess_phase(_phase_kernels, ())["kernels"]

    first_ids = [t["id"] for t in runs[0]["tasks"]]
    for run in runs[1:]:
        got = [t["id"] for t in run["tasks"]]
        if got != first_ids:
            raise RuntimeError(f"task list changed between repeats: {got} != {first_ids}")
    ok_statuses = ("ok", "retried")
    tasks = []
    for idx, task_id in enumerate(first_ids):
        samples = [run["tasks"][idx]["wall_s"] for run in runs]
        statuses = {run["tasks"][idx]["status"] for run in runs}
        bad = sorted(statuses - set(ok_statuses))
        tasks.append(
            {
                "id": task_id,
                "status": bad[0] if bad else "ok",
                "median_s": round(statistics.median(samples), 6),
                "samples_s": [round(s, 6) for s in samples],
            }
        )
    for kernel in kernels:
        kernel["scalar_s"] = round(kernel["scalar_s"], 6)
        kernel["batched_s"] = round(kernel["batched_s"], 6)
        kernel["speedup"] = round(kernel["speedup"], 2)
    return {
        "bench": "perf",
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "scale": scale,
        "repeats": repeats,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        # Min across repeats for the same reason as the best-of-5 inside
        # each run: the floor is the stable machine-speed estimate.
        "calibration_s": round(min(run["calibration_s"] for run in runs), 6),
        "tasks": tasks,
        "total_s": round(sum(t["median_s"] for t in tasks), 6),
        "kernels": kernels,
    }


def compare_to_baseline(
    candidate: dict,
    baseline: dict,
    *,
    per_task_tolerance: float = DEFAULT_PER_TASK_TOLERANCE,
    total_tolerance: float = DEFAULT_TOTAL_TOLERANCE,
    min_task_s: float = DEFAULT_MIN_TASK_S,
) -> dict:
    """Pure comparison of a candidate artifact against the baseline.

    The baseline's medians are scaled by the machines' calibration ratio
    before comparing, so the gate measures *relative* regressions.  Returns
    ``{"ok": bool, "failures": [...], "per_task": [...], "total": {...}}``;
    the CLI renders it and maps ``ok`` to the exit code.
    """
    failures: list[str] = []
    for key in ("schema_version", "seed", "scale"):
        if candidate.get(key) != baseline.get(key):
            failures.append(
                f"{key} mismatch: candidate {candidate.get(key)!r} vs "
                f"baseline {baseline.get(key)!r}"
            )
    if failures:
        return {"ok": False, "failures": failures, "per_task": [], "total": {}}

    cand_ids = [t["id"] for t in candidate["tasks"]]
    base_ids = [t["id"] for t in baseline["tasks"]]
    if cand_ids != base_ids:
        failures.append(f"task list mismatch: candidate {cand_ids} vs baseline {base_ids}")
        return {"ok": False, "failures": failures, "per_task": [], "total": {}}

    base_cal = baseline.get("calibration_s") or 0.0
    cand_cal = candidate.get("calibration_s") or 0.0
    if base_cal <= 0 or cand_cal <= 0:
        failures.append("missing or non-positive calibration_s; cannot normalize")
        return {"ok": False, "failures": failures, "per_task": [], "total": {}}
    machine_factor = cand_cal / base_cal

    per_task = []
    for cand_task, base_task in zip(candidate["tasks"], baseline["tasks"], strict=True):
        task_id = cand_task["id"]
        if cand_task["status"] != "ok":
            failures.append(f"task {task_id}: status {cand_task['status']!r}")
        expected_s = base_task["median_s"] * machine_factor
        noise_floor = _under_noise_floor(cand_task["median_s"], expected_s, min_task_s)
        regression = (
            cand_task["median_s"] / expected_s - 1.0 if expected_s > 0 else 0.0
        )
        row = {
            "id": task_id,
            "baseline_s": base_task["median_s"],
            "expected_s": round(expected_s, 6),
            "candidate_s": cand_task["median_s"],
            "regression": round(regression, 4),
            "gated": not noise_floor,
        }
        per_task.append(row)
        if not noise_floor and regression > per_task_tolerance:
            failures.append(
                f"task {task_id}: {regression:+.1%} vs tolerance "
                f"{per_task_tolerance:+.1%} "
                f"({cand_task['median_s']:.3f}s vs expected {expected_s:.3f}s)"
            )
    expected_total = baseline["total_s"] * machine_factor
    total_regression = (
        candidate["total_s"] / expected_total - 1.0 if expected_total > 0 else 0.0
    )
    total_floor = _under_noise_floor(candidate["total_s"], expected_total, min_task_s)
    if not total_floor and total_regression > total_tolerance:
        failures.append(
            f"registry total: {total_regression:+.1%} vs tolerance "
            f"{total_tolerance:+.1%} "
            f"({candidate['total_s']:.3f}s vs expected {expected_total:.3f}s)"
        )
    return {
        "ok": not failures,
        "failures": failures,
        "machine_factor": round(machine_factor, 4),
        "per_task": per_task,
        "total": {
            "baseline_s": baseline["total_s"],
            "expected_s": round(expected_total, 6),
            "candidate_s": candidate["total_s"],
            "regression": round(total_regression, 4),
            "gated": not total_floor,
        },
    }


def render_comparison(result: dict) -> str:
    """Human-readable comparison table for the CLI and CI logs."""
    lines = []
    if result["per_task"]:
        lines.append(
            f"{'task':<28} {'baseline':>9} {'expected':>9} "
            f"{'candidate':>9} {'delta':>8}"
        )
        for row in result["per_task"]:
            marker = "" if row["gated"] else "  (noise floor, not gated)"
            lines.append(
                f"{row['id']:<28} {row['baseline_s']:>8.3f}s {row['expected_s']:>8.3f}s "
                f"{row['candidate_s']:>8.3f}s {row['regression']:>+7.1%}{marker}"
            )
        total = result["total"]
        marker = "" if total["gated"] else "  (noise floor, not gated)"
        lines.append(
            f"{'TOTAL':<28} {total['baseline_s']:>8.3f}s {total['expected_s']:>8.3f}s "
            f"{total['candidate_s']:>8.3f}s {total['regression']:>+7.1%}{marker}"
        )
        lines.append(f"machine calibration factor: {result['machine_factor']:.2f}x")
    for failure in result["failures"]:
        lines.append(f"FAIL: {failure}")
    lines.append("perf gate: " + ("ok" if result["ok"] else "REGRESSED"))
    return "\n".join(lines)


def load_artifact(path: str | Path) -> dict:
    """Load a ``BENCH_perf.json`` artifact."""
    payload = json.loads(Path(path).read_text())
    if payload.get("bench") != "perf":
        raise ValueError(f"{path} is not a bench-perf artifact")
    return payload


def print_summary(payload: dict, stream=sys.stderr) -> None:
    """One-line-per-task summary of a freshly measured artifact."""
    for task in payload["tasks"]:
        flag = "" if task["status"] == "ok" else f"  [{task['status']}]"
        print(f"  {task['id']:<28} {task['median_s']:>8.3f}s{flag}", file=stream)
    print(
        f"  {'total':<28} {payload['total_s']:>8.3f}s "
        f"(calibration {payload['calibration_s']:.3f}s)",
        file=stream,
    )
    for kernel in payload["kernels"]:
        drift = "" if kernel["outputs_identical"] else "  OUTPUT DRIFT"
        print(
            f"  kernel {kernel['name']:<21} {kernel['scalar_s']:.3f}s -> "
            f"{kernel['batched_s']:.3f}s ({kernel['speedup']:.1f}x){drift}",
            file=stream,
        )
