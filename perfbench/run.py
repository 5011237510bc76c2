"""Benchmark of the whole pipeline and the online service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 16 --trace 0

Workloads: ``batch-cold``, ``analyze-warm`` and ``serve-mixed`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of standard
output is one JSON object with every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it carries every per-layer metric
instead, and the recorded spans are written under ``.perfbench/``.  The run
exits nonzero, without a result line, when the program it measures cannot
be imported or a step it needs fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import NAME_PATTERN, OUT_DIR, ROOT, Tracer, median  # noqa: E402

WORKLOADS = ("batch-cold", "analyze-warm", "serve-mixed")

#: The layer a workload never calls; its per-layer metrics read 0 there.
BYPASSED = {
    "batch-cold": ("serving.",),
    "analyze-warm": ("serving.",),
    "serve-mixed": ("experiments.",),
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_table(spec: dict, trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run prints."""
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def assemble(workload: str, values: dict, table: dict[str, str]) -> dict:
    """Metrics in ``BENCHMARK.json`` order; a bypassed layer reads 0.

    A name the workload neither measured nor bypasses is an error, as is a
    measured name ``BENCHMARK.json`` does not list.
    """
    unknown = sorted(set(values) - set(table))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    out = {}
    for name, unit in table.items():
        if not re.fullmatch(NAME_PATTERN, name):
            raise ValueError(f"bad metric name {name!r}")
        if name in values:
            value = values[name]
        elif name.startswith(BYPASSED[workload]):
            value = 0
        else:
            raise KeyError(f"{workload} did not measure {name}")
        out[name] = {"value": value, "unit": unit}
    return out


def measure(workload: str, run) -> dict:
    """Run one workload; a traced run adds the host's median slowdown."""
    import pipeline
    import serve

    body = {
        "batch-cold": pipeline.batch_cold,
        "analyze-warm": pipeline.analyze_warm,
        "serve-mixed": serve.serve_mixed,
    }[workload]
    values = body(run)
    if run.tracer.enabled:
        values["host.slowdown"] = median(run.host.slowdowns)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    table = metric_table(load_spec(), bool(args.trace))

    import pipeline

    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace_id = f"{args.workload}-seed{args.seed}"
    work = OUT_DIR / f"work-{trace_id}-{os.getpid()}"
    run = pipeline.Run(
        seed=args.seed,
        seconds=args.seconds,
        tracer=Tracer(bool(args.trace), trace_id),
        work=work,
    )
    try:
        values = measure(args.workload, run)
        metrics = assemble(args.workload, values, table)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        path = run.tracer.dump(OUT_DIR / f"spans-{trace_id}.json")
        print(f"spans written to {path}", file=sys.stderr)
    for problem in run.problems:
        print(f"output check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
