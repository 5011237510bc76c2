"""Self-tests of the benchmark (``python -m pytest perfbench/tests -q``).

They check the benchmark, not the program: that its inputs follow from the
seed alone, that its snapshot check catches a wrong snapshot, that what it
prints matches ``BENCHMARK.json``, and that it refuses to run without the
program.  The workload tests shrink the workloads to a tiny trace so they
finish in seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import common  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402

from repro.workloads.generator import GeneratorConfig, generate_trace_pair  # noqa: E402

TINY_SCALE = 0.05


def _store(seed: int):
    return generate_trace_pair(GeneratorConfig(seed=seed, scale=TINY_SCALE))


def _plan_bytes(plan: serve.Plan) -> list[bytes]:
    lines = [r.line for r in plan.ingest + plan.ingest_queries]
    for requests in plan.read_steps.values():
        lines.extend(r.line for r in requests)
    return lines


def test_same_seed_same_inputs_other_seed_other_inputs():
    first = serve.build_plan(3, _store(3), 2.0)
    again = serve.build_plan(3, _store(3), 2.0)
    other = serve.build_plan(4, _store(4), 2.0)
    assert [r.line for r in first.ingest] == [r.line for r in again.ingest]
    assert _plan_bytes(first) == _plan_bytes(again)
    assert [r.line for r in first.ingest] != [r.line for r in other.ingest]
    assert _plan_bytes(first) != _plan_bytes(other)


def _reply(records) -> bytes:
    return json.dumps({"ok": True, "id": 7, "result": {"records": records}}).encode()


def test_snapshot_check_rejects_tampered_snapshot():
    plan = serve.build_plan(3, _store(3), 2.0)
    records = json.loads(plan.expected_json)
    assert records, "the oracle knowledge base must not be empty"
    assert serve.snapshot_matches(_reply(records), plan.expected_json)

    changed = json.loads(plan.expected_json)
    changed[0]["n_vms"] += 1
    assert not serve.snapshot_matches(_reply(changed), plan.expected_json)
    assert not serve.snapshot_matches(_reply(records[1:]), plan.expected_json)
    assert not serve.snapshot_matches(_reply(records[::-1]), plan.expected_json)
    error = json.dumps({"ok": False, "id": 7, "error": {"kind": "error"}}).encode()
    assert not serve.snapshot_matches(error, plan.expected_json)
    assert not serve.snapshot_matches(b"not json", plan.expected_json)


def test_tail_has_ten_samples_beyond_it():
    for n in (11, 400, 1000, 5000):
        values = list(range(n))
        beyond = sum(v > common.tail(values) for v in values)
        assert beyond >= 10
        assert beyond == 10 or beyond == n - int(0.99 * n) - 1
    assert common.tail([3.0, 1.0]) == 3.0
    assert common.tail([]) == 0.0


def test_benchmark_json_names_and_units():
    spec = run.load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in spec["workloads"]]:
        assert re.fullmatch(common.NAME_PATTERN, name), name
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Workloads shrunk to a tiny trace and a minimal number of repeats."""
    monkeypatch.setattr(pipeline, "COLD_SCALE", TINY_SCALE)
    monkeypatch.setattr(pipeline, "WARM_SCALE", TINY_SCALE)
    monkeypatch.setattr(pipeline, "COLD_SETUPS", 1)
    monkeypatch.setattr(pipeline, "WARM_SETUPS", 1)
    monkeypatch.setattr(pipeline, "MIN_PASSES", 1)
    monkeypatch.setattr(serve, "SERVE_SCALE", TINY_SCALE)
    monkeypatch.setattr(serve, "SERVE_SETUPS", 1)
    monkeypatch.setattr(serve, "READ_STEPS", (200, 400))

    def make_run(workload: str, trace: bool) -> pipeline.Run:
        return pipeline.Run(
            seed=3,
            seconds=2.0,
            tracer=common.Tracer(trace, workload),
            work=tmp_path / f"{workload}-{int(trace)}",
        )

    return make_run


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_printed_metrics_match_benchmark_json(tiny, workload, trace):
    spec = run.load_spec()
    runner = tiny(workload, trace)
    values = run.measure(workload, runner)
    metrics = run.assemble(workload, values, run.metric_table(spec, trace))
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(metrics) == [row["name"] for row in rows]
    for name, entry in metrics.items():
        assert re.fullmatch(common.NAME_PATTERN, name)
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in metrics.values()), metrics
    assert runner.problems == []
    assert runner.failed == 0 and runner.attempted > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
