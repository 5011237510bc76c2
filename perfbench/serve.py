"""The ``serve-mixed`` workload: the knowledge-base service under load.

The system under test is ``python -m repro serve --no-replay`` in its own
process.  This module is a single-process asyncio load generator with two
connections (no more than the machine has cores):

* **ingest phase** -- connection A sends the trace's canonical ingest
  stream (:func:`repro.serving.replay.iter_ingest_records`), one record per
  ``ingest`` request, at a fixed 300 records/s.  At the same time
  connection B sends an open-loop query mix at 50 queries/s.
* **read phase** -- after the stream has drained and one warm-up
  ``snapshot`` plus ``allocation_failure_risk`` per cloud, the query mix
  alone runs at fixed steps of 200, 400, 800 and 1600 queries/s, split
  over both connections.

Every request line is encoded during setup, and every latency is timed
from the moment the request was due, so a stall also delays the requests
queued behind it; how late the generator itself sent is reported too.  At
the end the served ``snapshot`` must be byte-identical to the batch
knowledge base built over the same ingested prefix.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from common import (
    ROOT,
    clock,
    cpu_seconds,
    median,
    peak_rss_mib,
    rss_mib,
    tail,
)
from pipeline import Run, generate, generation_layer, storage_layer

from repro.core.knowledge_base import WorkloadKnowledgeBase
from repro.management.prediction import AllocationFailurePredictor
from repro.serving.replay import iter_ingest_records, truncated_store
from repro.serving.service import KnowledgeBaseService, ServiceError
from repro.telemetry.io import load_trace, save_trace
from repro.telemetry.schema import Cloud

SERVE_SCALE = 0.12
INGEST_RATE = 300.0
INGEST_QPS = 50.0
READ_STEPS = (200, 400, 800, 1600)
#: The read step whose latencies are reported as ``serving.read.query.*``.
REPORT_STEP = 400
#: A read step is feasible when its tail stays under this and no backlog grows.
TAIL_LIMIT_MS = 10.0
SERVE_SETUPS = 2
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Seconds to wait for outstanding replies once a phase has sent everything.
REPLY_TIMEOUT_S = 30.0
#: Largest reply line (a snapshot carries the whole knowledge base).
STREAM_LIMIT = 1 << 26

#: Query mix and weights, the same as ``bench-serve``'s.  Copied, not
#: imported, so that retiring that harness cannot change this benchmark.
QUERY_MIX = (
    ("pattern_for_vm", 0.45),
    ("spot_eligibility", 0.20),
    ("allocation_failure_risk", 0.15),
    ("region_agnostic_candidates", 0.10),
    ("stats", 0.10),
)
#: Replies that mean "not ingested yet": misses in the ingest phase.
MISS_KINDS = ("not_found", "unavailable")
CLOUDS = ("private", "public")


# ----------------------------------------------------------------------
# request plans (built from the seed alone)
# ----------------------------------------------------------------------
def encode(rid: int, op: str, args: dict) -> bytes:
    return json.dumps({"op": op, "id": rid, "args": args}).encode() + b"\n"


def query_plan(
    rng: np.random.Generator,
    n: int,
    vm_ids,
    sub_ids,
    clouds=CLOUDS,
) -> list[tuple[str, dict]]:
    """``n`` deterministic ``(op, args)`` pairs drawn from :data:`QUERY_MIX`.

    An op with nothing to ask about (no VM, subscription or cloud) is left
    out of the mix.
    """
    needs = {
        "pattern_for_vm": vm_ids,
        "spot_eligibility": sub_ids,
        "allocation_failure_risk": clouds,
    }
    mix = [(name, w) for name, w in QUERY_MIX if len(needs.get(name, "any"))]
    names = [name for name, _ in mix]
    weights = np.array([w for _, w in mix])
    picks = rng.choice(len(names), size=n, p=weights / weights.sum())
    plan = []
    for pick in picks:
        op = names[pick]
        if op == "pattern_for_vm":
            args = {"vm_id": int(rng.choice(vm_ids))}
        elif op == "spot_eligibility":
            args = {"subscription_id": int(rng.choice(sub_ids))}
        elif op == "allocation_failure_risk":
            args = {
                "cloud": clouds[int(rng.integers(len(clouds)))],
                "load_fraction": float(np.round(rng.random(), 3)),
                "recent_creations": float(rng.integers(0, 50)),
            }
        else:
            args = {}
        plan.append((op, args))
    return plan


@dataclass
class Request:
    offset_s: float  # due time relative to the phase start
    rid: int
    op: str
    line: bytes


@dataclass
class Plan:
    """Everything the load generator sends, encoded before any timing."""

    records: list
    ingest: list[Request]
    ingest_queries: list[Request]
    read_steps: dict[int, list[Request]]
    #: The batch knowledge base over the ingested prefix (the oracle).
    expected_json: str
    clouds: tuple[str, ...]


def timed_requests(plan, rate: float, start_id: int) -> list[Request]:
    return [
        Request(i / rate, start_id + i, op, encode(start_id + i, op, args))
        for i, (op, args) in enumerate(plan)
    ]


def build_plan(seed: int, store, seconds: float) -> Plan:
    """Encode the ingest stream prefix and both query plans for ``seed``.

    Half of ``seconds`` is the ingest phase; the read steps share the rest.
    """
    ingest_s = seconds / 2.0
    step_s = seconds / (2.0 * len(READ_STEPS))
    records = list(islice(iter_ingest_records(store), int(INGEST_RATE * ingest_s)))
    targets = read_targets(truncated_store(store, len(records)))
    queries = query_plan(
        np.random.default_rng([seed, 1]),
        int(INGEST_QPS * ingest_s),
        store.vm_ids_with_utilization(),
        sorted(store.subscriptions),
    )
    steps = {}
    for k, rate in enumerate(READ_STEPS):
        plan = query_plan(
            np.random.default_rng([seed, 2, k]),
            int(rate * step_s),
            targets["vm_ids"],
            targets["sub_ids"],
            targets["clouds"],
        )
        steps[rate] = timed_requests(plan, rate, 2_000_000 + 1_000_000 * k)
    return Plan(
        records=records,
        ingest=timed_requests(
            [("ingest", {"records": [record.to_wire()]}) for record in records],
            INGEST_RATE,
            1,
        ),
        ingest_queries=timed_requests(queries, INGEST_QPS, 1_000_000),
        read_steps=steps,
        expected_json=targets["kb"].to_json(),
        clouds=targets["clouds"],
    )


def read_targets(prefix) -> dict:
    """VMs, subscriptions and clouds every read-phase query can answer.

    After the ingest prefix, a VM answers ``pattern_for_vm`` when it has
    telemetry over a non-empty observed window, a subscription answers
    ``spot_eligibility`` when it has a knowledge record, and a cloud answers
    ``allocation_failure_risk`` when its failure predictor can be fit.
    """
    kb = WorkloadKnowledgeBase.from_trace(prefix)
    period = prefix.metadata.sample_period
    duration = prefix.metadata.duration
    vm_ids = []
    for vm_id in prefix.vm_ids_with_utilization():
        vm = prefix.vm(vm_id)
        lo = int(np.ceil(max(vm.created_at, 0.0) / period))
        hi = int(np.floor(min(vm.ended_at, duration) / period))
        if hi > lo:
            vm_ids.append(vm_id)
    clouds = []
    for cloud in CLOUDS:
        try:
            AllocationFailurePredictor().fit(prefix, Cloud(cloud))
        except ValueError:
            continue
        clouds.append(cloud)
    sub_ids = [record.subscription_id for record in kb.subscriptions()]
    return {"kb": kb, "vm_ids": vm_ids, "sub_ids": sub_ids, "clouds": tuple(clouds)}


def snapshot_matches(reply_line: bytes, expected_json: str) -> bool:
    """Whether a wire ``snapshot`` reply carries exactly the batch KB bytes."""
    try:
        reply = json.loads(reply_line)
        records = reply["result"]["records"]
    except (ValueError, KeyError, TypeError):
        return False
    return reply.get("ok") is True and json.dumps(records, indent=2) == expected_json


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve --no-replay`` over a saved trace."""

    def __init__(self, trace_dir: Path, log: Path) -> None:
        self.log = log
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(log, "wb") as fh:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--no-replay",
                    "--trace", str(trace_dir), "--port", "0",
                ],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=fh,
            )
        self.host, self.port = self._wait_ready(timeout=120.0)

    def _wait_ready(self, timeout: float) -> tuple[str, int]:
        deadline = clock() + timeout
        marker = "serving workload knowledge base on "
        while clock() < deadline:
            for line in self.log.read_text(errors="replace").splitlines():
                if line.startswith(marker):
                    host, port = line[len(marker):].rsplit(":", 1)
                    return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
@dataclass
class Sample:
    phase: str
    op: str
    due: float
    latency_ms: float  # reply time minus due time
    late_ms: float  # send time minus due time
    kind: str  # "ok", an error kind, "timeout" or "transport"


class Connection:
    """One pipelined client connection; replies are matched by request id."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: dict[int, tuple[str, str, float, float]] = {}
        self.samples: list[Sample] = []
        self.lines: dict[int, bytes] = {}
        self.queue_depths: list[int] = []
        self.closed = False
        self._next_id = 9_000_000
        self._task = asyncio.create_task(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=STREAM_LIMIT)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                now = clock()
                reply = json.loads(line)
                entry = self.pending.pop(reply.get("id"), None)
                if entry is None:
                    continue
                phase, op, due, late = entry
                if reply.get("ok"):
                    kind = "ok"
                    if op == "stats":
                        self.queue_depths.append(reply["result"]["queue_depth"])
                else:
                    kind = reply.get("error", {}).get("kind", "error")
                if op == "snapshot":
                    self.lines[reply["id"]] = line
                self.samples.append(
                    Sample(phase, op, due, (now - due) * 1e3, late * 1e3, kind)
                )
        except (ConnectionError, ValueError, asyncio.IncompleteReadError):
            pass
        finally:
            self.closed = True

    def _submit(self, phase: str, req: Request, due: float) -> None:
        self.pending[req.rid] = (phase, req.op, due, clock() - due)
        self.writer.write(req.line)

    async def send(self, phase: str, requests: list[Request], t0: float) -> None:
        """Send each request at ``t0 + offset`` whether or not replies came."""
        for req in requests:
            due = t0 + req.offset_s
            wait = due - clock()
            # Sleep until due; when behind, still yield so replies are read.
            await asyncio.sleep(max(0.0, wait))
            if self.closed:
                break
            self._submit(phase, req, due)
            await self.writer.drain()

    async def settle(self, timeout: float = REPLY_TIMEOUT_S) -> None:
        """Wait for outstanding replies; what is left counts as failed."""
        deadline = clock() + timeout
        while self.pending and not self.closed and clock() < deadline:
            await asyncio.sleep(0.002)
        kind = "transport" if self.closed else "timeout"
        for phase, op, due, late in self.pending.values():
            self.samples.append(Sample(phase, op, due, float("inf"), late * 1e3, kind))
        self.pending.clear()

    async def call(self, phase: str, op: str, args: dict | None = None) -> int:
        """One request sent now and awaited; returns its id."""
        self._next_id += 1
        rid = self._next_id
        self._submit(phase, Request(0.0, rid, op, encode(rid, op, args or {})), clock())
        await self.writer.drain()
        await self.settle()
        return rid

    def last(self) -> Sample:
        return self.samples[-1]

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


@dataclass
class Session:
    samples: list[Sample] = field(default_factory=list)
    queue_depths: list[int] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    server_rss_mib: dict = field(default_factory=dict)
    snapshot_lines: list[bytes] = field(default_factory=list)


async def drive(plan: Plan, server: "Server", tracer) -> Session:
    """Run both phases against a started server."""
    pid = server.proc.pid
    conns = [await Connection.open(server.host, server.port) for _ in range(CONNECTIONS)]
    ingest_conn, query_conn = conns[0], conns[-1]
    out = Session()
    try:
        cpu0 = cpu_seconds(pid)
        t0 = clock() + 0.05
        with tracer.span("serving.ingest_phase"):
            await asyncio.gather(
                ingest_conn.send("ingest", plan.ingest, t0),
                query_conn.send("ingest", plan.ingest_queries, t0),
            )
            for conn in conns:
                await conn.settle()
        out.server_rss_mib["ingest"] = rss_mib(pid)
        with tracer.span("serving.drain"):
            while True:
                await query_conn.call("drain", "stats")
                if query_conn.last().kind != "ok" or query_conn.queue_depths[-1] == 0:
                    break
                await asyncio.sleep(0.005)
            rid = await query_conn.call("warmup", "snapshot")
        # The stream is fully queryable once this snapshot has been answered.
        out.wall_s = clock() - t0
        out.snapshot_lines.append(query_conn.lines.get(rid, b""))
        with tracer.span("serving.warmup"):
            for cloud in plan.clouds:
                await query_conn.call(
                    "warmup",
                    "allocation_failure_risk",
                    {"cloud": cloud, "load_fraction": 0.5, "recent_creations": 1.0},
                )
        for rate, requests in plan.read_steps.items():
            phase = f"read_{rate}"
            with tracer.span(f"serving.{phase}"):
                start = clock() + 0.02
                await asyncio.gather(
                    *(
                        conn.send(phase, requests[i :: len(conns)], start)
                        for i, conn in enumerate(conns)
                    )
                )
                for conn in conns:
                    await conn.settle()
        out.server_rss_mib["read"] = rss_mib(pid)
        with tracer.span("serving.final_snapshot"):
            rid = await query_conn.call("final", "snapshot")
        out.snapshot_lines.append(query_conn.lines.get(rid, b""))
        out.cpu_s = cpu_seconds(pid) - cpu0
    finally:
        for conn in conns:
            await conn.close()
    for conn in conns:
        out.samples.extend(conn.samples)
        out.queue_depths.extend(conn.queue_depths)
    return out


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def failures(samples: list[Sample]) -> tuple[int, int]:
    """``(failed, misses)``: misses are only allowed while ingest runs."""
    failed = misses = 0
    for s in samples:
        if s.kind == "ok":
            continue
        if s.phase == "ingest" and s.op != "ingest" and s.kind in MISS_KINDS:
            misses += 1
        else:
            failed += 1
    return failed, misses


def latencies(samples, phase: str, op: str | None = None) -> list[float]:
    """Answered latencies of one phase: of ``op``, or of every query."""
    return [
        s.latency_ms
        for s in samples
        if s.phase == phase
        and s.latency_ms != float("inf")
        and (s.op == op if op is not None else s.op != "ingest")
    ]


def step_feasible(samples, rate: int) -> bool:
    """Tail under the limit, no failures and no backlog still growing."""
    step = sorted((s for s in samples if s.phase == f"read_{rate}"), key=lambda s: s.due)
    if not step or any(s.kind != "ok" for s in step):
        return False
    lat = [s.latency_ms for s in step]
    last = lat[-max(1, len(lat) // 10) :]
    return tail(lat) <= TAIL_LIMIT_MS and median(last) <= TAIL_LIMIT_MS


def serving_layer(session: Session) -> dict:
    samples = session.samples
    report = f"read_{REPORT_STEP}"
    ops = [name for name, _ in QUERY_MIX]
    metrics = {
        "serving.ingest.query.p50_ms": median(latencies(samples, "ingest")),
        "serving.ingest.query.tail_ms": tail(latencies(samples, "ingest")),
        "serving.ingest.ack.p50_ms": median(latencies(samples, "ingest", "ingest")),
        "serving.ingest.ack.tail_ms": tail(latencies(samples, "ingest", "ingest")),
        "serving.read.query.p50_ms": median(latencies(samples, report)),
        "serving.read.query.tail_ms": tail(latencies(samples, report)),
        "serving.read.max_qps": max(
            [rate for rate in READ_STEPS if step_feasible(samples, rate)], default=0
        ),
        "serving.misses": failures(samples)[1],
        "serving.queue_depth_max": max(session.queue_depths, default=0),
        "serving.ingest.generator_late_tail_ms": tail(
            [s.late_ms for s in samples if s.phase == "ingest"]
        ),
        "serving.read.generator_late_tail_ms": tail(
            [s.late_ms for s in samples if s.phase.startswith("read_")]
        ),
        "serving.ingest.server_rss_mib": session.server_rss_mib["ingest"],
        "serving.read.server_rss_mib": session.server_rss_mib["read"],
    }
    for phase, label in (("ingest", "ingest"), (report, "read")):
        for op in ops:
            lat = latencies(samples, phase, op) or [0.0]
            metrics[f"serving.{label}.{op}.p50_ms"] = median(lat)
            metrics[f"serving.{label}.{op}.tail_ms"] = tail(lat)
    return metrics


def in_process_layer(run: Run, store, plan: Plan) -> dict:
    """Replay the ingested batches in-process to time apply, refresh, refit."""
    service = KnowledgeBaseService.for_trace(store)
    with run.tracer.span("serving.apply") as apply_span:
        for record in plan.records:
            service.apply_records([record])
    with run.tracer.span("serving.refresh") as refresh_span:
        refreshed = service.refresh()
    with run.tracer.span("serving.refit") as refit_span:
        for cloud in CLOUDS:
            try:
                service.allocation_failure_risk(cloud, 0.5, 1.0)
            except ServiceError:
                pass  # a cloud without failures yet has no predictor to fit
    prefix = truncated_store(store, len(plan.records))
    with run.tracer.span("core.kb_build") as kb_span:
        kb = WorkloadKnowledgeBase.from_trace(prefix)
    return {
        "serving.apply_s": apply_span["wall_s"],
        "serving.refresh_s": refresh_span["wall_s"],
        "serving.refresh_subscriptions": refreshed,
        "serving.refit_s": refit_span["wall_s"],
        "core.kb_build_s": kb_span["wall_s"],
        "core.kb_records": len(kb),
    }


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def serve_setup(run: Run, index: int):
    """Generate and save the trace, encode the plan, start the server."""
    directory = run.work / f"serve{index}"
    with run.tracer.span("setup") as setup_span:
        start = run.mark()
        store, generate_s = generate(run, SERVE_SCALE)
        with run.stage("telemetry.save"):
            save_trace(store, directory / "trace")
        with run.stage("plan"):
            plan = build_plan(run.seed, store, run.seconds)
        with run.stage("serving.start"):
            server = Server(directory / "trace", directory / "server.log")
        seconds = run.mark() - start
    return seconds, store, plan, server, setup_span, generate_s


def serve_mixed(run: Run) -> dict:
    traced = run.tracer.enabled
    setup_times = []
    generate_times = []
    server = None
    try:
        for index in range(SERVE_SETUPS):
            if server is not None:
                server.stop()
            last = index == SERVE_SETUPS - 1
            # In the traced run only the last setup is traced, so the first
            # one is the untraced reference for the tracing overhead.
            run.tracer.enabled = traced and last
            seconds, store, plan, server, setup_span, generate_s = serve_setup(run, index)
            setup_times.append(seconds)
            generate_times.append(generate_s)
        run.tracer.enabled = traced
        with run.tracer.span("session") as session_span:
            session = asyncio.run(drive(plan, server, run.tracer))
        peak = peak_rss_mib(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    for rate in READ_STEPS:
        lat = latencies(session.samples, f"read_{rate}")
        print(
            f"read step {rate}/s: p50 {median(lat):.2f} ms, tail {tail(lat):.2f} ms "
            f"over {len(lat)}, feasible {step_feasible(session.samples, rate)}",
            file=sys.stderr,
        )
    failed, _misses = failures(session.samples)
    run.attempted += len(session.samples)
    run.failed += failed
    for line in session.snapshot_lines:
        if not snapshot_matches(line, plan.expected_json):
            run.problems.append(
                "served snapshot differs from the batch knowledge base "
                f"over the first {len(plan.records)} ingested records"
            )
    if not traced:
        return {
            "setup_s": median(setup_times),
            "wall_s": session.wall_s,
            "peak_rss_mib": peak,
            "latency_p50_ms": median(latencies(session.samples, f"read_{REPORT_STEP}")),
        }

    directory = run.work / f"serve{SERVE_SETUPS - 1}" / "trace"
    with run.tracer.span("telemetry.load") as load_span:
        load_trace(directory)
    metrics = storage_layer(store, directory)
    run.layer.update(metrics)
    metrics.update(generation_layer(run, SERVE_SCALE, generate_times))
    metrics["telemetry.save_s"] = run.tracer.child_wall(setup_span, "telemetry.save")
    metrics["telemetry.load_s"] = load_span["wall_s"]
    metrics.update(serving_layer(session))
    metrics["serving.server_cpu_s"] = session.cpu_s
    metrics.update(in_process_layer(run, store, plan))
    metrics["trace.overhead_ratio"] = setup_times[-1] / setup_times[0]
    metrics["trace.unattributed_s"] = run.tracer.unattributed_s(session_span)
    return metrics
