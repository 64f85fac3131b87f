"""``http-mixed``: a seeded query corpus over real keep-alive HTTP.

The server is ``python -m repro serve --snapshot <cached v2>`` (dict
backend) in a subprocess; a traced run starts it through
``serve_traced.py`` instead.  ``setup_s`` is the median of
:data:`common.SETUPS` starts, each from spawning the process to
``/healthz`` answering and calibrated (``calibrate.py``); so is each
open-loop request's latency.  Load comes from
this one process, with at most ``nproc`` threads, each owning one
connection:

1. an open loop of at least :data:`OPEN_LOOP_MIN` requests at the fixed
   rate :data:`OPEN_LOOP_QPS` (about half of the closed-loop throughput of
   the program this benchmark was first written against), each timed from
   its scheduled send time;
2. a closed loop over ``nproc`` connections for ``--seconds``.

Requests are drawn Zipf-skewed from more distinct (query, parameters) keys
than the server's 256-entry result cache holds; 1 % are writes that set a
benchmark-owned property on an ``AS`` and so retire the version-keyed
cache.  After the load, a seeded sample of reads is checked against the
in-process engine on the same snapshot.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Any

import calibrate
import corpus
import tracing
from calibrate import Calibrator
from common import (
    BENCH_DIR, OUT_DIR, ROOT, SETUPS, SRC, cached_snapshot, check, median,
    percentile, rows_multiset, vm_hwm_mb,
)

OPEN_LOOP_QPS = 22.0
OPEN_LOOP_MIN = 1000
#: Distinct read keys per corpus category: 6 x 171 = 1026 keys, four times
#: the server's 256-entry result cache.
READS_PER_CATEGORY = 171
#: Zipf exponent of key popularity within a category.  An assumption, like
#: the equal category shares (see corpus.py): the classic Zipf law, under
#: which the cache hits some requests but not most (BENCHMARK.md).
ZIPF_S = 1.0
WRITE_FRACTION = 0.01
CHECK_SAMPLE = 60
START_TIMEOUT = 60.0


class Server:
    """One ``repro serve`` subprocess on a free local port."""

    def __init__(self, snapshot, spans_path=None) -> None:
        args = ["serve", "--snapshot", str(snapshot), "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                       str(spans_path), *args]
        # Unbuffered, so the "Serving ... on http://host:port" line arrives
        # while the server runs rather than when it exits.
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": "1"}
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        # A reader thread drains the output for the server's whole life, so
        # the wait for the port line can time out and a full pipe never
        # blocks the server.
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read_output, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port(started)
            self._await_health(started)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def _read_output(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self, started: float) -> int:
        output = []
        while True:
            remaining = START_TIMEOUT - (time.perf_counter() - started)
            try:
                line = self._lines.get(timeout=max(remaining, 0.001))
            except queue.Empty:
                raise RuntimeError(
                    "server did not start:\n" + "".join(output)) from None
            if line is None:
                raise RuntimeError("server exited before serving:\n" + "".join(output))
            output.append(line)
            match = re.search(r"on http://[\d.]+:(\d+)", line)
            if match:
                return int(match.group(1))

    def _await_health(self, started: float) -> None:
        while time.perf_counter() - started < START_TIMEOUT:
            try:
                status, _ = get(self.port, "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)
        self.process.stdout.close()


def get(port: int, path: str) -> tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class Client:
    """One keep-alive connection posting ``/query`` requests."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def query(self, query: corpus.Query) -> tuple[int, dict[str, Any], int]:
        body = json.dumps({"query": query.text, "parameters": query.params}).encode()
        self.conn.request("POST", "/query", body, {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        payload = response.read()
        return response.status, json.loads(payload), len(payload)

    def close(self) -> None:
        self.conn.close()


def open_loop(port: int, stream: list[corpus.Query], rate: float,
              workers: int) -> list[dict[str, Any]]:
    """Send ``stream[i]`` at ``start + i / rate``; latency runs from then.

    After each response its worker runs the reference loop, while the
    connections idle until the next send; ``factor`` calibrates the
    request by that probe and the worker's previous one (``calibrate.py``).
    """
    records: list[dict[str, Any]] = [{} for _ in stream]
    lock = threading.Lock()
    cursor = iter(range(len(stream)))
    first_probe = calibrate.probe()
    start = time.perf_counter() + 0.1

    def worker() -> None:
        client = Client(port)
        last_probe = first_probe
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + index / rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                record = _send(client, stream[index], due)
                this_probe = calibrate.probe()
                record["factor"] = calibrate.REFERENCE_S / (
                    (last_probe + this_probe) / 2)
                last_probe = this_probe
                records[index] = record
        finally:
            client.close()

    _run_threads(worker, workers)
    return records


def closed_loop(port: int, stream: list[corpus.Query], seconds: float,
                workers: int) -> tuple[list[dict[str, Any]], float]:
    """Each connection sends its next request when the last one returns."""
    records: list[dict[str, Any]] = []
    lock = threading.Lock()
    cursor = iter(range(len(stream)))
    start = time.perf_counter()

    def worker() -> None:
        client = Client(port)
        try:
            while time.perf_counter() - start < seconds:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                record = _send(client, stream[index], time.perf_counter())
                with lock:
                    records.append(record)
        finally:
            client.close()

    _run_threads(worker, workers)
    return records, time.perf_counter() - start


def _send(client: Client, query: corpus.Query, due: float) -> dict[str, Any]:
    sent = time.perf_counter()
    try:
        status, body, size = client.query(query)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        return {"category": query.category, "ok": False, "error": repr(exc),
                "due": due, "sent": sent, "done": time.perf_counter()}
    done = time.perf_counter()
    meta = body.get("meta", {}) if isinstance(body, dict) else {}
    return {"category": query.category, "ok": status == 200, "status": status,
            "due": due, "sent": sent, "done": done, "bytes": size,
            "elapsed_ms": meta.get("elapsed_ms", 0.0),
            "trace_id": meta.get("trace_id"),
            "properties_set": body.get("stats", {}).get("properties_set")
            if isinstance(body, dict) else None}


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run(opts: Any) -> dict[str, Any]:
    from repro.cypher import CypherEngine
    from repro.graphdb.snapshot import load_snapshot
    from repro.server.app import encode_result

    path = cached_snapshot(opts.world_seed)
    workers = max(1, os.cpu_count() or 1)
    store = load_snapshot(path)
    generator = corpus.CorpusGenerator(store, opts.seed)
    reads = generator.reads(READS_PER_CATEGORY)
    open_count = max(OPEN_LOOP_MIN, int(OPEN_LOOP_QPS * opts.seconds))
    open_stream = generator.stream(reads, open_count, ZIPF_S, WRITE_FRACTION)
    closed_stream = generator.stream(reads, 50_000, ZIPF_S, WRITE_FRACTION)
    sample = random.Random(opts.seed).sample(reads, CHECK_SAMPLE)

    spans_path = None
    if opts.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"http-mixed-seed{opts.seed}-server.spans.json"
        spans_path.unlink(missing_ok=True)
    # Each start is calibrated like the other workloads' set-ups, by the
    # reference loop run in this process on either side of it.
    clock = Calibrator()
    setup_times, setup_wall = [], []
    for start in range(SETUPS):
        clock.reprobe()
        with clock.timed(probe_inside=False) as timing:
            server = Server(path, spans_path if start == SETUPS - 1 else None)
        setup_times.append(server.start_s * timing.factor)
        setup_wall.append(server.start_s)
        if start < SETUPS - 1:
            server.stop()
    try:
        opened = open_loop(server.port, open_stream, OPEN_LOOP_QPS, workers)
        if opts.trace:
            closed_traced, traced_s = closed_loop(server.port, closed_stream,
                                                  opts.seconds / 2, workers)
            server.signal(signal.SIGUSR1)  # recording off
            time.sleep(0.2)
        closed, closed_s = closed_loop(server.port, closed_stream, opts.seconds,
                                       workers)
        _, stats = get(server.port, "/stats")
        _, statements = get(server.port, "/debug/statements")
        checker = Client(server.port)
        try:
            served = [(q, checker.query(q)) for q in sample]
        finally:
            checker.close()
        rss = vm_hwm_mb(server.process.pid)
    finally:
        server.stop()

    engine = CypherEngine(store)
    for query, (status, body, _size) in served:
        check(status == 200, f"{query.text} {query.params}: HTTP {status}")
        local = encode_result(engine.run(query.text, query.params))
        local = json.loads(json.dumps(local))  # the types JSON gives the client
        check(rows_multiset(body["rows"]) == rows_multiset(local["rows"]),
              f"HTTP rows differ from the in-process engine: {query.text} "
              f"{query.params}")
    for record in opened + closed:
        if record["ok"] and record["category"] == "write":
            check(record["properties_set"] == 1, "a write did not set its property")

    done = [r for r in opened if r["ok"]]
    latency = [1000 * (r["done"] - r["due"]) * r["factor"] for r in done]
    wall_latency = [1000 * (r["done"] - r["due"]) for r in done]
    late = [1000 * max(0.0, r["sent"] - r["due"]) for r in opened]
    decile = max(1, len(late) // 10)
    throughput = sum(r["ok"] for r in closed) / closed_s
    attempted = len(opened) + len(closed)
    failed = sum(not r["ok"] for r in opened + closed)
    result = {
        "e2e": {
            "setup_s": median(setup_times),
            "op_p50_ms": median(latency),
            "throughput_per_s": throughput,
            "peak_rss_mb": rss,
        },
        "named": {
            "query_p50_ms": median(latency),
            "query_p99_ms": percentile(latency, 99),
            "throughput_qps": throughput,
        },
        "attempted": attempted,
        "failed": failed,
        "record": {
            "setup_s_samples": setup_times,
            "setup_wall_s_samples": setup_wall,
            "open_loop_rate_qps": OPEN_LOOP_QPS,
            "open_loop_requests": len(opened),
            "closed_loop_requests": len(closed),
            "closed_loop_connections": workers,
            "distinct_read_keys": len(reads),
            "loadgen_late_p99_ms": percentile(late, 99),
            "loadgen_late_first_decile_mean_ms": sum(late[:decile]) / decile,
            "loadgen_late_last_decile_mean_ms": sum(late[-decile:]) / decile,
            "samples": {"op_p50_ms": len(latency),
                        "query_p99_ms": len(latency),
                        "throughput_per_s": len(closed)},
            "checked_reads": len(served),
            "open_loop_latency_ms": {
                f"p{q}": percentile(latency, q)
                for q in (10, 25, 50, 75, 90, 95, 98, 99, 99.5, 100)},
            "open_loop_wall_latency_ms": {
                f"p{q}": percentile(wall_latency, q) for q in (50, 99)},
        },
    }
    if opts.trace:
        spans = json.loads(spans_path.read_text())
        traced_qps = sum(r["ok"] for r in closed_traced) / traced_s
        result["layer"] = _layers(opened, closed, spans, stats, statements, late,
                                  throughput / traced_qps - 1 if traced_qps else 0.0)
        result["spans"] = spans  # joined: client spans plus the server's
    return result


def _transport_ms(records: list[dict[str, Any]]) -> list[float]:
    """Client round trip minus the server's own ``meta.elapsed_ms``."""
    return [1000 * (r["done"] - r["sent"]) - r["elapsed_ms"]
            for r in records if r["ok"]]


def _layers(opened, closed, spans, stats, statements, late, overhead) -> dict:
    done = [r for r in opened if r["ok"]]
    out: dict[str, float] = {}
    # Back to back on a keep-alive connection (the closed loop) is where
    # the transport's own delays show; the open loop's idle gaps hide them.
    back_to_back = _transport_ms(closed)
    out["http.overhead_p50_ms"] = median(back_to_back)
    out["http.overhead_p99_ms"] = percentile(back_to_back, 99)
    out["http.open_loop_overhead_p50_ms"] = median(_transport_ms(opened))
    out["http.response_bytes_p50"] = median(r["bytes"] for r in done)
    by_category = defaultdict(list)
    for r in done:
        by_category[r["category"]].append(1000 * (r["done"] - r["due"]))
    for category in corpus.CATEGORIES:
        out[f"http.{category}_p50_ms"] = median(by_category[category])
    out["loadgen.late_p99_ms"] = percentile(late, 99)

    result_cache, parse_cache = stats["result_cache"], stats["parse_cache"]
    out["cache.hit_ratio"] = result_cache["hit_rate"]
    out["parse.cache_hit_ratio"] = parse_cache["hit_rate"]
    out["admission.rejected"] = stats["admission"]["rejected"]
    examined = rows = 0
    for stmt in statements["statements"]:
        counters = stmt["counters"]
        examined += counters.get("nodes_scanned", 0) + counters.get("rels_expanded", 0)
        rows += stmt["rows"]
    out["match.rows_examined_per_row"] = examined / rows if rows else 0.0

    # Join: each server-side root span hangs under the client span of the
    # request whose meta.trace_id it carries.
    clients = {}
    for index, r in enumerate(done):
        if r["trace_id"] is not None:
            span_id = -(index + 1)
            clients[r["trace_id"]] = span_id
            spans.append([span_id, None, "http.request", r["sent"], r["done"],
                          r["done"] - r["sent"], r["trace_id"]])
    for span in spans:
        if span[tracing.PARENT] is None and span[tracing.NAME] != "http.request":
            span[tracing.PARENT] = clients.get(span[tracing.REQUEST])
    roots = set(clients.values())
    scoped = tracing.descendants_of(spans, roots)
    own = tracing.self_times(scoped)

    def busy(name: str) -> list[float]:
        return [s[tracing.BUSY] for s in scoped if s[tracing.NAME] == name]

    serialize = defaultdict(float)
    for span in scoped:
        if span[tracing.NAME] in ("serialize.encode", "serialize.json"):
            serialize[span[tracing.REQUEST]] += span[tracing.BUSY]
    out["serialize_ms"] = 1000 * median(serialize.values())
    out["admission.wait_p99_ms"] = 1000 * percentile(busy("admission.slot"), 99)
    out["parse_ms"] = 1000 * median(busy("cypher.parse"))
    out["plan_ms"] = 1000 * median(busy("cypher.plan"))
    out["project_ms"] = 1000 * median(
        own[s[tracing.ID]] for s in scoped if s[tracing.NAME] == "engine.run")
    out["trace.overhead_frac"] = overhead
    out.update(tracing.breakdown(scoped, "http.request", len(roots)))
    return out
