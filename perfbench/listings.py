"""``paper-listings``: the paper's Listings 1-6 through in-process
``QueryService.execute``, one closed-loop client, dict and columnar stores.

Set-up (timed as ``setup_s``, :data:`common.SETUPS` times, median): load
the cached v2 snapshot, build the columnar copy with
``ColumnarGraphStore.from_store``, start one ``QueryService`` per backend.
One untimed warm-up pass per backend follows, then timed rounds -- a
six-listing pass on the dict backend, then one on the columnar backend --
until ``--seconds`` have passed and at least :data:`MIN_ROUNDS` rounds ran.
The result cache is cleared before every call, so every call executes.
Every set-up and every listing call is timed against the reference loop
run around and inside it (``calibrate.py``); the gated times are the
calibrated ones, and the wall times go into the run record.  A traced run
takes no probes: its layer times are walls.
``peak_rss_mb`` is restarted before the timed rounds and read straight
after them, so it covers the serving work, not the set-ups that came
before (each frees the last one's stores, but leaves its high-water
mark behind).  Only then is
every listing checked against the naive executor and across backends, and
Listing 6 against sqlite3, so the checks' own memory never sets the peak.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Any

import tracing
import yardstick
from calibrate import Calibrator
from common import (
    SETUPS, CheckFailed, cached_snapshot, check, median, rows_multiset,
    reset_peak_rss, vm_hwm_mb,
)

#: Timed rounds a run makes at least, however short ``--seconds`` is.
MIN_ROUNDS = 8
BACKENDS = ("dict", "columnar")


def _setup(path, rec):
    from repro.columnar import ColumnarGraphStore
    from repro.graphdb.snapshot import load_snapshot
    from repro.server import QueryService

    with tracing.maybe_span(rec, "snapshot.load"):
        store = load_snapshot(path)
    with tracing.maybe_span(rec, "columnar.from_store"):
        columnar = ColumnarGraphStore.from_store(store)
    services = {}
    for backend, backing in zip(BACKENDS, (store, columnar)):
        with tracing.maybe_span(rec, "service.init"):
            services[backend] = QueryService(backing)
    return store, services


def run(opts: Any) -> dict[str, Any]:
    from repro.cypher import CypherEngine
    from repro.server.app import encode_result
    from repro.studies import queries

    listings = [(n, getattr(queries, f"LISTING_{n}")) for n in range(1, 7)]
    path = cached_snapshot(opts.world_seed)
    rec = tracing.Recorder() if opts.trace else None
    patches = tracing.install(rec, "query") if rec is not None else []
    try:
        clock = Calibrator(probing=rec is None)
        setup_times, setup_wall = [], []
        store = services = None
        for _ in range(SETUPS):
            store = services = None
            gc.collect()
            clock.reprobe()
            with clock.timed() as timing:
                store, services = _setup(path, rec)
            setup_times.append(timing.calibrated)
            setup_wall.append(timing.wall)

        organizations = sorted(store.node_property(node, "name")
                               for node in store.label_ids("Organization"))
        org_name = random.Random(opts.seed).choice(organizations)

        def params(n: int) -> dict[str, Any] | None:
            return {"org_name": org_name} if n == 3 else None

        failed = attempted = 0

        def one_pass(backend: str, tag: str,
                     calls: Calibrator) -> tuple[dict[int, Any], float, float]:
            """The six listings on one backend: rows, wall and calibrated s."""
            nonlocal failed, attempted
            service = services[backend]
            bodies: dict[int, Any] = {}
            wall = calibrated = 0.0
            calls.reprobe()
            for n, text in listings:
                service.cache.clear()
                attempted += 1
                with calls.timed() as timing, \
                        tracing.maybe_span(rec, "listing", f"L{n}.{backend}.{tag}"):
                    try:
                        bodies[n] = service.execute(text, params(n))
                    except Exception as exc:  # counted; the checks then fail
                        failed += 1
                        bodies[n] = exc
                wall += timing.wall
                calibrated += timing.calibrated
            return bodies, wall, calibrated

        # Warm-up: one untimed pass per backend; these are the rows checked.
        reference: dict[str, dict[int, Any]] = {}
        for backend in BACKENDS:
            bodies, _, _ = one_pass(backend, "warmup", clock)
            reference[backend] = {n: _rows(body, n) for n, body in bodies.items()}
        warm_attempts, warm_failed = attempted, failed

        # Timed rounds; a traced run alternates untraced and traced rounds.
        rounds: list[dict[str, float]] = []
        traced_rounds: list[dict[str, float]] = []
        expected = {b: {n: rows_multiset(rows) for n, rows in reference[b].items()}
                    for b in BACKENDS}
        reset_peak_rss()
        window = time.perf_counter()
        while (time.perf_counter() - window < opts.seconds
               or len(rounds) + len(traced_rounds) < MIN_ROUNDS
               or (rec is not None and not (rounds and traced_rounds))):
            tracing_on = rec is not None and len(rounds) > len(traced_rounds)
            if rec is not None:
                rec.enabled = tracing_on
            tag = str(len(rounds) + len(traced_rounds))
            times: dict[str, float] = {}
            gc.collect()  # every round starts from the same collector state
            with tracing.maybe_span(rec, "listings.round", tag):
                for backend in BACKENDS:
                    bodies, times[f"{backend}_wall"], times[backend] = one_pass(
                        backend, tag, clock)
                    _check_pass(bodies, expected[backend], backend)
            (traced_rounds if tracing_on else rounds).append(times)
        peak_rss = vm_hwm_mb()
        if rec is not None:
            rec.enabled = True
        attempted -= warm_attempts
        failed -= warm_failed

        naive = CypherEngine(store, optimize=False)
        for n, text in listings:
            oracle = rows_multiset(encode_result(naive.run(text, params(n)))["rows"])
            for backend in BACKENDS:
                check(rows_multiset(reference[backend][n]) == oracle,
                      f"Listing {n} on {backend} differs from the naive executor")
        db = yardstick.load(store)
        sql_times = []
        for _ in range(3):
            groups, elapsed = yardstick.listing6(db)
            sql_times.append(elapsed)
        db.close()
        check(groups == yardstick.as_groups(reference["dict"][6]),
              "Listing 6 differs between the engine and sqlite3")

        round_ms = [1000 * (r["dict"] + r["columnar"]) for r in rounds]
        timed = sum(round_ms) / 1000
        result = {
            "e2e": {
                "setup_s": median(setup_times),
                "op_p50_ms": median(round_ms),
                "throughput_per_s": len(rounds) * len(BACKENDS) * len(listings) / timed,
                "peak_rss_mb": peak_rss,
            },
            "named": {
                "listings_dict_s": median(r["dict"] for r in rounds),
                "listings_columnar_s": median(r["columnar"] for r in rounds),
            },
            "attempted": attempted,
            "failed": failed,
            "record": {
                "setup_s_samples": setup_times,
                "setup_wall_s_samples": setup_wall,
                "reference_probe_ms": 1000 * median(clock.probes),
                "reference_probes": len(clock.probes),
                "rounds": rounds,
                "listing3_org": org_name,
                "yardstick_sqlite_listing6_ms": 1000 * median(sql_times),
                "samples": {"op_p50_ms": len(round_ms)},
            },
        }
        if rec is not None:
            result["layer"] = _layers(rec.spans, services, traced_rounds, rounds,
                                      1000 * median(sql_times), listings)
            result["record"]["traced_rounds"] = traced_rounds
            result["spans"] = rec.spans
        return result
    finally:
        tracing.uninstall(patches)


def _rows(body: Any, n: int) -> list[list[Any]]:
    if isinstance(body, Exception):
        raise CheckFailed(f"Listing {n} failed: {body}")
    return body["rows"]


def _check_pass(bodies: dict[int, Any], expected: dict[int, Any], backend: str) -> None:
    for n, body in bodies.items():
        if isinstance(body, Exception):
            continue  # counted as failed
        check(rows_multiset(body["rows"]) == expected[n],
              f"Listing {n} on {backend} returned other rows than in its warm-up")


def _layers(spans, services, traced_rounds, rounds, sql_ms, listings) -> dict:
    round_ids = {s[tracing.ID] for s in spans if s[tracing.NAME] == "listings.round"}
    timed_spans = tracing.descendants_of(spans, round_ids)

    def busy(name: str, scope: list) -> list[float]:
        return [s[tracing.BUSY] for s in scope if s[tracing.NAME] == name]

    out: dict[str, float] = {}
    match_ms: dict[str, float] = {}
    for span in timed_spans:
        if span[tracing.NAME] == "cypher.match":
            request = span[tracing.REQUEST]
            match_ms[request] = match_ms.get(request, 0.0) + 1000 * span[tracing.BUSY]
    for n, _text in listings:
        for backend in BACKENDS:
            prefix = f"L{n}.{backend}."
            out[f"match.listing{n}.{backend}_ms"] = median(
                v for request, v in match_ms.items() if request.startswith(prefix))
    own = tracing.self_times(timed_spans)
    # Parsing happens once per query text and engine, in the warm-up.
    out["parse_ms"] = 1000 * median(busy("cypher.parse", spans))
    out["plan_ms"] = 1000 * median(busy("cypher.plan", timed_spans))
    out["project_ms"] = 1000 * median(
        own[s[tracing.ID]] for s in timed_spans if s[tracing.NAME] == "engine.run")
    out["serialize_ms"] = 1000 * median(busy("serialize.encode", timed_spans))
    out["columnar.from_store_s"] = median(busy("columnar.from_store", spans))
    out["snapshot.load_s"] = median(busy("snapshot.load", spans))
    out["service.init_s"] = median(busy("service.init", spans))

    hits = lookups = parse_hits = parse_lookups = 0
    examined = rows = examined6 = rows6 = 0
    for service in services.values():
        info = service.cache.info()
        hits += info["hits"]
        lookups += info["hits"] + info["misses"]
        parse = service.engine.parse_cache_info()
        parse_hits += parse["hits"]
        parse_lookups += parse["hits"] + parse["misses"]
        listing6 = service.engine.fingerprint(listings[5][1])[0]
        for stmt in service.statements_snapshot()["statements"]:
            counters = stmt["counters"]
            scanned = (counters.get("nodes_scanned", 0)
                       + counters.get("rels_expanded", 0))
            examined += scanned
            rows += stmt["rows"]
            if stmt["fingerprint"] == listing6:
                examined6 += scanned
                rows6 += stmt["rows"]
    out["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["parse.cache_hit_ratio"] = parse_hits / parse_lookups if parse_lookups else 0.0
    out["match.rows_examined_per_row"] = examined / rows if rows else 0.0
    out["match.listing6.rows_examined_per_row"] = examined6 / rows6 if rows6 else 0.0
    for backend, service in services.items():
        memory = service.store.memory_info()["total_bytes"]
        out[f"store.{backend}_memory_mb"] = memory / 2**20
    out["yardstick.sqlite_listing6_ms"] = sql_ms

    untraced = median(r["dict_wall"] + r["columnar_wall"] for r in rounds)
    traced = median(r["dict_wall"] + r["columnar_wall"] for r in traced_rounds)
    out["trace.overhead_frac"] = traced / untraced - 1 if untraced else 0.0
    out.update(tracing.breakdown(timed_spans, "listings.round", len(traced_rounds)))
    return out
