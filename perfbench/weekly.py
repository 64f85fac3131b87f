"""``weekly-build``: the operator's week, with no HTTP in the way.

Set-up (timed as ``setup_s``, :data:`common.SETUPS` times, median)
generates the synthetic world.  Week 2's world is the same with
:data:`CHURN_FRACTION` of the ASes, drawn by ``--seed``, renamed.  Each
timed cycle then runs, until ``--seconds`` have passed and at least
:data:`MIN_CYCLES` cycles ran:

1. ``build_iyp``: every crawler, postprocess, validation, analytics;
2. save a v2 snapshot;
3. cold start: load it, start a ``QueryService``, answer a first query;
4. week 2: ``build_iyp(incremental=True)`` and ``QueryService.apply_delta``
   on the cold-started service.

After each cycle (untimed) both builds must report ``ok``, the delta-applied
served store must equal the incrementally built one (``snapshot_diff``),
and the renamed AS names must be visible through a query.  The peak
resident set is restarted at each cycle's start and read at its end,
before these checks; ``peak_rss_mb`` is the largest of the cycles' peaks.
Every set-up and every step of a cycle is timed against the reference
loop run around and inside it (``calibrate.py``); the gated times are the
calibrated ones, and the wall times go into the run record.  A traced run
takes no probes: its layer times are walls.
"""

from __future__ import annotations

import copy
import gc
import random
import time
from typing import Any

import tracing
from calibrate import Calibrator
from common import (
    OUT_DIR, SETUPS, check, median, reset_peak_rss, vm_hwm_mb, world_config,
)

#: Timed cycles a run makes at least, however short ``--seconds`` is.
MIN_CYCLES = 3
CHURN_FRACTION = 0.008
FIRST_QUERY = "MATCH (a:AS) RETURN count(a) AS ases"
NAMES_QUERY = ("MATCH (a:AS)-[:NAME]-(n:Name) WHERE a.asn IN $asns "
               "RETURN a.asn AS asn, collect(n.name) AS names")


def run(opts: Any) -> dict[str, Any]:
    from repro.simnet import build_world

    config = world_config(opts.world_seed)
    rec = tracing.Recorder() if opts.trace else None
    patches = tracing.install(rec, "all") if rec is not None else []
    snapshot = OUT_DIR / f"weekly-seed{opts.seed}.iyp2"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        clock = Calibrator(probing=rec is None)
        setup_times, setup_wall = [], []
        world = None
        for _ in range(SETUPS):
            world = None
            gc.collect()
            clock.reprobe()
            with clock.timed() as timing:
                world = build_world(config)
            setup_times.append(timing.calibrated)
            setup_wall.append(timing.wall)

        rng = random.Random(opts.seed)
        week2 = copy.deepcopy(world)
        churned = max(1, int(len(week2.ases) * CHURN_FRACTION))
        renamed = {asn: f"{week2.ases[asn].name} (renamed, seed {opts.seed})"
                   for asn in sorted(rng.sample(sorted(week2.ases), churned))}
        for asn, name in renamed.items():
            week2.ases[asn].name = name

        cycles: list[dict[str, Any]] = []
        traced: list[dict[str, Any]] = []
        window = time.perf_counter()
        while (time.perf_counter() - window < opts.seconds
               or len(cycles) + len(traced) < MIN_CYCLES
               or (rec is not None and not (cycles and traced))):
            tracing_on = rec is not None and len(cycles) > len(traced)
            if rec is not None:
                rec.enabled = tracing_on
            gc.collect()
            reset_peak_rss()
            cycle = _cycle(world, week2, renamed, snapshot, rec,
                           str(len(cycles) + len(traced)), clock)
            (traced if tracing_on else cycles).append(cycle)
        if rec is not None:
            rec.enabled = True
    finally:
        tracing.uninstall(patches)
        snapshot.unlink(missing_ok=True)

    cycle_ms = [1000 * c["cycle_s"] for c in cycles]
    result = {
        "e2e": {
            "setup_s": median(setup_times),
            "op_p50_ms": median(cycle_ms),
            "throughput_per_s": len(cycles) / (sum(cycle_ms) / 1000),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in cycles),
        },
        "named": {
            "build_s": median(c["build_s"] for c in cycles),
            "delta_s": median(c["delta_s"] for c in cycles),
            "cold_start_s": median(c["cold_start_s"] for c in cycles),
            "snapshot_mb": cycles[0]["snapshot_mb"],
        },
        "attempted": len(cycles),
        "failed": 0,
        "record": {
            "setup_s_samples": setup_times,
            "setup_wall_s_samples": setup_wall,
            "reference_probe_ms": 1000 * median(clock.probes),
            "reference_probes": len(clock.probes),
            "cycles": [{k: v for k, v in c.items() if k != "layer"} for c in cycles],
            "ases_renamed": len(renamed),
            "churn_fraction": len(renamed) / len(world.ases),
            "samples": {"op_p50_ms": len(cycles)},
        },
    }
    if rec is not None:
        layer = traced[-1]["layer"]
        layer["trace.overhead_frac"] = (
            median(c["cycle_wall_s"] for c in traced)
            / median(c["cycle_wall_s"] for c in cycles) - 1)
        roots = {s[tracing.ID] for s in rec.spans if s[tracing.NAME] == "weekly.cycle"}
        cycle_spans = tracing.descendants_of(rec.spans, roots)
        layer.update(tracing.breakdown(cycle_spans, "weekly.cycle", len(traced)))
        result["layer"] = layer
        result["spans"] = rec.spans
        result["record"]["traced_cycles"] = [
            {k: v for k, v in c.items() if k != "layer"} for c in traced]
    return result


def _cycle(world, week2, renamed, snapshot, rec, tag, clock) -> dict[str, Any]:
    """One week; each step is timed with ``clock``, the walls as measured
    and the step times calibrated."""
    from repro.core.diff import snapshot_diff
    from repro.graphdb.snapshot import load_snapshot, save_snapshot
    from repro.pipeline import build_iyp
    from repro.server import QueryService

    counts = dict(rec.counts) if rec is not None else {}
    first = len(rec.spans) if rec is not None else 0
    clock.reprobe()
    with tracing.maybe_span(rec, "weekly.cycle", tag):
        with clock.timed() as build, tracing.maybe_span(rec, "pipeline.build"):
            iyp, report = build_iyp(world)
        build_counts = dict(rec.counts) if rec is not None else {}
        with clock.timed() as save, tracing.maybe_span(rec, "snapshot.save"):
            save_snapshot(iyp.store, snapshot, format=2)
        with clock.timed() as cold_start:
            with tracing.maybe_span(rec, "snapshot.load"):
                store = load_snapshot(snapshot)
            with tracing.maybe_span(rec, "service.init"):
                service = QueryService(store)
            answer = service.execute(FIRST_QUERY)
        with clock.timed() as delta:
            with tracing.maybe_span(rec, "pipeline.build_incremental"):
                week2_iyp, week2_report = build_iyp(
                    week2, incremental=True, previous=report, iyp=iyp)
            with tracing.maybe_span(rec, "delta.apply"):
                service.apply_delta(week2_report.delta, label="week-2")
    peak_rss = vm_hwm_mb()
    steps = (build, save, cold_start, delta)

    check(report.ok, f"full build not ok: {report.crawler_errors}")
    check(week2_report.ok, f"incremental build not ok: {week2_report.crawler_errors}")
    check(answer["rows"][0][0] > 0, "the cold-started service sees no AS")
    check(not week2_report.delta.empty, "week 2 produced an empty delta")
    check(snapshot_diff(week2_iyp.store, service.store).unchanged,
          "the delta-applied store differs from the incremental build")
    names = service.execute(NAMES_QUERY, {"asns": sorted(renamed)})
    seen = {asn: set(found) for asn, found in names["rows"]}
    for asn, name in renamed.items():
        check(name in seen.get(asn, ()), f"AS{asn}'s new name {name!r} is not served")

    cycle = {
        "cycle_s": sum(step.calibrated for step in steps),
        "cycle_wall_s": sum(step.wall for step in steps),
        "build_s": build.calibrated,
        "snapshot_save_s": save.calibrated,
        "cold_start_s": cold_start.calibrated,
        "delta_s": delta.calibrated,
        "snapshot_mb": snapshot.stat().st_size / 2**20,
        "peak_rss_mb": peak_rss,
    }
    if rec is not None and rec.enabled:
        cycle["layer"] = _layers(rec.spans[first:], counts, build_counts,
                                 report, week2_report)
    return cycle


def _layers(spans, before, after_build, report, week2_report) -> dict[str, float]:
    by_id = {s[tracing.ID]: s for s in spans}

    def under(span, name: str) -> bool:
        parent = by_id.get(span[tracing.PARENT])
        while parent is not None:
            if parent[tracing.NAME] == name:
                return True
            parent = by_id.get(parent[tracing.PARENT])
        return False

    def total(name: str, within: str | None = None) -> float:
        return sum(s[tracing.BUSY] for s in spans if s[tracing.NAME] == name
                   and (within is None or under(s, within)))

    merges = after_build.get("store.merge_node", 0) - before.get("store.merge_node", 0)
    locks = after_build.get("rwlock.write", 0) - before.get("rwlock.write", 0)
    runs = report.crawler_runs
    return {
        "crawl_s": sum(r.seconds for r in runs),
        "crawl.slowest_s": max((r.seconds for r in runs), default=0.0),
        "postprocess_s": total("pipeline.postprocess", "pipeline.build"),
        "validate_s": total("lint.validate", "pipeline.build"),
        "analytics_s": total("analytics.report", "pipeline.build"),
        "store.merge_calls": merges,
        "store.write_lock_acquires": locks,
        "store.write_locks_per_merge": locks / merges if merges else 0.0,
        "snapshot.save_s": total("snapshot.save"),
        "snapshot.load_s": total("snapshot.load"),
        "service.init_s": total("service.init"),
        "delta.incremental_build_s": total("pipeline.build_incremental"),
        "delta.apply_ms": 1000 * total("delta.apply"),
        "delta.records": len(week2_report.delta.records),
        "delta.crawlers_skipped": sum(r.skipped for r in week2_report.crawler_runs),
    }
