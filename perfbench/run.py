"""The IYP benchmark: one command, three workloads, every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-listings --seed 1 --seconds 4 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 4 --trace 0

``--seed`` seeds the workload's inputs (the query corpus, Listing 3's
organisation, the ASes renamed in week 2); ``--world-seed`` seeds the
synthetic Internet and defaults to the preset's own seed.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` wraps the program's public
calls and reports the per-layer metrics instead.  The metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A failed correctness check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = {
    "paper-listings": "listings",
    "http-mixed": "http_mixed",
    "weekly-build": "weekly",
}

#: The workload-specific end-to-end metrics, printed and recorded by name
#: next to the generic ones ``BENCHMARK.json`` gates on.
NAMED_UNITS = {
    "failed_frac": "ratio",
    "listings_dict_s": "s",
    "listings_columnar_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "throughput_qps": "1/s",
    "build_s": "s",
    "delta_s": "s",
    "cold_start_s": "s",
    "snapshot_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="workload (corpus) seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of each timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed", type=int, default=None)
    return parser.parse_args(argv)


def run_one(workload: str, args: argparse.Namespace, spec: dict) -> dict:
    module = importlib.import_module(WORKLOADS[workload])
    started = time.time()
    result = module.run(args)
    attempted = max(result["attempted"], 1)
    named = {"failed_frac": result["failed"] / attempted, **result["named"]}
    if args.trace:
        declared = spec["per_layer"]
        unknown = sorted(set(result["layer"]) - {m["name"] for m in declared})
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
        values = {m["name"]: result["layer"].get(m["name"], 0.0) for m in declared}
    else:
        declared = spec["end_to_end"]
        values = {m["name"]: result["e2e"][m["name"]] for m in declared}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    print(f"== {workload} (seed {args.seed}, trace {args.trace})")
    for name, item in metrics.items():
        print(f"  {name:<40} {item['value']:>14.6g} {item['unit']}")
    for name, value in named.items():
        print(f"  {name:<40} {value:>14.6g} {NAMED_UNITS[name]}")

    record = {
        "workload": workload,
        "host": common.host_fingerprint(),
        "git_commit": common.git_commit(),
        "source_digest": common.source_digest(),
        "world": common.WORLD,
        "world_seed": common.world_config(args.world_seed).seed,
        "corpus_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "wall_s": time.time() - started,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "named": {name: {"value": value, "unit": NAMED_UNITS[name]}
                  for name, value in named.items()},
        **result["record"],
    }
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    common.write_record(f"{stem}.json", record)
    if "spans" in result:
        common.write_record(f"{stem}.spans.json", {"spans": result["spans"]})
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    common.require_source_tree()
    spec_path = common.ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"error: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    try:
        for workload in workloads:
            outcomes[workload] = run_one(workload, args, spec)
    except common.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    if len(outcomes) == 1:
        summary = next(iter(outcomes.values()))
    else:
        summary = {
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{w}.{name}": item for w, o in outcomes.items()
                        for name, item in o["metrics"].items()},
        }
    print(json.dumps({"correct": True, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
