"""Shared helpers: checkout layout, the snapshot cache, statistics, the run record.

Every path the benchmark touches lives inside the checkout it runs from:
``.bench_cache/`` holds the per-source-tree snapshots and ``.bench_out/``
the run records and span dumps.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Iterable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE_DIR = ROOT / ".bench_cache"
OUT_DIR = ROOT / ".bench_out"

#: The ``WorldConfig`` preset every workload runs on (see BENCHMARK.md,
#: "World size").
WORLD = "small"
#: Set-ups a run times; ``setup_s`` is their median.
SETUPS = 3


class CheckFailed(Exception):
    """A correctness check failed: the run's outputs are wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def require_source_tree() -> None:
    """Fail fast (non-zero exit, no result) outside a full checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC}/repro; "
                         "run from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_digest() -> str:
    """Content hash of the program's sources: the snapshot cache key.

    A cached snapshot is only ever reused by the source tree that built it.
    """
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def world_config(seed: int | None):
    from repro.simnet import WorldConfig

    preset = getattr(WorldConfig, WORLD)
    return preset() if seed is None else preset(seed=seed)


def cached_snapshot(world_seed: int | None) -> Path:
    """The v2 snapshot of the world, built by the code under test once per
    (seed, source tree) and cached in the checkout.

    The build runs in a child process, so the measuring process does not
    carry the build's heap into its timed windows.
    """
    config = world_config(world_seed)
    path = CACHE_DIR / f"{WORLD}-{config.seed}-{source_digest()}.iyp2"
    if not path.is_file():
        CACHE_DIR.mkdir(exist_ok=True)
        print(f"building the {WORLD} world (seed {config.seed}) snapshot ...",
              file=sys.stderr, flush=True)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             str(config.seed), str(path)],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
            timeout=800,
        )
    return path


def _build_snapshot(seed: int, path: Path) -> None:
    from repro.graphdb.snapshot import save_snapshot
    from repro.pipeline import build_iyp
    from repro.simnet import build_world

    iyp, report = build_iyp(build_world(world_config(seed)))
    if not report.ok:
        raise SystemExit(f"snapshot build failed: {report.crawler_errors}")
    partial = path.with_suffix(".partial")
    save_snapshot(iyp.store, partial, format=2)
    partial.replace(path)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile; with fewer than 100/(100-q) samples this
    is the largest one."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _canonical(value: Any) -> Any:
    if isinstance(value, list):
        return sorted((_canonical(item) for item in value),
                      key=lambda item: json.dumps(item, sort_keys=True))
    return value


def rows_multiset(rows: list[list[Any]]) -> Counter:
    """Order-insensitive view of encoded result rows.  Lists inside a row
    compare as multisets too: ``COLLECT`` order follows match order, which
    differs between execution strategies."""
    return Counter(json.dumps([_canonical(value) for value in row], sort_keys=True)
                   for row in rows)


def reset_peak_rss() -> None:
    """Restart this process's peak resident set (``VmHWM``) from its
    current resident set, so a later :func:`vm_hwm_mb` covers only what
    ran in between."""
    Path("/proc/self/clear_refs").write_text("5")


def vm_hwm_mb(pid: int | str = "self") -> float:
    """A process's peak resident set, from ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def write_record(name: str, record: dict[str, Any]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    return path


if __name__ == "__main__":
    # python3 common.py SEED PATH: build one cached snapshot.
    require_source_tree()
    _build_snapshot(int(sys.argv[1]), Path(sys.argv[2]))
