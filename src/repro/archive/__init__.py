"""The snapshot archive: managed dumps, a fast binary format, time travel.

The paper distributes IYP as weekly Neo4j dumps; this package turns the
reproduction's one-off snapshots into a managed, servable dump archive:

- :mod:`repro.archive.format` — binary snapshot format v2: framed,
  length-prefixed sections with interned strings, per-section CRC-32
  checksums, and a streaming reader that rebuilds the store through the
  bulk-load path (several times faster than the v1 gzip-JSON dump);
- :mod:`repro.archive.manager` — :class:`SnapshotArchive`, a directory
  of dated snapshots with a JSON manifest, checksum dedup, integrity
  verification, retention, and per-entry delta counts from
  :func:`repro.core.diff.snapshot_diff`;
- :mod:`repro.archive.watcher` — a polling thread that hot-swaps a
  running query service to each new archive entry.

The query service resolves ``snapshot=`` selectors on ``/query``
against an attached archive, so longitudinal studies run against named
historical dumps instead of hand-managed stores.  See
``documentation/archive.md``.
"""

from repro.archive.format import (
    SnapshotFormatError,
    is_v2_snapshot,
    load_snapshot_v2,
    read_meta,
    read_sections,
    save_snapshot_v2,
)
from repro.archive.manager import ArchiveEntry, SnapshotArchive, VerificationReport
from repro.archive.watcher import ArchiveWatcher

__all__ = [
    "ArchiveEntry",
    "ArchiveWatcher",
    "SnapshotArchive",
    "SnapshotFormatError",
    "VerificationReport",
    "is_v2_snapshot",
    "load_snapshot_v2",
    "read_meta",
    "read_sections",
    "save_snapshot_v2",
]
