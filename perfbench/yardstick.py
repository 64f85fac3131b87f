"""Independent yardstick: the paper's Listing 6 in stdlib ``sqlite3``.

The graph is copied into an in-memory database with a crude schema (JSON
property blobs, one label row per node label, every edge stored in both
directions) and Listing 6 is answered by one SQL join, in the order the
listing reads (``CROSS JOIN`` fixes it).  Nothing here shares
code with the Cypher engine, so agreement row for row is a real check, and
the SQL time is a reference point for the engine's Listing 6 time.
"""

from __future__ import annotations

import json
import sqlite3
import time
from typing import Any

LISTING_6_SQL = """
SELECT json_extract(d.props, '$.name') AS domain,
       json_group_array(DISTINCT json_extract(p.props, '$.prefix')) AS prefixes
FROM node_labels lr
CROSS JOIN nodes r ON r.id = lr.id
CROSS JOIN edges e1 ON e1.src = r.id AND e1.type = 'RANK'
CROSS JOIN node_labels ld ON ld.id = e1.dst AND ld.label = 'DomainName'
CROSS JOIN nodes d ON d.id = e1.dst
CROSS JOIN edges e2 ON e2.src = d.id AND e2.type = 'MANAGED_BY'
CROSS JOIN node_labels la ON la.id = e2.dst AND la.label = 'AuthoritativeNameServer'
CROSS JOIN edges e3 ON e3.src = e2.dst AND e3.type = 'RESOLVES_TO'
CROSS JOIN node_labels li ON li.id = e3.dst AND li.label = 'IP'
CROSS JOIN nodes i ON i.id = e3.dst
CROSS JOIN edges e4 ON e4.src = i.id AND e4.type = 'PART_OF'
CROSS JOIN node_labels lp ON lp.id = e4.dst AND lp.label = 'Prefix'
CROSS JOIN nodes p ON p.id = e4.dst
WHERE lr.label = 'Ranking'
  AND json_extract(r.props, '$.name') = 'Tranco top 1M'
  AND json_extract(i.props, '$.af') = 4
GROUP BY domain
"""


def load(store: Any) -> sqlite3.Connection:
    """Copy the store's nodes and relationships into a fresh database."""
    db = sqlite3.connect(":memory:")
    db.executescript("""
        PRAGMA temp_store = MEMORY;
        CREATE TABLE nodes (id INTEGER PRIMARY KEY, props TEXT);
        CREATE TABLE node_labels (id INTEGER, label TEXT);
        CREATE TABLE edges (src INTEGER, type TEXT, dst INTEGER);
    """)
    nodes, labels = [], []
    for node_id in store.node_ids():
        node = store.get_node(node_id)
        nodes.append((node_id, json.dumps(node.properties, default=str)))
        labels.extend((node_id, label) for label in node.labels)
    edges = []
    for rel_type, start, end in store.iter_edges():
        edges.append((start, rel_type, end))
        edges.append((end, rel_type, start))
    db.executemany("INSERT INTO nodes VALUES (?, ?)", nodes)
    db.executemany("INSERT INTO node_labels VALUES (?, ?)", labels)
    db.executemany("INSERT INTO edges VALUES (?, ?, ?)", edges)
    db.executescript("""
        CREATE INDEX edges_src ON edges (src, type);
        CREATE INDEX labels_label ON node_labels (label, id);
        CREATE INDEX labels_id ON node_labels (id, label);
    """)
    return db


def listing6(db: sqlite3.Connection) -> tuple[dict[str, frozenset], float]:
    """``{domain: prefixes}`` and the query's wall time in seconds."""
    started = time.perf_counter()
    rows = db.execute(LISTING_6_SQL).fetchall()
    elapsed = time.perf_counter() - started
    groups = {domain: frozenset(json.loads(prefixes)) for domain, prefixes in rows}
    return groups, elapsed


def as_groups(rows: list[list[Any]]) -> dict[str, frozenset]:
    """Listing 6's encoded ``[domain, prefixes]`` rows in the same shape."""
    groups: dict[str, frozenset] = {}
    for domain, prefixes in rows:
        if domain in groups:
            raise ValueError(f"Listing 6 returned {domain!r} twice")
        groups[domain] = frozenset(prefixes)
    return groups
