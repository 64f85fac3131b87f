"""Diffing two knowledge-graph snapshots.

The paper's Limitations section describes longitudinal analysis as
running multiple IYP instances and merging by hand.  A structural diff
is the first tool that workflow needs: it compares two stores by
*identity* (the ontology's key properties), not by internal node ids,
so two independently built snapshots are comparable.

The diff is a :class:`~repro.delta.records.DeltaBatch` — the same
ordered, identity-addressed records the incremental build ships — so
applying it to the old store yields one identity-equivalent to the new.
Entities present on one side only are creates or deletes; entities
present on both sides whose properties changed are updates carrying the
per-property ``[before, after]`` pairs, so a longitudinal run can tell
"this AS got renamed" from "this AS appeared"; labels gained by a
surviving node ride on its update as ``add_labels``.

This O(world) pass is the oracle the O(changes) changelog extractor
(:func:`repro.delta.extract.delta_from_changelog`) is fuzzed against,
so the two share only the record helpers, never extraction logic.
"""

from __future__ import annotations

from typing import Any

from repro.delta.records import (
    DeltaBatch,
    DeltaError,
    identify,
    node_key,
    property_changes,
    record_order_key,
    rel_key,
)
from repro.graphdb.interface import GraphReadStore
from repro.graphdb.model import Node

NodeIdent = tuple[str, str, Any]  # label, key property, value
RelIdent = tuple[NodeIdent, str, NodeIdent, str]  # start, type, end, dataset


def _entities(
    store: GraphReadStore,
) -> tuple[dict[NodeIdent, tuple[dict[str, Any], Node]],
           dict[RelIdent, dict[str, Any]]]:
    """Identifiable nodes (ident -> (key, node)) and relationships
    (ident -> properties); on a duplicate identity the first one wins."""
    nodes: dict[NodeIdent, tuple[dict[str, Any], Node]] = {}
    idents: dict[int, NodeIdent] = {}
    for node in store.iter_nodes():
        key = identify(node.labels, node.properties)
        if key is not None:
            ident = (key["label"], key["prop"], key["value"])
            idents[node.id] = ident
            nodes.setdefault(ident, (key, node))
    rels: dict[RelIdent, dict[str, Any]] = {}
    for rel in store.iter_relationships():
        start, end = idents.get(rel.start_id), idents.get(rel.end_id)
        if start is not None and end is not None:
            dataset = rel.properties.get("reference_name", "")
            rels.setdefault((start, rel.type, end, dataset), rel.properties)
    return nodes, rels


def _rel_key(ident: RelIdent) -> dict[str, Any]:
    start, rel_type, end, dataset = ident
    return rel_key(node_key(*start), rel_type, node_key(*end), dataset)


def snapshot_diff(old: GraphReadStore, new: GraphReadStore) -> DeltaBatch:
    """Compare two snapshots by entity identity, as an ordered batch.

    Raises :class:`~repro.delta.records.DeltaError` when a key property
    or a relationship's ``reference_name`` changed type under an equal
    value — an identity change no update record can express.  A label
    removed from a surviving node is not reported: the record format
    has no remove-label operation.
    """
    old_nodes, old_rels = _entities(old)
    new_nodes, new_rels = _entities(new)
    records: list[dict[str, Any]] = [
        {"op": "delete", "entity": "rel", "key": _rel_key(ident)}
        for ident in old_rels.keys() - new_rels.keys()
    ]
    records += [
        {"op": "delete", "entity": "node", "key": key}
        for ident, (key, _node) in old_nodes.items() if ident not in new_nodes
    ]
    for ident, (key, node) in new_nodes.items():
        if ident not in old_nodes:
            records.append({"op": "create", "entity": "node", "key": key,
                            "labels": sorted(node.labels),
                            "properties": dict(node.properties)})
            continue
        before = old_nodes[ident][1]
        changes = property_changes(before.properties, node.properties)
        if key["prop"] in changes:
            raise DeltaError(f"key property mutation on {key!r} "
                             "cannot be expressed as a delta update")
        added = sorted(set(node.labels) - set(before.labels))
        if changes or added:
            record = {"op": "update", "entity": "node", "key": key,
                      "changes": changes}
            if added:
                record["add_labels"] = added
            records.append(record)
    for ident, properties in new_rels.items():
        if ident not in old_rels:
            records.append({"op": "create", "entity": "rel",
                            "key": _rel_key(ident),
                            "properties": dict(properties)})
            continue
        changes = property_changes(old_rels[ident], properties)
        if "reference_name" in changes:
            raise DeltaError(f"reference_name mutation on {ident!r} "
                             "cannot be expressed as a delta update")
        if changes:
            records.append({"op": "update", "entity": "rel",
                            "key": _rel_key(ident), "changes": changes})
    records.sort(key=record_order_key)
    return DeltaBatch(records=records)
