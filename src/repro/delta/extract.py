"""Building a :class:`~repro.delta.records.DeltaBatch` from a changelog.

:func:`delta_from_changelog` turns the event stream recorded by
:meth:`GraphStore.track_changes` into an ordered batch in O(changes) —
the incremental build path, which never clones or re-scans the world.
Its output is record-for-record identical to
:func:`repro.core.diff.snapshot_diff` between the window-start store and
the live one; the fuzz suite holds the two to that, and they share only
the record helpers of :mod:`repro.delta.records`.

Known limitations (raise :class:`~repro.delta.records.DeltaError` where
detectable): mutating an entity's *key* property or a relationship's
``reference_name`` changes its identity and cannot be expressed as an
update.  Removing a label from a surviving node cannot be expressed
either — the format has no remove-label record — so neither extractor
reports it (the store has no label-removal mutator; only a delete and
re-create with fewer labels, or two independently built stores, can
produce one).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.delta.records import (
    DeltaBatch,
    DeltaError,
    identify,
    property_changes,
    record_order_key,
)
from repro.graphdb.store import ChangeEvent, GraphStore


def _rewind(properties: dict[str, Any],
            folded: Mapping[str, list[Any]] | None) -> dict[str, Any]:
    """Undo folded ``[before, after]`` updates, restoring window-start state."""
    if folded:
        for prop, pair in folded.items():
            if pair[0] is None:
                properties.pop(prop, None)
            else:
                properties[prop] = pair[0]
    return properties


def _net_changes(merged: Mapping[str, list[Any]]) -> dict[str, list[Any]]:
    """Drop round-trip no-ops (a value changed and changed back)."""
    return property_changes({prop: pair[0] for prop, pair in merged.items()},
                            {prop: pair[1] for prop, pair in merged.items()})


def delta_from_changelog(
    store: GraphStore, events: Iterable[ChangeEvent]
) -> DeltaBatch:
    """Convert a tracked event stream into an ordered delta batch.

    ``store`` must be the live store the events were recorded against,
    *after* the tracked mutations ran: created entities read their final
    state from it, and surviving endpoints resolve their identity from
    it.  Per-entity coalescing means ephemeral entities (created then
    deleted inside the window) vanish, repeated updates collapse to one
    net change, and updates that round-trip back to the original value
    drop out entirely.
    """
    created_nodes: set[int] = set()
    deleted_nodes: dict[int, ChangeEvent] = {}
    node_changes: dict[int, dict[str, list[Any]]] = {}
    label_adds: dict[int, list[str]] = {}
    created_rels: set[int] = set()
    deleted_rels: dict[int, ChangeEvent] = {}
    rel_changes: dict[int, dict[str, list[Any]]] = {}
    # Updates folded before a delete, kept so a later recreate under the
    # same identity can rewind the delete-time before-image to the state
    # at the start of the window (what diff extraction compares against).
    pre_delete_node_changes: dict[int, dict[str, list[Any]]] = {}
    pre_delete_label_adds: dict[int, list[str]] = {}
    pre_delete_rel_changes: dict[int, dict[str, list[Any]]] = {}

    for event in events:
        kind, entity_id = event.kind, event.entity_id
        if kind == "node_created":
            created_nodes.add(entity_id)
        elif kind == "node_deleted":
            popped = node_changes.pop(entity_id, None)
            popped_labels = label_adds.pop(entity_id, None)
            if entity_id in created_nodes:
                created_nodes.discard(entity_id)
            else:
                deleted_nodes[entity_id] = event
                if popped:
                    pre_delete_node_changes[entity_id] = popped
                if popped_labels:
                    pre_delete_label_adds[entity_id] = popped_labels
        elif kind == "node_updated":
            if entity_id in created_nodes or event.changes is None:
                continue
            merged = node_changes.setdefault(entity_id, {})
            for prop, (before, after) in event.changes.items():
                if prop in merged:
                    merged[prop][1] = after
                else:
                    merged[prop] = [before, after]
        elif kind == "label_added":
            if entity_id not in created_nodes and event.label is not None:
                adds = label_adds.setdefault(entity_id, [])
                if event.label not in adds:
                    adds.append(event.label)
        elif kind == "rel_created":
            created_rels.add(entity_id)
        elif kind == "rel_deleted":
            popped = rel_changes.pop(entity_id, None)
            if entity_id in created_rels:
                created_rels.discard(entity_id)
            else:
                deleted_rels[entity_id] = event
                if popped:
                    pre_delete_rel_changes[entity_id] = popped
        elif kind == "rel_updated":
            if entity_id in created_rels or event.changes is None:
                continue
            merged = rel_changes.setdefault(entity_id, {})
            for prop, (before, after) in event.changes.items():
                if prop in merged:
                    merged[prop][1] = after
                else:
                    merged[prop] = [before, after]
        elif kind == "rel_merged":
            pass  # a MERGE hit: no state change
        else:
            raise DeltaError(f"unknown change event kind {kind!r}")

    def node_key_of(node_id: int) -> dict[str, Any]:
        if store.has_node(node_id):
            node = store.get_node(node_id)
            key = identify(node.labels, node.properties)
        else:
            before = deleted_nodes.get(node_id)
            if before is None or before.labels is None or before.properties is None:
                raise DeltaError(f"node {node_id} vanished without a before-image")
            key = identify(before.labels, before.properties)
        if key is None:
            raise DeltaError(f"node {node_id} has no ontology identity")
        return key

    def rel_key_of(rel_type: str, start_id: int, end_id: int,
                   properties: Mapping[str, Any]) -> dict[str, Any]:
        return {
            "start": node_key_of(start_id),
            "type": rel_type,
            "end": node_key_of(end_id),
            "dataset": str(properties.get("reference_name", "")),
        }

    def _node_ident(key: Mapping[str, Any]) -> tuple[Any, ...]:
        return (key["label"], key["prop"], key["value"])

    def _rel_ident(key: Mapping[str, Any]) -> tuple[Any, ...]:
        return (_node_ident(key["start"]), key["type"],
                _node_ident(key["end"]), key["dataset"])

    deleted_node_keys = {nid: node_key_of(nid) for nid in deleted_nodes}
    created_node_keys = {nid: node_key_of(nid) for nid in created_nodes}
    deleted_rel_keys: dict[int, dict[str, Any]] = {}
    for rel_id, event in deleted_rels.items():
        assert event.rel_type is not None
        assert event.start_id is not None and event.end_id is not None
        deleted_rel_keys[rel_id] = rel_key_of(
            event.rel_type, event.start_id, event.end_id, event.properties or {})
    created_rel_keys: dict[int, dict[str, Any]] = {}
    for rel_id in created_rels:
        rel = store.get_relationship(rel_id)
        created_rel_keys[rel_id] = rel_key_of(
            rel.type, rel.start_id, rel.end_id, rel.properties)

    # Canonicalize delete+create pairs under the same identity into
    # updates — that is how diff extraction, which only sees the
    # endpoints, reports a recreate.  Labels the recreated node gained
    # ride on the update; lost labels are not expressible (see above).
    records: list[dict[str, Any]] = []
    paired_del_nodes: set[int] = set()
    paired_new_nodes: set[int] = set()
    del_node_idents = {_node_ident(k): nid for nid, k in deleted_node_keys.items()}
    for new_id, key in created_node_keys.items():
        old_id = del_node_idents.get(_node_ident(key))
        if old_id is None:
            continue
        before = deleted_nodes[old_id]
        node = store.get_node(new_id)
        before_props = _rewind(dict(before.properties or {}),
                               pre_delete_node_changes.get(old_id))
        before_labels = (set(before.labels or ())
                         - set(pre_delete_label_adds.get(old_id, ())))
        paired_del_nodes.add(old_id)
        paired_new_nodes.add(new_id)
        changes = property_changes(before_props, node.properties)
        added = sorted(set(node.labels) - before_labels)
        if not changes and not added:
            continue
        if key["prop"] in changes:
            raise DeltaError(f"key property mutation on node {new_id} "
                             "cannot be expressed as a delta update")
        record: dict[str, Any] = {"op": "update", "entity": "node", "key": key,
                                  "changes": changes}
        if added:
            record["add_labels"] = added
        records.append(record)
    paired_del_rels: set[int] = set()
    paired_new_rels: set[int] = set()
    del_rel_idents = {_rel_ident(k): rid for rid, k in deleted_rel_keys.items()}
    for new_id, key in created_rel_keys.items():
        old_id = del_rel_idents.get(_rel_ident(key))
        if old_id is None:
            continue
        paired_del_rels.add(old_id)
        paired_new_rels.add(new_id)
        before_props = _rewind(dict(deleted_rels[old_id].properties or {}),
                               pre_delete_rel_changes.get(old_id))
        changes = property_changes(
            before_props, store.get_relationship(new_id).properties)
        if changes:
            records.append({"op": "update", "entity": "rel", "key": key,
                            "changes": changes})

    for rel_id, key in deleted_rel_keys.items():
        if rel_id in paired_del_rels:
            continue
        records.append({"op": "delete", "entity": "rel", "key": key})
    for node_id, key in deleted_node_keys.items():
        if node_id in paired_del_nodes:
            continue
        records.append({"op": "delete", "entity": "node", "key": key})
    for node_id, key in created_node_keys.items():
        if node_id in paired_new_nodes:
            continue
        node = store.get_node(node_id)
        records.append({
            "op": "create",
            "entity": "node",
            "key": key,
            "labels": sorted(node.labels),
            "properties": dict(node.properties),
        })
    update_ids = sorted(set(node_changes) | set(label_adds))
    for node_id in update_ids:
        changes = _net_changes(node_changes.get(node_id, {}))
        adds = label_adds.get(node_id, [])
        if not changes and not adds:
            continue
        key = node_key_of(node_id)
        if key["prop"] in changes:
            raise DeltaError(f"key property mutation on node {node_id} "
                             "cannot be expressed as a delta update")
        record = {"op": "update", "entity": "node", "key": key,
                  "changes": changes}
        if adds:
            record["add_labels"] = sorted(adds)
        records.append(record)
    for rel_id, key in created_rel_keys.items():
        if rel_id in paired_new_rels:
            continue
        records.append({
            "op": "create",
            "entity": "rel",
            "key": key,
            "properties": dict(store.get_relationship(rel_id).properties),
        })
    for rel_id, merged in rel_changes.items():
        changes = _net_changes(merged)
        if not changes:
            continue
        if "reference_name" in changes:
            raise DeltaError(f"reference_name mutation on relationship {rel_id} "
                             "cannot be expressed as a delta update")
        rel = store.get_relationship(rel_id)
        records.append({
            "op": "update",
            "entity": "rel",
            "key": rel_key_of(rel.type, rel.start_id, rel.end_id, rel.properties),
            "changes": changes,
        })
    records.sort(key=record_order_key)
    return DeltaBatch(records=records)
