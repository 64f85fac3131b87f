"""Longitudinal series and snapshot diffing."""

import pytest

from repro.core import IYP, Reference
from repro.core.diff import snapshot_diff
from repro.delta import delta_from_changelog, identify
from repro.delta.records import node_key
from repro.studies.longitudinal import SnapshotSeries


def _mini_iyp(with_extra: bool = False) -> IYP:
    iyp = IYP()
    ref = Reference("T", "test.bgp")
    a = iyp.get_node("AS", asn=1)
    p = iyp.get_node("Prefix", prefix="10.0.0.0/8")
    iyp.add_link(a, "ORIGINATE", p, reference=ref)
    if with_extra:
        b = iyp.get_node("AS", asn=2)
        iyp.add_link(b, "ORIGINATE", p, reference=ref)
    return iyp


def _group(batch, op, entity):
    return [r for r in batch if r["op"] == op and r["entity"] == entity]


AS1 = node_key("AS", "asn", 1)
AS2 = node_key("AS", "asn", 2)
PREFIX = node_key("Prefix", "prefix", "10.0.0.0/8")


class TestSnapshotDiff:
    def test_identical_snapshots_unchanged(self):
        diff = snapshot_diff(_mini_iyp().store, _mini_iyp().store)
        assert diff.unchanged and diff.empty

    def test_added_node_and_link(self):
        diff = snapshot_diff(_mini_iyp().store, _mini_iyp(with_extra=True).store)
        assert [r["key"] for r in _group(diff, "create", "node")] == [AS2]
        assert not _group(diff, "delete", "node")
        [rel] = _group(diff, "create", "rel")
        assert rel["key"] == {"start": AS2, "type": "ORIGINATE", "end": PREFIX,
                              "dataset": "test.bgp"}

    def test_removed_is_symmetric(self):
        diff = snapshot_diff(_mini_iyp(with_extra=True).store, _mini_iyp().store)
        assert [r["key"] for r in _group(diff, "delete", "node")] == [AS2]
        assert len(_group(diff, "delete", "rel")) == 1

    def test_identity_ignores_internal_ids(self):
        # Build the same content in a different insertion order.
        iyp = IYP()
        ref = Reference("T", "test.bgp")
        p = iyp.get_node("Prefix", prefix="10.0.0.0/8")
        a = iyp.get_node("AS", asn=1)
        iyp.add_link(a, "ORIGINATE", p, reference=ref)
        diff = snapshot_diff(_mini_iyp().store, iyp.store)
        assert diff.unchanged

    def test_same_link_different_dataset_counts_as_change(self):
        left = _mini_iyp()
        right = _mini_iyp()
        a = right.store.find_nodes("AS", "asn", 1)[0]
        p = right.store.find_nodes("Prefix", "prefix", "10.0.0.0/8")[0]
        right.add_link(a, "ORIGINATE", p, reference=Reference("U", "other.bgp"))
        diff = snapshot_diff(left.store, right.store)
        [rel] = _group(diff, "create", "rel")
        assert rel["key"]["dataset"] == "other.bgp"

    def test_summary_counts(self):
        diff = snapshot_diff(_mini_iyp().store, _mini_iyp(with_extra=True).store)
        counts = diff.counts()
        assert counts["node_creates"] == 1 and counts["rel_creates"] == 1
        assert diff.summary()["records"] == 2

    def test_identify_node_key(self):
        iyp = _mini_iyp()
        node = iyp.store.find_nodes("AS", "asn", 1)[0]
        assert identify(node.labels, node.properties) == AS1


class TestModifiedEntities:
    """Property-level changes on entities present in both snapshots."""

    def test_modified_node_properties(self):
        left = _mini_iyp()
        right = _mini_iyp()
        node = right.store.find_nodes("AS", "asn", 1)[0]
        right.store.update_node(node.id, {"name": "RENAMED", "rank": 7})
        diff = snapshot_diff(left.store, right.store)
        assert not diff.unchanged
        assert not _group(diff, "create", "node")
        assert not _group(diff, "delete", "node")
        [record] = _group(diff, "update", "node")
        assert record["key"] == AS1
        assert record["changes"]["name"] == [None, "RENAMED"]
        assert record["changes"]["rank"] == [None, 7]

    def test_modified_value_reports_before_and_after(self):
        left = _mini_iyp()
        right = _mini_iyp()
        for iyp, rank in ((left, 3), (right, 7)):
            node = iyp.store.find_nodes("AS", "asn", 1)[0]
            iyp.store.update_node(node.id, {"rank": rank})
        diff = snapshot_diff(left.store, right.store)
        [record] = _group(diff, "update", "node")
        assert record["changes"] == {"rank": [3, 7]}

    def test_type_change_counts_as_modification(self):
        # 1 == True in Python; the diff must still see the type flip.
        left = _mini_iyp()
        right = _mini_iyp()
        for iyp, value in ((left, 1), (right, True)):
            node = iyp.store.find_nodes("AS", "asn", 1)[0]
            iyp.store.update_node(node.id, {"flag": value})
        diff = snapshot_diff(left.store, right.store)
        [record] = _group(diff, "update", "node")
        assert record["changes"] == {"flag": [1, True]}

    def test_modified_relationship_properties(self):
        left = _mini_iyp()
        right = _mini_iyp()
        rel = next(iter(right.store.iter_relationships()))
        right.store.update_relationship(rel.id, {"count": 9})
        diff = snapshot_diff(left.store, right.store)
        [record] = _group(diff, "update", "rel")
        assert record["key"]["type"] == "ORIGINATE"
        assert record["changes"]["count"] == [None, 9]

    def test_summary_counts_modifications(self):
        left = _mini_iyp()
        right = _mini_iyp()
        node = right.store.find_nodes("AS", "asn", 1)[0]
        right.store.update_node(node.id, {"rank": 7})
        counts = snapshot_diff(left.store, right.store).counts()
        assert counts["node_updates"] == 1
        assert counts["rel_updates"] == 0

    def test_unchanged_requires_no_modifications(self):
        assert snapshot_diff(_mini_iyp().store, _mini_iyp().store).unchanged

    def test_label_added_to_surviving_node(self):
        # (:AS {asn:1}) -> (:AS:Organization {asn:1}) is a change, and
        # the diff reports it exactly as the changelog extractor does.
        left = _mini_iyp()
        right = _mini_iyp()
        node = right.store.find_nodes("AS", "asn", 1)[0]
        with right.store.track_changes() as events:
            right.store.add_label(node.id, "Organization")
        diff = snapshot_diff(left.store, right.store)
        assert not diff.unchanged
        assert diff.records == [{"op": "update", "entity": "node", "key": AS1,
                                 "changes": {}, "add_labels": ["Organization"]}]
        assert delta_from_changelog(right.store, events).records == diff.records


class TestSeriesFromArchive:
    def test_series_loads_archived_snapshots_in_order(self, tmp_path):
        from repro.archive import SnapshotArchive

        archive = SnapshotArchive(tmp_path / "archive")
        archive.add(_mini_iyp().store, "t0")
        archive.add(_mini_iyp(with_extra=True).store, "t1")
        series = SnapshotSeries.from_archive(archive)
        assert list(series.snapshots) == ["t0", "t1"]
        assert series.metric("MATCH (a:AS) RETURN count(a)") == {"t0": 1, "t1": 2}

    def test_label_filter(self, tmp_path):
        from repro.archive import SnapshotArchive

        archive = SnapshotArchive(tmp_path / "archive")
        archive.add(_mini_iyp().store, "t0")
        archive.add(_mini_iyp(with_extra=True).store, "t1")
        series = SnapshotSeries.from_archive(archive, labels=["t1"])
        assert list(series.snapshots) == ["t1"]


class TestLongitudinal:
    @pytest.fixture(scope="class")
    def series(self):
        series = SnapshotSeries()
        series.add("t0", _mini_iyp())
        series.add("t1", _mini_iyp(with_extra=True))
        return series

    def test_metric_series(self, series):
        counts = series.metric("MATCH (a:AS) RETURN count(a)")
        assert counts == {"t0": 1, "t1": 2}

    def test_trend_preserves_order(self, series):
        trend = series.trend("MATCH (a:AS) RETURN count(a)")
        assert trend == [("t0", 1), ("t1", 2)]

    def test_run_full_results(self, series):
        results = series.run("MATCH (a:AS) RETURN a.asn ORDER BY a.asn")
        assert results["t1"].column() == [1, 2]

    def test_study_runner(self, series):
        sizes = series.study(lambda iyp: iyp.store.node_count)
        assert sizes["t1"] == sizes["t0"] + 1

    def test_paper_arc_2015_to_2024(self):
        # The Limitations-section workflow on the era presets: RPKI
        # coverage of all announced prefixes across two eras.
        from repro.pipeline import build_iyp
        from repro.simnet import WorldConfig, build_world

        series = SnapshotSeries()
        for label, config in (
            ("2015", WorldConfig.year2015(scale=0.1, n_domains=500, n_ases=150)),
            ("2024", WorldConfig(seed=20240501, scale=0.1, n_domains=500,
                                 n_ases=150)),
        ):
            iyp, _report = build_iyp(
                build_world(config), dataset_names=["ihr.rov"], postprocess=False
            )
            series.add(label, iyp)
        coverage = series.metric(
            """
            MATCH (p:Prefix)
            OPTIONAL MATCH (p)-[:CATEGORIZED]-(t:Tag)
            WHERE t.label IN ['RPKI Valid', 'RPKI Invalid',
                              'RPKI Invalid,more-specific']
            WITH p, count(t) AS tags
            RETURN 100.0 * sum(CASE WHEN tags > 0 THEN 1 ELSE 0 END) / count(p)
            """
        )
        assert coverage["2024"] > 4 * coverage["2015"]
