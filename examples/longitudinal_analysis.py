#!/usr/bin/env python3
"""Longitudinal analysis across snapshots (paper Section 7).

The paper describes running one IYP instance per point in time and
merging results by hand.  This example does that workflow with the
library: build a 2015-era and a 2024-era knowledge graph, register
them as a labelled series, run the same queries against both, and diff
the snapshots structurally.

Run:  python examples/longitudinal_analysis.py
"""

from collections import Counter

from repro.core import snapshot_diff
from repro.pipeline import build_iyp
from repro.simnet import WorldConfig, build_world
from repro.studies import run_ripki_study
from repro.studies.longitudinal import SnapshotSeries


def main() -> None:
    series = SnapshotSeries()
    configs = {
        "2015": WorldConfig.year2015(scale=0.1, n_domains=1500, n_ases=250),
        "2024": WorldConfig(seed=20240501, scale=0.1, n_domains=1500, n_ases=250),
    }
    for label, config in configs.items():
        print(f"Building the {label}-era knowledge graph...")
        iyp, report = build_iyp(build_world(config))
        print(f"  {report.nodes:,} nodes / {report.relationships:,} rels")
        series.add(label, iyp)

    print("\nOne query, every era - RPKI coverage of announced prefixes (%):")
    coverage = series.metric(
        """
        MATCH (p:Prefix)
        OPTIONAL MATCH (p)-[:CATEGORIZED]-(t:Tag)
        WHERE t.label IN ['RPKI Valid', 'RPKI Invalid',
                          'RPKI Invalid,more-specific']
        WITH p, count(t) AS tags
        RETURN round(100.0 * sum(CASE WHEN tags > 0 THEN 1 ELSE 0 END)
                     / count(p), 1)
        """
    )
    for label, value in coverage.items():
        print(f"  {label}: {value}%")

    print("\nA whole study, every era - Table 2:")
    tables = series.study(run_ripki_study)
    for label, results in tables.items():
        row = {k: round(v, 1) for k, v in results.table2_row().items()}
        print(f"  {label}: {row}")

    print("\nStructural diff between the eras (by entity identity):")
    batch = snapshot_diff(
        series.snapshots["2015"].store, series.snapshots["2024"].store
    )
    for entity, token in (("node", "label"), ("rel", "type")):
        added = Counter(record["key"][token] for record in batch
                        if (record["op"], record["entity"]) == ("create", entity))
        top = added.most_common(5)
        print(f"  {entity}_creates: " + ", ".join(f"{k} +{v}" for k, v in top))
    print(f"  all changes: {batch.counts()}")
    print(
        "\n(The eras are different worlds, so the diff is large - in the "
        "paper's\nweekly-snapshot setting the same tool shows exactly what "
        "changed in a week.)"
    )


if __name__ == "__main__":
    main()
