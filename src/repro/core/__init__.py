"""The IYP core: the knowledge-graph construction and query facade.

This is the paper's primary contribution — the machinery that turns
heterogeneous datasets into one harmonized property graph:

- :class:`IYP` wraps the graph store and the Cypher engine, enforcing
  canonical identifier forms on node creation (Section 2.3) and the
  systematic provenance properties on every link (Section 2.2);
- :class:`Reference` carries those provenance properties;
- uniqueness constraints and indexes are derived from the ontology.
"""

from repro.core.diff import snapshot_diff
from repro.core.iyp import IYP, Reference

__all__ = ["IYP", "Reference", "snapshot_diff"]
