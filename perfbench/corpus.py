"""Seeded, schema-aware query corpus for the ``http-mixed`` workload.

The generator reads the served snapshot: its (label, type, label) triples,
the ontology's key properties, and real anchor values.  Every query it
emits is labelled with one of six categories (after CypherBench):

``point``      one node by its key property
``hop1``       a node's typed neighbours
``hop2``       two typed hops, distinct far ends
``aggregate``  two typed hops grouped and counted
``moas``       a MOAS-style self-join: other nodes sharing a neighbour
``varlen``     a variable-length ``*1..2`` expansion, counted

Anchors are chosen so that no query examines more than :data:`MAX_PATHS`
paths, which keeps every category's latency in a narrow band.  Reads never
project the property the workload's writes set, so a read's rows do not
depend on how many writes ran before it.

The traffic mix is an assumption, not a measurement: no published IYP or
CypherBench figure gives the share of each category in real traffic, so
every category gets the same number of distinct keys and the same share of
the reads.  A change that speeds up one category then moves the median by
as much as the same change to any other.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

CATEGORIES = ("point", "hop1", "hop2", "aggregate", "moas", "varlen")
#: Upper bound on the paths one generated query may examine.
MAX_PATHS = 500
#: The property the workload's writes set; no read projects it.
WRITE_PROPERTY = "perfbench_mark"
WRITE_QUERY = f"MATCH (a:AS {{asn: $asn}}) SET a.{WRITE_PROPERTY} = $value"


@dataclass(frozen=True)
class Query:
    category: str
    text: str
    params: dict[str, Any] = field(hash=False, compare=False)

    @property
    def key(self) -> tuple[str, tuple]:
        return self.text, tuple(sorted(self.params.items()))


class CorpusGenerator:
    """Draws distinct read queries and a Zipf-skewed request stream."""

    def __init__(self, store: Any, seed: int) -> None:
        from repro.ontology import ENTITIES

        self.store = store
        self.rng = random.Random(seed)
        self.keys = {label: entity.key_properties[0]
                     for label, entity in ENTITIES.items()}
        triples: Counter = Counter()
        for rel_type, start, end in store.iter_edges():
            left, right = self._label(start), self._label(end)
            if left in self.keys and right in self.keys:
                triples[(left, rel_type, right)] += 1
                triples[(right, rel_type, left)] += 1
        self.triples = sorted(triples)
        self.by_label: dict[str, list[int]] = {
            label: sorted(store.label_ids(label)) for label in sorted(self.keys)
        }
        self.as_numbers = sorted(
            store.node_property(node, "asn") for node in self.by_label.get("AS", ())
        )

    # -- schema helpers -----------------------------------------------------

    def _label(self, node: int) -> str:
        labels = self.store.node_labels(node)
        return min(labels) if labels else ""

    def _neighbours(self, node: int, rel_type: str, label: str) -> list[int]:
        return [other for other in self.store.neighbor_ids(node, rel_type)
                if label in self.store.node_labels(other)]

    def _anchor(self, label: str) -> tuple[int, Any]:
        node = self.rng.choice(self.by_label[label])
        return node, self.store.node_property(node, self.keys[label])

    # -- one query per category ---------------------------------------------

    def _point(self) -> Query | None:
        label = self.rng.choice([lb for lb, ids in self.by_label.items() if ids])
        key = self.keys[label]
        _node, value = self._anchor(label)
        return Query("point", f"MATCH (n:{label} {{{key}: $v}}) "
                              f"RETURN n.{key} AS key, labels(n) AS labels",
                     {"v": value})

    def _hop1(self) -> Query | None:
        left, rel_type, right = self.rng.choice(self.triples)
        node, value = self._anchor(left)
        paths = len(self._neighbours(node, rel_type, right))
        if not 1 <= paths <= MAX_PATHS:
            return None
        return Query("hop1", f"MATCH (a:{left} {{{self.keys[left]}: $v}})"
                             f"-[:{rel_type}]-(b:{right}) "
                             f"RETURN b.{self.keys[right]} AS key", {"v": value})

    def _two_hops(self) -> tuple[str, str, str, str, str, Any] | None:
        left, first, middle = self.rng.choice(self.triples)
        onward = [t for t in self.triples if t[0] == middle]
        _, second, right = self.rng.choice(onward)
        node, value = self._anchor(left)
        paths = 0
        for mid in self._neighbours(node, first, middle):
            paths += len(self._neighbours(mid, second, right))
            if paths > MAX_PATHS:
                return None
        if paths == 0:
            return None
        return left, first, middle, second, right, value

    def _hop2(self) -> Query | None:
        found = self._two_hops()
        if found is None:
            return None
        left, first, middle, second, right, value = found
        return Query("hop2", f"MATCH (a:{left} {{{self.keys[left]}: $v}})"
                             f"-[:{first}]-(:{middle})-[:{second}]-(c:{right}) "
                             f"RETURN DISTINCT c.{self.keys[right]} AS key",
                     {"v": value})

    def _aggregate(self) -> Query | None:
        found = self._two_hops()
        if found is None:
            return None
        left, first, middle, second, right, value = found
        key = self.keys[right]
        return Query("aggregate", f"MATCH (a:{left} {{{self.keys[left]}: $v}})"
                                  f"-[:{first}]-(:{middle})-[:{second}]-(c:{right}) "
                                  f"RETURN c.{key} AS key, count(*) AS paths "
                                  f"ORDER BY paths DESC, key LIMIT 10",
                     {"v": value})

    def _moas(self) -> Query | None:
        left, rel_type, middle = self.rng.choice(self.triples)
        node, value = self._anchor(left)
        paths = 0
        for mid in self._neighbours(node, rel_type, middle):
            paths += len(self._neighbours(mid, rel_type, left))
            if paths > MAX_PATHS:
                return None
        if paths < 2:
            return None
        key = self.keys[left]
        return Query("moas", f"MATCH (x:{left} {{{key}: $v}})-[:{rel_type}]-"
                             f"(m:{middle})-[:{rel_type}]-(y:{left}) "
                             f"WHERE x.{key} <> y.{key} "
                             f"RETURN DISTINCT m.{self.keys[middle]} AS shared, "
                             f"y.{key} AS other", {"v": value})

    def _varlen(self) -> Query | None:
        left, rel_type, _ = self.rng.choice(self.triples)
        node, value = self._anchor(left)
        paths = 0
        for mid in self.store.neighbor_ids(node, rel_type):
            paths += 1 + sum(1 for _ in self.store.neighbor_ids(mid, rel_type))
            if paths > MAX_PATHS:
                return None
        return Query("varlen", f"MATCH (a:{left} {{{self.keys[left]}: $v}})"
                               f"-[:{rel_type}*1..2]-(b) "
                               f"RETURN count(DISTINCT b) AS reached", {"v": value})

    # -- corpus and stream ----------------------------------------------------

    def reads(self, per_category: int) -> list[Query]:
        """``per_category`` read queries of each category, all with distinct
        (text, params) keys."""
        makers = {"point": self._point, "hop1": self._hop1, "hop2": self._hop2,
                  "aggregate": self._aggregate, "moas": self._moas,
                  "varlen": self._varlen}
        seen: set = set()
        corpus: list[Query] = []
        for category in CATEGORIES:
            quota = per_category
            made = 0
            for _attempt in range(quota * 50):
                query = makers[category]()
                if query is None or query.key in seen:
                    continue
                seen.add(query.key)
                corpus.append(query)
                made += 1
                if made == quota:
                    break
            if made < quota:
                raise RuntimeError(f"corpus: only {made}/{quota} {category} queries")
        self.rng.shuffle(corpus)
        return corpus

    def stream(self, corpus: list[Query], count: int, zipf_s: float,
               write_fraction: float) -> list[Query]:
        """``count`` requests, ``write_fraction`` of them writes.  A read
        picks its category uniformly, then a key of that category
        Zipf-skewed by its position in ``corpus``.  Fixing the category
        shares keeps the traffic mix, and so the latency tail, the same from
        seed to seed; only which keys are hot changes."""
        keys = {category: [q for q in corpus if q.category == category]
                for category in CATEGORIES}
        ranks = {category: list(itertools.accumulate(
                     1.0 / (rank + 1) ** zipf_s for rank in range(len(queries))))
                 for category, queries in keys.items()}
        out: list[Query] = []
        for index in range(count):
            if self.rng.random() < write_fraction:
                out.append(Query("write", WRITE_QUERY,
                                 {"asn": self.rng.choice(self.as_numbers),
                                  "value": index}))
                continue
            category = self.rng.choice(CATEGORIES)
            cumulative = ranks[category]
            position = bisect.bisect_left(cumulative,
                                          self.rng.random() * cumulative[-1])
            out.append(keys[category][min(position, len(cumulative) - 1)])
        return out
