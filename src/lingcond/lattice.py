"""Brute-force coarsening-lattice oracle.

Enumerates every set partition of the nodes (restricted-growth strings, so
the output is already in canonical labeling), filters the ones whose
quotient graph is acyclic, and verifies that the SCC partition is the finest
such coarsening. Intended for desk-scale verification only; the node count
is hard-capped because partition counts grow as Bell numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter

from .exceptions import integer
from .graphs import DirectedGraph, Partition, is_dag, quotient, tarjan_scc

MAX_NODES = 10  # Bell(10) = 115975


def _stirling_row(d: int) -> list:
    """[S(d, 0), ..., S(d, d)]: set partitions of d nodes by cluster count.

    Stirling numbers of the second kind, S(m, k) = k S(m-1, k) + S(m-1, k-1).
    """
    row = [1]
    for m in range(1, d + 1):
        prev = row + [0]
        row = [0] + [k * prev[k] + prev[k - 1] for k in range(1, m + 1)]
    return row


def enumerate_partitions(d: int) -> list:
    """All set partitions of 0..d-1 in restricted-growth-string order."""
    if integer(d, "d") < 1:
        raise ValueError("d must be positive")
    if d > MAX_NODES:
        raise ValueError(f"d={d} exceeds the enumeration guard ({MAX_NODES})")
    out = []
    labels = [0] * d

    def rec(i, top):
        if i == d:
            out.append(Partition(tuple(labels)))
            return
        for lab in range(top + 2):
            labels[i] = lab
            rec(i + 1, max(top, lab))

    rec(1, 0)
    return out


@dataclass(frozen=True)
class LatticeReport:
    """Exhaustive DAG-coarsening census of one graph."""

    d: int
    total_partitions: int
    valid_coarsenings: tuple
    scc_floor: Partition

    def counts_by_cluster_count(self) -> dict:
        """{number of clusters: (total partitions, valid coarsenings)}."""
        total = _stirling_row(self.d)
        valid = Counter(p.num_clusters for p in self.valid_coarsenings)
        return {k: (total[k], valid.get(k, 0)) for k in range(1, self.d + 1)}

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "totalPartitions": self.total_partitions,
            "validCount": len(self.valid_coarsenings),
            "validCoarsenings": [list(p.labels) for p in self.valid_coarsenings],
            "sccFloor": list(self.scc_floor.labels),
            "countsByClusterCount": {
                str(k): {"partitions": t, "valid": v}
                for k, (t, v) in self.counts_by_cluster_count().items()
            },
        }


def valid_dag_coarsenings(g: DirectedGraph) -> LatticeReport:
    """Filter the full partition lattice of g down to the DAG-coarsenings."""
    all_parts = enumerate_partitions(g.d)
    valid = tuple(p for p in all_parts if is_dag(quotient(g, p)))
    return LatticeReport(
        d=g.d,
        total_partitions=len(all_parts),
        valid_coarsenings=valid,
        scc_floor=tarjan_scc(g),
    )


def verify_scc_floor(g: DirectedGraph) -> bool:
    """Exhaustively check that the SCC partition is the finest DAG-coarsening.

    True iff (a) every valid coarsening keeps each SCC inside one cluster,
    and (b) the SCC partition is itself a valid coarsening.
    """
    report = valid_dag_coarsenings(g)
    floor = report.scc_floor
    if floor not in report.valid_coarsenings:
        return False
    return all(floor.refines(p) for p in report.valid_coarsenings)
