"""Directed-graph core: SCCs, quotients, condensations, closures, cycle edits.

Conventions used throughout the package:

* nodes are the integers ``0 .. d-1``;
* an edge is an ordered pair ``(src, dst)`` with ``src != dst``;
* a weighted adjacency matrix ``B`` encodes the edge ``j -> i`` in entry
  ``B[i, j]`` (row i is the equation of node i), so :func:`support_graph`
  is the single place where matrices are turned into graphs;
* partitions are canonical: cluster ids are assigned by order of first
  appearance when scanning nodes ``0 .. d-1``, which makes partition
  equality a plain tuple comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import integer, square_matrix


@dataclass(frozen=True)
class DirectedGraph:
    """A simple directed graph on nodes 0..d-1 without self-loops."""

    d: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        d = integer(self.d, "node count")
        edges = frozenset((integer(u, "node id"), integer(v, "node id")) for u, v in self.edges)
        if d < 1:
            raise ValueError("node count must be positive")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) is not allowed")
            if not (0 <= u < self.d and 0 <= v < self.d):
                raise ValueError(f"edge ({u}, {v}) out of range for d={self.d}")

    def successors(self) -> list:
        """Adjacency lists, each sorted ascending."""
        adj = [[] for _ in range(self.d)]
        for u, v in self.edges:
            adj[u].append(v)
        for lst in adj:
            lst.sort()
        return adj

    def to_json_dict(self) -> dict:
        return {"d": self.d, "edges": [list(e) for e in sorted(self.edges)]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DirectedGraph":
        """Graph from ``{"d": d, "edges": [[src, dst], ...]}``; ValueError if malformed."""
        try:
            return cls(data["d"], frozenset(tuple(e) for e in data["edges"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed graph JSON: {exc!r}") from exc


@dataclass(frozen=True)
class Partition:
    """A canonical node partition: ``labels[i]`` is the cluster of node i."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(integer(x, "partition label") for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("partition of zero nodes is not allowed")
        seen = -1
        for lab in labels:
            if lab > seen + 1 or lab < 0:
                raise ValueError(
                    "labels are not canonical (ids must appear in first-use order)"
                )
            seen = max(seen, lab)

    @classmethod
    def from_labels(cls, raw: Sequence) -> "Partition":
        """Build a Partition from arbitrary hashable labels, canonicalizing."""
        mapping = {}
        labels = []
        for lab in raw:
            if lab not in mapping:
                mapping[lab] = len(mapping)
            labels.append(mapping[lab])
        return cls(tuple(labels))

    @property
    def d(self) -> int:
        return len(self.labels)

    @property
    def num_clusters(self) -> int:
        return max(self.labels) + 1

    def clusters(self) -> list:
        """Node groups as sorted lists, ordered by cluster id."""
        groups = [[] for _ in range(self.num_clusters)]
        for node, lab in enumerate(self.labels):
            groups[lab].append(node)
        return groups

    def refines(self, other: "Partition") -> bool:
        """True when every cluster of self lies inside a cluster of other."""
        if self.d != other.d:
            raise ValueError("partitions are over different node counts")
        image = {}
        for mine, theirs in zip(self.labels, other.labels):
            if mine in image and image[mine] != theirs:
                return False
            image[mine] = theirs
        return True


@dataclass(frozen=True)
class Condensation:
    """An SCC partition together with the acyclic graph over its clusters."""

    partition: Partition
    cluster_edges: frozenset

    def __post_init__(self):
        graph = DirectedGraph(self.partition.num_clusters, self.cluster_edges)  # checks the ids
        object.__setattr__(self, "cluster_edges", graph.edges)
        if not is_dag(graph):
            raise ValueError("cluster graph of a condensation must be acyclic")

    def cluster_graph(self) -> DirectedGraph:
        return DirectedGraph(self.partition.num_clusters, self.cluster_edges)


def tarjan_scc(g: DirectedGraph) -> Partition:
    """Strongly connected components via Tarjan's algorithm (iterative).

    Returns the canonical SCC partition: nodes share a label iff they are
    mutually reachable. Linear in d + |edges|.
    """
    adj = g.successors()
    d = g.d
    index = [-1] * d
    low = [0] * d
    on_stack = [False] * d
    stack = []
    comp = [-1] * d
    counter = 0
    n_comp = 0

    for root in range(d):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, i = work[-1]
            if i < len(adj[v]):
                work[-1] = (v, i + 1)
                w = adj[v][i]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1
    return Partition.from_labels(comp)


def quotient(g: DirectedGraph, p: Partition) -> DirectedGraph:
    """Quotient graph over the clusters of p; self-loops dropped, duplicates collapsed."""
    if p.d != g.d:
        raise ValueError(f"partition is over {p.d} nodes, graph has {g.d}")
    labels = p.labels
    edges = set()
    for u, v in g.edges:
        a, b = labels[u], labels[v]
        if a != b:
            edges.add((a, b))
    return DirectedGraph(p.num_clusters, frozenset(edges))


def is_dag(g: DirectedGraph) -> bool:
    """True iff g has no directed cycle, i.e. every SCC is a singleton."""
    return tarjan_scc(g).num_clusters == g.d


def condense(g: DirectedGraph) -> Condensation:
    """The SCC partition of g together with the quotient's edges."""
    p = tarjan_scc(g)
    q = quotient(g, p)
    return Condensation(p, q.edges)


def transitive_closure(g: DirectedGraph) -> DirectedGraph:
    """Graph with an edge (u, v) iff g has a directed path from u to v.

    Reflexive pairs are excluded: DirectedGraph forbids self-loops, and
    dropping them does not affect mutual reachability or SCCs.
    """
    d = g.d
    reach = np.zeros((d, d), dtype=bool)
    for u, v in g.edges:
        reach[u, v] = True
    for k in range(d):
        reach |= np.outer(reach[:, k], reach[k, :])
    np.fill_diagonal(reach, False)
    src, dst = np.nonzero(reach)
    return DirectedGraph(d, frozenset(zip(src.tolist(), dst.tolist())))


def reverse_cycle(g: DirectedGraph, cycle: Sequence) -> DirectedGraph:
    """Reverse a simple directed cycle of g, leaving all other edges intact.

    ``cycle`` lists the nodes in order with the first node repeated last,
    e.g. ``(1, 2, 3, 1)``. Raises ValueError if the cycle is not a simple
    directed cycle of g.
    """
    cyc = [integer(v, "cycle node") for v in cycle]
    if len(cyc) < 3 or cyc[0] != cyc[-1]:
        raise ValueError("cycle must repeat its first node last and have length >= 2")
    interior = cyc[:-1]
    if len(set(interior)) != len(interior):
        raise ValueError("cycle visits a node twice")
    cycle_edges = list(zip(cyc[:-1], cyc[1:]))
    for e in cycle_edges:
        if e not in g.edges:
            raise ValueError(f"cycle edge {e} is not present in the graph")
    edges = set(g.edges)
    edges.difference_update(cycle_edges)
    edges.update((b, a) for a, b in cycle_edges)
    return DirectedGraph(g.d, frozenset(edges))


def support_graph(matrix) -> DirectedGraph:
    """Directed graph of the nonzero off-diagonal pattern of a square matrix.

    Entry ``matrix[i, j] != 0`` becomes the edge ``j -> i`` (the global
    edge-direction convention for weighted adjacencies).
    """
    m = square_matrix(matrix, "support_graph input")
    rows, cols = np.nonzero(m)
    edges = frozenset((j, i) for i, j in zip(rows.tolist(), cols.tolist()) if i != j)
    return DirectedGraph(m.shape[0], edges)
