import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lingcond import (
    Condensation,
    DirectedGraph,
    Partition,
    condense,
    is_dag,
    quotient,
    reverse_cycle,
    support_graph,
    tarjan_scc,
)
from conftest import random_graph, reachability_partition, simple_cycles


class TestDirectedGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            DirectedGraph(3, {(1, 1)})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DirectedGraph(3, {(0, 3)})

    def test_rejects_nonpositive_d(self):
        with pytest.raises(ValueError):
            DirectedGraph(0)

    def test_json_round_trip(self, example_graph):
        data = example_graph.to_json_dict()
        assert data["edges"] == sorted(data["edges"])
        assert DirectedGraph.from_json_dict(data) == example_graph

    def test_non_integral_node_ids_rejected(self):
        # before, int() truncated these to d=3 with edges (0, 1) and (2, 0)
        with pytest.raises(ValueError, match="integer"):
            DirectedGraph.from_json_dict({"d": 3.7, "edges": [[0, 1.5], [2.9, 0]]})
        with pytest.raises(ValueError, match="integer"):
            DirectedGraph.from_json_dict({"d": 3, "edges": [[0, 1.5]]})
        with pytest.raises(ValueError, match="integer"):
            DirectedGraph(3.0)
        with pytest.raises(ValueError, match="integer"):
            DirectedGraph(True)
        assert DirectedGraph(np.int64(3), {(np.int64(0), 2)}).edges == {(0, 2)}

    @pytest.mark.parametrize("data", [
        [], None, {"d": 3}, {"d": 3, "edges": [5]}, {"d": 3, "edges": 5},
        {"d": 3, "edges": [[0, 1, 2]]}, {"d": "3", "edges": []},
        {"d": 3, "edges": [[0, True]]}, {"d": 3, "edges": {}}, {"d": 3, "edges": {"0": 1}},
    ])
    def test_malformed_json_raises_value_error(self, data):
        with pytest.raises(ValueError):
            DirectedGraph.from_json_dict(data)

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5, None])
    def test_an_edge_that_is_no_pair_is_named(self, edge):
        # before, (0, 1, 2) raised "too many values to unpack (expected 2)"
        with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} is not a (src, dst) pair")):
            DirectedGraph(3, {(0, 1), edge})


class TestPartition:
    def test_canonical_enforced(self):
        with pytest.raises(ValueError):
            Partition((1, 0))

    @pytest.mark.parametrize("labels", [(0, 0.9, 1.5), (0, 1.0), (0, True), (0, "1")])
    def test_non_integral_labels_rejected(self, labels):
        # before, int() read (0, 0.9, 1.5) as (0, 0, 1)
        with pytest.raises(ValueError, match="integer"):
            Partition(labels)

    def test_from_labels_canonicalizes(self):
        p = Partition.from_labels(["b", "a", "b", "c"])
        assert p.labels == (0, 1, 0, 2)

    def test_refines(self):
        fine = Partition((0, 1, 2, 3))
        coarse = Partition((0, 0, 1, 1))
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert coarse.refines(coarse)


class TestTarjan:
    def test_example_graph(self, example_graph):
        assert tarjan_scc(example_graph) == Partition((0, 1, 1, 1, 2))

    def test_no_edges_gives_singletons(self):
        assert tarjan_scc(DirectedGraph(4)) == Partition((0, 1, 2, 3))

    def test_matches_reachability_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = int(rng.integers(2, 8))
            g = random_graph(d, float(rng.uniform(0.05, 0.6)), rng)
            assert tarjan_scc(g) == reachability_partition(g)

    @given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_matches_reachability_oracle_at_every_density(self, d, p, seed):
        g = random_graph(d, p, np.random.default_rng(seed))
        assert tarjan_scc(g) == reachability_partition(g)

    def test_long_cycle_and_path_need_no_recursion(self):
        # a DFS that recursed would pass the interpreter's limit (1000) here
        d = 20000
        cycle = DirectedGraph(d, {(i, (i + 1) % d) for i in range(d)})
        assert tarjan_scc(cycle) == Partition((0,) * d)
        path = DirectedGraph(d, {(i, i + 1) for i in range(d - 1)})
        assert tarjan_scc(path) == Partition(tuple(range(d)))


class TestQuotient:
    def test_example_chain(self, example_graph):
        q = quotient(example_graph, Partition((0, 1, 1, 1, 2)))
        assert q.d == 3
        assert q.edges == frozenset({(0, 1), (1, 2)})

    def test_singleton_partition_is_identity(self, example_graph):
        q = quotient(example_graph, Partition((0, 1, 2, 3, 4)))
        assert q.edges == example_graph.edges

    def test_merging_across_layers_creates_cycle(self, example_graph):
        # {X1, X5} | {X2, X3, X4} in zero-indexed labels
        q = quotient(example_graph, Partition((0, 1, 1, 1, 0)))
        assert q.edges == frozenset({(0, 1), (1, 0)})
        assert not is_dag(q)

    def test_dimension_mismatch(self, example_graph):
        with pytest.raises(ValueError):
            quotient(example_graph, Partition((0, 1)))


class TestIsDag:
    def test_chain(self):
        assert is_dag(DirectedGraph(3, {(0, 1), (1, 2)}))

    def test_two_cycle(self):
        assert not is_dag(DirectedGraph(2, {(0, 1), (1, 0)}))

    def test_example_graph(self, example_graph):
        assert not is_dag(example_graph)


class TestCondense:
    def test_example_graph(self, example_graph):
        c = condense(example_graph)
        assert c.partition == Partition((0, 1, 1, 1, 2))
        assert c.cluster_edges == frozenset({(0, 1), (1, 2)})

    def test_dag_input_is_isomorphic(self):
        g = DirectedGraph(4, {(0, 2), (1, 2), (2, 3)})
        c = condense(g)
        assert c.partition.num_clusters == 4
        relabel = c.partition.labels
        assert {(relabel[u], relabel[v]) for u, v in g.edges} == set(c.cluster_edges)

    def test_cycle_reversed_variant_shares_condensation(self, example_graph):
        variant = DirectedGraph(5, {(0, 3), (3, 2), (2, 1), (1, 3), (3, 4)})
        assert condense(variant) == condense(example_graph)

    def test_cluster_graph_always_acyclic(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g = random_graph(int(rng.integers(2, 9)), float(rng.uniform(0.1, 0.7)), rng)
            c = condense(g)
            assert is_dag(DirectedGraph(c.partition.num_clusters, c.cluster_edges))

    @pytest.mark.parametrize("edges", [{(0.7, 1.2)}, {(0, 1.0)}, {(False, True)}])
    def test_condensation_non_integral_cluster_ids_rejected(self, edges):
        # before, int() read {(0.7, 1.2)} as the edge (0, 1)
        with pytest.raises(ValueError, match="integer"):
            Condensation(Partition((0, 1)), edges)

    def test_condensation_validates_acyclicity(self):
        with pytest.raises(ValueError):
            Condensation(Partition((0, 1)), frozenset({(0, 1), (1, 0)}))


class TestReverseCycle:
    def test_example_three_cycle(self, example_graph):
        flipped = reverse_cycle(example_graph, (1, 2, 3, 1))
        assert flipped.edges == frozenset({(0, 1), (2, 1), (3, 2), (1, 3), (1, 4)})

    def test_two_cycle_is_fixed_point(self):
        g = DirectedGraph(2, {(0, 1), (1, 0)})
        assert reverse_cycle(g, (0, 1, 0)).edges == g.edges

    def test_missing_edge_rejected(self, example_graph):
        with pytest.raises(ValueError):
            reverse_cycle(example_graph, (0, 1, 0))

    def test_non_simple_cycle_rejected(self, example_graph):
        with pytest.raises(ValueError):
            reverse_cycle(example_graph, (1, 2, 3, 1, 2, 3, 1))

    @pytest.mark.parametrize("cycle", [(0, 1.2, 2, 0), (0.0, 1, 2, 0.0), (0, True, 2, 0)])
    def test_non_integral_cycle_nodes_rejected(self, cycle):
        # before, int() read (0, 1.2, 2, 0) as (0, 1, 2, 0) and reversed that cycle
        g = DirectedGraph(3, {(0, 1), (1, 2), (2, 0)})
        with pytest.raises(ValueError, match="integer"):
            reverse_cycle(g, cycle)

    def test_condensation_invariant_random(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 200:
            g = random_graph(int(rng.integers(3, 9)), float(rng.uniform(0.15, 0.5)), rng)
            cycles = simple_cycles(g, cap=20)
            if not cycles:
                continue
            cycle = cycles[int(rng.integers(len(cycles)))]
            assert condense(reverse_cycle(g, cycle)) == condense(g)
            checked += 1


class TestSupportGraph:
    def test_edge_convention(self):
        m = np.zeros((3, 3))
        m[2, 0] = 1.5  # encodes 0 -> 2
        assert support_graph(m).edges == frozenset({(0, 2)})

    def test_diagonal_ignored(self):
        m = np.eye(3)
        assert support_graph(m).edges == frozenset()

    def test_requires_square(self):
        with pytest.raises(ValueError):
            support_graph(np.zeros((2, 3)))
