from collections import Counter

import numpy as np
import pytest

from lingcond import (
    DirectedGraph,
    Partition,
    enumerate_partitions,
    is_dag,
    quotient,
    tarjan_scc,
    valid_dag_coarsenings,
    verify_scc_floor,
)
from lingcond.lattice import _stirling_row
from conftest import random_graph


class TestEnumeratePartitions:
    @pytest.mark.parametrize("d,count", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_counts(self, d, count):
        assert len(enumerate_partitions(d)) == count

    def test_counts_match_bell_triangle(self):
        for d in range(1, 9):
            assert len(enumerate_partitions(d)) == sum(_stirling_row(d))

    def test_restricted_growth_order(self):
        parts = enumerate_partitions(3)
        assert parts[0] == Partition((0, 0, 0))
        assert parts[-1] == Partition((0, 1, 2))
        labels = [p.labels for p in parts]
        assert labels == sorted(labels)

    def test_no_duplicates(self):
        parts = enumerate_partitions(6)
        assert len({p.labels for p in parts}) == len(parts)

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_partitions(11)
        with pytest.raises(ValueError, match="integer"):
            enumerate_partitions(2.5)  # before, a raw TypeError


class TestBellNumber:
    # the Bell number of d nodes is the sum of their Stirling row
    def test_known_values(self):
        assert [sum(_stirling_row(d)) for d in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    def test_bell_ten(self):
        assert sum(_stirling_row(10)) == 115975


class TestValidDagCoarsenings:
    def test_example_graph(self, example_graph):
        report = valid_dag_coarsenings(example_graph)
        assert report.total_partitions == 52
        valid = {p.labels for p in report.valid_coarsenings}
        assert valid == {
            (0, 0, 0, 0, 0),          # everything merged
            (0, 1, 1, 1, 1),          # {X1} | {X2 X3 X4 X5}
            (0, 0, 0, 0, 1),          # {X1 X2 X3 X4} | {X5}
            (0, 1, 1, 1, 2),          # SCC floor
        }
        assert report.scc_floor.labels == (0, 1, 1, 1, 2)

    def test_dag_contains_singleton_partition(self):
        g = DirectedGraph(4, {(0, 1), (1, 2), (1, 3)})
        report = valid_dag_coarsenings(g)
        assert Partition((0, 1, 2, 3)) in report.valid_coarsenings

    def test_two_cycle(self):
        g = DirectedGraph(2, {(0, 1), (1, 0)})
        report = valid_dag_coarsenings(g)
        assert report.total_partitions == 2
        assert [p.labels for p in report.valid_coarsenings] == [(0, 0)]

    def test_guard(self):
        with pytest.raises(ValueError):
            valid_dag_coarsenings(DirectedGraph(11))

    def test_counts_by_cluster_count(self, example_graph):
        counts = valid_dag_coarsenings(example_graph).counts_by_cluster_count()
        # Stirling numbers S(5, k) for k = 1..5
        assert {k: t for k, (t, _) in counts.items()} == {1: 1, 2: 15, 3: 25, 4: 10, 5: 1}
        assert {k: v for k, (_, v) in counts.items()} == {1: 1, 2: 2, 3: 1, 4: 0, 5: 0}

    @pytest.mark.parametrize("d", range(1, 8))
    def test_cluster_count_totals_match_enumeration(self, d):
        counts = valid_dag_coarsenings(DirectedGraph(d)).counts_by_cluster_count()
        expected = Counter(p.num_clusters for p in enumerate_partitions(d))
        assert {k: t for k, (t, _) in counts.items()} == dict(expected)

    def test_every_valid_is_coarser_than_floor(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_graph(int(rng.integers(2, 7)), float(rng.uniform(0.1, 0.6)), rng)
            report = valid_dag_coarsenings(g)
            for p in report.valid_coarsenings:
                assert report.scc_floor.refines(p)

    def test_validity_definition(self):
        rng = np.random.default_rng(4)
        g = random_graph(6, 0.3, rng)
        report = valid_dag_coarsenings(g)
        valid = set(report.valid_coarsenings)
        for p in enumerate_partitions(6):
            assert (p in valid) == is_dag(quotient(g, p))


class TestVerifySccFloor:
    def test_example_graph(self, example_graph):
        assert verify_scc_floor(example_graph)

    def test_empty_graph(self):
        g = DirectedGraph(4)
        assert verify_scc_floor(g)
        assert tarjan_scc(g) == Partition((0, 1, 2, 3))

    def test_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(3, 8))
            g = random_graph(d, float(rng.uniform(0.05, 0.6)), rng)
            assert verify_scc_floor(g)

    def test_report_json_shape(self, example_graph):
        data = valid_dag_coarsenings(example_graph).to_json_dict()
        assert data["totalPartitions"] == 52
        assert data["validCount"] == 4
        assert data["sccFloor"] == [0, 1, 1, 1, 2]
        assert data["countsByClusterCount"]["2"] == {"partitions": 15, "valid": 2}
