import numpy as np
import pytest

from lingcond import (
    Condensation,
    DirectedGraph,
    MetricsReport,
    Partition,
    ari,
    cluster_dag_f1,
    condense,
    edge_f1,
    evaluate,
    hamming_support,
    support_graph,
)
from conftest import ari_pair_counting, random_graph, random_partition, reachability_partition


class TestAri:
    def test_identical_partitions(self):
        p = Partition((0, 1, 1, 2))
        assert ari(p, p) == 1.0

    def test_singletons_vs_one_pair(self):
        truth = Partition((0, 0, 1))
        pred = Partition((0, 1, 2))
        assert ari(pred, truth) == 0.0

    def test_matches_pair_counting_oracle_exactly(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            pred, truth = random_partition(d, rng), random_partition(d, rng)
            assert ari(pred, truth) == ari_pair_counting(pred, truth)

    def test_symmetry(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            a, b = random_partition(d, rng), random_partition(d, rng)
            assert ari(a, b) == ari(b, a)

    def test_degenerate_cases_score_one(self):
        assert ari(Partition((0,)), Partition((0,))) == 1.0
        assert ari(Partition((0, 1, 2)), Partition((0, 1, 2))) == 1.0
        assert ari(Partition((0, 0, 0)), Partition((0, 0, 0))) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ari(Partition((0, 1)), Partition((0, 1, 2)))


class TestEdgeF1:
    def test_identical_nonempty(self):
        edges = {(0, 1), (1, 2)}
        assert edge_f1(edges, edges) == 1.0

    def test_half_overlap(self):
        assert edge_f1({(0, 1), (2, 1)}, {(0, 1), (1, 2)}) == 0.5

    def test_both_empty(self):
        assert edge_f1(set(), set()) == 1.0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = {(int(u), int(v)) for u, v in rng.integers(0, 5, (6, 2)) if u != v}
            b = {(int(u), int(v)) for u, v in rng.integers(0, 5, (6, 2)) if u != v}
            assert edge_f1(a, b) == edge_f1(b, a)

    def test_counting_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            a = {(int(u), int(v)) for u, v in rng.integers(0, 6, (8, 2)) if u != v}
            b = {(int(u), int(v)) for u, v in rng.integers(0, 6, (8, 2)) if u != v}
            tp = sum(1 for e in a if e in b)
            fp = sum(1 for e in a if e not in b)
            fn = sum(1 for e in b if e not in a)
            expected = 1.0 if tp == fp == fn == 0 else 2 * tp / (2 * tp + fp + fn)
            assert edge_f1(a, b) == expected


class TestClusterDagF1:
    def test_true_support_scores_one(self, example_graph):
        cond = condense(example_graph)
        assert cluster_dag_f1(example_graph, cond) == 1.0

    def test_empty_prediction_scores_zero(self, example_graph):
        cond = condense(example_graph)
        empty = DirectedGraph(5)
        assert cluster_dag_f1(empty, cond) == 0.0

    def test_cycle_reversal_inside_scc_is_invisible(self, example_graph):
        variant = DirectedGraph(5, {(0, 3), (3, 2), (2, 1), (1, 3), (3, 4)})
        cond = condense(example_graph)
        assert cluster_dag_f1(variant, cond) == 1.0

    def test_dimension_mismatch(self, example_graph):
        with pytest.raises(ValueError):
            cluster_dag_f1(DirectedGraph(2), condense(example_graph))


class TestHammingSupport:
    def test_equal_supports(self, example_b):
        assert hamming_support(example_b.support(), example_b.support()) == 0

    def test_zero_vs_example(self, example_b):
        zero = DirectedGraph(5)
        assert hamming_support(zero, example_b.support()) == 5

    def test_xor_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            a = rng.random((d, d)) * (rng.random((d, d)) < 0.4)
            b = rng.random((d, d)) * (rng.random((d, d)) < 0.4)
            np.fill_diagonal(a, 0)
            np.fill_diagonal(b, 0)
            expected = sum(
                1
                for i in range(d)
                for j in range(d)
                if i != j and (a[i, j] != 0) != (b[i, j] != 0)
            )
            assert hamming_support(support_graph(a), support_graph(b)) == expected

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hamming_support(DirectedGraph(2), DirectedGraph(3))


class TestReports:
    def test_report_bounds_enforced(self):
        with pytest.raises(ValueError):
            MetricsReport(1.0, 1.2, 1.0, 0, 1)
        with pytest.raises(ValueError):
            MetricsReport(1.0, 1.0, 1.0, -1, 1)

    def test_evaluate_against_self(self, example_graph, example_b):
        truth = condense(example_b.support())
        report = evaluate(example_graph, condense(example_graph), example_b.support(), truth)
        assert report.ari == 1.0
        assert report.cluster_dag_f1 == 1.0
        assert report.variable_f1 == 1.0
        assert report.hamming_support == 0
        assert report.predicted_partition_size == 3

    def test_evaluate_matches_independent_oracles(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            d = int(rng.integers(2, 9))
            pred = random_graph(d, rng.random() * 0.5, rng)
            true = random_graph(d, rng.random() * 0.5, rng)
            pred_p, true_p = reachability_partition(pred), reachability_partition(true)
            labels = true_p.labels
            cluster_edges = {(labels[u], labels[v]) for u, v in true.edges
                             if labels[u] != labels[v]}
            projected = {(labels[u], labels[v]) for u, v in pred.edges
                         if labels[u] != labels[v]}
            only_one = sum(
                1
                for u in range(d)
                for v in range(d)
                if ((u, v) in pred.edges) != ((u, v) in true.edges)
            )
            # both condensations from the oracle partitions, none from tarjan_scc
            pred_edges = {(pred_p.labels[u], pred_p.labels[v]) for u, v in pred.edges
                          if pred_p.labels[u] != pred_p.labels[v]}
            report = evaluate(pred, Condensation(pred_p, frozenset(pred_edges)),
                              true, Condensation(true_p, frozenset(cluster_edges)))
            assert report.ari == ari_pair_counting(pred_p, true_p)
            assert report.cluster_dag_f1 == edge_f1(projected, cluster_edges)
            assert report.variable_f1 == edge_f1(pred.edges, true.edges)
            assert report.hamming_support == only_one
            assert report.predicted_partition_size == pred_p.num_clusters

    def test_evaluate_node_count_mismatch(self, example_graph):
        small, large = DirectedGraph(4), DirectedGraph(6)
        with pytest.raises(ValueError):
            evaluate(small, condense(small), example_graph, condense(example_graph))
        with pytest.raises(ValueError):
            evaluate(example_graph, condense(example_graph), large, condense(large))

    def test_evaluate_scores_the_condensation_it_is_given(self, example_graph):
        # the fit decides which condensation it predicts: evaluate reads the
        # partition it is given, here one cluster, not condense(pred_support)
        truth = condense(example_graph)
        merged = Condensation(Partition((0,) * 5), frozenset())
        assert merged != condense(example_graph)
        report = evaluate(example_graph, merged, example_graph, truth)
        assert report.predicted_partition_size == 1
        assert report.ari == ari(merged.partition, truth.partition) < 1.0
        # the edge scores read the supports
        assert (report.cluster_dag_f1, report.variable_f1, report.hamming_support) == (1.0, 1.0, 0)
