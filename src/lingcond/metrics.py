"""Evaluation metrics of given condensations and supports: ARI, edge F1, support Hamming."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import Condensation, DirectedGraph, Partition, quotient


def ari(pred: Partition, truth: Partition) -> float:
    """Hubert-Arabie adjusted Rand index between two partitions.

    Computed with exact integer arithmetic and a single final division, so
    the result is the correctly rounded value of the underlying rational.
    Degenerate comparisons (denominator zero, e.g. both partitions trivial)
    score 1.0 by convention.
    """
    if pred.d != truth.d:
        raise ValueError("partitions are over different node counts")
    n = pred.d
    joint = Counter(zip(truth.labels, pred.labels))
    rows = Counter(truth.labels)
    cols = Counter(pred.labels)
    sum_joint = sum(c * (c - 1) // 2 for c in joint.values())
    sum_rows = sum(c * (c - 1) // 2 for c in rows.values())
    sum_cols = sum(c * (c - 1) // 2 for c in cols.values())
    total = n * (n - 1) // 2
    num = 2 * (total * sum_joint - sum_rows * sum_cols)
    den = total * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if den == 0:
        return 1.0
    return num / den


def edge_f1(pred_edges, true_edges) -> float:
    """Micro-averaged F1 over directed edges; 1.0 when both sets are empty."""
    pred = set(pred_edges)
    true = set(true_edges)
    tp = len(pred & true)
    fp = len(pred - true)
    fn = len(true - pred)
    if tp == fp == fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


def cluster_dag_f1(pred_support: DirectedGraph, true_condensation: Condensation) -> float:
    """F1 of predicted edges projected onto the true SCC partition.

    The projection is the quotient by the *true* partition (intra-cluster
    edges drop out), scored against the true condensation's cluster edges.
    """
    projected = quotient(pred_support, true_condensation.partition)
    return edge_f1(projected.edges, true_condensation.cluster_edges)


def hamming_support(pred_support: DirectedGraph, true_support: DirectedGraph) -> int:
    """Number of edges present in exactly one of two supports on the same nodes."""
    if pred_support.d != true_support.d:
        raise ValueError("prediction and truth disagree on node count")
    return len(pred_support.edges ^ true_support.edges)


@dataclass(frozen=True)
class MetricsReport:
    """One evaluation row: partition, edge and support agreement scores."""

    ari: float
    cluster_dag_f1: float
    variable_f1: float
    hamming_support: int
    predicted_partition_size: int

    def __post_init__(self):
        if not (self.ari <= 1.0 + 1e-12):
            raise ValueError("ari cannot exceed 1")
        for name in ("cluster_dag_f1", "variable_f1"):
            val = getattr(self, name)
            if not (0.0 <= val <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.hamming_support < 0:
            raise ValueError("hamming_support must be non-negative")


def evaluate(pred_support: DirectedGraph, pred: Condensation,
             true_support: DirectedGraph, truth: Condensation) -> MetricsReport:
    """Score a recovered support and condensation against the true ones, each as given."""
    return MetricsReport(
        hamming_support=hamming_support(pred_support, true_support),  # first: checks the d's
        ari=ari(pred.partition, truth.partition),
        cluster_dag_f1=cluster_dag_f1(pred_support, truth),
        variable_f1=edge_f1(pred_support.edges, true_support.edges),
        predicted_partition_size=pred.partition.num_clusters,
    )
