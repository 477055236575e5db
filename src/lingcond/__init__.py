"""Condensation recovery for linear non-Gaussian cyclic SCMs.

The package learns the SCC-level DAG (condensation) of a cyclic linear
structural causal model from observational samples: FastICA estimates the
demixing matrix, an admissible row permutation maps it to a candidate
adjacency, thresholding yields a graph, and Tarjan's algorithm reads off the
cluster structure. A synthetic generator, a brute-force coarsening-lattice
oracle, evaluation metrics and an experiment harness round out the toolkit.
"""

from .exceptions import (
    NoAdmissiblePermutationError,
    NumericalError,
    SingularModelError,
    WhiteningError,
)
from .graphs import (
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
from .harness import (
    ExperimentRecord,
    GridConfig,
    SampleComplexityConfig,
    run_grid,
    run_sample_complexity,
    summarize_grid,
    summarize_sample_complexity,
)
from .ica import DemixingEstimate, center_whiten, fastica
from .lattice import (
    LatticeReport,
    enumerate_partitions,
    valid_dag_coarsenings,
    verify_scc_floor,
)
from .metrics import MetricsReport, ari, cluster_dag_f1, edge_f1, evaluate, hamming_support
from .recover import (
    CandidateAdjacency,
    RecoveryResult,
    b_from_w,
    enumerate_admissible,
    first_stable_select,
    hungarian_admissible,
    recover_condensation,
    threshold,
)
from .scm import (
    NoiseSpec,
    ScmSpec,
    WeightedAdjacency,
    generate_scm,
    hard_cluster_intervention,
    sample,
    soft_cluster_intervention,
    spectral_radius,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateAdjacency",
    "Condensation",
    "DemixingEstimate",
    "DirectedGraph",
    "ExperimentRecord",
    "GridConfig",
    "LatticeReport",
    "MetricsReport",
    "NoAdmissiblePermutationError",
    "NoiseSpec",
    "NumericalError",
    "Partition",
    "RecoveryResult",
    "SampleComplexityConfig",
    "ScmSpec",
    "SingularModelError",
    "WeightedAdjacency",
    "WhiteningError",
    "ari",
    "b_from_w",
    "center_whiten",
    "cluster_dag_f1",
    "condense",
    "edge_f1",
    "enumerate_admissible",
    "enumerate_partitions",
    "evaluate",
    "fastica",
    "first_stable_select",
    "generate_scm",
    "hamming_support",
    "hard_cluster_intervention",
    "hungarian_admissible",
    "is_dag",
    "quotient",
    "recover_condensation",
    "reverse_cycle",
    "run_grid",
    "run_sample_complexity",
    "sample",
    "soft_cluster_intervention",
    "spectral_radius",
    "summarize_grid",
    "summarize_sample_complexity",
    "support_graph",
    "tarjan_scc",
    "threshold",
    "valid_dag_coarsenings",
    "verify_scc_floor",
]
