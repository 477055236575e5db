"""Shared fixtures and independent oracles used across the test modules."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

from lingcond import DirectedGraph, Partition, WeightedAdjacency

# property tests draw the same examples on every run and have no time limit,
# so tier-1 neither flakes nor depends on how fast the host is at the moment
settings.register_profile(
    "lingcond", derandomize=True, deadline=None, max_examples=200, database=None
)
# a longer run (3,000 examples per test), chosen on the command line with
# --hypothesis-profile=deep, which overrides the profile loaded here
settings.register_profile("deep", parent=settings.get_profile("lingcond"), max_examples=3000)
settings.load_profile("lingcond")


@pytest.fixture
def one_restart(monkeypatch):
    """Run every FastICA fit with one restart, which keeps study tests small."""
    monkeypatch.setattr("lingcond.ica._RESTARTS", 1)


@pytest.fixture
def example_graph():
    """The five-variable golden graph: 0->1, 1->2, 2->3, 3->1, 1->4."""
    return DirectedGraph(5, {(0, 1), (1, 2), (2, 3), (3, 1), (1, 4)})


@pytest.fixture
def example_b():
    """Weights of the golden SCM (B[i, j] encodes j -> i)."""
    b = np.zeros((5, 5))
    b[1, 0] = 1.2
    b[1, 3] = -0.3
    b[2, 1] = 2.0
    b[3, 2] = -1.0
    b[4, 1] = 3.0
    return WeightedAdjacency(b)


def random_graph(d, p, rng):
    """Erdos-Renyi digraph: each ordered pair is an edge with probability p."""
    edges = {
        (u, v)
        for u in range(d)
        for v in range(d)
        if u != v and rng.random() < p
    }
    return DirectedGraph(d, frozenset(edges))


def reachability_partition(g):
    """Mutual-reachability partition by brute-force BFS closure."""
    adj = g.successors()
    reach = []
    for s in range(g.d):
        seen = {s}
        queue = [s]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        reach.append(seen)
    labels = [
        frozenset(v for v in range(g.d) if v in reach[u] and u in reach[v])
        for u in range(g.d)
    ]
    return Partition.from_labels(labels)


def simple_cycles(g, cap=None):
    """All simple directed cycles, each as a node list with the start repeated.

    DFS rooted at each node s over paths restricted to nodes >= s, so every
    cycle is reported exactly once (at its smallest node). Enumeration order
    is deterministic; an optional cap bounds the output size.
    """
    adj = g.successors()
    cycles = []

    def dfs(s, v, path, on_path):
        for w in adj[v]:
            if w < s:
                continue
            if w == s:
                cycles.append(path + [s])
                if cap is not None and len(cycles) >= cap:
                    return True
            elif w not in on_path:
                path.append(w)
                on_path.add(w)
                if dfs(s, w, path, on_path):
                    return True
                path.pop()
                on_path.remove(w)
        return False

    for s in range(g.d):
        if dfs(s, s, [s], {s}):
            break
    return cycles


def ari_pair_counting(pred, truth):
    """Adjusted Rand index by direct O(d^2) pair confusion counting."""
    n11 = n10 = n01 = n00 = 0
    for i, j in itertools.combinations(range(truth.d), 2):
        same_t = truth.labels[i] == truth.labels[j]
        same_p = pred.labels[i] == pred.labels[j]
        if same_t and same_p:
            n11 += 1
        elif same_t:
            n10 += 1
        elif same_p:
            n01 += 1
        else:
            n00 += 1
    num = 2 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 1.0
    return num / den


def random_partition(d, rng):
    return Partition.from_labels([int(rng.integers(0, d)) for _ in range(d)])


def best_assignment_brute(w, eta):
    """Brute-force argmax of sum_i log|W[p_i, i]| over admissible permutations.

    Slot i admits row r when |W[r, i]| > eta * max_j |W[r, j]|.
    """
    d = w.shape[0]
    best_perm, best_score = None, -math.inf
    for perm in itertools.permutations(range(d)):
        mags = [abs(w[perm[i], i]) for i in range(d)]
        if any(m <= eta * max(abs(v) for v in w[perm[i]]) for i, m in enumerate(mags)):
            continue
        score = sum(math.log(m) for m in mags)
        if score > best_score:
            best_perm, best_score = perm, score
    return best_perm, best_score


# a samples CSV that stops parsing, and where its message says it stops
BAD_SAMPLE_LINES = [
    ("X1,X2\n1.5,2.5\n#3,4\n", "line 3: '#3' is not a number"),
    ("X1,X2\n\n1.5,2.5\n\n1,x\n", "line 5: 'x' is not a number"),
    ("X1,X2\n1,2\n\n3\n", "line 4: the header names 2 columns, the line 1"),
]
