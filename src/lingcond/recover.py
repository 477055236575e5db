"""Condensation recovery: admissible permutations, candidates, thresholding.

The pipeline estimates a demixing matrix by FastICA, picks one or more row
permutations made of rook slots, entries above a fixed fraction of their
row's largest magnitude (``_rook_slots``), maps each to a candidate
adjacency ``B = I - diag(PW)^{-1} PW``, hard-thresholds, and reads the SCC
partition and inter-cluster edges off the surviving support. Two selection
modes are offered:

* ``hungarian`` (the default): one permutation from a min-cost assignment
  (``_min_cost_assignment``) in which entries that are not rook slots cost
  ``inf``; when no assignment has finite cost, that is raised as
  ``NoAdmissiblePermutationError``.
* ``enumerate-first-stable``, for experiments that also score
  variable-level structure: ``first_stable_select``, the one implementation
  of the first-stable rule, reads a pruned candidate stream. The stream
  enumerates permutations lazily in lexicographic order, whole arrays of
  them at a time, scores them in blocks that double from one candidate up
  to a ceiling, and on every block drops the candidates that a trace bound
  proves to lie above the smallest radius yielded so far; the rest it
  yields in enumeration order with their ``eigvals`` radii.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .exceptions import NoAdmissiblePermutationError, finite, integer, square_matrix
from .graphs import Condensation, DirectedGraph, Partition, condense, support_graph
from .ica import fastica
from .scm import _radii

MODES = ("hungarian", "enumerate-first-stable")

ENUMERATION_MAX_D = 12

# pipeline defaults: the hard threshold on |b|; eta, the fraction of row r's
# largest magnitude that |W[r, i]| must exceed for (r, i) to be a rook slot
# (``_rook_slots``), which Hungarian fits always cut at; and the cap on the
# candidates the first-stable scan builds
DEFAULT_TAU = 0.1
DEFAULT_ETA = 1e-3
DEFAULT_ENUM_CAP = 20000

# the first-stable scan's significance floor: its rook slots are cut at _SCAN_FLOOR
_SCAN_FLOOR = 0.1

# the most candidates scored per batched eigenvalue call in the first-stable scan
_SCAN_BLOCK = 128
_UNIT_ROUNDOFF = 2.0**-53
# the powers j whose traces bound the spectral radius
_TRACE_POWERS = np.arange(2, 9)


@dataclass(frozen=True)
class CandidateAdjacency:
    """One candidate B produced from a row permutation of the demixing matrix."""

    b: np.ndarray
    permutation: tuple
    spectral_radius: float

    def support(self) -> DirectedGraph:
        return support_graph(self.b)


def check_tau(tau) -> float:
    """``tau`` as a float; ValueError unless it is a finite non-negative threshold."""
    if (tau := finite(tau, "tau")) < 0:
        raise ValueError(f"tau must be finite and non-negative, got {tau}")
    return tau


def _rook_slots(m: np.ndarray, cut: float) -> np.ndarray:
    """The admissibility rule: ``(r, i)`` is a rook slot iff ``|W[r, i]| > cut max_j |W[r, j]|``.

    ICA leaves the scale of each row of ``W`` free, and ``b_from_w`` cancels
    it, so a cut relative to the row's largest magnitude makes the admissible
    permutations, like the candidates, independent of the units of the data.
    """
    mags = np.abs(m)
    return mags > cut * mags.max(axis=1, keepdims=True)


def _min_cost_assignment(cost: np.ndarray) -> list | None:
    """Column of each row in a min-cost perfect assignment of a square ``cost``.

    ``cost`` holds finite values or ``+inf``; ``None`` when every perfect
    assignment uses an ``inf`` entry. The shortest-augmenting-path algorithm
    of Crouse (2016, *IEEE Trans. AES* 52(4)) as scipy's
    ``linear_sum_assignment`` runs it, step for step, so it returns the same
    assignment, ties included. Row ``cur`` is added by a Dijkstra search
    over reduced costs ``((min_val + cost[i, j]) - u[i]) - v[j]``, vectorised
    over the columns still ``remaining``; those are listed in reverse order
    and shrunk by moving the last into the taken one's place. Of the columns
    at the minimum, the search takes the last one in ``remaining`` that is
    unassigned, else the first. It ends at an unassigned column, the duals
    ``u, v`` are updated, and the path is flipped.
    """
    d = cost.shape[0]
    u, v = np.zeros(d), np.zeros(d)
    shortest = np.empty(d)  # shortest reduced path cost to each column
    path = np.empty(d, np.intp)  # the row each column is reached from
    col4row, row4col = [-1] * d, np.full(d, -1, np.intp)
    for cur in range(d):
        remaining = np.arange(d - 1, -1, -1)
        shortest.fill(np.inf)
        rows, cols = [], []  # the rows and columns the search has settled
        min_val, i, k = 0.0, cur, d
        while True:
            rows.append(i)
            rem = remaining[:k]
            reduced = ((min_val + cost[i, rem]) - u[i]) - v[rem]
            old = shortest[rem]
            better = reduced < old
            path[rem[better]] = i
            shortest[rem] = vals = np.where(better, reduced, old)
            lowest = vals.min()
            if lowest == np.inf:
                return None
            hits = np.flatnonzero(vals == lowest)
            index = hits[0]
            if len(hits) > 1:
                free = hits[row4col[rem[hits]] < 0]
                if len(free):
                    index = free[-1]
            j = int(rem[index])
            min_val = shortest[j]
            cols.append(j)
            k -= 1
            remaining[index] = remaining[k]
            if (i := int(row4col[j])) < 0:
                break
        u[cur] += min_val
        others = rows[1:]
        u[others] += min_val - shortest[[col4row[r] for r in others]]
        v[cols] -= min_val - shortest[cols]
        while True:  # flip the path back from the unassigned column j to row cur
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def hungarian_admissible(w) -> tuple:
    """Permutation maximizing sum_i log|(PW)_ii| over admissible assignments.

    Solved as a min-cost assignment (``_min_cost_assignment``) with cost
    -log|W[r, i]| for placing row r at slot i; slots that are not rook slots
    at ``cut = DEFAULT_ETA`` (1e-3, ``_rook_slots``) cost ``inf``. Scaling a
    row shifts all its costs by one constant, so the assignment does not
    depend on row scale either. Returns ``perm`` with ``perm[i]`` the source
    row for slot i, so ``PW = W[perm, :]``. Raises
    NoAdmissiblePermutationError when every perfect matching uses a slot
    that is not a rook slot.
    """
    m = square_matrix(w, "demixing matrix")
    mags = np.abs(m.T)  # cost[i, r] scores row r at slot i
    cost = -np.log(mags, out=np.full(mags.shape, -np.inf), where=_rook_slots(m, DEFAULT_ETA).T)
    if (rows := _min_cost_assignment(cost)) is None:
        raise NoAdmissiblePermutationError(
            f"no permutation keeps every diagonal magnitude above eta={DEFAULT_ETA} "
            "of its row's largest"
        )
    return tuple(rows)


def _admissible_blocks(ok: np.ndarray, size: int):
    """Yield the admissible permutations as ``(k, d)`` intp blocks, ``k <= size``.

    ``ok[r, i]`` marks row r as usable at slot i; the blocks concatenate to
    every admissible permutation in lexicographic order. A DFS over chunks
    of prefixes, one chunk per filled length and the longest on top of the
    stack: the first ``size`` prefixes of the top chunk are extended at once
    by every allowed row they have not used. ``np.nonzero`` over the
    ``(k, d)`` mask of free allowed rows lists the children prefix-major and
    row-minor, which is lexicographic order, and they are pushed above the
    rest of their parents' chunk. Free rows are a bool array, not a bitmask,
    so any ``d`` works.
    """
    d = ok.shape[0]
    stack = [(0, np.zeros((1, d), np.intp), np.ones((1, d), bool))]
    while stack:
        slot, perms, free = stack.pop()
        if len(perms) > size:
            stack.append((slot, perms[size:], free[size:]))
            perms, free = perms[:size], free[:size]
        if slot == d:
            yield perms
            continue
        parent, row = np.nonzero(free & ok[:, slot])
        if len(parent):
            perms, free = perms[parent], free[parent]
            perms[:, slot] = row
            free[np.arange(len(row)), row] = False
            stack.append((slot + 1, perms, free))


def enumerate_admissible(w, eta: float = DEFAULT_ETA) -> list:
    """All permutations made of rook slots at ``cut = eta``, in lexicographic order.

    That is, every ``|(PW)_ii| > eta max_j |(PW)_ij|`` (``_rook_slots``);
    ValueError unless ``0 < eta < 1`` (at 1 no slot is admissible). Guarded
    at d <= 12: the admissible count is a permanent and can reach d!.
    """
    if not 0 < (eta := finite(eta, "eta")) < 1:
        raise ValueError(f"eta must be finite and in (0, 1), got {eta}")
    m = square_matrix(w, "demixing matrix")
    if m.shape[0] > ENUMERATION_MAX_D:
        raise ValueError(
            f"enumeration is guarded at d <= {ENUMERATION_MAX_D}, got d={m.shape[0]}"
        )
    return [
        tuple(p) for block in _admissible_blocks(_rook_slots(m, eta), _SCAN_BLOCK)
        for p in block.tolist()
    ]


def _build_stack(m: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Read-only ``(k, d, d)`` stack of ``B = -PW / diag(PW)`` with zero diagonal.

    ``perms`` is a ``(k, d)`` integer array, one permutation per row.
    """
    diag = np.arange(m.shape[0])
    pw = m[perms]
    b = -pw / pw[:, diag, diag][:, :, None]
    b[:, diag, diag] = 0.0
    b.setflags(write=False)
    return b


def _gamma(m: int) -> float:
    """Higham's ``gamma_m = m u / (1 - m u)``, ``u`` the float64 unit roundoff."""
    return m * _UNIT_ROUNDOFF / (1 - m * _UNIT_ROUNDOFF)


def _certified_above(b: np.ndarray, thr: float) -> np.ndarray:
    """Mask of the matrices of a ``(k, d, d)`` stack whose spectral radius exceeds ``thr``.

    A ``True`` entry is a proof, not an estimate. For any ``d x d`` matrix,
    ``|tr(B^j)| = |sum_i lambda_i^j| <= d rho(B)^j``, so
    ``|tr(B^j)| > d thr^j`` for some ``j`` implies ``rho(B) > thr``. The test
    runs for ``j = 2..8`` (``tr B = 0`` for a zero diagonal). Each trace
    ``t_j = tr(B^a B^c)`` with ``a + c = j``, ``a, c <= 4``, is the sum of
    ``(B^a)_il (B^c)_li`` that one ``einsum`` reads off the two powers, with
    no product or transposed copy formed. ``j = 2, 3, 4`` need only ``B``
    and ``B^2``, and on study inputs they certify about nine in ten of the
    candidates the bound certifies at all; ``B^3 = B^2 B`` and
    ``B^4 = B^2 B^2`` are formed, and ``j = 5..8`` tested, only for the
    rest. ``False`` means "not shown". A NaN fails the comparison, and a
    trace can overflow only with ``||B||_F^j``, which makes the allowance
    infinite, so no overflow or NaN certifies a matrix.

    The allowance ``err_j`` for rounding (``u = 2^-53``, ``gamma_m`` as in
    ``_gamma``), after Higham, *Accuracy and Stability of Numerical
    Algorithms*, sec. 3.5:

    * A computed product of conventional inner products of length ``d`` is
      exact up to ``|fl(XY) - XY| <= gamma_d |X||Y|``, so by induction the
      computed ``B^a`` is ``B^a + E_a`` with
      ``|E_a| <= ((1 + gamma_d)^(a-1) - 1) |B|^a``. Then
      ``|tr(B^a B^c) computed exactly from them - tr(B^j)|`` is at most
      ``((1 + gamma_d)^(j-2) - 1) tr(|B|^j)``, and the final sum of ``d^2``
      rounded products adds ``gamma_(d^2) (1 + gamma_d)^(j-2) tr(|B|^j)``.
      So ``|t_j - tr(B^j)| <= e_j tr(|B|^j)`` with
      ``e_j = (1 + gamma_d)^(j-2) (1 + gamma_(d^2)) - 1``, whatever the
      summation order.
    * ``tr(|B|^j) = sum(|B|^a * (|B|^c).T) <= || |B|^a ||_F || |B|^c ||_F``,
      which is at most ``||B||_F^j`` as the Frobenius norm is submultiplicative.
    * The computed ``s = sum(B * B)`` underestimates ``||B||_F^2`` by at most
      a relative ``gamma_(d^2)``; ``s^(j/2)``, ``e_j`` and the products that
      form the allowance add a relative error of a few ``u`` each. Together
      these stay far below a factor 2 for any ``d < 10^6``.
    * ``thr^j`` is a running product of ``j`` factors, rounded ``j - 1``
      times; ``d thr^j`` and ``|t_j| - err_j`` round once more each, so
      ``gamma_10 d thr^j`` bounds their error for ``j <= 8``.

    Hence ``err_j = 2 (e_j s^(j/2) + gamma_10 d thr^j)``, the doubling
    covering the rounding of the allowance itself, and a matrix is certified
    when the computed ``|t_j| - err_j`` exceeds the computed ``d thr^j``.
    """
    d = b.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        fro2 = np.einsum("kij,kij->k", b, b)
        e = np.expm1((_TRACE_POWERS - 2) * math.log1p(_gamma(d)) + math.log1p(_gamma(d * d)))
        rhs = d * np.cumprod(np.full(8, float(thr)))[_TRACE_POWERS - 1, None]
        err = 2 * (e[:, None] * fro2 ** (_TRACE_POWERS[:, None] / 2) + _gamma(10) * rhs)
        b2 = b @ b
        t = np.array([np.einsum("kij,kji->k", x, y) for x, y in ((b, b), (b, b2), (b2, b2))])
        certified = (np.abs(t) - err[:3] > rhs[:3]).any(axis=0)
        rest = np.flatnonzero(~certified)
        b, b2 = b[rest], b2[rest]
        b3, b4 = b2 @ b, b2 @ b2
        pairs = ((b2, b3), (b3, b3), (b3, b4), (b4, b4))
        t = np.array([np.einsum("kij,kji->k", x, y) for x, y in pairs])
        certified[rest] = (np.abs(t) - err[3:, rest] > rhs[3:]).any(axis=0)
        return certified


def b_from_w(w, perm) -> CandidateAdjacency:
    """Candidate adjacency ``I - diag(PW)^{-1} PW`` with exact-zero diagonal."""
    m = square_matrix(w, "demixing matrix")
    perm = tuple(integer(p, "perm entry") for p in perm)
    if sorted(perm) != list(range(m.shape[0])):
        raise ValueError("perm must be a permutation of 0..d-1")
    if np.any(m[perm, range(m.shape[0])] == 0):
        raise ValueError("permuted matrix has a zero diagonal entry")
    b = _build_stack(m, np.array([perm], dtype=np.intp))
    return CandidateAdjacency(b=b[0], permutation=perm, spectral_radius=float(_radii(b)[0]))


def threshold(candidate: CandidateAdjacency, tau: float) -> np.ndarray:
    """The read-only cut of ``candidate.b``: entries with |b_ij| < tau zeroed (ties survive)."""
    check_tau(tau)
    b = np.where(np.abs(candidate.b) < tau, 0.0, candidate.b)
    b.setflags(write=False)
    return b


def first_stable_select(candidates) -> CandidateAdjacency:
    """First candidate with spectral radius < 1; else the minimum-radius one.

    Ties in the fallback resolve to the earliest candidate, so selection is
    deterministic for any fixed enumeration order. The candidates are read
    lazily: nothing after the first stable one is read. Raises ValueError
    when there are none.
    """
    best = None
    for cand in candidates:
        if cand.spectral_radius < 1.0:
            return cand
        if best is None or cand.spectral_radius < best.spectral_radius:
            best = cand
    if best is None:
        raise ValueError("no candidates to select from")
    return best


def _scan_candidates(m: np.ndarray, cap: int):
    """Yield the significance-pruned candidates the trace bound cannot rule out.

    On finite samples every entry of the estimated demixing matrix is
    nonzero, so admissibility at ``DEFAULT_ETA`` would admit all d!
    permutations. The rook slots are therefore those of ``_rook_slots`` at
    ``cut = _SCAN_FLOOR``; candidates are still built from the unpruned
    matrix.

    The first ``cap`` permutations of the lexicographic enumeration
    (``cap >= 1``), read from ``_admissible_blocks``, are taken in blocks of
    1, 2, 4, ... rows up to ``_SCAN_BLOCK`` (each ``min(size, cap - seen)``)
    and built as one stack by ``_build_stack``, the builder behind
    ``b_from_w``. In each block, a candidate that ``_certified_above`` proves
    to have a radius above the smallest radius yielded so far is dropped
    without ``eigvals``; the others get their radii from ``_radii`` in one
    batched call and are yielded in enumeration order. Before anything is
    yielded the threshold is ``inf``, which the bound never certifies, so
    the first block, of one candidate, is yielded whole, and the bound
    prunes from the second block on. Raises NoAdmissiblePermutationError
    when the enumeration is empty.

    Fed to ``first_stable_select``, the stream gives, bit for bit, the
    candidate that the rule picks from every candidate of the same order
    built by ``b_from_w``. A dropped candidate lies above a yielded radius,
    which is at least 1 while the rule is still reading (a stable candidate
    ends it), so it can be neither stable nor a new strict minimum. (That
    needs the ``eigvals`` radius of a dropped candidate to lie above the
    threshold too, not only its exact radius: the bound's rounding
    allowance, a few ``d^2 u ||B||_F^j``, is far wider than the error of
    ``eigvals``.)
    """
    blocks = _admissible_blocks(_rook_slots(m, _SCAN_FLOOR), _SCAN_BLOCK)
    pending = np.empty((0, m.shape[0]), np.intp)
    smallest, seen, size = math.inf, 0, 1
    while seen < cap:
        want = min(size, cap - seen)
        while len(pending) < want and (more := next(blocks, None)) is not None:
            pending = np.concatenate([pending, more])
        block, pending = pending[:want], pending[want:]
        if not len(block):
            break
        seen += len(block)
        size = min(2 * size, _SCAN_BLOCK)
        b = _build_stack(m, block)
        keep = np.flatnonzero(~_certified_above(b, smallest))
        for j, radius in zip(keep, _radii(b[keep]) if len(keep) else ()):
            smallest = min(smallest, radius)
            yield CandidateAdjacency(
                b=b[j], permutation=tuple(block[j].tolist()), spectral_radius=float(radius)
            )
    if not seen:
        raise NoAdmissiblePermutationError(
            "no admissible permutation among significant rook patterns"
        )


@dataclass(frozen=True)
class RecoveryResult:
    """Output of the full pipeline: the selected candidate, its cut and their condensation."""

    candidate: CandidateAdjacency  # uncut: its spectral_radius is the radius the selection judged
    b_hat: np.ndarray  # threshold(candidate, tau)
    condensation: Condensation
    tau: float
    timings_ms: dict
    ica_iterations: int
    mode: str

    @property
    def partition(self) -> Partition:
        return self.condensation.partition

    def support(self) -> DirectedGraph:
        return support_graph(self.b_hat)

    def to_json_dict(self) -> dict:
        return {
            "partition": list(self.partition.labels),
            "clusterEdges": [list(e) for e in sorted(self.condensation.cluster_edges)],
            "bHat": [[float(x) for x in row] for row in self.b_hat],
            "tau": self.tau,
            "eta": DEFAULT_ETA,
            "timings": {k: float(v) for k, v in self.timings_ms.items()},
            "icaIterations": self.ica_iterations,
            "mode": self.mode,
        }


def recover_condensation(
    x,
    tau: float = DEFAULT_TAU,
    seed: int = 0,
    mode: str = "hungarian",
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> RecoveryResult:
    """Run the full pipeline on a sample matrix.

    FastICA from ``seed`` -> permutation selection (per ``mode``) ->
    candidate adjacency -> hard threshold at ``tau`` -> SCC partition and
    inter-cluster edges of the surviving support. Per-stage wall times are
    recorded in milliseconds. Raises ValueError on a non-finite or
    out-of-range knob before fitting.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    tau = check_tau(tau)
    seed = integer(seed, "seed", 0)
    enum_cap = integer(enum_cap, "enum_cap", 1)

    t0 = time.perf_counter()
    estimate = fastica(x, seed)
    t1 = time.perf_counter()
    if mode == "hungarian":
        perm = hungarian_admissible(estimate.w)
        candidate = b_from_w(estimate.w, perm)
    else:
        candidate = first_stable_select(_scan_candidates(estimate.w, enum_cap))
    b_hat = threshold(candidate, tau)
    t2 = time.perf_counter()
    condensation = condense(support_graph(b_hat))
    t3 = time.perf_counter()

    return RecoveryResult(
        candidate=candidate,
        b_hat=b_hat,
        condensation=condensation,
        tau=tau,
        timings_ms={
            "ica_ms": (t1 - t0) * 1e3,
            "assign_ms": (t2 - t1) * 1e3,
            "tarjan_ms": (t3 - t2) * 1e3,
            "total_ms": (t3 - t0) * 1e3,
        },
        ica_iterations=estimate.iterations,
        mode=mode,
    )
