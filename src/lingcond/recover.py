"""Condensation recovery: admissible permutations, candidates, thresholding.

The pipeline estimates a demixing matrix by FastICA, picks one or more row
permutations made of rook slots, entries above a fixed fraction of their
row's largest magnitude (``_rook_slots``), maps each to a candidate
adjacency ``B = I - diag(PW)^{-1} PW``, hard-thresholds, and reads the SCC
partition and inter-cluster edges off the surviving support; one fit serves
every threshold (``RecoveryResult.cut``). Two selection modes are offered:

* ``hungarian`` (the default): one permutation from a min-cost assignment
  (``_min_cost_assignment``) in which entries that are not rook slots cost
  ``inf``; when no assignment has finite cost, that is raised as
  ``NoAdmissiblePermutationError``.
* ``enumerate-first-stable``: ``_first_stable_scan`` applies LiNG-D's rule,
  the first candidate with spectral radius below 1, else the earliest one of
  smallest radius. It enumerates permutations lazily in lexicographic
  order, whole arrays of them at a time, scores them in blocks that double
  from one candidate up to a ceiling, and on every block drops the
  candidates that a trace bound proves to lie above the best radius so far.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import NoAdmissiblePermutationError, finite, integer, square_matrix
from .graphs import Condensation, DirectedGraph, Partition, condense, support_graph
from .ica import DemixingEstimate, fastica
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
# the most prefixes the enumeration extends at once
_ENUM_CHUNK = 512
_UNIT_ROUNDOFF = 2.0**-53
# the highest power j whose trace bounds the spectral radius (j = 4, 6, ..., 16)
_TOP_POWER = 16


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
    so any ``d`` works. Prefixes are held in the smallest unsigned integer
    type that holds ``d`` (one byte up to ``d = 255``), which keeps the stack
    of wide chunks small, and each block is yielded as intp.
    """
    d = ok.shape[0]
    stack = [(0, np.zeros((1, d), np.min_scalar_type(d)), np.ones((1, d), bool))]
    while stack:
        slot, perms, free = stack.pop()
        if len(perms) > size:
            stack.append((slot, perms[size:], free[size:]))
            perms, free = perms[:size], free[:size]
        if slot == d:
            yield perms.astype(np.intp)
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
        tuple(p) for block in _admissible_blocks(_rook_slots(m, eta), _ENUM_CHUNK)
        for p in block.tolist()
    ]


def _ratio_table(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``t[..., i, :] = -m[r] / m[r, i]`` with ``t[..., i, i] = 0``, where ``r = rows[..., i]``.

    Row ``i`` of ``B = -PW / diag(PW)`` is ``m[r]`` placed at slot ``i``, so
    with ``rows = perm`` this is ``B`` itself. With
    ``rows = arange(d)[:, None]`` it is the ``(d, d, d)`` table of every row
    at every slot, from which a block of candidates is one gather
    (``_candidate_stack``), bit for bit the same ``B`` as dividing per
    candidate. A zero ``m[r, i]`` gives an infinite or NaN row without a
    warning; it is never a rook slot, so never gathered.
    """
    diag = np.arange(m.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -m[rows] / m[rows, diag][..., None]
    t[..., diag, diag] = 0.0
    return t


def _candidate_stack(table: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Read-only ``(k, d, d)`` stack of the candidates of a ``(k, d)`` block of permutations."""
    b = table[perms, np.arange(perms.shape[1])]
    b.setflags(write=False)
    return b


def _gamma(m: int) -> float:
    """Higham's ``gamma_m = m u / (1 - m u)``, ``u`` the float64 unit roundoff."""
    return m * _UNIT_ROUNDOFF / (1 - m * _UNIT_ROUNDOFF)


def _certified_above(b: np.ndarray, thr: float) -> np.ndarray:
    """Mask of the matrices of a ``(k, d, d)`` stack whose spectral radius exceeds ``thr``.

    A ``True`` entry is a proof, not an estimate. For any ``d x d`` matrix,
    ``|tr(B^j)| = |sum_i lambda_i^j| <= d rho(B)^j``, so
    ``|tr(B^j)| > d thr^j`` for some ``j`` implies ``rho(B) > thr``. One loop
    tests ``j = 4, 6, ..., _TOP_POWER`` on the matrices still open: step
    ``a = 2, 3, ...`` forms ``B^a = B^(a-1) B`` and reads
    ``t_2a = tr(B^a B^a)``, the sum of ``(B^a)_il (B^a)_li`` that one
    ``einsum`` takes with no product formed, and the matrices it certifies
    leave the chain. The higher the power, the more the largest eigenvalue
    dominates the trace. ``False`` means "not shown". A NaN fails the
    comparison, and a trace can overflow only with ``||B||_F^j``, which makes
    the allowance infinite, so no overflow or NaN certifies a matrix.

    The allowance ``err_j`` for rounding (``u = 2^-53``, ``gamma_m`` as in
    ``_gamma``), after Higham, *Accuracy and Stability of Numerical
    Algorithms*, sec. 3.5:

    * A computed product of conventional inner products of length ``d`` is
      exact up to ``|fl(XY) - XY| <= gamma_d |X||Y|``. The chain has
      ``a - 1`` products on its path to ``B^a``, so by induction the computed
      ``B^a`` is ``B^a + E_a`` with ``|E_a| <= ((1 + gamma_d)^(a-1) - 1) |B|^a``.
      Then ``|tr(B^a B^a) computed exactly from it - tr(B^j)|`` is at most
      ``((1 + gamma_d)^(j-2) - 1) tr(|B|^j)``, and the final sum of ``d^2``
      rounded products adds ``gamma_(d^2) (1 + gamma_d)^(j-2) tr(|B|^j)``.
      So ``|t_j - tr(B^j)| <= e_j tr(|B|^j)`` with
      ``e_j = (1 + gamma_d)^(j-2) (1 + gamma_(d^2)) - 1``, whatever the
      summation order.
    * ``tr(|B|^j) = sum(|B|^a * (|B|^a).T) <= || |B|^a ||_F^2``, which is at
      most ``||B||_F^j`` as the Frobenius norm is submultiplicative.
    * The computed ``s = sum(B * B)`` underestimates ``||B||_F^2`` by at most
      a relative ``gamma_(d^2)``; ``s^a``, ``e_j`` and the products that form
      the allowance add a relative error of a few ``u`` each. Together these
      stay far below a factor 2 for any ``d < 10^6``.
    * ``thr^j = (thr^a)^2``, with ``thr^a`` a running product, is rounded
      ``j - 1`` times; ``d thr^j`` and ``|t_j| - err_j`` round once more
      each, so ``gamma_18 d thr^j`` bounds their error for ``j <= 16``.

    Hence ``err_j = 2 (e_j s^a + gamma_18 d thr^j)``, the doubling covering
    the rounding of the allowance itself, and a matrix is certified when the
    computed ``|t_j| - err_j`` exceeds the computed ``d thr^j``. The loop ends
    early once no matrix is open or ``d thr^j`` is infinite.
    """
    d = b.shape[-1]
    certified = np.zeros(len(b), bool)
    rows = np.arange(len(b))  # the matrices still open
    p, thr_a = b, thr  # B^a and thr^a, from a = 1
    with np.errstate(over="ignore", invalid="ignore"):
        fro2 = np.einsum("kij,kij->k", b, b)
        for a in range(2, _TOP_POWER // 2 + 1):
            thr_a *= thr
            if not rows.size or (rhs := d * (thr_a * thr_a)) == math.inf:
                break
            p = p @ b
            e = math.expm1((2 * a - 2) * math.log1p(_gamma(d)) + math.log1p(_gamma(d * d)))
            err = 2 * (e * fro2**a + _gamma(_TOP_POWER + 2) * rhs)
            shown = np.abs(np.einsum("kij,kji->k", p, p)) - err > rhs
            certified[rows[shown]] = True
            rows, b, p, fro2 = rows[~shown], b[~shown], p[~shown], fro2[~shown]
    return certified


def b_from_w(w, perm) -> CandidateAdjacency:
    """Candidate adjacency ``I - diag(PW)^{-1} PW`` with exact-zero diagonal."""
    m = square_matrix(w, "demixing matrix")
    perm = tuple(integer(p, "perm entry") for p in perm)
    if sorted(perm) != list(range(m.shape[0])):
        raise ValueError("perm must be a permutation of 0..d-1")
    if np.any(m[perm, range(m.shape[0])] == 0):
        raise ValueError("permuted matrix has a zero diagonal entry")
    b = _ratio_table(m, np.array(perm, dtype=np.intp))
    b.setflags(write=False)
    return CandidateAdjacency(b=b, permutation=perm, spectral_radius=float(_radii(b[None])[0]))


def threshold(candidate: CandidateAdjacency, tau: float) -> np.ndarray:
    """The read-only cut of ``candidate.b``: entries with |b_ij| < tau zeroed (ties survive)."""
    check_tau(tau)
    b = np.where(np.abs(candidate.b) < tau, 0.0, candidate.b)
    b.setflags(write=False)
    return b


def _first_stable_scan(m: np.ndarray, cap: int) -> CandidateAdjacency:
    """LiNG-D's pick among the candidates of the first ``cap`` significance-pruned permutations.

    LiNG-D's rule (Lacerda, Spirtes, Ramsey and Hoyer 2008): the first
    candidate with spectral radius below 1, else the earliest one of smallest
    radius. On finite samples every entry of the estimated demixing matrix is
    nonzero, so admissibility at ``DEFAULT_ETA`` would admit all d!
    permutations. The rook slots are therefore those of ``_rook_slots`` at
    ``cut = _SCAN_FLOOR``; candidates are still built from the unpruned
    matrix.

    The first ``cap`` permutations of the lexicographic enumeration
    (``cap >= 1``), read from ``_admissible_blocks`` in chunks of up to
    ``_ENUM_CHUNK``, are taken in blocks of 1, 2, 4, ... rows up to
    ``_SCAN_BLOCK`` (each ``min(size, cap - seen)``). The scan divides once,
    into the ratio table of ``_ratio_table``, the builder behind
    ``b_from_w``; each block's stack is one gather from it
    (``_candidate_stack``). In each block, a candidate that
    ``_certified_above`` proves to have a radius above the best radius so far
    is dropped without ``eigvals`` (before the first block that is ``inf``,
    which the bound never certifies); the others get their radii from
    ``_radii`` in one batched call. The first of them below 1 ends the scan;
    otherwise the block's earliest minimum becomes the best if it is strictly
    below it, so ties stay on the earliest candidate. Only the winner is
    built. Raises NoAdmissiblePermutationError when the enumeration is empty.

    The pick is, bit for bit, the rule's pick over every candidate of the
    same order built by ``b_from_w``: a pruned candidate lies above the best
    radius, so it is neither stable nor a new minimum. (The bound's rounding
    allowance, a few ``d^2 u ||B||_F^j``, is far wider than the error of
    ``eigvals``, so a pruned candidate's ``eigvals`` radius lies above the
    best radius too.)
    """
    d = m.shape[0]
    table = _ratio_table(m, np.arange(d)[:, None])
    blocks = _admissible_blocks(_rook_slots(m, _SCAN_FLOOR), _ENUM_CHUNK)
    pending = np.empty((0, d), np.intp)
    best, winner, seen, size = math.inf, None, 0, 1
    while seen < cap and best >= 1.0:
        want = min(size, cap - seen)
        while len(pending) < want and (more := next(blocks, None)) is not None:
            pending = np.concatenate([pending, more])
        block, pending = pending[:want], pending[want:]
        if not len(block):
            break
        seen += len(block)
        size = min(2 * size, _SCAN_BLOCK)
        b = _candidate_stack(table, block)
        if len(keep := np.flatnonzero(~_certified_above(b, best))):
            radii = _radii(b[keep])
            stable = radii < 1.0
            j = stable.argmax() if stable.any() else radii.argmin()
            if radii[j] < best:
                best, winner = float(radii[j]), (b[keep[j]], block[keep[j]])
    if winner is None:
        raise NoAdmissiblePermutationError(
            "no admissible permutation among significant rook patterns"
        )
    b, perm = winner
    return CandidateAdjacency(b=b, permutation=tuple(perm.tolist()), spectral_radius=best)


@dataclass(frozen=True)
class RecoveryResult:
    """Output of the full pipeline: the fit, its selected candidate, a cut and its condensation."""

    candidate: CandidateAdjacency  # uncut: its spectral_radius is the radius the selection judged
    b_hat: np.ndarray  # threshold(candidate, tau)
    condensation: Condensation
    tau: float
    timings_ms: dict
    estimate: DemixingEstimate
    mode: str

    @property
    def partition(self) -> Partition:
        return self.condensation.partition

    def support(self) -> DirectedGraph:
        return support_graph(self.b_hat)

    def cut(self, tau) -> RecoveryResult:
        """This fit cut at ``tau``: ``b_hat``, ``condensation`` and ``tau`` replaced, no refit.

        A cut depends on the candidate and ``tau`` alone, so it equals the
        result of a fit of the same sample and seed at ``tau``, timings aside.
        """
        b_hat = threshold(self.candidate, tau)
        return replace(self, b_hat=b_hat, condensation=condense(support_graph(b_hat)),
                       tau=check_tau(tau))

    def to_json_dict(self) -> dict:
        return {
            "partition": list(self.partition.labels),
            "clusterEdges": [list(e) for e in sorted(self.condensation.cluster_edges)],
            "bHat": [[float(x) for x in row] for row in self.b_hat],
            "tau": self.tau,
            "eta": DEFAULT_ETA,
            "timings": {k: float(v) for k, v in self.timings_ms.items()},
            "icaIterations": self.estimate.iterations,
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
    candidate adjacency -> ``RecoveryResult.cut`` at ``tau``: hard threshold,
    then SCC partition and inter-cluster edges of the surviving support.
    Per-stage wall times are recorded in milliseconds, the cut's under
    ``tarjan_ms``. Raises ValueError on a non-finite or out-of-range knob
    before fitting.
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
        candidate = b_from_w(estimate.w, hungarian_admissible(estimate.w))
    else:
        candidate = _first_stable_scan(estimate.w, enum_cap)
    t2 = time.perf_counter()
    result = RecoveryResult(candidate, None, None, None, {}, estimate, mode).cut(tau)  # uncut
    t3 = time.perf_counter()
    return replace(result, timings_ms={
        "ica_ms": (t1 - t0) * 1e3, "assign_ms": (t2 - t1) * 1e3,
        "tarjan_ms": (t3 - t2) * 1e3, "total_ms": (t3 - t0) * 1e3,
    })
