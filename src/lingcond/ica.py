"""From-scratch FastICA: symmetric fixed-point updates with restarts.

The estimator whitens the data by eigendecomposition of the sample
covariance, runs parallel fixed-point iterations with symmetric
decorrelation from several random starts in lockstep, and de-whitens the
winner so the returned matrix acts on the raw (uncentered-scale)
observations. Restarts are resolved by the non-Gaussianity objective, ties
by the earliest restart, so results are deterministic given the seed, the
one setting. The contrast is log cosh (``g = tanh``), as Hyvarinen (1999)
recommends; the restart count, tolerance and iteration cap are constants.

From ``n = 400 d`` rows on, the restarts run on an evenly spaced subsample
of about ``200 d`` rows (``_ROWS_PER_DIM``), cut from the whitened rows and
whitened again, and only the winner is iterated on all rows. Above n of
about 1000 the restarts almost always reach the same fixed point, so
running all of them on every row would repeat the first one's work.

The iteration has two phases. The first ``_PLAIN_ITERATIONS`` (K = 150)
iterations take the plain fixed-point step ``w <- E{z g(w'z)} - E{g'(w'z)} w``.
At n = 200, d = 10 some restarts never settle under it and would run to
the 500-iteration cap; every start still active after K iterations therefore
switches, all at once, to the stabilised step of Hyvarinen (1999, "Fast and
robust fixed-point algorithms for independent component analysis", IEEE
Trans. Neural Networks 10(3)):
``w <- w - mu (E{z g(w'z)} - beta w) / (E{g'(w'z)} - beta)`` with
``beta = E{w'z g(w'z)}``, followed by the same symmetric decorrelation.
Each start keeps its own ``mu``: it starts at 1 and halves, down to
``_MIN_STEP`` (1/64), whenever that start's drift rises above the drift of
its previous iteration (the last plain one included). A fit whose starts
all stop within K iterations is unchanged by the second phase. The
stabilised step makes the small-n tail converge; it does not make the end
point robust to last-bit changes of the input: in a sample of 23 n = 200
fits whose plain-step winner hit the 500-iteration cap, ``x * (1 + 2**-52)``
still moved ``w_white`` by O(1) in 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .exceptions import WhiteningError, integer, sample_matrix

# E[log cosh Z] for Z ~ N(0, 1): the baseline of the contrast function
LOGCOSH_GAUSSIAN = 0.374567207491438

RANK_TOLERANCE = 1e-10

# rows per dimension of the subsample that picks the winning restart
_ROWS_PER_DIM = 200

# random starts per fit, plain fixed-point iterations before a start still
# active switches to the stabilised step, the floor of that step's size, the
# drift below which a start has converged, and the cap on its iterations
_RESTARTS = 3
_PLAIN_ITERATIONS = 150
_MIN_STEP = 1 / 64
_TOLERANCE = 1e-6
_MAX_ITERATIONS = 500


@dataclass(frozen=True)
class DemixingEstimate:
    """Estimated demixing matrix plus convergence bookkeeping.

    ``w`` acts on raw observations (rows are estimated sources up to
    permutation, sign and scale). ``w_white`` is the orthonormal-row matrix
    in whitened coordinates, kept for the unit-norm invariant.
    ``converged`` marks a fixed point of whichever step ran last, plain or
    stabilised: the stabilised step rescales each row before the symmetric
    decorrelation, so where it stops one more plain step may still move
    ``w_white``.
    """

    w: np.ndarray
    iterations: int
    converged: bool
    w_white: np.ndarray


def center_whiten(x) -> tuple:
    """Center and whiten: returns (z, k, mean) with cov(z) = I.

    The whitening matrix ``k`` comes from the eigendecomposition of the
    (1/n-normalized) sample covariance, so ``z = (x - mean) @ k.T``.
    Raises ValueError on non-numeric or non-finite samples and
    WhiteningError when the covariance is rank deficient.
    """
    x = sample_matrix(x, "samples")
    n, d = x.shape
    if n <= d:
        raise ValueError(f"need n > d samples, got n={n}, d={d}")
    return _whiten(x)


def _whiten(x: np.ndarray) -> tuple:
    """``center_whiten`` of an already checked 2-D array with more rows than columns."""
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / len(x)
    vals, vecs = np.linalg.eigh(cov)
    if vals[-1] <= 0 or vals[0] < RANK_TOLERANCE * vals[-1]:
        raise WhiteningError(
            f"sample covariance is rank deficient (eigenvalue ratio "
            f"{vals[0] / vals[-1]:.2e})"
        )
    k = (vecs / np.sqrt(vals)).T
    return centered @ k.T, k, mean


def _symmetric_decorrelate(m: np.ndarray) -> tuple:
    """``(M M^T)^{-1/2} M`` for the matrices of an ``(a, d, d)`` stack, by one batched eigh.

    Returns those results and the ``(a,)`` mask of the matrices they are for:
    the ones whose ``M M^T`` is positive definite. The others are left out.
    """
    vals, vecs = np.linalg.eigh(m @ m.transpose(0, 2, 1))
    ok = vals[:, 0] > 0
    if not ok.all():
        m, vals, vecs = m[ok], vals[ok], vecs[ok]
    return (vecs / np.sqrt(vals)[:, None, :]) @ vecs.transpose(0, 2, 1) @ m, ok


def _logcosh_mean(s: np.ndarray) -> np.ndarray:
    """Column means of ``log cosh``, computed in place (``s`` is overwritten).

    Uses the overflow-safe form ``|u| + log1p(exp(-2|u|)) - log 2``.
    """
    np.abs(s, out=s)
    mean_abs = s.mean(axis=0)
    s *= -2.0
    np.exp(s, out=s)
    np.log1p(s, out=s)
    return mean_abs + s.mean(axis=0) - math.log(2.0)


def _objectives(s: np.ndarray, r: int) -> np.ndarray:
    """Non-Gaussianity objective of each restart, from the ``(n, r*d)`` block
    of projections (restart-major columns); ``s`` is overwritten."""
    dev = _logcosh_mean(s) - LOGCOSH_GAUSSIAN
    return (dev**2).reshape(r, -1).sum(axis=1)


def _starts(d: int, seed: int) -> np.ndarray:
    """The ``(_RESTARTS, d, d)`` stack of random orthonormal starting points."""
    return np.stack([
        np.linalg.qr(
            rng_mod.stream(seed, rng_mod.PURPOSE_ICA, restart).standard_normal((d, d))
        )[0]
        for restart in range(_RESTARTS)
    ])


def _fixed_point(z: np.ndarray, w: np.ndarray) -> tuple:
    """Iterate the ``(r, d, d)`` stack of starts ``w`` on the whitened rows ``z``.

    Each iteration projects every active start at once into one ``(n, a*d)``
    block, and a start that converges leaves the active set with its own
    iteration count, so results match iterating the starts one after
    another. The first ``_PLAIN_ITERATIONS`` iterations take the plain
    fixed-point step; every start still active after them takes the
    stabilised step with its own step size ``mu`` (see the module
    docstring). A start whose update has no positive definite ``M M^T``
    fails: it leaves the active set with its last decorrelated ``w``.
    Returns ``(w, iterations, converged, failed)``, one entry per start;
    raises WhiteningError when every start fails.
    """
    n, d = z.shape
    r = len(w)
    iterations = np.full(r, _MAX_ITERATIONS)
    converged = np.zeros(r, dtype=bool)
    failed = np.zeros(r, dtype=bool)
    active = np.arange(r)
    mu = np.ones(r)
    last_drift = np.full(r, np.inf)
    for it in range(1, _MAX_ITERATIONS + 1):
        a = active.size
        w_act = w[active]
        w_rows = w_act.reshape(a * d, d)
        s = z @ w_rows.T  # restart-major columns
        stabilised = it > _PLAIN_ITERATIONS
        g_out = None if stabilised else s  # the stabilised step still needs s for beta
        g = np.tanh(s, out=g_out)
        g_prime_mean = 1.0 - np.einsum("ij,ij->j", g, g) / n
        if stabilised:
            beta = np.einsum("ij,ij->j", s, g) / n  # E{y g(y)}
            step = np.repeat(mu[active], d) / (g_prime_mean - beta)
            w_new = w_rows - step[:, None] * ((g.T @ z) / n - beta[:, None] * w_rows)
        else:
            w_new = (g.T @ z) / n - g_prime_mean[:, None] * w_rows
        w_new, ok = _symmetric_decorrelate(w_new.reshape(a, d, d))
        if not ok.all():
            failed[active[~ok]] = True
            active, w_act = active[ok], w_act[ok]
        drift = 1.0 - np.abs(np.einsum("aij,aij->ai", w_new, w_act)).min(axis=1)
        w[active] = w_new
        if it >= _PLAIN_ITERATIONS:  # from the last plain step on, a rise in drift halves mu
            rose = active[drift > last_drift[active]]
            mu[rose] = np.maximum(mu[rose] / 2, _MIN_STEP)
            last_drift[active] = drift
        done = drift < _TOLERANCE
        if done.any():
            iterations[active[done]] = it
            converged[active[done]] = True
            active = active[~done]
        if not active.size:
            break
    if failed.all():
        raise WhiteningError("degenerate update in symmetric decorrelation")
    return w, iterations, converged, failed


def fastica(x, seed: int = 0) -> DemixingEstimate:
    """Estimate the demixing matrix of x by symmetric FastICA.

    Runs ``_RESTARTS`` (3) fixed-point iterations from random orthonormal
    starts drawn from ``seed`` and keeps the one with the largest
    non-Gaussianity objective, ties going to the earliest restart; a restart
    whose update degenerates (``_fixed_point``) is not a candidate.
    WhiteningError is raised when every restart degenerates, or the
    refinement below does. Convergence of
    a run is declared when ``1 - min_i |<w_i_new, w_i_old>|`` drops below
    ``_TOLERANCE`` (1e-6); otherwise it stops at ``_MAX_ITERATIONS`` (500)
    with ``converged=False``. A run still active after ``_PLAIN_ITERATIONS``
    plain fixed-point iterations continues with Hyvarinen's stabilised step
    (module docstring); ``iterations`` counts both phases.

    Below ``n = 400 d`` rows the restarts run on all rows. From there on
    they run on every ``step``-th whitened row, ``step = n // (200 d)``,
    whitened again; the objective picks the winner on those rows, and the
    winner, mapped into the whitening of all rows and decorrelated, is
    iterated once more on all rows with the same tolerance and cap.
    ``iterations`` and ``converged`` then report that refinement. If the
    covariance of the whitened subsample is rank deficient, the restarts
    run on all rows. The restarts run in lockstep; each stage's
    results match running its starts one after another. A ``seed`` that is
    not an integer ``>= 0`` raises ValueError.
    """
    seed = integer(seed, "seed", 0)
    z, k, _ = center_whiten(x)
    n, d = z.shape
    step = n // (_ROWS_PER_DIM * d)
    zs = z
    if step >= 2:
        try:
            zs, ks, _ = _whiten(z[::step])
        except WhiteningError:
            step = 1  # the subsample missed the rows that give some direction its spread
    w, iterations, converged, failed = _fixed_point(zs, _starts(d, seed))
    objectives = _objectives(zs @ w.reshape(-1, d).T, len(w))
    best = int(np.argmax(np.where(failed, -np.inf, objectives)))
    if step >= 2:
        start, ok = _symmetric_decorrelate((w[best] @ ks)[None])
        if not ok[0]:
            raise WhiteningError("degenerate refinement start in symmetric decorrelation")
        w, iterations, converged, _ = _fixed_point(z, start)
        best = 0  # the refined winner is the only run left
    return DemixingEstimate(
        w=w[best] @ k,
        iterations=int(iterations[best]),
        converged=bool(converged[best]),
        w_white=w[best],
    )
