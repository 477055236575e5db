"""From-scratch FastICA: symmetric fixed-point updates with restarts.

The estimator whitens the data by eigendecomposition of the sample
covariance, runs parallel fixed-point iterations with symmetric
decorrelation from several random starts in lockstep, and de-whitens the
winner so the returned matrix acts on the raw (uncentered-scale)
observations. Restarts are resolved by the non-Gaussianity objective, ties
by the earliest restart, so results are deterministic given the options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .exceptions import WhiteningError, finite, integer

NONLINEARITIES = ("logcosh", "cube")

# E[log cosh Z] and E[Z^4]/4 for Z ~ N(0, 1): baselines of the contrast functions
LOGCOSH_GAUSSIAN = 0.374567207491438
CUBE_GAUSSIAN = 0.75

RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class IcaOptions:
    nonlinearity: str = "logcosh"
    tolerance: float = 1e-6
    max_iterations: int = 500
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if finite(self.tolerance, "tolerance") <= 0:
            raise ValueError("tolerance must be finite and positive")
        for name, low in (("max_iterations", 1), ("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, integer(getattr(self, name), name, low))


@dataclass(frozen=True)
class DemixingEstimate:
    """Estimated demixing matrix plus convergence bookkeeping.

    ``w`` acts on raw observations (rows are estimated sources up to
    permutation, sign and scale). ``w_white`` is the orthonormal-row matrix
    in whitened coordinates, kept for the unit-norm invariant.
    """

    w: np.ndarray
    iterations: int
    converged: bool
    w_white: np.ndarray


def center_whiten(x) -> tuple:
    """Center and whiten: returns (z, k, mean) with cov(z) = I.

    The whitening matrix ``k`` comes from the eigendecomposition of the
    (1/n-normalized) sample covariance, so ``z = (x - mean) @ k.T``.
    Raises ValueError on non-finite samples and WhiteningError when the
    covariance is rank deficient.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a 2-D sample matrix")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite (found NaN or Inf)")
    n, d = x.shape
    if n <= d:
        raise ValueError(f"need n > d samples, got n={n}, d={d}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / n
    vals, vecs = np.linalg.eigh(cov)
    if vals[-1] <= 0 or vals[0] < RANK_TOLERANCE * vals[-1]:
        raise WhiteningError(
            f"sample covariance is rank deficient (eigenvalue ratio "
            f"{vals[0] / vals[-1]:.2e})"
        )
    k = (vecs / np.sqrt(vals)).T
    return centered @ k.T, k, mean


def _symmetric_decorrelate(m: np.ndarray) -> np.ndarray:
    """``(M M^T)^{-1/2} M`` for each matrix of an ``(a, d, d)`` stack, by one batched eigh."""
    vals, vecs = np.linalg.eigh(m @ m.transpose(0, 2, 1))
    if np.any(vals[:, 0] <= 0):
        raise WhiteningError("degenerate update in symmetric decorrelation")
    return (vecs / np.sqrt(vals)[:, None, :]) @ vecs.transpose(0, 2, 1) @ m


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


def _objectives(s: np.ndarray, r: int, nonlinearity: str) -> np.ndarray:
    """Non-Gaussianity objective of each restart, from the ``(n, r*d)`` block
    of projections (restart-major columns); ``s`` is overwritten."""
    if nonlinearity == "logcosh":
        dev = _logcosh_mean(s) - LOGCOSH_GAUSSIAN
    else:
        np.square(s, out=s)
        np.square(s, out=s)
        dev = 0.25 * s.mean(axis=0) - CUBE_GAUSSIAN
    return (dev**2).reshape(r, -1).sum(axis=1)


def fastica(x, opts: IcaOptions = IcaOptions()) -> DemixingEstimate:
    """Estimate the demixing matrix of x by symmetric FastICA.

    Runs ``opts.restarts`` fixed-point iterations from random orthonormal
    starts and keeps the one with the largest non-Gaussianity objective,
    ties going to the earliest restart. Convergence of a restart is declared
    when ``1 - min_i |<w_i_new, w_i_old>|`` drops below the tolerance;
    otherwise it stops at ``max_iterations`` with ``converged=False``.

    The restarts run in lockstep: each iteration projects every active
    restart at once into one ``(n, a*d)`` block, and a restart that converges
    leaves the active set with its own iteration count. Results match
    running the restarts one after another.
    """
    z, k, _ = center_whiten(x)
    n, d = z.shape
    r = opts.restarts
    w = np.stack([
        np.linalg.qr(
            rng_mod.stream(opts.seed, rng_mod.PURPOSE_ICA, restart).standard_normal((d, d))
        )[0]
        for restart in range(r)
    ])
    iterations = np.full(r, opts.max_iterations)
    converged = np.zeros(r, dtype=bool)
    active = np.arange(r)
    buf = np.empty(n * r * d)
    for it in range(1, opts.max_iterations + 1):
        a = active.size
        w_act = w[active]
        w_rows = w_act.reshape(a * d, d)
        # contiguous (n, a*d) view of the front of the buffer, restart-major columns
        s = buf[: n * a * d].reshape(n, a * d)
        np.matmul(z, w_rows.T, out=s)
        if opts.nonlinearity == "logcosh":
            g = np.tanh(s, out=s)
            g_prime_mean = 1.0 - np.einsum("ij,ij->j", g, g) / n
        else:
            g_prime_mean = 3.0 * (np.einsum("ij,ij->j", s, s) / n)
            g = np.power(s, 3, out=s)
        w_new = (g.T @ z) / n - g_prime_mean[:, None] * w_rows
        w_new = _symmetric_decorrelate(w_new.reshape(a, d, d))
        drift = 1.0 - np.abs(np.einsum("aij,aij->ai", w_new, w_act)).min(axis=1)
        w[active] = w_new
        done = drift < opts.tolerance
        if done.any():
            iterations[active[done]] = it
            converged[active[done]] = True
            active = active[~done]
            if not active.size:
                break
    s = buf.reshape(n, r * d)
    np.matmul(z, w.reshape(r * d, d).T, out=s)
    best = int(np.argmax(_objectives(s, r, opts.nonlinearity)))
    return DemixingEstimate(
        w=w[best] @ k,
        iterations=int(iterations[best]),
        converged=bool(converged[best]),
        w_white=w[best],
    )
