"""From-scratch FastICA: symmetric fixed-point updates with restarts.

The estimator whitens the data by eigendecomposition of the sample
covariance, runs parallel fixed-point iterations with symmetric
decorrelation, and de-whitens the winner so the returned matrix acts on the
raw (uncentered-scale) observations. Restarts are resolved by the
non-Gaussianity objective, ties by restart index, so results are
deterministic given the options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .exceptions import WhiteningError

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
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


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
    vals, vecs = np.linalg.eigh(m @ m.T)
    if vals[0] <= 0:
        raise WhiteningError("degenerate update in symmetric decorrelation")
    return (vecs / np.sqrt(vals)) @ vecs.T @ m


def _logcosh(u: np.ndarray) -> np.ndarray:
    # overflow-safe log cosh
    return np.logaddexp(u, -u) - np.log(2.0)


def _objective(s: np.ndarray, nonlinearity: str) -> float:
    if nonlinearity == "logcosh":
        dev = _logcosh(s).mean(axis=0) - LOGCOSH_GAUSSIAN
    else:
        dev = 0.25 * (s**4).mean(axis=0) - CUBE_GAUSSIAN
    return float(np.sum(dev**2))


def fastica(x, opts: IcaOptions = IcaOptions()) -> DemixingEstimate:
    """Estimate the demixing matrix of x by symmetric FastICA.

    Runs ``opts.restarts`` independent fixed-point iterations from random
    orthonormal starts and keeps the one with the largest non-Gaussianity
    objective. Convergence is declared when
    ``1 - min_i |<w_i_new, w_i_old>|`` drops below the tolerance; otherwise
    the estimate is returned with ``converged=False``.
    """
    z, k, _ = center_whiten(x)
    n, d = z.shape
    best = None
    for restart in range(opts.restarts):
        gen = rng_mod.stream(opts.seed, rng_mod.PURPOSE_ICA, restart)
        w = np.linalg.qr(gen.standard_normal((d, d)))[0]
        converged = False
        iterations = 0
        for iterations in range(1, opts.max_iterations + 1):
            s = z @ w.T
            if opts.nonlinearity == "logcosh":
                g = np.tanh(s)
                g_prime_mean = (1.0 - g**2).mean(axis=0)
            else:
                g = s**3
                g_prime_mean = 3.0 * (s**2).mean(axis=0)
            w_new = (g.T @ z) / n - g_prime_mean[:, None] * w
            w_new = _symmetric_decorrelate(w_new)
            drift = 1.0 - np.min(np.abs(np.einsum("ij,ij->i", w_new, w)))
            w = w_new
            if drift < opts.tolerance:
                converged = True
                break
        objective = _objective(z @ w.T, opts.nonlinearity)
        if best is None or objective > best[0]:
            best = (objective, w, iterations, converged)
    _, w, iterations, converged = best
    return DemixingEstimate(
        w=w @ k, iterations=iterations, converged=converged, w_white=w
    )
