"""Synthetic linear non-Gaussian cyclic SCMs.

Models follow ``X = B X + eps`` with ``X = (I - B)^{-1} eps``; entry
``B[i, j] != 0`` encodes the edge ``X_j -> X_i``. Generated graphs have a
controlled number of non-trivial SCCs (each built around a directed
Hamilton cycle), intra-SCC chords and order-respecting inter-cluster edges
sampled at a common density, and weights rescaled by a global scalar so the
spectral radius hits the regime target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .exceptions import SingularModelError, finite, finite_array, integer, square_matrix
from .graphs import DirectedGraph, support_graph, tarjan_scc

NOISE_FAMILIES = ("laplace", "exponential-centered")

# unit-variance scale parameters per family
DEFAULT_SCALES = {"laplace": 2.0 ** -0.5, "exponential-centered": 1.0}

REGIME_TARGETS = {"stable": 0.9, "unstable": 1.5}

# generate_scm draws |weight| uniformly from [DEFAULT_WEIGHT_LOW, DEFAULT_WEIGHT_HIGH]
DEFAULT_WEIGHT_LOW = 0.5
DEFAULT_WEIGHT_HIGH = 0.95

DET_TOLERANCE = 1e-10
MAX_REDRAWS = 100


@dataclass(frozen=True)
class NoiseSpec:
    """Noise family applied i.i.d. to every structural equation."""

    family: str = "laplace"
    scale: float = DEFAULT_SCALES["laplace"]

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        object.__setattr__(self, "scale", finite(self.scale, "noise scale"))
        if self.scale <= 0:
            raise ValueError("noise scale must be positive")

    def draw(self, generator: np.random.Generator, shape) -> np.ndarray:
        if self.family == "laplace":
            return generator.laplace(0.0, self.scale, shape)
        # exponential shifted to mean zero
        return generator.exponential(self.scale, shape) - self.scale


class WeightedAdjacency:
    """Dense weighted adjacency with zero diagonal and invertible I - B."""

    def __init__(self, matrix):
        m = square_matrix(matrix, "adjacency").copy()  # frozen below, so never the caller's array
        if np.any(np.diag(m) != 0):
            raise ValueError("adjacency diagonal must be exactly zero")
        if abs(np.linalg.det(np.eye(m.shape[0]) - m)) < DET_TOLERANCE:
            raise SingularModelError("I - B is numerically singular")
        m.setflags(write=False)
        self._m = m

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    @property
    def d(self) -> int:
        return self._m.shape[0]

    def support(self) -> DirectedGraph:
        return support_graph(self._m)

    def beta_min(self) -> float:
        nz = np.abs(self._m[self._m != 0])
        return float(nz.min()) if nz.size else 0.0

    def __repr__(self):
        return f"WeightedAdjacency(d={self.d}, edges={len(self.support().edges)})"


def spectral_radius(b) -> float:
    """Largest eigenvalue modulus of a weighted adjacency (or raw matrix)."""
    m = square_matrix(getattr(b, "matrix", b), "spectral_radius input")
    if not m.any():
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


@dataclass(frozen=True)
class ScmSpec:
    """A concrete SCM: weights, noise descriptor, regime tag and provenance."""

    b: WeightedAdjacency
    noise: NoiseSpec
    regime: str
    beta_min: float
    seed: int

    def __post_init__(self):
        if self.regime not in REGIME_TARGETS:
            raise ValueError(f"unknown regime {self.regime!r}")
        object.__setattr__(self, "beta_min", finite(self.beta_min, "beta_min"))
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        rho = spectral_radius(self.b)
        if self.regime == "stable" and rho >= 1.0:
            raise ValueError(f"stable regime requires rho(B) < 1, got {rho:.4f}")
        if self.regime == "unstable" and rho < 1.0:
            raise ValueError(f"unstable regime requires rho(B) >= 1, got {rho:.4f}")
        recomputed = self.b.beta_min()
        if abs(recomputed - self.beta_min) > 1e-12:
            raise ValueError("beta_min does not match the adjacency entries")

    @property
    def d(self) -> int:
        return self.b.d

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "B": [[float(x) for x in row] for row in self.b.matrix],
            "noise": {"family": self.noise.family, "scale": self.noise.scale},
            "regime": self.regime,
            "betaMin": self.beta_min,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScmSpec":
        """Model from the layout of ``to_json_dict``; ValueError if malformed."""
        try:
            return cls(
                b=WeightedAdjacency(data["B"]),
                noise=NoiseSpec(data["noise"]["family"], data["noise"]["scale"]),
                regime=data["regime"],
                beta_min=data["betaMin"],
                seed=data["seed"],
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed SCM JSON: {exc!r}") from exc


def _check_model_args(d, kappa, lam, weight_low, weight_high, regime, noise_family) -> None:
    """Raise ValueError unless ``generate_scm`` can build a model from these arguments."""
    if integer(kappa, "kappa") < 1:
        raise ValueError("kappa must be at least 1")
    if integer(d, "d") < 2 * kappa:
        raise ValueError(f"d={d} cannot host {kappa} SCCs of size >= 2")
    if not 0.0 <= finite(lam, "lam") <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if not 0 < finite(weight_low, "weight_low") <= finite(weight_high, "weight_high"):
        raise ValueError("need 0 < weight_low <= weight_high, both finite")
    if regime not in REGIME_TARGETS:
        raise ValueError(f"unknown regime {regime!r}")
    if noise_family not in NOISE_FAMILIES:
        raise ValueError(f"unknown noise family {noise_family!r}")


def generate_scm(
    d: int,
    kappa: int,
    lam: float,
    weight_low: float = DEFAULT_WEIGHT_LOW,
    weight_high: float = DEFAULT_WEIGHT_HIGH,
    regime: str = "stable",
    seed: int = 0,
    noise_family: str = "laplace",
) -> ScmSpec:
    """Generate a random cyclic SCM with exactly ``kappa`` non-trivial SCCs.

    Nodes are split into ``kappa`` SCC blocks of size >= 2 plus singletons
    (each leftover node joins a random block with probability 1/2, otherwise
    stays a singleton). Every block gets a directed Hamilton cycle plus
    chords at density ``lam``; inter-cluster edges follow a random
    topological order over the blocks-and-singletons at the same density.
    Weights are uniform in ``[weight_low, weight_high]`` with random sign,
    then the whole matrix is rescaled so the spectral radius hits the regime
    target (0.9 stable / 1.5 unstable); ``beta_min`` is recorded after the
    rescale. Deterministic given ``seed``; draws ``WeightedAdjacency`` rejects
    as singular are redrawn from a derived sub-stream, at most ``MAX_REDRAWS`` times.
    """
    _check_model_args(d, kappa, lam, weight_low, weight_high, regime, noise_family)
    target = REGIME_TARGETS[regime]
    noise = NoiseSpec(noise_family, DEFAULT_SCALES[noise_family])

    for attempt in range(MAX_REDRAWS):
        gen = rng_mod.stream(seed, rng_mod.PURPOSE_SCM, attempt)
        order = [int(v) for v in gen.permutation(d)]
        sizes = [2] * kappa
        for _ in range(d - 2 * kappa):
            if gen.random() < 0.5:
                sizes[int(gen.integers(kappa))] += 1
        blocks, pos = [], 0
        for s in sizes:
            blocks.append(order[pos : pos + s])
            pos += s
        clusters = blocks + [[v] for v in order[pos:]]

        edges = []
        for block in blocks:
            m = len(block)
            hamilton = {(block[t], block[(t + 1) % m]) for t in range(m)}
            edges.extend(sorted(hamilton))
            for u in block:
                for v in block:
                    if u != v and (u, v) not in hamilton and gen.random() < lam:
                        edges.append((u, v))
        topo = [clusters[int(i)] for i in gen.permutation(len(clusters))]
        for a in range(len(topo)):
            for b in range(a + 1, len(topo)):
                for u in topo[a]:
                    for v in topo[b]:
                        if gen.random() < lam:
                            edges.append((u, v))

        matrix = np.zeros((d, d))
        for u, v in edges:
            weight = gen.uniform(weight_low, weight_high)
            if gen.random() < 0.5:
                weight = -weight
            matrix[v, u] = weight

        rho0 = spectral_radius(matrix)
        if rho0 < 1e-9:
            continue
        matrix *= target / rho0
        try:
            adjacency = WeightedAdjacency(matrix)
        except SingularModelError:
            continue
        return ScmSpec(
            b=adjacency,
            noise=noise,
            regime=regime,
            beta_min=adjacency.beta_min(),
            seed=seed,
        )
    raise SingularModelError(
        f"no usable draw after {MAX_REDRAWS} attempts (d={d}, kappa={kappa})"
    )


def sample(scm: ScmSpec, n: int, seed: int = 0) -> np.ndarray:
    """Draw n i.i.d. rows of X = (I - B)^{-1} eps: a zero-shift soft intervention."""
    return soft_cluster_intervention(scm, np.zeros(scm.d), n, seed)


def soft_cluster_intervention(
    scm: ScmSpec, delta, n: int, seed: int = 0
) -> np.ndarray:
    """Sample under a shift intervention: X = (I - B)^{-1} (eps + delta).

    :func:`sample` is the zero-shift case and draws the same noise, so
    paired comparisons with the observational draw isolate the shift.
    """
    delta = finite_array(delta, "delta")
    if delta.shape != (scm.d,):
        raise ValueError(f"delta must have length d={scm.d}")
    n = integer(n, "n", 1)
    gen = rng_mod.stream(seed, rng_mod.PURPOSE_SAMPLE)
    eps = scm.noise.draw(gen, (n, scm.d))
    return _solve_system(np.eye(scm.d) - scm.b.matrix, eps + delta)


def hard_cluster_intervention(
    scm: ScmSpec, pi, c, n: int, seed: int = 0
) -> np.ndarray:
    """Sample under do(X_pi = c) for a cluster pi that is a union of SCCs.

    The intervened coordinates are pinned to ``c`` and the complement solves
    the reduced system ``X_rest = (I - B_rr)^{-1} (B_rp c + eps_rest)``.
    Hard interventions on partial SCCs are rejected: severing some but not
    all equations of a cycle leaves no well-defined cyclic mechanism.
    """
    pi = sorted({integer(v, "node id of pi") for v in pi})
    if not pi:
        raise ValueError("pi must be a nonempty node set")
    if any(v < 0 or v >= scm.d for v in pi):
        raise ValueError("pi contains out-of-range nodes")
    c = finite_array(c, "c")
    if c.shape != (len(pi),):
        raise ValueError("c must assign one value per node of pi")
    n = integer(n, "n", 1)

    partition = tarjan_scc(scm.b.support())
    pi_set = set(pi)
    for group in partition.clusters():
        overlap = pi_set.intersection(group)
        if overlap and len(overlap) != len(group):
            raise ValueError(
                f"pi splits the SCC {sorted(group)}; hard interventions must "
                "target unions of SCCs"
            )

    rest = [v for v in range(scm.d) if v not in pi_set]
    gen = rng_mod.stream(seed, rng_mod.PURPOSE_INTERVENTION)
    out = np.empty((n, scm.d))
    out[:, pi] = c
    if rest:
        b = scm.b.matrix
        b_rr = b[np.ix_(rest, rest)]
        b_rp = b[np.ix_(rest, pi)]
        eps = scm.noise.draw(gen, (n, len(rest)))
        out[:, rest] = _solve_system(
            np.eye(len(rest)) - b_rr, eps + b_rp @ c
        )
    return out


def _solve_system(system: np.ndarray, rhs_rows: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(system, rhs_rows.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularModelError(str(exc)) from exc


def save_samples_csv(path, x: np.ndarray) -> None:
    """Write samples as CSV with header X1..Xd and full double precision.

    Raises ValueError, before opening ``path``, unless ``x`` is a 2-D matrix
    of finite numbers: ``load_samples_csv`` reads back only such files.
    """
    x = finite_array(x, "samples")
    if x.ndim != 2:
        raise ValueError("expected a 2-D sample matrix")
    header = ",".join(f"X{i + 1}" for i in range(x.shape[1]))
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header=header, comments="")


def load_samples_csv(path) -> np.ndarray:
    """Read a header of column names, then rows of finite numbers, one per name."""
    with open(path) as fh:
        columns = len(fh.readline().split(","))
        if not any(line.strip() for line in fh):
            raise ValueError(f"{path} holds a header but no sample rows")
    x = finite_array(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2), "sample matrix")
    if x.shape[1] != columns:
        raise ValueError(f"{path}: the header names {columns} columns, the rows hold {x.shape[1]}")
    return x


def save_scm_json(path, scm: ScmSpec) -> None:
    with open(path, "w") as fh:
        json.dump(scm.to_json_dict(), fh, indent=2)
        fh.write("\n")


def load_scm_json(path) -> ScmSpec:
    with open(path) as fh:
        return ScmSpec.from_json_dict(json.load(fh))
