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
import math
import os
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .exceptions import SingularModelError, finite, integer, sample_matrix, square_matrix
from .graphs import DirectedGraph, support_graph

NOISE_FAMILIES = ("laplace", "exponential-centered")

# unit-variance scale parameters per family
DEFAULT_SCALES = {"laplace": 2.0 ** -0.5, "exponential-centered": 1.0}

REGIME_TARGETS = {"stable": 0.9, "unstable": 1.5}

# generate_scm draws |weight| uniformly from [DEFAULT_WEIGHT_LOW, DEFAULT_WEIGHT_HIGH]
DEFAULT_WEIGHT_LOW = 0.5
DEFAULT_WEIGHT_HIGH = 0.95

# values formatted per pass of save_samples_csv, so its memory is bounded at any d
_CSV_CHUNK = 1 << 16

# suffixes by which np.loadtxt picks a decompressor
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")

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


def _radii(b: np.ndarray) -> np.ndarray:
    """Spectral radius of each matrix of a nonempty ``(k, d, d)`` stack, ``d >= 1``."""
    return np.max(np.abs(np.linalg.eigvals(b)), axis=1)


def spectral_radius(b) -> float:
    """Largest eigenvalue modulus of a weighted adjacency (or raw matrix)."""
    m = square_matrix(getattr(b, "matrix", b), "spectral_radius input")
    return float(_radii(m[None])[0]) if m.any() else 0.0


@dataclass(frozen=True)
class ScmSpec:
    """A concrete SCM: weights, noise descriptor, regime tag and provenance."""

    b: WeightedAdjacency
    noise: NoiseSpec
    regime: str
    seed: int

    def __post_init__(self):
        if self.regime not in REGIME_TARGETS:
            raise ValueError(f"unknown regime {self.regime!r}")
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        rho = spectral_radius(self.b)
        if self.regime == "stable" and rho >= 1.0:
            raise ValueError(f"stable regime requires rho(B) < 1, got {rho:.4f}")
        if self.regime == "unstable" and rho < 1.0:
            raise ValueError(f"unstable regime requires rho(B) >= 1, got {rho:.4f}")

    @property
    def d(self) -> int:
        return self.b.d

    @property
    def beta_min(self) -> float:
        """The smallest nonzero |B_ij|, read off ``b``."""
        return self.b.beta_min()

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
        """Model from the layout of ``to_json_dict``; ValueError if malformed.

        The file's ``d`` must be ``B``'s size, and its ``betaMin`` the one
        ``B`` gives, within 1e-12.
        """
        try:
            d = integer(data["d"], "d")
            beta_min = finite(data["betaMin"], "betaMin")
            scm = cls(
                b=WeightedAdjacency(data["B"]),
                noise=NoiseSpec(data["noise"]["family"], data["noise"]["scale"]),
                regime=data["regime"],
                seed=data["seed"],
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed SCM JSON: {exc!r}") from exc
        if d != scm.d:
            raise ValueError(f"d={d} does not match the {scm.d} x {scm.d} adjacency")
        if abs(scm.beta_min - beta_min) > 1e-12:
            raise ValueError("betaMin does not match the adjacency entries")
        return scm


def _check_cell(d, kappa, lam) -> None:
    """Raise ValueError unless ``generate_scm`` accepts this ``d``, ``kappa`` and ``lam``."""
    if integer(kappa, "kappa") < 1:
        raise ValueError("kappa must be at least 1")
    if integer(d, "d") < 2 * kappa:
        raise ValueError(f"d={d} cannot host {kappa} SCCs of size >= 2")
    if not 0.0 <= finite(lam, "lam") <= 1.0:
        raise ValueError("lam must lie in [0, 1]")


def _check_model_args(d, kappa, lam, weight_low, weight_high, regime, noise_family) -> None:
    """Raise ValueError unless ``generate_scm`` can build a model from these arguments."""
    _check_cell(d, kappa, lam)
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
    target (0.9 stable / 1.5 unstable), so ``beta_min``, read off ``B``, is
    that of the rescaled weights. Deterministic given ``seed``; draws
    ``WeightedAdjacency`` rejects as singular are redrawn from a derived
    sub-stream, at most ``MAX_REDRAWS`` times.
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
        return ScmSpec(b=adjacency, noise=noise, regime=regime, seed=seed)
    raise SingularModelError(
        f"no usable draw after {MAX_REDRAWS} attempts (d={d}, kappa={kappa})"
    )


def sample(scm: ScmSpec, n: int, seed: int = 0) -> np.ndarray:
    """Draw n i.i.d. rows of X = (I - B)^{-1} eps, eps i.i.d. from ``scm.noise``."""
    n = integer(n, "n", 1)
    eps = scm.noise.draw(rng_mod.stream(seed, rng_mod.PURPOSE_SAMPLE), (n, scm.d))
    try:
        return np.linalg.solve(np.eye(scm.d) - scm.b.matrix, eps.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularModelError(str(exc)) from exc


def save_samples_csv(path, x: np.ndarray) -> None:
    """Write samples as CSV: a header ``X1,...,Xd``, then one ``%.17g`` row per sample.

    ``path`` is a file name (str or PathLike), opened in text mode. The bytes
    equal ``np.savetxt(path, x, fmt="%.17g", delimiter=",", header=header,
    comments="")``; ``%.17g`` round-trips every double exactly. Raises
    ValueError, before opening ``path``, unless ``x`` is a 2-D matrix of
    finite numbers with at least one row and one column, and for a name that
    numpy's loader would decompress: ``load_samples_csv`` reads back only
    plain-text files of such matrices.
    """
    x = sample_matrix(x, "samples")
    _check_plain_text_name(path)
    d = x.shape[1]
    # one % over a block formats in C what np.savetxt formats row by row
    row_format = ",".join(["%.17g"] * d) + "\n"
    rows = max(1, _CSV_CHUNK // d)
    with open(path, "w") as fh:
        fh.write(",".join(f"X{i + 1}" for i in range(d)) + "\n")
        for start in range(0, x.shape[0], rows):
            block = x[start:start + rows]
            fh.write((row_format * block.shape[0]) % tuple(block.ravel().tolist()))


def _check_plain_text_name(path) -> None:
    if os.fsdecode(path).endswith(_COMPRESSED_SUFFIXES):
        raise ValueError(f"{path}: samples CSVs are plain text, and numpy's loader "
                         f"decompresses files named {', '.join(_COMPRESSED_SUFFIXES)}")


def _is_finite_number(field: str) -> bool:
    try:
        return math.isfinite(float(field))
    except ValueError:
        return False


def _first_bad_line(path, columns: int) -> str | None:
    """Where a samples CSV stops parsing: its first row not of ``columns`` numbers, by line number.

    Lines are counted in the file, header and blank lines included; blank
    lines are skipped, as ``np.loadtxt`` skips them.
    """
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            cells = line.rstrip("\n").split(",")
            if number == 1 or cells == [""]:
                continue
            if len(cells) != columns:
                return f"line {number}: the header names {columns} columns, the line {len(cells)}"
            for cell in cells:
                try:
                    float(cell.replace("_", "x"))  # numpy's parser, unlike float's, takes no "_"
                except ValueError:
                    return f"line {number}: {cell!r} is not a number"
    return None


def load_samples_csv(path) -> np.ndarray:
    """Read a samples CSV: a header of column names, then rows of finite numbers, one per name.

    ``path`` is a file name of plain text, as ``save_samples_csv`` writes.
    Blank lines are skipped. Raises ValueError for a compressed name, a first
    line of numbers (the header is required), a file with no sample rows, a
    row that does not parse, ``#`` included (the file has no comment lines),
    naming its line in the file (``_first_bad_line``), non-finite entries
    and rows of another length than the header.
    """
    _check_plain_text_name(path)
    with open(path) as fh:
        names = fh.readline().split(",")
        if all(_is_finite_number(name) for name in names):
            raise ValueError(f"{path}: a samples CSV starts with its column names "
                             f"(X1,...,Xd); its first line holds numbers")
        columns = len(names)
        if not any(line.strip() for line in fh):
            raise ValueError(f"{path} holds a header but no sample rows")
    try:
        x = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except ValueError as exc:  # numpy counts rows from 0 after the header and blank lines
        raise ValueError(f"{path}, {_first_bad_line(path, columns) or exc}") from exc
    x = sample_matrix(x, "sample matrix")
    if x.shape[1] != columns:
        raise ValueError(f"{path}: the header names {columns} columns, the rows hold {x.shape[1]}")
    return x


def save_scm_json(path, scm: ScmSpec) -> None:
    with open(path, "w") as fh:
        json.dump(scm.to_json_dict(), fh, indent=2)
        fh.write("\n")

