"""Synthetic linear non-Gaussian cyclic SCMs.

Models follow ``X = B X + eps`` with ``X = (I - B)^{-1} eps``; entry
``B[i, j] != 0`` encodes the edge ``X_j -> X_i``. Generated graphs have a
controlled number of non-trivial SCCs (each built around a directed
Hamilton cycle), intra-SCC chords and order-respecting inter-cluster edges
sampled at a common density, and weights rescaled by a global scalar so the
spectral radius hits the regime target.

Samples travel as CSV text. ``load_samples_csv`` reads the ``%.17g`` rows
``save_samples_csv`` writes by an exact integer route (Clinger 1990): each
value is its dot-stripped digits, parsed as an integer, divided once by a
power of ten in x87 extended precision. Its bits are ``np.loadtxt``'s, and
any file outside that route is read by ``np.loadtxt`` itself.
"""

from __future__ import annotations

import json
import math
import os
import warnings
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

# bytes read per block of whole lines by load_samples_csv's integer route
_CSV_BLOCK = 1 << 16

# that route divides |m| < 10**18 < 2**63 by 10**k, k <= 27, both exact in
# the 64-bit significand of x87 extended precision, so the quotient is
# rounded once there; it is read from the 16-byte layout of x86-64
_X87_DIVISION = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
_EXACT_DIGITS = 10 ** 18
_EXACT_SCALE = 27
_POW10 = np.array([10 ** k for k in range(_EXACT_SCALE + 1)], dtype=np.longdouble)

# the integer parse's view of a block: dots deleted, "\n" a separator, and
# every byte outside [0-9+-,] an "x", which np.fromstring refuses
_DIGITS_ONLY = bytes(
    b if chr(b) in "0123456789+-," else ord(",") if b == ord("\n") else ord("x")
    for b in range(256)
)

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


def _exact_block(block: bytes, columns: int):
    """The values of a block of whole lines, row after row, or None where ``np.loadtxt`` must decide.

    Every token must be ``[+-]digits.digits`` (either side may be empty, not
    both), or such a mantissa with an ``e``/``E`` exponent, and every line
    must hold ``columns`` of them. The digits with the dot deleted are an
    integer ``m``, parsed in C by ``np.fromstring``, and the value is
    ``|m| / 10**k``, ``k`` digits after the dot, divided in x87 extended
    precision and rounded to double. That is one rounding of the exact
    quotient, so the correctly rounded value, unless the 64-bit quotient
    lies on a midpoint between two doubles: its low 11 bits are 0x400 for
    about one random 18-digit token in 2,000, and for no ``%.17g`` of a
    double, which lies closer to it than half an ulp. Those tokens, exponent
    tokens, and tokens with ``|m| >= 10**18`` or ``k > 27`` are read by
    ``float``, whose correctly rounded parse is the one numpy's loader calls.
    """
    a = np.frombuffer(block, np.uint8)
    # bytes up to "," but "+": the separators, and bytes the integer parse refuses
    seps = np.flatnonzero(a <= ord(","))
    if b"+" in block:
        seps = seps[a[seps] != ord("+")]
    dots = np.flatnonzero(a == ord("."))
    n = seps.size
    if n % columns or dots.size != n:
        return None
    starts = np.empty_like(seps)
    starts[0], starts[1:] = 0, seps[:-1] + 1
    if not (np.all(dots >= starts) and np.all(dots < seps)):
        return None  # a token without exactly one dot
    newline = a[seps] == ord("\n")
    if not newline[columns - 1::columns].all() or np.count_nonzero(newline) != n // columns:
        return None  # a ragged or blank line
    after_dots = a[dots + 1]
    if np.any((after_dots == ord("-")) | (after_dots == ord("+"))):
        # deleting the dot of ".-5" leaves "-5"; a sign elsewhere inside a
        # token stays inside its digits, which np.fromstring refuses
        return None
    for short in np.flatnonzero(seps - starts <= 2).tolist():
        if not block[starts[short]:seps[short]].replace(b".", b"").isdigit():
            return None  # np.fromstring reads a lone sign as 0
    digits = block.translate(_DIGITS_ONLY, b".")
    rare = {}  # token index -> its text, for tokens float reads
    for letter in b"eE":
        at = block.find(letter)
        while at >= 0:
            i = int(np.searchsorted(seps, at))
            rare[i] = block[starts[i]:seps[i]]
            at = block.find(letter, seps[i])
    if rare:  # the integer parse reads exponent tokens as 0
        digits = bytearray(digits)
        for i, text in rare.items():
            if text.translate(None, b"0123456789.eE+-"):
                return None  # float, unlike numpy, would skip blanks and "_"
            digits[starts[i] - i:seps[i] - i - 1] = b"0" * (len(text) - 1)
        digits = bytes(digits)
    with warnings.catch_warnings():  # numpy < 2 warns at unmatched data and stops short
        warnings.simplefilter("ignore", DeprecationWarning)
        try:  # numpy 2 refuses it
            m = np.fromstring(digits, dtype=np.int64, sep=",")
        except ValueError:
            return None
    if m.size != n:
        return None
    k = seps - dots - 1
    q = np.abs(m).astype(np.longdouble)
    q /= _POW10[np.minimum(k, _EXACT_SCALE)]
    values = q.astype(np.float64)
    np.negative(values, out=values, where=a[starts] == ord("-"))
    significands = q.view(np.uint64)[::2]  # the low 8 of each x87 value's 16 bytes
    unsure = (significands & 0x7FF) == 0x400
    unsure |= (m >= _EXACT_DIGITS) | (m <= -_EXACT_DIGITS) | (k > _EXACT_SCALE)
    for i in np.flatnonzero(unsure).tolist():
        rare.setdefault(i, block[starts[i]:seps[i]])
    try:
        for i, text in rare.items():
            values[i] = float(text)
    except ValueError:
        return None
    return values


def _line_blocks(fh):
    """The rest of the binary file ``fh`` in blocks of whole lines, about ``_CSV_BLOCK`` bytes each.

    Each block ends in a newline; one is added to a last line without it.
    """
    tail = b""
    while chunk := fh.read(_CSV_BLOCK):
        block = tail + chunk
        cut = block.rfind(b"\n") + 1
        if cut:  # else a line longer than a block: read on
            yield block[:cut]
        tail = block[cut:]
    if tail:
        yield tail + b"\n"


def _read_exact(path, columns: int):
    """``np.loadtxt``'s matrix of a samples CSV, read block by block, or None where it must read it."""
    if not _X87_DIVISION:
        return None
    with open(path, "rb") as fh:
        if b"\r" in fh.readline():  # the header, which np.loadtxt skips as one line
            return None
        size = os.fstat(fh.fileno()).st_size
        out, count = np.empty(0), 0
        for block in _line_blocks(fh):
            values = _exact_block(block, columns)
            if values is None:
                return None
            if count + values.size > out.size:  # sized by the bytes per value so far
                estimate = math.ceil((count + values.size) * size / fh.tell())
                out.resize(max(estimate, count + values.size), refcheck=False)
            out[count:count + values.size] = values
            count += values.size
    out.resize(count, refcheck=False)
    return out.reshape(-1, columns)


def load_samples_csv(path) -> np.ndarray:
    """Read a samples CSV: a header of column names, then rows of finite numbers, one per name.

    ``path`` is a file name of plain text, as ``save_samples_csv`` writes.
    Blank lines are skipped. Raises ValueError for a compressed name, a first
    line of numbers (the header is required), a file with no sample rows, a
    row that does not parse, ``#`` included (the file has no comment lines),
    naming its line in the file (``_first_bad_line``), non-finite entries
    and rows of another length than the header.

    The matrix is bit for bit ``np.loadtxt(path, delimiter=",",
    skiprows=1, ndmin=2, comments=None)``. Rows of decimal tokens with one
    dot each, such as ``%.17g`` writes, are read by an exact integer route
    (``_exact_block``) in blocks of ``_CSV_BLOCK`` bytes. A file with a blank
    line, a CR, a blank, a ``#``, a ragged row, a token without exactly one
    dot, a lone sign (``-.``) or a sign after the dot (``.-5``), or a
    platform whose ``np.longdouble`` is not x87 extended, is read by
    ``np.loadtxt``, and its errors are that loader's.
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
    x = _read_exact(path, columns)
    if x is None:
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

