"""Experiment harness: grid runs and the sample-complexity study.

Both studies run one unit of work: a model, one sample of size n and one
record seed, fitted once with ``recover_condensation`` at the smallest of
the study's taus (the grid's ``cfg.taus``, or beta_min / 2 of the fixed
SCM), then cut and scored at each of them; a threshold sweep is a grid of
one cell. A unit is pure given its derived sub-seeds, so runs are
deterministic, resumable (a unit whose rows all exist is skipped) and safely
parallelizable. Results go to a flat CSV, one column per ``ExperimentRecord``
field, ordered by key rather than completion time and read back by the rules
it is written with. Sub-seeds for the model, the sample and FastICA (whose
seed is its one setting) are derived by hashing the explicit record seed
together with cell identifiers and a purpose tag through
``rng.derive_seed`` (SeedSequence); the SCM stream deliberately excludes the
sample size so one seed sees a growing sample of the same model.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import rng as rng_mod
from .exceptions import NUMERICAL_FAILURES, finite, finite_array, integer
from .graphs import support_graph
from .metrics import evaluate
from .recover import (
    DEFAULT_ENUM_CAP, DEFAULT_TAU, MODES, check_tau, recover_condensation,
    threshold as apply_threshold,
)
from .scm import (
    DEFAULT_WEIGHT_HIGH, DEFAULT_WEIGHT_LOW, _check_model_args, generate_scm, sample,
)

# purpose tags for harness-level sub-seed derivation
TAG_SCM = 101
TAG_SAMPLE = 102
TAG_ICA = 103

_REGIME_CODE = {"stable": 0, "unstable": 1}

CI_Z = 1.96  # normal-approximation 95% bands across seeds


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True, kw_only=True)
class _StudyConfig:
    """Base of the two study configs: their shared fields, checks and JSON constructor.

    Fields are keyword-only, so a config is built from names, never positions.
    """

    d: int = 10
    weight_low: float = DEFAULT_WEIGHT_LOW
    weight_high: float = DEFAULT_WEIGHT_HIGH
    noise_family: str = "laplace"

    def __post_init__(self):  # the checks both share, so no unit fails on its arguments
        for f in fields(self):  # a repeated value would run its units again for the same rows
            if isinstance(f.default, tuple):
                values = getattr(self, f.name)
                _require(isinstance(values, (tuple, list, range)) and len(values) > 0 and all(
                    a != b for a, b in itertools.combinations(values, 2)),
                    f"{f.name} must be a nonempty sequence of distinct values")
                object.__setattr__(self, f.name, tuple(values))
        for kappa, lam, regime in self._cells():
            _check_model_args(self.d, kappa, lam, self.weight_low, self.weight_high,
                              regime, self.noise_family)
        sizes = [integer(n, "sample size") for n in self.sample_sizes]
        _require(all(a < b for a, b in zip(sizes, sizes[1:])),
                 "sample_sizes must be strictly increasing")
        _require(min(sizes) > self.d, f"every sample size must exceed d={self.d}")
        for seed in self.seeds:
            integer(seed, "seed", 0)

    def _cells(self) -> list:  # the study's (kappa, lambda, regime) cells
        return [(self.kappa, self.lam, self.regime)]

    def _fit(self) -> dict:  # the recover_condensation knobs besides tau and the ICA seed
        return dict(mode="hungarian")

    @classmethod
    def from_json_dict(cls, data: dict):
        """Build a config from a JSON object: ``lambda`` aliases ``lam``, an int ``seeds`` counts."""
        if not isinstance(data, dict):
            raise ValueError(f"a {cls.__name__} must be a JSON object, got {type(data).__name__}")
        kwargs = dict(data)
        names = set(cls.__dataclass_fields__)  # unknown keys by the names the file uses
        unknown = set(kwargs) - names - ({"lambda"} if "lam" in names else set())
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "lambda" in kwargs:
            _require("lam" not in kwargs, "config names both lambda and lam")
            kwargs["lam"] = kwargs.pop("lambda")
        try:
            if not isinstance(kwargs.get("seeds", ()), (list, tuple)):  # a count of seeds
                kwargs["seeds"] = range(integer(kwargs["seeds"], "seed count"))
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"malformed {cls.__name__}: {exc}") from exc


@dataclass(frozen=True, kw_only=True)
class GridConfig(_StudyConfig):
    """Grid configuration: cells = kappas x lambdas x regimes, each fit cut at every tau."""

    kappas: tuple = (3, 4, 5)
    lambdas: tuple = (0.3, 0.5, 0.8)
    regimes: tuple = ("stable", "unstable")
    sample_sizes: tuple = (50, 200, 1000, 5000, 20000, 100000)
    seeds: tuple = tuple(range(10))
    taus: tuple = (DEFAULT_TAU,)
    mode: str = "enumerate-first-stable"
    enum_cap: int = DEFAULT_ENUM_CAP

    def __post_init__(self):
        super().__post_init__()
        for tau in self.taus:
            check_tau(tau)
        _require(self.mode in MODES, f"mode must be one of {MODES}")
        integer(self.enum_cap, "enum_cap", 1)

    def _cells(self) -> list:
        return list(itertools.product(self.kappas, self.lambdas, self.regimes))

    def _fit(self) -> dict:
        return dict(mode=self.mode, enum_cap=self.enum_cap)


@dataclass(frozen=True, kw_only=True)
class SampleComplexityConfig(_StudyConfig):
    """Fixed-SCM recovery-rate study: Hungarian fits, tau pinned to beta_min / 2."""

    kappa: int = 4
    lam: float = 0.5
    regime: str = "stable"
    scm_seed: int = 0
    seeds: tuple = tuple(range(100))
    sample_sizes: tuple = tuple(int(round(10 ** (2 + k / 5))) for k in range(16))  # 1e2..1e5
    window: tuple = (200, 1000)

    def __post_init__(self):
        super().__post_init__()
        window = [finite(v, "window bound") for v in self.window]
        _require(len(window) == 2 and window[0] < window[1],
                 "window must be (low, high), two numbers with low < high")
        integer(self.scm_seed, "scm_seed", 0)


@dataclass(frozen=True)
class ExperimentRecord:
    """One (cell, seed) result row; metric fields are None on failure."""

    d: int
    kappa: int
    lam: float
    regime: str
    n: int
    seed: int
    tau: float
    ari: float | None = None
    cluster_f1: float | None = None
    variable_f1: float | None = None
    hamming: int | None = None
    exact_recovery: bool | None = None
    pred_clusters: int | None = None
    fit_ms: float | None = None
    ica_iters: int | None = None
    error: str = ""

    def key(self) -> tuple:
        return (self.d, self.kappa, self.lam, self.regime, self.n, self.seed, self.tau)

    def to_csv_row(self) -> str:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "1" if x else "0"
            return str(x)  # a float's shortest round-trip form, as repr gives

        return ",".join(fmt(getattr(self, f.name)) for f in fields(self))

    @classmethod
    def from_csv_row(cls, row: str) -> "ExperimentRecord":
        """Parse a row the harness writes; ValueError on any other row.

        Each cell must be one ``to_csv_row`` writes (``_parse_cell``), the
        regime a known one, and the metric columns all filled on a scored
        row and all empty on an error row.
        """
        columns, cells = fields(cls), row.rstrip("\n").split(",")
        if len(cells) != len(columns):
            raise ValueError(f"malformed record row: {row!r}")
        rec = cls(*(_parse_cell(f, text) for f, text in zip(columns, cells)))
        if rec.regime not in _REGIME_CODE:
            raise ValueError(f"results cell {rec.regime!r} is not a valid regime")
        filled = [getattr(rec, f.name) is not None for f in columns if f.default is None]
        if any(filled) if rec.error else not all(filled):
            raise ValueError(f"results row is neither a scored row nor an error row: {row!r}")
        return rec


def _parse_cell(f, text: str):
    """Field ``f`` read from a cell by the rule ``to_csv_row`` writes it with; else ValueError.

    Integers only as ``str(int)``, booleans only as 0 or 1, floats only if
    finite and written as ``str(float)`` (or as ``str(int)`` for an integral
    value, which files written from an int ``tau`` or ``lambda`` hold); an
    empty cell only where ``f`` has a default (metrics, ``error``).
    """
    kind = f.type.removesuffix(" | None")  # annotations are strings (the __future__ import)
    try:
        if text == "" and f.default is not MISSING:
            return f.default
        if kind == "int" and str(value := int(text)) == text:
            return value
        if kind == "float" and math.isfinite(value := float(text)) and (
                text == str(value) or value.is_integer() and text == str(int(value))):
            return value
        if kind == "bool" and text in ("0", "1"):
            return text == "1"
        if kind == "str" and text:
            return text
    except ValueError:
        pass
    raise ValueError(f"results cell {text!r} is not a valid {f.name} ({kind})")


# one column per ExperimentRecord field, in field order; lam is the one written as another name
CSV_HEADER = ",".join({"lam": "lambda"}.get(f.name, f.name) for f in fields(ExperimentRecord))


def load_records(path) -> list:
    """Parse an existing results CSV (empty list when the file is absent)."""
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        return []
    if lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not carry the expected results header")
    return [ExperimentRecord.from_csv_row(line) for line in lines[1:] if line]


def write_records(path, records) -> None:
    """Write records sorted by key, atomically (temp file + replace)."""
    ordered = sorted(records, key=lambda r: r.key())
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in ordered:
            fh.write(rec.to_csv_row() + "\n")
    os.replace(tmp, path)


def _cell_keys(d: int, kappa: int, lam: float, regime: str) -> tuple:
    return (d, kappa, rng_mod.quantize(lam), _REGIME_CODE[regime])


@dataclass(frozen=True)
class _Unit:
    """One model at one (n, seed): fitted once, scored at every tau in ``taus``.

    ``cfg`` is the study config, read for ``d``, the weight bounds, the
    noise family and the remaining ``recover_condensation`` knobs; the
    three seeds are the unit's derived sub-seeds.
    """

    cfg: object
    kappa: int
    lam: float
    regime: str
    n: int
    seed: int
    taus: tuple
    scm_seed: int
    sample_seed: int
    ica_seed: int

    def rows(self) -> list:
        """The unit's records before scoring, one per tau."""
        return [
            ExperimentRecord(self.cfg.d, self.kappa, float(self.lam), self.regime,
                             self.n, self.seed, float(tau))
            for tau in self.taus
        ]


def _run_unit(unit: _Unit) -> list:
    """Fit once at the smallest tau, then cut the selected candidate at each tau and score it.

    A cut depends on the candidate and tau alone, so each support equals the
    one a fit at that tau gives. A failed fit yields one error row per tau.
    """
    cfg, rows = unit.cfg, unit.rows()
    try:
        scm = generate_scm(
            cfg.d, unit.kappa, unit.lam, cfg.weight_low, cfg.weight_high,
            unit.regime, seed=unit.scm_seed, noise_family=cfg.noise_family,
        )
        x = sample(scm, unit.n, seed=unit.sample_seed)
        fitted = recover_condensation(x, tau=min(unit.taus), seed=unit.ica_seed, **cfg._fit())
    except NUMERICAL_FAILURES as exc:
        return [replace(row, error=type(exc).__name__) for row in rows]
    truth = scm.b.support()
    records = []
    for row in rows:
        report = evaluate(support_graph(apply_threshold(fitted.candidate, row.tau)), truth)
        records.append(replace(
            row,
            ari=report.ari,
            cluster_f1=report.cluster_dag_f1,
            variable_f1=report.variable_f1,
            hamming=report.hamming_support,
            exact_recovery=report.hamming_support == 0,
            pred_clusters=report.predicted_partition_size,
            fit_ms=fitted.timings_ms["total_ms"],
            ica_iters=fitted.ica_iterations,
        ))
    return records


def _execute(cfg, taus, sub_seeds, out_path, workers) -> list:
    """Run one unit per (cell, n, seed) whose rows are missing; merge and write.

    ``sub_seeds(seed, cell, n)`` gives the (SCM, sample, ICA) seeds of a unit
    of the config's (kappa, lambda, regime) ``cell``. Rows already in
    ``out_path`` win, so reruns are idempotent. Returns the wanted records sorted by key.
    ``workers >= 1`` (ValueError otherwise) caps the pool, which gets one
    process per unit left to run, at most ``workers``; one unit or one
    worker runs in this process.
    """
    workers = integer(workers, "workers", 1)
    units = []
    for kappa, lam, regime in cfg._cells():
        cell = _cell_keys(cfg.d, kappa, lam, regime)
        for n in cfg.sample_sizes:
            for seed in cfg.seeds:
                units.append(_Unit(cfg, kappa, lam, regime, n, seed, taus,
                                   *sub_seeds(seed, cell, n)))
    existing = {r.key(): r for r in load_records(out_path)} if out_path else {}
    todo = [u for u in units if any(r.key() not in existing for r in u.rows())]
    if min(workers, len(todo)) <= 1:
        produced = [_run_unit(u) for u in todo]
    else:  # fork starts every worker up front: no more than there are units
        with ProcessPoolExecutor(max_workers=min(workers, len(todo))) as pool:
            produced = list(pool.map(_run_unit, todo, chunksize=1))
    merged = dict(existing)
    for rec in itertools.chain.from_iterable(produced):
        merged.setdefault(rec.key(), rec)
    if out_path:
        write_records(out_path, merged.values())
    return [merged[k] for k in sorted({r.key() for u in units for r in u.rows()})]


def _cell_sub_seeds(seed: int, cell: tuple, n: int) -> tuple:
    """Grid sub-seeds: the SCM stream is keyed by the cell, not by n."""
    return (
        rng_mod.derive_seed(seed, TAG_SCM, *cell),
        rng_mod.derive_seed(seed, TAG_SAMPLE, *cell, n),
        rng_mod.derive_seed(seed, TAG_ICA, *cell, n),
    )


def run_grid(cfg: GridConfig, out_path=None, workers: int = 1) -> list:
    """Fit every (cell, n, seed) of the grid once, cut at each tau; records sorted by key."""
    return _execute(cfg, cfg.taus, _cell_sub_seeds, out_path, workers)


def run_sample_complexity(cfg: SampleComplexityConfig, out_path=None, workers: int = 1) -> tuple:
    """Fixed-SCM sweep over n; returns (records, summary dict).

    The threshold is beta_min / 2 of the generated SCM, fitted in Hungarian
    mode. The summary carries per-n aggregates (mean Hamming, exact-recovery
    rate, 95% CI) and the OLS log-log slope of the recovery error over the
    transition window.
    """
    scm = generate_scm(
        cfg.d, cfg.kappa, cfg.lam, cfg.weight_low, cfg.weight_high, cfg.regime,
        seed=cfg.scm_seed, noise_family=cfg.noise_family,
    )
    tau = scm.beta_min / 2

    def sub_seeds(seed, cell, n):  # one fixed model; sample and ICA keyed by n
        return (
            cfg.scm_seed,
            rng_mod.derive_seed(seed, TAG_SAMPLE, n),
            rng_mod.derive_seed(seed, TAG_ICA, n),
        )

    records = _execute(cfg, (tau,), sub_seeds, out_path, workers)
    summary = summarize_sample_complexity(records, cfg.window)
    summary["tau"] = tau
    summary["betaMin"] = scm.beta_min
    summary["scmSeed"] = cfg.scm_seed
    return records, summary


def _mean_ci(values) -> dict:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    half = CI_Z * sd / math.sqrt(arr.size)
    return {"mean": mean, "ciLow": mean - half, "ciHigh": mean + half}


def _rate_ci(hits: int, total: int) -> dict:
    rate = hits / total
    half = CI_Z * math.sqrt(rate * (1 - rate) / total)
    return {"rate": rate, "ciLow": max(0.0, rate - half), "ciHigh": min(1.0, rate + half)}


def ols_slope(xs, ys) -> float:
    """Least-squares slope of ``ys`` on ``xs``; ValueError unless the xs have a spread."""
    xs, ys = finite_array(xs, "xs"), finite_array(ys, "ys")
    if xs.size < 2:
        raise ValueError("need at least two points for a slope")
    xc = xs - xs.mean()
    if not (spread := xc @ xc) > 0:
        raise ValueError("xs have no spread: a slope needs two distinct xs")
    return float((xc @ (ys - ys.mean())) / spread)


def summarize_grid(records) -> dict:
    """Per-cell aggregates over seeds (errors counted, not averaged)."""
    cells = {}
    for rec in records:
        cells.setdefault((rec.d, rec.kappa, rec.lam, rec.regime, rec.n, rec.tau), []).append(rec)
    out = []
    for (d, kappa, lam, regime, n, tau), group in sorted(cells.items()):
        good = [r for r in group if not r.error]
        entry = {
            "d": d, "kappa": kappa, "lambda": lam, "regime": regime, "n": n,
            "tau": tau, "seeds": len(group), "errors": len(group) - len(good),
        }
        if good:
            for name, attr in (("ari", "ari"), ("clusterF1", "cluster_f1"),
                               ("variableF1", "variable_f1")):
                vals = [getattr(r, attr) for r in good]
                entry[name] = _mean_ci(vals)
                entry[name]["median"] = float(np.median(vals))
            entry["exactRecovery"] = _rate_ci(
                sum(r.exact_recovery for r in good), len(good)
            )
            entry["fitMs"] = _mean_ci([r.fit_ms for r in good])
            entry["predClusters"] = {
                "median": float(np.median([r.pred_clusters for r in good]))
            }
        out.append(entry)
    return {"ciMethod": f"normal approximation, z={CI_Z}", "cells": out}


def summarize_sample_complexity(records, window) -> dict:
    """Per-n aggregates plus the transition-window OLS slope.

    The slope regresses log(1 - recovery rate) on log(n) over window cells
    with a nonzero failure rate; cells that already recover in every seed
    carry no information about the decay and are left out. With fewer than
    two such cells the slope is reported as None.
    """
    by_n = {}
    for rec in records:
        if not rec.error:
            by_n.setdefault(rec.n, []).append(rec)
    per_n = []
    for n in sorted(by_n):
        group = by_n[n]
        rate = _rate_ci(sum(r.exact_recovery for r in group), len(group))
        per_n.append({"n": n, "seeds": len(group),
                      "meanHamming": _mean_ci([r.hamming for r in group]),
                      "exactRecovery": rate})
    lo, hi = window
    xs, ys = [], []
    for entry in per_n:
        err = 1.0 - entry["exactRecovery"]["rate"]
        if lo <= entry["n"] <= hi and err > 0:
            xs.append(math.log(entry["n"]))
            ys.append(math.log(err))
    slope = ols_slope(xs, ys) if len(xs) >= 2 else None
    return {
        "ciMethod": f"normal approximation, z={CI_Z}",
        "perN": per_n,
        "transitionWindow": [lo, hi],
        "slopeCells": int(len(xs)),
        "olsSlope": slope,
    }
