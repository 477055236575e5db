"""Experiment harness: grid runs, threshold sweeps, sample-complexity study.

Work units are (cell, seed) pairs, each pure given its derived sub-streams,
so runs are deterministic, resumable (existing rows are skipped by key) and
safely parallelizable. Results go to a flat CSV with the schema

    d,kappa,lambda,regime,n,seed,tau,ari,cluster_f1,variable_f1,hamming,
    exact_recovery,pred_clusters,fit_ms,ica_iters,error

ordered by key rather than completion time. Sub-seeds are derived by hashing
the explicit record seed together with cell identifiers and a purpose tag
through ``rng.derive_seed`` (SeedSequence); the SCM stream deliberately
excludes the sample size so one seed sees a growing sample of the same model.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rng_mod
from .exceptions import NumericalError
from .graphs import condense, tarjan_scc
from .ica import IcaOptions
from .metrics import evaluate
from .recover import (
    DEFAULT_ENUM_CAP,
    DEFAULT_ENUM_FLOOR,
    MODES,
    check_eta,
    check_scan_knobs,
    check_tau,
    recover_condensation,
    threshold as apply_threshold,
)
from .scm import NOISE_FAMILIES, REGIME_TARGETS, generate_scm, sample

CSV_HEADER = (
    "d,kappa,lambda,regime,n,seed,tau,ari,cluster_f1,variable_f1,hamming,"
    "exact_recovery,pred_clusters,fit_ms,ica_iters,error"
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


@dataclass(frozen=True)
class GridConfig:
    """Main-grid configuration (cells = kappas x lambdas x regimes x sizes)."""

    d: int = 10
    kappas: tuple = (3, 4, 5)
    lambdas: tuple = (0.3, 0.5, 0.8)
    regimes: tuple = ("stable", "unstable")
    sample_sizes: tuple = (50, 200, 1000, 5000, 20000, 100000)
    seeds: tuple = tuple(range(10))
    tau: float = 0.1
    eta: float = 1e-3
    ica: IcaOptions = field(default_factory=IcaOptions)
    mode: str = "enumerate-first-stable"
    weight_low: float = 0.5
    weight_high: float = 0.95
    noise_family: str = "laplace"
    enum_floor: float = DEFAULT_ENUM_FLOOR
    enum_cap: int = DEFAULT_ENUM_CAP

    def __post_init__(self):
        _require(bool(self.kappas), "kappas must be nonempty")
        _require(bool(self.lambdas), "lambdas must be nonempty")
        _require(bool(self.regimes), "regimes must be nonempty")
        _require(bool(self.sample_sizes), "sample_sizes must be nonempty")
        _require(bool(self.seeds), "seeds must be nonempty")
        _require(
            all(a < b for a, b in zip(self.sample_sizes, self.sample_sizes[1:])),
            "sample_sizes must be strictly increasing",
        )
        _require(self.mode in MODES, f"mode must be one of {MODES}")
        _require(
            all(r in REGIME_TARGETS for r in self.regimes),
            "regimes must be 'stable' or 'unstable'",
        )
        _require(self.noise_family in NOISE_FAMILIES, "unknown noise family")
        check_tau(self.tau)
        check_eta(self.eta)
        check_scan_knobs(self.enum_floor, self.enum_cap)

    @classmethod
    def from_json_dict(cls, data: dict) -> "GridConfig":
        return cls(**_config_kwargs(cls, data))


@dataclass(frozen=True)
class ThresholdSweepConfig:
    """One grid cell swept across thresholds with a shared fit per (n, seed)."""

    d: int = 10
    kappa: int = 4
    lam: float = 0.5
    regime: str = "stable"
    taus: tuple = (0.001, 0.01, 0.1, 0.2, 0.5, 1.0)
    sample_sizes: tuple = (500, 5000, 50000)
    seeds: tuple = tuple(range(10))
    eta: float = 1e-3
    ica: IcaOptions = field(default_factory=IcaOptions)
    mode: str = "enumerate-first-stable"
    weight_low: float = 0.5
    weight_high: float = 0.95
    noise_family: str = "laplace"
    enum_floor: float = DEFAULT_ENUM_FLOOR
    enum_cap: int = DEFAULT_ENUM_CAP

    def __post_init__(self):
        _require(bool(self.taus), "taus must be nonempty")
        _require(bool(self.sample_sizes), "sample_sizes must be nonempty")
        _require(bool(self.seeds), "seeds must be nonempty")
        _require(
            all(a < b for a, b in zip(self.sample_sizes, self.sample_sizes[1:])),
            "sample_sizes must be strictly increasing",
        )
        _require(self.regime in REGIME_TARGETS, "unknown regime")
        _require(self.mode in MODES, f"mode must be one of {MODES}")
        _require(self.noise_family in NOISE_FAMILIES, "unknown noise family")
        for tau in self.taus:
            check_tau(tau)
        check_eta(self.eta)
        check_scan_knobs(self.enum_floor, self.enum_cap)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ThresholdSweepConfig":
        return cls(**_config_kwargs(cls, data))


@dataclass(frozen=True)
class SampleComplexityConfig:
    """Fixed-SCM recovery-rate study with tau pinned to beta_min / 2."""

    d: int = 10
    kappa: int = 4
    lam: float = 0.5
    regime: str = "stable"
    scm_seed: int = 0
    seeds: tuple = tuple(range(100))
    sample_sizes: tuple = tuple(
        int(round(10 ** (2 + k / 5))) for k in range(16)
    )  # 5 points per decade, 1e2..1e5
    window: tuple = (200, 1000)
    eta: float = 1e-3
    ica: IcaOptions = field(default_factory=IcaOptions)
    weight_low: float = 0.5
    weight_high: float = 0.95
    noise_family: str = "laplace"

    def __post_init__(self):
        _require(bool(self.sample_sizes), "sample_sizes must be nonempty")
        _require(bool(self.seeds), "seeds must be nonempty")
        _require(
            all(a < b for a, b in zip(self.sample_sizes, self.sample_sizes[1:])),
            "sample_sizes must be strictly increasing",
        )
        _require(len(self.window) == 2 and self.window[0] < self.window[1],
                 "window must be (low, high) with low < high")
        _require(self.regime in REGIME_TARGETS, "unknown regime")

    @classmethod
    def from_json_dict(cls, data: dict) -> "SampleComplexityConfig":
        return cls(**_config_kwargs(cls, data))


def _config_kwargs(cls, data: dict) -> dict:
    """Normalize a JSON config dict into dataclass kwargs."""
    kwargs = dict(data)
    if "lambda" in kwargs:
        kwargs["lam"] = kwargs.pop("lambda")
    for name in ("kappas", "lambdas", "regimes", "sample_sizes", "taus", "window"):
        if name in kwargs:
            kwargs[name] = tuple(kwargs[name])
    if "seeds" in kwargs:
        seeds = kwargs["seeds"]
        kwargs["seeds"] = tuple(range(seeds)) if isinstance(seeds, int) else tuple(seeds)
    if "ica" in kwargs:
        kwargs["ica"] = IcaOptions(**kwargs["ica"])
    allowed = set(cls.__dataclass_fields__)
    unknown = set(kwargs) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return kwargs


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
        return (
            self.d,
            self.kappa,
            rng_mod.quantize(self.lam),
            self.regime,
            self.n,
            self.seed,
            rng_mod.quantize(self.tau),
        )

    def to_csv_row(self) -> str:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "1" if x else "0"
            if isinstance(x, float):
                return repr(x)
            return str(x)

        return ",".join(
            fmt(x)
            for x in (
                self.d, self.kappa, self.lam, self.regime, self.n, self.seed,
                self.tau, self.ari, self.cluster_f1, self.variable_f1,
                self.hamming, self.exact_recovery, self.pred_clusters,
                self.fit_ms, self.ica_iters, self.error,
            )
        )

    @classmethod
    def from_csv_row(cls, row: str) -> "ExperimentRecord":
        parts = row.rstrip("\n").split(",")
        if len(parts) != 16:
            raise ValueError(f"malformed record row: {row!r}")

        def opt(val, conv):
            return None if val == "" else conv(val)

        return cls(
            d=int(parts[0]),
            kappa=int(parts[1]),
            lam=float(parts[2]),
            regime=parts[3],
            n=int(parts[4]),
            seed=int(parts[5]),
            tau=float(parts[6]),
            ari=opt(parts[7], float),
            cluster_f1=opt(parts[8], float),
            variable_f1=opt(parts[9], float),
            hamming=opt(parts[10], int),
            exact_recovery=opt(parts[11], lambda v: v == "1"),
            pred_clusters=opt(parts[12], int),
            fit_ms=opt(parts[13], float),
            ica_iters=opt(parts[14], int),
            error=parts[15],
        )


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


def _ground_truth(scm):
    support = scm.b.support()
    partition = tarjan_scc(support)
    return support, partition, condense(support)


def _fit_and_score(scm, x, tau, eta, ica_opts, mode, enum_floor, enum_cap, ica_seed):
    opts = replace(ica_opts, seed=ica_seed)
    result = recover_condensation(
        x, tau=tau, eta=eta, ica_opts=opts, mode=mode,
        enum_floor=enum_floor, enum_cap=enum_cap,
    )
    _, true_partition, true_condensation = _ground_truth(scm)
    report = evaluate(
        result.support(), result.partition, scm.b, true_partition, true_condensation
    )
    return result, report


def _grid_task(args: dict) -> ExperimentRecord:
    d, kappa, lam, regime, n, seed = (
        args["d"], args["kappa"], args["lam"], args["regime"], args["n"], args["seed"]
    )
    cell = _cell_keys(d, kappa, lam, regime)
    base = dict(
        d=d, kappa=kappa, lam=lam, regime=regime, n=n, seed=seed, tau=args["tau"]
    )
    try:
        scm = generate_scm(
            d, kappa, lam, args["weight_low"], args["weight_high"], regime,
            seed=rng_mod.derive_seed(seed, TAG_SCM, *cell),
            noise_family=args["noise_family"],
        )
        x = sample(scm, n, seed=rng_mod.derive_seed(seed, TAG_SAMPLE, *cell, n))
        result, report = _fit_and_score(
            scm, x, args["tau"], args["eta"], args["ica"], args["mode"],
            args["enum_floor"], args["enum_cap"],
            ica_seed=rng_mod.derive_seed(seed, TAG_ICA, *cell, n),
        )
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return ExperimentRecord(**base, error=type(exc).__name__)
    return ExperimentRecord(
        **base,
        ari=report.ari,
        cluster_f1=report.cluster_dag_f1,
        variable_f1=report.variable_f1,
        hamming=report.hamming_support,
        exact_recovery=report.hamming_support == 0,
        pred_clusters=report.predicted_partition_size,
        fit_ms=result.timings_ms["total_ms"],
        ica_iters=result.ica_iterations,
    )


def _sweep_task(args: dict) -> list:
    """One (n, seed) unit of the threshold sweep: fit once, threshold per tau."""
    d, kappa, lam, regime, n, seed = (
        args["d"], args["kappa"], args["lam"], args["regime"], args["n"], args["seed"]
    )
    cell = _cell_keys(d, kappa, lam, regime)
    taus = args["taus"]
    try:
        scm = generate_scm(
            d, kappa, lam, args["weight_low"], args["weight_high"], regime,
            seed=rng_mod.derive_seed(seed, TAG_SCM, *cell),
            noise_family=args["noise_family"],
        )
        x = sample(scm, n, seed=rng_mod.derive_seed(seed, TAG_SAMPLE, *cell, n))
        # run the pipeline once at tau=0; re-threshold the same candidate per tau
        opts = replace(args["ica"], seed=rng_mod.derive_seed(seed, TAG_ICA, *cell, n))
        base_result = recover_condensation(
            x, tau=0.0, eta=args["eta"], ica_opts=opts, mode=args["mode"],
            enum_floor=args["enum_floor"], enum_cap=args["enum_cap"],
        )
        _, true_partition, true_condensation = _ground_truth(scm)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return [
            ExperimentRecord(
                d=d, kappa=kappa, lam=lam, regime=regime, n=n, seed=seed,
                tau=tau, error=type(exc).__name__,
            )
            for tau in taus
        ]
    records = []
    for tau in taus:
        b_hat = apply_threshold(base_result.b_hat, tau)
        support = b_hat.support()
        report = evaluate(
            support, tarjan_scc(support), scm.b, true_partition, true_condensation
        )
        records.append(
            ExperimentRecord(
                d=d, kappa=kappa, lam=lam, regime=regime, n=n, seed=seed, tau=tau,
                ari=report.ari,
                cluster_f1=report.cluster_dag_f1,
                variable_f1=report.variable_f1,
                hamming=report.hamming_support,
                exact_recovery=report.hamming_support == 0,
                pred_clusters=report.predicted_partition_size,
                fit_ms=base_result.timings_ms["total_ms"],
                ica_iters=base_result.ica_iterations,
            )
        )
    return records


def _complexity_task(args: dict) -> ExperimentRecord:
    n, seed = args["n"], args["seed"]
    scm = args["scm"]
    tau = args["tau"]
    base = dict(
        d=scm.d, kappa=args["kappa"], lam=args["lam"], regime=scm.regime,
        n=n, seed=seed, tau=tau,
    )
    try:
        x = sample(scm, n, seed=rng_mod.derive_seed(seed, TAG_SAMPLE, n))
        result, report = _fit_and_score(
            scm, x, tau, args["eta"], args["ica"], "hungarian",
            DEFAULT_ENUM_FLOOR, DEFAULT_ENUM_CAP,
            ica_seed=rng_mod.derive_seed(seed, TAG_ICA, n),
        )
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return ExperimentRecord(**base, error=type(exc).__name__)
    return ExperimentRecord(
        **base,
        ari=report.ari,
        cluster_f1=report.cluster_dag_f1,
        variable_f1=report.variable_f1,
        hamming=report.hamming_support,
        exact_recovery=report.hamming_support == 0,
        pred_clusters=report.predicted_partition_size,
        fit_ms=result.timings_ms["total_ms"],
        ica_iters=result.ica_iterations,
    )


def _run_tasks(fn, tasks, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def _execute(out_path, wanted_keys, tasks, task_fn, workers, flatten=False):
    """Shared resume/merge/write logic for the three runners."""
    existing = {r.key(): r for r in load_records(out_path)} if out_path else {}
    todo = [t for t, keys in zip(tasks, wanted_keys) if any(k not in existing for k in keys)]
    produced = _run_tasks(task_fn, todo, workers)
    if flatten:
        produced = [r for chunk in produced for r in chunk]
    merged = dict(existing)
    for rec in produced:
        merged.setdefault(rec.key(), rec)  # existing rows win: reruns are idempotent
    all_keys = {k for keys in wanted_keys for k in keys}
    records = [merged[k] for k in sorted(all_keys) if k in merged]
    if out_path:
        keep = [r for r in merged.values() if r.key() in all_keys or r.key() in existing]
        write_records(out_path, keep)
    return records


def run_grid(cfg: GridConfig, out_path=None, workers: int = 1) -> list:
    """Run every (cell, seed) of the grid; returns the records sorted by key."""
    tasks, keys = [], []
    for kappa in cfg.kappas:
        for lam in cfg.lambdas:
            for regime in cfg.regimes:
                for n in cfg.sample_sizes:
                    for seed in cfg.seeds:
                        task = dict(
                            d=cfg.d, kappa=kappa, lam=lam, regime=regime, n=n,
                            seed=seed, tau=cfg.tau, eta=cfg.eta, ica=cfg.ica,
                            mode=cfg.mode, weight_low=cfg.weight_low,
                            weight_high=cfg.weight_high,
                            noise_family=cfg.noise_family,
                            enum_floor=cfg.enum_floor, enum_cap=cfg.enum_cap,
                        )
                        tasks.append(task)
                        keys.append([
                            (cfg.d, kappa, rng_mod.quantize(lam), regime, n, seed,
                             rng_mod.quantize(cfg.tau))
                        ])
    return _execute(out_path, keys, tasks, _grid_task, workers)


def run_threshold_sweep(
    cfg: ThresholdSweepConfig, out_path=None, workers: int = 1
) -> list:
    """Sweep tau over a fixed cell, reusing one fitted pipeline per (n, seed)."""
    tasks, keys = [], []
    for n in cfg.sample_sizes:
        for seed in cfg.seeds:
            tasks.append(
                dict(
                    d=cfg.d, kappa=cfg.kappa, lam=cfg.lam, regime=cfg.regime,
                    n=n, seed=seed, taus=cfg.taus, eta=cfg.eta, ica=cfg.ica,
                    mode=cfg.mode, weight_low=cfg.weight_low,
                    weight_high=cfg.weight_high, noise_family=cfg.noise_family,
                    enum_floor=cfg.enum_floor, enum_cap=cfg.enum_cap,
                )
            )
            keys.append([
                (cfg.d, cfg.kappa, rng_mod.quantize(cfg.lam), cfg.regime, n, seed,
                 rng_mod.quantize(tau))
                for tau in cfg.taus
            ])
    return _execute(out_path, keys, tasks, _sweep_task, workers, flatten=True)


def run_sample_complexity(
    cfg: SampleComplexityConfig, out_path=None, workers: int = 1
) -> tuple:
    """Fixed-SCM sweep over n; returns (records, summary dict).

    The threshold is beta_min / 2 of the generated SCM. The summary carries
    per-n aggregates (mean Hamming, exact-recovery rate, 95% CI) and the OLS
    log-log slope of the recovery error over the transition window.
    """
    scm = generate_scm(
        cfg.d, cfg.kappa, cfg.lam, cfg.weight_low, cfg.weight_high, cfg.regime,
        seed=cfg.scm_seed, noise_family=cfg.noise_family,
    )
    tau = scm.beta_min / 2
    tasks, keys = [], []
    for n in cfg.sample_sizes:
        for seed in cfg.seeds:
            tasks.append(
                dict(n=n, seed=seed, scm=scm, tau=tau, kappa=cfg.kappa,
                     lam=cfg.lam, eta=cfg.eta, ica=cfg.ica)
            )
            keys.append([
                (cfg.d, cfg.kappa, rng_mod.quantize(cfg.lam), cfg.regime, n, seed,
                 rng_mod.quantize(tau))
            ])
    records = _execute(out_path, keys, tasks, _complexity_task, workers)
    summary = summarize_sample_complexity(records, cfg.window)
    summary["tau"] = tau
    summary["betaMin"] = scm.beta_min
    summary["scmSeed"] = cfg.scm_seed
    return records, summary


def sufficient_n(beta_min: float, delta: float, k1: float, k2: float) -> float:
    """Sample-size bound (4 / beta_min^2) * sqrt((k1 + k2) / delta)."""
    if beta_min <= 0 or k1 <= 0 or k2 <= 0:
        raise ValueError("beta_min, k1 and k2 must be positive")
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    return (4.0 / beta_min**2) * math.sqrt((k1 + k2) / delta)


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
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two points for a slope")
    xc = xs - xs.mean()
    return float((xc @ (ys - ys.mean())) / (xc @ xc))


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
            for name, attr in (
                ("ari", "ari"),
                ("clusterF1", "cluster_f1"),
                ("variableF1", "variable_f1"),
            ):
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
        per_n.append(
            {
                "n": n,
                "seeds": len(group),
                "meanHamming": _mean_ci([r.hamming for r in group]),
                "exactRecovery": rate,
            }
        )
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


def write_summary_json(path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
