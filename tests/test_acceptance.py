"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced. The heavy studies (grid slice, sample complexity) stay within
their stated wall-clock budgets on a 2-core container.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lingcond
from lingcond import (
    GridConfig,
    NoiseSpec,
    SampleComplexityConfig,
    ScmSpec,
    b_from_w,
    condense,
    enumerate_admissible,
    generate_scm,
    hungarian_admissible,
    recover_condensation,
    reverse_cycle,
    run_grid,
    run_sample_complexity,
    sample,
    tarjan_scc,
    valid_dag_coarsenings,
    verify_scc_floor,
)
from lingcond import harness
from lingcond import rng as rng_mod
from lingcond.metrics import ari as ari_metric
from lingcond.metrics import edge_f1
from conftest import (
    ari_pair_counting,
    best_assignment_brute,
    random_graph,
    random_partition,
    simple_cycles,
)


def check(number, passed, detail):
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_golden_lattice(example_graph):
    t0 = time.perf_counter()
    report = valid_dag_coarsenings(example_graph)
    elapsed = time.perf_counter() - t0
    valid = {p.labels for p in report.valid_coarsenings}
    ok = (
        report.total_partitions == 52
        and len(valid) == 4
        and (0, 1, 1, 1, 2) in valid  # SCC floor {X1} | {X2 X3 X4} | {X5}
        and elapsed < 1.0
    )
    check(1, ok, f"52 partitions, {len(valid)} valid, floor found, {elapsed:.3f}s")


def test_criterion_02_scc_floor_property():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    failures = 0
    for i in range(1000):
        d = int(rng.integers(3, 8))
        density = float(rng.uniform(0.05, 0.7))
        if not verify_scc_floor(random_graph(d, density, rng)):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 120
    check(2, ok, f"1000 graphs d in [3,7], {failures} violations, {elapsed:.1f}s")


def test_criterion_03_cycle_reversal_invariance():
    rng = np.random.default_rng(33)
    violations = 0
    graphs = 0
    cycles_checked = 0
    while graphs < 1000:
        d = int(rng.integers(5, 10))
        kappa = int(rng.integers(1, 4))
        if d < 2 * kappa:
            continue
        scm = generate_scm(
            d, kappa, float(rng.uniform(0.2, 0.6)), seed=int(rng.integers(1 << 30))
        )
        g = scm.b.support()
        graphs += 1
        base = condense(g)
        for cycle in simple_cycles(g, cap=150):
            cycles_checked += 1
            if condense(reverse_cycle(g, cycle)) != base:
                violations += 1
    check(
        3,
        violations == 0,
        f"1000 supports, {cycles_checked} cycle reversals, {violations} violations",
    )


def test_criterion_04_noiseless_permutation_invariance():
    rng = np.random.default_rng(44)
    violations = 0
    candidates_seen = 0
    for i in range(500):
        d = int(rng.integers(5, 11))
        kappa = int(rng.integers(1, min(3, d // 2) + 1))
        regime = "stable" if rng.random() < 0.5 else "unstable"
        scm = generate_scm(
            d, kappa, float(rng.uniform(0.2, 0.7)),
            regime=regime, seed=int(rng.integers(1 << 30)),
        )
        w = np.eye(d) - scm.b.matrix
        perms = enumerate_admissible(w, 1e-9)
        candidates_seen += len(perms)
        conds = {condense(b_from_w(w, p).support()) for p in perms}
        if len(conds) != 1:
            violations += 1
    check(
        4,
        violations == 0,
        f"500 SCMs, {candidates_seen} admissible candidates, {violations} violations",
    )


def test_criterion_05_example_pipeline_recovery(example_b):
    spec = ScmSpec(example_b, NoiseSpec(), "stable", 0)
    t0 = time.perf_counter()
    hits = 0
    for seed in range(10):
        x = sample(spec, 10000, seed=seed)
        res = recover_condensation(x, tau=0.1, seed=seed)
        chain = (
            res.partition.labels == (0, 1, 1, 1, 2)
            and res.condensation.cluster_edges == frozenset({(0, 1), (1, 2)})
        )
        hits += chain
    elapsed = time.perf_counter() - t0
    ok = hits >= 9 and elapsed < 30
    check(5, ok, f"chain recovered in {hits}/10 seeds, {elapsed:.1f}s")


def test_criterion_06_main_grid_slice():
    t0 = time.perf_counter()
    cfg = GridConfig(
        d=10, kappas=(4,), lambdas=(0.5,), regimes=("stable", "unstable"),
        sample_sizes=(1000, 10000, 100000), seeds=tuple(range(10)),
    )
    records = run_grid(cfg)
    elapsed = time.perf_counter() - t0

    def med(regime, n, attr):
        vals = [
            getattr(r, attr)
            for r in records
            if r.regime == regime and r.n == n and not r.error
        ]
        return float(np.median(vals)) if vals else float("nan")

    clauses = {
        "stable median ARI at 1e5": med("stable", 100000, "ari") == 1.0,
        "unstable median ARI at 1e5": med("unstable", 100000, "ari") == 1.0,
        "stable median cluster-F1 at 1e5": med("stable", 100000, "cluster_f1") == 1.0,
        "unstable median cluster-F1 at 1e5": med("unstable", 100000, "cluster_f1") == 1.0,
        "stable median variable-F1 at 1e5": med("stable", 100000, "variable_f1") == 1.0,
        "runtime < 15 min": elapsed < 900,
    }
    for name, passed in clauses.items():
        print(f"    clause {'ok ' if passed else 'BAD'}: {name}")
    detail = (
        f"medians@1e5 stable (ARI {med('stable', 100000, 'ari'):.2f}, "
        f"cF1 {med('stable', 100000, 'cluster_f1'):.2f}, "
        f"vF1 {med('stable', 100000, 'variable_f1'):.2f}), "
        f"unstable (ARI {med('unstable', 100000, 'ari'):.2f}, "
        f"cF1 {med('unstable', 100000, 'cluster_f1'):.2f}, "
        f"vF1 {med('unstable', 100000, 'variable_f1'):.2f}), {elapsed:.0f}s"
    )
    check(6, all(clauses.values()), detail)


def test_criterion_07_sample_complexity(tmp_path):
    t0 = time.perf_counter()
    cfg = SampleComplexityConfig()  # d=10, kappa=4, lam=0.5, 100 seeds, 1e2..1e5
    records, summary = run_sample_complexity(cfg, out_path=tmp_path / "sc.csv")
    elapsed = time.perf_counter() - t0

    exact_above_2000 = all(
        entry["exactRecovery"]["rate"] == 1.0
        for entry in summary["perN"]
        if entry["n"] >= 2000
    )
    slope = summary["olsSlope"]
    slope_ok = slope is None or slope <= -2.0
    tau_ok = summary["tau"] == pytest.approx(summary["betaMin"] / 2)
    ok = exact_above_2000 and slope_ok and tau_ok and elapsed < 1200
    slope_txt = "n/a (no failing cells)" if slope is None else f"{slope:.2f}"
    check(
        7,
        ok,
        f"exact for n>=2000: {exact_above_2000}, slope {slope_txt} "
        f"over {summary['slopeCells']} cells, tau=betaMin/2: {tau_ok}, {elapsed:.0f}s",
    )


def test_criterion_08_threshold_failure_modes():
    # a threshold sweep: one grid cell, every (n, seed) fitted once and cut at each tau
    kappa, lam, regime = 4, 0.5, "stable"
    cfg = GridConfig(
        d=10, kappas=(kappa,), lambdas=(lam,), regimes=(regime,),
        taus=(0.01, 0.1, 0.2, 0.5, 1.0), sample_sizes=(5000,),
        seeds=tuple(range(10)), mode="enumerate-first-stable",
    )
    records = run_grid(cfg)
    at = {}
    for rec in records:
        at.setdefault(rec.tau, {})[rec.seed] = rec

    # Rebuild each seed's SCM exactly as the sweep derived it, for its own
    # beta_min and true SCC count.
    cell = harness._cell_keys(cfg.d, kappa, lam, regime)
    beta_min, true_clusters = {}, {}
    for seed in cfg.seeds:
        scm = generate_scm(
            cfg.d, kappa, lam, cfg.weight_low, cfg.weight_high, regime,
            seed=rng_mod.derive_seed(seed, harness.TAG_SCM, *cell),
            noise_family=cfg.noise_family,
        )
        beta_min[seed] = scm.beta_min
        true_clusters[seed] = tarjan_scc(scm.b.support()).num_clusters
    rebuild_ok = all(
        at[0.1][s].pred_clusters == true_clusters[s] for s in cfg.seeds
    )

    merge_hits = sum(r.pred_clusters == 1 for r in at[0.01].values())
    split_hits = sum(r.pred_clusters == 10 for r in at[1.0].values())
    clauses = {
        "rebuilt SCMs match the sweep (true clusters = predicted at tau=0.1)":
            rebuild_ok,
        "tau=0.01 collapses to one cluster in >= 9/10": merge_hits >= 9,
        "tau=1.0 splinters to d singletons in >= 9/10": split_hits >= 9,
    }
    for tau in (0.1, 0.2):
        aris = sorted(round(r.ari, 3) for r in at[tau].values())
        clauses[f"tau={tau} ARI = 1 in every seed"] = all(
            r.ari == 1.0 for r in at[tau].values()
        )
        print(f"    tau={tau}: per-seed ARI {aris}")

    # Exact recovery is promised only inside the band
    # max|B_hat - B| < tau <= beta_min - max|B_hat - B|; the package uses
    # tau = beta_min / 2. weight_low is not beta_min: generate_scm rescales B
    # to its target spectral radius after drawing weights from
    # [weight_low, weight_high], and records beta_min after that rescale.
    in_band = [s for s in cfg.seeds if 0.5 <= beta_min[s] / 2]
    print(
        f"    tau=0.5: {len(in_band)}/{len(cfg.seeds)} seeds have tau <= beta_min/2, "
        f"so the exact-recovery clause checks {len(in_band)} seeds"
    )
    clauses["tau=0.5 ARI = 1 in every seed with tau <= beta_min/2"] = all(
        at[0.5][s].ari == 1.0 for s in in_band
    )
    # Above every off-support |b_hat| the kept support is a subgraph of the
    # true one, so its SCC partition refines the truth: splits, never merges.
    clauses["tau=0.5 never merges (predicted clusters >= true) in every seed"] = all(
        at[0.5][s].pred_clusters >= true_clusters[s] for s in cfg.seeds
    )
    for name, passed in clauses.items():
        print(f"    clause {'ok ' if passed else 'BAD'}: {name}")
    per_seed = ", ".join(
        f"{s}: {beta_min[s]:.3f} {true_clusters[s]}/{at[0.5][s].pred_clusters}"
        for s in cfg.seeds
    )
    check(
        8,
        all(clauses.values()),
        f"merge {merge_hits}/10, split {split_hits}/10, "
        f"clauses {list(clauses.values())}; "
        f"seed: beta_min true/predicted clusters at tau=0.5 [{per_seed}]",
    )


def test_criterion_09_metric_and_assignment_oracles():
    rng = np.random.default_rng(99)
    ari_mismatches = 0
    for _ in range(10000):
        d = int(rng.integers(2, 9))
        a, b = random_partition(d, rng), random_partition(d, rng)
        if ari_metric(a, b) != ari_pair_counting(a, b):
            ari_mismatches += 1

    f1_mismatches = 0
    for _ in range(2000):
        pred = {(int(u), int(v)) for u, v in rng.integers(0, 6, (8, 2)) if u != v}
        true = {(int(u), int(v)) for u, v in rng.integers(0, 6, (8, 2)) if u != v}
        tp = len(pred & true)
        fp = len(pred - true)
        fn = len(true - pred)
        direct = 1.0 if tp == fp == fn == 0 else 2 * tp / (2 * tp + fp + fn)
        if edge_f1(pred, true) != direct:
            f1_mismatches += 1

    hungarian_mismatches = 0
    compared = 0
    for _ in range(300):
        d = int(rng.integers(2, 7))
        w = rng.normal(0, 1, (d, d))
        w[rng.random((d, d)) < 0.3] = 0.0
        brute_perm, brute_score = best_assignment_brute(w, 1e-3)
        if brute_perm is None:
            continue
        compared += 1
        perm = hungarian_admissible(w)
        score = sum(math.log(abs(w[perm[i], i])) for i in range(d))
        if abs(score - brute_score) > 1e-9:
            hungarian_mismatches += 1

    ok = ari_mismatches == 0 and f1_mismatches == 0 and hungarian_mismatches == 0
    check(
        9,
        ok,
        f"ARI 10000 pairs ({ari_mismatches} misses), F1 2000 pairs "
        f"({f1_mismatches}), Hungarian {compared} instances ({hungarian_mismatches})",
    )


def test_criterion_10_runtime_scaling(tmp_path):
    # every fit runs in one BLAS-capped subprocess, so the d = 10 time and the
    # slope both measure single-threaded fits; the median of three fits per d
    # keeps one slow fit from tilting the slope
    script = (
        "import json\n"
        "import numpy as np\n"
        "from lingcond import generate_scm, sample, recover_condensation\n"
        "scm = generate_scm(10, 4, 0.5, seed=1)\n"
        "x = sample(scm, 10000, seed=2)\n"
        "res = recover_condensation(x, tau=0.1, seed=3)\n"
        "times = {}\n"
        "for d in (20, 50, 100):\n"
        "    x = sample(generate_scm(d, d // 10, 0.5, seed=1), 10000, seed=2)\n"
        "    times[d] = float(np.median([recover_condensation(\n"
        "        x, tau=0.1, seed=3, mode='hungarian'\n"
        "    ).timings_ms['total_ms'] for _ in range(3)]))\n"
        "print(json.dumps([res.timings_ms['total_ms'], times]))\n"
    )
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the child imports the same lingcond as this process, installed or not
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(lingcond.__file__).parents[1]), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    import json as _json

    single_threaded_ms, times = _json.loads(proc.stdout)
    times = {int(d): ms for d, ms in times.items()}
    xs = np.log(list(times))
    ys = np.log(list(times.values()))
    xc = xs - xs.mean()
    slope = float(xc @ (ys - ys.mean()) / (xc @ xc))
    ok = single_threaded_ms < 10000 and slope <= 3.5
    check(
        10,
        ok,
        f"d=10 n=1e4 single-threaded fit {single_threaded_ms:.0f}ms; "
        f"times(ms) {({k: round(v) for k, v in times.items()})}, log-log slope {slope:.2f}",
    )
