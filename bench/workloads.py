"""The benchmark's two closed-loop workloads.

Each workload generates its inputs from the workload seed (``prepare``, run
in a fresh process so imports count as set-up), then serves numbered calls
one after another. A call times only the package's work; its correctness
checks run afterwards, outside the timed region and outside any trace.

* ``fit-d10``: one ``lingcond fit`` CLI call (in-process) on a pool of
  d=10, n=1e4 CSVs, alternating stable and unstable regimes.
* ``study-enum``: ``run_grid`` in ``enumerate-first-stable`` mode for one
  (kappa, regime, seed) slice at n in {200, 1000}, then one resume pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lingcond import cli, graphs, harness, metrics, rng, scm

D, KAPPA, LAM = 10, 4, 0.5
FIT_N = 10_000
FIT_POOL = 8  # CSVs per seed; one pass over them is the digest prefix
FIT_TAU = 0.1
ENUM_SIZES = (200, 1000)
# a quarter of the default 20000-candidate cap: a capped scan does the same
# per-candidate work, and one run holds four times as many of them
ENUM_CAP = 5000
ENUM_CELLS = tuple((k, r) for k in (3, 4, 5) for r in ("stable", "unstable"))
GRID_CALLS = 400  # configs written per seed; far more than one run can use
FIT_MS_COLUMN = harness.CSV_HEADER.split(",").index("fit_ms")

# cond(Cov X) of X = (I - B)^{-1} eps with unit-variance noise is
# cond(I - B)^2; past this the package may refuse to whiten a sample of the
# model (it refuses a sample covariance whose eigenvalue ratio is below 1e-10)
ILL_CONDITIONED = 1e9
EXIT_NUMERICAL = 2  # the CLI's exit code for a numerical failure

# sub-stream tags for the benchmark's own seed derivation
TAG_SCM, TAG_SAMPLE, TAG_ICA = 1, 2, 3


def derive(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def record_seed(seed: int, index: int) -> int:
    """Harness record seed of the ``index``-th grid slice of a workload seed."""
    return seed * 100_000 + index


def ill_conditioned(b) -> bool:
    """Whether samples of the model with weights ``b`` are too ill-conditioned to whiten."""
    b = np.asarray(b, dtype=float)
    return bool(np.linalg.cond(np.eye(len(b)) - b) ** 2 > ILL_CONDITIONED)


@dataclass
class CallResult:
    ops: int  # fits or records attempted
    failed: int = 0  # ops that raised, exited non-zero or carry an error tag
    # ops that reported a whitening failure on a model the benchmark verified
    # as ill-conditioned: the specified outcome, counted apart, not as failed
    ill_posed: int = 0
    problems: list = field(default_factory=list)  # wrong outputs: the run is incorrect
    quality: list = field(default_factory=list)  # (ari, condensation exact, support exact)
    digest: bytes = b""  # outputs with timing fields removed


def scc_oracle(b) -> tuple:
    """Canonical SCC labels and sorted cluster edges of the support of ``b``.

    Independent of ``lingcond.graphs``: mutual reachability from a boolean
    Warshall closure. Entry ``b[i, j] != 0`` is the edge ``j -> i``.
    """
    adj = np.asarray(b) != 0
    np.fill_diagonal(adj, False)
    edge = adj.T  # edge[u, v]: u -> v
    d = edge.shape[0]
    reach = edge | np.eye(d, dtype=bool)
    for k in range(d):
        reach |= np.outer(reach[:, k], reach[k, :])
    mutual = reach & reach.T
    ids, labels = {}, []
    for v in range(d):
        labels.append(ids.setdefault(int(np.argmax(mutual[v])), len(ids)))
    cluster_edges = sorted(
        {(labels[u], labels[v]) for u, v in zip(*np.nonzero(edge)) if labels[u] != labels[v]}
    )
    return tuple(labels), [list(e) for e in cluster_edges]


@contextlib.contextmanager
def count_calls(module, attr: str):
    """Count calls made through ``module.attr`` inside the block."""
    original = getattr(module, attr)
    counter = {"calls": 0}

    def counted(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    setattr(module, attr, counted)
    try:
        yield counter
    finally:
        setattr(module, attr, original)


def strip_fit_ms(csv_bytes: bytes) -> bytes:
    rows = csv_bytes.decode().splitlines()
    kept = [",".join(c for i, c in enumerate(row.split(",")) if i != FIT_MS_COLUMN) for row in rows]
    return ("\n".join(kept) + "\n").encode()


class FitD10:
    name = "fit-d10"
    prefix_calls = FIT_POOL

    @staticmethod
    def prepare(seed: int, out: Path) -> None:
        pool = []
        for j in range(FIT_POOL):
            regime = ("stable", "unstable")[j % 2]
            model = scm.generate_scm(D, KAPPA, LAM, regime=regime, seed=derive(seed, TAG_SCM, j))
            x = scm.sample(model, FIT_N, seed=derive(seed, TAG_SAMPLE, j))
            scm.save_samples_csv(out / f"pool-{j}.csv", x)
            scm.save_scm_json(out / f"pool-{j}.scm.json", model)
            pool.append({"csv": f"pool-{j}.csv", "scm": f"pool-{j}.scm.json"})
        (out / "manifest.json").write_text(json.dumps({"pool": pool}) + "\n")

    def __init__(self, seed: int, inputs: Path, work: Path):
        self.seed = seed
        pool = json.loads((inputs / "manifest.json").read_text())["pool"]
        self.csvs = [str(inputs / p["csv"]) for p in pool]
        self.truth = []
        for p in pool:
            b = np.array(json.loads((inputs / p["scm"]).read_text())["B"])
            self.truth.append((scc_oracle(b), np.asarray(b) != 0, ill_conditioned(b)))
        self.out = work / "fit.json"
        self.input_bytes = b"".join(Path(c).read_bytes() for c in self.csvs)

    def call(self, i: int, probe) -> CallResult:
        j = i % len(self.csvs)
        argv = [
            "fit", "--data", self.csvs[j], "--out", str(self.out),
            "--mode", "hungarian", "--tau", str(FIT_TAU),
            "--seed", str(derive(self.seed, TAG_ICA, i)),
        ]
        self.out.unlink(missing_ok=True)
        res = CallResult(ops=1)
        with probe.timed("bench.call"):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a raising call is a failed op, the loop goes on
                print(f"call {i} raised {exc!r}", file=sys.stderr)
                code = None
        if code == EXIT_NUMERICAL and self.truth[j][2]:
            res.ill_posed = 1
            res.digest = f"call {i} ill-posed\n".encode()
            return res
        if code != 0:
            res.failed = 1
            res.digest = f"call {i} failed\n".encode()
            return res
        with probe.unobserved():
            payload = json.loads(self.out.read_text())
            b_hat = np.array(payload["bHat"], dtype=float)
            labels, cluster_edges = scc_oracle(b_hat)
            if b_hat.shape != (D, D) or np.any(np.diag(b_hat) != 0):
                res.problems.append(f"call {i}: bHat is not a d x d zero-diagonal matrix")
            if tuple(payload["partition"]) != labels:
                res.problems.append(f"call {i}: partition is not the SCC partition of bHat")
            if payload["clusterEdges"] != cluster_edges:
                res.problems.append(f"call {i}: clusterEdges are not the condensation of bHat")
            (true_labels, true_edges), true_support, _ = self.truth[j]
            ari = metrics.ari(graphs.Partition(labels), graphs.Partition(true_labels))
            cond_exact = labels == true_labels and cluster_edges == true_edges
            support_exact = bool(np.array_equal(b_hat != 0, true_support))
            res.quality.append((ari, cond_exact, support_exact))
            payload.pop("timings", None)
            res.digest = (json.dumps(payload, sort_keys=True) + "\n").encode()
        return res


class StudyEnum:
    """A grid call: one slice into a fresh CSV, then a resume pass over it."""

    name = "study-enum"
    prefix_calls = 1
    records_per_call = len(ENUM_SIZES)

    @staticmethod
    def prepare(seed: int, out: Path) -> None:
        calls = []
        for i in range(GRID_CALLS):
            kappa, regime = ENUM_CELLS[i % len(ENUM_CELLS)]
            calls.append({
                "kappas": [kappa], "lambdas": [LAM], "regimes": [regime],
                "sample_sizes": list(ENUM_SIZES),
                "seeds": [record_seed(seed, i // len(ENUM_CELLS))],
                "mode": "enumerate-first-stable", "enum_cap": ENUM_CAP,
            })
        for c in calls:
            harness.GridConfig.from_json_dict(c)
        (out / "calls.json").write_text(json.dumps(calls) + "\n")

    def __init__(self, seed: int, inputs: Path, work: Path):
        self.input_bytes = (inputs / "calls.json").read_bytes()
        self.configs = json.loads(self.input_bytes)
        self.work = work

    def call(self, i: int, probe) -> CallResult:
        cfg = harness.GridConfig.from_json_dict(self.configs[i % len(self.configs)])
        csv = self.work / f"{self.name}-{i}.csv"
        try:
            return self._serve(i, cfg, csv, probe)
        finally:
            csv.unlink(missing_ok=True)
            csv.with_name(csv.name + ".tmp").unlink(missing_ok=True)

    def _serve(self, i: int, cfg, csv: Path, probe) -> CallResult:
        res = CallResult(ops=self.records_per_call)
        try:
            with probe.timed("bench.call"):
                records = harness.run_grid(cfg, out_path=str(csv))
            before = csv.read_bytes()
            with count_calls(harness, "recover_condensation") as fits:
                with probe.timed("bench.resume"):
                    again = harness.run_grid(cfg, out_path=str(csv))
            after = csv.read_bytes()
        except Exception as exc:  # a raising call fails all of its records
            print(f"call {i} raised {exc!r}", file=sys.stderr)
            res.failed = res.ops
            res.digest = f"call {i} raised {type(exc).__name__}\n".encode()
            return res
        with probe.unobserved():
            if len(records) != self.records_per_call:
                res.problems.append(f"call {i}: {len(records)} records, expected {self.records_per_call}")
            try:
                loaded = harness.load_records(csv)
            except ValueError as exc:
                loaded = exc
            if loaded != records:
                res.problems.append(f"call {i}: load_records(csv) differs from the returned records")
            if again != records:
                res.problems.append(f"call {i}: the resume pass returned other records")
            if fits["calls"] != 0:
                res.problems.append(f"call {i}: the resume pass ran {fits['calls']} fits")
            if after != before:
                res.problems.append(f"call {i}: the resume pass changed the CSV bytes")
            for rec in records:
                if rec.error == "WhiteningError" and record_ill_conditioned(cfg, rec):
                    res.ill_posed += 1
                elif rec.error:
                    res.failed += 1
                else:
                    cond_exact = rec.ari == 1.0 and rec.cluster_f1 == 1.0
                    res.quality.append((rec.ari, cond_exact, bool(rec.exact_recovery)))
            res.digest = strip_fit_ms(before)
        return res


def record_ill_conditioned(cfg, rec) -> bool:
    """Whether a grid record's model is ill-conditioned (see ``ill_conditioned``).

    The model is rebuilt the way ``run_grid`` derives it; should that
    derivation change, the rebuilt model differs and the record counts as
    failed, not as ill-posed.
    """
    cell = harness._cell_keys(rec.d, rec.kappa, rec.lam, rec.regime)
    model = scm.generate_scm(
        rec.d, rec.kappa, rec.lam, cfg.weight_low, cfg.weight_high, rec.regime,
        seed=rng.derive_seed(rec.seed, harness.TAG_SCM, *cell),
        noise_family=cfg.noise_family,
    )
    return ill_conditioned(model.b.matrix)


WORKLOADS = {w.name: w for w in (FitD10, StudyEnum)}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
