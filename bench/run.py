"""lingcond benchmark: one closed-loop workload run, ending in one JSON line.

    python3 bench/run.py --workload fit-d10 --seed 1 --seconds 45 --trace 0

Run from a checkout of the repository; the package is imported from
``src/``. The run sets up the workload's inputs several times in fresh
processes (``setup_s`` is the median), makes one untimed warm-up pass over
the digest prefix, then serves calls one after another until the timed
calls add up to ``--seconds``. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it wraps the public functions of the package's
modules and reports per-layer metrics instead. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 1 when an output check or a digest comparison failed, 2 when the run
could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import environment

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = WORK / "digests.json"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 30
LAYERS = ("cli", "scm", "ica", "recover", "graphs", "metrics", "harness")
FIT_SPAN = "recover.recover_condensation"
ROOT_SPANS = ("bench.call", "bench.resume")

# The median call and the throughput are printed on the "typical" line but
# not gated: this host's speed drifts by up to 1.6x over minutes, and they
# follow that drift about twice as far as p90, which rides the slow floor.
END_TO_END = {
    "setup_s": "s",
    "call_ms_p90": "ms",
    "success_frac": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {
        "scm.load_samples_csv.ms": "ms/op",
        "cli.self_ms": "ms/op",
        "ica.fastica.ms": "ms/op",
        "ica.center_whiten.ms": "ms/op",
        "ica.iterations_mean": "iterations",
        "ica.converged_frac": "fraction",
        "recover.scan_candidates_mean": "calls/fit",
        "recover.scan_stable_frac": "fraction",
        "recover.b_from_w.ms": "ms/op",
        "scm.spectral_radius.calls": "calls/op",
        "scm.spectral_radius.ms": "ms/op",
        "scm.sample.ms": "ms/op",
        "scm.generate_scm.ms": "ms/op",
        "recover.hungarian_admissible.ms": "ms/op",
        "recover.threshold.ms": "ms/op",
        "graphs.tarjan_scc.calls_per_fit": "calls/fit",
        "metrics.evaluate.ms": "ms/op",
        "harness.write_records.ms": "ms/op",
        "harness.resume_ms": "ms/pass",
        "recover.recover_condensation.ms": "ms/op",
        "trace.overhead_frac": "fraction",
    }
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms/op"
        units[f"{layer}.share"] = "fraction"
    return units


class Probe:
    """Times the package's work inside a call; opens a root span when tracing."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.elapsed = 0.0

    @contextlib.contextmanager
    def timed(self, label: str):
        sid = self.tracer.open(label) if self.tracer is not None else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - t0
            if sid is not None:
                self.tracer.close(sid)

    def unobserved(self):
        return self.tracer.pause() if self.tracer is not None else contextlib.nullcontext()


def observe_fastica(counts, args, kwargs, estimate):
    counts["ica.calls"] += 1
    counts["ica.iterations"] += estimate.iterations
    counts["ica.converged"] += bool(estimate.converged)


def observe_threshold(counts, args, kwargs, result):
    candidate = args[0] if args else kwargs["candidate"]
    counts["threshold.calls"] += 1
    counts["threshold.stable"] += candidate.spectral_radius < 1.0


OBSERVERS = {"ica.fastica": observe_fastica, "recover.threshold": observe_threshold}


def tree_hash(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(workload: str, seed: int, run_dir: Path) -> tuple:
    """Run the set-up SETUP_REPEATS times in fresh processes; median seconds."""
    times, hashes = [], set()
    for r in range(SETUP_REPEATS):
        out = run_dir / f"setup-{r}"
        cmd = [sys.executable, str(BENCH / "prepare.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited with code {proc.returncode}")
        hashes.add(tree_hash(out.iterdir()))
        if r:
            shutil.rmtree(out)  # the run reads setup-0; the others only time and compare
    return statistics.median(times), len(hashes) == 1


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def compare_digests(key: str, source: str, entry: dict, problems: list) -> None:
    """Check this run's digests against earlier runs kept in the work directory.

    The same source tree must reproduce its digests; a different source tree
    (a parent commit, say) is reported as same or different, not judged.
    """
    store = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    seen = store.setdefault(key, {})
    if source in seen and seen[source] != entry:
        problems.append("digests differ from an earlier run of the same source")
    for other, old in seen.items():
        if other != source:
            same = {k: "same" if old.get(k) == v else "differs" for k, v in entry.items()}
            print(f"digest vs source {other[:12]}: {json.dumps(same)}")
    seen.pop(source, None)
    seen[source] = entry  # insertion order: the latest source tree comes last
    tmp = DIGESTS.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1) + "\n")
    os.replace(tmp, DIGESTS)


def layer_metrics(tracer, tracing, ops: int, measured_s: float) -> dict:
    stats = tracing.summarize(tracer)

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    def ms_per_op(name):
        return stats[name]["total_s"] * 1e3 / ops if name in stats else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    fits = calls(FIT_SPAN)
    root_s = sum(stats[n]["total_s"] for n in ROOT_SPANS if n in stats)
    out = {
        "scm.load_samples_csv.ms": ms_per_op("scm.load_samples_csv"),
        "ica.fastica.ms": ms_per_op("ica.fastica"),
        "ica.center_whiten.ms": ms_per_op("ica.center_whiten"),
        "ica.iterations_mean": ratio(counts["ica.iterations"], counts["ica.calls"]),
        "ica.converged_frac": ratio(counts["ica.converged"], counts["ica.calls"]),
        "recover.scan_candidates_mean": ratio(
            tracing.count_under(tracer, "recover.b_from_w", FIT_SPAN), fits),
        "recover.scan_stable_frac": ratio(counts["threshold.stable"], counts["threshold.calls"]),
        "recover.b_from_w.ms": ms_per_op("recover.b_from_w"),
        "scm.spectral_radius.calls": calls("scm.spectral_radius") / ops,
        "scm.spectral_radius.ms": ms_per_op("scm.spectral_radius"),
        "scm.sample.ms": ms_per_op("scm.sample"),
        "scm.generate_scm.ms": ms_per_op("scm.generate_scm"),
        "recover.hungarian_admissible.ms": ms_per_op("recover.hungarian_admissible"),
        "recover.threshold.ms": ms_per_op("recover.threshold"),
        "graphs.tarjan_scc.calls_per_fit": ratio(
            tracing.count_under(tracer, "graphs.tarjan_scc", FIT_SPAN), fits),
        "metrics.evaluate.ms": ms_per_op("metrics.evaluate"),
        "harness.write_records.ms": ms_per_op("harness.write_records"),
        "harness.resume_ms": ratio(
            stats["bench.resume"]["total_s"] * 1e3 if "bench.resume" in stats else 0.0,
            calls("bench.resume")),
        "recover.recover_condensation.ms": ms_per_op(FIT_SPAN),
    }
    for layer in LAYERS:
        self_s = sum(v["self_s"] for k, v in stats.items() if k.split(".", 1)[0] == layer)
        out[f"{layer}.self_ms"] = self_s * 1e3 / ops
        out[f"{layer}.share"] = ratio(self_s, root_s)
    wrapped_spans = len(tracer) - sum(calls(n) for n in ROOT_SPANS)
    out["trace.overhead_frac"] = tracing.span_cost_s() * wrapped_spans / measured_s

    ranked = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])
    print("self time by span (ms/op, calls/op):")
    for name, v in ranked[:15]:
        print(f"  {name:36s} {v['self_s'] * 1e3 / ops:11.4f} {v['calls'] / ops:11.2f}")
    return out


def run(args, run_dir: Path) -> int:
    load_at_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads
    from lingcond import cli, graphs, harness, ica, metrics, recover, scm

    modules = {"cli": cli, "scm": scm, "ica": ica, "recover": recover,
               "graphs": graphs, "metrics": metrics, "harness": harness}
    workload = workloads.WORKLOADS[args.workload]
    problems = []

    setup_s, inputs_agree = set_up(args.workload, args.seed, run_dir)
    if not inputs_agree:
        problems.append("set-up made different inputs from the same seed")
    wl = workload(args.seed, run_dir / "setup-0", run_dir)

    warm = [wl.call(i, Probe()) for i in range(wl.prefix_calls)]
    problems += [p for res in warm for p in res.problems]
    warm_digest = b"".join(res.digest for res in warm)

    tracer = tracing.Tracer() if args.trace else None
    probe = Probe(tracer)
    results, latencies_ms = [], []
    if tracer is not None:
        tracer.install(modules, OBSERVERS)
    try:
        while probe.elapsed < args.seconds:
            before = probe.elapsed
            results.append(wl.call(len(results), probe))
            latencies_ms.append((probe.elapsed - before) * 1e3)
    finally:
        if tracer is not None:
            tracer.restore()

    prefix = b"".join(res.digest for res in results[: wl.prefix_calls])
    if len(results) >= wl.prefix_calls and prefix != warm_digest:
        problems.append("outputs of the timed prefix differ from the warm-up pass")
    for res in results:
        problems += res.problems
    attempted = sum(res.ops for res in results)
    failed = sum(res.ops if res.problems else res.failed for res in results)
    ill_posed = sum(res.ill_posed for res in results)

    entry = {"input": workloads.digest(wl.input_bytes), "output": workloads.digest(warm_digest)}
    source = tree_hash([*SRC.rglob("*.py"), *BENCH.glob("*.py")])
    print("digest " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "source": source, **entry}))
    compare_digests(f"{args.workload}/seed={args.seed}", source, entry, problems)

    quality = [q for res in results for q in res.quality]
    if quality:
        print("quality " + json.dumps({
            "scored_ops": len(quality),
            "ari_mean": statistics.fmean(q[0] for q in quality),
            "exact_condensation_rate": statistics.fmean(q[1] for q in quality),
            "exact_recovery_rate": statistics.fmean(q[2] for q in quality),
            "ill_posed_ops": ill_posed,
        }))
    print("typical " + json.dumps({
        "calls": len(latencies_ms),
        "call_ms_p50": statistics.median(latencies_ms),
        "ops_per_s": attempted / probe.elapsed,
    }))
    print("env " + json.dumps(environment.record(load_at_start)))

    if args.trace:
        values = layer_metrics(tracer, tracing, attempted, probe.elapsed)
        units = per_layer_units()
    else:
        values = {
            "setup_s": setup_s,
            "call_ms_p90": percentile(latencies_ms, 90),
            "success_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    print(f"{args.workload} seed={args.seed}: {len(results)} calls, {attempted} ops, "
          f"{failed} failed, {ill_posed} ill-posed (ill-conditioned model), "
          f"{probe.elapsed:.2f} s timed")
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:14.6g} {unit}")
    for p in problems:
        print(f"INCORRECT: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    environment.pin_blas_threads()  # before anything imports numpy
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-d10", "study-enum"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "lingcond" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'lingcond'}", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, run_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
