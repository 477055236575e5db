import json
import re
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lingcond import (
    ExperimentRecord,
    GridConfig,
    IcaOptions,
    SampleComplexityConfig,
    ThresholdSweepConfig,
    run_grid,
    run_sample_complexity,
    run_threshold_sweep,
    sufficient_n,
    summarize_grid,
    summarize_sample_complexity,
)
from lingcond import harness
from lingcond.exceptions import NumericalError
from lingcond.harness import CSV_HEADER, load_records, ols_slope, write_records


def tiny_grid_cfg():
    return GridConfig(
        d=6,
        kappas=(2,),
        lambdas=(0.4,),
        regimes=("stable",),
        sample_sizes=(500,),
        seeds=(0, 1),
        mode="hungarian",
        ica=IcaOptions(restarts=1, max_iterations=200),
    )


def tiny_sweep_cfg(**kw):
    return ThresholdSweepConfig(
        d=6, kappa=2, lam=0.4, regime="unstable", taus=(0.05, 0.2, 0.6),
        sample_sizes=(300, 800), seeds=(0, 1), ica=IcaOptions(restarts=1), **kw,
    )


def tiny_complexity_cfg():
    return SampleComplexityConfig(
        d=6, kappa=2, lam=0.4, seeds=(0, 1), sample_sizes=(200, 600),
        window=(100, 1000), ica=IcaOptions(restarts=1),
    )


RUNNERS = {
    "grid": (run_grid, tiny_grid_cfg),
    "sweep": (run_threshold_sweep, tiny_sweep_cfg),
    "complexity": (lambda cfg, **kw: run_sample_complexity(cfg, **kw)[0],
                   tiny_complexity_cfg),
}


def without_fit_ms(records):
    return [replace(r, fit_ms=None) for r in records]


class TestSufficientN:
    def test_plug_in(self):
        assert sufficient_n(1.0, 1.0, 0.5, 0.5) == pytest.approx(4.0)

    def test_beta_min_scaling(self):
        base = sufficient_n(1.0, 0.5, 1.0, 1.0)
        assert sufficient_n(0.5, 0.5, 1.0, 1.0) == pytest.approx(4 * base)

    def test_delta_scaling(self):
        base = sufficient_n(1.0, 0.4, 1.0, 1.0)
        assert sufficient_n(1.0, 0.1, 1.0, 1.0) == pytest.approx(2 * base)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            sufficient_n(0.0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            sufficient_n(1.0, 1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            sufficient_n(1.0, 0.5, -1.0, 1.0)

    @pytest.mark.parametrize("args", [
        (0.5, 0.1, float("nan"), 1), (float("inf"), 0.1, 1, 1), (0.5, 0.1, 1, float("inf")),
        (0.5, "0.1", 1, 1), (True, 0.1, 1, 1),
    ])
    def test_non_finite_arguments_rejected(self, args):
        # before, a NaN k1 gave NaN and an infinite beta_min gave 0.0
        with pytest.raises(ValueError, match="finite"):
            sufficient_n(*args)


GOOD_RECORD = ExperimentRecord(
    d=10, kappa=4, lam=0.5, regime="stable", n=1000, seed=3, tau=0.1,
    ari=1.0, cluster_f1=1.0, variable_f1=0.875, hamming=2,
    exact_recovery=False, pred_clusters=5, fit_ms=123.456, ica_iters=17,
)

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ERROR_TAG = st.text(st.characters(min_codepoint=33, max_codepoint=126, blacklist_characters=","),
                     min_size=1)


class TestRecords:
    def test_csv_round_trip(self):
        assert ExperimentRecord.from_csv_row(GOOD_RECORD.to_csv_row()) == GOOD_RECORD

    def test_error_record_round_trip(self):
        rec = ExperimentRecord(
            d=10, kappa=4, lam=0.5, regime="stable", n=50, seed=0, tau=0.1,
            error="WhiteningError",
        )
        parsed = ExperimentRecord.from_csv_row(rec.to_csv_row())
        assert parsed == rec
        assert parsed.ari is None

    def test_malformed_row_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRecord.from_csv_row("1,2,3")

    @pytest.mark.parametrize("column, cell", [
        ("exact_recovery", "yes"), ("exact_recovery", "2"), ("hamming", "1_0"),
        ("hamming", "2.0"), ("n", "+500"), ("ari", "nan"), ("fit_ms", "inf"),
        ("lambda", "-inf"), ("tau", "np.float64(0.1)"), ("seed", ""), ("regime", ""),
    ])
    def test_cell_the_writer_never_writes_rejected(self, column, cell):
        # before, yes loaded as False, 1_0 as 10 and nan or inf as floats
        cells = GOOD_RECORD.to_csv_row().split(",")
        cells[CSV_HEADER.split(",").index(column)] = cell
        with pytest.raises(ValueError, match=re.escape(f"results cell {cell!r}")):
            ExperimentRecord.from_csv_row(",".join(cells))

    @given(st.builds(
        ExperimentRecord,
        d=st.integers(1, 10**6), kappa=st.integers(1, 10**3), lam=_FINITE,
        regime=st.sampled_from(["stable", "unstable"]), n=st.integers(1, 10**9),
        seed=st.integers(0, 2**63), tau=_FINITE,
    ).flatmap(lambda rec: st.one_of(
        st.builds(replace, st.just(rec), error=_ERROR_TAG),
        st.builds(
            replace, st.just(rec), ari=_FINITE, cluster_f1=_FINITE, variable_f1=_FINITE,
            hamming=st.integers(0, 10**4), exact_recovery=st.booleans(),
            pred_clusters=st.integers(1, 10**4), fit_ms=_FINITE,
            ica_iters=st.integers(0, 10**4),
        ),
    )))
    def test_every_written_row_reads_back_equal(self, rec):
        assert ExperimentRecord.from_csv_row(rec.to_csv_row()) == rec

    def test_write_orders_by_key(self, tmp_path):
        recs = [
            ExperimentRecord(d=5, kappa=1, lam=0.5, regime="stable", n=100,
                             seed=s, tau=0.1)
            for s in (2, 0, 1)
        ]
        path = tmp_path / "r.csv"
        write_records(path, recs)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert [ExperimentRecord.from_csv_row(l).seed for l in lines[1:]] == [0, 1, 2]


class TestConfigs:
    def test_seed_count_expansion(self):
        cfg = GridConfig.from_json_dict({"seeds": 3})
        assert cfg.seeds == (0, 1, 2)

    def test_lambda_alias(self):
        cfg = ThresholdSweepConfig.from_json_dict({"lambda": 0.3})
        assert cfg.lam == 0.3

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            GridConfig.from_json_dict({"taus": [0.1]})

    def test_sample_sizes_must_increase(self):
        with pytest.raises(ValueError):
            GridConfig(sample_sizes=(100, 100))

    @pytest.mark.parametrize("cls", [GridConfig, ThresholdSweepConfig])
    @pytest.mark.parametrize("knob", [
        {"enum_cap": 0}, {"enum_cap": 1.5}, {"enum_floor": -0.1},
        {"enum_floor": 1.0}, {"enum_floor": float("nan")},
        {"eta": float("nan")}, {"eta": 0.0}, {"enum_cap": True}, {"enum_floor": "0.1"},
    ])
    def test_bad_scan_knobs_rejected(self, cls, knob):
        with pytest.raises(ValueError):
            cls(**knob)

    @pytest.mark.parametrize(
        "cls", [GridConfig, ThresholdSweepConfig, SampleComplexityConfig]
    )
    @pytest.mark.parametrize("bad", [
        {"eta": float("nan")}, {"eta": 0.0}, {"noise_family": "bogus"},
        {"seeds": ()}, {"sample_sizes": ()}, {"sample_sizes": (500, 200)},
    ])
    def test_shared_checks_rejected(self, cls, bad):
        with pytest.raises(ValueError):
            cls(**bad)

    @pytest.mark.parametrize(
        "cls", [GridConfig, ThresholdSweepConfig, SampleComplexityConfig]
    )
    @pytest.mark.parametrize("bad", [
        {"sample_sizes": (3, 4)}, {"sample_sizes": (6, 500)}, {"kappa": 4},
        {"lam": 1.5}, {"weight_low": 0.9, "weight_high": 0.5}, {"seeds": (0, -1)},
        {"seeds": (0, 1.5)}, {"lam": True}, {"weight_low": "0.5"}, {"eta": True},
    ])
    def test_config_that_would_fail_mid_run_rejected(self, cls, bad):
        # rejected when built, not when run_* reaches the first unit it breaks;
        # with kappa 2 the rest of the d=6 config is valid, so only `bad` can fail
        def build(**kwargs):
            if cls is GridConfig:
                renamed = {"kappa": "kappas", "lam": "lambdas"}
                kwargs = {renamed.get(k, k): (v,) if k in renamed else v for k, v in kwargs.items()}
            return cls(d=6, **kwargs)

        build(kappa=2)
        with pytest.raises(ValueError):
            build(**{"kappa": 2, **bad})

    @pytest.mark.parametrize("cls", [GridConfig, ThresholdSweepConfig])
    @pytest.mark.parametrize("data", [
        {"ica": {"bogus": 1}}, {"kappas": 3}, {"seeds": 2.5}, {"d": "6"},
        {"ica": {"restarts": 2.5}}, {"ica": {"max_iterations": 10.5}}, {"ica": {"seed": -1}},
        [1, 2], None, [["d", 10]], {"seeds": True}, {"seeds": [0, True]},
        {"ica": {"restarts": True}}, {"ica": {"tolerance": True}},
    ])
    def test_malformed_json_raises_value_error(self, cls, data):
        with pytest.raises(ValueError):
            cls.from_json_dict(data)

    @pytest.mark.parametrize("cls, data", [
        (GridConfig, {"sample_sizes": [200.5]}),
        (GridConfig, {"kappas": [2.5]}),
        (GridConfig, {"d": 10.0}),
        (ThresholdSweepConfig, {"sample_sizes": [500, 5000.5]}),
        (ThresholdSweepConfig, {"kappa": 2.5}),
        (SampleComplexityConfig, {"d": 10.0}),
        (SampleComplexityConfig, {"scm_seed": 1.5}),
        (SampleComplexityConfig, {"scm_seed": -1}),
        (SampleComplexityConfig, {"scm_seed": True}),
    ])
    def test_non_integral_sizes_and_scm_seed_rejected(self, cls, data):
        # before, these were accepted and the run died in rng.derive_seed or rng.stream
        with pytest.raises(ValueError):
            cls.from_json_dict(data)

    @pytest.mark.parametrize("window", [
        ["a", "b"], ["a", 1000], [200, None], [1000, 200], [True, 1000], [200, float("inf")],
    ])
    def test_window_must_be_two_increasing_numbers(self, window):
        # window belongs to SampleComplexityConfig alone; before, ["a", "b"] was
        # accepted and summarize_sample_complexity raised a raw TypeError after
        # every fit, and ["a", 1000] a raw TypeError when built
        with pytest.raises(ValueError, match="window"):
            SampleComplexityConfig.from_json_dict({"window": window})
        with pytest.raises(ValueError, match="window"):
            SampleComplexityConfig(d=6, window=tuple(window))

    def test_bad_regimes_rejected(self):
        for bad in ((), ("stable", "bogus")):
            with pytest.raises(ValueError):
                GridConfig(regimes=bad)
        with pytest.raises(ValueError):
            ThresholdSweepConfig(regime="bogus")
        with pytest.raises(ValueError):
            SampleComplexityConfig(regime="bogus")

    def test_bad_taus_rejected(self):
        with pytest.raises(ValueError):
            GridConfig(tau=float("nan"))
        with pytest.raises(ValueError):
            ThresholdSweepConfig(taus=(0.1, float("nan")))

    def test_ica_sub_config(self):
        cfg = GridConfig.from_json_dict({"ica": {"restarts": 1, "seed": 4}})
        assert cfg.ica.restarts == 1

    def test_complexity_default_grid_is_log_spaced(self):
        cfg = SampleComplexityConfig()
        assert cfg.sample_sizes[0] == 100
        assert cfg.sample_sizes[-1] == 100000
        ratios = [b / a for a, b in zip(cfg.sample_sizes, cfg.sample_sizes[1:])]
        assert max(ratios) / min(ratios) < 1.05


    @pytest.mark.parametrize("cfg", [
        GridConfig(d=6, kappas=(2,), lambdas=(0.4, 0.6), regimes=("stable",), seeds=(3, 5),
                   sample_sizes=(200, 500), tau=0.2, eta=2e-3, mode="hungarian", enum_cap=7,
                   ica=IcaOptions(restarts=2, seed=4), noise_family="exponential-centered"),
        ThresholdSweepConfig(d=6, kappa=2, lam=0.4, taus=(0.05, 0.3), sample_sizes=(300,),
                             weight_low=0.6, enum_floor=0.1),
        SampleComplexityConfig(d=6, kappa=2, lam=0.4, scm_seed=3, seeds=(0, 2),
                               sample_sizes=(200, 400), window=(250, 400), weight_high=0.9),
    ], ids=["grid", "sweep", "sample-complexity"])
    def test_json_round_trip_gives_an_equal_config(self, cfg):
        data = json.loads(json.dumps(asdict(cfg)))
        assert set(data) == {f.name for f in fields(cfg)}
        assert type(cfg).from_json_dict(data) == cfg

    @pytest.mark.parametrize("cls", [GridConfig, ThresholdSweepConfig, SampleComplexityConfig])
    def test_positional_construction_rejected(self, cls):
        # fields are keyword-only, so moving one between classes cannot reorder them
        with pytest.raises(TypeError):
            cls(10)

    def test_sample_complexity_has_no_scan_knobs(self):
        # the study fits in Hungarian mode only
        names = {f.name for f in fields(SampleComplexityConfig)}
        assert names.isdisjoint({"mode", "enum_floor", "enum_cap"})
        with pytest.raises(ValueError, match="unknown config keys"):
            SampleComplexityConfig.from_json_dict({"mode": "hungarian"})


class TestRunGrid:
    def test_records_and_rerun_idempotence(self, tmp_path):
        cfg = tiny_grid_cfg()
        out = tmp_path / "grid.csv"
        records = run_grid(cfg, out_path=out)
        assert len(records) == 2
        assert all(not r.error for r in records)
        first_bytes = out.read_bytes()
        rerun = run_grid(cfg, out_path=out)
        assert out.read_bytes() == first_bytes
        assert rerun == records

    def test_resume_recomputes_missing_rows(self, tmp_path):
        cfg = tiny_grid_cfg()
        out = tmp_path / "grid.csv"
        records = run_grid(cfg, out_path=out)
        # drop one row and resume
        kept = [r for r in records if r.seed != 1]
        write_records(out, kept)
        resumed = run_grid(cfg, out_path=out)
        a = [r for r in resumed if r.seed == 1][0]
        b = [r for r in records if r.seed == 1][0]
        assert (a.ari, a.cluster_f1, a.hamming) == (b.ari, b.cluster_f1, b.hamming)

    def test_integer_valued_config_resumes_byte_for_byte(self, tmp_path):
        # before, the first run wrote tau 0 and lambda 1, the resume 0.0 and 1.0
        cfg = replace(tiny_grid_cfg(), lambdas=(1,), tau=0)
        out = tmp_path / "grid.csv"
        records = run_grid(cfg, out_path=out)
        first_bytes = out.read_bytes()
        assert run_grid(cfg, out_path=out) == records
        assert out.read_bytes() == first_bytes

    def test_corrupt_row_stops_the_resume_and_keeps_the_file(self, tmp_path):
        cfg = tiny_grid_cfg()
        out = tmp_path / "grid.csv"
        run_grid(cfg, out_path=out)
        lines = out.read_text().splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[CSV_HEADER.split(",").index("exact_recovery")] = "yes"
        lines[1] = ",".join(cells)
        out.write_text("".join(lines))
        corrupt = out.read_bytes()
        with pytest.raises(ValueError, match="results cell 'yes'"):
            run_grid(cfg, out_path=out)
        assert out.read_bytes() == corrupt

    def test_metrics_deterministic_across_fresh_runs(self, tmp_path):
        cfg = tiny_grid_cfg()
        r1 = run_grid(cfg, out_path=tmp_path / "a.csv")
        r2 = run_grid(cfg, out_path=tmp_path / "b.csv")
        for a, b in zip(r1, r2):
            assert (a.ari, a.cluster_f1, a.variable_f1, a.hamming, a.ica_iters) == (
                b.ari, b.cluster_f1, b.variable_f1, b.hamming, b.ica_iters
            )

    def test_unique_keys(self, tmp_path):
        records = run_grid(tiny_grid_cfg())
        keys = [r.key() for r in records]
        assert len(set(keys)) == len(keys)


class TestStudyUnit:
    """All three runners share one unit: fit once per (cell, n, seed), score every tau."""

    @pytest.mark.parametrize("name", list(RUNNERS))
    def test_workers_do_not_change_results(self, name):
        run, make_cfg = RUNNERS[name]
        serial = run(make_cfg(), out_path=None, workers=1)
        parallel = run(make_cfg(), out_path=None, workers=2)
        assert serial and without_fit_ms(serial) == without_fit_ms(parallel)

    @pytest.mark.parametrize("name", list(RUNNERS))
    @pytest.mark.parametrize("workers", [2.5, True])
    def test_non_integral_workers_rejected(self, name, workers):
        # checked before any fit; before, True ran serially and 2.5 failed in the pool
        run, make_cfg = RUNNERS[name]
        with pytest.raises(ValueError, match="integer"):
            run(make_cfg(), out_path=None, workers=workers)

    @pytest.mark.parametrize("mode", ["hungarian", "enumerate-first-stable"])
    def test_grid_record_is_a_one_tau_sweep(self, mode):
        common = dict(d=6, sample_sizes=(300, 800), seeds=(0, 1), mode=mode,
                      ica=IcaOptions(restarts=1))
        grid = GridConfig(kappas=(2,), lambdas=(0.4,), regimes=("unstable",),
                          tau=0.2, **common)
        sweep = ThresholdSweepConfig(kappa=2, lam=0.4, regime="unstable",
                                     taus=(0.2,), **common)
        records = run_grid(grid)
        assert len(records) == 4 and not any(r.error for r in records)
        assert without_fit_ms(records) == without_fit_ms(run_threshold_sweep(sweep))

    @pytest.mark.parametrize("name", list(RUNNERS))
    def test_failed_fit_gives_one_error_row_per_tau(self, name, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalError("forced failure")

        monkeypatch.setattr(harness, "recover_condensation", fail)
        run, make_cfg = RUNNERS[name]
        cfg = make_cfg()
        records = run(cfg)
        taus_per_unit = len(cfg.taus) if name == "sweep" else 1
        assert len(records) == len(cfg.sample_sizes) * len(cfg.seeds) * taus_per_unit
        assert len({r.key() for r in records}) == len(records)
        for rec in records:
            assert rec.error == "NumericalError"
            assert rec.ari is None and rec.fit_ms is None and rec.hamming is None


class TestThresholdSweep:
    def test_sweep_shares_fit_and_covers_taus(self, tmp_path):
        cfg = ThresholdSweepConfig(
            d=6, kappa=2, lam=0.4, taus=(0.05, 0.2), sample_sizes=(800,),
            seeds=(0, 1), mode="hungarian", ica=IcaOptions(restarts=1),
        )
        records = run_threshold_sweep(cfg, out_path=tmp_path / "sweep.csv")
        assert len(records) == 4
        by_seed = {}
        for rec in records:
            by_seed.setdefault(rec.seed, []).append(rec)
        for recs in by_seed.values():
            # one shared pipeline per (n, seed): identical fit time and iterations
            assert len({r.fit_ms for r in recs}) == 1
            assert len({r.ica_iters for r in recs}) == 1

    def test_numpy_float_config_writes_a_readable_csv(self, tmp_path):
        # before, the cells read np.float64(...) and load_records raised
        cfg = ThresholdSweepConfig(
            d=6, kappa=2, lam=np.float64(0.4), taus=tuple(np.logspace(-2, 0, 3)),
            sample_sizes=(300,), seeds=(0,), mode="hungarian", ica=IcaOptions(restarts=1),
        )
        out = tmp_path / "sweep.csv"
        records = run_threshold_sweep(cfg, out_path=out)
        first_bytes = out.read_bytes()
        assert b"np." not in first_bytes
        assert load_records(out) == records
        assert run_threshold_sweep(cfg, out_path=out) == records
        assert out.read_bytes() == first_bytes

    def test_monotone_support_across_taus(self, tmp_path):
        cfg = ThresholdSweepConfig(
            d=6, kappa=2, lam=0.4, taus=(0.05, 0.2, 0.6), sample_sizes=(800,),
            seeds=(0,), mode="hungarian", ica=IcaOptions(restarts=1),
        )
        records = run_threshold_sweep(cfg)
        by_tau = {r.tau: r for r in records}
        # larger tau can only remove edges, so predicted clusters cannot merge
        assert by_tau[0.05].pred_clusters <= by_tau[0.2].pred_clusters <= by_tau[0.6].pred_clusters


class TestSampleComplexity:
    def test_summary_matches_records(self, tmp_path):
        cfg = SampleComplexityConfig(
            d=6, kappa=2, lam=0.4, seeds=(0, 1, 2), sample_sizes=(200, 600),
            window=(100, 1000), ica=IcaOptions(restarts=1),
        )
        records, summary = run_sample_complexity(cfg, out_path=tmp_path / "sc.csv")
        assert len(records) == 6
        assert summary["betaMin"] > 0
        assert summary["tau"] == pytest.approx(summary["betaMin"] / 2)
        recomputed = summarize_sample_complexity(records, cfg.window)
        for key in ("perN", "transitionWindow", "slopeCells", "olsSlope"):
            assert recomputed[key] == summary[key]
        for entry in summary["perN"]:
            subset = [r for r in records if r.n == entry["n"] and not r.error]
            rate = sum(r.exact_recovery for r in subset) / len(subset)
            assert entry["exactRecovery"]["rate"] == pytest.approx(rate)
            assert entry["meanHamming"]["mean"] == pytest.approx(
                np.mean([r.hamming for r in subset])
            )

    def test_tau_is_half_beta_min(self, tmp_path):
        cfg = SampleComplexityConfig(
            d=6, kappa=2, lam=0.4, seeds=(0,), sample_sizes=(300,),
            ica=IcaOptions(restarts=1),
        )
        records, summary = run_sample_complexity(cfg)
        from lingcond import generate_scm

        scm = generate_scm(6, 2, 0.4, seed=cfg.scm_seed)
        assert summary["betaMin"] == pytest.approx(scm.beta_min)
        assert records[0].tau == pytest.approx(scm.beta_min / 2)


class TestSummaries:
    def test_ols_slope_exact_line(self):
        xs = np.log([100, 200, 400])
        ys = -2.0 * xs + 3.0
        assert ols_slope(xs, ys) == pytest.approx(-2.0)

    def test_grid_summary_matches_records(self, tmp_path):
        cfg = tiny_grid_cfg()
        records = run_grid(cfg)
        summary = summarize_grid(records)
        cell = summary["cells"][0]
        good = [r for r in records if not r.error]
        assert cell["seeds"] == len(records)
        assert cell["ari"]["mean"] == pytest.approx(np.mean([r.ari for r in good]))
        assert cell["ari"]["median"] == pytest.approx(np.median([r.ari for r in good]))
        rate = sum(r.exact_recovery for r in good) / len(good)
        assert cell["exactRecovery"]["rate"] == pytest.approx(rate)

    def test_summary_json_serializable(self, tmp_path):
        records = run_grid(tiny_grid_cfg())
        json.dumps(summarize_grid(records))


class TestLoadRecords:
    def test_missing_file(self, tmp_path):
        assert load_records(tmp_path / "nope.csv") == []

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(ValueError):
            load_records(path)
