import json
import re
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lingcond import (
    ExperimentRecord,
    GridConfig,
    SampleComplexityConfig,
    condense,
    evaluate,
    generate_scm,
    recover_condensation,
    run_grid,
    run_sample_complexity,
    sample,
    summarize_grid,
    summarize_sample_complexity,
)
from lingcond import graphs, harness, rng as rng_mod
from lingcond.exceptions import NumericalError
from lingcond.harness import CSV_HEADER, load_records, ols_slope, write_records

# every fit in this module runs one FastICA restart, which keeps the studies small
pytestmark = pytest.mark.usefixtures("one_restart")


def tiny_grid_cfg():
    return GridConfig(
        d=6,
        kappas=(2,),
        lambdas=(0.4,),
        regimes=("stable",),
        sample_sizes=(500,),
        seeds=(0, 1),
        mode="hungarian",
    )


def tiny_sweep_cfg(**kw):  # a threshold sweep: one cell, several taus
    return GridConfig(
        d=6, kappas=(2,), lambdas=(0.4,), regimes=("unstable",), taus=(0.05, 0.2, 0.6),
        sample_sizes=(300, 800), seeds=(0, 1), **kw,
    )


def tiny_complexity_cfg():
    return SampleComplexityConfig(
        d=6, kappa=2, lam=0.4, seeds=(0, 1), sample_sizes=(200, 600),
        window=(100, 1000),
    )


# the study-config fields whose default is a tuple
LIST_FIELDS = [(cls, f.name) for cls in (GridConfig, SampleComplexityConfig)
               for f in fields(cls) if isinstance(f.default, tuple)]

RUNNERS = {
    "grid": (run_grid, tiny_grid_cfg),
    "sweep": (run_grid, tiny_sweep_cfg),
    "complexity": (lambda cfg, **kw: run_sample_complexity(cfg, **kw)[0],
                   tiny_complexity_cfg),
}


def without_fit_ms(records):
    return [replace(r, fit_ms=None) for r in records]


GOOD_RECORD = ExperimentRecord(
    d=10, kappa=4, lam=0.5, regime="stable", n=1000, seed=3, tau=0.1,
    ari=1.0, cluster_f1=1.0, variable_f1=0.875, hamming=2,
    exact_recovery=False, pred_clusters=5, fit_ms=123.456, ica_iters=17,
)
GOOD_ERROR_RECORD = ExperimentRecord(
    d=10, kappa=4, lam=0.5, regime="stable", n=50, seed=0, tau=0.1, error="WhiteningError",
)

_NON_NEGATIVE = st.floats(0.0, allow_infinity=False)
_UNIT = st.floats(0.0, 1.0)
_ERROR_TAG = st.text(st.characters(min_codepoint=33, max_codepoint=126, blacklist_characters=","),
                     min_size=1)


class TestRecords:
    def test_csv_round_trip(self):
        assert ExperimentRecord.from_csv_row(GOOD_RECORD.to_csv_row()) == GOOD_RECORD

    def test_error_record_round_trip(self):
        parsed = ExperimentRecord.from_csv_row(GOOD_ERROR_RECORD.to_csv_row())
        assert parsed == GOOD_ERROR_RECORD
        assert parsed.ari is None

    @pytest.mark.parametrize("row", [
        "1,2,3",
        # rows of the right width that the writer never writes: an error row
        # that carries metrics, and a scored row with a metric left empty
        replace(GOOD_RECORD, error="WhiteningError").to_csv_row(),
        replace(GOOD_RECORD, hamming=None).to_csv_row(),
        # scored rows whose metrics no scoring call gives
        replace(GOOD_RECORD, exact_recovery=True, hamming=3).to_csv_row(),
        replace(GOOD_RECORD, exact_recovery=False, hamming=0).to_csv_row(),
        replace(GOOD_RECORD, hamming=-4).to_csv_row(),
        replace(GOOD_RECORD, ari=2.5).to_csv_row(),
        replace(GOOD_RECORD, variable_f1=-0.5).to_csv_row(),
        replace(GOOD_RECORD, pred_clusters=0).to_csv_row(),
        replace(GOOD_RECORD, pred_clusters=GOOD_RECORD.d + 1).to_csv_row(),
        # rows whose fit no run makes: negative seed or tau, n <= d, a negative
        # fit time, no ICA iteration; the first three on error rows too
        replace(GOOD_RECORD, seed=-3).to_csv_row(),
        replace(GOOD_RECORD, tau=-0.1).to_csv_row(),
        replace(GOOD_RECORD, n=-200).to_csv_row(),
        replace(GOOD_RECORD, n=GOOD_RECORD.d).to_csv_row(),
        replace(GOOD_ERROR_RECORD, seed=-3).to_csv_row(),
        replace(GOOD_ERROR_RECORD, tau=-0.1).to_csv_row(),
        replace(GOOD_ERROR_RECORD, n=GOOD_ERROR_RECORD.d).to_csv_row(),
        replace(GOOD_RECORD, fit_ms=-12.5).to_csv_row(),
        replace(GOOD_RECORD, ica_iters=-30).to_csv_row(),
        replace(GOOD_RECORD, ica_iters=0).to_csv_row(),
        # cells generate_scm refuses (no SCC, more SCCs than d / 2 hosts, a
        # density outside [0, 1]) and more differing edges than d(d-1)
        replace(GOOD_RECORD, kappa=0).to_csv_row(),
        replace(GOOD_RECORD, kappa=50).to_csv_row(),
        replace(GOOD_RECORD, lam=-0.5).to_csv_row(),
        replace(GOOD_RECORD, lam=7.0).to_csv_row(),
        replace(GOOD_ERROR_RECORD, kappa=50).to_csv_row(),
        replace(GOOD_RECORD, hamming=500).to_csv_row(),
    ], ids=["short", "error-with-metrics", "metric-missing", "exact-with-hamming-3",
            "inexact-with-hamming-0", "negative-hamming", "ari-above-1", "negative-f1",
            "no-clusters", "more-clusters-than-d", "negative-seed", "negative-tau",
            "negative-n", "n-equal-to-d", "error-negative-seed", "error-negative-tau",
            "error-n-equal-to-d", "negative-fit-ms", "negative-ica-iters", "no-ica-iters",
            "kappa-0", "kappa-50", "negative-lambda", "lambda-7", "error-kappa-50",
            "hamming-500"])
    def test_malformed_row_rejected(self, row):
        # before, every row of the right width here loaded as a record
        with pytest.raises(ValueError, match="row"):
            ExperimentRecord.from_csv_row(row)

    @pytest.mark.parametrize("column, cell", [
        ("exact_recovery", "yes"), ("exact_recovery", "2"), ("hamming", "1_0"),
        ("hamming", "2.0"), ("n", "+500"), ("ari", "nan"), ("fit_ms", "inf"),
        ("lambda", "-inf"), ("tau", "np.float64(0.1)"), ("seed", ""), ("regime", ""),
        ("lambda", "0_5"), ("tau", " 0.5"), ("tau", "0.5 "), ("lambda", "+0.5"),
        ("fit_ms", "1E-05"), ("regime", "banana"),
    ])
    def test_cell_the_writer_never_writes_rejected(self, column, cell):
        # before, yes loaded as False, 1_0 and 0_5 as 10 and 5.0, nan or inf as
        # floats, and a float cell in any other text float() reads as that float
        cells = GOOD_RECORD.to_csv_row().split(",")
        cells[CSV_HEADER.split(",").index(column)] = cell
        with pytest.raises(ValueError, match=re.escape(f"results cell {cell!r}")):
            ExperimentRecord.from_csv_row(",".join(cells))

    # rows the harness writes: cells generate_scm accepts (d >= 2,
    # 1 <= kappa <= d // 2, lambda in [0, 1]) and at most d(d-1) differing edges
    @given(st.integers(2, 10**6).flatmap(lambda d: st.builds(
        ExperimentRecord,
        d=st.just(d), kappa=st.integers(1, d // 2), lam=_UNIT,
        regime=st.sampled_from(["stable", "unstable"]), n=st.integers(d + 1, 10**9),
        seed=st.integers(0, 2**63), tau=_NON_NEGATIVE,
    )).flatmap(lambda rec: st.one_of(
        st.builds(replace, st.just(rec), error=_ERROR_TAG),
        # a scored row as the scorer writes it: metrics in MetricsReport's
        # ranges, exact recovery where the Hamming distance is 0, 1..d clusters
        st.integers(0, min(10**4, rec.d * (rec.d - 1))).flatmap(lambda hamming: st.builds(
            replace, st.just(rec), ari=st.floats(-1.0, 1.0), cluster_f1=_UNIT,
            variable_f1=_UNIT, hamming=st.just(hamming), exact_recovery=st.just(hamming == 0),
            pred_clusters=st.integers(1, rec.d), fit_ms=_NON_NEGATIVE,
            ica_iters=st.integers(1, 10**4),
        )),
    )))
    def test_every_written_row_reads_back_equal(self, rec):
        assert ExperimentRecord.from_csv_row(rec.to_csv_row()) == rec

    def test_write_orders_by_key(self, tmp_path):
        recs = [
            ExperimentRecord(d=5, kappa=1, lam=0.5, regime="stable", n=100,
                             seed=s, tau=0.1, error="WhiteningError")
            for s in (2, 0, 1)
        ]
        path = tmp_path / "r.csv"
        write_records(path, recs)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert [ExperimentRecord.from_csv_row(l).seed for l in lines[1:]] == [0, 1, 2]

    def test_close_config_values_keep_their_own_rows(self, tmp_path):
        # before, keys quantized lambda and tau to 1e-6, so these configs gave 1 and 2 rows
        common = dict(d=6, sample_sizes=(300,), seeds=(0,), mode="hungarian")
        grid = GridConfig(kappas=(2,), lambdas=(0.5, 0.5000001), regimes=("stable",), **common)
        sweep = GridConfig(kappas=(2,), lambdas=(0.4,), regimes=("stable",),
                           taus=(0.1, 0.1000004, 0.2), **common)
        for cfg, column, values in ((grid, "lam", grid.lambdas), (sweep, "tau", sweep.taus)):
            out = tmp_path / f"{column}.csv"
            records = run_grid(cfg, out_path=out)
            assert [getattr(r, column) for r in records] == list(values)
            first_bytes = out.read_bytes()
            assert run_grid(cfg, out_path=out) == records
            assert out.read_bytes() == first_bytes


class TestConfigs:
    def test_seed_count_expansion(self):
        cfg = GridConfig.from_json_dict({"seeds": 3})
        assert cfg.seeds == (0, 1, 2)

    def test_lambda_alias(self):
        cfg = SampleComplexityConfig.from_json_dict({"lambda": 0.3})
        assert cfg.lam == 0.3

    def test_unknown_keys_rejected(self):
        # a grid's taus and cells are lists: the old sweep's scalar names are not keys
        for key in ("tau", "kappa", "lam", "lambda", "regime"):
            with pytest.raises(ValueError, match="unknown config keys"):
                GridConfig.from_json_dict({key: 0.1})
        with pytest.raises(ValueError, match="unknown config keys"):
            SampleComplexityConfig.from_json_dict({"taus": [0.1]})
        # named as the file names it: a grid has no lam for lambda to alias
        with pytest.raises(ValueError, match=re.escape("unknown config keys: ['lambda']")):
            GridConfig.from_json_dict({"lambda": 0.4})
        # before, the lambda silently won
        with pytest.raises(ValueError, match="both lambda and lam"):
            SampleComplexityConfig.from_json_dict({"lam": 0.3, "lambda": 0.5})

    def test_sample_sizes_must_increase(self):
        with pytest.raises(ValueError):
            GridConfig(sample_sizes=(100, 100))

    @pytest.mark.parametrize("cls", [GridConfig])
    @pytest.mark.parametrize("knob", [
        {"enum_cap": 0}, {"enum_cap": 1.5}, {"enum_cap": True}, {"mode": "magic"}, {"enum_cap": -1},
    ])
    def test_bad_scan_knobs_rejected(self, cls, knob):
        with pytest.raises(ValueError):
            cls(**knob)

    @pytest.mark.parametrize("cls", [GridConfig, SampleComplexityConfig])
    @pytest.mark.parametrize("floor", [0.1, -0.1, 1.0, float("nan"), "0.1"])
    def test_scan_floor_is_not_a_config_key(self, cls, floor):
        # the scan's significance floor, the admissibility cut eta and the
        # FastICA options are constants of the pipeline, not settings: a config
        # that names any of them is refused whatever the value
        for key in ("enum_floor", "eta", "ica"):
            with pytest.raises(ValueError, match="unknown config keys"):
                cls.from_json_dict({key: floor})
            with pytest.raises(TypeError):
                cls(**{key: floor})

    @pytest.mark.parametrize("cls", [GridConfig, SampleComplexityConfig])
    @pytest.mark.parametrize("bad", [
        {"noise_family": "bogus"}, {"seeds": ()}, {"sample_sizes": ()},
        {"sample_sizes": (500, 200)}, {"seeds": (0, 0)}, {"noise_family": 3},
    ])
    def test_shared_checks_rejected(self, cls, bad):
        with pytest.raises(ValueError):
            cls(**bad)

    @pytest.mark.parametrize("cls", [GridConfig, SampleComplexityConfig])
    @pytest.mark.parametrize("bad", [
        {"sample_sizes": (3, 4)}, {"sample_sizes": (6, 500)}, {"kappa": 4},
        {"lam": 1.5}, {"weight_low": 0.9, "weight_high": 0.5}, {"seeds": (0, -1)},
        {"seeds": (0, 1.5)}, {"lam": True}, {"weight_low": "0.5"}, {"weight_high": True},
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

    @pytest.mark.parametrize("cls", [GridConfig])
    @pytest.mark.parametrize("data", [
        {"ica": {"bogus": 1}}, {"kappas": 3}, {"seeds": 2.5}, {"d": "6"},
        {"ica": {"restarts": 2.5}}, {"ica": {"max_iterations": 10.5}}, {"ica": {"seed": -1}},
        [1, 2], None, [["d", 10]], {"seeds": True}, {"seeds": [0, True]},
        {"ica": {"restarts": True}}, {"ica": {"tolerance": True}},
        # the FastICA contrast, tolerance and cap are constants, not ica options
        {"ica": {"nonlinearity": "logcosh"}}, {"ica": {"tolerance": 1e-6}},
        {"ica": {"max_iterations": 500}},
        # the restart count is a constant too, so no ica key is left
        {"ica": {"restarts": 3}}, {"ica": {}},
    ])
    def test_malformed_json_raises_value_error(self, cls, data):
        with pytest.raises(ValueError):
            cls.from_json_dict(data)

    @pytest.mark.parametrize("cls, data", [
        (GridConfig, {"sample_sizes": [200.5]}),
        (GridConfig, {"kappas": [2.5]}),
        (GridConfig, {"d": 10.0}),
        (GridConfig, {"sample_sizes": [500, 5000.5]}),
        (GridConfig, {"kappas": [2, 2.5]}),
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
            SampleComplexityConfig(d=6, kappa=2, window=tuple(window))

    def test_bad_regimes_rejected(self):
        for bad in ((), ("stable", "bogus")):
            with pytest.raises(ValueError):
                GridConfig(regimes=bad)
        with pytest.raises(ValueError):
            SampleComplexityConfig(regime="bogus")

    def test_bad_taus_rejected(self):
        for taus in ((float("nan"),), (0.1, float("nan")), (0.1, -0.1)):
            with pytest.raises(ValueError):
                GridConfig(taus=taus)

    @pytest.mark.parametrize("cls, name", LIST_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in LIST_FIELDS])
    @pytest.mark.parametrize("shape", ["scalar", "repeat", "empty"])
    def test_list_field_is_a_sequence_of_distinct_values(self, cls, name, shape):
        # before, kappas=3 raised a raw TypeError, regimes="stable" read as the
        # regime 's', and kappas=(2, 2) ran every unit of kappa 2 twice for one set of rows
        default = getattr(cls(), name)
        bad = {"scalar": default[0], "repeat": [default[0]] * 2, "empty": []}[shape]
        with pytest.raises(ValueError, match=name):
            cls(**{name: bad})
        with pytest.raises(ValueError, match=name):  # a scalar seeds is a count: here zero
            cls.from_json_dict({name: bad})
        assert cls(**{name: list(default)}) == cls()  # a list is held as a tuple

    def test_complexity_default_grid_is_log_spaced(self):
        cfg = SampleComplexityConfig()
        assert cfg.sample_sizes[0] == 100
        assert cfg.sample_sizes[-1] == 100000
        ratios = [b / a for a, b in zip(cfg.sample_sizes, cfg.sample_sizes[1:])]
        assert max(ratios) / min(ratios) < 1.05


    @pytest.mark.parametrize("cfg", [
        GridConfig(d=6, kappas=(2,), lambdas=(0.4, 0.6), regimes=("stable",), seeds=(3, 5),
                   sample_sizes=(200, 500), taus=(0.2,), mode="hungarian", enum_cap=7,
                   noise_family="exponential-centered"),
        GridConfig(d=6, kappas=(2,), lambdas=(0.4,), taus=(0.05, 0.3), sample_sizes=(300,),
                   weight_low=0.6),
        SampleComplexityConfig(d=6, kappa=2, lam=0.4, scm_seed=3, seeds=(0, 2),
                               sample_sizes=(200, 400), window=(250, 400), weight_high=0.9),
    ], ids=["grid", "sweep", "sample-complexity"])
    def test_json_round_trip_gives_an_equal_config(self, cfg):
        data = json.loads(json.dumps(asdict(cfg)))
        assert set(data) == {f.name for f in fields(cfg)}
        assert type(cfg).from_json_dict(data) == cfg

    @pytest.mark.parametrize("cls", [GridConfig, SampleComplexityConfig])
    def test_positional_construction_rejected(self, cls):
        # fields are keyword-only, so moving one between classes cannot reorder them
        with pytest.raises(TypeError):
            cls(10)

    def test_sample_complexity_has_no_scan_knobs(self):
        # the study fits in Hungarian mode only
        names = {f.name for f in fields(SampleComplexityConfig)}
        assert names.isdisjoint({"mode", "enum_cap"})
        with pytest.raises(ValueError, match="unknown config keys"):
            SampleComplexityConfig.from_json_dict({"mode": "hungarian"})

    def test_grid_mode_defaults_to_hungarian(self, tmp_path):
        # a grid config that names no mode writes the CSV of one that names
        # "hungarian", fit_ms aside; before, it fitted with the first-stable scan
        assert GridConfig().mode == "hungarian"
        data = {"d": 6, "kappas": [2], "lambdas": [0.4], "regimes": ["unstable"],
                "taus": [0.05, 0.2], "sample_sizes": [300, 800], "seeds": 2}
        fit_ms = CSV_HEADER.split(",").index("fit_ms")
        written = []
        for name, extra in (("default", {}), ("named", {"mode": "hungarian"})):
            out = tmp_path / f"{name}.csv"
            run_grid(GridConfig.from_json_dict({**data, **extra}), out_path=out)
            written.append([line.split(",")[:fit_ms] + line.split(",")[fit_ms + 1:]
                            for line in out.read_text().splitlines()])
        assert len(written[0]) == 9 and written[0] == written[1]


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
        cfg = replace(tiny_grid_cfg(), lambdas=(1,), taus=(0,))
        out = tmp_path / "grid.csv"
        records = run_grid(cfg, out_path=out)
        first_bytes = out.read_bytes()
        assert run_grid(cfg, out_path=out) == records
        assert out.read_bytes() == first_bytes

    @pytest.mark.parametrize("corrupt, message", [
        ({"exact_recovery": "yes"}, "results cell 'yes'"),
        ({"regime": "banana"}, "results cell 'banana'"),
        ({"error": "WhiteningError"}, "neither a scored row nor an error row"),
        ({"hamming": ""}, "neither a scored row nor an error row"),
        ({"exact_recovery": "1", "hamming": "3"}, "the harness never writes"),
        ({"exact_recovery": "0", "hamming": "0"}, "the harness never writes"),
        ({"exact_recovery": "0", "hamming": "-4"}, "the harness never writes"),
        ({"ari": "2.5"}, "the harness never writes"),
    ], ids=["yes", "banana", "error-with-metrics", "metric-missing", "exact-with-hamming-3",
            "inexact-with-hamming-0", "negative-hamming", "ari-above-1"])
    def test_corrupt_row_stops_the_resume_and_keeps_the_file(self, tmp_path, corrupt, message):
        cfg = tiny_grid_cfg()
        out = tmp_path / "grid.csv"
        run_grid(cfg, out_path=out)
        lines = out.read_text().splitlines(keepends=True)
        cells = lines[1].rstrip("\n").split(",")
        for column, cell in corrupt.items():
            cells[CSV_HEADER.split(",").index(column)] = cell
        lines[1] = ",".join(cells) + "\n"
        out.write_text("".join(lines))
        corrupt = out.read_bytes()
        with pytest.raises(ValueError, match=message):
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

    @pytest.mark.parametrize("name", ["grid", "complexity"])
    def test_workers_keyword_refused(self, name, monkeypatch):
        # a study runs in one process, so a pool size is refused, not ignored
        monkeypatch.setattr(harness, "recover_condensation", None)
        run, make_cfg = RUNNERS[name]
        with pytest.raises(TypeError, match="workers"):
            run(make_cfg(), workers=2)

    def test_resume_fits_only_the_units_whose_rows_are_missing(self, tmp_path, monkeypatch):
        fits = []

        def counting_fit(*args, **kwargs):
            fits.append(kwargs["seed"])
            return recover_condensation(*args, **kwargs)

        cfg, out = tiny_grid_cfg(), tmp_path / "grid.csv"
        run_grid(replace(cfg, seeds=(0,)), out_path=out)
        monkeypatch.setattr(harness, "recover_condensation", counting_fit)
        records = run_grid(cfg, out_path=out)  # the seed-1 unit is missing: one fit
        assert len(fits) == 1 and [r.seed for r in records] == [0, 1]
        first_bytes = out.read_bytes()
        assert run_grid(cfg, out_path=out) == records  # none missing: no fit
        assert len(fits) == 1 and out.read_bytes() == first_bytes

    @pytest.mark.parametrize("name", list(RUNNERS))
    def test_disjoint_seed_shards_merge_by_concatenation(self, name, tmp_path, monkeypatch):
        # shards over disjoint seeds, concatenated, hold every row: a run of
        # the whole config onto the merged file fits nothing and keeps every row
        run, make_cfg = RUNNERS[name]
        cfg = make_cfg()
        shards = [tmp_path / f"{seed}.csv" for seed in cfg.seeds]
        for seed, shard in zip(cfg.seeds, shards):
            run(replace(cfg, seeds=(seed,)), out_path=shard)
        merged = tmp_path / "merged.csv"
        merged.write_text(CSV_HEADER + "\n" + "".join(
            "".join(shard.read_text().splitlines(keepends=True)[1:]) for shard in shards))
        expected = sorted(load_records(merged), key=ExperimentRecord.key)
        monkeypatch.setattr(harness, "recover_condensation", None)
        assert run(cfg, out_path=merged) == expected
        assert load_records(merged) == expected

    @pytest.mark.parametrize("taus, calls", [((0.05, 0.2, 0.6), 5), ((0.2,), 3)])
    def test_each_support_is_condensed_once(self, taus, calls, monkeypatch):
        # one Tarjan pass per condensation (condense skips Condensation's DAG
        # check): the fit's cut, the unit's true support, and each row's cut
        counted = []

        def counting_tarjan(g):
            counted.append(g)
            return tarjan(g)

        tarjan = graphs.tarjan_scc
        for module in [m for name, m in sys.modules.items() if name.startswith("lingcond")]:
            if getattr(module, "tarjan_scc", None) is tarjan:
                monkeypatch.setattr(module, "tarjan_scc", counting_tarjan)
        cfg = GridConfig(d=6, kappas=(2,), lambdas=(0.4,), regimes=("stable",), taus=taus,
                         sample_sizes=(500,), seeds=(0,), mode="hungarian")
        records = run_grid(cfg)
        assert len(records) == len(taus) and not any(r.error for r in records)
        assert len(counted) == calls

    @pytest.mark.parametrize("mode", ["hungarian", "enumerate-first-stable"])
    def test_multi_tau_grid_is_one_grid_per_tau(self, mode):
        # one fit per (cell, n, seed) cut at each tau gives the rows of a grid run at that tau
        cfg = GridConfig(d=6, kappas=(2,), lambdas=(0.4, 0.6), regimes=("unstable",),
                         taus=(0.2, 0.05, 0.6), sample_sizes=(300, 800), seeds=(0, 1),
                         mode=mode)
        records = run_grid(cfg)
        assert len(records) == 24 and not any(r.error for r in records)
        per_tau = [rec for tau in cfg.taus for rec in run_grid(replace(cfg, taus=(tau,)))]
        assert without_fit_ms(records) == without_fit_ms(sorted(per_tau, key=ExperimentRecord.key))

    @pytest.mark.parametrize("name, mode", [
        ("sweep", "hungarian"), ("sweep", "enumerate-first-stable"), ("complexity", "hungarian"),
    ])
    def test_one_fit_per_unit_scores_like_a_fit_at_each_tau(self, name, mode, monkeypatch):
        # each unit is fitted once, at its smallest tau, and that fit's candidate
        # is cut at every tau; a fit of the same sample at each tau scores the same
        fit_taus = []

        def counting_fit(*args, **kwargs):
            fit_taus.append(kwargs["tau"])
            return recover_condensation(*args, **kwargs)

        monkeypatch.setattr(harness, "recover_condensation", counting_fit)
        run, make_cfg = RUNNERS[name]
        cfg = tiny_sweep_cfg(mode=mode) if name == "sweep" else make_cfg()
        records = run(cfg)
        units = len(cfg.sample_sizes) * len(cfg.seeds)
        assert len(records) == units * (len(cfg.taus) if name == "sweep" else 1)
        assert fit_taus == [min(r.tau for r in records)] * units
        for rec in records:
            if name == "sweep":
                cell = harness._cell_keys(cfg.d, rec.kappa, rec.lam, rec.regime)
                scm_seed, sample_seed, ica_seed = harness._cell_sub_seeds(rec.seed, cell, rec.n)
            else:
                scm_seed = cfg.scm_seed
                sample_seed = rng_mod.derive_seed(rec.seed, harness.TAG_SAMPLE, rec.n)
                ica_seed = rng_mod.derive_seed(rec.seed, harness.TAG_ICA, rec.n)
            scm = generate_scm(cfg.d, rec.kappa, rec.lam, regime=rec.regime, seed=scm_seed)
            fit = recover_condensation(
                sample(scm, rec.n, seed=sample_seed), tau=rec.tau, seed=ica_seed, mode=mode,
            )
            truth = scm.b.support()
            report = evaluate(fit.support(), fit.condensation, truth, condense(truth))
            assert not rec.error
            assert (rec.ari, rec.cluster_f1, rec.variable_f1, rec.hamming, rec.exact_recovery,
                    rec.pred_clusters, rec.ica_iters) == (
                report.ari, report.cluster_dag_f1, report.variable_f1, report.hamming_support,
                report.hamming_support == 0, report.predicted_partition_size,
                fit.estimate.iterations)

    @pytest.mark.parametrize("name", list(RUNNERS))
    def test_failed_fit_gives_one_error_row_per_tau(self, name, monkeypatch):
        # a raw LinAlgError is a numerical failure too, not a caller's ValueError
        for error in (NumericalError, np.linalg.LinAlgError):
            def fail(*args, **kwargs):
                raise error("forced failure")

            monkeypatch.setattr(harness, "recover_condensation", fail)
            run, make_cfg = RUNNERS[name]
            cfg = make_cfg()
            records = run(cfg)
            taus_per_unit = len(cfg.taus) if name == "sweep" else 1
            assert len(records) == len(cfg.sample_sizes) * len(cfg.seeds) * taus_per_unit
            assert len({r.key() for r in records}) == len(records)
            for rec in records:
                assert rec.error == error.__name__
                assert rec.ari is None and rec.fit_ms is None and rec.hamming is None


class TestThresholdSweep:
    """A threshold sweep is a grid of one cell with several taus."""

    def test_sweep_shares_fit_and_covers_taus(self, tmp_path):
        cfg = GridConfig(
            d=6, kappas=(2,), lambdas=(0.4,), regimes=("stable",), taus=(0.05, 0.2),
            sample_sizes=(800,), seeds=(0, 1), mode="hungarian",
        )
        records = run_grid(cfg, out_path=tmp_path / "sweep.csv")
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
        cfg = GridConfig(
            d=6, kappas=(2,), lambdas=(np.float64(0.4),), regimes=("stable",),
            taus=tuple(np.logspace(-2, 0, 3)), sample_sizes=(300,), seeds=(0,),
            mode="hungarian",
        )
        out = tmp_path / "sweep.csv"
        records = run_grid(cfg, out_path=out)
        first_bytes = out.read_bytes()
        assert b"np." not in first_bytes
        assert load_records(out) == records
        assert run_grid(cfg, out_path=out) == records
        assert out.read_bytes() == first_bytes

    def test_monotone_support_across_taus(self, tmp_path):
        cfg = GridConfig(
            d=6, kappas=(2,), lambdas=(0.4,), regimes=("stable",), taus=(0.05, 0.2, 0.6),
            sample_sizes=(800,), seeds=(0,), mode="hungarian",
        )
        records = run_grid(cfg)
        by_tau = {r.tau: r for r in records}
        # larger tau can only remove edges, so predicted clusters cannot merge
        assert by_tau[0.05].pred_clusters <= by_tau[0.2].pred_clusters <= by_tau[0.6].pred_clusters


class TestSampleComplexity:
    def test_summary_matches_records(self, tmp_path):
        cfg = SampleComplexityConfig(
            d=6, kappa=2, lam=0.4, seeds=(0, 1, 2), sample_sizes=(200, 600),
            window=(100, 1000),
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
        # before, xs with no spread gave nan and a RuntimeWarning
        with pytest.raises(ValueError, match="spread"):
            ols_slope([1, 1], [0, 1])

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
