import inspect
import json
import warnings

import numpy as np
import pytest

from lingcond import harness
from lingcond.cli import _UsageError, _build_parser, main
from lingcond.recover import (
    DEFAULT_ENUM_CAP, DEFAULT_ETA, DEFAULT_TAU, recover_condensation,
)
from lingcond.scm import (
    DEFAULT_WEIGHT_HIGH, DEFAULT_WEIGHT_LOW, NOISE_FAMILIES, REGIME_TARGETS, generate_scm,
    load_samples_csv, load_scm_json, save_scm_json,
)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path):
    return tmp_path


class TestGenerateSampleFit:
    def test_round_trip(self, workspace):
        scm_path = workspace / "scm.json"
        data_path = workspace / "data.csv"
        fit_path = workspace / "fit.json"

        assert run("generate", "--d", 10, "--kappa", 4, "--lambda", 0.5,
                   "--seed", 1, "--out", scm_path) == 0
        scm = load_scm_json(scm_path)
        assert scm.d == 10

        assert run("sample", "--scm", scm_path, "--n", 5000, "--seed", 2,
                   "--out", data_path) == 0
        x = load_samples_csv(data_path)
        assert x.shape == (5000, 10)
        assert data_path.read_text().splitlines()[0] == ",".join(
            f"X{i}" for i in range(1, 11)
        )

        assert run("fit", "--data", data_path, "--tau", 0.1, "--seed", 3,
                   "--out", fit_path) == 0
        result = json.loads(fit_path.read_text())
        assert set(result) >= {"partition", "clusterEdges", "bHat", "tau", "eta",
                               "timings", "icaIterations"}
        assert len(result["partition"]) == 10
        assert result["eta"] == DEFAULT_ETA  # a constant of the pipeline, still reported

    def test_fit_enumerate_mode(self, workspace):
        scm_path = workspace / "scm.json"
        data_path = workspace / "data.csv"
        run("generate", "--d", 6, "--kappa", 2, "--lambda", 0.4, "--out", scm_path)
        run("sample", "--scm", scm_path, "--n", 3000, "--out", data_path)
        assert run("fit", "--data", data_path, "--mode", "enumerate-first-stable",
                   "--out", workspace / "fit.json") == 0

    def test_fit_prints_to_stdout(self, workspace, capsys):
        scm_path = workspace / "scm.json"
        data_path = workspace / "data.csv"
        run("generate", "--d", 6, "--kappa", 2, "--lambda", 0.4, "--out", scm_path)
        run("sample", "--scm", scm_path, "--n", 2000, "--out", data_path)
        assert run("fit", "--data", data_path) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["tau"] == 0.1


    def test_fit_defaults_come_from_the_library(self):
        args = _build_parser().parse_args(["fit", "--data", "x.csv"])
        assert args.seed == inspect.signature(recover_condensation).parameters["seed"].default
        assert args.enum_cap == DEFAULT_ENUM_CAP
        assert args.tau == DEFAULT_TAU

    def test_generate_defaults_and_choices_come_from_the_library(self):
        parser = _build_parser()
        args = parser.parse_args(["generate", "--d", "6", "--kappa", "2", "--lambda", "0.4",
                                  "--out", "scm.json"])
        assert (args.weight_low, args.weight_high) == (DEFAULT_WEIGHT_LOW, DEFAULT_WEIGHT_HIGH)
        gen = parser._subparsers._group_actions[0].choices["generate"]
        choices = {action.dest: action.choices for action in gen._actions}
        assert tuple(choices["regime"]) == tuple(REGIME_TARGETS)
        assert tuple(choices["noise"]) == NOISE_FAMILIES


class TestParserBuiltOnce:
    """``main`` reuses one parser per process; each call must act as in a fresh process."""

    ARGVS = (
        ["fit", "--data", "x.csv", "--tau", "0.3", "--seed", "5", "--mode",
         "enumerate-first-stable", "--enum-cap", "7"],
        ["fit", "--data", "x.csv"],
        ["generate", "--d", "6", "--kappa", "2", "--lambda", "0.4", "--seed", "9",
         "--regime", "unstable", "--out", "scm.json"],
        ["generate", "--d", "6", "--kappa", "2", "--lambda", "0.4", "--out", "scm.json"],
        ["sample", "--scm", "scm.json", "--n", "10", "--out", "x.csv"],
    )

    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_parses_like_a_fresh_parser(self):
        with pytest.raises(_UsageError):
            _build_parser().parse_args(["fit", "--data", "x.csv", "--tau", "x"])
        for argv in self.ARGVS:
            assert vars(_build_parser().parse_args(argv)) == vars(
                _build_parser.__wrapped__().parse_args(argv)
            )

    def test_usage_error_then_valid_fit(self, workspace, capsys):
        scm_path, data_path = workspace / "scm.json", workspace / "data.csv"
        run("generate", "--d", 6, "--kappa", 2, "--lambda", 0.4, "--out", scm_path)
        run("sample", "--scm", scm_path, "--n", 2000, "--out", data_path)
        assert run("fit", "--data", data_path, "--tau", "x", "--seed", 4) == 1
        assert run("fit", "--data", data_path, "--no-such-flag") == 1
        assert run("fit", "--data", data_path) == 0
        got = json.loads(capsys.readouterr().out)
        want = recover_condensation(load_samples_csv(data_path)).to_json_dict()
        for payload in (got, want):
            del payload["timings"]
        assert got == json.loads(json.dumps(want))

    def test_fit_then_generate_keeps_the_defaults(self, workspace):
        scm_path, data_path = workspace / "scm.json", workspace / "data.csv"
        run("generate", "--d", 6, "--kappa", 2, "--lambda", 0.4, "--seed", 7,
            "--regime", "unstable", "--noise", NOISE_FAMILIES[-1], "--out", scm_path)
        run("sample", "--scm", scm_path, "--n", 2000, "--out", data_path)
        assert run("fit", "--data", data_path, "--seed", 5, "--tau", 0.3,
                   "--out", workspace / "fit.json") == 0
        assert run("generate", "--d", 6, "--kappa", 2, "--lambda", 0.4, "--out", scm_path) == 0
        assert load_scm_json(scm_path).to_json_dict() == generate_scm(6, 2, 0.4).to_json_dict()

    def test_generate_writes_the_bytes_of_save_scm_json(self, workspace):
        scm_path, saved = workspace / "scm.json", workspace / "saved.json"
        assert run("generate", "--d", 6, "--kappa", 2, "--lambda", 0.4, "--seed", 3,
                   "--regime", "unstable", "--out", scm_path) == 0
        save_scm_json(saved, generate_scm(6, 2, 0.4, regime="unstable", seed=3))
        assert scm_path.read_bytes() == saved.read_bytes()


class TestLatticeCommand:
    def test_example_graph_report(self, workspace, example_graph, capsys):
        graph_path = workspace / "graph.json"
        graph_path.write_text(json.dumps(example_graph.to_json_dict()))
        assert run("lattice", "--graph", graph_path) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["totalPartitions"] == 52
        assert report["validCount"] == 4


class TestExitCodes:
    def test_usage_error_bad_flag(self):
        assert run("fit", "--no-such-flag") == 1

    def test_usage_error_missing_subcommand_args(self):
        assert run("generate", "--d", 10) == 1

    def test_usage_error_infeasible_model(self, workspace):
        assert run("generate", "--d", 4, "--kappa", 3, "--lambda", 0.5,
                   "--out", workspace / "x.json") == 1

    def test_usage_error_missing_file(self, workspace):
        assert run("fit", "--data", workspace / "missing.csv") == 1

    def test_usage_error_bad_enum_cap(self, workspace):
        data = workspace / "data.csv"
        x = np.random.default_rng(0).laplace(size=(100, 3))
        np.savetxt(data, x, fmt="%.17g", delimiter=",", header="X1,X2,X3", comments="")
        assert run("fit", "--data", data, "--enum-cap", 0) == 1
        assert run("fit", "--data", data, "--mode", "enumerate-first-stable",
                   "--enum-cap", 0) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--enum-floor", 0.2), ("--eta", 0.01), ("--nonlinearity", "cube"), ("--tol", 1e-6),
        ("--max-iter", 500), ("--restarts", 3),
    ])
    def test_usage_error_removed_enum_floor(self, workspace, capsys, flag, value):
        # the scan's floor, eta and the FastICA restart count, contrast,
        # tolerance and cap are constants, so the flags that set them are refused
        data = workspace / "data.csv"
        x = np.random.default_rng(0).laplace(size=(100, 3))
        np.savetxt(data, x, fmt="%.17g", delimiter=",", header="X1,X2,X3", comments="")
        assert run("fit", "--data", data, flag, value) == 1
        assert flag in capsys.readouterr().err

    def test_usage_error_bad_config_key(self, workspace):
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run("grid", "--config", cfg, "--out", workspace / "out.csv") == 1

    @pytest.mark.parametrize("command, config", [
        ("grid", {"ica": {"bogus": 1}}),
        ("grid", {"kappas": 3}),
        ("grid", {"kappas": [2, 4]}),
        ("grid", {"lambdas": [0.4, 1.5]}),
        ("grid", {"sample_sizes": [6, 200]}),
        ("grid", {"weight_low": 0.9, "weight_high": 0.5}),
        ("grid", {"sample_sizes": [3, 200]}),
        ("sample-complexity", {"lam": 1.5}),
        ("sample-complexity", {"seeds": [0, -1]}),
        ("grid", {"ica": {"restarts": 2.5}}),
        ("grid", {"ica": {"max_iterations": 10.5}}),
        ("sample-complexity", {"ica": {"seed": -1}}),
        ("grid", {"sample_sizes": [200.5]}),
        ("grid", {"kappas": [2.5]}),
        ("grid", {"d": 6.0}),
        ("grid", {"kappa": 2}),  # a grid's cells are lists: the scalar key is unknown
        ("sample-complexity", {"scm_seed": 1.5}),
        ("sample-complexity", {"scm_seed": -1}),
        ("sample-complexity", {"window": ["a", "b"]}),
        ("grid", [1, 2]),
        ("grid", None),
        ("grid", [["d", 6], ["kappas", [2]], ["lambdas", [0.4]], ["regimes", ["stable"]],
                  ["seeds", 1], ["sample_sizes", [200]], ["ica", {"restarts": 1}]]),
        ("grid", {"seeds": True}),
        ("sample-complexity", {"seeds": True}),
        # before, this config fitted 8 times for its one row
        ("grid", {"kappas": [2, 2], "regimes": ["stable", "stable"], "seeds": [0, 0]}),
        ("grid", {"regimes": "stable"}),
        ("grid", {"taus": [0.1, 0.1]}),
        ("grid", {"taus": 0.1}),
        ("grid", {"lambda": 0.4}),
        ("grid", {"regime": "stable"}),
        ("grid", {"lambdas": [0.4, 0.4]}),
        ("grid", {"sample_sizes": 500}),
        ("sample-complexity", {"window": 200}),
        ("sample-complexity", {"window": [200, 200]}),
        ("sample-complexity", {"sample_sizes": [200, 200]}),
        ("sample-complexity", {"seeds": [1, 1]}),
        # eta and the FastICA contrast, tolerance and cap are constants, not settings
        ("grid", {"eta": 1e-3}),
        ("sample-complexity", {"eta": 1e-3}),
        ("grid", {"ica": {"nonlinearity": "logcosh"}}),
        ("grid", {"ica": {"tolerance": 1e-6}}),
        ("sample-complexity", {"ica": {"max_iterations": 500}}),
        # the base config names lam: a lambda as well is refused, not read instead
        ("sample-complexity", {"lambda": 0.5}),
        # the restart count is a constant and the ICA seed is derived: no ica key is left
        ("grid", {"ica": {"restarts": 3}}),
        ("sample-complexity", {"ica": {"restarts": 1}}),
    ])
    def test_bad_study_config_fits_and_writes_nothing(
        self, workspace, monkeypatch, command, config
    ):
        fits = []

        def counting_fit(*args, **kwargs):
            fits.append(args)
            return recover_condensation(*args, **kwargs)

        monkeypatch.setattr(harness, "recover_condensation", counting_fit)
        base = {"d": 6, "seeds": 1, "sample_sizes": [200]}
        if command == "grid":
            base.update(kappas=[2], lambdas=[0.4], regimes=["stable"])
        else:
            base.update(kappa=2, lam=0.4)
        cfg = workspace / "cfg.json"
        # a config that is not a JSON object is written as it stands
        cfg.write_text(json.dumps({**base, **config} if isinstance(config, dict) else config))
        out = workspace / "out.csv"
        assert run(command, "--config", cfg, "--out", out) == 1
        assert not out.exists() and not fits

    @pytest.mark.parametrize("graph", [
        [], {"d": 3, "edges": [5]}, {"d": 3.7, "edges": [[0, 1.5], [2.9, 0]]},
    ])
    def test_malformed_graph_json(self, workspace, capsys, graph):
        path = workspace / "graph.json"
        path.write_text(json.dumps(graph))
        assert run("lattice", "--graph", path) == 1
        assert not capsys.readouterr().out

    @pytest.mark.parametrize("corrupt", [
        "top-level list", "noise family only", "betaMin off B", "betaMin string", "betaMin bool",
    ])
    def test_malformed_scm_json(self, workspace, corrupt):
        scm_path = workspace / "scm.json"
        assert run("generate", "--d", 6, "--kappa", 2, "--lambda", 0.4,
                   "--out", scm_path) == 0
        data = json.loads(scm_path.read_text())
        bad = {
            "top-level list": [data],
            "noise family only": {**data, "noise": "laplace"},
            "betaMin off B": {**data, "betaMin": data["betaMin"] + 1e-9},
            "betaMin string": {**data, "betaMin": str(data["betaMin"])},
            "betaMin bool": {**data, "betaMin": True},
        }[corrupt]
        scm_path.write_text(json.dumps(bad))
        out = workspace / "data.csv"
        assert run("sample", "--scm", scm_path, "--n", 100, "--out", out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("rows", [2, 0])
    def test_samples_csv_that_disagrees_with_its_header(self, workspace, capsys, rows):
        # before, 2 values per row under 3 names fitted d=2 and exited 0, and a
        # header-only file warned "input contained no data", then failed on n=0
        data = workspace / "data.csv"
        x = np.random.default_rng(0).laplace(size=(100, rows))
        np.savetxt(data, x, fmt="%.17g", delimiter=",", header="X1,X2,X3", comments="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("fit", "--data", data) == 1
        assert "header" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, workspace):
        # constant column makes the covariance rank deficient
        data = workspace / "data.csv"
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.normal(size=100), np.ones(100), rng.normal(size=100)])
        header = "X1,X2,X3"
        np.savetxt(data, x, fmt="%.17g", delimiter=",", header=header, comments="")
        assert run("fit", "--data", data) == 2

    def test_raw_lin_alg_error_is_a_numerical_failure(self, workspace, monkeypatch, capsys):
        # before, LinAlgError (a ValueError subclass) met the usage-error clause first: exit 1
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        data = workspace / "data.csv"
        x = np.random.default_rng(0).laplace(size=(100, 3))
        np.savetxt(data, x, fmt="%.17g", delimiter=",", header="X1,X2,X3", comments="")
        monkeypatch.setattr("lingcond.cli.recover_condensation", fail)
        assert run("fit", "--data", data) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_json_that_does_not_parse_is_a_usage_error(self, workspace):
        path = workspace / "graph.json"
        path.write_text("{not json")
        assert run("lattice", "--graph", path) == 1


@pytest.mark.usefixtures("one_restart")
class TestExperimentCommands:
    def test_grid_with_config_and_summary(self, workspace):
        cfg_path = workspace / "grid.json"
        cfg_path.write_text(json.dumps({
            "d": 6, "kappas": [2], "lambdas": [0.4], "regimes": ["stable"],
            "sample_sizes": [500], "seeds": 2, "mode": "hungarian",
        }))
        out = workspace / "results.csv"
        summary = workspace / "summary.json"
        assert run("grid", "--config", cfg_path, "--out", out,
                   "--summary", summary) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 records
        assert json.loads(summary.read_text())["cells"]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_is_a_usage_error(self, workspace, workers, capsys):
        cfg_path = workspace / "grid.json"
        cfg_path.write_text(json.dumps({"d": 6, "kappas": [2], "sample_sizes": [500], "seeds": 1}))
        out = workspace / "results.csv"
        assert run("grid", "--config", cfg_path, "--out", out, "--workers", workers) == 1
        assert "workers must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_tau_sweep_is_a_one_cell_grid(self, workspace):
        cfg_path = workspace / "sweep.json"
        cfg_path.write_text(json.dumps({
            "d": 6, "kappas": [2], "lambdas": [0.4], "regimes": ["stable"], "taus": [0.05, 0.2],
            "sample_sizes": [500], "seeds": 1, "mode": "hungarian",
        }))
        out = workspace / "sweep.csv"
        assert run("grid", "--config", cfg_path, "--out", out) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_sweep_threshold_command_and_tau_key_refused(self, workspace, capsys):
        # the sweep is a grid with several taus: no command or scalar key stands in for it
        cfg_path, out = workspace / "sweep.json", workspace / "sweep.csv"
        cfg_path.write_text(json.dumps({"d": 6, "kappas": [2], "taus": [0.1]}))
        assert run("sweep-threshold", "--config", cfg_path, "--out", out) == 1
        assert "invalid choice" in capsys.readouterr().err
        cfg_path.write_text(json.dumps({"d": 6, "kappas": [2], "tau": 0.1}))
        assert run("grid", "--config", cfg_path, "--out", out) == 1
        assert "unknown config keys: ['tau']" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_complexity_command(self, workspace):
        cfg_path = workspace / "sc.json"
        cfg_path.write_text(json.dumps({
            "d": 6, "kappa": 2, "lambda": 0.4, "seeds": 2,
            "sample_sizes": [200, 500],
        }))
        out = workspace / "sc.csv"
        summary = workspace / "sc_summary.json"
        assert run("sample-complexity", "--config", cfg_path, "--out", out,
                   "--summary", summary) == 0
        data = json.loads(summary.read_text())
        assert data["tau"] == pytest.approx(data["betaMin"] / 2)
        assert len(data["perN"]) == 2
