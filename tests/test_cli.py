import json

import numpy as np
import pytest

from lingcond import harness
from lingcond.cli import _build_parser, main
from lingcond.ica import IcaOptions
from lingcond.recover import (
    DEFAULT_ENUM_CAP, DEFAULT_ENUM_FLOOR, DEFAULT_ETA, DEFAULT_TAU, recover_condensation,
)
from lingcond.scm import (
    DEFAULT_WEIGHT_HIGH, DEFAULT_WEIGHT_LOW, NOISE_FAMILIES, REGIME_TARGETS, load_samples_csv,
    load_scm_json,
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
        ica = IcaOptions()
        assert (args.nonlinearity, args.tol, args.max_iter, args.restarts, args.seed) == (
            ica.nonlinearity, ica.tolerance, ica.max_iterations, ica.restarts, ica.seed
        )
        assert (args.enum_floor, args.enum_cap) == (DEFAULT_ENUM_FLOOR, DEFAULT_ENUM_CAP)
        assert (args.tau, args.eta) == (DEFAULT_TAU, DEFAULT_ETA)

    def test_generate_defaults_and_choices_come_from_the_library(self):
        parser = _build_parser()
        args = parser.parse_args(["generate", "--d", "6", "--kappa", "2", "--lambda", "0.4",
                                  "--out", "scm.json"])
        assert (args.weight_low, args.weight_high) == (DEFAULT_WEIGHT_LOW, DEFAULT_WEIGHT_HIGH)
        gen = parser._subparsers._group_actions[0].choices["generate"]
        choices = {action.dest: action.choices for action in gen._actions}
        assert tuple(choices["regime"]) == tuple(REGIME_TARGETS)
        assert tuple(choices["noise"]) == NOISE_FAMILIES


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
        ("sweep-threshold", {"weight_low": 0.9, "weight_high": 0.5}),
        ("sweep-threshold", {"sample_sizes": [3, 200]}),
        ("sample-complexity", {"lam": 1.5}),
        ("sample-complexity", {"seeds": [0, -1]}),
        ("grid", {"ica": {"restarts": 2.5}}),
        ("sweep-threshold", {"ica": {"max_iterations": 10.5}}),
        ("sample-complexity", {"ica": {"seed": -1}}),
        ("grid", {"sample_sizes": [200.5]}),
        ("grid", {"kappas": [2.5]}),
        ("grid", {"d": 6.0}),
        ("sweep-threshold", {"kappa": 2.5}),
        ("sample-complexity", {"scm_seed": 1.5}),
        ("sample-complexity", {"scm_seed": -1}),
    ])
    def test_bad_study_config_fits_and_writes_nothing(
        self, workspace, monkeypatch, command, config
    ):
        fits = []

        def counting_fit(*args, **kwargs):
            fits.append(args)
            return recover_condensation(*args, **kwargs)

        monkeypatch.setattr(harness, "recover_condensation", counting_fit)
        base = {"d": 6, "seeds": 1, "sample_sizes": [200], "ica": {"restarts": 1}}
        if command == "grid":
            base.update(kappas=[2], lambdas=[0.4], regimes=["stable"])
        else:
            base.update(kappa=2, lam=0.4)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({**base, **config}))
        out = workspace / "out.csv"
        assert run(command, "--config", cfg, "--out", out) == 1
        assert not out.exists() and not fits

    def test_numerical_failure_exit_code(self, workspace):
        # constant column makes the covariance rank deficient
        data = workspace / "data.csv"
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.normal(size=100), np.ones(100), rng.normal(size=100)])
        header = "X1,X2,X3"
        np.savetxt(data, x, fmt="%.17g", delimiter=",", header=header, comments="")
        assert run("fit", "--data", data) == 2


class TestExperimentCommands:
    def test_grid_with_config_and_summary(self, workspace):
        cfg_path = workspace / "grid.json"
        cfg_path.write_text(json.dumps({
            "d": 6, "kappas": [2], "lambdas": [0.4], "regimes": ["stable"],
            "sample_sizes": [500], "seeds": 2, "mode": "hungarian",
            "ica": {"restarts": 1},
        }))
        out = workspace / "results.csv"
        summary = workspace / "summary.json"
        assert run("grid", "--config", cfg_path, "--out", out,
                   "--summary", summary) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 records
        assert json.loads(summary.read_text())["cells"]

    def test_sweep_threshold_command(self, workspace):
        cfg_path = workspace / "sweep.json"
        cfg_path.write_text(json.dumps({
            "d": 6, "kappa": 2, "lambda": 0.4, "taus": [0.05, 0.2],
            "sample_sizes": [500], "seeds": 1, "mode": "hungarian",
            "ica": {"restarts": 1},
        }))
        out = workspace / "sweep.csv"
        assert run("sweep-threshold", "--config", cfg_path, "--out", out) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_sample_complexity_command(self, workspace):
        cfg_path = workspace / "sc.json"
        cfg_path.write_text(json.dumps({
            "d": 6, "kappa": 2, "lambda": 0.4, "seeds": 2,
            "sample_sizes": [200, 500], "ica": {"restarts": 1},
        }))
        out = workspace / "sc.csv"
        summary = workspace / "sc_summary.json"
        assert run("sample-complexity", "--config", cfg_path, "--out", out,
                   "--summary", summary) == 0
        data = json.loads(summary.read_text())
        assert data["tau"] == pytest.approx(data["betaMin"] / 2)
        assert len(data["perN"]) == 2
