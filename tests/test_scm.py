import json

import numpy as np
import pytest

from lingcond import (
    NoiseSpec,
    ScmSpec,
    SingularModelError,
    WeightedAdjacency,
    generate_scm,
    hard_cluster_intervention,
    sample,
    soft_cluster_intervention,
    spectral_radius,
    tarjan_scc,
)
from lingcond import rng
from lingcond.scm import load_samples_csv, load_scm_json, save_samples_csv, save_scm_json


def example_spec(example_b):
    return ScmSpec(example_b, NoiseSpec(), "stable", example_b.beta_min(), 0)


class TestWeightedAdjacency:
    def test_rejects_nonzero_diagonal(self):
        m = np.zeros((3, 3))
        m[1, 1] = 0.2
        with pytest.raises(ValueError):
            WeightedAdjacency(m)

    def test_rejects_singular_model(self):
        m = np.zeros((2, 2))
        m[0, 1] = 1.0
        m[1, 0] = 1.0  # 2-cycle with unit gain: det(I - B) = 0
        with pytest.raises(SingularModelError):
            WeightedAdjacency(m)

    def test_support_convention(self, example_b):
        assert example_b.support().edges == frozenset(
            {(0, 1), (1, 2), (2, 3), (3, 1), (1, 4)}
        )

    def test_beta_min(self, example_b):
        assert example_b.beta_min() == pytest.approx(0.3)


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_two_cycle(self):
        m = np.zeros((2, 2))
        m[0, 1] = 0.5
        m[1, 0] = 0.5
        assert spectral_radius(m) == pytest.approx(0.5, rel=1e-8)

    def test_example_three_cycle(self, example_b):
        # cycle gain 2 * (-1) * (-0.3) = 0.6, so rho = 0.6 ** (1/3)
        assert spectral_radius(example_b) == pytest.approx(0.6 ** (1 / 3), rel=1e-8)


class TestGenerateScm:
    def test_scc_structure_and_radius(self):
        scm = generate_scm(10, 4, 0.5, seed=0)
        partition = tarjan_scc(scm.b.support())
        sizes = [len(c) for c in partition.clusters()]
        assert sum(1 for s in sizes if s >= 2) == 4
        assert 0.89 <= spectral_radius(scm.b) <= 0.91

    def test_unstable_radius(self):
        scm = generate_scm(10, 3, 0.3, regime="unstable", seed=5)
        assert 1.45 <= spectral_radius(scm.b) <= 1.55

    @pytest.mark.parametrize("kappa,lam", [(1, 0.2), (2, 0.5), (3, 0.8)])
    def test_nontrivial_scc_count_across_cells(self, kappa, lam):
        for seed in range(5):
            scm = generate_scm(8, kappa, lam, seed=seed)
            sizes = [len(c) for c in tarjan_scc(scm.b.support()).clusters()]
            assert sum(1 for s in sizes if s >= 2) == kappa

    @pytest.mark.parametrize("kappa", [3, 4, 5])
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("regime", ["stable", "unstable"])
    def test_main_grid_cells_scc_count(self, kappa, lam, regime):
        for seed in range(3):
            scm = generate_scm(10, kappa, lam, regime=regime, seed=seed)
            sizes = [len(c) for c in tarjan_scc(scm.b.support()).clusters()]
            assert sum(1 for s in sizes if s >= 2) == kappa
            rho = spectral_radius(scm.b)
            band = (0.85, 0.95) if regime == "stable" else (1.45, 1.55)
            assert band[0] <= rho <= band[1]

    def test_deterministic(self):
        a = generate_scm(10, 4, 0.5, seed=3)
        b = generate_scm(10, 4, 0.5, seed=3)
        assert np.array_equal(a.b.matrix, b.b.matrix)
        assert a.beta_min == b.beta_min

    def test_beta_min_matches_entries(self):
        scm = generate_scm(10, 4, 0.5, seed=9)
        nz = np.abs(scm.b.matrix[scm.b.matrix != 0])
        assert scm.beta_min == pytest.approx(nz.min(), abs=0)

    def test_infeasible_combination(self):
        with pytest.raises(ValueError):
            generate_scm(5, 3, 0.5)

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            generate_scm(10, 4, 1.5)
        with pytest.raises(ValueError, match="finite"):
            generate_scm(10, 4, "0.5")  # before, a raw TypeError

    def test_unknown_noise_family(self):
        with pytest.raises(ValueError, match="noise family"):
            generate_scm(10, 4, 0.5, noise_family="gaussian")

    @pytest.mark.parametrize("d, kappa", [(10.0, 4), (10, 2.5), (True, 4), (10, True)])
    def test_non_integral_d_or_kappa(self, d, kappa):
        with pytest.raises(ValueError, match="must be an integer"):
            generate_scm(d, kappa, 0.5)

    def test_non_integral_seed_rejected(self):
        # before, rng.stream raised a raw TypeError
        with pytest.raises(ValueError, match="integers"):
            generate_scm(10, 4, 0.5, seed=1.5)

    def test_exponential_noise_family(self):
        scm = generate_scm(6, 2, 0.4, seed=1, noise_family="exponential-centered")
        x = sample(scm, 50000, seed=2)
        assert abs(x.mean(axis=0)).max() < 0.2  # centered noise keeps X zero-mean


class TestScmSpecValidation:
    def test_regime_consistency(self, example_b):
        with pytest.raises(ValueError):
            ScmSpec(example_b, NoiseSpec(), "unstable", example_b.beta_min(), 0)

    def test_beta_min_checked(self, example_b):
        with pytest.raises(ValueError):
            ScmSpec(example_b, NoiseSpec(), "stable", 0.123, 0)

    def test_noise_family_whitelist(self):
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", 1.0)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, True, "1.0"])
    def test_noise_scale_must_be_a_finite_number(self, scale):
        # before, NaN and inf were accepted and True was read as 1.0
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec("laplace", scale)


class TestSample:
    def test_zero_b_returns_raw_noise(self):
        spec = ScmSpec(
            WeightedAdjacency(np.zeros((3, 3))), NoiseSpec(), "stable", 0.0, 0
        )
        x = sample(spec, 100, seed=4)
        from lingcond.rng import PURPOSE_SAMPLE, stream

        eps = spec.noise.draw(stream(4, PURPOSE_SAMPLE), (100, 3))
        assert np.array_equal(x, eps)

    def test_deterministic(self, example_b):
        spec = example_spec(example_b)
        assert np.array_equal(sample(spec, 500, seed=1), sample(spec, 500, seed=1))

    def test_covariance_matches_closed_form(self, example_b):
        spec = example_spec(example_b)
        x = sample(spec, 100000, seed=8)
        a = np.linalg.inv(np.eye(5) - example_b.matrix)
        expected = a @ a.T  # unit-variance noise
        observed = np.cov(x, rowvar=False, bias=True)
        mask = np.abs(expected) > 0.1
        rel = np.abs(observed[mask] - expected[mask]) / np.abs(expected[mask])
        assert rel.max() < 0.05

    def test_n_validation(self, example_b):
        with pytest.raises(ValueError):
            sample(example_spec(example_b), 0)


    def test_non_integral_n_rejected(self, example_b):
        spec = example_spec(example_b)
        with pytest.raises(ValueError, match="integer"):
            sample(spec, 200.5)
        with pytest.raises(ValueError, match="integer"):
            soft_cluster_intervention(spec, np.zeros(5), 200.5)
        with pytest.raises(ValueError, match="integer"):
            hard_cluster_intervention(spec, [0], [1.0], 200.5)
        with pytest.raises(ValueError, match="integer"):
            sample(spec, True)  # before, a raw TypeError

    def test_non_integral_seed_rejected(self, example_b):
        spec = example_spec(example_b)
        with pytest.raises(ValueError, match="integers"):
            sample(spec, 100, seed=1.5)
        with pytest.raises(ValueError, match="integers"):
            soft_cluster_intervention(spec, np.zeros(5), 100, seed=1.5)
        with pytest.raises(ValueError, match="integers"):
            hard_cluster_intervention(spec, [0], [1.0], 100, seed=np.float64(2.0))
        for bad in ((1.5,), (0, "1"), (0, -1), (True,)):
            with pytest.raises(ValueError, match="integers"):
                rng.stream(*bad)
            with pytest.raises(ValueError, match="integers"):
                rng.derive_seed(*bad)
        assert rng.derive_seed(np.int64(3), 1) == rng.derive_seed(3, 1)


class TestHardIntervention:
    def test_example_cluster(self, example_b):
        spec = example_spec(example_b)
        c = np.array([0.7, -0.4, 1.1])  # values for X2, X3, X4 (nodes 1, 2, 3)
        x = hard_cluster_intervention(spec, {1, 2, 3}, c, 100000, seed=6)
        assert np.allclose(x[:, 1:4], c)
        assert x[:, 4].mean() == pytest.approx(3 * 0.7, abs=0.02)
        assert x[:, 0].mean() == pytest.approx(0.0, abs=0.02)

    def test_all_nodes_pinned(self, example_b):
        spec = example_spec(example_b)
        c = np.arange(5.0)
        x = hard_cluster_intervention(spec, range(5), c, 10, seed=0)
        assert np.array_equal(x, np.tile(c, (10, 1)))

    def test_partial_scc_rejected(self, example_b):
        spec = example_spec(example_b)
        with pytest.raises(ValueError, match="splits the SCC"):
            hard_cluster_intervention(spec, {1}, np.array([0.0]), 10, seed=0)

    def test_non_integral_nodes_rejected(self, example_b):
        # before, int() truncated these to the nodes 0-3, a union of SCCs
        spec = example_spec(example_b)
        with pytest.raises(ValueError, match="integer"):
            hard_cluster_intervention(spec, [0.5, 1.2, 2.7, 3.1], np.zeros(4), 10, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_c_rejected(self, example_b, bad):
        # before, NaN or inf in c gave NaN samples and a RuntimeWarning
        spec = example_spec(example_b)
        with pytest.raises(ValueError, match="finite"):
            hard_cluster_intervention(spec, {0}, np.array([bad]), 10, seed=0)

    def test_union_of_sccs_accepted(self, example_b):
        spec = example_spec(example_b)
        x = hard_cluster_intervention(
            spec, {0, 1, 2, 3}, np.zeros(4), 100, seed=0
        )
        assert np.allclose(x[:, :4], 0.0)


class TestSoftIntervention:
    def test_zero_delta_reproduces_observational(self, example_b):
        spec = example_spec(example_b)
        assert np.array_equal(
            soft_cluster_intervention(spec, np.zeros(5), 200, seed=3),
            sample(spec, 200, seed=3),
        )

    def test_unit_shift_on_independent_nodes(self):
        spec = ScmSpec(
            WeightedAdjacency(np.zeros((3, 3))), NoiseSpec(), "stable", 0.0, 0
        )
        shifted = soft_cluster_intervention(spec, np.ones(3), 400, seed=5)
        baseline = sample(spec, 400, seed=5)
        assert np.allclose(shifted - baseline, 1.0)

    def test_mean_shift_matches_mixing_column(self, example_b):
        spec = example_spec(example_b)
        delta = np.zeros(5)
        delta[0] = 1.0
        x = soft_cluster_intervention(spec, delta, 100000, seed=11)
        expected = np.linalg.inv(np.eye(5) - example_b.matrix)[:, 0]
        mask = np.abs(expected) > 0.1
        rel = np.abs(x.mean(axis=0)[mask] - expected[mask]) / np.abs(expected[mask])
        assert rel.max() < 0.05

    def test_delta_validation(self, example_b):
        with pytest.raises(ValueError):
            soft_cluster_intervention(example_spec(example_b), np.zeros(3), 10)


class TestSerialization:
    def test_scm_json_round_trip(self, tmp_path, example_b):
        spec = example_spec(example_b)
        path = tmp_path / "scm.json"
        save_scm_json(path, spec)
        loaded = load_scm_json(path)
        assert np.array_equal(loaded.b.matrix, spec.b.matrix)
        assert loaded.noise == spec.noise
        assert loaded.regime == spec.regime
        data = json.loads(path.read_text())
        assert set(data) == {"d", "B", "noise", "regime", "betaMin", "seed"}

    def test_malformed_json_raises_value_error(self, example_b):
        data = example_spec(example_b).to_json_dict()
        for bad in ([data], {**data, "noise": "laplace"}, {**data, "B": None},
                    {k: v for k, v in data.items() if k != "regime"}):
            with pytest.raises(ValueError):
                ScmSpec.from_json_dict(bad)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", True), ("seed", "1"), ("scale", True), ("scale", np.nan),
    ])
    def test_non_integral_seed_or_non_finite_scale_rejected(self, example_b, field, value):
        # before, int() and float() read "seed": 1.5 as 1 and "scale": true as 1.0
        data = example_spec(example_b).to_json_dict()
        if field == "seed":
            data["seed"] = value
        else:
            data["noise"] = {**data["noise"], "scale": value}
        with pytest.raises(ValueError):
            ScmSpec.from_json_dict(data)

    def test_numpy_integer_seed_round_trips(self, tmp_path):
        # before, the np.int64 seed made save_scm_json raise a TypeError mid-file
        save_scm_json(tmp_path / "np.json", generate_scm(6, 2, 0.4, seed=np.int64(1)))
        save_scm_json(tmp_path / "int.json", generate_scm(6, 2, 0.4, seed=1))
        assert (tmp_path / "np.json").read_bytes() == (tmp_path / "int.json").read_bytes()
        assert type(load_scm_json(tmp_path / "np.json").seed) is int

    def test_samples_csv_round_trip(self, tmp_path, example_b):
        spec = example_spec(example_b)
        x = sample(spec, 50, seed=2)
        path = tmp_path / "data.csv"
        save_samples_csv(path, x)
        header = path.read_text().splitlines()[0]
        assert header == "X1,X2,X3,X4,X5"
        assert np.array_equal(load_samples_csv(path), x)  # %.17g round-trips exactly
