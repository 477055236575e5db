import dataclasses
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lingcond import (
    NoiseSpec,
    ScmSpec,
    SingularModelError,
    WeightedAdjacency,
    generate_scm,
    sample,
    spectral_radius,
    tarjan_scc,
)
from lingcond import rng
from lingcond.scm import (
    DEFAULT_SCALES, NOISE_FAMILIES, REGIME_TARGETS, load_samples_csv, save_samples_csv,
    save_scm_json,
)
from conftest import BAD_SAMPLE_LINES


def example_spec(example_b):
    return ScmSpec(example_b, NoiseSpec(), "stable", 0)


# %.17g writes exponents below -4 and from 17 up in exponent notation: both
# sides of each switch (and of 1e16, repr's switch), the extremes of the
# doubles, and -0.0
_CSV_EDGES = [
    sign * v
    for edge in (1e-5, 1e-4, 1e16, 1e17)
    for v in (float(np.nextafter(edge, 0.0)), edge)
    for sign in (1.0, -1.0)
] + [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
csv_entries = st.one_of(
    st.sampled_from(_CSV_EDGES),
    st.integers(-(2 ** 53), 2 ** 53).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


def savetxt_oracle(target, x) -> None:
    """np.savetxt of a samples CSV: the bytes save_samples_csv must write."""
    header = ",".join(f"X{i + 1}" for i in range(x.shape[1]))
    np.savetxt(target, x, fmt="%.17g", delimiter=",", header=header, comments="")


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
            ScmSpec(example_b, NoiseSpec(), "unstable", 0)

    def test_beta_min_is_read_off_b(self, example_b):
        spec = example_spec(example_b)
        assert "beta_min" not in {f.name for f in dataclasses.fields(ScmSpec)}
        assert spec.beta_min == example_b.beta_min() == pytest.approx(0.3)
        assert spec.to_json_dict()["betaMin"] == example_b.beta_min()

    @pytest.mark.parametrize("beta_min", [0.3 + 2e-12, 0.123, "0.3", True, None],
                             ids=["off-by-2e-12", "far-off", "string", "bool", "null"])
    def test_beta_min_checked(self, example_b, beta_min):
        # a file's betaMin must be a number within 1e-12 of the one B gives
        data = example_spec(example_b).to_json_dict()
        with pytest.raises(ValueError):
            ScmSpec.from_json_dict({**data, "betaMin": beta_min})

    @pytest.mark.parametrize("d, message", [
        (9, "d=9 does not match the 5 x 5 adjacency"),
        (4, "d=4 does not match the 5 x 5 adjacency"),
        (5.0, "d must be an integer"), ("5", "d must be an integer"),
        (True, "d must be an integer"),
    ], ids=["larger", "smaller", "float", "string", "bool"])
    def test_d_checked_against_b(self, example_b, d, message):
        # before, a 5 x 5 B under "d": 9 loaded as d = 5
        data = example_spec(example_b).to_json_dict()
        with pytest.raises(ValueError, match=message):
            ScmSpec.from_json_dict({**data, "d": d})

    def test_missing_d_rejected(self, example_b):
        # before, a file with no "d" loaded with d read off B
        data = example_spec(example_b).to_json_dict()
        del data["d"]
        with pytest.raises(ValueError, match="malformed SCM JSON"):
            ScmSpec.from_json_dict(data)

    def test_beta_min_within_tolerance_accepted(self, example_b):
        data = example_spec(example_b).to_json_dict()
        spec = ScmSpec.from_json_dict({**data, "betaMin": data["betaMin"] + 5e-13})
        assert spec.to_json_dict() == data

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
            WeightedAdjacency(np.zeros((3, 3))), NoiseSpec(), "stable", 0
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

    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    @pytest.mark.parametrize("regime", REGIME_TARGETS)
    def test_rows_solve_the_structural_equations(self, regime, family):
        # each row x satisfies (I - B) x = eps for the noise drawn from the seed
        spec = generate_scm(10, 4, 0.5, regime=regime, seed=2, noise_family=family)
        x = sample(spec, 300, seed=7)
        eps = spec.noise.draw(rng.stream(7, rng.PURPOSE_SAMPLE), (300, 10))
        assert np.allclose(x - x @ spec.b.matrix.T, eps, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    def test_mean_is_zero(self, example_b, family):
        # both noise families are centred, so E[X] = (I - B)^{-1} E[eps] = 0:
        # every column mean lies within five standard errors of zero
        spec = ScmSpec(example_b, NoiseSpec(family, DEFAULT_SCALES[family]), "stable", 0)
        x = sample(spec, 100000, seed=6)
        assert np.all(np.abs(x.mean(axis=0)) < 5 * x.std(axis=0) / np.sqrt(len(x)))

    @pytest.mark.parametrize("n", [1, 11, 200])
    def test_shape_and_dtype(self, example_b, n):
        x = sample(example_spec(example_b), n, seed=3)
        assert x.shape == (n, 5) and x.dtype == np.float64 and np.isfinite(x).all()

    @pytest.mark.parametrize("to_int", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_n_and_seed_accepted(self, example_b, to_int):
        spec = example_spec(example_b)
        assert np.array_equal(sample(spec, to_int(50), seed=to_int(3)), sample(spec, 50, seed=3))

    def test_seeds_give_different_samples(self, example_b):
        spec = example_spec(example_b)
        assert not np.array_equal(sample(spec, 50, seed=1), sample(spec, 50, seed=2))

    def test_a_model_read_from_its_json_samples_the_same_rows(self, example_b):
        # ``lingcond sample`` reads the model with ScmSpec.from_json_dict
        spec = example_spec(example_b)
        loaded = ScmSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert np.array_equal(sample(loaded, 200, seed=5), sample(spec, 200, seed=5))

    def test_solver_failure_becomes_singular_model_error(self, example_b, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(SingularModelError, match="Singular matrix"):
            sample(example_spec(example_b), 10)

    def test_n_validation(self, example_b):
        with pytest.raises(ValueError):
            sample(example_spec(example_b), 0)


    def test_non_integral_n_rejected(self, example_b):
        spec = example_spec(example_b)
        with pytest.raises(ValueError, match="integer"):
            sample(spec, 200.5)
        with pytest.raises(ValueError, match="integer"):
            sample(spec, True)  # before, a raw TypeError

    def test_non_integral_seed_rejected(self, example_b):
        spec = example_spec(example_b)
        with pytest.raises(ValueError, match="integers"):
            sample(spec, 100, seed=1.5)
        for bad in ((1.5,), (0, "1"), (0, -1), (True,)):
            with pytest.raises(ValueError, match="integers"):
                rng.stream(*bad)
            with pytest.raises(ValueError, match="integers"):
                rng.derive_seed(*bad)
        assert rng.derive_seed(np.int64(3), 1) == rng.derive_seed(3, 1)


def test_public_names_resolve_and_sample_is_the_one_sampler():
    # ``sample`` draws every sample, and ScmSpec.from_json_dict reads every SCM file
    import lingcond
    import lingcond.recover
    import lingcond.scm

    assert all(hasattr(lingcond, name) for name in lingcond.__all__)
    for name in ("soft_cluster_intervention", "hard_cluster_intervention", "load_scm_json"):
        assert not hasattr(lingcond, name) and not hasattr(lingcond.scm, name), name
    # the first-stable rule lives in the scan itself, not in a public selector
    assert not hasattr(lingcond, "first_stable_select")
    assert not hasattr(lingcond.recover, "first_stable_select")


class TestSerialization:
    def test_scm_json_round_trip(self, tmp_path, example_b):
        spec = example_spec(example_b)
        path = tmp_path / "scm.json"
        save_scm_json(path, spec)
        loaded = ScmSpec.from_json_dict(json.loads(path.read_text()))
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
        loaded = ScmSpec.from_json_dict(json.loads((tmp_path / "np.json").read_text()))
        assert type(loaded.seed) is int

    def test_samples_csv_round_trip(self, tmp_path, example_b):
        spec = example_spec(example_b)
        x = sample(spec, 50, seed=2)
        path = tmp_path / "data.csv"
        save_samples_csv(path, x)
        header = path.read_text().splitlines()[0]
        assert header == "X1,X2,X3,X4,X5"
        assert np.array_equal(load_samples_csv(path), x)  # %.17g round-trips exactly

    # passes of 1, 5 and 24 values in place of 2^16, so rows around one and two
    # passes stay few: every d writes one row per pass at 1, several at 24
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), d=st.integers(1, 12), chunk=st.sampled_from([1, 5, 24]),
           kind=st.sampled_from([str, Path]))
    def test_samples_csv_bytes_equal_savetxt(self, tmp_path, data, d, chunk, kind):
        rows = max(1, chunk // d)
        n = data.draw(st.sampled_from(sorted({1, max(1, rows - 1), rows, rows + 1, 2 * rows + 3})))
        x = data.draw(arrays(np.float64, (n, d), elements=csv_entries))
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        with mock.patch("lingcond.scm._CSV_CHUNK", chunk):
            save_samples_csv(kind(ours), x)
        savetxt_oracle(kind(oracle), x)
        assert ours.read_bytes() == oracle.read_bytes()

    def test_samples_csv_bytes_equal_savetxt_over_full_passes(self, tmp_path):
        # a fit-d10 sample: 1e4 rows of 10 columns, written in passes of 6553 rows
        x = sample(generate_scm(10, 4, 0.5, seed=1), 10_000, seed=1)
        save_samples_csv(tmp_path / "ours.csv", x)
        savetxt_oracle(tmp_path / "oracle.csv", x)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("name, x, message", [
        ("data.csv", np.array([[0.5, np.nan], [1.0, 2.0]]), "samples must be finite"),
        ("data.csv", np.array([[0.5, 1.0], [1.0, 2.0]]) > 0.7,
         "samples must hold integers or floats"),
        ("data.csv", np.arange(3.0), "2-D sample matrix"),
        ("data.csv", np.empty((0, 3)), "2-D sample matrix"),
        ("data.csv", np.empty((5, 0)), "2-D sample matrix"),
        ("data.csv.gz", np.ones((2, 2)), "plain text"),
        ("data.csv.bz2", np.ones((2, 2)), "plain text"),
        ("data.xz", np.ones((2, 2)), "plain text"),
        ("data.lzma", np.ones((2, 2)), "plain text"),
    ])
    def test_samples_csv_refuses_what_it_could_not_read_back(self, tmp_path, name, x, message):
        # before, NaN was written into a file load_samples_csv refuses, a bool
        # matrix was written as 1/0, a 1-D array raised a raw IndexError,
        # (0, 3) and (5, 0) arrays were written as a bare header and as five
        # blank lines, and a .gz name was gzipped, which the loader's header
        # scan failed to decode
        path = tmp_path / name
        with pytest.raises(ValueError, match=message):
            save_samples_csv(path, x)
        assert not path.exists()

    @pytest.mark.parametrize("text, message", [
        ("X1,X2,X3\n1,2\n3,4\n", "the header names 3 columns, the rows hold 2"),
        ("X1,X2\n", "no sample rows"),
        ("X1,X2\n\n", "no sample rows"),
        ("", "no sample rows"),
        ("X1,X2\n1,nan\n3,4\n", "sample matrix must be finite"),
        ("X1,X2\n1.5,2.5\n#3,4\n5,6 # note\n7,8\n", "'#3'"),
        ("X1,X2\n1.5,2.5\n5,6 # note\n7,8\n", "'6 # note'"),
        ("1.5,2.5\n3,4\n5,6\n7,8\n", "starts with its column names"),
    ])
    def test_samples_csv_must_match_its_header(self, tmp_path, text, message):
        # before, a 3-name header over rows of 2 values loaded as an n x 2
        # matrix, a header-only file as a 0 x 1 matrix with a UserWarning, a
        # "#" row was dropped, a "# note" cut off, and a file without a header
        # lost its first sample to it
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_samples_csv(path)

    @pytest.mark.parametrize("text, where", BAD_SAMPLE_LINES)
    def test_samples_csv_parse_error_names_the_file_line(self, tmp_path, text, where):
        # before, numpy's message counted data rows from 0 after the header and
        # the blank lines ("row 1" for the first two cases), and the ragged row
        # came with numpy's hint to pass usecols
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_samples_csv(path)
        assert str(info.value) == f"{path}, {where}"

    @pytest.mark.parametrize("text", ["X1,X2\n1,2\n\n3,4\n", "X1,X2\r\n1,2\r\n3,4\r\n"])
    def test_samples_csv_skips_blank_lines_and_reads_crlf(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        assert load_samples_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("name", ["data.csv.gz", "data.csv.bz2", "data.xz", "data.lzma"])
    def test_samples_csv_loader_refuses_compressed_names(self, tmp_path, name):
        # before, np.loadtxt tried to decompress a plain-text file of such a
        # name and raised an OSError or an LZMAError
        path = tmp_path / name
        path.write_text("X1,X2\n1,2\n")
        with pytest.raises(ValueError, match="plain text"):
            load_samples_csv(path)
