import dataclasses
import json
import math
import warnings
from collections import Counter
from fractions import Fraction
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
from lingcond import rng, scm
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


def _double(bits: int) -> float:
    return float(np.array(bits, np.uint64).view(np.float64))


def _bits(value: float) -> int:
    return int(np.array(value).view(np.uint64))


# tokens %.17g writes with one dot: doubles of the size samples take, 1e-4 to
# 1e4 in magnitude (plain tokens), and any finite double drawn by its bits
# (nearly all in exponent form, subnormals included)
_sample_sized = st.builds(lambda bits, sign: sign * _double(bits),
                          st.integers(_bits(1e-4), _bits(1e4) - 1), st.sampled_from([1.0, -1.0]))
_any_double = st.builds(lambda bits, sign: sign * _double(bits),
                        st.integers(1, _bits(np.finfo(np.float64).max)), st.sampled_from([1.0, -1.0]))
dotted_entries = st.one_of(_sample_sized, _sample_sized, _any_double)

# decimal tokens as a person might write them: leading zeros (up to 40, past
# the 10**27 the integer route divides by), up to 18 digits or 19 and 20
# (past its 10**18), a dot anywhere, an optional sign and exponent
_written_digits = st.builds(
    lambda zeros, digits: "0" * zeros + digits,
    st.sampled_from([0, 0, 1, 5, 26, 40]),
    st.one_of(st.text("0123456789", min_size=1, max_size=18),
              st.integers(10 ** 18 - 1, 10 ** 20 - 1).map(str),
              st.sampled_from([str(2 ** 63 - 1), str(2 ** 63), str(2 ** 64)])),
)
written_tokens = st.builds(
    lambda sign, digits, at, exponent: sign + digits[:at] + "." + digits[at:] + exponent,
    st.sampled_from(["", "-", "+"]),
    _written_digits,
    st.integers(0, 60),
    st.sampled_from(["", "", "", "e5", "E-3", "e+300", "e-330"]),
)

# bytes a corruption of a samples CSV writes
_CORRUPT_BYTES = list(b"0123456789.,eE+- \t\r\n#x_")


def numpy_loader(path) -> np.ndarray:
    """The matrix np.loadtxt reads from a samples CSV: the bits load_samples_csv must return."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)


def reader_outcome(path, x87=True):
    """load_samples_csv's matrix, as its shape and bytes, or its ValueError text.

    With ``x87`` False the reader takes numpy's loader path, as on a
    platform whose long double is not x87 extended.
    """
    with mock.patch("lingcond.scm._X87_DIVISION", x87 and scm._X87_DIVISION):
        try:
            x = load_samples_csv(path)
        except ValueError as exc:
            return str(exc)
    return x.shape, x.tobytes()


def x87_quotient(token: str) -> tuple:
    """|m| / 10**k of a dotted decimal token rounded to a 64-bit significand, ties to even.

    ``m`` is the token's digits with the dot deleted and ``k`` the number
    after the dot: the quotient the reader's x87 division rounds to, as
    ``(significand, shift)``, the quotient being ``significand / 2**shift``.
    """
    q = Fraction(int(token.lstrip("+-").replace(".", "")), 10 ** (len(token) - token.index(".") - 1))
    shift = 64 - q.numerator.bit_length() + q.denominator.bit_length()
    while q * 2 ** shift >= 2 ** 64:
        shift -= 1
    while q * 2 ** shift < 2 ** 63:
        shift += 1
    return round(q * 2 ** shift), shift


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


def nontrivial_scc_count(b):
    sizes = Counter(tarjan_scc(b.support()).labels).values()
    return sum(1 for s in sizes if s >= 2)


class TestGenerateScm:
    def test_scc_structure_and_radius(self):
        scm = generate_scm(10, 4, 0.5, seed=0)
        assert nontrivial_scc_count(scm.b) == 4
        assert 0.89 <= spectral_radius(scm.b) <= 0.91

    def test_unstable_radius(self):
        scm = generate_scm(10, 3, 0.3, regime="unstable", seed=5)
        assert 1.45 <= spectral_radius(scm.b) <= 1.55

    @pytest.mark.parametrize("kappa,lam", [(1, 0.2), (2, 0.5), (3, 0.8)])
    def test_nontrivial_scc_count_across_cells(self, kappa, lam):
        for seed in range(5):
            scm = generate_scm(8, kappa, lam, seed=seed)
            assert nontrivial_scc_count(scm.b) == kappa

    @pytest.mark.parametrize("kappa", [3, 4, 5])
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("regime", ["stable", "unstable"])
    def test_main_grid_cells_scc_count(self, kappa, lam, regime):
        for seed in range(3):
            scm = generate_scm(10, kappa, lam, regime=regime, seed=seed)
            assert nontrivial_scc_count(scm.b) == kappa
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


class TestSamplesCsvReader:
    """load_samples_csv's integer route returns np.loadtxt's bits and raises its errors."""

    # blocks of 1, 2, 7 and 64 bytes besides the default, so rows straddle block cuts
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), d=st.integers(1, 6), block=st.sampled_from([1, 2, 7, 64, scm._CSV_BLOCK]),
           entries=st.sampled_from([dotted_entries, st.one_of(dotted_entries, csv_entries)]))
    def test_bits_equal_numpy_loader(self, tmp_path, data, d, block, entries):
        x = data.draw(arrays(np.float64, (data.draw(st.integers(1, 12)), d), elements=entries))
        path = tmp_path / "data.csv"
        save_samples_csv(path, x)
        with mock.patch("lingcond.scm._CSV_BLOCK", block):
            got = load_samples_csv(path)
        assert got.shape == x.shape and got.tobytes() == numpy_loader(path).tobytes()

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), d=st.integers(1, 4), block=st.sampled_from([7, 64, scm._CSV_BLOCK]))
    def test_written_tokens_read_as_numpy_loader_reads_them(self, tmp_path, data, d, block):
        rows = data.draw(st.lists(st.lists(st.one_of(written_tokens, _sample_sized.map(
            lambda v: "%.17g" % v)), min_size=d, max_size=d), min_size=1, max_size=6))
        path = tmp_path / "data.csv"
        path.write_text("".join(",".join(row) + "\n" for row in [[f"X{i + 1}" for i in range(d)]]
                                + rows))
        with mock.patch("lingcond.scm._CSV_BLOCK", block):
            got = reader_outcome(path)
        assert got == reader_outcome(path, x87=False)
        if not isinstance(got, str):  # a value past the doubles reads as inf, which is refused
            assert got[1] == numpy_loader(path).tobytes()

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), d=st.integers(1, 4),
           edits=st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                                    st.integers(0, 1 << 16), st.sampled_from(_CORRUPT_BYTES)),
                          min_size=1, max_size=3))
    def test_corruptions_raise_what_numpy_loader_raises(self, tmp_path, data, d, edits):
        x = data.draw(arrays(np.float64, (data.draw(st.integers(1, 6)), d), elements=dotted_entries))
        path = tmp_path / "data.csv"
        save_samples_csv(path, x)
        raw = bytearray(path.read_bytes())
        for kind, at, byte in edits:
            at %= len(raw) + (kind == "insert")
            if kind == "insert":
                raw.insert(at, byte)
            elif kind == "delete":
                del raw[at]
            else:
                raw[at] = byte
        path.write_bytes(bytes(raw))
        assert reader_outcome(path) == reader_outcome(path, x87=False)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(row=st.lists(written_tokens, min_size=1, max_size=3), data=st.data())
    def test_signs_anywhere_in_a_token_read_as_numpy_loader_reads_them(self, tmp_path, row, data):
        # random edits of a file seldom put a sign inside a token, so put one there
        i = data.draw(st.integers(0, len(row) - 1))
        at = data.draw(st.integers(0, len(row[i])))
        row[i] = row[i][:at] + data.draw(st.sampled_from(["-", "+", "--", "+-"])) + row[i][at:]
        path = tmp_path / "data.csv"
        path.write_text(",".join(f"X{j + 1}" for j in range(len(row))) + "\n" + ",".join(row) + "\n")
        assert reader_outcome(path) == reader_outcome(path, x87=False)

    def test_unmatched_data_under_older_numpy_is_numpy_loaders(self, tmp_path):
        # numpy < 2's np.fromstring warns at unmatched data and returns the
        # values before it; the reader must hand the file on, and show no
        # warning where warnings are shown, as a console run shows them
        parse = np.fromstring

        def warn_and_stop_short(string, dtype, sep):
            try:
                return parse(string, dtype=dtype, sep=sep)
            except ValueError as exc:
                warnings.warn(str(exc), DeprecationWarning)
                return np.zeros(0, dtype)

        path = tmp_path / "data.csv"
        path.write_text("X1,X2\n1.5,2.5\n3.5,4x.5\n")
        with mock.patch("numpy.fromstring", warn_and_stop_short), \
                mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loader, \
                warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            got = reader_outcome(path)
        assert shown == [] and loader.call_count == 1
        assert got == reader_outcome(path, x87=False)

    @pytest.mark.parametrize("text", [
        "X1,X2\n1.5,2.5\n\n3.5,4.5\n",  # a blank line
        "X1,X2\r\n1.5,2.5\r\n3.5,4.5\r\n",  # CRLF
        "X1,X2\r1.5,2.5\n3.5,4.5\n",  # a CR in the header line
        "X1,X2\n1.5, 2.5\n3.5,4.5\n",  # a blank
        "X1,X2\n1.5,2.5\n#3.5,4.5\n",  # a "#"
        "X1,X2\n1.5\n2.5,3.5,4.5\n",  # ragged rows holding as many values as two full ones
        "X1,X2\n1,2.5.5\n",  # tokens without exactly one dot, as many dots as tokens
        "X1,X2\n1,2\n",  # tokens without a dot
        "X1,X2\n-.,1.5\n",  # a lone sign, which np.fromstring reads as 0
        "X1,X2\n.-5,1.5\n",  # a sign after the dot, which the dot-deleted digits hide
        "X1,X2\n1.5,.+5\n",
    ])
    def test_whole_file_fallbacks_are_numpy_loaders(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loader:
            got = reader_outcome(path)
        assert loader.call_count == 1 and got == reader_outcome(path, x87=False)

    @pytest.mark.skipif(not scm._X87_DIVISION, reason="np.longdouble is not x87 extended here")
    def test_rare_branches_on_a_fixed_seed(self, tmp_path):
        # 20,000 random 18-digit decimals, as another program might write them.
        # %.17g of a double lies closer to it than half an ulp, so its quotient
        # never lies on a midpoint between two doubles; about one in 2,000 of
        # these does, and rounded again to double, some would round the wrong way
        gen = np.random.default_rng(1)
        digits = gen.integers(10 ** 17, 10 ** 18, (2_000, 10)).astype(str)
        dots, signs = gen.integers(0, 19, digits.shape), gen.choice(["", "-"], digits.shape)
        tokens = [[sign + m[:at] + "." + m[at:] for sign, m, at in zip(*row)]
                  for row in zip(signs.tolist(), digits.tolist(), dots.tolist())]
        path = tmp_path / "data.csv"
        path.write_text("".join(",".join(row) + "\n"
                                for row in [[f"X{i + 1}" for i in range(10)]] + tokens))
        with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loader:
            got = load_samples_csv(path)
        assert loader.call_count == 0 and got.tobytes() == numpy_loader(path).tobytes()
        midpoints = [(r, c, token) for r, row in enumerate(tokens) for c, token in enumerate(row)
                     if x87_quotient(token)[0] & 0x7FF == 0x400]
        assert len(midpoints) == 47
        assert all(got[r, c] == float(token) for r, c, token in midpoints)
        twice_rounded = [math.copysign(float(Fraction(significand, 2 ** shift)), float(token))
                         for significand, shift, token in
                         ((*x87_quotient(token), token) for _, _, token in midpoints)]
        assert sum(_bits(wrong) != _bits(float(token))
                   for wrong, (_, _, token) in zip(twice_rounded, midpoints)) == 3
        with mock.patch("lingcond.scm._X87_DIVISION", False), \
                mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loader:
            again = load_samples_csv(path)
        assert loader.call_count == 1 and again.tobytes() == got.tobytes()
