import numpy as np
import pytest

from lingcond import (
    IcaOptions,
    NoiseSpec,
    ScmSpec,
    WhiteningError,
    b_from_w,
    center_whiten,
    fastica,
    generate_scm,
    hungarian_admissible,
    sample,
    threshold,
)


def laplace_sources(n, d, seed):
    rng = np.random.default_rng(seed)
    return rng.laplace(0.0, 2**-0.5, (n, d))


class TestCenterWhiten:
    def test_identity_covariance_input(self):
        x = laplace_sources(50000, 3, 0)
        z, k, mean = center_whiten(x)
        cov = z.T @ z / len(z)
        assert np.allclose(cov, np.eye(3), atol=1e-8)
        assert np.allclose(mean, x.mean(axis=0))

    def test_diagonal_covariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (20000, 2)) * np.array([2.0, 1.0])
        z, k, _ = center_whiten(x)
        cov_x = (x - x.mean(0)).T @ (x - x.mean(0)) / len(x)
        assert np.allclose(k @ cov_x @ k.T, np.eye(2), atol=1e-8)
        assert np.allclose(z.T @ z / len(z), np.eye(2), atol=1e-8)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            center_whiten(np.zeros((3, 3)))

    def test_non_finite_samples_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            x = laplace_sources(100, 3, 3)
            x[5, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                center_whiten(x)

    def test_rank_deficient(self):
        rng = np.random.default_rng(2)
        col = rng.normal(0, 1, (100, 1))
        x = np.hstack([col, col])  # perfectly collinear
        with pytest.raises(WhiteningError):
            center_whiten(x)


class TestIcaOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            IcaOptions(nonlinearity="relu")
        with pytest.raises(ValueError):
            IcaOptions(tolerance=0)
        with pytest.raises(ValueError):
            IcaOptions(tolerance=float("nan"))
        with pytest.raises(ValueError):
            IcaOptions(tolerance=float("inf"))
        with pytest.raises(ValueError):
            IcaOptions(max_iterations=0)
        with pytest.raises(ValueError):
            IcaOptions(restarts=0)


class TestFastica:
    def test_identity_mixing_recovery(self):
        x = laplace_sources(100000, 4, 3)
        est = fastica(x, IcaOptions(seed=1))
        w = est.w
        # greedy alignment: each row should be (up to sign/scale) a unit vector
        remaining = set(range(4))
        worst = 0.0
        for i in range(4):
            j = max(remaining, key=lambda c: abs(w[i, c]))
            remaining.discard(j)
            row = w[i] / w[i, j]
            off = np.delete(row, j)
            worst = max(worst, np.abs(off).max())
        assert worst < 0.05

    def test_deterministic(self):
        x = laplace_sources(5000, 3, 4)
        a = fastica(x, IcaOptions(seed=9))
        b = fastica(x, IcaOptions(seed=9))
        assert np.array_equal(a.w, b.w)
        assert a.iterations == b.iterations

    def test_iteration_bounds(self):
        x = laplace_sources(5000, 3, 5)
        est = fastica(x, IcaOptions(seed=0, max_iterations=200))
        assert 1 <= est.iterations <= 200

    def test_nonconvergence_reported(self):
        x = laplace_sources(2000, 3, 6)
        est = fastica(x, IcaOptions(seed=0, tolerance=1e-15, max_iterations=3))
        assert not est.converged
        assert est.iterations == 3

    def test_whitened_rows_orthonormal(self):
        x = laplace_sources(20000, 4, 7)
        est = fastica(x, IcaOptions(seed=2))
        assert np.allclose(est.w_white @ est.w_white.T, np.eye(4), atol=1e-10)

    def test_cube_nonlinearity_runs(self):
        rng = np.random.default_rng(8)
        x = rng.exponential(1.0, (20000, 3)) - 1.0
        est = fastica(x, IcaOptions(nonlinearity="cube", seed=3))
        assert est.converged

    def test_estimated_sources_decorrelated(self):
        scm = generate_scm(8, 3, 0.4, seed=21)
        x = sample(scm, 100000, seed=22)
        est = fastica(x, IcaOptions(seed=4))
        s = x @ est.w.T
        corr = np.corrcoef(s, rowvar=False)
        off = corr[~np.eye(8, dtype=bool)]
        assert np.abs(off).max() < 0.05

    def test_scale_equivariant_support(self, example_b):
        spec = ScmSpec(example_b, NoiseSpec(), "stable", example_b.beta_min(), 0)
        x = sample(spec, 20000, seed=13)
        supports = []
        for scale in (1.0, 256.0):
            est = fastica(x * scale, IcaOptions(seed=5))
            perm = hungarian_admissible(est.w)
            cand = threshold(b_from_w(est.w, perm), 0.1)
            supports.append(cand.support())
        assert supports[0] == supports[1]

    def test_example_support_recovery_across_seeds(self, example_b):
        spec = ScmSpec(example_b, NoiseSpec(), "stable", example_b.beta_min(), 0)
        true_support = example_b.support()
        hits = 0
        for seed in range(10):
            x = sample(spec, 10000, seed=seed)
            est = fastica(x, IcaOptions(seed=seed))
            perm = hungarian_admissible(est.w)
            cand = threshold(b_from_w(est.w, perm), 0.1)
            hits += cand.support() == true_support
        assert hits >= 9
