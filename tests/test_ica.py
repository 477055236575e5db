import numpy as np
import pytest

from lingcond import rng as rng_mod
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
from lingcond.ica import CUBE_GAUSSIAN, LOGCOSH_GAUSSIAN, _logcosh_mean


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

    @pytest.mark.parametrize("bad", [
        {"restarts": 2.5}, {"max_iterations": 10.5}, {"seed": -1}, {"seed": 1.0},
        {"restarts": "3"}, {"restarts": True}, {"tolerance": True}, {"tolerance": "1e-6"},
    ])
    def test_non_integral_or_negative_counts_rejected(self, bad):
        with pytest.raises(ValueError):
            IcaOptions(**bad)

    def test_numpy_integers_accepted(self):
        opts = IcaOptions(restarts=np.int64(2), max_iterations=np.int32(7), seed=np.uint32(5))
        assert (opts.restarts, opts.max_iterations, opts.seed) == (2, 7, 5)
        assert {type(v) for v in (opts.restarts, opts.max_iterations, opts.seed)} == {int}


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


def _sequential_fastica(x, opts):
    """Reference: the restarts run one after another, one Python loop each.

    The update kernels are the package's (``g'`` as ``1 - mean(g^2)`` via
    einsum, the stable log cosh objective), so the comparison isolates the
    lockstep loop. With ``(1 - g**2).mean(axis=0)`` instead, a restart that
    does not contract (no convergence within 500 iterations at n=200)
    amplifies the last-bit difference to O(1).
    """
    z, _, _ = center_whiten(x)
    n, d = z.shape
    runs = []
    for restart in range(opts.restarts):
        gen = rng_mod.stream(opts.seed, rng_mod.PURPOSE_ICA, restart)
        w = np.linalg.qr(gen.standard_normal((d, d)))[0]
        converged = False
        for iterations in range(1, opts.max_iterations + 1):
            s = z @ w.T
            if opts.nonlinearity == "logcosh":
                g = np.tanh(s)
                g_prime_mean = 1.0 - np.einsum("ij,ij->j", g, g) / n
            else:
                g = s**3
                g_prime_mean = 3.0 * (s**2).mean(axis=0)
            m = (g.T @ z) / n - g_prime_mean[:, None] * w
            vals, vecs = np.linalg.eigh(m @ m.T)
            w_new = (vecs / np.sqrt(vals)) @ vecs.T @ m
            drift = 1.0 - np.min(np.abs(np.einsum("ij,ij->i", w_new, w)))
            w = w_new
            if drift < opts.tolerance:
                converged = True
                break
        s = z @ w.T
        if opts.nonlinearity == "logcosh":
            dev = _logcosh_mean(s) - LOGCOSH_GAUSSIAN
        else:
            dev = 0.25 * (s**4).mean(axis=0) - CUBE_GAUSSIAN
        runs.append((float(np.sum(dev**2)), w, iterations, converged))
    best = None
    for run in runs:
        if best is None or run[0] > best[0]:
            best = run
    return best, runs


def _scm_samples(n, seed, regime="stable"):
    return sample(generate_scm(10, 4, 0.5, regime=regime, seed=seed), n, seed=100 + seed)


def _assert_same_estimate(x, opts):
    (_, w_ref, iterations, converged), runs = _sequential_fastica(x, opts)
    est = fastica(x, opts)
    assert np.abs(est.w_white - w_ref).max() <= 1e-12
    assert (est.iterations, est.converged) == (iterations, converged)
    return runs


class TestLockstepMatchesSequential:
    @pytest.mark.parametrize("x, opts", [
        (_scm_samples(10000, 0), IcaOptions(seed=0)),
        (_scm_samples(10000, 1, "unstable"), IcaOptions(seed=1)),
        (_scm_samples(200, 2), IcaOptions(seed=2)),
        (_scm_samples(200, 3, "unstable"), IcaOptions(seed=3)),
        (_scm_samples(200, 10), IcaOptions(seed=10)),
        (_scm_samples(5000, 4), IcaOptions(nonlinearity="cube", seed=4)),
        (_scm_samples(10000, 5), IcaOptions(seed=5, max_iterations=4)),
        (_scm_samples(10000, 6), IcaOptions(seed=6, restarts=1)),
        (_scm_samples(10000, 7), IcaOptions(seed=7, restarts=5)),
    ], ids=["n1e4-stable", "n1e4-unstable", "n200-stable", "n200-unstable",
            "n200-no-convergence", "cube", "capped", "one-restart", "five-restarts"])
    def test_same_estimate(self, x, opts):
        _assert_same_estimate(x, opts)

    def test_restarts_stopping_at_different_iterations(self):
        x = _scm_samples(10000, 7)
        runs = _assert_same_estimate(x, IcaOptions(seed=7, restarts=5))
        counts = [run[2] for run in runs]
        # freezing is exercised only when restarts leave the active set at different times
        assert len(set(counts)) > 1
        # capped at the earliest stop: that restart converges, the others do not
        runs = _assert_same_estimate(x, IcaOptions(seed=7, restarts=5, max_iterations=min(counts)))
        assert {run[3] for run in runs} == {True, False}

    def test_tie_goes_to_earliest_restart(self, monkeypatch):
        x = laplace_sources(2000, 3, 11)
        # equal objectives for every restart: the first restart must win
        monkeypatch.setattr(
            "lingcond.ica._objectives", lambda s, r, nonlinearity: np.zeros(r)
        )
        est = fastica(x, IcaOptions(seed=3, restarts=4))
        first = fastica(x, IcaOptions(seed=3, restarts=1))
        assert np.array_equal(est.w_white, first.w_white)


def test_stable_logcosh_matches_logaddexp():
    u = np.linspace(-1e3, 1e3, 200001)
    u = np.concatenate([u, np.linspace(-20.0, 20.0, 40001), [0.0, 1e-300, -1e-8, 710.0]])
    expected = np.logaddexp(u, -u) - np.log(2.0)
    # with one row, the column means are the elementwise values
    got = _logcosh_mean(u[None, :].copy())
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, expected, rtol=1e-15, atol=1e-15)
