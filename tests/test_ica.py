import numpy as np
import pytest

from lingcond import harness, ica as ica_mod, rng as rng_mod
from lingcond import (
    DemixingEstimate,
    NoiseSpec,
    ScmSpec,
    WhiteningError,
    b_from_w,
    center_whiten,
    fastica,
    generate_scm,
    hungarian_admissible,
    recover_condensation,
    sample,
    support_graph,
    threshold,
)
from lingcond.ica import (
    LOGCOSH_GAUSSIAN, _MAX_ITERATIONS, _MIN_STEP, _PLAIN_ITERATIONS, _ROWS_PER_DIM, _fixed_point,
    _logcosh_mean, _objectives, _starts,
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


class TestSeed:
    """FastICA's one setting is the seed; restarts, contrast, tolerance and cap are constants."""

    def test_validation(self):
        x = laplace_sources(200, 3, 0)
        for removed in ({"restarts": 3}, {"opts": None}, {"nonlinearity": "logcosh"},
                        {"tolerance": 1e-6}, {"max_iterations": 500}):
            with pytest.raises(TypeError):
                fastica(x, **removed)

    @pytest.mark.parametrize("bad", [2.5, -1, 1.0, "3", True, -1.5, "0", None], ids=repr)
    def test_non_integral_or_negative_seed_rejected(self, bad, monkeypatch):
        # refused before any work: whitening is never reached
        monkeypatch.setattr("lingcond.ica.center_whiten", None)
        with pytest.raises(ValueError, match="seed"):
            fastica(laplace_sources(200, 3, 0), seed=bad)

    def test_numpy_integers_accepted(self):
        x = laplace_sources(2000, 3, 1)
        for seed in (np.int64(5), np.uint32(5)):
            est, ref = fastica(x, seed), fastica(x, 5)
            assert np.array_equal(est.w, ref.w) and est.iterations == ref.iterations


class TestFastica:
    def test_identity_mixing_recovery(self):
        x = laplace_sources(100000, 4, 3)
        est = fastica(x, seed=1)
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
        a = fastica(x, seed=9)
        b = fastica(x, seed=9)
        assert np.array_equal(a.w, b.w)
        assert a.iterations == b.iterations

    def test_iteration_bounds(self, monkeypatch):
        monkeypatch.setattr("lingcond.ica._MAX_ITERATIONS", 200)
        x = laplace_sources(5000, 3, 5)
        est = fastica(x, seed=0)
        assert 1 <= est.iterations <= 200

    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr("lingcond.ica._TOLERANCE", 1e-15)
        monkeypatch.setattr("lingcond.ica._MAX_ITERATIONS", 3)
        x = laplace_sources(2000, 3, 6)
        est = fastica(x, seed=0)
        assert not est.converged
        assert est.iterations == 3

    def test_whitened_rows_orthonormal(self):
        x = laplace_sources(20000, 4, 7)
        est = fastica(x, seed=2)
        assert np.allclose(est.w_white @ est.w_white.T, np.eye(4), atol=1e-10)

    def test_estimated_sources_decorrelated(self):
        scm = generate_scm(8, 3, 0.4, seed=21)
        x = sample(scm, 100000, seed=22)
        est = fastica(x, seed=4)
        s = x @ est.w.T
        corr = np.corrcoef(s, rowvar=False)
        off = corr[~np.eye(8, dtype=bool)]
        assert np.abs(off).max() < 0.05

    def test_scale_equivariant_support(self, example_b):
        spec = ScmSpec(example_b, NoiseSpec(), "stable", 0)
        x = sample(spec, 20000, seed=13)
        supports = []
        for scale in (1.0, 256.0):
            est = fastica(x * scale, seed=5)
            perm = hungarian_admissible(est.w)
            supports.append(support_graph(threshold(b_from_w(est.w, perm), 0.1)))
        assert supports[0] == supports[1]

    def test_example_support_recovery_across_seeds(self, example_b):
        spec = ScmSpec(example_b, NoiseSpec(), "stable", 0)
        true_support = example_b.support()
        hits = 0
        for seed in range(10):
            x = sample(spec, 10000, seed=seed)
            est = fastica(x, seed=seed)
            perm = hungarian_admissible(est.w)
            hits += support_graph(threshold(b_from_w(est.w, perm), 0.1)) == true_support
        assert hits >= 9


def _decorrelate(m):
    vals, vecs = np.linalg.eigh(m @ m.T)
    return (vecs / np.sqrt(vals)) @ vecs.T @ m


def _sequential_run(z, w):
    """One start iterated alone on the whitened rows ``z``: ``(w, iterations, converged)``.

    The first ``_PLAIN_ITERATIONS`` steps are plain fixed-point steps; later
    ones are stabilised steps of size ``mu``, halved (down to ``_MIN_STEP``)
    whenever the drift rises above that of the step before. The tolerance
    and cap are read from ``lingcond.ica`` at call time, so a test can patch them.
    """
    n = len(z)
    converged = False
    mu, last_drift = 1.0, np.inf
    for iterations in range(1, ica_mod._MAX_ITERATIONS + 1):
        s = z @ w.T
        g = np.tanh(s)
        g_prime_mean = 1.0 - np.einsum("ij,ij->j", g, g) / n
        beta = np.einsum("ij,ij->j", s, g) / n
        if iterations > _PLAIN_ITERATIONS:
            w_new = w - mu / (g_prime_mean - beta)[:, None] * ((g.T @ z) / n - beta[:, None] * w)
        else:
            w_new = (g.T @ z) / n - g_prime_mean[:, None] * w
        w_new = _decorrelate(w_new)
        drift = 1.0 - np.min(np.abs(np.einsum("ij,ij->i", w_new, w)))
        if iterations >= _PLAIN_ITERATIONS:
            if drift > last_drift:
                mu = max(mu / 2, _MIN_STEP)
            last_drift = drift
        w = w_new
        if drift < ica_mod._TOLERANCE:
            converged = True
            break
    return w, iterations, converged


def _sequential_fastica(x, seed):
    """Reference: the restarts run one after another, one Python loop each.

    The update kernels are the package's (``g'`` as ``1 - mean(g^2)`` via
    einsum, the stable log cosh objective), so the comparison isolates the
    lockstep loop. With ``(1 - g**2).mean(axis=0)`` instead, a restart that
    does not contract under the plain step (at n=200 some run past
    ``_PLAIN_ITERATIONS``, and a few cap at 500 without the stabilised step)
    amplifies the last-bit difference to O(1).

    From ``2 * _ROWS_PER_DIM * d`` rows on, the restarts run on every
    ``step``-th row whitened on its own, and the winner, mapped into the
    whitening of all rows and decorrelated, runs once more on all rows.
    Returns the chosen ``(objective, w, iterations, converged)`` and the
    restarts' runs.
    """
    z, k, _ = center_whiten(x)
    n, d = z.shape
    step = n // (_ROWS_PER_DIM * d)
    zs, ks = (z, k) if step < 2 else center_whiten(x[::step])[:2]
    runs = []
    for restart in range(ica_mod._RESTARTS):
        gen = rng_mod.stream(seed, rng_mod.PURPOSE_ICA, restart)
        w, iterations, converged = _sequential_run(zs, np.linalg.qr(gen.standard_normal((d, d)))[0])
        dev = _logcosh_mean(zs @ w.T) - LOGCOSH_GAUSSIAN
        runs.append((float(np.sum(dev**2)), w, iterations, converged))
    best = None
    for run in runs:
        if best is None or run[0] > best[0]:
            best = run
    if step >= 2:
        start = _decorrelate(best[1] @ ks @ np.linalg.inv(k))
        best = (best[0], *_sequential_run(z, start))
    return best, runs


def _full_rows_fastica(x, seed):
    """Reference: every restart iterated on all rows by the lockstep helper."""
    z, k, _ = center_whiten(x)
    d = z.shape[1]
    w, iterations, converged, _ = _fixed_point(z, _starts(d, seed))
    best = int(np.argmax(_objectives(z @ w.reshape(-1, d).T, len(w))))
    return DemixingEstimate(w[best] @ k, int(iterations[best]), bool(converged[best]), w[best])


def _scm_samples(n, seed, regime="stable"):
    return sample(generate_scm(10, 4, 0.5, regime=regime, seed=seed), n, seed=100 + seed)


def _assert_same_estimate(x, seed):
    (_, w_ref, iterations, converged), runs = _sequential_fastica(x, seed)
    est = fastica(x, seed)
    assert np.abs(est.w_white - w_ref).max() <= 1e-12
    assert (est.iterations, est.converged) == (iterations, converged)
    return est, runs


class TestLockstepMatchesSequential:
    # restarts: the restart count patched in; past_plain: whether the winner
    # ("winner") or some restart ("a restart") must run past the plain phase
    # into the stabilised step; cap: the iteration cap patched in, if any
    @pytest.mark.parametrize("x, seed, restarts, past_plain, cap", [
        (_scm_samples(10000, 0), 0, 3, None, None),
        (_scm_samples(10000, 1, "unstable"), 1, 3, None, None),
        (_scm_samples(200, 2), 2, 3, None, None),
        (_scm_samples(200, 3, "unstable"), 3, 3, None, None),
        (_scm_samples(200, 10), 10, 3, "winner", None),
        (_scm_samples(200, 4, "unstable"), 4, 3, "a restart", None),
        (_scm_samples(5000, 4), 4, 3, None, None),
        (_scm_samples(10000, 5), 5, 3, None, 4),
        (_scm_samples(10000, 6), 6, 1, None, None),
        (_scm_samples(10000, 7), 7, 5, None, None),
    ], ids=["n1e4-stable", "n1e4-unstable", "n200-stable", "n200-unstable",
            "n200-no-convergence", "n200-restart-past-plain", "n5000-subsample", "capped",
            "one-restart", "five-restarts"])
    def test_same_estimate(self, x, seed, restarts, past_plain, cap, monkeypatch):
        monkeypatch.setattr("lingcond.ica._RESTARTS", restarts)
        if cap is not None:
            monkeypatch.setattr("lingcond.ica._MAX_ITERATIONS", cap)
        est, runs = _assert_same_estimate(x, seed)
        assert len(runs) == restarts
        if past_plain == "winner":
            # the plain step alone does not converge within 500 iterations here
            assert est.converged and est.iterations > _PLAIN_ITERATIONS
        elif past_plain == "a restart":
            assert max(run[2] for run in runs) > _PLAIN_ITERATIONS

    def test_restarts_stopping_at_different_iterations(self, monkeypatch):
        monkeypatch.setattr("lingcond.ica._RESTARTS", 5)
        x = _scm_samples(10000, 7)
        _, runs = _assert_same_estimate(x, 7)
        counts = [run[2] for run in runs]
        # freezing is exercised only when restarts leave the active set at different times
        assert len(set(counts)) > 1
        # capped at the earliest stop: that restart converges, the others do not
        monkeypatch.setattr("lingcond.ica._MAX_ITERATIONS", min(counts))
        _, runs = _assert_same_estimate(x, 7)
        assert {run[3] for run in runs} == {True, False}

    def test_tie_goes_to_earliest_restart(self, monkeypatch):
        x = laplace_sources(2000, 3, 11)
        # equal objectives for every restart: the first restart must win
        monkeypatch.setattr("lingcond.ica._objectives", lambda s, r: np.zeros(r))
        monkeypatch.setattr("lingcond.ica._RESTARTS", 4)
        est = fastica(x, seed=3)
        monkeypatch.setattr("lingcond.ica._RESTARTS", 1)
        first = fastica(x, seed=3)
        assert np.array_equal(est.w_white, first.w_white)


# n=200 inputs of _scm_samples whose winning restart runs to the 500-iteration
# cap under the plain fixed-point step alone (found by a search over seeds 0-79)
PLAIN_STEP_CAPPED = [(1, "stable"), (10, "stable"), (11, "stable"), (34, "unstable"),
                     (47, "unstable"), (54, "stable"), (69, "stable"), (69, "unstable")]


class TestStabilisedTail:
    @pytest.mark.parametrize("seed, regime", PLAIN_STEP_CAPPED)
    def test_formerly_capped_fit_converges(self, seed, regime, monkeypatch):
        x = _scm_samples(200, seed, regime)
        with monkeypatch.context() as patch:
            patch.setattr("lingcond.ica._PLAIN_ITERATIONS", _MAX_ITERATIONS)
            plain = fastica(x, seed)
        assert (plain.iterations, plain.converged) == (_MAX_ITERATIONS, False)
        est = fastica(x, seed)
        assert est.converged and est.iterations < _MAX_ITERATIONS
        # every restart, not only the winner, reaches a fixed point within the cap
        _, iterations, converged, _ = _fixed_point(center_whiten(x)[0], _starts(10, seed))
        assert converged.all() and iterations.max() < _MAX_ITERATIONS


class TestDegenerateRestart:
    def test_one_degenerate_restart_leaves_the_others(self):
        # a grid record (kappa 5, unstable, seed 1900063, n=200) whose restart 1
        # has an update with a singular M M^T at its first step; it used to
        # fail the whole fit with WhiteningError
        cell = harness._cell_keys(10, 5, 0.5, "unstable")
        scm_seed, sample_seed, ica_seed = harness._cell_sub_seeds(1900063, cell, 200)
        x = sample(generate_scm(10, 5, 0.5, regime="unstable", seed=scm_seed), 200,
                   seed=sample_seed)
        _, _, converged, failed = _fixed_point(center_whiten(x)[0], _starts(10, ica_seed))
        assert failed.tolist() == [False, True, False]
        assert converged.tolist() == [True, False, True]
        est = fastica(x, ica_seed)
        assert est.converged and est.iterations < _MAX_ITERATIONS
        assert np.allclose(est.w_white @ est.w_white.T, np.eye(10), atol=1e-6)

    def test_every_restart_degenerate_raises(self, monkeypatch):
        # every restart's first update has no positive definite M M^T
        monkeypatch.setattr("lingcond.ica._symmetric_decorrelate",
                            lambda m: (m[:0], np.zeros(len(m), dtype=bool)))
        z = center_whiten(laplace_sources(200, 3, 14))[0]
        with pytest.raises(WhiteningError, match="degenerate"):
            _fixed_point(z, _starts(3, 0))
        with pytest.raises(WhiteningError, match="degenerate"):
            fastica(laplace_sources(200, 3, 14))


class TestSubsampleRestarts:
    @pytest.mark.parametrize("d, seed, restarts", [(3, 0, 3), (10, 1, 3), (10, 2, 2)])
    def test_below_threshold_all_rows_bit_identical(self, d, seed, restarts, monkeypatch):
        # one row short of step 2: the restarts run on all rows, as before the subsample stage
        monkeypatch.setattr("lingcond.ica._RESTARTS", restarts)
        x = laplace_sources(2 * _ROWS_PER_DIM * d - 1, d, d) @ np.triu(np.ones((d, d)))
        est, ref = fastica(x, seed), _full_rows_fastica(x, seed)
        assert np.array_equal(est.w, ref.w)
        assert np.array_equal(est.w_white, ref.w_white)
        assert (est.iterations, est.converged) == (ref.iterations, ref.converged)

    def test_rank_deficient_subsample_falls_back_to_all_rows(self):
        # the third column varies only on rows the every-fifth-row subsample skips
        x = laplace_sources(3000, 3, 12)
        x[:, 2] = 0.0
        x[1::5, 2] = np.random.default_rng(13).laplace(size=600)
        assert 3000 // (_ROWS_PER_DIM * 3) == 5
        with pytest.raises(WhiteningError):
            center_whiten(x[::5])
        est, ref = fastica(x, 4), _full_rows_fastica(x, 4)
        assert np.array_equal(est.w, ref.w)
        assert (est.iterations, est.converged) == (ref.iterations, ref.converged)

    @pytest.mark.parametrize("n", [10_000, 100_000])
    @pytest.mark.parametrize("regime", ["stable", "unstable"])
    def test_same_support_and_partition_as_all_rows(self, n, regime, monkeypatch):
        for seed in range(4):
            x = _scm_samples(n, seed, regime)
            fit = recover_condensation(x, tau=0.1, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr("lingcond.recover.fastica", _full_rows_fastica)
                ref = recover_condensation(x, tau=0.1, seed=seed)
            assert fit.support() == ref.support()
            assert fit.partition == ref.partition


def test_stable_logcosh_matches_logaddexp():
    u = np.linspace(-1e3, 1e3, 200001)
    u = np.concatenate([u, np.linspace(-20.0, 20.0, 40001), [0.0, 1e-300, -1e-8, 710.0]])
    expected = np.logaddexp(u, -u) - np.log(2.0)
    # with one row, the column means are the elementwise values
    got = _logcosh_mean(u[None, :].copy())
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, expected, rtol=1e-15, atol=1e-15)
