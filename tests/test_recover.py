import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from lingcond import (
    CandidateAdjacency,
    NoAdmissiblePermutationError,
    NoiseSpec,
    ScmSpec,
    b_from_w,
    condense,
    enumerate_admissible,
    fastica,
    first_stable_select,
    generate_scm,
    hungarian_admissible,
    recover_condensation,
    sample,
    spectral_radius,
    support_graph,
    threshold,
)
import lingcond
from lingcond import recover
from conftest import best_assignment_brute


def candidate(radius):
    return CandidateAdjacency(np.zeros((2, 2)), (0, 1), radius)


def _run_python(script: str) -> str:
    """Stdout of ``script`` run in a fresh interpreter that imports this ``lingcond``."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(lingcond.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestHungarianAdmissible:
    def test_identity_matrix(self):
        assert hungarian_admissible(np.eye(3)) == (0, 1, 2)

    def test_row_swap_restores_diagonal(self):
        w = np.array([[0.0, 1.0], [1.0, -0.5]])
        assert hungarian_admissible(w) == (1, 0)

    def test_zero_column_fails(self):
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NoAdmissiblePermutationError):
            hungarian_admissible(w)

    def test_matches_brute_force_objective(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            d = int(rng.integers(2, 7))
            w = rng.normal(0, 1, (d, d))
            w[rng.random((d, d)) < 0.35] = 0.0
            brute_perm, brute_score = best_assignment_brute(w, 1e-3)
            if brute_perm is None:
                with pytest.raises(NoAdmissiblePermutationError):
                    hungarian_admissible(w)
                continue
            perm = hungarian_admissible(w)
            score = sum(math.log(abs(w[perm[i], i])) for i in range(d))
            assert score == pytest.approx(brute_score, abs=1e-9)

    def test_infeasible_exactly_when_brute_force_finds_none(self):
        # scipy's infeasibility report is the only check: no admissible
        # permutation must raise, any other input must give an admissible one
        rng = np.random.default_rng(29)
        infeasible = 0
        for _ in range(600):
            d = int(rng.integers(1, 7))
            w = rng.normal(0, 1, (d, d))
            w[rng.random((d, d)) < rng.uniform(0.2, 0.7)] = 0.0
            # at eta times the row's largest magnitude (kept), so not admissible
            top = np.abs(w).max(axis=1, keepdims=True)
            w = np.where((rng.random((d, d)) < 0.1) & (np.abs(w) < top), 1e-3 * top, w)
            ok = np.abs(w) > 1e-3 * top
            if not any(all(ok[p[i], i] for i in range(d))
                       for p in itertools.permutations(range(d))):
                infeasible += 1
                with pytest.raises(NoAdmissiblePermutationError):
                    hungarian_admissible(w)
                continue
            perm = hungarian_admissible(w)
            assert sorted(perm) == list(range(d))
            assert all(ok[perm[i], i] for i in range(d))
        assert 100 < infeasible < 500

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf):
            w = np.eye(3)
            w[0, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                hungarian_admissible(w)

    def test_assignment_is_scipys_exactly(self):
        # the port runs scipy's algorithm step for step: the same permutation,
        # ties included, and infeasible exactly when scipy says so
        optimize = pytest.importorskip("scipy.optimize")

        def reference(cost):
            try:
                return optimize.linear_sum_assignment(cost)[1].tolist()
            except ValueError:
                return None

        rng = np.random.default_rng(41)
        costs = []
        for trial in range(6000):
            d = int(rng.integers(1, 13))
            kind = trial % 4
            if kind == 0:
                cost = rng.normal(0, 1, (d, d))
            elif kind == 1:  # small integers: many tied paths
                cost = np.round(rng.uniform(0, 3, (d, d)))
            elif kind == 2:
                cost = np.round(rng.normal(0, 1, (d, d)), 1)
            else:  # all tied: scipy gives the identity
                cost = np.full((d, d), float(rng.integers(-2, 3)))
            cost[rng.random((d, d)) < rng.uniform(0, 0.7)] = np.inf
            costs.append(cost)
        for d in (50, 100):
            for cost in (rng.normal(0, 1, (d, d)), np.round(rng.uniform(0, 3, (d, d)))):
                cost[rng.random((d, d)) < 0.5] = np.inf
                costs.append(cost)
        infeasible = 0
        for cost in costs:
            want = reference(cost)
            assert recover._min_cost_assignment(cost) == want, cost
            infeasible += want is None
        assert 500 < infeasible < 3000

    def test_hungarian_admissible_is_scipys_permutation(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(43)
        for _ in range(300):
            d = int(rng.integers(1, 9))
            w = np.round(rng.normal(0, 1, (d, d)), 1)  # equal magnitudes tie the costs
            mags = np.abs(w.T)
            ok = mags > 1e-3 * mags.max(axis=0)
            cost = np.where(ok, -np.log(mags, where=ok, out=np.ones_like(mags)), np.inf)
            try:
                want = tuple(optimize.linear_sum_assignment(cost)[1].tolist())
            except ValueError:
                with pytest.raises(NoAdmissiblePermutationError, match="eta=0.001"):
                    hungarian_admissible(w)
                continue
            assert hungarian_admissible(w) == want

    def test_no_fit_imports_scipy(self):
        script = (
            "import sys\n"
            "import lingcond\n"
            "x = lingcond.sample(lingcond.generate_scm(4, 1, 0.5, seed=0), 500, seed=1)\n"
            "for mode in ('enumerate-first-stable', 'hungarian'):\n"
            "    lingcond.recover_condensation(x, mode=mode)\n"
            "    print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        )
        assert _run_python(script).split() == ["False", "False"]

    def test_hungarian_fit_runs_with_scipy_unimportable(self):
        # a None entry in sys.modules makes every import of scipy raise ImportError
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import lingcond\n"
            "x = lingcond.sample(lingcond.generate_scm(6, 2, 0.5, seed=0), 2000, seed=1)\n"
            "print(*lingcond.recover_condensation(x, mode='hungarian').candidate.permutation)\n"
        )
        x = sample(generate_scm(6, 2, 0.5, seed=0), 2000, seed=1)
        expected = recover_condensation(x, mode="hungarian").candidate.permutation
        assert _run_python(script).split() == [str(r) for r in expected]


class TestEnumerateAdmissible:
    def test_identity_only(self):
        assert enumerate_admissible(np.eye(3)) == [(0, 1, 2)]

    def test_dense_matrix_gives_all_permutations(self):
        perms = enumerate_admissible(np.ones((3, 3)))
        assert perms == sorted(itertools.permutations(range(3)))

    def test_example_count_matches_brute_scan(self, example_b):
        w = np.eye(5) - example_b.matrix
        perms = enumerate_admissible(w, 1e-3)
        brute = [
            p
            for p in itertools.permutations(range(5))
            if all(abs(w[p[i], i]) > 1e-3 * np.abs(w[p[i]]).max() for i in range(5))
        ]
        assert perms == brute

    def test_lexicographic_order(self):
        rng = np.random.default_rng(3)
        w = rng.normal(0, 1, (5, 5))
        perms = enumerate_admissible(w, 1e-6)
        assert perms == sorted(perms)

    def test_eta_validation(self):
        for eta in (0, -1e-3, 1, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                enumerate_admissible(np.eye(2), eta=eta)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            enumerate_admissible(np.eye(13))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_dfs_matches_filtered_permutations(self, d):
        rng = np.random.default_rng(d)
        infeasible = np.ones((d, d), dtype=bool)
        infeasible[:, d - 1] = False  # no row may take the last slot
        masks = [rng.random((d, d)) < p for p in (0.3, 0.6, 0.85)]
        for ok in masks + [np.ones((d, d), dtype=bool), infeasible]:
            for size in (1, 3, 64):
                assert _block_rows(ok, size) == _brute_admissible(ok)
        assert _block_rows(infeasible, 64) == []

    @pytest.mark.parametrize("size", [1, 5])
    def test_zero_slots_give_one_empty_permutation(self, size):
        blocks = list(recover._admissible_blocks(np.ones((0, 0), dtype=bool), size))
        assert [block.shape for block in blocks] == [(1, 0)]

    @given(
        st.integers(0, 7).flatmap(lambda d: arrays(bool, (d, d))),
        st.integers(1, 200),
    )
    def test_blocks_match_brute_force_on_random_masks(self, ok, size):
        assert _block_rows(ok, size) == _brute_admissible(ok)


def _brute_admissible(ok):
    """Every permutation with ``ok[p[i], i]`` at each slot, in lexicographic order."""
    d = ok.shape[0]
    return [
        p for p in itertools.permutations(range(d))
        if all(ok[p[i], i] for i in range(d))
    ]


def _block_rows(ok, size):
    """The rows of ``_admissible_blocks(ok, size)`` as tuples, checking each block's shape."""
    rows = []
    for block in recover._admissible_blocks(ok, size):
        assert block.dtype == np.intp and block.shape[1] == ok.shape[0]
        assert 1 <= len(block) <= size
        rows.extend(tuple(p) for p in block.tolist())
    return rows


class TestBFromW:
    def test_example_inversion_is_exact(self, example_b):
        w = np.eye(5) - example_b.matrix
        cand = b_from_w(w, (0, 1, 2, 3, 4))
        assert np.array_equal(cand.b, example_b.matrix)

    def test_row_scaling_cancels_exactly(self, example_b):
        w = np.eye(5) - example_b.matrix
        scales = np.array([2.0, -0.5, 4.0, 1.0, -8.0])
        cand_scaled = b_from_w(w * scales[:, None], (0, 1, 2, 3, 4))
        cand_plain = b_from_w(w, (0, 1, 2, 3, 4))
        assert np.array_equal(cand_scaled.b, cand_plain.b)

    def test_diagonal_forced_to_zero(self):
        rng = np.random.default_rng(9)
        w = rng.normal(0, 1, (4, 4))
        cand = b_from_w(w, (0, 1, 2, 3))
        assert np.all(np.diag(cand.b) == 0.0)

    def test_zero_diagonal_entry_rejected(self):
        w = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            b_from_w(w, (0, 1))

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            b_from_w(np.eye(3), (0, 0, 1))

    @pytest.mark.parametrize("perm", [(0.0, 1.7), (True, False), (0, "1")])
    def test_non_integral_permutation_rejected(self, perm):
        # before, int() read (0.0, 1.7) as the permutation (0, 1)
        with pytest.raises(ValueError, match="integer"):
            b_from_w(np.eye(2), perm)

    def test_spectral_radius_recorded(self, example_b):
        w = np.eye(5) - example_b.matrix
        cand = b_from_w(w, (0, 1, 2, 3, 4))
        assert cand.spectral_radius == pytest.approx(0.6 ** (1 / 3), rel=1e-8)

    def test_matches_one_matrix_formula_bitwise(self):
        # the batched builder gives the bytes of B = -PW / diag(PW) and of
        # spectral_radius(B) computed on the one matrix
        rng = np.random.default_rng(4)
        for d in range(1, 11):
            w = rng.normal(0, 1, (d, d))
            perm = tuple(int(p) for p in rng.permutation(d))
            pw = w[list(perm)]
            b = -pw / np.diag(pw)[:, None]
            np.fill_diagonal(b, 0.0)
            cand = b_from_w(w, perm)
            assert cand.b.tobytes() == b.tobytes() and not cand.b.flags.writeable
            assert cand.spectral_radius == spectral_radius(b)
            assert cand.permutation == perm


class TestThreshold:
    def test_basic_cut(self):
        b = np.array([[0.0, 0.05], [0.2, 0.0]])
        cand = CandidateAdjacency(b, (0, 1), 0.0)
        out = threshold(cand, 0.1)
        assert type(out) is np.ndarray and not out.flags.writeable
        assert np.array_equal(out, np.array([[0.0, 0.0], [0.2, 0.0]]))
        assert np.array_equal(cand.b, [[0.0, 0.05], [0.2, 0.0]])  # the candidate stays uncut

    def test_zero_tau_is_identity(self):
        rng = np.random.default_rng(10)
        b = rng.normal(0, 1, (3, 3))
        np.fill_diagonal(b, 0)
        cand = CandidateAdjacency(b, (0, 1, 2), 0.0)
        assert np.array_equal(threshold(cand, 0.0), b)

    def test_tie_survives(self):
        b = np.array([[0.0, 0.1], [0.0, 0.0]])
        cand = CandidateAdjacency(b, (0, 1), 0.0)
        assert threshold(cand, 0.1)[0, 1] == 0.1

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        b = rng.normal(0, 1, (4, 4))
        np.fill_diagonal(b, 0)
        cand = CandidateAdjacency(b, (0, 1, 2, 3), 0.0)
        once = threshold(cand, 0.3)
        twice = threshold(CandidateAdjacency(once, cand.permutation, 0.0), 0.3)
        assert np.array_equal(once, twice)

    def test_monotone_supports(self):
        rng = np.random.default_rng(14)
        b = rng.normal(0, 1, (5, 5))
        np.fill_diagonal(b, 0)
        cand = CandidateAdjacency(b, tuple(range(5)), 0.0)
        taus = [0.0, 0.2, 0.5, 1.0, 2.0]
        supports = [support_graph(threshold(cand, t)).edges for t in taus]
        for finer, coarser in zip(supports[1:], supports):
            assert finer <= coarser

    def test_computes_no_eigenvalues(self, monkeypatch):
        def no_eigvals(*args, **kwargs):
            raise AssertionError("threshold called eigvals")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        b = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.7], [0.9, 0.0, 0.0]])
        assert np.array_equal(threshold(CandidateAdjacency(b, (0, 1, 2), 0.0), 0.6),
                              [[0.0, 0.0, 0.0], [0.0, 0.0, 0.7], [0.9, 0.0, 0.0]])

    def test_negative_tau_rejected(self):
        cand = CandidateAdjacency(np.zeros((2, 2)), (0, 1), 0.0)
        with pytest.raises(ValueError):
            threshold(cand, -0.1)

    def test_non_finite_tau_rejected(self):
        cand = CandidateAdjacency(np.ones((2, 2)), (0, 1), 0.0)
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError):
                threshold(cand, tau)


class TestFirstStableSelect:
    def test_first_stable_wins(self):
        cands = [candidate(1.3), candidate(0.8), candidate(0.7)]
        assert first_stable_select(cands) is cands[1]

    def test_min_radius_fallback(self):
        cands = [candidate(1.5), candidate(1.2)]
        assert first_stable_select(cands) is cands[1]

    def test_fallback_tie_prefers_earlier(self):
        cands = [candidate(1.2), candidate(1.2)]
        assert first_stable_select(cands) is cands[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            first_stable_select([])

    def test_reads_nothing_past_the_first_stable_candidate(self):
        cands = [candidate(1.3), candidate(1.1), candidate(0.9)]

        def stream():
            yield from cands
            raise AssertionError("read past the first stable candidate")

        assert first_stable_select(stream()) is cands[2]

    def test_noiseless_stable_scm_recovers_true_b(self):
        for seed in range(20):
            scm = generate_scm(8, 3, 0.5, seed=seed)
            w = np.eye(8) - scm.b.matrix
            cands = [b_from_w(w, p) for p in enumerate_admissible(w, 1e-9)]
            chosen = first_stable_select(cands)
            assert np.allclose(chosen.b, scm.b.matrix, atol=1e-12)


class TestNoiselessPermutationInvariance:
    def test_condensation_constant_across_admissible(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(5, 10))
            kappa = int(rng.integers(1, min(4, d // 2) + 1))
            scm = generate_scm(
                d, kappa, float(rng.uniform(0.2, 0.7)), seed=int(rng.integers(1 << 30))
            )
            w = np.eye(d) - scm.b.matrix
            perms = enumerate_admissible(w, 1e-9)
            conds = {
                condense(support_graph(threshold(b_from_w(w, p), 0.0))) for p in perms
            }
            assert len(conds) == 1


class TestRecoverCondensation:
    def test_example_pipeline(self, example_b):
        spec = ScmSpec(example_b, NoiseSpec(), "stable", 0)
        for seed in range(3):
            x = sample(spec, 10000, seed=seed)
            res = recover_condensation(x, tau=0.1, seed=seed)
            assert res.partition.labels == (0, 1, 1, 1, 2)
            assert res.condensation.cluster_edges == frozenset({(0, 1), (1, 2)})

    def test_modes_agree_on_easy_case(self, example_b):
        spec = ScmSpec(example_b, NoiseSpec(), "stable", 0)
        x = sample(spec, 10000, seed=5)
        res_h = recover_condensation(x, mode="hungarian")
        res_e = recover_condensation(x, mode="enumerate-first-stable")
        assert res_h.partition == res_e.partition
        assert res_h.condensation == res_e.condensation

    def test_extreme_taus_trigger_failure_modes(self):
        scm = generate_scm(10, 4, 0.5, seed=2)
        x = sample(scm, 5000, seed=3)
        tiny = recover_condensation(x, tau=0.01, seed=3)
        assert tiny.partition.num_clusters == 1
        huge = recover_condensation(x, tau=1.0, seed=3)
        assert huge.partition.num_clusters == 10

    @pytest.mark.parametrize("mode", ["hungarian", "enumerate-first-stable"])
    def test_condensation_does_not_depend_on_units(self, mode):
        # W scales as 1 / c, and the rook-slot cut is relative to each row of W;
        # before, the absolute cut on |W| admitted no permutation at c = 1e3 and 1e6
        x = sample(generate_scm(10, 4, 0.5, seed=0), 10000, seed=0)
        expected = recover_condensation(x, mode=mode).condensation
        for c in (1e-6, 1e-3, 1e3, 1e6):
            assert recover_condensation(x * c, mode=mode).condensation == expected

    def test_condensation_matches_recomputation(self, example_b):
        spec = ScmSpec(example_b, NoiseSpec(), "stable", 0)
        x = sample(spec, 5000, seed=7)
        res = recover_condensation(x)
        assert res.condensation == condense(res.support())
        assert res.partition is res.condensation.partition

    @pytest.mark.parametrize("mode", ["hungarian", "enumerate-first-stable"])
    def test_result_keeps_the_selected_candidate_uncut(self, example_b, mode):
        spec = ScmSpec(example_b, NoiseSpec(), "stable", 0)
        res = recover_condensation(sample(spec, 3000, seed=9), tau=0.3, mode=mode)
        cand = res.candidate
        assert cand.spectral_radius == spectral_radius(cand.b)
        assert np.count_nonzero(cand.b) == 20  # every off-diagonal entry of a finite-sample fit
        assert type(res.b_hat) is np.ndarray and not res.b_hat.flags.writeable
        assert np.array_equal(res.b_hat, threshold(cand, 0.3))
        assert res.support() == support_graph(res.b_hat)

    def test_hungarian_fit_computes_eigenvalues_once(self, example_b, monkeypatch):
        # the selected candidate's radius only; before, the cut took its own
        spec = ScmSpec(example_b, NoiseSpec(), "stable", 0)
        x = sample(spec, 3000, seed=9)
        eigvals, calls = np.linalg.eigvals, []

        def counting_eigvals(a):
            calls.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        recover_condensation(x)
        assert calls == [(1, 5, 5)]

    def test_timings_and_json_shape(self, example_b):
        spec = ScmSpec(example_b, NoiseSpec(), "stable", 0)
        x = sample(spec, 3000, seed=9)
        res = recover_condensation(x)
        data = res.to_json_dict()
        assert set(data["timings"]) == {"ica_ms", "assign_ms", "tarjan_ms", "total_ms"}
        assert data["timings"]["total_ms"] > 0
        assert data["icaIterations"] >= 1
        assert data["partition"] == list(res.partition.labels)
        assert len(data["bHat"]) == 5

    def test_mode_validated(self, example_b):
        spec = ScmSpec(example_b, NoiseSpec(), "stable", 0)
        x = sample(spec, 2000, seed=1)
        with pytest.raises(ValueError):
            recover_condensation(x, mode="magic")

    @pytest.mark.parametrize("mode", ["hungarian", "enumerate-first-stable"])
    @pytest.mark.parametrize("knob", [
        {"tau": math.nan}, {"tau": math.inf}, {"tau": -0.1},
        {"enum_cap": 0}, {"enum_cap": -5}, {"enum_cap": 2.5},
        {"tau": "0.1"}, {"tau": True}, {"enum_cap": True},
        {"tau": -math.inf}, {"tau": None}, {"enum_cap": math.inf}, {"enum_cap": "5"},
        {"enum_cap": 2.0}, {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": "0"},
    ])
    def test_bad_knobs_rejected(self, example_b, mode, knob):
        spec = ScmSpec(example_b, NoiseSpec(), "stable", 0)
        x = sample(spec, 2000, seed=1)
        with pytest.raises(ValueError):
            recover_condensation(x, mode=mode, **knob)

    @pytest.mark.parametrize("floor", [0.1, -0.1, 1.0, math.nan, "0.1"])
    def test_scan_floor_is_not_an_argument(self, floor):
        # the scan's significance floor, the admissibility cut eta and the
        # FastICA options are constants of the pipeline, not settings: a call
        # that names any of them is refused whatever the value
        for name in ("enum_floor", "eta", "ica_opts"):
            with pytest.raises(TypeError):
                recover_condensation(np.ones((20, 3)), **{name: floor})
        # hungarian_admissible always cuts at DEFAULT_ETA, even when given its value
        for args, kwargs in (((floor,), {}), ((1e-3,), {}), ((), {"eta": 1e-3})):
            with pytest.raises(TypeError):
                hungarian_admissible(np.eye(3), *args, **kwargs)

    def test_non_finite_samples_rejected(self, example_b):
        spec = ScmSpec(example_b, NoiseSpec(), "stable", 0)
        x = sample(spec, 2000, seed=1)
        x[17, 2] = math.nan
        with pytest.raises(ValueError, match="finite"):
            recover_condensation(x)

    def test_scan_matches_first_stable_select_on_population(self, monkeypatch):
        # the lazy pruned scan and the list-based selector agree when the
        # demixing matrix has exact zeros; with its floor at 1e-9 the scan
        # admits every rook slot at eta 1e-9, as enumerate_admissible does
        monkeypatch.setattr(recover, "_SCAN_FLOOR", 1e-9)
        for seed in (1, 4):
            scm = generate_scm(8, 3, 0.5, seed=seed, regime="unstable")
            w = np.eye(8) - scm.b.matrix
            cands = [b_from_w(w, p) for p in enumerate_admissible(w, 1e-9)]
            expected = first_stable_select(cands)
            got = first_stable_select(recover._scan_candidates(w, 10**6))
            assert got.permutation == expected.permutation


def _finite_sample_w(seed, regime, n):
    scm = generate_scm(8, 3, 0.5, seed=seed, regime=regime)
    return fastica(sample(scm, n, seed=seed), seed).w


def _reference_candidates(w, floor):
    """Brute-force lexicographic enumeration of the significance-pruned rook patterns."""
    d = w.shape[0]
    mags = np.abs(w)
    ok = mags > floor * mags.max(axis=1)[:, None]
    return (
        p for p in itertools.permutations(range(d))
        if all(ok[p[i], i] for i in range(d))
    )


def _reference_scan(w, floor, cap):
    """First-stable selection, one candidate at a time, over ``_reference_candidates``."""
    perms = _reference_candidates(w, floor)
    return first_stable_select(b_from_w(w, p) for p in itertools.islice(perms, cap))


@pytest.fixture(scope="module")
def sample_ws():
    # finite-sample demixing matrices of d=8 grid models (n=200): seed 0 has
    # 1244 pruned candidates and none stable; seed 8 has its first stable
    # candidate at index 113 of 2282
    return {seed: _finite_sample_w(seed, "stable", 200) for seed in (0, 8)}


class TestFirstStableScan:
    """The block scan returns the candidate a one-by-one scan returns."""

    @pytest.mark.parametrize("seed, cap, stable", [
        (0, 1, False),        # cap = 1
        (0, 100, False),      # fallback, cap cuts the seventh block to 37
        (0, 10**6, False),    # enumeration runs out in a partial block
        (8, 113, False),      # cap stops one short of the stable candidate
        (8, 114, True),       # stable candidate is the last one examined
        (8, 5000, True),      # stable candidate mid-block
        (0, 256, False),      # the block after 1 + 2 + ... + 128 is one candidate, skipped
    ])
    def test_matches_reference(self, sample_ws, seed, cap, stable):
        w = sample_ws[seed]
        got = first_stable_select(recover._scan_candidates(w, cap))
        expected = _reference_scan(w, 0.1, cap)
        assert (expected.spectral_radius < 1.0) == stable
        assert got.permutation == expected.permutation
        assert np.array_equal(got.b, expected.b)
        assert got.spectral_radius == expected.spectral_radius

    @pytest.mark.parametrize("block", [1, 7, 50, 51, 113, 114])
    def test_stable_candidate_at_block_boundary(self, sample_ws, monkeypatch, block):
        # blocks double from 1 up to the ceiling ``_SCAN_BLOCK``, so with a
        # ceiling of 50 they start at 0, 1, 3, 7, 15, 31, 63, 113, ... and
        # index 113 opens a block; at 51 the block [63, 114) ends on it
        monkeypatch.setattr(recover, "_SCAN_BLOCK", block)
        w = sample_ws[8]
        got = first_stable_select(recover._scan_candidates(w, 5000))
        expected = _reference_scan(w, 0.1, 5000)
        assert got.permutation == expected.permutation
        assert np.array_equal(got.b, expected.b)

    @pytest.mark.parametrize("block", [1, 64])
    def test_fallback_tie_prefers_earliest(self, sample_ws, monkeypatch, block):
        # with rows 0 and 1 equal, swapping them in a permutation gives the
        # same B, so every radius is attained at least twice and the earlier
        # twin is the one with row 0 placed first
        monkeypatch.setattr(recover, "_SCAN_BLOCK", block)
        w = sample_ws[0].copy()
        w[1] = w[0]
        got = first_stable_select(recover._scan_candidates(w, 10**6))
        expected = _reference_scan(w, 0.1, 10**6)
        assert got.spectral_radius >= 1.0
        assert got.permutation == expected.permutation
        assert got.permutation.index(0) < got.permutation.index(1)
        assert np.array_equal(got.b, expected.b)

    def test_one_candidate_blocks_match_reference(self, sample_ws, monkeypatch):
        # every candidate after the first is tested against the best radius so
        # far, which moves as the scan goes
        monkeypatch.setattr(recover, "_SCAN_BLOCK", 1)
        w = sample_ws[0]
        got = first_stable_select(recover._scan_candidates(w, 10**6))
        expected = _reference_scan(w, 0.1, 10**6)
        assert got.permutation == expected.permutation
        assert np.array_equal(got.b, expected.b)
        assert got.spectral_radius == expected.spectral_radius

    def test_bound_spares_most_eigenvalue_calls(self, sample_ws, monkeypatch):
        # a bound that never fires would still pass every comparison above
        radii = recover._radii
        scored = []

        def counting_radii(b):
            scored.append(len(b))
            return radii(b)

        monkeypatch.setattr(recover, "_radii", counting_radii)
        first_stable_select(recover._scan_candidates(sample_ws[0], 10**6))
        assert sum(1 for _ in _reference_candidates(sample_ws[0], 0.1)) == 1244
        assert sum(scored) < 1244 / 2
        # the first block holds one candidate: nothing is yielded before it,
        # so the bound cannot prune it and it gets eigvals alone
        assert scored[0] == 1

    @pytest.mark.parametrize("cap", [1, 2, 3, 100, 1244, 10**6])
    def test_cap_counts_built_candidates(self, sample_ws, monkeypatch, cap):
        build = recover._build_stack
        built = []

        def counting_build(m, perms):
            built.append(len(perms))
            return build(m, perms)

        monkeypatch.setattr(recover, "_build_stack", counting_build)
        got = first_stable_select(recover._scan_candidates(sample_ws[0], cap))
        assert sum(built) == min(cap, 1244)
        assert all(type(p) is int for p in got.permutation)

    def test_wide_diagonally_dominant_matrix(self):
        # d = 70 is past any 64-bit row mask; the floor leaves only the identity
        d = 70
        w = np.eye(d) + 1e-3 * np.random.default_rng(0).normal(size=(d, d))
        got = first_stable_select(recover._scan_candidates(w, 10**6))
        assert got.permutation == tuple(range(d))
        assert got.spectral_radius < 1.0
        assert np.array_equal(got.b, b_from_w(w, range(d)).b)


@st.composite
def matrix_stacks(draw):
    """Stacks of matrices whose traces stress the bound: random, rotation
    blocks (a dominant complex pair whose powers cancel in the trace),
    strictly triangular (nilpotent) and scaled cyclic permutations (whose
    power ``d`` has trace exactly ``d rho^d``)."""
    kind = draw(st.sampled_from(["random", "rotation", "nilpotent", "cycle"]))
    d = draw(st.integers(2 if kind == "cycle" else 1, 8 if kind == "cycle" else 12))
    k = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.floats(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        b = rng.normal(size=(k, d, d))
        if draw(st.booleans()):
            b[:, range(d), range(d)] = 0.0
    elif kind == "rotation":
        b = np.zeros((k, d, d))
        for i in range(0, d - 1, 2):
            theta = rng.uniform(0, 2 * np.pi, k)
            r = rng.uniform(0.5, 1, k) if i else np.ones(k)  # the first pair dominates
            rot = np.stack([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]]).transpose(2, 0, 1)
            b[:, i:i + 2, i:i + 2] = r[:, None, None] * rot
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        b = q @ b @ q.T
    elif kind == "nilpotent":
        b = np.triu(rng.normal(size=(k, d, d)), 1)
        order = rng.permutation(d)
        b = b[:, order][:, :, order]
    else:
        b = np.tile(np.roll(np.eye(d), 1, axis=0), (k, 1, 1))
        b *= rng.choice([-1.0, 1.0], size=(k, 1, 1)) * rng.uniform(1, 10, (k, 1, 1))
    return kind, b * scale


class TestCertifiedAbove:
    """The trace bound never claims rho(B) > thr for thr >= the eigvals radius."""

    @given(matrix_stacks())
    def test_never_certifies_at_or_above_the_radius(self, case):
        kind, b = case
        radii = np.max(np.abs(np.linalg.eigvals(b)), axis=1)
        for i in range(len(b)):
            assert not recover._certified_above(b[i:i + 1], radii[i])[0]
        assert not recover._certified_above(b, radii.max()).any()
        if kind == "cycle":
            # the exact radius too; and half of it is shown to be exceeded
            exact = np.abs(b[:, 1, 0])
            for i in range(len(b)):
                assert not recover._certified_above(b[i:i + 1], exact[i])[0]
                assert recover._certified_above(b[i:i + 1], exact[i] / 2)[0]

    def test_non_finite_is_not_certified(self):
        b = np.full((2, 3, 3), 1e200)
        b[1, 0, 1] = np.nan
        assert not recover._certified_above(b, 1.0).any()
        assert not recover._certified_above(np.ones((1, 3, 3)), np.inf).any()
