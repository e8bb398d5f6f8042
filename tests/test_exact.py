"""Exact enumeration: distributions, divergences, bounds, transition matrices."""

import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from rbmlogic.exact import (
    ExactDistribution,
    convergence_bound,
    delta_bound,
    delta_exact,
    exact_joint_distribution,
    exact_visible_distribution,
    gibbs_transition_matrix,
    kl_divergence,
    l1_distance,
    propagate_distribution,
    resolve_clamp,
    tv_distance,
)
from rbmlogic import exact
from rbmlogic.merge import MergedModel
from rbmlogic.model import Rbm
from rbmlogic.sampler import multistart, replica_exchange
from rbmlogic.synthesis import builtin_model, gate
from rbmlogic.tasks import TaskSpec, success_curve

from .reference import bits_le, random_rbm, ref_delta, ref_visible_marginal


def zero_rbm(nv, nh):
    return Rbm(np.zeros((nv, nh)), np.zeros(nv), np.zeros(nh),
               tuple(f"v{i}" for i in range(nv)))


class TestExactDistribution:
    def test_zero_parameters_give_uniform_and_counting_partition(self):
        d = exact_visible_distribution(zero_rbm(2, 3))
        assert np.allclose(d.probabilities, 0.25, atol=1e-12)
        assert d.partition_function == approx(2 ** (2 + 3), rel=1e-12)
        assert d.log_partition == approx(math.log(32.0), abs=1e-12)

    def test_support_order_is_little_endian(self):
        d = exact_visible_distribution(zero_rbm(3, 1))
        for k in range(8):
            assert tuple(int(b) for b in d.support[k]) == bits_le(k, 3)

    def test_lookup_helpers(self):
        d = exact_visible_distribution(zero_rbm(2, 1))
        assert d.index_of([1, 0]) == 1
        assert d.prob_of([1, 1]) == approx(0.25, abs=1e-12)
        assert d.mass([[0, 0], [1, 1]]) == approx(0.5, abs=1e-12)
        with pytest.raises(KeyError, match="not in support"):
            d.index_of([1, 2])

    def test_marginal_sums_mass(self):
        rng = np.random.default_rng(5)
        r = random_rbm(rng, 3, 2)
        d = exact_visible_distribution(r)
        m = d.marginal(["v2", "v0"])
        assert m.names == ("v2", "v0")
        assert m.probabilities.sum() == approx(1.0, abs=1e-12)
        for k, row in enumerate(m.support):
            expected = sum(
                p
                for full, p in zip(d.support, d.probabilities)
                if full[2] == row[0] and full[0] == row[1]
            )
            assert m.probabilities[k] == approx(expected, abs=1e-12)

    def test_bit_index_inverts_bit_grid(self):
        for n in range(11):
            assert np.array_equal(exact._bit_index(exact._bit_grid(n)), np.arange(2**n))
        # Past 62 bits the indices are Python ints, exact where int64 overflows.
        wide = np.zeros((2, 70), dtype=np.uint8)
        wide[0] = 1
        wide[1, 69] = 1
        assert exact._bit_index(wide).tolist() == [2**70 - 1, 2**69]

    def test_validation(self):
        support = np.array([[0], [1]], dtype=np.uint8)
        with pytest.raises(ValueError, match="shape"):
            ExactDistribution(("a", "b"), support, np.array([0.5, 0.5]), 0.0, {})
        with pytest.raises(ValueError, match="negative"):
            ExactDistribution(("a",), support, np.array([1.5, -0.5]), 0.0, {})
        with pytest.raises(ValueError, match="sum to 1"):
            ExactDistribution(("a",), support, np.array([0.6, 0.6]), 0.0, {})

    @pytest.mark.parametrize("sharpness", [1e8, 1e12])
    def test_sharp_gates_sum_to_one_within_their_rounding(self, sharpness):
        # -F is about c/2, so exp(-F - log Z) rounds in proportion to |log Z|.
        d = exact_visible_distribution(builtin_model("xor", sharpness))
        assert d.log_partition == approx(sharpness / 2)
        assert d.probabilities.sum() == approx(1.0, abs=1e-5)
        assert d.marginal(["out"]).probabilities.sum() == approx(1.0, abs=1e-5)


class TestVisibleDistribution:
    @given(seed=st.integers(0, 10_000), nv=st.integers(1, 3), nh=st.integers(0, 3))
    def test_matches_joint_enumeration_oracle(self, seed, nv, nh):
        rng = np.random.default_rng(seed)
        r = random_rbm(rng, nv, nh)
        d = exact_visible_distribution(r)
        oracle = ref_visible_marginal(r.weights, r.visible_bias, r.hidden_bias)
        for v, p in oracle.items():
            assert d.prob_of(v) == approx(p, rel=1e-10)

    def test_clamped_matches_renormalized_restriction(self):
        rng = np.random.default_rng(6)
        r = random_rbm(rng, 3, 2)
        full = exact_visible_distribution(r)
        cond = exact_visible_distribution(r, clamp={"v0": 1})
        assert cond.names == ("v1", "v2")
        assert cond.clamped == {"v0": 1}
        keep = [
            (i, row) for i, row in enumerate(full.support) if row[0] == 1
        ]
        z = sum(full.probabilities[i] for i, _ in keep)
        for i, row in keep:
            assert cond.prob_of(list(row[1:])) == approx(
                full.probabilities[i] / z, rel=1e-10
            )

    def test_clamp_validation(self):
        r = zero_rbm(2, 1)
        with pytest.raises(KeyError, match="unknown terminal"):
            exact_visible_distribution(r, clamp={"nope": 1})
        with pytest.raises(ValueError, match="must be 0 or 1"):
            exact_visible_distribution(r, clamp={"v0": 2})

    def test_merged_model_constants_fold_into_clamp(self):
        r = zero_rbm(2, 1)
        mm = MergedModel(r, {"v0": 0, "v1": 1}, constants={"v0": 0})
        d = exact_visible_distribution(mm)
        assert d.names == ("v1",)
        assert d.clamped == {"v0": 0}
        assert resolve_clamp(mm, {"v1": 1}) == {"v0": 0, "v1": 1}
        with pytest.raises(ValueError, match="conflicts with model constant"):
            exact_visible_distribution(mm, clamp={"v0": 1})

    @pytest.mark.parametrize("constants", [{"v0": 2}, {"nope": 0}], ids=["bit_2", "unknown_name"])
    @pytest.mark.parametrize("run", [
        exact_visible_distribution,
        exact_joint_distribution,
        lambda mm: multistart(mm, n_chains=1, n_sweeps=2),
        lambda mm: replica_exchange(mm, n_sweeps=2),
        lambda mm: success_curve(mm, [TaskSpec("sat")], [1]),
    ], ids=["visible", "joint", "multistart", "replica_exchange", "success_curve"])
    def test_bad_model_constants_are_rejected(self, run, constants):
        mm = MergedModel(zero_rbm(2, 1), {"v0": 0, "v1": 1}, constants=constants)
        with pytest.raises((ValueError, KeyError), match="must be 0 or 1|unknown terminal"):
            run(mm)

    def test_size_limits(self):
        with pytest.raises(ValueError, match="free units exceed"):
            exact_visible_distribution(zero_rbm(25, 1))
        d = exact_visible_distribution(zero_rbm(2, 31))
        assert np.allclose(d.probabilities, 0.25, atol=1e-12)

    def test_wide_unit_enumerates_in_bounded_memory(self):
        # The builtin mult4 (16 visible, 256 hidden): 2^16 rows of 256
        # activations would take 128 MiB per array; passes of 2^14 rows
        # keep the whole enumeration well under that.
        model = builtin_model("mult4")
        tracemalloc.start()
        try:
            dist = exact_visible_distribution(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        top = dict(zip(dist.names, dist.support[np.argmax(dist.probabilities)]))
        a, b, p = (sum(int(top[f"{x}{j}"]) << j for j in range(n))
                   for x, n in (("A", 4), ("B", 4), ("P", 8)))
        assert a * b == p


class TestDivergences:
    def test_kl_of_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == approx(0.0, abs=1e-15)

    def test_kl_closed_form(self):
        got = kl_divergence([0.5, 0.5], [0.75, 0.25])
        assert got == approx(math.log(2) - 0.5 * math.log(3), rel=1e-12)
        assert got == approx(0.1438410362258905, rel=1e-12)

    def test_kl_requires_absolute_continuity(self):
        with pytest.raises(ValueError, match="absolutely continuous"):
            kl_divergence([0.5, 0.5], [1.0, 0.0])
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == approx(math.log(2), rel=1e-12)

    def test_kl_support_checks(self):
        d1 = exact_visible_distribution(zero_rbm(2, 1))
        d2 = exact_visible_distribution(zero_rbm(3, 1))
        with pytest.raises(ValueError, match="different supports"):
            kl_divergence(d1, d2)
        with pytest.raises(ValueError, match="different supports"):
            kl_divergence([0.5, 0.5], [0.3, 0.3, 0.4])

    def test_tv_is_half_l1(self):
        p = np.array([0.1, 0.4, 0.5])
        q = np.array([0.3, 0.3, 0.4])
        assert l1_distance(p, q) == approx(0.4, abs=1e-12)
        assert tv_distance(p, q) == approx(0.2, abs=1e-12)
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert tv_distance(p, p) == 0.0


class TestEnergyRange:
    def test_zero_model_has_zero_range(self):
        assert delta_exact(zero_rbm(2, 2)) == 0.0
        assert delta_bound(zero_rbm(2, 2)) == 0.0

    def test_hand_values(self):
        r = Rbm([[1.0]], [0.0], [0.0], ("x",))
        assert delta_exact(r) == approx(1.0, abs=1e-12)
        r2 = Rbm([[1.0]], [0.5], [-0.25], ("x",))
        assert delta_bound(r2) == approx(1.75, abs=1e-12)

    @given(seed=st.integers(0, 10_000), nv=st.integers(1, 3), nh=st.integers(1, 3))
    def test_exact_matches_oracle_and_bound_dominates(self, seed, nv, nh):
        rng = np.random.default_rng(seed)
        r = random_rbm(rng, nv, nh)
        exact = delta_exact(r)
        assert exact == approx(
            ref_delta(r.weights, r.visible_bias, r.hidden_bias), rel=1e-10
        )
        assert delta_bound(r) >= exact - 1e-12

    def test_clamping_shrinks_range_to_hidden_section(self):
        r = Rbm([[2.0]], [1.0], [-0.5], ("x",))
        # v fixed at 1: E(h=0) = -1, E(h=1) = -2.5, range 1.5.
        assert delta_exact(r, clamp={"x": 1}) == approx(1.5, abs=1e-12)

    def test_gate_energy_range(self):
        assert delta_exact(gate("and")) == approx(72.0, abs=1e-9)


class TestConvergenceBound:
    def test_frozen_value(self):
        assert convergence_bound(1.0, 1.0, 10) == approx(0.11680122048922725, rel=1e-12)

    def test_zero_sweeps_returns_half_initial_l1(self):
        assert convergence_bound(0.0, 1.2, 0) == approx(0.6, abs=1e-12)
        assert convergence_bound(5.0, 2.0, 0) == approx(1.0, abs=1e-12)

    def test_zero_delta_mixes_in_one_sweep(self):
        assert convergence_bound(0.0, 2.0, 1) == 0.0

    def test_vectorized_and_monotone(self):
        ns = np.arange(0, 20)
        out = convergence_bound(3.0, 2.0, ns)
        assert out.shape == (20,)
        assert np.all(np.diff(out) <= 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="delta"):
            convergence_bound(-1.0, 1.0, 1)
        with pytest.raises(ValueError, match="initial_l1"):
            convergence_bound(1.0, 2.5, 1)
        with pytest.raises(ValueError, match="n_sweeps"):
            convergence_bound(1.0, 1.0, -1)
        with pytest.raises(ValueError, match="n_sweeps"):
            convergence_bound(1.0, 1.0, 1.5)


class TestTransitionMatrix:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        P = gibbs_transition_matrix(random_rbm(rng, 3, 3))
        assert P.shape == (64, 64)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P >= 0)

    def test_zero_model_jumps_to_uniform(self):
        P = gibbs_transition_matrix(zero_rbm(2, 2))
        assert np.allclose(P, 1.0 / 16.0, atol=1e-12)

    @given(seed=st.integers(0, 10_000), nv=st.integers(1, 3), nh=st.integers(1, 3))
    def test_joint_distribution_is_stationary(self, seed, nv, nh):
        rng = np.random.default_rng(seed)
        r = random_rbm(rng, nv, nh)
        P = gibbs_transition_matrix(r)
        pi, _ = exact_joint_distribution(r)
        pi = pi.reshape(-1)
        assert np.max(np.abs(pi @ P - pi)) < 1e-8

    def test_second_eigenvalue_of_sharp_gate(self):
        P = gibbs_transition_matrix(gate("and"))
        mods = np.sort(np.abs(np.linalg.eigvals(P)))[::-1]
        assert mods[0] == approx(1.0, abs=1e-9)
        assert mods[1] == approx(0.9975130801795011, rel=1e-6)
        assert mods[1] < 1.0

    def test_decay_respects_convergence_bound(self):
        rng = np.random.default_rng(8)
        r = random_rbm(rng, 2, 2)
        P = gibbs_transition_matrix(r)
        pi, _ = exact_joint_distribution(r)
        pi = pi.reshape(-1)
        mu = np.zeros(16)
        mu[5] = 1.0
        delta = delta_exact(r)
        l1_0 = l1_distance(mu, pi)
        for n in range(1, 30):
            mu = mu @ P
            assert tv_distance(mu, pi) <= convergence_bound(delta, l1_0, n) + 1e-12

    def test_propagate_matches_matrix_powers(self):
        rng = np.random.default_rng(9)
        r = random_rbm(rng, 3, 2)
        P = gibbs_transition_matrix(r)
        mu0 = rng.dirichlet(np.ones(32))
        expected = mu0 @ np.linalg.matrix_power(P, 4)
        got = next(itertools.islice(propagate_distribution(r, mu0), 4, None))
        assert np.allclose(got, expected, atol=1e-12)

    def test_clamped_stationarity(self):
        rng = np.random.default_rng(10)
        r = random_rbm(rng, 3, 2)
        P = gibbs_transition_matrix(r, clamp={"v1": 1})
        pi, _ = exact_joint_distribution(r, clamp={"v1": 1})
        pi = pi.reshape(-1)
        assert P.shape == (16, 16)
        assert np.max(np.abs(pi @ P - pi)) < 1e-8

    def test_size_limit(self):
        with pytest.raises(ValueError, match="exceed limit"):
            gibbs_transition_matrix(zero_rbm(8, 8))


class TestJointDistribution:
    def test_sums_to_one_and_matches_visible_marginal(self):
        rng = np.random.default_rng(11)
        r = random_rbm(rng, 3, 2)
        grid, log_z = exact_joint_distribution(r)
        assert grid.shape == (4, 8)
        assert grid.sum() == approx(1.0, abs=1e-12)
        d = exact_visible_distribution(r)
        assert np.allclose(grid.sum(axis=0), d.probabilities, atol=1e-12)
        assert log_z == approx(d.log_partition, abs=1e-10)

    def test_joint_grids_refuse_over_the_module_limit(self):
        r = zero_rbm(11, 10)
        for call in (exact_joint_distribution, delta_exact,
                     lambda m: next(propagate_distribution(m, np.ones(2**21) / 2**21))):
            with pytest.raises(ValueError, match="11 free \\+ 10 hidden units exceed limit 20"):
                call(r)

    def test_no_public_function_takes_a_size_limit(self):
        public = [f for name, f in vars(exact).items() if inspect.isfunction(f)
                  and not name.startswith("_") and f.__module__ == exact.__name__]
        params = {p for f in public for p in inspect.signature(f).parameters}
        assert not {p for p in params if "max" in p or "limit" in p}


class TestMarginalModes:
    """Scoring many clamps in one enumeration gives each clamp's own result."""

    @staticmethod
    def case(seed):
        rng = np.random.default_rng(seed)
        rbm = random_rbm(rng, 9, 12)
        clamped = rbm.visible_names[:3]
        clamps = [dict(zip(clamped, bits_le(c, 3))) for c in range(8)]
        names = [rbm.visible_names[i] for i in (7, 4, 8)]  # a free subset, reordered
        return rbm, clamps, names

    # (PASS_ROWS, PASS_ACTIVATIONS): slices of one clamp's 64 states, one
    # clamp per pass, every clamp in one pass.
    @pytest.mark.parametrize("rows,activations", [(16, 8), (1 << 16, 300), (1 << 16, 1 << 16)])
    def test_modes_match_one_clamp_distributions(self, monkeypatch, rows, activations):
        monkeypatch.setattr(exact, "PASS_ROWS", rows)
        monkeypatch.setattr(exact, "PASS_ACTIVATIONS", activations)
        for seed in range(5):
            rbm, clamps, names = self.case(seed)
            modes = exact.exact_marginal_modes(rbm, clamps, names)
            for clamp, got in zip(clamps, modes):
                dist = exact_visible_distribution(rbm, clamp).marginal(names)
                assert np.array_equal(got, dist.support[np.argmax(dist.probabilities)])

    def test_blocks_and_rows_score_bit_for_bit_alike(self):
        rbm, clamps, _ = self.case(0)
        idx, vals, free = exact._shared_clamp(rbm, [resolve_clamp(rbm, c) for c in clamps])
        whole = exact._free_neg_energies(rbm, idx, vals, free, 1 << 16)
        for block in (8, 16, 64, 128):
            assert whole.tobytes() == exact._free_neg_energies(
                rbm, idx, vals, free, block).tobytes()
        # The batched normalisation gives each clamp's probabilities exactly.
        probs = np.exp(whole - exact.logsumexp(whole, axis=1, keepdims=True))
        for c, clamp in enumerate(clamps):
            dist = exact_visible_distribution(rbm, clamp)
            assert probs[c].tobytes() == dist.probabilities.tobytes()

    def test_wide_hidden_layer_keeps_one_clamp_scores(self, monkeypatch):
        # 20000 hidden units leave room for 2 rows per pass in the packing
        # budget, so each pass holds one clamp: all 16 states of 4 free
        # units, or, as 256 x 20000 exceeds MAX_PASS_ACTIVATIONS, 128-row
        # halves of 8 free units' 256.  Either way the scores equal
        # exact_visible_distribution's bit for bit.
        score = exact._free_neg_energies
        for n_free in (4, 8):
            rng = np.random.default_rng(3)
            rbm = random_rbm(rng, 3 + n_free, 20000, scale=0.05)
            clamped = rbm.visible_names[:3]
            clamps = [dict(zip(clamped, bits_le(c, 3))) for c in range(8)]
            names = rbm.visible_names[3:5]
            scores, rows = [], set()

            def recorded(*args):
                rows.add(args[4])
                scores.append(score(*args))
                return scores[-1]

            monkeypatch.setattr(exact, "_free_neg_energies", recorded)
            modes = exact.exact_marginal_modes(rbm, clamps, names)
            assert rows == {min(2**n_free, 128)}
            neg_f = np.concatenate(scores)
            probs = np.exp(neg_f - exact.logsumexp(neg_f, axis=1, keepdims=True))
            monkeypatch.setattr(exact, "_free_neg_energies", score)
            for c, clamp in enumerate(clamps):
                dist = exact_visible_distribution(rbm, clamp)
                assert probs[c].tobytes() == dist.probabilities.tobytes()
                marginal = dist.marginal(names)
                assert np.array_equal(modes[c], marginal.support[np.argmax(marginal.probabilities)])

    def test_clamps_must_fix_the_same_units(self):
        rbm, _, names = self.case(0)
        with pytest.raises(ValueError, match="same units"):
            exact.exact_marginal_modes(rbm, [{"v0": 1}, {"v1": 0}], names)
