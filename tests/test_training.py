"""Contrastive-divergence training: datasets, updates, schedule, evaluation."""

import hashlib
import itertools
import re

import numpy as np
import pytest
from pytest import approx
from scipy.special import expit

from rbmlogic.exact import exact_joint_distribution, exact_visible_distribution
from rbmlogic.model import Rbm
from rbmlogic.synthesis import Unit, builtin_model, parse_unit
from rbmlogic import exact, training
from rbmlogic.training import (
    EXACT_LEARNING_RATE,
    KNOWN_HIDDEN,
    TrainConfig,
    cd_step,
    evaluate_accuracy,
    exact_refine,
    generate_dataset,
    reconstruction_error,
    train,
)

from .reference import random_rbm, ref_cd_update


def decode_bits(row, lo, width):
    return sum(int(row[lo + j]) << j for j in range(width))


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.k_initial == 2 and cfg.k_max == 10
        assert cfg.learning_rate == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(k_initial=0)
        with pytest.raises(ValueError):
            TrainConfig(k_initial=5, k_max=4)
        with pytest.raises(ValueError):
            TrainConfig(epochs_per_stage=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1e-4)
        with pytest.raises(ValueError):
            TrainConfig(init_scale=-1.0)
        # Zero learning rate is allowed: it must yield an exact no-op.
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    @pytest.mark.parametrize("field, value", [
        ("k_initial", "2"), ("epochs_per_stage", 2.5), ("seed", True),
        ("dataset_cap", 4.0), ("learning_rate", True), ("init_scale", "0.1"),
        ("weight_decay", float("nan")), ("seed", -1), ("dataset_cap", 0), ("eval_chains", 0),
    ])
    def test_counts_are_integers_and_rates_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_numpy_scalars_and_integer_rates_are_accepted(self):
        cfg = TrainConfig(learning_rate=1, seed=np.int64(3), weight_decay=np.float64(0))
        assert cfg.learning_rate == 1 and cfg.seed == 3


class TestTaskParsing:
    def test_parse_unit(self):
        assert parse_unit("adder4") == ("adder", 4)
        assert parse_unit("mult2") == ("multiplier", 2)
        assert parse_unit(("mult", 2)) == ("multiplier", 2)
        assert parse_unit(("multiplier", 8)) == ("multiplier", 8)
        assert parse_unit(" Mult2 ") == ("multiplier", 2)
        assert parse_unit("FA4") == ("adder", 4)
        with pytest.raises(ValueError):
            parse_unit("foo3")
        with pytest.raises(ValueError):
            parse_unit("adder0")
        with pytest.raises(TypeError):
            parse_unit(7)

    @pytest.mark.parametrize("spec", [("adder", 2.5), ("mult", True), ("adder", 1.9),
                                      ("fa", "2"), ("multiplier", 4.0)])
    def test_parse_unit_refuses_widths_that_are_not_integers(self, spec):
        with pytest.raises(ValueError, match=f"unit width must be an integer >= 1, "
                                             f"got {spec[1]!r}"):
            parse_unit(spec)
        with pytest.raises(ValueError, match="unit width must be an integer"):
            generate_dataset(spec)

    def test_numpy_integer_widths_are_accepted(self):
        assert parse_unit(("adder", np.int64(3))) == ("adder", 3)

    def test_unit_terminals(self):
        unit = parse_unit("adder2")
        assert unit == Unit("adder", 2)
        assert unit.terminals == ("A0", "A1", "B0", "B1", "Cin", "S0", "S1", "Cout")
        assert parse_unit("mult1").terminals == ("A", "B", "P0", "P1")

    def test_unit_size(self):
        assert parse_unit("adder2").size == 32
        assert parse_unit("mult4").size == 256
        assert parse_unit("adder16").size == 2**33


class TestDataset:
    def test_adder1_rows_are_the_one_bit_adder_table(self):
        rows, names = generate_dataset("adder1")
        assert names == ("A", "B", "Cin", "S", "Cout")
        assert set(map(tuple, rows.tolist())) == set(parse_unit(("adder", 1)).table().rows)

    def test_mult2_rows_verify_arithmetic(self):
        rows, names = generate_dataset("mult2")
        assert rows.shape == (16, 8)
        for row in rows:
            a = decode_bits(row, 0, 2)
            b = decode_bits(row, 2, 2)
            p = decode_bits(row, 4, 4)
            assert a * b == p

    def test_huge_space_requires_cap(self):
        with pytest.raises(ValueError, match="pass cap="):
            generate_dataset("adder16")
        rows, names = generate_dataset("adder16", cap=100, rng=np.random.default_rng(0))
        assert rows.shape == (100, 50)
        assert len(names) == 50
        for row in rows:
            a = decode_bits(row, 0, 16)
            b = decode_bits(row, 16, 16)
            cin = int(row[32])
            s = decode_bits(row, 33, 16)
            cout = int(row[49])
            assert a + b + cin == s + (cout << 16)

    def test_sampled_rows_are_pinned(self):
        # Each sampled row draws A, then B, then (adders) Cin; reordering
        # the draws would change every `train --cap` dataset.
        for task, cap, digest in [
            ("adder16", 100, "04ee1a379725d615adf8b7446d0e215952a21b571d5798606c874926d7a9356a"),
            ("mult8", 64, "adf7b56ed2f2908938e1649c43a97667a870dd8c9222a02911d9930d48afb900"),
        ]:
            rows, _ = generate_dataset(task, cap=cap, rng=np.random.default_rng(0))
            assert hashlib.sha256(rows.tobytes()).hexdigest() == digest

    def test_cap_validation(self):
        with pytest.raises(ValueError, match="cap"):
            generate_dataset("adder1", cap=0)
        for cap in (2.5, True):
            with pytest.raises(ValueError, match=re.escape(f"cap must be an integer >= 1, "
                                                           f"got {cap!r}")):
                generate_dataset("adder1", cap=cap)
        rows, _ = generate_dataset("adder1", cap=np.int64(3), rng=np.random.default_rng(0))
        assert rows.shape == (3, 5)


class TestCdStep:
    def test_zero_learning_rate_is_exact_noop(self):
        rng = np.random.default_rng(0)
        rbm = Rbm(rng.normal(size=(3, 2)), rng.normal(size=3), rng.normal(size=2),
                  ("a", "b", "c"))
        batch = (rng.random((8, 3)) < 0.5).astype(float)
        out = cd_step(rbm, batch, TrainConfig(learning_rate=0.0), np.random.default_rng(1))
        assert np.array_equal(out.weights, rbm.weights)
        assert np.array_equal(out.visible_bias, rbm.visible_bias)
        assert np.array_equal(out.hidden_bias, rbm.hidden_bias)

    def test_batch_shape_and_k_validation(self):
        rbm = Rbm(np.zeros((2, 1)), np.zeros(2), np.zeros(1), ("a", "b"))
        cfg = TrainConfig()
        with pytest.raises(ValueError, match="batch shape"):
            cd_step(rbm, np.zeros((4, 3)), cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="batch shape"):
            cd_step(rbm, np.zeros(2), cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="k must be"):
            cd_step(rbm, np.zeros((1, 2)), cfg, np.random.default_rng(0), k=0)
        for k in (2.5, True):
            with pytest.raises(ValueError, match=re.escape(f"k must be an integer >= 1, "
                                                           f"got {k!r}")):
                cd_step(rbm, np.zeros((1, 2)), cfg, np.random.default_rng(0), k=k)
        steps = [cd_step(rbm, np.ones((1, 2)), cfg, np.random.default_rng(0), k=k)
                 for k in (np.int64(2), 2)]
        assert steps[0].weights.tobytes() == steps[1].weights.tobytes()

    def test_weight_decay_subtracts_scaled_weights_exactly(self):
        rng = np.random.default_rng(2)
        rbm = Rbm(rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=3),
                  tuple("abcd"))
        batch = (rng.random((16, 4)) < 0.5).astype(float)
        lr, wd = 0.7, 0.05
        plain = cd_step(rbm, batch, TrainConfig(learning_rate=lr, weight_decay=0.0),
                        np.random.default_rng(9))
        decayed = cd_step(rbm, batch, TrainConfig(learning_rate=lr, weight_decay=wd),
                          np.random.default_rng(9))
        assert np.allclose(decayed.weights, plain.weights - lr * wd * rbm.weights,
                           atol=1e-12)
        # Biases are not decayed.
        assert np.array_equal(decayed.visible_bias, plain.visible_bias)
        assert np.array_equal(decayed.hidden_bias, plain.hidden_bias)

    def test_weight_decay_shrinks_weight_norm_over_many_steps(self):
        rng = np.random.default_rng(3)
        init = Rbm(rng.normal(size=(5, 4)), np.zeros(5), np.zeros(4),
                   tuple(f"v{i}" for i in range(5)))
        batch = (rng.random((32, 5)) < 0.5).astype(float)
        runs = {}
        for wd in (0.0, 0.05):
            rbm = init
            cfg = TrainConfig(learning_rate=0.2, weight_decay=wd)
            for step in range(200):
                rbm = cd_step(rbm, batch, cfg, np.random.default_rng(step))
            runs[wd] = float(np.linalg.norm(rbm.weights))
        assert runs[0.05] < runs[0.0]

    def test_many_step_gradient_matches_exact_likelihood_gradient(self):
        """Averaged CD-50 weight updates agree in sign with the exact gradient."""
        cfg = TrainConfig(learning_rate=1.0, weight_decay=0.0)
        agree = total = 0
        for case in range(20):
            rng = np.random.default_rng(100 + case)
            nv, nh = int(rng.integers(2, 4)), int(rng.integers(1, 3))
            rbm = Rbm(
                rng.normal(0, 1.0, (nv, nh)),
                rng.normal(0, 0.5, nv),
                rng.normal(0, 0.5, nh),
                tuple(f"v{i}" for i in range(nv)),
            )
            batch = (rng.random((16, nv)) < 0.5).astype(float)
            grad = self._exact_weight_gradient(rbm, batch)
            acc = np.zeros_like(rbm.weights)
            reps = 300
            for rep in range(reps):
                out = cd_step(rbm, batch, cfg, np.random.default_rng(1000 * case + rep),
                              k=50)
                acc += out.weights - rbm.weights
            estimate = acc / reps
            strong = np.abs(grad) > 0.05
            agree += int(np.sum(np.sign(estimate[strong]) == np.sign(grad[strong])))
            total += int(strong.sum())
        assert total > 30
        assert agree == total

    @staticmethod
    def _exact_weight_gradient(rbm, batch):
        """d log-likelihood / dW: data expectation minus model expectation."""
        ph0 = expit(batch @ rbm.weights + rbm.hidden_bias)
        data_term = batch.T @ ph0 / len(batch)
        grid, _ = exact_joint_distribution(rbm)
        nv, nh = rbm.n_visible, rbm.n_hidden
        V = ((np.arange(2**nv)[:, None] >> np.arange(nv)) & 1).astype(float)
        H = ((np.arange(2**nh)[:, None] >> np.arange(nh)) & 1).astype(float)
        model_term = np.zeros((nv, nh))
        for hi in range(2**nh):
            for vi in range(2**nv):
                model_term += grid[hi, vi] * np.outer(V[vi], H[hi])
        return data_term - model_term

    # SHA-256 of the returned parameters' bytes plus the generator state
    # after the step: the step draws n_hidden uniforms per row for the
    # initial hidden sample, then n_visible and n_hidden per row for each
    # of the k - 1 intermediate steps.
    CD_STEP_DIGESTS = {
        1: "7f242566a8889d08d7d72647d422e9d4fb927974b98f6f12dcc3de54bfc81c78",
        2: "8d926aad6fd58b90690c7e3c712991d57773477f5f216128adb5163f6bd4f04b",
        5: "f18fafa78e95bb680e53bb0b695da064ee15f965790cce185aa222c2fb601b60",
    }

    @pytest.mark.parametrize("k", sorted(CD_STEP_DIGESTS))
    def test_step_and_stream_are_pinned(self, k):
        rng = np.random.default_rng(5)
        rbm = Rbm(rng.normal(0, 0.5, (6, 5)), rng.normal(0, 0.5, 6),
                  rng.normal(0, 0.5, 5), tuple("abcdef"))
        batch = (rng.random((7, 6)) < 0.5).astype(float)
        gen = np.random.default_rng(11)
        out = cd_step(rbm, batch, TrainConfig(learning_rate=0.3, weight_decay=1e-3),
                      gen, k=k)
        digest = hashlib.sha256()
        for p in (out.weights, out.visible_bias, out.hidden_bias):
            digest.update(p.tobytes())
        digest.update(repr(gen.bit_generator.state).encode())
        assert digest.hexdigest() == self.CD_STEP_DIGESTS[k]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_kernel_matches_expit_reference(self, k):
        # Weight scale 1e3 puts |a| above 800, where exp(-a) overflows.
        cfg = TrainConfig(learning_rate=0.3, weight_decay=1e-3)
        for case, ((nv, nh, n), scale) in enumerate(itertools.product(
                [(3, 0, 4), (6, 5, 7), (16, 64, 20)], [0.5, 5.0, 1e3])):
            rng = np.random.default_rng(100 * k + case)
            rbm = random_rbm(rng, nv, nh, scale=scale)
            batch = (rng.random((n, nv)) < 0.5).astype(float)
            gen, twin = np.random.default_rng(case), np.random.default_rng(case)
            out = cd_step(rbm, batch, cfg, gen, k=k)
            u = twin.random(n * (nh + (k - 1) * (nv + nh)))
            expected = ref_cd_update(rbm, batch, u, k, cfg.learning_rate, cfg.weight_decay)
            for got, want in zip((out.weights, out.visible_bias, out.hidden_bias), expected):
                assert got.tobytes() == want.tobytes()
            assert gen.bit_generator.state == twin.bit_generator.state
            if scale == 1e3 and nh:
                assert np.abs(batch @ rbm.weights).max() > 800
                # A zero uniform decides like p = 0 where exp overflows to inf.
                u[::3] = 0.0
                w, vb, hb = (np.array(p) for p in (rbm.weights, rbm.visible_bias,
                                                   rbm.hidden_bias))
                training._cd_update(w, vb, hb, batch, u, k, cfg.learning_rate,
                                    cfg.weight_decay)
                expected = ref_cd_update(rbm, batch, u, k, cfg.learning_rate,
                                         cfg.weight_decay)
                for got, want in zip((w, vb, hb), expected):
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", range(1, 6))
    def test_only_the_gradient_states_take_a_sigmoid(self, monkeypatch, k):
        calls = {"_decide": 0, "expit": 0}

        def counting(name):
            inner = getattr(training, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(training, name, counting(name))
        rng = np.random.default_rng(k)
        rbm = random_rbm(rng, 6, 5)
        cd_step(rbm, (rng.random((7, 6)) < 0.5).astype(float), TrainConfig(), rng, k=k)
        # ph0, the last pv and ph_k enter the gradient; every other state is a sample.
        assert calls == {"_decide": 2 * (k - 1), "expit": 3}

    def test_single_row_training_concentrates_mass(self):
        cfg = TrainConfig(learning_rate=1.0, weight_decay=1e-4, k_initial=2)
        rng0 = np.random.default_rng(0)
        rbm = Rbm(rng0.normal(0.0, 0.1, (2, 4)), np.zeros(2), np.zeros(4), ("u", "v"))
        batch = np.array([[1, 1]])
        for step in range(200):
            rbm = cd_step(rbm, batch, cfg, np.random.default_rng(step))
        dist = exact_visible_distribution(rbm)
        assert dist.prob_of([1, 1]) > 0.9


def exact_nll(rbm, rows):
    """Mean negative log-likelihood of ``rows`` under the exact model."""
    dist = exact_visible_distribution(rbm)
    return -float(np.mean([np.log(dist.prob_of(r)) for r in rows]))


class TestExactRefine:
    def _untrained(self, seed=0):
        names = parse_unit("adder1").terminals
        rng = np.random.default_rng(seed)
        return Rbm(rng.normal(0, 0.1, (5, 6)), np.zeros(5), np.zeros(6), names)

    def test_first_step_is_the_exact_likelihood_gradient(self):
        rbm = self._untrained()
        rows, _ = generate_dataset("adder1")
        out = exact_refine(rbm, rows, steps=1)
        grad = TestCdStep._exact_weight_gradient(rbm, rows.astype(float))
        assert np.allclose(out.weights - rbm.weights, EXACT_LEARNING_RATE * grad,
                           atol=1e-12)

    def test_refinement_raises_likelihood_and_is_deterministic(self):
        rbm = self._untrained(1)
        rows, _ = generate_dataset("adder1")
        out = exact_refine(rbm, rows, steps=100)
        assert exact_nll(out, rows) < exact_nll(rbm, rows) - 0.3
        again = exact_refine(rbm, rows, steps=100)
        assert np.array_equal(out.weights, again.weights)
        assert np.array_equal(exact_refine(rbm, rows, 0).weights, rbm.weights)

    def test_refuses_units_too_large_to_enumerate(self):
        names = tuple(f"v{i}" for i in range(25))
        rbm = Rbm(np.zeros((25, 2)), np.zeros(25), np.zeros(2), names)
        with pytest.raises(ValueError, match=f"25 free units exceed limit {exact.MAX_FREE_UNITS}"):
            exact_refine(rbm, np.zeros((1, 25)), steps=1)

    @pytest.mark.parametrize("data, steps, message", [
        (np.zeros((1, 5)), -2, "steps must be >= 0"),
        (np.zeros((1, 5)), 2.5, "steps must be >= 0"),
        (np.zeros((1, 5)), True, "steps must be >= 0"),
        (np.zeros((3, 4)), 1, r"data shape \(3, 4\) is not a non-empty \(rows, 5\)"),
        (np.zeros((0, 5)), 1, r"data shape \(0, 5\) is not a non-empty"),
        (np.zeros(5), 1, r"data shape \(5,\) is not a non-empty"),
        (np.full((2, 5), 7.0), 1, "data entries must be 0 or 1"),
    ])
    def test_rejects_bad_arguments(self, data, steps, message):
        with pytest.raises(ValueError, match=message):
            exact_refine(self._untrained(), data, steps)

    # MAX_PASS_ACTIVATIONS over 6 hidden units: passes of 4, 8 and 16 of
    # adder1's 32 visible rows.  PASS_ACTIVATIONS = 1 leaves the packing
    # floor below them.
    @pytest.mark.parametrize("activations", [24, 48, 96])
    def test_passes_combine_to_the_one_pass_result(self, monkeypatch, activations):
        rbm = self._untrained(2)
        rows, _ = generate_dataset("adder1")
        whole = exact_refine(rbm, rows, steps=50)
        monkeypatch.setattr(exact, "MAX_PASS_ACTIVATIONS", activations)
        monkeypatch.setattr(exact, "PASS_ACTIVATIONS", 1)
        assert [len(V) for V, _, _ in exact.visible_passes(
            rbm.weights, rbm.visible_bias, rbm.hidden_bias)] == [activations // 6] * (192 // activations)
        split = exact_refine(rbm, rows, steps=50)
        for field in ("weights", "visible_bias", "hidden_bias"):
            assert np.allclose(getattr(split, field), getattr(whole, field), rtol=0, atol=1e-12)

    def test_a_17_visible_unit_refines_in_two_passes(self, monkeypatch):
        rng = np.random.default_rng(4)
        names = tuple(f"v{i}" for i in range(17))
        rbm = Rbm(rng.normal(0, 0.1, (17, 64)), rng.normal(0, 0.1, 17), np.zeros(64), names)
        rows = rng.integers(0, 2, (40, 17)).astype(float)
        passes, visible_passes = [], exact.visible_passes

        def recorded(*params):
            for V, act, neg_f in visible_passes(*params):
                passes.append(len(V))
                yield V, act, neg_f

        monkeypatch.setattr(exact, "visible_passes", recorded)
        out = exact_refine(rbm, rows, steps=1)
        assert passes == [1 << 16, 1 << 16]
        # The first step is the exact gradient, whose model term comes
        # from the enumerated distribution.
        dist = exact_visible_distribution(rbm)
        V = dist.support.astype(float)
        ph = expit(V @ rbm.weights + rbm.hidden_bias)
        ph0 = expit(rows @ rbm.weights + rbm.hidden_bias)
        grad = rows.T @ ph0 / len(rows) - (V * dist.probabilities[:, None]).T @ ph
        assert np.allclose(out.weights - rbm.weights, EXACT_LEARNING_RATE * grad,
                           rtol=0, atol=1e-12)


class TestReconstructionError:
    def test_zero_model_error_is_one_quarter(self):
        rbm = Rbm(np.zeros((3, 2)), np.zeros(3), np.zeros(2), ("a", "b", "c"))
        batch = np.array([[0, 1, 0], [1, 1, 1]], float)
        assert reconstruction_error(rbm, batch) == approx(0.25, abs=1e-15)

    def test_good_model_reconstructs_its_table(self):
        direct = builtin_model("adder1")
        rows, _ = generate_dataset("adder1")
        assert reconstruction_error(direct, rows) < 0.01


class TestInstances:
    # SHA-256 prefixes of the picks made when _instances indexed the full
    # list of input combinations; decoding the indices must agree.
    @pytest.mark.parametrize("args, digest", [
        ((Unit("adder", 4), 64, 0), "979f5fdef49defb0"),
        ((Unit("adder", 8), 64, 3), "15be961ea6ffc7ff"),
        ((Unit("multiplier", 8), 64, 0), "18bc5e0627b28596"),
        ((Unit("multiplier", 4), 100, 5), "c4dcaf50996425d6"),
        ((Unit("adder", 1), 64, 0), "ad142c41bc4f7cee"),
    ])
    def test_picks_are_pinned(self, args, digest):
        picks = training._instances(*args)
        assert hashlib.sha256(repr(picks).encode()).hexdigest()[:16] == digest

    def test_wide_unit_is_sampled_without_building_its_inputs(self, monkeypatch):
        def refuse(unit):
            raise AssertionError(f"built all {unit} inputs")

        monkeypatch.setattr(Unit, "rows", refuse)
        picks = training._instances(Unit("adder", 16), 64, 0)
        assert len(picks) == 64 and picks == sorted(set(picks))
        assert all(a < 2**16 and b < 2**16 and cin in (0, 1) for a, b, cin in picks)

    @pytest.mark.parametrize("kind", ["adder", "multiplier"])
    @pytest.mark.parametrize("width", range(1, 7))
    def test_decoded_picks_are_the_drawn_rows(self, kind, width):
        # The decode is checked against indexing the full list, and each row
        # against the unit's arithmetic.
        unit = Unit(kind, width)
        inputs = unit.rows()
        for limit, seed in ((1, 0), (unit.size // 3 + 1, width), (unit.size - 1, 7)):
            drawn = np.random.default_rng(seed).choice(unit.size, size=limit, replace=False)
            assert training._instances(unit, limit, seed) == [inputs[i] for i in sorted(drawn)]
        w = width
        for x in inputs:
            row = unit.row(x)
            a, b = decode_bits(row, 0, w), decode_bits(row, w, w)
            assert (a, b) == x[:2]
            if kind == "adder":
                cin, s, cout = row[2 * w], decode_bits(row, 2 * w + 1, w), row[3 * w + 1]
                assert len(row) == 3 * w + 2 and (cin,) == x[2:]
                assert a + b + cin == s + (cout << w)
            else:
                assert len(row) == 4 * w and a * b == decode_bits(row, 2 * w, 2 * w)


class TestEvaluateAccuracy:
    def test_direct_model_is_perfect(self):
        assert evaluate_accuracy(builtin_model("adder1"), "adder1") == 1.0

    def test_untrained_model_is_far_from_perfect(self):
        names = parse_unit("adder1").terminals
        rng = np.random.default_rng(0)
        rbm = Rbm(rng.normal(0, 0.1, (5, 6)), np.zeros(5), np.zeros(6), names)
        assert evaluate_accuracy(rbm, "adder1") < 0.5

    def test_sampling_path_agrees_on_sharp_model(self, monkeypatch):
        # No clamp fits one pass, so every row is sampled.
        monkeypatch.setattr(training.exact, "MAX_FREE_UNITS", 0)
        acc = evaluate_accuracy(
            builtin_model("adder1"), "adder1",
            n_instances=8, n_chains=2, n_sweeps=500, seed=0,
        )
        assert acc == 1.0

    def test_clamps_that_fit_one_pass_are_never_sampled(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a clamp that fits one pass")

        monkeypatch.setattr(training, "multistart", refuse)
        assert evaluate_accuracy(builtin_model("mult2"), "mult2") == 1.0

    def test_rows_are_scored_against_the_table(self, monkeypatch):
        # adder1's rows in (A, B, Cin) order have outputs (S, Cout) = (0, 0),
        # (1, 0), (1, 0), (0, 1), (1, 0), (0, 1), (0, 1), (1, 1); a sampled
        # mode counts only when it equals its row's.
        modes = iter([(0, 0), (0, 1), (0, 0), (0, 1), (1, 1), (0, 0), (1, 0), (1, 1)])
        monkeypatch.setattr(training.exact, "MAX_FREE_UNITS", 0)
        monkeypatch.setattr(training, "mode_estimate", lambda hist: (next(modes), 1))
        acc = evaluate_accuracy(builtin_model("adder1"), "adder1", n_chains=1, n_sweeps=2)
        assert type(acc) is float and acc == 3 / 8

    @pytest.mark.parametrize("field, value, low", [
        ("n_instances", 0, 1), ("n_instances", 2.5, 1), ("n_chains", 0, 1),
        ("n_chains", 2.5, 1), ("n_sweeps", 0.5, 1), ("n_sweeps", True, 1),
        ("seed", -3, 0), ("seed", 1.5, 0),
    ])
    def test_counts_and_seed_are_refused_by_name(self, field, value, low):
        message = f"{field} must be an integer >= {low}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_accuracy(builtin_model("adder1"), "adder1", **{field: value})

    def test_numpy_integer_counts_are_accepted(self):
        counts = dict(n_instances=4, n_chains=2, n_sweeps=5, seed=1)
        assert evaluate_accuracy(builtin_model("adder1"), "adder1",
                                 **{k: np.int64(v) for k, v in counts.items()}) == 1.0

    def test_model_without_the_units_terminals_is_refused(self):
        with pytest.raises(KeyError, match="lacks terminals \\['P0', 'P1', 'P2', 'P3'\\]"):
            evaluate_accuracy(builtin_model("adder2"), "mult2")
        with pytest.raises(KeyError, match="'A2'"):
            evaluate_accuracy(builtin_model("adder4"), "adder2")


# SHA-256 of the trained parameters' bytes plus repr(log), one per path
# through the epoch loop: full batch, tiled and shuffled minibatches,
# sampled rows (dataset_cap), a ragged last minibatch, and k_initial=1.
TRAIN_DIGESTS = [
    ("adder1", 6, {"seed": 0},
     "a4f8c85600b4058a8f57fe4d0733651c2b141de2ab3d5644bbcd6254cd760ec1"),
    ("mult4", 64, {"seed": 0, "epochs_per_stage": 2, "k_max": 3},
     "d33827bf07b791d25df2cfaa8a356c151b6470458bd82bc780561093b3573bd3"),
    ("adder2", 28, {"seed": 0, "dataset_cap": 40, "epochs_per_stage": 2, "k_max": 3},
     "af3849514b367c7831c0d8d69a7c1c96da1b23da1e27a658a10cddf10f82d8c4"),
    ("mult2", 12, {"seed": 0, "batch_size": 5, "epochs_per_stage": 2, "k_max": 3},
     "bc0dbb3a86bfcc00e20dd3e78eee75cc3222f133f09a836f4cefa7a58e48db08"),
    ("adder1", 6, {"seed": 2, "k_initial": 1, "k_max": 3, "epochs_per_stage": 3},
     "7f390238803e59e85dae4faf5c407aff06cea9dfe8a84f1459a34c5f565b91d4"),
]


class TestTrain:
    @pytest.mark.parametrize("task, hidden, overrides, digest", TRAIN_DIGESTS)
    def test_training_is_pinned(self, task, hidden, overrides, digest):
        model, log = train(task, hidden, TrainConfig(**overrides))
        got = hashlib.sha256()
        for p in (model.weights, model.visible_bias, model.hidden_bias):
            got.update(np.ascontiguousarray(p).tobytes())
        got.update(repr(log).encode())
        assert got.hexdigest() == digest

    def test_builds_one_model_per_epoch(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return Rbm(*args, **kwargs)

        monkeypatch.setattr(training, "Rbm", counting)
        _, log = train("mult4", 64, TrainConfig(seed=0, epochs_per_stage=2, k_max=3))
        epochs = sum(row["epoch"] is not None for row in log)
        assert len(built) <= epochs + 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergent_run_raises_with_location(self):
        cfg = TrainConfig(learning_rate=1e308, weight_decay=1e-4)
        with pytest.raises(FloatingPointError, match="diverged at stage 0"):
            train("adder1", 6, cfg)

    def test_zero_rate_returns_initial_parameters(self):
        cfg = TrainConfig(
            learning_rate=0.0, epochs_per_stage=1, patience=2, k_max=3,
            eval_instances=8, eval_chains=1, eval_sweeps=50, seed=11,
        )
        model, metrics = train("adder1", 6, cfg)
        rng = np.random.default_rng(11)
        expected_w = rng.normal(0.0, cfg.init_scale, (5, 6))
        assert np.array_equal(model.weights, expected_w)
        assert np.all(model.visible_bias == 0.0)
        assert np.all(model.hidden_bias == 0.0)
        final_acc = [m["accuracy"] for m in metrics if m["accuracy"] is not None]
        assert all(a < 1.0 for a in final_acc)

    def test_known_hidden_default(self):
        assert KNOWN_HIDDEN[("adder", 1)] == 6
        cfg = TrainConfig(learning_rate=0.0, epochs_per_stage=1, patience=2,
                          k_max=3, eval_instances=4)
        model, _ = train("adder1", None, cfg)
        assert model.n_hidden == 6

    @pytest.mark.parametrize("hidden", [-2, 2.5, True])
    def test_hidden_count_must_be_a_nonnegative_integer(self, hidden):
        with pytest.raises(ValueError, match=f"n_hidden must be an integer >= 0, got {hidden!r}"):
            train("adder1", hidden)

    def test_seed_reproducibility(self):
        cfg = TrainConfig(epochs_per_stage=2, k_max=3, patience=2,
                          eval_instances=8, seed=3)
        m1, log1 = train("adder1", 6, cfg)
        m2, log2 = train("adder1", 6, cfg)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.visible_bias, m2.visible_bias)
        assert np.array_equal(m1.hidden_bias, m2.hidden_bias)
        assert log1 == log2

    @pytest.mark.slow
    def test_metrics_structure(self, trained_adder1):
        _, metrics = trained_adder1
        assert metrics, "training log must not be empty"
        stages = sorted({m["stage"] for m in metrics})
        assert stages == list(range(len(stages)))
        for stage in stages:
            rows = [m for m in metrics if m["stage"] == stage]
            evals = [m for m in rows if m["epoch"] is None]
            epochs = [m for m in rows if m["epoch"] is not None]
            assert len(evals) == 1
            assert 0.0 <= evals[0]["accuracy"] <= 1.0
            assert all(r["recon_error"] >= 0.0 for r in epochs)
            ks = {m["k"] for m in rows}
            assert len(ks) == 1
        first_k = metrics[0]["k"]
        assert first_k == TrainConfig().k_initial

    @pytest.mark.slow
    def test_trained_adder_is_perfect(self, trained_adder1):
        model, metrics = trained_adder1
        assert model.visible_names == ("A", "B", "Cin", "S", "Cout")
        assert evaluate_accuracy(model, "adder1") == 1.0
        best = max(m["accuracy"] for m in metrics if m["accuracy"] is not None)
        assert best == 1.0

    @pytest.mark.slow
    def test_trained_multiplier_is_accurate(self, trained_mult2):
        model, _ = trained_mult2
        assert evaluate_accuracy(model, "mult2") >= 0.95
