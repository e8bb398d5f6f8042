"""Contrastive-divergence training: datasets, updates, schedule, evaluation."""

import hashlib

import numpy as np
import pytest
from pytest import approx
from scipy.special import expit

from rbmlogic.exact import exact_joint_distribution, exact_visible_distribution
from rbmlogic.model import Rbm
from rbmlogic.synthesis import builtin_model, full_adder_table
from rbmlogic import training
from rbmlogic.training import (
    EXACT_LEARNING_RATE,
    KNOWN_HIDDEN,
    TrainConfig,
    cd_step,
    dataset_size,
    evaluate_accuracy,
    exact_refine,
    generate_dataset,
    parse_task,
    reconstruction_error,
    task_layout,
    train,
)


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


class TestTaskParsing:
    def test_parse_task(self):
        assert parse_task("adder4") == ("adder", 4)
        assert parse_task("mult2") == ("mult", 2)
        assert parse_task(("mult", 2)) == ("mult", 2)
        assert parse_task(("multiplier", 8)) == ("mult", 8)
        with pytest.raises(ValueError):
            parse_task("foo3")
        with pytest.raises(ValueError):
            parse_task("adder0")
        with pytest.raises(TypeError):
            parse_task(7)

    def test_task_layout(self):
        kind, width, names = task_layout("adder2")
        assert (kind, width) == ("adder", 2)
        assert names == ("A0", "A1", "B0", "B1", "Cin", "S0", "S1", "Cout")
        _, _, mnames = task_layout("mult1")
        assert mnames == ("A", "B", "P0", "P1")

    def test_dataset_size(self):
        assert dataset_size("adder2") == 32
        assert dataset_size("mult4") == 256
        assert dataset_size("adder16") == 2**33


class TestDataset:
    def test_adder1_rows_are_the_full_adder_table(self):
        rows, names = generate_dataset("adder1")
        assert names == ("A", "B", "Cin", "S", "Cout")
        assert set(map(tuple, rows.tolist())) == set(full_adder_table().rows)

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
        _, _, names = task_layout("adder1")
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
        names = tuple(f"v{i}" for i in range(17))
        rbm = Rbm(np.zeros((17, 2)), np.zeros(17), np.zeros(2), names)
        with pytest.raises(ValueError, match="exact refinement limit"):
            exact_refine(rbm, np.zeros((1, 17)), steps=1)


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
        (("adder", 4, 64, 0), "979f5fdef49defb0"),
        (("adder", 8, 64, 3), "15be961ea6ffc7ff"),
        (("mult", 8, 64, 0), "18bc5e0627b28596"),
        (("mult", 4, 100, 5), "c4dcaf50996425d6"),
        (("adder", 1, 64, 0), "ad142c41bc4f7cee"),
    ])
    def test_picks_are_pinned(self, args, digest):
        picks = training._instances(*args)
        assert hashlib.sha256(repr(picks).encode()).hexdigest()[:16] == digest

    def test_wide_unit_is_sampled_without_building_its_inputs(self, monkeypatch):
        def refuse(kind, width):
            raise AssertionError(f"built all {kind}{width} inputs")

        monkeypatch.setattr(training, "unit_inputs", refuse)
        picks = training._instances("adder", 16, 64, 0)
        assert len(picks) == 64 and picks == sorted(set(picks))
        assert all(a < 2**16 and b < 2**16 and cin in (0, 1) for a, b, cin in picks)


class TestEvaluateAccuracy:
    def test_direct_model_is_perfect(self):
        assert evaluate_accuracy(builtin_model("adder1"), "adder1") == 1.0

    def test_untrained_model_is_far_from_perfect(self):
        _, _, names = task_layout("adder1")
        rng = np.random.default_rng(0)
        rbm = Rbm(rng.normal(0, 0.1, (5, 6)), np.zeros(5), np.zeros(6), names)
        assert evaluate_accuracy(rbm, "adder1") < 0.5

    def test_sampling_path_agrees_on_sharp_model(self):
        acc = evaluate_accuracy(
            builtin_model("adder1"), "adder1",
            n_instances=8, n_chains=2, n_sweeps=500, seed=0, method="sample",
        )
        assert acc == 1.0

    def test_method_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate_accuracy(builtin_model("adder1"), "adder1", method="bogus")


class TestTrain:
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
