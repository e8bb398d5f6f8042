"""Core model: energies, free energies, conditionals, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rbmlogic.cli import load_model, save_model
from rbmlogic.exact import _conditional_tables
from rbmlogic.merge import Netlist, compose, model_parts
from rbmlogic.model import (
    BinaryState,
    Rbm,
    dumps_model,
    energy,
    free_energy,
    free_energy_batch,
)
from rbmlogic.synthesis import builtin_model

from .reference import bits_le, random_rbm, ref_energy, ref_free_energy

finite = st.floats(min_value=-8, max_value=8, allow_nan=False, allow_infinity=False)


def small_rbm(n_visible=4, n_hidden=(0, 4)):
    """Strategy for small finite models: 1..n_visible visible units and a
    hidden count in the closed range n_hidden."""
    return st.integers(1, n_visible).flatmap(
        lambda nv: st.integers(*n_hidden).flatmap(
            lambda nh: st.tuples(
                arrays(np.float64, (nv, nh), elements=finite),
                arrays(np.float64, (nv,), elements=finite),
                arrays(np.float64, (nh,), elements=finite),
            ).map(lambda t: Rbm(*t, tuple(f"v{i}" for i in range(nv))))
        )
    )


def state_of(rbm, vk, hk):
    return BinaryState(
        np.array(bits_le(vk, rbm.n_visible), float),
        np.array(bits_le(hk, rbm.n_hidden), float),
    )


class TestEnergy:
    def test_zero_parameters_any_state_is_zero(self):
        rbm = Rbm(np.zeros((3, 2)), np.zeros(3), np.zeros(2), ("a", "b", "c"))
        for vk in range(8):
            for hk in range(4):
                assert energy(rbm, state_of(rbm, vk, hk)) == 0.0

    def test_hand_value_one_by_one(self):
        rbm = Rbm([[1.0]], [0.5], [-0.25], ("x",))
        got = energy(rbm, BinaryState(np.array([1.0]), np.array([1.0])))
        assert got == -1.25

    def test_all_zero_state_is_zero_for_any_model(self):
        rbm = random_rbm(np.random.default_rng(3), 4, 3)
        assert energy(rbm, state_of(rbm, 0, 0)) == 0.0

    @given(small_rbm())
    def test_matches_reference_on_all_states(self, rbm):
        for vk in range(2**rbm.n_visible):
            for hk in range(2**rbm.n_hidden):
                got = energy(rbm, state_of(rbm, vk, hk))
                want = ref_energy(rbm.weights, rbm.visible_bias, rbm.hidden_bias,
                                  bits_le(vk, rbm.n_visible), bits_le(hk, rbm.n_hidden))
                assert got == pytest.approx(want, abs=1e-12)

    @given(small_rbm(n_hidden=(1, 4)), st.data())
    def test_single_visible_flip_changes_energy_by_activation(self, rbm, data):
        i = data.draw(st.integers(0, rbm.n_visible - 1))
        hk = data.draw(st.integers(0, 2**rbm.n_hidden - 1))
        h = np.array(bits_le(hk, rbm.n_hidden), float)
        v = np.array(bits_le(data.draw(st.integers(0, 2**rbm.n_visible - 1)),
                             rbm.n_visible), float)
        v0, v1 = v.copy(), v.copy()
        v0[i], v1[i] = 0.0, 1.0
        diff = energy(rbm, BinaryState(v1, h)) - energy(rbm, BinaryState(v0, h))
        act = rbm.visible_bias[i] + rbm.weights[i] @ h
        assert diff == pytest.approx(-act, abs=1e-12)

    def test_dimension_mismatch_raises(self):
        rbm = Rbm(np.zeros((2, 1)), np.zeros(2), np.zeros(1), ("x", "y"))
        with pytest.raises(ValueError):
            energy(rbm, BinaryState(np.array([1.0]), np.array([0.0])))
        with pytest.raises(ValueError):
            energy(rbm, BinaryState(np.array([1.0, 2.0]), np.array([0.0])))


class TestFreeEnergy:
    def test_zero_parameters_two_hidden(self):
        rbm = Rbm(np.zeros((2, 2)), np.zeros(2), np.zeros(2), ("x", "y"))
        want = -2.0 * math.log(2.0)
        assert free_energy(rbm, [0, 1]) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(-1.3862943611198906, abs=1e-15)

    def test_no_hidden_units_reduces_to_bias(self):
        rbm = Rbm(np.zeros((2, 0)), np.array([0.3, 0.7]), np.zeros(0), ("x", "y"))
        assert free_energy(rbm, [1, 0]) == pytest.approx(-0.3, abs=1e-15)

    @given(small_rbm())
    def test_matches_hidden_enumeration(self, rbm):
        for vk in range(2**rbm.n_visible):
            v = bits_le(vk, rbm.n_visible)
            got = free_energy(rbm, v)
            want = ref_free_energy(rbm.weights, rbm.visible_bias, rbm.hidden_bias, v)
            assert math.exp(-got) == pytest.approx(math.exp(-want), rel=1e-10)

    def test_large_weights_stay_finite(self):
        rbm = Rbm([[600.0], [-600.0]], [0.0, 0.0], [0.0], ("x", "y"))
        assert math.isfinite(free_energy(rbm, [1, 0]))
        assert free_energy(rbm, [1, 0]) == pytest.approx(-600.0, rel=1e-12)

    @given(small_rbm())
    def test_batch_matches_scalar(self, rbm):
        V = np.array([bits_le(k, rbm.n_visible) for k in range(2**rbm.n_visible)],
                     dtype=float)
        batch = free_energy_batch(rbm, V)
        for row, f in zip(V, batch):
            assert f == pytest.approx(free_energy(rbm, row), abs=1e-12)


class TestConditionals:
    """The layer conditionals, as exact._conditional_tables enumerates them:
    row k of p(h | v) is visible state k, row k of p(v | h) hidden state k."""

    def test_zero_parameters_give_half(self):
        rbm = Rbm(np.zeros((2, 3)), np.zeros(2), np.zeros(3), ("x", "y"))
        ph, pv = _conditional_tables(rbm, None)
        # each joint entry is exp(-n log 2), not a product of exact halves
        assert ph.shape == (4, 8) and ph == pytest.approx(np.full((4, 8), 0.5**3), abs=1e-15)
        assert pv.shape == (8, 4) and pv == pytest.approx(np.full((8, 4), 0.5**2), abs=1e-15)

    def test_saturated_hidden_bias(self):
        rbm = Rbm(np.zeros((1, 1)), np.zeros(1), np.array([50.0]), ("x",))
        assert _conditional_tables(rbm, None)[0][0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_saturated_negative_visible_bias(self):
        rbm = Rbm(np.zeros((1, 1)), np.array([-50.0]), np.zeros(1), ("x",))
        assert _conditional_tables(rbm, None)[1][0, 1] == pytest.approx(0.0, abs=1e-15)

    @given(small_rbm(n_visible=3, n_hidden=(1, 3)))
    def test_hidden_matches_joint_enumeration(self, rbm):
        nh, (ph_tab, _) = rbm.n_hidden, _conditional_tables(rbm, None)
        for vk in range(2**rbm.n_visible):
            v = bits_le(vk, rbm.n_visible)
            weights = {
                hk: math.exp(-ref_energy(rbm.weights, rbm.visible_bias,
                                         rbm.hidden_bias, v, bits_le(hk, nh)))
                for hk in range(2**nh)
            }
            z = math.fsum(weights.values())
            ph = ph_tab[vk]
            for j in range(nh):
                marg = math.fsum(w for hk, w in weights.items() if (hk >> j) & 1) / z
                prob = math.fsum(p for hk, p in enumerate(ph) if (hk >> j) & 1)
                assert prob == pytest.approx(marg, rel=1e-10)

    @given(small_rbm(n_visible=3, n_hidden=(1, 3)))
    def test_joint_hidden_distribution_factorizes(self, rbm):
        nh, (ph_tab, _) = rbm.n_hidden, _conditional_tables(rbm, None)
        for vk in range(2**rbm.n_visible):
            v = bits_le(vk, rbm.n_visible)
            weights = {
                hk: math.exp(-ref_energy(rbm.weights, rbm.visible_bias,
                                         rbm.hidden_bias, v, bits_le(hk, nh)))
                for hk in range(2**nh)
            }
            z = math.fsum(weights.values())
            ph = ph_tab[vk]
            for hk, w in weights.items():
                assert w / z == pytest.approx(ph[hk], rel=1e-9, abs=1e-15)


class TestValidation:
    def test_rejects_bad_shapes_and_names(self):
        with pytest.raises(ValueError):
            Rbm(np.zeros(3), np.zeros(3), np.zeros(1), ("a", "b", "c"))
        with pytest.raises(ValueError):
            Rbm(np.zeros((2, 1)), np.zeros(3), np.zeros(1), ("a", "b"))
        with pytest.raises(ValueError):
            Rbm(np.zeros((2, 1)), np.zeros(2), np.zeros(2), ("a", "b"))
        with pytest.raises(ValueError):
            Rbm(np.zeros((2, 1)), np.zeros(2), np.zeros(1), ("a",))
        with pytest.raises(ValueError):
            Rbm(np.zeros((2, 1)), np.zeros(2), np.zeros(1), ("a", "a"))
        with pytest.raises(ValueError):
            Rbm(np.zeros((0, 1)), np.zeros(0), np.zeros(1), ())

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            Rbm([[np.nan]], [0.0], [0.0], ("x",))
        with pytest.raises(ValueError):
            Rbm([[0.0]], [np.inf], [0.0], ("x",))

    def test_zero_hidden_units_are_legal(self):
        rbm = Rbm(np.zeros((2, 0)), np.array([0.1, 0.2]), np.zeros(0), ("x", "y"))
        assert rbm.n_hidden == 0

    def test_parameters_are_immutable(self):
        rbm = Rbm(np.zeros((2, 1)), np.zeros(2), np.zeros(1), ("x", "y"))
        with pytest.raises(ValueError):
            rbm.weights[0, 0] = 1.0

    def test_terminal_lookup(self):
        rbm = Rbm(np.zeros((2, 1)), np.zeros(2), np.zeros(1), ("x", "y"))
        assert rbm.terminal_index("y") == 1
        with pytest.raises(KeyError):
            rbm.terminal_index("z")

    def test_renamed_and_prefixed(self):
        rbm = Rbm(np.zeros((2, 1)), np.zeros(2), np.zeros(1), ("x", "y"))
        assert rbm.renamed({"x": "u"}).visible_names == ("u", "y")
        assert compose(Netlist([("g0", rbm)])).rbm.visible_names == ("g0.x", "g0.y")

    def test_binary_state_checked_rejects_bad_bits(self):
        rbm = Rbm(np.zeros((2, 1)), np.zeros(2), np.zeros(1), ("x", "y"))
        with pytest.raises(ValueError):
            energy(rbm, BinaryState([0, 2], [0]))
        with pytest.raises(ValueError):
            energy(rbm, BinaryState([0, 1], [0, 1]))


class TestSerialization:
    @given(small_rbm())
    def test_json_round_trip_is_bit_exact(self, rbm):
        back = Rbm.from_json_dict(json.loads(dumps_model(rbm)))
        assert back.visible_names == rbm.visible_names
        assert back.weights.tobytes() == rbm.weights.tobytes()
        assert back.visible_bias.tobytes() == rbm.visible_bias.tobytes()
        assert back.hidden_bias.tobytes() == rbm.hidden_bias.tobytes()

    def test_file_round_trip(self, tmp_path):
        rbm = random_rbm(np.random.default_rng(0), 3, 2)
        path = tmp_path / "m.json"
        save_model(rbm, path)
        back = load_model(path)
        assert back.weights.tobytes() == rbm.weights.tobytes()
        assert back.visible_names == rbm.visible_names

    def test_zero_hidden_round_trip(self):
        rbm = Rbm(np.zeros((2, 0)), np.array([0.25, -1.5]), np.zeros(0), ("x", "y"))
        back = Rbm.from_json_dict(json.loads(dumps_model(rbm)))
        assert back.n_hidden == 0
        assert np.array_equal(back.visible_bias, rbm.visible_bias)


class TestDumpsLayout:
    """``dumps_model`` writes exactly what ``json.dumps(..., indent=1)`` does."""

    @staticmethod
    def reference(rbm):
        return json.dumps(rbm.to_json_dict(), indent=1, allow_nan=False)

    @pytest.mark.parametrize("name", ["xor", "fa1", "adder4", "adder16", "mult8"])
    def test_builtin_models(self, name):
        rbm, _ = model_parts(builtin_model(name))
        assert dumps_model(rbm) == self.reference(rbm)

    def test_edge_values_and_escaped_names(self):
        rbm = Rbm(np.array([[-0.0, 5e-324, 1e300], [1.0, -2.5e-310, 3.0]]),
                  np.array([-0.0, 1e-310]), np.array([0.1, 2.0, -1e300]),
                  ('a"b', "ü\n\\"))
        assert dumps_model(rbm) == self.reference(rbm)

    def test_zero_hidden(self):
        rbm = Rbm(np.zeros((2, 0)), np.array([0.25, -1.5]), np.zeros(0), ("x", "y"))
        assert dumps_model(rbm) == self.reference(rbm)

    @given(small_rbm())
    def test_random_models(self, rbm):
        assert dumps_model(rbm) == self.reference(rbm)
