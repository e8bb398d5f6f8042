"""Direct construction from truth tables and circuit generators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from rbmlogic.exact import ExactDistribution, exact_visible_distribution, kl_divergence
from rbmlogic.merge import MergedModel, compose, public_terminals
from rbmlogic.model import Rbm
from rbmlogic import synthesis
from rbmlogic.synthesis import (
    DEFAULT_SHARPNESS,
    TruthTable,
    Unit,
    bit_names,
    build_adder,
    build_multiplier,
    builtin_model,
    full_adder_netlist,
    gate,
    gate_table,
    model_interface,
    operand_width,
    parse_unit,
    rbm_from_truth_table,
)

from .reference import bits_le


def decode(row, names, prefix, width):
    idx = [list(names).index(n) for n in bit_names(prefix, width)]
    return sum((1 << j) for j, i in enumerate(idx) if row[i] > 0.5)


class TestTruthTable:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one row"):
            TruthTable(2, (), ("a", "b"))
        with pytest.raises(ValueError, match="names length"):
            TruthTable(2, ((0, 0),), ("a",))
        with pytest.raises(ValueError, match="distinct"):
            TruthTable(1, ((0,), (0,)), ("a",))
        with pytest.raises(ValueError, match="bad truth table row"):
            TruthTable(2, ((0, 1, 1),), ("a", "b"))
        with pytest.raises(ValueError, match="bad truth table row"):
            TruthTable(2, ((0, 2),), ("a", "b"))

    def test_gate_tables(self):
        assert gate_table("xor").rows == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
        assert gate_table("and").rows == ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1))
        assert gate_table("or").rows == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1))
        assert gate_table("nand").rows == ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0))
        assert gate_table("not").rows == ((0, 1), (1, 0))
        assert gate_table("copy").rows == ((0, 0), (1, 1))
        assert gate_table("xor").names == ("in1", "in2", "out")
        assert gate_table("not").names == ("in1", "out")
        with pytest.raises(ValueError, match="unknown gate"):
            gate_table("xnor")

    def test_one_bit_adder_table(self):
        t = parse_unit(("adder", 1)).table()
        assert t.names == ("A", "B", "Cin", "S", "Cout")
        assert len(t.rows) == 8
        for a, b, cin, s, cout in t.rows:
            assert a + b + cin == s + 2 * cout

    def test_adder_table(self):
        t = parse_unit(("adder", 2)).table()
        assert t.arity == 8
        assert len(t.rows) == 32
        for row in t.rows:
            a = row[0] + 2 * row[1]
            b = row[2] + 2 * row[3]
            cin = row[4]
            s = row[5] + 2 * row[6]
            cout = row[7]
            assert a + b + cin == s + 4 * cout
        with pytest.raises(ValueError):
            parse_unit(("adder", 0)).table()

    def test_multiplier_table(self):
        t = parse_unit(("multiplier", 2)).table()
        assert t.arity == 8
        assert len(t.rows) == 16
        for row in t.rows:
            a = row[0] + 2 * row[1]
            b = row[2] + 2 * row[3]
            p = sum(row[4 + j] << j for j in range(4))
            assert a * b == p
        with pytest.raises(ValueError):
            parse_unit(("multiplier", 0)).table()

    def test_bit_names(self):
        assert bit_names("A", 1) == ["A"]
        assert bit_names("A", 3) == ["A0", "A1", "A2"]


class TestDirectConstruction:
    def test_parameter_formulas(self):
        r = rbm_from_truth_table(gate_table("xor"))
        rows = np.array(gate_table("xor").rows, float)
        assert np.array_equal(r.weights, 12.0 * (2.0 * rows - 1.0).T)
        assert np.array_equal(r.hidden_bias, 12.0 * (0.5 - rows.sum(axis=1)))
        assert np.all(r.visible_bias == 0.0)
        assert r.n_hidden == len(gate_table("xor").rows)
        # Unit for row (0, 1, 1): column (-c, c, c), bias c * (1/2 - 2).
        assert np.array_equal(r.weights[:, 1], [-12.0, 12.0, 12.0])
        assert r.hidden_bias[1] == -18.0

    def test_sharpness_must_be_positive(self):
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sharpness"):
                rbm_from_truth_table(gate_table("and"), bad)

    @given(
        arity=st.integers(1, 4),
        sharpness=st.sampled_from([2.0, 12.0]),
        data=st.data(),
    )
    def test_hidden_preactivation_measures_hamming_distance(self, arity, sharpness, data):
        universe = [bits_le(k, arity) for k in range(2**arity)]
        rows = tuple(
            sorted(
                data.draw(
                    st.sets(st.sampled_from(universe), min_size=1, max_size=2**arity)
                )
            )
        )
        table = TruthTable(arity, rows, tuple(f"t{i}" for i in range(arity)))
        r = rbm_from_truth_table(table, sharpness)
        for vk in range(2**arity):
            v = np.array(bits_le(vk, arity), float)
            pre = r.weights.T @ v + r.hidden_bias
            for j, row in enumerate(rows):
                hamming = sum(int(v[i]) != row[i] for i in range(arity))
                assert pre[j] == approx(sharpness * (0.5 - hamming), abs=1e-9)

    def test_single_row_mass_sharpens(self):
        table = TruthTable(2, ((1, 1),), ("u", "v"))
        d10 = exact_visible_distribution(rbm_from_truth_table(table, 10.0))
        d12 = exact_visible_distribution(rbm_from_truth_table(table, 12.0))
        assert d10.prob_of([1, 1]) == approx(0.9802299893721295, abs=1e-12)
        assert d12.prob_of([1, 1]) == approx(0.992624672079529, abs=1e-12)

    def test_all_rows_table_gives_uniform_marginal(self):
        rows = tuple((a, b) for a in (0, 1) for b in (0, 1))
        d = exact_visible_distribution(rbm_from_truth_table(TruthTable(2, rows, ("u", "v"))))
        assert np.allclose(d.probabilities, 0.25, atol=1e-9)

    def test_and_divergence_decreases_with_sharpness(self):
        kls, masses = [], []
        rows = set(gate_table("and").rows)
        for c in (2.0, 4.0, 8.0, 16.0):
            d = exact_visible_distribution(gate("and", c))
            ideal = np.array(
                [1.0 if tuple(int(x) for x in row) in rows else 0.0 for row in d.support]
            )
            ideal /= ideal.sum()
            target = ExactDistribution(d.names, d.support, ideal, 0.0, {})
            kls.append(float(kl_divergence(target, d)))
            masses.append(sum(d.prob_of(r) for r in rows))
        assert kls == sorted(kls, reverse=True)
        assert masses == sorted(masses)

    def test_and_divergence_frozen_values(self):
        rows = set(gate_table("and").rows)

        def kl_at(c):
            d = exact_visible_distribution(gate("and", c))
            ideal = np.array(
                [1.0 if tuple(int(x) for x in row) in rows else 0.0 for row in d.support]
            )
            ideal /= ideal.sum()
            return float(kl_divergence(ExactDistribution(d.names, d.support, ideal, 0.0, {}), d))

        assert kl_at(12.0) == approx(0.0024772173727003466, rel=1e-9)
        assert kl_at(14.0) == approx(0.0009116741461965283, rel=1e-9)

    def test_and_output_conditional(self):
        d = exact_visible_distribution(gate("and"), clamp={"in1": 1, "in2": 1})
        assert d.names == ("out",)
        assert d.prob_of([1]) == approx(0.9975151341460676, abs=1e-12)


class TestOperandWidths:
    def test_operand_width(self):
        assert operand_width(["A"], "A") == 1
        assert operand_width(["A0", "A1", "A2", "B0"], "A") == 3
        with pytest.raises(KeyError, match="no terminals"):
            operand_width(["B0"], "A")
        with pytest.raises(ValueError, match="gaps"):
            operand_width(["A0", "A2"], "A")

    def test_model_interface_reads_slice_widths(self):
        fa = rbm_from_truth_table(parse_unit(("adder", 1)).table())
        assert (model_interface(fa).kind, model_interface(fa).width) == ("adder", 1)
        assert model_interface(rbm_from_truth_table(parse_unit(("adder", 2)).table())).width == 2
        assert model_interface(compose(full_adder_netlist())).width == 1
        mult = model_interface(rbm_from_truth_table(parse_unit(("multiplier", 2)).table()))
        assert (mult.kind, mult.width) == ("multiplier", 2)
        coutless = Rbm(np.zeros((4, 1)), np.zeros(4), np.zeros(1), ("A", "B", "S", "Cin"))
        with pytest.raises(KeyError, match="missing terminal 'Cout'"):
            model_interface(coutless)

    def test_model_interface_classifies_each_name_tuple_once(self):
        # Models with the same public terminals share one classification,
        # from a bounded cache; a refusal is raised again on every call.
        fa = rbm_from_truth_table(parse_unit(("adder", 1)).table())
        assert model_interface(fa) is model_interface(fa.renamed({})) is \
            model_interface(compose(full_adder_netlist()))
        assert synthesis._interface.cache_info().maxsize is not None
        coutless = Rbm(np.zeros((4, 1)), np.zeros(4), np.zeros(1), ("A", "B", "S", "Cin"))
        for _ in range(2):
            with pytest.raises(KeyError, match="missing terminal 'Cout'"):
                model_interface(coutless)

    def test_builders_validate_their_bases(self):
        fa = rbm_from_truth_table(parse_unit(("adder", 1)).table())
        mult2 = rbm_from_truth_table(parse_unit(("multiplier", 2)).table())
        with pytest.raises(KeyError, match="no terminals"):
            build_adder(2, gate("and"))
        carryless = Rbm(np.zeros((3, 1)), np.zeros(3), np.zeros(1), ("A", "B", "S"))
        with pytest.raises(KeyError, match=r"neither an adder \(Cin\) nor a multiplier \(P\)"):
            build_adder(2, carryless)
        with pytest.raises(KeyError, match="missing terminal 'Cin'"):
            build_adder(4, mult2)
        with pytest.raises(KeyError, match="is an adder"):
            build_multiplier(2, fa, fa)
        with pytest.raises(ValueError, match="base multiplier width 2 != 1"):
            build_multiplier(2, mult2, fa)
        with pytest.raises(KeyError, match="missing terminal 'Cin'"):
            build_multiplier(
                4, mult2, rbm_from_truth_table(parse_unit(("multiplier", 4)).table()))


    def test_model_interface_refuses_a_sum_wider_than_the_inputs(self):
        wide_sum = Rbm(np.zeros((6, 1)), np.zeros(6), np.zeros(1),
                       ("A", "B", "Cin", "S0", "S1", "Cout"))
        with pytest.raises(ValueError, match="adder sum width must match input width"):
            model_interface(wide_sum)

    def test_builders_take_models_only(self):
        # A netlist is a recipe, not a model: compose it first.
        with pytest.raises(TypeError, match="expected Rbm or MergedModel, got Netlist"):
            build_adder(2, full_adder_netlist())
        with pytest.raises(TypeError, match="expected Rbm or MergedModel, got Netlist"):
            build_multiplier(2, builtin_model("mult1"), full_adder_netlist())
        with pytest.raises(TypeError, match="expected Rbm or MergedModel, got Netlist"):
            build_multiplier(2, full_adder_netlist(), builtin_model("adder1"))


class TestCircuits:
    def test_ripple_adder_structure(self):
        fa = rbm_from_truth_table(parse_unit(("adder", 1)).table())
        add = build_adder(2, fa)
        public = set(public_terminals(add))
        assert public == {"A0", "A1", "B0", "B1", "S0", "S1", "Cin", "Cout"}
        assert add.rbm.n_visible == 9
        assert add.rbm.n_hidden == 16
        assert add.constants == {}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ripple_adder_exports_the_unit_terminals(self, n):
        # Every slice width that divides n, the 1-bit adder on a 1-bit slice too.
        for w in (w for w in range(1, n + 1) if n % w == 0):
            add = build_adder(n, builtin_model(f"adder{w}", 6.0))
            assert set(public_terminals(add)) == set(Unit("adder", n).terminals)

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("adder", ["adder1", "adder2"])
    def test_composed_multiplier_exports_the_unit_terminals(self, n, adder):
        mult = build_multiplier(n, builtin_model(f"mult{n // 2}", 6.0), builtin_model(adder, 6.0))
        assert set(public_terminals(mult)) == set(Unit("multiplier", n).terminals)

    def test_ripple_adder_width_must_divide(self):
        two = rbm_from_truth_table(parse_unit(("adder", 2)).table())
        with pytest.raises(ValueError, match="does not divide"):
            build_adder(3, two)

    def test_ripple_adder_exhaustively_sound(self):
        add = build_adder(2, rbm_from_truth_table(parse_unit(("adder", 1)).table()))
        for a in range(4):
            for b in range(4):
                for cin in (0, 1):
                    clamp = {"Cin": cin}
                    for j in range(2):
                        clamp[f"A{j}"] = (a >> j) & 1
                        clamp[f"B{j}"] = (b >> j) & 1
                    d = exact_visible_distribution(add.rbm, clamp=clamp)
                    row = d.support[int(np.argmax(d.probabilities))]
                    s = decode(row, d.names, "S", 2)
                    cout = int(row[list(d.names).index("Cout")])
                    assert s + 4 * cout == a + b + cin

    def test_direct_multiplier_exhaustively_sound(self):
        mult = builtin_model("mult2")
        for a in range(4):
            for b in range(4):
                clamp = {}
                for j in range(2):
                    clamp[f"A{j}"] = (a >> j) & 1
                    clamp[f"B{j}"] = (b >> j) & 1
                d = exact_visible_distribution(mult, clamp=clamp)
                row = d.support[int(np.argmax(d.probabilities))]
                assert decode(row, d.names, "P", 4) == a * b

    def test_gate_built_adder_exact_posterior(self):
        add = build_adder(4, compose(full_adder_netlist()))
        clamp = {"Cin": 0}
        for j in range(4):
            clamp[f"A{j}"] = (9 >> j) & 1
            clamp[f"B{j}"] = (8 >> j) & 1
        d = exact_visible_distribution(add.rbm, clamp=clamp)
        best = int(np.argmax(d.probabilities))
        row = d.support[best]
        s = decode(row, d.names, "S", 4)
        cout = int(row[list(d.names).index("Cout")])
        assert s + 16 * cout == 17
        assert d.probabilities[best] > 0.9

    def test_composed_multiplier_structure(self):
        mult = build_multiplier(
            4, builtin_model("mult2"), rbm_from_truth_table(parse_unit(("adder", 1)).table())
        )
        assert set(public_terminals(mult)) == {
            f"{p}{j}" for p in ("A", "B") for j in range(4)
        } | {f"P{j}" for j in range(8)}
        assert len(mult.constants) == 22
        assert all(bit == 0 for bit in mult.constants.values())
        names = set(mult.rbm.visible_names)
        assert all(term in names for term in mult.constants)

    def test_composed_multiplier_validation(self):
        m2 = builtin_model("mult2")
        fa = rbm_from_truth_table(parse_unit(("adder", 1)).table())
        with pytest.raises(ValueError, match="even"):
            build_multiplier(3, m2, fa)
        with pytest.raises(ValueError, match="width"):
            build_multiplier(8, m2, fa)

    def test_builtin_model_dispatch(self):
        assert isinstance(builtin_model("xor"), Rbm)
        assert builtin_model("xor").n_visible == 3
        fa1 = builtin_model("fa1")
        assert isinstance(fa1, MergedModel)
        assert fa1.rbm.n_visible == 8
        adder1 = builtin_model("adder1")
        assert isinstance(adder1, Rbm)
        assert adder1.n_visible == 5
        adder2 = builtin_model("adder2")
        assert isinstance(adder2, MergedModel)
        assert set(public_terminals(adder2)) == {
            "A0", "A1", "B0", "B1", "S0", "S1", "Cin", "Cout"
        }
        mult2 = builtin_model("mult2")
        assert isinstance(mult2, Rbm)
        assert mult2.weights.shape == (8, 16)
        mult8 = builtin_model("mult8")
        assert isinstance(mult8, MergedModel)
        assert len(public_terminals(mult8)) == 32
        assert mult8.rbm.weights.shape == (179, 1408)
        with pytest.raises(KeyError, match="unknown builtin"):
            builtin_model("foo")
        with pytest.raises(KeyError):
            builtin_model("adder")

    def test_builtin_sharpness_is_forwarded(self):
        sharp = builtin_model("xor", 6.0)
        assert np.max(np.abs(sharp.weights)) == 6.0
        fa1 = builtin_model("fa1", 4.0)
        assert np.max(np.abs(fa1.rbm.weights)) == 4.0
