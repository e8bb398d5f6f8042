"""Merging models by identifying visible units: unions, ties, netlists."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from rbmlogic.cli import save_model
from rbmlogic.exact import (
    ExactDistribution,
    exact_visible_distribution,
    kl_divergence,
)
from rbmlogic.merge import MergedModel, Netlist, compose, merge_pair, public_terminals
from rbmlogic.model import BinaryState, Rbm, dumps_model, energy
from rbmlogic.synthesis import (
    builtin_model,
    full_adder_netlist,
    gate,
    parse_unit,
    rbm_from_truth_table,
)

from .reference import bits_le, random_rbm

ADD_TOL = 1e-10


def all_joint_states(rbm):
    for vk in range(2**rbm.n_visible):
        for hk in range(2**rbm.n_hidden):
            yield (
                np.array(bits_le(vk, rbm.n_visible), float),
                np.array(bits_le(hk, rbm.n_hidden), float),
            )


def energies_by_name(rbm, v, h, names):
    """Energy of ``rbm`` at the sub-state picked out of (v, h) by name."""
    sub_v = np.array([v[names.index(n)] for n in rbm.visible_names])
    return energy(rbm, BinaryState(sub_v, h))


class TestDisjointUnion:
    """compose with no connections stacks its components side by side."""

    @staticmethod
    def union(a, b):
        return compose(Netlist([("a", a), ("b", b)])).rbm

    def test_block_structure(self):
        rng = np.random.default_rng(11)
        a = random_rbm(rng, 3, 2, "a")
        b = random_rbm(rng, 2, 3, "b")
        u = self.union(a, b)
        assert u.weights.shape == (5, 5)
        assert np.array_equal(u.weights[:3, :2], a.weights)
        assert np.array_equal(u.weights[3:, 2:], b.weights)
        assert np.all(u.weights[:3, 2:] == 0.0)
        assert np.all(u.weights[3:, :2] == 0.0)
        assert np.array_equal(u.visible_bias, np.concatenate([a.visible_bias, b.visible_bias]))
        assert np.array_equal(u.hidden_bias, np.concatenate([a.hidden_bias, b.hidden_bias]))
        assert u.visible_names == tuple(f"{cid}.{n}" for cid, rbm in (("a", a), ("b", b))
                                        for n in rbm.visible_names)

    def test_energy_splits_into_component_energies(self):
        rng = np.random.default_rng(12)
        a = random_rbm(rng, 2, 2, "a")
        b = random_rbm(rng, 2, 1, "b")
        u = self.union(a, b)
        for v, h in all_joint_states(u):
            ea = energy(a, BinaryState(v[:2], h[:2]))
            eb = energy(b, BinaryState(v[2:], h[2:]))
            assert energy(u, BinaryState(v, h)) == approx(ea + eb, abs=ADD_TOL)


class TestMergePair:
    def test_single_unit_parameters(self):
        a = Rbm([[2.0]], [0.5], [-1.0], ("x",))
        b = Rbm([[3.0]], [0.25], [0.75], ("y",))
        m = merge_pair(a, b, [("x", "y")])
        assert m.visible_names == ("x",)
        assert np.array_equal(m.weights, [[2.0, 3.0]])
        assert np.array_equal(m.visible_bias, [0.75])
        assert np.array_equal(m.hidden_bias, [-1.0, 0.75])

    def test_shapes_and_blocks(self):
        rng = np.random.default_rng(21)
        a = random_rbm(rng, 3, 2, "a")
        b = random_rbm(rng, 2, 1, "b")
        m = merge_pair(a, b, [("a1", "b0")])
        assert m.weights.shape == (4, 3)
        assert m.visible_names == ("a0", "a1", "a2", "b1")
        assert np.array_equal(m.weights[:3, :2], a.weights)
        assert np.array_equal(m.weights[1, 2:], b.weights[0])
        assert np.all(m.weights[0, 2:] == 0.0)
        assert np.all(m.weights[2, 2:] == 0.0)
        assert np.all(m.weights[3, :2] == 0.0)
        assert np.array_equal(m.weights[3, 2:], b.weights[1])
        assert m.visible_bias[1] == a.visible_bias[1] + b.visible_bias[0]
        assert m.visible_bias[3] == b.visible_bias[1]

    @given(
        seed=st.integers(0, 10_000),
        nv_a=st.integers(1, 3),
        nh_a=st.integers(1, 2),
        nv_b=st.integers(1, 3),
        nh_b=st.integers(1, 2),
        data=st.data(),
    )
    def test_energy_additivity_exhaustive(self, seed, nv_a, nh_a, nv_b, nh_b, data):
        rng = np.random.default_rng(seed)
        a = random_rbm(rng, nv_a, nh_a, "a")
        b = random_rbm(rng, nv_b, nh_b, "b")
        d = data.draw(st.integers(1, min(nv_a, nv_b)))
        pairs = [(f"a{i}", f"b{i}") for i in range(d)]
        m = merge_pair(a, b, pairs)
        assert m.n_visible == nv_a + nv_b - d
        assert m.n_hidden == nh_a + nh_b
        b_to_a = {bt: at for at, bt in pairs}
        names = list(m.visible_names)
        for v, h in all_joint_states(m):
            va = v[:nv_a]
            vb = np.array([v[names.index(b_to_a.get(n, n))] for n in b.visible_names])
            ea = energy(a, BinaryState(va, h[:nh_a]))
            eb = energy(b, BinaryState(vb, h[nh_a:]))
            assert energy(m, BinaryState(v, h)) == approx(ea + eb, abs=ADD_TOL)

    def test_empty_pairs_raises(self):
        rng = np.random.default_rng(22)
        a = random_rbm(rng, 2, 1, "a")
        b = random_rbm(rng, 2, 1, "b")
        with pytest.raises(ValueError, match="nonempty"):
            merge_pair(a, b, [])

    def test_duplicate_terminal_raises(self):
        rng = np.random.default_rng(23)
        a = random_rbm(rng, 2, 1, "a")
        b = random_rbm(rng, 2, 1, "b")
        with pytest.raises(ValueError, match="at most one pair"):
            merge_pair(a, b, [("a0", "b0"), ("a0", "b1")])

    def test_unknown_terminal_raises_key_error(self):
        rng = np.random.default_rng(24)
        a = random_rbm(rng, 2, 1, "a")
        b = random_rbm(rng, 2, 1, "b")
        with pytest.raises(KeyError, match="unknown terminal"):
            merge_pair(a, b, [("a0", "nope")])

    def test_unmerged_collision_raises(self):
        rng = np.random.default_rng(25)
        a = random_rbm(rng, 2, 1, "t")
        b = random_rbm(rng, 2, 1, "t")
        with pytest.raises(ValueError, match="rename first"):
            merge_pair(a, b, [("t0", "t0")])


class TestTieTerminals:
    """compose with a connection inside one component sums the two rows."""

    @staticmethod
    def tie(rbm, t1, t2):
        return compose(Netlist([("r", rbm)], [(f"r.{t1}", f"r.{t2}")])).rbm

    def test_parameter_sums(self):
        rng = np.random.default_rng(31)
        r = random_rbm(rng, 4, 3, "v")
        t = self.tie(r, "v1", "v3")
        assert t.visible_names == ("r.v0", "r.v1", "r.v2")
        assert np.array_equal(t.weights[0], r.weights[0])
        assert np.array_equal(t.weights[2], r.weights[2])
        assert np.array_equal(t.weights[1], r.weights[1] + r.weights[3])
        assert t.visible_bias[1] == r.visible_bias[1] + r.visible_bias[3]
        assert np.array_equal(t.hidden_bias, r.hidden_bias)

    def test_energy_matches_equal_bit_constraint(self):
        rng = np.random.default_rng(32)
        r = random_rbm(rng, 3, 2, "v")
        t = self.tie(r, "v0", "v2")
        for v, h in all_joint_states(t):
            expanded = np.array([v[0], v[1], v[0]])
            assert energy(t, BinaryState(v, h)) == approx(
                energy(r, BinaryState(expanded, h)), abs=ADD_TOL
            )

    def test_merge_pair_equals_tie_of_union(self):
        rng = np.random.default_rng(34)
        a = random_rbm(rng, 3, 2, "a")
        b = random_rbm(rng, 3, 2, "b")
        pairs = [("a0", "b1"), ("a2", "b0")]
        m = merge_pair(a, b, pairs)
        t = compose(Netlist([("a", a), ("b", b)],
                            [(f"a.{ta}", f"b.{tb}") for ta, tb in pairs])).rbm
        assert tuple(n.split(".")[1] for n in t.visible_names) == m.visible_names
        assert np.array_equal(t.weights, m.weights)
        assert np.array_equal(t.visible_bias, m.visible_bias)
        assert np.array_equal(t.hidden_bias, m.hidden_bias)


class TestCompose:
    def test_single_component_is_prefixed_copy(self):
        g = gate("and")
        mm = compose(Netlist([("g", g)]))
        assert mm.rbm.visible_names == ("g.in1", "g.in2", "g.out")
        assert np.array_equal(mm.rbm.weights, g.weights)
        assert np.array_equal(mm.rbm.visible_bias, g.visible_bias)
        assert np.array_equal(mm.rbm.hidden_bias, g.hidden_bias)
        assert mm.terminal_map == {"g.in1": 0, "g.in2": 1, "g.out": 2}
        assert mm.constants == {}
        assert public_terminals(mm) == []

    def test_merged_unit_takes_lexicographically_first_name(self):
        net = Netlist(
            [("g0", gate("xor")), ("g1", gate("xor"))],
            [("g0.out", "g1.in1")],
        )
        mm = compose(net)
        assert "g0.out" in mm.rbm.visible_names
        assert "g1.in1" not in mm.rbm.visible_names
        assert mm.terminal_map["g0.out"] == mm.terminal_map["g1.in1"]
        assert mm.rbm.n_visible == 5
        assert mm.rbm.n_hidden == 8

    def test_connection_order_does_not_change_result(self):
        def build(conns):
            comps = [(f"g{k}", gate("xor")) for k in range(3)]
            return compose(Netlist(comps, conns))

        forward = [("g0.out", "g1.in1"), ("g1.out", "g2.in1")]
        backward = [("g1.out", "g2.in1"), ("g0.out", "g1.in1")]
        flipped = [("g2.in1", "g1.out"), ("g1.in1", "g0.out")]
        ref = build(forward)
        for conns in (backward, flipped):
            other = build(conns)
            assert other.rbm.visible_names == ref.rbm.visible_names
            assert np.array_equal(other.rbm.weights, ref.rbm.weights)
            assert np.array_equal(other.rbm.visible_bias, ref.rbm.visible_bias)
            assert other.terminal_map == ref.terminal_map

    def test_fanout_ties_three_terminals_into_one_unit(self):
        comps = [("s", gate("xor")), ("g1", gate("and")), ("g2", gate("or"))]
        conns = [("s.out", "g1.in1"), ("s.out", "g2.in1")]
        mm = compose(Netlist(comps, conns))
        vi = mm.terminal_map["s.out"]
        assert mm.terminal_map["g1.in1"] == vi
        assert mm.terminal_map["g2.in1"] == vi
        assert mm.rbm.n_visible == 3 * 3 - 2
        s, g1, g2 = gate("xor"), gate("and"), gate("or")
        row = mm.rbm.weights[vi]
        assert np.array_equal(row[:4], s.weights[2])
        assert np.array_equal(row[4:8], g1.weights[0])
        assert np.array_equal(row[8:], g2.weights[0])
        assert mm.rbm.visible_bias[vi] == approx(
            s.visible_bias[2] + g1.visible_bias[0] + g2.visible_bias[0], abs=1e-15
        )

    def test_full_adder_netlist_structure(self):
        mm = compose(full_adder_netlist())
        assert mm.rbm.n_visible == 8
        assert mm.rbm.n_hidden == 20
        assert public_terminals(mm) == ["A", "B", "Cin", "S", "Cout"]
        assert len(mm.terminal_map) == 15
        assert len(set(mm.terminal_map.values())) == 8

    def test_full_adder_valid_mass_and_direct_comparison(self):
        mm = compose(full_adder_netlist())
        merged_mass = self._adder_truth_mass(exact_visible_distribution(mm.rbm))
        direct = rbm_from_truth_table(parse_unit(("adder", 1)).table())
        direct_mass = self._adder_truth_mass(exact_visible_distribution(direct))
        assert merged_mass == approx(0.9889024244305604, abs=1e-12)
        assert direct_mass == approx(0.9926065107403327, abs=1e-12)
        assert direct_mass > merged_mass

    @staticmethod
    def _adder_truth_mass(dist):
        idx = [dist.names.index(n) for n in ("A", "B", "Cin", "S", "Cout")]
        mass = 0.0
        for row, p in zip(dist.support, dist.probabilities):
            a, b, cin, s, cout = (int(row[i]) for i in idx)
            total = a + b + cin
            if s == total % 2 and cout == total // 2:
                mass += p
        return mass

    def test_two_components_with_exports_equal_merge_pair(self):
        rng = np.random.default_rng(42)
        a = random_rbm(rng, 3, 2, "a")
        b = random_rbm(rng, 4, 3, "b")
        pairs = [("a0", "b2"), ("a2", "b1")]
        tied = {tb for _, tb in pairs}
        exports = {f"a.{n}": n for n in a.visible_names}
        exports |= {f"b.{n}": n for n in b.visible_names if n not in tied}
        conns = [(f"a.{ta}", f"b.{tb}") for ta, tb in pairs]
        mm = compose(Netlist([("a", a), ("b", b)], conns, exports))
        m = merge_pair(a, b, pairs)
        assert mm.rbm.visible_names == m.visible_names
        for part in ("weights", "visible_bias", "hidden_bias"):
            assert getattr(mm.rbm, part).tobytes() == getattr(m, part).tobytes()

    def test_merged_distribution_is_product_of_experts(self):
        rng = np.random.default_rng(41)
        a = random_rbm(rng, 3, 2, "a")
        b = random_rbm(rng, 3, 2, "b")
        m = merge_pair(a, b, [("a2", "b0")])
        dm = exact_visible_distribution(m)
        da = exact_visible_distribution(a)
        db = exact_visible_distribution(b)
        merged_names = list(dm.names)
        prod = np.empty(len(dm.support))
        for i, row in enumerate(dm.support):
            bits = dict(zip(merged_names, (int(x) for x in row)))
            va = [bits[n] for n in a.visible_names]
            vb = [bits.get(n, bits["a2"]) for n in b.visible_names]
            pa = da.probabilities[da.index_of(va)]
            pb = db.probabilities[db.index_of(vb)]
            prod[i] = pa * pb
        prod /= prod.sum()
        assert np.max(np.abs(prod - dm.probabilities)) < ADD_TOL

    def test_xor_chain_divergence_grows_linearly(self):
        frozen = [
            0.0024879581812669027,
            0.004975916362532917,
            0.007463874543799154,
            0.009951832725067167,
        ]
        for length, expected in zip((1, 2, 3, 4), frozen):
            kl = self._xor_chain_kl(length)
            assert kl == approx(expected, rel=1e-9)
            assert kl == approx(length * frozen[0], rel=1e-6)

    @staticmethod
    def _xor_chain_kl(length):
        comps = [(f"g{k}", gate("xor")) for k in range(length)]
        conns = [(f"g{k}.out", f"g{k + 1}.in1") for k in range(length - 1)]
        mm = compose(Netlist(comps, conns))
        dist = exact_visible_distribution(mm.rbm)
        names = dist.names
        first = names.index("g0.in1")
        others = [names.index(f"g{k}.in2") for k in range(length)]
        outs = [mm.terminal_map[f"g{k}.out"] for k in range(length)]
        ideal = np.zeros(len(dist.support))
        for i, row in enumerate(dist.support):
            x = int(row[first])
            ok = True
            for k in range(length):
                x ^= int(row[others[k]])
                if int(row[outs[k]]) != x:
                    ok = False
                    break
            if ok:
                ideal[i] = 1.0
        ideal /= ideal.sum()
        target = ExactDistribution(names, dist.support, ideal, 0.0, {})
        return float(kl_divergence(target, dist))

    def test_exports_rename_and_collisions(self):
        comps = [("g0", gate("xor")), ("g1", gate("xor"))]
        mm = compose(
            Netlist(comps, [("g0.out", "g1.in1")], exports={"g1.in1": "W"})
        )
        assert "W" in mm.rbm.visible_names
        assert public_terminals(mm) == ["W"]
        with pytest.raises(ValueError, match="collision on merged unit"):
            compose(
                Netlist(
                    comps,
                    [("g0.out", "g1.in1")],
                    exports={"g0.out": "X", "g1.in1": "Y"},
                )
            )
        with pytest.raises(ValueError, match="used twice"):
            compose(Netlist(comps, [], exports={"g0.in1": "X", "g1.in2": "X"}))

    def test_constants_inherited_through_nesting(self):
        inner = compose(Netlist([("n", gate("not"))]))
        pinned = MergedModel(inner.rbm, inner.terminal_map, {"n.in1": 0})
        plain = compose(Netlist([("m", pinned)]))
        assert plain.constants == {"m.n.in1": 0}
        renamed = compose(Netlist([("m", pinned)], exports={"m.n.in1": "Z"}))
        assert renamed.constants == {"Z": 0}

    def test_error_paths(self):
        comps = [("g", gate("and")), ("g", gate("or"))]
        with pytest.raises(ValueError, match="duplicate component ids"):
            compose(Netlist(comps))
        with pytest.raises(KeyError, match="dangling"):
            compose(Netlist([("g", gate("and"))], [("g.out", "h.in1")]))
        with pytest.raises(KeyError, match="unknown terminal"):
            compose(Netlist([("g", gate("and"))], exports={"h.out": "X"}))


def _seeded_pair():
    rng = np.random.default_rng(51)
    return random_rbm(rng, 5, 3, "a"), random_rbm(rng, 4, 2, "b")


class TestMergeOutputsPinned:
    """SHA-256 of merge results, computed when each merge function
    allocated and summed its own weight matrix."""

    # cli.save_model bytes, model then sidecar, of builtins at sharpness 6.
    # The sidecar digests (fa1, adder16, mult8) were recomputed when the
    # sidecar stopped carrying its unread exports list: the model bytes
    # and every other sidecar field kept their bytes.
    BUILTIN_DIGESTS = {
        "fa1": "0d0d34577c2aef5d38ef3b231335258a4081940607cb2160747077c988aa913d",
        "adder16": "44d9ad6aeab2520828296554ea1fabda60fe70785c49f4dd58eeb578c9941732",
        "mult4": "80b2b7b2f35a221b4e98a0c966f7b33454449a483e8a9332baa2f5ef1574f57b",
        "mult8": "19ecb04837e4faeee9cdeb5e355d1a72b25b8d4c9aec88c3b800051fc2abd55a",
    }

    # dumps_model bytes.
    OPERATIONS = {
        "merge_pair": (lambda a, b: merge_pair(a, b, [("a4", "b1"), ("a0", "b3")]),
                       "69258466ab9e5fac65b138847a6e6ffd26d7629cb0c7cee1f915ccd462fd6e73"),
    }

    @pytest.mark.parametrize("name", sorted(BUILTIN_DIGESTS))
    def test_saved_builtin_bytes(self, name, tmp_path):
        digest = hashlib.sha256()
        for path in save_model(builtin_model(name, 6.0), tmp_path / f"{name}.json"):
            digest.update(path.read_bytes())
        assert digest.hexdigest() == self.BUILTIN_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(OPERATIONS))
    def test_operation_bytes(self, name):
        fn, expected = self.OPERATIONS[name]
        got = hashlib.sha256(dumps_model(fn(*_seeded_pair())).encode()).hexdigest()
        assert got == expected
