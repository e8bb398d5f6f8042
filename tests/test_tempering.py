"""Replica exchange search and the unchanged sampler streams.

The default ``SolveSettings`` (no beta ladder) must keep the block Gibbs
stream contract: the multistart and solve digests below were computed
from the histograms of the code before replica exchange was added, on
the same grid of models, clamps and seeds.  The replica exchange,
success curve and run_chain digests were computed from the per-sweep
draw code before sweeps drew their uniforms in blocks; the grid includes
a composed multiplier with constants and 91 visible units.
"""

import functools
import gc
import hashlib

import numpy as np
import pytest

from rbmlogic import exact, sampler
from rbmlogic.exact import exact_visible_distribution, tv_distance
from rbmlogic.merge import MergedModel
from rbmlogic.model import Rbm, free_energy_batch
from rbmlogic.sampler import multistart, replica_exchange, run_chain
from rbmlogic.synthesis import (build_multiplier, builtin_model, parse_unit,
                                rbm_from_truth_table)
from rbmlogic.tasks import SolveSettings, TaskSpec, pose, solve, success_curve

from .reference import random_rbm

GRID = [("and", 2.0, {"in1": 1}), ("fa1", 12.0, {"A": 1, "B": 0}),
        ("adder2", 6.0, {"A0": 1, "B1": 1, "Cin": 0}),
        ("mult2", 6.0, {"P1": 1, "P2": 1})]

TASKS = [("adder2", TaskSpec("add", 2, {"A": 3, "B": 2, "Cin": 1})),
         ("adder2", TaskSpec("subtract", 2, {"S": 3, "B": 1})),
         ("mult2", TaskSpec("factor", 2, {"P": 6})),
         ("mult2", TaskSpec("multiply", 2, {"A": 3, "B": 2}))]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def multistart_digests() -> list[str]:
    out = []
    for name, sharpness, clamp in GRID:
        for seed in (0, 7):
            h = multistart(builtin_model(name, sharpness), clamp, n_chains=3,
                           n_sweeps=200, burn_in=50, thin=2, seed=seed)
            out.append(_digest((h.names, sorted(h.counts.items()))))
    return out


def solve_digests() -> list[str]:
    out = []
    for name, task in TASKS:
        for seed in (0, 7):
            r = solve(builtin_model(name, 6.0), task,
                      SolveSettings(n_chains=4, n_sweeps=300, burn_in=100, seed=seed))
            out.append(_digest((r.terminals, r.operands, r.count, r.total,
                                r.top, r.success, r.factor_pairs)))
    return out


@functools.cache
def composed_mult4():
    """4-bit multiplier composed of mult2 and full adders: 22 zero constants."""
    return build_multiplier(4, builtin_model("mult2"),
                            rbm_from_truth_table(parse_unit(("adder", 1)).table()))


def replica_digests() -> list[str]:
    factor = pose(composed_mult4(), TaskSpec("factor", 4, {"P": 15}))
    grid = [(builtin_model("fa1", 6.0), {"A": 1, "B": 0}, (0.5, 1.0), 2, 2, None),
            (builtin_model("mult2", 6.0), {"P1": 1, "P2": 1}, (0.4, 0.7, 1.0), 2, 1, None),
            (composed_mult4(), factor.clamp, (0.3, 0.6, 1.0), 2, 3, factor.record)]
    out = []
    for model, clamp, betas, n_ladders, thin, record in grid:
        for seed in (0, 7):
            h = replica_exchange(model, clamp, betas=betas, n_ladders=n_ladders,
                                 n_sweeps=150, burn_in=30, thin=thin, seed=seed,
                                 record_terminals=record)
            out.append(_digest((h.names, sorted(h.counts.items()))))
    return out


def success_curve_digests() -> list[str]:
    adds = [TaskSpec("add", 2, {"A": a, "B": b, "Cin": a & 1}) for a in range(4) for b in (1, 2)]
    subs = [TaskSpec("subtract", 2, {"S": s, "B": 1}) for s in range(1, 4)]
    soft = builtin_model("adder2", 3.0)
    # The internal carry as a constant: valid for tasks without a carry out of bit 0.
    no_carry = MergedModel(soft.rbm, soft.terminal_map, constants={"fa0.Cout": 0})
    no_carry_tasks = [TaskSpec("add", 2, {"A": a, "B": b, "Cin": 0})
                      for a in range(4) for b in range(4) if not a & b & 1]
    grid = [(builtin_model("adder2", 6.0), adds + subs, [3, 12, 60], 3, 2),
            (builtin_model("mult2", 6.0), [TaskSpec("factor", 2, {"P": p}) for p in (4, 6, 9)],
             [2, 8, 40], 2, 0),
            (no_carry, no_carry_tasks, [2, 5, 12, 60], 2, 1)]
    out = []
    for model, tasks, checkpoints, n_chains, burn_in in grid:
        for seed in (0, 7):
            curve = success_curve(model, tasks, checkpoints, n_chains=n_chains, seed=seed,
                                  burn_in=burn_in)
            out.append(_digest(curve))
    return out


def run_chain_digests() -> list[str]:
    grid = [(random_rbm(np.random.default_rng(11), 5, 4), None, 120, 10, 3, None),
            (builtin_model("fa1", 6.0), {"A": 1, "B": 1}, 200, 0, 1, ["S", "Cout"]),
            (builtin_model("adder2", 6.0), {"A0": 1, "B1": 1, "Cin": 0}, 90, 25, 4, None),
            (composed_mult4(), pose(composed_mult4(), TaskSpec("factor", 4, {"P": 35})).clamp,
             150, 40, 2, None)]
    out = []
    for model, clamp, n_sweeps, burn_in, thin, record in grid:
        for seed in (0, 7):
            trace, h = run_chain(model, clamp, n_sweeps=n_sweeps, burn_in=burn_in, thin=thin,
                                 seed=seed, record_terminals=record)
            out.append(_digest((trace.samples.shape, trace.samples.tobytes(),
                                trace.free_energy.tobytes(), h.names,
                                sorted(h.counts.items()))))
    return out


def _observed(hist, exact) -> np.ndarray:
    """Recorded frequencies of the exact distribution's support rows."""
    marg = hist.marginal(exact.names)
    return np.array([marg.frequency(tuple(int(b) for b in row)) for row in exact.support])


class TestDefaultPathUnchanged:
    def test_multistart_histograms_match_block_gibbs_contract(self):
        assert multistart_digests() == MULTISTART_DIGESTS

    def test_default_solve_matches_block_gibbs_contract(self):
        assert solve_digests() == SOLVE_DIGESTS

    def test_replica_exchange_histograms_are_pinned(self):
        assert replica_digests() == REPLICA_DIGESTS

    def test_success_curves_are_pinned(self):
        assert success_curve_digests() == SUCCESS_CURVE_DIGESTS

    def test_run_chain_traces_are_pinned(self):
        assert run_chain_digests() == RUN_CHAIN_DIGESTS

    def test_default_solve_counts_every_chain_sweep(self):
        r = solve(builtin_model("adder2", 6.0), TASKS[0][1],
                  SolveSettings(n_chains=4, n_sweeps=300, burn_in=100))
        assert r.chain_sweeps == 4 * 300
        assert r.total == 4 * 200


def _supports(plan):
    return [units for units, _ in plan.groups]


def _tabulated_free_energy(rbm, v):
    """F(v) as the tempered sweep reads it: -b.v plus each group's table entry."""
    plan = exact.component_plan(rbm)
    offsets, table = plan.tables
    index = sampler._table_indices(_supports(plan), v)
    return -(v @ rbm.visible_bias) + table[offsets + index].sum(axis=1)


class TestFreeEnergyTables:
    def test_tables_reproduce_free_energy(self):
        rng = np.random.default_rng(3)
        for rbm in (builtin_model("adder4", 6.0).rbm, builtin_model("mult2", 6.0),
                    random_rbm(rng, 7, 70)):
            v = (rng.random((20, rbm.n_visible)) < 0.5).astype(float)
            assert np.allclose(_tabulated_free_energy(rbm, v), free_energy_batch(rbm, v),
                               atol=1e-9)

    def test_one_table_per_distinct_component(self):
        """The 52 groups of sharpness-12 mult8 share 7 tables: 2 of 2^16 and 5 of 2^5 entries."""
        plan = exact.component_plan(builtin_model("mult8", 12.0).rbm)
        offsets, table = plan.tables
        assert len(plan.groups) == 52
        assert len(set(offsets.tolist())) == 7
        assert table.size == 131_232

    def test_equal_support_sizes_with_different_weights_get_separate_tables(self):
        rng = np.random.default_rng(5)
        block = rng.normal(size=(2, 3))
        weights = np.zeros((8, 12))
        weights[0:2, 0:3] = weights[2:4, 3:6] = block  # two copies of one component
        weights[4:6, 6:9] = block + 0.5  # same shape, other weights
        weights[6:8, 9:12] = block  # same weights, other hidden biases
        bias = np.tile(rng.normal(size=3), 4)
        bias[9:12] += 1.0
        rbm = Rbm(weights, rng.normal(size=8), bias, tuple(f"v{i}" for i in range(8)))
        plan = exact.component_plan(rbm)
        offsets, table = plan.tables
        assert table.size == 3 * 4
        assert [s.tolist() for s in _supports(plan)] == [[6, 7], [4, 5], [2, 3], [0, 1]]
        assert offsets.tolist() == [0, 4, 8, 8]
        v = (rng.random((20, 8)) < 0.5).astype(float)
        assert np.allclose(_tabulated_free_energy(rbm, v), free_energy_batch(rbm, v), atol=1e-9)

    def test_refuses_a_group_wider_than_the_table_limit(self):
        n = exact.MAX_TABLE_UNITS + 1
        rbm = Rbm(np.ones((n, 1)), np.zeros(n), np.zeros(1), tuple(f"v{i}" for i in range(n)))
        with pytest.raises(ValueError, match=f"touches {n} visible units; tables are limited"):
            exact.component_plan(rbm).tables

    def test_solves_on_one_model_build_its_tables_once(self, monkeypatch):
        built, passes = [], exact.visible_passes

        def counting(weights, *biases):
            built.append(len(weights))
            return passes(weights, *biases)

        monkeypatch.setattr(exact, "visible_passes", counting)
        model = builtin_model("mult2", 6.0)
        settings = SolveSettings(n_chains=2, n_sweeps=50, seed=1, betas=(0.5, 1.0))
        for p in (6, 4):
            solve(model, TaskSpec("factor", 2, {"P": p}), settings)
        assert built == [model.n_visible]
        key = id(model)
        assert key in exact._PLANS
        del model
        gc.collect()
        assert key not in exact._PLANS  # dropped with its model

    def test_color_classes_partition_free_units_without_shared_groups(self):
        model = builtin_model("adder4", 6.0)
        free = np.arange(model.rbm.n_visible)
        classes = sampler._color_classes(_supports(exact.component_plan(model.rbm)),
                                         model.rbm.n_visible, free)
        units = np.sort(np.concatenate([c[0] for c in classes]))
        assert np.array_equal(units, free)
        for members, _, groups, _, _ in classes:
            assert len(set(groups.tolist())) == len(groups)


class TestComponentPlan:
    """Block Gibbs reads a model's groups, found once; only replica exchange builds tables."""

    def test_block_gibbs_solve_builds_no_table(self, monkeypatch):
        def refuse(plan):
            raise AssertionError("a free-energy table was built")

        monkeypatch.setattr(exact.ComponentPlan, "tables", property(refuse))
        model = builtin_model("mult8", 12.0)
        task = TaskSpec("factor", 8, {"P": 143})
        settings = SolveSettings(n_chains=16, n_sweeps=20)
        assert settings.n_chains * model.rbm.weights.size \
            >= sampler.BLOCK_MIN_ENTRIES  # the block path
        solve(model, task, settings)
        with pytest.raises(AssertionError, match="table was built"):
            solve(model, task, SolveSettings(n_chains=1, n_sweeps=1, betas=(0.5, 1.0)))

    def test_block_gibbs_solves_on_one_model_find_its_groups_once(self, monkeypatch):
        scanned, find = [], exact._hidden_groups

        def counting(w):
            scanned.append(w.shape)
            return find(w)

        monkeypatch.setattr(exact, "_hidden_groups", counting)
        model = builtin_model("adder16", 6.0)
        settings = SolveSettings(n_chains=32, n_sweeps=20)
        assert settings.n_chains * model.rbm.weights.size \
            >= sampler.BLOCK_MIN_ENTRIES  # the block path
        for a in (3, 5):
            solve(model, TaskSpec("add", 16, {"A": a, "B": 7}), settings)
        assert scanned == [model.rbm.weights.shape]


class TestReplicaExchange:
    # With ~2e4 recorded beta = 1 samples of a <= 64-state distribution
    # the sampling error of TV is ~0.02; 0.05 leaves room for it.
    TV_BOUND = 0.05

    @pytest.mark.parametrize("case", range(3))
    def test_beta_one_rungs_match_exact_distribution(self, case):
        rng = np.random.default_rng(40 + case)
        rbm = random_rbm(rng, 6, 4)
        clamp = {rbm.visible_names[0]: 1} if case == 2 else None
        hist = replica_exchange(rbm, clamp, betas=(0.3, 0.6, 1.0), n_ladders=4,
                                n_sweeps=5100, burn_in=100, seed=case)
        exact = exact_visible_distribution(rbm, clamp=clamp)
        assert tv_distance(_observed(hist, exact), exact.probabilities) <= self.TV_BOUND
        assert hist.total == 4 * 5000

    def test_composed_model_with_constants_matches_exact_distribution(self):
        model = builtin_model("adder2", 2.0)
        clamp = {"A0": 1, "B0": 1, "A1": 0, "B1": 1}
        hist = replica_exchange(model, clamp, betas=(0.5, 1.0), n_ladders=4,
                                n_sweeps=5100, burn_in=100, seed=5)
        exact = exact_visible_distribution(model, clamp=clamp)
        assert tv_distance(_observed(hist, exact), exact.probabilities) <= self.TV_BOUND

    def test_pure_bias_model_and_unconnected_hidden_units(self):
        names = ("v0", "v1", "v2")
        bias_only = Rbm(np.zeros((3, 0)), np.array([0.5, -1.0, 2.0]), np.zeros(0), names)
        weights = np.array([[1.0, 0.0], [-2.0, 0.0], [0.5, 0.0]])
        dangling = Rbm(weights, np.zeros(3), np.array([0.3, -0.7]), names)
        for rbm in (bias_only, dangling):
            hist = replica_exchange(rbm, betas=(0.5, 1.0), n_ladders=4,
                                    n_sweeps=5100, burn_in=100, seed=2)
            exact = exact_visible_distribution(rbm)
            assert tv_distance(_observed(hist, exact), exact.probabilities) <= self.TV_BOUND

    def test_replays_exactly_from_its_seed(self):
        rbm = builtin_model("mult2", 6.0)
        runs = [replica_exchange(rbm, {"P0": 0, "P1": 1, "P2": 1}, betas=(0.5, 1.0),
                                 n_ladders=3, n_sweeps=200, seed=9) for _ in range(2)]
        assert runs[0].counts == runs[1].counts

    def test_chain_sweeps_count_every_replica(self):
        settings = SolveSettings(n_chains=3, n_sweeps=200, burn_in=50, seed=1,
                                 betas=(0.25, 0.5, 1.0))
        r = solve(builtin_model("mult2", 6.0), TaskSpec("factor", 2, {"P": 6}), settings)
        assert r.chain_sweeps == 3 * 3 * 200
        assert r.total == 3 * 150  # only the beta = 1 rung records

    @pytest.mark.parametrize("betas", [(0.5,), (1.0, 0.5), (0.5, 0.5, 1.0), (-1.0, 1.0)])
    def test_rejects_bad_ladders(self, betas):
        with pytest.raises(ValueError):
            replica_exchange(builtin_model("and"), betas=betas, n_sweeps=10)

    def test_needs_a_ladder(self):
        with pytest.raises(ValueError, match="need n_ladders >= 1"):
            replica_exchange(builtin_model("and"), betas=(0.5, 1.0), n_ladders=0, n_sweeps=10)


MULTISTART_DIGESTS = [
    "ad8fedfcd19ea4ac",
    "9ce71527641a84f8",
    "70d1a9cb964c1343",
    "50e1edc1db6bdeda",
    "ad75c6414511c6b4",
    "5ad11eb7343400d3",
    "f3460aa704344019",
    "fb28ac4ea0d82d29",
]
SOLVE_DIGESTS = [
    "960ad7ec10d2619d",
    "9348080d92ecc2ba",
    "34ec7debe1c64407",
    "ecdec23dc265fabb",
    "365580297dffd12c",
    "ad938b6b1f559fe5",
    "a4d104139e6f3eab",
    "4bb69b91c8a3b2d5",
]
REPLICA_DIGESTS = [
    "5b74b55390e780e8",
    "938400a8f5620d94",
    "7d320b40c19ed663",
    "29db7107fea56b2b",
    "8f20d8070221d33c",
    "cb4b02a491d3f21d",
]
SUCCESS_CURVE_DIGESTS = [
    "c1d2755f9c930536",
    "0db4a5cd5c654226",
    "caaa63b275fc3b18",
    "0c90f6c0b24c21b4",
    "7f7b02521e5b3ec7",
    "474682305b3cbbeb",
]
RUN_CHAIN_DIGESTS = [
    "10dc53f4e73bf9c8",
    "c5e605206cd03d0d",
    "e6cb901352c09a71",
    "2c17dfe730cb9685",
    "9de1e9258fc0b0e8",
    "643b326bd04973ce",
    "25e537d1be7109d8",
    "e792d4d7d0b8d37b",
]
