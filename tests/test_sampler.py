"""Clamped block Gibbs sampling: chains, pooling, diagnostics, success curves."""

import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx
from scipy.special import expit

from rbmlogic.exact import (
    exact_visible_distribution,
    gibbs_transition_matrix,
    tv_distance,
)
from rbmlogic import exact, sampler
from rbmlogic.merge import MergedModel, clamp_arrays, compose, model_parts, resolve_clamp
from rbmlogic.model import Rbm
from rbmlogic.sampler import (
    ChainTrace,
    Histogram,
    autocorrelation,
    integrated_autocorrelation_time,
    mode_estimate,
    multistart,
    run_chain,
)
from rbmlogic.synthesis import (
    TruthTable,
    builtin_model,
    full_adder_netlist,
    gate,
    rbm_from_truth_table,
)
from rbmlogic.tasks import TaskSpec, pose, success_curve

from .reference import random_rbm, ref_block_gibbs


def zero_rbm(nv, nh):
    return Rbm(np.zeros((nv, nh)), np.zeros(nv), np.zeros(nh),
               tuple(f"v{i}" for i in range(nv)))


class TestHistogram:
    def test_counting_and_frequency(self):
        h = Histogram(("a", "b"))
        assert h.total == 0
        assert h.frequency((0, 0)) == 0.0
        h.add((0, 1))
        h.add((0, 1), weight=2)
        h.add((1, 1))
        assert h.total == 4
        assert h.frequency((0, 1)) == approx(0.75)
        assert h.top(1) == [((0, 1), 3)]

    def test_addition_pools_counts(self):
        h1 = Histogram(("a",), {(0,): 3, (1,): 1})
        h2 = Histogram(("a",), {(1,): 2})
        pooled = h1 + h2
        assert pooled.counts == {(0,): 3, (1,): 3}
        with pytest.raises(ValueError, match="different terminals"):
            h1 + Histogram(("b",))

    def test_marginal(self):
        h = Histogram(("a", "b"), {(0, 1): 2, (1, 1): 3, (1, 0): 1})
        m = h.marginal(["b"])
        assert m.counts == {(1,): 5, (0,): 1}

    def test_mode_breaks_ties_lexicographically(self):
        h = Histogram(("a", "b"), {(1, 0): 5, (0, 1): 5, (1, 1): 2})
        assert mode_estimate(h) == ((0, 1), 5)
        with pytest.raises(ValueError, match="empty"):
            mode_estimate(Histogram(("a",)))


def _dict_counts(items):
    """Plain dict counting of (key, weight) pairs: the reference histogram."""
    counts = {}
    for key, n in items:
        counts[key] = counts.get(key, 0) + n
    return counts


def _dict_top(counts, k):
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def _bit_keys(width):
    return st.tuples(*[st.integers(0, 1)] * width)


class TestHistogramMatchesDict:
    """The array histogram against dict counting.  Bit keys and weights
    1..4 make ties common; width 0 has only the empty key ()."""

    def _check(self, hist, ref, names, marginal_cols):
        assert hist.names == names
        assert hist.counts == ref
        assert hist.total == sum(ref.values())
        for key in itertools.product((0, 1), repeat=len(names)):
            assert hist.frequency(key) == (ref.get(key, 0) / hist.total if hist.total else 0.0)
        assert hist.frequency((0,) * (len(names) + 1)) == 0.0
        for k in range(len(ref) + 2):
            assert hist.top(k) == _dict_top(ref, k)
        if ref:
            assert mode_estimate(hist) == _dict_top(ref, 1)[0]
        else:
            with pytest.raises(ValueError, match="empty"):
                mode_estimate(hist)
        sub = tuple(names[c] for c in marginal_cols)
        assert hist.marginal(sub).counts == _dict_counts(
            (tuple(key[c] for c in marginal_cols), n) for key, n in ref.items())

    @given(width=st.integers(0, 3), data=st.data())
    def test_built_added_and_pooled(self, width, data):
        items = data.draw(st.lists(st.tuples(_bit_keys(width), st.integers(1, 4)), max_size=12))
        cols = data.draw(st.lists(st.integers(0, max(width - 1, 0)), unique=True,
                                  max_size=width))
        names = tuple(f"t{i}" for i in range(width))
        ref = _dict_counts(items)
        added = Histogram(names)
        for key, n in items:
            added.add(key, n)
        half = len(items) // 2
        pooled = (Histogram(names, _dict_counts(items[:half]))
                  + Histogram(names, _dict_counts(items[half:])))
        for hist in (added, Histogram(names, ref), pooled):
            self._check(hist, ref, names, cols)
        assert added == pooled

    @given(width=st.integers(0, 3), n_chains=st.integers(1, 3), data=st.data())
    def test_recorder_folding_every_sweep(self, width, n_chains, data):
        sweeps = data.draw(st.lists(st.lists(_bit_keys(width), min_size=n_chains,
                                             max_size=n_chains), min_size=1, max_size=8))
        rbm = zero_rbm(max(width, 1), 1)
        names = rbm.visible_names[:width]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "RECORD_BLOCK_BYTES", 1)  # a buffer of one sweep
            recorder = sampler._Recorder(rbm, names, n_chains, len(sweeps))
            for t, rows in enumerate(sweeps, start=1):
                v = np.array(rows, dtype=np.float64).reshape(n_chains, width)
                recorder.add(np.hstack([v, np.zeros((n_chains, 1))]))
                if t == len(sweeps) // 2:  # a checkpoint read, as success_curve does
                    ref = _dict_counts((key, 1) for rows in sweeps[:t] for key in rows)
                    self._check(recorder.histogram(), ref, names, [])
            ref = _dict_counts((key, 1) for rows in sweeps for key in rows)
            self._check(recorder.histogram(), ref, names, list(range(width))[::-1])


class TestClampArrays:
    def test_clamped_indices_ascend_with_their_values(self):
        idx, vals, free = clamp_arrays(zero_rbm(4, 1), {"v2": 1, "v0": 0})
        assert list(idx) == [0, 2]
        assert list(vals) == [0.0, 1.0]
        assert list(free) == [1, 3]


class TestRunChain:
    def test_clamped_units_never_change(self):
        rng = np.random.default_rng(1)
        r = random_rbm(rng, 4, 3)
        trace, hist = run_chain(r, {"v1": 1, "v3": 0}, n_sweeps=200, seed=7)
        assert np.all(trace.samples[:, 1] == 1)
        assert np.all(trace.samples[:, 3] == 0)
        assert hist.total == 200

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        r = random_rbm(rng, 3, 2)
        t1, h1 = run_chain(r, n_sweeps=100, seed=5)
        t2, h2 = run_chain(r, n_sweeps=100, seed=5)
        t3, _ = run_chain(r, n_sweeps=100, seed=6)
        assert np.array_equal(t1.samples, t2.samples)
        assert h1.counts == h2.counts
        assert not np.array_equal(t1.samples, t3.samples)

    def test_burn_in_and_thinning_bookkeeping(self):
        r = zero_rbm(2, 1)
        trace, hist = run_chain(r, n_sweeps=10, burn_in=4, thin=2, seed=0)
        assert trace.samples.shape == (3, 2)
        assert trace.free_energy.shape == (3,)
        assert hist.total == 3
        assert trace.burn_in == 4 and trace.thin == 2 and trace.seed == 0

    def test_record_terminals_subset(self):
        rng = np.random.default_rng(3)
        r = random_rbm(rng, 3, 2)
        _, hist = run_chain(r, n_sweeps=50, seed=0, record_terminals=["v2"])
        assert hist.names == ("v2",)
        assert all(len(k) == 1 for k in hist.counts)

    def test_argument_validation(self):
        r = zero_rbm(2, 1)
        with pytest.raises(ValueError):
            run_chain(r, n_sweeps=0)
        with pytest.raises(ValueError):
            run_chain(r, n_sweeps=10, burn_in=10)
        with pytest.raises(ValueError):
            run_chain(r, n_sweeps=10, thin=0)
        with pytest.raises(KeyError, match="unknown terminal"):
            run_chain(r, {"nope": 1}, n_sweeps=10)

    def test_merged_model_constants_are_clamped(self):
        r = zero_rbm(3, 1)
        mm = MergedModel(r, {n: i for i, n in enumerate(r.visible_names)},
                         constants={"v0": 1})
        trace, _ = run_chain(mm, n_sweeps=100, seed=0)
        assert np.all(trace.samples[:, 0] == 1)
        with pytest.raises(ValueError, match="conflicts"):
            run_chain(mm, {"v0": 0}, n_sweeps=10)

    def test_fully_clamped_chain_is_constant(self):
        rng = np.random.default_rng(4)
        r = random_rbm(rng, 2, 2)
        trace, _ = run_chain(r, {"v0": 1, "v1": 0}, n_sweeps=50, seed=3)
        assert np.all(trace.samples == np.array([1, 0], dtype=np.uint8))

    def test_zero_model_marginals_are_fair_coins(self):
        _, hist = run_chain(zero_rbm(3, 2), n_sweeps=2000, seed=0)
        for name in ("v0", "v1", "v2"):
            freq = hist.marginal([name]).frequency((1,))
            assert abs(freq - 0.5) < 0.05

    def test_trace_series_extracts_named_column(self):
        rng = np.random.default_rng(5)
        r = random_rbm(rng, 3, 2)
        trace, _ = run_chain(r, n_sweeps=40, seed=1)
        s = trace.series("v1")
        assert s.dtype == np.float64
        assert np.array_equal(s, trace.samples[:, 1].astype(np.float64))


class TestGibbsSweep:
    def test_matches_transition_matrix_row(self):
        # One sweep of the kernel from v = (1, 0); the hidden start, (1, 0)
        # in row 1 + (1 << 2), is resampled before it is read.
        r = Rbm([[1.2, -0.7], [0.4, 0.9]], [0.1, -0.2], [0.3, -0.1], ("v0", "v1"))
        P = gibbs_transition_matrix(r)
        rng = np.random.default_rng(42)
        counts = np.zeros(16)
        for _ in range(40_000):
            (v, h), = sampler._chain_sweeps(r, np.arange(2), [rng], np.array([[1.0, 0.0]]), 1)
            vi = int(v[0, 0]) + 2 * int(v[0, 1])
            hi = int(h[0, 0]) + 2 * int(h[0, 1])
            counts[vi + (hi << 2)] += 1
        emp = counts / counts.sum()
        assert np.max(np.abs(emp - P[1 + (1 << 2)])) < 0.01


class TestMultistart:
    def test_single_chain_equals_run_chain(self):
        rng = np.random.default_rng(6)
        r = random_rbm(rng, 3, 2)
        _, solo = run_chain(r, n_sweeps=80, burn_in=10, seed=9)
        pooled = multistart(r, n_chains=1, n_sweeps=80, burn_in=10, seed=9)
        assert pooled.counts == solo.counts

    def test_pools_consecutively_seeded_chains(self):
        rng = np.random.default_rng(7)
        r = random_rbm(rng, 3, 2)
        _, h0 = run_chain(r, n_sweeps=60, seed=4)
        _, h1 = run_chain(r, n_sweeps=60, seed=5)
        pooled = multistart(r, n_chains=2, n_sweeps=60, seed=4)
        assert pooled.counts == (h0 + h1).counts

    def test_explicit_seed_list(self):
        rng = np.random.default_rng(8)
        r = random_rbm(rng, 2, 2)
        a = multistart(r, n_chains=2, n_sweeps=50, seeds=[11, 3])
        b = multistart(r, n_chains=2, n_sweeps=50, seeds=[3, 11])
        assert a.counts == b.counts
        with pytest.raises(ValueError, match="seeds length"):
            multistart(r, n_chains=3, n_sweeps=50, seeds=[1, 2])

    def test_needs_a_chain(self):
        with pytest.raises(ValueError, match="need at least one chain"):
            multistart(random_rbm(np.random.default_rng(8), 2, 2), n_chains=0, n_sweeps=50)


def _small_run(driver, **overrides):
    """The histogram (success_curve: the curve) of one short run of a run driver."""
    if driver == "success_curve":
        return success_curve(builtin_model("mult2"), [TaskSpec("factor", 2, {"P": 6})], [20],
                             **({"n_chains": 2} | overrides))
    run = {"run_chain": lambda *a, **k: run_chain(*a, **k)[1], "multistart": multistart,
           "replica_exchange": sampler.replica_exchange}[driver]
    return run(zero_rbm(2, 1), **({"n_sweeps": 20} | overrides))


class TestRunDriverArguments:
    """Every run driver refuses a count or seed that is not an integer, by
    name; each of these cases once ran as its truncation or failed unnamed."""

    @pytest.mark.parametrize("driver, field, value, message", [
        ("run_chain", "seed", 3.9, "seed must be an integer >= 0, got 3.9"),
        ("run_chain", "seed", True, "seed must be an integer >= 0, got True"),
        ("run_chain", "n_sweeps", 20.0, "n_sweeps must be an integer >= 1, got 20.0"),
        ("run_chain", "thin", 1.0, "thin must be an integer >= 1, got 1.0"),
        ("run_chain", "burn_in", 0.5, "burn_in must be an integer >= 0, got 0.5"),
        ("multistart", "seed", 1.7, "seed must be an integer >= 0, got 1.7"),
        ("multistart", "seed", True, "seed must be an integer >= 0, got True"),
        ("multistart", "seed", -1, "seed must be an integer >= 0, got -1"),
        ("multistart", "seeds", [1, 2.5, 3, 4], "seed must be an integer >= 0, got 2.5"),
        ("multistart", "n_chains", True, "need at least one chain, got n_chains=True"),
        ("multistart", "n_chains", 2.5, "need at least one chain, got n_chains=2.5"),
        ("replica_exchange", "seed", 1.5, "seed must be an integer >= 0, got 1.5"),
        ("replica_exchange", "seed", True, "seed must be an integer >= 0, got True"),
        ("replica_exchange", "n_ladders", True, "need n_ladders >= 1, got True"),
        ("replica_exchange", "thin", 1.0, "thin must be an integer >= 1, got 1.0"),
        ("success_curve", "seed", 0.5, "seed must be an integer >= 0, got 0.5"),
        ("success_curve", "seed", True, "seed must be an integer >= 0, got True"),
        ("success_curve", "n_chains", True, "n_chains >= 1 and at least one task, got "
                                            "n_chains=True"),
        ("success_curve", "burn_in", 1.5, "burn_in must be an integer >= 0, got 1.5"),
    ])
    def test_refuses_counts_and_seeds_that_are_not_integers(self, driver, field, value,
                                                             message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _small_run(driver, **{field: value})

    @pytest.mark.parametrize("driver, fields", [
        ("run_chain", {"seed": 3, "n_sweeps": 20, "burn_in": 2, "thin": 3}),
        ("multistart", {"seed": 1, "n_chains": 3, "n_sweeps": 20, "burn_in": 2, "thin": 3}),
        ("multistart", {"seeds": [5, 2], "n_chains": 2}),
        ("replica_exchange", {"seed": 2, "n_ladders": 2, "n_sweeps": 20, "thin": 2}),
        ("success_curve", {"seed": 4, "n_chains": 3, "burn_in": 2}),
    ])
    def test_numpy_integers_are_accepted(self, driver, fields):
        as_numpy = {k: [np.int64(s) for s in v] if k == "seeds" else np.int64(v)
                    for k, v in fields.items()}
        assert _small_run(driver, **as_numpy) == _small_run(driver, **fields)


def _adder16_add():
    model = builtin_model("adder16", 6.0)
    return model, pose(model, TaskSpec("add", 16, {"A": 40503, "B": 9999})).clamp


def _random_clamped(seed, nv, nh, clamp):
    return random_rbm(np.random.default_rng(seed), nv, nh), clamp


class TestKernelMatchesReference:
    """The block-drawing kernel against the per-sweep reference sampler.

    ``block`` is the number of sweeps whose uniforms one draw covers
    (None: the module's byte budget; 120 chains on adder16 get 11), so
    the schedules below start, record and stop in the middle of blocks.
    """

    CASES = {
        "one_chain": (lambda: _random_clamped(20, 6, 5, {}), 1, 50, 7, 3, 4, None),
        "clamped_chains": (lambda: _random_clamped(21, 7, 9, {"v1": 1, "v4": 0}),
                           5, 23, 5, 2, 3, None),
        "adder16_120_chains_65_terminals": (_adder16_add, 120, 30, 5, 2, None, None),
        "fully_clamped": (lambda: _random_clamped(22, 4, 3, {f"v{i}": i % 2 for i in range(4)}),
                          3, 12, 0, 1, 5, None),
        "recorder_folds_every_sweep": (lambda: _random_clamped(21, 7, 9, {"v1": 1}),
                                       5, 23, 5, 2, 3, 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_multistart_and_run_chain_match(self, case, monkeypatch):
        make, n_chains, n_sweeps, burn_in, thin, block, record_bytes = self.CASES[case]
        model, clamp = make()
        rbm, _ = model_parts(model)
        if block is not None:
            width = rbm.n_hidden + rbm.n_visible
            monkeypatch.setattr(sampler, "SWEEP_BLOCK_BYTES", 8 * n_chains * width * block)
        if record_bytes is not None:
            monkeypatch.setattr(sampler, "RECORD_BLOCK_BYTES", record_bytes)
        by_index = {rbm.terminal_index(n): b for n, b in clamp.items()}
        seeds = [3 + c for c in range(n_chains)]
        traces, ref_hist = ref_block_gibbs(rbm, by_index, seeds, n_sweeps, burn_in, thin)
        hist = multistart(model, clamp, n_chains=n_chains, n_sweeps=n_sweeps,
                          burn_in=burn_in, thin=thin, seed=3)
        assert hist.names == rbm.visible_names
        assert hist.counts == ref_hist
        trace, _ = run_chain(model, clamp, n_sweeps=n_sweeps, burn_in=burn_in, thin=thin,
                             seed=3)
        assert trace.samples.tolist() == [list(row) for row in traces[0]]


def _mult8_factor():
    model = builtin_model("mult8", 6.0)
    return model, pose(model, TaskSpec("factor", 8, {"P": 143 * 211})).clamp


def _non_dyadic(make, seed):
    """The case's model with weights scaled by U(0.7, 1.3) and N(0, 1) added to the biases."""
    def made():
        model, clamp = make()
        rbm, constants = model_parts(model)
        rng = np.random.default_rng(seed)
        rbm = Rbm(rbm.weights * rng.uniform(0.7, 1.3, rbm.weights.shape),
                  rbm.visible_bias + rng.normal(size=rbm.n_visible),
                  rbm.hidden_bias + rng.normal(size=rbm.n_hidden), rbm.visible_names)
        return MergedModel(rbm, model.terminal_map, constants), clamp
    return made


def _one_group(w):
    """exact._hidden_groups with every hidden unit in one group over every visible unit."""
    return [(np.arange(w.shape[0]), np.arange(w.shape[1]))] if w.shape[1] else []


def _forced(monkeypatch, dense=False):
    """Run every kernel call through the block path; optionally as one dense block.

    ``dense`` makes the block plan one block over the whole weight
    matrix, zeros included: the dense product.
    """
    monkeypatch.setattr(sampler, "BLOCK_MIN_ENTRIES", 0)
    if dense:
        monkeypatch.setattr(exact, "_hidden_groups", _one_group)


def _block_products(w, free):
    return sampler._BlockProducts(w, free, exact._hidden_groups(w))


def _plan_classes(w, free=None):
    """(groups, support size, hidden count, hidden columns) of each class of the block plan."""
    free = np.arange(w.shape[0]) if free is None else free
    return [(units.shape[0], units.shape[1], blocks.shape[2], cols)
            for units, cols, blocks, _, _ in _block_products(w, free).classes]


def _composed_rbm(draw, nv):
    """Components with shared terminals, empty hidden columns, hidden order shuffled."""
    shapes = draw(st.lists(st.sampled_from([(1, 1), (2, 3), (3, 2), (2, 3), (nv, 2)]),
                           max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for s, n in shapes:
        units = rng.choice(nv, size=min(s, nv), replace=False)
        block = np.zeros((nv, n))
        block[units] = rng.choice([-1.0, 1.0], (units.size, n)) * rng.uniform(0.5, 3.0,
                                                                             (units.size, n))
        columns.append(block)
    columns += [np.zeros((nv, 1))] * draw(st.integers(0, 2))
    weights = np.hstack(columns) if columns else np.zeros((nv, 0))
    if draw(st.booleans()):
        weights = weights[:, rng.permutation(weights.shape[1])]
    return Rbm(weights, rng.normal(size=nv), rng.normal(size=weights.shape[1]),
               tuple(f"v{i}" for i in range(nv)))


def _reference_groups(w):
    """The groups as found before exact._hidden_groups scanned byte rows: np.unique(axis=0)."""
    keys, group_of = np.unique(w.T != 0, axis=0, return_inverse=True)
    group_of = group_of.reshape(-1)
    return [(np.flatnonzero(key), np.flatnonzero(group_of == g)) for g, key in enumerate(keys)]


class TestHiddenGroups:
    """exact._hidden_groups finds the supports, members and order of np.unique(axis=0)."""

    @pytest.mark.parametrize("case", ["adder16", "mult8", "dense", "empty_columns",
                                      "no_hidden"])
    def test_matches_column_by_column_unique(self, case):
        rng = np.random.default_rng(8)
        if case in ("adder16", "mult8"):
            w = builtin_model(case, 6.0).rbm.weights
        elif case == "dense":
            w = random_rbm(rng, 20, 64).weights
        elif case == "empty_columns":
            w = rng.normal(size=(6, 9)) * (rng.random((6, 9)) < 0.4)
            w[:, [0, 4, 8]] = 0.0
        else:
            w = np.zeros((5, 0))
        got, want = exact._hidden_groups(w), _reference_groups(w)
        assert len(got) == len(want)
        for (support, members), (ref_support, ref_members) in zip(got, want):
            assert support.tolist() == ref_support.tolist()
            assert members.tolist() == ref_members.tolist()
        if case == "empty_columns":
            assert got[0][0].size == 0 and got[0][1].tolist() == [0, 4, 8]


class TestDecisionFilter:
    """Block-path decisions, u (1 + exp(-a)) < 1 on negated block products, against the contract.

    Every case runs through the block path (BLOCK_MIN_ENTRIES = 0, so
    run_chain's single chain takes it too) and is checked against the
    per-sweep reference sampler, which decides u < expit(a) on the dense
    product.  No uniform of these runs lies within the module
    docstring's bound of its probability, so every decision agrees.
    """

    CASES = {
        "adder16": (_adder16_add, 100),
        "mult8": (_mult8_factor, 16),
        "adder16_non_dyadic": (_non_dyadic(_adder16_add, 1), 100),
        "mult8_non_dyadic": (_non_dyadic(_mult8_factor, 2), 16),
        "dense_20x64": (lambda: (random_rbm(np.random.default_rng(23), 20, 64),
                                 {"v1": 1, "v5": 0}), 16),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference(self, case, monkeypatch):
        make, n_chains = self.CASES[case]
        model, clamp = make()
        rbm, _ = model_parts(model)
        _forced(monkeypatch)
        idx, vals, _ = clamp_arrays(rbm, resolve_clamp(model, clamp))  # with the constants
        by_index = dict(zip(idx.tolist(), vals.astype(int).tolist()))
        seeds = [3 + c for c in range(n_chains)]
        traces, ref_hist = ref_block_gibbs(rbm, by_index, seeds, 12, 2, 1)
        hist = multistart(model, clamp, n_chains=n_chains, n_sweeps=12, burn_in=2, seed=3)
        assert hist.counts == ref_hist
        trace, _ = run_chain(model, clamp, n_sweeps=12, burn_in=2, seed=3)
        assert trace.samples.tolist() == [list(row) for row in traces[0]]

    def test_operator_choice(self):
        """One batched matmul per component shape; a dense model is one block."""
        mult8 = _plan_classes(builtin_model("mult8", 6.0).rbm.weights)
        assert [c[:3] for c in mult8] == [(4, 16, 256), (48, 5, 8)]
        assert [c[3] for c in mult8] == [slice(0, 1024), slice(1024, 1408)]
        adder16 = _plan_classes(builtin_model("adder16", 6.0).rbm.weights)
        assert adder16 == [(16, 5, 8, slice(0, 128))]
        dense = _plan_classes(random_rbm(np.random.default_rng(0), 20, 64).weights)
        assert dense == [(1, 20, 64, slice(0, 64))]

    def test_block_plan_layouts(self):
        """Interleaved components split into slice classes; products stay exact."""
        rng = np.random.default_rng(4)
        w = np.zeros((6, 9))
        w[np.ix_([0, 1, 2], [0, 2, 4])] = rng.normal(size=(3, 3))
        w[np.ix_([2, 3, 4], [1, 3, 5])] = rng.normal(size=(3, 3))
        w[np.ix_([5], [6, 8])] = rng.normal(size=(1, 2))  # column 7 stays empty
        free = np.array([0, 2, 3, 5])
        classes = _plan_classes(w, free)
        assert classes == [(6, 3, 1, slice(0, 6)), (1, 1, 1, slice(6, 7)),
                           (1, 0, 1, slice(7, 8)), (1, 1, 1, slice(8, 9))]
        plan = _block_products(w, free)
        v = (rng.random((5, 6)) < 0.5).astype(float)
        h = (rng.random((5, 9)) < 0.5).astype(float)
        assert np.allclose(plan.hidden(v), -(v @ w), rtol=0, atol=1e-12)
        assert np.allclose(plan.visible(h), -(h @ w[free].T), rtol=0, atol=1e-12)
        empty = _block_products(np.zeros((3, 0)), np.array([0, 2]))
        assert empty.classes == []
        assert empty.hidden(v[:, :3]).shape == (5, 0)
        assert np.array_equal(empty.visible(np.zeros((5, 0))), np.zeros((5, 2)))

    def test_mult16_plan_is_eight_slice_classes(self):
        w = builtin_model("mult16", 6.0).rbm.weights
        free = np.arange(0, w.shape[0], 3)
        classes = _plan_classes(w, free)
        assert len(classes) == 8
        assert [c[3].start for c in classes] == \
            [0] + [c[3].stop for c in classes[:-1]]
        assert classes[-1][3].stop == w.shape[1]
        plan = _block_products(w, free)
        rng = np.random.default_rng(16)
        v = (rng.random((3, w.shape[0])) < 0.5).astype(float)
        h = (rng.random((3, w.shape[1])) < 0.5).astype(float)
        assert np.allclose(plan.hidden(v), -(v @ w), rtol=0, atol=1e-9)
        assert np.allclose(plan.visible(h), -(h @ w[free].T), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "blocks"])
    @given(seed=st.integers(0, 2**32 - 1), nv=st.integers(1, 7), nh=st.integers(0, 9),
           density=st.sampled_from([0.3, 1.0]), data=st.data())
    def test_random_models_match_reference(self, dense, seed, nv, nh, density, data):
        rng = np.random.default_rng(seed)
        weights = rng.normal(scale=2.0, size=(nv, nh)) * (rng.random((nv, nh)) < density)
        rbm = Rbm(weights, rng.normal(size=nv), rng.normal(size=nh),
                  tuple(f"v{i}" for i in range(nv)))
        clamped = data.draw(st.lists(st.integers(0, nv - 1), unique=True, max_size=nv))
        clamp = {f"v{i}": int(rng.integers(2)) for i in clamped}
        by_index = {i: clamp[f"v{i}"] for i in clamped}
        with pytest.MonkeyPatch.context() as mp:
            _forced(mp, dense)
            hist = multistart(rbm, clamp, n_chains=3, n_sweeps=15, seed=seed % 1000)
            trace, _ = run_chain(rbm, clamp, n_sweeps=15, seed=seed % 1000)
        traces, ref_hist = ref_block_gibbs(rbm, by_index, [seed % 1000 + c for c in range(3)], 15)
        assert hist.counts == ref_hist
        assert trace.samples.tolist() == [list(row) for row in traces[0]]

    @given(nv=st.integers(1, 8), data=st.data())
    def test_composed_models_match_reference(self, nv, data):
        """Several classes, interleaved and empty hidden columns, shared terminals, no hidden."""
        rbm = _composed_rbm(data.draw, nv)
        clamped = data.draw(st.lists(st.integers(0, nv - 1), unique=True, max_size=nv))
        clamp = {f"v{i}": i % 2 for i in clamped}
        with pytest.MonkeyPatch.context() as mp:
            _forced(mp)
            hist = multistart(rbm, clamp, n_chains=3, n_sweeps=15, seed=nv)
            trace, _ = run_chain(rbm, clamp, n_sweeps=15, seed=nv)
        traces, ref_hist = ref_block_gibbs(rbm, {i: i % 2 for i in clamped},
                                           [nv + c for c in range(3)], 15)
        assert hist.counts == ref_hist
        assert trace.samples.tolist() == [list(row) for row in traces[0]]

    def test_decisions_match_expit_off_the_margin(self):
        """_decide(-P, b, u) is u < expit(P + b) wherever u lies over 2**-47 from expit."""
        rng = np.random.default_rng(0)
        n = 500_000
        products = np.concatenate([rng.uniform(-750, 750, n), rng.uniform(-40, 40, n)])
        bias = rng.normal(size=2 * n)
        p = expit(products + bias)
        near = np.clip(p + rng.uniform(-2.0**-40, 2.0**-40, 2 * n), 0.0, 1.0 - 2.0**-53)
        u = np.where(rng.random(2 * n) < 0.5, near, rng.random(2 * n))
        decided = sampler._decide(-products, bias, u)
        far = np.abs(u - p) > 2.0**-47
        assert (far & (np.abs(u - p) < 2.0**-40)).sum() > 300_000  # close calls are tested
        assert np.array_equal(decided[far], (u < p)[far])

    def test_extreme_decisions_are_exact(self):
        a = np.array([-800.0, -709.5, 0.0, 709.5, 800.0])[:, None]
        u = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])[None, :]
        decided = sampler._decide(np.repeat(-a, u.size, axis=1), 0.0, u)
        assert np.array_equal(decided, u < expit(a))

    def test_zero_uniforms_overflow_without_a_warning(self, monkeypatch):
        """u = 0 on a sharpness-1000 adder16: exp(-a) overflows and 0 * inf
        is NaN, with no RuntimeWarning, and each unit is on exactly where
        0 < expit(a), sweep by sweep."""

        class Zeros:
            def random(self, out):
                out[...] = 0.0

        rbm = builtin_model("adder16", 1000.0).rbm
        w, hb, vb = rbm.weights, rbm.hidden_bias, rbm.visible_bias
        free = np.arange(0, rbm.n_visible, 2)
        v = (np.random.default_rng(5).random((4, rbm.n_visible)) < 0.5).astype(np.float64)
        _forced(monkeypatch)
        want_v = v.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for got_v, got_h in sampler._chain_sweeps(rbm, free, [Zeros()] * 4, v, 5):
                a = want_v @ w + hb
                want_h = (0.0 < expit(a)).astype(np.float64)
                b = (want_h @ w.T)[:, free] + vb[free]
                want_v[:, free] = 0.0 < expit(b)
                assert (a < -745.0).any() and (b < -745.0).any()  # exp overflows
                assert np.array_equal(got_h, want_h)
                assert np.array_equal(got_v, want_v)


class TestOneDecisionRule:
    """Every Gibbs update, dense, block and tempered, decides through sampler._decide."""

    @staticmethod
    def _spy(monkeypatch):
        """Record each _decide call's (inputs, decisions) and each block plan built."""
        calls, plans = [], []
        decide, block_products = sampler._decide, sampler._BlockProducts

        def decide_spy(neg, bias, u):
            inputs = (neg.copy(), np.copy(bias), np.copy(u))
            decided = decide(neg, bias, u)
            calls.append((inputs, decided))
            return decided

        def plan_spy(*args):
            plans.append(block_products(*args))
            return plans[-1]

        monkeypatch.setattr(sampler, "_decide", decide_spy)
        monkeypatch.setattr(sampler, "_BlockProducts", plan_spy)
        return calls, plans

    @pytest.mark.parametrize("name, n_chains, n_plans", [
        ("xor", 8, 0), ("adder16", 100, 1), ("mult8", 1, 1), ("mult4", 32, 0),
    ], ids=["dense", "blocks", "sparse_few_chains", "dense_unit_many_chains"])
    def test_block_gibbs_decides_twice_per_sweep(self, monkeypatch, name, n_chains, n_plans):
        """The dense work of a sweep, chains x n_visible x n_hidden, picks the product."""
        model = builtin_model(name, 6.0)
        rbm, _ = model_parts(model)
        n_free = clamp_arrays(rbm, resolve_clamp(model, None))[2].size
        assert (n_chains * rbm.weights.size >= sampler.BLOCK_MIN_ENTRIES) == bool(n_plans)
        calls, plans = self._spy(monkeypatch)
        multistart(model, n_chains=n_chains, n_sweeps=7, seed=1)
        assert len(plans) == n_plans
        assert [decided.shape for _, decided in calls] == \
            [(n_chains, rbm.n_hidden), (n_chains, n_free)] * 7

    def test_replica_exchange_decides_once_per_color_class(self, monkeypatch):
        model = builtin_model("adder4", 6.0)
        rbm, _ = model_parts(model)
        free = np.arange(1, rbm.n_visible)
        supports = [units for units, _ in exact.component_plan(rbm).groups]
        classes = sampler._color_classes(supports, rbm.n_visible, free)
        calls, _ = self._spy(monkeypatch)
        sampler.replica_exchange(model, {rbm.visible_names[0]: 1}, betas=(0.5, 1.0),
                                 n_ladders=3, n_sweeps=7, seed=2)
        assert len(classes) > 1
        assert [decided.shape for _, decided in calls] == \
            [(6, units.size) for units, *_ in classes] * 7

    def test_zero_uniforms_on_the_dense_path(self):
        """u = 0 on a sharpness-1000 full adder, small enough for dense products:
        no RuntimeWarning, and each unit is on exactly where 0 < expit(a)."""

        class Zeros:
            def random(self, out):
                out[...] = 0.0

        rbm = builtin_model("fa1", 1000.0).rbm
        w, hb, vb = rbm.weights, rbm.hidden_bias, rbm.visible_bias
        free = np.arange(1, rbm.n_visible, 2)
        v = (np.random.default_rng(6).random((4, rbm.n_visible)) < 0.5).astype(np.float64)
        assert len(v) * w.size < sampler.BLOCK_MIN_ENTRIES  # the dense path
        want_v = v.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for got_v, got_h in sampler._chain_sweeps(rbm, free, [Zeros()] * 4, v, 5):
                a = want_v @ w + hb
                want_h = (0.0 < expit(a)).astype(np.float64)
                b = (want_h @ w.T)[:, free] + vb[free]
                want_v[:, free] = 0.0 < expit(b)
                assert (a < -745.0).any() and (b < -745.0).any()  # exp overflows
                assert np.array_equal(got_h, want_h)
                assert np.array_equal(got_v, want_v)

    def test_zero_uniforms_on_the_tempered_path(self, monkeypatch):
        """u = 0 in every tempered sweep of a sharpness-2000 adder (beta dF
        reaches 1000): no RuntimeWarning, and each decision is 0 < expit(-beta dF)."""

        def zero_uniforms(gens, width, n_sweeps):
            return (np.zeros((len(gens), width)) for _ in range(n_sweeps))

        monkeypatch.setattr(sampler, "_sweep_uniforms", zero_uniforms)
        calls, _ = self._spy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sampler.replica_exchange(builtin_model("adder2", 2000.0), {"A0": 1},
                                     betas=(0.25, 1.0), n_ladders=2, n_sweeps=5, seed=4)
        assert calls
        for (beta_df, bias, u), decided in calls:
            assert not u.any() and not bias.any()
            assert np.array_equal(decided, 0.0 < expit(-beta_df))
        assert any((beta_df > 745.0).any() for (beta_df, _, _), _ in calls)  # exp overflows


class TestSamplingAccuracy:
    def test_sharp_gate_output_conditional(self):
        _, hist = run_chain(
            gate("and"), {"in1": 1, "in2": 1}, n_sweeps=10_000, seed=0,
            record_terminals=["out"],
        )
        assert hist.frequency((1,)) >= 0.99

    def test_soft_circuit_chain_reaches_stationarity(self):
        model = compose(full_adder_netlist(4.0))
        exact = exact_visible_distribution(model.rbm)
        for seed in (0, 1, 2):
            _, hist = run_chain(model, n_sweeps=100_000, seed=seed)
            emp = np.array(
                [hist.frequency(tuple(int(b) for b in row)) for row in exact.support]
            )
            assert tv_distance(emp, exact.probabilities) <= 0.05

    def test_bimodal_model_needs_restarts(self):
        table = TruthTable(4, ((0, 0, 0, 0), (1, 1, 1, 1)), ("m0", "m1", "m2", "m3"))
        toy = rbm_from_truth_table(table, 20.0)
        exact = exact_visible_distribution(toy)
        per_mode = exact.prob_of([0, 0, 0, 0])
        assert per_mode == approx(0.4998411538176778, abs=1e-12)
        # Single chains stay trapped in whichever mode they hit first.
        for seed in (1, 2):
            _, hist = run_chain(toy, n_sweeps=16_000, seed=seed)
            (top_key, top_n), = hist.top(1)
            assert top_key in ((0, 0, 0, 0), (1, 1, 1, 1))
            assert top_n / hist.total > 0.99
        # Pooling independent starts recovers both modes evenly.
        pooled = multistart(toy, n_chains=16, n_sweeps=1000, seed=0)
        assert pooled.frequency((0, 0, 0, 0)) == approx(per_mode, abs=0.05)
        assert pooled.frequency((1, 1, 1, 1)) == approx(per_mode, abs=0.05)


class TestAutocorrelation:
    def test_lag_zero_is_one_and_iid_is_small(self):
        x = np.random.default_rng(1).normal(size=100_000)
        rho = autocorrelation(x, 20)
        assert rho[0] == approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho[1:])) < 0.02

    def test_alternating_series(self):
        x = np.tile([1.0, -1.0], 500)
        rho = autocorrelation(x, 3)
        # Biased (divide-by-n) estimator: lag k shrinks by (n - k) / n.
        assert rho[1] == approx(-0.999, abs=1e-9)
        assert integrated_autocorrelation_time(x) == 1.0

    def test_constant_series_raises(self):
        with pytest.raises(ValueError, match="constant"):
            autocorrelation(np.ones(100), 5)
        with pytest.raises(ValueError, match="constant"):  # its mean rounds off -3.3
            autocorrelation(np.full(400, -3.3), 5)
        with pytest.raises(ValueError, match="max_lag"):
            autocorrelation(np.arange(10.0), 10)

    def test_integrated_time_measures_correlation_length(self):
        rng = np.random.default_rng(3)
        blocks = np.repeat(rng.normal(size=2000), 20)
        tau = integrated_autocorrelation_time(blocks)
        assert 15.0 < tau < 25.0
        iid = rng.normal(size=100_000)
        assert integrated_autocorrelation_time(iid) == approx(1.0, abs=0.2)


class TestSuccessCurve:
    def test_checkpoint_validation(self):
        m2 = builtin_model("mult2")
        with pytest.raises(ValueError, match="checkpoints"):
            success_curve(m2, [TaskSpec("factor", 2, {"P": 4})], [])
        with pytest.raises(ValueError, match="checkpoints"):
            success_curve(m2, [TaskSpec("factor", 2, {"P": 4})], [0])
        with pytest.raises(ValueError, match="n_chains >= 1"):
            success_curve(m2, [TaskSpec("factor", 2, {"P": 4})], [10], n_chains=0)
        with pytest.raises(ValueError, match="at least one task"):
            success_curve(m2, [], [10])

    @pytest.mark.parametrize("checkpoints", [[2.5, True], [True], [4, 2.0], ["8"]])
    def test_checkpoints_that_are_not_integers_are_refused(self, checkpoints):
        # They were once truncated: [2.5, True] ran as checkpoints 1 and 2.
        task = TaskSpec("factor", 2, {"P": 4})
        with pytest.raises(ValueError, match=r"checkpoints must be positive integers, got \["):
            success_curve(builtin_model("mult2"), [task], checkpoints, n_chains=2)
        curve = success_curve(builtin_model("mult2"), [task], [np.int64(4), 2], n_chains=2)
        assert [c for c, _ in curve] == [2, 4]

    def test_direct_multiplier_factors_everything(self):
        m2 = builtin_model("mult2")
        tasks = [TaskSpec("factor", 2, {"P": p}) for p in (4, 6, 9)]
        curve = success_curve(m2, tasks, [200, 2000], n_chains=8, seed=0)
        assert curve == [(200, 1.0), (2000, 1.0)]

    def test_four_bit_factoring_curve(self):
        m4 = builtin_model("mult4")
        semiprimes = [4, 6, 9, 10, 14, 15, 21, 22, 25, 26, 33, 35, 39, 49,
                      55, 65, 77, 91, 121, 143, 169]
        tasks = [TaskSpec("factor", 4, {"P": p}) for p in semiprimes]
        curve = success_curve(m4, tasks, [1000, 10000], n_chains=16, seed=0)
        assert curve == [(1000, 1.0), (10000, 1.0)]
