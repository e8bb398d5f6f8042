"""Clamped block Gibbs sampling.

One sweep samples the whole hidden layer given the visible layer, then
all free visible units given the hidden layer; clamped visible units
never change.  Chains are reproducible: a chain consumes, per sweep,
first n_hidden then n_visible uniforms from its own PCG64 generator
(clamped positions burn draws too, so the stream does not depend on the
clamp pattern), after n_visible initialization draws.

multistart with seeds [s, s+1, ...] pools exactly the histograms that
run_chain would produce for each seed individually.

replica_exchange is the tempered search.  It samples p_beta(v) ∝
exp(-beta F(v)), with the hidden layer summed out, on a ladder of
inverse temperatures ending at beta = 1, and swaps states between
neighbouring rungs.  Its stream contract: row r = ladder * len(betas) +
rung runs on generator seed + r, which draws n_visible initialization
uniforms and then n_visible uniforms per sweep (clamped positions burn
draws too).  Swaps draw from one more generator, seed + n_rows, one
uniform per attempted pair, ladder by ladder and rung by rung.  After
sweep t the pairs (k, k+1) with k = t mod 2, t mod 2 + 2, ... are
attempted.  Only the beta = 1 rungs are recorded, and every row's sweeps
count toward the chain-sweep total.  There are no restarts within a run:
each ladder is one independent start, so more starts means more ladders,
each on its own seeds under the same contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.special import expit

from .exact import _bit_grid
from .merge import ClampMask, clamp_arrays, model_parts, resolve_clamp
from .model import BinaryState, Rbm, free_energy_batch


@dataclass
class Histogram:
    """Counts of recorded assignments of ``names``."""

    names: tuple[str, ...]
    counts: dict[tuple[int, ...], int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def add(self, key: tuple[int, ...], weight: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + weight

    def __add__(self, other: "Histogram") -> "Histogram":
        if self.names != other.names:
            raise ValueError("histograms cover different terminals")
        merged = dict(self.counts)
        for key, n in other.counts.items():
            merged[key] = merged.get(key, 0) + n
        return Histogram(self.names, merged)

    def frequency(self, key: tuple[int, ...]) -> float:
        total = self.total
        return self.counts.get(tuple(key), 0) / total if total else 0.0

    def marginal(self, names: Sequence[str]) -> "Histogram":
        cols = [self.names.index(n) for n in names]
        out = Histogram(tuple(names))
        for key, n in self.counts.items():
            out.add(tuple(key[c] for c in cols), n)
        return out

    def top(self, k: int) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def mode_estimate(histogram: Histogram) -> tuple[tuple[int, ...], int]:
    """Most frequent assignment; ties break to the lexicographically least."""
    if not histogram.counts:
        raise ValueError("empty histogram has no mode")
    best = min(histogram.counts, key=lambda key: (-histogram.counts[key], key))
    return best, histogram.counts[best]


@dataclass(frozen=True)
class ChainTrace:
    """Recorded visible states of one chain, in sweep order."""

    names: tuple[str, ...]
    samples: np.ndarray  # (n_recorded, n_visible) uint8
    free_energy: np.ndarray  # (n_recorded,)
    seed: int
    burn_in: int
    thin: int

    def series(self, name: str) -> np.ndarray:
        return self.samples[:, self.names.index(name)].astype(np.float64)


def _initial_visible(rbm: Rbm, gens, idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Uniform random start, one row per generator, then the clamps."""
    v = np.empty((len(gens), rbm.n_visible))
    for c, gen in enumerate(gens):
        v[c] = gen.random(rbm.n_visible) < 0.5
    v[:, idx] = vals
    return v


def _chain_sweeps(rbm: Rbm, assignments: Mapping[str, int], seeds: Sequence[int],
                  n_sweeps: int):
    """Yield the visible matrix after every sweep of a batch of chains."""
    idx, vals, free = clamp_arrays(rbm, assignments)
    gens = [np.random.default_rng(int(s)) for s in seeds]
    w, vb, hb = rbm.weights, rbm.visible_bias, rbm.hidden_bias
    v = _initial_visible(rbm, gens, idx, vals)
    for _ in range(n_sweeps):
        p_h = expit(v @ w + hb)
        u = np.stack([gen.random(rbm.n_hidden) for gen in gens])
        h = (u < p_h).astype(np.float64)
        p_v = expit(h @ w.T + vb)
        u = np.stack([gen.random(rbm.n_visible) for gen in gens])
        if free.size:
            v[:, free] = (u < p_v)[:, free]
        yield v


def _record_indices(rbm: Rbm, record_terminals) -> tuple[np.ndarray, tuple[str, ...]]:
    if record_terminals is None:
        return np.arange(rbm.n_visible, dtype=np.intp), rbm.visible_names
    idx = np.array([rbm.terminal_index(n) for n in record_terminals], dtype=np.intp)
    return idx, tuple(record_terminals)


def run_chain(
    model,
    clamp: Mapping[str, int] | ClampMask | None = None,
    n_sweeps: int = 1000,
    burn_in: int = 0,
    thin: int = 1,
    seed: int = 0,
    record_terminals: Sequence[str] | None = None,
) -> tuple[ChainTrace, Histogram]:
    """Run one chain; record every ``thin``-th sweep after ``burn_in``."""
    rbm, _ = model_parts(model)
    if n_sweeps < 1 or burn_in < 0 or thin < 1 or burn_in >= n_sweeps:
        raise ValueError("need n_sweeps >= 1, 0 <= burn_in < n_sweeps, thin >= 1")
    assignments = resolve_clamp(model, clamp)
    rec_idx, rec_names = _record_indices(rbm, record_terminals)
    kept = []
    hist = Histogram(rec_names)
    for t, v in enumerate(_chain_sweeps(rbm, assignments, [seed], n_sweeps)):
        if t >= burn_in and (t - burn_in) % thin == 0:
            kept.append(v[0].copy())
            hist.add(tuple(int(b) for b in v[0, rec_idx]))
    samples = np.array(kept)
    trace = ChainTrace(
        names=rbm.visible_names,
        samples=samples.astype(np.uint8),
        free_energy=free_energy_batch(rbm, samples),
        seed=int(seed),
        burn_in=burn_in,
        thin=thin,
    )
    return trace, hist


def gibbs_sweep(model, state: BinaryState, clamp=None, rng=None) -> BinaryState:
    """One sweep from an explicit state; draws h then v from ``rng``."""
    rbm, _ = model_parts(model)
    idx, vals, free = clamp_arrays(rbm, resolve_clamp(model, clamp))
    rng = np.random.default_rng() if rng is None else rng
    state = BinaryState.checked(rbm, state.visible, state.hidden)
    v = np.asarray(state.visible, dtype=np.float64).copy()
    if idx.size and not np.array_equal(v[idx], vals):
        raise ValueError("state disagrees with clamped values")
    p_h = expit(v @ rbm.weights + rbm.hidden_bias)
    h = (rng.random(rbm.n_hidden) < p_h).astype(np.float64)
    p_v = expit(h @ rbm.weights.T + rbm.visible_bias)
    u = rng.random(rbm.n_visible)
    if free.size:
        v[free] = (u < p_v)[free]
    return BinaryState(v.astype(np.uint8), h.astype(np.uint8))


def multistart(
    model,
    clamp: Mapping[str, int] | ClampMask | None = None,
    n_chains: int = 4,
    n_sweeps: int = 1000,
    burn_in: int = 0,
    thin: int = 1,
    seed: int = 0,
    seeds: Sequence[int] | None = None,
    record_terminals: Sequence[str] | None = None,
) -> Histogram:
    """Pool histograms from independent chains seeded seed, seed+1, ..."""
    rbm, _ = model_parts(model)
    if n_sweeps < 1 or burn_in < 0 or thin < 1 or burn_in >= n_sweeps:
        raise ValueError("need n_sweeps >= 1, 0 <= burn_in < n_sweeps, thin >= 1")
    if seeds is None:
        seeds = [seed + c for c in range(n_chains)]
    elif len(seeds) != n_chains:
        raise ValueError("seeds length must equal n_chains")
    assignments = resolve_clamp(model, clamp)
    rec_idx, rec_names = _record_indices(rbm, record_terminals)
    hist = Histogram(rec_names)
    for t, v in enumerate(_chain_sweeps(rbm, assignments, list(seeds), n_sweeps)):
        if t >= burn_in and (t - burn_in) % thin == 0:
            for c in range(len(seeds)):
                hist.add(tuple(int(b) for b in v[c, rec_idx]))
    return hist


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized autocorrelations at lags 0..max_lag (FFT-based)."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or len(x) <= max_lag or max_lag < 1:
        raise ValueError("need a 1-d series longer than max_lag >= 1")
    x = x - x.mean()
    if not x.any():
        raise ValueError("series is constant; autocorrelation undefined")
    n = len(x)
    padded = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(padded * np.conj(padded))[: max_lag + 1] / n
    return acov / acov[0]


def integrated_autocorrelation_time(series: np.ndarray, max_lag: int | None = None) -> float:
    """1 + 2 * sum of autocorrelations up to the first nonpositive lag."""
    x = np.asarray(series, dtype=np.float64)
    if max_lag is None:
        max_lag = len(x) // 2
    rho = autocorrelation(x, max_lag)
    tau = 1.0
    for k in range(1, len(rho)):
        if rho[k] <= 0:
            break
        tau += 2.0 * rho[k]
    return float(tau)


def success_curve(
    model,
    tasks: Sequence,
    checkpoints: Sequence[int],
    n_chains: int = 4,
    seed: int = 0,
    burn_in: int = 0,
) -> list[tuple[int, float]]:
    """Fraction of tasks whose pooled mode is correct at each sample budget.

    Chains for task i use seeds seed + i * n_chains + [0..n_chains); the
    pooled sample count after sweep t is n_chains * (t - burn_in).
    """
    from .tasks import answer_mode, answer_terminals, assignment_checker, clamp_assignments

    checkpoints = sorted(int(c) for c in checkpoints)
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive sample counts")
    rbm, _ = model_parts(model)
    successes = np.zeros(len(checkpoints))
    for i, task in enumerate(tasks):
        assignments = resolve_clamp(model, clamp_assignments(model, task))
        rec_idx, rec_names = _record_indices(rbm, answer_terminals(model, task))
        check = assignment_checker(model, task)
        hist = Histogram(rec_names)
        milestones = [(c + n_chains - 1) // n_chains + burn_in for c in checkpoints]
        seeds = [seed + i * n_chains + c for c in range(n_chains)]
        next_mark = 0
        for t, v in enumerate(_chain_sweeps(rbm, assignments, seeds, milestones[-1])):
            if t >= burn_in:
                for c in range(n_chains):
                    hist.add(tuple(int(b) for b in v[c, rec_idx]))
            while next_mark < len(milestones) and t + 1 == milestones[next_mark]:
                bits, _ = answer_mode(model, task, hist)
                if check(dict(zip(rec_names, bits))):
                    successes[next_mark] += 1.0
                next_mark += 1
    return [(c, float(s) / len(tasks)) for c, s in zip(checkpoints, successes)]


# Largest visible support a group of hidden units may have for
# replica_exchange to tabulate its free-energy term (2^n entries).
MAX_TABLE_UNITS = 20

# Hidden units tabulated per pass, which bounds the (2^n, block)
# activation buffer a table is built from.
TABLE_HIDDEN_BLOCK = 64


class FreeEnergyTables:
    """F(v) = -b.v + sum_g T_g[index_g(v)], one table per hidden group.

    Hidden units that touch the same visible units form a group, so a
    composed circuit gets one group per component.  Group g's table
    holds -sum_j softplus(a_j + W_j . x) for every assignment x of its
    visible support; ``index_g(v)`` packs those bits little-endian.
    The sum is exact because the hidden layer factorizes given v.
    """

    def __init__(self, rbm: Rbm):
        support = rbm.weights != 0
        keys, group_of = np.unique(support.T, axis=0, return_inverse=True)
        group_of = group_of.ravel()
        self.visible_bias = rbm.visible_bias
        self.supports: list[np.ndarray] = []
        tables = []
        for g, key in enumerate(keys):
            units = np.flatnonzero(key)
            if units.size > MAX_TABLE_UNITS:
                raise ValueError(
                    f"a hidden group touches {units.size} visible units; "
                    f"tables are limited to {MAX_TABLE_UNITS}")
            hidden = np.flatnonzero(group_of == g)
            grid = _bit_grid(units.size)
            table = np.zeros(len(grid))
            for start in range(0, hidden.size, TABLE_HIDDEN_BLOCK):
                cols = hidden[start:start + TABLE_HIDDEN_BLOCK]
                act = grid @ rbm.weights[np.ix_(units, cols)] + rbm.hidden_bias[cols]
                table -= np.logaddexp(0.0, act).sum(axis=1)
            tables.append(table)
            self.supports.append(units)
        self.offsets = np.cumsum([0] + [t.size for t in tables])[:-1]
        self.table = np.concatenate(tables) if tables else np.zeros(0)
        self.groups_of = [[] for _ in range(rbm.n_visible)]  # (group, bit mask)
        for g, units in enumerate(self.supports):
            for pos, i in enumerate(units):
                self.groups_of[i].append((g, 1 << pos))

    def indices(self, v: np.ndarray) -> np.ndarray:
        """(rows, groups) table index of every group for rows of v."""
        bits = v.astype(np.int64)
        index = np.zeros((len(v), len(self.supports)), dtype=np.int64)
        for g, units in enumerate(self.supports):
            index[:, g] = (bits[:, units] << np.arange(units.size)).sum(axis=1)
        return index

    def free_energy(self, v: np.ndarray, index: np.ndarray) -> np.ndarray:
        return -(v @ self.visible_bias) + self.table[self.offsets + index].sum(axis=1)

    def color_classes(self, free: np.ndarray):
        """Free units split into classes that share no group.

        Units of one class are conditionally independent given the rest,
        so a class updates in parallel exactly as it would one unit at a
        time.  Greedy coloring, most-connected units first.
        """
        classes: list[tuple[list[int], set[int]]] = []
        for i in sorted(free.tolist(), key=lambda i: (-len(self.groups_of[i]), i)):
            groups = {g for g, _ in self.groups_of[i]}
            for units, used in classes:
                if not used & groups:
                    units.append(i)
                    used |= groups
                    break
            else:
                classes.append(([i], groups))
        out = []
        for units, _ in classes:
            units = sorted(units)
            pairs = np.array([(k, g, m) for k, i in enumerate(units)
                              for g, m in self.groups_of[i]], dtype=np.int64).reshape(-1, 3)
            slot, group, mask = pairs.T
            spread = np.zeros((len(pairs), len(units)))
            spread[np.arange(len(pairs)), slot] = 1.0
            out.append((np.array(units), slot, group, mask, spread))
        return out


def replica_exchange(
    model,
    clamp: Mapping[str, int] | ClampMask | None = None,
    betas: Sequence[float] = (1.0,),
    n_ladders: int = 1,
    n_sweeps: int = 1000,
    burn_in: int = 0,
    thin: int = 1,
    seed: int = 0,
    record_terminals: Sequence[str] | None = None,
) -> Histogram:
    """Replica exchange over a beta ladder; records the beta = 1 rungs.

    Each of ``n_ladders`` independent ladders holds one replica per entry
    of ``betas`` (increasing, last entry 1.0).  A sweep updates every free
    visible unit once by heat bath on p_beta(v) ∝ exp(-beta F(v)) with
    the hidden layer summed out (tabulated by FreeEnergyTables); then
    neighbouring rungs swap states with probability
    min(1, exp((beta_i - beta_j) (F(v_i) - F(v_j)))).  The run costs
    n_ladders * len(betas) * n_sweeps chain-sweeps.  See the module
    docstring for the stream contract.
    """
    rbm, _ = model_parts(model)
    if n_sweeps < 1 or burn_in < 0 or thin < 1 or burn_in >= n_sweeps or n_ladders < 1:
        raise ValueError("need n_sweeps >= 1, 0 <= burn_in < n_sweeps, thin >= 1, "
                         "n_ladders >= 1")
    betas = np.asarray(betas, dtype=np.float64)
    if (betas.ndim != 1 or not betas.size or betas[-1] != 1.0 or (betas <= 0).any()
            or (np.diff(betas) <= 0).any()):
        raise ValueError("betas must be positive, increasing and end at 1.0")
    idx, vals, free = clamp_arrays(rbm, resolve_clamp(model, clamp))
    rec_idx, rec_names = _record_indices(rbm, record_terminals)
    tables = FreeEnergyTables(rbm)
    classes = tables.color_classes(free)
    n_rungs = betas.size
    n_rows = n_ladders * n_rungs
    beta = np.tile(betas, n_ladders)[:, None]
    gens = [np.random.default_rng(seed + r) for r in range(n_rows)]
    swap_gen = np.random.default_rng(seed + n_rows)
    v = _initial_visible(rbm, gens, idx, vals)
    index = tables.indices(v)
    table, offsets, vb = tables.table, tables.offsets, tables.visible_bias
    top = np.arange(n_ladders) * n_rungs + n_rungs - 1
    hist = Histogram(rec_names)
    for t in range(n_sweeps):
        u = np.stack([gen.random(rbm.n_visible) for gen in gens])
        for units, slot, group, mask, spread in classes:
            cur = index[:, group]
            on, off = cur | mask, cur & ~mask
            d_free = (table[offsets[group] + on] - table[offsets[group] + off]) @ spread
            d_free -= vb[units]  # F(v_i = 1) - F(v_i = 0), per unit
            p_on = expit(-beta * d_free)
            new = u[:, units] < p_on
            v[:, units] = new
            index[:, group] = np.where(new[:, slot], on, off)
        if n_rungs > 1:
            energy = tables.free_energy(v, index)
            lower = np.arange(t % 2, n_rungs - 1, 2)
            i = (np.arange(n_ladders)[:, None] * n_rungs + lower).ravel()
            j = i + 1
            accept = np.log(swap_gen.random(i.size)) < (
                (beta[i, 0] - beta[j, 0]) * (energy[i] - energy[j]))
            a, b = i[accept], j[accept]
            v[np.r_[a, b]] = v[np.r_[b, a]]
            index[np.r_[a, b]] = index[np.r_[b, a]]
        if t >= burn_in and (t - burn_in) % thin == 0:
            for r in top:
                hist.add(tuple(int(x) for x in v[r, rec_idx]))
    return hist
