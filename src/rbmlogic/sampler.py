"""Clamped block Gibbs sampling.

One sweep samples the whole hidden layer given the visible layer, then
all free visible units given the hidden layer; clamped visible units
never change.  Chains are reproducible: a chain consumes, per sweep,
first n_hidden then n_visible uniforms from its own PCG64 generator
(clamped positions burn draws too, so the stream does not depend on the
clamp pattern), after n_visible initialization draws.  The uniforms of
a block of sweeps are drawn with one call per chain (see
SWEEP_BLOCK_BYTES); PCG64 gives the same numbers for one draw of k * n
uniforms as for k draws of n, so blocking changes no result.

_chain_sweeps is the one block Gibbs loop (run_chain, multistart,
success_curve and gibbs_sweep run on it) and _Recorder the one sample
recorder: recorded columns are kept as uint8 rows and counted with
np.unique, so a key tuple is built once per distinct row.

Every update is the decision u < p for the contract probabilities
expit(v @ W + a) and expit((h @ W.T)[:, free] + b_free), each product
taken by BLAS over every column.  Sweeps over FILTER_MIN_ENTRIES units
or more reach them through an exact-decision filter (_decide): fast
probabilities come from 1 / (1 + exp(-x)), a visible product over the
free columns only and, for weight matrices large and sparse enough
(SPARSE_MIN_WEIGHTS, SPARSE_MAX_DENSITY), CSR products.  A per-unit
bound (_margins) covers both errors.  Where a uniform lies within it of
its fast probability, the contract expression is evaluated for that
sweep and decides the entry.  The stream contract is unchanged, and the
decisions, so the chains and histograms, are bit for bit those of the
contract expression.

multistart with seeds [s, s+1, ...] pools exactly the histograms that
run_chain would produce for each seed individually.

replica_exchange is the tempered search.  It samples p_beta(v) ∝
exp(-beta F(v)), with the hidden layer summed out, on a ladder of
inverse temperatures ending at beta = 1, and swaps states between
neighbouring rungs.  Its stream contract: row r = ladder * len(betas) +
rung runs on generator seed + r, which draws n_visible initialization
uniforms and then n_visible uniforms per sweep, drawn in blocks like the
block Gibbs uniforms (clamped positions burn draws too).  Swaps draw
from one more generator, seed + n_rows, one uniform per attempted pair,
ladder by ladder and rung by rung.  After
sweep t the pairs (k, k+1) with k = t mod 2, t mod 2 + 2, ... are
attempted.  Only the beta = 1 rungs are recorded, and every row's sweeps
count toward the chain-sweep total.  There are no restarts within a run:
each ladder is one independent start, so more starts means more ladders,
each on its own seeds under the same contract.
"""

from __future__ import annotations

import heapq
import itertools
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
        return heapq.nsmallest(k, self.counts.items(), key=lambda item: (-item[1], item[0]))


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


# Bytes of uniforms drawn at once: each chain draws the uniforms of a
# block of sweeps with one call, and the block length is set so that the
# (chains, block, width) buffer stays within this budget.
SWEEP_BLOCK_BYTES = 2**21

# Bytes of recorded uint8 rows held before they are folded into the
# histogram.  Bounds the recorder's memory on long runs; a typical solve
# folds once, at the end.
RECORD_BLOCK_BYTES = 2**22


def _sweep_uniforms(gens, width: int, n_sweeps: int):
    """Yield each sweep's (chains, width) uniforms, drawn in blocks of sweeps.

    Row c of a block is one ``gens[c].random`` call for k * width
    uniforms: the same PCG64 stream as k draws of width each.
    """
    block = max(1, min(n_sweeps, SWEEP_BLOCK_BYTES // (8 * len(gens) * width)))
    buf = np.empty((len(gens), block, width))
    for start in range(0, n_sweeps, block):
        k = min(block, n_sweeps - start)
        for c, gen in enumerate(gens):
            gen.random(out=buf[c, :k].reshape(-1))
        for s in range(k):
            yield buf[:, s]


def _initial_visible(rbm: Rbm, gens, idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Uniform random start, one row per generator, then the clamps."""
    v = np.empty((len(gens), rbm.n_visible))
    for c, gen in enumerate(gens):
        v[c] = gen.random(rbm.n_visible) < 0.5
    v[:, idx] = vals
    return v


# Sweeps over at least FILTER_MIN_ENTRIES units (chains x (n_hidden +
# n_visible)) take their decisions through the exact-decision filter;
# below that its fixed cost per sweep (~20 us) outweighs what it saves.
FILTER_MIN_ENTRIES = 4096

# Weight matrices with at least SPARSE_MIN_WEIGHTS entries, of which at
# most SPARSE_MAX_DENSITY are nonzero, are applied through CSR in the fast
# products of _chain_sweeps; the others stay dense.  Either operator gives
# the same chains.  Time per filtered sweep on one core, dense vs CSR:
# builtin adder16 (8320 weights, 7.7% nonzero, 100 chains) 263 vs 314 us;
# adder32 (33024, 3.9%) 654 vs 596 us; adder64 (131584, 1.9%) 1702 vs
# 1142 us; mult8 (252032, 7.3%, 16 chains) 762 vs 602 us; dense mult4
# (4096 weights) and 20 x 64 models ~1.6x slower through CSR.
SPARSE_MIN_WEIGHTS = 2**15
SPARSE_MAX_DENSITY = 1 / 8


def _fast_sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)): a few times cheaper than expit, within 2**-47 of it."""
    x = np.negative(a)
    with np.errstate(over="ignore"):  # exp(745+) = inf gives 1 / inf = 0
        np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def _margins(w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Per-unit bound on |fast probability - contract probability|.

    Unit j's activation sums the k_j nonzero terms of column j (binary
    inputs make every product exact) and its bias.  Any summation order
    is within k_j 2**-53 S_j of the exact sum, S_j = sum |w_ij| + |b_j|,
    so two orders differ by at most 2 k_j 2**-53 S_j, and the sigmoid
    (slope <= 1/4) shrinks that fourfold.  The margin is 8x that term,
    plus 2**-47 for the two sigmoid implementations (a few ulps each).
    """
    k = np.count_nonzero(w, axis=0)
    scale = np.abs(w).sum(axis=0) + np.abs(bias)
    return (k + 2) * 2.0**-51 * scale + 2.0**-47


def _decide(u: np.ndarray, p: np.ndarray, margin: np.ndarray, exact) -> np.ndarray:
    """The decisions u < p_contract, from p within ``margin`` of p_contract.

    An entry is decided by u < p when u lies ``margin`` or more away
    from ``p``.  If any entry does not (a NaN ``p`` never does),
    ``exact()`` evaluates the contract probabilities once and decides
    those entries.
    """
    d = u - p
    on = d < 0  # the sign of a rounded difference is exact
    np.abs(d, out=d)
    if not d.size or d.min() >= margin.max():
        return on
    return np.where(d >= margin, on, u < exact())


def _use_csr(w: np.ndarray) -> bool:
    """Whether the fast products apply ``w`` through CSR (see SPARSE_MIN_WEIGHTS)."""
    return w.size >= SPARSE_MIN_WEIGHTS and np.count_nonzero(w) <= SPARSE_MAX_DENSITY * w.size


def _fast_products(w: np.ndarray, free: np.ndarray):
    """Functions v -> v @ w and h -> h @ w[free].T, CSR when _use_csr(w).

    scipy.sparse is imported only when CSR is used.
    """
    if _use_csr(w):
        from scipy.sparse import csr_array

        w_t, w_free = csr_array(w.T), csr_array(w[free])
        return (lambda v: (w_t @ v.T).T), (lambda h: (w_free @ h.T).T)
    w_free_t = np.ascontiguousarray(w[free].T)
    return (lambda v: v @ w), (lambda h: h @ w_free_t)


def _chain_sweeps(rbm: Rbm, free: np.ndarray, gens, v: np.ndarray, n_sweeps: int):
    """Block Gibbs on the rows of ``v`` in place; yield (v, h) after every sweep.

    Row c draws from ``gens[c]``: n_hidden then n_visible uniforms per
    sweep.  Only the ``free`` visible units change; the uniforms of
    clamped units are drawn and left unused.  Sweeps over at least
    FILTER_MIN_ENTRIES units decide through _decide (see the module
    docstring); smaller ones evaluate the contract expression directly.
    """
    nh = rbm.n_hidden
    w, hb = rbm.weights, rbm.hidden_bias
    vb_free, u_free = rbm.visible_bias[free], nh + free

    def hidden_p():
        return expit(v @ w + hb)

    def visible_p():
        return expit((h @ w.T)[:, free] + vb_free)

    if len(v) * (nh + rbm.n_visible) >= FILTER_MIN_ENTRIES:
        hidden_product, visible_product = _fast_products(w, free)
        h_margin, v_margin = _margins(w, hb), _margins(w[free].T, vb_free)

        def hidden_on(u):
            return _decide(u, _fast_sigmoid(hidden_product(v) + hb), h_margin, hidden_p)

        def visible_on(u):
            return _decide(u, _fast_sigmoid(visible_product(h) + vb_free), v_margin,
                           visible_p)
    else:
        def hidden_on(u):
            return u < hidden_p()

        def visible_on(u):
            return u < visible_p()

    for u in _sweep_uniforms(gens, nh + rbm.n_visible, n_sweeps):
        h = hidden_on(u[:, :nh]).astype(np.float64)
        if free.size:
            v[:, free] = visible_on(u[:, u_free])
        yield v, h


def _check_schedule(n_sweeps: int, burn_in: int, thin: int) -> None:
    if n_sweeps < 1 or burn_in < 0 or thin < 1 or burn_in >= n_sweeps:
        raise ValueError("need n_sweeps >= 1, 0 <= burn_in < n_sweeps, thin >= 1")


def _recorded_states(model, clamp, seeds: Sequence[int], n_sweeps: int, burn_in: int,
                     thin: int):
    """Start one chain per seed; iterate the visible matrix after each recorded sweep.

    Sweep t (from 0) is recorded when t >= burn_in and (t - burn_in) is a
    multiple of ``thin``.
    """
    _check_schedule(n_sweeps, burn_in, thin)
    if not len(seeds):
        raise ValueError("need at least one chain")
    rbm, _ = model_parts(model)
    idx, vals, free = clamp_arrays(rbm, resolve_clamp(model, clamp))
    gens = [np.random.default_rng(int(s)) for s in seeds]
    v = _initial_visible(rbm, gens, idx, vals)
    sweeps = _chain_sweeps(rbm, free, gens, v, n_sweeps)
    return (v for v, _ in itertools.islice(sweeps, burn_in, None, thin))


def _n_recorded(n_sweeps: int, burn_in: int, thin: int) -> int:
    return (n_sweeps - burn_in + thin - 1) // thin


def _record_indices(rbm: Rbm, record_terminals) -> tuple[np.ndarray, tuple[str, ...]]:
    if record_terminals is None:
        return np.arange(rbm.n_visible, dtype=np.intp), rbm.visible_names
    idx = np.array([rbm.terminal_index(n) for n in record_terminals], dtype=np.intp)
    return idx, tuple(record_terminals)


class _Recorder:
    """The recorded columns of chain states, kept as uint8 rows.

    ``histogram()`` folds the rows held so far into one Histogram, and a
    full buffer is folded before it takes more rows.  Folding counts
    each distinct row with ``np.unique`` over the rows viewed as one
    opaque (void) value each, which sorts like the row, bytewise
    (``np.unique(axis=0)`` compares column by column and is about 20x
    slower), and builds its key tuple once.
    """

    def __init__(self, names: tuple[str, ...], cols: np.ndarray, n_chains: int,
                 n_rows: int):
        self.hist = Histogram(names)
        self.cols = cols
        size = max(n_chains, RECORD_BLOCK_BYTES // max(len(cols), 1))
        self.rows = np.empty((min(n_rows, size), len(cols)), dtype=np.uint8)
        self.n = 0

    def add(self, v: np.ndarray) -> None:
        if self.n + len(v) > len(self.rows):
            self.histogram()
        self.rows[self.n:self.n + len(v)] = v[:, self.cols]
        self.n += len(v)

    def histogram(self) -> Histogram:
        rows, self.n = self.rows[:self.n], 0
        if not rows.size:  # no rows, or every row is the empty key ()
            if len(rows):
                self.hist.add((), len(rows))
            return self.hist
        keys, counts = np.unique(rows.view(np.dtype((np.void, rows.shape[1]))).ravel(),
                                 return_counts=True)
        keys = keys.view(np.uint8).reshape(len(keys), rows.shape[1])
        for key, n in zip(keys.tolist(), counts.tolist()):
            self.hist.add(tuple(key), n)
        return self.hist


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
    states = _recorded_states(model, clamp, [seed], n_sweeps, burn_in, thin)
    rec_idx, rec_names = _record_indices(rbm, record_terminals)
    samples = np.empty((_n_recorded(n_sweeps, burn_in, thin), rbm.n_visible), dtype=np.uint8)
    recorder = _Recorder(rec_names, rec_idx, 1, len(samples))
    for r, v in enumerate(states):
        samples[r] = v[0]
        recorder.add(v)
    trace = ChainTrace(
        names=rbm.visible_names,
        samples=samples,
        free_energy=free_energy_batch(rbm, samples),
        seed=int(seed),
        burn_in=burn_in,
        thin=thin,
    )
    return trace, recorder.histogram()


def gibbs_sweep(model, state: BinaryState, clamp=None, rng=None) -> BinaryState:
    """One sweep from an explicit state; draws h then v from ``rng``."""
    rbm, _ = model_parts(model)
    idx, vals, free = clamp_arrays(rbm, resolve_clamp(model, clamp))
    rng = np.random.default_rng() if rng is None else rng
    state = BinaryState.checked(rbm, state.visible, state.hidden)
    v = np.asarray(state.visible, dtype=np.float64)[None].copy()
    if idx.size and not np.array_equal(v[0, idx], vals):
        raise ValueError("state disagrees with clamped values")
    (v, h), = _chain_sweeps(rbm, free, [rng], v, 1)
    return BinaryState(v[0].astype(np.uint8), h[0].astype(np.uint8))


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
    if seeds is None:
        seeds = [seed + c for c in range(n_chains)]
    elif len(seeds) != n_chains:
        raise ValueError("seeds length must equal n_chains")
    states = _recorded_states(model, clamp, seeds, n_sweeps, burn_in, thin)
    rec_idx, rec_names = _record_indices(rbm, record_terminals)
    recorder = _Recorder(rec_names, rec_idx, n_chains,
                         n_chains * _n_recorded(n_sweeps, burn_in, thin))
    for v in states:
        recorder.add(v)
    return recorder.histogram()


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
    # Sweeps recorded when each checkpoint's pooled sample count is reached.
    marks = [(c + n_chains - 1) // n_chains for c in checkpoints]
    successes = np.zeros(len(checkpoints))
    for i, task in enumerate(tasks):
        seeds = [seed + i * n_chains + c for c in range(n_chains)]
        states = _recorded_states(model, clamp_assignments(model, task), seeds,
                                  burn_in + marks[-1], burn_in, 1)
        rec_idx, rec_names = _record_indices(rbm, answer_terminals(model, task))
        check = assignment_checker(model, task)
        recorder = _Recorder(rec_names, rec_idx, n_chains, n_chains * marks[-1])
        next_mark = 0
        for r, v in enumerate(states, start=1):
            recorder.add(v)
            while next_mark < len(marks) and r == marks[next_mark]:
                bits, _ = answer_mode(model, task, recorder.histogram())
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
    _check_schedule(n_sweeps, burn_in, thin)
    if n_ladders < 1:
        raise ValueError("need n_ladders >= 1")
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
    recorder = _Recorder(rec_names, rec_idx, n_ladders,
                         n_ladders * _n_recorded(n_sweeps, burn_in, thin))
    for t, u in enumerate(_sweep_uniforms(gens, rbm.n_visible, n_sweeps)):
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
            recorder.add(v[top])
    return recorder.histogram()
