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

_chain_sweeps is the one block Gibbs kernel.
_recorded_states is the one run driver: it checks the schedule, resolves
the clamp, seeds one generator per row, draws the start state and picks
the recorded sweeps, for block Gibbs (_chain_sweeps) and for
replica_exchange's tempered sweep.  _Recorder is the one sample recorder
and _pooled_histograms the one record loop: it feeds the recorded rows
to a _Recorder and yields the pooled Histogram at given counts of
recorded sweeps, for multistart, replica_exchange and the success curves
of tasks; run_chain keeps its own loop, as it returns every sample.
The components a sweep works on come from exact.component_plan, found
once per model: block Gibbs reads their groups, replica exchange their
free-energy tables.  A Histogram is arrays end to end: sorted distinct
uint8 keys and their int64 counts.  Recording, pooling and marginals all
re-tally concatenated keys with their weights (_tally).  Keys stay
sorted, so the first largest count is the mode and a stable sort of the
counts orders the top keys, ties to the least.

Every update is the decision u < p, made one way: _decide tests u (1 +
exp(-a)) < 1 on the negated activation -a, in its buffer, and never
forms p.  In block Gibbs the fork picks only the product: sweeps under
BLOCK_MIN_ENTRIES multiply-adds (chains x n_visible x n_hidden) take
v @ -W and (h @ -W.T)[:, free] densely, larger ones the negated block
products (_BlockProducts: one batched matmul per column slice of equally
shaped component blocks, the visible product over the free columns
only).  Replica exchange decides on -a = beta (F(v_i = 1) - F(v_i = 0)).
Round-to-nearest is sign-symmetric, so exp sees exactly -a, and the
decision is u < p but for the rounding of one product: within 2**-52 of
p, which lies within 2**-47 plus the summation-order bound of the
sigmoid.  The stream contract is the same on every path.

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

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .exact import _bit_index, _distinct_rows, component_plan
from .merge import clamp_arrays, model_parts, resolve_clamp
from .model import Rbm, free_energy_batch


class Histogram:
    """Counts of recorded assignments of ``names``.

    One representation: ``keys``, the distinct assignments as (K,
    len(names)) uint8 rows in bytewise order, which is the lexicographic
    order of the key tuples, and ``key_counts``, their int64 counts.
    Every change re-tallies the concatenated rows with their weights
    (_fold).  ``counts`` is a dict {key tuple: count} built on each read.
    """

    def __init__(self, names: Sequence[str], counts: Mapping[tuple[int, ...], int] | None = None):
        self.names = tuple(names)
        self.keys = np.zeros((0, len(self.names)), dtype=np.uint8)
        self.key_counts = np.zeros(0, dtype=np.int64)
        if counts:
            self._fold(self._key_rows(counts), np.fromiter(counts.values(), np.int64, len(counts)))

    def _key_rows(self, keys) -> np.ndarray:
        rows = np.array(list(keys), dtype=np.int64)
        if rows.shape != (len(keys), len(self.names)) or ((rows < 0) | (rows > 255)).any():
            raise ValueError(f"keys must be {len(self.names)} values in 0..255")
        return rows.astype(np.uint8)

    def _fold(self, rows: np.ndarray, weights: np.ndarray) -> None:
        """Add uint8 ``rows``, which may repeat, with int64 ``weights``."""
        self.keys, self.key_counts = _tally(np.concatenate([self.keys, rows]),
                                            np.concatenate([self.key_counts, weights]))

    @property
    def counts(self) -> dict[tuple[int, ...], int]:
        return dict(zip(map(tuple, self.keys.tolist()), self.key_counts.tolist()))

    @property
    def total(self) -> int:
        return int(self.key_counts.sum())

    def add(self, key: tuple[int, ...], weight: int = 1) -> None:
        self._fold(self._key_rows([key]), np.array([weight], dtype=np.int64))

    def __add__(self, other: "Histogram") -> "Histogram":
        if self.names != other.names:
            raise ValueError("histograms cover different terminals")
        out = Histogram(self.names)
        out._fold(np.concatenate([self.keys, other.keys]),
                  np.concatenate([self.key_counts, other.key_counts]))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (self.names == other.names and np.array_equal(self.keys, other.keys)
                and np.array_equal(self.key_counts, other.key_counts))

    def __repr__(self) -> str:
        return f"Histogram({self.names!r}, {self.counts!r})"

    def frequency(self, key: tuple[int, ...]) -> float:
        total, row = self.total, np.asarray(key)
        if not total or row.shape != (len(self.names),):
            return 0.0
        return float(self.key_counts[(self.keys == row).all(axis=1)].sum()) / total

    def marginal(self, names: Sequence[str]) -> "Histogram":
        out = Histogram(names)
        out._fold(self.keys[:, [self.names.index(n) for n in names]], self.key_counts)
        return out

    def top(self, k: int) -> list[tuple[tuple[int, ...], int]]:
        """The k most frequent assignments; ties break to the lexicographically least.

        A stable sort on falling count keeps tied keys in their sorted
        order, so it orders by (-count, key).
        """
        order = np.argsort(-self.key_counts, kind="stable")[:max(k, 0)]
        return [(tuple(key), n) for key, n in
                zip(self.keys[order].tolist(), self.key_counts[order].tolist())]


def mode_estimate(histogram: Histogram) -> tuple[tuple[int, ...], int]:
    """Most frequent assignment; ties break to the lexicographically least."""
    if not len(histogram.keys):
        raise ValueError("empty histogram has no mode")
    i = int(np.argmax(histogram.key_counts))  # the first maximum has the least key
    return tuple(histogram.keys[i].tolist()), int(histogram.key_counts[i])


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


# Sweeps of at least BLOCK_MIN_ENTRIES dense multiply-adds per product
# (chains x n_visible x n_hidden) take the block products; smaller ones
# are faster dense.  The crossover is measured in the README's size-fork
# table.
BLOCK_MIN_ENTRIES = 150_000


@np.errstate(over="ignore", invalid="ignore")
def _decide(neg: np.ndarray, bias: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u < 1 / (1 + exp(neg - bias)) as u (1 + exp(neg - bias)) < 1, in neg's buffer.

    Where exp overflows, u * inf is inf or (u = 0) NaN: not < 1, as p = 0.
    The decorator enters one errstate per call, cheaper than a with block.
    """
    neg -= bias
    np.exp(neg, out=neg)
    neg += 1.0
    neg *= u
    return neg < 1.0


def _tally(rows: np.ndarray, weights: np.ndarray):
    """The distinct rows of a 2-D uint8 array, in bytewise order, and the
    summed int64 ``weights`` of each."""
    if not rows.shape[1]:  # every row is the empty key ()
        n = min(len(rows), 1)
        return rows[:n], np.full(n, weights.sum(), np.int64)
    keys, inverse = _distinct_rows(rows, return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, inverse, weights)
    return keys, counts


class _BlockProducts:
    """The negated products v -> -(v @ w) and h -> -(h @ w[free].T), block by block.

    Each of the ``groups`` (exact._hidden_groups of w) is cut into blocks,
    runs of adjacent hidden columns, and the blocks are ordered by column.
    A class is a maximal run of neighbouring blocks of equal (support size
    s, hidden count n), so its G blocks fill one column slice.  It keeps their
    supports ``units`` (G, s), that slice, its negated weight blocks
    (G, s, n) and their transposes (G, n, s), and takes each product with
    one batched matmul: exactly the negated product, as rounding to
    nearest is sign-symmetric.  The visible product writes every class's (G, s)
    outputs into slots and sums the slots of each free unit through the
    padded (n_free, max_degree) index ``gather``; padding points at a
    slot that stays zero.  A dense model is one block.  Either product
    sums a unit's k nonzero terms (exact, as inputs are binary) in some
    order: within 2 k 2**-53 S of any other order, S = sum |w| + |bias|
    over the unit, and a quarter of that after the sigmoid.
    """

    def __init__(self, w: np.ndarray, free: np.ndarray, groups):
        self.n_hidden = w.shape[1]
        blocks = sorted(((support, run) for support, hidden in groups
                         for run in np.split(hidden, np.flatnonzero(np.diff(hidden) > 1) + 1)),
                        key=lambda block: block[1][0])
        self.classes = []
        slot_units, n_slots = [np.zeros(0, np.intp)], 0
        for _, same in itertools.groupby(blocks, key=lambda b: (b[0].size, b[1].size)):
            units, hidden = (np.array(arrays, dtype=np.intp) for arrays in zip(*same))
            weights = np.negative(w[units[:, :, None], hidden[:, None, :]])
            cols = slice(int(hidden[0, 0]), int(hidden[-1, -1]) + 1)
            slots = slice(n_slots, n_slots + units.size)
            self.classes.append((units, cols, weights,
                                 np.ascontiguousarray(weights.transpose(0, 2, 1)), slots))
            slot_units.append(units.ravel())
            n_slots += units.size
        self.n_slots = n_slots
        # Slots of every free unit, padded with the zero slot n_slots
        # (at least one column, so a unit with no slots reads zero).
        position = np.full(w.shape[0], -1)
        position[free] = np.arange(free.size)
        unit_of_slot = position[np.concatenate(slot_units)]
        slot = np.flatnonzero(unit_of_slot >= 0)
        owner = unit_of_slot[slot]
        degree = np.bincount(owner, minlength=free.size)
        self.gather = np.full((free.size, degree.max(initial=1)), n_slots, dtype=np.intp)
        order = np.argsort(owner, kind="stable")
        rank = np.arange(slot.size) - np.repeat(np.cumsum(degree) - degree, degree)
        self.gather[owner[order], rank] = slot[order]

    def hidden(self, v: np.ndarray) -> np.ndarray:
        """-(v @ w) for rows of v."""
        out = np.empty((len(v), self.n_hidden))
        for units, cols, blocks, _, _ in self.classes:
            np.matmul(v[:, units].transpose(1, 0, 2), blocks,
                      out=_blocks_view(out, cols, blocks.shape[2]))
        return out

    def visible(self, h: np.ndarray) -> np.ndarray:
        """-(h @ w[free].T) for rows of h."""
        slots = np.empty((len(h), self.n_slots + 1))
        slots[:, -1] = 0.0
        for units, cols, _, blocks_t, at in self.classes:
            if not units.shape[1]:  # groups with no visible support
                continue
            np.matmul(_blocks_view(h, cols, blocks_t.shape[1]), blocks_t,
                      out=_blocks_view(slots, at, units.shape[1]))
        out = slots[:, self.gather[:, 0]]
        for d in range(1, self.gather.shape[1]):
            out += slots[:, self.gather[:, d]]
        return out


def _blocks_view(a: np.ndarray, cols: slice, width: int) -> np.ndarray:
    """Columns ``cols`` of a 2-D array as a (blocks, rows, width) view."""
    return a[:, cols].reshape(len(a), -1, width).transpose(1, 0, 2)


def _chain_sweeps(rbm: Rbm, free: np.ndarray, gens, v: np.ndarray, n_sweeps: int):
    """Block Gibbs on the rows of ``v`` in place; yield (v, h) after every sweep.

    Row c draws from ``gens[c]``: n_hidden then n_visible uniforms per
    sweep.  Only the ``free`` visible units change; the uniforms of
    clamped units are drawn and left unused.  The dense work of the sweep
    picks how the negated products are taken (see the module docstring).
    """
    nh = rbm.n_hidden
    w, hb = rbm.weights, rbm.hidden_bias
    vb_free, u_free = rbm.visible_bias[free], nh + free
    if len(v) * w.size < BLOCK_MIN_ENTRIES:
        neg_w = np.negative(w)
        hidden, visible = (lambda rows: rows @ neg_w), (lambda h: (h @ neg_w.T)[:, free])
    else:
        products = _BlockProducts(w, free, component_plan(rbm).groups)
        hidden, visible = products.hidden, products.visible
    for u in _sweep_uniforms(gens, nh + rbm.n_visible, n_sweeps):
        h = _decide(hidden(v), hb, u[:, :nh]).astype(np.float64)
        if free.size:
            v[:, free] = _decide(visible(h), vb_free, u[:, u_free])
        yield v, h


def _recorded_states(model, clamp, seeds: Sequence[int], n_sweeps: int, burn_in: int,
                     thin: int, sweeps=_chain_sweeps):
    """Start one chain per seed; iterate the visible matrix after each recorded sweep.

    Row c starts from n_visible uniforms of generator ``seeds[c]`` (a
    unit is on below 0.5), then the clamps.  ``sweeps(rbm, free, gens, v,
    n_sweeps)`` runs the rows of v in place and yields (v, state) after
    every sweep: block Gibbs (_chain_sweeps) unless given.  Sweep t (from
    0) is recorded when t >= burn_in and (t - burn_in) is a multiple of
    ``thin``.
    """
    if n_sweeps < 1 or burn_in < 0 or thin < 1 or burn_in >= n_sweeps:
        raise ValueError("need n_sweeps >= 1, 0 <= burn_in < n_sweeps, thin >= 1")
    if not len(seeds):
        raise ValueError("need at least one chain")
    rbm, _ = model_parts(model)
    idx, vals, free = clamp_arrays(rbm, resolve_clamp(model, clamp))
    gens = [np.random.default_rng(int(s)) for s in seeds]
    v = np.empty((len(gens), rbm.n_visible))
    for c, gen in enumerate(gens):
        v[c] = gen.random(rbm.n_visible) < 0.5
    v[:, idx] = vals
    return (v for v, _ in itertools.islice(sweeps(rbm, free, gens, v, n_sweeps),
                                           burn_in, None, thin))


def _n_recorded(n_sweeps: int, burn_in: int, thin: int) -> int:
    return (n_sweeps - burn_in + thin - 1) // thin


class _Recorder:
    """The recorded terminals of chain states, kept as uint8 rows.

    ``record_terminals`` None records every visible unit.
    ``histogram()`` folds the rows held so far into one Histogram, and a
    full buffer is folded before it takes more rows: its rows are tallied
    with the histogram's keys (Histogram._fold), no key tuple is built.
    """

    def __init__(self, rbm: Rbm, record_terminals: Sequence[str] | None, n_chains: int,
                 n_records: int):
        if record_terminals is None:
            names, self.cols = rbm.visible_names, np.arange(rbm.n_visible)
        else:
            names = tuple(record_terminals)
            self.cols = np.array([rbm.terminal_index(n) for n in names], dtype=np.intp)
        self.hist = Histogram(names)
        size = max(n_chains, RECORD_BLOCK_BYTES // max(len(self.cols), 1))
        self.rows = np.empty((min(n_chains * n_records, size), len(self.cols)), dtype=np.uint8)
        self.n = 0

    def add(self, v: np.ndarray) -> None:
        if self.n + len(v) > len(self.rows):
            self.histogram()
        self.rows[self.n:self.n + len(v)] = v[:, self.cols]
        self.n += len(v)

    def histogram(self) -> Histogram:
        rows, self.n = self.rows[:self.n], 0
        if len(rows):
            self.hist._fold(rows, np.ones(len(rows), dtype=np.int64))
        return self.hist


def _pooled_histograms(model, clamp, seeds: Sequence[int], n_sweeps: int, burn_in: int,
                       thin: int, record_terminals: Sequence[str] | None,
                       marks: Sequence[int] | None = None, rows=None, sweeps=_chain_sweeps):
    """Record the chains of _recorded_states into one _Recorder; yield the
    pooled Histogram when each of ``marks`` (nondecreasing counts of
    recorded sweeps, by default only the last) is reached.

    ``rows`` picks the state rows recorded (all when None).  The yielded
    Histogram is live: read it before resuming, as the next fold
    reassigns its arrays.
    """
    states = _recorded_states(model, clamp, seeds, n_sweeps, burn_in, thin, sweeps)
    n_records = _n_recorded(n_sweeps, burn_in, thin)
    marks = [n_records] if marks is None else marks
    recorder = _Recorder(model_parts(model)[0], record_terminals,
                         len(seeds) if rows is None else len(rows), n_records)
    next_mark = 0
    for r, v in enumerate(states, start=1):
        recorder.add(v if rows is None else v[rows])
        while next_mark < len(marks) and r == marks[next_mark]:
            yield recorder.histogram()
            next_mark += 1


def run_chain(
    model,
    clamp: Mapping[str, int] | None = None,
    n_sweeps: int = 1000,
    burn_in: int = 0,
    thin: int = 1,
    seed: int = 0,
    record_terminals: Sequence[str] | None = None,
) -> tuple[ChainTrace, Histogram]:
    """Run one chain; record every ``thin``-th sweep after ``burn_in``."""
    rbm, _ = model_parts(model)
    states = _recorded_states(model, clamp, [seed], n_sweeps, burn_in, thin)
    samples = np.empty((_n_recorded(n_sweeps, burn_in, thin), rbm.n_visible), dtype=np.uint8)
    recorder = _Recorder(rbm, record_terminals, 1, len(samples))
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


def multistart(
    model,
    clamp: Mapping[str, int] | None = None,
    n_chains: int = 4,
    n_sweeps: int = 1000,
    burn_in: int = 0,
    thin: int = 1,
    seed: int = 0,
    seeds: Sequence[int] | None = None,
    record_terminals: Sequence[str] | None = None,
) -> Histogram:
    """Pool histograms from independent chains seeded seed, seed+1, ..."""
    if seeds is None:
        seeds = [seed + c for c in range(n_chains)]
    elif len(seeds) != n_chains:
        raise ValueError("seeds length must equal n_chains")
    *_, hist = _pooled_histograms(model, clamp, seeds, n_sweeps, burn_in, thin,
                                  record_terminals)
    return hist


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized autocorrelations at lags 0..max_lag (FFT-based)."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or len(x) <= max_lag or max_lag < 1:
        raise ValueError("need a 1-d series longer than max_lag >= 1")
    if not np.ptp(x):
        raise ValueError("series is constant; autocorrelation undefined")
    x = x - x.mean()
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


def _table_indices(supports: Sequence[np.ndarray], v: np.ndarray) -> np.ndarray:
    """(rows, groups) table index of every group for rows of v."""
    index = np.zeros((len(v), len(supports)), dtype=np.int64)
    for g, units in enumerate(supports):
        index[:, g] = _bit_index(v[:, units])
    return index


def _color_classes(supports: Sequence[np.ndarray], n_visible: int, free: np.ndarray):
    """Free units split into classes that share no group.

    Units of one class are conditionally independent given the rest,
    so a class updates in parallel exactly as it would one unit at a
    time.  Greedy coloring, most-connected units first.
    """
    groups_of = [[] for _ in range(n_visible)]  # (group, bit mask) of each unit
    for g, units in enumerate(supports):
        for pos, i in enumerate(units):
            groups_of[i].append((g, 1 << pos))
    classes: list[tuple[list[int], set[int]]] = []
    for i in sorted(free.tolist(), key=lambda i: (-len(groups_of[i]), i)):
        groups = {g for g, _ in groups_of[i]}
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
                          for g, m in groups_of[i]], dtype=np.int64).reshape(-1, 3)
        slot, group, mask = pairs.T
        spread = np.zeros((len(pairs), len(units)))
        spread[np.arange(len(pairs)), slot] = 1.0
        out.append((np.array(units), slot, group, mask, spread))
    return out


def replica_exchange(
    model,
    clamp: Mapping[str, int] | None = None,
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
    the hidden layer summed out, F(v) = -b.v + sum_g T_g[index_g(v)] over
    the tables of exact.component_plan, built once per model; then
    neighbouring rungs swap states with probability
    min(1, exp((beta_i - beta_j) (F(v_i) - F(v_j)))).  The run costs
    n_ladders * len(betas) * n_sweeps chain-sweeps.  See the module
    docstring for the stream contract.
    """
    if n_ladders < 1:
        raise ValueError("need n_ladders >= 1")
    betas = np.asarray(betas, dtype=np.float64)
    if (betas.ndim != 1 or not betas.size or betas[-1] != 1.0 or (betas <= 0).any()
            or (np.diff(betas) <= 0).any()):
        raise ValueError("betas must be positive, increasing and end at 1.0")
    n_rungs = betas.size
    n_rows = n_ladders * n_rungs
    beta = np.tile(betas, n_ladders)[:, None]

    def tempered_sweeps(rbm, free, gens, v, n_sweeps):
        plan, vb = component_plan(rbm), rbm.visible_bias
        (offsets, table), supports = plan.tables, [units for units, _ in plan.groups]
        classes = _color_classes(supports, rbm.n_visible, free)
        swap_gen = np.random.default_rng(seed + n_rows)
        index = _table_indices(supports, v)
        for t, u in enumerate(_sweep_uniforms(gens, rbm.n_visible, n_sweeps)):
            for units, slot, group, mask, spread in classes:
                cur = index[:, group]
                on, off = cur | mask, cur & ~mask
                d_free = (table[offsets[group] + on] - table[offsets[group] + off]) @ spread
                d_free -= vb[units]  # F(v_i = 1) - F(v_i = 0), per unit
                new = _decide(beta * d_free, 0.0, u[:, units])
                v[:, units] = new
                index[:, group] = np.where(new[:, slot], on, off)
            if n_rungs > 1:
                energy = -(v @ vb) + table[offsets + index].sum(axis=1)
                lower = np.arange(t % 2, n_rungs - 1, 2)
                i = (np.arange(n_ladders)[:, None] * n_rungs + lower).ravel()
                j = i + 1
                accept = np.log(swap_gen.random(i.size)) < (
                    (beta[i, 0] - beta[j, 0]) * (energy[i] - energy[j]))
                a, b = i[accept], j[accept]
                v[np.r_[a, b]] = v[np.r_[b, a]]
                index[np.r_[a, b]] = index[np.r_[b, a]]
            yield v, index

    *_, hist = _pooled_histograms(model, clamp, range(seed, seed + n_rows), n_sweeps, burn_in,
                                  thin, record_terminals,
                                  rows=np.arange(n_ladders) * n_rungs + n_rungs - 1,
                                  sweeps=tempered_sweeps)
    return hist
