"""Exact enumeration tools for small models, and the component plan.

Everything here is brute force over binary state spaces, gated by this
module's own size limits.  States are indexed little-endian: unit i holds
bit i of the index (``_bit_grid``, and its inverse ``_bit_index``).
Joint states are indexed as ``v_index + (h_index << n_free)``.

A composed model's free energy is a sum of component terms, F(v) = -b.v
+ sum_g T_g[v_g]: ``component_plan`` finds the components once per model
(_hidden_groups), and enumerates each distinct T_g on first request.

The convergence bound implemented by :func:`convergence_bound` contracts
the L1 distance between an initial distribution and the stationary one by
``(1 - exp(-2 * delta))`` per sweep, where delta is the energy range of
the model.  The returned value is in total-variation units (half L1), so
``initial_l1`` may be at most 2.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.special import logsumexp

from .merge import clamp_arrays, model_parts, resolve_clamp
from .model import free_energy_batch

MAX_FREE_UNITS = 24
MAX_JOINT_UNITS = 20
MAX_MATRIX_UNITS = 14


def _bit_grid(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Bit vectors (uint8) of the states start..stop - 1, by default all 2^n;
    row k holds bit i of state start + k at column i."""
    ks = np.arange(start, 2**n if stop is None else stop, dtype="<u8")
    return np.unpackbits(ks.view(np.uint8).reshape(-1, 8), axis=1, count=n, bitorder="little")


def _bit_index(bits: np.ndarray) -> np.ndarray:
    """The states whose little-endian bits are the rows of ``bits`` (the
    inverse of _bit_grid): int64, or Python ints past 62 bits, where int64
    would overflow."""
    place = np.array([1 << j for j in range(bits.shape[1])],
                     dtype=np.int64 if bits.shape[1] < 63 else object)
    return bits.astype(place.dtype) @ place


def _marginalize(probs: np.ndarray, index: np.ndarray, k: int) -> np.ndarray:
    """(clamps, 2^k) marginals of ``probs`` (clamps, states): entry (c, m)
    sums row c over the states whose ``index`` (a _bit_index of k bits) is m."""
    bins = index + (np.arange(len(probs))[:, None] << k)
    return np.bincount(bins.reshape(-1), weights=probs.reshape(-1),
                       minlength=len(probs) << k).reshape(len(probs), 2**k)


@dataclass(frozen=True)
class ExactDistribution:
    """Exact probabilities over the free visible units of a model.

    ``support`` row k is the assignment of ``names`` (the free terminals)
    with index k; ``clamped`` records the fixed assignment the
    distribution is conditioned on.  ``log_partition`` is log Z of the
    clamped model, summed over hidden units as well.
    """

    names: tuple[str, ...]
    support: np.ndarray
    probabilities: np.ndarray
    log_partition: float
    clamped: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.support.shape != (len(self.probabilities), len(self.names)):
            raise ValueError("support shape does not match names/probabilities")
        if np.any(self.probabilities < 0):
            raise ValueError("negative probability")
        # exp(-F - log Z) rounds in proportion to |log Z|, which grows with sharpness.
        tolerance = 1e-9 + 8 * np.finfo(np.float64).eps * abs(self.log_partition)
        if abs(float(self.probabilities.sum()) - 1.0) > tolerance:
            raise ValueError("probabilities must sum to 1")

    @property
    def partition_function(self) -> float:
        return float(np.exp(self.log_partition))

    def index_of(self, bits: Sequence[int]) -> int:
        key = np.asarray(bits, dtype=np.uint8)
        matches = np.nonzero((self.support == key).all(axis=1))[0]
        if matches.size != 1:
            raise KeyError(f"assignment {tuple(bits)} not in support")
        return int(matches[0])

    def prob_of(self, bits: Sequence[int]) -> float:
        return float(self.probabilities[self.index_of(bits)])

    def mass(self, rows: Iterable[Sequence[int]]) -> float:
        return float(sum(self.prob_of(r) for r in rows))

    def marginal(self, names: Sequence[str]) -> "ExactDistribution":
        index = _bit_index(self.support[:, [self.names.index(n) for n in names]])
        return ExactDistribution(
            names=tuple(names),
            support=_bit_grid(len(names)),
            probabilities=_marginalize(self.probabilities[None], index, len(names))[0],
            log_partition=self.log_partition,
            clamped=dict(self.clamped),
        )


# Pass sizes of the one free-energy enumeration (_passes), under exact
# distributions, marginal modes, replica-exchange tables and refinement.  A
# pass scores min(2^free, PASS_ROWS) rows and packs whole clamps up to
# PASS_ACTIVATIONS hidden activations (rows x hidden units); only a layer too
# wide for MAX_PASS_ACTIVATIONS takes fewer rows, a power of two of at least 4.
# No pass is a short tail, which keeps scores byte-identical: BLAS rounds a row
# alike in any pass whose length is a multiple of its kernel's row block (4
# rows in the OpenBLAS measured), but not in a shorter tail.
PASS_ROWS = 1 << 16
PASS_ACTIVATIONS = 1 << 16
MAX_PASS_ACTIVATIONS = 1 << 22


def _shared_clamp(rbm, assignments: Sequence[Mapping[str, int]]):
    """(clamped indices, one row of their values per assignment, free
    indices) of resolved assignments that all fix the same units."""
    arrays = [clamp_arrays(rbm, a) for a in assignments]
    idx, _, free = arrays[0]
    if any(not np.array_equal(a[0], idx) for a in arrays):
        raise ValueError("clamps must fix the same units")
    if free.size > MAX_FREE_UNITS:
        raise ValueError(f"{free.size} free units exceed limit {MAX_FREE_UNITS}")
    return idx, np.array([a[1] for a in arrays]).reshape(len(arrays), idx.size), free


def _passes(rbm, idx: np.ndarray, vals: np.ndarray, free: np.ndarray, chunk: int):
    """Yield (V, V @ W + a, -F(V)) for each ``chunk`` consecutive states of
    every clamp: with n states in the pass, row c * n + j of V is state
    ``start + j`` under ``vals[c]``."""
    n_states = 2 ** int(free.size)
    for start in range(0, n_states, chunk):
        bits = _bit_grid(int(free.size), start, min(start + chunk, n_states))
        V = np.zeros((len(vals), len(bits), rbm.n_visible), dtype=np.uint8)
        V[:, :, idx] = vals[:, None, :]
        V[:, :, free] = bits
        V = V.reshape(len(vals) * len(bits), rbm.n_visible).astype(np.float64)
        act = V @ rbm.weights
        act += rbm.hidden_bias
        yield V, act, -free_energy_batch(rbm, V, act)


def _free_neg_energies(rbm, idx: np.ndarray, vals: np.ndarray, free: np.ndarray,
                       chunk: int) -> np.ndarray:
    """-F(v) of every free assignment under each row of clamped values, in
    _passes of ``chunk`` states: entry (c, k) is the state whose units ``idx``
    hold ``vals[c]`` and whose free unit ``free[i]`` holds bit i of k."""
    return np.concatenate([neg_f.reshape(len(vals), -1)
                           for *_, neg_f in _passes(rbm, idx, vals, free, chunk)], axis=1)


def _scores(rbm, idx: np.ndarray, vals: np.ndarray, free: np.ndarray, score=None):
    """Yield ``score`` (default _free_neg_energies) of consecutive slices of
    the clamps ``vals``, in passes of the one rule above."""
    n_states, n_hidden = 2 ** int(free.size), max(rbm.n_hidden, 1)
    rows = min(n_states, PASS_ROWS)
    if rows * n_hidden > MAX_PASS_ACTIVATIONS:
        rows = 1 << max(2, (MAX_PASS_ACTIVATIONS // n_hidden).bit_length() - 1)
    rows = max(rows, 1 << max(0, (PASS_ACTIVATIONS // n_hidden).bit_length() - 1))
    per_pass = max(1, rows // n_states)  # whole clamps per pass
    for start in range(0, len(vals), per_pass):
        yield (score or _free_neg_energies)(rbm, idx, vals[start : start + per_pass], free, rows)


def visible_passes(weights: np.ndarray, visible_bias: np.ndarray, hidden_bias: np.ndarray):
    """_passes of the one rule over every visible row of the model with these
    parameters, none clamped; over MAX_FREE_UNITS visible units are refused."""
    part = SimpleNamespace(weights=weights, visible_bias=visible_bias, hidden_bias=hidden_bias,
                           n_visible=len(weights), n_hidden=len(hidden_bias))
    return next(_scores(part, *_shared_clamp(part, [{}]), _passes))


def _distinct_rows(rows: np.ndarray, **unique_args):
    """The distinct rows of a 2-D array of bytes, as uint8, in bytewise order.

    ``unique_args`` go to ``np.unique``, which sees each row as one
    opaque (void) value: that sorts like the row, and is about 20x faster
    than comparing column by column (``axis=0``).
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    keys, *rest = np.unique(rows.view(np.dtype((np.void, rows.shape[1]))).ravel(),
                            **unique_args)
    return keys.view(np.uint8).reshape(len(keys), rows.shape[1]), *rest


def _hidden_groups(w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hidden units grouped by identical visible support.

    Returns one (support, hidden units) pair of increasing index arrays
    per group, in ``np.unique`` order of the supports.  A composed
    circuit gets one group per component.
    """
    keys, group_of, sizes = _distinct_rows(w.T != 0, return_inverse=True,
                                           return_counts=True)
    members = np.split(np.argsort(group_of, kind="stable"), np.cumsum(sizes)[:-1])
    return [(np.flatnonzero(key), hidden) for key, hidden in zip(keys, members)]


# Largest visible support a group may have for its free-energy table (2^n entries).
MAX_TABLE_UNITS = 20


class ComponentPlan:
    """A model's components: ``groups``, those of _hidden_groups, and
    their free-energy ``tables``, built on first read."""

    def __init__(self, rbm):
        self.groups = _hidden_groups(rbm.weights)
        self._parts = rbm.weights, rbm.hidden_bias

    @functools.cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, table): T_g starts at ``offsets[g]`` in the flat ``table``.

        T_g holds -sum_j softplus(a_j + W_j . x) for every assignment x of
        group g's support, its bits packed little-endian: exact, as the
        hidden layer factorizes given v, and scored by visible_passes as
        the free energy of the group's sub-model with zero visible bias.
        Groups with the same local weight block (shape and bytes) and
        hidden biases, such as the copies of one unit, share one table.
        """
        weights, hidden_bias = self._parts
        tables, offsets, offset_of = [], [], {}
        for units, hidden in self.groups:
            if units.size > MAX_TABLE_UNITS:
                raise ValueError(f"a hidden group touches {units.size} visible units; "
                                 f"tables are limited to {MAX_TABLE_UNITS}")
            local, bias = weights[np.ix_(units, hidden)], hidden_bias[hidden]
            key = (local.shape, local.tobytes(), bias.tobytes())
            if key not in offset_of:
                offset_of[key] = sum(t.size for t in tables)
                tables.append(-np.concatenate([neg_f for *_, neg_f in visible_passes(
                    local, np.zeros(len(local)), bias)]))
            offsets.append(offset_of[key])
        return np.array(offsets, dtype=np.int64), np.concatenate(tables or [np.zeros(0)])


# ComponentPlans by id of their Rbm, each dropped when its Rbm is collected.
# An Rbm's arrays are read-only, so its plan never goes stale.
_PLANS: dict[int, ComponentPlan] = {}


def component_plan(rbm) -> ComponentPlan:
    """ComponentPlan(rbm), built once per model."""
    if id(rbm) not in _PLANS:
        _PLANS[id(rbm)] = ComponentPlan(rbm)
        weakref.finalize(rbm, _PLANS.pop, id(rbm), None)
    return _PLANS[id(rbm)]


def exact_visible_distribution(model, clamp: Mapping[str, int] | None = None) -> ExactDistribution:
    """Enumerate p(v_free | clamp) by summing out the hidden layer."""
    rbm, _ = model_parts(model)
    assignments = resolve_clamp(model, clamp)
    idx, vals, free = _shared_clamp(rbm, [assignments])
    neg_f = next(_scores(rbm, idx, vals, free))[0]
    log_z = float(logsumexp(neg_f))
    probs = np.exp(neg_f - log_z)
    names = tuple(rbm.visible_names[i] for i in free)
    return ExactDistribution(names, _bit_grid(int(free.size)), probs, log_z, dict(assignments))


def exact_marginal_modes(model, clamps: Sequence[Mapping[str, int]],
                         names: Sequence[str]) -> np.ndarray:
    """Most probable assignment of the free terminals ``names`` under each clamp.

    Row c equals the support row at the ``argmax`` of
    ``exact_visible_distribution(model, clamps[c]).marginal(names)``,
    computed the same way; the clamps must fix the same units.  Clamps
    are scored together, as many per pass as ``PASS_ACTIVATIONS`` holds.
    """
    rbm, _ = model_parts(model)
    idx, vals, free = _shared_clamp(rbm, [resolve_clamp(model, c) for c in clamps])
    free_names = [rbm.visible_names[i] for i in free]
    index = _bit_index(_bit_grid(int(free.size))[:, [free_names.index(n) for n in names]])
    best = []
    for neg_f in _scores(rbm, idx, vals, free):
        probs = np.exp(neg_f - logsumexp(neg_f, axis=1, keepdims=True))
        best.append(np.argmax(_marginalize(probs, index, len(names)), axis=1))
    return _bit_grid(len(names))[np.concatenate(best)]


def kl_divergence(q, p) -> float:
    """KL(q || p) for distributions on identical supports.

    Accepts probability arrays or ExactDistribution instances.  Requires
    q to vanish wherever p does.
    """
    if isinstance(q, ExactDistribution) and isinstance(p, ExactDistribution):
        if q.names != p.names or not np.array_equal(q.support, p.support):
            raise ValueError("distributions have different supports")
        q, p = q.probabilities, p.probabilities
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if q.shape != p.shape:
        raise ValueError("distributions have different supports")
    live = q > 0
    if np.any(p[live] <= 0):
        raise ValueError("q is not absolutely continuous with respect to p")
    return float(np.sum(q[live] * (np.log(q[live]) - np.log(p[live]))))


def tv_distance(p, q) -> float:
    """Total variation distance, i.e. half the L1 distance."""
    return 0.5 * l1_distance(p, q)


def l1_distance(p, q) -> float:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions have different supports")
    return float(np.abs(p - q).sum())


def _joint_grids(model, clamp: Mapping[str, int] | None, limit: int = MAX_JOINT_UNITS):
    """(rbm, V, H, free): every clamped visible row V and every hidden row H."""
    rbm, _ = model_parts(model)
    idx, vals, free = clamp_arrays(rbm, resolve_clamp(model, clamp))
    if free.size + rbm.n_hidden > limit:
        raise ValueError(f"{free.size} free + {rbm.n_hidden} hidden units exceed limit {limit}")
    V = np.zeros((2 ** int(free.size), rbm.n_visible))
    V[:, idx] = vals
    V[:, free] = _bit_grid(int(free.size))
    return rbm, V, _bit_grid(rbm.n_hidden).astype(np.float64), free


def _joint_log_weights(model, clamp: Mapping[str, int] | None):
    """Log e^{-E} over (hidden, free-visible) grids, hidden as rows."""
    rbm, V, H, _ = _joint_grids(model, clamp)
    # -E(v,h) = b.v + a.h + v W h
    log_w = (V @ rbm.weights) @ H.T + (V @ rbm.visible_bias)[:, None]
    log_w += (H @ rbm.hidden_bias)[None, :]
    return log_w.T  # (2^nh, 2^nf)


def exact_joint_distribution(model, clamp: Mapping[str, int] | None = None):
    """Joint p(h, v_free) grid and log partition function."""
    log_w = _joint_log_weights(model, clamp)
    log_z = float(logsumexp(log_w))
    return np.exp(log_w - log_z), log_z


def delta_exact(model, clamp: Mapping[str, int] | None = None) -> float:
    """Exact energy range max E - min E over all joint states."""
    log_w = _joint_log_weights(model, clamp)
    return float(log_w.max() - log_w.min())


def delta_bound(model) -> float:
    """Cheap upper bound on the energy range: sum of |W|, |a|, |b|."""
    rbm, _ = model_parts(model)
    return float(
        np.abs(rbm.weights).sum()
        + np.abs(rbm.hidden_bias).sum()
        + np.abs(rbm.visible_bias).sum()
    )


def convergence_bound(delta: float, initial_l1: float, n_sweeps) -> np.ndarray | float:
    """Worst-case TV distance from stationarity after n block-Gibbs sweeps.

    ``initial_l1`` is the L1 distance (at most 2) between the start
    distribution and the stationary one; the bound halves it into TV
    units and contracts by (1 - exp(-2 delta)) per sweep.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if not 0.0 <= initial_l1 <= 2.0:
        raise ValueError("initial_l1 must lie in [0, 2]")
    n = np.asarray(n_sweeps)
    if np.any(n < 0) or not np.issubdtype(n.dtype, np.integer):
        raise ValueError("n_sweeps must be nonnegative integers")
    rate = -np.expm1(-2.0 * delta)  # 1 - exp(-2 delta), in [0, 1)
    out = 0.5 * initial_l1 * rate**n
    return float(out) if out.ndim == 0 else out


def _conditional_tables(model, clamp: Mapping[str, int] | None, limit: int = MAX_JOINT_UNITS):
    """Per-state conditionals p(h'|v) and p(v_free'|h) for all states."""
    rbm, V, H, free = _joint_grids(model, clamp, limit)
    act_h = V @ rbm.weights + rbm.hidden_bias  # (2^nf, nh)
    log_ph = act_h @ H.T - np.logaddexp(0.0, act_h).sum(axis=1, keepdims=True)
    act_v = (H @ rbm.weights.T + rbm.visible_bias)[:, free]  # (2^nh, nf)
    Vf = V[:, free]
    log_pv = act_v @ Vf.T - np.logaddexp(0.0, act_v).sum(axis=1, keepdims=True)
    return np.exp(log_ph), np.exp(log_pv)  # (2^nf, 2^nh), (2^nh, 2^nf)


def _sweep(mu: np.ndarray, ph_tab: np.ndarray, pv_tab: np.ndarray) -> np.ndarray:
    """One sweep of distributions ``mu`` (..., 2^nh, 2^nf) over joint states."""
    over_v = mu.sum(axis=-2)  # collapse h: p(v)
    over_h = (ph_tab * over_v[..., :, None]).sum(axis=-2)  # resample h from v; p(h)
    return over_h[..., :, None] * pv_tab  # resample v_free from h


def gibbs_transition_matrix(model, clamp: Mapping[str, int] | None = None) -> np.ndarray:
    """Dense transition matrix of one sweep: hidden update then visible.

    State ``v_index + (h_index << n_free)`` indexes rows and columns; row
    s is one sweep of the point mass on s.  Rows sum to 1; the exact
    joint distribution is stationary.
    """
    ph_tab, pv_tab = _conditional_tables(model, clamp, MAX_MATRIX_UNITS)
    nf_states, nh_states = ph_tab.shape
    n = nh_states * nf_states
    return _sweep(np.eye(n).reshape(n, nh_states, nf_states), ph_tab, pv_tab).reshape(n, n)


def propagate_distribution(model, mu0: np.ndarray, clamp: Mapping[str, int] | None = None):
    """Yield mu0, mu0 P, mu0 P^2, ... exactly, without forming the dense matrix.

    Each distribution is flat in the same ``v_index + (h_index << n_free)``
    order as gibbs_transition_matrix; the conditional tables are built
    once, on the first ``next``.
    """
    ph_tab, pv_tab = _conditional_tables(model, clamp)
    nf_states, nh_states = ph_tab.shape
    mu = np.asarray(mu0, dtype=np.float64).reshape(nh_states, nf_states).copy()
    while True:
        yield mu.reshape(-1)
        mu = _sweep(mu, ph_tab, pv_tab)
