"""Contrastive-divergence training of arithmetic units.

The schedule trains in stages: each stage runs a fixed number of epochs
of CD-k with learning rate 1, evaluates accuracy, then increments k.
Training stops once accuracy has failed to improve for ``patience``
consecutive stages, k would exceed ``k_max``, or accuracy reaches 1;
the parameters from the best stage are returned.  Accuracy scores a
unit against its own truth table rows, with no arithmetic task: each
picked row clamps its input bits, and the output mode must match it.
Every layout fact (terminals, row count, input widths, rows) is read
from the task's ``synthesis.Unit``, so nothing here depends on the kind.

``exact_refine`` continues training a unit whose visible layer is small
enough to enumerate: full-batch steps of the exact log-likelihood
gradient (the negative phase is the model's enumerated visible
distribution, not a CD sample).  It enumerates through exact's pass rule,
under exact's limit of ``exact.MAX_FREE_UNITS`` (24) visible units, each
pass's memory bounded by ``exact.MAX_PASS_ACTIVATIONS``.  CD-k leaves the
valid rows of a 4-bit unit spread over ~10 nats of free energy with
invalid states inside that band; the refinement evens the valid rows out
and lifts the invalid states above them, which a composed circuit needs
for its true answer to be the free-energy minimum.

An epoch presents ``copies_per_epoch`` copies of the state space (or of
a fresh random sample of it when the space is too large to enumerate
and ``dataset_cap`` is set).  Small tables train full-batch, one update
per copy; larger datasets are shuffled and sliced into minibatches.

``cd_step`` and ``train`` run one kernel, ``_cd_update``, which updates
parameter arrays in place; ``train`` keeps them in one flat buffer and
builds an ``Rbm`` once per epoch.  Stream contract: one generator seeded
with ``config.seed`` draws the initial weights, then for each epoch the
permutation first (after the epoch's sampled rows when ``dataset_cap``
is set; full-batch epochs have no permutation), then one draw per batch of
n * (n_hidden + (k - 1) * (n_visible + n_hidden)) uniforms, used in
order: the initial hidden sample, then (visible, hidden) for each
intermediate step.  Each intermediate sample is decided as the sampler
decides, by ``sampler._decide`` on the negated product, so no
probability is formed for it (the decision can differ from
``u < expit(a)`` only where u lies within 2^-52 of p).  Only the three
states the gradient reads, the first hidden and the last visible and
hidden activations, keep ``expit``, so the gradient's bits are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.special import expit, logsumexp

from .merge import model_parts, public_terminals, resolve_clamp
from .model import Rbm, _check_integer
from .sampler import _decide, mode_estimate, multistart
from .synthesis import Unit, parse_unit
from . import exact

# Hidden-layer sizes known to train well for specific units.
KNOWN_HIDDEN = {("adder", 1): 6, ("adder", 2): 28, ("adder", 4): 64,
                ("multiplier", 1): 4, ("multiplier", 2): 12, ("multiplier", 4): 64}

ENUMERATION_LIMIT = 2**20

# Tables at or below this row count train full-batch by default.
FULL_BATCH_LIMIT = 64

# Step size and momentum of the exact-likelihood refinement.
EXACT_LEARNING_RATE = 0.2
EXACT_MOMENTUM = 0.9


# TrainConfig fields that are real numbers >= 0, and the integer fields
# that may be None; every other field is an integer >= 1, or >= _LOWEST.
_RATES = ("learning_rate", "weight_decay", "init_scale")
_OPTIONAL = ("batch_size", "dataset_cap")
_LOWEST = {"seed": 0}


@dataclass(frozen=True)
class TrainConfig:
    k_initial: int = 2
    k_max: int = 10
    learning_rate: float = 1.0
    epochs_per_stage: int = 10
    copies_per_epoch: int = 4
    batch_size: int | None = None
    weight_decay: float = 1e-4
    patience: int = 2
    dataset_cap: int | None = None
    init_scale: float = 0.1
    seed: int = 0
    eval_instances: int = 64
    eval_chains: int = 2
    eval_sweeps: int = 500

    def __post_init__(self):
        for name, value in vars(self).items():
            if name in _RATES:
                if isinstance(value, bool) or not isinstance(value, Real) \
                        or not math.isfinite(value) or value < 0:
                    raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
            elif not (value is None and name in _OPTIONAL):
                _check_integer(name, value, _LOWEST.get(name, 1))
        if self.k_max < self.k_initial:
            raise ValueError(f"need k_initial <= k_max, got {self.k_initial} > {self.k_max}")


def generate_dataset(task, cap: int | None = None,
                     rng: np.random.Generator | None = None) -> tuple[np.ndarray, tuple[str, ...]]:
    """All valid rows of a unit's truth table, or ``cap`` random ones.

    Refuses to enumerate state spaces above 2^20 rows; pass ``cap`` to
    sample instead (with replacement, from ``rng``).
    """
    unit = parse_unit(task)
    if cap is None:
        if unit.size > ENUMERATION_LIMIT:
            raise ValueError(
                f"task has {unit.size} rows; pass cap= to sample instead of enumerating"
            )
        table = unit.table()
        return np.array(table.rows, dtype=np.uint8), table.names
    if cap < 1:
        raise ValueError("cap must be >= 1")
    rng = np.random.default_rng() if rng is None else rng
    # Each row draws its inputs in row order: A, then B, then (adders) Cin.
    highs = [2**n for _, n in unit.inputs]
    rows = np.empty((cap, len(unit.terminals)), dtype=np.uint8)
    for i in range(cap):
        rows[i] = unit.row([int(rng.integers(hi)) for hi in highs])
    return rows, unit.terminals


def _activation(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``expit(x @ w + bias)``, computed in the product's own buffer."""
    a = x @ w
    a += bias
    return expit(a, out=a)


def _cd_update(w: np.ndarray, vb: np.ndarray, hb: np.ndarray, v0: np.ndarray,
               u: np.ndarray, k: int, lr: float, wd: float) -> None:
    """One CD-k update of ``w``, ``vb`` and ``hb`` in place from the rows ``v0``.

    ``u`` holds the step's uniforms in draw order: the initial hidden
    sample, then a visible and a hidden sample for each of the k - 1
    intermediate steps.  The first hidden sample compares with ``ph0``,
    which the gradient needs anyway; the intermediate samples are
    ``_decide(h @ -W.T, vb, u)`` and ``_decide(v @ -W, hb, u)``, with
    ``-W`` formed once, so no sigmoid is taken for a state that is only
    sampled.  The final step's reconstruction statistics use
    activation probabilities on both layers instead of samples; at
    learning rate 1 the sampled version injects enough gradient noise
    that small tables never converge.  The in-place arithmetic does the
    operations of ``w += lr * ((v0.T @ ph0 - pv.T @ ph_k) / n - wd * w)``
    and ``vb += lr * (v0 - pv).mean(axis=0)`` in the same order, so the
    bits are the same.
    """
    n, (nv, nh) = len(v0), w.shape
    ph0 = _activation(v0, w, hb)
    h = (u[: n * nh].reshape(n, nh) < ph0).astype(np.float64)
    neg_w = -w
    for step in range(k - 1):
        pos = n * (nh + step * (nv + nh))
        v = _decide(h @ neg_w.T, vb, u[pos : pos + n * nv].reshape(n, nv)).astype(np.float64)
        pos += n * nv
        h = _decide(v @ neg_w, hb, u[pos : pos + n * nh].reshape(n, nh)).astype(np.float64)
    pv = _activation(h, w.T, vb)
    ph_k = _activation(pv, w, hb)
    grad = v0.T @ ph0
    grad -= pv.T @ ph_k
    grad /= n
    grad -= wd * w
    grad *= lr
    w += grad
    vb += lr * ((v0 - pv).sum(axis=0) / n)
    ph0 -= ph_k
    hb += lr * (ph0.sum(axis=0) / n)


def _cd_uniforms(rng: np.random.Generator, n: int, k: int, nv: int, nh: int) -> np.ndarray:
    """A CD-k step's uniforms for ``n`` rows, drawn in one call."""
    return rng.random(n * (nh + (k - 1) * (nv + nh)))


def cd_step(rbm: Rbm, batch: np.ndarray, config: TrainConfig,
            rng: np.random.Generator, k: int | None = None) -> Rbm:
    """One CD-k parameter update from a batch of visible rows.

    Runs ``_cd_update``, the kernel ``train`` runs, on copies of the
    parameters.  It draws all of the step's uniforms in one call: the
    initial hidden sample, then alternating visible and hidden samples.
    """
    k = config.k_initial if k is None else k
    if k < 1:
        raise ValueError("k must be >= 1")
    v0 = np.asarray(batch, dtype=np.float64)
    if v0.ndim != 2 or v0.shape[1] != rbm.n_visible:
        raise ValueError(f"batch shape {v0.shape} does not match "
                         f"{rbm.n_visible} visible units")
    w, vb, hb = (np.array(p) for p in (rbm.weights, rbm.visible_bias, rbm.hidden_bias))
    u = _cd_uniforms(rng, len(v0), k, rbm.n_visible, rbm.n_hidden)
    _cd_update(w, vb, hb, v0, u, k, config.learning_rate, config.weight_decay)
    return Rbm(w, vb, hb, rbm.visible_names)


def exact_refine(rbm: Rbm, data: np.ndarray, steps: int) -> Rbm:
    """Full-batch ascent on the exact log-likelihood of ``data``.

    Each step enumerates all 2^n_visible visible states in exact's passes,
    so the model expectation of the gradient is exact: a pass's share of it
    is weighted by exp(lse_pass - lse_total); updates use step size
    ``EXACT_LEARNING_RATE`` and momentum ``EXACT_MOMENTUM``.
    Deterministic: draws no random numbers.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    v0 = np.asarray(data, dtype=np.float64)
    if v0.ndim != 2 or not len(v0) or v0.shape[1] != rbm.n_visible:
        raise ValueError(f"data shape {v0.shape} is not a non-empty (rows, "
                         f"{rbm.n_visible}) array")
    if not np.isin(v0, (0, 1)).all():
        raise ValueError("data entries must be 0 or 1")
    w, vb, hb = (np.array(p) for p in (rbm.weights, rbm.visible_bias, rbm.hidden_bias))
    velocity = [np.zeros_like(w), np.zeros_like(vb), np.zeros_like(hb)]
    for _ in range(steps):
        lses, sums = [], []
        for V, act, neg_f in exact.visible_passes(w, vb, hb):
            lses.append(logsumexp(neg_f))
            p, ph = np.exp(neg_f - lses[-1]), expit(act, out=act)  # act is not read again
            sums.append(((V * p[:, None]).T @ ph, p @ V, p @ ph))
        shares = np.exp(np.subtract(lses, logsumexp(lses)))
        ph0 = expit(v0 @ w + hb)
        data_terms = (v0.T @ ph0 / len(v0), v0.mean(axis=0), ph0.mean(axis=0))
        for param, vel, data_term, parts in zip((w, vb, hb), velocity, data_terms, zip(*sums)):
            vel *= EXACT_MOMENTUM
            vel += data_term - sum(share * part for share, part in zip(shares, parts))
            param += EXACT_LEARNING_RATE * vel
    return Rbm(w, vb, hb, rbm.visible_names)


def _squared_errors(rbm: Rbm, rows: np.ndarray) -> np.ndarray:
    """Per-entry squared error of the deterministic one-step reconstruction."""
    v = np.asarray(rows, dtype=np.float64)
    ph = expit(v @ rbm.weights + rbm.hidden_bias)
    pv = expit(ph @ rbm.weights.T + rbm.visible_bias)
    return (v - pv) ** 2


def reconstruction_error(rbm: Rbm, data: np.ndarray) -> float:
    """Mean squared error of the deterministic one-step reconstruction."""
    return float(np.mean(_squared_errors(rbm, data)))


def _instances(unit: Unit, limit: int, seed: int) -> list[tuple[int, ...]]:
    """Up to ``limit`` distinct input combinations, in ``unit.rows()`` order.

    Above ``limit`` the picks are indices into ``unit.rows()``, decoded in
    mixed radix over the input widths, the last input lowest, so that wide
    units never build the 2^(2w+1) list.
    """
    if unit.size <= limit:
        return unit.rows()
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(unit.size, size=limit, replace=False).tolist())
    widths = [n for _, n in unit.inputs]
    fields = [(sum(widths[k + 1:]), 2**n - 1) for k, n in enumerate(widths)]  # (shift, mask)
    return [tuple(i >> shift & mask for shift, mask in fields) for i in picks]


def evaluate_accuracy(model, task, n_instances: int = 64, n_chains: int = 2,
                      n_sweeps: int = 500, seed: int = 0) -> float:
    """Fraction of the unit's table rows whose inferred output mode is the row's.

    Each row ``_instances`` picks clamps its input terminals (A, B and Cin,
    or A and B) and is scored on its outputs (S and Cout, or P).  The mode
    comes from ``exact.exact_marginal_modes`` when one clamp's hidden
    activations fit one pass, otherwise from the pooled histogram of
    ``n_chains`` Gibbs chains seeded ``seed + 1000 * i`` for row i.
    """
    unit = parse_unit(task)
    names = unit.terminals
    terminals = public_terminals(model)
    if sorted(terminals) != sorted(names):
        raise KeyError(f"model is not a {unit.kind}{unit.width} unit: it lacks terminals "
                       f"{[t for t in names if t not in terminals]} and has "
                       f"{[t for t in terminals if t not in names]} besides")
    n_in = sum(n for _, n in unit.inputs)  # a row's input bits come first
    rows = [unit.row(x) for x in _instances(unit, n_instances, seed)]
    clamps, expected = [dict(zip(names[:n_in], r)) for r in rows], [r[n_in:] for r in rows]
    outputs = names[n_in:]
    rbm, _ = model_parts(model)
    free = rbm.n_visible - len(resolve_clamp(model, clamps[0]))
    if free <= exact.MAX_FREE_UNITS and \
            2**free * max(rbm.n_hidden, 1) <= exact.MAX_PASS_ACTIVATIONS:
        # The clamps fix the same terminals, so one enumeration scores them all.
        modes = exact.exact_marginal_modes(model, clamps, outputs)
        correct = int((modes == np.array(expected)).all(axis=1).sum())
    else:
        correct = 0
        for i, (clamp, row) in enumerate(zip(clamps, expected)):
            hist = multistart(model, clamp, n_chains=n_chains, n_sweeps=n_sweeps,
                              seed=seed + 1000 * i, record_terminals=outputs)
            correct += mode_estimate(hist)[0] == row
    return correct / len(rows)


def train(task, n_hidden: int | None = None,
          config: TrainConfig = TrainConfig()) -> tuple[Rbm, list[dict]]:
    """Train a unit with the staged CD schedule; returns best model + log."""
    unit = parse_unit(task)
    names = unit.terminals
    if n_hidden is None:
        n_hidden = KNOWN_HIDDEN.get(unit, 4 * len(names))
    _check_integer("n_hidden", n_hidden, 0)
    rng = np.random.default_rng(config.seed)
    rbm = Rbm(
        rng.normal(0.0, config.init_scale, (len(names), n_hidden)),
        np.zeros(len(names)),
        np.zeros(n_hidden),
        names,
    )
    full_rows = None
    if config.dataset_cap is None:
        full_rows, _ = generate_dataset(task)  # raises if too large to enumerate
        full_rows = full_rows.astype(np.float64)

    full_batch = (full_rows is not None and config.batch_size is None
                  and len(full_rows) <= FULL_BATCH_LIMIT)
    batch_size = config.batch_size if config.batch_size is not None else 32

    # One flat buffer, so one isfinite call checks every parameter.
    params = np.concatenate([rbm.weights.ravel(), rbm.visible_bias, rbm.hidden_bias])
    nv = len(names)
    w = params[: nv * n_hidden].reshape(nv, n_hidden)
    vb = params[nv * n_hidden : nv * (n_hidden + 1)]
    hb = params[nv * (n_hidden + 1) :]
    lr, wd = config.learning_rate, config.weight_decay

    metrics: list[dict] = []
    best_acc, best_rbm, stale = -1.0, rbm, 0
    k = config.k_initial
    stage = 0
    while True:
        for epoch in range(config.epochs_per_stage):
            # The epoch's data is table[order] (the table itself when order
            # is None), presented in minibatches.
            if full_batch:
                table, order = full_rows, None
                batches = [table] * config.copies_per_epoch
            else:
                if full_rows is not None:
                    table = full_rows
                    order = rng.permutation(config.copies_per_epoch * len(table))
                    order %= len(table)  # tiled row i is table row i % len(table)
                else:
                    table, _ = generate_dataset(
                        task, cap=config.dataset_cap * config.copies_per_epoch, rng=rng,
                    )
                    table = table.astype(np.float64)
                    order = rng.permutation(len(table))
                batches = (table[order[start : start + batch_size]]
                           for start in range(0, len(order), batch_size))
            for v0 in batches:
                _cd_update(w, vb, hb, v0, _cd_uniforms(rng, len(v0), k, nv, n_hidden),
                           k, lr, wd)
                if not np.isfinite(params).all():
                    raise FloatingPointError(
                        f"training diverged at stage {stage} epoch {epoch} (k={k})")
            rbm = Rbm(w.copy(), vb.copy(), hb.copy(), names)
            # Each distinct row's error once, read in the epoch's order.
            errors = _squared_errors(rbm, table)
            metrics.append({
                "stage": stage, "k": k, "epoch": epoch,
                "recon_error": float(np.mean(errors if order is None else errors[order])),
                "accuracy": None,
            })
        acc = evaluate_accuracy(
            rbm, task, n_instances=config.eval_instances,
            n_chains=config.eval_chains, n_sweeps=config.eval_sweeps,
            seed=config.seed,
        )
        metrics.append({"stage": stage, "k": k, "epoch": None,
                        "recon_error": None, "accuracy": acc})
        if acc > best_acc:
            best_acc, best_rbm, stale = acc, rbm, 0
        else:
            stale += 1
        if acc >= 1.0 or stale >= config.patience or k >= config.k_max:
            break
        k += 1
        stage += 1
    return best_rbm, metrics
