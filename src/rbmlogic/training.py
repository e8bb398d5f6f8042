"""Contrastive-divergence training of arithmetic units.

The schedule trains in stages: each stage runs a fixed number of epochs
of CD-k with learning rate 1, evaluates task accuracy, then increments
k.  Training stops once accuracy has failed to improve for ``patience``
consecutive stages, k would exceed ``k_max``, or accuracy reaches 1;
the parameters from the best stage are returned.

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
intermediate step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np
from scipy.special import expit, logsumexp

from .merge import model_parts, resolve_clamp
from .model import Rbm
from .synthesis import (adder_table, multiplier_table, parse_unit, unit_inputs, unit_row,
                        unit_terminals)
from .tasks import (SolveSettings, answer_terminals, assignment_checker, clamp_assignments,
                    forward_task, solve)
from . import exact

# Hidden-layer sizes known to train well for specific units.
KNOWN_HIDDEN = {("adder", 1): 6, ("adder", 2): 28, ("adder", 4): 64,
                ("mult", 1): 4, ("mult", 2): 12, ("mult", 4): 64}

ENUMERATION_LIMIT = 2**20

# Tables at or below this row count train full-batch by default.
FULL_BATCH_LIMIT = 64

# Step size and momentum of the exact-likelihood refinement.
EXACT_LEARNING_RATE = 0.2
EXACT_MOMENTUM = 0.9


# TrainConfig fields that are real numbers, and the integer fields that
# may be None; every other field is an integer.
_RATES = ("learning_rate", "weight_decay", "init_scale")
_OPTIONAL = ("batch_size", "dataset_cap")


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
                        or not math.isfinite(value):
                    raise ValueError(f"{name} must be a finite number, got {value!r}")
            elif not (value is None and name in _OPTIONAL) and (
                    isinstance(value, bool) or not isinstance(value, Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.k_initial < 1 or self.k_max < self.k_initial:
            raise ValueError("need 1 <= k_initial <= k_max")
        if min(self.epochs_per_stage, self.copies_per_epoch, self.patience,
               self.eval_instances, self.eval_chains, self.eval_sweeps) <= 0:
            raise ValueError("config counts must be positive")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for automatic)")
        if self.weight_decay < 0 or self.init_scale < 0:
            raise ValueError("weight_decay and init_scale must be nonnegative")


def task_layout(task) -> tuple[str, int, tuple[str, ...]]:
    kind, width = parse_unit(task)
    return kind, width, unit_terminals(kind, width)


def dataset_size(task) -> int:
    """Number of distinct valid rows: one per input combination."""
    kind, width = parse_unit(task)
    return 2 ** (2 * width + 1) if kind == "adder" else 2 ** (2 * width)


def generate_dataset(task, cap: int | None = None,
                     rng: np.random.Generator | None = None) -> tuple[np.ndarray, tuple[str, ...]]:
    """All valid rows of a unit's truth table, or ``cap`` random ones.

    Refuses to enumerate state spaces above 2^20 rows; pass ``cap`` to
    sample instead (with replacement, from ``rng``).
    """
    kind, width, names = task_layout(task)
    total = dataset_size(task)
    if cap is None:
        if total > ENUMERATION_LIMIT:
            raise ValueError(
                f"task has {total} rows; pass cap= to sample instead of enumerating"
            )
        table = adder_table(width) if kind == "adder" else multiplier_table(width)
        return np.array(table.rows, dtype=np.uint8), table.names
    if cap < 1:
        raise ValueError("cap must be >= 1")
    rng = np.random.default_rng() if rng is None else rng
    # Each row draws A, then B, then (adders only) Cin.
    highs = (2**width, 2**width, 2) if kind == "adder" else (2**width, 2**width)
    rows = np.empty((cap, len(names)), dtype=np.uint8)
    for i in range(cap):
        rows[i] = unit_row(kind, width, [int(rng.integers(hi)) for hi in highs])
    return rows, names


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
    intermediate steps.  The final step's reconstruction statistics use
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
    pv = _activation(h, w.T, vb)
    for step in range(k - 1):
        pos = n * (nh + step * (nv + nh))
        v = (u[pos : pos + n * nv].reshape(n, nv) < pv).astype(np.float64)
        ph = _activation(v, w, hb)
        pos += n * nv
        h = (u[pos : pos + n * nh].reshape(n, nh) < ph).astype(np.float64)
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


def _instances(kind: str, width: int, limit: int, seed: int) -> list[tuple[int, ...]]:
    """Up to ``limit`` distinct input combinations, in ``unit_inputs`` order.

    Above ``limit`` the picks are indices into ``unit_inputs``, decoded
    arithmetically so that wide units never build the 2^(2w+1) list.
    """
    n = dataset_size((kind, width))
    if n <= limit:
        return unit_inputs(kind, width)
    picks = sorted(np.random.default_rng(seed).choice(n, size=limit, replace=False).tolist())
    mask = (1 << width) - 1
    if kind == "adder":  # index = a << (width + 1) | b << 1 | cin
        return [(i >> (width + 1), (i >> 1) & mask, i & 1) for i in picks]
    return [(i >> width, i & mask) for i in picks]  # index = a << width | b


def _exact_eval_feasible(model, spec) -> bool:
    """Evaluation is exact when one clamp's hidden activations fit one pass."""
    rbm, _ = model_parts(model)
    free = rbm.n_visible - len(resolve_clamp(model, clamp_assignments(model, spec)))
    return free <= exact.MAX_FREE_UNITS and \
        2**free * max(rbm.n_hidden, 1) <= exact.MAX_PASS_ACTIVATIONS


def evaluate_accuracy(model, task, n_instances: int = 64, n_chains: int = 2,
                      n_sweeps: int = 500, seed: int = 0,
                      method: str = "auto") -> float:
    """Fraction of input combinations whose inferred mode is correct.

    The answer mode comes from the exact clamped distribution when the
    model is small enough to enumerate ("auto"), otherwise from the
    pooled histogram of ``n_chains`` Gibbs chains.  Pass
    ``method="sample"`` or ``"exact"`` to force either path.
    """
    if method not in ("auto", "exact", "sample"):
        raise ValueError(f"unknown method {method!r}")
    kind, width, _ = task_layout(task)
    instances = _instances(kind, width, n_instances, seed)
    use_exact = method == "exact" or (
        method == "auto" and _exact_eval_feasible(model, forward_task(width, instances[0]))
    )
    specs = [forward_task(width, inputs) for inputs in instances]
    if use_exact:
        # Forward tasks clamp the same terminals, so one enumeration scores them all.
        record = answer_terminals(model, specs[0])
        modes = exact.exact_marginal_modes(
            model, [clamp_assignments(model, spec) for spec in specs], record)
        correct = sum(assignment_checker(model, spec)(dict(zip(record, bits)))
                      for spec, bits in zip(specs, modes))
    else:
        correct = sum(solve(model, spec, SolveSettings(n_chains=n_chains, n_sweeps=n_sweeps,
                                                       seed=seed + 1000 * i)).success
                      for i, spec in enumerate(specs))
    return correct / len(instances)


def train(task, n_hidden: int | None = None,
          config: TrainConfig = TrainConfig()) -> tuple[Rbm, list[dict]]:
    """Train a unit with the staged CD schedule; returns best model + log."""
    kind, width, names = task_layout(task)
    if n_hidden is None:
        n_hidden = KNOWN_HIDDEN.get((kind, width), 4 * len(names))
    if isinstance(n_hidden, bool) or not isinstance(n_hidden, Integral) or n_hidden < 0:
        raise ValueError(f"n_hidden must be an integer >= 0, got {n_hidden!r}")
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
