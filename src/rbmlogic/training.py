"""Contrastive-divergence training of arithmetic units.

The schedule trains in stages: each stage runs a fixed number of epochs
of CD-k with learning rate 1, evaluates task accuracy, then increments
k.  Training stops once accuracy has failed to improve for ``patience``
consecutive stages, k would exceed ``k_max``, or accuracy reaches 1;
the parameters from the best stage are returned.

``exact_refine`` continues training a unit whose visible layer is small
enough to enumerate: full-batch steps of the exact log-likelihood
gradient (the negative phase is the model's enumerated visible
distribution, not a CD sample).  CD-k leaves the valid rows of a 4-bit
unit spread over ~10 nats of free energy with invalid states inside that
band; the refinement evens the valid rows out and lifts the invalid
states above them, which a composed circuit needs for its true answer
to be the free-energy minimum.

An epoch presents ``copies_per_epoch`` copies of the state space (or of
a fresh random sample of it when the space is too large to enumerate
and ``dataset_cap`` is set).  Small tables train full-batch, one update
per copy; larger datasets are shuffled and sliced into minibatches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from .merge import model_parts, resolve_clamp
from .model import Rbm
from .synthesis import (adder_table, multiplier_table, parse_unit, unit_inputs, unit_row,
                        unit_terminals)
from .tasks import TaskSpec, answer_terminals, assignment_checker, clamp_assignments
from . import exact, sampler

# Hidden-layer sizes known to train well for specific units.
KNOWN_HIDDEN = {("adder", 1): 6, ("adder", 2): 28, ("adder", 4): 64,
                ("mult", 1): 4, ("mult", 2): 12, ("mult", 4): 64}

ENUMERATION_LIMIT = 2**20

# Tables at or below this row count train full-batch by default.
FULL_BATCH_LIMIT = 64

# Exact refinement enumerates all 2^n_visible states of the unit.
EXACT_REFINE_MAX_VISIBLE = 16

# Step size and momentum of the exact-likelihood refinement.
EXACT_LEARNING_RATE = 0.2
EXACT_MOMENTUM = 0.9

# Evaluation enumerates the answer distribution exactly when
# 2^(free units) * hidden units stays below this work bound.
EXACT_EVAL_WORK = 2**22


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


# Training units are named as in synthesis: "adder4", "mult8", ("mult", 2).
parse_task = parse_unit


def task_layout(task) -> tuple[str, int, tuple[str, ...]]:
    kind, width = parse_task(task)
    return kind, width, unit_terminals(kind, width)


def dataset_size(task) -> int:
    """Number of distinct valid rows: one per input combination."""
    kind, width = parse_task(task)
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


def cd_step(rbm: Rbm, batch: np.ndarray, config: TrainConfig,
            rng: np.random.Generator, k: int | None = None) -> Rbm:
    """One CD-k parameter update from a batch of visible rows.

    Draw order per step: the initial hidden sample, then alternating
    visible and hidden samples.  The final step's reconstruction
    statistics use activation probabilities on both layers instead of
    samples; at learning rate 1 the sampled version injects enough
    gradient noise that small tables never converge.
    """
    k = config.k_initial if k is None else k
    if k < 1:
        raise ValueError("k must be >= 1")
    v0 = np.asarray(batch, dtype=np.float64)
    if v0.ndim != 2 or v0.shape[1] != rbm.n_visible:
        raise ValueError(f"batch shape {v0.shape} does not match "
                         f"{rbm.n_visible} visible units")
    n = len(v0)
    w, vb, hb = rbm.weights, rbm.visible_bias, rbm.hidden_bias
    ph0 = expit(v0 @ w + hb)
    h = (rng.random(ph0.shape) < ph0).astype(np.float64)
    for step in range(k):
        pv = expit(h @ w.T + vb)
        if step < k - 1:
            v = (rng.random(pv.shape) < pv).astype(np.float64)
            ph = expit(v @ w + hb)
            h = (rng.random(ph.shape) < ph).astype(np.float64)
    ph_k = expit(pv @ w + hb)
    lr = config.learning_rate
    new_w = w + lr * ((v0.T @ ph0 - pv.T @ ph_k) / n - config.weight_decay * w)
    new_vb = vb + lr * (v0 - pv).mean(axis=0)
    new_hb = hb + lr * (ph0 - ph_k).mean(axis=0)
    return Rbm(new_w, new_vb, new_hb, rbm.visible_names)


def exact_refine(rbm: Rbm, data: np.ndarray, steps: int) -> Rbm:
    """Full-batch ascent on the exact log-likelihood of ``data``.

    Each step enumerates all 2^n_visible visible states, so the model
    expectation of the gradient is exact; updates use step size
    ``EXACT_LEARNING_RATE`` and momentum ``EXACT_MOMENTUM``.
    Deterministic: draws no random numbers.
    """
    if rbm.n_visible > EXACT_REFINE_MAX_VISIBLE:
        raise ValueError(f"{rbm.n_visible} visible units exceed the exact "
                         f"refinement limit {EXACT_REFINE_MAX_VISIBLE}")
    v0 = np.asarray(data, dtype=np.float64)
    grid = exact._bit_grid(rbm.n_visible)
    w, vb, hb = (rbm.weights.copy(), rbm.visible_bias.copy(),
                 rbm.hidden_bias.copy())
    velocity = [np.zeros_like(w), np.zeros_like(vb), np.zeros_like(hb)]
    for _ in range(steps):
        act = grid @ w + hb
        neg_f = grid @ vb + np.logaddexp(0.0, act).sum(axis=1)
        p = np.exp(neg_f - logsumexp(neg_f))
        ph = expit(act)
        ph0 = expit(v0 @ w + hb)
        grads = (v0.T @ ph0 / len(v0) - (grid * p[:, None]).T @ ph,
                 v0.mean(axis=0) - p @ grid,
                 ph0.mean(axis=0) - p @ ph)
        for param, vel, grad in zip((w, vb, hb), velocity, grads):
            vel *= EXACT_MOMENTUM
            vel += grad
            param += EXACT_LEARNING_RATE * vel
    return Rbm(w, vb, hb, rbm.visible_names)


def reconstruction_error(rbm: Rbm, data: np.ndarray) -> float:
    """Mean squared error of the deterministic one-step reconstruction."""
    v = np.asarray(data, dtype=np.float64)
    ph = expit(v @ rbm.weights + rbm.hidden_bias)
    pv = expit(ph @ rbm.weights.T + rbm.visible_bias)
    return float(np.mean((v - pv) ** 2))


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


def _instance_task(kind: str, width: int, inputs: tuple[int, ...]) -> TaskSpec:
    if kind == "adder":
        a, b, cin = inputs
        return TaskSpec("add", width, {"A": a, "B": b, "Cin": cin})
    a, b = inputs
    return TaskSpec("multiply", width, {"A": a, "B": b})


def _exact_eval_feasible(model, spec) -> bool:
    rbm, _ = model_parts(model)
    free = rbm.n_visible - len(resolve_clamp(model, clamp_assignments(model, spec)))
    return free <= exact.MAX_FREE_UNITS and 2**free * max(rbm.n_hidden, 1) <= EXACT_EVAL_WORK


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
        method == "auto"
        and _exact_eval_feasible(model, _instance_task(kind, width, instances[0]))
    )
    correct = 0
    for i, inputs in enumerate(instances):
        spec = _instance_task(kind, width, inputs)
        clamp = clamp_assignments(model, spec)
        record = answer_terminals(model, spec)
        if use_exact:
            dist = exact.exact_visible_distribution(
                model, clamp=clamp, max_hidden=2**20).marginal(record)
            bits = dist.support[int(np.argmax(dist.probabilities))]
        else:
            hist = sampler.multistart(
                model, clamp, n_chains=n_chains, n_sweeps=n_sweeps,
                seed=seed + 1000 * i, record_terminals=record,
            )
            bits, _ = sampler.mode_estimate(hist)
        if assignment_checker(model, spec)(dict(zip(record, bits))):
            correct += 1
    return correct / len(instances)


def train(task, n_hidden: int | None = None,
          config: TrainConfig = TrainConfig()) -> tuple[Rbm, list[dict]]:
    """Train a unit with the staged CD schedule; returns best model + log."""
    kind, width, names = task_layout(task)
    if n_hidden is None:
        n_hidden = KNOWN_HIDDEN.get((kind, width), 4 * len(names))
    rng = np.random.default_rng(config.seed)
    rbm = Rbm(
        rng.normal(0.0, config.init_scale, (len(names), n_hidden)),
        np.zeros(len(names)),
        np.zeros(n_hidden),
        names,
    )
    total = dataset_size(task)
    full_rows = None
    if config.dataset_cap is None:
        full_rows, _ = generate_dataset(task)  # raises if too large to enumerate

    full_batch = (full_rows is not None and config.batch_size is None
                  and len(full_rows) <= FULL_BATCH_LIMIT)
    batch_size = config.batch_size if config.batch_size is not None else 32

    metrics: list[dict] = []
    best_acc, best_rbm, stale = -1.0, rbm, 0
    k = config.k_initial
    stage = 0
    while True:
        for epoch in range(config.epochs_per_stage):
            try:
                if full_batch:
                    data = full_rows
                    for _ in range(config.copies_per_epoch):
                        rbm = cd_step(rbm, data, config, rng, k=k)
                else:
                    if full_rows is not None:
                        data = np.tile(full_rows, (config.copies_per_epoch, 1))
                    else:
                        data, _ = generate_dataset(
                            task, cap=config.dataset_cap * config.copies_per_epoch,
                            rng=rng,
                        )
                    data = data[rng.permutation(len(data))]
                    for start in range(0, len(data), batch_size):
                        rbm = cd_step(rbm, data[start : start + batch_size],
                                      config, rng, k=k)
            except ValueError as exc:
                # Rbm construction rejects non-finite parameters.
                if "non-finite" not in str(exc):
                    raise
                raise FloatingPointError(
                    f"training diverged at stage {stage} epoch {epoch} (k={k})"
                ) from exc
            metrics.append({
                "stage": stage, "k": k, "epoch": epoch,
                "recon_error": reconstruction_error(rbm, data),
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
