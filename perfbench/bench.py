"""rbmlogic benchmark: workloads, answer oracle and the measurement loop.

One caller drives the public API in a closed loop: each operation (a
``tasks.solve`` or a ``training.train`` run) starts when the previous one
has returned.  Inputs come from the workload seed alone.  Every output is
checked by an oracle that does its own arithmetic on the decoded bits.

Importing this module pins BLAS to one thread, so it must be imported
before anything else loads numpy.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # read once, when numpy loads BLAS below

import contextlib
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy.special import expit

from rbmlogic import cli, synthesis, tasks, training
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SHARPNESS = 6.0
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
TIMED_OPS = TAIL_BEYOND + 1  # timed operations every untraced run completes
TRACED_PAIRS = 3  # untraced/traced pairs every traced run completes
SETUP_REPEATS = 7  # measured set-ups, spread evenly over an untraced run

# Times one set-up in a fresh interpreter: import, then prepare_model().
_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import bench
bench.prepare_model(sys.argv[3] or None, bench.Path(sys.argv[4]))
print(time.perf_counter() - start)
"""


def prepare_model(name: str | None, workdir: Path):
    """Synthesize a builtin model and round-trip it through the CLI's files.

    Solves run on the loaded copy, as a CLI user's would.  ``None`` (the
    training workload) prepares nothing beyond the import.
    """
    if name is None:
        return None
    model = synthesis.builtin_model(name, SHARPNESS)
    paths = cli.save_model(model, workdir / f"{name}.json")
    return cli.load_model(str(paths[0]))


def decode(terminals: dict[str, int]) -> dict[str, int]:
    """Operands from little-endian terminal bits: S3 is bit 3 of S."""
    out: dict[str, int] = {}
    for name, bit in terminals.items():
        if bit not in (0, 1):
            raise ValueError(f"terminal {name} holds {bit!r}, not a bit")
        head = name.rstrip("0123456789")
        out[head] = out.get(head, 0) | bit << int(name[len(head):] or 0)
    return out


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


_ANSWER_OPERANDS = {"add": ("S", "Cout"), "subtract": ("A",), "factor": ("A", "B")}


@dataclass(frozen=True)
class SolveWorkload:
    """Seeded tasks on a builtin model; operations cycle in order.

    The last ``recorded`` of ``sweeps`` sweeps are pooled.  With
    ``require_solved`` a wrong mode fails the operation; without it the
    program only has to report its miss honestly.
    """

    name: str
    model: str
    operations: tuple[str, ...]
    width: int
    chains: int
    sweeps: int
    recorded: int
    require_solved: bool
    reference: tuple[int, int, int, int]  # see reference_seconds()

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        top = 2**self.width
        for i in itertools.count():
            op = self.operations[i % len(self.operations)]
            if op == "add":
                a, b, cin = (int(x) for x in rng.integers([top, top, 2]))
                clamps = {"A": a, "B": b, "Cin": cin}
            elif op == "subtract":
                s, b = sorted((int(x) for x in rng.integers(top, size=2)), reverse=True)
                clamps = {"S": s, "B": b}
            else:
                a, b = (int(x) for x in rng.integers(2, top, size=2))
                clamps = {"P": a * b}
            yield tasks.TaskSpec(op, self.width, clamps), int(rng.integers(2**31))

    def execute(self, model, item):
        task, seed = item
        return tasks.solve(model, task, tasks.SolveSettings(
            n_chains=self.chains, n_sweeps=self.sweeps,
            burn_in=self.sweeps - self.recorded, seed=seed))

    def solved(self, task, answer: dict[str, int]) -> bool:
        c = task.clamps
        if task.operation == "add":
            return c["A"] + c["B"] + c["Cin"] == answer["S"] + (answer["Cout"] << self.width)
        if task.operation == "subtract":
            return c["S"] - c["B"] == answer["A"]
        return answer["A"] > 1 and answer["B"] > 1 and answer["A"] * answer["B"] == c["P"]

    def check(self, item, result) -> str | None:
        """Why the output is wrong, or None when the oracle accepts it."""
        task, _ = item
        if result.total != self.chains * self.recorded:
            return f"pooled {result.total} samples, not {self.chains} x {self.recorded}"
        if not 0 < result.count <= result.total or result.frequency != result.count / result.total:
            return "mode count and frequency disagree with the total"
        heads = _ANSWER_OPERANDS[task.operation]
        want = {h if h == "Cout" else f"{h}{j}" for h in heads
                for j in range(1 if h == "Cout" else self.width)}
        if set(result.terminals) != want:
            return f"answer terminals {sorted(result.terminals)}"
        answer = decode(result.terminals)
        if answer != result.operands:
            return f"operands {result.operands} do not decode from the mode bits"
        solved = self.solved(task, answer)
        if result.success != solved:
            return f"program verdict {result.success}, oracle {solved}"
        if self.require_solved and not solved:
            return f"wrong answer {answer} to {task.operation} {task.clamps}"
        return None

    def chain_sweeps(self, item, result) -> int:
        return self.chains * self.sweeps

    def record(self, item, result) -> dict:
        task, seed = item
        return {"task": [task.operation, task.clamps, seed], "mode": result.terminals,
                "count": result.count, "total": result.total}

    def quality(self, item, result) -> dict[str, float]:
        return {"mode_freq_p50": result.frequency,
                "solved_frac": float(self.solved(item[0], decode(result.terminals)))}


@dataclass(frozen=True)
class TrainWorkload:
    """Staged CD training runs of one unit; each run gets a seeded config."""

    name: str
    unit: str
    width: int
    hidden: int
    reference: tuple[int, int, int, int]  # see reference_seconds()
    config: dict = field(default_factory=dict)
    model = None  # set-up is the import alone

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield training.TrainConfig(seed=int(rng.integers(2**31)), **self.config)

    def execute(self, model, config):
        return training.train(self.unit, self.hidden, config)

    def oracle_accuracy(self, rbm, config) -> float:
        """Exact answer accuracy on the instances the training run scores.

        Those are all (A, B) pairs, or ``eval_instances`` of them drawn
        without replacement by a generator seeded with the config seed.
        For each pair the answer is the product with the lowest free
        energy given A and B.
        """
        w = self.width
        pairs = [(a, b) for a in range(2**w) for b in range(2**w)]
        if len(pairs) > config.eval_instances:
            picks = np.random.default_rng(config.seed).choice(
                len(pairs), size=config.eval_instances, replace=False)
            pairs = [pairs[i] for i in sorted(picks)]
        products = np.arange(2 ** (2 * w))
        correct = 0
        for a, b in pairs:
            column = {f"P{j}": products >> j & 1 for j in range(2 * w)}
            column |= {f"A{j}": np.full_like(products, a >> j & 1) for j in range(w)}
            column |= {f"B{j}": np.full_like(products, b >> j & 1) for j in range(w)}
            v = np.stack([column[n] for n in rbm.visible_names], axis=1).astype(float)
            f = -(v @ rbm.visible_bias) - np.logaddexp(0.0, v @ rbm.weights + rbm.hidden_bias).sum(1)
            correct += int(np.argmin(f)) == a * b
        return correct / len(pairs)

    def check(self, config, output) -> str | None:
        rbm, log = output
        accuracies = _stage_accuracies(log)
        if not accuracies:
            return "no stage was evaluated"
        if rbm.weights.shape != (4 * self.width, self.hidden):
            return f"trained weights have shape {rbm.weights.shape}"
        params = (rbm.weights, rbm.visible_bias, rbm.hidden_bias)
        if not all(np.isfinite(p).all() for p in params):
            return "trained parameters are not finite"
        own = self.oracle_accuracy(rbm, config)
        if own != max(accuracies):
            return f"reported best accuracy {max(accuracies)}, oracle {own}"
        return None

    def chain_sweeps(self, config, output) -> int:
        """CD-k runs k Gibbs sweeps per training row."""
        rows_per_epoch = config.copies_per_epoch * 2 ** (2 * self.width)
        return sum(rows_per_epoch * row["k"] for row in output[1] if row["epoch"] is not None)

    def record(self, config, output) -> dict:
        rbm, log = output
        params = hashlib.sha256()
        for p in (rbm.weights, rbm.visible_bias, rbm.hidden_bias):
            params.update(np.ascontiguousarray(p).tobytes())
        return {"seed": config.seed, "params": params.hexdigest(),
                "accuracy": _stage_accuracies(log)}

    def quality(self, config, output) -> dict[str, float]:
        return {"train_best_acc_p50": max(_stage_accuracies(output[1]))}


def _stage_accuracies(log: list[dict]) -> list[float]:
    return [row["accuracy"] for row in log if row["accuracy"] is not None]


# Why these workloads, and which per-layer metric should move which
# end-to-end metric on each (set-up layers -- synthesis.builtin_model,
# merge.compose, cli.save_model/load_model, cli.model_bytes -- move setup_s
# everywhere and nothing in the timed phase):
#
# adder16-addsub: 65 visible x 128 hidden units and 100 chains, so per-chain
#   RNG draws and np.stack inside sampler.multistart dominate, not matmul.
#   sampler.multistart.self_s, sampler.rng_draws and sampler.free_ratio move
#   op_p50_rel; sampler.flops and gflops only a little; tasks.solve.self_s is
#   near 0.  Add and subtract alternate, so both clamp
#   directions of the same model run.  Every task is solved at this budget
#   (acceptance check 5's), so a wrong answer fails the operation.
# mult8-factor: 179 x 1408 units and 16 chains, so the two matmuls + expit
#   (sampler.flops, sampler.gflops) and recording 16k samples per solve
#   (sampler.samples_recorded, record_ratio) move op_p50_rel.  Factor-pair
#   extraction shows as tasks.solve.self_s.  Plain Gibbs solves none of these
#   (acceptance check 7's gap); the oracle then only requires that the
#   program reports the miss, and solved_frac records it.
# train-mult4: CD training with minibatches of 32 and exact evaluation each
#   stage, no sampler.multistart.  training.cd_step.busy_s (~65%),
#   training.evaluate_accuracy.busy_s (~18%, through
#   exact.exact_visible_distribution and model.free_energy_batch),
#   training.reconstruction_error.busy_s (~13%), tasks.model_interface.calls
#   and training.train.self_s move op_p50_rel.  The acceptance fixture's
#   schedule (30 epochs per stage, patience 4) is cut at
#   k_max=5, four stages, so that a run holds a dozen trainings.
WORKLOADS = {w.name: w for w in (
    SolveWorkload("adder16-addsub", "adder16", ("add", "subtract"), 16,
                  chains=100, sweeps=1000, recorded=9, require_solved=True,
                  reference=(100, 65, 128, 250)),
    SolveWorkload("mult8-factor", "mult8", ("factor",), 8,
                  chains=16, sweeps=1000, recorded=1000, require_solved=False,
                  reference=(16, 179, 1408, 100)),
    TrainWorkload("train-mult4", "mult4", 4, 64, reference=(32, 16, 64, 1500),
                  config={"epochs_per_stage": 30, "k_max": 5, "patience": 4}),
)}


def reference_seconds(shape: tuple[int, int, int, int]) -> float:
    """Wall time of a fixed block-Gibbs loop written in plain numpy.

    ``shape`` is (rows, visible, hidden, sweeps), sized per workload like
    its own sampling and to take ~0.1 s.  The loop uses no rbmlogic code,
    so a change to the program cannot move it; timed just before each
    operation, it gauges how fast the shared host runs at that moment.
    """
    rows, visible, hidden, sweeps = shape
    rng = np.random.default_rng(0)
    w = rng.normal(0.0, 0.1, (visible, hidden))
    b, c = rng.normal(0.0, 0.1, hidden), rng.normal(0.0, 0.1, visible)
    v = rng.random((rows, visible)) < 0.5
    start = time.perf_counter()
    for _ in range(sweeps):
        h = rng.random((rows, hidden)) < expit(v @ w + b)
        v = rng.random((rows, visible)) < expit(h @ w.T + c)
    return time.perf_counter() - start


@dataclass
class Op:
    """One attempted operation, its output reduced to what the report uses.

    Holding every output would make peak RSS grow with the number of
    operations a run completes, that is with the host's speed.
    """

    latency: float
    failure: str | None
    record: dict | None = None
    quality: dict | None = None
    chain_sweeps: int = 0
    reference_s: float | None = None


def _attempt(workload, model, item) -> Op:
    start = time.perf_counter()
    try:
        output = workload.execute(model, item)
        latency = time.perf_counter() - start
        return Op(latency, workload.check(item, output), workload.record(item, output),
                  workload.quality(item, output), workload.chain_sweeps(item, output))
    except Exception as exc:  # raised, or returned what the oracle cannot read
        return Op(time.perf_counter() - start, f"{type(exc).__name__}: {exc}")


def setup_seconds(workload, workdir: Path) -> float:
    """Wall time of one set-up in a fresh interpreter."""
    argv = [sys.executable, "-c", _SETUP_CHILD, str(Path(__file__).parent),
            str(ROOT / "src"), workload.model or "", str(workdir)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    rank = len(xs) - 1 - TAIL_BEYOND
    if rank < 0:
        raise ValueError(f"{len(xs)} samples leave no percentile with {TAIL_BEYOND} beyond it")
    return xs[rank], 100.0 * rank / (len(xs) - 1)


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "host": platform.node(), "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(), "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run(workload, seed: int, seconds: float, trace: bool,
        workdir: Path) -> tuple[dict, dict, Tracer | None]:
    """One benchmark run: (result line, full report, tracer if traced).

    An untraced run times each operation right after the reference loop
    and runs SETUP_REPEATS set-ups spread over its time, so that both
    medians sample the host's speed over the whole run.
    """
    tracer = Tracer() if trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        model = prepare_model(workload.model, workdir)
    items = workload.inputs(seed)
    reference_seconds(workload.reference)  # warm-up, untimed
    ops = [_attempt(workload, model, next(items))]  # warm-up, untimed
    report: dict = {"workload": workload.name, "seconds": seconds, "trace": int(trace),
                    "environment": environment(seed)}
    if not trace:
        setup_seconds(workload, workdir)  # warm-up, unmeasured
        setups: list[float] = []
        start = time.perf_counter()
        while len(ops) <= TIMED_OPS or time.perf_counter() - start < seconds:
            if len(setups) < SETUP_REPEATS and (
                    time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
                setups.append(setup_seconds(workload, workdir))
            reference = reference_seconds(workload.reference)
            ops.append(_attempt(workload, model, next(items)))
            ops[-1].reference_s = reference
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_seconds(workload, workdir))
        metrics, extra = _end_to_end(ops, setups)
    else:
        start = time.perf_counter()
        traced = []
        while len(traced) < TRACED_PAIRS or time.perf_counter() - start < seconds:
            item = next(items)
            ops.append(_attempt(workload, model, item))
            tracer.op = str(len(traced))
            with tracer.installed():
                traced.append(_attempt(workload, model, item))
            if (traced[-1].failure is None and ops[-1].failure is None
                    and ops[-1].record != traced[-1].record):
                traced[-1].failure = "tracing changed the output"
        metrics, extra = _per_layer(tracer, ops[1:], traced)
        ops += traced
    failures = [op.failure for op in ops if op.failure]
    report |= extra | {"attempted": len(ops), "failed": len(failures),
                       "fail_frac": len(failures) / len(ops), "failures": failures[:5]}
    result = {"correct": not failures, "attempted": len(ops), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, report, tracer


def _end_to_end(ops: list[Op], setups: list[float]):
    timed = ops[1:]
    latencies = [op.latency for op in timed]
    references = [op.reference_s for op in timed]
    tail_s, tail_pct = tail(latencies)
    # On a shared host the CPU's speed can change by tens of percent for
    # minutes at a time, which moves whole runs; the reference loop timed
    # just before each operation slows with it, so the bounded latency is
    # the median ratio of the two.
    # Latencies in seconds are reported beside it.
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_rel": (statistics.median(a / r for a, r in zip(latencies, references)), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # The deterministic prefix: every untraced run completes these operations.
    prefix = [op for op in ops[: TIMED_OPS + 1] if op.record is not None]
    quality: dict[str, list[float]] = {}
    for op in prefix:
        for key, value in op.quality.items():
            quality.setdefault(key, []).append(value)
    deterministic = {
        "operations": TIMED_OPS + 1,
        "fingerprint": _digest([op.record for op in prefix]),
        "failed": sum(op.failure is not None for op in ops[: TIMED_OPS + 1]),
        "chain_sweeps": sum(op.chain_sweeps for op in prefix),
    }
    for key, values in quality.items():
        deterministic[key] = (statistics.median if key.endswith("_p50") else statistics.fmean)(values)
    # Every operation of a workload does the same work, so chain_sweeps_per_s
    # is a fixed multiple of 1/latency; with a dozen operations per run the
    # "tail" sits near the median.  Both are reported, not bounded.
    extra = {"setup_runs_s": setups, "latencies_s": latencies, "reference_s": references,
             "deterministic": deterministic,
             "op_p50_s": statistics.median(latencies),
             "op_p75_s": statistics.quantiles(latencies, n=4)[2],
             "chain_sweeps_per_s": sum(op.chain_sweeps for op in timed) / sum(latencies),
             "op_tail_s": {"value": tail_s, "unit": "s", "percentile": tail_pct,
                           "samples": len(timed), "beyond": TAIL_BEYOND}}
    return metrics, extra


def _per_layer(tracer: Tracer, untraced: list[Op], traced: list[Op]):
    layers = tracer.summary()
    plain = sum(op.latency for op in untraced)
    overhead = sum(op.latency for op in traced) - plain
    layers["trace.overhead_s"] = overhead / len(traced)
    layers["trace.overhead_frac"] = overhead / plain
    metrics = {k: (v, _unit(k)) for k, v in layers.items()}
    return metrics, {"traced_pairs": len(traced)}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("gflops"):
        return "GFLOP/s"
    if name.endswith("flops"):
        return "flop"
    return "count"
