"""Posing arithmetic problems to circuit models.

Every operation is the same mechanism with a different clamp pattern on
an adder (A + B + Cin = S + 2^n Cout) or multiplier (A * B = P).  The
table ``_OPS`` declares each one once: its unit, the operands it clamps
(Cin is 0 unless given), the operands it reads, and whether they read as
one integer:

* add: clamp A, B, Cin; read S, Cout (one integer, S + 2^n Cout).
* subtract: clamp S, B, Cin and (by default) Cout = 0; read A.  Clamping
  Cout to 0 makes borrowing infeasible, so S >= B + Cin is required
  unless cout="free" (or a Cout of 1) is requested.
* reverse_carry: clamp S, Cin, Cout; read any consistent (A, B).
* multiply: clamp A, B; read P.
* divide: clamp P, A; read B.  A must be > 0.
* factor: clamp P; read (A, B).  The trivial factorizations 1 * P and
  P * 1 are valid rows of the multiplier for any P, so the reported
  answer is the most frequent pair with both factors > 1.
* sat: clamp an arbitrary terminal subset; read the rest.

Integers map to terminal bits little-endian: bit j of operand X lives on
terminal Xj (plain X when the operand is one bit wide).

``pose`` poses a task on a model once: its clamp bits, the answer
terminals of each operand, their decoding and the answer's checker.
``solve`` samples one task and ``success_curve`` scores many at several
sample budgets; both pose each task once and read the answer off the
pooled histogram through one readout, ``_readout``: the mode under the
operation's rule and the ``Posed.check`` verdict on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .exact import _bit_index
from .merge import public_terminals
from .sampler import (Histogram, _pooled_histograms, mode_estimate, multistart,
                      replica_exchange)
from .synthesis import model_interface


class _Op(NamedTuple):
    kind: str | None  # unit the operation runs on; None for sat
    clamps: tuple[str, ...]  # operands clamped, in clamp order
    answer: tuple[str, ...]  # operands read as the answer, LSB first
    integer: bool  # the answer bits read as one integer
    least: Mapping[str, int] = {}  # smallest value a correct answer allows


_OPS = {
    "add": _Op("adder", ("A", "B", "Cin"), ("S", "Cout"), True),
    "subtract": _Op("adder", ("S", "B", "Cin", "Cout"), ("A",), True),
    "reverse_carry": _Op("adder", ("S", "Cin", "Cout"), ("A", "B"), False),
    "multiply": _Op("multiplier", ("A", "B"), ("P",), True),
    "divide": _Op("multiplier", ("P", "A"), ("B",), True, {"A": 1}),
    "factor": _Op("multiplier", ("P",), ("A", "B"), False, {"A": 2, "B": 2}),
    "sat": _Op(None, (), (), False),
}

OPERATIONS = tuple(_OPS)


def encode_int(value: int, width: int) -> list[int]:
    """Little-endian bits of a nonnegative integer."""
    value = int(value)
    if width < 1:
        raise ValueError("width must be >= 1")
    if not 0 <= value < 2**width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return [(value >> j) & 1 for j in range(width)]


def decode_int(bits: Sequence[int]) -> int:
    """Integer whose little-endian bits are ``bits``."""
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bad bit {b!r}")
    return int(_bit_index(np.array(bits, dtype=np.uint8).reshape(1, -1))[0])


def _integer(value) -> bool:
    """An Integral (numpy integers too) that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TaskSpec:
    """One problem instance: an operation plus clamped operand values.

    ``clamps`` maps operand names (A, B, S, P, Cin, Cout) to integers;
    for the sat operation it maps individual terminal names to bits.
    ``cout`` is for subtraction only: None clamps Cout to 0 (or to a
    Cout clamp), "free" leaves it unclamped, 0/1 clamp it explicitly.
    ``expected`` is only meaningful for operations whose answer reads as
    one integer.
    """

    operation: str
    bit_width: int | None = None
    clamps: dict[str, int] = field(default_factory=dict)
    expected: int | None = None
    cout: int | str | None = None

    def __post_init__(self):
        if self.operation not in OPERATIONS:
            raise ValueError(f"unknown operation {self.operation!r}")
        if self.cout not in (None, "free") and not (_integer(self.cout) and self.cout in (0, 1)):
            raise ValueError(f"cout must be None, 'free', 0 or 1, got {self.cout!r}")
        if self.bit_width is not None and not (_integer(self.bit_width) and self.bit_width >= 1):
            raise ValueError(f"bit_width must be an integer >= 1, got {self.bit_width!r}")
        if self.expected is not None and not (_integer(self.expected) and self.expected >= 0):
            raise ValueError(f"expected must be an integer >= 0, got {self.expected!r}")
        if self.cout is not None and self.operation != "subtract":
            raise ValueError(f"cout applies to subtract only, not to {self.operation!r}")
        for name, value in self.clamps.items():
            if not _integer(value):
                raise ValueError(f"clamp {name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"clamp {name}={value} is negative")
        if self.expected is not None and not _OPS[self.operation].integer:
            raise ValueError(f"operation {self.operation!r} has no single-integer "
                             f"answer to compare with expected={self.expected}")


def _clamped_operands(task: TaskSpec) -> dict[str, int]:
    """Value of each operand the task clamps, in clamp order.

    A clamp the operation does not read is an error.  A subtract Cout
    comes from a Cout clamp or from ``task.cout`` ("free": unclamped),
    which must agree, and is 0 when neither gives it.
    """
    clamped = _OPS[task.operation].clamps
    unread = [o for o in task.clamps if o not in clamped]
    if unread:
        raise ValueError(f"operation {task.operation!r} does not read clamps {unread}")
    values = {"Cin": 0} | task.clamps
    if task.operation == "subtract":
        cout = values.setdefault("Cout", 0 if task.cout is None else task.cout)
        if task.cout is not None and cout != task.cout:
            raise ValueError(f"cout={task.cout!r} contradicts clamp Cout={cout}")
    missing = [o for o in clamped if o not in values]
    if missing:
        raise ValueError(f"operation {task.operation!r} needs clamps for {missing}")
    return {o: int(values[o]) for o in clamped if values[o] != "free"}


class Posed(NamedTuple):
    """A task posed on a model: what to clamp, what to read and how to judge it."""

    clamp: dict[str, int]  # terminal -> bit
    answer: dict[str, tuple[str, ...]]  # answer operand -> its terminals, LSB first
    check: Callable[[Mapping[str, int]], bool]  # verdict on decoded operand values
    record: tuple[str, ...]  # the answer terminals, in recording order

    def decode(self, bits: Sequence[int]) -> dict[str, int]:
        """Each answer operand's integer, from bits given in ``record`` order."""
        by_terminal = dict(zip(self.record, bits))
        return {operand: decode_int([by_terminal[t] for t in terms])
                for operand, terms in self.answer.items()}


def pose(model, task: TaskSpec) -> Posed:
    """A task on a model, which is classified once.

    The checker takes the decoded answer operands, which with the clamped
    ones must satisfy A + B + Cin = S + 2^n Cout or A * B = P and the
    operation's lower bounds; a subtract Cout left free may be either bit.
    sat clamps terminals by name and reads each free public terminal as a
    one-bit operand; any answer passes its checker.
    """
    op = _OPS[task.operation]
    if op.kind is None:
        names = public_terminals(model)
        known = set(names)
        for term, bit in task.clamps.items():
            if term not in known:
                raise KeyError(f"unknown terminal {term!r}")
            if bit not in (0, 1):
                raise ValueError(f"sat clamps take bits, got {term}={bit}")
        answer = {t: (t,) for t in names if t not in task.clamps}
        return Posed({t: int(b) for t, b in task.clamps.items()}, answer,
                     lambda values: True, tuple(answer))
    iface = model_interface(model)
    if task.bit_width is not None and task.bit_width != iface.width:
        raise ValueError(
            f"task expects {task.bit_width}-bit operands, model has {iface.width}"
        )
    if iface.kind != op.kind:
        article = "an" if op.kind == "adder" else "a"
        raise ValueError(f"operation {task.operation!r} needs {article} {op.kind} model")
    clamped = _clamped_operands(task)
    clamp: dict[str, int] = {}
    for operand, value in clamped.items():
        terms = iface.bits(operand)
        clamp |= dict(zip(terms, encode_int(value, len(terms))))
    answer = {operand: tuple(iface.bits(operand)) for operand in op.answer}
    record = tuple(t for terms in answer.values() for t in terms)
    # Decoded answers list one-bit operands first ({"Cout": .., "S": ..}).
    answer = dict(sorted(answer.items(), key=lambda item: len(item[1]) > 1))
    modulus = 2**iface.width

    def check(values: Mapping[str, int]) -> bool:
        v = {**clamped, **values}
        if any(v[operand] < low for operand, low in op.least.items()):
            return False
        if op.kind == "multiplier":
            return v["A"] * v["B"] == v["P"]
        carries = (v["Cout"],) if "Cout" in v else (0, 1)
        return any(v["A"] + v["B"] + v["Cin"] == v["S"] + modulus * c for c in carries)

    return Posed(clamp, answer, check, record)


@dataclass(frozen=True)
class SolveSettings:
    """Sampler settings for ``solve``.

    With ``betas`` None (the default) the search is plain block Gibbs:
    ``n_chains`` independent chains (``multistart``).  With a beta
    ladder it is ``replica_exchange``: ``n_chains`` ladders of
    len(betas) replicas each, recording only the beta = 1 rungs.
    """

    n_chains: int = 8
    n_sweeps: int = 2000
    burn_in: int = 0
    thin: int = 1
    seed: int = 0
    top_k: int = 5
    betas: tuple[float, ...] | None = None

    def __post_init__(self):
        for name, low in (("n_chains", 1), ("n_sweeps", 1), ("thin", 1), ("burn_in", 0),
                          ("seed", 0), ("top_k", 0)):
            value = getattr(self, name)
            if not _integer(value) or value < low:
                raise ValueError(f"bad sampler settings: {name} must be an integer "
                                 f">= {low}, got {value!r}")
        if self.betas is not None:
            object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))


@dataclass(frozen=True)
class SolveResult:
    task: TaskSpec
    terminals: dict[str, int]  # answer terminal -> mode bit
    operands: dict[str, int]  # decoded integers; sat: bits by terminal
    count: int
    total: int
    frequency: float
    top: list[tuple[dict[str, int], int]]
    success: bool
    factor_pairs: list[tuple[tuple[int, int], int]] | None = None
    chain_sweeps: int = 0  # sweeps spent over every chain and replica


def _nontrivial_factor_mode(hist: Histogram, a_terms: Sequence[str], b_terms: Sequence[str]):
    """(A, B) pairs within factor's ``least`` bounds (both factors > 1), by
    falling count, then (A, B), and the histogram key of the first (None
    when there is none).  ``a_terms`` and ``b_terms`` name the bits of A
    and B, LSB first."""
    a, b = (_bit_index(hist.keys[:, [hist.names.index(t) for t in terms]])
            for terms in (a_terms, b_terms))
    least = _OPS["factor"].least
    rows = np.flatnonzero((a >= least["A"]) & (b >= least["B"]))
    a, b, counts = a[rows], b[rows], hist.key_counts[rows]
    order = np.lexsort((b, a, -counts))  # the last key is primary
    pairs = list(zip(zip(a[order].tolist(), b[order].tolist()), counts[order].tolist()))
    return pairs, tuple(hist.keys[rows[order[0]]].tolist()) if pairs else None


def _readout(task: TaskSpec, posed: Posed, hist: Histogram):
    """The task's answer read off a pooled histogram of ``posed.record``:
    (mode bits, their count, the nontrivial factor pairs or None unless
    factoring, the ``posed.check`` verdict on the decoded mode).

    Factorization ignores assignments with a factor of 1: the trivial
    rows 1 * P and P * 1 are valid for every product, so the plain mode
    would answer them whenever P fits in one operand.  It falls back to
    the plain mode when no pair is nontrivial.
    """
    pairs = key = None
    if task.operation == "factor":
        pairs, key = _nontrivial_factor_mode(hist, posed.answer["A"], posed.answer["B"])
    bits, count = mode_estimate(hist) if key is None else (key, pairs[0][1])
    return bits, count, pairs, posed.check(posed.decode(bits))


def solve(model, task: TaskSpec, settings: SolveSettings = SolveSettings()) -> SolveResult:
    """Sample the clamped model and read the answer off the mode."""
    posed = pose(model, task)
    if settings.betas is None:
        hist = multistart(
            model, posed.clamp,
            n_chains=settings.n_chains, n_sweeps=settings.n_sweeps,
            burn_in=settings.burn_in, thin=settings.thin, seed=settings.seed,
            record_terminals=posed.record,
        )
    else:
        hist = replica_exchange(
            model, posed.clamp, betas=settings.betas, n_ladders=settings.n_chains,
            n_sweeps=settings.n_sweeps, burn_in=settings.burn_in,
            thin=settings.thin, seed=settings.seed, record_terminals=posed.record,
        )
    bits, count, factor_pairs, success = _readout(task, posed, hist)
    total = hist.total
    return SolveResult(
        task=task,
        terminals=dict(zip(posed.record, (int(b) for b in bits))),
        operands=posed.decode(bits),
        count=int(count),
        total=int(total),
        frequency=count / total if total else 0.0,
        top=[(posed.decode(k), c) for k, c in hist.top(settings.top_k)],
        success=success,
        factor_pairs=factor_pairs,
        chain_sweeps=settings.n_chains * len(settings.betas or (1.0,)) * settings.n_sweeps,
    )


def success_curve(
    model,
    tasks: Sequence[TaskSpec],
    checkpoints: Sequence[int],
    n_chains: int = 4,
    seed: int = 0,
    burn_in: int = 0,
) -> list[tuple[int, float]]:
    """Fraction of tasks whose pooled answer is correct at each sample budget.

    Chains for task i use seeds seed + i * n_chains + [0..n_chains); the
    pooled sample count after sweep t is n_chains * (t - burn_in).  Each
    task is posed once, and each checkpoint reads its pooled histogram
    as ``solve`` does.
    """
    checkpoints = sorted(int(c) for c in checkpoints)
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive sample counts")
    if n_chains < 1 or not len(tasks):
        raise ValueError("need n_chains >= 1 and at least one task")
    # Sweeps recorded when each checkpoint's pooled sample count is reached.
    marks = [(c + n_chains - 1) // n_chains for c in checkpoints]
    successes = [0] * len(checkpoints)
    for i, task in enumerate(tasks):
        seeds = [seed + i * n_chains + c for c in range(n_chains)]
        posed = pose(model, task)
        hists = _pooled_histograms(model, posed.clamp, seeds, burn_in + marks[-1], burn_in, 1,
                                   posed.record, marks)
        for k, hist in enumerate(hists):
            *_, solved = _readout(task, posed, hist)
            successes[k] += solved
    return [(c, s / len(tasks)) for c, s in zip(checkpoints, successes)]


def _draw(rng: np.random.Generator, low: int, high: int) -> int:
    """Uniform integer in [low, high).

    Ranges that fit int64 take one ``rng.integers`` draw.  Wider ones
    draw 32-bit words, keep the low bits of their little-endian value
    and retry while it falls outside the range.
    """
    if high <= 2**63:
        return int(rng.integers(low, high))
    span = high - low
    n_bits = (span - 1).bit_length()
    while True:
        words = rng.integers(0, 2**32, size=(n_bits + 31) // 32, dtype=np.uint64)
        x = sum(int(w) << (32 * i) for i, w in enumerate(words)) & ((1 << n_bits) - 1)
        if x < span:
            return low + x


def random_task(operation: str, width: int, rng: np.random.Generator) -> TaskSpec:
    """Random solvable instance of an operation at a given width."""
    top = 2**width

    def draw(low: int = 0) -> int:
        return _draw(rng, low, top)

    # Values are listed in the operation's clamp order.
    if operation == "add":
        a, b, cin = draw(), draw(), int(rng.integers(2))
        values, expected = (a, b, cin), a + b + cin
    elif operation == "subtract":
        x, y = draw(), draw()
        values, expected = (max(x, y), min(x, y)), abs(x - y)
    elif operation == "reverse_carry":
        a, b, cin = draw(), draw(), int(rng.integers(2))
        values, expected = ((a + b + cin) % top, cin, (a + b + cin) >> width), None
    elif operation == "multiply":
        a, b = draw(), draw()
        values, expected = (a, b), a * b
    elif operation == "divide":
        b, a = draw(), draw(1)
        values, expected = (a * b, a), b
    elif operation == "factor":
        a, b = draw(2), draw(2)
        values, expected = (a * b,), None
    else:
        raise ValueError(f"cannot generate random {operation!r} tasks")
    return TaskSpec(operation, width, dict(zip(_OPS[operation].clamps, values)),
                    expected=expected)
