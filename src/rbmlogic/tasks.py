"""Posing arithmetic problems to circuit models.

Every operation is the same mechanism with a different clamp pattern on
an adder (A + B + Cin = S + 2^n Cout) or multiplier (A * B = P).  The
table ``_OPS`` declares each one once: its unit, the operands it clamps
(Cin is 0 unless given), the operands it reads, and whether they read as
one integer:

* add: clamp A, B, Cin; read S, Cout (one integer, S + 2^n Cout).
* subtract: clamp S, B, Cin and (by default) Cout = 0; read A.  Clamping
  Cout to 0 makes borrowing infeasible, so S >= B + Cin is required
  unless cout="free" (or 1) is requested.
* reverse_carry: clamp S, Cin, Cout; read any consistent (A, B).
* multiply: clamp A, B; read P.
* divide: clamp P, A; read B.  A must be > 0.
* factor: clamp P; read (A, B).  The trivial factorizations 1 * P and
  P * 1 are valid rows of the multiplier for any P, so the reported
  answer is the most frequent pair with both factors > 1.
* sat: clamp an arbitrary terminal subset; read the rest.

Integers map to terminal bits little-endian: bit j of operand X lives on
terminal Xj (plain X when the operand is one bit wide).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .merge import public_terminals
from .sampler import Histogram, mode_estimate, multistart, replica_exchange
from .synthesis import bit_names, operand_width


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
    out = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bad bit {b!r}")
        out |= int(b) << j
    return out


@dataclass(frozen=True)
class TaskSpec:
    """One problem instance: an operation plus clamped operand values.

    ``clamps`` maps operand names (A, B, S, P, Cin, Cout) to integers;
    for the sat operation it maps individual terminal names to bits.
    ``cout`` only affects subtraction: None clamps Cout to 0, "free"
    leaves it unclamped, 0/1 clamp it explicitly.  ``expected`` is only
    meaningful for operations whose answer reads as one integer.
    """

    operation: str
    bit_width: int | None = None
    clamps: dict[str, int] = field(default_factory=dict)
    expected: int | None = None
    cout: int | str | None = None

    def __post_init__(self):
        if self.operation not in OPERATIONS:
            raise ValueError(f"unknown operation {self.operation!r}")
        if self.cout not in (None, "free", 0, 1):
            raise ValueError("cout must be None, 'free', 0 or 1")
        for name, value in self.clamps.items():
            if int(value) < 0:
                raise ValueError(f"clamp {name}={value} is negative")
        if self.expected is not None and not _OPS[self.operation].integer:
            raise ValueError(f"operation {self.operation!r} has no single-integer "
                             f"answer to compare with expected={self.expected}")


@dataclass(frozen=True)
class _Interface:
    """Operand widths a model exposes."""

    kind: str  # "adder" or "multiplier"
    width: int
    names: tuple[str, ...]

    def bits(self, operand: str) -> list[str]:
        widths = {"A": self.width, "B": self.width, "S": self.width,
                  "P": 2 * self.width, "Cin": 1, "Cout": 1}
        return bit_names(operand, widths[operand])


def model_interface(model) -> _Interface:
    """Classify a model as an adder or a multiplier from its terminals."""
    names = public_terminals(model)
    width = operand_width(names, "A")
    if operand_width(names, "B") != width:
        raise ValueError("operands A and B have different widths")
    if "Cin" in names:
        if operand_width(names, "S") != width:
            raise ValueError("adder sum width must match input width")
        return _Interface("adder", width, tuple(names))
    if operand_width(names, "P") != 2 * width:
        raise ValueError("multiplier product width must be twice the input width")
    return _Interface("multiplier", width, tuple(names))


def _clamped_operands(task: TaskSpec) -> dict[str, int]:
    """Value of each operand the task clamps, in clamp order."""
    values = {"Cin": 0} | task.clamps
    if task.operation == "subtract":  # Cout follows task.cout ("free": unclamped)
        values["Cout"] = 0 if task.cout is None else task.cout
    clamped = _OPS[task.operation].clamps
    missing = [o for o in clamped if o not in values]
    if missing:
        raise ValueError(f"operation {task.operation!r} needs clamps for {missing}")
    return {o: int(values[o]) for o in clamped if values[o] != "free"}


def clamp_assignments(model, task: TaskSpec) -> dict[str, int]:
    """Per-terminal clamp bits realizing a task on a model."""
    op = _OPS[task.operation]
    out: dict[str, int] = {}
    if op.kind is None:  # sat clamps terminals by name
        names = set(public_terminals(model))
        for term, bit in task.clamps.items():
            if term not in names:
                raise KeyError(f"unknown terminal {term!r}")
            if int(bit) not in (0, 1):
                raise ValueError(f"sat clamps take bits, got {term}={bit}")
            out[term] = int(bit)
        return out
    iface = model_interface(model)
    if task.bit_width is not None and task.bit_width != iface.width:
        raise ValueError(
            f"task expects {task.bit_width}-bit operands, model has {iface.width}"
        )
    if iface.kind != op.kind:
        article = "an" if op.kind == "adder" else "a"
        raise ValueError(f"operation {task.operation!r} needs {article} {op.kind} model")
    for operand, value in _clamped_operands(task).items():
        terms = iface.bits(operand)
        out |= dict(zip(terms, encode_int(value, len(terms))))
    return out


def answer_terminals(model, task: TaskSpec) -> tuple[str, ...]:
    """Free terminals whose mode constitutes the answer, LSB first."""
    op = _OPS[task.operation]
    if op.kind is None:
        clamped = set(clamp_assignments(model, task))
        return tuple(n for n in public_terminals(model) if n not in clamped)
    iface = model_interface(model)
    return tuple(t for operand in op.answer for t in iface.bits(operand))


def forward_task(width: int, inputs: Sequence[int]) -> TaskSpec:
    """The task that clamps exactly a unit's inputs, (A, B, Cin) or (A, B)
    as ``synthesis.unit_inputs`` lists them: add or multiply."""
    names = ("A", "B", "Cin")[:len(inputs)]
    operation = next(name for name, op in _OPS.items() if op.clamps == names)
    return TaskSpec(operation, width, dict(zip(names, inputs)))


def group_operands(names: Sequence[str], bits: Sequence[int]) -> dict[str, int]:
    """Decode named bit columns back into integers per operand."""
    groups: dict[str, dict[int, int]] = {}
    singles: dict[str, int] = {}
    for name, bit in zip(names, bits):
        head = name.rstrip("0123456789")
        tail = name[len(head):]
        if tail:
            groups.setdefault(head, {})[int(tail)] = int(bit)
        else:
            singles[name] = int(bit)
    out = dict(singles)
    for head, by_index in groups.items():
        ordered = [by_index[j] for j in sorted(by_index)]
        if sorted(by_index) != list(range(len(by_index))):
            raise ValueError(f"operand {head!r} has missing bit indices")
        out[head] = decode_int(ordered)
    return out


def assignment_checker(model, task: TaskSpec) -> Callable[[Mapping[str, int]], bool]:
    """Predicate on a decoded answer assignment (terminal name -> bit).

    The clamped operands and the decoded answer must satisfy the unit's
    relation, A + B + Cin = S + 2^n Cout or A * B = P, and the
    operation's lower bounds.  A subtract Cout left free may be either bit.
    """
    op = _OPS[task.operation]
    if op.kind is None:
        return lambda answer: True
    iface = model_interface(model)
    clamped = _clamped_operands(task)
    answer_bits = {operand: iface.bits(operand) for operand in op.answer}
    modulus = 2**iface.width

    def check(answer: Mapping[str, int]) -> bool:
        v = clamped | {operand: decode_int([int(answer[t]) for t in terms])
                       for operand, terms in answer_bits.items()}
        if any(v[operand] < low for operand, low in op.least.items()):
            return False
        if op.kind == "multiplier":
            return v["A"] * v["B"] == v["P"]
        carries = (v["Cout"],) if "Cout" in v else (0, 1)
        return any(v["A"] + v["B"] + v["Cin"] == v["S"] + modulus * c for c in carries)

    return check


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
        if min(self.n_chains, self.n_sweeps, self.thin) < 1 or self.burn_in < 0:
            raise ValueError("bad sampler settings")
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
    """(A, B) pairs with both factors > 1, by falling count, then (A, B),
    and the histogram key of the first (None when there is none).
    ``a_terms`` and ``b_terms`` name the bits of A and B, LSB first."""
    if not hist.counts:
        return [], None
    keys = np.array(list(hist.counts), dtype=np.uint8)
    counts = np.fromiter(hist.counts.values(), dtype=np.int64, count=len(keys))
    a_bits = keys[:, [hist.names.index(t) for t in a_terms]]
    b_bits = keys[:, [hist.names.index(t) for t in b_terms]]
    rows = np.flatnonzero(a_bits[:, 1:].any(axis=1) & b_bits[:, 1:].any(axis=1))
    # Last lexsort key is primary: count, then A and B, most significant bit first.
    rows = rows[np.lexsort((*b_bits[rows].T, *a_bits[rows].T, -counts[rows]))]

    def decoded(bits: np.ndarray) -> list[int]:
        # Python ints past 62 bits, where int64 would overflow.
        place = np.array([1 << j for j in range(bits.shape[1])],
                         dtype=np.int64 if bits.shape[1] < 63 else object)
        return (bits[rows].astype(place.dtype) @ place).tolist()

    pairs = [((a, b), n) for a, b, n in
             zip(decoded(a_bits), decoded(b_bits), counts[rows].tolist())]
    return pairs, tuple(keys[rows[0]].tolist()) if pairs else None


def _answer_mode(task: TaskSpec, hist: Histogram, record: Sequence[str]):
    """``answer_mode`` plus the nontrivial factor pairs (None unless factoring).

    ``record`` is the task's ``answer_terminals``; a factor task reads A's
    bits, then B's, which have the same width.
    """
    if task.operation != "factor":
        return (*mode_estimate(hist), None)
    half = len(record) // 2
    pairs, key = _nontrivial_factor_mode(hist, record[:half], record[half:])
    if not pairs:
        return (*mode_estimate(hist), pairs)
    return key, pairs[0][1], pairs


def answer_mode(model, task: TaskSpec, hist: Histogram) -> tuple[tuple[int, ...], int]:
    """Pooled-histogram mode under the task's answer-extraction rule.

    Factorization ignores assignments with a factor of 1: the trivial
    rows 1 * P and P * 1 are valid for every product, so the plain mode
    would answer them whenever P fits in one operand.
    """
    record = answer_terminals(model, task) if task.operation == "factor" else ()
    bits, count, _ = _answer_mode(task, hist, record)
    return bits, count


def solve(model, task: TaskSpec, settings: SolveSettings = SolveSettings()) -> SolveResult:
    """Sample the clamped model and read the answer off the mode."""
    clamp = clamp_assignments(model, task)
    record = answer_terminals(model, task)
    if settings.betas is None:
        hist = multistart(
            model, clamp,
            n_chains=settings.n_chains, n_sweeps=settings.n_sweeps,
            burn_in=settings.burn_in, thin=settings.thin, seed=settings.seed,
            record_terminals=record,
        )
    else:
        hist = replica_exchange(
            model, clamp, betas=settings.betas, n_ladders=settings.n_chains,
            n_sweeps=settings.n_sweeps, burn_in=settings.burn_in,
            thin=settings.thin, seed=settings.seed, record_terminals=record,
        )
    bits, count, factor_pairs = _answer_mode(task, hist, record)
    terminals = dict(zip(record, (int(b) for b in bits)))
    # sat reads raw terminals, which need not form whole operands
    decode = group_operands if _OPS[task.operation].kind else (
        lambda names, key: dict(zip(names, map(int, key))))
    total = hist.total
    return SolveResult(
        task=task,
        terminals=terminals,
        operands=decode(record, bits),
        count=int(count),
        total=int(total),
        frequency=count / total if total else 0.0,
        top=[(decode(record, k), c) for k, c in hist.top(settings.top_k)],
        success=assignment_checker(model, task)(terminals),
        factor_pairs=factor_pairs,
        chain_sweeps=settings.n_chains * len(settings.betas or (1.0,)) * settings.n_sweeps,
    )


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
