"""Posing arithmetic problems to circuit models.

Every operation is the same mechanism with a different clamp pattern on
an adder (A + B + Cin = S + 2^n Cout) or multiplier (A * B = P):

* add: clamp A, B, Cin; read S, Cout.
* subtract: clamp S, B, Cin and (by default) Cout = 0; read A.  Clamping
  Cout to 0 makes borrowing infeasible, so S >= B + Cin is required
  unless cout="free" (or 1) is requested.
* reverse_carry: clamp S, Cin, Cout; read any consistent (A, B).
* multiply: clamp A, B; read P.
* divide: clamp P, A; read B.
* factor: clamp P; read (A, B).  The trivial factorizations 1 * P and
  P * 1 are valid rows of the multiplier for any P, so the reported
  answer is the most frequent pair with both factors > 1.
* sat: clamp an arbitrary terminal subset; read the rest.

Integers map to terminal bits little-endian: bit j of operand X lives on
terminal Xj (plain X when the operand is one bit wide).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .merge import public_terminals
from .sampler import Histogram, mode_estimate, multistart, replica_exchange
from .synthesis import bit_names, operand_width

OPERATIONS = ("add", "subtract", "reverse_carry", "multiply", "divide", "factor", "sat")

ADDER_OPS = ("add", "subtract", "reverse_carry")
MULT_OPS = ("multiply", "divide", "factor")


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
    leaves it unclamped, 0/1 clamp it explicitly.
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


def _require(task: TaskSpec, *operands: str) -> list[int]:
    missing = [o for o in operands if o not in task.clamps]
    if missing:
        raise ValueError(f"operation {task.operation!r} needs clamps for {missing}")
    return [int(task.clamps[o]) for o in operands]


def _check_width(task: TaskSpec, iface: _Interface) -> None:
    if task.bit_width is not None and task.bit_width != iface.width:
        raise ValueError(
            f"task expects {task.bit_width}-bit operands, model has {iface.width}"
        )
    expected_kind = "adder" if task.operation in ADDER_OPS else "multiplier"
    if task.operation != "sat" and iface.kind != expected_kind:
        article = "an" if expected_kind == "adder" else "a"
        raise ValueError(
            f"operation {task.operation!r} needs {article} {expected_kind} model"
        )


def clamp_assignments(model, task: TaskSpec) -> dict[str, int]:
    """Per-terminal clamp bits realizing a task on a model."""
    iface = model_interface(model) if task.operation != "sat" else None
    if task.operation != "sat":
        _check_width(task, iface)

    def spread(operand: str, value: int) -> dict[str, int]:
        terms = iface.bits(operand)
        return dict(zip(terms, encode_int(value, len(terms))))

    op = task.operation
    out: dict[str, int] = {}
    if op == "add":
        a, b = _require(task, "A", "B")
        cin = int(task.clamps.get("Cin", 0))
        out |= spread("A", a) | spread("B", b) | spread("Cin", cin)
    elif op == "subtract":
        s, b = _require(task, "S", "B")
        cin = int(task.clamps.get("Cin", 0))
        out |= spread("S", s) | spread("B", b) | spread("Cin", cin)
        if task.cout != "free":
            out |= spread("Cout", 0 if task.cout is None else int(task.cout))
    elif op == "reverse_carry":
        s, cout = _require(task, "S", "Cout")
        cin = int(task.clamps.get("Cin", 0))
        out |= spread("S", s) | spread("Cin", cin) | spread("Cout", cout)
    elif op == "multiply":
        a, b = _require(task, "A", "B")
        out |= spread("A", a) | spread("B", b)
    elif op == "divide":
        p, a = _require(task, "P", "A")
        out |= spread("P", p) | spread("A", a)
    elif op == "factor":
        (p,) = _require(task, "P")
        out |= spread("P", p)
    else:  # sat
        names = set(public_terminals(model))
        for term, bit in task.clamps.items():
            if term not in names:
                raise KeyError(f"unknown terminal {term!r}")
            if int(bit) not in (0, 1):
                raise ValueError(f"sat clamps take bits, got {term}={bit}")
            out[term] = int(bit)
    return out


def answer_terminals(model, task: TaskSpec) -> tuple[str, ...]:
    """Free terminals whose mode constitutes the answer, LSB first."""
    op = task.operation
    if op == "sat":
        clamped = set(clamp_assignments(model, task))
        return tuple(n for n in public_terminals(model) if n not in clamped)
    iface = model_interface(model)
    if op == "add":
        return tuple(iface.bits("S") + iface.bits("Cout"))
    if op == "subtract":
        return tuple(iface.bits("A"))
    if op == "reverse_carry":
        return tuple(iface.bits("A") + iface.bits("B"))
    if op == "multiply":
        return tuple(iface.bits("P"))
    if op == "divide":
        return tuple(iface.bits("B"))
    return tuple(iface.bits("A") + iface.bits("B"))  # factor


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
    """Predicate on a decoded answer assignment (terminal name -> bit)."""
    op = task.operation
    if op == "sat":
        def check_sat(answer: Mapping[str, int]) -> bool:
            return True
        return check_sat
    iface = model_interface(model)
    n = iface.width
    modulus = 2**n

    def decoded(answer: Mapping[str, int], operand: str) -> int:
        return decode_int([int(answer[t]) for t in iface.bits(operand)])

    if op == "add":
        a, b = int(task.clamps["A"]), int(task.clamps["B"])
        cin = int(task.clamps.get("Cin", 0))
        total = a + b + cin

        def check(answer):
            return (decoded(answer, "S") == total % modulus
                    and int(answer["Cout"]) == total >> n)
    elif op == "subtract":
        s, b = int(task.clamps["S"]), int(task.clamps["B"])
        cin = int(task.clamps.get("Cin", 0))
        if task.cout == "free":
            target = (s - b - cin) % modulus

            def check(answer):
                return decoded(answer, "A") == target
        else:
            cout = 0 if task.cout is None else int(task.cout)
            target = s + cout * modulus - b - cin

            def check(answer):
                return 0 <= target < modulus and decoded(answer, "A") == target
    elif op == "reverse_carry":
        s, cout = int(task.clamps["S"]), int(task.clamps["Cout"])
        cin = int(task.clamps.get("Cin", 0))

        def check(answer):
            return (decoded(answer, "A") + decoded(answer, "B") + cin
                    == s + modulus * cout)
    elif op == "multiply":
        a, b = int(task.clamps["A"]), int(task.clamps["B"])

        def check(answer):
            return decoded(answer, "P") == a * b
    elif op == "divide":
        p, a = int(task.clamps["P"]), int(task.clamps["A"])

        def check(answer):
            return a > 0 and decoded(answer, "B") * a == p
    else:  # factor
        p = int(task.clamps["P"])

        def check(answer):
            a, b = decoded(answer, "A"), decoded(answer, "B")
            return a > 1 and b > 1 and a * b == p
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
    operands: dict[str, int]  # decoded integers
    count: int
    total: int
    frequency: float
    top: list[tuple[dict[str, int], int]]
    success: bool
    factor_pairs: list[tuple[tuple[int, int], int]] | None = None
    chain_sweeps: int = 0  # sweeps spent over every chain and replica


def _nontrivial_factor_mode(hist: Histogram, iface: _Interface):
    """(A, B) pairs with both factors > 1, by falling count, then (A, B)."""
    if not hist.counts:
        return []
    keys = np.array(list(hist.counts), dtype=np.uint8)
    counts = np.fromiter(hist.counts.values(), dtype=np.int64, count=len(keys))
    a_bits = keys[:, [hist.names.index(t) for t in iface.bits("A")]]
    b_bits = keys[:, [hist.names.index(t) for t in iface.bits("B")]]
    rows = np.flatnonzero(a_bits[:, 1:].any(axis=1) & b_bits[:, 1:].any(axis=1))
    # Last lexsort key is primary: count, then A and B, most significant bit first.
    rows = rows[np.lexsort((*b_bits[rows].T, *a_bits[rows].T, -counts[rows]))]

    def decoded(bits: np.ndarray) -> list[int]:
        # Python ints past 62 bits, where int64 would overflow.
        place = np.array([1 << j for j in range(bits.shape[1])],
                         dtype=np.int64 if bits.shape[1] < 63 else object)
        return (bits[rows].astype(place.dtype) @ place).tolist()

    return [((a, b), n) for a, b, n in
            zip(decoded(a_bits), decoded(b_bits), counts[rows].tolist())]


def _factor_mode(hist: Histogram, iface: _Interface, pairs) -> tuple[tuple[int, ...], int]:
    """The histogram key of the first nontrivial pair, else the plain mode."""
    if not pairs:
        return mode_estimate(hist)
    a_terms, b_terms = iface.bits("A"), iface.bits("B")
    (a, b), count = pairs[0]
    by_name = dict(zip(a_terms, encode_int(a, len(a_terms))))
    by_name |= dict(zip(b_terms, encode_int(b, len(b_terms))))
    return tuple(by_name[t] for t in hist.names), count


def answer_mode(model, task: TaskSpec, hist: Histogram) -> tuple[tuple[int, ...], int]:
    """Pooled-histogram mode under the task's answer-extraction rule.

    Factorization ignores assignments with a factor of 1: the trivial
    rows 1 * P and P * 1 are valid for every product, so the plain mode
    would answer them whenever P fits in one operand.
    """
    if task.operation == "factor":
        iface = model_interface(model)
        return _factor_mode(hist, iface, _nontrivial_factor_mode(hist, iface))
    return mode_estimate(hist)


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
    factor_pairs = None
    if task.operation == "factor":
        iface = model_interface(model)
        factor_pairs = _nontrivial_factor_mode(hist, iface)
        bits, count = _factor_mode(hist, iface, factor_pairs)
    else:
        bits, count = mode_estimate(hist)
    terminals = dict(zip(record, (int(b) for b in bits)))
    operands = group_operands(record, bits)
    total = hist.total
    return SolveResult(
        task=task,
        terminals=terminals,
        operands=operands,
        count=int(count),
        total=int(total),
        frequency=count / total if total else 0.0,
        top=[(group_operands(record, k), c) for k, c in hist.top(settings.top_k)],
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

    if operation == "add":
        a, b = draw(), draw()
        cin = int(rng.integers(2))
        total = a + b + cin
        return TaskSpec("add", width, {"A": a, "B": b, "Cin": cin},
                        expected=total)
    if operation == "subtract":
        x, y = draw(), draw()
        if x < y:
            x, y = y, x
        return TaskSpec("subtract", width, {"S": x, "B": y}, expected=x - y)
    if operation == "reverse_carry":
        a, b = draw(), draw()
        cin = int(rng.integers(2))
        total = a + b + cin
        return TaskSpec("reverse_carry", width,
                        {"S": total % top, "Cout": total >> width, "Cin": cin})
    if operation == "multiply":
        a, b = draw(), draw()
        return TaskSpec("multiply", width, {"A": a, "B": b}, expected=a * b)
    if operation == "divide":
        b, a = draw(), draw(1)
        return TaskSpec("divide", width, {"P": a * b, "A": a}, expected=b)
    if operation == "factor":
        a = draw(2)
        b = draw(2)
        return TaskSpec("factor", width, {"P": a * b})
    raise ValueError(f"cannot generate random {operation!r} tasks")
