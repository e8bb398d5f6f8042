"""Building RBMs without training.

Directly-calculated models place one hidden unit per valid assignment of a
truth table: the unit's weight column is ``c * (2x - 1)`` and its bias
``c * (1/2 - |x|_1)``, so its pre-activation at visible state v is exactly
``c * (1/2 - d_H(v, x))``.  The unit fires with margin c/2 on its own row
and is suppressed everywhere else; as c grows the visible marginal
converges to uniform over the table rows.

On top of that sit circuit generators: logic gates, the 5-gate full adder,
ripple-carry adders of arbitrary width, and shift-and-add multipliers
assembled from narrower multipliers plus adders.

An adder or multiplier is a ``Unit``: its operands are stated once, in row
order, and its terminals, rows and table derive from them.  Unit names
(``parse_unit``) and models (``model_interface``) both resolve to a Unit.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .merge import MergedModel, Netlist, compose, public_terminals
from .model import Rbm, _check_integer

DEFAULT_SHARPNESS = 12.0

# Largest multiplier width realized as a single truth table; wider ones are
# composed recursively from four half-width multipliers and three adders.
MULT_DIRECT_MAX = 4


@dataclass(frozen=True)
class TruthTable:
    """Valid assignments of ``arity`` named binary terminals."""

    arity: int
    rows: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("truth table needs at least one row")
        if len(self.names) != self.arity:
            raise ValueError("names length must equal arity")
        if len(set(self.rows)) != len(self.rows):
            raise ValueError("truth table rows must be distinct")
        for row in self.rows:
            if len(row) != self.arity or any(b not in (0, 1) for b in row):
                raise ValueError(f"bad truth table row {row!r}")


def rbm_from_truth_table(table: TruthTable, sharpness: float = DEFAULT_SHARPNESS) -> Rbm:
    """Directly-calculated RBM with one hidden unit per table row."""
    c = float(sharpness)
    # The largest parameter is a hidden bias of c * (arity - 0.5).
    if not 0 < c * (table.arity - 0.5) < np.inf:
        raise ValueError(f"sharpness must be a positive number with finite parameters, "
                         f"got {sharpness!r}")
    rows = np.array(table.rows, dtype=np.float64)
    weights = c * (2.0 * rows - 1.0).T  # (arity, n_rows)
    hidden_bias = c * (0.5 - rows.sum(axis=1))
    visible_bias = np.zeros(table.arity)
    return Rbm(weights, visible_bias, hidden_bias, table.names)


def bit_names(prefix: str, width: int) -> list[str]:
    """Terminal names for a ``width``-bit operand; plain name when width 1."""
    if width == 1:
        return [prefix]
    return [f"{prefix}{j}" for j in range(width)]


GATE_FUNCTIONS = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "nand": lambda a, b: 1 - (a & b),
}


def gate_table(kind: str) -> TruthTable:
    kind = kind.lower()
    if kind in GATE_FUNCTIONS:
        fn = GATE_FUNCTIONS[kind]
        rows = tuple((a, b, fn(a, b)) for a in (0, 1) for b in (0, 1))
        return TruthTable(3, rows, ("in1", "in2", "out"))
    if kind == "not":
        return TruthTable(2, ((0, 1), (1, 0)), ("in1", "out"))
    if kind == "copy":
        return TruthTable(2, ((0, 0), (1, 1)), ("in1", "out"))
    raise ValueError(f"unknown gate kind {kind!r}")


def gate(kind: str, sharpness: float = DEFAULT_SHARPNESS) -> Rbm:
    """Directly-calculated logic gate over terminals in1[, in2], out."""
    return rbm_from_truth_table(gate_table(kind), sharpness)


# Unit kinds by the names they go by; "fa" is an adder slice.
_UNIT_KINDS = {"adder": "adder", "fa": "adder", "mult": "multiplier", "multiplier": "multiplier"}


class Unit(NamedTuple):
    """An adder or a multiplier over ``width``-bit operands.  Its table has
    one row per input combination, the inputs then the outputs, each operand
    LSB first: A, B, Cin, S, Cout with A + B + Cin = S + 2^width Cout, or
    A, B, P with A * B = P."""

    kind: str  # "adder" or "multiplier"
    width: int

    def _layout(self):
        """(inputs, outputs, result): (operand, bits) pairs in row order,
        and the function of the input values whose bits the outputs hold."""
        w = self.width
        if self.kind == "adder":
            return (("A", w), ("B", w), ("Cin", 1)), (("S", w), ("Cout", 1)), sum
        return (("A", w), ("B", w)), (("P", 2 * w),), math.prod

    @property
    def inputs(self) -> tuple[tuple[str, int], ...]:
        """(operand, bits) of each input, in row order."""
        return self._layout()[0]

    @property
    def terminals(self) -> tuple[str, ...]:
        """Terminal names in row order."""
        inputs, outputs, _ = self._layout()
        return tuple(t for operand, n in inputs + outputs for t in bit_names(operand, n))

    def bits(self, operand: str) -> list[str]:
        """Terminal names of one operand, LSB first."""
        inputs, outputs, _ = self._layout()
        return bit_names(operand, dict(inputs + outputs)[operand])

    @property
    def size(self) -> int:
        """Number of table rows: one per input combination."""
        return 2 ** sum(n for _, n in self.inputs)

    def rows(self) -> list[tuple[int, ...]]:
        """Every input combination in table row order, the last input fastest."""
        return list(itertools.product(*(range(2**n) for _, n in self.inputs)))

    def row(self, inputs: Sequence[int]) -> tuple[int, ...]:
        """The valid row for one input combination, bits LSB first."""
        ins, outs, result = self._layout()
        fields = [*zip(inputs, (n for _, n in ins), strict=True),
                  (result(inputs), sum(n for _, n in outs))]
        return tuple(value >> i & 1 for value, n in fields for i in range(n))

    def table(self) -> TruthTable:
        """The unit's truth table, one row per input combination."""
        return TruthTable(len(self.terminals), tuple(map(self.row, self.rows())), self.terminals)


def parse_unit(unit) -> Unit:
    """The Unit of a name such as "adder4", "fa2", "mult8" (case and
    surrounding blanks ignored), or of a (kind, width) pair such as
    ("multiplier", 8)."""
    if isinstance(unit, str):
        m = re.fullmatch(r"([a-z]+)([0-9]+)", unit.strip().lower())
        kind, width = (m.group(1), int(m.group(2))) if m else (None, None)
    elif isinstance(unit, (tuple, list)) and len(unit) == 2:
        kind, width = unit
    else:
        raise TypeError(f"bad unit spec {unit!r}")
    if kind not in _UNIT_KINDS:
        raise ValueError(f"cannot parse unit {unit!r}")
    _check_integer("unit width", width, 1)
    return Unit(_UNIT_KINDS[kind], int(width))


def full_adder_netlist(sharpness: float = DEFAULT_SHARPNESS) -> Netlist:
    """Standard 5-gate full adder: S = A^B^Cin, Cout = AB + (A^B)Cin.

    Internal wires t1 = A^B, t2 = AB, t3 = t1*Cin stay as unexported
    visible units of the composed model.
    """
    xor = gate("xor", sharpness)
    and_ = gate("and", sharpness)
    or_ = gate("or", sharpness)
    return Netlist(
        components=[
            ("xor1", xor),
            ("xor2", xor),
            ("and1", and_),
            ("and2", and_),
            ("or1", or_),
        ],
        connections=[
            ("xor1.in1", "and1.in1"),  # A fans out
            ("xor1.in2", "and1.in2"),  # B fans out
            ("xor1.out", "xor2.in1"),  # t1
            ("xor1.out", "and2.in1"),  # t1 fans out
            ("xor2.in2", "and2.in2"),  # Cin fans out
            ("and1.out", "or1.in1"),   # t2
            ("and2.out", "or1.in2"),   # t3
        ],
        exports={
            "xor1.in1": "A",
            "xor1.in2": "B",
            "xor2.in2": "Cin",
            "xor2.out": "S",
            "or1.out": "Cout",
        },
    )


def operand_width(names: Iterable[str], prefix: str) -> int:
    """Width of an operand group: plain ``prefix`` counts as width 1."""
    names = set(names)
    if prefix in names:
        return 1
    pattern = re.compile(re.escape(prefix) + r"(\d+)")
    indices = sorted(int(m.group(1)) for n in names if (m := pattern.fullmatch(n)))
    if not indices:
        raise KeyError(f"no terminals for operand {prefix!r}")
    if indices != list(range(len(indices))):
        raise ValueError(f"operand {prefix!r} has gaps in bit indices: {indices}")
    return len(indices)


def model_interface(model) -> Unit:
    """Classify a model as an adder or a multiplier from its terminals."""
    return _interface(tuple(public_terminals(model)))


@functools.lru_cache(maxsize=64)
def _interface(names: tuple[str, ...]) -> Unit:
    """model_interface of a model whose public terminals are ``names``,
    classified once per distinct tuple."""
    width = operand_width(names, "A")
    if operand_width(names, "B") != width:
        raise ValueError("operands A and B have different widths")
    if "Cin" in names:
        if operand_width(names, "S") != width:
            raise ValueError("adder sum width must match input width")
        if "Cout" not in names:
            raise KeyError("adder is missing terminal 'Cout'")
        return Unit("adder", width)
    try:
        product_width = operand_width(names, "P")
    except KeyError:
        raise KeyError("model is neither an adder (Cin) nor a multiplier (P)") from None
    if product_width != 2 * width:
        raise ValueError("multiplier product width must be twice the input width")
    return Unit("multiplier", width)


def build_adder(n_bits: int, base) -> MergedModel:
    """Ripple adder over n bits: chained copies of ``base``, Cout into Cin.

    ``base`` is an adder slice (Rbm or MergedModel) whose width must divide
    n_bits.  Exports the n-bit operands A, B and S, named by ``bit_names``,
    plus Cin and Cout; the inter-slice carries remain internal.
    """
    iface = model_interface(base)
    if iface.kind != "adder":
        raise KeyError("adder slice missing terminal 'Cin'")
    w = iface.width
    if n_bits < 1 or n_bits % w != 0:
        raise ValueError(f"slice width {w} does not divide {n_bits}")
    k = n_bits // w
    components = [(f"fa{i}", base) for i in range(k)]
    connections = [(f"fa{i}.Cout", f"fa{i + 1}.Cin") for i in range(k - 1)]
    exports = {"fa0.Cin": "Cin", f"fa{k - 1}.Cout": "Cout"}
    for prefix in ("A", "B", "S"):
        slices = [f"fa{i}.{t}" for i in range(k) for t in iface.bits(prefix)]
        exports |= dict(zip(slices, bit_names(prefix, n_bits)))
    return compose(Netlist(components, connections, exports))


def build_multiplier(n_bits: int, base_mult, base_adder) -> MergedModel:
    """Shift-and-add multiplier with n-bit inputs and a 2n-bit product.

    Four copies of the half-width ``base_mult`` produce the partial
    products A_L*B_L, A_L*B_H, A_H*B_L, A_H*B_H; three ripple adders of
    width 2n accumulate them, with the 2^{n/2} and 2^n shifts realized
    purely by wiring.  Pad bits and internal carries are recorded in the
    result's ``constants`` and must be clamped to 0 during inference.
    """
    if n_bits < 2 or n_bits % 2 != 0:
        raise ValueError("n_bits must be even and >= 2")
    m = n_bits // 2
    mult_iface = model_interface(base_mult)
    if mult_iface.kind != "multiplier":
        raise KeyError("base multiplier is an adder (it has a Cin terminal)")
    if mult_iface.width != m:
        raise ValueError(f"base multiplier width {mult_iface.width} != {m}")

    n, nn = n_bits, 2 * n_bits
    adder2n = base_adder if model_interface(base_adder) == Unit("adder", nn) else \
        build_adder(nn, base_adder)
    components = [
        ("mLL", base_mult), ("mLH", base_mult), ("mHL", base_mult), ("mHH", base_mult),
        ("add1", adder2n), ("add2", adder2n), ("add3", adder2n),
    ]

    def mt(cid, prefix, j):  # multiplier-local terminal
        return f"{cid}.{mult_iface.bits(prefix)[j]}"

    add_a, add_b, add_s = (bit_names(prefix, nn) for prefix in "ABS")  # adder operands
    connections = []
    for j in range(m):
        connections += [
            (mt("mLL", "A", j), mt("mLH", "A", j)),  # shared A_L
            (mt("mHL", "A", j), mt("mHH", "A", j)),  # shared A_H
            (mt("mLL", "B", j), mt("mHL", "B", j)),  # shared B_L
            (mt("mLH", "B", j), mt("mHH", "B", j)),  # shared B_H
        ]
    # add1: LL + (LH << m); add2: += HL << m; add3: += HH << n.
    for j in range(n):
        connections.append((f"add1.{add_a[j]}", mt("mLL", "P", j)))
        connections.append((f"add1.{add_b[j + m]}", mt("mLH", "P", j)))
        connections.append((f"add2.{add_b[j + m]}", mt("mHL", "P", j)))
        connections.append((f"add3.{add_b[j + n]}", mt("mHH", "P", j)))
    for j in range(nn):
        connections.append((f"add2.{add_a[j]}", f"add1.{add_s[j]}"))
        connections.append((f"add3.{add_a[j]}", f"add2.{add_s[j]}"))

    a_out, b_out = bit_names("A", n), bit_names("B", n)
    exports = {}
    for j in range(m):
        exports[mt("mLL", "A", j)] = a_out[j]
        exports[mt("mHL", "A", j)] = a_out[j + m]
        exports[mt("mLL", "B", j)] = b_out[j]
        exports[mt("mLH", "B", j)] = b_out[j + m]
    exports |= {f"add3.{s}": p for s, p in zip(add_s, bit_names("P", nn))}

    # Pads: the adders' inputs, then their carries, that no connection names.
    named = {t for pair in connections for t in pair}
    zero_pads = [f"{cid}.{t}" for ts in (add_a + add_b, ["Cin", "Cout"])
                 for cid in ("add1", "add2", "add3") for t in ts if f"{cid}.{t}" not in named]

    merged = compose(Netlist(components, connections, exports))
    constants = dict(merged.constants)
    for term in zero_pads:
        constants[merged.rbm.visible_names[merged.terminal_map[term]]] = 0
    return MergedModel(merged.rbm, merged.terminal_map, constants)


def builtin_model(name: str, sharpness: float = DEFAULT_SHARPNESS):
    """Resolve a builtin component name to a model.

    Accepted: gate names (and/or/xor/nand/not/copy), "fa1" (the gate-built
    full adder), "adder<n>" / "fa<n>" (direct-unit ripple adders), and
    "mult<n>" (direct tables up to width 4, composed above that).
    """
    key = name.strip().lower()
    if key in ("and", "or", "xor", "nand", "not", "copy"):
        return gate(key, sharpness)
    if key == "fa1":
        return compose(full_adder_netlist(sharpness))
    try:
        unit = parse_unit(key)
    except ValueError:
        raise KeyError(f"unknown builtin model {name!r}") from None
    if unit.kind == "multiplier" and unit.width <= MULT_DIRECT_MAX:
        return rbm_from_truth_table(unit.table(), sharpness)
    slice_fa = rbm_from_truth_table(Unit("adder", 1).table(), sharpness)
    if unit.kind == "multiplier":
        half = builtin_model(f"{unit.kind}{unit.width // 2}", sharpness)
        return build_multiplier(unit.width, half, slice_fa)
    return slice_fa if unit.width == 1 else build_adder(unit.width, slice_fa)
