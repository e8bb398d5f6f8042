"""Combining RBMs by identifying visible units.

Two RBMs are merged by block-concatenating their weight matrices and
summing the rows and visible biases of identified units; hidden layers are
concatenated and never merged.  The merged model's energy is exactly the
sum of the component energies on the corresponding sub-states, so its
distribution is the renormalized product of the component distributions
restricted to agreeing shared units.

``merge_pair`` is the two-model primitive.  ``compose`` generalizes it to
a netlist of many components with multi-way shared terminals (a wire
feeding several gates) via union-find over named terminals.

A model is a plain ``Rbm`` or a ``MergedModel``.  ``model_parts`` is the
one place that tells them apart: a plain ``Rbm`` is a model with no
constants.  ``resolve_clamp`` validates a clamp together with the
model's constants, and ``clamp_arrays`` turns the result into the index
arrays the samplers and enumerators use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .model import Rbm


def disjoint_union(a: Rbm, b: Rbm) -> Rbm:
    """Stack two RBMs side by side with no shared units."""
    collisions = set(a.visible_names) & set(b.visible_names)
    if collisions:
        raise ValueError(f"terminal name collision: {sorted(collisions)}")
    nv_a, nh_a = a.weights.shape
    nv_b, nh_b = b.weights.shape
    w = np.zeros((nv_a + nv_b, nh_a + nh_b))
    w[:nv_a, :nh_a] = a.weights
    w[nv_a:, nh_a:] = b.weights
    return Rbm(
        w,
        np.concatenate([a.visible_bias, b.visible_bias]),
        np.concatenate([a.hidden_bias, b.hidden_bias]),
        a.visible_names + b.visible_names,
    )


def tie_terminals(rbm: Rbm, t1: str, t2: str) -> Rbm:
    """Identify two visible units of one RBM.

    The surviving unit keeps ``t1``'s name and position; its weight row and
    bias are the sums of the two originals.  The result's energy at any
    state equals the original's energy at the state with v(t1) == v(t2).
    """
    if t1 == t2:
        raise ValueError(f"cannot tie terminal {t1!r} to itself")
    i = rbm.terminal_index(t1)
    j = rbm.terminal_index(t2)
    keep = [k for k in range(rbm.n_visible) if k != j]
    w = rbm.weights[keep].copy()
    b = rbm.visible_bias[keep].copy()
    pos = keep.index(i)
    w[pos] += rbm.weights[j]
    b[pos] += rbm.visible_bias[j]
    names = tuple(rbm.visible_names[k] for k in keep)
    return Rbm(w, b, rbm.hidden_bias, names)


def merge_pair(a: Rbm, b: Rbm, pairs: Sequence[tuple[str, str]]) -> Rbm:
    """Merge RBMs ``a`` and ``b`` at the given (a-terminal, b-terminal) pairs.

    Result: n_visible = n_a + n_b - d and n_hidden = r_a + r_b for d pairs.
    Each merged row carries a's weights in a's hidden columns and b's in
    b's; unmerged cross-blocks are zero.  Merged biases add; the merged
    terminal keeps a's name.  Unmerged terminals of the two models must not
    collide (rename first).
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    a_terms = [p[0] for p in pairs]
    b_terms = [p[1] for p in pairs]
    if len(set(a_terms)) != len(a_terms) or len(set(b_terms)) != len(b_terms):
        raise ValueError("each terminal may appear in at most one pair")
    ai = [a.terminal_index(t) for t in a_terms]
    bi = [b.terminal_index(t) for t in b_terms]

    surviving_b = [n for n in b.visible_names if n not in set(b_terms)]
    collisions = set(a.visible_names) & set(surviving_b)
    if collisions:
        raise ValueError(
            f"unmerged terminal name collision: {sorted(collisions)}; rename first"
        )

    nv_a, nh_a = a.weights.shape
    nv_b, nh_b = b.weights.shape
    b_keep = [k for k in range(nv_b) if k not in set(bi)]
    nv = nv_a + len(b_keep)
    w = np.zeros((nv, nh_a + nh_b))
    bias = np.zeros(nv)
    w[:nv_a, :nh_a] = a.weights
    bias[:nv_a] = a.visible_bias
    for k, l in zip(ai, bi):
        w[k, nh_a:] = b.weights[l]
        bias[k] += b.visible_bias[l]
    w[nv_a:, nh_a:] = b.weights[b_keep]
    bias[nv_a:] = b.visible_bias[b_keep]
    names = a.visible_names + tuple(b.visible_names[k] for k in b_keep)
    hidden_bias = np.concatenate([a.hidden_bias, b.hidden_bias])
    return Rbm(w, bias, hidden_bias, names)


@dataclass
class Netlist:
    """Recipe for a merged model: components plus terminal connections.

    ``components`` maps component ids to RBMs (or already-merged models);
    ``connections`` lists pairs of "id.terminal" endpoints to identify;
    ``exports`` optionally renames a merged terminal to a public name.
    """

    components: list[tuple[str, "Rbm | MergedModel"]]
    connections: list[tuple[str, str]] = field(default_factory=list)
    exports: dict[str, str] = field(default_factory=dict)


@dataclass
class MergedModel:
    """A composed RBM plus the map from original terminals to merged units.

    ``constants`` records terminals that must be clamped to a fixed bit
    during any inference (e.g. the zero pads wired into a multiplier's
    internal adders); they are ordinary visible units, not baked-in biases.
    """

    rbm: Rbm
    terminal_map: dict[str, int]
    constants: dict[str, int] = field(default_factory=dict)

    @property
    def exported_terminals(self) -> tuple[str, ...]:
        """Terminals with public (dot-free) names, in visible order."""
        return tuple(n for n in self.rbm.visible_names if "." not in n)


def model_parts(model) -> tuple[Rbm, dict[str, int]]:
    """A model's RBM and a copy of the constants it carries."""
    if isinstance(model, MergedModel):
        return model.rbm, dict(model.constants)
    if isinstance(model, Rbm):
        return model, {}
    raise TypeError(f"expected Rbm or MergedModel, got {type(model).__name__}")


def public_terminals(model) -> list[str]:
    """Terminals with dot-free names that are not constants, in visible order."""
    rbm, constants = model_parts(model)
    return [n for n in rbm.visible_names if "." not in n and n not in constants]


@dataclass(frozen=True)
class ClampMask:
    """Visible units held fixed during sampling, by terminal name."""

    assignments: dict[str, int]

    def __post_init__(self):
        for name, value in self.assignments.items():
            if value not in (0, 1):
                raise ValueError(f"clamp value for {name!r} must be 0 or 1")

    def arrays(self, rbm: Rbm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(clamped indices, their values, free indices) for one model."""
        return clamp_arrays(rbm, self.assignments)


def resolve_clamp(model, clamp: Mapping[str, int] | ClampMask | None = None) -> dict[str, int]:
    """The model's constants plus ``clamp``, validated as one assignment.

    Every name must be a terminal of the model and every value 0 or 1,
    for constants as for the clamp; a clamp may not contradict a constant.
    """
    rbm, constants = model_parts(model)
    if isinstance(clamp, ClampMask):
        clamp = clamp.assignments
    assignments: dict[str, int] = {}
    for what, source in (("constant", constants), ("clamp", clamp or {})):
        for name, value in source.items():
            rbm.terminal_index(name)  # raises on unknown terminals
            if value not in (0, 1):
                raise ValueError(f"{what} value for {name!r} must be 0 or 1, got {value!r}")
            if assignments.get(name, value) != value:
                raise ValueError(f"clamp for {name!r} conflicts with model constant")
            assignments[name] = int(value)
    return assignments


def clamp_arrays(rbm: Rbm, assignments: Mapping[str, int]):
    """(clamped indices ascending, their values, free indices) of a clamp."""
    by_index = {rbm.terminal_index(n): v for n, v in assignments.items()}
    idx = np.array(sorted(by_index), dtype=np.intp)
    vals = np.array([by_index[i] for i in idx], dtype=np.float64)
    free = np.array([i for i in range(rbm.n_visible) if i not in by_index], dtype=np.intp)
    return idx, vals, free


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def compose(netlist: Netlist) -> MergedModel:
    """Build the merged model described by a netlist.

    Equivalent to iterated ``merge_pair``/``tie_terminals`` over the
    union-find classes of the connection graph, but built directly so the
    result is independent of connection order.  Within one class the
    lexicographically-first member name survives unless an export rename
    applies.  Component parameters are copied, never aliased.
    """
    ids = [cid for cid, _ in netlist.components]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate component ids")

    prefixed: list[tuple[str, Rbm]] = []
    inherited_constants: dict[str, int] = {}
    for cid, comp in netlist.components:
        rbm, constants = model_parts(comp)
        prefixed.append((cid, rbm.with_prefix(f"{cid}.")))
        for term, bit in constants.items():
            inherited_constants[f"{cid}.{term}"] = bit

    all_terms: list[str] = []
    for _, rbm in prefixed:
        all_terms.extend(rbm.visible_names)
    term_set = set(all_terms)

    uf = _UnionFind(all_terms)
    for t1, t2 in netlist.connections:
        for t in (t1, t2):
            if t not in term_set:
                raise KeyError(f"dangling connection endpoint {t!r}")
        uf.union(t1, t2)

    for t in netlist.exports:
        if t not in term_set:
            raise KeyError(f"export of unknown terminal {t!r}")

    # Group terminals into classes, ordered by first appearance.
    classes: dict[str, list[str]] = {}
    order: list[str] = []
    for t in all_terms:
        root = uf.find(t)
        if root not in classes:
            classes[root] = []
            order.append(root)
        classes[root].append(t)

    # Resolve each class's public name: export rename wins, else the
    # lexicographically-first member.
    class_names: dict[str, str] = {}
    for root in order:
        members = classes[root]
        renames = sorted({netlist.exports[m] for m in members if m in netlist.exports})
        if len(renames) > 1:
            raise ValueError(f"export name collision on merged unit: {renames}")
        class_names[root] = renames[0] if renames else min(members)
    seen: dict[str, str] = {}
    for root in order:
        name = class_names[root]
        if name in seen:
            raise ValueError(f"export name collision: {name!r} used twice")
        seen[name] = root

    row_of = {}
    for _, rbm in prefixed:
        for i, t in enumerate(rbm.visible_names):
            row_of[t] = (rbm, i)

    nh_total = sum(rbm.n_hidden for _, rbm in prefixed)
    nv = len(order)
    w = np.zeros((nv, nh_total))
    bias = np.zeros(nv)
    terminal_map: dict[str, int] = {}
    col_offsets = {}
    off = 0
    for cid, rbm in prefixed:
        col_offsets[cid] = off
        off += rbm.n_hidden

    for vi, root in enumerate(order):
        for member in classes[root]:
            rbm, row = row_of[member]
            cid = member.split(".", 1)[0]
            c0 = col_offsets[cid]
            w[vi, c0 : c0 + rbm.n_hidden] += rbm.weights[row]
            bias[vi] += rbm.visible_bias[row]
            terminal_map[member] = vi

    hidden_bias = np.concatenate(
        [rbm.hidden_bias for _, rbm in prefixed]
        or [np.zeros(0)]
    )
    names = tuple(class_names[root] for root in order)
    merged = Rbm(w, bias, hidden_bias, names)

    constants = {}
    for term, bit in inherited_constants.items():
        constants[names[terminal_map[term]]] = bit
    return MergedModel(merged, terminal_map, constants)
