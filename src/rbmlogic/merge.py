"""Combining RBMs by identifying visible units.

Two RBMs are merged by block-concatenating their weight matrices and
summing the rows and visible biases of identified units; hidden layers are
concatenated and never merged.  The merged model's energy is exactly the
sum of the component energies on the corresponding sub-states, so its
distribution is the renormalized product of the component distributions
restricted to agreeing shared units.

``_combine`` is the one place rows are summed: ``merge_pair`` and
``compose`` only choose each unit's row.  ``merge_pair`` is the paper's
merge of two models at paired terminals; ``compose`` takes a netlist of
many components with multi-way shared terminals (a wire feeding several
gates, or two terminals of one component) via union-find, and with no
connections it is the disjoint union of its components.

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


def _combine(rbms: Sequence[Rbm], rows: Sequence[int], names: Sequence[str]) -> Rbm:
    """The RBMs' hidden layers side by side, visible unit ``k`` of the
    stacked inputs added into output row ``rows[k]``, named ``names``.

    Units are added in input order, so a row's sum has the same order
    whichever caller builds it.  Rows start at +0.0, so -0.0 comes out +0.0.
    """
    w = np.zeros((len(names), sum(rbm.n_hidden for rbm in rbms)))
    bias = np.zeros(len(names))
    rows, c0 = iter(rows), 0
    for rbm in rbms:
        # rows last: zip stops at the model's last unit without taking a row
        for weights, b, r in zip(rbm.weights, rbm.visible_bias, rows):
            w[r, c0:c0 + rbm.n_hidden] += weights
            bias[r] += b
        c0 += rbm.n_hidden
    hidden_bias = np.concatenate([rbm.hidden_bias for rbm in rbms] or [np.zeros(0)])
    return Rbm(w, bias, hidden_bias, names)


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

    names = a.visible_names + tuple(surviving_b)
    into = dict(zip(bi, ai))
    fresh = iter(range(a.n_visible, len(names)))
    rows = [*range(a.n_visible),
            *(into[k] if k in into else next(fresh) for k in range(b.n_visible))]
    return _combine((a, b), rows, names)


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


def resolve_clamp(model, clamp: Mapping[str, int] | None = None) -> dict[str, int]:
    """The model's constants plus ``clamp``, validated as one assignment.

    Every name must be a terminal of the model and every value 0 or 1,
    for constants as for the clamp; a clamp may not contradict a constant.
    """
    rbm, constants = model_parts(model)
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


def compose(netlist: Netlist) -> MergedModel:
    """Build the merged model described by a netlist.

    The units are the union-find classes of the connection graph, in
    order of first appearance, so the result is independent of connection
    order.  Within one class the lexicographically-first member name
    survives unless an export rename applies.  Component parameters are
    copied, never aliased.
    """
    ids = [cid for cid, _ in netlist.components]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate component ids")

    rbms: list[Rbm] = []
    all_terms: list[str] = []
    inherited_constants: dict[str, int] = {}
    for cid, comp in netlist.components:
        rbm, constants = model_parts(comp)
        rbms.append(rbm)
        all_terms.extend(f"{cid}.{n}" for n in rbm.visible_names)
        inherited_constants |= {f"{cid}.{t}": bit for t, bit in constants.items()}

    parent = {t: t for t in all_terms}  # union-find forest over terminals

    def find(t: str) -> str:
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        return t

    for t1, t2 in netlist.connections:
        for t in (t1, t2):
            if t not in parent:
                raise KeyError(f"dangling connection endpoint {t!r}")
        parent[find(t2)] = find(t1)

    for t in netlist.exports:
        if t not in parent:
            raise KeyError(f"export of unknown terminal {t!r}")

    # Group terminals into classes, ordered by first appearance.
    classes: dict[str, list[str]] = {}
    for t in all_terms:
        classes.setdefault(find(t), []).append(t)

    # Name each class: an export rename, else its lexicographically-first member.
    names: dict[str, int] = {}  # unit name -> row
    terminal_map: dict[str, int] = {}
    for members in classes.values():
        renames = sorted({netlist.exports[m] for m in members if m in netlist.exports})
        if len(renames) > 1:
            raise ValueError(f"export name collision on merged unit: {renames}")
        name = renames[0] if renames else min(members)
        if name in names:
            raise ValueError(f"export name collision: {name!r} used twice")
        terminal_map |= dict.fromkeys(members, len(names))
        names[name] = len(names)

    merged = _combine(rbms, [terminal_map[t] for t in all_terms], tuple(names))
    constants = {merged.visible_names[terminal_map[term]]: bit
                 for term, bit in inherited_constants.items()}
    return MergedModel(merged, terminal_map, constants)
