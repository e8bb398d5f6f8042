"""Core RBM data model and elementary energy/probability computations.

An RBM here is a bipartite Markov random field over binary visible and
hidden units with energy

    E(v, h) = -v^T W h - a^T h - b^T v

where ``W`` is the visible-by-hidden weight matrix, ``b`` the visible bias
and ``a`` the hidden bias.  Visible units carry unique string names
("terminals") so that models can be wired together by unit identity rather
than by position.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np


def _integer(value) -> bool:
    """An Integral (numpy integers too) that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_integer(name: str, value, low: int) -> None:
    """The one integer rule: raise a ValueError naming ``name`` unless
    ``value`` is an integer (``_integer``) at or above ``low``."""
    if not _integer(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _as_bits(x, length: int, what: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.shape != (length,):
        raise ValueError(f"{what} has shape {arr.shape}, expected ({length},)")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{what} entries must be 0 or 1")
    return arr.astype(np.float64)


@dataclass(frozen=True)
class Rbm:
    """Immutable RBM parameters plus named visible terminals.

    ``weights`` has shape (n_visible, n_hidden); row i holds visible unit
    i's connections.  ``n_hidden == 0`` is legal and gives a pure bias
    model.  All parameters must be finite; terminal names must be unique.
    """

    weights: np.ndarray
    visible_bias: np.ndarray
    hidden_bias: np.ndarray
    visible_names: tuple[str, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.visible_bias, dtype=np.float64)
        a = np.asarray(self.hidden_bias, dtype=np.float64)
        names = tuple(str(n) for n in self.visible_names)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        nv, nh = w.shape
        if nv < 1:
            raise ValueError("need at least one visible unit")
        if b.shape != (nv,):
            raise ValueError(f"visible_bias shape {b.shape} != ({nv},)")
        if a.shape != (nh,):
            raise ValueError(f"hidden_bias shape {a.shape} != ({nh},)")
        if len(names) != nv:
            raise ValueError(f"{len(names)} terminal names for {nv} visible units")
        if len(set(names)) != nv:
            raise ValueError("visible terminal names must be unique")
        for arr, what in ((w, "weights"), (b, "visible_bias"), (a, "hidden_bias")):
            if arr.size and not np.isfinite(arr).all():
                raise ValueError(f"{what} contains non-finite entries")
        w.setflags(write=False)
        b.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "visible_bias", b)
        object.__setattr__(self, "hidden_bias", a)
        object.__setattr__(self, "visible_names", names)

    @property
    def n_visible(self) -> int:
        return self.weights.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.weights.shape[1]

    def terminal_index(self, name: str) -> int:
        try:
            return self.visible_names.index(name)
        except ValueError:
            raise KeyError(f"unknown terminal {name!r}") from None

    def renamed(self, mapping: dict[str, str]) -> "Rbm":
        """Return a copy with terminals renamed via ``mapping`` (partial ok)."""
        names = tuple(mapping.get(n, n) for n in self.visible_names)
        return Rbm(self.weights, self.visible_bias, self.hidden_bias, names)

    def to_json_dict(self) -> dict:
        return {
            "visible": [
                {"name": n, "bias": float(b)}
                for n, b in zip(self.visible_names, self.visible_bias)
            ],
            "hidden_bias": [float(x) for x in self.hidden_bias],
            "weights": [[float(x) for x in row] for row in self.weights],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Rbm":
        """The model of a parsed model file; an entry of the wrong shape
        raises a ValueError that names its field."""
        visible, rows = d["visible"], d["weights"]
        for field, shape, ok in (
            ("visible", "a list of objects with a string name and a numeric bias",
             isinstance(visible, list) and all(isinstance(u, dict) and isinstance(
                 u.get("name"), str) and _numbers([u.get("bias")]) for u in visible)),
            ("hidden_bias", "a list of numbers", _numbers(d["hidden_bias"])),
            ("weights", "a list of equal-length rows of numbers", isinstance(rows, list)
             and all(map(_numbers, rows)) and len(set(map(len, rows))) < 2),
        ):
            if not ok:
                raise ValueError(f"model {field} must be {shape}")
        names = tuple(u["name"] for u in visible)
        b = np.array([u["bias"] for u in visible], dtype=np.float64)
        a = np.array(d["hidden_bias"], dtype=np.float64)
        w = np.array(rows, dtype=np.float64)
        if w.size == 0:
            w = w.reshape(len(names), len(a))
        return cls(w, b, a, names)

    def save(self, path) -> None:
        Path(path).write_text(dumps_model(self))

    @classmethod
    def load(cls, path) -> "Rbm":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def _numbers(values) -> bool:
    """Whether a parsed JSON value is a list of numbers; bools are not
    numbers here, and an integer must fit a float."""
    if not isinstance(values, list):
        return False
    types = set(map(type, values))
    return types <= {int, float} and (int not in types or max(map(abs, values)) < 2**1023)


def _float_list(values: np.ndarray, depth: int) -> str:
    """``json.dumps(values.tolist(), indent=1)`` for a list nested ``depth``
    levels deep: one ``float.__repr__`` per line."""
    if not len(values):
        return "[]"
    sep = "\n" + " " * depth
    return "[" + sep + ("," + sep).join(map(float.__repr__, values.tolist())) + \
        "\n" + " " * (depth - 1) + "]"


def dumps_model(rbm: Rbm) -> str:
    """Serialize to the canonical JSON layout; round-trips doubles exactly.

    The text is ``json.dumps(rbm.to_json_dict(), indent=1, allow_nan=False)``
    (parameters are always finite).  With ``indent`` json encodes in pure
    Python, so only the short visible list goes through it; the weights and
    hidden bias are joined here in the same layout.
    """
    visible = json.dumps([{"name": n, "bias": float(b)}
                          for n, b in zip(rbm.visible_names, rbm.visible_bias)], indent=1)
    rows = ",\n  ".join(_float_list(row, 3) for row in rbm.weights)
    return ('{\n "visible": ' + visible.replace("\n", "\n ")
            + ',\n "hidden_bias": ' + _float_list(rbm.hidden_bias, 2)
            + ',\n "weights": [\n  ' + rows + "\n ]\n}")


def loads_model(text: str) -> Rbm:
    return Rbm.from_json_dict(json.loads(text))


@dataclass
class BinaryState:
    """A joint (visible, hidden) bit assignment for one RBM."""

    visible: np.ndarray
    hidden: np.ndarray


def energy(rbm: Rbm, state: BinaryState) -> float:
    """E(v, h) = -v^T W h - a^T h - b^T v."""
    v = _as_bits(state.visible, rbm.n_visible, "visible state")
    h = _as_bits(state.hidden, rbm.n_hidden, "hidden state")
    return float(-(v @ rbm.weights @ h) - rbm.hidden_bias @ h - rbm.visible_bias @ v)


def free_energy(rbm: Rbm, v) -> float:
    """F(v) = -b^T v - sum_j log(1 + exp(a_j + (W^T v)_j)).

    exp(-F(v)) equals the sum over all hidden states of exp(-E(v, h)); the
    softplus accumulation stays finite for arbitrarily large weights.
    """
    v = _as_bits(v, rbm.n_visible, "visible state")
    act = rbm.hidden_bias + rbm.weights.T @ v
    return float(-(rbm.visible_bias @ v) - np.logaddexp(0.0, act).sum())


def free_energy_batch(rbm: Rbm, V: np.ndarray, act: np.ndarray | None = None) -> np.ndarray:
    """Vectorized ``free_energy`` over rows of V (shape (N, n_visible)); pass
    their hidden activations ``act`` (``V @ W + a``) if already computed."""
    V = np.asarray(V, dtype=np.float64)
    if act is None:
        act = V @ rbm.weights + rbm.hidden_bias
    return -(V @ rbm.visible_bias) - np.logaddexp(0.0, act).sum(axis=1)

