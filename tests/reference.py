"""Brute-force oracles the test suite checks the library against.

Everything here recomputes model quantities with plain Python loops and
explicit summations so the tests do not reuse the vectorized code paths
they are meant to verify.
"""

import math

import numpy as np
from scipy.special import expit

from rbmlogic.model import Rbm


def bits_le(k: int, n: int) -> tuple[int, ...]:
    """Little-endian bit tuple of a nonnegative integer."""
    return tuple((k >> i) & 1 for i in range(n))


def ref_energy(weights, visible_bias, hidden_bias, v, h) -> float:
    """-v^T W h - a^T h - b^T v by explicit double loop."""
    nv, nh = len(visible_bias), len(hidden_bias)
    total = 0.0
    for i in range(nv):
        for j in range(nh):
            total -= float(v[i]) * float(weights[i][j]) * float(h[j])
    for j in range(nh):
        total -= float(hidden_bias[j]) * float(h[j])
    for i in range(nv):
        total -= float(visible_bias[i]) * float(v[i])
    return total


def ref_free_energy(weights, visible_bias, hidden_bias, v) -> float:
    """-log sum_h exp(-E(v, h)) by hidden enumeration with a max shift."""
    nh = len(hidden_bias)
    energies = [
        ref_energy(weights, visible_bias, hidden_bias, v, bits_le(hk, nh))
        for hk in range(2**nh)
    ]
    m = min(energies)
    return m - math.log(math.fsum(math.exp(m - e) for e in energies))


def ref_visible_marginal(weights, visible_bias, hidden_bias,
                         clamp: dict[int, int] | None = None) -> dict[tuple[int, ...], float]:
    """p(v) over visible states consistent with a clamp, by joint enumeration."""
    clamp = clamp or {}
    nv = len(visible_bias)
    states = [
        bits_le(vk, nv)
        for vk in range(2**nv)
        if all(bits_le(vk, nv)[i] == b for i, b in clamp.items())
    ]
    unnorm = {
        v: math.exp(-ref_free_energy(weights, visible_bias, hidden_bias, v))
        for v in states
    }
    z = math.fsum(unnorm.values())
    return {v: w / z for v, w in unnorm.items()}


def ref_delta(weights, visible_bias, hidden_bias) -> float:
    """max E - min E over every joint state, by enumeration."""
    nv, nh = len(visible_bias), len(hidden_bias)
    energies = [
        ref_energy(weights, visible_bias, hidden_bias, bits_le(vk, nv), bits_le(hk, nh))
        for vk in range(2**nv)
        for hk in range(2**nh)
    ]
    return max(energies) - min(energies)


def random_rbm(rng: np.random.Generator, n_visible: int, n_hidden: int,
               prefix: str = "v", scale: float = 1.5) -> Rbm:
    """Random finite model used as test input (not an oracle)."""
    return Rbm(
        rng.normal(scale=scale, size=(n_visible, n_hidden)),
        rng.normal(scale=1.0, size=n_visible),
        rng.normal(scale=1.0, size=n_hidden),
        tuple(f"{prefix}{i}" for i in range(n_visible)),
    )


def ref_block_gibbs(rbm: Rbm, clamp: dict[int, int], seeds, n_sweeps: int,
                    burn_in: int = 0, thin: int = 1, record=None):
    """Block Gibbs one chain and one sweep at a time, by the stream contract.

    The chain on seed s draws n_visible uniforms for its start (unit i is
    on when its uniform is below 0.5, then the clamps apply), then per
    sweep ``random(n_hidden)`` for h and ``random(n_visible)`` for v;
    clamped units draw too and keep their value.  Sweep t (from 0) is
    recorded when t >= burn_in and (t - burn_in) % thin == 0.  Returns
    each chain's recorded visible rows and a plain dict counting the
    ``record`` columns (default: every visible unit) over all chains.
    """
    w, a, b = rbm.weights, rbm.visible_bias, rbm.hidden_bias
    record = range(rbm.n_visible) if record is None else record
    traces, hist = [], {}
    for seed in seeds:
        gen = np.random.default_rng(seed)
        v = [float(x < 0.5) for x in gen.random(rbm.n_visible)]
        for i, bit in clamp.items():
            v[i] = float(bit)
        rows = []
        for t in range(n_sweeps):
            p_h = expit(np.array(v) @ w + b)
            h = [float(x < p) for x, p in zip(gen.random(rbm.n_hidden), p_h)]
            p_v = expit(np.array(h) @ w.T + a)
            u = gen.random(rbm.n_visible)
            v = [v[i] if i in clamp else float(u[i] < p_v[i]) for i in range(rbm.n_visible)]
            if t >= burn_in and (t - burn_in) % thin == 0:
                rows.append(tuple(int(x) for x in v))
                key = tuple(int(v[i]) for i in record)
                hist[key] = hist.get(key, 0) + 1
        traces.append(rows)
    return traces, hist
