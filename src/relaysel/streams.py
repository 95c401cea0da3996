"""Counter-addressed uniforms, the package's one way to draw a relay, in
the manner of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
(SC 2011): every uniform is a pure function of (master seed, episode,
stream, index), a SplitMix64 mix in 64-bit integers.  A relay is placed at
(relay, ``PLACE_U``) and (relay, ``PLACE_V``) and its splitting-tree coins
drawn at (relay, ``COIN`` + depth), a relay being in exactly one group per
depth.  An episode's draws thus do not depend on which episodes run beside
it, in what order or in what block: the simulator's batches and replay, the
distance samples and the topologies all deploy episode i's relays alike.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DomainError

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a Weyl sequence with step
# 2^64 / golden ratio, each state passed through this output mix.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_U_GAMMA, _U_MIX1, _U_MIX2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_UNIT = 2.0**-53

# an episode's streams; the tree's coins at depth d are stream COIN + d
# (stream 2 held the relays' awake flags, and stays unused)
PLACE_U, PLACE_V, COIN = 0, 1, 3


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    # uint64 arrays wrap modulo 2^64, as _mix masks
    z = (z ^ (z >> 30)) * _U_MIX1
    z = (z ^ (z >> 27)) * _U_MIX2
    return z ^ (z >> 31)


def as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def master_seed(seed):
    """``seed`` itself, or a 64-bit seed drawn from a Generator (from fresh
    entropy for None)."""
    if seed is None or isinstance(seed, np.random.Generator):
        return int(as_generator(seed).integers(0, _MASK, dtype=np.uint64, endpoint=True))
    return seed


def seed_key(seed) -> int:
    """64-bit key of a master seed, a non-negative int of any size folded a
    word at a time."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise DomainError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    key = 0
    while True:
        key = _mix(((key ^ (seed & _MASK)) + _GAMMA) & _MASK)
        seed >>= 64
        if not seed:
            return key


def episode_seeds(seed, replications: int, start: int = 0) -> np.ndarray:
    """Keys of episodes ``start .. start + replications - 1`` under the master
    seed: the seed key's SplitMix64 sequence, one output per episode."""
    key = np.uint64(seed_key(master_seed(seed)))
    episodes = np.arange(start, start + replications, dtype=np.uint64)
    return _mix_array(key + (episodes + np.uint64(1)) * _U_GAMMA)


# stream_key and uniform draw one at a time, for the scalar replay, what
# stream_keys and draw draw for a block; modulo 2^64 the two agree bit for bit.
def stream_key(key: int, stream: int) -> int:
    return _mix((key + (stream + 1) * _GAMMA) & _MASK)


def uniform(key: int, index: int) -> float:
    return (_mix((key + (index + 1) * _GAMMA) & _MASK) >> 11) * _UNIT


def stream_keys(keys: np.ndarray, stream: int) -> np.ndarray:
    return _mix_array(keys + np.uint64(((stream + 1) * _GAMMA) & _MASK))


def weyl_steps(n: int) -> np.ndarray:
    """The Weyl steps (index + 1) * gamma of indices 0 .. n - 1."""
    return (np.arange(n, dtype=np.uint64) + np.uint64(1)) * _U_GAMMA


def draw(keys: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) at the stream ``keys``' Weyl ``steps``, broadcast:
    the top 53 bits of each mixed word."""
    z = _mix_array(keys + steps)
    return (z >> np.uint64(11)).astype(np.float64) * _UNIT


def relay_uniforms(keys: np.ndarray, n: int) -> np.ndarray:
    """(n, episodes) uniforms at relays 0 .. n - 1 of the episodes' stream
    ``keys``: relay-major, so each relay's row adds its one Weyl step to them."""
    return draw(keys, weyl_steps(n)[:, None])
