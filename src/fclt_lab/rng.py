"""Stream-keyed, counter-based random number generation.

Every stochastic routine in this package draws from a Philox generator keyed
by ``(master_seed, *stream)``. Replication ``r`` of an experiment uses the
stream ``(master_seed, r)``, so serial and parallel runs see exactly the same
draws and any single replication can be reproduced in isolation.

A key's Philox key is the one numpy derives from
``SeedSequence(key[0], spawn_key=key[1:])``, computed here: its pool of four
32-bit words, its hash and mix constants, its multi-word integers and its
zero padding of the run entropy when a spawn key is present. A chunk of
streams ``(seed, i)`` gets all its keys in one vectorized pass, and one
Generator is re-keyed for each stream in turn (counter 0, empty buffer), so a
chunk builds one generator whatever its size and draws what fresh ones would.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ParameterError

__all__ = ["stream_generator", "seed_key"]

_MASK = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the pool's hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the read-out hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_ZEROS = (0, 0, 0, 0)


def _entry(value) -> int:
    """One entry of a seed sequence or stream: a non-negative integer, or a
    float with such a value."""
    if not isinstance(value, bool):
        try:
            entry = operator.index(value)
        except TypeError:
            entry = int(value) if isinstance(value, (float, np.floating)) and float(value).is_integer() else -1
        if entry >= 0:
            return entry
    raise ParameterError(f"seed and stream entries must be non-negative integers, got {value!r}")


def seed_key(seed, *stream) -> tuple[int, ...]:
    """The key tuple of ``(seed, *stream)``; ``seed`` is an integer or a sequence of them.

    An entry that is negative, a bool or a number with a fractional part raises
    ParameterError naming it, so distinct seeds never share a stream.
    """
    try:
        entries = [*seed]
    except TypeError:
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ParameterError(f"seed must be an integer or a tuple of integers, got {seed!r}") from None
        entries = [seed]
    key = tuple(_entry(s) for s in entries + list(stream))
    if not key:
        raise ParameterError("seed key must not be empty")
    return key


def _words(n: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of ``n`` (one word for 0)."""
    words = [n & _MASK]
    while n := n >> 32:
        words.append(n & _MASK)
    return words


def _hash(entropy: list):
    """SeedSequence's pool mixed from the entropy words and read out as
    Philox's two 64-bit key words. A word is an int or a uint64 array of
    words below 2**32; each product then fits in 64 bits before its mask."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const  # not in place: a word may be an array the caller holds
        const = const * _MULT_A & _MASK
        value = value * const & _MASK
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = _INIT_B, []
    for value in pool:
        value = value ^ const
        const = const * _MULT_B & _MASK
        value = value * const & _MASK
        out.append(value ^ value >> 16)
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _philox_keys(head: tuple[int, ...], tail: list[int]) -> np.ndarray:
    """The (len(tail), 2) Philox keys of the streams ``head + (t,)``."""
    fixed = []
    if head:  # a spawn key follows: the run entropy is padded to the pool size
        run = _words(head[0])
        fixed = run + [0] * (_POOL - len(run)) + [w for k in head[1:] for w in _words(k)]
    keys = np.empty((len(tail), 2), dtype=np.uint64)
    if not tail:
        return keys
    top = max(tail)
    t = np.array(tail, dtype=np.uint64 if top < 2**64 else object)
    counts = sum((t >= 2 ** (32 * j) for j in range(1, len(_words(top)))), np.ones(len(tail), dtype=int))
    for count in np.unique(counts).tolist():  # entries of equal word count hash together
        rows = counts == count
        words = [(t[rows] >> 32 * j & _MASK).astype(np.uint64) for j in range(count)]
        keys[rows] = np.stack(_hash(fixed + words), axis=-1)
    return keys


def _rekeyed(keys: np.ndarray):
    """One Generator, re-keyed to each Philox key in turn."""
    bits = np.random.Philox(0)  # re-keyed before each yield
    generator = np.random.Generator(bits)
    for key in keys.tolist():
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": key},
            "buffer": _ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield generator


def stream_generator(seed, *stream, each=None):
    """Return the Generator for the Philox stream keyed by ``(seed, *stream)``.

    ``seed`` may itself be a tuple, in which case the stream indices are
    appended to it; the full key identifies the stream uniquely.

    With ``each``, an iterable of stream indices, the call computes the keys
    of the streams ``(seed, *stream, i)`` for every i in one pass and returns
    an iterator that yields one Generator re-keyed to each stream in turn: a
    caller draws all it needs from a stream before it takes the next.
    """
    key = seed_key(seed, *stream)
    if each is None:
        return next(_rekeyed(_philox_keys(key[:-1], [key[-1]])))
    return _rekeyed(_philox_keys(key, [_entry(i) for i in each]))
