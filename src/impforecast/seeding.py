"""Deterministic per-task seed derivation, and the stream a study draws from.

Every stochastic task in the pipeline (one fit of one candidate on one
channel) gets its own seed mixed from the master seed, so a fit's
randomness does not depend on which other fits run before it or with it.

A study draws from a ``PCG64Stream`` in three places: the holdout split's
permutation, a network's starting weights and a forest's bootstrap
samples. The stream is numpy's PCG64 as ``np.random.default_rng(seed)``
draws it, bit for bit and word for word, for those three calls. So a study
never loads ``numpy.random`` (nor the ``secrets`` and ``hashlib`` modules
it pulls in), and its draws do not rest on ``Generator`` methods, which
numpy does not keep stable across versions (NEP 19). ``generate`` keeps
``default_rng``: its normals need numpy's sampler.
"""

import operator

import numpy as np

_MASK = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit LCG multiplier
# numpy.random.SeedSequence's hash constants; it mixes into a pool of 4 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(master: int, *tokens: int) -> int:
    """Fold integer tokens into ``master`` with splitmix64 chaining."""
    h = master & _MASK
    for t in tokens:
        h = _splitmix64(h ^ (int(t) & _MASK))
    return h


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """``_splitmix64`` of every element of a uint64 array."""
    x = x + np.uint64(0x9E3779B97F4A7C15)  # uint64 arithmetic wraps mod 2**64
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints:
    the seed's 32-bit words, least significant first, hashed into a pool of
    4 words, and the pool hashed out into 8 half-words, low half first."""
    entropy = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:  # a seed wider than the pool
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, halves = _INIT_B, []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = (const * _MULT_B) & _MASK32
        value = (value * const) & _MASK32
        halves.append(value ^ (value >> 16))
    return [halves[2 * k] | (halves[2 * k + 1] << 32) for k in range(_POOL)]


class PCG64Stream:
    """numpy's PCG64 stream (128-bit LCG, XSL-RR output) seeded as
    ``np.random.default_rng(seed)`` seeds it, with the three draws a study
    makes. Each returns what that generator's method of the same name
    returns and consumes the same words, so after every call ``state``
    equals the generator's ``bit_generator.state``.

    32-bit draws take the low half of a 64-bit word first and keep its high
    half for the next 32-bit draw, as numpy's ``next_uint32`` does.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        w0, w1, w2, w3 = _seed_words(seed)
        # pcg_setseq_128_srandom_r: step from 0, add the initial state, step
        self._inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
        self._state = (self._inc + ((w0 << 64) | w1)) & _MASK128
        self._next64(1)
        self._has_uint32, self._uinteger = False, 0

    @property
    def state(self) -> dict:
        """The stream's state, laid out as numpy's ``PCG64.state``."""
        return {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": int(self._has_uint32),
            "uinteger": self._uinteger,
        }

    def _next64(self, count: int) -> np.ndarray:
        """The next ``count`` 64-bit words, as uint64: step the LCG, then
        rotate the xor of the state's halves right by its top 6 bits. The
        LCG runs on Python ints, one step per word; the output is computed
        in numpy from the states' halves."""
        state, inc, states = self._state, self._inc, bytearray()
        for _ in range(count):
            state = (state * _PCG_MULT + inc) & _MASK128
            states += state.to_bytes(16, "little")
        self._state = state
        low, high = np.frombuffer(states, dtype="<u8").reshape(-1, 2).T
        x = high ^ low
        rot = high >> np.uint64(58)
        return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))

    def _next32(self, count: int) -> np.ndarray:
        """The next ``count`` 32-bit draws, as uint64: a kept high half
        first, then each new word's low half and high half. A last high
        half not drawn is kept. ``count`` is at least 1."""
        head = [self._uinteger] if self._has_uint32 else []
        words = self._next64((count - len(head) + 1) // 2)
        halves = np.empty(2 * words.size, np.uint64)
        halves[0::2] = words & np.uint64(_MASK32)
        halves[1::2] = words >> np.uint64(32)
        if words.size:  # numpy keeps the last word's high half, drawn or not
            self._uinteger = int(halves[-1])
        self._has_uint32 = (count - len(head)) % 2 == 1
        if self._has_uint32:
            halves = halves[:-1]
        return np.concatenate([np.array(head, np.uint64), halves])

    def permutation(self, n: int) -> np.ndarray:
        """``arange(n)`` shuffled from the last index down: index i swaps
        with a 32-bit draw masked to the bits of i, redrawn while above i."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = int(self._next32(1)[0]) & mask
            while j > i:
                j = int(self._next32(1)[0]) & mask
            out[i], out[j] = out[j], out[i]
        return np.array(out, dtype=np.int64)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """``low + (high - low) * u``, u the top 53 bits of a 64-bit word
        times 2**-53."""
        u = (self._next64(int(np.prod(size))) >> np.uint64(11)) * (1.0 / 9007199254740992.0)
        return (low + (high - low) * u).reshape(size)

    def integers(self, low: int, high: int, size) -> np.ndarray:
        """Integers in [low, high) for ``high - low`` below 2**32, by
        Lemire's method on 32-bit draws: m = draw * (high - low), rejected
        while m mod 2**32 < 2**32 mod (high - low), else low + m >> 32. One
        value draws nothing."""
        span = high - low
        if not 1 <= span < 1 << 32:
            raise ValueError(f"high - low must be in [1, 2**32), got {span!r}")
        if span == 1:
            return np.full(size, low, np.int64)
        values, short = [np.zeros(0, np.uint64)], int(np.prod(size))
        threshold = np.uint64((1 << 32) % span)
        while short:
            m = self._next32(short) * np.uint64(span)
            kept = m[(m & np.uint64(_MASK32)) >= threshold] >> np.uint64(32)
            values.append(kept)
            short -= kept.size
        return (low + np.concatenate(values).astype(np.int64)).reshape(size)
