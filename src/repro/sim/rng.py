"""Deterministic random-number streams.

Every stochastic component draws from a named substream so that results
are reproducible regardless of the order in which components are created
or executed.  Substreams are derived from a root seed plus a stable hash
of the stream name.

:class:`Rng` is a pure-Python port of ``numpy.random.default_rng(seed)``
that draws bit for bit what numpy draws, without loading numpy (~14 MB
of resident memory and ~0.1 s of import time per process).  It
reproduces these algorithms of numpy's ``Generator`` on ``PCG64``:

* ``SeedSequence`` entropy mixing (``hashmix``/``mix`` into a 4-word
  pool) and ``generate_state(4, uint64)``;
* the ``PCG64`` bit generator (XSL-RR 128/64), its seeding, and its
  ``next_uint32`` that hands out the high half of a 64-bit draw on the
  following call;
* ``Generator.random()`` (53-bit double), scalar ``Generator.integers``
  (Lemire's bounded draw: 32-bit for ranges up to 2**32, 64-bit above),
  ``Generator.permutation(n)`` (Fisher-Yates over masked rejection) and
  ``Generator.choice(n, size, replace=False)`` (Floyd's algorithm plus a
  shuffle, or a tail shuffle when ``n > 10000`` and ``size > n // 50``).

Only what callers use is ported.  ``tests/sim/test_rng.py`` pins every
method against numpy's generator, and against hard-coded draws where
numpy is not installed.
"""

from __future__ import annotations

import zlib
from typing import Sequence, Union

__all__ = ["RandomStreams", "Rng"]

Seed = Union[int, Sequence[int]]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 1.0 / 9007199254740992.0

# SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _entropy_words(seed: Seed) -> list[int]:
    """The seed as 32-bit words, low word first; lists concatenate."""
    if isinstance(seed, int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        words = [seed & _MASK32]
        seed >>= 32
        while seed:
            words.append(seed & _MASK32)
            seed >>= 32
        return words
    if isinstance(seed, (list, tuple)):
        return [word for part in seed for word in _entropy_words(part)]
    raise TypeError(f"seed must be an int or a list of ints, got {seed!r}")


def seed_words(seed: Seed) -> tuple[int, int, int, int]:
    """``SeedSequence(seed).generate_state(4, numpy.uint64)`` as ints."""
    entropy = _entropy_words(seed)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for i in range(8):  # 4 uint64 values as 8 uint32 words
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return tuple(words[2 * k] | (words[2 * k + 1] << 32) for k in range(4))


class Rng:
    """``numpy.random.default_rng(seed)``, draw for draw, in pure Python.

    ``seed`` is a non-negative int or a list of them; there is no
    OS-entropy default.
    """

    __slots__ = ("_state", "_inc", "_has32", "_u32")

    def __init__(self, seed: Seed):
        if seed is None:
            raise TypeError("Rng needs an explicit seed")
        u0, u1, u2, u3 = seed_words(seed)
        inc = ((((u2 << 64) | u3) << 1) | 1) & _MASK128
        # From state 0: step (giving ``inc``), add initstate, step again.
        state = (inc + ((u0 << 64) | u1)) & _MASK128
        self._state = (state * _PCG_MULT + inc) & _MASK128
        self._inc = inc
        self._has32 = False
        self._u32 = 0

    def _next64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        x = (state >> 64) ^ (state & _MASK64)
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        if self._has32:
            self._has32 = False
            return self._u32
        out = self._next64()
        self._has32 = True
        self._u32 = out >> 32
        return out & _MASK32

    def _bounded(self, rng: int) -> int:
        """Uniform on ``[0, rng]`` (numpy's ``random_bounded_uint64``, Lemire)."""
        if rng == 0:
            return 0
        if rng < _MASK32:
            excl = rng + 1
            m = self._next32() * excl
            if (m & _MASK32) < excl:
                threshold = (_MASK32 - rng) % excl
                while (m & _MASK32) < threshold:
                    m = self._next32() * excl
            return m >> 32
        if rng == _MASK32:
            return self._next32()
        if rng == _MASK64:
            return self._next64()
        excl = rng + 1
        m = self._next64() * excl
        if (m & _MASK64) < excl:
            threshold = (_MASK64 - rng) % excl
            while (m & _MASK64) < threshold:
                m = self._next64() * excl
        return m >> 64

    def _interval(self, top: int) -> int:
        """Uniform on ``[0, top]`` by masked rejection (``random_interval``)."""
        if top == 0:
            return 0
        mask = (1 << top.bit_length()) - 1
        draw = self._next32 if top <= _MASK32 else self._next64
        while True:
            value = draw() & mask
            if value <= top:
                return value

    def _shuffle_tail(self, items: list[int], first: int) -> None:
        """Swap ``items[i]`` with a bounded draw for i = n-1 .. first."""
        for i in range(len(items) - 1, first - 1, -1):
            j = self._bounded(i)
            items[i], items[j] = items[j], items[i]

    def random(self) -> float:
        """A float in ``[0, 1)`` with 53 random bits."""
        return (self._next64() >> 11) * _TWO_M53

    def integers(self, low: int, high: int) -> int:
        """One int uniform on ``[low, high)``."""
        if low >= high:
            raise ValueError("low >= high")
        return low + self._bounded(high - low - 1)

    def permutation(self, n: int) -> list[int]:
        """A random ordering of ``range(n)``."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            items[i], items[j] = items[j], items[i]
        return items

    def choice(self, n: int, size: int, replace: bool = True) -> list[int]:
        """``size`` distinct ints from ``range(n)``, in random order."""
        if replace:
            raise NotImplementedError("only sampling without replacement is ported")
        if not 0 <= size <= n:
            raise ValueError(f"cannot take {size} distinct samples from {n}")
        if n > 10000 and size > n // 50:
            items = list(range(n))
            self._shuffle_tail(items, max(n - size, 1))
            return items[n - size:]
        seen: set[int] = set()
        picked = []
        for top in range(n - size, n):
            value = self._bounded(top)
            if value in seen:
                value = top
            seen.add(value)
            picked.append(value)
        self._shuffle_tail(picked, 1)
        return picked


class RandomStreams:
    """Factory for named, independent :class:`Rng` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, Rng] = {}

    def stream(self, name: str) -> Rng:
        """Return the generator for ``name``, creating it deterministically."""
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            gen = Rng([self.seed, key])
            self._streams[name] = gen
        return gen
