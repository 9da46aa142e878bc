"""numpy 2.x bounded-integer draws and PCG64 seeding, computed without numpy's per-call dispatch.

numpy draws ``integers(0, n)`` for ``n <= 2**32`` by Lemire's multiply-shift
method (ACM TOMACS 29(1), 2019) on 32-bit words: a raw output's low half
first, its high half kept for the next such draw. ``Draws`` does the same
without numpy's per-call dispatch, reading one raw output at a time and never
ahead, so numpy's 64-bit draws on the same generator (``random``,
``standard_normal``), which never read the kept half, continue the stream as
they would after numpy's own draws. The half is kept here, not in the
generator: wrap a generator whose own half-buffer is empty (no numpy 32-bit
draw has touched it), and take no numpy ``integers`` from it afterwards.
"""

from __future__ import annotations

import numpy as np


class Draws:
    __slots__ = ("_raw", "_half")

    def __init__(self, rng: np.random.Generator):
        self._raw = rng.bit_generator.random_raw
        self._half: int | None = None

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        raw = self._raw()
        self._half = raw >> 32
        return raw & 0xFFFFFFFF

    def below(self, n: int) -> int:
        """``rng.integers(0, n)`` for ``1 <= n <= 2**32``; ``n == 1`` draws nothing."""
        if n == 1:
            return 0
        m = self._next32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (0x100000000 - n) % n  # 2**32 mod n: the low words that would bias the draw
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next32() * n
        return m >> 32

    def sample(self, n: int, k: int) -> list[int]:
        """``rng.choice(n, k, replace=False)`` where numpy takes Floyd's branch: ``n <= 10_000`` or ``k <= n // 50``.

        Floyd's loop (CACM 30(9), 1987) draws in [0, j] for each j from n - k
        to n - 1 and takes j when the draw is taken already; a Fisher-Yates
        shuffle of the k picks follows. numpy's other branch shuffles the tail
        of ``arange(n)``.
        """
        picks: list[int] = []
        for j in range(n - k, n):
            val = self.below(j + 1)
            picks.append(j if val in picks else val)
        for i in range(k - 1, 0, -1):
            j = self.below(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


# SeedSequence's hash constants (numpy's bit_generator.pyx, after O'Neill's seed_seq_fe) and PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, (2549297995355413924 << 64) + 4865540595714422341
_BLOCK_ROWS = 4096  # streams hashed per numpy pass


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 columns; its hash constant moves on at each call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = (value ^ const) * (const * mult & 0xFFFFFFFF)
        const = const * mult & 0xFFFFFFFF
        return value ^ value >> 16
    return hashmix


def pcg64_streams(seed: int, generations: int, pairs: int):
    """``PCG64(SeedSequence(entropy=(seed, g, u))).state`` for (0, 0), then for g = 1..generations, u < pairs.

    Set in turn on one generator, they replace building one per stream. SeedSequence's mixing runs on
    uint32 columns, a row per stream; g and u are one entropy word each, so each must be below 2**32.
    """
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    total = 1 + generations * pairs
    for start in range(0, total, _BLOCK_ROWS):  # row r > 0 is pair (r - 1) % pairs of generation (r - 1) // pairs + 1
        gen, unit = np.divmod(np.arange(start, min(start + _BLOCK_ROWS, total), dtype=np.uint64) + (pairs - 1), pairs)
        entropy = np.stack([np.full_like(gen, w) for w in words] + [gen, unit * (gen > 0)]).astype(np.uint32)
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0])) for i in range(4)]
        for src in range(max(4, len(entropy))):  # the pool mixes into itself, then takes the entropy past its 4 words
            for dst in range(4):
                if dst != src:
                    mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src] if src < 4 else entropy[src])
                    pool[dst] = mixed ^ mixed >> 16
        hashmix = _hasher(_INIT_B, _MULT_B)
        words64 = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]  # PCG64's 4 seed words, low half first
        for s_hi, s_lo, i_hi, i_lo in zip(*((words64[i] | words64[i + 1] << 32).tolist() for i in range(0, 8, 2))):
            inc = (i_hi << 65 | i_lo << 1 | 1) & (1 << 128) - 1  # pcg64_srandom_r: step from 0, add the seed, step
            state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & (1 << 128) - 1
            yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
