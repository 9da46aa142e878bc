"""numpy 2.x bounded-integer draws, computed from a generator's raw 64-bit outputs.

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
