"""The machine's current speed, from a fixed reference computation.

This host's CPU speed drifts by a quarter and more over seconds to minutes,
because other guests share its cores. Wall times of the same code then spread
past any useful bound from one run to the next. So every CPU-bound timing is
bracketed by two runs of a fixed reference computation, and the benchmark
reports it scaled to reference speed:

    scaled = REFERENCE_NOMINAL_S * sum(wall) / sum(reference)

The reference is plain Python that uses nothing from featgeo (regex, dict
counting, JSON, sorting, on text made once from a fixed seed), so a change to
the program moves the scaled time and a slow phase of the machine does not.
On an idle machine, where the reference takes ``REFERENCE_NOMINAL_S``, scaled
and wall times are the same.
"""

from __future__ import annotations

import json
import random
import re
import time
from typing import Any, Callable

# The reference's typical time on the 2-core machine the README's figures
# come from, so that scaled times read as seconds there.
REFERENCE_NOMINAL_S = 0.04

_rng = random.Random(20240419)
_WORDS = ["".join(_rng.choice("abcdefghijklmnop") for _ in range(_rng.randint(2, 9))) for _ in range(2000)]
_TEXT = " ".join(_rng.choice(_WORDS) for _ in range(40000))


def reference_s() -> float:
    """Time one run of the reference computation."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for word in re.findall(r"\w+", _TEXT):
        counts[word] = counts.get(word, 0) + 1
    encoded = json.dumps([{"w": w, "n": n, "at": _TEXT[n:n + 40]} for w, n in counts.items()])
    json.loads(encoded)
    sorted(_TEXT.split())
    return time.perf_counter() - start


def bracketed(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    """Run fn; return its result, its wall time and the reference time around it.

    The reference time is the mean of one reference run just before fn and
    one just after, so it reflects the machine's speed while fn ran.
    """
    before = reference_s()
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - start
        after = reference_s()
    return result, wall, (before + after) / 2


def scaled(walls, references) -> float:
    """Total wall time at reference speed, in seconds."""
    return REFERENCE_NOMINAL_S * sum(walls) / sum(references)


def cpu_scaled(wall: float, cpu: float, reference: float) -> float:
    """Wall time with only its CPU part at reference speed, for runs that mostly wait.

    The waiting part (wall - cpu) stays as measured: sleep does not speed up or
    slow down with the CPU.
    """
    return wall - cpu + REFERENCE_NOMINAL_S * cpu / reference
