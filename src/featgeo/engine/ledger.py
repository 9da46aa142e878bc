"""Per-stage cost accounting for engine calls.

The ledger keeps wall time, call counts, and token usage per (stage, role)
pair, and nothing else: stage aggregates and grand totals are derived from
those entries. A serialized ledger carries the derived blocks as well, and
loading one refuses any block that disagrees with its entries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Mapping

from ..errors import IntegrityError
from ..schema import expect
from .types import EngineResponse, Role, Stage

@dataclass
class CallStats:
    """Accumulated usage for one accounting bucket.

    Wall time is held as integer microseconds so that concurrent increments
    sum to the same total regardless of arrival order.
    """

    wall_time_us: int = 0
    api_calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cache_hits: int = 0

    @property
    def wall_time(self) -> float:
        return self.wall_time_us / 1e6

    def add(self, other: "CallStats") -> None:
        self.wall_time_us += other.wall_time_us
        self.api_calls += other.api_calls
        self.prompt_tokens += other.prompt_tokens
        self.completion_tokens += other.completion_tokens
        self.cache_hits += other.cache_hits

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall_time": self.wall_time,
            "api_calls": self.api_calls,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "cache_hits": self.cache_hits,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], where: str) -> "CallStats":
        """One serialized bucket; every key is required but ``cache_hits``. ``where`` labels its keys."""
        return cls(
            wall_time_us=round(expect(data["wall_time"], float, where + "wall_time") * 1e6),
            api_calls=expect(data["api_calls"], int, where + "api_calls"),
            prompt_tokens=expect(data["prompt_tokens"], int, where + "prompt_tokens"),
            completion_tokens=expect(data["completion_tokens"], int, where + "completion_tokens"),
            cache_hits=expect(data.get("cache_hits", 0), int, where + "cache_hits"),
        )


Entries = Mapping[tuple[Stage, Role], CallStats]


def _sum(entries: Entries, stage: Stage | None = None) -> CallStats:
    """The entries summed, or those of one stage."""
    out = CallStats()
    for (entry_stage, _), stats in entries.items():
        if stage is None or entry_stage == stage:
            out.add(stats)
    return out


class CostLedger:
    """Thread-safe accumulator of engine-call costs across pipeline stages."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[tuple[Stage, Role], CallStats] = {}

    def record_call(
        self, stage: Stage, role: Role, response: EngineResponse, cached: bool = False
    ) -> None:
        """Book one engine interaction. Cache hits count separately from live calls."""
        with self._lock:
            stats = self._entries.get((stage, role))
            if stats is None:
                stats = self._entries[(stage, role)] = CallStats()
            if cached:
                stats.cache_hits += 1
            else:
                stats.wall_time_us += round(response.elapsed_seconds * 1e6)
                stats.api_calls += 1
                stats.prompt_tokens += response.prompt_tokens
                stats.completion_tokens += response.completion_tokens

    def _snapshot(self) -> dict[tuple[Stage, Role], CallStats]:
        """A consistent copy of the entries, so derived figures agree with each other."""
        with self._lock:
            return {key: replace(stats) for key, stats in self._entries.items()}

    def to_dict(self) -> dict[str, Any]:
        entries = self._snapshot()
        return {
            "entries": {
                f"{stage.value}/{role.value}": stats.to_dict()
                for (stage, role), stats in sorted(
                    entries.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
                )
            },
            "stages": {stage.value: _sum(entries, stage).to_dict() for stage in Stage},
            "totals": _sum(entries).to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], where: str) -> "CostLedger":
        """Load a serialized ledger, checking its stage and total blocks against its entries.

        ``where`` labels the ledger's values in a type error. Raises IntegrityError
        when any stored block differs from the summed entries in any field.
        """
        ledger = cls()
        for key, stats in data["entries"].items():
            stage_name, role_name = key.split("/", 1)
            stats = CallStats.from_dict(stats, f"{where}entries.{key}.")
            ledger._entries[(Stage(stage_name), Role(role_name))] = stats
        blocks = [(f"stages.{s.value}", data["stages"][s.value], _sum(ledger._entries, s)) for s in Stage]
        blocks.append(("totals", data["totals"], _sum(ledger._entries)))
        for name, stored, derived in blocks:
            if CallStats.from_dict(stored, f"{where}{name}.") != derived:
                raise IntegrityError(
                    f"ledger {name} {dict(stored)} disagree with its summed entries {derived.to_dict()}")
        return ledger
