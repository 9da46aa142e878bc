"""Per-stage cost accounting for engine calls.

The ledger keeps wall time, call counts, and token usage per (stage, role)
pair, and nothing else: stage aggregates and grand totals are derived from
those entries. A serialized ledger carries the derived blocks as well, and
loading one refuses any block that disagrees with its entries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Sequence

from ..errors import IntegrityError
from .types import EngineResponse, Role, Stage

STAGES = (Stage.FEATURE_EXTRACTION, Stage.INITIAL_POPULATION, Stage.GA_OPTIMIZATION)


def format_table(
    header: Sequence[str], rows: Sequence[Sequence[str]], total: Sequence[str] | None = None
) -> str:
    """Left-aligned text table: header, rule, rows, then an optional ruled-off total row."""
    body = [*rows, total] if total is not None else list(rows)
    widths = [max(len(cell) for cell in column) for column in zip(header, *body)]
    rule = "  ".join("-" * w for w in widths)

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    lines = [line(header), rule, *map(line, rows)]
    if total is not None:
        lines += [rule, line(total)]
    return "\n".join(lines) + "\n"


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
    def from_dict(cls, data: Mapping[str, Any]) -> "CallStats":
        return cls(
            wall_time_us=round(float(data["wall_time"]) * 1e6),
            api_calls=int(data["api_calls"]),
            prompt_tokens=int(data["prompt_tokens"]),
            completion_tokens=int(data["completion_tokens"]),
            cache_hits=int(data.get("cache_hits", 0)),
        )


Entries = Mapping[tuple[Stage, Role], CallStats]


def _sum(entries: Entries, keep: Callable[[Stage, Role], bool] = lambda s, r: True) -> CallStats:
    out = CallStats()
    for (stage, role), stats in entries.items():
        if keep(stage, role):
            out.add(stats)
    return out


def _stage_sum(entries: Entries, stage: Stage) -> CallStats:
    return _sum(entries, lambda s, _: s == stage)


def _role_sum(entries: Entries, role: Role, stage: Stage | None) -> CallStats:
    return _sum(entries, lambda s, r: r == role and (stage is None or s == stage))


class CostLedger:
    """Thread-safe accumulator of engine-call costs across pipeline stages."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[tuple[Stage, Role], CallStats] = {}

    def record_call(
        self, stage: Stage, role: Role, response: EngineResponse, cached: bool = False
    ) -> None:
        """Book one engine interaction. Cache hits count separately from live calls."""
        delta = CallStats(cache_hits=1) if cached else CallStats(
            wall_time_us=round(response.elapsed_seconds * 1e6),
            api_calls=1,
            prompt_tokens=response.prompt_tokens,
            completion_tokens=response.completion_tokens,
        )
        with self._lock:
            self._entries.setdefault((stage, role), CallStats()).add(delta)

    def _snapshot(self) -> dict[tuple[Stage, Role], CallStats]:
        """A consistent copy of the entries, so derived figures agree with each other."""
        with self._lock:
            return {key: replace(stats) for key, stats in self._entries.items()}

    def stage_stats(self, stage: Stage) -> CallStats:
        return _stage_sum(self._snapshot(), stage)

    def totals(self) -> CallStats:
        return _sum(self._snapshot())

    def role_requests(self, role: Role, stage: Stage | None = None) -> int:
        """Live calls plus cache hits for a role, optionally within one stage."""
        stats = _role_sum(self._snapshot(), role, stage)
        return stats.api_calls + stats.cache_hits

    def role_calls(self, role: Role, stage: Stage | None = None) -> int:
        return _role_sum(self._snapshot(), role, stage).api_calls

    def report(self) -> str:
        """Format the stage table (time, calls, prompt/completion tokens) plus totals."""
        entries = self._snapshot()

        def row(name: str, stats: CallStats) -> tuple[str, ...]:
            return (
                name,
                f"{stats.wall_time:,.1f}",
                f"{stats.api_calls:,}",
                f"{stats.prompt_tokens:,}",
                f"{stats.completion_tokens:,}",
            )

        return format_table(
            ("Pipeline Stage", "Time (s)", "API Calls", "Prompt Tok.", "Compl. Tok."),
            [row(stage.value, _stage_sum(entries, stage)) for stage in STAGES],
            row("Total", _sum(entries)),
        )

    def to_dict(self) -> dict[str, Any]:
        entries = self._snapshot()
        return {
            "entries": {
                f"{stage.value}/{role.value}": stats.to_dict()
                for (stage, role), stats in sorted(
                    entries.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
                )
            },
            "stages": {stage.value: _stage_sum(entries, stage).to_dict() for stage in STAGES},
            "totals": _sum(entries).to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CostLedger":
        """Load a serialized ledger, checking its stage and total blocks against its entries.

        Raises IntegrityError when any stored block differs from the summed
        entries in any field.
        """
        ledger = cls()
        for key, stats in data.get("entries", {}).items():
            stage_name, role_name = key.split("/", 1)
            ledger._entries[(Stage(stage_name), Role(role_name))] = CallStats.from_dict(stats)
        blocks = [
            (f"stage {stage.value!r}", data["stages"][stage.value], _stage_sum(ledger._entries, stage))
            for stage in STAGES
        ]
        blocks.append(("totals", data["totals"], _sum(ledger._entries)))
        for name, stored, derived in blocks:
            if CallStats.from_dict(stored) != derived:
                raise IntegrityError(
                    f"ledger {name} {dict(stored)} disagree with its summed entries {derived.to_dict()}"
                )
        return ledger
