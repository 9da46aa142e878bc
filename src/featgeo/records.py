"""Run records: their types, their file names, and the one writer that persists them.

A run is recorded as line-delimited record files plus a digest manifest. Every
file is written deterministically (fixed key order, repr floats, "\n"
newlines), so a re-run of the same config under the sim backend reproduces the
record byte for byte. The manifest is written last and carries the sha256 of
every record file. Reports are built from the persisted record only, never
from the in-memory objects that produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .engine.ledger import CostLedger
from .engine.types import TopicBrief
from .features import FeatureCatalog, FeatureVector, catalog_default
from .optimizer import GenerationRecord, HypervolumeTrace, Individual, ParetoFront

SCHEMA_VERSION = 1

PROBE_FILE = "probe.json"
GENERATIONS_FILE = "generations.jsonl"
FRONT_FILE = "pareto_front.jsonl"
TRACE_FILE = "hv_trace.csv"
FINALS_FILE = "final_solutions.json"
METRICS_FILE = "eval_metrics.jsonl"
COST_FILE = "cost.json"
MANIFEST_FILE = "manifest.json"

RECORD_FILES = (
    PROBE_FILE,
    GENERATIONS_FILE,
    FRONT_FILE,
    TRACE_FILE,
    FINALS_FILE,
    METRICS_FILE,
    COST_FILE,
)


@dataclass(frozen=True)
class ProbeResult:
    """Everything the topic probe learned before optimization starts."""

    queries: tuple[str, ...]
    frequencies: dict[int, int]
    num_queries: int
    exemplar_ids: tuple[int, ...]
    exemplar_vectors: tuple[FeatureVector, ...]
    brief: TopicBrief


@dataclass(frozen=True)
class EvalMetric:
    """Aggregated metrics of one evaluator call (one candidate, one repeat).

    Raw judge dimensions are kept (one 7-tuple per judge call, canonical
    dimension order) so the quality blend weight can be re-applied post hoc.
    """

    generation: int
    slot: int
    repeat: int
    visibility: float
    quality: float
    word: float
    pos: float
    per_query_vis: tuple[float, ...]
    judge_scores: tuple[tuple[int, ...], ...] = ()
    failed: bool = False


@dataclass
class RunRecord:
    """Full provenance of one optimization run; fields fill in as the run proceeds."""

    ledger: CostLedger
    run_dir: Path | None = None
    config_snapshot: dict[str, Any] = field(default_factory=dict)
    probe: ProbeResult | None = None
    log: tuple[GenerationRecord, ...] = ()
    front: ParetoFront | None = None
    trace: HypervolumeTrace | None = None
    finals: dict[str, Individual] = field(default_factory=dict)
    eval_metrics: tuple[EvalMetric, ...] = ()
    status: str = "complete"
    error: str | None = None


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path: Path, obj: Any, indent: int | None = None) -> None:
    write_text(path, json.dumps(obj, ensure_ascii=False, indent=indent) + "\n")


def write_jsonl(path: Path, rows: Iterable[Any]) -> None:
    write_text(path, "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def file_digest(path: Path) -> str:
    """The sha256 the manifest records for a record file."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def feature_record(values: Iterable[float], catalog: FeatureCatalog) -> dict[str, float]:
    return {feat.key: float(v) for feat, v in zip(catalog, values)}


def _crowding_out(value: float) -> float | None:
    return None if value == float("inf") else value


def probe_to_dict(probe: ProbeResult, catalog: FeatureCatalog) -> dict[str, Any]:
    return {
        "brief": {"topic": probe.brief.topic, "strategy_text": probe.brief.strategy_text},
        "queries": list(probe.queries),
        "frequencies": {str(s): f for s, f in sorted(probe.frequencies.items())},
        "num_queries": probe.num_queries,
        "exemplar_ids": list(probe.exemplar_ids),
        "exemplar_vectors": [feature_record(v.values, catalog) for v in probe.exemplar_vectors],
    }


def _individual_to_dict(
    ind: Individual, catalog: FeatureCatalog, aux: tuple[float, float] | None = None
) -> dict[str, Any]:
    out: dict[str, Any] = {
        "features": feature_record(ind.x.values, catalog),
        "visibility": ind.objectives[0],
        "quality": ind.objectives[1],
        "realized_at": list(ind.key) if ind.key is not None else None,
    }
    if aux is not None:
        out["word"], out["pos"] = aux
    return out


def _aux_metrics(record: RunRecord) -> dict[tuple[int, int], tuple[float, float]]:
    """Mean word/pos per realized candidate, keyed by (generation, slot)."""
    sums: dict[tuple[int, int], list[float]] = {}
    for m in record.eval_metrics:
        if m.failed:
            continue
        entry = sums.setdefault((m.generation, m.slot), [0.0, 0.0, 0.0])
        entry[0] += m.word
        entry[1] += m.pos
        entry[2] += 1.0
    return {k: (v[0] / v[2], v[1] / v[2]) for k, v in sums.items() if v[2] > 0}


def write_run_record(record: RunRecord, run_dir: Path) -> Path:
    """Persist a (possibly partial) run record; returns the manifest path."""
    catalog = catalog_default()
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    if record.probe is not None:
        write_json(run_dir / PROBE_FILE, probe_to_dict(record.probe, catalog))

    write_jsonl(
        run_dir / GENERATIONS_FILE,
        (
            {
                "generation": r.generation,
                "slot": r.slot,
                "features": feature_record(r.values, catalog),
                "visibility": r.visibility,
                "quality": r.quality,
                "rank": r.rank,
                "crowding": _crowding_out(r.crowding),
            }
            for r in record.log
        ),
    )

    front = record.front if record.front is not None else ()
    write_jsonl(run_dir / FRONT_FILE, (_individual_to_dict(ind, catalog) for ind in front))

    trace = record.trace.entries if record.trace is not None else ()
    write_text(
        run_dir / TRACE_FILE, "generation,hypervolume\n" + "".join(f"{g},{hv!r}\n" for g, hv in trace)
    )

    aux = _aux_metrics(record)
    finals = {
        policy: _individual_to_dict(ind, catalog, aux.get(ind.key) if ind.key else None)
        for policy, ind in record.finals.items()
    }
    write_json(run_dir / FINALS_FILE, finals)

    write_jsonl(
        run_dir / METRICS_FILE,
        (
            {
                "generation": m.generation,
                "slot": m.slot,
                "repeat": m.repeat,
                "visibility": m.visibility,
                "quality": m.quality,
                "word": m.word,
                "pos": m.pos,
                "per_query_vis": list(m.per_query_vis),
                "judge_scores": [list(d) for d in m.judge_scores],
                "failed": m.failed,
            }
            for m in record.eval_metrics
        ),
    )

    write_json(run_dir / COST_FILE, record.ledger.to_dict())

    artifacts = {name: file_digest(run_dir / name) for name in RECORD_FILES if (run_dir / name).exists()}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "status": record.status,
        "error": record.error,
        "config": record.config_snapshot,
        "artifacts": artifacts,
    }
    manifest_path = run_dir / MANIFEST_FILE
    write_json(manifest_path, manifest, indent=2)
    return manifest_path
