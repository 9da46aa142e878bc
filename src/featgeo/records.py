"""Run records and their run directory: the types, the layout, each file's format both ways, and the one
writer, reader and remover.

A run is recorded as line-delimited record files plus a digest manifest. Every file is written
deterministically (fixed key order, repr floats, "\n" newlines), so a re-run of the same config under the
sim backend reproduces the record byte for byte. The manifest carries the sha256 of every record file: it
and the report are withdrawn before any record file is rewritten, and the manifest is written last, so a
directory without one holds no vouched record. ``read_run`` reads the record back for the report, checking
each file, and ``write_report`` writes the report's files all or none.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .engine.ledger import CostLedger
from .engine.types import TopicBrief
from .errors import IntegrityError, ValidationError
from .features import FeatureCatalog, FeatureVector, catalog_default, feature_record
from .optimizer import EvolveResult, HypervolumeTrace, Individual, ParetoFront
from .schema import expect, read_text

SCHEMA_VERSION = 1
STATUSES = ("complete", "degraded", "failed")  # a run's status, as the manifest records it

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

REPORT_DIR_NAME = "report"
METRICS_TABLE = "metrics_table.txt"
SCATTER_FILE = "pareto_scatter.csv"
COMPARISON_FILE = "solution_comparison.txt"
COST_TABLE = "cost_table.txt"

REPORT_FILES = (METRICS_TABLE, SCATTER_FILE, TRACE_FILE, COMPARISON_FILE, COST_TABLE)


@dataclass(frozen=True)
class ProbeResult:
    """Everything the topic probe learned before optimization starts."""

    queries: tuple[str, ...]
    frequencies: dict[int, int]
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
    config_snapshot: dict[str, Any] = field(default_factory=dict)
    probe: ProbeResult | None = None
    result: EvolveResult = EvolveResult(ParetoFront(()), HypervolumeTrace(()), (), 0)
    finals: dict[str, Individual] = field(default_factory=dict)
    eval_metrics: Sequence[EvalMetric] = ()
    status: str = "complete"
    error: str | None = None

    def settle_status(self) -> None:
        """Set the status of a run that ran to its end from its evaluations:
        ``failed`` when more than half of them failed, ``degraded`` when any
        did, ``complete`` when none did."""
        failed = sum(m.failed for m in self.eval_metrics)
        if 2 * failed > len(self.eval_metrics):
            self.status = "failed"
            self.error = f"{failed} of {len(self.eval_metrics)} evaluations failed"
        else:
            self.status = "degraded" if failed else "complete"


def check_run_dir(run_dir: Path, overwrite: bool) -> None:
    """Refuse a run directory that is occupied (unless ``overwrite``) or that the first write cannot make:
    the nearest path at or above it (a dangling link too) must be a writable directory."""
    nearest = next(p for p in (run_dir, *run_dir.parents) if os.path.lexists(p))
    try:
        if not (nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)):
            raise NotADirectoryError(f"{nearest} is not a writable directory")
        occupied = nearest == run_dir and any(run_dir.iterdir())
    except OSError as exc:
        raise ValidationError(f"cannot use {run_dir} as a run directory: {exc}") from exc
    if occupied and not overwrite:
        raise ValidationError(f"run directory {run_dir} already exists; pass --overwrite to write into it")


def write_text(path: Path, text: str) -> None:
    """Write one run-directory file; an OSError is the validation error ``cannot write <file>``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def remove(paths: Iterable[Path]) -> None:
    """Delete those of ``paths`` that are regular files, so a directory in a file's place is left to
    fail at its write; an OSError is the validation error ``cannot remove <file>``."""
    for path in paths:
        try:
            if path.is_file():
                path.unlink()
        except OSError as exc:
            raise ValidationError(f"cannot remove {path}: {exc}") from exc


def withdraw(run_dir: Path) -> None:
    """Delete the manifest and the report, so that nothing vouches for record files about to be rewritten."""
    remove([run_dir / MANIFEST_FILE, *(run_dir / REPORT_DIR_NAME / name for name in REPORT_FILES)])


def write_json(path: Path, obj: Any, indent: int | None = None) -> None:
    write_text(path, json.dumps(obj, ensure_ascii=False, indent=indent) + "\n")


def write_jsonl(path: Path, rows: Iterable[Any]) -> None:
    write_text(path, "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def file_digest(path: Path) -> str:
    """The sha256 the manifest records for a record file."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def trace_csv(entries: Iterable[tuple[int, float]]) -> str:
    """The text of ``hv_trace.csv``: one (generation, hypervolume) row per line."""
    return "generation,hypervolume\n" + "".join(f"{g},{hv!r}\n" for g, hv in entries)


def _crowding_out(value: float) -> float | None:
    return None if value == math.inf else value


def probe_to_dict(probe: ProbeResult, catalog: FeatureCatalog) -> dict[str, Any]:
    return {
        "brief": {"topic": probe.brief.topic, "strategy_text": probe.brief.strategy_text},
        "queries": list(probe.queries),
        "frequencies": {str(s): f for s, f in sorted(probe.frequencies.items())},
        "num_queries": len(probe.queries),
        "exemplar_ids": list(probe.exemplar_ids),
        "exemplar_vectors": [feature_record(v.values, catalog) for v in probe.exemplar_vectors],
    }


def write_probe(run_dir: Path, probe: ProbeResult) -> Path:
    """Write ``probe.json`` alone, once the manifest and report that vouch for the one it replaces are withdrawn."""
    withdraw(run_dir)
    write_json(run_dir / PROBE_FILE, probe_to_dict(probe, catalog_default()))
    return run_dir / PROBE_FILE


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


def _mean_word_pos(record: RunRecord, key: tuple[int, int] | None) -> tuple[float, float] | None:
    """Mean word/pos over the scored repeats of the candidate realized at (generation, slot) ``key``."""
    scored = [m for m in record.eval_metrics if not m.failed and (m.generation, m.slot) == key]
    if not scored:
        return None
    return sum((m.word for m in scored), 0.0) / len(scored), sum((m.pos for m in scored), 0.0) / len(scored)


def write_run_record(record: RunRecord, run_dir: Path) -> None:
    """Persist a (possibly partial) run record: withdraw the manifest and report, write the record
    files, then the manifest."""
    catalog = catalog_default()
    withdraw(run_dir)
    written = RECORD_FILES
    if record.probe is not None:
        write_json(run_dir / PROBE_FILE, probe_to_dict(record.probe, catalog))
    else:  # a run that failed before its probe leaves no earlier run's probe behind
        remove([run_dir / PROBE_FILE])
        written = tuple(name for name in RECORD_FILES if name != PROBE_FILE)

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
            for r in record.result.log
        ),
    )

    write_jsonl(run_dir / FRONT_FILE, (_individual_to_dict(ind, catalog) for ind in record.result.front))

    write_text(run_dir / TRACE_FILE, trace_csv(record.result.trace.entries))

    finals = {
        policy: _individual_to_dict(ind, catalog, _mean_word_pos(record, ind.key))
        for policy, ind in record.finals.items()
    }
    write_json(run_dir / FINALS_FILE, finals)

    # A row's keys are EvalMetric's fields in declaration order; json writes tuples as lists.
    write_jsonl(run_dir / METRICS_FILE, map(vars, record.eval_metrics))

    write_json(run_dir / COST_FILE, record.ledger.to_dict())

    artifacts = {name: file_digest(run_dir / name) for name in written}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "status": record.status,
        "error": record.error,
        "config": record.config_snapshot,
        "artifacts": artifacts,
    }
    write_json(run_dir / MANIFEST_FILE, manifest, indent=2)


def _read(path: Path, parse: Callable[[str, str], Any]) -> Any:
    """``parse(text, where)`` of a record file, where ``where`` labels the file's values in an error."""
    where = f"cannot read record file {path}: "
    text = read_text(path, "record file")
    try:
        if text and not text.endswith("\n"):
            raise ValueError("no final newline: the file was cut short")
        return parse(text, where)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValidationError(f"{where}{exc!r}") from exc


def _parse_manifest(text: str, where: str) -> tuple[str, Any, dict[str, str]]:
    """The run's status, its recorded error and the sha256 of each record file the manifest lists."""
    manifest = json.loads(text)
    expect(manifest["schema_version"], int, where + "schema_version", (SCHEMA_VERSION,))
    artifacts = expect(manifest["artifacts"], dict, where + "artifacts")
    for name, digest in artifacts.items():
        expect(name, str, where + "artifacts key", RECORD_FILES)
        expect(digest, str, f"{where}artifacts.{name}")
    return expect(manifest["status"], str, where + "status", STATUSES), manifest["error"], artifacts


def _parse_finals(text: str, where: str) -> dict[str, dict[str, Any]]:
    """Final solutions by policy, every value the tables print a finite number."""
    finals = json.loads(text)
    for policy, entry in finals.items():
        values = {name: entry[name] for name in ("visibility", "quality")}
        values.update((name, entry[name]) for name in ("word", "pos") if entry.get(name) is not None)
        values.update((f"features.{key}", entry["features"][key]) for key in catalog_default().keys())
        for name, value in values.items():
            expect(value, float, f"{where}{policy}.{name}")
    return finals


def _parse_objectives(text: str, where: str) -> list[tuple[float, float]]:
    rows = ((number, json.loads(line)) for number, line in enumerate(text.splitlines(), start=1) if line)
    return [tuple(expect(row[name], float, f"{where}line {number} {name}") for name in ("visibility", "quality"))
            for number, row in rows]


def _parse_trace(text: str, where: str) -> list[tuple[int, float]]:
    """(generation, hypervolume) rows; each cell is a JSON number, as ``repr`` writes it."""
    rows = enumerate((line.split(",") for line in text.splitlines()[1:]), start=2)
    return [(expect(json.loads(gen), int, f"{where}line {number} generation"),
             expect(json.loads(hv), float, f"{where}line {number} hypervolume")) for number, (gen, hv) in rows]


def _parse_cost(text: str, where: str) -> dict[str, Any]:
    """cost.json, once ``CostLedger.from_dict`` has checked its stage and total blocks against its entries."""
    cost = json.loads(text)
    CostLedger.from_dict(cost, where)
    return cost


class SavedRun(NamedTuple):
    """What a report renders: finals, front and generations (visibility, quality), trace and cost.json."""

    finals: dict[str, dict[str, Any]]
    front: list[tuple[float, float]]
    generations: list[tuple[float, float]]
    trace: list[tuple[int, float]]
    cost: dict[str, Any]


def read_run(run_dir: Path) -> SavedRun:
    """Read back what a report renders, checking each record file as it is read, the manifest first, then
    against its digest. A file that is missing, cut short, not valid JSON, short of a field or holding a
    value of the wrong JSON type is a ValidationError naming it, and so is a failed run that chose no final
    solutions; a cost ledger that disagrees with its entries, or a listed file off its sha256, is an
    IntegrityError."""
    status, error, artifacts = _read(run_dir / MANIFEST_FILE, _parse_manifest)
    finals = _read(run_dir / FINALS_FILE, _parse_finals)
    if not {"max_visibility", "max_quality"} <= finals.keys():
        if status == "failed" and not finals:
            raise ValidationError(f"run {run_dir} has status failed and chose no final solutions, "
                                  f"so it has no report: {error}")
        raise ValidationError(f"cannot read record file {run_dir / FINALS_FILE}: "
                              "the comparison table needs max_visibility and max_quality")
    run = SavedRun(finals, _read(run_dir / FRONT_FILE, _parse_objectives),
                   _read(run_dir / GENERATIONS_FILE, _parse_objectives), _read(run_dir / TRACE_FILE, _parse_trace),
                   _read(run_dir / COST_FILE, _parse_cost))
    for name, digest in artifacts.items():
        try:
            actual = file_digest(run_dir / name)
        except OSError as exc:
            raise IntegrityError(f"listed record file {name} is unreadable: {exc!r}") from exc
        if actual != digest:
            raise IntegrityError(f"record file {name} does not match its sha256 in {MANIFEST_FILE}")
    return run


def write_report(run_dir: Path, texts: dict[str, str], overwrite: bool) -> list[Path]:
    """Write each report file ``texts`` maps by name under ``run_dir/report``. Existing report files are
    replaced only with ``overwrite``. A write that fails removes the report files."""
    report_dir = run_dir / REPORT_DIR_NAME
    if not overwrite and any((report_dir / name).exists() for name in REPORT_FILES):
        raise ValidationError(f"report files already exist under {report_dir}; pass --overwrite to re-export")
    try:
        for name, text in texts.items():
            write_text(report_dir / name, text)
    except ValidationError:
        remove(report_dir / name for name in texts)
        raise
    return [report_dir / name for name in texts]
