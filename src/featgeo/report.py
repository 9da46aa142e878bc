"""Report exporter: metric tables, front scatter data, trace series, cost table.

Reports are built only from a persisted run directory, so a re-export is
byte-identical to the report written at the end of the run by construction.
Every record file is checked as it is read and against its sha256 in the
manifest, and all five files are rendered before any is written, so a failing
export leaves no partial report behind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .engine.ledger import CostLedger, format_table
from .errors import IntegrityError, ValidationError
from .features import LAYERS, catalog_default
from .records import COST_FILE, FINALS_FILE, FRONT_FILE, GENERATIONS_FILE, MANIFEST_FILE, TRACE_FILE
from .records import file_digest, write_text

REPORT_DIR_NAME = "report"

METRICS_TABLE = "metrics_table.txt"
SCATTER_FILE = "pareto_scatter.csv"
TRACE_COPY = "hv_trace.csv"
COMPARISON_FILE = "solution_comparison.txt"
COST_TABLE = "cost_table.txt"

REPORT_FILES = (METRICS_TABLE, SCATTER_FILE, TRACE_COPY, COMPARISON_FILE, COST_TABLE)


@dataclass
class ReportData:
    """Everything the exporter needs, read back from a run directory."""

    finals: dict[str, dict[str, Any]]
    scatter: list[tuple[float, float, int]]
    trace: list[tuple[int, float]]
    cost: CostLedger


def load_report_data(run_dir: str | Path) -> ReportData:
    """Build report inputs from a persisted run directory.

    A record file that is missing, cut short, not valid JSON or short of a
    field the report reads raises ValidationError naming it; a cost ledger
    whose blocks disagree with its entries, or a file the manifest lists
    whose sha256 differs from the recorded one, raises IntegrityError.
    """
    run_dir = Path(run_dir)
    finals = _read(run_dir / FINALS_FILE, _parse_finals)
    front = _read(run_dir / FRONT_FILE, _parse_objectives)
    front_pairs = set(front)
    scatter = [(vis, qual, 1) for vis, qual in front]
    scatter += [
        (vis, qual, 0)
        for vis, qual in _read(run_dir / GENERATIONS_FILE, _parse_objectives)
        if (vis, qual) not in front_pairs
    ]
    trace = _read(run_dir / TRACE_FILE, _parse_trace)
    cost = _read(run_dir / COST_FILE, lambda text: CostLedger.from_dict(json.loads(text)))
    artifacts = _read(run_dir / MANIFEST_FILE, lambda text: dict(json.loads(text)["artifacts"]))
    for name, digest in artifacts.items():
        try:
            actual = file_digest(run_dir / name)
        except OSError as exc:
            raise IntegrityError(f"listed record file {name} is unreadable: {exc!r}") from exc
        if actual != digest:
            raise IntegrityError(f"record file {name} does not match its sha256 in {MANIFEST_FILE}")
    return ReportData(finals=finals, scatter=scatter, trace=trace, cost=cost)


def _read(path: Path, parse: Callable[[str], Any]) -> Any:
    try:
        text = path.read_text(encoding="utf-8")
        if text and not text.endswith("\n"):
            raise ValueError("no final newline: the file was cut short")
        return parse(text)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"cannot read record file {path}: {exc!r}") from exc


def _parse_finals(text: str) -> dict[str, dict[str, Any]]:
    """Final solutions: both extremes present, every value the tables print numeric."""
    finals = json.loads(text)
    keys = catalog_default().keys()
    if not {"max_visibility", "max_quality"} <= finals.keys():
        raise KeyError("the comparison table needs max_visibility and max_quality")
    for entry in finals.values():
        values = [entry["visibility"], entry["quality"], *(entry["features"][k] for k in keys)]
        values += [entry[k] for k in ("word", "pos") if entry.get(k) is not None]
        if not all(isinstance(v, (int, float)) for v in values):
            raise TypeError(f"non-numeric value in {entry!r}")
    return finals


def _parse_objectives(text: str) -> list[tuple[float, float]]:
    rows = (json.loads(line) for line in text.splitlines() if line)
    return [(float(row["visibility"]), float(row["quality"])) for row in rows]


def _parse_trace(text: str) -> list[tuple[int, float]]:
    rows = (line.split(",") for line in text.splitlines()[1:])
    return [(int(gen), float(hv)) for gen, hv in rows]


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def _metrics_table(data: ReportData) -> str:
    rows = [
        (policy, *(_fmt(entry.get(name)) for name in ("visibility", "quality", "word", "pos")))
        for policy, entry in sorted(data.finals.items())
    ]
    return format_table(("Policy", "Vis", "Qual", "Word", "Pos"), rows)


def _comparison_table(data: ReportData) -> str:
    """Side-by-side feature configurations of the two extreme front solutions."""
    catalog = catalog_default()
    sol_a = data.finals["max_visibility"]
    sol_b = data.finals["max_quality"]
    lines = [
        "Extreme front solutions: A = max visibility, B = max quality",
        "",
        f"{'':10}{'':28}{'Sol. A':>10}{'Sol. B':>10}",
        f"{'':10}{'Vis':<28}{_fmt(sol_a['visibility']):>10}{_fmt(sol_b['visibility']):>10}",
        f"{'':10}{'Qual':<28}{_fmt(sol_a['quality']):>10}{_fmt(sol_b['quality']):>10}",
        "",
    ]
    for layer in LAYERS:
        first = True
        for feat in catalog:
            if feat.layer != layer:
                continue
            label = layer if first else ""
            first = False
            lines.append(
                f"{label:10}{feat.key:<28}"
                f"{sol_a['features'][feat.key]:>10.2f}{sol_b['features'][feat.key]:>10.2f}"
            )
    return "\n".join(lines) + "\n"


def export_report(data: ReportData, report_dir: str | Path) -> list[Path]:
    """Emit the five report files; deterministic for a fixed run record."""
    report_dir = Path(report_dir)
    texts = {
        METRICS_TABLE: _metrics_table(data),
        SCATTER_FILE: "visibility,quality,on_front\n"
        + "".join(f"{v!r},{q!r},{flag}\n" for v, q, flag in data.scatter),
        TRACE_COPY: "generation,hypervolume\n" + "".join(f"{g},{hv!r}\n" for g, hv in data.trace),
        COMPARISON_FILE: _comparison_table(data),
        COST_TABLE: data.cost.report(),
    }
    for name, text in texts.items():
        write_text(report_dir / name, text)
    return [report_dir / name for name in texts]
