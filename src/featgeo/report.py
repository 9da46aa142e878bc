"""Report exporter: metric tables, front scatter data, trace series, cost table.

Reports are built only from a persisted run directory, so a re-export is
byte-identical to the report written at the end of the run by construction.
All five files are rendered, and the cost ledger checked, before any is
written, so a failing export leaves no partial report behind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .engine.ledger import CostLedger, format_table
from .errors import ValidationError
from .features import LAYERS, catalog_default
from .records import COST_FILE, FINALS_FILE, FRONT_FILE, GENERATIONS_FILE, TRACE_FILE, write_text

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
    cost: dict[str, Any]


def load_report_data(run_dir: str | Path) -> ReportData:
    """Build report inputs from a persisted run directory."""
    run_dir = Path(run_dir)
    if not (run_dir / FINALS_FILE).exists():
        raise ValidationError(f"{run_dir} does not look like a run directory (no {FINALS_FILE})")
    finals = json.loads((run_dir / FINALS_FILE).read_text(encoding="utf-8"))
    front = [(row["visibility"], row["quality"]) for row in _read_jsonl(run_dir / FRONT_FILE)]
    front_pairs = set(front)
    scatter = [(vis, qual, 1) for vis, qual in front]
    scatter += [
        (row["visibility"], row["quality"], 0)
        for row in _read_jsonl(run_dir / GENERATIONS_FILE)
        if (row["visibility"], row["quality"]) not in front_pairs
    ]
    trace = []
    trace_lines = (run_dir / TRACE_FILE).read_text(encoding="utf-8").splitlines()
    for line in trace_lines[1:]:
        gen, hv = line.split(",")
        trace.append((int(gen), float(hv)))
    cost = json.loads((run_dir / COST_FILE).read_text(encoding="utf-8"))
    return ReportData(finals=finals, scatter=scatter, trace=trace, cost=cost)


def _read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def _metrics_table(data: ReportData) -> str:
    rows = [
        (
            policy,
            _fmt(entry["visibility"]),
            _fmt(entry["quality"]),
            _fmt(entry.get("word")),
            _fmt(entry.get("pos")),
        )
        for policy, entry in sorted(data.finals.items())
    ]
    return format_table(("Policy", "Vis", "Qual", "Word", "Pos"), rows)


def _comparison_table(data: ReportData) -> str:
    """Side-by-side feature configurations of the two extreme front solutions."""
    catalog = catalog_default()
    sol_a = data.finals.get("max_visibility")
    sol_b = data.finals.get("max_quality")
    if sol_a is None or sol_b is None:
        raise ValidationError("comparison table needs max_visibility and max_quality solutions")
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
    """Emit the five report files; deterministic for a fixed run record.

    Every text is rendered before the first file is written, so a ValidationError
    or IntegrityError leaves the report directory as it was.
    """
    report_dir = Path(report_dir)
    texts = {
        METRICS_TABLE: _metrics_table(data),
        SCATTER_FILE: "visibility,quality,on_front\n"
        + "".join(f"{v!r},{q!r},{flag}\n" for v, q, flag in data.scatter),
        TRACE_COPY: "generation,hypervolume\n" + "".join(f"{g},{hv!r}\n" for g, hv in data.trace),
        COMPARISON_FILE: _comparison_table(data),
        COST_TABLE: CostLedger.from_dict(data.cost).report(),
    }
    for name, text in texts.items():
        write_text(report_dir / name, text)
    return [report_dir / name for name in texts]
