"""Report renderer: metric tables, front scatter data, trace series, cost table.

Reports are rendered only from a persisted run directory, as ``records.read_run``
reads and checks it, so a re-export is byte-identical to the report written at
the end of the run by construction. All five files are rendered before
``records.write_report`` writes any, so this module reads and writes no file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from . import records
from .engine.types import Stage
from .features import LAYERS, catalog_default


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


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def _metrics_table(finals: dict[str, dict[str, Any]]) -> str:
    rows = [
        (policy, *(_fmt(entry.get(name)) for name in ("visibility", "quality", "word", "pos")))
        for policy, entry in sorted(finals.items())
    ]
    return format_table(("Policy", "Vis", "Qual", "Word", "Pos"), rows)


def _cost_table(cost: dict[str, Any]) -> str:
    """Time, calls and prompt/completion tokens of each stage and of the run, rendered from the stage
    and total blocks of a checked cost.json."""
    blocks = [(stage.value, cost["stages"][stage.value]) for stage in Stage] + [("Total", cost["totals"])]
    rows = [(name, f"{b['wall_time']:,.1f}", f"{b['api_calls']:,}", f"{b['prompt_tokens']:,}",
             f"{b['completion_tokens']:,}") for name, b in blocks]
    return format_table(("Pipeline Stage", "Time (s)", "API Calls", "Prompt Tok.", "Compl. Tok."), rows[:-1], rows[-1])


def _comparison_table(finals: dict[str, dict[str, Any]]) -> str:
    """Side-by-side feature configurations of the two extreme front solutions."""
    catalog = catalog_default()
    sol_a, sol_b = finals["max_visibility"], finals["max_quality"]
    lines = [
        "Extreme front solutions: A = max visibility, B = max quality",
        "",
        f"{'':10}{'':28}{'Sol. A':>10}{'Sol. B':>10}",
        f"{'':10}{'Vis':<28}{_fmt(sol_a['visibility']):>10}{_fmt(sol_b['visibility']):>10}",
        f"{'':10}{'Qual':<28}{_fmt(sol_a['quality']):>10}{_fmt(sol_b['quality']):>10}",
        "",
    ]
    for layer in LAYERS:  # the layer's name labels its first feature's row
        for n, feat in enumerate(feat for feat in catalog if feat.layer == layer):
            lines.append(f"{'' if n else layer:10}{feat.key:<28}"
                         f"{sol_a['features'][feat.key]:>10.2f}{sol_b['features'][feat.key]:>10.2f}")
    return "\n".join(lines) + "\n"


def export_report(run_dir: str | Path, overwrite: bool) -> list[Path]:
    """Rebuild the five report files under ``run_dir/report`` from the record that ``records.read_run``
    checked; existing report files are replaced only with ``overwrite``."""
    run_dir = Path(run_dir)
    run = records.read_run(run_dir)
    front_pairs = set(run.front)
    scatter = [(vis, qual, 1) for vis, qual in run.front]
    scatter += [(vis, qual, 0) for vis, qual in run.generations if (vis, qual) not in front_pairs]
    texts = {
        records.METRICS_TABLE: _metrics_table(run.finals),
        records.SCATTER_FILE: "visibility,quality,on_front\n"
        + "".join(f"{v!r},{q!r},{flag}\n" for v, q, flag in scatter),
        records.TRACE_FILE: records.trace_csv(run.trace),
        records.COMPARISON_FILE: _comparison_table(run.finals),
        records.COST_TABLE: _cost_table(run.cost),
    }
    return records.write_report(run_dir, texts, overwrite)
