"""Report exporter: metric tables, front scatter data, trace series, cost table.

Reports are built only from a persisted run directory, so a re-export is
byte-identical to the report written at the end of the run by construction.
Every record file is checked as it is read and against its sha256 in the
manifest, all five files are rendered before any is written, and a write that
fails removes the report files, so a failing export leaves no partial report
behind.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Sequence

from .engine.ledger import CostLedger
from .engine.types import Stage
from .errors import IntegrityError, ValidationError
from .features import LAYERS, catalog_default
from .records import COMPARISON_FILE, COST_FILE, COST_TABLE, FINALS_FILE, FRONT_FILE, GENERATIONS_FILE
from .records import MANIFEST_FILE, METRICS_TABLE, REPORT_DIR_NAME, REPORT_FILES, SCATTER_FILE, TRACE_FILE
from .records import RECORD_FILES, SCHEMA_VERSION, STATUSES, file_digest, remove, trace_csv, write_text
from .schema import expect, read_text


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


def _cost_table(text: str, where: str) -> str:
    """Time, calls and prompt/completion tokens of each stage and of the run, rendered from the stage
    and total blocks of cost.json once ``CostLedger.from_dict`` has checked them against its entries."""
    cost = json.loads(text)
    CostLedger.from_dict(cost, where)
    blocks = [(stage.value, cost["stages"][stage.value]) for stage in Stage] + [("Total", cost["totals"])]
    rows = [(name, f"{b['wall_time']:,.1f}", f"{b['api_calls']:,}", f"{b['prompt_tokens']:,}",
             f"{b['completion_tokens']:,}") for name, b in blocks]
    return format_table(("Pipeline Stage", "Time (s)", "API Calls", "Prompt Tok.", "Compl. Tok."), rows[:-1], rows[-1])


def _comparison_table(finals: dict[str, dict[str, Any]]) -> str:
    """Side-by-side feature configurations of the two extreme front solutions."""
    catalog = catalog_default()
    sol_a = finals["max_visibility"]
    sol_b = finals["max_quality"]
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


def export_report(run_dir: str | Path, overwrite: bool) -> list[Path]:
    """Rebuild the five report files under ``run_dir/report`` from the persisted record.

    The record is checked before any report file is touched, the manifest
    first: a record file that is missing, cut short, not valid JSON, short of
    a field the report reads or holding a value of the wrong JSON type raises
    ValidationError naming it, and so does a failed run that chose no final
    solutions, naming its status and error; a cost ledger whose blocks disagree
    with its entries, or a file the manifest lists whose sha256 differs from
    the recorded one, raises IntegrityError. Existing report files are replaced
    only with ``overwrite``. A write that fails removes the report files.
    """
    run_dir = Path(run_dir)
    status, error, artifacts = _read(run_dir / MANIFEST_FILE, _parse_manifest)
    finals = _read(run_dir / FINALS_FILE, _parse_finals)
    if not {"max_visibility", "max_quality"} <= finals.keys():
        if status == "failed" and not finals:
            raise ValidationError(f"run {run_dir} has status failed and chose no final solutions, "
                                  f"so it has no report: {error}")
        raise ValidationError(f"cannot read record file {run_dir / FINALS_FILE}: "
                              "the comparison table needs max_visibility and max_quality")
    front = _read(run_dir / FRONT_FILE, _parse_objectives)
    front_pairs = set(front)
    scatter = [(vis, qual, 1) for vis, qual in front]
    scatter += [
        (vis, qual, 0)
        for vis, qual in _read(run_dir / GENERATIONS_FILE, _parse_objectives)
        if (vis, qual) not in front_pairs
    ]
    trace = _read(run_dir / TRACE_FILE, _parse_trace)
    cost_table = _read(run_dir / COST_FILE, _cost_table)
    for name, digest in artifacts.items():
        try:
            actual = file_digest(run_dir / name)
        except OSError as exc:
            raise IntegrityError(f"listed record file {name} is unreadable: {exc!r}") from exc
        if actual != digest:
            raise IntegrityError(f"record file {name} does not match its sha256 in {MANIFEST_FILE}")

    report_dir = run_dir / REPORT_DIR_NAME
    if not overwrite and any((report_dir / name).exists() for name in REPORT_FILES):
        raise ValidationError(
            f"report files already exist under {report_dir}; pass --overwrite to re-export"
        )
    texts = {
        METRICS_TABLE: _metrics_table(finals),
        SCATTER_FILE: "visibility,quality,on_front\n"
        + "".join(f"{v!r},{q!r},{flag}\n" for v, q, flag in scatter),
        TRACE_FILE: trace_csv(trace),
        COMPARISON_FILE: _comparison_table(finals),
        COST_TABLE: cost_table,
    }
    try:
        for name, text in texts.items():
            write_text(report_dir / name, text)
    except ValidationError:
        remove(report_dir / name for name in texts)
        raise
    return [report_dir / name for name in texts]
