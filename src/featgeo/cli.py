"""Command-line interface: probe, optimize, ablate, simulate, score, report."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import bundled, records
from .citations import parse_citations, visibility_scores
from .errors import BudgetError, FeatGeoError, IntegrityError, ValidationError
from .features import catalog_default
from .optimizer import POLICIES, OptimizerAbort
from .pipeline import (
    BACKEND_LIVE,
    BACKEND_SIM,
    RunConfig,
    build_client,
    load_documents,
    probe_topic,
    run_ablation,
    run_ablation_sweep,
    run_optimization,
)
from .report import REPORT_DIR_NAME, REPORT_FILES, export_report, load_report_data

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ENGINE = 2
EXIT_INTEGRITY = 3

# First match wins: the validation and integrity kinds, then every other package error.
_EXIT_CODES = (
    ((ValidationError, BudgetError), EXIT_VALIDATION, "error"),
    (IntegrityError, EXIT_INTEGRITY, "integrity error"),
    (FeatGeoError, EXIT_ENGINE, "engine error"),
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the validation status."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _build_parser() -> _Parser:
    parser = _Parser(prog="featgeo", description=__doc__)
    parser.add_argument("-v", "--verbose", action="count", default=0, help="-v info, -vv debug")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p, config_required=True):
        p.add_argument("--config", required=config_required, help="run config JSON file")
        p.add_argument("--seed", type=int, default=None, help="override GA and sim seeds")
        p.add_argument("--backend", choices=[BACKEND_SIM, BACKEND_LIVE], default=None)
        p.add_argument("--output-dir", default=None)
        p.add_argument("--overwrite", action="store_true", help="allow writing into an existing run dir")

    p = sub.add_parser("probe", help="run topic probing only")
    add_run_flags(p)

    p = sub.add_parser("optimize", help="run the full optimization")
    add_run_flags(p)
    p.add_argument("--policy", choices=POLICIES, default="max_visibility",
                   help="final solution to print")

    p = sub.add_parser("ablate", help="re-optimize with one feature clamped to its minimum")
    add_run_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--feature", help="feature key to clamp")
    group.add_argument("--all", action="store_true", help="sweep all 13 features")

    p = sub.add_parser("simulate", help="optimize against the bundled offline sim topic")
    add_run_flags(p, config_required=False)

    p = sub.add_parser("score", help="score one answer file (standalone citation metrics)")
    p.add_argument("--answer", required=True, help="file holding the answer text")
    p.add_argument("--sources", required=True, type=int, help="number of candidate sources")

    p = sub.add_parser("report", help="re-export report files from a run directory")
    p.add_argument("run_dir")
    p.add_argument("--overwrite", action="store_true")
    return parser


def _load_config(args) -> RunConfig:
    return RunConfig.from_file(
        args.config or bundled.default_sim_config_path(),
        seed=args.seed, backend=args.backend, output_dir=args.output_dir,
    )


def _check_run_dir(run_dir: Path, overwrite: bool) -> None:
    if run_dir.exists() and any(run_dir.iterdir()) and not overwrite:
        raise ValidationError(
            f"run directory {run_dir} already exists; pass --overwrite to write into it"
        )


def _cmd_probe(args) -> int:
    cfg = _load_config(args)
    run_dir = Path(cfg.output_dir)
    _check_run_dir(run_dir, args.overwrite)
    catalog = catalog_default()
    client = build_client(cfg, catalog)
    docs = load_documents(cfg.competitor_docs)
    probe = probe_topic(cfg, client, docs)
    out = run_dir / records.PROBE_FILE
    records.write_json(out, records.probe_to_dict(probe, catalog))
    print(f"probed {len(probe.queries)} queries; exemplars: {list(probe.exemplar_ids)}")
    print(f"wrote {out}")
    return EXIT_OK


def _run_and_summarize(cfg: RunConfig, policy: str = "max_visibility") -> int:
    record = run_optimization(cfg)
    best = record.finals[policy]
    print(f"run complete: {record.run_dir}")
    print(f"front size: {len(record.front)}  final HV: {record.trace.entries[-1][1]:.4f}")
    print(
        f"{policy}: visibility {best.objectives[0]:.2f}  quality {best.objectives[1]:.2f}"
    )
    return EXIT_OK


def _cmd_optimize(args) -> int:
    cfg = _load_config(args)
    _check_run_dir(Path(cfg.output_dir), args.overwrite)
    return _run_and_summarize(cfg, args.policy)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if cfg.backend != BACKEND_SIM:
        raise ValidationError("simulate always runs against the sim backend")
    _check_run_dir(Path(cfg.output_dir), args.overwrite)
    return _run_and_summarize(cfg)


def _cmd_ablate(args) -> int:
    cfg = _load_config(args)
    _check_run_dir(Path(cfg.output_dir), args.overwrite)
    catalog = catalog_default()
    if args.feature and args.feature not in catalog.keys():
        raise ValidationError(
            f"unknown feature key {args.feature!r}; known keys: {', '.join(catalog.keys())}"
        )
    results = run_ablation_sweep(cfg) if args.all else [run_ablation(cfg, args.feature)]
    print(f"{'feature':<28}{'base vis':>10}{'ablated':>10}{'delta':>10}")
    for r in results:
        print(f"{r.feature_key:<28}{r.baseline_vis:>10.2f}{r.ablated_vis:>10.2f}{r.delta:>+10.2f}")
    return EXIT_OK


def _cmd_score(args) -> int:
    path = Path(args.answer)
    if not path.exists():
        raise ValidationError(f"answer file not found: {path}")
    answer = path.read_text(encoding="utf-8")
    parse = parse_citations(answer, args.sources)
    scores = visibility_scores(parse)
    print(f"{len(parse.sentences)} sentences, {args.sources} sources, "
          f"{parse.dropped_citations} out-of-range citations dropped")
    print(f"{'source':<8}{'word':>8}{'pos':>8}{'vis':>8}")
    for s in range(1, args.sources + 1):
        word, pos, vis = scores.for_source(s)
        print(f"{s:<8}{word:>8.2f}{pos:>8.2f}{vis:>8.2f}")
    return EXIT_OK


def _cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    data = load_report_data(run_dir)
    report_dir = run_dir / REPORT_DIR_NAME
    if any((report_dir / name).exists() for name in REPORT_FILES) and not args.overwrite:
        raise ValidationError(
            f"report files already exist under {report_dir}; pass --overwrite to re-export"
        )
    paths = export_report(data, report_dir)
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


_COMMANDS = {
    "probe": _cmd_probe,
    "optimize": _cmd_optimize,
    "ablate": _cmd_ablate,
    "simulate": _cmd_simulate,
    "score": _cmd_score,
    "report": _cmd_report,
}


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except FeatGeoError as exc:
        # An abort inside evolve exits as the error that caused it.
        cause = exc.cause if isinstance(exc, OptimizerAbort) else exc
        if not isinstance(cause, FeatGeoError):
            raise cause
        code, label = next((c, l) for kinds, c, l in _EXIT_CODES if isinstance(cause, kinds))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
