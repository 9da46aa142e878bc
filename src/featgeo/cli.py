"""Command-line interface: probe, optimize, ablate, simulate, score, report."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import bundled, records
from .citations import parse_citations, visibility_scores
from .errors import FeatGeoError, IntegrityError, ValidationError
from .features import catalog_default
from .optimizer import POLICIES
from .pipeline import (
    BACKEND_LIVE,
    BACKEND_SIM,
    RunConfig,
    build_client,
    load_documents,
    probe_topic,
    run_ablation,
    run_optimization,
)
from .report import export_report
from .schema import read_text

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ENGINE = 2
EXIT_INTEGRITY = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process that Ctrl-C ended

# First match wins: the validation and integrity kinds, then every other package error.
_EXIT_CODES = (
    (ValidationError, EXIT_VALIDATION, "error"),
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
    p.set_defaults(policy="max_visibility")

    p = sub.add_parser("score", help="score one answer file (standalone citation metrics)")
    p.add_argument("--answer", required=True, help="file holding the answer text")
    p.add_argument("--sources", required=True, type=int, help="number of candidate sources")

    p = sub.add_parser("report", help="re-export report files from a run directory")
    p.add_argument("run_dir")
    p.add_argument("--overwrite", action="store_true")
    return parser


def _run_config(args) -> RunConfig:
    """Load the config with only the flags given, and refuse its run directory as ``records.check_run_dir`` does."""
    given = {k: v for k, v in vars(args).items() if k in ("seed", "backend", "output_dir") and v is not None}
    cfg = RunConfig.from_file(args.config or bundled.default_sim_config_path(), **given)
    if args.command == "simulate" and cfg.backend != BACKEND_SIM:
        raise ValidationError("simulate always runs against the sim backend")
    records.check_run_dir(Path(cfg.output_dir), args.overwrite)
    return cfg


def _cmd_probe(args) -> int:
    cfg = _run_config(args)
    docs = load_documents(cfg.competitor_docs)
    client = build_client(cfg, catalog_default(), docs)
    probe = probe_topic(cfg, client, docs)
    out = records.write_probe(Path(cfg.output_dir), probe)
    print(f"probed {len(probe.queries)} queries; exemplars: {list(probe.exemplar_ids)}")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    cfg = _run_config(args)
    record = run_optimization(cfg)
    best = record.finals[args.policy]
    print(f"run {record.status}: {cfg.output_dir}")
    print(f"front size: {len(record.result.front)}  final HV: {record.result.trace.entries[-1][1]:.4f}")
    print(f"{args.policy}: visibility {best.objectives[0]:.2f}  quality {best.objectives[1]:.2f}")
    failed = sum(m.failed for m in record.eval_metrics)
    if failed:
        print(f"{failed} of {len(record.eval_metrics)} evaluations failed", file=sys.stderr)
    return EXIT_ENGINE if record.status == "failed" else EXIT_OK


def _cmd_ablate(args) -> int:
    cfg = _run_config(args)
    # run_ablation rejects an unknown key, listing the known ones, before it runs anything.
    results = run_ablation(cfg, catalog_default().keys() if args.all else [args.feature])
    print(f"{'feature':<28}{'base vis':>10}{'ablated':>10}{'delta':>10}  runs")
    for r in results:
        print(f"{r.feature_key:<28}{r.baseline_vis:>10.2f}{r.ablated_vis:>10.2f}{r.delta:>+10.2f}"
              f"  {r.baseline_status}/{r.ablated_status}")
    failed = any("failed" in (r.baseline_status, r.ablated_status) for r in results)
    return EXIT_ENGINE if failed else EXIT_OK


def _cmd_score(args) -> int:
    answer = read_text(Path(args.answer), "answer file")
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
    for p in export_report(args.run_dir, args.overwrite):
        print(f"wrote {p}")
    return EXIT_OK


_COMMANDS = {
    "probe": _cmd_probe,
    "optimize": _cmd_optimize,
    "ablate": _cmd_ablate,
    "simulate": _cmd_optimize,
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
        code, label = next((c, l) for kinds, c, l in _EXIT_CODES if isinstance(exc, kinds))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
