"""End-to-end orchestration: topic probing, candidate evaluation, optimization runs.

A run probes the topic (queries, citation frequencies, exemplar extraction),
seeds the optimizer from the exemplar configurations, evaluates candidates by
realizing them into pages and injecting them next to the competitor documents,
and persists a fully replayable record of everything it did.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, get_args, get_type_hints

from . import records, report
from .citations import citation_frequency, parse_citations, select_exemplars, visibility_scores
from .engine.cache import ResponseCache
from .engine.client import EngineClient
from .engine.ledger import CostLedger
from .engine.live import ChatCompletionBackend, ENV_CACHE_DIR
from .engine.types import (
    ORIGIN_ADVERTISER,
    ORIGIN_RETRIEVED,
    Role,
    SourceDocument,
    Stage,
)
from .errors import EngineError, IntegrityError, ValidationError
from .features import (
    FeatureCatalog,
    FeatureVector,
    catalog_default,
    clamp,
    render_guidelines,
)
from .optimizer import (
    EvalKey,
    EvalUnit,
    EvolveResult,
    GAConfig,
    HypervolumeTrace,
    OptimizerAbort,
    POLICIES,
    evolve,
    select_final,
)
from .quality import QualityConfig, aggregate_quality, average_quality
from .records import EvalMetric, ProbeResult, RunRecord
from .sim import SimBackend, SimConfig, SimWorld

logger = logging.getLogger(__name__)

BACKEND_SIM = "sim"
BACKEND_LIVE = "live"
JUDGE_TARGET_ANSWER = "answer"
JUDGE_TARGET_PAGE = "page"
POSITION_LAST = "last"
POSITION_FIRST = "first"


# Fields that say where a run writes and how many threads it uses, not what
# it computes: the manifest's config snapshot leaves them out.
DEPLOYMENT_FIELDS = ("output_dir", "eval_workers", "cache_path")


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of one optimization run."""

    topic: str
    competitor_docs: tuple[Path, ...]
    output_dir: Path = Path("runs/run")
    query_count: int = 5
    exemplar_count: int = 5
    backend: str = BACKEND_SIM
    advertiser_position: str = POSITION_LAST
    judge_target: str = JUDGE_TARGET_ANSWER
    regenerate_page_per_repeat: bool = False
    eval_workers: int = 1
    cache_path: Path | None = None
    salt: str = ""
    ga: GAConfig = GAConfig()
    quality: QualityConfig = QualityConfig()
    sim: SimConfig | None = None

    def __post_init__(self):
        if not self.topic.strip():
            raise ValidationError("run config needs a topic label")
        if self.query_count < 1:
            raise ValidationError(f"query count must be >= 1, got {self.query_count}")
        if self.exemplar_count < 1:
            raise ValidationError(f"exemplar count must be >= 1, got {self.exemplar_count}")
        if self.backend not in (BACKEND_SIM, BACKEND_LIVE):
            raise ValidationError(f"backend must be 'sim' or 'live', got {self.backend!r}")
        if self.backend == BACKEND_SIM and self.sim is None:
            raise ValidationError("sim backend requires a sim section in the config")
        if self.advertiser_position not in (POSITION_FIRST, POSITION_LAST):
            raise ValidationError(f"advertiser position must be 'first' or 'last', got {self.advertiser_position!r}")
        if self.judge_target not in (JUDGE_TARGET_ANSWER, JUDGE_TARGET_PAGE):
            raise ValidationError(f"judge target must be 'answer' or 'page', got {self.judge_target!r}")
        if self.eval_workers < 1:
            raise ValidationError(f"eval workers must be >= 1, got {self.eval_workers}")
        if not self.competitor_docs:
            raise ValidationError("run config needs at least one competitor document")

    @classmethod
    def from_file(cls, path: str | Path, **overrides: Any) -> "RunConfig":
        """Load a JSON run config; relative document paths resolve against the file."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ValidationError(f"config file not found: {path}")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read config file {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {path} is not valid JSON: {exc}")
        return _read_section(cls, raw, "", path.parent).with_overrides(**overrides)

    def with_overrides(
        self,
        seed: int | None = None,
        backend: str | None = None,
        output_dir: str | Path | None = None,
        **extra: Any,
    ) -> "RunConfig":
        """Apply CLI-style overrides; a seed override drives both GA and sim seeds."""
        cfg = self
        if seed is not None:
            cfg = dataclasses.replace(cfg, ga=dataclasses.replace(cfg.ga, seed=seed))
            if cfg.sim is not None:
                cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seed=seed))
        if backend is not None:
            cfg = dataclasses.replace(cfg, backend=backend)
        if output_dir is not None:
            cfg = dataclasses.replace(cfg, output_dir=Path(output_dir))
        if extra:
            cfg = dataclasses.replace(cfg, **extra)
        return cfg


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "true or false", list: "a list"}


def _expect(value: Any, kind: type, key: str) -> Any:
    """``value`` if its JSON type fits ``kind``: an int passes as a float, a bool as nothing else."""
    fits = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, fits):
        raise ValidationError(f"config key {key} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _items(value: Any, kind: type, key: str) -> list[Any]:
    return [_expect(item, kind, f"{key}[{i}]") for i, item in enumerate(_expect(value, list, key))]


def _doc_paths(value: Any, key: str, base: Path) -> tuple[Path, ...]:
    paths = tuple(base / entry for entry in _items(value, str, key))
    for path in paths:
        if not path.is_file():
            raise ValidationError(f"competitor document is not an existing file: {path}")
    return paths


def _vector(value: Any, key: str) -> FeatureVector:
    values = tuple(_items(value, float, key))
    try:
        return FeatureVector(values)
    except ValidationError as exc:
        raise ValidationError(f"config key {key}: {exc}") from exc


# Field types whose JSON form differs from the field value, with their readers.
_CONVERTERS: dict[Any, Callable[[Any, str, Path], Any]] = {
    tuple[Path, ...]: _doc_paths,
    Path: lambda value, key, base: Path(_expect(value, str, key)),
    Path | None: lambda value, key, base: None if value in (None, "") else Path(_expect(value, str, key)),
    tuple[float, ...]: lambda value, key, base: tuple(float(x) for x in _items(value, float, key)),
    tuple[FeatureVector, ...]: lambda value, key, base: tuple(
        _vector(row, f"{key}[{i}]") for i, row in enumerate(_expect(value, list, key))
    ),
}


def _read_section(cls: type, raw: Any, prefix: str, base: Path) -> Any:
    """Build config dataclass ``cls`` from a JSON object, field by field.

    Keys name fields; a missing key takes the field's default. ``prefix`` is
    the section's key path, so every error names the full key.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"config {prefix.rstrip('.') or 'file'} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(raw) - {f.name for f in fields})
    if unknown:
        raise ValidationError(f"unknown config key {prefix}{unknown[0]}")
    hints = get_type_hints(cls)
    values = {}
    for f in fields:
        key = prefix + f.name
        if f.name in raw:
            values[f.name] = _read_value(hints[f.name], raw[f.name], key, base)
        elif f.default is dataclasses.MISSING:
            raise ValidationError(f"missing config key {key}")
    return cls(**values)


def _read_value(kind: Any, value: Any, key: str, base: Path) -> Any:
    if kind in _CONVERTERS:
        return _CONVERTERS[kind](value, key, base)
    # A nested section, also an optional one (``SimConfig | None``).
    section = next((t for t in get_args(kind) or (kind,) if dataclasses.is_dataclass(t)), None)
    if section is not None:
        return _read_section(section, value, key + ".", base)
    return _expect(value, kind, key)


@dataclass(frozen=True)
class AblationResult:
    """Visibility contribution of one feature under minimum-clamping."""

    feature_key: str
    baseline_vis: float
    ablated_vis: float
    delta: float
    baseline_quality: float
    ablated_quality: float

    def __post_init__(self):
        if abs(self.delta - (self.baseline_vis - self.ablated_vis)) > 1e-9:
            raise ValidationError("ablation delta must equal baseline minus ablated visibility")


def load_documents(paths: Sequence[Path]) -> list[SourceDocument]:
    docs = []
    for i, path in enumerate(paths, start=1):
        try:
            text = Path(path).read_text(encoding="utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"competitor document {path} is not UTF-8 text: {exc}") from exc
        if not text:
            raise ValidationError(f"competitor document {path} is empty")
        docs.append(SourceDocument(id=i, text=text, origin=ORIGIN_RETRIEVED))
    return docs


def build_client(cfg: RunConfig, catalog: FeatureCatalog) -> EngineClient:
    if cfg.backend == BACKEND_SIM:
        backend = SimBackend(SimWorld(cfg.sim, catalog))
    else:
        backend = ChatCompletionBackend.from_env()
    cache_path = cfg.cache_path
    if cache_path is None and os.environ.get(ENV_CACHE_DIR):
        cache_path = Path(os.environ[ENV_CACHE_DIR]) / "responses.jsonl"
    cache = ResponseCache(cache_path) if cache_path else None
    return EngineClient(
        backend,
        catalog,
        cache=cache,
        ledger=CostLedger(),
        salt=cfg.salt,
        theme_doc_count=len(cfg.competitor_docs),
        max_answer_docs=len(cfg.competitor_docs) + 1,
    )


def probe_topic(
    cfg: RunConfig, client: EngineClient, docs: Sequence[SourceDocument] | None = None
) -> ProbeResult:
    """Probe the topic: queries, per-source citation frequencies, exemplar vectors.

    All costs book to the feature-extraction stage.
    """
    if docs is None:
        docs = load_documents(cfg.competitor_docs)
    client.set_stage(Stage.FEATURE_EXTRACTION)
    brief = client.extract_theme(docs, cfg.topic)
    queries = client.generate_queries(brief, cfg.query_count)
    parses = []
    for query in queries:
        answer = client.answer_query(query, docs, salt="probe")
        parses.append(parse_citations(answer, len(docs)))
    table = citation_frequency(parses)
    exemplar_ids = select_exemplars(table, cfg.exemplar_count)
    if not exemplar_ids:
        logger.warning("no source was cited during probing; falling back to all documents")
        exemplar_ids = [d.id for d in docs[: cfg.exemplar_count]]
    vectors = tuple(client.extract_features(docs[i - 1]) for i in exemplar_ids)
    return ProbeResult(
        queries=tuple(queries),
        frequencies=dict(table.frequencies),
        num_queries=table.num_queries,
        exemplar_ids=tuple(exemplar_ids),
        exemplar_vectors=vectors,
        brief=brief,
    )


class CandidateEvaluator:
    """Realizes candidate vectors into pages and scores them over the probe queries.

    ``evaluate_batch`` scores the (vector, (generation, slot, repeat)) units of
    one generation in two steps, each fanned out through ``query_map``: every
    page (one per slot, or one per unit with page regeneration per repeat),
    then every unit, whose answers and then judge calls run one after another.
    The builtin ``map`` runs a step inline, a pool's ``map`` runs it
    concurrently; either way results are assembled in key order. Repeats
    re-answer with fresh salts. An engine failure fails only its unit, which
    makes no further calls and scores the penalty objectives (0, 0).
    """

    def __init__(
        self,
        cfg: RunConfig,
        client: EngineClient,
        probe: ProbeResult,
        competitor_docs: Sequence[SourceDocument],
        catalog: FeatureCatalog,
        query_map: Callable[..., Iterable] = map,
    ):
        self.cfg = cfg
        self.query_map = query_map
        self.client = client
        self.probe = probe
        self.competitors = list(competitor_docs)
        self.catalog = catalog
        self.metrics: list[EvalMetric] = []
        self.realizations = 0
        self.advertiser_id = len(self.competitors) + 1

    def __call__(self, x: FeatureVector, key: EvalKey) -> tuple[float, float]:
        return self.evaluate_batch([(x, key)])[0]

    def evaluate_batch(self, units: Sequence[EvalUnit]) -> list[tuple[float, float]]:
        """(visibility, quality) per unit, in unit order; all units share one generation."""
        _, (generation, _, _) = units[0]
        self.client.set_stage(Stage.INITIAL_POPULATION if generation == 0 else Stage.GA_OPTIMIZATION)
        pages = self._realize(units)
        objectives = []
        for (_, key), outcome in zip(units, self.query_map(self._score_unit, pages, units)):
            if isinstance(outcome, EngineError):
                logger.warning(
                    "candidate (gen %d, slot %d, rep %d) failed: %s; assigning penalty objectives",
                    *key, outcome,
                )
                outcome = EvalMetric(*key, 0.0, 0.0, 0.0, 0.0, (), failed=True)
            self.metrics.append(outcome)
            objectives.append((outcome.visibility, outcome.quality))
        return objectives

    def _realize(self, units: Sequence[EvalUnit]) -> list[str | EngineError]:
        """Page per unit, or the EngineError that failed it; the units of one slot
        share a page unless pages regenerate per repeat.

        A shared page is asked for once per repeat it serves, in repeat order,
        until one request succeeds: exactly the repeats before it fail.
        """
        groups: dict[Any, list[int]] = {}
        for i, (_, (generation, slot, _)) in enumerate(units):
            groups.setdefault(i if self.cfg.regenerate_page_per_repeat else (generation, slot), []).append(i)

        def realize(group: list[int]) -> list[str | EngineError]:
            guidelines = render_guidelines(clamp(units[group[0]][0], self.catalog), self.catalog)
            outcomes: list[str | EngineError] = []
            while len(outcomes) < len(group):
                try:
                    page = self.client.generate_page(self.probe.brief, guidelines)
                except EngineError as exc:
                    outcomes.append(exc)
                    continue
                outcomes += [page] * (len(group) - len(outcomes))
            return outcomes

        pages: dict[int, str | EngineError] = {}
        for group, outcomes in zip(groups.values(), self.query_map(realize, groups.values())):
            if not isinstance(outcomes[-1], EngineError):
                self.realizations += 1
            pages.update(zip(group, outcomes))
        return [pages[i] for i in range(len(units))]

    def _score_unit(self, page: str | EngineError, unit: EvalUnit) -> EvalMetric | EngineError:
        """One unit's metric, or the EngineError of its failed page or first failed call."""
        if isinstance(page, EngineError):
            return page
        _, (generation, slot, repeat) = unit
        docs = self._candidate_docs(page)
        salt = f"rep{repeat}"
        queries = self.probe.queries
        try:
            results = [self._score_query(q, docs, salt) for q in queries]
            vis_values, word_values, pos_values, answers = zip(*results)
            if self.cfg.judge_target == JUDGE_TARGET_ANSWER:
                judged = list(zip(answers, queries))
            else:
                judged = [(page, self.probe.brief.topic)]
            judgements = [self._judge(text, query, salt) for text, query in judged]
        except EngineError as exc:
            return exc
        quality = sum(value for value, _ in judgements) / len(judgements)
        judge_scores = tuple(dims for _, raw in judgements for dims in raw)
        n = len(vis_values)
        return EvalMetric(
            generation=generation,
            slot=slot,
            repeat=repeat,
            visibility=sum(vis_values) / n,
            quality=quality,
            word=sum(word_values) / n,
            pos=sum(pos_values) / n,
            per_query_vis=vis_values,
            judge_scores=judge_scores,
        )

    def _candidate_docs(self, page: str) -> list[SourceDocument]:
        advertiser = SourceDocument(id=self.advertiser_id, text=page, origin=ORIGIN_ADVERTISER)
        if self.cfg.advertiser_position == POSITION_FIRST:
            return [advertiser] + self.competitors
        return self.competitors + [advertiser]

    def _score_query(self, query: str, docs: list[SourceDocument], salt: str):
        answer = self.client.answer_query(query, docs, salt=salt)
        parse = parse_citations(answer, len(docs))
        word, pos, vis = visibility_scores(parse).for_source(self.advertiser_id)
        return vis, word, pos, answer

    def _judge(self, text: str, query: str, salt: str) -> tuple[float, tuple[tuple[int, ...], ...]]:
        dims = [
            self.client.judge_quality(text, query, salt=f"{salt}|judge{r}")
            for r in range(self.cfg.quality.repeats)
        ]
        scores = [aggregate_quality(d, self.cfg.quality) for d in dims]
        raw = tuple(tuple(d.content_scores() + d.appeal_scores()) for d in dims)
        return average_quality(scores).value, raw


def _expected_realizations(cfg: RunConfig) -> int:
    per_candidate = cfg.ga.repeats_per_eval if cfg.regenerate_page_per_repeat else 1
    candidates = cfg.ga.population_size * (cfg.ga.generations + 1)
    return candidates * per_candidate


def _to_json(value: Any) -> Any:
    """A config value in its JSON form: sections as objects, tuples and vectors as lists."""
    if isinstance(value, FeatureVector):
        return list(value.values)
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return value


def _config_snapshot(cfg: RunConfig, docs: Sequence[SourceDocument]) -> dict[str, Any]:
    """Every set field but the deployment ones, in field order.

    Location-independent: doc contents enter by digest, not by path.
    """
    snapshot = {
        f.name: _to_json(getattr(cfg, f.name))
        for f in dataclasses.fields(cfg)
        if f.name not in DEPLOYMENT_FIELDS and getattr(cfg, f.name) is not None
    }
    snapshot["competitor_docs"] = [
        {"name": Path(p).name, "sha256": hashlib.sha256(d.text.encode("utf-8")).hexdigest()}
        for p, d in zip(cfg.competitor_docs, docs)
    ]
    return snapshot


def run_optimization(
    cfg: RunConfig,
    frozen_features: Mapping[int, float] | None = None,
    run_dir: Path | None = None,
) -> RunRecord:
    """Execute the full loop: probe, seed, evolve, select, verify, persist, report.

    The report is built from the persisted run directory, exactly as
    ``featgeo report`` rebuilds it later.
    """
    catalog = catalog_default()
    client = build_client(cfg, catalog)
    run_dir = Path(run_dir) if run_dir is not None else Path(cfg.output_dir)
    record = RunRecord(ledger=client.ledger, run_dir=run_dir)
    try:
        docs = load_documents(cfg.competitor_docs)
        record.config_snapshot = _config_snapshot(cfg, docs)
        if frozen_features:
            record.config_snapshot["frozen_features"] = {
                catalog.features[i].key: v for i, v in sorted(frozen_features.items())
            }
        probe = probe_topic(cfg, client, docs)
        record.probe = probe
        seeds = list(probe.exemplar_vectors)
        if frozen_features:
            seeds = [
                FeatureVector(tuple(frozen_features.get(i, v) for i, v in enumerate(x.values)))
                for x in seeds
            ]
        # One pool for the whole run; at one worker the builtin map runs inline, with no hand-off.
        workers = cfg.eval_workers
        with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            evaluator = CandidateEvaluator(
                cfg, client, probe, docs, catalog, pool.map if pool else map
            )
            result: EvolveResult = evolve(
                cfg.ga, evaluator, seeds, catalog, frozen_features=frozen_features
            )
        record.log = result.log
        record.front = result.front
        record.trace = result.trace
        record.eval_metrics = tuple(evaluator.metrics)
        record.finals = {policy: select_final(result.front, policy) for policy in POLICIES}
        _verify_run(cfg, client, evaluator)
    except Exception as exc:
        if isinstance(exc, OptimizerAbort):
            record.log = exc.partial_log
            record.trace = HypervolumeTrace(exc.partial_trace)
        record.status = "failed"
        record.error = str(exc)
        records.write_run_record(record, run_dir)
        raise
    records.write_run_record(record, run_dir)
    report.export_report(report.load_report_data(run_dir), run_dir / report.REPORT_DIR_NAME)
    return record


def _verify_run(cfg: RunConfig, client: EngineClient, evaluator: CandidateEvaluator) -> None:
    expected = _expected_realizations(cfg)
    booked = client.ledger.role_requests(Role.PAGE_GEN)
    if evaluator.realizations != expected or booked != expected:
        raise IntegrityError(
            f"page generation accounting mismatch: expected {expected} realizations, "
            f"evaluator saw {evaluator.realizations}, ledger booked {booked}"
        )


def run_ablation(
    cfg: RunConfig, feature_key: str, baseline: RunRecord | None = None
) -> AblationResult:
    """Re-run the optimization with one feature clamped to its minimum (Fig.-style sweep unit).

    The delta is the max-visibility solution's visibility drop; quality is
    recorded for the same solutions.
    """
    catalog = catalog_default()
    index = catalog.index_of(feature_key)
    lo = catalog.features[index].lo
    base_dir = Path(cfg.output_dir)
    if baseline is None:
        baseline = run_optimization(cfg, run_dir=base_dir / "baseline")
    ablated = run_optimization(
        cfg, frozen_features={index: lo}, run_dir=base_dir / f"ablate_{feature_key}"
    )
    base_best = baseline.finals["max_visibility"]
    abl_best = ablated.finals["max_visibility"]
    return AblationResult(
        feature_key=feature_key,
        baseline_vis=base_best.objectives[0],
        ablated_vis=abl_best.objectives[0],
        delta=base_best.objectives[0] - abl_best.objectives[0],
        baseline_quality=base_best.objectives[1],
        ablated_quality=abl_best.objectives[1],
    )


def run_ablation_sweep(cfg: RunConfig) -> list[AblationResult]:
    """Clamp each of the 13 features in turn against one shared baseline run."""
    catalog = catalog_default()
    baseline = run_optimization(cfg, run_dir=Path(cfg.output_dir) / "baseline")
    return [run_ablation(cfg, feat.key, baseline=baseline) for feat in catalog]
