"""End-to-end orchestration: topic probing, candidate evaluation, optimization runs.

A run probes the topic (queries, citation frequencies, exemplar extraction),
seeds the optimizer from the exemplar configurations, evaluates candidates by
realizing them into pages and injecting them next to the competitor documents,
and persists a fully replayable record of everything it did.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from . import records, report
from .citations import citation_frequency, parse_citations, select_exemplars, visibility_scores
from .engine.cache import ENV_CACHE_DIR, ResponseCache
from .engine.client import EngineClient
from .engine.live import ChatCompletionBackend
from .engine.types import SourceDocument, Stage, text_digest
from .errors import EngineError, ValidationError
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
    GAConfig,
    POLICIES,
    evolve,
    select_final,
)
from .quality import QualityConfig, aggregate_quality
from .records import EvalMetric, ProbeResult, RunRecord
from .schema import read_section, read_text
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
            raw = json.loads(read_text(path, "config file"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {path} is not valid JSON: {exc}")
        cfg = read_section(cls, raw, "", path.parent)
        if "seed" in overrides:  # one seed drives both the GA and the sim seed
            seed = overrides.pop("seed")
            sim = None if cfg.sim is None else dataclasses.replace(cfg.sim, seed=seed)
            cfg = dataclasses.replace(cfg, ga=dataclasses.replace(cfg.ga, seed=seed), sim=sim)
        if "output_dir" in overrides:
            overrides["output_dir"] = Path(overrides["output_dir"])
        return dataclasses.replace(cfg, **overrides) if overrides else cfg


@dataclass(frozen=True)
class AblationResult:
    """Visibility contribution of one feature under minimum-clamping."""

    feature_key: str
    baseline_vis: float
    ablated_vis: float
    baseline_status: str  # RunRecord.status of each run: complete, degraded or failed
    ablated_status: str

    @property
    def delta(self) -> float:
        return self.baseline_vis - self.ablated_vis


def load_documents(paths: Sequence[Path]) -> list[SourceDocument]:
    docs = []
    for i, path in enumerate(paths, start=1):
        text = read_text(Path(path), "competitor document").strip()
        if not text:
            raise ValidationError(f"competitor document {path} is empty")
        docs.append(SourceDocument(id=i, text=text))
    return docs


def build_client(cfg: RunConfig, catalog: FeatureCatalog, docs: Sequence[SourceDocument] = ()) -> EngineClient:
    """The run's client. Under the sim, the world built here first finds each of ``docs``' latent vector."""
    if cfg.backend == BACKEND_SIM:
        world = SimWorld(cfg.sim, catalog)
        for doc in docs:
            world.source_state(doc)
        backend = SimBackend(world)
    else:
        backend = ChatCompletionBackend.from_env()
    cache_path = cfg.cache_path
    if cache_path is None and os.environ.get(ENV_CACHE_DIR):
        cache_path = Path(os.environ[ENV_CACHE_DIR]) / "responses.jsonl"
    cache = ResponseCache(cache_path) if cache_path else None
    return EngineClient(backend, catalog, cache=cache, salt=cfg.salt)


def probe_topic(cfg: RunConfig, client: EngineClient, docs: Sequence[SourceDocument]) -> ProbeResult:
    """Probe the topic: queries, per-source citation frequencies, exemplar vectors.

    All costs book to the feature-extraction stage.
    """
    client.stage = Stage.FEATURE_EXTRACTION
    brief = client.extract_theme(docs, cfg.topic)
    queries = client.generate_queries(brief, cfg.query_count)
    parses = []
    for query in queries:
        answer = client.answer_query(query, docs, salt="probe")
        parses.append(parse_citations(answer, len(docs)))
    frequencies = citation_frequency(parses)
    exemplar_ids = select_exemplars(frequencies, cfg.exemplar_count)
    if not exemplar_ids:
        exemplar_ids = [d.id for d in docs[: cfg.exemplar_count]]
        logger.warning("no source was cited during probing; falling back to the first %d documents", len(exemplar_ids))
    vectors = tuple(client.extract_features(docs[i - 1]) for i in exemplar_ids)
    return ProbeResult(
        queries=tuple(queries),
        frequencies=frequencies,
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
    re-answer with fresh salts. A failed page fails every unit it serves; any
    other engine failure fails only its unit, which makes no further calls.
    A failed unit has no objectives: ``evaluate_batch`` returns None in its place.
    """

    def __init__(
        self,
        cfg: RunConfig,
        client: EngineClient,
        probe: ProbeResult,
        competitor_docs: Sequence[SourceDocument],
        query_map: Callable[..., Iterable] = map,
    ):
        self.cfg = cfg
        self.query_map = query_map
        self.client = client
        self.probe = probe
        self.competitors = list(competitor_docs)
        self.metrics: list[EvalMetric] = []
        self.realizations = 0
        self.advertiser_id = len(self.competitors) + 1

    def __call__(self, x: FeatureVector, key: EvalKey) -> tuple[float, float] | None:
        """One unit's objectives, or None for a failed unit, as ``evaluate_batch`` gives them."""
        return self.evaluate_batch([(x, key)])[0]

    def evaluate_batch(self, units: Sequence[EvalUnit]) -> list[tuple[float, float] | None]:
        """(visibility, quality) per unit in unit order, None for a failed one; all units share one generation."""
        _, (generation, _, _) = units[0]
        self.client.stage = Stage.INITIAL_POPULATION if generation == 0 else Stage.GA_OPTIMIZATION
        pages = self._realize(units)
        objectives = []
        for (_, key), outcome in zip(units, self.query_map(self._score_unit, pages, units)):
            if isinstance(outcome, EngineError):
                logger.warning("candidate (gen %d, slot %d, rep %d) failed: %s", *key, outcome)
                self.metrics.append(EvalMetric(*key, 0.0, 0.0, 0.0, 0.0, (), failed=True))
                objectives.append(None)
            else:
                self.metrics.append(outcome)
                objectives.append((outcome.visibility, outcome.quality))
        return objectives

    def _realize(self, units: Sequence[EvalUnit]) -> list[str | EngineError]:
        """Page per unit, or the EngineError that failed it. The units of one
        slot share one page request unless pages regenerate per repeat; a page
        that fails fails every unit it serves."""
        regenerate = self.cfg.regenerate_page_per_repeat
        keys = [i if regenerate else key[:2] for i, (_, key) in enumerate(units)]
        first_units: dict[Any, EvalUnit] = {}
        for key, unit in zip(keys, units):
            first_units.setdefault(key, unit)

        def realize(unit: EvalUnit) -> str | EngineError:
            x, (_, _, repeat) = unit
            catalog = self.client.catalog
            guidelines = render_guidelines(clamp(x, catalog), catalog)
            # A page of its own per repeat needs its own request, or a cache replays the first.
            salt = f"rep{repeat}" if regenerate else ""
            try:
                return self.client.generate_page(self.probe.brief, guidelines, salt=salt)
            except EngineError as exc:
                return exc

        pages = dict(zip(first_units, self.query_map(realize, first_units.values())))
        self.realizations += len(pages)
        return [pages[key] for key in keys]

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
        advertiser = SourceDocument(id=self.advertiser_id, text=page)
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
        return sum(scores) / len(scores), tuple(dims)


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
        {"name": Path(p).name, "sha256": text_digest(d.text)}
        for p, d in zip(cfg.competitor_docs, docs)
    ]
    return snapshot


def run_optimization(
    cfg: RunConfig,
    frozen_features: Mapping[int, float] | None = None,
    run_dir: Path | None = None,
) -> RunRecord:
    """Execute the full loop: probe, seed, evolve, select, persist, report.

    Every input (config, competitor documents and, under the sim, their latent vectors,
    backend settings, response cache) is read before the first run-directory write, so
    an input error raises ValidationError and leaves ``run_dir`` as it was. The report is
    built from the persisted run directory, exactly as ``featgeo report`` rebuilds it
    later. The record's status follows its failed evaluations (``RunRecord.settle_status``).
    A later exception writes a failed record, as far as the run got, and is raised.
    """
    catalog = catalog_default()
    docs = load_documents(cfg.competitor_docs)
    client = build_client(cfg, catalog, docs)
    run_dir = Path(run_dir) if run_dir is not None else Path(cfg.output_dir)
    record = RunRecord(ledger=client.ledger, config_snapshot=_config_snapshot(cfg, docs))
    if frozen_features:
        record.config_snapshot["frozen_features"] = {
            catalog.features[i].key: v for i, v in sorted(frozen_features.items())
        }
    try:
        probe = probe_topic(cfg, client, docs)
        record.probe = probe
        # One pool for the whole run; at one worker the builtin map runs inline, with no hand-off.
        workers = cfg.eval_workers
        with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            evaluator = CandidateEvaluator(cfg, client, probe, docs, pool.map if pool else map)
            record.eval_metrics = evaluator.metrics  # so an aborted run keeps every evaluation that ran
            evolve(cfg.ga, evaluator, probe.exemplar_vectors, catalog, frozen_features=frozen_features,
                   on_generation=lambda result: setattr(record, "result", result))  # a failed run keeps the last one
        record.settle_status()
        record.finals = {policy: select_final(record.result.front, policy) for policy in POLICIES}
    except Exception as exc:
        record.status = "failed"
        record.error = str(exc)
        records.write_run_record(record, run_dir)
        raise
    records.write_run_record(record, run_dir)
    report.export_report(run_dir, overwrite=True)
    return record


def run_ablation(cfg: RunConfig, feature_keys: Sequence[str]) -> list[AblationResult]:
    """One ``baseline/`` run, then one ``ablate_<key>/`` run per key with that feature at its minimum.

    Every key is checked before any run starts. A delta is the max-visibility
    solution's visibility drop; each run's ``final_solutions.json`` holds the
    quality of the same solutions.
    """
    catalog = catalog_default()
    indices = [catalog.index_of(key) for key in feature_keys]
    base_dir = Path(cfg.output_dir)
    baseline = run_optimization(cfg, run_dir=base_dir / "baseline")
    results = []
    for key, index in zip(feature_keys, indices):
        frozen = {index: catalog.features[index].lo}
        ablated = run_optimization(cfg, frozen_features=frozen, run_dir=base_dir / f"ablate_{key}")
        results.append(AblationResult(
            feature_key=key,
            baseline_vis=baseline.finals["max_visibility"].objectives[0],
            ablated_vis=ablated.finals["max_visibility"].objectives[0],
            baseline_status=baseline.status,
            ablated_status=ablated.status,
        ))
    return results
