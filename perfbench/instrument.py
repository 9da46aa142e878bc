"""Measurement hooks installed from outside the featgeo package.

Every hook replaces an attribute at the name its caller looks up (for example
``featgeo.pipeline.parse_citations`` or ``EngineClient.answer_query``) and puts
the original back afterwards, so nothing under ``src/`` changes.

Two kinds of hooks exist:

* ``Counters`` are always on. They count engine requests at the client's
  request boundary (``build_request``) and calls at the backend, which is also
  where the latency workload injects its delay.
* ``Tracer`` records spans (name, start, end, parent) per thread around calls
  into each layer. It is installed only for traced rounds.

``recording_optimizer`` also keeps the inputs and outputs of the NSGA-II sort
and crowding calls, for the checks in ``oracle.py``.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

import featgeo.engine.client as engine_client
import featgeo.features as features
import featgeo.optimizer as optimizer
import featgeo.pipeline as pipeline
import featgeo.records as records
import featgeo.report as report
import featgeo.sim as sim
from featgeo.engine.cache import ResponseCache
from featgeo.engine.client import EngineClient
from featgeo.engine.ledger import CostLedger
from featgeo.engine.types import Role, estimate_tokens


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


# -- always-on counters --------------------------------------------------------


class Counters:
    """Thread-safe counts at the client request boundary and at the backend."""

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests: dict[str, int] = defaultdict(int)
            self.request_tokens: dict[str, int] = defaultdict(int)
            self.backend_calls: dict[str, int] = defaultdict(int)
            self.backend_tokens: dict[str, int] = defaultdict(int)
            self.backend_busy_s = 0.0
            self.inflight = 0
            self.max_inflight = 0

    def count_request(self, role: Role, prompt: str) -> None:
        with self._lock:
            self.requests[role.value] += 1
            self.request_tokens[role.value] += estimate_tokens(prompt)

    @contextlib.contextmanager
    def backend_call(self, role: Role, prompt: str) -> Iterator[None]:
        start = time.perf_counter()
        with self._lock:
            self.backend_calls[role.value] += 1
            self.backend_tokens[role.value] += estimate_tokens(prompt)
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.inflight -= 1
                self.backend_busy_s += elapsed


class MeasuredBackend:
    """Wraps a sim backend: optional fixed delay per call, counts, optional span.

    The delay is a ``time.sleep``, which releases the GIL, so concurrent
    evaluation can overlap it as it would overlap a live round-trip. Responses
    pass through untouched (``elapsed_seconds`` included), so the run's
    ``cost.json`` is the same with and without the delay.
    """

    def __init__(self, inner, counters: Counters, delay_s: float, tracer: "Tracer | None"):
        self.inner = inner
        self.counters = counters
        self.delay_s = delay_s
        self.tracer = tracer

    def complete(self, request):
        span = self.tracer.span("engine.backend") if self.tracer else contextlib.nullcontext()
        with span, self.counters.backend_call(request.role, request.prompt):
            if self.delay_s:
                time.sleep(self.delay_s)
            return self.inner.complete(request)


@contextlib.contextmanager
def counting(counters: Counters, delay_s: float = 0.0, tracer: "Tracer | None" = None):
    """Count client requests and backend calls of every sim client built inside."""
    patches = Patches()
    build_request = engine_client.build_request
    sim_backend = pipeline.SimBackend

    def counted_build_request(role, prompt, salt="", payload=None):
        counters.count_request(role, prompt)
        return build_request(role, prompt, salt=salt, payload=payload)

    def measured_backend(world):
        return MeasuredBackend(sim_backend(world), counters, delay_s, tracer)

    patches.set(engine_client, "build_request", counted_build_request)
    patches.set(pipeline, "SimBackend", measured_backend)
    try:
        yield counters
    finally:
        patches.undo()


class OptimizerLog:
    """Inputs and outputs of ``non_dominated_sort`` and ``crowding_distance`` calls."""

    def __init__(self):
        self.sorts: list[tuple[list, list[list[int]], list]] = []
        self.crowdings: list[tuple[list, list[float], list[float]]] = []


@contextlib.contextmanager
def recording_optimizer(log: OptimizerLog):
    """Record every sort (fronts as input positions) and crowding call made inside."""
    patches = Patches()
    sort, crowding = optimizer.non_dominated_sort, optimizer.crowding_distance

    def recorded_sort(pop):
        fronts = sort(pop)
        where = {id(ind): i for i, ind in enumerate(pop)}
        log.sorts.append((
            [ind.objectives for ind in pop],
            [[where.get(id(ind), -1) for ind in front] for front in fronts],
            [ind.rank for ind in pop],
        ))
        return fronts

    def recorded_crowding(front):
        distances = crowding(front)
        log.crowdings.append(([ind.objectives for ind in front], list(distances), [ind.crowding for ind in front]))
        return distances

    patches.set(optimizer, "non_dominated_sort", recorded_sort)
    patches.set(optimizer, "crowding_distance", recorded_crowding)
    try:
        yield log
    finally:
        patches.undo()


# -- tracing -------------------------------------------------------------------


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # Same-thread children run nested and one after another, so the part
        # of this span they cover is the sum of their durations.
        return self.duration - self.child_s


class Tracer:
    """In-memory spans, one parent stack per thread.

    A span started on a pool thread has no parent: the evaluator thread that
    waits for the pool keeps that wait in its own self time.
    """

    def __init__(self):
        self._local = threading.local()
        self.spans: list[Span] = []
        self.observed: dict[str, Any] = {}
        self.parses: list = []
        self._observe_lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        current = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(current)
        try:
            yield current
        finally:
            current.end = time.perf_counter()
            stack.pop()
            if current.parent is not None:
                current.parent.child_s += current.duration
            self.spans.append(current)  # list.append is atomic under the GIL

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                with tracer._observe_lock:
                    observe(result, *args)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost span of the name), self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for s in self.spans:
            entry = out[s.name]
            entry["calls"] += 1
            entry["self_s"] += s.self_s
            ancestor = s.parent
            while ancestor is not None and ancestor.name != s.name:
                ancestor = ancestor.parent
            if ancestor is None:
                entry["s"] += s.duration
        return out


_SIM_ROLE_SPANS = {Role.PAGE_GEN: "sim.page", Role.JUDGE: "sim.judge"}


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Install span wrappers at every layer boundary the benchmark reports on."""
    patches = Patches()
    obs = tracer.observed
    wrap = tracer.wrap

    def keep_parse(result, *args):
        tracer.parses.append(result)

    def sort_size(result, pop, *args):
        obs["optimizer.sort_max_n"] = max(obs.get("optimizer.sort_max_n", 0), len(pop))

    def cache_hit(result, *args):
        obs["engine.cache.hits"] = obs.get("engine.cache.hits", 0) + (result is not None)

    def cache_loaded(result, *args):
        obs["engine.cache.records_loaded"] = obs.get("engine.cache.records_loaded", 0) + len(result)

    def eval_outcome(result, evaluator, *args):
        obs["pipeline.eval_failed"] = obs.get("pipeline.eval_failed", 0) + evaluator.metrics[-1].failed
        obs["pipeline.realizations"] = evaluator.realizations

    sim_complete = sim.SimBackend.complete

    def traced_sim_complete(self, request):
        with tracer.span(_SIM_ROLE_SPANS.get(request.role, "sim.complete")):
            return sim_complete(self, request)

    patches.set(pipeline, "parse_citations", wrap("citations.parse", pipeline.parse_citations, keep_parse))
    patches.set(pipeline, "visibility_scores", wrap("citations.visibility", pipeline.visibility_scores))
    patches.set(sim, "sim_answer", wrap("sim.answer", sim.sim_answer))
    patches.set(sim, "extract_profile", wrap("sim.profile_decode", sim.extract_profile))
    patches.set(sim.SimBackend, "complete", traced_sim_complete)
    for method in ("generate_queries", "extract_theme", "extract_features", "generate_page",
                   "answer_query", "judge_quality"):
        patches.set(EngineClient, method, wrap("engine.client", getattr(EngineClient, method)))
    patches.set(pipeline, "ResponseCache", wrap("engine.cache.load", ResponseCache, cache_loaded))
    patches.set(ResponseCache, "get", wrap("engine.cache.get", ResponseCache.get, cache_hit))
    patches.set(ResponseCache, "put", wrap("engine.cache.put", ResponseCache.put))
    patches.set(CostLedger, "record_call", wrap("engine.ledger.record", CostLedger.record_call))
    patches.set(pipeline, "probe_topic", wrap("pipeline.probe", pipeline.probe_topic))
    patches.set(pipeline.CandidateEvaluator, "__call__",
                wrap("pipeline.eval", pipeline.CandidateEvaluator.__call__, eval_outcome))
    patches.set(pipeline, "render_guidelines", wrap("features.render_guidelines", pipeline.render_guidelines))
    clamp = wrap("features.clamp", features.clamp)
    for module in (pipeline, optimizer, features, sim):
        patches.set(module, "clamp", clamp)
    for module in (pipeline, sim):
        patches.set(module, "aggregate_quality", wrap("quality.aggregate", module.aggregate_quality))
    patches.set(optimizer, "non_dominated_sort", wrap("optimizer.sort", optimizer.non_dominated_sort, sort_size))
    patches.set(optimizer, "crowding_distance", wrap("optimizer.crowding", optimizer.crowding_distance))
    patches.set(optimizer, "pareto_front_of", wrap("optimizer.front_of", optimizer.pareto_front_of))
    patches.set(optimizer.ParetoFront, "__post_init__",
                wrap("optimizer.front_check", optimizer.ParetoFront.__post_init__))
    patches.set(optimizer, "hypervolume", wrap("optimizer.hypervolume", optimizer.hypervolume))
    for name in ("seed_population", "uniform_crossover", "gaussian_mutate"):
        patches.set(optimizer, name, wrap("optimizer.variation", getattr(optimizer, name)))
    evolve = wrap("optimizer.evolve", optimizer.evolve)
    patches.set(optimizer, "evolve", evolve)
    patches.set(pipeline, "evolve", evolve)
    patches.set(records, "write_run_record", wrap("records.write", records.write_run_record))
    patches.set(report, "export_report", wrap("report.export", report.export_report))
    try:
        yield tracer
    finally:
        patches.undo()


def layer_metrics(tracer: Tracer, counters: Counters, run_s: float, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced round, named as in BENCHMARK.json."""
    spans = tracer.summary()
    obs = tracer.observed

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def inclusive(name):
        return spans[name]["s"] if name in spans else 0.0

    def own(name):
        return spans[name]["self_s"] if name in spans else 0.0

    gets = calls("engine.cache.get")
    out = {
        "citations.parse_calls": calls("citations.parse"),
        "citations.parse_s": inclusive("citations.parse"),
        "citations.visibility_s": inclusive("citations.visibility"),
        "sim.answer_calls": calls("sim.answer"),
        "sim.answer_s": inclusive("sim.answer"),
        "sim.profile_decode_calls": calls("sim.profile_decode"),
        "sim.profile_decode_s": inclusive("sim.profile_decode"),
        "sim.page_s": inclusive("sim.page"),
        "sim.judge_s": inclusive("sim.judge"),
        "sim.direct_eval_calls": calls("sim.direct_eval"),
        "sim.direct_eval_s": inclusive("sim.direct_eval"),
        "engine.client.requests": sum(counters.requests.values()),
        "engine.client.self_s": own("engine.client"),
        "engine.backend.calls": sum(counters.backend_calls.values()),
        "engine.backend.busy_s": counters.backend_busy_s,
        "engine.backend.mean_inflight": counters.backend_busy_s / run_s,
        "engine.backend.max_inflight": counters.max_inflight,
        "engine.cache.load_s": inclusive("engine.cache.load"),
        "engine.cache.records_loaded": obs.get("engine.cache.records_loaded", 0),
        "engine.cache.get_calls": gets,
        "engine.cache.get_s": inclusive("engine.cache.get"),
        "engine.cache.hit_ratio": obs.get("engine.cache.hits", 0) / gets if gets else 0.0,
        "engine.cache.put_calls": calls("engine.cache.put"),
        "engine.cache.put_s": inclusive("engine.cache.put"),
        "engine.ledger.record_calls": calls("engine.ledger.record"),
        "engine.ledger.record_s": inclusive("engine.ledger.record"),
        "pipeline.probe_s": inclusive("pipeline.probe"),
        "pipeline.eval_calls": calls("pipeline.eval"),
        "pipeline.eval_failed": obs.get("pipeline.eval_failed", 0),
        "pipeline.eval_s": inclusive("pipeline.eval"),
        "pipeline.eval_self_s": own("pipeline.eval"),
        "pipeline.realizations": obs.get("pipeline.realizations", 0),
        "features.render_guidelines_s": inclusive("features.render_guidelines"),
        "features.clamp_calls": calls("features.clamp"),
        "features.clamp_s": inclusive("features.clamp"),
        "quality.aggregate_calls": calls("quality.aggregate"),
        "quality.aggregate_s": inclusive("quality.aggregate"),
        "optimizer.sort_calls": calls("optimizer.sort"),
        "optimizer.sort_max_n": obs.get("optimizer.sort_max_n", 0),
        "optimizer.sort_s": inclusive("optimizer.sort"),
        "optimizer.crowding_s": inclusive("optimizer.crowding"),
        "optimizer.front_of_s": inclusive("optimizer.front_of"),
        "optimizer.front_check_s": inclusive("optimizer.front_check"),
        "optimizer.hypervolume_s": inclusive("optimizer.hypervolume"),
        "optimizer.variation_s": inclusive("optimizer.variation"),
        "optimizer.evolve_self_s": own("optimizer.evolve"),
        "records.write_s": inclusive("records.write"),
        "report.export_s": inclusive("report.export"),
    }
    out.update(extra)
    return out
