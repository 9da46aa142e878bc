"""The three workloads: set-up, one timed round, and the checks on its output.

A round is the unit a run repeats until its time is up. Every round of a run
does the same operations on the same inputs, which derive from the workload
seed alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import featgeo.optimizer as optimizer
import featgeo.pipeline as pipeline
import featgeo.sim as sim
from featgeo.bundled import default_sim_config_path
from featgeo.features import catalog_default

import oracle
from instrument import (Counters, OptimizerLog, Tracer, counting, layer_metrics,
                        recording_optimizer, tracing)
from speed import bracketed

# sim_latency: fixed delay before every backend call, and evaluation workers.
LATENCY_DELAY_S = 0.003
LATENCY_WORKERS = 2
# sim_latency: cold `featgeo report` runs per round, on the round's run directory.
REPORT_CLI_REPEATS = 3
# sim_*: how many sim seeds a run covers, derived from the workload seed. A
# replay round is short, so a sim_replay run has time for more of them.
LATENCY_SIM_SEEDS = 3
REPLAY_SIM_SEEDS = 6

# evolve_oracle: criterion 5's set-up (five active features, the rest frozen
# at their midpoints, seeded from the competitor vectors). One evolve's cost
# follows the size of its archive, which differs widely between GA seeds, so a
# round runs several short evolves with seeds derived from the workload seed.
ORACLE_ACTIVE_FEATURES = (
    "statistics_level",
    "cite_sources_level",
    "quotation_level",
    "list_density",
    "length_level",
)
EVOLVE_RUNS = 10
EVOLVE_POPULATION = 64
EVOLVE_GENERATIONS = 40
ORACLE_HV_SHARE = 0.95
# The score command is short, so its cold start is sampled several times a round.
SCORE_CLI_REPEATS = 3


@dataclass
class Round:
    part: int  # which of the workload's sim seeds the round ran (always 0 on evolve_oracle)
    run_s: float
    run_ref_s: float  # reference time around the timed run (speed.py)
    cli_s: list[float]
    cli_ref_s: list[float]
    attempted: int
    failed: int
    requests: int
    prompt_tokens: int
    problems: list[str]
    run_cpu_s: float = 0.0  # process CPU time of the timed run; only sim rounds record it
    layers: dict[str, float] = field(default_factory=dict)


def sim_seeds(seed: int, count: int) -> list[int]:
    """The sim seeds of a sim_* run: the workload seed, then seed + 1000, seed + 2000, ..."""
    return [seed + 1000 * k for k in range(count)]


def _traced(tracer: Tracer | None):
    return tracing(tracer) if tracer is not None else contextlib.nullcontext()


def _timed_cli(args: list[str], env: dict[str, str], cwd: Path) -> tuple[float, float, subprocess.CompletedProcess]:
    proc, elapsed, ref = bracketed(lambda: subprocess.run(
        [sys.executable, "-m", "featgeo.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    ))
    return elapsed, ref, proc


def _cli_problems(proc: subprocess.CompletedProcess) -> list[str]:
    if proc.returncode == 0:
        return []
    return [f"cold CLI exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]


class SimWorkload:
    """The bundled sim topic through ``run_optimization``, plus cold CLI runs per round.

    How long a sim run takes depends on its seed by more than a tenth (the GA
    steers pages to different lengths), so a run of the benchmark covers
    ``parts`` sim seeds, one per round in turn, and reports their mean.

    The cold CLI run of sim_replay is the quickstart run (``simulate --seed``,
    no cache): its rounds are short, so the run has room for many of them. The
    round of sim_latency is long, so its cold CLI runs are short ones:
    ``report`` re-exporting the round's run directory, several times a round.
    """

    def __init__(self, parts: int, delay_s: float = 0.0, workers: int = 1, replay: bool = False):
        self.parts = parts
        self.delay_s = delay_s
        self.workers = workers
        self.replay = replay
        # A run that mostly sleeps does not slow down with the CPU, so only
        # its CPU time is scaled to reference speed (speed.cpu_scaled).
        self.cpu_bound = not delay_s

    def setup(self, seed: int, tmp: Path, env: dict[str, str], traced: bool = False,
              parts=None) -> dict:
        """Build the run's state in tmp, doing the set-up work of the sim seeds in parts (default all).

        With traced, the cache fills are traced, for the ``engine.cache.put_*`` metrics.
        """
        tmp.mkdir(parents=True, exist_ok=True)
        state = {"seed": seed, "tmp": tmp, "env": env, "counters": Counters(), "subs": [],
                 "problems": [], "notes": set()}
        for part, sim_seed in enumerate(sim_seeds(seed, self.parts)):
            cfg = pipeline.RunConfig.from_file(
                default_sim_config_path(), seed=sim_seed, eval_workers=self.workers
            )
            sub_dir = tmp / f"sim{part}"
            sub_dir.mkdir(exist_ok=True)
            sub = {"cfg": cfg, "sim_seed": sim_seed, "reference": None, "setup_layers": {},
                   "quickstart_dir": sub_dir / "quickstart"}
            if self.replay:
                sub["cfg"] = dataclasses.replace(cfg, cache_path=sub_dir / "responses.jsonl")
                sub["fill_dir"] = sub_dir / "fill"
                if parts is None or part in parts:
                    self._fill(state, sub, Tracer() if traced else None)
            elif parts is None or part in parts:
                # The quickstart run at this sim seed, one worker and no delay:
                # every delayed two-worker round must write the same records.
                quickstart = pipeline.RunConfig.from_file(default_sim_config_path(), seed=sim_seed)
                pipeline.run_optimization(quickstart, run_dir=sub["quickstart_dir"])
            state["subs"].append(sub)
        return state

    def _fill(self, state: dict, sub: dict, tracer: Tracer | None) -> None:
        """Run once into the empty cache (the cache-write path) and check it."""
        counters, fill_dir = state["counters"], sub["fill_dir"]
        counters.reset()
        with counting(counters, tracer=tracer), _traced(tracer):
            pipeline.run_optimization(sub["cfg"], run_dir=fill_dir)
        ga = sub["cfg"].ga
        problems = oracle.check_run_dir(fill_dir, ga.population_size, ga.generations, ga.repeats_per_eval)
        problems += oracle.check_cost_against_counts(
            fill_dir, counters.requests, counters.backend_calls, counters.backend_tokens,
            ga.population_size * (ga.generations + 1),
        )
        # A request whose (role, salt, prompt) repeats within the run is a cache
        # hit already, so the cache holds one record per backend call.
        lines = sub["cfg"].cache_path.read_text(encoding="utf-8").count("\n")
        if lines != sum(counters.backend_calls.values()):
            problems.append(f"cache holds {lines} records after {sum(counters.backend_calls.values())} backend calls")
        state["problems"] += [f"fill run, sim seed {sub['cfg'].ga.seed}: {p}" for p in problems]
        if tracer is not None:
            summary = tracer.summary()
            sub["setup_layers"] = {
                "engine.cache.put_calls": summary["engine.cache.put"]["calls"],
                "engine.cache.put_s": summary["engine.cache.put"]["s"],
            }

    def run_round(self, state: dict, index: int, part: int, tracer: Tracer | None = None) -> Round:
        sub, counters = state["subs"][part], state["counters"]
        cfg = sub["cfg"]
        ga = cfg.ga
        expected = ga.population_size * (ga.generations + 1) * ga.repeats_per_eval
        run_dir = state["tmp"] / f"run{index}"
        counters.reset()

        def run():
            try:
                pipeline.run_optimization(cfg, run_dir=run_dir)
            except Exception as exc:  # the round reports the failure and the run goes on
                return f"{type(exc).__name__}: {exc}"
            return None

        with counting(counters, self.delay_s, tracer), _traced(tracer):
            cpu_start = time.process_time()
            error, run_s, run_ref_s = bracketed(run)
            run_cpu_s = time.process_time() - cpu_start

        problems = [] if error is None else [f"run failed: {error}"]
        failed = expected
        metrics_file = run_dir / "eval_metrics.jsonl"
        if metrics_file.exists():
            done = sum(not m["failed"] for m in oracle.read_jsonl(metrics_file))
            failed = expected - min(done, expected)
        if error is None:
            problems += oracle.check_run_dir(run_dir, ga.population_size, ga.generations, ga.repeats_per_eval)
            problems += oracle.check_cost_against_counts(
                run_dir, counters.requests, counters.backend_calls, counters.backend_tokens,
                ga.population_size * (ga.generations + 1),
            )
            problems += self._compare(sub, counters, run_dir)

        cli_dir = state["tmp"] / f"cli{index}"
        cli_s, cli_ref_s = [], []
        if self.replay:
            elapsed, ref, proc = _timed_cli(
                ["simulate", "--seed", str(sub["sim_seed"]), "--output-dir", str(cli_dir)],
                state["env"], state["tmp"],
            )
            cli_s.append(elapsed)
            cli_ref_s.append(ref)
            problems += _cli_problems(proc)
            if proc.returncode == 0 and error is None:
                # The quickstart run books live calls where the replay books
                # cache hits; every other record file is the same.
                problems += oracle.compare_dirs(
                    run_dir, cli_dir, tuple(n for n in oracle.RECORD_FILES if n != "cost.json"),
                    "replay run vs cold quickstart CLI run",
                )
        elif error is None:
            report_files = oracle.file_digests(run_dir, oracle.REPORT_FILES)
            for _ in range(REPORT_CLI_REPEATS):
                elapsed, ref, proc = _timed_cli(["report", str(run_dir), "--overwrite"],
                                                state["env"], state["tmp"])
                cli_s.append(elapsed)
                cli_ref_s.append(ref)
                problems += _cli_problems(proc)
                if oracle.file_digests(run_dir, oracle.REPORT_FILES) != report_files:
                    problems.append("cold `featgeo report` re-export differs from the in-process report")

        layers = {}
        if tracer is not None:
            problems += oracle.check_word_shares(tracer.parses)
            record_bytes = sum(
                (run_dir / n).stat().st_size
                for n in oracle.RECORD_FILES + (oracle.MANIFEST,) if (run_dir / n).exists()
            )
            layers = layer_metrics(tracer, counters, run_s, {"records.bytes": record_bytes})
            for name, value in sub["setup_layers"].items():
                layers[name] += value
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(cli_dir, ignore_errors=True)
        return Round(
            part=part,
            run_s=run_s,
            run_ref_s=run_ref_s,
            run_cpu_s=run_cpu_s,
            cli_s=cli_s,
            cli_ref_s=cli_ref_s,
            attempted=expected,
            failed=failed,
            requests=sum(counters.requests.values()),
            prompt_tokens=sum(counters.request_tokens.values()),
            problems=problems,
            layers=layers,
        )

    def _compare(self, sub: dict, counters: Counters, run_dir: Path) -> list[str]:
        problems = []
        names = oracle.RECORD_FILES + (oracle.MANIFEST,) + oracle.REPORT_FILES
        digests = oracle.file_digests(run_dir, names)
        if sub["reference"] is None:
            sub["reference"] = digests
        elif digests != sub["reference"]:
            problems.append("run directory differs from the first round's at the same sim seed")
        if not self.replay:
            problems += oracle.compare_dirs(
                sub["quickstart_dir"], run_dir, names, "quickstart run vs delayed two-worker run"
            )
        if self.replay:
            if sum(counters.backend_calls.values()):
                problems.append(f"backend called {sum(counters.backend_calls.values())} times during replay")
            problems += oracle.compare_dirs(
                sub["fill_dir"], run_dir,
                tuple(n for n in oracle.RECORD_FILES if n != "cost.json"),
                "replay vs filling run",
            )
        return problems


class EvolveWorkload:
    """Closed-form NSGA-II over the sim ground truth (``sim.direct_evaluator``)."""

    cpu_bound = True
    parts = 1  # a round already covers ten GA seeds

    def setup(self, seed: int, tmp: Path, env: dict[str, str], traced: bool = False,
              parts=None) -> dict:
        """Build the run's state in tmp; every set-up does the same, so parts is not used."""
        cfg = pipeline.RunConfig.from_file(default_sim_config_path(), seed=seed)
        catalog = catalog_default()
        world = sim.SimWorld(cfg.sim, catalog)
        docs = pipeline.load_documents(cfg.competitor_docs)
        tmp.mkdir(parents=True, exist_ok=True)
        answer_file = tmp / "answer.txt"
        answer_file.write_text(sim.sim_answer("How do I start?", docs, world, salt=str(seed)), encoding="utf-8")
        frozen = {
            i: (f.lo + f.hi) / 2 for i, f in enumerate(catalog) if f.key not in ORACLE_ACTIVE_FEATURES
        }
        return {"cfg": cfg, "seed": seed, "tmp": tmp, "env": env, "world": world, "docs": docs,
                "catalog": catalog, "frozen": frozen, "answer_file": answer_file,
                "counters": Counters(), "problems": [], "notes": set(), "oracle_hv": None}

    def run_round(self, state: dict, index: int, part: int, tracer: Tracer | None = None) -> Round:
        counters, catalog = state["counters"], state["catalog"]
        per_evolve = EVOLVE_POPULATION * (EVOLVE_GENERATIONS + 1)
        counters.reset()
        # Every round makes the same calls on the same inputs, so the first
        # round alone records and checks each sort and crowding call.
        log = OptimizerLog() if index == 0 else None
        problems: list[str] = []
        shares: list[tuple[int, float]] = []

        def measured(fn):
            """Run fn under the hooks; the checks that follow run outside them."""
            recording = recording_optimizer(log) if log is not None else contextlib.nullcontext()
            def guarded():
                try:
                    return fn()
                except Exception as exc:  # the round reports the failure and the run goes on
                    problems.append(f"evolve_oracle failed: {type(exc).__name__}: {exc}")
                    return None

            with counting(counters, tracer=tracer), _traced(tracer), recording:
                return bracketed(guarded)

        def read_seed_vectors():
            # Seed vectors come through the engine, one FeatureExtract request per document.
            client = pipeline.build_client(state["cfg"], catalog)
            return [client.extract_features(doc) for doc in state["docs"]]

        # The round's reference time is its segments' mean, weighted by their length.
        seeds, run_s, ref = measured(read_seed_vectors)
        ref_weighted = run_s * ref
        done = 0
        for k in range(EVOLVE_RUNS if seeds is not None else 0):
            ga = optimizer.GAConfig(
                population_size=EVOLVE_POPULATION, generations=EVOLVE_GENERATIONS,
                repeats_per_eval=1, seed=state["seed"] * 1000 + k,
            )
            evaluator = _RecordingEvaluator(sim.direct_evaluator(state["world"]), tracer)
            result, elapsed, ref = measured(
                lambda: optimizer.evolve(ga, evaluator, seeds, catalog, frozen_features=state["frozen"])
            )
            run_s += elapsed
            ref_weighted += elapsed * ref
            done += len(evaluator.pairs)
            # Check each evolve as soon as it ends, so its pairs are not held
            # while the next one runs.
            if result is not None:
                problems += self._check(evaluator.pairs, result, per_evolve)
                shares.append((ga.seed, self._hv_share(state, result)))
            if log is not None:
                problems += oracle.check_sorts(log.sorts) + oracle.check_crowding(log.crowdings)
                log.sorts.clear()
                log.crowdings.clear()
        problems += self._check_shares(state, shares)

        cli_s, cli_ref_s = [], []
        for _ in range(SCORE_CLI_REPEATS):
            elapsed, ref, proc = _timed_cli(
                ["score", "--answer", str(state["answer_file"]), "--sources", str(len(state["docs"]))],
                state["env"], state["tmp"],
            )
            cli_s.append(elapsed)
            cli_ref_s.append(ref)
            problems += _cli_problems(proc)

        layers = {}
        if tracer is not None:
            layers = layer_metrics(tracer, counters, run_s, {"records.bytes": 0})
        attempted = EVOLVE_RUNS * per_evolve
        return Round(
            part=part,
            run_s=run_s,
            run_ref_s=ref_weighted / run_s,
            cli_s=cli_s,
            cli_ref_s=cli_ref_s,
            attempted=attempted,
            failed=attempted - done,
            requests=sum(counters.requests.values()),
            prompt_tokens=sum(counters.request_tokens.values()),
            problems=problems,
            layers=layers,
        )

    def _check(self, pairs: list, result, per_evolve: int) -> list[str]:
        problems = []
        if len(pairs) != per_evolve or result.evaluations != per_evolve:
            problems.append(f"{len(pairs)} evaluator calls, {result.evaluations} booked, expected {per_evolve}")
        keep = oracle.non_dominated_mask([objectives for _, objectives in pairs])
        expected = Counter(pair for pair, k in zip(pairs, keep) if k)
        got = Counter((ind.x.values, ind.objectives) for ind in result.front)
        if got != expected:
            problems.append(
                f"front ({len(result.front)} members) differs from the dominance filter over "
                f"every evaluated pair ({sum(expected.values())} members)"
            )
        problems += oracle.check_trace(result.trace.values(), [ind.objectives for ind in result.front])
        return problems

    def _hv_share(self, state: dict, result) -> float:
        """Final hypervolume as a share of the grid front's (criterion 5's bar is 0.95)."""
        if state["oracle_hv"] is None:
            grid = sim.brute_force_pareto(3, ORACLE_ACTIVE_FEATURES, state["world"])
            state["oracle_hv"] = oracle.sweep_hypervolume(grid.objective_pairs())
        return oracle.sweep_hypervolume([ind.objectives for ind in result.front]) / state["oracle_hv"]

    def _check_shares(self, state: dict, shares: list[tuple[int, float]]) -> list[str]:
        # A single GA seed can stall below criterion 5's bar (see CHANGES.md),
        # so one shortfall is a note. Half of a round's seeds stalling is not
        # seen on any workload seed, so the median is held to the bar.
        for seed, share in shares:
            if share < ORACLE_HV_SHARE:
                state["notes"].add(
                    f"GA seed {seed}: final hypervolume is {share:.3f} of the grid front's "
                    f"(criterion 5 asks for {ORACLE_HV_SHARE})"
                )
        median = statistics.median(share for _, share in shares) if shares else 0.0
        if median < ORACLE_HV_SHARE:
            return [f"median final hypervolume over {len(shares)} GA seeds is {median:.3f} of the "
                    f"grid front's, below criterion 5's {ORACLE_HV_SHARE}"]
        return []


class _RecordingEvaluator:
    """Keeps every (vector, objectives) pair the evaluator returned."""

    def __init__(self, evaluate, tracer: Tracer | None):
        self.evaluate = tracer.wrap("sim.direct_eval", evaluate) if tracer is not None else evaluate
        self.pairs: list[tuple[tuple[float, ...], tuple[float, float]]] = []

    def __call__(self, x, key):
        objectives = self.evaluate(x, key)
        self.pairs.append((x.values, objectives))
        return objectives


WORKLOADS = {
    "sim_latency": SimWorkload(LATENCY_SIM_SEEDS, delay_s=LATENCY_DELAY_S, workers=LATENCY_WORKERS),
    "sim_replay": SimWorkload(REPLAY_SIM_SEEDS, replay=True),
    "evolve_oracle": EvolveWorkload(),
}
