"""featgeo benchmark: one workload per invocation, result as the last stdout line.

Usage, from the root of a repository checkout:

    python3 perfbench/run.py --workload sim_latency --seed 7 --seconds 25 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it reports the per-layer metrics, measured on rounds that
alternate with untraced ones so the tracing overhead shows too. Everything the
run writes goes to a temporary directory under ``.perfbench_tmp/`` in the
checkout, which is removed before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import bracketed, cpu_scaled, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("sim_latency", "sim_replay", "evolve_oracle")
SETUP_REPEATS = 3
CLI_IMPORT_REPEATS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7, help="drives the GA and sim seeds (default 7)")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long to repeat timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--setup-part", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FEATGEO_CACHE_DIR", None)  # every workload decides its own cache
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _setup_samples(args, tmp: Path, env: dict[str, str]) -> tuple[list[float], list[str], Path]:
    """Set-up time of fresh interpreters (start, imports, config, world, temp dirs), scaled to reference speed.

    Child k does the set-up work of the workload's parts k, k + 3, ... (on
    sim_replay, the cache fills of those sim seeds) in one shared directory,
    and prints the problems its set-up found. The rounds start from that directory, so the
    measuring process never runs the set-up work itself and its peak memory
    is that of the rounds.
    """
    samples, problems = [], []
    work = tmp / "work"
    for k in range(SETUP_REPEATS):
        proc, wall, ref = bracketed(lambda: subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only", str(work), "--setup-part", str(k)],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=170,
        ))
        samples.append(scaled([wall], [ref]))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        problems += json.loads(proc.stdout.strip().splitlines()[-1])
    return samples, problems, work


def _cli_import_s(tmp: Path, env: dict[str, str]) -> float:
    code = "import time; t = time.perf_counter(); import featgeo.cli; print(time.perf_counter() - t)"
    samples = [
        float(subprocess.run([sys.executable, "-c", code], cwd=tmp, env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout)
        for _ in range(CLI_IMPORT_REPEATS)
    ]
    return statistics.median(samples)


def _measure(args, tmp: Path, env: dict[str, str]) -> dict:
    from instrument import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    if trace:
        # The traced set-up runs here, so the cache fills' spans are kept.
        setup_s, state = None, workload.setup(args.seed, tmp / "work", env, traced=True)
    else:
        setup_s, setup_problems, work = _setup_samples(args, tmp, env)
        state = workload.setup(args.seed, work, env, parts=())
        state["problems"] += setup_problems

    # Rounds take the workload's parts (sim seeds) in turn. In a traced run,
    # rounds come in pairs on the same part, the first untraced and the second
    # traced. A run does at least one round of each part (one pair when
    # traced), and a further round starts only if half of the last round's
    # length still fits in the time, so the run ends, on average, at --seconds
    # and not half a round past it.
    rounds = []
    least = 2 if trace else workload.parts
    start = last = time.perf_counter()
    while len(rounds) < least or 1.5 * time.perf_counter() - last / 2 - start <= args.seconds:
        last = time.perf_counter()
        index = len(rounds)
        traced = trace and index % 2 == 1
        part = (index // 2 if trace else index) % workload.parts
        rounds.append((traced, workload.run_round(state, index, part, Tracer() if traced else None)))

    problems = list(state["problems"])
    for _, r in rounds:
        problems += r.problems
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for _, r in rounds),
        "failed": sum(r.failed for _, r in rounds),
        "problems": problems,
        "notes": sorted(state["notes"]),
        "rounds": len(rounds),
    }
    median = statistics.median
    if trace:
        traced = [r for t, r in rounds if t]
        layers = {name: median(r.layers[name] for r in traced) for name in traced[0].layers}
        layers["cli.import_s"] = _cli_import_s(tmp, env)
        # Each traced round is compared with an untraced round next to it on
        # the same part, so slow drift in the machine's speed cancels: the one
        # after it where there is one, else the one before. Round 0 also records
        # optimizer calls on evolve_oracle, and is used only in a run of two rounds.
        def partner(i):
            after = i + 1 < len(rounds) and rounds[i + 1][1].part == rounds[i][1].part
            return rounds[i + 1 if after else i - 1][1]

        layers["trace.overhead_s"] = median(
            r.run_s - partner(i).run_s for i, (t, r) in enumerate(rounds) if t
        )
        result["metrics"] = layers
    else:
        # Each metric is taken per part, over that part's rounds, and
        # reported as the mean over parts, so every sim seed weighs the same.
        parts = [[r for _, r in rounds if r.part == p] for p in range(workload.parts)]

        def per_part(fn):
            return statistics.fmean(fn(group) for group in parts)

        if workload.cpu_bound:
            run_s = per_part(lambda g: scaled([r.run_s for r in g], [r.run_ref_s for r in g]))
        else:
            run_s = per_part(lambda g: median(cpu_scaled(r.run_s, r.run_cpu_s, r.run_ref_s) for r in g))
        result["metrics"] = {
            "setup_s": median(setup_s),
            "run_s": run_s,
            "cli_cold_s": per_part(
                lambda g: scaled([s for r in g for s in r.cli_s], [s for r in g for s in r.cli_ref_s])
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "engine_requests": per_part(lambda g: median(r.requests for r in g)),
            "prompt_tokens": per_part(lambda g: median(r.prompt_tokens for r in g)),
        }
    return result


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "featgeo" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no featgeo sources under {SRC}; run it from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("FEATGEO_CACHE_DIR", None)

    if args.setup_only:
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        parts = range(args.setup_part % SETUP_REPEATS, workload.parts, SETUP_REPEATS)
        state = workload.setup(args.seed, Path(args.setup_only), _child_env(), parts=tuple(parts))
        print(json.dumps(state["problems"]))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    SCRATCH.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=SCRATCH, prefix=f"{args.workload}-") as tmp:
            result = _measure(args, Path(tmp), _child_env())
    finally:
        try:
            SCRATCH.rmdir()  # only when no other run is using it
        except OSError:
            pass

    measured = result["metrics"]
    missing = sorted({m["name"] for m in wanted} - set(measured))
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for note in result["notes"]:
        print(f"NOTE: {note}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {result['rounds']}")
    print(f"operations attempted {result['attempted']}  failed {result['failed']}  "
          f"outputs correct {result['correct']}")
    metrics = {}
    for m in wanted:
        value = float(measured[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<32} {value:>16.6f} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
