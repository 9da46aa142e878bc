"""Steadiness check: run the benchmark twice on the same code and compare.

    python3 perfbench/steady.py

The files git would commit are copied to a temporary directory outside the
repository (``$TMPDIR`` decides where), and every run happens in that copy, so
nothing lands in the repository. Two sets are run. In each set, every workload
of BENCHMARK.json runs once per seed 1 to 10 with tracing off, as an
acceptance run of the benchmark does. For every end-to-end metric and workload
the report gives each set's median and quartile spread (interquartile range
over median) and says whether

* the spread stays within the metric's bound in BENCHMARK.json. The spread of
  ``setup_s`` is reported but not held to the bound: set-up time is checked
  only for drift between the sets, like every other metric, and
* the second set's median is not worse than the first set's by more than the
  bound.

It also checks that every run was correct and that the share of failed
operations is the same in every set. The last stdout line is a JSON summary;
the exit code is 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
SEEDS = range(1, 11)
SPREAD_EXEMPT = {"setup_s"}


def _copy_checkout(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    checkout = Path(tempfile.mkdtemp(prefix="perfbench-steady-"))
    try:
        _copy_checkout(checkout)
        for set_index in range(SETS):
            for workload in workloads:
                runs = []
                for seed in SEEDS:
                    start = time.perf_counter()
                    runs.append(_run_once(checkout, workload, seed, spec["run_seconds"]))
                    print(f"set {set_index + 1} {workload} seed {seed}: "
                          f"{time.perf_counter() - start:.1f} s wall, correct {runs[-1]['correct']}",
                          file=sys.stderr, flush=True)
                results[workload].append(runs)
    finally:
        shutil.rmtree(checkout, ignore_errors=True)

    ok = True
    summary = []
    for workload in workloads:
        sets = results[workload]
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets}
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= correct and len(shares) == 1
        print(f"{workload}: correct {correct}, failed share per set {sorted(shares)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [_spread(v) for v in values]
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if metric["better"] == "lower" else -change
            spread_ok = name in SPREAD_EXEMPT or max(spreads) <= bound
            drift_ok = worse <= bound
            ok &= spread_ok and drift_ok
            summary.append({"workload": workload, "metric": name, "values": values, "medians": medians,
                            "spreads": spreads, "bound": bound, "spread_ok": spread_ok,
                            "drift_ok": drift_ok})
            print(f"  {name:<16} medians {' '.join(f'{m:.6g}' for m in medians):<28} "
                  f"spreads {' '.join(f'{s:.3f}' for s in spreads):<14} bound {bound:<5} "
                  f"{'ok' if spread_ok and drift_ok else 'NOT STEADY'}"
                  f"{' (spread exempt)' if name in SPREAD_EXEMPT else ''}")
    print(json.dumps({"steady": ok, "seeds": list(SEEDS), "metrics": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
