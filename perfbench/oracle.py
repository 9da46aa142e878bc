"""Correctness checks computed apart from the featgeo code they check.

Each check returns a list of problems (empty when the output is right), so a
round can report every fault it finds instead of stopping at the first.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, defaultdict
from pathlib import Path
from typing import Sequence

import numpy as np
from featgeo.citations import visibility_scores

RECORD_FILES = (
    "probe.json",
    "generations.jsonl",
    "pareto_front.jsonl",
    "hv_trace.csv",
    "final_solutions.json",
    "eval_metrics.jsonl",
    "cost.json",
)
MANIFEST = "manifest.json"
REPORT_FILES = (
    "report/metrics_table.txt",
    "report/pareto_scatter.csv",
    "report/hv_trace.csv",
    "report/solution_comparison.txt",
    "report/cost_table.txt",
)

HV_TOLERANCE = 1e-12


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def non_dominated_mask(points: Sequence[tuple[float, float]]) -> np.ndarray:
    """All-pairs dominance filter (maximize both objectives), in row blocks.

    Point i is dropped when some j is at least as good in both objectives and
    strictly better in one. Equal points keep each other.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    vis, qual = pts[:, 0], pts[:, 1]
    keep = np.ones(len(pts), dtype=bool)
    for lo in range(0, len(pts), 512):
        bv, bq = vis[lo:lo + 512, None], qual[lo:lo + 512, None]
        geq = (vis >= bv) & (qual >= bq)
        gt = (vis > bv) | (qual > bq)
        keep[lo:lo + 512] = ~(geq & gt).any(axis=1)
    return keep


def rank_partition(points: Sequence[tuple[float, float]]) -> list[int]:
    """Non-domination rank of each point, by peeling all-pairs fronts."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    vis, qual = pts[:, 0], pts[:, 1]
    # dominated[i, j]: point j dominates point i.
    dominated = ((vis >= vis[:, None]) & (qual >= qual[:, None])
                 & ((vis > vis[:, None]) | (qual > qual[:, None])))
    ranks = np.full(len(pts), -1)
    alive = np.ones(len(pts), dtype=bool)
    rank = 0
    while alive.any():
        front = alive & ~(dominated & alive).any(axis=1)
        ranks[front] = rank
        alive &= ~front
        rank += 1
    return ranks.tolist()


def crowding_distances(points: Sequence[tuple[float, float]]) -> list[float] | None:
    """Deb's crowding distance of one front, or None when objective values tie.

    With ties the distances depend on how tied points are ordered, which any
    correct implementation may choose, so such fronts are not checked.
    """
    n = len(points)
    columns = list(zip(*points))
    if any(len(set(col)) != n for col in columns):
        return None
    distances = [0.0] * n
    for col in columns:
        order = sorted(range(n), key=col.__getitem__)
        distances[order[0]] = distances[order[-1]] = math.inf
        span = col[order[-1]] - col[order[0]]
        for prev, i, nxt in zip(order, order[1:], order[2:]):
            if distances[i] != math.inf:
                distances[i] += (col[nxt] - col[prev]) / span
    return distances


def sweep_hypervolume(points: Sequence[tuple[float, float]]) -> float:
    """Area dominated by percent-scale points, reference (0, 0), scaled to [0, 1]."""
    area = 0.0
    best_quality = 0.0
    for vis, qual in sorted(points, key=lambda p: (-p[0], -p[1])):
        if qual > best_quality:
            area += (vis / 100.0) * (qual / 100.0 - best_quality)
            best_quality = qual / 100.0
    return area


def policy_pick(front: Sequence[dict], policy: str) -> tuple[float, float]:
    """Objectives of the front member a final-solution policy selects."""
    keys = {
        "max_visibility": lambda r: (r["visibility"], r["quality"]),
        "max_quality": lambda r: (r["quality"], r["visibility"]),
        "knee": lambda r: (r["visibility"] + r["quality"], r["visibility"]),
    }
    best = max(front, key=keys[policy])
    return best["visibility"], best["quality"]


def check_trace(values: Sequence[float], front_points: Sequence[tuple[float, float]]) -> list[str]:
    problems = []
    if not values:
        return ["hypervolume trace is empty"]
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append("hypervolume trace decreases")
    expected = sweep_hypervolume(front_points)
    if abs(values[-1] - expected) > HV_TOLERANCE:
        problems.append(f"final hypervolume {values[-1]!r} != sweep-line value {expected!r}")
    return problems


def check_sorts(calls) -> list[str]:
    """Each (objectives, fronts as input positions, ranks written back) of a sort call."""
    for points, fronts, ranks in calls:
        expected = rank_partition(points)
        got = [-1] * len(points)
        for rank, front in enumerate(fronts):
            for i in front:
                if i < 0 or got[i] != -1:
                    return ["non_dominated_sort returned a front member twice or one not in its input"]
                got[i] = rank
        if got != expected or list(ranks) != expected:
            return [f"non_dominated_sort over {len(points)} points differs from the all-pairs peel"]
    return []


def check_crowding(calls) -> list[str]:
    """Each (objectives, returned distances, distances written back) of a crowding call."""
    checked = 0
    for points, returned, written in calls:
        expected = crowding_distances(points)
        if expected is None:
            continue
        checked += 1
        for got in (returned, written):
            if len(got) != len(expected) or not all(
                a == b or math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, expected)
            ):
                return [f"crowding_distance over {len(points)} points differs from Deb's definition"]
    if calls and not checked:
        return ["no crowding_distance call had a front without tied objectives to check"]
    return []


def check_run_dir(run_dir: Path, population: int, generations: int, repeats: int) -> list[str]:
    """Checks every sim_* run directory must pass."""
    problems = []
    manifest = json.loads((run_dir / MANIFEST).read_text(encoding="utf-8"))
    if manifest["status"] != "complete":
        problems.append(f"manifest status is {manifest['status']!r}: {manifest.get('error')}")
    if set(manifest["artifacts"]) != set(RECORD_FILES):
        problems.append(f"manifest lists {sorted(manifest['artifacts'])}")
    for name, digest in manifest["artifacts"].items():
        if hashlib.sha256((run_dir / name).read_bytes()).hexdigest() != digest:
            problems.append(f"sha256 of {name} does not match the manifest")

    metrics = read_jsonl(run_dir / "eval_metrics.jsonl")
    if any(m["failed"] for m in metrics):
        problems.append("an evaluation is marked failed")
    expected_evals = population * (generations + 1) * repeats
    if len(metrics) != expected_evals:
        problems.append(f"{len(metrics)} evaluations recorded, expected {expected_evals}")

    # Per-(generation, slot) objectives: mean over repeats, summed in repeat order.
    sums: dict[tuple[int, int], list] = defaultdict(lambda: [0.0, 0.0, 0])
    for m in sorted(metrics, key=lambda m: (m["generation"], m["slot"], m["repeat"])):
        entry = sums[(m["generation"], m["slot"])]
        entry[0] += m["visibility"]
        entry[1] += m["quality"]
        entry[2] += 1
    candidates = [(v / n, q / n) for v, q, n in sums.values()]
    keep = non_dominated_mask(candidates)
    expected_front = Counter(p for p, k in zip(candidates, keep) if k)
    front = read_jsonl(run_dir / "pareto_front.jsonl")
    got_front = Counter((r["visibility"], r["quality"]) for r in front)
    if got_front != expected_front:
        problems.append(
            f"pareto front ({sum(got_front.values())} members) differs from the dominance "
            f"filter over recorded objectives ({sum(expected_front.values())} members)"
        )

    trace_lines = (run_dir / "hv_trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    trace = [float(line.split(",")[1]) for line in trace_lines]
    if len(trace) != generations + 1:
        problems.append(f"hypervolume trace has {len(trace)} entries, expected {generations + 1}")
    problems += check_trace(trace, list(got_front.elements()))

    finals = json.loads((run_dir / "final_solutions.json").read_text(encoding="utf-8"))
    for policy in ("max_visibility", "max_quality", "knee"):
        chosen = finals.get(policy)
        if chosen is None:
            problems.append(f"final solution for {policy} missing")
            continue
        members = [r for r in front if (r["visibility"], r["quality"]) == policy_pick(front, policy)]
        if not any(r["features"] == chosen["features"] for r in members):
            problems.append(f"final solution for {policy} is not the front member it picks")
    return problems


def check_cost_against_counts(
    run_dir: Path, requests: dict[str, int], backend_calls: dict[str, int],
    backend_tokens: dict[str, int], expected_pages: int,
) -> list[str]:
    """Per-role ledger entries in cost.json against the benchmark's own counts."""
    cost = json.loads((run_dir / "cost.json").read_text(encoding="utf-8"))
    booked_calls: dict[str, int] = defaultdict(int)
    booked_hits: dict[str, int] = defaultdict(int)
    booked_tokens: dict[str, int] = defaultdict(int)
    for key, stats in cost["entries"].items():
        role = key.split("/", 1)[1]
        booked_calls[role] += stats["api_calls"]
        booked_hits[role] += stats["cache_hits"]
        booked_tokens[role] += stats["prompt_tokens"]
    problems = []
    for role in set(requests) | set(booked_calls) | set(booked_hits):
        if booked_calls[role] + booked_hits[role] != requests.get(role, 0):
            problems.append(
                f"{role}: cost.json books {booked_calls[role]} calls + {booked_hits[role]} hits, "
                f"client issued {requests.get(role, 0)} requests"
            )
        if booked_calls[role] != backend_calls.get(role, 0):
            problems.append(f"{role}: cost.json books {booked_calls[role]} calls, backend saw "
                            f"{backend_calls.get(role, 0)}")
        if booked_tokens[role] != backend_tokens.get(role, 0):
            problems.append(f"{role}: cost.json books {booked_tokens[role]} prompt tokens, "
                            f"backend prompts hold {backend_tokens.get(role, 0)}")
    if requests.get("PageGen", 0) != expected_pages:
        problems.append(f"{requests.get('PageGen', 0)} PageGen requests, expected {expected_pages}")
    return problems


def file_digests(run_dir: Path, names: Sequence[str]) -> dict[str, str]:
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in names
        if (run_dir / name).exists()
    }


def compare_dirs(a: Path, b: Path, names: Sequence[str], what: str) -> list[str]:
    da, db = file_digests(a, names), file_digests(b, names)
    differing = [n for n in names if da.get(n) is None or da.get(n) != db.get(n)]
    return [f"{what}: {', '.join(differing)} differ"] if differing else []


def check_word_shares(parses) -> list[str]:
    """Sim answers cite one source per sentence, so word shares must sum to 100."""
    for parse in parses:
        if any(len(s.cited) != 1 for s in parse.sentences):
            return ["a parsed sim answer has a sentence without exactly one citation"]
        total = sum(visibility_scores(parse).word)
        if not math.isclose(total, 100.0, rel_tol=0.0, abs_tol=1e-9):
            return [f"per-source word shares sum to {total!r}, not 100"]
    return []
