"""Helpers shared by the test modules."""

import json
from pathlib import Path

from featgeo.engine.ledger import CallStats, CostLedger
from featgeo.engine.types import Role, Stage
from featgeo.features import FeatureCatalog, FeatureVector
from featgeo.optimizer import Individual

# Acceptance criterion 5's grid: the features the brute-force oracle spans, the rest at their midpoints.
ORACLE_ACTIVE_FEATURES = (
    "statistics_level",
    "cite_sources_level",
    "quotation_level",
    "list_density",
    "length_level",
)


def midpoint_vector(c: FeatureCatalog) -> FeatureVector:
    """Vector with every feature at the middle of its range."""
    return FeatureVector(c.midpoint_values())


def with_value(v: FeatureVector, index: int, value: float) -> FeatureVector:
    """``v`` with the feature at ``index`` set to ``value``."""
    values = list(v.values)
    values[index] = value
    return FeatureVector(tuple(values))


def run_tree(run_dir: Path) -> dict[str, bytes]:
    """The bytes of every file under ``run_dir`` (none if it is absent), by path relative to it."""
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()}


def load_example_solutions() -> dict:
    """Two labeled extreme trade-off solutions with their recorded objectives."""
    path = Path(__file__).parent / "example_solutions.json"
    return json.loads(path.read_text(encoding="utf-8"))


def dominates(a: Individual, b: Individual) -> bool:
    """At least as good in both objectives and strictly better in one (the sort oracles' test)."""
    (a_vis, a_qual), (b_vis, b_qual) = a.objectives, b.objectives
    return a_vis >= b_vis and a_qual >= b_qual and (a_vis > b_vis or a_qual > b_qual)


def ledger_sum(ledger: CostLedger, stage: Stage | None = None, role: Role | None = None) -> CallStats:
    """The ledger's entries in their persisted (cost.json) form, summed over one stage, one role, or both."""
    out = CallStats()
    for key, stats in ledger.to_dict()["entries"].items():
        stage_name, role_name = key.split("/", 1)
        if stage in (None, Stage(stage_name)) and role in (None, Role(role_name)):
            out.add(CallStats.from_dict(stats, f"entries.{key}."))
    return out


def ledger_requests(ledger: CostLedger, role: Role, stage: Stage | None = None) -> int:
    """Live calls plus cache hits for a role, optionally within one stage."""
    stats = ledger_sum(ledger, stage, role)
    return stats.api_calls + stats.cache_hits
