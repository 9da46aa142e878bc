"""Helpers shared by the test modules."""

import json
from pathlib import Path

from featgeo.features import FeatureCatalog, FeatureVector


def midpoint_vector(c: FeatureCatalog) -> FeatureVector:
    """Vector with every feature at the middle of its range."""
    return FeatureVector(c.midpoint_values())


def load_example_solutions() -> dict:
    """Two labeled extreme trade-off solutions with their recorded objectives."""
    path = Path(__file__).parent / "example_solutions.json"
    return json.loads(path.read_text(encoding="utf-8"))
