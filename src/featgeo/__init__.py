"""Feature-level multi-objective page optimization for generative answer engines.

Pages are abstracted into 13 interpretable features; NSGA-II searches that
space against two black-box objectives (citation visibility and content
quality), realizing candidates into pages through a pluggable engine client.
A deterministic simulated engine makes the whole loop runnable offline.
"""

from .citations import parse_citations, visibility_scores
from .features import catalog_default
from .optimizer import GAConfig, evolve, hypervolume
from .pipeline import RunConfig, run_optimization

__version__ = "0.1.0"
