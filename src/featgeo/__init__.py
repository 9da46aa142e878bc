"""Feature-level multi-objective page optimization for generative answer engines.

Pages are abstracted into 13 interpretable features; NSGA-II searches that
space against two black-box objectives (citation visibility and content
quality), realizing candidates into pages through a pluggable engine client.
A deterministic simulated engine makes the whole loop runnable offline.
"""

from .citations import (
    CitationFrequencyTable,
    CitationParse,
    VisibilityScores,
    citation_frequency,
    parse_citations,
    select_exemplars,
    visibility_scores,
)
from .errors import BudgetError, EngineError, FeatGeoError, IntegrityError, ValidationError
from .features import (
    FeatureCatalog,
    FeatureDefinition,
    FeatureVector,
    GuidelineBlock,
    catalog_default,
    clamp,
    decode_vector,
    encode_vector,
    render_guidelines,
)
from .optimizer import (
    GAConfig,
    HypervolumeTrace,
    Individual,
    ParetoFront,
    crowding_distance,
    evolve,
    gaussian_mutate,
    hypervolume,
    non_dominated_sort,
    seed_population,
    select_final,
    uniform_crossover,
)
from .pipeline import (
    AblationResult,
    RunConfig,
    probe_topic,
    run_ablation,
    run_optimization,
)
from .quality import (
    QualityConfig,
    QualityDimensions,
    QualityScore,
    aggregate_quality,
    average_quality,
)
from .records import RunRecord
from .sim import (
    SimBackend,
    SimConfig,
    SimWorld,
    brute_force_pareto,
    sim_answer,
    sim_propensity,
    sim_quality_dims,
)

__version__ = "0.1.0"
