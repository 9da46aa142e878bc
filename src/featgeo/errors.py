"""Exception hierarchy shared across the package."""


class FeatGeoError(Exception):
    """Base class for all package errors."""


class ValidationError(FeatGeoError):
    """Invalid input, configuration, or domain-object state."""


class EngineError(FeatGeoError):
    """A generative-engine call failed or returned unusable output after retries."""


class IntegrityError(FeatGeoError):
    """Internal bookkeeping disagrees with recomputed ground truth (ledger, records)."""
