"""Role-typed generative-engine access: client, cache, cost ledger, transports."""

from .cache import ResponseCache
from .client import EngineBackend, EngineClient, format_source_documents
from .ledger import CallStats, CostLedger
from .live import ChatCompletionBackend
from .templates import load_template, render_prompt
from .types import (
    EngineRequest,
    EngineResponse,
    Role,
    SourceDocument,
    Stage,
    TopicBrief,
    build_request,
)
