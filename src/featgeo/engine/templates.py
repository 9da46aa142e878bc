"""Loading and rendering of the versioned role prompt templates."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from ..errors import ValidationError
from .types import Role, text_digest

@lru_cache(maxsize=None)
def load_template(role: Role) -> str:
    ref = resources.files("featgeo.engine") / "templates" / f"{role.name.lower()}.txt"
    return ref.read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def templates_digest() -> str:
    """One digest over every role template, so an edited template keys new cache entries."""
    return text_digest("\x1f".join(load_template(role) for role in Role))


def render_prompt(role: Role, **params: str) -> str:
    """Fill a role template's named placeholders; equal inputs render byte-identically."""
    template = load_template(role)
    try:
        return template.format(**params)
    except KeyError as exc:
        raise ValidationError(f"template for {role.value} is missing parameter {exc}") from exc
