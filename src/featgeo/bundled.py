"""Access to the data files shipped with the package (the default sim topic)."""

from __future__ import annotations

from importlib import resources
from pathlib import Path


def data_dir() -> Path:
    return Path(str(resources.files("featgeo") / "data"))


def default_sim_config_path() -> Path:
    """Run config of the bundled offline sim topic (used by `featgeo simulate`)."""
    return data_dir() / "sim_topic" / "config.json"
