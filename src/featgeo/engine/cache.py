"""Append-only response cache keyed by request digest.

``EngineClient`` scopes each digest to its backend's identity and the prompt
template set, so one store can serve several engines and template versions.

One JSON record per line: digest, role, and the full response payload. A hit
returns the stored payload byte-for-byte, so cached runs replay exactly.
The ``salt`` folded into request digests lets experiments force re-sampling
without discarding the store.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from pathlib import Path

from ..errors import ValidationError
from ..schema import expect, field_spec
from .types import EngineResponse, Role

# The directory whose responses.jsonl serves a run of either backend that names no cache_path.
ENV_CACHE_DIR = "FEATGEO_CACHE_DIR"


class ResponseCache:
    """In-memory map over a persistent JSONL record file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._records: dict[str, EngineResponse] = {}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                self._load()
        except OSError as exc:
            raise ValidationError(f"cannot use {self.path} as a response cache: {exc}") from exc

    def _load(self) -> None:
        """Read every complete record; a bad line raises ValidationError with its number.

        A final line without its newline was cut off mid-append by a crash: it
        is dropped and the file truncated to the last complete record, so the
        next put starts on a fresh line.
        """
        kept = 0  # bytes through the last complete line
        spec = field_spec(EngineResponse)  # every field is required in a record
        with self.path.open("rb") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    break
                kept += len(line)
                if not line.strip():
                    continue
                where = f"response cache {self.path} line {number} is corrupt: "
                try:
                    record = json.loads(line.decode("utf-8"))
                    reply = record["response"]
                    self._records[expect(record["digest"], str, where + "digest")] = EngineResponse(
                        *[expect(reply[name], kind, f"{where}response.{name}") for name, kind, _ in spec])
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValidationError(f"{where}{exc!r}") from exc
            torn = fh.tell() > kept
        if torn:
            os.truncate(self.path, kept)

    def get(self, digest: str) -> EngineResponse | None:
        with self._lock:
            return self._records.get(digest)

    def put(self, digest: str, role: Role, response: EngineResponse) -> None:
        with self._lock:
            if digest in self._records:
                return
            self._records[digest] = response
            record = {"digest": digest, "role": role.value, "response": dataclasses.asdict(response)}
            try:
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
            except OSError as exc:
                raise ValidationError(f"cannot write the response cache {self.path}: {exc}") from exc

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
