"""Append-only response cache keyed by request digest.

One JSON record per line: digest, role, and the full response payload. A hit
returns the stored payload byte-for-byte, so cached runs replay exactly.
The ``salt`` folded into request digests lets experiments force re-sampling
without discarding the store.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from ..errors import ValidationError
from .types import EngineResponse, Role


class ResponseCache:
    """In-memory map over a persistent JSONL record file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._records: dict[str, EngineResponse] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        """Read every complete record; a bad line raises ValidationError with its number.

        A final line without its newline was cut off mid-append by a crash: it
        is dropped and the file truncated to the last complete record, so the
        next put starts on a fresh line.
        """
        kept = 0  # bytes through the last complete line
        with self.path.open("rb") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    break
                kept += len(line)
                if not line.strip():
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                    self._records[record["digest"]] = EngineResponse.from_dict(record["response"])
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValidationError(
                        f"response cache {self.path} line {number} is corrupt: {exc!r}"
                    ) from exc
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
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(
                    json.dumps(
                        {"digest": digest, "role": role.value, "response": response.to_dict()}
                    )
                    + "\n"
                )

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
