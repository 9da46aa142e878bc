"""HTTP transport for a generic chat-completion endpoint.

Configured entirely through environment variables (or constructor arguments);
no vendor-specific assumptions beyond the common chat-completions JSON shape.
Built on ``urllib.request``, which honours the standard proxy environment
variables (``https_proxy``, ``http_proxy``, ``no_proxy``).

Transient failures (HTTP 429, HTTP 5xx, timeouts, refused or reset
connections, reply bodies cut short, garbled or overlong status and header
lines) are retried with exponential backoff and full jitter: attempt n waits a
uniform draw from [0, min(cap, base * 2**(n-1))], or the server's delta-seconds
``Retry-After`` up to the cap. Every retry resends the same request. Any other
failure raises at once.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Callable, Mapping

from ..errors import EngineError, ValidationError
from .types import EngineRequest, EngineResponse, Role, estimate_tokens

ENV_BASE_URL = "FEATGEO_ENGINE_BASE_URL"
ENV_MODEL = "FEATGEO_ENGINE_MODEL"
ENV_API_KEY = "FEATGEO_ENGINE_API_KEY"

# Sampling temperature per role: creative for writing, none for extraction and judging.
_TEMPERATURES = {
    Role.QUERY_GEN: 0.8, Role.PAGE_GEN: 0.8,
    Role.THEME_EXTRACT: 0.4, Role.ANSWER_GEN: 0.4,
    Role.FEATURE_EXTRACT: 0.0, Role.JUDGE: 0.0,
}

MAX_ATTEMPTS = 5  # sends per request, the first one included
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 30.0


def _retry_after(headers: Mapping[str, str] | None) -> float | None:
    """The delta-seconds ``Retry-After`` value, if the server sent one."""
    value = (headers or {}).get("Retry-After", "").strip()
    # http.client decodes headers as latin-1, where str.isdigit also takes "²".
    return float(value) if value.isascii() and value.isdigit() else None


class ChatCompletionBackend:
    """POSTs each request to ``<base_url>/chat/completions``."""

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str = "",
        *,
        opener: urllib.request.OpenerDirector | None = None,
        timeout: float = 120.0,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ):
        if not base_url or not model:
            raise ValidationError("live engine backend requires a base URL and model id")
        try:
            url = urllib.parse.urlsplit(base_url)
            url.port  # raises ValueError on a port that is no number or out of range
        except ValueError as exc:
            raise ValidationError(f"base URL {base_url!r} is malformed: {exc}") from exc
        if url.scheme not in ("http", "https") or not url.hostname or any(
            c.isspace() or not c.isprintable() for c in base_url
        ):
            raise ValidationError(
                f"base URL {base_url!r} must be http(s) with a host and no whitespace or control character"
            )
        if not (api_key.isascii() and api_key.isprintable()):  # an HTTP header carries nothing else
            raise ValidationError("API key must be printable ASCII; its value is not shown")
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.opener = opener or urllib.request.build_opener()
        self.timeout = timeout
        self.sleep = sleep
        self.rng = rng or random.Random()
        self.identity = f"{self.base_url} {self.model}"
        self.transport_retries = 0
        self._retries_lock = threading.Lock()

    @classmethod
    def from_env(cls) -> "ChatCompletionBackend":
        base_url = os.environ.get(ENV_BASE_URL, "")
        model = os.environ.get(ENV_MODEL, "")
        if not base_url or not model:
            raise ValidationError(
                f"live backend needs {ENV_BASE_URL} and {ENV_MODEL} set in the environment"
            )
        try:
            return cls(base_url, model, api_key=os.environ.get(ENV_API_KEY, ""))
        except ValidationError as exc:
            source = ENV_API_KEY if str(exc).startswith("API key") else ENV_BASE_URL
            raise ValidationError(f"{source}: {exc}") from exc

    def complete(self, request: EngineRequest) -> EngineResponse:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": _TEMPERATURES[request.role],
        }
        http_request = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=json.dumps(body).encode("utf-8"),
            headers=headers,
            method="POST",
        )
        started = time.perf_counter()
        status, raw = self._send(http_request)
        elapsed = time.perf_counter() - started
        try:
            data: Mapping[str, Any] = json.loads(raw)
        except ValueError as exc:
            raise EngineError(f"engine HTTP {status} body is not JSON: {exc}") from exc
        try:
            text = data["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"content is {type(text).__name__}, not a string")
        except (KeyError, IndexError, TypeError) as exc:
            raise EngineError(f"unexpected engine response shape: {data!r}") from exc
        usage = data.get("usage")
        usage = usage if isinstance(usage, dict) else {}
        counts = [usage.get("prompt_tokens"), usage.get("completion_tokens")]
        # A count is reported only as a non-negative whole number (no bool, NaN or inf); if one is
        # missing or fails, both are estimated. No upper bound is known, so a huge count passes.
        reported = all((type(c) is int or type(c) is float and c.is_integer()) and c >= 0 for c in counts)
        return EngineResponse(
            text=text,
            prompt_tokens=int(counts[0]) if reported else estimate_tokens(request.prompt),
            completion_tokens=int(counts[1]) if reported else estimate_tokens(text),
            usage_estimated=not reported,
            elapsed_seconds=elapsed,
        )

    def _send(self, http_request: urllib.request.Request) -> tuple[int, bytes]:
        """(status, body) of the first 2xx reply, resending on transient failures."""
        attempt = 0
        while True:
            attempt += 1
            retry_after = None
            try:
                with self.opener.open(http_request, timeout=self.timeout) as reply:
                    return reply.status, reply.read()
            except urllib.error.HTTPError as exc:
                exc.close()  # the error reply's unread body holds the connection
                if exc.code != 429 and exc.code < 500:
                    raise EngineError(f"engine HTTP {exc.code} {exc.reason}; not retried") from exc
                cause: Exception = exc
                retry_after = _retry_after(exc.headers)
            except urllib.error.URLError as exc:
                # A refused connection or a connect timeout; a reason that is no
                # OSError is a malformed URL, which no resend mends.
                if not isinstance(exc.reason, OSError):
                    raise EngineError(f"engine HTTP request failed: {exc}") from exc
                cause = exc
            except (
                TimeoutError, ConnectionError,
                http.client.IncompleteRead, http.client.BadStatusLine, http.client.LineTooLong,
            ) as exc:
                # socket.timeout is TimeoutError; http.client.RemoteDisconnected
                # is a ConnectionResetError; IncompleteRead is a body cut short;
                # BadStatusLine and LineTooLong are a garbled reply head.
                cause = exc
            if attempt == MAX_ATTEMPTS:
                raise EngineError(
                    f"engine HTTP request failed after {MAX_ATTEMPTS} attempts: {cause}"
                ) from cause
            if retry_after is None:
                delay = self.rng.uniform(0.0, min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (attempt - 1)))
            else:
                delay = min(retry_after, BACKOFF_CAP_S)
            with self._retries_lock:
                self.transport_retries += 1
            self.sleep(delay)
