"""Chat-completions client with retries, plus a replay stub.

The wire format is the common JSON-over-HTTPS chat shape:
``{"model": ..., "temperature": 0, "messages": [{"role": "user", "content": ...}]}``.
Requests are greedy (temperature 0).  The credential comes from the
``LLM_API_KEY`` environment variable, a fixed name; the base URL from
config or ``LLM_API_BASE``.

The stub file is a JSON map from the SHA-256 hash of the prompt to the
response text, letting integration tests replay recorded sessions
completely offline.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass


class LlmError(RuntimeError):
    """Transport failure or exhausted retry budget."""


@dataclass(frozen=True)
class LlmConfig:
    endpoint: str = ""
    model: str = ""
    max_attempts: int = 3

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ChatClient:
    """Minimal chat client: one prompt in, first response text out."""

    def __init__(self, cfg: LlmConfig, session=None):
        self.cfg = cfg
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._endpoint = cfg.endpoint or os.environ.get("LLM_API_BASE", "")
        if not self._endpoint:
            raise LlmError("no chat endpoint configured")

    def complete(self, prompt: str) -> str:
        headers = {}
        key = os.environ.get("LLM_API_KEY", "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": self.cfg.model,
            "temperature": 0.0,
            "messages": [{"role": "user", "content": prompt}],
        }
        delay = 0.5
        for attempt in range(self.cfg.max_attempts):
            try:
                resp = self._session.post(self._endpoint, json=body, headers=headers, timeout=120)
                if resp.status_code == 429 or resp.status_code >= 500:
                    raise LlmError(f"server returned {resp.status_code}")
                resp.raise_for_status()
                payload = resp.json()
                return payload["choices"][0]["message"]["content"]
            except Exception as exc:  # noqa: BLE001 - retry any transport fault
                if attempt + 1 == self.cfg.max_attempts:
                    raise LlmError(f"chat request failed: {exc}") from exc
                time.sleep(delay)
                delay *= 2


class ReplayClient:
    """Replays recorded responses keyed by prompt hash."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            self._responses: dict[str, str] = json.load(fh)

    def complete(self, prompt: str) -> str:
        key = prompt_hash(prompt)
        if key in self._responses:
            return self._responses[key]
        raise LlmError(f"no recorded response for prompt hash {key[:12]}…")


class CallableClient:
    """Adapts any ``prompt -> response`` function to the client interface."""

    def __init__(self, fn):
        self._fn = fn

    def complete(self, prompt: str) -> str:
        return self._fn(prompt)
