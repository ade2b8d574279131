"""Chat-completions client, the JSON transport it shares with the remote
embedder, and a replay stub.

The wire format is the common JSON-over-HTTPS chat shape:
``{"model": ..., "temperature": 0, "messages": [{"role": "user", "content": ...}]}``.
Requests are greedy (temperature 0).  The credential comes from the
``LLM_API_KEY`` environment variable, a fixed name; the base URL from
the caller or ``LLM_API_BASE``.

The stub file is a JSON map from the SHA-256 hash of the prompt to the
response text, letting integration tests replay recorded sessions
completely offline.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

MAX_ATTEMPTS = 3  # tries per request on 429, 5xx or a transport fault


class LlmError(RuntimeError):
    """Transport failure, exhausted retry budget or malformed reply."""


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class JsonEndpoint:
    """One remote JSON endpoint: POST a body, get the decoded reply.

    The URL is ``url`` or else the ``base_env`` environment variable; a
    Bearer key is sent when the ``key_env`` variable is set.  A request is
    tried up to ``MAX_ATTEMPTS`` times on 429, 5xx or any fault raised while
    sending, waiting 0.5 s before the first retry and twice as long before
    each next one.  Any other 4xx, or a body that is not JSON, is not
    retried.  Every failure raises ``error``.  Checking the reply's fields
    is the caller's job.
    """

    def __init__(self, url: str, base_env: str, key_env: str, error: type[Exception],
                 session=None):
        self._url = url or os.environ.get(base_env, "")
        if not self._url:
            raise error(f"no endpoint configured: set {base_env} or pass one")
        self._key_env = key_env
        self._error = error
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def post(self, body: dict, timeout: float):
        key = os.environ.get(self._key_env, "")
        headers = {"Authorization": f"Bearer {key}"} if key else {}
        delay = 0.5
        for attempt in range(MAX_ATTEMPTS):
            try:
                resp = self._session.post(self._url, json=body, headers=headers, timeout=timeout)
                if resp.status_code == 429 or resp.status_code >= 500:
                    raise self._error(f"server returned {resp.status_code}")
                break
            except Exception as exc:  # noqa: BLE001 - retry any transport fault
                if attempt + 1 == MAX_ATTEMPTS:
                    raise self._error(
                        f"request failed after {MAX_ATTEMPTS} attempts: {exc}") from exc
                time.sleep(delay)
                delay *= 2
        try:  # a repeat would get the same 4xx or body
            resp.raise_for_status()
            return resp.json()
        except Exception as exc:  # noqa: BLE001 - any HTTP or decoding error
            raise self._error(f"request failed: {exc}") from exc


class ChatClient:
    """Minimal chat client: one prompt in, first response text out."""

    def __init__(self, endpoint: str = "", model: str = "", session=None):
        self.model = model
        self._endpoint = JsonEndpoint(endpoint, "LLM_API_BASE", "LLM_API_KEY", LlmError,
                                      session)

    def complete(self, prompt: str) -> str:
        payload = self._endpoint.post({
            "model": self.model,
            "temperature": 0.0,
            "messages": [{"role": "user", "content": prompt}],
        }, timeout=120)
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str):
            raise LlmError("malformed chat reply: no choices[0].message.content string")
        return content


class ReplayClient:
    """Replays recorded responses keyed by prompt hash; the file must be a
    JSON object whose values are all response text, in UTF-8."""

    def __init__(self, path: str):
        try:
            with open(path, encoding="utf-8") as fh:
                responses = json.load(fh)
        except ValueError:  # not UTF-8, or not JSON
            responses = None
        if not (isinstance(responses, dict)
                and all(type(text) is str for text in responses.values())):
            raise LlmError(f"stub file {path} is not a JSON object of prompt hash "
                           "to response text")
        self._responses: dict[str, str] = responses

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
