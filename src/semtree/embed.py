"""Dense text embeddings via pluggable providers.

Two providers exist: a deterministic offline one that signed-hashes
token features into a fixed number of buckets, and a remote JSON/HTTPS
embeddings endpoint.  All vectors are L2-normalized at creation so
cosine similarity reduces to a dot product.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class EmbeddingError(RuntimeError):
    """Provider transport failure or malformed provider response."""


@dataclass(frozen=True)
class EmbedderConfig:
    provider: str = "hashed-local"  # or "remote"
    dim: int = 256
    seed: int = 0
    endpoint: str = ""
    model: str = ""
    credential_env: str = "EMBED_API_KEY"
    batch_size: int = 64
    max_attempts: int = 3

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


def l2_normalize(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        out = np.zeros_like(v)
        out[0] = 1.0
        return out
    return v / norm


def _hash_feature(feature: str, seed: int) -> int:
    h = hashlib.blake2b(feature.encode("utf-8"), digest_size=8,
                        key=seed.to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


def _hashed_embed(text: str, dim: int, seed: int) -> np.ndarray:
    """Signed hashing of tokens and their character trigrams into buckets."""
    vec = np.zeros(dim)
    tokens = _TOKEN_RE.findall(text.lower())
    features = list(tokens)
    for tok in tokens:
        padded = f"#{tok}#"
        features.extend(padded[i:i + 3] for i in range(len(padded) - 2))
    for feat in features:
        h = _hash_feature(feat, seed)
        sign = 1.0 if h & 1 else -1.0
        vec[(h >> 1) % dim] += sign
    return l2_normalize(vec)


class HashedEmbedder:
    """Offline, deterministic embedder: same (text, seed) → same vector."""

    def __init__(self, cfg: EmbedderConfig):
        self.cfg = cfg

    @property
    def dim(self) -> int:
        return self.cfg.dim

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise ValueError("no texts to embed")
        return np.stack([_hashed_embed(t, self.cfg.dim, self.cfg.seed) for t in texts])


class RemoteEmbedder:
    """Batched JSON-over-HTTPS embeddings client with retry/backoff.

    Request: ``{"model": ..., "input": [texts]}``; the response must
    contain one vector per input, in order, under ``data[i].embedding``
    or a top-level ``embeddings`` list.
    """

    def __init__(self, cfg: EmbedderConfig, session=None):
        self.cfg = cfg
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._endpoint = cfg.endpoint or os.environ.get("EMBED_API_BASE", "")
        if not self._endpoint:
            raise EmbeddingError("no embeddings endpoint configured")

    @property
    def dim(self) -> int:
        return self.cfg.dim

    def _post(self, batch: list[str]) -> list[list[float]]:
        headers = {}
        key = os.environ.get(self.cfg.credential_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        delay = 0.5
        for attempt in range(self.cfg.max_attempts):
            try:
                resp = self._session.post(
                    self._endpoint,
                    json={"model": self.cfg.model, "input": batch},
                    headers=headers,
                    timeout=60,
                )
                if resp.status_code in (429,) or resp.status_code >= 500:
                    raise EmbeddingError(f"server returned {resp.status_code}")
                resp.raise_for_status()
                payload = resp.json()
                break
            except Exception as exc:  # noqa: BLE001 - retry any transport fault
                if attempt + 1 == self.cfg.max_attempts:
                    raise EmbeddingError(f"embedding request failed: {exc}") from exc
                time.sleep(delay)
                delay *= 2
        if "data" in payload:
            vectors = [row["embedding"] for row in payload["data"]]
        else:
            vectors = payload["embeddings"]
        if len(vectors) != len(batch):
            raise EmbeddingError(f"expected {len(batch)} vectors, got {len(vectors)}")
        return vectors

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise ValueError("no texts to embed")
        rows: list[np.ndarray] = []
        for start in range(0, len(texts), self.cfg.batch_size):
            for vec in self._post(texts[start:start + self.cfg.batch_size]):
                arr = np.asarray(vec, dtype=np.float64)
                if arr.shape != (self.cfg.dim,):
                    raise EmbeddingError(
                        f"dimension mismatch: expected {self.cfg.dim}, got {arr.shape[0]}"
                    )
                if not np.all(np.isfinite(arr)):
                    raise EmbeddingError("non-finite values in remote embedding")
                rows.append(l2_normalize(arr))
        return np.stack(rows)


def make_embedder(cfg: EmbedderConfig):
    if cfg.provider == "hashed-local":
        return HashedEmbedder(cfg)
    if cfg.provider == "remote":
        return RemoteEmbedder(cfg)
    raise ValueError(f"unknown embedding provider {cfg.provider!r}")
