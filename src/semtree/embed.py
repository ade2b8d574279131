"""Dense text embeddings via pluggable providers.

Two providers exist: a deterministic offline one that signed-hashes
token features into a fixed number of buckets, and a remote JSON/HTTPS
embeddings endpoint.  All vectors are L2-normalized at creation so
cosine similarity reduces to a dot product.

The offline provider keeps each token's hashed buckets and signs in a
process-wide LRU memo of ``TOKEN_MEMO_SIZE`` tokens, keyed by token,
dimension and seed, since intents repeat their words.  A batch can hold
more distinct tokens than that (a build's leaf level holds ~3,300), so
every call, one query or a whole tree level, also keeps its tokens'
terms in a plain dict for that call: each distinct token is looked up in
the LRU, and hashed, at most once per call.  The memos only save
hashing: vectors are the same with or without them.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np

from semtree.checks import check_integer
from semtree.llm import JsonEndpoint

_TOKEN_RE = re.compile(r"[a-z0-9]+")

BATCH_SIZE = 64  # texts per remote embeddings request
TOKEN_MEMO_SIZE = 1 << 11  # tokens whose hashed features are kept, per process


class EmbeddingError(RuntimeError):
    """Provider transport failure or malformed provider response."""


@dataclass(frozen=True)
class EmbedderConfig:
    provider: str = "hashed-local"  # or "remote"
    dim: int = 256
    seed: int = 0
    endpoint: str = ""
    model: str = ""

    def __post_init__(self):
        # kept as Python ints: a numpy one has no to_bytes and no JSON form
        object.__setattr__(self, "dim", check_integer("embedding dim", self.dim, 1))
        object.__setattr__(self, "seed", check_integer("embedding seed", self.seed))
        if not -2**63 <= self.seed < 2**63:  # the hash key is the seed's 8 bytes
            raise ValueError(f"embedding seed must be in [-2**63, 2**63), got {self.seed}")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters: the one
    tokenizer of the embedder, the summarizer and the lexical baselines."""
    return _TOKEN_RE.findall(text.lower())


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """``v`` (1-D) over its L2 norm; a norm of 0 (a zero vector, or one whose
    squares underflow) gives the zero vector, which has no direction.  The
    norm is ``np.linalg.norm``'s own 1-D float path, ``sqrt(v · v)``,
    without its dispatch."""
    v = np.asarray(v, dtype=np.float64)
    norm = math.sqrt(v.dot(v))
    return v / norm if norm else np.zeros_like(v)


@functools.lru_cache(maxsize=8)
def _keyed_hasher(seed: int):
    """A blake2b state keyed by ``seed``, shared: hash with a ``.copy()``
    of it, which skips the keying, and never update it."""
    return hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little", signed=True))


def _hash_feature(feature: str, seed: int) -> int:
    h = _keyed_hasher(seed).copy()
    h.update(feature.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


@functools.lru_cache(maxsize=TOKEN_MEMO_SIZE)
def _token_terms(token: str, dim: int, seed: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Buckets and signs of one token's features: itself and its ``#tok#`` trigrams."""
    padded = f"#{token}#"
    hashes = [_hash_feature(f, seed)
              for f in (token, *(padded[i:i + 3] for i in range(len(padded) - 2)))]
    return tuple((h >> 1) % dim for h in hashes), tuple(1.0 if h & 1 else -1.0 for h in hashes)


class HashedEmbedder:
    """Offline, deterministic embedder: same (text, seed) → same vector.

    Signed hashing of tokens and their character trigrams into buckets.
    Each bucket's sum is a small integer, so it is exact in any order, and
    the memos give the same vector as hashing every feature anew.
    """

    def __init__(self, cfg: EmbedderConfig):
        self.cfg = cfg

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise ValueError("no texts to embed")
        dim, seed = self.cfg.dim, self.cfg.seed
        terms = {}  # token → (buckets, signs), each read from the LRU once a call
        rows = np.empty((len(texts), dim))  # filled in place: a stacked list holds a batch twice
        for i, text in enumerate(texts):
            buckets: list[int] = []
            signs: list[float] = []
            for tok in tokenize(text):
                if tok not in terms:
                    terms[tok] = _token_terms(tok, dim, seed)
                b, s = terms[tok]
                buckets += b
                signs += s
            rows[i] = l2_normalize(np.bincount(buckets, weights=signs, minlength=dim))
        return rows


class RemoteEmbedder:
    """Batched JSON-over-HTTPS embeddings client over a retrying ``JsonEndpoint``.

    Request: ``{"model": ..., "input": [texts]}``; the response must
    contain one vector per input, in order, under ``data[i]["embedding"]``
    or a top-level ``embeddings`` list.  The credential is read from the
    ``EMBED_API_KEY`` environment variable, a fixed name.
    """

    def __init__(self, cfg: EmbedderConfig, session=None):
        self.cfg = cfg
        self._endpoint = JsonEndpoint(cfg.endpoint, "EMBED_API_BASE", "EMBED_API_KEY",
                                      EmbeddingError, session)

    def _post(self, batch: list[str]) -> list[list[float]]:
        payload = self._endpoint.post({"model": self.cfg.model, "input": batch}, timeout=60)
        try:
            vectors = ([row["embedding"] for row in payload["data"]] if "data" in payload
                       else payload["embeddings"])
            got = len(vectors)
        except (KeyError, TypeError) as exc:
            raise EmbeddingError(f"malformed embeddings reply: {exc!r}") from exc
        if got != len(batch):
            raise EmbeddingError(f"expected {len(batch)} vectors, got {got}")
        return vectors

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise ValueError("no texts to embed")
        rows: list[np.ndarray] = []
        for start in range(0, len(texts), BATCH_SIZE):
            for vec in self._post(texts[start:start + BATCH_SIZE]):
                arr = np.asarray(vec, dtype=np.float64)
                if arr.shape != (self.cfg.dim,):
                    raise EmbeddingError(
                        f"dimension mismatch: expected ({self.cfg.dim},), got {arr.shape}"
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
