import numpy as np
import pytest

from semtree.embed import (
    EmbedderConfig,
    EmbeddingError,
    HashedEmbedder,
    RemoteEmbedder,
)


def test_hashed_deterministic():
    emb = HashedEmbedder(EmbedderConfig(dim=64, seed=9))
    a = emb.embed(["parse json files"])
    b = emb.embed(["parse json files"])
    assert np.array_equal(a, b)


def test_hashed_norm_one(hashed_embedder):
    vecs = hashed_embedder.embed(["alpha beta", "gamma", "x"])
    assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-6)


def test_hashed_seed_changes_vectors():
    a = HashedEmbedder(EmbedderConfig(dim=64, seed=1)).embed(["alpha beta"])
    b = HashedEmbedder(EmbedderConfig(dim=64, seed=2)).embed(["alpha beta"])
    assert not np.array_equal(a, b)


class FakeResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def json(self):
        return self._payload

    def raise_for_status(self):
        pass


class FakeSession:
    def __init__(self, payloads):
        self.payloads = list(payloads)
        self.calls = 0

    def post(self, *args, **kwargs):
        self.calls += 1
        return self.payloads.pop(0)


def test_remote_dimension_mismatch():
    cfg = EmbedderConfig(provider="remote", dim=8, endpoint="https://stub/embed")
    session = FakeSession([FakeResponse({"embeddings": [[0.1, 0.2, 0.3, 0.4]]})])
    embedder = RemoteEmbedder(cfg, session=session)
    with pytest.raises(EmbeddingError, match="dimension mismatch"):
        embedder.embed(["text"])


def test_remote_retries_then_succeeds(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    cfg = EmbedderConfig(provider="remote", dim=2, endpoint="https://stub/embed")
    session = FakeSession([
        FakeResponse({}, status=503),
        FakeResponse({"embeddings": [[3.0, 4.0]]}),
    ])
    embedder = RemoteEmbedder(cfg, session=session)
    vecs = embedder.embed(["text"])
    assert session.calls == 2
    assert np.allclose(vecs[0], [0.6, 0.8])


def test_remote_exhausts_retry_budget(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    cfg = EmbedderConfig(provider="remote", dim=2, endpoint="https://stub/embed",
                         max_attempts=3)
    session = FakeSession([FakeResponse({}, status=500)] * 3)
    embedder = RemoteEmbedder(cfg, session=session)
    with pytest.raises(EmbeddingError):
        embedder.embed(["text"])
    assert session.calls == 3
