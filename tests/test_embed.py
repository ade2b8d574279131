import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semtree.embed import (
    _TOKEN_RE,
    TOKEN_MEMO_SIZE,
    EmbedderConfig,
    EmbeddingError,
    HashedEmbedder,
    RemoteEmbedder,
    _hash_feature,
    _hashed_embed,
    _token_terms,
    l2_normalize,
    token_scope,
)
from semtree import embed


def reference_hashed_embed(text: str, dim: int, seed: int) -> np.ndarray:
    """The embedder without its memo: every token and trigram hashed anew,
    each added into its bucket in turn."""
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


TEXTS = st.text(alphabet=st.sampled_from("abcxyzAZ019 ,.!-ÄéßЖ漢"), max_size=60)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(TEXTS)
@example("")
@example("!!!")
@example("Grüße, naïve café — 漢字 ЖЖ")
@example("a" * 40 + " " + "0123456789" * 4 + " b")
def test_memoized_embed_matches_reference(text):
    want = reference_hashed_embed(text, 64, 5).tobytes()
    for _ in range(2):  # the second call reads the memo
        assert _hashed_embed(text, 64, 5).tobytes() == want


@pytest.mark.parametrize("seed", [0, 7, -3])
def test_copied_keyed_hasher_matches_a_freshly_keyed_one(seed):
    for feature in ("json", "#js", "on#", "", "漢字", "#é#", "grüße"):
        fresh = hashlib.blake2b(feature.encode("utf-8"), digest_size=8,
                                key=seed.to_bytes(8, "little", signed=True))
        for _ in range(2):  # the keyed state is copied, never consumed
            assert _hash_feature(feature, seed) == int.from_bytes(fresh.digest(), "little")


def test_embedders_of_other_settings_do_not_share_memo_entries():
    texts = ["parse json files", "json schema", "parse yaml", "files json parse"]
    configs = [(64, 1), (32, 1), (64, 2), (32, 2)]
    embedders = [HashedEmbedder(EmbedderConfig(dim=d, seed=s)) for d, s in configs]
    for text in texts:  # interleaved, so each token is memoized under every setting
        for (dim, seed), embedder in zip(configs, embedders):
            got = embedder.embed([text])[0]
            assert got.tobytes() == reference_hashed_embed(text, dim, seed).tobytes()


def test_token_memo_stays_within_its_bound():
    assert _token_terms.cache_info().maxsize == TOKEN_MEMO_SIZE
    tokens = [f"tok{i}" for i in range(TOKEN_MEMO_SIZE + 500)]
    embedder = HashedEmbedder(EmbedderConfig(dim=16, seed=0))
    for start in range(0, len(tokens), 100):
        embedder.embed([" ".join(tokens[start:start + 100])])
    assert _token_terms.cache_info().currsize <= TOKEN_MEMO_SIZE
    assert (embedder.embed([tokens[0]])[0].tobytes()
            == reference_hashed_embed(tokens[0], 16, 0).tobytes())


SCOPE_TEXTS = ["parse json files with retries", "", "!!!", "go go go go go",
               "Grüße, naïve café — 漢字 ЖЖ", "json json yaml json", "JSON Parse",
               "a" * 40 + " " + "0123456789" * 4]


def test_rows_in_a_token_scope_match_the_reference():
    # Every text twice, the second time read from the scope; then a batch
    # with more distinct tokens than the LRU holds, twice.
    wide = [" ".join(f"w{i}x{j}" for j in range(10)) for i in range(TOKEN_MEMO_SIZE // 10 + 50)]
    embedder = HashedEmbedder(EmbedderConfig(dim=64, seed=5))
    for batch in (SCOPE_TEXTS, SCOPE_TEXTS[::-1], wide, wide):
        want = [reference_hashed_embed(t, 64, 5).tobytes() for t in batch]
        outside = embedder.embed(batch)
        with token_scope():
            inside = [embedder.embed(batch), embedder.embed(batch)]
            inside.append(np.stack([embedder.embed([t])[0] for t in batch]))
        assert [row.tobytes() for row in outside] == want
        for rows in inside:
            assert [row.tobytes() for row in rows] == want


def test_a_token_scope_hashes_each_token_once(monkeypatch):
    calls = []

    def counted(token, dim, seed):
        calls.append((token, dim, seed))
        return _token_terms(token, dim, seed)

    monkeypatch.setattr(embed, "_token_terms", counted)
    embedder = HashedEmbedder(EmbedderConfig(dim=64, seed=5))
    with token_scope():
        for _ in range(3):
            embedder.embed(SCOPE_TEXTS)
        embedder.embed([SCOPE_TEXTS[0]])
    tokens = {tok for text in SCOPE_TEXTS for tok in embed.tokenize(text)}
    assert sorted(calls) == sorted((tok, 64, 5) for tok in tokens)
    calls.clear()
    embedder.embed(SCOPE_TEXTS[:1])  # outside a scope, each token goes to the LRU
    assert calls == [(tok, 64, 5) for tok in embed.tokenize(SCOPE_TEXTS[0])]


def test_embedders_in_one_token_scope_share_no_entries():
    texts = ["parse json files", "json schema", "parse yaml", "files json parse"]
    configs = [(64, 1), (32, 1), (64, 2), (32, 2)]
    embedders = [HashedEmbedder(EmbedderConfig(dim=d, seed=s)) for d, s in configs]
    with token_scope():
        for text in texts:  # interleaved, so each token is kept under every setting
            for (dim, seed), embedder in zip(configs, embedders):
                got = embedder.embed([text, text])
                assert got[1].tobytes() == reference_hashed_embed(text, dim, seed).tobytes()
        scope = embed._scope.get()
        assert sorted(scope) == sorted(configs)
        for (dim, seed), terms in scope.items():
            assert (terms.dim, terms.seed) == (dim, seed)
            assert all(terms[tok] == _token_terms(tok, dim, seed) for tok in terms)


def test_a_token_scope_ends_when_its_block_ends_or_raises():
    assert embed._scope.get() is None
    with token_scope():
        HashedEmbedder(EmbedderConfig(dim=16)).embed(["json"])
        assert len(embed._scope.get()) == 1
        with token_scope():  # a nested scope starts empty and leaves the outer one
            assert embed._scope.get() == {}
        assert len(embed._scope.get()) == 1
    assert embed._scope.get() is None
    with pytest.raises(RuntimeError, match="embedder down"):
        with token_scope():
            raise RuntimeError("embedder down")
    assert embed._scope.get() is None


def test_one_text_embeds_to_its_row_of_a_batch():
    # A single text skips the stack of a batch; its vector keeps the bits.
    texts = ["parse json files with retries", "!!!", "go go go go", "",
             "Straße NAÏVE école 漢字 X-Ray", "json json yaml json"]
    embedder = HashedEmbedder(EmbedderConfig(dim=64, seed=5))
    batch = embedder.embed(texts)
    for i, text in enumerate(texts):
        one = embedder.embed([text])
        assert one.shape == (1, 64)
        assert one[0].tobytes() == batch[i].tobytes()


def reference_l2_normalize(v):
    """l2_normalize with the norm taken by np.linalg.norm."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        out = np.zeros_like(v)
        out[0] = 1.0
        return out
    return v / norm


def test_l2_normalize_equals_numpy_norm_bits():
    # Scales from 1e-170 to 1e170 reach the underflow of the squares to a
    # zero norm and their overflow to an infinite one; an inf entry too.
    rng = np.random.default_rng(0)
    vectors = []
    for exponent in range(-170, 171, 10):
        for size in (1, 7, 256):
            vectors.append(rng.normal(size=size) * 10.0 ** exponent)
    vectors += [np.array([np.inf, 1.0]), np.array([0.0, -0.0, 0.0]), rng.normal(size=512)[::3]]
    with np.errstate(over="ignore", invalid="ignore"):  # as np.linalg.norm warns
        for v in vectors:
            assert l2_normalize(v).tobytes() == reference_l2_normalize(v).tobytes()


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
        if self.status_code >= 400:
            raise RuntimeError(f"HTTP {self.status_code}")


class FakeSession:
    def __init__(self, payloads):
        self.payloads = list(payloads)
        self.calls = 0
        self.headers = []  # the headers of each request, in order

    def post(self, *args, **kwargs):
        self.calls += 1
        self.headers.append(kwargs["headers"])
        return self.payloads.pop(0)


def test_remote_dimension_mismatch():
    cfg = EmbedderConfig(provider="remote", dim=8, endpoint="https://stub/embed")
    session = FakeSession([FakeResponse({"embeddings": [[0.1, 0.2, 0.3, 0.4]]})])
    embedder = RemoteEmbedder(cfg, session=session)
    with pytest.raises(EmbeddingError, match="dimension mismatch"):
        embedder.embed(["text"])


def test_remote_scalar_row_is_a_dimension_mismatch():
    cfg = EmbedderConfig(provider="remote", dim=2, endpoint="https://stub/embed")
    session = FakeSession([FakeResponse({"embeddings": [5.0]})])
    with pytest.raises(EmbeddingError, match="dimension mismatch"):
        RemoteEmbedder(cfg, session=session).embed(["text"])


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
    cfg = EmbedderConfig(provider="remote", dim=2, endpoint="https://stub/embed")
    session = FakeSession([FakeResponse({}, status=500)] * 3)
    embedder = RemoteEmbedder(cfg, session=session)
    with pytest.raises(EmbeddingError):
        embedder.embed(["text"])
    assert session.calls == 3


@pytest.mark.parametrize("dim", [0, -3])
def test_config_rejects_dim_below_one(dim):
    with pytest.raises(ValueError, match="dim must be >= 1"):
        EmbedderConfig(dim=dim)


@pytest.mark.parametrize("field, value", [
    ("dim", 2.5), ("dim", 16.0), ("dim", True), ("dim", "16"), ("dim", np.float64(16)),
    ("seed", 1.5), ("seed", True), ("seed", "0"), ("seed", np.float64(0)),
])
def test_config_rejects_a_non_integer_setting(field, value):
    # 1.5 failed only at embed time, and True was taken for 1
    with pytest.raises(ValueError, match=f"^embedding {field} must be an integer, got "):
        EmbedderConfig(**{field: value})


def test_config_takes_numpy_integers():
    cfg = EmbedderConfig(dim=np.int64(16), seed=np.int32(3))
    assert type(cfg.dim) is int and type(cfg.seed) is int
    texts = ["parse json files", "send http requests"]
    got = HashedEmbedder(cfg).embed(texts)
    assert got.tobytes() == HashedEmbedder(EmbedderConfig(dim=16, seed=3)).embed(texts).tobytes()
