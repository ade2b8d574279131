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
    _token_terms,
    l2_normalize,
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
@given(st.lists(TEXTS, min_size=1, max_size=5))
@example([""])
@example(["!!!"])
@example(["Grüße, naïve café — 漢字 ЖЖ"])
@example(["a" * 40 + " " + "0123456789" * 4 + " b"])
@example(["json json yaml json", "yaml", "", "json"])
def test_memoized_embed_matches_reference(texts):
    # A batch and each of its texts alone give the reference's bits.
    embedder = HashedEmbedder(EmbedderConfig(dim=64, seed=5))
    want = [reference_hashed_embed(text, 64, 5).tobytes() for text in texts]
    for call, want_call in [(texts, want), *(([t], [w]) for t, w in zip(texts, want))]:
        _token_terms.cache_clear()
        for _ in range(2):  # the LRU cold, then warm
            assert [row.tobytes() for row in embedder.embed(call)] == want_call


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
            want = reference_hashed_embed(text, dim, seed).tobytes()
            assert embedder.embed([text])[0].tobytes() == want
            assert [row.tobytes() for row in embedder.embed([text, text])] == [want, want]


def test_token_memo_stays_within_its_bound():
    assert _token_terms.cache_info().maxsize == TOKEN_MEMO_SIZE
    tokens = [f"tok{i}" for i in range(TOKEN_MEMO_SIZE + 500)]
    embedder = HashedEmbedder(EmbedderConfig(dim=16, seed=0))
    for start in range(0, len(tokens), 100):
        embedder.embed([" ".join(tokens[start:start + 100])])
    assert _token_terms.cache_info().currsize <= TOKEN_MEMO_SIZE
    assert (embedder.embed([tokens[0]])[0].tobytes()
            == reference_hashed_embed(tokens[0], 16, 0).tobytes())


BATCH_TEXTS = ["parse json files with retries", "", "!!!", "go go go go go",
               "Grüße, naïve café — 漢字 ЖЖ", "json json yaml json", "JSON Parse",
               "a" * 40 + " " + "0123456789" * 4]
# More distinct tokens than the LRU holds: 2,540 of them.
WIDE_TEXTS = [" ".join(f"w{i}x{j}" for j in range(10)) for i in range(TOKEN_MEMO_SIZE // 10 + 50)]


def test_a_batch_matches_the_reference():
    embedder = HashedEmbedder(EmbedderConfig(dim=64, seed=5))
    for batch in (BATCH_TEXTS, BATCH_TEXTS[::-1], WIDE_TEXTS, WIDE_TEXTS + WIDE_TEXTS):
        want = [reference_hashed_embed(t, 64, 5).tobytes() for t in batch]
        for _ in range(2):  # the second call reads what the LRU kept of the first
            assert [row.tobytes() for row in embedder.embed(batch)] == want


def features_of(tokens):
    """Each token's hashed features, as ``_token_terms`` makes them."""
    return [f for tok in tokens
            for f in (tok, *(f"#{tok}#"[i:i + 3] for i in range(len(tok))))]


@pytest.mark.parametrize("batch", [["json json yaml json"], BATCH_TEXTS * 3,
                                   WIDE_TEXTS + WIDE_TEXTS[::-1]],
                         ids=["one-text", "repeated", "wider-than-the-lru"])
def test_a_batch_hashes_each_distinct_token_once(monkeypatch, batch):
    hashed, looked_up = [], []
    feature_hash, terms = embed._hash_feature, embed._token_terms
    monkeypatch.setattr(embed, "_hash_feature", lambda f, seed: hashed.append(f)
                        or feature_hash(f, seed))
    monkeypatch.setattr(embed, "_token_terms", lambda *key: looked_up.append(key)
                        or terms(*key))
    _token_terms.cache_clear()
    embedder = HashedEmbedder(EmbedderConfig(dim=64, seed=5))
    embedder.embed(batch)
    tokens = {tok for text in batch for tok in embed.tokenize(text)}
    assert sorted(hashed) == sorted(features_of(tokens))
    one_each = sorted((tok, 64, 5) for tok in tokens)
    assert sorted(looked_up) == one_each
    looked_up.clear()
    embedder.embed(batch)  # the LRU warm: still one lookup per distinct token
    assert sorted(looked_up) == one_each


@pytest.mark.parametrize("texts", [["json json yaml"], ["json json yaml", "yaml", "!!!"]],
                         ids=["one-text", "batch"])
def test_writing_into_a_returned_row_changes_no_later_result(texts):
    embedder = HashedEmbedder(EmbedderConfig(dim=64, seed=5))
    want = [reference_hashed_embed(text, 64, 5).tobytes() for text in texts]
    embedder.embed(texts)[:] = 7.0
    assert [row.tobytes() for row in embedder.embed(texts)] == want
    for text, row in zip(texts, want):
        embedder.embed([text])[0, :] = -7.0
        assert embedder.embed([text])[0].tobytes() == row


def test_one_text_embeds_to_its_row_of_a_batch():
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


@pytest.mark.parametrize("seed", [-2**63, 2**63 - 1])
def test_config_takes_a_seed_at_either_bound(seed):
    texts = ["parse json files", "json"]
    got = HashedEmbedder(EmbedderConfig(dim=16, seed=seed)).embed(texts)
    assert [row.tobytes() for row in got] == [reference_hashed_embed(t, 16, seed).tobytes()
                                              for t in texts]


@pytest.mark.parametrize("seed", [-2**63 - 1, 2**63, np.uint64(2**63)])
def test_config_rejects_a_seed_outside_64_bits(seed):
    # the seed is the hash key's 8 bytes; 2**63 overflowed them at embed time
    with pytest.raises(ValueError, match=r"^embedding seed must be in \[-2\*\*63, 2\*\*63\), got "):
        EmbedderConfig(seed=seed)


def test_config_takes_numpy_integers():
    cfg = EmbedderConfig(dim=np.int64(16), seed=np.int32(3))
    assert type(cfg.dim) is int and type(cfg.seed) is int
    texts = ["parse json files", "send http requests"]
    got = HashedEmbedder(cfg).embed(texts)
    assert got.tobytes() == HashedEmbedder(EmbedderConfig(dim=16, seed=3)).embed(texts).tobytes()
