"""The retrying JSON transport, exercised through both clients that use it."""

import pytest

from semtree.embed import EmbedderConfig, EmbeddingError, RemoteEmbedder
from semtree.llm import MAX_ATTEMPTS, ChatClient, LlmError
from test_embed import FakeResponse, FakeSession

CHAT_REPLY = {"choices": [{"message": {"content": "[a, b]"}}]}
EMBED_REPLY = {"embeddings": [[3.0, 4.0]]}


def chat(session):
    client = ChatClient("https://stub/chat", "m", session=session)
    return lambda: client.complete("prompt")


def embeddings(session):
    cfg = EmbedderConfig(provider="remote", dim=2, endpoint="https://stub/embed")
    embedder = RemoteEmbedder(cfg, session=session)
    return lambda: embedder.embed(["text"])


# (client factory, a well-formed reply, the client's error, its key variable)
CLIENTS = {
    "chat": (chat, CHAT_REPLY, LlmError, "LLM_API_KEY"),
    "embeddings": (embeddings, EMBED_REPLY, EmbeddingError, "EMBED_API_KEY"),
}


@pytest.fixture(params=sorted(CLIENTS))
def client(request):
    return CLIENTS[request.param]


@pytest.fixture()
def sleeps(monkeypatch):
    waited = []
    monkeypatch.setattr("time.sleep", waited.append)
    return waited


def test_chat_retries_a_503_then_succeeds(sleeps):
    session = FakeSession([FakeResponse({}, status=503), FakeResponse(CHAT_REPLY)])
    assert chat(session)() == "[a, b]"
    assert session.calls == 2
    assert sleeps == [0.5]


def test_exhaustion_after_max_attempts_with_doubling_backoff(client, sleeps):
    make, _, error, _ = client
    session = FakeSession([FakeResponse({}, status=500)] * MAX_ATTEMPTS)
    with pytest.raises(error, match="server returned 500"):
        make(session)()
    assert session.calls == MAX_ATTEMPTS == 3
    assert sleeps == [0.5, 1.0]


def test_client_error_is_not_retried(client, sleeps):
    make, _, error, _ = client
    session = FakeSession([FakeResponse({}, status=401)])
    with pytest.raises(error, match="HTTP 401"):
        make(session)()
    assert session.calls == 1
    assert sleeps == []


@pytest.mark.parametrize("reply", [{}, {"choices": []}, {"data": [{}]}, {"embeddings": 5},
                                   {"choices": [{"message": {"content": None}}]}, [1]])
def test_malformed_reply_raises_after_one_request(client, sleeps, reply):
    make, _, error, _ = client
    session = FakeSession([FakeResponse(reply)])
    with pytest.raises(error, match="malformed"):
        make(session)()
    assert session.calls == 1
    assert sleeps == []


@pytest.mark.parametrize("key", [None, "sk-test"])
def test_authorization_header_only_when_key_is_set(client, monkeypatch, key):
    make, reply, _, key_env = client
    for env in ("LLM_API_KEY", "EMBED_API_KEY"):
        monkeypatch.delenv(env, raising=False)
    if key is not None:
        monkeypatch.setenv(key_env, key)
    session = FakeSession([FakeResponse(reply)])
    make(session)()
    assert session.headers == [{} if key is None else {"Authorization": f"Bearer {key}"}]

