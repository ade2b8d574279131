import json
import string
from pathlib import Path

import numpy as np
import pytest

from semtree.catalog import ArtifactLibrary, IntentSample
from semtree.cluster import SweepPool
from semtree.embed import EmbedderConfig, HashedEmbedder


def library(*rows, ecosystem: str = "") -> ArtifactLibrary:
    """An ``ArtifactLibrary`` of ``(id, name, description)`` rows, in order."""
    ids, names, descriptions = zip(*rows)
    return ArtifactLibrary(ecosystem=ecosystem, artifact_ids=ids, names=names,
                           descriptions=descriptions)


def _word(rng: np.random.Generator, length: int = 8) -> str:
    letters = rng.choice(list(string.ascii_lowercase), size=length)
    return "".join(letters)


def make_family_library(n_families: int = 5, per_family: int = 20, seed: int = 7):
    """Synthetic library of embedding-separable families.

    Each family shares a pool of tokens; each artifact adds unique
    tokens, so hashed embeddings cluster by family while staying
    distinguishable within it.
    """
    rng = np.random.default_rng(seed)
    rows = []
    family_pools = [[_word(rng) for _ in range(8)] for _ in range(n_families)]
    for f in range(n_families):
        pool = family_pools[f]
        for i in range(per_family):
            unique = [_word(rng) for _ in range(3)]
            shared = list(rng.choice(pool, size=5, replace=False))
            words = shared + unique
            rows.append((f"fam{f}-art{i:02d}", f"pkg-{f}-{i}", " ".join(words)))
    return library(*rows, ecosystem="synthetic")


def perturbed_intents(lib: ArtifactLibrary, count: int, seed: int = 11):
    """Intent samples made by lightly perturbing artifact descriptions."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(lib), size=count, replace=False)
    samples = []
    for idx in picks.tolist():
        words = lib.descriptions[idx].split()
        rng.shuffle(words)
        words = words[:-1]  # drop one token
        samples.append(IntentSample(intent=" ".join(words), target_id=lib.artifact_ids[idx]))
    return samples


def make_depth1_index(lib: ArtifactLibrary, embedder):
    """One root over all artifacts: tree search must equal a linear scan."""
    from semtree.embed import l2_normalize
    from semtree.tree import TreeIndex

    embeddings = embedder.embed(list(lib.descriptions))
    n = len(lib)
    leaf_ids = [f"L0-{i}" for i in range(n)]
    return TreeIndex(
        ids=leaf_ids + ["L1-0"], levels=[0] * n + [1], kinds=["leaf"] * n + ["internal"],
        names=[*lib.names, "root"], summaries=[*lib.descriptions, "everything"],
        artifact_ids=[*lib.artifact_ids, None],
        children=[()] * n + [leaf_ids], roots=("L1-0",),
        embeddings=np.vstack([embeddings, l2_normalize(embeddings.mean(axis=0))]),
    )


def make_balanced_index(branching: int = 8, leaf_levels: int = 3, dim: int = 32,
                        seed: int = 5):
    """Balanced synthetic polyhierarchy: ``branching`` roots, each subtree
    fanning out by ``branching`` for ``leaf_levels`` more levels."""
    from semtree.embed import l2_normalize
    from semtree.tree import TreeIndex

    rng = np.random.default_rng(seed)
    n = branching ** (leaf_levels + 1)
    vectors = [l2_normalize(rng.normal(size=dim)) for _ in range(n)]
    ids = [f"L0-{i}" for i in range(n)]
    cols = {"ids": ids, "levels": [0] * n, "kinds": ["leaf"] * n,
            "names": [f"leaf{i}" for i in range(n)],
            "summaries": [f"synthetic leaf {i}" for i in range(n)],
            "artifact_ids": [f"a{i}" for i in range(n)], "children": [()] * n}
    first, level = 0, 0  # the top level is the rows from first on
    while len(ids) - first > branching:
        level += 1
        below, first = range(first, len(ids)), len(ids)
        for j in range(0, len(below), branching):
            group = below[j:j + branching]
            pid = f"L{level}-{j // branching}"
            vectors.append(l2_normalize(np.mean([vectors[r] for r in group], axis=0)))
            for key, value in (("ids", pid), ("levels", level), ("kinds", "internal"),
                               ("names", pid), ("summaries", f"group {pid}"),
                               ("artifact_ids", None),
                               ("children", tuple(ids[r] for r in group))):
                cols[key].append(value)
    return TreeIndex(**cols, roots=ids[first:], embeddings=vectors)


def columns(nodes) -> dict:
    """The ``TreeIndex`` column keywords of hand-written node literals.

    Each node is a dict with an ``id``.  ``level`` defaults to 0,
    ``children`` to none, ``kind`` to internal for a node with children
    and leaf otherwise, ``name`` and ``summary`` to the id, and
    ``artifact_id`` to the id for a leaf and None otherwise.
    """
    filled = []
    for node in nodes:
        kind = node.get("kind", "internal" if node.get("children") else "leaf")
        filled.append({"level": 0, "name": node["id"], "summary": node["id"],
                       "children": (), "artifact_id": node["id"] if kind == "leaf" else None,
                       **node, "kind": kind})
    return {key: [node[field] for node in filled] for key, field in (
        ("ids", "id"), ("levels", "level"), ("kinds", "kind"), ("names", "name"),
        ("summaries", "summary"), ("artifact_ids", "artifact_id"), ("children", "children"))}


def read_index(path):
    """An index file's header, parsed, and its payload: the bytes after
    the first newline."""
    head, _, payload = Path(path).read_bytes().partition(b"\n")
    return json.loads(head.decode("utf-8")), payload


def write_index(path, header, payload: bytes) -> None:
    """Write an index file of ``header`` (with ``json.dumps``' ASCII
    escapes), a newline and ``payload``."""
    Path(path).write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


def encode_payload(matrix) -> bytes:
    """The payload of the ``(n, dim)`` ``matrix``, encoded here by hand:
    ``np.packbits`` of the dim-major entries (``matrix.T`` in C order)
    whose bits are nonzero, then those entries as little-endian float64."""
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype="<f8").T)
    nonzero = matrix.view("<u8") != 0
    return np.packbits(nonzero).tobytes() + matrix[nonzero].tobytes()


ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def family_library():
    return make_family_library()


@pytest.fixture()
def pool():
    """The ``SweepPool`` that a test's ``select_k_bic`` calls share, closed
    (its workers, if any were forked, gone) when the test ends."""
    with SweepPool() as sweep:
        yield sweep


@pytest.fixture(scope="session")
def hashed_embedder():
    return HashedEmbedder(EmbedderConfig(provider="hashed-local", dim=128, seed=3))


@pytest.fixture(scope="session")
def family_index(family_library, hashed_embedder):
    from semtree.tree import build_tree

    return build_tree(family_library, hashed_embedder, seed=0)
