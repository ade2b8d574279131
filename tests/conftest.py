import json
import string
from pathlib import Path

import numpy as np
import pytest

from semtree.catalog import Artifact, ArtifactLibrary, IntentSample
from semtree.embed import EmbedderConfig, HashedEmbedder


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
    artifacts = []
    family_pools = [[_word(rng) for _ in range(8)] for _ in range(n_families)]
    for f in range(n_families):
        pool = family_pools[f]
        for i in range(per_family):
            unique = [_word(rng) for _ in range(3)]
            shared = list(rng.choice(pool, size=5, replace=False))
            words = shared + unique
            artifacts.append(Artifact(
                id=f"fam{f}-art{i:02d}",
                name=f"pkg-{f}-{i}",
                description=" ".join(words),
                ecosystem="synthetic",
            ))
    return ArtifactLibrary(ecosystem="synthetic", artifacts=tuple(artifacts))


def perturbed_intents(lib: ArtifactLibrary, count: int, seed: int = 11):
    """Intent samples made by lightly perturbing artifact descriptions."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(lib.artifacts), size=count, replace=False)
    samples = []
    for idx in picks:
        artifact = lib.artifacts[int(idx)]
        words = artifact.description.split()
        rng.shuffle(words)
        words = words[:-1]  # drop one token
        samples.append(IntentSample(intent=" ".join(words), target_id=artifact.id))
    return samples


def make_depth1_index(lib: ArtifactLibrary, embedder):
    """One root over all artifacts: tree search must equal a linear scan."""
    from semtree.embed import l2_normalize
    from semtree.tree import TreeIndex, TreeNode

    embeddings = embedder.embed([a.description for a in lib.artifacts])
    nodes = {}
    leaf_ids = []
    for i, artifact in enumerate(lib.artifacts):
        nid = f"L0-{i}"
        nodes[nid] = TreeNode(
            id=nid, level=0, kind="leaf", name=artifact.name,
            summary=artifact.description, artifact_id=artifact.id,
        )
        leaf_ids.append(nid)
    root = TreeNode(
        id="L1-0", level=1, kind="internal", name="root",
        summary="everything", children=tuple(leaf_ids),
    )
    nodes[root.id] = root
    matrix = np.vstack([embeddings, l2_normalize(embeddings.mean(axis=0))])
    return TreeIndex(nodes=nodes, roots=(root.id,), embeddings=matrix)


def make_balanced_index(branching: int = 8, leaf_levels: int = 3, dim: int = 32,
                        seed: int = 5):
    """Balanced synthetic polyhierarchy: ``branching`` roots, each subtree
    fanning out by ``branching`` for ``leaf_levels`` more levels."""
    from semtree.embed import l2_normalize
    from semtree.tree import TreeIndex, TreeNode

    rng = np.random.default_rng(seed)
    n_leaves = branching ** (leaf_levels + 1)
    leaf_embeddings = np.stack(
        [l2_normalize(rng.normal(size=dim)) for _ in range(n_leaves)]
    )
    nodes = {}
    vectors = {}
    level_ids = []
    for i in range(n_leaves):
        nid = f"L0-{i}"
        nodes[nid] = TreeNode(
            id=nid, level=0, kind="leaf", name=f"leaf{i}",
            summary=f"synthetic leaf {i}", artifact_id=f"a{i}",
        )
        vectors[nid] = leaf_embeddings[i]
        level_ids.append(nid)
    level = 0
    while len(level_ids) > branching:
        level += 1
        parents = []
        for j in range(0, len(level_ids), branching):
            children = tuple(level_ids[j:j + branching])
            pid = f"L{level}-{j // branching}"
            vectors[pid] = l2_normalize(
                np.mean([vectors[c] for c in children], axis=0)
            )
            nodes[pid] = TreeNode(
                id=pid, level=level, kind="internal", name=pid,
                summary=f"group {pid}", children=children,
            )
            parents.append(pid)
        level_ids = parents
    return TreeIndex(nodes=nodes, roots=tuple(level_ids),
                     embeddings=[vectors[nid] for nid in nodes])


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
    """The payload of ``matrix``, encoded here by hand: ``np.packbits`` of
    the row-major entries whose bits are nonzero, then those entries as
    little-endian float64."""
    matrix = np.asarray(matrix, dtype="<f8")
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


@pytest.fixture(scope="session")
def hashed_embedder():
    return HashedEmbedder(EmbedderConfig(provider="hashed-local", dim=128, seed=3))


@pytest.fixture(scope="session")
def family_index(family_library, hashed_embedder):
    from semtree.tree import build_tree

    return build_tree(family_library, hashed_embedder, seed=0)
