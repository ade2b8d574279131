"""Seeded input generators for the benchmark.

Everything here is a pure function of its seed (an int or a string such
as ``"7/build/2"``): the same seed gives the same catalog, the same
intents and the same files, byte for byte.  The
program under test only ever sees the JSON-lines files written here.

Catalogs are made of families.  The artifacts of one family share a pool
of words, and each artifact adds words of its own, so the hashed
embedder clusters them by family while each stays distinguishable.  An
intent keeps 30-70% of its target's words, shuffled, and adds one to
three words that are not the target's.
"""

from __future__ import annotations

import json
import math
import random
import string

POOL_WORDS = 10      # words in each family's shared pool
SHARED_WORDS = 5     # pool words each artifact uses
UNIQUE_WORDS = 3     # words only this artifact uses
RAGGED_SPREAD = 0.5  # ragged family sizes range over exp(+-0.5) of the mean
ZIPF_S = 1.0         # intent popularity skew


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(5, 9)))


def make_catalog(family_sizes: list[int], seed) -> list[dict]:
    """Artifacts as JSON-ready dicts, family by family, ids ``f<F>-a<I>``."""
    rng = random.Random(seed)
    used: set[str] = set()

    def fresh() -> str:
        while True:
            w = _word(rng)
            if w not in used:
                used.add(w)
                return w

    artifacts = []
    for f, size in enumerate(family_sizes):
        pool = [fresh() for _ in range(POOL_WORDS)]
        for i in range(size):
            words = rng.sample(pool, SHARED_WORDS) + [fresh() for _ in range(UNIQUE_WORDS)]
            artifacts.append({
                "id": f"f{f}-a{i}",
                "name": f"pkg-{f}-{i}",
                "description": " ".join(words),
                "ecosystem": "synthetic",
            })
    return artifacts


def family_catalog(n_families: int, per_family: int, seed) -> list[dict]:
    """Equal families: ``n_families`` x ``per_family`` artifacts."""
    return make_catalog([per_family] * n_families, seed)


def ragged_sizes(total: int, n_families: int, seed) -> list[int]:
    """``n_families`` sizes, each the mean times exp(U(-RAGGED_SPREAD,
    RAGGED_SPREAD)), rescaled to sum to ``total``."""
    rng = random.Random(seed)
    raw = [math.exp(rng.uniform(-RAGGED_SPREAD, RAGGED_SPREAD)) for _ in range(n_families)]
    scale = total / sum(raw)
    sizes = [max(2, round(r * scale)) for r in raw]
    sizes[sizes.index(max(sizes))] += total - sum(sizes)
    return sizes


def ragged_catalog(total: int, n_families: int, seed) -> list[dict]:
    return make_catalog(ragged_sizes(total, n_families, f"{seed}/sizes"), f"{seed}/words")


def make_intent(target: dict, vocabularies: list[list[str]], rng: random.Random) -> dict:
    """Drop 30-70% of the target's words, shuffle, and add 1-3 words that
    are not the target's, each drawn from a randomly chosen vocabulary."""
    words = target["description"].split()
    keep = max(1, round(len(words) * (1.0 - rng.uniform(0.3, 0.7))))
    kept = rng.sample(words, keep)
    own = set(words)
    for _ in range(rng.randint(1, 3)):
        vocabulary = rng.choice(vocabularies)
        while True:
            w = rng.choice(vocabulary)
            if w not in own:
                break
        kept.insert(rng.randrange(len(kept) + 1), w)
    return {"intent": " ".join(kept), "target_id": target["id"]}


def _family(artifact_id: str) -> str:
    return artifact_id.split("-", 1)[0]


def _words(artifacts) -> list[str]:
    return list(dict.fromkeys(w for a in artifacts for w in a["description"].split()))


class IntentMaker:
    """Intents for one catalog.  Added words come half from the target's
    own family (siblings' words, which make near-misses) and half from the
    whole catalog."""

    def __init__(self, artifacts: list[dict]):
        self.artifacts = artifacts
        self.catalog_words = _words(artifacts)
        families: dict[str, list[dict]] = {}
        for a in artifacts:
            families.setdefault(_family(a["id"]), []).append(a)
        self.family_words = {f: _words(members) for f, members in families.items()}

    def make(self, rng: random.Random) -> dict:
        target = self.artifacts[rng.randrange(len(self.artifacts))]
        vocabularies = [self.family_words[_family(target["id"])], self.catalog_words]
        return make_intent(target, vocabularies, rng)

    def stream(self, seed):
        """Endless distinct intents, never repeating one."""
        rng = random.Random(seed)
        seen: set[str] = set()
        while True:
            sample = self.make(rng)
            if sample["intent"] not in seen:
                seen.add(sample["intent"])
                yield sample


def intent_pool(artifacts: list[dict], count: int, seed) -> list[dict]:
    """The first ``count`` distinct intents of ``IntentMaker(artifacts).stream(seed)``."""
    stream = IntentMaker(artifacts).stream(seed)
    return [next(stream) for _ in range(count)]


def zipf_stream(pool_size: int, count: int, seed) -> list[int]:
    """Indices into an intent pool with P(rank r) proportional to 1/r**ZIPF_S.

    Ranks are assigned to pool entries by a seeded shuffle, so the
    popular intents are not simply the first ones generated.
    """
    rng = random.Random(seed)
    order = list(range(pool_size))
    rng.shuffle(order)
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(pool_size)]
    return [order[r] for r in rng.choices(range(pool_size), weights=weights, k=count)]


def write_jsonl(rows: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
