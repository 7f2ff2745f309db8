"""Seeded inputs: the synthetic venue corpus and corrupted probe records.

The corpus follows the ``bench_incremental`` recipe: three-word venue names
over ~60 words (token document frequencies around 5%, long posting
lists), a city and a cuisine, and ~20% dirty near-duplicates of the
previous record. A probe is a corrupted copy of an existing record under a
fresh id; its *source* is the record it was copied from. The recipe is
restated here rather than imported, so this benchmark's inputs stay put
when ``benchmarks/bench_incremental.py`` changes.
"""

from __future__ import annotations

import numpy as np

from repro.data.corruption import Corruptor, drop_token, swap_tokens, typo
from repro.data.vocabulary import CITIES, CUISINES, RESTAURANT_WORDS, STREET_NAMES

ATTRIBUTES = ["name", "city", "cuisine"]

_NAME_POOL = RESTAURANT_WORDS + STREET_NAMES

#: The dirty-duplicate channel: typos, dropped and reordered tokens.
NOISE = Corruptor([(0.5, typo), (0.2, drop_token), (0.2, swap_tokens)])


def venue_corpus(n: int, seed: int, prefix: str = "r") -> list[dict]:
    """``n`` seeded venue records: unique entities plus ~20% near-duplicates."""
    rng = np.random.default_rng(seed)
    words = rng.integers(0, len(_NAME_POOL), size=(n, 3))
    cities = rng.integers(0, len(CITIES), size=n)
    cuisines = rng.integers(0, len(CUISINES), size=n)
    duplicate = rng.random(n) < 0.2
    records: list[dict] = []
    for i in range(n):
        if duplicate[i] and records:
            base = records[-1]
            records.append({**base, "id": f"{prefix}{i}", "name": NOISE(rng, base["name"])})
            continue
        a, b, c = words[i]
        records.append(
            {
                "id": f"{prefix}{i}",
                "name": f"{_NAME_POOL[a]} {_NAME_POOL[b]} {_NAME_POOL[c]}",
                "city": CITIES[cities[i]],
                "cuisine": CUISINES[cuisines[i]],
            }
        )
    return records


def probes(records: list[dict], rng, n: int, tag: str, attribute: str):
    """``n`` corrupted copies of distinct random records, as ``(probe, source_id)``."""
    picks = rng.choice(len(records), size=n, replace=False)
    out = []
    for k, p in enumerate(picks):
        source = records[int(p)]
        probe = {**source, "id": f"{tag}-{k}", attribute: NOISE(rng, str(source[attribute]))}
        out.append((probe, source["id"]))
    return out
