"""Seeded query rounds drawn from the reference pools in ``refs/``.

Each pool query carries a stratum, and the queries of a stratum are
sorted by their seed-code cost.  A workload's round set takes
``per_round`` queries from every stratum, evenly spaced in cost, so it
spans the pool's whole cost range.  The round set is the same for every
seed: every round is one pass over it in a new seeded order.  The seed
thus decides which query first needs, and pays for, each piece of work
the queries share through the caches, but never which queries run.  An
earlier draft let the seed pick the stratum members of each round.  Its
latency percentiles then moved with the pick: `classpoly` p90 spread 15%
between seeds.
"""

from __future__ import annotations

import random


def round_set(pool: dict) -> list[int]:
    """Pool indices of the queries every round runs."""
    strata = {}
    for i, query in enumerate(pool["queries"]):
        strata.setdefault(query["stratum"], []).append(i)
    picked = []
    for key in sorted(strata):
        group = strata[key]
        per = min(pool["per_round"], len(group))
        picked.extend(group[(2 * j + 1) * len(group) // (2 * per)] for j in range(per))
    return picked


def rounds(pool: dict, seed: int):
    """Yield the pool indices of successive rounds for a seed, forever."""
    rng = random.Random(seed)
    picked = round_set(pool)
    while True:
        rng.shuffle(picked)
        yield list(picked)
