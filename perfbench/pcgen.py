"""Seeded class-2 pc presentations, consistent or deliberately not.

A consistent presentation has ``top`` generators followed by ``central``
generators of order p.  Each top generator's p-th power and each commutator
of two top generators is a random word in the central generators; central
generators commute with everything and have trivial p-th powers.  For odd p
every such choice is consistent: commutators are central of order p, so
(xy)^p = x^p y^p [y, x]^(p(p-1)/2) = x^p y^p.

An inconsistent presentation additionally sets g_2^(g_1) = g_2^a (times a
central word) for some 2 <= a <= p-1.  Conjugating p times by g_1 gives
g_2^(a^p) = g_2^a != g_2, while g_1^p is central, so no group satisfies it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

Word = List[List[int]]


@dataclass(frozen=True)
class Presentation:
    """A pgroup-v1 pc document plus what the library must make of it."""

    doc: dict
    p: int
    ngens: int
    consistent: bool
    # meaningful only when consistent
    nilpotency_class: int
    exponent: int


def _central_word(rng: random.Random, p: int, first: int, last: int) -> Word:
    """A random, possibly empty, normal word in g_first..g_last."""
    return [[g, rng.randrange(1, p)] for g in range(first, last + 1) if rng.random() < 0.5]


def generate(rng: random.Random, p: int, top: int, central: int, consistent: bool) -> Presentation:
    """One presentation of order p^(top + central); needs top >= 2, central >= 1."""
    if top < 2 or central < 1:
        raise ValueError("need at least two top generators and one central generator")
    n = top + central
    powers: Dict[str, Word] = {}
    conjugates: Dict[str, Word] = {}
    for i in range(1, top + 1):
        w = _central_word(rng, p, top + 1, n)
        if w:
            powers[str(i)] = w
    for i in range(1, top + 1):
        for j in range(i + 1, top + 1):
            w = _central_word(rng, p, top + 1, n)
            if w:
                conjugates[f"{j},{i}"] = [[j, 1]] + w
    nilpotency_class = 2 if conjugates else 1
    exponent = p * p if powers else p
    if not consistent:
        a = rng.randrange(2, p)
        conjugates["2,1"] = [[2, a]] + _central_word(rng, p, top + 1, n)
    doc = {
        "format": "pgroup-v1",
        "prime": p,
        "kind": "pc",
        "ngens": n,
        "powers": powers,
        "conjugates": conjugates,
    }
    return Presentation(doc, p, n, consistent, nilpotency_class, exponent)


# (p, top generators, central generators, consistent).  Orders 81, 125, 243
# and 343 are certified by the exhaustive sweep, 2187 and 2401 by the
# sampled one (the library switches at order 2048); a third are
# inconsistent.  Orders stay small enough for several passes per run.
SHAPES: Tuple[Tuple[int, int, int, bool], ...] = (
    (3, 2, 2, True),
    (3, 3, 2, True),
    (5, 2, 1, True),
    (7, 2, 1, True),
    (3, 4, 3, True),
    (7, 2, 2, True),
    (3, 3, 2, False),
    (5, 2, 2, False),
    (3, 4, 3, False),
)


def workload(seed: int) -> List[Presentation]:
    """The pc_ingest inputs for one seed, in SHAPES order."""
    rng = random.Random(f"pc_ingest|{seed}")
    return [generate(rng, p, top, central, ok) for p, top, central, ok in SHAPES]
