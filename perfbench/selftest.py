#!/usr/bin/env python3
"""Self-test of the pc presentation generator, by brute force at small orders.

For many seeds it generates consistent and inconsistent presentations of
orders 27, 81 and 125 and checks every label against the collection product
of the presentation itself (the library's uncertified collector):

- consistent: (xy)z = x(yz) for every triple, the group is abelian exactly
  when the predicted class is 1, and the largest element order is the
  predicted exponent;
- inconsistent: some triple is not associative.

Run from the repository root:  python3 perfbench/selftest.py
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pcgen  # noqa: E402
from pgroups.groups import PcPresentation, _PcBackend  # noqa: E402

SEEDS = 12
SHAPES = ((3, 2, 1), (3, 2, 2), (3, 3, 1), (5, 2, 1))


def _collector(pres: pcgen.Presentation) -> _PcBackend:
    doc = pres.doc
    powers = {int(i): tuple(map(tuple, w)) for i, w in doc["powers"].items()}
    conjugates = {
        tuple(int(v) for v in key.split(",")): tuple(map(tuple, w))
        for key, w in doc["conjugates"].items()
    }
    return _PcBackend(PcPresentation(doc["prime"], doc["ngens"], powers, conjugates))


def _table(back: _PcBackend) -> list:
    n = back.order
    return [[back.mul(x, y) for y in range(n)] for x in range(n)]


def _associative(table: list) -> bool:
    n = len(table)
    for x in range(n):
        row = table[x]
        for y in range(n):
            xy = table[row[y]]
            ty = table[y]
            for z in range(n):
                if xy[z] != row[ty[z]]:
                    return False
    return True


def _exponent(table: list) -> int:
    best = 1
    for x in range(1, len(table)):
        y, k = x, 1
        while y != 0:
            y = table[y][x]
            k += 1
        best = max(best, k)
    return best


def _abelian(table: list) -> bool:
    n = len(table)
    return all(table[x][y] == table[y][x] for x in range(n) for y in range(n))


def main() -> int:
    failures = []
    checked = 0
    for seed in range(SEEDS):
        rng = random.Random(f"selftest|{seed}")
        for p, top, central in SHAPES:
            for consistent in (True, False):
                pres = pcgen.generate(rng, p, top, central, consistent)
                table = _table(_collector(pres))
                where = f"seed {seed} p={p} n={top + central} consistent={consistent}"
                checked += 1
                if not consistent:
                    if _associative(table):
                        failures.append(f"{where}: labelled inconsistent but associative")
                    continue
                if not _associative(table):
                    failures.append(f"{where}: labelled consistent but not associative")
                elif _abelian(table) != (pres.nilpotency_class == 1):
                    failures.append(f"{where}: predicted class {pres.nilpotency_class} is wrong")
                elif _exponent(table) != pres.exponent:
                    failures.append(f"{where}: predicted exponent {pres.exponent} is wrong")
    for line in failures:
        print("FAIL", line)
    print(f"{checked - len(failures)}/{checked} generated presentations match their labels")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
