"""Brute-force reference implementations used to pin expected values.

Everything here deliberately avoids the library's algorithms: closures are
all-pairs product fixpoints, normality conjugates by every element, and
normal subgroups are enumerated from conjugacy-class unions.  Slow, simple,
and only run on small groups.  The exceptions are the library's former
algorithms, kept as references for orders where brute force is too slow:
``central_extension_normal_subgroups`` and ``bfs_normal_subgroups`` (two
former enumerators, the second one with its witnesses), the
quotient-group eta machinery (``quotient_upper_eta_series`` and
``quotient_is_eta_series``), which build G/N instead of reading G's lattice,
``sweep_pc_group`` (the former pc consistency certificate), ``pwh_bfs``
(the former cross-check of greedy powerful height) and the closure versions
of [M, G], M^(p^i) and Omega_i(G) (``closure_commutator_with_group``,
``closure_power_subgroup``, ``closure_omega_subgroup``), which the library
now reads off G's lattice once it is cached.
"""

from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from pgroups.eta_series import eta, is_powerfully_embedded, powerfully_embedded_over
from pgroups.groups import FiniteGroup, PcPresentation, _PcBackend
from pgroups.subgroups import (
    Subgroup,
    closure,
    commutator_subgroup,
    power_image,
    quotient,
    trivial_subgroup,
    whole_subgroup,
)


def mul_table(G: FiniteGroup) -> List[List[int]]:
    return [[G.mul(a, b) for b in range(G.order)] for a in range(G.order)]


def naive_closure(table, elems) -> FrozenSet[int]:
    S = {0} | set(elems)
    while True:
        new = {table[a][b] for a in S for b in S} - S
        if not new:
            return frozenset(S)
        S |= new


def naive_inverse(table, x: int) -> int:
    return next(y for y in range(len(table)) if table[x][y] == 0)


def naive_is_normal(table, elems) -> bool:
    S = set(elems)
    n = len(table)
    return all(
        table[table[naive_inverse(table, g)][x]][g] in S for x in S for g in range(n)
    )


def naive_center(table) -> Set[int]:
    n = len(table)
    return {x for x in range(n) if all(table[x][y] == table[y][x] for y in range(n))}


def naive_element_order(table, x: int) -> int:
    y = x
    n = 1
    while y != 0:
        y = table[y][x]
        n += 1
    return n


def naive_exponent(table) -> int:
    return max(naive_element_order(table, x) for x in range(len(table)))


def naive_commutator_set(table, A, B) -> FrozenSet[int]:
    gens = set()
    for a in A:
        ai = naive_inverse(table, a)
        for b in B:
            bi = naive_inverse(table, b)
            gens.add(table[table[table[ai][bi]][a]][b])
    return naive_closure(table, gens)


def naive_power_set(table, elems, p: int, i: int) -> Set[int]:
    out = set()
    for x in elems:
        y = x
        for _ in range(p**i - 1):
            y = table[y][x]
        out.add(y)
    return out


def naive_all_subgroups(table) -> Set[FrozenSet[int]]:
    """Every subgroup, by closing every one-element extension (order <= 27)."""
    n = len(table)
    triv = frozenset({0})
    seen = {triv}
    queue = [triv]
    while queue:
        H = queue.pop()
        for x in range(n):
            if x in H:
                continue
            M = naive_closure(table, H | {x})
            if M not in seen:
                seen.add(M)
                queue.append(M)
    return seen


def conjugacy_classes(table) -> List[FrozenSet[int]]:
    n = len(table)
    seen = set()
    classes = []
    for x in range(n):
        if x in seen:
            continue
        cls = {
            table[table[naive_inverse(table, g)][x]][g] for g in range(n)
        }
        seen |= cls
        classes.append(frozenset(cls))
    return classes


def naive_normal_subgroups(table) -> Set[FrozenSet[int]]:
    """Normal subgroups as multiplication-closed unions of conjugacy classes."""
    classes = conjugacy_classes(table)
    triv = frozenset({0})
    seen = {triv}
    queue = [triv]
    while queue:
        N = queue.pop()
        for cls in classes:
            if cls <= N:
                continue
            M = naive_closure(table, N | cls)
            if M not in seen:
                seen.add(M)
                queue.append(M)
    return seen


def naive_is_powerfully_embedded(table, p: int, N, whole) -> bool:
    comm = naive_commutator_set(table, N, whole)
    power = naive_closure(table, naive_power_set(table, N, p, 1))
    return comm <= power


def naive_eta(table, p: int) -> FrozenSet[int]:
    whole = frozenset(range(len(table)))
    members = set()
    for N in naive_normal_subgroups(table):
        if naive_is_powerfully_embedded(table, p, N, whole):
            members |= N
    return naive_closure(table, members)


def central_extension_normal_subgroups(G: FiniteGroup) -> Set[int]:
    """Normal subgroups as bitsets, by BFS over central-mod-N extensions.

    From each discovered N, every coset xN (marked with |N| products) whose
    representative is central modulo N spawns the extension <N, x>.  Every
    normal subgroup arises along a chief series refined through such central
    extensions, so the sweep is complete.  Costs about |G| products per
    normal subgroup, which is fine for orders up to 729.
    """
    mul, comm, gens = G.mul, G.comm, G.generators
    seen = {1}
    queue = [1]
    qi = 0
    while qi < len(queue):
        nbits = queue[qi]
        qi += 1
        n_elems = [x for x in range(G.order) if (nbits >> x) & 1]
        processed = nbits
        for x in range(G.order):
            if (processed >> x) & 1:
                continue
            for n in n_elems:
                processed |= 1 << mul(x, n)
            if all((nbits >> comm(x, g)) & 1 for g in gens):
                mbits = nbits
                y = x
                while not (mbits >> y) & 1:
                    for n in n_elems:
                        mbits |= 1 << mul(n, y)
                    y = mul(y, x)
                if mbits not in seen:
                    seen.add(mbits)
                    queue.append(mbits)
    return seen


def bfs_normal_subgroups(G: FiniteGroup) -> List[Subgroup]:
    """Normal subgroups with witnesses, by BFS over index-p central steps.

    From each discovered N, in discovery order, every x outside N with x^p
    and each [x, g] in N spawns N<x> = N u xN u ... u x^(p-1)N, multiplied
    out with ``G.mul``; x runs upward and skips the elements of children
    already built from N.  The first discovery of M fixes its witnesses,
    N.witness_list() + [x].  A normal M is rebuilt once for every normal
    maximal subgroup of M.  Sorted like the library's lattice.
    """
    n = G.order
    gathers = [itemgetter(*[G.pth_power(x) for x in range(n)])]
    gathers += [itemgetter(*[G.comm(x, g) for x in range(n)]) for g in G.generators]
    triv = trivial_subgroup(G)
    seen: Dict[int, Subgroup] = {triv.bits: triv}
    queue = [triv]
    for N in queue:
        nbits = N.bits
        member = bin(nbits)[:1:-1].ljust(n, "0")
        free = (1 << n) - 1
        for gather in gathers:
            free &= int("".join(gather(member))[::-1], 2)
        free &= ~nbits
        n_elems = [x for x in range(n) if (nbits >> x) & 1]
        while free:
            x = (free & -free).bit_length() - 1
            mbits = nbits
            coset = n_elems
            for _ in range(G.p - 1):
                coset = [G.mul(y, x) for y in coset]
                for y in coset:
                    mbits |= 1 << y
            free &= ~mbits
            if mbits not in seen:
                M = Subgroup(G, mbits, N.witness_list() + [x], normal=True)
                seen[mbits] = M
                queue.append(M)
    return sorted(seen.values(), key=lambda s: (s.order, s.bits))


def quotient_upper_eta_series(G: FiniteGroup) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Term bitsets and (|G/N|, |eta(G/N)|) steps of the upper eta-series.

    Each step builds Q = G/eta_i, takes eta(Q) in Q's own lattice and pulls
    its elements back through the projection.
    """
    terms = [1]
    steps = []
    while terms[-1] != (1 << G.order) - 1:
        Q, proj = quotient(G, Subgroup(G, terms[-1], normal=True))
        eQ = eta(Q)
        terms.append(
            sum(1 << x for x, y in enumerate(proj.mapping) if (eQ.bits >> y) & 1)
        )
        steps.append((Q.order, eQ.order))
    return terms, steps


def quotient_is_eta_series(G: FiniteGroup, terms) -> bool:
    """Each step image N_(i+1)/N_i is powerfully embedded in the quotient G/N_i."""
    if not all(t.is_normal() for t in terms):
        return False
    for lo, hi in zip(terms, terms[1:]):
        Q, proj = quotient(G, lo)
        img = Subgroup(Q, proj.image_bits(hi.bits), normal=True)
        if not is_powerfully_embedded(Q, img):
            return False
    return True


def sweep_pc_group(pres: PcPresentation) -> Optional[FiniteGroup]:
    """The collector's group if the presentation is consistent, else None.

    Builds the group of normal words without any certificate, then checks
    the identity law, associativity on every (x, y, generator) triple (which
    extends to all triples, because a product is collected letter by
    letter) and that every element reaches the identity along p-th powers.
    O(|G|^2 n) through a full multiplication table; orders up to 343.
    """
    pres.validate()
    back = _PcBackend(pres)
    G = FiniteGroup(
        pres.p,
        back.order,
        back.mul,
        [back.generator(i) for i in range(1, pres.ngens + 1)],
        label="sweep",
        backend=back,
    )
    n = G.order
    table = mul_table(G)
    for x in range(n):
        if table[0][x] != x or table[x][0] != x:
            return None
    for x in range(n):
        row = table[x]
        for y in range(n):
            xy = row[y]
            for g in G.generators:
                if table[xy][g] != row[table[y][g]]:
                    return None
    reach = [-1] * n
    reach[0] = 0
    for x in range(n):
        chain = []
        y = x
        while reach[y] < 0:
            chain.append(y)
            reach[y] = -2
            y = G.pow(y, pres.p)
            if reach[y] == -2:
                return None
        for z in chain:
            reach[z] = 1
    return G


def pwh_bfs(G: FiniteGroup, N: Subgroup) -> int:
    """Length of the shortest eta-series from 1 to the normal subgroup N.

    Breadth-first search over G's normal lattice, with an edge K -> M for
    every M <= N with M/K powerfully embedded in G/K: no greedy choice.
    """
    if N.is_trivial():
        return 0
    seen = {1}
    frontier = [trivial_subgroup(G)]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for K in frontier:
            for M in powerfully_embedded_over(G, K):
                if M.bits in seen or not M <= N:
                    continue
                if M.bits == N.bits:
                    return depth
                seen.add(M.bits)
                nxt.append(M)
        frontier = nxt
    raise AssertionError(f"subgroup of order {N.order} in {G.label} has no eta-series")


def closure_commutator_with_group(G: FiniteGroup, M: Subgroup) -> Subgroup:
    """[M, G] as the normal closure of the witness-pair commutators."""
    return commutator_subgroup(G, M, whole_subgroup(G))


def closure_power_subgroup(G: FiniteGroup, M: Subgroup, i: int) -> Subgroup:
    """M^(p^i) as the closure of the p^i-th powers of M's elements."""
    return closure(G, sorted(power_image(G, M, i)))


def closure_omega_subgroup(G: FiniteGroup, i: int) -> Subgroup:
    """Omega_i(G) as the closure of the elements of order at most p^i."""
    return closure(G, [x for x in G.elements() if G.order_exponent(x) <= i])
