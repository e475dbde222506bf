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
(the former cross-check of greedy powerful height), ``random_eta_series``
(the former sampler of eta-series, now certified in full by ``verify``),
``eta_over_by_join`` (the former eta step, a join instead of a fixed
point), ``uniserial_by_scan`` (the former uniseriality test, over every
normal subgroup below gamma_m instead of the lower central factors),
``pf_witness_by_closures`` (the former PF search, over the whole lattice
with closures for [K, G], its iterates and M^p),
``orbit_closure`` and ``orbit_normal_closure`` (the former closures, which
multiplied every member by every witness again for each new witness) and
the closure versions
of [M, G], M^(p^i) and Omega_i(G) (``closure_commutator_with_group``,
``closure_power_subgroup``, ``closure_omega_subgroup``), which the library
now reads off G's lattice once it is cached.  ``product_tables`` multiplies
out the tables and power maps that quotients and subgroup groups gather
through their parent's, and ``word_mul_table`` composes a whole
multiplication table from the multiplied-out generator tables.
``gaussian_binomial`` and ``birkhoff_count`` are closed-form counts of
subspaces and of the subgroups of each type of an abelian p-group,
independent of any enumeration.  ``LeftCollector`` is the
library's former pc arithmetic, collection from the left, independent of
the library's bulk-filled tables.
"""

import random
from itertools import product
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from pgroups.eta_series import eta, is_powerfully_embedded, powerfully_embedded_over
from pgroups.groups import FiniteGroup, PcPresentation
from pgroups.subgroups import (
    Subgroup,
    closure,
    commutator_subgroup,
    commutator_with_group,
    enumerate_normal_subgroups,
    join,
    lower_central_term,
    power_image,
    quotient,
    trivial_subgroup,
    whole_subgroup,
)


def mul_table(G: FiniteGroup) -> List[List[int]]:
    return [[G.mul(a, b) for b in range(G.order)] for a in range(G.order)]


def word_mul_table(G: FiniteGroup) -> List[Tuple[int, ...]]:
    """G's multiplication table, like ``mul_table``, for groups too large to multiply out.

    Only x g for the listed generators g is multiplied; the column of each
    element is composed along a breadth-first word: a (b g) = (a b) g.
    """
    n = G.order
    right = [[G.mul(x, g) for x in range(n)] for g in G.generators]
    cols: List[Optional[List[int]]] = [None] * n
    cols[0] = list(range(n))
    reached = [0]
    for b in reached:
        for r in right:
            if cols[r[b]] is None:
                cols[r[b]] = list(map(r.__getitem__, cols[b]))
                reached.append(r[b])
    return list(zip(*cols))


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
    gathers = [itemgetter(*G.pth_map())]
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


class LeftCollector:
    """u g_i collected from the left and memoized per entry: the library's former pc arithmetic.

    Independent of ``_PcBackend``'s bulk fill, with the same radix-p
    encoding of normal words (g_1 the most significant digit).  To collect
    u g_i, keep the head of u before g_i, raise its g_i exponent, and append
    g_i^p's word on a carry and (g_j^(g_i))^(e_j) for every later letter
    g_j^(e_j) of u, each collected by recursion into later generators.
    Every step is a rewrite by the relations, so this is a collection for
    any presentation, consistent or not.
    """

    def __init__(self, pres: PcPresentation):
        self.pres = pres
        self.p, self.n = pres.p, pres.ngens
        self.order = pres.p**pres.ngens
        self.strides = [self.p ** (self.n - i) for i in range(1, self.n + 1)]
        # tab[i][u] is u g_i once collected, None before
        self.tab: List[List[Optional[int]]] = [[None] * self.order for _ in range(self.n + 1)]

    def generator(self, i: int) -> int:
        return self.strides[i - 1]

    def mul_gen(self, u: int, i: int) -> int:
        hit = self.tab[i][u]
        if hit is not None:
            return hit
        e = [u // s % self.p for s in self.strides]
        result = sum(d * s for d, s in zip(e[: i - 1], self.strides))
        pending = []
        if e[i - 1] + 1 < self.p:
            result += (e[i - 1] + 1) * self.strides[i - 1]
        else:
            pending.extend(self.pres.powers.get(i, ()))
        for j in range(i + 1, self.n + 1):
            # (g_j^(e_j))^(g_i) = (g_j^(g_i))^(e_j)
            pending.extend(tuple(self.pres.conjugates.get((j, i), ((j, 1),))) * e[j - 1])
        for gen, exp in pending:
            for _ in range(exp):
                result = self.mul_gen(result, gen)
        self.tab[i][u] = result
        return result

    def mul(self, a: int, b: int) -> int:
        for j, s in enumerate(self.strides, start=1):
            if b >= s:
                d, b = divmod(b, s)
                tab = self.tab[j]
                while d:
                    hit = tab[a]
                    a = hit if hit is not None else self.mul_gen(a, j)
                    d -= 1
        return a


def sweep_pc_group(pres: PcPresentation) -> Optional[FiniteGroup]:
    """The left collector's group if the presentation is consistent, else None.

    Builds the group of normal words under ``LeftCollector`` without any
    certificate, then checks the identity law, associativity on every
    (x, y, generator) triple (which extends to all triples, because a
    product is collected letter by letter) and that every element reaches
    the identity along p-th powers.  O(|G|^2 n) through a full
    multiplication table; orders up to 343.
    """
    pres.validate()
    back = LeftCollector(pres)
    G = FiniteGroup(
        pres.p,
        back.order,
        back.mul,
        [back.generator(i) for i in range(1, pres.ngens + 1)],
        label="sweep",
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


def random_eta_series(G: FiniteGroup, rng: random.Random) -> List[Subgroup]:
    """An ascending eta-series of G built from random powerfully embedded steps.

    Each step picks a normal M above the last term N with M/N powerfully
    embedded in G/N, from G's own normal lattice.
    """
    terms = [trivial_subgroup(G)]
    while not terms[-1].is_whole():
        # sorted by order, so the first member is the last term itself
        cands = powerfully_embedded_over(G, terms[-1])[1:]
        terms.append(cands[rng.randrange(len(cands))])
    return terms


def eta_over_by_join(G: FiniteGroup, K: Subgroup, N: Subgroup) -> Subgroup:
    """The largest M with K <= M <= N and M/K powerfully embedded in G/K.

    The join of every member of ``powerfully_embedded_over(G, K)`` that lies
    in N, with no scan order and no product lemma.
    """
    return join(G, [M for M in powerfully_embedded_over(G, K) if M <= N])


def uniserial_by_scan(G: FiniteGroup, m: int) -> bool:
    """Every nontrivial normal H <= gamma_m(G) has |H : [H, G]| = p.

    A scan of G's whole normal lattice, with no use of the lower central
    factors beyond gamma_m itself.
    """
    top = lower_central_term(G, m)
    return all(
        H.order == G.p * commutator_with_group(G, H).order
        for H in enumerate_normal_subgroups(G)
        if H <= top and not H.is_trivial()
    )


def pf_witness_by_closures(G: FiniteGroup, N: Subgroup) -> Optional[List[int]]:
    """The term bits of a potent filtration of the normal N in G, or None when none exists.

    The former PF search: depth first from N over every normal subgroup
    (``bfs_normal_subgroups``), larger ones first, with an edge K -> M for
    each M < K with [K, G] <= M and [K, (p-1) G] <= M^p.  [K, G], its
    iterates and M^p are closures (``closure_commutator_with_group``,
    ``closure_power_subgroup``), not lattice lookups.
    """
    nodes = bfs_normal_subgroups(G)
    powers: Dict[int, int] = {}
    memo: Dict[int, Optional[List[int]]] = {1: [1]}

    def search(K: Subgroup) -> Optional[List[int]]:
        if K.bits in memo:
            return memo[K.bits]
        memo[K.bits] = None
        comm = closure_commutator_with_group(G, K).bits
        it = K
        for _ in range(G.p - 1):
            it = closure_commutator_with_group(G, it)
        for M in reversed(nodes):
            if M.bits == K.bits or not M <= K or comm | M.bits != M.bits:
                continue
            if M.bits not in powers:
                powers[M.bits] = closure_power_subgroup(G, M, 1).bits
            if it.bits | powers[M.bits] != powers[M.bits]:
                continue
            tail = search(M)
            if tail is not None:
                memo[K.bits] = [K.bits] + tail
                return memo[K.bits]
        return None

    return search(N)


def _orbit_close(G: FiniteGroup, flags, members: List[int], witnesses: List[int], gens) -> None:
    """Extend (flags, members) by each gen outside it: every member times every witness again."""
    for x in gens:
        if flags[x]:
            continue
        witnesses.append(x)
        flags[x] = 1
        members.append(x)
        queue = members[:]
        while queue:
            y = queue.pop()
            for g in witnesses:
                z = G.mul(y, g)
                if not flags[z]:
                    flags[z] = 1
                    members.append(z)
                    queue.append(z)


def orbit_closure(G: FiniteGroup, gens) -> Tuple[int, List[int]]:
    """The bits and witnesses of the subgroup generated by gens, by the former orbit closure."""
    flags, members, witnesses = bytearray(G.order), [0], []
    flags[0] = 1
    _orbit_close(G, flags, members, witnesses, gens)
    return sum(1 << x for x in members), witnesses


def orbit_normal_closure(G: FiniteGroup, gens) -> Tuple[int, List[int]]:
    """The bits and witnesses of the normal closure of gens, by the former algorithm.

    Each round conjugates every witness by every generator and closes in
    the conjugates outside, until none is outside.
    """
    flags, members, witnesses = bytearray(G.order), [0], []
    flags[0] = 1
    _orbit_close(G, flags, members, witnesses, gens)
    while True:
        extra = [c for w in witnesses for g in G.generators if not flags[c := G.conj(w, g)]]
        if not extra:
            return sum(1 << x for x in members), witnesses
        _orbit_close(G, flags, members, witnesses, extra)


def closure_commutator_with_group(G: FiniteGroup, M: Subgroup) -> Subgroup:
    """[M, G] as the closure of the witness-pair commutators under conjugation."""
    return commutator_subgroup(G, M, whole_subgroup(G))


def closure_power_subgroup(G: FiniteGroup, M: Subgroup, i: int) -> Subgroup:
    """M^(p^i) as the closure of the p^i-th powers of M's elements."""
    return closure(G, sorted(power_image(G, M, i)))


def closure_omega_subgroup(G: FiniteGroup, i: int) -> Subgroup:
    """Omega_i(G) as the closure of the elements of order at most p^i."""
    return closure(G, [x for x in G.elements() if G.order_exponent(x) <= i])


def product_tables(
    G: FiniteGroup, gens: List[int]
) -> Tuple[List[List[int]], List[int], List[int]]:
    """The tables x -> x g (g in gens), x -> x^p and the order exponents of G, from G.mul alone.

    The order exponent of x is the number of p-th powers, each taken by
    ``G.pow``, that lead x to the identity: the least k with x^(p^k) = 1.
    """
    n, p = G.order, G.p
    right = [[G.mul(x, g) for x in range(n)] for g in gens]
    pth = [G.pow(x, p) for x in range(n)]
    ordexp = []
    for x in range(n):
        y, k = x, 0
        while y:
            y = G.pow(y, p)
            k += 1
            assert p**k <= n, (G.label, x)
        ordexp.append(k)
    return right, pth, ordexp


def gaussian_binomial(k: int, j: int, q: int) -> int:
    """[k choose j]_q: the number of j-dimensional subspaces of F_q^k."""
    num = den = 1
    for i in range(j):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def conjugate_partition(lam) -> List[int]:
    """lam'_i = the number of parts of lam that are >= i, for i = 1..max(lam)."""
    return [sum(1 for part in lam if part > i) for i in range(max(lam, default=0))]


def birkhoff_count(lam, mu, p: int) -> int:
    """The number of subgroups of type mu in the abelian p-group of type lam (Birkhoff 1935).

    prod_i p^(mu'_(i+1) (lam'_i - mu'_i)) [lam'_i - mu'_(i+1) choose mu'_i - mu'_(i+1)]_p
    over i = 1..max(lam), where ' is the conjugate partition and mu lies
    inside lam.
    """
    lc = conjugate_partition(lam)
    mc = conjugate_partition(mu)
    mc += [0] * (len(lc) + 1 - len(mc))
    count = 1
    for i, l in enumerate(lc):
        count *= p ** (mc[i + 1] * (l - mc[i])) * gaussian_binomial(
            l - mc[i + 1], mc[i] - mc[i + 1], p
        )
    return count


def abelian_subgroup_counts(lam, p: int) -> Dict[int, int]:
    """The number of subgroups of each order of the abelian p-group of type lam, in closed form.

    Sums ``birkhoff_count`` over the types mu inside lam; a subgroup of type
    mu has order p^|mu|.
    """
    lam = sorted(lam, reverse=True)
    counts: Dict[int, int] = {}
    for mu in product(*(range(part + 1) for part in lam)):
        if all(a >= b for a, b in zip(mu, mu[1:])):
            order = p ** sum(mu)
            counts[order] = counts.get(order, 0) + birkhoff_count(lam, mu, p)
    return counts
