"""Subgroup calculus on bitsets: closures, commutators, powers, series.

A subgroup is identified by the bitset of its element indices (an int), so
set algebra is big-integer arithmetic and deduplication is hashing.  All
operations are pure functions of immutable inputs; results and expensive
intermediates are memoized on the owning group's cache.  [N, G], powers
and joins of normal subgroups, Omega_i and Phi are lookups in G's normal
lattice (``normal_hull``), which is enumerated on first use.  Closures
remain for subgroups that need not be normal and for the lower central
series.  They grow by whole right cosets, one product per new element:
(H y) g = H (y g), so <H, x> is the union of the cosets reached from H x
(``_close``).  [A, B] is the closure of the commutators of the witnesses
under conjugation by the witnesses (``commutator_subgroup``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, InvariantViolation, NotNormal
from .groups import _TO_FLAGS, FiniteGroup, GroupHom, _from_flags, _reach, bits_iter, log_p

NORMAL_SUBGROUP_BUDGET = 1_000_000


def _membership(n: int, bits: int) -> str:
    """The digits of bits over n elements: member[x] == "1" exactly when x is in bits."""
    return bin(bits)[:1:-1].ljust(n, "0")


def _flags(G: FiniteGroup, bits: int) -> bytearray:
    """Membership flags of bits: flags[x] == 1 exactly when x is in bits."""
    return bytearray(_membership(G.order, bits).encode().translate(_TO_FLAGS))


class Subgroup:
    """A subgroup of an explicit group, held as an element bitset.

    ``witnesses`` is a generating list (may be lazily recomputed); the
    normality flag is cached once decided.
    """

    __slots__ = ("group", "bits", "_witnesses", "_normal")

    def __init__(
        self,
        group: FiniteGroup,
        bits: int,
        witnesses: Optional[Sequence[int]] = None,
        normal: Optional[bool] = None,
    ) -> None:
        self.group = group
        self.bits = bits
        self._witnesses = list(witnesses) if witnesses is not None else None
        self._normal = normal

    @property
    def order(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, x: int) -> bool:
        return (self.bits >> x) & 1 == 1

    def elements(self) -> Iterator[int]:
        return bits_iter(self.bits)

    def __le__(self, other: "Subgroup") -> bool:
        return self.bits | other.bits == other.bits

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.group is self.group
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.bits))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.group.label})"

    def is_trivial(self) -> bool:
        return self.bits == 1

    def is_whole(self) -> bool:
        return self.order == self.group.order

    def witness_list(self) -> List[int]:
        if self._witnesses is None:
            self._witnesses = _reduce_witnesses(self.group, self.bits)
        return self._witnesses

    def is_normal(self) -> bool:
        if self._normal is None:
            G, bits = self.group, self.bits
            self._normal = all(
                (bits >> G.conj(w, g)) & 1
                for w in self.witness_list()
                for g in G.generators
            )
        return self._normal


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, 1, [], normal=True)


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (1 << G.order) - 1, list(G.generators), normal=True)


def _close(
    G: FiniteGroup, flags: bytearray, members: List[int], witnesses: List[int], gens: Iterable[int]
) -> List[int]:
    """Extend the subgroup H = (flags, members) by each of gens in turn, in place.

    witnesses generate H, and each gen outside H is appended to them.  <H, x>
    is the union of the right cosets H y (Dimino's algorithm; Butler,
    Fundamental Algorithms for Permutation Groups, 1991).  (H y) g = H (y g),
    so each new coset is found from H x by multiplying the first element of
    a known coset by a witness, x included, and one element decides whether
    its whole coset is known.  A new coset is y followed by h y for h in
    H \\ {1}: one product per new element.  members[0] is the identity.
    Returns witnesses.
    """
    mul = G.mul
    for x in gens:
        if flags[x]:
            continue
        witnesses.append(x)
        rest = members[1:]
        firsts = [x]
        for y in firsts:  # the list iterator also yields the firsts appended meanwhile
            if flags[y]:
                continue
            coset = [y] + [mul(h, y) for h in rest]
            for z in coset:
                flags[z] = 1
            members += coset
            firsts += [mul(y, g) for g in witnesses]
    return witnesses


def closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing gens, grown coset by coset (``_close``)."""
    flags = _flags(G, 1)
    witnesses = _close(G, flags, [0], [], gens)
    return Subgroup(G, _from_flags(flags), witnesses)


def _reduce_witnesses(G: FiniteGroup, bits: int) -> List[int]:
    return _close(G, _flags(G, 1), [0], [], bits_iter(bits))


def _conjugation_closure(
    G: FiniteGroup, gens: Iterable[int], conjugators: Sequence[int], normal: Optional[bool] = None
) -> Subgroup:
    """Smallest subgroup containing gens that every conjugator normalizes.

    Conjugation by g is injective, so a finite H with w^g in H for each
    witness w has H^g = H.  The conjugates are closed in round by round
    until no witness is added; each round conjugates only the witnesses the
    previous one added, since the earlier ones' conjugates are inside.
    """
    flags = _flags(G, 1)
    members = [0]
    witnesses = _close(G, flags, members, [], gens)
    done = 0
    while done < len(witnesses):
        new, done = witnesses[done:], len(witnesses)
        _close(G, flags, members, witnesses, (G.conj(w, g) for w in new for g in conjugators))
    return Subgroup(G, _from_flags(flags), witnesses, normal=normal)


def normal_closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup containing gens: the conjugation closure by ``G.generators``."""
    return _conjugation_closure(G, gens, G.generators, normal=True)


def _commutators(G: FiniteGroup, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
    """The distinct nontrivial [x, y], x in xs, y in ys, in increasing order."""
    gens = {G.comm(x, y) for x in xs for y in ys}
    gens.discard(0)
    return sorted(gens)


def commutator_subgroup(G: FiniteGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    """[A, B], the subgroup generated by all [a, b] with a in A and b in B.

    With X and Y the witnesses of A and B, [x x', y] = [x, y]^x' [x', y] and
    [x, y y'] = [x, y'] [x, y]^y'.  So, by induction on word length, [A, B]
    is the smallest subgroup that contains every [x, y] (x in X, y in Y) and
    that every member of X and of Y normalizes: its conjugation closure.
    """
    X, Y = A.witness_list(), B.witness_list()
    return _conjugation_closure(G, _commutators(G, X, Y), X + Y)


def power_image(G: FiniteGroup, N: Subgroup, i: int) -> set:
    """The raw set of p^i-th powers of elements of N (no closure).

    The p-th powers are the power map compressed by N's flags; for i > 1
    that set, usually far smaller than N, is mapped on.
    """
    if i == 0:
        return set(N.elements())
    pth = G.pth_map()
    image = set(compress(pth, _flags(G, N.bits)))
    for _ in range(i - 1):
        image = set(map(pth.__getitem__, image))
    return image


# -- derived subgroups: lookups in G's normal lattice ---------------------------
#
# Each derived subgroup below is normal and is the smallest normal subgroup
# containing a set of elements read off the tables: [N, G] is generated as a
# normal subgroup by the [x, g_k] with x in N (modulo that hull every x in N
# commutes with every generator); M^(p^i) of a normal M is generated by the
# p^i-th powers, a G-invariant set; Omega_i(G) by the elements of order at
# most p^i.  So each one is ``normal_hull`` of that set, and the first of
# them asked of G enumerates G's lattice, within the default budget.


def _bits_of(n: int, elems: Iterable[int]) -> int:
    """The bitset of a collection of elements of a group of order n."""
    flags = bytearray(n)
    for y in elems:
        flags[y] = 1
    return _from_flags(flags)


def normal_hull(G: FiniteGroup, bits: int, order: int = 0) -> Subgroup:
    """The smallest normal subgroup of G that contains the element set bits.

    G's lattice is sorted by order, so this is its first member containing
    bits.  The scan starts, by a bisection of the lattice's orders (cached
    beside it), at ``order``, a known lower bound on the answer's
    order (``bits.bit_count()`` is always one).  The first lookup in G
    enumerates its lattice, within the default budget.
    """
    normals = enumerate_normal_subgroups(G)
    start = bisect_left(G.cache["normal_orders"], max(order, bits.bit_count()))
    for i in range(start, len(normals)):  # a slice would copy the rest of the lattice
        if bits | normals[i].bits == normals[i].bits:
            return normals[i]
    raise InvariantViolation(f"no normal subgroup of {G.label} contains the given set")


def commutator_with_group(G: FiniteGroup, N: Subgroup) -> Subgroup:
    """[N, G], memoized per subgroup; enumerates G's lattice on first use."""
    key = ("ngcomm", N.bits)
    hit = G.cache.get(key)
    if hit is None:
        # witnesses generate N, so their [w, g_k] have the same hull
        gens = N._witnesses if N._witnesses is not None else list(N.elements())
        image = set()
        for f in _tables(G).comm_maps:
            image.update(map(f.__getitem__, gens))
        hit = normal_hull(G, _bits_of(G.order, image))
        G.cache[key] = hit
    return hit


def iterated_commutator(G: FiniteGroup, N: Subgroup, k: int) -> Subgroup:
    """[N, G, G, ..., G] with k copies of G (k = 0 gives N)."""
    out = N
    for _ in range(k):
        if out.is_trivial():
            break
        out = commutator_with_group(G, out)
    return out


def power_subgroup(G: FiniteGroup, N: Subgroup, i: int) -> Subgroup:
    """Subgroup generated by the p^i-th powers of all elements of N.

    For normal N this is a lookup in G's lattice, enumerated on first use;
    otherwise a closure.
    """
    if i == 0:
        return N
    key = ("npow", N.bits, i)
    hit = G.cache.get(key)
    if hit is None:
        if N.is_normal():
            hit = normal_hull(G, _bits_of(G.order, power_image(G, N, i)))
        else:
            hit = closure(G, sorted(power_image(G, N, i)))
        G.cache[key] = hit
    return hit


def omega_subgroup(G: FiniteGroup, i: int) -> Subgroup:
    """Subgroup generated by all elements of order dividing p^i.

    A lookup in G's lattice, enumerated on first use.
    """
    key = ("omega", i)
    hit = G.cache.get(key)
    if hit is None:
        hit = normal_hull(G, _from_flags(bytearray(map(i.__ge__, G.order_exponents()))))
        G.cache[key] = hit
    return hit


class GroupTables:
    """Lookup tables for G's normal lattice, built once per group (``G.cache["tables"]``).

    - ``gens``, an irredundant generating subsequence of ``G.generators``:
      the greedy pass keeps each listed generator that the kept ones do not
      reach, then each kept one that the others reach G without is dropped.
      Each step is one ``_reach`` over the kept tables (no products).  No
      proper subset of ``gens`` generates G, so by the Burnside basis
      theorem it has d(G) elements;
    - ``right[k][x] = x g_k`` for each g_k in ``gens``: the greedy pass reads
      each kept generator's whole table from ``right_of``, and nothing else
      takes a product.  A root group passes its backend's ``right_table``,
      filled in bulk (``_tables``); a quotient or a subgroup group passes
      gathers through its parent's tables (``_derived_group``);
    - a breadth-first word tree: ``x = parent[x] g_(gen[x])``, so ``word(x)``
      spells x in ``gens`` and multiplying a whole list by x is a gather
      along that word.  It is the last reach over the kept tables: the
      prune's last drop, or the greedy pass's last step when nothing is
      dropped;
    - ``pth``, the map x -> x^p: G's own list (``FiniteGroup.pth_map``).  A
      derived group has gathered it from its parent's before its tables are
      built;
    - ``comm_maps[k]``, the map x -> [x, g_k] as a list, and ``comm[k]``, its
      gather (an itemgetter over the same int objects).  Along the tree,
      [y h, g] = [y, g]^h [h, g] = (g^-1)^(y h) g, so (g^-1)^x is walked
      down the tree through the conjugation tables z -> h^-1 z h, and those
      come from the walk x -> h^-1 x and ``right``.  No product is taken
      beyond those ``right_of`` and ``G.pth_map`` take, and the conjugation
      tables are dropped once the gathers are built;
    - the preimage memo (``preimage``).  Map 0 is x -> x^p and map k + 1 is
      x -> [x, g_k].  Map f sends every x into its image I_f, so f^-1(S) =
      f^-1(S n I_f): each map is gathered once per distinct S n I_f, and
      the enumerator's candidates (every map) and ``center_over`` (the
      commutator maps) share those gathers.  A map's gather, image bits and
      memo are built on its first use.

    Raises InvariantViolation when the generators do not reach every element.
    That reach check is the one certificate that ``G.generators`` generate G,
    at every order, and it runs before any lattice, center or quotient reads
    the tables.
    """

    __slots__ = ("gens", "right", "parent", "gen", "pth", "comm_maps", "comm", "_maps")

    def __init__(self, G: FiniteGroup, right_of: Callable[[int], List[int]]) -> None:
        n = G.order
        # greedy pass: keep each listed generator the kept ones do not reach
        gens: List[int] = []
        right: List[List[int]] = []
        tree, parent, gen = _reach(right, n)
        for g in G.generators:
            if parent[g] < 0:
                gens.append(g)
                right.append(right_of(g))
                tree, parent, gen = _reach(right, n)
        if len(tree) != n:
            raise InvariantViolation(
                f"the generators of {G.label} reach {len(tree)} of its {n} elements"
            )
        # prune: drop each kept generator the others still reach G without;
        # the last reach over the kept tables is the word tree.  The kept
        # ones before the last missed it in the greedy pass, so it stays.
        for k in reversed(range(len(gens) - 1)):
            reach = _reach(right[:k] + right[k + 1 :], n)
            if len(reach[0]) == n:
                del gens[k], right[k]
                tree, parent, gen = reach
        del tree[0]

        def walk(start: int, tabs: Sequence[List[int]]) -> List[int]:
            # out[x] = tabs[k_m](... tabs[k_1](start)) along the word k_1 ... k_m of x
            out = [start] * n
            for x in tree:
                out[x] = tabs[gen[x]][out[parent[x]]]
            return out

        # y g = 1 exactly for y = g^-1
        inverses = [r.index(0) for r in right]
        # z -> h^-1 z h
        conj = [[r[z] for z in walk(hinv, right)] for r, hinv in zip(right, inverses)]
        self.gens = gens
        self.right = right
        self.parent = parent
        self.gen = gen
        self.pth = G.pth_map()
        self.comm_maps = [[r[z] for z in walk(ginv, conj)] for r, ginv in zip(right, inverses)]
        self.comm = [itemgetter(*f) for f in self.comm_maps]
        # per map f: (its gather, the bits of I_f, {S n I_f: f^-1(S)}), built on first use
        self._maps: List[Optional[tuple]] = [None] * (len(gens) + 1)

    def word(self, x: int) -> List[int]:
        """Indices k_1, ..., k_m into ``gens`` with x = g_(k_1) ... g_(k_m)."""
        out = []
        while x:
            out.append(self.gen[x])
            x = self.parent[x]
        out.reverse()
        return out

    def right_mul(self, elems: List[int], x: int) -> List[int]:
        """[y x for y in elems], as gathers along the word of x."""
        for k in self.word(x):
            elems = list(map(self.right[k].__getitem__, elems))
        return elems

    def preimage(self, bits: int, maps: Iterable[int]) -> int:
        """Bitset of the x that each of maps (0: x -> x^p, k + 1: x -> [x, g_k]) sends into bits.

        Each map's preimage is gathered once per distinct bits n I_f and memoised.
        """
        n = len(self.pth)
        out = (1 << n) - 1
        for f in maps:
            entry = self._maps[f]
            if entry is None:
                values = self.comm_maps[f - 1] if f else self.pth
                gather = self.comm[f - 1] if f else itemgetter(*values)
                entry = self._maps[f] = (gather, _bits_of(n, set(values)), {})
            gather, image, memo = entry
            key = bits & image
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = _gathered_preimage(gather, _membership(n, key))
            out &= hit
        return out


def _tables(G: FiniteGroup) -> GroupTables:
    """G's tables; a root group's are built on first use from its backend's right tables."""
    hit = G.cache.get("tables")
    if hit is None:
        hit = GroupTables(G, G.backend.right_table)
        G.cache["tables"] = hit
    return hit


def _gathered_preimage(gather: itemgetter, member: str) -> int:
    """Bitset of the x that the map read by gather sends into the set with digits member."""
    return int("".join(gather(member))[::-1], 2)


def center_over(G: FiniteGroup, N: Subgroup) -> Subgroup:
    """The preimage of Z(G/N) in G: every x with [x, g] in N for each generator g.

    It is the AND of the commutator maps' preimages of N, read from the
    memo the enumerator fills (``GroupTables.preimage``).
    """
    if not N.is_normal():
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.label}")
    key = ("center_over", N.bits)
    hit = G.cache.get(key)
    if hit is None:
        T = _tables(G)
        hit = Subgroup(G, T.preimage(N.bits, range(1, len(T.gens) + 1)), normal=True)
        G.cache[key] = hit
    return hit


def center(G: FiniteGroup) -> Subgroup:
    return center_over(G, trivial_subgroup(G))


def upper_central_series(G: FiniteGroup) -> "SubgroupSeries":
    """1 = Z_0 <= Z_1 <= ... <= Z_c = G, with Z_(i+1)/Z_i = Z(G/Z_i)."""
    hit = G.cache.get("ucs")
    if hit is None:
        terms = [trivial_subgroup(G)]
        while not terms[-1].is_whole():
            nxt = center_over(G, terms[-1])
            if nxt.bits == terms[-1].bits:
                raise InvariantViolation("upper central series stalled below G")
            terms.append(nxt)
        hit = SubgroupSeries("upper-central", "ascending", terms)
        G.cache["ucs"] = hit
    return hit


def lower_central_series(G: FiniteGroup) -> "SubgroupSeries":
    """G = gamma_1 >= gamma_2 >= ... >= 1."""
    hit = G.cache.get("lcs")
    if hit is None:
        terms = [whole_subgroup(G)]
        while not terms[-1].is_trivial():
            nxt = normal_closure(G, _commutators(G, terms[-1].witness_list(), G.generators))
            if nxt.bits == terms[-1].bits:
                raise InvariantViolation("lower central series stalled above 1")
            terms.append(nxt)
        hit = SubgroupSeries("lower-central", "descending", terms)
        G.cache["lcs"] = hit
    return hit


def lower_central_term(G: FiniteGroup, i: int) -> Subgroup:
    """gamma_i(G), with gamma_i = 1 beyond the series length (i >= 1)."""
    terms = lower_central_series(G).terms
    if i - 1 < len(terms):
        return terms[i - 1]
    return trivial_subgroup(G)


def join(G: FiniteGroup, subs: Sequence[Subgroup]) -> Subgroup:
    """Smallest subgroup containing every member of subs.

    The join of normal subgroups is normal, so it is the normal hull of
    their union, a lookup in G's lattice (enumerated on first use);
    otherwise it is a closure.
    """
    if not subs:
        return trivial_subgroup(G)
    if all(H.is_normal() for H in subs):
        bits = 0
        for H in subs:
            bits |= H.bits
        return normal_hull(G, bits, max(H.order for H in subs))
    gens: List[int] = []
    for H in subs:
        gens.extend(H.witness_list())
    return closure(G, gens)


def frattini(G: FiniteGroup) -> Subgroup:
    """Phi(G) = G^p [G, G]."""
    hit = G.cache.get("frattini")
    if hit is None:
        whole = whole_subgroup(G)
        hit = join(
            G,
            [power_subgroup(G, whole, 1), commutator_with_group(G, whole)],
        )
        G.cache["frattini"] = hit
    return hit


def minimal_generator_count(G: FiniteGroup) -> int:
    """d(G) = log_p |G : Phi(G)| (0 for the trivial group)."""
    if G.order == 1:
        return 0
    return log_p(G.p, G.order // frattini(G).order)


def nilpotency_class(G: FiniteGroup) -> int:
    return len(lower_central_series(G).terms) - 1


def coclass(G: FiniteGroup) -> int:
    return log_p(G.p, G.order) - nilpotency_class(G)


def is_maximal_class(G: FiniteGroup) -> bool:
    return log_p(G.p, G.order) >= 4 and coclass(G) == 1


@dataclass
class SubgroupSeries:
    """A labeled ascending or descending chain of subgroups."""

    kind: str
    direction: str
    terms: List[Subgroup]

    def __post_init__(self) -> None:
        if self.direction not in ("ascending", "descending"):
            raise InvariantViolation(f"series direction {self.direction!r} is unknown")
        pairs = zip(self.terms, self.terms[1:])
        if self.direction == "ascending":
            ok = all(a <= b for a, b in pairs)
        else:
            ok = all(b <= a for a, b in pairs)
        if not ok:
            raise InvariantViolation(f"{self.kind} series terms are not {self.direction}")

    def orders(self) -> List[int]:
        return [t.order for t in self.terms]

    def __len__(self) -> int:
        return len(self.terms)


# -- quotients ---------------------------------------------------------------


class _QuotientBackend:
    """The cosets of N in G, numbered by their least elements.

    The cosets are lookups in G's tables, with no product.  N is normal, so
    (N y) g = N (y g): a breadth-first search over cosets, starting from N,
    gathers each new coset N y g_k from its parent coset N y through
    ``right[k]``, and G's generators reach every coset.  That is |G|
    lookups in all.  The cosets are then numbered by their least elements,
    so ``reps`` are the coset minima in increasing order and ``coset_of[x]``
    is the number of xN.
    """

    def __init__(self, parent: FiniteGroup, nbits: int):
        right = _tables(parent).right
        coset_of = [-1] * parent.order
        cosets: List[List[int]] = []

        def add(coset: List[int]) -> None:
            for x in coset:
                coset_of[x] = len(cosets)
            cosets.append(coset)

        add(list(bits_iter(nbits)))
        for coset in cosets:  # the list iterator also yields the cosets appended meanwhile
            for r in right:
                if coset_of[r[coset[0]]] < 0:
                    add(list(map(r.__getitem__, coset)))
        mins = [min(coset) for coset in cosets]
        rank = [0] * len(cosets)
        for i, j in enumerate(sorted(range(len(cosets)), key=mins.__getitem__)):
            rank[j] = i
        self.reps = sorted(mins)
        self.coset_of = list(map(rank.__getitem__, coset_of))


def _derived_group(
    G: FiniteGroup,
    elems: List[int],
    position: Callable[[int], int],
    lifts: Iterable[int],
    label: str,
    backend: object,
) -> FiniteGroup:
    """The group on positions 0..len(elems)-1 that G induces: position i stands for elems[i].

    A quotient G/N passes its coset representatives, with the coset numbering
    as ``position``; a subgroup H passes its elements, with their index.  The
    product of i and j is ``position(elems[i] elems[j])``, so ``position`` is
    a homomorphism by construction: it is a bijection on H, and for normal N,
    (aN)(bN) = abN.  The generators are the positions of ``lifts``, the first
    lift at each position, with the identity dropped.

    Nothing else takes a product of G; it is read off G's tables.  (xN)^p =
    x^p N, and H keeps G's p-th powers, so the p-th power map is ``position``
    of G's, and ``FiniteGroup.order_exponent`` derives the order exponents
    from it (the order of xN is the least p^k with x^(p^k) in N).  (N y) g =
    N (y g), so the table of a generator with lift g sends the position of
    each y in elems to the position of y g: G's ``right_mul(elems, g)`` read
    through ``position``.
    """
    lift: Dict[int, int] = {}
    for g in lifts:
        lift.setdefault(position(g), g)
    lift.pop(0, None)
    mul = G.mul
    D = FiniteGroup(
        G.p,
        len(elems),
        lambda a, b: position(mul(elems[a], elems[b])),
        list(lift),
        label=label,
        backend=backend,
    )
    pth = G.pth_map()
    D._pth = [position(pth[x]) for x in elems]
    T = _tables(G)
    D.cache["tables"] = GroupTables(D, lambda i: list(map(position, T.right_mul(elems, lift[i]))))
    return D


def quotient(G: FiniteGroup, N: Subgroup) -> Tuple[FiniteGroup, GroupHom]:
    """G/N on coset representatives, plus the projection homomorphism.

    N is checked normal, and Q is built by ``_derived_group`` on the coset
    minima, so the projection x -> xN is a homomorphism by construction.
    """
    if not N.is_normal():
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.label}")
    cache = G.cache.setdefault("quotients", {})
    hit = cache.get(N.bits)
    if hit is None and N.is_trivial():
        # Quotient by 1 is G itself; reusing it keeps every cache warm.
        hit = (G, GroupHom(G, G, list(G.elements())))
        cache[N.bits] = hit
    if hit is None:
        back = _QuotientBackend(G, N.bits)
        Q = _derived_group(
            G, back.reps, back.coset_of.__getitem__, G.generators,
            f"{G.label}/[{N.order}]", back,
        )
        hit = (Q, GroupHom(G, Q, back.coset_of))
        cache[N.bits] = hit
    return hit


def subgroup_as_group(G: FiniteGroup, H: Subgroup) -> FiniteGroup:
    """A standalone FiniteGroup isomorphic to the subgroup H of G, built by ``_derived_group``."""
    cache = G.cache.setdefault("subgroup_groups", {})
    hit = cache.get(H.bits)
    if hit is None:
        elems = list(H.elements())
        index_of = {x: i for i, x in enumerate(elems)}
        hit = _derived_group(
            G, elems, index_of.__getitem__, H.witness_list(),
            f"{G.label}|sub[{H.order}]", ("subgroup", elems, index_of),
        )
        cache[H.bits] = hit
    return hit


# -- normal subgroup enumeration ----------------------------------------------


def _coset_bits(
    G: FiniteGroup, T: GroupTables, elems: List[int], x: int
) -> Tuple[int, List[int]]:
    """Bits of Nx u Nx^2 u ... u Nx^(p-1), N having the elements elems, and N<x>'s elements.

    Each coset is a gather of the previous one along x's word, looked up
    once.  N<x>'s elements are elems followed by those p - 1 cosets.  An
    ``itemgetter`` of one index returns a scalar, so a one-element coset
    (N = 1) steps by plain lookups.
    """
    flags = bytearray(b"0") * G.order
    word = [T.right[k] for k in T.word(x)]
    coset = elems
    grown = list(elems)
    for _ in range(G.p - 1):
        for r in word:
            coset = itemgetter(*coset)(r) if len(coset) > 1 else [r[coset[0]]]
        grown += coset
        for y in coset:
            flags[y] = 49  # ord("1")
    return int(flags[::-1], 2), grown


def enumerate_normal_subgroups(
    G: FiniteGroup, budget: int = NORMAL_SUBGROUP_BUDGET
) -> List[Subgroup]:
    """All normal subgroups of G, each built exactly once.

    Every chief factor of a finite p-group is central of order p, so every
    normal M > 1 contains a normal N of index p, and M = N<x> for any x in
    M outside N; x is then a candidate of N: x^p and every [x, g] lie in N.
    N<x> = N u Nx u ... u Nx^(p-1), and every x' in N<x> outside N spawns
    the same subgroup, so N<x> leaves N's candidates once built; x is
    always the least element of N<x> outside N that is allowed.

    Reverse search over a fixed chief series 1 = C_0 < C_1 < ... < C_n = G
    (Avis and Fukuda 1996; induced pc sequences, Holt, Eick and O'Brien
    2005, ch. 8) picks one such N per M.  The series is the walk's first
    descent: C_(i+1) = C_i<x> for the least candidate x of C_i, which the
    frame of C_i takes first, and the frame of C_(i+1) runs next.  So each
    term is appended as it is built, before any level beyond it is read,
    and every normal subgroup is built once, the terms of the series
    included.  Every p-group has such a series, so a descent that runs out
    of candidates below G is an InvariantViolation.
    Let level(N) be the least i with N <= C_i.  For normal M of level j > 0,
    P = M n C_(j-1) is normal, and it has index p in M because M C_(j-1) =
    C_j.  P is M's canonical parent.  From each N only candidates x outside
    C_level(N) are taken.  Then M = N<x> has parent N: with j = level(M) >
    level(N), N <= M n C_(j-1), and both have index p in M.  Conversely M is
    reached from P, since any x in M outside P lies outside C_(j-1) >=
    C_level(P).  So by induction on |M| every normal subgroup is reached,
    and only from its parent; within one parent each child is built once
    because its elements leave the candidates.  A child reached twice is
    therefore an InvariantViolation.

    The candidates of N are the x that each of the d(G) + 1 maps f: x -> x^p,
    x -> [x, g_k] (g_k in the tables' irredundant ``gens``) sends into N:
    the intersection of the preimages f^-1(N).  Each f(x) lies in I_f, the
    image of f, so f(x) is in N exactly when it is in N n I_f, and f^-1(N)
    depends on N n I_f alone.  It is one gather per map and per distinct
    N n I_f, memoised on the tables (``GroupTables.preimage``) and shared
    with ``center_over``.  The images are small, so many normal subgroups
    share each gather: on ``kirillov_quotient p=3 e=2`` the images have 81,
    27, 9 and 1 elements, and its 345 normal subgroups take 32 + 7 + 3 + 1
    gathers.  Each frame carries N's element list, which its children
    extend by their cosets.

    M's witnesses are its parent's plus the least element of M outside the
    parent.

    This is the only function that takes a budget; it counts distinct
    normal subgroups.  A caller that wants a bound enumerates G first.
    Every other function reads the cached lattice, or enumerates it at the
    default budget on first use.
    """
    hit = G.cache.get("normals")
    if hit is not None:
        return hit
    T = _tables(G)
    full = (1 << G.order) - 1
    maps = range(len(T.gens) + 1)
    triv = trivial_subgroup(G)
    seen: Dict[int, Subgroup] = {triv.bits: triv}
    # the chief series, grown by the walk's first descent
    chain = [1]
    # frames [N, level(N), candidates still to take, elements of N]
    stack = [[triv, 0, T.preimage(triv.bits, maps) & ~chain[0], [0]]]
    while stack:
        frame = stack[-1]
        N, level, free, elems = frame
        if not free:
            # until the descent reaches G, the top frame is the chain's last term
            if chain[-1] != full:
                raise InvariantViolation(f"chief series of {G.label} stalled below G")
            stack.pop()
            continue
        x = (free & -free).bit_length() - 1
        new, grown = _coset_bits(G, T, elems, x)
        mbits = N.bits | new
        frame[2] = free & ~mbits
        if mbits in seen:
            raise InvariantViolation(
                f"normal subgroup of order {mbits.bit_count()} in {G.label} reached twice"
            )
        if len(seen) >= budget:
            raise BudgetExceeded(f"more than {budget} normal subgroups in {G.label}")
        M = Subgroup(G, mbits, N.witness_list() + [x], normal=True)
        seen[mbits] = M
        if level + 1 == len(chain):  # N is the chain's last term, and M its next
            chain.append(mbits)
        # x lies in C_level(M) and outside C_(level(M)-1)
        child_level = level + 1
        while not (chain[child_level] >> x) & 1:
            child_level += 1
        stack.append(
            [M, child_level, T.preimage(mbits, maps) & (full ^ chain[child_level]), grown]
        )
    result = sorted(seen.values(), key=lambda s: (s.order, s.bits))
    G.cache["normals"] = result
    # normal_hull bisects these rather than take each probe's order
    G.cache["normal_orders"] = [H.order for H in result]
    return result
