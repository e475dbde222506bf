"""Subgroup calculus on bitsets: closures, commutators, powers, series.

A subgroup is identified by the bitset of its element indices (an int), so
set algebra is big-integer arithmetic and deduplication is hashing.  All
operations are pure functions of immutable inputs; results and expensive
intermediates are memoized on the owning group's cache.  [N, G], powers
and joins of normal subgroups, Omega_i and Phi are lookups in G's normal
lattice (``normal_hull``), which is enumerated on first use.  Closures
remain for subgroups that need not be normal and for the lower central
series.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, islice
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, InvariantViolation, NotNormal
from .groups import FiniteGroup, GroupHom

NORMAL_SUBGROUP_BUDGET = 1_000_000


# bytes.translate maps between the digits of bin() and 0/1 membership flags
_TO_FLAGS = bytes.maketrans(b"01", b"\0\1")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def bits_iter(bits: int) -> Iterator[int]:
    """Set bit positions in ascending order, in time linear in bits.bit_length()."""
    flags = bin(bits)[:1:-1].encode().translate(_TO_FLAGS)
    return compress(range(len(flags)), flags)


def _membership(G: FiniteGroup, bits: int) -> str:
    """The digits of bits over G's elements: member[x] == "1" exactly when x is in bits."""
    return bin(bits)[:1:-1].ljust(G.order, "0")


def _flags(G: FiniteGroup, bits: int) -> bytearray:
    """Membership flags of bits: flags[x] == 1 exactly when x is in bits."""
    return bytearray(_membership(G, bits).encode().translate(_TO_FLAGS))


def _from_flags(flags: bytearray) -> int:
    """The bitset whose members are the x with flags[x] == 1."""
    return int(flags.translate(_TO_DIGITS)[::-1], 2)


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


def _orbit_extend(
    G: FiniteGroup, flags: bytearray, members: List[int], witnesses: List[int], seeds: List[int]
) -> None:
    """Close (flags, members) under right multiplication by witnesses, in place.

    ``seeds`` are the members that still need processing.
    """
    mul = G.mul
    queue = list(seeds)
    while queue:
        x = queue.pop()
        for g in witnesses:
            y = mul(x, g)
            if not flags[y]:
                flags[y] = 1
                members.append(y)
                queue.append(y)


def _close(
    G: FiniteGroup, flags: bytearray, members: List[int], witnesses: List[int], gens: Iterable[int]
) -> List[int]:
    """Extend the subgroup (flags, members) by each of gens in turn, in place.

    witnesses generate the subgroup; each gen used is appended to them.
    Returns witnesses.
    """
    for x in gens:
        if flags[x]:
            continue
        witnesses.append(x)
        flags[x] = 1
        members.append(x)
        _orbit_extend(G, flags, members, witnesses, members[:])
    return witnesses


def closure(G: FiniteGroup, gens: Iterable[int], normal: Optional[bool] = None) -> Subgroup:
    """Smallest subgroup containing gens (worklist closure)."""
    flags = _flags(G, 1)
    witnesses = _close(G, flags, [0], [], gens)
    return Subgroup(G, _from_flags(flags), witnesses, normal=normal)


def _reduce_witnesses(G: FiniteGroup, bits: int) -> List[int]:
    return _close(G, _flags(G, 1), [0], [], bits_iter(bits))


def normal_closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup containing gens."""
    flags = _flags(G, 1)
    members = [0]
    witnesses = _close(G, flags, members, [], gens)
    while True:
        extra = [
            c
            for w in witnesses
            for g in G.generators
            if not flags[c := G.conj(w, g)]
        ]
        if not extra:
            return Subgroup(G, _from_flags(flags), witnesses, normal=True)
        _close(G, flags, members, witnesses, extra)


def commutator_subgroup(G: FiniteGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    """Subgroup generated by all [a, b], a in A, b in B, by closure.

    When both arguments are normal this equals the normal closure of the
    witness-pair commutators; otherwise all element pairs are swept.
    """
    comm = G.comm
    if A.is_normal() and B.is_normal():
        gens = {comm(a, b) for a in A.witness_list() for b in B.witness_list()}
        gens.discard(0)
        return normal_closure(G, sorted(gens))
    gens = {comm(a, b) for a in A.elements() for b in B.elements()}
    gens.discard(0)
    return closure(G, sorted(gens))


def power_image(G: FiniteGroup, N: Subgroup, i: int) -> set:
    """The raw set of p^i-th powers of elements of N (no closure)."""
    image: Iterable[int] = N.elements()
    pth = G.pth_map().__getitem__
    for _ in range(i):
        image = map(pth, image)
    return set(image)


# -- derived subgroups: lookups in G's normal lattice ---------------------------
#
# Each derived subgroup below is normal and is the smallest normal subgroup
# containing a set of elements read off the tables: [N, G] is generated as a
# normal subgroup by the [x, g_k] with x in N (modulo that hull every x in N
# commutes with every generator); M^(p^i) of a normal M is generated by the
# p^i-th powers, a G-invariant set; Omega_i(G) by the elements of order at
# most p^i.  So each one is ``normal_hull`` of that set, and the first of
# them asked of G enumerates G's lattice, within the default budget.


def _bits_of(G: FiniteGroup, elems: Iterable[int]) -> int:
    """The bitset of an element collection."""
    flags = bytearray(G.order)
    for y in elems:
        flags[y] = 1
    return _from_flags(flags)


def normal_hull(G: FiniteGroup, bits: int, order: int = 0) -> Subgroup:
    """The smallest normal subgroup of G that contains the element set bits.

    G's lattice is sorted by order, so this is its first member containing
    bits.  The scan starts at ``order``, a known lower bound on the answer's
    order (``bits.bit_count()`` is always one).  The first lookup in G
    enumerates its lattice, within the default budget.
    """
    normals = enumerate_normal_subgroups(G)
    start = bisect_left(normals, max(order, bits.bit_count()), key=lambda H: H.order)
    for H in normals[start:]:
        if bits | H.bits == H.bits:
            return H
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
        hit = normal_hull(G, _bits_of(G, image))
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
            hit = normal_hull(G, _bits_of(G, power_image(G, N, i)))
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
        gens = [x for x in G.elements() if G.order_exponent(x) <= i]
        hit = normal_hull(G, _bits_of(G, gens))
        G.cache[key] = hit
    return hit


class GroupTables:
    """Lookup tables for G's normal lattice, built once per group (``G.cache["tables"]``).

    - ``gens``, an irredundant generating subsequence of ``G.generators``:
      the greedy pass keeps each listed generator that the kept ones do not
      reach, then each kept one that the others reach G without is dropped
      (a search over ``right``, no products).  No proper subset of ``gens``
      generates G, so by the Burnside basis theorem it has d(G) elements;
    - ``right[k][x] = x g_k`` for each g_k in ``gens``: the greedy pass takes
      each (x, kept g) product once, so these are the only d(G) |G|
      products unless the prune drops a generator;
    - a breadth-first word tree: ``x = parent[x] g_(gen[x])``, so ``word(x)``
      spells x in ``gens`` and multiplying a whole list by x is a gather
      along that word;
    - ``pth``, the map x -> x^p: G's own list (``FiniteGroup.pth_map``);
    - ``comm_maps[k]``, the map x -> [x, g_k] as a list, and ``comm[k]``, its
      gather (an itemgetter over the same int objects).  Along the tree,
      [y h, g] = [y, g]^h [h, g] = (g^-1)^(y h) g, so (g^-1)^x is walked
      down the tree through the conjugation tables z -> h^-1 z h, and those
      come from the walk x -> h^-1 x and ``right``.  No product is taken
      beyond ``right`` and the p-th powers, and the conjugation tables are
      dropped once the gathers are built.

    Raises InvariantViolation when the generators do not reach every element.
    """

    __slots__ = ("gens", "right", "parent", "gen", "pth", "comm_maps", "comm")

    def __init__(self, G: FiniteGroup) -> None:
        n, mul = G.order, G.mul
        # one int object per element, shared by every table below
        ints = list(range(n))
        # greedy pass: keep each listed generator the kept ones do not reach,
        # and close over it, taking each (x, kept g) product once
        gens: List[int] = []
        right: List[List[int]] = []
        reached = [0]
        seen = _flags(G, 1)
        for g in G.generators:
            if seen[g]:
                continue
            rg = [0] * n
            gens.append(g)
            right.append(rg)
            old = len(reached)
            for x in reached[:old]:
                rg[x] = y = ints[mul(x, g)]
                if not seen[y]:
                    seen[y] = 1
                    reached.append(y)
            # the list iterator also yields the elements appended meanwhile
            for x in islice(reached, old, None):
                for h, r in zip(gens, right):
                    r[x] = y = ints[mul(x, h)]
                    if not seen[y]:
                        seen[y] = 1
                        reached.append(y)
        if len(reached) != n:
            raise InvariantViolation(
                f"the generators of {G.label} reach {len(reached)} of its {n} elements"
            )
        # prune: drop each kept generator the others still reach G without
        for k in reversed(range(len(gens))):
            if len(_reach(right[:k] + right[k + 1 :], n)[0]) == n:
                del gens[k], right[k]
        tree, parent, gen = _reach(right, n)
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


def _reach(right: Sequence[List[int]], n: int) -> Tuple[List[int], List[int], List[int]]:
    """The elements reached from the identity through the tables right, breadth first.

    Returns them in that order with the word tree: x = parent[x] g_(gen[x]).
    """
    tree = [0]
    parent = [0] * n
    gen = [0] * n
    seen = bytearray(n)
    seen[0] = 1
    for x in tree:
        for k, r in enumerate(right):
            y = r[x]
            if not seen[y]:
                seen[y] = 1
                parent[y] = x
                gen[y] = k
                tree.append(y)
    return tree, parent, gen


def _tables(G: FiniteGroup) -> GroupTables:
    hit = G.cache.get("tables")
    if hit is None:
        hit = GroupTables(G)
        G.cache["tables"] = hit
    return hit


def _preimage(member: str, gathers: Sequence[itemgetter]) -> int:
    """Bitset of the x that every gather maps into the set with membership digits member."""
    out = (1 << len(member)) - 1
    for gather in gathers:
        out &= int("".join(gather(member))[::-1], 2)
    return out


def center_over(G: FiniteGroup, N: Subgroup) -> Subgroup:
    """The preimage of Z(G/N) in G: every x with [x, g] in N for each generator g."""
    if not N.is_normal():
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.label}")
    key = ("center_over", N.bits)
    hit = G.cache.get(key)
    if hit is None:
        hit = Subgroup(G, _preimage(_membership(G, N.bits), _tables(G).comm), normal=True)
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
            nxt = commutator_subgroup(G, terms[-1], whole_subgroup(G))
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
    index = G.order // frattini(G).order
    d = 0
    while index > 1:
        index //= G.p
        d += 1
    return d


def nilpotency_class(G: FiniteGroup) -> int:
    return len(lower_central_series(G).terms) - 1


def coclass(G: FiniteGroup) -> int:
    n = 0
    order = G.order
    while order > 1:
        order //= G.p
        n += 1
    return n - nilpotency_class(G)


def is_maximal_class(G: FiniteGroup) -> bool:
    n = 0
    order = G.order
    while order > 1:
        order //= G.p
        n += 1
    return n >= 4 and coclass(G) == 1


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
    """Coset-representative arithmetic for G/N (reps are coset minima)."""

    def __init__(self, parent: FiniteGroup, nbits: int):
        n_elems = list(bits_iter(nbits))
        coset_of = [-1] * parent.order
        reps: List[int] = []
        mul = parent.mul
        for x in parent.elements():
            if coset_of[x] >= 0:
                continue
            idx = len(reps)
            reps.append(x)
            for n in n_elems:
                coset_of[mul(x, n)] = idx
        self.parent = parent
        self.reps = reps
        self.coset_of = coset_of
        self.order = len(reps)

    def mul(self, a: int, b: int) -> int:
        return self.coset_of[self.parent.mul(self.reps[a], self.reps[b])]


def quotient(G: FiniteGroup, N: Subgroup) -> Tuple[FiniteGroup, GroupHom]:
    """G/N on coset representatives, plus the projection homomorphism.

    The projection is a homomorphism by construction: N is checked normal,
    so (aN)(bN) = abN, and Q multiplies two cosets as the coset of the
    product of their representatives.
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
        gens = []
        for g in G.generators:
            q = back.coset_of[g]
            if q != 0 and q not in gens:
                gens.append(q)
        Q = FiniteGroup(
            G.p,
            back.order,
            back.mul,
            gens,
            label=f"{G.label}/[{N.order}]",
            backend=back,
        )
        hom = GroupHom(G, Q, back.coset_of)
        hit = (Q, hom)
        cache[N.bits] = hit
    return hit


def subgroup_as_group(G: FiniteGroup, H: Subgroup) -> FiniteGroup:
    """A standalone FiniteGroup isomorphic to the subgroup H of G."""
    cache = G.cache.setdefault("subgroup_groups", {})
    hit = cache.get(H.bits)
    if hit is None:
        elems = list(H.elements())
        index_of = {x: i for i, x in enumerate(elems)}
        mul = G.mul

        def submul(a: int, b: int, _elems=elems, _idx=index_of) -> int:
            return _idx[mul(_elems[a], _elems[b])]

        gens = [index_of[w] for w in H.witness_list()]
        hit = FiniteGroup(
            G.p,
            len(elems),
            submul,
            gens,
            label=f"{G.label}|sub[{H.order}]",
            backend=("subgroup", elems, index_of),
        )
        cache[H.bits] = hit
    return hit


# -- normal subgroup enumeration ----------------------------------------------


def _fibers(maps: Sequence[List[int]], n: int) -> Tuple[array, array]:
    """The inverse images of maps on 0..n-1, in CSR form.

    Over every f in maps, the x with f(x) = y are xs[start[y]:start[y + 1]],
    with multiplicity.  Arrays keep them at 4 bytes per entry.
    """
    start = array("I", bytes(4 * (n + 1)))
    for f in maps:
        for y in f:
            start[y + 1] += 1
    for y in range(n):
        start[y + 1] += start[y]
    slot = start[:-1]
    xs = array("I", bytes(4 * start[n]))
    for f in maps:
        for x, y in enumerate(f):
            xs[slot[y]] = x
            slot[y] += 1
    return xs, start


def _coset_bits(G: FiniteGroup, T: GroupTables, elems: List[int], x: int) -> int:
    """Bits of Nx u Nx^2 u ... u Nx^(p-1), N having the elements elems.

    Each coset is a gather of the previous one along x's word.
    """
    flags = bytearray(b"0") * G.order
    coset = elems
    for _ in range(G.p - 1):
        coset = T.right_mul(coset, x)
        for y in coset:
            flags[y] = 49  # ord("1")
    return int(flags[::-1], 2)


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
    2005, ch. 8) picks one such N per M.  The series is the first
    lowest-bit path: C_(i+1) = C_i<x> for the least candidate x of C_i.
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

    Candidates are kept incrementally: each pending N carries a count per
    element x of the d(G) + 1 maps x -> x^p, x -> [x, g_k] (g_k in the
    tables' irredundant ``gens``) that send x into N, and the candidates are
    the x whose count is d(G) + 1.  A child copies its
    parent's counts and adds the inverse images (``_fibers``, built once per
    enumeration) of its (p - 1)|N| new elements.  The walk is depth-first,
    so only one count array per level of the search is alive.

    M's witnesses are its parent's plus the least element of M outside the
    parent.  The budget counts distinct normal subgroups.
    """
    hit = G.cache.get("normals")
    if hit is not None:
        return hit
    T = _tables(G)
    n = G.order
    full = (1 << n) - 1
    maps = [T.pth, *T.comm_maps]
    xs, start = _fibers(maps, n)
    # the only new elements that change a count are the images of the maps
    images = _bits_of(G, set().union(*maps))
    to_digits = bytes(49 if c == len(maps) else 48 for c in range(256))

    def counts_with(counts: bytearray, new: int) -> bytearray:
        for y in bits_iter(new & images):
            for x in xs[start[y] : start[y + 1]]:
                counts[x] += 1
        return counts

    def candidates(counts: bytearray) -> int:
        return int(counts.translate(to_digits)[::-1], 2)

    triv = trivial_subgroup(G)
    counts = counts_with(bytearray(n), 1)
    triv_counts = counts
    chain = [1]
    while chain[-1] != full:
        free = candidates(counts) & ~chain[-1]
        if not free:
            raise InvariantViolation(f"chief series of {G.label} stalled below G")
        x = (free & -free).bit_length() - 1
        new = _coset_bits(G, T, list(bits_iter(chain[-1])), x)
        counts = counts_with(bytearray(counts), new)
        chain.append(chain[-1] | new)
    seen: Dict[int, Subgroup] = {triv.bits: triv}
    # frames [N, level(N), counts of N, candidates still to take, elements of N]
    stack = [[triv, 0, triv_counts, candidates(triv_counts) & ~chain[0], None]]
    while stack:
        frame = stack[-1]
        N, level, counts, free, elems = frame
        if not free:
            stack.pop()
            continue
        if elems is None:
            frame[4] = elems = list(bits_iter(N.bits))
        x = (free & -free).bit_length() - 1
        new = _coset_bits(G, T, elems, x)
        mbits = N.bits | new
        frame[3] = free & ~mbits
        if mbits in seen:
            raise InvariantViolation(
                f"normal subgroup of order {mbits.bit_count()} in {G.label} reached twice"
            )
        if len(seen) >= budget:
            raise BudgetExceeded(f"more than {budget} normal subgroups in {G.label}")
        M = Subgroup(G, mbits, N.witness_list() + [x], normal=True)
        seen[mbits] = M
        # x lies in C_level(M) and outside C_(level(M)-1)
        child_level = level + 1
        while not (chain[child_level] >> x) & 1:
            child_level += 1
        child = counts_with(bytearray(counts), new)
        stack.append([M, child_level, child, candidates(child) & (full ^ chain[child_level]), None])
    result = sorted(seen.values(), key=lambda s: (s.order, s.bits))
    G.cache["normals"] = result
    return result
