"""Subgroup calculus on bitsets: closures, commutators, powers, series.

A subgroup is identified by the bitset of its element indices (an int), so
set algebra is big-integer arithmetic and deduplication is hashing.  All
operations are pure functions of immutable inputs; results and expensive
intermediates are memoized on the owning group's cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, InvariantViolation, NotNormal
from .groups import FiniteGroup, GroupHom

NORMAL_SUBGROUP_BUDGET = 1_000_000


def bits_iter(bits: int) -> Iterator[int]:
    """Set bit positions in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


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
    G: FiniteGroup, bits: int, members: List[int], witnesses: List[int], seeds: List[int]
) -> int:
    """Close (bits, members) under right multiplication by witnesses.

    ``seeds`` are the members that still need processing; members is extended
    in place.  Returns the new bitset.
    """
    mul = G.mul
    queue = list(seeds)
    while queue:
        x = queue.pop()
        for g in witnesses:
            y = mul(x, g)
            if not (bits >> y) & 1:
                bits |= 1 << y
                members.append(y)
                queue.append(y)
    return bits


def closure(G: FiniteGroup, gens: Iterable[int], normal: Optional[bool] = None) -> Subgroup:
    """Smallest subgroup containing gens (worklist closure)."""
    bits = 1
    members = [0]
    witnesses: List[int] = []
    for x in gens:
        if (bits >> x) & 1:
            continue
        witnesses.append(x)
        bits |= 1 << x
        members.append(x)
        bits = _orbit_extend(G, bits, members, witnesses, members[:])
    return Subgroup(G, bits, witnesses, normal=normal)


def _extend_subgroup(G: FiniteGroup, H: Subgroup, x: int, normal: Optional[bool]) -> Subgroup:
    """Closure of H together with one extra element."""
    bits = H.bits | (1 << x)
    members = list(bits_iter(H.bits)) + [x]
    witnesses = H.witness_list() + [x]
    bits = _orbit_extend(G, bits, members, witnesses, members[:])
    return Subgroup(G, bits, witnesses, normal=normal)


def _reduce_witnesses(G: FiniteGroup, bits: int) -> List[int]:
    ws: List[int] = []
    cl = 1
    members = [0]
    for x in bits_iter(bits):
        if (cl >> x) & 1:
            continue
        ws.append(x)
        cl |= 1 << x
        members.append(x)
        cl = _orbit_extend(G, cl, members, ws, members[:])
    return ws


def normal_closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup containing gens."""
    H = closure(G, gens, normal=True)
    while True:
        extra = [
            c
            for w in H.witness_list()
            for g in G.generators
            if not (H.bits >> (c := G.conj(w, g))) & 1
        ]
        if not extra:
            return H
        for c in extra:
            if c not in H:
                H = _extend_subgroup(G, H, c, normal=True)


def commutator_subgroup(G: FiniteGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    """Subgroup generated by all [a, b], a in A, b in B.

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


def iterated_commutator(G: FiniteGroup, N: Subgroup, k: int) -> Subgroup:
    """[N, G, G, ..., G] with k copies of G (k = 0 gives N)."""
    out = N
    whole = whole_subgroup(G)
    for _ in range(k):
        out = commutator_subgroup(G, out, whole)
        if out.is_trivial():
            break
    return out


def power_image(G: FiniteGroup, N: Subgroup, i: int) -> set:
    """The raw set of p^i-th powers of elements of N (no closure)."""
    return {G.power_pi(x, i) for x in N.elements()}


def power_subgroup(G: FiniteGroup, N: Subgroup, i: int) -> Subgroup:
    """Subgroup generated by the p^i-th powers of all elements of N."""
    if i == 0:
        return N
    key = ("npow", N.bits, i)
    hit = G.cache.get(key)
    if hit is None:
        normal = True if N.is_normal() else None
        hit = closure(G, sorted(power_image(G, N, i)), normal=normal)
        G.cache[key] = hit
    return hit


def omega_subgroup(G: FiniteGroup, i: int) -> Subgroup:
    """Subgroup generated by all elements of order dividing p^i."""
    key = ("omega", i)
    hit = G.cache.get(key)
    if hit is None:
        gens = [x for x in G.elements() if G.order_exponent(x) <= i]
        hit = closure(G, gens, normal=True)
        G.cache[key] = hit
    return hit


def _tables(G: FiniteGroup) -> List[itemgetter]:
    """Gathers for x -> x^p, then x -> [x, g] for each generator g, once per group."""
    hit = G.cache.get("tables")
    if hit is None:
        elems = G.elements()
        hit = [itemgetter(*[G.pth_power(x) for x in elems])]
        hit += [itemgetter(*[G.comm(x, g) for x in elems]) for g in G.generators]
        G.cache["tables"] = hit
    return hit


def _preimage(G: FiniteGroup, bits: int, tables: Sequence[itemgetter]) -> int:
    """Bitset of the x that every table maps into the element set bits."""
    # member[y] == "1" exactly when y is in bits
    member = bin(bits)[:1:-1].ljust(G.order, "0")
    out = (1 << G.order) - 1
    for gather in tables:
        out &= int("".join(gather(member))[::-1], 2)
    return out


def center_over(G: FiniteGroup, N: Subgroup) -> Subgroup:
    """The preimage of Z(G/N) in G: every x with [x, g] in N for each generator g."""
    if not N.is_normal():
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.label}")
    key = ("center_over", N.bits)
    hit = G.cache.get(key)
    if hit is None:
        hit = Subgroup(G, _preimage(G, N.bits, _tables(G)[1:]), normal=True)
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
    """Smallest subgroup containing every member of subs."""
    if not subs:
        return trivial_subgroup(G)
    gens: List[int] = []
    for H in subs:
        gens.extend(H.witness_list())
    normal = True if all(H.is_normal() for H in subs) else None
    return closure(G, gens, normal=normal)


def frattini(G: FiniteGroup) -> Subgroup:
    """Phi(G) = G^p [G, G]."""
    hit = G.cache.get("frattini")
    if hit is None:
        whole = whole_subgroup(G)
        hit = join(
            G,
            [power_subgroup(G, whole, 1), commutator_subgroup(G, whole, whole)],
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


def enumerate_normal_subgroups(
    G: FiniteGroup, budget: int = NORMAL_SUBGROUP_BUDGET
) -> List[Subgroup]:
    """All normal subgroups of G, by BFS over index-p central steps.

    Every chief factor of a finite p-group is central of order p, so every
    normal M > N contains a normal N<x> with x outside N, x^p in N and
    [x, g] in N for every generator g.  From each discovered N the BFS
    therefore only takes these index-p steps,
    N<x> = N u xN u ... u x^(p-1)N, and still reaches every normal subgroup.

    The candidate test is lookups, not multiplications: it gathers N's
    membership string through the per-group tables of the p-th-power map
    and of x -> [x, g] for each generator g, the same tables that
    ``center_over`` reads, so the candidates of N are the AND of a few
    bitsets.  Every x in a child M outside N spawns the same M, so M's
    elements leave the candidates once M is built, and a child costs
    multiplications in proportion to its own size.
    """
    hit = G.cache.get("normals")
    if hit is not None:
        return hit
    mul = G.mul
    tables = _tables(G)
    triv = trivial_subgroup(G)
    seen: Dict[int, Subgroup] = {triv.bits: triv}
    queue = [triv]
    qi = 0
    while qi < len(queue):
        N = queue[qi]
        qi += 1
        nbits = N.bits
        n_elems = list(N.elements())
        # x^p and every [x, g] lie in N
        free = _preimage(G, nbits, tables) & ~nbits
        while free:
            x = (free & -free).bit_length() - 1
            # x is central of order p modulo N, so <N, x> is the coset union
            mbits = nbits
            coset = n_elems
            for _ in range(G.p - 1):
                coset = [mul(y, x) for y in coset]
                for y in coset:
                    mbits |= 1 << y
            free &= ~mbits
            if mbits not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded(
                        f"more than {budget} normal subgroups in {G.label}"
                    )
                M = Subgroup(G, mbits, N.witness_list() + [x], normal=True)
                seen[mbits] = M
                queue.append(M)
    result = sorted(seen.values(), key=lambda s: (s.order, s.bits))
    G.cache["normals"] = result
    return result
