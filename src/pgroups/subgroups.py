"""Subgroup calculus on bitsets: closures, commutators, powers, series.

A subgroup is identified by the bitset of its element indices (an int), so
set algebra is big-integer arithmetic and deduplication is hashing.  All
operations are pure functions of immutable inputs; results and expensive
intermediates are memoized on the owning group's cache by ``groups._memo``,
except the tables and the lattice (see ``groups``).  G's normal
lattice is enumerated on first use, and every scan of it, here and in the
analysis modules, is an interval [lo, hi] of it (``lattice_interval``).
[N, G], joins of normal subgroups, Omega_i and Phi are lookups in it: the
first member above a set (``normal_hull``).  N^(p^i) of a normal N is a
lookup too, certified by the power map's memoised preimage: the first
lattice member K with N <= pre^i(K) (``power_subgroup``).  Closures
remain for subgroups that need not be normal and for the lower central
series.  They grow by whole right cosets, one product per new element:
(H y) g = H (y g), so <H, x> is the union of the cosets reached from H x
(``_close``).  [A, B] is the closure of the commutators of the witnesses
under conjugation by the witnesses (``commutator_subgroup``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, InvariantViolation, NotNormal
from .groups import _TO_FLAGS, FiniteGroup, GroupHom, _from_flags, _memo, bits_iter, log_p

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
        return bits_iter(self.bits, self.group.elements())

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
    return _close(G, _flags(G, 1), [0], [], bits_iter(bits, G.elements()))


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
# Each derived subgroup below is normal and is read off G's lattice.  [N, G]
# is generated as a normal subgroup by the [x, g_k] with x in N's witnesses
# (modulo that hull every x in N commutes with every generator), and
# Omega_i(G) by the elements of order at most p^i, so each is
# ``normal_hull`` of that set.  M^(p^i) of a normal M needs the p^i-th
# powers of all of M, not of its witnesses alone: it is the first member K,
# from the hull of the witnesses' powers up, whose i-fold power-map
# preimage holds M (``power_subgroup``).  The first of them asked of G
# enumerates G's lattice, within the default budget.


def _bits_of(n: int, elems: Iterable[int]) -> int:
    """The bitset of a collection of elements of a group of order n.

    Each element sets its bit of a little-endian byte string, so a few
    elements cost a few steps and one n/8-byte conversion, not a parse of n
    digits.
    """
    packed = bytearray((n + 7) >> 3)
    for y in elems:
        packed[y >> 3] |= 1 << (y & 7)
    return int.from_bytes(packed, "little")


def lattice_interval(
    G: FiniteGroup, lo: int, hi: Optional[int] = None, descending: bool = False
) -> Iterator[Subgroup]:
    """The members M of G's lattice with lo <= M <= hi, in (order, bits) order.

    lo is any element set and hi a lattice member, both as bits; hi None
    stands for G.  The lattice is sorted by (order, bits), so the scan
    visits only the orders |lo|..|hi|, bounded by a bisection of the orders
    cached beside it; ``descending`` runs it from the top.  The first scan
    of G enumerates its lattice, within the default budget.
    """
    normals = enumerate_normal_subgroups(G)
    orders = G.cache["normal_orders"]
    stop = len(orders) if hi is None else bisect_right(orders, hi.bit_count())
    span = range(bisect_left(orders, lo.bit_count()), stop)
    for i in reversed(span) if descending else span:
        bits = normals[i].bits
        # each test ORs two |G|-bit ints; below a proper hi, most members fail M <= hi
        if (hi is None or bits | hi == hi) and lo | bits == bits:
            yield normals[i]


def normal_hull(G: FiniteGroup, bits: int) -> Subgroup:
    """The smallest normal subgroup of G that contains the element set bits.

    It is the first lattice member of [bits, G] (``lattice_interval``).
    """
    for K in lattice_interval(G, bits):
        return K
    raise InvariantViolation(f"no normal subgroup of {G.label} contains the given set")


def commutator_with_group(G: FiniteGroup, N: Subgroup) -> Subgroup:
    """[N, G], memoized per subgroup; enumerates G's lattice on first use."""

    def build() -> Subgroup:
        # witnesses generate N, so their [w, g_k] have the same hull
        gens = N._witnesses if N._witnesses is not None else list(N.elements())
        image = set()
        for f in _tables(G).comm_maps:
            image.update(map(f.__getitem__, gens))
        return normal_hull(G, _bits_of(G.order, image))

    return _memo(G.cache, ("ngcomm", N.bits), build)


def iterated_commutator(G: FiniteGroup, N: Subgroup, k: int) -> Subgroup:
    """[N, G, G, ..., G] with k copies of G (k = 0 gives N)."""
    out = N
    for _ in range(k):
        if out.is_trivial():
            break
        out = commutator_with_group(G, out)
    return out


def power_subgroup(G: FiniteGroup, N: Subgroup, i: int) -> Subgroup:
    """N^(p^i), the subgroup generated by the p^i-th powers of all elements of N.

    For normal N it is a lookup in G's lattice, enumerated on first use, and
    no element of N is raised to a power.  Let pre(S) = {x : x^p in S}, the
    power map's memoised preimage (``GroupTables.preimage``, map 0), and
    low the normal hull of the p^i-th powers of N's witnesses, so low <=
    N^(p^i).  N^(p^i) is characteristic in N, hence normal in G, and it is
    the least subgroup that contains the p^i-th power of every x in N.  A
    subgroup K contains all of them exactly when N <= pre^i(K), pre applied
    i times.  So every lattice member K with N <= pre^i(K) contains
    N^(p^i), and N^(p^i) is the only such member of its order: it is the
    first one of the (order, bits)-sorted lattice.  The scan runs over the
    members that contain the witnesses' powers (``lattice_interval``), from
    low, the first of them, up; a member it skips does not contain low, so
    it is not N^(p^i).  The enumerator has filled pre(K) for every member K.
    G always qualifies, so an empty scan is an InvariantViolation.

    A non-normal N is the closure of its p^i-th powers.
    """
    if i == 0:
        return N

    def build() -> Subgroup:
        if N.is_normal():
            return _normal_power(G, N, i)
        return closure(G, sorted(power_image(G, N, i)))

    return _memo(G.cache, ("npow", N.bits, i), build)


def _normal_power(G: FiniteGroup, N: Subgroup, i: int) -> Subgroup:
    """N^(p^i) for normal N, certified by pre^i (see ``power_subgroup``)."""
    pth = G.pth_map()
    powers = N._witnesses if N._witnesses is not None else list(N.elements())
    for _ in range(i):
        powers = list(map(pth.__getitem__, powers))
    T = _tables(G)
    for K in lattice_interval(G, _bits_of(G.order, powers)):
        pre = K.bits
        for _ in range(i):
            pre = T.preimage(pre, (0,))
        if N.bits | pre == pre:
            return K
    raise InvariantViolation(f"no normal subgroup of {G.label} contains N^(p^{i})")


def omega_subgroup(G: FiniteGroup, i: int) -> Subgroup:
    """Subgroup generated by all elements of order dividing p^i.

    A lookup in G's lattice, enumerated on first use.
    """
    build = lambda: normal_hull(G, _from_flags(bytearray(map(i.__ge__, G.order_exponents()))))
    return _memo(G.cache, ("omega", i), build)


class GroupTables:
    """Lookup tables for G's normal lattice, built once per group by ``_tables`` alone.

    - ``gens``, an irredundant generating subsequence of ``G.generators``:
      the greedy pass keeps each listed generator that the kept ones do not
      reach, then each kept one that the others reach G without is dropped.
      Each step is one ``_reach`` over the kept tables (no products).  No
      proper subset of ``gens`` generates G, so by the Burnside basis
      theorem it has d(G) elements;
    - ``right[k][x] = x g_k`` for each g_k in ``gens``: the greedy pass reads
      each kept generator's whole table from ``right_of``, and nothing else
      takes a product.  ``_tables`` passes the backend's ``right_table``
      (filled in bulk, or gathered through a parent's tables), or a bare
      group's products.  All but pc tables hold the int objects of
      ``G.elements()``, and so does every map gathered through them;
    - a breadth-first word tree: ``x = parent[x] g_(gen[x])``, so ``word(x)``
      spells x in ``gens`` and multiplying a whole list by x, or a power
      walk's step, is a gather along that word (``word_tables``).  It is
      the last reach over the kept tables: the prune's last drop, or the
      greedy pass's last step when nothing is dropped;
    - ``pth``, the map x -> x^p: G's own list (``FiniteGroup.pth_map``),
      read when first used;
    - ``comm_maps[k]``, the map x -> [x, g_k] as a list, built when first
      read, so a power walk alone builds none.  A backend with
      ``comm_map(g)`` hands each map over in bulk (abelian: all identity;
      semidirect: in closed form).  Otherwise, along the tree,
      [y h, g] = [y, g]^h [h, g] = (g^-1)^(y h) g, so (g^-1)^x is walked
      down the tree through the conjugation tables z -> h^-1 z h, and those
      come from the walk x -> h^-1 x and ``right``.  No product is taken
      beyond those ``right_of`` takes, and the conjugation tables are
      dropped once the maps are built;
    - the preimage memo (``preimage``).  Map 0 is x -> x^p and map k + 1 is
      x -> [x, g_k].  Map f sends every x into its image I_f, so f^-1(S) =
      f^-1(S n I_f): each map is read once per distinct S n I_f, and
      the enumerator's candidates (every map) and ``center_over`` (the
      commutator maps) share those reads.  A map with at most 255 image
      points is read as one ``bytes.translate`` of its n-byte label string
      through a 256-byte table of the key's membership digits; a larger
      image keeps an n-entry gather.  A map's reader, image bits and memo
      are built on its first use.

    Raises InvariantViolation when the generators do not reach every element.
    That reach check is the one certificate that ``G.generators`` generate G,
    at every order, and it runs before any lattice, center, quotient or
    power walk reads the tables.
    """

    __slots__ = ("gens", "right", "parent", "gen", "_tree", "_comm", "_group", "_maps")

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
        self.gens = gens
        self.right = right
        self.parent = parent
        self.gen = gen
        self._tree: Optional[List[int]] = tree  # kept until comm_maps walks it
        self._comm: Optional[List[List[int]]] = None
        self._group = G
        # per map f: (its gather, its label string or None, the bits of I_f,
        # {S n I_f: f^-1(S)}), built on first use; a map onto {1} has neither
        self._maps: List[Optional[tuple]] = [None] * (len(gens) + 1)

    @property
    def comm_maps(self) -> List[List[int]]:
        """The maps x -> [x, g_k], one per kept generator, built on first use.

        The backend's ``comm_map`` hands each over when it has one; otherwise
        they are walked down the tree (``_walked_comm_maps``).
        """
        if self._comm is None:
            bulk = getattr(self._group.backend, "comm_map", None)
            self._comm = list(map(bulk, self.gens)) if bulk else self._walked_comm_maps()
            self._tree = None
        return self._comm

    def _walked_comm_maps(self) -> List[List[int]]:
        """The maps x -> [x, g_k], walked down the word tree through conjugation tables."""
        tree, parent, gen, right = self._tree, self.parent, self.gen, self.right

        def walk(start: int, tabs: Sequence[List[int]]) -> List[int]:
            # out[x] = tabs[k_m](... tabs[k_1](start)) along the word k_1 ... k_m of x
            out = [start] * len(parent)
            for x in tree:
                out[x] = tabs[gen[x]][out[parent[x]]]
            return out

        # y g = 1 exactly for y = g^-1
        inverses = [r.index(0) for r in right]
        # z -> h^-1 z h
        conj = [[r[z] for z in walk(hinv, right)] for r, hinv in zip(right, inverses)]
        return [[r[z] for z in walk(ginv, conj)] for r, ginv in zip(right, inverses)]

    def word(self, x: int) -> List[int]:
        """Indices k_1, ..., k_m into ``gens`` with x = g_(k_1) ... g_(k_m)."""
        out = []
        while x:
            out.append(self.gen[x])
            x = self.parent[x]
        out.reverse()
        return out

    def word_tables(self, x: int) -> List[List[int]]:
        """The tables of x's word: folded first to last, they send each y to y x."""
        return [self.right[k] for k in self.word(x)]

    def right_mul(self, elems: List[int], x: int) -> List[int]:
        """[y x for y in elems], as gathers along the word of x."""
        for r in self.word_tables(x):
            elems = list(map(r.__getitem__, elems))
        return elems

    @property
    def pth(self) -> List[int]:
        """G's p-th power map (``FiniteGroup.pth_map``), read when first used."""
        return self._group.pth_map()

    def preimage(self, bits: int, maps: Iterable[int]) -> int:
        """Bitset of the x that each of maps (0: x -> x^p, k + 1: x -> [x, g_k]) sends into bits.

        Each map's preimage is read once per distinct bits n I_f and
        memoised (``_gathered_preimage``).  A map whose image is {1} (the
        commutator map of a central generator, the power map of an
        exponent-p group) sends G into every set that holds 1 and into no
        other: it is never read, and it leaves the AND as it is or empties
        it.  A map with at most 255 image points is held as its label
        string, last x first: byte k + 1 at x when f(x) is the k-th image
        point, in increasing order.  Any other map is held as a gather of
        its values, last x first.
        """
        n = self._group.order
        out = (1 << n) - 1
        for f in maps:
            entry = self._maps[f]
            if entry is None:
                values = self.comm_maps[f - 1] if f else self.pth
                points = sorted(set(values))
                image = _bits_of(n, points)
                if image == 1:
                    entry = (None, None, image, {})
                elif len(points) <= 255:
                    label = [0] * n
                    for k, y in enumerate(points, 1):
                        label[y] = k
                    labels = bytes(map(label.__getitem__, reversed(values)))
                    entry = (itemgetter(*points), labels, image, {})
                else:
                    entry = (itemgetter(*reversed(values)), None, image, {})
                self._maps[f] = entry
            gather, labels, image, memo = entry
            if image == 1:
                if not bits & 1:
                    return 0
                continue
            key = bits & image
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = _gathered_preimage(gather, labels, _membership(n, key))
            out &= hit
        return out


def _reach(right: Sequence[List[int]], n: int) -> Tuple[List[int], List[int], List[int]]:
    """The elements reached from the identity through the tables right, breadth first.

    Returns them in that order with the word tree: x = parent[x] g_(gen[x]),
    and parent[x] == -1 for each x not reached (parent[0] == 0).
    """
    tree = [0]
    parent = [-1] * n
    parent[0] = 0
    gen = [0] * n
    for x in tree:
        for k, r in enumerate(right):
            y = r[x]
            if parent[y] < 0:
                parent[y] = x
                gen[y] = k
                tree.append(y)
    return tree, parent, gen


def _tables(G: FiniteGroup) -> GroupTables:
    """G's tables, built on first use: the one place a ``GroupTables`` is built.

    The backend's ``right_table`` hands each table over; a bare group's come
    from ``G.mul``, one product per entry.  The memo is written out: it is the
    most frequent hit, and its one ``G.cache["tables"]`` store is pinned.
    """
    hit = G.cache.get("tables")
    if hit is None:
        right_of = getattr(G.backend, "right_table", None)
        if right_of is None:
            ints = G.elements()
            right_of = lambda g: [ints[G.mul(x, g)] for x in ints]
        hit = GroupTables(G, right_of)
        G.cache["tables"] = hit
    return hit


def _gathered_preimage(gather: itemgetter, labels: Optional[bytes], member: str) -> int:
    """Bitset of the x that a map sends into the set with digits member.

    Without labels, gather reads the digit of f(x) for each x, last x first.
    With labels, the map's label string (``GroupTables.preimage``), gather
    reads the digits of the image points, and one ``bytes.translate``
    through the 256-byte table that sends label k + 1 to the k-th of them
    spells the preimage.
    """
    digits = "".join(gather(member))
    if labels is None:
        return int(digits, 2)
    return int(labels.translate(("0" + digits).encode().ljust(256, b"0")), 2)


def center_over(G: FiniteGroup, N: Subgroup) -> Subgroup:
    """The preimage of Z(G/N) in G: every x with [x, g] in N for each generator g.

    It is the AND of the commutator maps' preimages of N, read from the
    memo the enumerator fills (``GroupTables.preimage``).
    """
    if not N.is_normal():
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.label}")

    def build() -> Subgroup:
        T = _tables(G)
        return Subgroup(G, T.preimage(N.bits, range(1, len(T.gens) + 1)), normal=True)

    return _memo(G.cache, ("center_over", N.bits), build)


def center(G: FiniteGroup) -> Subgroup:
    return center_over(G, trivial_subgroup(G))


def upper_central_series(G: FiniteGroup) -> "SubgroupSeries":
    """1 = Z_0 <= Z_1 <= ... <= Z_c = G, with Z_(i+1)/Z_i = Z(G/Z_i)."""

    def build() -> SubgroupSeries:
        terms = [trivial_subgroup(G)]
        while not terms[-1].is_whole():
            nxt = center_over(G, terms[-1])
            if nxt.bits == terms[-1].bits:
                raise InvariantViolation("upper central series stalled below G")
            terms.append(nxt)
        return SubgroupSeries("upper-central", "ascending", terms)

    return _memo(G.cache, "ucs", build)


def lower_central_series(G: FiniteGroup) -> "SubgroupSeries":
    """G = gamma_1 >= gamma_2 >= ... >= 1."""

    def build() -> SubgroupSeries:
        terms = [whole_subgroup(G)]
        while not terms[-1].is_trivial():
            nxt = normal_closure(G, _commutators(G, terms[-1].witness_list(), G.generators))
            if nxt.bits == terms[-1].bits:
                raise InvariantViolation("lower central series stalled above 1")
            terms.append(nxt)
        return SubgroupSeries("lower-central", "descending", terms)

    return _memo(G.cache, "lcs", build)


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
        return normal_hull(G, bits)
    gens: List[int] = []
    for H in subs:
        gens.extend(H.witness_list())
    return closure(G, gens)


def frattini(G: FiniteGroup) -> Subgroup:
    """Phi(G) = G^p [G, G]."""

    def build() -> Subgroup:
        whole = whole_subgroup(G)
        return join(
            G,
            [power_subgroup(G, whole, 1), commutator_with_group(G, whole)],
        )

    return _memo(G.cache, "frattini", build)


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


class _DerivedBackend:
    """The group on positions 0..len(elems)-1 that G induces: position i stands for elems[i].

    A quotient G/N passes its coset representatives, with the coset numbering
    as ``position``; a subgroup H passes its elements, with their index.  The
    product ``mul`` of i and j is ``position(elems[i] elems[j])``, so
    ``position`` is a homomorphism by construction: it is a bijection on H,
    and for normal N, (aN)(bN) = abN.  ``group`` builds the FiniteGroup; its
    generators are the positions of ``lifts``, the first lift at each
    position (``lift``), with the identity dropped.

    Both tables are read off G's, with no product.  (N y) g = N (y g), so
    the right table of a generator with lift g is G's ``right_mul(elems, g)``
    read through ``position``.  (xN)^p = x^p N, and H keeps G's p-th powers,
    so the power map is ``position`` of G's; the order of xN is the least
    p^k with x^(p^k) in N.

    Positions are the first len(elems) of G's ``elements()``, so the two
    groups share their int objects.
    """

    def __init__(
        self, parent: FiniteGroup, elems: List[int], position: Callable[[int], int],
        lifts: Iterable[int],
    ) -> None:
        self.parent = parent
        self.elems = elems
        self.ints = parent.elements()[: len(elems)]
        self.position = position
        self.lift: Dict[int, int] = {}
        for g in lifts:
            self.lift.setdefault(position(g), g)
        self.lift.pop(0, None)
        mul = parent.mul
        self.mul = lambda a, b: position(mul(elems[a], elems[b]))

    def group(self, label: str) -> FiniteGroup:
        return FiniteGroup(self.parent.p, len(self.elems), self.mul, list(self.lift), label, self)

    def right_table(self, g: int) -> List[int]:
        return list(map(self.position, _tables(self.parent).right_mul(self.elems, self.lift[g])))

    def power_map(self) -> List[int]:
        return list(map(self.position, map(self.parent.pth_map().__getitem__, self.elems)))


class _QuotientBackend(_DerivedBackend):
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
        ints = parent.elements()
        coset_of = [-1] * parent.order
        cosets: List[List[int]] = []

        def add(coset: List[int]) -> None:
            number = ints[len(cosets)]
            for x in coset:
                coset_of[x] = number
            cosets.append(coset)

        add(list(bits_iter(nbits, ints)))
        for coset in cosets:  # the list iterator also yields the cosets appended meanwhile
            for r in right:
                if coset_of[r[coset[0]]] < 0:
                    add(list(map(r.__getitem__, coset)))
        mins = [min(coset) for coset in cosets]
        rank = [0] * len(cosets)
        for i, j in zip(ints, sorted(range(len(cosets)), key=mins.__getitem__)):
            rank[j] = i
        self.reps = sorted(mins)
        self.coset_of = list(map(rank.__getitem__, coset_of))
        super().__init__(parent, self.reps, self.coset_of.__getitem__, parent.generators)


def quotient(G: FiniteGroup, N: Subgroup) -> Tuple[FiniteGroup, GroupHom]:
    """G/N on coset representatives, plus the projection homomorphism.

    N is checked normal, and Q is built on the coset minima
    (``_QuotientBackend``), so the projection x -> xN is a homomorphism by
    construction.
    """
    if not N.is_normal():
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.label}")

    def build() -> Tuple[FiniteGroup, GroupHom]:
        if N.is_trivial():
            # Quotient by 1 is G itself; reusing it keeps every cache warm.
            return G, GroupHom(G, G, G.elements())
        back = _QuotientBackend(G, N.bits)
        Q = back.group(f"{G.label}/[{N.order}]")
        return Q, GroupHom(G, Q, back.coset_of)

    return _memo(G.cache.setdefault("quotients", {}), N.bits, build)


def subgroup_as_group(G: FiniteGroup, H: Subgroup) -> FiniteGroup:
    """A standalone FiniteGroup isomorphic to the subgroup H of G (``_DerivedBackend``)."""

    def build() -> FiniteGroup:
        elems = list(H.elements())
        index_of = dict(zip(elems, G.elements()))
        back = _DerivedBackend(G, elems, index_of.__getitem__, H.witness_list())
        return back.group(f"{G.label}|sub[{H.order}]")

    return _memo(G.cache.setdefault("subgroup_groups", {}), H.bits, build)


# -- normal subgroup enumeration ----------------------------------------------


def _coset_bits(
    G: FiniteGroup, T: GroupTables, elems: List[int], x: int
) -> Tuple[int, List[Sequence[int]]]:
    """Bits of Nx u Nx^2 u ... u Nx^(p-1), N having the elements elems, and those p - 1 cosets.

    Each coset is a gather of the previous one along x's word, looked up
    once.  N<x>'s elements are elems followed by the cosets.  An
    ``itemgetter`` of one index returns a scalar, so a one-element coset
    (N = 1) steps by plain lookups.
    """
    flags = bytearray(b"0") * G.order
    word = T.word_tables(x)
    coset = elems
    cosets = []
    for _ in range(G.p - 1):
        for r in word:
            coset = itemgetter(*coset)(r) if len(coset) > 1 else [r[coset[0]]]
        cosets.append(coset)
        for y in coset:
            flags[y] = 49  # ord("1")
    return int(flags[::-1], 2), cosets


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
    visit of C_i takes first, and the visit of C_(i+1) runs next.  So each
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
    gathers.  A visit joins its parent's element list and its own p - 1
    cosets into N's list only when N has a candidate: most children are
    leaves, and they never need the list.  The walk recurses once per
    level, from 0 up to the chief length log_p |G|, so it is at most
    log_3(ELEMENT_CAP) + 1 = 12 visits deep, however wide the lattice.

    M's witnesses are its parent's plus the least element of M outside the
    parent.

    This is the only function that takes a budget; it counts distinct
    normal subgroups.  A caller that wants a bound enumerates G first.
    Every other function reads the cached lattice, or enumerates it at the
    default budget on first use.
    """
    # a written-out memo, not _memo: a miss takes the budget and stores two keys
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

    def visit(N: Subgroup, level: int, elems: List[int], cosets: List[Sequence[int]]) -> None:
        # N's elements are elems followed by cosets
        free = T.preimage(N.bits, maps) & (full ^ chain[level])
        if free and cosets:
            elems = list(elems)
            for coset in cosets:
                elems += coset
        while free:
            x = (free & -free).bit_length() - 1
            new, child_cosets = _coset_bits(G, T, elems, x)
            mbits = N.bits | new
            free &= ~mbits
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
            visit(M, child_level, elems, child_cosets)
        # until the descent reaches G, N is the chain's last term
        if chain[-1] != full:
            raise InvariantViolation(f"chief series of {G.label} stalled below G")

    visit(triv, 0, [0], [])
    result = sorted(seen.values(), key=lambda s: (s.order, s.bits))
    G.cache["normals"] = result
    # lattice_interval bisects these to the orders it scans
    G.cache["normal_orders"] = [H.order for H in result]
    return result
