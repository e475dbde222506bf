"""Exact finite p-group kernel.

Groups live on the dense element domain 0..order-1 with the identity at
index 0.  Multiplication is an exact integer function supplied by a
construction-specific backend (right tables for pc presentations, matrix
arithmetic for unitriangular groups, coordinate arithmetic for abelian and
semidirect products, coset arithmetic for quotients).

The backend is the one place that says how a group's tables and power map
are obtained.  Each of three capabilities is used when the backend has it:
``right_table(g)`` hands over the right table x -> x g of a listed
generator g in bulk (every root backend; quotient and subgroup backends
gather it through their parent's tables), which ``subgroups.GroupTables``
reads instead of multiplying; ``power_map()`` hands over the p-th power map
(abelian, semidirect, quotient and subgroup backends); ``word_tables(x)``
spells x as a word of right tables (pc, by its exponent vector, which its
index already is).  A group without them walks its power map through right
tables, each step a fold of x's word in its lattice tables' one
breadth-first word tree, with no product (``FiniteGroup._power_walk``); a
bare ``FiniteGroup`` with no backend takes its right tables from ``mul``,
one product per entry (``subgroups._tables``).  The abelian and
unitriangular tables are built over the element index digit by digit, and
an endomorphism of an abelian group is extended from its generator images
the same way (``_AbelianBackend.extend``).

Each group holds one int object per element, its ``elements()`` list, and
every table, power map, coset numbering and subgroup element list takes
its entries from it.  CPython interns only the ints up to 256, so an entry
made by arithmetic would be a new 28-byte object beside its 8-byte
pointer; shared, it costs the pointer alone.  The abelian, unitriangular
and semidirect backends own the list (``ints``) and gather each block of
a table from a slice of it (``_stacked``), a quotient or subgroup group
reuses the first entries of its parent's, and a bare or pc group builds it
on first use.  pc tables keep their own ints: filling them from the list
measured slower (``_PcBackend._fill_tables``).

Groups are immutable after construction.  Values derived from G are
cached in ``G.cache`` by ``_memo``: a stored None is an answer, and a build
that raises stores nothing.  ``subgroups`` writes out two memos: the
tables (``_tables``), the most frequent hit, and the normal lattice
(``enumerate_normal_subgroups``), which takes a budget and stores two keys.

Only odd primes are supported; every constructor rejects p = 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress
from operator import add, truth
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .errors import (
    InconsistentPresentation,
    InvalidWord,
    NotAbelian,
    NotAutomorphism,
    NotOddPrime,
    OrderMismatch,
    ParamOutOfRange,
    SizeLimitExceeded,
)

# Hard cap on the element domain of any single group (covers 3^11 and 5^7).
ELEMENT_CAP = 250_000

# A word maps to g_{i1}^{e1} g_{i2}^{e2} ...; generator indices are 1-based
# and strictly increasing, exponents in 1..p-1.
Word = Tuple[Tuple[int, int], ...]


def validate_odd_prime(p: int) -> int:
    """Return p if it is an odd prime, else raise NotOddPrime (SizeLimitExceeded above the cap)."""
    if not isinstance(p, int) or p < 2:
        raise NotOddPrime(f"p must be an odd prime >= 3, got {p!r}")
    if p % 2 == 0:
        raise NotOddPrime("p = 2 is not supported" if p == 2 else f"{p} is not prime")
    if p > ELEMENT_CAP:  # every group built has order at least p
        raise SizeLimitExceeded(f"p = {p} exceeds the element cap {ELEMENT_CAP}")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise NotOddPrime(f"{p} is not prime")
        d += 2
    return p


def log_p(p: int, order: int) -> int:
    """e with order = p**e, for the order of a p-group, a subgroup or an index."""
    e = 0
    while order > 1:
        order //= p
        e += 1
    return e


def _check_cap(p: int, e: int, what: str) -> int:
    """p^e, the order of a group about to be built, unless it exceeds ELEMENT_CAP.

    p >= 2, so p^e exceeds the cap once e exceeds its bit length, and a huge
    power is never computed.
    """
    if e > ELEMENT_CAP.bit_length() or p**e > ELEMENT_CAP:
        raise SizeLimitExceeded(f"{what} would have order {p}^{e} > element cap {ELEMENT_CAP}")
    return p**e


_MISS = object()
_T = TypeVar("_T")


def _memo(cache: Dict, key: object, build: Callable[[], _T]) -> _T:
    """cache[key], made by build() and stored on a miss.

    A stored None is a hit, and a build that raises stores nothing.
    """
    hit = cache.get(key, _MISS)
    if hit is _MISS:
        hit = cache[key] = build()
    return hit


class FiniteGroup:
    """An explicit finite p-group with elements 0..order-1, identity 0.

    ``mul`` is the total multiplication; ``generators`` is a distinguished
    generating list (element indices).  ``backend`` keeps the
    construction-specific data reachable and may offer ``right_table(g)``,
    ``power_map()`` and ``word_tables(x)`` (module docstring); without them
    the right tables come from ``mul``, one product per entry.
    """

    def __init__(
        self,
        p: int,
        order: int,
        mul: Callable[[int, int], int],
        generators: Sequence[int],
        label: str = "group",
        backend: object = None,
    ) -> None:
        self.p = p
        self.order = order
        self.identity = 0
        self.mul = mul
        self.generators = list(generators)
        self.label = label
        self.backend = backend
        self._ints: Optional[List[int]] = getattr(backend, "ints", None)
        self._inv: Dict[int, int] = {}
        self._pth: Optional[List[int]] = None
        self._ordexp: Optional[List[int]] = None
        self._abelian: Optional[bool] = None
        self.cache: Dict[str, object] = {}

    # -- element arithmetic ------------------------------------------------

    def elements(self) -> List[int]:
        """The element indices 0..order-1 as G's one shared list of int objects.

        A root backend owns the list (``ints``), a quotient or subgroup group
        reuses the first entries of its parent's, and a bare or pc group
        builds it here on first use.  Callers must not mutate it.
        """
        if self._ints is None:
            self._ints = list(range(self.order))
        return self._ints

    def pow(self, x: int, e: int) -> int:
        """x**e by square-and-multiply; x^(-e) is (x^-1)^e."""
        if e < 0:
            x, e = self.inv(x), -e
        result = 0
        base = x
        mul = self.mul
        while e:
            if e & 1:
                result = mul(result, base)
            base = mul(base, base)
            e >>= 1
        return result

    def inv(self, x: int) -> int:
        """x^-1 = x^(m-1) with m = p^k the order of x, memoized per element."""
        hit = self._inv.get(x)
        if hit is None:
            hit = self.pow(x, self.element_order(x) - 1)
            self._inv[x] = hit
        return hit

    def conj(self, x: int, g: int) -> int:
        """g^-1 x g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def comm(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y, from the memoized inverses of x and y."""
        mul = self.mul
        return mul(mul(mul(self.inv(x), self.inv(y)), x), y)

    def pth_map(self) -> List[int]:
        """The cached p-th power map: pth_map()[x] == x**p.  Callers must not mutate it.

        A backend with a ``power_map`` (abelian, semidirect, quotient,
        subgroup) hands it over in bulk; every other group walks it
        (``_power_walk``).  This is the only place ``_pth`` is assigned.
        """
        if self._pth is None:
            bulk = getattr(self.backend, "power_map", None)
            self._pth = bulk() if bulk is not None else self._power_walk()
        return self._pth

    def _power_walk(self) -> List[int]:
        """The p-th power map, from one walk per cyclic subgroup.

        From each x no earlier walk reached, walk x, x^2, ..., x^m = 1.  With
        m = p^k, x^i has p-th power x^(ip mod m).  The walk takes m - 1
        steps y -> y x and reaches every generator of <x>, none of which an
        earlier walk reached (it would have reached x too): at least
        phi(m) = m (p - 1) / p new elements.  So the whole map takes fewer
        than p (|G| - 1) / (p - 1) steps, each a fold of x's word through
        right tables (``_right_factors``), read once per walk: a pc group
        spells x by its exponent vector, and any other group reads x's word
        off its lattice tables' word tree.  A walk that passes |G|
        steps without the identity, or ends at an order that is not a power
        of p, raises InconsistentPresentation.
        """
        p, n = self.p, self.order
        factors = self._right_factors()
        pth = [-1] * n
        pth[0] = 0
        for x in range(1, n):
            if pth[x] >= 0:
                continue
            tabs = factors(x)
            # walk[i] = x^i for 0 <= i < m
            walk = [0]
            y = x
            while y:
                if len(walk) >= n:
                    raise InconsistentPresentation(
                        f"element {x} has non-p-power order (power cycle misses identity)"
                    )
                walk.append(y)
                for tab in tabs:
                    y = tab[y]
            m = len(walk)
            q = 1
            while q < m:
                q *= p
            if q != m:
                raise InconsistentPresentation(
                    f"power cycle of element {x} has length {m}, not a power of {p}"
                )
            for z, zp in zip(walk, walk[::p] * p):
                pth[z] = zp
        return pth

    def _right_factors(self) -> Callable[[int], Sequence[Sequence[int]]]:
        """x -> tables whose fold, first to last, sends each y to y x.

        A pc backend spells x by its exponent vector (``word_tables``): x's
        index is its normal word, so its tables are read off its digits.
        Any other group gives the tables of x's word in its lattice tables
        (``GroupTables.word_tables``), whose reach check raises
        InvariantViolation if the generators miss an element.  Folding
        exact right tables along any word for x sends y to y x, so this
        holds for any generator list.  Neither takes a product.
        """
        spell = getattr(self.backend, "word_tables", None)
        if spell is not None:
            return spell
        from .subgroups import _tables

        return _tables(self).word_tables

    def order_exponents(self) -> List[int]:
        """The cached list of order exponents: x has order p**order_exponents()[x].

        Callers must not mutate it.
        """
        if self._ordexp is None:
            self._ordexp = _order_exponents(self.pth_map())
        return self._ordexp

    def order_exponent(self, x: int) -> int:
        """k such that the order of x is p**k."""
        return self.order_exponents()[x]

    def element_order(self, x: int) -> int:
        return self.p ** self.order_exponent(x)

    def exponent(self) -> int:
        return self.p ** max(self.order_exponents())

    def is_abelian(self) -> bool:
        if self._abelian is None:
            mul = self.mul
            self._abelian = all(
                mul(a, b) == mul(b, a)
                for a in self.generators
                for b in self.generators
            )
        return self._abelian

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, p={self.p}, order={self.order})"


def _order_exponents(pth: List[int]) -> List[int]:
    """The order exponents read off a p-th power map, the only place they are derived.

    x has order p^k for the least k with x^(p^k) = 1, so k counts the i >= 0
    with x^(p^i) != 1.  One whole-list pass per i adds them up: log_p of the
    exponent of G passes in all.
    """
    ordexp = [1] * len(pth)
    ordexp[0] = 0
    powers = pth  # powers[x] = x^(p^i) for i = 1, 2, ...
    while any(powers):
        ordexp = list(map(add, ordexp, map(truth, powers)))
        powers = list(map(pth.__getitem__, powers))
    return ordexp


# bytes.translate maps between the digits of bin() and 0/1 membership flags
_TO_FLAGS = bytes.maketrans(b"01", b"\0\1")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def bits_iter(bits: int, ints: Sequence[int]) -> Iterator[int]:
    """Set bit positions in ascending order, in time linear in bits.bit_length().

    The positions are compressed out of ints, a group's ``elements()``, so
    each one is the group's own int object for that index, not a new one.
    """
    flags = bin(bits)[:1:-1].encode().translate(_TO_FLAGS)
    return compress(ints, flags)


def _from_flags(flags: bytearray) -> int:
    """The bitset whose members are the x with flags[x] == 1."""
    return int(flags.translate(_TO_DIGITS)[::-1], 2)


class GroupHom:
    """A homomorphism between explicit groups, stored as a total index map.

    Nothing is checked here: the only maps built are quotient projections,
    which are homomorphisms by construction (see ``subgroups._DerivedBackend``).
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping: Sequence[int]):
        self.source = source
        self.target = target
        self.mapping = list(mapping)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def image_bits(self, bits: int) -> int:
        """The bitset of the images of the members of bits, in time linear in |source|."""
        flags = bytearray(self.target.order)
        for y in map(self.mapping.__getitem__, bits_iter(bits, self.source.elements())):
            flags[y] = 1
        return _from_flags(flags)


# -- pc presentations ------------------------------------------------------


@dataclass(frozen=True)
class PcPresentation:
    """Power-conjugate presentation with all relative orders equal to p.

    ``powers[i]`` is the normal word equal to g_i^p (omitted: g_i^p = 1) and
    may only use generators > i.  ``conjugates[(j, i)]`` with j > i is the
    normal word equal to g_j^{g_i} (omitted: g_j and g_i commute) and may
    only use generators >= j.
    """

    p: int
    ngens: int
    powers: Dict[int, Word] = field(default_factory=dict)
    conjugates: Dict[Tuple[int, int], Word] = field(default_factory=dict)

    def validate(self) -> None:
        validate_odd_prime(self.p)
        if self.ngens < 1:
            raise InvalidWord(f"ngens must be >= 1, got {self.ngens}")
        for i, word in self.powers.items():
            if not 1 <= i <= self.ngens:
                raise InvalidWord(f"power relation for out-of-range generator {i}")
            self._check_word(word, min_gen=i + 1, what=f"g_{i}^p")
        for key, word in self.conjugates.items():
            j, i = key
            if not (1 <= i < j <= self.ngens):
                raise InvalidWord(f"conjugate relation key {key} must have ngens >= j > i >= 1")
            self._check_word(word, min_gen=j, what=f"g_{j}^g_{i}")

    def _check_word(self, word: Word, min_gen: int, what: str) -> None:
        prev = 0
        for gen, exp in word:
            if not min_gen <= gen <= self.ngens:
                raise InvalidWord(
                    f"{what} references g_{gen}; only g_{min_gen}..g_{self.ngens} are permitted"
                )
            if gen <= prev:
                raise InvalidWord(f"{what} is not a normal word (generator order)")
            if not 0 <= exp < self.p:
                raise InvalidWord(f"{what} has exponent {exp} outside 0..{self.p - 1}")
            prev = gen


class _PcBackend:
    """Right tables of a pc presentation, every one filled at construction.

    Elements are exponent vectors in {0..p-1}^n, encoded radix-p with g_1 as
    the most significant digit; the identity is 0 and g_i has index
    p^(n-i).  ``_tab[i][u]`` is u g_i in normal form, and ``mul`` folds the
    digits of b through the tables.  The tables are filled for any
    validated presentation, consistent or not (``_fill_tables``); whether
    their product is a group is the overlap test's question
    (``_check_pc_consistency``).
    """

    def __init__(self, pres: PcPresentation):
        self.p = pres.p
        self.n = pres.ngens
        self.order = pres.p ** pres.ngens
        self._strides = [self.p ** (self.n - i) for i in range(1, self.n + 1)]
        # _tab[i] for i = 1..n; _tab[0] is unused
        self._tab: List[List[int]] = [[] for _ in range(self.n + 1)]
        self._fill_tables(pres)

    def decode(self, x: int) -> List[int]:
        out = []
        for s in self._strides:
            d, x = divmod(x, s)
            out.append(d)
        return out

    def generator(self, i: int) -> int:
        return self._strides[i - 1]

    def right_table(self, g: int) -> List[int]:
        """The filled table u -> u g of the pc generator g."""
        return self._tab[self._strides.index(g) + 1]

    def word(self, x: int) -> str:
        """The normal word of x, e.g. ``g_1^2 g_3``; ``1`` for the identity."""
        letters = [
            f"g_{i}" if e == 1 else f"g_{i}^{e}"
            for i, e in enumerate(self.decode(x), start=1)
            if e
        ]
        return " ".join(letters) or "1"

    def word_tables(self, x: int) -> List[List[int]]:
        """The tables of x's normal word, letter by letter: their fold sends each u to u x.

        x's radix-p digits are its exponents, read as ``mul`` reads b.
        """
        tabs = self._tab
        out: List[List[int]] = []
        for j, s in enumerate(self._strides, start=1):
            if x >= s:
                d, x = divmod(x, s)
                out += [tabs[j]] * d
        return out

    def mul(self, a: int, b: int) -> int:
        """a * b, with the letters of b's normal word applied one table at a time."""
        tabs = self._tab
        for j, s in enumerate(self._strides, start=1):
            if b >= s:
                d, b = divmod(b, s)
                tab = tabs[j]
                while d:
                    a = tab[a]
                    d -= 1
        return a

    def _fill_tables(self, pres: PcPresentation) -> None:
        """Fill the table u -> u g_i of every generator, from g_n up to g_1.

        Let s = p^(n-i), so that the indices 0..s-1 are the normal words of
        G_(i+1) = <g_(i+1), ..., g_n>, and suppose the tables of g_(i+1),
        ..., g_n are done.  Write w_i for the word of g_i^p (in G_(i+1)).

        - c[t] = t^(g_i) for t in G_(i+1): c[0] = 0, and for t = t' g_j with
          g_j the last letter of t, c[t] = c[t'] (g_j^(g_i)).  The relation
          word g_j^(g_i) lies in <g_j, ..., g_n> and is applied letter by
          letter through the finished tables.
        - L[t] = w_i t: L[0] = w_i and L[t' g_j] = L[t'] g_j.
        - Write u = h + e s + t with h the head in g_1..g_(i-1), 0 <= e < p
          and t in G_(i+1), that is u = h g_i^e t.  Then
          u g_i = h g_i^(e+1) t^(g_i), whose normal word is h + (e+1) s + c[t]
          for e < p - 1 and h + L[c[t]] for e = p - 1.  The block of
          p s entries after each head is the same, offset by h.

        Every step is a rewrite by the relations: moving g_i left through t
        by the conjugate relations, replacing g_i^p by w_i, and multiplying
        in G_(i+1) through tables whose entries are themselves such
        rewrites.  So each entry is a normal word that the relations rewrite
        the word nf(u) g_i to, whether or not the presentation is
        consistent, and a product through the tables is a collection.  That
        is all the overlap test needs: the rewriting terminates, so by the
        critical-pair lemma with Newman's lemma (Sims, *Computation with
        Finitely Presented Groups*, 1994, ch. 9; Vaughan-Lee 1990) the
        presentation is consistent exactly when each overlap collects to one
        normal word both ways, for any collection that reaches normal words.
        In a consistent presentation every element has one normal word, so
        the entries are the products of the group.

        The entries h + b are new int objects, not the group's shared
        ``elements()``: filling them as lookups in that list, or gathering
        each block from a slice of it, measured slower, since the deep
        levels have thousands of blocks of p entries.
        """
        p, order, tabs, strides = self.p, self.order, self._tab, self._strides
        for i in range(self.n, 0, -1):
            s = strides[i - 1]
            c = [0] * s
            L = [0] * s
            L[0] = sum(e * strides[g - 1] for g, e in pres.powers.get(i, ()))
            for j in range(i + 1, self.n + 1):
                sj = strides[j - 1]
                word = pres.conjugates.get((j, i), ((j, 1),))
                letters = [tabs[g] for g, e in word for _ in range(e)]
                # the t ending in g_j^e are e sj + k p sj for k >= 0; t' = t - sj
                # ends in g_j^(e-1) or in an earlier letter, so c[t'] is done
                for e in range(1, p):
                    image = c[(e - 1) * sj :: p * sj]
                    for tab in letters:
                        image = list(map(tab.__getitem__, image))
                    c[e * sj :: p * sj] = image
                    L[e * sj :: p * sj] = map(tabs[j].__getitem__, L[(e - 1) * sj :: p * sj])
            block = [a + ct for a in range(s, p * s, s) for ct in c]
            block += map(L.__getitem__, c)
            tabs[i] = [h + b for h in range(0, order, p * s) for b in block]


def build_from_pc(pres: PcPresentation, label: Optional[str] = None) -> FiniteGroup:
    """Realize a pc presentation as an explicit group of order p^ngens.

    The backend fills the right table of every generator; consistency is
    then certified exactly, at every order, by the finite overlap test
    (``_check_pc_consistency``) over those tables.
    """
    pres.validate()
    order = _check_cap(pres.p, pres.ngens, "pc group")
    back = _PcBackend(pres)
    G = FiniteGroup(
        pres.p,
        order,
        back.mul,
        [back.generator(i) for i in range(1, pres.ngens + 1)],
        label=label or f"pc(p={pres.p},n={pres.ngens})",
        backend=back,
    )
    _check_pc_consistency(G, back)
    return G


def _check_pc_consistency(G: FiniteGroup, back: _PcBackend) -> None:
    """Raise InconsistentPresentation unless the presentation is consistent.

    With every relative order p, the presentation is consistent exactly when
    both collections of each overlap agree (Wamsley 1974; Vaughan-Lee 1990):
    g_k g_j g_i for k > j > i, g_j^p g_i and g_j g_i^p for j > i, and
    g_i^(p+1).  That is O(n^3) products through the backend's filled
    tables, which are a collection (see ``_PcBackend._fill_tables``).
    Overlaps are taken from g_n down, so the first failure lies in the
    largest inconsistent tail <g_i, ..., g_n>.
    """
    mul, p = G.mul, G.p
    gens = [0] + G.generators  # gens[i] is g_i
    # g_i^(p-1) is the word (p - 1) s_i, which the table of g_i sends to g_i^p,
    # the power word (L[0] of ``_fill_tables``); the levels run from g_n down,
    # so every g_j (j > i) has its powers by the time g_i needs them
    pow_p = [0] * (back.n + 1)
    pow_pm1 = [0] * (back.n + 1)

    def agree(overlap: str, left: str, lhs: int, right: str, rhs: int) -> None:
        if lhs != rhs:
            raise InconsistentPresentation(
                f"overlap {overlap} collects to {back.word(lhs)} as {left} "
                f"but to {back.word(rhs)} as {right}"
            )

    for i in range(back.n, 0, -1):
        gi, si = gens[i], f"g_{i}"
        gi_pm1 = pow_pm1[i] = (p - 1) * gi
        gi_p = pow_p[i] = back._tab[i][gi_pm1]
        agree(f"{si}^{p + 1}", f"({si}^{p}) {si}", mul(gi_p, gi), f"{si} ({si}^{p})", mul(gi, gi_p))
        for j in range(i + 1, back.n + 1):
            gj, sj = gens[j], f"g_{j}"
            gjgi = mul(gj, gi)
            agree(
                f"{sj}^{p} {si}",
                f"({sj}^{p}) {si}", mul(pow_p[j], gi),
                f"{sj}^{p - 1} ({sj} {si})", mul(pow_pm1[j], gjgi),
            )
            agree(
                f"{sj} {si}^{p}",
                f"{sj} ({si}^{p})", mul(gj, gi_p),
                f"({sj} {si}) {si}^{p - 1}", mul(gjgi, gi_pm1),
            )
            for k in range(j + 1, back.n + 1):
                gk, sk = gens[k], f"g_{k}"
                agree(
                    f"{sk} {sj} {si}",
                    f"({sk} {sj}) {si}", mul(mul(gk, gj), gi),
                    f"{sk} ({sj} {si})", mul(gk, gjgi),
                )
    # The overlap test is the certificate.  The walk below derives the p-th
    # power map, and checks once more that every element's powers x, x^2, ...
    # reach the identity at a power of p; it raises when one misses it.
    G.pth_map()


# -- direct products of cyclic groups --------------------------------------


def _stacked(ints: List[int], blocks: Iterable[Tuple[int, List[int]]]) -> List[int]:
    """The list that has ints[offset + y] for each y of each (offset, block), in turn.

    Each block's entries lie below its length, so the block is gathered from
    the slice of ints at its offset: every entry is the group's own int
    object for its index (``ints``, the backend's list), where adding the
    offset would make a new int object per entry above 256.
    """
    return list(
        chain.from_iterable(
            map(ints[offset : offset + len(block)].__getitem__, block) for offset, block in blocks
        )
    )


class _AbelianBackend:
    """Mixed-radix coordinates, componentwise modular addition.

    Digit i (least significant first) has radix r_i = p^(exps[i]) and
    stride s_i = ``strides[i]``, the index of the i-th generator.
    """

    def __init__(self, p: int, exps: Sequence[int]):
        self.p = p
        self.exps = list(exps)
        self.radices = [p**e for e in exps]
        strides = []
        s = 1
        for r in self.radices:
            strides.append(s)
            s *= r
        self.strides = strides
        self.order = s
        self.ints = list(range(s))

    def decode(self, x: int) -> List[int]:
        out = []
        for r in self.radices:
            x, d = divmod(x, r)
            out.append(d)
        return out

    def encode(self, vec: Sequence[int]) -> int:
        return sum(d % r * s for d, r, s in zip(vec, self.radices, self.strides))

    def mul(self, a: int, b: int) -> int:
        x = 0
        for r, s in zip(self.radices, self.strides):
            a2, da = divmod(a, r)
            b2, db = divmod(b, r)
            x += (da + db) % r * s
            a, b = a2, b2
        return x

    def add_table(self, h: int) -> List[int]:
        """The table x -> x h, built over the digits from the least significant up.

        With the x below stride s_i done, the x whose digit i reads u are
        u s_i plus those, and x h turns that digit to u + h_i mod r_i.
        """
        table = [0]
        for d, r, s in zip(self.decode(h), self.radices, self.strides):
            table = _stacked(self.ints, (((u + d) % r * s, table) for u in range(r)))
        return table

    right_table = add_table

    def extend(self, images: Sequence[int]) -> List[int]:
        """The table of x = sum d_i g_i -> sum d_i images[i], digits 0 <= d_i < r_i.

        Digit by digit: once the table covers the x below stride s_i, the
        x with digit i equal to d are those plus d g_i, and their images are
        the covered ones plus d images[i], a gather through the "add
        images[i]" table.  This is the homomorphism with g_i ->
        images[i] exactly when each images[i] has order dividing r_i; the
        callers make sure of that.
        """
        table = [0]
        for h, r in zip(images, self.radices):
            add = self.add_table(h).__getitem__
            layers = [table]
            for _ in range(r - 1):
                layers.append(list(map(add, layers[-1])))
            table = list(chain.from_iterable(layers))
        return table

    def power_map(self) -> List[int]:
        """x -> x^p, the endomorphism with g_i -> g_i^p."""
        return self.extend([self.p * s % (r * s) for r, s in zip(self.radices, self.strides)])

    def comm_map(self, g: int) -> List[int]:
        """x -> [x, g]: the group is abelian, so every commutator is the identity."""
        return [self.ints[0]] * self.order


def build_abelian(p: int, exps: Sequence[int], label: Optional[str] = None) -> FiniteGroup:
    """Direct product of cyclic groups of orders p^e for e in exps.

    Correct by construction: the product is componentwise addition mod p^e,
    and the right tables and the p-th power map are the same addition on
    whole digit blocks.
    """
    validate_odd_prime(p)
    exps = list(exps)
    if not exps or any(e < 1 for e in exps):
        raise ParamOutOfRange(f"exponents must be a nonempty list of integers >= 1, got {exps}")
    _check_cap(p, sum(exps), "abelian group")
    back = _AbelianBackend(p, exps)
    G = FiniteGroup(
        p,
        back.order,
        back.mul,
        list(back.strides),
        label=label or "C" + "xC".join(str(p**e) for e in exps),
        backend=back,
    )
    G._abelian = True
    return G


# -- unitriangular matrix groups -------------------------------------------


class _UnitriangularBackend:
    """Upper unitriangular n x n matrices over Z/p^m.

    The strictly-upper entries, read row by row, are the digits of the
    element index in radix p^m (first position least significant), so matrix
    coordinates are recoverable from the index in O(n^2).
    """

    def __init__(self, n: int, p: int, m: int):
        self.n = n
        self.p = p
        self.m = m
        self.q = p**m
        self.positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.order = self.q ** len(self.positions)
        self.ints = list(range(self.order))

    def matrix_of(self, x: int) -> List[List[int]]:
        n = self.n
        mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in self.positions:
            x, d = divmod(x, self.q)
            mat[i][j] = d
        return mat

    def index_of(self, mat: Sequence[Sequence[int]]) -> int:
        x = 0
        s = 1
        for i, j in self.positions:
            x += mat[i][j] % self.q * s
            s *= self.q
        return x

    def mul(self, a: int, b: int) -> int:
        A = self.matrix_of(a)
        B = self.matrix_of(b)
        n, q = self.n, self.q
        C = [[0] * n for _ in range(n)]
        for i in range(n):
            Ai = A[i]
            Ci = C[i]
            for k in range(i, n):
                aik = Ai[k]
                if aik:
                    Bk = B[k]
                    for j in range(k, n):
                        Ci[j] = (Ci[j] + aik * Bk[j]) % q
        return self.index_of(C)

    def transvection(self, i: int) -> int:
        mat = [[1 if r == c else 0 for c in range(self.n)] for r in range(self.n)]
        mat[i][i + 1] = 1
        return self.index_of(mat)

    def right_table(self, g: int) -> List[int]:
        """The table x -> x g of the listed transvection g = 1 + e_(i,i+1).

        Right multiplication by g adds column i to column i + 1 and takes no
        matrix product: for r < i the entry (r, i + 1) gains the entry
        (r, i), the entry (i, i + 1) gains 1, and no other entry moves.
        (r, i + 1) is the digit after (r, i), so the new index is a sum of
        terms that each read one digit or one such pair of digits.  The
        table is built over the digits from the least significant up: with
        the lower digits done (stride s), the x whose next digits read c
        are c s plus those, and their images are the image of c plus the
        images of those.
        """
        i = [self.transvection(j) for j in range(self.n - 1)].index(g)
        q, positions = self.q, self.positions
        table = [0]
        k = 0
        while k < len(positions):
            s = q**k
            r, c = positions[k]
            if c == i and r < i:
                # u at (r, i), v at (r, i + 1): (u, v) -> (u, v + u)
                images = [(u + (v + u) % q * q) * s for v in range(q) for u in range(q)]
                k += 2
            else:
                shift = 1 if (r, c) == (i, i + 1) else 0
                images = [(u + shift) % q * s for u in range(q)]
                k += 1
            table = _stacked(self.ints, ((image, table) for image in images))
        return table


def build_unitriangular(n: int, p: int, m: int, label: Optional[str] = None) -> FiniteGroup:
    """Upper unitriangular n x n matrices over Z/p^m, order p^(m n(n-1)/2).

    Correct by construction: the product is the matrix product mod p^m.  The
    listed generators are the superdiagonal transvections; ``GroupTables``
    certifies that they reach every element before a lattice or walk reads G.
    """
    validate_odd_prime(p)
    if n < 2:
        raise ParamOutOfRange(f"matrix dimension must be >= 2, got {n}")
    if m < 1:
        raise ParamOutOfRange(f"modulus exponent must be >= 1, got {m}")
    _check_cap(p, m * n * (n - 1) // 2, f"UT_{n}(Z/{p}^{m})")
    back = _UnitriangularBackend(n, p, m)
    gens = [back.transvection(i) for i in range(n - 1)]
    return FiniteGroup(
        p, back.order, back.mul, gens, label=label or f"UT{n}(Z/{p**m})", backend=back
    )


# -- semidirect products C_{p^t} acting on an abelian group ----------------


class _SemidirectBackend:
    """Pairs (a, m) = alpha^a m with (a1,m1)(a2,m2) = (a1+a2, alpha^a2(m1) m2).

    ``alpha`` is the conjugation action m |-> m^alpha, stored as full element
    maps for every power of the generator.  M comes from ``build_abelian``,
    so its backend gives the tables of M that the right tables, the p-th
    power map and the commutator maps are assembled from, block a of |M|
    entries at a time.

    The commutator maps have a closed form.  Write M additively, so the
    product reads (a1, m1)(a2, m2) = (a1 + a2, alpha^a2(m1) + m2).  Then
    (c, n)(0, n' - n) = (c, n'), so (c, n)^-1 (c, n') = (0, n' - n).  For
    x = (a, m) and g = (b, h), x g = (a + b, alpha^b(m) + h) and g x =
    (a + b, alpha^a(h) + m), and [x, g] = (g x)^-1 (x g) is

        [(a, m), (b, h)] = (0, (alpha^b - 1)(m) + h - alpha^a(h)).

    alpha^b - 1 is an endomorphism of the abelian M (``comm_map``).
    """

    def __init__(self, M: FiniteGroup, pow_maps: List[List[int]], t: int):
        self.M = M
        self.pow_maps = pow_maps
        self.t = t
        self.amod = M.p**t
        self.order = M.order * self.amod
        self.ints = list(range(self.order))

    def decode(self, x: int) -> Tuple[int, int]:
        return divmod(x, self.M.order)

    def encode(self, a: int, m: int) -> int:
        return a * self.M.order + m

    def mul(self, x: int, y: int) -> int:
        a1, m1 = divmod(x, self.M.order)
        a2, m2 = divmod(y, self.M.order)
        return ((a1 + a2) % self.amod) * self.M.order + self.M.mul(
            self.pow_maps[a2][m1], m2
        )

    def right_table(self, g: int) -> List[int]:
        """The table x -> x g: (a, m)(b, h) = (a + b, alpha^b(m) h).

        Every block a is the same map of M, m -> alpha^b(m) h, moved to block
        a + b.  For g = alpha that map is alpha itself; for g in M it is M's
        table of h.
        """
        b, h = self.decode(g)
        inner = list(map(self.M.backend.add_table(h).__getitem__, self.pow_maps[b]))
        size, amod = self.M.order, self.amod
        return _stacked(self.ints, (((a + b) % amod * size, inner) for a in range(amod)))

    def power_map(self) -> List[int]:
        """x -> x^p: (a, m)^p = (p a, N_a(m)) with N_a = alpha^((p-1)a) ... alpha^a 1.

        M is abelian, so N_a, a sum of automorphisms, is an endomorphism of
        M, and M's backend extends it from the images of M's generators.
        """
        M, amod, p = self.M, self.amod, self.M.p
        back = M.backend
        blocks = []
        for a in range(amod):
            maps = [self.pow_maps[k * a % amod] for k in range(p)]
            images = [reduce(back.mul, [f[g] for f in maps]) for g in M.generators]
            blocks.append((p * a % amod * M.order, back.extend(images)))
        return _stacked(self.ints, blocks)

    def comm_map(self, g: int) -> List[int]:
        """x -> [x, g] in closed form (class docstring), every value in block 0.

        With g = (b, h), block a is m -> E(m) + c_a, E = alpha^b - 1 extended
        from its images of M's generators and c_a = h - alpha^a(h): the
        constant c_a when b = 0 (E = 0 is not built), E itself when c_a = 0
        (as for every a when h = 0), and otherwise E gathered through M's
        table of c_a.
        """
        b, h = self.decode(g)
        M, back = self.M, self.M.backend

        def minus(u: int, v: int) -> int:
            return back.encode([du - dv for du, dv in zip(back.decode(u), back.decode(v))])

        E = back.extend([minus(self.pow_maps[b][y], y) for y in M.generators]) if b else None
        blocks = []
        for alpha_a in self.pow_maps:
            c = minus(h, alpha_a[h])
            if E is None:
                block = [c] * M.order
            elif not c:
                block = E
            else:
                block = list(map(back.add_table(c).__getitem__, E))
            blocks.append((0, block))
        return _stacked(self.ints, blocks)


def extend_to_automorphism(M: FiniteGroup, images: Sequence[int]) -> List[int]:
    """Extend generator images to a full automorphism map of M from ``build_abelian``.

    M is the direct sum of the cyclic groups of its generators g_i, of
    orders r_i, so the images define a homomorphism exactly when each
    images[i] has order dividing r_i; it is then extended digit by digit
    (``_AbelianBackend.extend``), with no product.  Raises NotAutomorphism
    when the images do not define an automorphism.
    """
    back = M.backend
    if len(images) != len(M.generators):
        raise NotAutomorphism(
            f"expected {len(M.generators)} generator images, got {len(images)}"
        )
    for g, fg, r in zip(M.generators, images, back.radices):
        if back.encode([r * d for d in back.decode(fg)]):
            raise NotAutomorphism(
                f"images do not define a homomorphism: generator {g} has order {r}, "
                f"but its image {fg} does not have order dividing {r}"
            )
    amap = back.extend(images)
    if len(set(amap)) != M.order:
        raise NotAutomorphism("extended map is not bijective")
    return amap


def build_semidirect(
    M: FiniteGroup,
    alpha_images: Sequence[int],
    t: int,
    label: Optional[str] = None,
) -> FiniteGroup:
    """Cyclic extension <alpha> x| M with |alpha| = p^t acting by alpha_images.

    M must come from ``build_abelian``: its coordinates give alpha, the
    right tables and the p-th power map digit by digit, with no product.
    ``alpha_images`` lists m^alpha for each distinguished generator m of M;
    the action of alpha^{p^t} must be the identity.  The product is
    associative because both exact checks below hold: alpha is an
    automorphism of M (``extend_to_automorphism``) and alpha^(p^t) = id.
    """
    if not M.is_abelian():
        raise NotAbelian(f"{M.label} is not abelian")
    if not isinstance(M.backend, _AbelianBackend):
        raise ParamOutOfRange(
            f"the base of a semidirect product must come from build_abelian, not {M.label}"
        )
    if t < 1:
        raise ParamOutOfRange(f"t must be >= 1, got {t}")
    _check_cap(M.p, log_p(M.p, M.order) + t, "semidirect product")
    amap = extend_to_automorphism(M, alpha_images)
    amod = M.p**t
    pow_maps = [M.elements(), amap]
    for _ in range(2, amod):
        pow_maps.append(list(map(amap.__getitem__, pow_maps[-1])))
    if list(map(amap.__getitem__, pow_maps[-1])) != pow_maps[0]:
        raise OrderMismatch(f"alpha^(p^{t}) is not the identity automorphism")
    back = _SemidirectBackend(M, pow_maps, t)
    gens = [back.encode(1, 0)] + [back.encode(0, g) for g in M.generators]
    G = FiniteGroup(
        M.p, back.order, back.mul, gens,
        label=label or f"C{amod}:|{M.label}", backend=back,
    )
    return G
