"""Exact finite p-group kernel.

Groups live on the dense element domain 0..order-1 with the identity at
index 0.  Multiplication is an exact integer function supplied by a
construction-specific backend (collection for pc presentations, matrix
arithmetic for unitriangular groups, coordinate arithmetic for abelian and
semidirect products, coset arithmetic for quotients).  Groups are immutable
after construction; per-group caches are filled lazily and idempotently.

Only odd primes are supported; every constructor rejects p = 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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

# Hard cap on the element domain of any single group (covers 3^7 and 5^7).
ELEMENT_CAP = 250_000

# A word maps to g_{i1}^{e1} g_{i2}^{e2} ...; generator indices are 1-based
# and strictly increasing, exponents in 1..p-1.
Word = Tuple[Tuple[int, int], ...]


def validate_odd_prime(p: int) -> int:
    """Return p if it is an odd prime, else raise NotOddPrime."""
    if not isinstance(p, int) or p < 3:
        raise NotOddPrime(f"p must be an odd prime >= 3, got {p!r}")
    if p % 2 == 0:
        raise NotOddPrime(f"p = 2 is not supported (got {p})")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise NotOddPrime(f"{p} is not prime")
        d += 2
    return p


def _check_cap(order: int, what: str) -> int:
    if order > ELEMENT_CAP:
        raise SizeLimitExceeded(
            f"{what} would have order {order} > element cap {ELEMENT_CAP}"
        )
    return order


class FiniteGroup:
    """An explicit finite p-group with elements 0..order-1, identity 0.

    ``mul`` is the total multiplication; ``generators`` is a distinguished
    generating list (element indices).  ``backend`` keeps the
    construction-specific data (e.g. matrix coordinates) reachable.
    """

    def __init__(
        self,
        p: int,
        order: int,
        mul: Callable[[int, int], int],
        generators: Sequence[int],
        label: str = "group",
        backend: object = None,
        inv: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.p = p
        self.order = order
        self.identity = 0
        self.mul = mul
        self.generators = list(generators)
        self.label = label
        self.backend = backend
        self._inv_fn = inv
        self._inv: Dict[int, int] = {}
        self._pth: Optional[List[int]] = None
        self._ordexp: Optional[List[int]] = None
        self._abelian: Optional[bool] = None
        self.cache: Dict[str, object] = {}

    # -- element arithmetic ------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def pow(self, x: int, e: int) -> int:
        """x**e by square-and-multiply (e >= 0)."""
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
        """x^-1, memoized per element: the backend's inverse, else x^(|G|-1)."""
        hit = self._inv.get(x)
        if hit is None:
            hit = self._inv_fn(x) if self._inv_fn is not None else self.pow(x, self.order - 1)
            self._inv[x] = hit
        return hit

    def conj(self, x: int, g: int) -> int:
        """g^-1 x g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def comm(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        return self.mul(self.inv(self.mul(y, x)), self.mul(x, y))

    def pth_map(self) -> List[int]:
        """The cached p-th power map: pth_map()[x] == x**p.  Callers must not mutate it."""
        if self._pth is None:
            self._build_power_tables()
        return self._pth

    def pth_power(self, x: int) -> int:
        return self.pth_map()[x]

    def _build_power_tables(self) -> None:
        """The p-th power map and the order exponents, from one walk per cyclic subgroup.

        From each x no earlier walk reached, walk x, x^2, ..., x^m = 1.  With
        m = p^k, x^i has p-th power x^(ip mod m) and order exponent
        k - v_p(i).  The walk takes m - 1 products and reaches every
        generator of <x>, none of which an earlier walk reached (it would
        have reached x too): at least phi(m) = m (p - 1) / p new elements.
        So the whole map takes fewer than p (|G| - 1) / (p - 1) products.
        A walk that passes |G| steps without the identity, or ends at an
        order that is not a power of p, raises InconsistentPresentation.
        """
        mul, p, n = self.mul, self.p, self.order
        pth = [0] * n
        ordexp = [-1] * n
        ordexp[0] = 0
        for x in range(1, n):
            if ordexp[x] >= 0:
                continue
            # walk[i] = x^i for 0 <= i < m
            walk = [0, x]
            y = mul(x, x)
            while y:
                if len(walk) >= n:
                    raise InconsistentPresentation(
                        f"element {x} has non-p-power order (power cycle misses identity)"
                    )
                walk.append(y)
                y = mul(y, x)
            m = len(walk)
            k, q = 0, 1
            while q < m:
                q *= p
                k += 1
            if q != m:
                raise InconsistentPresentation(
                    f"power cycle of element {x} has length {m}, not a power of {p}"
                )
            for z, zp in zip(walk, walk[::p] * p):
                pth[z] = zp
            step = 1
            while step < m:
                for z in walk[step::step]:
                    ordexp[z] = k
                step *= p
                k -= 1
        self._pth = pth
        self._ordexp = ordexp

    def order_exponent(self, x: int) -> int:
        """k such that the order of x is p**k."""
        if self._ordexp is None:
            self._build_power_tables()
        return self._ordexp[x]

    def element_order(self, x: int) -> int:
        return self.p ** self.order_exponent(x)

    def exponent(self) -> int:
        if self._ordexp is None:
            self._build_power_tables()
        return self.p ** max(self._ordexp)

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

def generated_elements(G: FiniteGroup, gens: Sequence[int], limit: Optional[int] = None) -> set:
    """Orbit closure of the identity under right multiplication by gens."""
    seen = {0}
    frontier = [0]
    mul = G.mul
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if limit is not None and len(seen) > limit:
                        return seen
        frontier = new
    return seen


class GroupHom:
    """A homomorphism between explicit groups, stored as a total index map.

    Nothing is checked here: the only maps built are quotient projections,
    which are homomorphisms by construction (see ``subgroups.quotient``).
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping: Sequence[int]):
        self.source = source
        self.target = target
        self.mapping = list(mapping)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def image_bits(self, bits: int) -> int:
        out = 0
        mg = self.mapping
        while bits:
            low = bits & -bits
            out |= 1 << mg[low.bit_length() - 1]
            bits ^= low
        return out


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
    """Collection from the left on normal words for a pc presentation.

    Elements are exponent vectors in {0..p-1}^n, encoded radix-p with g_1 as
    the most significant digit; the identity is 0 and g_i has index
    p^(n-i).  ``mul_gen`` (u * g_i in normal form) is memoized, so repeated
    multiplications amortize to dictionary lookups.
    """

    def __init__(self, pres: PcPresentation):
        self.pres = pres
        self.p = pres.p
        self.n = pres.ngens
        self.order = pres.p ** pres.ngens
        # Conjugate/power words normalized to tuples, with identity defaults.
        self._powers = {i: tuple(w) for i, w in pres.powers.items()}
        self._conj = {k: tuple(w) for k, w in pres.conjugates.items()}
        self._strides = [self.p ** (self.n - i) for i in range(1, self.n + 1)]
        self._memo: Dict[int, int] = {}

    def decode(self, x: int) -> List[int]:
        out = []
        for s in self._strides:
            d, x = divmod(x, s)
            out.append(d)
        return out

    def encode(self, vec: Sequence[int]) -> int:
        x = 0
        for d, s in zip(vec, self._strides):
            x += d * s
        return x

    def generator(self, i: int) -> int:
        return self._strides[i - 1]

    def word(self, x: int) -> str:
        """The normal word of x, e.g. ``g_1^2 g_3``; ``1`` for the identity."""
        letters = [
            f"g_{i}" if e == 1 else f"g_{i}^{e}"
            for i, e in enumerate(self.decode(x), start=1)
            if e
        ]
        return " ".join(letters) or "1"

    def mul_gen(self, u: int, i: int) -> int:
        """Normal form of u * g_i."""
        key = u * (self.n + 1) + i
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        e = self.decode(u)
        pending: List[Tuple[int, int]] = []
        head = e[:]
        for j in range(i, self.n):
            head[j] = 0
        head[i - 1] = e[i - 1] + 1
        if head[i - 1] == self.p:
            head[i - 1] = 0
            pending.extend(self._powers.get(i, ()))
        for j in range(i + 1, self.n + 1):
            ej = e[j - 1]
            if ej:
                # (g_j^{e_j})^{g_i} = (g_j^{g_i})^{e_j}
                w = self._conj.get((j, i), ((j, 1),))
                pending.extend(w * ej)
        result = self.encode(head)
        for gen, exp in pending:
            for _ in range(exp):
                result = self.mul_gen(result, gen)
        self._memo[key] = result
        return result

    def mul(self, a: int, b: int) -> int:
        result = a
        for j, s in enumerate(self._strides, start=1):
            d = (b // s) % self.p
            for _ in range(d):
                result = self.mul_gen(result, j)
        return result


def build_from_pc(pres: PcPresentation, label: Optional[str] = None) -> FiniteGroup:
    """Realize a pc presentation as an explicit group of order p^ngens.

    Consistency is certified exactly, at every order, by the finite overlap
    test (``_check_pc_consistency``), together with the check that every
    element has p-power order reaching the identity.
    """
    pres.validate()
    order = _check_cap(pres.p ** pres.ngens, "pc group")
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
    g_i^(p+1).  That is O(n^3) collections.  Overlaps are taken from g_n
    down, so the first failure lies in the largest inconsistent tail
    <g_i, ..., g_n>.
    """
    mul, pw, p = G.mul, G.pow, G.p
    gens = [0] + G.generators  # gens[i] is g_i

    def agree(overlap: str, left: str, lhs: int, right: str, rhs: int) -> None:
        if lhs != rhs:
            raise InconsistentPresentation(
                f"overlap {overlap} collects to {back.word(lhs)} as {left} "
                f"but to {back.word(rhs)} as {right}"
            )

    for i in range(back.n, 0, -1):
        gi, si = gens[i], f"g_{i}"
        gi_p = pw(gi, p)
        agree(f"{si}^{p + 1}", f"({si}^{p}) {si}", mul(gi_p, gi), f"{si} ({si}^{p})", mul(gi, gi_p))
        for j in range(i + 1, back.n + 1):
            gj, sj = gens[j], f"g_{j}"
            gjgi = mul(gj, gi)
            agree(
                f"{sj}^{p} {si}",
                f"({sj}^{p}) {si}", mul(pw(gj, p), gi),
                f"{sj}^{p - 1} ({sj} {si})", mul(pw(gj, p - 1), gjgi),
            )
            agree(
                f"{sj} {si}^{p}",
                f"{sj} ({si}^{p})", mul(gj, gi_p),
                f"({sj} {si}) {si}^{p - 1}", mul(gjgi, pw(gi, p - 1)),
            )
            for k in range(j + 1, back.n + 1):
                gk, sk = gens[k], f"g_{k}"
                agree(
                    f"{sk} {sj} {si}",
                    f"({sk} {sj}) {si}", mul(mul(gk, gj), gi),
                    f"{sk} ({sj} {si})", mul(gk, gjgi),
                )
    # Order check: every element's powers x, x^2, ... must reach the identity
    # at a power of p, which also certifies invertibility (hence |G| = p^n
    # distinct elements).  The cyclic walks of the power tables raise when one
    # misses it.
    G.pth_map()


# -- direct products of cyclic groups --------------------------------------


class _AbelianBackend:
    """Mixed-radix coordinates, componentwise modular addition."""

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

    def inv(self, a: int) -> int:
        x = 0
        for r, s in zip(self.radices, self.strides):
            a, d = divmod(a, r)
            x += (-d) % r * s
        return x


def build_abelian(p: int, exps: Sequence[int], label: Optional[str] = None) -> FiniteGroup:
    """Direct product of cyclic groups of orders p^e for e in exps.

    Correct by construction: the product is componentwise addition mod p^e.
    """
    validate_odd_prime(p)
    exps = list(exps)
    if not exps or any(e < 1 for e in exps):
        raise ParamOutOfRange(f"exponents must be a nonempty list of integers >= 1, got {exps}")
    back = _AbelianBackend(p, exps)
    _check_cap(back.order, "abelian group")
    G = FiniteGroup(
        p,
        back.order,
        back.mul,
        list(back.strides),
        label=label or "C" + "xC".join(str(p**e) for e in exps),
        backend=back,
        inv=back.inv,
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


def build_unitriangular(n: int, p: int, m: int, label: Optional[str] = None) -> FiniteGroup:
    """Upper unitriangular n x n matrices over Z/p^m, order p^(m n(n-1)/2).

    Correct by construction: the product is the matrix product mod p^m.
    """
    validate_odd_prime(p)
    if n < 2:
        raise ParamOutOfRange(f"matrix dimension must be >= 2, got {n}")
    if m < 1:
        raise ParamOutOfRange(f"modulus exponent must be >= 1, got {m}")
    back = _UnitriangularBackend(n, p, m)
    _check_cap(back.order, f"UT_{n}(Z/{p}^{m})")
    gens = [back.transvection(i) for i in range(n - 1)]
    G = FiniteGroup(
        p, back.order, back.mul, gens, label=label or f"UT{n}(Z/{p**m})", backend=back
    )
    if back.order <= 32768:
        # Superdiagonal transvections must generate the whole group.
        if len(generated_elements(G, gens)) != back.order:
            raise OrderMismatch("transvections do not generate the unitriangular group")
    return G


# -- semidirect products C_{p^t} acting on an abelian group ----------------


class _SemidirectBackend:
    """Pairs (a, m) = alpha^a m with (a1,m1)(a2,m2) = (a1+a2, alpha^a2(m1) m2).

    ``alpha`` is the conjugation action m |-> m^alpha, stored as full element
    maps for every power of the generator.
    """

    def __init__(self, M: FiniteGroup, pow_maps: List[List[int]], t: int):
        self.M = M
        self.pow_maps = pow_maps
        self.t = t
        self.amod = M.p**t
        self.order = M.order * self.amod

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


def extend_to_automorphism(M: FiniteGroup, images: Sequence[int]) -> List[int]:
    """Extend generator images to a full automorphism map of abelian M.

    Raises NotAutomorphism when the images do not define one.
    """
    if len(images) != len(M.generators):
        raise NotAutomorphism(
            f"expected {len(M.generators)} generator images, got {len(images)}"
        )
    amap = [-1] * M.order
    amap[0] = 0
    frontier = [0]
    gens = M.generators
    mul = M.mul
    while frontier:
        new = []
        for x in frontier:
            fx = amap[x]
            for g, fg in zip(gens, images):
                y = mul(x, g)
                if amap[y] < 0:
                    amap[y] = mul(fx, fg)
                    new.append(y)
        frontier = new
    if min(amap) < 0:
        raise NotAutomorphism("generators do not generate M")
    # Homomorphism on every (x, generator) pair extends inductively to all words.
    for x in M.elements():
        fx = amap[x]
        for g, fg in zip(gens, images):
            if amap[mul(x, g)] != mul(fx, fg):
                raise NotAutomorphism(f"images do not define a homomorphism at ({x}, {g})")
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

    ``alpha_images`` lists m^alpha for each distinguished generator m of M;
    the action of alpha^{p^t} must be the identity.  The product is
    associative because both exact checks below hold: alpha is an
    automorphism of M (``extend_to_automorphism``) and alpha^(p^t) = id.
    """
    if not M.is_abelian():
        raise NotAbelian(f"{M.label} is not abelian")
    if t < 1:
        raise ParamOutOfRange(f"t must be >= 1, got {t}")
    amap = extend_to_automorphism(M, alpha_images)
    amod = M.p**t
    _check_cap(M.order * amod, "semidirect product")
    pow_maps = [list(range(M.order)), amap]
    for _ in range(2, amod):
        prev = pow_maps[-1]
        pow_maps.append([amap[x] for x in prev])
    full = [amap[x] for x in pow_maps[-1]] if amod > 1 else amap
    if full != pow_maps[0]:
        raise OrderMismatch(f"alpha^(p^{t}) is not the identity automorphism")
    back = _SemidirectBackend(M, pow_maps, t)
    gens = [back.encode(1, 0)] + [back.encode(0, g) for g in M.generators]
    G = FiniteGroup(
        M.p, back.order, back.mul, gens,
        label=label or f"C{amod}:|{M.label}", backend=back,
    )
    return G

