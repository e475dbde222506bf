"""Powerfully embedded subgroups, the upper eta-series, powerful class and
height, and the coclass-side predicates built on them.

For an odd prime p, a normal subgroup N of a finite p-group G is powerfully
embedded when [N, G] <= N^p.  The largest such subgroup eta(G) exists (it is
the product of all of them, and that product is again powerfully embedded);
iterating eta on quotients yields the upper eta-series, whose length is the
powerful class of G.

No quotient group is built here.  For normal N <= M of G, M/N is powerfully
embedded in G/N exactly when [M, G] <= M^p N, and M^p N, a product of two
normal subgroups, is again a member of G's normal lattice.  So eta of every
quotient G/N (pulled back to G), the upper eta-series, powerful height and
the eta-series test are all filters over G's one cached lattice, with [M, G]
and M^p cached per member.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import InvariantViolation, NoValidS, NotNormal
from .groups import FiniteGroup
from .subgroups import (
    NORMAL_SUBGROUP_BUDGET,
    Subgroup,
    SubgroupSeries,
    center_over,
    coclass,
    commutator_subgroup,
    enumerate_normal_subgroups,
    lower_central_term,
    nilpotency_class,
    power_subgroup,
    trivial_subgroup,
    whole_subgroup,
)

def commutator_with_group(G: FiniteGroup, N: Subgroup) -> Subgroup:
    """[N, G], memoized per subgroup."""
    key = ("ngcomm", N.bits)
    hit = G.cache.get(key)
    if hit is None:
        hit = commutator_subgroup(G, N, whole_subgroup(G))
        G.cache[key] = hit
    return hit


def is_powerfully_embedded(G: FiniteGroup, N: Subgroup) -> bool:
    """[N, G] <= N^p (N must be normal)."""
    if not N.is_normal():
        raise NotNormal(f"powerfully-embedded test needs a normal subgroup in {G.label}")
    key = ("pwe", N.bits)
    hit = G.cache.get(key)
    if hit is None:
        pw = power_subgroup(G, N, 1).bits
        cm = commutator_with_group(G, N).bits
        hit = cm | pw == pw
        G.cache[key] = hit
    return hit


def is_powerful(G: FiniteGroup) -> bool:
    return is_powerfully_embedded(G, whole_subgroup(G))


def _normal_hull(G: FiniteGroup, bits: int, order: int, budget: int) -> Subgroup:
    """The smallest normal subgroup of G that contains the element set bits.

    The lattice is sorted by order, so this is its first member containing
    bits; ``order`` is a lower bound on the answer's order that skips the
    smaller members.
    """
    normals = enumerate_normal_subgroups(G, budget)
    start = bisect_left(normals, order, key=lambda H: H.order)
    for H in normals[start:]:
        if bits | H.bits == H.bits:
            return H
    raise InvariantViolation(f"no normal subgroup of {G.label} contains the given set")


def _pe_over(G: FiniteGroup, M: Subgroup, N: Subgroup, budget: int) -> bool:
    """M/N is powerfully embedded in G/N, i.e. [M, G] <= M^p N (N <= M normal)."""
    if N.is_trivial():
        return is_powerfully_embedded(G, M)
    mp = power_subgroup(G, M, 1)
    # M^p N is the normal subgroup of order |M^p| |N| / |M^p n N|
    order = mp.order * N.order // (mp.bits & N.bits).bit_count()
    mpn = _normal_hull(G, mp.bits | N.bits, order, budget).bits
    return commutator_with_group(G, M).bits | mpn == mpn


def powerfully_embedded_over(
    G: FiniteGroup, N: Subgroup, budget: int = NORMAL_SUBGROUP_BUDGET
) -> List[Subgroup]:
    """Every normal M >= N with M/N powerfully embedded in G/N, smallest first."""
    key = ("pwe_over", N.bits)
    hit = G.cache.get(key)
    if hit is None:
        hit = [
            M
            for M in enumerate_normal_subgroups(G, budget)
            if N.bits | M.bits == M.bits and _pe_over(G, M, N, budget)
        ]
        G.cache[key] = hit
    return hit


def powerfully_embedded_normals(
    G: FiniteGroup, budget: int = NORMAL_SUBGROUP_BUDGET
) -> List[Subgroup]:
    """All powerfully embedded (normal) subgroups, smallest first."""
    return powerfully_embedded_over(G, trivial_subgroup(G), budget)


def _join(G: FiniteGroup, subs: Sequence[Subgroup], budget: int) -> Subgroup:
    """The normal subgroup generated by the normal subgroups subs."""
    bits = 1
    for M in subs:
        bits |= M.bits
    return _normal_hull(G, bits, bits.bit_count(), budget)


def _eta_over(G: FiniteGroup, N: Subgroup, budget: int) -> Subgroup:
    """The preimage of eta(G/N) in G, for a normal subgroup N.

    The join of every M >= N with M/N powerfully embedded in G/N; the join is
    then itself certified as powerfully embedded over N and as containing
    the preimage of Z(G/N).
    """
    key = ("eta_over", N.bits)
    hit = G.cache.get(key)
    if hit is None:
        e = _join(G, powerfully_embedded_over(G, N, budget), budget)
        where = f"{G.label} over its normal subgroup of order {N.order}"
        if not _pe_over(G, e, N, budget):
            raise InvariantViolation(f"the join for eta of {where} is not powerfully embedded")
        if not center_over(G, N) <= e:
            raise InvariantViolation(f"eta of {where} does not contain the center")
        G.cache[key] = hit = e
    return hit


def eta(G: FiniteGroup, budget: int = NORMAL_SUBGROUP_BUDGET) -> Subgroup:
    """The largest powerfully embedded subgroup of G (the join of all of them).

    The join is certified as powerfully embedded and as containing Z(G).
    """
    return _eta_over(G, trivial_subgroup(G), budget)


@dataclass
class EtaStep:
    """Witness for one step of the upper eta-series."""

    quotient_order: int
    eta_of_quotient_order: int


@dataclass
class EtaReport:
    """The upper eta-series of a group together with its step witnesses."""

    series: SubgroupSeries
    powerful_class: int
    steps: List[EtaStep]


def upper_eta_series(G: FiniteGroup, budget: int = NORMAL_SUBGROUP_BUDGET) -> EtaReport:
    """eta_0 = 1, eta_{i+1}/eta_i = eta(G/eta_i), up to eta_k = G."""
    hit = G.cache.get("eta_report")
    if hit is None:
        terms = [trivial_subgroup(G)]
        steps: List[EtaStep] = []
        while not terms[-1].is_whole():
            N = terms[-1]
            e = _eta_over(G, N, budget)
            if e.bits == N.bits:
                raise InvariantViolation(
                    f"eta of the nontrivial quotient of {G.label} by a normal "
                    f"subgroup of order {N.order} is trivial"
                )
            steps.append(EtaStep(G.order // N.order, e.order // N.order))
            terms.append(e)
        series = SubgroupSeries("eta", "ascending", terms)
        hit = EtaReport(series, len(terms) - 1, steps)
        G.cache["eta_report"] = hit
    return hit


def powerful_class(G: FiniteGroup, budget: int = NORMAL_SUBGROUP_BUDGET) -> int:
    return upper_eta_series(G, budget).powerful_class


def is_eta_series(G: FiniteGroup, terms: Sequence[Subgroup]) -> bool:
    """True iff every step quotient N_{i+1}/N_i is powerfully embedded in G/N_i.

    The series must ascend from the trivial subgroup (ValueError otherwise);
    terms that fail to be normal make the answer False.
    """
    if not terms or not terms[0].is_trivial():
        raise ValueError("an eta-series must start at the trivial subgroup")
    if not all(a <= b for a, b in zip(terms, terms[1:])):
        raise ValueError("an eta-series must be ascending")
    if not all(t.is_normal() for t in terms):
        return False
    return all(
        _pe_over(G, hi, lo, NORMAL_SUBGROUP_BUDGET) for lo, hi in zip(terms, terms[1:])
    )


def powerful_height(
    G: FiniteGroup, N: Subgroup, budget: int = NORMAL_SUBGROUP_BUDGET
) -> int:
    """Length of the shortest eta-series from 1 to the normal subgroup N.

    Greedily, K_0 = 1 and K_{i+1} is the join of every normal M <= N of G
    with M/K_i powerfully embedded in G/K_i, i.e. [M, G] <= M^p K_i, read off
    G's normal lattice.  Each join is certified powerfully embedded over
    K_i, so (K_i) is an eta-series of N.  It is a shortest one: let (N_i) be
    any eta-series of N and assume N_i <= K_i.  Then M = N_{i+1} K_i
    satisfies K_i <= M <= N and [M, G] = [N_{i+1}, G][K_i, G] <= M^p K_i, so
    M is one of the subgroups joined into K_{i+1}, and N_{i+1} <= K_{i+1}.
    """
    if not N.is_normal():
        raise NotNormal("powerful height is defined for normal subgroups")
    steps = 0
    K = trivial_subgroup(G)
    while K.bits != N.bits:
        nxt = _join(G, [M for M in powerfully_embedded_over(G, K, budget) if M <= N], budget)
        if nxt.bits == K.bits:
            raise InvariantViolation(
                f"no powerfully embedded step below N over order {K.order} in {G.label}; "
                "every finite p-group must admit one"
            )
        if not _pe_over(G, nxt, K, budget):
            raise InvariantViolation(
                f"the join for a powerful-height step of {G.label} over its normal "
                f"subgroup of order {K.order} is not powerfully embedded"
            )
        K = nxt
        steps += 1
    return steps


def eta_capability_obstruction(G: FiniteGroup) -> Optional[str]:
    """A reason G cannot be Q/eta(Q) for any finite p-group Q, if one is known.

    Only the necessary conditions are tested: a nontrivial cyclic group never
    occurs, and an abelian one must be elementary abelian.  None means no
    obstruction was found, not that G is eta-capable.
    """
    if G.order == 1:
        return None
    if G.exponent() == G.order:
        return "nontrivial-cyclic"
    if G.is_abelian() and G.exponent() > G.p:
        return "abelian-not-elementary-abelian"
    return None


# -- coclass side ------------------------------------------------------------


@dataclass
class UniserialReport:
    """Uniserial action of G on gamma_m(G) and the power-shift identity.

    Populated only above the order threshold p^(2 p^r + r) for coclass r;
    ``shift_s`` is the found 0 <= s <= r-1 with gamma_i^p = gamma_{i+d} for
    all i >= m, where d = (p-1) p^s and m = p^r - p^(r-1).
    """

    applicable: bool
    coclass_r: int
    m: int
    shift_s: Optional[int] = None
    d: Optional[int] = None
    uniserial: Optional[bool] = None
    power_shift_checks: Tuple[Tuple[int, bool], ...] = ()


def uniserial_report(
    G: FiniteGroup, budget: int = NORMAL_SUBGROUP_BUDGET
) -> UniserialReport:
    """Verify uniserial action on gamma_m(G) for large groups of coclass r."""
    p = G.p
    r = coclass(G)
    if r == 0:  # only the trivial group; p^(r-1) would not be an integer
        return UniserialReport(applicable=False, coclass_r=0, m=0)
    m = p**r - p ** (r - 1)
    if G.order < p ** (2 * p**r + r):
        return UniserialReport(applicable=False, coclass_r=r, m=m)
    c = nilpotency_class(G)
    found = None
    checks: List[Tuple[int, bool]] = []
    for s in range(r):
        d = (p - 1) * p**s
        checks = []
        ok = True
        for i in range(m, c + 2):
            lhs = power_subgroup(G, lower_central_term(G, i), 1)
            rhs = lower_central_term(G, i + d)
            good = lhs.bits == rhs.bits
            checks.append((i, good))
            ok = ok and good
        if ok:
            found = s
            break
    if found is None:
        raise NoValidS(
            f"no shift 0 <= s <= {r - 1} satisfies gamma_i^p = gamma_(i+d) in {G.label}"
        )
    d = (p - 1) * p**found
    gm = lower_central_term(G, m)
    uniserial = True
    for H in enumerate_normal_subgroups(G, budget):
        if H.is_trivial() or H.bits | gm.bits != gm.bits:
            continue
        hg = commutator_with_group(G, H)
        if H.order != p * hg.order:
            uniserial = False
            break
    return UniserialReport(
        applicable=True,
        coclass_r=r,
        m=m,
        shift_s=found,
        d=d,
        uniserial=uniserial,
        power_shift_checks=tuple(checks),
    )


def pwccoclass_bound_check(G: FiniteGroup, budget: int = NORMAL_SUBGROUP_BUDGET) -> bool:
    """|G| <= p^(k+r+m-1) whenever |G| reaches the uniseriality threshold.

    k is the powerful class, r the coclass, m = p^r - p^(r-1); groups below
    the threshold p^(2 p^r + r) pass vacuously.
    """
    p = G.p
    r = coclass(G)
    if G.order < p ** (2 * p**r + r):
        return True
    k = powerful_class(G, budget)
    m = p**r - p ** (r - 1)
    return G.order <= p ** (k + r + m - 1)
