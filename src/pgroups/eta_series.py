"""Powerfully embedded subgroups, the upper eta-series, powerful class and
height, and the coclass-side predicates built on them.

For an odd prime p, a normal subgroup N of a finite p-group G is powerfully
embedded when [N, G] <= N^p.  The largest such subgroup eta(G) exists (it is
the product of all of them, and that product is again powerfully embedded);
iterating eta on quotients yields the upper eta-series, whose length is the
powerful class of G.

No quotient group and no closure is built here.  For normal K <= M, M/K
is powerfully embedded in G/K exactly when [M, G] <= M^p K, and both sides
are lookups in G's one cached lattice (``subgroups``), which the first of
them enumerates.  An eta step over K below N is the greatest fixed point
of M -> {x in M : [x, g] in M^p K for each generator g}, reached by
descending from N with no scan of the lattice (``_eta_over``); the steps
make one greedy chain (``_eta_chain``), the upper eta-series when N = G.
Uniserial action is read off the lower central factors (``_acts_uniserially``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import InvariantViolation, NoValidS, NotNormal
from .groups import FiniteGroup, _memo
from .subgroups import (
    Subgroup,
    SubgroupSeries,
    center_over,
    coclass,
    commutator_with_group,
    lattice_interval,
    lower_central_series,
    lower_central_term,
    nilpotency_class,
    normal_hull,
    power_subgroup,
    trivial_subgroup,
    whole_subgroup,
)


def is_powerfully_embedded(G: FiniteGroup, N: Subgroup) -> bool:
    """[N, G] <= N^p (N must be normal)."""
    if not N.is_normal():
        raise NotNormal(f"powerfully-embedded test needs a normal subgroup in {G.label}")
    return _pe_over(G, N, trivial_subgroup(G))


def is_powerful(G: FiniteGroup) -> bool:
    return is_powerfully_embedded(G, whole_subgroup(G))


def _power_product(G: FiniteGroup, M: Subgroup, N: Subgroup) -> Subgroup:
    """M^p N, a lattice member (M and N normal)."""
    mp = power_subgroup(G, M, 1)
    return mp if N.is_trivial() else normal_hull(G, mp.bits | N.bits)


def _pe_over(G: FiniteGroup, M: Subgroup, N: Subgroup) -> bool:
    """M/N is powerfully embedded in G/N, i.e. [M, G] <= M^p N (N <= M normal)."""
    mpn = _power_product(G, M, N).bits
    return commutator_with_group(G, M).bits | mpn == mpn


def powerfully_embedded_over(G: FiniteGroup, N: Subgroup) -> List[Subgroup]:
    """Every normal M >= N with M/N powerfully embedded in G/N, smallest first."""
    build = lambda: [M for M in lattice_interval(G, N.bits) if _pe_over(G, M, N)]
    return _memo(G.cache, ("pwe_over", N.bits), build)


def powerfully_embedded_normals(G: FiniteGroup) -> List[Subgroup]:
    """All powerfully embedded (normal) subgroups, smallest first."""
    return powerfully_embedded_over(G, trivial_subgroup(G))


def _eta_over(G: FiniteGroup, K: Subgroup, N: Subgroup) -> Subgroup:
    """The largest normal E with K <= E <= N and E/K powerfully embedded in G/K.

    K <= N are normal.  If A/K and B/K pass, so does AB/K, as [AB, G] =
    [A, G][B, G] <= (AB)^p K, so E exists.  For normal M in [K, N] let
    f(M) = {x in N : [x, g] in M^p K for each generator g}.  M/K passes iff
    [M, G] <= M^p K, i.e. iff M <= f(M), and f is monotone.  So M_0 = N,
    M_(j+1) = f(M_j) descends, and E <= f(E) gives E <= M_j for every j; the
    limit M* = f(M*) passes, so M* = E, the greatest fixed point of f
    (Tarski, Pacific J. Math. 5, 1955).  Each M_j is normal, so a lattice
    member.  By monotony E >= f(K), Z(G/K)'s preimage cut to N, which is
    certified.  With N = G, E is the preimage of eta(G/K).
    """

    def build() -> Subgroup:
        where = f"{G.label} over its normal subgroup of order {K.order}"
        # M is always the lattice member, not the caller's N: its witnesses are printed
        M, F = None, N.bits
        while M is None or F != M.bits:
            M = normal_hull(G, F)
            if M.bits != F:
                raise InvariantViolation(f"an eta descent step of {where} is not normal")
            F = center_over(G, _power_product(G, M, K)).bits & F
        if (center_over(G, K).bits & N.bits) | M.bits != M.bits:
            raise InvariantViolation(f"the eta step of {where} does not contain the center")
        return M

    return _memo(G.cache, ("eta_over", K.bits, N.bits), build)


def _eta_chain(G: FiniteGroup, N: Subgroup) -> List[Subgroup]:
    """The greedy eta-series K_0 = 1 < K_1 < ... < K_h = N of a normal N.

    K_(i+1) = ``_eta_over(G, K_i, N)``, the largest normal M <= N of G with
    M/K_i powerfully embedded in G/K_i, i.e. [M, G] <= M^p K_i.  Each step
    passed that test over K_i, so (K_i) is an eta-series of N.  It is the
    fastest one, hence a shortest one: let (N_i) be any eta-series of N and
    assume N_i <= K_i.  Then M = N_(i+1) K_i satisfies K_i <= M <= N and
    [M, G] = [N_(i+1), G][K_i, G] <= M^p K_i, so M passes the test of that
    step, which contains it: N_(i+1) <= K_(i+1).  With N = G this is the
    upper eta-series, so pwc(G) = pwh(G).
    """
    if not N.is_normal():
        raise NotNormal("an eta-series is defined up to a normal subgroup")
    terms = [trivial_subgroup(G)]
    while terms[-1].bits != N.bits:
        K = terms[-1]
        e = _eta_over(G, K, N)
        if e.bits == K.bits:
            raise InvariantViolation(
                f"no powerfully embedded step over the normal subgroup of order "
                f"{K.order} below one of order {N.order} in {G.label}; every "
                "finite p-group must admit one"
            )
        terms.append(e)
    return terms


def eta(G: FiniteGroup) -> Subgroup:
    """The largest powerfully embedded subgroup of G, certified to contain Z(G)."""
    return _eta_over(G, trivial_subgroup(G), whole_subgroup(G))


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

    def term(self, i: int) -> Subgroup:
        """eta_i, which is G for every i past the end of the series."""
        terms = self.series.terms
        return terms[i] if i < len(terms) else terms[-1]


def upper_eta_series(G: FiniteGroup) -> EtaReport:
    """eta_0 = 1, eta_{i+1}/eta_i = eta(G/eta_i), up to eta_k = G (``_eta_chain``)."""

    def build() -> EtaReport:
        terms = _eta_chain(G, whole_subgroup(G))
        steps = [
            EtaStep(G.order // K.order, e.order // K.order)
            for K, e in zip(terms, terms[1:])
        ]
        series = SubgroupSeries("eta", "ascending", terms)
        return EtaReport(series, len(terms) - 1, steps)

    return _memo(G.cache, "eta_report", build)


def powerful_class(G: FiniteGroup) -> int:
    return upper_eta_series(G).powerful_class


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
    return all(_pe_over(G, hi, lo) for lo, hi in zip(terms, terms[1:]))


def powerful_height(G: FiniteGroup, N: Subgroup) -> int:
    """Length of the shortest eta-series from 1 to the normal subgroup N (``_eta_chain``)."""
    return len(_eta_chain(G, N)) - 1


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


def uniserial_report(G: FiniteGroup) -> UniserialReport:
    """Verify uniserial action on gamma_m(G) for large groups of coclass r.

    The report is cached per group; callers must not mutate it.
    """
    return _memo(G.cache, "uniserial", lambda: _uniserial_report(G))


def _uniserial_report(G: FiniteGroup) -> UniserialReport:
    """The report; uniserial action is the factor-order test ``_acts_uniserially``."""
    p = G.p
    r = coclass(G)
    if r == 0:  # |G| <= p; p^(r-1) would not be an integer
        return UniserialReport(applicable=False, coclass_r=0, m=0)
    m = p**r - p ** (r - 1)
    if G.order < p ** (2 * p**r + r):
        return UniserialReport(applicable=False, coclass_r=r, m=m)
    c = nilpotency_class(G)
    for s in range(r):
        d = (p - 1) * p**s
        checks = tuple(
            (i, power_subgroup(G, lower_central_term(G, i), 1) == lower_central_term(G, i + d))
            for i in range(m, c + 2)
        )
        if all(good for _, good in checks):
            break
    else:
        raise NoValidS(f"no shift 0 <= s <= {r - 1} satisfies gamma_i^p = gamma_(i+d) in {G.label}")
    return UniserialReport(
        applicable=True, coclass_r=r, m=m, shift_s=s, d=d,
        uniserial=_acts_uniserially(G, m), power_shift_checks=checks,
    )


def _acts_uniserially(G: FiniteGroup, m: int) -> bool:
    """Every nontrivial normal H <= gamma_m(G) has |H : [H, G]| = p (m >= 1).

    That holds iff |gamma_i : gamma_(i+1)| = p for every i >= m with
    gamma_i > 1.  Necessity: take H = gamma_i.  Sufficiency: let i be the
    largest with H <= gamma_i, so H gamma_(i+1) = gamma_i.  If H gamma_(j+1)
    >= gamma_j, then H gamma_(j+2) >= [H gamma_(j+1), G] gamma_(j+2) >=
    gamma_(j+1).  So H gamma_j = H gamma_(j+1) for every j >= i, H = gamma_i
    and |H : [H, G]| = |gamma_i : gamma_(i+1)| = p.
    """
    terms = lower_central_series(G).terms[m - 1 :]
    return all(a.order == G.p * b.order for a, b in zip(terms, terms[1:]))


def pwccoclass_bound_check(G: FiniteGroup) -> bool:
    """|G| <= p^(k+r+m-1) whenever |G| reaches the uniseriality threshold.

    k is the powerful class; r, m and the threshold p^(2 p^r + r) are those
    of ``uniserial_report``.  Groups below the threshold pass vacuously.
    """
    us = uniserial_report(G)
    if not us.applicable:
        return True
    return G.order <= G.p ** (powerful_class(G) + us.coclass_r + us.m - 1)
