"""Potent filtrations, PF-embedding, potency, and power-structure checks.

A descending chain N = N_1 >= N_2 >= ... >= N_r = 1 of normal subgroups is a
potent filtration of N in G when [N_i, G] <= N_{i+1} and
[N_i, G, ..., G] <= N_{i+1}^p with p-1 copies of G.  N is PF-embedded when
such a chain exists; PF-embedding is decided exactly by reachability over
the normal-subgroup DAG, whose edges out of K run over the lattice interval
[[K, G], K), and witnesses are returned as certified chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Sequence

from .errors import NotAnEtaSeries, NotNormal, TheoremViolated, ValidationFailed
from .eta_series import is_eta_series, powerful_class
from .groups import FiniteGroup
from .subgroups import (
    Subgroup,
    _flags,
    commutator_with_group,
    iterated_commutator,
    join,
    lattice_interval,
    lower_central_term,
    omega_subgroup,
    power_image,
    power_subgroup,
    trivial_subgroup,
    whole_subgroup,
)


def is_potent(G: FiniteGroup) -> bool:
    """gamma_(p-1)(G) <= G^p."""
    gp = power_subgroup(G, whole_subgroup(G), 1).bits
    return lower_central_term(G, G.p - 1).bits | gp == gp


def is_power_surjective(G: FiniteGroup, i: int = 1) -> bool:
    """Does every element of G^(p^i) equal some x^(p^i)?"""
    if i < 1:
        raise ValueError(f"power-surjectivity index must be >= 1, got {i}")
    whole = whole_subgroup(G)
    image = power_image(G, whole, i)
    return power_subgroup(G, whole, i).order == len(image)


@dataclass
class PotentFiltration:
    """A certified potent filtration (descending, ending at 1)."""

    group: FiniteGroup
    terms: List[Subgroup]

    def validate(self) -> None:
        G = self.group
        p = G.p
        if not self.terms or not self.terms[-1].is_trivial():
            raise ValidationFailed("potent filtration must end at the trivial subgroup")
        for A, B in zip(self.terms, self.terms[1:]):
            if not B <= A:
                raise ValidationFailed("potent filtration is not descending")
            if not commutator_with_group(G, A) <= B:
                raise ValidationFailed(
                    f"[N_i, G] escapes the next term (|N_i| = {A.order})"
                )
            bp = power_subgroup(G, B, 1)
            if not iterated_commutator(G, A, p - 1) <= bp:
                raise ValidationFailed(
                    f"[N_i, (p-1) G] escapes N_(i+1)^p (|N_i| = {A.order})"
                )

    def __len__(self) -> int:
        return len(self.terms)


def pf_embedding_witness(G: FiniteGroup, N: Subgroup) -> Optional[PotentFiltration]:
    """A potent filtration of N in G, or None when none exists.

    Edges K -> M run over the lattice interval [[K, G], K), the normal
    subgroups M < K with [K, G] <= M, scanned from the top, and keep those
    with [K, (p-1) G] <= M^p; a stalling step can always be elided from a
    filtration, so strict descent loses no witnesses and the DFS terminates
    without a depth bound.

    The validated answer is cached per N, None included; callers must not
    mutate it.
    """
    if not N.is_normal():
        raise NotNormal("PF-embedding is defined for normal subgroups")
    key = ("pf_witness", N.bits)
    if key not in G.cache:
        G.cache[key] = _pf_search(G, N)
    return G.cache[key]


def _pf_search(G: FiniteGroup, N: Subgroup) -> Optional[PotentFiltration]:
    if N.is_trivial():
        return PotentFiltration(G, [N])
    memo: Dict[int, Optional[List[Subgroup]]] = {1: [trivial_subgroup(G)]}

    def search(K: Subgroup) -> Optional[List[Subgroup]]:
        hit = memo.get(K.bits, -1)
        if hit != -1:
            return hit
        memo[K.bits] = None  # cut cycles (descent makes real cycles impossible)
        comm_bits = commutator_with_group(G, K).bits
        it_bits = iterated_commutator(G, K, G.p - 1).bits
        for M in lattice_interval(G, comm_bits, K.bits, descending=True):  # larger first
            if M.bits == K.bits:
                continue
            mp = power_subgroup(G, M, 1).bits
            if it_bits | mp != mp:
                continue
            tail = search(M)
            if tail is not None:
                memo[K.bits] = [K] + tail
                return memo[K.bits]
        return None

    path = search(N)
    if path is None:
        return None
    filt = PotentFiltration(G, path)
    filt.validate()
    return filt


def is_pf_embedded(G: FiniteGroup, N: Subgroup) -> bool:
    return pf_embedding_witness(G, N) is not None


def is_pf_group(G: FiniteGroup) -> bool:
    return is_pf_embedded(G, whole_subgroup(G))


def small_height_filtration(
    G: FiniteGroup, N: Subgroup, eta_series: Sequence[Subgroup]
) -> PotentFiltration:
    """Build the explicit potent filtration of N from a short eta-series.

    Given an eta-series 1 = N_0 <= ... <= N_k = N with k <= p-1, the chain
    M_1 = N, M_{i+1} = M_i^p N_{p-i-1} (indices past the series padded with
    N), extended by p-th powers of M_{p-1} until trivial, is a potent
    filtration; it is validated before being returned.
    """
    p = G.p
    terms = list(eta_series)
    if not terms or terms[-1].bits != N.bits:
        raise NotAnEtaSeries("series must end at N")
    if len(terms) - 1 > p - 1:
        raise NotAnEtaSeries(f"series has length {len(terms) - 1} > p-1 = {p - 1}")
    if not is_eta_series(G, terms):
        raise NotAnEtaSeries("series steps are not powerfully embedded in the quotients")

    def padded(j: int) -> Subgroup:
        if j < 0:
            return trivial_subgroup(G)
        if j < len(terms):
            return terms[j]
        return N

    chain = [N]
    for i in range(1, p - 1):
        if chain[-1].is_trivial():
            break
        nxt = join(G, [power_subgroup(G, chain[-1], 1), padded(p - i - 1)])
        chain.append(nxt)
    last_built = chain[-1]  # M_{p-1}
    k = 1
    while not chain[-1].is_trivial():
        chain.append(power_subgroup(G, last_built, k))
        k += 1
    filt = PotentFiltration(G, chain)
    filt.validate()
    return filt


@dataclass
class OmegaRow:
    """One row of the omega exponent table."""

    i: int
    omega_order: int
    omega_exponent: int
    bound: int


@dataclass
class OmegaReport:
    powerful_class: int
    ell: int
    rows: List[OmegaRow]


def omega_exponent_check(G: FiniteGroup) -> OmegaReport:
    """Certify exp Omega_i(G) <= p^(i+ell) with ell = ceil(pwc / (p-1)).

    Raises TheoremViolated if any bound fails; that must never happen.
    """
    p = G.p
    k = powerful_class(G)
    ell = -(-k // (p - 1))
    rows: List[OmegaRow] = []
    prev = trivial_subgroup(G)
    i = 1
    while prev.order < G.order:
        om = omega_subgroup(G, i)
        if om.bits != prev.bits:
            exp = p ** max(compress(G.order_exponents(), _flags(G, om.bits)))
            bound = p ** (i + ell)
            if not power_subgroup(G, om, i + ell).is_trivial():
                raise TheoremViolated(
                    f"Omega_{i}({G.label})^(p^{i + ell}) != 1 (pwc = {k})"
                )
            rows.append(OmegaRow(i, om.order, exp, bound))
        prev = om
        if om.order == G.order:
            break
        i += 1
    return OmegaReport(k, ell, rows)
