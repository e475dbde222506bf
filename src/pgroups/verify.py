"""Executable verification suites.

Each suite runs a family of invariant checks over the built-in catalog
instances and reports one pass/fail line per property and group.  The
``anchor`` of a property is the exact statement being checked, written as a
formula, so results are traceable without reading the suite code.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from . import catalog as cat
from . import eta_series as eta_mod
from . import filtrations as pf
from . import report as report_mod
from . import subgroups as sg
from .errors import PGroupError
from .groups import FiniteGroup, log_p

SUITES = ("eta-lemmas", "small-pwc", "omega", "coclass", "catalog-regression")

DEFAULT_MAX_ORDER = 729
EXTENDED_MAX_ORDER = None  # every bundled instance


@dataclass
class PropertyResult:
    suite: str
    prop: str
    group: str
    passed: bool
    anchor: str
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        detail = f"  [{self.detail}]" if self.detail else ""
        return f"{tag}  {self.suite}/{self.prop}  {self.group}{detail}"

    def to_json(self) -> dict:
        return asdict(self)


class _Run:
    def __init__(self, budget: int):
        self.budget = budget
        self.results: List[PropertyResult] = []

    def check(
        self,
        suite: str,
        prop: str,
        group_key: str,
        anchor: str,
        fn: Callable[[], Tuple[bool, str]],
    ) -> None:
        try:
            passed, detail = fn()
        except PGroupError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        self.results.append(PropertyResult(suite, prop, group_key, passed, anchor, detail))


def reachable_eta_levels(G: FiniteGroup, top: int) -> List[List[sg.Subgroup]]:
    """S_0, ..., S_top, where S_i holds the i-th terms of all eta-series of G.

    S_0 = {1}, and S_(i+1) is the union of ``powerfully_embedded_over(G, N)``
    over N in S_i.  A step N_(i+1) of an eta-series is in the list of N_i,
    so N_i is in S_i; each list holds N itself, so stalled steps stay.  A
    member N of S_i ends i powerfully embedded steps from 1, which the upper
    eta-series of G/N continues to G.  So S_i = {N normal : pwh(N) <= i}.
    """
    levels = [[sg.trivial_subgroup(G)]]
    for _ in range(top):
        level = {M.bits: M for N in levels[-1] for M in eta_mod.powerfully_embedded_over(G, N)}
        levels.append(list(level.values()))
    return levels


def _fastest(G: FiniteGroup, terms: Sequence[sg.Subgroup]) -> Tuple[bool, str]:
    """N_i <= terms[i] for every eta-series (N_i) of G, up to terms[-1] = G (later N_i pass)."""
    levels = reachable_eta_levels(G, len(terms) - 1)
    for i, (level, term) in enumerate(zip(levels, terms)):
        if not all(N <= term for N in level):
            return False, f"escapes at index {i}"
    return True, f"{sum(map(len, levels))} reachable terms"


# -- eta-lemmas ---------------------------------------------------------------


def _suite_eta_lemmas(run: _Run, key: str, G: FiniteGroup) -> None:
    report = eta_mod.upper_eta_series(G)
    pwc = report.powerful_class
    ucs = sg.upper_central_series(G)
    cls = sg.nilpotency_class(G)

    def chk_center() -> Tuple[bool, str]:
        for k in range(pwc):
            ek1 = report.term(k + 1)
            d = sg.join(G, [sg.power_subgroup(G, ek1, 1), report.term(k)])
            Q, proj = sg.quotient(G, d)
            want = proj.image_bits(ek1.bits)
            if sg.center(Q).bits != want:
                return False, f"fails at k={k}"
        return True, f"k=0..{pwc - 1}"

    run.check(
        "eta-lemmas", "center", key,
        "eta_{k+1}/(eta_{k+1}^p eta_k) = Z(G/(eta_{k+1}^p eta_k)) for all k >= 0",
        chk_center,
    )

    run.check(
        "eta-lemmas", "series-dominates-center", key,
        "Z_i(G) <= eta_i(G) for all i >= 0",
        lambda: (
            all(z <= report.term(i) for i, z in enumerate(ucs.terms)),
            f"{len(ucs.terms)} terms",
        ),
    )

    run.check(
        "eta-lemmas", "pwc-at-most-class", key,
        "pwc(G) <= cl(G)",
        lambda: (pwc <= cls, f"pwc={pwc} cl={cls}"),
    )

    def chk_quotient_shift() -> Tuple[bool, str]:
        for j in range(pwc + 1):
            Q, proj = sg.quotient(G, report.term(j))
            qrep = eta_mod.upper_eta_series(Q)
            for i in range(qrep.powerful_class + 1):
                want = proj.image_bits(report.term(i + j).bits)
                if qrep.term(i).bits != want:
                    return False, f"fails at i={i}, j={j}"
        return True, f"j=0..{pwc}"

    run.check(
        "eta-lemmas", "quotient-shift", key,
        "eta_i(G/eta_j(G)) = eta_{i+j}(G)/eta_j(G)",
        chk_quotient_shift,
    )

    def chk_height() -> Tuple[bool, str]:
        for i in range(pwc + 1):
            h = eta_mod.powerful_height(G, report.term(i))
            if h > i:
                return False, f"pwh(eta_{i}) = {h} > {i}"
        return True, f"i=0..{pwc}"

    run.check(
        "eta-lemmas", "height-of-terms", key,
        "pwh(eta_i(G)) <= i",
        chk_height,
    )

    def chk_term_class() -> Tuple[bool, str]:
        for i in range(1, pwc + 1):
            term = report.term(i)
            if term.is_whole():
                inner = pwc
            else:
                # the lattice of eta_i is not an interval of G's, so it
                # gets its own bound
                H = sg.subgroup_as_group(G, term)
                sg.enumerate_normal_subgroups(H, run.budget)
                inner = eta_mod.powerful_class(H)
            if inner > i:
                return False, f"pwc(eta_{i}) = {inner} > {i}"
        return True, f"i=1..{pwc}"

    run.check(
        "eta-lemmas", "class-of-terms", key,
        "pwc(eta_i(G)) <= i",
        chk_term_class,
    )

    def chk_iterated() -> Tuple[bool, str]:
        for i in range(pwc + 1):
            term = report.term(i)
            lhs = sg.iterated_commutator(G, term, i)
            if not lhs <= sg.power_subgroup(G, term, 1):
                return False, f"fails at i={i}"
        return True, f"i=0..{pwc}"

    run.check(
        "eta-lemmas", "iterated-commutator", key,
        "[eta_i(G), G, ..., G] (i copies) <= eta_i(G)^p",
        chk_iterated,
    )

    def chk_mod_eta_p() -> Tuple[bool, str]:
        ep = sg.power_subgroup(G, report.term(1), 1)
        Q, proj = sg.quotient(G, ep)
        qrep = eta_mod.upper_eta_series(Q)
        top = max(pwc, qrep.powerful_class)
        for i in range(1, top + 1):
            want = proj.image_bits(report.term(i).bits)
            if qrep.term(i).bits != want:
                return False, f"fails at i={i}"
        return True, f"i=1..{top}"

    run.check(
        "eta-lemmas", "mod-eta-p", key,
        "eta_i(G/eta(G)^p) = eta_i(G)/eta(G)^p for all i >= 1",
        chk_mod_eta_p,
    )

    def chk_pwc2() -> Tuple[bool, str]:
        e1 = report.term(1)
        Q, _ = sg.quotient(G, e1)
        if not eta_mod.is_powerful(Q):
            return True, "vacuous (G/eta not powerful)"
        ok = Q.is_abelian() and Q.exponent() <= G.p
        return ok, f"|G/eta| = {Q.order}"

    run.check(
        "eta-lemmas", "powerful-quotient-elementary", key,
        "G/eta(G) powerful => G/eta(G) elementary abelian",
        chk_pwc2,
    )

    def chk_frattini() -> Tuple[bool, str]:
        # needs k >= 2: a powerful group can have Phi(G) != 1 = eta_0
        if pwc < 2:
            return True, f"vacuous (pwc = {pwc})"
        return sg.frattini(G) <= report.term(pwc - 1), f"k={pwc}"

    run.check(
        "eta-lemmas", "frattini-below-top", key,
        "Phi(G) <= eta_{k-1}(G) where k = pwc(G) >= 2",
        chk_frattini,
    )

    run.check(
        "eta-lemmas", "upper-series-fastest", key,
        "N_i <= eta_i(G) for every eta-series (N_i) of G",
        lambda: _fastest(G, report.series.terms),
    )

    def chk_join() -> Tuple[bool, str]:
        e1 = eta_mod.eta(G)
        return (
            all(N <= e1 for N in eta_mod.powerfully_embedded_normals(G)),
            f"{len(eta_mod.powerfully_embedded_normals(G))} embedded subgroups",
        )

    run.check(
        "eta-lemmas", "eta-contains-all", key,
        "every powerfully embedded subgroup lies in eta(G)",
        chk_join,
    )

    if G.order == G.p**3 and not G.is_abelian():

        def chk_p3() -> Tuple[bool, str]:
            e1 = eta_mod.eta(G)
            if G.exponent() == G.p:
                return e1.bits == sg.center(G).bits, "exponent p: eta = Z"
            return e1.is_whole(), "exponent p^2: eta = G"

        run.check(
            "eta-lemmas", "order-p3", key,
            "nonabelian |G| = p^3: exp p => eta(G) = Z(G); exp p^2 => eta(G) = G",
            chk_p3,
        )


# -- small powerful class ------------------------------------------------------


def _suite_small_pwc(run: _Run, key: str, G: FiniteGroup) -> None:
    p = G.p
    report = eta_mod.upper_eta_series(G)
    pwc = report.powerful_class
    whole = sg.whole_subgroup(G)

    if pwc < p:

        def chk_small() -> Tuple[bool, str]:
            filt = pf.small_height_filtration(G, whole, report.series.terms)
            witness = pf.pf_embedding_witness(G, whole)
            ok = witness is not None
            return ok, f"constructed length {len(filt)}, reachability witness {ok}"

        run.check(
            "small-pwc", "small-class-is-pf", key,
            "pwc(G) < p => G admits a potent filtration",
            chk_small,
        )

        def chk_power_structure() -> Tuple[bool, str]:
            gp = sg.power_subgroup(G, whole, 1)
            powerful = sg.commutator_subgroup(G, gp, gp) <= sg.power_subgroup(G, gp, 1)
            surj = pf.is_power_surjective(G, 1)
            return powerful and surj, f"G^p order {gp.order}"

        run.check(
            "small-pwc", "gp-powerful-surjective", key,
            "pwc(G) < p => G^p is powerful and G^p = {x^p | x in G}",
            chk_power_structure,
        )

        if sg.minimal_generator_count(G) == 2:

            def chk_two_generator_exponent() -> Tuple[bool, str]:
                # the tables' generators are irredundant, so by the Burnside
                # basis theorem there are d(G) = 2 of them
                a, b = sg._tables(G).gens
                e = max(G.order_exponent(a), G.order_exponent(b))
                exp = G.exponent()
                return exp <= p**e, f"pair orders p^{e}, exponent {exp}"

            run.check(
                "small-pwc", "two-generator-exponent", key,
                "G = <a,b>, pwc(G) < p, a^(p^e) = b^(p^e) = 1 => exp(G) <= p^e",
                chk_two_generator_exponent,
            )

    def chk_power_commutator_swap() -> Tuple[bool, str]:
        top = min(pwc, p - 1)
        if top < 1:
            return True, "vacuous (trivial group)"
        for i in range(1, top + 1):
            N = report.term(i)
            ng = sg.commutator_with_group(G, N)
            for k in (1, 2):
                gpk = sg.power_subgroup(G, whole, k)
                lhs = sg.commutator_with_group(G, sg.power_subgroup(G, N, k))
                rhs = sg.power_subgroup(G, ng, k)
                if lhs.bits != rhs.bits:
                    return False, f"[N^(p^{k}),G] != [N,G]^(p^{k}) at N = eta_{i}"
                if not rhs <= sg.commutator_subgroup(G, N, gpk):
                    return False, f"[N,G]^(p^{k}) escapes [N,G^(p^{k})] at N = eta_{i}"
        return True, f"N = eta_1..eta_{top}, k = 1, 2"

    run.check(
        "small-pwc", "power-commutator-swap", key,
        "pwh(N) < p => [N^(p^k), G] = [N, G]^(p^k) <= [N, G^(p^k)]",
        chk_power_commutator_swap,
    )

    def chk_triples() -> Tuple[bool, str]:
        top = min(pwc, p - 1)
        for i in range(top + 1):
            N = report.term(i)
            filt = pf.small_height_filtration(G, N, report.series.terms[: i + 1])
            if pf.pf_embedding_witness(G, N) is None:
                return False, f"reachability finds no witness for eta_{i}"
            filt.validate()
        return True, f"i=0..{top}"

    run.check(
        "small-pwc", "short-series-filtration", key,
        "an eta-series of N of length <= p-1 yields a valid potent filtration of N",
        chk_triples,
    )

    def chk_pf_surjective() -> Tuple[bool, str]:
        if not pf.is_pf_group(G):
            return True, "vacuous (not a PF-group)"
        return pf.is_power_surjective(G, 1), "PF-group"

    run.check(
        "small-pwc", "pf-implies-surjective", key,
        "G a PF-group => G^p = {x^p | x in G}",
        chk_pf_surjective,
    )

    def chk_potent() -> Tuple[bool, str]:
        if pwc >= p - 1:
            return True, f"vacuous (pwc = {pwc} >= p-1)"
        return pf.is_potent(G), f"pwc = {pwc}"

    run.check(
        "small-pwc", "very-small-is-potent", key,
        "pwc(G) < p-1 => gamma_{p-1}(G) <= G^p",
        chk_potent,
    )


# -- omega ---------------------------------------------------------------------


def _suite_omega(run: _Run, key: str, G: FiniteGroup) -> None:
    def chk() -> Tuple[bool, str]:
        om = pf.omega_exponent_check(G)
        rows = ", ".join(
            f"i={r.i}: exp p^{log_p(G.p, r.omega_exponent)} <= p^{r.i + om.ell}"
            for r in om.rows
        )
        return True, rows or "no torsion layers (trivial group)"

    run.check(
        "omega", "omega-exponent-bound", key,
        "Omega_i(G)^(p^(i+ceil(pwc/(p-1)))) = 1 for all i",
        chk,
    )


# -- coclass -------------------------------------------------------------------


def _suite_coclass(run: _Run, key: str, G: FiniteGroup) -> None:
    report = eta_mod.upper_eta_series(G)

    if sg.is_maximal_class(G):

        def chk_max() -> Tuple[bool, str]:
            return eta_mod.eta(G).bits == sg.center(G).bits, "eta = Z"

        run.check(
            "coclass", "maximal-class-eta", key,
            "G of maximal class => eta(G) = Z(G)",
            chk_max,
        )

        def chk_max_series() -> Tuple[bool, str]:
            ucs = sg.upper_central_series(G)
            if len(ucs.terms) != len(report.series.terms):
                return False, "series lengths differ"
            ok = all(
                z.bits == e.bits for z, e in zip(ucs.terms, report.series.terms)
            )
            cls = sg.nilpotency_class(G)
            return ok and report.powerful_class == cls, f"pwc = cl = {cls}"

        run.check(
            "coclass", "maximal-class-series", key,
            "G of maximal class => eta_i(G) = Z_i(G) for all i, hence pwc = cl",
            chk_max_series,
        )

    def chk_uniserial() -> Tuple[bool, str]:
        us = eta_mod.uniserial_report(G)
        if not us.applicable:
            return True, "below order threshold (vacuous)"
        ok = us.uniserial is True and all(good for _, good in us.power_shift_checks)
        return ok, f"m={us.m}, s={us.shift_s}, d={us.d}"

    run.check(
        "coclass", "uniserial-action", key,
        "|G| >= p^(2p^r + r) => G acts uniserially on gamma_m(G) and "
        "gamma_i(G)^p = gamma_{i+d}(G) for i >= m",
        chk_uniserial,
    )

    run.check(
        "coclass", "order-bound", key,
        "|G| <= p^(k+r+m-1) for k = pwc(G), r = coclass, m = p^r - p^(r-1) "
        "(above the uniseriality threshold)",
        lambda: (eta_mod.pwccoclass_bound_check(G), ""),
    )

    def chk_pfcoclass() -> Tuple[bool, str]:
        us = eta_mod.uniserial_report(G)
        if not us.applicable:
            return True, "below order threshold (vacuous)"
        return not pf.is_pf_group(G), f"coclass {us.coclass_r}"

    run.check(
        "coclass", "large-coclass-not-pf", key,
        "|G| >= p^(2p^r + r) => G is not a PF-group",
        chk_pfcoclass,
    )


# -- catalog regression --------------------------------------------------------


def flatten_report(rep: dict) -> dict:
    """The flat field -> value record that ``expected.json`` keeps and that regression compares."""
    return {
        "order": rep["group"]["order"],
        "exponent": rep["exponent"],
        "nilpotency_class": rep["nilpotency_class"],
        "coclass": rep["coclass"],
        "maximal_class": rep["maximal_class"],
        "minimal_generators": rep["minimal_generators"],
        "center_order": rep["center_order"],
        "eta_series_orders": rep["eta_series_orders"],
        "powerful_class": rep["powerful_class"],
        "powerful": rep["powerful"],
        "potent": rep["potent"],
        "power_surjective_1": rep["power_surjective"]["1"],
        "pf": rep["pf"]["status"],
        "omega_ell": rep["omega"]["ell"],
    }


def kirillov_formula_series(G: FiniteGroup) -> List[sg.Subgroup]:
    """The closed-form eta-series candidate for the kirillov_quotient entry.

    Term i is <alpha^(p^(p-i-1)), x_j^(p^max(p-i-j, 0)) for j <= p-2,
    x_{p-1}, x_p>, read inside the finite quotient.
    """
    p = G.p
    back = G.backend
    M = back.M
    alpha = back.encode(1, 0)
    xs = [back.encode(0, g) for g in M.generators]
    terms = [sg.trivial_subgroup(G)]
    for i in range(1, p):
        gens = [G.pow(alpha, p ** (p - i - 1))]
        for j in range(1, p - 1):
            gens.append(G.pow(xs[j - 1], p ** max(p - i - j, 0)))
        gens.append(xs[p - 2])
        gens.append(xs[p - 1])
        terms.append(sg.closure(G, gens))
    return terms


def _suite_catalog_regression(
    run: _Run, key: str, G: FiniteGroup, name: str, params: cat.Params
) -> None:
    record = cat.expected_record(name, params)

    def chk_record() -> Tuple[bool, str]:
        if record is None:
            return False, "no expected record for this instance"
        rep = report_mod.analyze_group(G)
        actual = flatten_report(rep)
        bad = [
            f"{field}: computed {actual[field]!r} != recorded {record[field]['v']!r}"
            for field in actual
            if field in record and actual[field] != record[field]["v"]
        ]
        if bad:
            return False, "; ".join(bad)
        return True, f"{sum(1 for f in actual if f in record)} fields"

    run.check(
        "catalog-regression", "expected-invariants", key,
        "analysis pipeline reproduces the recorded invariants",
        chk_record,
    )

    if name == "mann_nonpf":

        def chk_mann_example() -> Tuple[bool, str]:
            back = G.backend
            M = back.M
            p = G.p
            alpha = back.encode(1, 0)
            x1 = back.encode(0, M.generators[0])
            xp = back.encode(0, M.generators[-1])
            lhs = G.pow(G.mul(alpha, x1), p)
            rhs = G.mul(G.pow(alpha, p), xp)
            if lhs != rhs:
                return False, "(alpha x_1)^p != alpha^p x_p"
            gp = sg.power_subgroup(G, sg.whole_subgroup(G), 1)
            in_subgroup = xp in gp
            in_image = xp in sg.power_image(G, sg.whole_subgroup(G), 1)
            return (
                in_subgroup and not in_image,
                f"x_p in G^p: {in_subgroup}, x_p a p-th power: {in_image}",
            )

        run.check(
            "catalog-regression", "skew-power-identity", key,
            "(alpha x_1)^p = alpha^p x_p, so x_p lies in G^p but is not a p-th power",
            chk_mann_example,
        )

    if name == "potent_nopwc":

        def chk_potent_entry() -> Tuple[bool, str]:
            back = G.backend
            M = back.M
            p = G.p
            n = int(params.get("n", 1))
            x1 = back.encode(0, M.generators[0])
            want_z = sg.closure(G, [G.pow(x1, p**n)])
            if sg.center(G).bits != want_z.bits:
                return False, "Z(G) != <x_1^(p^n)>"
            ucs = sg.upper_central_series(G)
            report = eta_mod.upper_eta_series(G)
            if len(ucs.terms) != len(report.series.terms) or any(
                z.bits != e.bits for z, e in zip(ucs.terms, report.series.terms)
            ):
                return False, "eta_i != Z_i"
            want_pwc = n * (p - 2) + 1
            return (
                report.powerful_class == want_pwc,
                f"pwc = {report.powerful_class} = n(p-2)+1",
            )

        run.check(
            "catalog-regression", "potent-entry-structure", key,
            "Z(G) = <x_1^(p^n)>, eta_i(G) = Z_i(G), pwc(G) = n(p-2)+1",
            chk_potent_entry,
        )

    if name == "kirillov_quotient":

        def chk_formula() -> Tuple[bool, str]:
            report = eta_mod.upper_eta_series(G)
            formula = kirillov_formula_series(G)
            computed = report.series.terms
            match = len(formula) == len(computed) and all(
                a.bits == b.bits for a, b in zip(formula, computed)
            )
            expect = record.get("formula_match", {}).get("v") if record else None
            detail = (
                f"closed form matches enumerated series: {match} "
                f"(orders {[t.order for t in computed]})"
            )
            if expect is None:
                return True, detail + "; no recorded expectation"
            return match == expect, detail

        run.check(
            "catalog-regression", "closed-form-eta-series", key,
            "enumerated upper eta-series vs the closed-form candidate "
            "<alpha^(p^(p-i-1)), x_j^(p^max(p-i-j,0)), x_{p-1}, x_p>",
            chk_formula,
        )


# -- driver --------------------------------------------------------------------


def run_suites(
    suites: Sequence[str],
    max_order: Optional[int] = DEFAULT_MAX_ORDER,
    budget: int = sg.NORMAL_SUBGROUP_BUDGET,
    seed: Optional[int] = None,
    instances: Optional[Sequence[Tuple[str, cat.Params]]] = None,
) -> List[PropertyResult]:
    """Run the named suites over every bundled instance within max_order.

    ``seed`` is ignored, since no property samples; callers may still pass it.
    """
    for s in suites:
        if s not in SUITES:
            raise ValueError(f"unknown suite {s!r}; known: {', '.join(SUITES)}")
    run = _Run(budget)
    if instances is None:
        instances = cat.suite_instances(max_order)
    for name, params in instances:
        key = cat.instance_key(name, params)
        G = cat.catalog_build(name, **params)
        # The one bounded enumeration: the normal subgroups of a quotient G/N
        # are those of G above N, so G's budget bounds every quotient the
        # suites build too.
        sg.enumerate_normal_subgroups(G, budget)
        if "eta-lemmas" in suites:
            _suite_eta_lemmas(run, key, G)
        if "small-pwc" in suites:
            _suite_small_pwc(run, key, G)
        if "omega" in suites:
            _suite_omega(run, key, G)
        if "coclass" in suites:
            _suite_coclass(run, key, G)
        if "catalog-regression" in suites:
            _suite_catalog_regression(run, key, G, name, params)
    return run.results
