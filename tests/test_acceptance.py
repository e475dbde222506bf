"""Acceptance gate: one test per criterion, each printing a PASS line with its
runtime against the stated budget.  Groups are built fresh inside each
criterion so the timings do not lean on caches warmed elsewhere.
"""

import time

from pgroups.catalog import catalog_build, suite_instances
from pgroups.eta_series import (
    eta,
    is_powerfully_embedded,
    powerful_class,
    powerful_height,
    pwccoclass_bound_check,
    uniserial_report,
    upper_eta_series,
)
from pgroups.filtrations import pf_embedding_witness
from pgroups.subgroups import (
    Subgroup,
    center,
    closure,
    enumerate_normal_subgroups,
    power_image,
    power_subgroup,
    upper_central_series,
    whole_subgroup,
)
from pgroups.verify import run_suites

import oracles


class _Timer:
    def __init__(self, number, budget_s, what):
        self.number = number
        self.budget_s = budget_s
        self.what = what

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {status} ({elapsed:.1f}s / budget {self.budget_s}s): {self.what}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget ({elapsed:.1f}s)"
            )


def test_criterion_1_order_27_ground_truth():
    with _Timer(1, 1.0, "eta of both nonabelian groups of order 27"):
        H = catalog_build("heisenberg", p=3)  # exponent 3
        assert H.exponent() == 3
        assert eta(H).bits == center(H).bits
        assert eta(H).order == 3
        M = catalog_build("modular", p=3)  # exponent 9
        assert M.exponent() == 9
        assert eta(M).is_whole()


def test_criterion_2_powerful_class_p_non_pf_example():
    with _Timer(2, 30.0, "order-243 example: pwc = 3, x_p in G^3 yet not a cube, no PF witness"):
        G = catalog_build("mann_nonpf", p=3)
        assert G.order == 243
        assert powerful_class(G) == 3
        back = G.backend
        alpha = back.encode(1, 0)
        x1 = back.encode(0, back.M.generators[0])
        x3 = back.encode(0, back.M.generators[-1])
        assert G.pow(G.mul(alpha, x1), 3) == G.mul(G.pow(alpha, 3), x3)
        whole = whole_subgroup(G)
        assert x3 in power_subgroup(G, whole, 1)
        assert x3 not in power_image(G, whole, 1)
        assert pf_embedding_witness(G, whole) is None


def test_criterion_3_potent_group_of_unbounded_family():
    with _Timer(3, 300.0, "order-3125 potent entry: Z = <x_1^5>, eta_i = Z_i, pwc = 4"):
        from pgroups.filtrations import is_potent

        G = catalog_build("potent_nopwc", p=5, n=1)
        assert G.order == 3125
        assert is_potent(G)
        back = G.backend
        x1 = back.encode(0, back.M.generators[0])
        Z = center(G)
        assert Z.order == 5
        assert Z.bits == closure(G, [G.pow(x1, 5)]).bits
        rep = upper_eta_series(G)
        zs = upper_central_series(G)
        assert len(rep.series.terms) == len(zs.terms)
        assert all(a.bits == b.bits for a, b in zip(rep.series.terms, zs.terms))
        assert rep.powerful_class == 1 * (5 - 2) + 1 == 4


def test_criterion_4_lemma_suites():
    with _Timer(4, 600.0, "eta lemma suites over orders <= 3^6 plus the p = 5 entries"):
        instances = suite_instances(729) + [("potent_nopwc", {"p": 5, "n": 1})]
        results = run_suites(["eta-lemmas"], instances=instances, seed=2024)
        failures = [r.line() for r in results if not r.passed]
        assert not failures, failures


def test_criterion_5_omega_exponent_bound_everywhere():
    with _Timer(5, 600.0, "omega exponent bound on every catalog instance"):
        results = run_suites(["omega"], max_order=None)
        failures = [r.line() for r in results if not r.passed]
        assert not failures, failures


def test_criterion_6_small_powerful_class_suite():
    with _Timer(6, 600.0, "small powerful class: PF certificates, power structure, filtrations"):
        results = run_suites(["small-pwc"], max_order=None)
        failures = [r.line() for r in results if not r.passed]
        assert not failures, failures
        # certificates exist for every instance with pwc < p
        for name, params in suite_instances(None):
            G = catalog_build(name, **params)
            if powerful_class(G) < G.p:
                assert pf_embedding_witness(G, whole_subgroup(G)) is not None


def test_criterion_7_maximal_class_series():
    with _Timer(7, 600.0, "maximal-class entries: eta_i = Z_i and pwc = class"):
        cases = [("mainline_coclass1", {"p": 3, "k": k}) for k in range(2, 7)]
        cases.append(("wreath", {"p": 3}))
        for name, params in cases:
            G = catalog_build(name, **params)
            rep = upper_eta_series(G)
            zs = upper_central_series(G)
            assert len(rep.series.terms) == len(zs.terms), (name, params)
            assert all(a.bits == b.bits for a, b in zip(rep.series.terms, zs.terms))
            assert rep.powerful_class == len(zs.terms) - 1  # = nilpotency class


def test_criterion_8_coclass_checks_at_2187():
    with _Timer(8, 1200.0, "order-3^7 coclass instance: uniserial s=0 d=2, not PF, order bound"):
        G = catalog_build("mainline_coclass1", p=3, k=6)
        us = uniserial_report(G)
        assert us.applicable
        assert us.shift_s == 0 and us.d == 2
        assert us.uniserial is True
        assert pf_embedding_witness(G, whole_subgroup(G)) is None
        assert pwccoclass_bound_check(G)


def test_criterion_9_oracle_equivalences():
    with _Timer(9, 600.0, "greedy height vs BFS, enumeration vs brute force, powers vs closures"):
        # greedy powerful height == BFS shortest eta-series for EVERY normal
        # subgroup of every group of order <= 3^6
        for name, params in suite_instances(729):
            G = catalog_build(name, **params)
            rep = upper_eta_series(G)
            for i, term in enumerate(rep.series.terms):
                assert powerful_height(G, term) <= i
            assert powerful_height(G, whole_subgroup(G)) == rep.powerful_class
            for N in enumerate_normal_subgroups(G):
                assert powerful_height(G, N) == oracles.pwh_bfs(G, N), (name, params, N.order)

        # normal-subgroup enumeration == brute force on orders <= 3^4
        for name, params in suite_instances(81):
            G = catalog_build(name, **params)
            table = oracles.mul_table(G)
            got = {frozenset(N.elements()) for N in enumerate_normal_subgroups(G)}
            assert got == oracles.naive_normal_subgroups(table), (name, params)

        # power_subgroup == closure of power_image
        for name, params in suite_instances(729):
            G = catalog_build(name, **params)
            for N in (whole_subgroup(G), center(G)):
                for i in (1, 2, 3):
                    img = power_image(G, N, i)
                    assert closure(G, sorted(img)).bits == power_subgroup(G, N, i).bits


def test_criterion_10_unitriangular_exploration(capsys):
    with _Timer(10, 120.0, "eta of UT_3(Z/9) by enumeration, with the predicted pattern"):
        G = catalog_build("unitriangular", n=3, p=3, m=2)
        e = eta(G)
        assert is_powerfully_embedded(G, e)
        assert center(G) <= e
        back = G.backend
        predicted = 0
        for x in G.elements():
            mat = back.matrix_of(x)
            if mat[0][1] % 3 == 0 and mat[1][2] % 3 == 0:
                predicted |= 1 << x
        match = predicted == e.bits
        print(
            f"eta(UT_3(Z/9)): order {e.order}; superdiagonal-divisible-by-3 pattern "
            f"(order {Subgroup(G, predicted).order}) matches: {match}"
        )
