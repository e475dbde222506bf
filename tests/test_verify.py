import random

from pgroups.verify import (
    SUITES,
    PropertyResult,
    kirillov_formula_series,
    random_eta_series,
    run_suites,
)
from pgroups.catalog import suite_instances
from pgroups.eta_series import is_eta_series, upper_eta_series
from pgroups.subgroups import _tables, join, power_subgroup, quotient, trivial_subgroup

import oracles


def test_each_suite_passes_on_small_orders():
    for suite in SUITES:
        results = run_suites([suite], max_order=243)
        assert results, suite
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_results_have_anchors_and_lines():
    results = run_suites(["omega"], max_order=27)
    for r in results:
        assert isinstance(r, PropertyResult)
        assert r.anchor and r.suite == "omega"
        assert r.line().startswith("PASS")
        js = r.to_json()
        assert set(js) == {"suite", "prop", "group", "passed", "anchor", "detail"}


def test_unknown_suite_rejected():
    import pytest

    with pytest.raises(ValueError):
        run_suites(["nonsense"])


def test_random_eta_series_is_deterministic_per_seed(groups):
    G = groups("wreath", p=3)
    a = [t.bits for t in random_eta_series(G, random.Random(5))]
    b = [t.bits for t in random_eta_series(G, random.Random(5))]
    assert a == b
    series = random_eta_series(G, random.Random(5))
    assert is_eta_series(G, series)


def test_kirillov_formula_terms_are_subgroups(groups):
    G = groups("kirillov_quotient", p=3, e=2)
    terms = kirillov_formula_series(G)
    assert terms[0].is_trivial()
    assert terms[-1].is_whole()
    rep = upper_eta_series(G)
    assert [t.order for t in terms] == rep.series.orders()


def _check_gathered_tables(Q):
    # Q's tables and power maps are gathered through its parent's; each one
    # must equal the same table multiplied out with Q's own mul
    T = _tables(Q)
    got = (T.right, Q.pth_map(), [Q.order_exponent(q) for q in Q.elements()])
    assert got == oracles.product_tables(Q, T.gens), Q.label


def test_verify_quotient_projections_are_homomorphisms(groups):
    # Every quotient the eta-lemmas suite builds (the center step
    # G/(eta_{k+1}^p eta_k), G/eta_j, G/eta^p and G/eta), plus G/1.  The
    # projection must be onto and respect x * g for every element x and
    # generator g, which extends to every product.  The gathered tables and
    # power maps of Q must agree with Q.mul, every coset representative must
    # be the least element of its coset, and the cosets are numbered in the
    # order of their representatives.
    for name, params in suite_instances(729):
        G = groups(name, **params)
        terms = upper_eta_series(G).series.terms
        kernels = [trivial_subgroup(G), power_subgroup(G, terms[1], 1), *terms]
        kernels += [join(G, [power_subgroup(G, hi, 1), lo]) for lo, hi in zip(terms, terms[1:])]
        for N in {N.bits: N for N in kernels}.values():
            Q, proj = quotient(G, N)
            mp = proj.mapping
            assert set(mp) == set(Q.elements()), (name, params, N.order)
            bad = [
                (x, g)
                for x in G.elements()
                for g in G.generators
                if mp[G.mul(x, g)] != Q.mul(mp[x], mp[g])
            ]
            assert not bad, (name, params, N.order, bad[:3])
            _check_gathered_tables(Q)
            if not N.is_trivial():  # G/1 is G itself
                least: dict = {}
                for x in G.elements():
                    least.setdefault(mp[x], x)
                reps = Q.backend.reps
                assert [least[q] for q in Q.elements()] == reps, (name, params)
                assert reps == sorted(reps), (name, params)  # numbered by least element
