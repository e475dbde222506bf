from pgroups.verify import (
    SUITES,
    PropertyResult,
    _fastest,
    kirillov_formula_series,
    reachable_eta_levels,
    run_suites,
)
from pgroups.catalog import suite_instances
from pgroups.eta_series import upper_eta_series
from pgroups.subgroups import (
    _tables,
    center,
    enumerate_normal_subgroups,
    join,
    power_subgroup,
    quotient,
    trivial_subgroup,
    upper_central_series,
)

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


def test_reachable_eta_levels_are_pwh_sublevel_sets(groups):
    # S_i, the i-th terms of every eta-series, is {N normal : pwh(N) <= i},
    # with pwh from the breadth-first oracle rather than the greedy chain
    for name, params in suite_instances(729):
        G = groups(name, **params)
        pwc = upper_eta_series(G).powerful_class
        levels = reachable_eta_levels(G, pwc)
        assert len(levels) == pwc + 1
        heights = {N.bits: oracles.pwh_bfs(G, N) for N in enumerate_normal_subgroups(G)}
        for i, level in enumerate(levels):
            want = {bits for bits, h in heights.items() if h <= i}
            assert {N.bits for N in level} == want, (name, i)


def test_fastest_check_fails_below_a_slower_series(groups):
    # modular p=3 is powerful (eta_1 = G) with |Z(G)| = 3: its upper central
    # series is not the fastest eta-series, and G in S_1 escapes Z(G)
    G = groups("modular", p=3)
    assert upper_eta_series(G).powerful_class == 1
    assert center(G).order == 3
    assert _fastest(G, upper_eta_series(G).series.terms) == (True, "7 reachable terms")
    assert _fastest(G, upper_central_series(G).terms) == (False, "escapes at index 1")


def test_run_suites_ignores_seed():
    a = [r.to_json() for r in run_suites(["eta-lemmas"], max_order=81, seed=1)]
    b = [r.to_json() for r in run_suites(["eta-lemmas"], max_order=81, seed=7)]
    assert a == b


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
