import random

import pytest

from pgroups import build_abelian
from pgroups import catalog as cat
from pgroups.errors import NotNormal
from pgroups.eta_series import (
    _acts_uniserially,
    _eta_over,
    eta,
    eta_capability_obstruction,
    is_eta_series,
    is_powerful,
    is_powerfully_embedded,
    powerful_class,
    powerful_height,
    powerfully_embedded_normals,
    pwccoclass_bound_check,
    UniserialReport,
    uniserial_report,
    upper_eta_series,
)
from pgroups.report import analyze_group
from pgroups.subgroups import (
    center,
    closure,
    enumerate_normal_subgroups,
    lower_central_series,
    nilpotency_class,
    quotient,
    trivial_subgroup,
    upper_central_series,
    whole_subgroup,
)

import oracles


def test_central_subgroups_are_powerfully_embedded(groups):
    G = groups("wreath", p=3)
    assert is_powerfully_embedded(G, center(G))
    assert is_powerfully_embedded(G, trivial_subgroup(G))


def test_heisenberg_not_powerfully_embedded_in_itself(groups):
    G = groups("heisenberg", p=3)
    assert not is_powerfully_embedded(G, whole_subgroup(G))
    assert not is_powerful(G)


def test_modular_group_is_powerful(groups):
    G = groups("modular", p=3)
    assert is_powerful(G)
    assert eta(G).is_whole()
    assert powerful_class(G) == 1


def test_powerfully_embedded_requires_normal(groups):
    G = groups("heisenberg", p=3)
    H = closure(G, [G.generators[0]])
    with pytest.raises(NotNormal):
        is_powerfully_embedded(G, H)


def test_eta_abelian_is_whole():
    G = build_abelian(3, [2, 1])
    assert eta(G).is_whole()


def test_eta_heisenberg_is_center_and_matches_oracle(groups):
    G = groups("heisenberg", p=3)
    e = eta(G)
    assert e.bits == center(G).bits and e.order == 3
    table = oracles.mul_table(G)
    assert set(e.elements()) == set(oracles.naive_eta(table, 3))


def test_eta_wreath_is_center(groups):
    G = groups("wreath", p=3)
    e = eta(G)
    assert e.bits == center(G).bits and e.order == 3
    table = oracles.mul_table(G)
    assert set(e.elements()) == set(oracles.naive_eta(table, 3))


def test_eta_contains_every_embedded_subgroup(groups):
    G = groups("mann_nonpf", p=3)
    e = eta(G)
    for N in powerfully_embedded_normals(G):
        assert N <= e


def test_upper_eta_series_shapes(groups):
    triv = build_abelian(3, [1])
    one, _ = quotient(triv, whole_subgroup(triv))
    assert powerful_class(one) == 0

    G = groups("heisenberg", p=3)
    rep = upper_eta_series(G)
    assert rep.powerful_class == 2
    assert rep.series.orders() == [1, 3, 27]
    assert [s.eta_of_quotient_order for s in rep.steps] == [3, 9]

    M = groups("mann_nonpf", p=3)
    assert powerful_class(M) == 3  # equals p


def test_eta_report_term_is_the_whole_group_past_the_end(groups):
    G = groups("heisenberg", p=3)
    rep = upper_eta_series(G)
    terms = rep.series.terms
    assert [rep.term(i) for i in range(len(terms))] == terms
    assert rep.term(len(terms)).is_whole() and rep.term(len(terms) + 5).is_whole()


def test_powerful_height_basics(groups):
    G = groups("heisenberg", p=3)
    assert powerful_height(G, trivial_subgroup(G)) == 0
    assert powerful_height(G, center(G)) == 1
    assert powerful_height(G, whole_subgroup(G)) == 2
    with pytest.raises(NotNormal):
        powerful_height(G, closure(G, [G.generators[0]]))


def test_powerful_height_oracle_agrees_everywhere(groups):
    # greedy == BFS for every eta term of every group of order <= 3^6
    for name, params in [
        ("heisenberg", {"p": 3}),
        ("modular", {"p": 3}),
        ("wreath", {"p": 3}),
        ("mann_nonpf", {"p": 3}),
        ("mainline_coclass1", {"p": 3, "k": 5}),
        ("unitriangular", {"n": 3, "p": 3, "m": 2}),
        ("heisenberg", {"p": 5}),
    ]:
        G = groups(name, **params)
        rep = upper_eta_series(G)
        for i, term in enumerate(rep.series.terms):
            assert powerful_height(G, term) == oracles.pwh_bfs(G, term) <= i


def test_eta_step_fixed_point_agrees_with_join(groups):
    # the fixed point of the descent is the same lattice member, witness
    # list included, as the join of every passing one, over each pair K <= N
    # of normal subgroups
    instances = cat.suite_instances(729) + [("kirillov_quotient", {"p": 3, "e": 2})]
    pairs = 0
    for name, params in instances:
        G = groups(name, **params)
        normals = enumerate_normal_subgroups(G)
        for K in normals:
            for N in normals:
                if K <= N:
                    want = oracles.eta_over_by_join(G, K, N)
                    got = _eta_over(G, K, N)
                    assert got is want, (G.label, K.order, N.order)
                    pairs += 1
    assert pairs == 1_104 + 8_874


def test_eta_chain_steps_agree_with_join(groups):
    G = groups("kirillov_quotient", p=3, e=2)
    terms = upper_eta_series(G).series.terms
    whole = whole_subgroup(G)
    for K, step in zip(terms, terms[1:]):
        want = oracles.eta_over_by_join(G, K, whole)
        assert step is _eta_over(G, K, whole) is want and step.bits == want.bits


def test_is_eta_series(groups):
    G = groups("heisenberg", p=3)
    rep = upper_eta_series(G)
    assert is_eta_series(G, rep.series.terms)
    assert is_eta_series(G, upper_central_series(G).terms)
    assert not is_eta_series(G, [trivial_subgroup(G), whole_subgroup(G)])
    with pytest.raises(ValueError):
        is_eta_series(G, [whole_subgroup(G)])
    with pytest.raises(ValueError):
        is_eta_series(G, [])


def test_eta_capability_obstruction():
    C9 = build_abelian(3, [2])
    assert eta_capability_obstruction(C9) == "nontrivial-cyclic"
    C99 = build_abelian(3, [2, 2])
    assert eta_capability_obstruction(C99) == "abelian-not-elementary-abelian"
    C33 = build_abelian(3, [1, 1])
    assert eta_capability_obstruction(C33) is None


def test_eta_capability_no_obstruction_for_heisenberg(groups):
    assert eta_capability_obstruction(groups("heisenberg", p=3)) is None


def test_uniserial_below_threshold(groups):
    us = uniserial_report(groups("heisenberg", p=3))
    assert not us.applicable
    assert us.coclass_r == 1 and us.m == 2


def test_uniserial_coclass_zero(groups):
    # C_p has coclass 0, as the trivial group has: the test needs r >= 1
    G = groups("abelian", p=3, exps=(1,))
    assert uniserial_report(G) == UniserialReport(applicable=False, coclass_r=0, m=0)
    assert analyze_group(G)["uniserial"] == {
        "applicable": False, "coclass": 0, "d": None, "m": 0, "s": None, "uniserial": None,
    }


def test_uniserial_mainline_3_7(groups):
    G = groups("mainline_coclass1", p=3, k=6)
    us = uniserial_report(G)
    assert us.applicable
    assert us.shift_s == 0 and us.d == 2
    assert us.uniserial is True
    assert all(ok for _, ok in us.power_shift_checks)
    # spot check the power-shift identity directly
    terms = lower_central_series(G).terms
    from pgroups.subgroups import power_subgroup

    assert power_subgroup(G, terms[1], 1).bits == terms[3].bits  # gamma_2^3 = gamma_4


def test_uniserial_factor_test_agrees_with_scan(groups):
    # for every m, not only the m of a report, so both answers occur
    instances = (
        list(cat.DEFAULT_SUITE)
        + [("mainline_coclass1", {"p": 3, "k": k}) for k in (7, 8, 9)]
        + [
            ("unitriangular", {"n": 4, "p": 3, "m": 1}),
            ("kirillov_quotient", {"p": 5, "e": 1}),
            ("wreath", {"p": 5}),
        ]
    )
    answers = []
    for name, params in instances:
        G = groups(name, **params)
        for m in range(1, nilpotency_class(G) + 2):
            got = _acts_uniserially(G, m)
            assert got == oracles.uniserial_by_scan(G, m), (G.label, m)
            answers.append(got)
    assert (answers.count(True), answers.count(False)) == (80, 27)


def test_uniserial_report_is_computed_once(groups):
    for G in (groups("heisenberg", p=3), groups("mainline_coclass1", p=3, k=6)):
        assert uniserial_report(G) is uniserial_report(G)


def test_pwc_coclass_bound(groups):
    for name, params in [
        ("heisenberg", {"p": 3}),
        ("mann_nonpf", {"p": 3}),
        ("mainline_coclass1", {"p": 3, "k": 6}),
        ("potent_nopwc", {"p": 5, "n": 1}),
    ]:
        assert pwccoclass_bound_check(groups(name, **params))


def test_random_eta_series_stay_below_upper(groups):
    G = groups("wreath", p=3)
    rep = upper_eta_series(G)
    rng = random.Random(123)
    for _ in range(25):
        series = oracles.random_eta_series(G, rng)
        assert is_eta_series(G, series)
        for i, term in enumerate(series):
            upper = rep.series.terms[i] if i < len(rep.series.terms) else rep.series.terms[-1]
            assert term <= upper


def test_random_normal_chains_that_are_eta_series_stay_below_upper(groups):
    # chains assembled straight from the normal-subgroup lattice, independent
    # of the generator behind oracles.random_eta_series
    total_found = 0
    for name, params in [("wreath", {"p": 3}), ("mann_nonpf", {"p": 3})]:
        G = groups(name, **params)
        rep = upper_eta_series(G)
        normals = sorted(
            enumerate_normal_subgroups(G), key=lambda s: (s.order, s.bits)
        )
        rng = random.Random(f"chains|{name}")
        for _ in range(400):
            chain = [trivial_subgroup(G)]
            for N in normals:
                if chain[-1] <= N and chain[-1].bits != N.bits and rng.random() < 0.5:
                    chain.append(N)
            if not chain[-1].is_whole() or len(chain) < 2:
                continue
            if is_eta_series(G, chain):
                total_found += 1
                for i, term in enumerate(chain):
                    upper = (
                        rep.series.terms[i]
                        if i < len(rep.series.terms)
                        else rep.series.terms[-1]
                    )
                    assert term <= upper
    assert total_found > 0


def test_eta_of_quotient_matches_quotient_of_eta(groups):
    # eta_i(G/eta_1) = eta_{i+1}/eta_1 spot instance
    G = groups("mann_nonpf", p=3)
    rep = upper_eta_series(G)
    Q, proj = quotient(G, rep.series.terms[1])
    qrep = upper_eta_series(Q)
    assert qrep.powerful_class == rep.powerful_class - 1
    for i in range(qrep.powerful_class + 1):
        want = proj.image_bits(rep.series.terms[min(i + 1, rep.powerful_class)].bits)
        got = qrep.series.terms[min(i, qrep.powerful_class)].bits
        assert got == want


def test_lattice_eta_machinery_matches_quotient_oracle(groups):
    # G's lattice versus quotient groups: series, steps and the eta-series test
    from pgroups import catalog as cat

    non_eta = 0
    for name, params in cat.suite_instances(729):
        G = groups(name, **params)
        rep = upper_eta_series(G)
        terms, steps = oracles.quotient_upper_eta_series(G)
        assert [t.bits for t in rep.series.terms] == terms, name
        assert [(s.quotient_order, s.eta_of_quotient_order) for s in rep.steps] == steps
        rng = random.Random(f"oracle|{cat.instance_key(name, params)}")
        chains = [oracles.random_eta_series(G, rng) for _ in range(5)]
        chains.append([trivial_subgroup(G), whole_subgroup(G)])
        chains.append(list(reversed(lower_central_series(G).terms)))
        for chain in chains:
            want = oracles.quotient_is_eta_series(G, chain)
            assert is_eta_series(G, chain) == want, name
            non_eta += not want
    assert non_eta > 0
