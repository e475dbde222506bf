import pytest
from hypothesis import given, settings, strategies as st

from pgroups import build_abelian
from pgroups.errors import BudgetExceeded, InvariantViolation, NotNormal
from pgroups.subgroups import (
    center,
    closure,
    coclass,
    commutator_subgroup,
    enumerate_normal_subgroups,
    frattini,
    is_maximal_class,
    iterated_commutator,
    join,
    lower_central_series,
    minimal_generator_count,
    nilpotency_class,
    normal_closure,
    omega_subgroup,
    power_image,
    power_subgroup,
    quotient,
    subgroup_as_group,
    trivial_subgroup,
    upper_central_series,
    whole_subgroup,
)

import oracles


# -- closure -------------------------------------------------------------------


def test_closure_empty_is_trivial(groups):
    G = groups("heisenberg", p=3)
    assert closure(G, []).order == 1


def test_closure_of_generators_is_whole(groups):
    for name, params in [("heisenberg", {"p": 3}), ("wreath", {"p": 3})]:
        G = groups(name, **params)
        assert closure(G, G.generators).is_whole()


def test_closure_central_generator(groups):
    G = groups("heisenberg", p=3)
    g3 = G.generators[2]
    H = closure(G, [g3])
    assert H.order == 3
    table = oracles.mul_table(G)
    assert set(H.elements()) == set(oracles.naive_closure(table, [g3]))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=26), max_size=3), st.booleans())
def test_closure_matches_oracle_and_is_idempotent(gens, use_modular):
    from pgroups.catalog import catalog_build

    G = catalog_build("modular" if use_modular else "heisenberg", p=3)
    table = oracles.mul_table(G)
    H = closure(G, gens)
    assert set(H.elements()) == set(oracles.naive_closure(table, gens))
    again = closure(G, list(H.elements()))
    assert again.bits == H.bits
    # monotone: adding a generator never shrinks the closure
    bigger = closure(G, list(gens) + [5])
    assert H.bits | bigger.bits == bigger.bits or 5 in H


# -- normal closure / normality ---------------------------------------------------


def test_normal_closure_heisenberg(groups):
    G = groups("heisenberg", p=3)
    N = normal_closure(G, [G.generators[0]])
    assert N.order == 9
    table = oracles.mul_table(G)
    assert oracles.naive_is_normal(table, set(N.elements()))
    assert set(N.elements()) >= set(oracles.naive_closure(table, [G.generators[0], G.generators[2]]))


def test_normal_closure_of_central_element_is_cyclic(groups):
    G = groups("heisenberg", p=3)
    z = next(x for x in center(G).elements() if x != 0)
    N = normal_closure(G, [z])
    assert N.bits == closure(G, [z]).bits


def test_is_normal(groups):
    G = groups("heisenberg", p=3)
    assert center(G).is_normal()
    H = closure(G, [G.generators[0]])  # <g1> is not normal: [g1, g2] = g3
    assert H.order == 3
    assert not H.is_normal()
    table = oracles.mul_table(G)
    assert not oracles.naive_is_normal(table, set(H.elements()))


# -- commutators -------------------------------------------------------------------


def test_commutator_trivial_cases(groups):
    G = groups("heisenberg", p=3)
    whole = whole_subgroup(G)
    assert commutator_subgroup(G, trivial_subgroup(G), whole).is_trivial()
    A = groups("abelian", p=3, exps=(2, 2))
    assert commutator_subgroup(A, whole_subgroup(A), whole_subgroup(A)).is_trivial()


def test_commutator_heisenberg_oracle(groups):
    G = groups("heisenberg", p=3)
    got = commutator_subgroup(G, whole_subgroup(G), whole_subgroup(G))
    assert got.bits == center(G).bits
    table = oracles.mul_table(G)
    want = oracles.naive_commutator_set(table, range(27), range(27))
    assert set(got.elements()) == set(want)


def test_commutator_nonnormal_arguments(groups):
    G = groups("heisenberg", p=3)
    A = closure(G, [G.generators[0]])
    B = closure(G, [G.generators[1]])
    got = commutator_subgroup(G, A, B)
    table = oracles.mul_table(G)
    want = oracles.naive_commutator_set(table, set(A.elements()), set(B.elements()))
    assert set(got.elements()) == set(want)


def test_iterated_commutator(groups):
    G = groups("heisenberg", p=3)
    N = whole_subgroup(G)
    assert iterated_commutator(G, N, 0).bits == N.bits
    assert iterated_commutator(G, N, 1).bits == lower_central_series(G).terms[1].bits
    assert iterated_commutator(G, N, 2).is_trivial()


# -- powers and omega ----------------------------------------------------------------


def test_power_subgroup_abelian():
    G = build_abelian(3, [2, 1])  # C9 x C3
    got = power_subgroup(G, whole_subgroup(G), 1)
    assert got.order == 3
    assert power_subgroup(G, whole_subgroup(G), 0).is_whole()
    table = oracles.mul_table(G)
    want = oracles.naive_power_set(table, range(G.order), 3, 1)
    assert set(power_image(G, whole_subgroup(G), 1)) == want


def test_power_subgroup_is_closure_of_image(groups):
    for name, params in [
        ("heisenberg", {"p": 3}),
        ("modular", {"p": 3}),
        ("wreath", {"p": 3}),
        ("mann_nonpf", {"p": 3}),
        ("unitriangular", {"n": 3, "p": 3, "m": 2}),
    ]:
        G = groups(name, **params)
        for N in (whole_subgroup(G), center(G)):
            for i in (1, 2):
                img = power_image(G, N, i)
                assert closure(G, sorted(img)).bits == power_subgroup(G, N, i).bits


def test_power_image_can_be_smaller_than_subgroup(groups):
    G = groups("mann_nonpf", p=3)
    back = G.backend
    x_p = back.encode(0, back.M.generators[-1])
    gp = power_subgroup(G, whole_subgroup(G), 1)
    assert x_p in gp
    assert x_p not in power_image(G, whole_subgroup(G), 1)


def test_power_large_exponent_is_trivial(groups):
    G = groups("modular", p=3)
    assert power_subgroup(G, whole_subgroup(G), 5).is_trivial()


def test_omega_subgroups(groups):
    G9 = build_abelian(3, [2, 1])
    assert omega_subgroup(G9, 0).is_trivial()
    assert omega_subgroup(G9, 1).order == 9
    H = groups("heisenberg", p=3)
    assert omega_subgroup(H, 1).is_whole()


# -- central series, frattini ----------------------------------------------------------


def test_center_oracle(groups):
    for name, params in [("heisenberg", {"p": 3}), ("modular", {"p": 3}), ("wreath", {"p": 3})]:
        G = groups(name, **params)
        table = oracles.mul_table(G)
        assert set(center(G).elements()) == oracles.naive_center(table)


def test_heisenberg_center_equals_derived_and_frattini(groups):
    G = groups("heisenberg", p=3)
    Z = center(G)
    assert Z.order == 3
    assert lower_central_series(G).terms[1].bits == Z.bits
    assert frattini(G).bits == Z.bits
    assert nilpotency_class(G) == 2


def test_abelian_series():
    G = build_abelian(3, [2, 2])
    assert center(G).is_whole()
    assert lower_central_series(G).terms[-1].is_trivial()
    assert len(lower_central_series(G).terms) == 2
    assert frattini(G).bits == power_subgroup(G, whole_subgroup(G), 1).bits
    assert nilpotency_class(G) == 1


def test_series_agree_on_class(groups):
    for name, params in [
        ("heisenberg", {"p": 3}),
        ("wreath", {"p": 3}),
        ("mann_nonpf", {"p": 3}),
        ("mainline_coclass1", {"p": 3, "k": 4}),
    ]:
        G = groups(name, **params)
        assert len(upper_central_series(G).terms) == len(lower_central_series(G).terms)


def test_frattini_is_intersection_of_maximals(groups):
    # oracle over all subgroups, for every suite group of order <= 3^4
    from pgroups.catalog import suite_instances

    for name, params in suite_instances(81):
        G = groups(name, **params)
        table = oracles.mul_table(G)
        subs = oracles.naive_all_subgroups(table)
        maximal = [S for S in subs if len(S) == G.order // G.p]
        meet = set(range(G.order))
        for S in maximal:
            meet &= S
        assert set(frattini(G).elements()) == meet, (name, params)


def test_commutator_is_symmetric_and_stays_inside_normal(groups):
    G = groups("mann_nonpf", p=3)
    whole = whole_subgroup(G)
    for N in enumerate_normal_subgroups(G):
        ng = commutator_subgroup(G, N, whole)
        gn = commutator_subgroup(G, whole, N)
        assert ng.bits == gn.bits
        assert ng.bits | N.bits == N.bits  # [N, G] <= N for normal N


def test_class_coclass_maximal(groups):
    W = groups("wreath", p=3)
    assert nilpotency_class(W) == 3
    assert coclass(W) == 1
    assert is_maximal_class(W)
    H = groups("heisenberg", p=3)
    assert coclass(H) == 1 and not is_maximal_class(H)  # order p^3 is too small
    M = groups("mann_nonpf", p=3)
    assert nilpotency_class(M) == 3
    assert coclass(M) == 2
    assert minimal_generator_count(M) == 2


# -- normal subgroup enumeration ----------------------------------------------------------


def test_enumerate_normal_counts():
    G = build_abelian(3, [1, 1])
    assert len(enumerate_normal_subgroups(G)) == 6  # 1, four C_3, G
    C27 = build_abelian(3, [3])
    assert len(enumerate_normal_subgroups(C27)) == 4


def test_enumerate_normal_oracle_small(groups):
    cases = [
        ("heisenberg", {"p": 3}),
        ("modular", {"p": 3}),
        ("abelian", {"p": 3, "exps": (1, 1, 1)}),
        ("unitriangular", {"n": 3, "p": 3, "m": 1}),
        ("mainline_coclass1", {"p": 3, "k": 2}),
        ("abelian", {"p": 3, "exps": (2, 2)}),
        ("wreath", {"p": 3}),
        ("mainline_coclass1", {"p": 3, "k": 3}),
    ]
    for name, params in cases:
        G = groups(name, **params)
        assert G.order <= 81
        table = oracles.mul_table(G)
        want = oracles.naive_normal_subgroups(table)
        got = {frozenset(N.elements()) for N in enumerate_normal_subgroups(G)}
        assert got == want, f"{name} {params}"


def test_enumerate_matches_central_extension_oracle(groups):
    from pgroups.catalog import suite_instances

    cases = suite_instances(729) + [("abelian", {"p": 3, "exps": (1, 1, 1, 1)})]
    for name, params in cases:
        G = groups(name, **params)
        got = {N.bits for N in enumerate_normal_subgroups(G)}
        assert got == oracles.central_extension_normal_subgroups(G), f"{name} {params}"


def test_enumerate_respects_budget(groups):
    G = groups("heisenberg", p=3)
    fresh = build_abelian(3, [1, 1, 1])
    with pytest.raises(BudgetExceeded):
        enumerate_normal_subgroups(fresh, budget=3)
    assert len(enumerate_normal_subgroups(G)) == 7  # cached, unaffected


def test_every_enumerated_subgroup_is_normal(groups):
    G = groups("wreath", p=3)
    table = oracles.mul_table(G)
    for N in enumerate_normal_subgroups(G):
        assert oracles.naive_is_normal(table, set(N.elements()))


# -- quotients and misc -----------------------------------------------------------------


def test_quotient_requires_normal(groups):
    G = groups("heisenberg", p=3)
    H = closure(G, [G.generators[0]])
    with pytest.raises(NotNormal):
        quotient(G, H)


def test_subgroup_as_group(groups):
    G = groups("wreath", p=3)
    gamma2 = lower_central_series(G).terms[1]
    S = subgroup_as_group(G, gamma2)
    assert S.order == gamma2.order
    assert S.is_abelian() == all(
        G.mul(a, b) == G.mul(b, a)
        for a in gamma2.elements()
        for b in gamma2.elements()
    )
    assert nilpotency_class(S) <= 2


def test_join_and_witnesses(groups):
    G = groups("heisenberg", p=3)
    a = closure(G, [G.generators[0]])
    b = closure(G, [G.generators[1]])
    assert join(G, [a, b]).is_whole()
    assert join(G, []).is_trivial()


def test_subgroup_series_validation(groups):
    from pgroups.subgroups import SubgroupSeries

    G = groups("heisenberg", p=3)
    with pytest.raises(InvariantViolation):
        SubgroupSeries("custom", "ascending", [whole_subgroup(G), trivial_subgroup(G)])
