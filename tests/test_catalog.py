import pytest

from pgroups.catalog import (
    DEFAULT_SUITE,
    ENTRIES,
    catalog_build,
    catalog_instances,
    catalog_list,
    expected_record,
    instance_key,
    resolve_params,
    suite_instances,
)
from pgroups.errors import NotOddPrime, ParamOutOfRange, UnknownName
from pgroups.eta_series import upper_eta_series
from pgroups.subgroups import (
    center,
    is_maximal_class,
    nilpotency_class,
    upper_central_series,
)


def test_catalog_list_contents():
    names = catalog_list()
    for want in [
        "heisenberg",
        "modular",
        "order27_all",
        "abelian",
        "unitriangular",
        "mann_nonpf",
        "potent_nopwc",
        "kirillov_quotient",
        "mainline_coclass1",
        "wreath",
    ]:
        assert want in names


def test_unknown_name():
    with pytest.raises(UnknownName):
        catalog_build("quaternion")


def test_param_validation():
    with pytest.raises(ParamOutOfRange):
        catalog_build("mainline_coclass1", p=3)  # k required
    with pytest.raises(ParamOutOfRange):
        catalog_build("potent_nopwc", p=3, n=1)  # needs p > 3
    with pytest.raises(ParamOutOfRange):
        catalog_build("heisenberg", p=3, bogus=1)
    with pytest.raises(NotOddPrime):
        catalog_build("heisenberg", p=2)
    with pytest.raises(ParamOutOfRange):
        catalog_build("mainline_coclass1", p=3, k=0)
    with pytest.raises(ParamOutOfRange):
        resolve_params("abelian", {"exps": ()})  # no group is built to reject it


# one instance per entry beyond DEFAULT_SUITE, each under the element cap
_MORE_INSTANCES = [
    ("heisenberg", {"p": 7}),
    ("modular", {"p": 5}),
    ("abelian", {"p": 5, "exps": (2, 1)}),
    ("unitriangular", {"n": 4, "p": 3, "m": 1}),
    ("mann_nonpf", {"p": 5}),
    ("wreath", {"p": 5}),
    ("kirillov_quotient", {"p": 5, "e": 1}),
    ("mainline_coclass1", {"p": 5, "k": 6}),
    ("order27_all", {}),
]


def test_each_entry_states_the_order_it_builds(groups):
    # the cap and the suite's order filter read the stated order, not a built group
    for name, params in DEFAULT_SUITE + _MORE_INSTANCES:
        full = resolve_params(name, params)
        order = full["p"] ** ENTRIES[name].order_exponent(full)
        built = [groups(name, **params)] if name != "order27_all" else catalog_instances(name)
        assert [G.order for G in built] == [order] * len(built), (name, params)
    assert len(catalog_instances("order27_all")) == 5
    assert {name for name, _ in DEFAULT_SUITE + _MORE_INSTANCES} == set(ENTRIES)


def test_order27_all_expands_to_five(groups):
    gs = catalog_instances("order27_all")
    assert len(gs) == 5
    assert all(G.order == 27 for G in gs)
    exps = sorted(G.exponent() for G in gs)
    assert exps == [3, 3, 9, 9, 27]
    abelian_count = sum(1 for G in gs if G.is_abelian())
    assert abelian_count == 3
    with pytest.raises(ParamOutOfRange):
        catalog_build("order27_all")


def test_mann_nonpf_p3_shape(groups):
    G = groups("mann_nonpf", p=3)
    assert G.order == 3**5
    assert nilpotency_class(G) == 3


def test_potent_nopwc_shape(groups):
    G = groups("potent_nopwc", p=5, n=1)
    assert G.order == 5**5 == 3125
    back = G.backend
    assert back.M.order == 5**4
    orders = sorted(back.M.element_order(g) for g in back.M.generators)
    assert orders == [5, 5, 25]  # |x_1| = 25, |x_2| = |x_3| = 5


def test_mainline_family(groups):
    for k in range(2, 7):
        G = groups("mainline_coclass1", p=3, k=k)
        assert G.order == 3 ** (k + 1)
        assert nilpotency_class(G) == k
        assert is_maximal_class(G) == (k >= 3)


def test_mainline_class_one():
    G = catalog_build("mainline_coclass1", p=3, k=1)
    assert G.order == 9 and G.is_abelian()


def test_mainline_p5_beyond_ramification_degree():
    # k > p-1 exercises the rewrite of the top basis power of (zeta - 1)
    G = catalog_build("mainline_coclass1", p=5, k=5)
    assert G.order == 5**6
    assert nilpotency_class(G) == 5  # certified by the builder's oracle too
    assert is_maximal_class(G)


def test_wreath_cross_checks_mainline(groups):
    # same order and the same maximal-class profile (they need not be isomorphic)
    W = groups("wreath", p=3)
    M = groups("mainline_coclass1", p=3, k=3)
    assert W.order == M.order == 81
    assert nilpotency_class(W) == nilpotency_class(M) == 3
    assert is_maximal_class(W) and is_maximal_class(M)
    assert upper_central_series(W).orders() == upper_central_series(M).orders()
    assert center(W).order == center(M).order == 3


def test_kirillov_quotient_shape(groups):
    G = groups("kirillov_quotient", p=3, e=2)
    assert G.order == 3**8
    assert G.exponent() == 9


def test_expected_records_complete():
    for name, params in DEFAULT_SUITE:
        record = expected_record(name, params)
        assert record is not None, f"missing expected record for {name} {params}"
        for field, cell in record.items():
            assert set(cell) == {"v", "src"}
            assert cell["src"] in ("known", "arith", "computed"), field


def test_instance_key_is_canonical():
    assert instance_key("heisenberg", {"p": 3}) == "heisenberg|p=3"
    assert (
        instance_key("abelian", {"p": 3, "exps": (2, 1)}) == "abelian|exps=2.1|p=3"
    )


def test_suite_instances_order_filter():
    small = suite_instances(81)
    assert ("mann_nonpf", {"p": 3}) not in small
    assert ("heisenberg", {"p": 3}) in small
    everything = suite_instances(None)
    assert len(everything) == len(DEFAULT_SUITE)


def test_potent_nopwc_center_is_power_of_x1(groups):
    G = groups("potent_nopwc", p=5, n=1)
    back = G.backend
    x1 = back.encode(0, back.M.generators[0])
    z = center(G)
    assert z.order == 5
    assert G.pow(x1, 5) in z


def test_mainline_eta_series_equals_upper_central(groups):
    for k in (3, 6):
        G = groups("mainline_coclass1", p=3, k=k)
        eta_terms = upper_eta_series(G).series.terms
        z_terms = upper_central_series(G).terms
        assert len(eta_terms) == len(z_terms)
        assert all(a.bits == b.bits for a, b in zip(eta_terms, z_terms))
