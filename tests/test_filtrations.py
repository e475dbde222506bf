import pytest

from pgroups import build_abelian, filtrations
from pgroups import catalog as cat
from pgroups.errors import NotAnEtaSeries, ValidationFailed
from pgroups.eta_series import upper_eta_series
from pgroups.filtrations import (
    PotentFiltration,
    is_pf_embedded,
    is_pf_group,
    is_potent,
    is_power_surjective,
    omega_exponent_check,
    pf_embedding_witness,
    small_height_filtration,
)
from pgroups.subgroups import center, enumerate_normal_subgroups, trivial_subgroup, whole_subgroup

import oracles


def test_is_potent(groups):
    assert is_potent(groups("potent_nopwc", p=5, n=1))
    assert not is_potent(groups("heisenberg", p=3))  # gamma_2 = Z != 1 = G^3
    assert is_potent(groups("heisenberg", p=5))  # class 2 < p-1
    assert is_potent(groups("modular", p=3))


def test_power_surjectivity(groups):
    A = build_abelian(3, [2, 2])
    assert is_power_surjective(A, 1) and is_power_surjective(A, 2)
    assert not is_power_surjective(groups("mann_nonpf", p=3), 1)
    assert is_power_surjective(groups("modular", p=3), 1)
    with pytest.raises(ValueError):
        is_power_surjective(A, 0)


def test_pf_witness_heisenberg(groups):
    G = groups("heisenberg", p=3)
    filt = pf_embedding_witness(G, whole_subgroup(G))
    assert filt is not None
    filt.validate()
    assert filt.terms[0].is_whole() and filt.terms[-1].is_trivial()
    assert is_pf_group(G)


def test_pf_witness_is_computed_once_per_subgroup(groups):
    G = groups("heisenberg", p=3)
    for N in (whole_subgroup(G), center(G), trivial_subgroup(G)):
        assert pf_embedding_witness(G, N) is pf_embedding_witness(G, N)


def test_pf_witness_of_trivial_subgroup(groups):
    G = groups("heisenberg", p=3)
    filt = pf_embedding_witness(G, trivial_subgroup(G))
    assert filt is not None and len(filt) == 1


def test_mann_nonpf_is_not_pf(groups):
    G = groups("mann_nonpf", p=3)
    assert pf_embedding_witness(G, whole_subgroup(G)) is None
    assert not is_pf_group(G)


def test_pf_witness_caches_a_none_answer(monkeypatch):
    # mann_nonpf is not PF: the None answer is stored, and the search runs once
    G = cat.catalog_build("mann_nonpf", p=3)
    calls = [0]
    search = filtrations._pf_search

    def counting(G, N):
        calls[0] += 1
        return search(G, N)

    monkeypatch.setattr(filtrations, "_pf_search", counting)
    whole = whole_subgroup(G)
    assert pf_embedding_witness(G, whole) is None
    assert pf_embedding_witness(G, whole) is None
    assert calls[0] == 1


def test_mainline_3_7_is_not_pf(groups):
    assert not is_pf_group(groups("mainline_coclass1", p=3, k=6))


def test_pf_witness_matches_closure_search(groups):
    # the search scans the lattice interval [[K, G], K) below each node K and
    # reads [K, G] and M^p off the lattice; the oracle scans every member and
    # takes closures: the same decision and the same witness on every normal
    # subgroup of every catalog group of order <= 243
    cases = [groups(name, **params) for name, params in cat.suite_instances(243)]
    cases += cat.catalog_instances("order27_all")
    decided = set()
    for G in cases:
        for N in enumerate_normal_subgroups(G):
            filt = pf_embedding_witness(G, N)
            got = None if filt is None else [T.bits for T in filt.terms]
            assert got == oracles.pf_witness_by_closures(G, N), (G.label, N.order)
            decided.add(filt is None)
    assert decided == {True, False}


def test_pf_embedded_proper_subgroup(groups):
    G = groups("mann_nonpf", p=3)
    # the center is PF-embedded even though G itself is not a PF-group
    assert is_pf_embedded(G, center(G))


def test_small_height_filtration_heisenberg(groups):
    G = groups("heisenberg", p=3)
    rep = upper_eta_series(G)
    filt = small_height_filtration(G, whole_subgroup(G), rep.series.terms)
    filt.validate()
    assert filt.terms[0].is_whole()
    assert filt.terms[-1].is_trivial()
    orders = [t.order for t in filt.terms]
    assert orders[0] == 27 and sorted(orders, reverse=True) == orders


def test_small_height_filtration_trivial_subgroup(groups):
    G = groups("heisenberg", p=3)
    filt = small_height_filtration(G, trivial_subgroup(G), [trivial_subgroup(G)])
    assert len(filt.terms) == 1


def test_small_height_filtration_validates_input(groups):
    G = groups("heisenberg", p=3)
    with pytest.raises(NotAnEtaSeries):
        small_height_filtration(
            G, whole_subgroup(G), [trivial_subgroup(G), whole_subgroup(G)]
        )  # [1, G] is not an eta-series for non-powerful G
    M = groups("mann_nonpf", p=3)
    rep = upper_eta_series(M)
    with pytest.raises(NotAnEtaSeries):
        # length 3 > p-1 = 2
        small_height_filtration(M, whole_subgroup(M), rep.series.terms)
    with pytest.raises(NotAnEtaSeries):
        # series does not end at N
        small_height_filtration(G, center(G), upper_eta_series(G).series.terms)


def test_small_height_filtration_potent_nopwc(groups):
    G = groups("potent_nopwc", p=5, n=1)
    rep = upper_eta_series(G)
    assert rep.powerful_class == 4  # = p - 1, small
    filt = small_height_filtration(G, whole_subgroup(G), rep.series.terms)
    filt.validate()
    assert pf_embedding_witness(G, whole_subgroup(G)) is not None


def test_potent_filtration_validation_catches_junk(groups):
    G = groups("heisenberg", p=3)
    bad = PotentFiltration(G, [whole_subgroup(G), trivial_subgroup(G)])
    with pytest.raises(ValidationFailed):
        bad.validate()  # [G, G] = Z is not <= 1


def test_omega_exponent_check_abelian():
    G = build_abelian(3, [2, 2])
    om = omega_exponent_check(G)
    assert om.ell == 1
    assert [(r.i, r.omega_order, r.omega_exponent) for r in om.rows] == [
        (1, 9, 3),
        (2, 81, 9),
    ]
    for r in om.rows:
        assert r.omega_exponent <= r.bound


def test_omega_exponent_check_heisenberg(groups):
    om = omega_exponent_check(groups("heisenberg", p=3))
    assert om.powerful_class == 2 and om.ell == 1
    assert len(om.rows) == 1
    assert om.rows[0].omega_order == 27 and om.rows[0].omega_exponent == 3
    assert om.rows[0].bound == 9


def test_omega_exponent_check_mann(groups):
    om = omega_exponent_check(groups("mann_nonpf", p=3))
    assert om.powerful_class == 3 and om.ell == 2
    for r in om.rows:
        assert r.omega_exponent <= 3 ** (r.i + om.ell)
