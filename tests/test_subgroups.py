import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pgroups import build_abelian
from pgroups import catalog as cat
from pgroups import subgroups as sg
from pgroups.errors import BudgetExceeded, InvariantViolation, NotNormal
from pgroups.eta_series import upper_eta_series
from pgroups.groups import FiniteGroup, _from_flags, bits_iter
from pgroups.subgroups import (
    GroupTables,
    _tables,
    center,
    center_over,
    closure,
    coclass,
    commutator_subgroup,
    commutator_with_group,
    enumerate_normal_subgroups,
    frattini,
    is_maximal_class,
    iterated_commutator,
    join,
    lattice_interval,
    lower_central_series,
    minimal_generator_count,
    nilpotency_class,
    normal_closure,
    normal_hull,
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


# closures grow by cosets; orders 3^5, 3^6 and 3^7, with non-normal subgroups
CLOSURE_GROUPS = [
    ("mann_nonpf", {"p": 3}),
    ("unitriangular", {"n": 3, "p": 3, "m": 2}),
    ("mainline_coclass1", {"p": 3, "k": 6}),
]


@pytest.mark.parametrize("name, params", CLOSURE_GROUPS, ids=[n for n, _ in CLOSURE_GROUPS])
def test_coset_closures_match_the_former_orbit_closure(name, params, groups):
    G = groups(name, **params)
    rng = random.Random(f"closures {name}")
    for _ in range(12):
        gens = []
        for _ in range(rng.randint(1, 4)):
            x, y = rng.randrange(G.order), rng.randrange(G.order)
            gens.append(rng.choice([x, G.pth_map()[x], G.comm(x, y)]))
        H = closure(G, gens)
        assert (H.bits, H.witness_list()) == oracles.orbit_closure(G, gens), gens
        N = normal_closure(G, gens)
        assert (N.bits, N.witness_list()) == oracles.orbit_normal_closure(G, gens), gens


@pytest.mark.parametrize("name, params", CLOSURE_GROUPS, ids=[n for n, _ in CLOSURE_GROUPS])
def test_commutator_subgroup_of_non_normal_pairs_matches_the_naive_oracle(name, params, groups):
    G = groups(name, **params)
    table = oracles.word_mul_table(G)
    rng = random.Random(f"commutators {name}")
    pairs = 0
    for _ in range(200):
        A = closure(G, [rng.randrange(G.order)])
        B = closure(G, [rng.randrange(G.order) for _ in range(rng.randint(1, 2))])
        # the oracle scans for an inverse per pair, so keep |A||B| small
        if A.is_normal() and B.is_normal() or A.order * B.order > 2000:
            continue
        got = commutator_subgroup(G, A, B)
        want = oracles.naive_commutator_set(table, list(A.elements()), list(B.elements()))
        assert set(got.elements()) == set(want)
        pairs += 1
        if pairs == 5:
            break
    assert pairs == 5


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


def test_normal_power_subgroups_match_closure_oracle_on_kirillov():
    # M^(p^i) of a normal M is the first lattice member K with M <= pre^i(K),
    # pre the power map's preimage, scanned from low, the normal hull of the
    # p^i-th powers of M's witnesses.  On kirillov low lies strictly below
    # M^p for 9 members M, so those answers come from the preimages alone
    G = cat.catalog_build("kirillov_quotient", p=3, e=2)
    pth = G.pth_map()
    below = 0
    for M in enumerate_normal_subgroups(G):
        for i in (1, 2):
            want = oracles.closure_power_subgroup(G, M, i).bits
            assert power_subgroup(G, M, i).bits == want, (M.order, i)
        powers = {pth[w] for w in M.witness_list()}
        low = normal_hull(G, sum(1 << y for y in powers))
        below += low.bits != power_subgroup(G, M, 1).bits
    assert below == 9


def test_bits_of_matches_its_flag_definition():
    # _bits_of packs its elements into little-endian bytes; the definition
    # sets one flag per element and reads the flags back as binary digits
    import pgroups.subgroups as sg

    rng = random.Random(24)
    for n in (1, 2, 7, 8, 9, 27, 81, 243, 6561):
        cases = [[], list(range(n)), [n - 1], [0, 0]]
        cases += [rng.choices(range(n), k=rng.randrange(2 * n)) for _ in range(5)]
        for elems in cases:
            flags = bytearray(n)
            for y in elems:
                flags[y] = 1
            assert sg._bits_of(n, elems) == _from_flags(flags), (n, elems)
            assert sg._bits_of(n, set(elems)) == _from_flags(flags), (n, elems)


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


@pytest.mark.parametrize("p, k", [(3, 5), (5, 4), (7, 3)])
def test_enumerate_elementary_abelian_matches_gaussian_binomials(groups, p, k):
    # every subgroup of (C_p)^k is normal, and those of order p^j are the
    # j-dimensional subspaces of F_p^k
    G = groups("abelian", p=p, exps=(1,) * k)
    counts = Counter(N.order for N in enumerate_normal_subgroups(G))
    assert counts == {p**j: oracles.gaussian_binomial(k, j, p) for j in range(k + 1)}


@pytest.mark.parametrize("lam", [(2, 1), (2, 2)], ids=["2,1", "2,2"])
def test_birkhoff_counts_match_brute_force(groups, lam):
    G = groups("abelian", p=3, exps=lam)
    counts = Counter(len(N) for N in oracles.naive_normal_subgroups(oracles.mul_table(G)))
    assert counts == oracles.abelian_subgroup_counts(lam, 3)


@pytest.mark.parametrize(
    "p, lam",
    [(3, (3, 2, 1)), (3, (2, 2, 2)), (3, (3, 3, 2)), (5, (2, 1, 1)), (5, (2, 2, 1)), (7, (3, 2))],
    ids=["3-3,2,1", "3-2,2,2", "3-3,3,2", "5-2,1,1", "5-2,2,1", "7-3,2"],
)
def test_enumerate_abelian_matches_birkhoff_counts(groups, p, lam):
    # every subgroup of an abelian group is normal, and those of each type
    # are counted by Birkhoff's formula
    G = groups("abelian", p=p, exps=lam)
    counts = Counter(N.order for N in enumerate_normal_subgroups(G))
    assert counts == oracles.abelian_subgroup_counts(lam, p)


def test_enumerate_matches_central_extension_oracle(groups):
    from pgroups.catalog import suite_instances

    cases = suite_instances(729) + [("abelian", {"p": 3, "exps": (1, 1, 1, 1)})]
    for name, params in cases:
        G = groups(name, **params)
        got = {N.bits for N in enumerate_normal_subgroups(G)}
        assert got == oracles.central_extension_normal_subgroups(G), f"{name} {params}"


def _bfs_oracle_cases():
    from pgroups.catalog import suite_instances

    return suite_instances(729) + [
        ("abelian", {"p": 3, "exps": (1, 1, 1, 1)}),
        ("unitriangular", {"n": 4, "p": 3, "m": 1}),
    ]


def test_enumerate_matches_bfs_oracle_with_witnesses(groups):
    for name, params in _bfs_oracle_cases():
        G = groups(name, **params)
        got = [(N.bits, N.witness_list()) for N in enumerate_normal_subgroups(G)]
        want = [(N.bits, N.witness_list()) for N in oracles.bfs_normal_subgroups(G)]
        assert got == want, f"{name} {params}"


def _fresh_groups():
    for name, params in _bfs_oracle_cases():
        yield cat.catalog_build(name, **params)
    W = cat.catalog_build("wreath", p=3)
    yield quotient(W, center(W))[0]
    yield quotient(W, whole_subgroup(W))[0]  # order 1


def test_derived_subgroups_match_closure_oracles():
    # fresh groups, queried before any enumeration: the first lookup
    # enumerates the lattice
    for G in _fresh_groups():
        assert "normals" not in G.cache, G.label
        for i in (1, 2):
            want = oracles.closure_omega_subgroup(G, i).bits
            assert omega_subgroup(G, i).bits == want, f"{G.label} i={i}"
        whole = whole_subgroup(G)
        gens = oracles.closure_power_subgroup(G, whole, 1).witness_list()
        gens += oracles.closure_commutator_with_group(G, whole).witness_list()
        assert frattini(G).bits == closure(G, gens).bits, G.label
        for M in enumerate_normal_subgroups(G):
            want = oracles.closure_commutator_with_group(G, M).bits
            assert commutator_with_group(G, M).bits == want, G.label
            for i in (1, 2):
                want = oracles.closure_power_subgroup(G, M, i).bits
                assert power_subgroup(G, M, i).bits == want, f"{G.label} i={i}"


def test_lower_central_series_never_enumerates():
    from pgroups.fileformat import loads

    doc = (
        '{"format": "pgroup-v1", "prime": 3, "kind": "pc", "ngens": 3, '
        '"powers": {}, "conjugates": {"2,1": [[2, 1], [3, 1]]}}'
    )
    (H,) = loads(doc)
    assert len(lower_central_series(H).terms) == 3
    assert "normals" not in H.cache


def test_enumeration_gathers_once_per_distinct_key(monkeypatch):
    # each map f of the candidate test (x -> x^p, x -> [x, g_k]) sends every
    # x into its image I_f, so f^-1(N) depends only on N n I_f: one gather
    # per map and per distinct key, and none for the map onto {1} (a central
    # generator's), 42 on kirillov where one gather of every map per
    # distinct N n I, I the union of the images, took 4 x 38 = 152
    import pgroups.subgroups as sg

    calls = [0]
    gathered = sg._gathered_preimage

    def counting(*args):
        calls[0] += 1
        return gathered(*args)

    monkeypatch.setattr(sg, "_gathered_preimage", counting)
    G = cat.catalog_build("kirillov_quotient", p=3, e=2)
    normals = enumerate_normal_subgroups(G)
    T = sg._tables(G)
    images = [sg._bits_of(G.order, set(f)) for f in [T.pth, *T.comm_maps]]
    keys = [len({M.bits & image for M in normals}) for image in images]
    assert (len(normals), keys) == (345, [32, 7, 3, 1])
    assert images[3] == 1
    assert calls[0] == sum(keys[:3]) == 42


def test_lattice_interval_matches_filtered_lattice(groups):
    # every member M with lo <= M <= hi, in lattice order, and the exact
    # reverse when descending; lo is a member or an element set that is no
    # subgroup, hi a member or None (G)
    rng = random.Random(25)
    for name, params in cat.suite_instances(729):
        G = groups(name, **params)
        normals = enumerate_normal_subgroups(G)
        members = [M.bits for M in normals]
        sets = [rng.getrandbits(G.order) for _ in range(3)]
        sets += [1 | sum(1 << rng.randrange(G.order) for _ in range(2)) for _ in range(3)]
        sets = [S for S in sets if S not in members]
        assert sets, G.label
        for lo in members + sets:
            for hi in members + [None]:
                top = (1 << G.order) - 1 if hi is None else hi
                want = [M for M in normals if lo | M.bits == M.bits and M.bits | top == top]
                got = list(lattice_interval(G, lo, hi))
                assert [id(M) for M in got] == [id(M) for M in want], (G.label, lo, hi)
                down = list(lattice_interval(G, lo, hi, descending=True))
                assert [id(M) for M in down] == [id(M) for M in reversed(want)], G.label


def test_enumeration_of_the_trivial_group():
    # with one element, an itemgetter over the power map returns a scalar
    G = cat.catalog_build("heisenberg", p=3)
    Q, _ = quotient(G, whole_subgroup(G))
    assert Q.order == 1
    assert [(N.bits, N.witness_list()) for N in enumerate_normal_subgroups(Q)] == [(1, [])]


def test_center_over_matches_brute_force(groups):
    # center_over reads the enumerator's preimage memo of the commutator
    # maps; on every normal N it must be every x with [x, g] in N for all g
    cases = [groups(name, **params) for name, params in cat.suite_instances(243)]
    cases += cat.catalog_instances("order27_all")
    for G in cases:
        n = G.order
        table = oracles.mul_table(G)
        inv = [oracles.naive_inverse(table, x) for x in range(n)]
        comms = [[table[table[table[inv[x]][inv[g]]][x]][g] for g in range(n)] for x in range(n)]
        for N in enumerate_normal_subgroups(G):
            want = {x for x in range(n) if all((N.bits >> c) & 1 for c in comms[x])}
            assert set(center_over(G, N).elements()) == want, (G.label, N.order)


def test_tables_preimage_matches_its_definition(monkeypatch):
    # map 0 is x -> x^p and map k + 1 is x -> [x, g_k]; the preimage of a
    # set S is memoised per map on S n I_f, I_f the map's image
    import pgroups.subgroups as sg

    calls = [0]
    gathered = sg._gathered_preimage

    def counting(*args):
        calls[0] += 1
        return gathered(*args)

    monkeypatch.setattr(sg, "_gathered_preimage", counting)
    rng = random.Random(2023)
    M = cat.catalog_build("mainline_coclass1", p=3, k=4)
    Q = quotient(M, center(M))[0]  # order 81, images of sizes 3, 9, 3
    one = quotient(M, whole_subgroup(M))[0]  # order 1, the power map alone
    # on fresh tables: two sets that agree on the power map's image share
    # one gather, and a set that differs on it takes another
    T = _tables(Q)
    image = sg._bits_of(Q.order, set(T.pth))
    S = rng.getrandbits(Q.order)
    other = S ^ (rng.getrandbits(Q.order) & ~image)
    assert other != S and other & image == S & image
    calls[0] = 0  # center(M) gathered M's commutator maps
    assert T.preimage(S, [0]) == T.preimage(other, [0])
    assert calls[0] == 1
    T.preimage(S ^ (1 << max(bits_iter(image, Q.elements()))), [0])
    assert calls[0] == 2
    # a map with at most 255 image points is read through its label string,
    # a larger one through its gather: both sides of that switch are checked
    cyclic6 = cat.catalog_build("abelian", p=3, exps=(6,))  # power map image 243
    cyclic7 = cat.catalog_build("abelian", p=3, exps=(7,))  # power map image 729
    M6 = cat.catalog_build("mainline_coclass1", p=3, k=6)  # commutator image 243
    sizes = {}
    for G in (Q, one, cyclic6, cyclic7, M6):
        n, T = G.order, _tables(G)
        maps = [[G.pow(x, G.p) for x in range(n)]]
        maps += [[G.comm(x, g) for x in range(n)] for g in T.gens]
        sizes[G.label] = [len(set(f)) for f in maps]
        assert T.preimage(rng.getrandbits(n), []) == (1 << n) - 1, G.label
        for S in [0, 1, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
            want = [sum(1 << x for x in range(n) if (S >> f[x]) & 1) for f in maps]
            assert [T.preimage(S, [k]) for k in range(len(maps))] == want, G.label
            every = (1 << n) - 1
            for w in want:
                every &= w
            assert T.preimage(S, range(len(maps))) == every, G.label
    assert [sizes[G.label] for G in (cyclic6, cyclic7, M6)] == [[243, 1], [729, 1], [81, 243, 3]]


def _table_cases(groups):
    H = groups("heisenberg", p=3)
    return [
        H,  # pc
        groups("abelian", p=3, exps=(2, 1)),
        groups("unitriangular", n=3, p=3, m=1),
        groups("kirillov_quotient", p=3, e=1),  # semidirect
        quotient(H, center(H))[0],
        quotient(H, whole_subgroup(H))[0],  # order 1, no generators
        build_abelian(3, [2]),  # cyclic: one generator, cosets of |N| = 1
        groups("mainline_coclass1", p=3, k=3),  # lists more generators than d(G)
    ]


def _counted(G, fn):
    """fn() and the number of G.mul calls it makes."""
    calls = [0]
    mul = G.mul

    def counting(a, b):
        calls[0] += 1
        return mul(a, b)

    G.mul = counting
    try:
        return fn(), calls[0]
    finally:
        G.mul = mul


def _is_subsequence(short, long):
    it = iter(long)
    return all(x in it for x in short)


def _check_tables(G, T):
    n, gens = G.order, T.gens
    assert _is_subsequence(gens, G.generators), G.label
    assert len(gens) == minimal_generator_count(G), G.label
    assert len(T.right) == len(T.comm_maps) == len(gens), G.label
    assert T.pth == [G.pow(x, G.p) for x in range(n)], G.label
    for k, g in enumerate(gens):
        assert T.right[k] == [G.mul(x, g) for x in range(n)], G.label
        assert T.comm_maps[k] == [G.comm(x, g) for x in range(n)], G.label
    for x in range(n):
        y = 0
        for k in T.word(x):
            y = G.mul(y, gens[k])
        assert y == x, G.label
        assert T.right_mul([0, x], x) == [x, G.mul(x, x)], G.label


def test_lattice_tables_agree_with_backend_arithmetic(groups):
    for G in _table_cases(groups):
        G.pth_map()
        # every backend hands over its right tables: a root group's filled in
        # bulk, a quotient's gathered through its parent's tables
        T, products = _counted(G, lambda: GroupTables(G, G.backend.right_table))
        assert products == 0, G.label
        _check_tables(G, T)
    # centre first: the greedy pass keeps z, x and y, and the prune drops z
    H = groups("heisenberg", p=3)
    x, y, z = H.generators
    G = FiniteGroup(
        3, H.order, H.mul, [z, x, y], label="heisenberg on (z, x, y)", backend=H.backend
    )
    G.pth_map()
    T, products = _counted(G, lambda: GroupTables(G, G.backend.right_table))
    assert T.gens == [x, y]
    assert products == 0
    _check_tables(G, T)
    # C_27 listed as g^9, g^3, g: the greedy pass keeps all three, and the
    # prune drops g^3 and then g^9, so the word tree is the last prune's reach
    C = build_abelian(3, [3])
    (g,) = C.generators
    G = FiniteGroup(
        3, C.order, C.mul, [C.pow(g, 9), C.pow(g, 3), g], label="C27 on (g^9, g^3, g)",
        backend=C.backend,
    )
    G.pth_map()
    T, products = _counted(G, lambda: GroupTables(G, G.backend.right_table))
    assert T.gens == [g]
    assert products == 0
    _check_tables(G, T)


def test_lattice_tables_edge_groups(groups):
    H = groups("heisenberg", p=3)
    trivial_quotient = quotient(H, whole_subgroup(H))[0]
    cyclic = build_abelian(3, [2])
    assert [N.bits for N in enumerate_normal_subgroups(trivial_quotient)] == [1]
    assert _tables(trivial_quotient).word(0) == []
    got = [(N.bits, N.witness_list()) for N in enumerate_normal_subgroups(cyclic)]
    assert got == [(N.bits, N.witness_list()) for N in oracles.bfs_normal_subgroups(cyclic)]
    assert [N.order for N in enumerate_normal_subgroups(cyclic)] == [1, 3, 9]
    # C_3 x C_3 with a generating list that only reaches the first factor
    C = build_abelian(3, [1, 1])
    G = FiniteGroup(
        3, C.order, C.mul, [C.generators[0]], label="C3xC3 on one generator", backend=C.backend
    )
    with pytest.raises(InvariantViolation):
        GroupTables(G, G.backend.right_table)
    with pytest.raises(InvariantViolation):
        enumerate_normal_subgroups(G)
    # UT_3(Z/3) listing one transvection, which generates a subgroup of order 3
    U = groups("unitriangular", n=3, p=3, m=1)
    G = FiniteGroup(
        3, U.order, U.mul, U.generators[:1], label="UT3 on one transvection", backend=U.backend
    )
    with pytest.raises(InvariantViolation):
        GroupTables(G, G.backend.right_table)
    with pytest.raises(InvariantViolation):
        enumerate_normal_subgroups(G)
    # its power walk reads the same tables, so it stops at the same check
    with pytest.raises(InvariantViolation):
        G.pth_map()


@pytest.mark.parametrize("level", [0, 1])
def test_enumeration_stalls_below_g(level):
    # a p-th power map that is not G's: with the identity, 1 has no
    # candidate besides itself; when it sends the first factor to 1 and
    # fixes every other element, the chief series stops at that factor
    G = build_abelian(3, [1, 1])
    first = closure(G, G.generators[:1])
    G._pth = [0 if level and x in first else x for x in G.elements()]
    with pytest.raises(InvariantViolation, match="stalled below G"):
        enumerate_normal_subgroups(G)


@pytest.mark.parametrize(
    "name, params, bound",
    [
        ("kirillov_quotient", {"p": 3, "e": 2}, 29_523),
        ("abelian", {"p": 3, "exps": (1, 1, 1, 1, 1)}, 1_578),
        ("unitriangular", {"n": 3, "p": 3, "m": 2}, 2_550),
        ("potent_nopwc", {"p": 5, "n": 1}, 10_155),
    ],
)
def test_enumeration_products_are_bounded(name, params, bound):
    # the bound allows d(G) |G| products for the tables and, for the
    # p-th powers, one walk per cyclic subgroup, fewer than p (|G| - 1) /
    # (p - 1); every root backend hands over its right tables, and the
    # abelian and semidirect ones their p-th powers, with none.  Cosets and
    # the candidate test are gathers, so a product per coset element fails
    G = cat.catalog_build(name, **params)
    _, products = _counted(G, lambda: enumerate_normal_subgroups(G))
    p, n = G.p, G.order
    assert bound == minimal_generator_count(G) * n + p * (n - 1) // (p - 1)
    assert products <= bound


def test_enumerate_respects_budget(groups):
    G = groups("heisenberg", p=3)
    fresh = build_abelian(3, [1, 1, 1])
    with pytest.raises(BudgetExceeded):
        enumerate_normal_subgroups(fresh, budget=3)
    assert len(enumerate_normal_subgroups(G)) == 7  # cached, unaffected


def test_budget_failure_mid_walk_leaves_no_lattice():
    # the walk stops at its sixth subgroup with the preimage memo partly
    # filled; a second walk over that memo finds what a fresh group finds
    G = cat.catalog_build("abelian", p=3, exps=(1, 1, 1))
    with pytest.raises(BudgetExceeded):
        enumerate_normal_subgroups(G, budget=5)
    assert "normals" not in G.cache
    fresh = cat.catalog_build("abelian", p=3, exps=(1, 1, 1))
    assert [(N.bits, N.witness_list()) for N in enumerate_normal_subgroups(G)] == [
        (N.bits, N.witness_list()) for N in enumerate_normal_subgroups(fresh)
    ]


def test_a_child_reached_twice_is_an_invariant_violation(monkeypatch):
    # the second child of 1 is made to come out as the first one
    G = cat.catalog_build("abelian", p=3, exps=(1, 1))
    coset_bits = sg._coset_bits
    first = []

    def colliding(G, T, elems, x):
        out = coset_bits(G, T, elems, x)
        if elems == [0]:  # a child of 1: each comes out as the first
            first.append(out)
            return first[0]
        return out

    monkeypatch.setattr(sg, "_coset_bits", colliding)
    with pytest.raises(InvariantViolation, match="reached twice"):
        enumerate_normal_subgroups(G)
    assert len(first) == 2
    assert "normals" not in G.cache


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_enumeration_recurses_once_per_chief_factor():
    # 2,664 normal subgroups over a chief series of length 5: a walk one
    # frame deep per level fits in 40 frames, one per subgroup would not
    G = cat.catalog_build("abelian", p=3, exps=(1,) * 5)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        normals = enumerate_normal_subgroups(G)
    finally:
        sys.setrecursionlimit(limit)
    assert len(normals) == 2_664


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
    # the eta terms that verify's class-of-terms builds as groups: their
    # gathered tables and power maps must agree with the subgroup's own mul
    for name, params in cat.suite_instances(729):
        G = groups(name, **params)
        for term in upper_eta_series(G).series.terms[1:]:
            if term.is_whole():
                continue
            S = subgroup_as_group(G, term)
            T = _tables(S)
            got = (T.right, S.pth_map(), [S.order_exponent(x) for x in S.elements()])
            assert got == oracles.product_tables(S, T.gens), (name, params, term.order)


@pytest.mark.parametrize(
    "name, params",
    [
        ("heisenberg", {"p": 3}),
        ("wreath", {"p": 3}),
        ("unitriangular", {"n": 3, "p": 3, "m": 1}),
        ("kirillov_quotient", {"p": 3, "e": 1}),
        ("mainline_coclass1", {"p": 3, "k": 4}),
    ],
)
def test_derived_groups_take_no_product_of_the_parent(name, params):
    # once G's tables and lattice exist, a quotient or a subgroup group is
    # gathered through them: its cosets, tables and power maps take no
    # product of G, and neither do the groups derived from it in turn
    G = cat.catalog_build(name, **params)
    normals = enumerate_normal_subgroups(G)
    cyclic = closure(G, [G.generators[0]])

    def derive():
        derived = [quotient(G, N)[0] for N in normals]
        derived += [subgroup_as_group(G, H) for H in [*normals, cyclic]]
        Q = derived[1]
        M = enumerate_normal_subgroups(Q)[1]
        derived += [quotient(Q, M)[0], subgroup_as_group(Q, M)]
        for D in derived:
            _tables(D)
            D.pth_map()
            D.exponent()
        return derived

    derived, products = _counted(G, derive)
    assert products == 0
    assert [D.order for D in derived[: len(normals)]] == [G.order // N.order for N in normals]


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
