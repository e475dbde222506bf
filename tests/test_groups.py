import random
import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from pgroups import (
    ELEMENT_CAP,
    FiniteGroup,
    InconsistentPresentation,
    InvalidWord,
    NotAbelian,
    NotAutomorphism,
    NotOddPrime,
    OrderMismatch,
    ParamOutOfRange,
    PcPresentation,
    SizeLimitExceeded,
    build_abelian,
    build_from_pc,
    build_semidirect,
    build_unitriangular,
    validate_odd_prime,
)
from pgroups import catalog as cat
from pgroups.groups import _PcBackend, _UnitriangularBackend
from pgroups.subgroups import _tables, center, quotient, trivial_subgroup, whole_subgroup

import oracles


def heisenberg_pres(p=3):
    return PcPresentation(p, 3, powers={}, conjugates={(2, 1): ((2, 1), (3, 1))})


# -- prime validation --------------------------------------------------------


@pytest.mark.parametrize("bad", [2, 4, 9, 1, 0, -3, 15])
def test_rejects_non_odd_primes(bad):
    with pytest.raises(NotOddPrime):
        validate_odd_prime(bad)


@pytest.mark.parametrize("p, message", [(2, "p = 2 is not supported"), (4, "4 is not prime"),
                                        (10, "10 is not prime")])
def test_even_numbers_are_named_as_given(p, message):
    with pytest.raises(NotOddPrime) as info:
        validate_odd_prime(p)
    assert str(info.value) == message


def test_every_constructor_rejects_two():
    with pytest.raises(NotOddPrime):
        build_abelian(2, [1, 1])
    with pytest.raises(NotOddPrime):
        build_unitriangular(3, 2, 1)
    with pytest.raises(NotOddPrime):
        build_from_pc(PcPresentation(2, 2))


# -- pc presentations ---------------------------------------------------------


def test_pc_single_generator_is_cyclic():
    G = build_from_pc(PcPresentation(3, 1))
    assert G.order == 3
    assert G.exponent() == 3
    assert G.element_order(G.generators[0]) == 3


def test_pc_heisenberg_matches_exhaustive_oracle():
    G = build_from_pc(heisenberg_pres())
    assert G.order == 27
    table = oracles.mul_table(G)
    # all 27 elements, identity excluded, have order 3
    assert {oracles.naive_element_order(table, x) for x in range(1, 27)} == {3}
    assert G.exponent() == 3
    for x in range(27):
        assert G.element_order(x) == oracles.naive_element_order(table, x)


def test_pc_self_referencing_relation_is_invalid():
    with pytest.raises(InvalidWord):
        build_from_pc(PcPresentation(3, 2, powers={1: ((1, 1),)}))


def test_pc_word_validation():
    with pytest.raises(InvalidWord):
        PcPresentation(3, 3, conjugates={(2, 1): ((1, 1),)}).validate()
    with pytest.raises(InvalidWord):
        PcPresentation(3, 3, powers={1: ((2, 5),)}).validate()
    with pytest.raises(InvalidWord):
        PcPresentation(3, 3, conjugates={(1, 2): ((3, 1),)}).validate()


def test_pc_inconsistent_presentation_detected():
    # g1^3 = g2 makes g2 a power of g1, contradicting g2^g1 = g2^2.
    pres = PcPresentation(
        3, 2, powers={1: ((2, 1),)}, conjugates={(2, 1): ((2, 2),)}
    )
    with pytest.raises(InconsistentPresentation):
        build_from_pc(pres)


def assert_same_arithmetic(G, H):
    assert G.order == H.order
    assert all(G.mul(x, g) == H.mul(x, g) for x in range(G.order) for g in G.generators)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pc_fuzz_builds_or_rejects_cleanly(data):
    # random relation words of valid pc shape: the tables must fill and the
    # overlap test must either certify a group of order 27 or raise
    # InconsistentPresentation, exactly as the exhaustive sweep over the
    # left collector decides
    def word(min_gen):
        gens = list(range(min_gen, 4))
        picked = data.draw(st.lists(st.sampled_from(gens), unique=True, max_size=len(gens)))
        return tuple(
            sorted((g, data.draw(st.integers(min_value=1, max_value=2))) for g in picked)
        )

    powers = {}
    for i in (1, 2):
        if data.draw(st.booleans()):
            powers[i] = word(i + 1)
    conjugates = {}
    for j, i in ((2, 1), (3, 1), (3, 2)):
        if data.draw(st.booleans()):
            conjugates[(j, i)] = word(j)
    pres = PcPresentation(3, 3, powers=powers, conjugates=conjugates)
    H = oracles.sweep_pc_group(pres)
    try:
        G = build_from_pc(pres)
    except InconsistentPresentation:
        assert H is None
        return
    assert H is not None
    assert G.order == 27
    assert_same_arithmetic(G, H)
    for x in (0, 5, 13, 26):
        assert G.mul(x, G.inv(x)) == 0
        assert G.element_order(x) in (1, 3, 9, 27)


@st.composite
def pc_presentations(draw):
    """Orders up to 3^5, 5^3 and 7^3; g_j^(g_i) = g_j^a w with w in g_(j+1)..g_n.

    An exponent a != 1 is always inconsistent, since g_i would act on the
    factor <g_j, ..., g_n>/<g_(j+1), ..., g_n> with order dividing p - 1 but
    not 1; the seeded pc benchmark plants the same fault.
    """
    p, most = draw(st.sampled_from([(3, 5), (5, 3), (7, 3)]))
    n = draw(st.integers(min_value=1, max_value=most))

    def tail(first):
        return tuple(
            (g, draw(st.integers(min_value=1, max_value=p - 1)))
            for g in range(first, n + 1)
            if draw(st.booleans())
        )

    powers = {i: tail(i + 1) for i in range(1, n + 1) if draw(st.booleans())}
    conjugates = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if draw(st.booleans()):
                a = draw(st.sampled_from([1, 1, 1] + list(range(2, p))))
                conjugates[(j, i)] = ((j, a),) + tail(j + 1)
    return PcPresentation(p, n, powers=powers, conjugates=conjugates)


@seed(2024)
@settings(max_examples=80, deadline=None)
@given(pc_presentations())
def test_pc_overlap_test_agrees_with_sweep_oracle(pres):
    H = oracles.sweep_pc_group(pres)
    try:
        G = build_from_pc(pres)
    except InconsistentPresentation:
        assert H is None
        # the library's product is a collection even for inconsistent input,
        # so it breaks associativity on some (x, y, g_i)
        back = _PcBackend(pres)
        mul, gens = back.mul, [back.generator(i) for i in range(1, pres.ngens + 1)]
        assert any(
            mul(mul(x, y), g) != mul(x, mul(y, g))
            for x in range(back.order)
            for y in range(back.order)
            for g in gens
        )
        return
    assert H is not None
    assert_same_arithmetic(G, H)


def class2_pres_3_8(extra_conjugates=()):
    """Order 3^8: g_1..g_5 of class 2 over the central g_6, g_7, g_8."""
    conjugates = {
        (2, 1): ((2, 1), (6, 1)),
        (3, 1): ((3, 1), (7, 1)),
        (4, 2): ((4, 1), (8, 1)),
        (5, 3): ((5, 1), (6, 1), (8, 2)),
        (5, 4): ((5, 1), (7, 1)),
    }
    conjugates.update(extra_conjugates)
    return PcPresentation(3, 8, powers={1: ((6, 1),), 2: ((7, 1),)}, conjugates=conjugates)


def test_pc_order_3_8_class_2_is_certified():
    G = build_from_pc(class2_pres_3_8())
    assert G.order == 3**8
    assert G.exponent() == 9
    _law_sample(G, samples=2000)


OVERLAP_FAULTS = [
    # g_1 does not commute with its own power g_1^3 = g_2
    pytest.param(
        "g_1^4",
        PcPresentation(3, 3, powers={1: ((2, 1),)}, conjugates={(2, 1): ((2, 1), (3, 1))}),
        id="power-power",
    ),
    # g_3 = g_2^3 commutes with g_1 as g_2 does, yet g_3^(g_1) = g_3 g_4
    pytest.param(
        "g_2^3 g_1",
        PcPresentation(3, 4, powers={2: ((3, 1),)}, conjugates={(3, 1): ((3, 1), (4, 1))}),
        id="power-conjugate",
    ),
    # Jacobi: g_3 centralizes g_1 and g_2, hence g_4 = [g_2, g_1], yet g_4^(g_3) = g_4 g_5
    pytest.param(
        "g_3 g_2 g_1",
        PcPresentation(3, 5, conjugates={(2, 1): ((2, 1), (4, 1)), (4, 3): ((4, 1), (5, 1))}),
        id="jacobi",
    ),
    # order 3^8, beyond any exhaustive sweep: only the tail <g_7, g_8> is wrong,
    # g_8^(g_7) = g_8^2 clashing with g_7^3 = 1
    pytest.param("g_8 g_7^3", class2_pres_3_8({(8, 7): ((8, 2),)}), id="order-3^8-tail"),
]


@pytest.mark.parametrize("overlap, pres", OVERLAP_FAULTS)
def test_pc_rejection_names_the_failing_overlap(overlap, pres):
    with pytest.raises(InconsistentPresentation, match=f"^overlap {re.escape(overlap)} "):
        build_from_pc(pres)
    if pres.p**pres.ngens <= 343:
        assert oracles.sweep_pc_group(pres) is None


# class 2 of order 3^7: g_1^3 = g_6, [g_2, g_1] = g_7, with g_6 and g_7 central
CLASS2_3_7 = PcPresentation(3, 7, powers={1: ((6, 1),)}, conjugates={(2, 1): ((2, 1), (7, 1))})

# the modular group of order 27: g_2 of order 9, g_2^(g_1) = g_2^4
MODULAR_27 = PcPresentation(3, 3, powers={2: ((3, 1),)}, conjugates={(2, 1): ((2, 1), (3, 1))})


def test_pc_inverse_is_one_power():
    G = build_from_pc(CLASS2_3_7)
    calls = [0]
    mul = G.mul

    def counting(a, b):
        calls[0] += 1
        return mul(a, b)

    G.mul = counting
    x = G.order - 1
    y = G.inv(x)
    assert calls[0] <= 2 * G.order.bit_length()
    assert G.inv(x) == y and calls[0] <= 2 * G.order.bit_length()
    assert mul(x, y) == 0 and mul(y, x) == 0


def test_pc_modular_group_exponent():
    G = build_from_pc(MODULAR_27)
    assert G.order == 27
    assert G.exponent() == 9


def _class4_pres_5_5(powers):
    """Order 5^5, class 4: g_j^(g_1) = g_j g_(j+1) for j = 2..4."""
    conjugates = {(j, 1): ((j, 1), (j + 1, 1)) for j in (2, 3, 4)}
    return PcPresentation(5, 5, powers=powers, conjugates=conjugates)


@pytest.mark.parametrize(
    "pres, exponent",
    [
        pytest.param(heisenberg_pres(), 3, id="heisenberg"),
        pytest.param(MODULAR_27, 9, id="modular-27"),
        pytest.param(class2_pres_3_8(), 9, id="class2-3^8"),
        pytest.param(CLASS2_3_7, 9, id="class2-3^7"),
        # class 4: multi-letter conjugates whose tails are not central
        pytest.param(_class4_pres_5_5({}), 5, id="class4-5^5"),
        # g_1^5 = g_5 != 1 takes the fill's branch through w_1 = g_1^p
        pytest.param(_class4_pres_5_5({1: ((5, 1),)}), 25, id="class4-5^5-power"),
    ],
)
def test_pc_filled_tables_match_collection(pres, exponent):
    G = build_from_pc(pres)
    assert G.exponent() == exponent
    ref = oracles.LeftCollector(pres)
    for i in range(1, pres.ngens + 1):
        assert G.backend._tab[i] == [ref.mul_gen(u, i) for u in range(G.order)]


@pytest.mark.parametrize(
    "pres",
    [
        # class 2: g_1^3 = g_4, g_2^3 = g_5 g_6^2, [g_2, g_1] = g_6,
        # [g_3, g_1] = g_5, [g_3, g_2] = g_4, with g_4, g_5, g_6 central
        pytest.param(
            PcPresentation(
                3, 6,
                powers={1: ((4, 1),), 2: ((5, 1), (6, 2))},
                conjugates={
                    (2, 1): ((2, 1), (6, 1)),
                    (3, 1): ((3, 1), (5, 1)),
                    (3, 2): ((3, 1), (4, 1)),
                },
            ),
            id="class2-3^6",
        ),
        # class 3: g_j^(g_1) = g_j g_(j+1) for j = 2, 3, and g_1^5 = g_4
        pytest.param(
            PcPresentation(
                5, 4,
                powers={1: ((4, 1),)},
                conjugates={(2, 1): ((2, 1), (3, 1)), (3, 1): ((3, 1), (4, 1))},
            ),
            id="class3-5^4",
        ),
        # class 2: g_1^5 = g_3, g_2^5 = g_4, [g_2, g_1] = g_3
        pytest.param(
            PcPresentation(
                5, 4, powers={1: ((3, 1),), 2: ((4, 1),)}, conjugates={(2, 1): ((2, 1), (3, 1))}
            ),
            id="class2-5^4",
        ),
        # class 2: g_1^7 = g_3, g_2^7 = g_3^2, [g_2, g_1] = g_3^3
        pytest.param(
            PcPresentation(
                7, 3, powers={1: ((3, 1),), 2: ((3, 2),)}, conjugates={(2, 1): ((2, 1), (3, 3))}
            ),
            id="class2-7^3",
        ),
    ],
)
def test_pc_power_map_matches_left_collection(pres):
    # the power walk folds the filled tables along each x's normal word;
    # the oracle collects x^p from the left, independently of those tables
    G = build_from_pc(pres)
    p = pres.p
    assert G.exponent() == p * p
    ref = oracles.LeftCollector(pres)
    expected = []
    for x in range(G.order):
        y = x
        for _ in range(p - 1):
            y = ref.mul(y, x)
        expected.append(y)
    assert G.pth_map() == expected


# -- unitriangular -------------------------------------------------------------


def test_unitriangular_two_by_two_is_cyclic():
    G = build_unitriangular(2, 3, 1)
    assert G.order == 3
    assert G.exponent() == 3


def test_unitriangular_heisenberg_fingerprint():
    G = build_unitriangular(3, 3, 1)
    H = build_from_pc(heisenberg_pres())
    assert G.order == H.order == 27
    ford = sorted(G.element_order(x) for x in G.elements())
    hord = sorted(H.element_order(x) for x in H.elements())
    assert ford == hord
    assert center(G).order == center(H).order == 3


def test_unitriangular_order_formula():
    G = build_unitriangular(3, 3, 2)
    assert G.order == 3**6
    assert build_unitriangular(4, 3, 1).order == 3**6


def test_unitriangular_coordinates_roundtrip():
    G = build_unitriangular(3, 3, 2)
    back = G.backend
    for x in [0, 1, 5, 100, 728]:
        assert back.index_of(back.matrix_of(x)) == x
    # generators are the superdiagonal transvections
    for i, g in enumerate(G.generators):
        mat = back.matrix_of(g)
        assert mat[i][i + 1] == 1


def test_unitriangular_build_takes_no_product(monkeypatch):
    # that the transvections generate is certified once, by the tables'
    # reach check, and not again by a sweep at build time
    calls = [0]
    mul = _UnitriangularBackend.mul

    def counting(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(_UnitriangularBackend, "mul", counting)
    G = build_unitriangular(3, 3, 2)
    assert calls[0] == 0
    assert _tables(G).gens == G.generators


def test_unitriangular_size_cap():
    with pytest.raises(SizeLimitExceeded):
        build_unitriangular(4, 5, 2)


# -- abelian --------------------------------------------------------------------


def test_abelian_basic():
    G = build_abelian(3, [2, 2])
    assert G.order == 81
    assert G.exponent() == 9
    assert G.is_abelian()
    assert build_abelian(3, [1]).order == 3
    assert build_abelian(5, [2, 1, 1, 1]).order == 5**5


def test_abelian_rejects_bad_exponents():
    with pytest.raises(ParamOutOfRange):
        build_abelian(3, [])
    with pytest.raises(ParamOutOfRange):
        build_abelian(3, [0, 1])


@settings(max_examples=50, deadline=None)
@given(
    exps=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_abelian_group_laws(exps, seed):
    G = build_abelian(3, exps)
    rng = random.Random(seed)
    n = G.order
    for _ in range(20):
        x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))
        assert G.mul(x, y) == G.mul(y, x)
        assert G.mul(x, G.inv(x)) == 0


# -- semidirect ------------------------------------------------------------------


def test_semidirect_trivial_action_is_direct_product():
    M = build_abelian(3, [1, 1])
    G = build_semidirect(M, list(M.generators), 1)
    assert G.order == 27
    assert G.is_abelian()


def test_semidirect_wrong_order_action():
    M = build_abelian(3, [2])
    g = M.generators[0]
    with pytest.raises(OrderMismatch):
        build_semidirect(M, [M.mul(g, g)], 1)  # g -> g^2 has order 6


def test_semidirect_not_an_automorphism():
    M = build_abelian(3, [2])
    g = M.generators[0]
    with pytest.raises(NotAutomorphism):
        build_semidirect(M, [M.pow(g, 3)], 1)  # g -> g^3 is not injective


def test_semidirect_images_that_are_not_a_homomorphism():
    M = build_abelian(3, [1, 2])
    g1, g2 = M.generators
    with pytest.raises(NotAutomorphism, match="do not define a homomorphism"):
        build_semidirect(M, [g2, g1], 1)  # swaps generators of orders 3 and 9


def test_semidirect_requires_abelian_base():
    H = build_from_pc(heisenberg_pres())
    with pytest.raises(NotAbelian):
        build_semidirect(H, list(H.generators), 1)


def test_semidirect_element_cap():
    M = build_abelian(3, [6, 5])  # 3^11 * 3 > element cap
    with pytest.raises(SizeLimitExceeded):
        build_semidirect(M, list(M.generators), 1)
    assert 3**12 > ELEMENT_CAP >= 3**11


# -- bulk backend tables ---------------------------------------------------------


@pytest.mark.parametrize(
    "name, params",
    [
        ("heisenberg", {"p": 5}),
        ("abelian", {"p": 5, "exps": (2, 1, 3)}),
        ("unitriangular", {"n": 4, "p": 3, "m": 1}),
        ("unitriangular", {"n": 3, "p": 3, "m": 2}),
        ("mann_nonpf", {"p": 3}),  # t = 2
        ("potent_nopwc", {"p": 5, "n": 1}),
        ("mainline_coclass1", {"p": 5, "k": 6}),
    ],
)
def test_backend_tables_agree_with_mul(name, params):
    # every root backend hands over its right tables, and the abelian and
    # semidirect ones their p-th power map, without a product; each must be
    # what the backend's own mul gives
    G = cat.catalog_build(name, **params)
    back = G.backend
    right, pth, _ = oracles.product_tables(G, G.generators)
    assert [back.right_table(g) for g in G.generators] == right
    if hasattr(back, "power_map"):
        assert back.power_map() == pth
    assert G.pth_map() == pth


def test_abelian_add_table_agrees_with_mul():
    G = build_abelian(5, [2, 1, 3])
    h = G.generators[0] * 7 + G.generators[1] * 3 + G.generators[2] * 101  # every digit nonzero
    assert all(G.backend.decode(h))
    assert G.backend.add_table(h) == [G.mul(x, h) for x in range(G.order)]


def test_commutator_maps_in_closed_form_agree_with_comm(groups):
    # the abelian backend's map is all identity, and the semidirect one's is
    # [(a, m), (b, h)] = (0, (alpha^b - 1)(m) + h - alpha^a(h)); each is checked
    # against G.comm for every listed generator and three other elements,
    # the last element among them (a = p^t - 1 and m != 0, so on kirillov,
    # t = 2, blocks with a != 0 and b >= 2), and each entry is G's own int
    checked = []
    for name, params in cat.DEFAULT_SUITE:
        G = groups(name, **params)
        if not hasattr(G.backend, "comm_map"):
            continue
        rng = random.Random(33)
        ints = G.elements()
        others = [x for x in ints[1:-1] if x not in G.generators]
        extra = rng.sample(others, 2) + [G.order - 1]
        assert G.order - 1 not in G.generators, G.label
        for g in G.generators + extra:
            got = G.backend.comm_map(g)
            assert got == [G.comm(x, g) for x in ints], (G.label, g)
            assert all(v is ints[v] for v in got), (G.label, g)
        checked.append((name, type(G.backend).__name__))
    assert len(checked) == 13
    assert {kind for _, kind in checked} == {"_AbelianBackend", "_SemidirectBackend"}
    assert ("kirillov_quotient", "_SemidirectBackend") in checked


# -- group laws on every built kind ----------------------------------------------


def _law_sample(G: FiniteGroup, samples: int, seed: int = 7):
    rng = random.Random(seed)
    n = G.order
    mul = G.mul
    for _ in range(samples):
        x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
    for _ in range(50):
        x = rng.randrange(n)
        assert mul(x, 0) == x and mul(0, x) == x
        assert mul(x, G.inv(x)) == 0


def test_group_laws_exhaustive_small(groups):
    # exhaustive associativity for every catalog group of order <= 3^5
    for name, params in [
        ("heisenberg", {"p": 3}),
        ("modular", {"p": 3}),
        ("abelian", {"p": 3, "exps": (2, 2)}),
        ("wreath", {"p": 3}),
        ("heisenberg", {"p": 5}),
        ("mann_nonpf", {"p": 3}),
        ("mainline_coclass1", {"p": 3, "k": 4}),
    ]:
        G = groups(name, **params)
        assert G.order <= 243
        tab = oracles.mul_table(G)
        n = G.order
        for x in range(n):
            tx = tab[x]
            for y in range(n):
                tw = tab[tx[y]]
                ty = tab[y]
                for z in range(n):
                    assert tw[z] == tx[ty[z]]


def test_group_laws_sampled_large(groups):
    for name, params in [
        ("unitriangular", {"n": 3, "p": 3, "m": 2}),
        ("mainline_coclass1", {"p": 3, "k": 6}),
        ("potent_nopwc", {"p": 5, "n": 1}),
        ("kirillov_quotient", {"p": 3, "e": 2}),
    ]:
        _law_sample(groups(name, **params), samples=100_000)


def test_group_laws_on_quotients(groups):
    G = groups("wreath", p=3)
    Q, _ = quotient(G, center(G))
    _law_sample(Q, samples=10_000)


def test_element_orders_are_p_powers(groups):
    G = groups("mann_nonpf", p=3)
    for x in G.elements():
        o = G.element_order(x)
        while o % 3 == 0:
            o //= 3
        assert o == 1
    assert G.element_order(0) == 1


def test_power_walk_matches_backend(groups):
    # a bare group (no backend) takes its right tables from mul, one product
    # per entry of each kept generator's table, and walks its p-th power map
    # through them with no further product
    H = groups("heisenberg", p=7)
    cases = [
        H,  # pc
        build_abelian(5, [2, 1]),
        groups("unitriangular", n=3, p=3, m=1),
        groups("kirillov_quotient", p=3, e=1),  # semidirect
        quotient(H, center(H))[0],
    ]
    for G in cases:
        p, n = G.p, G.order
        calls = [0]

        def counting(a, b, mul=G.mul):
            calls[0] += 1
            return mul(a, b)

        # a fresh group on the same arithmetic, so no power table is cached
        F = FiniteGroup(p, n, counting, G.generators, label=G.label)
        F.pth_map()
        assert calls[0] == len(_tables(F).gens) * n, G.label
        assert F.pth_map() == [G.pow(x, p) for x in range(n)], G.label
        for x in range(n):
            y, m = x, 1
            while y:
                y = G.mul(y, x)
                m += 1
            assert F.element_order(x) == m, G.label
    # an element of order 2 in a "3-group"
    C2 = FiniteGroup(3, 2, lambda a, b: a ^ b, [1])
    with pytest.raises(InconsistentPresentation, match="not a power of 3"):
        C2.pth_map()


def test_negative_powers_are_powers_of_the_inverse(groups):
    G = groups("heisenberg", p=3)
    for x in [0, 1, 5, 13, 26]:
        for k in [1, 2, 3, 4, 10]:
            assert G.pow(x, -k) == G.inv(G.pow(x, k)), (x, k)
    assert G.pow(5, -1) == G.inv(5)


def test_power_cycle_missing_the_identity_is_rejected():
    # cubing sends 1 -> 2 -> 1; no consistent presentation reaches this check
    table = [[0, 1, 2], [1, 2, 1], [2, 2, 1]]
    G = FiniteGroup(3, 3, lambda a, b: table[a][b], [1])
    with pytest.raises(InconsistentPresentation, match="power cycle"):
        G.exponent()


# -- quotients ---------------------------------------------------------------------


def test_quotient_by_trivial_is_same_group(groups):
    G = groups("heisenberg", p=3)
    Q, proj = quotient(G, trivial_subgroup(G))
    assert Q is G
    assert proj.mapping == list(range(27))


def test_quotient_by_whole_is_trivial(groups):
    G = groups("heisenberg", p=3)
    Q, proj = quotient(G, whole_subgroup(G))
    assert Q.order == 1
    assert set(proj.mapping) == set(Q.elements())


def test_quotient_heisenberg_by_center(groups):
    G = groups("heisenberg", p=3)
    Q, proj = quotient(G, center(G))
    assert Q.order == 9
    assert Q.is_abelian()
    assert Q.exponent() == 3
    assert set(proj.mapping) == set(Q.elements())
    # projection is a homomorphism on every pair
    for a in range(27):
        for b in range(27):
            assert proj(G.mul(a, b)) == Q.mul(proj(a), proj(b))


@pytest.mark.parametrize(
    "name,params",
    [
        ("heisenberg", {"p": 3}),
        ("wreath", {"p": 3}),
        ("mainline_coclass1", {"p": 3, "k": 4}),
        ("unitriangular", {"n": 3, "p": 3, "m": 2}),
    ],
)
def test_image_bits_is_the_set_of_images(name, params, groups):
    G = groups(name, **params)
    Q, proj = quotient(G, center(G))
    rng = random.Random(11)
    top = 1 << (G.order - 1)
    bitsets = [top, (1 << G.order) - 1] + [rng.getrandbits(G.order) | top for _ in range(10)]
    for b in bitsets:
        want = 0
        for x in range(G.order):
            if (b >> x) & 1:
                want |= 1 << proj(x)
        assert proj.image_bits(b) == want


def test_third_isomorphism_fingerprint(groups):
    from pgroups.subgroups import Subgroup, lower_central_series

    G = groups("wreath", p=3)
    Z = center(G)
    gamma2 = lower_central_series(G).terms[1]
    Q1, proj = quotient(G, Z)
    img = Subgroup(Q1, proj.image_bits(gamma2.bits), normal=True)
    QQ, _ = quotient(Q1, img)
    direct, _ = quotient(G, gamma2)
    assert QQ.order == direct.order
    assert QQ.exponent() == direct.exponent()
    assert sorted(QQ.element_order(x) for x in QQ.elements()) == sorted(
        direct.element_order(x) for x in direct.elements()
    )


def test_mann_nonpf_big_prime_builds():
    # order 5^7 = 78125, function-backed multiplication
    from pgroups.catalog import catalog_build

    G = catalog_build("mann_nonpf", p=5)
    assert G.order == 5**7
    back = G.backend
    alpha = back.encode(1, 0)
    assert G.element_order(alpha) == 25
    x1 = back.encode(0, back.M.generators[0])
    assert G.pow(G.mul(alpha, x1), 5) == G.mul(G.pow(alpha, 5), back.encode(0, back.M.generators[-1]))
