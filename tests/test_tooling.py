import ast
from pathlib import Path

from pgroups import build_from_pc
from pgroups import catalog as cat
from pgroups import eta_series, verify
from pgroups import subgroups as sg
from pgroups.groups import FiniteGroup, _PcBackend
from pgroups.report import analyze_group

import oracles
from test_groups import class2_pres_3_8

SRC = Path(__file__).resolve().parent.parent / "src" / "pgroups"


def test_library_has_no_assert_statements():
    # python -O strips assert; invariant checks must raise InvariantViolation
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []



def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return []


def test_nothing_samples():
    # every module computes exact answers or certificates; samples and
    # random inputs live in tests/
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if any(m.split(".")[0] == "random" for m in _imported_modules(node))
    ]
    assert found == []


def test_analysis_modules_leave_closures_to_subgroups():
    # derived subgroups are lattice lookups in subgroups; the analysis
    # modules build no closure of their own
    closures = {"closure", "normal_closure", "commutator_subgroup"}
    found = []
    for name in ("eta_series.py", "filtrations.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text(), name)):
            if isinstance(node, ast.ImportFrom):
                used = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                used = [node.attr]
            else:
                continue
            found += [f"{name}:{node.lineno} {u}" for u in used if u in closures]
    assert found == []


def test_analysis_modules_scan_the_lattice_through_one_interval():
    # the analysis modules scan G's lattice through subgroups.lattice_interval
    # alone, and only it and the enumerator read the lattice's order index
    found = []
    for name in ("eta_series.py", "filtrations.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text(), name)):
            if isinstance(node, ast.ImportFrom):
                used = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                used = [node.attr]
            elif isinstance(node, ast.Name):
                used = [node.id]
            else:
                continue
            found += [
                f"{name}:{node.lineno} {u}"
                for u in used
                if u in ("enumerate_normal_subgroups", "reversed")
            ]
    assert found == []
    readers = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for qualname, fn in _functions(tree):
            for node in ast.walk(fn):
                owner[id(node)] = qualname
        readers += [
            f"{path.relative_to(SRC)}:{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value == "normal_orders"
        ]
    assert sorted(set(readers)) == [
        "subgroups.py:enumerate_normal_subgroups",
        "subgroups.py:lattice_interval",
    ]


def test_only_the_enumerator_touches_the_lattice_cache():
    # a derived subgroup that asked whether the lattice is cached would be
    # computed two ways, depending on call order
    tree = ast.parse((SRC / "subgroups.py").read_text(), "subgroups.py")
    (enum,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "enumerate_normal_subgroups"
    ]
    inside = {id(node) for node in ast.walk(enum)}
    uses = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "normals"
    ]
    assert uses
    assert [node.lineno for node in uses if id(node) not in inside] == []


def test_power_maps_have_one_derivation():
    # order exponents are derived from the p-th power map in groups alone,
    # and a group's p-th power map comes from its backend's power_map or its
    # own power walk, in FiniteGroup.pth_map: nothing outside groups.py
    # assigns it, and the lattice tables are built and cached in
    # subgroups._tables alone
    found, built, cached = [], set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for name, fn in _functions(tree):  # inner functions come later and win
            for node in ast.walk(fn):
                owner[id(node)] = name
        for node in ast.walk(tree):
            where = f"{path.relative_to(SRC)}:{owner.get(id(node), '<module>')}"
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "GroupTables":
                built.add(where)
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for sub in (sub for target in targets for sub in ast.walk(target)):
                if isinstance(sub, ast.Attribute) and sub.attr in ("_ordexp", "_pth"):
                    found.append((where, sub.attr))
                if isinstance(sub, ast.Subscript) and getattr(sub.slice, "value", None) == "tables":
                    cached.add(where)
    assert ("groups.py:FiniteGroup.order_exponents", "_ordexp") in found
    assert ("groups.py:FiniteGroup.pth_map", "_pth") in found
    assert [hit for hit in found if not hit[0].startswith("groups.py:")] == []
    assert built == cached == {"subgroups.py:_tables"}


def _functions(node, prefix=""):
    """(qualified name, node) of every function defined under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name + ".")
        elif isinstance(child, ast.Lambda):
            yield prefix + "<lambda>", child
        else:
            yield from _functions(child, prefix)


def test_only_entry_points_take_a_budget():
    # the budget bounds G's one lattice enumeration; the entry points
    # enumerate first, and everything else reads the cached lattice
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text(), str(path))):
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if any(x is not None and x.arg == "budget" for x in params):
                found.append(f"{path.relative_to(SRC)}:{name}")
    assert sorted(found) == [
        "report.py:analyze_group",
        "subgroups.py:enumerate_normal_subgroups",
        "verify.py:_Run.__init__",
        "verify.py:run_suites",
    ]


def test_default_suite_backend_products_are_bounded():
    # the product count is deterministic, so it pins the cost of analyze
    # without timing anything: every root backend hands over its right
    # tables, the abelian and semidirect ones their p-th power maps, and the
    # pc and unitriangular power walks step through the right tables, so
    # what is left is the closures and conjugations of analyze itself: 1,184
    # products on the 18 groups, where walking with mul and inverting by
    # x^(|G|-1) took 2,483 and the former orbit closure 4,055
    calls = [0]
    for name, params in cat.DEFAULT_SUITE:
        G = cat.catalog_build(name, **params)
        mul = G.mul

        def counting(a, b, mul=mul):
            calls[0] += 1
            return mul(a, b)

        G.mul = counting
        analyze_group(G)
    assert calls[0] <= 60_000


def test_enumeration_builds_each_normal_subgroup_once(monkeypatch):
    # every child build is a new normal subgroup, chief series terms
    # included: 550 coset builds over the 18 lattices, where building the
    # series before the walk took 628
    calls = [0]
    coset_bits = sg._coset_bits

    def counting(*args):
        calls[0] += 1
        return coset_bits(*args)

    monkeypatch.setattr(sg, "_coset_bits", counting)
    for name, params in cat.DEFAULT_SUITE:
        before = calls[0]
        normals = sg.enumerate_normal_subgroups(cat.catalog_build(name, **params))
        assert calls[0] - before == len(normals) - 1, name
    assert calls[0] == 550


def test_default_suite_candidate_gathers_are_bounded(monkeypatch):
    # candidates are one single-map gather per map f (x -> x^p, x -> [x, g_k])
    # and per distinct N n I_f, I_f the image of f, and none for a map onto
    # {1}, which sends G into every N: 153 over the 18 lattices, where
    # gathering those 14 maps too took 167, and gathering every map once per
    # distinct N n I, I the union of the images, 354
    calls = [0]
    gathered = sg._gathered_preimage

    def counting(*args):
        calls[0] += 1
        return gathered(*args)

    monkeypatch.setattr(sg, "_gathered_preimage", counting)
    for name, params in cat.DEFAULT_SUITE:
        sg.enumerate_normal_subgroups(cat.catalog_build(name, **params))
    assert calls[0] == 153


def test_analysis_raises_only_surjectivity_images_to_powers(monkeypatch):
    # M^p of a normal M is a lattice lookup certified by the power map's
    # memoised preimage, with no pass over M's elements, so during analyze
    # power_image serves is_power_surjective alone: 34 calls on the 18
    # groups, one per i up to log_p of the exponent, where power_subgroup
    # took 268 more
    import sys

    from pgroups import filtrations

    callers = []
    power_image = sg.power_image

    def recording(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return power_image(*args)

    monkeypatch.setattr(sg, "power_image", recording)
    monkeypatch.setattr(filtrations, "power_image", recording)
    for name, params in cat.DEFAULT_SUITE:
        analyze_group(cat.catalog_build(name, **params))
    assert set(callers) == {"is_power_surjective"}
    assert len(callers) == 34


def test_default_suite_table_reaches_are_bounded(monkeypatch):
    # the prune skips the last kept generator, which the greedy pass saw the
    # kept ones before it miss: 74 reaches over the 18 table builds, where
    # trying it too took 92
    calls = [0]
    reach = sg._reach

    def counting(*args):
        calls[0] += 1
        return reach(*args)

    monkeypatch.setattr(sg, "_reach", counting)
    for name, params in cat.DEFAULT_SUITE:
        sg._tables(cat.catalog_build(name, **params))
    assert calls[0] == 74


def test_default_suite_pe_tests_are_bounded(monkeypatch):
    # the powerfully-embedded test and centre counts are deterministic, so
    # they pin the cost of the eta steps without timing anything: each step
    # is a fixed-point descent, one center_over per iteration and one for
    # its certificate, 140 calls = 95 iterations + 45 certificates on the
    # 18 groups, and no step tests a member, so the 18 tests left are
    # is_powerful's, where scanning each step's lattice interval from the
    # top took 301 tests
    pe_calls, center_calls = [0], [0]
    pe_over, center_over = eta_series._pe_over, eta_series.center_over

    def counting_pe(G, M, N):
        pe_calls[0] += 1
        return pe_over(G, M, N)

    def counting_center(G, N):
        center_calls[0] += 1
        return center_over(G, N)

    monkeypatch.setattr(eta_series, "_pe_over", counting_pe)
    monkeypatch.setattr(eta_series, "center_over", counting_center)
    for name, params in cat.DEFAULT_SUITE:
        G = cat.catalog_build(name, **params)
        analyze_group(G)
        if name == "kirillov_quotient":
            # no step lists every powerfully embedded member
            assert not [k for k in G.cache if isinstance(k, tuple) and k[0] == "pwe_over"]
    assert (pe_calls[0], center_calls[0]) == (18, 140)


def test_eta_steps_and_uniseriality_scan_no_lattice_interval():
    # an eta step is a fixed point and uniseriality a factor-order test:
    # neither scans an interval of G's lattice nor tests its members
    guarded = ("_acts_uniserially", "_eta_over", "_uniserial_report")
    tree = ast.parse((SRC / "eta_series.py").read_text(), "eta_series.py")
    fns = {qualname: fn for qualname, fn in _functions(tree) if qualname in guarded}
    assert sorted(fns) == list(guarded)
    found = []
    for qualname, fn in fns.items():
        for node in ast.walk(fn):
            used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if used in ("lattice_interval", "_pe_over"):
                found.append(f"{qualname}:{node.lineno} {used}")
    assert found == []


def test_default_verify_backend_products_are_bounded(monkeypatch):
    # every quotient and subgroup group that verify builds gathers its
    # cosets, tables and power maps through its root group's tables, and
    # the root groups hand over their own tables in bulk, and the pc and
    # unitriangular power walks step through them; what is left is the
    # closures and conjugations of verify itself: 1,080 products on the 15
    # groups, where walking with mul and inverting by x^(|G|-1) took 2,353
    # and the former orbit closure 3,401
    calls = [0]
    build = cat.catalog_build

    def counting_build(name, **params):
        G = build(name, **params)
        mul = G.mul

        def counting(a, b):
            calls[0] += 1
            return mul(a, b)

        G.mul = counting
        return G

    monkeypatch.setattr(cat, "catalog_build", counting_build)
    assert all(r.passed for r in verify.run_suites(list(verify.SUITES)))
    assert calls[0] <= 11_000


def test_cold_lower_central_series_products_are_bounded():
    # closures grow by whole cosets, one product per new element, and each
    # normal-closure round conjugates only the witnesses the last one added:
    # 4,605 products on mainline_coclass1 p=5 k=6, where the former orbit
    # closure took 19,551
    G = cat.catalog_build("mainline_coclass1", p=5, k=6)
    G.cache.clear()  # the build checked the class, so start cold
    G._inv.clear()
    calls = [0]
    mul = G.mul

    def counting(a, b):
        calls[0] += 1
        return mul(a, b)

    G.mul = counting
    assert len(sg.lower_central_series(G)) == 7
    assert calls[0] <= 6_000


def test_pc_build_builds_no_lattice_tables():
    # the overlap test and the power walk read the backend's filled tables
    # directly; building GroupTables as well would slow every pc load, and
    # a group that is never analyzed never needs them
    G = build_from_pc(class2_pres_3_8())
    assert "tables" not in G.cache


def test_pc_overlap_test_takes_each_power_once(monkeypatch):
    # each generator's p-th and (p-1)-th powers are taken once, at its own
    # level of the overlap test, not again for every pair that reads them
    calls = [0]
    power = FiniteGroup.pow

    def counting(G, x, e):
        calls[0] += 1
        return power(G, x, e)

    monkeypatch.setattr(FiniteGroup, "pow", counting)
    pres = class2_pres_3_8()
    build_from_pc(pres)
    assert calls[0] <= 2 * pres.ngens


def test_pc_build_decodes_no_element(monkeypatch):
    # the tables are filled in bulk and the overlap test and the power walk
    # run over them, so no element is ever decoded into an exponent list;
    # the walk reads each x's digits straight into its word's tables
    calls = [0]
    decode = _PcBackend.decode

    def counting(back, x):
        calls[0] += 1
        return decode(back, x)

    monkeypatch.setattr(_PcBackend, "decode", counting)
    build_from_pc(class2_pres_3_8())
    assert calls[0] == 0


def test_a_group_builds_one_word_tree(monkeypatch):
    # a pc element's index is its normal word, so a pc power walk spells x
    # by its exponent vector and builds no breadth-first word tree; a
    # unitriangular walk folds the words of its lattice tables' tree, so its
    # power map and analysis reach no more often than its tables alone
    calls = [0]
    reach = sg._reach

    def counting(*args):
        calls[0] += 1
        return reach(*args)

    monkeypatch.setattr(sg, "_reach", counting)
    build_from_pc(class2_pres_3_8())
    assert calls[0] == 0
    for params, reaches in [({"n": 3, "p": 3, "m": 2}, 4), ({"n": 4, "p": 3, "m": 1}, 6)]:
        calls[0] = 0
        sg._tables(cat.catalog_build("unitriangular", **params))
        assert calls[0] == reaches, params
        calls[0] = 0
        G = cat.catalog_build("unitriangular", **params)
        G.pth_map()
        analyze_group(G)
        assert calls[0] == reaches, params
    # the breadth-first search is defined once and called by GroupTables alone
    defined, called = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for name, fn in _functions(tree):  # inner functions come later and win
            defined += [f"{path.relative_to(SRC)}:{name}"] if name == "_reach" else []
            for node in ast.walk(fn):
                owner[id(node)] = name
        called |= {
            f"{path.relative_to(SRC)}:{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "_reach"
        }
    assert defined == ["subgroups.py:_reach"]
    assert called == {"subgroups.py:GroupTables.__init__"}


def test_commutator_maps_are_built_on_first_use():
    # a power walk reads the lattice tables' word tree but not their
    # commutator maps; the analysis reads them, and they match G.comm
    G = cat.catalog_build("unitriangular", n=4, p=3, m=1)
    G.pth_map()
    T = sg._tables(G)
    assert T._comm is None
    analyze_group(G)
    assert T._comm is not None
    assert T.comm_maps == [[G.comm(x, g) for x in G.elements()] for g in T.gens]


def test_commutator_maps_are_handed_over_by_the_backend(monkeypatch):
    # an abelian or semidirect backend gives each commutator map in closed
    # form, one call per kept generator, and no map is walked down the tree
    def no_walk(self):
        raise AssertionError("commutator maps walked")

    monkeypatch.setattr(sg.GroupTables, "_walked_comm_maps", no_walk)
    cases = [("kirillov_quotient", {"p": 3, "e": 2}), ("abelian", {"p": 3, "exps": (2, 2)})]
    for name, params in cases:
        G = cat.catalog_build(name, **params)
        comm_map = G.backend.comm_map
        handed = []

        def counting(g, comm_map=comm_map, handed=handed):
            handed.append(g)
            return comm_map(g)

        monkeypatch.setattr(G.backend, "comm_map", counting)
        T = sg._tables(G)
        assert T.comm_maps == [[G.comm(x, g) for x in G.elements()] for g in T.gens], name
        assert handed == T.gens, name
        assert T._tree is None, name


def test_power_walks_take_no_product():
    # a root group with right tables steps each power walk through the
    # tables of x's word, so the p-th power map takes no backend product,
    # and it is still the map that G.mul gives
    cases = [
        cat.catalog_build("unitriangular", n=3, p=3, m=2),
        cat.catalog_build("unitriangular", n=4, p=3, m=1),
        cat.catalog_build("heisenberg", p=5),
        build_from_pc(class2_pres_3_8()),
    ]
    for G in cases:
        G._pth = None  # the pc build walked the map once; walk it again
        calls = [0]
        mul = G.mul

        def counting(a, b, mul=mul):
            calls[0] += 1
            return mul(a, b)

        G.mul = counting
        got = G.pth_map()
        assert calls[0] == 0, G.label
        G.mul = mul
        assert got == oracles.product_tables(G, [])[1], G.label


def test_unitriangular_right_tables_are_built_once():
    # the power walk folds the lattice tables' right tables, so the backend
    # hands over each transvection's table once, to the lattice tables
    G = cat.catalog_build("unitriangular", n=3, p=3, m=2)
    right_table = G.backend.right_table
    handed = []

    def recording(g):
        handed.append(g)
        return right_table(g)

    G.backend.right_table = recording
    G.pth_map()
    analyze_group(G)
    assert handed == G.generators


def test_a_group_holds_one_int_object_per_element():
    # tables, power maps, commutator maps and lattice members take their
    # element ints from the group's one list, elements(), so together they
    # hold at most |G| int objects, the group's own (ints above 256 are not
    # interned, so each new arithmetic result would be another object)
    K = cat.catalog_build("kirillov_quotient", p=3, e=2)
    H = cat.catalog_build("heisenberg", p=3)
    U = cat.catalog_build("unitriangular", n=3, p=3, m=2)
    lattice = sg.enumerate_normal_subgroups(K)
    cases = [
        cat.catalog_build("abelian", p=3, exps=(2, 2)),
        K,
        U,
        sg.quotient(K, sg.center(K))[0],
        sg.quotient(K, next(N for N in lattice if N.order == 3))[0],
        sg.subgroup_as_group(K, sg.frattini(K)),
        sg.subgroup_as_group(K, next(N for N in lattice if N.order == 729)),
        FiniteGroup(H.p, H.order, H.mul, H.generators, label="bare " + H.label),
        FiniteGroup(U.p, U.order, U.mul, U.generators, label="bare " + U.label),
    ]
    for G in cases:
        analyze_group(G)
        T = sg._tables(G)
        held = T.right + [G.pth_map()] + T.comm_maps
        held += [list(N.elements()) for N in sg.enumerate_normal_subgroups(G)]
        objects = {id(x): x for xs in held for x in xs}
        assert len(objects) <= G.order, (G.label, len(objects))
        ints = G.elements()
        assert all(x is ints[x] for x in objects.values()), G.label
