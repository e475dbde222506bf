import ast
from pathlib import Path

from pgroups import catalog as cat
from pgroups.report import analyze_group

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


def test_only_verify_samples():
    # verify's random eta-series are samples by design; every other module
    # computes exact answers or certificates
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "verify.py"
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


def test_default_suite_backend_products_are_bounded():
    # the product count is deterministic, so it pins the cost of analyze
    # without timing anything: the power walks and the tables over an
    # irredundant generating set take 55,631 products on the 18 groups
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
