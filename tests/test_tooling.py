import ast
from pathlib import Path

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
    # subgroups decides between a lattice lookup and a closure, in one place
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
