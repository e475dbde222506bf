#!/usr/bin/env python3
"""Print one sha256 per answer artifact, so two source trees can be compared.

The artifacts are the canonical outputs that a change meant to keep the
answers must leave byte-identical:
  - ``analyze --json`` of each ``DEFAULT_SUITE`` group and of four larger
    groups (3^11, 3^10, 3^6 with 56,632 normal subgroups, and 5^7, a
    semidirect product with a commutator map of 3,125 image points);
  - ``analyze --json`` of two pc files, written to a temporary directory
    from fixed presentations below: class 2 and exponent 9 of order 3^8,
    and class 2 and exponent 25 of order 5^5;
  - ``verify all --json`` and ``verify all --extended --json``;
  - ``series --type T --json`` of each ``DEFAULT_SUITE`` group for the three
    series types, whose witness lists are part of the output;
  - ``catalog list``, ``catalog list --json``, and the document that
    ``catalog get`` writes for each ``DEFAULT_SUITE`` instance;
  - the p-th power map (``FiniteGroup.pth_map``), which every answer
    reads, of three unitriangular groups, of the class 2 pc group of order
    3^8, and of two groups derived from ``kirillov_quotient p=3 e=2``: its
    quotient by its centre and its Frattini subgroup as a group.

Each command artifact is one ``pgroups.cli.main`` run in this process, with
its stdout captured; a line reads ``<sha256>  rc=<exit code>  <command>``,
with a pc file named by its base name, not its temporary path.  A power map
is hashed as its JSON list, on a line that reads ``<sha256>  pth_map
<group>``.  Only public functions of ``pgroups`` are called, so any two
trees compare.  It takes no flags.  The package is imported from
PYTHONPATH when it is found there, and from the tree this script lives in
otherwise, so two trees compare as

    PYTHONPATH=<tree a>/src python tools/answer_digests.py > a.txt
    PYTHONPATH=<tree b>/src python tools/answer_digests.py > b.txt
    diff a.txt b.txt
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

# appended, so a tree named on PYTHONPATH comes first
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from pgroups import center, frattini, quotient, subgroup_as_group  # noqa: E402
from pgroups import catalog as cat  # noqa: E402
from pgroups.cli import main  # noqa: E402
from pgroups.fileformat import load_document  # noqa: E402

LARGE = [
    ("mainline_coclass1", {"p": 3, "k": 10}),
    ("unitriangular", {"n": 5, "p": 3, "m": 1}),
    ("abelian", {"p": 3, "exps": (1,) * 6}),
    ("mainline_coclass1", {"p": 5, "k": 6}),
]

SERIES_TYPES = ("eta", "upper-central", "lower-central")

POWER_MAPS = [
    ("unitriangular", {"n": 3, "p": 3, "m": 2}),
    ("unitriangular", {"n": 4, "p": 3, "m": 1}),
    ("unitriangular", {"n": 5, "p": 3, "m": 1}),
]

# the quotient and subgroup groups of this one are power-map artifacts too
DERIVED_FROM = ("kirillov_quotient", {"p": 3, "e": 2})


PC_FILES = {
    # tests/test_groups.class2_pres_3_8: g_1..g_5 of class 2 over the central g_6, g_7, g_8
    "class2-3^8.json": {
        "format": "pgroup-v1", "kind": "pc", "prime": 3, "ngens": 8,
        "powers": {"1": [[6, 1]], "2": [[7, 1]]},
        "conjugates": {
            "2,1": [[2, 1], [6, 1]],
            "3,1": [[3, 1], [7, 1]],
            "4,2": [[4, 1], [8, 1]],
            "5,3": [[5, 1], [6, 1], [8, 2]],
            "5,4": [[5, 1], [7, 1]],
        },
    },
    # g_1..g_3 of class 2 over the central g_4, g_5: g_1^5 = g_4, g_2^5 = g_5,
    # [g_2, g_1] = g_4, [g_3, g_1] = g_5, [g_3, g_2] = g_4 g_5
    "class2-5^5.json": {
        "format": "pgroup-v1", "kind": "pc", "prime": 5, "ngens": 5,
        "powers": {"1": [[4, 1]], "2": [[5, 1]]},
        "conjugates": {
            "2,1": [[2, 1], [4, 1]],
            "3,1": [[3, 1], [5, 1]],
            "3,2": [[3, 1], [4, 1], [5, 1]],
        },
    },
}


def param_args(params):
    """The --param arguments that give a catalog instance its parameters."""
    args = []
    for key, value in params.items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        args += ["--param", f"{key}={text}"]
    return args


def catalog_args(name, params):
    """The --catalog and --param arguments that select one catalog instance."""
    return ["--catalog", name, *param_args(params)]


def artifacts():
    """The argument lists of every artifact, in a fixed order."""
    for name, params in list(cat.DEFAULT_SUITE) + LARGE:
        yield ["analyze", *catalog_args(name, params), "--json"]
    for name in PC_FILES:
        yield ["analyze", name, "--json"]
    yield ["verify", "all", "--json"]
    yield ["verify", "all", "--extended", "--json"]
    for kind in SERIES_TYPES:
        for name, params in cat.DEFAULT_SUITE:
            yield ["series", *catalog_args(name, params), "--type", kind, "--json"]
    yield ["catalog", "list"]
    yield ["catalog", "list", "--json"]
    for name, params in cat.DEFAULT_SUITE:
        yield ["catalog", "get", name, *param_args(params)]


def power_maps():
    """(name, group) of every power-map artifact, each group built afresh."""
    for name, params in POWER_MAPS:
        yield " ".join(catalog_args(name, params)), cat.catalog_build(name, **params)
    yield "class2-3^8.json", load_document(PC_FILES["class2-3^8.json"])[0]
    kind, params = DERIVED_FROM
    name = " ".join(catalog_args(kind, params))
    K = cat.catalog_build(kind, **params)
    yield f"{name} quotient by center", quotient(K, center(K))[0]
    K = cat.catalog_build(kind, **params)
    yield f"{name} frattini subgroup", subgroup_as_group(K, frattini(K))


def digest(argv):
    """(sha256 of the stdout of ``pgroups argv``, its exit code)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), rc


def run() -> None:
    sys.stderr.write(f"pgroups from {Path(cat.__file__).resolve().parent.parent}\n")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in PC_FILES.items():
            paths[name] = Path(tmp) / name
            paths[name].write_text(json.dumps(doc))
        for argv in artifacts():
            sha, rc = digest([str(paths.get(arg, arg)) for arg in argv])
            print(f"{sha}  rc={rc}  {' '.join(argv)}", flush=True)
    for name, G in power_maps():
        sha = hashlib.sha256(json.dumps(G.pth_map()).encode()).hexdigest()
        print(f"{sha}  pth_map  {name}", flush=True)


if __name__ == "__main__":
    run()
