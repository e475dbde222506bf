#!/usr/bin/env python3
"""Regenerate src/pgroups/catalog/expected.json from a full analysis run.

Each recorded field carries a source tag:
  known    -- a recorded reference fact about this construction
  arith    -- immediate arithmetic consequence of the parameters
  computed -- derived by this library's pipeline and frozen here

Run from the repository root:  python tools/freeze_expected.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pgroups import catalog as cat  # noqa: E402
from pgroups.report import analyze_group  # noqa: E402
from pgroups.verify import flatten_report, kirillov_formula_series  # noqa: E402
from pgroups import eta_series as eta_mod  # noqa: E402

# (entry name, field) -> tag; anything else is "computed".
TAGS = {
    ("*", "order"): "arith",
    ("*", "coclass"): "arith",
    ("abelian", "*"): "arith",
    ("heisenberg", "exponent"): "known",
    ("heisenberg", "nilpotency_class"): "known",
    ("heisenberg", "center_order"): "known",
    ("heisenberg", "eta_series_orders"): "known",
    ("modular", "exponent"): "known",
    ("modular", "powerful"): "known",
    ("modular", "eta_series_orders"): "known",
    ("modular", "powerful_class"): "known",
    ("mann_nonpf", "nilpotency_class"): "known",
    ("mann_nonpf", "powerful_class"): "known",
    ("mann_nonpf", "pf"): "known",
    ("mann_nonpf", "power_surjective_1"): "known",
    ("potent_nopwc", "nilpotency_class"): "known",
    ("potent_nopwc", "potent"): "known",
    ("potent_nopwc", "center_order"): "known",
    ("potent_nopwc", "powerful_class"): "known",
    ("potent_nopwc", "minimal_generators"): "known",
    ("potent_nopwc", "pf"): "known",
    ("mainline_coclass1", "nilpotency_class"): "known",
    ("mainline_coclass1", "powerful_class"): "known",
    ("mainline_coclass1", "center_order"): "known",
    ("wreath", "nilpotency_class"): "known",
    ("wreath", "powerful_class"): "known",
    ("unitriangular", "nilpotency_class"): "known",
}


def tag_for(name: str, field: str) -> str:
    for key in ((name, field), (name, "*"), ("*", field)):
        if key in TAGS:
            return TAGS[key]
    return "computed"


def main() -> None:
    records = {}
    for name, params in cat.DEFAULT_SUITE:
        key = cat.instance_key(name, params)
        print(f"analyzing {key} ...", flush=True)
        G = cat.catalog_build(name, **params)
        flat = flatten_report(analyze_group(G))
        record = {
            field: {"v": value, "src": tag_for(name, field)}
            for field, value in flat.items()
        }
        if name == "kirillov_quotient":
            formula = kirillov_formula_series(G)
            computed = eta_mod.upper_eta_series(G).series.terms
            match = len(formula) == len(computed) and all(
                a.bits == b.bits for a, b in zip(formula, computed)
            )
            record["formula_match"] = {"v": match, "src": "computed"}
        records[key] = record
    out = Path(__file__).resolve().parent.parent / "src/pgroups/catalog/expected.json"
    out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(records)} records)")


if __name__ == "__main__":
    main()
