"""Command-line interface: analyze, verify, series, catalog.

Exit codes: 0 success; 2 malformed input; 3 enumeration budget exceeded;
verify additionally returns 1 when any checked property fails.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from . import catalog as cat
from . import eta_series as eta_mod
from . import report as report_mod
from . import subgroups as sg
from . import verify as verify_mod
from .errors import (
    BudgetExceeded,
    FormatError,
    InconsistentPresentation,
    InvalidWord,
    NotOddPrime,
    ParamOutOfRange,
    PGroupError,
    UnknownName,
)
from .fileformat import canonical_json, catalog_document, load_path
from .groups import FiniteGroup, log_p

_INPUT_ERRORS = (
    FormatError,
    UnknownName,
    ParamOutOfRange,
    NotOddPrime,
    InvalidWord,
    InconsistentPresentation,
)


def _json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1, else argparse exits 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _budget_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=_positive_int,
        default=sg.NORMAL_SUBGROUP_BUDGET,
        help="cap on the normal subgroups of each input group (exit 3 beyond it)",
    )


def _group_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", nargs="?", help="pgroup-v1 JSON file")
    parser.add_argument("--catalog", help="catalog entry name instead of a file")
    parser.add_argument("--prime", type=int, help="prime parameter for --catalog")
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="catalog parameter (V an integer or comma-separated integers)",
    )


def _parse_params(pairs: List[str], prime: Optional[int]) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for pair in pairs:
        key, sep, val = pair.partition("=")
        if not sep or not key:
            raise ParamOutOfRange(f"--param must look like k=v, got {pair!r}")
        try:
            params[key] = tuple(int(v) for v in val.split(",")) if "," in val else int(val)
        except ValueError:
            raise ParamOutOfRange(f"--param {key} must be an integer list, got {val!r}") from None
    if prime is not None:
        params["p"] = prime
    return params


def _load_groups(args: argparse.Namespace) -> List[FiniteGroup]:
    if args.catalog is not None:
        if args.input is not None:
            raise ParamOutOfRange("give either an input file or --catalog, not both")
        params = _parse_params(args.param, args.prime)
        return cat.catalog_instances(args.catalog, **params)
    if args.input is None:
        raise FormatError("no input: give a pgroup-v1 file or --catalog NAME")
    return load_path(args.input)


def _cmd_analyze(args: argparse.Namespace) -> int:
    groups = _load_groups(args)
    skip = tuple(args.skip or ())
    reports = [report_mod.analyze_group(G, budget=args.budget, skip=skip) for G in groups]
    if args.json:
        payload = reports[0] if len(reports) == 1 else reports
        sys.stdout.write(canonical_json(payload))
    else:
        for rep in reports:
            sys.stdout.write(report_mod.render_text(rep))
            if len(reports) > 1:
                sys.stdout.write("\n")
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    groups = _load_groups(args)
    out = []
    for G in groups:
        if args.type == "eta":
            sg.enumerate_normal_subgroups(G, args.budget)
            terms = eta_mod.upper_eta_series(G).series.terms
        elif args.type == "upper-central":
            terms = sg.upper_central_series(G).terms
        else:
            terms = sg.lower_central_series(G).terms
        out.append(
            {
                "group": G.label,
                "type": args.type,
                "terms": [
                    {
                        "order": [G.p, log_p(G.p, t.order)],
                        "witnesses": t.witness_list(),
                    }
                    for t in terms
                ],
            }
        )
    if args.json:
        payload = out[0] if len(out) == 1 else out
        sys.stdout.write(canonical_json(payload))
    else:
        for entry in out:
            sys.stdout.write(f"{entry['group']}  ({entry['type']} series)\n")
            for i, term in enumerate(entry["terms"]):
                p, e = term["order"]
                witnesses = ",".join(str(w) for w in term["witnesses"]) or "-"
                sys.stdout.write(f"  term {i}: order {p}^{e}  witnesses {witnesses}\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = list(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    max_order = args.max_order
    if args.extended:
        max_order = verify_mod.EXTENDED_MAX_ORDER
    elif max_order is None:
        max_order = verify_mod.DEFAULT_MAX_ORDER
    results = verify_mod.run_suites(suites, max_order=max_order, budget=args.budget)
    failed = [r for r in results if not r.passed]
    if args.json:
        payload = {
            "suites": suites,
            "passed": not failed,
            "results": [r.to_json() for r in results],
        }
        sys.stdout.write(canonical_json(payload))
    else:
        for r in results:
            sys.stdout.write(r.line() + "\n")
        sys.stdout.write(
            f"{len(results) - len(failed)}/{len(results)} properties passed\n"
        )
    return 1 if failed else 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        if args.json:
            sys.stdout.write(canonical_json(cat.catalog_list()))
        else:
            for name in cat.catalog_list():
                entry = cat.ENTRIES[name]
                params = ", ".join(
                    f"{k}={'required' if d is None else d}"
                    for k, (_, d) in entry.param_schema.items()
                )
                sys.stdout.write(f"{name} ({params}): {entry.summary}\n")
        return 0
    params = _parse_params(args.param, args.prime)
    doc = catalog_document(args.name, params)
    text = canonical_json(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgroups",
        description="exact invariant analysis of finite p-groups (p odd)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full invariant report for a group")
    _group_source_flags(p_analyze)
    p_analyze.add_argument(
        "--skip",
        action="append",
        choices=report_mod.ANALYSIS_SECTIONS,
        help="omit an expensive report section",
    )
    _json_flag(p_analyze)
    _budget_flag(p_analyze)
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="run a property suite over the catalog")
    p_verify.add_argument("suite", choices=list(verify_mod.SUITES) + ["all"])
    orders = p_verify.add_mutually_exclusive_group()
    orders.add_argument(
        "--extended",
        action="store_true",
        help="include the largest bundled instances (orders 3^7, 5^5, 3^8)",
    )
    orders.add_argument(
        "--max-order",
        type=_positive_int,
        default=None,
        help="largest group order the verify suites touch (default 729)",
    )
    _json_flag(p_verify)
    _budget_flag(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_series = sub.add_parser("series", help="print a subgroup series")
    _group_source_flags(p_series)
    p_series.add_argument(
        "--type",
        choices=("eta", "upper-central", "lower-central"),
        default="eta",
    )
    _json_flag(p_series)
    _budget_flag(p_series)
    p_series.set_defaults(fn=_cmd_series)

    p_cat = sub.add_parser("catalog", help="list entries or emit a definition file")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    p_list = cat_sub.add_parser("list")
    _json_flag(p_list)
    p_list.set_defaults(fn=_cmd_catalog, action="list")
    p_get = cat_sub.add_parser("get")
    p_get.add_argument("name")
    p_get.add_argument("--prime", type=int)
    p_get.add_argument("--param", action="append", default=[], metavar="K=V")
    p_get.add_argument("-o", "--output", help="write the document to a file")
    p_get.set_defaults(fn=_cmd_catalog, action="get")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except PGroupError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
