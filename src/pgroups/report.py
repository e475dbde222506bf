"""Full invariant report for one group.

All quantities in a report are exact integers; group and subgroup orders
are (prime, exponent) pairs so no number in the output ever needs more than
machine arithmetic to reproduce.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from . import eta_series as eta_mod
from . import filtrations as pf
from . import subgroups as sg
from .errors import InvariantViolation
from .groups import FiniteGroup, log_p


def _p_exp(p: int, value: int) -> List[int]:
    return [p, log_p(p, value)]


def _series_orders(p: int, series: sg.SubgroupSeries) -> List[List[int]]:
    return [_p_exp(p, t.order) for t in series.terms]


ANALYSIS_SECTIONS = ("pf", "omega", "uniserial", "surjectivity")


def analyze_group(
    G: FiniteGroup,
    budget: int = sg.NORMAL_SUBGROUP_BUDGET,
    skip: Sequence[str] = (),
) -> Dict[str, object]:
    """Compute the full analysis report as a JSON-ready dictionary.

    G's normal lattice is enumerated first, within budget; every section
    below reads it from the cache.
    """
    skip = set(skip)
    unknown = skip - set(ANALYSIS_SECTIONS)
    if unknown:
        raise ValueError(f"unknown skip sections {sorted(unknown)}")
    sg.enumerate_normal_subgroups(G, budget)
    p = G.p
    ucs = sg.upper_central_series(G)
    lcs = sg.lower_central_series(G)
    cls = len(lcs.terms) - 1
    report = eta_mod.upper_eta_series(G)
    pwc = report.powerful_class

    # Internal consistency: the series bounds that hold in every group.
    if pwc > cls:
        raise InvariantViolation(f"pwc = {pwc} exceeds the class {cls} of {G.label}")
    for i, z in enumerate(ucs.terms):
        if not z <= report.term(i):
            raise InvariantViolation(f"Z_{i}({G.label}) escapes eta_{i}")

    out: Dict[str, object] = {
        "group": {
            "provenance": G.label,
            "prime": p,
            "order": _p_exp(p, G.order),
        },
        "exponent": _p_exp(p, G.exponent()),
        "nilpotency_class": cls,
        "coclass": sg.coclass(G),
        "maximal_class": sg.is_maximal_class(G),
        "minimal_generators": sg.minimal_generator_count(G),
        "center_order": _p_exp(p, sg.center(G).order),
        "upper_central_orders": _series_orders(p, ucs),
        "lower_central_orders": _series_orders(p, lcs),
        "eta_series_orders": _series_orders(p, report.series),
        "eta_steps": [
            {
                "quotient_order": _p_exp(p, s.quotient_order),
                "eta_of_quotient": _p_exp(p, s.eta_of_quotient_order),
            }
            for s in report.steps
        ],
        "powerful_class": pwc,
        "powerful": eta_mod.is_powerful(G),
        "potent": pf.is_potent(G),
        "eta_capability_obstruction": eta_mod.eta_capability_obstruction(G),
    }

    if "surjectivity" in skip:
        out["power_surjective"] = None
    else:
        e_exp = log_p(p, G.exponent())
        out["power_surjective"] = {
            str(i): pf.is_power_surjective(G, i) for i in range(1, max(e_exp, 1) + 1)
        }

    if "pf" in skip:
        out["pf"] = None
    else:
        witness = pf.pf_embedding_witness(G, sg.whole_subgroup(G))
        out["pf"] = {
            "status": witness is not None,
            "witness_length": len(witness) if witness is not None else None,
            # filtration terms as sorted element-index arrays (``elements`` ascends)
            "witness": [list(t.elements()) for t in witness.terms]
            if witness is not None
            else None,
        }

    if "omega" in skip:
        out["omega"] = None
    else:
        om = pf.omega_exponent_check(G)
        out["omega"] = {
            "ell": om.ell,
            "rows": [
                {
                    "i": row.i,
                    "order": _p_exp(p, row.omega_order),
                    "exponent": _p_exp(p, row.omega_exponent),
                    "bound": _p_exp(p, row.bound),
                }
                for row in om.rows
            ],
        }

    if "uniserial" in skip:
        out["uniserial"] = None
    else:
        us = eta_mod.uniserial_report(G)
        out["uniserial"] = {
            "applicable": us.applicable,
            "coclass": us.coclass_r,
            "m": us.m,
            "s": us.shift_s,
            "d": us.d,
            "uniserial": us.uniserial,
        }

    return out


def render_text(report: Dict[str, object]) -> str:
    """Human-readable rendering of an analysis report."""

    def fmt_pe(pair: Optional[List[int]]) -> str:
        if pair is None:
            return "-"
        p, e = pair
        return f"{p}^{e}" if e != 1 else str(p)

    def fmt_series(pairs) -> str:
        return " <= ".join(fmt_pe(x) for x in pairs)

    g = report["group"]
    lines = [
        f"group           {g['provenance']}",
        f"order           {fmt_pe(g['order'])}   (p = {g['prime']})",
        f"exponent        {fmt_pe(report['exponent'])}",
        f"class / coclass {report['nilpotency_class']} / {report['coclass']}"
        + ("   (maximal class)" if report["maximal_class"] else ""),
        f"min generators  {report['minimal_generators']}",
        f"center          {fmt_pe(report['center_order'])}",
        f"upper central   {fmt_series(report['upper_central_orders'])}",
        f"lower central   {fmt_series(list(reversed(report['lower_central_orders'])))} (reversed)",
        f"eta series      {fmt_series(report['eta_series_orders'])}",
        f"powerful class  {report['powerful_class']}"
        + ("   (powerful)" if report["powerful"] else ""),
        f"potent          {report['potent']}",
    ]
    ps = report.get("power_surjective")
    if ps is not None:
        lines.append(
            "p^i-surjective  "
            + " ".join(
                f"i={i}:{'yes' if ok else 'NO'}"
                for i, ok in sorted(ps.items(), key=lambda kv: int(kv[0]))
            )
        )
    pf_info = report.get("pf")
    if pf_info is not None:
        status = "yes" if pf_info["status"] else "no"
        extra = (
            f" (witness length {pf_info['witness_length']})"
            if pf_info["witness_length"] is not None
            else ""
        )
        lines.append(f"PF-group        {status}{extra}")
    omega = report.get("omega")
    if omega is not None:
        lines.append(f"omega table     ell = {omega['ell']}")
        for row in omega["rows"]:
            lines.append(
                f"  Omega_{row['i']}: order {fmt_pe(row['order'])}, "
                f"exponent {fmt_pe(row['exponent'])} <= bound {fmt_pe(row['bound'])}"
            )
    us = report.get("uniserial")
    if us is not None:
        if us["applicable"]:
            lines.append(
                f"uniserial       m = {us['m']}, s = {us['s']}, d = {us['d']}, "
                f"uniserial = {us['uniserial']}"
            )
        else:
            lines.append("uniserial       below order threshold (not applicable)")
    obstruction = report.get("eta_capability_obstruction")
    lines.append(f"eta-capability  obstruction: {obstruction or 'none found'}")
    return "\n".join(lines) + "\n"
