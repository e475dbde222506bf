"""Built-in group constructions with recorded expected invariants.

Every entry builds deterministically from (small) integer parameters.  The
expected-invariant records live in ``expected.json`` next to this module so
new records need no code change; each recorded value carries a source tag:
``known`` (a recorded reference fact), ``arith`` (immediate arithmetic), or
``computed`` (derived once by this library's oracles and frozen).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import comb
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ParamOutOfRange, UnknownName
from ..groups import (
    FiniteGroup,
    PcPresentation,
    _check_cap,
    build_abelian,
    build_from_pc,
    build_semidirect,
    build_unitriangular,
    validate_odd_prime,
)
from .. import subgroups as sg
from ..errors import OrderMismatch

Params = Dict[str, object]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    # param name -> ("int" | "int_list", default or None when required)
    param_schema: Dict[str, Tuple[str, Optional[object]]]
    expand: Callable[[Params], List[FiniteGroup]]


def _heisenberg(p: int) -> FiniteGroup:
    validate_odd_prime(p)
    pres = PcPresentation(p, 3, powers={}, conjugates={(2, 1): ((2, 1), (3, 1))})
    return build_from_pc(pres, label=f"heisenberg(p={p})")


def _modular(p: int) -> FiniteGroup:
    # <a, b : a^(p^2) = b^p = 1, a^b = a^(1+p)> on pc generators b, a, a^p.
    validate_odd_prime(p)
    pres = PcPresentation(
        p,
        3,
        powers={2: ((3, 1),)},
        conjugates={(2, 1): ((2, 1), (3, 1))},
    )
    return build_from_pc(pres, label=f"modular(p={p})")


def _shift_action(M: FiniteGroup, wrap_last: Optional[int]) -> List[int]:
    """Images x_i -> x_i x_(i+1), with the last generator mapped per wrap_last."""
    gens = M.generators
    images = [M.mul(gens[i], gens[i + 1]) for i in range(len(gens) - 1)]
    images.append(gens[-1] if wrap_last is None else wrap_last)
    return images


def _mann_nonpf(p: int) -> FiniteGroup:
    validate_odd_prime(p)
    M = build_abelian(p, [1] * p)
    images = _shift_action(M, None)
    return build_semidirect(M, images, 2, label=f"mann_nonpf(p={p})")


def _potent_nopwc(p: int, n: int) -> FiniteGroup:
    validate_odd_prime(p)
    if p <= 3:
        raise ParamOutOfRange("potent_nopwc requires p > 3")
    if n < 1:
        raise ParamOutOfRange("potent_nopwc requires n >= 1")
    M = build_abelian(p, [n + 1] + [n] * (p - 3))
    gens = M.generators
    images = [M.mul(gens[i], gens[i + 1]) for i in range(p - 3)]
    images.append(M.mul(gens[-1], M.pow(gens[0], p)))
    return build_semidirect(M, images, n, label=f"potent_nopwc(p={p},n={n})")


def _kirillov_quotient(p: int, e: int) -> FiniteGroup:
    validate_odd_prime(p)
    if e < 1:
        raise ParamOutOfRange("kirillov_quotient requires e >= 1")
    M = build_abelian(p, [e] * p)
    gens = M.generators
    images = [M.mul(gens[i], gens[i + 1]) for i in range(p - 2)]
    images.append(M.mul(gens[p - 2], M.pow(gens[p - 1], p)))
    images.append(gens[p - 1])
    # build_semidirect certifies alpha^(p^e) = id, i.e. that the declared
    # order of alpha is compatible with the action; OrderMismatch otherwise.
    return build_semidirect(M, images, e, label=f"kirillov_quotient(p={p},e={e})")


def _mainline_coclass1(p: int, k: int) -> FiniteGroup:
    """C_p acting as multiplication by a primitive p-th root of unity zeta on
    the quotient of Z[zeta] by the k-th power of the ramified prime (zeta-1).
    """
    validate_odd_prime(p)
    if k < 1:
        raise ParamOutOfRange("mainline_coclass1 requires k >= 1")
    ngens = min(k, p - 1)
    exps = [-(-(k - j) // (p - 1)) for j in range(ngens)]
    M = build_abelian(p, exps)
    back = M.backend

    def lam_power(j: int) -> int:
        # the basis element lambda^j of M, rewriting lambda^(p-1) via the
        # minimal polynomial of zeta: lambda^(p-1) = -sum C(p,i) lambda^(i-1)
        if j < ngens:
            return M.generators[j]
        if j == p - 1 and ngens == p - 1:
            return back.encode([-comb(p, i + 1) for i in range(p - 1)])
        return 0

    images = [M.mul(M.generators[j], lam_power(j + 1)) for j in range(ngens)]
    G = build_semidirect(M, images, 1, label=f"mainline_coclass1(p={p},k={k})")
    got = sg.nilpotency_class(G)
    if got != k:
        raise OrderMismatch(f"mainline_coclass1(p={p},k={k}) built with class {got}")
    return G


def _wreath(p: int) -> FiniteGroup:
    validate_odd_prime(p)
    M = build_abelian(p, [1] * p)
    images = M.generators[1:] + [M.generators[0]]
    return build_semidirect(M, images, 1, label=f"wreath(p={p})")


def _single(builder: Callable[..., FiniteGroup]) -> Callable[[Params], List[FiniteGroup]]:
    return lambda params: [builder(**params)]


def _order27_all(params: Params) -> List[FiniteGroup]:
    p = params.get("p", 3)
    if p != 3:
        raise ParamOutOfRange("order27_all is the five groups of order 27 (p = 3)")
    return [
        build_abelian(3, [3], label="abelian(p=3,exps=3)"),
        build_abelian(3, [2, 1], label="abelian(p=3,exps=2.1)"),
        build_abelian(3, [1, 1, 1], label="abelian(p=3,exps=1.1.1)"),
        _heisenberg(3),
        _modular(3),
    ]


ENTRIES: Dict[str, CatalogEntry] = {
    e.name: e
    for e in [
        CatalogEntry(
            "heisenberg",
            "extraspecial group of order p^3 and exponent p",
            {"p": ("int", 3)},
            _single(_heisenberg),
        ),
        CatalogEntry(
            "modular",
            "modular group of order p^3 and exponent p^2",
            {"p": ("int", 3)},
            _single(_modular),
        ),
        CatalogEntry(
            "order27_all",
            "all five groups of order 27",
            {"p": ("int", 3)},
            _order27_all,
        ),
        CatalogEntry(
            "abelian",
            "direct product of cyclic groups of orders p^e",
            {"p": ("int", 3), "exps": ("int_list", None)},
            _single(
                lambda p, exps: build_abelian(
                    p, exps, label=f"abelian(p={p},exps={'.'.join(map(str, exps))})"
                )
            ),
        ),
        CatalogEntry(
            "unitriangular",
            "upper unitriangular n x n matrices over Z/p^m",
            {"n": ("int", 3), "p": ("int", 3), "m": ("int", 1)},
            _single(
                lambda n, p, m: build_unitriangular(
                    n, p, m, label=f"unitriangular(n={n},p={p},m={m})"
                )
            ),
        ),
        CatalogEntry(
            "mann_nonpf",
            "C_(p^2) shifting an elementary abelian group of rank p; "
            "powerful class p, not a PF-group",
            {"p": ("int", 3)},
            _single(_mann_nonpf),
        ),
        CatalogEntry(
            "potent_nopwc",
            "two-generator potent group (p > 3) with powerful class n(p-2)+1",
            {"p": ("int", 5), "n": ("int", 1)},
            _single(_potent_nopwc),
        ),
        CatalogEntry(
            "kirillov_quotient",
            "finite quotient of the shift action with [x_(p-1), alpha] = x_p^p",
            {"p": ("int", 3), "e": ("int", 2)},
            _single(_kirillov_quotient),
        ),
        CatalogEntry(
            "mainline_coclass1",
            "C_p on Z[zeta_p]/(zeta_p - 1)^k; order p^(k+1), class k",
            {"p": ("int", 3), "k": ("int", None)},
            _single(_mainline_coclass1),
        ),
        CatalogEntry(
            "wreath",
            "regular wreath product C_p wr C_p",
            {"p": ("int", 3)},
            _single(_wreath),
        ),
    ]
}


def catalog_list() -> List[str]:
    return sorted(ENTRIES)


def _param_int(name: str, key: str, val: object) -> int:
    if isinstance(val, int) and not isinstance(val, bool):
        return val
    raise ParamOutOfRange(f"{name} parameter {key!r} must be an integer, got {val!r}")


def resolve_params(name: str, params: Params) -> Params:
    entry = ENTRIES.get(name)
    if entry is None:
        raise UnknownName(f"unknown catalog entry {name!r}; known: {', '.join(catalog_list())}")
    out: Params = {}
    for key, (kind, default) in entry.param_schema.items():
        if key in params:
            val = params[key]
        elif default is not None:
            val = default
        else:
            raise ParamOutOfRange(f"{name} requires parameter {key!r}")
        if kind == "int":
            out[key] = _param_int(name, key, val)
        else:
            # a scalar is a one-element list: ``--param exps=3`` means C_{p^3}
            vals = val if isinstance(val, (list, tuple)) else (val,)
            out[key] = tuple(_param_int(name, key, v) for v in vals)
    extra = set(params) - set(entry.param_schema)
    if extra:
        raise ParamOutOfRange(f"{name} does not take parameters {sorted(extra)}")
    return out


def catalog_instances(name: str, /, **params: object) -> List[FiniteGroup]:
    """The groups of a catalog entry, refused before any is built if over the element cap."""
    full = resolve_params(name, dict(params))
    p, e = _instance_exponent(name, full)
    validate_odd_prime(p)
    _check_cap(p, e, instance_key(name, full))
    return ENTRIES[name].expand(full)


def catalog_build(name: str, /, **params: object) -> FiniteGroup:
    groups = catalog_instances(name, **params)
    if len(groups) != 1:
        raise ParamOutOfRange(
            f"{name} expands to {len(groups)} groups; use catalog_instances"
        )
    return groups[0]


def instance_key(name: str, params: Params) -> str:
    parts = [name]
    for key in sorted(params):
        val = params[key]
        if isinstance(val, (list, tuple)):
            parts.append(f"{key}={'.'.join(str(v) for v in val)}")
        else:
            parts.append(f"{key}={val}")
    return "|".join(parts)


# Instances exercised by the verification suites, smallest orders first.
DEFAULT_SUITE: List[Tuple[str, Params]] = [
    ("abelian", {"p": 3, "exps": (3,)}),
    ("abelian", {"p": 3, "exps": (2, 1)}),
    ("abelian", {"p": 3, "exps": (1, 1, 1)}),
    ("heisenberg", {"p": 3}),
    ("modular", {"p": 3}),
    ("unitriangular", {"n": 3, "p": 3, "m": 1}),
    ("mainline_coclass1", {"p": 3, "k": 2}),
    ("abelian", {"p": 3, "exps": (2, 2)}),
    ("wreath", {"p": 3}),
    ("mainline_coclass1", {"p": 3, "k": 3}),
    ("heisenberg", {"p": 5}),
    ("mann_nonpf", {"p": 3}),
    ("mainline_coclass1", {"p": 3, "k": 4}),
    ("unitriangular", {"n": 3, "p": 3, "m": 2}),
    ("mainline_coclass1", {"p": 3, "k": 5}),
    ("mainline_coclass1", {"p": 3, "k": 6}),
    ("potent_nopwc", {"p": 5, "n": 1}),
    ("kirillov_quotient", {"p": 3, "e": 2}),
]


def suite_instances(max_order: Optional[int] = None) -> List[Tuple[str, Params]]:
    """Default suite filtered by group order without building the groups."""
    out = []
    for name, params in DEFAULT_SUITE:
        if max_order is None or _instance_order(name, params) <= max_order:
            out.append((name, params))
    return out


def _instance_order(name: str, params: Params) -> int:
    p, e = _instance_exponent(name, params)
    return p**e


def _instance_exponent(name: str, params: Params) -> Tuple[int, int]:
    """(p, e) with p^e the order of each group the instance expands to; p^e is not computed."""
    p = int(params.get("p", 3))  # type: ignore[call-overload]
    if name == "order27_all":
        return 3, 3
    if name in ("heisenberg", "modular"):
        return p, 3
    if name == "abelian":
        return p, sum(params["exps"])  # type: ignore[arg-type]
    if name == "unitriangular":
        n, m = int(params["n"]), int(params["m"])  # type: ignore[call-overload]
        return p, m * n * (n - 1) // 2
    if name == "mann_nonpf":
        return p, p + 2
    if name == "potent_nopwc":
        return p, int(params["n"]) * (p - 1) + 1  # type: ignore[call-overload]
    if name == "kirillov_quotient":
        return p, p * int(params["e"]) + int(params["e"])  # type: ignore[call-overload]
    if name == "mainline_coclass1":
        return p, int(params["k"]) + 1  # type: ignore[call-overload]
    if name == "wreath":
        return p, p + 1
    raise UnknownName(name)


_EXPECTED: Optional[Dict[str, dict]] = None


def expected_records() -> Dict[str, dict]:
    global _EXPECTED
    if _EXPECTED is None:
        text = resources.files(__package__).joinpath("expected.json").read_text()
        _EXPECTED = json.loads(text)
    return _EXPECTED


def expected_record(name: str, params: Params) -> Optional[dict]:
    return expected_records().get(instance_key(name, resolve_params(name, dict(params))))
