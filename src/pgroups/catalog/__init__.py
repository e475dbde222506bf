"""Built-in group constructions with recorded expected invariants.

Every entry builds deterministically from (small) integer parameters.
``resolve_params`` is the one gate for them: before anything is built or a
catalog document is written, it fills in defaults and checks the parameter
names, types and ranges, that p is an odd prime, and that the order the
entry states for its groups is within the element cap.  The private builders
trust what it passes them.

The expected-invariant records live in ``expected.json`` next to this module
so new records need no code change; each recorded value carries a source
tag: ``known`` (a recorded reference fact), ``arith`` (immediate
arithmetic), or ``computed`` (derived once by this library's oracles and
frozen).
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
    # param name -> ("int" | "int_list", default or None when required,
    # least value or None, greatest value or None); an "int_list" is nonempty
    # and the bounds hold for each of its entries
    param_schema: Dict[str, Tuple[str, Optional[object], Optional[int], Optional[int]]]
    # e with p^e the order of every group the entry expands to, from the
    # resolved parameters; the cap is checked on it before anything is built
    order_exponent: Callable[[Params], int]
    # the groups, from parameters that resolve_params has already checked
    expand: Callable[[Params], List[FiniteGroup]]


def _heisenberg(p: int) -> FiniteGroup:
    pres = PcPresentation(p, 3, powers={}, conjugates={(2, 1): ((2, 1), (3, 1))})
    return build_from_pc(pres, label=f"heisenberg(p={p})")


def _modular(p: int) -> FiniteGroup:
    # <a, b : a^(p^2) = b^p = 1, a^b = a^(1+p)> on pc generators b, a, a^p.
    pres = PcPresentation(
        p,
        3,
        powers={2: ((3, 1),)},
        conjugates={(2, 1): ((2, 1), (3, 1))},
    )
    return build_from_pc(pres, label=f"modular(p={p})")


def _shift_action(M: FiniteGroup, last: int) -> List[int]:
    """Images x_i -> x_i x_(i+1), with the last generator mapped to ``last``."""
    gens = M.generators
    return [M.mul(gens[i], gens[i + 1]) for i in range(len(gens) - 1)] + [last]


def _mann_nonpf(p: int) -> FiniteGroup:
    M = build_abelian(p, [1] * p)
    images = _shift_action(M, M.generators[-1])
    return build_semidirect(M, images, 2, label=f"mann_nonpf(p={p})")


def _potent_nopwc(p: int, n: int) -> FiniteGroup:
    M = build_abelian(p, [n + 1] + [n] * (p - 3))
    gens = M.generators
    images = _shift_action(M, M.mul(gens[-1], M.pow(gens[0], p)))
    return build_semidirect(M, images, n, label=f"potent_nopwc(p={p},n={n})")


def _kirillov_quotient(p: int, e: int) -> FiniteGroup:
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
    M = build_abelian(p, [1] * p)
    images = M.generators[1:] + [M.generators[0]]
    return build_semidirect(M, images, 1, label=f"wreath(p={p})")


def _single(builder: Callable[..., FiniteGroup]) -> Callable[[Params], List[FiniteGroup]]:
    return lambda params: [builder(**params)]


def _order27_all(params: Params) -> List[FiniteGroup]:
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
            {"p": ("int", 3, None, None)},
            lambda q: 3,
            _single(_heisenberg),
        ),
        CatalogEntry(
            "modular",
            "modular group of order p^3 and exponent p^2",
            {"p": ("int", 3, None, None)},
            lambda q: 3,
            _single(_modular),
        ),
        CatalogEntry(
            "order27_all",
            "all five groups of order 27",
            {"p": ("int", 3, 3, 3)},
            lambda q: 3,
            _order27_all,
        ),
        CatalogEntry(
            "abelian",
            "direct product of cyclic groups of orders p^e",
            {"p": ("int", 3, None, None), "exps": ("int_list", None, 1, None)},
            lambda q: sum(q["exps"]),
            _single(
                lambda p, exps: build_abelian(
                    p, exps, label=f"abelian(p={p},exps={'.'.join(map(str, exps))})"
                )
            ),
        ),
        CatalogEntry(
            "unitriangular",
            "upper unitriangular n x n matrices over Z/p^m",
            {"n": ("int", 3, 2, None), "p": ("int", 3, None, None), "m": ("int", 1, 1, None)},
            lambda q: q["m"] * q["n"] * (q["n"] - 1) // 2,
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
            {"p": ("int", 3, None, None)},
            lambda q: q["p"] + 2,
            _single(_mann_nonpf),
        ),
        CatalogEntry(
            "potent_nopwc",
            "two-generator potent group (p > 3) with powerful class n(p-2)+1",
            {"p": ("int", 5, 5, None), "n": ("int", 1, 1, None)},
            lambda q: q["n"] * (q["p"] - 1) + 1,
            _single(_potent_nopwc),
        ),
        CatalogEntry(
            "kirillov_quotient",
            "finite quotient of the shift action with [x_(p-1), alpha] = x_p^p",
            {"p": ("int", 3, None, None), "e": ("int", 2, 1, None)},
            lambda q: (q["p"] + 1) * q["e"],
            _single(_kirillov_quotient),
        ),
        CatalogEntry(
            "mainline_coclass1",
            "C_p on Z[zeta_p]/(zeta_p - 1)^k; order p^(k+1), class k",
            {"p": ("int", 3, None, None), "k": ("int", None, 1, None)},
            lambda q: q["k"] + 1,
            _single(_mainline_coclass1),
        ),
        CatalogEntry(
            "wreath",
            "regular wreath product C_p wr C_p",
            {"p": ("int", 3, None, None)},
            lambda q: q["p"] + 1,
            _single(_wreath),
        ),
    ]
}


def catalog_list() -> List[str]:
    return sorted(ENTRIES)


def _param_int(
    name: str, key: str, val: object, least: Optional[int], most: Optional[int]
) -> int:
    if not isinstance(val, int) or isinstance(val, bool):
        raise ParamOutOfRange(f"{name} parameter {key!r} must be an integer, got {val!r}")
    if least is not None and val < least:
        raise ParamOutOfRange(f"{name} requires {key} >= {least}, got {val}")
    if most is not None and val > most:
        raise ParamOutOfRange(f"{name} requires {key} <= {most}, got {val}")
    return val


def resolve_params(name: str, params: Params) -> Params:
    """The full parameters of an instance, once every check in the module docstring passes."""
    entry = ENTRIES.get(name)
    if entry is None:
        raise UnknownName(f"unknown catalog entry {name!r}; known: {', '.join(catalog_list())}")
    extra = set(params) - set(entry.param_schema)
    if extra:
        raise ParamOutOfRange(f"{name} does not take parameters {sorted(extra)}")
    out: Params = {}
    for key, (kind, default, least, most) in entry.param_schema.items():
        if key in params:
            val = params[key]
        elif default is not None:
            val = default
        else:
            raise ParamOutOfRange(f"{name} requires parameter {key!r}")
        if kind == "int":
            out[key] = _param_int(name, key, val, least, most)
        else:
            # a scalar is a one-element list: ``--param exps=3`` means C_{p^3}
            vals = val if isinstance(val, (list, tuple)) else (val,)
            if not vals:
                raise ParamOutOfRange(f"{name} parameter {key!r} must not be empty")
            out[key] = tuple(_param_int(name, key, v, least, most) for v in vals)
    p = validate_odd_prime(out["p"])  # type: ignore[arg-type]
    _check_cap(p, entry.order_exponent(out), instance_key(name, out))
    return out


def catalog_instances(name: str, /, **params: object) -> List[FiniteGroup]:
    """The groups of a catalog entry, built only once ``resolve_params`` passes its parameters."""
    full = resolve_params(name, params)
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
        full = resolve_params(name, params)
        order = full["p"] ** ENTRIES[name].order_exponent(full)  # type: ignore[operator]
        if max_order is None or order <= max_order:
            out.append((name, params))
    return out


_EXPECTED: Optional[Dict[str, dict]] = None


def expected_records() -> Dict[str, dict]:
    global _EXPECTED
    if _EXPECTED is None:
        text = resources.files(__package__).joinpath("expected.json").read_text()
        _EXPECTED = json.loads(text)
    return _EXPECTED


def expected_record(name: str, params: Params) -> Optional[dict]:
    return expected_records().get(instance_key(name, resolve_params(name, dict(params))))
