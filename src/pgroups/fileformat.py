"""pgroup-v1 group-definition documents.

A document is a JSON object with ``format`` "pgroup-v1", an odd ``prime``,
and a ``kind`` of pc | abelian | unitriangular | semidirect | catalog; the
remaining fields depend on the kind (see README for the exact schema).
Unknown fields are rejected.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .catalog import catalog_instances, resolve_params
from .errors import FormatError, NotAutomorphism, OrderMismatch
from .groups import (
    FiniteGroup,
    PcPresentation,
    build_abelian,
    build_from_pc,
    build_semidirect,
    build_unitriangular,
)

FORMAT = "pgroup-v1"

_FIELDS = {
    "pc": {"ngens", "powers", "conjugates"},
    "abelian": {"exps"},
    "unitriangular": {"n", "m"},
    "semidirect": {"m", "alpha", "t"},
    "catalog": {"name", "params"},
}


def _require(doc: dict, key: str, types, what: str):
    if key not in doc:
        raise FormatError(f"{what}: missing field {key!r}")
    val = doc[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise FormatError(f"{what}: field {key!r} has the wrong type")
    return val


def _int_list(val, what: str) -> List[int]:
    if not isinstance(val, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in val
    ):
        raise FormatError(f"{what} must be a list of integers")
    return val


def _word(val, what: str) -> Tuple[Tuple[int, int], ...]:
    if not isinstance(val, list):
        raise FormatError(f"{what} must be a list of [generator, exponent] pairs")
    out = []
    for pair in val:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            raise FormatError(f"{what} must be a list of [generator, exponent] pairs")
        out.append((pair[0], pair[1]))
    return tuple(out)


def load_document(doc: object) -> List[FiniteGroup]:
    """Build the group(s) a pgroup-v1 document describes."""
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    fmt = _require(doc, "format", str, "document")
    if fmt != FORMAT:
        raise FormatError(f"unsupported format {fmt!r} (expected {FORMAT!r})")
    kind = _require(doc, "kind", str, "document")
    if kind not in _FIELDS:
        raise FormatError(f"unknown kind {kind!r}")
    prime = _require(doc, "prime", int, "document")
    allowed = _FIELDS[kind] | {"format", "kind", "prime"}
    unknown = set(doc) - allowed
    if unknown:
        raise FormatError(f"unknown fields for kind {kind!r}: {sorted(unknown)}")
    if kind == "pc":
        return [_load_pc(doc, prime)]
    if kind == "abelian":
        return [build_abelian(prime, _int_list(_require(doc, "exps", list, "abelian"), "exps"))]
    if kind == "unitriangular":
        n = _require(doc, "n", int, "unitriangular")
        m = _require(doc, "m", int, "unitriangular")
        return [build_unitriangular(n, prime, m)]
    if kind == "semidirect":
        return [_load_semidirect(doc, prime)]
    return _load_catalog(doc, prime)


def _load_pc(doc: dict, prime: int) -> FiniteGroup:
    ngens = _require(doc, "ngens", int, "pc")
    powers_doc = doc.get("powers", {})
    conj_doc = doc.get("conjugates", {})
    if not isinstance(powers_doc, dict) or not isinstance(conj_doc, dict):
        raise FormatError("pc: powers and conjugates must be objects")
    powers: Dict[int, tuple] = {}
    for key, val in powers_doc.items():
        (i,) = _key_ints(key, 1, "power-relation key", '"i"')
        powers[i] = _word(val, f"powers[{key}]")
    conjugates: Dict[Tuple[int, int], tuple] = {}
    for key, val in conj_doc.items():
        j, i = _key_ints(key, 2, "conjugate key", '"j,i"')
        conjugates[(j, i)] = _word(val, f"conjugates[{key}]")
    return build_from_pc(PcPresentation(prime, ngens, powers, conjugates))


def _key_ints(key: str, count: int, what: str, shape: str) -> List[int]:
    """The count comma-separated integers of a relation key, each spelt as ``str`` spells it.

    Only that one spelling is accepted ("1", not "01", " 1", "+1" or "1_0"),
    so no two keys of a document name the same relation.
    """
    parts = key.split(",")
    try:
        ints = [int(part) for part in parts]
    except ValueError:
        ints = []
    if len(ints) == count and all(str(i) == part for i, part in zip(ints, parts)):
        return ints
    raise FormatError(f"pc: {what} {key!r} must look like {shape}, in canonical integers")


def _load_semidirect(doc: dict, prime: int) -> FiniteGroup:
    mdoc = _require(doc, "m", dict, "semidirect")
    unknown = set(mdoc) - {"exps"}
    if unknown:
        raise FormatError(f"semidirect: unknown fields in m: {sorted(unknown)}")
    exps = _int_list(_require(mdoc, "exps", list, "semidirect m"), "m.exps")
    M = build_abelian(prime, exps)
    alpha = _require(doc, "alpha", list, "semidirect")
    if len(alpha) != len(exps):
        raise FormatError("semidirect: alpha must give one image per generator of m")
    images = []
    for row in alpha:
        vec = _int_list(row, "alpha row")
        if len(vec) != len(exps):
            raise FormatError("semidirect: alpha rows must have one exponent per generator")
        images.append(M.backend.encode(vec))
    t = _require(doc, "t", int, "semidirect")
    try:
        return build_semidirect(M, images, t)
    except (NotAutomorphism, OrderMismatch) as exc:
        # here alpha is input; catalog builders raise these on bugs only
        raise FormatError(f"semidirect: {exc}") from exc


def _load_catalog(doc: dict, prime: int) -> List[FiniteGroup]:
    name = _require(doc, "name", str, "catalog")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise FormatError("catalog: params must be an object")
    params = dict(params)
    if "p" in params and params["p"] != prime:
        raise FormatError("catalog: params.p contradicts the document prime")
    params.setdefault("p", prime)
    if "exps" in params:
        params["exps"] = _int_list(params["exps"], "params.exps")
    return catalog_instances(name, **params)


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object that names no key twice; a repeated key would keep only its last value."""
    doc: dict = {}
    for key, val in pairs:
        if key in doc:
            raise FormatError(f"key {key!r} is given twice in one object")
        doc[key] = val
    return doc


def loads(text: str) -> List[FiniteGroup]:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    return load_document(doc)


def load_path(path: str) -> List[FiniteGroup]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def catalog_document(name: str, params: dict) -> dict:
    """A pgroup-v1 document reproducing a catalog entry; its parameters pass ``resolve_params``."""
    full = resolve_params(name, params)
    out_params = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in full.items()
    }
    return {
        "format": FORMAT,
        "prime": full["p"],  # every entry takes p
        "kind": "catalog",
        "name": name,
        "params": out_params,
    }


def canonical_json(obj: object) -> str:
    """Canonical JSON: sorted keys, no spaces, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
