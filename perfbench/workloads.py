"""The three benchmark workloads: inputs from a seed, jobs, and output checks.

A job is a label, a ``work`` callable that is timed, and a ``check`` that
inspects what ``work`` returned and gives an error message or None.  Every
job builds its group from scratch, so each one pays the cold-cache cost a
``pgroups`` invocation pays.  Only ``work`` is timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import pcgen

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

NAMES = ("analyze_catalog", "verify_default", "pc_ingest")


@dataclass
class Job:
    label: str
    work: Callable[[], object]
    check: Callable[[object], Optional[str]]


def load_golden() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: str, doc: dict) -> str:
    from pgroups.fileformat import canonical_json

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
    return path


def _file_name(key: str) -> str:
    return "".join(c if c.isalnum() or c in "=.-" else "_" for c in key) + ".json"


def setup(workload: str, seed: int, workdir: str) -> List[Job]:
    """Generate and write the inputs for one seed; return the jobs in run order."""
    # Importing every module a job uses and loading expected.json belong to set-up.
    from pgroups import catalog as cat, cli, fileformat, subgroups, verify  # noqa: F401

    cat.expected_records()
    golden = load_golden()
    rng = random.Random(f"{workload}|order|{seed}")
    if workload == "analyze_catalog":
        digests = golden[workload]
        jobs = [_analyze_job(name, params, workdir, digests) for name, params in cat.DEFAULT_SUITE]
    elif workload == "verify_default":
        instances = cat.suite_instances(verify.DEFAULT_MAX_ORDER)
        jobs = [_verify_job(name, params, seed, golden[workload]) for name, params in instances]
    elif workload == "pc_ingest":
        jobs = [_pc_job(i, pres, workdir) for i, pres in enumerate(pcgen.workload(seed))]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(NAMES)}")
    rng.shuffle(jobs)
    return jobs


# -- analyze_catalog -------------------------------------------------------------

# Report fields compared with the catalog's expected record: field -> path.
_RECORD_FIELDS = {
    "order": ("group", "order"),
    "exponent": ("exponent",),
    "nilpotency_class": ("nilpotency_class",),
    "coclass": ("coclass",),
    "maximal_class": ("maximal_class",),
    "minimal_generators": ("minimal_generators",),
    "center_order": ("center_order",),
    "eta_series_orders": ("eta_series_orders",),
    "powerful_class": ("powerful_class",),
    "powerful": ("powerful",),
    "potent": ("potent",),
    "power_surjective_1": ("power_surjective", "1"),
    "pf": ("pf", "status"),
    "omega_ell": ("omega", "ell"),
}


def run_analyze(path: str):
    """``pgroups analyze PATH --json`` in-process: (exit code, stdout)."""
    from pgroups import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["analyze", path, "--json"])
    return code, out.getvalue()


def _analyze_job(name: str, params: dict, workdir: str, digests: Dict[str, str]) -> Job:
    from pgroups import catalog as cat
    from pgroups.fileformat import catalog_document

    key = cat.instance_key(name, params)
    path = _write(os.path.join(workdir, _file_name(key)), catalog_document(name, dict(params)))
    record = cat.expected_record(name, params) or {}

    def check(outcome) -> Optional[str]:
        code, text = outcome
        if code != 0:
            return f"exit code {code}"
        if hashlib.sha256(text.encode()).hexdigest() != digests.get(key):
            return "output digest differs from golden.json"
        report = json.loads(text)
        for field, where in _RECORD_FIELDS.items():
            if field not in record:
                continue
            got = report
            for part in where:
                got = got[part]
            if got != record[field]["v"]:
                return f"{field}: {got!r} != expected {record[field]['v']!r}"
        return None

    return Job(key, lambda: run_analyze(path), check)


# -- verify_default --------------------------------------------------------------


def run_verify(name: str, params: dict, seed: int):
    from pgroups import verify

    return verify.run_suites(list(verify.SUITES), instances=[(name, params)], seed=seed)


def _verify_job(name: str, params: dict, seed: int, counts: Dict[str, int]) -> Job:
    from pgroups import catalog as cat

    key = cat.instance_key(name, params)

    def check(results) -> Optional[str]:
        failed = [f"{r.suite}/{r.prop}" for r in results if not r.passed]
        if failed:
            return "failed properties: " + ", ".join(failed)
        if len(results) != counts.get(key):
            return f"{len(results)} results, golden.json records {counts.get(key)}"
        return None

    return Job(key, lambda: run_verify(name, params, seed), check)


# -- pc_ingest -------------------------------------------------------------------


def _pc_job(index: int, pres: pcgen.Presentation, workdir: str) -> Job:
    from pgroups import fileformat
    from pgroups import subgroups as sg
    from pgroups.errors import InconsistentPresentation

    tag = "ok" if pres.consistent else "bad"
    label = f"pc{index}|p={pres.p}|n={pres.ngens}|{tag}"
    path = _write(os.path.join(workdir, _file_name(label)), pres.doc)

    def work():
        try:
            groups = fileformat.load_path(path)
        except InconsistentPresentation:
            return "rejected"
        return [(G.order, len(sg.lower_central_series(G).terms) - 1, G.exponent()) for G in groups]

    def check(outcome) -> Optional[str]:
        if not pres.consistent:
            return None if outcome == "rejected" else "inconsistent presentation was accepted"
        want = [(pres.p**pres.ngens, pres.nilpotency_class, pres.exponent)]
        if outcome != want:
            return f"(order, class, exponent) {outcome} != predicted {want}"
        return None

    return Job(label, work, check)
