"""Traced-run instrumentation of pgroups, applied from outside the package.

``Tracer.install`` replaces the listed public functions in every pgroups
module namespace that binds them (``eta_series`` imports ``quotient`` by
name, so patching ``subgroups.quotient`` alone would miss those calls) and
wraps the ``mul`` of every FiniteGroup built afterwards with a counter.
Each wrapped call records a span (name, start, end, parent, job) in memory;
self time is a span's duration minus the time covered by its child spans.
Nothing under ``src/`` is modified and ``uninstall`` restores everything.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import random
import sys
import time
import weakref
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional

# Functions wrapped per module.  Every name is public API of that module.
WRAPPED: Dict[str, List[str]] = {
    "groups": ["build_from_pc", "build_abelian", "build_unitriangular", "build_semidirect"],
    "fileformat": ["load_path"],
    "catalog": ["catalog_instances", "catalog_build"],
    "subgroups": [
        "enumerate_normal_subgroups",
        "quotient",
        "closure",
        "normal_closure",
        "commutator_subgroup",
        "power_subgroup",
        "join",
        "upper_central_series",
        "lower_central_series",
        "center",
        "omega_subgroup",
        "subgroup_as_group",
        "pull_back",
        "push_forward",
        "iterated_commutator",
        "frattini",
    ],
    "eta_series": [
        "upper_eta_series",
        "eta",
        "powerfully_embedded_normals",
        "is_powerfully_embedded",
        "commutator_with_group",
        "powerful_height",
        "uniserial_report",
    ],
    "filtrations": [
        "pf_embedding_witness",
        "omega_exponent_check",
        "small_height_filtration",
        "is_potent",
        "is_power_surjective",
    ],
    "report": ["analyze_group"],
    "verify": ["run_suites"],
    "cli": ["main"],
}

# Per-layer time metrics: metric name -> wrapped functions whose self time it sums.
SELF_TIME_GROUPS: Dict[str, List[str]] = {
    "subgroups.enumerate_s": ["subgroups.enumerate_normal_subgroups"],
    "subgroups.quotient_s": ["subgroups.quotient"],
    "subgroups.calculus_s": [
        "subgroups." + f
        for f in ("closure", "normal_closure", "commutator_subgroup", "power_subgroup", "join")
    ],
    "subgroups.series_s": ["subgroups.upper_central_series", "subgroups.lower_central_series"],
    "eta_series.upper_eta_s": ["eta_series.upper_eta_series"],
    "eta_series.pwh_s": ["eta_series.powerful_height"],
    "eta_series.uniserial_s": ["eta_series.uniserial_report"],
    "groups.build_s": ["groups." + f for f in WRAPPED["groups"]],
    "groups.hom_verify_s": ["groups.GroupHom._verify"],
    "fileformat.load_s": ["fileformat.load_path"],
    "filtrations.pf_witness_s": ["filtrations.pf_embedding_witness"],
    "filtrations.omega_s": ["filtrations.omega_exponent_check"],
    "report.analyze_self_s": ["report.analyze_group"],
    "cli.self_s": ["cli.main"],
    "verify.self_s": ["verify.run_suites"],
}

# Whole-module self time for the modules no single metric above covers.
MODULE_SELF_TIME = ("groups", "catalog", "subgroups", "eta_series", "filtrations")

COUNTS = (
    "subgroups.lattices_enumerated",
    "subgroups.normals_found",
    "subgroups.quotients_built",
    "groups.rejected",
    "groups.mul_calls",
)

BACKENDS = ("semidirect", "unitriangular", "quotient", "pc")

RATE_PAIRS = 20_000


def _backend_kind(G) -> str:
    """'pc', 'semidirect', ... from the backend class name ('_PcBackend')."""
    back = G.backend
    if isinstance(back, tuple):
        return str(back[0])
    return type(back).__name__.strip("_").replace("Backend", "").lower()


class Tracer:
    """Spans and counters of one traced pass; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.job = -1
        self.largest: Dict[str, object] = {}
        self._restore: List[Callable[[], None]] = []
        self._groups: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        from pgroups import groups

        for short in WRAPPED:
            importlib.import_module(f"pgroups.{short}")
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("pgroups")]
        for short, names in WRAPPED.items():
            mod = sys.modules[f"pgroups.{short}"]
            for name in names:
                original = getattr(mod, name, None)
                if original is None:  # renamed or removed since: its metrics read 0
                    continue
                wrapper = self._wrap(f"{short}.{name}", original, _PROBES.get(f"{short}.{name}"))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            self._patch(m, attr, wrapper)

        hom_verify = getattr(groups.GroupHom, "_verify", None)
        if hom_verify is not None:
            self._patch(groups.GroupHom, "_verify", self._wrap("groups.GroupHom._verify", hom_verify, None))

        init = groups.FiniteGroup.__init__
        counts, tracked, largest = self.counts, self._groups, self.largest

        @functools.wraps(init)
        def counting_init(G, *args, **kwargs):
            init(G, *args, **kwargs)
            mul = G.mul

            def counted(a: int, b: int) -> int:
                counts["groups.mul_calls"] += 1
                return mul(a, b)

            G.mul = counted
            tracked[G] = mul
            kind = _backend_kind(G)
            best = largest.get(kind)
            if best is None or best[0].order < G.order:
                largest[kind] = (G, mul)

        self._patch(groups.FiniteGroup, "__init__", counting_init)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append(functools.partial(setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()
        for G, mul in list(self._groups.items()):
            G.mul = mul
        self._groups.clear()

    def _wrap(self, name: str, fn: Callable, probe: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = probe(counts, *args, **kwargs) if probe is not None else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if done is not None:
                    done(None, exc)
                raise
            finally:
                stack.pop()
                rec[2] = clock()
            if done is not None:
                done(result, None)
            return result

        return wrapper

    # -- jobs ------------------------------------------------------------------

    @contextlib.contextmanager
    def job_span(self, index: int, label: str) -> Iterator[None]:
        """Root span of one benchmark job; wrapped calls inside become its children."""
        self.job = index
        rec = [f"bench.job:{label}", time.perf_counter(), 0.0, -1, index]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self.stack.pop()
            rec[2] = time.perf_counter()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time per span name over every recorded span."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return dict(out)

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the pass this tracer recorded."""
        selft = self.self_times()
        out: Dict[str, float] = {}
        for metric, names in SELF_TIME_GROUPS.items():
            out[metric] = sum(selft.get(n, 0.0) for n in names)
        for module in MODULE_SELF_TIME:
            out[f"{module}.self_s"] = sum(
                t for n, t in selft.items() if n.startswith(module + ".")
            )
        for key in COUNTS:
            out[key] = self.counts[key]
        calls = self.counts["subgroups.quotient_calls"]
        out["subgroups.quotient_hit_ratio"] = (
            (calls - self.counts["subgroups.quotients_built"]) / calls if calls else 0.0
        )
        tests = self.counts["eta_series.pwe_tests"]
        out["eta_series.pwe_ratio"] = self.counts["eta_series.pwe_true"] / tests if tests else 0.0
        return out

    def mul_rates(self, seed: int) -> Dict[str, float]:
        """Multiplications per second with the uncounted ``mul`` of the largest
        group of each backend seen; 0 for a backend the workload never built."""
        out = {}
        for kind in BACKENDS:
            best = self.largest.get(kind)
            if best is None:
                out[f"groups.mul_per_s.{kind}"] = 0.0
                continue
            G, mul = best
            rng = random.Random(f"{seed}|mul|{kind}")
            pairs = [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(RATE_PAIRS)]
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                for a, b in pairs:
                    mul(a, b)
                times.append(time.perf_counter() - t0)
            out[f"groups.mul_per_s.{kind}"] = RATE_PAIRS / sorted(times)[1]
        return out

    def write_spans(self, fh, pass_index: int) -> None:
        """One JSON array per span: [pass, name, start_s, end_s, parent, job]."""
        for rec in self.spans:
            fh.write(json.dumps([pass_index] + rec, separators=(",", ":")) + "\n")


# -- counters taken at the call boundary ------------------------------------------


def _probe_enumerate(counts, G, *args, **kwargs):
    if G.cache.get("normals") is not None:
        return None

    def done(result, exc):
        if exc is None:
            counts["subgroups.lattices_enumerated"] += 1
            counts["subgroups.normals_found"] += len(result)

    return done


def _probe_quotient(counts, G, N, *args, **kwargs):
    counts["subgroups.quotient_calls"] += 1
    if N.bits not in G.cache.get("quotients", {}):
        counts["subgroups.quotients_built"] += 1
    return None


def _probe_pwe(counts, *args, **kwargs):
    def done(result, exc):
        if exc is None:
            counts["eta_series.pwe_tests"] += 1
            counts["eta_series.pwe_true"] += bool(result)

    return done


def _probe_build_pc(counts, *args, **kwargs):
    from pgroups.errors import InconsistentPresentation

    def done(result, exc):
        if isinstance(exc, InconsistentPresentation):
            counts["groups.rejected"] += 1

    return done


_PROBES = {
    "subgroups.enumerate_normal_subgroups": _probe_enumerate,
    "subgroups.quotient": _probe_quotient,
    "eta_series.is_powerfully_embedded": _probe_pwe,
    "groups.build_from_pc": _probe_build_pc,
}
