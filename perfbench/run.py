#!/usr/bin/env python3
"""pgroups benchmark: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload analyze_catalog --seed 1 --seconds 36 --trace 0

Run from the repository root.  The run repeats passes over the workload's
jobs for about ``--seconds``; the first pass is always whole.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` spends half the time untraced
and half traced and reports the per-layer metrics plus the tracing overhead.
In untraced passes a host probe, timed every 40 ms while the jobs run,
measures how fast the shared host runs this process; the ``*_norm_s``
metrics rescale job times by it.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import workloads
from hostprobe import REF_PROBE_S, HostProbe
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Child processes timed from spawn to "first job ready"; setup_s is their median.
SETUP_SAMPLES = 9

# Seconds between host probes in a set-up child, whose set-up takes about 0.15 s.
SETUP_PROBE_INTERVAL_S = 0.02

# Seconds between host probes in untraced passes (see hostprobe.py).
PROBE_INTERVAL_S = 0.04


def _unit(metric: str) -> str:
    if ".mul_per_s." in metric:
        return "1/s"
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _parse(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_pgroups() -> None:
    if not os.path.isfile(os.path.join(SRC, "pgroups", "__init__.py")):
        sys.stderr.write(f"error: no pgroups sources under {SRC}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import pgroups  # noqa: F401


def _git_sha() -> str:
    """HEAD of the checkout's .git, read directly; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


# -- set-up ------------------------------------------------------------------------


@contextlib.contextmanager
def _workdir():
    path = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _setup_only(args: argparse.Namespace) -> int:
    """Set up under the host probe; report what the probes took and the mean speed."""
    with _workdir() as wd:
        with HostProbe(SETUP_PROBE_INTERVAL_S) as probe:
            _import_pgroups()
            workloads.setup(args.workload, args.seed, wd)
        took, speed = probe.window(float("-inf"), float("inf"))
        sys.stdout.write(f"ready {took!r} {speed!r}\n")
        sys.stdout.flush()
    return 0


def _time_setups(args: argparse.Namespace) -> Tuple[List[float], List[float]]:
    """Seconds from spawning a fresh interpreter until its jobs are ready.

    Returns the times without the child's probes, and the same rescaled to
    nominal host speed by the child's probes.
    """
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    times, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        fields = line.split()
        if len(fields) != 3 or fields[0] != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed (exit code {code})")
        took, speed = float(fields[1]), float(fields[2])
        times.append(elapsed - took)
        scaled.append(times[-1] * speed)
    return times, scaled


# -- passes ------------------------------------------------------------------------


def _run_pass(
    jobs, tracer=None, probe=None, deadline: Optional[float] = None,
    expected: Optional[List[float]] = None,
) -> Tuple[List[float], List[Optional[str]], Optional[List[float]]]:
    """Job times, check results, and job times rescaled to nominal host speed.

    Times leave out what the probe took.  Without a probe there are no
    rescaled times.  With a deadline, the pass stops before the first job
    that would end after it if it took its ``expected`` time.
    """
    windows: List[Tuple[float, float]] = []
    errors: List[Optional[str]] = []
    for i, job in enumerate(jobs):
        if deadline is not None and time.perf_counter() + expected[i] > deadline:
            break
        gc.collect()
        span = tracer.job_span(i, job.label) if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                outcome = job.work()
        except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
            windows.append((t0, time.perf_counter()))
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        windows.append((t0, time.perf_counter()))
        try:
            errors.append(job.check(outcome))
        except Exception as exc:
            errors.append(f"output check raised {type(exc).__name__}: {exc}")
    if probe is None:
        return [t1 - t0 for t0, t1 in windows], errors, None
    times, scaled = [], []
    for t0, t1 in windows:
        took, speed = probe.window(t0, t1)
        times.append(t1 - t0 - took)
        scaled.append(times[-1] * speed)
    return times, errors, scaled


def _run_passes(jobs, budget: float, traced: bool):
    """Passes over the jobs for about budget seconds; the first one is always whole.

    Traced passes stay whole, because their counts are compared pass by pass:
    another one starts while it is expected to end within the budget.
    Untraced passes fill the budget: after the first, each job runs while it
    is expected, at its first-pass time, to end within the budget.  They run
    under the host probe; traced passes do not, so that the probe's time
    stays out of the layers' self times.
    """
    passes = []
    probe = None if traced else HostProbe(PROBE_INTERVAL_S)
    start = time.perf_counter()
    with probe if probe is not None else contextlib.nullcontext():
        while True:
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            deadline = None if traced or not passes else start + budget
            try:
                times, errors, scaled = _run_pass(
                    jobs, tracer, probe, deadline, passes[0][0] if passes else None
                )
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if times:
                passes.append((times, errors, tracer, scaled))
            if traced:
                elapsed = time.perf_counter() - start
                if elapsed / len(passes) * (len(passes) + 1) > budget:
                    return passes, probe
            elif len(times) < len(jobs):
                return passes, probe


def _job_medians(passes, field: int = 0) -> List[float]:
    """Per-job medians of the passes' times (field 0) or rescaled times (field 3)."""
    return [statistics.median(_job_times(passes, j, field)) for j in range(len(passes[0][0]))]


def _job_times(passes, j: int, field: int = 0) -> List[float]:
    """Job j's times in the passes that reached it."""
    return [p[field][j] for p in passes if j < len(p[field])]


def _traced_metrics(passes, untraced_wall: float, seed: int) -> Dict[str, float]:
    per_pass = [p[2].layer_metrics() for p in passes]
    first = per_pass[0]
    out: Dict[str, float] = {}
    for key in first:
        if _unit(key) == "s":
            out[key] = statistics.median(m[key] for m in per_pass)
        else:  # counts and ratios repeat exactly from pass to pass
            out[key] = first[key]
    mismatched = [k for k in first if _unit(k) != "s" and any(m[k] != first[k] for m in per_pass)]
    if mismatched:
        sys.stdout.write(f"# warning: counts differ between traced passes: {mismatched}\n")
    out.update(passes[-1][2].mul_rates(seed))
    out["trace.overhead_s"] = sum(_job_medians(passes)) - untraced_wall
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    os.makedirs(OUT, exist_ok=True)
    if args.setup_only:
        return _setup_only(args)
    _import_pgroups()

    meta = _metadata(args)
    setups, setups_scaled = _time_setups(args)
    with _workdir() as wd:
        jobs = workloads.setup(args.workload, args.seed, wd)
        if args.trace:
            plain, probe = _run_passes(jobs, args.seconds / 2, traced=False)
            traced, _ = _run_passes(jobs, args.seconds / 2, traced=True)
            all_passes = plain + traced
        else:
            plain, probe = _run_passes(jobs, args.seconds, traced=False)
            all_passes = plain

    medians = _job_medians(plain)
    scaled = _job_medians(plain, 3)
    wall = sum(medians)
    raw = {
        "wall_s": wall,
        "slowest_job_s": max(medians),
        "probe_median_s": statistics.median(probe.durations),
        "setup_s": statistics.median(setups),
    }
    if args.trace:
        metrics = _traced_metrics(traced, wall, args.seed)
    else:
        metrics = {
            "setup_s": statistics.median(setups_scaled),
            "wall_norm_s": sum(scaled),
            "slowest_job_norm_s": max(scaled),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    errors = [
        (jobs[j].label, err) for p in all_passes for j, err in enumerate(p[1]) if err is not None
    ]
    attempted = sum(len(p[1]) for p in all_passes)

    record = {
        "meta": meta,
        "passes": {"untraced": len(plain), "traced": len(all_passes) - len(plain)},
        "setup_samples_s": setups,
        "setup_scaled_s": setups_scaled,
        "job_median_s": {job.label: t for job, t in zip(jobs, medians)},
        "job_times_s": {job.label: _job_times(all_passes, j) for j, job in enumerate(jobs)},
        "job_scaled_s": {job.label: _job_times(plain, j, 3) for j, job in enumerate(jobs)},
        "probe": {
            "interval_s": PROBE_INTERVAL_S,
            "ref_s": REF_PROBE_S,
            "samples": len(probe.durations),
            "quartiles_s": statistics.quantiles(probe.durations, n=4),
        },
        "error_rate": len(errors) / attempted,
        "errors": errors,
        "raw": raw,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        with open(os.path.join(OUT, f"spans-{stem}.jsonl"), "w", encoding="utf-8") as fh:
            for k, (_, _, tracer, _) in enumerate(traced):
                tracer.write_spans(fh, k)

    sys.stdout.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    sys.stdout.write(
        f"# passes: {record['passes']['untraced']} untraced, {record['passes']['traced']} traced; "
        f"jobs attempted {attempted}, failed {len(errors)}\n"
    )
    for label, err in errors:
        sys.stdout.write(f"# FAILED {label}: {err}\n")
    sys.stdout.write(f"{'error_rate':32s} {record['error_rate']:.6g} ratio\n")
    for key in sorted(raw):
        sys.stdout.write(f"{key + ' (raw)':32s} {raw[key]:.6g} s\n")
    for key in sorted(metrics):
        sys.stdout.write(f"{key:32s} {metrics[key]:.6g} {_unit(key)}\n")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
