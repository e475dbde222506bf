#!/usr/bin/env python3
"""Regenerate perfbench/golden.json, the benchmark's reference outputs.

Records the sha256 of each analyze_catalog job's canonical ``--json`` output
and the number of verify results per verify_default instance.  Run from the
repository root only when the outputs are meant to change:

    python3 perfbench/freeze_golden.py
"""

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from pgroups import catalog as cat  # noqa: E402
from pgroups import verify  # noqa: E402
from pgroups.fileformat import canonical_json, catalog_document  # noqa: E402


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE) as wd:
        for name, params in cat.DEFAULT_SUITE:
            key = cat.instance_key(name, params)
            path = os.path.join(wd, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(catalog_document(name, dict(params))))
            code, text = workloads.run_analyze(path)
            if code != 0:
                raise SystemExit(f"analyze {key} exited {code}")
            digests[key] = hashlib.sha256(text.encode()).hexdigest()
    counts = {}
    for name, params in cat.suite_instances(verify.DEFAULT_MAX_ORDER):
        results = workloads.run_verify(name, params, seed=1)
        if not all(r.passed for r in results):
            raise SystemExit(f"verify {name} {params} has failing properties")
        counts[cat.instance_key(name, params)] = len(results)
    golden = {"analyze_catalog": digests, "verify_default": counts}
    with open(workloads.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
