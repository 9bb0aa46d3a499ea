#!/usr/bin/env python3
"""Record every workload's per-request output digests at the default seed.

    python3 perfbench/record_digests.py

``run.py`` compares a default-seed run against this record and counts each
request whose outputs differ as failed.  microfract promises exact values
and byte-identical artifacts, so re-record only with a change that is
meant to alter outputs, and say so in its description.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import harness
from run import DEFAULT_SEED, DIGESTS, OUT_DIR, ROOT, WORKLOAD_NAMES


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    record = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in WORKLOAD_NAMES:
        out_dir = f"{OUT_DIR}/artifacts/{name}"
        try:
            res = harness.run_pass(workloads.build(name, DEFAULT_SEED, out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if not all(res.ok):
            print("\n".join(res.errors), file=sys.stderr)
            return 1
        record["workloads"][name] = {"digest": harness.fold_digests(res.digests),
                                     "requests": res.digests}
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
