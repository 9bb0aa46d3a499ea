#!/usr/bin/env python3
"""Run one microfract benchmark workload and print its metrics.

    python3 perfbench/run.py --workload perc-mc --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout: the library is imported
from ``src/`` next to this directory, nothing needs installing.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A
``# provenance`` line before it records the code, machine and run shape.
See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import os

# One thread: pin numpy's math libraries before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
from spans import NullTracer, Tracer, aggregate  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ".perfbench_out"
DEFAULT_SEED = 0
DIGESTS = BENCH_DIR / "digests.json"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("perc-mc", "dyadic-sets", "exact-realize", "families-net")
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _recorded(workload: str, seed: int) -> list[str] | None:
    """Per-request digests recorded for the default seed, if any."""
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    entry = json.loads(DIGESTS.read_text()).get("workloads", {}).get(workload)
    return None if entry is None else entry["requests"]


def _setup(workloads, workload: str, seed: int, out_dir: str):
    """Input generation, reference sets and nets, and one warm-up request;
    repeated, each time scaled to the reference speed, with the median
    reported."""
    times, warm_failures = [], 0
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        requests = workloads.build(workload, seed, out_dir)
        warm = workloads.warmup_index(workload, requests)
        _, ok, _, error = harness.run_request(requests[warm], NullTracer(), warm)
        times.append((time.perf_counter() - t0) * harness.speed_scale())
        if not ok:
            warm_failures += 1
            print(f"warm-up failed: {error}", file=sys.stderr)
    return requests, statistics.median(times), warm_failures


def _variates_per_s() -> float:
    """PercField.variates on a fixed array of 2^16 level-20 cells."""
    import numpy as np
    from microfract.percolation import PercField

    coords = np.random.default_rng(20260811).integers(0, 1 << 20, size=(1 << 16, 1))
    field = PercField(7)
    times = []
    for _ in range(21):
        t0 = time.perf_counter_ns()
        field.variates(("probe", 0), 20, coords)
        times.append(time.perf_counter_ns() - t0)
    return coords.shape[0] / (statistics.median(times) * 1e-9)


def _kind_summary(requests, passes):
    med = harness.per_request_medians_ns(passes)
    kinds: dict[str, list[float]] = {}
    for req, m in zip(requests, med):
        kinds.setdefault(req.kind, []).append(m)
    for kind, vals in sorted(kinds.items()):
        print(f"  {kind:18s} n={len(vals):3d} median={statistics.median(vals) / 1e6:9.3f} ms "
              f"sum={sum(vals) / 1e9:7.3f} s", file=sys.stderr)


def _end_to_end(passes, setup_s, tail_p) -> dict[str, tuple[float, str]]:
    med = harness.per_request_medians_ns(passes)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "wall_s": sum(med) * 1e-9,  # the list once, each request at its median
        "req_p50_ms": harness.percentile(med, 50.0) * 1e-6,
        "req_tail_ms": harness.percentile(med, tail_p) * 1e-6,
        "peak_rss_mb": rss_kib * 1024 / 1e6,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def _per_layer(passes, tracers, workload, seed):
    """Per-layer metrics from the traced passes (the odd ones); the even
    passes ran untraced and give the tracing overhead."""
    units = layers.metric_units()
    per_pass = [layers.pass_metrics(aggregate(tr.spans, tr.counts)) for tr in tracers]
    errors = []
    values = {}
    for name in per_pass[0]:
        seen = [m[name] for m in per_pass]
        if units[name] in layers.REPEATING_UNITS:
            if len(set(seen)) != 1:
                errors.append(f"{name} differs between traced passes: {seen}")
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    values["percolation.variates_per_s"] = _variates_per_s()
    traced, untraced = (sum(harness.per_request_medians_ns(passes[i::2])) for i in (1, 0))
    values["trace.overhead_s"] = (traced - untraced) * 1e-9  # wall_s traced minus untraced

    path = Path(OUT_DIR) / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for i, tr in enumerate(tracers):
            for s in tr.spans:
                fh.write(json.dumps([i, s.name, s.start_ns, s.end_ns, s.parent,
                                     s.request, s.status]) + "\n")
    return {name: (values[name], units[name]) for name in units}, errors


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "microfract").is_dir():
        print(f"error: no microfract sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads
    import_s = (time.perf_counter() - t0) * harness.speed_scale()

    out_dir = f"{OUT_DIR}/artifacts/{args.workload}"
    try:
        requests, setup_median, warm_failures = _setup(workloads, args.workload, args.seed,
                                                       out_dir)
        n = len(requests)
        tail_p = harness.tail_percentile(n)
        tracers: list[Tracer] = []

        def traced_odd(i):
            if i % 2 == 0:
                return None
            tracers.append(Tracer())
            return tracers[-1]

        if args.trace:
            passes = harness.repeat_passes(requests, args.seconds, traced_odd, min_passes=4)
        else:
            passes = harness.repeat_passes(requests, args.seconds)
        recorded = _recorded(args.workload, args.seed)
        harness.mark_digest_mismatches(passes, recorded)
        errors = [e for p in passes for e in p.errors]
        foreign = harness.probe_foreign_share(passes)
        if foreign > harness.PROBE_FOREIGN_MAX:
            errors.append(f"other threads used {foreign:.0%} of the speed probes' time")
        if args.trace:
            metrics, layer_errors = _per_layer(passes, tracers, args.workload, args.seed)
            errors += layer_errors
        else:
            metrics = _end_to_end(passes, import_s + setup_median, tail_p)
        _kind_summary(requests, passes)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted, failed = harness.tally(passes)
    attempted += SETUP_REPEATS  # the warm-up requests
    failed += warm_failures
    for e in errors[:20]:
        print(f"error: {e}", file=sys.stderr)
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": _commit(), "src_sha256": _src_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "requests_per_pass": n, "passes": len(passes),
        "pass_walls_s": [round(p.wall_ns * 1e-9, 4) for p in passes],
        "raw_wall_s": sum(harness.per_request_medians_ns(passes, scaled=False)) * 1e-9,
        "probe_ref_ns": harness.PROBE_REF_NS,
        "pass_probe_medians_ns": [statistics.median(p.probes_ns) for p in passes],
        "probe_foreign_share": foreign,
        "tail_percentile": tail_p, "tail_requests_beyond": n - harness.rank(tail_p, n),
        "import_s": import_s, "setup_repeats": SETUP_REPEATS,
        "digest": harness.fold_digests(passes[0].digests),
        "digest_checked_against_record": recorded is not None,
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print(f"{'fail_frac':34s} {failed / attempted:.6g} ({failed}/{attempted})")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
