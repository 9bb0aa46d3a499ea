"""Closed-loop pass runner and the end-to-end statistics.

One client sends a workload's fixed request list in order; each request
starts only after the previous one returned (a closed loop with one
client, single process, single thread).  A *pass* is one trip through the
list.  A run repeats passes for ``--seconds`` and reports medians over
them.

Timing covers only a request's library calls.  The correctness check that
follows each request runs outside the timed region and outside tracing.

A shared host's speed swings by up to 1.7 times in phases of seconds to
minutes, as long as a run.  So a short fixed piece of benchmark-only work,
the speed probe, runs before every request, and the time statistics are
built from latencies scaled to the reference machine's speed: each
latency times ``PROBE_REF_NS`` over the median probe of the requests
around it.  The raw times stay in the run's provenance.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from spans import NullTracer

# Percentiles considered for the tail: the highest one that leaves at least
# TAIL_BEYOND requests of the list above it is used.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
MIN_PASSES = 3
# Stop starting passes after this long even below MIN_PASSES, so that one
# run always ends well inside three minutes.
HARD_LIMIT_S = 120.0
# The speed probe's time on the reference machine (see perfbench/README.md),
# and the half-width, in requests, of the window of probes a latency is
# scaled by.
PROBE_REF_NS = 200_000
PROBE_WINDOW = 5
# A run fails if other threads of the process used more CPU during the
# probes than this share of the probes' time: the probe then no longer
# measures the machine alone.
PROBE_FOREIGN_MAX = 0.1


class CheckFailed(Exception):
    """A request's output broke an invariant that holds for every seed."""


@dataclass
class Request:
    """One request: ``run`` holds the timed library calls, ``check`` verifies
    the output untimed and returns its canonical bytes for the digest."""

    kind: str
    params: tuple
    run: Callable[[Any], Any]
    check: Callable[[Any], bytes]

    @property
    def key(self) -> str:
        return f"{self.kind}{self.params!r}"

    @property
    def label(self) -> str:
        """The key, shortened for error messages."""
        return self.key if len(self.key) <= 120 else self.key[:117] + "..."


@dataclass
class PassResult:
    latencies_ns: list[int]
    ok: list[bool]
    digests: list[str | None]
    probes_ns: list[int] = field(default_factory=list)
    foreign_ns: int = 0  # CPU other threads used during this pass's probes
    errors: list[str] = field(default_factory=list)

    @property
    def wall_ns(self) -> int:
        return sum(self.latencies_ns)

    def scaled_ns(self) -> list[float]:
        """Latencies at the reference speed: each times PROBE_REF_NS over
        the median probe within PROBE_WINDOW requests of it."""
        p = self.probes_ns
        return [lat * PROBE_REF_NS
                / statistics.median(p[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
                for i, lat in enumerate(self.latencies_ns)]


def probe_ns() -> tuple[int, int]:
    """Run the speed probe: four kinds of work the workloads do, taking
    about equal time on the reference machine -- an interpreter loop over
    a dict, numpy calls on a small array, numpy on a 4096-element array,
    and a Fraction sum -- none of it library code.  Returns its wall time
    and the CPU time other threads of the process used meanwhile (ns)."""
    import numpy as np  # loaded by then; not at module level, so that
    # run.py's import time still covers numpy

    w0, c0, t0 = time.perf_counter_ns(), time.process_time_ns(), time.thread_time_ns()
    d: dict[int, int] = {}
    for i in range(300):
        d[i & 63] = d.get(i & 63, 0) + i * 3
    a = np.arange(256, dtype=np.int64)
    for _ in range(4):
        b = (a << 1) | 1
        b[b % 3 == 0].sum()
    x = np.abs(np.linspace(0.0, 1.0, 4096) - 0.37)
    np.nonzero(x <= 0.25)[0].sum()
    np.sort(x)
    f = Fraction(0)
    for i in range(1, 16):
        f += Fraction(1, i)
    w1, c1, t1 = time.perf_counter_ns(), time.process_time_ns(), time.thread_time_ns()
    return w1 - w0, max(0, (c1 - c0) - (t1 - t0))


def speed_scale() -> float:
    """PROBE_REF_NS over the median of 11 probes: the factor that brings a
    time measured now to the reference speed."""
    return PROBE_REF_NS / statistics.median(probe_ns()[0] for _ in range(11))


def request_digest(req: Request, payload: bytes) -> str:
    h = hashlib.sha256(req.key.encode())
    h.update(payload)
    return h.hexdigest()[:16]


def fold_digests(digests) -> str:
    h = hashlib.sha256()
    for d in digests:
        h.update((d or "-").encode())
    return h.hexdigest()


def run_request(req: Request, tracer, rid: int) -> tuple[int, bool, str | None, str | None]:
    """Run, time and check one request: (latency_ns, ok, digest, error)."""
    out, error = None, None
    with tracer.request(rid, req.kind):
        t0 = time.perf_counter_ns()
        try:
            out = req.run(tracer)
        except Exception as e:  # a failed request is counted, the run goes on
            error = f"{req.label}: {type(e).__name__}: {e}"
        t1 = time.perf_counter_ns()
    if error is not None:
        return t1 - t0, False, None, error
    try:
        digest = request_digest(req, req.check(out))
    except Exception as e:  # CheckFailed, or a check that could not run
        return t1 - t0, False, None, f"{req.label}: check: {type(e).__name__}: {e}"
    return t1 - t0, True, digest, None


def run_pass(requests: list[Request], tracer=None) -> PassResult:
    """One trip through the list, with the speed probe before each request."""
    tracer = tracer or NullTracer()
    res = PassResult([], [], [])
    for rid, req in enumerate(requests):
        probe, foreign = probe_ns()
        res.probes_ns.append(probe)
        res.foreign_ns += foreign
        lat, ok, digest, error = run_request(req, tracer, rid)
        res.latencies_ns.append(lat)
        res.ok.append(ok)
        res.digests.append(digest)
        if error:
            res.errors.append(error)
    return res


def mark_digest_mismatches(passes: list[PassResult], reference: list[str] | None):
    """A request whose digest differs from the reference (the recorded one
    for the default seed, else the first pass of this run) has failed."""
    ref = reference if reference is not None else passes[0].digests
    for p in passes:
        for i, (got, want) in enumerate(zip(p.digests, ref)):
            if p.ok[i] and got != want:
                p.ok[i] = False
                p.errors.append(f"request {i}: digest {got} != {want}")


def tally(passes: list[PassResult]) -> tuple[int, int]:
    """(attempted, failed) requests over the passes."""
    return (sum(len(p.ok) for p in passes),
            sum(not ok for p in passes for ok in p.ok))


def rank(p: float, n: int) -> int:
    """Nearest rank of percentile ``p`` (one decimal) among ``n`` values."""
    return max(1, -(-round(p * 10) * n // 1000))


def tail_percentile(n_requests: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND of ``n_requests``
    strictly above it (nearest-rank definition)."""
    best = None
    for p in TAIL_LADDER:
        if n_requests - rank(p, n_requests) >= TAIL_BEYOND:
            best = p
    if best is None:
        raise ValueError(f"{n_requests} requests leave no tail of {TAIL_BEYOND}")
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[rank(p, len(s)) - 1]


def per_request_medians_ns(passes: list[PassResult], scaled: bool = True) -> list[float]:
    """Each request's median latency over the passes, scaled to the
    reference speed unless ``scaled`` is false.  Medians per request keep a
    transient slowdown, which hits some requests of some passes, out of
    every statistic built on them."""
    lats = [p.scaled_ns() if scaled else p.latencies_ns for p in passes]
    return [statistics.median(lat[i] for lat in lats) for i in range(len(lats[0]))]


def probe_foreign_share(passes: list[PassResult]) -> float:
    """CPU other threads used during the probes, as a share of probe time."""
    return sum(p.foreign_ns for p in passes) / sum(sum(p.probes_ns) for p in passes)


def repeat_passes(requests, seconds: float, make_tracer=lambda i: None,
                  min_passes: int = MIN_PASSES) -> list[PassResult]:
    """Passes until ``seconds`` are used up: a new pass starts only if the
    median pass so far still fits, and at least ``min_passes`` run.

    The benchmark's own long-lived objects are frozen out of the cyclic
    collector, and each pass starts from a collected heap, so collector
    pauses in a pass come from that pass's library allocations."""
    passes: list[PassResult] = []
    walls: list[float] = []
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        passes.append(run_pass(requests, make_tracer(len(passes))))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed > HARD_LIMIT_S:
            return passes
        if len(passes) >= min_passes and elapsed + statistics.median(walls) > seconds:
            return passes
