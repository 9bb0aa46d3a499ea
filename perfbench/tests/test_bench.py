"""Tests of the benchmark itself (not of microfract).

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import threading
from pathlib import Path

import pytest

import harness
import layers
import run
import workloads
from spans import Span, Tracer, aggregate, self_times_ns, union_ns

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_request_list(name, tmp_path):
    first = [r.key for r in workloads.build(name, 7, str(tmp_path / "a"))]
    again = [r.key for r in workloads.build(name, 7, str(tmp_path / "a"))]
    other = [r.key for r in workloads.build(name, 8, str(tmp_path / "a"))]
    assert first == again
    assert first != other
    assert len(first) == len(other)  # the table, not the seed, sets the size


@pytest.mark.parametrize("n, p", [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
                                  (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
                                  (10_000, 99.9)])
def test_tail_percentile_leaves_ten_beyond(n, p):
    assert harness.tail_percentile(n) == p
    assert n - harness.rank(p, n) >= harness.TAIL_BEYOND
    higher = [q for q in harness.TAIL_LADDER if q > p]
    if higher:
        assert n - harness.rank(higher[0], n) < harness.TAIL_BEYOND


def test_tail_percentile_needs_enough_requests():
    with pytest.raises(ValueError):
        harness.tail_percentile(19)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert harness.percentile(values, 50.0) == 50
    assert harness.percentile(values, 90.0) == 90
    assert harness.percentile(list(range(1, 41)), 75.0) == 30  # ten values above
    assert harness.percentile([5], 99.9) == 5


def test_latencies_scale_by_the_probes_around_them():
    ref, w = harness.PROBE_REF_NS, harness.PROBE_WINDOW
    n = 2 * w + 4
    # The machine runs at half speed from request w + 2 on.
    p = harness.PassResult([1000] * n, [True] * n, [None] * n,
                           probes_ns=[ref] * (w + 2) + [2 * ref] * (n - w - 2))
    scaled = p.scaled_ns()
    assert scaled[0] == 1000  # its window holds reference-speed probes only
    assert scaled[-1] == 500
    assert scaled[w + 1] == 1000  # window: w + 1 probes at ref, w at 2 ref
    other = dataclasses.replace(p, latencies_ns=[3000] * n, probes_ns=[ref] * n)
    assert harness.per_request_medians_ns([p, other, other]) == [3000] * n
    assert harness.per_request_medians_ns([p, p, other], scaled=False) == [1000] * n


def test_probe_sees_other_threads_busy():
    quiet = [harness.probe_ns() for _ in range(20)]
    assert all(wall > 0 for wall, _ in quiet)
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    t = threading.Thread(target=spin)
    t.start()
    try:
        busy = [harness.probe_ns() for _ in range(20)]
    finally:
        stop.set()
        t.join()
    assert sum(f for _, f in busy) > harness.PROBE_FOREIGN_MAX * sum(w for w, _ in busy)


def test_self_time_on_nested_spans():
    spans = [
        Span("request.x", 0, 100, None, 0),
        Span("dyadic.kx_set", 10, 40, 0, 0),
        Span("dyadic.count", 20, 30, 1, 0),
        Span("seq.factor", 50, 60, 0, 0),
        Span("seq.factor", 55, 70, 0, 0),  # overlaps its sibling: counted once
    ]
    assert self_times_ns(spans) == [100 - 30 - 20, 30 - 10, 10, 10, 15]
    assert union_ns([(50, 60), (55, 70), (80, 90)]) == 30
    agg = aggregate(spans, {})
    assert agg.layer_self_ns == {"request": 50, "dyadic": 30, "seq": 25}
    assert agg.layer_busy_ns["dyadic"] == 40
    assert agg.calls["seq.factor"] == 2


def test_tracer_records_parents_and_failures():
    tr = Tracer()
    with tr.request(3, "kind"):
        with tr.span("families.level_schedule"):
            with tr.span("dims.exact_packing"):
                pass
        with pytest.raises(KeyError):
            with tr.span("families.report", expect=(ValueError,)):
                raise KeyError("boom")
        with pytest.raises(ValueError):
            with tr.span("families.member", expect=(ValueError,)):
                raise ValueError("expected")
    root, sched, pack, report, member = tr.spans
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0, 0]
    assert {s.request for s in tr.spans} == {3}
    assert (report.status, member.status) == ("failed", "expected")
    assert aggregate(tr.spans, {}).layer_failed == {"families": 1}
    assert all(s.end_ns >= s.start_ns for s in tr.spans)


def _out_path(req) -> Path:
    return Path(req.params[req.params.index("--out") + 1])


def _rewrite_then(req, edit):
    """The request, with its artifact edited after the CLI wrote it."""
    def run_then_edit(tr):
        out = req.run(tr)
        path = _out_path(req)
        path.write_bytes(edit(path.read_bytes()))
        return out
    return dataclasses.replace(req, run=run_then_edit)


def test_perturbed_artifact_makes_fail_frac_positive(tmp_path):
    reqs = [r for r in workloads.build("exact-realize", 5, str(tmp_path))
            if r.kind == "cli-dims"][:3]
    clean = harness.run_pass(reqs)
    assert all(clean.ok) and harness.tally([clean]) == (3, 0)

    def wrong_count(data):  # breaks the invariant the check verifies
        head, _, last = data.rstrip(b"\n").rpartition(b"\n")
        level, count, ratio = last.split(b",")
        return head + b"\n" + b",".join([level, str(int(count) * 2).encode(), ratio]) + b"\n"

    def flipped_digit(data):  # still valid, caught by the digest alone
        i = data.rstrip(b"\n").rindex(b",") + 3
        return data[:i] + (b"1" if data[i:i + 1] != b"1" else b"2") + data[i + 1:]

    bad = harness.run_pass([_rewrite_then(reqs[0], wrong_count),
                            _rewrite_then(reqs[1], flipped_digit), reqs[2]])
    assert bad.ok == [False, True, True]
    harness.mark_digest_mismatches([clean, bad], None)
    assert bad.ok == [False, False, True]
    attempted, failed = harness.tally([clean, bad])
    assert failed / attempted == 2 / 6


def test_recorded_digest_mismatch_fails_every_request(tmp_path):
    reqs = workloads.build("exact-realize", 5, str(tmp_path))[:5]
    passes = [harness.run_pass(reqs)]
    harness.mark_digest_mismatches(passes, ["0" * 16] * 5)
    assert harness.tally(passes) == (5, 5)


def test_layer_counts_repeat_exactly(tmp_path):
    reqs = [r for r in workloads.build("dyadic-sets", 2, str(tmp_path))
            if r.kind in ("levels", "pack", "json", "hausdorff-sup", "cli-zoom")][:12]
    seen = []
    for _ in range(2):
        tr = Tracer()
        assert all(harness.run_pass(reqs, tr).ok)
        metrics = layers.pass_metrics(aggregate(tr.spans, tr.counts))
        units = layers.metric_units()
        seen.append({k: v for k, v in metrics.items() if units[k] in layers.REPEATING_UNITS})
    assert seen[0] == seen[1]
    assert seen[0]["dyadic.leaves_built"] > 0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
