"""Per-layer metrics, computed from one traced pass.

Each entry is ``(name, unit, value)``; ``value`` maps a pass's
:class:`spans.Aggregate` to a number.  Units in REPEATING_UNITS are counts
of work; with the same seed they must be identical in every traced pass.
Times are medians over the traced passes.  Two metrics come from the run
rather than from a pass: ``percolation.variates_per_s`` (a probe on a fixed
coordinate array) and ``trace.overhead_s``.
"""

from __future__ import annotations

REPEATING_UNITS = ("count", "bytes", "count-computed")
NS = 1e-9


def _busy(*names):
    return lambda a: sum(a.busy_ns.get(n, 0) for n in names) * NS


def _calls(*names):
    return lambda a: sum(a.calls.get(n, 0) for n in names)


def _count(name):
    return lambda a: a.counts.get(name, 0)


def _us_per_call(name):
    return lambda a: a.busy_ns[name] / a.calls[name] / 1e3 if a.calls.get(name) else 0.0


def _rate(count_name, span_name):
    return lambda a: (a.counts.get(count_name, 0) / (a.busy_ns[span_name] * NS)
                      if a.busy_ns.get(span_name) else 0.0)


def _layer(layer):
    return [
        (f"{layer}.self_s", "s", lambda a: a.layer_self_ns.get(layer, 0) * NS),
        (f"{layer}.failed", "count", lambda a: a.layer_failed.get(layer, 0)),
    ]


PER_PASS = [
    ("cli.main.calls", "count", _calls("cli.main")),
    ("cli.main.busy_s", "s", _busy("cli.main")),
    ("cli.artifact_bytes", "bytes", _count("cli.artifact_bytes")),
    *_layer("cli"),
    ("seq.calls", "count", lambda a: a.layer_calls.get("seq", 0)),
    ("seq.busy_s", "s", lambda a: a.layer_busy_ns.get("seq", 0) * NS),
    *_layer("seq"),
    ("dyadic.kx_set.busy_s", "s", _busy("dyadic.kx_set")),
    ("dyadic.leaves_built", "count", _count("dyadic.leaves_built")),
    ("dyadic.count.busy_s", "s", _busy("dyadic.count")),
    ("dyadic.count.cells", "count", _count("dyadic.count.cells")),
    ("dyadic.pack_bits.busy_s", "s", _busy("dyadic.pack_bits")),
    ("dyadic.unpack_bits.busy_s", "s", _busy("dyadic.unpack_bits")),
    ("dyadic.packed_bytes", "bytes", _count("dyadic.packed_bytes")),
    ("dyadic.json.busy_s", "s", _busy("dyadic.json")),
    ("dyadic.json_bytes", "bytes", _count("dyadic.json_bytes")),
    ("dyadic.zoom.busy_s", "s", _busy("dyadic.zoom")),
    ("dyadic.product.busy_s", "s", _busy("dyadic.product")),
    ("dyadic.hausdorff_1d.busy_s", "s", _busy("dyadic.hausdorff_1d")),
    ("dyadic.hausdorff_sup.busy_s", "s", _busy("dyadic.hausdorff_sup")),
    ("dyadic.hausdorff_sup.pairs", "count-computed", _count("dyadic.hausdorff_sup.pairs")),
    *_layer("dyadic"),
    ("dims.covering_counts.busy_s", "s", _busy("dims.covering_counts")),
    ("dims.exact_packing.busy_s", "s", _busy("dims.exact_packing")),
    ("dims.exact_covering.busy_s", "s", _busy("dims.exact_covering")),
    ("dims.exact.calls", "count", _calls("dims.exact_packing", "dims.exact_covering")),
    *_layer("dims"),
    ("realize.choose_k.calls", "count", _calls("realize.choose_k")),
    ("realize.choose_k.us_per_call", "us", _us_per_call("realize.choose_k")),
    ("realize.closest_k.us_per_call", "us", _us_per_call("realize.closest_k")),
    ("realize.psi.busy_s", "s", _busy("realize.psi")),
    ("realize.density_check.busy_s", "s", _busy("realize.density_check")),
    ("realize.blocks", "count", _count("realize.blocks")),
    *_layer("realize"),
    ("percolation.hawkes.busy_s", "s", _busy("percolation.hawkes")),
    ("percolation.trials", "count", _count("percolation.trials")),
    ("percolation.trials_per_s", "1/s", _rate("percolation.trials", "percolation.hawkes")),
    ("percolation.sample.busy_s", "s", _busy("percolation.sample")),
    ("percolation.cells_alive", "count", _count("percolation.cells_alive")),
    *_layer("percolation"),
    ("families.level_schedule.busy_s", "s", _busy("families.level_schedule")),
    ("families.member.busy_s", "s", _busy("families.member")),
    ("families.report.busy_s", "s", _busy("families.report")),
    ("families.exhausted", "count", _count("families.exhausted")),
    *_layer("families"),
]

PER_RUN = [
    ("percolation.variates_per_s", "1/s"),
    ("trace.overhead_s", "s"),
]


def metric_units() -> dict[str, str]:
    units = {name: unit for name, unit, _ in PER_PASS}
    units.update(PER_RUN)
    return units


def pass_metrics(agg) -> dict[str, float]:
    return {name: fn(agg) for name, _, fn in PER_PASS}
