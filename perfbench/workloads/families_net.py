"""families-net: ball-tree families on finite nets, and exact packing and
covering numbers.

Why: ``families`` and ``dims`` would go unmeasured otherwise.  The
integer-lattice nets with closed-form ball sizes (ROADMAP direction 5)
show here, in the strict schedules and the packing-variant members.

Strict box schedules on flat 2-D grids must raise ``ResolutionExhausted``
at level 2 (the level function feeds the net's own packing number into the
next radius); such a request succeeds only then.  Members are built on
grids and 1-D nets where their schedule is attainable, and every flag of
their report must hold.  Eight of the forty requests go through
``cli.main``.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

import numpy as np

from microfract import __version__
from microfract.dims import (CountSeries, chain_check, exact_covering_number,
                             exact_packing_number)
from microfract.errors import ResolutionExhausted
from microfract.families import (EuclideanNet, family_dim_report, family_member,
                                 level_schedule)
from microfract.realize import TargetSpec

from harness import Request
from workloads.common import canon, cli_request, require

NAME = "families-net"
WARMUP_KIND = "exact-pack-cover"

# Every cost-setting choice (grid side, exponent, variant) is fixed in the
# tables; the seed draws branches and point sets.  The strict schedules
# are the few largest requests and the ten packing-variant members on the
# 33-grid sit where the tail percentile falls.
STRICT = [(65, F(1, 2)), (65, F(1, 3)), (73, F(1, 2)), (73, F(2, 3)), (81, F(1, 3))]
PACKING = [(33, a) for a in (F(1, 4), F(1, 3), F(1, 2), F(1, 3), F(1, 4),
                             F(1, 2), F(1, 3), F(1, 4), F(1, 2), F(1, 3))]
# (log2 of the 1-D grid's intervals, variant, levels, exponent)
LINEAR = [(8, "packing", 2, F(1, 8)), (9, "packing", 2, F(1, 6)), (10, "packing", 2, F(1, 8)),
          (8, "box", 2, F(1, 4)), (9, "box", 2, F(1, 6)), (10, "box", 2, F(1, 4)),
          (9, "packing", 2, F(1, 4)), (10, "box", 2, F(1, 8)), (8, "packing", 2, F(1, 4)),
          (9, "box", 2, F(1, 8))]
EXACT_SIZES = [24, 28, 32, 36, 40, 40, 40]
EXACT_GRID = 64
COVER_LEVELS = range(1, 6)
CLI_FAMILY = [(25, "1/2"), (25, "1/3"), (25, "1/4"), (25, "1/2"),
              (25, "1/3"), (25, "1/4"), (25, "1/2"), (25, "1/3")]
REPORT_FLAGS = ("cardinalities_exact", "separations_ok", "nested", "origin_anchored",
                "upper_chain_ok", "count_bound_ok", "local_richness_ok")


def _strict(net, side, alpha) -> Request:
    def run(tr):
        try:
            with tr.span("families.level_schedule", expect=ResolutionExhausted):
                level_schedule(net, [alpha] * 2, "box", 2)
        except ResolutionExhausted as e:
            tr.count("families.exhausted")
            return e
        return None

    def check(err):
        require(err is not None, "strict schedule on a flat grid did not exhaust")
        require(err.level == 2, f"exhausted at level {err.level}, expected 2")
        return str(err).encode()

    return Request("strict-schedule", (side, str(alpha)), run, check)


def _member(net, net_key, alpha, variant, levels, branch, g_mode) -> Request:
    spec = TargetSpec.finite_set([alpha])

    def run(tr):
        with tr.span("families.level_schedule"):
            kseq = level_schedule(net, [spec.b] * levels, variant, levels, g_mode=g_mode)
        with tr.span("families.member"):
            tree = family_member(branch, spec, net, variant, levels, kseq=kseq)
        with tr.span("families.report"):
            return tree, family_dim_report(tree)

    def check(out):
        tree, rep = out
        require(tree.prefix == branch and len(tree.levels) == levels + 1, "wrong tree shape")
        bad = [f for f in REPORT_FLAGS if not getattr(rep, f)]
        require(not bad, f"report flags false: {bad} {rep.details}")
        require(rep.g_mode == g_mode, "report records the wrong g_mode")
        return canon([tree.kseq.ks, [list(lvl.centers) for lvl in tree.levels]])

    return Request(f"member-{g_mode}", (net_key, str(alpha), variant, levels, branch),
                   run, check)


def _exact(points: np.ndarray) -> Request:
    pts = [tuple(p) for p in points]

    def run(tr):
        cover, pack = [], []
        for n in COVER_LEVELS:
            with tr.span("dims.exact_covering"):
                cover.append((n, exact_covering_number(pts, 2.0 ** -n)))
        for n in COVER_LEVELS[:-1]:
            with tr.span("dims.exact_packing"):
                pack.append((n, exact_packing_number(pts, 2.0 ** -n)))
        n_series = CountSeries("covering", tuple(cover))
        p_series = CountSeries("packing", tuple(pack))
        with tr.span("dims.chain_check"):
            return cover, pack, chain_check(n_series, p_series)

    def check(out):
        cover, pack, chain = out
        require(chain, "N_n <= P_n <= N_{n+1} fails")
        require(all(1 <= c <= len(pts) for _, c in cover + pack), "count out of range")
        return canon([cover, pack])

    return Request("exact-pack-cover", (tuple(map(list, pts)),), run, check)


def _check_family_json(config, bodies) -> bytes:
    payload = json.loads(bodies[0])
    require(payload.pop("version") == __version__, "artifact version")
    require(payload.pop("config") == config, "recorded config differs from the request")
    bad = [f for f in REPORT_FLAGS if not payload["report"][f]]
    require(not bad, f"CLI family report flags false: {bad}")
    return canon(payload)


def build(ctx) -> list[Request]:
    rng = ctx.rng
    grids = {side: EuclideanNet.grid_2d(side) for side, _ in STRICT + PACKING}
    lines = {m: EuclideanNet(np.linspace(0.0, 1.0, 2 ** m + 1), y0=0, min_separation=2.0 ** -m)
             for m, *_ in LINEAR}
    reqs = [_strict(grids[side], side, alpha) for side, alpha in STRICT]
    reqs += [_member(grids[side], f"grid:{side}", alpha, "packing", 1,
                     str(rng.randrange(2)), "strict") for side, alpha in PACKING]
    for m, variant, levels, alpha in LINEAR:
        branch = "".join(str(rng.randrange(2)) for _ in range(levels))
        reqs.append(_member(lines[m], f"line:{m}", alpha, variant, levels, branch, "linear"))
    for size in EXACT_SIZES:
        cells = rng.sample(range(EXACT_GRID * EXACT_GRID), size)
        reqs.append(_exact(np.array([divmod(c, EXACT_GRID) for c in cells]) / EXACT_GRID))
    for side, alpha in CLI_FAMILY:
        config = {"command": "family", "net": f"grid:{side}", "target": f"finite:{alpha}",
                  "variant": "packing", "depth": 1, "branch": str(rng.randrange(2)),
                  "seed": 0, "out": ctx.path("family.json")}
        reqs.append(cli_request("cli-family", config, [config["out"]], _check_family_json))
    ctx.interleave(reqs)
    return reqs
