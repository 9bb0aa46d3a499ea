"""exact-realize: exact rational arithmetic with no numpy kernels in the way.

Why: the integer-only ``choose_k`` path (ROADMAP "Fix first") shows here.
Percolation and dyadic kernels are absent, so changes to them must leave
this workload unchanged.

``choose_k``/``closest_k`` sweeps draw (a, target, b) from random rational
pools over n <= 10^4, in the shape of acceptance criterion 5.  Block codes
are built and verified on random branches under interval and finite
targets with 50 to 150 blocks.  Twenty of the hundred requests go through
``cli.main``.  The ``seq`` side builds Beatty factors and
checks them for balance and density.  The seed picks the pools, the
branches, the targets and the densities.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import isqrt

from microfract.realize import (TargetSpec, VarphiMap, build_psi_prefix, choose_k,
                                closest_k, realized_density_check)
from microfract.seq import Word, beatty_balanced, density_profile, factor, is_balanced

from harness import Request
from workloads.common import canon, cli_request, parse_csv, require, strip_header

NAME = "exact-realize"
WARMUP_KIND = "choose_k"

N_MAX = 10_000
CHOOSE_SWEEPS, CLOSEST_SWEEPS, CALLS_PER_SWEEP = 32, 20, 100
POOL_SIZE = 64
# Block codes.  A branch's leading bits fix where the value map sits in the
# target (and so how long the blocks are); the table fixes six bits and
# the seed draws the rest, which keeps each request's cost nearly the same
# for every seed.  The six 80-block requests through the CLI are where the
# tail percentile falls (ranks 87-92 of 100): the eight costlier interval
# codes (six of 95 blocks) sit above them, everything else below.
INTERVAL = (F(3, 10), F(7, 10))
FINITE = (F(1, 4), F(1, 2), F(3, 4))
# (target kind, blocks, fixed leading bits)
PSI = [("interval", 125, "100000"), ("interval", 110, "011000"), ("finite", 125, "01"),
       ("finite", 110, "01"),
       *[("interval", 95, "100000")] * 6, *[("finite", 80, "01")] * 2,
       ("interval", 50, "101000"), ("interval", 75, "011000"), ("finite", 50, "00"),
       ("finite", 75, "01"), ("interval", 50, "011000"), ("finite", 50, "01")]
SEQ_LENGTHS = [256, 384, 512, 640, 768, 896, 1024, 512, 768, 1024]
CLI_REALIZE = [(80, "100000")] * 6 + [(50, "101000"), (50, "011000"), (60, "100000"),
                                      (60, "011000")]
CLI_DIMS_DEPTHS = [16, 18, 20, 22, 24, 26, 16, 20, 24, 26]


def _k_range(n: int) -> tuple[int, int]:
    c = n ** 3
    r = isqrt(c)
    return isqrt(n), r if r * r == c else r + 1


def _admissible(n: int, k: int, a: F, b: F, t: F) -> bool:
    """|mix(k) - t| <= 2/sqrt(n), in Fraction arithmetic."""
    err = (a * n + b * k) / (n + k) - t
    return n * err * err <= 4


def _mix_error(n, k, a, b, t) -> F:
    return abs((a * n + b * k) / (n + k) - t)


def _rational_pool(rng) -> list[tuple[F, F, F]]:
    pool = []
    for _ in range(POOL_SIZE):
        d = rng.randrange(2, 65)
        a, t, b = sorted(rng.randrange(d + 1) for _ in range(3))
        pool.append((F(a, d), F(t, d), F(b, d)))
    return pool


def _sweep(kind: str, fn, calls: list[tuple[int, F, F, F]]) -> Request:
    name = f"realize.{kind}"

    def run(tr):
        out = []
        for n, a, t, b in calls:
            with tr.span(name):
                out.append(fn(n, a, b, t))
        return out

    def check(ks):
        for k, (n, a, t, b) in zip(ks, calls):
            kmin, kmax = _k_range(n)
            require(kmin <= k <= kmax, f"k={k} outside [{kmin}, {kmax}] at n={n}")
            if a == b:
                require(k == kmin + (kmin * kmin != n), "a == b must give ceil(sqrt(n))")
                continue
            require(_admissible(n, k, a, b, t), f"k={k} not admissible at n={n}")
            if kind == "choose_k":
                require(k == kmin or not _admissible(n, k - 1, a, b, t),
                        f"k={k} not minimal at n={n}")
            else:
                err = _mix_error(n, k, a, b, t)
                for j in (k - 1, k + 1):
                    if kmin <= j <= kmax and _admissible(n, j, a, b, t):
                        e = _mix_error(n, j, a, b, t)
                        require(err < e or (err == e and k < j),
                                f"k={k} not closest at n={n}")
        return canon(ks)

    return Request(kind, (tuple((n, str(a), str(t), str(b)) for n, a, t, b in calls),),
                   run, check)


def _branch(rng, lead: str, length: int) -> str:
    return lead + "".join(str(rng.randrange(2)) for _ in range(length - len(lead)))


def _psi(spec: TargetSpec, branch: str, blocks: int) -> Request:
    x = Word.from_string(branch)

    def run(tr):
        with tr.span("realize.psi"):
            prefix = build_psi_prefix(x, spec, blocks)
        tr.count("realize.blocks", prefix.blocks)
        vm = VarphiMap(spec)
        with tr.span("realize.varphi"):
            expected = vm.value(x.prefix(blocks - 1))
        with tr.span("realize.density_check"):
            report = realized_density_check(prefix, expected)
        return prefix, report

    def check(out):
        prefix, report = out
        require(prefix.blocks == blocks and len(report.blocks) == blocks - 1,
                "wrong number of blocks")
        require(all(c.bound_ok for c in report.blocks), "block density bound broken")
        a, b = spec.a, spec.b
        for (n, k), phi in zip(prefix.block_lengths, prefix.phi_values):
            require(a <= phi <= b, "value outside the target's range")
            if spec.mode == "finite_set":
                require(phi in spec.values, "value outside the finite target")
            kmin, kmax = _k_range(n)
            require(kmin <= k <= kmax, "block tail length out of range")
            require(a == b or _admissible(n, k, a, b, phi), "block tail not admissible")
        require(len(prefix.word) == prefix.boundaries[-1], "boundaries disagree")
        return canon([prefix.block_lengths, [str(p) for p in prefix.phi_values],
                      str(report.cumulative_density)])

    return Request("psi", (spec.to_json(), branch, blocks), run, check)


def _seq(a: F, offset: int, length: int) -> Request:
    def run(tr):
        with tr.span("seq.beatty_balanced"):
            prog = beatty_balanced(a)
        with tr.span("seq.factor"):
            w = factor(prog, offset, length)
        with tr.span("seq.is_balanced"):
            balanced = is_balanced(w)
        with tr.span("seq.density_profile"):
            profile = density_profile(w)
        return w, balanced, profile

    def check(out):
        w, balanced, profile = out
        require(balanced, "Beatty factor is unbalanced")
        require(w.sigma == (offset + length) * a.numerator // a.denominator
                - offset * a.numerator // a.denominator, "factor weight != floor formula")
        require(all(abs(rho - a) < F(1, n) for n, rho in enumerate(profile, start=1)),
                "prefix density drifts by 1/n or more")
        return str(w).encode()

    return Request("seq", (str(a), offset, length), run, check)


def _check_realize_csv(config, bodies) -> bytes:
    body = strip_header(config, bodies[0])
    rows = parse_csv(body)
    require(len(rows) == config["blocks"] - 1, "CLI realize row count")
    for r in rows:
        n, k = int(r["n"]), int(r["k"])
        bound = 2 / (n + k) + 2 / n ** 0.5
        require(float(r["abs_error"]) <= bound + 1e-12, "CLI realize block bound")
    return body


def _check_dims_csv(config, bodies) -> bytes:
    body = strip_header(config, bodies[0])
    rows = parse_csv(body)
    a = F(config["word"].partition(":")[2])
    for r in rows:
        m = int(r["level"])
        require(int(r["count"]) == 1 << (m * a.numerator // a.denominator),
                "CLI dims count != 2^floor(m a)")
    require(len(rows) == config["depth"], "CLI dims row count")
    return body


def build(ctx) -> list[Request]:
    rng = ctx.rng
    pool = _rational_pool(rng)

    def calls():
        return [(rng.randrange(1, N_MAX + 1),) + rng.choice(pool)
                for _ in range(CALLS_PER_SWEEP)]

    reqs = [_sweep("choose_k", choose_k, calls()) for _ in range(CHOOSE_SWEEPS)]
    reqs += [_sweep("closest_k", closest_k, calls()) for _ in range(CLOSEST_SWEEPS)]
    for kind, blocks, lead in PSI:
        spec = (TargetSpec.interval_union([INTERVAL]) if kind == "interval"
                else TargetSpec.finite_set(FINITE))
        reqs.append(_psi(spec, _branch(rng, lead, blocks), blocks))
    for length in SEQ_LENGTHS:
        den = rng.randrange(2, 65)
        reqs.append(_seq(F(rng.randrange(den + 1), den), rng.randrange(1000), length))
    for blocks, lead in CLI_REALIZE:
        config = {"command": "realize", "target": "interval:{}:{}".format(*INTERVAL),
                  "blocks": blocks, "branch": _branch(rng, lead, blocks), "seed": 0,
                  "out": ctx.path("realize.csv")}
        reqs.append(cli_request("cli-realize", config, [config["out"]], _check_realize_csv))
    for depth in CLI_DIMS_DEPTHS:
        den = rng.randrange(2, 65)
        a = F(rng.randrange(1, den), den)
        config = {"command": "dims", "word": f"beatty:{a.numerator}/{a.denominator}",
                  "depth": depth, "seed": 0, "out": ctx.path("dims.csv")}
        reqs.append(cli_request("cli-dims", config, [config["out"]], _check_dims_csv))
    ctx.interleave(reqs)
    return reqs
