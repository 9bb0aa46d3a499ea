"""perc-mc: Monte Carlo fractal percolation, shaped like the ``percolate``
and ``hawkes`` commands.

Why: this is the one workload where the percolation kernel dominates.  The
batched counter-based kernel and a frontier cell budget (ROADMAP
direction 3 and "Fix first") show here and nowhere else.  ``kx_set`` and
``pack_bits`` carry a small share, so a new cell-set representation
(direction 2) must not raise ``wall_s`` here.

The request mix is a fixed table; the seed picks the hash-field seeds, the
rotation of the Beatty reference words, the gamma_star branches and the
order.  Trials per request run from 50 to 400 (the 8:1 spread of
many-small against few-large batches; see perfbench/README.md for the
scale).  Eight of the forty requests go through ``cli.main``.
"""

from __future__ import annotations

from fractions import Fraction as F

from microfract.dims import covering_counts
from microfract.dyadic import full_cube, kx_set, pack_bits, unpack_bits
from microfract.percolation import (GammaStarConfig, PercField, RetentionSchedule,
                                    gamma_star, hawkes_experiment, sample,
                                    select_anchor_cell)
from microfract.realize import TargetSpec
from microfract.seq import Word, beatty_balanced, factor

from harness import Request
from workloads.common import (canon, check_survival_interval, cli_request,
                              parse_csv, require, sorted_leaves, strip_header)

NAME = "perc-mc"
WARMUP_KIND = "gamma-star"

HALF, TWO_THIRDS, THREE_HALVES, THREE_FIFTHS = F(1, 2), F(2, 3), F(3, 2), F(3, 5)
BEATTY_DEPTH = 24

# The table is laid out in cost tiers so that both percentiles read off one
# kind of request whatever the seed: five large batches on top, twelve
# identical 100-trial depth-18 experiments where the tail percentile
# falls, the six identical 50-trial ``percolate`` runs through the CLI
# around the median (ranks 18-23 of 40), and seventeen smaller requests
# below, the Beatty experiments among them.  The seed changes only hash
# fields, rotations and branches.
# (beta, d, depths, trials) for full-cube hawkes experiments.
FULL_HAWKES = [
    (HALF, 1, (12, 16), 400), (HALF, 1, (18, 22), 200), (TWO_THIRDS, 1, (16, 20), 400),
    (THREE_HALVES, 2, (7, 11), 400), (THREE_HALVES, 2, (8, 12), 400),
    *[(HALF, 1, (14, 18), 100)] * 12,
    (TWO_THIRDS, 1, (12, 16), 50), (THREE_HALVES, 2, (6, 10), 50),
    (THREE_HALVES, 2, (7, 11), 50),
]
BEATTY_HAWKES_TRIALS = [100] * 4
# (beta, d, depth) for single samples saved as packed sets; None = Beatty set.
SAMPLES = [(HALF, 1, 16), (HALF, 1, 18), (TWO_THIRDS, 1, 20),
           (THREE_HALVES, 2, 10), (THREE_HALVES, 2, 12), (THREE_FIFTHS, None, 24)]
GAMMA_STAR_DEPTHS = [10, 12]


def _beatty_word(offset: int, tr) -> Word:
    with tr.span("seq.beatty_balanced"):
        prog = beatty_balanced(F(1, 3))
    with tr.span("seq.factor"):
        return factor(prog, offset, BEATTY_DEPTH)


def _build_kx(word: Word, tr):
    with tr.span("dyadic.kx_set"):
        k = kx_set(word)
    tr.count("dyadic.leaves_built", len(k.leaves))
    return k


def _check_report(rep, trials, beta, d, full: bool) -> bytes:
    require(rep.trials == trials, "trial count changed")
    require(rep.survival_nonincreasing, "survival increases with depth")
    survivals = [r.survival for r in rep.rows]
    require(survivals == sorted(survivals, reverse=True), "rows not monotone")
    for r in rep.rows:
        require(r.n_alive == round(r.survival * trials), "n_alive disagrees")
        require((r.cond_slope is None) == (r.n_alive == 0), "slope without survivors")
        if full:
            check_survival_interval(r.survival, trials, beta, d, r.depth)
    return rep.to_csv().encode()


def _hawkes_full(beta, d, depths, trials, seed) -> Request:
    def run(tr):
        field = PercField(seed)
        with tr.span("percolation.hawkes"):
            rep = hawkes_experiment(None, beta, list(depths), trials, field, d=d)
        tr.count("percolation.trials", trials)
        return rep

    return Request("hawkes-full", (str(beta), d, depths, trials, seed), run,
                   lambda rep: _check_report(rep, trials, beta, d, full=True))


def _hawkes_beatty(offset, trials, seed) -> Request:
    def run(tr):
        k = _build_kx(_beatty_word(offset, tr), tr)
        with tr.span("percolation.hawkes"):
            rep = hawkes_experiment(k, THREE_FIFTHS, [8, BEATTY_DEPTH], trials,
                                    PercField(seed))
        tr.count("percolation.trials", trials)
        return rep

    return Request("hawkes-beatty", (offset, trials, seed), run,
                   lambda rep: _check_report(rep, trials, THREE_FIFTHS, 1, full=False))


def _sample_saved(beta, d, depth, offset, seed) -> Request:
    """One percolation saved as a packed set, plus its covering series."""

    def run(tr):
        k_set = None if d is not None else _build_kx(_beatty_word(offset, tr), tr)
        with tr.span("percolation.sample"):
            smp = sample(RetentionSchedule.constant(beta), PercField(seed),
                         ("save", 0), depth, d=d or 1, k_set=k_set)
        tr.count("percolation.cells_alive", sum(smp.level_counts))
        with tr.span("dyadic.pack_bits"):
            packed = pack_bits(smp.survivors)
        tr.count("dyadic.packed_bytes", len(packed))
        series = None
        if not smp.survivors.is_empty:
            with tr.span("dims.covering_counts"):
                series = covering_counts(smp.survivors, range(depth + 1))
        return smp, packed, series, k_set

    def check(out):
        smp, packed, series, k_set = out
        s = smp.survivors
        counts = smp.level_counts
        require(len(counts) == depth + 1 and counts[0] == 1, "level_counts shape")
        require(counts[depth] == len(s.leaves), "deepest level count != survivors")
        require(all(s.count(m) <= counts[m] for m in range(depth + 1)),
                "survivor projection exceeds the alive cells")
        if k_set is not None:
            require(s.leaves <= k_set.leaves, "survivors leave the reference set")
        back = unpack_bits(packed)
        require((back.d, back.depth, back.leaves) == (s.d, s.depth, s.leaves),
                "unpack_bits(pack_bits(A)) != A")
        if series is not None:
            require(series.entries == tuple((m, s.count(m)) for m in range(depth + 1)),
                    "covering series != level counts")
        return canon([list(counts), sorted_leaves(s)]) + packed

    return Request("sample-save", (str(beta), d, depth, offset, seed), run, check)


def _gamma_star(depth, k_set, y0, branch, seed) -> Request:
    cfg = GammaStarConfig(F(1), (HALF, F(3, 4)), (4, 4), (0.5, 0.5), y0, 2)
    spec = TargetSpec.interval_union([(F(2, 5), F(9, 10))])
    x = Word(branch)

    def run(tr):
        with tr.span("percolation.gamma_star"):
            return gamma_star(cfg, x, spec, PercField(seed), depth, k_set)

    def check(smp):
        leaves = smp.survivors.leaves
        require(y0 in leaves, "anchor cell missing from gamma_star")
        require(leaves <= k_set.leaves, "gamma_star leaves the reference set")
        require(all(c.z_cell in k_set.leaves for c in smp.completions),
                "completion point outside the reference set")
        return canon([sorted_leaves(smp.survivors),
                      sorted((c.level, list(c.cell), list(c.z_cell))
                             for c in smp.completions)])

    return Request("gamma-star", (depth, branch, seed), run, check)


def _check_perc_csv(config, bodies) -> bytes:
    rows = parse_csv(strip_header(config, bodies[0]))
    depths = [int(r["depth"]) for r in rows]
    survivals = [float(r["survival_frac"]) for r in rows]
    require(survivals == sorted(survivals, reverse=True), "survival rises with depth")
    kind, _, arg = config["k"].partition(":")
    if kind == "full":
        for dep, frac in zip(depths, survivals):
            check_survival_interval(frac, config["trials"], F(config["beta"]),
                                    int(arg), dep)
    out = bodies[0]
    if len(bodies) > 1:
        packed = bodies[1]
        require(pack_bits(unpack_bits(packed)) == packed, "saved set does not round-trip")
        out += packed
    return out


def _cli(ctx, command, k, beta, depth_arg, trials, seed, save=False) -> Request:
    out = ctx.path(f"{command}.csv")
    config = {"command": command, "k": k, "beta": beta, "trials": trials,
              "seed": seed, "out": out}
    config["depth" if command == "percolate" else "depths"] = depth_arg
    artifacts = [out]
    if save:
        config["save_set"] = ctx.path("set.bin")
        artifacts.append(config["save_set"])
    return cli_request(f"cli-{command}", config, artifacts, _check_perc_csv)


def build(ctx) -> list[Request]:
    rng = ctx.rng
    seed = lambda: rng.randrange(1 << 32)  # noqa: E731
    reqs = [_hawkes_full(b, d, deps, t, seed()) for b, d, deps, t in FULL_HAWKES]
    reqs += [_hawkes_beatty(rng.randrange(3), t, seed()) for t in BEATTY_HAWKES_TRIALS]
    reqs += [_sample_saved(b, d, dep, rng.randrange(3), seed()) for b, d, dep in SAMPLES]
    for depth in GAMMA_STAR_DEPTHS:
        k_set = full_cube(1, depth)
        y0 = select_anchor_cell(k_set)
        branch = tuple(rng.randrange(2) for _ in range(depth))
        reqs.append(_gamma_star(depth, k_set, y0, branch, seed()))
    reqs += [_cli(ctx, "percolate", "full:1", "1/2", 16, 50, seed(), save=i == 0)
             for i in range(6)]
    reqs += [_cli(ctx, "hawkes", "beatty:1/3", "3/5", "8,24", 100, seed()),
             _cli(ctx, "percolate", "full:2", "3/2", 11, 50, seed(), save=True)]
    ctx.interleave(reqs)
    return reqs
