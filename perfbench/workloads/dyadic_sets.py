"""dyadic-sets: building and encoding cell sets beside queries on them.

Why: a change that speeds building or encoding but slows queries (or the
reverse) shows here, because both run in one pass.  The sorted Morton-code
cell sets and the sup-metric Hausdorff branch-and-bound (ROADMAP
directions 2 and 4) show here.  Sets run from 2^8 to 2^17 leaves, so the
working set runs from well inside a 4 MiB L2 cache to far beyond it.

The request table is fixed; the seed picks the words (where their ones
sit), the zoom exponents, the decomposition levels and the percolation
survivor sets behind the 2-D distances.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction as F

from microfract.dyadic import (DyadicSet, decompose, from_json, hausdorff_distance,
                               kx_set, pack_bits, product, singleton_chain,
                               to_json, unpack_bits, verify_sandwich, zoom)
from microfract.percolation import PercField, RetentionSchedule, sample
from microfract.seq import Word

from harness import Request
from workloads.common import (canon, cli_request, parse_csv, require,
                              sorted_leaves, strip_header)

NAME = "dyadic-sets"
WARMUP_KIND = "hausdorff-1d"

EXTRA_ZEROS = 4  # words have sigma ones and this many zeros
LEVELS_SIGMAS = [8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 14]
PACK_SIGMAS = [8, 8, 9, 9, 10, 10, 11, 11, 12, 13]
JSON_SIGMAS = [8, 9, 10, 11, 12, 13, 14, 16]
ZOOM_SIGMAS = [8, 9, 10, 11, 12, 13, 15, 17]
SANDWICH_SIGMAS = [8, 9, 10, 11, 12, 13, 14, 15]
H1D_SIGMAS = [(8, 8), (8, 9), (9, 9), (9, 10), (10, 10), (10, 11),
              (11, 11), (11, 12), (12, 12), (12, 12), (8, 8), (10, 10)]
H1D_DEPTH = 16
# 2-D sup-metric distances: (depth, cells per operand).  The depth-6 ones
# are the slowest requests but a handful, so the tail percentile falls
# among them.
HSUP_PRODUCT = [(5, 120)] * 2 + [(6, 300)] * 7
HSUP_MIXED = [(5, 120)] * 2 + [(6, 300)] * 7
CLI_ZOOM_SIGMAS = [8, 9, 10, 11, 12, 8, 9, 10, 11, 12]
CLI_ZOOM_BINARY_SIGMAS = [8, 9, 10, 11, 12, 10]
CLI_DIMS_SIGMAS = [8, 10, 12, 14, 16, 18, 10, 14]
# Candidate survivor sets sampled per (d, depth), five or more per set used,
# so that the sizes handed out, and with them the cost and the peak memory
# of the distance requests, barely change with the seed.
SURVIVOR_CANDIDATES = {(1, 5): 64, (1, 6): 256, (2, 5): 32, (2, 6): 96}


def _word(rng, sigma: int, zeros: int = EXTRA_ZEROS) -> tuple[int, ...]:
    """sigma ones and ``zeros`` zeros, one zero at a random place in each of
    ``zeros`` equal stretches: the seed moves the zeros, but the level
    counts (and so the cost) stay close for every seed."""
    n = sigma + zeros
    if zeros == 0:
        return (1,) * n
    cuts = [n * i // zeros for i in range(zeros + 1)]
    zero_at = {rng.randrange(cuts[i], cuts[i + 1]) for i in range(zeros)}
    return tuple(0 if i in zero_at else 1 for i in range(n))


def _zoom_exponent(w) -> int:
    """The zoom exponent just past the second one of ``w``: the view then
    keeps 2^(sigma - 2) leaves for every seed."""
    return [i for i, b in enumerate(w) if b][1] + 1


def _bits(w) -> str:
    return "".join(map(str, w))


def _kx(w, tr):
    with tr.span("dyadic.kx_set"):
        a = kx_set(Word(w))
    tr.count("dyadic.leaves_built", len(a.leaves))
    return a


def _level_counts(w) -> list[int]:
    out, s = [1], 0
    for b in w:
        s += b
        out.append(1 << s)
    return out


def _same(a: DyadicSet, b: DyadicSet) -> bool:
    return (a.d, a.depth, a.leaves) == (b.d, b.depth, b.leaves)


def _levels(w) -> Request:
    def run(tr):
        a = _kx(w, tr)
        counts = []
        for m in range(a.depth + 1):
            with tr.span("dyadic.count"):
                counts.append(a.count(m))
        tr.count("dyadic.count.cells", sum(counts))
        return counts

    def check(counts):
        require(counts == _level_counts(w), "level counts != 2^sigma(prefix)")
        return canon(counts)

    return Request("levels", (_bits(w),), run, check)


def _pack(w) -> Request:
    def run(tr):
        a = _kx(w, tr)
        with tr.span("dyadic.pack_bits"):
            packed = pack_bits(a)
        tr.count("dyadic.packed_bytes", len(packed))
        with tr.span("dyadic.unpack_bits"):
            back = unpack_bits(packed)
        return a, packed, back

    def check(out):
        a, packed, back = out
        require(_same(a, back), "unpack_bits(pack_bits(A)) != A")
        bits = 1 + sum(2 * c for c in _level_counts(w)[:-1])
        require(packed[:4] == b"DYB1" and len(packed) == 6 + -(-bits // 8),
                "packed size differs from the breadth-first bitmap size")
        return packed

    return Request("pack", (_bits(w),), run, check)


def _json(w) -> Request:
    def run(tr):
        a = _kx(w, tr)
        with tr.span("dyadic.json"):
            text = to_json(a)
        tr.count("dyadic.json_bytes", len(text))
        with tr.span("dyadic.json"):
            back = from_json(text)
        return a, text, back

    def check(out):
        a, text, back = out
        require(_same(a, back), "from_json(to_json(A)) != A")
        require(len(a.leaves) == 1 << sum(w), "leaf count != 2^sigma")
        return text.encode()

    return Request("json", (_bits(w),), run, check)


def _zoom(w, m) -> Request:
    def run(tr):
        a = _kx(w, tr)
        with tr.span("dyadic.zoom"):
            return zoom(a, m, 0)

    def check(view):
        # Zooming K(x) by 2^m at the origin leaves exactly K(x[m:]).
        require(view.leaves == kx_set(Word(w[m:])).leaves, "zoom(K(x), m, 0) != K(x[m:])")
        return canon(sorted_leaves(view))

    return Request("zoom", (_bits(w), m), run, check)


def _sandwich(w, n) -> Request:
    def run(tr):
        a = _kx(w, tr)
        with tr.span("dyadic.decompose"):
            pieces = decompose(Word(w), n)
        with tr.span("dyadic.verify_sandwich"):
            ok = verify_sandwich(a, pieces[0][1], [u for u, _ in pieces])
        return a, pieces, ok

    def check(out):
        a, pieces, ok = out
        require(ok, "K(x) is not sandwiched by translates of its first piece")
        require(len(pieces) == 1 << sum(w[:n]), "piece count != 2^sigma(x[:n])")
        require(frozenset().union(*(p.leaves for _, p in pieces)) == a.leaves,
                "pieces do not partition K(x)")
        return canon([str(u) for u, _ in pieces])

    return Request("sandwich", (_bits(w), n), run, check)


def _h1d(x, y) -> Request:
    def run(tr):
        a, b = _kx(x, tr), _kx(y, tr)
        with tr.span("dyadic.hausdorff_1d"):
            return a, b, hausdorff_distance(a, b)

    def check(out):
        a, b, dist = out
        depth = len(x)
        require(dist.denominator <= 1 << (depth + 1) and 0 <= dist <= 1, "distance off grid")
        first = next((i for i in range(depth) if x[i] != y[i]), None)
        if first is None:
            require(dist == 0, "distance between equal sets")
        else:  # sets agreeing on `first` digits lie within 2^-first
            require(0 < dist <= F(1, 1 << first), "contraction bound broken")
        if len(a.leaves) <= 256 and len(b.leaves) <= 256:
            flat = singleton_chain(1, depth)
            sup = hausdorff_distance(product(a, flat), product(b, flat))
            require(sup == dist, "1-D distance disagrees with the sup-metric scan")
        return str(dist).encode()

    return Request("hausdorff-1d", (_bits(x), _bits(y)), run, check)


def _projection(s: DyadicSet, axis: int) -> DyadicSet:
    return DyadicSet(1, s.depth, frozenset((leaf[axis],) for leaf in s.leaves))


def _hsup(a1, a2, b1, b2=None) -> Request:
    """sup-metric distance between the product a1 x a2 and either another
    product b1 x b2 or a 2-D set b1."""

    def run(tr):
        with tr.span("dyadic.product"):
            a = product(a1, a2)
        if b2 is None:
            b = b1
        else:
            with tr.span("dyadic.product"):
                b = product(b1, b2)
        tr.count("dyadic.hausdorff_sup.pairs", 2 * 9 * len(a.leaves) * len(b.leaves))
        with tr.span("dyadic.hausdorff_sup"):
            return a, b, hausdorff_distance(a, b)

    def check(out):
        a, b, dist = out
        require(dist.denominator <= 1 << (a.depth + 1) and 0 <= dist <= 1,
                "distance off grid")
        if b2 is not None:  # the sup metric splits over product factors
            want = max(hausdorff_distance(a1, b1), hausdorff_distance(a2, b2))
            require(dist == want, f"product distance {dist} != {want}")
        else:  # projections are 1-Lipschitz in the sup metric
            for axis in (0, 1):
                low = hausdorff_distance(_projection(a, axis), _projection(b, axis))
                require(dist >= low, "distance below a projection's distance")
        return str(dist).encode()

    operands = [sorted_leaves(s) for s in (a1, a2, b1) + ((b2,) if b2 else ())]
    params = tuple(len(s) for s in operands) + (hashlib.sha256(canon(operands)).hexdigest()[:16],)
    return Request("hausdorff-sup", params, run, check)


class _SurvivorPool:
    """Percolation survivor sets of one (d, depth), handed out nearest to a
    requested size (or pairs nearest to a requested product of sizes), so
    that the distance requests cost nearly the same for every seed.  The
    retention is set so that the mean survivor count is near those sizes."""

    def __init__(self, rng, d: int, depth: int, candidates: int):
        beta = F(5, 8) if d == 2 else F(1, 3)
        field = PercField(rng.randrange(1 << 32))
        sets = (sample(RetentionSchedule.constant(beta), field, ("survivor", i), depth,
                       d=d).survivors for i in range(candidates))
        self.sets = [s for s in sets if not s.is_empty]

    def take(self, size: int) -> DyadicSet:
        best = min(range(len(self.sets)), key=lambda i: abs(len(self.sets[i].leaves) - size))
        return self.sets.pop(best)

    def take_pair(self, size: int) -> tuple[DyadicSet, DyadicSet]:
        n = [len(s.leaves) for s in self.sets]
        i, j = min(((i, j) for i in range(len(n)) for j in range(i + 1, len(n))),
                   key=lambda ij: abs(n[ij[0]] * n[ij[1]] - size))
        second = self.sets.pop(j)
        return self.sets.pop(i), second


def _check_zoom_json(config, bodies) -> bytes:
    body = strip_header(config, bodies[0])
    view = from_json(body.decode())
    w = config["set"].partition(":")[2]
    require(view.leaves == kx_set(w[config["m"]:]).leaves, "CLI zoom != K(x[m:])")
    return body


def _check_zoom_binary(config, bodies) -> bytes:
    view = unpack_bits(bodies[0])
    w = config["set"].partition(":")[2]
    require(view.leaves == kx_set(w[config["m"]:]).leaves, "CLI binary zoom != K(x[m:])")
    return bodies[0]


def _check_dims(config, bodies) -> bytes:
    body = strip_header(config, bodies[0])
    rows = parse_csv(body)
    w = tuple(int(c) for c in config["word"].partition(":")[2])
    want = _level_counts(w)
    require([(int(r["level"]), int(r["count"])) for r in rows] ==
            [(m, want[m]) for m in range(1, len(w) + 1)], "CLI dims counts wrong")
    return body


def build(ctx) -> list[Request]:
    rng = ctx.rng
    reqs = [_levels(_word(rng, s)) for s in LEVELS_SIGMAS]
    reqs += [_pack(_word(rng, s)) for s in PACK_SIGMAS]
    reqs += [_json(_word(rng, s)) for s in JSON_SIGMAS]
    for s in ZOOM_SIGMAS:
        w = _word(rng, s)
        reqs.append(_zoom(w, _zoom_exponent(w)))
    reqs += [_sandwich(_word(rng, s), rng.randrange(2, 6)) for s in SANDWICH_SIGMAS]
    for sx, sy in H1D_SIGMAS:
        x = _word(rng, sx, H1D_DEPTH - sx)
        keep = rng.randrange(H1D_DEPTH // 2)  # share a prefix, as in criterion 3
        rest = max(sy - sum(x[:keep]), 0)
        y = x[:keep] + _word(rng, rest, H1D_DEPTH - keep - rest)
        reqs.append(_h1d(x, y))
    pools = {(d, depth): _SurvivorPool(rng, d, depth, n)
             for (d, depth), n in SURVIVOR_CANDIDATES.items()}
    for depth, cells in HSUP_PRODUCT:
        reqs.append(_hsup(*pools[1, depth].take_pair(cells), *pools[1, depth].take_pair(cells)))
    for depth, cells in HSUP_MIXED:
        reqs.append(_hsup(*pools[1, depth].take_pair(cells), pools[2, depth].take(cells)))
    for s in CLI_ZOOM_SIGMAS:
        w = _word(rng, s)
        config = {"command": "zoom", "set": f"word:{_bits(w)}", "depth": len(w),
                  "m": _zoom_exponent(w), "u": "0", "seed": 0, "out": ctx.path("zoom.json")}
        reqs.append(cli_request("cli-zoom", config, [config["out"]], _check_zoom_json))
    for s in CLI_ZOOM_BINARY_SIGMAS:
        w = _word(rng, s)
        config = {"command": "zoom", "set": f"word:{_bits(w)}", "depth": len(w),
                  "m": _zoom_exponent(w), "u": "0", "binary": True, "seed": 0,
                  "out": ctx.path("zoom.bin")}
        reqs.append(cli_request("cli-zoom-binary", config, [config["out"]],
                                _check_zoom_binary))
    for s in CLI_DIMS_SIGMAS:
        w = _bits(_word(rng, s))
        config = {"command": "dims", "word": f"word:{w}", "depth": len(w), "seed": 0,
                  "out": ctx.path("dims.csv")}
        reqs.append(cli_request("cli-dims", config, [config["out"]], _check_dims))
    ctx.interleave(reqs)
    return reqs
