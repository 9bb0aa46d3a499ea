import contextlib
import copy
import dataclasses
import functools
import hashlib
import itertools
import math
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from microfract import dims, families
from microfract.cli import main
from microfract.dims import exact_packing_number
from microfract.dyadic import kx_set, product
from microfract.errors import ResolutionExhausted, ResourceLimitError
from microfract.families import (
    BallLevel,
    EuclideanNet,
    KSeq,
    MatrixNet,
    count_reaches_pow2,
    extend,
    family_dim_report,
    family_member,
    floor_pow2,
    level_schedule,
    packing_family_assembly,
    root_tree,
    suggest_origin,
)
from microfract.realize import TargetSpec, VarphiMap
from microfract.seq import beatty_balanced, factor


# ---------------------------------------------------------------------------
# Oracles: the per-center loops that the batched net kernel replaced, kept
# verbatim (calls to the view's own ball/greedy methods now go to the oracle
# versions).  The kernel must reproduce them exactly.
# ---------------------------------------------------------------------------

def oracle_ball(view, center, r):
    idx = np.arange(view.n_points)
    return idx[view.dists_from(center, idx) <= r]


def oracle_greedy(view, candidates, delta, stop_at=None):
    if view.min_separation is not None and delta < view.min_separation:
        # distinct points are already separated; a repeated candidate packs once
        out = list(dict.fromkeys(int(c) for c in candidates))
        return out if stop_at is None else out[:stop_at]
    alive = np.ones(len(candidates), dtype=bool)
    chosen = []
    while True:
        rest = np.nonzero(alive)[0]
        if rest.size == 0:
            return chosen
        i = int(rest[0])
        chosen.append(int(candidates[i]))
        if stop_at is not None and len(chosen) >= stop_at:
            return chosen
        d = view.dists_from(int(candidates[i]), candidates[rest])
        alive[rest[d <= delta]] = False


def bisection(at_most, whole):
    """The largest c in [2^whole, 2^(whole+1)) with ``at_most(c)``, by
    bisection: ``at_most(lo)`` holds and ``at_most(hi)`` fails throughout."""
    lo, hi = 1 << whole, 2 << whole
    assert at_most(lo) and not at_most(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if at_most(mid) else (lo, mid)
    return lo


def decimal_at_most(c, p, q):
    """Oracle ``c <= 2^(p/q)`` for ``c >= 1`` and a q far past integer powers:
    logarithms at a fixed precision, past q's digits and twice c's, with a
    check that the gap is 10^10 times their rounding error."""
    with localcontext() as ctx:
        ctx.prec = len(str(q)) + 2 * len(str(c)) + 40
        lhs, rhs = q * Decimal(c).ln(), p * Decimal(2).ln()
        assert abs(lhs - rhs) > (lhs + rhs) * Decimal(10) ** (10 - ctx.prec)
    return lhs < rhs


def floor_with_steps(alpha, ell):
    """``floor_pow2(alpha, ell)``, asserting that it corrects its guess by at
    most two units: at most four exact comparisons."""
    compare, calls = families._at_most_pow2, []

    def counted(*args):
        calls.append(args)
        assert len(calls) <= 4, f"more than four comparisons for 2^({alpha}*{ell})"
        return compare(*args)

    with mock.patch.object(families, "_at_most_pow2", counted):
        return floor_pow2(alpha, ell)


def oracle_global_packing_number(view, delta):
    if view.min_separation is not None and delta < view.min_separation:
        return view.n_points
    return len(oracle_greedy(view, np.arange(view.n_points), delta))


def oracle_g_of(view, k, g_mode):
    if g_mode == "linear":
        return k + 1
    return max(k + 1, oracle_global_packing_number(view, 2.0 ** -k))


def oracle_level_schedule(view, alphas, variant, levels=None, j_cap=200,
                          g_mode="strict"):
    if variant not in ("box", "packing"):
        raise ValueError(f"unknown variant {variant!r}")
    if g_mode not in ("strict", "linear"):
        raise ValueError(f"unknown g_mode {g_mode!r}")
    alphas = tuple(Fraction(a) for a in alphas)
    if levels is None:
        levels = len(alphas)
    if len(alphas) < levels:
        raise ValueError("need one alpha per level")
    gap = 3 if variant == "box" else 2
    ks, gs, js = [0], [], []
    for n in range(levels):
        g_kn = oracle_g_of(view, ks[n], g_mode)
        r = 2.0 ** -g_kn
        alpha = alphas[n]
        centers = [view.y0] if variant == "box" else list(range(view.n_points))
        j_needed = None
        for center in centers:
            members = oracle_ball(view, center, r)
            j = None
            for cand in range(g_kn, j_cap + 1):
                need = families._ceil_pow2(alpha, cand)
                if need > len(members):
                    continue  # not even enough points in the ball
                got = oracle_greedy(view, members, 2.0 ** -cand, stop_at=need)
                if len(got) >= need:
                    j = cand
                    break
            if j is None:
                span = (f"scales [{g_kn}, {j_cap}]" if g_kn <= j_cap
                        else f"required scale start {g_kn} beyond the cap {j_cap}")
                raise ResolutionExhausted(
                    f"level {n + 1}: no admissible scale ({span}) packs "
                    f"2^({alpha}*j) points in the radius 2^-{g_kn} ball at "
                    f"point {center} ({len(members)} net points inside)",
                    level=n + 1,
                )
            j_needed = j if j_needed is None else max(j_needed, j)
        ks.append(j_needed + gap)
        gs.append(g_kn)
        js.append(j_needed)
    return KSeq(variant, alphas, tuple(ks), tuple(gs), tuple(js), g_mode)


def oracle_min_ell_and_packing(view, center, radius, phi, lo, hi, who):
    members = oracle_ball(view, center, radius)
    for ell in range(lo, hi + 1):
        need = floor_pow2(phi, ell)
        if need > len(members):
            continue
        got = oracle_greedy(view, members, 2.0 ** -ell, stop_at=need)
        if len(got) >= need:
            return ell, got[:need]
    raise ResolutionExhausted(
        f"{who}: no scale in [{lo}, {hi}] yields a floor(2^({phi}*l))-point "
        f"packing in the radius {radius} ball at point {center}"
    )


def oracle_packings(view, centers, radius, phi, lo, hi, who):
    """The extensions' former per-center loop over the oracle above."""
    out = []
    for y in centers:
        ell, s = oracle_min_ell_and_packing(view, y, radius, phi, lo, hi,
                                            who.format(y=y))
        out.append((ell, tuple(s)))
    return out


def oracle_scans(view, r, alpha, lo, hi, need_of):
    """Every center's (scale, ball size, packing), up to the first center
    with no scale, from one oracle scan per center."""
    want = []
    for c in range(view.n_points):
        members = oracle_ball(view, c, r)
        row = (None, len(members), ())
        for j in range(lo, hi + 1):
            need = need_of(alpha, j)
            got = oracle_greedy(view, members, 2.0 ** -j, stop_at=need)
            if len(got) >= need:
                row = (j, len(members), tuple(got[:need]))
                break
        want.append(row)
        if row[0] is None:
            break
    return want


def kernel_scans(net, r, alpha, lo, hi, need_of):
    """The kernel's ``(reps, rows, cls)`` on every center, expanded to the
    oracle's per-center list: each center takes its class's row, the packing
    shifted from the class's first center, up to the first center whose
    class was not scanned."""
    reps, rows, cls = families._first_scales(net, np.arange(net.n_points), r, alpha,
                                             lo, hi, need_of)
    out = []
    for c, k in enumerate(cls.tolist()):
        if k >= len(rows):
            break
        j, size, pack = rows[k]
        out.append((j, size, tuple(p + c - int(reps[k]) for p in pack)))
    return out


def oracle_suggest_origin(view, radius=0.25):
    best, best_n = 0, -1
    for i in range(view.n_points):
        n = len(oracle_ball(view, i, radius))
        if n > best_n:
            best, best_n = i, n
    return best


def outcome(fn):
    """A call's result, or its exception as (type, message, level)."""
    try:
        return fn()
    except (ValueError, ResolutionExhausted, families.InvariantViolation) as e:
        return type(e), str(e), getattr(e, "level", None)


def distance_matrix(pts: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``pts``, each pair's gaps
    divided by their largest before squaring: squared gaps of coordinates
    near 1e-154 would underflow and lose the triangle inequality."""
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    scale = diff.max(axis=-1, keepdims=True)
    unit = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return scale[..., 0] * np.sqrt((unit * unit).sum(axis=-1))


def normal_gaps(pts: np.ndarray) -> np.ndarray:
    """``pts`` with coordinates below 2^-500 set to 0: every nonzero gap is
    then at least 2^-552, far from the subnormal range, where a distance
    keeps too few bits for the triangle inequality."""
    return np.where(pts < 2.0 ** -500, 0.0, pts)


@st.composite
def random_nets(draw):
    """Small Euclidean nets (d = 1-3; on the 1/8 lattice, so distances tie
    exactly, or at arbitrary floats; with duplicate points) and the matrix
    nets of their distances, their tiniest coordinates taken as 0."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 20))
    if draw(st.booleans()):
        coords = draw(st.lists(st.integers(0, 8), min_size=n * d, max_size=n * d))
        pts = np.array(coords, dtype=float).reshape(n, d) / 8
    else:
        coords = draw(st.lists(st.floats(0, 1), min_size=n * d, max_size=n * d))
        pts = np.array(coords, dtype=float).reshape(n, d)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)), max_size=4)):
        pts[dst] = pts[src]
    y0 = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        return MatrixNet(distance_matrix(normal_gaps(pts)), y0=y0)
    return EuclideanNet(pts, y0=y0)


# the module's block size, and a size so small that every block holds one row
BLOCKINGS = [None, 1]


@contextlib.contextmanager
def blocking(block):
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(families, "_BLOCK_ELEMS", block)
        yield


def telescope_net(levels, alpha=Fraction(1, 8)):
    """1-D net with clusters around 0 at doubly-shrinking scales, rich enough
    for `levels` extensions under the linear level function."""
    pts = {0.0}
    k = 0
    for _ in range(levels):
        g = k + 1
        j = g
        while (floor_pow2(alpha, j) + 2) * 1.5 * 2.0 ** -j > 2.0 ** -g:
            j += 1
        need = floor_pow2(alpha, j) + 2
        spacing = 1.5 * 2.0 ** -j
        pts |= {i * spacing for i in range(need)}
        k = j + 3
    arr = np.array(sorted(pts))
    return EuclideanNet(arr, y0=0)


def point_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(a[:, None] - b[None, :])
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def grid_1d(m):
    """Uniform 1-D net: rich around every point (packing-variant witnesses)."""
    return EuclideanNet(np.linspace(0.0, 1.0, 2 ** m + 1), y0=0,
                        min_separation=2.0 ** -m)


class FloatNet(EuclideanNet):
    """A Euclidean net on the float path whatever its points: the lattice
    detection applies to ``EuclideanNet`` itself, not to its subclasses."""


@st.composite
def dyadic_lines(draw):
    """The line i/2^m (m = 1-10) as a lattice net, with or without the true
    claim 2^-m of its separation, and as its float twin: shaped (n,) or
    (n, 1), any origin."""
    m = draw(st.integers(1, 10))
    pts = np.linspace(0.0, 1.0, 2 ** m + 1)
    if draw(st.booleans()):
        pts = pts[:, None]
    y0 = draw(st.integers(0, 2 ** m))
    net = EuclideanNet(pts, y0=y0, min_separation=draw(st.sampled_from([None, 2.0 ** -m])))
    assert isinstance(net, families.LatticeNet) and net.d == 1
    return net, FloatNet(pts, y0=y0)


class TestKernelMatchesOracles:
    @settings(max_examples=120, deadline=None)
    @given(line=dyadic_lines(),
           alpha=st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 6),
                                  Fraction(1, 4), Fraction(1, 2), Fraction(1),
                                  Fraction(3, 2)]),
           low=st.sampled_from([Fraction(0), Fraction(1, 8)]),
           levels=st.integers(1, 3),
           variant=st.sampled_from(["box", "packing"]),
           g_mode=st.sampled_from(["strict", "linear"]),
           j_cap=st.integers(3, 40),
           bits=st.lists(st.integers(0, 1), min_size=3, max_size=3))
    def test_dyadic_line_schedules_and_members(self, line, alpha, low, levels, variant,
                                               g_mode, j_cap, bits):
        # the oracles run on the float twin of the lattice line
        net, twin = line
        alphas = [alpha] * levels
        want = outcome(lambda: oracle_level_schedule(twin, alphas, variant, levels,
                                                     j_cap, g_mode))
        spec = TargetSpec.finite_set([min(low, alpha), alpha])
        branch = "".join(map(str, bits))
        if isinstance(want, KSeq):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(families, "_packings", oracle_packings)
                want_tree = outcome(lambda: family_member(
                    branch, spec, twin, variant, levels, kseq=want))
        for block in BLOCKINGS:
            with blocking(block):
                got = outcome(lambda: level_schedule(net, alphas, variant, levels,
                                                     j_cap, g_mode))
                assert got == want
                if isinstance(want, KSeq):
                    tree = outcome(lambda: family_member(
                        branch, spec, net, variant, levels, kseq=got))
                    if isinstance(want_tree, tuple):
                        assert tree == want_tree
                    else:
                        assert tree.levels == want_tree.levels

    @settings(max_examples=100, deadline=None)
    @given(line=dyadic_lines(), k=st.integers(-1, 10),
           alpha=st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
           need_of=st.sampled_from([floor_pow2, families._ceil_pow2]),
           lo=st.integers(0, 12), span=st.integers(0, 6))
    def test_dyadic_line_scans_match_per_center_oracle(self, line, k, alpha, need_of,
                                                       lo, span):
        # every center's (scale, ball size, packing), up to the first center
        # with no scale, against one oracle scan per center of the float twin
        net, twin = line
        r = 2.0 ** -k
        want = oracle_scans(twin, r, alpha, lo, lo + span, need_of)
        for block in BLOCKINGS:
            with blocking(block):
                got = kernel_scans(net, r, alpha, lo, lo + span, need_of)
                assert got[:len(want)] == want

    @settings(max_examples=120, deadline=None)
    @given(line=dyadic_lines(), data=st.data())
    def test_dyadic_line_ball_greedy_and_global_packing(self, line, data):
        net, twin = line
        n = net.n_points
        k = data.draw(st.integers(-2, 12))
        # powers of two, and radii between two multiples of the spacing
        r = data.draw(st.sampled_from([2.0 ** -k, (2 ** k + 0.5) / n, 0.0, 0.3, 1e-300]))
        center = data.draw(st.integers(0, n - 1))
        cand = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=25)),
                        dtype=np.int64)
        every = np.arange(n)
        assert np.array_equal(net.within(center, every, r), twin.within(center, every, r))
        for block in BLOCKINGS:
            with blocking(block):
                ball = net.ball(center, r)
                assert np.array_equal(ball, oracle_ball(twin, center, r))
                assert ball.dtype == np.int64
                assert net.greedy_packing_indices(cand, r) == oracle_greedy(twin, cand, r)
                assert (net.global_packing_number(r)
                        == oracle_global_packing_number(twin, r))
                assert suggest_origin(net, r) == oracle_suggest_origin(twin, r)

    @settings(max_examples=200, deadline=None)
    @given(net=random_nets(), data=st.data())
    def test_within_a_fraction_radius_compares_exactly(self, net, data):
        # radii on a computed distance, one float step to either side, and
        # strictly between those floats, against one exact comparison each
        every = np.arange(net.n_points)
        rows = np.tile(every, (net.n_points, 1))
        dists = net.dists_from(every, rows)
        x = data.draw(st.sampled_from(sorted(set(dists.ravel().tolist())) + [0.1, 2.0 ** -60]))
        below, above = (Fraction(math.nextafter(x, t)) for t in (-math.inf, math.inf))
        r = data.draw(st.sampled_from([Fraction(x), below, above, (below + x) / 2,
                                       (above + x) / 2, (below + 2 * x) / 3]))
        want = [[d <= r for d in row] for row in dists.tolist()]
        assert net.within(every, rows, r).tolist() == want
        assert net.within(0, every, r).tolist() == want[0]
        huge = Fraction(10 ** 400)  # past every float
        assert net.within(0, every, huge).all() and not net.within(0, every, -huge).any()

    @settings(max_examples=120, deadline=None)
    @given(net=random_nets(),
           alpha=st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 4),
                                  Fraction(1, 3), Fraction(1, 2), Fraction(1),
                                  Fraction(3, 2)]),
           low=st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 4)]),
           levels=st.integers(1, 3),
           variant=st.sampled_from(["box", "packing"]),
           g_mode=st.sampled_from(["strict", "linear"]),
           j_cap=st.integers(3, 40),
           bits=st.lists(st.integers(0, 1), min_size=3, max_size=3))
    def test_schedules_and_members(self, net, alpha, low, levels, variant,
                                   g_mode, j_cap, bits):
        alphas = [alpha] * levels
        want = outcome(lambda: oracle_level_schedule(net, alphas, variant, levels,
                                                     j_cap, g_mode))
        spec = TargetSpec.finite_set([min(low, alpha), alpha])
        branch = "".join(map(str, bits))
        if isinstance(want, KSeq):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(families, "_packings", oracle_packings)
                want_tree = outcome(lambda: family_member(
                    branch, spec, net, variant, levels, kseq=want))
        for block in BLOCKINGS:
            with blocking(block):
                got = outcome(lambda: level_schedule(net, alphas, variant, levels,
                                                     j_cap, g_mode))
                assert got == want
                if isinstance(want, KSeq):
                    tree = outcome(lambda: family_member(
                        branch, spec, net, variant, levels, kseq=got))
                    if isinstance(want_tree, tuple):
                        assert tree == want_tree
                    else:
                        assert tree.levels == want_tree.levels

    @settings(max_examples=120, deadline=None)
    @given(net=random_nets(), k=st.integers(-2, 8),
           alpha=st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
           need_of=st.sampled_from([floor_pow2, families._ceil_pow2]),
           lo=st.integers(0, 8), span=st.integers(0, 6))
    def test_scans_match_per_center_oracle(self, net, k, alpha, need_of, lo, span):
        # float and matrix nets: every center is its own ball class
        r = 2.0 ** -k
        want = oracle_scans(net, r, alpha, lo, lo + span, need_of)
        for block in BLOCKINGS:
            with blocking(block):
                got = kernel_scans(net, r, alpha, lo, lo + span, need_of)
                assert got[:len(want)] == want

    @settings(max_examples=120, deadline=None)
    @given(net=random_nets(), data=st.data())
    def test_ball_greedy_and_global_packing(self, net, data):
        n = net.n_points
        k = data.draw(st.integers(-2, 8))
        r = data.draw(st.sampled_from([2.0 ** -k, 0.0, 0.3, 1e-300]))
        center = data.draw(st.integers(0, n - 1))
        cand = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=25)),
                        dtype=np.int64)
        for block in BLOCKINGS:
            with blocking(block):
                ball = net.ball(center, r)
                assert np.array_equal(ball, oracle_ball(net, center, r))
                assert ball.dtype == np.int64
                assert net.greedy_packing_indices(cand, r) == oracle_greedy(net, cand, r)
                assert (net.global_packing_number(r)
                        == oracle_global_packing_number(net, r))
                assert suggest_origin(net, r) == oracle_suggest_origin(net, r)

    def test_grid_global_packings_match(self):
        net = EuclideanNet.grid_2d(65)
        for k in range(8):
            assert (net.global_packing_number(2.0 ** -k)
                    == oracle_global_packing_number(net, 2.0 ** -k))

    @pytest.mark.parametrize("side,alpha", [(73, Fraction(2, 3)), (81, Fraction(1, 3))])
    def test_strict_grid_exhaustion_matches(self, side, alpha):
        net = EuclideanNet.grid_2d(side)
        got = outcome(lambda: level_schedule(net, [alpha] * 2, "box", 2))
        assert got == outcome(lambda: oracle_level_schedule(net, [alpha] * 2, "box", 2))
        assert got[0] is ResolutionExhausted and got[2] == 2

    def test_packing_variant_grid_matches(self):
        net = EuclideanNet.grid_2d(17)
        want = oracle_level_schedule(net, [Fraction(1, 3)], "packing", 1)
        for block in BLOCKINGS:
            with blocking(block):
                assert level_schedule(net, [Fraction(1, 3)], "packing", 1) == want

    def test_first_failing_center_is_reported(self):
        # centers 0-2 sit in a cluster and find a witness; the isolated point
        # 3 is the first center whose ball holds no second point
        net = EuclideanNet([0.0, 1 / 64, 2 / 64, 0.9] + [i / 64 for i in range(3, 9)])
        args = ([Fraction(1, 8)], "packing", 1, 10, "linear")
        want = outcome(lambda: oracle_level_schedule(net, *args))
        assert "at point 3 (1 net points inside)" in want[1]
        for block in BLOCKINGS:
            with blocking(block):
                assert outcome(lambda: level_schedule(net, *args)) == want


def shortcut_outcomes(net):
    """What the below-resolution shortcut may only speed up: both variants'
    two-level schedules under both level functions, every center's kernel
    packing at scales from 2^-12 on, and the greedy packing of a fixed
    candidate list (with repeats) and the global packing number at every
    scale 2^0 .. 2^-12."""
    got = [outcome(lambda: level_schedule(net, [alpha] * 2, variant, 2, 30, g_mode))
           for variant in ("box", "packing") for g_mode in ("strict", "linear")
           for alpha in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))]
    got += [kernel_scans(net, 0.25, alpha, 12, 14, floor_pow2)
            for alpha in (Fraction(1, 4), Fraction(1, 2))]
    cand = np.random.default_rng(net.n_points).integers(0, net.n_points, 3 * net.n_points)
    for k in range(13):
        got.append((net.greedy_packing_indices(cand, 2.0 ** -k),
                    net.global_packing_number(2.0 ** -k)))
    return got


def without_separation(net):
    """A copy of ``net`` that knows no separation, so it takes no shortcut."""
    untold = copy.copy(net)
    untold.min_separation = None
    return untold


class TestKernelShortcutAndBlocks:
    @pytest.mark.parametrize("m", range(6, 11))
    def test_line_separation_is_only_a_speed_up(self, m):
        net = EuclideanNet(np.linspace(0, 1, 2 ** m + 1), y0=2 ** (m - 1))
        assert net.min_separation == 2.0 ** -m
        want = shortcut_outcomes(without_separation(net))
        assert any(isinstance(w, KSeq) for w in want)
        assert shortcut_outcomes(net) == want

    @pytest.mark.parametrize("side", range(9, 34))
    def test_grid_separation_is_only_a_speed_up(self, side):
        net = EuclideanNet.grid_2d(side)
        assert net.min_separation == 1 / (side - 1)
        want = shortcut_outcomes(without_separation(net))
        assert any(isinstance(w, KSeq) for w in want)
        assert shortcut_outcomes(net) == want

    @settings(max_examples=60, deadline=None)
    @given(net=random_nets())
    def test_float_and_matrix_separation_is_only_a_speed_up(self, net):
        # the true minimum of the computed distances, 0 with repeated points
        n = net.n_points
        every = np.arange(n)
        off = net.dists_from(every, np.broadcast_to(every, (n, n)))[~np.eye(n, dtype=bool)]
        told, untold = copy.copy(net), copy.copy(net)
        told.min_separation = float(off.min()) if off.size else None
        untold.min_separation = None
        if isinstance(net, MatrixNet):
            assert told.min_separation == net.min_separation
        assert shortcut_outcomes(told) == shortcut_outcomes(untold)

    @settings(max_examples=100, deadline=None)
    @given(net=random_nets() | dyadic_lines().map(lambda line: line[0])
           | st.integers(2, 40).map(EuclideanNet.grid_2d),
           r=st.sampled_from([2.0 ** -k for k in range(-2, 13)] + [0.0, 0.3]))
    def test_blocks_hold_one_row_or_at_most_the_block_bound(self, net, r):
        # the bound keeps the kernel's (rows, need) picks small and lets it
        # stop after the first block holding a failing class
        every = np.arange(net.n_points)
        want = [int(net.within(c, every, r).sum()) for c in range(net.n_points)]
        for block in BLOCKINGS:
            with blocking(block):
                blocks = [sizes for _, sizes in net._balls(every, r)]
                for sizes in blocks:
                    assert len(sizes) == 1 or len(sizes) * sizes.max() <= families._BLOCK_ELEMS
                assert np.concatenate(blocks).tolist() == want


def exact_lattice_table(side, r):
    """Brute force on the grid points (i/D, j/D), D = side - 1: entry [p, q]
    says whether point q lies in the closed ball of radius r (r >= 0) about
    point p, decided by one Fraction comparison per squared distance."""
    den = side - 1
    r2 = Fraction(r) ** 2
    ok = np.array([Fraction(s, den * den) <= r2 for s in range(2 * den * den + 1)])
    row, col = np.divmod(np.arange(side * side, dtype=np.int32), side)
    return ok[(row[:, None] - row) ** 2 + (col[:, None] - col) ** 2]


def exact_greedy(table, candidates):
    """Greedy packing over the candidates in the order given."""
    alive = np.ones(len(candidates), dtype=bool)
    chosen = []
    for i, c in enumerate(candidates):
        if alive[i]:
            chosen.append(int(c))
            alive &= ~table[c, candidates]
    return chosen


class TestLatticeNet:
    @settings(max_examples=100, deadline=None)
    # non-dyadic denominators (D = 6, 10, 24), and sides where the float test
    # on linspace coordinates disagrees with the exact balls at 1/2 or 1/4
    @given(side=st.sampled_from([7, 11, 21, 25, 27, 37]) | st.integers(2, 40),
           r=st.sampled_from([2.0 ** -k for k in range(-1, 13)] + [0.0, 0.3]),
           data=st.data())
    def test_matches_exact_oracle(self, side, r, data):
        net = EuclideanNet.grid_2d(side)
        n = net.n_points
        every = np.arange(n)
        table = exact_lattice_table(side, r)
        center = data.draw(st.integers(0, n - 1))
        cand = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=60, unique=True)),
                        dtype=np.int64)
        assert np.array_equal(net.within(center, every, r), table[center])
        assert np.array_equal(net.within(every, np.broadcast_to(every, (n, n)), r), table)
        # centers that share a ball class have balls with equal index offsets
        shapes = {}
        shape = np.array([shapes.setdefault(tuple(np.flatnonzero(row) - c), len(shapes))
                          for c, row in enumerate(table)])
        keys = net._ball_classes(every, r)
        assert not ((keys[:, None] == keys) & (shape[:, None] != shape)).any()
        for block in BLOCKINGS:
            with blocking(block):
                assert np.array_equal(net.ball(center, r), np.flatnonzero(table[center]))
                assert net.greedy_packing_indices(cand, r) == exact_greedy(table, cand)
                assert net.global_packing_number(r) == len(exact_greedy(table, np.arange(n)))
                assert suggest_origin(net, r) == int(np.argmax(table.sum(axis=1)))

    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(2, 20), k=st.integers(-1, 5),
           alpha=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
           need_of=st.sampled_from([floor_pow2, families._ceil_pow2]),
           lo=st.integers(0, 4), span=st.integers(0, 6))
    def test_translated_scans_match_per_center_oracle(self, side, k, alpha, need_of,
                                                      lo, span):
        # every center's (scale, ball size, packing), up to the first center
        # with no scale, against one oracle scan per center
        net = EuclideanNet.grid_2d(side)
        r = 2.0 ** -k
        want = oracle_scans(net, r, alpha, lo, lo + span, need_of)
        for block in BLOCKINGS:
            with blocking(block):
                got = kernel_scans(net, r, alpha, lo, lo + span, need_of)
                assert got[:len(want)] == want

    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(2, 16), k=st.integers(-1, 5),
           phi=st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
           lo=st.integers(0, 4), span=st.integers(0, 6), data=st.data())
    def test_extension_packings_match_per_center_oracle(self, side, k, phi, lo, span, data):
        # the centers an extension places, in any order: each gets its class's
        # packing shifted to it, and an error names the first failing center
        net = EuclideanNet.grid_2d(side)
        centers = data.draw(st.lists(st.integers(0, net.n_points - 1), min_size=1,
                                     max_size=40, unique=True))
        args = (net, centers, 2.0 ** -k, phi, lo, lo + span, "extension at {y}")
        want = outcome(lambda: oracle_packings(*args))
        for block in BLOCKINGS:
            with blocking(block):
                assert outcome(lambda: families._packings(*args)) == want

    def test_first_failing_class_is_reported_at_its_first_center(self):
        # the corner 399 is the first center with no witness, and it opens
        # the 361st ball class
        net = EuclideanNet.grid_2d(20)
        args = ([Fraction(4, 3)], "packing", 1, 4, "linear")
        want = outcome(lambda: oracle_level_schedule(net, *args))
        assert "at point 399 (83 net points inside)" in want[1]
        for block in BLOCKINGS:
            with blocking(block):
                assert outcome(lambda: level_schedule(net, *args)) == want

    def test_first_failing_extension_center_is_reported(self):
        # centers 1 and 2 share a ball class and find a packing; 0 does not
        net = EuclideanNet.grid_2d(4)
        args = (net, [1, 2, 0], 0.5, Fraction(1), 1, 1, "extension at {y}")
        want = outcome(lambda: oracle_packings(*args))
        assert want[1].startswith("extension at 0: ")
        for block in BLOCKINGS:
            with blocking(block):
                assert outcome(lambda: families._packings(*args)) == want

    @settings(max_examples=100, deadline=None)
    @given(side=st.integers(2, 16),
           alpha=st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 3),
                                  Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
           levels=st.integers(1, 2),
           variant=st.sampled_from(["box", "packing"]),
           g_mode=st.sampled_from(["strict", "linear"]),
           j_cap=st.integers(3, 12),
           bits=st.lists(st.integers(0, 1), min_size=2, max_size=2))
    def test_schedules_and_members_match_oracles(self, side, alpha, levels, variant,
                                                 g_mode, j_cap, bits):
        # centers whose balls are translates share one scan; the oracles scan
        # every center (their float distances decide powers of two exactly here)
        net = EuclideanNet.grid_2d(side)
        alphas = [alpha] * levels
        want = outcome(lambda: oracle_level_schedule(net, alphas, variant, levels,
                                                     j_cap, g_mode))
        spec = TargetSpec.finite_set([alpha])
        branch = "".join(map(str, bits))
        if isinstance(want, KSeq):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(families, "_packings", oracle_packings)
                want_tree = outcome(lambda: family_member(
                    branch, spec, net, variant, levels, kseq=want))
        for block in BLOCKINGS:
            with blocking(block):
                got = outcome(lambda: level_schedule(net, alphas, variant, levels,
                                                     j_cap, g_mode))
                assert got == want
                if isinstance(want, KSeq):
                    tree = outcome(lambda: family_member(
                        branch, spec, net, variant, levels, kseq=got))
                    if isinstance(want_tree, tuple):
                        assert tree == want_tree
                    else:
                        assert tree.levels == want_tree.levels

    @pytest.mark.parametrize("side,radii,want", [
        (81, [2.0 ** -2, 2.0 ** -4], [21, 238]),
        (256, [2.0 ** -k for k in range(1, 7)], [8, 23, 80, 304, 1184, 4130]),
    ])
    def test_exact_packing_numbers(self, side, radii, want):
        # the float ball test on linspace coordinates gave 22 and 249 on the 81-grid
        net = EuclideanNet.grid_2d(side)
        assert [net.global_packing_number(r) for r in radii] == want

    def test_points_are_correctly_rounded(self):
        net = EuclideanNet.grid_2d(81)
        assert isinstance(net, families.LatticeNet)
        assert net.points[:81, 1].tolist() == [float(Fraction(j, 80)) for j in range(81)]
        assert net.points[::81, 0].tolist() == net.points[:81, 1].tolist()

    def test_threshold_is_clamped_at_the_largest_side(self):
        # side 1448 is the largest grid under the point limit; its net is not built
        den = 1447
        cap = 2 * den * den + 1
        assert families._lattice_threshold(2.0 ** 10, den) == cap
        assert families._lattice_threshold(1.0, den) == den * den
        assert families._lattice_threshold(2.0 ** -1100, den) == 0
        assert families._stencil(cap, den) == (den,) * (den + 1)
        widths = families._stencil(den * den, den)
        assert len(widths) == den + 1 and widths[0] == den and widths[-1] == 0
        assert families._stencil(0, den) == (0,)
        assert cap < np.iinfo(np.int64).max

    def test_dyadic_lines_are_lattice_nets(self):
        for m in range(1, 22):
            pts = np.linspace(0.0, 1.0, 2 ** m + 1)
            net = EuclideanNet(pts, y0=2 ** m, min_separation=2.0 ** -m)
            assert isinstance(net, families.LatticeNet) and isinstance(net, EuclideanNet)
            assert (net.d, net.den, net.y0, net.min_separation) == (1, 2 ** m, 2 ** m, 2.0 ** -m)
            assert np.shares_memory(net.points, pts)

    @pytest.mark.parametrize("points", [
        np.linspace(0.0, 1.0, 11),
        np.arange(11) / 10,                                    # D = 10, not a power of two
        np.linspace(0.0, 1.0, 17)[::-1],                       # reversed
        np.random.default_rng(0).permutation(np.linspace(0.0, 1.0, 17)),
        np.linspace(0.0, 1.0, 17)[[0, 1, 1, *range(3, 17)]],   # a repeated point
        np.linspace(0.0, 1.0, 17)[[*range(16), 15, 16]],       # one point twice, D = 17
        np.stack([np.linspace(0.0, 1.0, 17)] * 2, axis=1),     # 2-D points
        np.stack([np.linspace(0.0, 1.0, 17), np.zeros(17)], axis=1),
        [0.0],
    ], ids=["linspace-11", "tenths", "reversed", "shuffled", "repeated", "repeated-extra",
            "2d-diagonal", "2d-axis", "one-point"])
    def test_other_point_sets_stay_float_nets(self, points):
        assert type(EuclideanNet(points)) is EuclideanNet

    def test_lattice_net_refuses_other_points(self):
        with pytest.raises(ValueError, match="full grid"):
            families.LatticeNet(np.linspace(0.0, 1.0, 17)[::-1])
        with pytest.raises(ValueError, match="full grid"):
            families.LatticeNet(np.zeros((8, 3)))

    @pytest.mark.parametrize("claim", [1.0, float(np.nextafter(2.0 ** -4, 1)), math.inf, math.nan])
    def test_a_separation_past_the_spacing_is_refused(self, claim):
        # 17 points i/16 lie 1/16 apart: a larger claim would let the greedy
        # packing at 1/2 take all 17 where 2 fit
        with pytest.raises(ValueError, match=r"^min_separation \S+ exceeds the lattice "
                                             r"spacing 1/16$"):
            EuclideanNet(np.linspace(0, 1, 17), min_separation=claim)

    def test_true_separations_are_accepted(self):
        for m in range(1, 22):  # the claim 2^-m the benchmark's lines make
            net = EuclideanNet(np.linspace(0.0, 1.0, 2 ** m + 1), min_separation=2.0 ** -m)
            assert net.min_separation == 2.0 ** -m
        # a smaller claim is dropped: the net keeps its own spacing
        assert EuclideanNet(np.linspace(0, 1, 17), min_separation=0.05).min_separation == 1 / 16
        # a grid's separation is 1/D in floats, above the exact 1/D for D = 10
        assert Fraction(1 / 10) > Fraction(1, 10)
        for side in range(2, 100):
            assert EuclideanNet.grid_2d(side).min_separation == 1 / (side - 1)

    def test_a_line_derives_its_spacing_however_built(self, tmp_path):
        assert EuclideanNet(np.linspace(0, 1, 17)).min_separation == 1 / 16
        path = tmp_path / "line.csv"
        path.write_text("".join(f"{i / 16!r}\n" for i in range(17)))
        assert EuclideanNet.from_csv(str(path)).min_separation == 1 / 16
        assert dims._view([(i / 16,) for i in range(17)], None).min_separation == 1 / 16

    def test_dyadic_line_from_csv_is_a_lattice_net(self, tmp_path):
        path = tmp_path / "line.csv"
        path.write_text("".join(f"{i / 64!r}\n" for i in range(65)))
        net = EuclideanNet.from_csv(str(path), y0=5)
        assert isinstance(net, families.LatticeNet) and (net.den, net.y0) == (64, 5)

    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_line_distances_are_bit_identical(self, m):
        pts = np.linspace(0.0, 1.0, 2 ** m + 1)
        net, twin = EuclideanNet(pts), FloatNet(pts)
        every = np.arange(net.n_points)
        grid = np.broadcast_to(every, (net.n_points, net.n_points))
        assert net.dists_from(every, grid).tobytes() == twin.dists_from(every, grid).tobytes()
        assert [net.dist(0, j) for j in every] == [twin.dist(0, j) for j in every]

    @pytest.mark.parametrize("r,inside", [(2.0 ** 1023, True), (math.inf, True),
                                          (-0.5, False), (math.nan, False)])
    def test_extreme_radii(self, r, inside):
        net = EuclideanNet.grid_2d(9)
        every = np.arange(net.n_points)
        assert net.within(0, every, r).all() == inside
        assert net.within(0, every, r).any() == inside
        assert net.global_packing_number(r) == (1 if inside else net.n_points)


class TestExactPowers:
    def test_floor_pow2_small(self):
        assert floor_pow2(Fraction(1, 2), 10) == 32
        assert floor_pow2(Fraction(1, 2), 11) == 45  # floor(2^5.5)
        assert floor_pow2(Fraction(0), 7) == 1
        assert floor_pow2(Fraction(2, 3), 5) == 10  # floor(2^(10/3)) = floor(10.07)

    def test_floor_pow2_is_exact_root(self):
        # r = floor(2^(p/q)) iff r^q <= 2^p < (r+1)^q
        for num in range(0, 9):
            for den in range(1, 7):
                for ell in range(1, 30):
                    e = Fraction(num, den) * ell
                    r = floor_pow2(Fraction(num, den), ell)
                    assert r ** e.denominator <= 2 ** e.numerator
                    assert (r + 1) ** e.denominator > 2 ** e.numerator
        assert floor_pow2(Fraction(1, 2), 1024) == 2 ** 512

    # results below 2^61, past 2^53, and (for small q, where mid^q stays cheap) past 2^1024
    @given(q_whole=st.one_of(
        st.tuples(st.integers(1, 12) | st.sampled_from([1009, 3001]),
                  st.integers(0, 60) | st.integers(53, 60)),
        st.tuples(st.integers(1, 12), st.integers(1024, 1100))), data=st.data())
    @example(q_whole=(3001, 52), data=None)  # floor_pow2(53 - 1/3001, 1)
    @settings(max_examples=150, deadline=None)
    def test_floor_pow2_matches_bisection(self, q_whole, data):
        q, whole = q_whole
        r = q - 1 if data is None else data.draw(st.integers(0, q - 1))
        p = whole * q + r
        want = bisection(lambda c: c ** q <= 1 << p, whole)
        assert floor_with_steps(Fraction(p, q), 1) == want

    @pytest.mark.parametrize("q", [10 ** 11 + 3, 10 ** 300], ids=["q=1e11+3", "q=1e300"])
    @pytest.mark.parametrize("whole", [0, 1, 52, 53, 60])
    def test_floor_pow2_huge_denominator_matches_bisection(self, q, whole):
        for r in (1, 2, q // 3, q // 2 + 1, q - 2, q - 1):
            p = whole * q + r
            want = bisection(lambda c: decimal_at_most(c, p, q), whole)
            assert floor_with_steps(Fraction(p, q), 1) == want, (whole, r)

    @pytest.mark.parametrize("q", [2, 3, 7, 1009, 10 ** 11 + 3, 10 ** 300],
                             ids=["2", "3", "7", "1009", "1e11+3", "1e300"])
    def test_floor_pow2_past_2_to_the_1024(self, q):
        # a result of 1,101 bits, checked against its neighbours by integer
        # powers, or by the logarithms of the huge-q oracle
        for r in {1, q // 2, q - 1}:
            p = 1100 * q + r
            t = floor_with_steps(Fraction(p, q), 1)
            assert t.bit_length() == 1101
            if q <= 1009:
                assert t ** q <= 1 << p < (t + 1) ** q
            else:
                assert decimal_at_most(t, p, q) and not decimal_at_most(t + 1, p, q)

    @settings(max_examples=300, deadline=None)
    @given(c=st.integers(0, 2 ** 62 - 1), q=st.integers(1, 3001),
           offset=st.integers(-2, 2), data=st.data())
    def test_comparison_matches_integer_powers(self, c, q, offset, data):
        # p next to q*log2(c), so the float filter's band and the decimal
        # logarithms behind it are reached, and near the floor of 2^(p/q)
        p = max(int(q * math.log2(max(c, 1))) + offset, 0)
        near = floor_pow2(Fraction(p, q), 1) + data.draw(st.integers(-2, 2))
        for x in (c, max(near, 0)):
            assert families._at_most_pow2(x, p, q) == (x ** q <= 1 << p), (x, p, q)

    def test_floor_pow2_large_denominator_is_quick(self):
        # Newton's iteration started at twice the root took seconds here
        start = time.perf_counter()
        r = floor_pow2(53 - Fraction(1, 3001), 1)
        assert time.perf_counter() - start < 1
        assert r ** 3001 <= 2 ** (53 * 3001 - 1) < (r + 1) ** 3001

    def test_count_reaches(self):
        assert count_reaches_pow2(32, Fraction(1, 2), 10)
        assert not count_reaches_pow2(31, Fraction(1, 2), 10)
        assert count_reaches_pow2(46, Fraction(1, 2), 11)
        assert not count_reaches_pow2(45, Fraction(1, 2), 11)


class TestNets:
    def test_grid_ball_and_packing(self):
        net = EuclideanNet.grid_2d(17)
        ball = net.ball(net.y0, 0.25)
        assert len(ball) > 20
        packed = net.greedy_packing_indices(ball, 0.24)
        for i, j in itertools.combinations(packed, 2):
            assert net.dist(i, j) > 0.24

    def test_global_packing_saturates(self):
        net = EuclideanNet.grid_2d(9)
        assert net.global_packing_number(2.0 ** -20) == net.n_points

    def test_matrix_net_validation(self):
        good = np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])
        MatrixNet(good)
        bad = np.array([[0.0, 5, 1], [5, 0, 1], [1, 1, 0]])
        with pytest.raises(ValueError):
            MatrixNet(bad)

    def test_distances_of_tiny_coordinates_stay_a_metric(self):
        # the squared gaps underflow, so sqrt(sum(diff^2)) puts points 0 and 1
        # at distance 0 and d(0, 2) past d(1, 2); the matrix of random_nets
        # scales each pair's gaps first
        pts = np.array([[0.0, 9e-165], [1e-163, 1e-163], [1e-161, 1e-160]])
        diff = pts[:, None, :] - pts[None, :, :]
        with pytest.raises(ValueError, match="triangle inequality fails"):
            MatrixNet(np.sqrt((diff * diff).sum(axis=-1)))
        net = MatrixNet(distance_matrix(pts))
        for i, j in itertools.combinations(range(3), 2):
            assert net.dist(i, j) == pytest.approx(math.hypot(*(pts[i] - pts[j])), rel=1e-15)

    def test_subnormal_gaps_break_the_matrix_that_random_nets_builds(self):
        # a subnormal distance keeps a few bits: sqrt(2)*a rounds to a, 2*sqrt(2)*a
        # to 3a, past d(0, 1) + d(1, 2) = 2a; random_nets takes such points as 0
        a = 5e-324
        pts = np.array([[0.0, 0.0], [a, a], [2 * a, 2 * a]])
        with pytest.raises(ValueError, match=r"triangle inequality fails on \(0,1,2\)"):
            MatrixNet(distance_matrix(pts))
        assert not normal_gaps(pts).any()

    def test_a_float_net_takes_no_separation_claim(self):
        # nothing checks a float net's claim, so it takes none: this false one
        # would let the packing at 0.5 take all four points
        with pytest.raises(TypeError, match="min_separation"):
            EuclideanNet([0.0, 0.3, 0.1, 0.2], min_separation=1.0)
        net = EuclideanNet([0.0, 0.3, 0.1, 0.2])
        assert net.min_separation is None
        assert net.greedy_packing_indices(np.arange(4), 0.5) == [0]
        assert net.global_packing_number(0.5) == 1
        # a matrix net derives its least distance
        assert MatrixNet([[0.0, 0.3, 0.1], [0.3, 0.0, 0.2], [0.1, 0.2, 0.0]]).min_separation == 0.1

    def test_underflowing_gaps_count_as_distance_zero(self):
        # the squared gap 1e-340 underflows, so points 0 and 1 are 0 apart for
        # every query, the ball scan and the greedy packing alike
        net = EuclideanNet([[0.0, 0.0], [1e-170, 0.0], [0.5, 0.0]])
        assert net.ball(0, 0.0).tolist() == [0, 1]
        assert net.greedy_packing_indices([1, 0, 2, 1], 0.0) == [1, 2]
        assert net.global_packing_number(0.0) == 2

    def test_matrix_net_symmetry_is_exact(self):
        with pytest.raises(ValueError, match="symmetric"):
            MatrixNet([[0.0, 1.0], [1.0 + 1e-9, 0.0]])

    def test_matrix_net_checks_every_triple(self):
        # one broken pair among 40 points, d(0, 39/40) = 5; random triples missed it
        pts = [(i / 40,) for i in range(40)]

        def dist(p, q):
            return 5.0 if {p, q} == {pts[0], pts[39]} else abs(p[0] - q[0])
        with pytest.raises(ValueError, match="triangle inequality"):
            exact_packing_number(pts, 0.5, dist)
        dm = np.abs(np.subtract.outer(np.arange(40.0), np.arange(40.0)))
        dm[3, 17] = dm[17, 3] = dm[3, 17] + 2.5
        with pytest.raises(ValueError, match="triangle inequality"):
            MatrixNet(dm)

    def test_matrix_net_triangle_slack_is_a_few_ulps(self):
        # distances on a line, computed in floats, break the triangle inequality by
        # rounding alone; a relative excess of 1e-9 is a real break
        x = np.random.default_rng(5).random(60) * 1e6
        MatrixNet(np.abs(np.subtract.outer(x, x)))
        pts = np.random.default_rng(6).random(60)[:, None] * [0.6, 0.8]
        MatrixNet(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)))
        dm = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]) * 1e6
        dm[0, 2] = dm[2, 0] = 2e6 * (1 + 1e-9)
        with pytest.raises(ValueError, match="triangle inequality"):
            MatrixNet(dm)

    def test_matrix_net_size_refused_before_check(self):
        n = families._MAX_MATRIX_POINTS + 1
        with pytest.raises(ResourceLimitError, match="over the limit"):
            MatrixNet(np.zeros((n, n)))

    @pytest.mark.parametrize("make", [
        lambda: EuclideanNet(np.zeros((0, 2))),
        lambda: EuclideanNet([[0.0, 0.0], [np.nan, 1.0]]),
        lambda: EuclideanNet([[0.0, 0.0], [np.inf, 1.0]]),
        lambda: EuclideanNet(np.zeros((2, 2, 2))),
        lambda: EuclideanNet([[0.0, 0.0], [1.0, 1.0]], y0=5),
        lambda: EuclideanNet([[0.0, 0.0], [1.0, 1.0]], y0=-1),
        lambda: MatrixNet(np.zeros((0, 0))),
        lambda: MatrixNet([[0.0, np.inf], [np.inf, 0.0]]),
        lambda: MatrixNet([[0.0, 1.0], [1.0, 0.0]], y0=2),
    ], ids=["empty", "nan", "inf", "3-d", "y0-5", "y0-neg", "matrix-empty",
            "matrix-inf", "matrix-y0"])
    def test_malformed_nets_rejected_where_built(self, make):
        with pytest.raises(ValueError) as err:
            make()
        assert "\n" not in str(err.value)

    def test_non_finite_csv_rejected(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("0.0,0.0\nnan,1.0\n")
        with pytest.raises(ValueError, match="finite"):
            EuclideanNet.from_csv(str(path))

    def test_chosen_point_always_retired(self):
        # a point whose distance to itself is NaN (no longer constructible,
        # so planted after validation) is packed once instead of forever
        net = EuclideanNet([[0.0, 0.0], [0.0, 1.0]])
        net.points[1, 1] = np.nan
        assert net.greedy_packing_indices(np.array([0, 1]), 0.5) == [0, 1]
        assert net._greedy_rows(np.array([[0, 1]]), np.array([2]), 0.5, 5)[1].tolist() == [2]

    @pytest.mark.parametrize("delta", [0.1, 0.3])
    def test_repeated_candidates_pack_once(self, delta):
        # 0.1 is below the grid's separation (0.25), 0.3 above it
        net = EuclideanNet.grid_2d(5)
        assert net.greedy_packing_indices(np.array([3, 3, 7]), delta) == [3, 7]

    def test_separation_error_names_the_pair_distance(self):
        # centers 0 and 1 are the first pair closer than 0.5 (0.3 apart); the
        # row's nearest point, 2, is only 0.1 from center 0
        net = EuclideanNet([0.0, 0.3, 0.1])
        with pytest.raises(families.InvariantViolation) as err:
            families._check_separation(net, [0, 1, 2], 0.5, "test")
        assert str(err.value) == "test: centers 0 and 1 are 0.3 apart, need > 0.5"

    @pytest.mark.parametrize("block", BLOCKINGS)
    def test_separation_error_names_the_first_pair_by_row(self, block):
        # on the line i/16, (12, 13) is the first close pair by column, but
        # (8, 9) comes first by row, as center by center
        net = EuclideanNet(np.linspace(0.0, 1.0, 17))
        with blocking(block), pytest.raises(families.InvariantViolation) as err:
            families._check_separation(net, [0, 8, 12, 13, 9, 16], 0.07, "level 2")
        assert str(err.value) == "level 2: centers 8 and 9 are 0.0625 apart, need > 0.07"

    @settings(max_examples=100, deadline=None)
    @given(net=random_nets(), data=st.data(),
           threshold=st.sampled_from([0.0, 2.0 ** -6, 0.1, 0.3, 1.0]),
           block=st.sampled_from(BLOCKINGS + [5]))
    def test_separation_check_matches_center_by_center(self, net, data, threshold, block):
        centers = data.draw(st.lists(st.integers(0, net.n_points - 1), max_size=12))
        want = None
        for i, c in enumerate(centers[:-1]):  # the first later center within threshold
            close = np.flatnonzero(net.within(c, np.array(centers[i + 1:]), threshold))
            if close.size:
                j = i + 1 + int(close[0])
                want = (f"x: centers {c} and {centers[j]} are "
                        f"{net.dist(c, centers[j])} apart, need > {threshold}")
                break
        with blocking(block):
            got = outcome(lambda: families._check_separation(net, centers, threshold, "x"))
        assert got == (None if want is None else (families.InvariantViolation, want, None))

    def test_grid_point_limit_allocates_nothing(self):
        side = 1449  # 1449^2 = 2,099,601 > 2^21 points
        assert side * side > families._MAX_POINTS >= 1448 * 1448
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="over the limit"):
                EuclideanNet.grid_2d(side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_cli_grid_over_limit_exits_3(self, tmp_path, capsys):
        rc = main(["family", "--net", "grid:1449", "--target", "finite:1/2",
                   "--out", str(tmp_path / "f.json")])
        err = capsys.readouterr().err
        assert rc == 3 and err.count("\n") == 1 and "over the limit" in err
        assert not (tmp_path / "f.json").exists()

    def test_suggest_origin_prefers_density(self):
        pts = np.concatenate([np.linspace(0, 0.05, 20), np.array([0.9])])
        net = EuclideanNet(pts)
        assert suggest_origin(net, radius=0.1) < 20


class TestLevelSchedule:
    def test_grid_packing_counts_support_three_halves(self):
        # whole-grid packing counts grow like 2^(2j), which dominates 2^(1.5j)
        net = EuclideanNet.grid_2d(65)
        for j in range(1, 6):
            assert count_reaches_pow2(
                net.global_packing_number(2.0 ** -j), Fraction(3, 2), j)

    def test_full_grid_one_level_strict(self):
        net = EuclideanNet.grid_2d(257)
        ks = level_schedule(net, [Fraction(1, 2)], "box", 1)
        assert ks.levels == 1
        assert ks.ks[0] == 0 and ks.ks[1] == ks.witnesses[0] + 3
        assert ks.g_values[0] >= 1

    def test_full_grid_exhausts_deeper_strict(self):
        # the level function feeds the global packing number into the next
        # radius exponent, so a flat grid cannot certify level 2: the witness
        # ball there has radius 2^-P(K), far below net resolution
        net = EuclideanNet.grid_2d(257)
        with pytest.raises(ResolutionExhausted) as err:
            level_schedule(net, [Fraction(1, 2)] * 3, "box", 3)
        assert err.value.level == 2

    @pytest.mark.parametrize("levels", [-1, -3])
    def test_negative_levels_are_refused(self, levels):
        net, spec = grid_1d(6), TargetSpec.finite_set([Fraction(1, 2)])
        ks = level_schedule(net, [Fraction(1, 2)], "box", 1, g_mode="linear")
        for call in (lambda: level_schedule(net, [Fraction(1, 2)], "box", levels=levels),
                     lambda: family_member("010", spec, net, "box", levels),
                     lambda: family_member("010", spec, net, "box", levels, kseq=ks)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"levels must be >= 0, got {levels}"
        # no levels stays valid: the empty schedule and the root-only member
        assert level_schedule(net, [Fraction(1, 2)], "box", levels=0).ks == (0,)
        assert family_member("", spec, net, "box", 0).levels == root_tree(
            net, level_schedule(net, [], "box")).levels

    def test_single_point_fails_immediately(self):
        net = EuclideanNet(np.array([[0.3, 0.3]]))
        with pytest.raises(ResolutionExhausted) as err:
            level_schedule(net, [Fraction(1, 2)], "box", 1)
        assert err.value.level == 1

    def test_single_point_zero_exponent_passes(self):
        net = EuclideanNet(np.array([[0.3, 0.3]]))
        ks = level_schedule(net, [Fraction(0)], "box", 1)
        assert ks.levels == 1

    def test_product_net_distinguishes_exponents(self):
        x = factor(beatty_balanced(Fraction(1, 2)), 0, 8)
        sq = product(kx_set(x), kx_set(x))
        pts = np.array(sorted(sq.leaves), dtype=float) / 2 ** 8
        net = EuclideanNet(pts, y0=0)
        level_schedule(net, [Fraction(1)], "box", 1)  # admits a witness
        with pytest.raises(ResolutionExhausted):
            level_schedule(net, [Fraction(19, 10)], "box", 1)

    def test_telescope_supports_many_levels_linear(self):
        net = telescope_net(4)
        ks = level_schedule(net, [Fraction(1, 8)] * 4, "box", 4, g_mode="linear")
        assert ks.levels == 4
        assert all(ks.ks[i] < ks.ks[i + 1] for i in range(4))
        for n in range(4):
            assert ks.g_values[n] <= ks.witnesses[n] <= ks.ks[n + 1] - 3


class TestExtensions:
    def _tree(self, levels=2, alpha=Fraction(1, 8)):
        net = telescope_net(levels, alpha)
        ks = level_schedule(net, [alpha] * levels, "box", levels, g_mode="linear")
        return net, ks

    def test_zero_value_adds_nothing(self):
        net, ks = self._tree()
        tree = root_tree(net, ks)
        ext = extend(tree, 0, Fraction(0))
        assert ext.m == tree.m  # packing size floor(2^0) = 1, only the origin

    def test_exact_growth(self):
        net, ks = self._tree()
        tree = root_tree(net, ks)
        ext = extend(tree, 1, Fraction(1, 8))
        want = floor_pow2(Fraction(1, 8), ext.levels[-1].records[0].ell)
        assert ext.m == tree.m + want - 1

    def test_box_bookkeeping_identity(self):
        net, ks = self._tree(3)
        tree = root_tree(net, ks)
        for bit in (0, 1, 0):
            before = tree.m
            tree = extend(tree, bit, Fraction(1, 8))
            t_size = len(tree.levels[-1].records[0].selected)
            assert tree.m == before + t_size - 1

    def test_packing_single_ball_reduction(self):
        net = grid_1d(10)
        ks = level_schedule(net, [Fraction(1, 8)] * 2, "packing", 2, g_mode="linear")
        tree = root_tree(net, ks)
        assert tree.m == 1
        ext = extend(tree, 0, Fraction(1, 8))
        want = floor_pow2(Fraction(1, 8), ext.levels[-1].records[0].ell)
        assert ext.m == want

    def test_packing_total_is_sum(self):
        net = grid_1d(10)
        ks = level_schedule(net, [Fraction(1, 8)] * 2, "packing", 2, g_mode="linear")
        tree = root_tree(net, ks)
        tree = extend(tree, 1, Fraction(1, 8))
        tree = extend(tree, 0, Fraction(1, 8))
        total = sum(len(r.selected) for r in tree.levels[-1].records)
        assert tree.m == total

    def test_member_deterministic(self):
        net, ks = self._tree(3)
        spec = TargetSpec.finite_set([Fraction(1, 8)])
        a = family_member("010", spec, net, "box", 3, kseq=ks)
        b = family_member("010", spec, net, "box", 3, kseq=ks)
        assert a.centers == b.centers


    @pytest.mark.parametrize("schedule,member", [("box", "packing"), ("packing", "box")])
    def test_member_refuses_other_variants_schedule(self, schedule, member):
        # the variants' schedules leave different gaps (3 and 2) below k_{n+1}
        net = grid_1d(8)
        ks = level_schedule(net, [Fraction(1, 4)] * 2, schedule, 2, g_mode="linear")
        spec = TargetSpec.finite_set([Fraction(1, 4)])
        with pytest.raises(ValueError, match=f"a {member} member needs a {member} "
                                             f"schedule, got a {schedule} schedule"):
            family_member("01", spec, net, member, 2, kseq=ks)


REPORT_FLAGS = ("cardinalities_exact", "separations_ok", "nested", "origin_anchored",
                "upper_chain_ok", "count_bound_ok", "local_richness_ok")


@functools.cache
def green_members():
    """A two-level packing member on the dyadic line i/2^12, whose level 2
    holds the 64 points of one record at scale 12, and the three-level box
    member of the telescope net."""
    line = EuclideanNet(np.linspace(0, 1, 2 ** 12 + 1))
    packing = family_member("11", TargetSpec.finite_set([Fraction(1, 2)]), line, "packing", 2,
                            g_mode="linear")
    net = telescope_net(3)
    ks = level_schedule(net, [Fraction(1, 8)] * 3, "box", 3, g_mode="linear")
    box = family_member("101", TargetSpec.finite_set([Fraction(1, 8)]), net, "box", 3, kseq=ks)
    return packing, box


def with_level(tree, n, **changes):
    lvl = dataclasses.replace(tree.levels[n], **changes)
    return dataclasses.replace(tree, levels=tree.levels[:n] + (lvl,) + tree.levels[n + 1:])


def with_record(tree, **changes):
    """The tree with the first record of its deepest level changed."""
    n = len(tree.levels) - 1
    return with_level(tree, n, records=(dataclasses.replace(tree.levels[n].records[0], **changes),))


def last_selected(tree):
    return tree.levels[-1].records[0].selected


# one corruption of a green member per report flag: the flag, the start of
# its note (None for the two flags that record none) and the broken tree
CORRUPTIONS = [
    ("cardinalities_exact", "level 2: packing size 63 != 64",
     lambda p, b: with_record(p, selected=last_selected(p)[:-1])),
    ("separations_ok", "record at level 2: centers 0 and 1 are",
     lambda p, b: with_record(p, selected=(0, 1) + last_selected(p)[2:])),
    ("nested", "center 4096 at level 2 escapes every parent ball",
     lambda p, b: with_level(p, 2, centers=p.levels[2].centers[:-1] + (4096,))),
    ("origin_anchored", None,
     lambda p, b: with_level(b, 3, centers=b.levels[3].centers[1:])),
    ("upper_chain_ok", "level 2: N_12(C) ~ 64 exceeds l + 2^(phi*l)",
     lambda p, b: with_record(p, phi=Fraction(0), selected=last_selected(p)[:1])),
    ("count_bound_ok", None,
     lambda p, b: with_level(p, 0, centers=(0, 4096))),
    ("local_richness_ok", "level 2: packing leaks its parent ball",
     lambda p, b: with_record(p, parent_center=4096)),
]


def nesting_notes_center_by_center(tree):
    """The report's nesting notes, one ``within`` call per center."""
    notes = []
    for prev, cur in zip(tree.levels, tree.levels[1:]):
        radius = Fraction(1, 1 << prev.k) - Fraction(1, 1 << cur.k)
        parents = np.array(prev.centers, dtype=np.int64)
        notes += [f"center {y} at level {cur.n} escapes every parent ball"
                  for y in cur.centers if not tree.view.within(y, parents, radius).any()]
    return notes


class TestFamilyProperties:
    @pytest.mark.parametrize("block", BLOCKINGS + [5])
    def test_nesting_matches_center_by_center(self, block):
        # on the line i/4096, level 2 must lie within 2^-4 - 2^-14 of center 0
        packing, box = green_members()
        cur = packing.levels[2].centers
        trees = [packing, box,
                 with_level(packing, 2, centers=cur[:3] + (4096,) + cur[3:-2] + (300, 255)),
                 with_level(packing, 1, centers=(4096,)),
                 with_level(packing, 1, centers=(4096, 0))]  # level 2 in one of two balls
        got = []
        for tree in trees:
            want = nesting_notes_center_by_center(tree)
            with blocking(block):
                rep = family_dim_report(tree)
            assert [note for note in rep.details if "escapes" in note] == want
            assert rep.nested == (not want)
            got.append(len(want))
        assert got == [0, 0, 2, 65, 1]

    def test_report_all_green_box(self):
        net = telescope_net(3)
        ks = level_schedule(net, [Fraction(1, 8)] * 3, "box", 3, g_mode="linear")
        spec = TargetSpec.finite_set([Fraction(1, 8)])
        tree = family_member("101", spec, net, "box", 3, kseq=ks)
        rep = family_dim_report(tree)
        assert rep.cardinalities_exact
        assert rep.separations_ok
        assert rep.nested
        assert rep.origin_anchored
        assert rep.upper_chain_ok
        assert rep.local_richness_ok
        assert rep.g_mode == "linear"

    def test_report_all_green_packing(self):
        net = grid_1d(10)
        ks = level_schedule(net, [Fraction(1, 8)] * 2, "packing", 2, g_mode="linear")
        spec = TargetSpec.finite_set([Fraction(1, 8)])
        tree = family_member("01", spec, net, "packing", 2, kseq=ks)
        rep = family_dim_report(tree)
        assert rep.cardinalities_exact and rep.separations_ok and rep.nested
        assert rep.local_richness_ok

    @pytest.mark.parametrize("flag,note,corrupt", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
    def test_broken_tree_turns_its_flag_false(self, flag, note, corrupt):
        assert all(getattr(family_dim_report(t), f) for t in green_members() for f in REPORT_FLAGS)
        rep = family_dim_report(corrupt(*green_members()))
        assert [f for f in REPORT_FLAGS if not getattr(rep, f)] == [flag]
        if note is None:
            assert rep.details == ()
        else:
            assert len(rep.details) == 1 and rep.details[0].startswith(note)

    @pytest.mark.parametrize("make", [EuclideanNet, FloatNet,
                                      lambda x: MatrixNet(abs(x[:, None] - x))])
    def test_nesting_radius_is_exact_past_53_exponents(self, make):
        # a child ball of radius 2^-60 nests in its parent's of radius 1/2
        # within 1/2 - 2^-60, which a float subtraction rounds to 1/2
        net = make(np.linspace(0, 1, 9))
        ks = KSeq("packing", (Fraction(0),), (1, 60), (2,), (2,), "linear")
        for child, nested in ((4, False), (3, True)):
            levels = (BallLevel(0, 1, (0,), ()), BallLevel(1, 60, (child,), ()))
            tree = dataclasses.replace(root_tree(net, ks), prefix="0", levels=levels)
            rep = family_dim_report(tree)
            assert rep.nested is nested
            assert rep.details == (() if nested else
                                   (f"center {child} at level 1 escapes every parent ball",))

    def test_continuity_modulus_exhaustive_depth3(self):
        levels = 3
        net = telescope_net(levels)
        ks = level_schedule(net, [Fraction(1, 8)] * levels, "box", levels,
                            g_mode="linear")
        spec = TargetSpec.finite_set([Fraction(0), Fraction(1, 8)])
        vm = VarphiMap(spec)
        members = {}
        for bits in itertools.product("01", repeat=levels):
            s = "".join(bits)
            members[s] = family_member(s, spec, net, "box", levels,
                                       kseq=ks, varphi=vm)
        for sx, sy in itertools.combinations(members, 2):
            n = next(i for i in range(levels) if sx[i] != sy[i])
            if n == 0:
                continue
            cx = members[sx].view.points[np.array(members[sx].centers)][:, 0]
            cy = members[sy].view.points[np.array(members[sy].centers)][:, 0]
            assert point_hausdorff(cx, cy) <= 2.0 ** (1 - ks.ks[n])

    def test_nestedness_as_ball_unions(self):
        net = telescope_net(3)
        ks = level_schedule(net, [Fraction(1, 8)] * 3, "box", 3, g_mode="linear")
        spec = TargetSpec.finite_set([Fraction(1, 8)])
        tree = family_member("110", spec, net, "box", 3, kseq=ks)
        for prev, cur in zip(tree.levels, tree.levels[1:]):
            r_prev, r_cur = 2.0 ** -prev.k, 2.0 ** -cur.k
            for y in cur.centers:
                d = net.dists_from(y, np.array(prev.centers))
                assert (d + r_cur <= r_prev + 1e-12).any()


class TestAssembly:
    def test_empty(self):
        net = telescope_net(1)
        asm = packing_family_assembly(None, net, Fraction(1, 2))
        assert asm.kind == "empty"

    def test_top_singleton_is_whole_space(self):
        net = telescope_net(1)
        target = TargetSpec.finite_set([Fraction(1, 2)])
        asm = packing_family_assembly(target, net, Fraction(1, 2))
        assert asm.kind == "whole" and asm.includes_whole

    def test_layered_two_values(self):
        net = telescope_net(2)
        target = TargetSpec.finite_set([Fraction(1, 8), Fraction(1, 2)])
        asm = packing_family_assembly(target, net, Fraction(1, 2), stages=3)
        assert asm.kind == "layered"
        assert asm.beta0 == Fraction(1, 8)
        assert len(asm.stage_targets) == 3
        assert asm.stage_targets[0].b <= asm.stage_targets[-1].b
        assert asm.includes_whole

    def test_layered_clips_interval_targets(self):
        # beta_0 = 1/4 and dim_top = 1: the stage bounds 1 - (3/4)/2^n are
        # 1/4, 5/8 and 13/16; each stage keeps the intervals starting at or
        # below its bound, cut off there
        net = telescope_net(1)
        target = TargetSpec.interval_union([(Fraction(1, 4), Fraction(1, 2)),
                                            (Fraction(3, 4), Fraction(1))])
        asm = packing_family_assembly(target, net, Fraction(1), stages=3)
        assert asm.kind == "layered" and asm.beta0 == Fraction(1, 4)
        assert [t.intervals for t in asm.stage_targets] == [
            ((Fraction(1, 4), Fraction(1, 4)),),
            ((Fraction(1, 4), Fraction(1, 2)),),
            ((Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), Fraction(13, 16))),
        ]

    def test_layered_validates_k0_anchor(self):
        net = telescope_net(2)
        ks = level_schedule(net, [Fraction(1, 8)] * 2, "box", 2, g_mode="linear")
        spec = TargetSpec.finite_set([Fraction(1, 8)])
        k0 = family_member("00", spec, net, "box", 2, kseq=ks)
        target = TargetSpec.finite_set([Fraction(1, 8), Fraction(1, 2)])
        asm = packing_family_assembly(target, net, Fraction(1, 2), k0_member=k0)
        assert asm.k0_member is k0

    def test_bad_target_above_top(self):
        net = telescope_net(1)
        target = TargetSpec.finite_set([Fraction(3, 4)])
        with pytest.raises(ValueError):
            packing_family_assembly(target, net, Fraction(1, 2))


class TestNetFiles:
    def test_euclidean_csv_roundtrip(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("0.0,0.0\n0.5,0.0\n0.0,0.5\n")
        net = EuclideanNet.from_csv(str(path))
        assert net.n_points == 3
        assert net.dist(0, 1) == 0.5

    def test_matrix_csv_roundtrip(self, tmp_path):
        path = tmp_path / "dm.csv"
        path.write_text("0,1,1\n1,0,1\n1,1,0\n")
        net = MatrixNet.from_csv(str(path))
        assert net.n_points == 3 and net.dist(0, 2) == 1.0


# sha256 of `family --net grid:<side> --target finite:1/2 --variant <v>
# --depth 1 --branch 1 --out family.json`, recorded before the batched net
# kernel replaced the per-center loops
PINNED_FAMILY_SHA256 = {
    (33, "box"): "841a2b326e29b970518e2514e0b57e418adbdf53bfef359021a0f7a79d9294e6",
    (33, "packing"): "c5dd8879b545471d41d849c15ab5251b349113c0b96d9b565052bdc186f19934",
    (65, "box"): "068f1c3396353b949f4c43ea743df890d050a04f502f33e17c28c23c825972ae",
    (65, "packing"): "3b09c40fd7d46a04ec377a685486920ede3b5292c409e2a8a71a2582b179e022",
}


@pytest.mark.parametrize("side,variant", sorted(PINNED_FAMILY_SHA256))
def test_family_artifacts_unchanged(side, variant, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["family", "--net", f"grid:{side}", "--target", "finite:1/2",
               "--variant", variant, "--depth", "1", "--branch", "1",
               "--out", "family.json"])
    assert rc == 0
    digest = hashlib.sha256((tmp_path / "family.json").read_bytes()).hexdigest()
    assert digest == PINNED_FAMILY_SHA256[side, variant]
