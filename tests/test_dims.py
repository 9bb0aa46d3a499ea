import contextlib
import functools
import itertools
import math
import operator
import signal
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microfract import dims, families
from microfract.dims import (
    CountSeries,
    box_dim_estimate,
    chain_check,
    covering_counts,
    exact_covering_number,
    exact_packing_number,
    greedy_cover,
    greedy_packing,
    kx_covering_counts,
    packing_counts,
    point_covering_counts,
    product_inequality_check,
)
from microfract.dyadic import full_cube, kx_set, product, singleton_chain
from microfract.errors import ResourceLimitError
from microfract.families import EuclideanNet
from microfract.seq import Word, beatty_balanced, concat


def brute_packing_number(points, delta):
    """Oracle: try all subsets (tiny inputs only)."""
    best = 0
    n = len(points)
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        ok = all(
            np.linalg.norm(np.subtract(points[i], points[j])) > delta
            for i, j in itertools.combinations(idx, 2)
        )
        if ok:
            best = max(best, len(idx))
    return best


def brute_cover_number(points, radius):
    n = len(points)
    pts = [np.asarray(p, dtype=float) for p in points]
    best = n
    for size in range(1, n + 1):
        for centers in itertools.combinations(range(n), size):
            if all(
                any(np.linalg.norm(p - pts[c]) <= radius for c in centers)
                for p in pts
            ):
                return size
    return best


class TestCoveringCounts:
    def test_full_cube(self):
        s = covering_counts(full_cube(2, 3), [0, 1, 2, 3])
        assert s.entries == ((0, 1), (1, 4), (2, 16), (3, 64))

    def test_full_interval_depth6(self):
        assert covering_counts(full_cube(1, 6), [6]).count_at(6) == 64

    def test_singleton_chain(self):
        s = covering_counts(singleton_chain(1, 8), range(9))
        assert all(c == 1 for _, c in s.entries)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=14))
    @settings(max_examples=80, deadline=None)
    def test_kx_grid_counts_match_sigma(self, bits):
        w = Word.from_bits(bits)
        grid = covering_counts(kx_set(w), range(len(bits) + 1))
        analytic = kx_covering_counts(w, range(len(bits) + 1))
        assert grid.entries == analytic.entries

    def test_subset_monotone(self):
        big = kx_set("111111")
        small = kx_set("101010")
        for m in range(7):
            assert small.count(m) <= big.count(m)

    def test_level_beyond_depth_rejected(self):
        with pytest.raises(ValueError):
            covering_counts(kx_set("11"), [3])


class TestBoxDimEstimate:
    def test_full_square(self):
        s = covering_counts(full_cube(2, 5), range(1, 6))
        assert box_dim_estimate(s) == (2.0, 2.0)

    def test_beatty_third(self):
        x = beatty_balanced(Fraction(1, 3)).prefix(512)
        s = kx_covering_counts(x, range(1, 513))
        lo, hi = box_dim_estimate(s)
        # trailing third: levels >= 342, where |floor(n/3)/n - 1/3| <= 1/n
        assert abs(lo - 1 / 3) < 1 / 340
        assert abs(hi - 1 / 3) < 1 / 340

    def test_oscillating_blocks(self):
        # runs engineered so density alternates exactly between 3/4 and 1/4
        w = concat(["1000", "1" * 8, "0" * 24, "1" * 72, "0" * 216])
        s = kx_covering_counts(w, [4, 12, 36, 108, 324])
        lo, hi = box_dim_estimate(s, window=5)
        assert (lo, hi) == (0.25, 0.75)

    def test_huge_counts_do_not_overflow(self):
        x = beatty_balanced(Fraction(1)).prefix(2048)
        s = kx_covering_counts(x, [2048])
        lo, hi = box_dim_estimate(s, window=1)
        assert lo == hi == 1.0

    def test_requires_positive_level(self):
        with pytest.raises(ValueError):
            box_dim_estimate(CountSeries("covering", ((0, 1),)))

    def test_window_below_one_refused(self):
        s = CountSeries("covering", ((1, 2), (2, 8), (3, 8), (4, 16)))
        for window in (0, -1, -4):
            with pytest.raises(ValueError, match="window must be >= 1"):
                box_dim_estimate(s, window=window)
        assert box_dim_estimate(s, window=1) == (1.0, 1.0)
        # a window past the series keeps every level
        assert box_dim_estimate(s, window=9) == box_dim_estimate(s, window=4) == (1.0, 1.5)


class TestGreedyPacking:
    def test_all_points_close(self):
        pts = [(0.0, 0.0), (0.001, 0.0), (0.0, 0.001)]
        assert len(greedy_packing(pts, 0.01)) == 1

    def test_grid_spacing_exceeds_delta(self):
        n = 5
        pts = [(i / 2**n,) for i in range(2**n + 1)]
        assert len(greedy_packing(pts, 0.9 * 2.0**-n)) == len(pts)

    def test_is_valid_and_maximal(self):
        rng = np.random.default_rng(2)
        pts = [tuple(p) for p in rng.random((40, 2))]
        delta = 0.22
        packed = greedy_packing(pts, delta)
        for p, q in itertools.combinations(packed, 2):
            assert np.linalg.norm(np.subtract(p, q)) > delta
        for p in pts:  # maximality: nothing else could be added
            if p not in packed:
                assert any(
                    np.linalg.norm(np.subtract(p, q)) <= delta for q in packed
                )

    def test_greedy_at_most_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            pts = [tuple(p) for p in rng.random((12, 2))]
            delta = float(rng.uniform(0.1, 0.6))
            assert len(greedy_packing(pts, delta)) <= exact_packing_number(pts, delta)


class TestExactSolvers:
    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_packing_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        pts = [tuple(p) for p in rng.random((9, 2))]
        delta = float(rng.uniform(0.1, 0.7))
        assert exact_packing_number(pts, delta) == brute_packing_number(pts, delta)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=25, deadline=None)
    def test_covering_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        pts = [tuple(p) for p in rng.random((8, 2))]
        radius = float(rng.uniform(0.1, 0.5))
        assert exact_covering_number(pts, radius) == brute_cover_number(pts, radius)

    def test_size_limit(self):
        pts = [(float(i),) for i in range(70)]
        with pytest.raises(ValueError):
            exact_packing_number(pts, 0.5)


class TestChain:
    def test_singleton(self):
        pts = [(0.3, 0.4)]
        n = point_covering_counts(pts, range(5))
        p = packing_counts(pts, range(4))
        assert chain_check(n, p)
        assert all(c == 1 for _, c in n.entries)

    def test_fine_grid_interval(self):
        pts = [(i / 63,) for i in range(64)]
        n = point_covering_counts(pts, [4, 5, 6])
        p = packing_counts(pts, [4, 5])
        assert chain_check(n, p)

    def test_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = int(rng.integers(2, 20))
            pts = [tuple(q) for q in rng.random((m, 2))]
            levels = [0, 1, 2, 3, 4]
            n = point_covering_counts(pts, levels + [5])
            p = packing_counts(pts, levels)
            assert chain_check(n, p)

    @pytest.mark.parametrize("p1, holds", [(1, False), (2, True), (4, True), (5, False)])
    def test_broken_chain_is_reported(self, p1, holds):
        # N_1 = 2 and N_2 = 4, so the chain holds at level 1 iff 2 <= P_1 <= 4
        n = CountSeries("covering", ((0, 1), (1, 2), (2, 4)))
        p = CountSeries("packing", ((0, 1), (1, p1)))
        assert chain_check(n, p) is holds

    def test_misaligned_levels_rejected(self):
        pts = [(0.0,), (1.0,)]
        n = point_covering_counts(pts, [0, 1])
        p = packing_counts(pts, [3])
        with pytest.raises(ValueError):
            chain_check(n, p)

    def test_inexact_series_rejected(self):
        n = CountSeries("covering", ((0, 1), (1, 1)), exact=False)
        p = CountSeries("packing", ((0, 1),), exact=True)
        with pytest.raises(ValueError):
            chain_check(n, p)


class TestProductInequality:
    def test_with_full_cube(self):
        a = kx_set("1011")
        b = full_cube(1, 4)
        assert product_inequality_check(a, b, range(5))

    def test_kx_products(self):
        a, b = kx_set("10110"), kx_set("01101")
        assert product_inequality_check(a, b, range(6))
        pr = product(a, b)
        for m in range(6):
            assert pr.count(m) == 2 ** (
                Word(a_bits := tuple(map(int, "10110"))[:m]).sigma
                + Word(tuple(map(int, "01101"))[:m]).sigma
            )

    def test_slopes_add(self):
        a, b = kx_set("111111"), kx_set("101010")
        sa = covering_counts(a, range(1, 7))
        sb = covering_counts(b, range(1, 7))
        sp = covering_counts(product(a, b), range(1, 7))
        import math
        for (n, ca), (_, cb), (_, cp) in zip(sa.entries, sb.entries, sp.entries):
            assert math.isclose(
                math.log2(cp) / n, math.log2(ca) / n + math.log2(cb) / n
            )


class TestCsv:
    def test_header_and_rows(self):
        s = covering_counts(full_cube(1, 2), [1, 2])
        text = s.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "level,count,log2count_over_n"
        assert lines[1].startswith("1,2,")


# Oracles: the point-set solvers as they computed their own distance matrix,
# before they ran on the net views.

def oracle_dist_matrix(points, dist):
    if dist is None:
        arr = np.asarray(points, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        diff = arr[:, None, :] - arr[None, :, :]
        return np.sqrt((diff * diff).sum(axis=2))
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = dist(points[i], points[j])
    return out


def oracle_greedy_packing(points, delta, dist=None):
    pts = list(points)
    if not pts:
        return []
    dm = oracle_dist_matrix(pts, dist)
    chosen = []
    for i in range(len(pts)):
        if all(dm[i, j] > delta for j in chosen):
            chosen.append(i)
    return [pts[i] for i in chosen]


def oracle_greedy_cover(points, radius, dist=None):
    pts = list(points)
    if not pts:
        return []
    dm = oracle_dist_matrix(pts, dist)
    n = len(pts)
    covers = [set(np.nonzero(dm[i] <= radius)[0].tolist()) for i in range(n)]
    uncovered = set(range(n))
    centers = []
    while uncovered:
        i = max(range(n), key=lambda i: len(covers[i] & uncovered))
        centers.append(pts[i])
        uncovered -= covers[i]
    return centers


def oracle_exact_packing_number(points, delta, dist=None):
    pts = list(points)
    n = len(pts)
    if n == 0:
        return 0
    dm = oracle_dist_matrix(pts, dist)
    adj = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and dm[i, j] > delta:
                adj[i] |= 1 << j
    best = 0

    def expand(size, cand):
        nonlocal best
        if cand == 0:
            best = max(best, size)
            return
        order = []
        uncolored, color = cand, 0
        while uncolored:
            color += 1
            cls = uncolored
            while cls:
                v = (cls & -cls).bit_length() - 1
                order.append((v, color))
                cls &= ~adj[v] & ~(1 << v)
                uncolored &= ~(1 << v)
        for v, c in reversed(order):
            if size + c <= best:
                return
            expand(size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, (1 << n) - 1)
    return best


def oracle_exact_covering_number(points, radius, dist=None):
    pts = list(points)
    n = len(pts)
    if n == 0:
        return 0
    dm = oracle_dist_matrix(pts, dist)
    covers = [0] * n
    covered_by = [0] * n
    for i in range(n):
        for j in range(n):
            if dm[i, j] <= radius:
                covers[i] |= 1 << j
                covered_by[j] |= 1 << i
    full = (1 << n) - 1
    max_cover = max(m.bit_count() for m in covers)
    uncovered, upper = full, 0
    while uncovered:
        pick = max(covers, key=lambda m: (m & uncovered).bit_count())
        uncovered &= ~pick
        upper += 1

    def dfs(uncovered, budget):
        if uncovered == 0:
            return True
        if budget * max_cover < uncovered.bit_count():
            return False
        u, pick_mask, pick_count = uncovered, 0, n + 1
        while u:
            e = (u & -u).bit_length() - 1
            u &= u - 1
            c = covered_by[e].bit_count()
            if c < pick_count:
                pick_mask, pick_count = covered_by[e], c
                if c == 1:
                    break
        cands = []
        while pick_mask:
            i = (pick_mask & -pick_mask).bit_length() - 1
            pick_mask &= pick_mask - 1
            cands.append(i)
        cands.sort(key=lambda i: (covers[i] & uncovered).bit_count(), reverse=True)
        return any(dfs(uncovered & ~covers[i], budget - 1) for i in cands)

    for budget in range(-(-n // max_cover), upper):
        if dfs(full, budget):
            return budget
    return upper


def sup_dist(p, q):
    """The sup metric of criterion 10."""
    return float(np.max(np.abs(np.subtract(p, q))))


@st.composite
def point_sets(draw, max_size):
    """Point lists in d = 1-3: random points or 1/8-lattice points (distance
    ties), with repeats; 1-D sets sometimes as plain scalars."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        pool = rng.integers(0, 9, size=(n, d)) / 8
    else:
        pool = rng.random((n, d))
    if draw(st.booleans()):  # duplicates
        pool = pool[rng.integers(0, max(1, n // 2), size=n)]
    if d == 1 and draw(st.booleans()):
        return [float(x) for x in pool[:, 0]]
    return [tuple(float(x) for x in p) for p in pool]


_metrics = st.sampled_from([None, sup_dist])


class TestNetViewOracles:
    @given(point_sets(80), st.integers(0, 5), _metrics)
    @settings(max_examples=150, deadline=None)
    def test_greedy_functions_match(self, pts, k, dist):
        r = 2.0 ** -k
        assert greedy_packing(pts, r, dist) == oracle_greedy_packing(pts, r, dist)
        assert greedy_cover(pts, r, dist) == oracle_greedy_cover(pts, r, dist)

    @given(point_sets(18), st.integers(0, 5), _metrics)
    @settings(max_examples=150, deadline=None)
    def test_exact_numbers_match(self, pts, k, dist):
        r = 2.0 ** -k
        assert exact_packing_number(pts, r, dist) == oracle_exact_packing_number(pts, r, dist)
        assert exact_covering_number(pts, r, dist) == oracle_exact_covering_number(pts, r, dist)

    @given(st.one_of(point_sets(14), point_sets(80)), _metrics)
    @settings(max_examples=40, deadline=None)
    def test_series_equals_one_call_per_level(self, pts, dist):
        levels = range(0, 6)
        exact = len(pts) <= 64
        n_series = point_covering_counts(pts, levels, dist)
        p_series = packing_counts(pts, levels, dist)
        assert n_series.exact == p_series.exact == exact
        for n in levels:
            r = 2.0 ** -n
            if exact:
                want_n = oracle_exact_covering_number(pts, r, dist)
                want_p = oracle_exact_packing_number(pts, r, dist)
            else:
                want_n = len(oracle_greedy_cover(pts, r, dist))
                want_p = len(oracle_greedy_packing(pts, r, dist))
            assert n_series.count_at(n) == want_n
            assert p_series.count_at(n) == want_p

    @pytest.mark.parametrize("k", [3, 5])
    def test_greedy_cover_over_several_mask_blocks(self, k):
        pts = [tuple(p) for p in np.random.default_rng(k).random((600, 2)).tolist()]
        assert families._BLOCK_ELEMS // 600 < 600  # the ball bitmasks take several blocks
        assert greedy_cover(pts, 2.0 ** -k) == oracle_greedy_cover(pts, 2.0 ** -k)

    def test_empty_sets(self):
        assert greedy_packing([], 0.5) == greedy_cover([], 0.5) == []
        assert exact_packing_number([], 0.5) == exact_covering_number([], 0.5) == 0
        assert packing_counts([], [0, 1]).entries == ((0, 1), (1, 1))

    def test_greedy_packing_counts_use_the_lattice_closed_form(self):
        class FloatNet(EuclideanNet):
            """The same points on the float path (a subclass is not detected)."""

        pts = [(i / 2 ** 7,) for i in range(2 ** 7 + 1)]
        twin = FloatNet(pts)
        want = [(n, twin.global_packing_number(2.0 ** -n)) for n in range(8)]
        # the dyadic line's view is a lattice net, which counts without a greedy scan
        with mock.patch.object(EuclideanNet, "greedy_packing_indices",
                               side_effect=AssertionError("greedy scan")):
            series = packing_counts(pts, range(8))
        assert series.entries == tuple(want)
        assert not series.exact


@contextlib.contextmanager
def within_one_second():
    """Turn a call that runs past one second into a failure, not a hang."""
    def expire(signum, frame):
        raise TimeoutError("call ran past one second")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestRefusals:
    pair = [(0.0,), (1.0,)]
    with_nan = [(0.0,), (math.nan,)]

    @pytest.mark.parametrize("call", [
        lambda: exact_covering_number(TestRefusals.pair, -1.0),
        lambda: exact_covering_number(TestRefusals.pair, math.nan),
        lambda: exact_covering_number(TestRefusals.with_nan, 0.5),
        lambda: greedy_cover(TestRefusals.pair, -1.0),
        lambda: greedy_cover(TestRefusals.with_nan, 0.5),
        lambda: point_covering_counts(TestRefusals.with_nan, range(3)),
        lambda: packing_counts(TestRefusals.with_nan, range(3)),
        lambda: greedy_packing(TestRefusals.with_nan, 0.5),
        lambda: greedy_packing(TestRefusals.pair, math.nan),
        lambda: exact_packing_number(TestRefusals.with_nan, 0.5),
        lambda: exact_packing_number(TestRefusals.pair, 0.0),
        lambda: exact_packing_number(TestRefusals.pair, -1.0),
        lambda: exact_packing_number(TestRefusals.pair, math.nan),
        lambda: exact_covering_number(TestRefusals.pair, 0.5, lambda p, q: math.inf),
    ])
    def test_refused_at_once(self, call):
        with within_one_second(), pytest.raises(ValueError):
            call()

    def test_ball_masks_over_the_limit_allocate_nothing(self):
        n = 1 << 14  # n^2/8 bytes of bitmasks: exactly the limit
        assert n * n // 8 == dims.MASK_BYTES_LIMIT
        pts = np.random.default_rng(0).random((n + 1, 2))
        view = EuclideanNet(pts)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="over the limit"):
                dims._ball_masks(view, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        with within_one_second(), pytest.raises(ResourceLimitError):
            greedy_cover(pts, 0.1)
        with within_one_second(), pytest.raises(ResourceLimitError):
            point_covering_counts(pts, [3])

    def test_dist_matrix_over_the_limit_calls_dist_never(self):
        calls = []

        def dist(p, q):
            calls.append(None)
            return abs(p[0] - q[0])

        pts = [(i / 513,) for i in range(513)]  # one past MatrixNet's limit
        for call in (lambda: point_covering_counts(pts, [3], dist),
                     lambda: greedy_packing(pts, 0.1, dist)):
            with within_one_second(), pytest.raises(ResourceLimitError, match="over the limit"):
                call()
        assert calls == []

    def test_radius_zero_covers_each_point_alone(self):
        with within_one_second():
            assert exact_covering_number(self.pair, 0.0) == 2
            assert greedy_cover(self.pair, 0.0) == self.pair

    def test_callable_breaking_the_triangle_inequality_refused(self):
        pts = [(float(i),) for i in range(10)]
        squared = lambda p, q: (p[0] - q[0]) ** 2
        with pytest.raises(ValueError, match="triangle"):
            exact_packing_number(pts, 0.5, squared)


def oracle_reach(points, radius, dist=None):
    """Per point e, the bitmask of the points f that share a ball with e:
    some point c has both within ``radius``."""
    inside = oracle_dist_matrix(list(points), dist) <= radius
    shared = inside.T.astype(int) @ inside.astype(int) > 0
    return [sum(1 << int(f) for f in np.nonzero(row)[0]) for row in shared]


def brute_cover_of(target, covers):
    """Fewest of the bitmasks ``covers`` whose union contains ``target``."""
    for size in range(len(covers) + 1):
        for pick in itertools.combinations(covers, size):
            if target & ~functools.reduce(operator.or_, pick, 0) == 0:
                return size


def lattice_points(rng, size, den):
    """``size`` distinct points of the 1/den lattice in the unit square."""
    cells = rng.choice(den * den, size=size, replace=False)
    return [(float(i) / den, float(j) / den) for i, j in (divmod(int(c), den) for c in cells)]


class TestCoveringSearch:
    @given(point_sets(40), st.integers(0, 5), _metrics)
    @settings(max_examples=60, deadline=None)
    def test_exact_covering_matches_oracle(self, pts, k, dist):
        r = 2.0 ** -k
        assert exact_covering_number(pts, r, dist) == oracle_exact_covering_number(pts, r, dist)

    @given(point_sets(10), st.integers(0, 5), _metrics, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_disjoint_ball_bound_never_exceeds_a_cover(self, pts, k, dist, seed):
        r = 2.0 ** -k
        covers = [int(sum(1 << int(j) for j in np.nonzero(row)[0]))
                  for row in oracle_dist_matrix(pts, dist) <= r]
        reach = oracle_reach(pts, r, dist)
        full = (1 << len(pts)) - 1
        assert dims._disjoint_ball_bound(full, reach) <= exact_covering_number(pts, r, dist)
        subset = int(np.random.default_rng(seed).integers(0, full + 1))
        assert dims._disjoint_ball_bound(subset, reach) <= brute_cover_of(subset, covers)

    @pytest.mark.parametrize("k", range(0, 6))
    def test_disjoint_ball_bound_is_exact_on_separated_points(self, k):
        r = 2.0 ** -k
        rng = np.random.default_rng(k)
        pts = []
        for p in rng.random((400, 2)) * 20 * r:  # keep points pairwise more than 2r apart
            if all(np.linalg.norm(p - q) > 2 * r for q in pts):
                pts.append(p)
        pts = [tuple(map(float, p)) for p in pts[:40]]
        assert len(pts) >= 10
        bound = dims._disjoint_ball_bound((1 << len(pts)) - 1, oracle_reach(pts, r))
        assert bound == exact_covering_number(pts, r) == len(pts)

    @pytest.mark.parametrize("seed", range(4))
    def test_forty_lattice_points_within_one_second(self, seed):
        pts = lattice_points(np.random.default_rng(seed), 40, 64)
        want = [oracle_exact_covering_number(pts, 2.0 ** -k) for k in range(1, 6)]
        with within_one_second():
            got = [exact_covering_number(pts, 2.0 ** -k) for k in range(1, 6)]
        assert got == want

    @pytest.mark.parametrize("k", range(0, 6))
    def test_greedy_cover_past_the_exact_limit(self, k):
        pts = lattice_points(np.random.default_rng(k), 300, 64)
        assert len(pts) > dims.EXACT_POINT_LIMIT
        assert greedy_cover(pts, 2.0 ** -k) == oracle_greedy_cover(pts, 2.0 ** -k)
        assert (point_covering_counts(pts, [k]).count_at(k)
                == len(oracle_greedy_cover(pts, 2.0 ** -k)))
