"""Covering/packing counts and box-dimension slope estimators.

Covering counts for cell sets are dyadic grid counts (number of alive cells
per level), not true minimal ball covers; the two differ by a bounded factor
that cancels in slopes.  Packing and covering numbers of finite point sets
are exact (branch and bound) up to a size limit and greedy beyond it, with
the series flagged accordingly; the ``N_n <= P_n <= N_{n+1}`` chain is only
asserted for exact counts.  The covering search is cut by a disjoint-ball
lower bound and a memo of failed uncovered sets, below a lazy greedy cover.
Point-set distances all come from one :mod:`.families` net view, and the
solvers at a radius share one table of ball bitmasks.  Non-finite points or
distances, a negative or NaN radius and a separation that is not positive
raise ``ValueError``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dyadic import DyadicSet, product
from .errors import ResourceLimitError
from .families import EuclideanNet, MatrixNet, MetricSpaceView, _check_matrix_points, _within_rows
from .seq import Word, as_word

__all__ = [
    "CountSeries",
    "covering_counts",
    "kx_covering_counts",
    "point_covering_counts",
    "packing_counts",
    "box_dim_estimate",
    "greedy_packing",
    "exact_packing_number",
    "exact_covering_number",
    "chain_check",
    "product_inequality_check",
]

EXACT_POINT_LIMIT = 64
# Largest table of ball bitmasks, n^2/8 bytes for n points: 2^25 allows 2^14.
MASK_BYTES_LIMIT = 1 << 25


@dataclass(frozen=True)
class CountSeries:
    """Counts per dyadic level; ``kind`` is "covering" or "packing"."""

    kind: str
    entries: tuple[tuple[int, int], ...]
    exact: bool = True

    def __post_init__(self):
        if self.kind not in ("covering", "packing"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        levels = [n for n, _ in self.entries]
        if levels != sorted(set(levels)):
            raise ValueError("levels must be strictly increasing")
        if any(c < 1 for _, c in self.entries):
            raise ValueError("counts must be positive")

    @property
    def levels(self) -> list[int]:
        return [n for n, _ in self.entries]

    def count_at(self, n: int) -> int:
        for lvl, c in self.entries:
            if lvl == n:
                return c
        raise KeyError(f"no entry at level {n}")

    def to_csv(self) -> str:
        lines = ["level,count,log2count_over_n"]
        for n, c in self.entries:
            ratio = "" if n == 0 else repr(math.log2(c) / n)
            lines.append(f"{n},{c},{ratio}")
        return "\n".join(lines) + "\n"


def covering_counts(a: DyadicSet, levels: Sequence[int]) -> CountSeries:
    """Grid count of alive cells of ``a`` at each requested level."""
    if a.is_empty:
        raise ValueError("covering counts of the empty set are undefined")
    entries = []
    for m in sorted(set(levels)):
        if m > a.depth:
            raise ValueError(f"level {m} exceeds depth {a.depth}")
        entries.append((m, a.count(m)))
    return CountSeries("covering", tuple(entries))


def kx_covering_counts(x: Word | str, levels: Sequence[int]) -> CountSeries:
    """Level counts of the digit-restriction set of ``x``, computed as
    ``2^sigma(x[:m])`` without materializing cells (usable at any depth)."""
    x = as_word(x)
    entries, v, n = [], x.v, len(x)
    for m in sorted(set(levels)):
        if not 0 <= m <= n:
            raise ValueError(f"level {m} outside [0, {n}], the prefix length")
        entries.append((m, 1 << (v >> (n - m)).bit_count()))  # 2^sigma(x[:m])
    return CountSeries("covering", tuple(entries))


def box_dim_estimate(series: CountSeries, window: int | None = None) -> tuple[float, float]:
    """(min, max) of ``log2(count)/n`` over the trailing ``window`` levels.

    These are finite-depth stand-ins for the lower/upper box dimension;
    the default window is the top third of available positive levels.
    """
    ratios = [math.log2(c) / n for n, c in series.entries if n > 0]
    if not ratios:
        raise ValueError("series has no positive levels")
    if window is None:
        window = max(1, math.ceil(len(ratios) / 3))
    elif window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    tail = ratios[-window:]
    return min(tail), max(tail)


# ---------------------------------------------------------------------------
# Point-set packing and covering
# ---------------------------------------------------------------------------

def _view(pts: list, dist: Callable | None) -> MetricSpaceView:
    """The net view of a nonempty point list: a Euclidean net on its
    coordinates, or a matrix net of ``dist`` evaluated once per pair, the
    point count checked against the matrix limit before any call."""
    if dist is None:
        return EuclideanNet(pts)
    n = len(pts)
    _check_matrix_points(n)
    dm = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dm[i, j] = dm[j, i] = dist(pts[i], pts[j])
    return MatrixNet(dm)


def _ball_masks(view: MetricSpaceView, r: float) -> list[int]:
    """Per point, the int bitmask of the points within closed distance r.
    Both nets' distances are exactly symmetric, so entry i is also the set
    of balls that cover point i.  Built a block of rows at a time."""
    n = view.n_points
    if n * n > 8 * MASK_BYTES_LIMIT:
        raise ResourceLimitError(f"ball bitmasks of {n} points need {n * n // 8} bytes, "
                                 f"over the limit {MASK_BYTES_LIMIT}")
    idx, masks = np.arange(n), []
    for _, close in _within_rows(view, idx, idx, r):
        rows = np.packbits(close, axis=1, bitorder="little")
        masks += [int.from_bytes(row.tobytes(), "little") for row in rows]
    return masks


def _greedy_cover(covers: list[int]) -> list[int]:
    """Greedy cover: each pick covers the most uncovered points, ties to the
    first index.  Lazy: stale gains in a heap only overstate, so the top is
    picked once its fresh gain still leads.  Each point is in its own ball."""
    heap = [(-m.bit_count(), i) for i, m in enumerate(covers)]
    heapq.heapify(heap)
    uncovered, picks = (1 << len(covers)) - 1, []
    while uncovered:
        i = heapq.heappop(heap)[1]
        item = (-(covers[i] & uncovered).bit_count(), i)
        if heap and item > heap[0]:
            heapq.heappush(heap, item)
        else:
            picks.append(i)
            uncovered &= ~covers[i]
    return picks


def _disjoint_ball_bound(uncovered: int, reach: list[int]) -> int:
    """Lower bound on the balls that cover ``uncovered``: the lowest point is
    taken and every point sharing a ball with it dropped, repeatedly; the
    points taken pairwise share no ball, so each needs its own."""
    count = 0
    while uncovered:
        count += 1
        uncovered &= ~reach[(uncovered & -uncovered).bit_length() - 1]
    return count


def _packing_number(view: MetricSpaceView, delta: float) -> int:
    """Maximum size of a delta-packing: a maximum clique of the "farther
    than delta" graph, the complement of the delta balls (each point lies in
    its own ball, so no point is its own neighbor)."""
    full = (1 << view.n_points) - 1
    adj = [full ^ m for m in _ball_masks(view, delta)]
    best = 0

    def expand(size: int, cand: int):
        nonlocal best
        if cand == 0:
            best = max(best, size)
            return
        # Greedy coloring bound (Tomita): vertices of color c can only extend
        # a clique by at most c, so iterate from the highest color down.
        order: list[tuple[int, int]] = []
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

    expand(0, full)
    return best


def _covering_number(view: MetricSpaceView, radius: float) -> int:
    """Minimum number of closed balls of ``radius`` centered at the points
    that cover them: iterative deepening from the disjoint-ball bound up to
    the lazy greedy cover's size.  A node is cut when the count or the
    disjoint-ball bound exceeds its budget, or when its uncovered set failed
    before at a budget as large (the memo lives across the budgets)."""
    covers = _ball_masks(view, radius)
    n = len(covers)
    max_cover = max(m.bit_count() for m in covers)
    reach = [0] * n  # per point, the points that share a ball with it
    for m in covers:
        rest = m
        while rest:
            reach[(rest & -rest).bit_length() - 1] |= m
            rest &= rest - 1
    failed: dict[int, int] = {}  # uncovered set -> largest budget it failed at

    def dfs(uncovered: int, budget: int) -> bool:
        if uncovered == 0:
            return True
        if (budget * max_cover < uncovered.bit_count() or failed.get(uncovered, -1) >= budget
                or _disjoint_ball_bound(uncovered, reach) > budget):
            return False
        # Branch on the uncovered element with the fewest covering balls,
        # trying its covers in decreasing order of fresh coverage.
        u, pick_mask, pick_count = uncovered, 0, n + 1
        while u:
            e = (u & -u).bit_length() - 1
            u &= u - 1
            c = covers[e].bit_count()
            if c < pick_count:
                pick_mask, pick_count = covers[e], c
                if c == 1:
                    break
        cands = []
        while pick_mask:
            i = (pick_mask & -pick_mask).bit_length() - 1
            pick_mask &= pick_mask - 1
            cands.append(i)
        cands.sort(key=lambda i: (covers[i] & uncovered).bit_count(), reverse=True)
        if not (found := any(dfs(uncovered & ~covers[i], budget - 1) for i in cands)):
            failed[uncovered] = budget
        return found

    full, upper = (1 << n) - 1, len(_greedy_cover(covers))
    for budget in range(max(-(-n // max_cover), _disjoint_ball_bound(full, reach)), upper):
        if dfs(full, budget):
            return budget
    return upper


def _exact_points(points, what: str) -> list:
    pts = list(points)
    if len(pts) > EXACT_POINT_LIMIT:
        raise ValueError(f"exact {what} limited to {EXACT_POINT_LIMIT} points")
    return pts


def greedy_packing(points, delta: float, dist: Callable | None = None) -> list:
    """Inclusion-maximal delta-packing, greedy in the given point order."""
    if not delta > 0:
        raise ValueError("packing separation must be positive")
    pts = list(points)
    if not pts:
        return []
    picks = _view(pts, dist).greedy_packing_indices(np.arange(len(pts)), delta)
    return [pts[i] for i in picks]


def greedy_cover(points, radius: float, dist: Callable | None = None) -> list:
    """Greedy ball cover (upper bound on the covering number)."""
    if not radius >= 0:
        raise ValueError(f"covering radius must be >= 0, got {radius}")
    pts = list(points)
    if not pts:
        return []
    return [pts[i] for i in _greedy_cover(_ball_masks(_view(pts, dist), radius))]


def exact_packing_number(points, delta: float, dist: Callable | None = None) -> int:
    """Maximum size of a delta-packing (pairwise distances > delta)."""
    if not delta > 0:
        raise ValueError("packing separation must be positive")
    pts = _exact_points(points, "packing")
    return _packing_number(_view(pts, dist), delta) if pts else 0


def exact_covering_number(points, radius: float, dist: Callable | None = None) -> int:
    """Minimum number of closed balls of ``radius`` centered at points of the
    set needed to cover it."""
    if not radius >= 0:
        raise ValueError(f"covering radius must be >= 0, got {radius}")
    pts = _exact_points(points, "covering")
    return _covering_number(_view(pts, dist), radius) if pts else 0


def _series(kind: str, points, levels: Sequence[int], dist: Callable | None,
            exact_count, greedy_count, empty: int) -> CountSeries:
    """Counts at scales 2^-n from one view of the points, exact up to
    ``EXACT_POINT_LIMIT`` points; the empty set counts ``empty``."""
    pts = list(points)
    exact = len(pts) <= EXACT_POINT_LIMIT
    count = exact_count if exact else greedy_count
    view = _view(pts, dist) if pts else None
    entries = tuple((n, count(view, 2.0 ** -n) if pts else empty)
                    for n in sorted(set(levels)))
    return CountSeries(kind, entries, exact=exact)


def point_covering_counts(points, levels: Sequence[int],
                          dist: Callable | None = None) -> CountSeries:
    """Covering numbers N_n of a finite point set at radii 2^-n."""
    return _series("covering", points, levels, dist, _covering_number,
                   lambda view, r: len(_greedy_cover(_ball_masks(view, r))), 0)


def packing_counts(points, levels: Sequence[int],
                   dist: Callable | None = None) -> CountSeries:
    """Packing numbers P_n of a finite point set at separations 2^-n.

    Exact (maximum cardinality) up to ``EXACT_POINT_LIMIT`` points, greedy
    (inclusion-maximal, a lower bound) beyond; the flag records which.
    """
    return _series("packing", points, levels, dist, _packing_number,
                   lambda view, r: view.global_packing_number(r), 1)


def chain_check(n_series: CountSeries, p_series: CountSeries) -> bool:
    """Whether ``N_n <= P_n <= N_{n+1}`` holds at every packing level.

    Requires exact series on aligned levels (the covering series must also
    contain each packing level plus one).
    """
    if n_series.kind != "covering" or p_series.kind != "packing":
        raise ValueError("expected a covering series and a packing series")
    if not (n_series.exact and p_series.exact):
        raise ValueError("the chain is only asserted for exact counts")
    n_levels = set(n_series.levels)
    for n, p in p_series.entries:
        if n not in n_levels or n + 1 not in n_levels:
            raise ValueError(f"covering series misses level {n} or {n + 1}")
        if not n_series.count_at(n) <= p <= n_series.count_at(n + 1):
            return False
    return True


def product_inequality_check(a: DyadicSet, b: DyadicSet, levels: Sequence[int]) -> bool:
    """Grid counts of a product factor exactly at every level, so slope
    estimates add across factors."""
    prod = product(a, b)
    for m in levels:
        if prod.count(m) != a.count(m) * b.count(m):
            return False
    return True
