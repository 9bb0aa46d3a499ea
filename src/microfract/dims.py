"""Covering/packing counts and box-dimension slope estimators.

Covering counts for cell sets are dyadic grid counts (number of alive cells
per level), not true minimal ball covers; the two differ by a bounded factor
that cancels in slopes.  Packing and covering numbers of finite point sets
are exact (branch and bound) up to a size limit and greedy beyond it, with
the series flagged accordingly; the ``N_n <= P_n <= N_{n+1}`` chain is only
asserted for exact counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dyadic import DyadicSet, product
from .seq import Word

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
    if isinstance(x, str):
        x = Word.from_string(x)
    sig = [0]
    for b in x.bits:
        sig.append(sig[-1] + b)
    entries = []
    for m in sorted(set(levels)):
        if not 0 <= m <= len(x):
            raise ValueError(f"level {m} outside [0, {len(x)}], the prefix length")
        entries.append((m, 1 << sig[m]))
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
    tail = ratios[-window:]
    return min(tail), max(tail)


# ---------------------------------------------------------------------------
# Point-set packing and covering
# ---------------------------------------------------------------------------

def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def _dist_matrix(points, dist: Callable | None) -> np.ndarray:
    if dist is None:
        arr = _as_points(points)
        diff = arr[:, None, :] - arr[None, :, :]
        return np.sqrt((diff * diff).sum(axis=2))
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = dist(points[i], points[j])
    return out


def greedy_packing(points, delta: float, dist: Callable | None = None) -> list:
    """Inclusion-maximal delta-packing, greedy in the given point order."""
    if delta <= 0:
        raise ValueError("packing separation must be positive")
    pts = list(points)
    if not pts:
        return []
    dm = _dist_matrix(pts, dist)
    chosen: list[int] = []
    for i in range(len(pts)):
        if all(dm[i, j] > delta for j in chosen):
            chosen.append(i)
    return [pts[i] for i in chosen]


def exact_packing_number(points, delta: float, dist: Callable | None = None) -> int:
    """Maximum size of a delta-packing (pairwise distances > delta)."""
    pts = list(points)
    n = len(pts)
    if n == 0:
        return 0
    if n > EXACT_POINT_LIMIT:
        raise ValueError(f"exact packing limited to {EXACT_POINT_LIMIT} points")
    dm = _dist_matrix(pts, dist)
    # A maximum packing is a maximum clique of the "farther than delta" graph.
    adj = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and dm[i, j] > delta:
                adj[i] |= 1 << j
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

    expand(0, (1 << n) - 1)
    return best


def exact_covering_number(points, radius: float, dist: Callable | None = None) -> int:
    """Minimum number of closed balls of ``radius`` centered at points of the
    set needed to cover it."""
    pts = list(points)
    n = len(pts)
    if n == 0:
        return 0
    if n > EXACT_POINT_LIMIT:
        raise ValueError(f"exact covering limited to {EXACT_POINT_LIMIT} points")
    dm = _dist_matrix(pts, dist)
    covers = [0] * n
    covered_by = [0] * n
    for i in range(n):
        for j in range(n):
            if dm[i, j] <= radius:
                covers[i] |= 1 << j
                covered_by[j] |= 1 << i
    full = (1 << n) - 1
    max_cover = max(m.bit_count() for m in covers)

    # Greedy upper bound.
    uncovered, upper = full, 0
    while uncovered:
        pick = max(covers, key=lambda m: (m & uncovered).bit_count())
        uncovered &= ~pick
        upper += 1

    def dfs(uncovered: int, budget: int) -> bool:
        if uncovered == 0:
            return True
        if budget * max_cover < uncovered.bit_count():
            return False
        # Branch on the uncovered element with the fewest covering balls,
        # trying its covers in decreasing order of fresh coverage.
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

    lower = -(-n // max_cover)
    for budget in range(lower, upper):
        if dfs(full, budget):
            return budget
    return upper


def point_covering_counts(points, levels: Sequence[int],
                          dist: Callable | None = None,
                          exact_limit: int = EXACT_POINT_LIMIT) -> CountSeries:
    """Covering numbers N_n of a finite point set at radii 2^-n."""
    pts = list(points)
    exact = len(pts) <= exact_limit
    entries = []
    for n in sorted(set(levels)):
        r = 2.0 ** -n
        if exact:
            c = exact_covering_number(pts, r, dist)
        else:
            c = len(greedy_cover(pts, r, dist))
        entries.append((n, c))
    return CountSeries("covering", tuple(entries), exact=exact)


def greedy_cover(points, radius: float, dist: Callable | None = None) -> list:
    """Greedy ball cover (upper bound on the covering number)."""
    pts = list(points)
    if not pts:
        return []
    dm = _dist_matrix(pts, dist)
    n = len(pts)
    covers = [set(np.nonzero(dm[i] <= radius)[0].tolist()) for i in range(n)]
    uncovered = set(range(n))
    centers = []
    while uncovered:
        i = max(range(n), key=lambda i: len(covers[i] & uncovered))
        centers.append(pts[i])
        uncovered -= covers[i]
    return centers


def packing_counts(points, levels: Sequence[int],
                   dist: Callable | None = None,
                   exact_limit: int = EXACT_POINT_LIMIT) -> CountSeries:
    """Packing numbers P_n of a finite point set at separations 2^-n.

    Exact (maximum cardinality) up to ``exact_limit`` points, greedy
    (inclusion-maximal, a lower bound) beyond; the flag records which.
    """
    pts = list(points)
    exact = len(pts) <= exact_limit
    entries = []
    for n in sorted(set(levels)):
        delta = 2.0 ** -n
        if exact:
            c = exact_packing_number(pts, delta, dist)
        else:
            c = len(greedy_packing(pts, delta, dist))
        entries.append((n, max(c, 1)))
    return CountSeries("packing", tuple(entries), exact=exact)


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
