"""Ball-tree families of compact subsets of a compact metric space.

The space is presented as a finite net with a metric (Euclidean coordinates
or an explicit distance matrix); all packings and counts run on the net, so
any claim the net cannot certify surfaces as a :class:`ResolutionExhausted`
error instead of a silent bias.  Every kernel asks one predicate,
``view.within(i, idx, r)``, whether points lie in a closed ball.  Lattice
nets (:class:`LatticeNet`: the grids of ``EuclideanNet.grid_2d``, and the
dyadic lines i/2^m, i = 0..2^m in index order, that ``EuclideanNet``
detects) decide it exactly on their integer coordinates over one
denominator D: ``dx^2 + dy^2 <= floor((r*D)^2)``.  Other float point sets
and distance matrices compare computed float distances with r, one block of
rows against every point at a time (:func:`_within_rows`); an exact test for
them (a float filter with an exact fallback) is not built.

Every net sorts the centers of a query into ball classes, centers whose
balls are translates (by index difference) of each other's: a lattice net
by how its edge clips the ball, any other net one class per center.  The
kernel scans one ball per class, the level schedule reads one row per
class, and only the centers an extension places get their class's packing,
shifted to them.

A family member C(x) is grown along a binary word: at each extension the
construction places a packing of exactly ``floor(2^(phi*l))`` net points at
separation ``2^-l`` inside a reference ball, where ``phi`` is the branch's
target value and ``l`` is the smallest admissible scale of the level
schedule.  The box variant packs inside the origin ball and keeps every
older center (the origin is swapped into each new packing); the packing
variant refines every ball separately and keeps only the new points.
The variant lives in the schedule (``KSeq.variant``); :func:`root_tree`
and the extensions refuse the other one.  :func:`family_dim_report`
re-checks a tree in one pass, its nesting radius an exact ``Fraction``.
Packing sizes, witness counts and percolation's survival thresholds all
compare integers with ``2^(p/q)`` through one exact test, behind
:func:`floor_pow2` and :func:`count_reaches_pow2`.

Scheduling note: the level function ``g(n) = max(n+1, P_n(K))`` feeds the
net's own packing number back into the next radius exponent, so radii
shrink doubly-exponentially and the points placed at one stage inflate
``P`` at the next; finite nets therefore certify only an initial segment
(typically one or two extensions) before exhausting.  ``g_mode="linear"``
(``g(n) = n+1``) is available as a diagnostic to exercise deeper structure
on purpose-built nets; reports record which mode produced the data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, ResolutionExhausted, ResourceLimitError
from .realize import TargetSpec, VarphiMap
from .seq import as_word

__all__ = [
    "MetricSpaceView",
    "EuclideanNet",
    "LatticeNet",
    "MatrixNet",
    "suggest_origin",
    "KSeq",
    "level_schedule",
    "BallTree",
    "BallLevel",
    "root_tree",
    "extend_box",
    "extend_packing",
    "family_member",
    "FamilyDimReport",
    "family_dim_report",
    "FamilyAssembly",
    "packing_family_assembly",
    "floor_pow2",
    "count_reaches_pow2",
]


# The float filter's error in ``log2(c / 2^w) - r/q`` is under 2^-50: cutting c
# to 53 bits moves the logarithm by under 1.5 * 2^-52, and math.log2 (on [1, 2)),
# r/q and the difference round by at most 2^-53, 2^-54 and 2^-53.
_LOG2_SLACK = 2.0 ** -48


def _at_most_pow2(c: int, p: int, q: int) -> bool:
    """Exact ``c <= 2^(p/q)`` for integers ``c, p >= 0`` and ``q >= 1``.  With
    ``w, r = divmod(p, q)``, bit length decides unless ``2^w <= c < 2^(w+1)``;
    then ``r = 0`` does, then a float filter on ``log2(c / 2^w) - r/q``; in the
    band it leaves, ``2^(p/q)`` is irrational and decimal logarithms decide at
    doubling precision (Shewchuk's adaptive precision, DCG 18(3), 1997)."""
    w, r = divmod(p, q)
    n = c.bit_length()
    if n != w + 1:
        return n <= w
    if r == 0:
        return c == 1 << w
    s = max(n - 53, 0)
    diff = math.log2(math.ldexp(c >> s, s - w)) - r / q
    if abs(diff) > _LOG2_SLACK:
        return diff < 0
    prec = 40
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            lhs, rhs = q * Decimal(c).ln(), p * Decimal(2).ln()
            if abs(lhs - rhs) > (lhs + rhs) * Decimal(10) ** (3 - prec):
                return lhs < rhs
        prec *= 2


def _exponent(alpha, ell: int) -> tuple[int, int]:
    num, q = Fraction(alpha).as_integer_ratio()  # p/q = alpha*ell, left unreduced
    if num * ell < 0:
        raise ValueError("exponent must be nonnegative")
    return num * ell, q


def floor_pow2(alpha: Fraction, ell: int) -> int:
    """Exact ``floor(2^(alpha*ell))`` for rational ``alpha*ell = w + r/q >= 0``:
    a guess, ``2^(r/q)`` in floats times ``2^w`` up to w = 52 and a decimal
    power at the result's digit count plus guard digits past it, that
    :func:`_at_most_pow2` corrects by a unit or two."""
    p, q = _exponent(alpha, ell)
    w, r = divmod(p, q)
    if r == 0:
        return 1 << w
    if w <= 52:
        t = int(math.ldexp(2.0 ** (r / q), w))
    else:
        with localcontext() as ctx:
            ctx.prec = math.ceil((w + 1) * math.log10(2)) + 10
            t = int(Decimal(2) ** (Decimal(r) / q) * (1 << w))
    while not _at_most_pow2(t, p, q):
        t -= 1
    while _at_most_pow2(t + 1, p, q):
        t += 1
    return t


def count_reaches_pow2(count: int, alpha: Fraction, ell: int) -> bool:
    """Exact test ``count >= 2^(alpha*ell)`` for a count >= 0."""
    p, q = _exponent(alpha, ell)
    return not _at_most_pow2(count + (p % q == 0), p, q)  # whole 2^e: count + 1 > 2^e


def _ceil_pow2(alpha: Fraction, ell: int) -> int:
    f = floor_pow2(alpha, ell)
    return f if count_reaches_pow2(f, alpha, ell) else f + 1


# ---------------------------------------------------------------------------
# Net presentations
# ---------------------------------------------------------------------------

# Table entries (rows times row width) that one block of the net kernel
# holds at once; a constant, like percolation's split size.  At 2^16 the
# kernel's temporaries raised the families-net benchmark's peak memory by
# 5 MB, at 2^13 by under 1 MB, at the same speed.
_BLOCK_ELEMS = 1 << 13
# Largest grid ``EuclideanNet.grid_2d`` builds (the figure of
# percolation's per-trial cell limit).
_MAX_POINTS = 1 << 21


def _within_rows(view, rows: np.ndarray, cols: np.ndarray, r):
    """Yield ``(s, close)`` per block of rows, ``close[i, j]`` whether cols[j]
    lies within r of rows[s + i]; a block is one row or at most ``_BLOCK_ELEMS``."""
    step = max(1, _BLOCK_ELEMS // max(len(cols), 1))
    for s in range(0, len(rows), step):
        yield s, view.within(rows[s:s + step], cols[None, :], r)


class MetricSpaceView:
    """Finite net presentation; subclasses supply the metric.

    A float point set or a distance matrix answers a ball query by testing
    every point, a block of rows at a time (:func:`_within_rows`); it keeps
    no neighbour search, so its ball tables and packings cost time
    quadratic in the points.  A :class:`LatticeNet` (a ``grid_2d`` grid or
    a dyadic line i/2^m) tables its balls from integer stencils instead, a
    line each ball by its first index.  Only the net's own
    :meth:`_greedy_rows` and :meth:`ball` read a ball table; the kernel
    reads its sizes.
    """

    y0: int
    n_points: int
    # the least distance between distinct points, where the net derives it (a
    # lattice's spacing, a matrix's least off-diagonal entry); below it packings
    # need no scan
    min_separation: float | None = None

    def _index(self, n: int, y0: int):
        if n == 0:
            raise ValueError("a net needs at least one point")
        if not 0 <= y0 < n:
            raise ValueError(f"origin index {y0} outside [0, {n})")
        self.y0, self.n_points = y0, n

    def dists_from(self, i, idx) -> np.ndarray:
        """Distances from point i to the points idx; with centers i of shape
        (R,) and idx of shape (R, W) or (1, W), row r is measured from i[r]."""
        raise NotImplementedError

    def dist(self, i: int, j: int) -> float:
        return float(self.dists_from(i, np.array([j]))[0])

    def within(self, i, idx, r: float | Fraction) -> np.ndarray:
        """Whether the points idx lie in the closed ball B(i, r), shaped as
        :meth:`dists_from`; here the computed distance ``<= r``, which numpy
        decides exactly for a ``Fraction`` r (as every net does), per entry."""
        return self.dists_from(i, idx) <= r

    def _balls(self, centers: np.ndarray, r: float):
        """Yield ``(members, sizes)`` for consecutive blocks of centers:
        ``sizes[i]`` is the size of the closed ball B(center, r) of the
        block's i-th center and ``members[i, :sizes[i]]`` its ascending
        indices, the rest of the row padding (a valid index): a table only
        this net's :meth:`_greedy_rows` and :meth:`ball` read.  A block holds
        one row or at most ``_BLOCK_ELEMS`` table entries."""
        for _, inside in _within_rows(self, centers, np.arange(self.n_points), r):
            sizes = inside.sum(axis=1)
            # a stable sort puts each row's members first, in ascending order
            yield np.argsort(~inside, axis=1, kind="stable")[:, :sizes.max()], sizes

    def _ball_classes(self, centers: np.ndarray, r: float) -> np.ndarray:
        """Per center, a key shared only by centers whose closed balls of
        radius r are translates (by index difference) of each other's; a net
        that knows no such symmetry gives each center its own key."""
        return np.arange(len(centers))

    def _greedy_rows(self, members: np.ndarray, sizes: np.ndarray, sep: float, need: int):
        """Greedy packing at separation ``sep`` of the rows of a block of this
        net's own :meth:`_balls` table (a line's holds each run's first index),
        here all a step at a time: each takes every row's first live member and
        retires it and every live member within ``sep``; below ``min_separation``
        a row's first ``need`` members pack.  Returns ``(picks, counts)``: a row
        stops at ``need``, and its picks past its count are unspecified."""
        if self.min_separation is not None and sep < self.min_separation:
            return members[:, :need], np.minimum(sizes, need)
        alive = np.arange(members.shape[1]) < sizes[:, None]
        picks = np.zeros((len(sizes), need), dtype=np.int64)
        counts = np.zeros(len(sizes), dtype=np.int64)
        act = np.arange(len(sizes))
        for step in range(need):
            act = act[alive[act].any(axis=1)]
            if act.size == 0:
                break
            live = alive[act]
            first = live.argmax(axis=1)
            chosen = members[act, first]
            picks[act, step] = chosen
            counts[act] += 1
            if step + 1 < need:
                live &= ~self.within(chosen, members[act], sep)
                live[np.arange(act.size), first] = False
                alive[act] = live
        return picks, counts

    def ball(self, center: int, r: float) -> np.ndarray:
        """Indices (ascending) of net points within closed distance r."""
        (members, sizes), = self._balls(np.array([center]), r)
        return members[0, :sizes[0]]

    def greedy_packing_indices(self, candidates: np.ndarray, delta: float) -> list[int]:
        """Canonical packing: greedy over the candidates in the order given,
        a repeated candidate taken once; one row of the step-at-a-time
        greedy (a line's run-table :meth:`_greedy_rows` reads no such row)."""
        cand = np.fromiter(dict.fromkeys(map(int, candidates)), np.int64)
        picks, counts = MetricSpaceView._greedy_rows(self, cand[None], np.array([cand.size]),
                                                     delta, cand.size)
        return picks[0, :counts[0]].tolist()

    def global_packing_number(self, delta: float) -> int:
        return len(self.greedy_packing_indices(np.arange(self.n_points), delta))


class EuclideanNet(MetricSpaceView):
    def __new__(cls, points=None, *args, **kwargs):
        # the line i/2^m (m <= 26) in index order, shaped (n,) or (n, 1), takes
        # the lattice path: its float distances |i - j|/2^m are exact, so the
        # float and the integer test decide every ball alike
        x = np.asarray(points, dtype=float)
        den = x.size - 1 if x.ndim in (1, 2) and x.size == len(x) else 0
        if cls is EuclideanNet and 0 < den <= 1 << 26 and not den & (den - 1) \
                and np.array_equal(x.reshape(-1, 1), _grid_points(den + 1, 1)):
            cls = LatticeNet
        return super().__new__(cls)

    def __init__(self, points, y0: int | None = None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] == 0:
            raise ValueError(f"net points must form an (n, d) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("net coordinates must be finite")
        self.points = np.ascontiguousarray(pts)
        self._index(len(pts), 0 if y0 is None else int(y0))

    def dists_from(self, i, idx) -> np.ndarray:
        diff = self.points[np.asarray(idx, dtype=np.int64)] - self.points[i][..., None, :]
        return np.sqrt((diff * diff).sum(axis=-1))

    @classmethod
    def grid_2d(cls, side: int) -> "LatticeNet":
        """side x side grid on [0,1]^2 (a net of resolution ~1/side), its
        origin at the center, as a :class:`LatticeNet`."""
        if side < 2:
            raise ValueError(f"grid side must be >= 2, got {side}")
        if side * side > _MAX_POINTS:
            raise ResourceLimitError(
                f"grid side {side} gives {side * side} points, over the limit {_MAX_POINTS}")
        return LatticeNet(_grid_points(side, 2), (side // 2) * side + side // 2)

    @classmethod
    def from_csv(cls, path: str, y0: int = 0) -> "EuclideanNet":
        """Load a net from a CSV of coordinates, one point per row."""
        pts = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(pts, y0=y0)


def _grid_points(side: int, d: int) -> np.ndarray:
    """The grid ``{i/D : 0 <= i <= D}^d``, ``D = side - 1``, in index order
    (the last coordinate fastest), each coordinate the correctly rounded i/D."""
    xs = np.arange(side) / (side - 1)
    return xs[:, None] if d == 1 else np.column_stack([np.repeat(xs, side), np.tile(xs, side)])


@functools.lru_cache(maxsize=1024)
def _lattice_threshold(r: float | Fraction, den: int) -> int:
    """The integer T with ``dx^2 + dy^2 <= T`` exactly when the offset
    (dx, dy)/den lies within r: ``floor((r*den)^2)``, as ``Fraction(r)`` is
    exact; -1 for a negative or NaN r; at most ``2*den^2 + 1``, past every
    offset of the grid, so an int64 comparison cannot overflow."""
    cap = 2 * den * den + 1
    if not r >= 0:
        return -1
    if r >= 2:  # past the grid's diameter; also an infinite r
        return cap
    return min(math.floor((Fraction(r) * den) ** 2), cap)


@functools.lru_cache(maxsize=256)
def _stencil(t: int, den: int) -> tuple[int, ...]:
    """Half-widths of the lattice ball of threshold t: the offsets with
    ``dx^2 + dy^2 <= t`` and both coordinates in [-den, den] are those with
    ``|dx| < len(w)`` and ``|dy| <= w[|dx|]``."""
    if t < 0:
        return ()
    return tuple(min(math.isqrt(t - dx * dx), den)
                 for dx in range(min(math.isqrt(t), den) + 1))


class LatticeNet(EuclideanNet):
    """The full grid ``{i/D : 0 <= i <= D}^d`` in index order, ``side = D + 1``
    points a row: the line (d = 1) or the side x side grid (d = 2, point
    ``i*side + j`` at (i/D, j/D)).  ``points`` is the caller's float array.

    It decides closed balls on the integer coordinates: ``within`` is the
    exact ``dx^2 + dy^2 <= floor((r*D)^2)``, a ball is a stencil of row
    spans clipped at the grid's edge (so centers the edge clips alike have
    translated balls and share one scan), and the global packing sweeps the
    rows as bitmasks.  On the line a ball is one run of indices, and its
    greedy packing takes every (w+1)-th member, w the stencil's half-width.
    """

    def __init__(self, points, y0: int | None = None,
                 min_separation: float | None = None):
        super().__init__(points, y0)
        n, d = self.points.shape
        self.d, self.side = d, n if d == 1 else math.isqrt(n)
        self.den = self.side - 1
        if d > 2 or self.den < 1 or not np.array_equal(self.points, _grid_points(self.side, d)):
            raise ValueError("lattice points must be a full grid of side >= 2 "
                             "in d = 1 or 2, in index order")
        # 1/D rounded; no float lies between it and 1/D, so floats compare alike
        # with both.  A caller's claim is refused past it, then dropped.
        self.min_separation = 1 / self.den
        if min_separation is not None and not min_separation <= self.min_separation:
            raise ValueError(f"min_separation {min_separation} exceeds the lattice "
                             f"spacing 1/{self.den}")

    def _sq_dists(self, i, idx) -> np.ndarray:
        """Squared distances in units of 1/D, shaped as :meth:`dists_from`."""
        i = np.asarray(i, dtype=np.int64)[..., None]
        idx = np.asarray(idx, dtype=np.int64)
        row_i, row = i // self.side, idx // self.side
        dx, dy = row - row_i, (idx - row * self.side) - (i - row_i * self.side)
        return dx * dx + dy * dy

    def dists_from(self, i, idx) -> np.ndarray:
        # monotone in the exact distance, and exact in the comparison with a
        # power of two: sqrt and the division each round once
        return np.sqrt(self._sq_dists(i, idx)) / self.den

    def within(self, i, idx, r: float | Fraction) -> np.ndarray:
        return self._sq_dists(i, idx) <= _lattice_threshold(r, self.den)

    def _widths(self, r: float) -> tuple[int, ...]:
        """The stencil of the radius r ball; on the line, its one row dx = 0."""
        t = _lattice_threshold(r, self.den)
        if self.d == 2 or t < 0:
            return _stencil(t, self.den)
        return (min(math.isqrt(t), self.den),)

    def _ball_classes(self, centers: np.ndarray, r: float) -> np.ndarray:
        # a ball is the stencil clipped by the grid's edge, so the clipping,
        # each side's distance to the edge capped at the stencil's reach h,
        # fixes it up to translation (on the line, a = 0 throughout)
        h = max(self._widths(r), default=0)
        a, b = np.divmod(centers, self.side)
        top, bottom, left, right = (np.minimum(v, h) for v in (a, self.den - a, b, self.den - b))
        return ((top * (h + 1) + bottom) * (h + 1) + left) * (h + 1) + right

    def _balls(self, centers: np.ndarray, r: float):
        if self.d == 1:  # a run of indices, clipped at the line's two ends, by its first
            h = max(self._widths(r), default=-1)
            lo = np.maximum(centers - h, 0)
            sizes = np.maximum(np.minimum(centers + h, self.den) - lo + 1, 0)
            step = max(1, _BLOCK_ELEMS // max(int(sizes.max()), 1))
            for s in range(0, len(centers), step):
                yield lo[s:s + step, None], sizes[s:s + step]
            return
        side, w = self.side, np.array(self._widths(r), dtype=np.int64)
        h = len(w) - 1
        w = np.concatenate([w[:0:-1], w])  # dx = -h .. h
        runs = 2 * w + 1
        # the stencil's offsets in ascending (dx, dy) order, so each center's
        # members come out in ascending index order
        dx = np.repeat(np.arange(-h, h + 1), runs)
        dy = np.arange(len(dx)) - np.repeat(np.cumsum(runs) - runs + w, runs)
        step = max(1, _BLOCK_ELEMS // max(len(dx), 1))
        for s in range(0, len(centers), step):
            ci, cj = np.divmod(centers[s:s + step, None], side)
            a, b = ci + dx, cj + dy
            inside = (a >= 0) & (a < side) & (b >= 0) & (b < side)
            sizes = inside.sum(axis=1)
            rows = np.nonzero(inside)[0]
            members = np.zeros((len(sizes), sizes.max()), dtype=np.int64)
            members[rows, np.arange(rows.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)] \
                = (a * side + b)[inside]
            yield members, sizes

    def _greedy_rows(self, members: np.ndarray, sizes: np.ndarray, sep: float, need: int):
        if self.d == 2:
            return super()._greedy_rows(members, sizes, sep, need)
        step = self._widths(sep)[0] + 1  # each pick retires the next w members
        return members + step * np.arange(need), np.minimum((sizes - 1) // step + 1, need)

    def ball(self, center: int, r: float) -> np.ndarray:
        (members, sizes), = self._balls(np.array([center]), r)  # a line's run by its first
        return members[0, 0] + np.arange(sizes[0]) if self.d == 1 else members[0, :sizes[0]]

    def global_packing_number(self, delta: float) -> int:
        """The greedy packing in index order as a sweep of row bitmasks: each
        row's lowest live point is chosen, and the stencil's row spans
        around it are retired in its row and the rows below."""
        widths = self._widths(delta)
        if not any(widths):
            return self.n_points  # every ball is its center alone
        if self.d == 1:  # the line's one row: every (w+1)-th point
            return self.den // (widths[0] + 1) + 1
        side = self.side
        spans = [((2 << (2 * w)) - 1, w) for w in widths]
        live = [(1 << side) - 1] * side
        count = 0
        for a in range(side):
            row, below = live[a], list(enumerate(spans[1:side - a], a + 1))
            span0, w0 = spans[0]
            while row:
                b = (row & -row).bit_length() - 1
                count += 1
                row &= ~((span0 << b) >> w0)
                for k, (span, w) in below:
                    live[k] &= ~((span << b) >> w)
        return count


# A matrix net checks the triangle inequality on all n^3 triples, one n-by-n
# pass per middle point (about 0.3 s at this many points on one core), and
# refuses larger matrices before checking.
_MAX_MATRIX_POINTS = 1 << 9
# d(i, k) may exceed d(i, j) + d(j, k) by this share of the larger side, a few
# units in the last place: the rounding of distances computed in floats.
_TRIANGLE_SLACK = 8 * np.finfo(float).eps


def _check_matrix_points(n: int) -> None:
    if n > _MAX_MATRIX_POINTS:
        raise ResourceLimitError(f"a distance matrix on {n} points is over the limit "
                                 f"{_MAX_MATRIX_POINTS} for its triangle check")


class MatrixNet(MetricSpaceView):
    def __init__(self, dmatrix, y0: int = 0):
        dm = np.asarray(dmatrix, dtype=float)
        if dm.ndim != 2 or dm.shape[0] != dm.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.isfinite(dm).all():
            raise ValueError("distances must be finite")
        n = dm.shape[0]
        _check_matrix_points(n)
        self._index(n, int(y0))
        if not np.array_equal(dm, dm.T) or np.diagonal(dm).any():
            raise ValueError("distance matrix must be symmetric with zero diagonal")
        shrunk = dm * (1 - _TRIANGLE_SLACK)
        for j in range(n):  # every triple (i, j, k), one pass per middle point
            bad = dm[:, j, None] + dm[j] < shrunk
            if bad.any():
                i, k = np.argwhere(bad)[0]
                raise ValueError(f"triangle inequality fails on ({i},{j},{k})")
        self.dm = dm
        off = dm[~np.eye(n, dtype=bool)]
        self.min_separation = float(off.min()) if off.size else None

    def dists_from(self, i, idx) -> np.ndarray:
        return self.dm[np.asarray(i)[..., None], np.asarray(idx, dtype=np.int64)]

    @classmethod
    def from_csv(cls, path: str, y0: int = 0) -> "MatrixNet":
        """Load an explicit distance matrix from CSV."""
        return cls(np.loadtxt(path, delimiter=",", ndmin=2), y0=y0)


def suggest_origin(view: MetricSpaceView, radius: float = 0.25) -> int:
    """Point with the most neighbors within ``radius`` (a crude stand-in for
    a full-dimension point), ties to the smallest index."""
    sizes = [s for _, s in view._balls(np.arange(view.n_points), radius)]
    return int(np.argmax(np.concatenate(sizes)))


def _first_scales(view: MetricSpaceView, centers: np.ndarray, r: float,
                  alpha: Fraction, lo: int, hi: int, need_of) -> tuple:
    """The net kernel: the first scale j in [lo, hi] at which the greedy
    packing of the closed ball B(center, r), its members in ascending index
    order, at separation 2^-j reaches ``need_of(alpha, j)`` points.

    Centers whose balls are translates form one class, scanned once at its
    first center.  Returns ``(reps, rows, cls)``: each class's first center,
    in center order; one ``(j, ball size, packing)`` row per class, with j
    None where no scale does, the rows ending after the block holding the
    first such class; and each center's class.  A center's packing is its
    class's shifted by ``center - reps[class]``.
    """
    _, first, cls = np.unique(view._ball_classes(centers, r),
                              return_index=True, return_inverse=True)
    order = np.argsort(first)  # classes by first center
    reps = centers[first[order]]
    need_at = functools.cache(functools.partial(need_of, alpha))  # once per scale
    p, q = alpha.as_integer_ratio()
    rows = []
    for members, sizes in view._balls(reps, r):
        found = np.full(len(sizes), -1)
        packs = [()] * len(sizes)
        # need >= 2^floor(alpha*j) exceeds every ball from alpha*j >= size_bits on
        size_bits = int(sizes.max()).bit_length()
        top = hi if p <= 0 else min(hi, -(-size_bits * q // p) - 1)
        for j in range(lo, top + 1):
            need = need_at(j)
            live = np.flatnonzero((found < 0) & (sizes >= need))
            if live.size == 0:
                continue
            picks, counts = view._greedy_rows(members[live], sizes[live], 2.0 ** -j, need)
            for row, pick, count in zip(live.tolist(), picks.tolist(), counts.tolist()):
                if count >= need:
                    found[row] = j
                    packs[row] = tuple(pick)
            if (found >= 0).all():
                break
        rows.extend((None if j < 0 else j, size, pack)
                    for j, size, pack in zip(found.tolist(), sizes.tolist(), packs))
        if (found < 0).any():
            break
    return reps, rows, np.argsort(order)[cls]


# ---------------------------------------------------------------------------
# Level schedule
# ---------------------------------------------------------------------------

# k_{n+1} = j + gap over the witness scale j: the box variant's origin swap
# halves its packing's separation, so it leaves one more scale than packing.
_GAP = {"box": 3, "packing": 2}


@dataclass(frozen=True)
class KSeq:
    """Radius exponents ``k_0 < k_1 < ...`` with their witnesses.

    ``g_values[n] = g(k_n)``; ``witnesses[n]`` is a scale j in
    ``[g(k_n), k_{n+1} - gap]`` whose ball packing certifies the
    ``alphas[n]``-exponent bound.
    """

    variant: str
    alphas: tuple[Fraction, ...]
    ks: tuple[int, ...]
    g_values: tuple[int, ...]
    witnesses: tuple[int, ...]
    g_mode: str

    @property
    def levels(self) -> int:
        return len(self.ks) - 1


def level_schedule(view: MetricSpaceView, alphas: Sequence, variant: str,
                   levels: int | None = None, j_cap: int = 200,
                   g_mode: str = "strict") -> KSeq:
    """Choose ``k_0 = 0 < k_1 < ...`` with certified packing witnesses.

    Box variant: the witness ball sits at the origin point; packing variant:
    every net point must admit a witness, and the recorded j is the largest
    needed.  Raises :class:`ResolutionExhausted` (with the failing level)
    when no admissible scale exists below ``j_cap`` -- on finite nets with
    the strict level function this is the norm beyond a couple of levels.
    """
    if variant not in _GAP:
        raise ValueError(f"unknown variant {variant!r}")
    if g_mode not in ("strict", "linear"):
        raise ValueError(f"unknown g_mode {g_mode!r}")
    alphas = tuple(Fraction(a) for a in alphas)
    if levels is None:
        levels = len(alphas)
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    if len(alphas) < levels:
        raise ValueError("need one alpha per level")
    ks, gs, js = [0], [], []
    for n in range(levels):
        k = ks[n]  # g(k) is the level function of the module note
        g_kn = k + 1 if g_mode == "linear" else max(k + 1, view.global_packing_number(2.0 ** -k))
        alpha = alphas[n]
        centers = np.array([view.y0]) if variant == "box" else np.arange(view.n_points)
        reps, rows, _ = _first_scales(view, centers, 2.0 ** -g_kn, alpha, g_kn, j_cap,
                                      _ceil_pow2)
        for center, (j, size, _) in zip(reps.tolist(), rows):
            if j is None:
                span = (f"scales [{g_kn}, {j_cap}]" if g_kn <= j_cap
                        else f"required scale start {g_kn} beyond the cap {j_cap}")
                raise ResolutionExhausted(
                    f"level {n + 1}: no admissible scale ({span}) packs "
                    f"2^({alpha}*j) points in the radius 2^-{g_kn} ball at "
                    f"point {center} ({size} net points inside)",
                    level=n + 1,
                )
        j_needed = max(j for j, _, _ in rows)
        ks.append(j_needed + _GAP[variant])
        gs.append(g_kn)
        js.append(j_needed)
    return KSeq(variant, alphas, tuple(ks), tuple(gs), tuple(js), g_mode)


# ---------------------------------------------------------------------------
# Ball trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PackingRecord:
    parent_center: int
    ell: int
    selected: tuple[int, ...]  # net indices, the exact-size packing
    phi: Fraction


@dataclass(frozen=True)
class BallLevel:
    n: int                       # prefix length
    k: int                       # ball radius exponent at this level
    centers: tuple[int, ...]
    records: tuple[PackingRecord, ...]  # packings used to enter this level


@dataclass(frozen=True)
class BallTree:
    view: MetricSpaceView
    kseq: KSeq
    prefix: str
    levels: tuple[BallLevel, ...]

    @property
    def variant(self) -> str:
        return self.kseq.variant

    @property
    def centers(self) -> tuple[int, ...]:
        return self.levels[-1].centers

    @property
    def m(self) -> int:
        return len(self.centers)

    def center_points(self) -> np.ndarray:
        if isinstance(self.view, EuclideanNet):
            return self.view.points[np.array(self.centers, dtype=np.int64)]
        raise TypeError("coordinate trace needs a Euclidean net")


def root_tree(view: MetricSpaceView, kseq: KSeq, variant: str) -> BallTree:
    """The one-ball tree at the origin; the variant is the schedule's."""
    if kseq.variant != variant:
        raise ValueError(f"a {variant} member needs a {variant} schedule, "
                         f"got a {kseq.variant} schedule")
    return BallTree(view, kseq, "", (BallLevel(0, kseq.ks[0], (view.y0,), ()),))


def _swap_in_origin(view: MetricSpaceView, s: list[int], ell: int) -> list[int]:
    """The two-case origin swap: returns a packing T at separation 2^-(ell+1)
    with the origin included and the same cardinality."""
    y0 = view.y0
    if y0 in s:
        return list(s)
    arr = np.array(s, dtype=np.int64)
    near = np.flatnonzero(view.within(y0, arr, 2.0 ** -(ell + 1)))
    if not near.size:
        # S + {y0} still packs at the halved separation; drop the point
        # closest to the origin to keep the cardinality.
        drop = s[int(np.argmin(view.dists_from(y0, arr)))]
        return sorted([p for p in s if p != drop] + [y0])
    # the packing separation of S makes the near point unique
    return sorted([p for p in s if p != s[near[0]]] + [y0])


def _packings(view, centers: Sequence[int], radius: float, phi: Fraction,
              lo: int, hi: int, who: str) -> list:
    """``(ell, packing)`` per center: the first scale in [lo, hi] whose greedy
    packing of the radius ball reaches ``floor(2^(phi*ell))`` points, with
    those points.  ``who`` names the step in the error and may use ``{y}``."""
    arr = np.array(centers, dtype=np.int64)
    reps, rows, cls = _first_scales(view, arr, radius, phi, lo, hi, floor_pow2)
    reps = reps.tolist()
    for y, (ell, _, _) in zip(reps, rows):
        if ell is None:
            raise ResolutionExhausted(
                f"{who.format(y=y)}: no scale in [{lo}, {hi}] yields a "
                f"floor(2^({phi}*l))-point packing in the radius {radius} ball "
                f"at point {y}"
            )
    # a center's packing is its class's, shifted from the class's first center
    return [(rows[k][0], tuple(p + y - reps[k] for p in rows[k][2]))
            for y, k in zip(arr.tolist(), cls.tolist())]


def _check_separation(view, centers: Sequence[int], threshold: float, what: str):
    """Refuse the first pair i < j of centers (by i, then j) within
    ``threshold``, checked a block of rows of the pair table at a time."""
    arr = np.array(centers, dtype=np.int64)
    for s, close in _within_rows(view, arr[:-1], arr, threshold):  # the last meets no later one
        close &= np.arange(len(arr)) > np.arange(s, s + len(close))[:, None]
        if close.any():
            i, j = np.argwhere(close)[0] + (s, 0)
            raise InvariantViolation(
                f"{what}: centers {centers[i]} and {centers[j]} are "
                f"{view.dist(int(arr[i]), int(arr[j]))} apart, need > {threshold}"
            )


def _next_level(tree: BallTree, variant: str, varphi) -> tuple[int, Fraction, int, int]:
    """``(n, phi, g(k_n), k_{n+1})`` for the extension of a ``variant`` tree
    of prefix length n, ``phi = min(varphi, alpha_n)``; refuses a tree of
    the other variant or one at the end of its schedule."""
    if tree.variant != variant:
        raise ValueError(f"a {variant} extension needs a {variant} tree, "
                         f"got a {tree.variant} tree")
    n, kseq = len(tree.prefix), tree.kseq
    if n >= kseq.levels:
        raise ResolutionExhausted(f"schedule has only {kseq.levels} levels")
    return n, min(Fraction(varphi), kseq.alphas[n]), kseq.g_values[n], kseq.ks[n + 1]


def extend_box(tree: BallTree, c: int, varphi) -> BallTree:
    """One box-variant extension: pack inside the origin ball, swap the
    origin in at halved separation, keep all older centers."""
    n, phi, g_kn, k_next = _next_level(tree, "box", varphi)
    (ell, s), = _packings(tree.view, [tree.view.y0], 2.0 ** -g_kn, phi,
                          g_kn, k_next - _GAP["box"], "box extension")
    t_set = _swap_in_origin(tree.view, s, ell)
    _check_separation(tree.view, t_set, 2.0 ** -(ell + 1), "swapped packing")
    old = tree.centers
    fresh = [p for p in t_set if p not in old]
    centers = tuple(list(old) + sorted(fresh))
    if len(centers) != len(old) + len(t_set) - 1:
        raise InvariantViolation("box bookkeeping: m(t) != m(s) + #T - 1")
    _check_separation(tree.view, centers, 2.0 ** (2 - k_next), "box level")
    rec = PackingRecord(tree.view.y0, ell, tuple(t_set), phi)
    lvl = BallLevel(n + 1, k_next, centers, (rec,))
    return BallTree(tree.view, tree.kseq, tree.prefix + str(c), tree.levels + (lvl,))


def extend_packing(tree: BallTree, c: int, varphi) -> BallTree:
    """One packing-variant extension: refine every ball with its own scale;
    old centers are replaced by the union of the per-ball packings."""
    n, phi, g_kn, k_next = _next_level(tree, "packing", varphi)
    found = _packings(tree.view, tree.centers, 2.0 ** -g_kn, phi, g_kn,
                      k_next - _GAP["packing"], "packing extension at {y}")
    records = tuple(PackingRecord(y, ell, s, phi) for y, (ell, s) in zip(tree.centers, found))
    centers = tuple(sorted({p for r in records for p in r.selected}))
    if len(centers) != sum(len(r.selected) for r in records):
        raise InvariantViolation("packing balls overlapped; union lost points")
    _check_separation(tree.view, centers, 2.0 ** (2 - k_next), "packing level")
    lvl = BallLevel(n + 1, k_next, centers, records)
    return BallTree(tree.view, tree.kseq, tree.prefix + str(c), tree.levels + (lvl,))


def family_member(x, spec: TargetSpec, view: MetricSpaceView, variant: str,
                  levels: int, kseq: KSeq | None = None,
                  varphi: VarphiMap | None = None,
                  g_mode: str = "strict") -> BallTree:
    """Construction trace of the member at branch ``x`` (the deepest level's
    centers are the finite-depth trace of C(x))."""
    if spec.a < 0:
        raise ValueError(f"target value {spec.a} is negative; a family needs values >= 0")
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    x = as_word(x)
    if len(x) < levels:
        raise ValueError(f"branch must supply {levels} bits")
    if kseq is None:
        kseq = level_schedule(view, [spec.b] * levels, variant, levels,
                              g_mode=g_mode)
    vm = varphi or VarphiMap(spec)
    tree = root_tree(view, kseq, variant)
    step = extend_box if variant == "box" else extend_packing
    for i in range(levels):
        tree = step(tree, x[i], vm.value(x.prefix(i + 1)))
    return tree


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyDimReport:
    cardinalities_exact: bool
    separations_ok: bool
    nested: bool
    origin_anchored: bool     # box variant only; True for packing
    upper_chain_ok: bool      # N_l(C) <= l + 2^(phi*l) at realized scales
    count_bound_ok: bool      # m(x[:n]) <= g(k_n), needed by the upper chain
    local_richness_ok: bool   # packing variant: per-ball mandated packings
    g_mode: str
    details: tuple[str, ...] = ()


def family_dim_report(tree: BallTree) -> FamilyDimReport:
    """Re-verify everything the construction stored in one pass over the
    (parent level, level) pairs: each record's size, separation, covering
    chain and (packing variant) parent ball; each level's separation,
    nesting and its parent level's count bound.  Notes come grouped by flag."""
    view, kseq, box = tree.view, tree.kseq, tree.variant == "box"
    cards, seps, nest, chain, rich = [], [], [], [], []
    count_ok = True

    def separated(centers, threshold: float, what: str):
        try:
            _check_separation(view, centers, threshold, what)
        except InvariantViolation as e:
            seps.append(str(e))

    for n, (prev, cur) in enumerate(zip(tree.levels, tree.levels[1:])):
        count_ok &= len(prev.centers) <= kseq.g_values[n]
        pts = np.array(cur.centers, dtype=np.int64)
        # a greedy 2^-l packing of the centers covers them with balls of that radius
        n_balls = {ell: len(view.greedy_packing_indices(pts, 2.0 ** -ell))
                   for ell in {rec.ell for rec in cur.records}}
        for rec in cur.records:
            ell, size = rec.ell, floor_pow2(rec.phi, rec.ell)
            if len(rec.selected) != size:
                cards.append(f"level {cur.n}: packing size {len(rec.selected)} != {size}")
            # the box variant's origin swap halves the separation
            separated(rec.selected, 2.0 ** -(ell + box), f"record at level {cur.n}")
            if n_balls[ell] > ell + size + 1:
                chain.append(f"level {cur.n}: N_{ell}(C) ~ {n_balls[ell]} exceeds l + 2^(phi*l)")
            if not (box or view.within(rec.parent_center, np.array(rec.selected, dtype=np.int64),
                                       2.0 ** -kseq.g_values[n]).all()):
                rich.append(f"level {cur.n}: packing leaks its parent ball")
        separated(cur.centers, 2.0 ** (2 - cur.k), f"level {cur.n}")
        # B(y, r_cur) lies in B(p, r_prev) when d(y, p) <= r_prev - r_cur
        radius = Fraction(1, 1 << prev.k) - Fraction(1, 1 << cur.k)
        for s, close in _within_rows(view, pts, np.array(prev.centers, dtype=np.int64), radius):
            nest += [f"center {y} at level {cur.n} escapes every parent ball"
                     for y in pts[s:s + len(close)][~close.any(axis=1)].tolist()]
    anchored = not box or all(view.y0 in lvl.centers for lvl in tree.levels)
    return FamilyDimReport(not cards, not seps, not nest, anchored, not chain, count_ok,
                           not rich, kseq.g_mode, (*cards, *seps, *nest, *chain, *rich))


# ---------------------------------------------------------------------------
# Assembly for target sets reaching the top dimension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyAssembly:
    kind: str                                # "empty" | "whole" | "layered"
    beta0: Fraction | None = None
    stage_targets: tuple[TargetSpec, ...] = ()
    stage_radii: tuple[float, ...] = ()
    includes_whole: bool = False
    k0_member: BallTree | None = None


def _clip_target(target: TargetSpec, bound: Fraction) -> TargetSpec:
    if target.mode == "finite_set":
        vals = [v for v in target.values if v <= bound]
        return TargetSpec.finite_set(vals)
    if target.mode == "interval_union":
        ivs = [(lo, min(hi, bound)) for lo, hi in target.intervals if lo <= bound]
        return TargetSpec.interval_union(ivs)
    raise ValueError("assembly needs an explicit (finite/interval) presentation")


def packing_family_assembly(target: TargetSpec | None, view: MetricSpaceView,
                            dim_top, stages: int = 3,
                            k0_member: BallTree | None = None) -> FamilyAssembly:
    """Three-part family plan: a clipped family near the bottom value, the
    whole space for the top, and per-stage families in shrinking origin
    balls glued over the bottom member."""
    if target is None:
        return FamilyAssembly("empty")
    dim_top = Fraction(dim_top)
    if target.a == target.b == dim_top:
        return FamilyAssembly("whole", includes_whole=True)
    if target.a >= dim_top:
        raise ValueError("need a target value below the top dimension "
                         "or the top singleton")
    beta0 = target.a
    betas = [dim_top - (dim_top - beta0) / (1 << n) for n in range(stages)]
    stage_targets = tuple(_clip_target(target, b) for b in betas)
    stage_radii = tuple(2.0 ** -n for n in range(stages))
    if k0_member is not None and view.y0 not in k0_member.centers:
        raise ValueError("the bottom member must pass through the origin point")
    return FamilyAssembly("layered", beta0, stage_targets, stage_radii,
                          includes_whole=True, k0_member=k0_member)
