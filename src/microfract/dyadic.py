"""Finite-depth dyadic-cube representations of compact subsets of [0,1]^d.

A :class:`DyadicSet` is a set of level-``depth`` cells of the unit cube,
its leaves; every ancestor of a leaf counts as alive.  A set stores only
the sorted Morton codes of its leaves, every operation works on them, and
coordinate tuples are a view derived on demand.  All operations are pure
and exact: coordinates are integers, distances are ``Fraction``s.

For unions of same-grid cells the sup-metric Hausdorff distance is
attained on the half-step lattice (every constraint surface is
axis-aligned at half-cell coordinates), so it is a whole number of half
leaf sides.  Where the half-step lattice has at most ``_GRID_BUDGET``
points, both sets become boolean grids on it and a chessboard distance
transform, probed by binary search with box counts from prefix sums,
finds it.  Otherwise it is found by branch-and-bound on pairs of alive
cells, one of each set, coarse to fine on both sets' codes, which deep
sparse sets need (depth 30 has no grid).  Integer bounds on each
pair's distances drop the pairs that cannot bring a point nearer to the
other set and the cells that cannot hold its farthest point; only the
leaves left are scanned, on their half-step lattice, against the leaves
left paired with them.  The bounds hold for every point, so what is
dropped never changes the maximum and the result is exact.  The pair
frontier is expanded in chunks of at most 2^20 child pairs (whole runs of
one cell's pairs), so memory stays bounded on dense, nearly equal sets.
In one dimension the sup metric is the Euclidean one, and an interval
sweep computes the distance.
"""

from __future__ import annotations

import json
import re
from collections.abc import Set
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product as iter_product
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError
from .seq import Word, as_word

__all__ = [
    "DyadicSet",
    "kx_set",
    "full_cube",
    "singleton_chain",
    "product",
    "hausdorff_distance",
    "zoom",
    "decompose",
    "verify_sandwich",
    "to_json",
    "from_json",
    "pack_bits",
    "unpack_bits",
]

_MAX_LEAVES = 1 << 24


_CODE_BITS = 62


@lru_cache(maxsize=None)
def _spread_steps(level: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The magic-number bit spread that moves bit j of a ``level``-bit integer
    to bit ``j*d`` (Anderson, "Bit Twiddling Hacks", "Interleave bits by
    Binary Magic Numbers"): ``masks[0]`` keeps the level bits, and step k ORs
    in a copy shifted left by ``shifts[k]`` and keeps ``masks[k + 1]``, which
    halves the blocks of bits kept together.  Run backwards, it gathers."""
    masks, shifts, b = [(1 << level) - 1], [], 1 << max(level - 1, 0).bit_length()
    while b > 1:
        b //= 2
        shifts.append(b * (d - 1))
        masks.append(sum(1 << (j // b * b * d + j % b) for j in range(level)))
    return tuple(masks), tuple(shifts)


def _morton(coords: np.ndarray, level: int) -> np.ndarray:
    """Morton codes of an (m, d) array of cells below level ``level``: bit j
    of axis a goes to bit ``j*d + d-1-a``, so axis 0 takes the high bit of
    each d-bit group and a cell's children ``code << d | o`` follow in
    ``pack_bits``' child order."""
    m, d = coords.shape
    if d == 1:
        return coords[:, 0].astype(np.int64)
    masks, shifts = _spread_steps(level, d)
    code = np.zeros(m, dtype=np.int64)
    for a in range(d):
        c = coords[:, a].astype(np.int64) & masks[0]
        for shift, mask in zip(shifts, masks[1:]):
            c = (c | c << shift) & mask
        code |= c << d - 1 - a
    return code


def _unmorton(codes: np.ndarray, level: int, d: int) -> np.ndarray:
    """The (m, d) coordinates of level-``level`` Morton codes."""
    if d == 1:
        return codes.astype(np.int64)[:, None]
    masks, shifts = _spread_steps(level, d)
    coords = np.empty((codes.shape[0], d), dtype=np.int64)
    for a in range(d):
        c = codes >> d - 1 - a & masks[-1]
        for shift, mask in zip(shifts[::-1], masks[-2::-1]):
            c = (c | c >> shift) & mask
        coords[:, a] = c
    return coords


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array."""
    keep = np.ones(codes.shape[0], dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def _check_shape(d: int, depth: int):
    if d < 1 or depth < 0:
        raise ValueError(f"need d >= 1 and depth >= 0, got d={d}, depth={depth}")
    if d * max(depth, 1) > _CODE_BITS:
        raise ResourceLimitError(f"cells at d={d}, depth={depth} need "
                                 f"{d * max(depth, 1)}-bit codes, over {_CODE_BITS}")


@dataclass(frozen=True, init=False, eq=False)
class DyadicSet:
    """A union of level-``depth`` cells of [0,1]^d, its leaves.

    A set stores only :attr:`codes`, the sorted distinct int64 Morton codes
    of its leaves (a linear quadtree, read-only); a level-m ancestor is
    ``code >> d*(depth-m)``, so the leaves under a cell form one slice.
    :attr:`leaves` is a set view of the coordinate tuples over the codes;
    the constructor turns the tuples it is given into codes.
    """

    d: int
    depth: int
    codes: np.ndarray

    def __init__(self, d: int, depth: int, leaves):
        # each leaf is d Python or numpy integers, not bools; one np.fromiter
        # converts them, and anything else leaves a 1-D array _from_cells refuses
        leaves, cells = list(leaves), np.zeros(0, dtype=np.int64)
        with suppress(TypeError, ValueError, OverflowError):  # not sized, past int64
            if {d}.issuperset(map(len, leaves)) and all(
                    t is int or issubclass(t, np.integer)
                    for t in set(map(type, chain.from_iterable(leaves)))):
                cells = np.fromiter(chain.from_iterable(leaves), np.int64,
                                    len(leaves) * d).reshape(-1, d)
        self.__dict__.update(_from_cells(d, depth, cells).__dict__)

    def __eq__(self, other):
        return (isinstance(other, DyadicSet) and (self.d, self.depth) == (other.d, other.depth)
                and np.array_equal(self.codes, other.codes))

    def __hash__(self):
        return hash((self.d, self.depth, self.codes.tobytes()))

    @property
    def leaves(self) -> Leaves:
        """The leaves as a read-only set of coordinate tuples, a view over the codes."""
        return Leaves(self)

    @property
    def is_empty(self) -> bool:
        return not self.codes.shape[0]

    def _level_codes(self, m: int) -> np.ndarray:
        if not 0 <= m <= self.depth:
            raise ValueError(f"level {m} out of range for depth {self.depth}")
        if m == self.depth:  # the codes are already distinct
            return self.codes
        return _distinct(self.codes >> (self.d * (self.depth - m)))

    def level_cells(self, m: int) -> frozenset:
        """Alive cells at level ``m`` <= depth (ancestors of the leaves), as tuples."""
        cells = _unmorton(self._level_codes(m), m, self.d)
        return frozenset(zip(*(col.tolist() for col in cells.T)))

    def count(self, m: int) -> int:
        return self._level_codes(m).shape[0]

    def alive(self, level: int, coords) -> bool:
        """Whether the level-``level`` cell at ``coords`` (level <= depth)
        is alive: one Morton encode and one binary search.  Coordinates that
        are not d integers in [0, 2^level), each equal to its ``int``, name
        no cell and answer False."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} out of range for depth {self.depth}")
        try:  # the integers the probe equals, coordinate by coordinate
            coords = tuple(coords)
            cell = tuple(map(int, coords))
        except (TypeError, ValueError, OverflowError):
            return False
        if len(cell) != self.d or cell != coords or not all(0 <= c < 1 << level for c in cell):
            return False
        shift = self.d * (self.depth - level)
        z = int(_morton(np.array([cell], dtype=np.int64), level)[0])
        i = np.searchsorted(self.codes, z << shift)
        return bool(i < self.codes.shape[0] and int(self.codes[i]) >> shift == z)


class Leaves(Set):
    """The leaves of a :class:`DyadicSet` as a read-only set of coordinate
    tuples.  It stores only its set: ``len`` and ``in``, and ``==`` and
    ``<=`` against the leaves of a set on the same grid, are answered on
    the Morton codes; iteration decodes the tuples.  It compares, hashes
    and combines (``|``, ``&``, ``-``, giving a ``frozenset``) like a
    ``frozenset`` of the same tuples."""

    __slots__ = ("_set",)

    def __init__(self, s: DyadicSet):
        self._set = s

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def __len__(self) -> int:
        return self._set.codes.shape[0]

    def __iter__(self):
        return iter(self._set.level_cells(self._set.depth))

    def __contains__(self, cell) -> bool:
        hash(cell)  # an unhashable probe raises TypeError, as with a frozenset
        return isinstance(cell, tuple) and self._set.alive(self._set.depth, cell)

    def _same_grid(self, other) -> bool:
        return isinstance(other, Leaves) and \
            (self._set.d, self._set.depth) == (other._set.d, other._set.depth)

    def __eq__(self, other):
        if self._same_grid(other):
            return np.array_equal(self._set.codes, other._set.codes)
        return Set.__eq__(self, other)

    def __le__(self, other):
        if self._same_grid(other):
            return bool(np.isin(self._set.codes, other._set.codes, assume_unique=True).all())
        return Set.__le__(self, other)

    def __ge__(self, other):
        if self._same_grid(other):
            return other.__le__(self)
        return Set.__ge__(self, other)

    def __hash__(self):
        return hash(self._set.level_cells(self._set.depth))

    def __repr__(self) -> str:
        return f"Leaves({set(self)!r})"


def _from_codes(d: int, depth: int, codes: np.ndarray) -> DyadicSet:
    """The set whose sorted distinct Morton codes are ``codes``."""
    _check_shape(d, depth)
    s = object.__new__(DyadicSet)
    codes.flags.writeable = False
    s.__dict__.update(d=d, depth=depth, codes=codes)
    return s


def _from_cells(d: int, depth: int, cells: np.ndarray) -> DyadicSet:
    """The set of the rows of an integer array, after a check that each is a
    level-``depth`` cell of [0,1]^d; repeated rows count once."""
    _check_shape(d, depth)
    if cells.ndim != 2 or cells.shape[1] != d or cells.size and (
            cells.min() < 0 or cells.max() >> depth):
        raise ValueError(f"leaves of a set at d={d}, depth={depth} are "
                         f"{d} integers in [0, 2^{depth})")
    return _from_codes(d, depth, _distinct(np.sort(_morton(cells, depth))))


def kx_set(x: Word | str) -> DyadicSet:
    """Digit-restriction set of a word prefix: d=1, depth=len(x).

    Binary digit ``i`` of a leaf's left endpoint is forced to 0 where
    ``x(i) = 0`` and free where ``x(i) = 1``, so there are exactly
    ``2^sigma(x)`` leaves.
    """
    x = as_word(x)
    n = len(x)
    if x.sigma > 24 or n > _CODE_BITS:
        raise ResourceLimitError(f"kx_set would have 2^{x.sigma} leaves of depth {n} "
                                 f"(limits 2^24 and {_CODE_BITS})")
    # digit i of a leaf is bit n-1-i of its code, as bit i of x is of x.v
    codes, v = np.zeros(1, dtype=np.int64), x.v
    while v:  # low bits first, so the codes stay sorted
        low = v & -v
        codes = np.concatenate([codes, codes | low])
        v ^= low
    return _from_codes(1, n, codes)


def full_cube(d: int, depth: int) -> DyadicSet:
    """All cells of [0,1]^d at ``depth`` alive."""
    _check_shape(d, depth)
    if (1 << (d * depth)) > _MAX_LEAVES:
        raise ResourceLimitError(f"full cube at d={d}, depth={depth} too large")
    return _from_codes(d, depth, np.arange(1 << (d * depth), dtype=np.int64))


def singleton_chain(d: int, depth: int, corner: tuple[int, ...] | None = None) -> DyadicSet:
    """The single leaf cell at ``corner`` (default: the origin cell)."""
    if corner is None:
        return _from_codes(d, depth, np.zeros(1, dtype=np.int64))
    return DyadicSet(d, depth, [tuple(map(int, corner))])


def product(a: DyadicSet, b: DyadicSet) -> DyadicSet:
    """Cartesian product; leaf count multiplies, ambient dimensions add."""
    if a.depth != b.depth:
        raise ValueError(f"depth mismatch: {a.depth} != {b.depth}")
    if a.codes.shape[0] * b.codes.shape[0] > _MAX_LEAVES:
        raise ResourceLimitError("product would exceed the leaf budget")
    # a Morton code is the OR of its axes' bits, so a leaf (la, lb) has the
    # code of (la, 0) OR the code of (0, lb)
    high = _morton(np.pad(_cells(a), ((0, 0), (0, b.d))), a.depth)
    low = _morton(np.pad(_cells(b), ((0, 0), (a.d, 0))), a.depth)
    return _from_codes(a.d + b.d, a.depth, np.sort((high[:, None] | low).ravel()))


# ---------------------------------------------------------------------------
# Hausdorff metric
# ---------------------------------------------------------------------------

def _intervals_half_units(s: DyadicSet) -> tuple[np.ndarray, np.ndarray]:
    """Maximal closed intervals of a 1-D cell union, in units of 2^-(depth+1):
    their starts and their ends, both increasing."""
    cs = s.codes
    cut = np.flatnonzero(np.diff(cs) != 1)  # runs of adjacent cells end here
    return 2 * np.r_[cs[0], cs[cut + 1]], 2 * np.r_[cs[cut], cs[-1]] + 2


def _directed_1d(a_iv, b_iv) -> int:
    """The largest distance from a point of A to B, both given as intervals."""
    (a_lo, a_hi), (b_lo, b_hi) = a_iv, b_iv
    # Inside a gap of B the distance peaks at the midpoint; off-midpoint
    # optima inside A are interval endpoints, also candidates.
    mids = (b_hi[:-1] + b_lo[1:]) // 2
    j = np.searchsorted(a_lo, mids, "right") - 1
    x = np.concatenate([a_lo, a_hi, mids[(j >= 0) & (mids <= a_hi[j])]])
    # a point's nearest B intervals: the last one starting at or before it, and the next
    k, n, far = np.searchsorted(b_lo, x, "right"), b_lo.shape[0], np.iinfo(np.int64).max
    left = np.where(k > 0, x - b_hi[k - 1], far)  # <= 0 inside that interval
    right = np.where(k < n, b_lo[np.minimum(k, n - 1)] - x, far)
    return int(np.minimum(left, right).clip(0).max())


def _cells(s: DyadicSet) -> np.ndarray:
    return _unmorton(s.codes, s.depth, s.d)


# Child pairs one chunk of the pair frontier expands to at a time: whole
# A-cell runs, one at least.  A chunk's arrays then hold up to d * 2^20
# elements, less than the 2^22-element blocks of the candidate scan this
# kernel replaced.
_PAIR_BUDGET = 1 << 20


def _ranges(lo: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """The ranges ``lo[i], ..., lo[i] + cnt[i] - 1`` (``cnt`` nonempty), concatenated."""
    ends = cnt.cumsum()
    return np.arange(ends[-1]) + (lo - ends + cnt).repeat(cnt)


def _tree(s: DyadicSet, top: int) -> tuple[list[np.ndarray], ...]:
    """The alive cells of ``s`` from level ``top``, where it has one, to its
    leaves, in Morton order.  Per level m >= top: the cells' (count, d)
    coordinates, and whether each cell is short of some of its leaves; per
    level m < depth: where each cell's run of children starts at level
    m + 1, the last run's end appended.  A child's coordinates are twice
    its parent's plus the low d bits of its code."""
    d, codes, firsts = s.d, [s.codes], []
    leaf_runs = [np.arange(s.codes.shape[0] + 1)]  # where each cell's leaves start
    for _ in range(s.depth - top):
        up = codes[-1] >> d
        new = np.ones(up.shape[0] + 1, dtype=bool)
        np.not_equal(up[1:], up[:-1], out=new[1:-1])
        firsts.append(new.nonzero()[0])
        codes.append(up[firsts[-1][:-1]])
        leaf_runs.append(leaf_runs[-1][firsts[-1]])
    short = [run[1:] - run[:-1] < 1 << d * i for i, run in enumerate(leaf_runs)]
    firsts.reverse()
    xs, bits = [_unmorton(codes[-1], top, d)], np.arange(d - 1, -1, -1)
    for kids, first in zip(codes[-2::-1], firsts):
        xs.append(2 * xs[-1].repeat(first[1:] - first[:-1], axis=0) + (kids[:, None] >> bits & 1))
    return xs, short[::-1], firsts


def _directed_sup(a: DyadicSet, b: DyadicSet) -> int:
    """The largest sup-metric distance from a point of A to B, in half-units
    of a leaf side, by branch-and-bound on pairs of alive cells: the path
    :func:`hausdorff_distance` takes in d >= 2 when the half-step lattice
    has more than ``_GRID_BUDGET`` points.

    Level by level, each A-cell keeps a run of B-cells.  For a pair whose
    cells lie D cells of side S apart on the chessboard, ``max(D-1, 0)*S``
    bounds every point-to-point distance between them from below, and
    ``(D+1)*S`` (``D*S`` when the B-cell holds all its leaves) bounds from
    above the distance from each point of the A-cell to the B leaves in the
    B-cell.  A pair whose lower bound reaches its A-cell's least upper
    bound, which another of its pairs sets, brings no point of the A-cell
    nearer to B, and an A-cell whose least upper bound is below the largest
    least lower bound of any A-cell holds no point at the maximum: both are
    dropped (the early break of Taha and Hanbury, IEEE TPAMI 37(11), 2015),
    and so is an A-cell at distance 0.  Each leaf left is scanned exactly,
    on its half-step lattice against its own B leaves.
    """
    if np.isin(a.codes, b.codes).all():
        return 0
    # start at the deepest level (above the leaves) where A and B are one cell each
    split = max(int(s.codes[0] ^ s.codes[-1]).bit_length() for s in (a, b))
    top = min(a.depth + -split // a.d, a.depth - 1)
    (ax, _, af), (bx, b_short, bf) = _tree(a, top), _tree(b, top)
    n = a.depth - top  # levels below the start
    # the frontier: A-cells ga, the i-th with the B-cells pb[gs[i]:gs[i+1]]
    ga, gs, pb = np.zeros(1, np.int64), np.array([0, 1]), np.zeros(1, np.int64)
    low = best = 0  # low: the largest least lower bound yet, in half-units
    for m in range(n):
        side, leaf = 1 << (n - m), m + 1 == n  # level m+1's cell side, in half-units
        a0, b0 = af[m][ga], bf[m][pb]  # where the cells' children start
        ca, cb = af[m][ga + 1] - a0, bf[m][pb + 1] - b0
        if not leaf and ca.max() == cb.max() == 1:  # a level of single children: no pruning
            ga, pb = a0, b0
            continue
        tb = np.add.reduceat(cb, gs[:-1])  # children of each A-cell's B-cells
        cost = ca * tb
        cuts = [0, ga.shape[0]]
        if cost.sum() > _PAIR_BUDGET:
            cuts[1:1] = (np.diff((cost.cumsum() - cost) // _PAIR_BUDGET).nonzero()[0] + 1).tolist()
        parts = []
        for g0, g1 in zip(cuts[:-1], cuts[1:]):
            # each child of an A-cell meets every child of that A-cell's B-cells
            kids_b = _ranges(b0[gs[g0]:gs[g1]], cb[gs[g0]:gs[g1]])
            t, c = tb[g0:g1], ca[g0:g1]
            na, size = _ranges(a0[g0:g1], c), t.repeat(c)
            nb = kids_b[_ranges((t.cumsum() - t).repeat(c), size)]
            gap = np.abs(ax[m + 1][na.repeat(size)] - bx[m + 1][nb]).max(axis=1)
            start = size.cumsum() - size
            near = np.minimum.reduceat(gap, start)  # less 1: the least lower bound, in sides
            far = np.minimum.reduceat(gap + b_short[m + 1][nb], start)  # least upper bound
            low = max(low, (int(near.max()) - 1) * side)
            keep_a = far * side >= max(low, 1)
            keep = (gap <= far.repeat(size)) & keep_a.repeat(size)
            na, nb, size = na[keep_a], nb[keep], np.add.reduceat(keep, start)[keep_a]
            if not leaf:
                parts.append((na, size, nb))
            elif na.shape[0]:
                # a leaf's half-lattice points 2x + (0, 1 or 2) less B centres 2y + 1
                twice, start = 2 * (ax[n][na.repeat(size)] - bx[n][nb]), size.cumsum() - size
                for off in iter_product((-1, 0, 1), repeat=a.d):
                    dist = np.abs(twice + off).max(axis=1)
                    best = max(best, int(np.minimum.reduceat(dist, start).max()))
        if not leaf:
            ga, size, pb = (np.concatenate(p) for p in zip(*parts))
            gs = np.concatenate(([0], size.cumsum()))
    return max(best - 1, 0)


def _half_lattice(s: DyadicSet) -> np.ndarray:
    """The half-step lattice points of the closed cells of ``s``, as a
    boolean grid of 2^(depth+1) + 1 points an axis: the 3^d points
    ``2x + {0, 1, 2}^d`` of each cell x, about its centre ``2x + 1``."""
    n = (2 << s.depth) + 1
    strides = n ** np.arange(s.d - 1, -1, -1)
    around = np.array(list(iter_product((-1, 0, 1), repeat=s.d))) @ strides
    grid = np.zeros(n ** s.d, dtype=bool)
    grid[((2 * _cells(s) + 1) @ strides)[:, None] + around] = True
    return grid.reshape((n,) * s.d)


def _lattice_directed(ga: np.ndarray, gb: np.ndarray) -> int:
    """The largest sup-metric distance from a point of A to B, in half-units
    of a leaf side, from their :func:`_half_lattice` grids.

    The nearest point of a closed lattice cube to a lattice point is a
    lattice point, so this is the least t at which the box ``[p-t, p+t]^d``
    about every point p of A, clipped to the grid, holds a point of B: the
    chessboard distance transform of Rosenfeld and Pfaltz (J. ACM 13(4),
    1966), found by binary search on t.  Each probe counts B in every box
    with 2^d gathers from B's prefix sums, and drops the points it covers:
    a point covered at t is covered at every larger t."""
    far = np.flatnonzero(ga & ~gb)
    if not far.shape[0]:
        return 0
    n, d = gb.shape[0], gb.ndim
    sums = np.zeros((n + 1,) * d, dtype=np.int32)  # B's points below each index
    sums[(slice(1, None),) * d] = gb
    for axis in range(d):
        np.cumsum(sums, axis, out=sums)
    sums, strides = sums.ravel(), [(n + 1) ** (d - 1 - a) for a in range(d)]
    # the points' coordinates, each times its axis's stride in the sums
    pts = [c * s for c, s in zip(np.unravel_index(far, gb.shape), strides)]
    lo, hi = 0, n - 1  # the distance is in (lo, hi]: at n - 1 each box holds the grid
    while hi - lo > 1:
        t = (lo + hi) // 2
        # the boxes' 2^d corners in the sums, with their inclusion-exclusion signs
        corners = [(0, 1)]
        for p, s in zip(pts, strides):
            below, top = np.maximum(p - t * s, 0), np.minimum(p + (t + 1) * s, n * s)
            corners = [(i + below, -g) for i, g in corners] + [(i + top, g) for i, g in corners]
        held = 0
        for i, g in corners:
            held = held + sums[i] if g > 0 else held - sums[i]
        missed = held == 0
        if missed.any():
            lo, pts = t, [p[missed] for p in pts]
        else:
            hi = t
    return hi


# Half-lattice points, (2^(depth+1) + 1)^d, up to which hausdorff_distance
# takes the lattice path in d >= 2; each grid takes a byte a point, the
# prefix sums four.  On five random cells a set the two paths cost about
# the same at d = 2, depth 7 (66,049 points) and d = 3, depth 4 (35,937);
# at d = 2, depth 8 (263,169) and d = 4, depth 3 (83,521) the lattice path
# took two to three times as long.
_GRID_BUDGET = 1 << 16


def hausdorff_distance(a: DyadicSet, b: DyadicSet) -> Fraction:
    """Exact sup-metric Hausdorff distance between two same-depth cell
    unions, in 1-D also the Euclidean one.

    The result is an exact rational, always a multiple of the half cell
    side.  In 1-D an interval sweep finds it.  In d >= 2 the lattice path
    (:func:`_lattice_directed`) runs when the half-step lattice,
    (2^(depth+1) + 1)^d points, is within ``_GRID_BUDGET``, checked before
    any grid is allocated; past it the branch-and-bound
    :func:`_directed_sup` runs.
    """
    if a.d != b.d or a.depth != b.depth:
        raise ValueError("operands must share ambient dimension and depth")
    if a.is_empty or b.is_empty:
        raise ValueError("Hausdorff distance needs nonempty operands")
    if a.d == 1:
        ai, bi = _intervals_half_units(a), _intervals_half_units(b)
        val = max(_directed_1d(ai, bi), _directed_1d(bi, ai))
    elif ((2 << a.depth) + 1) ** a.d <= _GRID_BUDGET:
        ga, gb = _half_lattice(a), _half_lattice(b)
        val = max(_lattice_directed(ga, gb), _lattice_directed(gb, ga))
    else:
        val = max(_directed_sup(a, b), _directed_sup(b, a))
    return Fraction(val, 1 << (a.depth + 1))


# ---------------------------------------------------------------------------
# Zooming and decomposition
# ---------------------------------------------------------------------------

def zoom(a: DyadicSet, m: int, u) -> DyadicSet:
    """The magnified view ``(2^m * a + u)`` clipped to [0,1]^d, at depth-m.

    ``u`` must be aligned to the result grid (denominator dividing
    ``2^(depth-m)``); cells that only touch the boundary of the unit cube
    are dropped.  Raises if the view is empty or ``m`` exceeds the depth.
    """
    if not 0 <= m <= a.depth:
        raise ValueError(f"zoom exponent {m} outside [0, {a.depth}], the depth")
    new_depth = a.depth - m
    cells, _ = _moved(_cells(a), _grid_shift(u, a.d, new_depth), new_depth)
    if not cells.shape[0]:
        raise ValueError("zoom produced an empty view")
    return _from_cells(a.d, new_depth, cells)


def decompose(x: Word | str, n: int) -> list[tuple[Fraction, DyadicSet]]:
    """Split ``kx_set(x)`` into its level-``n`` pieces.

    Returns ``(u, piece)`` pairs where ``u`` runs over the ``2^sigma(x[:n])``
    admissible left endpoints at level ``n`` and ``piece`` is the full-depth
    cell set under ``u``.  Pieces have pairwise non-overlapping convex hulls
    and their union is the whole set.
    """
    x = as_word(x)
    if not 0 <= n <= len(x):
        raise ValueError(f"level {n} outside [0, {len(x)}], the prefix length")
    whole = kx_set(x)
    k = whole.depth - n
    anc = whole.codes >> k  # each piece is a slice of the codes
    return [(Fraction(int(part[0]) >> k, 1 << n), _from_codes(1, whole.depth, part))
            for part in np.split(whole.codes, np.flatnonzero(anc[1:] != anc[:-1]) + 1)]


def verify_sandwich(e: DyadicSet, c: DyadicSet, translates: Sequence) -> bool:
    """Check ``c + v_0 <= e <= union_i (c + v_i)`` as cell-set inclusions."""
    if e.d != c.d or e.depth != c.depth:
        raise ValueError("operands must share ambient dimension and depth")
    if not translates:
        raise ValueError("at least one translate is required")
    cells = _cells(c)
    moved = [_moved(cells, _grid_shift(v, c.d, c.depth), c.depth) for v in translates]
    codes = [_morton(kept, c.depth) for kept, _ in moved]
    # a cell of c + v_0 outside the cube is not in e; outside cells of the
    # other translates cover nothing
    if not moved[0][1] or not np.isin(codes[0], e.codes).all():
        return False
    return bool(np.isin(e.codes, np.concatenate(codes)).all())


def _moved(cells: np.ndarray, shift, level: int) -> tuple[np.ndarray, bool]:
    """The rows of ``cells`` moved by ``shift`` that are level-``level``
    cells, and whether all rows are."""
    moved = cells + np.array(shift, dtype=np.int64)
    inside = ((moved >= 0) & (moved < 1 << level)).all(axis=1)
    return moved[inside], bool(inside.all())


def _grid_shift(u, d: int, level: int) -> tuple[int, ...]:
    """A translation (one number for every axis, or d of them) in cells of
    the level grid; it must be aligned to that grid.  Shifts past 2^62
    cells, which move every cell out of the cube, are clipped to 2^62."""
    if isinstance(u, (int, float, Fraction, str)):
        u = (u,) * d
    u = tuple(u)
    if len(u) != d:
        raise ValueError(f"expected {d} translation components, got {len(u)}")
    cells = [Fraction(ua) * (1 << level) for ua in u]
    if any(c.denominator != 1 for c in cells):
        raise ValueError(f"translation {u} not aligned to the level-{level} grid")
    lim = 1 << _CODE_BITS
    return tuple(max(-lim, min(lim, int(c))) for c in cells)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def to_json(a: DyadicSet) -> str:
    """``{"d":..,"depth":..,"leaves":[[..],..]}`` with the leaves in
    lexicographic order, as ``json.dumps`` writes it with separators
    ``(",", ":")``; the cells fill one row template in one ``%`` format."""
    cells = _cells(a)[_lex_order(a.codes, a.depth, a.d)]
    rows = ",".join(["[" + ",".join(["%d"] * a.d) + "]"] * cells.shape[0])
    leaves = rows % tuple(cells.ravel().tolist())
    return '{"d":%d,"depth":%d,"leaves":[%s]}' % (a.d, a.depth, leaves)


# The header to_json writes, with d and depth of at most two digits.
_JSON_HEAD = re.compile(r'\{"d":([1-9][0-9]?),"depth":(0|[1-9][0-9]?),"leaves":\[')


def _canonical_cells(body: bytes, d: int) -> np.ndarray | None:
    """The cells of the rows ``body`` that to_json writes between the
    header and the closing ``]}``, or None where ``body`` is not such rows.

    Those rows are ``[n,..,n]`` (d numerals) joined by ``,``; a numeral is
    1 to 18 digits (so below 2^63) with no leading zero.  Checked by byte
    classes, with no backtracking state per row: the non-digits must spell
    the rows' brackets and commas, and the digit runs between them must be
    numerals after ``[`` and inner commas and empty elsewhere."""
    if not body:
        return np.empty((0, d), np.int64)
    b = np.frombuffer(body, np.uint8)
    seps = np.flatnonzero((b - ord("0")) > 9)  # the uint8 difference wraps
    rows, rest = divmod(seps.size + 1, d + 2)
    if rest or seps[0] != 0 or seps[-1] != b.size - 1:
        return None
    row = np.frombuffer(b"[" + b"," * (d - 1) + b"],", np.uint8)
    digits = np.diff(seps) - 1  # the run after each separator but the last
    numeral = np.tile(np.arange(d + 2) < d, rows)[:-2]
    if not (np.array_equal(b[seps], np.tile(row, rows)[:-1])
            and np.array_equal(digits > 0, numeral) and digits.max() <= 18):
        return None
    if ((b[seps[:-1] + 1] == ord("0")) & (digits > 1)).any():  # leading zero
        return None
    return np.fromstring(body.translate(None, b"[]"), np.int64, sep=",").reshape(-1, d)


def from_json(s: str) -> DyadicSet:
    """The set that :func:`to_json` wrote as ``s``.

    The canonical text, ``to_json``'s output optionally followed by JSON
    whitespace, is read without ``json.loads``: byte-class checks on the
    rows and numpy's text reader put the digits into one int64 array.  Any
    other JSON goes through ``json.loads``.  Either way the cells reach the
    constructor's checks, so every set and every error, its type and its
    one-line message, is the same on both paths."""
    head = _JSON_HEAD.match(s) if isinstance(s, str) and s.isascii() else None
    if head:
        body = s[head.end():].rstrip(" \t\n\r")
        d = int(head[1])
        cells = _canonical_cells(body[:-2].encode(), d) if body.endswith("]}") else None
        if cells is not None:
            return _from_cells(d, int(head[2]), cells)
    try:
        obj = json.loads(s)
    except RecursionError:
        raise ValueError("dyadic set JSON is nested too deeply") from None
    leaves = obj.get("leaves") if isinstance(obj, dict) else None
    if not (isinstance(leaves, list) and {list}.issuperset(map(type, leaves))
            and type(obj.get("d")) is int and type(obj.get("depth")) is int):
        raise ValueError('a dyadic set is a JSON object with integers "d" and "depth" '
                         'and "leaves", a list of integer lists')
    return DyadicSet(obj["d"], obj["depth"], leaves)


_MAGIC = b"DYB1"


def _lex_order(codes: np.ndarray, level: int, d: int) -> np.ndarray:
    """The permutation that puts level-``level`` Morton codes in
    lexicographic order of their coordinates (the identity in 1-D)."""
    if d == 1:
        return np.arange(codes.shape[0])
    return np.lexsort(_unmorton(codes, level, d).T[::-1])


def pack_bits(a: DyadicSet) -> bytes:
    """Compact binary form: magic, ``d``, ``depth``, a "nonempty" bit, then
    per level the ``2^d`` child bits of each live cell (cells in
    lexicographic order), zero-padded to a byte."""
    fan = 1 << a.d
    parents = a._level_codes(0)
    chunks = [np.array([parents.shape[0]], dtype=np.uint8)]
    for m in range(1, a.depth + 1):
        kids = a._level_codes(m)
        bits = np.zeros((parents.shape[0], fan), dtype=np.uint8)
        bits[np.searchsorted(parents, kids >> a.d), kids & (fan - 1)] = 1
        chunks.append(bits[_lex_order(parents, m - 1, a.d)].ravel())
        parents = kids
    return _MAGIC + bytes([a.d, a.depth]) + np.packbits(np.concatenate(chunks)).tobytes()


def unpack_bits(data: bytes) -> DyadicSet:
    """Inverse of :func:`pack_bits`; raises ``ValueError`` on any input that
    ``pack_bits`` does not produce."""
    if data[:4] != _MAGIC:
        raise ValueError("bad magic for packed dyadic set")
    if len(data) < 7:
        raise ValueError("packed dyadic set is truncated")
    d, depth = data[4], data[5]
    if d < 1 or d * depth > _CODE_BITS:
        raise ValueError(f"packed dyadic set header d={d}, depth={depth} needs "
                         f"1 <= d and d*depth <= {_CODE_BITS}")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=6))
    codes = np.zeros(bits[0], dtype=np.int64)  # the root, if nonempty
    pos = 1
    for m in range(depth if codes.shape[0] else 0):
        end = pos + (codes.shape[0] << d)
        if end > bits.shape[0]:
            raise ValueError("packed dyadic set is truncated")
        block = bits[pos:end].reshape(codes.shape[0], 1 << d)
        if not block.any(axis=1).all():
            raise ValueError(f"packed dyadic set has a childless cell at level {m}")
        parent, child = np.nonzero(block)
        codes = np.sort((codes[_lex_order(codes, m, d)][parent] << d) | child)
        pos = end
    if bits.shape[0] - pos >= 8 or bits[pos:].any():
        raise ValueError("packed dyadic set has trailing bits or bytes")
    return _from_codes(d, depth, codes)
