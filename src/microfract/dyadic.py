"""Finite-depth dyadic-cube representations of compact subsets of [0,1]^d.

A :class:`DyadicSet` stores the surviving level-``depth`` cells of the unit
cube; every ancestor of a stored leaf counts as alive, so queries at a
coarser level return the projected cell set.  All operations are pure and
exact: coordinates are integers, distances are returned as ``Fraction``.

Distance computations exploit that for unions of same-grid cells the
sup-metric Hausdorff distance is always attained on the half-step lattice
(every constraint surface is axis-aligned at half-cell coordinates), so a
finite candidate scan is exact.  Euclidean cube-union distances in d >= 2
have algebraic optima off every fixed lattice and are not offered; in one
dimension the two metrics coincide.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product as iter_product
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError
from .seq import Word

__all__ = [
    "CubeIdx",
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


@dataclass(frozen=True)
class CubeIdx:
    """A dyadic cell: level ``n`` and per-axis integer coordinates in [0, 2^n)."""

    level: int
    coords: tuple[int, ...]

    def __post_init__(self):
        hi = 1 << self.level
        if any(not 0 <= c < hi for c in self.coords):
            raise ValueError(f"coords {self.coords} out of range at level {self.level}")

    @property
    def parent(self) -> "CubeIdx":
        if self.level == 0:
            raise ValueError("level-0 cell has no parent")
        return CubeIdx(self.level - 1, tuple(c >> 1 for c in self.coords))


_CODE_BITS = 62


def _morton(coords: np.ndarray, level: int) -> np.ndarray:
    """Morton codes of an (m, d) array of cells below level ``level``: bit j
    of axis a goes to bit ``j*d + d-1-a``, so axis 0 takes the high bit of
    each d-bit group and a cell's children ``code << d | o`` follow in
    ``pack_bits``' child order."""
    m, d = coords.shape
    if d == 1:
        return coords[:, 0].astype(np.int64)
    code = np.zeros(m, dtype=np.int64)
    for a in range(d):
        c = coords[:, a].astype(np.int64)
        for j in range(level):
            code |= ((c >> j) & 1) << (j * d + d - 1 - a)
    return code


def _unmorton(codes: np.ndarray, level: int, d: int) -> np.ndarray:
    """The (m, d) coordinates of level-``level`` Morton codes."""
    if d == 1:
        return codes.astype(np.int64)[:, None]
    coords = np.zeros((codes.shape[0], d), dtype=np.int64)
    for a in range(d):
        for j in range(level):
            coords[:, a] |= ((codes >> (j * d + d - 1 - a)) & 1) << j
    return coords


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array."""
    keep = np.ones(codes.shape[0], dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


@dataclass(frozen=True)
class DyadicSet:
    """An antichain-free union of level-``depth`` cells of [0,1]^d.

    ``leaves`` holds the cells as coordinate tuples; :attr:`codes` is the
    one integer form behind every query, the sorted Morton codes of the
    leaves (a linear quadtree).  A level-m ancestor is
    ``code >> d*(depth-m)``, so the leaves under one cell form a
    contiguous slice of it.
    """

    d: int
    depth: int
    leaves: frozenset

    def __post_init__(self):
        if self.d < 1 or self.depth < 0:
            raise ValueError(f"need d >= 1 and depth >= 0, got d={self.d}, depth={self.depth}")
        if self.d * self.depth > _CODE_BITS:
            raise ResourceLimitError(f"cells at d={self.d}, depth={self.depth} need "
                                     f"{self.d * self.depth}-bit codes, over {_CODE_BITS}")

    @cached_property
    def codes(self) -> np.ndarray:
        """Sorted int64 Morton codes of the leaves (read-only, cached)."""
        flat = np.fromiter(chain.from_iterable(self.leaves), dtype=np.int64,
                           count=len(self.leaves) * self.d)
        codes = np.sort(_morton(flat.reshape(-1, self.d), self.depth))
        codes.flags.writeable = False
        return codes

    @property
    def is_empty(self) -> bool:
        return not self.leaves

    def _level_codes(self, m: int) -> np.ndarray:
        if not 0 <= m <= self.depth:
            raise ValueError(f"level {m} out of range for depth {self.depth}")
        return _distinct(self.codes >> (self.d * (self.depth - m)))

    def level_cells(self, m: int) -> frozenset:
        """Alive cells at level ``m`` <= depth (ancestors of the leaves)."""
        if m == self.depth:
            return self.leaves
        return _tuples(_unmorton(self._level_codes(m), m, self.d))

    def count(self, m: int) -> int:
        return self._level_codes(m).shape[0]

    def __contains__(self, cube: CubeIdx) -> bool:
        if not 0 <= cube.level <= self.depth:
            raise ValueError(f"level {cube.level} out of range for depth {self.depth}")
        if len(cube.coords) != self.d:
            return False
        shift = self.d * (self.depth - cube.level)
        z = int(_morton(np.array([cube.coords], dtype=np.int64), cube.level)[0])
        i = np.searchsorted(self.codes, z << shift)
        return i < self.codes.shape[0] and int(self.codes[i]) >> shift == z


def _tuples(coords: np.ndarray) -> frozenset:
    return frozenset(zip(*(col.tolist() for col in coords.T)))


def _from_codes(d: int, depth: int, codes: np.ndarray) -> DyadicSet:
    """The set whose sorted distinct Morton codes are ``codes``."""
    s = DyadicSet(d, depth, _tuples(_unmorton(codes, depth, d)))
    codes.flags.writeable = False
    s.__dict__["codes"] = codes  # seeds the cached property
    return s


def _validated(d: int, depth: int, leaves) -> DyadicSet:
    """The set of integer ``leaves``, after a check that each is a cell."""
    s = DyadicSet(d, depth, frozenset(map(tuple, leaves)))
    hi = 1 << depth
    for leaf in s.leaves:
        if len(leaf) != d or any(not 0 <= c < hi for c in leaf):
            raise ValueError(f"bad leaf {leaf} for d={d}, depth={depth}")
    return s


def kx_set(x: Word | str) -> DyadicSet:
    """Digit-restriction set of a word prefix: d=1, depth=len(x).

    Binary digit ``i`` of a leaf's left endpoint is forced to 0 where
    ``x(i) = 0`` and free where ``x(i) = 1``, so there are exactly
    ``2^sigma(x)`` leaves.
    """
    if isinstance(x, str):
        x = Word.from_string(x)
    n = len(x)
    if x.sigma > 24 or n > _CODE_BITS:
        raise ResourceLimitError(f"kx_set would have 2^{x.sigma} leaves of depth {n} "
                                 f"(limits 2^24 and {_CODE_BITS})")
    codes = np.zeros(1, dtype=np.int64)
    for i in range(n - 1, -1, -1):  # low bits first, so the codes stay sorted
        if x.bits[i]:
            codes = np.concatenate([codes, codes | (1 << (n - 1 - i))])
    return _from_codes(1, n, codes)


def full_cube(d: int, depth: int) -> DyadicSet:
    """All cells of [0,1]^d at ``depth`` alive."""
    if (1 << (d * depth)) > _MAX_LEAVES:
        raise ResourceLimitError(f"full cube at d={d}, depth={depth} too large")
    side = range(1 << depth)
    return DyadicSet(d, depth, frozenset(iter_product(side, repeat=d)))


def singleton_chain(d: int, depth: int, corner: tuple[int, ...] | None = None) -> DyadicSet:
    """The single leaf cell at ``corner`` (default: the origin cell)."""
    corner = tuple(map(int, corner)) if corner is not None else (0,) * d
    return _validated(d, depth, [corner])


def product(a: DyadicSet, b: DyadicSet) -> DyadicSet:
    """Cartesian product; leaf count multiplies, ambient dimensions add."""
    if a.depth != b.depth:
        raise ValueError(f"depth mismatch: {a.depth} != {b.depth}")
    if len(a.leaves) * len(b.leaves) > _MAX_LEAVES:
        raise ResourceLimitError("product would exceed the leaf budget")
    leaves = frozenset(la + lb for la in a.leaves for lb in b.leaves)
    return DyadicSet(a.d + b.d, a.depth, leaves)


# ---------------------------------------------------------------------------
# Hausdorff metric
# ---------------------------------------------------------------------------

def _intervals_half_units(s: DyadicSet) -> list[tuple[int, int]]:
    """Maximal closed intervals of a 1-D cell union, in units of 2^-(depth+1)."""
    cs = s.codes
    cut = np.flatnonzero(np.diff(cs) != 1)  # runs of adjacent cells end here
    starts, ends = np.r_[cs[0], cs[cut + 1]], np.r_[cs[cut], cs[-1]]
    return list(zip((2 * starts).tolist(), (2 * ends + 2).tolist()))


def _dist_to_intervals(x: int, starts: list[int], ends: list[int]) -> int:
    j = bisect_right(starts, x) - 1
    best = None
    if j >= 0:
        best = 0 if x <= ends[j] else x - ends[j]
    if j + 1 < len(starts):
        dnext = starts[j + 1] - x
        best = dnext if best is None else min(best, dnext)
    return best


def _directed_1d(a_iv, b_iv) -> int:
    starts = [s for s, _ in b_iv]
    ends = [e for _, e in b_iv]
    a_starts = [s for s, _ in a_iv]
    cands = []
    for s, e in a_iv:
        cands += [s, e]
    # Inside a gap of B the distance peaks at the midpoint; off-midpoint
    # optima inside A are interval endpoints, already candidates.
    for i in range(len(b_iv) - 1):
        mid = (ends[i] + starts[i + 1]) // 2
        j = bisect_right(a_starts, mid) - 1
        if j >= 0 and a_iv[j][0] <= mid <= a_iv[j][1]:
            cands.append(mid)
    return max(_dist_to_intervals(x, starts, ends) for x in cands)


def _cells(s: DyadicSet) -> np.ndarray:
    return _unmorton(s.codes, s.depth, s.d)


def _half_lattice_candidates(s: DyadicSet) -> np.ndarray:
    cells = _cells(s)
    offs = np.array(list(iter_product((0, 1, 2), repeat=s.d)), dtype=np.int64)
    pts = (2 * cells[:, None, :] + offs[None, :, :]).reshape(-1, s.d)
    return np.unique(pts, axis=0)


def _directed_sup(a: DyadicSet, b: DyadicSet) -> int:
    pts = _half_lattice_candidates(a)
    centers = 2 * _cells(b) + 1
    # a point's sup distance to a cell is max(|p - center|_sup - 1, 0), and
    # that map is monotone, so it is applied once to the max-min
    best = 0
    chunk = max(1, (1 << 22) // max(1, centers.shape[0] * a.d))
    for i in range(0, pts.shape[0], chunk):
        gaps = np.abs(pts[i:i + chunk][:, None, :] - centers)
        best = max(best, int(gaps.max(axis=2).min(axis=1).max()))
    return max(best - 1, 0)


def hausdorff_distance(a: DyadicSet, b: DyadicSet, metric: str = "sup") -> Fraction:
    """Exact Hausdorff distance between two same-depth cell unions.

    ``metric="sup"`` is supported in every dimension; ``"euclidean"`` only
    for d = 1, where the two coincide.  The result is an exact rational
    (always a multiple of the half cell side).
    """
    if a.d != b.d or a.depth != b.depth:
        raise ValueError("operands must share ambient dimension and depth")
    if a.is_empty or b.is_empty:
        raise ValueError("Hausdorff distance needs nonempty operands")
    if metric not in ("sup", "euclidean"):
        raise ValueError(f"unknown metric {metric!r}")
    if metric == "euclidean" and a.d > 1:
        raise ValueError(
            "euclidean cube-union distance is exact only for d=1; "
            "use metric='sup' (the metrics agree within a sqrt(d) factor)"
        )
    if a.d == 1:
        ai, bi = _intervals_half_units(a), _intervals_half_units(b)
        val = max(_directed_1d(ai, bi), _directed_1d(bi, ai))
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
    if m < 0:
        raise ValueError("zoom exponent must be nonnegative")
    if m > a.depth:
        raise ValueError(f"zoom exponent {m} exceeds depth {a.depth}")
    new_depth = a.depth - m
    shift = _grid_shift(u, a.d, new_depth)
    hi = 1 << new_depth
    leaves = set()
    for leaf in a.leaves:
        moved = tuple(c + s for c, s in zip(leaf, shift))
        if all(0 <= c < hi for c in moved):
            leaves.add(moved)
    if not leaves:
        raise ValueError("zoom produced an empty view")
    return DyadicSet(a.d, new_depth, frozenset(leaves))


def decompose(x: Word | str, n: int) -> list[tuple[Fraction, DyadicSet]]:
    """Split ``kx_set(x)`` into its level-``n`` pieces.

    Returns ``(u, piece)`` pairs where ``u`` runs over the ``2^sigma(x[:n])``
    admissible left endpoints at level ``n`` and ``piece`` is the full-depth
    cell set under ``u``.  Pieces have pairwise non-overlapping convex hulls
    and their union is the whole set.
    """
    if isinstance(x, str):
        x = Word.from_string(x)
    if n > len(x):
        raise ValueError(f"level {n} exceeds available prefix length {len(x)}")
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
    shifted_sets = [frozenset(_translate_cells(c, v)) for v in translates]
    if not shifted_sets[0] <= e.leaves:
        return False
    union = frozenset().union(*shifted_sets)
    return e.leaves <= union


def _translate_cells(c: DyadicSet, v) -> set:
    shift = _grid_shift(v, c.d, c.depth)
    return {tuple(x + s for x, s in zip(leaf, shift)) for leaf in c.leaves}


def _grid_shift(u, d: int, level: int) -> tuple[int, ...]:
    """A translation (one number for every axis, or d of them) in cells of
    the level grid; it must be aligned to that grid."""
    if isinstance(u, (int, float, Fraction, str)):
        u = (u,) * d
    u = tuple(u)
    if len(u) != d:
        raise ValueError(f"expected {d} translation components, got {len(u)}")
    cells = [Fraction(ua) * (1 << level) for ua in u]
    if any(c.denominator != 1 for c in cells):
        raise ValueError(f"translation {u} not aligned to the level-{level} grid")
    return tuple(map(int, cells))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def to_json(a: DyadicSet) -> str:
    leaves = _cells(a)[_lex_order(a.codes, a.depth, a.d)].tolist()  # lexicographic
    return json.dumps({"d": a.d, "depth": a.depth, "leaves": leaves}, separators=(",", ":"))


def from_json(s: str) -> DyadicSet:
    obj = json.loads(s)
    leaves = obj.get("leaves") if isinstance(obj, dict) else None
    if not (isinstance(leaves, list) and all(isinstance(leaf, list) for leaf in leaves)
            and all(type(v) is int for v in chain((obj.get("d"), obj.get("depth")),
                                                  chain.from_iterable(leaves)))):
        raise ValueError('a dyadic set is a JSON object with integers "d" and "depth" '
                         'and "leaves", a list of integer lists')
    return _validated(obj["d"], obj["depth"], leaves)


_MAGIC = b"DYB1"


def _lex_order(codes: np.ndarray, level: int, d: int) -> np.ndarray:
    """The permutation that puts level-``level`` Morton codes in
    lexicographic order of their coordinates (the identity in 1-D)."""
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
