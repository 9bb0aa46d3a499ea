"""Fractal percolation with generation-dependent retention probabilities.

Every (copy, cell) pair gets one uniform variate from a counter-based keyed
hash of the cell path, so variates are independent of evaluation order,
thread schedule, and retention schedule.  That single shared field is what
makes exact monotone coupling possible: running two schedules against the
same field keeps the lower-retention survivor set inside the higher one,
cell for cell, not merely in distribution.  A cell survives when its 53-bit
variate is at most ``floor(2^(53 - alpha))``, from :func:`families.floor_pow2`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from hashlib import blake2b
from math import sqrt
from typing import Sequence

import numpy as np

from .dyadic import (DyadicSet, _distinct, _from_cells, _lex_order, _morton, _unmorton,
                     singleton_chain)
from .errors import ResourceLimitError
from .families import floor_pow2
from .realize import TargetSpec, VarphiMap
from .seq import Word, as_word

__all__ = [
    "RetentionSchedule",
    "PercField",
    "PercSample",
    "Completion",
    "sample",
    "gw_extinction",
    "coupled_pair",
    "hawkes_experiment",
    "HawkesReport",
    "HawkesRow",
    "GammaStarConfig",
    "gamma_star",
    "choose_copies",
    "select_anchor_cell",
]

_M64 = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_SALT = 0xD1B54A32D192ED03
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))  # SplitMix64 (shift, multiplier)


def _mix64(z: int) -> int:
    z &= _M64
    for shift, mul in _MIX:
        z = (z ^ z >> shift) * mul & _M64
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64` of a uint64 array, in place."""
    t = np.empty_like(z)
    for shift, mul in _MIX:
        z ^= np.right_shift(z, np.uint64(shift), out=t)
        z *= np.uint64(mul)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


class PercField:
    """Deterministic uniform field over (copy key, dyadic cell) pairs."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _M64
        self._base = _mix64(self.seed ^ _GOLD)

    def _copy_hash(self, copy_key) -> int:
        h = self._base
        for p in copy_key if isinstance(copy_key, tuple) else (copy_key,):
            if isinstance(p, str):  # up to 8 bytes read as an int, longer ones digested
                b = p.encode()
                p = int.from_bytes(b if len(b) <= 8 else blake2b(b, digest_size=8).digest(),
                                   "little")
            h = _mix64(h ^ _mix64((int(p) + _SALT) & _M64))
        return h

    @staticmethod
    def _check_width(level: int, d: int):
        if level * d > 62:
            raise ResourceLimitError(
                f"cell paths at level {level}, d={d} exceed the 62-bit counter"
            )

    def variate(self, copy_key, level: int, coords: tuple[int, ...]) -> float:
        """Uniform [0,1) variate of one cell, identical to the vector path."""
        d = len(coords)
        self._check_width(level, d)
        code = 1 << (level * d)
        for a, c in enumerate(coords):
            code |= c << (level * a)
        v = _mix64(self._copy_hash(copy_key) ^ code)
        return (v >> 11) * 2.0 ** -53

    def variates(self, copy_key, level: int, coords: np.ndarray) -> np.ndarray:
        """Vectorized variates for an (m, d) array of same-level cells."""
        self._check_width(level, coords.shape[1])
        v = _counter_codes(level, coords).view(np.uint64) ^ np.uint64(self._copy_hash(copy_key))
        return (_mix64_np(v) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def _trial_hashes(self, prefix: tuple, start: int, stop: int) -> np.ndarray:
        """``_copy_hash(prefix + (t,))`` for ``start <= t < stop``, the prefix folded once."""
        t = np.arange(start, stop, dtype=np.uint64) + np.uint64(_SALT)
        return _mix64_np(_mix64_np(t) ^ np.uint64(self._copy_hash(prefix)))


def _counter_codes(level: int, cells: np.ndarray) -> np.ndarray:
    """The counter codes (hash inputs) ``1 << level*d | OR_a x_a << level*a`` of (m, d) cells."""
    return reduce(np.bitwise_or, (c.astype(np.int64) << level * a for a, c in enumerate(cells.T)),
                  np.int64(1 << level * cells.shape[1]))


def _decode(codes: np.ndarray, levels, d: int) -> np.ndarray:
    """The (m, d) cells of counter codes at ``levels`` (one level, or one per code)."""
    return np.stack([(codes >> levels * a) & (1 << levels) - 1 for a in range(d)], axis=1)


@dataclass(frozen=True)
class RetentionSchedule:
    """Per-generation exponents: cells at generation n survive with
    probability ``2^-alpha_n``; an optional limit extends the sequence."""

    alphas: tuple[Fraction, ...]
    limit: Fraction | None = None

    def __post_init__(self):
        if any(a < 0 for a in self.alphas) or (self.limit is not None and self.limit < 0):
            raise ValueError("retention exponents must be nonnegative")

    @classmethod
    def constant(cls, alpha) -> "RetentionSchedule":
        return cls((), Fraction(alpha))

    @classmethod
    def from_list(cls, alphas: Sequence, limit=None) -> "RetentionSchedule":
        return cls(tuple(Fraction(a) for a in alphas),
                   None if limit is None else Fraction(limit))

    def alpha(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("generations start at 1")
        if n <= len(self.alphas):
            return self.alphas[n - 1]
        if self.limit is not None:
            return self.limit
        raise ValueError(f"schedule undefined at generation {n}")

    def retention(self, n: int) -> float:
        return 2.0 ** -float(self.alpha(n))

    def dominates(self, other: "RetentionSchedule", depth: int) -> bool:
        """Pointwise ``alpha_n >= other.alpha_n`` through ``depth``."""
        return all(self.alpha(n) >= other.alpha(n) for n in range(1, depth + 1))

    def validate_dim(self, d: int, depth: int):
        for n in range(1, depth + 1):
            if self.alpha(n) > d:
                raise ValueError(f"alpha_{n}={self.alpha(n)} exceeds ambient dim {d}")


@dataclass(frozen=True)
class Completion:
    """Marker point for a cell that died: the deepest reference-set cell
    inside it with the least Morton code (in 1-D, the leftmost), with the
    level at which its cube died."""

    level: int
    cell: tuple[int, ...]
    z_cell: tuple[int, ...]


@dataclass(frozen=True)
class PercSample:
    survivors: DyadicSet
    completions: tuple[Completion, ...]
    depth: int
    copy_key: object
    level_counts: tuple[int, ...] = ()  # alive cells per level, index 0 = root


# A batch whose children would pass _SPLIT_CELLS is split at a trial boundary and
# the halves grown in turn, so peak memory stays near one trial's; one trial's
# children may not pass _MAX_CELLS.
_SPLIT_CELLS = 1 << 13
_MAX_CELLS = 1 << 21


@lru_cache(maxsize=256)
def _threshold(alpha: Fraction) -> int:
    """``floor(2^(53 - alpha))``, the largest 53-bit ``v`` with ``v * 2^-53 <=
    2^-alpha`` (0 past 53), by the exact :func:`~microfract.families.floor_pow2`."""
    return floor_pow2(53 - alpha, 1) if alpha <= 53 else 0


def _restriction(k_set: DyadicSet | None, depth: int, d: int | None):
    """The reference set as (its sorted leaf Morton codes, its depth), None
    for the full cube, and the dimension: the set's, else ``d``, else 1; a
    ``d`` other than the set's is refused."""
    if k_set is None:
        return None, 1 if d is None else d
    if d is not None and d != k_set.d:
        raise ValueError(f"d={d} differs from the reference set's dimension {k_set.d}")
    if k_set.depth < depth:
        raise ValueError("reference set must be rasterized at least to depth")
    if k_set.is_empty:
        raise ValueError("reference set is empty")
    return (k_set.codes, k_set.depth), k_set.d


@lru_cache(maxsize=256)
def _level_steps(schedule: RetentionSchedule, d: int, depth: int) -> tuple:
    """:func:`_grow`'s checks and per-level constants (index 0 unused): the largest
    uint64 ``v`` with ``(v >> 11) <= _threshold(alpha)``, clamped to 64 bits; the
    pairs with ``OR (c & mask) << shift`` the common part of parent ``c``'s
    children; and the child offsets in Morton order."""
    schedule.validate_dim(d, depth)
    PercField._check_width(depth, d)
    if 1 << d > _MAX_CELLS:
        raise ResourceLimitError(f"a cell at d={d} has 2^{d} children, "
                                 f"over the limit {_MAX_CELLS}")
    steps, units = [None], _unmorton(np.arange(1 << d), 1, d)
    for p in range(depth):  # the parent level
        pairs = [(((1 << p) - 1) << p * a, a + 1) for a in range(d - 1) if p]
        steps.append((np.uint64(min(_threshold(schedule.alpha(p + 1)) << 11 | 0x7FF, _M64)),
                      (*pairs, (-(1 << p * (d - 1)) if p * (d - 1) else None, d)),
                      _counter_codes(p + 1, units) ^ 1 << (p + 1) * d))
    return tuple(steps)


def _grow(hashes: np.ndarray, schedule: RetentionSchedule, depth: int, d: int,
          ref: tuple[np.ndarray, int] | None = None, count_levels=(),
          leaves: bool = False, completions: bool = False):
    """The percolation level kernel: grows one trial per copy hash to ``depth``,
    all trials a level at a time, each row tagged with its trial id so every
    variate is the one a per-trial run draws; with ``ref`` (see
    ``_restriction``) only cells meeting it, the frontier as counter codes.
    Returns ``counts[j, t]``, the alive cells of trial ``t`` at level
    ``count_levels[j]``; with ``leaves`` the cells alive at ``depth``, trial by
    trial; and with ``completions`` (needs ``ref``) the alive cells without an
    alive child, ordered by trial, then level, then frontier order, as arrays of
    their levels, cells and least reference leaves.
    """
    steps = _level_steps(schedule, d, depth)
    if ref is not None:
        ref_codes, ref_depth = ref
        tables = [np.sort(_counter_codes(m, _unmorton(
            _distinct(ref_codes >> d * (ref_depth - m)), m, d))) for m in range(depth + 1)]
    hashes = hashes.view(np.int64)  # XOR on the bit patterns, mixed as uint64
    rows = {level: j for j, level in enumerate(count_levels)}
    counts = np.zeros((len(rows), hashes.shape[0]), dtype=np.int64)
    fan = 1 << d
    final, dead = [], []
    stack = [(1, np.arange(hashes.shape[0]), np.ones(hashes.shape[0], dtype=np.int64))]
    while stack:
        level, trial, frontier = stack.pop()
        m = trial.shape[0]
        if m == 0 or level > depth:
            if leaves:
                final.append(frontier)
            continue
        if m * fan > _SPLIT_CELLS and trial[0] != trial[-1]:
            mid = trial[m // 2]
            cut = np.searchsorted(trial, mid) or np.searchsorted(trial, mid, "right")
            # the waiting half is copied so the whole level is not held for it
            stack += [(level, trial[cut:].copy(), frontier[cut:].copy()),
                      (level, trial[:cut], frontier[:cut])]
            continue
        if m * fan > _MAX_CELLS:
            raise ResourceLimitError(f"level {level} of one trial would hold "
                                     f"{m * fan} cells, over the limit {_MAX_CELLS}")
        bound, pairs, offs = steps[level]
        base = reduce(np.bitwise_or, [(frontier if mask is None else frontier & mask) << shift
                                      for mask, shift in pairs])
        bases = np.array([base, base ^ hashes.take(trial)])  # bare, and salted with the hash
        # one column per child: on long 1-D and 2-D frontiers this beats a broadcast
        both = np.empty((2, m, fan), dtype=np.int64)
        for o, off in enumerate(offs.tolist()):
            np.bitwise_xor(bases, off, out=both[:, :, o])
        kids, v = both.reshape(2, -1)
        if ref is None:
            alive = (_mix64_np(v.view(np.uint64)) <= bound).nonzero()[0]
        else:  # hash only the children that meet the reference set
            table = tables[level]
            meets = (table.take(table.searchsorted(kids), mode="clip") == kids).nonzero()[0]
            alive = meets.take((_mix64_np(v.take(meets).view(np.uint64)) <= bound).nonzero()[0])
        parent = alive >> d
        if completions:
            idle = (np.bincount(parent, minlength=m) == 0).nonzero()[0]
            dead.append((trial.take(idle), np.full(idle.shape[0], level - 1),
                         frontier.take(idle)))
        trial, frontier = trial.take(parent), kids.take(alive)
        j = rows.get(level)
        if j is not None and trial.shape[0]:
            counts[j, trial[0]:trial[-1] + 1] = np.bincount(trial - trial[0])
        stack.append((level + 1, trial, frontier))
    cells = _decode(np.concatenate(final), depth, d) if leaves else None
    if not completions:
        return counts, cells, None
    trial, levels, idle = (np.concatenate(c) for c in zip(*dead))
    order = np.argsort(trial, kind="stable")
    levels, idle = levels[order], _decode(idle[order], levels[order], d)
    # the least reference leaf under each dead cell starts its code slice
    first = np.searchsorted(ref_codes, _morton(idle, depth) << d * (ref_depth - levels))
    return counts, cells, (levels, idle, _unmorton(ref_codes[first], ref_depth, d))


def _completions(levels: np.ndarray, cells: np.ndarray, z_cells: np.ndarray) -> list:
    return [Completion(*c) for c in zip(
        levels.tolist(), map(tuple, cells.tolist()), map(tuple, z_cells.tolist()))]


def sample(schedule: RetentionSchedule, field: PercField, copy_key,
           depth: int, d: int | None = None, k_set: DyadicSet | None = None,
           completions: bool = False) -> PercSample:
    """Run one percolation to ``depth``.

    With ``k_set`` given, only cells meeting the reference set are grown
    (sufficient for anything about the intersection with it), and dead ends
    can be recorded as completion points.  The dimension ``d`` is the
    reference set's, or 1 without one; a ``d`` given with a set must match it.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ref, d = _restriction(k_set, depth, d)
    counts, cells, dead = _grow(np.array([field._copy_hash(copy_key)], dtype=np.uint64),
                                schedule, depth, d, ref, range(1, depth + 1), leaves=True,
                                completions=completions and ref is not None)
    done = tuple(_completions(*dead)) if dead else ()
    return PercSample(_from_cells(d, depth, cells), done, depth, copy_key,
                      (1, *counts[:, 0].tolist()))


def coupled_pair(sched_a: RetentionSchedule, sched_b: RetentionSchedule,
                 field: PercField, copy_key, depth: int, d: int | None = None,
                 k_set: DyadicSet | None = None) -> tuple[PercSample, PercSample]:
    """Two schedules against identical variates; if ``sched_a`` dominates
    pointwise, its survivors are contained in the other's, exactly."""
    return (sample(sched_a, field, copy_key, depth, d, k_set),
            sample(sched_b, field, copy_key, depth, d, k_set))


def gw_extinction(p: float, children: int) -> float:
    """Extinction probability of a branching process with Binomial(children, p)
    offspring: the smallest fixed point of ``q = (1 - p + p*q)^children``.

    Monotone iteration from 0; the children=2 case uses the closed-form root
    of the quadratic.  With ``p = 1`` and one child every cell has exactly one
    child, every q is a fixed point and the answer is 0.
    """
    if not 0 <= p <= 1:
        raise ValueError("retention probability must lie in [0, 1]")
    if children < 1:
        raise ValueError("need at least one child per cell")
    if p * children <= 1 and p < 1:
        return 1.0
    if children == 2:
        disc = sqrt(1.0 - 4.0 * p * (1.0 - p))
        return ((1.0 - disc) / (2.0 * p)) ** 2
    q = 0.0
    for _ in range(1_000_000):
        q_next = (1.0 - p + p * q) ** children
        if abs(q_next - q) < 1e-14:
            return q_next
        q = q_next
    return q


# ---------------------------------------------------------------------------
# Intersection-survival experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HawkesRow:
    depth: int
    survival: float
    ci_low: float
    ci_high: float
    cond_slope: float | None
    n_alive: int


@dataclass(frozen=True)
class HawkesReport:
    beta: Fraction
    trials: int
    rows: tuple[HawkesRow, ...]
    survival_nonincreasing: bool
    slope_flagged_levels: tuple[int, ...]

    def to_csv(self) -> str:
        lines = ["depth,survival_frac,ci_low,ci_high,cond_slope"]
        for r in self.rows:
            slope = "" if r.cond_slope is None else repr(r.cond_slope)
            lines.append(f"{r.depth},{r.survival!r},{r.ci_low!r},{r.ci_high!r},{slope}")
        return "\n".join(lines) + "\n"


def hawkes_experiment(k_set: DyadicSet | None, beta, depths: Sequence[int],
                      trials: int, field: PercField, d: int | None = None,
                      copy_prefix: str | int = "hawkes") -> HawkesReport:
    """Monte Carlo survival of ``K intersect Gamma(beta)`` at finite depths.

    One percolation per trial is truncated at ``max(depths)``; each trial's
    survival flags at the several depths therefore come from one coupled run,
    making the per-depth survival fractions monotone by construction rather
    than only statistically.  ``d`` is taken as in :func:`sample`.
    """
    beta = Fraction(beta)
    depths = sorted(set(depths))
    if not depths or depths[0] < 1 or trials < 1:
        raise ValueError(f"need depths >= 1 and trials >= 1, got {depths}, {trials}")
    ref, d = _restriction(k_set, depths[-1], d)
    if not 0 < beta < d:
        raise ValueError(f"beta must lie in (0, {d})")
    counts, _, _ = _grow(field._trial_hashes((copy_prefix,), 0, trials),
                         RetentionSchedule.constant(beta), depths[-1], d, ref, depths)
    rows = []
    for dep, at_dep in zip(depths, counts):
        alive = at_dep[at_dep > 0]
        n_alive = alive.shape[0]
        frac = n_alive / trials
        half = 1.96 * sqrt(max(frac * (1 - frac), 1e-12) / trials)
        cond = float((np.log2(alive) / dep).mean()) if n_alive else None
        rows.append(HawkesRow(dep, frac, max(0.0, frac - half),
                              min(1.0, frac + half), cond, n_alive))
    noninc = all(rows[i].survival >= rows[i + 1].survival for i in range(len(rows) - 1))
    return HawkesReport(beta, trials, tuple(rows), noninc,
                        tuple(r.depth for r in rows if not r.n_alive))


def choose_copies(c_hat: float, cap: int = 64) -> int:
    """Copies needed so that all of them missing is unlikely: the smallest i
    with ``(1 - c_hat/2)^i < 1/2`` (half the estimate as a safety margin),
    hard-capped."""
    if not 0 < c_hat <= 1:
        raise ValueError("survival estimate must lie in (0, 1]")
    if cap < 1:
        raise ValueError(f"copy cap must be >= 1, got {cap}")
    i = 1
    while i < cap and (1 - c_hat / 2) ** i >= 0.5:
        i += 1
    return i


def select_anchor_cell(k_set: DyadicSet, window_level: int | None = None) -> tuple[int, ...]:
    """Heuristic full-dimension point: the leaf under the mid-level cell with
    the steepest local count slope, ties broken lexicographically."""
    if k_set.is_empty:
        raise ValueError("cannot anchor an empty set")
    d, depth = k_set.d, k_set.depth
    m = min(depth, max(1, depth // 2 if window_level is None else window_level))
    shift = d * (depth - m)
    cells, counts = np.unique(k_set.codes >> shift, return_counts=True)
    top = cells[counts == counts.max()]
    best = top[_lex_order(top, m, d)[0]]
    under = k_set.codes[(k_set.codes >> shift) == best]
    return tuple(_unmorton(under[_lex_order(under, depth, d)[:1]], depth, d)[0].tolist())


# ---------------------------------------------------------------------------
# The nested-cube union construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaStarConfig:
    """Plan for the union of percolations in nested cubes around an anchor.

    ``betas[k-1]`` is the dimension approximant for stage k, ``copies[k-1]``
    the number of independent runs there, ``c_hats[k-1]`` the estimated
    survival constants; stages live in the level-k ancestors of ``y0_leaf``.
    """

    gamma: Fraction
    betas: tuple[Fraction, ...]
    copies: tuple[int, ...]
    c_hats: tuple[float, ...]
    y0_leaf: tuple[int, ...]
    k_max: int

    def __post_init__(self):
        if not len(self.betas) == len(self.copies) == len(self.c_hats) == self.k_max:
            raise ValueError("need betas, copies, c_hats per stage")
        for b in self.betas:
            if not 0 < b < self.gamma:
                raise ValueError(f"beta {b} must lie in (0, gamma)")
        if any(self.betas[i] > self.betas[i + 1] for i in range(self.k_max - 1)):
            raise ValueError("betas must be nondecreasing")
        for c, i in zip(self.c_hats, self.copies):
            if i < 1 or not 0 < c <= 1:
                raise ValueError("bad copy count or survival estimate")
            if (1 - c) ** i >= 0.5:
                raise ValueError(
                    f"(1 - {c})^{i} >= 1/2: not enough copies for the estimate"
                )


def gamma_star(config: GammaStarConfig, x: Word | str, spec: TargetSpec,
               field: PercField, depth: int, k_set: DyadicSet,
               varphi: VarphiMap | None = None) -> PercSample:
    """Union over stages k and copies i of reference-restricted percolations
    in the nested cubes around the anchor, with completion points, plus the
    anchor cell itself.

    The retention schedule of branch ``x`` is ``alpha_n = gamma - phi(x[:n])``
    with the positively-clamped value map, so branches with pointwise-ordered
    values yield exactly nested samples under the shared field.
    """
    x = as_word(x)
    if k_set.depth != depth:
        raise ValueError("reference set must be rasterized exactly at depth")
    d = k_set.d
    if config.gamma > d:
        raise ValueError(f"gamma {config.gamma} exceeds ambient dimension {d}")
    vm = varphi or VarphiMap(spec, positive_gamma=config.gamma)
    if len(x) < depth:
        raise ValueError(f"branch prefix must have at least {depth} bits")
    alphas = tuple(config.gamma - vm.value(x.prefix(n)) for n in range(1, depth + 1))
    schedule = RetentionSchedule.from_list(alphas)
    y0 = singleton_chain(d, depth, config.y0_leaf)
    y0_code, y0_cell = int(y0.codes[0]), _unmorton(y0.codes, depth, d)[0]
    cells, done = [y0_cell[None]], []
    for k in range(1, config.k_max + 1):
        local_depth = depth - k
        if local_depth < 1:
            break
        q = y0_cell >> local_depth
        base = q << local_depth
        # the reference leaves in the stage cube: a code slice, prefix masked off
        shift = d * local_depth
        top = y0_code >> shift
        lo, hi = np.searchsorted(k_set.codes, [top << shift, top + 1 << shift])
        if lo == hi:
            continue
        ref = (k_set.codes[lo:hi] & ((1 << shift) - 1), local_depth)
        hashes = field._trial_hashes(("gstar", k), 1, config.copies[k - 1] + 1)
        _, local, (levels, idle, z_cells) = _grow(hashes, schedule, local_depth, d,
                                                  ref, leaves=True, completions=True)
        cells.append(local + base)
        done += _completions(levels + k, idle + (q << levels[:, None]), z_cells + base)
    return PercSample(_from_cells(d, depth, np.concatenate(cells)), tuple(done),
                      depth, ("gstar", str(x)))
