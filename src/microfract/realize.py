"""Constructive realization of a target value set along binary branches.

A :class:`TargetSpec` presents a set of rationals through cylinder oracles:
either explicitly (finite set, union of closed intervals) or via pluggable
callables (an increasing closed family hit-index, an open-part hit test, and
a shrinking rational interval for the coded map).  :class:`VarphiMap` runs
the four-case induction assigning a value to every finite word so that the
values converge along each branch: in closed form for explicit targets, by a
walk over the word's bits for effective ones.  The block of a word is a prefix
of each of two balanced sequences, mixed in the ratio that realizes the word's
value as a density, and ``build_psi_prefix`` concatenates the blocks.

All values are exact ``Fraction``; determinism is guaranteed by canonical
tie-breaking (lexicographically least branch, midpoints, minimal indices).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count
from math import isqrt, lcm
from typing import Callable, Sequence

import numpy as np

from .dyadic import DyadicSet, _cells, _from_cells
from .errors import InvariantViolation, OracleError
from .seq import SeqProgram, Word, as_word, beatty_balanced, block_program, concat, factor

__all__ = [
    "TargetSpec",
    "VarphiMap",
    "choose_k",
    "closest_k",
    "PsiPrefix",
    "build_psi_prefix",
    "psi_program",
    "DensityReport",
    "realized_density_check",
    "assemble_gallery",
]


class TargetSpec:
    """Effective presentation of a closed-in-the-limit target value set.

    Modes:
      * ``finite_set`` -- an explicit list of rationals;
      * ``interval_union`` -- a union of closed rational intervals;
      * ``effective`` -- user oracles.  ``m_index(s)`` returns the smallest
        index of the increasing closed family hit by the cylinder of the
        0/1-string ``s`` (``None`` if the cylinder misses the whole family),
        ``meets_g(s)`` says whether the cylinder meets the open part, and
        ``f_range(s)`` returns a rational interval containing the coded map's
        image of the cylinder, with widths shrinking along branches.

    ``a`` and ``b`` are the attained minimum and maximum of the presented
    set; every produced value is clamped into ``[a, b]``.
    """

    def __init__(self, mode: str, *, a: Fraction, b: Fraction,
                 values: tuple[Fraction, ...] = (),
                 intervals: tuple[tuple[Fraction, Fraction], ...] = (),
                 m_index: Callable[[str], int | None] | None = None,
                 meets_g: Callable[[str], bool] | None = None,
                 f_range: Callable[[str], tuple] | None = None):
        if a > b:
            raise ValueError("need a <= b")
        self.mode = mode
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.values = values
        self.intervals = intervals
        # the values, or the interval ends, as numerators over one denominator
        lows = values or tuple(lo for lo, _ in intervals)
        highs = values or tuple(hi for _, hi in intervals)
        self._den = lcm(*(e.denominator for e in lows + highs))
        self._lo = tuple(e.numerator * (self._den // e.denominator) for e in lows)
        self._hi = tuple(e.numerator * (self._den // e.denominator) for e in highs)
        self._m_index = m_index
        self._meets_g = meets_g
        self._f_range = f_range
        self._last = max(len(values), len(intervals), 1) - 1  # the last branch
        self.selector_bits = self._last.bit_length()
        self.canonical_pad = max(16, self.selector_bits)

    # -- constructors -------------------------------------------------------

    @classmethod
    def finite_set(cls, values: Sequence) -> "TargetSpec":
        vals = tuple(sorted({Fraction(v) for v in values}))
        if not vals:
            raise ValueError("finite target set must be nonempty")
        return cls("finite_set", a=vals[0], b=vals[-1], values=vals)

    @classmethod
    def interval_union(cls, intervals: Sequence) -> "TargetSpec":
        ivs = []
        for lo, hi in intervals:
            lo, hi = Fraction(lo), Fraction(hi)
            if lo > hi:
                raise ValueError(f"interval [{lo}, {hi}] is empty")
            ivs.append((lo, hi))
        if not ivs:
            raise ValueError("interval union must be nonempty")
        ivs.sort()
        return cls("interval_union",
                   a=min(lo for lo, _ in ivs), b=max(hi for _, hi in ivs),
                   intervals=tuple(ivs))

    @classmethod
    def effective(cls, *, m_index, meets_g, f_range, a, b) -> "TargetSpec":
        return cls("effective", a=Fraction(a), b=Fraction(b),
                   m_index=m_index, meets_g=meets_g, f_range=f_range)

    def to_json(self) -> str:
        """Serialize explicit presentations; effective mode is a pluggable
        component (callables in, rationals out) and has no wire form."""
        if self.mode == "finite_set":
            return json.dumps({"mode": "finite_set",
                               "values": [str(v) for v in self.values]})
        if self.mode == "interval_union":
            return json.dumps({"mode": "interval_union",
                               "intervals": [[str(lo), str(hi)]
                                             for lo, hi in self.intervals]})
        raise TypeError("effective-mode presentations are not serializable")

    @classmethod
    def from_json(cls, s: str) -> "TargetSpec":
        obj = json.loads(s)
        if obj["mode"] == "finite_set":
            return cls.finite_set([Fraction(v) for v in obj["values"]])
        if obj["mode"] == "interval_union":
            return cls.interval_union(
                [(Fraction(lo), Fraction(hi)) for lo, hi in obj["intervals"]])
        raise ValueError(f"unknown mode {obj['mode']!r}")

    # -- oracle surface -----------------------------------------------------

    def m_index(self, s: Word) -> int | None:
        if self.mode == "effective":
            m = self._m_index(str(s))
            if m is not None and m < 0:
                raise OracleError(f"negative family index {m}")
            return m
        return None  # explicit modes present closed sets: the family is empty

    def meets_g(self, s: Word) -> bool:
        if self.mode == "effective":
            return bool(self._meets_g(str(s)))
        return True

    def f_range(self, s: Word) -> tuple[Fraction, Fraction]:
        lo, hi, den = self._range(s)
        return Fraction(lo, den), Fraction(hi, den)

    def _range(self, s: Word) -> tuple[int, int, int]:
        """``f_range(s)`` as ``(lo, hi, den)``: the interval [lo/den, hi/den]."""
        if self.mode == "effective":
            lo, hi = self._f_range(str(s))
            lo, hi = Fraction(lo), Fraction(hi)
            if lo > hi:
                raise OracleError(f"f_range returned an empty interval at {s}")
            return (lo.numerator * hi.denominator, hi.numerator * lo.denominator,
                    lo.denominator * hi.denominator)
        i, j = self._selector_range(s)
        if i != j or self.mode == "finite_set":  # lows ascend
            return self._lo[i], max(self._hi[i:j + 1]), self._den
        # The L tail bits after the selector, read as one binary integer num,
        # pick the piece lo + (hi - lo) * [num, num + 1] / 2^L of the interval.
        L = max(s.n - self.selector_bits, 0)
        num, lo, span = s.v & ((1 << L) - 1), self._lo[i] << L, self._hi[i] - self._lo[i]
        return lo + span * num, lo + span * (num + 1), self._den << L

    def _selector_range(self, s: Word) -> tuple[int, int]:
        free = max(self.selector_bits - s.n, 0)
        head = s.v >> (s.n + free - self.selector_bits)  # the first selector_bits bits
        return min(head << free, self._last), min(((head + 1) << free) - 1, self._last)


class VarphiMap:
    """Memoized value map over finite words, built by the four-case induction.

    Cases for a child cylinder ``s^c``: (1) it misses the closed family
    entirely -- take a fresh canonical value from ``f_range``; (2) it misses
    the open part -- inherit; (3) its family hit-index equals the parent's --
    inherit; (4) the hit-index grew -- take a fresh canonical value.  The
    root gets the presented minimum.  Values are clamped into ``[a, b]``, or
    with ``positive_gamma`` set, into ``(0, gamma]`` with a depth-dependent
    floor ``gamma * 2^-n``.  Explicit targets have no family and nested
    ranges, so every word is case (1): its value is its clamped canonical
    value, computed directly.  Effective targets walk a word's bits from its
    deepest memoized prefix, checking the oracles; memo keys are ``(v, n)``.
    """

    def __init__(self, spec: TargetSpec, positive_gamma: Fraction | None = None):
        self.spec = spec
        self.positive_gamma = None if positive_gamma is None else Fraction(positive_gamma)
        self.memo: dict[tuple[int, int], Fraction] = {(0, 0): self._clamp(spec.a, 0)}
        self.m_memo: dict[tuple[int, int], int | None] = {}

    def _clamp(self, val: Fraction, depth: int) -> Fraction:
        if self.positive_gamma is not None:
            g = self.positive_gamma
            if val <= 0:
                return g / (1 << depth)
            return min(val, g)
        return min(max(val, self.spec.a), self.spec.b)

    def _canonical(self, s: Word) -> Fraction:
        # Deterministic choice: follow the lexicographically least branch as
        # far as the open part allows, then take the interval midpoint.  In
        # the explicit modes the open part is everything: pad in one step.
        pad = self.spec.canonical_pad
        if self.spec.mode == "effective":
            pad = next((j for j in range(pad) if not self.spec.meets_g(
                Word._of(s.v << (j + 1), s.n + j + 1))), pad)
        lo, hi, den = self.spec._range(Word._of(s.v << pad, s.n + pad))
        return Fraction(lo + hi, 2 * den)

    def value(self, s) -> Fraction:
        s = as_word(s)
        v, n, memo, spec = s.v, s.n, self.memo, self.spec
        if spec.mode != "effective":  # case (1) at every word, ranges nested
            return self._clamp(self._canonical(s), n) if n else memo[(0, 0)]
        d = n
        while (v >> (n - d), d) not in memo:
            d -= 1
        parent = s.prefix(d)
        val = memo[(parent.v, d)]
        if d == n:
            return val
        m_parent = self.m_memo[(parent.v, d)] if d else spec.m_index(parent)
        g_parent = d > 0 and spec.meets_g(parent)
        p_range = None  # f_range(parent), when known
        for depth in range(d + 1, n + 1):
            child = Word._of(v >> (n - depth), depth)
            m_child = self.m_memo[(child.v, depth)] = spec.m_index(child)
            if m_child is not None and (m_parent is None or m_parent > m_child):
                raise OracleError(
                    f"family hit-index not monotone: {m_parent} at {parent} "
                    f"vs {m_child} at {child}"
                )
            g_child = spec.meets_g(child)
            c_range = None
            if g_parent and g_child:
                plo, phi, pden = p_range = p_range or spec._range(parent)
                clo, chi, cden = c_range = spec._range(child)
                if clo * pden < plo * cden or chi * pden > phi * cden:
                    raise OracleError(
                        f"f_range not nested at {child}: [{Fraction(clo, cden)},"
                        f"{Fraction(chi, cden)}] vs [{Fraction(plo, pden)},{Fraction(phi, pden)}]"
                    )
            if m_child is None or (g_child and m_child != m_parent):
                val = self._canonical(child)
            val = self._clamp(val, depth)
            memo[(child.v, depth)] = val
            parent, m_parent, g_parent, p_range = child, m_child, g_child, c_range
        return val


# ---------------------------------------------------------------------------
# Block-length selection
# ---------------------------------------------------------------------------

def _k_bounds(n: int) -> tuple[int, int]:
    # integers strictly between sqrt(n)-1 and n*sqrt(n)+1
    return isqrt(n), _k_max(n)


def _k_max(n: int) -> int:
    c = n ** 3
    r = isqrt(c)
    return r if r * r == c else r + 1


def _mix_view(n: int, a, b, target):
    """Checks ``n >= 1`` and ``0 <= a <= t <= b <= 1`` on numerators and
    denominators; returns ``(a, b, t, q, nuq, vq)`` with ``mix(k) - t =
    f(k)/(q*(n+k))``, ``f(k) = k*vq - nuq``, ``mix(k) = (n*a + k*b)/(n+k)``."""
    if type(a) is not Fraction:
        a = Fraction(a)
    if type(b) is not Fraction:
        b = Fraction(b)
    t = target if type(target) is Fraction else Fraction(target)
    if n < 1:
        raise ValueError("block index must be >= 1")
    na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
    nt, dt = t.numerator, t.denominator
    u, v = nt * da - na * dt, nb * dt - nt * db  # (t-a)*da*dt, (b-t)*db*dt
    if na < 0 or u < 0 or v < 0 or nb > db:
        raise ValueError(f"need 0 <= a <= target <= b <= 1, got {a}, {t}, {b}")
    return a, b, t, da * db * dt, n * u * db, v * da


def _outside_band(n: int, q: int, f: int, k: int) -> bool:
    # |mix(k) - t| > 2/sqrt(n), that is n*f(k)^2 > 4*(q*(n+k))^2
    return n * f * f > 4 * (q * (n + k)) ** 2


def choose_k(n: int, a, b, target) -> int:
    """Minimal admissible block length ratio index.

    Returns the smallest integer ``k`` with ``sqrt(n)-1 < k < n*sqrt(n)+1``
    and ``|(n*a + k*b)/(n+k) - target| <= 2/sqrt(n)``; such a ``k`` always
    exists for ``0 <= a <= target <= b <= 1``.  For ``a == b`` the value is
    ``ceil(sqrt(n))``.  The block length is an exact integer closed form,
    with the band edge taken from ``isqrt``.
    """
    a, b, t, q, nuq, vq = _mix_view(n, a, b, target)
    if not (nuq or vq):  # a == b
        return 1 + isqrt(n - 1)  # ceil(sqrt(n))
    # f(k) increases, so the lower side of the band, f(k) >= 0 or
    # sqrt(n)*(nuq - k*vq) <= 2q(n+k), holds from k* = (sqrt(n)*nuq - 2qn) /
    # (sqrt(n)*vq + 2q) on.  Below, r/2^p is sqrt(n) rounded down to p > log2(n)
    # fraction bits; k* rises with sqrt(n) at a rate of at most n(b-a)/2, so
    # the ceiling is ceil(k*) or one less, and one exact step up fixes it.
    p = n.bit_length()
    r = isqrt(n << 2 * p)
    kmin, kmax = r >> p, _k_max(n)  # r >> p is isqrt(n)
    k = -(((q * n << p + 1) - r * nuq) // (r * vq + (q << p + 1)))
    k = kmin if k < kmin else kmax if k > kmax else k
    f = k * vq - nuq
    if f < 0 and k < kmax and _outside_band(n, q, f, k):
        k += 1
    if _outside_band(n, q, k * vq - nuq, k):
        # f < 0: no k in range reaches the band; f > 0: the smallest k that
        # reaches it already overshoots the upper side.
        raise InvariantViolation(f"no admissible k for n={n}, a={a}, b={b}, target={t}")
    return k


def closest_k(n: int, a, b, target) -> int:
    """Admissible ``k`` minimizing the mixing error, smaller ``k`` on ties.

    Satisfies the same range and tolerance invariants as :func:`choose_k`;
    preferred in the block pipeline because the minimal admissible ``k``
    systematically undershoots mid-range targets.
    """
    a, b, t, q, nuq, vq = _mix_view(n, a, b, target)
    if not (nuq or vq):  # a == b
        return 1 + isqrt(n - 1)  # ceil(sqrt(n))
    kmin, kmax = _k_bounds(n)
    # f(k) = k*vq - nuq increases with f(base) <= 0 < f(base+1), so |f(k)|/(n+k)
    # falls up to base and rises from base+1 (for vq = 0 it falls throughout
    # and base is kmax): the best k is base or base+1, clamped.
    base = nuq // vq if vq else kmax
    k, k1 = min(max(base, kmin), kmax), min(max(base + 1, kmin), kmax)
    if abs(k1 * vq - nuq) * (n + k) < abs(k * vq - nuq) * (n + k1):
        k = k1
    if _outside_band(n, q, k * vq - nuq, k):
        raise InvariantViolation(f"closest k fails tolerance for n={n}, a={a}, b={b}, target={t}")
    return k


# ---------------------------------------------------------------------------
# Blocks and the coded sequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiPrefix:
    """Concatenation of the blocks of ``x``'s prefixes, with bookkeeping."""

    word: Word
    boundaries: tuple[int, ...]          # boundaries[i] = start of block i
    block_lengths: tuple[tuple[int, int], ...]  # (n, k) per block i >= 1
    phi_values: tuple[Fraction, ...]     # value map at x[:i] per block i >= 1

    @property
    def blocks(self) -> int:
        return len(self.boundaries) - 1

    def block_word(self, i: int) -> Word:
        return self.word[self.boundaries[i]:self.boundaries[i + 1]]


def build_psi_prefix(x, spec: TargetSpec, blocks: int,
                     varphi: VarphiMap | None = None) -> PsiPrefix:
    """First ``blocks`` blocks of the coded sequence of branch ``x``.

    Block ``i`` of a word ``s = x[:i]`` is the first ``i`` bits of the
    balanced sequence of density ``a`` followed by the first ``k`` bits of the
    one of density ``b``, with ``k = closest_k(i, a, b, phi(s))``; block 0 is
    empty.  All blocks are cut from one prefix of each sequence.  Requires
    ``blocks <= len(x) + 1``.
    """
    x = as_word(x)
    if blocks < 0 or blocks > len(x) + 1:
        raise ValueError(f"blocks must lie in [0, {len(x) + 1}]")
    vm = varphi or VarphiMap(spec)
    phis = tuple(vm.value(x.prefix(i)) for i in range(1, blocks))
    lengths = tuple((n, closest_k(n, spec.a, spec.b, phi))
                    for n, phi in enumerate(phis, start=1))
    na, nb = len(phis), max((k for _, k in lengths), default=0)
    alpha = factor(beatty_balanced(spec.a), 0, na).v
    beta = factor(beatty_balanced(spec.b), 0, nb).v
    v = 0
    for n, k in lengths:
        v = (v << (n + k)) | ((alpha >> (na - n)) << k) | (beta >> (nb - k))
    bounds = (0,) * (blocks > 0) + tuple(accumulate((n + k for n, k in lengths), initial=0))
    word = Word._of(v, bounds[-1])
    # The high-density tails alone contribute floor(k*b) ones per block.
    if word.sigma == 0 and any(k * spec.b >= 1 for _, k in lengths):
        raise InvariantViolation("coded prefix is all-zero despite b > 0")
    return PsiPrefix(word, bounds, lengths, phis)


def psi_program(x: SeqProgram, spec: TargetSpec) -> SeqProgram:
    """The full coded sequence of an infinite branch, as a block program."""
    vm, alpha, beta = VarphiMap(spec), beatty_balanced(spec.a), beatty_balanced(spec.b)

    def block(n: int) -> Word:
        k = closest_k(n, spec.a, spec.b, vm.value(factor(x, 0, n)))
        return concat([factor(alpha, 0, n), factor(beta, 0, k)])

    return block_program(map(block, count(1)))


@dataclass(frozen=True)
class BlockCheck:
    index: int
    n: int
    k: int
    phi: Fraction
    density: Fraction
    error: Fraction
    bound_ok: bool
    length_fraction: Fraction


@dataclass(frozen=True)
class DensityReport:
    blocks: tuple[BlockCheck, ...]
    cumulative_density: Fraction
    expected: Fraction
    cumulative_error: Fraction
    fractions_vanish: bool


def realized_density_check(p: PsiPrefix, expected) -> DensityReport:
    """Verify the per-block density errors against the exact mixing bound.

    Each block of index n with tail length k must satisfy
    ``|density - phi| <= 2/(n+k) + 2/sqrt(n)``, with the density counted
    from the ones in the block's bits of ``p.word``; a violation aborts,
    since it indicates a construction bug.  Also reports the cumulative
    density against ``expected``.  ``fractions_vanish`` says that there are
    at least two blocks and that the last block's share of the prefix
    length, times ``isqrt(n)``, is at most 4: block n has length below
    ``n + n*sqrt(n) + 1`` in a prefix of length at least ``n(n+1)/2``.
    """
    if p.blocks < 2:
        raise ValueError("need at least two blocks")
    expected = Fraction(expected)
    checks = []
    for idx, ((n, k), phi) in enumerate(zip(p.block_lengths, p.phi_values), start=1):
        start, end = p.boundaries[idx], p.boundaries[idx + 1]
        if end <= start:
            raise ValueError(f"block {idx} is empty")
        ones, size = p.block_word(idx).sigma, end - start
        # err = |ones/size - phi| = e/(size*pd); err <= 2/(n+k) + 2/sqrt(n) exactly
        pn, pd = phi.numerator, phi.denominator
        e = abs(ones * pd - pn * size)
        rem, rem_den = e * (n + k) - 2 * size * pd, size * pd * (n + k)
        ok = rem <= 0 or n * rem * rem <= 4 * rem_den * rem_den
        if not ok:
            raise InvariantViolation(
                f"block {idx}: density error {e / (size * pd):.4f} breaks the bound"
            )
        checks.append(BlockCheck(idx, n, k, phi, Fraction(ones, size),
                                 Fraction(e, size * pd), ok, Fraction(size, end)))
    vanish = len(checks) >= 2 and checks[-1].length_fraction * isqrt(checks[-1].n) <= 4
    cum = Fraction(p.word.sigma, len(p.word))
    return DensityReport(tuple(checks), cum, expected, abs(cum - expected), vanish)


# ---------------------------------------------------------------------------
# Gallery assembly
# ---------------------------------------------------------------------------

def assemble_gallery(generators: Sequence[Callable[[int], DyadicSet]],
                     depth: int) -> DyadicSet:
    """One compact set containing shrinking copies of every generator's sets.

    Placement ``j`` (j = 1..depth-1) occupies the cube ``[2^-j, 2^-j+1]^d``
    and holds generator ``(j-1) mod len(generators)`` rasterized at depth
    ``depth - j``, so each generator recurs at unboundedly deep placements as
    the depth grows; the origin cell is included as the accumulation point.
    Zooming by ``(m=j, u=-1)`` recovers placement ``j`` exactly.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n_place = depth - 1
    if len(generators) > n_place:
        raise ValueError(
            f"placement overflow: {len(generators)} generators need depth "
            f">= {len(generators) + 1}"
        )
    d, cells = None, []
    for j in range(1, n_place + 1):
        g = generators[(j - 1) % len(generators)]
        piece = g(depth - j)
        if piece.depth != depth - j:
            raise ValueError(
                f"generator returned depth {piece.depth}, wanted {depth - j}"
            )
        if d is None:
            d = piece.d
            cells.append(np.zeros((1, d), dtype=np.int64))  # the origin cell
        elif piece.d != d:
            raise ValueError("generators disagree on ambient dimension")
        cells.append(_cells(piece) + (1 << (depth - j)))
    return _from_cells(d, depth, np.concatenate(cells))
