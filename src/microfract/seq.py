"""Finite binary words and programs generating infinite binary sequences.

Densities are exact ``fractions.Fraction`` values; no floating point enters
word arithmetic.  Balanced sequences of rational density ``a`` come from the
Beatty floor formula ``x(i) = floor((i+1)a) - floor(ia)``, which makes the
prefix sums exactly ``floor(n*a)`` and hence keeps every prefix density
within ``1/n`` of ``a``.
"""

from __future__ import annotations

import json
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import cycle
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Word",
    "as_word",
    "SeqProgram",
    "beatty_balanced",
    "periodic",
    "block_program",
    "shifted",
    "factor",
    "concat",
    "is_balanced",
    "density_profile",
]


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # bit values to ASCII digits
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class Word:
    """An immutable finite binary word: the integer ``v`` whose ``n`` binary
    digits, the first bit most significant, are the word's bits.

    ``Word(bits)`` checks the bits once, where a word enters from outside;
    words cut or joined from checked words skip it.  Prefixes, contiguous
    slices, concatenation and the 1-count are shifts, masks and
    ``int.bit_count``; ``bits`` is a derived tuple, cached on first use.
    """

    v: int
    n: int

    def __init__(self, bits: Iterable[int]):
        bits = tuple(bits)
        if not all(b in (0, 1) for b in bits):
            raise ValueError("word bits must be 0 or 1")
        _set(self, "v", int(bytes(map(int, bits)).translate(_DIGITS) or b"0", 2))
        _set(self, "n", len(bits))

    @classmethod
    def _of(cls, v: int, n: int) -> "Word":
        """The ``n``-bit word of the integer ``0 <= v < 2^n``."""
        w = object.__new__(cls)
        _set(w, "v", v)
        _set(w, "n", n)
        return w

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Word":
        return cls(map(int, bits))

    @classmethod
    def from_string(cls, s: str) -> "Word":
        if set(s) - {"0", "1"}:
            raise ValueError(f"not a binary string: {s!r}")
        return cls._of(int(s or "0", 2), len(s))

    @cached_property
    def bits(self) -> tuple[int, ...]:
        return tuple(map(int, str(self)))

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        n = self.n
        if isinstance(i, slice):
            start, stop, step = i.indices(n)
            if step != 1:
                return Word.from_string(str(self)[i])
            m = max(stop - start, 0)
            return Word._of((self.v >> (n - stop)) & ((1 << m) - 1), m)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError("word index out of range")
        return (self.v >> ((n - 1 - i) % n)) & 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __str__(self) -> str:
        return format(self.v, f"0{self.n}b") if self.n else ""

    @property
    def sigma(self) -> int:
        """Number of 1 bits."""
        return self.v.bit_count()

    @property
    def density(self) -> Fraction:
        """Fraction of 1 bits; undefined (raises) for the empty word."""
        if not self.n:
            raise ValueError("density of the empty word is undefined")
        return Fraction(self.sigma, self.n)

    def prefix(self, n: int) -> "Word":
        if n < 0 or n > self.n:
            raise ValueError(f"prefix length {n} out of range")
        return Word._of(self.v >> (self.n - n), n)


def as_word(w: Word | str) -> Word:
    """``w`` itself if it is a word, else the word of the binary string ``w``."""
    return w if isinstance(w, Word) else Word.from_string(w)


def concat(ws: Sequence[Word | str]) -> Word:
    """Concatenate words; total 1-count and length are additive."""
    v = n = 0
    for w in map(as_word, ws):
        v = (v << w.n) | w.v
        n += w.n
    return Word._of(v, n)


class SeqProgram:
    """A deterministic, total program for an infinite binary sequence.

    Kinds:
      * ``periodic`` -- repeats a finite word forever;
      * ``beatty`` -- the floor-formula sequence of a rational density;
      * ``blocks`` -- concatenation of a supply of finite words (a finite
        list is cycled; an iterator is buffered lazily and must be infinite);
      * ``shifted`` -- ``T^m`` applied to another program.

    Instances are immutable apart from the append-only block buffer, which is
    guarded by a lock so programs can be shared across workers.
    """

    __slots__ = ("kind", "_word", "_a", "_base", "_shift",
                 "_block_list", "_block_iter", "_buffer", "_lock")

    def __init__(self, kind: str, *, word: Word | None = None,
                 a: Fraction | None = None,
                 block_list: tuple[Word, ...] | None = None,
                 block_iter: Iterator[Word] | None = None,
                 base: "SeqProgram | None" = None, shift: int = 0):
        self.kind = kind
        self._word = word
        self._a = a
        self._base = base
        self._shift = shift
        self._block_list = block_list
        self._block_iter = block_iter
        self._buffer = bytearray()  # the blocks read so far, as ASCII digits
        self._lock = threading.Lock() if kind == "blocks" else None

    def bit(self, i: int) -> int:
        """Evaluate the sequence at index ``i >= 0``."""
        if i < 0:
            raise ValueError("sequence index must be nonnegative")
        if self.kind == "periodic":
            return self._word[i % len(self._word)]
        if self.kind == "beatty":
            p, q = self._a.numerator, self._a.denominator
            return (i + 1) * p // q - i * p // q
        if self.kind == "shifted":
            return self._base.bit(i + self._shift)
        if i >= len(self._buffer):
            self._fill_buffer(i + 1)
        return self._buffer[i] - ord("0")

    def _fill_buffer(self, n: int) -> None:
        with self._lock:
            while len(self._buffer) < n:
                self._buffer += str(as_word(next(self._block_iter))).encode()

    def prefix(self, n: int) -> Word:
        """First ``n`` bits as a word."""
        return factor(self, 0, n)

    def to_json(self) -> str:
        """Serialize finitely-describable programs as a {kind, params} descriptor."""
        return json.dumps(self._descriptor(), sort_keys=True)

    def _descriptor(self) -> dict:
        if self.kind == "periodic":
            return {"kind": "periodic", "params": {"word": str(self._word)}}
        if self.kind == "beatty":
            return {"kind": "beatty",
                    "params": {"a": f"{self._a.numerator}/{self._a.denominator}"}}
        if self.kind == "shifted":
            return {"kind": "shifted",
                    "params": {"m": self._shift, "base": self._base._descriptor()}}
        if self._block_list is not None:
            return {"kind": "blocks",
                    "params": {"words": [str(w) for w in self._block_list]}}
        raise TypeError("generator-backed block programs are not serializable")

    @staticmethod
    def from_json(s: str) -> "SeqProgram":
        return _from_descriptor(json.loads(s))


def _from_descriptor(desc: dict) -> SeqProgram:
    kind, params = desc["kind"], desc["params"]
    if kind == "periodic":
        return periodic(Word.from_string(params["word"]))
    if kind == "beatty":
        return beatty_balanced(Fraction(params["a"]))
    if kind == "shifted":
        return shifted(_from_descriptor(params["base"]), params["m"])
    if kind == "blocks":
        return block_program([Word.from_string(w) for w in params["words"]])
    raise ValueError(f"unknown program kind {kind!r}")


def beatty_balanced(a) -> SeqProgram:
    """Balanced sequence of exact rational density ``a`` in [0, 1].

    Every pair of equal-length factors of the result has 1-counts differing
    by at most one, and ``sigma(prefix(n)) == floor(n*a)`` exactly.
    """
    a = Fraction(a)
    if not 0 <= a <= 1:
        raise ValueError(f"density must lie in [0, 1], got {a}")
    return SeqProgram("beatty", a=a)


def periodic(word: Word | str) -> SeqProgram:
    word = as_word(word)
    if len(word) == 0:
        raise ValueError("periodic program needs a nonempty word")
    return SeqProgram("periodic", word=word)


def block_program(blocks: Sequence[Word] | Iterator[Word]) -> SeqProgram:
    """Concatenation of a block supply.

    A list or tuple is cycled forever (making evaluation total and the
    program serializable).  An iterator is buffered lazily; it must yield
    nonempty words indefinitely.
    """
    if isinstance(blocks, (list, tuple)):
        blocks = tuple(map(as_word, blocks))
        if not blocks or all(len(b) == 0 for b in blocks):
            raise ValueError("block list must contain a nonempty word")
        return SeqProgram("blocks", block_list=blocks, block_iter=cycle(blocks))
    return SeqProgram("blocks", block_iter=iter(blocks))


def shifted(p: SeqProgram, m: int) -> SeqProgram:
    """The shift ``T^m``: index ``i`` maps to ``p(i+m)``; shifts flatten."""
    if m < 0:
        raise ValueError("shift must be nonnegative")
    if p.kind == "shifted":
        return SeqProgram("shifted", base=p._base, shift=p._shift + m)
    return SeqProgram("shifted", base=p, shift=m)


def factor(p: SeqProgram, k: int, n: int) -> Word:
    """The ``n`` bits of ``p`` starting at index ``k``.

    A Beatty word of density ``p/q`` has period ``q`` (``floor((i+q)a) =
    floor(i*a) + p``), so its factor is at most ``q`` differences of
    consecutive ``floor(i*a)``, repeated.
    """
    if k < 0 or n < 0:
        raise ValueError("factor indices must be nonnegative")
    if p.kind != "beatty":
        return Word(p.bit(i) for i in range(k, k + n))
    num, den = p._a.numerator, p._a.denominator
    floors = [i * num // den for i in range(k, k + min(n, den) + 1)]
    period = bytes(map(operator.sub, floors[1:], floors)).translate(_DIGITS)
    return Word._of(int((period * (n // den + 1))[:n] or b"0", 2), n)


# Window sums one block of factor lengths takes at a time in is_balanced.
_BALANCE_BLOCK = 1 << 16


def is_balanced(w: Word | str, max_factor_len: int | None = None) -> bool:
    """Whether all equal-length factors of ``w`` up to ``max_factor_len``
    have 1-counts spanning at most 1.

    The empty word is balanced.  Runs in O(len^2) via prefix sums, a block
    of factor lengths per numpy pass: length n is balanced when the most
    ones plus the most zeros of its factors is at most n + 1.
    """
    w = as_word(w)
    L = len(w)
    if max_factor_len is None:
        max_factor_len = L
    if max_factor_len > L:
        raise ValueError(f"max_factor_len {max_factor_len} exceeds word length {L}")
    if L == 0:
        return True
    # the smallest signed type holding 2L, the most ones plus the most zeros
    ones = _ones_before(w).astype(np.min_scalar_type(-2 * L))
    zeros = np.arange(L + 1, dtype=ones.dtype) - ones
    # row n of a table holds the prefix counts from n on; past the end it
    # repeats the total, so a window running past the end counts the ones
    # (zeros) of a suffix, which no factor of that length exceeds
    tables = [(sliding_window_view(np.concatenate([c, np.full(L, c[-1])]), L + 1), c)
              for c in (ones, zeros)]
    n = 1
    while n <= max_factor_len:
        cols = L + 1 - n  # the factors of length n start at 0..L-n
        rows = min(max_factor_len + 1 - n, max(1, _BALANCE_BLOCK // cols))
        most = sum((t[n:n + rows, :cols] - c[:cols]).max(axis=1) for t, c in tables)
        if (most - np.arange(n, n + rows)).max() > 1:
            return False
        n += rows
    return True


def density_profile(w: Word | str) -> list[Fraction]:
    """Exact prefix densities ``rho(w[:n])`` for n = 1..len(w).

    Running min/max over the result estimate the lower/upper density.
    """
    w = as_word(w)
    if len(w) == 0:
        raise ValueError("density profile of the empty word is undefined")
    return [Fraction(s, n) for n, s in enumerate(_ones_before(w)[1:].tolist(), start=1)]


def _ones_before(w: Word) -> np.ndarray:
    """The number of ones among the first i bits of ``w``, i = 0..len(w)."""
    digits = np.frombuffer(str(w).encode(), dtype=np.uint8)
    return np.concatenate([[0], np.cumsum(digits - ord("0"), dtype=np.int64)])
