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
from itertools import accumulate, cycle
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Word",
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


@dataclass(frozen=True)
class Word:
    """An immutable finite binary word.  Bits are checked once, where a word
    enters from outside; words cut or joined from checked words skip it."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("word bits must be 0 or 1")

    @classmethod
    def _of(cls, bits: tuple[int, ...]) -> "Word":
        """A word on bits already known to be 0 or 1."""
        w = object.__new__(cls)
        object.__setattr__(w, "bits", bits)
        return w

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Word":
        return cls(tuple(int(b) for b in bits))

    @classmethod
    def from_string(cls, s: str) -> "Word":
        if set(s) - {"0", "1"}:
            raise ValueError(f"not a binary string: {s!r}")
        return cls._of(tuple(map(int, s)))

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word._of(self.bits[i])
        return self.bits[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    @property
    def sigma(self) -> int:
        """Number of 1 bits."""
        return sum(self.bits)

    @property
    def density(self) -> Fraction:
        """Fraction of 1 bits; undefined (raises) for the empty word."""
        if not self.bits:
            raise ValueError("density of the empty word is undefined")
        return Fraction(self.sigma, len(self.bits))

    def prefix(self, n: int) -> "Word":
        if n < 0 or n > len(self.bits):
            raise ValueError(f"prefix length {n} out of range")
        return Word._of(self.bits[:n])


def concat(ws: Sequence[Word | str]) -> Word:
    """Concatenate words; total 1-count and length are additive."""
    bits: list[int] = []
    for w in ws:
        if isinstance(w, str):
            w = Word.from_string(w)
        bits.extend(w.bits)
    return Word._of(tuple(bits))


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
        self._buffer: list[int] = []
        self._lock = threading.Lock() if kind == "blocks" else None

    def bit(self, i: int) -> int:
        """Evaluate the sequence at index ``i >= 0``."""
        if i < 0:
            raise ValueError("sequence index must be nonnegative")
        if self.kind == "periodic":
            return self._word.bits[i % len(self._word.bits)]
        if self.kind == "beatty":
            p, q = self._a.numerator, self._a.denominator
            return (i + 1) * p // q - i * p // q
        if self.kind == "shifted":
            return self._base.bit(i + self._shift)
        if i >= len(self._buffer):
            self._fill_buffer(i + 1)
        return self._buffer[i]

    def _fill_buffer(self, n: int) -> None:
        with self._lock:
            while len(self._buffer) < n:
                w = next(self._block_iter)
                if not isinstance(w, Word):
                    w = Word.from_string(w)
                self._buffer.extend(w.bits)

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
    if isinstance(word, str):
        word = Word.from_string(word)
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
        blocks = tuple(b if isinstance(b, Word) else Word.from_string(b)
                       for b in blocks)
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
    """The ``n`` bits of ``p`` starting at index ``k``; a Beatty factor in one
    pass, as the differences of consecutive ``floor(i*a)``."""
    if k < 0 or n < 0:
        raise ValueError("factor indices must be nonnegative")
    if p.kind == "beatty":
        num, den = p._a.numerator, p._a.denominator
        floors = [i * num // den for i in range(k, k + n + 1)]
        return Word._of(tuple(map(operator.sub, floors[1:], floors)))
    return Word._of(tuple(p.bit(i) for i in range(k, k + n)))


def is_balanced(w: Word | str, max_factor_len: int | None = None) -> bool:
    """Whether all equal-length factors of ``w`` up to ``max_factor_len``
    have 1-counts spanning at most 1.

    The empty word is balanced.  Runs in O(len^2) via prefix sums.
    """
    if isinstance(w, str):
        w = Word.from_string(w)
    L = len(w)
    if max_factor_len is None:
        max_factor_len = L
    if max_factor_len > L:
        raise ValueError(f"max_factor_len {max_factor_len} exceeds word length {L}")
    if L == 0:
        return True
    cs = np.concatenate([[0], np.cumsum(np.asarray(w.bits, dtype=np.int64))])
    for n in range(1, max_factor_len + 1):
        sums = cs[n:] - cs[:-n]
        if sums.max() - sums.min() > 1:
            return False
    return True


def density_profile(w: Word | str) -> list[Fraction]:
    """Exact prefix densities ``rho(w[:n])`` for n = 1..len(w).

    Running min/max over the result estimate the lower/upper density.
    """
    if isinstance(w, str):
        w = Word.from_string(w)
    if len(w) == 0:
        raise ValueError("density profile of the empty word is undefined")
    return [Fraction(s, n) for n, s in enumerate(accumulate(w.bits), start=1)]
