"""The integer ``Word`` against a tuple-of-bits oracle."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from microfract.seq import Word, beatty_balanced, block_program, concat, factor, periodic

bit_tuples = st.lists(st.integers(0, 1), max_size=80).map(tuple)
indices = st.one_of(st.none(), st.integers(-90, 90))


@settings(max_examples=300, deadline=None)
@given(t=bit_tuples, u=bit_tuples, data=st.data())
def test_word_matches_tuple_oracle(t, u, data):
    w, wu = Word(t), Word(u)
    assert (len(w), w.bits, w.sigma) == (len(t), t, sum(t))
    assert str(w) == "".join(map(str, t)) and Word.from_string(str(w)) == w
    assert list(w) == list(t) and Word.from_bits(list(t)) == w
    k = data.draw(st.integers(0, len(t)))
    assert w.prefix(k).bits == t[:k]
    sl = slice(data.draw(indices), data.draw(indices),
               data.draw(st.one_of(st.none(), st.integers(-4, 4).filter(bool))))
    assert w[sl].bits == t[sl] and w[sl] == Word(t[sl])
    for i in range(-len(t), len(t)):
        assert w[i] == t[i]
    for i in (len(t), -len(t) - 1):
        with pytest.raises(IndexError):
            w[i]
    joined = concat([w, str(wu), w])
    assert joined.bits == t + u + t and joined == Word(t + u + t)
    # equal words hash alike; the integer alone does not make a word
    assert (w == wu) == (t == u) and hash(w) == hash(Word(t))
    assert (w == Word(t[1:])) == (t[1:] == t)


@settings(max_examples=200, deadline=None)
@given(a=st.fractions(min_value=0, max_value=1, max_denominator=300),
       period=st.lists(st.integers(0, 1), min_size=1, max_size=12).map(tuple),
       blocks=st.lists(st.lists(st.integers(0, 1), max_size=6).map(tuple),
                       min_size=1, max_size=4).filter(lambda bs: any(bs)),
       k=st.integers(0, 700), n=st.integers(0, 700))
def test_factor_matches_bit_oracle(a, period, blocks, k, n):
    p, q = a.numerator, a.denominator
    beatty = tuple((i + 1) * p // q - i * p // q for i in range(k, k + n))
    assert factor(beatty_balanced(a), k, n).bits == beatty
    assert factor(periodic(Word(period)), k, n).bits == tuple(
        period[i % len(period)] for i in range(k, k + n))
    flat = sum(blocks, ())
    assert factor(block_program([Word(b) for b in blocks]), k, n).bits == tuple(
        flat[i % len(flat)] for i in range(k, k + n))


def test_checked_entry_rejects_non_binary():
    for bits in [(0, 2), (0, [1]), ({}, 0), (0.5,), (None,), ("1",), (-1,)]:
        with pytest.raises(ValueError):
            Word(bits)
    for bits in ([0, 1, 2], [-1]):
        with pytest.raises(ValueError):
            Word.from_bits(bits)
    for s in ["012", "0b1", "1_0", " 1", "+1"]:
        with pytest.raises(ValueError):
            Word.from_string(s)


def test_value_semantics():
    w = Word.from_string("0110")
    assert w.bits is w.bits  # derived once, then cached
    with pytest.raises(AttributeError):
        w.v = 0
    for clone in (copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert clone == w and str(clone) == "0110"
    assert Word(()) == Word.from_string("") and str(Word(())) == ""
    assert Word((0, 0, 1)).density == Fraction(1, 3)
