import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microfract import seq
from microfract.seq import (
    Word,
    SeqProgram,
    beatty_balanced,
    block_program,
    concat,
    density_profile,
    factor,
    is_balanced,
    periodic,
    shifted,
)


def brute_balanced(bits, max_n):
    """Oracle: enumerate all factor pairs directly."""
    L = len(bits)
    for n in range(1, max_n + 1):
        sums = [sum(bits[i:i + n]) for i in range(L - n + 1)]
        if max(sums) - min(sums) > 1:
            return False
    return True


def oracle_is_balanced(w, max_n):
    """Reference: the per-length loop the blocked check replaced, three
    numpy calls per factor length."""
    if len(w) == 0:
        return True
    cs = np.cumsum((0,) + w.bits)
    for n in range(1, max_n + 1):
        sums = cs[n:] - cs[:-n]
        if sums.max() - sums.min() > 1:
            return False
    return True


@st.composite
def balance_cases(draw):
    """A word and a factor length bound: random bits, a Beatty factor, or a
    Beatty factor with one bit flipped (mostly unbalanced)."""
    kind = draw(st.sampled_from(["random", "beatty", "flipped"]))
    if kind == "random":
        w = Word.from_bits(draw(st.lists(st.integers(0, 1), max_size=120)))
    else:
        a = draw(st.fractions(min_value=0, max_value=1, max_denominator=60))
        w = factor(beatty_balanced(a), draw(st.integers(0, 500)), draw(st.integers(0, 150)))
        if kind == "flipped" and len(w):
            i = draw(st.integers(0, len(w) - 1))
            w = Word.from_bits(w.bits[:i] + (1 - w[i],) + w.bits[i + 1:])
    return w, draw(st.just(len(w)) | st.integers(0, len(w)))


class TestWord:
    def test_roundtrip_string(self):
        w = Word.from_string("0010100101")
        assert str(w) == "0010100101"
        assert w.sigma == 4
        assert w.density == Fraction(2, 5)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            Word.from_string("012")
        with pytest.raises(ValueError):
            Word((0, 2))

    def test_rejects_unhashable_and_non_binary_elements(self):
        for bits in [(0, [1]), ({}, 0), (0.5,), (None,), ("1",)]:
            with pytest.raises(ValueError):
                Word(bits)
        with pytest.raises(ValueError):
            Word.from_bits([0, 1, 2])

    def test_derived_words_equal_checked_ones(self):
        w = Word.from_string("0110100")
        for d in [w.prefix(4), w[2:6], w[::2], concat([w, "01", w[:3]])]:
            assert d == Word(tuple(d.bits)) and hash(d) == hash(Word(tuple(d.bits)))

    def test_empty_density_undefined(self):
        with pytest.raises(ValueError):
            Word(()).density


class TestBeatty:
    def test_first_ten_bits_of_two_fifths(self):
        # floor((i+1)*2/5) - floor(i*2/5) for i = 0..9, computed by hand.
        p = beatty_balanced(Fraction(2, 5))
        assert str(p.prefix(10)) == "0010100101"
        assert p.prefix(10).sigma == 4
        assert p.prefix(10).density == Fraction(2, 5)

    def test_factor_from_zero(self):
        assert str(factor(beatty_balanced(Fraction(2, 5)), 0, 5)) == "00101"

    def test_degenerate_densities(self):
        assert str(beatty_balanced(0).prefix(8)) == "00000000"
        assert str(beatty_balanced(1).prefix(8)) == "11111111"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            beatty_balanced(Fraction(6, 5))
        with pytest.raises(ValueError):
            beatty_balanced(Fraction(-1, 5))

    @pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(2, 5), Fraction(7, 12)])
    def test_prefix_sums_are_floors(self, a):
        p = beatty_balanced(a)
        s = 0
        for n in range(1, 200):
            s += p.bit(n - 1)
            assert s == (n * a.numerator) // a.denominator

    @pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(2, 5), Fraction(5, 8)])
    def test_balanced_at_all_factor_lengths(self, a):
        w = beatty_balanced(a).prefix(64)
        assert is_balanced(w, 64)

    @pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(2, 5)])
    def test_prefix_density_within_one_over_n(self, a):
        prof = density_profile(beatty_balanced(a).prefix(100))
        for n, rho in enumerate(prof, start=1):
            assert abs(rho - a) <= Fraction(1, n)


@settings(max_examples=200, deadline=None)
@given(a=st.fractions(min_value=0, max_value=1, max_denominator=200),
       k=st.integers(0, 5000), n=st.integers(0, 300))
def test_closed_form_factor_matches_bit(a, k, n):
    prog = beatty_balanced(a)
    assert factor(prog, k, n).bits == tuple(prog.bit(i) for i in range(k, k + n))


class TestIsBalanced:
    def test_alternating_word(self):
        assert is_balanced("0101010")

    def test_1100_fails_at_length_two(self):
        assert not is_balanced("1100", 2)

    def test_empty_word(self):
        assert is_balanced("")

    def test_max_factor_len_validated(self):
        with pytest.raises(ValueError):
            is_balanced("01", 3)
        with pytest.raises(ValueError):
            is_balanced("0011", -1)

    def test_beatty_prefix_exhaustive(self):
        w = beatty_balanced(Fraction(2, 5)).prefix(64)
        assert is_balanced(w, 64)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, bits):
        w = Word.from_bits(bits)
        assert is_balanced(w, len(bits)) == brute_balanced(bits, len(bits))

    @given(balance_cases(), st.integers(1, 300))
    @settings(max_examples=400, deadline=None)
    def test_blocks_match_per_length_loop(self, case, block):
        # small blocks split the lengths over many passes, one row at least
        w, max_n = case
        want = oracle_is_balanced(w, max_n)
        assert is_balanced(w, max_n) == want
        with mock.patch.object(seq, "_BALANCE_BLOCK", block):
            assert is_balanced(w, max_n) == want

    def test_long_words(self):
        w = factor(beatty_balanced(Fraction(3, 7)), 100, 1500)
        assert is_balanced(w) and oracle_is_balanced(w, len(w))
        bad = Word.from_bits(w.bits[:700] + (1 - w[700],) + w.bits[701:])
        assert is_balanced(bad) == oracle_is_balanced(bad, len(bad)) is False
        assert is_balanced(bad, 1)


class TestDensityProfile:
    def test_all_ones(self):
        assert density_profile("1111") == [Fraction(1)] * 4

    def test_simple(self):
        assert density_profile("10") == [Fraction(1), Fraction(1, 2)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            density_profile("")


class TestConcatAndFactor:
    def test_concat(self):
        assert str(concat(["10", "01"])) == "1001"

    @given(st.lists(st.integers(0, 1), max_size=20), st.lists(st.integers(0, 1), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_sigma_and_length_additive(self, u, v):
        wu, wv = Word.from_bits(u), Word.from_bits(v)
        w = concat([wu, wv])
        assert w.sigma == wu.sigma + wv.sigma
        assert len(w) == len(wu) + len(wv)

    def test_factor_of_shift_is_shifted_factor(self):
        p = beatty_balanced(Fraction(3, 7))
        assert factor(shifted(p, 3), 0, 11) == factor(p, 3, 11)

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_shift_composition(self, m, k, n):
        p = periodic("10010")
        lhs = shifted(shifted(p, m), k)
        rhs = shifted(p, m + k)
        assert factor(lhs, 0, n) == factor(rhs, 0, n)


class TestBlocksProgram:
    def test_cycled_list(self):
        p = block_program([Word.from_string("10"), Word.from_string("0")])
        assert str(p.prefix(9)) == "100100100"

    def test_generator_backed(self):
        def gen():
            n = 1
            while True:
                yield Word.from_bits([1] * n + [0])
                n += 1

        p = block_program(gen())
        assert str(p.prefix(9)) == "101101110"

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            block_program([])


class TestSerialization:
    @pytest.mark.parametrize("prog", [
        beatty_balanced(Fraction(2, 5)),
        periodic("1101"),
        shifted(beatty_balanced(Fraction(1, 3)), 4),
        block_program(["10", "0"]),
    ])
    def test_roundtrip(self, prog):
        clone = SeqProgram.from_json(prog.to_json())
        assert factor(clone, 0, 40) == factor(prog, 0, 40)

    def test_descriptor_shape(self):
        d = json.loads(beatty_balanced(Fraction(2, 5)).to_json())
        assert d == {"kind": "beatty", "params": {"a": "2/5"}}

    def test_generator_blocks_not_serializable(self):
        p = block_program(iter([Word.from_string("1")]))
        with pytest.raises(TypeError):
            p.to_json()
