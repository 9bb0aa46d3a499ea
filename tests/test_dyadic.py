import bisect
import hashlib
import itertools
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microfract import dyadic
from microfract.dyadic import (
    CubeIdx,
    DyadicSet,
    decompose,
    from_json,
    full_cube,
    hausdorff_distance,
    kx_set,
    pack_bits,
    product,
    singleton_chain,
    to_json,
    unpack_bits,
    verify_sandwich,
    zoom,
)
from microfract.errors import ResourceLimitError
from microfract.seq import Word, beatty_balanced, factor


def enumerate_admissible(bits):
    """Oracle: direct enumeration of admissible digit strings."""
    n = len(bits)
    out = set()
    for digits in itertools.product((0, 1), repeat=n):
        if all(d == 0 or x == 1 for d, x in zip(digits, bits)):
            out.add(sum(d << (n - 1 - i) for i, d in enumerate(digits)))
    return out


def random_word(rng, n):
    return Word.from_bits(rng.integers(0, 2, size=n).tolist())


class TestKxSet:
    def test_all_ones_is_full(self):
        assert kx_set("1111") == full_cube(1, 4)

    def test_all_zeros_is_origin_chain(self):
        s = kx_set("0000")
        assert s.leaves == frozenset({(0,)})

    def test_101101_has_sixteen_leaves(self):
        s = kx_set("101101")
        assert len(s.leaves) == 16
        assert {c for (c,) in s.leaves} == enumerate_admissible([1, 0, 1, 1, 0, 1])

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_leaf_count_is_two_to_sigma(self, bits):
        w = Word.from_bits(bits)
        assert len(kx_set(w).leaves) == 2 ** w.sigma

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_level_counts_project_to_prefix(self, bits, data):
        w = Word.from_bits(bits)
        m = data.draw(st.integers(0, len(bits)))
        assert kx_set(w).count(m) == 2 ** w.prefix(m).sigma


class TestProduct:
    def test_full_times_full(self):
        assert product(kx_set("11"), kx_set("11")) == full_cube(2, 2)

    def test_counts_multiply(self):
        a, b = kx_set("101"), kx_set("110")
        p = product(a, b)
        assert len(p.leaves) == len(a.leaves) * len(b.leaves)

    def test_kx_10_squared(self):
        p = product(kx_set("10"), kx_set("10"))
        assert p.leaves == frozenset({(0, 0), (0, 2), (2, 0), (2, 2)})

    def test_depth_mismatch(self):
        with pytest.raises(ValueError):
            product(kx_set("10"), kx_set("101"))


class TestHausdorff:
    def test_identical_sets(self):
        a = kx_set("10110")
        assert hausdorff_distance(a, a) == 0

    def test_unit_vs_left_half(self):
        n = 4
        a = full_cube(1, n)
        b = DyadicSet(1, n, frozenset((c,) for c in range(1 << (n - 1))))
        assert hausdorff_distance(a, b) == Fraction(1, 2)

    def test_empty_operand_rejected(self):
        a = kx_set("1")
        with pytest.raises(ValueError):
            hausdorff_distance(a, DyadicSet(1, 1, frozenset()))

    def test_contraction_bound_over_random_pairs(self):
        rng = np.random.default_rng(7)
        n = 10
        for _ in range(200):
            x, y = random_word(rng, n), random_word(rng, n)
            if x == y:
                continue
            first_diff = next(i for i in range(n) if x[i] != y[i])
            d = hausdorff_distance(kx_set(x), kx_set(y))
            assert d <= Fraction(1, 1 << first_diff)

    def test_metric_axioms_1d(self):
        rng = np.random.default_rng(3)
        sets = [kx_set(random_word(rng, 6)) for _ in range(6)]
        for a, b in itertools.combinations(sets, 2):
            assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
            assert (hausdorff_distance(a, b) == 0) == (a.leaves == b.leaves)
        for a, b, c in itertools.combinations(sets, 3):
            assert hausdorff_distance(a, c) <= (
                hausdorff_distance(a, b) + hausdorff_distance(b, c)
            )

    def test_metric_axioms_2d_sup(self):
        rng = np.random.default_rng(5)
        sets = [
            product(kx_set(random_word(rng, 4)), kx_set(random_word(rng, 4)))
            for _ in range(5)
        ]
        for a, b in itertools.combinations(sets, 2):
            assert hausdorff_distance(a, b, "sup") == hausdorff_distance(b, a, "sup")
        for a, b, c in itertools.combinations(sets, 3):
            assert hausdorff_distance(a, c, "sup") <= (
                hausdorff_distance(a, b, "sup") + hausdorff_distance(b, c, "sup")
            )

    def test_1d_paths_agree(self):
        # The interval sweep and the lattice scan must give identical values.
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = kx_set(random_word(rng, 8)), kx_set(random_word(rng, 8))
            iv = max(
                dyadic._directed_1d(
                    dyadic._intervals_half_units(a), dyadic._intervals_half_units(b)
                ),
                dyadic._directed_1d(
                    dyadic._intervals_half_units(b), dyadic._intervals_half_units(a)
                ),
            )
            lat = max(dyadic._directed_sup(a, b), dyadic._directed_sup(b, a))
            assert iv == lat

    def test_2d_against_dense_sampling(self):
        # A quarter-step lattice scan (finer superset of the half-step one)
        # must reproduce the claimed exact value.
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = product(kx_set(random_word(rng, 3)), kx_set(random_word(rng, 3)))
            b = product(kx_set(random_word(rng, 3)), kx_set(random_word(rng, 3)))
            exact = hausdorff_distance(a, b, "sup")
            dense = max(self._sampled_directed(a, b), self._sampled_directed(b, a))
            assert Fraction(dense, 1 << (a.depth + 2)) == exact

    @staticmethod
    def _sampled_directed(a, b):
        # quarter-cell lattice, integer arithmetic
        offs = np.array(list(itertools.product(range(5), repeat=a.d)))
        pa = np.unique(
            (4 * np.array(sorted(a.leaves))[:, None, :] + offs[None, :, :]).reshape(-1, a.d),
            axis=0,
        )
        lo = 4 * np.array(sorted(b.leaves))
        hi = lo + 4
        gaps = np.maximum(lo[None, :, :] - pa[:, None, :], pa[:, None, :] - hi[None, :, :])
        np.maximum(gaps, 0, out=gaps)
        return int(gaps.max(axis=2).min(axis=1).max())

    def test_euclidean_1d_matches_sup(self):
        a, b = kx_set("1010"), kx_set("0110")
        assert hausdorff_distance(a, b, "euclidean") == hausdorff_distance(a, b, "sup")

    def test_euclidean_2d_rejected(self):
        a = product(kx_set("10"), kx_set("10"))
        with pytest.raises(ValueError):
            hausdorff_distance(a, a, "euclidean")


class TestZoom:
    def test_identity(self):
        a = kx_set("10110")
        assert zoom(a, 0, 0) == a

    def test_zoom_is_shift(self):
        x = beatty_balanced(Fraction(2, 5)).prefix(8)
        lhs = zoom(kx_set(x), 1, 0)
        rhs = kx_set(Word(x.bits[1:]))
        assert lhs == rhs

    def test_composition(self):
        a = kx_set("11011")
        m1, u1 = 1, Fraction(1, 4)
        m2, u2 = 2, Fraction(-5, 4)
        lhs = zoom(zoom(a, m1, u1), m2, u2)
        rhs = zoom(a, m1 + m2, (1 << m2) * u1 + u2)
        assert lhs == rhs

    def test_negative_translation_in_range(self):
        a = DyadicSet(1, 3, frozenset({(6,), (7,)}))
        out = zoom(a, 1, -Fraction(3, 2))
        assert out.leaves == frozenset({(0,), (1,)})

    def test_empty_view_rejected(self):
        a = singleton_chain(1, 3, (7,))
        with pytest.raises(ValueError):
            zoom(a, 1, -Fraction(7, 2))  # lands exactly on the right boundary cell

    def test_misaligned_translation_rejected(self):
        a = kx_set("1111")
        with pytest.raises(ValueError):
            zoom(a, 2, Fraction(1, 8))

    def test_exponent_bounds(self):
        a = kx_set("11")
        with pytest.raises(ValueError):
            zoom(a, 3, 0)

    def test_meets_open_cube_flag(self):
        # full cells inside the unit cube meet (0,1)^d exactly when the set is nonempty
        assert not kx_set("000").is_empty


class TestDecompose:
    def test_level_zero(self):
        pieces = decompose("1011", 0)
        assert len(pieces) == 1
        u, piece = pieces[0]
        assert u == 0 and piece == kx_set("1011")

    def test_word_11_level_1(self):
        pieces = decompose("11", 1)
        assert [u for u, _ in pieces] == [Fraction(0), Fraction(1, 2)]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_union_and_count(self, bits, data):
        w = Word.from_bits(bits)
        n = data.draw(st.integers(0, len(bits)))
        pieces = decompose(w, n)
        assert len(pieces) == 2 ** w.prefix(n).sigma
        union = frozenset().union(*(p.leaves for _, p in pieces))
        assert union == kx_set(w).leaves
        ancs = [frozenset(c >> (len(bits) - n) for (c,) in p.leaves) for _, p in pieces]
        for s in ancs:
            assert len(s) == 1  # each piece sits in a single level-n cell

    def test_pieces_are_translates_of_shifted_set(self):
        w = Word.from_string("110101")
        n = 2
        for u, piece in decompose(w, n):
            view = zoom(piece, n, -u * (1 << n))
            assert view == kx_set(Word(w.bits[n:]))


class TestSandwich:
    def test_equal_sets(self):
        c = kx_set("101")
        assert verify_sandwich(c, c, [0])

    def test_strictly_larger_fails(self):
        c = singleton_chain(1, 2, (0,))
        e = DyadicSet(1, 2, frozenset({(0,), (3,)}))
        assert not verify_sandwich(e, c, [0])

    def test_union_of_translates(self):
        c = singleton_chain(1, 2, (0,))
        e = DyadicSet(1, 2, frozenset({(0,), (2,)}))
        assert verify_sandwich(e, c, [0, Fraction(1, 2)])

    def test_zoomed_square_view(self):
        x = Word.from_string("1101")
        sq = product(kx_set(x), kx_set(x))
        m = 1
        view = zoom(sq, m, 0)
        c = product(kx_set(Word(x.bits[m:])), kx_set(Word(x.bits[m:])))
        assert verify_sandwich(view, c, [(0, 0)])

    def test_depth_mismatch(self):
        with pytest.raises(ValueError):
            verify_sandwich(kx_set("10"), kx_set("101"), [0])


class TestSerialization:
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip(self, bits):
        s = kx_set(Word.from_bits(bits))
        assert from_json(to_json(s)) == s

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_bitpack_roundtrip(self, bits):
        s = kx_set(Word.from_bits(bits))
        assert unpack_bits(pack_bits(s)) == s

    def test_bitpack_roundtrip_2d(self):
        s = product(kx_set("101"), kx_set("011"))
        assert unpack_bits(pack_bits(s)) == s

    def test_bitpack_empty(self):
        s = DyadicSet(2, 3, frozenset())
        assert unpack_bits(pack_bits(s)) == s

    def test_bitpack_is_compact(self):
        s = kx_set(factor(beatty_balanced(Fraction(1, 2)), 0, 16))
        assert len(pack_bits(s)) < len(to_json(s).encode()) / 4


def kb(p, n):
    return kx_set(factor(beatty_balanced(p), 0, n))


# sha256 of pack_bits, recorded with the per-bit writer before Morton codes
# replaced it.
PINNED_PACKS = [
    (lambda: kb(Fraction(2, 5), 14),
     "ef3fc6a5d518d5002ab3eabc89ddc0c9a46556d039daa476d673be8e96fb400a"),
    (lambda: product(kb(Fraction(2, 3), 7), kb(Fraction(3, 4), 7)),
     "646b8e086cd14061d744374d4c5655f3b195eb36cadb6da50793de7a2b3e507d"),
    (lambda: product(product(kb(Fraction(1, 2), 5), kb(Fraction(3, 5), 5)),
                     kb(Fraction(4, 5), 5)),
     "b0047e87b53d115153359c014d20f1c8e8ee69fd38316c13e1bbbf2d9612b987"),
]


@pytest.mark.parametrize("build, sha", PINNED_PACKS, ids=["d1", "d2", "d3"])
def test_pinned_pack_bits(build, sha):
    s = build()
    packed = pack_bits(s)
    assert hashlib.sha256(packed).hexdigest() == sha
    assert unpack_bits(packed) == s


def cells(d, depth, seed, fill):
    rng = np.random.default_rng(seed)
    n = 1 << (d * depth)
    picked = rng.random(n) < fill
    return DyadicSet(d, depth, frozenset(
        itertools.compress(itertools.product(range(1 << depth), repeat=d), picked)))


def oracle_morton(cells, level):
    """Reference: the bit loop the magic-number spread replaced."""
    m, d = cells.shape
    code = np.zeros(m, dtype=np.int64)
    for a in range(d):
        for j in range(level):
            code |= ((cells[:, a] >> j) & 1) << (j * d + d - 1 - a)
    return code


def oracle_unmorton(codes, level, d):
    """Reference: the bit loop the magic-number gather replaced."""
    cells = np.zeros((codes.shape[0], d), dtype=np.int64)
    for a in range(d):
        for j in range(level):
            cells[:, a] |= ((codes >> (j * d + d - 1 - a)) & 1) << j
    return cells


class TestMortonCodes:
    @pytest.mark.parametrize("d, depth", [(1, 9), (2, 5), (3, 3)])
    def test_queries_match_leaf_tuples(self, d, depth):
        for seed, fill in [(1, 0.05), (2, 0.4), (3, 0.9)]:
            s = cells(d, depth, seed, fill)
            assert list(s.codes) == sorted(set(s.codes.tolist()))
            for m in range(depth + 1):
                want = {tuple(c >> (depth - m) for c in leaf) for leaf in s.leaves}
                assert s.level_cells(m) == want and s.count(m) == len(want)
                for cell in itertools.product(range(1 << m), repeat=d):
                    assert (CubeIdx(m, cell) in s) == (cell in want)

    def test_axis_0_takes_the_high_bit(self):
        assert dyadic._unmorton(np.arange(4), 1, 2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert dyadic._morton(np.array([[1, 2]]), 2).tolist() == [0b0110]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_magic_spreads_match_bit_loops(self, d):
        rng = np.random.default_rng(d)
        for level in range(min(31, 62 // d) + 1):
            cells = rng.integers(0, 1 << level, size=(64, d))
            cells[0], cells[1] = 0, (1 << level) - 1
            codes = oracle_morton(cells, level)
            assert dyadic._morton(cells, level).tolist() == codes.tolist()
            assert dyadic._unmorton(codes, level, d).tolist() == cells.tolist()
            if d > 1:  # bits at and above the level are ignored, as by the loop
                high = cells | rng.integers(0, 4, size=cells.shape) << level
                assert dyadic._morton(high, level).tolist() == oracle_morton(high, level).tolist()
            noise = rng.integers(0, 1 << d * level, size=64)
            assert dyadic._unmorton(noise, level, d).tolist() == \
                oracle_unmorton(noise, level, d).tolist()

    def test_code_width_limit(self):
        with pytest.raises(ResourceLimitError):
            kx_set("1" * 3 + "0" * 67)
        with pytest.raises(ResourceLimitError):
            from_json('{"d":2,"depth":32,"leaves":[]}')
        assert kx_set("1" * 3 + "0" * 59).count(62) == 8


KX_1101 = pack_bits(kx_set("1101"))  # 23 bits: one padding bit


class TestUnpackRejects:
    @pytest.mark.parametrize("data, message", [
        (b"DYB2" + KX_1101[4:], "bad magic"),
        (KX_1101[:-1], "truncated"),
        (KX_1101[:6], "truncated"),
        (KX_1101[:-1] + bytes([KX_1101[-1] | 1]), "trailing"),
        (KX_1101 + b"\x00", "trailing"),
        (pack_bits(DyadicSet(1, 3, frozenset())) + b"\x00", "trailing"),
        (b"DYB1" + bytes([2, 32]) + b"\x80", "d\\*depth <= 62"),
        (b"DYB1" + bytes([0, 3]) + b"\x80", "1 <= d"),
        (b"DYB1" + bytes([1, 1]) + b"\x80", "childless"),
    ])
    def test_one_line_value_error(self, data, message):
        with pytest.raises(ValueError, match=message) as err:
            unpack_bits(data)
        assert "\n" not in str(err.value)

    @given(st.one_of(
        st.binary(max_size=24),
        st.builds(lambda d, depth, body: b"DYB1" + bytes([d, depth]) + body,
                  st.integers(0, 255), st.integers(0, 255), st.binary(max_size=24)),
        st.builds(lambda d, depth, body: b"DYB1" + bytes([d, depth]) + body,
                  st.integers(1, 3), st.integers(0, 4), st.binary(max_size=24)),
        st.builds(lambda bits, flip: bytes(b ^ (flip >> 3 == i) << (flip & 7)
                                           for i, b in enumerate(pack_bits(
                                               kx_set(Word.from_bits(bits))))),
                  st.lists(st.integers(0, 1), max_size=10), st.integers(0, 80)),
    ))
    @settings(max_examples=400, deadline=None)
    def test_random_bytes_fail_cleanly_or_round_trip(self, data):
        try:
            s = unpack_bits(data)
        except (ValueError, ResourceLimitError):
            return
        assert pack_bits(s) == data


# ---------------------------------------------------------------------------
# The code-based operations against the tuple implementations they replaced
# ---------------------------------------------------------------------------

def oracle_validated(d, depth, leaves):
    """Reference: the leaf set, after a per-leaf check that each is a cell."""
    s = frozenset(map(tuple, leaves))
    for leaf in s:
        if len(leaf) != d or any(not 0 <= c < 1 << depth for c in leaf):
            raise ValueError(f"bad leaf {leaf}")
    return s


def oracle_full_cube(d, depth):
    return frozenset(itertools.product(range(1 << depth), repeat=d))


def oracle_product(a, b):
    return frozenset(la + lb for la in a.leaves for lb in b.leaves)


def oracle_translate(c, shift):
    return {tuple(x + s for x, s in zip(leaf, shift)) for leaf in c.leaves}


def oracle_zoom(a, m, shift):
    """The leaves of the zoomed view for a translation of ``shift`` cells."""
    hi = 1 << (a.depth - m)
    return frozenset(leaf for leaf in oracle_translate(a, shift)
                     if all(0 <= c < hi for c in leaf))


def oracle_sandwich(e, c, shifts):
    shifted = [frozenset(oracle_translate(c, s)) for s in shifts]
    return shifted[0] <= e.leaves and e.leaves <= frozenset().union(*shifted)


def morton_of(leaves, d, depth):
    """Reference Morton codes, bit by bit: level-j bit of axis a at j*d + d-1-a."""
    return sorted(sum(((c >> j) & 1) << (j * d + d - 1 - a)
                      for a, c in enumerate(leaf) for j in range(depth)) for leaf in leaves)


def oracle_hausdorff_1d(a, b):
    """Reference: the interval sweep over Python ints the array version
    replaced, in units of half a cell."""
    def intervals(s):
        runs = []
        for (c,) in sorted(s.leaves):
            if runs and runs[-1][1] == 2 * c:
                runs[-1][1] = 2 * c + 2
            else:
                runs.append([2 * c, 2 * c + 2])
        return runs

    def dist(x, starts, ends):
        j = bisect.bisect_right(starts, x) - 1
        near = [] if j < 0 else [0 if x <= ends[j] else x - ends[j]]
        return min(near + ([starts[j + 1] - x] if j + 1 < len(starts) else []))

    def directed(a_iv, b_iv):
        starts, ends = [s for s, _ in b_iv], [e for _, e in b_iv]
        cands = [x for iv in a_iv for x in iv]
        for i in range(len(b_iv) - 1):
            mid = (ends[i] + starts[i + 1]) // 2
            j = bisect.bisect_right([s for s, _ in a_iv], mid) - 1
            if j >= 0 and a_iv[j][0] <= mid <= a_iv[j][1]:
                cands.append(mid)
        return max(dist(x, starts, ends) for x in cands)

    ai, bi = intervals(a), intervals(b)
    return Fraction(max(directed(ai, bi), directed(bi, ai)), 1 << (a.depth + 1))


@st.composite
def cell_sets(draw, d=None, depth=None, max_leaves=40):
    d = draw(st.integers(1, 3)) if d is None else d
    depth = draw(st.integers(0, 9 // d)) if depth is None else depth
    coord = st.integers(0, (1 << depth) - 1)
    return DyadicSet(d, depth, draw(st.frozensets(st.tuples(*[coord] * d),
                                                  max_size=max_leaves)))


def grid_shifts(draw, d, depth, level):
    """Integer shifts, in level cells, reaching from fully out to fully in."""
    reach = st.integers(-(1 << depth) - 1, (1 << level) + 1)
    return tuple(draw(reach) for _ in range(d))


class TestCodesMatchTupleOracles:
    @given(d=st.integers(1, 3), depth=st.integers(0, 3), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_constructor_and_json_validate_like_the_leaf_check(self, d, depth, data):
        lengths = st.integers(max(0, d - 1), d + 1) if data.draw(st.booleans()) else st.just(d)
        values = st.integers(-1, (1 << depth) + 1) if data.draw(st.booleans()) \
            else st.integers(0, (1 << depth) - 1)
        leaves = data.draw(st.lists(lengths.flatmap(
            lambda n: st.lists(values, min_size=n, max_size=n)), max_size=12))
        try:
            want = oracle_validated(d, depth, leaves)
        except ValueError:
            with pytest.raises(ValueError):
                DyadicSet(d, depth, map(tuple, leaves))
            with pytest.raises(ValueError):
                from_json(f'{{"d":{d},"depth":{depth},"leaves":{leaves}}}')
            return
        for s in (DyadicSet(d, depth, map(tuple, leaves)),
                  from_json(f'{{"d":{d},"depth":{depth},"leaves":{leaves}}}')):
            assert s.leaves == want
            assert s.codes.tolist() == morton_of(want, d, depth)
            assert s == DyadicSet(d, depth, want) and hash(s) == hash(DyadicSet(d, depth, want))

    def test_out_of_range_leaf_rejected(self):
        # accepted before, as code 5 of a depth-2 set, with a bogus pack_bits
        with pytest.raises(ValueError):
            DyadicSet(1, 2, frozenset({(5,)}))
        with pytest.raises(ValueError):
            DyadicSet(2, 2, frozenset({(1,)}))
        with pytest.raises(ValueError):
            DyadicSet(1, 2, frozenset({(True,)}))
        with pytest.raises(ValueError):
            DyadicSet(1, 2, frozenset({(np.bool_(True),)}))
        with pytest.raises(ValueError):
            DyadicSet(1, 2, frozenset({(np.uint64(2**64 - 1),)}))

    def test_numpy_integer_leaves_accepted(self):
        want = DyadicSet(2, 3, {(1, 2), (7, 0)})
        assert DyadicSet(2, 3, {(np.int64(1), np.int64(2)), (np.uint8(7), 0)}) == want
        arr = np.array([[1, 2], [7, 0], [1, 2]], dtype=np.int32)
        assert DyadicSet(2, 3, map(tuple, arr)) == want
        assert DyadicSet(2, 3, map(tuple, arr)).leaves == want.leaves == {(1, 2), (7, 0)}

    @pytest.mark.parametrize("d, depth", [(1, 0), (1, 7), (2, 0), (2, 4), (3, 3)])
    def test_full_cube(self, d, depth):
        s = full_cube(d, depth)
        assert s.leaves == oracle_full_cube(d, depth)
        assert s.codes.tolist() == morton_of(s.leaves, d, depth)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_product(self, data):
        depth = data.draw(st.integers(0, 3))
        a = data.draw(cell_sets(depth=depth))
        b = data.draw(cell_sets(depth=depth))
        p = product(a, b)
        assert (p.d, p.depth) == (a.d + b.d, depth)
        assert p.leaves == oracle_product(a, b)
        assert p.codes.tolist() == morton_of(p.leaves, p.d, depth)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_zoom(self, data):
        a = data.draw(cell_sets())
        m = data.draw(st.integers(0, a.depth))
        level = a.depth - m
        shift = grid_shifts(data.draw, a.d, a.depth, level)
        u = tuple(Fraction(s, 1 << level) for s in shift)
        want = oracle_zoom(a, m, shift)
        if not want:
            with pytest.raises(ValueError, match="empty"):
                zoom(a, m, u)
            return
        view = zoom(a, m, u)
        assert (view.d, view.depth) == (a.d, level) and view.leaves == want
        assert view.codes.tolist() == morton_of(want, a.d, level)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_zoom_unaligned_translation_rejected(self, data):
        a = data.draw(cell_sets())
        m = data.draw(st.integers(0, a.depth))
        level = a.depth - m
        u = [Fraction(data.draw(st.integers(-9, 9)), 1 << level) for _ in range(a.d)]
        u[data.draw(st.integers(0, a.d - 1))] += Fraction(1, 2 << level)
        with pytest.raises(ValueError, match="aligned"):
            zoom(a, m, tuple(u))

    def test_zoom_far_translation_is_empty(self):
        with pytest.raises(ValueError, match="empty"):
            zoom(full_cube(2, 3), 1, (10 ** 30, 0))
        assert not verify_sandwich(full_cube(1, 3), full_cube(1, 3), [-10 ** 30])

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_verify_sandwich(self, data):
        c = data.draw(cell_sets())
        shifts = [grid_shifts(data.draw, c.d, c.depth, c.depth)
                  for _ in range(data.draw(st.integers(1, 3)))]
        inside = frozenset(leaf for s in shifts for leaf in oracle_translate(c, s)
                           if all(0 <= x < 1 << c.depth for x in leaf))
        # e: the in-cube union of the translates, one leaf of it dropped or one added
        e = set(inside)
        if data.draw(st.booleans()):
            if e and data.draw(st.booleans()):
                e.discard(data.draw(st.sampled_from(sorted(e))))
            else:
                e.add(tuple(data.draw(st.integers(0, (1 << c.depth) - 1))
                            for _ in range(c.d)))
        e = DyadicSet(c.d, c.depth, e)
        u = [tuple(Fraction(x, 1 << c.depth) for x in s) for s in shifts]
        assert verify_sandwich(e, c, u) == oracle_sandwich(e, c, shifts)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_hausdorff_1d(self, data):
        depth = data.draw(st.integers(0, 10))
        a, b = (data.draw(cell_sets(d=1, depth=depth, max_leaves=60).filter(
            lambda s: not s.is_empty)) for _ in range(2))
        assert hausdorff_distance(a, b) == oracle_hausdorff_1d(a, b)


class TestJsonFuzz:
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
        | st.floats(allow_nan=True) | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
            st.sampled_from(["d", "depth", "leaves", "x"]), inner, max_size=4),
        max_leaves=20)

    objects = st.one_of(
        json_values,
        st.fixed_dictionaries({
            "d": st.one_of(st.integers(-3, 4), st.integers(-2 ** 70, 2 ** 70), st.booleans()),
            "depth": st.one_of(st.integers(-3, 8), st.integers(-2 ** 70, 2 ** 70),
                               st.booleans(), st.floats()),
            "leaves": st.lists(st.lists(st.one_of(
                st.integers(-2, 9), st.integers(-2 ** 70, 2 ** 70), st.booleans(),
                st.floats(), st.none()), max_size=4), max_size=6),
        }),
    )

    @given(objects)
    @settings(max_examples=400, deadline=None)
    def test_from_json_raises_only_documented_errors(self, obj):
        try:
            s = from_json(json.dumps(obj))
        except (ValueError, ResourceLimitError):
            return
        assert from_json(to_json(s)) == s
        assert sorted(map(list, s.leaves)) == sorted(
            map(list, {tuple(leaf) for leaf in obj["leaves"]}))

    @given(objects)
    @settings(max_examples=400, deadline=None)
    def test_from_json_errors_match_the_constructor_path(self, obj):
        text = json.dumps(obj)
        try:
            want = oracle_from_json(text)
        except (ValueError, ResourceLimitError) as e:
            with pytest.raises(type(e)) as got:
                from_json(text)
            assert str(got.value) == str(e) and "\n" not in str(e)
            return
        assert from_json(text) == want

    def test_deep_nesting_is_a_value_error(self):
        with pytest.raises(ValueError):
            from_json("[" * 100_000 + "]" * 100_000)


def oracle_from_json(s):
    """Reference: the parse the single-array one replaced, which hands the
    parsed leaves to the constructor."""
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


def assert_reads_as_oracle(text):
    """``from_json`` gives the oracle's set, or its error type and message."""
    try:
        want = oracle_from_json(text)
    except (ValueError, ResourceLimitError) as e:
        with pytest.raises(type(e)) as got:
            from_json(text)
        assert str(got.value) == str(e) and "\n" not in str(e)
        return
    assert from_json(text) == want


def _no_json_loads(*args, **kwargs):
    raise AssertionError("json.loads called on canonical text")


class TestCanonicalJson:
    """The text ``to_json`` writes is read without ``json.loads``; all of it,
    and the JSON one edit away, reads as the ``json.loads`` path does."""

    @given(TestJsonFuzz.objects)
    @settings(max_examples=400, deadline=None)
    def test_compact_text_matches_the_json_loads_path(self, obj):
        assert_reads_as_oracle(json.dumps(obj, separators=(",", ":")))

    @pytest.mark.parametrize("text", [
        '{"d":1,"depth":3,"leaves":[[01]]}',
        '{"d":1,"depth":3,"leaves":[[-0]]}',
        '{"d":1,"depth":3,"leaves":[[00]]}',
        '{"d":1,"depth":60,"leaves":[[999999999999999999]]}',
        '{"d":1,"depth":60,"leaves":[[1000000000000000000]]}',
        '{"d":1,"depth":3,"leaves":[[999999999999999999]]}',
        '{"d":1,"depth":3,"leaves":[[99999999999999999999]]}',
        '{"d":1,"depth":3,"leaves":[[9999999999999999999]]}',
        '{"d":0,"depth":3,"leaves":[[1]]}',
        '{"d":100,"depth":3,"leaves":[[1]]}',
        '{"d":1,"depth":0,"leaves":[[0]]}',
        '{"d":1,"depth":100,"leaves":[[1]]}',
        '{"d":2,"depth":1,"leaves":[[0]]}',
        '{"d":07,"depth":3,"leaves":[[1]]}',
        '{"d":2,"depth":3,"leaves":[[1,2],[3]]}',
        '{"d":2,"depth":3,"leaves":[[1,2],[3,4,5]]}',
        '{"d":2,"depth":3,"leaves":[[1,2],[]]}',
        '{"d":2,"depth":3,"leaves":[[1,2],[3,8]]}',
        '{"d":2,"depth":3,"leaves":[]}',
        '{"d":2,"depth":3,"leaves":[]}\n',
        '{"d":2,"depth":3,"leaves":[[1,2]]} \t\r\n',
        '{"d":2,"depth":3,"leaves":[[1,2]]}　',
        '{"d":2,"depth":3,"leaves":[[1,2]]}\x0b',
        ' {"d":2,"depth":3,"leaves":[[1,2]]}',
        '{"d":1,"d":2,"depth":3,"leaves":[[1,2]]}',
        '{"d":1,"depth":3,"leaves":[[1],[٣]]}',
        '{"d":1,"depth":3,"leaves":[[1],[2٣]]}',
        '{"d":1,"depth":3,"leaves":[[1],[2]],"x":[]}',
        '{"d":1,"depth":3,"leaves":[[1],[2]]}]',
        '{"d":1,"depth":3,"leaves":[[1],[2],]}',
        '{"d":1,"depth":3,"leaves":[[1],[2.0]]}',
        '{"d":1,"depth":3,"leaves":[[1],[true]]}',
        '{"d":1,"depth":3,"leaves":[[1] ,[2]]}',
        '{"d":2,"depth":3,"leaves":[[1 2]]}',
        '{"d":2,"depth":3,"leaves":[[1;2]]}',
        '{"d":1,"depth":3,"leaves":[]1[,[2]]}',
        '{"d":1,"depth":3,"leaves":[5[1]]}',
        '{"d":1,"depth":3,"leaves":[[1]5]}',
        '{"d":1,"depth":3,"leaves":[[1],[\ud800]]}',
    ])
    def test_edge_texts_match_the_json_loads_path(self, text):
        assert_reads_as_oracle(text)

    @pytest.mark.parametrize("text", [
        '{"d":1,"depth":60,"leaves":[[999999999999999999]]}',
        '{"d":2,"depth":3,"leaves":[]}\n',
        '{"d":1,"depth":3,"leaves":[[1],[2],[1]]}',
    ])
    def test_edge_texts_take_the_fast_path(self, text):
        with mock.patch.object(dyadic.json, "loads", _no_json_loads):
            got = from_json(text)
        assert got == oracle_from_json(text)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_artifacts_do_not_call_json_loads(self, d):
        sets = [cells(d, 9 // d, d, 0.4), full_cube(d, 0), DyadicSet(d, 3, []),
                singleton_chain(d, 60 // d, (5,) * d)]
        texts = [to_json(s) + "\n" for s in sets]
        with mock.patch.object(dyadic.json, "loads", _no_json_loads):
            assert [from_json(t) for t in texts] == sets

    def test_bytes_go_through_json_loads(self):
        s = cells(2, 4, 2, 0.4)
        assert from_json(to_json(s).encode()) == s

    def test_out_of_range_cells_raise_the_constructor_error(self):
        text = '{"d":2,"depth":3,"leaves":[[1,2],[3,8]]}'
        with mock.patch.object(dyadic.json, "loads", _no_json_loads):
            with pytest.raises(ValueError, match=r"^leaves of a set at d=2, depth=3 are 2 "):
                from_json(text)


def oracle_leaves(s):
    return frozenset(zip(*dyadic._unmorton(s.codes, s.depth, s.d).T.tolist()))


def oracle_to_json(a):
    """Reference: the ``json.dumps`` encoder the row template replaced."""
    leaves = sorted(map(list, oracle_leaves(a)))  # lexicographic
    return json.dumps({"d": a.d, "depth": a.depth, "leaves": leaves}, separators=(",", ":"))


class TestToJsonBytes:
    @given(d=st.integers(1, 4), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps(self, d, data):
        s = data.draw(cell_sets(d=d, depth=data.draw(st.integers(0, 12 // d)), max_leaves=200))
        text = to_json(s)
        assert text == oracle_to_json(s)
        assert from_json(text) == s

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_empty_depth_zero_and_large(self, d):
        sets = [DyadicSet(d, depth, []) for depth in (0, 1, 5)]
        sets += [full_cube(d, 0), full_cube(d, 12 // d),
                 cells(d, 12 // d, d, 0.3), singleton_chain(d, 40 // d, (7,) * d)]
        for s in sets:
            assert to_json(s) == oracle_to_json(s)
            assert from_json(to_json(s)) == s
        assert to_json(DyadicSet(d, 0, [])) == '{"d":%d,"depth":0,"leaves":[]}' % d

    def test_kx_set_words(self):
        for w in ["", "0", "1", "1101101", "1" * 14 + "0" * 3, "0" * 30 + "11"]:
            s = kx_set(w)
            assert to_json(s) == oracle_to_json(s)


class TestLeavesView:
    """``leaves`` against a ``frozenset`` of the decoded codes."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_frozenset_oracle(self, data):
        s = data.draw(cell_sets())
        v, want = s.leaves, oracle_leaves(s)
        assert len(v) == len(want) and sorted(v) == sorted(want)
        assert len(list(v)) == len(want) and frozenset(v) == want
        assert hash(v) == hash(want) and v.isdisjoint(want) == (not want)
        near = set(want)  # one leaf added or dropped, on the same grid
        if near and data.draw(st.booleans()):
            near.discard(data.draw(st.sampled_from(sorted(near))))
        else:
            near.add(tuple(data.draw(st.integers(0, (1 << s.depth) - 1)) for _ in range(s.d)))
        others = [s, DyadicSet(s.d, s.depth, want), DyadicSet(s.d, s.depth, near),
                  data.draw(cell_sets(d=s.d, depth=s.depth)), data.draw(cell_sets()),
                  DyadicSet(s.d, s.depth + 1, want), DyadicSet(s.d + 1, s.depth, [])]
        for o in others:
            ow = oracle_leaves(o)
            for rhs in (o.leaves, ow, set(ow)):
                assert (v == rhs, v != rhs, rhs == v, rhs != v) == \
                    (want == ow, want != ow, ow == want, ow != want)
                assert (v <= rhs, v >= rhs, v < rhs, v > rhs) == \
                    (want <= ow, want >= ow, want < ow, want > ow)
                assert (rhs <= v, rhs >= v, rhs < v, rhs > v) == \
                    (ow <= want, ow >= want, ow < want, ow > want)
                for got, expect in [(v | rhs, want | ow), (v & rhs, want & ow),
                                    (v - rhs, want - ow), (rhs | v, ow | want),
                                    (rhs & v, ow & want), (rhs - v, ow - want)]:
                    assert got == expect and isinstance(got, (set, frozenset))
                assert type(v | rhs) is frozenset

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_membership_matches_frozenset(self, data):
        s = data.draw(cell_sets())
        v, want = s.leaves, oracle_leaves(s)
        top = 1 << s.depth
        cell = data.draw(st.sampled_from(sorted(want))) if want else \
            tuple(data.draw(st.integers(0, top - 1)) for _ in range(s.d))
        probes = [
            cell, tuple(map(np.int64, cell)), tuple(map(np.uint16, cell)),
            tuple(map(np.int32, cell)), tuple(map(float, cell)),
            tuple(c + 0.5 for c in cell), (True,) * s.d, (False,) * s.d,
            (np.True_,) * s.d, cell + (0,), cell[:-1], (),
            (-1,) + cell[1:], (top,) + cell[1:], (2 ** 70,) + cell[1:], (-2 ** 70,) + cell[1:],
            cell[:-1] + (cell[-1] + top,), tuple(str(c) for c in cell), (None,) * s.d,
            list(cell), (list(cell),), cell[0], None, "ab", np.array(cell), frozenset(cell),
            data.draw(st.tuples(*[st.integers(-3, top + 2)] * s.d)),
        ]

        def answer(container, probe):
            try:
                return probe in container
            except TypeError:
                return TypeError

        for probe in probes:
            assert answer(v, probe) == answer(want, probe), probe


class TestTupleViewIsDerived:
    """Only iterating ``leaves`` (or calling ``level_cells``) builds
    coordinate tuples: builders, operations, and ``len``, ``in`` and
    ``==``/``<=`` on the leaf views work on the codes alone."""

    def test_builders_and_operations_build_no_tuples(self, monkeypatch, tmp_path):
        from microfract.cli import main
        from microfract.percolation import (GammaStarConfig, PercField, RetentionSchedule,
                                            gamma_star, sample)
        from microfract.realize import TargetSpec

        def refuse(s, m):
            raise AssertionError("coordinate tuples built")

        monkeypatch.setattr(DyadicSet, "level_cells", refuse)
        a = kx_set("1101101")
        sq = product(a, full_cube(1, 7))
        field = PercField(1)
        cfg = GammaStarConfig(Fraction(1), (Fraction(1, 2),), (3,), (0.5,), (64, 3), 1)
        spec = TargetSpec.interval_union([(Fraction(2, 5), Fraction(9, 10))])
        built = [a, full_cube(2, 3), sq, zoom(sq, 2, (Fraction(1, 4), 0)),
                 unpack_bits(pack_bits(sq)), from_json(to_json(sq)),
                 singleton_chain(3, 2, (1, 2, 3)), DyadicSet(2, 2, {(1, 2), (3, 0)}),
                 sample(RetentionSchedule.constant(Fraction(1, 2)), field, "t", 7,
                        k_set=sq, completions=True).survivors,
                 gamma_star(cfg, "0110101", spec, field, 7, sq).survivors]
        assert verify_sandwich(sq, sq, [(0, 0)])
        assert all(not s.is_empty and s.count(2) > 0 for s in built)
        assert all("leaves" not in s.__dict__ for s in built)
        out = tmp_path / "z.json"
        assert main(["zoom", "--set", "word:1101101", "--depth", "7", "--m", "2",
                     "--out", str(out)]) == 0
        assert main(["zoom", "--in-file", str(out), "--m", "1", "--out", str(out)]) == 0
        a_leaves, sq_leaves, sub = built[0].leaves, sq.leaves, product(a, a).leaves
        assert len(a_leaves) == 32 and len(sq_leaves) == 32 * 128 and len(sub) == 32 * 32
        assert (1,) in a_leaves and (2,) not in a_leaves and (1, 2) in sq_leaves
        assert (1, 2) not in sub and (16, 5) not in sq_leaves and (1, 1, 1) not in sq_leaves
        assert a_leaves == kx_set("1101101").leaves != kx_set("1101100").leaves
        assert sq_leaves == built[4].leaves == built[5].leaves != sub
        assert sub <= sq_leaves and sub < sq_leaves and sq_leaves >= sub and sq_leaves > sub
        assert not sq_leaves <= sub and not sq_leaves < built[5].leaves
        with pytest.raises(AssertionError, match="tuples built"):
            next(iter(a_leaves))


def oracle_half_lattice_candidates(s):
    cells = dyadic._cells(s)
    offs = np.array(list(itertools.product((0, 1, 2), repeat=s.d)), dtype=np.int64)
    pts = (2 * cells[:, None, :] + offs[None, :, :]).reshape(-1, s.d)
    return np.unique(pts, axis=0)


def oracle_directed_sup(a, b):
    """The candidate scan: every half-lattice point of A against every
    cell of B, in half-units of a leaf side."""
    pts = oracle_half_lattice_candidates(a)
    centers = 2 * dyadic._cells(b) + 1
    # a point's sup distance to a cell is max(|p - center|_sup - 1, 0), and
    # that map is monotone, so it is applied once to the max-min
    best = 0
    chunk = max(1, (1 << 22) // max(1, centers.shape[0] * a.d))
    for i in range(0, pts.shape[0], chunk):
        gaps = np.abs(pts[i:i + chunk][:, None, :] - centers)
        best = max(best, int(gaps.max(axis=2).min(axis=1).max()))
    return max(best - 1, 0)


@st.composite
def sup_pairs(draw):
    """Two nonempty sets on one grid, d = 1-3 and depth 0-5: sparse, dense
    (grids of at most 2^10 cells), one inside the other, in opposite
    corners, or with every cell on a face of the cube."""
    d, depth = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["sparse", "dense", "subset", "apart", "boundary"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    side = 1 << depth
    if kind == "dense" and side ** d <= 1 << 10:
        grid = np.array(list(itertools.product(range(side), repeat=d)))
        a, b = (grid[(rng.random(grid.shape[0]) < 0.85) | (np.arange(grid.shape[0]) == i)]
                for i in rng.integers(0, grid.shape[0], 2))
    else:
        a, b = (rng.integers(0, side, (rng.integers(1, 13), d)) for _ in range(2))
    if kind == "apart":
        a, b = a // 4, side - 1 - b // 4
    if kind == "boundary":
        for c in (a, b):
            c[np.arange(c.shape[0]), rng.integers(0, d, c.shape[0])] = \
                rng.choice([0, side - 1], c.shape[0])
    if kind == "subset":
        b = np.concatenate([a, b])
    return tuple(DyadicSet(d, depth, map(tuple, c.tolist())) for c in (a, b))


class TestSupKernel:
    """The pair-pruning kernel against the candidate scan it replaced."""

    @given(pair=sup_pairs(), budget=st.sampled_from([1, 7, 100, dyadic._PAIR_BUDGET]))
    @settings(max_examples=300, deadline=None)
    def test_matches_candidate_scan(self, pair, budget):
        # small budgets split the pair frontier into many chunks
        a, b = pair
        want = [oracle_directed_sup(a, b), oracle_directed_sup(b, a)]
        with mock.patch.object(dyadic, "_PAIR_BUDGET", budget):
            assert [dyadic._directed_sup(a, b), dyadic._directed_sup(b, a)] == want
            assert hausdorff_distance(a, b) == Fraction(max(want), 1 << (a.depth + 1))

    @pytest.mark.parametrize("d, depth", [(2, 30), (3, 20)])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_deep_single_cells_closed_form(self, d, depth, data):
        # the farthest point of one cell from another is a corner, a chessboard
        # gap of whole cells away
        corner = st.tuples(*[st.integers(0, (1 << depth) - 1)] * d)
        x, y = data.draw(corner), data.draw(corner)
        a, b = singleton_chain(d, depth, x), singleton_chain(d, depth, y)
        gap = max(abs(p - q) for p, q in zip(x, y))
        assert dyadic._directed_sup(a, b) == dyadic._directed_sup(b, a) == 2 * gap
        assert hausdorff_distance(a, b) == Fraction(gap, 1 << depth)

    def test_dense_nearly_equal_sets_stay_in_budget(self):
        import tracemalloc

        rng = np.random.default_rng(17)
        full = full_cube(2, 7)
        cut = rng.choice(1 << 14, (1 << 14) // 10, replace=False)
        sub = DyadicSet(2, 7, dyadic._cells(full)[np.isin(np.arange(1 << 14), cut,
                                                          invert=True)].tolist())
        tracemalloc.start()
        try:
            value = hausdorff_distance(full, sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 20
        # the chessboard distance from each half-lattice point of the cube to
        # the nearest centre of a cell of sub, by repeated 3x3 dilation
        covered, steps = np.zeros((257, 257), dtype=bool), 0
        covered[tuple((2 * dyadic._cells(sub) + 1).T)] = True
        while not covered.all():
            grown = np.pad(covered, 1)
            grown = grown[:-2] | grown[1:-1] | grown[2:]
            covered, steps = grown[:, :-2] | grown[:, 1:-1] | grown[:, 2:], steps + 1
        assert value == Fraction(steps - 1, 1 << 8)


def spied_paths():
    """Patches that record each directed value the lattice path and the
    branch-and-bound return, by path."""
    calls = {"lattice": [], "bnb": []}

    def spy(kernel, path):
        def run(*args):
            calls[path].append(kernel(*args))
            return calls[path][-1]
        return run

    return calls, (mock.patch.object(dyadic, "_lattice_directed",
                                     spy(dyadic._lattice_directed, "lattice")),
                   mock.patch.object(dyadic, "_directed_sup",
                                     spy(dyadic._directed_sup, "bnb")))


class TestLatticePath:
    """The half-lattice distance transform against the candidate scan, and
    the budget that chooses it over the branch-and-bound."""

    @given(pair=sup_pairs(), budget=st.sampled_from([0, 1 << 62]))
    @settings(max_examples=300, deadline=None)
    def test_each_path_matches_candidate_scan(self, pair, budget):
        # a budget of 0 forces the branch-and-bound, a huge one the lattice
        a, b = pair
        want = [oracle_directed_sup(a, b), oracle_directed_sup(b, a)]
        calls, spies = spied_paths()
        with mock.patch.object(dyadic, "_GRID_BUDGET", budget), spies[0], spies[1]:
            assert hausdorff_distance(a, b) == Fraction(max(want), 1 << (a.depth + 1))
        ran, idle = ("lattice", "bnb") if budget else ("bnb", "lattice")
        assert calls[ran] == ([] if a.d == 1 else want) and calls[idle] == []

    @pytest.mark.parametrize("d, depth, path", [(2, 5, "lattice"), (2, 6, "lattice"),
                                                (2, 7, "bnb"), (3, 4, "lattice"),
                                                (3, 5, "bnb"), (2, 30, "bnb")])
    def test_budget_chooses_the_path(self, d, depth, path):
        # the benchmark's depth-5 and depth-6 planar sets take the lattice
        # path; an over-budget set never builds a grid
        rng = np.random.default_rng(depth)
        a, b = (DyadicSet(d, depth, map(tuple, rng.integers(0, 1 << depth, (5, d)).tolist()))
                for _ in range(2))
        want = max(oracle_directed_sup(a, b), oracle_directed_sup(b, a))
        calls, spies = spied_paths()
        grids = mock.patch.object(dyadic, "_half_lattice", wraps=dyadic._half_lattice)
        with spies[0], spies[1], grids as half_lattice:
            assert hausdorff_distance(a, b) == Fraction(want, 1 << (depth + 1))
        assert {k: len(v) for k, v in calls.items()} == {p: 2 * (p == path) for p in calls}
        assert half_lattice.call_count == (2 if path == "lattice" else 0)

    def test_grid_marks_the_half_lattice_points(self):
        rng = np.random.default_rng(23)
        for d, depth in [(2, 3), (3, 2), (4, 1)]:
            s = DyadicSet(d, depth, map(tuple, rng.integers(0, 1 << depth, (6, d)).tolist()))
            want = np.zeros(((2 << depth) + 1,) * d, dtype=bool)
            want[tuple(oracle_half_lattice_candidates(s).T)] = True
            assert np.array_equal(dyadic._half_lattice(s), want)
