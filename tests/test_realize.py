import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microfract.dyadic import kx_set, product, singleton_chain, zoom
from microfract.errors import InvariantViolation, OracleError, ResourceLimitError
from microfract.realize import (
    PsiPrefix,
    TargetSpec,
    VarphiMap,
    _k_bounds,
    _mix_view,
    assemble_gallery,
    build_psi_prefix,
    choose_k,
    closest_k,
    psi_program,
    realized_density_check,
)
from microfract.seq import Word, beatty_balanced, factor
from math import isqrt


def oracle_min_k(n, a, b, t):
    """Independent linear scan for the minimal admissible k."""
    a, b, t = Fraction(a), Fraction(b), Fraction(t)
    kmin = isqrt(n)
    kmax = isqrt(n ** 3)
    if kmax * kmax != n ** 3:
        kmax += 1
    for k in range(kmin, kmax + 1):
        diff = (a * n + b * k) / (n + k) - t
        if n * diff * diff <= 4:
            return k
    return None


def reciprocal_family_spec():
    """Effective presentation of {0} union {1/m : m >= 1}; no closed family."""

    def f_range(s):
        for j, ch in enumerate(s):
            if ch == "1":
                return (Fraction(1, j + 1), Fraction(1, j + 1))
        return (Fraction(0), Fraction(1, len(s) + 1))

    return TargetSpec.effective(
        m_index=lambda s: None,
        meets_g=lambda s: True,
        f_range=f_range,
        a=Fraction(0),
        b=Fraction(1),
    )


def eventually_zero_spec():
    """Effective spec whose closed family is the eventually-zero branches."""

    def m_index(s):
        last_one = -1
        for j, ch in enumerate(s):
            if ch == "1":
                last_one = j
        return last_one + 1 if last_one >= 0 else 0

    def f_range(s):
        v = Fraction(0)
        for j, ch in enumerate(s, start=1):
            if ch == "1":
                v += Fraction(1, 1 << j)
        return (v, v + Fraction(1, 1 << len(s)))

    return TargetSpec.effective(
        m_index=m_index, meets_g=lambda s: True, f_range=f_range,
        a=Fraction(0), b=Fraction(1),
    )


class TestVarphi:
    def test_singleton_constant(self):
        spec = TargetSpec.finite_set([Fraction(2, 7)])
        vm = VarphiMap(spec)
        for s in ["", "0", "1", "0110", "111111"]:
            assert vm.value(s) == Fraction(2, 7)

    def test_two_point_split_on_first_bit(self):
        spec = TargetSpec.finite_set([Fraction(1, 4), Fraction(3, 4)])
        vm = VarphiMap(spec)
        assert vm.value("") == Fraction(1, 4)  # root takes the minimum
        for s in ["0", "00", "0101"]:
            assert vm.value(s) == Fraction(1, 4)
        for s in ["1", "10", "1110"]:
            assert vm.value(s) == Fraction(3, 4)

    def test_values_stay_in_bounds(self):
        spec = TargetSpec.interval_union([(Fraction(3, 10), Fraction(7, 10))])
        vm = VarphiMap(spec)
        for s in ["", "0", "1", "01", "10", "0011", "1100", "010101"]:
            assert spec.a <= vm.value(s) <= spec.b

    def test_interval_value_membership(self):
        spec = TargetSpec.interval_union(
            [(Fraction(1, 10), Fraction(2, 10)), (Fraction(6, 10), Fraction(9, 10))]
        )
        vm = VarphiMap(spec)
        for s in ["0", "1", "00", "01", "10", "11", "0101", "1010"]:
            v = vm.value(s)
            assert any(lo <= v <= hi for lo, hi in spec.intervals)

    def test_reciprocal_branches_converge_to_coded_value(self):
        spec = reciprocal_family_spec()
        vm = VarphiMap(spec)
        for m in range(1, 7):
            bits = (0,) * (m - 1) + (1,)
            for n in range(m, m + 6):
                s = Word(bits + (0,) * (n - m))
                assert vm.value(s) == Fraction(1, m)

    def test_reciprocal_zero_branch_cauchy(self):
        spec = reciprocal_family_spec()
        vm = VarphiMap(spec)
        vals = [vm.value(Word((0,) * n)) for n in range(1, 30)]
        diffs = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
        assert vals[-1] < Fraction(1, 40)
        assert max(diffs[10:]) < Fraction(1, 100)

    def test_four_case_spec_inherits_on_constant_index(self):
        spec = eventually_zero_spec()
        vm = VarphiMap(spec)
        # After a 1 at position j, appending zeros keeps the family index, so
        # the value freezes.
        base = vm.value("01")
        for pad in range(1, 8):
            assert vm.value("01" + "0" * pad) == base

    def test_monotonicity_violation_raises(self):
        spec = TargetSpec.effective(
            m_index=lambda s: max(0, 5 - len(s)),  # decreasing: inconsistent
            meets_g=lambda s: True,
            f_range=lambda s: (Fraction(1, 2), Fraction(1, 2)),
            a=Fraction(0), b=Fraction(1),
        )
        vm = VarphiMap(spec)
        with pytest.raises(OracleError):
            vm.value("0101")

    @pytest.mark.parametrize("f_range", [
        lambda s: (Fraction(0), Fraction(len(s) + 1, len(s) + 2)),  # the top grows
        lambda s: (Fraction(1, len(s) + 2), Fraction(1)),  # the bottom shrinks
    ], ids=["upper", "lower"])
    def test_nesting_violation_raises(self, f_range):
        spec = TargetSpec.effective(m_index=lambda s: None, meets_g=lambda s: True,
                                    f_range=f_range, a=Fraction(0), b=Fraction(1))
        vm = VarphiMap(spec)
        assert vm.value("0") == Fraction(1, 2) * sum(f_range("0" + "0" * 16))
        with pytest.raises(OracleError, match="not nested at 01"):
            vm.value("0110")

    def test_positive_clamp_variant(self):
        spec = TargetSpec.finite_set([Fraction(0), Fraction(1, 2)])
        gamma = Fraction(1, 2)
        vm = VarphiMap(spec, positive_gamma=gamma)
        for s in ["0", "00", "000"]:
            v = vm.value(s)
            assert 0 < v <= gamma
        assert vm.value("000") == gamma / 8

    def test_build_varphi_helper(self):
        spec = TargetSpec.finite_set([Fraction(1, 3)])
        assert VarphiMap(spec).value("0101") == Fraction(1, 3)


class TestChooseK:
    def test_spec_example_n16(self):
        assert choose_k(16, 0, 1, Fraction(1, 2)) == 4

    def test_target_at_lower_end(self):
        for n in [4, 10, 25, 100, 1000]:
            assert choose_k(n, Fraction(1, 5), Fraction(4, 5), Fraction(1, 5)) == isqrt(n)

    def test_upper_end_inequality_n25(self):
        # at k = n*sqrt(n) the mix sits within 1/sqrt(n) of b
        n, a, b = 25, Fraction(0), Fraction(1)
        k = n * isqrt(n)
        mix = (a * n + b * k) / (n + k)
        assert n * (mix - b) ** 2 <= n * Fraction(1, n)  # |mix - b| <= 1/sqrt(n)
        got = choose_k(n, a, b, b)
        assert got is not None and isqrt(n) <= got <= k

    @given(st.integers(1, 400), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_linear_scan(self, n, data):
        den = data.draw(st.integers(1, 24))
        lo = data.draw(st.integers(0, den))
        hi = data.draw(st.integers(lo, den))
        t_num = data.draw(st.integers(lo, hi))
        a, b, t = Fraction(lo, den), Fraction(hi, den), Fraction(t_num, den)
        if a == b:
            s = isqrt(n)
            expect = s if s * s == n else s + 1
            assert choose_k(n, a, b, t) == expect
        else:
            assert choose_k(n, a, b, t) == oracle_min_k(n, a, b, t)

    @given(st.integers(1, 2000), st.data())
    @settings(max_examples=120, deadline=None)
    def test_range_and_tolerance_invariants(self, n, data):
        den = data.draw(st.integers(1, 50))
        lo = data.draw(st.integers(0, den))
        hi = data.draw(st.integers(lo, den))
        t_num = data.draw(st.integers(lo, hi))
        a, b, t = Fraction(lo, den), Fraction(hi, den), Fraction(t_num, den)
        for pick in (choose_k, closest_k):
            k = pick(n, a, b, t)
            assert isqrt(n) <= k  # k > sqrt(n) - 1
            assert k * k < n ** 3 + 2 * k + 1  # k < n*sqrt(n) + 1, squared form
            diff = (a * n + b * k) / (n + k) - t
            assert n * diff * diff <= 4

    def test_closest_never_worse_than_minimal(self):
        n, a, b = 100, Fraction(3, 10), Fraction(7, 10)
        for t in [Fraction(3, 10), Fraction(1, 2), Fraction(13, 20), Fraction(7, 10)]:
            km = choose_k(n, a, b, t)
            kc = closest_k(n, a, b, t)
            mix = lambda k: (a * n + b * k) / (n + k)
            assert abs(mix(kc) - t) <= abs(mix(km) - t)

    def test_n_past_float_range(self):
        # sqrt(n) overflows a float here; the answer must still be the
        # minimal admissible k, checked exactly.
        def admissible(n, a, b, t, k):
            diff = (a * n + b * k) / (n + k) - t
            return isqrt(n) <= k and k * k < n ** 3 + 2 * k + 1 and n * diff * diff <= 4

        for n in (10 ** 400, 10 ** 400 + 7, 3 ** 900):
            for a, b, t in [(Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)),
                            (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)),
                            (Fraction(0), Fraction(1), Fraction(1, 7))]:
                k = choose_k(n, a, b, t)
                assert admissible(n, a, b, t, k)
                assert not admissible(n, a, b, t, k - 1)

    def test_validates_inputs(self):
        for pick in (choose_k, closest_k):
            with pytest.raises(ValueError):
                pick(0, 0, 1, Fraction(1, 2))
            with pytest.raises(ValueError):
                pick(-3, 0, 1, Fraction(1, 2))
            with pytest.raises(ValueError):
                pick(4, Fraction(1, 2), 1, Fraction(1, 4))


def oracle_closest_k(n, a, b, target):
    """The Fraction-based closest_k that the integer version replaced."""
    a, b, t = Fraction(a), Fraction(b), Fraction(target)
    if not (0 <= a <= t <= b <= 1):
        raise ValueError(f"need 0 <= a <= target <= b <= 1, got {a}, {t}, {b}")
    kmin = isqrt(n)
    r = isqrt(n ** 3)
    kmax = r if r * r == n ** 3 else r + 1
    if a == b:
        s = isqrt(n)
        return s if s * s == n else s + 1
    cross = Fraction(n) * (t - a) / (b - t) if b > t else Fraction(kmax)
    base = int(cross)
    cands = sorted({min(max(base + d, kmin), kmax) for d in (-1, 0, 1, 2)})
    q = math.lcm(a.denominator, b.denominator, t.denominator)
    pa, pb, pt = (x.numerator * (q // x.denominator) for x in (a, b, t))
    best = cands[0]
    best_num = abs(pa * n + pb * best - pt * (n + best))
    for k in cands[1:]:
        num = abs(pa * n + pb * k - pt * (n + k))
        if num * (n + best) < best_num * (n + k):
            best, best_num = k, num
    num, den = pa * n + pb * best - pt * (n + best), q * (n + best)
    if n * num * num > 4 * den * den:
        raise InvariantViolation(f"closest k fails tolerance for n={n}")
    return best


def oracle_seed_choose_k(n: int, a, b, target) -> int:
    """``choose_k`` as it was before the closed form: a float seed, a walk of
    three probes and a bisection."""
    a, b, t, q, nuq, vq = _mix_view(n, a, b, target)
    if not (nuq or vq):  # a == b
        return 1 + isqrt(n - 1)  # ceil(sqrt(n))
    kmin, kmax = _k_bounds(n)
    # f(k) increases, so the k with |mix(k) - t| <= 2/sqrt(n), that is
    # n*f(k)^2 <= 4*(q*(n+k))^2, form an interval: the answer is the smallest
    # k with mix(k) >= t - 2/sqrt(n), which must then pass the upper side.
    # Float seed: the real k at which mix(k) = t - 2/sqrt(n); for n past the
    # float range, kmin (the exact search below accepts any seed).
    try:
        e = 2.0 / math.sqrt(n)
        seed = n * (nuq / (n * q) - e) / (vq / q + e)
    except OverflowError:
        seed = kmin
    k = kmin if seed <= kmin else kmax if seed >= kmax else math.ceil(seed)

    # Exact search for the smallest k past the lower side, mix(k) >= t -
    # 2/sqrt(n), keeping it (or kmax if no k is) inside [lo, hi]: a walk of
    # three probes from the seed, which rounding moves by at most one, then
    # bisection of what is left (a seed far off, for huge n).
    lo, hi, mid, probes = kmin, kmax, k, 0
    while lo < hi:
        if probes > 2 or not lo <= mid < hi:
            mid = (lo + hi) // 2
        probes += 1
        f = mid * vq - nuq
        if f >= 0 or n * f * f <= 4 * (q * (n + mid)) ** 2:
            hi, mid = mid, mid - 1
        else:
            lo, mid = mid + 1, mid + 1
    f = lo * vq - nuq
    if n * f * f > 4 * (q * (n + lo)) ** 2:
        # f < 0: no k in range reaches the band; f > 0: the smallest k that
        # reaches it already overshoots the upper side.
        raise InvariantViolation(
            f"no admissible k for n={n}, a={a}, b={b}, target={t}"
        )
    return lo


def outcome(pick, *args):
    try:
        return pick(*args)
    except (ValueError, InvariantViolation) as e:
        return type(e)


class TestClosestKIntegerView:
    def test_matches_fraction_version_on_criterion_5_sweep(self):
        rng = np.random.default_rng(99)
        pool = []
        for d in rng.integers(2, 65, size=256):
            nums = np.sort(rng.integers(0, int(d) + 1, size=3))
            pool.append(tuple(Fraction(int(v), int(d)) for v in nums))
        for n in range(1, 2001):
            for j in rng.integers(0, len(pool), size=8):
                a, t, b = pool[j]
                assert closest_k(n, a, b, t) == oracle_closest_k(n, a, b, t)

    def test_matches_fraction_version_on_random_inputs(self):
        rng = random.Random(2024)

        def value():
            den = rng.choice([1, 2, 7, 10 ** rng.randint(1, 20) + rng.randint(0, 99)])
            v = Fraction(rng.randint(-den // 8, den + den // 8), den)
            return rng.choice([v, v, v, float(v), str(v)])

        for _ in range(20_000):
            n = rng.choice([rng.randint(1, 50), rng.randint(1, 10 ** 6),
                            rng.randint(1, 10 ** 30)])
            vals = sorted([value() for _ in range(3)], key=Fraction)
            if rng.random() < 0.2:
                rng.shuffle(vals)
            a, t, b = vals
            if rng.random() < 0.1:
                t = a
            got = outcome(closest_k, n, a, b, t)
            assert got == outcome(oracle_closest_k, n, a, b, t), (n, a, b, t)


def set_sort_closest_k(n, a, b, target):
    """``closest_k`` as it was before the contiguous scan: the clamped
    candidates gathered in a set and sorted."""
    a, b, t, q, nuq, vq = _mix_view(n, a, b, target)
    if not (nuq or vq):
        return 1 + isqrt(n - 1)
    kmin, kmax = _k_bounds(n)
    base = nuq // vq if vq else kmax
    best, *rest = sorted({min(max(base + i, kmin), kmax) for i in (-1, 0, 1, 2)})
    for k in rest:
        if abs(k * vq - nuq) * (n + best) < abs(best * vq - nuq) * (n + k):
            best = k
    f = best * vq - nuq
    if n * f * f > 4 * (q * (n + best)) ** 2:
        raise InvariantViolation(f"closest k fails tolerance for n={n}")
    return best


class TestClosestKScan:
    # targets at a put the crossing below kmin, targets at b (vq = 0) at kmax;
    # t = a = b is in the grid as well
    grid = [Fraction(i, 12) for i in range(13)]

    def test_matches_set_and_sort_on_a_grid(self):
        clamped = set()
        for n in range(1, 65):
            kmin, kmax = _k_bounds(n)
            for a, t, b in itertools.combinations_with_replacement(self.grid, 3):
                got = outcome(closest_k, n, a, b, t)
                assert got == outcome(set_sort_closest_k, n, a, b, t), (n, a, b, t)
                if a < b and kmin < kmax:
                    _, _, _, _, nuq, vq = _mix_view(n, a, b, t)
                    base = nuq // vq if vq else kmax
                    if base - 1 < kmin:
                        clamped.add("kmin")
                    if base + 2 > kmax:
                        clamped.add("kmax")
        assert clamped == {"kmin", "kmax"}

    _unit = st.one_of(st.fractions(0, 1, max_denominator=12),
                      st.fractions(0, 1, max_denominator=10 ** 9))

    @given(st.lists(_unit, min_size=3, max_size=3).map(sorted), st.integers(1, 200))
    @settings(max_examples=300, deadline=None)
    def test_matches_set_and_sort_on_random_fractions(self, abt, n):
        a, t, b = abt
        assert outcome(closest_k, n, a, b, t) == outcome(set_sort_closest_k, n, a, b, t)


def admissible(n, a, b, t, k):
    """k in range and within 2/sqrt(n) of the target, decided on Fractions."""
    kmin, kmax = _k_bounds(n)
    diff = (a * n + b * k) / (n + k) - t
    return kmin <= k <= kmax and n * diff * diff <= 4


def least_admissible(n, a, b, t, k):
    """k is admissible and k - 1 is not: the admissible k form an interval.
    Checked against the linear scan where that is short."""
    least = admissible(n, a, b, t, k) and not admissible(n, a, b, t, k - 1)
    return least and (n > 300 or k == oracle_min_k(n, a, b, t))


class TestChooseKClosedForm:
    _unit = st.fractions(0, 1, max_denominator=10 ** 6)

    @given(st.one_of(st.integers(1, 300), st.integers(1, 10 ** 60)),
           st.lists(_unit, min_size=3, max_size=3).map(sorted))
    @settings(max_examples=400, deadline=None)
    def test_matches_seed_search_and_linear_scan(self, n, abt):
        a, t, b = abt
        got = outcome(choose_k, n, a, b, t)
        assert got == outcome(oracle_seed_choose_k, n, a, b, t), (n, a, b, t)
        if a < b:
            assert least_admissible(n, a, b, t, got)

    @staticmethod
    def _target_on_edge(n, a, b, k, e):
        """The target t with mix(k) = t - e, so that the lower band edge sits
        at k when e = 2/sqrt(n)."""
        return (a * n + b * k) / (n + k) + e

    def test_lower_edge_on_an_integer(self):
        # perfect squares: sqrt(n) = m is exact, and with t = mix(k) + 2/m the
        # lower side of the band holds with equality at k, so k* = k exactly
        # and the ceiling must not round it up
        cases = 0
        for m in range(1, 40):
            n = m * m
            kmin, kmax = _k_bounds(n)
            for a, b in [(Fraction(0), Fraction(1)), (Fraction(1, 5), Fraction(4, 5)),
                         (Fraction(1, 3), Fraction(997, 1000))]:
                for k in {kmin + 1, (kmin + kmax) // 7, kmax // 2, kmax - 1}:
                    t = self._target_on_edge(n, a, b, k, Fraction(2, m))
                    if not (kmin < k < kmax and t <= b):
                        continue
                    cases += 1
                    assert choose_k(n, a, b, t) == k == oracle_seed_choose_k(n, a, b, t)
                    assert least_admissible(n, a, b, t, k)
                    # a target a hair higher moves the edge just past k
                    up = t + Fraction(1, 10 ** 12)
                    if up <= b:
                        assert choose_k(n, a, b, up) == k + 1
                        assert least_admissible(n, a, b, up, k + 1)
        assert cases > 100

    def test_rounded_root_needs_the_step_up(self):
        # non-squares: r/2^p < sqrt(n) is the rounded root, and t = mix(k-1) +
        # 2^(p+1)/r puts the rounded edge on k-1 while the true edge is just
        # above it, so the closed form lands one low and must step up to k
        cases = 0
        for n in [2, 3, 5, 7, 10, 50, 99, 200, 1000, 4097, 10 ** 5 + 3]:
            p = n.bit_length()
            r = isqrt(n << 2 * p)
            kmin, kmax = _k_bounds(n)
            for a, b in [(Fraction(0), Fraction(1)), (Fraction(1, 5), Fraction(4, 5))]:
                for k in {kmin + 1, kmin + 2, isqrt(kmax), kmax // 3}:
                    t = self._target_on_edge(n, a, b, k - 1, Fraction(2 << p, r))
                    if not (kmin < k <= kmax and t <= b):
                        continue
                    cases += 1
                    assert choose_k(n, a, b, t) == k == oracle_seed_choose_k(n, a, b, t)
                    assert least_admissible(n, a, b, t, k)
        assert cases > 30


class TestPsi:
    def test_zero_blocks_empty(self):
        spec = TargetSpec.finite_set([Fraction(1, 2)])
        p = build_psi_prefix(Word.from_string("0101"), spec, 0)
        assert len(p.word) == 0

    def test_singleton_block_densities(self):
        # Each of the two balanced prefixes loses at most 1 from its floor,
        # so a singleton target is realized within 2/(n+k) per block.
        a = Fraction(1, 3)
        spec = TargetSpec.finite_set([a])
        x = Word.from_bits([0, 1] * 15)
        p = build_psi_prefix(x, spec, 20)
        for i, (n, k) in enumerate(p.block_lengths, start=1):
            rho = p.block_word(i).density
            assert abs(rho - a) <= Fraction(2, n + k)

    def test_extreme_target_dominates(self):
        spec = TargetSpec.finite_set([Fraction(0), Fraction(1)])
        x = Word.from_bits([1] * 40)
        p = build_psi_prefix(x, spec, 41)
        assert p.word.density > Fraction(4, 5)

    def test_blocks_bound_validated(self):
        spec = TargetSpec.finite_set([Fraction(1, 2)])
        with pytest.raises(ValueError):
            build_psi_prefix(Word.from_string("01"), spec, 4)

    def test_program_matches_prefix(self):
        spec = TargetSpec.interval_union([(Fraction(2, 5), Fraction(3, 5))])
        xprog = beatty_balanced(Fraction(1, 2))
        x = factor(xprog, 0, 8)
        p = build_psi_prefix(x, spec, 9)
        prog = psi_program(xprog, spec)
        assert factor(prog, 0, len(p.word)) == p.word


class TestDensityReport:
    def test_interval_spec_report(self):
        spec = TargetSpec.interval_union([(Fraction(3, 10), Fraction(7, 10))])
        x = Word.from_bits([1, 0, 1, 1, 0, 0, 1, 0] * 5)
        vm = VarphiMap(spec)
        p = build_psi_prefix(x, spec, 40)
        expected = vm.value(x.prefix(40))
        rep = realized_density_check(p, expected)
        assert all(c.bound_ok for c in rep.blocks)
        assert rep.fractions_vanish
        assert rep.cumulative_error < Fraction(1, 4)

    def test_tampered_prefix_aborts(self):
        spec = TargetSpec.finite_set([Fraction(1, 2)])
        x = Word.from_bits([0, 1] * 50)
        p = build_psi_prefix(x, spec, 101)
        bad = PsiPrefix(p.word, p.boundaries, p.block_lengths,
                        tuple(Fraction(99, 100) for _ in p.phi_values))
        with pytest.raises(InvariantViolation):
            realized_density_check(bad, Fraction(1, 2))

    def test_tampered_word_aborts(self):
        # the report counts the ones in the word itself: a block set to all
        # ones (density 1 against phi = 1/2) breaks its bound
        spec = TargetSpec.finite_set([Fraction(1, 2)])
        x = Word.from_bits([0, 1] * 50)
        p = build_psi_prefix(x, spec, 101)
        lo, hi = p.boundaries[50], p.boundaries[51]
        bits = p.word.bits[:lo] + (1,) * (hi - lo) + p.word.bits[hi:]
        bad = PsiPrefix(Word(bits), p.boundaries, p.block_lengths, p.phi_values)
        with pytest.raises(InvariantViolation, match="block 50"):
            realized_density_check(bad, Fraction(1, 2))

    @pytest.mark.parametrize("spec", [
        TargetSpec.interval_union([(Fraction(3, 10), Fraction(7, 10))]),
        TargetSpec.finite_set([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
        TargetSpec.finite_set([Fraction(0), Fraction(1)]),
    ], ids=["interval", "finite", "extremes"])
    def test_block_fields_match_fraction_oracle(self, spec):
        # each block's check in Fraction arithmetic, its ones counted bit by bit
        rng = random.Random(5)
        x = Word.from_bits([rng.randrange(2) for _ in range(60)])
        p = build_psi_prefix(x, spec, 61)
        rep = realized_density_check(p, Fraction(1, 2))
        ones = [0]
        for bit in p.word.bits:
            ones.append(ones[-1] + bit)
        for c in rep.blocks:
            start, end = p.boundaries[c.index], p.boundaries[c.index + 1]
            rho = Fraction(ones[end] - ones[start], end - start)
            rem = abs(rho - c.phi) - Fraction(2, c.n + c.k)
            assert (c.density, c.error, c.bound_ok, c.length_fraction) == (
                rho, abs(rho - c.phi), rem <= 0 or c.n * rem * rem <= 4,
                Fraction(end - start, end))
        assert rep.cumulative_density == Fraction(ones[-1], len(p.word))

    def test_needs_two_blocks(self):
        spec = TargetSpec.finite_set([Fraction(1, 2)])
        p = build_psi_prefix(Word.from_string("1"), spec, 1)
        with pytest.raises(ValueError):
            realized_density_check(p, Fraction(1, 2))


class TestGallery:
    def test_single_full_generator(self):
        gen = lambda dep: kx_set(Word((1,) * dep))
        g = assemble_gallery([gen], depth=5)
        assert (0,) in g.leaves  # accumulation point at the origin
        for j in range(1, 5):
            view = zoom(g, j, -1)
            assert view == kx_set(Word((1,) * (5 - j)))

    def test_two_generators_cycle_and_recover(self):
        g1 = lambda dep: kx_set(factor(beatty_balanced(Fraction(1, 2)), 0, dep))
        g2 = lambda dep: kx_set(factor(beatty_balanced(Fraction(1, 3)), 0, dep))
        depth = 7
        g = assemble_gallery([g1, g2], depth)
        for j in range(1, depth):
            expect = (g1 if (j - 1) % 2 == 0 else g2)(depth - j)
            assert zoom(g, j, -1) == expect

    def test_count_dominates_deepest_copy(self):
        gen = lambda dep: kx_set(factor(beatty_balanced(Fraction(1, 2)), 0, dep))
        depth = 7
        g = assemble_gallery([gen], depth)
        deepest = gen(depth - 1)
        for m in range(depth - 1):
            assert g.count(m + 1) >= deepest.count(m)

    @given(d=st.integers(1, 3), n_gen=st.integers(1, 3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_codes_match_tuple_oracle(self, d, n_gen, data):
        words = [data.draw(st.lists(st.integers(0, 1), min_size=9, max_size=9))
                 for _ in range(n_gen * d)]

        def generator(i):
            def gen(dep):
                s = kx_set(Word(tuple(words[i * d][:dep])))
                for w in words[i * d + 1:(i + 1) * d]:
                    s = product(s, kx_set(Word(tuple(w[:dep]))))
                return s
            return gen

        gens = [generator(i) for i in range(n_gen)]
        depth = data.draw(st.integers(n_gen + 1, 9 // d + 1))
        g = assemble_gallery(gens, depth)
        # the leaf-tuple loop assemble_gallery replaced
        want = {(0,) * d}
        for j in range(1, depth):
            want |= {tuple(c + (1 << (depth - j)) for c in leaf)
                     for leaf in gens[(j - 1) % n_gen](depth - j).leaves}
        assert (g.d, g.depth) == (d, depth) and g.leaves == want

    def test_too_deep_for_codes(self):
        # the depth-31 placement fits 62-bit codes; the depth-32 gallery does not
        with pytest.raises(ResourceLimitError):
            assemble_gallery([lambda dep: singleton_chain(2, dep)], 32)

    def test_placement_overflow(self):
        gen = lambda dep: kx_set(Word((1,) * dep))
        with pytest.raises(ValueError):
            assemble_gallery([gen] * 5, depth=4)


class TestTargetSpecSerialization:
    def test_finite_roundtrip(self):
        spec = TargetSpec.finite_set([Fraction(1, 3), Fraction(2, 3)])
        clone = TargetSpec.from_json(spec.to_json())
        assert clone.values == spec.values and clone.mode == spec.mode

    def test_interval_roundtrip(self):
        spec = TargetSpec.interval_union([(Fraction(1, 10), Fraction(1, 2))])
        clone = TargetSpec.from_json(spec.to_json())
        assert clone.intervals == spec.intervals

    def test_effective_not_serializable(self):
        spec = reciprocal_family_spec()
        with pytest.raises(TypeError):
            spec.to_json()


def per_bit_f_range(spec, s):
    """The interval-union ``f_range`` summed one Fraction per tail bit."""
    idx_lo, idx_hi = spec._selector_range(s)
    if idx_lo != idx_hi:
        return (min(spec.intervals[i][0] for i in range(idx_lo, idx_hi + 1)),
                max(spec.intervals[i][1] for i in range(idx_lo, idx_hi + 1)))
    lo, hi = spec.intervals[idx_lo]
    rest = s.bits[spec.selector_bits:]
    v = Fraction(0)
    for j, bit in enumerate(rest, start=1):
        v += Fraction(bit, 1 << j)
    width = Fraction(1, 1 << len(rest))
    return lo + (hi - lo) * v, lo + (hi - lo) * (v + width)


@pytest.mark.parametrize("intervals", [
    [(Fraction(3, 10), Fraction(7, 10))],
    [(Fraction(0), Fraction(1, 5)), (Fraction(2, 5), Fraction(3, 5)),
     (Fraction(4, 5), Fraction(1))],
], ids=["one", "three"])
def test_f_range_matches_per_bit_sum(intervals):
    spec = TargetSpec.interval_union(intervals)
    for length in range(13):
        for code in range(1 << length):
            s = Word(tuple((code >> (length - 1 - j)) & 1 for j in range(length)))
            assert spec.f_range(s) == per_bit_f_range(spec, s), s


class RecursiveVarphi:
    """The recursive value map the iterative walk replaced, one frame per
    bit, on the public oracle surface; interval targets read ``f_range`` as
    per-bit sums."""

    def __init__(self, spec, positive_gamma=None):
        self.spec, self.gamma = spec, positive_gamma
        self.memo, self.m_memo = {}, {}

    def f_range(self, s):
        if self.spec.mode == "interval_union":
            return per_bit_f_range(self.spec, s)
        return self.spec.f_range(s)

    def m_index(self, s):
        if s.bits not in self.m_memo:
            self.m_memo[s.bits] = self.spec.m_index(s)
        return self.m_memo[s.bits]

    def clamp(self, val, depth):
        if self.gamma is not None:
            return self.gamma / (1 << depth) if val <= 0 else min(val, self.gamma)
        return min(max(val, self.spec.a), self.spec.b)

    def canonical(self, s):
        spec, pad = self.spec, self.spec.canonical_pad
        if spec.mode == "effective":
            pad = next((j for j in range(pad)
                        if not spec.meets_g(Word(s.bits + (0,) * (j + 1)))), pad)
        lo, hi = self.f_range(Word(s.bits + (0,) * pad))
        return (lo + hi) / 2

    def value(self, s):
        spec, key = self.spec, s.bits
        if key in self.memo:
            return self.memo[key]
        if not key:
            val = self.clamp(spec.a, 0)
        else:
            parent = Word(key[:-1])
            parent_val = self.value(parent)
            m_child, m_parent = self.m_index(s), self.m_index(parent)
            if m_child is not None and (m_parent is None or m_parent > m_child):
                raise OracleError("not monotone")
            if key[:-1] and spec.meets_g(parent) and spec.meets_g(s):
                (plo, phi), (clo, chi) = self.f_range(parent), self.f_range(s)
                if clo < plo or chi > phi:
                    raise OracleError("not nested")
            if m_child is None or (spec.meets_g(s) and m_child != m_parent):
                val = self.canonical(s)
            else:
                val = parent_val
            val = self.clamp(val, len(s))
        self.memo[key] = val
        return val


def _fractions(draw, size):
    den = draw(st.integers(1, 40))
    return sorted(Fraction(draw(st.integers(0, den)), den) for _ in range(size))


@st.composite
def value_map_cases(draw):
    kind = draw(st.sampled_from(["finite", "one", "three", "reciprocal", "eventually"]))
    if kind == "finite":
        spec = TargetSpec.finite_set(_fractions(draw, draw(st.integers(1, 6))))
    elif kind in ("one", "three"):
        ends = _fractions(draw, 2 if kind == "one" else 6)
        spec = TargetSpec.interval_union(list(zip(ends[::2], ends[1::2])))
    else:
        spec = reciprocal_family_spec() if kind == "reciprocal" else eventually_zero_spec()
    gamma = draw(st.one_of(st.none(), st.sampled_from([Fraction(1, 2), Fraction(1)])))
    words = draw(st.lists(st.lists(st.integers(0, 1), max_size=40).map(tuple),
                          min_size=1, max_size=6))
    return spec, gamma, words


@settings(max_examples=150, deadline=None)
@given(case=value_map_cases())
def test_value_map_matches_recursive_oracle(case):
    spec, gamma, words = case
    vm, oracle = VarphiMap(spec, positive_gamma=gamma), RecursiveVarphi(spec, gamma)
    for bits in words:  # in the drawn order, so walks start from memoized prefixes
        assert vm.value(Word(bits)) == oracle.value(Word(bits)), bits


def test_value_map_walks_long_branches():
    # one Python frame per bit overflowed the interpreter's stack here
    spec = TargetSpec.effective(m_index=lambda s: None, meets_g=lambda s: True,
                                f_range=lambda s: (Fraction(3, 10), Fraction(7, 10)),
                                a=Fraction(3, 10), b=Fraction(7, 10))
    x = Word.from_string("01" * 2500)
    vm = VarphiMap(spec)
    v = vm.value(x)
    assert spec.a <= v <= spec.b and vm.value(x.prefix(4999)) <= spec.b
    assert len(vm.memo) == 5001


class WalkingVarphi(VarphiMap):
    """The iterative walk that explicit targets took before their closed
    form: every prefix of the word in turn, oracles checked, memoized."""

    def value(self, s):
        v, n, memo, spec = s.v, s.n, self.memo, self.spec
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
                raise OracleError("not monotone")
            g_child = spec.meets_g(child)
            c_range = None
            if g_parent and g_child:
                plo, phi, pden = p_range = p_range or spec._range(parent)
                clo, chi, cden = c_range = spec._range(child)
                if clo * pden < plo * cden or chi * pden > phi * cden:
                    raise OracleError(f"f_range not nested at {child}")
            if m_child is None or (g_child and m_child != m_parent):
                val = self._canonical(child)
            val = self._clamp(val, depth)
            memo[(child.v, depth)] = val
            parent, m_parent, g_parent, p_range = child, m_child, g_child, c_range
        return val


EXPLICIT_SPECS = {
    "point": TargetSpec.finite_set([Fraction(2, 7)]),
    "three-points": TargetSpec.finite_set([0, Fraction(1, 3), 1]),
    "nine-points": TargetSpec.finite_set([Fraction(j * j, 81) for j in range(9)]),
    "one": TargetSpec.interval_union([(Fraction(3, 10), Fraction(7, 10))]),
    "three": TargetSpec.interval_union(
        [(0, Fraction(1, 5)), (Fraction(2, 5), Fraction(3, 5)), (Fraction(4, 5), 1)]),
    "five-overlapping": TargetSpec.interval_union(
        [(Fraction(1, 9), Fraction(1, 9)), (0, Fraction(1, 2)), (Fraction(1, 3), 1),
         (Fraction(1, 4), Fraction(1, 3)), (Fraction(5, 7), Fraction(6, 7))]),
}


@pytest.mark.parametrize("gamma", [None, Fraction(1, 2)])
@pytest.mark.parametrize("name", sorted(EXPLICIT_SPECS))
def test_explicit_value_map_matches_walk_on_long_branches(name, gamma):
    spec, rng = EXPLICIT_SPECS[name], random.Random(name)
    x = Word._of(rng.getrandbits(5000), 5000)
    walk, vm = WalkingVarphi(spec, positive_gamma=gamma), VarphiMap(spec, positive_gamma=gamma)
    walk.value(x)
    assert len(walk.memo) == 5001
    for (v, n), val in walk.memo.items():
        assert vm.value(Word._of(v, n)) == val, n
    assert vm.memo == {(0, 0): walk.memo[(0, 0)]} and vm.m_memo == {}


@pytest.mark.parametrize("name", sorted(EXPLICIT_SPECS))
def test_explicit_f_range_nests_parent_to_child(name):
    # Why explicit value maps may skip the walk's nesting check.
    spec = EXPLICIT_SPECS[name]
    for length in range(12):
        for v in range(1 << length):
            plo, phi = spec.f_range(Word._of(v, length))
            for bit in (0, 1):
                clo, chi = spec.f_range(Word._of(2 * v + bit, length + 1))
                assert plo <= clo <= chi <= phi, (v, length, bit)
