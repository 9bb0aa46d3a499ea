import hashlib
import itertools
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from math import nextafter, sqrt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from microfract import percolation
from microfract.cli import main
from microfract.dyadic import DyadicSet, full_cube, hausdorff_distance, kx_set, product
from microfract.errors import ResourceLimitError
from microfract.families import floor_pow2
from microfract.percolation import (
    Completion,
    GammaStarConfig,
    HawkesReport,
    HawkesRow,
    PercField,
    RetentionSchedule,
    choose_copies,
    coupled_pair,
    gamma_star,
    gw_extinction,
    hawkes_experiment,
    sample,
    select_anchor_cell,
)
from microfract.realize import TargetSpec, VarphiMap
from microfract.seq import Word, beatty_balanced, factor


def iterate_extinction(p, children, iters=200000, tol=1e-14):
    """Oracle: plain monotone fixed-point iteration."""
    q = 0.0
    for _ in range(iters):
        nxt = (1 - p + p * q) ** children
        if abs(nxt - q) < tol:
            return nxt
        q = nxt
    return q


class TestPercField:
    def test_deterministic_across_instances(self):
        f1, f2 = PercField(12345), PercField(12345)
        assert f1.variate("a", 3, (5,)) == f2.variate("a", 3, (5,))

    def test_scalar_matches_vector(self):
        f = PercField(99)
        coords = np.array([[0, 1], [2, 3], [7, 5]], dtype=np.int64)
        vec = f.variates(("k", 2), 3, coords)
        for row, v in zip(coords, vec):
            assert f.variate(("k", 2), 3, tuple(row.tolist())) == v

    def test_copy_keys_decorrelate(self):
        f = PercField(7)
        a = f.variate(("copy", 1), 4, (3,))
        b = f.variate(("copy", 2), 4, (3,))
        assert a != b

    def test_seed_changes_field(self):
        assert PercField(1).variate(0, 2, (1,)) != PercField(2).variate(0, 2, (1,))

    def test_uniform_range_and_mean(self):
        f = PercField(2024)
        coords = np.arange(4096, dtype=np.int64)[:, None]
        u = f.variates("m", 12, coords)
        assert (u >= 0).all() and (u < 1).all()
        assert abs(u.mean() - 0.5) < 0.02

    def test_path_width_limit(self):
        f = PercField(0)
        with pytest.raises(ResourceLimitError):
            f.variate("x", 40, (1, 2))


class TestSchedule:
    def test_constant_and_list(self):
        s = RetentionSchedule.constant(Fraction(1, 2))
        assert s.alpha(1) == s.alpha(99) == Fraction(1, 2)
        t = RetentionSchedule.from_list([0, Fraction(1, 3)], limit=1)
        assert t.alpha(1) == 0 and t.alpha(2) == Fraction(1, 3) and t.alpha(5) == 1

    def test_undefined_generation(self):
        t = RetentionSchedule.from_list([0])
        with pytest.raises(ValueError):
            t.alpha(2)

    def test_dim_validation(self):
        s = RetentionSchedule.constant(Fraction(3, 2))
        with pytest.raises(ValueError):
            s.validate_dim(1, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RetentionSchedule.from_list([-1])


@pytest.fixture
def unchecked_dims(monkeypatch):
    """Switches the dimension check off, so that exponents past d (54 among
    them, past 53 where the threshold is 0, needs d > 53 otherwise) reach
    the kernel; its per-call cache is emptied before and after, so that no
    unchecked entry outlives the test."""
    monkeypatch.setattr(RetentionSchedule, "validate_dim", lambda *args: None)
    percolation._level_steps.cache_clear()
    yield
    percolation._level_steps.cache_clear()


class TestThreshold:
    """``_threshold(alpha)`` is the exact ``floor(2^(53 - alpha))``."""

    def test_half(self):
        # the float product 2.0**-0.5 * 2**53 rounds one above the floor
        assert percolation._threshold(Fraction(1, 2)) == 6369051672525772

    def test_matches_integer_root(self):
        for q in range(1, 25):
            for p in range(2 * q + 1):
                alpha = Fraction(p, q)
                assert percolation._threshold(alpha) == floor_pow2(53 - alpha, 1), alpha

    @pytest.mark.parametrize("alpha", [Fraction(1, 10 ** 6 + 3), Fraction(10 ** 30 + 1, 10 ** 30),
                                       Fraction(123456789, 10 ** 9 + 7)])
    def test_large_denominators(self, alpha):
        # 2^(53 - alpha) at 60 digits; none of these lies within 10^-20 of an integer
        with localcontext() as ctx:
            ctx.prec = 60
            e = 53 - alpha
            exact = (Decimal(e.numerator) / e.denominator * Decimal(2).ln()).exp()
        assert percolation._threshold(alpha) == int(exact)

    def test_edges(self):
        assert percolation._threshold(Fraction(0)) == 1 << 53
        assert percolation._threshold(Fraction(53)) == 1
        assert percolation._threshold(Fraction(107, 2)) == 0
        assert percolation._threshold(Fraction(10 ** 9)) == 0

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 2), Fraction(53),
                                       Fraction(107, 2), Fraction(10 ** 9)])
    def test_kernel_bound_is_the_threshold_test(self, unchecked_dims, alpha):
        # the kernel's one comparison v <= bound is (v >> 11) <= _threshold(alpha),
        # clamped at alpha = 0, where the threshold is 2^53
        bound = percolation._level_steps(RetentionSchedule.constant(alpha), 1, 1)[1][0]
        t = percolation._threshold(alpha)
        for v in [0, 0x7FF, 0x800, (t << 11) - 1, t << 11, (t << 11) | 0x7FF,
                  (t + 1) << 11, (1 << 64) - 1]:
            v &= (1 << 64) - 1  # t << 11 - 1 wraps at t = 0, (t + 1) << 11 at t = 2^53
            assert (np.uint64(v) <= bound) == ((v >> 11) <= t), (alpha, v)


class TestSample:
    def test_zero_exponent_keeps_everything(self):
        smp = sample(RetentionSchedule.constant(0), PercField(5), "k", 4)
        assert smp.survivors == full_cube(1, 4)

    def test_reproducible(self):
        a = sample(RetentionSchedule.constant(Fraction(1, 2)), PercField(31), "c", 10)
        b = sample(RetentionSchedule.constant(Fraction(1, 2)), PercField(31), "c", 10)
        assert a.survivors == b.survivors

    def test_restriction_contains_survivors(self):
        k = kx_set(factor(beatty_balanced(Fraction(1, 2)), 0, 10))
        smp = sample(RetentionSchedule.constant(Fraction(1, 4)), PercField(3),
                     "r", 10, k_set=k)
        assert smp.survivors.leaves <= k.leaves

    def test_marginal_counts_match_product_law(self):
        # mean survivors at level n over many runs ~ 2^n * prod retention
        depth, trials = 6, 4000
        field = PercField(777)
        sched = RetentionSchedule.constant(Fraction(1, 2))
        counts = np.zeros((trials, depth + 1))
        for t in range(trials):
            smp = sample(sched, field, ("m", t), depth)
            counts[t] = smp.level_counts
        for m in range(1, depth + 1):
            expect = 2.0 ** (m / 2)
            se = counts[:, m].std(ddof=1) / np.sqrt(trials)
            assert abs(counts[:, m].mean() - expect) <= 3 * se + 1e-9

    def test_completions_structure(self):
        k = full_cube(1, 6)
        smp = sample(RetentionSchedule.constant(Fraction(9, 10)), PercField(11),
                     "comp", 6, k_set=k, completions=True)
        assert smp.completions  # heavy thinning must kill some branches
        for comp in smp.completions:
            shift = 6 - comp.level
            assert tuple(c >> shift for c in comp.z_cell) == comp.cell
            assert comp.z_cell in k.leaves


class TestCoupling:
    def test_equal_schedules_identical(self):
        f = PercField(42)
        s = RetentionSchedule.constant(Fraction(1, 3))
        a, b = coupled_pair(s, s, f, "e", 8)
        assert a.survivors == b.survivors

    def test_zero_schedule_gives_full_superset(self):
        f = PercField(43)
        a, b = coupled_pair(RetentionSchedule.constant(Fraction(2, 3)),
                            RetentionSchedule.constant(0), f, "z", 6)
        assert b.survivors == full_cube(1, 6)
        assert a.survivors.leaves <= b.survivors.leaves

    def test_ordered_schedules_nest_exactly(self):
        rng = np.random.default_rng(9)
        field = PercField(1001)
        for trial in range(25):
            lo = [Fraction(int(x), 12) for x in rng.integers(0, 9, size=8)]
            hi = [a + Fraction(int(x), 12) for a, x in
                  zip(lo, rng.integers(0, 4, size=8))]
            sa, sb = coupled_pair(RetentionSchedule.from_list(hi),
                                  RetentionSchedule.from_list(lo),
                                  field, ("o", trial), 8)
            assert sa.survivors.leaves <= sb.survivors.leaves


class TestGW:
    def test_sure_survival(self):
        assert gw_extinction(1.0, 2) == 0.0

    def test_subcritical_dies(self):
        assert gw_extinction(0.5, 2) == 1.0
        assert gw_extinction(0.25, 4) == 1.0

    def test_closed_form_value(self):
        q = gw_extinction(2 ** -0.5, 2)
        assert abs(q - 0.17157287525381) < 1e-12  # 3 - 2*sqrt(2)
        assert abs(q - iterate_extinction(2 ** -0.5, 2)) < 1e-10

    def test_iteration_matches_fixed_point(self):
        for p, ch in [(0.5, 4), (0.4, 8), (0.9, 2)]:
            q = gw_extinction(p, ch)
            assert abs((1 - p + p * q) ** ch - q) < 1e-12
            assert abs(q - iterate_extinction(p, ch)) < 1e-10

    def test_single_sure_child_never_dies(self):
        # Binomial(1, 1): every cell has exactly one child, so every q solves
        # q = q and the smallest fixed point is 0
        assert gw_extinction(1.0, 1) == 0.0
        assert gw_extinction(0.5, 1) == 1.0


class TestHawkes:
    def test_full_interval_supercritical(self):
        rep = hawkes_experiment(None, Fraction(1, 2), [4, 8], 400, PercField(5))
        assert rep.survival_nonincreasing
        s8 = rep.rows[1].survival
        assert 0.6 < s8 < 1.0
        assert rep.rows[1].cond_slope is not None

    def test_thin_set_dies_fast(self):
        k = kx_set(factor(beatty_balanced(Fraction(1, 3)), 0, 12))
        rep = hawkes_experiment(k, Fraction(7, 10), [4, 12], 400, PercField(6))
        assert rep.rows[1].survival < rep.rows[0].survival
        assert rep.survival_nonincreasing

    def test_zero_survivors_flagged(self):
        k = kx_set("0" * 8)  # single thin chain: dies almost surely
        rep = hawkes_experiment(k, Fraction(9, 10), [8], 200, PercField(7))
        if rep.rows[0].n_alive == 0:
            assert 8 in rep.slope_flagged_levels
            assert rep.rows[0].cond_slope is None

    def test_beta_range_validated(self):
        with pytest.raises(ValueError):
            hawkes_experiment(None, 2, [4], 10, PercField(0))

    def test_csv_shape(self):
        rep = hawkes_experiment(None, Fraction(1, 2), [3], 50, PercField(8))
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "depth,survival_frac,ci_low,ci_high,cond_slope"
        assert len(lines) == 2


class TestGammaStar:
    def _setup(self, depth=8):
        k = full_cube(1, depth)
        y0 = select_anchor_cell(k)
        gamma = Fraction(1)
        cfg = GammaStarConfig(
            gamma=gamma,
            betas=(Fraction(1, 2), Fraction(3, 4)),
            copies=(4, 4),
            c_hats=(0.5, 0.5),
            y0_leaf=y0,
            k_max=2,
        )
        return k, cfg

    def test_full_retention_reproduces_reference(self):
        k, cfg = self._setup()
        spec = TargetSpec.finite_set([Fraction(1)])  # phi == gamma, alpha == 0
        smp = gamma_star(cfg, Word((0,) * 8), spec, PercField(3), 8, k)
        q1 = tuple(c >> 7 for c in cfg.y0_leaf)
        expect = {leaf for leaf in k.leaves if tuple(c >> 7 for c in leaf) == q1}
        expect.add(cfg.y0_leaf)
        assert smp.survivors.leaves == frozenset(expect)

    def test_monotone_in_branch_value(self):
        k, cfg = self._setup()
        spec = TargetSpec.finite_set([Fraction(1, 4), Fraction(3, 4)])
        f = PercField(17)
        hi = gamma_star(cfg, Word((1,) * 8), spec, f, 8, k)  # phi 3/4, alpha 1/4
        lo = gamma_star(cfg, Word((0,) * 8), spec, f, 8, k)  # phi 1/4, alpha 3/4
        assert lo.survivors.leaves <= hi.survivors.leaves

    def test_continuity_modulus(self):
        depth = 10
        k = full_cube(1, depth)
        y0 = select_anchor_cell(k)
        cfg = GammaStarConfig(Fraction(1), (Fraction(1, 2),), (3,), (0.5,), y0, 1)
        spec = TargetSpec.interval_union([(Fraction(2, 5), Fraction(9, 10))])
        f = PercField(23)
        n = 3
        x = Word((0, 1, 0) + (0,) * (depth - n))
        y = Word((0, 1, 0) + (1,) * (depth - n))
        sx = gamma_star(cfg, x, spec, f, depth, k)
        sy = gamma_star(cfg, y, spec, f, depth, k)
        cx = sx.survivors.leaves | {c.z_cell for c in sx.completions}
        cy = sy.survivors.leaves | {c.z_cell for c in sy.completions}
        dh = hausdorff_distance(DyadicSet(1, depth, frozenset(cx)),
                                DyadicSet(1, depth, frozenset(cy)))
        assert dh <= Fraction(1, 1 << (n + 1))  # 2^-n * side(Q_1)

    def test_config_invariant_enforced(self):
        with pytest.raises(ValueError):
            GammaStarConfig(Fraction(1), (Fraction(1, 2),), (1,), (0.2,), (0,), 1)


class TestHelpers:
    def test_choose_copies(self):
        i = choose_copies(0.5)
        assert (1 - 0.5) ** i < 0.5 and (1 - 0.25) ** i < 0.5
        assert choose_copies(0.01, cap=16) == 16
        # estimates where (1 - c/2)^k is 1/2 up to rounding, and one ulp either
        # side: the smallest i with (1 - c/2)^i < 1/2, or the cap
        for k in range(1, 64):
            edge = 2 * (1 - 2 ** (-1 / k))
            for c in (nextafter(edge, 0), edge, nextafter(edge, 1)):
                i = choose_copies(c)
                assert i == 64 or (1 - c / 2) ** i < 0.5
                assert i == 1 or (1 - c / 2) ** (i - 1) >= 0.5

    def test_choose_copies_refuses_cap_below_one(self):
        assert choose_copies(0.5, cap=1) == 1
        for cap in (0, -3):
            with pytest.raises(ValueError, match="copy cap must be >= 1"):
                choose_copies(0.5, cap=cap)

    def test_anchor_prefers_dense_cell(self):
        leaves = {(c,) for c in range(8)} | {(56,)}
        k = DyadicSet(1, 6, frozenset(leaves))
        anchor = select_anchor_cell(k, window_level=3)
        assert anchor == (0,)

    def test_survival_constant_estimate(self):
        k = full_cube(1, 8)
        c = hawkes_experiment(k, Fraction(1, 2), [8], 300, PercField(2),
                              copy_prefix="chat").rows[0].survival
        assert 0.5 < c < 1.0


# ---------------------------------------------------------------------------
# The batched kernel against the per-trial level loop it replaced
# ---------------------------------------------------------------------------

def ancestors(k_set, level):
    """Oracle: the level-``level`` cells of the reference set, from its leaf tuples."""
    shift = k_set.depth - level
    return {tuple(c >> shift for c in leaf) for leaf in k_set.leaves}


def least_morton_leaf(k_set, cell, level):
    """Oracle: among the leaves under ``cell``, the one whose binary digits,
    read from the top level down with axis 0 first within a level, are least."""
    shift = k_set.depth - level
    under = [leaf for leaf in k_set.leaves if tuple(c >> shift for c in leaf) == cell]
    return min(under, key=lambda leaf: [(c >> j) & 1 for j in range(k_set.depth - 1, -1, -1)
                                        for c in leaf])


def oracle_sample(schedule, field, copy_key, depth, d=1, k_set=None, completions=False):
    """Reference: the per-trial level loop the batched kernel replaced, one
    trial grown level by level with the scalar float variates, the reference filter and
    the completion points taken from the leaf tuples.  Returns (survivor
    leaves, completions, level counts)."""
    if k_set is not None:
        d = k_set.d
    offsets = np.array(list(itertools.product((0, 1), repeat=d)), dtype=np.int64)
    frontier = np.zeros((1, d), dtype=np.int64)
    done, counts = [], [1]
    for level in range(1, depth + 1):
        kids = (2 * frontier[:, None, :] + offsets[None, :, :]).reshape(-1, d)
        parents = np.repeat(np.arange(frontier.shape[0]), offsets.shape[0])
        if k_set is not None:
            meets = ancestors(k_set, level)
            keep = np.array([tuple(kid) in meets for kid in kids.tolist()], dtype=bool)
            kids, parents = kids[keep], parents[keep]
        alive = np.array([field.variate(copy_key, level, kid) for kid in map(tuple, kids.tolist())],
                         dtype=float) <= schedule.retention(level)
        if completions and k_set is not None:
            fertile = set(parents[alive].tolist())
            for p in range(frontier.shape[0]):
                if p not in fertile:
                    cell = tuple(frontier[p].tolist())
                    done.append(Completion(level - 1, cell,
                                           least_morton_leaf(k_set, cell, level - 1)))
        frontier = kids[alive]
        counts.append(frontier.shape[0])
        if frontier.shape[0] == 0:
            counts += [0] * (depth - level)
            break
    return frozenset(map(tuple, frontier.tolist())), done, counts


def oracle_hawkes(k_set, beta, depths, trials, field, d=1, copy_prefix="hawkes"):
    depths = sorted(set(depths))
    if k_set is not None:
        d = k_set.d
    sched = RetentionSchedule.constant(beta)
    counts = np.array([oracle_sample(sched, field, (copy_prefix, t), depths[-1], d, k_set)[2]
                       for t in range(trials)], dtype=np.int64)
    rows, flagged = [], []
    for dep in depths:
        alive = counts[:, dep] > 0
        n_alive = int(alive.sum())
        frac = n_alive / trials
        half = 1.96 * sqrt(max(frac * (1 - frac), 1e-12) / trials)
        cond = float((np.log2(counts[alive, dep]) / dep).mean()) if n_alive else None
        if cond is None:
            flagged.append(dep)
        rows.append(HawkesRow(dep, frac, max(0.0, frac - half), min(1.0, frac + half),
                              cond, n_alive))
    noninc = all(rows[i].survival >= rows[i + 1].survival for i in range(len(rows) - 1))
    return HawkesReport(Fraction(beta), trials, tuple(rows), noninc, tuple(flagged))


def oracle_gamma_star(config, x, spec, field, depth, k_set):
    vm = VarphiMap(spec, positive_gamma=config.gamma)
    sched = RetentionSchedule.from_list(
        [config.gamma - vm.value(x.prefix(n)) for n in range(1, depth + 1)])
    leaves, done = {config.y0_leaf}, []
    for k in range(1, config.k_max + 1):
        local_depth = depth - k
        if local_depth < 1:
            break
        q = tuple(c >> local_depth for c in config.y0_leaf)
        base = tuple(qc << local_depth for qc in q)
        local = frozenset(tuple(c - b for c, b in zip(leaf, base)) for leaf in k_set.leaves
                          if tuple(c >> local_depth for c in leaf) == q)
        if not local:
            continue
        local_k = DyadicSet(k_set.d, local_depth, local)
        for i in range(1, config.copies[k - 1] + 1):
            surv, comps, _ = oracle_sample(sched, field, ("gstar", k, i), local_depth,
                                           k_set=local_k, completions=True)
            leaves |= {tuple(c + b for c, b in zip(leaf, base)) for leaf in surv}
            for comp in comps:
                cell = tuple(c + (qc << comp.level) for c, qc in zip(comp.cell, q))
                z = tuple(c + b for c, b in zip(comp.z_cell, base))
                done.append(Completion(comp.level + k, cell, z))
    return frozenset(leaves), done


@pytest.fixture(params=["default", "tiny"])
def split(request, monkeypatch):
    """Runs a case with the batch split at its default size and again with a
    split size so small that every batch is cut down to single trials."""
    if request.param == "tiny":
        monkeypatch.setattr(percolation, "_SPLIT_CELLS", 3)


BEATTY_10 = kx_set(factor(beatty_balanced(Fraction(2, 5)), 0, 10))
PLANE_7 = product(kx_set(factor(beatty_balanced(Fraction(2, 3)), 0, 7)),
                  kx_set(factor(beatty_balanced(Fraction(3, 4)), 0, 7)))


class TestKernelMatchesPerTrialLoop:
    @pytest.mark.parametrize("k_set, beta, d, depths", [
        (None, Fraction(1, 2), 1, [3, 7, 12]),
        (None, Fraction(3, 2), 2, [2, 5, 7]),
        (BEATTY_10, Fraction(1, 3), 1, [1, 4, 10]),
        (PLANE_7, Fraction(4, 5), 2, [3, 7]),
    ])
    def test_hawkes_csv(self, split, k_set, beta, d, depths):
        field = PercField(2718)
        got = hawkes_experiment(k_set, beta, depths, 60, field, d=d)
        want = oracle_hawkes(k_set, beta, depths, 60, PercField(2718), d=d)
        assert got.to_csv() == want.to_csv()
        assert got == want

    @pytest.mark.parametrize("k_set, d, depth", [
        (None, 1, 14), (None, 2, 7), (BEATTY_10, 1, 10), (PLANE_7, 2, 6)])
    def test_sample(self, split, k_set, d, depth):
        sched = RetentionSchedule.from_list(
            [Fraction(n % 4, 5) for n in range(1, depth + 1)])
        for t in range(8):
            field = PercField(31 + t)
            smp = sample(sched, field, ("eq", t), depth, d, k_set, completions=True)
            leaves, done, counts = oracle_sample(sched, field, ("eq", t), depth, d, k_set,
                                                 completions=True)
            assert smp.survivors.leaves == leaves
            assert list(smp.level_counts) == counts
            assert list(smp.completions) == done

    @pytest.mark.parametrize("d, depth", [(1, 10), (2, 6)])
    def test_gamma_star(self, split, d, depth):
        k_set = full_cube(d, depth) if d == 2 else kx_set(
            factor(beatty_balanced(Fraction(4, 5)), 0, depth))
        y0 = select_anchor_cell(k_set)
        cfg = GammaStarConfig(Fraction(1), (Fraction(1, 2), Fraction(3, 4)), (5, 5),
                              (0.5, 0.5), y0, 2)
        spec = TargetSpec.interval_union([(Fraction(2, 5), Fraction(9, 10))])
        x = Word(tuple((i * 7 // 3) % 2 for i in range(depth)))
        smp = gamma_star(cfg, x, spec, PercField(404), depth, k_set)
        leaves, done = oracle_gamma_star(cfg, x, spec, PercField(404), depth, k_set)
        assert done  # the copies must die somewhere for the order to be tested
        assert smp.survivors.leaves == leaves
        assert list(smp.completions) == done
        assert_completions_inside(smp.completions, k_set)

    @pytest.mark.parametrize("k_set", [full_cube(2, 6), PLANE_7], ids=["full", "plane"])
    def test_2d_completions_lie_in_their_cells_and_k(self, split, k_set):
        done = [comp for t in range(8) for comp in sample(
            RetentionSchedule.constant(Fraction(6, 5)), PercField(50 + t), ("in", t),
            k_set.depth, k_set=k_set, completions=True).completions]
        assert len({comp.level for comp in done}) > 2
        assert_completions_inside(done, k_set)


@st.composite
def kernel_cases(draw):
    """A dimension, a depth, a reference set (or none) at that depth or one
    deeper, and a retention schedule whose exponents include 0 and, past the
    dimension, 54 (whose threshold is 0)."""
    d = draw(st.integers(1, 4))
    depth = draw(st.integers(1, {1: 9, 2: 5, 3: 4, 4: 3}[d]))
    k_set = None
    if draw(st.booleans()):
        ref_depth = depth + draw(st.integers(0, 1))
        leaves = draw(st.sets(st.tuples(*[st.integers(0, (1 << ref_depth) - 1)] * d),
                              min_size=1, max_size=24))
        k_set = DyadicSet(d, ref_depth, leaves)
    alphas = draw(st.lists(st.sampled_from([Fraction(0), Fraction(d, 4), Fraction(d, 2),
                                            Fraction(3 * d, 4), Fraction(d), Fraction(54)]),
                           min_size=depth, max_size=depth))
    return d, depth, k_set, RetentionSchedule.from_list(alphas)


class TestKernelProperties:
    """Drawn cases of the batched kernel against the per-trial oracle, which
    grows each trial alone through the scalar PercField.variate."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=kernel_cases(), seed=st.integers(0, 2 ** 64 - 1),
           key=st.one_of(st.integers(0, 2 ** 40), st.text(max_size=4),
                         st.tuples(st.text(max_size=3), st.integers(0, 99))),
           completions=st.booleans())
    def test_sample(self, split, unchecked_dims, case, seed, key, completions):
        d, depth, k_set, sched = case
        smp = sample(sched, PercField(seed), key, depth, d, k_set, completions=completions)
        leaves, done, counts = oracle_sample(sched, PercField(seed), key, depth, d, k_set,
                                             completions=completions)
        assert smp.survivors.leaves == leaves
        assert list(smp.level_counts) == counts
        assert list(smp.completions) == done

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=kernel_cases(), seed=st.integers(0, 2 ** 32), trials=st.integers(1, 12),
           data=st.data())
    def test_hawkes(self, split, case, seed, trials, data):
        d, depth, k_set, _ = case
        beta = Fraction(data.draw(st.integers(1, 4 * d - 1)), 4)
        depths = data.draw(st.sets(st.integers(1, depth), min_size=1, max_size=3))
        got = hawkes_experiment(k_set, beta, depths, trials, PercField(seed), d=d)
        want = oracle_hawkes(k_set, beta, depths, trials, PercField(seed), d=d)
        assert got.to_csv() == want.to_csv()
        assert got == want

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2 ** 32),
           copies=st.tuples(st.integers(1, 4), st.integers(1, 4)))
    def test_gamma_star(self, split, d, data, seed, copies):
        depth = data.draw(st.integers(3, {1: 8, 2: 5, 3: 4}[d]))
        leaves = data.draw(st.sets(st.tuples(*[st.integers(0, (1 << depth) - 1)] * d),
                                   min_size=1, max_size=30))
        k_set = DyadicSet(d, depth, leaves)
        cfg = GammaStarConfig(Fraction(1), (Fraction(1, 2), Fraction(3, 4)), copies,
                              (0.9, 0.9), select_anchor_cell(k_set), 2)
        spec = TargetSpec.interval_union([(Fraction(1, 5), Fraction(4, 5))])
        x = Word(tuple(data.draw(st.lists(st.integers(0, 1), min_size=depth,
                                          max_size=depth))))
        smp = gamma_star(cfg, x, spec, PercField(seed), depth, k_set)
        leaves, done = oracle_gamma_star(cfg, x, spec, PercField(seed), depth, k_set)
        assert smp.survivors.leaves == leaves
        assert list(smp.completions) == done
        assert_completions_inside(smp.completions, k_set)


class TestTrialHashes:
    @settings(max_examples=50, deadline=None)
    @given(prefix=st.lists(st.one_of(st.text(max_size=6), st.integers(0, 2 ** 64 - 1)),
                           min_size=1, max_size=3).map(tuple),
           start=st.one_of(st.integers(0, 2 ** 63), st.just(2 ** 64 - percolation._SALT - 3)),
           count=st.integers(0, 40), seed=st.integers(0, 2 ** 64 - 1))
    def test_equal_to_copy_hash_key_by_key(self, prefix, start, count, seed):
        # the start near 2^64 - _SALT makes the salted trial numbers wrap
        got = PercField(seed)._trial_hashes(prefix, start, start + count)
        oracle = PercField(seed)
        assert got.dtype == np.uint64
        assert got.tolist() == [oracle._copy_hash(prefix + (t,))
                                for t in range(start, start + count)]

    @pytest.mark.parametrize("key", ["acc6", "acc7", "hawkes", "gstar", "survivor", "save",
                                     "", "\u00e9t\u00e9"])
    def test_short_string_keys_hash_as_their_bytes(self, key):
        # keys of at most 8 bytes hash as their little-endian integer, as they
        # always have, so the acceptance criteria's draws do not move
        field = PercField(5)
        assert field._copy_hash(key) == field._copy_hash(int.from_bytes(key.encode(), "little"))

    def test_long_prefixes_differ_past_8_bytes(self):
        field = PercField(5)
        assert field._copy_hash("percolate") != field._copy_hash("percolatX")
        assert field._copy_hash("experiment1") != field._copy_hash("experiment1\0")
        reports = [hawkes_experiment(None, Fraction(1, 2), [6], 300, field, copy_prefix=p)
                   for p in ("experiment1", "experiment2")]
        assert reports[0].to_csv() != reports[1].to_csv()

    def test_field_state_does_not_grow(self):
        # a field holds its seed and base hash only: no per-key state, however
        # many copy keys its samples and experiments draw
        field = PercField(8)
        state = dict(vars(field))
        for t in range(2000):
            sample(RetentionSchedule.constant(Fraction(1, 2)), field, ("acc6", t), 3)
        hawkes_experiment(None, Fraction(1, 2), [6], 5000, field)
        hawkes_experiment(None, Fraction(1, 2), [6], 3000, field, copy_prefix="other")
        assert vars(field) == state


def assert_completions_inside(completions, k_set):
    for comp in completions:
        shift = k_set.depth - comp.level
        assert tuple(c >> shift for c in comp.z_cell) == comp.cell
        assert comp.z_cell in k_set.leaves


# sha256 of the CSV rows (header comments excluded) and of the saved set,
# recorded with the per-trial loop before the batched kernel replaced it.
PINNED_CLI = [
    (["percolate", "--k", "full:2", "--beta", "3/2", "--depth", "10", "--trials", "200",
      "--seed", "11"],
     "91e57463a231ccf75c610f7953417335a42952aeff11c9245842a15bba88b30d",
     "8ecd726a64e4892b301fc82ff2592bc29e4867c303116c9ced906a5ec748b969"),
    (["percolate", "--k", "beatty:1/3", "--beta", "3/5", "--depth", "14", "--trials", "300",
      "--seed", "4"],
     "e6605ae68d777843f78f69f78bc2e6567893c1808ebae0ffc511b20a3d2b4d98", None),
    (["hawkes", "--k", "full:1", "--beta", "1/2", "--depths", "4,9,15", "--trials", "300",
      "--seed", "9"],
     "afd2b3d8df8bb2a09c23abc3184c943e07b101d73b93fba47bc2d0b00aa0456f", None),
    (["hawkes", "--k", "beatty:2/5", "--beta", "1/3", "--depths", "3,8,12", "--trials", "200",
      "--seed", "2"],
     "b68c3a3ab8b86bad9f9854d7d8849487782d622f433ffa6dcf0062fb867adabf", None),
]


@pytest.mark.parametrize("argv, csv_sha, set_sha", PINNED_CLI)
def test_pinned_cli_outputs(tmp_path, split, argv, csv_sha, set_sha):
    out, saved = tmp_path / "out.csv", tmp_path / "set.bin"
    extra = ["--save-set", str(saved)] if set_sha else []
    assert main(argv + ["--out", str(out)] + extra) == 0
    rows = "".join(ln for ln in out.read_text().splitlines(True) if not ln.startswith("#"))
    assert hashlib.sha256(rows.encode()).hexdigest() == csv_sha
    if set_sha:
        assert hashlib.sha256(saved.read_bytes()).hexdigest() == set_sha


class TestLimitsAndValidation:
    def test_single_trial_over_cell_limit(self, monkeypatch):
        monkeypatch.setattr(percolation, "_MAX_CELLS", 1 << 10)
        with pytest.raises(ResourceLimitError, match="over the limit 1024"):
            sample(RetentionSchedule.constant(0), PercField(1), "big", 12, d=2)
        with pytest.raises(ResourceLimitError):
            hawkes_experiment(None, Fraction(1, 100), [12], 3, PercField(1), d=2)

    def test_many_small_trials_split_not_refused(self, monkeypatch):
        # 400 trials hold far more cells together than one trial may alone
        monkeypatch.setattr(percolation, "_MAX_CELLS", 1 << 10)
        monkeypatch.setattr(percolation, "_SPLIT_CELLS", 1 << 8)
        rep = hawkes_experiment(None, Fraction(1, 2), [8], 400, PercField(3))
        monkeypatch.undo()
        assert rep == hawkes_experiment(None, Fraction(1, 2), [8], 400, PercField(3))

    def test_cli_cell_limit_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(percolation, "_MAX_CELLS", 1 << 12)
        rc = main(["percolate", "--k", "full:2", "--depth", "26", "--beta", "1/100",
                   "--trials", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "over the limit 4096" in err
        assert not (tmp_path / "x.csv").exists()

    def test_empty_reference_set_rejected(self):
        empty = DyadicSet(1, 6, frozenset())
        with pytest.raises(ValueError, match="reference set is empty"):
            sample(RetentionSchedule.constant(Fraction(1, 2)), PercField(1), "e", 6,
                   k_set=empty, completions=True)
        with pytest.raises(ValueError, match="reference set is empty"):
            hawkes_experiment(empty, Fraction(1, 2), [6], 5, PercField(1))

    def test_dimension_comes_from_the_reference_set(self):
        sched, field = RetentionSchedule.constant(Fraction(1, 2)), PercField(1)
        line, plane = kx_set("1101"), product(kx_set("1101"), kx_set("1011"))
        assert sample(sched, field, "d", 4).survivors.d == 1
        got = sample(sched, field, "d", 4, k_set=plane).survivors
        assert got.d == 2 and got.leaves == sample(sched, field, "d", 4, 2, plane).survivors.leaves
        with pytest.raises(ValueError, match="d=2 differs from the reference set's "
                                             "dimension 1") as err:
            sample(sched, field, "d", 4, d=2, k_set=line)
        assert "\n" not in str(err.value)
        with pytest.raises(ValueError, match="d=1 differs"):
            coupled_pair(sched, sched, field, "d", 4, d=1, k_set=plane)
        with pytest.raises(ValueError, match="d=3 differs"):
            hawkes_experiment(line, Fraction(1, 2), [4], 5, field, d=3)
        assert hawkes_experiment(plane, Fraction(3, 2), [4], 5, field).trials == 5

    @pytest.mark.parametrize("depths, trials", [([0, 4], 10), ([-1], 10), ([], 10),
                                                ([4], 0), ([4], -3)])
    def test_hawkes_rejects_bad_depths_and_trials(self, depths, trials):
        with pytest.raises(ValueError):
            hawkes_experiment(None, Fraction(1, 2), depths, trials, PercField(0))

    @pytest.mark.parametrize("args", [["--depths", "0,4", "--trials", "10"],
                                      ["--depths", "4", "--trials", "0"]])
    def test_cli_hawkes_bad_input_exits_1(self, tmp_path, capsys, args):
        # trials < 1 is refused by the config schema before the library runs
        rc = main(["hawkes", "--k", "full:1", "--beta", "1/2", *args,
                   "--out", str(tmp_path / "h.csv")])
        assert rc == 1
        assert capsys.readouterr().err != "error: 0\n"


# ---------------------------------------------------------------------------
# The code-based anchor and stage union against their tuple versions
# ---------------------------------------------------------------------------

def oracle_anchor(k_set, window_level=None):
    """Reference: the leaf-tuple loop select_anchor_cell replaced."""
    m = k_set.depth // 2 if window_level is None else window_level
    m = max(1, min(k_set.depth, m))
    shift = k_set.depth - m
    groups = Counter(tuple(c >> shift for c in leaf) for leaf in k_set.leaves)
    top = max(groups.values())
    best = min(a for a, c in groups.items() if c == top)
    return min(leaf for leaf in k_set.leaves if tuple(c >> shift for c in leaf) == best)


@st.composite
def reference_sets(draw, min_depth=1):
    d = draw(st.integers(1, 3))
    depth = draw(st.integers(min_depth, max(min_depth, 9 // d)))
    coord = st.integers(0, (1 << depth) - 1)
    return DyadicSet(d, depth, draw(st.frozensets(st.tuples(*[coord] * d),
                                                  min_size=1, max_size=40)))


class TestCodesMatchTupleOracles:
    @given(k_set=reference_sets(), window=st.one_of(st.none(), st.integers(-1, 10)))
    @settings(max_examples=300, deadline=None)
    def test_anchor(self, k_set, window):
        assert select_anchor_cell(k_set, window) == oracle_anchor(k_set, window)

    def test_anchor_ties_are_lexicographic_not_morton(self):
        # (1, 0) precedes (0, 2) in Morton order, (0, 2) precedes (1, 0) in
        # lexicographic order; both windows hold two leaves
        k = DyadicSet(2, 3, frozenset({(0, 4), (0, 5), (2, 0), (3, 0)}))
        assert select_anchor_cell(k, window_level=2) == (0, 4) == oracle_anchor(k, 2)
        k = DyadicSet(2, 2, frozenset({(0, 2), (1, 0)}))
        assert select_anchor_cell(k, window_level=2) == (0, 2)

    @given(k_set=reference_sets(min_depth=3), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_gamma_star(self, k_set, data):
        y0 = data.draw(st.sampled_from(sorted(k_set.leaves)))
        cfg = GammaStarConfig(Fraction(1), (Fraction(1, 2), Fraction(3, 4)), (3, 3),
                              (0.5, 0.5), y0, 2)
        spec = TargetSpec.interval_union([(Fraction(1, 5), Fraction(4, 5))])
        x = Word(tuple(data.draw(st.lists(st.integers(0, 1), min_size=k_set.depth,
                                          max_size=k_set.depth))))
        seed = data.draw(st.integers(0, 1 << 20))
        smp = gamma_star(cfg, x, spec, PercField(seed), k_set.depth, k_set)
        leaves, done = oracle_gamma_star(cfg, x, spec, PercField(seed), k_set.depth, k_set)
        assert smp.survivors.leaves == leaves
        assert list(smp.completions) == done

    def test_gamma_star_rejects_an_anchor_off_the_grid(self):
        cfg = GammaStarConfig(Fraction(1), (Fraction(1, 2),), (3,), (0.5,), (64,), 1)
        spec = TargetSpec.interval_union([(Fraction(1, 5), Fraction(4, 5))])
        with pytest.raises(ValueError):
            gamma_star(cfg, "010110", spec, PercField(1), 6, full_cube(1, 6))


@pytest.mark.parametrize("d, depth", [(40, 4), (30, 2), (22, 1)])
def test_wide_cells_refused_before_any_array(d, depth):
    with pytest.raises(ResourceLimitError):
        hawkes_experiment(None, Fraction(1, 2), [depth], 3, PercField(1), d=d)
    with pytest.raises(ResourceLimitError):
        sample(RetentionSchedule.constant(Fraction(1, 2)), PercField(1), "w", depth, d=d)
