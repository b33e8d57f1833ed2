"""Tests for Farey enumeration, one-sided derivatives, duality, and estimators."""

import math
from fractions import Fraction

import numpy as np
import pytest

from staircase_lab import staircase as sc
from staircase_lab.errors import (
    EmptyTable,
    InsufficientSamples,
    NonconvexTerm,
    OverlapDetected,
)
from staircase_lab.model import GeneratingModel, frenkel_kontorova
from staircase_lab.solvers import SolveOptions


def quad_table(exact=True):
    if exact:
        return sc.BetaTable.from_function(lambda r: r * r / 2.0,
                                          derivative=lambda r: (r, r))
    return sc.BetaTable.from_function(lambda r: r * r / 2.0)


def kink_table():
    # piecewise-linear with slopes 0 and 1 meeting at rho = 1/2
    return sc.BetaTable.from_function(lambda r: max(0.0, r - 0.5))


@pytest.fixture(scope="module")
def k2_table():
    return sc.BetaTable.bind(frenkel_kontorova(2.0))


# ---- Farey machinery ---------------------------------------------------------


def test_farey_f5_matches_known_sequence():
    f5 = sc.farey_enumerate(5, 0.0, 1.0)
    assert f5 == [(0, 1), (1, 5), (1, 4), (1, 3), (2, 5), (1, 2),
                  (3, 5), (2, 3), (3, 4), (4, 5), (1, 1)]
    i = f5.index((1, 2))
    assert f5[i - 1] == (2, 5) and f5[i + 1] == (3, 5)


def test_farey_count_matches_totient_sum():
    def phi(n):
        return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)

    got = len(sc.farey_enumerate(30, 0.0, 1.0))
    assert got == 1 + sum(phi(q) for q in range(1, 31))


def test_farey_adjacent_pairs_are_neighbors():
    f12 = sc.farey_enumerate(12, 0.0, 1.0)
    for (p1, q1), (p2, q2) in zip(f12, f12[1:]):
        assert p2 * q1 - p1 * q2 == 1


def test_farey_subrange_and_validation():
    sub = sc.farey_enumerate(7, 0.3, 0.7)
    full = sc.farey_enumerate(7, 0.0, 1.0)
    assert sub == [r for r in full if 0.3 <= r[0] / r[1] <= 0.7]
    assert sub[0] == (1, 3) and sub[-1] == (2, 3)
    with pytest.raises(ValueError):
        sc.farey_enumerate(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        sc.farey_enumerate(5, 0.7, 0.3)
    with pytest.raises(ValueError):
        sc.farey_enumerate(5, Fraction(1, 3), Fraction(1, 4))


def farey_enumerate_before_exact_bounds(Q, h_lo, h_hi):
    """staircase.farey_enumerate as it was before it compared its ends
    exactly, line for line."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if not h_lo < h_hi:
        raise ValueError(f"empty range [{h_lo}, {h_hi}]")
    lo = Fraction(h_lo)
    hi = Fraction(h_hi)
    out: set[Fraction] = set()
    for q in range(1, Q + 1):
        p_min = math.ceil(h_lo * q - 1e-9)
        p_max = math.floor(h_hi * q + 1e-9)
        for p in range(p_min, p_max + 1):
            r = Fraction(p, q)
            if lo <= r <= hi and r.denominator <= Q:
                out.add(r)
    rats = sorted(out)
    return [(r.numerator, r.denominator) for r in rats]


WINDOW_ENDS = (0.0, 0.1, 0.2, 0.25, 0.3, 0.3333333333333333, 0.34, 0.5, 0.6, 0.7, 0.9, 1.0)


def test_farey_matches_its_former_body():
    windows = [(lo, hi) for lo in WINDOW_ENDS for hi in WINDOW_ENDS if lo < hi]
    for Q in range(1, 13):
        for lo, hi in windows + [(-0.5, 1.5), (0.19999999999999998, 0.6000000000000001)]:
            assert sc.farey_enumerate(Q, lo, hi) == farey_enumerate_before_exact_bounds(Q, lo, hi)


def test_farey_exact_ends():
    # a Fraction end is compared exactly, a float end as the binary fraction it is
    assert (sc.farey_enumerate(5, Fraction(1, 5), Fraction(3, 5))
            == [(1, 5), (1, 4), (1, 3), (2, 5), (1, 2), (3, 5)])
    assert sc.farey_enumerate(5, 0.2, 0.6) == [(1, 4), (1, 3), (2, 5), (1, 2)]
    assert sc.farey_enumerate(2, Fraction(0), Fraction(0)) == [(0, 1)]
    assert sc.farey_enumerate(4, 0.26, 0.3) == []


def estimator_rationals_before_farey(Q, q_max):
    """staircase.estimator_rationals as it was before it read
    farey_enumerate, line for line."""
    hi = 2 * Q if q_max is None else q_max
    return [(p, q) for q in range(Q + 1, hi + 1) for p in range(1, q + 1)
            if math.gcd(p, q) == 1]


def test_estimator_rationals_match_their_former_body():
    for Q in range(0, 9):
        for q_max in (None, *range(-1, 20)):
            assert (sc.estimator_rationals(Q, q_max)
                    == estimator_rationals_before_farey(Q, q_max)), (Q, q_max)


def test_slope_mediants_are_the_chains_one_sided_reads():
    for p, q in [(0, 1), (1, 2), (2, 5), (-1, 3)]:
        assert sc.slope_mediants(p, q, 4) == [
            (sc.mediant_chain(p, q, side, 3), sc.mediant_chain(p, q, side, 4))
            for side in ("left", "right")]


def test_farey_parents_identities():
    rng = np.random.default_rng(11)
    cases = [(0, 1), (1, 1), (1, 2), (3, 1), (-2, 5)]
    while len(cases) < 30:
        q = int(rng.integers(2, 60))
        p = int(rng.integers(-40, 40))
        if math.gcd(abs(p), q) == 1:
            cases.append((p, q))
    for p, q in cases:
        (a, b), (c, d) = sc.farey_parents(p, q)
        assert p * b - a * q == 1
        assert c * q - p * d == 1
        assert Fraction(a + c, b + d) == Fraction(p, q)
        if q > 1:
            assert a + c == p and b + d == q


def test_normalize_rational():
    assert sc.normalize_rational(2, 4) == (1, 2)
    assert sc.normalize_rational(-2, 4) == (-1, 2)
    assert sc.normalize_rational(1, -2) == (-1, 2)
    assert sc.normalize_rational(0, 5) == (0, 1)
    with pytest.raises(ValueError):
        sc.normalize_rational(1, 0)


def test_cf_helpers_golden_mean():
    h = sc.cf_value(sc.GOLDEN_CF)
    assert abs(h - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-12
    convs = sc.cf_convergents(sc.GOLDEN_CF, 1000)
    assert (1, 2) in convs and (610, 987) in convs
    assert all(q <= 1000 for _, q in convs)
    # consecutive convergents have unit cross products
    for (p1, q1), (p2, q2) in zip(convs[1:], convs[2:]):
        assert abs(p2 * q1 - p1 * q2) == 1


# ---- one-sided derivatives ---------------------------------------------------


def test_one_sided_quadratic_recovers_slope():
    tab = quad_table(exact=False)
    for p, q in [(0, 1), (1, 2), (2, 5), (1, 1), (3, 7)]:
        cm, cp, w = tab.one_sided(p, q)
        assert abs(cm - p / q) < 1e-9
        assert abs(cp - p / q) < 1e-9


def test_one_sided_kink_reads_slopes_at_any_depth():
    for depth in (2, 3, 4, 6):
        tab = kink_table()
        cm, cp, _ = tab.one_sided(1, 2, depth)
        assert abs(cm - 0.0) < 1e-9
        assert abs(cp - 1.0) < 1e-9


def test_one_sided_exact_derivative_shortcut():
    tab = quad_table(exact=True)
    cm, cp, w = tab.one_sided(2, 5)
    assert cm == cp == 0.4
    assert w == 0.0


def test_one_sided_depth_validation():
    with pytest.raises(ValueError):
        quad_table().one_sided(1, 2, depth=1)


def test_one_sided_k2_gap_stable_across_depths(k2_table):
    vals = {}
    for depth in (3, 4, 5):
        cm, cp, w = k2_table.one_sided(0, 1, depth)
        assert cp - cm > 0.9
        assert w < 1e-4
        vals[depth] = (cm, cp)
    for d1, d2 in ((3, 4), (4, 5)):
        assert abs(vals[d1][0] - vals[d2][0]) < 1e-4
        assert abs(vals[d1][1] - vals[d2][1]) < 1e-4


def test_refine_until_shrinks_bracket():
    tab = quad_table(exact=False)
    cm4, cp4, w4 = tab.one_sided(1, 3, 4)
    tab2 = quad_table(exact=False)
    cm, cp, w = tab2.refine_until(1, 3, width=w4 / 2.0, max_depth=9)
    assert w < w4
    assert abs(cm - 1.0 / 3.0) < 1e-9 and abs(cp - 1.0 / 3.0) < 1e-9


def test_beta_memoizes_normalized_keys():
    calls = []

    def phi(r):
        calls.append(r)
        return r * r

    tab = sc.BetaTable.from_function(phi)
    b1 = tab.beta(1, 2)
    b2 = tab.beta(2, 4)
    b3 = tab.beta(-1, -2)
    assert b1 == b2 == b3
    assert len(calls) == 1


# ---- convexity verification --------------------------------------------------


def test_verify_convexity_quadratic():
    tab = quad_table(exact=False)
    report = tab.verify_convexity(Q=12)
    assert report
    assert tab.convexity_verified


def test_verify_convexity_flags_depressed_point():
    def phi(r):
        base = r * r / 2.0
        return base - 0.05 if r == 0.5 else base

    tab = sc.BetaTable.from_function(phi)
    report = tab.verify_convexity(Q=5)
    assert not report
    assert (1, 2) in report.witness
    assert report.worst_violation > 1e-3
    assert not tab.convexity_verified


# ---- Legendre transform ------------------------------------------------------


def test_legendre_quadratic_on_f20():
    tab = quad_table(exact=False)
    for p, q in tab.rationals(20):
        tab.beta(p, q)
    grid = np.linspace(0.0, 1.0, 41)
    stair = sc.legendre(tab, grid)
    spacing = grid[1] - grid[0]
    for (c, alpha), (_, rho) in zip(stair.alpha_samples, stair.d_alpha):
        assert abs(alpha - c * c / 2.0) <= (1.0 / 20.0) ** 2
        assert abs(rho - c) <= spacing
    assert stair.fenchel_max < 1e-9


def test_legendre_dalpha_monotone_with_plateaus():
    rng = np.random.default_rng(23)
    for _ in range(5):
        r0 = float(rng.uniform(0.3, 0.7))
        a = float(rng.uniform(0.5, 2.0))
        w = float(rng.uniform(0.1, 0.5))

        def phi(r, r0=r0, a=a, w=w):
            return a * r * r / 2.0 + w * abs(r - r0)

        tab = sc.BetaTable.from_function(phi)
        for p, q in tab.rationals(9):
            tab.beta(p, q)
        stair = sc.legendre(tab, np.linspace(-0.2, 1.2, 101))
        rhos = [r for _, r in stair.d_alpha]
        assert all(r2 >= r1 for r1, r2 in zip(rhos, rhos[1:]))
        # argmax ties form contiguous plateaus of constant value
        seen = set()
        for val, nxt in zip(rhos, rhos[1:]):
            if nxt != val:
                assert val not in seen or val == nxt
                seen.add(val)


def test_legendre_kinked_plateau():
    tab = kink_table()
    for p, q in tab.rationals(8):
        tab.beta(p, q)
    stair = sc.legendre(tab, np.linspace(0.05, 0.95, 19))
    assert all(r == 0.5 for _, r in stair.d_alpha)


def test_legendre_empty_and_nonconvex():
    with pytest.raises(EmptyTable):
        sc.legendre(quad_table(), [0.5])

    def phi(r):
        base = r * r / 2.0
        return base - 0.05 if r == 0.5 else base

    tab = sc.BetaTable.from_function(phi)
    for p, q in tab.rationals(5):
        tab.beta(p, q)
    with pytest.raises(NonconvexTerm):
        sc.legendre(tab, np.linspace(0.0, 1.0, 11))


def test_biconjugate_identity_on_convex_samples():
    tab = quad_table(exact=False)
    for p, q in tab.rationals(12):
        tab.beta(p, q)
    bc = sc.biconjugate_samples(tab)
    for e in tab.entries():
        assert abs(bc[(e.p, e.q)] - e.beta) < 1e-9
    with pytest.raises(EmptyTable):
        sc.biconjugate_samples(quad_table())


# ---- locking intervals and completeness --------------------------------------


def test_locking_zero_width_for_smooth_table():
    tab = quad_table(exact=True)
    ivs = sc.locking_intervals(tab, 6, 0.05, 0.95)
    assert max(iv.width for iv in ivs) == 0.0
    assert sc.completeness_measure(ivs, 0.05, 0.95) == 0.0


def test_locking_kink_single_interval():
    tab = kink_table()
    ivs = sc.locking_intervals(tab, 3, -0.5, 1.5)
    wide = [iv for iv in ivs if iv.width > 1e-9]
    assert len(wide) == 1
    iv = wide[0]
    assert (iv.p, iv.q) == (1, 2)
    assert abs(iv.c_minus - 0.0) < 1e-9 and abs(iv.c_plus - 1.0) < 1e-9
    assert abs(sc.completeness_measure(ivs, -0.5, 1.5) - 0.5) < 1e-9


def test_locking_overlap_flags_same_rational_as_convexity():
    def phi(r):
        base = r * r / 2.0
        return base - 0.05 if r == 0.5 else base

    tab = sc.BetaTable.from_function(phi)
    with pytest.raises(OverlapDetected) as exc:
        sc.locking_intervals(tab, 5, -0.5, 1.5)
    flagged = {r for pair in exc.value.pairs for r in pair}
    assert (1, 2) in flagged
    report = sc.BetaTable.from_function(phi).verify_convexity(Q=5)
    assert (1, 2) in report.witness


def test_locking_clips_to_range():
    tab = kink_table()
    ivs = sc.locking_intervals(tab, 2, 0.25, 0.75)
    iv = [i for i in ivs if (i.p, i.q) == (1, 2)][0]
    assert abs(iv.c_minus - 0.25) < 1e-12 and abs(iv.c_plus - 0.75) < 1e-12


def test_completeness_measure_corners():
    assert sc.completeness_measure([], 0.0, 1.0) == 0.0
    one = [sc.LockingInterval(p=0, q=1, c_minus=-1.0, c_plus=2.0)]
    assert sc.completeness_measure(one, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        sc.completeness_measure([], 1.0, 1.0)


def test_locking_resummation_independent_path(k2_table):
    c1 = k2_table.one_sided(0, 1)[0]
    c2 = k2_table.one_sided(1, 1)[1]
    ivs = sc.locking_intervals(k2_table, 8, c1, c2)
    for a, b in zip(ivs, ivs[1:]):
        assert a.rho < b.rho
        assert b.c_minus >= a.c_plus - 1e-12
    total = math.fsum(iv.width for iv in ivs)
    # independent path: raw entry records, reversed order, numpy accumulation
    raw = []
    for iv in ivs:
        e = k2_table.entry(iv.p, iv.q)
        raw.append((e.rho, e.c_minus, e.c_plus))
    raw.sort(reverse=True)
    clipped = []
    hi = c2
    for rho, cm, cp in raw:
        lo_c = max(cm, c1)
        hi_c = min(cp, hi, c2)
        if hi_c > lo_c:
            clipped.append(hi_c - lo_c)
        hi = min(hi, lo_c)
    resum = float(np.sum(np.asarray(clipped[::-1])))
    assert abs(total - resum) < 1e-12


# ---- estimators ---------------------------------------------------------------


def test_variation_terms_quadratic_closed_form():
    tab = quad_table(exact=True)
    terms = sc._estimator_terms(tab, 0.5, 3, 4)
    assert terms == [0.0625, 0.0625]
    assert sc.variation_estimator(tab, 0.5, 3, 4) == 0.125


def test_hausdorff_theta_one_is_variation_bitwise(k2_table):
    V = sc.variation_estimator(k2_table, 0.5, 4)
    H = sc.hausdorff_estimator(k2_table, 0.5, 1.0, 4)
    assert V == H


def test_hausdorff_quadratic_closed_form():
    tab = quad_table(exact=True)
    H = sc.hausdorff_estimator(tab, 0.5, 0.5, 3, 4)
    assert H == 2.0 * 0.0625 ** 0.5


def test_estimator_terms_nonnegative_for_convex_tables():
    # kink pinned at 1/2: a Farey parent, so mediant secant windows only ever
    # touch it at an endpoint and the one-sided slopes stay clean
    rng = np.random.default_rng(7)
    for _ in range(4):
        a = float(rng.uniform(0.4, 2.0))
        w = float(rng.uniform(0.0, 0.3))

        def phi(r, a=a, w=w):
            return a * r * r / 2.0 + w * abs(r - 0.5)

        tab = sc.BetaTable.from_function(phi)
        terms = sc._estimator_terms(tab, 0.5, 3, 6)
        assert all(t >= 0.0 for t in terms)


def test_estimator_nonconvex_term_raises():
    tab = sc.BetaTable.from_function(lambda r: -r * r,
                                     derivative=lambda r: (-2.0 * r, -2.0 * r))
    with pytest.raises(NonconvexTerm):
        sc.variation_estimator(tab, 0.5, 3, 4)


def test_estimator_parameter_validation():
    tab = quad_table(exact=True)
    with pytest.raises(ValueError):
        sc.variation_estimator(tab, 0.0, 4)
    with pytest.raises(ValueError):
        sc.variation_estimator(tab, 1.0, 4)
    with pytest.raises(ValueError):
        sc.hausdorff_estimator(tab, 0.5, 0.0, 4)
    with pytest.raises(ValueError):
        sc.hausdorff_estimator(tab, 0.5, 1.5, 4)


def test_hausdorff_decreases_on_dyadic_ladder(k2_table):
    h6 = sc.hausdorff_estimator(k2_table, 0.5, 0.5, 6)
    h12 = sc.hausdorff_estimator(k2_table, 0.5, 0.5, 12)
    assert h12 < h6


# ---- probes -------------------------------------------------------------------


def test_convexity_probe_quadratic_envelope():
    tab = quad_table(exact=False)
    pr = sc.convexity_probe(tab)
    assert abs(pr.slope - pr.target) < 1e-6
    assert 0.45 < pr.c_low <= pr.C_high < 0.55


def test_convexity_probe_flat_data():
    h = sc.cf_value(sc.GOLDEN_CF)

    def phi(r):
        d = abs(r - h)
        return math.exp(-0.05 / d) if d > 0 else 0.0

    tab = sc.BetaTable.from_function(phi)
    pr = sc.convexity_probe(tab)
    assert pr.c_low < 1e-6 * max(pr.C_high, 1.0)


def test_convexity_probe_insufficient_samples():
    tab = quad_table(exact=False)
    with pytest.raises(InsufficientSamples):
        sc.convexity_probe(tab, delta=1e-4)


def test_ac_part_identity_staircase():
    grid = np.linspace(0.0, 1.0, 101)
    stair = sc.StaircaseTable(c1=0.0, c2=1.0,
                              d_alpha=[(float(c), float(c)) for c in grid])
    res = sc.ac_part_probe(stair, (0.15, 0.85))
    lo, hi = res.c_windows[0]
    assert abs(res.bound - (hi - lo)) < 1e-12
    assert abs(res.lipschitz - 1.0) < 1e-9


def test_ac_part_total_locking_is_zero():
    tab = kink_table()
    for p, q in tab.rationals(8):
        tab.beta(p, q)
    stair = sc.legendre(tab, np.linspace(0.05, 0.95, 37))
    res = sc.ac_part_probe(stair, (0.4, 0.6))
    assert res.bound == 0.0


def test_ac_part_windows_add():
    tab = quad_table(exact=False)
    for p, q in tab.rationals(12):
        tab.beta(p, q)
    stair = sc.legendre(tab, np.linspace(0.0, 1.0, 101))
    both = sc.ac_part_probe(stair, [(0.1, 0.3), (0.6, 0.9)])
    lone = sc.ac_part_probe(stair, (0.1, 0.3))
    other = sc.ac_part_probe(stair, (0.6, 0.9))
    assert lone.bound > 0.0 and other.bound > 0.0
    assert abs(both.bound - (lone.bound + other.bound)) < 1e-12
    assert len(both.c_windows) == 2


# ---- fourier-potential properties ------------------------------------------------

FOURIER_HARMONICS = [
    ((1, -0.3, 0.1), (2, 0.05, -0.04)),
    ((1, 0.2, -0.25), (3, -0.04, 0.02)),
]


def assert_beta_convex_and_locking_disjoint(model, seed):
    table = sc.BetaTable.bind(model, options=SolveOptions(seed=seed))
    rats = table.rationals(4)
    brackets = [table.one_sided(p, q) for p, q in rats]
    # every solved rational: the grid and the mediants its slopes read
    report = table.verify_convexity()
    assert report.ok, report
    assert len(table.entries()) > len(rats)
    for (cm, cp, _), (cm_next, _, _) in zip(brackets, brackets[1:]):
        assert cm <= cp <= cm_next + 1e-10
    intervals = sc.locking_intervals(table, 4, brackets[0][0], brackets[-1][1])
    assert [(iv.p, iv.q) for iv in intervals] == rats
    for a, b in zip(intervals, intervals[1:]):
        assert a.c_minus <= a.c_plus <= b.c_minus


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("harmonics", FOURIER_HARMONICS)
def test_fourier_beta_convex_and_locking_disjoint(harmonics, seed):
    model = GeneratingModel(family="fourier-potential", a=0.8, harmonics=harmonics)
    assert_beta_convex_and_locking_disjoint(model, seed)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("k", [0.3, 1.0, 2.0])
def test_fk_beta_convex_and_locking_disjoint(k, seed):
    assert_beta_convex_and_locking_disjoint(frenkel_kontorova(k), seed)
