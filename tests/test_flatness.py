"""Tests for heteroclinic segments, concatenated loops, and flatness curves."""

import math
from fractions import Fraction

import numpy as np
import pytest

from staircase_lab import flatness, parse_model, staircase, variational
from staircase_lab.errors import DegenerateFamily, NegativeU
from staircase_lab.model import GeneratingModel, frenkel_kontorova
from staircase_lab.solvers import SolveOptions
from staircase_lab.staircase import BetaTable, legendre

from oracles import concatenate_loop_per_gap, ladder_value_per_site


@pytest.fixture(scope="module")
def k2():
    return frenkel_kontorova(2.0)


@pytest.fixture(scope="module")
def k2_table(k2):
    return BetaTable.bind(k2)


@pytest.fixture(scope="module")
def k2_seg8(k2):
    return flatness.heteroclinic_segment(k2, 0, 1, 1, 8)


@pytest.fixture(scope="module")
def k2_curve01(k2, k2_table):
    return flatness.flatness_curve(k2, 0, 1, T_list=[1, 2, 3, 4], table=k2_table)


# ---- flatness_bound ---------------------------------------------------------


def test_flatness_bound_reference_value():
    val = flatness.flatness_bound(1, 0.25, 1.0, 1.0)
    assert val == pytest.approx(0.25 * math.exp(-1.0), rel=1e-15)
    assert abs(val - 0.091970) < 1e-6


def test_flatness_bound_strictly_increasing_in_delta():
    deltas = [0.5 / 2 ** j for j in range(12)]
    vals = [flatness.flatness_bound(3, d, 2.0, 1.7) for d in deltas]
    for a, b in zip(vals, vals[1:]):
        assert b < a


def test_flatness_bound_beats_powers():
    # delta^-4 * exp(-1/(4*delta)) turns over at delta = 1/16; start below it
    # and stop before the exponential underflows to an exact zero
    deltas = [0.05 / 2 ** j for j in range(6)]
    ratios = [flatness.flatness_bound(1, d, 1.0, 1.0) / d ** 5 for d in deltas]
    for a, b in zip(ratios, ratios[1:]):
        assert b < a
    assert ratios[-1] < 1e-12 * ratios[0]


def test_flatness_bound_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        flatness.flatness_bound(1, 0.0, 1.0, 1.0)


# ---- heteroclinic segments --------------------------------------------------


def test_heteroclinic_degenerate_at_k0():
    with pytest.raises(DegenerateFamily):
        flatness.heteroclinic_segment(frenkel_kontorova(0.0), 0, 1, 1, 4)


def test_heteroclinic_window_and_residual(k2_seg8):
    seg = k2_seg8
    assert len(seg.positions) == 2 * 8 * 1 + 1
    assert seg.sites[0] == -8 and seg.sites[-1] == 8
    assert seg.residual_sup < 1e-10
    assert np.all(seg.positions >= seg.lower - 1e-9)
    assert np.all(seg.positions <= seg.upper + 1e-9)
    assert seg.multiplicity >= 1


def test_heteroclinic_order_against_asymptotes(k2):
    seg = flatness.heteroclinic_segment(k2, 0, 1, 1, 4)
    inner = slice(2, -2)
    below = variational.order_check([seg.lower[inner], seg.positions[inner]])
    above = variational.order_check([seg.positions[inner], seg.upper[inner]])
    assert below.ok and above.ok


def test_heteroclinic_tail_decay_matches_monodromy(k2):
    from staircase_lab import hyperbolicity

    seg = flatness.heteroclinic_segment(k2, 0, 1, 1, 20)
    cfg = variational.minimize_periodic(k2, 0, 1)
    lam = hyperbolicity.monodromy(k2, cfg).lyapunov
    mid = len(seg.positions) // 2
    # the tail approaching the lower orbit keeps absolute resolution; the
    # upper tail saturates at ulp(1) long before offset 10
    d5, d10 = seg.tail_deviations[mid - 5], seg.tail_deviations[mid - 10]
    assert d10 > 0.0
    assert d5 / d10 >= math.exp(5.0 * lam) / 2.0
    C0, lam_hat = flatness.fit_tail_decay(seg)
    assert lam_hat > 0.0
    assert abs(lam_hat - lam) < 0.15 * lam
    assert C0 > 0.0


def test_heteroclinic_doubling_T_is_stable(k2, k2_seg8):
    seg16 = flatness.heteroclinic_segment(k2, 0, 1, 1, 16)
    assert abs(seg16.center - k2_seg8.center) < 1e-8
    m8 = len(k2_seg8.positions) // 2
    m16 = len(seg16.positions) // 2
    for s in range(-2, 3):
        assert abs(seg16.positions[m16 + s] - k2_seg8.positions[m8 + s]) < 1e-8


def test_heteroclinic_both_gaps_at_q2(k2):
    # T=2 keeps every free-site deviation above the order_check tolerance;
    # wider windows merge into the asymptotes below 1e-12
    segs = [flatness.heteroclinic_segment(k2, 1, 2, g, 2) for g in (1, 2)]
    for seg in segs:
        assert seg.residual_sup < 1e-10
        inner = slice(2, -2)
        assert variational.order_check([seg.lower[inner], seg.positions[inner]]).ok
        assert variational.order_check([seg.positions[inner], seg.upper[inner]]).ok
    # the two gaps of 1/2 are not congruent, so the crossings cost differently
    assert abs(segs[0].action - segs[1].action) > 1e-3


def test_heteroclinic_argument_validation(k2):
    with pytest.raises(ValueError):
        flatness.heteroclinic_segment(k2, 1, 2, 0, 4)
    with pytest.raises(ValueError):
        flatness.heteroclinic_segment(k2, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        flatness.heteroclinic_segment(k2, 0, 1, 1, 1)


def test_fit_tail_decay_needs_points(k2):
    seg = flatness.heteroclinic_segment(k2, 0, 1, 1, 2)
    with pytest.raises(ValueError):
        flatness.fit_tail_decay(seg)


# ---- translate ladder -------------------------------------------------------


def test_translate_ladder_ordering(k2):
    ladder = flatness.TranslateLadder(k2, 1, 2)
    for i in (-3, 0, 1, 4):
        vals = [ladder.value(r, i) for r in range(3)]
        assert vals[0] < vals[1] < vals[2]
        assert ladder.value(2, i) == ladder.value(0, i) + 1.0
        assert ladder.value(0, i + 2) == ladder.value(0, i) + 1.0


LADDER_MODELS = {
    "fk": frenkel_kontorova(2.0),
    "fourier": GeneratingModel(
        family="fourier-potential", a=0.8, harmonics=((1, -0.3, 0.1), (2, 0.05, -0.04))
    ),
}


@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (1, 3), (2, 5), (3, 8)])
@pytest.mark.parametrize("name", list(LADDER_MODELS))
def test_translate_ladder_matches_per_site_lift(name, p, q):
    ladder = flatness.TranslateLadder(LADDER_MODELS[name], p, q)
    sites = np.arange(-3 * q - 2, 3 * q + 3)
    for rung in range(2 * q + 1):
        want = np.array([ladder_value_per_site(ladder, rung, int(i)) for i in sites])
        got = ladder.values(rung, sites)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for i in sites:
            value = ladder.value(rung, int(i))
            assert isinstance(value, float)
            assert np.float64(value).tobytes() == want[i - sites[0]].tobytes()


# ---- concatenated loops -----------------------------------------------------


def test_loop_rotation_is_exact(k2):
    for p, q, T in [(0, 1, 2), (0, 1, 4), (1, 2, 2), (1, 2, 4)]:
        loop = flatness.concatenate_loop(k2, p, q, T)
        assert loop.rotation == Fraction(p, q) + Fraction(1, 2 * T * q)
        assert len(loop.positions) == 2 * T * q + 1
        advance = loop.positions[-1] - loop.positions[0]
        assert advance == float(2 * T * p + 1)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 5)])
def test_loop_junctions_sit_on_asymptotes(k2, p, q):
    loop = flatness.concatenate_loop(k2, p, q, 2)
    ladder = flatness.TranslateLadder(k2, p, q)
    T = 2
    for k in range(1, q + 1):
        t_left = 2 * (k - 1) * T - T
        idx = t_left - loop.sites[0]
        assert abs(loop.positions[idx] - ladder.value(k - 1, t_left)) < 1e-12
    assert abs(loop.positions[-1] - ladder.value(q, loop.sites[-1])) < 1e-12


@pytest.mark.parametrize("name", list(LADDER_MODELS))
def test_gap_images_sit_on_their_rungs(name):
    # every image w(i + s + a*q) + n - a*p of the gap-1 segment joins rungs
    # k-1 and k where the segment itself sits on rungs 0 and 1
    p, q = 2, 5
    loop = flatness.concatenate_loop(LADDER_MODELS[name], p, q, 4)
    seg, ladder = loop.segment, loop.ladder
    tail = seg.tail_deviations <= 1e-13
    left = tail & (seg.sites < seg.center)
    right = tail & (seg.sites > seg.center)
    assert left[:2].all() and right[-2:].all()
    for k in range(1, q + 1):
        s0, n0 = ladder.gap_image(k)
        for a in (-1, 0, 1):
            sites = seg.sites - (s0 + a * q)
            image = seg.positions + (n0 - a * p)
            lower = ladder.values(k - 1, sites[left])
            upper = ladder.values(k, sites[right])
            assert np.max(np.abs(image[left] - lower)) < 1e-12, (k, a)
            assert np.max(np.abs(image[right] - upper)) < 1e-12, (k, a)


def test_loop_positions_do_not_follow_the_seed(bench, digest_tool):
    fk = parse_model(bench.MODEL_TEXT)
    cases = [(fk, p, q) for p, q in digest_tool.LOOP_RATIONALS]
    cases.append((parse_model(digest_tool.FOURIER_MODEL), 1, 2))
    for model, p, q in cases:
        for T in flatness.loop_t_grid(q):
            a, b = (flatness.concatenate_loop(model, p, q, T, SolveOptions(seed=seed))
                    for seed in (0, 3))
            assert np.max(np.abs(a.positions - b.positions)) < 1e-12, (p, q, T)


def per_gap_oracle_cases():
    fk = [("fk", p, q) for p, q in [(0, 1), (1, 2), (1, 3), (2, 5)]]
    fourier = [("fourier", p, q) for p, q in [(0, 1), (1, 2), (1, 3)]]
    return [(*case, seed) for case in fk + fourier for seed in (0, 3)]


@pytest.mark.parametrize("name,p,q,seed", per_gap_oracle_cases())
def test_loops_match_the_per_gap_oracle(name, p, q, seed, k2, digest_tool):
    # FK loops agree to rounding; on the fourier model the mapped pieces may
    # sit on a wider window (a slightly weaker bound at T = 2) or pick a
    # cheaper translate (a better bound), within 1e-8
    model = k2 if name == "fk" else parse_model(digest_tool.FOURIER_MODEL)
    opts = SolveOptions(seed=seed)
    config = variational.minimize_periodic(model, p, q, opts)
    curve = flatness.flatness_curve(model, p, q, options=opts)
    for T, zu in zip(curve.T_values, curve.zeta_upper_bounds):
        want = concatenate_loop_per_gap(model, p, q, T, opts, config=config).action_per_site
        got = flatness.concatenate_loop(model, p, q, T, opts, config=config).action_per_site
        for value in (got, zu):
            if name == "fk":
                assert abs(value - want) <= 1e-14 * abs(want), (T, value, want)
            else:
                assert value <= want + 1e-8 * max(1.0, abs(want)), (T, value, want)


def test_loop_per_site_action_bounds_beta(k2, k2_table):
    for p, q in [(0, 1), (1, 2)]:
        for T in (4, 8):
            loop = flatness.concatenate_loop(k2, p, q, T)
            br = k2_table.beta_frac(loop.rotation)
            assert loop.action_per_site >= br - 1e-9


def test_loop_deformation_cost_decays(k2):
    from staircase_lab import hyperbolicity

    cfg = variational.minimize_periodic(k2, 0, 1)
    lam = hyperbolicity.monodromy(k2, cfg).lyapunov
    Ts = [1, 2, 3]
    costs = [flatness.concatenate_loop(k2, 0, 1, T).deformation_cost for T in Ts]
    assert all(c > 0.0 for c in costs)
    assert costs[0] > costs[1] > costs[2]
    slope = np.polyfit(Ts, np.log(costs), 1)[0]
    assert -4.0 * lam < slope < -lam / 4.0


def test_loop_site_cap(k2):
    with pytest.raises(ValueError):
        flatness.concatenate_loop(k2, 0, 1, 3000)


# ---- action with cohomology -------------------------------------------------


def test_action_c_vanishes_on_minimizer_period(k2, k2_table):
    for p, q in [(0, 1), (1, 2), (2, 5)]:
        _, c_plus, _ = k2_table.refine_until(p, q, width=1e-7, max_depth=24)
        beta = k2_table.beta(p, q)
        alpha = c_plus * p / q - beta
        cfg = variational.minimize_periodic(k2, p, q)
        period = np.append(cfg.positions, cfg.positions[0] + p)
        val = flatness.action_c(k2, period, c_plus, alpha)
        assert abs(val) < 1e-9


def test_action_c_positive_outside_locking(k2, k2_table):
    p, q = 1, 2
    cm, cp, _ = k2_table.refine_until(p, q, width=1e-7, max_depth=24)
    beta = k2_table.beta(p, q)
    c = cp + 0.2
    # alpha from the Fenchel envelope over a convex sample of rotation numbers
    for pp, qq in k2_table.rationals(8):
        k2_table.beta(pp, qq)
    stair = legendre(k2_table, [c])
    alpha = stair.alpha_samples[0][1]
    cfg = variational.minimize_periodic(k2, p, q)
    period = np.append(cfg.positions, cfg.positions[0] + p)
    val = flatness.action_c(k2, period, c, alpha)
    expected = q * (beta + alpha - c * p / q)
    assert val > 1e-6
    assert abs(val - expected) < 1e-9


def test_action_c_heteroclinic_truncation_decreases(k2, k2_table):
    _, c_plus, _ = k2_table.refine_until(0, 1, width=1e-12, max_depth=40)
    beta = k2_table.beta(0, 1)
    alpha = -beta
    vals = []
    for T in (4, 8):
        seg = flatness.heteroclinic_segment(k2, 0, 1, 1, T)
        vals.append(abs(flatness.action_c(k2, seg.positions, c_plus, alpha)))
    assert vals[0] < 1e-4
    assert vals[1] < vals[0]


def test_action_c_needs_two_sites(k2):
    with pytest.raises(ValueError):
        flatness.action_c(k2, [0.5], 0.1, 0.0)


# ---- flatness curve ---------------------------------------------------------


def test_curve_k0_is_quadratic():
    m0 = frenkel_kontorova(0.0)
    curve = flatness.flatness_curve(m0, 0, 1, T_list=[2, 4, 8])
    for d, u in curve.samples:
        assert u == pytest.approx(d * d / 2.0, abs=1e-14)
    assert curve.verdict == "polynomial"
    assert all(math.isnan(z) for z in curve.zeta_upper_bounds)
    assert curve.lambda_monodromy == pytest.approx(0.0, abs=1e-8)


def test_curve_k2_exponential(k2_curve01):
    curve = k2_curve01
    assert curve.verdict == "exponential"
    assert curve.bound_verdict
    assert curve.lambda_fit > 0.0
    # measured prior to freezing: lambda_fit/lyapunov settles near 4, the
    # defect-interaction rate across a 2T-site spacing
    ratio = curve.lambda_fit / curve.lambda_monodromy
    assert 3.5 < ratio < 4.5


def test_curve_excludes_subnoise_samples(k2_curve01):
    curve = k2_curve01
    assert curve.included[0] and curve.included[1] and curve.included[2]
    assert not curve.included[3]
    assert all(u > -1e-9 for u in curve.u_values)


def test_curve_u_over_delta_monotone(k2_curve01):
    m0 = frenkel_kontorova(0.0)
    for curve in (k2_curve01, flatness.flatness_curve(m0, 0, 1, T_list=[2, 4, 8])):
        pairs = sorted(curve.samples)
        quot = [u / d for d, u in pairs]
        for a, b in zip(quot, quot[1:]):
            assert b >= a - 1e-15


def test_curve_zeta_bounds_beta(k2_curve01, k2_table):
    curve = k2_curve01
    for T, zu in zip(curve.T_values, curve.zeta_upper_bounds):
        if math.isnan(zu):
            continue
        r = Fraction(2 * T * curve.p + 1, 2 * T * curve.q)
        assert zu >= k2_table.beta_frac(r) - 1e-9


def test_curve_default_grid():
    m0 = frenkel_kontorova(0.0)
    curve = flatness.flatness_curve(m0, 0, 1)
    assert curve.T_values == [2, 4, 8, 16, 32]


def test_curve_negative_u_raises():
    m0 = frenkel_kontorova(0.0)
    bad = BetaTable.from_function(
        lambda r: r * r / 2.0, derivative=lambda r: (r + 0.5, r + 0.5)
    )
    with pytest.raises(NegativeU):
        flatness.flatness_curve(m0, 0, 1, T_list=[2, 4], table=bad)


def test_curve_validates_T_grid(k2, k2_table):
    with pytest.raises(ValueError):
        flatness.flatness_curve(k2, 0, 1, T_list=[0, 2], table=k2_table)


def recording_eigvalsh(monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kwargs:
                        sizes.append(len(a)) or eigvalsh(a, *args, **kwargs))
    return sizes


@pytest.mark.parametrize("k,p,q", [(2.0, 0, 1), (2.0, 1, 2), (2.0, 1, 3), (2.0, 2, 5),
                                   (0.0, 0, 1)])
def test_curve_reads_one_spectrum(k, p, q, monkeypatch):
    # the translate ladder's phonon-gap gate is an O(q) factorization; only
    # at k = 0, where the gap is below PHONON_GAP_FLOOR and the curve has no
    # loops, is one dense spectrum read, for the DegenerateFamily message
    sizes = recording_eigvalsh(monkeypatch)
    curve = flatness.flatness_curve(frenkel_kontorova(k), p, q, T_list=[2, 4])
    assert sizes == ([q] if k == 0.0 else [])
    zeta = curve.zeta_upper_bounds
    if k == 0.0:
        assert all(math.isnan(z) for z in zeta) and curve.verdict == "polynomial"
    else:
        assert all(math.isfinite(z) for z in zeta) and curve.lambda_monodromy > 0.0


@pytest.mark.parametrize("p,q", [(0, 1), (1, 3)])
def test_hyperbolic_loops_and_segments_read_no_spectrum(k2, p, q, monkeypatch):
    sizes = recording_eigvalsh(monkeypatch)
    flatness.concatenate_loop(k2, p, q, 2)
    flatness.heteroclinic_segment(k2, p, q, 1, 2)
    assert sizes == []


DEGENERATE_MESSAGES = {  # the dense-gap texts of the eigvalsh gate this one replaced
    (0, 1): "phonon gap 0.000e+00 below 1e-06 at 0/1: translates form a continuum, "
            "no gaps to cross",
    (2, 5): "phonon gap 8.327e-17 below 1e-06 at 2/5: translates form a continuum, "
            "no gaps to cross",
}


@pytest.mark.parametrize("p,q", sorted(DEGENERATE_MESSAGES))
def test_degenerate_family_message_is_unchanged(p, q):
    m0 = frenkel_kontorova(0.0)
    for build in (lambda: flatness.TranslateLadder(m0, p, q),
                  lambda: flatness.heteroclinic_segment(m0, p, q, 1, 4),
                  lambda: flatness.concatenate_loop(m0, p, q, 4)):
        with pytest.raises(DegenerateFamily) as err:
            build()
        assert str(err.value) == DEGENERATE_MESSAGES[(p, q)]


def test_curve_without_table_solves_with_the_given_options(k2, monkeypatch):
    real_beta, real_min = staircase.beta_at, variational.minimize_periodic
    seen = []

    def beta_at(model, p, q, cache=None, options=None, pooled=None):
        seen.append(("beta_at", options))
        return real_beta(model, p, q, cache=cache, options=options, pooled=pooled)

    def minimize_periodic(model, p, q, options=None):
        seen.append(("minimize_periodic", options))
        return real_min(model, p, q, options)

    monkeypatch.setattr(staircase, "beta_at", beta_at)
    monkeypatch.setattr(variational, "minimize_periodic", minimize_periodic)
    opts = SolveOptions(seed=5)
    flatness.flatness_curve(k2, 0, 1, T_list=[2], options=opts)
    assert {name for name, _ in seen} == {"beta_at", "minimize_periodic"}
    assert all(options is opts for _, options in seen)
