import json
import math
import warnings

import numpy as np
import pytest

from staircase_lab.cli import main
from staircase_lab.hyperbolicity import (
    full_report,
    monodromy,
    phonon_gap,
    phonon_gap_exceeds,
    pn_barrier,
    second_variation_spectrum,
    transfer_matrices,
)
from staircase_lab import flatness, parse_model, solvers
from staircase_lab.model import frenkel_kontorova
from staircase_lab.solvers import PeriodicProblem, SolveOptions, tridiag_dense
from staircase_lab.variational import minimize_periodic, minimize_periodic_many

from oracles import monodromy_unscaled, pn_barrier_oracle


def test_transfer_matrices_integrable():
    m = frenkel_kontorova(0.0)
    cfg = minimize_periodic(m, 1, 3)
    for mat in transfer_matrices(m, cfg):
        assert np.allclose(mat, [[2.0, -1.0], [1.0, 0.0]], atol=1e-12)


def test_transfer_matrix_determinants_telescope():
    m = frenkel_kontorova(1.0)
    cfg = minimize_periodic(m, 1, 5)
    dets = [float(np.linalg.det(mat)) for mat in transfer_matrices(m, cfg)]
    assert np.prod(dets) == pytest.approx(1.0, abs=1e-12)


def test_transfer_matrix_fixed_point_closed_form():
    m = frenkel_kontorova(2.0)
    cfg = minimize_periodic(m, 0, 1)
    (mat,) = transfer_matrices(m, cfg)
    assert np.allclose(mat, [[2.0 + 8.0 * math.pi**2, -1.0], [1.0, 0.0]], atol=1e-9)


def test_transfer_matrices_and_spectrum_read_the_solvers_hessian_parts():
    # one second variation per orbit: the one the solver builds and the PSD
    # certificate factorizes, bit for bit, off[-1] the corner
    m = frenkel_kontorova(2.0)
    for cfg in minimize_periodic_many(m, [(13, 34), (55, 89)]).values():
        prob = PeriodicProblem(m, cfg.p, cfg.q)
        diag, off = prob.hessian_parts(prob.from_lift(cfg.positions))
        mats = transfer_matrices(m, cfg)
        assert len(mats) == cfg.q
        for i, mat in enumerate(mats):
            want = [[-diag[i] / off[i], -off[i - 1] / off[i]], [1.0, 0.0]]
            assert np.array_equal(mat, want)
        want = np.linalg.eigvalsh(tridiag_dense(diag, off))
        assert np.array_equal(second_variation_spectrum(m, cfg), want)


def test_monodromy_integrable_parabolic():
    m = frenkel_kontorova(0.0)
    rep = monodromy(m, minimize_periodic(m, 0, 1))
    assert rep.trace == pytest.approx(2.0, abs=1e-12)
    assert rep.lyapunov == 0.0


def test_monodromy_fixed_point_closed_form():
    m = frenkel_kontorova(2.0)
    rep = monodromy(m, minimize_periodic(m, 0, 1))
    T = 2.0 + 8.0 * math.pi**2
    assert rep.trace == pytest.approx(T, abs=1e-9)
    lam = math.log((T + math.sqrt(T * T - 4.0)) / 2.0)
    assert rep.lyapunov == pytest.approx(lam, abs=1e-9)


def test_monodromy_determinant_one():
    for k in (0.5, 1.0, 2.0):
        m = frenkel_kontorova(k)
        for p, q in [(0, 1), (1, 2), (1, 3), (2, 5), (3, 7), (3, 8)]:
            rep = monodromy(m, minimize_periodic(m, p, q))
            assert abs(rep.det - 1.0) < 1e-8
            prod = rep.eigenvalues[0] * rep.eigenvalues[1]
            assert prod.real == pytest.approx(rep.det, rel=1e-9)


@pytest.mark.parametrize("k", [0.8, 2.0])
def test_monodromy_matches_the_unscaled_product_up_to_q_34(k):
    # at FK k = 2 the product reaches 2**216 at 13/34: below the rescale
    # threshold, so every report is the unscaled product's, bit for bit
    m = frenkel_kontorova(k)
    rationals = [(p, q) for q in range(1, 35) for p in range(q) if math.gcd(p, q) == 1]
    for cfg in minimize_periodic_many(m, rationals).values():
        assert repr(monodromy(m, cfg)) == repr(monodromy_unscaled(m, cfg))


def test_monodromy_lyapunov_finite_past_float_overflow():
    # the unscaled product reads lyapunov inf at 55/89 and trace nan at 144/233
    m = frenkel_kontorova(2.0)
    mid = monodromy(m, minimize_periodic(m, 55, 89))
    far = monodromy(m, minimize_periodic(m, 144, 233))
    assert math.isfinite(mid.trace) and math.isfinite(mid.lyapunov)
    assert mid.eigenvalues[0].real == pytest.approx(mid.trace, rel=1e-12)
    assert far.trace == math.inf and far.eigenvalues[0].real == math.inf
    assert math.isfinite(far.lyapunov) and far.lyapunov > 4.0
    assert abs(far.lyapunov - mid.lyapunov) < 1e-6


def test_cli_hyperbolicity_past_float_overflow_raises_no_warning(tmp_path, capsys):
    model = tmp_path / "fk.model"
    model.write_text("[model]\nfamily = frenkel-kontorova\nk = 2.0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["hyperbolicity", "-p", "144", "-q", "233", "--model", str(model)])
    assert rc == 0 and caught == []
    record = json.loads(capsys.readouterr().out)
    assert record["trace"] is None  # inf renders as null
    assert math.isfinite(record["lyapunov"]) and record["lyapunov"] > 4.0


def test_second_variation_integrable_circulant():
    m = frenkel_kontorova(0.0)
    for q in (3, 5, 8):
        cfg = minimize_periodic(m, 1, q)
        spec = second_variation_spectrum(m, cfg)
        expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(q) / q))
        assert np.abs(spec - expected).max() < 1e-9
        assert abs(spec[0]) < 1e-12  # slide mode


def test_second_variation_fixed_point():
    m = frenkel_kontorova(2.0)
    spec = second_variation_spectrum(m, minimize_periodic(m, 0, 1))
    assert spec[0] == pytest.approx(8.0 * math.pi**2, abs=1e-9)


def test_minimizer_spectrum_nonnegative():
    for k, p, q in [(0.5, 1, 4), (1.0, 2, 5), (2.0, 1, 3)]:
        m = frenkel_kontorova(k)
        spec = second_variation_spectrum(m, minimize_periodic(m, p, q))
        assert spec[0] > -1e-8


def test_gap_trace_lyapunov_consistency():
    # one rotation number, coupling swept across the hyperbolic range
    for k in (0.25, 0.5, 1.0, 2.0):
        m = frenkel_kontorova(k)
        cfg = minimize_periodic(m, 1, 2)
        rep = monodromy(m, cfg)
        gap = phonon_gap(m, cfg)
        hyperbolic = rep.lyapunov > 0.0
        assert hyperbolic == (abs(rep.trace) > 2.0)
        assert hyperbolic == (gap > 1e-6)


def test_pn_barrier_integrable_zero():
    assert pn_barrier(frenkel_kontorova(0.0), 1, 2, 16) < 1e-10


def test_pn_barrier_single_site():
    for k in (0.5, 2.0):
        b = pn_barrier(frenkel_kontorova(k), 0, 1, 64)
        # E(s) = -k cos(2 pi s) sampled on the grid containing both extremes
        assert b == pytest.approx(2.0 * k, abs=1e-12)


def test_pn_barrier_matches_grid_oracle():
    m = frenkel_kontorova(0.5)
    tool = pn_barrier(m, 1, 2, 16)
    oracle = pn_barrier_oracle(m, 1, 2, 16)
    assert tool == pytest.approx(oracle, abs=1e-5)


def test_pn_barrier_increasing_in_k():
    barriers = [pn_barrier(frenkel_kontorova(k), 0, 1, 32) for k in (0.25, 0.5, 1.0, 2.0)]
    assert all(b2 > b1 for b1, b2 in zip(barriers, barriers[1:]))


def test_pn_barrier_validates_input():
    with pytest.raises(ValueError):
        pn_barrier(frenkel_kontorova(1.0), 0, 1, 8)
    with pytest.raises(ValueError):
        pn_barrier(frenkel_kontorova(1.0), 2, 4, 16)


def test_full_report_fields():
    m = frenkel_kontorova(2.0)
    rep = full_report(m, minimize_periodic(m, 1, 2), sweep_n=16)
    assert rep.phonon_gap > 1e-6
    assert rep.pn_barrier > 0.0
    assert abs(rep.det - 1.0) < 1e-12
    assert rep.spectrum is not None and len(rep.spectrum) == 2


def test_full_report_builds_one_second_variation(monkeypatch):
    # its monodromy and spectrum are the separate calls' values, bit for bit,
    # read off one hessian_parts pass
    m = frenkel_kontorova(2.0)
    configs = [minimize_periodic(m, 0, 1), minimize_periodic(m, 1, 2),
               *minimize_periodic_many(m, [(13, 34), (55, 89)]).values()]
    calls = []
    parts = PeriodicProblem.hessian_parts
    monkeypatch.setattr(PeriodicProblem, "hessian_parts",
                        lambda self, u: calls.append(self.q) or parts(self, u))
    for cfg in configs:
        calls.clear()
        rep = full_report(m, cfg, with_barrier=False)
        assert calls == [cfg.q]
        mono, spec = monodromy(m, cfg), second_variation_spectrum(m, cfg)
        assert (rep.trace, rep.det, rep.lyapunov) == (mono.trace, mono.det, mono.lyapunov)
        assert rep.eigenvalues == mono.eigenvalues
        assert np.array_equal(rep.spectrum, spec) and rep.phonon_gap == spec[0]


def test_full_report_seeds_its_barrier(monkeypatch):
    m = frenkel_kontorova(2.0)
    opts = SolveOptions(seed=3)
    cfg = minimize_periodic(m, 1, 2, opts)
    seeds = []
    best = solvers.best_minimizer
    monkeypatch.setattr(solvers, "best_minimizer", lambda model, p, q, o, *rest:
                        seeds.append(o.seed) or best(model, p, q, o, *rest))
    rep = full_report(m, cfg, options=opts)
    assert seeds == [3]
    assert rep.pn_barrier == pn_barrier(m, 1, 2, options=opts)


GOLDEN = [(0, 1), (1, 1)] + [(a, b) for a, b in zip(
    [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610],
    [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987])]
LOOP_RATIONALS = sorted({(r.numerator, r.denominator)
                         for p, q in ((0, 1), (1, 2), (1, 3), (2, 5))
                         for T in flatness.loop_t_grid(q)
                         for r in [flatness.loop_rational(p, q, T)]})


@pytest.mark.parametrize("name", ["fk-0.0", "fk-0.01", "fk-0.05", "fk-0.5", "fk-2.0", "fourier"])
def test_phonon_gap_exceeds_the_floor_as_the_dense_gap_does(name, digest_tool):
    """The O(q) test against the dense gap wherever the two are apart by more
    than 1e-12 of the scale, at the 20 loop rationals and the golden
    convergents up to 610/987."""
    model = (parse_model(digest_tool.FOURIER_MODEL) if name == "fourier"
             else frenkel_kontorova(float(name[3:])))
    floor = flatness.PHONON_GAP_FLOOR
    assert len(LOOP_RATIONALS) == 20
    checked = 0
    for cfg in minimize_periodic_many(model, sorted(set(GOLDEN + LOOP_RATIONALS))).values():
        if isinstance(cfg, Exception):
            continue
        prob = PeriodicProblem(model, cfg.p, cfg.q)
        diag, _ = prob.hessian_parts(prob.from_lift(cfg.positions))
        gap = phonon_gap(model, cfg)
        if abs(gap - floor) > 1e-12 * max(1.0, float(np.abs(diag).max())):
            assert phonon_gap_exceeds(model, cfg, floor) == (gap > floor), (cfg.p, cfg.q, gap)
            checked += 1
    assert checked >= 30
