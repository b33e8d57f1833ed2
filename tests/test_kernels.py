"""The O(q) solver kernels against the dense and all-shifts oracles they replaced."""

import dataclasses

import numpy as np
import pytest

from staircase_lab import flatness, scan
from staircase_lab.model import GeneratingModel, frenkel_kontorova
from staircase_lab.solvers import (
    PeriodicProblem,
    SolveOptions,
    best_minimizer,
    certify_psd_periodic_u,
    certify_psd_segment,
    class_distance,
    solve_cyclic_tridiag_sym,
    solve_tridiag_sym,
)

from oracles import (
    banded_cyclic_solve,
    banded_solve,
    canonical_shift_tuples,
    cholesky_psd_periodic,
    cholesky_psd_segment,
    class_distance_all_shifts,
    dense_tridiag,
    sherman_morrison_solve,
)

QS = [1, 2, 3, 4, 5, 13, 200, 233, 1000]
P_OF = {1: 0, 2: 1, 3: 1, 4: 1, 5: 2, 13: 5, 200: 77, 233: 89, 1000: 381}
MODELS = {
    "fk": frenkel_kontorova(2.0),
    "fourier": GeneratingModel(
        family="fourier-potential", a=0.8, harmonics=((1, -0.3, 0.1), (2, 0.05, -0.04))
    ),
}


class ShiftedModel:
    """A model whose second variation is the base one plus t * identity, in
    d11h and in the V'' of the fused potential_d12 that the solvers' local
    kernels read."""

    def __init__(self, base, t):
        self.base = base
        self.t = t

    def potential_d12(self, x):
        d1, d2 = self.base.potential_d12(x)
        return d1, d2 + self.t

    def d11h(self, x, xp):
        return self.base.d11h(x, xp) + self.t

    def __getattr__(self, name):
        return getattr(self.base, name)


def configurations(q, seed):
    """A displacement field u near the integrable seed and one far from it."""
    rng = np.random.default_rng(seed)
    return [0.05 * rng.standard_normal(q), rng.uniform(-0.5, 0.5, q)]


def scale_of(diag):
    return max(1.0, float(np.abs(diag).max()))


# ---- certificates -------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(MODELS))
@pytest.mark.parametrize("q", QS)
def test_periodic_certificate_matches_dense_cholesky(family, q):
    model, p = MODELS[family], P_OF[q]
    for u in configurations(q, seed=q):
        prob = PeriodicProblem(model, p, q)
        assert certify_psd_periodic_u(prob, u) == cholesky_psd_periodic(prob, u)
        H = dense_tridiag(*prob.hessian_parts(u))
        t0 = -float(np.linalg.eigvalsh(H)[0])
        s0 = scale_of(np.diag(H) + t0)
        # eps in units of the shifted scale: clear margins, the bare zero
        # mode (definite only through the shift), and half a shift inside and
        # two shifts past the certificate's threshold
        for eps, expect in [(1e-3, True), (0.0, True), (-0.5e-8, True),
                            (-3e-8, False), (-1e-3, False)]:
            shifted = PeriodicProblem(ShiftedModel(model, t0 + eps * s0), p, q)
            got = certify_psd_periodic_u(shifted, u)
            assert got == cholesky_psd_periodic(shifted, u) == expect, (eps, q)


@pytest.mark.parametrize("family", sorted(MODELS))
@pytest.mark.parametrize("q", QS)
def test_segment_certificate_matches_dense_cholesky(family, q):
    model = MODELS[family]
    rng = np.random.default_rng(100 + q)
    n = q + 4
    for w in (np.arange(n) * 0.37 + 0.02 * rng.standard_normal(n),
              np.sort(rng.uniform(0.0, 0.37 * n, n))):
        for shift in (1e-8, 1e-12):
            assert certify_psd_segment(model, w, 2, 2, shift) == cholesky_psd_segment(
                model, w, 2, 2, shift)
        diag = model.d11h(w[2:-2], w[3:-1]) + model.d22h(w[1:-3], w[2:-2])
        H = dense_tridiag(diag, np.broadcast_to(model.d12h(w[2:-3], w[3:-2]), (q - 1,)))
        t0 = -float(np.linalg.eigvalsh(H)[0])
        s0 = scale_of(diag + t0)
        for eps, expect in [(1e-3, True), (-0.5e-8, True), (-3e-8, False), (-1e-3, False)]:
            shifted = ShiftedModel(model, t0 + eps * s0)
            got = certify_psd_segment(shifted, w, 2, 2)
            assert got == cholesky_psd_segment(shifted, w, 2, 2) == expect, (eps, q)


def test_certificate_on_solved_minimizers():
    opts = SolveOptions(seed=3)
    for model in MODELS.values():
        for p, q in [(1, 2), (1, 3), (2, 5), (5, 13)]:
            best = best_minimizer(model, p, q, opts)
            prob = PeriodicProblem(model, p, q)
            u = prob.from_lift(best.positions)
            assert certify_psd_periodic_u(prob, u) and cholesky_psd_periodic(prob, u)


# ---- solves -------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(MODELS))
@pytest.mark.parametrize("q", QS)
def test_solves_match_solve_banded(family, q):
    model, p = MODELS[family], P_OF[q]
    rng = np.random.default_rng(200 + q)
    for u in configurations(q, seed=q):
        diag, off = PeriodicProblem(model, p, q).hessian_parts(u)
        rhs = rng.standard_normal(q)
        open_off = off[: q - 1]
        got = solve_tridiag_sym(diag, open_off, rhs)
        want = banded_solve(diag, open_off, rhs)
        assert (got is None) == (want is None)
        if got is not None:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        if q < 3:
            # the couplings fold onto one another: no cyclic solve
            with pytest.raises(ValueError):
                solve_cyclic_tridiag_sym(diag, open_off, float(off[-1]), rhs)
            continue
        got = solve_cyclic_tridiag_sym(diag, open_off, float(off[-1]), rhs)
        want = banded_cyclic_solve(diag, open_off, float(off[-1]), rhs)
        assert (got is None) == (want is None)
        if got is not None:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            H = dense_tridiag(diag, off)
            assert np.abs(H @ got - rhs).max() < 1e-8 * np.abs(H).max() * np.abs(got).max()


@pytest.mark.parametrize("family", sorted(MODELS))
@pytest.mark.parametrize("q", [q for q in QS if q >= 3])
def test_cyclic_solve_matches_the_scalar_sherman_morrison(family, q):
    model, p = MODELS[family], P_OF[q]
    rng = np.random.default_rng(300 + q)
    for u in configurations(q, seed=q):
        diag, off = PeriodicProblem(model, p, q).hessian_parts(u)
        for d in (diag, np.concatenate(([0.0], diag[1:]))):  # gamma = 1 too
            rhs = rng.standard_normal(q)
            got = solve_cyclic_tridiag_sym(d, off[:-1], float(off[-1]), rhs)
            want = sherman_morrison_solve(d, off[:-1], float(off[-1]), rhs)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.tobytes() == want.tobytes()
    # the singular cyclic Laplacian, whose denominator is 0 at small q: no
    # division by it
    lap, lap_off = np.full(q, 2.0), np.full(q - 1, -1.0)
    with np.errstate(all="raise"):
        got = solve_cyclic_tridiag_sym(lap, lap_off, -1.0, np.ones(q))
    want = sherman_morrison_solve(lap, lap_off, -1.0, np.ones(q))
    assert (got is None) == (want is None) and (q > 13 or want is None)
    if want is not None:
        assert got.tobytes() == want.tobytes()


def test_singular_solves_fail_like_solve_banded():
    for n in (1, 2, 5):
        diag = np.zeros(n)
        off = np.zeros(n - 1)
        with np.errstate(divide="ignore"):  # n = 1 divides by the zero pivot
            assert solve_tridiag_sym(diag, off, np.ones(n)) is None
            assert banded_solve(diag, off, np.ones(n)) is None
    # singular Laplacian: a cyclic solve through the zero mode must fail
    diag, off = np.full(6, 2.0), np.full(5, -1.0)
    assert solve_cyclic_tridiag_sym(diag, off, -1.0, np.ones(6)) is None
    assert banded_cyclic_solve(diag, off, -1.0, np.ones(6)) is None


# ---- class dedup --------------------------------------------------------------


def same_class(x, p, q, shift, translate):
    """The lift period of x re-indexed from site `shift` and translated."""
    ext = np.concatenate([x, x + p])
    return ext[shift : shift + q] + translate


@pytest.mark.parametrize("q", QS)
def test_class_distance_matches_all_shifts(q):
    p = P_OF[q]
    rng = np.random.default_rng(300 + q)
    tol = 1e-8
    x = np.arange(q) * (p / q) + 0.3 / q + 0.1 / q * rng.uniform(-1, 1, q)
    pairs = []
    for shift in {0, q // 2, q - 1}:
        y = same_class(x, p, q, shift, float(rng.integers(-3, 4)))
        pairs.append((y, True))
        for bump, expect in [(0.5 * tol, True), (2.0 * tol, False), (0.3, False)]:
            z = y.copy()
            z[int(rng.integers(q))] += bump
            pairs.append((z, expect))
    pairs.append((x + 0.5 / q, False))
    for y, expect in pairs:
        got = class_distance(x, y, q, tol)
        want = class_distance_all_shifts(x, y, q)
        assert (got <= tol) == (want <= tol) == expect
        if want <= tol:
            assert got == want


@pytest.mark.parametrize("q", QS)
def test_class_distance_across_the_seam(q):
    p = P_OF[q]
    x = np.arange(q) * (p / q)  # site 0 sits exactly at z = 0
    y = x.copy()
    y[0] = -1e-13  # z = 1 - 1e-13: the same class seen from the other side
    y[q // 2] -= 1.0  # and one site translated by a whole period
    for tol in (1e-8, 1e-7):
        got = class_distance(x, y, q, tol)
        want = class_distance_all_shifts(x, y, q)
        assert got <= tol and want <= tol and got == want
        assert class_distance(y, x, q, tol) == class_distance_all_shifts(y, x, q)


def check_class_pairs(x, p, q, seed):
    """class_distance against the all-shifts oracle on pairs built from x: the
    same class under a random shift and translate, a seam pair, and near misses
    with one site bumped by 2 * tol.  Returns the most shifts that passed the
    first (site 0) filter in any pair."""
    rng = np.random.default_rng(seed)
    seam = x - x[0]  # site 0 exactly at z = 0 ...
    across = seam.copy()
    across[0] = -1e-13  # ... and at z = 1 - 1e-13
    pairs = [(x, same_class(x, p, q, int(rng.integers(q)), float(rng.integers(-3, 4))), 0.0),
             (seam, same_class(across, p, q, int(rng.integers(q)), 1.0), 0.0)]
    for tol in (1e-8, 1e-7):
        y = same_class(x, p, q, int(rng.integers(q)), float(rng.integers(-3, 4)))
        z = np.mod(y, 1.0)
        dz = np.abs((z - z[0]) - np.round(z - z[0]))
        for site in {int(rng.integers(q)), int(np.argmax(dz))}:
            miss = y.copy()
            miss[site] += 2.0 * tol
            pairs.append((x, miss, tol))
    most = 0
    for a, b, bump in pairs:
        for x1, x2 in ((a, b), (b, a)):
            want = class_distance_all_shifts(x1, x2, q)
            d0 = np.mod(x1, 1.0) - np.mod(x2[0], 1.0)
            for tol in (1e-8, 1e-7):
                got = class_distance(x1, x2, q, tol)
                assert (got <= tol) == (want <= tol) == (bump < tol), (p, q, tol, bump)
                if want <= tol:
                    assert got == want
                most = max(most, int(np.sum(np.abs(d0 - np.round(d0)) <= tol)))
    return most


FLATNESS_TARGETS = ((0, 1), (1, 2), (1, 3), (2, 5))  # the benchmark's flatness commands
FLATNESS_LOOPS = sorted({flatness.loop_rational(p, q, T) for p, q in FLATNESS_TARGETS
                         for T in flatness.loop_t_grid(q)})


@pytest.mark.parametrize("r", FLATNESS_LOOPS, ids=str)
def test_class_distance_on_hyperbolic_loop_ground_states(r):
    p, q = r.numerator, r.denominator
    x = best_minimizer(MODELS["fk"], p, q, SolveOptions()).positions
    check_class_pairs(x, p, q, q)


def test_class_distance_on_long_scan_ground_states(bench):
    config = scan.parse_scan_config(bench.SCAN_CONFIG.format(seed=0, workers=1))
    long = [(p, q) for p, q in scan.work_list(config) if q >= 800]
    assert long
    for p, q in long:
        x = best_minimizer(config.model, p, q, config.options).positions
        # the many-shift case: most sites share z[0] to within tol
        assert check_class_pairs(x, p, q, q) > q // 10


# ---- canonical shift ---------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3])
def test_canonical_shift_matches_tuple_tie_break_on_scan_solves(tmp_path, bench, seed,
                                                                 monkeypatch):
    seen = []
    original = PeriodicProblem.canonical_shift

    def recording(prob, u):
        seen.append((prob, u.copy()))
        return original(prob, u)

    monkeypatch.setattr(PeriodicProblem, "canonical_shift", recording)
    text = bench.SCAN_CONFIG.format(seed=seed, workers=1)
    config = dataclasses.replace(scan.parse_scan_config(text), out_dir=str(tmp_path / "out"),
                                 cache_dir=str(tmp_path / "cache"))
    assert scan.run_scan(config)[0] == 0
    assert len({(prob.p, prob.q) for prob, _ in seen}) > 80
    for prob, u in seen:
        assert original(prob, u) == canonical_shift_tuples(prob, u)


def tie_cases():
    """(z, expected shift or None): fractional sequences with exact ties."""
    yield np.full(6, 0.3), 0  # every shift gives the same sequence
    # a period-4 pattern: ties at 1, 5 and 9 survive all 12 rolled positions
    yield np.roll(np.tile([0.2, 0.5, 0.2, 0.7], 3), 5), 1
    # 3 is within 1e-12 of the minimum but not equal; 1 and 4 part at k = 1
    yield np.array([0.4, 0.1, 0.9, 0.1 + 5e-13, 0.1, 0.3]), 4
    rng = np.random.default_rng(17)
    for _ in range(300):
        yield rng.integers(0, 4, int(rng.integers(2, 40))) / 8.0, None


def test_canonical_shift_matches_tuple_tie_break_on_exact_ties():
    for z, expected in tie_cases():
        # p = 0 makes the displacements the fractional sequence itself
        prob = PeriodicProblem(MODELS["fk"], 0, len(z))
        assert prob.z(z).tobytes() == z.tobytes()
        got = prob.canonical_shift(z)
        assert got == canonical_shift_tuples(prob, z)
        assert expected is None or got == expected
