"""Independent oracle implementations used by the test suite.

Everything here deliberately avoids the package's solver code paths: finite
differences instead of analytic partials, dense grid search plus coordinate
descent instead of Newton, and direct grid sweeps for barriers.  Slow but
simple, so the main library can be checked against them.  The last section
keeps the dense and all-shifts linear-algebra paths that the solver's O(q)
kernels replaced: dense Cholesky certificates (among them the one
certify_psd_periodic_u made at q <= 2 on its own folded Hessian parts
before it factorized the open chain there too), solve_banded solves, the
class comparison over every index shift and the canonical shift's tie-break
on tuples, and the scalar Sherman-Morrison cyclic solve.  The next section keeps the gradient and Hessian parts of both
problems composed from the model's partials, as the solver composed them
before its fused local kernels, and the two damped-Newton loops that
solvers._damped_newton replaced, line for line, on those parts, each with
the fallback rule the solver follows now and with its former dense one
(every q <= 200 for the periodic loop, every segment for the segment
loop), and the periodic Gershgorin fallback as newton_periodic_u wrote it
inline before solvers.shifted_newton_direction served both problems, plus
_damped_newton as it was before it took a stack of states, stopped on a
repeated state and carried the accepted trial's action over, then
solve_all_starts with each start run alone through newton_periodic_u, as
it ran before it became the one-rational case of the stacked multistart,
next the per-site lift that TranslateLadder used before it was
vectorized, then the series-form model kernels and the np.roll neighbor
differences that the lean kernels and indexed neighbors replaced, then
the cache-record check that parsed the whole record and re-rendered its
payload, before records were checked on the bytes read, and the record
writer that rendered each payload twice, then the loop
builder that solved every gap of every loop on its own, before the loops
became images of one gap-1 segment, and last the monodromy product without
its power-of-two rescaling, which overflows from q = 89 on at FK k = 2.
"""

import hashlib
import json
import math

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import minimize_scalar

from staircase_lab import flatness, hyperbolicity, solvers
from staircase_lab.cache import payload_checksum, render_json
from staircase_lab.staircase import normalize_rational


def fd_partials(model, x, xp, step=1e-5, step2=5e-4):
    """Finite differences of eval_h: (d1, d2, d11, d12, d22).

    First derivatives use plain central differences at `step`.  Second
    derivatives divide by step^2, so at 1e-5 float cancellation alone is
    ~1e-6; they use a larger step with one Richardson halving to keep both
    truncation and roundoff near 1e-8.
    """
    h = model.eval_h
    s = step
    d1 = (h(x + s, xp) - h(x - s, xp)) / (2 * s)
    d2 = (h(x, xp + s) - h(x, xp - s)) / (2 * s)

    def d11_at(t):
        return (h(x + t, xp) - 2 * h(x, xp) + h(x - t, xp)) / (t * t)

    def d22_at(t):
        return (h(x, xp + t) - 2 * h(x, xp) + h(x, xp - t)) / (t * t)

    def d12_at(t):
        return (
            h(x + t, xp + t) - h(x + t, xp - t) - h(x - t, xp + t) + h(x - t, xp - t)
        ) / (4 * t * t)

    def richardson(f):
        return (4.0 * f(step2 / 2) - f(step2)) / 3.0

    return d1, d2, richardson(d11_at), richardson(d12_at), richardson(d22_at)


def _period_action(model, u, p, q):
    """Action of one period for displacement samples u_i = x_i - i*p/q."""
    x = u + np.arange(q) * (p / q)
    nxt = np.roll(x, -1)
    nxt[-1] += p
    return float(np.sum(model.eval_h(x, nxt)))


def brute_force_beta(model, p, q, n_grid=200, sweeps=80):
    """Minimal action per site by grid search plus coordinate descent.

    Grid: each displacement u_i ranges over [-0.5, 0.5) with n_grid points
    (covers every minimizer class since minimal configurations stay within
    half a period of the equally spaced seed for the couplings tested here).
    Polish: cyclic single-coordinate line searches until stationary.
    """
    grid = -0.5 + np.arange(n_grid) / n_grid
    if q == 1:
        vals = np.array([_period_action(model, np.array([g]), p, q) for g in grid])
        u = np.array([grid[int(np.argmin(vals))]])
    else:
        axes = np.meshgrid(*([grid] * q), indexing="ij")
        pts = np.stack([ax.ravel() for ax in axes], axis=1)
        x = pts + np.arange(q) * (p / q)
        nxt = np.roll(x, -1, axis=1)
        nxt[:, -1] += p
        vals = np.sum(model.eval_h(x, nxt), axis=1)
        u = pts[int(np.argmin(vals))].copy()

    for _ in range(sweeps):
        moved = 0.0
        for i in range(q):
            def on_axis(t, i=i):
                v = u.copy()
                v[i] = t
                return _period_action(model, v, p, q)

            res = minimize_scalar(
                on_axis, bracket=(u[i] - 0.02, u[i], u[i] + 0.02), method="brent",
                options={"xtol": 1e-14},
            )
            moved = max(moved, abs(res.x - u[i]))
            u[i] = res.x
        if moved < 1e-13:
            break
    return _period_action(model, u, p, q) / q


def grid_basin_count(model, p, q, n_grid=400):
    """Number of local-minimum classes of the 2-site action on a dense grid.

    Only q = 2 is supported.  Parameterizes x0 = u in [0,1), x1 = u + t with
    t in (0,1) for rotation number 1/2, counts strict grid-local minima, and
    merges points identified by the index shift (x0,x1) -> (x1, x0+p) and
    integer translation.
    """
    assert q == 2
    us = np.arange(n_grid) / n_grid
    ts = (np.arange(1, n_grid) / n_grid)
    U, T = np.meshgrid(us, ts, indexing="ij")
    X0 = U
    X1 = U + T
    S = model.eval_h(X0, X1) + model.eval_h(X1, X0 + p)
    mins = []
    for i in range(n_grid):
        for j in range(n_grid - 1):
            v = S[i, j]
            ok = True
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    jj = j + dj
                    if jj < 0 or jj >= n_grid - 1:
                        continue
                    if S[(i + di) % n_grid, jj] < v:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                mins.append((U[i, j], T[i, j]))
    # merge by the shift symmetry: (u, t) -> (u + t mod 1, 1 - t)
    classes = []
    for u, t in mins:
        rep = min((round(u % 1.0, 6), round(t, 6)), (round((u + t) % 1.0, 6), round(1.0 - t, 6)))
        if rep not in classes:
            classes.append(rep)
    return len(classes)


def pn_barrier_oracle(model, p, q, n_sweep=16, n_inner=20000):
    """max-min spread of E(s) = min over free sites of the pinned action, q = 2."""
    assert q == 2
    best = []
    ts = np.arange(1, n_inner) / n_inner
    for s in np.arange(n_sweep) / n_sweep:
        vals = model.eval_h(s, s + ts) + model.eval_h(s + ts, s + p)
        j = int(np.argmin(vals))

        def on_axis(t):
            return float(model.eval_h(s, s + t) + model.eval_h(s + t, s + p))

        res = minimize_scalar(
            on_axis, bracket=(ts[max(j - 1, 0)], ts[j], ts[min(j + 1, n_inner - 2)]),
            method="brent", options={"xtol": 1e-14},
        )
        best.append(res.fun)
    best = np.asarray(best)
    return float(best.max() - best.min())


# ---- slow linear-algebra paths replaced by the O(q) solver kernels ----------


def dense_tridiag(diag, off):
    """Dense symmetric matrix; off[i] couples i and (i + 1) mod n, summing overlaps."""
    n = len(diag)
    H = np.zeros((n, n))
    for i in range(n):
        H[i, i] += diag[i]
    for i, c in enumerate(off):
        j = (i + 1) % n
        H[i, j] += c
        H[j, i] += c
    return H


def banded_solve(diag, off, rhs):
    """Symmetric tridiagonal solve through scipy's validated solve_banded."""
    n = len(diag)
    ab = np.zeros((3, n))
    ab[1] = diag
    if n > 1:
        ab[0, 1:] = off
        ab[2, :-1] = off
    try:
        out = solve_banded((1, 1), ab, rhs)
    except (ValueError, np.linalg.LinAlgError):
        return None
    return out if np.all(np.isfinite(out)) else None


def banded_cyclic_solve(diag, off, corner, rhs):
    """Sherman-Morrison cyclic solve with one solve_banded call per right-hand side."""
    n = len(diag)
    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= corner * corner / gamma
    y = banded_solve(d, off, rhs)
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = corner
    z = banded_solve(d, off, u)
    if y is None or z is None:
        return None
    vy = y[0] + (corner / gamma) * y[-1]
    vz = z[0] + (corner / gamma) * z[-1]
    denom = 1.0 + vz
    if denom == 0.0 or not np.isfinite(denom):
        return None
    out = y - z * (vy / denom)
    return out if np.all(np.isfinite(out)) else None


def sherman_morrison_solve(diag, off, corner, rhs):
    """The cyclic solve at n >= 3 as solvers.solve_cyclic_tridiag_sym wrote it
    before it became the one-row case of the stacked solve: scalar update
    and correction around one two-column dgtsv."""
    n = len(diag)
    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= corner * corner / gamma
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = corner
    yz = solvers.solve_tridiag_sym(d, off, np.column_stack((rhs, u)))
    if yz is None:
        return None
    y, z = yz[:, 0], yz[:, 1]
    vy = y[0] + (corner / gamma) * y[-1]
    vz = z[0] + (corner / gamma) * z[-1]
    denom = 1.0 + vz
    if denom == 0.0 or not np.isfinite(denom):
        return None
    out = y - z * (vy / denom)
    return out if np.all(np.isfinite(out)) else None


def _cholesky_pd(H, shift):
    scale = max(1.0, float(np.abs(np.diag(H)).max()))
    try:
        np.linalg.cholesky(H + shift * scale * np.eye(len(H)))
        return True
    except np.linalg.LinAlgError:
        return False


def cholesky_psd_periodic(prob, u, shift=1e-8):
    """Dense Cholesky of the periodic second variation plus shift*scale*I."""
    return _cholesky_pd(dense_tridiag(*periodic_hessian_parts(prob, u)), shift)


def cholesky_psd_folded(prob, u):
    """The dense Cholesky test certify_psd_periodic_u made at q <= 2: the
    solver's own Hessian parts, folded by solvers.tridiag_dense, plus
    1e-8*scale*I."""
    return _cholesky_pd(solvers.tridiag_dense(*prob.hessian_parts(u)), 1e-8)


def cholesky_psd_segment(model, w, n_fix_left, n_fix_right, shift=1e-8):
    """Dense Cholesky of the clamped-segment second variation plus shift*scale*I."""
    lo, hi = n_fix_left, len(w) - n_fix_right
    if hi <= lo:
        return True
    x, xn, xp = w[lo:hi], w[lo + 1 : hi + 1], w[lo - 1 : hi - 1]
    diag = model.d11h(x, xn) + model.d22h(xp, x)
    off = np.broadcast_to(model.d12h(w[lo : hi - 1], w[lo + 1 : hi]), (hi - lo - 1,))
    return _cholesky_pd(dense_tridiag(diag, off), shift)


def class_distance_all_shifts(x1, x2, q):
    """Smallest circular sup-distance of the fractional sequences over all q shifts."""
    z1 = np.mod(np.asarray(x1, dtype=float), 1.0)
    z2 = np.mod(np.asarray(x2, dtype=float), 1.0)
    best = np.inf
    for s in range(q):
        d = np.roll(z1, -s) - z2
        d = np.abs(d - np.round(d))
        best = min(best, float(d.max()))
    return best


def canonical_shift_tuples(prob, u):
    """PeriodicProblem.canonical_shift with each tie's rolled sequence compared as a tuple."""
    z = prob.z(u)
    order = np.argsort(z, kind="stable")
    best = int(order[0])
    ties = [int(m) for m in order if abs(z[m] - z[best]) <= 1e-12]
    if len(ties) > 1:
        best = min(ties, key=lambda m: tuple(np.roll(z, -m)))
    return best


# ---- the two Newton loops replaced by the shared damped-Newton driver -------


def periodic_gradient(prob, u):
    """PeriodicProblem's gradient d2h(z_prev, z) + d1h(z, z_next) from the partials."""
    z = prob.z(u)
    zp = z + prob.dprev(u)
    zn = z + prob.dnxt(u)
    return np.asarray(prob.model.d2h(zp, z) + prob.model.d1h(z, zn), dtype=float)


def periodic_hessian_parts(prob, u):
    """PeriodicProblem's (diag, off) from d11h, d22h and d12h; off[-1] is the corner."""
    z = prob.z(u)
    zp = z + prob.dprev(u)
    zn = z + prob.dnxt(u)
    diag = np.asarray(prob.model.d11h(z, zn) + prob.model.d22h(zp, z), dtype=float)
    off = np.atleast_1d(np.asarray(prob.model.d12h(z, zn), dtype=float))
    return diag, off


def segment_gradient(model, w, lo, hi):
    """The gradient over the free sites [lo, hi) of w from the partials."""
    return np.asarray(
        model.d2h(w[..., lo - 1 : hi - 1], w[..., lo:hi])
        + model.d1h(w[..., lo:hi], w[..., lo + 1 : hi + 1]),
        dtype=float,
    )


def segment_hessian_parts(model, w, lo, hi):
    """(diag, off) over the free sites [lo, hi) of w from d11h, d22h and d12h."""
    diag = np.asarray(
        model.d11h(w[..., lo:hi], w[..., lo + 1 : hi + 1])
        + model.d22h(w[..., lo - 1 : hi - 1], w[..., lo:hi]),
        dtype=float,
    )
    off = np.asarray(model.d12h(w[..., lo : hi - 1], w[..., lo + 1 : hi]), dtype=float)
    off = np.atleast_1d(off)
    return diag, off


def gershgorin_cyclic_direction(diag, off, g):
    """The periodic fallback at q >= 4 as newton_periodic_u wrote it inline,
    with off of length q (its last entry the corner) and the radius from
    np.roll."""
    radius = np.abs(off) + np.abs(np.roll(off, 1))
    mu = max(0.0, -float((diag - radius).min())) + 1e-3 * max(1.0, float(np.abs(diag).max()))
    s = solvers.solve_cyclic_tridiag_sym(diag + mu, off[:-1], float(off[-1]), -g)
    if s is None or float(np.dot(g, s)) >= 0.0:
        s = -g
    return s


def dense_direction(diag, off, g):
    """The eigenvalue-clipped direction on the dense matrix of (diag, off)."""
    return solvers.modified_newton_direction(solvers.tridiag_dense(diag, off), g)


def _newton_periodic_u_loop(prob, u0, opts, dense_max_q):
    """Damped Newton in displacement coordinates; returns (u, residual_sup, ok).

    The fallback is the dense eigenvalue-clipped step up to q = dense_max_q
    and the Gershgorin-shifted cyclic solve above.
    """
    u = np.array(u0, dtype=float)
    q = prob.q
    target = 0.25 * solvers._TOL  # margin so re-evaluation stays under _TOL
    res = float(np.abs(periodic_gradient(prob, u)).max())
    for _ in range(opts.max_iter):
        g = periodic_gradient(prob, u)
        res = float(np.abs(g).max())
        if res < target:
            return u, res, True
        diag, off = periodic_hessian_parts(prob, u)
        if q <= 3:
            s = None
        else:
            s = solvers.solve_cyclic_tridiag_sym(diag, off[:-1], float(off[-1]), -g)
        if s is None or float(np.dot(g, s)) >= 0.0 or np.abs(s).max() > 1e8 * (1.0 + np.abs(u).max()):
            if q <= dense_max_q:
                s = dense_direction(diag, off, g)
            else:
                # Gershgorin shift keeps the fallback O(q) at large periods
                s = gershgorin_cyclic_direction(diag, off, g)
        slope = float(np.dot(g, s))
        if slope >= 0.0:
            s = -g
            slope = -float(np.dot(g, g))
        if res < 1e-6:
            # quadratic basin: full steps, no action comparisons in noise
            u = u + s
            continue
        w0 = prob.action_fast(u)
        t = 1.0
        accepted = False
        while t >= 2.0 ** -40:
            ut = u + t * s
            if prob.action_fast(ut) <= w0 + 1e-4 * t * slope:
                u = ut
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return u, res, False
    res = float(np.abs(periodic_gradient(prob, u)).max())
    return u, res, res < solvers._TOL


def newton_periodic_u_loop(prob, u0, opts):
    """The periodic loop with the solver's fallback rule: dense only at q <= 3."""
    return _newton_periodic_u_loop(prob, u0, opts, dense_max_q=3)


def newton_periodic_u_loop_dense(prob, u0, opts):
    """The periodic loop as it was while the dense fallback served every q <= 200."""
    return _newton_periodic_u_loop(prob, u0, opts, dense_max_q=200)


def _newton_segment_loop(model, w0, n_fix_left, n_fix_right, opts, fallback):
    """Minimize the segment action over interior sites with clamped ends.

    w0 holds all site values; the first n_fix_left and last n_fix_right stay
    fixed.  fallback(diag, off, g) replaces a missing, ascending or exploding
    step.  Returns (w, residual_sup, converged); residual over free sites.
    """
    w = np.array(w0, dtype=float)
    n = len(w)
    lo, hi = n_fix_left, n - n_fix_right
    if n_fix_left < 1 or n_fix_right < 1:
        raise ValueError("segment needs at least one clamped site per end")
    if hi <= lo:
        return w, 0.0, True
    target = 0.25 * solvers._TOL
    for _ in range(opts.max_iter):
        g = segment_gradient(model, w, lo, hi)
        res = float(np.abs(g).max())
        if res < target:
            return w, res, True
        diag, off = segment_hessian_parts(model, w, lo, hi)
        s = solvers.solve_tridiag_sym(diag, off, -g)
        if s is None or float(np.dot(g, s)) >= 0.0 or np.abs(s).max() > 1e8 * (1.0 + np.abs(w).max()):
            s = fallback(diag, off, g)
        slope = float(np.dot(g, s))
        if slope >= 0.0:
            s = -g
            slope = -float(np.dot(g, g))
        if res < 1e-6:
            w[lo:hi] += s
            continue
        a0 = solvers._segment_action_fast(model, w, lo, hi)
        t = 1.0
        accepted = False
        while t >= 2.0 ** -40:
            wt = w.copy()
            wt[lo:hi] += t * s
            if solvers._segment_action_fast(model, wt, lo, hi) <= a0 + 1e-4 * t * slope:
                w = wt
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return w, res, False
    g = segment_gradient(model, w, lo, hi)
    res = float(np.abs(g).max())
    return w, res, res < solvers._TOL


def newton_segment_loop(model, w0, n_fix_left, n_fix_right, opts):
    """The segment loop with the solver's fallback rule: the Gershgorin-shifted
    solve on the open chain, written out here."""
    def shifted(diag, off, g):
        a = np.abs(off)
        radius = np.zeros(len(diag))
        radius[:-1] += a
        radius[1:] += a
        mu = max(0.0, -float((diag - radius).min())) + 1e-3 * max(1.0, float(np.abs(diag).max()))
        s = solvers.solve_tridiag_sym(diag + mu, off, -g)
        return -g if s is None or float(np.dot(g, s)) >= 0.0 else s

    return _newton_segment_loop(model, w0, n_fix_left, n_fix_right, opts, shifted)


def newton_segment_loop_dense(model, w0, n_fix_left, n_fix_right, opts):
    """The segment loop as it was while its fallback was the dense direction."""
    return _newton_segment_loop(model, w0, n_fix_left, n_fix_right, opts, dense_direction)


def damped_newton_loop(x, free, gradient, action, hessian_parts, solve, fallback, opts):
    """The one-state driver before the batch, the cycle exit, the local
    kernel and the carried action: every start runs its own loop to max_iter
    and evaluates the action at each search's start.  The callbacks see one
    1-D state."""
    target = 0.25 * solvers._TOL
    for _ in range(opts.max_iter):
        g = gradient(x)
        res = float(np.abs(g).max())
        if res < target:
            return x, res, True
        diag, off = hessian_parts(x)
        s = solve(diag, off, -g)
        if s is None or float(np.dot(g, s)) >= 0.0 or np.abs(s).max() > 1e8 * (1.0 + np.abs(x).max()):
            s = fallback(diag, off, g)
        slope = float(np.dot(g, s))
        if slope >= 0.0:
            s = -g
            slope = -float(np.dot(g, g))
        if res < 1e-6:
            x[free] += s
            continue
        a0 = action(x)
        t = 1.0
        accepted = False
        while t >= 2.0 ** -40:
            xt = x.copy()
            xt[free] += t * s
            if action(xt) <= a0 + 1e-4 * t * slope:
                x = xt
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return x, res, False
    res = float(np.abs(gradient(x)).max())
    return x, res, res < solvers._TOL


# ---- the periodic multistart, one start at a time ------------------------------


def solve_all_starts_one_at_a_time(model, p, q, opts):
    """solvers.solve_all_starts with every start run alone: the one-start
    path of _damped_newton (solvers.newton_periodic_u, looked up at each
    call, so a test may replace it), then the class dedup and certificates
    of _critical_points."""
    prob, labels, U0 = solvers._starts(model, p, q, opts)
    return solvers._critical_points(
        prob, labels, [solvers.newton_periodic_u(prob, u0, opts) for u0 in U0])


# ---- translate ladder, one site at a time --------------------------------------


def _lift(x, p, q, i):
    """Value of the q-site lift extended by x[i+q] = x[i] + p."""
    return float(x[i % q] + p * (i // q))


def ladder_value_per_site(ladder, rung, i):
    """Lift value of translate `rung` of a flatness.TranslateLadder at site i."""
    unit, r = divmod(rung, ladder.q)
    j, m = ladder._entries[r]
    x = np.asarray(ladder.config.positions, dtype=float)
    return _lift(x, ladder.p, ladder.q, i + j) + m + unit


# ---- model kernels and neighbor shifts before the lean rewrite --------------
#
# The series form of V, V' and V'': a zeros_like accumulator, every harmonic's
# cos and sin evaluated whatever its amplitude, and d11h, d12h and d22h built
# with np.broadcast plus np.broadcast_to.  The package must match these bit
# for bit, signed zeros included.


def _series_terms(model):
    """(order, cos_amp, sin_amp) including the implicit FK cosine."""
    if model.family == "frenkel-kontorova":
        yield (1, -model.k, 0.0)
    else:
        for order, ca, sa in model.harmonics:
            yield (int(order), float(ca), float(sa))


def potential_series(model, x):
    x = np.mod(np.asarray(x, dtype=float), 1.0)
    v = np.zeros_like(x)
    for n, ca, sa in _series_terms(model):
        w = 2.0 * np.pi * n
        v = v + ca * np.cos(w * x) + sa * np.sin(w * x)
    return v if v.ndim else float(v)


def potential_d1_series(model, x):
    x = np.mod(np.asarray(x, dtype=float), 1.0)
    v = np.zeros_like(x)
    for n, ca, sa in _series_terms(model):
        w = 2.0 * np.pi * n
        v = v + w * (-ca * np.sin(w * x) + sa * np.cos(w * x))
    return v if v.ndim else float(v)


def potential_d2_series(model, x):
    x = np.mod(np.asarray(x, dtype=float), 1.0)
    v = np.zeros_like(x)
    for n, ca, sa in _series_terms(model):
        w = 2.0 * np.pi * n
        v = v - w * w * (ca * np.cos(w * x) + sa * np.sin(w * x))
    return v if v.ndim else float(v)


def d11h_series(model, x, xp):
    x = np.asarray(x, dtype=float)
    out = 2.0 * model.a + potential_d2_series(model, x)
    out = np.broadcast_to(out, np.broadcast(x, np.asarray(xp)).shape)
    return out if out.ndim else float(out)


def d12h_series(model, x, xp):
    shape = np.broadcast(np.asarray(x), np.asarray(xp)).shape
    out = np.broadcast_to(-2.0 * model.a, shape)
    return out if out.ndim else float(out)


def d22h_series(model, x, xp):
    shape = np.broadcast(np.asarray(x), np.asarray(xp)).shape
    out = np.broadcast_to(2.0 * model.a, shape)
    return out if out.ndim else float(out)


def dnxt_roll(prob, u):
    return np.roll(u, -1) - u + prob.rat


def dprev_roll(prob, u):
    return np.roll(u, 1) - u - prob.rat


# ---- cache-record check by re-rendering -------------------------------------


def rerender_check(text):
    """Payload dict of a cache record's text, or None if the record fails.

    Parses the whole record and compares the stored checksum with the sha256
    of its payload rendered again, as BetaCache read records before it
    checked their bytes.
    """
    try:
        record = json.loads(text)
        payload = record["payload"]
        stored = record["checksum"]
    except (ValueError, KeyError, TypeError):
        return None
    actual = hashlib.sha256(render_json(payload).encode("utf-8")).hexdigest()
    return payload if actual == stored else None


def cache_record_two_renders(model, cfg):
    """The record text of BetaCache.put as it was before it rendered the
    payload once: the payload rendered inside payload_checksum, then the
    whole record rendered again."""
    from staircase_lab import __version__

    p, q = normalize_rational(cfg.p, cfg.q)
    payload = {
        "model_hash": model.model_hash,
        "p": p,
        "q": q,
        "action_total": float(cfg.action_total),
        "beta": float(cfg.action_total) / q,
        "positions": [float(x) for x in cfg.positions],
        "residual_sup": float(cfg.residual_sup),
        "is_certified_minimal": bool(cfg.is_certified_minimal),
        "seed_label": cfg.seed_label,
        "tool_version": __version__,
    }
    record = {"payload": payload, "checksum": payload_checksum(payload)}
    return render_json(record) + "\n"


# ---- loops with one gap solve per gap ---------------------------------------


def concatenate_loop_per_gap(model, p, q, T, options=None, config=None):
    """flatness.concatenate_loop as it was before it mapped one segment.

    Segment k is solved on its own window [t_k - T - margin, t_k + T + margin]
    around t_k = 2(k-1)T, then truncated and linearly deformed onto the
    periodic lifts over tau = min(q, T) sites at each end.  The result
    carries the ladder but no segment.
    """
    N = 2 * T * q
    ladder = flatness.TranslateLadder(model, p, q, options, config)
    margin = max(2 * q, 4)
    tau = min(q, T)
    loop_sites = np.arange(-T, (2 * q - 1) * T + 1)
    z = np.empty(len(loop_sites), dtype=float)
    raw_action = []
    for k in range(1, q + 1):
        t_k = 2 * (k - 1) * T
        solve_sites = np.arange(t_k - T - margin, t_k + T + margin + 1)
        w = flatness._solve_gap_segment(model, ladder, k, T, solve_sites, options).positions
        i0 = margin  # index of loop-window start inside the solve window
        seg = w[i0:i0 + 2 * T + 1].copy()
        e_left = seg[0] - ladder.value(k - 1, t_k - T)
        e_right = seg[-1] - ladder.value(k, t_k + T)
        s = np.arange(2 * T + 1)
        seg -= e_left * np.maximum(0.0, (tau - s) / tau)
        seg -= e_right * np.maximum(0.0, (tau - s[::-1]) / tau)
        raw_action.extend(
            np.asarray(model.eval_h(w[i0:i0 + 2 * T], w[i0 + 1:i0 + 2 * T + 1]),
                       dtype=float).tolist()
        )
        a = (t_k - T) - loop_sites[0]
        z[a:a + 2 * T + 1] = seg
    total = math.fsum(np.asarray(model.eval_h(z[:-1], z[1:]), dtype=float).tolist())
    return flatness.LoopResult(
        p=p, q=q, T=T, positions=z, sites=loop_sites,
        rotation=flatness.loop_rational(p, q, T),
        action_per_site=total / N,
        deformation_cost=total - math.fsum(raw_action), ladder=ladder, segment=None,
    )


# ---- the unscaled monodromy --------------------------------------------------


def monodromy_unscaled(model, config):
    """hyperbolicity.monodromy as it was before it rescaled the product."""
    mats = hyperbolicity.transfer_matrices(model, config)
    M = np.eye(2)
    for m in mats:
        M = m @ M
    tr = float(M[0, 0] + M[1, 1])
    prob = solvers.PeriodicProblem(model, config.p, config.q)
    _, b = prob.hessian_parts(prob.from_lift(config.positions))
    det = float(np.prod(np.roll(b, 1) / b))
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        mu_big = (tr + math.copysign(math.sqrt(disc), tr)) / 2.0
        if mu_big == 0.0:
            eigs = (complex(tr / 2.0), complex(tr / 2.0))
        else:
            eigs = (complex(mu_big), complex(det / mu_big))
    else:
        root = math.sqrt(-disc)
        eigs = (complex(tr / 2.0, root / 2.0), complex(tr / 2.0, -root / 2.0))
    mu_max = max(abs(eigs[0]), abs(eigs[1]))
    lam = max(0.0, math.log(mu_max)) / config.q if mu_max > 0 else 0.0
    return hyperbolicity.HyperbolicityReport(
        p=config.p, q=config.q, trace=tr, det=det, eigenvalues=eigs, lyapunov=lam,
    )
