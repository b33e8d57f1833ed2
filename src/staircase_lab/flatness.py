"""Heteroclinic segments, concatenated loops, and the flatness curve u(delta).

In the hyperbolic regime the q translates of a periodic minimizer bound q
gaps; each gap carries an action-minimizing heteroclinic segment.  The q
gaps are images of one another under the orbit's shift-and-translate
symmetry w(i) -> w(i + s) + n (Aubry & Le Daeron 1983), so one segment,
solved across gap 1 on a window wider than any loop piece, serves every
gap of every loop.  Chaining its truncated images with linearly deformed
ends yields a loop whose rotation number is exactly p/q + 1/(2Tq) and whose
per-site action upper-bounds beta there.  The flatness curve samples
u(delta) = beta(p/q + delta) - beta(p/q) - c_plus*delta on the integer-T
grid delta = 1/(2Tq), building all its loops from one gap-1 solve, fits an
exponential decay rate, and cross-checks a held-out bound of the form
C*q*delta*exp(-lambda/(4*q*delta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import hyperbolicity, solvers, variational
from .errors import ConfigError, DegenerateFamily, NegativeU, NoConvergence
from .staircase import BetaTable, normalize_rational

PHONON_GAP_FLOOR = 1e-6
SEGMENT_RESIDUAL = 1e-10
MAX_LOOP_SITES = 4096
DEFAULT_T_GRID = (2, 4, 8, 16, 32)


class TranslateLadder:
    """The q+1 ordered integer translates of a periodic minimizer.

    Entry r is the translate whose site-0 value is the r-th smallest in
    [x_0, x_0 + 1); entry q is entry 0 shifted up by one lattice unit.  A
    given config (the minimizer of p/q) is used instead of solving for it.
    """

    def __init__(self, model, p: int, q: int, options=None, config=None):
        cfg = config if config is not None else variational.minimize_periodic(
            model, p, q, options)
        gap = hyperbolicity.phonon_gap(model, cfg)
        if gap < PHONON_GAP_FLOOR:
            raise DegenerateFamily(
                f"phonon gap {gap:.3e} below {PHONON_GAP_FLOOR} at {p}/{q}: "
                "translates form a continuum, no gaps to cross"
            )
        self.p = p
        self.q = q
        self.config = cfg
        x = np.asarray(cfg.positions, dtype=float)
        entries = []
        for j in range(q):
            m = -math.floor(x[j] - x[0])
            entries.append((x[j] + m, j, m))
        entries.sort()
        self._entries = [(j, m) for _, j, m in entries]

    def values(self, rung: int, sites) -> np.ndarray:
        """Lift values of translate `rung` (0..q, and beyond by periodicity) at
        the sites, extending the period by x[i+q] = x[i] + p."""
        unit, r = divmod(rung, self.q)
        j, m = self._entries[r]
        i = np.asarray(sites, dtype=np.int64) + j
        return self.config.positions[i % self.q] + self.p * (i // self.q) + m + unit

    def value(self, rung: int, i: int) -> float:
        return float(self.values(rung, [i])[0])

    def gap_image(self, gap: int) -> tuple[int, int]:
        """(s, n) such that w(i) -> w(i + s) + n carries rungs 0 and 1 onto
        rungs gap-1 and gap; (s + a*q, n - a*p) does too, for every integer a."""
        j0, m0 = self._entries[0]
        j, m = self._entries[gap - 1]
        return j - j0, m - m0


@dataclass
class HeteroclinicSegment:
    p: int
    q: int
    gap: int
    T: int
    positions: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    tail_deviations: np.ndarray
    residual_sup: float
    action: float
    multiplicity: int
    sites: np.ndarray

    @property
    def center(self) -> float:
        return _crossing(self.positions, self.lower, self.upper, self.sites)


def _crossing(w, lower, upper, sites) -> float:
    """Interpolated site where the profile passes the midline of the gap."""
    phase = (w - lower) / (upper - lower)
    for i in range(len(w) - 1):
        if phase[i] < 0.5 <= phase[i + 1]:
            f = (0.5 - phase[i]) / (phase[i + 1] - phase[i])
            return float(sites[i] + f * (sites[i + 1] - sites[i]))
    return float(sites[int(np.argmax(np.minimum(w - lower, upper - w)))])


def _solve_gap_segment(model, ladder: TranslateLadder, gap: int, T: int, sites,
                       options=None) -> HeteroclinicSegment:
    """Minimal segment between ladder rungs gap-1 and gap over given sites.

    Two outermost sites per side are clamped onto the asymptotic lifts.
    Multistart over sigmoid blends; Newton lands on critical points, so
    candidates are kept only if the clamped-segment Hessian is positive
    (this drops the barrier-top saddle, which also converges cleanly).
    Tails of a wide window underflow onto the asymptotes in float, so the
    ordering test allows contact up to 1e-9.  Translates of the connection
    deep inside the window are action-degenerate below float resolution;
    the one crossing nearest the window center is returned so the choice
    is stable under window growth.  Returns it as a HeteroclinicSegment on
    the given sites, recording T as given, with the size of the near-minimal
    set as its multiplicity.
    """
    opts = options or solvers.SolveOptions()
    lower = ladder.values(gap - 1, sites)
    upper = ladder.values(gap, sites)
    n = len(sites)
    rel = np.asarray(sites, dtype=float)
    center = 0.5 * (rel[0] + rel[-1])
    span = max(1.0, 0.25 * (rel[-1] - rel[0]))
    shapes = [(center, 0.25), (center + 0.5, 0.25), (center, 1.0),
              (center + 0.5, 1.0), (center, span),
              (center - span, 1.0), (center + span, 1.0)]
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=opts.seed, spawn_key=(ladder.q, gap, 0x5E6)))
    starts = []
    for c0, width in shapes:
        for jitter in (0.0, 0.05):
            t = 1.0 / (1.0 + np.exp(-(rel - c0) / width))
            w0 = lower + t * (upper - lower)
            if jitter:
                bump = jitter * rng.standard_normal(n) * (upper - lower)
                w0 = np.clip(w0 + bump, lower, upper)
            w0[:2] = lower[:2]
            w0[-2:] = upper[-2:]
            starts.append(w0)
    candidates = []
    for w, res, ok in solvers.newton_segment_starts(model, starts, 2, 2, opts):
        if not ok or res > SEGMENT_RESIDUAL:
            continue
        if np.any(w < lower - 1e-9) or np.any(w > upper + 1e-9):
            continue
        psd = solvers.certify_psd_segment(model, w, 2, 2, shift=1e-12)
        act = solvers.segment_action(model, w)
        candidates.append((act, w, res, psd))
    pool = [c for c in candidates if c[3]] or candidates
    if not pool:
        raise NoConvergence(
            f"no ordered heteroclinic found in gap {gap} of {ladder.p}/{ladder.q}"
        )
    act_min = min(c[0] for c in pool)
    near = [c for c in pool if c[0] - act_min <= 1e-10 * max(1.0, abs(act_min))]
    distinct = []
    for c in near:
        if all(np.max(np.abs(c[1] - d[1])) > 1e-7 for d in distinct):
            distinct.append(c)
    act, w, res, _ = min(
        distinct,
        key=lambda c: (abs(_crossing(c[1], lower, upper, rel) - center),
                       _crossing(c[1], lower, upper, rel)),
    )
    return HeteroclinicSegment(
        p=ladder.p, q=ladder.q, gap=gap, T=T, positions=w, lower=lower, upper=upper,
        tail_deviations=np.minimum(w - lower, upper - w), residual_sup=res,
        action=act, multiplicity=len(distinct), sites=np.asarray(sites),
    )


def heteroclinic_segment(model, p: int, q: int, gap: int, T: int,
                         options=None) -> HeteroclinicSegment:
    """Action-minimizing connection across one gap, window of 2Tq+1 sites."""
    if not 1 <= gap <= q:
        raise ValueError(f"gap index must be in 1..{q}, got {gap}")
    if T * q < 2:
        raise ValueError("window T*q must be >= 2 to leave a free site")
    ladder = TranslateLadder(model, p, q, options)
    W = T * q
    return _solve_gap_segment(model, ladder, gap, T, np.arange(-W, W + 1), options)


def loop_t_grid(q: int, T_list=None) -> list[int]:
    """The sorted, distinct T of a flatness curve (default: DEFAULT_T_GRID
    within the loop site cap; a ConfigError past q = 1024, where none fits)."""
    if T_list is None:
        T_list = [T for T in DEFAULT_T_GRID if 2 * T * q <= MAX_LOOP_SITES]
        if not T_list:
            raise ConfigError(
                f"flatness at q = {q}: no T of the default t_grid {list(DEFAULT_T_GRID)} "
                f"keeps a loop of 2*T*q sites within the {MAX_LOOP_SITES}-site cap; "
                "a [flatness] block can give its own t_grid")
    T_list = sorted(set(int(T) for T in T_list))
    if not T_list or T_list[0] < 1:
        raise ValueError("T grid must contain positive integers")
    return T_list


def loop_rational(p: int, q: int, T: int) -> Fraction:
    """Rotation number p/q + 1/(2Tq) of the T-loop."""
    return Fraction(2 * T * p + 1, 2 * T * q)


@dataclass
class LoopResult:
    """A T-loop, with the translate ladder and the one gap-1 segment whose
    images are its q pieces."""
    p: int
    q: int
    T: int
    positions: np.ndarray
    sites: np.ndarray
    rotation: Fraction
    action_per_site: float
    deformation_cost: float
    ladder: TranslateLadder
    segment: HeteroclinicSegment


def concatenate_loop(model, p: int, q: int, T: int, options=None,
                     config=None) -> LoopResult:
    """Loop of 2Tq sites crossing all q gaps once: rotation p/q + 1/(2Tq).

    One segment is solved, across gap 1 on sites [-R, R] with
    R = T + max(2q, 4) + q.  Gap k's piece covers sites [t_k - T, t_k + T]
    around t_k = 2(k-1)T and is its image w_k(i) = w_1(i + s) + n, where
    (s, n) = ladder.gap_image(k) shifted by (a*q, -a*p).  Of the a whose
    piece lies inside the solved window, those whose deformed piece has the
    least action (up to a 1e-10 relative tie) are kept, and of those the one
    crossing nearest t_k, then the smaller crossing, is used.  Each piece is
    deformed linearly onto the periodic lifts over tau = min(q, T) sites at
    each end, so consecutive pieces agree at the shared junction sites
    exactly.  config, the minimizer of p/q, spares the ladder its solve when
    the caller has it.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    N = 2 * T * q
    if N > MAX_LOOP_SITES:
        raise ValueError(f"loop of {N} sites exceeds cap {MAX_LOOP_SITES}")
    ladder = TranslateLadder(model, p, q, options, config)
    R = T + max(2 * q, 4) + q
    segment = _solve_gap_segment(model, ladder, 1, T, np.arange(-R, R + 1), options)
    return _mapped_loop(model, ladder, segment, T)


def _mapped_loop(model, ladder: TranslateLadder, segment: HeteroclinicSegment,
                 T: int) -> LoopResult:
    """The T-loop mapped from a gap-1 segment as concatenate_loop describes;
    any segment solved for a T' >= T holds a piece of every gap."""
    p, q = ladder.p, ladder.q
    tau = min(q, T)
    ramp = np.maximum(0.0, (tau - np.arange(2 * T + 1)) / tau)
    lo, hi = int(segment.sites[0]), int(segment.sites[-1])
    loop_sites = np.arange(-T, (2 * q - 1) * T + 1)
    z = np.empty(len(loop_sites), dtype=float)
    raw_action = []
    for k in range(1, q + 1):
        t_k = 2 * (k - 1) * T
        left = ladder.value(k - 1, t_k - T)
        right = ladder.value(k, t_k + T)
        s0, n0 = ladder.gap_image(k)
        first = lo - (t_k - T)  # the least s whose piece starts inside the window
        s = np.arange(first + (s0 - first) % q, hi - (t_k + T) + 1, q)
        raw = (segment.positions[(s - first)[:, None] + np.arange(2 * T + 1)]
               + (n0 - (s - s0) // q * p)[:, None])
        pieces = raw - (raw[:, :1] - left) * ramp - (raw[:, -1:] - right) * ramp[::-1]
        act = np.sum(model.eval_h(pieces[:, :-1], pieces[:, 1:]), axis=1)
        near = np.flatnonzero(act - act.min() <= 1e-10 * max(1.0, abs(act.min())))
        crossing = segment.center - s[near]
        best = near[np.lexsort((crossing, np.abs(crossing - t_k)))[0]]
        raw_action.extend(np.asarray(model.eval_h(raw[best, :-1], raw[best, 1:]),
                                     dtype=float).tolist())
        z[t_k:t_k + 2 * T + 1] = pieces[best]
    total = math.fsum(np.asarray(model.eval_h(z[:-1], z[1:]), dtype=float).tolist())
    return LoopResult(
        p=p, q=q, T=T, positions=z, sites=loop_sites,
        rotation=loop_rational(p, q, T),
        action_per_site=total / (2 * T * q),
        deformation_cost=total - math.fsum(raw_action), ladder=ladder, segment=segment,
    )


def action_c(model, positions, c: float, alpha_of_c: float) -> float:
    """Sum of h minus the cohomology term: sum h - c*(x_N - x_0) + N*alpha(c)."""
    x = np.asarray(positions, dtype=float)
    if x.size < 2:
        raise ValueError("segment needs at least two sites")
    n = x.size - 1
    terms = np.asarray(model.eval_h(x[:-1], x[1:]), dtype=float).tolist()
    return math.fsum(terms) - c * (x[-1] - x[0]) + n * alpha_of_c


@dataclass
class FlatnessCurve:
    p: int
    q: int
    c_plus: float
    T_values: list
    deltas: list
    u_values: list
    zeta_upper_bounds: list
    included: list
    C_fit: float
    lambda_fit: float
    lambda_monodromy: float
    bound_verdict: bool
    verdict: str
    samples: list


def fit_tail_decay(segment: HeteroclinicSegment, floor: float = 1e-14):
    """Fit deviation ~ C0*exp(-lam*|t - center|) on the segment tails.

    Returns (C0, lam).  Sites within half a step of the crossing and sites
    whose deviation has underflowed below `floor` are excluded.
    """
    t = np.abs(np.asarray(segment.sites, dtype=float) - segment.center)
    dev = np.asarray(segment.tail_deviations, dtype=float)
    mask = (dev > floor) & (t >= 1.0)
    if int(mask.sum()) < 2:
        raise ValueError("not enough tail sites above the floor to fit decay")
    slope, icpt = _fit_line(t[mask], np.log(dev[mask]))
    return math.exp(icpt), -slope


def flatness_bound(q: int, delta: float, C: float, lam: float) -> float:
    """The exponential-flatness envelope C*q*delta*exp(-lam/(4*q*delta))."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return C * q * delta * math.exp(-lam / (4.0 * q * delta))


def _fit_line(xs, ys):
    A = np.vstack([np.asarray(xs), np.ones(len(xs))]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(ys), rcond=None)
    return float(coef[0]), float(coef[1])


def flatness_curve(model, p: int, q: int, T_list=None, table: BetaTable | None = None,
                   options=None) -> FlatnessCurve:
    """Sample u(delta) on the integer-T grid and fit the exponential envelope.

    c_plus comes from deep mediant refinement (the q=1 chain converges slowly,
    so the bracket target is far below the 1e-5 precondition: a c_plus error
    eps contaminates every sample by eps*delta).  Sub-noise u values are kept
    in the curve but excluded from the fit.  zeta_upper_bounds holds the raw
    per-site loop actions, each an upper bound for beta at its rotation
    number; entries are nan where the family is degenerate or the loop would
    exceed the site cap.  All loops are images of the one gap-1 segment that
    concatenate_loop solves for the largest T within the cap.
    """
    p, q = normalize_rational(p, q)
    T_list = loop_t_grid(q, T_list)
    if table is None:
        table = BetaTable.bind(model, options=options)
    _, c_plus, _ = table.refine_until(p, q, width=1e-12, max_depth=40)
    beta0 = table.beta(p, q)
    cfg = variational.minimize_periodic(model, p, q, options)
    lam_monodromy = hyperbolicity.monodromy(model, cfg).lyapunov
    noise_floor = 1e-13 * max(1.0, abs(beta0))
    fits = [T for T in T_list if 2 * T * q <= MAX_LOOP_SITES]
    try:
        top = concatenate_loop(model, p, q, fits[-1], options, config=cfg) if fits else None
    except DegenerateFamily:  # the translate ladder's phonon-gap test: no loops
        fits = []

    deltas, u_values, zeta_upper, included = [], [], [], []
    for T in T_list:
        r = loop_rational(p, q, T)
        delta = float(r - Fraction(p, q))
        u = table.beta_frac(r) - beta0 - c_plus * delta
        if u < -1e-9:
            raise NegativeU(
                f"u({delta:.3e}) = {u:.3e} at {p}/{q}: c_plus or beta inconsistent"
            )
        zu = math.nan
        if T in fits:
            loop = top if T == fits[-1] else _mapped_loop(model, top.ladder, top.segment, T)
            zu = loop.action_per_site
        deltas.append(delta)
        u_values.append(u)
        zeta_upper.append(zu)
        included.append(u > noise_floor)

    pts = [(d, u) for d, u, ok in zip(deltas, u_values, included) if ok]
    lam_fit = C_fit = math.nan
    verdict = "indeterminate"
    holdout_ok = False
    if len(pts) >= 2:
        xs = [-1.0 / (4.0 * q * d) for d, _ in pts]
        ys = [math.log(u / d) for d, u in pts]
        lam_fit, icpt = _fit_line(xs, ys)
        C_fit = math.exp(icpt) / q
        m_poly, _ = _fit_line([math.log(d) for d, _ in pts],
                              [math.log(u) for _, u in pts])
        verdict = "polynomial" if m_poly < 3.0 else "exponential"
        by_delta = sorted(pts, key=lambda t: -t[0])
        half_a = by_delta[0::2]
        half_b = by_delta[1::2]
        if half_a and half_b and math.isfinite(lam_fit):
            C_hold = max(u / (q * d * math.exp(-lam_fit / (4.0 * q * d)))
                         for d, u in half_a)
            holdout_ok = all(
                u <= C_hold * q * d * math.exp(-lam_fit / (4.0 * q * d)) * (1.0 + 1e-9) + 1e-15
                for d, u in half_b
            )
    return FlatnessCurve(
        p=p, q=q, c_plus=c_plus, T_values=list(T_list), deltas=deltas,
        u_values=u_values, zeta_upper_bounds=zeta_upper, included=included,
        C_fit=C_fit, lambda_fit=lam_fit,
        lambda_monodromy=lam_monodromy, bound_verdict=holdout_ok,
        verdict=verdict, samples=list(zip(deltas, u_values)),
    )
