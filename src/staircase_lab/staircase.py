"""Convex analysis over sampled minimal-action data.

A BetaTable memoizes the minimal mean action over rationals and certifies
one-sided derivatives through Farey-mediant secants.  On top of it sit the
Legendre transform (staircase samples), locking intervals and the locked
fraction, truncated variation/Hausdorff estimators, and two probes for the
near-integrable regime: a quadratic-envelope fit at a Diophantine target and
a Lipschitz lower bound on the unlocked measure.

Conventions: rationals are coprime-normalized with q > 0; mediant secants are
extrapolated linearly in the mediant gap (exact for quadratic data, certified
by the raw secant as the outer end of the bracket); every reported sum is a
math.fsum over a fixed ordering so reruns are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    EmptyTable,
    InsufficientSamples,
    NonconvexTerm,
    OverlapDetected,
)
from .variational import beta_at

DERIVATIVE_DEPTH = 4
DENOMINATOR_CAP = 1000
GOLDEN_CF = (0,) + (1,) * 40


def normalize_rational(p: int, q: int) -> tuple[int, int]:
    if q == 0:
        raise ValueError("zero denominator")
    if q < 0:
        p, q = -p, -q
    g = math.gcd(abs(p), q)
    return (p // g if g else p, q // g if g else q)


def farey_enumerate(Q: int, h_lo, h_hi) -> list[tuple[int, int]]:
    """All reduced p/q with q <= Q inside [h_lo, h_hi], ascending.  The ends
    are compared exactly (a float end as the binary fraction it is); a
    one-point interval is allowed."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    lo, hi = Fraction(h_lo), Fraction(h_hi)
    if lo > hi:
        raise ValueError(f"empty range [{h_lo}, {h_hi}]")
    rats = [(p, q) for q in range(1, Q + 1)
            for p in range(math.ceil(lo * q), math.floor(hi * q) + 1) if math.gcd(p, q) == 1]
    return sorted(rats, key=lambda r: Fraction(*r))


def farey_parents(p: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Left and right Farey parents a/b < p/q < c/d with unit cross products."""
    p, q = normalize_rational(p, q)
    if q == 1:
        return (p - 1, 1), (p + 1, 1)
    b = pow(p % q, -1, q)
    a = (p * b - 1) // q
    return (a, b), (p - a, q - b)


def mediant_chain(p: int, q: int, side: str, j: int) -> Fraction:
    """j-th mediant toward p/q from its left or right parent."""
    (a, b), (c, d) = farey_parents(p, q)
    if side == "left":
        return Fraction(a + j * p, b + j * q)
    if side == "right":
        return Fraction(c + j * p, d + j * q)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def slope_mediants(p: int, q: int, depth: int = DERIVATIVE_DEPTH):
    """The mediants toward p/q at depth - 1 and depth, from the left, then
    from the right: the rationals whose secants BetaTable.one_sided reads."""
    return [(mediant_chain(p, q, side, depth - 1), mediant_chain(p, q, side, depth))
            for side in ("left", "right")]


def cf_value(coeffs) -> float:
    """Value of a finite continued fraction [a0; a1, a2, ...]."""
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("empty continued fraction")
    v = float(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        v = a + 1.0 / v
    return v


def cf_convergents(coeffs, den_cap: int = DENOMINATOR_CAP) -> list[tuple[int, int]]:
    """Convergents of [a0; a1, ...] with denominator <= den_cap."""
    out = []
    p_prev, p_cur = 1, coeffs[0]
    q_prev, q_cur = 0, 1
    out.append((p_cur, q_cur))
    for a in coeffs[1:]:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_cur > den_cap:
            break
        out.append((p_cur, q_cur))
    return out


@dataclass
class BetaEntry:
    p: int
    q: int
    beta: float
    c_minus: float | None = None
    c_plus: float | None = None
    bracket_width: float | None = None
    depth: int | None = None

    @property
    def rho(self) -> float:
        return self.p / self.q


@dataclass
class ConvexityReport:
    ok: bool
    witness: tuple | None = None
    worst_violation: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


class BetaTable:
    """Minimal mean action over rationals with certified one-sided slopes.

    beta values come from a single callable so the table works identically
    for solver-backed models and synthetic closed forms.  An optional exact
    derivative callable short-circuits the mediant secants (used by tests
    with analytically known conjugates).
    """

    def __init__(self, beta_fn, model_hash: str, h_lo=0, h_hi=1, derivative_fn=None):
        self._beta_fn = beta_fn
        self.model_hash = model_hash
        self.h_lo = Fraction(h_lo)  # the window rationals() enumerates, exact
        self.h_hi = Fraction(h_hi)
        self._derivative_fn = derivative_fn
        self._entries: dict[tuple[int, int], BetaEntry] = {}
        self.convexity_verified = False

    @classmethod
    def bind(cls, model, h_lo=0, h_hi=1, cache=None, options=None, pooled=None):
        """Solver-backed table; cache and pooled are handed to beta_at."""

        def fn(p, q):
            return beta_at(model, p, q, cache=cache, options=options, pooled=pooled)

        return cls(fn, model.model_hash, h_lo, h_hi)

    @classmethod
    def from_function(cls, phi, h_lo=0, h_hi=1, derivative=None,
                      model_hash: str = "synthetic"):
        """Synthetic table from rho -> beta(rho); derivative maps rho -> (c-, c+)."""

        def fn(p, q):
            return float(phi(p / q))

        return cls(fn, model_hash, h_lo, h_hi, derivative_fn=derivative)

    # ---- values ------------------------------------------------------

    def beta(self, p: int, q: int) -> float:
        p, q = normalize_rational(p, q)
        e = self._entries.get((p, q))
        if e is None:
            e = BetaEntry(p=p, q=q, beta=float(self._beta_fn(p, q)))
            self._entries[(p, q)] = e
        return e.beta

    def beta_frac(self, r: Fraction) -> float:
        return self.beta(r.numerator, r.denominator)

    def entry(self, p: int, q: int) -> BetaEntry:
        self.beta(p, q)
        return self._entries[normalize_rational(p, q)]

    def entries(self) -> list[BetaEntry]:
        keys = sorted(self._entries, key=lambda k: Fraction(k[0], k[1]))
        return [self._entries[k] for k in keys]

    def rationals(self, Q: int) -> list[tuple[int, int]]:
        return farey_enumerate(Q, self.h_lo, self.h_hi)

    # ---- one-sided derivatives ----------------------------------------

    def one_sided(self, p: int, q: int, depth: int = DERIVATIVE_DEPTH):
        """(c_minus, c_plus, bracket_width) at p/q via mediant secants.

        The two deepest mediant secants per side are extrapolated linearly in
        the mediant gap; the raw deepest secant is the certified outer end of
        the bracket, the extrapolation the inner estimate.
        """
        p, q = normalize_rational(p, q)
        if depth < 2:
            raise ValueError("refinement depth must be >= 2")
        e = self.entry(p, q)
        if self._derivative_fn is not None:
            cm, cp = self._derivative_fn(p / q)
            e.c_minus, e.c_plus = float(cm), float(cp)
            e.bracket_width = 0.0
            e.depth = depth
            return e.c_minus, e.c_plus, 0.0
        if e.depth is not None and e.depth >= depth:
            return e.c_minus, e.c_plus, e.bracket_width
        r0 = Fraction(p, q)
        b0 = e.beta

        def secant(r: Fraction) -> float:
            return (self.beta_frac(r) - b0) / float(r - r0)

        width = 0.0
        vals = []
        for m_prev, m_last in slope_mediants(p, q, depth):
            s_prev, s_last = secant(m_prev), secant(m_last)
            d_prev = abs(float(m_prev - r0))
            d_last = abs(float(m_last - r0))
            extrap = s_last + (s_last - s_prev) * d_last / (d_prev - d_last)
            vals.append(extrap)
            width = max(width, abs(extrap - s_last))
        cm, cp = vals
        if cm > cp:
            # Extrapolation noise can invert the estimates where the true
            # width vanishes; a genuine kink inverts by orders more.
            if cm - cp > 1e-7:
                raise NonconvexTerm(
                    f"one-sided derivatives inverted at {p}/{q}: {cm} > {cp}"
                )
            cm = cp = 0.5 * (cm + cp)
        e.c_minus, e.c_plus, e.bracket_width, e.depth = cm, cp, width, depth
        return cm, cp, width

    def refine_until(self, p: int, q: int, width: float, max_depth: int = 9):
        """Increase mediant depth until the bracket width reaches the target."""
        depth = DERIVATIVE_DEPTH
        cm, cp, w = self.one_sided(p, q, depth)
        while w > width and depth < max_depth:
            depth += 1
            cm, cp, w = self.one_sided(p, q, depth)
        return cm, cp, w

    # ---- convexity -----------------------------------------------------

    def verify_convexity(self, Q: int | None = None, tol: float = 1e-8) -> ConvexityReport:
        """Secant monotonicity across consecutive rational triples."""
        if Q is not None:
            rats = self.rationals(Q)
        else:
            rats = sorted(self._entries, key=lambda k: Fraction(k[0], k[1]))
        if len(rats) < 3:
            self.convexity_verified = True
            return ConvexityReport(True)
        vals = [self.beta(p, q) for p, q in rats]
        rhos = [p / q for p, q in rats]
        worst = 0.0
        witness = None
        for i in range(len(rats) - 2):
            s12 = (vals[i + 1] - vals[i]) / (rhos[i + 1] - rhos[i])
            s23 = (vals[i + 2] - vals[i + 1]) / (rhos[i + 2] - rhos[i + 1])
            gap = s12 - s23
            if gap > worst:
                worst = gap
                witness = (rats[i], rats[i + 1], rats[i + 2])
        ok = worst <= tol
        self.convexity_verified = ok
        return ConvexityReport(ok, witness if not ok else None, worst)


# ---- Legendre transform and staircase ---------------------------------------


@dataclass
class LockingInterval:
    p: int
    q: int
    c_minus: float
    c_plus: float

    @property
    def width(self) -> float:
        return self.c_plus - self.c_minus

    @property
    def rho(self) -> float:
        return self.p / self.q


@dataclass
class StaircaseTable:
    c1: float
    c2: float
    alpha_samples: list = field(default_factory=list)  # (c, alpha)
    d_alpha: list = field(default_factory=list)  # (c, rho)
    fenchel_max: float = 0.0


def legendre(table: BetaTable, c_grid) -> StaircaseTable:
    """alpha(c) = max over table entries of c*rho - beta; Dalpha = the argmax.

    The maximum runs over the rationals currently in the table, so callers
    populate the Farey grid first.  Fenchel equality holds by construction;
    its residual is recorded as a sanity value.
    """
    entries = table.entries()
    if not entries:
        raise EmptyTable("no beta entries to transform")
    if not table.convexity_verified:
        report = table.verify_convexity()
        if not report:
            raise NonconvexTerm(
                f"secant monotonicity fails near {report.witness}"
            )
    c_grid = np.asarray(c_grid, dtype=float)
    rhos = np.array([e.rho for e in entries])
    betas = np.array([e.beta for e in entries])
    out = StaircaseTable(c1=float(c_grid[0]), c2=float(c_grid[-1]))
    worst = 0.0
    for c in c_grid:
        vals = c * rhos - betas
        i = int(np.argmax(vals))
        alpha = float(vals[i])
        out.alpha_samples.append((float(c), alpha))
        out.d_alpha.append((float(c), float(rhos[i])))
        worst = max(worst, abs(alpha + betas[i] - c * rhos[i]))
    out.fenchel_max = worst
    return out


def biconjugate_samples(table: BetaTable) -> dict[tuple[int, int], float]:
    """beta** at every sample via the lower convex hull (exact on convex data)."""
    entries = table.entries()
    if not entries:
        raise EmptyTable("no beta entries to conjugate")
    pts = sorted((e.rho, e.beta, (e.p, e.q)) for e in entries)
    hull: list[tuple[float, float]] = []
    for x, y, _ in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x2) >= (y - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    hx = [h[0] for h in hull]
    out = {}
    for x, _, key in pts:
        j = np.searchsorted(hx, x)
        if j < len(hx) and hx[j] == x:
            out[key] = hull[j][1]
        else:
            (x1, y1), (x2, y2) = hull[j - 1], hull[j]
            t = (x - x1) / (x2 - x1)
            out[key] = (1.0 - t) * y1 + t * y2
    return out


def locking_intervals(table: BetaTable, Q: int, c1: float, c2: float,
                      depth: int = DERIVATIVE_DEPTH) -> list[LockingInterval]:
    """Subdifferential intervals for all q <= Q, clipped to [c1, c2].

    Overlap up to 1e-10 is float slop and is clipped away; anything larger is
    a convexity violation upstream and raises OverlapDetected.
    """
    rats = table.rationals(Q)
    raw = []
    for p, q in rats:
        cm, cp, _ = table.one_sided(p, q, depth)
        raw.append(LockingInterval(p=p, q=q, c_minus=cm, c_plus=cp))
    raw.sort(key=lambda iv: (iv.p / iv.q))
    bad = []
    for a, b in zip(raw, raw[1:]):
        overlap = a.c_plus - b.c_minus
        if overlap > 1e-10:
            bad.append(((a.p, a.q), (b.p, b.q)))
        elif overlap > 0.0:
            b.c_minus = a.c_plus
    if bad:
        raise OverlapDetected(f"locking intervals overlap: {bad}", pairs=bad)
    out = []
    for iv in raw:
        lo = max(iv.c_minus, c1)
        hi = min(iv.c_plus, c2)
        if hi > lo:
            out.append(LockingInterval(p=iv.p, q=iv.q, c_minus=lo, c_plus=hi))
        elif c1 <= iv.c_minus <= c2:
            # zero-width interval inside the range: keep for bookkeeping
            out.append(LockingInterval(p=iv.p, q=iv.q, c_minus=lo, c_plus=max(hi, lo)))
    return out


def completeness_measure(intervals, c1: float, c2: float) -> float:
    """Locked fraction of [c1, c2]: sum of widths over the range length."""
    if not c1 < c2:
        raise ValueError(f"empty range [{c1}, {c2}]")
    total = math.fsum(max(0.0, min(iv.c_plus, c2) - max(iv.c_minus, c1)) for iv in intervals)
    return min(1.0, total / (c2 - c1))


# ---- truncated estimators ----------------------------------------------------


def shifted_rational(p: int, q: int, nu: float) -> Fraction:
    """Closest rational with bounded denominator to p/q + q^-(1+nu)."""
    t = p / q + q ** (-(1.0 + nu))
    return Fraction(t).limit_denominator(DENOMINATOR_CAP)


def estimator_rationals(Q: int, q_max: int | None) -> list[tuple[int, int]]:
    """The p/q in (0, 1] with Q < q <= q_max (default 2Q) that carry an
    estimator term, in (q, p) order."""
    hi = 2 * Q if q_max is None else q_max
    if hi < 1:
        return []
    return sorted(((p, q) for p, q in farey_enumerate(hi, Fraction(1, hi), 1) if q > Q),
                  key=lambda r: (r[1], r[0]))


def _estimator_terms(table: BetaTable, nu: float, Q: int, q_max: int | None):
    """Full terms q^(1+nu) * [beta(p/q + delta) - beta(p/q) - c_plus*delta].

    delta is the realized shift to the denominator-capped rational actually
    evaluated, which keeps every term a supporting-line difference (>= 0).
    Terms are produced in (q, p) order; callers accumulate with fsum.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError(f"nu must be in (0,1), got {nu}")
    terms = []
    for p, q in estimator_rationals(Q, q_max):
        r_hat = shifted_rational(p, q, nu)
        delta = float(r_hat - Fraction(p, q))
        cp = table.one_sided(p, q)[1]
        bracket = table.beta_frac(r_hat) - table.beta(p, q) - cp * delta
        if bracket < -1e-9:
            raise NonconvexTerm(
                f"negative estimator term {bracket:.3e} at {p}/{q}"
            )
        terms.append((q ** (1.0 + nu)) * max(bracket, 0.0))
    return terms


def variation_estimator(table: BetaTable, nu: float, Q: int, q_max: int | None = None) -> float:
    """Truncated upper bound for the variation of the right derivative."""
    return math.fsum(_estimator_terms(table, nu, Q, q_max))


def hausdorff_estimator(table: BetaTable, nu: float, theta: float, Q: int,
                        q_max: int | None = None) -> float:
    """Truncated theta-sum; theta = 1 reproduces the variation estimator exactly."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0,1], got {theta}")
    return math.fsum(t ** theta for t in _estimator_terms(table, nu, Q, q_max))


# ---- KAM-regime probes --------------------------------------------------------


@dataclass
class ProbeResult:
    c_low: float
    C_high: float
    slope: float
    intercept: float
    target: float
    n_samples: int


def probe_convergents(cf=GOLDEN_CF, delta: float = 0.3, den_cap: int = DENOMINATOR_CAP,
                      min_samples: int = 5):
    """(h, left, right): the value h of cf and its convergents within delta of
    h on each side, nearest first; raises InsufficientSamples when a side has
    fewer than two or both together fewer than min_samples + 2."""
    h = cf_value(cf)
    convs = [r for r in cf_convergents(cf, den_cap) if abs(r[0] / r[1] - h) < delta]
    left = [(p, q) for p, q in convs if p / q < h]
    right = [(p, q) for p, q in convs if p / q > h]
    if len(left) < 2 or len(right) < 2 or len(left) + len(right) < min_samples + 2:
        raise InsufficientSamples(
            f"need at least {min_samples + 2} convergents near target, "
            f"got {len(left)}+{len(right)}"
        )
    left.sort(key=lambda r: abs(r[0] / r[1] - h))
    right.sort(key=lambda r: abs(r[0] / r[1] - h))
    return h, left, right


def convexity_probe(table: BetaTable, cf=GOLDEN_CF, delta: float = 0.3,
                    den_cap: int = DENOMINATOR_CAP, min_samples: int = 5) -> ProbeResult:
    """Quadratic envelope c_low*(rho-h)^2 <= beta - support line <= C_high*(rho-h)^2.

    h is a continued-fraction target sampled at its convergents.  The support
    slope comes from the two finest straddling secant pairs extrapolated in
    their midpoint offset (exact for quadratic beta); the intercept is the
    lowest sample value of beta - slope*(rho - h).  The two finest samples pin
    the intercept, so they are excluded from the envelope ratios.
    """
    h, left, right = probe_convergents(cf, delta, den_cap, min_samples)

    def straddle_slope(i):
        pl, ql = left[i]
        pr, qr = right[i]
        bl, br = table.beta(pl, ql), table.beta(pr, qr)
        mid = 0.5 * (pl / ql + pr / qr) - h
        return (br - bl) / (pr / qr - pl / ql), mid

    s1, m1 = straddle_slope(0)
    s2, m2 = straddle_slope(1)
    slope = s1 + (s1 - s2) * m1 / (m2 - m1) if m2 != m1 else s1

    samples = left + right
    resid = {}
    for p, q in samples:
        rho = p / q
        resid[(p, q)] = table.beta(p, q) - slope * (rho - h)
    intercept = min(resid.values())
    central = {left[0], right[0]}
    ratios = []
    for p, q in samples:
        if (p, q) in central:
            continue
        d = p / q - h
        ratios.append((resid[(p, q)] - intercept) / (d * d))
    return ProbeResult(
        c_low=min(ratios),
        C_high=max(ratios),
        slope=slope,
        intercept=intercept,
        target=h,
        n_samples=len(samples),
    )


@dataclass
class AcPartResult:
    bound: float
    lipschitz: float
    c_windows: list
    n_segments: int

    def __float__(self) -> float:
        return self.bound


def _ac_part_window(stair: StaircaseTable, rho_lo: float, rho_hi: float):
    pts = [(c, r) for c, r in stair.d_alpha if rho_lo <= r <= rho_hi]
    if len(pts) < 2:
        return 0.0, 0.0, None, 0
    window = (pts[0][0], pts[-1][0])
    slopes = []
    for (c1, r1), (c2, r2) in zip(pts, pts[1:]):
        if c2 > c1:
            slopes.append(((r2 - r1) / (c2 - c1), c2 - c1))
    positive = sorted(s for s, _ in slopes if s > 1e-12)
    if not positive:
        return 0.0, 0.0, window, 0
    mid = len(positive) // 2
    if len(positive) % 2:
        median = positive[mid]
    else:
        median = 0.5 * (positive[mid - 1] + positive[mid])
    scale = 2.0 * median
    kept = [(s, dc) for s, dc in slopes if 1e-12 < s <= scale]
    bound = math.fsum(dc for _, dc in kept)
    lip = max(s for s, _ in kept) if kept else 0.0
    return bound, lip, window, len(kept)


def ac_part_probe(stair: StaircaseTable, windows) -> AcPartResult:
    """Lower bound on the measure of c where the staircase climbs Lipschitz-ly.

    windows is one (rho_lo, rho_hi) pair or a list of them.  Each window keeps
    the c-range where Dalpha lies inside it, computes difference quotients of
    consecutive samples, fits a Lipschitz scale as twice the median positive
    quotient, and sums the c-lengths of segments with quotient in (0, scale].
    Plateau segments (locked) contribute zero.  Bounds add over windows.
    """
    if windows and isinstance(windows[0], (int, float)):
        windows = [tuple(windows)]
    bounds, lips, spans, n_tot = [], [], [], 0
    for rho_lo, rho_hi in windows:
        b, lip, span, n = _ac_part_window(stair, rho_lo, rho_hi)
        bounds.append(b)
        lips.append(lip)
        if span is not None:
            spans.append(span)
        n_tot += n
    return AcPartResult(math.fsum(bounds), max(lips) if lips else 0.0, spans, n_tot)
