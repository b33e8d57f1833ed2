"""Hyperbolicity diagnostics for periodic minimizers.

Linearizing the Euler-Lagrange recursion along an orbit gives 2x2 transfer
matrices whose ordered product (the monodromy) measures orbit stability: the
per-step Lyapunov exponent is log of its largest eigenvalue magnitude divided
by q.  The same data in symmetric form is the second variation, a periodic
tridiagonal matrix whose smallest eigenvalue is the phonon gap
(phonon_gap_exceeds compares it with a floor in O(q), from no spectrum).  All
read one second variation, the solver's own (PeriodicProblem.hessian_parts).
The Peierls-Nabarro barrier is the spread of the pinned minimal action as
the constrained site sweeps one period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTwist, NoConvergence
from .model import GeneratingModel
from . import solvers
from .variational import PeriodicConfiguration


@dataclass
class HyperbolicityReport:
    p: int
    q: int
    trace: float
    det: float
    eigenvalues: tuple[complex, complex]
    lyapunov: float
    phonon_gap: float | None = None
    pn_barrier: float | None = None
    spectrum: np.ndarray | None = field(default=None, repr=False)


def _second_variation(model: GeneratingModel, config: PeriodicConfiguration):
    """(diag, off) of the orbit's second variation, off[-1] the corner: the
    solver's own Hessian parts, the ones certify_psd_periodic_u factorizes."""
    prob = solvers.PeriodicProblem(model, config.p, config.q)
    return prob.hessian_parts(prob.from_lift(config.positions))


def transfer_matrices(model: GeneratingModel, config: PeriodicConfiguration):
    """2x2 matrices M_i mapping (xi_i, xi_{i-1}) to (xi_{i+1}, xi_i).

    From the linearized recursion
    b_i xi_{i+1} + D_i xi_i + b_{i-1} xi_{i-1} = 0 with
    D_i = d11h(x_i, x_{i+1}) + d22h(x_{i-1}, x_i) and b_i = d12h(x_i, x_{i+1});
    det M_i = b_{i-1}/b_i telescopes to 1 over a period.
    """
    return _transfer_matrices(*_second_variation(model, config))


def _transfer_matrices(D, b):
    if np.any(b == 0.0):
        raise DegenerateTwist("d12h vanishes at an orbit point")
    # b[i - 1] wraps to the corner b[q-1] at i = 0
    return [np.array([[-D[i] / b[i], -b[i - 1] / b[i]], [1.0, 0.0]]) for i in range(len(D))]


_RESCALE_EXP = 448  # the monodromy product is scaled by 2**-448 once max|M| passes 2**448
_RESCALE_AT = 2.0**_RESCALE_EXP


def _ldexp(x: float, e: int) -> float:
    """x * 2**e, signed inf where that overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def monodromy(model: GeneratingModel, config: PeriodicConfiguration) -> HyperbolicityReport:
    """Ordered product of transfer matrices and the per-step Lyapunov exponent.

    The determinant is evaluated as the product of the per-matrix determinants
    b_{i-1}/b_i = -M_i[0,1].  That telescoping form is exact; reading ad - bc
    off the accumulated product instead would cancel catastrophically once the
    trace is large (entries ~1e9 leave no digit of a unit determinant).
    The small eigenvalue is recovered as det/mu_max for the same reason.

    The product grows like exp(lambda q), so it is kept as 2**e times M:
    whenever max|M| passes 2**448, M is scaled by 2**-448 (exactly) and e
    grows by 448.  lambda = (log mu_max(M) + e log 2)/q stays finite; the
    trace and the eigenvalues are scaled back and read inf only where they
    overflow.  Nothing is rescaled at q <= 34 on FK k <= 2.
    """
    return _monodromy(config, _second_variation(model, config))


def _monodromy(config: PeriodicConfiguration, parts) -> HyperbolicityReport:
    mats = _transfer_matrices(*parts)
    M = np.eye(2)
    e = 0
    for m in mats:
        M = m @ M
        if np.abs(M).max() > _RESCALE_AT:
            M = np.ldexp(M, -_RESCALE_EXP)
            e += _RESCALE_EXP
    tr = float(M[0, 0] + M[1, 1])
    det = float(np.prod([-m[0, 1] for m in mats]))
    det_scaled = math.ldexp(det, -2 * e)
    disc = tr * tr - 4.0 * det_scaled
    if disc >= 0.0:
        mu_big = (tr + math.copysign(math.sqrt(disc), tr)) / 2.0
        if mu_big == 0.0:
            eigs = (complex(tr / 2.0), complex(tr / 2.0))
        else:
            eigs = (complex(mu_big), complex(det_scaled / mu_big))
    else:
        root = math.sqrt(-disc)
        eigs = (complex(tr / 2.0, root / 2.0), complex(tr / 2.0, -root / 2.0))
    mu_max = max(abs(eigs[0]), abs(eigs[1]))
    lam = max(0.0, math.log(mu_max) + e * math.log(2.0)) / config.q if mu_max > 0 else 0.0
    if e:
        eigs = tuple(complex(_ldexp(z.real, e), _ldexp(z.imag, e)) for z in eigs)
        if disc >= 0.0 and mu_big != 0.0:  # the small one unscaled, never subnormal
            eigs = (eigs[0], complex(math.ldexp(det / mu_big, -e)))
    return HyperbolicityReport(
        p=config.p,
        q=config.q,
        trace=_ldexp(tr, e),
        det=det,
        eigenvalues=eigs,
        lyapunov=lam,
    )


def second_variation_spectrum(model: GeneratingModel, config: PeriodicConfiguration) -> np.ndarray:
    """Ascending eigenvalues of the periodic tridiagonal second variation."""
    return _spectrum(_second_variation(model, config))


def _spectrum(parts) -> np.ndarray:
    return np.linalg.eigvalsh(solvers.tridiag_dense(*parts))


def phonon_gap(model: GeneratingModel, config: PeriodicConfiguration) -> float:
    return float(second_variation_spectrum(model, config)[0])


def phonon_gap_exceeds(model: GeneratingModel, config: PeriodicConfiguration,
                       floor: float) -> bool:
    """phonon_gap > floor in O(q), from no spectrum: H - floor*I is positive
    definite.  At a gap exactly equal to floor it is False."""
    return solvers.positive_definite(*_second_variation(model, config), -floor)


def full_report(
    model: GeneratingModel,
    config: PeriodicConfiguration,
    sweep_n: int = 16,
    with_barrier: bool = True,
    options=None,
) -> HyperbolicityReport:
    """monodromy and the spectrum from one second variation, and with_barrier
    the pn_barrier of n = sweep_n, whose base minimizer options seeds."""
    parts = _second_variation(model, config)
    rep = _monodromy(config, parts)
    spec = _spectrum(parts)
    rep.spectrum = spec
    rep.phonon_gap = float(spec[0])
    if with_barrier:
        rep.pn_barrier = pn_barrier(model, config.p, config.q, sweep_n, options=options)
    return rep


# ---- Peierls-Nabarro barrier ------------------------------------------------


def _pinned_action(model, p, q, s, w_init, opts):
    """Minimal (p,q)-period action with x_0 clamped at s.

    The period is embedded as a segment s, x_1..x_{q-1}, s+p with both ends
    clamped; the segment action then equals the periodic action of the pinned
    configuration.
    """
    w0 = np.empty(q + 1)
    w0[0] = s
    w0[-1] = s + p
    w0[1:-1] = w_init
    w, res, ok = solvers.newton_segment(model, w0, 1, 1, opts)
    if not ok:
        raise NoConvergence(f"pinned solve failed at s={s:.6f} for {p}/{q}")
    return solvers.segment_action(model, w), w[1:-1]


def pn_barrier(model: GeneratingModel, p: int, q: int, n: int = 16, options=None) -> float:
    """max_s E(s) - min_s E(s) with E the pinned minimal action on the grid s = j/n.

    Continuation in s: each solve starts from the previous grid point's
    interior sites.  A forward and a backward sweep are combined pointwise,
    which keeps the result on the global branch across hysteresis loops where
    local pinned branches exchange stability.  options (SolveOptions) seeds
    the multistart solve of the unpinned minimizer.
    """
    if n < 16:
        raise ValueError("sweep resolution n must be >= 16")
    if q < 1 or math.gcd(abs(p), q) != 1:
        raise ValueError(f"bad rational {p}/{q}")
    opts = options or solvers.SolveOptions()
    ss = np.arange(n) / n
    if q == 1:
        vals = np.asarray(model.eval_h(ss, ss + p), dtype=float)
        return float(vals.max() - vals.min())
    base = solvers.best_minimizer(model, p, q, opts)
    x = np.asarray(base.positions, dtype=float)
    seed0 = x[1:] - x[0]  # interior sites for a pin at s = 0
    fwd = np.empty(n + 1)
    w_init = seed0.copy()
    for j in range(n + 1):
        fwd[j], w_init = _pinned_action(model, p, q, j / n, w_init, opts)
    if abs(fwd[-1] - fwd[0]) > 1e-8 * max(1.0, abs(fwd[0])):
        raise NoConvergence(f"pinned sweep did not close up for {p}/{q}")
    bwd = np.empty(n + 1)
    w_init = seed0 + 1.0
    for j in range(n, -1, -1):
        bwd[j], w_init = _pinned_action(model, p, q, j / n, w_init, opts)
    vals = np.minimum(fwd, bwd)[:n]
    return float(vals.max() - vals.min())
