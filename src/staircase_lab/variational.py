"""Periodic minimal configurations and the minimal-action average beta.

A (p, q) configuration is one period x_0..x_{q-1} of a lift satisfying
x_{i+q} = x_i + p.  minimize_periodic certifies the global minimizer by
multistart Newton plus a positive-semidefiniteness check of the second
variation; beta(p/q) is the certified action divided by q.  The record is
solvers.PeriodicConfiguration (re-exported here), handed on as solved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import solvers
from .errors import NoConvergence, SaddleOnly, StaircaseLabError
from .model import GeneratingModel
from .solvers import PeriodicConfiguration, SolveOptions


@dataclass
class MinimizerSet:
    p: int
    q: int
    configurations: list[PeriodicConfiguration]
    multiplicity: int
    uniqueness_flag: bool
    degenerate: bool


@dataclass
class MinimalityReport:
    ok: bool
    witness: tuple | None
    worst_improvement: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class OrderReport:
    ok: bool
    witness: tuple | None  # (index_a, index_b, site)

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class GapReport:
    largest: float
    points: np.ndarray


def minimize_periodic(
    model: GeneratingModel,
    p: int,
    q: int,
    options: SolveOptions | None = None,
) -> PeriodicConfiguration:
    """Certified (p, q)-periodic minimizer (smallest action over all starts)."""
    return solvers.best_minimizer(model, p, q, options or SolveOptions())


def minimize_periodic_many(
    model: GeneratingModel,
    rationals,
    options: SolveOptions | None = None,
) -> dict:
    """{(p, q): minimize_periodic(model, p, q, options), or the typed error it
    raises}, with the starts of all the rationals solved together
    (solvers.solve_all_starts_many); each result is minimize_periodic's."""
    opts = options or SolveOptions()
    out: dict = {}
    for (p, q), points in zip(rationals, solvers.solve_all_starts_many(model, rationals, opts)):
        try:
            out[(p, q)] = solvers.best_minimizer(model, p, q, opts, points)
        except StaircaseLabError as exc:
            out[(p, q)] = exc
    return out


def beta_at(
    model: GeneratingModel,
    p: int,
    q: int,
    cache=None,
    options: SolveOptions | None = None,
    pooled: dict | None = None,
) -> float:
    """Minimal action average beta(p/q); consults the cache when given.

    pooled maps (p, q) to the configuration, or the typed error, of a solve
    done ahead of time (the scan's pool_solves).  A cache miss takes that
    result instead of solving, re-raising a recorded error, and is then
    written to the cache as a fresh solve would be.
    """
    if cache is not None:
        hit = cache.get(model, p, q)
        if hit is not None:
            return hit.action_total / q
    cfg = pooled.get((p, q)) if pooled else None
    if isinstance(cfg, Exception):
        raise cfg
    if cfg is None:
        cfg = minimize_periodic(model, p, q, options)
    if cache is not None:
        cache.put(model, cfg)
    return cfg.beta


def rotation_number(positions) -> float:
    """(x_{N-1} - x_0) / (N - 1) for a lift sequence."""
    x = np.asarray(positions, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two sites")
    return float((x[-1] - x[0]) / (len(x) - 1))


def order_check(sequences, tol: float = 1e-12) -> OrderReport:
    """True iff every pair is identical or strictly ordered sitewise."""
    seqs = [np.asarray(s, dtype=float) for s in sequences]
    n = {len(s) for s in seqs}
    if len(n) != 1:
        raise ValueError("sequences must share a common index window")
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            d = seqs[i] - seqs[j]
            if np.abs(d).max() <= tol:
                continue
            if d.min() > tol or d.max() < -tol:
                continue
            # locate the first site breaking the dominant sign
            sign = 1.0 if d.max() > -d.min() else -1.0
            bad = np.nonzero(sign * d <= tol)[0]
            site = int(bad[0]) if len(bad) else int(np.argmin(sign * d))
            return OrderReport(False, (i, j, site))
    return OrderReport(True, None)


def verify_minimality(
    model: GeneratingModel,
    config: PeriodicConfiguration,
    w: int | None = None,
    tol: float = 1e-9,
    options: SolveOptions | None = None,
) -> MinimalityReport:
    """Re-minimizes every window of length <= w with fixed endpoints.

    Passes when no window's interior can be improved by more than tol.
    """
    opts = options or SolveOptions()
    q = config.q
    w = w if w is not None else 2 * q
    if w > 3 * q:
        raise ValueError("window length capped at 3q")
    worst = 0.0
    worst_witness = None
    for s in range(q):
        for L in range(2, w + 1):
            window = config.lift(s, s + L)
            base = solvers.segment_action(model, window)
            candidates = [window]
            lin = window.copy()
            lin[1:-1] = window[0] + (window[-1] - window[0]) * np.arange(1, L) / L
            candidates.append(lin)
            best = base
            for cand in candidates:
                out, _, ok = solvers.newton_segment(model, cand, 1, 1, opts)
                if ok:
                    best = min(best, solvers.segment_action(model, out))
            improvement = base - best
            if improvement > worst:
                worst = improvement
                worst_witness = (s, L)
    return MinimalityReport(worst <= tol, worst_witness if worst > tol else None, worst)


_ACTION_TIE = 1e-9  # per-site action gap within which two minimizer classes tie


def enumerate_minimizers(
    model: GeneratingModel,
    p: int,
    q: int,
    starts: int = 50,
    options: SolveOptions | None = None,
) -> MinimizerSet:
    """Distinct minimizers modulo index shift and integer translation."""
    if starts < q:
        raise ValueError("starts must be at least q")
    opts = replace(options or SolveOptions(), starts=starts)
    points = solvers.solve_all_starts(model, p, q, opts)
    minima = [c for c in points if c.is_certified_minimal]
    if not minima and points:
        raise SaddleOnly(f"only indefinite critical points found for {p}/{q}")
    if not minima:
        raise NoConvergence(f"no start converged for {p}/{q}")
    # merge classes modulo shift/translation symmetry
    classes: list[PeriodicConfiguration] = []
    for c in minima:
        if any(solvers.class_distance(c.positions, k.positions, q, 1e-7) <= 1e-7 for k in classes):
            continue
        classes.append(c)
    amin = min(c.action_total for c in classes)
    tie = [c for c in classes if c.action_total - amin <= _ACTION_TIE * q]
    return MinimizerSet(
        p=p,
        q=q,
        configurations=classes,
        multiplicity=len(classes),
        uniqueness_flag=len(tie) == 1,
        degenerate=len(tie) > 1,
    )


def mather_gaps(minimizers) -> GapReport:
    """Largest circular gap left by all orbit points projected to [0,1)."""
    if isinstance(minimizers, MinimizerSet):
        configs = minimizers.configurations
    elif isinstance(minimizers, PeriodicConfiguration):
        configs = [minimizers]
    else:
        configs = list(minimizers)
    pts = np.concatenate([np.mod(c.positions, 1.0) for c in configs])
    pts = np.sort(pts)
    keep = [pts[0]]
    for v in pts[1:]:
        if v - keep[-1] > 1e-10:
            keep.append(v)
    pts = np.asarray(keep)
    if len(pts) == 1:
        return GapReport(1.0, pts)
    gaps = np.diff(pts)
    wrap = pts[0] + 1.0 - pts[-1]
    return GapReport(float(max(gaps.max(), wrap)), pts)
