"""Newton solvers for periodic and clamped-segment minimal configurations.

Both problems minimize the twist-map action with one damped Newton driver,
_damped_newton: Armijo backtracking on the action, full steps once the
residual is below 1e-6, and a fallback step whenever the structured one is
missing, not a descent direction, or exploding.  Two adapters supply what
differs between the problems:

- newton_periodic_u: q-periodic configurations in displacement coordinates.
  The Hessian is tridiagonal plus a corner entry, solved as a rank-one
  Sherman-Morrison update of LAPACK dgtsv (both right-hand sides on one
  factorization; skipped for q <= 3).  Its fallback is the Gershgorin-shifted
  cyclic solve of shifted_newton_direction, O(q), except at q <= 3, where the
  couplings fold onto at most a 3x3 matrix: the dense eigenvalue-clipped step.
  solve_all_starts_many runs the starts of many rationals with q >= 4 as
  stacks of starts, and solve_all_starts is its one-rational case.
- newton_segment: interior sites of a segment with clamped ends.  The
  Hessian is tridiagonal (dgtsv), the fallback the same shifted solve on the
  open chain.  newton_segment_starts runs many starts of one problem together.

Each start is one coroutine, _newton_start: the plain damped Newton loop on
its own state, which yields whenever it needs an evaluation and receives the
value.  There are four request kinds:

- _LOCAL: the gradient and the Hessian parts (diag, off) at a state, from
  one model pass (PeriodicProblem.local, segment_local): one reduction and
  one sin/cos pass of GeneratingModel.potential_d12 give V' and V'', and the
  sums run in the order of d2h + d1h and d11h + d22h, so every value is
  bitwise what the separate partials give.
- _STEP: the structured Newton step on those parts, nothing else.
- _FALLBACK: the fallback direction on those parts, when the step is
  missing, not a descent direction, or exploding.
- _ACTION: the action at a state, for the Armijo search.

A start keeps the action of its accepted trial as the next iterate's a0
instead of asking for it again, and drops it after a full step.  The action
depends only on the state's bytes, and a stacked row's total equals the
lone one, so the carried value is the one a fresh request would return.

_damped_newton runs a stack of starts together and answers each round of
requests with one evaluation on the stacked states or parts; a lone request
is answered as it is, without stacking.  A stack's rows may belong to
different periodic problems of one model (PeriodicStack: rows of many
lengths end to end, with their bounds), and then every evaluation works on
the rows end to end.  Each start gets exactly what it would get alone, bit
for bit:

- The model kernels are elementwise, and an action total is the pairwise
  sum of the row's own terms: a sum over the last axis of the rows of one q,
  the same as for one row alone.
- All tridiagonal blocks of a round go through one dgtsv on the
  block-diagonal stack.  The zero coupling between blocks keeps elimination
  inside each block; it adds or subtracts only signed zeros across the
  seam.  When the stacked solve fails or returns a non-finite entry (which
  0 * inf would spread to the next block), every row is solved alone.
- The cyclic solve (solve_cyclic_tridiag_stack) takes rows of any length
  >= 3 end to end: that stacked solve on the Sherman-Morrison-modified
  blocks, with two right-hand-side columns, each block's step and its vector
  gamma*e0 + corner*e_{q-1}, and then each row's own rank-one correction.
  The lone and same-q solves are cases of it, so the update is written once.
  A row whose denominator is 0 or non-finite gets no step, undivided.
- The shifted fallback of a round (shifted_newton_directions) takes each
  row's Gershgorin shift from minimum/maximum.reduceat, which are exact,
  makes one stacked shifted solve, and tests each row's descent with its
  own BLAS ddot.
- Everything else (slopes, step checks, steepest-descent guard, Armijo step
  lengths) is the start's own arithmetic on its own arrays; per-row dot
  products stay BLAS ddot, whose rounding a row-wise einsum or sum would not
  reproduce.

Fallbacks are answered before searches, searches before steps and steps
before local kernels, so the starts stay in step: every active start asks
for its next local kernel in the same round.

One iterate maps a start's state to the next and depends on nothing else
(a carried action is that state's own), so once a state repeats bit for
bit every later state is known: when x_i equals an earlier x_k, the start
would cycle with period i - k up to max_iter and end on x_j with
j = k + (max_iter - k) mod (i - k).  It returns x_j, its
residual and residual < tol at once, which is what running on to max_iter
returns.  The cycles seen in practice are full steps at the float noise
floor, just above the target, so states are recorded from a start's first
full step on; a start that never takes one runs on as it always did.

Minimality is certified by Sylvester's law of inertia: H + shift*I is
positive definite exactly when every LDL^T pivot (LAPACK dpttrf) of the open
chain is positive and, in the periodic case, so is the Schur complement of
the last site, which couples to site 0 through the corner.  Critical points
are deduplicated by class_distance, which compares in full only the index
shifts that pass two one-site filters: site 0, and the site circularly
farthest from it, must each come within the threshold.

The periodic problem is solved in displacement coordinates u_i = x_i - i*p/q
(periodic in i, O(1) magnitude).  Working on the lift directly quantizes
positions at ulp(p), which floors the residual near p * eps * d11h and breaks
the 1e-12 tolerance once p is large; in u-coordinates every partial-derivative
argument is O(1), using only the integer-translation invariance
h(x+1, x'+1) = h(x, x') guaranteed by the model contract.  All final action
totals go through math.fsum so repeated runs and cache round-trips are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs

from .errors import NoConvergence, SaddleOnly
from .model import GeneratingModel


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-12
    max_iter: int = 120
    starts: int = 6
    jitter: float = 0.2
    seed: int = 0
    psd_shift: float = 1e-8
    action_tie: float = 1e-9  # per-site action tie tolerance


@dataclass
class CriticalPoint:
    label: str
    positions: np.ndarray  # canonical lift period, x0 in [0,1)
    action: float
    residual_sup: float
    psd: bool


# ---- linear solves --------------------------------------------------------


def tridiag_dense(diag, off):
    """Dense symmetric matrix with diagonal diag and off[i] coupling i and i+1.

    With len(off) == len(diag) the last entry couples n-1 and 0 (the periodic
    corner); couplings landing on the same entry add, as they do for q <= 2.
    """
    n = len(diag)
    H = np.diag(np.asarray(diag, dtype=float))
    i = np.arange(len(off))
    j = (i + 1) % n
    np.add.at(H, (i, j), off)
    np.add.at(H, (j, i), off)
    return H


def solve_tridiag_sym(diag, off, rhs):
    """Solve the symmetric tridiagonal system (LAPACK dgtsv); None on failure.

    rhs may be one vector or a matrix of right-hand-side columns.
    """
    if len(diag) == 1:
        # the f2py wrapper rejects the empty off-diagonals of n = 1
        out = np.asarray(rhs, dtype=float) / diag[0]
    else:
        *_, out, info = dgtsv(off, diag, off, rhs)
        if info != 0:
            return None
    return out if np.all(np.isfinite(out)) else None


def _solve_blocks(diag, couple, rhs, bounds):
    """Solutions of the block-diagonal tridiagonal system (diag, couple) for rhs.

    Block j holds the rows bounds[j]:bounds[j+1], couple[i] couples rows i
    and i+1 and is zero between blocks, and rhs is one column or several.
    Several blocks, unless every one is a single row, go through one dgtsv
    on the whole stack: the zero coupling keeps elimination inside each block and adds or
    subtracts only signed zeros across the seam.  Returns that solution, or,
    when the stacked solve fails or returns a non-finite entry (which 0 * inf
    would spread to the next block), a list with each block solved alone
    (solve_tridiag_sym): its solution or None.
    """
    if len(bounds) > 2 and len(diag) > len(bounds) - 1:
        *_, out, info = dgtsv(couple, diag, couple, rhs)
        if info == 0 and np.all(np.isfinite(out)):
            return out
    return [solve_tridiag_sym(diag[a:b], couple[a : b - 1], rhs[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])]


def solve_cyclic_tridiag_sym(diag, off, corner, rhs):
    """Solve (tridiag + symmetric corner) via a rank-one Sherman-Morrison update.

    off has length n-1 (interior couplings); corner couples entries 0 and n-1,
    n >= 3 (below, the couplings fold onto one another).  This is the one-row
    case of solve_cyclic_tridiag_stack.
    """
    n = len(diag)
    if n < 3:
        raise ValueError(f"a cyclic tridiagonal system needs n >= 3, got {n}")
    return solve_cyclic_tridiag_stack(diag, np.append(off, corner), np.array([0, n]), rhs)[0]


def solve_cyclic_tridiag_stack(diag, off, bounds, rhs):
    """Per-row solutions of the cyclic systems stacked in (diag, off), None for a failed row.

    Row j holds the sites bounds[j]:bounds[j+1], at least three; off[i]
    couples sites i and i+1 of a row, and a row's last entry of off is its
    corner, coupling its last site and its first.  The rank-one
    Sherman-Morrison update moves each corner into gamma*e0 + corner*e_{n-1};
    the modified blocks are solved for rhs and that vector as two columns
    (_solve_blocks), and each row gets its own correction.  A row whose
    modified solve or denominator fails is None, undivided.
    """
    first, last = bounds[:-1], bounds[1:] - 1
    corner = off[last]
    gamma = -diag[first]
    gamma[gamma == 0.0] = 1.0
    d = diag.copy()
    d[first] -= gamma
    d[last] -= corner * corner / gamma
    couple = off.copy()
    couple[last] = 0.0
    b = np.zeros((len(diag), 2))
    b[:, 0] = rhs
    b[first, 1] = gamma
    b[last, 1] = corner
    yz = _solve_blocks(d, couple[:-1], b, bounds)
    if not isinstance(yz, np.ndarray):
        # a failed row is NaN, so its denominator test fails too
        yz = np.concatenate([np.full((hi - lo, 2), np.nan) if r is None else r
                             for lo, hi, r in zip(first, bounds[1:], yz)])
    y, z = yz[:, 0], yz[:, 1]
    # v = e0 + (corner/gamma) e_{n-1}
    ratio = corner / gamma
    vy = y[first] + ratio * y[last]
    denom = 1.0 + (z[first] + ratio * z[last])
    solved = (denom != 0.0) & np.isfinite(denom)
    scale = np.divide(vy, denom, out=np.zeros(len(first)), where=solved)
    out = y - z * np.repeat(scale, np.diff(bounds))
    solved &= np.logical_and.reduceat(np.isfinite(out), first)
    return [out[lo:hi] if ok else None for lo, hi, ok in zip(first, bounds[1:], solved)]


def ldlt_tridiag(d, e):
    """Pivots and multipliers of the LDL^T factorization (LAPACK dpttrf).

    Returns None unless every pivot is positive, i.e. unless the symmetric
    tridiagonal matrix (d, e) is positive definite.
    """
    if len(d) == 1:
        return (d, e) if d[0] > 0.0 else None
    piv, mult, info = dpttrf(d, e)
    return (piv, mult) if info == 0 and np.all(piv > 0.0) else None


def modified_newton_direction(H, g):
    """Eigenvalue-clipped descent direction -U f(L)^-1 U^T g with f = max(|l|, floor).

    Handles indefinite and singular Hessians; near-null components of g are
    damped by the floor instead of exploding.
    """
    lam, U = np.linalg.eigh(H)
    lam_abs = np.abs(lam)
    floor = max(1e-8 * float(lam_abs.max(initial=0.0)), 1e-12)
    inv = 1.0 / np.maximum(lam_abs, floor)
    return -(U @ (inv * (U.T @ g)))


def shifted_newton_direction(diag, off, g, corner=None):
    """Descent direction s from (H + mu*I) s = -g, O(n); -g if that solve fails.

    H is the tridiagonal (diag, off), cyclic when corner couples 0 and n-1
    (n >= 3).  The Gershgorin shift mu makes H + mu*I strictly diagonally
    dominant.  This is the one-row case of shifted_newton_directions.
    """
    return shifted_newton_directions(diag, np.append(off, 0.0 if corner is None else corner), g,
                                     np.array([0, len(diag)]), corner is not None)[0]


def shifted_newton_directions(diag, off, g, bounds, cyclic):
    """The shifted Newton direction of each row stacked in (diag, off, g), one per row.

    Row j holds the sites bounds[j]:bounds[j+1]; off[i] couples sites i and
    i+1 of a row, and a row's last entry of off couples its last site and its
    first: the corner when cyclic, 0 on an open chain.  Row j's shift is
    mu = max(0, -min(diag - radius)) + 1e-3 * max(1, max|diag|) over its own
    sites (reduceat, which is exact; fmax skips a NaN), which makes H + mu*I
    strictly diagonally dominant.  The shifted rows go through one stacked
    solve, and each row's descent test is its own BLAS ddot, so every row
    gets what it gets alone, bit for bit; a row whose solve fails or does
    not descend gets -g.
    """
    first, last = bounds[:-1], bounds[1:] - 1
    a = np.abs(off)  # a[i] couples i, i+1
    prv = np.arange(-1, len(a) - 1)
    prv[first] = last
    radius = a + a[prv]
    mu = (np.fmax(0.0, -np.minimum.reduceat(diag - radius, first))
          + 1e-3 * np.fmax(1.0, np.maximum.reduceat(np.abs(diag), first)))
    shifted = diag + np.repeat(mu, np.diff(bounds))
    if cyclic:
        steps = solve_cyclic_tridiag_stack(shifted, off, bounds, -g)
    else:
        steps = _solve_blocks(shifted, off[:-1], -g, bounds)
        if isinstance(steps, np.ndarray):
            steps = [steps[lo:hi] for lo, hi in zip(first, bounds[1:])]
    out = []
    for lo, hi, s in zip(first, bounds[1:], steps):
        gj = g[lo:hi]
        out.append(-gj if s is None or float(np.dot(gj, s)) >= 0.0 else s)
    return out


# ---- local kernels ------------------------------------------------------------


def _local(model, xp, x, xn, off_shape):
    """Gradient and Hessian parts at sites x with neighbours xp and xn.

    The same operations as d2h(xp, x) + d1h(x, xn), d11h(x, xn) + d22h(xp, x)
    and d12h, in the same order, with V' and V'' from one potential_d12.
    """
    a = model.a
    d1, d2 = model.potential_d12(x)
    g = -2.0 * a * (xp - x) + (2.0 * a * (x - xn) + d1)
    diag = (2.0 * a + d2) + 2.0 * a
    return g, diag, np.full(off_shape, -2.0 * a)


# ---- periodic problem in displacement coordinates ---------------------------


class PeriodicProblem:
    """State u with x_i = u_i + i*p/q; u is q-periodic."""

    def __init__(self, model: GeneratingModel, p: int, q: int):
        self.model = model
        self.p = int(p)
        self.q = int(q)
        self.rat = p / q
        # (i*p) mod q is exact in integers; one rounding in the division
        self.frac = ((np.arange(q) * p) % q) / q
        # neighbor indices: u[_nxt] is np.roll(u, -1), u[_prv] is np.roll(u, 1)
        self._nxt = (np.arange(q) + 1) % q
        self._prv = (np.arange(q) - 1) % q

    def z(self, u):
        return np.mod(u + self.frac, 1.0)

    def dnxt(self, u):
        return u[..., self._nxt] - u + self.rat  # x_{i+1} - x_i

    def dprev(self, u):
        return u[..., self._prv] - u - self.rat  # x_{i-1} - x_i

    def local(self, u):
        """(g, diag, off) of one state or a stack, from one model pass.

        g is the gradient d2h(z_prev, z) + d1h(z, z_next); diag (d11h + d22h)
        and off (d12h, its last entry the corner) are the Hessian parts.
        """
        z = self.z(u)
        return _local(self.model, z + self.dprev(u), z, z + self.dnxt(u), z.shape)

    def action_fast(self, u):
        """The action of one state, or one total per row of a stack."""
        z = self.z(u)
        return np.sum(self.model.eval_h(z, z + self.dnxt(u)), axis=-1)

    def action_exact(self, u):
        z = self.z(u)
        terms = np.asarray(self.model.eval_h(z, z + self.dnxt(u)), dtype=float)
        return math.fsum(terms.tolist())

    def hessian_parts(self, u):
        return self.local(u)[1:]

    def from_lift(self, x):
        return np.asarray(x, dtype=float) - np.arange(self.q) * self.rat

    def canonical_shift(self, u):
        """Index shift whose representative has the smallest x0 in [0,1)."""
        z = self.z(u)
        order = np.argsort(z, kind="stable")
        ties = order[np.abs(z[order] - z[order[0]]) <= 1e-12]
        # break exact ties lexicographically on the rolled fractional
        # sequence: keep the ties whose k-th rolled entry is smallest, k =
        # 0, 1, ...; a tie that survives all q keeps its place in order
        for k in range(self.q):
            if len(ties) == 1:
                break
            zk = z[(ties + k) % self.q]
            ties = ties[zk == zk.min()]
        return int(ties[0])

    def to_lift(self, u, shift=None):
        """Canonical lift period: x0 in [0,1), x_{i+q} = x_i + p."""
        m = self.canonical_shift(u) if shift is None else shift
        q = self.q
        i = np.arange(q)
        um = u[(m + i) % q]
        z0 = float(np.mod(u[m] + self.frac[m], 1.0))
        return (um - u[m]) + i * self.rat + z0


def periodic_hessian_dense(model, x, p, q):
    """Second variation on a lift period (small q; hyperbolicity reports)."""
    x = np.asarray(x, dtype=float)
    prob = PeriodicProblem(model, p, q)
    return tridiag_dense(*prob.hessian_parts(prob.from_lift(x)))


class PeriodicStack:
    """The states of several periodic problems of one model, end to end in one vector.

    Row j holds the sites bounds[j]:bounds[j+1], a state of probs[j]; the
    neighbour indices wrap inside each row, and z, dnxt, dprev and local act
    on the whole vector as PeriodicProblem's act on one state.  action_fast
    sums each run of adjacent rows of one q as one (rows, q) block: the
    pairwise sum of each row, as for the row alone (np.add.reduceat would sum
    each row in sequence, which rounds differently).  So rows of one q
    belong together.
    """

    z = PeriodicProblem.z
    dnxt = PeriodicProblem.dnxt
    dprev = PeriodicProblem.dprev
    local = PeriodicProblem.local

    def __init__(self, probs):
        qs = [prob.q for prob in probs]
        self.model = probs[0].model
        self.bounds = np.cumsum([0] + qs)
        first, last = self.bounds[:-1], self.bounds[1:] - 1
        n = int(self.bounds[-1])
        self.frac = np.concatenate([prob.frac for prob in probs])
        self.rat = np.repeat([prob.rat for prob in probs], qs)
        self._nxt = np.arange(1, n + 1)
        self._nxt[last] = first
        self._prv = np.arange(-1, n - 1)
        self._prv[first] = last
        # (first site, end site, q) of each run of rows with one q
        qs = np.array(qs)
        runs = np.flatnonzero(np.diff(qs, prepend=0, append=0))
        self._runs = list(zip(self.bounds[runs[:-1]].tolist(), self.bounds[runs[1:]].tolist(),
                              qs[runs[:-1]].tolist()))

    def rows(self, v):
        """The row slices of a stacked vector."""
        b = self.bounds.tolist()
        return [v[lo:hi] for lo, hi in zip(b[:-1], b[1:])]

    def action_fast(self, u):
        """One action total per row."""
        z = self.z(u)
        terms = self.model.eval_h(z, z + self.dnxt(u))
        return np.concatenate([terms[lo:hi].reshape(-1, q).sum(axis=-1)
                               for lo, hi, q in self._runs])


# evaluation requests of _newton_start, in the order the batch serves them
_FALLBACK, _ACTION, _STEP, _LOCAL = range(4)


def _newton_start(x, free, opts):
    """One start of the damped Newton iteration, as a coroutine on its state x.

    It yields the evaluations it needs and receives their values:
    (_LOCAL, x) -> (g, diag, off), the gradient and the Hessian parts;
    (_STEP, (diag, off, g)) -> the structured Newton step for -g or None;
    (_FALLBACK, (diag, off, g)) -> the direction that replaces a step that is
    missing, not a descent direction, or exploding; (_ACTION, x) -> float.
    The action of an accepted trial is the next iterate's a0; a full step
    drops it.  Returns (x, residual_sup, ok).
    """
    target = 0.25 * opts.tol  # margin so re-evaluation stays under tol
    seen = None  # state bytes -> iterate, from the first full step on
    a = None  # the action of x, when a search has evaluated it
    for it in range(opts.max_iter):
        if seen is not None:
            key = x.tobytes()
            k = seen.setdefault(key, it)
            if k != it:
                # x repeats iterate k, so the loop would cycle with period
                # it - k until max_iter and end on the state of iterate i
                i = k + (opts.max_iter - k) % (it - k) - first
                return np.frombuffer(states[i]).copy(), resids[i], resids[i] < opts.tol
            states.append(key)
        g, diag, off = yield _LOCAL, x
        res = float(np.abs(g).max())
        if res < target:
            return x, res, True
        if seen is not None:
            resids.append(res)
        elif res < 1e-6:
            first, key = it, x.tobytes()
            seen, states, resids = {key: it}, [key], [res]
        s = yield _STEP, (diag, off, g)
        if s is None or float(np.dot(g, s)) >= 0.0 or np.abs(s).max() > 1e8 * (1.0 + np.abs(x).max()):
            s = yield _FALLBACK, (diag, off, g)
        slope = float(np.dot(g, s))
        if slope >= 0.0:
            s = -g
            slope = -float(np.dot(g, g))
        if res < 1e-6:
            # quadratic basin: full steps, no action comparisons in noise
            x[free] += s
            a = None
            continue
        a0 = (yield _ACTION, x) if a is None else a
        t = 1.0
        while t >= 2.0 ** -40:
            xt = x.copy()
            xt[free] += t * s
            a = yield _ACTION, xt
            if a <= a0 + 1e-4 * t * slope:
                x = xt
                break
            t *= 0.5
        else:
            return x, res, False
    res = float(np.abs((yield _LOCAL, x)[0]).max())
    return x, res, res < opts.tol


def _damped_newton(x, free, rows, opts):
    """Damped Newton with Armijo backtracking on the sites [free] of each row of x.

    Each row of x is one start (_newton_start), and the starts advance
    together: the evaluations they ask for in the same round are made once,
    by rows.many(kind, batch, args) on the starts in batch and their
    arguments, stacked, which returns one value per start.  A lone request
    is answered by rows.one(kind, i, arg) as it is.  The gradient and the
    Hessian parts cover only the free sites.  Returns one (x, residual_sup,
    ok) per row.
    """
    starts = [_newton_start(np.array(row, dtype=float), free, opts) for row in x]
    if len(starts) == 1:
        # nothing to batch: each request is answered as it comes
        start, = starts
        request = next(start)
        try:
            while True:
                request = start.send(rows.one(request[0], 0, request[1]))
        except StopIteration as stop:
            return [stop.value]
    out = [None] * len(starts)
    requests = {i: next(start) for i, start in enumerate(starts)}
    while requests:
        # fallbacks, then searches, so that every start asks for its next
        # local kernel in the same round
        kind = min(request[0] for request in requests.values())
        batch = [i for i, request in requests.items() if request[0] == kind]
        if len(batch) == 1:
            values = [rows.one(kind, batch[0], requests[batch[0]][1])]
        else:
            values = rows.many(kind, batch, [requests[i][1] for i in batch])
        for i, value in zip(batch, values):
            try:
                requests[i] = starts[i].send(value)
            except StopIteration as stop:
                out[i] = stop.value
                del requests[i]
    return out


class _PeriodicRows:
    """The evaluations of periodic starts: row i is a start of probs[i].

    The rows of one problem are adjacent, and so are the rows of one q.  A
    round of one problem's starts is its (m, q) stack; a round that mixes
    problems is a PeriodicStack.  Both give each row what it gets alone.  At
    q <= 3 there is no structured step, and the fallback is the dense
    eigenvalue-clipped one: the couplings fold onto at most a 3x3 matrix.
    """

    def __init__(self, probs):
        self.probs = probs

    def one(self, kind, i, arg):
        prob = self.probs[i]
        if kind == _LOCAL:
            return prob.local(arg)
        if kind == _ACTION:
            return float(prob.action_fast(arg))
        diag, off, g = arg
        if prob.q <= 3:
            return None if kind == _STEP else modified_newton_direction(tridiag_dense(diag, off), g)
        if kind == _STEP:
            return solve_cyclic_tridiag_sym(diag, off[:-1], float(off[-1]), -g)
        return shifted_newton_direction(diag, off[:-1], g, float(off[-1]))

    def many(self, kind, batch, args):
        probs = self.probs
        if kind == _LOCAL or kind == _ACTION:
            if probs[batch[0]] is probs[batch[-1]]:
                prob, u = probs[batch[0]], np.array(args)
                return zip(*prob.local(u)) if kind == _LOCAL else prob.action_fast(u).tolist()
            stack = PeriodicStack([probs[i] for i in batch])
            u = np.concatenate(args)
            if kind == _ACTION:
                return stack.action_fast(u).tolist()
            return zip(*(stack.rows(v) for v in stack.local(u)))
        if probs[batch[0]].q <= 3:
            return [self.one(kind, i, arg) for i, arg in zip(batch, args)]
        diag, off, g = (np.concatenate(parts) for parts in zip(*args))
        bounds = np.cumsum([0] + [probs[i].q for i in batch])
        if kind == _STEP:
            return solve_cyclic_tridiag_stack(diag, off, bounds, -g)
        return shifted_newton_directions(diag, off, g, bounds, cyclic=True)


def newton_periodic_u(prob: PeriodicProblem, u0, opts: SolveOptions):
    """Damped Newton in displacement coordinates; returns (u, residual_sup, ok)."""
    return _damped_newton([u0], slice(None), _PeriodicRows([prob]), opts)[0]


def certify_psd_periodic_u(prob: PeriodicProblem, u, shift=1e-8):
    """True when H + shift*scale*I is positive definite, scale = max(1, max|H_ii|).

    By Sylvester's law of inertia this is the dense Cholesky test: the open
    chain of the first q-1 sites must have positive LDL^T pivots, and the
    Schur complement of site q-1, which couples to site q-2 and through the
    corner to site 0, must be positive.
    """
    diag, off = prob.hessian_parts(u)
    q = prob.q
    if q <= 2:
        # couplings fold onto the diagonal (q = 1) or one entry (q = 2)
        H = tridiag_dense(diag, off)
        scale = max(1.0, float(np.abs(np.diag(H)).max()))
        try:
            np.linalg.cholesky(H + shift * scale * np.eye(q))
            return True
        except np.linalg.LinAlgError:
            return False
    d = diag + shift * max(1.0, float(np.abs(diag).max()))
    factors = ldlt_tridiag(d[:-1], off[: q - 2])
    if factors is None:
        return False
    c = np.zeros(q - 1)
    c[0] = off[-1]
    c[-1] += off[q - 2]
    x, info = dpttrs(*factors, c)
    return info == 0 and bool(d[-1] - float(np.dot(c, x)) > 0.0)


# ---- seeds ------------------------------------------------------------------


def class_distance(x1, x2, q, tol):
    """Distance between configuration classes modulo shift and translation.

    Compares the q fractional entries z_i = x_i mod 1 under an index shift with
    a circular per-entry metric, so representatives on opposite sides of the
    seam (x near 0 versus x near 1) compare as the same class.  A shift can
    reach a maximum <= tol only if its entry at site 0 is within tol of
    z2[0], and its entry at site m within tol of z2[m], where m is the site
    of z2 circularly farthest from z2[0] (in a hyperbolic configuration most
    sites sit within tol of each other, so one site rarely decides).  Only
    the shifts passing both filters are compared in full: the result is the
    minimum over all shifts whenever that minimum is <= tol, and otherwise
    some value > tol (inf when no shift qualifies).
    """
    z1 = np.mod(np.asarray(x1, dtype=float), 1.0)
    z2 = np.mod(np.asarray(x2, dtype=float), 1.0)
    d0 = z1 - z2[0]
    d0 = np.abs(d0 - np.round(d0))
    cand = np.flatnonzero(d0 <= tol)
    if len(cand) > 1:
        dm = z2 - z2[0]
        m = int(np.argmax(np.abs(dm - np.round(dm))))
        dm = z1[(cand + m) % q] - z2[m]
        cand = cand[np.abs(dm - np.round(dm)) <= tol]
    zz = np.concatenate([z1, z1])
    best = np.inf
    for s in cand:
        d = zz[s : s + q] - z2
        d = np.abs(d - np.round(d))
        best = min(best, float(d.max()))
    return best


def integrable_seed(p, q, phase=0.0):
    return phase + np.arange(q) * (p / q)


def anti_integrable_seed(model, p, q, phase=0.0):
    """Each site snapped to the nearest lift of a potential minimum."""
    minima = model._minima
    t = phase + np.arange(q) * (p / q)
    d = t[:, None] - minima[None, :]
    shift = np.round(d)
    dist = np.abs(d - shift)
    pick = np.argmin(dist, axis=1)
    rows = np.arange(q)
    return minima[pick] + shift[rows, pick]


def build_seeds(model, p, q, opts: SolveOptions):
    seeds = [("integrable", integrable_seed(p, q))]
    try:
        seeds.append(("anti-integrable", anti_integrable_seed(model, p, q)))
        seeds.append(("anti-integrable+half", anti_integrable_seed(model, p, q, 0.5 / q)))
    except Exception:
        pass
    n_jitter = max(0, opts.starts - len(seeds))
    if n_jitter:
        ss = np.random.SeedSequence(entropy=opts.seed, spawn_key=(q, p % (2**32), 0x57A1))
        rng = np.random.default_rng(ss)
        for j in range(n_jitter):
            base = integrable_seed(p, q, float(rng.uniform(0.0, 1.0)))
            seeds.append((f"jitter-{j}", base + rng.uniform(-opts.jitter, opts.jitter, q)))
    return seeds


def _starts(model, p, q, opts: SolveOptions):
    """(prob, labels, U0): the problem of p/q and the label and displacement
    state of each seed, without a seed whose state has the bytes of an
    earlier one's: that start would only repeat the earlier start, whose
    class dedup drops the copy's result."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if math.gcd(abs(p), q) != 1:
        raise ValueError(f"p/q = {p}/{q} is not in lowest terms")
    prob = PeriodicProblem(model, p, q)
    labels, U0, seen = [], [], set()
    for label, s0 in build_seeds(model, p, q, opts):
        u0 = prob.from_lift(np.asarray(s0, dtype=float))
        key = u0.tobytes()
        if key not in seen:
            seen.add(key)
            labels.append(label)
            U0.append(u0)
    return prob, labels, U0


def _critical_points(prob: PeriodicProblem, labels, solved, opts: SolveOptions):
    """The distinct critical points of the converged starts, by action.

    Deduplication is by class_distance within 1e-8, in start order, so the
    PSD certificate runs once per class.
    """
    found: list[CriticalPoint] = []
    for label, (u, res, ok) in zip(labels, solved):
        if not ok:
            continue
        lift = prob.to_lift(u)
        if any(class_distance(lift, c.positions, prob.q, 1e-8) <= 1e-8 for c in found):
            continue
        psd = certify_psd_periodic_u(prob, u, opts.psd_shift)
        found.append(
            CriticalPoint(
                label=label,
                positions=lift,
                action=prob.action_exact(u),
                residual_sup=res,
                psd=psd,
            )
        )
    return sorted(found, key=lambda c: (c.action, tuple(c.positions)))


def solve_all_starts(model, p, q, opts: SolveOptions):
    """Runs every distinct seed to convergence; returns distinct critical points."""
    return solve_all_starts_many(model, [(p, q)], opts)[0]


# q from which a rational's starts run in a stack of their own: one stack for
# every q >= 4 left scan-cold's wall time unchanged (about 0.43 s on a 2-core
# host) and raised its peak RSS from 64.5 to 69.6 MB
_STACK_Q = 100


def solve_all_starts_many(model, rationals, opts: SolveOptions):
    """The distinct critical points of each rational (p, q), one list per rational.

    The starts of every rational with 4 <= q < _STACK_Q run as one stack
    (_PeriodicRows), so each round pays numpy's call overhead once for all of
    them: one model pass, one cyclic solve and one shifted fallback over
    rows of many lengths.  A rational with q >= _STACK_Q is a stack of its
    own, and at q <= 3 each start runs alone (newton_periodic_u: a stack
    gives the same bytes, but perfbench/test_bypass.py counts these calls;
    ROADMAP item 7.4).  Each start gets bit for bit what it gets alone.
    """
    starts = [_starts(model, p, q, opts) for p, q in rationals]
    shared = sorted((j for j, (prob, _, _) in enumerate(starts) if 4 <= prob.q < _STACK_Q),
                    key=lambda j: starts[j][0].q)
    stacks = [shared] + [[j] for j, (prob, _, _) in enumerate(starts) if prob.q >= _STACK_Q]
    solved = {j: [newton_periodic_u(prob, u0, opts) for u0 in U0]
              for j, (prob, _, U0) in enumerate(starts) if prob.q <= 3}
    for stack in stacks:
        probs = [starts[j][0] for j in stack for _ in starts[j][2]]
        rows = iter(_damped_newton([u0 for j in stack for u0 in starts[j][2]], slice(None),
                                   _PeriodicRows(probs), opts))
        solved.update((j, [next(rows) for _ in starts[j][2]]) for j in stack)
    return [_critical_points(prob, labels, solved[j], opts)
            for j, (prob, labels, _) in enumerate(starts)]


def best_minimizer(model, p, q, opts: SolveOptions, points=None) -> CriticalPoint:
    """The least-action certified minimum among points, the critical points of
    p/q (solve_all_starts unless given)."""
    if points is None:
        points = solve_all_starts(model, p, q, opts)
    if not points:
        raise NoConvergence(f"no start converged for p/q = {p}/{q}")
    minima = [c for c in points if c.psd]
    if not minima:
        raise SaddleOnly(f"only indefinite critical points found for p/q = {p}/{q}")
    return minima[0]


# ---- clamped segments -------------------------------------------------------


def segment_action(model: GeneratingModel, w: np.ndarray) -> float:
    return math.fsum(np.asarray(model.eval_h(w[:-1], w[1:]), dtype=float).tolist())


def _segment_action_fast(model, w, lo, hi):
    # only the steps touching free sites [lo, hi), one total per row of w
    a, b = lo - 1, hi
    return model.eval_h(w[..., a:b], w[..., a + 1 : b + 1]).sum(axis=-1)


def segment_local(model, w, lo, hi):
    """(g, diag, off) over the free sites [lo, hi) of one state w or a stack."""
    return _local(model, w[..., lo - 1 : hi - 1], w[..., lo:hi], w[..., lo + 1 : hi + 1],
                  w.shape[:-1] + (hi - lo - 1,))


def segment_hessian_parts(model, w, lo, hi):
    return segment_local(model, w, lo, hi)[1:]


class _SegmentRows:
    """The evaluations of clamped-segment starts: rows of one length, free sites [lo, hi)."""

    def __init__(self, model, lo, hi):
        self.model, self.lo, self.hi = model, lo, hi

    def one(self, kind, i, arg):
        if kind == _LOCAL:
            return segment_local(self.model, arg, self.lo, self.hi)
        if kind == _ACTION:
            return float(_segment_action_fast(self.model, arg, self.lo, self.hi))
        diag, off, g = arg
        if kind == _STEP:
            return solve_tridiag_sym(diag, off, -g)
        return shifted_newton_direction(diag, off, g)

    def many(self, kind, batch, args):
        if kind == _LOCAL:
            return zip(*segment_local(self.model, np.array(args), self.lo, self.hi))
        if kind == _ACTION:
            return _segment_action_fast(self.model, np.array(args), self.lo, self.hi).tolist()
        diag, off, g = (np.array(parts) for parts in zip(*args))
        m, k = diag.shape
        couple = np.zeros((m, k))  # a row's last entry couples nothing
        couple[:, :-1] = off
        diag, couple, g = diag.ravel(), couple.ravel(), g.ravel()
        bounds = np.arange(0, m * k + 1, k)
        if kind == _STEP:
            steps = _solve_blocks(diag, couple[:-1], -g, bounds)
            return steps.reshape(m, k) if isinstance(steps, np.ndarray) else steps
        return shifted_newton_directions(diag, couple, g, bounds, cyclic=False)


def newton_segment_starts(model, W0, n_fix_left, n_fix_right, opts: SolveOptions):
    """newton_segment for every row of W0 at once: one (w, residual_sup, converged) per row.

    The rows share one model evaluation and one stacked tridiagonal solve per
    iterate; each row's result equals its own newton_segment bit for bit.
    """
    W = np.asarray(W0, dtype=float)
    n = W.shape[1]
    lo, hi = n_fix_left, n - n_fix_right
    if n_fix_left < 1 or n_fix_right < 1:
        raise ValueError("segment needs at least one clamped site per end")
    if hi <= lo:
        return [(w.copy(), 0.0, True) for w in W]
    return _damped_newton(W, slice(lo, hi), _SegmentRows(model, lo, hi), opts)


def newton_segment(model, w0, n_fix_left, n_fix_right, opts: SolveOptions):
    """Minimize the segment action over interior sites with clamped ends.

    w0 holds all site values; the first n_fix_left and last n_fix_right stay
    fixed.  Returns (w, residual_sup, converged); residual over free sites.
    """
    return newton_segment_starts(model, [w0], n_fix_left, n_fix_right, opts)[0]


def certify_psd_segment(model, w, n_fix_left, n_fix_right, shift=1e-8):
    """True when the free-site Hessian plus shift*scale*I is positive definite."""
    n = len(w)
    lo, hi = n_fix_left, n - n_fix_right
    if hi <= lo:
        return True
    diag, off = segment_hessian_parts(model, w, lo, hi)
    scale = max(1.0, float(np.abs(diag).max()))
    return ldlt_tridiag(diag + shift * scale, off) is not None
