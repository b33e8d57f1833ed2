"""The shared damped-Newton driver against the two loops it replaced.

Both adapters must reproduce the oracle loops bit for bit: the same state,
the same residual and the same convergence flag, converged or not.  The
periodic cases cover the q <= 3 skip of the structured solve with its dense
eigenvalue-clipped fallback, and the Gershgorin-shifted cyclic fallback of
every q >= 4; the segment cases replay the clamped solves that pn_barrier,
verify_minimality and heteroclinic_segment actually make, whose fallback is
the Gershgorin-shifted solve on the open chain.  A start that leaves on a
repeated state, and each row of a newton_segment_starts batch, must give
what the loops give after max_iter, on the per-gap solves of the oracle
loop builder and on the one gap-1 batch of flatness_curve.
shifted_newton_direction, the fallback both problems share, is checked on
its edge cases and, in its cyclic form, bit for bit against the inline
code it replaced.  No start may evaluate the action of one state twice:
the accepted trial's action is the next search's a0.  The loops and pinned
sweeps that the segment solves build must agree with the former dense
segment fallback (newton_segment_loop_dense) in loop action and barrier.
"""

import contextlib
import dataclasses
import functools

import numpy as np
import oracles
import pytest

from staircase_lab import flatness, hyperbolicity, parse_model, scan, solvers, variational
from staircase_lab.errors import NoConvergence
from staircase_lab.model import GeneratingModel, frenkel_kontorova
from staircase_lab.solvers import PeriodicProblem, SolveOptions, build_seeds

from oracles import (
    concatenate_loop_per_gap,
    damped_newton_loop,
    gershgorin_cyclic_direction,
    newton_periodic_u_loop,
    newton_periodic_u_loop_dense,
    newton_segment_loop,
    newton_segment_loop_dense,
)

MODELS = {
    "fk": frenkel_kontorova(2.0),
    "fourier": GeneratingModel(
        family="fourier-potential", a=0.8, harmonics=((1, -0.3, 0.1), (2, 0.05, -0.04))
    ),
}
P_OF = {1: 0, 2: 1, 3: 1, 4: 1, 13: 5, 201: 77, 233: 89}
MAX_ITERS = (3, 120)


def assert_same(got, want):
    x, res, ok = got
    x_ref, res_ref, ok_ref = want
    assert x.tobytes() == x_ref.tobytes()
    assert res == res_ref or (np.isnan(res) and np.isnan(res_ref))
    assert ok == ok_ref


class Calls:
    """Counts the calls of owner.<name>, keeping their arguments, while still
    running the original."""

    def __init__(self, monkeypatch, owner, name):
        self.n = 0
        self.args = []
        original = getattr(owner, name)

        def counted(*args):
            self.n += 1
            self.args.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("max_iter", MAX_ITERS)
@pytest.mark.parametrize("q", sorted(P_OF))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_periodic_driver_matches_loop(name, q, max_iter, monkeypatch):
    model, p = MODELS[name], P_OF[q]
    opts = SolveOptions(max_iter=max_iter)
    prob = PeriodicProblem(model, p, q)
    dense = Calls(monkeypatch, solvers, "modified_newton_direction")
    cyclic = Calls(monkeypatch, solvers, "solve_cyclic_tridiag_sym")
    steps = Calls(monkeypatch, PeriodicProblem, "local")
    for _, seed in build_seeds(model, p, q, opts):
        u0 = prob.from_lift(seed)
        assert_same(solvers.newton_periodic_u(prob, u0, opts),
                    newton_periodic_u_loop(prob, u0, opts))
    if q <= 3:
        # no structured solve is tried; every step is the dense one
        assert cyclic.n == 0 and dense.n > 0
    else:
        # a second cyclic solve in one step is the Gershgorin-shifted fallback,
        # which three steps need not reach
        assert dense.n == 0 and (cyclic.n > steps.n or max_iter == 3)


def assert_minimizers_match_dense_fallback(text, extra, monkeypatch):
    """best_minimizer against the solve whose fallback is dense for every q <= 200,
    on each rational with 4 <= q <= 200 in the work list of the scan config
    `text`, plus `extra`: the same class, certificate and beta."""
    config = scan.parse_scan_config(text)
    rationals = [(p, q) for p, q in scan.work_list(config) if 4 <= q <= 200] + extra
    opts = SolveOptions(seed=0)
    dense = Calls(monkeypatch, solvers, "modified_newton_direction")
    for p, q in rationals:
        taken = dense.n
        got = solvers.best_minimizer(config.model, p, q, opts)
        assert dense.n == taken
        with monkeypatch.context() as m:
            m.setattr(solvers, "newton_periodic_u", newton_periodic_u_loop_dense)
            want = solvers.best_minimizer(config.model, p, q, opts)
        assert solvers.class_distance(got.positions, want.positions, q, 1e-8) <= 1e-8
        assert got.psd == want.psd
        beta, beta_dense = got.action / q, want.action / q
        assert abs(beta - beta_dense) <= 1e-12 * max(1.0, abs(beta_dense)), (p, q)
    assert dense.n > 0  # the dense solves did take the dense fallback


def test_benchmark_scan_minimizers_match_dense_fallback(bench, monkeypatch):
    text = bench.SCAN_CONFIG.format(seed=0, workers=1)
    # 65/192 is the T = 32 loop of flatness 1/3, its largest period
    assert_minimizers_match_dense_fallback(text, [(65, 192)], monkeypatch)


def test_fourier_scan_minimizers_match_dense_fallback(digest_tool, monkeypatch):
    text = digest_tool.FOURIER_SCAN.format(seed=0)
    assert_minimizers_match_dense_fallback(text, [], monkeypatch)


@contextlib.contextmanager
def recording_segment_starts():
    """Records (W0, n_fix_left, n_fix_right, opts) of every newton_segment_starts
    call, which every newton_segment call makes with one row."""
    calls = []
    original = solvers.newton_segment_starts

    def recording(model, W0, n_fix_left, n_fix_right, opts):
        calls.append((np.array(W0, dtype=float), n_fix_left, n_fix_right, opts))
        return original(model, W0, n_fix_left, n_fix_right, opts)

    solvers.newton_segment_starts = recording
    try:
        yield calls
    finally:
        solvers.newton_segment_starts = original


def record_segment_solves(run):
    """The (w0, n_fix_left, n_fix_right, opts) of every clamped-segment start in
    run(): each newton_segment call and each row of a newton_segment_starts call."""
    with recording_segment_starts() as batches:
        try:
            run()
        except NoConvergence:
            pass  # the failing sweeps are replayed too
    calls = [(w0, left, right, opts) for W0, left, right, opts in batches for w0 in W0]
    assert calls
    return calls


def replay_segments(model, calls):
    for w0, left, right, opts in calls:
        for max_iter in MAX_ITERS:
            o = dataclasses.replace(opts, max_iter=max_iter)
            assert_same(solvers.newton_segment(model, w0, left, right, o),
                        newton_segment_loop(model, w0, left, right, o))


@pytest.mark.parametrize("p,q", [(1, 3), (2, 5)])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_segment_driver_matches_loop_on_pinned_solves(name, p, q):
    model = MODELS[name]
    calls = record_segment_solves(
        lambda: hyperbolicity.pn_barrier(model, p, q))
    replay_segments(model, calls)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_segment_driver_matches_loop_on_minimality_windows(name):
    model = MODELS[name]
    cfg = variational.minimize_periodic(model, 2, 5)
    calls = record_segment_solves(
        lambda: variational.verify_minimality(model, cfg, w=6))
    replay_segments(model, calls)


@pytest.mark.parametrize("name,p,q,T", [("fourier", 0, 1, 100), ("fk", 1, 2, 50)])
def test_segment_driver_matches_loop_on_wide_heteroclinic_windows(name, p, q, T):
    model = MODELS[name]
    calls = record_segment_solves(
        lambda: flatness.heteroclinic_segment(model, p, q, 1, T))
    assert len(calls) == 14 and all(len(w0) > 200 for w0, *_ in calls)
    replay_segments(model, calls)


class Quadratic:
    """Action (x[1] - center)^2 / 2 with x[0] and x[2] clamped and a chosen Newton step.

    solve scales -g by `gain`; fallback steps along -g and counts its calls.
    The *_one methods see one state, as the oracle loop does; the driver's
    callbacks also take stacks and apply them to each row.  gradients and
    actions count the states evaluated.
    """

    free = slice(1, 2)

    def __init__(self, gain, action=None, center=0.0):
        self.gain = gain
        self.center = center
        self.fallbacks = 0
        self.gradients = 0
        self.actions = 0
        self.action_of = action or (lambda x: 0.5 * float((x[1] - center) ** 2))

    def gradient_one(self, x):
        self.gradients += 1
        return x[self.free] - self.center

    def action_one(self, x):
        self.actions += 1
        return self.action_of(x)

    def parts_one(self, x):
        return np.ones(1), np.zeros(0)

    def solve_one(self, diag, off, rhs):
        return self.gain * rhs

    def fallback(self, diag, off, g):
        self.fallbacks += 1
        return -g

    def gradient(self, x):
        return self.gradient_one(x) if x.ndim == 1 else np.array([self.gradient_one(r) for r in x])

    def action(self, x):
        return self.action_one(x) if x.ndim == 1 else np.array([self.action_one(r) for r in x])

    def hessian_parts(self, x):
        return np.ones(x.shape[:-1] + (1,)), np.zeros(x.shape[:-1] + (0,))

    def local(self, x):
        return (self.gradient(x), *self.hessian_parts(x))

    def solve(self, diag, off, rhs):
        if diag.ndim == 1:
            return self.solve_one(diag, off, rhs)
        return [self.solve_one(d, o, r) for d, o, r in zip(diag, off, rhs)]

    def run(self, x0, max_iter=1):
        x = np.array([x0], dtype=float)
        return solvers._damped_newton(
            x, self.free, self.local, self.action, self.solve, self.fallback,
            SolveOptions(max_iter=max_iter))[0]

    def loop(self, x0, max_iter=1):
        return damped_newton_loop(
            np.array(x0, dtype=float), self.free, self.gradient_one, self.action_one,
            self.parts_one, self.solve_one, self.fallback, SolveOptions(max_iter=max_iter))


@pytest.mark.parametrize("ratio,fallbacks", [(0.99, 0), (1.01, 1)])
def test_driver_falls_back_on_steps_beyond_1e8_of_the_whole_state(ratio, fallbacks):
    # the bound is 1e8 * (1 + max|x|) over clamped sites too: 1e8 * (1 + 7)
    prob = Quadratic(gain=ratio * 8e8)
    prob.run([5.0, 1.0, -7.0])
    assert prob.fallbacks == fallbacks


def test_driver_armijo_constant_is_1e_4():
    # s = -1.999 g on |x|^2 / 2 decreases the action by 0.0005 * |slope| at t = 1:
    # enough for the 1e-4 sufficient-decrease test, not for 1e-3
    prob = Quadratic(gain=1.999)
    x, _, _ = prob.run([0.0, 1.0, 0.0])
    assert x[1] == 1.0 - 1.999 and prob.fallbacks == 0


def test_driver_backtracks_to_2_to_the_minus_40_then_gives_up():
    start = np.array([0.0, 1.0, 0.0])
    prob = Quadratic(gain=1.0, action=lambda x: 0.0 if np.array_equal(x, start) else 1.0)
    x, res, ok = prob.run(start, max_iter=5)
    assert prob.actions == 1 + 41  # the start, then t = 1, 1/2, ..., 2**-40
    assert x.tobytes() == start.tobytes() and res == 1.0 and not ok


# ---- the action carried over from the accepted trial ---------------------------


class ActionStates:
    """Records the state bytes each action evaluation sees, one list per start,
    inside `with seen.start():` only."""

    def __init__(self):
        self.starts = []
        self.current = None

    @contextlib.contextmanager
    def start(self):
        self.current = []
        try:
            yield
        finally:
            self.starts.append(self.current)
            self.current = None

    def record(self, x):
        if self.current is not None:
            self.current.extend(row.tobytes() for row in np.atleast_2d(x))

    def assert_each_state_once(self):
        assert sum(map(len, self.starts)) > 0
        for states in self.starts:
            assert len(set(states)) == len(states)


@pytest.mark.parametrize("q", [4, 13, 233])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_no_start_evaluates_the_action_of_a_state_twice(name, q, monkeypatch):
    model, p = MODELS[name], P_OF[q]
    prob = PeriodicProblem(model, p, q)
    seen = ActionStates()
    action_fast = PeriodicProblem.action_fast

    def recording(self, u):
        seen.record(u)
        return action_fast(self, u)

    monkeypatch.setattr(PeriodicProblem, "action_fast", recording)
    for _, seed in build_seeds(model, p, q, SolveOptions(seed=3)):
        u0 = prob.from_lift(seed)
        with seen.start():
            got = solvers.newton_periodic_u(prob, u0, SolveOptions())
        assert_same(got, newton_periodic_u_loop(prob, u0, SolveOptions()))
    seen.assert_each_state_once()


def test_no_pinned_start_evaluates_the_action_of_a_state_twice(monkeypatch):
    seen = ActionStates()
    action = solvers._segment_action_fast
    starts = solvers.newton_segment_starts

    def recording_action(model, w, lo, hi):
        seen.record(w)
        return action(model, w, lo, hi)

    def recording_starts(model, W0, *args):
        assert len(W0) == 1  # every pinned solve is one start
        with seen.start():
            return starts(model, W0, *args)

    monkeypatch.setattr(solvers, "_segment_action_fast", recording_action)
    monkeypatch.setattr(solvers, "newton_segment_starts", recording_starts)
    hyperbolicity.pn_barrier(MODELS["fk"], 1, 3)
    seen.assert_each_state_once()


def test_segment_needs_a_clamped_site_at_each_end():
    w0 = np.linspace(0.0, 1.0, 5)
    for left, right in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="at least one clamped site"):
            solvers.newton_segment(MODELS["fk"], w0, left, right, SolveOptions())


@pytest.mark.parametrize("left,right", [(1, 1), (2, 2), (3, 3)])
def test_segment_without_free_sites_returns_its_input(left, right):
    w0 = 0.1 + 0.6 * np.arange(left + right)
    w, res, ok = solvers.newton_segment(MODELS["fk"], w0, left, right, SolveOptions())
    assert w.tobytes() == w0.tobytes() and w is not w0
    assert res == 0.0 and ok


# ---- cycle exit ---------------------------------------------------------------

# Full steps that repeat a state: (x0, gain, center, cycle start, period).
CYCLES = {
    "two-cycle": ([0.0, 1e-9, 0.0], 2.0, 0.0, 0, 2),  # x[1] -> -x[1] -> x[1]
    "stuck": ([0.0, 1.0 + 4e-7, 0.0], 1e-12, 1.0, 0, 1),  # step below ulp(x[1])
}


@pytest.mark.parametrize("max_iter", [5, 6, 119, 120])
@pytest.mark.parametrize("kind", sorted(CYCLES))
def test_driver_leaves_a_repeated_state_with_the_loops_answer(kind, max_iter):
    x0, gain, center, start, period = CYCLES[kind]
    prob = Quadratic(gain, center=center)
    assert_same(prob.run(x0, max_iter), Quadratic(gain, center=center).loop(x0, max_iter))
    # the loop evaluates the gradient max_iter + 1 times
    assert prob.gradients <= start + period + 1


@functools.lru_cache(maxsize=None)
def gap_solves(name, p, q, seed=3):
    """Every newton_segment_starts call of the per-gap oracle loops of p/q on
    MODELS[name] at each default-grid T: the gap solves flatness_curve made
    before its loops became images of one segment, period-1 and period-2
    cycles among them."""
    model, opts = MODELS[name], SolveOptions(seed=seed)
    config = variational.minimize_periodic(model, p, q, opts)
    with recording_segment_starts() as batches:
        for T in flatness.loop_t_grid(q):
            concatenate_loop_per_gap(model, p, q, T, opts, config=config)
    assert len(batches) == q * len(flatness.loop_t_grid(q))
    assert all(len(W0) == 14 for W0, *_ in batches)
    return tuple(batches)


@functools.lru_cache(maxsize=None)
def shared_gap_solve(name, p, q, seed=3):
    """The one newton_segment_starts call of flatness_curve(p/q) on MODELS[name]."""
    with recording_segment_starts() as batches:
        flatness.flatness_curve(MODELS[name], p, q, options=SolveOptions(seed=seed))
    assert len(batches) == 1 and len(batches[0][0]) == 14
    return tuple(batches)


def traced_loop(model, w0, left, right, opts):
    """newton_segment_loop's result and the period of its first repeated state
    (None if no state repeats)."""
    states = []
    original = oracles.segment_gradient

    def recording(model_, w, lo, hi):
        states.append(w.tobytes())
        return original(model_, w, lo, hi)

    oracles.segment_gradient = recording
    try:
        result = newton_segment_loop(model, w0, left, right, opts)
    finally:
        oracles.segment_gradient = original
    seen = {}
    for i, key in enumerate(states):
        if key in seen:
            return result, i - seen[key]
        seen[key] = i
    return result, None


def test_segment_cycle_exit_matches_loop_on_gap_solves():
    periods = set()
    # the two-cycles come from FK 1/2, the fixed points from 1/3 and 2/5
    for name, p, q in [("fk", 0, 1), ("fk", 1, 2), ("fk", 2, 5), ("fourier", 0, 1)]:
        model = MODELS[name]
        for W0, left, right, opts in gap_solves(name, p, q):
            for w0 in W0:
                for max_iter in (3, 119, 120, 121):
                    o = dataclasses.replace(opts, max_iter=max_iter)
                    want, period = traced_loop(model, w0, left, right, o)
                    assert_same(solvers.newton_segment(model, w0, left, right, o), want)
                    if max_iter == 120:
                        periods.add(period)
    assert {1, 2} <= periods


# ---- one batch for the starts of a gap ------------------------------------------


def replay_batch(model, W0, left, right, opts):
    """Each row of newton_segment_starts against newton_segment and the loop."""
    for max_iter in MAX_ITERS:
        o = dataclasses.replace(opts, max_iter=max_iter)
        got = solvers.newton_segment_starts(model, W0, left, right, o)
        assert len(got) == len(W0)
        for row, w0 in zip(got, W0):
            assert_same(row, solvers.newton_segment(model, w0, left, right, o))
            assert_same(row, newton_segment_loop(model, w0, left, right, o))


@pytest.mark.parametrize("name,p,q", [("fk", 0, 1), ("fk", 1, 2), ("fk", 1, 3), ("fk", 2, 5),
                                      ("fourier", 0, 1)])
def test_batch_rows_match_single_starts_on_gap_solves(name, p, q):
    for W0, left, right, opts in gap_solves(name, p, q) + shared_gap_solve(name, p, q):
        replay_batch(MODELS[name], W0, left, right, opts)


def test_batch_row_taking_the_shifted_fallback(monkeypatch):
    # V'' < 0 near x = 1/2 makes the middle row's Hessian negative definite:
    # its structured step ascends and the shifted direction replaces it; the
    # other rows sit near the potential minimum
    W0 = np.array([[0.0, 0.02, 0.05, 0.08, 0.1], [0.0, 0.49, 0.5, 0.51, 1.0],
                   [0.0, 0.03, 0.06, 0.09, 0.12]])
    shifted = Calls(monkeypatch, solvers, "shifted_newton_direction")
    dense = Calls(monkeypatch, solvers, "modified_newton_direction")
    solvers.newton_segment_starts(MODELS["fk"], W0, 1, 1, SolveOptions(max_iter=1))
    assert shifted.n == 1 and dense.n == 0
    diag, off, g = shifted.args[0]
    want = oracles.segment_hessian_parts(MODELS["fk"], W0[1], 1, 4)
    assert diag.tobytes() == want[0].tobytes() and off.tobytes() == want[1].tobytes()
    assert g.tobytes() == oracles.segment_gradient(MODELS["fk"], W0[1], 1, 4).tobytes()
    replay_batch(MODELS["fk"], W0, 1, 1, SolveOptions())


# V = 0.3 sin(2 pi x) with no elastic term: the free-site Hessian is V''(x) on
# the diagonal, zero at integers and subnormal at the smallest subnormal x.
FLAT = GeneratingModel(family="fourier-potential", a=0.0, harmonics=((1, 0.0, 0.3),))
BAD_BLOCKS = {
    "zero-pivot": [0.0, 1.0, 2.0, 3.0, 4.0],  # dgtsv fails
    "overflow": [0.0, 5e-324, 5e-324, 5e-324, 0.0],  # dgtsv returns inf
}


@pytest.mark.parametrize("bad", sorted(BAD_BLOCKS))
def test_batch_row_whose_block_breaks_the_stacked_solve(bad, monkeypatch):
    W0 = np.array([[0.0, 0.1, 0.2, 0.3, 0.4], BAD_BLOCKS[bad], [0.0, 0.15, 0.3, 0.45, 0.6]])
    g, diag, off = solvers.segment_local(FLAT, W0, 1, 4)
    steps = solvers.solve_tridiag_stack(diag, off, -g)
    assert steps[1] is None
    for j in (0, 2):
        assert steps[j].tobytes() == solvers.solve_tridiag_sym(diag[j], off[j], -g[j]).tobytes()
    alone = Calls(monkeypatch, solvers, "solve_tridiag_sym")
    shifted = Calls(monkeypatch, solvers, "shifted_newton_direction")
    solvers.newton_segment_starts(FLAT, W0, 1, 1, SolveOptions(max_iter=1))
    # every row re-solved alone, then one shifted solve per fallback taken
    assert [args[0].tobytes() for args in alone.args[:3]] == [d.tobytes() for d in diag]
    assert shifted.n > 0 and alone.n == 3 + shifted.n
    replay_batch(FLAT, W0, 1, 1, SolveOptions())


def test_batch_row_whose_armijo_search_gives_up(monkeypatch):
    # near 1e15 positions are multiples of 1/8, and no trial step on this row
    # lowers the action enough
    stuck = 1e15 + 0.125 * np.array([0.0, 0.0, 12.0, 25.0, 39.0])
    W0 = np.array([[0.0, 0.2, 0.5, 0.8, 1.0], stuck, [0.0, 0.3, 0.5, 0.6, 1.0]])
    gradients = Calls(monkeypatch, oracles, "segment_gradient")
    w, res, ok = newton_segment_loop(MODELS["fk"], stuck, 1, 1, SolveOptions())
    assert not ok and res > 1e-6 and gradients.n < SolveOptions().max_iter
    replay_batch(MODELS["fk"], W0, 1, 1, SolveOptions())


@pytest.mark.parametrize("left,right", [(2, 2), (3, 1)])
def test_batch_rows_without_free_sites(left, right):
    W0 = np.array([[0.1, 0.7, 1.3, 1.9], [0.2, 0.4, 0.6, 0.8]])
    replay_batch(MODELS["fk"], W0, left, right, SolveOptions())
    for w, res, ok in solvers.newton_segment_starts(MODELS["fk"], W0, left, right,
                                                    SolveOptions()):
        assert not np.shares_memory(w, W0)


def test_stacked_tridiagonal_solve_matches_each_block_alone():
    rng = np.random.default_rng(5)
    diag = rng.uniform(-3.0, 3.0, (14, 9))
    off = rng.uniform(-1.0, 1.0, (14, 8))
    rhs = rng.standard_normal((14, 9))
    for singular in (None, 3):
        if singular is not None:
            diag[singular] = 0.0
            off[singular] = 0.0
        got = solvers.solve_tridiag_stack(diag, off, rhs)
        for j in range(14):
            want = solvers.solve_tridiag_sym(diag[j], off[j], rhs[j])
            if j == singular:
                assert got[j] is None and want is None
            else:
                assert got[j].tobytes() == want.tobytes()


# ---- the shifted fallback of both problems ----------------------------------


def assert_shifted_solve(diag, off, g, corner=None):
    """s solves (H + mu*I) s = -g with the Gershgorin mu and descends."""
    n = len(diag)
    s = solvers.shifted_newton_direction(diag, off, g, corner)
    H = solvers.tridiag_dense(diag, off if corner is None else np.append(off, corner))
    radius = np.abs(H).sum(axis=1) - np.abs(np.diag(H))
    mu = max(0.0, -float((diag - radius).min())) + 1e-3 * max(1.0, float(np.abs(diag).max()))
    assert np.all(np.isfinite(s)) and float(np.dot(g, s)) < 0.0
    np.testing.assert_allclose((H + mu * np.eye(n)) @ s, -g, rtol=0.0,
                               atol=1e-12 * float(np.abs(g).max()))
    return s


@pytest.mark.parametrize("diag,off", [([-3.0], []), ([2.5], []), ([-3.0, 1.0], [0.7]),
                                      ([0.5, -0.25], [-2.0])])
def test_shifted_direction_on_one_and_two_free_sites(diag, off):
    assert_shifted_solve(np.array(diag), np.array(off), np.array([0.3, -1.1][: len(diag)]))


def test_shifted_direction_on_segments_of_one_and_two_free_sites(monkeypatch):
    # an indefinite start at x = 1/2 takes the fallback on both sizes
    model = MODELS["fk"]
    shifted = Calls(monkeypatch, solvers, "shifted_newton_direction")
    for w0 in ([0.0, 0.49, 1.0], [0.0, 0.48, 0.52, 1.0]):
        w0 = np.array(w0)
        got = solvers.newton_segment(model, w0, 1, 1, SolveOptions())
        assert_same(got, newton_segment_loop(model, w0, 1, 1, SolveOptions()))
        assert got[2]
    assert {len(args[0]) for args in shifted.args} == {1, 2}


def test_shifted_direction_on_an_indefinite_chain():
    rng = np.random.default_rng(11)
    for n in (3, 8, 40):
        diag = rng.uniform(-4.0, 2.0, n)
        off = rng.uniform(-1.5, 1.5, n)  # the last entry is the cyclic corner
        g = rng.standard_normal(n)
        assert np.linalg.eigvalsh(solvers.tridiag_dense(diag, off[:-1])).min() < 0.0
        assert np.linalg.eigvalsh(solvers.tridiag_dense(diag, off)).min() < 0.0
        assert_shifted_solve(diag, off[:-1], g)
        assert_shifted_solve(diag, off[:-1], g, float(off[-1]))


def test_shifted_direction_is_minus_g_when_the_shifted_solve_fails():
    # H = 0 gives mu = 1e-3, and -g / mu overflows: the solve is rejected
    g = np.array([1e308, -1e308])
    s = solvers.shifted_newton_direction(np.zeros(2), np.zeros(1), g)
    assert s.tobytes() == (-g).tobytes()
    s = solvers.shifted_newton_direction(np.zeros(4), np.zeros(3), np.full(4, 1e308), 0.0)
    assert s.tobytes() == np.full(4, -1e308).tobytes()


@pytest.mark.parametrize("q", [4, 13, 201])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_cyclic_shifted_direction_matches_the_inline_periodic_fallback(name, q):
    # Hessian parts of the periodic problem at its seeds, then random
    # indefinite ones: the radius from index sums equals np.roll's bit for bit
    model, p = MODELS[name], P_OF[q]
    prob = PeriodicProblem(model, p, q)
    rng = np.random.default_rng(q)
    parts = [prob.hessian_parts(prob.from_lift(seed))
             for _, seed in build_seeds(model, p, q, SolveOptions())]
    parts += [(rng.uniform(-4.0, 2.0, q), rng.uniform(-1.5, 1.5, q)) for _ in range(4)]
    for diag, off in parts:
        g = rng.standard_normal(q)
        got = solvers.shifted_newton_direction(diag, off[:-1], g, float(off[-1]))
        assert got.tobytes() == gershgorin_cyclic_direction(diag, off, g).tobytes()


@pytest.fixture
def dense_segments(monkeypatch):
    """A context in which every clamped segment runs the dense-fallback loop."""
    def loops(model, W0, n_fix_left, n_fix_right, opts):
        return [newton_segment_loop_dense(model, w0, n_fix_left, n_fix_right, opts)
                for w0 in np.asarray(W0, dtype=float)]

    @contextlib.contextmanager
    def context():
        with monkeypatch.context() as m:
            m.setattr(solvers, "newton_segment_starts", loops)
            yield

    return context


@pytest.mark.parametrize("name,p,q", [("fk", 0, 1), ("fk", 1, 2), ("fk", 1, 3), ("fk", 2, 5),
                                      ("fourier-potential", 1, 2)])
def test_loops_match_the_dense_segment_fallback(name, p, q, digest_tool, dense_segments):
    model = MODELS["fk"] if name == "fk" else parse_model(digest_tool.FOURIER_MODEL)
    opts = SolveOptions(seed=3)
    config = variational.minimize_periodic(model, p, q, opts)
    for T in flatness.loop_t_grid(q):
        got = flatness.concatenate_loop(model, p, q, T, opts, config=config)
        with dense_segments():
            want = flatness.concatenate_loop(model, p, q, T, opts, config=config)
        assert abs(got.action_per_site - want.action_per_site) <= \
            1e-14 * abs(want.action_per_site), (T, got.action_per_site, want.action_per_site)


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3)])
def test_pn_barrier_matches_the_dense_segment_fallback(p, q, dense_segments):
    got = hyperbolicity.pn_barrier(MODELS["fk"], p, q)
    with dense_segments():
        want = hyperbolicity.pn_barrier(MODELS["fk"], p, q)
    assert got == want


@pytest.mark.parametrize("p,q", [(2, 5), (3, 8)])
def test_pn_barrier_sweeps_that_do_not_close_stay_typed(p, q):
    try:
        barrier = hyperbolicity.pn_barrier(MODELS["fk"], p, q)
    except NoConvergence:
        return
    assert np.isfinite(barrier)
