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
code it replaced.  Each row of a stack of one periodic problem's starts
must give what newton_periodic_u and the loop give; the stacked cyclic
solve must give each row what the lone solve gives, None included, without
a warning.  solve_all_starts_many, the stacks over the starts of many
rationals, and solve_all_starts, its one-rational case, must give each
rational what its starts give run one at a time
(oracles.solve_all_starts_one_at_a_time), also when every stacked dgtsv
fails, and skipping byte-identical seeds must change no class; the ragged
cyclic and shifted solves and a PeriodicStack's actions and local parts
must give each row what it gets alone.
No start may evaluate the action of one state twice, alone or in a batch:
the accepted trial's action is the next search's a0.  The loops and pinned
sweeps that the segment solves build must agree with the former dense
segment fallback (newton_segment_loop_dense) in loop action and barrier.
"""

import collections
import contextlib
import dataclasses
import functools
import warnings

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
    solve_all_starts_one_at_a_time,
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

        def counted(*args, **kwargs):
            self.n += 1
            self.args.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("max_iter", MAX_ITERS)
@pytest.mark.parametrize("q", sorted(P_OF))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_periodic_driver_matches_loop(name, q, max_iter, monkeypatch):
    model, p = MODELS[name], P_OF[q]
    opts = SolveOptions(max_iter=max_iter)
    prob = PeriodicProblem(model, p, q)
    dense = Calls(monkeypatch, solvers, "modified_newton_direction")
    cyclic = Calls(monkeypatch, solvers, "solve_cyclic_tridiag_stack")
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
            # every start run alone by the dense-fallback loop
            m.setattr(solvers, "newton_periodic_u", newton_periodic_u_loop_dense)
            want = solvers.best_minimizer(config.model, p, q, opts,
                                          solve_all_starts_one_at_a_time(config.model, p, q, opts))
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
    The *_one methods see one state, as the oracle loop does; one and many
    answer the driver's requests from them, a row at a time.  gradients and
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

    def one(self, kind, i, arg):
        if kind == solvers._LOCAL:
            return (self.gradient_one(arg), *self.parts_one(arg))
        if kind == solvers._ACTION:
            return self.action_one(arg)
        diag, off, g = arg
        return self.solve_one(diag, off, -g) if kind == solvers._STEP else self.fallback(diag, off, g)

    def many(self, kind, batch, args):
        return [self.one(kind, i, arg) for i, arg in zip(batch, args)]

    def run(self, x0, max_iter=1):
        return solvers._damped_newton([x0], self.free, self, SolveOptions(max_iter=max_iter))[0]

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
        self.stacked = 0  # evaluations of a stack of states

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
            self.stacked += np.ndim(x) == 2

    def assert_each_state_once(self):
        assert sum(map(len, self.starts)) > 0
        for states in self.starts:
            assert len(set(states)) == len(states)


def recording_periodic_actions(monkeypatch):
    seen = ActionStates()
    action_fast = PeriodicProblem.action_fast

    def recording(self, u):
        seen.record(u)
        return action_fast(self, u)

    monkeypatch.setattr(PeriodicProblem, "action_fast", recording)
    return seen


@pytest.mark.parametrize("q", [4, 13, 233])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_no_start_evaluates_the_action_of_a_state_twice(name, q, monkeypatch):
    model, p = MODELS[name], P_OF[q]
    prob = PeriodicProblem(model, p, q)
    seen = recording_periodic_actions(monkeypatch)
    for _, seed in build_seeds(model, p, q, SolveOptions(seed=3)):
        u0 = prob.from_lift(seed)
        with seen.start():
            got = solvers.newton_periodic_u(prob, u0, SolveOptions())
        assert_same(got, newton_periodic_u_loop(prob, u0, SolveOptions()))
    seen.assert_each_state_once()


@pytest.mark.parametrize("q", [4, 13, 233])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_no_batched_start_evaluates_the_action_of_a_state_twice(name, q, monkeypatch):
    # the batch evaluates exactly the states its starts evaluate alone, each
    # once per start (the two anti-integrable seeds may snap to one state)
    model, p = MODELS[name], P_OF[q]
    prob = PeriodicProblem(model, p, q)
    U0 = [prob.from_lift(seed) for _, seed in build_seeds(model, p, q, SolveOptions(seed=3))]
    seen = recording_periodic_actions(monkeypatch)
    for u0 in U0:
        with seen.start():
            solvers.newton_periodic_u(prob, u0, SolveOptions())
    seen.assert_each_state_once()
    alone, seen.starts = seen.starts, []
    with seen.start():
        got = periodic_starts(prob, U0, SolveOptions())
    for row, u0 in zip(got, U0):
        assert_same(row, newton_periodic_u_loop(prob, u0, SolveOptions()))
    assert seen.stacked > 0
    assert collections.Counter(seen.starts[0]) == collections.Counter(sum(alone, []))


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
    steps = solvers._SegmentRows(FLAT, 1, 4).many(solvers._STEP, [0, 1, 2],
                                                  list(zip(diag, off, g)))
    assert steps[1] is None
    for j in (0, 2):
        assert steps[j].tobytes() == solvers.solve_tridiag_sym(diag[j], off[j], -g[j]).tobytes()
    alone = Calls(monkeypatch, solvers, "solve_tridiag_sym")
    shifted = Calls(monkeypatch, solvers, "shifted_newton_direction")
    stacked = Calls(monkeypatch, solvers, "shifted_newton_directions")
    solvers.newton_segment_starts(FLAT, W0, 1, 1, SolveOptions(max_iter=1))
    # every row re-solved alone, then the fallbacks taken: a lone one solves
    # its shifted block alone, the rows of a round share one stacked solve
    assert [args[0].tobytes() for args in alone.args[:3]] == [d.tobytes() for d in diag]
    assert shifted.n + stacked.n > 0 and alone.n == 3 + shifted.n
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


def blocks_end_to_end(diag, off, rhs):
    """Per-row solutions of the tridiagonal systems (diag[j], off[j]) for
    rhs[j], from _solve_blocks on the rows end to end with zero couplings
    between them: the layout _SegmentRows.many gives its rows."""
    m, k = diag.shape
    couple = np.zeros((m, k))
    couple[:, :-1] = off
    out = solvers._solve_blocks(diag.ravel(), couple.ravel()[:-1],
                                rhs.reshape((m * k,) + rhs.shape[2:]), np.arange(0, m * k + 1, k))
    return out.reshape(rhs.shape) if isinstance(out, np.ndarray) else out


def test_stacked_tridiagonal_solve_matches_each_block_alone():
    rng = np.random.default_rng(5)
    diag = rng.uniform(-3.0, 3.0, (14, 9))
    off = rng.uniform(-1.0, 1.0, (14, 8))
    rhs = rng.standard_normal((14, 9))
    columns = rng.standard_normal((14, 9, 2))  # two right-hand sides per row
    for singular in (None, 3):
        if singular is not None:
            diag[singular] = 0.0
            off[singular] = 0.0
        for b in (rhs, columns):
            got = blocks_end_to_end(diag, off, b)
            for j in range(14):
                want = solvers.solve_tridiag_sym(diag[j], off[j], b[j])
                if j == singular:
                    assert got[j] is None and want is None
                else:
                    assert got[j].shape == b[j].shape and got[j].tobytes() == want.tobytes()


# ---- one batch for the starts of a periodic rational ---------------------------


def periodic_starts(prob, U0, opts):
    """The starts U0 of prob as one _damped_newton stack: one (u,
    residual_sup, ok) per row."""
    return solvers._damped_newton(U0, slice(None), solvers._PeriodicRows([prob] * len(U0)), opts)


@pytest.mark.parametrize("max_iter", MAX_ITERS)
@pytest.mark.parametrize("q", sorted(P_OF))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_periodic_batch_rows_match_single_starts(name, q, max_iter, monkeypatch):
    model, p = MODELS[name], P_OF[q]
    opts = SolveOptions(max_iter=max_iter)
    prob = PeriodicProblem(model, p, q)
    U0 = np.array([prob.from_lift(seed) for _, seed in build_seeds(model, p, q, opts)])
    stacked = Calls(monkeypatch, solvers, "solve_cyclic_tridiag_stack")
    got = periodic_starts(prob, U0, opts)
    # q <= 3 tries no structured solve; above, the starts share stacked solves
    assert any(len(args[0]) > 1 for args in stacked.args) == (q >= 4)
    assert len(got) == len(U0)
    for row, u0 in zip(got, U0):
        assert_same(row, solvers.newton_periodic_u(prob, u0, opts))
        assert_same(row, newton_periodic_u_loop(prob, u0, opts))


def assert_same_points(got, want):
    assert [c.label for c in got] == [c.label for c in want]
    for c, w in zip(got, want):
        assert c.positions.tobytes() == w.positions.tobytes()
        assert (c.action, c.residual_sup, c.psd) == (w.action, w.residual_sup, w.psd)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("source", ["benchmark", "fourier"])
def test_solve_all_starts_batch_matches_one_start_at_a_time(source, seed, bench, digest_tool):
    model, rationals = scan_work_list(source, seed, bench, digest_tool)
    assert sum(q >= 4 for _, q in rationals) > 20
    opts = SolveOptions(seed=seed)
    for p, q in rationals:
        assert_same_points(solvers.solve_all_starts(model, p, q, opts),
                           solve_all_starts_one_at_a_time(model, p, q, opts))


FLAT_FK = frenkel_kontorova(0.0)


@pytest.mark.parametrize("p,q", [(1, 4), (2, 5), (5, 13), (89, 233)])
def test_flat_fk_batch_does_not_warn(p, q, monkeypatch):
    # at k = 0 the Hessian is the cyclic Laplacian, whose Sherman-Morrison
    # denominator is exactly 0: those rows are None and not divided
    undivided = []
    stack = solvers.solve_cyclic_tridiag_stack

    def recording(diag, off, bounds, rhs):
        rows = stack(diag, off, bounds, rhs)
        if len(bounds) > 2:
            undivided.extend(x is None for x in rows)
        return rows

    monkeypatch.setattr(solvers, "solve_cyclic_tridiag_stack", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solvers.solve_all_starts(FLAT_FK, p, q, SolveOptions())
    assert any(undivided)
    assert_same_points(got, solve_all_starts_one_at_a_time(FLAT_FK, p, q, SolveOptions()))


# ---- one stack for the starts of many rationals --------------------------------


def scan_work_list(source, seed, bench, digest_tool):
    text = (bench.SCAN_CONFIG.format(seed=seed, workers=1) if source == "benchmark"
            else digest_tool.FOURIER_SCAN.format(seed=seed))
    config = scan.parse_scan_config(text)
    return config.model, scan.work_list(config)


def assert_many_matches_one_at_a_time(model, rationals, opts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solvers.solve_all_starts_many(model, rationals, opts)
    assert len(got) == len(rationals)
    for points, (p, q) in zip(got, rationals):
        assert_same_points(points, solve_all_starts_one_at_a_time(model, p, q, opts))


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("source", ["benchmark", "fourier"])
def test_many_rationals_match_one_at_a_time(source, seed, bench, digest_tool, monkeypatch):
    # the stack mixes every 4 <= q < 100; q <= 3 and the long rows run apart
    model, rationals = scan_work_list(source, seed, bench, digest_tool)
    qs = [q for _, q in rationals]
    assert min(qs) <= 3 and len({q for q in qs if 4 <= q < solvers._STACK_Q}) > 3
    assert max(qs) >= solvers._STACK_Q or source == "fourier"
    rounds = Calls(monkeypatch, solvers, "PeriodicStack")
    assert_many_matches_one_at_a_time(model, rationals, SolveOptions(seed=seed))
    assert rounds.n > 0


@pytest.mark.parametrize("name", sorted(MODELS))
def test_stack_of_many_problems_matches_each_row_alone(name):
    # rows of several q and p, those of one q adjacent, with one q coming
    # back later; a sequential sum (np.add.reduceat) differs in the last bits
    model = MODELS[name]
    rationals = [(1, 4), (3, 4), (1, 4), (2, 5), (5, 13), (8, 21), (7, 13), (34, 89), (1, 5)]
    probs = [PeriodicProblem(model, p, q) for p, q in rationals]
    rng = np.random.default_rng(17)
    U = [prob.from_lift(solvers.integrable_seed(prob.p, prob.q, rng.uniform()))
         + rng.uniform(-0.3, 0.3, prob.q) for prob in probs]
    stack = solvers.PeriodicStack(probs)
    u = np.concatenate(U)
    actions = stack.action_fast(u)
    parts = [stack.rows(v) for v in stack.local(u)]
    for j, (prob, uj) in enumerate(zip(probs, U)):
        assert actions[j].tobytes() == prob.action_fast(uj).tobytes()
        for got, want in zip(parts, prob.local(uj)):
            assert got[j].tobytes() == want.tobytes()


def test_many_flat_fk_rationals_match_one_at_a_time():
    # at k = 0 every Sherman-Morrison denominator is 0: no step divides, and
    # nothing warns
    rationals = [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 7), (5, 13), (13, 34), (89, 233)]
    assert_many_matches_one_at_a_time(FLAT_FK, rationals, SolveOptions())


def test_many_rationals_with_every_stacked_solve_failing(bench, monkeypatch):
    # a dgtsv that fails on every block-diagonal stack (whose zero couplings
    # mark its seams; these models couple every pair of neighbours) leaves
    # each block to be solved alone, with the same bytes
    model, rationals = scan_work_list("benchmark", 3, bench, None)
    rationals = [(p, q) for p, q in rationals if q < 40]
    opts = SolveOptions(seed=3)
    want = solvers.solve_all_starts_many(model, rationals, opts)
    real = solvers.dgtsv
    failed = []

    def failing(dl, d, du, b):
        if np.any(dl == 0.0):
            failed.append(len(d))
            return dl, d, du, b, 1
        return real(dl, d, du, b)

    monkeypatch.setattr(solvers, "dgtsv", failing)
    got = solvers.solve_all_starts_many(model, rationals, opts)
    assert max(failed) > max(q for _, q in rationals)
    for points, ref in zip(got, want):
        assert_same_points(points, ref)


def every_seed(model, p, q, opts):
    """solve_all_starts_one_at_a_time with every seed run, byte-identical copies too."""
    prob = PeriodicProblem(model, p, q)
    seeds = build_seeds(model, p, q, opts)
    solved = [solvers.newton_periodic_u(prob, prob.from_lift(s0), opts) for _, s0 in seeds]
    return solvers._critical_points(prob, [label for label, _ in seeds], solved, opts)


@pytest.mark.parametrize("source", ["benchmark", "fourier"])
def test_skipped_copies_change_no_class(source, bench, digest_tool, monkeypatch):
    model, rationals = scan_work_list(source, 3, bench, digest_tool)
    opts = SolveOptions(seed=3)
    starts = Calls(monkeypatch, solvers, "_newton_start")
    got = [solvers.solve_all_starts(model, p, q, opts) for p, q in rationals]
    ran, starts.n = starts.n, 0
    for points, (p, q) in zip(got, rationals):
        assert_same_points(points, every_seed(model, p, q, opts))
    assert ran < starts.n  # some seeds were copies, and did not run


def cyclic_rows(seed, m=5, n=9):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-3.0, 3.0, (m, n)), rng.uniform(-1.0, 1.0, (m, n - 1)),
            rng.uniform(-1.0, 1.0, m), rng.standard_normal((m, n)))


def end_to_end(diag, off, corner, rhs):
    """Rows (diag[j], off[j], corner[j], rhs[j]) as solve_cyclic_tridiag_stack
    takes them: end to end, each row's off followed by its corner, and the
    row bounds."""
    return (np.concatenate(diag), np.concatenate([np.append(o, c) for o, c in zip(off, corner)]),
            np.cumsum([0] + [len(d) for d in diag]), np.concatenate(rhs))


def assert_stacked_cyclic_rows(diag, off, corner, rhs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solvers.solve_cyclic_tridiag_stack(*end_to_end(diag, off, corner, rhs))
        want = [solvers.solve_cyclic_tridiag_sym(*row) for row in zip(diag, off, corner, rhs)]
    assert len(got) == len(want)
    for x, w in zip(got, want):
        assert (x is None) == (w is None)
        if w is not None:
            assert x.tobytes() == w.tobytes()
    return got


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stacked_cyclic_solve_matches_each_row_alone(seed):
    assert all(x is not None for x in assert_stacked_cyclic_rows(*cyclic_rows(seed)))


def ragged_rows(seed, lengths):
    rng = np.random.default_rng(seed)
    return ([rng.uniform(-3.0, 3.0, n) for n in lengths],
            [rng.uniform(-1.0, 1.0, n - 1) for n in lengths],
            rng.uniform(-1.0, 1.0, len(lengths)),
            [rng.standard_normal(n) for n in lengths])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ragged_cyclic_solve_matches_each_row_alone(seed, monkeypatch):
    # rows of many lengths share one dgtsv, and a zero denominator (the
    # cyclic Laplacian of row 3) stays undivided
    diag, off, corner, rhs = ragged_rows(seed, [4, 9, 3, 5, 13, 4, 233])
    diag[3], off[3], corner[3] = np.full(5, 2.0), np.full(4, -1.0), -1.0
    stacked = Calls(monkeypatch, solvers, "dgtsv")
    got = assert_stacked_cyclic_rows(diag, off, corner, rhs)
    assert [x is None for x in got] == [False, False, False, True, False, False, False]
    assert len(stacked.args[0][1]) == sum(map(len, diag))  # one stacked solve first


def test_ragged_cyclic_solve_falls_back_to_each_row_alone(monkeypatch):
    diag, off, corner, rhs = ragged_rows(4, [6, 4, 11, 5])
    diag[1], off[1] = np.array([1.0, 0.0, 2.0, 3.0]), np.zeros(3)  # a zero pivot
    alone = Calls(monkeypatch, solvers, "solve_tridiag_sym")
    got = assert_stacked_cyclic_rows(diag, off, corner, rhs)
    assert got[1] is None and alone.n == 2 * len(diag)


@pytest.mark.parametrize("cyclic", [False, True])
def test_stacked_shifted_directions_match_each_row_alone(cyclic):
    # indefinite rows of many lengths, one whose shifted solve overflows
    # (H = 0, g = 1e308: the stacked solve fails, and that row alone gives -g),
    # and on open chains rows of one and two sites
    rng = np.random.default_rng(9)
    lengths = [4, 9, 3, 5, 13, 4] if cyclic else [4, 1, 9, 2, 5, 13, 4]
    diag = [rng.uniform(-4.0, 2.0, n) for n in lengths]
    off = [rng.uniform(-1.5, 1.5, n) for n in lengths]  # the last entry couples the ends
    g = [rng.standard_normal(n) for n in lengths]
    diag[2], off[2], g[2] = np.zeros(lengths[2]), np.zeros(lengths[2]), np.full(lengths[2], 1e308)
    if not cyclic:
        for o in off:
            o[-1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solvers.shifted_newton_directions(
            np.concatenate(diag), np.concatenate(off), np.concatenate(g),
            np.cumsum([0] + lengths), cyclic)
    assert len(got) == len(lengths)
    for s, d, o, gj in zip(got, diag, off, g):
        want = solvers.shifted_newton_direction(d, o[:-1], gj, float(o[-1]) if cyclic else None)
        assert s.tobytes() == want.tobytes()
    assert got[2].tobytes() == (-g[2]).tobytes()


def test_stacked_cyclic_solve_leaves_a_zero_denominator_undivided(monkeypatch):
    # the cyclic Laplacian is singular through its constant mode, and its
    # Sherman-Morrison denominator is exactly 0; the stacked dgtsv succeeds
    diag, off, corner, rhs = cyclic_rows(4)
    diag[2], off[2], corner[2] = 2.0, -1.0, -1.0
    alone = Calls(monkeypatch, solvers, "solve_cyclic_tridiag_sym")
    got = assert_stacked_cyclic_rows(diag, off, corner, rhs)
    assert [x is None for x in got] == [False, False, True, False, False]
    assert alone.n == len(diag)  # only the reference solves


def test_stacked_cyclic_solve_falls_back_to_each_row_alone(monkeypatch):
    # a zero pivot in row 1 fails the stacked dgtsv: every modified block is
    # solved alone, once for the stack and once for its row's reference
    diag, off, corner, rhs = cyclic_rows(5)
    diag[1], off[1] = [1.0, 0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 0.0
    alone = Calls(monkeypatch, solvers, "solve_tridiag_sym")
    got = assert_stacked_cyclic_rows(diag, off, corner, rhs)
    assert got[1] is None and alone.n == 2 * len(diag)


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
