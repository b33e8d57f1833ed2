"""The shared damped-Newton driver against the two loops it replaced.

Both adapters must reproduce the oracle loops bit for bit: the same state,
the same residual and the same convergence flag, converged or not.  The
periodic cases cover the q <= 3 skip of the structured solve, the dense
eigenvalue-clipped fallback (q <= 200) and the Gershgorin-shifted fallback
(q > 200); the segment cases replay the clamped solves that pn_barrier,
verify_minimality and heteroclinic_segment actually make.
"""

import dataclasses

import numpy as np
import pytest

from staircase_lab import flatness, hyperbolicity, solvers, variational
from staircase_lab.errors import NoConvergence
from staircase_lab.model import GeneratingModel, frenkel_kontorova
from staircase_lab.solvers import PeriodicProblem, SolveOptions, build_seeds

from oracles import newton_periodic_u_loop, newton_segment_loop

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
    """Counts the calls of owner.<name> while still running the original."""

    def __init__(self, monkeypatch, owner, name):
        self.n = 0
        original = getattr(owner, name)

        def counted(*args):
            self.n += 1
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
    steps = Calls(monkeypatch, PeriodicProblem, "hessian_parts")
    for _, seed in build_seeds(model, p, q, opts):
        u0 = prob.from_lift(seed)
        assert_same(solvers.newton_periodic_u(prob, u0, opts),
                    newton_periodic_u_loop(prob, u0, opts))
    if q <= 3:
        # no structured solve is tried; every step is the dense one
        assert cyclic.n == 0 and dense.n > 0
    elif q <= 200:
        assert dense.n > 0
    else:
        # a second cyclic solve in one step is the Gershgorin-shifted fallback,
        # which three steps need not reach
        assert dense.n == 0 and (cyclic.n > steps.n or max_iter == 3)


def record_segment_solves(monkeypatch, run):
    """The (w0, n_fix_left, n_fix_right, opts) of every newton_segment call in run()."""
    calls = []
    original = solvers.newton_segment

    def recording(model, w0, n_fix_left, n_fix_right, opts):
        calls.append((np.array(w0, dtype=float), n_fix_left, n_fix_right, opts))
        return original(model, w0, n_fix_left, n_fix_right, opts)

    monkeypatch.setattr(solvers, "newton_segment", recording)
    try:
        run()
    except NoConvergence:
        pass  # the failing sweeps are replayed too
    monkeypatch.setattr(solvers, "newton_segment", original)
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
def test_segment_driver_matches_loop_on_pinned_solves(name, p, q, monkeypatch):
    model = MODELS[name]
    calls = record_segment_solves(
        monkeypatch, lambda: hyperbolicity.pn_barrier(model, p, q))
    replay_segments(model, calls)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_segment_driver_matches_loop_on_minimality_windows(name, monkeypatch):
    model = MODELS[name]
    cfg = variational.minimize_periodic(model, 2, 5)
    calls = record_segment_solves(
        monkeypatch, lambda: variational.verify_minimality(model, cfg, w=6))
    replay_segments(model, calls)


@pytest.mark.parametrize("name,p,q,T", [("fourier", 0, 1, 100), ("fk", 1, 2, 50)])
def test_segment_driver_matches_loop_on_wide_heteroclinic_windows(name, p, q, T, monkeypatch):
    model = MODELS[name]
    calls = record_segment_solves(
        monkeypatch, lambda: flatness.heteroclinic_segment(model, p, q, 1, T))
    assert all(len(w0) > 200 for w0, *_ in calls)
    replay_segments(model, calls)


class Quadratic:
    """Action |x[1]|^2 / 2 with x[0] and x[2] clamped and a chosen Newton step.

    solve scales -g by `gain`; fallback steps along -g and counts its calls.
    """

    free = slice(1, 2)

    def __init__(self, gain, action=None):
        self.gain = gain
        self.fallbacks = 0
        self.actions = 0
        self.action_of = action or (lambda x: 0.5 * float(x[1] * x[1]))

    def gradient(self, x):
        return x[self.free].copy()

    def action(self, x):
        self.actions += 1
        return self.action_of(x)

    def hessian_parts(self, x):
        return np.ones(1), np.zeros(0)

    def solve(self, diag, off, rhs):
        return self.gain * rhs

    def fallback(self, diag, off, g):
        self.fallbacks += 1
        return -g

    def run(self, x0, max_iter=1):
        x = np.array(x0, dtype=float)
        return solvers._damped_newton(
            x, self.free, self.gradient, self.action, self.hessian_parts,
            self.solve, self.fallback, SolveOptions(max_iter=max_iter))


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
