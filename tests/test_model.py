import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from staircase_lab.errors import ConfigError, TwistViolated
from staircase_lab.model import (
    GeneratingModel,
    frenkel_kontorova,
    load_model,
    parse_model,
)
from staircase_lab.solvers import SolveOptions, anti_integrable_seed
from staircase_lab.variational import minimize_periodic

from oracles import fd_partials

TWO_PI = 2.0 * math.pi


def fourier_model(a, harmonics):
    return GeneratingModel(family="fourier-potential", a=a, harmonics=tuple(harmonics))


def test_eval_h_values():
    m0 = frenkel_kontorova(0.0)
    assert m0.eval_h(0.25, 0.75) == pytest.approx(0.125, abs=1e-15)
    m1 = frenkel_kontorova(1.0)
    assert m1.eval_h(0.0, 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_eval_h_periodicity():
    rng = np.random.default_rng(11)
    m = frenkel_kontorova(0.7)
    x = rng.uniform(-3.0, 3.0, 10**4)
    xp = rng.uniform(-3.0, 3.0, 10**4)
    diff = np.abs(m.eval_h(x + 1.0, xp + 1.0) - m.eval_h(x, xp))
    assert diff.max() < 1e-12


def test_partials_closed_forms():
    m = frenkel_kontorova(0.0)
    d1, d2, d11, d12, d22 = m.partials(0.37, -1.2)
    assert d11 == pytest.approx(1.0, abs=1e-15)
    assert d22 == pytest.approx(1.0, abs=1e-15)
    assert d12 == pytest.approx(-1.0, abs=1e-15)
    m1 = frenkel_kontorova(1.0)
    assert m1.partials(0.0, 0.0)[0] == pytest.approx(0.0, abs=1e-15)


def test_partials_match_finite_differences():
    m = frenkel_kontorova(0.7)
    exact = m.partials(0.3, 0.9)
    approx = fd_partials(m, 0.3, 0.9)
    for e, fd in zip(exact, approx):
        assert abs(e - fd) < 1e-6

    rng = np.random.default_rng(23)
    models = [
        frenkel_kontorova(0.0),
        frenkel_kontorova(2.0),
        fourier_model(0.4, [(1, -0.3, 0.1), (2, 0.05, -0.02)]),
    ]
    for model in models:
        for _ in range(60):
            x = float(rng.uniform(-2.0, 2.0))
            xp = float(rng.uniform(-2.0, 2.0))
            exact = model.partials(x, xp)
            approx = fd_partials(model, x, xp)
            for e, fd in zip(exact, approx):
                assert abs(e - fd) < 1e-6


def test_check_twist_bounds():
    assert frenkel_kontorova(0.0).check_twist() == pytest.approx(1.0)
    assert frenkel_kontorova(5.0).check_twist() == pytest.approx(1.0)
    m = fourier_model(0.25, [(1, -0.5, 0.0)])
    assert m.check_twist() == pytest.approx(2.0)


def test_check_twist_violation():
    degenerate = fourier_model(0.0, [(1, -0.5, 0.0)])
    with pytest.raises(TwistViolated):
        degenerate.check_twist()


def test_twist_negative_at_random_points():
    rng = np.random.default_rng(5)
    for model in [frenkel_kontorova(1.3), fourier_model(0.8, [(1, 0.2, 0.4)])]:
        model.check_twist()
        x = rng.uniform(-4.0, 4.0, 10**4)
        xp = rng.uniform(-4.0, 4.0, 10**4)
        assert np.max(model.d12h(x, xp)) < 0.0


def test_standard_map_step():
    m = frenkel_kontorova(5.0)
    step = m.standard_map_step(0.0, 0.3)
    assert step.x == pytest.approx(0.3)
    assert step.y == pytest.approx(0.3)
    m0 = frenkel_kontorova(0.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = rng.uniform(-5.0, 5.0, 2)
        out = m0.standard_map_step(x, y)
        assert out.y == y
        assert out.x == pytest.approx(x + y)
        assert 0.0 <= out.x_mod < TWO_PI


def test_standard_map_closure_on_minimizer():
    # a (p,q)-minimizer of the chain induces a q-periodic orbit of the map
    # with parameter K = 4*pi^2*k, advancing the angle by 2*pi*p per period
    k, p, q = 0.5, 1, 5
    cfg = minimize_periodic(frenkel_kontorova(k), p, q, SolveOptions(seed=3))
    xs = cfg.positions
    sm = frenkel_kontorova(4.0 * math.pi**2 * k)
    theta = TWO_PI * xs[0]
    y = TWO_PI * (xs[0] - (xs[-1] - p))
    for _ in range(q):
        theta, y, _ = sm.standard_map_step(theta, y)
    assert theta == pytest.approx(TWO_PI * (xs[0] + p), abs=1e-8)
    assert y == pytest.approx(TWO_PI * (xs[0] - (xs[-1] - p)), abs=1e-8)


def test_el_residual_zero_cases():
    m = frenkel_kontorova(0.0)
    x = 0.2 + np.arange(7) * (3.0 / 7.0)
    assert np.abs(m.el_residual(x, 3, 7)).max() < 1e-12
    m2 = frenkel_kontorova(2.0)
    assert np.abs(m2.el_residual(np.array([0.0]), 0, 1)).max() == 0.0


def test_el_residual_second_difference_form():
    rng = np.random.default_rng(7)
    k, p, q = 1.1, 2, 9
    m = frenkel_kontorova(k)
    x = np.arange(q) * (p / q) + rng.uniform(-0.2, 0.2, q)
    res = m.el_residual(x, p, q)
    prev = np.roll(x, 1)
    prev[0] -= p
    nxt = np.roll(x, -1)
    nxt[-1] += p
    second_diff = nxt - 2.0 * x + prev
    forcing = TWO_PI * k * np.sin(TWO_PI * x)
    assert np.abs(res - (-(second_diff) + forcing)).max() < 1e-12


def test_el_residual_linearization():
    from staircase_lab.solvers import PeriodicProblem, tridiag_dense

    k, p, q = 0.5, 1, 4
    m = frenkel_kontorova(k)
    cfg = minimize_periodic(m, p, q, SolveOptions(seed=1))
    x = cfg.positions
    rng = np.random.default_rng(17)
    v = rng.uniform(-1.0, 1.0, q)
    eps = 1e-6
    r = m.el_residual(x + eps * v, p, q)
    prob = PeriodicProblem(m, p, q)
    predicted = eps * (tridiag_dense(*prob.hessian_parts(prob.from_lift(x))) @ v)
    assert np.abs(r - predicted).max() < 1e-9


def test_potential_minima():
    assert np.allclose(frenkel_kontorova(2.0).potential_minima(), [0.0])
    flipped = fourier_model(0.5, [(1, 0.3, 0.0)])
    assert np.allclose(flipped.potential_minima(), [0.5])
    two_well = fourier_model(0.5, [(1, -0.2, 0.0), (2, -0.4, 0.0)])
    mins = two_well.potential_minima()
    assert len(mins) == 2
    assert np.abs(two_well.potential_d1(mins)).max() < 1e-10


MINIMA_MODELS = {
    "fk": frenkel_kontorova(2.0),
    "flipped": fourier_model(0.5, [(1, 0.3, 0.0)]),
    "two_well": fourier_model(0.5, [(1, -0.2, 0.0), (2, -0.4, 0.0)]),
}


@pytest.mark.parametrize("name", sorted(MINIMA_MODELS))
def test_minima_are_cached_read_only_and_never_pickled(name, monkeypatch):
    model = dataclasses.replace(MINIMA_MODELS[name])
    starts = [(p, q, phase) for p, q in ((0, 1), (1, 2), (2, 5), (89, 233))
              for phase in (0.0, 0.5 / q)]
    seeds = [anti_integrable_seed(model, p, q, phase).tobytes() for p, q, phase in starts]
    minima = model._minima
    assert model.__dict__["_minima"] is minima  # computed once, then read
    assert minima.tobytes() == model.potential_minima().tobytes()
    assert not minima.flags.writeable
    with pytest.raises(ValueError):
        minima[0] = 0.25
    back = pickle.loads(pickle.dumps(model))
    assert "_minima" not in back.__dict__ and back == model
    # the same seeds from a fresh potential_minima() per call
    monkeypatch.setattr(GeneratingModel, "_minima",
                        property(lambda self: self.potential_minima()))
    assert [anti_integrable_seed(back, p, q, phase).tobytes()
            for p, q, phase in starts] == seeds


def test_model_hash_deterministic():
    m1 = frenkel_kontorova(0.5)
    m2 = frenkel_kontorova(0.5)
    assert m1.model_hash == m2.model_hash
    assert m1.model_hash != frenkel_kontorova(0.5 + 1e-12).model_hash
    assert len(m1.model_hash) == 64


@pytest.mark.parametrize("model", [
    frenkel_kontorova(2.0),
    fourier_model(0.8, [(1, -0.3, 0.1), (2, 0.0, -0.04), (3, 0.02, 0.0)]),
], ids=["fk", "fourier"])
def test_model_hash_is_cached_and_never_pickled(model):
    model = dataclasses.replace(model)
    want = hashlib.sha256(model.canonical_string().encode()).hexdigest()
    fields = {f.name for f in dataclasses.fields(model)}
    assert model.model_hash == want
    assert model.__dict__["model_hash"] == want  # computed once, then read
    model.potential(0.3)  # fills the cached terms too
    assert set(model.__getstate__()) == fields
    back = pickle.loads(pickle.dumps(model))
    assert set(back.__dict__) == fields
    assert back == model and back.model_hash == want


def test_model_file_roundtrip(tmp_path):
    text = """
# chain with two harmonics
[model]
family = fourier-potential
k = 0.0
a = 0.4

[harmonic]
order = 1
cos_amp = -0.3
sin_amp = 0.1

[harmonic]
order = 2
cos_amp = 0.05
sin_amp = -0.02
"""
    path = tmp_path / "model.cfg"
    path.write_text(text)
    m = load_model(path)
    assert m.family == "fourier-potential"
    assert m.a == 0.4
    assert m.harmonics == ((1, -0.3, 0.1), (2, 0.05, -0.02))
    again = parse_model(text)
    assert again.model_hash == m.model_hash


def test_model_file_errors():
    with pytest.raises(ConfigError):
        parse_model("[model]\nfamily = frenkel-kontorova\nk = 1\nbogus = 3\n")
    with pytest.raises(ConfigError):
        parse_model("[model]\nfamily = frenkel-kontorova\nk = 1\nk = 2\n")
    with pytest.raises(ConfigError):
        parse_model("[harmonic]\norder = 1\ncos_amp = 1\nsin_amp = 0\n")
    with pytest.raises(ConfigError):
        parse_model("[model]\nfamily = no-such-family\nk = 1\n")
    with pytest.raises(ConfigError):
        GeneratingModel(family="frenkel-kontorova", k=-1.0)
    for amp in ("cos_amp = nan", "sin_amp = inf", "sin_amp = -inf"):
        with pytest.raises(ConfigError, match="finite"):
            parse_model(f"[model]\nfamily = fourier-potential\n[harmonic]\norder = 1\n{amp}\n")
