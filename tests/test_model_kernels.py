"""The lean model kernels and indexed neighbors against the series-form oracles,
and the solvers' fused local kernels against the partials they replaced.

Every comparison is bitwise: the same return type (float or ndarray), the same
shape, the same sign bits and the same float64 bit patterns.
"""

import dataclasses
import pickle

import numpy as np
import oracles
import pytest

from staircase_lab.model import GeneratingModel, frenkel_kontorova
from staircase_lab.solvers import PeriodicProblem, segment_hessian_parts, segment_local

from oracles import (
    d11h_series,
    d12h_series,
    d22h_series,
    dnxt_roll,
    dprev_roll,
    periodic_gradient,
    periodic_hessian_parts,
    potential_d1_series,
    potential_d2_series,
    potential_series,
    segment_gradient,
)


def fourier(*harmonics, a=0.8):
    return GeneratingModel(family="fourier-potential", a=a, harmonics=tuple(harmonics))


MODELS = {
    "fk-k0": frenkel_kontorova(0.0),
    "fk-k0.3": frenkel_kontorova(0.3),
    "fk-k2": frenkel_kontorova(2.0),
    "cos-only": fourier((1, -0.5, 0.0)),
    "cos-only-positive": fourier((1, 0.5, 0.0)),
    "sin-only": fourier((1, 0.0, -0.4)),
    "mixed": fourier((1, -0.3, 0.1)),
    "three-harmonics": fourier((1, -0.3, 0.1), (2, 0.05, -0.04), (3, -0.01, 0.02)),
    "zero-amplitude-harmonic": fourier((1, 0.3, 0.0), (2, -0.0, 0.0), (3, 0.0, -0.2)),
}

_rng = np.random.default_rng(20260)
_SITES = np.concatenate(([0.0, 0.25, 0.5, 0.75, 1.0, -0.5], _rng.uniform(-3.0, 3.0, 7)))

# Python scalars, 0-d, length 1, 2 and q = 13 arrays, and lifts near +-1e6
# (exact integers reduce to x = 0, where sin is an exact zero)
INPUTS = {
    "zero": 0.0,
    "half": 0.5,
    "scalar": 0.3,
    "int": 2,
    "lift+1e6": 1e6 + 0.25,
    "lift-1e6": -1e6 - 0.3,
    "integer-lift": 1e6,
    "0-d": np.array(0.3),
    "0-d-zero": np.array(0.0),
    "float64": np.float64(0.7),
    "len-1": np.array([0.0]),
    "len-2": np.array([0.0, 0.5]),
    "len-q": _SITES,
    "lifts": np.array([1e6, -1e6, 1e6 + 0.5, -1e6 + 1e-10, 1e6 - 0.25, 999999.75]),
}


def pairs():
    """(x, x') for the two-argument kernels: equal shapes, scalar against
    array either way, and an (n,1)x(1,n) grid."""
    for name, x in INPUTS.items():
        yield name, x, x
        yield name + "-vs-scalar", x, 0.1
        yield name + "-vs-shifted", x, np.asarray(x, dtype=float) * 0.9 + 0.1
    yield "scalar-vs-len-q", 0.4, _SITES
    yield "0-d-vs-len-2", np.array(0.4), np.array([0.0, 0.5])
    grid = np.arange(8) / 8
    yield "grid", grid[:, None], grid[None, :]
    yield "grid-lifts", (grid + 1e6)[:, None], (grid - 1e6)[None, :]


def assert_bitwise(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    g = np.asarray(got, dtype=float)
    w = np.asarray(want, dtype=float)
    assert np.array_equal(np.signbit(g), np.signbit(w))
    assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("family", list(MODELS))
@pytest.mark.parametrize("name,oracle", [
    ("potential", potential_series),
    ("potential_d1", potential_d1_series),
    ("potential_d2", potential_d2_series),
])
def test_potential_kernels_match_the_series(family, name, oracle):
    model = MODELS[family]
    for x in INPUTS.values():
        assert_bitwise(getattr(model, name)(x), oracle(model, x))


@pytest.mark.parametrize("family", list(MODELS))
def test_fused_potential_derivatives_match_the_series(family):
    model = MODELS[family]
    for x in INPUTS.values():
        d1, d2 = model.potential_d12(x)
        assert_bitwise(d1, potential_d1_series(model, x))
        assert_bitwise(d2, potential_d2_series(model, x))


def test_fused_potential_derivatives_are_separate_arrays():
    # with no nonzero term both start from zeros: two arrays, not one
    d1, d2 = MODELS["fk-k0"].potential_d12(_SITES)
    assert not np.shares_memory(d1, d2)


@pytest.mark.parametrize("family", list(MODELS))
@pytest.mark.parametrize("name,oracle", [
    ("d11h", d11h_series),
    ("d12h", d12h_series),
    ("d22h", d22h_series),
])
def test_second_partials_match_the_series(family, name, oracle):
    model = MODELS[family]
    for _, x, xp in pairs():
        assert_bitwise(getattr(model, name)(x, xp), oracle(model, x, xp))


def test_signed_zeros_of_the_series_are_kept():
    # the first nonzero term is -0.0 here; the series adds it to +0.0
    assert_bitwise(MODELS["sin-only"].potential(0.0), 0.0)
    assert_bitwise(MODELS["cos-only-positive"].potential_d1(0.0), 0.0)
    # k = 0 has cos amplitude -0.0: V and its derivatives are +0.0 everywhere
    for name in ("potential", "potential_d1", "potential_d2"):
        v = getattr(MODELS["fk-k0"], name)(_SITES)
        assert not np.signbit(v).any() and not v.any()


@pytest.mark.parametrize("q,p", [(1, 0), (2, 1), (3, 1), (5, 2), (233, 89)])
def test_indexed_neighbors_match_roll(q, p):
    prob = PeriodicProblem(frenkel_kontorova(2.0), p, q)
    rng = np.random.default_rng(q)
    for u in (rng.standard_normal(q), rng.uniform(-0.5, 0.5, q) + 1e6, np.zeros(q)):
        assert_bitwise(prob.dnxt(u), dnxt_roll(prob, u))
        assert_bitwise(prob.dprev(u), dprev_roll(prob, u))


def local_states(n, seed):
    """Rows near an ordered chain, one near a lift of 1e6, and all zeros."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.uniform(-0.5, 0.5, n) + np.arange(n) * 0.4,
                     rng.uniform(-0.5, 0.5, n) + 1e6, np.zeros(n)])


def assert_parts(got, g, diag, off):
    assert len(got) == 3
    for a, b in zip(got, (g, diag, off)):
        assert_bitwise(a, b)


@pytest.mark.parametrize("q,p", [(1, 0), (2, 1), (3, 1), (13, 5), (233, 89)])
@pytest.mark.parametrize("family", ["fk-k0", "fk-k2", "mixed", "three-harmonics"])
def test_periodic_local_kernel_matches_the_partials(family, q, p):
    prob = PeriodicProblem(MODELS[family], p, q)
    U = local_states(q, q)
    for u in U:
        want = (periodic_gradient(prob, u), *periodic_hessian_parts(prob, u))
        assert_parts(prob.local(u), *want)
        assert_parts((prob.local(u)[0], *prob.hessian_parts(u)), *want)
    # a stack gives each row what the row gives alone
    for row, (g, diag, off) in zip(U, zip(*prob.local(U))):
        assert_parts((g, diag, off), *prob.local(row))


@pytest.mark.parametrize("lo,hi", [(1, 2), (1, 3), (2, 9), (1, 10)])
@pytest.mark.parametrize("family", ["fk-k0", "fk-k2", "mixed", "three-harmonics"])
def test_segment_local_kernel_matches_the_partials(family, lo, hi):
    model = MODELS[family]
    W = local_states(11, hi)
    for w in (*W, W):  # each state, then the stack
        want = (segment_gradient(model, w, lo, hi),
                *oracles.segment_hessian_parts(model, w, lo, hi))
        assert_parts(segment_local(model, w, lo, hi), *want)
        assert_parts((want[0], *segment_hessian_parts(model, w, lo, hi)), *want)


@pytest.mark.parametrize("family", list(MODELS))
def test_cached_terms_leave_identity_and_pickles_alone(family):
    model = MODELS[family]
    fresh = dataclasses.replace(model)
    before = pickle.dumps(fresh)
    fresh.potential(0.3)  # fills the cached terms
    assert pickle.dumps(fresh) == before
    assert pickle.loads(before) == fresh == model
    assert hash(fresh) == hash(model)
    assert fresh.canonical_string() == model.canonical_string()
    assert [f.name for f in dataclasses.fields(fresh)] == ["family", "k", "a", "harmonics"]
