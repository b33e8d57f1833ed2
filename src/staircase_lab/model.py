"""Generating-function models h(x, x') for monotone twist maps.

A model is h(x, x') = a*(x - x')^2 + V(x) with V a trigonometric polynomial
of period 1.  The classical nearest-neighbor chain with cosine on-site
potential is the special case a = 1/2, V(x) = -k*cos(2*pi*x).  All partial
derivatives are analytic, so the twist bound and Euler-Lagrange residuals
are exact up to rounding.

Kernel contract.  V, V' and V'' are evaluated from the (2*pi*n, cos_amp,
sin_amp) terms built once per model, evaluating only the trig functions
whose amplitude is nonzero.  The sum runs in a fixed order: starting from
+0.0, harmonic by harmonic, V adds the cos term and then the sin term
((v + A) + B); V' adds w*(-cos_amp*sin + sin_amp*cos) and V'' subtracts
w*w*(cos_amp*cos + sin_amp*sin).  A skipped term would only have added a
signed zero to a sum that is never -0.0, so for finite x every result is
bitwise equal to the full series over all harmonics (signed zeros included;
FK at k = 0 has cos amplitude -0.0 and gives +0.0).  V' and V'' come
together from potential_d12, one reduction and one pass over the terms;
potential_d1 and potential_d2 are its two halves, and the solvers' fused
gradient-and-Hessian kernels take both.  d12h and d22h are the constants
-2a and 2a, and d11h = 2a + V''; each broadcasts only when x and x' differ
in shape, and returns a float when the result is 0-d.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, TwistViolated

TWO_PI = 2.0 * math.pi

FAMILIES = ("frenkel-kontorova", "fourier-potential")
_DERIVED = ("_terms", "_minima", "model_hash")  # cached properties, never pickled


def _constant(c: float, x, xp):
    """c over the broadcast shape of x and x'; a float when that shape is ()."""
    shape = np.shape(x)
    if np.shape(xp) != shape:
        # differing shapes broadcast to at least one dimension
        return np.broadcast_to(c, np.broadcast(np.asarray(x), np.asarray(xp)).shape)
    return np.full(shape, c) if shape else float(c)


def _canon(x: float) -> str:
    # canonical 17-significant-digit decimal rendering; round-trips float64
    return format(float(x), ".17g")


class StandardMapStep(NamedTuple):
    """One step of the standard map in the 2*pi convention.

    x is the lift; x_mod is x reduced to [0, 2*pi).
    """

    x: float
    y: float
    x_mod: float


@dataclass(frozen=True)
class GeneratingModel:
    """Twist generating function h(x, x') = a*(x-x')^2 + V(x).

    family: "frenkel-kontorova" (V = -k*cos(2*pi*x), a = 1/2) or
    "fourier-potential" (V = sum of harmonics, arbitrary a > 0).
    harmonics: tuple of (order, cos_amp, sin_amp).
    """

    family: str
    k: float = 0.0
    a: float = 0.5
    harmonics: tuple[tuple[int, float, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}")
        if not math.isfinite(self.k) or self.k < 0.0:
            raise ConfigError(f"coupling k must be finite and >= 0, got {self.k}")
        if not math.isfinite(self.a):
            raise ConfigError(f"elastic coefficient a must be finite, got {self.a}")
        if self.family == "frenkel-kontorova" and self.harmonics:
            raise ConfigError("frenkel-kontorova takes no explicit harmonics")
        for h in self.harmonics:
            if len(h) != 3 or int(h[0]) < 1:
                raise ConfigError(f"bad harmonic entry {h!r}")
            if not (math.isfinite(h[1]) and math.isfinite(h[2])):
                raise ConfigError(f"harmonic amplitudes must be finite, got {h!r}")
        # sum (2*pi*n)^2 (|cos_amp| + |sin_amp|) bounds every partial sum of V, V' and V''
        terms = ((1, self.k, 0.0),) if self.family == "frenkel-kontorova" else self.harmonics
        try:
            bound = sum((TWO_PI * int(n)) * (TWO_PI * int(n)) * (abs(ca) + abs(sa))
                        for n, ca, sa in terms)
        except OverflowError:  # an order past the float range
            bound = math.inf
        if not math.isfinite(bound):
            raise ConfigError("the potential's bound sum (2*pi*n)^2 (|cos_amp| + |sin_amp|) "
                              "overflows")

    # ---- potential -------------------------------------------------

    @cached_property
    def _terms(self) -> tuple[tuple[float, float, float], ...]:
        """(2*pi*n, cos_amp, sin_amp) per harmonic with a nonzero amplitude,
        the implicit FK cosine included."""
        if self.family == "frenkel-kontorova":
            terms = ((TWO_PI * 1, -self.k, 0.0),)
        else:
            terms = tuple((TWO_PI * int(n), float(ca), float(sa))
                          for n, ca, sa in self.harmonics)
        return tuple(t for t in terms if t[1] or t[2])

    @cached_property
    def _minima(self) -> np.ndarray:
        """potential_minima() at its default sampling, read-only, computed once."""
        minima = self.potential_minima()
        minima.flags.writeable = False
        return minima

    def __getstate__(self):
        # the cached properties are derived: pickle the fields only
        return {k: v for k, v in self.__dict__.items() if k not in _DERIVED}

    def potential(self, x):
        # V has period 1, and float mod by 1 is exact: reduce first so large
        # lift values do not lose precision inside the trig argument
        x = np.mod(np.asarray(x, dtype=float), 1.0)
        v = 0.0 if self._terms else np.zeros_like(x)
        for w, ca, sa in self._terms:
            wx = w * x
            if ca:
                v = v + ca * np.cos(wx)
            if sa:
                v = v + sa * np.sin(wx)
        return v if v.ndim else float(v)

    def potential_d12(self, x):
        """(V'(x), V''(x)) from one reduction and one trig pass."""
        x = np.mod(np.asarray(x, dtype=float), 1.0)
        if self._terms:
            v1 = v2 = 0.0
        else:
            v1, v2 = np.zeros_like(x), np.zeros_like(x)
        for w, ca, sa in self._terms:
            wx = w * x
            if ca and sa:
                s, c = np.sin(wx), np.cos(wx)
                t1 = -ca * s + sa * c
                t2 = ca * c + sa * s
            elif ca:
                t1 = -ca * np.sin(wx)
                t2 = ca * np.cos(wx)
            else:
                t1 = sa * np.cos(wx)
                t2 = sa * np.sin(wx)
            v1 = v1 + w * t1
            v2 = v2 - w * w * t2
        if v1.ndim:
            return v1, v2
        return float(v1), float(v2)

    def potential_d1(self, x):
        return self.potential_d12(x)[0]

    def potential_d2(self, x):
        return self.potential_d12(x)[1]

    def potential_minima(self, samples: int = 2048) -> np.ndarray:
        """Local minima of V on [0, 1), refined by Newton on V'."""
        xs = np.arange(samples) / samples
        v = np.atleast_1d(self.potential(xs))
        if np.ptp(v) == 0.0:
            return np.array([0.0])
        left = np.roll(v, 1)
        right = np.roll(v, -1)
        cand = xs[(v <= left) & (v <= right)]
        mins = []
        for x0 in cand:
            x = float(x0)
            for _ in range(60):
                d1, d2 = self.potential_d12(x)
                if d2 <= 0.0:
                    break
                step = d1 / d2
                x -= step
                if abs(step) < 1e-14:
                    break
            mins.append(x % 1.0)
        mins = np.sort(np.unique(np.round(np.asarray(mins), 12) % 1.0))
        # collapse near-duplicates from adjacent grid candidates
        keep = [mins[0]]
        for m in mins[1:]:
            if m - keep[-1] > 1e-9:
                keep.append(m)
        return np.asarray(keep)

    # ---- generating function ----------------------------------------

    def eval_h(self, x, xp):
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        d = x - xp
        out = self.a * d * d + self.potential(x)
        return out if out.ndim else float(out)

    def d1h(self, x, xp):
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        out = 2.0 * self.a * (x - xp) + self.potential_d1(x)
        return out if out.ndim else float(out)

    def d2h(self, x, xp):
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        out = -2.0 * self.a * (x - xp)
        return out if out.ndim else float(out)

    def d11h(self, x, xp):
        x = np.asarray(x, dtype=float)
        out = 2.0 * self.a + self.potential_d2(x)
        if np.shape(xp) == x.shape:
            return out if x.ndim else float(out)
        return np.broadcast_to(out, np.broadcast(x, np.asarray(xp)).shape)

    def d12h(self, x, xp):
        return _constant(-2.0 * self.a, x, xp)

    def d22h(self, x, xp):
        return _constant(2.0 * self.a, x, xp)

    def partials(self, x, xp):
        """(d1h, d2h, d11h, d12h, d22h) at (x, x')."""
        return (
            self.d1h(x, xp),
            self.d2h(x, xp),
            self.d11h(x, xp),
            self.d12h(x, xp),
            self.d22h(x, xp),
        )

    # ---- contracts ---------------------------------------------------

    def check_twist(self) -> float:
        """The twist bound: the b with d12h = -1/b.

        d12h is the constant -2a, so one evaluation covers [0,1)^2.  Raises
        TwistViolated when it is >= 0.
        """
        d12 = float(self.d12h(0.0, 0.0))
        if d12 >= 0.0:
            raise TwistViolated(f"d12h = {d12:.6g} >= 0: the map does not twist")
        return -1.0 / d12

    def standard_map_step(self, x: float, y: float) -> StandardMapStep:
        """(x, y) -> (x + y + k*sin x, y + k*sin x), x reported as lift and mod 2*pi.

        The k here multiplies sin x in the 2*pi convention; the chain model at
        coupling k corresponds to standard-map parameter K = 4*pi^2*k.
        """
        y_new = y + self.k * math.sin(x)
        x_new = x + y_new
        return StandardMapStep(x_new, y_new, x_new % TWO_PI)

    def el_residual(self, positions: Sequence[float], p: int, q: int) -> np.ndarray:
        """Euler-Lagrange residual d2h(x_{i-1}, x_i) + d1h(x_i, x_{i+1}) for i < q.

        positions holds one period x_0..x_{q-1}; the lift rule x_{i+q} = x_i + p
        supplies both neighbors at the seam.
        """
        x = np.asarray(positions, dtype=float)
        if x.shape != (q,):
            raise ValueError(f"expected {q} positions, got shape {x.shape}")
        prev = np.roll(x, 1)
        prev[0] -= p
        nxt = np.roll(x, -1)
        nxt[-1] += p
        return np.asarray(self.d2h(prev, x) + self.d1h(x, nxt), dtype=float)

    # ---- identity ------------------------------------------------------

    def canonical_string(self) -> str:
        parts = [self.family, _canon(self.k), _canon(self.a)]
        for n, ca, sa in self.harmonics:
            parts.append(f"{int(n)}:{_canon(ca)}:{_canon(sa)}")
        return "|".join(parts)

    @cached_property
    def model_hash(self) -> str:
        return hashlib.sha256(self.canonical_string().encode()).hexdigest()

    def to_config_dict(self) -> dict:
        d = {"family": self.family, "k": self.k, "a": self.a}
        if self.harmonics:
            d["harmonics"] = [list(h) for h in self.harmonics]
        return d


def frenkel_kontorova(k: float) -> GeneratingModel:
    return GeneratingModel(family="frenkel-kontorova", k=float(k), a=0.5)


# ---- model file format -------------------------------------------------
#
# [model]
# family = frenkel-kontorova
# k = 2.0
# a = 0.5
#
# [harmonic]          (repeatable; fourier-potential only)
# order = 1
# cos_amp = -0.5
# sin_amp = 0.0

_MODEL_KEYS = {"family", "k", "a"}
_HARMONIC_KEYS = {"order", "cos_amp", "sin_amp"}


def parse_sections(text: str) -> list[tuple[str, dict]]:
    """Parses the sectioned key=value format; sections may repeat."""
    sections: list[tuple[str, dict]] = []
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            current = {}
            sections.append((name, current))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        current[key] = val
    return sections


def parse_float(section: str, data: dict, key: str, default=None):
    """data[key] as a float, default when the key is absent."""
    if key not in data:
        return default
    try:
        return float(data[key])
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {data[key]!r} is not a number") from exc


def model_from_sections(sections: list[tuple[str, dict]]) -> GeneratingModel:
    model_data = None
    harmonics = []
    for name, data in sections:
        if name == "model":
            if model_data is not None:
                raise ConfigError("more than one [model] section")
            model_data = data
        elif name == "harmonic":
            unknown = set(data) - _HARMONIC_KEYS
            if unknown:
                raise ConfigError(f"[harmonic] unknown keys {sorted(unknown)}")
            try:
                order = int(data.get("order", "1"))
            except ValueError as exc:
                raise ConfigError(f"[harmonic] bad order {data['order']!r}") from exc
            harmonics.append(
                (
                    order,
                    parse_float("harmonic", data, "cos_amp", 0.0),
                    parse_float("harmonic", data, "sin_amp", 0.0),
                )
            )
        else:
            raise ConfigError(f"unknown section [{name}] in model file")
    if model_data is None:
        raise ConfigError("missing [model] section")
    unknown = set(model_data) - _MODEL_KEYS
    if unknown:
        raise ConfigError(f"[model] unknown keys {sorted(unknown)}")
    family = model_data.get("family")
    if family is None:
        raise ConfigError("[model] missing required key 'family'")
    k = parse_float("model", model_data, "k", 0.0)
    a = parse_float("model", model_data, "a", 0.5)
    return GeneratingModel(family=family, k=k, a=a, harmonics=tuple(harmonics))


def load_model(path) -> GeneratingModel:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return model_from_sections(parse_sections(text))


def parse_model(text: str) -> GeneratingModel:
    return model_from_sections(parse_sections(text))
