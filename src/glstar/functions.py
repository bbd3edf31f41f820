"""Monotone scalar functions on an interval.

Star constructions are parametrized by increasing bijections between real
intervals.  ``Fn1`` wraps a vectorized evaluator together with its domain
and an inverse (closed-form where available, monotone bisection otherwise),
and the factories below provide the named families understood by the CLI
config format.  ``bracket_roots`` finds the roots of many scalar functions
on a common grid; the root counts of the constructions and the star-line
search both use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConditionFailed, ConfigError, InvalidInput

MONOTONE_GRID = 1024


def bisect_monotone(fn, target, lo, hi, iters: int = 90):
    """Solve fn(x) = target for a monotone fn on [lo, hi], vectorized.

    ``target`` may be an array; returns an array of the same shape.
    """
    t = np.asarray(target, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    lo = np.full_like(t, float(lo))
    hi = np.full_like(t, float(hi))
    increasing = fn(hi[:1])[0] >= fn(lo[:1])[0]
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        v = np.asarray(fn(mid), float)
        if increasing:
            go_right = v < t
        else:
            go_right = v > t
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out[0]) if scalar else out


def bracket_roots(fn, grid, values, rtol: float = 1e-12,
                  cluster_rtol: float = 1e-6):
    """Roots of n scalar functions (probes) located on a common grid.

    ``values`` (n, g) holds probe k at the grid points; ``fn(x, k)``
    evaluates probe k at x (aligned arrays).  Grid zeros are roots.  The
    sign changes between neighbouring grid points of all probes are refined
    together by Illinois regula falsi, each until its bracket is narrower
    than ``rtol * max(1, |x|)``.  A root within ``cluster_rtol`` of the
    previous root of its probe is the same root, and a probe that is zero
    on the whole grid has none.  Returns (k, x), sorted by probe, then root.
    """
    grid = np.asarray(grid, float)
    v = np.asarray(values, float)
    s = np.sign(v)
    zk, zi = np.nonzero(v == 0.0)
    bk, bi = np.nonzero(s[:, :-1] * s[:, 1:] < 0)
    lo, hi = grid[bi], grid[bi + 1]
    flo, fhi = v[bk, bi], v[bk, bi + 1]
    root = 0.5 * (lo + hi)
    moved = np.zeros(bk.size)  # +1: lo moved last step, -1: hi moved
    active = np.nonzero(hi - lo > rtol * np.maximum(1.0, np.abs(hi)))[0]
    while active.size:
        a = active
        x = (lo[a] * fhi[a] - hi[a] * flo[a]) / (fhi[a] - flo[a])
        x = np.where((x > lo[a]) & (x < hi[a]), x, 0.5 * (lo[a] + hi[a]))
        # a bracket of two neighbouring floats has no point inside
        stuck = (x <= lo[a]) | (x >= hi[a])
        fx = np.asarray(fn(x, bk[a]), float)
        zero = fx == 0.0
        up = ~zero & (np.sign(fx) == np.sign(flo[a]))
        down = ~zero & ~up
        # Illinois: an end kept twice in a row has its value halved
        fhi[a] = np.where(up & (moved[a] > 0), 0.5 * fhi[a], fhi[a])
        flo[a] = np.where(down & (moved[a] < 0), 0.5 * flo[a], flo[a])
        lo[a] = np.where(up, x, lo[a])
        flo[a] = np.where(up, fx, flo[a])
        hi[a] = np.where(down, x, hi[a])
        fhi[a] = np.where(down, fx, fhi[a])
        moved[a] = np.where(up, 1.0, -1.0)
        root[a] = np.where(zero, x, 0.5 * (lo[a] + hi[a]))
        narrow = hi[a] - lo[a] <= rtol * np.maximum(1.0, np.abs(hi[a]))
        active = a[~(zero | narrow | stuck)]
    k = np.concatenate([zk, bk])
    x = np.concatenate([grid[zi], root])
    order = np.lexsort((x, k))
    k, x = k[order], x[order]
    new = np.ones(x.size, bool)
    new[1:] = (k[1:] != k[:-1]) | (x[1:] - x[:-1]
                                   > cluster_rtol * np.maximum(1.0, np.abs(x[1:])))
    keep = new & np.any(v, axis=1)[k]
    return k[keep], x[keep]


class TabulatedInverse:
    """Fast inverse of a monotone function on [lo, hi]: a value table gives
    a tight starting bracket, regula falsi (with bracket maintenance)
    finishes.  Built once, solved many times on arrays."""

    def __init__(self, fn, lo: float, hi: float, size: int = 8193):
        self.fn = fn
        self.u = np.linspace(float(lo), float(hi), size)
        v = np.asarray(fn(self.u), float)
        self.increasing = bool(v[-1] >= v[0])
        self._v = v if self.increasing else -v

    def solve(self, target, iters: int = 10):
        t = np.atleast_1d(np.asarray(target, float))
        ts = t if self.increasing else -t
        idx = np.clip(np.searchsorted(self._v, ts), 1, self.u.size - 1)
        lo, hi = self.u[idx - 1], self.u[idx]
        flo = self._v[idx - 1] - ts
        fhi = self._v[idx] - ts
        sgn = 1.0 if self.increasing else -1.0
        def falsi(lo, hi, flo, fhi):
            denom = fhi - flo
            safe = np.where(np.abs(denom) > 1e-300, denom, 1.0)
            return np.where(np.abs(denom) > 1e-300,
                            (lo * fhi - hi * flo) / safe, 0.5 * (lo + hi))

        for _ in range(iters):
            mid = np.clip(falsi(lo, hi, flo, fhi), lo, hi)
            fm = sgn * np.asarray(self.fn(mid), float) - ts
            go_hi = fm < 0.0
            lo = np.where(go_hi, mid, lo)
            flo = np.where(go_hi, fm, flo)
            hi = np.where(go_hi, hi, mid)
            fhi = np.where(go_hi, fhi, fm)
        return np.clip(falsi(lo, hi, flo, fhi), self.u[0], self.u[-1])


@dataclass(frozen=True)
class Fn1:
    """A scalar function on an interval, callable on numpy arrays."""

    fn: Callable
    domain: tuple[float, float]
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    inv: Callable | None = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def inverse(self, y):
        """Preimage under the (monotone) function; bisection fallback."""
        if self.inv is not None:
            return self.inv(np.asarray(y, dtype=float))
        lo, hi = self.domain
        if np.isinf(hi):
            hi = _expand_upper(self.fn, lo, y)
        return bisect_monotone(self.fn, y, lo, hi)

    def describe(self) -> str:
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items())
                         if np.isscalar(v))
        return f"{self.kind}({inner})"


def _expand_upper(fn, lo, y):
    ymax = float(np.max(np.asarray(y, float)))
    hi = max(1.0, lo + 1.0)
    for _ in range(200):
        if fn(np.array([hi]))[0] >= ymax:
            return hi
        hi *= 2.0
    raise InvalidInput("could not bracket the inverse on an unbounded domain")


def identity(domain=(0.0, 1.0)) -> Fn1:
    return Fn1(lambda t: t, domain, kind="identity", inv=lambda y: y)


def affine(a: float, b: float, domain=(0.0, 1.0)) -> Fn1:
    if a == 0.0:
        raise InvalidInput("affine function with zero slope is not monotone")
    return Fn1(lambda t: a * t + b, domain, kind="affine",
               params={"a": a, "b": b}, inv=lambda y: (y - b) / a)


def power(p: float, domain=(0.0, 1.0)) -> Fn1:
    if p <= 0.0:
        raise InvalidInput("power function needs a positive exponent")
    return Fn1(lambda t: np.power(t, p), domain, kind="power",
               params={"p": p},
               inv=lambda y: np.power(y, 1.0 / p))


def moebius01() -> Fn1:
    """t -> t / (1 - t), an increasing bijection [0, 1) -> [0, inf)."""
    return Fn1(lambda t: t / (1.0 - t), (0.0, 1.0), kind="moebius01",
               inv=lambda y: y / (1.0 + y))


def phi_r(r: float) -> Fn1:
    """a -> a(a+r) / (a^2 + ra + r), an increasing bijection [0, inf) -> [0, 1)."""
    if r <= 0.0:
        raise InvalidInput("phi_r requires r > 0")

    def f(a):
        return a * (a + r) / (a * a + r * a + r)

    def f_inv(y):
        # a^2 (1-y) + r a (1-y) - r y = 0, the positive root
        y = np.asarray(y, float)
        one_m = 1.0 - y
        disc = (r * one_m) ** 2 + 4.0 * one_m * r * y
        return (-r * one_m + np.sqrt(disc)) / (2.0 * one_m)

    return Fn1(f, (0.0, np.inf), kind="phi_r", params={"r": r}, inv=f_inv)


def neg_circle() -> Fn1:
    """t -> -sqrt(1 - t^2), the lower quarter of the unit circle on [0, 1]."""
    return Fn1(lambda t: -np.sqrt(np.clip(1.0 - t * t, 0.0, None)),
               (0.0, 1.0), kind="neg_circle",
               inv=lambda y: np.sqrt(np.clip(1.0 - y * y, 0.0, None)))


def table(knots, values) -> Fn1:
    """Monotone piecewise-linear interpolant; monotonicity enforced at load."""
    k = np.asarray(knots, dtype=float)
    v = np.asarray(values, dtype=float)
    if k.ndim != 1 or k.shape != v.shape or k.size < 2:
        raise InvalidInput("table needs matching 1-d knots and values, length >= 2")
    if np.any(np.diff(k) <= 0):
        raise InvalidInput("table knots must be strictly increasing")
    dv = np.diff(v)
    if not (np.all(dv > 0) or np.all(dv < 0)):
        raise ConditionFailed("table values are not strictly monotone")
    increasing = dv[0] > 0

    def f(t):
        return np.interp(t, k, v)

    def f_inv(y):
        if increasing:
            return np.interp(y, v, k)
        return np.interp(y, v[::-1], k[::-1])

    return Fn1(f, (float(k[0]), float(k[-1])), kind="table",
               params={"knots": k, "values": v}, inv=f_inv)


_FACTORIES = {
    "identity": lambda spec: identity(),
    "affine": lambda spec: affine(_num(spec, "a"), _num(spec, "b")),
    "power": lambda spec: power(_num(spec, "p")),
    "moebius01": lambda spec: moebius01(),
    "phi_r": lambda spec: phi_r(_num(spec, "r")),
    "neg_circle": lambda spec: neg_circle(),
    "table": lambda spec: table(spec.get("knots"), spec.get("values")),
}


def _num(spec, key):
    if key not in spec:
        raise ConfigError(f"missing parameter '{key}'")
    return float(spec[key])


def from_spec(spec, path="fn") -> Fn1:
    """Build an Fn1 from a JSON-style mapping like {"kind": "phi_r", "r": 1.5}."""
    if not isinstance(spec, dict):
        raise ConfigError("function spec must be an object", field=path)
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _FACTORIES:
        raise ConfigError(f"unknown function kind {kind!r}", field=path)
    try:
        return _FACTORIES[kind](spec)
    except (InvalidInput, ConditionFailed, ConfigError, TypeError, ValueError,
            OverflowError) as exc:
        raise ConfigError(str(exc), field=path) from exc


def as_fn1(f, domain=(0.0, 1.0)) -> Fn1:
    """Wrap a plain callable (already an Fn1 passes through)."""
    if isinstance(f, Fn1):
        return f
    if not callable(f):
        raise InvalidInput("expected a callable or Fn1")
    return Fn1(lambda t, _f=f: np.asarray(_f(np.asarray(t, float)), float), domain)


def check_increasing(f, grid, name="function", strict=True, tol=0.0):
    """Raise ConditionFailed unless f is (strictly) increasing on the grid."""
    v = np.asarray(f(np.asarray(grid, float)), float)
    d = np.diff(v)
    bad = d <= tol if strict else d < -abs(tol)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConditionFailed(f"{name} is not increasing", witness=float(np.asarray(grid)[i]))
    return v
