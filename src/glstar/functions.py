"""Monotone scalar functions on an interval.

Star constructions are parametrized by increasing bijections between real
intervals.  ``Fn1`` wraps a vectorized evaluator together with its domain
and an inverse (closed-form where available, else ``bisect_monotone``),
and the factories below provide the named families understood by the CLI
config format.  Every root refinement runs on one batched kernel,
``_illinois`` (Illinois regula falsi on sign-change brackets): the roots
of many scalar functions on a common grid (``bracket_roots``, used by the
root counts of the constructions and by the star-line search), the
tabulated inverses of the eqn-family heights (``TabulatedInverse``) and
the generic inverse (``bisect_monotone``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConditionFailed, ConfigError, InvalidInput

# Inverses are refined to a few ulps of the solution.
_INVERSE_RTOL = 2e-15
# bisect_monotone's table, built per call: each target starts from 1/128 of
# the interval
_BISECT_TABLE = 129


def _illinois(fn, lo, hi, flo, fhi, rtol):
    """Roots of a batch of brackets by Illinois regula falsi.

    Bracket i is [lo[i], hi[i]] with values flo[i], fhi[i] at its ends, and
    ``fn(x, i)`` evaluates brackets i at x (aligned arrays).  Each step
    evaluates the secant point of the newest end b and the end a of the
    other sign; when the point falls on b's side, a is kept and its value
    halved (the Illinois rule).  A point on or outside an end is moved
    0.5 * rtol * max(1, |hi|) inside it, so an end that is already a root
    closes its bracket at the next evaluation.  The step is the midpoint
    instead when the bracket is not half as wide as three steps before, as
    on a flat stretch where the secant only crawls, or an end value is
    infinite: every four steps at least halve a bracket.  A bracket is done
    when fn is zero at b or the bracket is no wider than
    rtol * max(1, |hi|) (rtol above 2**-52, so that the move leaves the
    end).  Its root is the end with the smaller |fn|, which is also the
    answer of a bracket without a sign change, such as a target outside a
    table's range.  Done brackets leave the batch, so each step works on the
    open ones only.
    """
    root = np.where(np.abs(flo) < np.abs(fhi), lo, hi)
    i = np.nonzero(np.sign(flo) * np.sign(fhi) < 0)[0]
    a, fa, b, fb = lo[i], flo[i], hi[i], fhi[i]
    ga = fa  # a's own value; fa is the one the secant sees
    w1 = w2 = w3 = np.full(i.size, np.inf)  # widths one to three steps back
    while i.size:
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        w, tol = hi - lo, rtol * np.maximum(1.0, np.abs(hi))
        done = (fb == 0.0) | ~(w > tol)
        if done.any():
            d = np.flatnonzero(done)
            root[i[d]] = np.where(np.abs(ga[d]) < np.abs(fb[d]), a[d], b[d])
            keep = np.flatnonzero(~done)
            i, a, fa, ga, b, fb, lo, hi, tol, w, w1, w2, w3 = (
                v[keep] for v in (i, a, fa, ga, b, fb, lo, hi, tol, w, w1, w2, w3))
            if not i.size:
                break
        df = fb - fa
        with np.errstate(invalid="ignore"):
            x = b - fb * (b - a) / df
        mid = (w > 0.5 * w3) | ~np.isfinite(df)
        if mid.any():
            x = np.where(mid, 0.5 * (lo + hi), x)
        half = 0.5 * tol
        x = np.where(x <= lo, lo + half, np.where(x >= hi, hi - half, x))
        fx = np.asarray(fn(x, i), float)
        flip = (fx < 0.0) != (fb < 0.0)
        a = np.where(flip, b, a)
        ga = np.where(flip, fb, ga)
        fa = np.where(flip, fb, 0.5 * fa)
        b, fb = x, fx
        w1, w2, w3 = w, w1, w2
    return root


def bisect_monotone(fn, target, lo, hi):
    """Solve fn(x) = target for a monotone fn on [lo, hi], vectorized.

    ``target`` may be an array; returns an array of the same shape.  A
    ``TabulatedInverse`` on a small table, built for the call, does the
    work; a target outside fn's range gets the nearer end.
    """
    t = np.asarray(target, dtype=float)
    out = TabulatedInverse(fn, lo, hi, size=_BISECT_TABLE).solve(t)
    return float(out[0]) if t.ndim == 0 else out


def bracket_roots(fn, grid, values, rtol: float = 1e-12,
                  cluster_rtol: float = 1e-6):
    """Roots of n scalar functions (probes) located on a common grid.

    ``values`` (n, g) holds probe k at the grid points; ``fn(x, k)``
    evaluates probe k at x (aligned arrays).  Grid zeros are roots.  The
    sign changes between neighbouring grid points of all probes are refined
    together by ``_illinois`` to ``rtol``.  A root within ``cluster_rtol``
    of the previous root of its probe is the same root, and a probe that is
    zero on the whole grid has none.  Returns (k, x), sorted by probe, then
    root.
    """
    grid = np.asarray(grid, float)
    v = np.asarray(values, float)
    s = np.sign(v)
    zk, zi = np.nonzero(v == 0.0)
    bk, bi = np.nonzero(s[:, :-1] * s[:, 1:] < 0)
    root = _illinois(lambda x, i: fn(x, bk[i]), grid[bi], grid[bi + 1],
                     v[bk, bi], v[bk, bi + 1], rtol)
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
    each target its starting bracket, and ``_illinois`` refines it until fn
    is within an ulp of the target or the bracket is a few ulps wide.  A
    target outside the table's range gets the nearer end.  Built once,
    solved many times on arrays."""

    def __init__(self, fn, lo: float, hi: float, size: int = 8193):
        self.fn = fn
        self.u = np.linspace(float(lo), float(hi), size)
        v = np.asarray(fn(self.u), float)
        self.increasing = bool(v[-1] >= v[0])
        self._v = v if self.increasing else -v

    def solve(self, target):
        t = np.atleast_1d(np.asarray(target, float))
        ts = (t if self.increasing else -t).ravel()
        idx = np.clip(np.searchsorted(self._v, ts), 1, self.u.size - 1)
        sgn = 1.0 if self.increasing else -1.0
        ulp = np.spacing(np.abs(ts))

        def residual(x, i):
            # within an ulp of the target is a root: on a flat stretch the
            # residual is rounding noise long before the bracket is narrow
            r = sgn * np.asarray(self.fn(x), float) - ts[i]
            return np.where(np.abs(r) <= ulp[i], 0.0, r)

        u = _illinois(residual, self.u[idx - 1], self.u[idx],
                      self._v[idx - 1] - ts, self._v[idx] - ts, _INVERSE_RTOL)
        return u.reshape(t.shape)


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
        """Preimage under the (monotone) function; ``bisect_monotone`` when
        there is no closed form."""
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
