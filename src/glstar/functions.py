"""Monotone scalar functions on an interval.

Star constructions are parametrized by increasing bijections between real
intervals.  ``Fn1`` wraps an evaluator together with its domain and its
inverse, each taking a numpy array or one Python float.  The factories
below provide the named families understood by the CLI config format,
each with a closed-form inverse; ``as_fn1`` wraps a plain callable, whose
inverse is a ``TabulatedInverse`` built at its first inverse call.
``_illinois`` (regula falsi with the Anderson-Björck rule on sign-change
brackets) refines the roots of many scalar functions on a common grid
(``bracket_roots``, used by the star-line search) and the targets of the
table inverses; one bracket in Python floats (``_illinois_one``) takes
the same step, one kernel on columns.  The root counts (``count_roots``)
share bracket_roots' candidates but refine only the roots that could
merge with a neighbour, which on a valid star is none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConditionFailed, ConfigError, InvalidInput
from .projgeom import col_clip, col_quiet, col_sqrt, col_where

# Inverses are refined to a few ulps of the solution.
_INVERSE_RTOL = 2e-15
# The table inverse of a plain callable on a bounded domain: each target
# starts from 1/128 of the interval
_LINEAR_TABLE = 129
# On [0, inf) the table is in u = log x for x in this range
LOG_TABLE_RANGE = (1e-9, 1e9)
# A root within this relative distance of the previous root of its probe
# is the same root
_CLUSTER_RTOL = 1e-6


def _bracket(a, ga, b, fb, rtol):
    """The ends lo <= hi of brackets a, b, their width w and tolerance, and
    whether they are done (fb = fn(b) is 0, or w is within the tolerance or
    NaN), with the root if so: the end with the smaller |fn|."""
    lo, hi = col_where(a < b, (a, b), (b, a))
    w, tol = hi - lo, rtol * col_clip(abs(hi), 1.0)
    return (lo, hi, w, tol, (fb == 0.0) | (w <= tol) | (w != w),
            col_where(abs(ga) < abs(fb), a, b))


def _secant(a, fa, b, fb, lo, hi, w, w3, tol):
    """The point at which open brackets are evaluated.  Floats raise nothing:
    df is not 0, as fb is not and fa is NaN, 0 or of the other sign."""
    df = fb - fa
    x = col_where((w > 0.5 * w3) | (df - df != 0.0), 0.5 * (lo + hi),
                  b - fb * (b - a) / df)
    half = 0.5 * tol
    return col_where(x <= lo, lo + half, col_where(x >= hi, hi - half, x))


def _keep(a, fa, ga, b, fb, fx):
    """The new end a, its value fa for the secant and its own value ga,
    once fx = fn(x) is known."""
    m = 1.0 - fx / fb
    return col_where((fx < 0.0) != (fb < 0.0), (b, fb, fb),
                     (a, col_where(m > 0.0, m, 0.5) * fa, ga))


def _illinois(fn, lo, hi, flo, fhi, rtol):
    """Roots of a batch of brackets by regula falsi with the
    Anderson-Björck rule.

    Bracket i is [lo[i], hi[i]] with values flo[i], fhi[i] at its ends, and
    ``fn(x, i)`` evaluates brackets i at x (aligned arrays).  Each step
    evaluates the secant point x of the newest end b and the end a of the
    other sign; when fn(x) has b's sign, a is kept and its value scaled by
    m = 1 - fn(x) / fn(b) when m > 0, else halved as by the Illinois rule
    (Anderson-Björck).  A point on or outside an end is moved
    0.5 * rtol * max(1, |hi|) inside it, so an end that is already a root
    closes its bracket at the next evaluation.  The step is the midpoint
    instead when the bracket is not half as wide as three steps before, as
    on a flat stretch where the secant only crawls, or an end value is
    infinite: every four steps at least halve a bracket.  A bracket is done
    when fn is zero at b or the bracket is no wider than
    rtol * max(1, |hi|) (rtol above 2**-52, so that the move leaves the
    end).  Its root is the end with the smaller |fn|, which is also the
    answer of a bracket without a sign change, such as a target outside a
    table's range.  Each step is one set of kernels on columns (``_bracket``,
    ``_secant``, ``_keep``), and done brackets leave the batch, so that it
    works on the open ones only, one of them included.  The single-point
    search takes the same steps in Python floats (``_illinois_one``).  A
    single root of the star-line search takes 4.6 to 4.75 evaluations on
    average, against 5.4 to 5.7 with Illinois halving alone.
    """
    root = np.where(np.abs(flo) < np.abs(fhi), lo, hi)
    i = np.nonzero(np.sign(flo) * np.sign(fhi) < 0)[0]
    a, fa, b, fb = lo[i], flo[i], hi[i], fhi[i]
    ga = fa  # a's own value; fa is the one the secant sees
    w1 = w2 = w3 = np.full(i.size, np.inf)  # widths one to three steps back
    while i.size:
        lo, hi, w, tol, done, end = _bracket(a, ga, b, fb, rtol)
        if done.any():
            d = np.flatnonzero(done)
            root[i[d]] = end[d]
            keep = np.flatnonzero(~done)
            i, a, fa, ga, b, fb, lo, hi, tol, w, w1, w2, w3 = (
                v[keep] for v in (i, a, fa, ga, b, fb, lo, hi, tol, w, w1, w2, w3))
            if not i.size:
                break
        with np.errstate(invalid="ignore"):
            x = _secant(a, fa, b, fb, lo, hi, w, w3, tol)
        fx = np.asarray(fn(x, i), float)
        with np.errstate(invalid="ignore", over="ignore"):
            a, fa, ga = _keep(a, fa, ga, b, fb, fx)
        b, fb, w1, w2, w3 = x, fx, w, w1, w2
    return root


def _illinois_one(f, a, b, fa, fb, rtol):
    """_illinois on one bracket [a, b] with end values fa, fb of opposite
    signs, and f evaluating its function at a float: the batch's steps in
    Python floats, so the root has the same bits."""
    ga, w1, w2, w3 = fa, math.inf, math.inf, math.inf
    while True:
        lo, hi, w, tol, done, end = _bracket(a, ga, b, fb, rtol)
        if done:
            return end
        x = _secant(a, fa, b, fb, lo, hi, w, w3, tol)
        fx = f(x)
        a, fa, ga = _keep(a, fa, ga, b, fb, fx)
        b, fb, w1, w2, w3 = x, fx, w, w1, w2


def _root_candidates(v):
    """The candidate roots of probes with values v (n, g) on a grid, sorted
    by probe, then position: the grid zeros and the sign changes between
    neighbouring grid points.  Returns the probe k of each candidate, the
    grid index i of its lower end, and whether it is a bracket
    [grid[i], grid[i + 1]] rather than the zero grid[i]."""
    pos, neg = v > 0.0, v < 0.0
    cand = np.zeros((v.shape[0], 2 * v.shape[1] - 1), bool)
    cand[:, ::2] = v == 0.0
    cand[:, 1::2] = (pos[:, :-1] & neg[:, 1:]) | (neg[:, :-1] & pos[:, 1:])
    k, p = np.nonzero(cand)
    return k, p // 2, p % 2 == 1


def _refine(fn, grid, v, k, i, rtol):
    """The roots of the brackets [grid[i], grid[i + 1]] of probes k."""
    return _illinois(lambda x, j: fn(x, k[j]), grid[i], grid[i + 1],
                     v[k, i], v[k, i + 1], rtol)


def _new_roots(k, x):
    """Mask of the candidates x (sorted within each probe k) that are not
    within ``_CLUSTER_RTOL`` of the previous root of their probe."""
    new = np.ones(x.size, bool)
    new[1:] = (k[1:] != k[:-1]) | (
        x[1:] - x[:-1] > _CLUSTER_RTOL * np.maximum(1.0, np.abs(x[1:])))
    return new


def bracket_roots(fn, grid, values, rtol: float = 1e-12):
    """Roots of n scalar functions (probes) located on a common increasing
    grid.

    ``values`` (n, g) holds probe k at the grid points, and ``fn(x, k)``
    evaluates probe k at x (aligned arrays).  Grid zeros are roots.  The
    sign changes between neighbouring grid points of all probes are refined
    together by ``_illinois`` to ``rtol``.  A root within
    ``_CLUSTER_RTOL`` of the previous root of its probe is the same root,
    and a probe that is zero on the whole grid has none.  Returns (k, x),
    sorted by probe, then root.
    """
    grid = np.asarray(grid, float)
    v = np.asarray(values, float)
    k, i, br = _root_candidates(v)
    x = grid[i]
    x[br] = _refine(fn, grid, v, k[br], i[br], rtol)
    keep = _new_roots(k, x) & np.any(v, axis=1)[k]
    return k[keep], x[keep]


def count_roots(fn, grid, values, rtol: float = 1e-12):
    """The number of roots ``bracket_roots`` locates for each probe, as an
    int array of length n, refining only the brackets that could merge.

    A candidate can only merge with the previous one of its probe when the
    lower bound of their distance, its lower end minus the previous upper
    end, is within ``_CLUSTER_RTOL * max(1, |lo|, |hi|)`` of its own ends;
    rounded subtraction and multiplication are monotone, so every other
    candidate is a distinct root whatever the refinement would give.  Both
    members of each pair that could merge are refined as ``bracket_roots``
    refines them, and ``_illinois`` gives a bracket the same bits in any
    batch, so the counts are ``bracket_roots``' exactly.
    """
    grid = np.asarray(grid, float)
    v = np.asarray(values, float)
    k, i, br = _root_candidates(v)
    lo, hi = grid[i], grid[i + br]
    near = np.zeros(k.size, bool)
    near[1:] = (k[1:] == k[:-1]) & (
        lo[1:] - hi[:-1]
        <= _CLUSTER_RTOL * np.maximum(1.0, np.maximum(np.abs(lo[1:]),
                                                      np.abs(hi[1:]))))
    # near[j]: j and j - 1 could merge; both are refined (grid zeros are
    # exact), and the merge test reads x of such pairs only
    refine = br & (near | np.append(near[1:], False))
    x = lo
    if refine.any():
        x[refine] = _refine(fn, grid, v, k[refine], i[refine], rtol)
    new = ~near | _new_roots(k, x)
    keep = new & np.any(v, axis=1)[k]
    return np.bincount(k[keep], minlength=v.shape[0])


class TabulatedInverse:
    """Fast inverse of a monotone function on [lo, hi]: a value table gives
    each target its starting bracket, and ``_illinois`` refines it until fn
    is within an ulp of the target or the bracket is a few ulps wide.  A
    target outside the table's range gets the nearer end, and a NaN target
    NaN.  Built once, solved many times on arrays."""

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
        u[np.isnan(ts)] = np.nan  # _illinois gives a bracket's end
        return u.reshape(np.shape(target))


def _table_inverse(fn, lo: float, hi: float):
    """The inverse of a monotone fn on [lo, hi] by a ``TabulatedInverse``
    built at the first call, so that a function never inverted builds none.

    A bounded domain gets a linear table of _LINEAR_TABLE points.  On
    [0, inf) the table is in u = log x for x in LOG_TABLE_RANGE: a target
    past its last value gets the range's end, and one from 0 up to its
    first value the line through the origin, for fn(x) is taken to vanish
    like x as x -> 0 (as the circle heights of the stars do)."""
    if not np.isinf(hi):
        table = functools.cache(
            lambda: TabulatedInverse(fn, lo, hi, size=_LINEAR_TABLE))
        return lambda y: table().solve(y)

    @functools.cache
    def table():
        tab = TabulatedInverse(lambda u: fn(np.exp(u)), *np.log(LOG_TABLE_RANGE))
        return tab, float(tab.fn(tab.u[:1])[0])

    def inv(y):
        y = np.asarray(y, float)
        tab, v0 = table()
        u = tab.solve(y)
        ratio = y / v0
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.exp(np.where((ratio >= 0.0) & (ratio < 1.0),
                                   tab.u[0] + np.log(ratio), u))

    return inv


@dataclass(frozen=True)
class Fn1:
    """A monotone scalar function on an interval, with its inverse ``inv``.

    ``fn`` and ``inv`` take a numpy array or one Python float.  At a float
    they take the batch's float operations in the same order, so a value
    has the bits of a batch row: + - * / and sqrt in Python floats, a
    transcendental step by numpy's own ufunc on the float, a plain callable
    (``as_fn1``) on a 0-d array.  At a float they may raise
    ZeroDivisionError or ValueError where numpy gives inf or NaN.  Calling
    the function and ``inverse`` give an array of an array, and a Python
    float of a float."""

    fn: Callable
    domain: tuple[float, float]
    inv: Callable
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __call__(self, x):
        if type(x) is float:
            return float(self.fn(x))
        return self.fn(np.asarray(x, dtype=float))

    def inverse(self, y):
        """Preimage under the function."""
        if type(y) is float:
            return float(self.inv(y))
        return self.inv(np.asarray(y, dtype=float))

    def describe(self) -> str:
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items())
                         if np.isscalar(v))
        return f"{self.kind}({inner})"


def identity(domain=(0.0, 1.0)) -> Fn1:
    def f(t):
        return t

    return Fn1(f, domain, kind="identity", inv=f)


def affine(a: float, b: float, domain=(0.0, 1.0)) -> Fn1:
    if not (a > 0.0 or a < 0.0):
        raise InvalidInput("affine function with zero slope is not monotone")

    def f(t):
        return a * t + b

    def f_inv(y):
        return (y - b) / a

    return Fn1(f, domain, kind="affine", params={"a": a, "b": b}, inv=f_inv)


def power(p: float, domain=(0.0, 1.0)) -> Fn1:
    if not p > 0.0:
        raise InvalidInput("power function needs a positive exponent")

    def f(t):
        return np.power(t, p)

    def f_inv(y):
        return np.power(y, 1.0 / p)

    return Fn1(f, domain, kind="power", params={"p": p}, inv=f_inv)


def moebius01() -> Fn1:
    """t -> t / (1 - t), an increasing bijection [0, 1) -> [0, inf)."""
    def f(t):
        return t / (1.0 - t)

    def f_inv(y):
        return y / (1.0 + y)

    return Fn1(f, (0.0, 1.0), kind="moebius01", inv=f_inv)


def phi_r(r: float) -> Fn1:
    """a -> a(a+r) / (a^2 + ra + r), an increasing bijection [0, inf) -> [0, 1)."""
    if not r > 0.0:
        raise InvalidInput("phi_r requires r > 0")

    @col_quiet(over="ignore", invalid="ignore")
    def f(a):
        # the quotient can round above 1 for large a, where 1 is the
        # correctly rounded value (as np.minimum, NaN kept); a huge r
        # overflows to inf and NaN, which the checks reject
        q = a * (a + r) / (a * a + r * a + r)
        return col_where(q > 1.0, 1.0, q)

    def f_inv(y):
        # a^2 (1-y) + r a (1-y) - r y = 0, the positive root in the form
        # without cancellation as y -> 0
        one_m = 1.0 - y
        u = r * one_m
        disc = u * u + 4.0 * one_m * r * y
        return 2.0 * r * y / (u + col_sqrt(disc))

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
    for arr, name in ((k, "knots"), (v, "values")):
        if not np.isfinite(arr).all():
            raise InvalidInput(f"table {name} must be finite numbers")
    if not np.all(np.diff(k) > 0):
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
    """The finite number spec[key]: JSON reads 1e400 and Infinity as inf."""
    if key not in spec:
        raise ConfigError(f"missing parameter '{key}'")
    value = float(spec[key])
    if not math.isfinite(value):
        raise ConfigError(f"parameter '{key}' must be a finite number")
    return value


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
    """Wrap a plain monotone callable on a bounded domain or [0, inf), with
    a table inverse (``_table_inverse``); an Fn1 passes through."""
    if isinstance(f, Fn1):
        return f
    if not callable(f):
        raise InvalidInput("expected a callable or Fn1")
    lo, hi = map(float, domain)
    if not np.isfinite([lo, hi]).all() and (lo, hi) != (0.0, np.inf):
        raise InvalidInput("a callable's domain must be bounded or [0, inf)")

    def fn(t):
        return np.asarray(f(np.asarray(t, float)), float)

    return Fn1(fn, domain, _table_inverse(fn, lo, hi))


def _plain(w):
    """A witness as plain Python numbers: an int, a float or a tuple."""
    if np.ndim(w):
        return tuple(map(_plain, w))
    return int(w) if isinstance(w, (int, np.integer)) else float(w)


def _require(ok, condition, witnesses):
    """Raise ConditionFailed(condition) unless ok, what must hold, is True
    everywhere (NaN comparisons are False, so NaN fails it).  ok is one
    verdict, whose witness is ``witnesses`` itself, or an array of verdicts
    with one witness per sample, of which the first failing one's is
    reported; None reports none."""
    ok = np.asarray(ok, bool)
    if ok.all():
        return
    if ok.ndim:
        witnesses = None if witnesses is None else witnesses[int(np.argmin(ok))]
    raise ConditionFailed(condition,
                          None if witnesses is None else _plain(witnesses))


def check_increasing(f, grid, name="function"):
    """Raise ConditionFailed unless f is strictly increasing on the grid."""
    grid = np.asarray(grid, float)
    v = np.asarray(f(grid), float)
    _require(np.diff(v) > 0.0, f"{name} is not increasing", grid)
    return v
