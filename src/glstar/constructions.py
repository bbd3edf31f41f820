"""Builders for every star family, with numeric validation of each
family's hypotheses.

Limit hypotheses (values required to approach a limit as a parameter tends
to an interval end) are unverifiable numerically; they are checked near
that end with a band of 5% (``LIMIT_BAND``), the testable surrogate for a
convergence claim: ``symmetric_star``'s t -> 0 limit at ``LIMIT_POINTS``,
and the a -> 0 limits of ``eqn_star`` and ``param_star`` at the three
smallest slopes of their grid.  Every failed hypothesis is reported by
``functions._require``.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidCenter, InvalidInput
from .functions import LOG_TABLE_RANGE, Fn1, _require, as_fn1, check_increasing
from .projgeom import (
    col_clip,
    col_quiet,
    col_sqrt,
    col_ufunc,
    col_where,
    quadratic_roots,
    row_dot,
    row_norm,
)
from .star import (
    GlStar,
    Handedness,
    RotationalProfile,
    RotationalSigma,
    _snap_radicand,
    is_cone,
    on_unit_sphere,
)
from .verify import positive_root_count

T_GRID_SIZE = 1024
A_GRID_SIZE = 512
A_GRID_RANGE = (1e-3, 1e3)
LIMIT_BAND = 0.05
LIMIT_POINTS = (1e-2, 1e-3, 1e-4)

_interior_t_grid = np.linspace(0.0, 1.0, T_GRID_SIZE + 2)[1:-1]
# the slopes a of the hypothesis checks and of the circle probes, built once
_A_GRID = np.geomspace(*A_GRID_RANGE, A_GRID_SIZE)
_CIRCLE_PROBE_A = np.geomspace(1e-2, 1e2, 16)
_A_GRID.flags.writeable = _CIRCLE_PROBE_A.flags.writeable = False


def _hand_sign_fn(hand):
    """Normalize a handedness assignment (a Handedness, a sign +-1 or a
    callable of t giving either) to a vectorized sign function of t, which
    also takes one Python float and gives a float.  A callable is run by
    ``col_quiet``: it is called with an array of t, and with one Python
    float t, not a one-element array, so it must take both."""
    if isinstance(hand, Handedness):
        hand = hand.sign
    if callable(hand):
        @col_quiet()
        def fn(t):
            v = hand(t)
            if isinstance(v, Handedness):
                v = np.full_like(t, v.sign)
            v = np.sign(np.asarray(v, float))
            return v.item() if type(t) is float else v
        return fn
    if np.ndim(hand) == 0 and hand in (-1, 1):
        s = float(hand)
        return lambda t: s if type(t) is float else np.full_like(
            np.asarray(t, float), s)
    raise InvalidInput("a regulus sign must be a Handedness, +-1 or a "
                       "callable of t")


def _validate_cone_rule(hand_sign, profile, name="handedness"):
    """Regulus choice may only switch at cone parameters, by the test that
    entry_at applies.  The profile is only evaluated when the choice
    switches."""
    t = _interior_t_grid
    s = np.asarray(hand_sign(t), float)
    _require(np.abs(s) == 1.0, f"{name} must take values in {{+1, -1}}", t)
    stays = np.diff(s) == 0.0
    if stays.all():
        return
    a, _, c = profile.coefficients(t)
    cone = is_cone(a, c)
    _require(stays | cone[:-1] | cone[1:],
             f"{name} switches regulus away from a cone", t)


# ---------------------------------------------------------------------------
# Ordinary stars


def clifford(center=(0.0, 0.0, 0.0)) -> GlStar:
    """All 2-secants through an interior point; sigma is the induced
    second-intersection (antipodal for the origin)."""
    c = np.asarray(center, float)
    if c.shape != (3,):
        raise InvalidInput("center must be a 3-vector")
    if not np.linalg.norm(c) < 1.0:  # NaN is not interior either
        raise InvalidCenter(f"center {c.tolist()} is not strictly interior")

    @on_unit_sphere
    def sig(Q):
        d = c[None, :] - Q
        lam = 2.0 * (1.0 - Q @ c) / row_dot(d, d)
        out = Q + lam[:, None] * d
        out /= row_norm(out)[:, None]
        return out

    tags = ()
    if c[0] == 0.0 and c[1] == 0.0:
        tags = ("rotational", "axial")
        if c[2] == 0.0:
            tags += ("symmetric",)
    label = "clifford({:g},{:g},{:g})".format(*c)
    return GlStar(label=label, sigma_fn=sig, tags=tags,
                  center=tuple(c.tolist()))


# ---------------------------------------------------------------------------
# Symmetric rotational stars from a slope function a(t)


def symmetric_star(a, handedness=Handedness.RIGHT, label=None) -> GlStar:
    """Star whose cones/hyperboloids a(t)^2 x^2 - z^2 = c(t)^2 are symmetric
    about the (x, y)-plane, c(t)^2 = a(t)^2 - t^2 (1 + a(t)^2).

    Requires a: [0,1) -> [0,inf) increasing with t^2 <= a^2/(1+a^2)
    everywhere and t^2 (1+a^2)/a^2 -> 1 as t -> 0.  handedness is a
    Handedness, +-1 or a callable of t giving either, called with an array
    of t and with one Python float t (``_hand_sign_fn``).
    """
    a_fn = as_fn1(a, domain=(0.0, 1.0))
    t = _interior_t_grid
    av = check_increasing(a_fn, t, name="a")
    _require(abs(a_fn(np.array([0.0]))[0]) <= 1e-9, "a(0) must be 0", 0.0)
    c2 = av * av - t * t * (1.0 + av * av)
    _require(c2 >= -1e-12 * (1.0 + av * av), "(1): t^2 <= a^2/(1+a^2) fails",
             t)

    # a slope that vanishes at a limit point gives v = inf, which fails
    tk = np.array(LIMIT_POINTS)
    with np.errstate(divide="ignore", invalid="ignore"):
        ak = np.asarray(a_fn(tk), float)
        v = tk * tk * (1.0 + ak * ak) / (ak * ak)
    _require(abs(v - 1.0) <= LIMIT_BAND, lambda i: (
        f"(2): t^2(1+a^2)/a^2 = {v[i]:.6g} at t={LIMIT_POINTS[i]:g}, not "
        f"within {LIMIT_BAND:.0%} of 1"), LIMIT_POINTS)

    def abc(tt):
        # a(1) may be inf (it is for moebius01), and then c^2 is inf - inf:
        # c takes its limit inf there
        aa = a_fn(tt)
        c2 = aa * aa - tt * tt * (1.0 + aa * aa)
        cc = col_sqrt(_snap_radicand(c2, aa * aa + tt * tt * (1.0 + aa * aa)))
        b = 0.0 if type(tt) is float else np.zeros_like(tt)
        return aa, b, col_where(aa == np.inf, np.inf, cc)

    hand_sign = _hand_sign_fn(handedness)
    profile = RotationalProfile(abc=abc, handedness_sign=hand_sign)
    _validate_cone_rule(hand_sign, profile)
    sig = RotationalSigma(profile, t_of_z=lambda z: -np.asarray(z, float))
    return GlStar(label=label or f"symmetric({a_fn.describe()})",
                  sigma_fn=sig, profile=profile,
                  tags=("rotational", "symmetric"))


# ---------------------------------------------------------------------------
# The two-function family sigma_{f,g}


def fg_star(f, g, eps=-1, label=None) -> GlStar:
    """Rotational star from sigma(p_t) = (g, eps*sqrt(1-f^2-g^2), -f).

    f: increasing bijection of [0, 1]; g: continuous non-decreasing with
    g(0) = -1, g(1) = 0 and -sqrt(1-f^2) <= g <= 0; eps (+-1 or a callable
    of t) is minus the regulus sign of the chord, so it follows the cone
    rule: it may switch only where g = -sqrt(1-f^2), where the chord meets Z.
    A callable eps is called with an array of t and with one Python float t
    (``_hand_sign_fn``).
    """
    f_fn = as_fn1(f, domain=(0.0, 1.0))
    g_fn = as_fn1(g, domain=(0.0, 1.0))
    t = np.linspace(0.0, 1.0, T_GRID_SIZE)
    fv = check_increasing(f_fn, t, name="f")
    gv = np.asarray(g_fn(t), float)
    _require((abs(fv[0]) <= 1e-9) & (abs(fv[-1] - 1.0) <= 1e-9),
             "f must map [0,1] onto [0,1]", (fv[0], fv[-1]))
    _require(abs(gv[0] + 1.0) <= 1e-9, "g(0) must be -1", gv[0])
    _require(abs(gv[-1]) <= 1e-9, "g(1) must be 0", gv[-1])
    _require(np.diff(gv) >= -1e-12, "g must be non-decreasing", t)
    low = -np.sqrt(np.clip(1.0 - fv * fv, 0.0, None))
    _require((gv <= 1e-9) & (gv >= low - 1e-9), "-sqrt(1-f^2) <= g <= 0 fails",
             t)

    eps_sign = _hand_sign_fn(eps)

    def mer(tt):
        fv, gv = f_fn(tt), g_fn(tt)
        y2 = _snap_radicand(1.0 - fv * fv - gv * gv, 1.0 + fv * fv + gv * gv)
        y = eps_sign(tt) * col_sqrt(y2)
        norm = col_sqrt(gv * gv + y * y + fv * fv)
        m = gv / norm, y / norm, -fv / norm
        return m if type(tt) is float else np.stack(m, axis=-1)

    profile = RotationalProfile.from_meridian(mer)
    _validate_cone_rule(eps_sign, profile, name="eps")
    sig = RotationalSigma(profile, t_of_z=lambda z: np.asarray(
        f_fn.inverse(-np.asarray(z, float)), float))
    return GlStar(label=label or f"fg({f_fn.describe()},{g_fn.describe()})",
                  sigma_fn=sig, profile=profile, tags=("rotational",))


# ---------------------------------------------------------------------------
# Equation-level family H_a: a^2 x^2 - (z - b(a))^2 = c(a)^2

def _t_s_of_a(a, bv, cv):
    """Heights of the two unit-circle points of H_a with positive x."""
    a = np.asarray(a, float)
    rad = bv * bv + (a * a + 1.0) * (a * a - bv * bv - cv * cv)
    root = np.sqrt(np.clip(rad, 0.0, None))
    return (bv + root) / (a * a + 1.0), (root - bv) / (a * a + 1.0)


def _circle_probes(bc):
    """Unit-circle points (x, z), x > 0, on the surfaces H_a of 16 slopes
    a in [1e-2, 1e2]; the equator and the poles are left out."""
    pt, ps = _t_s_of_a(_CIRCLE_PROBE_A, *bc(_CIRCLE_PROBE_A))
    z = np.concatenate([pt, -ps])
    z = z[~((np.abs(z) < 1e-9) | (np.abs(z) >= 1.0))]
    return np.sqrt(1.0 - z * z), z


@functools.cache
def _exterior_probes():
    """Meridian points (x, z) of a 10 x 16 grid on or outside the unit
    circle, x-major, built once as read-only arrays."""
    X, Z = np.meshgrid(np.linspace(0.15, 2.0, 10),
                       np.concatenate([np.linspace(0.1, 1.8, 8),
                                       -np.linspace(0.1, 1.8, 8)]),
                       indexing="ij")
    X, Z = X.ravel(), Z.ravel()
    keep = ~(X * X + Z * Z < 1.0)
    x, z = X[keep], Z[keep]
    x.flags.writeable = z.flags.writeable = False
    return x, z


def _surface_fn(bc, x, z):
    """a |-> a^2 x_k^2 - (z_k - b(a))^2 - c(a)^2 for probe k: its positive
    roots count the surfaces H_a through the meridian point (x_k, 0, z_k)."""
    def F(a, k):
        a = np.asarray(a, float)
        xk, zk = x[k], z[k]
        b, c = bc(a)
        return a * a * xk * xk - (zk - b) ** 2 - c ** 2
    return F


# The largest slope a height inverse returns, where the table inverses of
# functions on [0, inf) end: the heights are 1 to rounding there
_A_MAX = LOG_TABLE_RANGE[1]


def _log_a_of_height(h: Fn1):
    """y |-> log a with h(a) = y, for a circle height h of H_a: the log of
    h's inverse, with a capped at _A_MAX, of columns: an array or one
    Python float.  A height at or above h(_A_MAX), or 1 if that rounds
    above 1, takes _A_MAX, and h's inverse is called with 0 in its place
    (at such a height it may divide by zero)."""
    y_end = min(float(h(np.array([_A_MAX]))[0]), 1.0)
    log_a_max = float(np.log(_A_MAX))

    def solve(y):
        y = y if type(y) is float else np.atleast_1d(np.asarray(y, float))
        below = y < y_end
        a = h.inverse(col_where(below, y, 0.0))
        ok = below & (a > 0.0)
        log_a = col_ufunc(np.log, col_where(ok, col_clip(a, 0.0, _A_MAX), 1.0))
        return col_where(ok, log_a, col_where(below, -np.inf, log_a_max))

    return solve


def _eqn_heights(bc):
    """The circle heights t(a), s(a) of H_a with coefficients b, c: H_a
    meets the circle x > 0 at heights t and -s = -t + 2b/(1+a^2)."""
    def t(a):
        a = np.asarray(a, float)
        return _t_s_of_a(a, *bc(a))[0]

    def s(a):
        a = np.asarray(a, float)
        bb, cc = bc(a)
        return _t_s_of_a(a, bb, cc)[0] - 2.0 * bb / (1.0 + a * a)

    return as_fn1(t, domain=(0.0, np.inf)), as_fn1(s, domain=(0.0, np.inf))


def eqn_star(b, c, hand=Handedness.RIGHT, label=None, extra_tags=()) -> GlStar:
    """Rotational star from coefficient functions b(a), c(a) >= 0 on (0, inf).

    Validates: (1) b^2 + c^2 < a^2; (2) b -> 0 and c/a -> 0 as a -> 0;
    (3) each unit-circle point off the equator lies on exactly one H_a;
    (4) exterior meridian points lie on at most one H_a.  (3) and (4) are
    confirmed by positive root counts of a |-> a^2 x^2 - (z-b)^2 - c^2.
    hand is a Handedness, +-1 or a callable of t giving either, called with
    an array of t and with one Python float t (``_hand_sign_fn``).
    """
    b_fn = as_fn1(b, domain=(0.0, np.inf))
    c_fn = as_fn1(c, domain=(0.0, np.inf))

    def bc(a):
        return b_fn(a), c_fn(a)

    bv = _check_eqn_hypotheses(bc)
    return _build_eqn_star(bc, bv, *_eqn_heights(bc), hand,
                           label or "eqn_star", extra_tags)


def _check_eqn_hypotheses(bc):
    """Hypotheses (1)-(4) of eqn_star on the coefficients bc: a |-> (b, c).
    Returns b on the a-grid."""
    bv = _check_eqn_1_to_3(bc)
    x, z = _exterior_probes()
    counts = positive_root_count(_surface_fn(bc, x, z), n_probes=x.size)
    _require(counts <= 1,
             lambda i: f"(4): exterior point lies on {counts[i]} surfaces H_a",
             lambda i: (x[i], z[i]))
    return bv


def _check_eqn_1_to_3(bc):
    """Hypotheses (1)-(3) of eqn_star, all but the exterior probes (4).
    Returns b on the a-grid."""
    ag = _A_GRID
    bv, cv = bc(ag)
    _require(cv >= -1e-12, "c must be nonnegative", ag)
    _require(bv * bv + cv * cv < ag * ag, "(1): b^2 + c^2 < a^2 fails", ag)
    _require((abs(bv[:3]) <= LIMIT_BAND) & (abs(cv[:3] / ag[:3]) <= LIMIT_BAND),
             "(2): b and c/a must vanish as a -> 0", ag)
    tv, sv = _t_s_of_a(ag, bv, cv)
    _require(np.diff(tv) > 0.0, "(3): the height t(a) of H_a on the circle is "
             "not increasing", ag)

    x, z = _circle_probes(bc)
    counts = positive_root_count(_surface_fn(bc, x, z), n_probes=x.size)
    _require(counts == 1, lambda i: (
        f"(3): circle point lies on {counts[i]} surfaces H_a, expected 1"),
        lambda i: (x[i], z[i]))
    return bv


def _build_eqn_star(bc, bv, t_fn, s_fn, hand, label, extra_tags) -> GlStar:
    """The star of validated coefficients bc: a |-> (b, c), of an array of
    slopes or of one Python float (then in Python floats, with the bits of
    a batch row), whose surface H_a meets the circle x > 0 at the heights
    t(a) and -s(a): t_fn and s_fn, as Fn1 with their inverses (see
    ``_log_a_of_height``).  bv is b on the a-grid.  The meridian image of
    p_t lies at height -s(a(t)), and a lower-hemisphere point at height z
    is the image of p_t for t = t(s^-1(-z))."""
    log_a_of_t = _log_a_of_height(t_fn)
    log_a_of_s = _log_a_of_height(s_fn)

    def abc(tt):
        a = col_ufunc(np.exp, log_a_of_t(tt))
        return (a, *bc(a))

    def t_of_z(z):
        return t_fn(np.exp(log_a_of_s(-np.asarray(z, float))))

    hand_sign = _hand_sign_fn(hand)
    profile = RotationalProfile(abc=abc, handedness_sign=hand_sign)
    _validate_cone_rule(hand_sign, profile)
    sig = RotationalSigma(profile, t_of_z=t_of_z)
    tags = ("rotational",) + tuple(extra_tags)
    if float(np.max(np.abs(bv))) < 1e-12 and "symmetric" not in tags:
        tags += ("symmetric",)
    return GlStar(label=label, sigma_fn=sig, profile=profile,
                  tags=tags)


# ---------------------------------------------------------------------------
# Circle-parametrized family (heights t(a), s(a) instead of b, c)


def h_value(t_fn, s_fn, x, z, a):
    """The covering function h_{x,z}(a) whose positive roots count the
    surfaces H_a through the meridian point (x, 0, z)."""
    a = np.asarray(a, float)
    tv = np.asarray(as_fn1(t_fn, (0.0, np.inf))(a), float)
    sv = np.asarray(as_fn1(s_fn, (0.0, np.inf))(a), float)
    return a * a * (x * x + z * z - 1.0) + (a * a + 1.0) * (tv - z) * (sv + z)


def param_star(t, s, hand=Handedness.RIGHT, label=None) -> GlStar:
    """Rotational star from the circle heights t(a) > 0 > -s(a) of H_a.

    Both must be homeomorphisms [0,inf) -> [0,1) with (t+s)/(2a) -> 1 as
    a -> 0, the coefficient inequality a^2/(a^2+1) - ts >= (a^2+1)((t-s)/2)^2,
    and at most one positive root of h_{x,z} for admissible (x, z).
    sigma and the profile invert t and s by their own inverses: closed
    forms for phi_r and every named kind, and for a plain callable the
    table in log a that ``as_fn1`` gives it.  hand is taken as by eqn_star.
    """
    t_fn = as_fn1(t, domain=(0.0, np.inf))
    s_fn = as_fn1(s, domain=(0.0, np.inf))
    ag = _A_GRID
    tv = check_increasing(t_fn, ag, name="t")
    sv = check_increasing(s_fn, ag, name="s")
    for name, fn, v in (("t", t_fn, tv), ("s", s_fn, sv)):
        _require(abs(fn(np.array([0.0]))[0]) <= 1e-9, f"{name}(0) must be 0",
                 None)
        _require(v < 1.0, f"{name} must take values below 1", ag)

    v = (tv[:3] + sv[:3]) / (2.0 * ag[:3])
    _require(abs(v - 1.0) <= LIMIT_BAND, lambda k: (
        f"(1): (t+s)/(2a) = {v[k]:.6g} at a={ag[k]:g}, not within "
        f"{LIMIT_BAND:.0%} of 1"), ag)

    lhs = ag * ag / (ag * ag + 1.0) - tv * sv
    rhs = (ag * ag + 1.0) * ((tv - sv) / 2.0) ** 2
    _require(lhs >= rhs - 1e-12,
             "(2): a^2/(a^2+1) - ts >= (a^2+1)((t-s)/2)^2 fails", ag)

    x, z = _exterior_probes()
    counts = positive_root_count(
        lambda a, k: h_value(t_fn, s_fn, x[k], z[k], a), n_probes=x.size)
    _require(counts <= 1,
             lambda i: f"(3): h_{{x,z}} has {counts[i]} positive roots",
             lambda i: (x[i], z[i]))

    # h_{x,z} counts the same roots as eqn_star's exterior probe (4) on the
    # same probes, so only (1)-(3) of eqn_star are left to check
    bc = _param_bc(t_fn, s_fn)
    return _build_eqn_star(
        bc, _check_eqn_1_to_3(bc), t_fn, s_fn, hand,
        label or f"param({t_fn.describe()},{s_fn.describe()})", ())


def _b_c2_of_heights(a, t, s):
    """b and c^2 of the surface H_a with circle heights t, -s.  c^2 =
    a^2 - (a^2+1)(((t+s)/2)^2 + a^2((t-s)/2)^2) in the equal form
    a(a-s) + s(a-t) - (a^2 ts + b^2), which does not cancel as a -> 0,
    where t and s approach a and c^2 is O(a^3)."""
    b = (a * a + 1.0) * (t - s) / 2.0
    return b, a * (a - s) + s * (a - t) - (a * a * t * s + b * b)


def _param_bc(t_fn, s_fn):
    """a |-> (b(a), c(a)) of the surfaces H_a with circle heights t(a),
    -s(a), of an array or of one Python float."""
    def bc(a):
        a = a if type(a) is float else np.asarray(a, float)
        b, c2 = _b_c2_of_heights(a, t_fn(a), s_fn(a))
        return b, col_sqrt(col_clip(c2, 0.0))

    return bc


def builtin_example() -> GlStar:
    """The worked example: heights phi_{3/2} and phi_2."""
    from .functions import phi_r
    return param_star(phi_r(1.5), phi_r(2.0), hand=Handedness.RIGHT,
                      label="param(phi_r(r=1.5),phi_r(r=2))")


def builtin_h_numerator_coeffs(x: float, z: float) -> np.ndarray:
    """Degree-6 coefficients (descending) of the cleared numerator of
    h_{x,z} for the built-in example."""
    return np.array([
        2.0 * x * x,
        7.0 * x * x,
        13.0 * x * x - 2.0 * z * z + z - 5.0,
        12.0 * x * x - 7.0 * z * z - 5.0,
        6.0 * x * x - 13.0 * z * z + z,
        -12.0 * z * z,
        -6.0 * z * z,
    ])


def builtin_h_denominator(a):
    a = np.asarray(a, float)
    return (2.0 * a * a + 3.0 * a + 3.0) * (a * a + 2.0 * a + 2.0)


# ---------------------------------------------------------------------------
# Symmetric pencils on the circle and latitudinal stars


@dataclass(frozen=True)
class GlPencil:
    """Fixed-point-free involution sigma1 of the unit circle in the (x,z)-
    plane, generated from an arc map and commuting with the reflection in Z.

    ``angle_map`` m: [0, pi/2] -> [0, pi/2] encodes mu(angle alpha) =
    angle pi + m(alpha) from the first-quadrant arc to its opposite.
    """

    angle_map: Fn1

    def sigma1_angle(self, beta):
        """sigma1 of an array of angles, or of one angle as a Python float:
        in floats in the first quadrant (the upper hemisphere), else by its
        batch row, which inverts the arc map."""
        m = self.angle_map
        if np.ndim(beta) == 0:
            b = float(np.mod(beta, 2.0 * np.pi))
            if b <= 0.5 * np.pi:
                return float(np.mod(np.pi + m(b), 2.0 * np.pi))
            return float(self.sigma1_angle(np.array([beta], float))[0])
        b = np.mod(np.asarray(beta, float), 2.0 * np.pi)
        out = np.full_like(b, np.nan)  # NaN, in no quadrant, stays NaN
        half = 0.5 * np.pi
        q1 = b <= half
        q2 = (b > half) & (b <= np.pi)
        q3 = (b > np.pi) & (b <= 1.5 * np.pi)
        q4 = b > 1.5 * np.pi
        if np.any(q1):
            out[q1] = np.pi + np.asarray(m(b[q1]), float)
        if np.any(q2):
            out[q2] = 2.0 * np.pi - np.asarray(m(np.pi - b[q2]), float)
        if np.any(q3):
            out[q3] = np.asarray(m.inverse(b[q3] - np.pi), float)
        if np.any(q4):
            out[q4] = np.pi - np.asarray(m.inverse(2.0 * np.pi - b[q4]), float)
        return np.mod(out, 2.0 * np.pi)


def pencil_from_mu(mu) -> GlPencil:
    """Validate and wrap an arc map: m(0) = 0, m(pi/2) = pi/2, increasing."""
    m = as_fn1(mu, domain=(0.0, 0.5 * np.pi))
    e0, e1 = m(np.array([0.0, 0.5 * np.pi]))
    _require((abs(e0) <= 1e-9) & (abs(e1 - 0.5 * np.pi) <= 1e-9),
             "arc map must fix the endpoints: mu(1,0)=(-1,0) and mu(0,1)=(0,-1)",
             (e0, e1))
    check_increasing(m, np.linspace(0.0, 0.5 * np.pi, T_GRID_SIZE), name="mu")
    return GlPencil(angle_map=m)


def latitudinal(pencil: GlPencil, label=None) -> GlStar:
    """Rotate a symmetric pencil about Z: every line meets the axis."""

    def sigma(x, y, z):
        theta = col_ufunc(np.arctan2, y, x)
        b2 = pencil.sigma1_angle(
            col_ufunc(np.arctan2, z, col_ufunc(np.hypot, x, y)))
        c = col_ufunc(np.cos, b2)
        return (c * col_ufunc(np.cos, theta), c * col_ufunc(np.sin, theta),
                col_ufunc(np.sin, b2))

    def mer(t):
        b2 = pencil.sigma1_angle(col_ufunc(np.arcsin, col_clip(t, 0.0, 1.0)))
        m = (col_ufunc(np.cos, b2), 0.0 if type(t) is float
             else np.zeros_like(b2), col_ufunc(np.sin, b2))
        return m if type(t) is float else np.stack(m, axis=-1)

    profile = RotationalProfile.from_meridian(mer)
    sig = on_unit_sphere(lambda Q: np.stack(sigma(*Q.T), axis=-1), one=sigma)
    return GlStar(label=label or f"latitudinal({pencil.angle_map.describe()})",
                  sigma_fn=sig, profile=profile,
                  tags=("rotational", "axial"))


# ---------------------------------------------------------------------------
# Parabola sequences (hyperbola families in transformed coordinates)


def omega(x, z):
    """(x, 0, z) -> (u, v) = (z, x^2); straightens hyperbolas to parabolas."""
    x = np.asarray(x, float)
    z = np.asarray(z, float)
    return z, x * x


def omega_inv(u, v):
    """(u, v) -> (sqrt(v), 0, u), the x >= 0 branch; requires v >= 0."""
    v = np.asarray(v, float)
    if not np.all(v >= 0):
        raise InvalidInput("omega_inv requires v >= 0")
    u = np.asarray(u, float)
    return np.sqrt(v), np.zeros_like(u), u


@dataclass(frozen=True)
class ParabolaSeq:
    """Finite family of parabolas v = alpha (u - beta)^2 + gamma standing in
    for hyperbolas a^2 x^2 - (z-b)^2 = c^2 via alpha = 1/a^2, beta = b,
    gamma = (c/a)^2, ordered by strictly increasing slope a."""

    alphas: np.ndarray
    betas: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        al = np.asarray(self.alphas, float)
        be = np.asarray(self.betas, float)
        ga = np.asarray(self.gammas, float)
        if not (al.shape == be.shape == ga.shape) or al.ndim != 1 or al.size < 1:
            raise InvalidInput("parabola sequence arrays must match, length >= 1")
        if not np.isfinite(np.stack([al, be, ga])).all():
            raise InvalidInput("parabola sequence entries must be finite")
        _require(al > 0, "alpha_i must be positive", range(al.size))
        _require(ga >= 0, "gamma_i must be nonnegative", range(al.size))
        for arr, name in ((al, "alphas"), (be, "betas"), (ga, "gammas")):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        _require(np.diff(self.slopes()) > 0,
                 "(1): slopes 1/sqrt(alpha_i) must strictly increase",
                 range(al.size))

    def __len__(self):
        return self.alphas.size

    def slopes(self):
        return 1.0 / np.sqrt(self.alphas)

    def arc_intersections(self):
        """The two u-values lo < hi where each P_i meets the arc
        v = 1 - u^2, as two arrays."""
        a, b, g = self.alphas, self.betas, self.gammas
        *roots, disc = quadratic_roots(a + 1.0, -2.0 * a * b,
                                       a * b * b + g - 1.0)
        _require(disc > 0.0,
                 "(3): parabola must meet the circle arc in two points",
                 range(a.size))
        return np.sort(roots, axis=0)

    @functools.cached_property
    def _reversed(self):  # in increasing alpha, as np.interp takes them
        return (self.alphas[::-1], self.betas[::-1], self.gammas[::-1],
                float(self.alphas[-1]), float(self.gammas[-1]))

    @col_quiet(divide="ignore")
    def coefficients_at(self, a):
        """(alpha, beta, gamma) of the interpolated family at slope a > 0,
        with the scaled completions beyond both ends, of a column.  At a = 0
        the limits a -> 0, the first parabola's beta and gamma (a float 0.0
        raises in the kernel, and ``col_quiet`` answers it by the
        one-element batch's limits, as floats).  gamma is clipped at 0,
        where 1/a^2 rounds past a knot."""
        a = a if type(a) is float else np.asarray(a, float)
        xp, be_r, ga_r, al_end, ga_end = self._reversed
        alpha = 1.0 / (a * a)
        beta = col_ufunc(np.interp, alpha, xp, be_r)
        gamma = col_where(alpha < al_end, ga_end * alpha / al_end,
                          col_clip(col_ufunc(np.interp, alpha, xp, ga_r), 0.0))
        return alpha, beta, gamma


def parabola_star(seq: ParabolaSeq, hand=Handedness.RIGHT, label=None) -> GlStar:
    """Rotational star from an interpolated parabola sequence.

    A finite sequence is completed at both ends by scalar multiples of the
    extreme parabolas; the small-slope completion (t*p with t >= 1) is only
    sound when the first vertex is exactly the origin, which is required.
    Besides the sequence's own conditions, eqn_star's hypotheses (1)-(4)
    are checked on b(a) = beta and c(a) = a sqrt(gamma) of the
    interpolated family.  sigma and the profile invert the circle heights
    t(a), s(a) of H_a piece by piece in closed form (``_parabola_height``),
    with no table.  hand is taken as by eqn_star.
    """
    # entries near the largest float overflow to inf or NaN there, which
    # fail the conditions
    with np.errstate(over="ignore", invalid="ignore"):
        _check_sequence(seq)
    bc = _parabola_bc(seq)
    bv = _check_eqn_hypotheses(bc)
    _check_knot_heights(seq, bc)
    t_fn, s_fn = _eqn_heights(bc)
    return _build_eqn_star(
        bc, bv, _parabola_height(seq, t_fn, 1.0),
        _parabola_height(seq, s_fn, -1.0), hand,
        label or f"parabola({len(seq)} entries)", ())


def _check_sequence(seq: ParabolaSeq):
    """The sequence's own conditions: the completion's origin vertex, the
    arc intersections (3) and the consecutive intersections (4), whose
    quadratics are solved in closed form for the whole sequence at once."""
    _require((abs(seq.betas[0]) <= 1e-12) & (seq.gammas[0] <= 1e-12),
             "completion: the first parabola must have its vertex at the "
             "origin", 0)

    lo, hi = seq.arc_intersections()
    split = (lo < 0.0) & (0.0 < hi)
    on_arc = (lo >= -1.0 - 1e-9) & (hi <= 1.0 + 1e-9)
    _require(split & on_arc, lambda i: (
        "(3): arc intersections must lie on the arc" if split[i] else
        "(3): arc intersections must be separated by the v-axis"),
        range(len(seq)))
    _require((hi[1:] > hi[:-1]) & (lo[1:] < lo[:-1]),
             "(3): consecutive arc intersections must nest outward "
             "(heights on the circle increase with the slope)", range(len(seq)))

    # P_i - P_{i+1} = A u^2 + B u + C; pairs that agree to 1e-8 are skipped
    al, be, ga = seq.alphas, seq.betas, seq.gammas
    d = np.stack([al[:-1] - al[1:],
                  -2.0 * (al[:-1] * be[:-1] - al[1:] * be[1:]),
                  (al[:-1] * be[:-1] ** 2 + ga[:-1])
                  - (al[1:] * be[1:] ** 2 + ga[1:])])
    # (pair, root), NaN when none
    u = np.sort(np.stack(quadratic_roots(*d)[:2], axis=1), axis=1)
    v = al[:-1, None] * (u - be[:-1, None]) ** 2 + ga[:-1, None]
    inside = (np.abs(u) <= 1.0 + 1e-9) & (-1e-9 <= v) & (v <= 1.0 - u * u + 1e-9)
    ok = np.isnan(u) | inside | np.all(np.abs(d) <= 1e-8, axis=0)[:, None]
    # the witness of root j of pair i, at flat index 2 i + j
    _require(ok, "(4): consecutive parabolas intersect outside the bounded "
             "region", lambda k: (k // 2, u.flat[k], v.flat[k]))


# The relative step past each knot slope at which (3) is also checked:
# just past a knot a circle height can fall in a window much narrower than
# the 2.7% spacing of the a-grid
_KNOT_STEP = 1e-4


def _check_knot_heights(seq: ParabolaSeq, bc):
    """(3) at the knots: both circle heights t(a) and s(a) of H_a increase
    over the knot slopes k and k (1 + _KNOT_STEP), where the interpolation
    enters a new piece."""
    k = seq.slopes()
    # sorted and distinct, as np.unique gives them, without the import of
    # numpy.ma that np.unique makes (numpy 2), in every process that builds
    # a parabola star
    a = np.sort(np.concatenate([k, k * (1.0 + _KNOT_STEP)]))
    a = a[np.append(True, a[1:] != a[:-1])]
    _require(np.all(np.diff(_t_s_of_a(a, *bc(a)), axis=1) > 0.0, axis=0),
             "(3): a height of H_a on the circle is not increasing past a knot",
             a)


def _parabola_bc(seq: ParabolaSeq):
    """a |-> (b(a), c(a)) of the interpolated parabola sequence, of an
    array or of one Python float (``coefficients_at``)."""

    def bc(a):
        a = a if type(a) is float else np.asarray(a, float)
        _, beta, gamma = seq.coefficients_at(a)
        return beta, a * col_sqrt(gamma)

    return bc


# A parabola height inverse stops after a Newton step of relative size
# below 1e-10, which leaves the root within rounding (Newton converges
# quadratically: from the chord start that is the fourth step), or when a
# bisection is down to a few ulps
_NEWTON_STEP_RTOL = 1e-10
_BRACKET_RTOL = 4e-16
_NEWTON_MAX_STEPS = 64


def _chord_start(y, h0, h1, lo, hi):
    """alpha at height y on the chord from knot (hi, h0) to (lo, h1)."""
    return hi + (y - h0) / (h1 - h0) * (lo - hi)


def _newton_step(x, lo, hi, u, cubic):
    """One step of a parabola height inverse on a piece whose cubic has
    beta = b1 + q dx and gamma = g1 + w dx, dx = alpha - a1, of columns: the
    new x, lo, hi, and whether the root is done.  Floats raise where f' = 0."""
    a1, b1, g1, q, w = cubic
    dx = x - a1
    d = u - (b1 + q * dx)
    f = x * d * d + (g1 + w * dx) + (u * u - 1.0)
    lo = col_where(f < 0.0, x, lo)
    hi = col_where(f > 0.0, x, hi)
    nxt = x - f / (d * d - 2.0 * x * q * d + w)
    # a Newton step inside the bracket, else its midpoint, and the size of
    # that step and the size at which it is done
    x, size, done_at = col_where(
        (nxt > lo) & (nxt < hi), (nxt, abs(nxt - x), _NEWTON_STEP_RTOL * x),
        (0.5 * (lo + hi), hi - lo, _BRACKET_RTOL * x))
    return x, lo, hi, size <= done_at


def _parabola_height(seq: ParabolaSeq, h: Fn1, sign: float) -> Fn1:
    """The circle height h of the parabola star, t (sign 1) or s (sign -1),
    with its closed-form inverse y |-> a: the circle point at height
    u = sign * y lies on H_a.  On the piece between knots i and i + 1 of
    the n knots, beta and gamma are linear in alpha = 1/a^2, so

        f(alpha) = alpha (u - beta(alpha))^2 + gamma(alpha) + u^2 - 1 = 0

    is a cubic with one root in [alpha_{i+1}, alpha_i] (the heights
    increase with a), which Newton steps find from the chord between the
    knot heights; a step that leaves the bracket bisects it instead.  The
    piece is found among the heights at the knots, worked out once, and a
    height equal to that of knot i takes alpha_i with no step (f there is
    rounding noise, or 0, from which no Newton step leaves the bracket's
    end).
    Outside the knots the completions need no solve: below the first knot
    a = |u - beta_0| / sqrt(1 - u^2 - gamma_0), which is y / sqrt(1 - y^2)
    for a vertex at the origin, and past the last one
    a = sqrt(((u - beta_{n-1})^2 + gamma_{n-1} / alpha_{n-1}) / (1 - u^2)).
    Each step is one kernel on columns, which a batch of heights runs in
    numpy, roots that are done leaving it, and one Python float in floats,
    with its batch row's bits; ``col_quiet`` runs the inverse."""
    al, be, ga = seq.alphas, seq.betas, seq.gammas
    heights = np.asarray(h(seq.slopes()), float)
    # piece i: its knot heights, alpha_i, and its cubic from knot i + 1:
    # alpha_{i+1} (the bracket's lower end), beta, gamma and their slopes
    # in alpha, as np.interp takes them
    pieces = np.stack([heights[:-1], heights[1:], al[:-1], al[1:], be[1:],
                       ga[1:], (be[:-1] - be[1:]) / (al[:-1] - al[1:]),
                       (ga[:-1] - ga[1:]) / (al[:-1] - al[1:])])
    rows = [(*row[:3], tuple(row[3:])) for row in pieces.T.tolist()]
    hs, als, bes, gas = (v.tolist() for v in (heights, al, be, ga))

    def below(u):
        return abs(u - bes[0]) / col_sqrt(1.0 - u * u - gas[0])

    def past(u):
        d = u - bes[-1]
        return col_sqrt((d * d + gas[-1] / als[-1]) / (1.0 - u * u))

    def slope(alpha):
        return 1.0 / col_sqrt(alpha)

    def inv_one(y):
        u = sign * y
        i = bisect.bisect_right(hs, y) - 1
        if i < 0:
            return below(u)
        if y == hs[i]:
            return slope(als[i])
        if i == len(hs) - 1:
            return past(u)
        h0, h1, hi, cubic = rows[i]
        x, lo = _chord_start(y, h0, h1, cubic[0], hi), cubic[0]
        for _ in range(_NEWTON_MAX_STEPS):
            x, lo, hi, done = _newton_step(x, lo, hi, u, cubic)
            if done:
                break
        return slope(x)

    @col_quiet(divide="ignore", invalid="ignore")
    def inv(y):
        return inv_one(y) if type(y) is float else batch(np.asarray(y, float))

    def batch(y):
        shape = y.shape
        y = y.ravel()
        u = sign * y
        i = np.searchsorted(heights, y, side="right") - 1
        # a knot height takes its knot's alpha (i = -1 is no knot: there
        # y < heights[0] <= heights[-1])
        knot = y == heights[i]
        first, last = i < 0, (i == len(seq) - 1) & ~knot
        a = np.empty(y.shape)
        a[knot] = slope(al[i[knot]])
        a[first] = below(u[first])
        a[last] = past(u[last])
        mid = np.flatnonzero(~(first | last | knot))
        h0, h1, hi, *cubic = pieces[:, i[mid]]
        x, lo, u = _chord_start(y[mid], h0, h1, cubic[0], hi), cubic[0], u[mid]
        # roots that are done leave the batch
        for _ in range(_NEWTON_MAX_STEPS):
            if not mid.size:
                break
            x, lo, hi, done = _newton_step(x, lo, hi, u, cubic)
            if done.any():
                a[mid[done]] = slope(x[done])
                keep = ~done
                mid, x, lo, hi, u, *cubic = (
                    v[keep] for v in (mid, x, lo, hi, u, *cubic))
        a[mid] = slope(x)
        return a.reshape(shape)

    return replace(h, inv=inv)


def example_parabola_sequence(n_side: int = 6) -> ParabolaSeq:
    """13-entry sequence sampling the built-in example at slopes 2^i,
    i = -6..6, with the smallest-slope entry snapped to an exact
    origin-vertex cone so the sequence can be completed."""
    from .functions import phi_r
    t_fn, s_fn = phi_r(1.5), phi_r(2.0)
    a = 2.0 ** np.arange(-n_side, n_side + 1).astype(float)
    b, c2 = _b_c2_of_heights(a, t_fn(a), s_fn(a))
    alphas = 1.0 / (a * a)
    betas = b.copy()
    gammas = np.clip(c2, 0.0, None) / (a * a)
    betas[0] = 0.0
    gammas[0] = 0.0
    return ParabolaSeq(alphas=alphas, betas=betas, gammas=gammas)
