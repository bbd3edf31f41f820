"""Builders for every star family, with numeric validation of each
family's hypotheses.

Limit hypotheses (values required to approach a limit as a parameter tends
to an interval end) are unverifiable numerically; they are checked at the
three smallest grid points with a relative band (default 5%), the testable
surrogate for a convergence claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditionFailed, InvalidCenter, InvalidInput
from .functions import Fn1, TabulatedInverse, as_fn1, check_increasing
from .star import (
    GlStar,
    Handedness,
    RotationalProfile,
    RotationalSigma,
    _snap_radicand,
    meridian_point,
    on_unit_sphere,
)

T_GRID_SIZE = 1024
A_GRID_SIZE = 512
A_GRID_RANGE = (1e-3, 1e3)
LIMIT_BAND = 0.05
LIMIT_POINTS = (1e-2, 1e-3, 1e-4)

_interior_t_grid = np.linspace(0.0, 1.0, T_GRID_SIZE + 2)[1:-1]


def _a_grid():
    return np.geomspace(*A_GRID_RANGE, A_GRID_SIZE)


def _hand_sign_fn(hand):
    """Normalize a handedness assignment to a vectorized sign function of t."""
    if isinstance(hand, Handedness):
        s = hand.sign
        return lambda t: np.full_like(np.asarray(t, float), s)
    if callable(hand):
        def fn(t):
            t = np.asarray(t, float)
            v = hand(t)
            if isinstance(v, Handedness):
                return np.full_like(t, v.sign)
            return np.sign(np.asarray(v, float))
        return fn
    raise InvalidInput("handedness must be a Handedness or a callable of t")


def _validate_cone_rule(hand_sign, profile, name="handedness"):
    """Regulus choice may only switch at cone parameters."""
    t = _interior_t_grid
    c = profile.coefficients(t)[2]
    s = np.asarray(hand_sign(t), float)
    cone = c <= 1e-9 * (1.0 + np.abs(c).max())
    switches = np.nonzero(np.diff(s) != 0)[0]
    for i in switches:
        if not (cone[i] or cone[i + 1]):
            raise ConditionFailed(
                f"{name} switches regulus away from a cone", witness=float(t[i]))


# ---------------------------------------------------------------------------
# Ordinary stars


def clifford(center=(0.0, 0.0, 0.0)) -> GlStar:
    """All 2-secants through an interior point; sigma is the induced
    second-intersection (antipodal for the origin)."""
    c = np.asarray(center, float)
    if c.shape != (3,):
        raise InvalidInput("center must be a 3-vector")
    if np.linalg.norm(c) >= 1.0:
        raise InvalidCenter(f"center {c.tolist()} is not strictly interior")

    @on_unit_sphere
    def sig(Q):
        d = c[None, :] - Q
        lam = 2.0 * (1.0 - Q @ c) / np.sum(d * d, axis=1)
        out = Q + lam[:, None] * d
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        return out

    on_axis = c[0] == 0.0 and c[1] == 0.0
    tags = ()
    profile = None
    if on_axis:
        tags = ("rotational", "axial")
        if c[2] == 0.0:
            tags += ("symmetric",)
        profile = RotationalProfile.from_meridian(
            lambda t: sig(meridian_point(t)))
    label = "clifford({:g},{:g},{:g})".format(*c)
    return GlStar(label=label, sigma_fn=sig, profile=profile, tags=tags,
                  center=tuple(c.tolist()))


# ---------------------------------------------------------------------------
# Symmetric rotational stars from a slope function a(t)


def symmetric_star(a, handedness=Handedness.RIGHT, label=None,
                   band: float = LIMIT_BAND) -> GlStar:
    """Star whose cones/hyperboloids a(t)^2 x^2 - z^2 = c(t)^2 are symmetric
    about the (x, y)-plane, c(t)^2 = a(t)^2 - t^2 (1 + a(t)^2).

    Requires a: [0,1) -> [0,inf) increasing with t^2 <= a^2/(1+a^2)
    everywhere and t^2 (1+a^2)/a^2 -> 1 as t -> 0.
    """
    a_fn = as_fn1(a, domain=(0.0, 1.0))
    t = _interior_t_grid
    av = check_increasing(a_fn, t, name="a")
    if abs(float(a_fn(np.array([0.0]))[0])) > 1e-9:
        raise ConditionFailed("a(0) must be 0", witness=0.0)

    c2 = av * av - t * t * (1.0 + av * av)
    bad = c2 < -1e-12 * (1.0 + av * av)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConditionFailed("(1): t^2 <= a^2/(1+a^2) fails", witness=float(t[i]))

    for tk in LIMIT_POINTS:
        ak = float(a_fn(np.array([tk]))[0])
        v = tk * tk * (1.0 + ak * ak) / (ak * ak)
        if abs(v - 1.0) > band:
            raise ConditionFailed(
                f"(2): t^2(1+a^2)/a^2 = {v:.6g} at t={tk:g}, not within "
                f"{band:.0%} of 1", witness=tk)

    def abc(tt):
        tt = np.asarray(tt, float)
        aa = np.asarray(a_fn(tt), float)
        c2 = aa * aa - tt * tt * (1.0 + aa * aa)
        cc = np.sqrt(_snap_radicand(c2, aa * aa + tt * tt * (1.0 + aa * aa)))
        return aa, np.zeros_like(tt), cc

    hand_sign = _hand_sign_fn(handedness)
    profile = RotationalProfile(abc=abc, handedness_sign=hand_sign)
    _validate_cone_rule(hand_sign, profile)
    sig = RotationalSigma(profile.meridian_image,
                          z_of_t=lambda tt: -np.asarray(tt, float),
                          t_of_z=lambda z: -np.asarray(z, float))
    return GlStar(label=label or f"symmetric({a_fn.describe()})",
                  sigma_fn=sig, profile=profile,
                  tags=("rotational", "symmetric"))


# ---------------------------------------------------------------------------
# The two-function family sigma_{f,g}


def fg_star(f, g, eps=-1, label=None) -> GlStar:
    """Rotational star from sigma(p_t) = (g, eps*sqrt(1-f^2-g^2), -f).

    f: increasing bijection of [0, 1]; g: continuous non-decreasing with
    g(0) = -1, g(1) = 0 and -sqrt(1-f^2) <= g <= 0; the sign eps must be
    constant on every interval where the left inequality is strict.
    """
    f_fn = as_fn1(f, domain=(0.0, 1.0))
    g_fn = as_fn1(g, domain=(0.0, 1.0))
    t = np.linspace(0.0, 1.0, T_GRID_SIZE)
    fv = check_increasing(f_fn, t, name="f")
    gv = np.asarray(g_fn(t), float)
    if abs(fv[0]) > 1e-9 or abs(fv[-1] - 1.0) > 1e-9:
        raise ConditionFailed("f must map [0,1] onto [0,1]",
                              witness=(float(fv[0]), float(fv[-1])))
    if abs(gv[0] + 1.0) > 1e-9:
        raise ConditionFailed("g(0) must be -1", witness=float(gv[0]))
    if abs(gv[-1]) > 1e-9:
        raise ConditionFailed("g(1) must be 0", witness=float(gv[-1]))
    if np.any(np.diff(gv) < -1e-12):
        i = int(np.argmax(np.diff(gv) < -1e-12))
        raise ConditionFailed("g must be non-decreasing", witness=float(t[i]))
    low = -np.sqrt(np.clip(1.0 - fv * fv, 0.0, None))
    if np.any(gv > 1e-9) or np.any(gv < low - 1e-9):
        i = int(np.argmax((gv > 1e-9) | (gv < low - 1e-9)))
        raise ConditionFailed("-sqrt(1-f^2) <= g <= 0 fails", witness=float(t[i]))

    if callable(eps) and not isinstance(eps, (int, float)):
        eps_fn = lambda tt: np.sign(np.asarray(eps(np.asarray(tt, float)), float))
    else:
        e = float(eps)
        if e not in (-1.0, 1.0):
            raise InvalidInput("eps must be +1 or -1")
        eps_fn = lambda tt: np.full_like(np.asarray(tt, float), e)

    ev = eps_fn(t)
    if np.any(np.abs(ev) != 1.0):
        raise ConditionFailed("eps must take values in {+1, -1}")
    strict = gv > low + 1e-9
    switches = np.nonzero(np.diff(ev) != 0)[0]
    for i in switches:
        if strict[i] and strict[i + 1]:
            raise ConditionFailed(
                "eps switches sign inside an interval where g > -sqrt(1-f^2)",
                witness=float(t[i]))

    def mer(tt):
        tt = np.atleast_1d(np.asarray(tt, float))
        fvv = np.asarray(f_fn(tt), float)
        gvv = np.asarray(g_fn(tt), float)
        y2 = _snap_radicand(1.0 - fvv * fvv - gvv * gvv,
                            1.0 + fvv * fvv + gvv * gvv)
        y = eps_fn(tt) * np.sqrt(np.clip(y2, 0.0, None))
        m = np.stack([gvv, y, -fvv], axis=-1)
        return m / np.linalg.norm(m, axis=-1, keepdims=True)

    sig = RotationalSigma(
        mer,
        z_of_t=lambda tt: -np.asarray(f_fn(tt), float),
        t_of_z=lambda z: np.asarray(f_fn.inverse(-np.asarray(z, float)), float),
    )
    profile = RotationalProfile.from_meridian(mer)
    return GlStar(label=label or f"fg({f_fn.describe()},{g_fn.describe()})",
                  sigma_fn=sig, profile=profile, tags=("rotational",))


# ---------------------------------------------------------------------------
# Equation-level family H_a: a^2 x^2 - (z - b(a))^2 = c(a)^2

from .verify import positive_root_count  # noqa: E402  (no cycle: verify is generic)


def _t_s_of_a(a, bv, cv):
    """Heights of the two unit-circle points of H_a with positive x."""
    a = np.asarray(a, float)
    rad = bv * bv + (a * a + 1.0) * (a * a - bv * bv - cv * cv)
    root = np.sqrt(np.clip(rad, 0.0, None))
    return (bv + root) / (a * a + 1.0), (root - bv) / (a * a + 1.0)


def _circle_probes(b_fn, c_fn):
    """Unit-circle points (x, z), x > 0, on the surfaces H_a of 16 slopes
    a in [1e-2, 1e2]; the equator and the poles are left out."""
    probe = np.geomspace(1e-2, 1e2, 16)
    pt, ps = _t_s_of_a(probe, np.asarray(b_fn(probe), float),
                       np.asarray(c_fn(probe), float))
    z = np.concatenate([pt, -ps])
    z = z[~((np.abs(z) < 1e-9) | (np.abs(z) >= 1.0))]
    return np.sqrt(1.0 - z * z), z


def _exterior_probes():
    """Meridian points (x, z) of a 10 x 16 grid on or outside the unit
    circle, x-major."""
    X, Z = np.meshgrid(np.linspace(0.15, 2.0, 10),
                       np.concatenate([np.linspace(0.1, 1.8, 8),
                                       -np.linspace(0.1, 1.8, 8)]),
                       indexing="ij")
    X, Z = X.ravel(), Z.ravel()
    keep = ~(X * X + Z * Z < 1.0)
    return X[keep], Z[keep]


def _surface_fn(b_fn, c_fn, x, z):
    """a |-> a^2 x_k^2 - (z_k - b(a))^2 - c(a)^2 for probe k: its positive
    roots count the surfaces H_a through the meridian point (x_k, 0, z_k)."""
    def F(a, k):
        a = np.asarray(a, float)
        xk, zk = x[k], z[k]
        return (a * a * xk * xk
                - (zk - np.asarray(b_fn(a), float)) ** 2
                - np.asarray(c_fn(a), float) ** 2)
    return F


def eqn_star(b, c, hand=Handedness.RIGHT, label=None,
             band: float = LIMIT_BAND, extra_tags=()) -> GlStar:
    """Rotational star from coefficient functions b(a), c(a) >= 0 on (0, inf).

    Validates: (1) b^2 + c^2 < a^2; (2) b -> 0 and c/a -> 0 as a -> 0;
    (3) each unit-circle point off the equator lies on exactly one H_a;
    (4) exterior meridian points lie on at most one H_a.  (3) and (4) are
    confirmed by positive root counts of a |-> a^2 x^2 - (z-b)^2 - c^2.
    """
    b_fn = as_fn1(b, domain=(0.0, np.inf))
    c_fn = as_fn1(c, domain=(0.0, np.inf))
    ag = _a_grid()
    bv = np.asarray(b_fn(ag), float)
    cv = np.asarray(c_fn(ag), float)
    if np.any(cv < -1e-12):
        raise ConditionFailed("c must be nonnegative",
                              witness=float(ag[np.argmax(cv < -1e-12)]))

    bad = bv * bv + cv * cv >= ag * ag
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConditionFailed("(1): b^2 + c^2 < a^2 fails", witness=float(ag[i]))

    for k in range(3):
        if abs(bv[k]) > band or abs(cv[k] / ag[k]) > band:
            raise ConditionFailed(
                "(2): b and c/a must vanish as a -> 0", witness=float(ag[k]))

    tv, sv = _t_s_of_a(ag, bv, cv)
    if np.any(np.diff(tv) <= 0):
        i = int(np.argmax(np.diff(tv) <= 0))
        raise ConditionFailed("(3): the height t(a) of H_a on the circle is "
                              "not increasing", witness=float(ag[i]))

    x, z = _circle_probes(b_fn, c_fn)
    counts = positive_root_count(_surface_fn(b_fn, c_fn, x, z),
                                 n_probes=x.size)
    bad = np.nonzero(counts != 1)[0]
    if bad.size:
        i = bad[0]
        raise ConditionFailed(
            f"(3): circle point lies on {counts[i]} surfaces H_a, expected 1",
            witness=(float(x[i]), float(z[i])))

    x, z = _exterior_probes()
    counts = positive_root_count(_surface_fn(b_fn, c_fn, x, z),
                                 n_probes=x.size)
    bad = np.nonzero(counts > 1)[0]
    if bad.size:
        i = bad[0]
        raise ConditionFailed(
            f"(4): exterior point lies on {counts[i]} surfaces H_a",
            witness=(float(x[i]), float(z[i])))

    def t_at_log_a(u):
        a = np.exp(np.asarray(u, float))
        return _t_s_of_a(a, np.asarray(b_fn(a), float),
                         np.asarray(c_fn(a), float))[0]

    t_inverse = TabulatedInverse(t_at_log_a, np.log(1e-9), np.log(1e9))

    def abc(tt):
        a = np.exp(t_inverse.solve(tt))
        return a, np.asarray(b_fn(a), float), np.asarray(c_fn(a), float)

    def z_of_t(tt):
        tt = np.atleast_1d(np.asarray(tt, float))
        a = np.exp(t_inverse.solve(tt))
        return -tt + 2.0 * np.asarray(b_fn(a), float) / (1.0 + a * a)

    hand_sign = _hand_sign_fn(hand)
    profile = RotationalProfile(abc=abc, handedness_sign=hand_sign)
    _validate_cone_rule(hand_sign, profile)

    def z_at_log_a(u):
        a = np.exp(np.asarray(u, float))
        bb = np.asarray(b_fn(a), float)
        cc = np.asarray(c_fn(a), float)
        return -_t_s_of_a(a, bb, cc)[0] + 2.0 * bb / (1.0 + a * a)

    z_inverse = TabulatedInverse(z_at_log_a, np.log(1e-9), np.log(1e9))

    def t_of_z(z):
        return t_at_log_a(z_inverse.solve(z))

    sig = RotationalSigma(profile.meridian_image, z_of_t=z_of_t, t_of_z=t_of_z)
    tags = ("rotational",) + tuple(extra_tags)
    if float(np.max(np.abs(bv))) < 1e-12 and "symmetric" not in tags:
        tags += ("symmetric",)
    return GlStar(label=label or "eqn_star", sigma_fn=sig, profile=profile,
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


def param_star(t, s, hand=Handedness.RIGHT, label=None,
               band: float = LIMIT_BAND) -> GlStar:
    """Rotational star from the circle heights t(a) > 0 > -s(a) of H_a.

    Both must be homeomorphisms [0,inf) -> [0,1) with (t+s)/(2a) -> 1 as
    a -> 0, the coefficient inequality a^2/(a^2+1) - ts >= (a^2+1)((t-s)/2)^2,
    and at most one positive root of h_{x,z} for admissible (x, z).
    """
    t_fn = as_fn1(t, domain=(0.0, np.inf))
    s_fn = as_fn1(s, domain=(0.0, np.inf))
    ag = _a_grid()
    tv = check_increasing(t_fn, ag, name="t")
    sv = check_increasing(s_fn, ag, name="s")
    for name, fn, v in (("t", t_fn, tv), ("s", s_fn, sv)):
        if abs(float(fn(np.array([0.0]))[0])) > 1e-9:
            raise ConditionFailed(f"{name}(0) must be 0")
        if np.any(v >= 1.0):
            raise ConditionFailed(f"{name} must take values below 1",
                                  witness=float(ag[np.argmax(v >= 1.0)]))

    for k in range(3):
        v = (tv[k] + sv[k]) / (2.0 * ag[k])
        if abs(v - 1.0) > band:
            raise ConditionFailed(
                f"(1): (t+s)/(2a) = {v:.6g} at a={ag[k]:g}, not within "
                f"{band:.0%} of 1", witness=float(ag[k]))

    lhs = ag * ag / (ag * ag + 1.0) - tv * sv
    rhs = (ag * ag + 1.0) * ((tv - sv) / 2.0) ** 2
    bad = lhs < rhs - 1e-12
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConditionFailed("(2): a^2/(a^2+1) - ts >= (a^2+1)((t-s)/2)^2 "
                              "fails", witness=float(ag[i]))

    x, z = _exterior_probes()
    counts = positive_root_count(
        lambda a, k: h_value(t_fn, s_fn, x[k], z[k], a), n_probes=x.size)
    bad = np.nonzero(counts > 1)[0]
    if bad.size:
        i = bad[0]
        raise ConditionFailed(f"(3): h_{{x,z}} has {counts[i]} positive roots",
                              witness=(x[i], z[i]))

    def b_fn(a):
        a = np.asarray(a, float)
        return (a * a + 1.0) * (np.asarray(t_fn(a), float)
                                - np.asarray(s_fn(a), float)) / 2.0

    def c_fn(a):
        a = np.asarray(a, float)
        tt = np.asarray(t_fn(a), float)
        ss = np.asarray(s_fn(a), float)
        c2 = a * a - (a * a + 1.0) * (((tt + ss) / 2.0) ** 2
                                      + a * a * ((tt - ss) / 2.0) ** 2)
        return np.sqrt(np.clip(c2, 0.0, None))

    return eqn_star(b_fn, c_fn, hand=hand,
                    label=label or f"param({t_fn.describe()},{s_fn.describe()})",
                    band=band)


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
        m = self.angle_map
        b = np.mod(np.asarray(beta, float), 2.0 * np.pi)
        single = b.ndim == 0
        b = np.atleast_1d(b)
        out = np.empty_like(b)
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
        out = np.mod(out, 2.0 * np.pi)
        return float(out[0]) if single else out

    def sigma1(self, pts):
        """Involution on circle points given as (..., 2) arrays (x, z)."""
        p = np.asarray(pts, float)
        single = p.ndim == 1
        P = np.atleast_2d(p)
        beta = np.arctan2(P[:, 1], P[:, 0])
        b2 = self.sigma1_angle(beta)
        out = np.stack([np.cos(b2), np.sin(b2)], axis=-1)
        return out[0] if single else out


def pencil_from_mu(mu) -> GlPencil:
    """Validate and wrap an arc map: m(0) = 0, m(pi/2) = pi/2, increasing."""
    m = as_fn1(mu, domain=(0.0, 0.5 * np.pi))
    e0 = float(m(np.array([0.0]))[0])
    e1 = float(m(np.array([0.5 * np.pi]))[0])
    if abs(e0) > 1e-9 or abs(e1 - 0.5 * np.pi) > 1e-9:
        raise ConditionFailed(
            "arc map must fix the endpoints: mu(1,0)=(-1,0) and mu(0,1)=(0,-1)",
            witness=(e0, e1))
    check_increasing(m, np.linspace(0.0, 0.5 * np.pi, T_GRID_SIZE), name="mu")
    return GlPencil(angle_map=m)


def latitudinal(pencil: GlPencil, label=None) -> GlStar:
    """Rotate a symmetric pencil about Z: every line meets the axis."""

    @on_unit_sphere
    def sig(Q):
        r = np.hypot(Q[:, 0], Q[:, 1])
        theta = np.arctan2(Q[:, 1], Q[:, 0])
        beta = np.arctan2(Q[:, 2], r)
        b2 = pencil.sigma1_angle(beta)
        x = np.cos(b2)
        return np.stack([x * np.cos(theta), x * np.sin(theta), np.sin(b2)],
                        axis=-1)

    def mer(t):
        t = np.atleast_1d(np.asarray(t, float))
        b2 = pencil.sigma1_angle(np.arcsin(np.clip(t, 0.0, 1.0)))
        return np.stack([np.cos(b2), np.zeros_like(b2), np.sin(b2)], axis=-1)

    profile = RotationalProfile.from_meridian(mer)
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
    if np.any(v < 0):
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
        if np.any(al <= 0):
            raise ConditionFailed("alpha_i must be positive",
                                  witness=int(np.argmax(al <= 0)))
        if np.any(ga < 0):
            raise ConditionFailed("gamma_i must be nonnegative",
                                  witness=int(np.argmax(ga < 0)))
        for arr, name in ((al, "alphas"), (be, "betas"), (ga, "gammas")):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(np.diff(self.slopes()) <= 0):
            i = int(np.argmax(np.diff(self.slopes()) <= 0))
            raise ConditionFailed("(1): slopes 1/sqrt(alpha_i) must strictly "
                                  "increase", witness=i)

    def __len__(self):
        return self.alphas.size

    def slopes(self):
        return 1.0 / np.sqrt(self.alphas)

    def value(self, i: int, u):
        u = np.asarray(u, float)
        return self.alphas[i] * (u - self.betas[i]) ** 2 + self.gammas[i]

    def arc_intersections(self, i: int):
        """The two u-values where P_i meets the arc v = 1 - u^2."""
        a, b, g = self.alphas[i], self.betas[i], self.gammas[i]
        roots = np.roots([a + 1.0, -2.0 * a * b, a * b * b + g - 1.0])
        roots = np.sort(np.real(roots[np.abs(np.imag(roots)) < 1e-12]))
        if roots.size != 2:
            raise ConditionFailed(
                "(3): parabola must meet the circle arc in two points",
                witness=i)
        return float(roots[0]), float(roots[1])

    def coefficients_at(self, a):
        """(alpha, beta, gamma) of the interpolated family at slope a > 0,
        including the scaled completions beyond both ends."""
        a = np.asarray(a, float)
        alpha = 1.0 / (a * a)
        xp = self.alphas[::-1]
        beta = np.interp(alpha, xp, self.betas[::-1])
        gamma = np.interp(alpha, xp, self.gammas[::-1])
        past_end = alpha < self.alphas[-1]
        gamma = np.where(past_end,
                         self.gammas[-1] * alpha / self.alphas[-1], gamma)
        return alpha, beta, gamma


def parabola_star(seq: ParabolaSeq, hand=Handedness.RIGHT, label=None,
                  band: float = LIMIT_BAND) -> GlStar:
    """Rotational star from an interpolated parabola sequence.

    A finite sequence is completed at both ends by scalar multiples of the
    extreme parabolas; the small-slope completion (t*p with t >= 1) is only
    sound when the first vertex is exactly the origin, which is required.
    """
    if abs(seq.betas[0]) > 1e-12 or seq.gammas[0] > 1e-12:
        raise ConditionFailed(
            "completion: the first parabola must have its vertex at the "
            "origin", witness=0)

    inter = [seq.arc_intersections(i) for i in range(len(seq))]
    for i, (lo, hi) in enumerate(inter):
        if not (lo < 0.0 < hi):
            raise ConditionFailed(
                "(3): arc intersections must be separated by the v-axis",
                witness=i)
        if lo < -1.0 - 1e-9 or hi > 1.0 + 1e-9:
            raise ConditionFailed(
                "(3): arc intersections must lie on the arc", witness=i)
    for i in range(len(seq) - 1):
        if not (inter[i + 1][1] > inter[i][1] and inter[i + 1][0] < inter[i][0]):
            raise ConditionFailed(
                "(3): consecutive arc intersections must nest outward "
                "(heights on the circle increase with the slope)", witness=i)

    for i in range(len(seq) - 1):
        d = np.array([seq.alphas[i] - seq.alphas[i + 1],
                      -2.0 * (seq.alphas[i] * seq.betas[i]
                              - seq.alphas[i + 1] * seq.betas[i + 1]),
                      (seq.alphas[i] * seq.betas[i] ** 2 + seq.gammas[i])
                      - (seq.alphas[i + 1] * seq.betas[i + 1] ** 2
                         + seq.gammas[i + 1])])
        if np.allclose(d, 0.0):
            continue
        roots = np.roots(d) if d[0] != 0.0 else (
            np.array([-d[2] / d[1]]) if d[1] != 0.0 else np.array([]))
        for u in np.real(roots[np.abs(np.imag(roots)) < 1e-12]):
            v = seq.value(i, u)
            inside = (abs(u) <= 1.0 + 1e-9) and (-1e-9 <= v <= 1.0 - u * u + 1e-9)
            if not inside:
                raise ConditionFailed(
                    "(4): consecutive parabolas intersect outside the "
                    "bounded region", witness=(i, float(u), float(v)))

    def b_fn(a):
        return seq.coefficients_at(a)[1]

    def c_fn(a):
        a = np.asarray(a, float)
        return a * np.sqrt(seq.coefficients_at(a)[2])

    return eqn_star(b_fn, c_fn, hand=hand,
                    label=label or f"parabola({len(seq)} entries)", band=band)


def example_parabola_sequence(n_side: int = 6) -> ParabolaSeq:
    """13-entry sequence sampling the built-in example at slopes 2^i,
    i = -6..6, with the smallest-slope entry snapped to an exact
    origin-vertex cone so the sequence can be completed."""
    from .functions import phi_r
    t_fn, s_fn = phi_r(1.5), phi_r(2.0)
    a = 2.0 ** np.arange(-n_side, n_side + 1).astype(float)
    tv = t_fn(a)
    sv = s_fn(a)
    b = (a * a + 1.0) * (tv - sv) / 2.0
    c2 = a * a - (a * a + 1.0) * (((tv + sv) / 2.0) ** 2
                                  + a * a * ((tv - sv) / 2.0) ** 2)
    alphas = 1.0 / (a * a)
    betas = b.copy()
    gammas = np.clip(c2, 0.0, None) / (a * a)
    betas[0] = 0.0
    gammas[0] = 0.0
    return ParabolaSeq(alphas=alphas, betas=betas, gammas=gammas)
