"""Involutions of the unit sphere and rotational surface profiles.

A star is held as a fixed-point-free involution sigma of the unit sphere
S^2; its lines are the chords q v sigma(q).  Rotational stars (invariant
under rotations about the z-axis Z) are generated from their restriction
to the half meridian p_t = (sqrt(1-t^2), 0, t), t in [0, 1], and completed
equivariantly: the completion is forced on the lower hemisphere by
inverting the (strictly decreasing) height of the meridian image.

Rotational stars also carry a profile: a family of surfaces of revolution

    a(t)^2 (x^2 + y^2) - (z - b(t))^2 = c(t)^2

(cones when c = 0, one-sheet hyperboloids otherwise) with a regulus choice
per hyperboloid.  For a chord of the unit sphere on such a surface the
second intersection point has height -t + 2 b / (1 + a^2), which makes the
meridian image of a profile star closed-form.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvalError, InvalidInput
from .projgeom import PLine, join

_T_EPS = 1e-12
_CONE_TOL = 1e-9
# Grid of t on which the completion checks the meridian image height.
_HEIGHT_TABLE_SIZE = 2048


class Handedness(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    MEETS_AXIS = "meets_axis"

    @property
    def sign(self) -> float:
        """+1 for the right regulus, -1 for the left."""
        if self is Handedness.RIGHT:
            return 1.0
        if self is Handedness.LEFT:
            return -1.0
        raise InvalidInput("MEETS_AXIS has no regulus sign")


def rotate_z(points, theta):
    """Rotate 3-vectors about the z-axis; broadcasts over leading axes."""
    p = np.asarray(points, float)
    th = np.asarray(theta, float)
    c, s = np.cos(th), np.sin(th)
    out = np.empty(np.broadcast(p[..., 0], th).shape + (3,))
    out[..., 0] = c * p[..., 0] - s * p[..., 1]
    out[..., 1] = s * p[..., 0] + c * p[..., 1]
    out[..., 2] = p[..., 2] * np.ones_like(th)
    return out


def meridian_point(t):
    """p_t = (sqrt(1-t^2), 0, t) for t in [-1, 1]."""
    t = np.asarray(t, float)
    x = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    return np.stack([x, np.zeros_like(t), t], axis=-1)


def fibonacci_sphere(n: int):
    """n nearly uniform points on S^2 (deterministic)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = np.pi * (3.0 - np.sqrt(5.0)) * i
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=-1)


def on_unit_sphere(batch_fn):
    """Wrap a map of unit vectors, rows (n, 3) -> (n, 3), so that it takes
    one point (3,) or a batch (n, 3), rejects points off the unit sphere and
    gets the rows scaled to unit length.  Works on methods too."""

    @functools.wraps(batch_fn)
    def fn(*args):
        *head, q = args
        q = np.asarray(q, float)
        Q = np.atleast_2d(q)
        norms = np.linalg.norm(Q, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise InvalidInput("sigma expects points on the unit sphere")
        out = batch_fn(*head, Q / norms[:, None])
        return out[0] if q.ndim == 1 else out

    return fn


def rotation_defect(sigma, n: int = 100, seed: int = 0):
    """How far sigma is from commuting with rotations about Z: random unit
    points q, angles theta and |sigma(R_theta q) - R_theta sigma(q)| for
    each, fixed by the seed."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    res = np.linalg.norm(sigma(rotate_z(q, th)) - rotate_z(sigma(q), th),
                         axis=-1)
    return q, th, res


def _snap_radicand(value, scale):
    """Clamp a radicand computed by cancellation: values below a few ulps of
    the cancelling terms are exact zeros of the underlying expression (the
    square root would otherwise turn rounding noise into sqrt(eps))."""
    snap = 32.0 * np.finfo(float).eps * np.asarray(scale, float)
    value = np.asarray(value, float)
    return np.where(value <= snap, 0.0, value)


def homogenize(q):
    """Affine sphere points (..., 3) -> homogeneous (..., 4)."""
    q = np.asarray(q, float)
    out = np.empty(q.shape[:-1] + (4,))
    out[..., 0] = 1.0
    out[..., 1:] = q
    return out


# ---------------------------------------------------------------------------
# Surface entries and profiles


@dataclass(frozen=True)
class SurfaceEntry:
    """One member of a rotational profile: a^2(x^2+y^2) - (z-b)^2 = c^2."""

    kind: str  # axis | horizontal_star | cone | hyperboloid
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    handedness: Handedness | None = None

    def __post_init__(self):
        if self.kind not in ("axis", "horizontal_star", "cone", "hyperboloid"):
            raise InvalidInput(f"unknown surface kind {self.kind!r}")
        if self.kind in ("cone", "hyperboloid") and self.a <= 0:
            raise InvalidInput("surface slope a must be positive")
        if self.kind == "cone" and self.c != 0.0:
            raise InvalidInput("a cone has c = 0")
        if self.kind == "hyperboloid" and self.c <= 0.0:
            raise InvalidInput("a hyperboloid has c > 0")

    def residual(self, points) -> np.ndarray:
        """Algebraic residual of the surface equation at affine points."""
        p = np.atleast_2d(np.asarray(points, float))
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return self.a ** 2 * r2 - (p[:, 2] - self.b) ** 2 - self.c ** 2


@dataclass(frozen=True)
class RotationalProfile:
    """t in (0, 1) -> surface coefficients, with the axis at t=1 and, unless
    the meridian map says otherwise, the horizontal star through the origin
    at t=0.

    ``abc`` maps an array of t to the arrays (a, b, c) in one evaluation.
    ``meridian``, set by ``from_meridian``, is the meridian map the profile
    was fitted to; it then gives the meridian image at the ends t=0, t=1.
    """

    abc: Callable
    handedness_sign: Callable = field(default=None)  # t -> +-1 (right/left)
    meridian: Callable | None = None

    def __post_init__(self):
        if self.handedness_sign is None:
            object.__setattr__(self, "handedness_sign",
                               lambda t: np.ones_like(np.asarray(t, float)))

    def coefficients(self, t):
        return tuple(np.asarray(v, float)
                     for v in self.abc(np.asarray(t, float)))

    def entry_at(self, t: float) -> SurfaceEntry:
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise InvalidInput("profile parameter must lie in [0, 1]")
        if t >= 1.0 - _T_EPS:
            return SurfaceEntry("axis")
        meets_axis = False
        if t <= _T_EPS:
            m = self.meridian_image(np.zeros(1))[0]
            if abs(m[2]) <= _CONE_TOL:
                return SurfaceEntry("horizontal_star")
            # the chord from p_0 = (1, 0, 0) meets Z when m[1] = 0: a cone,
            # however far rounding takes the fitted c from 0
            t, meets_axis = 0.0, abs(m[1]) <= _CONE_TOL
        a, b, c = (float(np.asarray(v).ravel()[0])
                   for v in self.coefficients(np.array([t])))
        if meets_axis or c <= _CONE_TOL * max(a, 1.0):
            return SurfaceEntry("cone", a=a, b=b, c=0.0)
        hand = Handedness.RIGHT if self.handedness_sign(np.array([t]))[0] > 0 \
            else Handedness.LEFT
        return SurfaceEntry("hyperboloid", a=a, b=b, c=c, handedness=hand)

    def meridian_image(self, t):
        """sigma(p_t) on the meridian, closed form from the surface data."""
        t = np.atleast_1d(np.asarray(t, float))
        out = np.empty(t.shape + (3,))
        lo = t <= _T_EPS
        hi = t >= 1.0 - _T_EPS
        ends = lo | hi
        if self.meridian is None:
            out[lo] = (-1.0, 0.0, 0.0)
            out[hi] = (0.0, 0.0, -1.0)
        elif np.any(ends):
            out[ends] = self.meridian(hi[ends].astype(float))
        mid = ~ends
        if np.any(mid):
            tm = t[mid]
            a, b, c = self.coefficients(tm)
            hs = np.asarray(self.handedness_sign(tm), float)
            xt = np.sqrt(1.0 - tm * tm)
            # ruling direction: dy from c directly (dx^2 + dy^2 = 1 holds
            # because p_t is on the surface; sqrt(1 - dx^2) would lose the
            # cone case c = 0 to rounding)
            dx = np.clip((tm - b) / (a * xt), -1.0, 1.0)
            dy = hs * c / (a * xt)
            one_a2 = 1.0 + a * a
            lam = -2.0 * (tm * one_a2 - b) / (a * one_a2)
            m = np.stack([xt + lam * dx, lam * dy, -tm + 2.0 * b / one_a2], axis=-1)
            m /= np.linalg.norm(m, axis=-1, keepdims=True)
            out[mid] = m
        return out

    @classmethod
    def from_meridian(cls, meridian_image) -> "RotationalProfile":
        """Recover surface coefficients from a meridian involution map.

        The rotation orbit of the chord p_t v m(t) sweeps a surface of
        revolution; fitting x^2+y^2 as a quadratic in z along the chord
        yields (a, b, c).
        """

        def mer(t):
            return np.atleast_2d(meridian_image(np.atleast_1d(
                np.asarray(t, float))))

        def abc(t):
            t = np.atleast_1d(np.asarray(t, float))
            xt = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
            m = mer(t)
            d0 = m[:, 0] - xt
            d1 = m[:, 1]
            dz = m[:, 2] - t
            dz = np.where(np.abs(dz) < 1e-300, -1e-300, dz)
            A = (d0 * d0 + d1 * d1) / (dz * dz)
            B = 2.0 * xt * d0 / dz - 2.0 * t * A
            C = xt * xt - 2.0 * t * xt * d0 / dz + t * t * A
            A = np.maximum(A, 1e-300)
            a = 1.0 / np.sqrt(A)
            b = -B / (2.0 * A)
            c2 = _snap_radicand(C / A - b * b, C / A + b * b)
            return a, b, np.sqrt(c2)

        def hand_sign(t):
            s = -np.sign(mer(t)[:, 1])
            return np.where(s == 0.0, 1.0, s)

        return cls(abc=abc, handedness_sign=hand_sign, meridian=mer)


# ---------------------------------------------------------------------------
# Equivariant completion of a meridian involution


class RotationalSigma:
    """Fixed-point-free involution of S^2 generated from its meridian values
    and completed to commute with all rotations about Z.

    For a query in the closed upper hemisphere, rotate onto the meridian
    (t = height), apply the meridian map, rotate back.  For the open lower
    hemisphere the involution property forces the value: find the meridian
    parameter whose image height matches the query, align azimuths, and
    return the rotated base point.
    """

    def __init__(self, meridian_image, z_of_t, t_of_z):
        self._meridian_image = meridian_image
        ts = np.linspace(0.0, 1.0, _HEIGHT_TABLE_SIZE)
        zs = np.asarray(z_of_t(ts), float)
        if not (abs(zs[0]) < 1e-7 and abs(zs[-1] + 1.0) < 1e-7):
            raise EvalError("meridian image height must run from 0 to -1")
        if np.any(np.diff(zs) > 1e-10):
            raise EvalError("meridian image height is not decreasing; "
                            "the equivariant completion is ill-posed")
        self._t_of_z = t_of_z

    def meridian_image(self, t):
        return self._meridian_image(np.asarray(t, float))

    @on_unit_sphere
    def __call__(self, Q):
        qz = np.clip(Q[:, 2], -1.0, 1.0)
        theta = np.arctan2(Q[:, 1], Q[:, 0])
        out = np.empty_like(Q)
        upper = qz >= 0.0
        if np.any(upper):
            m = self.meridian_image(qz[upper])
            out[upper] = rotate_z(m, theta[upper])
        lower = ~upper
        if np.any(lower):
            t = np.asarray(self._t_of_z(qz[lower]), float)
            m = self.meridian_image(t)
            psi = theta[lower] - np.arctan2(m[:, 1], m[:, 0])
            out[lower] = rotate_z(meridian_point(t), psi)
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        return out


# ---------------------------------------------------------------------------
# The star itself


@dataclass(frozen=True)
class GlStar:
    """A generalized line star: involution of S^2 plus optional profile,
    and the centre that every line passes through for a Clifford star."""

    label: str
    sigma_fn: Callable
    profile: RotationalProfile | None = None
    tags: tuple[str, ...] = ()
    center: tuple[float, float, float] | None = None

    def sigma(self, q):
        """Image of q under the involution; accepts (3,) or (n, 3)."""
        return self.sigma_fn(q)

    def line_through(self, q) -> PLine:
        """The star line q v sigma(q) as a Plücker line."""
        q = np.asarray(q, float)
        return join(homogenize(q), homogenize(self.sigma(q)))

    def sphere_chord(self, t, theta=0.0):
        """Sphere endpoints (q, sigma(q)) for q = R_theta p_t; vectorized."""
        t = np.atleast_1d(np.asarray(t, float))
        th = np.broadcast_to(np.asarray(theta, float), t.shape)
        q = rotate_z(meridian_point(t), th)
        return q, self.sigma(q)

    def chord(self, t, theta=0.0):
        """Homogeneous endpoint pairs of the star lines, shape (n, 4) each."""
        q, m = self.sphere_chord(t, theta)
        return homogenize(q), homogenize(m)


def meridian_line(profile, t: float) -> PLine:
    """The star line through p_t, from a profile or a star.

    t=0 gives the x-axis, t=1 the z-axis Z; in between the line lies on
    the profile surface at t, in the regulus the profile names.
    """
    if isinstance(profile, GlStar):
        if profile.profile is not None:
            profile = profile.profile
        else:
            A, B = profile.chord(np.array([float(t)]))
            return join(A[0], B[0])
    m = profile.meridian_image(np.array([float(t)]))[0]
    p = meridian_point(float(t))
    return join(homogenize(p), homogenize(m))


def handedness_of(L, tol: float = 1e-10) -> Handedness:
    """Regulus orientation of a line: with points ordered by increasing z,
    RIGHT when x1*y2 - x2*y1 > 0, LEFT when < 0, MEETS_AXIS when it
    vanishes (the line meets Z, possibly at infinity)."""
    p = L.p if isinstance(L, PLine) else np.asarray(L, float)
    scale = np.linalg.norm(p)
    det = p[5]  # p12 = x1*y2 - x2*y1 for any two spanning points
    if abs(det) < tol * scale:
        return Handedness.MEETS_AXIS
    dz = p[2]  # p03 orients the line by increasing z
    if dz == 0.0:
        raise InvalidInput("horizontal line missing the axis has no handedness")
    return Handedness.RIGHT if det * np.sign(dz) > 0 else Handedness.LEFT


def surface_mesh(entry: SurfaceEntry, n_u: int = 32, n_v: int = 64,
                 z_range: tuple[float, float] = (-2.0, 2.0)):
    """Triangulate a profile surface of revolution, clipped to a z-range.

    Returns (vertices (m, 3), faces (k, 3) of 0-based indices).  Axis and
    horizontal-star entries degenerate to polylines (empty face list).
    """
    if n_u < 2 or n_v < 2:
        raise InvalidInput("mesh resolutions must be at least 2")
    z0, z1 = z_range
    if entry.kind == "axis":
        zs = np.linspace(z0, z1, n_u)
        verts = np.stack([np.zeros_like(zs), np.zeros_like(zs), zs], axis=-1)
        return verts, np.empty((0, 3), dtype=int)
    if entry.kind == "horizontal_star":
        xs = np.linspace(z0, z1, n_u)
        verts = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=-1)
        return verts, np.empty((0, 3), dtype=int)
    zs = np.linspace(z0, z1, n_u)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_v, endpoint=False)
    r = np.sqrt((entry.c ** 2 + (zs - entry.b) ** 2)) / entry.a
    Z, TH = np.meshgrid(zs, thetas, indexing="ij")
    R = np.repeat(r[:, None], n_v, axis=1)
    verts = np.stack([R * np.cos(TH), R * np.sin(TH), Z], axis=-1).reshape(-1, 3)
    # quad (i, j) has corners a, b (ring i) over c, d (ring i+1) and splits
    # into the triangles (a, b, d) and (a, d, c)
    a = np.arange(n_u - 1)[:, None] * n_v + np.arange(n_v)[None, :]
    b = a - np.arange(n_v) + (np.arange(n_v) + 1) % n_v
    c, d = a + n_v, b + n_v
    faces = np.stack([a, b, d, a, d, c], axis=-1).reshape(-1, 3)
    return verts, faces
