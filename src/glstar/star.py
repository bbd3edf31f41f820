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

A profile's coefficients, its meridian image and the completed sigma's
upper hemisphere are each one kernel on columns (see ``projgeom``): they
take an array of t or of points, or one Python float each, as a
single-point query sends, and a float gets its batch row's bits without
numpy's cost per call on one-element arrays.  Where Python raises at a float
(ZeroDivisionError, ValueError) and numpy gives inf or NaN, a one-element
batch answers.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvalError, InvalidInput
from .projgeom import (
    PLine,
    col_clip,
    col_sqrt,
    col_ufunc,
    col_where,
    join,
    row_norm,
)

_T_EPS = 1e-12
_CONE_TOL = 1e-9
# handedness_of's bound on |p12| over |p|, below which a line meets Z
_MEETS_AXIS_TOL = 1e-10
# Grid of t on which the completion checks the meridian image height.
_HEIGHT_TABLE_SIZE = 2048
# The t grid of a profile's coefficient table, on which the search brackets
# the roots of each covering function.
PROFILE_GRID = np.linspace(0.0, 1.0, 257)
PROFILE_GRID.flags.writeable = False


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
    out = np.empty(np.broadcast(p[..., 0], th).shape + (3,))
    out[..., 0], out[..., 1], out[..., 2] = _turned(*np.rollaxis(p, -1), th)
    return out


def _turned(x, y, z, theta):
    """(x, y, z) turned by theta about Z, of columns: rotate_z's kernel."""
    c, s = col_ufunc(np.cos, theta), col_ufunc(np.sin, theta)
    return c * x - s * y, s * x + c * y, z


def meridian_point(t):
    """p_t = (sqrt(1-t^2), 0, t) for t in [-1, 1]: rows (..., 3) of an
    array of t, three Python floats of a float."""
    t = t if type(t) is float else np.asarray(t, float)
    x = col_sqrt(col_clip(1.0 - t * t, 0.0))
    return ((x, 0.0, t) if type(t) is float
            else np.stack([x, np.zeros_like(t), t], axis=-1))


def fibonacci_sphere(n: int):
    """n nearly uniform points on S^2 (deterministic)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = np.pi * (3.0 - np.sqrt(5.0)) * i
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=-1)


def on_unit_sphere(batch_fn, one=None):
    """Wrap a map of unit vectors, rows (n, 3) -> (n, 3), so that it takes
    one point (3,) or a batch (n, 3), rejects points off the unit sphere and
    gets the rows scaled to unit length.  Works on methods too.

    ``one(x, y, z)``, if given, maps one unit vector in Python floats with
    the batch row's bits, or returns None to leave the point to the batch;
    a single point, (3,) or (1, 3), is checked, scaled and mapped by it in
    floats (its norm as row_norm sums it, from +0.0 in order)."""

    @functools.wraps(batch_fn)
    def fn(*args):
        *head, q = args
        q = np.asarray(q, float)
        if one is not None and q.shape in ((3,), (1, 3)):
            x, y, z = q.ravel().tolist()
            n = math.sqrt(x * x + y * y + z * z)
            if not abs(n - 1.0) <= 1e-6:
                raise InvalidInput("sigma expects points on the unit sphere")
            out = one(*head, x / n, y / n, z / n)
            if out is not None:
                return np.array(out).reshape(q.shape)
        Q = np.atleast_2d(q)
        norms = row_norm(Q)
        if not np.all(np.abs(norms - 1.0) <= 1e-6):
            raise InvalidInput("sigma expects points on the unit sphere")
        out = batch_fn(*head, Q / norms[:, None])
        return out[0] if q.ndim == 1 else out

    return fn


# Largest rotation defect (``rotation_defect``'s sample) of a sigma that
# commutes with rotations about Z: check_rotational's bound, and the bound
# under which the search lets sigma's own meridian map stand in for a profile.
ROTATION_TOL = 1e-9


def rotation_defect(sigma, n: int = 100, seed: int = 0):
    """How far sigma is from commuting with rotations about Z: random unit
    points q, angles theta and |sigma(R_theta q) - R_theta sigma(q)| for
    each, fixed by the seed."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 3))
    q /= row_norm(q)[:, None]
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    # sigma of the turned points and of q in one call
    s = sigma(np.concatenate([rotate_z(q, th), q]))
    res = row_norm(s[:n] - rotate_z(s[n:], th))
    return q, th, res


# _snap_radicand's bound, relative to the cancelling terms
_SNAP_RTOL = 32.0 * float(np.finfo(float).eps)


def _snap_radicand(value, scale):
    """Clamp a radicand computed by cancellation, of columns: values below a
    few ulps of the cancelling terms are exact zeros of the underlying
    expression (the square root would otherwise turn rounding noise into
    sqrt(eps))."""
    return col_where(value <= _SNAP_RTOL * scale, 0.0, value)


# from_meridian's least height step |dz| of a chord: a flatter chord (the
# horizontal one at t = 0 of clifford and fg) is fitted with dz = -this, so
# that dz * dz stays a normal float and the fit is finite everywhere
_FLAT_CHORD = 1e-150


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
        if self.kind in ("cone", "hyperboloid") and not self.a > 0:
            raise InvalidInput("surface slope a must be positive")
        if self.kind == "cone" and self.c != 0.0:
            raise InvalidInput("a cone has c = 0")
        if self.kind == "hyperboloid" and not self.c > 0.0:
            raise InvalidInput("a hyperboloid has c > 0")

    def residual(self, points) -> np.ndarray:
        """Algebraic residual of the surface equation at affine points."""
        p = np.atleast_2d(np.asarray(points, float))
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return self.a ** 2 * r2 - (p[:, 2] - self.b) ** 2 - self.c ** 2


def is_cone(a, c):
    """Whether the profile members with coefficients (a, c) are cones:
    c <= _CONE_TOL max(a, 1), a waist radius c / a of at most _CONE_TOL
    for a >= 1.  The one cone test of entry_at and of the cone rule."""
    return c <= _CONE_TOL * np.maximum(a, 1.0)


@dataclass(frozen=True)
class RotationalProfile:
    """t in (0, 1) -> surface coefficients, with the axis at t=1 and, unless
    the meridian map says otherwise, the horizontal star through the origin
    at t=0.

    ``abc`` maps t, an array or one Python float, to (a, b, c), arrays or
    floats.  ``meridian``, set by ``from_meridian``, is the meridian map
    the profile was fitted to, and then its meridian image: t, an array or
    one float, to rows (n, 3) or three floats.  The handedness sign of a
    profile with no meridian map takes a float too.  At a float each takes
    the batch's float operations in the same order, so that a value has its
    batch row's bits, and may raise ZeroDivisionError or ValueError where
    numpy gives inf or NaN; ``coefficients`` and ``meridian_image``, which
    take either, then answer by a one-element batch, and ``coefficients``
    of an array gives inf and NaN without a warning.
    """

    abc: Callable
    handedness_sign: Callable  # t -> +-1 (right/left)
    meridian: Callable | None = None

    def coefficients(self, t):
        """(a, b, c) at t: arrays, or Python floats at a float."""
        if type(t) is float:
            try:
                return self.abc(t)
            except (ZeroDivisionError, ValueError):
                t = np.array([t])
                with np.errstate(divide="ignore", invalid="ignore"):
                    return tuple(float(np.asarray(v, float).ravel()[0])
                                 for v in self.abc(t))
        t = np.asarray(t, float)
        if t.size == 1:
            return tuple(np.full(t.shape, v)
                         for v in self.coefficients(t.item()))
        with np.errstate(divide="ignore", invalid="ignore"):
            return tuple(np.asarray(v, float) for v in self.abc(t))

    @functools.cached_property
    def table(self):
        """Coefficients (a, b, c) on PROFILE_GRID but its last point (the
        axis), with entry_at(0)'s at t=0; computed once per profile."""
        end = self.entry_at(0.0)
        return tuple(np.concatenate([[v0], v]) for v0, v in zip(
            (end.a, end.b, end.c), self.coefficients(PROFILE_GRID[1:-1])))

    def entry_at(self, t: float) -> SurfaceEntry:
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise InvalidInput("profile parameter must lie in [0, 1]")
        if t >= 1.0 - _T_EPS:
            return SurfaceEntry("axis")
        meets_axis = False
        if t <= _T_EPS:
            m = self.meridian_image(0.0)
            if abs(m[2]) <= _CONE_TOL:
                return SurfaceEntry("horizontal_star")
            # the chord from p_0 = (1, 0, 0) meets Z when m[1] = 0: a cone,
            # however far rounding takes the fitted c from 0
            t, meets_axis = 0.0, abs(m[1]) <= _CONE_TOL
        a, b, c = self.coefficients(t)
        if meets_axis or is_cone(a, c):
            return SurfaceEntry("cone", a=a, b=b, c=0.0)
        hand = Handedness.RIGHT if self.handedness_sign(np.array([t]))[0] > 0 \
            else Handedness.LEFT
        return SurfaceEntry("hyperboloid", a=a, b=b, c=c, handedness=hand)

    def meridian_image(self, t):
        """sigma(p_t) on the meridian: the map the profile was fitted to, or
        closed form from the surface data, with the horizontal star at t=0
        and the axis at t=1.  Rows (n, 3) of an array of t, three Python
        floats of a float."""
        if type(t) is float:
            try:
                return self._meridian(t)
            except (ZeroDivisionError, ValueError):
                return tuple(self._meridian(np.array([t]))[0].tolist())
        return self._meridian(np.atleast_1d(np.asarray(t, float)))

    def _meridian(self, t):
        if self.meridian is not None:
            return self.meridian(t)
        # the closed form runs on every t of an array, with 0.5 standing in
        # at the ends
        lo, hi = t <= 0.0, t >= 1.0
        if type(t) is float and (lo or hi):
            return (-1.0, 0.0, 0.0) if lo else (0.0, 0.0, -1.0)
        tm = col_where(lo | hi, 0.5, t)
        a, b, c = self.abc(tm)
        hs = self.handedness_sign(tm)
        xt = col_sqrt(1.0 - tm * tm)
        # ruling direction: dy from c directly (dx^2 + dy^2 = 1 holds
        # because p_t is on the surface; sqrt(1 - dx^2) would lose the cone
        # case c = 0 to rounding)
        ax = a * xt
        dx = col_clip((tm - b) / ax, -1.0, 1.0)
        dy = hs * c / ax
        one_a2 = 1.0 + a * a
        lam = -2.0 * (tm * one_a2 - b) / (a * one_a2)
        x, y, z = xt + lam * dx, lam * dy, -tm + 2.0 * b / one_a2
        norm = col_sqrt(x * x + y * y + z * z)
        m = x / norm, y / norm, z / norm
        if type(t) is float:
            return m
        m = np.stack(m, axis=-1)
        m[lo] = (-1.0, 0.0, 0.0)
        m[hi] = (0.0, 0.0, -1.0)
        return m

    @classmethod
    def from_meridian(cls, meridian_image) -> "RotationalProfile":
        """Recover surface coefficients from a meridian involution map,
        which takes an array of t, giving rows (n, 3), or one Python float,
        giving three numbers.

        The rotation orbit of the chord p_t v m(t) sweeps a surface of
        revolution; fitting x^2+y^2 as a quadratic in z along the chord
        yields (a, b, c), by one kernel on columns for an array of t or one
        float.
        """

        def mer(t):
            if type(t) is float:
                m = meridian_image(t)
                return m if type(m) is tuple else tuple(np.ravel(m).tolist())
            return np.atleast_2d(meridian_image(np.atleast_1d(
                np.asarray(t, float))))

        def abc(t):
            if type(t) is float:
                m0, m1, m2 = mer(t)
            else:
                t = np.atleast_1d(np.asarray(t, float))
                m0, m1, m2 = mer(t).T
            xt = col_sqrt(col_clip(1.0 - t * t, 0.0))
            d0 = m0 - xt
            dz = m2 - t
            dz = col_where(abs(dz) < _FLAT_CHORD, -_FLAT_CHORD, dz)
            A = (d0 * d0 + m1 * m1) / (dz * dz)
            B = 2.0 * xt * d0 / dz - 2.0 * t * A
            C = xt * xt - 2.0 * t * xt * d0 / dz + t * t * A
            A = col_clip(A, 1e-300)
            b = -B / (2.0 * A)
            c2 = _snap_radicand(C / A - b * b, C / A + b * b)
            return 1.0 / col_sqrt(A), b, col_sqrt(c2)

        def hand_sign(t):
            s = -np.sign(mer(t)[:, 1])
            return np.where(s == 0.0, 1.0, s)

        return cls(abc=abc, handedness_sign=hand_sign, meridian=mer)


# ---------------------------------------------------------------------------
# Equivariant completion of a meridian involution


class RotationalSigma:
    """Fixed-point-free involution of S^2 that completes the meridian map of
    a rotational profile to commute with all rotations about Z.

    For a query in the closed upper hemisphere, rotate onto the meridian
    (t = height), apply the meridian map, rotate back.  For the open lower
    hemisphere the involution property forces the value: t_of_z gives the
    meridian parameter whose image height matches the query; align
    azimuths and return the rotated base point.  A batch takes the meridian
    image of both hemispheres' parameters in one call.  The height of the
    map must decrease from 0 to -1, which is checked on a grid of t.
    """

    def __init__(self, profile: RotationalProfile, t_of_z):
        self._profile = profile
        ts = np.linspace(0.0, 1.0, _HEIGHT_TABLE_SIZE)
        zs = profile.meridian_image(ts)[:, 2]
        if not (abs(zs[0]) < 1e-7 and abs(zs[-1] + 1.0) < 1e-7):
            raise EvalError("meridian image height must run from 0 to -1")
        if not np.all(np.diff(zs) <= 1e-10):
            raise EvalError("meridian image height is not decreasing; "
                            "the equivariant completion is ill-posed")
        self._t_of_z = t_of_z

    def _batch(self, Q):
        """sigma of rows (n, 3) by one meridian image of the upper heights
        and the lower hemisphere's t_of_z together (the image is taken
        elementwise, so each row has its own hemisphere's bits)."""
        x, y, z = Q.T
        upper = z >= 0.0  # as np.clip(z, -1, 1) >= 0
        if upper.all():
            return np.stack(self._upper(x, y, z), axis=-1)
        lower = ~upper
        t = np.asarray(self._t_of_z(np.clip(z[lower], -1.0, 1.0)), float)
        k = len(Q) - len(t)
        m = self._profile.meridian_image(
            np.concatenate([np.clip(z[upper], -1.0, 1.0), t]))
        out = np.empty_like(Q)
        if k:
            out[upper] = np.stack(self._turn(*m[:k].T, x[upper], y[upper]),
                                  axis=-1)
        m = m[k:]
        q = rotate_z(meridian_point(t), np.arctan2(y[lower], x[lower])
                     - np.arctan2(m[:, 1], m[:, 0]))
        out[lower] = q / row_norm(q)[:, None]
        return out

    def _upper(self, x, y, z):
        """sigma in the closed upper hemisphere, of columns: the meridian
        image at the height of the point, ``_turn``ed by its azimuth."""
        m = self._profile.meridian_image(col_clip(z, -1.0, 1.0))
        return self._turn(*(m if type(z) is float else m.T), x, y)

    @staticmethod
    def _turn(m0, m1, m2, x, y):
        """The meridian image (m0, m1, m2) turned by the azimuth of (x, y)
        (rotate_z's kernel) and scaled to unit length, of columns."""
        x, y, z = _turned(m0, m1, m2, col_ufunc(np.arctan2, y, x))
        norm = col_sqrt(x * x + y * y + z * z)
        return x / norm, y / norm, z / norm

    def _one(self, x, y, z):
        """_upper of one point, None below the equator."""
        return self._upper(x, y, z) if z >= 0.0 else None

    __call__ = on_unit_sphere(_batch, one=_one)


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

    @functools.cached_property
    def line_profile(self) -> RotationalProfile | None:
        """The profile of the star's lines, computed once: the star's own,
        else the one fitted to sigma's meridian map t -> sigma(p_t) when
        sigma commutes with rotations about Z (every ``rotation_defect``
        below ROTATION_TOL), else None."""
        if self.profile is not None:
            return self.profile
        if not np.all(rotation_defect(self.sigma)[2] < ROTATION_TOL):
            return None
        return RotationalProfile.from_meridian(
            lambda t: self.sigma(meridian_point(t)))

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
    """The star line through p_t: of a profile, the join of p_t and its
    meridian image; of a star, its chord ``star.chord(t)``.

    t=0 gives the x-axis, t=1 the z-axis Z; in between the line lies on
    the profile surface at t, in the regulus the profile names.
    """
    if isinstance(profile, GlStar):
        A, B = profile.chord(np.array([float(t)]))
        return join(A[0], B[0])
    m = profile.meridian_image(np.array([float(t)]))[0]
    p = meridian_point(float(t))
    return join(homogenize(p), homogenize(m))


def handedness_of(L) -> Handedness:
    """Regulus orientation of a line: with points ordered by increasing z,
    RIGHT when x1*y2 - x2*y1 > 0, LEFT when < 0, MEETS_AXIS when it
    vanishes (the line meets Z, possibly at infinity)."""
    p = L.p if isinstance(L, PLine) else np.asarray(L, float)
    scale = np.linalg.norm(p)
    det = p[5]  # p12 = x1*y2 - x2*y1 for any two spanning points
    if abs(det) < _MEETS_AXIS_TOL * scale:
        return Handedness.MEETS_AXIS
    dz = p[2]  # p03 orients the line by increasing z
    if dz == 0.0:
        raise InvalidInput("horizontal line missing the axis has no handedness")
    return Handedness.RIGHT if det * np.sign(dz) > 0 else Handedness.LEFT


def surface_mesh(entry: SurfaceEntry, n_u: int = 32, n_v: int = 64):
    """Triangulate a profile surface of revolution, clipped to -2 <= z <= 2.

    Returns (vertices (m, 3), faces (k, 3) of 0-based indices).  Axis and
    horizontal-star entries degenerate to polylines (empty face list).
    """
    if n_u < 2 or n_v < 2:
        raise InvalidInput("mesh resolutions must be at least 2")
    z0, z1 = -2.0, 2.0
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
