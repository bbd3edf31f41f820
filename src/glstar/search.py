"""Locating star lines through a point.

A star line is the chord from q = R_theta(p_t) to sigma(q); a homogeneous
point w of P^3 lies on it exactly when w sits in the 2-dim span of the
chord's endpoints.  The residual ||w - proj_span(w)|| / ||w|| is zero
precisely there, and both paths below report each line they find with its
residual against the star's own chord(t, theta), so a sigma that disagrees
with the star's structure finds no line.  The path follows that structure:

- A Clifford star's line through w is the join of w and the centre.
- A star with a rotational profile a(t)^2 r^2 - (z - b(t))^2 = c(t)^2 has
  one star line through w for each root t of the covering function
  F_w(t) = a^2 (w1^2 + w2^2) - (w3 - b w0)^2 - c^2 w0^2 (at w0 = 0 the
  asymptotic cone), which ``bracket_roots`` finds on a fixed t grid for all
  points at once.  theta then follows in closed form: the azimuth of w minus
  the azimuth of the point at the height of w (its direction at infinity
  when w is) of the chord p_t v m(t), where m is the profile's own meridian
  map.  So sigma is evaluated once per located line, at (t, theta), for
  the residual and the chord.  A star with no profile gets the profile
  fitted to its own meridian map t -> sigma(p_t), once sigma is seen to
  commute with rotations about Z; any other sigma raises SearchFailed.
  ``GlStar.line_profile`` is the one accessor of a star's profile, its own
  or this fit, and the only place a profile is fitted to sigma.  It and the
  coefficient table on the t grid (``RotationalProfile.table``) are held on
  the star and its profile, computed once, so every search of one star
  shares them.

A single point, as each ``parallel_through`` query sends, runs in Python
floats through the search's own steps and the whole family code, without
numpy's cost per call on one-element arrays, and each float path gives its
batch row's bits.  ``find_batch`` sends one row on a profile star to
``_find_one``: its covering values on the coefficient table and their grid
zeros and sign changes are taken in numpy on that one 257-value row; the
one bracket is refined one height at a time (``functions._illinois_one``)
on the covering function at one float; the profile's coefficients at that
t come from ``coefficients_one`` (the family's ``abc_one``: symmetric's
closed form, the eqn-path's log-slope step with the height inverse and
``bc`` in floats, or for a fitted profile ``star._fit_one`` on the
family's meridian map at one t); the meridian point, the meridian image
(``meridian_image_one``) and the azimuth of the chord at that t; its
rotation, and sigma at it from its one-point path in the closed upper
hemisphere (see the ``star`` module); and the chord's frame, the
rejection and its norm, each sum of ``row_dot`` taken in order from +0.0.
The batch answers a row with a grid zero, no sign change or more than one
bracket, a zero row, a frame that divides by zero, and every row of a
star with a centre or with no profile.  A batch with one open bracket
refines it in floats too (``bracket_roots``' ``fn_one``).  Each float path
is selected by its input's size, and takes every float operation of the
batch in the same order: a transcendental step calls numpy's own ufunc on
the Python float, never ``math``, whose functions round differently from
numpy's vectorized kernels on some inputs, and where Python would raise (a
division by zero, the root of a negative number) the batch answers.

The row reductions are ``projgeom.row_dot`` and ``row_norm``, which give
numpy's bits without its fixed cost per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functions
from .errors import SearchFailed
from .functions import bracket_roots
from .projgeom import row_dot, row_norm
from .star import PROFILE_GRID, GlStar, homogenize, meridian_point

_TWO_PI = 2.0 * np.pi
# below this r^2 / |w|^2 a point is on the axis (see _profile_params)
_AXIS_R2 = float(np.finfo(float).eps)

# The covering function's roots are refined to rounding level on
# PROFILE_GRID, so each line is as accurate as the profile it comes from.
_ROOT_RTOL = 1e-15
# The residual below which a point lies on a star line: the default of every
# search and of the checks built on it.
LINE_TOL = 1e-8


@dataclass(frozen=True)
class LineHit:
    """One located star line: parameters, residual and the homogeneous
    endpoints (A, B) = star.chord(t, theta) of its chord, evaluated once by
    the search; its Plücker vector is join_batch(A, B)."""

    t: float
    theta: float
    residual: float
    A: np.ndarray  # (4,)
    B: np.ndarray  # (4,)


def _frames(A, B):
    """Orthonormal bases (U1, U2) of the spans of the rows of A and B.  The
    chord of a fixed point of sigma (B a multiple of A) spans no line: its
    U2, and so its residual, is NaN and it gives no hit."""
    U1 = A / row_norm(A)[..., None]
    Bp = B - row_dot(B, U1)[..., None] * U1
    with np.errstate(invalid="ignore", divide="ignore"):
        U2 = Bp / row_norm(Bp)[..., None]
    return U1, U2


def _reject(W, U1, U2):
    """Rejection of each unit w from the span of its frame; rows aligned."""
    W = W / row_norm(W)[..., None]
    rej = W - row_dot(W, U1)[..., None] * U1
    rej -= row_dot(rej, U2)[..., None] * U2
    return rej


def _covering(a, b, c, w0, w1, w2, w3):
    """The covering function of the points (w0, w1, w2, w3) at profile
    coefficients (a, b, c), over 1 + a^2: -w3^2 at the horizontal star
    a = b = c = 0.  Arrays broadcast; Python floats give their bits."""
    a2 = a * a
    e = w3 - b * w0
    f = c * w0
    return (a2 * (w1 * w1 + w2 * w2) - e * e - f * f) / (1.0 + a2)


def _chord_azimuths(W, A, B):
    """theta with R_theta (chord A v B) through w, for w on the chord's
    surface of revolution: the chord's point X at the height of w (at
    infinity when w is), or its direction when the whole chord is at that
    height, turned onto w."""
    u = B[:, 3] * W[:, 0] - B[:, 0] * W[:, 3]
    v = A[:, 0] * W[:, 3] - A[:, 3] * W[:, 0]
    X = u[:, None] * A + v[:, None] * B
    flat = (u == 0.0) & (v == 0.0)
    X[flat] = A[flat] - B[flat]
    s = np.sign(W[:, 0] * X[:, 0] + W[:, 3] * X[:, 3])
    s[s == 0.0] = 1.0
    theta = np.arctan2(s * W[:, 2], s * W[:, 1]) - np.arctan2(X[:, 2], X[:, 1])
    return np.mod(theta, _TWO_PI)


# -- one point in Python floats: each float operation of the batch row in its
# order, row_dot's sums from +0.0, numpy's own ufunc for arctan2, mod, cos
# and sin; a division by zero raises where the batch gives inf or NaN


def _dot_one(u, v):
    """row_dot of two rows of floats."""
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


def _unit_one(u):
    """u / row_norm(u) of one row of floats."""
    n = math.sqrt(_dot_one(u, u))
    return [a / n for a in u]


def _chord_azimuth_one(w, A, B):
    """_chord_azimuths of one row."""
    u = B[3] * w[0] - B[0] * w[3]
    v = A[0] * w[3] - A[3] * w[0]
    if u == 0.0 and v == 0.0:
        X = [a - b for a, b in zip(A, B)]
    else:
        X = [u * a + v * b for a, b in zip(A, B)]
    d = w[0] * X[0] + w[3] * X[3]
    s = -1.0 if d < 0.0 else 1.0 if d >= 0.0 else d  # np.sign, 0 -> 1
    theta = (float(np.arctan2(s * w[2], s * w[1]))
             - float(np.arctan2(X[2], X[1])))
    return float(np.mod(theta, _TWO_PI))


def _residual_one(w, A, B):
    """row_norm(_reject(w, *_frames(A, B))) of one row, w of unit norm."""
    U1 = _unit_one(A)
    d = _dot_one(B, U1)
    U2 = _unit_one([b - d * u for b, u in zip(B, U1)])
    d = _dot_one(w, U1)
    rej = [x - d * u for x, u in zip(w, U1)]
    d = _dot_one(rej, U2)
    rej = [r - d * u for r, u in zip(rej, U2)]
    return math.sqrt(_dot_one(rej, rej))


class StarLineSearch:
    """Star lines through points, by the path the star's structure allows."""

    def __init__(self, star: GlStar):
        self.star = star

    def _profile_params(self, W):
        """(owner, t, theta) of every root of every covering function."""
        profile = self.star.line_profile
        if profile is None:
            raise SearchFailed(f"{self.star.label}: no centre, no profile and "
                               "sigma does not commute with rotations about Z")
        W = W / row_norm(W)[:, None]
        # the axis (t=1, a -> inf) ends each covering function at w1^2 + w2^2;
        # below rounding w is on the axis, which no t short of 1 resolves
        r2 = W[:, 1] ** 2 + W[:, 2] ** 2
        V = np.column_stack([_covering(*profile.table, *W.T[:, :, None]),
                             np.where(r2 > _AXIS_R2, r2, 0.0)])

        def covering(t, k):
            return _covering(*profile.coefficients(t), *W[k].T)

        def covering_one(t, k):
            # one height, as a single bracket is refined: the covering
            # function in Python floats, with the batch's bits
            return _covering(*profile.coefficients_one(t), *W[k].tolist())

        owner, t = bracket_roots(covering, PROFILE_GRID, V, rtol=_ROOT_RTOL,
                                 fn_one=covering_one)
        # the chord at theta = 0 from the profile's own meridian map: sigma
        # is evaluated once, at (t, theta), by find_batch
        A = homogenize(meridian_point(t))
        B = homogenize(profile.meridian_image(t))
        return owner, t, _chord_azimuths(W[owner], A, B)

    def _find_one(self, w, tol):
        """find_batch of one point w (four floats) on a profile star, in
        Python floats with its batch row's bits; None where the batch must
        answer: a grid zero, no sign change or more than one bracket of the
        covering function, a zero row, or a frame that divides by zero."""
        profile = self.star.line_profile
        if profile is None:
            return None
        try:
            w = _unit_one(w)
        except ZeroDivisionError:
            return None
        w0, w1, w2, w3 = w
        r2 = w1 * w1 + w2 * w2
        # the one row of _profile_params' V, its candidates as
        # functions._root_candidates takes them
        v = np.append(_covering(*profile.table, w0, w1, w2, w3),
                      r2 if r2 > _AXIS_R2 else 0.0)
        pos, neg = v > 0.0, v < 0.0
        i = np.flatnonzero((pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:]))
        if i.size != 1 or not np.all(v):
            return None
        k = int(i[0])
        t = functions._illinois_one(
            lambda x: _covering(*profile.coefficients_one(x), w0, w1, w2, w3),
            float(PROFILE_GRID[k]), float(PROFILE_GRID[k + 1]),
            float(v[k]), float(v[k + 1]), _ROOT_RTOL)
        # meridian_point and rotate_z: p_t = (x, 0, t)
        x = math.sqrt(max(1.0 - t * t, 0.0))
        theta = _chord_azimuth_one(w, (1.0, x, 0.0, t),
                                   (1.0, *profile.meridian_image_one(t)))
        c, s = float(np.cos(theta)), float(np.sin(theta))
        A = (1.0, c * x - s * 0.0, s * x + c * 0.0, t * 1.0)
        B = (1.0, *self.star.sigma(np.array([A[1:]]))[0].tolist())
        try:
            res = _residual_one(w, A, B)
        except ZeroDivisionError:
            return None
        return ([LineHit(t, theta, res, np.array(A), np.array(B))]
                if res < tol else [])

    def _center_params(self, W):
        """(owner, t, theta) of the chord through w and the centre: its
        sphere point of larger height is R_theta p_t (t < 0 when both lie
        below z = 0, as for a centre below the equator)."""
        c = np.asarray(self.star.center, float)
        d = W[:, 1:] - W[:, :1] * c
        dd = row_dot(d, d)
        cd = d @ c
        root = np.sqrt(cd * cd - dd * (c @ c - 1.0))
        s = (-cd + np.where(d[:, 2] > 0.0, root, -root)) / dd
        q = c + s[:, None] * d
        return (np.arange(W.shape[0]), q[:, 2],
                np.mod(np.arctan2(q[:, 1], q[:, 0]), _TWO_PI))

    # -- public API ----------------------------------------------------------

    def find_batch(self, W, tol: float = LINE_TOL):
        """All star lines through each homogeneous point (rows of W).

        Returns one list of LineHits per point, best residual first.
        """
        W = np.atleast_2d(np.asarray(W, float))
        if W.shape == (1, 4) and self.star.center is None:
            hits = self._find_one(W[0].tolist(), tol)
            if hits is not None:
                return [hits]
        if self.star.center is not None:
            owner, t, theta = self._center_params(W)
        else:
            owner, t, theta = self._profile_params(W)
        A, B = self.star.chord(t, theta)
        res = row_norm(_reject(W[owner], *_frames(A, B)))
        # Python numbers, taken in order of residual (NaN last, ties by root)
        owners, ts, thetas, residuals = (
            v.tolist() for v in (owner, t, theta, res))
        out = [[] for _ in range(W.shape[0])]
        for j in np.argsort(res, kind="stable").tolist():
            if residuals[j] < tol:
                out[owners[j]].append(
                    LineHit(ts[j], thetas[j], residuals[j], A[j], B[j]))
        return out

    def find(self, w, tol: float = LINE_TOL):
        return self.find_batch(np.asarray(w, float)[None, :], tol=tol)[0]

