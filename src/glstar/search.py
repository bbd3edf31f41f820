"""Locating star lines through a point.

A star line is the chord from q = R_theta(p_t) to sigma(q); a homogeneous
point w of P^3 lies on it exactly when w sits in the 2-dim span of the
chord's endpoints.  The residual ||w - proj_span(w)|| / ||w|| is zero
precisely there, and the search reports each line it finds with its
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

Each step after the bracket is one kernel on columns (see ``projgeom``):
the covering function, the chord's azimuth, and the rejection of w from
the chord's span, whose norm is the residual.  A batch gives them arrays;
one row on a profile star, as each ``parallel_through`` query sends, gives
them Python floats in ``_find_one``, with its batch row's bits, and leaves
to the batch a grid zero, no sign change or more than one bracket, and a
frame that divides by zero.  Each row of W is first scaled by a power of
two, which is exact, and a zero row is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functions
from .errors import InvalidInput, SearchFailed
from .functions import bracket_roots
from .projgeom import (
    col_dot,
    col_sign,
    col_sqrt,
    col_ufunc,
    col_where,
    pow2_scaled,
    row_dot,
    row_norm,
)
from .star import PROFILE_GRID, GlStar, _turned, homogenize, meridian_point

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


# -- kernels on columns: w, A and B are four columns each


def _unit(u):
    """u over its norm."""
    n = col_sqrt(col_dot(u, u))
    return [a / n for a in u]


def _covering(a, b, c, w0, w1, w2, w3):
    """The covering function of the points (w0, w1, w2, w3) at profile
    coefficients (a, b, c), over 1 + a^2: -w3^2 at the horizontal star
    a = b = c = 0.  Arrays broadcast."""
    a2 = a * a
    e = w3 - b * w0
    f = c * w0
    return (a2 * (w1 * w1 + w2 * w2) - e * e - f * f) / (1.0 + a2)


def _grid_values(table, w):
    """The covering function of w on the table, and w1^2 + w2^2 at the axis."""
    r2 = w[1] * w[1] + w[2] * w[2]
    return _covering(*table, *w), col_where(r2 > _AXIS_R2, r2, 0.0)


def _chord_azimuth(w, A, B):
    """theta with R_theta (chord A v B) through w, for w on the chord's
    surface of revolution: the chord's point X at the height of w (at
    infinity when w is), or its direction when the whole chord is at that
    height, turned onto w."""
    u = B[3] * w[0] - B[0] * w[3]
    v = A[0] * w[3] - A[3] * w[0]
    X = col_where((u == 0.0) & (v == 0.0), [a - b for a, b in zip(A, B)],
                  [u * a + v * b for a, b in zip(A, B)])
    s = col_sign(w[0] * X[0] + w[3] * X[3])
    s = col_where(s == 0.0, 1.0, s)
    theta = (col_ufunc(np.arctan2, s * w[2], s * w[1])
             - col_ufunc(np.arctan2, X[2], X[1]))
    return col_ufunc(np.mod, theta, _TWO_PI)


def _rejection(w, A, B):
    """The rejection of the unit w from the span of A and B, by the frame
    U1 = A / |A| and U2, the unit part of B orthogonal to U1.  The chord of
    a fixed point of sigma (B a multiple of A) spans no line: its U2, and
    so its rejection, is NaN (in floats a ZeroDivisionError)."""
    U1 = _unit(A)
    d = col_dot(B, U1)
    U2 = _unit([b - d * u for b, u in zip(B, U1)])
    d = col_dot(w, U1)
    rej = [x - d * u for x, u in zip(w, U1)]
    d = col_dot(rej, U2)
    return [r - d * u for r, u in zip(rej, U2)]


def _residual(w, A, B):
    """The norm of the rejection: 0 when w is on the chord A v B."""
    rej = _rejection(w, A, B)
    return col_sqrt(col_dot(rej, rej))


def _residuals(W, A, B):
    """_residual of aligned rows (n, 4): a single row in Python floats,
    unless its frame divides by zero, and more on columns."""
    if W.shape[0] == 1:
        try:
            return np.array([_residual(*(X[0].tolist() for X in (W, A, B)))])
        except ZeroDivisionError:
            pass
    with np.errstate(invalid="ignore", divide="ignore"):
        return _residual(W.T, A.T, B.T)


class StarLineSearch:
    """Star lines through points, by the path the star's structure allows."""

    def __init__(self, star: GlStar):
        self.star = star

    def _profile_params(self, U):
        """(owner, t, theta) of every root of every covering function of
        the unit rows of U."""
        profile = self.star.line_profile
        if profile is None:
            raise SearchFailed(f"{self.star.label}: no centre, no profile and "
                               "sigma does not commute with rotations about Z")
        # the axis (t=1, a -> inf) ends each covering function at w1^2 + w2^2;
        # below rounding w is on the axis, which no t short of 1 resolves
        V = np.column_stack(_grid_values(profile.table, U.T[:, :, None]))

        def covering(t, k):
            return _covering(*profile.coefficients(t), *U[k].T)

        owner, t = bracket_roots(covering, PROFILE_GRID, V, rtol=_ROOT_RTOL)
        # the chord at theta = 0 from the profile's own meridian map: sigma
        # is evaluated once, at (t, theta), by find_batch
        A = homogenize(meridian_point(t))
        B = homogenize(profile.meridian_image(t))
        return owner, t, _chord_azimuth(U[owner].T, A.T, B.T)

    def _find_one(self, w, tol):
        """find_batch of one nonzero point w (four floats) on a profile
        star, by the batch's kernels in Python floats; None where the batch
        must answer: a grid zero, no sign change or more than one bracket of
        the covering function, or a frame that divides by zero."""
        profile = self.star.line_profile
        if profile is None:
            return None
        u = _unit(w)
        v = np.append(*_grid_values(profile.table, u))  # a row of V
        _, i, bracket = functions._root_candidates(v[None, :])
        if i.size != 1 or not bracket[0]:
            return None
        k = int(i[0])
        t = functions._illinois_one(
            lambda x: _covering(*profile.coefficients(x), *u),
            float(PROFILE_GRID[k]), float(PROFILE_GRID[k + 1]),
            float(v[k]), float(v[k + 1]), _ROOT_RTOL)
        p = meridian_point(t)
        theta = _chord_azimuth(u, (1.0, *p), (1.0, *profile.meridian_image(t)))
        q = _turned(*p, theta)
        A, B = (1.0, *q), (1.0, *self.star.sigma(np.array(q)).tolist())
        try:
            res = _residual(u, A, B)
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
        """All star lines through each homogeneous point (rows of W), each
        row scaled by a power of two first.  A zero row raises InvalidInput.

        Returns one list of LineHits per point, best residual first.
        """
        W = pow2_scaled(np.atleast_2d(np.asarray(W, float)))
        if W.shape == (1, 4) and self.star.center is None:
            w = W[0].tolist()
            hits = self._find_one(w, tol) if any(w) else None
            if hits is not None:
                return [hits]
        norm = row_norm(W)
        if not norm.all():
            raise InvalidInput(f"row {int(np.argmin(norm))} of the points is "
                               "zero, which is no point of P^3")
        U = W / norm[:, None]
        if self.star.center is not None:
            owner, t, theta = self._center_params(W)
        else:
            owner, t, theta = self._profile_params(U)
        A, B = self.star.chord(t, theta)
        res = _residuals(U[owner], A, B)
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
