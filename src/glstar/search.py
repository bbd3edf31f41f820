"""Locating star lines through a point.

A star line is the chord from q = R_theta(p_t) to sigma(q); a homogeneous
point w of P^3 lies on it exactly when w sits in the 2-dim span of the
chord's endpoints.  The residual, the distance of w / ||w|| from it, is
zero precisely there, and the search reports each line it finds with its
residual against the star's own chord(t, theta), so a sigma that disagrees
with the star's structure finds no line.  The path follows that structure:

- A Clifford star's line through w is the join of w and the centre.
- A star with a rotational profile a(t)^2 r^2 - (z - b(t))^2 = c(t)^2 has
  one star line through w for each root t of the covering function
  F_w(t) = a^2 (w1^2 + w2^2) - (w3 - b w0)^2 - c^2 w0^2 (at w0 = 0 the
  asymptotic cone), which ``bracket_roots`` finds on a fixed t grid for all
  points at once.  A batch takes that grid as one product: F_w over
  1 + a^2 is linear in the features (w1^2 + w2^2, w3^2, w0 w3, w0^2) of the
  unit w, so the grid is features @ T, with T the profile's
  ``covering_table`` (4, 256).  Only the signs of the grid's entries choose
  the candidates, and an entry whose size is above _KAPPA sum_i |T[i, j]|
  has its sign certified; every other entry, and both ends of every
  bracket, take ``_grid_values``' own value, the one definition of a grid
  value.  So the candidates and the start values of the refinement, and
  with them every line, are the exact grid's bit for bit.  theta then
  follows in closed form: the azimuth of w minus the azimuth of the point
  at the height of w (its direction at infinity when w is) of the chord
  p_t v m(t), where m is the profile's own meridian map.  So sigma is
  evaluated once per located line, at (t, theta), for the residual and the
  chord.  A star with no profile gets the profile fitted to its own
  meridian map t -> sigma(p_t), once sigma is seen to commute with
  rotations about Z; any other sigma raises SearchFailed.
  ``GlStar.line_profile`` is the one accessor of a star's profile, its own
  or this fit, and the only place a profile is fitted to sigma.  It, the
  coefficient table on the t grid (``RotationalProfile.table``) and T are
  held on the star and its profile, computed once, so every search of one
  star shares them.

Each step after the bracket is one kernel on columns (see ``projgeom``):
the covering function, the chord's azimuth, and the residual
(``col_line_distance`` on the chord's Plücker vector, as in
``parallel_through``).  A batch gives them arrays; one row on a profile
star, as each ``parallel_through`` query sends, gives them Python floats
in ``_find_one``, with its batch row's bits, and leaves to the batch a
grid zero, no sign change or more than one bracket, and a chord that
spans no line.  Each row of W is first scaled by a power of two, which is
exact, and a zero or non-finite row is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functions
from .errors import InvalidInput, SearchFailed
from .functions import bracket_roots
from .projgeom import (
    col_dot,
    col_join,
    col_line_distance,
    col_sign,
    col_sqrt,
    col_ufunc,
    col_where,
    pow2_scaled,
    row_dot,
    row_norm,
)
from .star import PROFILE_GRID, GlStar, _turned, meridian_point

_TWO_PI = 2.0 * np.pi
# below this r^2 / |w|^2 a point is on the axis (see _profile_params)
_AXIS_R2 = float(np.finfo(float).eps)

# The covering function's roots are refined to rounding level on
# PROFILE_GRID, so each line is as accurate as the profile it comes from.
_ROOT_RTOL = 1e-15
# The residual below which a point lies on a star line: the default of every
# search and of the checks built on it.
LINE_TOL = 1e-8
# The product grid's certificate.  With u = 2^-53 and S_j = sum_i |T[i, j]|
# (at least 1, as |T[0, j]| + |T[1, j]| is 1), the product entry P and
# _covering's own value E of a unit w each lie within some 12 u S_j of the
# covering function: every feature is at most 1 in size, and E's terms add
# up to at most S_j.  So where |P| > _KAPPA S_j, E is nonzero and has P's
# sign; a NaN or infinite P or S_j is uncertified.
_KAPPA = 64.0 * 2.0 ** -53


@dataclass(frozen=True, slots=True)
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
    """The covering function of w on the table, and w1^2 + w2^2 at the axis:
    the one definition of a grid value."""
    r2 = w[1] * w[1] + w[2] * w[2]
    return _covering(*table, *w), col_where(r2 > _AXIS_R2, r2, 0.0)


def _product_grid(profile, U):
    """The grid values (n, 257) of the unit rows U, each entry of the
    covering function with _grid_values' sign: the product
    features(U) @ profile.covering_table where its sign is certified
    (``_KAPPA``), and _grid_values' own value elsewhere; the axis column is
    _grid_values' own.  Returns them and ``ends(k, i)``, _grid_values' own
    value of rows k at grid indices i, for the ends of the brackets."""
    table, T = profile.table, profile.covering_table
    m = T.shape[1]
    w0, w1, w2, w3 = U.T
    r2 = w1 * w1 + w2 * w2
    P = np.column_stack([r2, w3 * w3, w0 * w3, w0 * w0]) @ T
    sure = np.abs(P) > _KAPPA * np.abs(T).sum(axis=0)
    V = np.column_stack([P, col_where(r2 > _AXIS_R2, r2, 0.0)])

    def exact(k, j):
        return _covering(*(v[j] for v in table), *U[k].T)

    if not sure.all():
        k, j = np.divmod(np.flatnonzero(~sure), m)
        V[k, j] = exact(k, j)

    def ends(k, i):
        v = V[k, i]
        on = i < m  # the axis column is exact already
        v[on] = exact(k[on], i[on])
        return v

    return V, ends


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


def _residual(w, A, B):
    """The distance of the unit w from the chord A v B; NaN (in floats a
    ZeroDivisionError) when B = A, a fixed point of sigma, spans no line."""
    return col_line_distance(col_join(A, B), w)


def _residuals(W, A, B):
    """_residual of aligned rows (n, 4): a single row in Python floats,
    unless its chord spans no line, and more on columns."""
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
        V, ends = _product_grid(profile, U)

        def covering(t, k):
            return _covering(*profile.coefficients(t), *U[k].T)

        owner, t = bracket_roots(covering, PROFILE_GRID, V, rtol=_ROOT_RTOL,
                                 ends=ends)
        # the chord at theta = 0 from the profile's own meridian map: sigma
        # is evaluated once, at (t, theta), by find_batch
        one = np.ones_like(t)
        return owner, t, _chord_azimuth(U[owner].T, (one, *meridian_point(t).T),
                                        (one, *profile.meridian_image(t).T))

    def _find_one(self, w, tol):
        """find_batch of one nonzero point w (four floats) on a profile
        star, by the batch's kernels in Python floats; None where the batch
        must answer: a grid zero, no sign change or more than one bracket of
        the covering function, or a chord that spans no line."""
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
        row scaled by a power of two first.  W that is not rows of four
        numbers raises InvalidInput, as does a zero or non-finite row, which
        the message names (the first of them).

        Returns one list of LineHits per point, best residual first.
        """
        try:
            W = np.atleast_2d(np.asarray(W, float))
        except (TypeError, ValueError):
            raise InvalidInput("the points must be rows of four numbers") from None
        if W.ndim != 2 or W.shape[1] != 4:
            raise InvalidInput("the points must be rows of four numbers, not "
                               f"an array of shape {W.shape}")
        W = pow2_scaled(W)
        if W.shape == (1, 4) and self.star.center is None:
            w = W[0].tolist()
            # a zero or non-finite row goes on to be refused below
            if any(w) and all(map(math.isfinite, w)):
                hits = self._find_one(w, tol)
                if hits is not None:
                    return [hits]
        norm = row_norm(W)
        # a scaled row's entries are below 1 in size: a finite nonzero row
        # has a norm in (0, 2], a zero row 0 and any other inf or NaN
        ok = (norm > 0.0) & (norm <= 2.0)
        if not ok.all():
            j = int(np.argmin(ok))
            raise InvalidInput(f"row {j} of the points is " + (
                "zero, which is no point of P^3" if norm[j] == 0.0
                else "not finite"))
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
        return self.find_batch([w], tol=tol)[0]
