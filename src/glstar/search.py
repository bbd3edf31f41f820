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
  the azimuth of the chord's point at the height of w (its direction at
  infinity when w is).  A star with no profile gets the profile fitted to
  its own meridian map t -> sigma(p_t), once sigma is seen to commute with
  rotations about Z; any other sigma raises SearchFailed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SearchFailed
from .functions import bracket_roots
from .projgeom import join_batch
from .star import GlStar, RotationalProfile, meridian_point, rotation_defect

_TWO_PI = 2.0 * np.pi

# The t grid of the covering function: its roots are refined to rounding
# level, so each line is as accurate as the profile it comes from.
_PROFILE_T = np.linspace(0.0, 1.0, 257)
_ROOT_RTOL = 1e-15

# Largest rotation defect (``rotation_defect``'s sample) of a sigma whose
# own meridian map stands in for a profile: check_rotational's bound.
_ROTATION_TOL = 1e-9


@dataclass(frozen=True)
class LineHit:
    """One located star line: parameters, residual, Plücker coordinates."""

    t: float
    theta: float
    residual: float
    k: np.ndarray  # (6,)


def _frames(A, B):
    """Orthonormal bases (U1, U2) of the spans of the rows of A and B.  The
    chord of a fixed point of sigma (B a multiple of A) spans no line: its
    U2, and so its residual, is NaN and it gives no hit."""
    U1 = A / np.linalg.norm(A, axis=-1, keepdims=True)
    Bp = B - np.sum(B * U1, axis=-1, keepdims=True) * U1
    with np.errstate(invalid="ignore", divide="ignore"):
        U2 = Bp / np.linalg.norm(Bp, axis=-1, keepdims=True)
    return U1, U2


def _reject(W, U1, U2):
    """Rejection of each unit w from the span of its frame; rows aligned."""
    W = W / np.linalg.norm(W, axis=-1, keepdims=True)
    rej = W - np.sum(W * U1, axis=-1, keepdims=True) * U1
    rej -= np.sum(rej * U2, axis=-1, keepdims=True) * U2
    return rej


def _covering(a, b, c, W):
    """The covering function of the rows of W at profile coefficients
    (a, b, c), over 1 + a^2: -w3^2 at the horizontal star a = b = c = 0."""
    a2 = a * a
    return (a2 * (W[..., 1] ** 2 + W[..., 2] ** 2)
            - (W[..., 3] - b * W[..., 0]) ** 2
            - (c * W[..., 0]) ** 2) / (1.0 + a2)


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


class StarLineSearch:
    """Star lines through points, by the path the star's structure allows."""

    def __init__(self, star: GlStar):
        self.star = star

    @cached_property
    def _profile(self):
        """The star's profile, else the one fitted to sigma's meridian map
        when sigma commutes with rotations about Z."""
        star = self.star
        if star.profile is not None:
            return star.profile
        if not np.all(rotation_defect(star.sigma)[2] < _ROTATION_TOL):
            raise SearchFailed(f"{star.label}: no centre, no profile and "
                               "sigma does not commute with rotations about Z")
        return RotationalProfile.from_meridian(
            lambda t: star.sigma(meridian_point(t)))

    @cached_property
    def _profile_table(self):
        """Profile coefficients (a, b, c) on _PROFILE_T but its last point,
        with the profile's t=0 entry at t=0."""
        profile = self._profile
        end = profile.entry_at(0.0)
        return tuple(np.concatenate([[v0], v]) for v0, v in zip(
            (end.a, end.b, end.c), profile.coefficients(_PROFILE_T[1:-1])))

    def _profile_params(self, W):
        """(owner, t, theta) of every root of every covering function."""
        W = W / np.linalg.norm(W, axis=-1, keepdims=True)
        # the axis (t=1, a -> inf) ends each covering function at w1^2 + w2^2;
        # below rounding w is on the axis, which no t short of 1 resolves
        r2 = W[:, 1] ** 2 + W[:, 2] ** 2
        V = np.column_stack([_covering(*self._profile_table, W[:, None, :]),
                             np.where(r2 > np.finfo(float).eps, r2, 0.0)])
        owner, t = bracket_roots(
            lambda t, k: _covering(*self._profile.coefficients(t), W[k]),
            _PROFILE_T, V, rtol=_ROOT_RTOL)
        A, B = self.star.chord(t)
        return owner, t, _chord_azimuths(W[owner], A, B)

    def _center_params(self, W):
        """(owner, t, theta) of the chord through w and the centre: its
        sphere point of larger height is R_theta p_t (t < 0 when both lie
        below z = 0, as for a centre below the equator)."""
        c = np.asarray(self.star.center, float)
        d = W[:, 1:] - W[:, :1] * c
        dd = np.sum(d * d, axis=1)
        cd = d @ c
        root = np.sqrt(cd * cd - dd * (c @ c - 1.0))
        s = (-cd + np.where(d[:, 2] > 0.0, root, -root)) / dd
        q = c + s[:, None] * d
        return (np.arange(W.shape[0]), q[:, 2],
                np.mod(np.arctan2(q[:, 1], q[:, 0]), _TWO_PI))

    # -- public API ----------------------------------------------------------

    def find_batch(self, W, tol: float = 1e-8):
        """All star lines through each homogeneous point (rows of W).

        Returns one list of LineHits per point, best residual first.
        """
        W = np.atleast_2d(np.asarray(W, float))
        if self.star.center is not None:
            owner, t, theta = self._center_params(W)
        else:
            owner, t, theta = self._profile_params(W)
        A, B = self.star.chord(t, theta)
        res = np.linalg.norm(_reject(W[owner], *_frames(A, B)), axis=-1)
        K = join_batch(A, B)
        out = [[] for _ in range(W.shape[0])]
        for j in sorted(np.nonzero(res < tol)[0], key=res.__getitem__):
            out[owner[j]].append(LineHit(float(t[j]), float(theta[j]),
                                         float(res[j]), K[j]))
        return out

    def find(self, w, tol: float = 1e-8):
        return self.find_batch(np.asarray(w, float)[None, :], tol=tol)[0]

