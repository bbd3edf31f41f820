"""Stars that break an axiom on purpose, shared by the tests that must see
each check fail."""

import numpy as np

from glstar.star import (
    GlStar,
    RotationalProfile,
    meridian_point,
    on_unit_sphere,
    rotate_z,
)


def apex_star(apex_height):
    """The chords through p_t and the axis point (0, 0, apex_height(t)),
    sigma and profile from the same meridian map (on the upper hemisphere,
    the part the search uses)."""
    def mer(t):
        p = meridian_point(np.atleast_1d(np.asarray(t, float)))
        apex = np.zeros_like(p)
        apex[:, 2] = apex_height(p[:, 2])
        d = apex - p
        lam = -2.0 * np.sum(p * d, axis=1) / np.sum(d * d, axis=1)
        return p + lam[:, None] * d

    @on_unit_sphere
    def sig(Q):
        return rotate_z(mer(Q[:, 2]), np.arctan2(Q[:, 1], Q[:, 0]))

    return GlStar("apex", sigma_fn=sig,
                  profile=RotationalProfile.from_meridian(mer))


def exterior_center_star():
    """Chords re-aimed at an exterior point: pairs of its lines meet there.
    Its sigma does not commute with rotations about Z."""
    c = np.array([1.5, 0.0, 0.0])

    def sig(q):
        q = np.atleast_2d(np.asarray(q, float))
        d = c[None, :] - q
        lam = 2.0 * (1.0 - q @ c) / np.sum(d * d, axis=1)
        out = q + lam[:, None] * d
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        return out if np.asarray(q).ndim > 1 else out[0]

    return GlStar("exterior-center", sig)
