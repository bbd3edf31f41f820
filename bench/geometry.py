"""The benchmark's own geometry, written apart from glstar, for checking its
outputs: Plücker coordinates, the Klein form, quaternions and the
closed-form Clifford parallel, H-line definiteness and surface fits.

Plücker order is glstar's documented (p01, p02, p03, p23, p31, p12); sphere
points are homogeneous (w0, x, y, z).
"""

from __future__ import annotations

import numpy as np

# Klein form: g(k, l) = (k0 l3 + k3 l0 + k1 l4 + k4 l1 + k2 l5 + k5 l2) / 2.
KLEIN = np.zeros((6, 6))
for _i in range(3):
    KLEIN[_i, _i + 3] = KLEIN[_i + 3, _i] = 0.5

# Columns d1..d6 with g(d_i, d_i) = (1, 1, 1, -1, -1, -1) * 2: d_i = e_i +
# e_{i+3} and d_{i+3} = e_i - e_{i+3}.  The star's 3-space U is spanned by
# d1..d4, identified with sphere coordinates (x, y, z, w0).
DERIVED = np.zeros((6, 6))
for _i in range(3):
    DERIVED[_i, _i] = DERIVED[_i + 3, _i] = DERIVED[_i, _i + 3] = 1.0
    DERIVED[_i + 3, _i + 3] = -1.0


def plucker(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return np.array([a[0] * b[1] - a[1] * b[0], a[0] * b[2] - a[2] * b[0],
                     a[0] * b[3] - a[3] * b[0], a[2] * b[3] - a[3] * b[2],
                     a[3] * b[1] - a[1] * b[3], a[1] * b[2] - a[2] * b[1]])


def klein(k, l):
    return float(np.asarray(k, float) @ KLEIN @ np.asarray(l, float))


def unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def line_distance(k, l):
    """Projective distance of two Plücker vectors: 0 for the same line."""
    k, l = unit(k), unit(l)
    return float(np.linalg.norm(l - (l @ k) * k))


def line_points(k):
    """Two points spanning the line with Plücker vector k: the column space
    of its antisymmetric 4x4 matrix."""
    p01, p02, p03, p23, p31, p12 = k
    M = np.array([[0.0, p01, p02, p03], [-p01, 0.0, p12, -p31],
                  [-p02, -p12, 0.0, p23], [-p03, p31, -p23, 0.0]])
    u, _, _ = np.linalg.svd(M)
    return u[:, 0], u[:, 1]


def point_off_line(p, k):
    """Distance of the point p from the line k, relative to |p|."""
    a, b = line_points(k)
    S = np.vstack([a, b])
    rej = p - S.T @ np.linalg.lstsq(S.T, p, rcond=None)[0]
    return float(np.linalg.norm(rej) / np.linalg.norm(p))


def qmul(a, b):
    """Quaternion product; real part first."""
    return np.concatenate([[a[0] * b[0] - a[1:] @ b[1:]],
                           a[0] * b[1:] + b[0] * a[1:]
                           + np.cross(a[1:], b[1:])])


def qinv(a):
    return np.concatenate([[a[0]], -a[1:]]) / float(a @ a)


def clifford_parallel(p, k):
    """Left-quaternion Clifford parallel to the line k through p, with the
    real part as w0: span{p, u p}, u the unit imaginary part of b a^-1 for
    k = a v b."""
    a, b = line_points(k)
    v = qmul(b, qinv(a))[1:]
    u = np.concatenate([[0.0], unit(v)])
    return plucker(p, qmul(u, p))


def rotate_meridian(t, theta):
    """R_theta p_t with p_t = (sqrt(1 - t^2), 0, t)."""
    t = np.asarray(t, float)
    x = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    return np.stack([x * np.cos(theta), x * np.sin(theta), t], axis=-1)


def rotate_z(v, theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([c * v[..., 0] - s * v[..., 1],
                     s * v[..., 0] + c * v[..., 1], v[..., 2] + 0.0 * c],
                    axis=-1)


def definite_margin(span):
    """Smallest |eigenvalue| of the Klein form on an orthonormalized 2-span,
    signed negative when the form is indefinite or degenerate there."""
    Q, _ = np.linalg.qr(np.asarray(span, float).T)
    w = np.linalg.eigvalsh(Q.T @ KLEIN @ Q)
    smallest = float(np.min(np.abs(w)))
    return smallest if w[0] * w[1] > 0 else -smallest


def fit_revolution(verts):
    """Fit r^2 = alpha z^2 + beta z + gamma, i.e. a^2 r^2 = (z-b)^2 + c^2 with
    alpha = 1/a^2, b = -beta/(2 alpha), c^2 = gamma/alpha - b^2.  Returns
    (a, b, c2, worst relative residual)."""
    r2 = verts[:, 0] ** 2 + verts[:, 1] ** 2
    z = verts[:, 2]
    M = np.stack([z * z, z, np.ones_like(z)], axis=1)
    (alpha, beta, gamma), *_ = np.linalg.lstsq(M, r2, rcond=None)
    res = np.abs(M @ np.array([alpha, beta, gamma]) - r2) / max(1.0, r2.max())
    b = -beta / (2.0 * alpha)
    return 1.0 / np.sqrt(alpha), b, gamma / alpha - b * b, float(res.max())


def embed(w):
    """Sphere coordinates (w0, x, y, z) into U: x d1 + y d2 + z d3 + w0 d4."""
    return DERIVED @ np.array([w[1], w[2], w[3], w[0], 0.0, 0.0])
