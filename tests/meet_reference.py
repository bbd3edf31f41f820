"""The stacked-SVD chord meet and the per-pair loop of check_no_exterior_meet,
kept as the reference for the closed-form kernel ``lines_meet_point`` and
the batched check that replaced them in the library."""

import numpy as np

from glstar.projgeom import (
    PLine,
    QuadricForm,
    Side,
    _nullspace_rows,
    join_batch,
    klein_form_batch,
    line_points,
    normalize,
    point_side,
)
from glstar.verify import CheckReport, _same_line

_SPHERE = QuadricForm.unit_sphere()


def svd_lines_meet_point(L1, L2, tol=1e-6):
    """Common point of two coplanar lines of P^3, or None if they are skew.

    Each line is a PLine (or Plücker vector) or a pair (A, B) of spanning
    points.  A point lies on both lines iff it is killed by the orthogonal
    complements of both spans; the smallest singular value of that stacked
    system measures how close the lines come to meeting.
    """
    def span(L):
        if isinstance(L, PLine) or np.asarray(L, float).ndim == 1:
            return np.vstack([pt.coords for pt in line_points(L)])
        return np.vstack(L)

    N1 = _nullspace_rows(span(L1))
    N2 = _nullspace_rows(span(L2))
    _, s, vt = np.linalg.svd(np.vstack([N1, N2]))
    if s[-1] > tol:
        return None
    return normalize(vt[-1])


def chord_meet_points(A1, B1, A2, B2, tol=1e-6):
    """svd_lines_meet_point row by row, in stacked SVDs: (W, found), with
    found False where the two lines miss each other."""
    def dual(A, B):
        _, s, vt = np.linalg.svd(np.stack([A, B], axis=1))
        return vt[:, 2:], s[:, 1] > 1e-10 * s[:, 0]

    N1, rank2_1 = dual(A1, B1)
    N2, rank2_2 = dual(A2, B2)
    _, s, vt = np.linalg.svd(np.concatenate([N1, N2], axis=1))
    W, found = vt[:, -1], s[:, -1] <= tol
    # a chord of two numerically equal points has a 3-dimensional dual
    for i in np.nonzero(~(rank2_1 & rank2_2))[0]:
        w = svd_lines_meet_point((A1[i], B1[i]), (A2[i], B2[i]), tol=tol)
        found[i] = w is not None
        if found[i]:
            W[i] = w.coords
    return W, found


def flagged_chords(star, n_pairs=5000, tol=1e-8, seed=0):
    """The sample of check_no_exterior_meet: (t, s, theta), the chords
    A1 B1 and A2 B2 of every pair and the indices of the Klein-flagged
    pairs that are not the same line."""
    rng = np.random.default_rng(seed)
    t = rng.random(n_pairs)
    s = rng.random(n_pairs)
    th = rng.uniform(0.0, 2.0 * np.pi, n_pairs)
    A1, B1 = star.chord(t, np.zeros(n_pairs))
    A2, B2 = star.chord(s, th)
    K1 = join_batch(A1, B1)
    K2 = join_batch(A2, B2)
    g = klein_form_batch(K1, K2)
    norms = np.linalg.norm(K1, axis=1) * np.linalg.norm(K2, axis=1)
    flagged = np.nonzero((norms > 1e-12) & (np.abs(g) <= tol * norms))[0]
    pairs = flagged[~_same_line(K1[flagged], K2[flagged])]
    return (t, s, th), (A1, B1, A2, B2), pairs


def _near_shared_endpoint(w, chord1, chord2, tol=1e-3):
    w = w / np.linalg.norm(w)

    def near(pts):
        d = []
        for p in pts:
            p = p / np.linalg.norm(p)
            c = abs(float(np.dot(w, p)))
            d.append(1.0 - min(c, 1.0))
        return min(d) < tol

    return near(chord1) and near(chord2)


def no_exterior_meet(star, n_pairs=5000, tol=1e-8, seed=0):
    """check_no_exterior_meet with the stacked SVDs and the per-pair loop."""
    (t, s, th), (A1, B1, A2, B2), pairs = flagged_chords(star, n_pairs, tol,
                                                         seed)
    W, found = chord_meet_points(A1[pairs], B1[pairs], A2[pairs], B2[pairs])
    pairs, W = pairs[found], W[found]
    interior = (np.sum(W @ _SPHERE.matrix * W, axis=1)
                / np.sum(W * W, axis=1)) < -1e-6
    worst = 0.0
    witness = None
    for i, w in zip(pairs[~interior], W[~interior]):
        side = point_side(w, _SPHERE, tol=1e-6)
        if side is Side.INTERIOR:
            continue
        if side is Side.ON and _near_shared_endpoint(w, (A1[i], B1[i]),
                                                     (A2[i], B2[i])):
            continue
        val = _SPHERE.value(w / np.linalg.norm(w))
        if val > worst:
            worst = val
            witness = (float(t[i]), float(s[i]), float(th[i]),
                       *np.asarray(normalize(w).coords))
    return CheckReport("no_exterior_meet", witness is None, float(worst),
                       witness, n_pairs)
