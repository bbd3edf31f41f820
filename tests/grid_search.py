"""A 2-d star-line search over (t, theta) in [0,1] x [0,2pi) from sigma
alone: a coarse grid, a local zoom around each grid minimum, a
finite-difference Newton polish, then clustering of hits that name the same
line (the parameter chart is degenerate along t=0, where theta and
theta+pi give one line, and t=1, where every theta gives the axis).

It knows nothing of the star's profile or centre, so tests/test_search.py
checks the exact paths of ``glstar.search`` against it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from glstar.projgeom import col_dot, col_sqrt, join_batch, projective_distance
from glstar.search import LineHit

_TWO_PI = 2.0 * np.pi

# Coarse grid over (t, theta) and the two Newton probe vectors of the 2-d
# search.
_GRID_T = 64
_GRID_THETA = 64
_PROBE = np.random.default_rng(0).normal(size=(2, 4))
_PROBE /= np.linalg.norm(_PROBE, axis=1, keepdims=True)


def _unit(u):
    """u over its norm, of columns."""
    n = col_sqrt(col_dot(u, u))
    return [a / n for a in u]


def rejection(w, A, B):
    """The rejection of the unit w (four columns) from the span of A and B,
    by the frame U1 = A / |A| and U2, the unit part of B orthogonal to U1:
    the Gram-Schmidt reference of ``projgeom.col_line_distance``, which is
    its norm.  B a multiple of A spans no line: its U2, and so its
    rejection, is NaN (in floats a ZeroDivisionError)."""
    U1 = _unit(A)
    d = col_dot(B, U1)
    U2 = _unit([b - d * u for b, u in zip(B, U1)])
    d = col_dot(w, U1)
    rej = [x - d * u for x, u in zip(w, U1)]
    d = col_dot(rej, U2)
    return [r - d * u for r, u in zip(rej, U2)]


class GridSearch:
    """Star lines through points by the 2-d root hunt, from sigma alone."""

    def __init__(self, star):
        self.star = star

    # -- 2-d search for a star with no structure ------------------------------

    @cached_property
    def _coarse_grid(self):
        """(t, theta) axes of the coarse grid and the rejection matrices
        R of its chords, entry (i, j) of each in row 4 i + j: the rejection
        of a unit w from a chord's span is R w, so its squared norm is
        w^T R w (R is the orthogonal projector onto the span's
        complement)."""
        ts = np.linspace(0.0, 1.0, _GRID_T)
        ths = np.linspace(0.0, _TWO_PI, _GRID_THETA, endpoint=False)
        T, TH = np.meshgrid(ts, ths, indexing="ij")
        A, B = self.star.chord(T.ravel(), TH.ravel())
        with np.errstate(divide="ignore", invalid="ignore"):
            R = [rejection(e, A.T, B.T) for e in np.eye(4).tolist()]
        return ts, ths, np.array(R).reshape(16, -1)

    def _rejections(self, W, t, theta):
        """Rejection of each w / |w| from its chord span; W, t, theta
        aligned."""
        A, B = self.star.chord(t, theta)
        W = W / np.linalg.norm(W, axis=-1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.stack(rejection(W.T, A.T, B.T), axis=-1)

    def residual_at(self, W, t, theta):
        return np.linalg.norm(self._rejections(W, t, theta), axis=-1)

    def coarse_residuals(self, W):
        """Residual of each w against the whole grid, shape
        (m, _GRID_T * _GRID_THETA)."""
        _, _, R = self._coarse_grid
        W = np.atleast_2d(np.asarray(W, float))
        W = W / np.linalg.norm(W, axis=-1, keepdims=True)
        r2 = (W[:, :, None] * W[:, None, :]).reshape(-1, 16) @ R
        return np.sqrt(np.clip(r2, 0.0, None))

    # -- candidate extraction -------------------------------------------------

    def _grid_minima(self, r, coarse_cut=0.35, cap=48):
        """Indices of local minima (theta wraps, t clamps) below the cut.

        The t=1 row is a single line (the axis) however theta runs, so its
        minima collapse to one candidate; the rows just below it are seeded
        unconditionally because that plateau can shadow the basin of
        near-polar solutions.
        """
        R = r.reshape(_GRID_T, _GRID_THETA)
        up = np.roll(R, -1, axis=1)
        dn = np.roll(R, 1, axis=1)
        le = np.vstack([R[:1], R[:-1]])
        ri = np.vstack([R[1:], R[-1:]])
        is_min = (R <= up) & (R <= dn) & (R <= le) & (R <= ri) & (R < coarse_cut)
        idx = np.argwhere(is_min)
        last = _GRID_T - 1
        on_plateau = idx[:, 0] == last
        if np.any(on_plateau):
            keep = idx[~on_plateau]
            best = idx[on_plateau][np.argmin(R[last, idx[on_plateau, 1]])]
            idx = np.vstack([keep, best[None, :]]) if keep.size else best[None, :]
        seeds = [(row, int(np.argmin(R[row]))) for row in (last - 1, last - 2)]
        idx = np.vstack([idx] + [np.array([s]) for s in seeds])
        if idx.shape[0] == 0:
            idx = np.array([np.unravel_index(np.argmin(R), R.shape)])
        if idx.shape[0] > cap:
            vals = R[idx[:, 0], idx[:, 1]]
            idx = idx[np.argsort(vals)[:cap]]
        return idx

    # -- refinement -----------------------------------------------------------

    def _zoom(self, W, t, theta, h_t, h_th, rounds=4, side=5):
        """Shrinking local grid descent, batched over candidates."""
        offs = np.linspace(-1.0, 1.0, side)
        for _ in range(rounds):
            # sweep t then theta with a small cross pattern
            tt = np.clip(t[:, None] + h_t[:, None] * offs[None, :], 0.0, 1.0)
            Wt = np.repeat(W, side, axis=0)
            rt = self.residual_at(Wt, tt.ravel(),
                                  np.repeat(theta, side)).reshape(-1, side)
            best_t = tt[np.arange(t.size), np.argmin(rt, axis=1)]
            th = theta[:, None] + h_th[:, None] * offs[None, :]
            rth = self.residual_at(Wt, np.repeat(best_t, side),
                                   th.ravel()).reshape(-1, side)
            theta = th[np.arange(t.size), np.argmin(rth, axis=1)]
            t = best_t
            h_t = h_t / (side - 1.5)
            h_th = h_th / (side - 1.5)
        return t, theta

    def _newton(self, W, t, theta, iters=14, fd=1e-7):
        """Finite-difference Gauss-Newton on a 2-vector probe residual,
        guarded: only the best iterate per candidate survives (profiles with
        piecewise-linear ingredients have derivative kinks that can throw a
        raw Newton step out of the basin)."""
        r1, r2 = _PROBE
        W5 = np.tile(W, (5, 1))

        def F(tt, th):
            """Probe residuals at the centre and the four stencil points,
            all in one evaluation of the star."""
            tt = np.concatenate([tt, tt + fd, tt - fd, tt, tt])
            th = np.concatenate([th, th, th, th + fd, th - fd])
            rej = self._rejections(W5, np.clip(tt, 0.0, 1.0), th)
            return np.stack([rej @ r1, rej @ r2], axis=-1).reshape(5, -1, 2)

        best_t = t.copy()
        best_th = theta.copy()
        best_r = self.residual_at(W, t, theta)
        step_cap = 0.1
        for _ in range(iters):
            f0, ft_hi, ft_lo, fh_hi, fh_lo = F(t, theta)
            Jt = (ft_hi - ft_lo) / (2 * fd)
            Jh = (fh_hi - fh_lo) / (2 * fd)
            # solve (J^T J + eps I) d = -J^T f, 2x2 closed form
            a = Jt[:, 0] ** 2 + Jt[:, 1] ** 2
            b = Jt[:, 0] * Jh[:, 0] + Jt[:, 1] * Jh[:, 1]
            c = Jh[:, 0] ** 2 + Jh[:, 1] ** 2
            eps = 1e-12 * (a + c) + 1e-300
            g1 = -(Jt[:, 0] * f0[:, 0] + Jt[:, 1] * f0[:, 1])
            g2 = -(Jh[:, 0] * f0[:, 0] + Jh[:, 1] * f0[:, 1])
            det = (a + eps) * (c + eps) - b * b
            dt = ((c + eps) * g1 - b * g2) / det
            dh = ((a + eps) * g2 - b * g1) / det
            dt = np.clip(dt, -step_cap, step_cap)
            dh = np.clip(dh, -step_cap, step_cap)
            t = np.clip(t + dt, 0.0, 1.0)
            theta = theta + dh
            r = self.residual_at(W, t, theta)
            better = r < best_r
            best_t = np.where(better, t, best_t)
            best_th = np.where(better, theta, best_th)
            best_r = np.where(better, r, best_r)
        return best_t, best_th, best_r

    def _zoom2d(self, W, t, theta, h_t, h_th, rounds=12, side=9,
                shrink=2.2):
        """Shrinking full 2-d box scan: slower than the cross pattern but
        immune to diagonal valleys and cusp curves (completed parabola
        profiles twist like sqrt near a junction, leaving basins far below
        the coarse grid resolution)."""
        offs = np.linspace(-1.0, 1.0, side)
        n = t.size
        pick = np.arange(n)
        for _ in range(rounds):
            tt = np.clip(t[:, None, None] + h_t[:, None, None]
                         * offs[None, :, None], 0.0, 1.0)
            th = theta[:, None, None] + h_th[:, None, None] \
                * offs[None, None, :]
            TT = np.broadcast_to(tt, (n, side, side)).reshape(n, -1)
            TH = np.broadcast_to(th, (n, side, side)).reshape(n, -1)
            Wr = np.repeat(W, side * side, axis=0)
            rr = self.residual_at(Wr, TT.ravel(), TH.ravel()).reshape(n, -1)
            k = np.argmin(rr, axis=1)
            t = TT[pick, k]
            theta = TH[pick, k]
            h_t = h_t / shrink
            h_th = h_th / shrink
        return t, theta

    def _rescue_starts(self, W, t, theta, h_t, h_th, k, side=31):
        """Medium-resolution box rescan around stalled candidates; returns
        the k best cells of each box as fresh starting points."""
        offs = np.linspace(-1.0, 1.0, side)
        n = t.size
        tt = np.clip(t[:, None, None] + h_t[:, None, None]
                     * offs[None, :, None], 0.0, 1.0)
        th = theta[:, None, None] + h_th[:, None, None] * offs[None, None, :]
        TT = np.broadcast_to(tt, (n, side, side)).reshape(n, -1)
        TH = np.broadcast_to(th, (n, side, side)).reshape(n, -1)
        rr = self.residual_at(np.repeat(W, side * side, axis=0),
                              TT.ravel(), TH.ravel()).reshape(n, -1)
        best = np.argpartition(rr, k, axis=1)[:, :k]
        rows = np.arange(n)[:, None]
        return TT[rows, best], TH[rows, best]

    def _refine(self, W, t, theta, h_t, h_th, tol):
        """Zoom + guarded Newton, then a heavier rescue for stragglers.

        A single descent can be captured by the shallow false valley that
        hugs a profile cusp; the rescue therefore restarts from several
        independent cells of a generous box and keeps the overall best.
        """
        t, theta = self._zoom(W, t, theta, h_t, h_th)
        t, theta, r = self._newton(W, t, theta)
        # candidates stuck just above tol are plausibly captured escapes
        # from a missed basin; ones far above sit at genuine nonzero minima
        bad = np.nonzero((r >= tol) & (r < 0.15))[0]
        if bad.size:
            k = 5
            tb, thb = self._rescue_starts(W[bad], t[bad], theta[bad],
                                          4.0 * h_t[bad], 4.0 * h_th[bad], k)
            Wb = np.repeat(W[bad], k, axis=0)
            h0 = np.repeat(0.6 * h_t[bad], k)
            h1 = np.repeat(0.6 * h_th[bad], k)
            tf, thf = self._zoom2d(Wb, tb.ravel(), thb.ravel(), h0, h1)
            tf, thf, rf = self._newton(Wb, tf, thf, fd=1e-9)
            rf = rf.reshape(-1, k)
            pick = np.argmin(rf, axis=1)
            rows = np.arange(bad.size)
            rb = rf[rows, pick]
            tb = tf.reshape(-1, k)[rows, pick]
            thb = thf.reshape(-1, k)[rows, pick]
            improved = rb < r[bad]
            sel = bad[improved]
            t[sel] = tb[improved]
            theta[sel] = thb[improved]
            r[sel] = rb[improved]
        return t, theta, r

    def _grid_search(self, W, tol):
        """Clustered hits per point from grid minima, refined."""
        ts, ths, _ = self._coarse_grid
        R = self.coarse_residuals(W)
        owners = []
        cand_t = []
        cand_th = []
        for i in range(W.shape[0]):
            idx = self._grid_minima(R[i])
            owners.extend([i] * idx.shape[0])
            cand_t.extend(ts[idx[:, 0]])
            cand_th.extend(ths[idx[:, 1]])
        owners = np.asarray(owners)
        t = np.asarray(cand_t)
        theta = np.asarray(cand_th)
        Wc = W[owners]
        h_t = np.full_like(t, 1.5 / (_GRID_T - 1))
        h_th = np.full_like(theta, 1.5 * _TWO_PI / _GRID_THETA)
        t, theta, res = self._refine(Wc, t, theta, h_t, h_th, tol)
        theta = np.mod(theta, _TWO_PI)
        A, B = self.star.chord(t, theta)
        out = [[] for _ in range(W.shape[0])]
        for i in range(W.shape[0]):
            sel = np.nonzero((owners == i) & (res < tol))[0]
            hits = [LineHit(float(t[j]), float(theta[j]), float(res[j]),
                            A[j], B[j]) for j in sel]
            out[i] = _cluster(hits)
        return out

    def find_batch(self, W, tol: float = 1e-8):
        """All star lines through each homogeneous point (rows of W), one
        list of LineHits per point, best residual first."""
        return self._grid_search(np.atleast_2d(np.asarray(W, float)), tol)


def _param_close(h1: LineHit, h2: LineHit, radius: float = 0.05) -> bool:
    dth = abs(h1.theta - h2.theta) % _TWO_PI
    dth = min(dth, _TWO_PI - dth)
    return np.hypot(h1.t - h2.t, dth) < radius


def _cluster(hits, line_tol: float = 1e-6):
    """Merge hits that are the same line (or adjacent in parameters);
    keep the best representative of each cluster."""
    n = len(hits)
    K = [join_batch(h.A, h.B) for h in hits]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            same_line = projective_distance(K[i], K[j]) < line_tol
            if same_line or _param_close(hits[i], hits[j]):
                parent[find(i)] = find(j)
    reps = {}
    for i in range(n):
        r = find(i)
        if r not in reps or hits[i].residual < reps[r].residual:
            reps[r] = hits[i]
    return sorted(reps.values(), key=lambda h: h.residual)
