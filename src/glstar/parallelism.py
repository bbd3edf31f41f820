"""Lifting a star through the Klein correspondence.

The sphere's ambient projective 3-space embeds isometrically into P^5:
pick a 4-dim subspace U of R^6 on which the Klein form g has signature
(3,1) and carry the sphere form onto g|U.  Star lines map to 2-secants of
K inside P(U); their polars within U form the line family H of 0-secants
of K that encodes the parallelism.  Each H-line h gives a parallel class,
and h is all a class holds: the 3-space W = polar_g(h) cuts K in an
elliptic quadric whose Klein preimage is a regular spread of P^3.  W needs
no check of its own: by Sylvester's law of inertia the g-polar of a
definite h has signature (3,3) - sig(h), which is elliptic.

The practical pivot: an H-line lies inside the tangent hyperplane of a
Klein point k exactly when the g-projection of k onto U falls in the span
of the corresponding embedded star chord.  Finding the parallel class of
a line is therefore the same search as finding the star line through a
point, which the gl-star property makes unique (the projection is never
interior: g(k,k) = 0 forces a nonnegative sphere-form value).

An H-line is closed form as well.  In U's coordinates (d1..d4) the polar
of a chord with ends a, b (under the sphere form) is the Euclidean
complement of span{a, b}, which is the column space of the dual Plücker
matrix of a v b: its first column of largest norm and that column's image
under the matrix span it (``projgeom.plucker_basis``).  Whether the line is
a 0-secant is read off the 2x2 Gram of g on it, whose eigenvalues are
closed form too.  Each closed form is one kernel on columns, so that one
chord or span, as a single query sends it, runs in Python floats with its
batch row's bits.

The spread line through a point p of P^3 is closed form: p v x is in the
class of h = span{h1, h2} when g(p v x, h_i) = 0, that is when x lies on
the planes pi_i = P*(h_i) p of the dual Plücker matrices P*.  Its Plücker
vector is the swapped join of pi_1 and pi_2, which are independent because
no vector of span h lies on K (P*(a h1 + b h2) p = 0 puts p on that line).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    DegenerateMeet,
    EvalError,
    HfdViolation,
    InvalidInput,
    NotZeroSecant,
    SearchFailed,
)
from .projgeom import (
    _RANK_RTOL,
    SIGNATURE_CUTOFF,
    HPoint,
    PLine,
    QuadricForm,
    Subspace,
    col_dot,
    col_join,
    col_line_distance,
    col_sqrt,
    col_where,
    join_batch,
    plucker_basis,
    plucker_matrix,
    polar,
    pow2_scaled,
    row_norm,
)
from .search import LINE_TOL, StarLineSearch
from .star import GlStar
from .verify import CheckReport, _one_line_each, _worst, check_sampling

_KLEIN = QuadricForm.klein()

# Columns d1..d6, a g-orthogonal basis with g-values (1,1,1,-1,-1,-1):
# d_i = e_i + e_{i+3} and d_{i+3} = e_i - e_{i+3} (+ 0.0: no signed zeros)
_D = np.block([[np.eye(3), np.eye(3)], [np.eye(3), -np.eye(3)]]) + 0.0
_D_INV = _D.T / 2.0  # columns are orthogonal of squared length 2
# the dual (swapped) Plücker vector: 2 g(k, l) = k . l[_SWAP]
_SWAP = [3, 4, 5, 0, 1, 2]


@dataclass(frozen=True)
class EmbeddedStar:
    """A star together with the canonical isometric embedding into P^5:
    sphere coordinates go to the span U of d1..d4, and C = span{d5, d6}
    is U's (0,2) complement."""

    star: GlStar
    U: ClassVar[Subspace] = Subspace(_D.T[:4] / np.sqrt(2.0))
    C: ClassVar[Subspace] = Subspace(_D.T[4:] / np.sqrt(2.0))

    def iso(self, w):
        """Sphere coordinates (w0, w1, w2, w3) -> R^6; batch-friendly."""
        w = np.asarray(w, float)
        d_coords = np.concatenate(
            [w[..., 1:4], w[..., :1], np.zeros(w.shape[:-1] + (2,))], axis=-1)
        return d_coords @ _D.T

    def project_sphere_coords(self, k):
        """g-orthogonal projection of Klein vectors onto U, expressed back
        in sphere coordinates (w0, w1, w2, w3)."""
        kd = np.asarray(k, float) @ _D_INV.T
        return np.concatenate([kd[..., 3:4], kd[..., 0:3]], axis=-1)


@dataclass(frozen=True)
class HfdLineSet:
    """The polar family H: one 0-secant of K per star line."""

    es: EmbeddedStar

    def span_at(self, t, theta=0.0):
        """Spanning pairs of H(t, theta) in R^6, shape (n, 2, 6)."""
        return self.polar(*self.es.star.chord(t, theta))

    def polar(self, A, B):
        """Spanning pairs in R^6, shape (n, 2, 6), of the H-lines of the
        star chords A v B given by their homogeneous endpoints, rows of
        shape (n, 4) or one (4,) pair: each chord's polar within U, as two
        orthogonal rows of norm sqrt(2) that are functions of the line
        (``_h_line``); one chord runs in Python floats, with its batch row's
        bits.  Each end is first scaled by a power of two (``pow2_scaled``),
        which moves no bit of the line, so that no product of the kernel
        overflows or underflows."""
        A, B = (pow2_scaled(X) for X in np.atleast_2d(A, B))
        one = A.shape[0] == 1
        try:
            if one:
                rows, sin2 = _h_line(A[0].tolist(), B[0].tolist())
                rank2 = sin2 > _RANK_RTOL * _RANK_RTOL
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    rows, sin2 = _h_line(A.T, B.T)
                rank2 = (sin2 > _RANK_RTOL * _RANK_RTOL).all()
        except ZeroDivisionError:  # a zero endpoint
            rank2 = False
        if not rank2:  # a non-finite endpoint fails the rank test too
            if not (np.isfinite(A).all() and np.isfinite(B).all()):
                raise EvalError("star chord with a non-finite endpoint")
            raise EvalError("star chord with coincident endpoints")
        if one:
            return np.array([rows])
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=1)

    def samples(self, n: int, seed: int = 0):
        """(n, 2, 6) spans at seeded random parameters."""
        rng = np.random.default_rng(seed)
        return self.span_at(rng.random(n), rng.uniform(0, 2 * np.pi, n))


@dataclass(frozen=True)
class ParallelClass:
    """A regular spread, held as its H-line h; W = polar(h) is derived."""

    h_span: np.ndarray  # (2, 6), orthonormal rows

    @property
    def W(self) -> Subspace:
        """The 3-space polar to h, whose Klein preimage is the spread."""
        return polar(Subspace(self.h_span), _KLEIN)

    def contains_klein(self, k, tol: float = 1e-7) -> bool:
        # the rows of 2 G h_span (G is half a permutation) are orthonormal
        # and span W's complement: 2 |h G k| is k's rejection from W
        k = np.asarray(k, float)
        return bool(2.0 * np.linalg.norm(self.h_span @ _KLEIN.matrix @ k)
                    <= tol * np.linalg.norm(k))

    def same_as(self, other: "ParallelClass", tol: float = 1e-7) -> bool:
        return Subspace(self.h_span).same_as(Subspace(other.h_span), tol=tol)


def _h_line(A, B):
    """The H-line of the star chord A v B, of columns (four for each end;
    out: two rows of six, and the squared sine of the ends' angle in U).
    In U's coordinates (d1..d4) the line is the Euclidean complement of
    span{a, b}, a and b the ends under the sphere form diag(1, 1, 1, -1):
    the column space of the dual Plücker matrix of a v b.  Its
    ``plucker_basis`` is carried into R^6 through _D, as two orthogonal rows
    of norm sqrt(2)."""
    a, b = ((X[1], X[2], X[3], 0.0 - X[0]) for X in (A, B))
    p = col_join(a, b)
    sin2 = col_dot(p, p) / (col_dot(a, a) * col_dot(b, b))
    rows = [(u[0] + u[3], u[1], u[2], u[0] - u[3], u[1], u[2])
            for u in plucker_basis([p[i] for i in _SWAP])]
    return rows, sin2


def _g(u, v):
    """The Klein form g(u, v) = u . v[_SWAP] / 2, of columns."""
    return 0.5 * col_dot(u, [v[i] for i in _SWAP])


def _ratio(s1, s2):
    """_secant_ratio of one span (s1, s2), of columns: with p, q, r the
    entries of g's Gram on the span, m = (p + r) / 2 and d = (p - r) / 2,
    the eigenvalue of larger magnitude is lam = m +- sqrt(d^2 + q^2) (the
    sign of m), and the ratio is the determinant over lam^2.  A span with
    p = q = r = 0 gives NaN (in floats a ZeroDivisionError)."""
    p, q, r = _g(s1, s1), _g(s1, s2), _g(s2, s2)
    m, d = 0.5 * (p + r), 0.5 * (p - r)
    root = col_sqrt(d * d + q * q)
    lam = m + col_where(m < 0.0, -root, root)
    return (p * r - q * q) / (lam * lam)


def _secant_ratio(spans) -> np.ndarray:
    """For each line of P^5 given as a (2, 6) span of stacked (n, 2, 6)
    spans: the ratio of the smaller to the larger |eigenvalue| of g on it,
    negative when the two differ in sign (``_ratio``, one span in Python
    floats with its batch row's bits).  The line is a 0-secant of K, g
    definite on it, exactly when the ratio exceeds SIGNATURE_CUTOFF.  A
    Klein point in the span gives a zero eigenvalue; a span of Klein points
    orthogonal under g gives two, and a NaN ratio."""
    S = np.asarray(spans, float)
    if S.shape[0] == 1:
        try:
            return np.array([_ratio(*S[0].tolist())])
        except ZeroDivisionError:
            pass
    with np.errstate(divide="ignore", invalid="ignore"):
        return _ratio(*S.transpose(1, 2, 0))


def class_from_hfd_line(h) -> ParallelClass:
    """Parallel class owned by a 0-secant h of K.  A Subspace is taken as it
    is, for its rows are orthonormal; an array of spanning rows (2, 6) is
    orthonormalized by Subspace.span first."""
    span = h.basis if isinstance(h, Subspace) else np.atleast_2d(np.asarray(h, float))
    if span.shape[-1] != 6:
        raise NotZeroSecant("expected a line of P^5 as a (2, 6) span")
    S = h if isinstance(h, Subspace) else Subspace.span(span)
    if S.rank != 2:
        raise NotZeroSecant("span does not describe a line of P^5")
    ratio = _secant_ratio(S.basis[None])[0]
    if not ratio > SIGNATURE_CUTOFF:
        raise NotZeroSecant(
            f"line meets the Klein quadric (eigenvalue ratio {ratio:.3g})")
    return ParallelClass(S.basis)


def spread_line_through(cls: ParallelClass, p) -> PLine:
    """The unique line of the spread through a point of P^3: the meet of
    the planes P*(h_i) p (see the module docstring).  p is first scaled by
    a power of two (``pow2_scaled``), so that neither a huge nor a tiny
    point overflows or underflows the planes' products."""
    pv = pow2_scaled(p.coords if isinstance(p, HPoint) else p)
    planes = plucker_matrix(cls.h_span[:, _SWAP]) @ pv
    k = join_batch(planes[0], planes[1])[_SWAP]
    if not np.linalg.norm(k) > 1e-12 * float(pv @ pv):  # h_span orthonormal
        raise DegenerateMeet(
            "the two planes of the spread line through p are dependent")
    return PLine(k)


@dataclass(frozen=True)
class Parallelism:
    """Embedded star, its H family, and the class-search machinery."""

    es: EmbeddedStar
    hfd: HfdLineSet
    search: StarLineSearch

    @property
    def star(self) -> GlStar:
        return self.es.star


def make_parallelism(star: GlStar) -> Parallelism:
    es = EmbeddedStar(star)
    return Parallelism(es=es, hfd=HfdLineSet(es), search=StarLineSearch(star))


def _finite(v, what: str) -> np.ndarray:
    v = np.asarray(v, float)
    if not np.all(np.isfinite(v)):
        raise InvalidInput(f"{what} has non-finite coordinates")
    return v


def _hits_for_lines(par: Parallelism, K, tol: float = LINE_TOL):
    """Search hits (per Klein vector row) for the star line whose H-member
    lies in each tangent hyperplane."""
    K = np.atleast_2d(np.asarray(K, float))
    W4 = par.es.project_sphere_coords(K)
    if np.any(row_norm(W4) < 1e-12 * row_norm(K)):
        raise SearchFailed("Klein vector projects to zero in the star 3-space")
    return par.search.find_batch(W4, tol=tol)


def parallel_class_of(par: Parallelism, L) -> ParallelClass:
    """Parallel class of a line of P^3: exactly one H-line sits inside the
    tangent hyperplane of its Klein point.  L's Plücker vector is first
    scaled by a power of two (``pow2_scaled``), which is exact."""
    k = pow2_scaled(_finite(L.p if isinstance(L, PLine) else L, "line"))
    hits = _hits_for_lines(par, k[None, :])[0]
    if len(hits) == 0:
        raise SearchFailed("no H-line found in the tangent hyperplane")
    if len(hits) > 1:
        raise HfdViolation(
            f"{len(hits)} H-lines found in one tangent hyperplane")
    # the polar's rows are orthogonal, each of norm sqrt(2)
    h = par.hfd.polar(hits[0].A, hits[0].B)[0]
    return class_from_hfd_line(Subspace(h / np.sqrt(2.0)))


def parallel_through(par: Parallelism, p, L) -> PLine:
    """The unique line parallel to L through p (L itself when p is on L).

    p is on L when its distance from L (``col_line_distance``) is below
    1e-9 |p|.  p and L's Plücker vector are first scaled by powers of two
    (``pow2_scaled``), which is exact, so that no product of their
    coordinates overflows or underflows, however large or small they are."""
    pv = pow2_scaled(_finite(p.coords if isinstance(p, HPoint) else p,
                             "point"))
    k = _finite(L.p if isinstance(L, PLine) else L, "line")
    L = L if isinstance(L, PLine) else PLine(k)
    k = pow2_scaled(k)
    if col_line_distance(k.tolist(), pv.tolist()) < 1e-9 * np.linalg.norm(pv):
        return L
    return spread_line_through(parallel_class_of(par, k), pv)


# ---------------------------------------------------------------------------
# Dimension and structure checks


def span_singular_values(hfd: HfdLineSet, n: int = 60, seed: int = 0):
    spans = hfd.samples(n, seed=seed).reshape(-1, 6)
    spans = spans / row_norm(spans)[:, None]
    return np.linalg.svd(spans, compute_uv=False)


def dim_parallelism(hfd: HfdLineSet, n: int = 60, seed: int = 0) -> int:
    """Projective dimension of the span of the H family, counting the
    singular values above 1e-8 times the largest."""
    if n < 10:
        raise InvalidInput("need at least 10 samples")
    check_sampling(seed=seed)
    s = span_singular_values(hfd, n=n, seed=seed)
    return int(np.sum(s > 1e-8 * s[0])) - 1


def check_zero_secants(hfd: HfdLineSet, n: int = 200, seed: int = 0) -> CheckReport:
    """Every sampled H-line must be a 0-secant of K by the rule that
    class_from_hfd_line applies: the least _secant_ratio (max_residual), a
    ratio of eigenvalues free of any norm, must exceed SIGNATURE_CUTOFF."""
    check_sampling(n, seed=seed)
    return _worst("zero_secants", _secant_ratio(hfd.samples(n, seed=seed)),
                  lambda r: r > SIGNATURE_CUTOFF, lambda i: (i,), n,
                  pick=np.argmin)


def check_hfd(par: Parallelism, n: int = 100, seed: int = 0,
              tol: float = LINE_TOL) -> CheckReport:
    """For random lines of P^3, the tangent hyperplane of the Klein point
    contains exactly one H-line (one star line through the projected
    point), to tol on the residual, relative to |w| as in check_coverage."""
    check_sampling(n, tol, seed)
    K = join_batch(*np.random.default_rng(seed).normal(size=(2, n, 4)))
    return _one_line_each("hfd", _hits_for_lines(par, K, tol=tol), K, n)


def torus_action(theta: float) -> np.ndarray:
    """The g-isometry that is the identity on U and rotates the (0,2)-
    complement C by theta, in Plücker coordinates."""
    R = np.eye(6)
    c, s = np.cos(theta), np.sin(theta)
    R[4:, 4:] = [[c, -s], [s, c]]
    return _D @ R @ _D_INV


def check_torus_fixes_classes(es: EmbeddedStar, n: int = 50,
                              n_theta: int = 16, seed: int = 0,
                              tol: float = 1e-9) -> CheckReport:
    """The circle acting on C is a g-isometry and fixes every H-line
    (hence every parallel class) setwise: tol bounds the rejection of each
    mapped unit row from its H-line's span, absolute on unit vectors."""
    check_sampling(min(n, n_theta), seed=seed)  # tol 0: report the worst
    S = HfdLineSet(es).samples(n, seed=seed)
    Q = S / row_norm(S)[..., None]
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    tau = np.stack([torus_action(theta) for theta in thetas])
    G = _KLEIN.matrix
    iso = np.abs(tau.transpose(0, 2, 1) @ G @ tau - G).max(axis=(1, 2))
    broken = np.nonzero(iso > 1e-12)[0]
    if broken.size:
        k = broken[0]
        return CheckReport("torus_fixes_classes", False, float(iso[k]),
                           (thetas[k],), n * n_theta)
    # mapped[k, i] = Q[i] tau_k^T, rejected from the row space of Q[i]
    mapped = Q @ tau.transpose(0, 2, 1)[:, None]
    rej = mapped - (mapped @ Q.transpose(0, 2, 1)) @ Q
    r = row_norm(rej).max(axis=-1)  # (n_theta, n)
    return _worst("torus_fixes_classes", r, lambda v: v < tol,
                  lambda j: (float(thetas[j // n]), j % n), n * n_theta)
