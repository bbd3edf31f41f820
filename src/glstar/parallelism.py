"""Lifting a star through the Klein correspondence.

The sphere's ambient projective 3-space embeds isometrically into P^5:
pick a 4-dim subspace U of R^6 on which the Klein form g has signature
(3,1) and carry the sphere form onto g|U.  Star lines map to 2-secants of
K inside P(U); their polars within U form the line family H of 0-secants
of K that encodes the parallelism.  Each H-line h gives a parallel class:
the 3-space W = polar_g(h) cuts K in an elliptic quadric whose Klein
preimage is a regular spread of P^3.

The practical pivot: an H-line lies inside the tangent hyperplane of a
Klein point k exactly when the g-projection of k onto U falls in the span
of the corresponding embedded star chord.  Finding the parallel class of
a line is therefore the same search as finding the star line through a
point, which the gl-star property makes unique (the projection is never
interior: g(k,k) = 0 forces a nonnegative sphere-form value).

The spread line through a point p of P^3 is closed form: p v x is in the
class of h = span{h1, h2} when g(p v x, h_i) = 0, that is when x lies on
the planes pi_i = P*(h_i) p of the dual Plücker matrices P*.  Its Plücker
vector is the swapped join of pi_1 and pi_2, which are independent because
no vector of span h lies on K (P*(a h1 + b h2) p = 0 puts p on that line).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    HPoint,
    PLine,
    QuadricForm,
    Subspace,
    _nullspace_rows,
    _orth_rows,
    join_batch,
    plucker_matrix,
    signature_on,
)
from .search import StarLineSearch
from .star import GlStar
from .verify import CheckReport, check_sampling

_KLEIN = QuadricForm.klein()

# Columns d1..d6, a g-orthogonal basis with g-values (1,1,1,-1,-1,-1):
# d_i = e_i + e_{i+3} and d_{i+3} = e_i - e_{i+3} (+ 0.0: no signed zeros)
_D = np.block([[np.eye(3), np.eye(3)], [np.eye(3), -np.eye(3)]]) + 0.0
_D_INV = _D.T / 2.0  # columns are orthogonal of squared length 2
_S4 = np.diag([1.0, 1.0, 1.0, -1.0])
# the dual (swapped) Plücker vector: 2 g(k, l) = k . l[_SWAP]
_SWAP = [3, 4, 5, 0, 1, 2]


@dataclass(frozen=True)
class EmbeddedStar:
    """A star together with the canonical isometric embedding into P^5."""

    star: GlStar
    basis: np.ndarray     # (6,6), columns d1..d6
    U: Subspace
    C: Subspace

    def iso(self, w):
        """Sphere coordinates (w0, w1, w2, w3) -> R^6; batch-friendly."""
        w = np.asarray(w, float)
        d_coords = np.concatenate(
            [w[..., 1:4], w[..., :1], np.zeros(w.shape[:-1] + (2,))], axis=-1)
        return d_coords @ self.basis.T

    def project_sphere_coords(self, k):
        """g-orthogonal projection of Klein vectors onto U, expressed back
        in sphere coordinates (w0, w1, w2, w3)."""
        kd = np.asarray(k, float) @ _D_INV.T
        return np.concatenate([kd[..., 3:4], kd[..., 0:3]], axis=-1)

    def chord_span_6d(self, t, theta=0.0):
        """Embedded star-line spans, shape (n, 2, 6)."""
        A, B = self.star.chord(t, theta)
        return np.stack([self.iso(A), self.iso(B)], axis=-2)


def embed_star(star: GlStar) -> EmbeddedStar:
    return EmbeddedStar(star=star, basis=_D, U=Subspace.span(_D.T[:4]),
                        C=Subspace.span(_D.T[4:]))


@dataclass(frozen=True)
class HfdLineSet:
    """The polar family H: one 0-secant of K per star line."""

    es: EmbeddedStar

    def span_at(self, t, theta=0.0):
        """Spanning pairs of H(t, theta) in R^6, shape (n, 2, 6)."""
        t = np.atleast_1d(np.asarray(t, float))
        th = np.broadcast_to(np.asarray(theta, float), t.shape)
        A, B = self.es.star.chord(t, th)
        # polar within U of span{A, B}: null directions of the 2x4 pairing,
        # the last two right singular vectors when the chord has rank 2
        d = [1, 2, 3, 0]
        _, s, vt = np.linalg.svd(np.stack([A[:, d] @ _S4, B[:, d] @ _S4],
                                          axis=1))
        if np.any(s[:, 1] <= 1e-10 * s[:, 0]):
            raise EvalError("star chord with coincident endpoints")
        ext = np.zeros((t.size, 2, 6))
        ext[:, :, :4] = vt[:, 2:]
        return ext @ _D.T

    def samples(self, n: int, seed: int = 0):
        """(n, 2, 6) spans at seeded random parameters."""
        rng = np.random.default_rng(seed)
        return self.span_at(rng.random(n), rng.uniform(0, 2 * np.pi, n))


def star_to_hfd(es: EmbeddedStar) -> HfdLineSet:
    return HfdLineSet(es=es)


@dataclass(frozen=True)
class ParallelClass:
    """A regular spread: the 3-space W = polar(h) and its line evaluator."""

    es: EmbeddedStar
    h_span: np.ndarray  # (2, 6), orthonormal rows
    W: Subspace

    def contains_klein(self, k, tol: float = 1e-7) -> bool:
        # the rows of 2 G h_span (G is half a permutation) are orthonormal
        # and span W's complement: 2 |h G k| is k's rejection from W
        k = np.asarray(k, float)
        return bool(2.0 * np.linalg.norm(self.h_span @ _KLEIN.matrix @ k)
                    <= tol * np.linalg.norm(k))

    def same_as(self, other: "ParallelClass", tol: float = 1e-7) -> bool:
        return self.W.same_as(other.W, tol=tol)


# Vector-space signatures whose null cone is an elliptic quadric.  U (the
# star's own 3-space) is (3,1); the spread 3-spaces, being polars of the
# definite H-lines, carry the opposite type (1,3) under the same sign
# convention for g.  Projectively both cut K in an elliptic subquadric.
ELLIPTIC_SIGNATURES = ((3, 1, 0), (1, 3, 0))


def class_from_hfd_line(es: EmbeddedStar, h) -> ParallelClass:
    """Parallel class owned by a 0-secant h of K (given by a (2,6) span)."""
    span = h.basis if isinstance(h, Subspace) else np.atleast_2d(np.asarray(h, float))
    if span.shape[-1] != 6:
        raise NotZeroSecant("expected a line of P^5 as a (2, 6) span")
    S = Subspace.span(span)
    if S.rank != 2:
        raise NotZeroSecant("span does not describe a line of P^5")
    # orthonormal bases for h and its polar: RREF entries up to 1e9 (next
    # to the axis) push an eigenvalue below the signature cutoff
    O = Subspace(_orth_rows(S.basis))
    sig = signature_on(_KLEIN, O)
    if sig not in ((2, 0, 0), (0, 2, 0)):
        raise NotZeroSecant(f"line meets the Klein quadric (signature {sig})")
    W = Subspace(_nullspace_rows(O.basis @ _KLEIN.matrix))
    if signature_on(_KLEIN, W) not in ELLIPTIC_SIGNATURES:
        raise NotZeroSecant("polar 3-space does not cut an elliptic quadric")
    return ParallelClass(es=es, h_span=O.basis, W=W)


def spread_line_through(cls: ParallelClass, p) -> PLine:
    """The unique line of the spread through a point of P^3: the meet of
    the planes P*(h_i) p (see the module docstring)."""
    pv = p.coords if isinstance(p, HPoint) else np.asarray(p, float)
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
    es = embed_star(star)
    return Parallelism(es=es, hfd=star_to_hfd(es), search=StarLineSearch(star))


def _finite(v, what: str) -> np.ndarray:
    v = np.asarray(v, float)
    if not np.all(np.isfinite(v)):
        raise InvalidInput(f"{what} has non-finite coordinates")
    return v


def _hits_for_lines(par: Parallelism, K, tol: float = 1e-8):
    """Search hits (per Klein vector row) for the star line whose H-member
    lies in each tangent hyperplane."""
    W4 = par.es.project_sphere_coords(np.atleast_2d(np.asarray(K, float)))
    norms = np.linalg.norm(W4, axis=-1)
    if np.any(norms < 1e-12 * np.linalg.norm(K)):
        raise SearchFailed("Klein vector projects to zero in the star 3-space")
    return par.search.find_batch(W4, tol=tol)


def parallel_class_of(par: Parallelism, L, tol: float = 1e-8) -> ParallelClass:
    """Parallel class of a line of P^3: exactly one H-line sits inside the
    tangent hyperplane of its Klein point."""
    k = _finite(L.p if isinstance(L, PLine) else L, "line")
    hits = _hits_for_lines(par, k[None, :], tol=tol)[0]
    if len(hits) == 0:
        raise SearchFailed("no H-line found in the tangent hyperplane")
    if len(hits) > 1:
        raise HfdViolation(
            f"{len(hits)} H-lines found in one tangent hyperplane")
    h = par.hfd.span_at(hits[0].t, hits[0].theta)[0]
    return class_from_hfd_line(par.es, h)


def parallel_through(par: Parallelism, p, L, tol: float = 1e-8) -> PLine:
    """The unique line parallel to L through p (L itself when p is on L).

    p is on L when |P*(L) p| < 1e-9 |p| for unit L: P*(L) kills L and is
    an isometry on its complement, so this is p's rejection from L."""
    pv = _finite(p.coords if isinstance(p, HPoint) else p, "point")
    k = _finite(L.p if isinstance(L, PLine) else L, "line")
    L = L if isinstance(L, PLine) else PLine(k)
    rej = plucker_matrix(k[_SWAP] / np.linalg.norm(k)) @ pv
    if np.linalg.norm(rej) < 1e-9 * np.linalg.norm(pv):
        return L
    cls = parallel_class_of(par, L, tol=tol)
    return spread_line_through(cls, pv)


# ---------------------------------------------------------------------------
# Dimension and structure checks


def span_singular_values(hfd: HfdLineSet, n: int = 60, seed: int = 0):
    spans = hfd.samples(n, seed=seed).reshape(-1, 6)
    spans = spans / np.linalg.norm(spans, axis=1, keepdims=True)
    return np.linalg.svd(spans, compute_uv=False)


def dim_parallelism(hfd: HfdLineSet, n: int = 60, seed: int = 0,
                    cutoff: float = 1e-8) -> int:
    """Projective dimension of the span of the H family."""
    if n < 10:
        raise InvalidInput("need at least 10 samples")
    s = span_singular_values(hfd, n=n, seed=seed)
    return int(np.sum(s > cutoff * s[0])) - 1


def check_zero_secants(hfd: HfdLineSet, n: int = 200, seed: int = 0) -> CheckReport:
    """Every sampled H-line must avoid K: the restricted form is definite,
    i.e. the restricted quadratic has negative discriminant."""
    check_sampling(n, seed=seed)
    S = hfd.samples(n, seed=seed)
    G = S @ _KLEIN.matrix @ S.transpose(0, 2, 1)
    # disc = g(A,B)^2 - g(A,A) g(B,B) < 0  <=>  det of the Gram > 0
    disc = G[:, 0, 1] ** 2 - G[:, 0, 0] * G[:, 1, 1]
    margin = -disc / np.maximum(np.abs(G).max(axis=(1, 2)) ** 2, 1e-300)
    i = int(np.argmin(margin))
    passed = margin[i] > 1e-12
    return CheckReport("zero_secants", bool(passed), float(margin[i]),
                       (i,) if not passed else None, n)


def check_hfd(par: Parallelism, n: int = 100, seed: int = 0,
              tol: float = 1e-8) -> CheckReport:
    """For random lines of P^3, the tangent hyperplane of the Klein point
    contains exactly one H-line (one star line through the projected
    point)."""
    check_sampling(n, tol, seed)
    K = join_batch(*np.random.default_rng(seed).normal(size=(2, n, 4)))
    hits = _hits_for_lines(par, K, tol=tol)
    counts = np.array([len(h) for h in hits])
    bad = np.nonzero(counts != 1)[0]
    res = max((h[0].residual for h in hits if h), default=0.0)
    if bad.size:
        i = int(bad[0])
        return CheckReport("hfd", False, float(counts[i]), tuple(K[i]), n)
    return CheckReport("hfd", True, float(res), None, n)


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
    (hence every parallel class) setwise."""
    check_sampling(min(n, n_theta), seed=seed)  # tol 0: report the worst
    S = star_to_hfd(es).samples(n, seed=seed)
    Q = S / np.linalg.norm(S, axis=2, keepdims=True)
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
    r = np.linalg.norm(rej, axis=-1).max(axis=-1)
    k, i = np.unravel_index(np.argmax(r), r.shape)
    passed = r[k, i] < tol
    return CheckReport("torus_fixes_classes", bool(passed), float(r[k, i]),
                       (float(thetas[k]), int(i)) if not passed else None,
                       n * n_theta)
