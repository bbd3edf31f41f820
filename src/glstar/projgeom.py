"""Homogeneous projective geometry over the reals.

Points of P^3 and P^5 are numpy vectors of homogeneous coordinates; the
first coordinate w0 is the homogenizing one, so the affine point (x, y, z)
is (1, x, y, z).  Lines of P^3 are Plücker 6-vectors in the order
(p01, p02, p03, p23, p31, p12).  Everything is 64-bit floating point with
a global default tolerance of 1e-9 at unit scale.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateJoin,
    InvalidInput,
    NotOnQuadric,
    NotTwoSecant,
    SingularForm,
)

DEFAULT_TOL = 1e-9

# Relative eigenvalue cutoff for signature computations.
SIGNATURE_CUTOFF = 1e-8


def _vec(x, name="vector"):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidInput(f"{name} must be one-dimensional, got shape {v.shape}")
    return v


def projective_distance(u, v) -> float:
    """1 - |cos(angle)| between the spans of u and v; 0 iff projectively equal."""
    u = np.asarray(u, float).ravel()
    v = np.asarray(v, float).ravel()
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise InvalidInput("projective distance of the zero vector")
    c = abs(float(np.dot(u, v))) / (nu * nv)
    return max(0.0, 1.0 - min(c, 1.0))


def projectively_equal(u, v, tol: float = DEFAULT_TOL) -> bool:
    return projective_distance(u, v) < tol


@dataclass(frozen=True)
class HPoint:
    """Homogeneous point of P^3 or P^5 (4 or 6 coordinates, not all zero)."""

    coords: np.ndarray

    def __post_init__(self):
        v = _vec(self.coords, "coords")
        if v.shape[0] not in (4, 6):
            raise InvalidInput(f"expected 4 or 6 coordinates, got {v.shape[0]}")
        if not np.any(v):
            raise InvalidInput("zero vector is not a projective point")
        v.setflags(write=False)
        object.__setattr__(self, "coords", v)

    @property
    def dim(self) -> int:
        """Projective dimension of the ambient space (3 or 5)."""
        return self.coords.shape[0] - 1

    def __eq__(self, other):
        if not isinstance(other, HPoint):
            return NotImplemented
        return projectively_equal(self.coords, other.coords)

    __hash__ = None


def affine_point(x, y=None, z=None) -> HPoint:
    """Homogenize an affine point of R^3 given as three scalars or one triple."""
    if y is None:
        x, y, z = np.asarray(x, float)
    return HPoint(np.array([1.0, x, y, z]))


def normalize(p) -> HPoint:
    """Scale so the largest-magnitude entry has modulus 1 and the first
    nonzero entry is positive.  Idempotent; projectively a no-op."""
    v = np.array(p.coords if isinstance(p, HPoint) else p, dtype=float)
    m = np.max(np.abs(v))
    if m == 0.0:
        raise InvalidInput("cannot normalize the zero vector")
    v /= m
    nz = np.nonzero(np.abs(v) > 1e-12)[0]
    if nz.size and v[nz[0]] < 0:
        v = -v
    return HPoint(v)


# ---------------------------------------------------------------------------
# Plücker lines of P^3

_PLUCKER_REL_TOL = 1e-8


@dataclass(frozen=True)
class PLine:
    """Line of P^3 by Plücker coordinates (p01, p02, p03, p23, p31, p12)."""

    p: np.ndarray

    def __post_init__(self):
        v = _vec(self.p, "Plücker vector")
        if v.shape[0] != 6:
            raise InvalidInput("Plücker vector must have 6 entries")
        n2 = float(np.dot(v, v))
        if n2 == 0.0:
            raise InvalidInput("zero Plücker vector")
        if abs(self.plucker_residual_of(v)) > _PLUCKER_REL_TOL * n2:
            raise InvalidInput("Plücker relation violated")
        v.setflags(write=False)
        object.__setattr__(self, "p", v)

    @staticmethod
    def plucker_residual_of(v) -> float:
        v = np.asarray(v, float)
        return float(v[0] * v[3] + v[1] * v[4] + v[2] * v[5])

    def __eq__(self, other):
        if not isinstance(other, PLine):
            return NotImplemented
        return projectively_equal(self.p, other.p)

    __hash__ = None


def _plucker(x) -> np.ndarray:
    if isinstance(x, PLine):
        return x.p
    return _vec(x)


def join(a, b, tol: float = DEFAULT_TOL) -> PLine:
    """Plücker line through two distinct points of P^3."""
    A = a.coords if isinstance(a, HPoint) else _vec(a)
    B = b.coords if isinstance(b, HPoint) else _vec(b)
    if A.shape[0] != 4 or B.shape[0] != 4:
        raise InvalidInput("join expects points of P^3")
    M = np.outer(A, B) - np.outer(B, A)
    p = np.array([M[0, 1], M[0, 2], M[0, 3], M[2, 3], M[3, 1], M[1, 2]])
    if np.linalg.norm(p) <= tol * np.linalg.norm(A) * np.linalg.norm(B):
        raise DegenerateJoin("join of projectively equal points")
    return PLine(p)


def join_batch(A, B):
    """Raw Plücker vectors for rows of A joined with rows of B, shape (n, 6)."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    return np.stack(
        [
            A[..., 0] * B[..., 1] - A[..., 1] * B[..., 0],
            A[..., 0] * B[..., 2] - A[..., 2] * B[..., 0],
            A[..., 0] * B[..., 3] - A[..., 3] * B[..., 0],
            A[..., 2] * B[..., 3] - A[..., 3] * B[..., 2],
            A[..., 3] * B[..., 1] - A[..., 1] * B[..., 3],
            A[..., 1] * B[..., 2] - A[..., 2] * B[..., 1],
        ],
        axis=-1,
    )


def _klein_matrix() -> np.ndarray:
    G = np.zeros((6, 6))
    for i in range(3):
        G[i, i + 3] = G[i + 3, i] = 0.5
    return G

_KLEIN_G = _klein_matrix()
_KLEIN_G.setflags(write=False)


def klein_form(k1, k2) -> float:
    """Symmetric bilinear pairing of two Klein 6-vectors.

    Vanishes on (k, k) exactly when k is the image of an actual line, and on
    (k1, k2) exactly when the two lines intersect.
    """
    v1 = _plucker(k1)
    v2 = _plucker(k2)
    return 0.5 * float(
        v1[0] * v2[3] + v1[3] * v2[0]
        + v1[1] * v2[4] + v1[4] * v2[1]
        + v1[2] * v2[5] + v1[5] * v2[2]
    )


def klein_form_batch(K1, K2):
    K1 = np.asarray(K1, float)
    K2 = np.asarray(K2, float)
    return 0.5 * (
        K1[..., 0] * K2[..., 3] + K1[..., 3] * K2[..., 0]
        + K1[..., 1] * K2[..., 4] + K1[..., 4] * K2[..., 1]
        + K1[..., 2] * K2[..., 5] + K1[..., 5] * K2[..., 2]
    )


def plucker_matrix(k) -> np.ndarray:
    """Antisymmetric 4x4 matrix whose column space is the line with Plücker
    coordinates k (for k on the Klein quadric)."""
    p01, p02, p03, p23, p31, p12 = _plucker(k)
    return np.array(
        [
            [0.0, p01, p02, p03],
            [-p01, 0.0, p12, -p31],
            [-p02, -p12, 0.0, p23],
            [-p03, p31, -p23, 0.0],
        ]
    )


def klein_lift(k, tol: float = DEFAULT_TOL):
    """Invert the Klein embedding: returns ``(line, (a, b))`` where a, b are
    two spanning points and joining them re-embeds to k projectively."""
    v = _plucker(k)
    n2 = float(np.dot(v, v))
    if n2 == 0.0:
        raise InvalidInput("zero Klein vector")
    if abs(2.0 * klein_form(v, v)) > max(tol, 1e-7) * n2:
        raise NotOnQuadric("vector is not on the Klein quadric")
    M = plucker_matrix(v)
    u, s, _ = np.linalg.svd(M)
    a = HPoint(u[:, 0])
    b = HPoint(u[:, 1])
    return join(a, b), (a, b)


def line_points(L) -> tuple[HPoint, HPoint]:
    """Two spanning points of a Plücker line."""
    _, pts = klein_lift(L, tol=1.0)
    return pts


# ---------------------------------------------------------------------------
# Linear subspaces in reduced row echelon normal form


def _rref(A, tol):
    A = np.array(A, dtype=float)
    if A.ndim != 2:
        raise InvalidInput("basis must be a 2-d array")
    scale = np.max(np.abs(A)) if A.size else 0.0
    if scale == 0.0:
        return A[:0]
    piv_tol = tol * scale
    nrows, ncols = A.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        i = r + int(np.argmax(np.abs(A[r:, c])))
        if abs(A[i, c]) <= piv_tol:
            continue
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = A[r] / A[r, c]
        for j in range(nrows):
            if j != r and A[j, c] != 0.0:
                A[j] = A[j] - A[j, c] * A[r]
        r += 1
    return A[:r]


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^4 or R^6, held as an RREF basis (rows)."""

    basis: np.ndarray
    ambient_dim: int = field(init=False)
    rank: int = field(init=False)

    def __post_init__(self):
        B = np.asarray(self.basis, float)
        if B.ndim != 2 or B.shape[1] not in (4, 6):
            raise InvalidInput("basis must be (k, 4) or (k, 6)")
        B = B.copy()
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)
        object.__setattr__(self, "ambient_dim", B.shape[1])
        object.__setattr__(self, "rank", B.shape[0])

    @classmethod
    def span(cls, vectors, tol: float = 1e-10) -> "Subspace":
        A = np.atleast_2d(np.asarray(vectors, float))
        return cls(_rref(A, tol))

    def contains(self, v, tol: float = DEFAULT_TOL) -> bool:
        v = np.asarray(v, float)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return True
        if self.rank == 0:
            return False
        Q = _orth_rows(self.basis)
        rej = v - Q.T @ (Q @ v)
        return float(np.linalg.norm(rej)) <= tol * nv

    def same_as(self, other: "Subspace", tol: float = 1e-8) -> bool:
        if self.ambient_dim != other.ambient_dim or self.rank != other.rank:
            return False
        if self.rank == 0:
            return True
        Q1 = _orth_rows(self.basis)
        Q2 = _orth_rows(other.basis)
        s = np.linalg.svd(Q1 @ Q2.T, compute_uv=False)
        return bool(np.all(s > 1.0 - tol))


def _orth_rows(B):
    """Orthonormal row basis of the row space of B."""
    _, s, vt = np.linalg.svd(B, full_matrices=False)
    if s.size == 0:
        return vt[:0]
    r = int(np.sum(s > max(B.shape) * np.finfo(float).eps * s[0]))
    return vt[:r]


def _nullspace_rows(A, rtol=1e-10):
    """Orthonormal basis (rows) of {x : A @ x = 0}."""
    A = np.atleast_2d(np.asarray(A, float))
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    if s.size == 0:
        return vt
    r = int(np.sum(s > rtol * s[0]))
    return vt[r:]


# ---------------------------------------------------------------------------
# Quadratic forms, polarities, signatures


@dataclass(frozen=True)
class QuadricForm:
    """Symmetric bilinear form on R^4 or R^6 with its eigenvalue signature."""

    matrix: np.ndarray
    signature: tuple[int, int, int] = field(init=False)

    def __post_init__(self):
        M = np.asarray(self.matrix, float)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] not in (4, 6):
            raise InvalidInput("form matrix must be 4x4 or 6x6")
        if not np.allclose(M, M.T, atol=1e-12 * max(1.0, np.abs(M).max())):
            raise InvalidInput("form matrix must be symmetric")
        M = 0.5 * (M + M.T)
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "signature", _eig_signature(np.linalg.eigvalsh(M)))

    @classmethod
    def unit_sphere(cls) -> "QuadricForm":
        """Polarity of the unit sphere x^2+y^2+z^2 = 1: diag(-1, 1, 1, 1)."""
        return cls(np.diag([-1.0, 1.0, 1.0, 1.0]))

    @classmethod
    def klein(cls) -> "QuadricForm":
        """The index-3 form of the Klein quadric in Plücker coordinates."""
        return cls(_KLEIN_G)

    def value(self, v) -> float:
        v = np.asarray(v, float)
        return float(v @ self.matrix @ v)

    def pairing(self, u, v) -> float:
        return float(np.asarray(u, float) @ self.matrix @ np.asarray(v, float))

    def is_degenerate(self, rtol: float = 1e-10) -> bool:
        s = np.linalg.svd(self.matrix, compute_uv=False)
        return bool(s[-1] <= rtol * s[0])


def _eig_signature(w, cutoff: float = SIGNATURE_CUTOFF) -> tuple[int, int, int]:
    w = np.asarray(w, float)
    if w.size == 0:
        return (0, 0, 0)
    thr = cutoff * np.max(np.abs(w)) if np.max(np.abs(w)) > 0 else 0.0
    pos = int(np.sum(w > thr))
    neg = int(np.sum(w < -thr))
    return (pos, neg, w.size - pos - neg)


def polar(S: Subspace, F: QuadricForm, tol: float = DEFAULT_TOL) -> Subspace:
    """Polar subspace {w : w^T F u = 0 for all u in S}.  An involution for
    nondegenerate F."""
    if F.is_degenerate():
        raise SingularForm("polar of a degenerate form")
    if S.rank == 0:
        raise InvalidInput("polar of the empty subspace")
    if S.ambient_dim != F.matrix.shape[0]:
        raise InvalidInput("subspace and form live in different dimensions")
    return Subspace.span(_nullspace_rows(S.basis @ F.matrix))


def meet(S1: Subspace, S2: Subspace) -> Subspace:
    """Intersection of two subspaces (rank 0 when they only share the origin)."""
    if S1.ambient_dim != S2.ambient_dim:
        raise InvalidInput("meet of subspaces of different ambient dimension")
    if S1.rank == 0 or S2.rank == 0:
        return Subspace(np.empty((0, S1.ambient_dim)))
    # x = B1^T a = B2^T b  <=>  [B1^T | -B2^T] (a, b) = 0
    M = np.hstack([S1.basis.T, -S2.basis.T])
    kern = _nullspace_rows(M)
    if kern.shape[0] == 0:
        return Subspace(np.empty((0, S1.ambient_dim)))
    xs = kern[:, : S1.rank] @ S1.basis
    keep = np.linalg.norm(xs, axis=1) > 1e-12
    if not np.any(keep):
        return Subspace(np.empty((0, S1.ambient_dim)))
    return Subspace.span(xs[keep])


def signature_on(F: QuadricForm, S: Subspace | None = None,
                 cutoff: float = SIGNATURE_CUTOFF) -> tuple[int, int, int]:
    """Signature (pos, neg, zero) of F restricted to S (whole space if None)."""
    if S is None:
        G = F.matrix
    else:
        if S.rank == 0:
            return (0, 0, 0)
        G = S.basis @ F.matrix @ S.basis.T
    return _eig_signature(np.linalg.eigvalsh(G), cutoff)


class Side(enum.Enum):
    INTERIOR = "interior"
    ON = "on"
    EXTERIOR = "exterior"


def point_side(p, F: QuadricForm, tol: float = DEFAULT_TOL) -> Side:
    """Classify a point against a quadric: sign of p^T F p, scale-free.

    For the unit-sphere form the affine point (x, y, z) is INTERIOR exactly
    when x^2 + y^2 + z^2 < 1.
    """
    v = p.coords if isinstance(p, HPoint) else _vec(p)
    n2 = float(np.dot(v, v))
    if n2 == 0.0:
        raise InvalidInput("zero vector has no side")
    val = F.value(v) / n2
    if val < -tol:
        return Side.INTERIOR
    if val > tol:
        return Side.EXTERIOR
    return Side.ON


def solve_quadratic(a: float, b: float, c: float):
    """Real roots of a*x^2 + 2*b*x + c = 0, larger-magnitude root first,
    computed cancellation-free via -(b + sign(b) sqrt(disc)) / a."""
    disc = b * b - a * c
    if disc < 0.0:
        return ()
    s = -(b + np.copysign(np.sqrt(disc), b))
    if a == 0.0:
        if s == 0.0:
            return ()
        return (c / s,)
    if s == 0.0:
        return (0.0, 0.0)
    return (s / a, c / s)


def line_sphere_intersect(L, F: QuadricForm, tol: float = DEFAULT_TOL) -> list[HPoint]:
    """Points of a line on the quadric of F: 0, 1 or 2 of them, which
    classifies the line as 0-secant, tangent, or 2-secant."""
    if isinstance(L, PLine) or (np.asarray(L, float).ndim == 1):
        A, B = (pt.coords for pt in line_points(L))
    else:
        A, B = (np.asarray(x, float) for x in L)
    A = A / np.linalg.norm(A)
    B = B / np.linalg.norm(B)
    a = F.value(A)
    b = F.pairing(A, B)
    c = F.value(B)
    scale = max(abs(a), abs(b), abs(c), 1e-300)
    disc = b * b - a * c
    if disc < -tol * scale * scale:
        return []
    if disc <= tol * scale * scale:
        if abs(a) <= tol * scale:
            return [normalize(A)]
        return [normalize((-b / a) * A + B)]
    if abs(a) <= tol * scale:
        # A itself lies on the quadric; the finite root gives the other point.
        return [normalize(A), normalize((-c / (2.0 * b)) * A + B)]
    roots = solve_quadratic(a, b, c)
    return [normalize(r * A + B) for r in roots]


def second_intersection(L, q, F: QuadricForm | None = None,
                        tol: float = DEFAULT_TOL) -> HPoint:
    """The other point in which a 2-secant through q meets the quadric."""
    F = F or QuadricForm.unit_sphere()
    qv = q.coords if isinstance(q, HPoint) else _vec(q)
    pts = line_sphere_intersect(L, F, tol=tol)
    if len(pts) != 2:
        raise NotTwoSecant(f"line meets the quadric in {len(pts)} point(s)")
    d = [projective_distance(pt.coords, qv) for pt in pts]
    if min(d) > 1e-6:
        raise InvalidInput("q does not lie on the given 2-secant")
    return pts[0] if d[0] > d[1] else pts[1]


def lines_meet_point(L1, L2, tol: float = 1e-6) -> HPoint | None:
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
