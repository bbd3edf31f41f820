"""Homogeneous projective geometry over the reals.

Points of P^3 and P^5 are numpy vectors of homogeneous coordinates; the
first coordinate w0 is the homogenizing one, so the affine point (x, y, z)
is (1, x, y, z).  Lines of P^3 are Plücker 6-vectors in the order
(p01, p02, p03, p23, p31, p12).  Everything is 64-bit floating point with
a global default tolerance of 1e-9 at unit scale.
"""

from __future__ import annotations

import enum
import functools
import math
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

# Relative singular-value cutoff of spans, null spaces and degenerate forms.
_RANK_RTOL = 1e-10

# lines_meet_point's bound on sqrt(1 - cos) of the smaller principal angle.
_MEET_TOL = 1e-6


def _vec(x, name="vector"):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidInput(f"{name} must be one-dimensional, got shape {v.shape}")
    return v


def _pow2_exponent(v):
    """The e with the largest |entry| of v in [2^(e-1), 2^e), 0 for a zero
    vector."""
    return math.frexp(max(map(abs, v.ravel().tolist())))[1]


def pow2_scaled(v):
    """v scaled by a power of two to a largest |entry| in [1/2, 1), each row
    of a 2-d v by its own (a zero row is kept): exact, unless an entry falls
    below the normal range, and no product of two entries overflows."""
    v = np.asarray(v, float)
    if v.ndim == 1 or v.shape[0] == 1:
        return np.ldexp(v, -_pow2_exponent(v))
    # np.max over the last axis, column by column: numpy's reduce over a
    # short last axis costs some 4x as much, and a maximum is exact
    a = np.abs(v)
    top = functools.reduce(np.maximum, (a[..., i] for i in range(a.shape[-1])))
    return np.ldexp(v, -np.frexp(top)[1][..., None])


def row_dot(A, B):
    """Sum of A * B over the last axis, for A and B of one shape whose last
    axis holds 1 to 7 entries: np.sum(A * B, axis=-1) bit for bit, without
    the fixed cost numpy pays per row.  numpy sums fewer than 8 entries of a
    row in order, from +0.0 (from 8 on it sums pairwise).  Here the products
    are laid out entry by entry, leading axes reversed, and one reduce over
    that outer axis adds them in the same order, from the same +0.0."""
    A, B = np.asarray(A), np.asarray(B)
    if A.shape != B.shape or A.ndim == 0 or not 0 < A.shape[-1] < 8:
        raise InvalidInput(f"row_dot needs two arrays of one shape with 1 to "
                           f"7 entries per row, got {A.shape} and {B.shape}")
    return np.add.reduce(np.multiply(A.T, B.T, order="C"), axis=0).T


def row_norm(A):
    """Euclidean norm over the last axis (1 to 7 entries), bit for bit
    np.linalg.norm(A, axis=-1)."""
    return np.sqrt(row_dot(A, A))


# -- columns: a coordinate of one point is a Python float, of a batch an
# aligned (n,) array.  A kernel on columns shares + - * / between the two and
# takes its other steps from these helpers, so that a float gets its array
# row's bits (numpy's own ufunc, never ``math``, for a transcendental step).
# Where Python raises (a division by zero, the root of a negative number),
# the array gives inf or NaN.


def col_dot(u, v):
    """row_dot of two rows of columns: the products summed in order from
    +0.0."""
    s = 0.0
    for a, b in zip(u, v):
        s = s + a * b
    return s


def col_sqrt(x):
    return math.sqrt(x) if type(x) is float else np.sqrt(x)


def col_where(cond, x, y):
    return (x if cond else y) if type(cond) is bool else np.where(cond, x, y)


def col_sign(x):
    """np.sign: +0.0 of either zero, and NaN of NaN."""
    if type(x) is not float:
        return np.sign(x)
    return -1.0 if x < 0.0 else 1.0 if x > 0.0 else 0.0 if x == 0.0 else x


def col_clip(x, lo, hi=None):
    """np.clip; with no upper bound np.maximum, which takes -0.0 to lo =
    0.0.  NaN passes."""
    if type(x) is not float:
        return np.maximum(x, lo) if hi is None else np.clip(x, lo, hi)
    if x < lo or (hi is None and x == lo):
        return lo
    return hi if hi is not None and x > hi else x


def col_ufunc(f, x, *args):
    return float(f(x, *args)) if type(x) is float else f(x, *args)


def col_quiet(**kwargs):
    """Run a kernel of a column (its last argument) under np.errstate for an
    array, and as it is for a Python float, which warns of nothing."""
    def decorate(kernel):
        @functools.wraps(kernel)
        def run(*args, **named):
            if type((*args, *named.values())[-1]) is float:
                return kernel(*args, **named)
            with np.errstate(**kwargs):
                return kernel(*args, **named)
        return run
    return decorate


def projective_distance(u, v):
    """1 - |cos(angle)| between the spans of u and v, 0 iff they are
    projectively equal: a Python float for two vectors, and row by row
    (``row_dot``, ``row_norm``) for stacked rows (..., k) of one shape.

    Two vectors are each scaled by ``pow2_scaled`` first, which is exact,
    so that no product overflows or underflows at any scale.  Stacked rows
    are not scaled: verify's checks send thousands of rows of unit-scale
    entries (``check_no_exterior_meet`` all 5000 pairs of clifford and of
    clifford-off, whose lines all pass through the centre), where the
    scaling costs some six times the distance itself."""
    u, v = np.asarray(u, float), np.asarray(v, float)
    if u.ndim == 1:
        u, v = pow2_scaled(u), pow2_scaled(v)
    n = row_norm(u) * row_norm(v)
    if not np.all(n):
        raise InvalidInput("projective distance of the zero vector")
    d = 1.0 - np.minimum(np.abs(row_dot(u, v)) / n, 1.0)
    return float(d) if d.ndim == 0 else d


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
        if not np.isfinite(v).all():
            raise InvalidInput("non-finite coordinates")
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


def normalize(p) -> HPoint:
    """Scale so the largest-magnitude entry has modulus 1 and the first
    nonzero entry is positive.  Idempotent; projectively a no-op."""
    v = np.array(p.coords if isinstance(p, HPoint) else p, dtype=float)
    m = np.max(np.abs(v))
    if not 0.0 < m < np.inf:  # NaN fails too
        raise InvalidInput("cannot normalize a zero or non-finite vector")
    v /= m
    nz = np.nonzero(np.abs(v) > 1e-12)[0]
    if nz.size and v[nz[0]] < 0:
        v = -v
    return HPoint(v)


# ---------------------------------------------------------------------------
# Plücker lines of P^3

_PLUCKER_REL_TOL = 1e-8
# the dual (swapped) Plücker vector: 2 g(k, l) = k . l[_SWAP]
_SWAP = [3, 4, 5, 0, 1, 2]


@dataclass(frozen=True)
class PLine:
    """Line of P^3 by Plücker coordinates (p01, p02, p03, p23, p31, p12)."""

    p: np.ndarray

    def __post_init__(self):
        v = _vec(self.p, "Plücker vector")
        if v.shape[0] != 6:
            raise InvalidInput("Plücker vector must have 6 entries")
        if not np.isfinite(v).all():
            raise InvalidInput("non-finite Plücker vector")
        # the norm and relation tests read v scaled by a power of two, so
        # that neither a huge nor a tiny vector overflows or underflows; the
        # relation p01 p23 + p02 p31 + p03 p12 = 0 is g(v, v) = 0
        s = pow2_scaled(v).tolist()
        n2 = col_dot(s, s)
        if n2 == 0.0:
            raise InvalidInput("zero Plücker vector")
        if abs(col_klein(s, s)) > _PLUCKER_REL_TOL * n2:
            raise InvalidInput("Plücker relation violated")
        v.setflags(write=False)
        object.__setattr__(self, "p", v)

    def __eq__(self, other):
        if not isinstance(other, PLine):
            return NotImplemented
        return projectively_equal(self.p, other.p)

    __hash__ = None


def _plucker(x) -> np.ndarray:
    """Plücker vector(s) of a PLine, of Plücker vector(s) (..., 6) or of a
    tuple (A, B) of spanning points (..., 4)."""
    if isinstance(x, PLine):
        return x.p
    if isinstance(x, tuple) and len(x) == 2:
        return join_batch(*(p.coords if isinstance(p, HPoint) else p
                            for p in x))
    v = np.asarray(x, dtype=float)
    if v.shape[-1:] != (6,):
        raise InvalidInput(f"Plücker vectors must have 6 entries, got {v.shape}")
    return v


# join returns A v B at its own scale, 2^e times the product of the scaled
# points, for |e| up to this: then it and its square norm are finite and
# normal
_JOIN_SCALE_MAX = 470


def join(a, b) -> PLine:
    """Plücker line through two distinct points of P^3.  The products and
    the degeneracy bound are formed on the points scaled by powers of two
    (``pow2_scaled``), which is exact, so that far or tiny points neither
    overflow nor underflow; the line is A v B at its own scale where that
    is a finite normal vector, else at the scaled points' scale."""
    A = a.coords if isinstance(a, HPoint) else _vec(a)
    B = b.coords if isinstance(b, HPoint) else _vec(b)
    if A.shape[0] != 4 or B.shape[0] != 4:
        raise InvalidInput("join expects points of P^3")
    ea, eb = _pow2_exponent(A), _pow2_exponent(B)
    A, B = np.ldexp(A, -ea), np.ldexp(B, -eb)
    p = join_batch(A, B)
    if np.linalg.norm(p) <= DEFAULT_TOL * np.linalg.norm(A) * np.linalg.norm(B):
        raise DegenerateJoin("join of projectively equal points")
    e = ea + eb
    return PLine(np.ldexp(p, e) if abs(e) <= _JOIN_SCALE_MAX else p)


def join_batch(A, B):
    """Raw Plücker vectors for rows of A joined with rows of B, shape (n, 6),
    each column written in place."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    p = col_join([A[..., i] for i in range(4)], [B[..., i] for i in range(4)])
    K = np.empty(np.shape(p[0]) + (6,))
    for i, v in enumerate(p):
        K[..., i] = v
    return K


def col_join(a, b):
    """The Plücker vector of a v b, of columns: join_batch's kernel."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0,
            a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)


def col_line_distance(p, w):
    """The distance |P*(p) w| / |p| of the unit point w from the line with
    Plücker vector p, of columns: P*(p) kills the line and, for unit p, is
    an isometry on its complement, so this is the norm of w's rejection
    (|w| times the distance for any w).  p.p and r.r must neither overflow
    nor underflow.  A zero p gives NaN (in floats a ZeroDivisionError)."""
    r = col_plucker_times([p[i] for i in _SWAP], w)
    return col_sqrt(col_dot(r, r) / col_dot(p, p))


def col_plucker_times(k, u):
    """plucker_matrix(k) u, of columns (six and four in, four out), its
    structural zeros left out.  Of the swapped vector k[_SWAP] it is the
    dual matrix P*(k) u."""
    k0, k1, k2, k3, k4, k5 = k
    u0, u1, u2, u3 = u
    return (k0 * u1 + k1 * u2 + k2 * u3, k5 * u2 - k0 * u0 - k4 * u3,
            k3 * u3 - k1 * u0 - k5 * u1, k4 * u1 - k2 * u0 - k3 * u2)


def col_klein(u, v):
    """The Klein form g(u, v) = u . v[_SWAP] / 2 of two Plücker vectors, of
    columns: the library's one g.  It vanishes on (k, k) exactly when k is
    the vector of a line, and on (k1, k2) exactly when the two lines meet."""
    return 0.5 * col_dot(u, [v[i] for i in _SWAP])


def klein_form(k1, k2) -> float:
    """g of two Klein 6-vectors (``col_klein``) as a Python float."""
    return col_klein(_vec(_plucker(k1)).tolist(), _vec(_plucker(k2)).tolist())


def klein_form_batch(K1, K2):
    """g of stacked Klein vectors (..., 6), row by row (``col_klein``)."""
    K1, K2 = np.broadcast_arrays(np.asarray(K1, float), np.asarray(K2, float))
    return col_klein(K1.T, K2.T).T


# Flat 4x4 positions (4 i + j) of p01, p02, p03, p23, p31, p12 at (i, j),
# and of their negatives at (j, i)
_PLUCKER_UPPER = np.array([1, 2, 3, 11, 13, 6])
_PLUCKER_LOWER = np.array([4, 8, 12, 14, 7, 9])


def plucker_matrix(k) -> np.ndarray:
    """Antisymmetric 4x4 matrix A B^T - B A^T of the line joining A and B,
    whose column space is the line with Plücker coordinates k (for k on the
    Klein quadric); stacked (..., 6) give (..., 4, 4).  The matrix of the
    swapped vector (p23, p31, p12, p01, p02, p03) is the dual one, whose
    kernel is the line."""
    k = _plucker(k)
    M = np.zeros(k.shape[:-1] + (16,))
    M[..., _PLUCKER_UPPER] = k
    M[..., _PLUCKER_LOWER] = 0.0 - k  # 0.0 - k: the signed zeros of M - M^T
    return M.reshape(k.shape[:-1] + (4, 4))


def klein_lift(k, tol: float = DEFAULT_TOL):
    """Invert the Klein embedding: returns ``(line, (a, b))`` where a, b are
    two spanning points and joining them re-embeds to k projectively."""
    v = _vec(_plucker(k))
    if abs(2.0 * klein_form(v, v)) > max(tol, 1e-7) * float(np.dot(v, v)):
        raise NotOnQuadric("vector is not on the Klein quadric")
    a, b = line_points(v)
    return join(a, b), (a, b)


def line_points(L) -> tuple[HPoint, HPoint]:
    """Two spanning points of a Plücker line, functions of the line: the
    orthonormal ``plucker_basis`` of its vector scaled by a power of two
    (``pow2_scaled``), so that the points do not change, bit for bit, when
    the vector is scaled by a power of two or negated."""
    v = _vec(_plucker(L))
    if not np.isfinite(v).all():
        raise InvalidInput("non-finite Klein vector")
    if not np.any(v):
        raise InvalidInput("zero Klein vector")
    u1, u2 = plucker_basis(pow2_scaled(v).tolist())
    return HPoint(np.array(u1)), HPoint(np.array(u2))


def plucker_basis(k):
    """Orthonormal u1, u2 in the column space of plucker_matrix(k), of
    columns (six in, two rows of four out); for k on the Klein quadric they
    span it.  u1 is the first column of largest norm, normalized, and u2 is
    plucker_matrix(k) u1, normalized: orthogonal to u1, for the matrix is
    antisymmetric.  Each is signed so that its entry of largest magnitude
    (the first, on a tie) is positive, which makes the pair a function of
    the plane: k and -k give the same bits.  A zero k gives NaN (in floats
    a ZeroDivisionError)."""
    k0, k1, k2, k3, k4, k5 = k
    q0, q1, q2, q3, q4, q5 = (x * x for x in k)
    # the matrix's rows, each its column negated, and their squared norms
    rows = ((0.0, k0, k1, k2), (0.0 - k0, 0.0, k5, 0.0 - k4),
            (0.0 - k1, 0.0 - k5, 0.0, k3), (0.0 - k2, k4, 0.0 - k3, 0.0))
    norms = (q0 + q1 + q2, q0 + q5 + q4, q1 + q5 + q3, q2 + q4 + q3)
    best, big = rows[0], norms[0]
    for row, n in zip(rows[1:], norms[1:]):
        take = n > big
        best = [col_where(take, x, y) for x, y in zip(row, best)]
        big = col_where(take, n, big)
    first = _signed_unit(best, big)
    v = col_plucker_times(k, first)
    return first, _signed_unit(v, col_dot(v, v))


def _signed_unit(u, norm2):
    """u over its norm, the root of norm2, of columns, with its entry of
    largest magnitude (the first, on a tie) made positive and no entry
    -0.0."""
    top = u[0]
    for x in u[1:]:
        top = col_where(abs(x) > abs(top), x, top)
    scale = col_where(top < 0.0, -1.0, 1.0) / col_sqrt(norm2)
    return [0.0 + scale * x for x in u]


# ---------------------------------------------------------------------------
# Linear subspaces held as orthonormal rows


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^4 or R^6, held as an orthonormal basis (rows)."""

    basis: np.ndarray
    ambient_dim: int = field(init=False)
    rank: int = field(init=False)

    def __post_init__(self):
        B = np.array(self.basis, float)
        if B.ndim != 2 or B.shape[1] not in (4, 6):
            raise InvalidInput("basis must be (k, 4) or (k, 6)")
        if np.abs(B @ B.T - np.eye(B.shape[0])).max(initial=0.0) > 1e-10:
            raise InvalidInput("basis rows must be orthonormal")
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)
        object.__setattr__(self, "ambient_dim", B.shape[1])
        object.__setattr__(self, "rank", B.shape[0])

    @classmethod
    def span(cls, vectors) -> "Subspace":
        """Row span of ``vectors``: the right singular vectors whose singular
        value exceeds ``_RANK_RTOL`` times the largest."""
        A = np.atleast_2d(np.asarray(vectors, float))
        if A.ndim != 2 or not np.all(np.isfinite(A)):
            raise InvalidInput("span expects a finite 2-d array of vectors")
        if not np.any(A):
            return cls(np.zeros((0, A.shape[1])))
        _, s, vt = np.linalg.svd(A, full_matrices=False)
        return cls(vt[: int(np.sum(s > _RANK_RTOL * s[0]))])

    def contains(self, v, tol: float = DEFAULT_TOL) -> bool:
        v = np.asarray(v, float)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return True
        rej = v - self.basis.T @ (self.basis @ v)
        return float(np.linalg.norm(rej)) <= tol * nv

    def same_as(self, other: "Subspace", tol: float = 1e-8) -> bool:
        if self.ambient_dim != other.ambient_dim or self.rank != other.rank:
            return False
        s = np.linalg.svd(self.basis @ other.basis.T, compute_uv=False)
        return bool(np.all(s > 1.0 - tol))


def _nullspace_rows(A):
    """Orthonormal basis (rows) of {x : A @ x = 0}."""
    A = np.atleast_2d(np.asarray(A, float))
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    r = int(np.sum(s > _RANK_RTOL * s[0]))
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
        """The index-3 form of the Klein quadric in Plücker coordinates: the
        matrix of g (``col_klein``), half the permutation _SWAP."""
        return cls(0.5 * np.eye(6)[_SWAP])

    def value(self, v) -> float:
        v = np.asarray(v, float)
        return float(v @ self.matrix @ v)

    def pairing(self, u, v) -> float:
        return float(np.asarray(u, float) @ self.matrix @ np.asarray(v, float))

    def is_degenerate(self) -> bool:
        s = np.linalg.svd(self.matrix, compute_uv=False)
        return bool(s[-1] <= _RANK_RTOL * s[0])


def _eig_signature(w) -> tuple[int, int, int]:
    w = np.asarray(w, float)
    thr = SIGNATURE_CUTOFF * np.max(np.abs(w)) if np.max(np.abs(w)) > 0 else 0.0
    pos = int(np.sum(w > thr))
    neg = int(np.sum(w < -thr))
    return (pos, neg, w.size - pos - neg)


def polar(S: Subspace, F: QuadricForm) -> Subspace:
    """Polar subspace {w : w^T F u = 0 for all u in S}.  An involution for
    nondegenerate F."""
    if F.is_degenerate():
        raise SingularForm("polar of a degenerate form")
    if S.rank == 0:
        raise InvalidInput("polar of the empty subspace")
    if S.ambient_dim != F.matrix.shape[0]:
        raise InvalidInput("subspace and form live in different dimensions")
    return Subspace(_nullspace_rows(S.basis @ F.matrix))


def meet(S1: Subspace, S2: Subspace) -> Subspace:
    """Intersection of two subspaces (rank 0 when they only share the origin)."""
    if S1.ambient_dim != S2.ambient_dim:
        raise InvalidInput("meet of subspaces of different ambient dimension")
    if S1.rank == 0 or S2.rank == 0:
        return Subspace(np.empty((0, S1.ambient_dim)))
    # x = B1^T a = B2^T b  <=>  [B1^T | -B2^T] (a, b) = 0; both bases are
    # orthonormal, so each unit kernel row gives |x| = |a| = |b| = 1/sqrt 2
    kern = _nullspace_rows(np.hstack([S1.basis.T, -S2.basis.T]))
    return Subspace.span(kern[:, : S1.rank] @ S1.basis)


def signature_on(F: QuadricForm, S: Subspace | None = None) -> tuple[int, int, int]:
    """Signature (pos, neg, zero) of F restricted to S (whole space if None)."""
    if S is None:
        G = F.matrix
    else:
        if S.rank == 0:
            return (0, 0, 0)
        G = S.basis @ F.matrix @ S.basis.T
    return _eig_signature(np.linalg.eigvalsh(G))


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


def quadratic_roots(A, B, C):
    """The real roots of A u^2 + B u + C, elementwise, larger magnitude
    first, and the discriminant: q = -(B + sign(B) sqrt(disc)) / 2 gives
    the roots q / A and C / q without cancellation.  Where A = 0 (then
    q = -B) the one root C / q of B u + C is returned twice; a negative
    discriminant or A = B = 0 gives none (NaN)."""
    disc = B * B - 4.0 * A * C
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (B + np.copysign(np.sqrt(disc), B))
        r1 = np.where(A != 0.0, q / A, C / q)
        r2 = np.where(q != 0.0, C / q, r1)  # q = 0: B = C = 0, the root 0
    r1, r2 = (np.where(np.isfinite(r), r, np.nan) for r in (r1, r2))
    return r1, r2, disc


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
    return [normalize(r * A + B) for r in quadratic_roots(a, 2.0 * b, c)[:2]]


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


def lines_meet_point(L1, L2):
    """Common point of two coplanar lines of P^3, or None if they are skew.

    Each line is a PLine, a Plücker vector or a tuple (A, B) of spanning
    points.  Stacked lines, (n, 6) vectors or tuples of two (n, 4) arrays,
    give (W, found) for all n pairs at once, W (n, 4) unnormalized.  A
    non-finite vector or point raises InvalidInput.

    Closed form: lines meeting in W inside the plane pi have Plücker
    matrix L1 times dual matrix L2* equal to W pi^T, so W is its largest
    column.  They meet when the smaller principal angle theta of their
    spans in R^4 has sqrt(1 - cos theta) <= _MEET_TOL.  For unit Plücker
    vectors and the larger angle theta', |k1 . k2| = cos theta cos theta'
    and 2 |klein_form(k1, k2)| = sin theta sin theta' give both sines
    without cancellation.  A pair of equal points spans no line, and equal lines
    (theta' within _MEET_TOL too) have no single common point: None.
    """
    K1, K2 = _plucker(L1), _plucker(L2)
    if not (np.isfinite(K1).all() and np.isfinite(K2).all()):
        raise InvalidInput("non-finite Plücker vector")
    n1 = row_norm(K1)[..., None]
    n2 = row_norm(K2)[..., None]
    k1 = np.divide(K1, n1, out=np.zeros_like(K1), where=n1 > 0.0)
    k2 = np.divide(K2, n2, out=np.zeros_like(K2), where=n2 > 0.0)
    P = plucker_matrix(k1) @ plucker_matrix(k2[..., _SWAP])
    Pt = np.swapaxes(P, -1, -2)  # rows of Pt: the columns of P
    col = np.argmax(row_dot(Pt, Pt), axis=-1)
    W = np.take_along_axis(P, col[..., None, None], axis=-1)[..., 0]
    c = np.abs(row_dot(k1, k2))
    d = 2.0 * np.abs(klein_form_batch(k1, k2))
    sin2 = np.minimum(1.0, 0.5 * (np.sqrt(np.maximum((1 + d) ** 2 - c * c, 0))
                                  + np.sqrt(np.maximum((1 - d) ** 2 - c * c, 0))))
    sin1 = np.minimum(1.0, np.divide(d, sin2, out=np.zeros_like(d),
                                     where=sin2 > 0.0))
    one_minus_cos = lambda x: x * x / (1.0 + np.sqrt(1.0 - x * x))  # noqa: E731
    found = ((n1[..., 0] > 0.0) & (n2[..., 0] > 0.0)
             & (one_minus_cos(sin1) <= _MEET_TOL * _MEET_TOL)
             & (one_minus_cos(sin2) > _MEET_TOL * _MEET_TOL))
    if W.ndim > 1:
        return W, found
    return normalize(W) if found else None
