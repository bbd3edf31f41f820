import ast
from pathlib import Path

import numpy as np
import pytest

import glstar
from glstar import errors
from glstar.projgeom import (
    HPoint,
    PLine,
    QuadricForm,
    Side,
    Subspace,
    join,
    join_batch,
    klein_form,
    klein_lift,
    line_points,
    line_sphere_intersect,
    lines_meet_point,
    meet,
    normalize,
    point_side,
    polar,
    pow2_scaled,
    projective_distance,
    quadratic_roots,
    second_intersection,
    signature_on,
)

SPHERE = QuadricForm.unit_sphere()
KLEIN = QuadricForm.klein()

X_AXIS = join((1, 0, 0, 0), (0, 1, 0, 0))
Z_AXIS = join((1, 0, 0, 0), (0, 0, 0, 1))


def rng():
    return np.random.default_rng(0)


# --- normalize -------------------------------------------------------------

def test_normalize_scaling():
    assert np.allclose(normalize((0, 0, 0, 2)).coords, [0, 0, 0, 1])


def test_normalize_sign_convention():
    assert np.allclose(normalize((-1, 0, 0, 0)).coords, [1, 0, 0, 0])


def test_normalize_leading_positive_kept():
    # dividing by the -1 entry flips signs; the leading-positive rule flips back
    assert np.allclose(normalize((0.5, -1, 0, 0)).coords, [0.5, -1, 0, 0])


def test_normalize_idempotent():
    r = rng()
    for _ in range(20):
        v = r.normal(size=4)
        once = normalize(v).coords
        assert np.allclose(normalize(once).coords, once)


def test_normalize_zero_rejected():
    with pytest.raises(errors.InvalidInput):
        normalize((0.0, 0.0, 0.0, 0.0))


# --- join ------------------------------------------------------------------

def test_join_coordinate_axes():
    assert np.allclose(X_AXIS.p, [1, 0, 0, 0, 0, 0])


def test_join_z_axis():
    assert np.allclose(Z_AXIS.p / np.max(np.abs(Z_AXIS.p)), [0, 0, 1, 0, 0, 0])


def test_join_projective_invariance():
    other = join((1, 0, 0, 0), (1, 1, 0, 0))
    assert projective_distance(other.p, X_AXIS.p) < 1e-12


def test_join_degenerate():
    with pytest.raises(errors.DegenerateJoin):
        join((1, 2, 3, 4), (2, 4, 6, 8))


@pytest.mark.parametrize("scale", [1e300, 1e200, 1e100])
def test_join_of_far_points(scale):
    # the products of the raw coordinates would overflow; tier-1 turns
    # warnings into errors, so none may be raised
    line = join((1.0, scale, 0.0, 0.0), (1.0, 0.0, scale, 0.0))
    assert np.isfinite(line.p).all()
    expected = [-1.0 / scale, 1.0 / scale, 0.0, 0.0, 0.0, 1.0]
    assert projective_distance(line.p, expected) < 1e-12


@pytest.mark.parametrize("scale", [1e-200, 1e-300, 1e-310])
def test_join_of_tiny_points(scale):
    # the products of the raw coordinates would underflow to a spurious
    # DegenerateJoin
    line = join((scale, scale, 0.0, 0.0), (scale, 0.0, scale, 0.0))
    assert projective_distance(line.p, [-1.0, 1.0, 0.0, 0.0, 0.0, 1.0]) < 1e-15


def test_join_keeps_its_own_scale():
    # A v B is the raw products, bit for bit, where they are moderate
    r = rng()
    pairs = [((1e-200, 1e-200, 0.0, 0.0), (1e200, 0.0, 1e200, 0.0))]
    for _ in range(20):
        e = r.integers(-200, 200, size=2)[:, None]
        pairs.append(tuple(r.normal(size=(2, 4)) * 2.0 ** e))
    for A, B in pairs:
        np.testing.assert_array_equal(join(A, B).p, join_batch(A, B))


def test_plucker_relation_random():
    r = rng()
    A = r.normal(size=(200, 4))
    B = r.normal(size=(200, 4))
    P = join_batch(A, B)
    res = P[:, 0] * P[:, 3] + P[:, 1] * P[:, 4] + P[:, 2] * P[:, 5]
    assert np.max(np.abs(res)) < 1e-12 * np.max(np.sum(P * P, axis=1))


def test_pline_rejects_invalid_plucker():
    with pytest.raises(errors.InvalidInput):
        PLine(np.array([1.0, 0, 0, 1.0, 0, 0]))  # p01*p23 != 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pline_rejects_a_non_finite_vector(bad):
    # a NaN fails no relation test, and inf reads as a line that meets Z
    with pytest.raises(errors.InvalidInput, match="non-finite"):
        PLine(np.array([bad, 1.0, 0.0, 0.0, 0.0, 0.0]))


# --- klein form ------------------------------------------------------------

def test_klein_self_pairing_zero():
    assert klein_form(X_AXIS, X_AXIS) == 0.0


def test_klein_meeting_lines():
    assert abs(klein_form(X_AXIS, Z_AXIS)) < 1e-15
    # vertical line x=1, y=0 meets the x-axis at (1,0,0)
    touching = join((1, 1, 0, 0), (1, 1, 0, 1))
    assert abs(klein_form(X_AXIS, touching)) < 1e-15


def test_klein_skew_lines_nonzero():
    # vertical line through (1,1,0): skew to the x-axis
    skew = join((1, 1, 1, 0), (1, 1, 1, 1))
    assert abs(klein_form(X_AXIS, skew)) > 0.1


def test_klein_orthogonality_matches_determinant():
    # two lines meet iff the 4x4 determinant of their spanning points vanishes
    r = rng()
    for _ in range(50):
        A, B, C, D = r.normal(size=(4, 4))
        k1 = join(A, B)
        k2 = join(C, D)
        det = np.linalg.det(np.vstack([A, B, C, D]))
        g = klein_form(k1, k2)
        assert np.isclose(2.0 * g, det, atol=1e-9 * max(1.0, abs(det)))


# --- klein lift ------------------------------------------------------------

def test_klein_lift_basis_bivector():
    line, (a, b) = klein_lift((1, 0, 0, 0, 0, 0))
    S = Subspace.span([a.coords, b.coords])
    assert S.contains([1, 0, 0, 0]) and S.contains([0, 1, 0, 0])
    assert projective_distance(line.p, X_AXIS.p) < 1e-12


def test_klein_lift_round_trip_z():
    line, (a, b) = klein_lift(Z_AXIS.p)
    assert projective_distance(join(a, b).p, Z_AXIS.p) < 1e-9


def test_klein_lift_round_trip_random():
    r = rng()
    for _ in range(30):
        q1 = r.normal(size=3)
        q1 /= np.linalg.norm(q1)
        q2 = r.normal(size=3)
        q2 /= np.linalg.norm(q2)
        L = join(np.r_[1.0, q1], np.r_[1.0, q2])
        lifted, _ = klein_lift(L.p)
        assert projective_distance(lifted.p, L.p) < 1e-9


def test_klein_lift_off_quadric():
    with pytest.raises(errors.NotOnQuadric):
        klein_lift((1, 0, 0, 1, 0, 0))


# --- polar / meet / signatures ----------------------------------------------

def test_polar_of_z_axis():
    Z = Subspace.span([[1, 0, 0, 0], [0, 0, 0, 1]])
    P = polar(Z, SPHERE)
    expected = Subspace.span([[0, 1, 0, 0], [0, 0, 1, 0]])
    assert P.same_as(expected)


def test_polar_involution_random():
    r = rng()
    for _ in range(20):
        k = r.integers(1, 4)
        S = Subspace.span(r.normal(size=(k, 4)))
        assert polar(polar(S, SPHERE), SPHERE).same_as(S)
    for _ in range(10):
        k = r.integers(1, 6)
        S = Subspace.span(r.normal(size=(k, 6)))
        assert polar(polar(S, KLEIN), KLEIN).same_as(S)


def test_polar_tangent_hyperplane_contains_point():
    k = X_AXIS.p
    H = polar(Subspace.span([k]), KLEIN)
    assert H.rank == 5
    assert H.contains(k)


def test_polar_takes_no_tolerance():
    # the null-space cutoff is _nullspace_rows' own; a tol would be ignored
    with pytest.raises(TypeError):
        polar(Subspace.span([[1, 0, 0, 0]]), SPHERE, tol=1e-3)


def test_polar_singular_form():
    bad = QuadricForm(np.diag([1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(errors.SingularForm):
        polar(Subspace.span([[1, 0, 0, 0]]), bad)


def test_meet_planes_in_r4():
    S1 = Subspace.span(np.eye(4)[:3])          # span{e0,e1,e2}
    S2 = Subspace.span(np.eye(4)[[0, 1, 3]])   # span{e0,e1,e3}
    M = meet(S1, S2)
    assert M.rank == 2
    assert M.same_as(Subspace.span(np.eye(4)[:2]))


def test_meet_self():
    S = Subspace.span(rng().normal(size=(3, 6)))
    assert meet(S, S).same_as(S)


def test_meet_generic_dimension_r6():
    r = rng()
    S1 = Subspace.span(r.normal(size=(3, 6)))
    S2 = Subspace.span(r.normal(size=(4, 6)))
    assert meet(S1, S2).rank == 1


def test_signature_full_forms():
    assert SPHERE.signature == (3, 1, 0)
    assert KLEIN.signature == (3, 3, 0)
    assert signature_on(KLEIN) == (3, 3, 0)


def test_signature_rebase_invariance():
    r = rng()
    B = r.normal(size=(3, 6))
    S = Subspace.span(B)
    sig = signature_on(KLEIN, S)
    # random rebasing of the same subspace
    for _ in range(5):
        C = r.normal(size=(3, 3)) @ B
        assert signature_on(KLEIN, Subspace.span(C)) == sig


# --- point side ------------------------------------------------------------

def test_point_side_examples():
    assert point_side((1, 0, 0, 0), SPHERE) is Side.INTERIOR
    assert point_side((1, 1, 0, 0), SPHERE) is Side.ON
    assert point_side((0, 0, 0, 1), SPHERE) is Side.EXTERIOR


# --- line/sphere intersection ------------------------------------------------

def test_quadratic_stability():
    # x^2 - 2*1e8 x + 1 = 0: naive formula loses the small root
    roots = quadratic_roots(1.0, -2e8, 1.0)[:2]
    small = min(roots, key=abs)
    assert np.isclose(small, 5.0000000000000004e-9, rtol=1e-12)


def test_quadratic_roots_put_the_larger_magnitude_root_first():
    # q / A comes first even where both roots have one magnitude (a < 0 and
    # b about +1e-17, as for a line through the sphere's centre): sorting
    # the pair would swap the two points of line_sphere_intersect
    A = np.array([-0.672, 1.0, 1.0, 0.0, 1.0, 0.0])
    B = np.array([5.2e-17, -2e8, 3.0, 2.0, 0.0, 0.0])
    C = np.array([1.0, 1.0, 2.0, -4.0, 1.0, 1.0])
    r1, r2, disc = quadratic_roots(A, B, C)
    assert r1[0] > 0.0 > r2[0] and r1[0] == pytest.approx(-r2[0], rel=1e-15)
    assert r1[1] == pytest.approx(2e8) and r2[1] == pytest.approx(5e-9)
    assert (r1[2], r2[2]) == (-2.0, -1.0)
    # a linear equation has its one root twice; a negative discriminant
    # and A = B = 0 have none
    assert (r1[3], r2[3]) == (2.0, 2.0)
    assert np.isnan(r1[4:]).all() and np.isnan(r2[4:]).all()
    assert disc.tolist() == (B * B - 4.0 * A * C).tolist()
    assert np.all(np.abs(r1) >= np.abs(r2), where=np.isfinite(r1))


def test_line_sphere_z_axis_poles():
    pts = line_sphere_intersect(Z_AXIS, SPHERE)
    got = sorted(np.round(p.coords / p.coords[0], 9).tolist() for p in pts)
    assert got == [[1, 0, 0, -1], [1, 0, 0, 1]]


def test_line_sphere_no_intersection():
    infinite = join((0, 1, 0, 0), (0, 0, 1, 0))
    assert line_sphere_intersect(infinite, SPHERE) == []


def test_line_sphere_tangent():
    tangent = join((1, 1, 0, 0), (0, 0, 1, 0))
    pts = line_sphere_intersect(tangent, SPHERE)
    assert len(pts) == 1
    assert projective_distance(pts[0].coords, [1, 1, 0, 0]) < 1e-9


def test_line_sphere_random_chords():
    r = rng()
    for _ in range(30):
        q1, q2 = r.normal(size=(2, 3))
        q1 /= np.linalg.norm(q1)
        q2 /= np.linalg.norm(q2)
        L = join(np.r_[1.0, q1], np.r_[1.0, q2])
        pts = line_sphere_intersect(L, SPHERE)
        assert len(pts) == 2
        for p in pts:
            assert abs(SPHERE.value(p.coords)) < 1e-9 * np.dot(p.coords, p.coords)


def test_second_intersection():
    north = HPoint((1, 0, 0, 1))
    south = second_intersection(Z_AXIS, north)
    assert projective_distance(south.coords, [1, 0, 0, -1]) < 1e-12
    other = second_intersection(X_AXIS, (1, 1, 0, 0))
    assert projective_distance(other.coords, [1, -1, 0, 0]) < 1e-12


def test_second_intersection_not_two_secant():
    tangent = join((1, 1, 0, 0), (0, 0, 1, 0))
    with pytest.raises(errors.NotTwoSecant):
        second_intersection(tangent, (1, 1, 0, 0))


def test_lines_meet_point():
    p = lines_meet_point(X_AXIS, Z_AXIS)
    assert p is not None
    assert projective_distance(p.coords, [1, 0, 0, 0]) < 1e-9
    skew = join((1, 1, 1, 0), (1, 1, 1, 1))
    assert lines_meet_point(X_AXIS, skew) is None


def _on_line(w, A, B):
    return np.linalg.matrix_rank(np.vstack([w, A, B]), tol=1e-9) == 2


def test_lines_meet_point_from_endpoint_pairs():
    A1, B1 = np.array([1.0, 0, 0, 0]), np.array([1.0, 2, 1, 0])
    A2, B2 = np.array([1.0, 0, 1, 0]), np.array([1.0, 2, 0, 0])
    w = lines_meet_point((A1, B1), (A2, B2))
    assert projective_distance(w.coords, [1, 1, 0.5, 0]) < 1e-15
    assert lines_meet_point((HPoint(A1), HPoint(B1)), X_AXIS) == HPoint(A1)


def test_lines_meet_point_at_infinity():
    # two parallel lines in the direction (1, 1, 0) meet at infinity
    w = lines_meet_point(((1, 0, 0, 0), (1, 1, 1, 0)),
                         ((1, 0, 0, 1), (1, 1, 1, 1)))
    assert projective_distance(w.coords, [0, 1, 1, 0]) < 1e-15


@pytest.mark.parametrize("L2", [
    ((1.0, 0, 0, 0), (1.0, 0, 0, 0)),  # coincident endpoints
    ((1.0, 0, 0, 0), (2.0, 0, 0, 0)),  # projectively equal endpoints
    ((1.0, 3, 0, 0), (1.0, -1, 0, 0)),  # the same line from other points
    join((1, 1, 1, 0), (1, 1, 1, 1)),  # skew
], ids=["coincident", "proportional", "identical", "skew"])
def test_lines_meet_point_without_a_single_common_point(L2):
    # the suite turns every RuntimeWarning into an error
    assert lines_meet_point(X_AXIS, L2) is None
    assert lines_meet_point(L2, X_AXIS) is None


def test_lines_meet_point_stacked_matches_single_pairs():
    r = rng()
    A1, B1, A2 = r.normal(size=(3, 50, 4))
    # every second line 2 passes through a point of line 1
    u = r.normal(size=(50, 1))
    B2 = np.where(np.arange(50)[:, None] % 2 == 0, A1 + u * B1,
                  r.normal(size=(50, 4)))
    W, found = lines_meet_point((A1, B1), (A2, B2))
    assert found.tolist() == [i % 2 == 0 for i in range(50)]
    for i in range(50):
        w = lines_meet_point((A1[i], B1[i]), (A2[i], B2[i]))
        assert (w is None) == (not found[i])
        if found[i]:
            assert projective_distance(w.coords, W[i]) < 1e-15
            assert projective_distance(W[i], A1[i] + u[i] * B1[i]) < 1e-12
            assert _on_line(W[i], A2[i], B2[i])


def test_line_points_span_line():
    a, b = line_points(Z_AXIS)
    assert projective_distance(join(a, b).p, Z_AXIS.p) < 1e-12


def test_line_points_are_functions_of_the_line():
    # orthonormal points on the line, with the same bits for the Plücker
    # vector negated or scaled by 2^600 or 2^-600
    for p in join_batch(*rng().normal(size=(2, 20, 4))):
        a, b = (pt.coords for pt in line_points(p))
        assert projective_distance(join(a, b).p, p) < 1e-15
        assert abs(a @ b) < 1e-15
        assert abs(a @ a - 1.0) < 1e-15 and abs(b @ b - 1.0) < 1e-15
        for q in (-p, np.ldexp(p, 600), np.ldexp(p, -600),
                  PLine(np.ldexp(-p, -2))):
            a2, b2 = (pt.coords for pt in line_points(q))
            np.testing.assert_array_equal(a2, a)
            np.testing.assert_array_equal(b2, b)


def test_line_points_of_the_zero_vector_is_refused():
    with pytest.raises(errors.InvalidInput, match="zero Klein vector"):
        line_points(np.zeros(6))


def test_line_points_of_a_non_finite_vector_is_refused():
    for bad in (np.nan, np.inf):
        with pytest.raises(errors.InvalidInput, match="non-finite"):
            line_points(np.array([bad, 1.0, 0.0, 0.0, 0.0, 0.0]))


def test_pow2_scaled_rows_by_their_largest_entry():
    # each row by the exponent of its np.max |entry|, bit for bit, with
    # zero, signed-zero, infinite, NaN and subnormal entries among them
    r = rng()
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310])
    for shape in ((40, 4), (3, 5, 6), (2, 3), (0, 4)):
        v = r.normal(size=shape) * 10.0 ** r.integers(-300, 300, size=shape)
        v = np.where(r.random(shape) < 0.2, r.choice(special, size=shape), v)
        v[:1] = 0.0
        top = np.max(np.abs(v), axis=-1, keepdims=True)
        np.testing.assert_array_equal(pow2_scaled(v),
                                      np.ldexp(v, -np.frexp(top)[1]))


def test_subspace_reduction_idempotent():
    r = rng()
    for _ in range(10):
        S = Subspace.span(r.normal(size=(3, 6)))
        again = Subspace.span(S.basis)
        assert again.rank == S.rank
        assert again.same_as(S)
        assert np.abs(again.basis @ again.basis.T - np.eye(3)).max() < 1e-14


def _orthonormal(S):
    return np.abs(S.basis @ S.basis.T - np.eye(S.rank)).max(initial=0.0) < 1e-12


def test_every_subspace_has_orthonormal_rows():
    r = rng()
    for n, F in ((4, SPHERE), (6, KLEIN)):
        for k in range(1, n):
            S = Subspace.span(r.normal(size=(k, n)) * 10.0 ** r.integers(-6, 6))
            T = Subspace.span(r.normal(size=(n - 1, n)))
            assert S.rank == k and _orthonormal(S)
            assert _orthonormal(polar(S, F))
            assert _orthonormal(meet(S, T))
    assert Subspace.span(np.zeros((2, 6))).rank == 0


def test_subspace_rejects_non_orthonormal_rows():
    with pytest.raises(errors.InvalidInput):
        Subspace(np.array([[2.0, 0, 0, 0]]))
    with pytest.raises(errors.InvalidInput):
        Subspace(np.array([[1.0, 0, 0, 0], [1.0, 1.0, 0, 0]]) / [[1.0], [2 ** 0.5]])
    with pytest.raises(errors.InvalidInput):
        Subspace.span([[np.nan, 0, 0, 0]])


def near_rank_one_span(rel=1e-11, seed=5):
    """A (2, 6) span whose second singular value is ``rel`` of the first."""
    r = np.random.default_rng(seed)
    U, _ = np.linalg.qr(r.normal(size=(2, 2)))
    V, _ = np.linalg.qr(r.normal(size=(6, 2)))
    return U @ np.diag([1.0, rel]) @ V.T


def test_span_drops_relatively_tiny_singular_values():
    A = near_rank_one_span()
    assert np.linalg.svd(A, compute_uv=False)[1] == pytest.approx(1e-11)
    assert Subspace.span(A).rank == 1
    assert Subspace.span(near_rank_one_span(rel=1e-9)).rank == 2


def test_row_reductions_have_one_path():
    # every sum of squares or products over a row of coordinates in the
    # library goes through projgeom.row_dot / row_norm
    found = []
    for path in sorted(Path(glstar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) in ("np.linalg.norm", "np.sum")
                    and any(kw.arg == "axis" for kw in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
