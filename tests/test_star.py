import numpy as np
import pytest

from glstar.errors import EvalError, InvalidInput
from glstar.functions import moebius01
from glstar.projgeom import (
    QuadricForm,
    join,
    line_sphere_intersect,
    projective_distance,
    second_intersection,
)
from glstar.star import (
    Handedness,
    RotationalSigma,
    SurfaceEntry,
    fibonacci_sphere,
    handedness_of,
    homogenize,
    meridian_line,
    meridian_point,
    rotate_z,
    surface_mesh,
)
from glstar.constructions import clifford, fg_star, symmetric_star
from glstar.functions import affine, power

SPHERE = QuadricForm.unit_sphere()
X_AXIS = join((1, 0, 0, 0), (0, 1, 0, 0))
Z_AXIS = join((1, 0, 0, 0), (0, 0, 0, 1))


def test_rotate_z():
    p = np.array([1.0, 0.0, 0.3])
    out = rotate_z(p, np.pi / 2)
    assert np.allclose(out, [0.0, 1.0, 0.3])
    batch = rotate_z(np.tile(p, (4, 1)), np.array([0, np.pi, 0, np.pi / 2]))
    assert np.allclose(batch[1], [-1.0, 0.0, 0.3])


def test_fibonacci_sphere_on_sphere():
    g = fibonacci_sphere(500)
    assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)


# --- meridian lines ----------------------------------------------------------


def test_meridian_line_endpoints():
    s = symmetric_star(moebius01())
    assert projective_distance(meridian_line(s, 0.0).p, X_AXIS.p) < 1e-9
    assert projective_distance(meridian_line(s, 1.0).p, Z_AXIS.p) < 1e-9


def test_off_origin_axial_clifford_profile_ends():
    # the t=0 chord runs from p_0 = (1, 0, 0) through the centre on Z
    star = clifford((0.0, 0.0, 0.4))
    p0 = meridian_point(0.0)
    m0 = star.sigma(p0)
    np.testing.assert_array_equal(star.profile.meridian_image(0.0)[0], m0)
    chord = join(homogenize(p0), homogenize(m0))
    assert projective_distance(meridian_line(star, 0.0).p, chord.p) < 1e-12
    entry = star.profile.entry_at(0.0)
    assert entry.kind == "cone" and abs(entry.b - 0.4) < 1e-12
    np.testing.assert_array_equal(star.profile.meridian_image(1.0)[0],
                                  star.sigma(meridian_point(1.0)))


def test_meridian_line_on_surface():
    # a(t) = t/(1-t): at t = 1/2 the line lies on x^2+y^2-z^2 = 1/2
    s = symmetric_star(moebius01())
    L = meridian_line(s, 0.5)
    pts = line_sphere_intersect(L, SPHERE)
    entry = s.profile.entry_at(0.5)
    assert entry.kind == "hyperboloid"
    assert np.isclose(entry.a, 1.0) and np.isclose(entry.c ** 2, 0.5)
    for p in pts:
        aff = p.coords[1:] / p.coords[0]
        assert abs(entry.residual(aff)[0]) < 1e-8
    # contains p_{1/2}
    p = homogenize(meridian_point(0.5))
    assert min(projective_distance(q.coords, p) for q in pts) < 1e-9


def test_ordinary_star_lines_through_origin():
    # a(t) = t/sqrt(1-t^2) gives c = 0 and all lines through the origin
    fn = lambda t: t / np.sqrt(np.clip(1.0 - t * t, 1e-300, None))
    s = symmetric_star(fn)
    for t in (0.2, 0.5, 0.8):
        L = meridian_line(s, t)
        a, b = (p.coords for p in
                (line_sphere_intersect(L, SPHERE)))
        # line through origin: origin in the span
        M = np.vstack([a, b, [1, 0, 0, 0]])
        assert np.linalg.svd(M, compute_uv=False)[-1] < 1e-9


# --- handedness --------------------------------------------------------------


def test_handedness_axis():
    assert handedness_of(Z_AXIS) is Handedness.MEETS_AXIS
    assert handedness_of(X_AXIS) is Handedness.MEETS_AXIS


def test_handedness_fg_right():
    star = fg_star(power(2), affine(1, -1), eps=-1)
    for t in (0.2, 0.5, 0.8):
        L = meridian_line(star, t)
        assert handedness_of(L) is Handedness.RIGHT


def test_handedness_mirror_flips():
    star = fg_star(power(2), affine(1, -1), eps=-1)
    L = meridian_line(star, 0.5)
    # y -> -y flips the signs of p02, p23 and p12
    mirrored = L.p * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    from glstar.projgeom import PLine
    assert handedness_of(PLine(mirrored)) is Handedness.LEFT


# --- second intersection ------------------------------------------------------


def test_second_intersection_poles():
    north = homogenize(np.array([0.0, 0.0, 1.0]))
    south = second_intersection(Z_AXIS, north)
    assert projective_distance(south.coords, [1, 0, 0, -1]) < 1e-12


def test_second_intersection_symmetric_height():
    s = symmetric_star(moebius01())
    L = meridian_line(s, 0.5)
    q = homogenize(meridian_point(0.5))
    other = second_intersection(L, q)
    aff = other.coords[1:] / other.coords[0]
    assert np.isclose(aff[2], -0.5, atol=1e-9)


# --- rotational sigma completion ----------------------------------------------


def test_rotational_sigma_involution_grid():
    star = fg_star(power(2), affine(1, -1), eps=-1)
    grid = fibonacci_sphere(400)
    res = np.linalg.norm(star.sigma(star.sigma(grid)) - grid, axis=1)
    assert res.max() < 1e-9


def test_rotational_sigma_equator_antipodal():
    star = fg_star(power(2), affine(1, -1), eps=-1)
    for th in np.linspace(0, 2 * np.pi, 7):
        q = np.array([np.cos(th), np.sin(th), 0.0])
        assert np.linalg.norm(star.sigma(q) + q) < 1e-9


def test_rotational_sigma_commutes():
    star = symmetric_star(moebius01())
    rng = np.random.default_rng(1)
    q = rng.normal(size=(50, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    th = rng.uniform(0, 2 * np.pi, 50)
    res = np.linalg.norm(star.sigma(rotate_z(q, th)) -
                         rotate_z(star.sigma(q), th), axis=1)
    assert res.max() < 1e-9


def test_rotational_sigma_rejects_increasing_height():
    bad = lambda t: np.stack([np.sqrt(np.clip(1 - np.asarray(t) ** 2, 0, None)),
                              np.zeros_like(np.asarray(t)),
                              np.asarray(t)], axis=-1)
    with pytest.raises(EvalError):
        RotationalSigma(bad, z_of_t=lambda t: np.asarray(t, float),
                        t_of_z=lambda z: np.asarray(z, float))


def test_sigma_rejects_off_sphere():
    star = clifford()
    with pytest.raises(InvalidInput):
        star.sigma(np.array([2.0, 0.0, 0.0]))


# --- line_through -------------------------------------------------------------


def test_line_through_is_two_secant():
    star = fg_star(power(2), affine(1, -1), eps=-1)
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = rng.normal(size=3)
        q /= np.linalg.norm(q)
        L = star.line_through(q)
        pts = line_sphere_intersect(L, SPHERE)
        assert len(pts) == 2
        expect = {tuple(np.round(q, 6)), tuple(np.round(star.sigma(q), 6))}
        got = {tuple(np.round(p.coords[1:] / p.coords[0], 6)) for p in pts}
        assert got == expect


# --- meshes --------------------------------------------------------------------


def test_surface_mesh_cone():
    verts, faces = surface_mesh(SurfaceEntry("cone", a=1.0, b=0.0, c=0.0), 16, 32)
    entry = SurfaceEntry("cone", a=1.0, b=0.0, c=0.0)
    assert np.max(np.abs(entry.residual(verts))) < 1e-9
    assert faces.min() == 0 and faces.max() == len(verts) - 1


def test_surface_mesh_hyperboloid():
    entry = SurfaceEntry("hyperboloid", a=1.0, b=0.0, c=1 / np.sqrt(2),
                         handedness=Handedness.RIGHT)
    verts, faces = surface_mesh(entry, 16, 32)
    assert np.max(np.abs(entry.residual(verts))) < 1e-9
    assert len(faces) == 15 * 32 * 2


def test_surface_mesh_axis_degenerate():
    verts, faces = surface_mesh(SurfaceEntry("axis"), 8, 8)
    assert faces.size == 0
    assert np.allclose(verts[:, :2], 0.0)


def test_surface_mesh_resolution_guard():
    with pytest.raises(InvalidInput):
        surface_mesh(SurfaceEntry("axis"), 1, 8)
