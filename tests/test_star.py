import warnings

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
    RotationalProfile,
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
from glstar.constructions import (
    clifford,
    fg_star,
    latitudinal,
    pencil_from_mu,
    symmetric_star,
)
from glstar.functions import affine, as_fn1, power

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


@pytest.mark.parametrize("t", [0.0, 0.3, 0.7, 1.0])
def test_meridian_line_of_a_profile_is_its_stars(t):
    # a profile star's sigma completes the profile's own meridian image
    star = symmetric_star(moebius01())
    assert projective_distance(meridian_line(star.profile, t).p,
                               meridian_line(star, t).p) < 1e-12


def test_meridian_line_endpoints():
    s = symmetric_star(moebius01())
    assert projective_distance(meridian_line(s, 0.0).p, X_AXIS.p) < 1e-9
    assert projective_distance(meridian_line(s, 1.0).p, Z_AXIS.p) < 1e-9


def test_off_origin_axial_clifford_profile_ends():
    # the t=0 chord runs from p_0 = (1, 0, 0) through the centre on Z
    star = clifford((0.0, 0.0, 0.4))
    p0 = meridian_point(0.0)
    m0 = star.sigma(p0)
    profile = star.line_profile
    # a Python float t gives three floats
    np.testing.assert_array_equal(profile.meridian_image(0.0), m0)
    chord = join(homogenize(p0), homogenize(m0))
    assert projective_distance(meridian_line(star, 0.0).p, chord.p) < 1e-12
    entry = profile.entry_at(0.0)
    assert entry.kind == "cone" and abs(entry.b - 0.4) < 1e-12
    np.testing.assert_array_equal(profile.meridian_image(1.0),
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


def test_only_a_regulus_has_a_sign():
    assert Handedness.RIGHT.sign == 1.0 and Handedness.LEFT.sign == -1.0
    with pytest.raises(InvalidInput, match="no regulus sign"):
        Handedness.MEETS_AXIS.sign


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_handedness_of_a_non_finite_vector_is_refused(bad):
    with pytest.raises(InvalidInput, match="non-finite"):
        handedness_of(np.array([bad, 1.0, 0.0, 0.0, 0.0, 0.0]))


def test_handedness_of_a_horizontal_line_missing_the_axis_is_refused():
    # the line x = 1, z = 1 misses Z and has no sense of increasing z
    L = join(np.array([1.0, 1.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(InvalidInput, match="horizontal line"):
        handedness_of(L)


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


def test_fitted_profile_answers_with_its_own_map(monkeypatch):
    # the meridian image of a profile fitted by from_meridian is the map it
    # was fitted to, bit for bit, ends included
    fitted = []
    fit = RotationalProfile.from_meridian.__func__

    def recording(cls, meridian_image):
        fitted.append(meridian_image)
        return fit(cls, meridian_image)

    monkeypatch.setattr(RotationalProfile, "from_meridian",
                        classmethod(recording))
    quad = pencil_from_mu(as_fn1(lambda th: np.asarray(th) ** 2 * (2 / np.pi),
                                 domain=(0.0, np.pi / 2)))
    t = np.concatenate([[0.0, 1.0], np.random.default_rng(4).random(200)])
    for build in (lambda: fg_star(power(2), affine(1, -1), eps=-1),
                  lambda: latitudinal(quad), clifford):
        fitted.clear()
        profile = build().line_profile
        (meridian,) = fitted
        np.testing.assert_array_equal(profile.meridian_image(t), meridian(t))


@pytest.mark.parametrize("make", [
    clifford, lambda: clifford((0.0, 0.0, 0.4)),
    lambda: fg_star(power(2), affine(1, -1), eps=-1)])
def test_fitted_profile_is_finite_at_a_horizontal_chord(make):
    # at t = 0 the chord of clifford and fg is horizontal (of clifford off
    # the origin it is not): the fit is finite there, in one t and in a
    # batch, with the same bits and no floating-point warning
    profile = make().line_profile
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        one = profile.coefficients(np.array([0.0]))
        batch = profile.coefficients(np.array([0.0, 0.5]))
    assert all(np.isfinite(v).all() for v in one + batch)
    for v, row in zip(one, batch):
        np.testing.assert_array_equal(v.view(np.uint64),
                                      row[:1].view(np.uint64))


def test_rotational_sigma_rejects_increasing_height():
    bad = lambda t: np.stack([np.sqrt(np.clip(1 - np.asarray(t) ** 2, 0, None)),
                              np.zeros_like(np.asarray(t)),
                              np.asarray(t)], axis=-1)
    with pytest.raises(EvalError):
        RotationalSigma(RotationalProfile.from_meridian(bad),
                        t_of_z=lambda z: np.asarray(z, float))


def test_sigma_rejects_off_sphere():
    star = clifford()
    with pytest.raises(InvalidInput):
        star.sigma(np.array([2.0, 0.0, 0.0]))



@pytest.mark.parametrize("make", [
    clifford, lambda: symmetric_star(moebius01()),
    lambda: fg_star(power(2), affine(1, -1))])
@pytest.mark.parametrize("q", [[np.nan, 0.0, 0.0],
                               [[1.0, 0.0, 0.0], [0.0, np.nan, 1.0]]])
def test_sigma_rejects_nan_points(make, q):
    with pytest.raises(InvalidInput):
        make().sigma(np.array(q))


@pytest.mark.parametrize("kind,a,c", [("cone", np.nan, 0.0),
                                      ("hyperboloid", 1.0, np.nan)])
def test_surface_entry_rejects_nan_coefficients(kind, a, c):
    with pytest.raises(InvalidInput):
        SurfaceEntry(kind, a=a, c=c)


@pytest.mark.parametrize("kind, a, c, match", [
    ("sphere", 1.0, 0.0, "unknown surface kind"),
    ("cone", 1.0, 0.5, "a cone has c = 0")])
def test_surface_entry_rejects_a_bad_kind_or_cone(kind, a, c, match):
    with pytest.raises(InvalidInput, match=match):
        SurfaceEntry(kind, a=a, c=c)


@pytest.mark.parametrize("t", [-1e-9, 1.0 + 1e-9, np.nan])
def test_entry_at_refuses_a_parameter_outside_the_unit_interval(t):
    with pytest.raises(InvalidInput, match="must lie in"):
        symmetric_star(moebius01()).profile.entry_at(t)


def test_rotational_sigma_rejects_a_nan_height():
    def mer(t):
        t = np.atleast_1d(np.asarray(t, float))
        return meridian_point(np.where((t > 0.5) & (t < 0.6), np.nan, -t))

    with pytest.raises(EvalError, match="not decreasing"):
        RotationalSigma(RotationalProfile.from_meridian(mer),
                        t_of_z=lambda z: -np.asarray(z, float))


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


# --- one point in Python floats, with the bits of a batch row ----------------


def _bits(a):
    return np.asarray(a, float).view(np.uint64)


def _sphere_points():
    """Unit points and points 1e-7 off the unit sphere: random ones in both
    hemispheres, the poles, the equator (z = 0.0 and -0.0) and the points
    just above and below it."""
    rng = np.random.default_rng(28)
    q = rng.normal(size=(300, 3))
    q /= np.linalg.norm(q, axis=1)[:, None]
    edges = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0],
                      [0.6, -0.8, 0.0], [0.6, 0.8, -0.0], [-1.0, 0.0, -0.0],
                      [0.0, 1.0, 1e-300], [0.0, 1.0, -1e-300],
                      [0.8, 0.6, 1e-12], [0.8, 0.6, -1e-12]])
    edges /= np.linalg.norm(edges, axis=1)[:, None]
    return np.vstack([q, edges, q[:20] * (1.0 + 1e-7),
                      q[20:40] * (1.0 - 1e-7)])


def test_sigma_of_one_point_equals_its_batch_row(seven_stars):
    # the upper hemisphere of a rotational star (and of latitudinal's own
    # sigma) is mapped in Python floats; the lower one, which no search
    # reaches, takes the batch; either way a point gets its batch row's bits
    Q = _sphere_points()
    for name, star in seven_stars.items():
        batch = star.sigma(Q)
        for q, row in zip(Q, batch):
            one, one_row = star.sigma(q), star.sigma(q[None, :])
            assert one.shape == (3,) and one_row.shape == (1, 3), name
            np.testing.assert_array_equal(_bits(one), _bits(row),
                                          err_msg=f"{name} {q}")
            np.testing.assert_array_equal(_bits(one_row[0]), _bits(row),
                                          err_msg=f"{name} {q}")
        with pytest.raises(InvalidInput):
            star.sigma(np.array([0.0, 0.0, 1.0 + 2e-6]))


def test_meridian_image_at_one_t_equals_its_batch_row(seven_stars):
    # closed form or fitted map, the ends t = 0 and t = 1 included
    rng = np.random.default_rng(28)
    t = np.concatenate([[0.0, -0.0, 1.0, 1e-300, 1e-12, 1.0 - 1e-12],
                        np.linspace(0.0, 1.0, 257), rng.uniform(0, 1, 500)])
    for name, star in seven_stars.items():
        profile = star.line_profile
        if profile is None:
            continue
        batch = profile.meridian_image(t)
        for x, row in zip(t.tolist(), batch):
            one = profile.meridian_image(x)
            assert all(type(v) is float for v in one), name
            np.testing.assert_array_equal(_bits(one), _bits(row),
                                          err_msg=f"{name} {x}")
            np.testing.assert_array_equal(
                _bits(profile.meridian_image(np.array([x]))), _bits([row]),
                err_msg=f"{name} {x}")


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


def test_surface_mesh_horizontal_star_degenerate():
    verts, faces = surface_mesh(SurfaceEntry("horizontal_star"), 8, 8)
    assert faces.size == 0
    assert np.allclose(verts[:, 1:], 0.0) and np.ptp(verts[:, 0]) == 4.0


def test_surface_mesh_axis_degenerate():
    verts, faces = surface_mesh(SurfaceEntry("axis"), 8, 8)
    assert faces.size == 0
    assert np.allclose(verts[:, :2], 0.0)


def test_surface_mesh_resolution_guard():
    with pytest.raises(InvalidInput):
        surface_mesh(SurfaceEntry("axis"), 1, 8)
