from types import SimpleNamespace

import numpy as np
import pytest

from glstar.constructions import builtin_example, clifford, symmetric_star
from glstar.errors import (
    DegenerateMeet,
    HfdViolation,
    InvalidInput,
    NotZeroSecant,
    SearchFailed,
)
from glstar.functions import moebius01
from glstar.parallelism import (
    _D,
    ParallelClass,
    check_hfd,
    check_torus_fixes_classes,
    check_zero_secants,
    class_from_hfd_line,
    dim_parallelism,
    embed_star,
    make_parallelism,
    parallel_class_of,
    parallel_through,
    span_singular_values,
    spread_line_through,
    star_to_hfd,
    torus_action,
)
from glstar.projgeom import (
    QuadricForm,
    Subspace,
    _orth_rows,
    join,
    join_batch,
    klein_form,
    line_points,
    polar,
    projective_distance,
    signature_on,
)
from glstar.search import StarLineSearch
from glstar.verify import check_coverage

from bad_stars import apex_star, exterior_center_star
from meet_reference import alpha_plane_spread_line

KLEIN = QuadricForm.klein()
SPHERE = QuadricForm.unit_sphere()
Z_AXIS = join((1, 0, 0, 0), (0, 0, 0, 1))
X_AXIS = join((1, 0, 0, 0), (0, 1, 0, 0))

CLIFF = clifford()
BUILTIN = builtin_example()
PAR_CLIFF = make_parallelism(CLIFF)
PAR_BUILTIN = make_parallelism(BUILTIN)


# --- embedding -----------------------------------------------------------------


def test_embedding_signatures():
    es = PAR_CLIFF.es
    assert signature_on(KLEIN, es.U) == (3, 1, 0)
    assert signature_on(KLEIN, es.C) == (0, 2, 0)


def test_iso_preserves_sphere_form():
    es = PAR_CLIFF.es
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        u, v = rng.normal(size=(2, 4))
        lhs = float(es.iso(u) @ KLEIN.matrix @ es.iso(v))
        rhs = float(u @ SPHERE.matrix @ v)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


def test_projection_inverts_iso():
    es = PAR_CLIFF.es
    rng = np.random.default_rng(1)
    w = rng.normal(size=(10, 4))
    back = es.project_sphere_coords(es.iso(w))
    assert np.allclose(back, w)


# --- H family -------------------------------------------------------------------


def test_hfd_line_of_axis():
    # H(Z) is spanned by the embedded images of (0,1,0,0) and (0,0,1,0)
    hfd = PAR_CLIFF.hfd
    S = Subspace.span(hfd.span_at(np.array([1.0]))[0])
    es = PAR_CLIFF.es
    assert S.contains(es.iso(np.array([0.0, 1.0, 0.0, 0.0])))
    assert S.contains(es.iso(np.array([0.0, 0.0, 1.0, 0.0])))


def test_clifford_hfd_is_planar():
    # ordinary star: every H-line lies in the plane spanned by d1, d2, d3
    hfd = PAR_CLIFF.hfd
    plane = Subspace.span(_D.T[:3])
    spans = hfd.samples(40, seed=2).reshape(-1, 6)
    for v in spans:
        assert plane.contains(v, tol=1e-9)


def test_double_polar_round_trip():
    # polar within U is an involution: applying it twice returns the
    # embedded chord span
    es = PAR_BUILTIN.es
    hfd = PAR_BUILTIN.hfd
    rng = np.random.default_rng(3)
    for _ in range(20):
        t, th = rng.random(), rng.uniform(0, 2 * np.pi)
        chord = Subspace.span(es.chord_span_6d(np.array([t]), th)[0])
        h = Subspace.span(hfd.span_at(np.array([t]), th)[0])
        # back through the general polarity: polar(h) is 4-dim, meet with U
        from glstar.projgeom import meet
        W = polar(h, KLEIN)
        back = meet(W, es.U)
        assert back.same_as(chord, tol=1e-7)


def test_zero_secants():
    assert check_zero_secants(PAR_CLIFF.hfd, n=100).passed
    assert check_zero_secants(PAR_BUILTIN.hfd, n=100).passed


def test_zero_secants_fails_on_two_secant():
    # X and the line with Plücker vector e4 (the line at infinity in the
    # plane x = 0) are skew: the span of their Klein points meets K twice
    spans = PAR_BUILTIN.hfd.samples(30, seed=4).copy()
    spans[17] = [X_AXIS.p, [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]]
    assert klein_form(spans[17, 0], spans[17, 1]) != 0.0
    stub = SimpleNamespace(samples=lambda n, seed=0: spans[:n])
    r = check_zero_secants(stub, n=30)
    assert not r.passed and r.witness == (17,)
    assert r.max_residual < 0.0


# --- classes and spreads -----------------------------------------------------------


def test_class_signature_and_polarity():
    # the spread 3-spaces cut K in an elliptic quadric: their vector type is
    # (1,3), the opposite of U's (3,1) (flip the sign of g to swap the two)
    hfd = PAR_BUILTIN.hfd
    rng = np.random.default_rng(4)
    for _ in range(10):
        h = hfd.span_at(np.array([rng.random()]), rng.uniform(0, 2 * np.pi))[0]
        cls = class_from_hfd_line(PAR_BUILTIN.es, h)
        assert signature_on(KLEIN, cls.W) == (1, 3, 0)
        # W's polar is h again
        assert polar(cls.W, KLEIN).same_as(Subspace.span(h), tol=1e-7)


def test_class_rejects_secant_line():
    # a line of P^5 spanned by two Klein points is not a 0-secant
    span = np.vstack([X_AXIS.p, Z_AXIS.p])
    with pytest.raises(NotZeroSecant):
        class_from_hfd_line(PAR_CLIFF.es, span)


@pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-3, 5e-3, 1.0 - 1e-6])
def test_class_of_h_line_near_horizontal_star(seven_stars, t):
    # the RREF basis of these H-lines has entries up to about 2e4, which
    # once pushed the Klein form's eigenvalue ratio below the cutoff and,
    # near both ends of t, gave the polar a fifth null vector
    for name, star in seven_stars.items():
        hfd = star_to_hfd(embed_star(star))
        for theta in (0.0, 1.0, 4.0):
            cls = class_from_hfd_line(hfd.es, hfd.span_at(t, theta)[0])
            assert signature_on(KLEIN, cls.W) == (1, 3, 0), (name, theta)


FIXED_LINE = join((1.0, 0.165440, 0.119572, -0.168525),
                  (1.0, -0.472403, 1.092162, -0.405832))
FIXED_POINT = np.array([1.0, -0.037437, 0.588276, -0.462042])


@pytest.mark.parametrize("name", ["fg", "latitudinal", "clifford-off"])
def test_parallel_through_class_near_horizontal_star(seven_stars, name):
    # the class of FIXED_LINE has its star line at t of about 1e-4
    par = make_parallelism(seven_stars[name])
    M = parallel_through(par, FIXED_POINT, FIXED_LINE)
    assert abs(klein_form(M.p, M.p)) < 1e-12 * float(M.p @ M.p)
    span = np.vstack([pt.coords for pt in line_points(M)])
    rej = FIXED_POINT - span.T @ np.linalg.lstsq(span.T, FIXED_POINT,
                                                 rcond=None)[0]
    assert np.linalg.norm(rej) < 1e-9
    a, b = line_points(FIXED_LINE)
    back = parallel_through(par, a.coords + 0.7 * b.coords, M)
    assert projective_distance(back.p, FIXED_LINE.p) < 1e-8


def test_spread_line_through_own_point():
    cls = parallel_class_of(PAR_CLIFF, Z_AXIS)
    L = spread_line_through(cls, np.array([1.0, 0.0, 0.0, 0.0]))
    assert projective_distance(L.p, Z_AXIS.p) < 1e-8


def test_spread_line_disjoint_from_axis():
    cls = parallel_class_of(PAR_CLIFF, Z_AXIS)
    p = np.array([1.0, 1.0, 0.0, 0.0])
    L = spread_line_through(cls, p)
    a, b = line_points(L)
    span = np.vstack([a.coords, b.coords])
    rej = p - span.T @ np.linalg.lstsq(span.T, p, rcond=None)[0]
    assert np.linalg.norm(rej) < 1e-8  # contains p
    assert abs(klein_form(L, Z_AXIS)) > 1e-3  # disjoint from Z


def test_spread_lines_contain_their_points():
    cls = parallel_class_of(PAR_BUILTIN, Z_AXIS)
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = rng.normal(size=4)
        L = spread_line_through(cls, p)
        a, b = line_points(L)
        span = np.vstack([a.coords, b.coords])
        rej = p - span.T @ np.linalg.lstsq(span.T, p, rcond=None)[0]
        assert np.linalg.norm(rej) < 1e-8 * np.linalg.norm(p)


def test_spread_disjointness():
    cls = parallel_class_of(PAR_BUILTIN, Z_AXIS)
    rng = np.random.default_rng(6)
    for _ in range(50):
        p, q = rng.normal(size=(2, 4))
        L1 = spread_line_through(cls, p)
        L2 = spread_line_through(cls, q)
        if projective_distance(L1.p, L2.p) < 1e-9:
            continue
        g = abs(klein_form(L1, L2))
        assert g > 1e-8 * np.linalg.norm(L1.p) * np.linalg.norm(L2.p)


# --- spread lines: the two-plane closed form against the alpha-plane meet ----


def _line_distance(k, l):
    k = k / np.linalg.norm(k)
    l = l / np.linalg.norm(l)
    return float(np.linalg.norm(l - (l @ k) * k))


def _rejection(p, k):
    """Distance of p from the line k, relative to |p|: p minus its
    least-squares fit by two spanning points."""
    span = np.vstack([pt.coords for pt in line_points(k)])
    rej = p - span.T @ np.linalg.lstsq(span.T, p, rcond=None)[0]
    return float(np.linalg.norm(rej) / np.linalg.norm(p))


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_spread_lines_match_the_alpha_plane_reference(seven_stars, seed):
    rng = np.random.default_rng(seed)
    for name, star in seven_stars.items():
        par = make_parallelism(star)
        ts = [1e-6, 1e-4, 0.999, 1.0 - 1e-6, *rng.random(3)]
        for t in ts:
            h = par.hfd.span_at(t, rng.uniform(0.0, 2.0 * np.pi))[0]
            cls = class_from_hfd_line(par.es, h)
            for p in rng.normal(size=(4, 4)):
                L = spread_line_through(cls, p)
                ref = alpha_plane_spread_line(cls, p)
                assert _line_distance(L.p, ref.p) <= 1e-10, (name, t)
                assert _rejection(p, L) <= 1e-10, (name, t)
                k = L.p / np.linalg.norm(L.p)
                for row in cls.h_span:
                    assert abs(klein_form(k, row)) <= 1e-12, (name, t)


def test_spread_line_through_a_point_on_an_h_row_is_degenerate():
    # an h row that is a real line through p kills the first plane P*(h1) p
    p = np.array([1.0, 0.3, -0.2, 0.5])
    h1 = join_batch(p, np.array([0.2, 1.0, 0.4, -0.7]))
    h2 = PAR_BUILTIN.hfd.span_at(0.4, 1.0)[0, 1]
    stub = ParallelClass(es=PAR_BUILTIN.es,
                         h_span=np.vstack([h1 / np.linalg.norm(h1), h2]),
                         W=None)
    with pytest.raises(DegenerateMeet):
        spread_line_through(stub, p)
    with pytest.raises(DegenerateMeet):
        spread_line_through(stub, 1e-30 * p)


def test_class_h_span_is_orthonormal():
    for t in (1e-6, 0.5, 1.0 - 1e-6):
        cls = class_from_hfd_line(PAR_BUILTIN.es,
                                  PAR_BUILTIN.hfd.span_at(t, 0.3)[0])
        assert np.abs(cls.h_span @ cls.h_span.T - np.eye(2)).max() < 1e-14


def test_contains_klein_matches_w_contains(seven_stars):
    rng = np.random.default_rng(4)
    for name, star in seven_stars.items():
        par = make_parallelism(star)
        for t in (1e-6, 0.3, 1.0 - 1e-6):
            cls = class_from_hfd_line(par.es, par.hfd.span_at(t, 2.0)[0])
            Q = _orth_rows(cls.W.basis)
            for k in rng.normal(size=(5, 6)):
                # the closed form is W's rejection, and both tests agree on
                # either side of it
                rej = np.linalg.norm(k - Q.T @ (Q @ k)) / np.linalg.norm(k)
                closed = 2.0 * np.linalg.norm(
                    cls.h_span @ KLEIN.matrix @ k) / np.linalg.norm(k)
                assert abs(closed - rej) < 1e-14, name
                for tol in (rej * (1 - 1e-9), rej * (1 + 1e-9)):
                    assert cls.contains_klein(k, tol=tol) == \
                        cls.W.contains(k, tol=tol), name
            L = spread_line_through(cls, rng.normal(size=4))
            assert cls.contains_klein(L.p) and cls.W.contains(L.p, tol=1e-7)


# --- parallel queries ----------------------------------------------------------------


def test_parallel_class_contains_query_line():
    for par, L in ((PAR_CLIFF, Z_AXIS), (PAR_CLIFF, X_AXIS),
                   (PAR_BUILTIN, Z_AXIS), (PAR_BUILTIN, X_AXIS)):
        cls = parallel_class_of(par, L)
        assert cls.contains_klein(L.p)


def test_parallel_through_point_on_line():
    out = parallel_through(PAR_BUILTIN, np.array([1.0, 0, 0, 0.5]), Z_AXIS)
    assert projective_distance(out.p, Z_AXIS.p) < 1e-12


def test_parallel_through_on_line_threshold():
    # p is on L when its rejection from L is below 1e-9 |p|
    a, b = np.array([1.0, 0.2, 0.1, 0.4]), np.array([0.3, -1.0, 0.5, 0.2])
    L = join(a, b)
    n = np.linalg.svd(np.vstack([a, b]))[2][2]  # unit normal to the span
    for eps, on in ((0.5e-9, True), (2e-9, False)):
        p = a + 0.7 * b
        p = p + eps * np.linalg.norm(p) * n
        assert abs(_rejection(p, L) - eps) < 1e-3 * eps
        out = parallel_through(PAR_BUILTIN, p, L)
        assert (out is L) == on
        assert _rejection(p, out) < 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_queries_reject_non_finite_input(bad):
    p = np.array([1.0, bad, 0.0, 0.0])
    k = Z_AXIS.p.copy()
    k[1] = bad
    with pytest.raises(InvalidInput, match="point"):
        parallel_through(PAR_BUILTIN, p, Z_AXIS)
    with pytest.raises(InvalidInput, match="line"):
        parallel_through(PAR_BUILTIN, np.array([1.0, 1.0, 0.0, 0.0]), k)
    with pytest.raises(InvalidInput, match="line"):
        parallel_class_of(PAR_BUILTIN, k)


def test_parallel_through_clifford():
    p = np.array([1.0, 1.0, 0.0, 0.0])
    out = parallel_through(PAR_CLIFF, p, Z_AXIS)
    a, b = line_points(out)
    span = np.vstack([a.coords, b.coords])
    rej = p - span.T @ np.linalg.lstsq(span.T, p, rcond=None)[0]
    assert np.linalg.norm(rej) < 1e-8
    cls = parallel_class_of(PAR_CLIFF, Z_AXIS)
    assert cls.contains_klein(out.p, tol=1e-7)


def test_parallel_partition_property():
    # lines in one class have identical parallels through a common point
    rng = np.random.default_rng(7)
    cls = parallel_class_of(PAR_BUILTIN, Z_AXIS)
    p = np.array([1.0, 0.4, -0.2, 0.9])
    M = spread_line_through(cls, rng.normal(size=4))
    left = parallel_through(PAR_BUILTIN, p, Z_AXIS)
    right = parallel_through(PAR_BUILTIN, p, M)
    assert projective_distance(left.p, right.p) < 1e-8


def test_parallel_continuity_probe():
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = rng.normal(size=4)
        q1, q2 = rng.normal(size=(2, 4))
        L = join(q1, q2)
        base = parallel_through(PAR_BUILTIN, p, L)
        Lp = join(q1 + 1e-6 * rng.normal(size=4), q2 + 1e-6 * rng.normal(size=4))
        out = parallel_through(PAR_BUILTIN, p + 1e-6 * rng.normal(size=4), Lp)
        assert projective_distance(base.p, out.p) < 1e-4


# --- dimension ------------------------------------------------------------------------


def test_dim_clifford_two():
    assert dim_parallelism(PAR_CLIFF.hfd) == 2


def test_dim_builtin_three():
    assert dim_parallelism(PAR_BUILTIN.hfd) == 3


def test_dim_symmetric_three():
    par = make_parallelism(symmetric_star(moebius01()))
    assert dim_parallelism(par.hfd) == 3


def test_dim_parallelism_needs_ten_samples():
    with pytest.raises(InvalidInput, match="need at least 10 samples"):
        dim_parallelism(PAR_BUILTIN.hfd, n=9)
    with pytest.raises(ValueError):  # InvalidInput is a ValueError
        dim_parallelism(PAR_BUILTIN.hfd, n=0)


def test_rank_gap():
    s = span_singular_values(PAR_BUILTIN.hfd, n=60)
    assert s[3] / max(s[4], 1e-300) > 1e6


# --- hfd property -----------------------------------------------------------------------


def test_check_hfd_passes():
    assert check_hfd(PAR_CLIFF, n=40).passed
    assert check_hfd(PAR_BUILTIN, n=40).passed


@pytest.mark.parametrize("check,kwargs", [
    (lambda **kw: check_hfd(PAR_CLIFF, **kw), {"n": 0}),
    (lambda **kw: check_hfd(PAR_CLIFF, **kw), {"n": -3}),
    (lambda **kw: check_hfd(PAR_CLIFF, **kw), {"seed": -1}),
    (lambda **kw: check_hfd(PAR_CLIFF, **kw), {"tol": 0.0}),
    (lambda **kw: check_zero_secants(PAR_CLIFF.hfd, **kw), {"n": 0}),
    (lambda **kw: check_zero_secants(PAR_CLIFF.hfd, **kw), {"seed": -1}),
    (lambda **kw: check_torus_fixes_classes(PAR_CLIFF.es, **kw), {"n": 0}),
    (lambda **kw: check_torus_fixes_classes(PAR_CLIFF.es, **kw),
     {"n_theta": 0}),
    (lambda **kw: check_torus_fixes_classes(PAR_CLIFF.es, **kw),
     {"seed": -1}),
])
def test_klein_checks_validate_sampling(check, kwargs):
    # never a PASS on no samples, nor numpy's own error
    with pytest.raises(InvalidInput):
        check(**kwargs)


def test_hfd_violation_detected():
    # cones with apexes rising from 0.3 to 0.4 cross outside the sphere: the
    # tangent hyperplane of the witness line holds the H-lines of two of them
    fake = make_parallelism(apex_star(lambda t: 0.3 + 0.1 * t))
    report = check_hfd(fake)
    assert not report.passed
    assert report.max_residual == 2.0
    with pytest.raises(HfdViolation):
        parallel_class_of(fake, np.asarray(report.witness))


def test_non_rotational_star_without_structure_fails_search():
    # no centre, no profile and a sigma that does not commute with rotations
    # about Z: the search has no path for it and says so, never a PASS
    star = exterior_center_star()
    fake = make_parallelism(star)
    with pytest.raises(SearchFailed):
        StarLineSearch(star).find_batch(np.array([[1.0, 2.0, 0.0, 0.0]]))
    with pytest.raises(SearchFailed):
        check_coverage(star)
    with pytest.raises(SearchFailed):
        parallel_class_of(fake, Z_AXIS)


# --- torus action -----------------------------------------------------------------------


def test_torus_fixes_classes():
    assert check_torus_fixes_classes(PAR_CLIFF.es, n=20).passed
    assert check_torus_fixes_classes(PAR_BUILTIN.es, n=20).passed


def test_torus_is_isometry():
    G = KLEIN.matrix
    for th in np.linspace(0, 2 * np.pi, 9):
        tau = torus_action(th)
        assert np.abs(tau.T @ G @ tau - G).max() < 1e-12


def test_mixing_rotation_moves_lines():
    # rotating in the (d4, d5) plane is also a g-isometry but does not fix
    # the H family linewise
    th = 0.7
    R = np.eye(6)
    c, s = np.cos(th), np.sin(th)
    R[3:5, 3:5] = [[c, -s], [s, c]]
    from glstar.parallelism import _D_INV
    tau = _D @ R @ _D_INV
    G = KLEIN.matrix
    assert np.abs(tau.T @ G @ tau - G).max() < 1e-12
    spans = PAR_BUILTIN.hfd.samples(10, seed=9)
    moved = 0.0
    for S in spans:
        Q = S / np.linalg.norm(S, axis=1, keepdims=True)
        mapped = Q @ tau.T
        rej = mapped - (mapped @ Q.T) @ Q
        moved = max(moved, float(np.linalg.norm(rej, axis=1).max()))
    assert moved > 1e-3
