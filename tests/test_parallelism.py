import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from glstar.constructions import (
    builtin_example,
    clifford,
    fg_star,
    symmetric_star,
)
from glstar.errors import (
    DegenerateMeet,
    EvalError,
    HfdViolation,
    InvalidInput,
    NotZeroSecant,
    SearchFailed,
)
from glstar.functions import identity, moebius01, neg_circle
from glstar.parallelism import (
    _D,
    EmbeddedStar,
    HfdLineSet,
    ParallelClass,
    _hits_for_lines,
    _secant_ratio,
    check_hfd,
    check_torus_fixes_classes,
    check_zero_secants,
    class_from_hfd_line,
    dim_parallelism,
    make_parallelism,
    parallel_class_of,
    parallel_through,
    span_singular_values,
    spread_line_through,
    torus_action,
)
from glstar.projgeom import (
    PLine,
    QuadricForm,
    Subspace,
    join,
    join_batch,
    klein_form,
    line_points,
    polar,
    projective_distance,
    signature_on,
)
from glstar.search import StarLineSearch
from glstar.verify import check_coverage, run_star_checks

from bad_stars import (
    apex_star,
    exterior_center_star,
    nan_capped_star,
    near_identity_star,
)
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


def test_embedding_subspaces_are_orthonormal_constants():
    assert PAR_CLIFF.es.U is PAR_BUILTIN.es.U is EmbeddedStar.U
    for S in (EmbeddedStar.U, EmbeddedStar.C):
        assert np.abs(S.basis @ S.basis.T - np.eye(S.rank)).max() < 1e-15
    assert EmbeddedStar.U.rank == 4 and EmbeddedStar.C.rank == 2


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
        A, B = es.star.chord(np.array([t]), th)
        chord = Subspace.span(es.iso(np.vstack([A, B])))
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


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_zero_secants_passes_exactly_when_every_class_is_built(eps):
    # normalize(q + eps e_x): the H-lines near-touch K more closely as eps
    # falls; the check and the class decide by the same eigenvalue ratio
    hfd = HfdLineSet(EmbeddedStar(near_identity_star(eps)))
    refused = 0
    for h in hfd.samples(200, seed=0):
        try:
            class_from_hfd_line(h)
        except NotZeroSecant:
            refused += 1
    assert check_zero_secants(hfd).passed == (refused == 0), (eps, refused)


# --- classes and spreads -----------------------------------------------------------


def test_class_signature_and_polarity():
    # the spread 3-spaces cut K in an elliptic quadric: their vector type is
    # (1,3), the opposite of U's (3,1) (flip the sign of g to swap the two)
    hfd = PAR_BUILTIN.hfd
    rng = np.random.default_rng(4)
    for _ in range(10):
        h = hfd.span_at(np.array([rng.random()]), rng.uniform(0, 2 * np.pi))[0]
        cls = class_from_hfd_line(h)
        assert signature_on(KLEIN, cls.W) == (1, 3, 0)
        # W's polar is h again
        assert polar(cls.W, KLEIN).same_as(Subspace.span(h), tol=1e-7)


def test_class_rejects_secant_line():
    # a line of P^5 spanned by two Klein points is not a 0-secant
    span = np.vstack([X_AXIS.p, Z_AXIS.p])
    with pytest.raises(NotZeroSecant):
        class_from_hfd_line(span)


def test_class_rejects_near_rank_one_span():
    # a second singular value 1e-11 of the first spans only a point
    r = np.random.default_rng(5)
    U, _ = np.linalg.qr(r.normal(size=(2, 2)))
    V, _ = np.linalg.qr(r.normal(size=(6, 2)))
    with pytest.raises(NotZeroSecant):
        class_from_hfd_line(U @ np.diag([1.0, 1e-11]) @ V.T)


# orthonormal bases of g's eigenspaces, g = 1/2 on the first, -1/2 on the second
_G_POS = _D.T[:3] / np.sqrt(2.0)
_G_NEG = _D.T[3:] / np.sqrt(2.0)


def definite_plane(ratio, sign, rng):
    """Orthonormal rows of a 2-plane on which sign * g has eigenvalues 1/2
    and ratio / 2: u1 in one eigenspace of g, u2 = cos phi p + sin phi n
    with cos 2 phi = ratio, then a random rotation within the plane."""
    same, other = (_G_POS, _G_NEG) if sign > 0 else (_G_NEG, _G_POS)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    u1, p = Q[:, :2].T @ same
    n = Q[:, 2] @ other
    phi = 0.5 * np.arccos(ratio)
    a = rng.uniform(0.0, 2.0 * np.pi)
    R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    return R @ np.vstack([u1, np.cos(phi) * p + np.sin(phi) * n])


@pytest.mark.parametrize("sign", [1, -1])
def test_definite_h_line_has_elliptic_polar(sign):
    # the class runs no test on W: by Sylvester's law of inertia the polar
    # of a definite h has signature (3,3) - sig(h), and the Klein signature
    # of h accepts exactly the planes whose eigenvalue ratio clears 1e-8
    rng = np.random.default_rng(11)
    elliptic = (1, 3, 0) if sign > 0 else (3, 1, 0)
    for ratio in (1.1e-8, 2e-8, 1e-6, 1e-3, 0.5, 1.0):
        for _ in range(100):
            h = definite_plane(ratio, sign, rng)
            cls = class_from_hfd_line(h)
            assert signature_on(KLEIN, cls.W) == elliptic, ratio
    for ratio in (9e-9, 1e-12, 0.0, -0.5):
        for _ in range(100):
            with pytest.raises(NotZeroSecant):
                class_from_hfd_line(definite_plane(ratio, sign, rng))


def test_class_same_as():
    h = PAR_BUILTIN.hfd.span_at(0.3, 1.0)[0]
    cls = class_from_hfd_line(h)
    c, s = np.cos(0.7), np.sin(0.7)
    moved = np.diag([3.0, 1e-3]) @ np.array([[c, -s], [s, c]]) @ h
    again = class_from_hfd_line(moved)
    assert cls.same_as(again) and again.same_as(cls)
    near = class_from_hfd_line(PAR_BUILTIN.hfd.span_at(0.31, 1.0)[0])
    assert not cls.same_as(near) and not near.same_as(cls)


@pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-3, 5e-3, 1.0 - 1e-6])
def test_class_of_h_line_near_horizontal_star(seven_stars, t):
    # a row-echelon basis of these H-lines had entries up to about 2e4,
    # which pushed the Klein form's eigenvalue ratio below the cutoff and,
    # near both ends of t, gave the polar a fifth null vector
    for name, star in seven_stars.items():
        hfd = HfdLineSet(EmbeddedStar(star))
        for theta in (0.0, 1.0, 4.0):
            cls = class_from_hfd_line(hfd.span_at(t, theta)[0])
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
            cls = class_from_hfd_line(h)
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
    stub = ParallelClass(h_span=np.vstack([h1 / np.linalg.norm(h1), h2]))
    with pytest.raises(DegenerateMeet):
        spread_line_through(stub, p)
    with pytest.raises(DegenerateMeet):
        spread_line_through(stub, 1e-30 * p)


def test_class_h_span_is_orthonormal():
    for t in (1e-6, 0.5, 1.0 - 1e-6):
        cls = class_from_hfd_line(PAR_BUILTIN.hfd.span_at(t, 0.3)[0])
        assert np.abs(cls.h_span @ cls.h_span.T - np.eye(2)).max() < 1e-14


def test_contains_klein_matches_w_contains(seven_stars):
    rng = np.random.default_rng(4)
    for name, star in seven_stars.items():
        par = make_parallelism(star)
        for t in (1e-6, 0.3, 1.0 - 1e-6):
            cls = class_from_hfd_line(par.hfd.span_at(t, 2.0)[0])
            Q = cls.W.basis
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


def test_contains_klein_refuses_a_vector_that_is_no_klein_vector():
    cls = class_from_hfd_line(PAR_BUILTIN.hfd.span_at(0.3, 2.0)[0])
    for k in (np.ones(4), np.ones(7), np.ones((2, 6))):
        with pytest.raises(InvalidInput):
            cls.contains_klein(k)


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


def test_parallel_through_answers_huge_points_without_overflow():
    # p is scaled by a power of two where it enters, which is exact: a point
    # and its multiple by 2^40 get the same answer, bit for bit, and a
    # point whose squared norm overflows answers with no warning, as the
    # same point given as (1e-300, 1, 0, 0) does
    L = join(np.array([1.0, 0.2, 0.1, 0.3]), np.array([1.0, -0.3, 0.5, 0.1]))
    p = np.array([1.0, 0.4, -0.2, 0.9])
    assert (parallel_through(PAR_BUILTIN, p, L).p.tobytes()
            == parallel_through(PAR_BUILTIN, np.ldexp(p, 40), L).p.tobytes())
    ref = parallel_through(PAR_BUILTIN, np.array([1e-300, 1.0, 0.0, 0.0]), L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e160, 1e300):
            out = parallel_through(PAR_BUILTIN, np.array([1.0, x, 0.0, 0.0]), L)
            assert projective_distance(out.p, ref.p) < 1e-12


def test_spread_line_through_scales_its_own_point():
    # a direct call scales p by a power of two too: a huge point answers
    # without an overflow warning and a tiny one without a spurious
    # DegenerateMeet, each with the line parallel_through gives (which
    # passes the scaled point, and scaling it again keeps its bits)
    L = join(np.array([1.0, 0.2, 0.1, 0.3]), np.array([1.0, -0.3, 0.5, 0.1]))
    cls = parallel_class_of(PAR_BUILTIN, L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in ([1.0, 1e300, 0.0, 0.0], [1e-310, 1e-310, 0.0, 0.0],
                  [1.0, 0.4, -0.2, 0.9]):
            p = np.array(p)
            out = spread_line_through(cls, p)
            assert (out.p.tobytes()
                    == parallel_through(PAR_BUILTIN, p, L).p.tobytes())


def test_parallel_through_answers_huge_and_tiny_lines():
    # L's Plücker vector is scaled by a power of two where it enters, and
    # PLine tests a scaled copy: a line scaled by 2^531 or 2^-664 (about
    # 1e160 and 1e-200) gets the unscaled answer bit for bit, and one scaled
    # by 1e160 or 1e-200 answers with no warning, and not with L itself
    k = join(np.array([1.0, 0.2, 0.1, 0.3]),
             np.array([1.0, -0.3, 0.5, 0.1])).p
    p = np.array([1.0, 0.4, -0.2, 0.9])
    ref = parallel_through(PAR_BUILTIN, p, PLine(k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in (531, -664):
            out = parallel_through(PAR_BUILTIN, p, PLine(np.ldexp(k, e)))
            assert out.p.tobytes() == ref.p.tobytes()
        for scale in (1e160, 1e-200):
            L = PLine(k * scale)
            out = parallel_through(PAR_BUILTIN, p, L)
            assert out is not L
            assert projective_distance(out.p, ref.p) < 1e-12


def test_parallel_class_of_answers_huge_and_tiny_lines():
    # parallel_class_of scales L's Plücker vector by a power of two where it
    # enters: 2^531 and 2^-664 give the unscaled class bit for bit, and
    # 1e160 and 1e-200 a class within 1e-12 of it, with no warning
    k = join(np.array([1.0, 0.9, -1.2, 0.7]),
             np.array([1.0, -0.3, 0.5, 0.1])).p
    ref = parallel_class_of(PAR_BUILTIN, PLine(k)).h_span
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in (531, -664):
            out = parallel_class_of(PAR_BUILTIN, PLine(np.ldexp(k, e)))
            assert out.h_span.tobytes() == ref.tobytes()
        for scale in (1e160, 1e-200):
            out = parallel_class_of(PAR_BUILTIN, PLine(k * scale))
            assert np.abs(out.h_span - ref).max() < 1e-12


def test_mixed_scale_lines_each_get_their_own_hits():
    # the projection guard compares each row with its own norm: a row
    # scaled by 1e13 leaves the other row its single answer, bit for bit
    K = join_batch(*np.random.default_rng(3).normal(size=(2, 2, 4)))
    K[0] *= 1e13
    hits = _hits_for_lines(PAR_BUILTIN, K)
    for j, row in enumerate(hits):
        one = _hits_for_lines(PAR_BUILTIN, K[j:j + 1])[0]
        assert len(row) == len(one) == 1
        assert ([row[0].t, row[0].theta, row[0].residual]
                == [one[0].t, one[0].theta, one[0].residual])
        assert row[0].A.tobytes() == one[0].A.tobytes()
        assert row[0].B.tobytes() == one[0].B.tobytes()


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


def test_queries_reject_the_zero_point():
    # as HPoint and find_batch do: the input is refused, not the planes
    cls = parallel_class_of(PAR_BUILTIN, Z_AXIS)
    for p in (np.zeros(4), -np.zeros(4)):
        with pytest.raises(InvalidInput, match="zero vector is no point"):
            parallel_through(PAR_BUILTIN, p, Z_AXIS)
        with pytest.raises(InvalidInput, match="zero vector is no point"):
            spread_line_through(cls, p)


def test_parallel_through_calls_a_sign_callable_with_a_float():
    # a regulus-sign callable is called with one Python float t on the
    # single-point path, as the builders' docstrings say; np.asarray makes
    # this one, written for arrays, take it.  All chords of this fg star are
    # cones, so its eps may switch, and its lines are clifford's.
    seen = []

    def eps(t):
        seen.append(type(t))
        return np.where(np.asarray(t) < 0.5, -1.0, 1.0)

    par = make_parallelism(fg_star(identity(), neg_circle(), eps=eps))
    seen.clear()
    rng = np.random.default_rng(11)
    for _ in range(8):
        p, L = rng.normal(size=4), join(*rng.normal(size=(2, 4)))
        assert parallel_through(par, p, L) == parallel_through(PAR_CLIFF, p, L)
    assert float in seen


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
    (lambda **kw: dim_parallelism(PAR_CLIFF.hfd, **kw), {"seed": -1}),
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


# --- one chord per located star line ----------------------------------------


def test_class_from_the_hit_chord_equals_span_at(seven_stars):
    # the chord the search located gives, bit for bit, the class of the
    # H-line that span_at evaluates again from the hit's (t, theta), its
    # orthogonal rows of norm sqrt(2) scaled to unit length; random lines
    # as in check_hfd
    K = join_batch(*np.random.default_rng(0).normal(size=(2, 20, 4)))
    for name, star in seven_stars.items():
        P = make_parallelism(star)
        for k in K:
            hits = P.search.find(P.es.project_sphere_coords(k))
            assert len(hits) == 1, name
            ref = class_from_hfd_line(Subspace(
                P.hfd.span_at(hits[0].t, hits[0].theta)[0] / np.sqrt(2.0)))
            np.testing.assert_array_equal(parallel_class_of(P, k).h_span,
                                          ref.h_span, err_msg=name)


def test_span_at_is_the_polar_of_the_chord(seven_stars):
    rng = np.random.default_rng(5)
    t, theta = rng.random(64), rng.uniform(0.0, 2.0 * np.pi, 64)
    for name, star in seven_stars.items():
        hfd = make_parallelism(star).hfd
        np.testing.assert_array_equal(hfd.span_at(t, theta),
                                      hfd.polar(*star.chord(t, theta)),
                                      err_msg=name)


def counting_sigma(star):
    """The star with a sigma that records each call, and the record."""
    calls = []

    def sigma_fn(q):
        calls.append(np.shape(q))
        return star.sigma_fn(q)

    return replace(star, sigma_fn=sigma_fn), calls


@pytest.mark.parametrize("name,n_calls", [
    ("builtin", 1), ("symmetric", 1), ("clifford", 1)])
def test_parallel_query_sigma_calls(seven_stars, name, n_calls):
    # both paths evaluate sigma for the located chord only: the profile
    # path takes its azimuth chord from the profile's meridian map, and the
    # H-line reuses the located chord
    star, calls = counting_sigma(seven_stars[name])
    P = make_parallelism(star)
    rng = np.random.default_rng(2)
    L = join(*rng.normal(size=(2, 4)))
    parallel_through(P, rng.normal(size=4), L)
    assert len(calls) == n_calls


def test_non_finite_chord_is_an_eval_error():
    # a NaN endpoint reaches no SVD: the Klein checks and the dimension
    # raise EvalError
    star = nan_capped_star()
    for check in ("zero_secants", "torus_fixes_classes"):
        with pytest.raises(EvalError, match="non-finite"):
            run_star_checks(star, checks=[check])
    with pytest.raises(EvalError, match="non-finite"):
        dim_parallelism(make_parallelism(star).hfd)


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


# --- closed forms: the H-line and the 0-secant ratio ---------------------------


def _svd_polar(A, B):
    """The H-lines of the chords A v B by numpy's SVD: the null directions
    of each 2x4 pairing under diag(1, 1, 1, -1), carried into R^6."""
    d = [1, 2, 3, 0]
    S4 = np.diag([1.0, 1.0, 1.0, -1.0])
    _, _, vt = np.linalg.svd(np.stack([A[:, d] @ S4, B[:, d] @ S4], axis=1))
    ext = np.zeros((len(A), 2, 6))
    ext[:, :, :4] = vt[:, 2:]
    return ext @ _D.T


def _eigvalsh_ratio(spans):
    """The smaller over the larger |eigenvalue| of g on each span, signed,
    by numpy's eigvalsh."""
    w = np.linalg.eigvalsh(spans @ KLEIN.matrix @ spans.transpose(0, 2, 1))
    return np.where(np.abs(w[:, 0]) <= np.abs(w[:, 1]), w[:, 0] / w[:, 1],
                    w[:, 1] / w[:, 0])


def test_closed_forms_agree_with_svd_and_eigvalsh(seven_stars):
    # the 200-chord sample of check_zero_secants: the same line as the SVD's
    # (orthogonal projectors), rows orthogonal of norm sqrt(2), and the
    # same ratio as eigvalsh of the SVD's rows
    for name, star in seven_stars.items():
        rng = np.random.default_rng(0)
        A, B = star.chord(rng.random(200), rng.uniform(0, 2 * np.pi, 200))
        spans = make_parallelism(star).hfd.polar(A, B)
        ref = _svd_polar(A, B)
        proj = [S.transpose(0, 2, 1) @ S / 2.0 for S in (spans, ref)]
        assert np.abs(proj[0] - proj[1]).max() <= 2e-15, name
        gram = spans @ spans.transpose(0, 2, 1)
        assert np.abs(gram - 2.0 * np.eye(2)).max() <= 2e-15, name
        ratio = _secant_ratio(spans)
        assert np.abs(ratio - _eigvalsh_ratio(ref)).max() <= 4e-15, name


def test_h_line_rows_are_functions_of_the_line():
    # the chord's ends swapped, negated or scaled by powers of two, however
    # large or small, give the same bits
    A, B = BUILTIN.chord(np.array([0.3, 0.7]), np.array([1.0, 4.0]))
    hfd = PAR_BUILTIN.hfd
    ref = hfd.polar(A, B)
    for X, Y in ((B, A), (-A, B), (np.ldexp(A, 600), np.ldexp(B, -600)),
                 (np.ldexp(A, -900), B)):
        np.testing.assert_array_equal(hfd.polar(X, Y), ref)
        np.testing.assert_array_equal(hfd.polar(X[1], Y[1])[0], ref[1])


def test_ratio_of_a_totally_isotropic_span_is_nan():
    # g vanishes on span{e1, e2}: p = q = r = 0, in floats a division by
    # zero that the batch answers
    span = np.array([[[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]]])
    assert np.isnan(_secant_ratio(span)).all()
    assert np.isnan(_secant_ratio(np.concatenate([span, span]))).all()


def test_coincident_chord_ends_are_an_eval_error():
    A, B = BUILTIN.chord(np.array([0.3, 0.7]), np.array([1.0, 4.0]))
    hfd = PAR_BUILTIN.hfd
    for X, Y in ((A[0], A[0]), (A[0], 3.0 * A[0]), (np.zeros(4), B[0]),
                 (A, np.stack([B[0], A[1]])), (A, np.stack([B[0], 0 * B[1]]))):
        with pytest.raises(EvalError, match="coincident"):
            hfd.polar(X, Y)
    with pytest.raises(EvalError, match="non-finite"):
        hfd.polar(A, np.stack([B[0], np.full(4, np.inf)]))


def test_class_from_a_span_of_the_wrong_shape_is_refused():
    for h in (np.ones((2, 4)), np.ones(5)):
        with pytest.raises(NotZeroSecant, match=r"\(2, 6\)"):
            class_from_hfd_line(h)


def test_query_that_projects_to_zero_in_u_fails():
    # a vector of C = span{d5, d6} has no part in the star 3-space U
    for k in (_D[:, 4], _D[:, 4] + 2.0 * _D[:, 5]):
        with pytest.raises(SearchFailed, match="projects to zero"):
            parallel_class_of(PAR_BUILTIN, k)


def test_line_with_no_star_line_in_its_tangent_hyperplane_fails():
    # the vertical-chord star: a line whose Klein point projects to the
    # sphere point (2, 0, 0), off the cylinder of its star lines (a point
    # of U with sphere form 3, and 3 of C's negative form added)
    from bad_stars import vertical_chord_star

    par = make_parallelism(vertical_chord_star())
    k = par.es.iso(np.array([1.0, 2.0, 0.0, 0.0])) + np.sqrt(3.0) * _D[:, 4]
    with pytest.raises(SearchFailed, match="no H-line found"):
        parallel_class_of(par, PLine(k))
