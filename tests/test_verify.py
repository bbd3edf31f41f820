import hashlib

import numpy as np
import pytest

from glstar import verify
from glstar.constructions import (
    builtin_example,
    builtin_h_numerator_coeffs,
    clifford,
    fg_star,
    h_value,
    latitudinal,
    pencil_from_mu,
    symmetric_star,
)
from glstar.errors import EvalError, InvalidInput
from glstar.functions import affine, as_fn1, moebius01, phi_r, power
from glstar.projgeom import join_batch, lines_meet_point, projective_distance
from glstar.search import StarLineSearch
from glstar.star import GlStar, fibonacci_sphere
from glstar.parallelism import dim_parallelism, make_parallelism
from glstar.verify import (
    KLEIN_CHECKS,
    applicable_checks,
    check_axial,
    check_coverage,
    check_fixed_point_free,
    check_involution,
    check_no_exterior_meet,
    check_pz_monotone,
    check_rotational,
    check_symmetric,
    descartes_bound,
    exterior_samples,
    positive_root_count,
    run_star_checks,
)

from bad_stars import (
    apex_star,
    corrupted_involution_star,
    exterior_center_star,
    nan_capped_star,
    near_identity_star,
    vertical_chord_star,
)
from meet_reference import chord_meet_points, flagged_chords, no_exterior_meet

BUILTIN = builtin_example()
SYMM = symmetric_star(moebius01())
LAT = latitudinal(pencil_from_mu(
    as_fn1(lambda th: np.asarray(th) ** 2 * (2 / np.pi),
           domain=(0.0, np.pi / 2))))
FG = fg_star(power(2), affine(1, -1), eps=-1)


# --- involution / fixed points -------------------------------------------------


def test_involution_clifford_exact():
    r = check_involution(clifford(), n=500)
    assert r.passed and r.max_residual < 1e-12 and r.witness is None


def test_involution_builtin():
    r = check_involution(BUILTIN, n=1000)
    assert r.passed and r.max_residual < 1e-9


def test_involution_corrupted_fails_with_witness():
    r = check_involution(corrupted_involution_star(), n=200)
    assert not r.passed and r.witness is not None


def test_involution_fails_at_the_first_non_finite_image():
    # sigma is applied again only to finite images: no InvalidInput from a
    # NaN fed back to sigma
    star = nan_capped_star()
    grid = fibonacci_sphere(1000)
    first = int(np.argmax(grid[:, 2] > 0.9))
    r = check_involution(star)
    assert not r.passed and np.isnan(r.max_residual)
    assert r.witness == tuple(grid[first])


def test_fixed_point_free():
    r = check_fixed_point_free(clifford(), n=500)
    assert r.passed and np.isclose(r.max_residual, 2.0)
    assert check_fixed_point_free(BUILTIN, n=500).passed
    ident = GlStar("identity", lambda q: np.asarray(q, float))
    assert not check_fixed_point_free(ident, n=100).passed


# --- exterior meets -------------------------------------------------------------


def test_no_exterior_meet_clifford():
    # every pair meets at the origin: interior, so the check passes
    r = check_no_exterior_meet(clifford(), n_pairs=2000)
    assert r.passed


def test_no_exterior_meet_builtin():
    assert check_no_exterior_meet(BUILTIN, n_pairs=2000).passed


def test_no_exterior_meet_violation():
    r = check_no_exterior_meet(exterior_center_star(), n_pairs=500)
    assert not r.passed
    assert r.witness is not None
    # the witness meeting point is the exterior chord center (1.5, 0, 0)
    w = np.asarray(r.witness[3:])
    w = w / w[0]
    assert np.allclose(w[1:], [1.5, 0, 0], atol=1e-6)


def test_no_exterior_meet_fails_on_a_non_finite_pairing():
    # the first pair with a chord from the NaN cap is the witness
    star = nan_capped_star()
    rng = np.random.default_rng(0)
    t, s = rng.random(5000), rng.random(5000)
    th = rng.uniform(0.0, 2.0 * np.pi, 5000)
    i = int(np.argmax((t > 0.9) | (s > 0.9)))
    r = check_no_exterior_meet(star)
    assert not r.passed and np.isnan(r.max_residual)
    assert r.witness == (t[i], s[i], th[i])
    reports = run_star_checks(star, checks=["involution", "no_exterior_meet"])
    assert [rep.passed for rep in reports] == [False, False]


# (t, s, theta) of the first sampled pair: all pairs meet at (1.5, 0, 0)
FIRST_EXTERIOR_CENTER_PAIR = {
    0: (0.6369616873214543, 0.885204221978855, 3.5688926959634197),
    1: (0.5118216247002567, 0.041629954629513355, 3.5947730012243566),
    3: (0.08564916714362436, 0.38629682765473694, 1.3371503785203103),
}


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_no_exterior_meet_witness_is_the_first_tied_pair(seed):
    # the flagged pairs' values tie up to rounding (within 4e-13), so the
    # witness is the first of them however the meets are computed
    star = exterior_center_star()
    (t, s, th), (A1, B1, A2, B2), pairs = flagged_chords(star, seed=seed)
    W, found = chord_meet_points(A1[pairs], B1[pairs], A2[pairs], B2[pairs])
    i = pairs[found][0]
    report = check_no_exterior_meet(star, seed=seed)
    assert report.witness[:3] == (t[i], s[i], th[i])
    assert report.witness[:3] == FIRST_EXTERIOR_CENTER_PAIR[seed]
    w = np.asarray(report.witness[3:])
    assert np.allclose(w[1:] / w[0], [1.5, 0.0, 0.0], atol=1e-12)


def _sides(W):
    """-1 interior, 0 on, 1 exterior: the sphere value of W against 1e-6."""
    v = (W[:, 1:] ** 2).sum(axis=1) - W[:, 0] ** 2
    v = v / (W * W).sum(axis=1)
    return np.where(v < -1e-6, -1, np.where(v > 1e-6, 1, 0))


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("name", ["clifford", "symmetric", "fg", "builtin",
                                  "latitudinal", "parabola", "clifford-off",
                                  "exterior-center"])
def test_closed_form_meets_match_the_svd_reference(seven_stars, name, seed):
    star = (exterior_center_star() if name == "exterior-center"
            else seven_stars[name])
    _, (A1, B1, A2, B2), pairs = flagged_chords(star, seed=seed)
    chords = (A1[pairs], B1[pairs]), (A2[pairs], B2[pairs])
    W, found = lines_meet_point(*chords)
    W_ref, found_ref = chord_meet_points(*chords[0], *chords[1])
    assert np.array_equal(found, found_ref)
    W, W_ref = W[found], W_ref[found]
    assert np.array_equal(_sides(W), _sides(W_ref))
    assert max((projective_distance(w, v) for w, v in zip(W, W_ref)),
               default=0.0) < 1e-12
    report, ref = check_no_exterior_meet(star, seed=seed), no_exterior_meet(
        star, seed=seed)
    if ref.passed:
        assert report == ref
    else:
        # every pair meets at (1.5, 0, 0): their values tie up to rounding,
        # so the first maximum may fall on another pair
        assert not report.passed
        assert abs(report.max_residual - ref.max_residual) < 1e-12
        assert projective_distance(report.witness[3:], ref.witness[3:]) < 1e-12


class _PlanarChords:
    """Chords in the plane y = 0 given by endpoint maps of t (theta is
    ignored, so every pair of lines meets)."""

    def __init__(self, first, second):
        self.first, self.second = first, second

    def chord(self, t, theta=0.0):
        t = np.asarray(t, float)
        return self.first(t), self.second(t)


def _xz(x, z):
    return np.stack([np.ones_like(x), x, np.zeros_like(x), z], axis=1)


def test_chords_sharing_a_sphere_point_do_not_violate():
    # every chord runs from (1, 0, 0) to another point of the circle
    phi = lambda t: 0.5 + 2.0 * t  # noqa: E731
    star = _PlanarChords(lambda t: _xz(np.ones_like(t), np.zeros_like(t)),
                         lambda t: _xz(np.cos(phi(t)), np.sin(phi(t))))
    report = check_no_exterior_meet(star, n_pairs=500)
    assert report.passed and report.max_residual == 0.0
    assert report == no_exterior_meet(star, n_pairs=500)


def test_meets_just_outside_the_sphere_violate():
    # lines tangent to the circle at angles in [0, 0.09]: two of them meet
    # at distance 1 / cos(half their angle) <= 1.001 from the centre, next
    # to both tangency points, but off the sphere
    al = lambda t: 0.09 * t  # noqa: E731
    star = _PlanarChords(
        lambda t: _xz(np.cos(al(t)), np.sin(al(t))),
        lambda t: _xz(np.cos(al(t)) - np.sin(al(t)),
                      np.sin(al(t)) + np.cos(al(t))))
    report = check_no_exterior_meet(star, n_pairs=500)
    ref = no_exterior_meet(star, n_pairs=500)
    assert not report.passed
    assert 1e-6 < report.max_residual < 1.1e-3
    assert report.witness[:3] == ref.witness[:3]
    assert abs(report.max_residual - ref.max_residual) < 1e-15
    assert np.allclose(report.witness[3:], ref.witness[3:], rtol=0, atol=1e-12)


# --- coverage --------------------------------------------------------------------


def test_coverage_clifford_single_line():
    star = clifford()
    search = StarLineSearch(star)
    hits = search.find(np.array([1.0, 2.0, 0.0, 0.0]))
    assert len(hits) == 1
    # the line is the x-axis
    k = join_batch(hits[0].A, hits[0].B)
    k = k / np.max(np.abs(k))
    assert np.allclose(k, [1, 0, 0, 0, 0, 0], atol=1e-9)


def test_coverage_z_infinity_is_axis():
    # the z-direction at infinity lies on Z alone, despite the whole t=1
    # parameter edge mapping to that line
    from glstar.projgeom import projective_distance
    for star in (SYMM, BUILTIN):
        hits = StarLineSearch(star).find(np.array([0.0, 0.0, 0.0, 1.0]))
        assert len(hits) == 1
        assert projective_distance(join_batch(hits[0].A, hits[0].B),
                                   [0, 0, 1, 0, 0, 0]) < 1e-8


def test_coverage_check_passes():
    assert check_coverage(SYMM, n_points=100).passed


def test_exterior_samples_are_exterior():
    W = exterior_samples(100, seed=1)
    aff = W[W[:, 0] != 0]
    radii = np.linalg.norm(aff[:, 1:] / aff[:, :1], axis=1)
    assert np.all(radii >= 1.1) and np.all(radii <= 3.0)
    assert np.any(W[:, 0] == 0)


# --- symmetry classifiers ---------------------------------------------------------


def test_rotational_classifier():
    assert check_rotational(clifford((0, 0, 0.5)), n=100).passed
    assert not check_rotational(clifford((0.5, 0, 0)), n=100).passed
    assert check_rotational(BUILTIN, n=100).passed


def test_axial_classifier():
    assert check_axial(LAT, n=128).passed
    assert check_axial(clifford(), n=128).passed
    assert not check_axial(BUILTIN, n=128).passed
    assert not check_axial(SYMM, n=128).passed


def test_symmetric_classifier():
    assert check_symmetric(SYMM, n=128).passed
    assert check_symmetric(clifford(), n=128).passed
    assert not check_symmetric(BUILTIN, n=128).passed
    assert not check_symmetric(FG, n=128).passed
    assert not check_symmetric(LAT, n=128).passed


# --- root counting ----------------------------------------------------------------


def test_positive_root_count_polynomial():
    # (a-1)(a-2): two positive roots, given as coefficients and as a callable
    assert positive_root_count([1.0, -3.0, 2.0]) == 2
    assert positive_root_count(lambda a: (a - 1.0) * (a - 2.0)) == 2


def test_positive_root_count_no_roots():
    assert positive_root_count(lambda a: np.asarray(a) ** 2 + 1.0) == 0


@pytest.mark.parametrize("a_grid", [[2.0, 1.0], [1.0, 1.0], [[1.0, 2.0]]])
def test_positive_root_count_needs_an_increasing_grid(a_grid):
    # the count reads each root off the cell between neighbouring grid points
    with pytest.raises(InvalidInput, match="strictly increasing"):
        positive_root_count(lambda a: np.asarray(a) - 1.5, a_grid=a_grid)


def test_positive_root_count_refuses_an_empty_grid():
    # a count of 0 would read as "no root"
    with pytest.raises(InvalidInput, match="one point or more"):
        positive_root_count(lambda a: np.asarray(a) - 1.5, a_grid=[])


def test_descartes_bound():
    assert descartes_bound([1.0, -3.0, 2.0]) == 2
    assert descartes_bound([2, 7, 8, 5.25, 3.25, -3, -1.5]) == 1
    assert descartes_bound([1.0, 0.0, 1.0]) == 0
    # fewer than two nonzero coefficients: no sign change
    for coeffs in ([], [0.0], [-2.0], [0.0, 3.0, 0.0], [0.0, 0.0]):
        assert descartes_bound(coeffs) == 0


def test_builtin_l_has_one_positive_root():
    coeffs = builtin_h_numerator_coeffs(1.0, 0.5)
    assert positive_root_count(coeffs) == 1
    # the h function itself at another admissible point
    fn = lambda a: h_value(phi_r(1.5), phi_r(2.0), 1.5, -0.3, a)
    assert positive_root_count(fn) == 1


# --- p_z monotonicity ---------------------------------------------------------------


def test_pz_monotone_builtin():
    r = check_pz_monotone(phi_r(1.5), phi_r(2.0))
    assert r.passed


def test_pz_monotone_z_above_one():
    r = check_pz_monotone(phi_r(1.5), phi_r(2.0), z_grid=[1.5])
    assert r.passed


def test_pz_monotone_fails_on_a_rising_profile():
    # phi_0.3 rises much faster than phi_5: p_z increases at z = 1.5
    r = check_pz_monotone(phi_r(0.3), phi_r(5.0))
    assert not r.passed and r.max_residual > 0.0
    assert r.witness == (1.5, 44.366873309786065)
    assert r.samples_used == 14 * 256


def test_pz_monotone_symmetric():
    r = check_pz_monotone(phi_r(1.5), phi_r(1.5))
    assert r.passed


def test_pz_equivalence_with_root_count():
    # both formulations of the uniqueness condition hold for the example
    t_fn, s_fn = phi_r(1.5), phi_r(2.0)
    assert check_pz_monotone(t_fn, s_fn).passed
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0.1, 2.0)
        z = rng.uniform(-0.95, 0.95)
        if z == 0 or x * x + z * z < 1.0:
            continue
        assert positive_root_count(
            lambda a: h_value(t_fn, s_fn, x, z, a)) <= 1


# --- suite runner -------------------------------------------------------------------


def test_run_star_checks_order_and_repeatability():
    reports1 = run_star_checks(SYMM, samples=80)
    reports2 = run_star_checks(SYMM, samples=80)
    assert [r.render() for r in reports1] == [r.render() for r in reports2]
    names = [r.name for r in reports1]
    assert names == ["involution", "fixed_point_free", "no_exterior_meet",
                     "coverage", "rotational", "symmetric"]


def test_positive_root_count_beyond_the_descartes_bound(monkeypatch):
    monkeypatch.setattr(verify, "descartes_bound", lambda coeffs: 0)
    with pytest.raises(EvalError, match="exceeds the Descartes bound 0"):
        positive_root_count([1.0, -3.0, 2.0])


def test_run_star_checks_subset():
    reports = run_star_checks(BUILTIN, checks=["involution", "coverage"],
                              samples=60)
    assert [r.name for r in reports] == ["involution", "coverage"]
    assert run_star_checks(BUILTIN, checks=[]) == []


@pytest.mark.parametrize("kwargs", [
    {"samples": 0}, {"samples": -5}, {"tol": 0.0}, {"tol": -1e-9},
    {"tol": float("nan")}, {"tol": float("inf")}, {"seed": -1}, {"seed": 1.5},
])
def test_run_star_checks_rejects_bad_samples_and_tol(kwargs):
    with pytest.raises(InvalidInput):
        run_star_checks(SYMM, checks=["involution"], **kwargs)


def test_run_star_checks_rejects_unknown_check():
    with pytest.raises(InvalidInput, match="unknown check 'bogus'"):
        run_star_checks(SYMM, checks=["bogus"])
    with pytest.raises(ValueError):  # InvalidInput is a ValueError
        run_star_checks(SYMM, checks=["bogus"])


@pytest.mark.parametrize("check,kwargs", [
    (check_involution, {"n": 0}), (check_involution, {"tol": float("nan")}),
    (check_fixed_point_free, {"n": 0}),
    (check_no_exterior_meet, {"n_pairs": 0}),
    (check_no_exterior_meet, {"tol": 0.0}),
    (check_no_exterior_meet, {"seed": -1}),
    (check_coverage, {"n_points": 0}), (check_coverage, {"tol": -1e-8}),
    (check_coverage, {"seed": -1}),
    (check_rotational, {"n": 0}), (check_rotational, {"tol": float("inf")}),
    (check_rotational, {"seed": 1.5}),
    (check_axial, {"n": 0}), (check_axial, {"tol": float("nan")}),
    (check_symmetric, {"n": 0}), (check_symmetric, {"tol": 0.0}),
])
def test_star_checks_validate_sampling(check, kwargs):
    # never a PASS on no samples, a FAIL on a nan tolerance, nor numpy's
    # own error
    with pytest.raises(InvalidInput):
        check(SYMM, **kwargs)


# A star that each check must reject, by check name
KNOWN_BAD = {
    "involution": corrupted_involution_star,
    "fixed_point_free": vertical_chord_star,
    "no_exterior_meet": exterior_center_star,
    "coverage": vertical_chord_star,
    "rotational": lambda: clifford((0.5, 0.0, 0.0)),
    "axial": builtin_example,
    "symmetric": builtin_example,
    "zero_secants": near_identity_star,
    "hfd": lambda: apex_star(lambda t: 0.3 + 0.1 * t),
    # no star fails it yet: the circle it rotates fixes every H-line
    "torus_fixes_classes": corrupted_involution_star,
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: the torus check cannot fail "
                            "until it is rebuilt on the automorphism algebra"))
    if name == "torus_fixes_classes" else name
    for name in verify.CHECKS])
def test_every_check_fails_on_its_known_bad_star(name):
    [report] = run_star_checks(KNOWN_BAD[name](), checks=[name])
    assert report.name == name
    assert not report.passed and report.witness is not None


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: the torus check cannot fail "
                            "until it is rebuilt on the automorphism algebra"))
    if name == "torus_fixes_classes" else name
    for name in verify.CHECKS])
def test_every_check_fails_on_its_known_bad_star_at_the_largest_tol(name):
    # no tol that a check takes lets its known-bad star pass; a tol above
    # MAX_TOL is refused
    [report] = run_star_checks(KNOWN_BAD[name](), checks=[name],
                               tol=verify.MAX_TOL)
    assert not report.passed and report.witness is not None
    with pytest.raises(InvalidInput, match="at most 0.001"):
        run_star_checks(KNOWN_BAD[name](), checks=[name],
                        tol=np.nextafter(verify.MAX_TOL, 1.0))


@pytest.mark.parametrize("make", [vertical_chord_star, near_identity_star])
def test_axial_names_the_line_sample_with_a_nan_residual(make):
    # the chord at t = 0 has coincident endpoints: its line residual is NaN,
    # which fails and is the witness, not a reflection sample
    report = check_axial(make())
    assert not report.passed and np.isnan(report.max_residual)
    assert report.witness == (0.0,)
    assert report.render().endswith(" witness=0")


def test_run_star_checks_reaches_klein_checks():
    # samples and tol reach the Klein checks as well
    reports = run_star_checks(clifford(), checks=["hfd", "involution",
                                                  "torus_fixes_classes"],
                              samples=20, tol=1e-20)
    assert [r.name for r in reports] == ["hfd", "involution",
                                         "torus_fixes_classes"]
    assert [r.samples_used for r in reports] == [20, 20, 20 * 16]
    assert not any(r.passed for r in reports)


def test_run_star_checks_calls_the_module_attributes(monkeypatch):
    # wrappers put on the module attributes (as a tracer does) see every
    # call, and the Klein checks share one parallelism
    from glstar import parallelism
    calls = []

    def recorder(module, name):
        original = getattr(module, name)

        def record(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, record)

    recorder(verify, "check_coverage")
    recorder(parallelism, "check_hfd")
    recorder(parallelism, "make_parallelism")
    reports = run_star_checks(SYMM, checks=["coverage", "hfd"], samples=10)
    assert [r.name for r in reports] == ["coverage", "hfd"]
    assert calls == ["make_parallelism", "check_coverage", "check_hfd"]
    calls.clear()
    run_star_checks(SYMM, checks=["zero_secants", "hfd"], samples=10)
    assert calls == ["make_parallelism", "check_hfd"]
    calls.clear()
    run_star_checks(SYMM, checks=["involution", "coverage"], samples=10)
    assert calls == ["check_coverage"]


def test_render_format():
    r = check_involution(clifford(), n=50)
    text = r.render()
    assert text.startswith("CHECK involution: PASS max_residual=")
    assert "samples=50" in text


def test_check_sampling_accepts_numpy_seed():
    from glstar.verify import check_sampling
    check_sampling(seed=np.int64(3))
    with pytest.raises(InvalidInput):
        check_sampling(seed=np.int64(-3))


def test_coverage_fails_on_vertical_chord_star():
    # (x, y, z) -> (x, y, -z): its chords are vertical, so exterior points
    # off the cylinder x^2 + y^2 <= 1 lie on no star line
    r = check_coverage(vertical_chord_star(), n_points=40)
    # a failing coverage report carries the witness point's line count
    assert not r.passed and r.max_residual == 0.0
    w = np.asarray(r.witness)
    assert w[1] ** 2 + w[2] ** 2 > w[0] ** 2  # off the cylinder


def _suite_text(star):
    """What the verify-suite workload runs on one star at seed 0: the
    report of every applicable check and of the three Klein checks, then
    dim_parallelism."""
    reports = run_star_checks(
        star, checks=applicable_checks(star) + list(KLEIN_CHECKS), seed=0)
    dim = dim_parallelism(make_parallelism(star).hfd, seed=0)
    return "\n".join([r.render() for r in reports]
                     + [f"dim_parallelism {dim}"])


# sha256 of _suite_text on the benchmark's own seven stars (the seven_stars
# fixture, whose latitudinal star has the smooth arc map of bench/run.py):
# any change to a check that moves a byte fails
SUITE_SHA256 = {
    "clifford":
        "11e1bdeb67fdee7e7e9f6c416947014e5c485d8f48742fcd611256c72bf5aab2",
    "symmetric":
        "7b5cd9d8ce2ce3103234547c7440bc0f3634402e72b9a9f6a319744ca9bc4865",
    "fg": "6e7a4756cf8dc7c3a8e72884b69e937ee6f21a7f595c0cdf015898145cf26941",
    "builtin":
        "fec0ead11c4e490c549f9beed39fd9f23cbb006976e7a8a73f54ebcb093aa97d",
    "latitudinal":
        "55b76704a7cef7f5ada7f075a3f030ef40e80e8d4a55711982f0fec542ffb297",
    "parabola":
        "5ef2d36e6dca0a04c412aac2e61deee499b2fe09b529a89255ebd30dee144c03",
    "clifford-off":
        "ca441625265310fabc72b4a6be3a423c6c0a1552eb18e9f01aa721c4fec06bf3",
}


@pytest.mark.parametrize("name", sorted(SUITE_SHA256))
def test_suite_reports_on_the_benchmark_stars_are_pinned(seven_stars, name):
    text = _suite_text(seven_stars[name])
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_SHA256[name]
